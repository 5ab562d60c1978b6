//! The simulator core: a virtual clock, a deterministic event queue, and the
//! network models, glued behind a small imperative API.
//!
//! The simulator is deliberately *passive*: it does not own the protocol
//! nodes. A harness (the `escape-cluster` crate) pumps [`Sim::step`] in a
//! loop, feeds delivered events into its nodes, and pushes the resulting
//! sends/timers back in. That keeps this crate independent of the consensus
//! engine's types and makes every experiment a plain, readable loop.
//!
//! Determinism: all randomness flows from one seeded [`Xoshiro256`]; ties in
//! the event queue break by insertion order; and node restarts use
//! *incarnation numbers* so pre-crash messages and timers can never leak
//! into a later life of the node.

use escape_core::rand::Xoshiro256;
use escape_core::time::{Duration, Time};
use escape_core::types::ServerId;

use crate::latency::LatencyModel;
use crate::loss::{ChaosModel, LossModel};
use crate::partition::PartitionMap;
use crate::queue::EventQueue;
use crate::trace::{DropCause, Trace, TraceEvent};

/// Messages the simulator can carry: cheap to clone and self-describing
/// for traces.
pub trait SimMessage: Clone + std::fmt::Debug {
    /// Short kind name for traces ("AppendEntries", …).
    fn kind_name(&self) -> &'static str {
        "message"
    }
}

impl SimMessage for escape_core::message::Message {
    fn kind_name(&self) -> &'static str {
        match self {
            escape_core::message::Message::AppendEntries(_) => "AppendEntries",
            escape_core::message::Message::AppendEntriesReply(_) => "AppendEntriesReply",
            escape_core::message::Message::RequestVote(_) => "RequestVote",
            escape_core::message::Message::RequestVoteReply(_) => "RequestVoteReply",
            escape_core::message::Message::InstallSnapshot(_) => "InstallSnapshot",
            escape_core::message::Message::InstallSnapshotReply(_) => "InstallSnapshotReply",
        }
    }
}

/// Internal queued event.
#[derive(Clone, Debug)]
enum SimEvent<M> {
    Deliver {
        from: ServerId,
        to: ServerId,
        msg: M,
        incarnation: u64,
    },
    Timer {
        node: ServerId,
        token: u64,
        incarnation: u64,
    },
    /// The queued entry of a [`Sim::arm`] slot, known by the sequence
    /// number it was queued under.
    Slot {
        node: ServerId,
        slot: usize,
        seq: u64,
    },
}

/// The newest arming of a timer slot.
#[derive(Clone, Copy, Debug)]
struct Armed {
    deadline: Time,
    /// The queue sequence number reserved when it was armed: where it
    /// sorts among events due at the same instant.
    seq: u64,
    token: u64,
    incarnation: u64,
}

/// One `(node, slot)` timer of [`Sim::arm`].
#[derive(Clone, Copy, Debug, Default)]
struct TimerSlot {
    /// The arming that fires; `None` once it has.
    live: Option<Armed>,
    /// `(deadline, seq)` of the one queued entry that delivers `live` or
    /// moves it on. An entry of this slot queued under any other
    /// sequence number was overtaken by an earlier arming and is
    /// dropped when it pops.
    carrier: Option<(Time, u64)>,
}

/// An event the harness must act on, already filtered for crashes and stale
/// incarnations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ready<M> {
    /// Deliver `msg` from `from` to `to`.
    Message {
        /// Sender.
        from: ServerId,
        /// Receiver (alive, current incarnation).
        to: ServerId,
        /// The payload.
        msg: M,
    },
    /// `node`'s timer with opaque `token` expired.
    Timer {
        /// The timer's owner.
        node: ServerId,
        /// The opaque token passed to [`Sim::set_timer`] or [`Sim::arm`].
        token: u64,
    },
}

/// Network-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted for transmission.
    pub sent: u64,
    /// Messages handed to their destination.
    pub delivered: u64,
    /// Messages eaten by the loss model.
    pub dropped_loss: u64,
    /// Messages blocked by a partition.
    pub dropped_partition: u64,
    /// Messages addressed to a crashed or re-incarnated node.
    pub dropped_crashed: u64,
    /// Timer events fired (current incarnation only). A slot timer
    /// ([`Sim::arm`]) counts once per live firing: armings it superseded
    /// never fire and are not counted.
    pub timers_fired: u64,
    /// Extra copies injected by the chaos model.
    pub duplicated: u64,
    /// Frames that picked up a chaos reorder delay.
    pub reordered: u64,
}

/// The deterministic discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use escape_core::time::{Duration, Time};
/// use escape_core::types::ServerId;
/// use escape_simnet::latency::LatencyModel;
/// use escape_simnet::loss::LossModel;
/// use escape_simnet::sim::{Ready, Sim};
///
/// #[derive(Clone, Debug, PartialEq, Eq)]
/// struct Ping(u32);
/// impl escape_simnet::sim::SimMessage for Ping {}
///
/// let mut sim: Sim<Ping> = Sim::new(42, LatencyModel::Constant(Duration::from_millis(10)), LossModel::None);
/// sim.send(ServerId::new(1), ServerId::new(2), Ping(7));
/// match sim.step() {
///     Some(Ready::Message { from, to, msg }) => {
///         assert_eq!((from.get(), to.get(), msg.0), (1, 2, 7));
///         assert_eq!(sim.now(), Time::from_millis(10));
///     }
///     other => panic!("expected a delivery, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sim<M: SimMessage> {
    now: Time,
    queue: EventQueue<SimEvent<M>>,
    latency: LatencyModel,
    loss: LossModel,
    chaos: ChaosModel,
    partitions: PartitionMap,
    rng: Xoshiro256,
    /// Crashed nodes, by `ServerId::index()`.
    crashed: Vec<bool>,
    /// Restarts so far, by `ServerId::index()`.
    incarnations: Vec<u64>,
    /// [`Sim::arm`] slots, by `ServerId::index()` and then slot.
    timers: Vec<Vec<TimerSlot>>,
    trace: Trace,
    stats: NetStats,
}

impl<M: SimMessage> Sim<M> {
    /// Creates a simulator with the given seed and network models.
    pub fn new(seed: u64, latency: LatencyModel, loss: LossModel) -> Self {
        Sim {
            now: Time::ZERO,
            queue: EventQueue::new(),
            latency,
            loss,
            chaos: ChaosModel::none(),
            partitions: PartitionMap::new(),
            rng: Xoshiro256::seed_from(seed),
            crashed: Vec::new(),
            incarnations: Vec::new(),
            timers: Vec::new(),
            trace: Trace::disabled(),
            stats: NetStats::default(),
        }
    }

    /// Turns on structured tracing (see [`Trace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Trace::enabled();
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Network counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The partition controls.
    pub fn partitions_mut(&mut self) -> &mut PartitionMap {
        &mut self.partitions
    }

    /// Replaces the loss model mid-run (e.g. inject loss only after the
    /// cluster is settled).
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// Replaces the latency model mid-run.
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Replaces the frame chaos model (duplication / reordering) mid-run.
    ///
    /// A [`ChaosModel::none`] model draws nothing from the RNG, so runs
    /// that never enable chaos keep the exact event stream of builds that
    /// predate it.
    pub fn set_chaos(&mut self, chaos: ChaosModel) {
        self.chaos = chaos;
    }

    /// The configured chaos model.
    pub fn chaos(&self) -> &ChaosModel {
        &self.chaos
    }

    /// The configured latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Forks an independent RNG stream (for harness-side randomness that
    /// must not perturb network draws).
    pub fn fork_rng(&mut self, stream: u64) -> Xoshiro256 {
        self.rng.fork(stream)
    }

    // ---- fault injection ----

    /// `true` if `node` is currently crashed.
    pub fn is_crashed(&self, node: ServerId) -> bool {
        self.crashed.get(node.index()).copied().unwrap_or(false)
    }

    /// Crashes `node`: pending deliveries and timers die with it.
    pub fn crash(&mut self, node: ServerId) {
        let index = node.index();
        if self.crashed.len() <= index {
            self.crashed.resize(index + 1, false);
            self.incarnations.resize(index + 1, 0);
        }
        if !std::mem::replace(&mut self.crashed[index], true) {
            self.trace.record(TraceEvent::Crashed {
                at: self.now,
                node,
            });
        }
    }

    /// Restarts `node` under a fresh incarnation; anything scheduled for a
    /// previous life is silently discarded when popped.
    pub fn restart(&mut self, node: ServerId) {
        if self.is_crashed(node) {
            self.crashed[node.index()] = false;
            self.incarnations[node.index()] += 1;
            self.trace.record(TraceEvent::Restarted {
                at: self.now,
                node,
            });
        }
    }

    fn incarnation(&self, node: ServerId) -> u64 {
        self.incarnations.get(node.index()).copied().unwrap_or(0)
    }

    // ---- scheduling ----

    /// Sends a unicast message, subject to latency, loss and partitions.
    pub fn send(&mut self, from: ServerId, to: ServerId, msg: M) {
        self.stats.sent += 1;
        if !self.partitions.connected(from, to) {
            self.stats.dropped_partition += 1;
            self.trace.record(TraceEvent::Dropped {
                at: self.now,
                from,
                to,
                cause: DropCause::Partition,
            });
            return;
        }
        if !self.loss.unicast_survives(&mut self.rng) {
            self.stats.dropped_loss += 1;
            self.trace.record(TraceEvent::Dropped {
                at: self.now,
                from,
                to,
                cause: DropCause::Loss,
            });
            return;
        }
        self.enqueue_delivery(from, to, msg);
    }

    /// Sends one logical broadcast: the loss model omits receivers at the
    /// fan-out granularity (§VI-D), then each surviving copy is delayed and
    /// partition-checked independently.
    pub fn send_broadcast(&mut self, from: ServerId, fanout: Vec<(ServerId, M)>) {
        let omitted = self.loss.broadcast_omissions(fanout.len(), &mut self.rng);
        for (position, (to, msg)) in fanout.into_iter().enumerate() {
            self.stats.sent += 1;
            if omitted.contains(&position) {
                self.stats.dropped_loss += 1;
                self.trace.record(TraceEvent::Dropped {
                    at: self.now,
                    from,
                    to,
                    cause: DropCause::Loss,
                });
                continue;
            }
            if !self.partitions.connected(from, to) {
                self.stats.dropped_partition += 1;
                self.trace.record(TraceEvent::Dropped {
                    at: self.now,
                    from,
                    to,
                    cause: DropCause::Partition,
                });
                continue;
            }
            self.enqueue_delivery(from, to, msg);
        }
    }

    fn enqueue_delivery(&mut self, from: ServerId, to: ServerId, msg: M) {
        let mut delay = self.latency.sample(from, to, &mut self.rng);
        let incarnation = self.incarnation(to);
        if !self.chaos.is_none() {
            let verdict = self.chaos.frame_verdict(&mut self.rng);
            if let Some(extra) = verdict.extra_delay {
                delay += extra;
                self.stats.reordered += 1;
            }
            if verdict.duplicate {
                // The twin samples its own latency, so the copies usually
                // land at different times (and possibly out of order).
                let twin_delay = self.latency.sample(from, to, &mut self.rng);
                self.stats.duplicated += 1;
                self.queue.push(
                    self.now + twin_delay,
                    SimEvent::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                        incarnation,
                    },
                );
            }
        }
        self.queue.push(
            self.now + delay,
            SimEvent::Deliver {
                from,
                to,
                msg,
                incarnation,
            },
        );
    }

    /// Arms a timer for `node`; the opaque `token` comes back in
    /// [`Ready::Timer`]. Timers die with the node's incarnation. Every
    /// call fires on its own; for a timer that each new deadline
    /// supersedes, use [`Sim::arm`].
    pub fn set_timer(&mut self, node: ServerId, token: u64, deadline: Time) {
        let incarnation = self.incarnation(node);
        self.queue.push(
            deadline,
            SimEvent::Timer {
                node,
                token,
                incarnation,
            },
        );
    }

    /// Schedules `token` on `to`'s timer queue one sampled `from → to`
    /// link latency from now: a connection-level signal (a peer's FIN)
    /// that travels like a frame but that the loss model never omits. A
    /// partition stops it like any frame, and it dies with `to`'s
    /// incarnation like any timer.
    pub fn signal(&mut self, from: ServerId, to: ServerId, token: u64) {
        if !self.partitions.connected(from, to) {
            return;
        }
        let delay = self.latency.sample(from, to, &mut self.rng);
        self.set_timer(to, token, self.now + delay);
    }

    /// Arms timer `slot` of `node` to fire at `deadline` with `token`,
    /// superseding whatever that slot was armed with before — the
    /// one-deadline-per-kind contract of a consensus engine's timers.
    /// Like [`Sim::set_timer`], the timer dies with the node's
    /// incarnation, so an arming from before a crash never fires after
    /// the restart.
    ///
    /// A superseded arming fires nothing, and the queue holds at most one
    /// entry per slot for it: re-arming *later* only records the new
    /// arming, and the queued entry, when it pops, moves on to it. Only
    /// re-arming *earlier* queues a fresh entry (the old one is dropped
    /// when it pops). Each arming reserves its queue sequence number when
    /// it is made, so it fires exactly where [`Sim::set_timer`] would have
    /// put it among the other events.
    pub fn arm(&mut self, node: ServerId, slot: usize, token: u64, deadline: Time) {
        let seq = self.queue.reserve();
        let incarnation = self.incarnation(node);
        let index = node.index();
        if self.timers.len() <= index {
            self.timers.resize_with(index + 1, Vec::new);
        }
        let slots = &mut self.timers[index];
        if slots.len() <= slot {
            slots.resize(slot + 1, TimerSlot::default());
        }
        let timer = &mut slots[slot];
        timer.live = Some(Armed {
            deadline,
            seq,
            token,
            incarnation,
        });
        if timer.carrier.map_or(true, |(at, _)| deadline < at) {
            timer.carrier = Some((deadline, seq));
            self.queue
                .push_reserved(deadline, seq, SimEvent::Slot { node, slot, seq });
        }
    }

    // ---- the pump ----

    /// Advances to the next relevant event and returns it, or `None` when
    /// the simulation has quiesced. The virtual clock never moves backwards.
    pub fn step(&mut self) -> Option<Ready<M>> {
        loop {
            match self.pop_one()? {
                Some(ready) => return Some(ready),
                None => continue, // filtered (stale/crashed); try the next event
            }
        }
    }

    /// Pops exactly one queued event. Outer `None`: the queue is empty.
    /// Inner `None`: the event was filtered (stale incarnation or crashed
    /// target) and consumed without becoming ready.
    fn pop_one(&mut self) -> Option<Option<Ready<M>>> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time ran backwards");
        self.now = at;
        match event {
            SimEvent::Deliver {
                from,
                to,
                msg,
                incarnation,
            } => {
                if self.is_crashed(to) {
                    self.stats.dropped_crashed += 1;
                    self.trace.record(TraceEvent::Dropped {
                        at,
                        from,
                        to,
                        cause: DropCause::TargetCrashed,
                    });
                    return Some(None);
                }
                if incarnation != self.incarnation(to) {
                    self.stats.dropped_crashed += 1;
                    self.trace.record(TraceEvent::Dropped {
                        at,
                        from,
                        to,
                        cause: DropCause::StaleIncarnation,
                    });
                    return Some(None);
                }
                self.stats.delivered += 1;
                self.trace.record(TraceEvent::Delivered {
                    at,
                    from,
                    to,
                    what: msg.kind_name(),
                });
                Some(Some(Ready::Message { from, to, msg }))
            }
            SimEvent::Timer {
                node,
                token,
                incarnation,
            } => {
                if self.is_crashed(node) || incarnation != self.incarnation(node) {
                    return Some(None);
                }
                self.stats.timers_fired += 1;
                Some(Some(Ready::Timer { node, token }))
            }
            SimEvent::Slot { node, slot, seq } => {
                let Some(timer) = self
                    .timers
                    .get_mut(node.index())
                    .and_then(|slots| slots.get_mut(slot))
                else {
                    return Some(None);
                };
                if timer.carrier.map(|(_, carried)| carried) != Some(seq) {
                    return Some(None); // overtaken by an earlier arming
                }
                let Some(live) = timer.live else {
                    timer.carrier = None;
                    return Some(None);
                };
                if live.seq != seq {
                    // Re-armed later since this entry was queued: carry
                    // the live arming on to its own place in the order.
                    timer.carrier = Some((live.deadline, live.seq));
                    self.queue.push_reserved(
                        live.deadline,
                        live.seq,
                        SimEvent::Slot {
                            node,
                            slot,
                            seq: live.seq,
                        },
                    );
                    return Some(None);
                }
                *timer = TimerSlot::default();
                if self.is_crashed(node) || live.incarnation != self.incarnation(node) {
                    return Some(None);
                }
                self.stats.timers_fired += 1;
                Some(Some(Ready::Timer {
                    node,
                    token: live.token,
                }))
            }
        }
    }

    /// Like [`Sim::step`], but refuses to cross `deadline`: events at or
    /// after it stay queued and `None` is returned (with the clock advanced
    /// to `deadline`).
    pub fn step_before(&mut self, deadline: Time) -> Option<Ready<M>> {
        loop {
            match self.queue.peek_time() {
                // Strictly before the deadline: consume one event. A
                // filtered event (stale/crashed) is swallowed and the next
                // queue head re-examined, so the deadline check applies to
                // every event actually popped — `step()` here could pop a
                // later-than-deadline event after a filtered head.
                Some(t) if t < deadline => match self.pop_one() {
                    Some(Some(ready)) => return Some(ready),
                    Some(None) => continue,
                    None => unreachable!("peek_time saw a queued event"),
                },
                _ => {
                    self.now = self.now.max(deadline);
                    return None;
                }
            }
        }
    }

    /// Number of queued (not yet filtered) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Advances the clock with no event (idle waiting).
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past.
    pub fn advance_to(&mut self, to: Time) {
        assert!(to >= self.now, "cannot rewind the clock");
        self.now = to;
    }

    /// A convenience horizon: now plus the worst-case latency, useful for
    /// "let in-flight traffic settle" loops.
    pub fn settle_horizon(&self) -> Time {
        self.now + self.latency.max_latency() + Duration::from_millis(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping(u32);
    impl SimMessage for Ping {}

    fn sim(seed: u64) -> Sim<Ping> {
        Sim::new(
            seed,
            LatencyModel::Constant(Duration::from_millis(10)),
            LossModel::None,
        )
    }

    fn s(id: u32) -> ServerId {
        ServerId::new(id)
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let mut sim = sim(1);
        sim.send(s(1), s(2), Ping(1));
        sim.advance_to(Time::from_millis(5));
        sim.send(s(1), s(2), Ping(2));
        assert_eq!(
            sim.step(),
            Some(Ready::Message {
                from: s(1),
                to: s(2),
                msg: Ping(1)
            })
        );
        assert_eq!(sim.now(), Time::from_millis(10));
        assert_eq!(
            sim.step(),
            Some(Ready::Message {
                from: s(1),
                to: s(2),
                msg: Ping(2)
            })
        );
        assert_eq!(sim.now(), Time::from_millis(15));
        assert_eq!(sim.step(), None);
    }

    #[test]
    fn crashed_target_swallows_messages() {
        let mut sim = sim(2);
        sim.enable_tracing();
        sim.crash(s(2));
        sim.send(s(1), s(2), Ping(1));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.stats().dropped_crashed, 1);
        assert_eq!(sim.trace().drops_by_cause(DropCause::TargetCrashed), 1);
    }

    #[test]
    fn restart_invalidates_in_flight_messages_and_timers() {
        let mut sim = sim(3);
        sim.send(s(1), s(2), Ping(1));
        sim.set_timer(s(2), 77, Time::from_millis(20));
        sim.crash(s(2));
        sim.restart(s(2));
        // Both the in-flight message and the timer belong to incarnation 0.
        assert_eq!(sim.step(), None);
        // New-incarnation traffic flows.
        sim.send(s(1), s(2), Ping(2));
        assert!(matches!(sim.step(), Some(Ready::Message { msg: Ping(2), .. })));
    }

    #[test]
    fn timers_fire_at_their_deadline() {
        let mut sim = sim(4);
        sim.set_timer(s(3), 9, Time::from_millis(100));
        assert_eq!(
            sim.step(),
            Some(Ready::Timer {
                node: s(3),
                token: 9
            })
        );
        assert_eq!(sim.now(), Time::from_millis(100));
        assert_eq!(sim.stats().timers_fired, 1);
    }

    /// Drains the simulator, returning what fired and when (ms).
    fn drain(sim: &mut Sim<Ping>) -> Vec<(u64, Ready<Ping>)> {
        std::iter::from_fn(|| sim.step().map(|ready| (sim.now().as_millis(), ready))).collect()
    }

    fn fired(node: u32, token: u64) -> Ready<Ping> {
        Ready::Timer {
            node: s(node),
            token,
        }
    }

    fn delivered(from: u32, to: u32, ping: u32) -> Ready<Ping> {
        Ready::Message {
            from: s(from),
            to: s(to),
            msg: Ping(ping),
        }
    }

    #[test]
    fn later_rearm_fires_once_at_its_own_deadline() {
        let mut sim = sim(20);
        sim.arm(s(1), 0, 1, Time::from_millis(100));
        sim.arm(s(1), 0, 2, Time::from_millis(150));
        assert_eq!(drain(&mut sim), vec![(150, fired(1, 2))]);
        assert_eq!(sim.stats().timers_fired, 1);
    }

    #[test]
    fn earlier_rearm_fires_at_the_earlier_deadline() {
        let mut sim = sim(21);
        sim.arm(s(1), 0, 1, Time::from_millis(100));
        sim.arm(s(1), 0, 2, Time::from_millis(40));
        assert_eq!(drain(&mut sim), vec![(40, fired(1, 2))]);
        assert_eq!(sim.stats().timers_fired, 1);
        assert_eq!(sim.pending(), 0, "the overtaken entry was dropped");
    }

    #[test]
    fn slot_armed_before_a_crash_never_fires_after_the_restart() {
        let mut sim = sim(22);
        sim.arm(s(2), 0, 1, Time::from_millis(20));
        sim.crash(s(2));
        sim.restart(s(2));
        assert!(drain(&mut sim).is_empty());
        // Re-armed by the new incarnation, later or earlier than the
        // pre-crash arming: only the new one fires.
        sim.arm(s(2), 0, 2, Time::from_millis(50));
        sim.crash(s(2));
        sim.restart(s(2));
        sim.arm(s(2), 0, 3, Time::from_millis(80));
        sim.arm(s(2), 1, 4, Time::from_millis(60));
        sim.crash(s(2));
        sim.restart(s(2));
        sim.arm(s(2), 1, 5, Time::from_millis(55));
        assert_eq!(drain(&mut sim), vec![(55, fired(2, 5))]);
    }

    #[test]
    fn slots_are_independent() {
        let mut sim = sim(23);
        sim.arm(s(1), 0, 10, Time::from_millis(30));
        sim.arm(s(1), 1, 11, Time::from_millis(20));
        sim.arm(s(2), 0, 12, Time::from_millis(25));
        sim.arm(s(1), 0, 13, Time::from_millis(40));
        assert_eq!(
            drain(&mut sim),
            vec![(20, fired(1, 11)), (25, fired(2, 12)), (40, fired(1, 13))]
        );
    }

    /// A re-armed slot sorts among events due at the same instant by when
    /// it was *armed*, exactly as a fresh `set_timer` would.
    #[test]
    fn equal_deadline_ties_keep_arm_order_against_deliveries() {
        let mut sim = sim(24); // constant 10 ms latency
        let t = Time::from_millis(10);
        sim.arm(s(1), 0, 1, Time::from_millis(5)); // carrier, pops first
        sim.send(s(2), s(1), Ping(1)); // due at 10, queued before the re-arm
        sim.arm(s(1), 0, 2, t); // re-armed later: rides the carrier
        sim.send(s(2), s(1), Ping(2)); // due at 10, queued after it
        sim.arm(s(1), 1, 3, t); // another slot, armed last
        let ms = t.as_millis();
        assert_eq!(
            drain(&mut sim),
            vec![
                (ms, delivered(2, 1, 1)),
                (ms, fired(1, 2)),
                (ms, delivered(2, 1, 2)),
                (ms, fired(1, 3)),
            ]
        );
    }

    #[test]
    fn pending_stays_bounded_under_rearms() {
        let mut sim = sim(25);
        for i in 0..1000u64 {
            // Each heartbeat pushes the failure detector back.
            sim.arm(s(1), 0, i, Time::from_millis(100 + i));
            sim.arm(s(2), 0, i, Time::from_millis(100 + i));
        }
        assert_eq!(sim.pending(), 2, "one queued entry per slot");
        assert_eq!(
            drain(&mut sim),
            vec![(1099, fired(1, 999)), (1099, fired(2, 999))]
        );
    }

    #[test]
    fn partition_blocks_at_send_time() {
        let mut sim = sim(5);
        sim.partitions_mut().split(&[vec![s(1)], vec![s(2)]]);
        sim.send(s(1), s(2), Ping(1));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.stats().dropped_partition, 1);
        // Healing lets *new* messages through.
        sim.partitions_mut().heal();
        sim.send(s(1), s(2), Ping(2));
        assert!(matches!(sim.step(), Some(Ready::Message { .. })));
    }

    #[test]
    fn broadcast_omission_drops_exact_fraction() {
        let mut sim: Sim<Ping> = Sim::new(
            6,
            LatencyModel::Constant(Duration::from_millis(1)),
            LossModel::BroadcastOmission(0.25),
        );
        let fanout: Vec<(ServerId, Ping)> = (2..=9).map(|i| (s(i), Ping(i))).collect();
        sim.send_broadcast(s(1), fanout);
        let mut delivered = 0;
        while sim.step().is_some() {
            delivered += 1;
        }
        // 8 receivers, round(0.25·8) = 2 omitted.
        assert_eq!(delivered, 6);
        assert_eq!(sim.stats().dropped_loss, 2);
    }

    #[test]
    fn step_before_respects_the_deadline() {
        let mut sim = sim(8);
        sim.send(s(1), s(2), Ping(1)); // arrives at 10ms
        assert_eq!(sim.step_before(Time::from_millis(10)), None);
        assert_eq!(sim.now(), Time::from_millis(10));
        assert!(matches!(
            sim.step_before(Time::from_millis(11)),
            Some(Ready::Message { .. })
        ));
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed: u64| {
            let mut sim: Sim<Ping> = Sim::new(
                seed,
                LatencyModel::Uniform {
                    min: Duration::from_millis(5),
                    max: Duration::from_millis(50),
                },
                LossModel::Bernoulli(0.2),
            );
            for i in 1..=20 {
                sim.send(s(1 + i % 3), s(1 + (i + 1) % 3), Ping(i));
            }
            let mut log = Vec::new();
            while let Some(ev) = sim.step() {
                log.push(format!("{:?}@{}", ev, sim.now()));
            }
            log
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn duplication_delivers_twins() {
        let mut sim = sim(11);
        sim.set_chaos(ChaosModel {
            duplicate_p: 1.0,
            reorder_p: 0.0,
            reorder_span: Duration::ZERO,
        });
        sim.send(s(1), s(2), Ping(1));
        let mut delivered = 0;
        while sim.step().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 2);
        assert_eq!(sim.stats().duplicated, 1);
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        // Constant latency means arrival order == send order unless the
        // reorder delay kicks in. Force a reorder on every frame and check
        // at least one pair swaps across many sends.
        let mut sim = sim(12);
        sim.set_chaos(ChaosModel {
            duplicate_p: 0.0,
            reorder_p: 1.0,
            reorder_span: Duration::from_millis(50),
        });
        for i in 0..20 {
            sim.send(s(1), s(2), Ping(i));
            sim.advance_to(sim.now() + Duration::from_millis(1));
        }
        let mut order = Vec::new();
        while let Some(Ready::Message { msg, .. }) = sim.step() {
            order.push(msg.0);
        }
        assert_eq!(order.len(), 20);
        assert_eq!(sim.stats().reordered, 20);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "50ms span over 1ms spacing must swap something");
    }

    #[test]
    fn none_chaos_leaves_rng_stream_untouched() {
        let run = |chaos: bool| {
            let mut sim: Sim<Ping> = Sim::new(
                13,
                LatencyModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(20),
                },
                LossModel::Bernoulli(0.1),
            );
            if chaos {
                sim.set_chaos(ChaosModel::none());
            }
            for i in 0..50 {
                sim.send(s(1 + i % 3), s(1 + (i + 1) % 3), Ping(i));
            }
            let mut log = Vec::new();
            while let Some(ev) = sim.step() {
                log.push(format!("{:?}@{}", ev, sim.now()));
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn chaos_runs_replay_from_their_seed() {
        let run = || {
            let mut sim: Sim<Ping> = Sim::new(
                14,
                LatencyModel::Uniform {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(10),
                },
                LossModel::Bernoulli(0.05),
            );
            sim.set_chaos(ChaosModel {
                duplicate_p: 0.2,
                reorder_p: 0.3,
                reorder_span: Duration::from_millis(25),
            });
            for i in 0..100 {
                sim.send(s(1 + i % 5), s(1 + (i + 2) % 5), Ping(i));
            }
            let mut log = Vec::new();
            while let Some(ev) = sim.step() {
                log.push(format!("{:?}@{}", ev, sim.now()));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn clock_cannot_rewind() {
        let mut sim = sim(9);
        sim.advance_to(Time::from_millis(10));
        sim.advance_to(Time::from_millis(5));
    }

    #[test]
    fn stats_count_deliveries() {
        let mut sim = sim(10);
        sim.send(s(1), s(2), Ping(1));
        sim.send(s(2), s(1), Ping(2));
        while sim.step().is_some() {}
        let st = sim.stats();
        assert_eq!(st.sent, 2);
        assert_eq!(st.delivered, 2);
        assert_eq!(st.dropped_loss + st.dropped_partition + st.dropped_crashed, 0);
    }
}
