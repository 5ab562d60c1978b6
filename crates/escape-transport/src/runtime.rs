//! The real-time node loop every hosted group runs.
//!
//! One OS thread per consensus node: it multiplexes an inbox channel
//! (peer messages + client commands + control) with the engine's armed
//! timers via `recv_timeout`, and pushes outbound messages through an
//! [`Outbound`] implementation (the TCP mesh's
//! [`GroupOutbound`](crate::tcp::GroupOutbound); tests substitute their
//! own).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use escape_core::engine::{Action, Node, ProposeError, TimerKind, TimerToken};
use escape_core::message::Message;
use escape_core::metrics::NodeMetrics;
use escape_core::time::Time;
use escape_core::types::{LogIndex, Role, ServerId, Term};

use crate::clock::RuntimeClock;

/// Sends messages to peers on behalf of a node.
pub trait Outbound: Send + 'static {
    /// Best-effort delivery of `msg` to `to` (errors are the network's
    /// problem; the protocol tolerates loss).
    fn send(&self, to: ServerId, msg: Message);

    /// Total outbound frames this node has dropped under backpressure
    /// (bounded per-peer queues shed oldest-first). Transports without a
    /// bounded queue report zero.
    fn frames_dropped(&self) -> u64 {
        0
    }

    /// Outbound frames dropped to one specific peer, for the engine's
    /// per-peer backpressure clamp. Transports without a bounded queue
    /// report zero.
    fn frames_dropped_to(&self, _to: ServerId) -> u64 {
        0
    }
}

/// A snapshot of a node's externally visible state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node.
    pub id: ServerId,
    /// Role right now.
    pub role: Role,
    /// Current term.
    pub term: Term,
    /// Last known leader.
    pub leader_hint: Option<ServerId>,
    /// Commit index.
    pub commit_index: LogIndex,
    /// Applied index.
    pub last_applied: LogIndex,
    /// Log length.
    pub log_len: usize,
    /// The engine's protocol counters at snapshot time — including the
    /// replication pipeline's batch-size and commit-latency histograms.
    pub metrics: NodeMetrics,
    /// Outbound frames this node's transport shed under backpressure.
    pub frames_dropped: u64,
}

/// Everything a node thread can receive.
pub enum NodeInput {
    /// A protocol message from a peer.
    Peer(ServerId, Message),
    /// A client command; the reply carries the assigned index or the
    /// refusal.
    Propose {
        /// Encoded state-machine command.
        command: Bytes,
        /// Where to send the outcome.
        reply: Sender<Result<LogIndex, ProposeError>>,
    },
    /// A batch of linearizable read-only queries, answered off the log via
    /// the engine's ReadIndex/lease path; the reply carries one response
    /// per query, in order, or the leadership refusal.
    Read {
        /// Encoded state-machine queries.
        queries: Vec<Bytes>,
        /// Where to send the outcome.
        reply: Sender<Result<Vec<Bytes>, ProposeError>>,
    },
    /// Ask for a status snapshot.
    Query {
        /// Where to send the snapshot.
        reply: Sender<NodeStatus>,
    },
    /// Register interest in the application of `index`; the reply fires
    /// with the state machine's response once applied.
    AwaitApplied {
        /// The awaited log index.
        index: LogIndex,
        /// Where to send the apply result.
        reply: Sender<Bytes>,
    },
    /// The group's WAL thread finished a flush: the ticket of the newest
    /// deferred barrier it covers (see
    /// [`Node::barrier_done`](escape_core::engine::Node::barrier_done)),
    /// or the storage error that ended it — on which the node fail-stops,
    /// as it does for an error met on its own thread.
    BarrierDone(std::io::Result<u64>),
    /// Stop the thread.
    Shutdown,
}

/// Runs a node until shutdown. This is the body of every group's node
/// thread.
pub fn node_loop(
    node: Node,
    inbox: Receiver<NodeInput>,
    outbound: Arc<dyn Outbound + Sync>,
    clock: RuntimeClock,
) {
    let mut thread = NodeThread {
        peers: node.peers().to_vec(),
        node,
        outbound,
        clock,
        timers: BTreeMap::new(),
        apply_waiters: HashMap::new(),
        read_waiters: HashMap::new(),
        recent_results: BTreeMap::new(),
        drops_seen: BTreeMap::new(),
        election_backlog: None,
    };
    let actions = thread.node.start(clock.now());
    thread.absorb(actions);

    loop {
        thread.poll_backpressure();
        thread.fire_due_timers(&inbox);

        // Wait for the earliest timer or the next input, whichever first;
        // an idle node just parks on the inbox.
        let wait = match thread.timers.values().map(|(_, d)| *d).min() {
            Some(deadline) => clock.until(deadline).unwrap_or(std::time::Duration::ZERO),
            None => std::time::Duration::from_millis(50),
        };
        let first = match inbox.recv_timeout(wait) {
            Ok(input) => input,
            // Due timers fire at the top of the next iteration; a held
            // election deadline has nothing left to wait for.
            Err(RecvTimeoutError::Timeout) => {
                thread.election_backlog = thread.election_backlog.map(|_| 0);
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        thread.election_backlog = thread.election_backlog.map(|left| left.saturating_sub(1));
        // `carry` holds the non-proposal input a proposal drain pulled off
        // the inbox; it is processed in the same pass, in arrival order.
        let mut carry = Some(first);
        while let Some(input) = carry.take() {
            match input {
                NodeInput::Shutdown => return,
                NodeInput::Peer(from, msg) => {
                    let actions = thread.node.handle_message(from, msg, clock.now());
                    thread.absorb(actions);
                }
                NodeInput::BarrierDone(Ok(ticket)) => {
                    let actions = thread.node.barrier_done(ticket, clock.now());
                    thread.absorb(actions);
                }
                NodeInput::BarrierDone(Err(error)) => {
                    // lint:allow(panic): fail-stop by design — a node that cannot persist must not serve
                    panic!("storage failed to sync: {error}");
                }
                NodeInput::Propose { command, reply } => {
                    carry = thread.propose(command, reply, &inbox);
                }
                NodeInput::Read { queries, reply } => {
                    carry = thread.read(queries, reply, &inbox);
                }
                NodeInput::Query { reply } => {
                    let _ = reply.send(thread.status());
                }
                NodeInput::AwaitApplied { index, reply } => thread.await_applied(index, reply),
            }
        }
    }
}

/// Cap on proposals drained into one engine batch: bounds both the batch
/// latency (nothing waits behind more than this many queued commands) and
/// the size of the single `AppendEntries` window a batch produces.
pub const PROPOSE_BATCH_MAX: usize = 256;

/// How many apply results the node loop keeps for late [`NodeInput::AwaitApplied`]
/// registrations.
const RESULT_WINDOW: usize = 1024;

/// Where a read batch's outcome goes.
type ReadReply = Sender<Result<Vec<Bytes>, ProposeError>>;

/// Pending linearizable read batches: engine batch id → the client reply
/// channels, each with its share of the batch's queries (in order).
type ReadWaiters = HashMap<u64, Vec<(ReadReply, usize)>>;

/// What one node thread keeps between inputs: the engine, where its
/// messages leave, and who is waiting on it.
struct NodeThread {
    node: Node,
    outbound: Arc<dyn Outbound + Sync>,
    clock: RuntimeClock,
    timers: BTreeMap<TimerKind, (TimerToken, Time)>,
    apply_waiters: HashMap<LogIndex, Vec<Sender<Bytes>>>,
    /// Each client's reply channel remembers how many of the batch's
    /// queries are its own.
    read_waiters: ReadWaiters,
    /// Recent apply results, so a client that registers interest just after
    /// the apply still gets its response (bounded window).
    recent_results: BTreeMap<LogIndex, Bytes>,
    peers: Vec<ServerId>,
    /// Per-peer dropped-frame counters as of the last backpressure poll.
    drops_seen: BTreeMap<ServerId, u64>,
    /// While an election deadline is due but held back (see
    /// [`NodeThread::fire_due_timers`]): how many of the inputs that were
    /// queued when it came due are still to be handled.
    election_backlog: Option<usize>,
}

impl NodeThread {
    /// Backpressure hookup: a peer whose outbound queue shed frames since
    /// the last poll gets its pipelining window clamped — blindly topping
    /// up credit would feed the drop.
    fn poll_backpressure(&mut self) {
        for &peer in &self.peers {
            let dropped = self.outbound.frames_dropped_to(peer);
            let seen = self.drops_seen.entry(peer).or_insert(0);
            if dropped > *seen {
                *seen = dropped;
                self.node.note_backpressure(peer);
            }
        }
    }

    /// Fires every due timer before the inbox is touched: a node whose
    /// inbox never drains (a busy leader, a follower being streamed a
    /// log) must still heartbeat and notice election deadlines — firing
    /// only when `recv_timeout` times out would starve them.
    ///
    /// A due election deadline is the one exception, and only for the
    /// input already queued when it came due (bounded by the length seen
    /// then, so a streaming inbox cannot postpone it for ever): it claims
    /// the leader has been silent, and a follower that comes back from a
    /// long flush or a descheduling must first read what arrived
    /// meanwhile — it then re-arms off the leader's waiting heartbeat
    /// instead of campaigning against a healthy leader.
    fn fire_due_timers(&mut self, inbox: &Receiver<NodeInput>) {
        let now = self.clock.now();
        let election_due = self
            .timers
            .get(&TimerKind::Election)
            .is_some_and(|(_, d)| *d <= now);
        let hold_election = if election_due {
            *self.election_backlog.get_or_insert_with(|| inbox.len()) > 0
        } else {
            self.election_backlog = None;
            false
        };
        let due: Vec<(TimerKind, TimerToken)> = self
            .timers
            .iter()
            .filter(|(k, (_, d))| *d <= now && !(hold_election && **k == TimerKind::Election))
            .map(|(k, (t, _))| (*k, *t))
            .collect();
        for (kind, token) in due {
            // An earlier handler in this batch may have re-armed this
            // kind with a fresh token; firing the snapshotted one would
            // delete the new timer and no-op in the engine.
            if self.timers.get(&kind).map(|(t, _)| *t) != Some(token) {
                continue;
            }
            self.timers.remove(&kind);
            let actions = self.node.handle_timer(token, self.clock.now());
            self.absorb(actions);
        }
    }

    /// Proposal-queue drain: grabs every proposal already waiting in the
    /// inbox (bounded) so one engine batch — one WAL barrier, one fan-out
    /// — covers them all. A non-proposal input ends the drain and comes
    /// back to be handled next, preserving arrival order.
    fn propose(
        &mut self,
        command: Bytes,
        reply: Sender<Result<LogIndex, ProposeError>>,
        inbox: &Receiver<NodeInput>,
    ) -> Option<NodeInput> {
        let mut carry = None;
        let mut commands = vec![command];
        let mut replies = vec![reply];
        while commands.len() < PROPOSE_BATCH_MAX {
            match inbox.try_recv() {
                Ok(NodeInput::Propose { command, reply }) => {
                    commands.push(command);
                    replies.push(reply);
                }
                Ok(other) => {
                    carry = Some(other);
                    break;
                }
                Err(_) => break,
            }
        }
        match self.node.propose_batch(commands, self.clock.now()) {
            Ok((indexes, actions)) => {
                for (reply, index) in replies.into_iter().zip(indexes) {
                    let _ = reply.send(Ok(index));
                }
                self.absorb(actions);
            }
            Err(e) => {
                for reply in replies {
                    let _ = reply.send(Err(e));
                }
            }
        }
        carry
    }

    /// Read-queue drain, mirroring the proposal drain: every read batch
    /// already waiting in the inbox shares one engine confirmation round.
    /// A non-read input ends the drain and comes back to be handled next.
    fn read(
        &mut self,
        mut queries: Vec<Bytes>,
        reply: ReadReply,
        inbox: &Receiver<NodeInput>,
    ) -> Option<NodeInput> {
        let mut carry = None;
        let mut splits = vec![(reply, queries.len())];
        while queries.len() < PROPOSE_BATCH_MAX {
            match inbox.try_recv() {
                Ok(NodeInput::Read {
                    queries: more,
                    reply,
                }) => {
                    splits.push((reply, more.len()));
                    queries.extend(more);
                }
                Ok(other) => {
                    carry = Some(other);
                    break;
                }
                Err(_) => break,
            }
        }
        match self.node.read_batch(queries, self.clock.now()) {
            Ok((batch, actions)) => {
                // Register before absorbing: a lease-path batch is
                // already ReadReady in `actions`.
                self.read_waiters.insert(batch, splits);
                self.absorb(actions);
            }
            Err(e) => {
                for (reply, _) in splits {
                    let _ = reply.send(Err(e));
                }
            }
        }
        carry
    }

    fn status(&self) -> NodeStatus {
        NodeStatus {
            id: self.node.id(),
            role: self.node.role(),
            term: self.node.current_term(),
            leader_hint: self.node.leader_hint(),
            commit_index: self.node.commit_index(),
            last_applied: self.node.last_applied(),
            log_len: self.node.log().len(),
            metrics: *self.node.metrics(),
            frames_dropped: self.outbound.frames_dropped(),
        }
    }

    fn await_applied(&mut self, index: LogIndex, reply: Sender<Bytes>) {
        if self.node.last_applied() >= index {
            // Already applied: serve from the recent-results window
            // (empty payload if it aged out or was a no-op slot).
            let result = self.recent_results.get(&index).cloned().unwrap_or_default();
            let _ = reply.send(result);
        } else {
            self.apply_waiters.entry(index).or_default().push(reply);
        }
    }

    fn absorb(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg, .. } => self.outbound.send(to, msg),
                Action::SetTimer { token, deadline } => {
                    self.timers.insert(token.kind, (token, deadline));
                }
                Action::Applied { index, result } => {
                    if let Some(waiters) = self.apply_waiters.remove(&index) {
                        for w in waiters {
                            let _ = w.send(result.clone());
                        }
                    }
                    self.recent_results.insert(index, result);
                    while self.recent_results.len() > RESULT_WINDOW {
                        let Some(oldest) = self.recent_results.keys().next().copied() else {
                            break;
                        };
                        self.recent_results.remove(&oldest);
                    }
                }
                Action::ReadReady { batch, results } => {
                    if let Some(splits) = self.read_waiters.remove(&batch) {
                        let mut results = results.into_iter();
                        for (reply, count) in splits {
                            let chunk: Vec<Bytes> = results.by_ref().take(count).collect();
                            let _ = reply.send(Ok(chunk));
                        }
                    }
                }
                Action::ReadFailed { batch, error } => {
                    if let Some(splits) = self.read_waiters.remove(&batch) {
                        for (reply, _) in splits {
                            let _ = reply.send(Err(error));
                        }
                    }
                }
                Action::BecameCandidate { .. }
                | Action::BecameLeader { .. }
                | Action::BecameFollower { .. }
                | Action::Committed { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outbound whose next send, once armed, holds the node thread for
    /// `stall` — what a storage barrier on a stalled disk does to a
    /// follower's ack.
    struct StallingOutbound {
        armed: std::sync::atomic::AtomicBool,
        stall: std::time::Duration,
    }

    impl Outbound for StallingOutbound {
        fn send(&self, _to: ServerId, _msg: Message) {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(self.stall);
            }
        }
    }

    /// A follower that spent more than its election period inside one
    /// step comes back to an overdue deadline — and to the heartbeat that
    /// arrived meanwhile. It must read the heartbeat first and re-arm, not
    /// campaign; silence with nothing queued is still believed.
    #[test]
    fn a_due_election_deadline_yields_to_input_already_queued() {
        use escape_core::message::AppendEntriesArgs;
        use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
        use escape_core::time::Duration;
        use std::thread::sleep;
        use std::time::Duration as Wall;

        let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        let node = Node::builder(ids[1], ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_millis(100)]),
            ))))
            .build();
        let outbound = Arc::new(StallingOutbound {
            armed: std::sync::atomic::AtomicBool::new(true),
            stall: Wall::from_millis(150),
        });
        let (tx, rx) = crossbeam::channel::unbounded();
        let thread =
            std::thread::spawn(move || node_loop(node, rx, outbound, RuntimeClock::start()));
        let heartbeat = |seq| {
            NodeInput::Peer(
                ids[0],
                Message::AppendEntries(AppendEntriesArgs {
                    term: Term::new(1),
                    leader_id: ids[0],
                    prev_log_index: LogIndex::ZERO,
                    prev_log_term: Term::ZERO,
                    entries: Vec::new(),
                    leader_commit: LogIndex::ZERO,
                    new_config: None,
                    seq,
                }),
            )
        };
        let elections_started = || {
            let (reply, status) = crossbeam::channel::bounded(1);
            tx.send(NodeInput::Query { reply }).unwrap();
            status
                .recv_timeout(Wall::from_secs(5))
                .unwrap()
                .metrics
                .elections_started
        };

        tx.send(heartbeat(1)).unwrap(); // re-arms (+100 ms), then stalls 150 ms in the ack
        sleep(Wall::from_millis(30));
        tx.send(heartbeat(2)).unwrap(); // waits in the inbox while the thread is away
        sleep(Wall::from_millis(150));
        assert_eq!(
            elections_started(),
            0,
            "the overdue deadline yields to the queued heartbeat"
        );
        sleep(Wall::from_millis(150));
        assert_eq!(
            elections_started(),
            1,
            "silence while listening is believed"
        );
        tx.send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    #[test]
    fn node_status_is_comparable() {
        let a = NodeStatus {
            id: ServerId::new(1),
            role: Role::Follower,
            term: Term::ZERO,
            leader_hint: None,
            commit_index: LogIndex::ZERO,
            last_applied: LogIndex::ZERO,
            log_len: 0,
            metrics: NodeMetrics::new(),
            frames_dropped: 0,
        };
        assert_eq!(a.clone(), a);
    }
}
