//! The real-time node loop every hosted group runs.
//!
//! One OS thread per consensus node: it multiplexes an inbox channel
//! (peer messages + client commands + control) with the engine's armed
//! timers via `recv_timeout`, and pushes outbound messages through an
//! [`Outbound`] implementation (the TCP mesh's
//! [`GroupOutbound`](crate::tcp::GroupOutbound); tests substitute their
//! own).
//!
//! The node thread is also the one that answers: every input that wants
//! an outcome carries a [`Reply`], and the thread invokes it where the
//! outcome becomes known — no other thread waits on the engine on a
//! caller's behalf.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};

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

/// The one answer an input is owed. The node thread invokes it, on its
/// own thread, so the closure inside must not block and must carry
/// whatever it needs to deliver the answer (a channel to send on, a
/// request id and a connection's response queue, …).
///
/// Exactly one call is made: with `Some(outcome)` when the node answers,
/// or with `None` when the reply is dropped unanswered — the node thread
/// ended with the input parked or still queued, or its inbox refused the
/// input. Nobody needs a timeout to learn that a group is gone.
pub struct Reply<T>(Option<Box<dyn FnOnce(Option<T>) + Send>>);

impl<T: Send + 'static> Reply<T> {
    /// A reply that hands its one outcome to `deliver`.
    pub fn new(deliver: impl FnOnce(Option<T>) + Send + 'static) -> Self {
        Reply(Some(Box::new(deliver)))
    }

    /// A reply that sends the node's answer on a channel, for a caller
    /// that waits on this process's own thread. An unanswered reply
    /// disconnects the channel, so the receiver errs at once.
    pub fn channel() -> (Self, Receiver<T>) {
        let (tx, rx) = bounded(1);
        let reply = Reply::new(move |outcome| {
            if let Some(value) = outcome {
                let _ = tx.send(value);
            }
        });
        (reply, rx)
    }
}

impl<T> Reply<T> {
    /// Delivers the answer.
    pub fn answer(mut self, value: T) {
        if let Some(deliver) = self.0.take() {
            deliver(Some(value));
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.take() {
            deliver(None);
        }
    }
}

/// When a proposal is answered, and with what.
pub enum ProposeReply {
    /// At acceptance, with the assigned index; the caller follows up with
    /// [`NodeInput::AwaitApplied`] if it wants the result.
    Accepted(Reply<Result<LogIndex, ProposeError>>),
    /// Once: with the index and the state machine's result when the
    /// command applies, or with the refusal — also when this node loses
    /// its leadership first, because the entry may then be overwritten and
    /// what applies at its index is somebody else's command.
    Applied(Reply<Result<(LogIndex, Bytes), ProposeError>>),
}

/// Everything a node thread can receive.
pub enum NodeInput {
    /// A protocol message from a peer.
    Peer(ServerId, Message),
    /// A client command.
    Propose {
        /// Encoded state-machine command.
        command: Bytes,
        /// Who gets the outcome, and when.
        reply: ProposeReply,
    },
    /// A batch of linearizable read-only queries, answered off the log via
    /// the engine's ReadIndex/lease path; the reply carries one response
    /// per query, in order, or the leadership refusal.
    Read {
        /// Encoded state-machine queries.
        queries: Vec<Bytes>,
        /// Who gets the outcome.
        reply: ReadReply,
    },
    /// Ask for a status snapshot.
    Query {
        /// Who gets the snapshot.
        reply: Reply<NodeStatus>,
    },
    /// Register interest in the application of `index`, whoever wrote
    /// it; the reply fires with the state machine's response once
    /// applied, and is dropped unanswered if this node steps down first.
    AwaitApplied {
        /// The awaited log index.
        index: LogIndex,
        /// Who gets the apply result.
        reply: Reply<Bytes>,
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
                NodeInput::Query { reply } => reply.answer(thread.status()),
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
pub type ReadReply = Reply<Result<Vec<Bytes>, ProposeError>>;

/// Pending linearizable read batches: engine batch id → the callers'
/// replies, each with its share of the batch's queries (in order).
type ReadWaiters = HashMap<u64, Vec<(ReadReply, usize)>>;

/// Who is waiting for a log index to apply.
enum ApplyWaiter {
    /// The proposal this node accepted at that index as leader: owed the
    /// result of *its* command, so it is refused when leadership ends.
    Proposed(Reply<Result<(LogIndex, Bytes), ProposeError>>),
    /// Parked through [`NodeInput::AwaitApplied`].
    Awaited(Reply<Bytes>),
}

/// What one node thread keeps between inputs: the engine, where its
/// messages leave, and who is waiting on it.
struct NodeThread {
    node: Node,
    outbound: Arc<dyn Outbound + Sync>,
    clock: RuntimeClock,
    timers: BTreeMap<TimerKind, (TimerToken, Time)>,
    apply_waiters: HashMap<LogIndex, Vec<ApplyWaiter>>,
    /// Each caller's reply remembers how many of the batch's queries are
    /// its own.
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
        reply: ProposeReply,
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
                // Register before absorbing: a single-server group applies
                // the batch in these very actions.
                for (reply, index) in replies.into_iter().zip(indexes) {
                    match reply {
                        ProposeReply::Accepted(reply) => reply.answer(Ok(index)),
                        ProposeReply::Applied(reply) => self
                            .apply_waiters
                            .entry(index)
                            .or_default()
                            .push(ApplyWaiter::Proposed(reply)),
                    }
                }
                self.absorb(actions);
            }
            Err(e) => {
                for reply in replies {
                    match reply {
                        ProposeReply::Accepted(reply) => reply.answer(Err(e)),
                        ProposeReply::Applied(reply) => reply.answer(Err(e)),
                    }
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
                    reply.answer(Err(e));
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

    fn await_applied(&mut self, index: LogIndex, reply: Reply<Bytes>) {
        if self.node.last_applied() >= index {
            // Already applied: serve from the recent-results window
            // (empty payload if it aged out or was a no-op slot).
            reply.answer(self.recent_results.get(&index).cloned().unwrap_or_default());
        } else {
            self.apply_waiters
                .entry(index)
                .or_default()
                .push(ApplyWaiter::Awaited(reply));
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
                    for waiter in self.apply_waiters.remove(&index).into_iter().flatten() {
                        match waiter {
                            ApplyWaiter::Proposed(reply) => {
                                reply.answer(Ok((index, result.clone())));
                            }
                            ApplyWaiter::Awaited(reply) => reply.answer(result.clone()),
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
                            reply.answer(Ok(results.by_ref().take(count).collect()));
                        }
                    }
                }
                Action::ReadFailed { batch, error } => {
                    if let Some(splits) = self.read_waiters.remove(&batch) {
                        for (reply, _) in splits {
                            reply.answer(Err(error));
                        }
                    }
                }
                Action::BecameFollower { .. } => {
                    // What this node accepted as leader may now be
                    // overwritten, and waiters are keyed by index alone:
                    // answering them at apply would acknowledge a write
                    // with another command's result. Proposals get the
                    // refusal (the client retries: at-least-once);
                    // `AwaitApplied` waiters are dropped unanswered.
                    let hint = self.node.leader_hint();
                    for waiter in self.apply_waiters.drain().flat_map(|(_, waiters)| waiters) {
                        if let ApplyWaiter::Proposed(reply) = waiter {
                            reply.answer(Err(ProposeError::NotLeader { hint }));
                        }
                    }
                }
                Action::BecameCandidate { .. }
                | Action::BecameLeader { .. }
                | Action::Committed { .. } => {}
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
            let (reply, status) = Reply::channel();
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

    /// The state machine answers each command with the command itself, so
    /// a result names the command it belongs to.
    #[derive(Debug)]
    struct Echo;

    impl escape_core::statemachine::StateMachine for Echo {
        fn apply(&mut self, _index: LogIndex, command: &Bytes) -> Bytes {
            command.clone()
        }
    }

    /// Hands every message the node sends to the test.
    struct RecordingOutbound(crossbeam::channel::Sender<(ServerId, Message)>);

    impl Outbound for RecordingOutbound {
        fn send(&self, to: ServerId, msg: Message) {
            let _ = self.0.send((to, msg));
        }
    }

    /// Server 1 of three on a node thread, scripted into leading its first
    /// term: it campaigns after 30 ms and the test grants server 2's vote.
    /// Nothing it replicates is ever acknowledged.
    pub(crate) struct ScriptedLeader {
        pub(crate) inbox: crossbeam::channel::Sender<NodeInput>,
        /// The term it won.
        pub(crate) term: Term,
        /// Every message it sends.
        sent: Receiver<(ServerId, Message)>,
        thread: std::thread::JoinHandle<()>,
    }

    impl ScriptedLeader {
        pub(crate) fn start() -> Self {
            use escape_core::message::RequestVoteReply;
            use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
            use escape_core::time::Duration;

            let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
            let node = Node::builder(ids[0], ids.clone())
                .policy(Box::new(RaftPolicy::with_source(Box::new(
                    ScriptedTimeouts::new(vec![Duration::from_millis(30)]),
                ))))
                .state_machine(Box::new(Echo))
                .build();
            let (sent_tx, sent) = crossbeam::channel::unbounded();
            let outbound = Arc::new(RecordingOutbound(sent_tx));
            let (inbox, rx) = crossbeam::channel::unbounded();
            let thread =
                std::thread::spawn(move || node_loop(node, rx, outbound, RuntimeClock::start()));
            let mut leader = ScriptedLeader {
                inbox,
                term: Term::ZERO,
                sent,
                thread,
            };
            leader.term = leader.wait_for(|msg| match msg {
                Message::RequestVote(args) => Some(args.term),
                _ => None,
            });
            let granted = Message::RequestVoteReply(RequestVoteReply {
                term: leader.term,
                vote_granted: true,
            });
            leader.inbox.send(NodeInput::Peer(ids[1], granted)).unwrap();
            // The new leader's no-op going out is the sign it leads.
            leader.wait_for(|msg| match msg {
                Message::AppendEntries(args) if !args.entries.is_empty() => Some(()),
                _ => None,
            });
            leader
        }

        /// The first message it sends that `pick` accepts.
        fn wait_for<T>(&self, pick: impl Fn(&Message) -> Option<T>) -> T {
            loop {
                let (_, msg) = self
                    .sent
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .expect("the node sends what the test waits for");
                if let Some(found) = pick(&msg) {
                    return found;
                }
            }
        }

        /// Waits until it sends `command` to a peer — accepted, in its
        /// log, acknowledged by nobody — and returns the command's index.
        pub(crate) fn replicates(&self, command: &'static [u8]) -> LogIndex {
            use escape_core::log::Payload;
            self.wait_for(|msg| match msg {
                Message::AppendEntries(args) => args
                    .entries
                    .iter()
                    .find(|e| e.payload == Payload::Command(Bytes::from_static(command)))
                    .map(|e| e.index),
                _ => None,
            })
        }

        /// Stops the node thread and waits for it.
        pub(crate) fn stop(self) {
            self.inbox.send(NodeInput::Shutdown).unwrap();
            self.thread.join().unwrap();
        }
    }

    /// A leader accepts command A at index i, is deposed before anyone has
    /// it, and the new leader's entry B lands at i and commits. The write's
    /// one answer must be the refusal: `Written { index: i }` carrying B's
    /// result would acknowledge a write that does not exist.
    #[test]
    fn a_deposed_leader_does_not_acknowledge_a_write_it_lost() {
        use escape_core::log::{Entry, Payload};
        use escape_core::message::AppendEntriesArgs;
        use std::time::Duration as Wall;

        let leader = ScriptedLeader::start();
        let (tx, term) = (leader.inbox.clone(), leader.term);
        let (answer_tx, answers) = crossbeam::channel::unbounded();
        tx.send(NodeInput::Propose {
            command: Bytes::from_static(b"A"),
            reply: ProposeReply::Applied(Reply::new(move |outcome| {
                let _ = answer_tx.send(outcome);
            })),
        })
        .unwrap();
        let lost = leader.replicates(b"A");
        let (parked_reply, parked) = Reply::channel();
        tx.send(NodeInput::AwaitApplied {
            index: lost,
            reply: parked_reply,
        })
        .unwrap();

        // Server 3 leads the next term: it has the deposed leader's no-op
        // and puts its own command where A was.
        let next = Term::new(term.get() + 1);
        tx.send(NodeInput::Peer(
            ServerId::new(3),
            Message::AppendEntries(AppendEntriesArgs {
                term: next,
                leader_id: ServerId::new(3),
                prev_log_index: LogIndex::new(lost.get() - 1),
                prev_log_term: term,
                entries: vec![Entry {
                    term: next,
                    index: lost,
                    payload: Payload::Command(Bytes::from_static(b"B")),
                }],
                leader_commit: lost,
                new_config: None,
                seq: 1,
            }),
        ))
        .unwrap();

        assert_eq!(
            answers.recv_timeout(Wall::from_secs(5)).unwrap(),
            Some(Err(ProposeError::NotLeader {
                hint: Some(ServerId::new(3))
            })),
            "the write is refused, not acknowledged with B's result"
        );
        assert!(
            parked.recv_timeout(Wall::from_secs(5)).is_err(),
            "a waiter parked on the index before the step-down is dropped"
        );
        // B did apply at the index — what a waiter keyed by index alone
        // would have been handed.
        let (reply, applied) = Reply::channel();
        tx.send(NodeInput::AwaitApplied { index: lost, reply })
            .unwrap();
        assert_eq!(
            applied.recv_timeout(Wall::from_secs(5)).unwrap(),
            Bytes::from_static(b"B")
        );
        assert!(answers.try_recv().is_err(), "one answer only");
        leader.stop();
    }

    /// A reply is invoked exactly once: with the answer, or with `None`
    /// when it is dropped unanswered.
    #[test]
    fn a_reply_dropped_unanswered_says_so() {
        let (tx, outcomes) = crossbeam::channel::unbounded();
        let deliver = |tx: crossbeam::channel::Sender<Option<u8>>| {
            Reply::new(move |outcome| tx.send(outcome).unwrap())
        };
        deliver(tx.clone()).answer(7);
        drop(deliver(tx));
        assert_eq!(outcomes.try_iter().collect::<Vec<_>>(), [Some(7), None]);

        let (reply, rx) = Reply::<u8>::channel();
        drop(reply);
        assert!(rx.recv().is_err(), "the waiting caller errs at once");
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
