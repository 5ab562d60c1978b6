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
//! caller's behalf. The one exception is a read the lease can answer at
//! once: [`GroupHandle::read`] asks the engine itself, on the caller's
//! thread, when the node thread is not using it — the engine sits behind
//! one lock, which the node thread holds across each engine call and
//! nothing else.
//!
//! Writes arrive batched: a [`NodeInput::Propose`] carries all the
//! commands its sender had for this group (a caller's batch; a client
//! dispatcher sends each write alone), so a batch costs one inbox send
//! and one wake-up, not one per command. The thread proposes an input
//! whole, merging whatever other proposals are already queued into the
//! same engine call up to [`PROPOSE_BATCH_MAX`] commands: one WAL barrier
//! and one `AppendEntries` fan-out for them all.
//!
//! A refusal that names no leader — the node is mid-election, or its
//! leader's connections just closed — is held rather than answered while
//! the engine owes an [`Action::LeaderKnown`] ([`Node::awaits_leader`]):
//! the engine times the hold, and the thread answers everything it holds
//! `NotLeader` with the leader that action names (this node too, once it
//! wins), or without a hint when one timeout floor passed with none. The
//! client then goes straight to the new leader instead of backing off
//! and probing. A held refusal stays a refusal: nothing it carried is
//! proposed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

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
/// request id and a connection's outbox, …).
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

/// When a proposal batch is answered, and with what.
pub enum ProposeReply {
    /// Once, at acceptance, with every command's index in order; the
    /// caller follows up with [`NodeInput::AwaitApplied`] if it wants a
    /// result.
    Accepted(Reply<Result<Vec<LogIndex>, ProposeError>>),
    /// One reply per command, in order, because each client write gets
    /// its own response. Each is answered once: with the index and the
    /// state machine's result when its command applies, or with the
    /// refusal — also when this node loses its leadership first, because
    /// the entry may then be overwritten and what applies at its index is
    /// somebody else's command.
    Applied(Vec<Reply<Result<(LogIndex, Bytes), ProposeError>>>),
}

/// Everything a node thread can receive.
pub enum NodeInput {
    /// A protocol message from a peer.
    Peer(ServerId, Message),
    /// The peer's connection ended by a remote close, mostly because its
    /// process exited. A failure hint for the engine (see
    /// [`Node::peer_closed`](escape_core::engine::Node::peer_closed)).
    PeerClosed(ServerId),
    /// A batch of client commands, proposed whole in one engine call.
    Propose {
        /// Encoded state-machine commands.
        commands: Vec<Bytes>,
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

/// One hosted group as the threads that route to it see it: the inbox
/// its node thread drains, and its engine, which a leased read may ask
/// directly. Cheap to clone.
#[derive(Clone)]
pub struct GroupHandle {
    inbox: Sender<NodeInput>,
    /// Filled by [`node_loop`] while the node thread runs; empty before it
    /// starts and after it ends.
    engine: Arc<Mutex<Option<Node>>>,
    /// The clock the node thread drives the engine by.
    clock: RuntimeClock,
}

impl std::fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHandle")
            .field("inbox", &self.inbox)
            .finish_non_exhaustive()
    }
}

impl GroupHandle {
    /// A handle on the group whose node thread drains `inbox`. Until
    /// [`node_loop`] runs on it, every read goes to the inbox.
    pub fn new(inbox: Sender<NodeInput>) -> Self {
        GroupHandle {
            inbox,
            engine: Arc::default(),
            clock: RuntimeClock::start(),
        }
    }

    /// The group's inbox.
    pub fn inbox(&self) -> &Sender<NodeInput> {
        &self.inbox
    }

    /// Submits a batch of linearizable read-only queries. If the engine is
    /// free and its lease answers at once ([`Node::lease_read`]), the reply
    /// is answered here, on the calling thread, after the lock is
    /// released. Otherwise — the node thread holds the engine, or the
    /// lease cannot vouch — the read goes to the inbox as
    /// [`NodeInput::Read`]. The caller never waits for the group, so a
    /// group stalled inside an engine call delays only its own requests.
    pub fn read(&self, queries: Vec<Bytes>, reply: ReadReply) {
        let leased = self
            .engine
            .try_lock()
            .and_then(|mut engine| engine.as_mut()?.lease_read(&queries, self.clock.now()));
        match leased {
            Some(results) => reply.answer(Ok(results)),
            None => {
                // A refused send hands the input back, and dropping it
                // drops the reply unanswered.
                let _ = self.inbox.send(NodeInput::Read { queries, reply });
            }
        }
    }
}

/// Runs `node` as `group`'s engine until shutdown. This is the body of
/// every group's node thread. The thread keeps no sender of its own
/// inbox, and the engine leaves `group`'s shared slot when it ends.
pub fn node_loop(
    node: Node,
    group: GroupHandle,
    inbox: Receiver<NodeInput>,
    outbound: Arc<dyn Outbound + Sync>,
) {
    let GroupHandle { engine, clock, .. } = group;
    let peers = node.peers().to_vec();
    *engine.lock() = Some(node);
    let mut thread = NodeThread {
        engine,
        peers,
        outbound,
        clock,
        timers: BTreeMap::new(),
        apply_waiters: HashMap::new(),
        read_waiters: HashMap::new(),
        recent_results: VecDeque::with_capacity(RESULT_WINDOW),
        drops_seen: BTreeMap::new(),
        election_backlog: None,
        held: Vec::new(),
    };
    thread.run(|node, now| node.start(now));

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
                    thread.run(|node, now| node.handle_message(from, msg, now));
                }
                NodeInput::PeerClosed(peer) => thread.run(|node, now| node.peer_closed(peer, now)),
                NodeInput::BarrierDone(Ok(ticket)) => {
                    thread.run(|node, now| node.barrier_done(ticket, now));
                }
                NodeInput::BarrierDone(Err(error)) => {
                    // lint:allow(panic): fail-stop by design — a node that cannot persist must not serve
                    panic!("storage failed to sync: {error}");
                }
                NodeInput::Propose { commands, reply } => {
                    carry = thread.propose(commands, reply, &inbox);
                }
                NodeInput::Read { queries, reply } => {
                    carry = thread.read(queries, reply, &inbox);
                }
                NodeInput::Query { reply } => {
                    if let Some(status) = thread.status() {
                        reply.answer(status);
                    }
                }
                NodeInput::AwaitApplied { index, reply } => thread.await_applied(index, reply),
            }
        }
    }
}

/// Cap on the commands the drain merges into one engine batch: bounds
/// both the batch latency (nothing waits behind more than this many
/// queued commands) and the size of the single `AppendEntries` window a
/// batch produces. An input is never split, so one larger than this is
/// proposed whole, alone; its sender bounds it.
pub const PROPOSE_BATCH_MAX: usize = 256;

/// How many apply results the node loop keeps for late [`NodeInput::AwaitApplied`]
/// registrations.
const RESULT_WINDOW: usize = 1024;

/// Where a read batch's outcome goes.
pub type ReadReply = Reply<Result<Vec<Bytes>, ProposeError>>;

/// Pending linearizable read batches: engine batch id → the callers'
/// replies, each with its share of the batch's queries (in order).
type ReadWaiters = HashMap<u64, Vec<(ReadReply, usize)>>;

/// A refusal that named no leader, held until the next
/// [`Action::LeaderKnown`]: answers it with the leader that names.
type Held = Box<dyn FnOnce(Option<ServerId>)>;

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
    /// The group's engine slot, filled for as long as this thread runs.
    /// The thread holds its lock across one engine call at a time, never
    /// across a wait, an outbound send or a reply.
    engine: Arc<Mutex<Option<Node>>>,
    outbound: Arc<dyn Outbound + Sync>,
    clock: RuntimeClock,
    timers: BTreeMap<TimerKind, (TimerToken, Time)>,
    apply_waiters: HashMap<LogIndex, Vec<ApplyWaiter>>,
    /// Each caller's reply remembers how many of the batch's queries are
    /// its own.
    read_waiters: ReadWaiters,
    /// The last [`RESULT_WINDOW`] apply results, oldest first, so a client
    /// that registers interest just after the apply still gets its
    /// response. Applied indexes only grow, so the ring stays sorted:
    /// lookup is a binary search and eviction a `pop_front`.
    recent_results: VecDeque<(LogIndex, Bytes)>,
    peers: Vec<ServerId>,
    /// Per-peer dropped-frame counters as of the last backpressure poll.
    drops_seen: BTreeMap<ServerId, u64>,
    /// While an election deadline is due but held back (see
    /// [`NodeThread::fire_due_timers`]): how many of the inputs that were
    /// queued when it came due are still to be handled.
    election_backlog: Option<usize>,
    /// Refusals held until the next [`Action::LeaderKnown`], oldest first.
    held: Vec<Held>,
}

impl NodeThread {
    /// Runs one engine call, with the time read, under the engine lock.
    /// `None` only once the engine is gone.
    fn step<R>(&self, call: impl FnOnce(&mut Node, Time) -> R) -> Option<R> {
        let mut engine = self.engine.lock();
        let node = engine.as_mut()?;
        Some(call(node, self.clock.now()))
    }

    /// Runs one engine call and absorbs the actions it returns.
    fn run(&mut self, call: impl FnOnce(&mut Node, Time) -> Vec<Action>) {
        let stepped = self.step(|node, now| (call(node, now), node.awaits_leader()));
        if let Some((actions, awaiting)) = stepped {
            self.absorb(actions, awaiting);
        }
    }

    /// Backpressure hookup: a peer whose outbound queue shed frames since
    /// the last poll gets its pipelining window clamped — blindly topping
    /// up credit would feed the drop.
    fn poll_backpressure(&mut self) {
        for &peer in &self.peers {
            let dropped = self.outbound.frames_dropped_to(peer);
            let seen = self.drops_seen.entry(peer).or_insert(0);
            if dropped > *seen {
                *seen = dropped;
                self.step(|node, _| node.note_backpressure(peer));
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
            self.run(|node, now| node.handle_timer(token, now));
        }
    }

    /// Proposal-queue drain: merges every proposal input already waiting
    /// in the inbox (up to [`PROPOSE_BATCH_MAX`] commands) into one engine
    /// batch — one WAL barrier, one fan-out. Inputs are taken whole: one
    /// that would overflow the cap, or a non-proposal, ends the drain and
    /// comes back to be handled next, preserving arrival order.
    fn propose(
        &mut self,
        mut commands: Vec<Bytes>,
        reply: ProposeReply,
        inbox: &Receiver<NodeInput>,
    ) -> Option<NodeInput> {
        let mut carry = None;
        let mut replies = vec![(reply, commands.len())];
        while commands.len() < PROPOSE_BATCH_MAX {
            match inbox.try_recv() {
                Ok(NodeInput::Propose {
                    commands: more,
                    reply,
                }) if commands.len() + more.len() <= PROPOSE_BATCH_MAX => {
                    replies.push((reply, more.len()));
                    commands.extend(more);
                }
                Ok(other) => {
                    carry = Some(other);
                    break;
                }
                Err(_) => break,
            }
        }
        // An engine already gone drops the replies unanswered.
        match self.step(|node, now| (node.propose_batch(commands, now), node.awaits_leader())) {
            Some((Ok((indexes, actions)), awaiting)) => {
                // Register before absorbing: a single-server group applies
                // the batch in these very actions.
                let mut indexes = indexes.into_iter();
                for (reply, count) in replies {
                    let mine: Vec<LogIndex> = indexes.by_ref().take(count).collect();
                    match reply {
                        ProposeReply::Accepted(reply) => reply.answer(Ok(mine)),
                        ProposeReply::Applied(replies) => {
                            for (reply, index) in replies.into_iter().zip(mine) {
                                self.apply_waiters
                                    .entry(index)
                                    .or_default()
                                    .push(ApplyWaiter::Proposed(reply));
                            }
                        }
                    }
                }
                self.absorb(actions, awaiting);
            }
            Some((Err(e), awaiting)) => {
                for (reply, _) in replies {
                    match reply {
                        ProposeReply::Accepted(reply) => self.refuse(reply, e),
                        ProposeReply::Applied(replies) => {
                            for reply in replies {
                                self.refuse(reply, e);
                            }
                        }
                    }
                }
                self.settle(awaiting);
            }
            None => {}
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
        match self.step(|node, now| (node.read_batch(queries, now), node.awaits_leader())) {
            Some((Ok((batch, actions)), awaiting)) => {
                // Register before absorbing: a lease-path batch is
                // already ReadReady in `actions`.
                self.read_waiters.insert(batch, splits);
                self.absorb(actions, awaiting);
            }
            Some((Err(e), awaiting)) => {
                for (reply, _) in splits {
                    self.refuse(reply, e);
                }
                self.settle(awaiting);
            }
            None => {}
        }
        carry
    }

    /// Answers `reply` with the refusal `error`, or holds it if it names
    /// no leader: see [`NodeThread::settle`].
    fn refuse<T: 'static>(&mut self, reply: Reply<Result<T, ProposeError>>, error: ProposeError) {
        match error {
            ProposeError::NotLeader { hint: None } => self.held.push(Box::new(move |hint| {
                reply.answer(Err(ProposeError::NotLeader { hint }))
            })),
            _ => reply.answer(Err(error)),
        }
    }

    /// Ends an engine call: the refusals held stay held only if the engine
    /// said an [`Action::LeaderKnown`] is owed (`awaiting`); otherwise
    /// none will come, and they are answered without a hint. Held
    /// refusals the thread ends with are dropped, which answers them
    /// `None`.
    fn settle(&mut self, awaiting: bool) {
        if !awaiting {
            self.answer_held(None);
        }
    }

    /// Answers every held refusal with `leader`.
    fn answer_held(&mut self, leader: Option<ServerId>) {
        for refuse in self.held.drain(..) {
            refuse(leader);
        }
    }

    fn status(&self) -> Option<NodeStatus> {
        let frames_dropped = self.outbound.frames_dropped();
        self.step(|node, _| NodeStatus {
            id: node.id(),
            role: node.role(),
            term: node.current_term(),
            leader_hint: node.leader_hint(),
            commit_index: node.commit_index(),
            last_applied: node.last_applied(),
            log_len: node.log().len(),
            metrics: *node.metrics(),
            frames_dropped,
        })
    }

    fn await_applied(&mut self, index: LogIndex, reply: Reply<Bytes>) {
        let Some(applied) = self.step(|node, _| node.last_applied()) else {
            return;
        };
        if applied >= index {
            // Already applied: serve from the recent-results window
            // (empty payload if it aged out or was a no-op slot).
            let recent = self
                .recent_results
                .binary_search_by_key(&index, |(applied, _)| *applied)
                .ok()
                .and_then(|at| self.recent_results.get(at));
            reply.answer(recent.map(|(_, result)| result.clone()).unwrap_or_default());
        } else {
            self.apply_waiters
                .entry(index)
                .or_default()
                .push(ApplyWaiter::Awaited(reply));
        }
    }

    /// Performs the actions of one engine call, which said whether an
    /// [`Action::LeaderKnown`] is owed (`awaiting`).
    fn absorb(&mut self, actions: Vec<Action>, awaiting: bool) {
        for action in actions {
            match action {
                Action::Send { to, msg, .. } => self.outbound.send(to, msg),
                Action::SetTimer { token, deadline } => {
                    self.timers.insert(token.kind, (token, deadline));
                }
                Action::Applied { index, result } => {
                    // Nobody waits on most applies (a follower's, a
                    // batch's whose callers asked only for acceptance).
                    if !self.apply_waiters.is_empty() {
                        for waiter in self.apply_waiters.remove(&index).into_iter().flatten() {
                            match waiter {
                                ApplyWaiter::Proposed(reply) => {
                                    reply.answer(Ok((index, result.clone())));
                                }
                                ApplyWaiter::Awaited(reply) => reply.answer(result.clone()),
                            }
                        }
                    }
                    if self.recent_results.len() == RESULT_WINDOW {
                        self.recent_results.pop_front();
                    }
                    self.recent_results.push_back((index, result));
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
                            self.refuse(reply, error);
                        }
                    }
                }
                Action::BecameFollower { .. } => {
                    // What this node accepted as leader may now be
                    // overwritten, and waiters are keyed by index alone:
                    // answering them at apply would acknowledge a write
                    // with another command's result. Proposals get the
                    // refusal (the client retries: at-least-once), held
                    // until the successor is known: a step-down names no
                    // leader. `AwaitApplied` waiters are dropped
                    // unanswered.
                    for waiter in std::mem::take(&mut self.apply_waiters)
                        .into_values()
                        .flatten()
                    {
                        if let ApplyWaiter::Proposed(reply) = waiter {
                            self.refuse(reply, ProposeError::NotLeader { hint: None });
                        }
                    }
                }
                Action::LeaderKnown(leader) => self.answer_held(leader),
                Action::BecameLeader { .. } | Action::Committed { .. } => {}
            }
        }
        self.settle(awaiting);
    }
}

impl Drop for NodeThread {
    /// The engine ends with its thread, however the thread ends: handles
    /// that outlive it find the slot empty and send to the closed inbox,
    /// and the engine's storage — the WAL thread's queue — closes now,
    /// not when the last handle goes.
    fn drop(&mut self) {
        let engine = self.engine.lock().take();
        drop(engine);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use escape_core::message::AppendEntriesArgs;
    use escape_core::policy::{ElectionPolicy, ScriptedTimeouts, TimeoutSource};
    use escape_core::time::Duration;

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
        let group = GroupHandle::new(tx.clone());
        let thread = std::thread::spawn(move || node_loop(node, group, rx, outbound));
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
        pub(crate) group: GroupHandle,
        /// The term it won.
        pub(crate) term: Term,
        /// Every message it sends.
        sent: Receiver<(ServerId, Message)>,
        thread: std::thread::JoinHandle<()>,
    }

    impl ScriptedLeader {
        pub(crate) fn start() -> Self {
            use escape_core::policy::RaftPolicy;

            Self::start_with(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_millis(30)]),
            ))))
        }

        /// As [`ScriptedLeader::start`], but under a timeout floor of
        /// `floor`; deposed, it waits a minute before it campaigns.
        fn floored(floor: Duration) -> Self {
            Self::start_with(Box::new(Floored::new(
                vec![Duration::from_millis(30), Duration::from_secs(60)],
                floor,
            )))
        }

        fn start_with(policy: Box<dyn ElectionPolicy>) -> Self {
            use escape_core::message::RequestVoteReply;

            let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
            let node = Node::builder(ids[0], ids.clone())
                .policy(policy)
                .state_machine(Box::new(Echo))
                .build();
            let (sent_tx, sent) = crossbeam::channel::unbounded();
            let outbound = Arc::new(RecordingOutbound(sent_tx));
            let (inbox, rx) = crossbeam::channel::unbounded();
            let group = GroupHandle::new(inbox);
            let thread = {
                let group = group.clone();
                std::thread::spawn(move || node_loop(node, group, rx, outbound))
            };
            let mut leader = ScriptedLeader {
                group,
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
            leader
                .group
                .inbox()
                .send(NodeInput::Peer(ids[1], granted))
                .unwrap();
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
            self.group.inbox().send(NodeInput::Shutdown).unwrap();
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
        let (tx, term) = (leader.group.inbox().clone(), leader.term);
        let (answer_tx, answers) = crossbeam::channel::unbounded();
        tx.send(NodeInput::Propose {
            commands: vec![Bytes::from_static(b"A")],
            reply: ProposeReply::Applied(vec![Reply::new(move |outcome| {
                let _ = answer_tx.send(outcome);
            })]),
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

    /// Scripted election timeouts (the last one repeats) under a declared
    /// timeout floor: how long the node thread holds a refusal that names
    /// no leader.
    #[derive(Debug)]
    struct Floored {
        timeouts: ScriptedTimeouts,
        floor: Duration,
    }

    impl Floored {
        fn new(timeouts: Vec<Duration>, floor: Duration) -> Self {
            Floored {
                timeouts: ScriptedTimeouts::new(timeouts),
                floor,
            }
        }
    }

    impl ElectionPolicy for Floored {
        fn name(&self) -> &'static str {
            "floored"
        }

        fn election_timeout(&mut self) -> Duration {
            self.timeouts.next_timeout()
        }

        fn timeout_floor(&self) -> Option<Duration> {
            Some(self.floor)
        }
    }

    /// Server `id` of `ids` on a node thread under `policy`, started with
    /// `early` already in its inbox — handled before any timer can fire,
    /// while it has heard no leader.
    fn spawn_with(
        id: u32,
        ids: &[u32],
        policy: Box<dyn ElectionPolicy>,
        early: Vec<NodeInput>,
    ) -> (GroupHandle, std::thread::JoinHandle<()>) {
        let node = Node::builder(
            ServerId::new(id),
            ids.iter().map(|&i| ServerId::new(i)).collect(),
        )
        .policy(policy)
        .state_machine(Box::new(Echo))
        .build();
        let (tx, rx) = crossbeam::channel::unbounded();
        for input in early {
            tx.send(input).unwrap();
        }
        let group = GroupHandle::new(tx);
        let thread = {
            let group = group.clone();
            let (sent, _) = crossbeam::channel::unbounded();
            let outbound = Arc::new(RecordingOutbound(sent));
            std::thread::spawn(move || node_loop(node, group, rx, outbound))
        };
        (group, thread)
    }

    /// Server 2 of three, a minute from its first campaign, holding a
    /// refusal that names no leader for `floor`.
    fn unled_follower(
        floor: Duration,
        early: Vec<NodeInput>,
    ) -> (GroupHandle, std::thread::JoinHandle<()>) {
        let policy = Floored::new(vec![Duration::from_secs(60)], floor);
        spawn_with(2, &[1, 2, 3], Box::new(policy), early)
    }

    /// The one outcome of a write (`None`: dropped unanswered).
    type WriteOutcome = Option<Result<(LogIndex, Bytes), ProposeError>>;

    /// A one-command proposal that wants its result, and where its one
    /// outcome arrives.
    fn write(command: &'static [u8]) -> (NodeInput, Receiver<WriteOutcome>) {
        let (tx, outcome) = crossbeam::channel::unbounded();
        let input = NodeInput::Propose {
            commands: vec![Bytes::from_static(command)],
            reply: ProposeReply::Applied(vec![Reply::new(move |o| {
                let _ = tx.send(o);
            })]),
        };
        (input, outcome)
    }

    /// The one outcome of a read (`None`: dropped unanswered).
    type ReadOutcome = Option<Result<Vec<Bytes>, ProposeError>>;

    /// A one-query read, and where its one outcome arrives.
    fn read(query: &'static [u8]) -> (NodeInput, Receiver<ReadOutcome>) {
        let (tx, outcome) = crossbeam::channel::unbounded();
        let input = NodeInput::Read {
            queries: vec![Bytes::from_static(query)],
            reply: Reply::new(move |o| {
                let _ = tx.send(o);
            }),
        };
        (input, outcome)
    }

    /// An empty `AppendEntries` from `leader` at `term`.
    fn heartbeat_from(leader: u32, term: Term) -> NodeInput {
        NodeInput::Peer(
            ServerId::new(leader),
            Message::AppendEntries(AppendEntriesArgs {
                term,
                leader_id: ServerId::new(leader),
                prev_log_index: LogIndex::ZERO,
                prev_log_term: Term::ZERO,
                entries: Vec::new(),
                leader_commit: LogIndex::ZERO,
                new_config: None,
                seq: 1,
            }),
        )
    }

    fn refused<T>(hint: Option<u32>) -> Option<Result<T, ProposeError>> {
        Some(Err(ProposeError::NotLeader {
            hint: hint.map(ServerId::new),
        }))
    }

    /// A follower that knows no leader holds a write and a read instead of
    /// refusing them hint-less, and answers both with the leader whose
    /// heartbeat reaches it — once each.
    #[test]
    fn a_leaderless_follower_holds_refusals_until_a_leader_is_heard() {
        let wait = std::time::Duration::from_secs(5);
        let (w, written) = write(b"w");
        let (r, was_read) = read(b"r");
        let (group, thread) = unled_follower(Duration::from_secs(60), vec![w, r]);
        // Answered after both inputs: both have been refused by now.
        assert_eq!(status_of(&group).leader_hint, None);
        assert!(written.try_recv().is_err(), "the write is held");
        assert!(was_read.try_recv().is_err(), "the read is held");

        group.inbox().send(heartbeat_from(3, Term::new(1))).unwrap();
        assert_eq!(written.recv_timeout(wait).unwrap(), refused(Some(3)));
        assert_eq!(was_read.recv_timeout(wait).unwrap(), refused(Some(3)));
        status_of(&group);
        assert!(written.try_recv().is_err() && was_read.try_recv().is_err());

        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// With no leader heard, a held refusal is answered without a hint one
    /// timeout floor after it was made, not before; a policy that declares
    /// no floor holds nothing.
    #[test]
    fn a_held_refusal_is_answered_without_a_hint_at_the_floor() {
        use escape_core::policy::RaftPolicy;

        let floor = std::time::Duration::from_millis(100);
        let sent = std::time::Instant::now();
        let (w, written) = write(b"w");
        let (group, thread) = unled_follower(Duration::from_millis(100), vec![w]);
        let answer = written.recv_timeout(std::time::Duration::from_secs(5));
        assert!(
            sent.elapsed() >= floor,
            "answered after {:?}",
            sent.elapsed()
        );
        assert_eq!(answer.unwrap(), refused(None));
        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();

        let scripted =
            RaftPolicy::with_source(Box::new(ScriptedTimeouts::new(vec![Duration::from_secs(
                60,
            )])));
        let (w, written) = write(b"w");
        let (group, thread) = spawn_with(2, &[1, 2, 3], Box::new(scripted), vec![w]);
        status_of(&group);
        assert_eq!(
            written.try_recv().ok(),
            Some(refused(None)),
            "refused at once"
        );
        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// A node that knows no leader and then wins the election itself
    /// answers what it held with its own name.
    #[test]
    fn a_node_that_wins_names_itself_in_the_refusals_it_held() {
        let (w, written) = write(b"w");
        let policy = Floored::new(vec![Duration::from_millis(10)], Duration::from_secs(60));
        let (group, thread) = spawn_with(1, &[1], Box::new(policy), vec![w]);
        assert_eq!(
            written
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap(),
            refused(Some(1)),
            "held, not proposed"
        );
        assert_eq!(status_of(&group).role, Role::Leader);
        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// A leader deposed by a candidate's higher term names nobody: the
    /// write it accepted is refused, but the refusal waits for the
    /// successor's first heartbeat and names it.
    #[test]
    fn a_deposed_leader_holds_its_refusals_until_the_successor_is_known() {
        use escape_core::message::RequestVoteArgs;

        let leader = ScriptedLeader::floored(Duration::from_secs(60));
        let (w, written) = write(b"A");
        leader.group.inbox().send(w).unwrap();
        let index = leader.replicates(b"A");
        let next = Term::new(leader.term.get() + 1);
        let solicit = Message::RequestVote(RequestVoteArgs {
            term: next,
            candidate_id: ServerId::new(3),
            last_log_index: index,
            last_log_term: leader.term,
            conf_clock: None,
        });
        let inbox = leader.group.inbox();
        inbox
            .send(NodeInput::Peer(ServerId::new(3), solicit))
            .unwrap();
        let deposed = status_of(&leader.group);
        assert_eq!((deposed.role, deposed.leader_hint), (Role::Follower, None));
        assert!(written.try_recv().is_err(), "the refusal is held");

        inbox.send(heartbeat_from(3, next)).unwrap();
        assert_eq!(
            written
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap(),
            refused(Some(3))
        );
        leader.stop();
    }

    /// A thread that stops with refusals held drops them: each is
    /// answered `None`, once, and the thread ends at once.
    #[test]
    fn shutdown_drops_held_refusals_unanswered() {
        let (w, written) = write(b"w");
        let (r, was_read) = read(b"r");
        let (group, thread) = unled_follower(Duration::from_secs(60), vec![w, r]);
        status_of(&group);
        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
        assert_eq!(written.try_iter().collect::<Vec<_>>(), [None]);
        assert_eq!(was_read.try_iter().collect::<Vec<_>>(), [None]);
    }

    /// A lone server on a node thread: it leads once its first election
    /// deadline (10 ms) passes, and needs nobody's acknowledgement.
    fn lone_leader() -> (GroupHandle, std::thread::JoinHandle<()>) {
        use escape_core::policy::RaftPolicy;

        let policy = RaftPolicy::with_source(Box::new(ScriptedTimeouts::new(vec![
            Duration::from_millis(10),
        ])));
        let (group, thread) = spawn_with(1, &[1], Box::new(policy), Vec::new());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while status_of(&group).role != Role::Leader {
            assert!(std::time::Instant::now() < deadline, "never led");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (group, thread)
    }

    fn status_of(group: &GroupHandle) -> NodeStatus {
        let (reply, status) = Reply::channel();
        group.inbox().send(NodeInput::Query { reply }).unwrap();
        status
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap()
    }

    /// Queues `inputs` behind the node thread's back: it is kept on the
    /// engine lock (inside a step, or inside the status query sent first)
    /// until all of them wait in the inbox, so its drain meets them
    /// together.
    fn queue_together(group: &GroupHandle, inputs: Vec<NodeInput>) {
        let held = group.engine.lock();
        let (reply, _) = Reply::channel();
        group.inbox().send(NodeInput::Query { reply }).unwrap();
        for input in inputs {
            group.inbox().send(input).unwrap();
        }
        drop(held);
    }

    /// A proposal input that wants each index at acceptance.
    fn accepted(commands: usize) -> (NodeInput, Receiver<Result<Vec<LogIndex>, ProposeError>>) {
        let (reply, indexes) = Reply::channel();
        let input = NodeInput::Propose {
            commands: (0..commands)
                .map(|i| Bytes::from(format!("c{i}")))
                .collect(),
            reply: ProposeReply::Accepted(reply),
        };
        (input, indexes)
    }

    /// Three inputs queued in order — a batch, a single command, a status
    /// query: the two proposals are merged into one engine call and the
    /// query is carried over and answered after it. An input bigger than
    /// `PROPOSE_BATCH_MAX` is never merged into or split: it is one engine
    /// call of its own.
    #[test]
    fn queued_proposals_share_one_engine_call_and_inputs_stay_whole() {
        let wait = std::time::Duration::from_secs(5);
        let consecutive =
            |indexes: &[LogIndex]| indexes.windows(2).all(|p| p[1].get() == p[0].get() + 1);
        let (group, thread) = lone_leader();
        let before = status_of(&group).metrics;

        let (batch, batch_indexes) = accepted(3);
        let (single, single_indexes) = accepted(1);
        let (reply, carried) = Reply::channel();
        queue_together(&group, vec![batch, single, NodeInput::Query { reply }]);
        let batch_indexes = batch_indexes.recv_timeout(wait).unwrap().unwrap();
        let single_indexes = single_indexes.recv_timeout(wait).unwrap().unwrap();
        assert_eq!((batch_indexes.len(), single_indexes.len()), (3, 1));
        assert!(consecutive(&[batch_indexes, single_indexes].concat()));
        let merged = carried.recv_timeout(wait).unwrap().metrics;
        assert_eq!(
            (merged.propose_batches, merged.commands_proposed),
            (before.propose_batches + 1, before.commands_proposed + 4),
            "one engine call for both proposals, before the carried query"
        );

        let (single, single_indexes) = accepted(1);
        let (big, big_indexes) = accepted(PROPOSE_BATCH_MAX + 1);
        queue_together(&group, vec![single, big]);
        assert_eq!(single_indexes.recv_timeout(wait).unwrap().unwrap().len(), 1);
        let big_indexes = big_indexes.recv_timeout(wait).unwrap().unwrap();
        assert_eq!(big_indexes.len(), PROPOSE_BATCH_MAX + 1);
        assert!(consecutive(&big_indexes));
        let after = status_of(&group).metrics;
        assert_eq!(
            (after.propose_batches, after.commands_proposed),
            (
                merged.propose_batches + 2,
                merged.commands_proposed + PROPOSE_BATCH_MAX as u64 + 2
            ),
        );
        let overflow = |m: &NodeMetrics| m.batch_size_histogram.last().copied();
        assert_eq!(
            overflow(&after),
            overflow(&merged).map(|n| n + 1),
            "the oversized input was proposed whole"
        );

        group.inbox().send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// The recent-results window holds the last `RESULT_WINDOW` applies:
    /// one more evicts the oldest, whose late `AwaitApplied` gets the
    /// empty payload, and what is still inside keeps answering after the
    /// node steps down.
    #[test]
    fn late_awaits_are_served_from_the_apply_window() {
        use escape_core::log::{Entry, Payload};
        use escape_core::message::AppendEntriesArgs;
        use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
        use escape_core::time::Duration;
        use std::time::Duration as Wall;

        let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        let node = Node::builder(ids[1], ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_millis(300)]),
            ))))
            .state_machine(Box::new(Echo))
            .build();
        let (sent_tx, _sent) = crossbeam::channel::unbounded();
        let outbound = Arc::new(RecordingOutbound(sent_tx));
        let (tx, rx) = crossbeam::channel::unbounded();
        let group = GroupHandle::new(tx.clone());
        let thread = std::thread::spawn(move || node_loop(node, group, rx, outbound));
        let command = |i: u64| Bytes::from(format!("cmd-{i}"));
        let status = || {
            let (reply, status) = Reply::channel();
            tx.send(NodeInput::Query { reply }).unwrap();
            status.recv_timeout(Wall::from_secs(5)).unwrap()
        };
        let awaited = |indexes: &[u64]| -> Vec<Bytes> {
            let receivers: Vec<_> = indexes
                .iter()
                .map(|&i| {
                    let (reply, applied) = Reply::channel();
                    tx.send(NodeInput::AwaitApplied {
                        index: LogIndex::new(i),
                        reply,
                    })
                    .unwrap();
                    applied
                })
                .collect();
            receivers
                .into_iter()
                .map(|applied| applied.recv_timeout(Wall::from_secs(5)).unwrap())
                .collect()
        };

        let newest = RESULT_WINDOW as u64 + 1;
        tx.send(NodeInput::Peer(
            ids[0],
            Message::AppendEntries(AppendEntriesArgs {
                term: Term::new(1),
                leader_id: ids[0],
                prev_log_index: LogIndex::ZERO,
                prev_log_term: Term::ZERO,
                entries: (1..=newest)
                    .map(|i| Entry {
                        term: Term::new(1),
                        index: LogIndex::new(i),
                        payload: Payload::Command(command(i)),
                    })
                    .collect(),
                leader_commit: LogIndex::new(newest),
                new_config: None,
                seq: 1,
            }),
        ))
        .unwrap();
        assert_eq!(awaited(&[newest]), [command(newest)], "the newest apply");
        assert_eq!(
            awaited(&[1]),
            [Bytes::new()],
            "evicted by the one over the window"
        );

        // The leader falls silent: the follower campaigns, then a leader
        // of its new term reaches it and it steps down.
        let candidate = loop {
            let now = status();
            if now.role == Role::Candidate {
                break now.term;
            }
            std::thread::sleep(Wall::from_millis(10));
        };
        tx.send(NodeInput::Peer(
            ids[2],
            Message::AppendEntries(AppendEntriesArgs {
                term: candidate,
                leader_id: ids[2],
                prev_log_index: LogIndex::new(newest),
                prev_log_term: Term::new(1),
                entries: Vec::new(),
                leader_commit: LogIndex::new(newest),
                new_config: None,
                seq: 1,
            }),
        ))
        .unwrap();
        assert_eq!(status().role, Role::Follower);
        let inside = [2, 3, newest / 2, newest - 1, newest];
        assert_eq!(
            awaited(&inside),
            inside.map(command),
            "each index still in the window answers with its own result"
        );
        assert_eq!(awaited(&[1]), [Bytes::new()]);
        tx.send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// What the engine of a [`leased_group`] answers query `q` with.
    pub(crate) fn tagged(q: &Bytes) -> Bytes {
        [b"lease:".as_slice(), q].concat().into()
    }

    /// Answers each query with [`tagged`], so a test can tell an answer
    /// the engine gave from one a stand-in group thread gave.
    #[derive(Debug)]
    struct Tagged;

    impl escape_core::statemachine::StateMachine for Tagged {
        fn apply(&mut self, _index: LogIndex, _command: &Bytes) -> Bytes {
            Bytes::new()
        }

        fn query(&self, query: &Bytes) -> Bytes {
            tagged(query)
        }
    }

    /// A group on `inbox` whose engine — installed as if its node thread
    /// ran, though none does — is server 1 of three, elected, with its
    /// no-op acknowledged by server 2 and, a read having reached it, a
    /// one-minute lease from now.
    pub(crate) fn leased_group(inbox: crossbeam::channel::Sender<NodeInput>) -> GroupHandle {
        use escape_core::engine::{Options, TimerKind};
        use escape_core::message::{AppendEntriesArgs, AppendEntriesReply, RequestVoteReply};
        use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
        use escape_core::time::Duration;

        let group = GroupHandle::new(inbox);
        let now = || group.clock.now();
        let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        let mut node = Node::builder(ids[0], ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![Duration::from_secs(60)]),
            ))))
            .options(Options {
                lease_duration: Some(Duration::from_secs(60)),
                ..Options::default()
            })
            .state_machine(Box::new(Tagged))
            .build();
        let timer = |actions: &[Action], kind| {
            actions.iter().find_map(|action| match action {
                Action::SetTimer { token, .. } if token.kind == kind => Some(*token),
                _ => None,
            })
        };
        let to_server_2 = |actions: Vec<Action>| -> AppendEntriesArgs {
            actions
                .into_iter()
                .find_map(|action| match action {
                    Action::Send {
                        to,
                        msg: Message::AppendEntries(args),
                        ..
                    } if to == ids[1] => Some(args),
                    _ => None,
                })
                .unwrap()
        };
        let election = timer(&node.start(now()), TimerKind::Election);
        node.handle_timer(election.unwrap(), now());
        let term = node.current_term();
        let granted = Message::RequestVoteReply(RequestVoteReply {
            term,
            vote_granted: true,
        });
        let elected = node.handle_message(ids[1], granted, now());
        let heartbeat = timer(&elected, TimerKind::Heartbeat).unwrap();
        let no_op = to_server_2(elected);
        let ack = |args: &AppendEntriesArgs| {
            Message::AppendEntriesReply(AppendEntriesReply {
                term,
                success: true,
                match_hint: no_op.entries.last().unwrap().index,
                status: None,
                seq: args.seq,
            })
        };
        node.handle_message(ids[1], ack(&no_op), now());
        // The read makes the next round a leased one, and its ack starts
        // the lease.
        assert!(node.lease_read(&[], now()).is_none());
        let round = to_server_2(node.handle_timer(heartbeat, now()));
        assert!(round.lease());
        node.handle_message(ids[1], ack(&round), now());
        assert!(node.lease_valid(now()) && node.lease_read(&[], now()).is_some());
        *group.engine.lock() = Some(node);
        group
    }

    /// `group`'s engine slot, for a test that plays its node thread.
    pub(crate) fn engine_of(group: &GroupHandle) -> &Mutex<Option<Node>> {
        &group.engine
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
