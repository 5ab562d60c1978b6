//! The sans-IO consensus engine.
//!
//! [`Node`] is a pure event-driven state machine: feed it messages and timer
//! expirations stamped with a logical [`Time`], and it returns the
//! [`Action`]s the runtime must perform (send messages, arm timers, report
//! commits). It never does I/O, spawns threads, or reads a clock, which is
//! what lets the *same* engine run under the deterministic simulator (all
//! paper figures) and under real-time transports (the examples).
//!
//! The engine implements everything Raft, Z-Raft and ESCAPE share; the
//! differences live behind the [`ElectionPolicy`] the node is built with.
//!
//! # Examples
//!
//! Build a three-node cluster's worth of engines and drive one to become a
//! candidate:
//!
//! ```
//! use escape_core::engine::{Action, Node};
//! use escape_core::policy::RaftPolicy;
//! use escape_core::time::{Duration, Time};
//! use escape_core::types::{Role, ServerId};
//!
//! let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
//! let mut node = Node::builder(ids[0], ids.clone())
//!     .policy(Box::new(RaftPolicy::randomized(
//!         Duration::from_millis(150),
//!         Duration::from_millis(300),
//!         7,
//!     )))
//!     .build();
//!
//! // Starting arms the election timer…
//! let actions = node.start(Time::ZERO);
//! let timer = actions.iter().find_map(|a| match a {
//!     Action::SetTimer { token, deadline } => Some((*token, *deadline)),
//!     _ => None,
//! }).expect("start must arm the election timer");
//!
//! // …and letting it fire starts a campaign.
//! let actions = node.handle_timer(timer.0, timer.1);
//! assert_eq!(node.role(), Role::Candidate);
//! assert!(actions.iter().any(|a| matches!(a, Action::Send { .. })));
//! ```

mod election;
mod replication;
#[cfg(test)]
mod tests;

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use escape_obs::{Event, NullObserver, Observer};

use crate::config::Configuration;
use crate::log::Log;
use crate::message::{AppendEntriesArgs, Message, RequestVoteArgs};
use crate::metrics::NodeMetrics;
use crate::policy::ElectionPolicy;
use crate::statemachine::{NullStateMachine, StateMachine};
use crate::storage::{Barrier, NullStorage, RecoveredState, Storage};
use crate::time::{Duration, Time};
use crate::types::{quorum, LogIndex, Role, ServerId, Term};

/// Which of the node's timers an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Follower/candidate failure-detection timer.
    Election,
    /// Leader heartbeat cadence.
    Heartbeat,
    /// Candidate-side `RequestVote` retransmission cadence: a campaign
    /// whose solicitations were lost should not have to wait a full
    /// election timeout to try the same term again.
    VoteRetry,
    /// Voter-side: the lease vote fence lapses, and a solicitation it
    /// refused only because of the fence may be granted now (see
    /// [`Node::peer_closed`]).
    FenceLapse,
}

/// An armed-timer handle. The runtime schedules the deadline and hands the
/// token back via [`Node::handle_timer`]; the engine ignores tokens whose
/// epoch is stale, which is how timers are "cancelled" without a cancel
/// action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerToken {
    /// The timer this token belongs to.
    pub kind: TimerKind,
    /// Arm-generation counter; only the newest epoch per kind is live.
    pub epoch: u64,
}

/// Everything a [`Node`] asks its runtime to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit `msg` to `to`. `broadcast` groups the sends that together
    /// form one logical broadcast (one heartbeat round, one vote
    /// solicitation) — the unit the paper's loss model omits receivers from.
    Send {
        /// Destination server.
        to: ServerId,
        /// The message to deliver.
        msg: Message,
        /// Broadcast-group id shared by sends of the same fan-out, if any.
        broadcast: Option<u64>,
    },
    /// Arm (or re-arm) a timer; supersedes any earlier deadline of the same
    /// kind.
    SetTimer {
        /// Token to return via [`Node::handle_timer`] when the deadline
        /// passes.
        token: TimerToken,
        /// Absolute deadline.
        deadline: Time,
    },
    /// The node won an election.
    BecameLeader {
        /// The leadership term.
        term: Term,
    },
    /// The node stepped down (seen a higher term or a current leader).
    BecameFollower {
        /// The term stepped down into.
        term: Term,
    },
    /// The commit index advanced to `index`.
    Committed {
        /// New commit index.
        index: LogIndex,
    },
    /// A committed command was applied to the state machine.
    Applied {
        /// Log position applied.
        index: LogIndex,
        /// The state machine's response payload.
        result: Bytes,
    },
    /// A linearizable read batch is ready: leadership was confirmed at its
    /// `read_index` and the state machine caught up to it.
    ReadReady {
        /// Batch id returned by [`Node::read_batch`].
        batch: u64,
        /// One response per query, in submission order.
        results: Vec<Bytes>,
    },
    /// A queued read batch can no longer be answered safely: leadership
    /// was lost (term changed) before the batch confirmed. The queries
    /// are never answered; clients should redirect and retry.
    ReadFailed {
        /// Batch id returned by [`Node::read_batch`].
        batch: u64,
        /// Why — always a redirect today.
        error: ProposeError,
    },
}

/// Why a proposal was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProposeError {
    /// Only leaders accept proposals; `hint` is the last known leader.
    /// The engine refuses without a hint while it knows no leader (mid
    /// election, or its leader's connections just closed); a node thread
    /// holds such a refusal until a leader is known, so a refusal that
    /// reaches a client without a hint means none emerged within one
    /// timeout floor ([`Node::timeout_floor`]).
    NotLeader {
        /// Where to retry, if known.
        hint: Option<ServerId>,
    },
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotLeader { hint: Some(l) } => {
                write!(f, "not the leader; try {l}")
            }
            ProposeError::NotLeader { hint: None } => {
                write!(f, "not the leader; no leader known")
            }
        }
    }
}

impl std::error::Error for ProposeError {}

/// Engine tuning knobs shared by every policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Leader-to-follower heartbeat cadence. Must be well below the minimum
    /// election timeout or followers will mistake a healthy leader for a
    /// dead one.
    pub heartbeat_interval: Duration,
    /// Cap on entries shipped per `AppendEntries`.
    pub max_entries_per_append: usize,
    /// Cap on unacknowledged entry-carrying `AppendEntries` windows per
    /// follower. `1` degenerates to one-round-trip-at-a-time replication;
    /// higher values pipeline: the leader keeps sending windows ahead of
    /// the acks, and each ack tops the pipeline back up.
    pub max_inflight_appends: usize,
    /// Whether a fresh leader appends a no-op entry to commit its
    /// predecessors' entries promptly (Raft §8).
    pub leader_noop: bool,
    /// Candidate `RequestVote` retransmission interval (`None` disables).
    /// Lost solicitations are otherwise only recovered by a repeat
    /// campaign one election timeout later.
    pub vote_retry_interval: Option<Duration>,
    /// Compact the log whenever at least this many applied entries sit
    /// above the snapshot horizon (`None` disables compaction). Requires a
    /// state machine whose `snapshot()` returns `Some`.
    pub snapshot_threshold: Option<u64>,
    /// Clock-bounded leader lease for local linearizable reads (`None`
    /// disables leasing; ReadIndex quorum rounds are still available).
    /// While the lease holds, [`Node::read_batch`] serves without any
    /// network round. A lease is held on demand: a leader marks a
    /// heartbeat round *leased* ([`AppendEntriesArgs::lease`]) only while
    /// a read reached it within the last `lease_duration`, and only
    /// leased rounds extend the lease. A leased round also arms the *vote
    /// fence*: voters refuse to elect a new leader within
    /// `lease_duration × 5/4` of the last leased round they received, so
    /// a deposed leader's lease provably expires before its successor
    /// exists (≤ 25 % clock-rate drift tolerated). Choose it well below
    /// the minimum election timeout — the fence must not delay
    /// legitimate failovers; policies may cap it further via
    /// [`ElectionPolicy::lease_bound`]. The fence is also the floor of
    /// hinted detection: a follower told that its leader's process closed
    /// its connections ([`Node::peer_closed`]) campaigns no sooner than
    /// one fence after the last leased round it heard, so on a real
    /// network the lease, not the election timeout, sets how long a
    /// killed leader's group has none ([`Options::vote_fence`]) — but
    /// only while reads hold a lease. A group nobody reads from holds
    /// none, pays no fence, and its prepared follower campaigns at the
    /// hint.
    ///
    /// Each quorum-acked leased round extends the lease to its own start
    /// plus `lease_duration`. With a lease of at least two heartbeats it
    /// holds without a gap while reads keep coming and every round's
    /// quorum ack lands within one heartbeat of its send, and one lost
    /// round lapses it only until the next round's ack. The first read
    /// after a read-free lease pays one ReadIndex round, and that round
    /// restarts the lease. [`Options::local`] runs two heartbeats.
    pub lease_duration: Option<Duration>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            heartbeat_interval: Duration::from_millis(150),
            max_entries_per_append: 128,
            max_inflight_appends: 4,
            leader_noop: true,
            vote_retry_interval: Some(Duration::from_millis(500)),
            snapshot_threshold: None,
            lease_duration: None,
        }
    }
}

impl Options {
    /// The timings a loopback or LAN deployment runs, written down once:
    /// 20 ms heartbeats, a lease of two heartbeats (so a 50 ms vote fence)
    /// and a vote retry of one heartbeat. The TCP runtime
    /// (`escape_transport::ProtocolSpec::local_options`), the simulator's
    /// TCP-shaped campaign trials and the engine's hint and fence tests
    /// all read them from here.
    ///
    /// While reads hold a lease, the fence is the whole detection time of
    /// a hinted failover (a leader whose process closed its connections),
    /// so the lease sets the outage a client sees; a group that serves no
    /// reads holds no lease and pays no fence (see
    /// [`Options::lease_duration`]), and its hinted failover is detected
    /// as soon as the connections close. The heartbeat is the knee of a measured sweep:
    /// a shorter one costs more messages per write, and at 15 ms the
    /// client's retry backoff already stretches the worst outage to nearly
    /// twice the median. A lease of two heartbeats survives one lost round:
    /// the lease lapses only until the next round's quorum ack lands. The
    /// local election timeouts (`baseTime` 150 ms and `k` 50 ms, Raft
    /// 150–300 ms) stay far above the fence and are not part of these
    /// options.
    ///
    /// The engine's default retry (500 ms, sized for the paper's WAN
    /// timeouts) is longer than every local election timeout, so a lost
    /// `RequestVote` would always cost a whole new campaign before it
    /// could fire; one heartbeat rescues it inside the campaign.
    pub fn local() -> Options {
        let heartbeat_interval = Duration::from_millis(20);
        Options {
            heartbeat_interval,
            lease_duration: Some(heartbeat_interval * 2),
            vote_retry_interval: Some(heartbeat_interval),
            ..Options::default()
        }
    }

    /// The vote fence these options arm: lease × 5/4 after the last
    /// leased round a voter waits before it grants a vote, or `None`
    /// without a lease. A
    /// policy's [`ElectionPolicy::lease_bound`] may shorten the lease a
    /// node actually holds, and the fence with it.
    pub fn vote_fence(&self) -> Option<Duration> {
        self.lease_duration.map(Node::lease_fence)
    }
}

/// Builder for [`Node`] ([C-BUILDER]).
pub struct NodeBuilder {
    id: ServerId,
    cluster: Vec<ServerId>,
    policy: Option<Box<dyn ElectionPolicy>>,
    state_machine: Box<dyn StateMachine>,
    storage: Box<dyn Storage>,
    recovered: Option<RecoveredState>,
    options: Options,
    observer: Arc<dyn Observer>,
}

impl NodeBuilder {
    /// Sets the election policy (required).
    pub fn policy(mut self, policy: Box<dyn ElectionPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the replicated state machine (defaults to
    /// [`NullStateMachine`]).
    pub fn state_machine(mut self, sm: Box<dyn StateMachine>) -> Self {
        self.state_machine = sm;
        self
    }

    /// Sets the durable-storage sink (defaults to
    /// [`NullStorage`]). Every persistent-state mutation is recorded here
    /// *before* the actions it produced are returned to the runtime.
    pub fn storage(mut self, storage: Box<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Boots the node from state recovered off durable storage instead of
    /// a blank slate: term, vote, log, configuration, and (when a snapshot
    /// was recovered) the state machine's contents all resume where the
    /// crashed process left them. Pair with
    /// [`NodeBuilder::storage`] so new mutations keep landing in the same
    /// directory.
    pub fn recover(mut self, state: RecoveredState) -> Self {
        self.recovered = Some(state);
        self
    }

    /// Overrides the engine options.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Attaches an event observer (defaults to [`NullObserver`]). Every
    /// emit site is guarded by [`Observer::enabled`], so the default
    /// costs one predictable branch on the hot path.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Builds the node.
    ///
    /// # Panics
    ///
    /// Panics if no policy was supplied, if the cluster does not contain the
    /// node's own id, or if the cluster contains duplicate ids.
    pub fn build(self) -> Node {
        // lint:allow(panic): documented `# Panics` builder contract
        let mut policy = self.policy.expect("NodeBuilder requires a policy");
        let mut sorted = self.cluster.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if let [a, b] = pair {
                assert!(a != b, "duplicate server id {a} in cluster");
            }
        }
        assert!(
            sorted.binary_search(&self.id).is_ok(),
            "cluster must contain the node's own id {}",
            self.id
        );
        let peers: Vec<ServerId> = self
            .cluster
            .iter()
            .copied()
            .filter(|p| *p != self.id)
            .collect();
        let mut slots: Vec<(ServerId, usize)> = peers
            .iter()
            .enumerate()
            .map(|(slot, id)| (*id, slot))
            .collect();
        slots.sort_unstable();

        let mut current_term = Term::ZERO;
        let mut voted_for = None;
        let mut log = Log::new();
        let mut state_machine = self.state_machine;
        let mut last_applied = LogIndex::ZERO;
        let mut commit_index = LogIndex::ZERO;
        let mut latest_snapshot = None;
        if let Some(recovered) = self.recovered {
            current_term = recovered.term;
            voted_for = recovered.voted_for;
            log = recovered.log;
            if let Some(config) = recovered.config {
                policy.restore_config(config);
            }
            if let Some(snapshot) = recovered.snapshot {
                state_machine.restore(&snapshot.data);
                last_applied = snapshot.index;
                // Conservative restart point: committed-but-unsnapshotted
                // entries re-commit (and re-apply, deterministically) once
                // a leader's heartbeats re-advance the commit index.
                commit_index = snapshot.index;
                latest_snapshot = Some(SnapshotHandle {
                    index: snapshot.index,
                    term: snapshot.term,
                    data: snapshot.data,
                });
            }
        }

        Node {
            id: self.id,
            progress: vec![Progress::default(); peers.len()],
            peers,
            slots,
            cluster_size: self.cluster.len(),
            policy,
            state_machine,
            storage: self.storage,
            storage_dirty: false,
            // Whatever was recovered came off the disk.
            durable_index: log.last_index(),
            pending_barriers: VecDeque::new(),
            options: self.options,
            current_term,
            voted_for,
            log,
            role: Role::Follower,
            leader_hint: None,
            commit_index,
            last_applied,
            latest_snapshot,
            votes_granted: BTreeSet::new(),
            matched_above_commit: 0,
            propose_times: VecDeque::new(),
            pending_reads: VecDeque::new(),
            read_batch_seq: 0,
            confirmed: 0,
            acked_above_confirmed: 0,
            round_starts: VecDeque::new(),
            lease_until: Time::ZERO,
            last_read: None,
            lease_since: 0,
            term_start_index: LogIndex::ZERO,
            last_leader_contact: None,
            leased_contact: None,
            fenced_vote: None,
            election_deadline: Time::ZERO,
            election_epoch: 0,
            heartbeat_epoch: 0,
            vote_retry_epoch: 0,
            fence_lapse_epoch: 0,
            broadcast_seq: 0,
            scratch: Vec::new(),
            metrics: NodeMetrics::new(),
            observer: self.observer,
        }
    }
}

/// A retained snapshot: the compaction point plus the serialized state,
/// kept so laggard followers can be brought up via `InstallSnapshot`.
#[derive(Clone, Debug)]
pub(super) struct SnapshotHandle {
    pub(super) index: LogIndex,
    pub(super) term: Term,
    pub(super) data: Bytes,
}

/// A queued linearizable read batch awaiting leadership confirmation and
/// `applied >= read_index`.
#[derive(Clone, Debug)]
struct PendingReads {
    /// Handle returned by [`Node::read_batch`], echoed in the release.
    batch: u64,
    /// Opaque queries for [`StateMachine::query`].
    queries: Vec<Bytes>,
    /// The batch releases once `last_applied` reaches this index.
    read_index: LogIndex,
    /// The leadership term the batch was accepted under; a term change
    /// fails the batch instead of answering it.
    term: Term,
    /// Broadcast round whose quorum ack confirms leadership; `0` when the
    /// batch was accepted under a held lease (pre-confirmed).
    round: u64,
}

/// A leader's replication state for one peer: one slot of
/// `Node::progress`, which runs parallel to `Node::peers`. Every field is
/// reset when a leadership begins and read only while it lasts.
#[derive(Clone, Copy, Debug, Default)]
struct Progress {
    /// Next index to ship. Advanced *optimistically* past every window
    /// sent, so the pipeline does not wait for acks (see
    /// `Node::pump_peer`); a rejection walks it back.
    next: LogIndex,
    /// Highest index the peer acknowledged holding.
    matched: LogIndex,
    /// Unacked entry-carrying `AppendEntries` windows (the pipelining
    /// credit in use). Counted down on every reply, saturating — a lost
    /// window's credit is reclaimed by later heartbeat replies rather
    /// than leaking forever.
    inflight: usize,
    /// Pipelining window: [`Options::max_inflight_appends`] unless
    /// [`Node::note_backpressure`] clamped it to 1, after which each
    /// successful append ack widens it by one until it is back at the
    /// option (slow-start-style additive recovery).
    cap: usize,
    /// Highest `AppendEntries` round the peer has echoed back under this
    /// leadership (the `seq` field): by replying at all, a follower
    /// acknowledges our term as of that round.
    acked: u64,
}

/// Cap on remembered-but-unconfirmed round issue times. Only reachable
/// when quorum acks stop entirely (a partitioned leader); dropping the
/// oldest merely forgoes a lease extension, which is the safe direction.
const ROUND_STARTS_MAX: usize = 1024;

/// The `n`-th largest of `values` (1-based), in one linear-time
/// selection that reorders `values`; `None` unless `1 <= n <= len`.
fn nth_largest(values: &mut [u64], n: usize) -> Option<u64> {
    if n == 0 || n > values.len() {
        return None;
    }
    let (_, nth, _) = values.select_nth_unstable_by(n - 1, |a, b| b.cmp(a));
    Some(*nth)
}

/// A single consensus server: Raft's replicated state machine plus the
/// election behaviour of whatever [`ElectionPolicy`] it was built with.
///
/// See the [module docs](self) for a usage example.
#[derive(Debug)]
pub struct Node {
    id: ServerId,
    /// The other servers, in cluster order: the order every fan-out
    /// sends in.
    peers: Vec<ServerId>,
    /// `(peer, slot)` sorted by peer: the slot of `peers` and `progress`
    /// a message's sender occupies.
    slots: Vec<(ServerId, usize)>,
    cluster_size: usize,
    policy: Box<dyn ElectionPolicy>,
    state_machine: Box<dyn StateMachine>,
    storage: Box<dyn Storage>,
    /// `true` when persisted-but-unsynced records exist; cleared by the
    /// pre-return [`Node::sync_storage`].
    storage_dirty: bool,
    /// Highest log index a completed barrier covers. Below the log tail
    /// only on a leader whose own appends are still being flushed; it is
    /// what [`Node::advance_commit`] lets the leader count itself up to.
    durable_index: LogIndex,
    /// Deferred barriers not yet reported done, oldest first: the
    /// storage's ticket and the log tail it was requested at.
    pending_barriers: VecDeque<(u64, LogIndex)>,
    options: Options,

    // ---- Raft persistent state ----
    current_term: Term,
    voted_for: Option<ServerId>,
    log: Log,

    // ---- volatile state ----
    role: Role,
    leader_hint: Option<ServerId>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    votes_granted: BTreeSet<ServerId>,

    // ---- leader volatile state ----
    /// Per-peer replication state, slot for slot with `peers`.
    progress: Vec<Progress>,
    /// Peers whose `matched` exceeds `commit_index`. Nothing can commit
    /// until this (plus the leader itself) reaches a quorum, which is
    /// what lets [`Node::advance_commit`] skip most acks in O(1).
    matched_above_commit: usize,
    /// Propose timestamps of this leader's own entries awaiting commit,
    /// in index order, for the commit-latency histogram. Cleared on any
    /// role change (a deposed leader's entries may commit under a
    /// successor; their latency is no longer ours to report).
    propose_times: VecDeque<(LogIndex, Time)>,

    // ---- linearizable reads (leader volatile state) ----
    /// Read batches awaiting confirmation + apply, in acceptance order
    /// (rounds and read indexes are both monotone, so FIFO release is
    /// exact).
    pending_reads: VecDeque<PendingReads>,
    /// Batch-id counter for [`Node::read_batch`].
    read_batch_seq: u64,
    /// The newest round a read quorum of peers has echoed back: the
    /// `needed`-th largest `Progress::acked`, cached.
    confirmed: u64,
    /// Peers whose `acked` exceeds `confirmed`. Only when this reaches the
    /// read quorum can `confirmed` have moved, so only then is it
    /// recomputed: O(1) amortised per ack.
    acked_above_confirmed: usize,
    /// Issue times of the current leased period's rounds not yet
    /// quorum-confirmed, oldest first; confirmation converts them into
    /// lease extensions.
    round_starts: VecDeque<(u64, Time)>,
    /// While `now < lease_until` the leader serves reads with no network
    /// round. Starts at zero on every leadership assumption and grows
    /// only from rounds *this* leadership quorum-acked — a fresh PPF
    /// promotee cannot inherit a lease.
    lease_until: Time,
    /// When a read last reached this leader ([`Node::read_batch`], or
    /// [`Node::lease_read`] whether or not it answered): rounds opened
    /// within one lease of it are leased.
    last_read: Option<Time>,
    /// The first round of the current leased period, `0` while rounds go
    /// out unleased. Only this period's rounds may extend the lease (they
    /// alone are in `round_starts`): a peer's ack counts for every round
    /// up to the one it echoes, and an ack of a later unleased round
    /// proves no fence.
    lease_since: u64,
    /// First index of this leadership term (the no-op's index). Reads wait
    /// until it commits: before that, `commit_index` may trail entries the
    /// predecessor committed (Raft §8), so it is not a safe read index.
    term_start_index: LogIndex,
    /// Last time a leader was heard (`AppendEntries` / `InstallSnapshot`),
    /// across terms: what [`Node::peer_closed`] measures from.
    last_leader_contact: Option<Time>,
    /// Last time a leased `AppendEntries` arrived, across terms. The lease
    /// vote fence runs from here.
    leased_contact: Option<Time>,
    /// A solicitation refused only because of the vote fence, granted
    /// when the fence lapses if this node is still in its term and has
    /// not voted (the `FenceLapse` timer).
    fenced_vote: Option<RequestVoteArgs>,

    // ---- snapshotting ----
    latest_snapshot: Option<SnapshotHandle>,

    // ---- timer + broadcast bookkeeping ----
    /// Where the election timer was last armed.
    election_deadline: Time,
    election_epoch: u64,
    heartbeat_epoch: u64,
    vote_retry_epoch: u64,
    fence_lapse_epoch: u64,
    broadcast_seq: u64,

    /// Reused buffer for the quorum selections.
    scratch: Vec<u64>,
    metrics: NodeMetrics,
    /// Typed-event sink; see [`NodeBuilder::observer`].
    observer: Arc<dyn Observer>,
}

impl std::fmt::Debug for NodeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeBuilder")
            .field("id", &self.id)
            .field("cluster", &self.cluster)
            .field("has_policy", &self.policy.is_some())
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Starts building a node for server `id` in a cluster whose full
    /// membership (including `id`) is `cluster`.
    pub fn builder(id: ServerId, cluster: Vec<ServerId>) -> NodeBuilder {
        NodeBuilder {
            id,
            cluster,
            policy: None,
            state_machine: Box::new(NullStateMachine),
            storage: Box::new(NullStorage),
            recovered: None,
            options: Options::default(),
            observer: Arc::new(NullObserver),
        }
    }

    // ---- inspection ----

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The other servers in the cluster.
    pub fn peers(&self) -> &[ServerId] {
        &self.peers
    }

    /// Total cluster size (peers + self).
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// The current role (Fig. 1).
    pub fn role(&self) -> Role {
        self.role
    }

    /// `true` while this node believes it leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The current term.
    pub fn current_term(&self) -> Term {
        self.current_term
    }

    /// Who this node voted for in the current term, if anyone.
    pub fn voted_for(&self) -> Option<ServerId> {
        self.voted_for
    }

    /// The last known leader (self, while leading). A follower forgets it
    /// when that leader's connections close ([`Node::peer_closed`]).
    pub fn leader_hint(&self) -> Option<ServerId> {
        self.leader_hint
    }

    /// The policy's shortest election timeout
    /// ([`ElectionPolicy::timeout_floor`]): within it of losing its
    /// leader, some server of the cluster campaigns. `None` when the
    /// policy cannot know it.
    pub fn timeout_floor(&self) -> Option<Duration> {
        self.policy.timeout_floor()
    }

    /// The replicated log.
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Highest applied index.
    pub fn last_applied(&self) -> LogIndex {
        self.last_applied
    }

    /// Highest log index known durable on this node: the log tail, except
    /// on a leader whose storage is still flushing its latest appends.
    pub fn durable_index(&self) -> LogIndex {
        self.durable_index
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The policy's name (`"raft"`, `"zraft"`, `"escape"`).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The node's current prioritized configuration, if its policy tracks
    /// one (Theorem 3 invariant checks read this).
    pub fn current_config(&self) -> Option<Configuration> {
        self.policy.current_config()
    }

    /// Mutable access to the policy, for scenario scripting in tests.
    pub fn policy_mut(&mut self) -> &mut dyn ElectionPolicy {
        &mut *self.policy
    }

    /// The quorum size for this cluster.
    pub fn quorum(&self) -> usize {
        quorum(self.cluster_size)
    }

    // ---- lifecycle ----

    /// Boots the node as a follower: arms the election timer.
    pub fn start(&mut self, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        self.arm_election_timer(now, &mut out);
        out
    }

    /// Recovers a crashed node: volatile state is reset, persistent state
    /// (term, vote, log — and, per Fig. 5b, the policy's configuration)
    /// survives. Applied state is retained, modelling a snapshot at
    /// `last_applied`; the commit index restarts there and is re-advanced by
    /// the leader's heartbeats.
    pub fn restart(&mut self, now: Time) -> Vec<Action> {
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes_granted.clear();
        self.propose_times.clear();
        self.pending_reads.clear(); // waiters died with the old process
        self.reset_read_state();
        self.last_leader_contact = None;
        self.leased_contact = None;
        self.fenced_vote = None;
        self.commit_index = self.last_applied;
        self.policy.stepped_down();
        // Invalidate any pre-crash timers.
        self.election_epoch += 1;
        self.heartbeat_epoch += 1;
        self.vote_retry_epoch += 1;
        self.fence_lapse_epoch += 1;
        self.start(now)
    }

    /// The transport reports it dropped outbound frames to `peer`
    /// (bounded-queue overflow or a broken connection discarding its
    /// backlog). A leader clamps that peer's pipelining window to 1 —
    /// topping up credit for a peer whose link is shedding frames only
    /// feeds the drop. The window recovers additively: each successful
    /// append ack widens it by one until it is back at
    /// [`Options::max_inflight_appends`]. No-op on non-leaders (there is
    /// no pipeline to clamp).
    pub fn note_backpressure(&mut self, peer: ServerId) {
        if self.role != Role::Leader {
            return;
        }
        let Some(progress) = self.slot(peer).and_then(|slot| self.progress.get_mut(slot)) else {
            return;
        };
        // Only clamp a genuinely wider window: re-reports while already
        // clamped must not zero out additive recovery progress.
        if progress.cap > 1 {
            progress.cap = 1;
            self.metrics.backpressure_resets += 1;
        }
    }

    /// The transport saw `peer`'s connection end by a remote close —
    /// mostly because its process exited; a partition or an overloaded
    /// peer closes nothing, a live peer resetting its link can. A
    /// follower that last heard `peer` lead takes this as a failure hint
    /// and moves its election deadline earlier by the policy's timeout
    /// floor minus what was left of its vote fence at its last contact —
    /// never before the fence lapses, and never later than the deadline
    /// already armed. Every follower moves by the same amount, so PPF's
    /// priority order and Eq. 1's spacing `k` hold: the prepared
    /// candidate still campaigns first and alone, one fence after the
    /// leader's last leased round, or at once when the leader held no
    /// lease (no reads, or no leases configured). A leader that is in
    /// fact alive re-arms the timer with its next `AppendEntries`, as
    /// always.
    ///
    /// The follower also stops naming `peer` as its leader: refusals
    /// carry no hint until a leader is heard again (the closed one's next
    /// `AppendEntries`, if it is in fact alive, or a successor's), so a
    /// client is not sent back to a server that has just gone.
    ///
    /// No safety argument rests on the hint: voters still enforce their
    /// own fence. A voter that heard the leader after the candidate did
    /// (by µs when a broadcast reached it later, by up to a heartbeat
    /// after a catch-up stream) refuses the solicitation, and grants it
    /// when its fence lapses if it is still in that term and has not
    /// voted. Any other case is a no-op.
    pub fn peer_closed(&mut self, peer: ServerId, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        if self.role != Role::Follower || self.leader_hint != Some(peer) {
            return out;
        }
        self.leader_hint = None;
        let (Some(floor), Some(contact)) = (self.policy.timeout_floor(), self.last_leader_contact)
        else {
            return out;
        };
        let lapse = self.fence_lapse();
        let fenced_for = lapse.map_or(Duration::ZERO, |lapse| lapse.saturating_since(contact));
        let deadline = self
            .election_deadline
            .saturating_sub(floor.saturating_sub(fenced_for))
            .max(lapse.unwrap_or(Time::ZERO))
            .max(now);
        if deadline >= self.election_deadline {
            return out;
        }
        let advance = self.election_deadline - deadline;
        self.set_election_deadline(deadline, &mut out);
        self.emit(
            now,
            Event::FailureHinted {
                term: self.current_term.get(),
                advance_micros: advance.as_micros(),
            },
        );
        out
    }

    /// The slot of `peers` (and `progress`) that `peer` occupies; `None`
    /// for a server outside the cluster.
    fn slot(&self, peer: ServerId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&peer, |&(id, _)| id)
            .ok()
            .and_then(|i| self.slots.get(i))
            .map(|&(_, slot)| slot)
    }

    /// Handles a message from `from`.
    pub fn handle_message(&mut self, from: ServerId, msg: Message, now: Time) -> Vec<Action> {
        self.metrics.messages_received += 1;
        let mut out = Vec::new();
        if msg.term() > self.current_term {
            self.observe_higher_term(msg.term(), now, &mut out);
        }
        match msg {
            Message::AppendEntries(args) => self.on_append_entries(from, args, now, &mut out),
            Message::AppendEntriesReply(r) => {
                self.on_append_entries_reply(from, r, now, &mut out)
            }
            Message::RequestVote(args) => self.on_request_vote(from, args, now, &mut out),
            Message::RequestVoteReply(r) => self.on_request_vote_reply(from, r, now, &mut out),
            Message::InstallSnapshot(args) => {
                self.on_install_snapshot(from, args, now, &mut out)
            }
            Message::InstallSnapshotReply(r) => {
                self.on_install_snapshot_reply(from, r, now, &mut out)
            }
        }
        self.sync_storage(now);
        out
    }

    /// Handles a timer expiration. Stale tokens (superseded epochs) are
    /// ignored.
    pub fn handle_timer(&mut self, token: TimerToken, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        match token.kind {
            TimerKind::Election if token.epoch == self.election_epoch => {
                self.on_election_timeout(now, &mut out);
            }
            TimerKind::Heartbeat if token.epoch == self.heartbeat_epoch => {
                self.on_heartbeat_timeout(now, &mut out);
            }
            TimerKind::VoteRetry if token.epoch == self.vote_retry_epoch => {
                self.on_vote_retry_timeout(now, &mut out);
            }
            TimerKind::FenceLapse if token.epoch == self.fence_lapse_epoch => {
                self.on_fence_lapse(now, &mut out);
            }
            _ => {} // stale epoch: the timer was re-armed or cancelled
        }
        self.sync_storage(now);
        out
    }

    /// Proposes a command for replication. Only the leader accepts
    /// proposals. Equivalent to a [`Node::propose_batch`] of one.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError::NotLeader`] (with a leader hint when known)
    /// if this node does not currently lead.
    pub fn propose(
        &mut self,
        command: Bytes,
        now: Time,
    ) -> Result<(LogIndex, Vec<Action>), ProposeError> {
        let (indexes, out) = self.propose_batch(vec![command], now)?;
        // lint:allow(panic): propose_batch returns one index per command
        Ok((indexes[0], out))
    }

    /// Proposes a batch of commands for replication: all entries are
    /// appended locally, persisted under **one** storage barrier (group
    /// commit), and fanned out in **one** coalesced `AppendEntries` round
    /// per follower — the batched fast path the per-command
    /// [`Node::propose`] cannot amortize. Returns the assigned indexes
    /// (always consecutive) alongside the actions.
    ///
    /// The barrier is the one place the engine does not write before it
    /// sends: it is requested with [`Storage::sync_deferred`], and the
    /// `AppendEntries` are returned whether or not it has completed. That
    /// is safe because they promise nothing about this node's disk — the
    /// leader counts itself towards the commit quorum only up to
    /// [`Node::durable_index`], which a pending barrier advances through
    /// [`Node::barrier_done`].
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError::NotLeader`] (with a leader hint when known)
    /// if this node does not currently lead. An empty batch on a leader
    /// returns `Ok` with no indexes and no actions.
    pub fn propose_batch(
        &mut self,
        commands: Vec<Bytes>,
        now: Time,
    ) -> Result<(Vec<LogIndex>, Vec<Action>), ProposeError> {
        if self.role != Role::Leader {
            return Err(ProposeError::NotLeader {
                hint: self.leader_hint,
            });
        }
        if commands.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let mut indexes = Vec::with_capacity(commands.len());
        for command in commands {
            let index = self
                .log
                .append_new(self.current_term, crate::log::Payload::Command(command));
            self.propose_times.push_back((index, now));
            indexes.push(index);
        }
        self.metrics.record_batch(indexes.len());
        self.persist_tail_entries(indexes.len());
        let mut out = Vec::new();
        self.flush_replication(now, &mut out);
        self.defer_tail_barrier(now);
        // A single-node cluster commits as soon as its barrier is done.
        self.advance_commit(now, &mut out);
        // Committing may have compacted the log: snapshots block.
        self.sync_storage(now);
        Ok((indexes, out))
    }

    /// The storage finished the deferred barrier it issued `ticket` for
    /// (and, barriers being FIFO, every earlier one): the leader now
    /// counts itself as a replica of everything appended before that
    /// request, which may be what a commit was waiting for. Tickets that
    /// are unknown, already reported, or were overtaken by a blocking
    /// barrier claim nothing — but the commit index is looked at again
    /// either way: the blocking barrier that overtook a ticket ran in a
    /// step that may not have been in a position to commit.
    pub fn barrier_done(&mut self, ticket: u64, now: Time) -> Vec<Action> {
        let mut covered = None;
        while let Some(&(pending, tail)) = self.pending_barriers.front() {
            if pending > ticket {
                break;
            }
            self.pending_barriers.pop_front();
            covered = Some(tail);
        }
        if let Some(tail) = covered {
            self.durable_index = self.durable_index.max(tail);
            self.emit(now, Event::WalSyncBarrier);
        }
        let mut out = Vec::new();
        self.advance_commit(now, &mut out);
        self.sync_storage(now);
        out
    }

    /// Accepts a batch of linearizable queries that never touch the log.
    ///
    /// The batch records the current safe read index and is released as
    /// one [`Action::ReadReady`] (answers via [`StateMachine::query`])
    /// once two conditions hold: leadership is confirmed for the batch,
    /// and `last_applied` has reached the read index. Confirmation comes
    /// either from a held lease ([`Options::lease_duration`] — zero
    /// network rounds) or from one piggybacked heartbeat round whose
    /// quorum of echoed `seq` acks proves no higher term existed when the
    /// batch was accepted. If leadership is lost first, the batch fails
    /// as [`Action::ReadFailed`] and is never answered.
    ///
    /// Every call on a leader is read demand: for one lease from `now` its
    /// rounds are leased. A read after a read-free lease therefore finds
    /// none held, and the confirm round it opens restarts the lease.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError::NotLeader`] (with a leader hint when
    /// known) if this node does not currently lead.
    pub fn read_batch(
        &mut self,
        queries: Vec<Bytes>,
        now: Time,
    ) -> Result<(u64, Vec<Action>), ProposeError> {
        if self.role != Role::Leader {
            return Err(ProposeError::NotLeader {
                hint: self.leader_hint,
            });
        }
        self.last_read = Some(now);
        self.read_batch_seq += 1;
        let batch = self.read_batch_seq;
        if queries.is_empty() {
            return Ok((
                batch,
                vec![Action::ReadReady {
                    batch,
                    results: Vec::new(),
                }],
            ));
        }
        let mut out = Vec::new();
        let leased = self.lease_valid(now);
        self.count_read_batch(queries.len(), leased);
        let round = if leased {
            0 // pre-confirmed: the lease vouches for our leadership
        } else {
            // lint:allow(write-before-send): the read path mutates nothing durable
            self.confirm_round(now, &mut out)
        };
        self.pending_reads.push_back(PendingReads {
            batch,
            queries,
            read_index: self.read_index(),
            term: self.current_term,
            round,
        });
        self.release_ready_reads(&mut out);
        self.sync_storage(now);
        Ok((batch, out))
    }

    /// Answers `queries` at once if the lease alone can: this node leads,
    /// its lease holds at `now`, no earlier batch is waiting (so answers
    /// keep FIFO order), and everything up to the safe read index has
    /// applied. The counters move exactly as they do for a
    /// [`Node::read_batch`] the lease answers on the spot.
    ///
    /// Otherwise it returns `None`; the caller falls back to
    /// [`Node::read_batch`]. Answered or not, a call on a leader records
    /// read demand, as [`Node::read_batch`] does, and changes nothing
    /// else when it declines. It produces no [`Action`] and arms no
    /// timer, so a thread that does not drive the node may call it.
    pub fn lease_read(&mut self, queries: &[Bytes], now: Time) -> Option<Vec<Bytes>> {
        if self.role != Role::Leader {
            return None;
        }
        self.last_read = Some(now);
        let answerable = self.lease_valid(now)
            && self.pending_reads.is_empty()
            && self.last_applied >= self.read_index();
        if !answerable {
            return None;
        }
        if !queries.is_empty() {
            self.count_read_batch(queries.len(), true);
        }
        Some(self.serve_queries(queries))
    }

    // ---- linearizable-read internals ----

    /// The index a read accepted now must see applied. Not a safe read
    /// index until our own no-op commits: see `term_start_index`.
    fn read_index(&self) -> LogIndex {
        self.commit_index.max(self.term_start_index)
    }

    /// Counts one non-empty batch of `queries` reads, confirmed by the
    /// lease (`leased`) or by a quorum round.
    fn count_read_batch(&mut self, queries: usize, leased: bool) {
        self.metrics.read_batches += 1;
        if leased {
            self.metrics.lease_reads += queries as u64;
        } else {
            self.metrics.quorum_reads += queries as u64;
        }
    }

    /// Answers `queries` off the state machine, in order, and counts them
    /// served.
    fn serve_queries(&mut self, queries: &[Bytes]) -> Vec<Bytes> {
        let results: Vec<Bytes> = queries
            .iter()
            .map(|q| self.state_machine.query(q))
            .collect();
        self.metrics.reads_served += results.len() as u64;
        results
    }

    /// The lease length in force: the configured duration capped by the
    /// policy's bound (`None` when leasing is disabled).
    pub(super) fn effective_lease(&self) -> Option<Duration> {
        let lease = self.options.lease_duration?;
        Some(match self.policy.lease_bound() {
            Some(bound) => lease.min(bound),
            None => lease,
        })
    }

    /// `true` while this leader may serve reads on its lease alone.
    pub fn lease_valid(&self, now: Time) -> bool {
        self.effective_lease().is_some() && now < self.lease_until
    }

    /// The silence a voter must observe before granting a vote while
    /// leases are in force: lease × 5/4, the 25 % margin covering clock-
    /// rate drift between the leaseholder and the voter.
    pub(super) fn lease_fence(lease: Duration) -> Duration {
        Duration::from_micros(lease.as_micros().saturating_mul(5) / 4)
    }

    /// When the lease vote fence lapses: one fence after the last leased
    /// `AppendEntries`. `None` without leases or without such a contact.
    pub(super) fn fence_lapse(&self) -> Option<Time> {
        let lease = self.effective_lease()?;
        Some(self.leased_contact? + Node::lease_fence(lease))
    }

    /// `true` while the lease vote fence forbids granting any vote:
    /// leases are in force and a leased round was heard too recently for
    /// every lease it could back to have expired. An unleased round backs
    /// none, so it neither sets nor extends the fence.
    pub(super) fn vote_fenced(&self, now: Time) -> bool {
        self.fence_lapse().is_some_and(|lapse| now < lapse)
    }

    /// Peer acks (beyond self) needed for a read quorum.
    fn read_quorum_needed(&self) -> usize {
        quorum(self.cluster_size) - 1
    }

    /// The newest broadcast round a quorum has echoed back: the
    /// `needed`-th largest per-peer ack (self implicitly acks everything,
    /// so a single-node cluster confirms every round instantly).
    fn confirmed_round(&self) -> u64 {
        if self.read_quorum_needed() == 0 {
            return self.broadcast_seq;
        }
        self.confirmed
    }

    /// The peer in `slot` echoed round `seq`. Returns `true` if that is
    /// newer than anything it echoed before.
    pub(super) fn note_acked(&mut self, slot: usize, seq: u64) -> bool {
        let Some(progress) = self.progress.get_mut(slot) else {
            return false;
        };
        if seq <= progress.acked {
            return false;
        }
        if progress.acked <= self.confirmed && seq > self.confirmed {
            self.acked_above_confirmed += 1;
        }
        progress.acked = seq;
        let needed = self.read_quorum_needed();
        if needed > 0 && self.acked_above_confirmed >= needed {
            self.scratch.clear();
            self.scratch.extend(self.progress.iter().map(|p| p.acked));
            if let Some(confirmed) = nth_largest(&mut self.scratch, needed) {
                self.confirmed = confirmed;
            }
            self.acked_above_confirmed = self
                .progress
                .iter()
                .filter(|p| p.acked > self.confirmed)
                .count();
        }
        true
    }

    /// Opens the next broadcast round at `now` and returns it. The round is
    /// leased while a read reached this leader within the last lease: its
    /// issue time is then kept for lease extension on its quorum ack.
    /// Advances whatever that makes ready.
    ///
    /// Leasing switches off with the first unleased round, and the pending
    /// issue times go: a quorum ack of a later round would confirm them,
    /// and a peer that missed the leased round and acked only the unleased
    /// one is not fenced. The lease already granted keeps the fences that
    /// back it. Switching on opens a new period at the round.
    pub(super) fn open_round(&mut self, now: Time, out: &mut Vec<Action>) -> u64 {
        let round = self.next_broadcast_id();
        if self.read_demand(now) {
            if self.lease_since == 0 {
                self.lease_since = round;
            }
            if self.round_starts.len() >= ROUND_STARTS_MAX {
                self.round_starts.pop_front();
            }
            self.round_starts.push_back((round, now));
        } else {
            self.lease_since = 0;
            self.round_starts.clear();
        }
        self.advance_read_state(out);
        round
    }

    /// `true` while rounds opened at `now` are leased: leases are in force
    /// and a read reached this leader within the last lease.
    fn read_demand(&self, now: Time) -> bool {
        match (self.effective_lease(), self.last_read) {
            (Some(lease), Some(read)) => now < read + lease,
            _ => false,
        }
    }

    /// The `seq` every `AppendEntries` of the current round carries: the
    /// round and its lease flag.
    pub(super) fn round_stamp(&self) -> u64 {
        AppendEntriesArgs::stamp(self.broadcast_seq, self.lease_since != 0)
    }

    /// Re-derives the confirmed round, folds newly confirmed rounds of the
    /// current leased period into the lease, and releases every read batch
    /// that became ready. Called whenever acks or rounds move.
    pub(super) fn advance_read_state(&mut self, out: &mut Vec<Action>) {
        if self.role != Role::Leader {
            return;
        }
        let confirmed = self.confirmed_round();
        if let Some(lease) = self.effective_lease() {
            while let Some(&(round, start)) = self.round_starts.front() {
                if round > confirmed {
                    break;
                }
                self.round_starts.pop_front();
                // Only the current leased period's rounds are kept: see
                // `open_round`.
                debug_assert!(self.lease_since != 0 && round >= self.lease_since);
                let until = start + lease;
                if until > self.lease_until {
                    self.lease_until = until;
                    // Stamped with the round's issue time: the instant the
                    // extension is measured from, deterministic in simnet.
                    self.emit(
                        start,
                        Event::LeaseExtended {
                            until_micros: until.as_micros(),
                        },
                    );
                }
            }
        }
        self.release_ready_reads(out);
    }

    /// Releases ready read batches in FIFO order: leadership confirmed
    /// (round quorum-acked, or lease-accepted) and applied caught up.
    pub(super) fn release_ready_reads(&mut self, out: &mut Vec<Action>) {
        let confirmed = self.confirmed_round();
        while let Some(front) = self.pending_reads.front() {
            // Belt and braces: a batch from another term must never be
            // answered, whatever else happened (step-down already fails
            // the queue; this guards re-election into a new term).
            if self.role != Role::Leader || front.term != self.current_term {
                let Some(stale) = self.pending_reads.pop_front() else {
                    break;
                };
                self.metrics.reads_failed += stale.queries.len() as u64;
                out.push(Action::ReadFailed {
                    batch: stale.batch,
                    error: ProposeError::NotLeader {
                        hint: self.leader_hint,
                    },
                });
                continue;
            }
            if (front.round > confirmed && front.round != 0)
                || front.read_index > self.last_applied
            {
                return; // FIFO: later batches can only be later-ready
            }
            let Some(ready) = self.pending_reads.pop_front() else {
                break;
            };
            let results = self.serve_queries(&ready.queries);
            out.push(Action::ReadReady {
                batch: ready.batch,
                results,
            });
        }
    }

    /// Fails every queued read batch (leadership lost before release).
    fn fail_pending_reads(&mut self, out: &mut Vec<Action>) {
        while let Some(stale) = self.pending_reads.pop_front() {
            self.metrics.reads_failed += stale.queries.len() as u64;
            out.push(Action::ReadFailed {
                batch: stale.batch,
                error: ProposeError::NotLeader {
                    hint: self.leader_hint,
                },
            });
        }
    }

    /// Resets all per-leadership read state (on gaining *or* losing the
    /// leadership — a lease never crosses either boundary).
    pub(super) fn reset_read_state(&mut self) {
        for progress in &mut self.progress {
            progress.acked = 0;
        }
        self.confirmed = 0;
        self.acked_above_confirmed = 0;
        self.round_starts.clear();
        self.lease_until = Time::ZERO;
        self.last_read = None;
        self.lease_since = 0;
    }

    // ---- shared internals ----

    /// Eq. 3: adopt a higher observed term and fall back to follower.
    fn observe_higher_term(&mut self, term: Term, now: Time, out: &mut Vec<Action>) {
        debug_assert!(term > self.current_term);
        self.current_term = term;
        self.voted_for = None;
        self.persist_hard_state();
        if self.role != Role::Follower {
            self.step_down(now, out);
        }
    }

    /// Leader/candidate → follower transition.
    fn step_down(&mut self, now: Time, out: &mut Vec<Action>) {
        let was = self.role;
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes_granted.clear();
        self.propose_times.clear();
        // Queued reads were accepted under a leadership that just ended:
        // redirect them, never answer them.
        self.fail_pending_reads(out);
        self.reset_read_state();
        self.policy.stepped_down();
        self.metrics.step_downs += 1;
        if was == Role::Leader {
            // Silence the heartbeat timer.
            self.heartbeat_epoch += 1;
        }
        // Silence any campaign retransmission.
        self.vote_retry_epoch += 1;
        self.arm_election_timer(now, out);
        self.emit(
            now,
            Event::SteppedDown {
                term: self.current_term.get(),
            },
        );
        out.push(Action::BecameFollower {
            term: self.current_term,
        });
    }

    /// Arms (re-arms) the election timer with a fresh policy-drawn period.
    fn arm_election_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        let period = self.policy.election_timeout();
        self.set_election_deadline(now + period, out);
    }

    /// Re-arms the election timer for `deadline`.
    fn set_election_deadline(&mut self, deadline: Time, out: &mut Vec<Action>) {
        self.election_epoch += 1;
        self.election_deadline = deadline;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::Election,
                epoch: self.election_epoch,
            },
            deadline,
        });
    }

    /// Arms the fence-lapse timer for `deadline`.
    fn arm_fence_lapse_timer(&mut self, deadline: Time, out: &mut Vec<Action>) {
        self.fence_lapse_epoch += 1;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::FenceLapse,
                epoch: self.fence_lapse_epoch,
            },
            deadline,
        });
    }

    /// Arms the vote-retransmission timer, if enabled.
    fn arm_vote_retry_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        let Some(interval) = self.options.vote_retry_interval else {
            return;
        };
        self.vote_retry_epoch += 1;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::VoteRetry,
                epoch: self.vote_retry_epoch,
            },
            deadline: now + interval,
        });
    }

    /// Arms the heartbeat timer.
    fn arm_heartbeat_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        self.heartbeat_epoch += 1;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::Heartbeat,
                epoch: self.heartbeat_epoch,
            },
            deadline: now + self.options.heartbeat_interval,
        });
    }

    fn next_broadcast_id(&mut self) -> u64 {
        self.broadcast_seq += 1;
        self.broadcast_seq
    }

    // ---- durability ----
    //
    // Each helper records one already-applied mutation in the storage sink
    // and marks it dirty; `sync_storage` runs before any public entry
    // point returns its actions, so no promise the runtime transmits can
    // outrun the WAL. (A leader's own tail appends promise nothing and
    // take the deferred barrier instead.) Storage failures are fatal: a
    // node that cannot persist its vote must stop rather than risk
    // double-voting later.

    /// Records the current term and vote.
    pub(super) fn persist_hard_state(&mut self) {
        self.storage
            .persist_hard_state(self.current_term, self.voted_for)
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to persist term/vote");
        self.storage_dirty = true;
    }

    /// Records the entry just appended at the log tail.
    pub(super) fn persist_last_entry(&mut self) {
        let entry = self
            .log
            .entry(self.log.last_index())
            // lint:allow(panic): caller appended this entry in the same action
            .expect("tail entry just appended")
            .clone();
        self.storage
            .persist_entry(&entry)
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to persist log entry");
        self.storage_dirty = true;
    }

    /// Records the last `count` entries a leader appended at its log tail
    /// as one storage batch — the group-commit write path. These are the
    /// only records that may ride a deferred barrier, so they do not mark
    /// the storage dirty: the caller follows up with
    /// [`Node::defer_tail_barrier`].
    pub(super) fn persist_tail_entries(&mut self, count: usize) {
        let last = self.log.last_index();
        let from = LogIndex::new(last.get() - count as u64);
        let entries = self.log.entries_from(from, count);
        self.storage
            .persist_entries(&entries)
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to persist log entries");
    }

    /// Requests the barrier for leader tail appends without waiting for
    /// it. A storage that cannot defer has synced by the time this
    /// returns, and the leader is durable through its tail as before.
    /// Should the step have persisted a promise record as well, nothing is
    /// deferred: the storage stays dirty and the blocking pre-return
    /// [`Node::sync_storage`] covers the tail appends too.
    fn defer_tail_barrier(&mut self, now: Time) {
        if self.storage_dirty {
            return;
        }
        let barrier = self
            .storage
            .sync_deferred()
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to sync");
        match barrier {
            Barrier::Durable => self.note_durable_through_tail(now),
            Barrier::Pending(ticket) => {
                self.pending_barriers
                    .push_back((ticket, self.log.last_index()));
            }
        }
    }

    /// A barrier that covers every record persisted so far has completed:
    /// the whole log is durable and no earlier ticket has news left.
    fn note_durable_through_tail(&mut self, now: Time) {
        self.durable_index = self.log.last_index();
        self.pending_barriers.clear();
        self.emit(now, Event::WalSyncBarrier);
    }

    /// Records an accepted follower-side `AppendEntries` mutation.
    pub(super) fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[crate::log::Entry],
    ) {
        self.storage
            .persist_appended(prev_index, prev_term, entries)
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to persist appended entries");
        self.storage_dirty = true;
    }

    /// Records the policy's current configuration (ESCAPE's durable
    /// `confClock` fence, §IV-B).
    pub(super) fn persist_current_config(&mut self) {
        if let Some(config) = self.policy.current_config() {
            self.storage
                .persist_config(config)
                // lint:allow(panic): fail-stop by design — see the module note above
                .expect("storage failed to persist configuration");
            self.storage_dirty = true;
        }
    }

    /// Records a snapshot that just landed (local compaction or an
    /// installed one), handing storage the retained log tail so WAL
    /// truncation cannot orphan entries above the snapshot point.
    pub(super) fn persist_snapshot(&mut self, index: LogIndex, term: Term, data: &Bytes) {
        let tail = self.log.entries_from(index, usize::MAX);
        self.storage
            .persist_snapshot(index, term, data, &tail)
            // lint:allow(panic): fail-stop by design — see the module note above
            .expect("storage failed to persist snapshot");
        self.storage_dirty = true;
    }

    /// Flushes buffered storage records; called before every public entry
    /// point returns, so returned actions imply durable state. Each actual
    /// flush is one WAL sync barrier on the event stream: everything
    /// recorded earlier — deferred barriers included — is durable past it.
    fn sync_storage(&mut self, now: Time) {
        if self.storage_dirty {
            // lint:allow(panic): fail-stop by design — see the module note above
            self.storage.sync().expect("storage failed to sync");
            self.storage_dirty = false;
            self.note_durable_through_tail(now);
        }
    }

    /// Records `event` on the attached observer. The `enabled` guard is
    /// the whole hot-path cost of an unobserved node (`bench_check`'s
    /// `obs_overhead` suite holds it under 2%).
    pub(super) fn emit(&self, now: Time, event: Event) {
        if self.observer.enabled() {
            self.observer.record(now.as_micros(), event);
        }
    }

    /// Test-only backdoor for constructing divergent logs.
    #[cfg(test)]
    pub(crate) fn log_mut_for_tests(&mut self) -> &mut Log {
        &mut self.log
    }

    /// Queues a send and records it in the metrics.
    fn send(&mut self, to: ServerId, msg: Message, broadcast: Option<u64>, out: &mut Vec<Action>) {
        self.metrics.record_send(msg.kind());
        out.push(Action::Send { to, msg, broadcast });
    }
}
