//! The simulated cluster: N consensus engines wired into the
//! discrete-event network.
//!
//! [`SimCluster`] owns the nodes and the [`Sim`], pumps events between them,
//! and observes them through one [`EventLog`] ring per node: the engines
//! record into it, the harness adds kill/restart markers, and the election
//! measurement and failover timeline read it. Experiments are plain loops
//! over this API — see [`crate::experiments`].

use std::io;
use std::sync::Arc;

use bytes::Bytes;

use escape_core::config::EscapeParams;
use escape_core::engine::{Action, Node, Options, ProposeError};
use escape_core::message::Message;
use escape_core::policy::{ElectionPolicy, EscapePolicy, RaftPolicy, ZRaftPolicy};
use escape_core::storage::{RecoveredState, Storage};
use escape_core::time::{Duration, Time};
use escape_core::types::{LogIndex, Role, ServerId, Term};
use escape_obs::{
    reconstruct, Event, EventLog, FailoverTimeline, NodeEvents, Observer, RingObserver, TimedEvent,
    TimelineError,
};
use escape_simnet::latency::LatencyModel;
use escape_simnet::loss::LossModel;
use escape_simnet::sim::{Ready, Sim};
use escape_simnet::skew::ClockSkew;

use crate::adapter::{
    decode_barrier, decode_peer_closed, decode_timer, encode_barrier, encode_peer_closed,
    encode_timer, timer_slot,
};
use crate::invariants::SafetyChecker;

/// Durable-storage hookup for fault campaigns.
///
/// When a cluster is built with [`SimCluster::with_storage`], every node
/// runs against a real (typically fault-injecting) [`Storage`] supplied by
/// this harness instead of the engine's in-memory default, and restarts
/// rebuild the node *from disk* — exercising the actual WAL recovery path
/// rather than pretending in-memory state survived.
pub trait StorageHarness: std::fmt::Debug {
    /// Opens (or reopens after a crash) node `id`'s storage. Called once
    /// per node at construction and again on every [`SimCluster::restart`];
    /// `observer` is the node's event ring (recovery reports torn-tail
    /// truncations through it) and `at_micros` the virtual instant to
    /// stamp those reports with.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening the backing directory.
    fn open(
        &mut self,
        id: ServerId,
        observer: Arc<dyn Observer>,
        at_micros: u64,
    ) -> io::Result<(Box<dyn Storage>, RecoveredState)>;

    /// Called at the instant `id` is killed, before any restart — the
    /// place to inflict crash artifacts (e.g. tearing the WAL tail).
    fn on_crash(&mut self, id: ServerId);

    /// Polled after every engine call: `true` means `id`'s storage can no
    /// longer persist (disk full) and the node must fail-stop — its
    /// un-persisted actions are discarded and the node is crashed.
    fn fail_stop(&self, id: ServerId) -> bool;

    /// Advances the harness's virtual clock so injected-fault events carry
    /// the simulation's timestamps.
    fn tick(&mut self, at_micros: u64);

    /// The deferred barriers `id`'s storage has issued since the last
    /// call ([`Storage::sync_deferred`] returning a ticket), each with
    /// how long its flush takes to reach the disk. The cluster schedules
    /// [`StorageHarness::complete_deferred`] that far ahead on the node's
    /// own timer queue, so a crash in between cancels it and the records
    /// behind the barrier die un-synced. The default storage never
    /// defers.
    fn take_deferred(&mut self, _id: ServerId) -> Vec<(u64, Duration)> {
        Vec::new()
    }

    /// The flush behind `ticket` reaches the disk now; the cluster then
    /// reports the ticket to the engine.
    fn complete_deferred(&mut self, _id: ServerId, _ticket: u64) {}
}

/// Constructs one node's election policy. `(id, cluster_size, seed)` →
/// policy.
pub type PolicyFactory =
    Arc<dyn Fn(ServerId, usize, u64) -> Box<dyn ElectionPolicy> + Send + Sync>;

/// Which election protocol a cluster runs.
#[derive(Clone)]
pub enum Protocol {
    /// Stock Raft with timeouts drawn uniformly from `[min, max)`.
    Raft {
        /// Minimum election timeout.
        timeout_min: Duration,
        /// Maximum election timeout (exclusive).
        timeout_max: Duration,
    },
    /// Z-Raft: static server-id priorities (SCA without PPF).
    ZRaft {
        /// Eq. 1 `baseTime`.
        base_time: Duration,
        /// Eq. 1 `k`.
        spacing: Duration,
    },
    /// ESCAPE: SCA + PPF with the given Eq. 1 parameters.
    Escape {
        /// Eq. 1 `baseTime`.
        base_time: Duration,
        /// Eq. 1 `k`.
        spacing: Duration,
    },
    /// Arbitrary per-node policies (scripted scenarios).
    Custom(PolicyFactory),
}

impl std::fmt::Debug for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Protocol::Raft {
                timeout_min,
                timeout_max,
            } => f
                .debug_struct("Raft")
                .field("timeout_min", timeout_min)
                .field("timeout_max", timeout_max)
                .finish(),
            Protocol::ZRaft { base_time, spacing } => f
                .debug_struct("ZRaft")
                .field("base_time", base_time)
                .field("spacing", spacing)
                .finish(),
            Protocol::Escape { base_time, spacing } => f
                .debug_struct("Escape")
                .field("base_time", base_time)
                .field("spacing", spacing)
                .finish(),
            Protocol::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl Protocol {
    /// Stock Raft with the paper's recommended 1500–3000 ms range (§VI-B).
    pub fn raft_paper_default() -> Self {
        Protocol::Raft {
            timeout_min: Duration::from_millis(1500),
            timeout_max: Duration::from_millis(3000),
        }
    }

    /// ESCAPE with the paper's `baseTime = 1500 ms`, `k = 500 ms` (§VI-B).
    pub fn escape_paper_default() -> Self {
        Protocol::Escape {
            base_time: Duration::from_millis(1500),
            spacing: Duration::from_millis(500),
        }
    }

    /// Z-Raft with the same Eq. 1 parameters as
    /// [`Protocol::escape_paper_default`].
    pub fn zraft_paper_default() -> Self {
        Protocol::ZRaft {
            base_time: Duration::from_millis(1500),
            spacing: Duration::from_millis(500),
        }
    }

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Raft { .. } => "raft",
            Protocol::ZRaft { .. } => "zraft",
            Protocol::Escape { .. } => "escape",
            Protocol::Custom(_) => "custom",
        }
    }

    fn build_policy(&self, id: ServerId, n: usize, seed: u64) -> Box<dyn ElectionPolicy> {
        match self {
            Protocol::Raft {
                timeout_min,
                timeout_max,
            } => Box::new(RaftPolicy::randomized(*timeout_min, *timeout_max, seed)),
            Protocol::ZRaft { base_time, spacing } => {
                let params = EscapeParams::builder(n)
                    .base_time(*base_time)
                    .spacing(*spacing)
                    .build();
                Box::new(ZRaftPolicy::new(id, params))
            }
            Protocol::Escape { base_time, spacing } => {
                let params = EscapeParams::builder(n)
                    .base_time(*base_time)
                    .spacing(*spacing)
                    .build();
                Box::new(EscapePolicy::new(id, params))
            }
            Protocol::Custom(factory) => factory(id, n, seed),
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of servers.
    pub n: usize,
    /// Election protocol under test.
    pub protocol: Protocol,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Loss model.
    pub loss: LossModel,
    /// Master seed; every node and the network derive their streams from
    /// it.
    pub seed: u64,
    /// Engine options (heartbeat interval etc.).
    pub options: Options,
    /// Run the safety checker after every event (slows large sims; tests
    /// enable it).
    pub check_safety: bool,
}

impl ClusterConfig {
    /// A cluster with the paper's network (uniform 100–200 ms latency, no
    /// loss) and the given protocol.
    pub fn paper_network(n: usize, protocol: Protocol, seed: u64) -> Self {
        ClusterConfig {
            n,
            protocol,
            latency: LatencyModel::paper_default(),
            loss: LossModel::None,
            seed,
            options: Options::default(),
            check_safety: false,
        }
    }
}

/// How a read submitted through [`SimCluster::read`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadAnswer {
    /// The leader that took the read.
    pub node: ServerId,
    /// Its batch id ([`Node::read_batch`]).
    pub batch: u64,
    /// One result per query, or why the leader could not answer.
    pub outcome: Result<Vec<Bytes>, ProposeError>,
}

/// N consensus nodes + the simulated network + one event ring per node.
#[derive(Debug)]
pub struct SimCluster {
    sim: Sim<Message>,
    nodes: Vec<Node>,
    alive: Vec<bool>,
    /// Per-node typed event rings (index = `ServerId::index()`): the
    /// engines record into these through their observers, and the
    /// harness stamps kill/restart markers so a failover timeline can be
    /// reconstructed from the streams alone.
    logs: Vec<Arc<EventLog>>,
    /// The last `Action::BecameLeader` absorbed, as `(node, term)`.
    last_elected: Option<(ServerId, Term)>,
    checker: SafetyChecker,
    check_safety: bool,
    config: ClusterConfig,
    /// Per-node clock skew: engines see `skew.perceived(id, sim.now())`
    /// instead of the global clock, and their timer deadlines are mapped
    /// back through [`ClockSkew::to_global`].
    skew: ClockSkew,
    /// Durable storage, when the cluster runs a fault campaign.
    storage: Option<Box<dyn StorageHarness>>,
    /// Every answer to a [`SimCluster::read`], in answer order.
    read_answers: Vec<ReadAnswer>,
}

impl SimCluster {
    /// Builds and boots a cluster: every node starts as a follower with its
    /// election timer armed.
    ///
    /// # Panics
    ///
    /// Panics if `config.n` is zero.
    pub fn new(config: ClusterConfig) -> Self {
        Self::build(config, None).expect("in-memory cluster construction is infallible")
    }

    /// Builds and boots a cluster whose nodes persist through `harness`:
    /// every node recovers from whatever the harness's backing directories
    /// hold (usually empty at trial start), and restarts rebuild nodes from
    /// disk through the real WAL recovery path.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening a node's storage.
    ///
    /// # Panics
    ///
    /// Panics if `config.n` is zero.
    pub fn with_storage(
        config: ClusterConfig,
        harness: Box<dyn StorageHarness>,
    ) -> io::Result<Self> {
        Self::build(config, Some(harness))
    }

    fn build(config: ClusterConfig, mut storage: Option<Box<dyn StorageHarness>>) -> io::Result<Self> {
        assert!(config.n > 0, "cluster needs at least one server");
        let ids: Vec<ServerId> = (1..=config.n as u32).map(ServerId::new).collect();
        let sim = Sim::new(config.seed, config.latency.clone(), config.loss);
        let logs: Vec<Arc<EventLog>> = ids
            .iter()
            .map(|_| Arc::new(EventLog::default()))
            .collect();
        let nodes: Vec<Node> = ids
            .iter()
            .map(|&id| Self::build_node(&config, &logs[id.index()], storage.as_mut(), id, 0))
            .collect::<io::Result<Vec<Node>>>()?;
        let mut cluster = SimCluster {
            sim,
            nodes,
            alive: vec![true; config.n],
            logs,
            last_elected: None,
            checker: SafetyChecker::new(config.n),
            check_safety: config.check_safety,
            config,
            skew: ClockSkew::none(),
            storage,
            read_answers: Vec::new(),
        };
        for i in 0..cluster.nodes.len() {
            let actions = cluster.nodes[i].start(Time::ZERO);
            cluster.finish(ServerId::from_index(i), actions);
        }
        Ok(cluster)
    }

    /// Builds node `id` afresh: a policy seeded stably in (master seed,
    /// id), the configured options, an observer on the node's ring `log`
    /// and, with a storage harness, the state it recovers from disk,
    /// opened at the virtual instant `at_micros`.
    fn build_node(
        config: &ClusterConfig,
        log: &Arc<EventLog>,
        storage: Option<&mut Box<dyn StorageHarness>>,
        id: ServerId,
        at_micros: u64,
    ) -> io::Result<Node> {
        let node_seed = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.get() as u64);
        let ids: Vec<ServerId> = (1..=config.n as u32).map(ServerId::new).collect();
        let observer: Arc<dyn Observer> = Arc::new(RingObserver::new(Arc::clone(log)));
        let mut builder = Node::builder(id, ids)
            .policy(config.protocol.build_policy(id, config.n, node_seed))
            .options(config.options)
            .observer(Arc::clone(&observer));
        if let Some(harness) = storage {
            let (store, state) = harness.open(id, observer, at_micros)?;
            builder = builder.storage(store).recover(state);
        }
        Ok(builder.build())
    }

    // ---- inspection ----

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Virtual now.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The node for `id`.
    pub fn node(&self, id: ServerId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access (scenario scripting).
    pub fn node_mut(&mut self, id: ServerId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// All server ids.
    pub fn ids(&self) -> Vec<ServerId> {
        (1..=self.config.n as u32).map(ServerId::new).collect()
    }

    /// `true` if `id` is currently alive.
    pub fn is_alive(&self, id: ServerId) -> bool {
        self.alive[id.index()]
    }

    /// The live leader in the highest term, if any.
    pub fn current_leader(&self) -> Option<ServerId> {
        self.nodes
            .iter()
            .filter(|n| self.alive[n.id().index()] && n.role() == Role::Leader)
            .max_by_key(|n| n.current_term())
            .map(|n| n.id())
    }

    /// The last leadership the cluster absorbed, as `(node, term)`.
    pub(crate) fn last_elected(&self) -> Option<(ServerId, Term)> {
        self.last_elected
    }

    /// A snapshot of `id`'s typed event ring (engine emissions plus the
    /// harness's kill/restart markers), in recording order.
    pub fn node_events(&self, id: ServerId) -> Vec<TimedEvent> {
        self.logs[id.index()].snapshot()
    }

    /// Every node's typed event stream, in the shape
    /// [`reconstruct`] consumes.
    pub fn event_streams(&self) -> Vec<NodeEvents> {
        self.ids()
            .into_iter()
            .map(|id| NodeEvents {
                node: id.get(),
                events: self.logs[id.index()].snapshot(),
            })
            .collect()
    }

    /// Reconstructs the failover that began with the most recent crash of
    /// `killed`: merges every node's typed event stream from the last
    /// `NodeKilled` marker in `killed`'s own ring and decomposes it into
    /// `leader_killed → detected → campaign_started → leader_elected →
    /// first_commit`.
    ///
    /// Keying on the victim, not on the most recent crash of anyone, keeps
    /// the anchor when faults crash *other* nodes around the measured kill
    /// (a disk-full victim fail-stopping after the leader kill).
    ///
    /// # Errors
    ///
    /// [`TimelineError`] when `killed` never crashed or a phase marker is
    /// missing (horizon too short, or the property under test failed).
    pub fn failover_timeline_for(
        &self,
        killed: ServerId,
    ) -> Result<FailoverTimeline, TimelineError> {
        let killed_at = self.logs[killed.index()]
            .snapshot()
            .iter()
            .rev()
            .find_map(|timed| (timed.event == Event::NodeKilled).then_some(timed.at_micros))
            .ok_or(TimelineError::NoDetection)?;
        reconstruct(killed_at, &self.event_streams())
    }

    /// Network statistics.
    pub fn net_stats(&self) -> escape_simnet::sim::NetStats {
        self.sim.stats()
    }

    /// The underlying simulator (loss/partition/latency control).
    pub fn sim_mut(&mut self) -> &mut Sim<Message> {
        &mut self.sim
    }

    /// The safety checker's verdict so far.
    pub fn safety(&self) -> &SafetyChecker {
        &self.checker
    }

    /// Installs per-node clock skew. Set it before running the cluster:
    /// timers already queued keep the global-time deadlines they were
    /// armed with.
    pub fn set_clock_skew(&mut self, skew: ClockSkew) {
        self.skew = skew;
    }

    /// The storage harness, when the cluster was built with one.
    pub fn storage_harness_mut(&mut self) -> Option<&mut Box<dyn StorageHarness>> {
        self.storage.as_mut()
    }

    /// What `id`'s (possibly skewed) clock reads at the global instant
    /// `sim.now()` — the time every engine call on `id` receives.
    pub fn node_now(&self, id: ServerId) -> Time {
        self.skew.perceived(id, self.sim.now())
    }

    // ---- fault injection ----

    /// Crashes `id`.
    pub fn crash(&mut self, id: ServerId) {
        if std::mem::replace(&mut self.alive[id.index()], false) {
            self.sim.crash(id);
            let at = self.sim.now();
            // The kill marker goes into the victim's own stream: the
            // harness knows the instant, the node (being dead) does not.
            self.logs[id.index()].push(at.as_micros(), Event::NodeKilled);
            // Crash artifacts (torn WAL tails etc.) are inflicted now, so
            // the eventual restart recovers from damaged media.
            if let Some(harness) = self.storage.as_mut() {
                harness.on_crash(id);
            }
        }
    }

    /// `id`'s process exits: [`SimCluster::crash`], plus what a TCP peer
    /// sees of an exit and not of a lost machine — each live peer learns,
    /// one sampled link latency later, that `id` closed its connection
    /// ([`Node::peer_closed`]). [`SimCluster::crash`] itself stays silent:
    /// the paper's failure model is the lost machine.
    pub fn exit(&mut self, id: ServerId) {
        if !self.alive[id.index()] {
            return;
        }
        self.crash(id);
        for peer in self.ids() {
            if self.alive[peer.index()] {
                self.sim.signal(id, peer, encode_peer_closed(id));
            }
        }
    }

    /// Restarts `id`: volatile state resets, persistent state survives.
    ///
    /// Without a storage harness the node's in-memory persistent state is
    /// carried over (modelling perfect durability). With one, the node is
    /// rebuilt from disk through the harness: reopen → WAL recovery →
    /// [`NodeBuilder::recover`](escape_core::engine::NodeBuilder::recover),
    /// so crash artifacts inflicted at kill time are actually exercised.
    ///
    /// # Panics
    ///
    /// Panics if the storage harness fails to reopen the node's backing
    /// directory — a broken trial, not a survivable fault.
    pub fn restart(&mut self, id: ServerId) {
        if !std::mem::replace(&mut self.alive[id.index()], true) {
            self.sim.restart(id);
            let now = self.sim.now();
            self.logs[id.index()].push(now.as_micros(), Event::NodeRestarted);
            let local = self.node_now(id);
            let actions = if self.storage.is_some() {
                self.nodes[id.index()] = Self::build_node(
                    &self.config,
                    &self.logs[id.index()],
                    self.storage.as_mut(),
                    id,
                    now.as_micros(),
                )
                .expect("storage harness must reopen a crashed node's directory");
                self.nodes[id.index()].start(local)
            } else {
                self.nodes[id.index()].restart(local)
            };
            self.finish(id, actions);
        }
    }

    /// Crashes the current leader and returns it.
    ///
    /// # Panics
    ///
    /// Panics if no live leader exists.
    pub fn crash_leader(&mut self) -> ServerId {
        let leader = self.current_leader().expect("no live leader to crash");
        self.crash(leader);
        leader
    }

    // ---- workload ----

    /// Proposes `command` through the current leader.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError::NotLeader`] if no live leader exists.
    pub fn propose(&mut self, command: Bytes) -> Result<LogIndex, ProposeError> {
        let leader = self
            .current_leader()
            .ok_or(ProposeError::NotLeader { hint: None })?;
        self.tick_storage();
        let now = self.node_now(leader);
        let (index, actions) = self.nodes[leader.index()].propose(command, now)?;
        self.finish(leader, actions);
        Ok(index)
    }

    /// Submits a linearizable read of `queries` to the current leader
    /// ([`Node::read_batch`]) and returns the leader and the batch id. The
    /// answer is recorded when the leader releases or fails the batch —
    /// at once while its lease holds — in [`SimCluster::read_answers`].
    /// A read is also read demand: the leader's rounds are leased, and
    /// its followers fenced, for one lease from it.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError::NotLeader`] if no live leader exists.
    pub fn read(&mut self, queries: Vec<Bytes>) -> Result<(ServerId, u64), ProposeError> {
        let leader = self
            .current_leader()
            .ok_or(ProposeError::NotLeader { hint: None })?;
        self.tick_storage();
        let now = self.node_now(leader);
        let (batch, actions) = self.nodes[leader.index()].read_batch(queries, now)?;
        self.finish(leader, actions);
        Ok((leader, batch))
    }

    /// The answers to [`SimCluster::read`]s so far, in answer order.
    pub fn read_answers(&self) -> &[ReadAnswer] {
        &self.read_answers
    }

    // ---- the pump ----

    /// Processes events until virtual time reaches `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(ready) = self.sim.step_before(deadline) {
            self.dispatch(ready);
        }
    }

    /// Runs for `span` more virtual time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Processes events until some live node reports leadership in a term
    /// `> after_term`, or `deadline` passes. Returns the winner.
    pub fn run_until_new_leader(&mut self, after_term: Term, deadline: Time) -> Option<ServerId> {
        let elected = |cluster: &Self| match cluster.last_elected {
            Some((node, term)) if term > after_term => Some(node),
            _ => None,
        };
        if let Some(node) = elected(self) {
            return Some(node);
        }
        while let Some(ready) = self.sim.step_before(deadline) {
            self.dispatch(ready);
            if let Some(node) = elected(self) {
                return Some(node);
            }
        }
        None
    }

    /// Bootstraps until an initial leader exists and its heartbeats have
    /// circulated for `settle` (letting PPF distribute configurations).
    /// Returns the leader.
    ///
    /// # Panics
    ///
    /// Panics if no leader emerges within a generous horizon (5 minutes of
    /// virtual time) — that would be a liveness bug.
    pub fn bootstrap(&mut self, settle: Duration) -> ServerId {
        let horizon = self.now() + Duration::from_secs(300);
        let leader = self
            .run_until_new_leader(Term::ZERO, horizon)
            .expect("bootstrap: no leader within 5 virtual minutes");
        let settle_deadline = self.now() + settle;
        self.run_until(settle_deadline);
        // The leader may have changed while settling (rare, e.g. under
        // heavy loss); report the live one.
        self.current_leader().unwrap_or(leader)
    }

    fn dispatch(&mut self, ready: Ready<Message>) {
        self.tick_storage();
        match ready {
            Ready::Message { from, to, msg } => {
                if !self.alive[to.index()] {
                    return;
                }
                let now = self.node_now(to);
                let actions = self.nodes[to.index()].handle_message(from, msg, now);
                self.finish(to, actions);
            }
            Ready::Timer { node, token } => {
                if !self.alive[node.index()] {
                    return;
                }
                let now = self.node_now(node);
                let actions = if let Some(ticket) = decode_barrier(token) {
                    if let Some(harness) = self.storage.as_mut() {
                        harness.complete_deferred(node, ticket);
                    }
                    self.nodes[node.index()].barrier_done(ticket, now)
                } else if let Some(peer) = decode_peer_closed(token) {
                    self.nodes[node.index()].peer_closed(peer, now)
                } else {
                    self.nodes[node.index()].handle_timer(decode_timer(token), now)
                };
                self.finish(node, actions);
            }
        }
    }

    /// Stamps the storage harness with the current virtual instant so any
    /// fault it injects during the next engine call carries sim time.
    fn tick_storage(&mut self) {
        if let Some(harness) = self.storage.as_mut() {
            harness.tick(self.sim.now().as_micros());
        }
    }

    /// Absorbs `actions` — unless the node's storage demands a fail-stop
    /// (disk full): a server that cannot persist must halt rather than
    /// send, so its un-persisted actions are discarded and it is crashed
    /// on the spot (write-before-send, preserved under faults).
    fn finish(&mut self, id: ServerId, actions: Vec<Action>) {
        let fail_stop = self
            .storage
            .as_ref()
            .is_some_and(|harness| harness.fail_stop(id));
        if fail_stop {
            self.crash(id);
            return;
        }
        self.absorb(id, actions);
        if let Some(harness) = self.storage.as_mut() {
            for (ticket, flush) in harness.take_deferred(id) {
                let done = self.sim.now() + flush;
                self.sim.set_timer(id, encode_barrier(ticket), done);
            }
        }
    }

    /// Routes a node's actions into the simulator and the safety checker.
    fn absorb(&mut self, id: ServerId, actions: Vec<Action>) {
        let at = self.sim.now();
        // Group broadcast sends so the loss model can omit receivers per
        // fan-out (§VI-D).
        let mut broadcast: Vec<(u64, Vec<(ServerId, Message)>)> = Vec::new();
        for action in actions {
            match action {
                Action::Send {
                    to,
                    msg,
                    broadcast: Some(bid),
                } => match broadcast.iter_mut().find(|(b, _)| *b == bid) {
                    Some((_, fanout)) => fanout.push((to, msg)),
                    None => {
                        let mut fanout = Vec::with_capacity(self.config.n - 1);
                        fanout.push((to, msg));
                        broadcast.push((bid, fanout));
                    }
                },
                Action::Send {
                    to,
                    msg,
                    broadcast: None,
                } => self.sim.send(id, to, msg),
                Action::SetTimer { token, deadline } => {
                    // The engine computed `deadline` on its own (possibly
                    // skewed) clock; the simulator fires on the global one.
                    let deadline = if self.skew.is_none() {
                        deadline
                    } else {
                        self.skew.to_global(id, deadline).max(at)
                    };
                    // One slot per kind: the new deadline supersedes the
                    // kind's last one, which then never fires.
                    self.sim
                        .arm(id, timer_slot(token.kind), encode_timer(token), deadline)
                }
                Action::BecameLeader { term } => {
                    self.last_elected = Some((id, term));
                    self.checker.observe_leader(id, term);
                }
                Action::Committed { index } => {
                    self.checker
                        .observe_commit(&self.nodes[id.index()], index);
                }
                Action::ReadReady { batch, results } => self.read_answers.push(ReadAnswer {
                    node: id,
                    batch,
                    outcome: Ok(results),
                }),
                Action::ReadFailed { batch, error } => self.read_answers.push(ReadAnswer {
                    node: id,
                    batch,
                    outcome: Err(error),
                }),
                Action::BecameFollower { .. } | Action::Applied { .. } => {}
            }
        }
        for (_, fanout) in broadcast {
            self.sim.send_broadcast(id, fanout);
        }
        if self.check_safety {
            self.checker.check_cluster(&self.nodes, &self.alive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_obs::PhaseBounds;

    /// A reflex-scale cluster: LAN latencies and Eq. 1 parameters small
    /// enough that every failover phase must fit the paper's 200 ms
    /// reflex bound (the paper-default WAN profile measures seconds).
    fn reflex_config(seed: u64) -> ClusterConfig {
        ClusterConfig {
            n: 5,
            protocol: Protocol::Escape {
                base_time: Duration::from_millis(150),
                spacing: Duration::from_millis(50),
            },
            latency: LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(5),
            },
            loss: LossModel::None,
            seed,
            options: escape_core::engine::Options {
                heartbeat_interval: Duration::from_millis(50),
                ..escape_core::engine::Options::default()
            },
            // Election/commit safety is still asserted (those observers
            // are unconditional); the per-event structural sweep is off
            // because it flags the transient configuration duplicates
            // that rearrangement-in-flight legitimately produces.
            check_safety: false,
        }
    }

    /// `SimCluster::read` on a leased cluster: the first read pays one
    /// confirm round and restarts the lease, the next is answered at
    /// once, and a leaderless cluster refuses.
    #[test]
    fn reads_are_answered_by_the_leader_and_recorded() {
        let config = ClusterConfig {
            options: escape_core::engine::Options::local(),
            ..reflex_config(7)
        };
        let mut cluster = SimCluster::new(config);
        let leader = cluster.bootstrap(Duration::from_millis(500));
        let query = || vec![Bytes::from_static(b"q")];

        let (node, first) = cluster.read(query()).expect("a leader");
        assert_eq!(node, leader);
        assert!(cluster.read_answers().is_empty(), "no lease held yet");
        cluster.run_for(Duration::from_millis(20));
        let (_, second) = cluster.read(query()).expect("a leader");
        let answered: Vec<(u64, usize)> = cluster
            .read_answers()
            .iter()
            .map(|a| (a.batch, a.outcome.as_ref().map_or(0, Vec::len)))
            .collect();
        assert_eq!(answered, vec![(first, 1), (second, 1)]);
        let metrics = cluster.node(leader).metrics();
        assert_eq!((metrics.quorum_reads, metrics.lease_reads), (1, 1));

        for id in cluster.ids() {
            cluster.crash(id);
        }
        assert_eq!(
            cluster.read(query()),
            Err(ProposeError::NotLeader { hint: None })
        );
    }

    /// The tentpole's acceptance test: kill the leader, reconstruct the
    /// failover from the per-node typed event streams alone, and check
    /// the paper's properties as numbers — the phases telescope to the
    /// total, exactly one campaign ran, and every phase fits the 200 ms
    /// reflex bound.
    #[test]
    fn killed_leader_timeline_is_one_campaign_within_reflex_bounds() {
        let mut cluster = SimCluster::new(reflex_config(42));
        cluster.bootstrap(Duration::from_millis(500));
        let old_term = cluster
            .node(cluster.current_leader().expect("bootstrapped leader"))
            .current_term();
        let killed = cluster.crash_leader();
        let horizon = cluster.now() + Duration::from_secs(10);
        let winner = cluster
            .run_until_new_leader(old_term, horizon)
            .expect("a successor must be elected");
        // Let the successor's no-op commit (its FirstCommit marker).
        cluster.run_for(Duration::from_millis(500));

        let timeline = cluster
            .failover_timeline_for(killed)
            .expect("reconstructable");
        assert_eq!(timeline.winner, winner.get());
        assert_ne!(timeline.winner, killed.get(), "the corpse cannot win");
        assert_eq!(timeline.campaigns, 1, "ESCAPE's one-campaign property");
        assert_eq!(timeline.distinct_candidates, 1);
        let phase_sum: u64 = timeline.phases().iter().map(|&(_, d)| d).sum();
        assert_eq!(phase_sum, timeline.total_micros(), "phases telescope");
        timeline
            .check_bounds(&PhaseBounds::reflex_200ms())
            .unwrap_or_else(|violations| {
                panic!("reflex bound violated: {violations}\n{}", timeline.render())
            });
        assert!(
            cluster.safety().is_safe(),
            "violations: {:?}",
            cluster.safety().violations()
        );
    }

    /// Regression: the timeline used to key off the most recent crash of
    /// *anyone*, so an unrelated node dying after the measured kill (a
    /// disk-full fail-stop, say) shifted the anchor and garbled every
    /// phase. `failover_timeline_for` pins the anchor to the killed
    /// leader's own kill marker.
    #[test]
    fn timeline_keyed_by_killed_node_survives_a_later_unrelated_crash() {
        let mut cluster = SimCluster::new(reflex_config(77));
        cluster.bootstrap(Duration::from_millis(500));
        let old_term = cluster
            .node(cluster.current_leader().expect("bootstrapped leader"))
            .current_term();
        let killed = cluster.crash_leader();
        let horizon = cluster.now() + Duration::from_secs(10);
        let winner = cluster
            .run_until_new_leader(old_term, horizon)
            .expect("a successor must be elected");
        cluster.run_for(Duration::from_millis(500));

        // A bystander (not the old leader, not the new one) crashes well
        // after the failover completed.
        let bystander = cluster
            .ids()
            .into_iter()
            .find(|id| *id != killed && *id != winner && cluster.is_alive(*id))
            .expect("five nodes leave a bystander");
        cluster.crash(bystander);
        cluster.run_for(Duration::from_millis(200));

        // Keyed on the killed leader, the timeline still reconstructs and
        // still fits the reflex bounds.
        let timeline = cluster
            .failover_timeline_for(killed)
            .expect("keyed reconstruction survives the extra crash");
        assert_eq!(timeline.winner, winner.get());
        assert_eq!(timeline.campaigns, 1);
        timeline
            .check_bounds(&PhaseBounds::reflex_200ms())
            .unwrap_or_else(|violations| {
                panic!("reflex bound violated: {violations}\n{}", timeline.render())
            });
    }

    /// The checker's highest committed index is the highest `Committed`
    /// index the cluster absorbed: without restarts that is the largest
    /// commit index any node holds, across a failover and later writes.
    #[test]
    fn highest_committed_matches_the_highest_absorbed_commit() {
        let mut cluster = SimCluster::new(reflex_config(5));
        cluster.bootstrap(Duration::from_millis(500));
        for i in 0..3 {
            cluster
                .propose(Bytes::from(format!("before-{i}")))
                .expect("a leader accepts");
            cluster.run_for(Duration::from_millis(50));
        }
        let term = cluster
            .node(cluster.current_leader().expect("leader"))
            .current_term();
        cluster.crash_leader();
        let horizon = cluster.now() + Duration::from_secs(10);
        cluster
            .run_until_new_leader(term, horizon)
            .expect("a successor must be elected");
        cluster
            .propose(Bytes::from_static(b"after"))
            .expect("the successor accepts");
        cluster.run_for(Duration::from_millis(500));

        let highest = cluster
            .ids()
            .into_iter()
            .map(|id| cluster.node(id).commit_index())
            .max()
            .expect("five nodes");
        assert!(highest.get() >= 6, "two no-ops and four writes committed");
        assert_eq!(cluster.safety().highest_committed(), highest);
    }

    /// Determinism: the same seed must yield byte-identical event logs —
    /// the property that makes a simnet trace a reproducible bug report.
    #[test]
    fn same_seed_yields_byte_identical_event_logs() {
        let run = |seed: u64| -> String {
            let mut cluster = SimCluster::new(reflex_config(seed));
            cluster.bootstrap(Duration::from_millis(500));
            let term = cluster
                .node(cluster.current_leader().expect("leader"))
                .current_term();
            cluster.crash_leader();
            let horizon = cluster.now() + Duration::from_secs(10);
            cluster.run_until_new_leader(term, horizon);
            cluster.run_for(Duration::from_millis(500));
            cluster
                .ids()
                .into_iter()
                .map(|id| format!("node {}\n{}", id.get(), cluster.logs[id.index()].encode()))
                .collect()
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed must replay identically");
        assert!(!first.is_empty());
        assert_ne!(first, run(8), "different seeds must actually differ");
    }

    /// Determinism under the PR-9 fault models: duplication, reordering,
    /// and per-node clock skew/drift all draw from the seeded streams, so
    /// the same seed must still replay byte-for-byte — and the faults
    /// must actually fire, or this test proves nothing.
    #[test]
    fn same_seed_is_deterministic_with_duplication_reorder_and_skew() {
        use escape_simnet::loss::ChaosModel;
        use escape_simnet::skew::ClockSkew;

        let run = |seed: u64| -> (String, escape_simnet::sim::NetStats) {
            let mut cluster = SimCluster::new(reflex_config(seed));
            cluster.sim_mut().set_chaos(ChaosModel {
                duplicate_p: 0.2,
                reorder_p: 0.3,
                reorder_span: Duration::from_millis(10),
            });
            let mut skew = ClockSkew::none();
            for (i, id) in cluster.ids().into_iter().enumerate() {
                let sign = if i % 2 == 0 { 1 } else { -1 };
                skew.set(id, sign * 2_000 * (i as i64 + 1), sign * 100);
            }
            cluster.set_clock_skew(skew);
            cluster.bootstrap(Duration::from_millis(500));
            let term = cluster
                .node(cluster.current_leader().expect("leader"))
                .current_term();
            cluster.crash_leader();
            let horizon = cluster.now() + Duration::from_secs(10);
            cluster.run_until_new_leader(term, horizon);
            cluster.run_for(Duration::from_millis(500));
            let logs = cluster
                .ids()
                .into_iter()
                .map(|id| format!("node {}\n{}", id.get(), cluster.logs[id.index()].encode()))
                .collect();
            (logs, cluster.net_stats())
        };
        let (first, stats) = run(7);
        assert!(stats.duplicated > 0, "duplication must have fired");
        assert!(stats.reordered > 0, "reordering must have fired");
        let (replay, _) = run(7);
        assert_eq!(first, replay, "chaos + skew must replay identically");
        let (other, _) = run(9);
        assert_ne!(first, other, "different seeds must actually differ");
    }
}
