//! [`ShardedNode`]: one process hosting every consensus group of a
//! sharded deployment — N independent `escape-core` engines multiplexed
//! over a single TCP mesh and persisted under per-group subdirectories.
//! It is the only way a node runs in real time: the classic single-group
//! node is a `ShardedNode` over `ShardMap::uniform(1)`.
//!
//! Each group is a full ESCAPE instance: its own log, its own leader, its
//! own prepared-leader pool, its own election timers. The node supplies
//! the shared plumbing — one listener, one outbound connection per peer
//! (frames carry the [`GroupId`] so receivers demultiplex), one data
//! directory with a `group-<g>/` WAL+snapshot subtree per group — and the
//! [`Router`] that turns client keys into group addresses.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use escape_core::engine::{Node, ProposeError};
use escape_core::statemachine::StateMachine;
use escape_core::types::{GroupId, LogIndex, ServerId};
use escape_transport::clock::monotonic_now;
use escape_transport::runtime::{GroupHandle, NodeInput, NodeStatus, ProposeReply, Reply};
use escape_transport::service::{ClientRouter, ClientService, RouteVerdict};
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::{
    recover_group, start_group, Acceptor, GroupOutbound, GroupRoutes, NodeObs, StorageHook, TcpMesh,
};
use escape_wire::WireShardMap;

use crate::map::ShardMap;
use crate::router::{Redirect, Router};

/// How long client-facing helpers wait for the group thread to answer.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// How long [`ShardedNode::await_applied`] waits for replication.
const APPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a sharded command did not produce a log index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The command was addressed to a group that does not own its key —
    /// including a group that is not in the map at all (the redirect
    /// names the real owner and the map version either way).
    Redirect(Redirect),
    /// A group outside the hosted map was named where no key is
    /// available to redirect by ([`ShardedNode::await_applied`];
    /// `propose_to` reports a [`ShardError::Redirect`] instead).
    UnknownGroup(GroupId),
    /// The owning group's engine on this server is not its leader.
    NotLeader {
        /// Where to retry, if known.
        hint: Option<ServerId>,
    },
    /// The group thread is gone or did not answer in time.
    Unavailable,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Redirect(r) => write!(f, "misrouted: {r}"),
            ShardError::UnknownGroup(g) => write!(f, "group {g} is not in the shard map"),
            ShardError::NotLeader { hint: Some(l) } => {
                write!(f, "not the group leader; try {l}")
            }
            ShardError::NotLeader { hint: None } => write!(f, "not the group leader"),
            ShardError::Unavailable => write!(f, "group unavailable"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ProposeError> for ShardError {
    fn from(e: ProposeError) -> Self {
        match e {
            ProposeError::NotLeader { hint } => ShardError::NotLeader { hint },
        }
    }
}

/// The per-group data subdirectory under a sharded node's data root.
pub fn group_data_dir(root: &Path, group: GroupId) -> PathBuf {
    root.join(format!("group-{:08}", group.get()))
}

/// Optional plumbing for [`ShardedNode::spawn_with`]. `Default` is a
/// plain node — exactly what [`ShardedNode::spawn`] builds.
#[derive(Clone, Default)]
pub struct ShardSpawnOptions {
    /// Wraps each hosted group's freshly opened WAL before its engine
    /// takes ownership (fault injection under the real TCP stack); see
    /// [`StorageHook`].
    pub storage_hook: Option<StorageHook>,
    /// Answer `escape-wire` client connections (hello-framed) on the
    /// same listener the peer mesh uses, routed through this node's
    /// shard map.
    pub serve_clients: bool,
}

impl std::fmt::Debug for ShardSpawnOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSpawnOptions")
            .field(
                "storage_hook",
                &self.storage_hook.as_ref().map(|_| "<hook>"),
            )
            .field("serve_clients", &self.serve_clients)
            .finish()
    }
}

/// The sharded node's [`ClientRouter`]: key ownership comes from the
/// shard map (misroutes answer with a redirect naming the owner and the
/// map version), and owned groups resolve to their [`GroupHandle`].
#[derive(Debug)]
struct ShardClientRouter {
    router: Router,
    groups: Vec<GroupHandle>,
}

impl ClientRouter for ShardClientRouter {
    fn route(&self, group: GroupId, key: &[u8]) -> RouteVerdict<'_> {
        match self.router.check(group, key) {
            Ok(owner) => match self.groups.get(owner.index()) {
                Some(group) => RouteVerdict::Local(group),
                None => RouteVerdict::Unknown,
            },
            Err(redirect) => RouteVerdict::Redirect {
                asked: redirect.asked,
                owner: redirect.owner,
                map_version: redirect.map_version,
            },
        }
    }

    fn map_snapshot(&self) -> WireShardMap {
        WireShardMap {
            version: self.router.map().version(),
            ranges: self.router.map().ranges().to_vec(),
        }
    }
}

/// One server of a sharded cluster: every consensus group's engine, one
/// shared TCP mesh, and the router for client commands.
///
/// Spawn one per server (same shard map everywhere); clients may talk to
/// any server, and misrouted or follower-addressed commands come back as
/// [`ShardError::Redirect`] / [`ShardError::NotLeader`] with enough
/// information to retry at the right place.
#[derive(Debug)]
pub struct ShardedNode {
    id: ServerId,
    router: Router,
    groups: Vec<GroupHandle>,
    mesh: Arc<TcpMesh>,
    acceptor: Acceptor,
    threads: Vec<JoinHandle<()>>,
}

impl ShardedNode {
    /// Boots server `id` hosting every group of `map`, accepting on the
    /// caller-bound `listener` (see
    /// [`loopback_listeners`](escape_transport::tcp::loopback_listeners)
    /// for why listeners are bound outside).
    ///
    /// `state_machine_for` builds each group's state machine. With a
    /// `data_dir`, each group recovers from and persists into its own
    /// `group-<g>/` subdirectory — recovery iterates the map's groups, so
    /// a restarted process rebuilds every shard it hosts.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` lacks `id` or any group's data subdirectory
    /// cannot be opened/recovered (a node that cannot persist must not
    /// serve) — before anything has been started: no thread runs and the
    /// listener has not been answered.
    #[allow(clippy::too_many_arguments)] // a server's identity, cluster, protocol and storage
    pub fn spawn(
        id: ServerId,
        listener: TcpListener,
        addrs: HashMap<ServerId, SocketAddr>,
        spec: ProtocolSpec,
        seed: u64,
        map: ShardMap,
        state_machine_for: impl FnMut(GroupId) -> Box<dyn StateMachine>,
        data_dir: Option<&Path>,
    ) -> Self {
        Self::spawn_with(
            id,
            listener,
            addrs,
            spec,
            seed,
            map,
            state_machine_for,
            data_dir,
            ShardSpawnOptions::default(),
        )
    }

    /// [`ShardedNode::spawn`] plus whatever [`ShardSpawnOptions`] enables
    /// — per-group storage fault injection and/or client serving on the
    /// peer listener.
    ///
    /// # Panics
    ///
    /// Same contract as [`ShardedNode::spawn`].
    #[allow(clippy::too_many_arguments)] // spawn's arguments + the options bundle
    pub fn spawn_with(
        id: ServerId,
        listener: TcpListener,
        addrs: HashMap<ServerId, SocketAddr>,
        spec: ProtocolSpec,
        seed: u64,
        map: ShardMap,
        state_machine_for: impl FnMut(GroupId) -> Box<dyn StateMachine>,
        data_dir: Option<&Path>,
        options: ShardSpawnOptions,
    ) -> Self {
        Self::boot(
            id,
            listener,
            addrs,
            spec,
            seed,
            map,
            state_machine_for,
            data_dir,
            options,
            None,
        )
    }

    /// [`ShardedNode::spawn`] with observability wired through every
    /// layer: each group's engine records typed
    /// [`Event`](escape_obs::Event)s into `obs.observer`, each group's WAL
    /// (when `data_dir` is set) registers fsync-latency and segment-count
    /// instruments under `obs.labels` plus a `group` label, and the mesh
    /// registers per-peer drop/queue/reconnect series under `obs.labels`.
    ///
    /// # Panics
    ///
    /// Same contract as [`ShardedNode::spawn`].
    #[allow(clippy::too_many_arguments)] // spawn's arguments + the obs bundle
    pub fn spawn_observed(
        id: ServerId,
        listener: TcpListener,
        addrs: HashMap<ServerId, SocketAddr>,
        spec: ProtocolSpec,
        seed: u64,
        map: ShardMap,
        state_machine_for: impl FnMut(GroupId) -> Box<dyn StateMachine>,
        data_dir: Option<&Path>,
        obs: NodeObs,
    ) -> Self {
        Self::boot(
            id,
            listener,
            addrs,
            spec,
            seed,
            map,
            state_machine_for,
            data_dir,
            ShardSpawnOptions::default(),
            Some(obs),
        )
    }

    #[allow(clippy::too_many_arguments)] // the union of the three public spawns
    fn boot(
        id: ServerId,
        listener: TcpListener,
        addrs: HashMap<ServerId, SocketAddr>,
        spec: ProtocolSpec,
        seed: u64,
        map: ShardMap,
        mut state_machine_for: impl FnMut(GroupId) -> Box<dyn StateMachine>,
        data_dir: Option<&Path>,
        options: ShardSpawnOptions,
        obs: Option<NodeObs>,
    ) -> Self {
        // lint:allow(panic): documented `# Panics` contract — the map must contain `id`
        let my_addr = *addrs.get(&id).expect("own address present");
        let ids: Vec<ServerId> = {
            let mut v: Vec<ServerId> = addrs.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let n = ids.len();

        // Recover every group before anything runs: a directory that
        // cannot be recovered must leave no acceptor answering and no
        // other group's engine voting behind a handle nobody holds.
        let durable: Vec<_> = map
            .groups()
            .map(|group| {
                data_dir.map(|root| {
                    recover_group(
                        id,
                        group,
                        &group_data_dir(root, group),
                        obs.as_ref(),
                        options.storage_hook.as_ref(),
                    )
                    // lint:allow(panic): fail-stop — a node that cannot recover its WAL must not serve
                    .expect("open/recover group data directory")
                })
            })
            .collect();

        let routes = GroupRoutes::new();
        let mesh = match &obs {
            Some(obs) => TcpMesh::start_observed(id, &addrs, obs.clone()),
            None => TcpMesh::start(id, &addrs),
        };

        // Register every group's inbox *before* the acceptor starts: an
        // envelope for a group not yet in the table is dropped, and what
        // sits in a restarted server's backlog is exactly the traffic its
        // peers queued for it.
        let mut groups = Vec::with_capacity(map.len());
        let mut receivers = Vec::with_capacity(map.len());
        for group in map.groups() {
            let (tx, rx) = crossbeam::channel::unbounded::<NodeInput>();
            routes.register(group, tx.clone());
            groups.push(GroupHandle::new(tx));
            receivers.push((group, rx));
        }
        let service = options.serve_clients.then(|| {
            ClientService::new(Arc::new(ShardClientRouter {
                router: Router::new(map.clone()),
                groups: groups.clone(),
            }))
        });
        let acceptor = Acceptor::spawn(id, my_addr, listener, routes, Arc::clone(&mesh), service);

        let mut threads = Vec::new();
        for (((group, rx), handle), durable) in receivers.into_iter().zip(&groups).zip(durable) {
            let mut builder = Node::builder(id, ids.clone())
                .policy(spec.build_group_policy(id, n, seed.wrapping_add(id.get() as u64), group))
                .state_machine(state_machine_for(group))
                .options(ProtocolSpec::local_options());
            if let Some(obs) = &obs {
                builder = builder.observer(Arc::clone(&obs.observer));
            }
            threads.extend(start_group(
                format!("escape-shard-{}-g{}", id.get(), group.get()),
                builder,
                durable,
                handle,
                rx,
                Arc::new(GroupOutbound::new(Arc::clone(&mesh), group)),
            ));
        }

        ShardedNode {
            id,
            router: Router::new(map),
            groups,
            mesh,
            acceptor,
            threads,
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The router (and through it the shard map) this node serves with.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The shard map this node hosts.
    pub fn map(&self) -> &ShardMap {
        self.router.map()
    }

    /// The group that owns `key`.
    pub fn route(&self, key: &[u8]) -> GroupId {
        self.router.route(key)
    }

    /// A status snapshot of `group`'s engine on this server.
    pub fn status(&self, group: GroupId) -> Option<NodeStatus> {
        let group = self.group(group).ok()?;
        let (reply, rx) = Reply::channel();
        group.inbox().send(NodeInput::Query { reply }).ok()?;
        rx.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// Publishes every hosted group's engine counters and histograms into
    /// `registry`, one label set per group (`node` = this server, `group`
    /// = the group id), plus the shared mesh's process-wide frame-drop
    /// total under the bare `node` label. Per-group series keep their
    /// identity; cross-group rollups come from the registry's
    /// aggregation (e.g.
    /// [`aggregate_histogram`](escape_obs::Registry::aggregate_histogram)).
    ///
    /// Groups whose engine thread does not answer within the reply
    /// timeout are skipped — their previously published values simply go
    /// stale rather than blocking the scrape.
    pub fn publish_metrics(&self, registry: &escape_obs::Registry) {
        let node_labels = escape_obs::Labels::new().with("node", self.id.get());
        for group in self.map().groups() {
            if let Some(status) = self.status(group) {
                let labels = node_labels.clone().with("group", group.get());
                status.metrics.publish(registry, &labels);
            }
        }
        registry
            .counter("escape_transport_mesh_frames_dropped_total", &node_labels)
            .store(self.mesh.frames_dropped());
    }

    /// Proposes `command` (whose routing key is `key`) into `group`,
    /// **validating the route first**: a client that addressed the wrong
    /// group gets [`ShardError::Redirect`] naming the owner instead of a
    /// wrong-shard write. The command goes to the group as a batch of one.
    ///
    /// # Errors
    ///
    /// [`ShardError::Redirect`] on a misroute, [`ShardError::NotLeader`]
    /// when this server does not lead the group,
    /// [`ShardError::Unavailable`] when the group thread is gone.
    pub fn propose_to(
        &self,
        group: GroupId,
        key: &[u8],
        command: Bytes,
    ) -> Result<LogIndex, ShardError> {
        let routed = self.router.check(group, key).map_err(ShardError::Redirect);
        let mut outcomes = propose_routed(&self.groups, vec![(routed, command)], REPLY_TIMEOUT);
        let (_, index) = outcomes.pop().unwrap_or(Err(ShardError::Unavailable))?;
        Ok(index)
    }

    /// Routes `key` and proposes `command` into its owning group on this
    /// server, returning the group alongside the assigned index.
    ///
    /// # Errors
    ///
    /// As [`ShardedNode::propose_to`] (minus the redirect, which cannot
    /// happen when the server routes for you).
    pub fn propose(&self, key: &[u8], command: Bytes) -> Result<(GroupId, LogIndex), ShardError> {
        let group = self.route(key);
        let index = self.propose_to(group, key, command)?;
        Ok((group, index))
    }

    /// Proposes a batch of `(key, command)` pairs, per-shard batched:
    /// every command is routed, and each group gets its share, in input
    /// order, as one input *before* any reply is awaited. Each group's
    /// node loop proposes its share as one engine batch (one WAL flush,
    /// one coalesced fan-out per group) and answers it with one reply, all
    /// awaited under one deadline. Returns one outcome per input, in input
    /// order.
    pub fn propose_batch(
        &self,
        items: Vec<(Bytes, Bytes)>,
    ) -> Vec<Result<(GroupId, LogIndex), ShardError>> {
        let routed = items
            .into_iter()
            .map(|(key, command)| (Ok(self.route(&key)), command))
            .collect();
        propose_routed(&self.groups, routed, REPLY_TIMEOUT)
    }

    /// Linearizable reads, per-shard batched like
    /// [`ShardedNode::propose_batch`]: each group gets its share of the
    /// queries, in input order, as one read ([`GroupHandle::read`]) before
    /// any reply is awaited, so it answers them with one ReadIndex
    /// confirmation round (or zero rounds under a held lease) instead of
    /// one per query. Returns one response per input, in input order.
    pub fn read_batch(&self, items: Vec<(Bytes, Bytes)>) -> Vec<Result<Bytes, ShardError>> {
        let routed = items
            .into_iter()
            .map(|(key, query)| (Ok(self.route(&key)), query));
        per_group(&self.groups, routed, REPLY_TIMEOUT, |handle, queries| {
            let (reply, rx) = Reply::channel();
            handle.read(queries, reply);
            Ok(rx)
        })
        .into_iter()
        .map(|outcome| Ok(outcome?.1))
        .collect()
    }

    /// Routes `key` and reads it through its owning group's linearizable
    /// read path on this server ([`GroupHandle::read`]).
    ///
    /// # Errors
    ///
    /// [`ShardError::NotLeader`] when this server does not lead the
    /// owning group, [`ShardError::Unavailable`] when the group thread is
    /// gone or silent.
    pub fn read(&self, key: &[u8], query: Bytes) -> Result<(GroupId, Bytes), ShardError> {
        let group = self.route(key);
        let (reply, rx) = Reply::channel();
        self.group(group)?.read(vec![query], reply);
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(Ok(mut results)) => Ok((group, results.pop().unwrap_or_default())),
            Ok(Err(e)) => Err(e.into()),
            Err(_) => Err(ShardError::Unavailable),
        }
    }

    /// `group`'s handle on this server.
    fn group(&self, group: GroupId) -> Result<&GroupHandle, ShardError> {
        self.groups
            .get(group.index())
            .ok_or(ShardError::UnknownGroup(group))
    }

    /// Waits for `group` to apply `index`, returning the state machine's
    /// response: [`ShardedNode::await_applied_within`] five seconds.
    ///
    /// # Errors
    ///
    /// As [`ShardedNode::await_applied_within`].
    pub fn await_applied(&self, group: GroupId, index: LogIndex) -> Result<Bytes, ShardError> {
        self.await_applied_within(group, index, APPLY_TIMEOUT)
    }

    /// Waits up to `wait` for `group` to apply `index`, returning the
    /// state machine's response. A short `wait` asks whether it has
    /// applied by now.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownGroup`]; [`ShardError::Unavailable`] when the
    /// index does not apply within `wait`, the group thread is gone, or
    /// this server's engine steps down while the wait is parked — what
    /// then applies at `index` may be another leader's command.
    pub fn await_applied_within(
        &self,
        group: GroupId,
        index: LogIndex,
        wait: Duration,
    ) -> Result<Bytes, ShardError> {
        let (reply, rx) = Reply::channel();
        self.group(group)?
            .inbox()
            .send(NodeInput::AwaitApplied { index, reply })
            .map_err(|_| ShardError::Unavailable)?;
        rx.recv_timeout(wait).map_err(|_| ShardError::Unavailable)
    }

    /// Stops every group and joins all threads, each group's WAL thread
    /// after its node thread, so every data directory is closed on
    /// return. There is deliberately no flush-on-exit: every promise was
    /// durable before the message that made it was sent, and what a
    /// leader's WAL thread still has queued was never counted towards a
    /// commit, so it is dropped. Shutdown and [`ShardedNode::kill`]
    /// therefore leave equivalent per-group data directories. Every peer
    /// connection this incarnation accepted is closed and its reader
    /// joined, so the other servers see EOF and re-dial whatever owns the
    /// listener next.
    pub fn shutdown(self) {
        for group in &self.groups {
            let _ = group.inbox().send(NodeInput::Shutdown);
        }
        self.acceptor.close();
        self.mesh.stop();
        for handle in self.threads {
            let _ = handle.join();
        }
    }

    /// Crash the whole process: every hosted group stops at once with no
    /// goodbye — the multi-shard equivalent of a SIGKILL. Restart on the
    /// same listener and data root to model a process restart; recovery
    /// then iterates the per-group subdirectories.
    pub fn kill(self) {
        self.shutdown();
    }
}

/// Proposes each routed command into its group on this server: one
/// [`NodeInput::Propose`] per group carrying its share in input order,
/// answered once with every index (see [`per_group`]).
fn propose_routed(
    groups: &[GroupHandle],
    items: Vec<(Result<GroupId, ShardError>, Bytes)>,
    wait: Duration,
) -> Vec<Result<(GroupId, LogIndex), ShardError>> {
    per_group(groups, items, wait, |handle, commands| {
        let (reply, rx) = Reply::channel();
        handle
            .inbox()
            .send(NodeInput::Propose {
                commands,
                reply: ProposeReply::Accepted(reply),
            })
            .map_err(|_| ShardError::Unavailable)?;
        Ok(rx)
    })
}

/// Hands each group its share of the routed `items`, in input order,
/// through `submit` — every share before any answer is awaited — then
/// waits for every group's answer under one deadline `wait` and deals
/// the answers back out in input order. An item routed to an error keeps
/// it, a group that failed gives every one of its items the failure, and
/// an item its group left unanswered is [`ShardError::Unavailable`].
fn per_group<T, A>(
    groups: &[GroupHandle],
    items: impl IntoIterator<Item = (Result<GroupId, ShardError>, T)>,
    wait: Duration,
    submit: impl Fn(&GroupHandle, Vec<T>) -> Result<Receiver<Result<Vec<A>, ProposeError>>, ShardError>,
) -> Vec<Result<(GroupId, A), ShardError>> {
    let mut owners = Vec::new();
    let mut shares: BTreeMap<GroupId, Vec<T>> = BTreeMap::new();
    for (owner, item) in items {
        if let Ok(group) = owner {
            shares.entry(group).or_default().push(item);
        }
        owners.push(owner);
    }
    let (sent, slots): (Vec<_>, Vec<_>) = shares
        .into_iter()
        .map(|(group, share)| {
            let slot = groups
                .get(group.index())
                .ok_or(ShardError::UnknownGroup(group))
                .and_then(|handle| submit(handle, share));
            (group, slot)
        })
        .unzip();
    let mut answers: BTreeMap<GroupId, Result<std::vec::IntoIter<A>, ShardError>> = sent
        .into_iter()
        .zip(collect_replies(slots, wait))
        .map(|(group, answer)| (group, answer.and_then(|answer| Ok(answer?.into_iter()))))
        .collect();
    owners
        .into_iter()
        .map(|owner| {
            let group = owner?;
            match answers.get_mut(&group) {
                Some(Ok(answers)) => answers
                    .next()
                    .map(|answer| (group, answer))
                    .ok_or(ShardError::Unavailable),
                Some(Err(e)) => Err(e.clone()),
                None => Err(ShardError::Unavailable),
            }
        })
        .collect()
}

/// Takes each slot's reply in order, all under one deadline `wait` from
/// now: a group thread that is alive but silent holds a batch for `wait`,
/// not `wait` per item. A reply that misses the deadline is
/// [`ShardError::Unavailable`].
fn collect_replies<T>(
    slots: Vec<Result<Receiver<T>, ShardError>>,
    wait: Duration,
) -> Vec<Result<T, ShardError>> {
    let deadline = monotonic_now() + wait;
    slots
        .into_iter()
        .map(|slot| {
            let left = deadline.saturating_duration_since(monotonic_now());
            slot?
                .recv_timeout(left)
                .map_err(|_| ShardError::Unavailable)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_silent_batch_waits_one_deadline_not_one_per_item() {
        // Held, never answered: the group thread is alive but silent.
        let (replies, slots): (Vec<_>, Vec<_>) = (0..3)
            .map(|_| {
                let (reply, rx) = Reply::<u8>::channel();
                (reply, Ok(rx))
            })
            .unzip();
        let started = monotonic_now();
        let outcomes = collect_replies(slots, Duration::from_millis(100));
        let took = started.elapsed();
        assert_eq!(outcomes, vec![Err(ShardError::Unavailable); 3]);
        assert!(took < Duration::from_millis(200), "took {took:?}");
        drop(replies);
    }

    /// A stand-in group thread that answers each proposal input with
    /// `answer(its command count)` and hands the test every input's
    /// commands.
    fn stand_in(
        answer: impl Fn(usize) -> Result<Vec<LogIndex>, ProposeError> + Send + 'static,
    ) -> (GroupHandle, Receiver<Vec<Bytes>>) {
        let (inbox, inputs) = crossbeam::channel::unbounded();
        let (seen_tx, seen) = crossbeam::channel::unbounded();
        std::thread::spawn(move || {
            for input in inputs.iter() {
                if let NodeInput::Propose {
                    commands,
                    reply: ProposeReply::Accepted(reply),
                } = input
                {
                    reply.answer(answer(commands.len()));
                    let _ = seen_tx.send(commands);
                }
            }
        });
        (GroupHandle::new(inbox), seen)
    }

    /// One batch: a misrouted item, items for a group this server does not
    /// lead, and items for a healthy group, interleaved. Each group gets
    /// one input with its share in order, and each item its own outcome,
    /// in input order.
    #[test]
    fn a_mixed_batch_keeps_per_item_outcomes_in_input_order() {
        let hint = Some(ServerId::new(3));
        let (healthy, healthy_inputs) =
            stand_in(|n| Ok((10..10 + n as u64).map(LogIndex::new).collect()));
        let (follower, follower_inputs) = stand_in(move |_| Err(ProposeError::NotLeader { hint }));
        let (g0, g1) = (GroupId::new(0), GroupId::new(1));
        let redirect = Redirect {
            asked: g1,
            owner: g0,
            map_version: 1,
        };
        let command = |c: &'static [u8]| Bytes::from_static(c);
        let items = vec![
            (Ok(g0), command(b"a")),
            (Err(ShardError::Redirect(redirect)), command(b"b")),
            (Ok(g1), command(b"c")),
            (Ok(g0), command(b"d")),
            (Ok(g1), command(b"e")),
        ];
        let outcomes = propose_routed(&[healthy, follower], items, Duration::from_secs(5));
        assert_eq!(
            outcomes,
            vec![
                Ok((g0, LogIndex::new(10))),
                Err(ShardError::Redirect(redirect)),
                Err(ShardError::NotLeader { hint }),
                Ok((g0, LogIndex::new(11))),
                Err(ShardError::NotLeader { hint }),
            ]
        );
        let one_input = |inputs: Receiver<Vec<Bytes>>| inputs.iter().collect::<Vec<_>>();
        assert_eq!(
            one_input(healthy_inputs),
            [vec![command(b"a"), command(b"d")]]
        );
        assert_eq!(
            one_input(follower_inputs),
            [vec![command(b"c"), command(b"e")]]
        );
    }
}
