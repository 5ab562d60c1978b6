//! The TCP cluster the four socket workloads run against: N
//! `ShardedNode`s in this process over loopback (no injected delay),
//! durable under a fresh directory below `benchmark/out/` or
//! memory-only, with the KV state machine and the ESCAPE local policy.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use bytes::Bytes;

use escape_core::metrics::NodeMetrics;
use escape_core::statemachine::StateMachine;
use escape_core::types::{GroupId, Role, ServerId};
use escape_kv::{KvResponse, KvStateMachine};
use escape_shard::{ShardMap, ShardSpawnOptions, ShardedNode};
use escape_transport::runtime::NodeStatus;
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::loopback_listeners;

use crate::kv;
use crate::timed_storage::StorageTrace;

/// Keys every TCP workload preloads and draws from.
pub const KEYS: u32 = 10_000;
/// Commands per `propose_batch` call (preload and `durable-ingest`).
pub const BATCH: usize = 128;

/// Where run artefacts (data directories, traces, result files) go:
/// inside the checkout, relative to the directory the run starts in.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

#[derive(Clone, Copy, Debug)]
pub struct ClusterShape {
    pub servers: usize,
    pub shards: usize,
    pub durable: bool,
}

/// A slot per server; `None` while that server is killed. Readers
/// (generator probes, the status poller) share the lock, the killer
/// takes it exclusively only to move the node out or back in.
pub type NodeSlot = RwLock<Option<ShardedNode>>;

pub struct Cluster {
    pub addrs: HashMap<ServerId, SocketAddr>,
    listeners: HashMap<ServerId, TcpListener>,
    pub nodes: Vec<NodeSlot>,
    pub map: ShardMap,
    pub data_root: Option<PathBuf>,
    seed: u64,
    storage_trace: Option<Arc<StorageTrace>>,
}

impl Cluster {
    /// Boots every server; [`Cluster::await_leaders`] says when the
    /// groups have elected.
    pub fn boot(
        shape: ClusterShape,
        seed: u64,
        label: &str,
        storage_trace: Option<Arc<StorageTrace>>,
    ) -> Result<Cluster, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let data_root = if shape.durable {
            let dir = out_dir().join("data").join(format!(
                "{label}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(dir)
        } else {
            None
        };
        let (addrs, listeners) = loopback_listeners(shape.servers);
        let mut cluster = Cluster {
            addrs,
            listeners,
            nodes: Vec::new(),
            map: ShardMap::uniform(shape.shards),
            data_root,
            seed,
            storage_trace,
        };
        for i in 0..shape.servers {
            let node = cluster.spawn(i);
            cluster.nodes.push(RwLock::new(Some(node)));
        }
        Ok(cluster)
    }

    pub fn server_dir(&self, index: usize) -> Option<PathBuf> {
        self.data_root
            .as_ref()
            .map(|root| root.join(format!("server-{}", index + 1)))
    }

    /// Spawns (or respawns, recovering from its directory) server
    /// `index` on its held-open listener.
    pub fn spawn(&self, index: usize) -> ShardedNode {
        let id = ServerId::new(index as u32 + 1);
        let dir = self.server_dir(index);
        ShardedNode::spawn_with(
            id,
            self.listeners[&id].try_clone().expect("clone listener"),
            self.addrs.clone(),
            ProtocolSpec::escape_local(),
            self.seed,
            self.map.clone(),
            |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
            dir.as_deref(),
            ShardSpawnOptions {
                storage_hook: self.storage_trace.as_ref().map(|t| t.hook()),
                serve_clients: true,
            },
        )
    }

    /// `status` of `group` on server `index`, if that server is up.
    pub fn status(&self, index: usize, group: GroupId) -> Option<NodeStatus> {
        let slot = self.nodes[index].read().expect("node slot");
        slot.as_ref().and_then(|n| n.status(group))
    }

    /// The server index leading each group right now.
    pub fn leaders(&self) -> HashMap<GroupId, usize> {
        let mut out = HashMap::new();
        for group in self.map.groups() {
            for index in 0..self.nodes.len() {
                if self
                    .status(index, group)
                    .is_some_and(|s| s.role == Role::Leader)
                {
                    out.insert(group, index);
                }
            }
        }
        out
    }

    /// Waits (up to 15 s) until every group has a leader; says which
    /// server leads each.
    pub fn await_leaders(&self) -> Result<HashMap<GroupId, usize>, String> {
        let within = Duration::from_secs(15);
        let deadline = Instant::now() + within;
        loop {
            let leaders = self.leaders();
            if leaders.len() == self.map.len() {
                return Ok(leaders);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "only {} of {} groups have a leader after {within:?}",
                    leaders.len(),
                    self.map.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Engine counters of every live (server, group), summed.
    pub fn metrics_sum(&self) -> CounterSum {
        let mut sum = CounterSum::default();
        for index in 0..self.nodes.len() {
            for group in self.map.groups() {
                if let Some(status) = self.status(index, group) {
                    sum.add(&status.metrics, status.frames_dropped);
                }
            }
        }
        sum
    }

    /// Writes every key once (value tagged as preload) through
    /// `propose_batch` on each group's leader and waits for the last
    /// index of each batch to apply. Returns failed commands.
    pub fn preload(&self, leaders: &HashMap<GroupId, usize>) -> u64 {
        let mut per_group: HashMap<GroupId, Vec<(Bytes, Bytes)>> = HashMap::new();
        for rank in 0..KEYS {
            let key = kv::key(rank);
            per_group
                .entry(self.map.owner(key.as_bytes()))
                .or_default()
                .push((
                    Bytes::from(key.clone().into_bytes()),
                    kv::put(&key, &kv::value(rank, kv::PRELOAD)),
                ));
        }
        let mut failed = 0;
        for (group, items) in per_group {
            let Some(&leader) = leaders.get(&group) else {
                failed += items.len() as u64;
                continue;
            };
            let slot = self.nodes[leader].read().expect("node slot");
            let Some(node) = slot.as_ref() else {
                failed += items.len() as u64;
                continue;
            };
            for chunk in items.chunks(BATCH) {
                failed += propose_and_apply(node, group, chunk.to_vec());
            }
        }
        failed
    }

    /// Bytes on disk under the data directory (0 when memory-only).
    pub fn data_bytes(&self) -> u64 {
        self.data_root.as_deref().map_or(0, dir_bytes)
    }

    /// Stops every server; the data directory (if any) stays and is
    /// returned.
    pub fn shutdown_keep_dir(self) -> Option<PathBuf> {
        for slot in self.nodes {
            if let Some(node) = slot.into_inner().expect("node slot") {
                node.shutdown();
            }
        }
        self.data_root
    }

    /// Stops every server and deletes the data directory.
    pub fn teardown(self) {
        if let Some(root) = self.shutdown_keep_dir() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// Proposes `items` (all owned by `group`) on `node` and waits for the
/// last to apply. Returns how many commands failed: a refused proposal,
/// a wrong group, or an apply result that is not `KvResponse::Ok`.
pub fn propose_and_apply(node: &ShardedNode, group: GroupId, items: Vec<(Bytes, Bytes)>) -> u64 {
    let n = items.len() as u64;
    let mut failed = 0;
    let mut last = None;
    for outcome in node.propose_batch(items) {
        match outcome {
            Ok((g, index)) if g == group => last = Some(index),
            _ => failed += 1,
        }
    }
    match last.map(|index| node.await_applied(group, index)) {
        Some(Ok(result)) if KvResponse::decode(&result) == Ok(KvResponse::Ok) => failed,
        _ => n,
    }
}

/// The engine counters the per-layer `core.*` series are deltas of.
#[derive(Clone, Copy, Debug)]
pub enum Ctr {
    ElectionsStarted,
    StepDowns,
    BackpressureResets,
    ProposeBatches,
    CommandsProposed,
    CommitMicros,
    CommitsTimed,
    MessagesSent,
    ReadsServed,
    LeaseReads,
    QuorumReads,
    FramesDropped,
}

/// One value per [`Ctr`], summed over (server, group) engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterSum([u64; 12]);

impl CounterSum {
    pub fn add(&mut self, m: &NodeMetrics, frames_dropped: u64) {
        let one = [
            m.elections_started,
            m.step_downs,
            m.backpressure_resets,
            m.propose_batches,
            m.commands_proposed,
            m.commit_latency_total_micros,
            m.commits_timed,
            m.messages_sent(),
            m.reads_served,
            m.lease_reads,
            m.quorum_reads,
            frames_dropped,
        ];
        *self = self.plus(&CounterSum(one));
    }

    pub fn get(&self, counter: Ctr) -> u64 {
        self.0[counter as usize]
    }

    pub fn plus(mut self, other: &CounterSum) -> CounterSum {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }

    /// `self - earlier`, counter by counter (counters only grow).
    pub fn since(mut self, earlier: &CounterSum) -> CounterSum {
        for (a, b) in self.0.iter_mut().zip(earlier.0) {
            *a = a.saturating_sub(b);
        }
        self
    }
}

/// Bytes of every regular file under `root`.
fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A field of `/proc/self/status` in kB or as a count (`VmHWM`,
/// `Threads`); 0 where procfs is absent.
pub fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}
