//! What the single-group test binaries share: three `ShardedNode`s over a
//! shard map of one, driven through the node's own `status` / `propose` /
//! `await_applied`.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;

use escape_core::statemachine::NullStateMachine;
use escape_core::types::{GroupId, LogIndex, Role, ServerId};
use escape_shard::{ShardMap, ShardSpawnOptions, ShardedNode};
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::loopback_listeners;

/// The one group of a single-group cluster.
pub const G: GroupId = GroupId::ZERO;

/// A fresh directory under the system temp dir, unique per call.
pub fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "escape-shard-test-{}-{label}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Three servers of one group with the null state machine and the ESCAPE
/// local policy; a killed server is a `None` slot.
pub struct Cluster {
    pub addrs: HashMap<ServerId, SocketAddr>,
    listeners: HashMap<ServerId, TcpListener>,
    /// One data directory per server; empty runs memory-only.
    pub dirs: Vec<PathBuf>,
    options: ShardSpawnOptions,
    pub nodes: Vec<Option<ShardedNode>>,
}

impl Cluster {
    /// Starts all three servers, durable under fresh scratch directories
    /// named after `durable` when given.
    pub fn start(durable: Option<&str>, options: ShardSpawnOptions) -> Cluster {
        let (addrs, listeners) = loopback_listeners(3);
        let dirs = durable
            .map(|label| {
                (1..=3)
                    .map(|i| scratch_dir(&format!("{label}-{i}")))
                    .collect()
            })
            .unwrap_or_default();
        let mut cluster = Cluster {
            addrs,
            listeners,
            dirs,
            options,
            nodes: Vec::new(),
        };
        cluster.nodes = (0..3).map(|i| Some(cluster.spawn(i))).collect();
        cluster
    }

    /// A fresh incarnation of server `index` on its listener and data
    /// directory.
    pub fn spawn(&self, index: usize) -> ShardedNode {
        let id = ServerId::new(index as u32 + 1);
        ShardedNode::spawn_with(
            id,
            self.listeners[&id].try_clone().expect("clone listener"),
            self.addrs.clone(),
            ProtocolSpec::escape_local(),
            99,
            ShardMap::uniform(1),
            |_group| Box::new(NullStateMachine),
            self.dirs.get(index).map(PathBuf::as_path),
            self.options.clone(),
        )
    }

    pub fn node(&self, index: usize) -> &ShardedNode {
        self.nodes[index].as_ref().expect("server is up")
    }

    pub fn kill(&mut self, index: usize) {
        self.nodes[index].take().expect("server is up").kill();
    }

    /// The index of the current leader among the live servers, if any.
    pub fn leader(&self) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.as_ref()
                .and_then(|n| n.status(G))
                .is_some_and(|s| s.role == Role::Leader)
        })
    }

    /// Polls until some live server leads.
    pub fn wait_for_leader(&self) -> usize {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if let Some(leader) = self.leader() {
                return leader;
            }
            assert!(Instant::now() < deadline, "no leader within 15 s");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Shuts every live server down and removes the data directories.
    pub fn finish(self) {
        for node in self.nodes.into_iter().flatten() {
            node.shutdown();
        }
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Proposes `command` through `node` and waits for `node` to apply it.
pub fn propose_and_apply(node: &ShardedNode, command: &[u8]) -> LogIndex {
    let (_, index) = node
        .propose(b"", Bytes::copy_from_slice(command))
        .expect("the leader accepts");
    node.await_applied(G, index).expect("applied over TCP");
    index
}
