//! A stalled disk must not depose a healthy leader — on real TCP, with a
//! storage whose `sync` can be held shut from the test.
//!
//! Two ways a single slow `fdatasync` used to start an election with
//! nothing failed: a *leader* inside its own log barrier sent no
//! heartbeats, and a *follower* returning from a long barrier fired its
//! overdue election deadline before looking at the leader's heartbeats
//! already waiting in its inbox. Both tests hold one barrier shut for
//! well over the 150 ms election floor and count campaigns.

mod common;

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::storage::Storage;
use escape_core::types::{LogIndex, Role, ServerId, Term};
use escape_shard::{ShardSpawnOptions, ShardedNode};
use escape_storage::WalStorage;
use escape_transport::tcp::StorageHook;
use escape_transport::{NodeInput, NodeStatus, Reply};

use common::{Cluster, G};

/// How long a barrier is held shut: several election timeouts (the local
/// spec's floor is 150 ms).
const STALL: Duration = Duration::from_millis(400);

/// What the test holds of one server's storage wrapper.
struct Valve {
    /// The next `sync` announces itself on `entered` and then waits for
    /// `release`.
    armed: Arc<AtomicBool>,
    entered: Receiver<()>,
    release: Sender<()>,
}

/// Forwards to the WAL; an armed `sync` stalls until released.
#[derive(Debug)]
struct StallingStorage {
    inner: WalStorage,
    armed: Arc<AtomicBool>,
    entered: Sender<()>,
    release: Receiver<()>,
}

impl Storage for StallingStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        self.inner.persist_hard_state(term, voted_for)
    }
    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        self.inner.persist_entry(entry)
    }
    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        self.inner.persist_entries(entries)
    }
    fn persist_appended(&mut self, prev: LogIndex, term: Term, e: &[Entry]) -> io::Result<()> {
        self.inner.persist_appended(prev, term, e)
    }
    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        self.inner.persist_config(config)
    }
    fn persist_snapshot(
        &mut self,
        i: LogIndex,
        t: Term,
        d: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        self.inner.persist_snapshot(i, t, d, tail)
    }
    fn sync(&mut self) -> io::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            let _ = self.entered.send(());
            // Bounded, so a test that fails before releasing cannot hang
            // the node's shutdown.
            let _ = self.release.recv_timeout(Duration::from_secs(10));
        }
        self.inner.sync()
    }
}

/// Three durable nodes, each behind a [`StallingStorage`].
fn stallable_cluster(label: &str) -> (Cluster, HashMap<ServerId, Valve>) {
    let valves: Arc<Mutex<HashMap<ServerId, Valve>>> = Arc::default();
    let hook_valves = Arc::clone(&valves);
    let hook: StorageHook = Arc::new(move |server, _group, inner| {
        let armed = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        hook_valves.lock().expect("valves").insert(
            server,
            Valve {
                armed: Arc::clone(&armed),
                entered,
                release,
            },
        );
        Box::new(StallingStorage {
            inner,
            armed,
            entered: entered_tx,
            release: release_rx,
        })
    });
    let cluster = Cluster::start(
        Some(label),
        ShardSpawnOptions {
            storage_hook: Some(hook),
            ..ShardSpawnOptions::default()
        },
    );
    let valves = std::mem::take(&mut *valves.lock().expect("valves"));
    assert_eq!(valves.len(), 3, "the hook wraps every node's WAL");
    (cluster, valves)
}

fn status(node: &ShardedNode) -> NodeStatus {
    node.status(G).expect("status")
}

fn propose(node: &ShardedNode, command: &'static [u8]) -> LogIndex {
    let (_, index) = node
        .propose(b"", Bytes::from_static(command))
        .expect("the leader accepts");
    index
}

fn await_applied(node: &ShardedNode, index: LogIndex) -> bool {
    node.await_applied(G, index).is_ok()
}

/// Settles a fresh cluster: a leader, a first committed write, and a
/// few heartbeat rounds so every follower holds its PPF configuration.
fn settle(cluster: &Cluster) -> usize {
    let leader = cluster.wait_for_leader();
    let index = propose(cluster.node(leader), b"warm-up");
    for node in cluster.nodes.iter().flatten() {
        assert!(await_applied(node, index));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(cluster.wait_for_leader(), leader, "leadership settled");
    leader
}

fn elections_started(cluster: &Cluster) -> Vec<u64> {
    cluster
        .nodes
        .iter()
        .flatten()
        .map(|n| status(n).metrics.elections_started)
        .collect()
}

/// The leader's own barrier is held shut mid-burst. Its node thread must
/// keep leading: no follower campaigns, a write proposed during the stall
/// commits through the two followers before the stall ends, and a lease
/// read is answered during it.
#[test]
fn stalled_leader_disk_starts_no_election_and_commits_through_followers() {
    let (cluster, valves) = stallable_cluster("leader");
    let leader = settle(&cluster);
    let node = cluster.node(leader);
    let valve = &valves[&node.id()];
    let before = elections_started(&cluster);
    let term = status(node).term;

    valve.armed.store(true, Ordering::SeqCst);
    let stalled_write = propose(node, b"rides the stalled barrier");
    valve
        .entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the leader's barrier ran into the valve");
    let stall_began = Instant::now();

    let during = propose(node, b"proposed during the stall");
    assert!(during > stalled_write);
    assert!(
        await_applied(node, during),
        "two follower acks must commit without the leader's disk"
    );
    node.read(b"", Bytes::from_static(b"q"))
        .expect("a lease read is answered during the stall");
    assert!(
        stall_began.elapsed() < STALL,
        "commit and read must not have waited for the disk"
    );

    std::thread::sleep(STALL.saturating_sub(stall_began.elapsed()));
    assert_eq!(
        elections_started(&cluster),
        before,
        "nobody may campaign while the leader's disk is stalled"
    );
    valve.release.send(()).expect("storage is waiting");

    let after = propose(node, b"after the stall");
    for n in cluster.nodes.iter().flatten() {
        assert!(await_applied(n, after));
    }
    assert_eq!(elections_started(&cluster), before);
    assert_eq!(status(node).term, term, "same leader, same term");
    assert_eq!(status(node).role, Role::Leader);
    cluster.finish();
}

/// A follower's barrier is held shut. It cannot ack until it is released
/// — a follower still acks only what it has synced — and when it comes
/// back with its election deadline long overdue it must take the leader's
/// queued heartbeats first, not campaign.
#[test]
fn stalled_follower_disk_delays_its_ack_and_starts_no_election() {
    let (cluster, valves) = stallable_cluster("follower");
    let leader = settle(&cluster);
    let follower = (0..3).find(|i| *i != leader).expect("a follower");
    let valve = &valves[&cluster.node(follower).id()];
    let before = elections_started(&cluster);
    let term = status(cluster.node(leader)).term;

    valve.armed.store(true, Ordering::SeqCst);
    let index = propose(cluster.node(leader), b"stalls one follower");
    valve
        .entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the follower's barrier ran into the valve");
    assert!(
        await_applied(cluster.node(leader), index),
        "the other follower completes the quorum"
    );
    std::thread::sleep(STALL);
    // Asked through the inbox, because the node's own `await_applied`
    // would sit out its five seconds: no answer at once means not applied.
    let (reply, applied) = Reply::channel();
    cluster
        .node(follower)
        .inbox(G)
        .expect("hosted group")
        .send(NodeInput::AwaitApplied { index, reply })
        .expect("node thread alive");
    assert!(
        applied.recv_timeout(Duration::from_millis(1)).is_err(),
        "a follower inside its barrier has acked and applied nothing"
    );
    valve.release.send(()).expect("storage is waiting");

    assert!(
        await_applied(cluster.node(follower), index),
        "its ack and apply arrive once the stall ends"
    );
    assert_eq!(
        elections_started(&cluster),
        before,
        "an overdue deadline must yield to the leader's queued heartbeats"
    );
    assert_eq!(status(cluster.node(leader)).term, term);
    assert_eq!(status(cluster.node(leader)).role, Role::Leader);
    cluster.finish();
}
