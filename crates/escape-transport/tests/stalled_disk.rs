//! A stalled disk must not depose a healthy leader — on real TCP, with a
//! storage whose `sync` can be held shut from the test.
//!
//! Two ways a single slow `fdatasync` used to start an election with
//! nothing failed: a *leader* inside its own log barrier sent no
//! heartbeats, and a *follower* returning from a long barrier fired its
//! overdue election deadline before looking at the leader's heartbeats
//! already waiting in its inbox. Both tests hold one barrier shut for
//! well over the 150 ms election floor and count campaigns.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::bounded;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::statemachine::NullStateMachine;
use escape_core::storage::Storage;
use escape_core::types::{LogIndex, Role, ServerId, Term};
use escape_storage::WalStorage;
use escape_transport::tcp::{loopback_listeners, SpawnOptions, StorageHook, TcpNode};
use escape_transport::{NodeInput, NodeStatus, ProtocolSpec};

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

struct Cluster {
    nodes: Vec<TcpNode>,
    valves: HashMap<ServerId, Valve>,
    dirs: Vec<PathBuf>,
}

fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "escape-stall-test-{}-{label}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spawn_node(
    id: ServerId,
    addrs: &HashMap<ServerId, SocketAddr>,
    listeners: &HashMap<ServerId, TcpListener>,
    dir: &std::path::Path,
    storage_hook: Option<StorageHook>,
) -> TcpNode {
    TcpNode::spawn_with(
        id,
        listeners[&id].try_clone().expect("clone listener"),
        addrs.clone(),
        ProtocolSpec::escape_local(),
        7,
        Box::new(NullStateMachine),
        Some(dir),
        SpawnOptions {
            storage_hook,
            ..SpawnOptions::default()
        },
    )
}

/// Three durable nodes, each behind a [`StallingStorage`].
fn stallable_cluster(label: &str) -> Cluster {
    let (addrs, listeners) = loopback_listeners(3);
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
    let dirs: Vec<PathBuf> = (1..=3)
        .map(|i| scratch_dir(&format!("{label}-{i}")))
        .collect();
    let nodes = (1..=3u32)
        .map(|i| {
            let id = ServerId::new(i);
            spawn_node(
                id,
                &addrs,
                &listeners,
                &dirs[i as usize - 1],
                Some(Arc::clone(&hook)),
            )
        })
        .collect();
    let valves = std::mem::take(&mut *valves.lock().expect("valves"));
    assert_eq!(valves.len(), 3, "the hook wraps every node's WAL");
    Cluster {
        nodes,
        valves,
        dirs,
    }
}

fn status(node: &TcpNode) -> NodeStatus {
    let (tx, rx) = bounded(1);
    node.inbox()
        .send(NodeInput::Query { reply: tx })
        .expect("node thread alive");
    rx.recv_timeout(Duration::from_secs(5)).expect("status")
}

fn wait_for_leader(nodes: &[TcpNode]) -> usize {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        assert!(Instant::now() < deadline, "no leader within 15 s");
        if let Some(i) = nodes.iter().position(|n| status(n).role == Role::Leader) {
            return i;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn propose(node: &TcpNode, command: &'static [u8]) -> LogIndex {
    node.propose_batch(vec![Bytes::from_static(command)], Duration::from_secs(2))
        .pop()
        .expect("one outcome")
        .expect("the leader accepts")
}

fn await_applied(node: &TcpNode, index: LogIndex, within: Duration) -> bool {
    let (tx, rx) = bounded(1);
    node.inbox()
        .send(NodeInput::AwaitApplied { index, reply: tx })
        .expect("node thread alive");
    rx.recv_timeout(within).is_ok()
}

impl Cluster {
    /// Settles a fresh cluster: a leader, a first committed write, and a
    /// few heartbeat rounds so every follower holds its PPF configuration.
    fn settle(&self) -> usize {
        let leader = wait_for_leader(&self.nodes);
        let index = propose(&self.nodes[leader], b"warm-up");
        for node in &self.nodes {
            assert!(await_applied(node, index, Duration::from_secs(5)));
        }
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(wait_for_leader(&self.nodes), leader, "leadership settled");
        leader
    }

    fn elections_started(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| status(n).metrics.elections_started)
            .collect()
    }

    fn finish(self) {
        for node in self.nodes {
            node.shutdown();
        }
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The leader's own barrier is held shut mid-burst. Its node thread must
/// keep leading: no follower campaigns, a write proposed during the stall
/// commits through the two followers before the stall ends, and a lease
/// read is answered during it.
#[test]
fn stalled_leader_disk_starts_no_election_and_commits_through_followers() {
    let cluster = stallable_cluster("leader");
    let leader = cluster.settle();
    let node = &cluster.nodes[leader];
    let valve = &cluster.valves[&node.id()];
    let before = cluster.elections_started();
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
        await_applied(node, during, Duration::from_secs(2)),
        "two follower acks must commit without the leader's disk"
    );
    node.read_batch(vec![Bytes::from_static(b"q")], Duration::from_secs(2))
        .expect("a lease read is answered during the stall");
    assert!(
        stall_began.elapsed() < STALL,
        "commit and read must not have waited for the disk"
    );

    std::thread::sleep(STALL.saturating_sub(stall_began.elapsed()));
    assert_eq!(
        cluster.elections_started(),
        before,
        "nobody may campaign while the leader's disk is stalled"
    );
    valve.release.send(()).expect("storage is waiting");

    let after = propose(node, b"after the stall");
    for n in &cluster.nodes {
        assert!(await_applied(n, after, Duration::from_secs(5)));
    }
    assert_eq!(cluster.elections_started(), before);
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
    let cluster = stallable_cluster("follower");
    let leader = cluster.settle();
    let follower = (0..3).find(|i| *i != leader).expect("a follower");
    let valve = &cluster.valves[&cluster.nodes[follower].id()];
    let before = cluster.elections_started();
    let term = status(&cluster.nodes[leader]).term;

    valve.armed.store(true, Ordering::SeqCst);
    let index = propose(&cluster.nodes[leader], b"stalls one follower");
    valve
        .entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the follower's barrier ran into the valve");
    assert!(
        await_applied(&cluster.nodes[leader], index, Duration::from_secs(2)),
        "the other follower completes the quorum"
    );
    std::thread::sleep(STALL);
    assert!(
        !await_applied(&cluster.nodes[follower], index, Duration::from_millis(1)),
        "a follower inside its barrier has acked and applied nothing"
    );
    valve.release.send(()).expect("storage is waiting");

    assert!(
        await_applied(&cluster.nodes[follower], index, Duration::from_secs(5)),
        "its ack and apply arrive once the stall ends"
    );
    assert_eq!(
        cluster.elections_started(),
        before,
        "an overdue deadline must yield to the leader's queued heartbeats"
    );
    assert_eq!(status(&cluster.nodes[leader]).term, term);
    assert_eq!(status(&cluster.nodes[leader]).role, Role::Leader);
    cluster.finish();
}

/// `kill` joins the WAL thread after the node thread, so the very next
/// spawn on the same directory finds no live writer — and whatever the
/// killed leader's WAL thread still had queued was never part of an
/// acknowledgement: every acked write is on the cluster afterwards.
#[test]
fn kill_then_immediate_respawn_keeps_every_acked_write() {
    let (addrs, listeners) = loopback_listeners(3);
    let dirs: Vec<PathBuf> = (1..=3)
        .map(|i| scratch_dir(&format!("respawn-{i}")))
        .collect();
    let mut nodes: Vec<TcpNode> = (1..=3u32)
        .map(|i| {
            let id = ServerId::new(i);
            spawn_node(id, &addrs, &listeners, &dirs[i as usize - 1], None)
        })
        .collect();

    for cycle in 0..3 {
        let commands: Vec<Bytes> = (0..40)
            .map(|i| Bytes::from(format!("cycle-{cycle}-write-{i}")))
            .collect();
        // Leadership may still be settling after the previous respawn: a
        // burst any part of which was refused is offered again.
        let (leader, acked) = loop {
            let leader = wait_for_leader(&nodes);
            let outcomes = nodes[leader].propose_batch(commands.clone(), Duration::from_secs(2));
            if let Some(Ok(last)) = outcomes
                .last()
                .filter(|_| outcomes.iter().all(Result::is_ok))
            {
                break (leader, *last);
            }
        };
        assert!(await_applied(&nodes[leader], acked, Duration::from_secs(5)));

        // Killed the instant the burst is acknowledged, respawned at once.
        let id = nodes[leader].id();
        nodes.remove(leader).kill();
        let respawned = spawn_node(id, &addrs, &listeners, &dirs[id.get() as usize - 1], None);
        nodes.insert(leader, respawned);

        for node in &nodes {
            assert!(
                await_applied(node, acked, Duration::from_secs(15)),
                "cycle {cycle}: acked index {acked} missing on server {}",
                node.id()
            );
        }
    }
    for node in nodes {
        node.shutdown();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
