//! The classic single-group node — a `ShardedNode` over a shard map of
//! one — over real TCP: election and commit, what `kill` closes, recovery
//! from the data directory, fencing of a wiped node, and storage faults
//! injected under the real stack.

mod common;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;

use escape_core::message::{Message, RequestVoteReply};
use escape_core::types::{ServerId, Term};
use escape_shard::ShardSpawnOptions;
use escape_transport::tcp::StorageHook;
use escape_wire::{write_frame, Encode, Envelope};

use common::{propose_and_apply, Cluster, G};

#[test]
fn tcp_cluster_elects_and_commits() {
    let cluster = Cluster::start(None, ShardSpawnOptions::default());
    let leader = cluster.wait_for_leader();
    propose_and_apply(cluster.node(leader), b"over-tcp");
    cluster.finish();
}

/// `kill` ends the incarnation's peer connections: a peer that had
/// been talking to the node reads EOF as soon as `kill` has returned —
/// not a socket held open by a reader thread that outlived its node
/// and would swallow the next frame.
#[test]
fn killed_node_closes_the_peer_connections_it_accepted() {
    let mut cluster = Cluster::start(None, ShardSpawnOptions::default());
    let mut raw = TcpStream::connect(cluster.addrs[&ServerId::new(1)]).expect("connect");
    let mut frame = BytesMut::new();
    let envelope = Envelope {
        from: ServerId::new(2),
        group: G,
        message: Message::RequestVoteReply(RequestVoteReply {
            term: Term::new(1000),
            vote_granted: false,
        }),
    };
    write_frame(&mut frame, &envelope.to_bytes());
    raw.write_all(&frame).expect("send one peer envelope");
    // The node adopting the reply's term shows the envelope was read
    // off this connection — it is a peer's, and it is drained.
    while cluster.node(0).status(G).expect("status").term < Term::new(1000) {
        std::thread::sleep(Duration::from_millis(1));
    }

    cluster.kill(0);
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    assert_eq!(
        raw.read(&mut [0u8; 16]).ok(),
        Some(0),
        "the peer must read EOF within 100 ms of kill returning"
    );
    cluster.finish();
}

/// A node killed mid-leadership recovers term/vote/log from its data
/// directory, rejoins, and the cluster recommits a new command through
/// it.
#[test]
fn tcp_killed_leader_recovers_from_data_dir_and_cluster_recommits() {
    let mut cluster = Cluster::start(Some("kill"), ShardSpawnOptions::default());

    let leader = cluster.wait_for_leader();
    propose_and_apply(cluster.node(leader), b"pre-crash");
    let pre = cluster.node(leader).status(G).expect("status");
    assert!(pre.term > Term::ZERO);
    assert!(pre.log_len >= 2, "no-op + command");

    // SIGKILL-equivalent: no flush beyond the per-event fsyncs that
    // already happened before each sent message.
    cluster.kill(leader);

    // Restart from the same data directory on the same (still-bound)
    // listener, and check the recovered persistent state.
    cluster.nodes[leader] = Some(cluster.spawn(leader));
    let recovered = cluster.node(leader).status(G).expect("status");
    assert!(
        recovered.term >= pre.term,
        "recovered term {} must not regress below pre-crash {}",
        recovered.term,
        pre.term
    );
    assert!(
        recovered.log_len >= pre.log_len,
        "recovered log ({} entries) lost entries vs pre-crash ({})",
        recovered.log_len,
        pre.log_len
    );

    // The cluster (restarted node included) elects and recommits.
    let new_leader = cluster.wait_for_leader();
    let index = propose_and_apply(cluster.node(new_leader), b"post-crash");

    // The restarted node must apply the new command too (proof it
    // rejoined replication, not just that a quorum exists without it).
    cluster
        .node(leader)
        .await_applied(G, index)
        .expect("restarted node applied the post-crash command");
    cluster.finish();
}

/// A node restarted with a **wiped** data directory is back on the boot
/// configuration (confClock 0, empty log) and must not win the ensuing
/// election — the intact follower's durable clock (plus log
/// up-to-dateness) fences it, per §IV-B / Fig. 5b.
#[test]
fn tcp_wiped_node_is_fenced_not_elected() {
    let mut cluster = Cluster::start(Some("wipe"), ShardSpawnOptions::default());

    let leader = cluster.wait_for_leader();
    propose_and_apply(cluster.node(leader), b"seed-entry");
    // Let a few heartbeat rounds run so the PPF assignment (clock ≥ 1)
    // reaches the followers and lands in their WALs.
    std::thread::sleep(Duration::from_millis(500));

    // Kill the leader for good, and wipe + restart one follower.
    let wiped = (0..3).find(|i| *i != leader).unwrap();
    let intact = (0..3).find(|i| *i != leader && *i != wiped).unwrap();
    cluster.kill(leader);
    cluster.kill(wiped);
    std::fs::remove_dir_all(&cluster.dirs[wiped]).unwrap();
    cluster.nodes[wiped] = Some(cluster.spawn(wiped));

    // The two live nodes (wiped + intact) are a quorum; only the
    // intact one may win. Poll the whole window: the wiped node must
    // never report leadership.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(
            Instant::now() < deadline,
            "the intact follower must win the election"
        );
        let leader = cluster.leader();
        assert_ne!(
            leader,
            Some(wiped),
            "a wiped node must be fenced by the conf-clock rule, not elected"
        );
        if leader == Some(intact) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    cluster.finish();
}

/// `FaultyStorage` wraps the WAL on the real TCP stack, not only in the
/// simulator's campaign harness. A cluster whose every persist op has a
/// transient-IO fault rate must still elect and commit — and the
/// per-node [`escape_storage::FaultStats`] prove the faults actually
/// fired in the TCP path rather than being bypassed.
#[test]
fn tcp_cluster_commits_through_transient_storage_faults() {
    use escape_storage::{FaultSpec, FaultStats, FaultyStorage};

    let stats: Arc<Mutex<HashMap<ServerId, Arc<FaultStats>>>> = Arc::default();
    let hook_stats = Arc::clone(&stats);
    let hook: StorageHook = Arc::new(move |server, _group, inner| {
        let faulty = FaultyStorage::new(
            inner,
            FaultSpec {
                transient_io_p: 0.2,
                ..FaultSpec::none()
            },
            escape_core::rand::Xoshiro256::seed_from(0xFA17 + server.get() as u64),
            Arc::new(escape_obs::NullObserver),
            Arc::new(AtomicU64::new(0)),
        );
        hook_stats.lock().unwrap().insert(server, faulty.stats());
        Box::new(faulty)
    });
    let cluster = Cluster::start(
        Some("faulty"),
        ShardSpawnOptions {
            storage_hook: Some(hook),
            ..ShardSpawnOptions::default()
        },
    );

    let leader = cluster.wait_for_leader();
    for i in 0..10u32 {
        propose_and_apply(cluster.node(leader), format!("faulty-{i}").as_bytes());
    }

    {
        let stats = stats.lock().unwrap();
        assert_eq!(stats.len(), 3, "the hook must wrap every node's WAL");
        let injected: u64 = stats.values().map(|s| s.transient_errors()).sum();
        assert!(
            injected > 0,
            "with p=0.2 across 3 nodes and 10 commits, at least one \
             transient fault must have hit the TCP persist path"
        );
    }
    cluster.finish();
}
