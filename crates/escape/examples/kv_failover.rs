//! A replicated key-value store surviving a leader failure — on the
//! real-time runtime (loopback TCP, threads, wall clocks, a WAL on disk),
//! not the simulator.
//!
//! ```text
//! cargo run --release --example kv_failover
//! ```

use std::time::{Duration, Instant};

use bytes::Bytes;
use escape::core::statemachine::StateMachine;
use escape::core::types::{GroupId, Role, ServerId};
use escape::kv::{KvCommand, KvResponse, KvStateMachine};
use escape::shard::{ShardMap, ShardedNode};
use escape::transport::spec::ProtocolSpec;
use escape::transport::tcp::loopback_listeners;

/// The one consensus group of this cluster (a shard map of one).
const GROUP: GroupId = GroupId::ZERO;

/// The index (into `nodes`) of the current leader, if any.
fn leader_of(nodes: &[Option<ShardedNode>]) -> Option<usize> {
    nodes.iter().position(|n| {
        n.as_ref()
            .and_then(|n| n.status(GROUP))
            .is_some_and(|s| s.role == Role::Leader)
    })
}

/// Runs `op` against whichever server leads, retrying across a failover.
fn on_leader<T>(nodes: &[Option<ShardedNode>], op: impl Fn(&ShardedNode) -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let leader = leader_of(nodes).and_then(|i| nodes[i].as_ref());
        if let Some(done) = leader.and_then(&op) {
            return done;
        }
        assert!(Instant::now() < deadline, "no leader answered within 5 s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn put(nodes: &[Option<ShardedNode>], key: &str, value: &str) -> KvResponse {
    let cmd = KvCommand::Put {
        key: key.to_string(),
        value: Bytes::copy_from_slice(value.as_bytes()),
    };
    let raw = on_leader(nodes, |node| {
        let (group, index) = node.propose(key.as_bytes(), cmd.encode()).ok()?;
        node.await_applied(group, index).ok()
    });
    KvResponse::decode(&raw).expect("decode response")
}

/// A linearizable read, answered off the log by the leader's lease.
fn get(nodes: &[Option<ShardedNode>], key: &str) -> Option<String> {
    let query = KvCommand::Get {
        key: key.to_string(),
    };
    let raw = on_leader(nodes, |node| {
        let (_, raw) = node.read(key.as_bytes(), query.encode()).ok()?;
        Some(raw)
    });
    match KvResponse::decode(&raw).expect("decode response") {
        KvResponse::Value(v) => v.map(|b| String::from_utf8_lossy(&b).into_owned()),
        other => panic!("unexpected response {other:?}"),
    }
}

fn main() {
    // Three replicas running ESCAPE with loopback-scaled timings
    // (baseTime 150 ms, k 50 ms, heartbeats every 50 ms), each with a
    // data directory of its own under a scratch root.
    let root = std::env::temp_dir().join(format!("escape-kv-failover-{}", std::process::id()));
    let (addrs, listeners) = loopback_listeners(3);
    let spawn = |i: usize| {
        let id = ServerId::new(i as u32 + 1);
        ShardedNode::spawn(
            id,
            listeners[&id].try_clone().expect("clone listener"),
            addrs.clone(),
            ProtocolSpec::escape_local(),
            42,
            ShardMap::uniform(1),
            |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
            Some(&root.join(format!("server-{}", id.get()))),
        )
    };
    let mut nodes: Vec<Option<ShardedNode>> = (0..3).map(|i| Some(spawn(i))).collect();

    // Normal operation: writes and linearizable reads.
    assert_eq!(put(&nodes, "paper", "ESCAPE"), KvResponse::Ok);
    assert_eq!(put(&nodes, "venue", "ICDCS 2022"), KvResponse::Ok);
    println!("paper  = {:?}", get(&nodes, "paper"));
    println!("venue  = {:?}", get(&nodes, "venue"));

    // Kill the leader mid-flight.
    let leader = leader_of(&nodes).expect("a leader");
    println!(
        "\n*** killing leader {} ***",
        ServerId::new(leader as u32 + 1)
    );
    let t0 = Instant::now();
    nodes[leader].take().expect("live leader").kill();

    // The store keeps answering once the precautioned election resolves —
    // the write below blocks only for the failover, then commits on the
    // new leader.
    assert_eq!(
        put(&nodes, "status", "survived the failover"),
        KvResponse::Ok
    );
    println!(
        "first write after crash committed {:.0} ms post-kill",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    println!("status = {:?}", get(&nodes, "status"));
    println!(
        "paper  = {:?} (pre-crash data intact)",
        get(&nodes, "paper")
    );

    // The killed server restarts from its data directory, rejoins as a
    // follower and catches up.
    nodes[leader] = Some(spawn(leader));
    std::thread::sleep(Duration::from_millis(300));
    let status = nodes[leader]
        .as_ref()
        .and_then(|n| n.status(GROUP))
        .expect("status");
    println!(
        "\n{} rejoined as {:?}, log length {}",
        status.id, status.role, status.log_len
    );

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(root);
}
