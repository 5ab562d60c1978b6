//! An end-to-end operational demo: a real TCP cluster (loopback sockets,
//! framed wire codec, one OS thread per node) running the replicated KV
//! store with ESCAPE elections — including a live leader kill.
//!
//! ```text
//! cargo run --release --bin escape-demo -- [nodes] [protocol] [shards] [--metrics <addr>]
//!   nodes            cluster size (default 5)
//!   protocol         escape | raft (default escape)
//!   shards           consensus groups behind one keyspace (default 1)
//!   --metrics <addr> serve Prometheus text exposition at <addr>
//! ```
//!
//! With `shards > 1` the demo runs the multi-group stack instead: every
//! server hosts every shard's engine over one TCP mesh, keys route by
//! hash, a misrouted command shows its redirect, and killing the server
//! that leads one shard demonstrates isolation — the other shards keep
//! committing while the victim shard reflex-fails-over.
//!
//! With `--metrics`, every node runs fully instrumented — engine
//! counters and histograms, WAL fsync latency (the nodes switch to
//! scratch data directories so storage is real), and per-peer transport
//! queue/drop/reconnect series — all scrapeable while the demo runs:
//!
//! ```text
//! cargo run --release --bin escape-demo -- --metrics 127.0.0.1:9900 &
//! curl http://127.0.0.1:9900/metrics
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use escape::core::statemachine::StateMachine;
use escape::core::types::{GroupId, LogIndex, Role, ServerId};
use escape::kv::{KvCommand, KvResponse, KvStateMachine};
use escape::obs::{Labels, NullObserver, Registry, ScrapeServer};
use escape::shard::{ShardError, ShardMap, ShardedNode};
use escape::transport::runtime::NodeStatus;
use escape::transport::spec::ProtocolSpec;
use escape::transport::tcp::{loopback_listeners, NodeObs};

/// The index (into `nodes`) of `group`'s current leader, if any.
fn group_leader(nodes: &[Option<ShardedNode>], group: GroupId) -> Option<usize> {
    nodes.iter().position(|n| {
        n.as_ref()
            .and_then(|n| n.status(group))
            .is_some_and(|s| s.role == Role::Leader)
    })
}

fn wait_for_group_leader(
    nodes: &[Option<ShardedNode>],
    group: GroupId,
    timeout: Duration,
) -> usize {
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(i) = group_leader(nodes, group) {
            return i;
        }
        // lint:allow(time): demo measures real wall-clock elapsed time on purpose
        assert!(Instant::now() < deadline, "no leader for {group}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Routes `cmd` by its key, proposes it through `node` and waits for it
/// to apply there: the owning group and the state machine's response.
fn shard_put(node: &ShardedNode, cmd: &KvCommand) -> Result<(GroupId, Bytes), ShardError> {
    let (group, index) = node.propose(cmd.key().as_bytes(), cmd.encode())?;
    Ok((group, node.await_applied(group, index)?))
}

/// Refreshes every live node's engine counters in the scraped registry
/// (one label set per `node` + `group`). The demo publishes at its
/// checkpoints rather than from a background thread, so a scrape between
/// checkpoints sees the last published state.
fn publish(metrics: &Option<(Arc<Registry>, ScrapeServer)>, nodes: &[Option<ShardedNode>]) {
    if let Some((registry, _)) = metrics {
        for node in nodes.iter().flatten() {
            node.publish_metrics(registry);
        }
    }
}

/// Prints the replication-pipeline counters a leader accumulated: how
/// proposals batched up and how long propose→commit took.
fn print_replication_metrics(status: &NodeStatus) {
    use escape::core::metrics::{BATCH_SIZE_BOUNDS, COMMIT_LATENCY_BOUNDS_MICROS};
    let m = &status.metrics;
    if m.propose_batches == 0 {
        return;
    }
    let mean = m.mean_batch_size().unwrap_or(0.0);
    println!(
        "replication: {} commands in {} batches (mean {:.1}/batch)",
        m.commands_proposed, m.propose_batches, mean
    );
    let batch_labels: Vec<String> = BATCH_SIZE_BOUNDS
        .iter()
        .map(|b| format!("≤{b}"))
        .chain(std::iter::once(format!(">{}", BATCH_SIZE_BOUNDS[BATCH_SIZE_BOUNDS.len() - 1])))
        .collect();
    let batches: Vec<String> = batch_labels
        .iter()
        .zip(m.batch_size_histogram.iter())
        .filter(|(_, n)| **n > 0)
        .map(|(l, n)| format!("{l}:{n}"))
        .collect();
    println!("  batch sizes   {}", batches.join("  "));
    if let Some(mean) = m.mean_commit_latency() {
        let lat_labels: Vec<String> = COMMIT_LATENCY_BOUNDS_MICROS
            .iter()
            .map(|b| {
                if *b >= 1000 {
                    format!("≤{}ms", b / 1000)
                } else {
                    format!("≤{b}µs")
                }
            })
            .chain(std::iter::once(format!(
                ">{}ms",
                COMMIT_LATENCY_BOUNDS_MICROS[COMMIT_LATENCY_BOUNDS_MICROS.len() - 1] / 1000
            )))
            .collect();
        let lats: Vec<String> = lat_labels
            .iter()
            .zip(m.commit_latency_histogram.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(l, n)| format!("{l}:{n}"))
            .collect();
        println!(
            "  commit latency mean {:.2} ms   {}",
            mean.as_millis_f64(),
            lats.join("  ")
        );
    }
}

/// Prints the linearizable-read counters and the transport's dropped-frame
/// tally (backpressure shedding to slow/dead peers).
fn print_read_metrics(status: &NodeStatus) {
    let m = &status.metrics;
    if m.read_batches > 0 {
        println!(
            "reads: {} served in {} batches ({} on the lease, {} via ReadIndex rounds, {} failed over)",
            m.reads_served, m.read_batches, m.lease_reads, m.quorum_reads, m.reads_failed
        );
    }
    if status.frames_dropped > 0 {
        println!(
            "transport: {} frames dropped by backpressure",
            status.frames_dropped
        );
    }
}

fn usage() -> ! {
    println!(
        "escape-demo — a live TCP ESCAPE cluster with a leader kill\n\
         \n\
         usage: escape-demo [nodes] [protocol] [shards] [--metrics <addr>]\n\
         \x20      escape-demo --chaos <seed> [--scenario <name>]\n\
         \n\
         \x20 nodes            cluster size (default 5)\n\
         \x20 protocol         escape | raft (default escape)\n\
         \x20 shards           consensus groups behind one keyspace (default 1)\n\
         \x20 --metrics <addr> serve Prometheus text exposition at <addr>\n\
         \x20 --chaos <seed>   replay one deterministic fault-campaign trial\n\
         \x20 --scenario <s>   campaign scenario for --chaos (default kitchen-sink)\n\
         \n\
         example — scrape the cluster while it runs:\n\
         \x20 escape-demo --metrics 127.0.0.1:9900 &\n\
         \x20 curl http://127.0.0.1:9900/metrics"
    );
    std::process::exit(0)
}

/// The interactive campaign reproducer: replays one `(scenario, seed)`
/// trial in the deterministic simulator and narrates the fault and
/// election lifecycle events from the typed per-node streams. The same
/// seed prints the same bytes every time — paste it from a nightly
/// campaign failure (or the regression corpus) to watch the run.
fn chaos_demo(seed: u64, scenario: &str) -> ! {
    use escape::cluster::campaign::{run_trial, scenario_plan, TrialOptions, SCENARIO_NAMES};

    let Some(plan) = scenario_plan(scenario) else {
        eprintln!(
            "unknown scenario {scenario:?}; known: {}",
            SCENARIO_NAMES.join(", ")
        );
        std::process::exit(2)
    };
    println!("chaos reproducer: scenario {scenario}, seed {seed}");
    println!("plan: {plan}");
    let outcome = run_trial(&plan, seed, &TrialOptions::default());
    const LIFECYCLE: &[&str] = &[
        "node_killed",
        "node_restarted",
        "campaign_started",
        "leader_elected",
        "first_commit",
        "fsync_lied",
        "io_error_injected",
        "disk_full",
        "wal_tail_truncated",
    ];
    for line in outcome.digest.lines() {
        if line.starts_with("node ") {
            println!("{line}");
        } else if LIFECYCLE.iter().any(|name| {
            line.split_whitespace().nth(1) == Some(name)
        }) {
            println!("  {line}");
        }
    }
    if outcome.passed() {
        println!("verdict: PASS — every invariant held");
        std::process::exit(0)
    }
    println!("verdict: FAIL");
    for failure in &outcome.failures {
        println!("  - {failure}");
    }
    std::process::exit(1)
}

/// A scratch data directory for one demo node (instrumented runs persist
/// for real so the WAL fsync series has samples).
fn scratch_data_dir(node: u32) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "escape-demo-{}-node-{node}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create demo data dir");
    dir
}

fn main() {
    let mut positional = Vec::new();
    let mut metrics_addr: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_scenario = "kitchen-sink".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--metrics" => {
                metrics_addr = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics needs an address, e.g. --metrics 127.0.0.1:9900");
                    std::process::exit(2)
                }));
            }
            "--chaos" => {
                let seed = args.next().and_then(|v| v.parse().ok());
                chaos_seed = Some(seed.unwrap_or_else(|| {
                    eprintln!("--chaos needs a seed, e.g. --chaos 42");
                    std::process::exit(2)
                }));
            }
            "--scenario" => {
                chaos_scenario = args.next().unwrap_or_else(|| {
                    eprintln!("--scenario needs a name, e.g. --scenario lying-disk");
                    std::process::exit(2)
                });
            }
            _ => positional.push(arg),
        }
    }
    if let Some(seed) = chaos_seed {
        chaos_demo(seed, &chaos_scenario);
    }
    let mut positional = positional.into_iter();
    let n: usize = positional
        .next()
        .map(|v| v.parse().expect("nodes: integer"))
        .unwrap_or(5);
    let protocol = positional.next().unwrap_or_else(|| "escape".to_string());
    let spec = match protocol.as_str() {
        "escape" => ProtocolSpec::escape_local(),
        "raft" => ProtocolSpec::raft_local(),
        other => panic!("unknown protocol {other:?} (escape|raft)"),
    };
    let shards: usize = positional
        .next()
        .map(|v| v.parse().expect("shards: integer"))
        .unwrap_or(1);

    let metrics = metrics_addr.map(|addr| {
        let registry = Arc::new(Registry::new());
        let server =
            ScrapeServer::serve(addr.as_str(), Arc::clone(&registry)).expect("bind metrics addr");
        println!(
            "metrics: curl http://{}/metrics  (Prometheus text exposition)",
            server.local_addr()
        );
        (registry, server)
    });

    if shards > 1 {
        return sharded_demo(n, protocol, spec, shards, metrics);
    }

    println!("starting {n}-node {protocol} cluster on loopback TCP…");
    let (addrs, listeners) = loopback_listeners(n);
    for (id, addr) in &addrs {
        println!("  {id} @ {addr}");
    }
    // One consensus group: a shard map of one, every key in group zero.
    let group = GroupId::ZERO;
    let kv = |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>;
    let mut nodes: Vec<Option<ShardedNode>> = (1..=n as u32)
        .map(|i| {
            let id = ServerId::new(i);
            let listener = listeners[&id].try_clone().expect("clone listener");
            Some(match &metrics {
                // Instrumented: real WAL (fsync series needs real
                // fsyncs), per-peer transport series, engine observer.
                Some((registry, _)) => ShardedNode::spawn_observed(
                    id,
                    listener,
                    addrs.clone(),
                    spec,
                    0xDE30,
                    ShardMap::uniform(1),
                    kv,
                    Some(&scratch_data_dir(i)),
                    NodeObs {
                        observer: Arc::new(NullObserver),
                        registry: Arc::clone(registry),
                        labels: Labels::new().with("node", i),
                    },
                ),
                None => ShardedNode::spawn(
                    id,
                    listener,
                    addrs.clone(),
                    spec,
                    0xDE30,
                    ShardMap::uniform(1),
                    kv,
                    None, // memory-only; pass a dir for durability
                ),
            })
        })
        .collect();

    let leader = wait_for_group_leader(&nodes, group, Duration::from_secs(10));
    let node = nodes[leader].as_ref().expect("live leader");
    let leader_id = node.id();
    println!("\nleader elected: {leader_id}");

    // A small write workload through the leader: one-at-a-time first,
    // then the same volume as a single batched burst.
    let put = |i: u32| KvCommand::Put {
        key: format!("account-{}", i % 4),
        value: Bytes::from(format!("balance={i}")),
    };
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t0 = Instant::now();
    for i in 0..20 {
        shard_put(node, &put(i)).expect("write committed");
    }
    println!(
        "20 writes committed over TCP in {:.0} ms (one at a time)",
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t0 = Instant::now();
    let batch: Vec<(Bytes, Bytes)> = (20..40)
        .map(|i| {
            let cmd = put(i);
            (Bytes::from(cmd.key().to_string()), cmd.encode())
        })
        .collect();
    let indexes: Vec<LogIndex> = node
        .propose_batch(batch)
        .into_iter()
        .map(|o| o.expect("batched write accepted").1)
        .collect();
    let last = *indexes.last().expect("non-empty batch");
    node.await_applied(group, last).expect("batch applied");
    println!(
        "20 writes committed over TCP in {:.0} ms (one pipelined batch)",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    if let Some(status) = node.status(group) {
        print_replication_metrics(&status);
    }

    // Linearizable read — off the log, via the leader's ReadIndex/lease
    // path (zero replication rounds while the lease holds).
    let query = KvCommand::Get {
        key: "account-3".into(),
    };
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t0 = Instant::now();
    let (_, raw) = node.read(b"account-3", query.encode()).expect("read");
    println!(
        "account-3 = {:?} (linearizable read in {:.2} ms, no log entry)",
        KvResponse::decode(&raw).expect("decode"),
        t0.elapsed().as_secs_f64() * 1000.0
    );
    if let Some(status) = node.status(group) {
        print_read_metrics(&status);
    }
    publish(&metrics, &nodes);

    // Kill the leader (hard stop of its threads, no goodbye to peers).
    println!("\n*** killing leader {leader_id} ***");
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t1 = Instant::now();
    nodes[leader].take().expect("live leader").kill();

    let new_leader = wait_for_group_leader(&nodes, group, Duration::from_secs(10));
    let node = nodes[new_leader].as_ref().expect("live leader");
    println!(
        "new leader {} after {:.0} ms",
        node.id(),
        t1.elapsed().as_secs_f64() * 1000.0
    );

    // The store still works and remembers everything: the new leader
    // serves the read (its first may need a ReadIndex confirm round —
    // leases never survive a handoff).
    let (_, raw) = node
        .read(b"account-3", query.encode())
        .expect("post-failover read");
    println!(
        "account-3 after failover = {:?}",
        KvResponse::decode(&raw).expect("decode")
    );
    let epilogue = KvCommand::Put {
        key: "epilogue".into(),
        value: Bytes::from_static(b"the cluster survived"),
    };
    let (_, raw) = shard_put(node, &epilogue).expect("post-failover write");
    println!("epilogue write committed: {:?}", KvResponse::decode(&raw));
    if let Some(status) = node.status(group) {
        print_read_metrics(&status);
    }
    publish(&metrics, &nodes);

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    if metrics.is_some() {
        for i in 1..=n as u32 {
            let _ = std::fs::remove_dir_all(scratch_data_dir(i));
        }
    }
    println!("\ndone.");
}

// ---- multi-shard mode ----

fn sharded_demo(
    n: usize,
    protocol: String,
    spec: ProtocolSpec,
    shards: usize,
    metrics: Option<(Arc<Registry>, ScrapeServer)>,
) {
    println!(
        "starting {n}-server {protocol} cluster hosting {shards} shards on loopback TCP…"
    );
    let (addrs, listeners) = loopback_listeners(n);
    let mut nodes: Vec<Option<ShardedNode>> = (1..=n as u32)
        .map(|i| {
            let id = ServerId::new(i);
            Some(ShardedNode::spawn(
                id,
                listeners[&id].try_clone().expect("clone listener"),
                addrs.clone(),
                spec,
                0xDE30,
                ShardMap::uniform(shards),
                |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
                None, // demo runs memory-only; pass a dir for durability
            ))
        })
        .collect();
    let groups: Vec<GroupId> = nodes[0].as_ref().unwrap().map().groups().collect();

    // Every shard elects its own leader; rotation spreads them.
    let mut leaders = std::collections::HashMap::new();
    for group in &groups {
        let leader = wait_for_group_leader(&nodes, *group, Duration::from_secs(10));
        let id = nodes[leader].as_ref().unwrap().id();
        println!("  {group} led by {id}");
        leaders.insert(*group, leader);
    }

    // A routed write workload, per-shard batched: keys are grouped by
    // the server leading their owning shard, and each server gets its
    // share as one `propose_batch` call (one coalesced replication round
    // per shard instead of one commit cycle per key).
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t0 = Instant::now();
    let mut per_group = vec![0usize; shards];
    let mut per_server: HashMap<usize, Vec<(Bytes, Bytes)>> = HashMap::new();
    for i in 0..40 {
        let cmd = KvCommand::Put {
            key: format!("account-{i}"),
            value: Bytes::from(format!("balance={i}")),
        };
        let owner = nodes[0].as_ref().unwrap().route(cmd.key().as_bytes());
        per_server
            .entry(leaders[&owner])
            .or_default()
            .push((Bytes::from(cmd.key().to_string()), cmd.encode()));
    }
    for (server, items) in per_server {
        let node = nodes[server].as_ref().unwrap();
        let mut last_per_group: HashMap<GroupId, escape::core::types::LogIndex> = HashMap::new();
        for outcome in node.propose_batch(items) {
            let (group, index) = outcome.expect("routed batched write commits");
            per_group[group.index()] += 1;
            last_per_group.insert(group, index);
        }
        for (group, index) in last_per_group {
            node.await_applied(group, index).expect("batch applied");
        }
    }
    println!(
        "40 writes committed across {shards} shards in {:.0} ms (distribution {per_group:?})",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    for group in &groups {
        if let Some(status) = nodes[leaders[group]].as_ref().unwrap().status(*group) {
            if status.metrics.propose_batches > 0 {
                print!("  {group} ");
                print_replication_metrics(&status);
            }
        }
    }
    publish(&metrics, &nodes);

    // A deliberately misrouted command comes back with a redirect.
    let any = nodes[0].as_ref().unwrap();
    let key = "account-0".to_string();
    let owner = any.route(key.as_bytes());
    let wrong = GroupId::from_index((owner.index() + 1) % shards);
    let probe_cmd = KvCommand::Put {
        key: key.clone(),
        value: Bytes::from_static(b"misrouted"),
    }
    .encode();
    match any.propose_to(wrong, key.as_bytes(), probe_cmd) {
        Err(ShardError::Redirect(redirect)) => println!("misrouted probe: {redirect}"),
        other => panic!("expected a redirect, got {other:?}"),
    }

    // Kill the server leading shard 0; unaffected shards keep committing
    // while the victim shard fails over.
    let victim_group = groups[0];
    let victim_server = leaders[&victim_group];
    let victim_id = nodes[victim_server].as_ref().unwrap().id();
    let unaffected: Vec<GroupId> = groups
        .iter()
        .copied()
        .filter(|g| leaders[g] != victim_server)
        .collect();
    println!("\n*** killing {victim_id}, leader of {victim_group} ***");
    // lint:allow(time): demo measures real wall-clock elapsed time on purpose
    let t1 = Instant::now();
    nodes[victim_server].take().unwrap().kill();

    let mut live_writes = 0usize;
    while group_leader(&nodes, victim_group).is_none() {
        assert!(
            t1.elapsed() < Duration::from_secs(20),
            "victim shard never failed over"
        );
        for group in &unaffected {
            let node = nodes[leaders[group]].as_ref().unwrap();
            let key = (0u64..)
                .map(|i| format!("failover-{live_writes}-{i}"))
                .find(|k| node.route(k.as_bytes()) == *group)
                .unwrap();
            let cmd = KvCommand::Put {
                key,
                value: Bytes::from_static(b"live"),
            };
            shard_put(node, &cmd).expect("unaffected shard keeps committing");
            live_writes += 1;
        }
    }
    let new_leader = wait_for_group_leader(&nodes, victim_group, Duration::from_secs(15));
    println!(
        "{} writes on {} unaffected shard(s) while {victim_group} failed over to {} in {:.0} ms",
        live_writes,
        unaffected.len(),
        nodes[new_leader].as_ref().unwrap().id(),
        t1.elapsed().as_secs_f64() * 1000.0
    );

    // The victim shard remembers everything (linearizable read).
    let node = nodes[new_leader].as_ref().unwrap();
    let probe = (0..40)
        .map(|i| format!("account-{i}"))
        .find(|k| node.route(k.as_bytes()) == victim_group)
        .expect("some account lives in the victim shard");
    let cmd = KvCommand::Get { key: probe.clone() };
    let (group, raw) = node
        .read(probe.as_bytes(), cmd.encode())
        .expect("post-failover read");
    assert_eq!(group, victim_group, "probe key must route to the victim shard");
    println!(
        "{probe} after failover = {:?} (linearizable read, no log entry)",
        KvResponse::decode(&raw).expect("decode")
    );
    publish(&metrics, &nodes);

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    println!("\ndone.");
}
