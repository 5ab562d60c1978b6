//! Multi-shard TCP cluster tests: routing, redirects, and — the point of
//! sharding ESCAPE — failure isolation: killing one shard's leader must
//! not stall the other shards' client traffic while the victim shard
//! fails over.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use escape_core::statemachine::StateMachine;
use escape_core::storage::Storage;
use escape_core::types::{GroupId, Role, ServerId, Term};
use escape_kv::{KvCommand, KvResponse, KvStateMachine};
use escape_shard::{group_data_dir, ShardError, ShardMap, ShardSpawnOptions, ShardedNode};
use escape_storage::wal::list_segments;
use escape_storage::{WalOptions, WalStorage};
use escape_transport::spec::ProtocolSpec;
use escape_transport::tcp::loopback_listeners;
use escape_wire::{write_frame, ClientRequest, Encode, RequestBody, CLIENT_HELLO};

fn spawn_cluster(
    servers: usize,
    shards: usize,
    addrs: &HashMap<ServerId, SocketAddr>,
    listeners: &HashMap<ServerId, TcpListener>,
) -> Vec<ShardedNode> {
    (1..=servers as u32)
        .map(|i| {
            let id = ServerId::new(i);
            ShardedNode::spawn(
                id,
                listeners[&id].try_clone().expect("clone listener"),
                addrs.clone(),
                ProtocolSpec::escape_local(),
                0x5AD,
                ShardMap::uniform(shards),
                |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
                None,
            )
        })
        .collect()
}

/// The index (into `nodes`) of `group`'s current leader, if any.
fn leader_of(nodes: &[Option<ShardedNode>], group: GroupId) -> Option<usize> {
    nodes.iter().position(|n| {
        n.as_ref()
            .and_then(|n| n.status(group))
            .is_some_and(|s| s.role == Role::Leader)
    })
}

fn wait_for_all_leaders(
    nodes: &[Option<ShardedNode>],
    groups: &[GroupId],
    timeout: Duration,
) -> HashMap<GroupId, usize> {
    let deadline = Instant::now() + timeout;
    loop {
        let leaders: HashMap<GroupId, usize> = groups
            .iter()
            .filter_map(|g| leader_of(nodes, *g).map(|i| (*g, i)))
            .collect();
        if leaders.len() == groups.len() {
            return leaders;
        }
        assert!(
            Instant::now() < deadline,
            "not every group elected within {timeout:?} (got {leaders:?})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Put through the given server; the key must route to `group` there.
fn put(node: &ShardedNode, group: GroupId, key: &str, value: &[u8]) -> Result<(), ShardError> {
    let cmd = KvCommand::Put {
        key: key.to_string(),
        value: Bytes::copy_from_slice(value),
    };
    let index = node.propose_to(group, key.as_bytes(), cmd.encode())?;
    let raw = node.await_applied(group, index)?;
    assert_eq!(KvResponse::decode(&raw).unwrap(), KvResponse::Ok);
    Ok(())
}

/// Keys that route to `group` under `map`, lazily generated.
fn keys_for(map: &ShardMap, group: GroupId, count: usize) -> Vec<String> {
    (0u64..)
        .map(|i| format!("key-{i}"))
        .filter(|k| map.owner(k.as_bytes()) == group)
        .take(count)
        .collect()
}

#[test]
fn commands_route_and_redirect_over_tcp() {
    let (addrs, listeners) = loopback_listeners(3);
    let nodes: Vec<Option<ShardedNode>> = spawn_cluster(3, 3, &addrs, &listeners)
        .into_iter()
        .map(Some)
        .collect();
    let groups: Vec<GroupId> = nodes[0].as_ref().unwrap().map().groups().collect();
    let leaders = wait_for_all_leaders(&nodes, &groups, Duration::from_secs(10));

    // Correctly routed writes land.
    for group in &groups {
        let node = nodes[leaders[group]].as_ref().unwrap();
        for key in keys_for(node.map(), *group, 2) {
            put(node, *group, &key, b"routed").expect("routed write commits");
        }
    }

    // A misrouted command gets a redirect naming the right group.
    let any = nodes[0].as_ref().unwrap();
    let key = &keys_for(any.map(), groups[0], 1)[0];
    let wrong = groups[1];
    let err = any
        .propose_to(wrong, key.as_bytes(), KvCommand::Get { key: key.clone() }.encode())
        .expect_err("misroute must not reach the log");
    match err {
        ShardError::Redirect(redirect) => {
            assert_eq!(redirect.owner, groups[0]);
            assert_eq!(redirect.asked, wrong);
            assert_eq!(redirect.map_version, any.map().version());
        }
        other => panic!("expected a redirect, got {other:?}"),
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// The failure-isolation satellite: ≥3 shards, kill the server leading
/// one shard, and the other shards' client traffic must keep committing
/// — every write completing promptly — while ESCAPE fails the victim
/// shard over.
#[test]
fn killing_one_shards_leader_does_not_stall_the_others() {
    let shards = 4;
    let (addrs, listeners) = loopback_listeners(3);
    let mut nodes: Vec<Option<ShardedNode>> = spawn_cluster(3, shards, &addrs, &listeners)
        .into_iter()
        .map(Some)
        .collect();
    let groups: Vec<GroupId> = nodes[0].as_ref().unwrap().map().groups().collect();
    let leaders = wait_for_all_leaders(&nodes, &groups, Duration::from_secs(10));

    // Boot-priority rotation must have spread leadership: pick the victim
    // (group 0's leader server) and the groups led elsewhere.
    let victim_group = groups[0];
    let victim_server = leaders[&victim_group];
    let unaffected: Vec<GroupId> = groups
        .iter()
        .copied()
        .filter(|g| leaders[g] != victim_server)
        .collect();
    assert!(
        !unaffected.is_empty(),
        "leader rotation must place some group's leader off the victim server"
    );

    // Warm up: one write per unaffected group through its leader.
    for group in &unaffected {
        let node = nodes[leaders[group]].as_ref().unwrap();
        let key = &keys_for(node.map(), *group, 1)[0];
        put(node, *group, key, b"pre-kill").expect("pre-kill write");
    }

    nodes[victim_server].take().unwrap().kill();
    let killed_at = Instant::now();

    // Drive traffic on the unaffected shards for the whole failover
    // window (and at least 600 ms). Every write must succeed, promptly —
    // an election on the victim shard must not be visible here.
    let mut writes = 0usize;
    let mut slowest = Duration::ZERO;
    loop {
        for group in &unaffected {
            let node = nodes[leaders[group]].as_ref().unwrap();
            // Distinct keys per round, pinned to this (undisturbed) group.
            let key = keys_for(node.map(), *group, writes + 1)
                .pop()
                .expect("key for group");
            let started = Instant::now();
            let result = put(node, *group, &key, b"live");
            let took = started.elapsed();
            slowest = slowest.max(took);
            assert!(
                result.is_ok(),
                "write to unaffected {group} failed during victim failover: {result:?}"
            );
            assert!(
                took < Duration::from_secs(2),
                "write to unaffected {group} stalled for {took:?} during failover"
            );
            writes += 1;
        }
        let victim_recovered = leader_of(&nodes, victim_group).is_some();
        if victim_recovered && killed_at.elapsed() > Duration::from_millis(600) {
            break;
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(20),
            "victim shard never failed over"
        );
    }
    assert!(writes >= unaffected.len() * 2, "too few writes to call it traffic");

    // And the victim shard is healthy again: a write through its new
    // leader commits.
    let new_leader = leader_of(&nodes, victim_group).expect("victim shard re-elected");
    assert_ne!(new_leader, victim_server);
    let node = nodes[new_leader].as_ref().unwrap();
    let key = keys_for(node.map(), victim_group, 1).pop().unwrap();
    put(node, victim_group, &key, b"post-failover").expect("victim shard writes again");

    println!(
        "{writes} writes on {} unaffected shard(s) during failover; slowest {slowest:?}",
        unaffected.len()
    );

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// Per-shard batching: one `propose_batch` call with keys spanning every
/// shard routes each command to its owning group, coalesces per group,
/// and reports per-command outcomes in input order.
#[test]
fn propose_batch_routes_and_batches_per_shard() {
    let servers = 3;
    let shards = 3;
    let (addrs, listeners) = loopback_listeners(servers);
    let nodes: Vec<Option<ShardedNode>> =
        spawn_cluster(servers, shards, &addrs, &listeners)
            .into_iter()
            .map(Some)
            .collect();
    let groups: Vec<GroupId> = nodes[0].as_ref().unwrap().map().groups().collect();
    let leaders = wait_for_all_leaders(&nodes, &groups, Duration::from_secs(15));

    // Drive the batch through one server; it leads at least one group
    // (boot-priority rotation spreads the leaders).
    let server_index = *leaders.values().next().unwrap();
    let server = nodes[server_index].as_ref().unwrap();
    let led: Vec<GroupId> = groups
        .iter()
        .copied()
        .filter(|g| leaders[g] == server_index)
        .collect();
    assert!(!led.is_empty());

    let items: Vec<(Bytes, Bytes)> = (0..90)
        .map(|i| {
            let key = format!("batch-key-{i}");
            let cmd = KvCommand::Put {
                key: key.clone(),
                value: Bytes::from(format!("v{i}")),
            };
            (Bytes::from(key), cmd.encode())
        })
        .collect();
    let expected_groups: Vec<GroupId> = items
        .iter()
        .map(|(key, _)| server.route(key))
        .collect();
    let outcomes = server.propose_batch(items);
    assert_eq!(outcomes.len(), 90);

    let mut accepted: HashMap<GroupId, Vec<escape_core::types::LogIndex>> = HashMap::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        let expected = expected_groups[i];
        match outcome {
            Ok((group, index)) => {
                assert_eq!(*group, expected, "item {i} committed in the wrong shard");
                assert!(
                    led.contains(group),
                    "only locally led shards can accept here"
                );
                accepted.entry(*group).or_default().push(*index);
            }
            Err(ShardError::NotLeader { .. }) => {
                assert!(
                    !led.contains(&expected),
                    "item {i}: a locally led shard must not refuse"
                );
            }
            Err(other) => panic!("item {i}: unexpected outcome {other:?}"),
        }
    }
    // Every locally led shard accepted its share, at increasing indexes,
    // and applied through to the batch tail.
    for group in &led {
        let indexes = accepted.get(group).unwrap_or_else(|| {
            panic!("led shard {group} accepted nothing")
        });
        assert!(indexes.windows(2).all(|p| p[1] > p[0]), "indexes must increase");
        let last = *indexes.last().unwrap();
        server
            .await_applied(*group, last)
            .expect("batched tail must apply");
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// The observability satellite: publishing one server's per-group engine
/// metrics yields distinct per-group label sets in the registry, and the
/// registry's cross-group histogram aggregation merges them — the
/// merged count equals the sum of the per-group counts.
#[test]
fn published_group_histograms_merge_across_groups() {
    use escape_obs::{Labels, Registry};

    let shards = 3;
    let (addrs, listeners) = loopback_listeners(3);
    let nodes: Vec<Option<ShardedNode>> = spawn_cluster(3, shards, &addrs, &listeners)
        .into_iter()
        .map(Some)
        .collect();
    let groups: Vec<GroupId> = nodes[0].as_ref().unwrap().map().groups().collect();
    let leaders = wait_for_all_leaders(&nodes, &groups, Duration::from_secs(10));

    // Commit a few writes into every group through its leader so each
    // group's propose-batch histogram has samples.
    for group in &groups {
        let node = nodes[leaders[group]].as_ref().unwrap();
        for key in keys_for(node.map(), *group, 3) {
            put(node, *group, &key, b"observed").expect("write commits");
        }
    }

    for (server, node) in nodes.iter().enumerate() {
        let node = node.as_ref().unwrap();
        let registry = Registry::new();
        node.publish_metrics(&registry);

        // One label set per hosted group, each retaining its identity.
        let mut per_group_total = 0u64;
        for group in &groups {
            let labels = Labels::new()
                .with("node", node.id().get())
                .with("group", group.get());
            let batches = registry
                .counter_value("escape_propose_batches_total", &labels)
                .unwrap_or_else(|| {
                    panic!("server {server}: group {group} published no counter")
                });
            per_group_total += batches;
        }

        // The cross-group merge must account for every group's samples.
        let merged = registry
            .aggregate_histogram("escape_propose_batch_size")
            .expect("homogeneous histograms must merge");
        assert_eq!(
            merged.count, per_group_total,
            "server {server}: merged histogram count must equal the \
             sum of per-group batch counts"
        );
        // The leaders committed writes, so at least one group sampled.
        if leaders.values().any(|l| *l == server) {
            assert!(merged.count > 0, "server {server} led a group yet saw no batches");
        }

        // The exposition renders every group's series distinctly.
        let text = registry.render();
        for group in &groups {
            let needle = format!("group=\"{}\"", group.get());
            assert!(
                text.contains(&needle),
                "server {server}: render lacks {needle}"
            );
        }
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// `kill` joins every group's WAL thread after its node thread, so the
/// very next spawn on the same data root finds no live writer in either
/// shard's directory; and what a killed leader's WAL thread still had
/// queued was never part of an acknowledgement — every acked write reads
/// back, linearizably, after each of three kill-and-respawn cycles.
#[test]
fn kill_then_immediate_respawn_keeps_every_acked_write_in_both_shards() {
    let shards = 2;
    let (addrs, listeners) = loopback_listeners(3);
    let roots: Vec<std::path::PathBuf> = (1..=3)
        .map(|i| {
            std::env::temp_dir().join(format!("escape-shard-respawn-{}-{i}", std::process::id()))
        })
        .collect();
    let spawn = |i: usize| {
        let id = ServerId::new(i as u32 + 1);
        ShardedNode::spawn(
            id,
            listeners[&id].try_clone().expect("clone listener"),
            addrs.clone(),
            ProtocolSpec::escape_local(),
            0x5AD,
            ShardMap::uniform(shards),
            |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
            Some(&roots[i]),
        )
    };
    let mut nodes: Vec<Option<ShardedNode>> = (0..3).map(|i| Some(spawn(i))).collect();
    let map = ShardMap::uniform(shards);
    let groups: Vec<GroupId> = map.groups().collect();
    let keys: HashMap<GroupId, Vec<String>> = groups
        .iter()
        .map(|g| (*g, keys_for(&map, *g, 20)))
        .collect();

    for cycle in 0..3u8 {
        // Leadership may still be settling after the previous respawn: a
        // refused or abandoned put is retried (puts are idempotent) until
        // one is acknowledged.
        for group in &groups {
            for key in &keys[group] {
                let deadline = Instant::now() + Duration::from_secs(15);
                while !leader_of(&nodes, *group)
                    .and_then(|i| nodes[i].as_ref())
                    .is_some_and(|node| put(node, *group, key, &[cycle]).is_ok())
                {
                    assert!(Instant::now() < deadline, "no leader acknowledged {key}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let leaders = wait_for_all_leaders(&nodes, &groups, Duration::from_secs(15));

        // Killed the instant the last write is acknowledged; respawned
        // on the same directories at once.
        let victim = leaders[&groups[0]];
        nodes[victim].take().unwrap().kill();
        nodes[victim] = Some(spawn(victim));

        for group in &groups {
            for key in &keys[group] {
                let query = KvCommand::Get { key: key.clone() }.encode();
                // Whoever leads now answers once its no-op has committed.
                let deadline = Instant::now() + Duration::from_secs(15);
                let raw = loop {
                    let answer = leader_of(&nodes, *group)
                        .and_then(|i| nodes[i].as_ref())
                        .and_then(|node| node.read(key.as_bytes(), query.clone()).ok());
                    if let Some((_, raw)) = answer {
                        break raw;
                    }
                    assert!(Instant::now() < deadline, "no leader answered a read of {key}");
                    std::thread::sleep(Duration::from_millis(10));
                };
                assert_eq!(
                    KvResponse::decode(&raw).unwrap(),
                    KvResponse::Value(Some(Bytes::copy_from_slice(&[cycle]))),
                    "cycle {cycle}: acked write to {key} lost"
                );
            }
        }
    }
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Spawn is all-or-nothing. A two-group data root whose second group
/// cannot be recovered (bit rot in a segment that is not the newest is no
/// crash artefact, so the open refuses) makes the spawn panic — and the
/// caller, who got no handle, must not be left with an acceptor answering
/// clients and the first group's engine voting, which nobody could ever
/// shut down.
#[test]
fn a_group_that_cannot_recover_leaves_nothing_running() {
    let (addrs, listeners) = loopback_listeners(3);
    let root =
        std::env::temp_dir().join(format!("escape-shard-half-spawn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = group_data_dir(&root, GroupId::new(1));
    {
        // A tiny rotation cap spreads the records over several segments.
        let options = WalOptions {
            segment_max_bytes: 64,
            fsync: false,
        };
        let (mut storage, _) = WalStorage::open_with(&dir, options).expect("fresh directory");
        for term in 1..=10 {
            storage
                .persist_hard_state(Term::new(term), None)
                .expect("persist");
        }
        storage.sync().expect("sync");
    }
    let (_, oldest) = list_segments(&dir).expect("list segments").remove(0);
    let mut raw = std::fs::read(&oldest).expect("read segment");
    let rotten = raw.len() - 2;
    raw[rotten] ^= 0xFF;
    std::fs::write(&oldest, raw).expect("write segment");

    let id = ServerId::new(1);
    let spawned = std::panic::catch_unwind(|| {
        ShardedNode::spawn_with(
            id,
            listeners[&id].try_clone().expect("clone listener"),
            addrs.clone(),
            ProtocolSpec::escape_local(),
            0x5AD,
            ShardMap::uniform(2),
            |_group| Box::new(KvStateMachine::new()) as Box<dyn StateMachine>,
            Some(&root),
            ShardSpawnOptions {
                serve_clients: true,
                ..ShardSpawnOptions::default()
            },
        )
    });
    assert!(spawned.is_err(), "an unrecoverable group must fail the spawn");

    // The test still holds the listener, so the connection lands in its
    // backlog; only a leaked acceptor could pick it up and answer.
    let mut client = TcpStream::connect(addrs[&id]).expect("connect");
    let mut frames = BytesMut::new();
    write_frame(&mut frames, CLIENT_HELLO);
    let fetch = ClientRequest {
        id: 1,
        body: RequestBody::FetchMap,
    };
    write_frame(&mut frames, &fetch.to_bytes());
    client.write_all(&frames).expect("send hello + FetchMap");
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("read timeout");
    let answer = client.read(&mut [0u8; 64]);
    assert!(
        answer.is_err(),
        "a failed spawn left something answering clients: read {answer:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}
