//! Probes of single layers, run after the traced window: one thread,
//! fixed iterations, each timing one public function in isolation so a
//! layer's cost can be told from its neighbours' (and the disk's from
//! the code's).

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bytes::{Bytes, BytesMut};

use escape_core::log::{Entry, Payload};
use escape_core::message::{AppendEntriesArgs, Message};
use escape_core::statemachine::StateMachine;
use escape_core::types::{GroupId, LogIndex, ServerId, Term};
use escape_kv::KvStateMachine;
use escape_shard::{group_data_dir, ShardMap};
use escape_storage::WalStorage;
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Decode, Encode, Envelope, FrameReader, RequestBody,
    ResponseBody,
};

use crate::cluster::{self, Cluster, ClusterShape, BATCH, KEYS};
use crate::kv;
use crate::load::RawConns;
use crate::report::RunResult;
use crate::stats::{percentile, sorted};

/// Mean ns per call of `f` over `iters` calls (after a tenth as warm-up).
fn mean_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    percentile(sorted(&mut samples), 0.50)
}

/// wire: the client codec (one put request framed + decoded, its
/// response framed + decoded) and the peer codec on a 128-entry
/// AppendEntries envelope.
fn wire(r: &mut RunResult) {
    let key = kv::key(7);
    let request = ClientRequest {
        id: 42,
        body: RequestBody::Write {
            group: GroupId::new(1),
            key: Bytes::from(key.clone().into_bytes()),
            command: kv::put(&key, &kv::value(7, 42)),
        },
    };
    let response = ClientResponse {
        id: 42,
        body: ResponseBody::Written {
            index: LogIndex::new(1000),
            result: escape_kv::KvResponse::Ok.encode(),
        },
    };
    let mut frame = BytesMut::new();
    write_frame(&mut frame, &request.to_bytes());
    r.set("wire.put_request_bytes", frame.len() as f64, 1);

    const ITERS: u32 = 20_000;
    let ns = mean_ns(ITERS, |_| {
        let mut reader = FrameReader::new();
        for message in [
            black_box(&request).to_bytes(),
            black_box(&response).to_bytes(),
        ] {
            let mut framed = BytesMut::new();
            write_frame(&mut framed, &message);
            reader.extend(&framed);
        }
        let mut a = reader.next_frame().expect("frame").expect("request frame");
        let mut b = reader.next_frame().expect("frame").expect("response frame");
        black_box(ClientRequest::decode(&mut a).expect("request decodes"));
        black_box(ClientResponse::decode(&mut b).expect("response decodes"));
    });
    r.set("wire.client_codec_ns", ns, ITERS as u64);

    let entries: Vec<Entry> = (0..BATCH as u64)
        .map(|i| {
            let key = kv::key(i as u32);
            Entry {
                term: Term::new(3),
                index: LogIndex::new(5000 + i),
                payload: Payload::Command(kv::put(&key, &kv::value(i as u32, i))),
            }
        })
        .collect();
    let envelope = Envelope {
        from: ServerId::new(1),
        group: GroupId::new(1),
        message: Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(3),
            leader_id: ServerId::new(1),
            prev_log_index: LogIndex::new(4999),
            prev_log_term: Term::new(3),
            entries,
            leader_commit: LogIndex::new(4990),
            new_config: None,
            seq: 77,
        }),
    };
    const ENVELOPES: u32 = 2_000;
    let ns = mean_ns(ENVELOPES, |_| {
        let mut bytes = black_box(&envelope).to_bytes();
        black_box(Envelope::decode(&mut bytes).expect("envelope decodes"));
    });
    r.set(
        "wire.append_codec_ns_per_entry",
        ns / BATCH as f64,
        ENVELOPES as u64 * BATCH as u64,
    );
}

/// kv: apply and query on an isolated 10 000-key state machine.
fn kv_machine(r: &mut RunResult) {
    let mut machine = KvStateMachine::new();
    let keys: Vec<String> = (0..KEYS).map(kv::key).collect();
    for (rank, key) in keys.iter().enumerate() {
        machine.apply(
            LogIndex::new(rank as u64 + 1),
            &kv::put(key, &kv::value(rank as u32, kv::PRELOAD)),
        );
    }
    let puts: Vec<Bytes> = keys
        .iter()
        .enumerate()
        .map(|(rank, key)| kv::put(key, &kv::value(rank as u32, 1)))
        .collect();
    let gets: Vec<Bytes> = keys.iter().map(|key| kv::get(key)).collect();
    const ITERS: u32 = 100_000;
    // A stride coprime with the key count walks the whole store.
    let pick = |i: u32| (i as usize * 7919) % KEYS as usize;
    let ns = mean_ns(ITERS, |i| {
        black_box(machine.apply(LogIndex::new(KEYS as u64 + i as u64), &puts[pick(i)]));
    });
    r.set("kv.apply_ns", ns, ITERS as u64);
    let ns = mean_ns(ITERS, |i| {
        black_box(machine.query(&gets[pick(i)]));
    });
    r.set("kv.query_ns", ns, ITERS as u64);
}

/// shard: routing one key through a two-group map.
fn route(r: &mut RunResult) {
    let map = ShardMap::uniform(2);
    let keys: Vec<String> = (0..1024).map(kv::key).collect();
    const ITERS: u32 = 200_000;
    let ns = mean_ns(ITERS, |i| {
        black_box(map.owner(keys[i as usize % keys.len()].as_bytes()));
    });
    r.set("shard.route_ns", ns, ITERS as u64);
}

/// storage: the benchmark's own 4 KiB append + `fdatasync` in `dir` —
/// what the disk charges for a barrier, whatever the WAL code does.
fn raw_fdatasync(r: &mut RunResult, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("raw-fdatasync.probe");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let block = [0xA5u8; 4096];
    let mut samples = Vec::new();
    for i in 0..60 {
        let start = Instant::now();
        file.write_all(&block).map_err(|e| e.to_string())?;
        file.sync_data().map_err(|e| e.to_string())?;
        if i >= 10 {
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(file);
    let _ = std::fs::remove_file(path);
    let n = samples.len() as u64;
    r.set("storage.raw_fdatasync_us", median_us(samples), n);
    Ok(())
}

/// transport: `FetchMap` over a benchmark-owned socket touches acceptor,
/// service and wire only — the transport floor under every request.
pub fn fetchmap(r: &mut RunResult, cluster: &Cluster) {
    let mut conns = RawConns::default();
    let mut samples = Vec::new();
    for i in 0..250 {
        let start = Instant::now();
        let reply = conns.request(cluster, 0, RequestBody::FetchMap);
        let took = start.elapsed();
        match reply {
            Some(ResponseBody::Map(_)) if i >= 50 => samples.push(took.as_nanos() as f64 / 1e3),
            Some(ResponseBody::Map(_)) => {}
            _ => {
                r.check(1, 1, "FetchMap probe got no map");
                return;
            }
        }
    }
    let n = samples.len() as u64;
    r.set("transport.fetchmap_rtt_us", median_us(samples), n);
}

/// shard: propose + await_applied on a one-server durable cluster — the
/// single-node baseline; replication's share of `shard.propose_apply_us`
/// is the difference.
fn single_node(r: &mut RunResult, seed: u64) -> Result<(), String> {
    let shape = ClusterShape {
        servers: 1,
        shards: 1,
        durable: true,
    };
    let cluster = Cluster::boot(shape, seed, "n1", None)?;
    cluster.await_leaders()?;
    let mut samples = Vec::new();
    {
        let slot = cluster.nodes[0].read().expect("node slot");
        let node = slot.as_ref().expect("single node is up");
        for i in 0..250u64 {
            let key = kv::key(i as u32);
            let command = kv::put(&key, &kv::value(i as u32, i));
            let start = Instant::now();
            let applied = node
                .propose(key.as_bytes(), command)
                .ok()
                .and_then(|(g, index)| node.await_applied(g, index).ok());
            let took = start.elapsed();
            if !applied.is_some_and(|reply| kv::put_ok(&reply)) {
                r.check(1, 1, "single-node put failed");
            } else if i >= 50 {
                samples.push(took.as_nanos() as f64 / 1e3);
            }
        }
    }
    cluster.teardown();
    let n = samples.len() as u64;
    r.set("shard.n1_propose_apply_us", median_us(samples), n);
    Ok(())
}

/// storage: `WalStorage::open` (full recovery) on one group's directory
/// of a stopped server.
pub fn recover_ms(group_dir: &Path) -> Option<f64> {
    let start = Instant::now();
    let opened = WalStorage::open(group_dir).ok()?;
    let took = start.elapsed();
    drop(opened);
    Some(took.as_secs_f64() * 1e3)
}

/// Every probe that needs no running cluster.
pub fn isolated(r: &mut RunResult, seed: u64) -> Result<(), String> {
    wire(r);
    kv_machine(r);
    route(r);
    // On the disk the data directories use.
    raw_fdatasync(r, &cluster::out_dir().join("data"))?;
    single_node(r, seed)
}

/// The end of a traced steady run: stops `cluster`, times recovery of
/// one group directory of server 1 (if durable), deletes the data and
/// runs the isolated probes.
pub fn after_window(r: &mut RunResult, cluster: Cluster, seed: u64) -> Result<(), String> {
    if let Some(root) = cluster.shutdown_keep_dir() {
        let dir = group_data_dir(&root.join("server-1"), GroupId::new(0));
        if let Some(ms) = recover_ms(&dir) {
            r.set("storage.recover_ms", ms, 1);
        }
        let _ = std::fs::remove_dir_all(root);
    }
    isolated(r, seed)
}
