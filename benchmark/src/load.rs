//! The load generator of the client workloads: `G = min(nproc, 4)`
//! issuing threads sharing one `Client`, open loop (latency from the
//! intended start) or closed loop, zipfian keys, a read/write coin — all
//! drawn from `--seed`. In a traced run the same arrivals enter the
//! stack at three depths so each layer's time can be told apart.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use escape_client::{Client, Zipfian};
use escape_core::rand::{Rng64, SplitMix64};
use escape_core::types::{GroupId, ServerId};
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Decode, Encode, FrameReader, RequestBody,
    ResponseBody, CLIENT_HELLO,
};

use crate::cluster::{Cluster, KEYS};
use crate::kv;

/// Zipfian skew of the key popularity (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;

/// Issuing threads: never more than the machine has processors, and
/// never more than four.
pub fn generator_threads() -> usize {
    crate::pin::machine_cpus().min(4)
}

/// Where an arrival enters the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `Client::{put,get}`: every layer.
    Client,
    /// A benchmark-owned socket speaking client frames to the group's
    /// leader: skips `escape-client`.
    Raw,
    /// `ShardedNode::{propose + await_applied, read}` on the leader's
    /// handle: skips client, client wire and `ClientService`.
    Inproc,
}

/// One issued operation. Times are ns since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Arrival index, unique within the run; puts write it into their
    /// value.
    pub idx: u64,
    pub rank: u32,
    pub is_get: bool,
    pub entry: Entry,
    /// When the schedule wanted it issued (= `start_ns` in a closed loop).
    pub due_ns: u64,
    pub start_ns: u64,
    /// In-process puts only: when `propose` returned (0 otherwise).
    pub mid_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Op {
    /// What the caller waited, from the intended start.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }

    /// The call itself, without generator lateness.
    pub fn service_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Arrival `i` is due at `start + i / rate`, whatever the cluster does.
    Open { rate: f64 },
    /// Each thread issues its next operation when the last completed.
    Closed,
}

/// One stretch of load against a running cluster.
pub struct Phase<'a> {
    pub cluster: &'a Cluster,
    pub client: &'a Client,
    /// Leader of each group when the phase began (raw and in-process
    /// entries address it directly, and look it up again if it moved).
    pub leaders: &'a HashMap<GroupId, usize>,
    pub epoch: Instant,
    pub seed: u64,
    /// First arrival index; phases of one run use disjoint ranges.
    pub base_idx: u64,
    pub pace: Pace,
    pub duration: Duration,
    pub read_fraction: f64,
    /// Rotate arrivals over the three entries (`i % 4`: client, client,
    /// raw, in-process) instead of sending all through the client.
    pub rotate_entries: bool,
}

impl Phase<'_> {
    /// Runs the phase and returns every operation, by arrival index.
    pub fn run(&self) -> Vec<Op> {
        let threads = generator_threads();
        let zipf = Zipfian::new(KEYS as u64, ZIPF_THETA);
        let start = Instant::now() + Duration::from_millis(5);
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = start_ns + self.duration.as_nanos() as u64;
        let mut ops: Vec<Op> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let zipf = &zipf;
                    scope.spawn(move || self.issue_loop(t, threads, zipf, start_ns, end_ns))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        ops.sort_unstable_by_key(|op| op.idx);
        ops
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn issue_loop(
        &self,
        thread: usize,
        threads: usize,
        zipf: &Zipfian,
        start_ns: u64,
        end_ns: u64,
    ) -> Vec<Op> {
        let mut rng = SplitMix64::new(
            self.seed ^ (self.base_idx.wrapping_add(thread as u64 + 1)).wrapping_mul(0x9E37_79B9),
        );
        let mut probes = Probes {
            raw: RawConns::default(),
            leaders: self.leaders.clone(),
        };
        let mut ops = Vec::new();
        let mut i = thread as u64;
        loop {
            let due_ns = match self.pace {
                Pace::Open { rate } => start_ns + (i as f64 * 1e9 / rate) as u64,
                Pace::Closed => self.now_ns().max(start_ns),
            };
            if due_ns >= end_ns {
                return ops;
            }
            let now = self.now_ns();
            if now < due_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            let rank = zipf.sample(&mut rng) as u32;
            let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let is_get = coin < self.read_fraction;
            let entry = match (self.rotate_entries, i % 4) {
                (true, 2) => Entry::Raw,
                (true, 3) => Entry::Inproc,
                _ => Entry::Client,
            };
            let idx = self.base_idx + i;
            let begin = self.now_ns();
            let (ok, mid_ns) = self.issue(&mut probes, idx, rank, is_get, entry);
            ops.push(Op {
                idx,
                rank,
                is_get,
                entry,
                due_ns: match self.pace {
                    Pace::Open { .. } => due_ns,
                    Pace::Closed => begin,
                },
                start_ns: begin,
                mid_ns,
                end_ns: self.now_ns(),
                ok,
            });
            i += threads as u64;
        }
    }

    /// Issues one operation and checks its output: a put must apply to
    /// `KvResponse::Ok`, a get must return a value written for its key.
    fn issue(
        &self,
        probes: &mut Probes,
        idx: u64,
        rank: u32,
        is_get: bool,
        entry: Entry,
    ) -> (bool, u64) {
        let key = kv::key(rank);
        let payload = if is_get {
            kv::get(&key)
        } else {
            kv::put(&key, &kv::value(rank, idx))
        };
        let check = |reply: &Bytes| {
            if is_get {
                kv::get_writer(reply, rank).is_some()
            } else {
                kv::put_ok(reply)
            }
        };
        match entry {
            Entry::Client => {
                let reply = if is_get {
                    self.client.get(key.as_bytes(), payload).ok()
                } else {
                    self.client
                        .put(key.as_bytes(), payload)
                        .ok()
                        .map(|w| w.result)
                };
                (reply.is_some_and(|r| check(&r)), 0)
            }
            Entry::Raw | Entry::Inproc => {
                // Probes address the group's leader directly; should an
                // election move it (rare on the steady workloads, but a
                // stalled fsync can do it), look the leader up again.
                let group = self.cluster.map.owner(key.as_bytes());
                for attempt in 0..PROBE_ATTEMPTS {
                    if attempt > 0 {
                        std::thread::sleep(Duration::from_millis(10));
                        probes.leaders = self.cluster.leaders();
                    }
                    let Some(&server) = probes.leaders.get(&group) else {
                        continue;
                    };
                    let answer = if entry == Entry::Raw {
                        self.probe_raw(&mut probes.raw, server, group, &key, &payload, is_get)
                    } else {
                        self.probe_inproc(server, &key, &payload, is_get)
                    };
                    if let Some((reply, mid_ns)) = answer {
                        return (check(&reply), mid_ns);
                    }
                }
                (false, 0)
            }
        }
    }

    /// One request over the benchmark's own socket to `server`. `None`
    /// when that server did not answer as the group's leader.
    fn probe_raw(
        &self,
        raw: &mut RawConns,
        server: usize,
        group: GroupId,
        key: &str,
        payload: &Bytes,
        is_get: bool,
    ) -> Option<(Bytes, u64)> {
        let key = Bytes::copy_from_slice(key.as_bytes());
        let body = if is_get {
            RequestBody::Read {
                group,
                key,
                query: payload.clone(),
            }
        } else {
            RequestBody::Write {
                group,
                key,
                command: payload.clone(),
            }
        };
        match raw.request(self.cluster, server, body)? {
            ResponseBody::Written { result, .. } if !is_get => Some((result, 0)),
            ResponseBody::Value(value) if is_get => Some((value, 0)),
            _ => None,
        }
    }

    /// One operation on `server`'s `ShardedNode` handle, with the time
    /// `propose` returned for a put. `None` when it does not lead.
    fn probe_inproc(
        &self,
        server: usize,
        key: &str,
        payload: &Bytes,
        is_get: bool,
    ) -> Option<(Bytes, u64)> {
        let slot = self.cluster.nodes[server].read().expect("node slot");
        let node = slot.as_ref()?;
        if is_get {
            let (_, reply) = node.read(key.as_bytes(), payload.clone()).ok()?;
            Some((reply, 0))
        } else {
            let (group, index) = node.propose(key.as_bytes(), payload.clone()).ok()?;
            let mid_ns = self.now_ns();
            let reply = node.await_applied(group, index).ok()?;
            Some((reply, mid_ns))
        }
    }
}

/// What one generator thread keeps for its probes: its sockets and its
/// view of who leads each group.
struct Probes {
    raw: RawConns,
    leaders: HashMap<GroupId, usize>,
}

/// Tries per probe operation before it counts as failed.
const PROBE_ATTEMPTS: usize = 4;

/// One thread's benchmark-owned client-protocol sockets, one per server,
/// dialled on first use.
#[derive(Default)]
pub struct RawConns {
    conns: HashMap<usize, RawConn>,
}

struct RawConn {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl RawConns {
    /// One request, one response, synchronously. `None` on any socket
    /// error (the connection is dropped and redialled next time).
    pub fn request(
        &mut self,
        cluster: &Cluster,
        server: usize,
        body: RequestBody,
    ) -> Option<ResponseBody> {
        let conn = match self.conns.entry(server) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let addr = *cluster.addrs.get(&ServerId::new(server as u32 + 1))?;
                slot.insert(RawConn::dial(addr)?)
            }
        };
        let reply = conn.round_trip(body);
        if reply.is_none() {
            self.conns.remove(&server);
        }
        reply
    }
}

impl RawConn {
    /// Connects and sends the client hello.
    fn dial(addr: std::net::SocketAddr) -> Option<RawConn> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
        let mut hello = BytesMut::new();
        write_frame(&mut hello, CLIENT_HELLO);
        stream.write_all(&hello).ok()?;
        Some(RawConn {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        })
    }

    fn round_trip(&mut self, body: RequestBody) -> Option<ResponseBody> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = BytesMut::new();
        write_frame(&mut frame, &ClientRequest { id, body }.to_bytes());
        self.stream.write_all(&frame).ok()?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            while let Some(mut frame) = self.reader.next_frame().ok()? {
                let response = ClientResponse::decode(&mut frame).ok()?;
                if response.id == id {
                    return Some(response.body);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.reader.extend(&chunk[..n]),
            }
        }
    }
}

/// The result of reading back every key that had an acknowledged put.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadBack {
    /// Keys read.
    pub checked: u64,
    /// Keys whose read failed or returned a value never sent for them.
    pub wrong: u64,
    /// Keys returning a write that completed before the newest
    /// acknowledged put began — the at-least-once retry hazard. Counted,
    /// not failed: it is a known defect, not a benchmark error.
    pub stale: u64,
}

/// After the workload quiesces: every key with an acknowledged put must
/// read back a value that was sent for that key.
pub fn read_back(client: &Client, ops: &[Op]) -> ReadBack {
    let mut puts: HashMap<u32, Vec<&Op>> = HashMap::new();
    for op in ops.iter().filter(|op| !op.is_get) {
        puts.entry(op.rank).or_default().push(op);
    }
    let mut out = ReadBack::default();
    for (rank, sent) in puts {
        let Some(newest) = sent.iter().filter(|op| op.ok).max_by_key(|op| op.end_ns) else {
            continue;
        };
        out.checked += 1;
        let key = kv::key(rank);
        let writer = client
            .get(key.as_bytes(), kv::get(&key))
            .ok()
            .and_then(|reply| kv::get_writer(&reply, rank));
        // When the write being read back was over: never for one whose
        // acknowledgement was lost (it may still land), at time zero for
        // the preload.
        let done_ns = match writer {
            None => None,
            Some(w) if w == newest.idx => continue,
            Some(kv::PRELOAD) => Some(0),
            Some(w) => {
                sent.iter()
                    .find(|op| op.idx == w)
                    .map(|op| if op.ok { op.end_ns } else { u64::MAX })
            }
        };
        match done_ns {
            None => out.wrong += 1,
            Some(done) if done < newest.start_ns => out.stale += 1,
            Some(_) => {} // concurrent with the newest put: either order is legal
        }
    }
    out
}

/// Ascending milliseconds of `ops` passing `keep`, measured by `time`.
pub fn millis(ops: &[Op], keep: impl Fn(&Op) -> bool, time: impl Fn(&Op) -> u64) -> Vec<f64> {
    let mut out: Vec<f64> = ops
        .iter()
        .filter(|op| op.ok && keep(op))
        .map(|op| time(op) as f64 / 1e6)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}
