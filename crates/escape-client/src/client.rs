//! The shard-aware client: a cached [`ShardMap`] routes each key to its
//! owning group, per-group leader hints route the group to a server, and
//! a bounded retry loop absorbs redirects, leadership changes, and
//! failovers — with jittered exponential backoff so a dead shard gets
//! polite probing, not a retry storm.
//!
//! After a server fails an attempt (no answer, `Unavailable`, or a
//! `NotLeader` naming no leader it can reach), the group's hint is dropped
//! and the next attempt goes to the server after it in id order, never to
//! the one that just failed. The backoff is slept only once a whole pass
//! has failed — as many failures in a row as there are servers — so a
//! dead leader costs one hop to a survivor, not a sleep.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use escape_core::rand::{Rng64, SplitMix64};
use escape_core::types::{GroupId, LogIndex, ServerId};
use escape_shard::ShardMap;
use escape_transport::clock::monotonic_now;
use escape_wire::{RequestBody, ResponseBody};

use crate::conn::Conn;

/// Per-operation retry/timeout budgets.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// How long one attempt waits for its response before retrying
    /// elsewhere.
    pub request_timeout: Duration,
    /// Total wall-clock budget per operation across all attempts.
    pub op_budget: Duration,
    /// Attempt cap per operation (redirect-following included).
    pub max_attempts: u32,
    /// First backoff after an unavailability signal; doubles per
    /// consecutive failure. The actual sleep is jittered in
    /// `[backoff/2, backoff)` so a fleet of clients doesn't probe a
    /// recovering shard in lockstep.
    pub backoff_initial: Duration,
    /// Backoff cap.
    pub backoff_max: Duration,
    /// Seed for the jitter stream (vary per client for fleet diversity).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: Duration::from_millis(500),
            op_budget: Duration::from_secs(10),
            max_attempts: 32,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(400),
            seed: 1,
        }
    }
}

/// Why an operation gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The per-operation budget ([`ClientConfig::op_budget`]) ran out.
    BudgetExhausted,
    /// Every allowed attempt failed ([`ClientConfig::max_attempts`]).
    AttemptsExhausted,
    /// The client could not bootstrap a shard map from any server.
    NoMap,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BudgetExhausted => write!(f, "operation budget exhausted"),
            ClientError::AttemptsExhausted => write!(f, "every retry attempt failed"),
            ClientError::NoMap => write!(f, "no server produced a shard map"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A committed write's receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Written {
    /// The group the command committed in.
    pub group: GroupId,
    /// The log index it landed at.
    pub index: LogIndex,
    /// The state machine's apply result.
    pub result: Bytes,
}

/// The shard-aware client. One instance serves any number of threads;
/// connections, the shard map, and leader hints are shared.
#[derive(Debug)]
pub struct Client {
    /// Server ids ascending; the rotation order for leaderless probing.
    servers: Vec<ServerId>,
    conns: HashMap<ServerId, Conn>,
    map: Mutex<ShardMap>,
    leaders: Mutex<HashMap<GroupId, ServerId>>,
    rng: Mutex<SplitMix64>,
    config: ClientConfig,
}

impl Client {
    /// A client over `addrs` that trusts `map` as its starting shard map
    /// (possibly stale: redirects will correct it). No I/O happens here;
    /// connections are dialed on first use.
    pub fn with_map(
        addrs: &HashMap<ServerId, SocketAddr>,
        map: ShardMap,
        config: ClientConfig,
    ) -> Self {
        let mut servers: Vec<ServerId> = addrs.keys().copied().collect();
        servers.sort_unstable();
        let conns = addrs
            .iter()
            .map(|(id, addr)| (*id, Conn::new(*addr)))
            .collect();
        Client {
            servers,
            conns,
            map: Mutex::new(map),
            leaders: Mutex::new(HashMap::new()),
            rng: Mutex::new(SplitMix64::new(config.seed)),
            config,
        }
    }

    /// A client that bootstraps its shard map from the cluster: servers
    /// are asked in turn (within the op budget) until one answers
    /// `FetchMap`.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoMap`] when no server produced a valid map within
    /// the budget.
    pub fn connect(
        addrs: &HashMap<ServerId, SocketAddr>,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let client = Self::with_map(addrs, ShardMap::uniform(1), config);
        // The placeholder map must never route an operation: refresh
        // before returning.
        let deadline = monotonic_now() + client.config.op_budget;
        let mut backoff = client.config.backoff_initial;
        loop {
            if client.refresh_map(None) {
                return Ok(client);
            }
            if monotonic_now() >= deadline {
                return Err(ClientError::NoMap);
            }
            std::thread::sleep(client.jittered(backoff));
            backoff = (backoff * 2).min(client.config.backoff_max);
        }
    }

    /// The cached shard map's version.
    pub fn map_version(&self) -> u64 {
        self.map.lock().version()
    }

    /// The group the cached map routes `key` to.
    pub fn route(&self, key: &[u8]) -> GroupId {
        self.map.lock().owner(key)
    }

    /// Proposes `command` under `key` and waits for it to commit and
    /// apply, following redirects and leadership hints as needed.
    ///
    /// # Errors
    ///
    /// [`ClientError::BudgetExhausted`] / [`ClientError::AttemptsExhausted`]
    /// when the cluster stayed unreachable for the whole budget.
    pub fn put(&self, key: &[u8], command: Bytes) -> Result<Written, ClientError> {
        let key = Bytes::copy_from_slice(key);
        self.run(&key.clone(), |group| RequestBody::Write {
            group,
            key: key.clone(),
            command: command.clone(),
        })
        .map(|(group, body)| match body {
            ResponseBody::Written { index, result } => Written {
                group,
                index,
                result,
            },
            // `run` only returns Written/Value bodies.
            _ => Written {
                group,
                index: LogIndex::ZERO,
                result: Bytes::new(),
            },
        })
    }

    /// Linearizable read of `query` under `key`'s owning group.
    ///
    /// # Errors
    ///
    /// As [`Client::put`].
    pub fn get(&self, key: &[u8], query: Bytes) -> Result<Bytes, ClientError> {
        let key = Bytes::copy_from_slice(key);
        self.run(&key.clone(), |group| RequestBody::Read {
            group,
            key: key.clone(),
            query: query.clone(),
        })
        .map(|(_, body)| match body {
            ResponseBody::Value(value) => value,
            _ => Bytes::new(),
        })
    }

    /// The routed retry loop shared by reads and writes. Returns the
    /// terminal success body together with the group that produced it.
    fn run(
        &self,
        key: &[u8],
        make_body: impl Fn(GroupId) -> RequestBody,
    ) -> Result<(GroupId, ResponseBody), ClientError> {
        let deadline = monotonic_now() + self.config.op_budget;
        let mut backoff = self.config.backoff_initial;
        let mut rotation = 0usize;
        // Failures in the current pass (see `note_failure`).
        let mut failed = 0usize;
        for _ in 0..self.config.max_attempts {
            let now = monotonic_now();
            if now >= deadline {
                return Err(ClientError::BudgetExhausted);
            }
            let group = self.route(key);
            let server = self.pick(group, rotation);
            let wait = deadline
                .saturating_duration_since(now)
                .min(self.config.request_timeout);
            let response = self
                .conns
                .get(&server)
                .and_then(|conn| conn.request(make_body(group), wait));
            match response.map(|r| r.body) {
                Some(body @ (ResponseBody::Written { .. } | ResponseBody::Value(_))) => {
                    // This server answered for the group: remember it.
                    self.leaders.lock().insert(group, server);
                    return Ok((group, body));
                }
                Some(ResponseBody::Redirect {
                    owner, map_version, ..
                }) => {
                    // The key moved (or our map is stale). If the server
                    // knows a newer map, fetch it — preferring the server
                    // that told us, which certainly has it. Either way
                    // retry immediately: a redirect is information, not
                    // an outage.
                    if map_version > self.map_version() && !self.refresh_map(Some(server)) {
                        self.sleep_within(&mut backoff, deadline);
                    }
                    let _ = owner; // next attempt re-routes via the map
                }
                Some(ResponseBody::NotLeader { hint }) => match hint {
                    Some(leader) if self.conns.contains_key(&leader) => {
                        // Follow the hint immediately; no backoff.
                        self.leaders.lock().insert(group, leader);
                    }
                    _ => {
                        // Leaderless: the server held the request a whole
                        // election timeout floor and no leader emerged (a
                        // mid-failover server answers with the successor
                        // instead).
                        if self.note_failure(group, server, &mut rotation, &mut failed) {
                            self.sleep_within(&mut backoff, deadline);
                        }
                    }
                },
                Some(ResponseBody::Map(_)) | Some(ResponseBody::Unavailable) | None => {
                    // Connection failure, timeout, or a server that can't
                    // help. Back off once the pass is over — this is the
                    // path that must not storm a dead shard.
                    if self.note_failure(group, server, &mut rotation, &mut failed) {
                        self.sleep_within(&mut backoff, deadline);
                    }
                }
            }
        }
        Err(ClientError::AttemptsExhausted)
    }

    /// The server to try for `group`: its remembered leader if any,
    /// otherwise the one under the rotation cursor.
    fn pick(&self, group: GroupId, rotation: usize) -> ServerId {
        if let Some(leader) = self.leaders.lock().get(&group) {
            return *leader;
        }
        self.servers[rotation % self.servers.len()]
    }

    /// `server` failed an attempt for `group`: forgets the group's leader,
    /// moves the rotation cursor past `server`, and counts the failure
    /// into the pass. Returns `true` when that ends the pass — every
    /// server has failed once — and the backoff is due.
    fn note_failure(
        &self,
        group: GroupId,
        server: ServerId,
        rotation: &mut usize,
        failed: &mut usize,
    ) -> bool {
        self.leaders.lock().remove(&group);
        if let Ok(at) = self.servers.binary_search(&server) {
            *rotation = at + 1;
        }
        *failed = (*failed + 1) % self.servers.len();
        *failed == 0
    }

    /// Fetches the shard map — from `prefer` if given, else from every
    /// server in rotation — and installs it if it validates and is newer
    /// than the cached one. Returns whether a newer map was installed.
    fn refresh_map(&self, prefer: Option<ServerId>) -> bool {
        let order: Vec<ServerId> = prefer
            .into_iter()
            .chain(self.servers.iter().copied().filter(|s| Some(*s) != prefer))
            .collect();
        for server in order {
            let Some(conn) = self.conns.get(&server) else {
                continue;
            };
            let Some(response) = conn.request(RequestBody::FetchMap, self.config.request_timeout)
            else {
                continue;
            };
            if let ResponseBody::Map(wire) = response.body {
                if let Some(fresh) = ShardMap::from_wire(wire.version, wire.ranges) {
                    let mut map = self.map.lock();
                    // `>=`, not `>`: every server of one cluster serves
                    // the same map at a given version, so an equal-version
                    // install is idempotent — and bootstrap (whose
                    // placeholder shares version 1 with real deployments)
                    // depends on it.
                    if fresh.version() >= map.version() {
                        *map = fresh;
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Sleeps the jittered backoff (clamped to the remaining budget) and
    /// doubles it for next time.
    fn sleep_within(&self, backoff: &mut Duration, deadline: std::time::Instant) {
        let remaining = deadline.saturating_duration_since(monotonic_now());
        let nap = self.jittered(*backoff).min(remaining);
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
        *backoff = (*backoff * 2).min(self.config.backoff_max);
    }

    /// A uniform duration in `[d/2, d)` — half deterministic floor, half
    /// jitter, so backed-off clients spread out instead of thundering.
    fn jittered(&self, d: Duration) -> Duration {
        let micros = d.as_micros() as u64;
        if micros < 2 {
            return d;
        }
        let jitter = self.rng.lock().next_u64() % (micros / 2);
        Duration::from_micros(micros / 2 + jitter)
    }

    /// Closes every connection. The client can be used again (it will
    /// re-dial), but pending requests fail fast.
    pub fn disconnect(&self) {
        for conn in self.conns.values() {
            conn.disconnect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    use bytes::BytesMut;
    use escape_wire::{
        write_frame_with, ClientRequest, ClientResponse, Decode, Encode, FrameReader, CLIENT_HELLO,
    };

    /// `(server, arrival)` of every request the fake servers were sent.
    type Arrivals = Arc<Mutex<Vec<(ServerId, Instant)>>>;

    /// A server that answers every read at once: with `Unavailable`, or,
    /// when `live`, with the query as the value. Each request is logged in
    /// `arrivals`.
    fn fake_server(id: ServerId, live: bool, arrivals: &Arrivals) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let arrivals = Arc::clone(arrivals);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let arrivals = Arc::clone(&arrivals);
                thread::spawn(move || answer(stream, id, live, &arrivals));
            }
        });
        addr
    }

    fn answer(mut stream: TcpStream, id: ServerId, live: bool, arrivals: &Arrivals) {
        let mut frames = FrameReader::new();
        let mut chunk = [0u8; 4096];
        let mut hello = true;
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            frames.extend(&chunk[..n]);
            while let Ok(Some(mut frame)) = frames.next_frame() {
                if std::mem::take(&mut hello) {
                    assert_eq!(frame.as_ref(), CLIENT_HELLO);
                    continue;
                }
                let ClientRequest { id: request, body } =
                    ClientRequest::decode(&mut frame).unwrap();
                arrivals.lock().push((id, Instant::now()));
                let body = match body {
                    RequestBody::Read { query, .. } if live => ResponseBody::Value(query),
                    _ => ResponseBody::Unavailable,
                };
                let mut out = BytesMut::new();
                write_frame_with(&mut out, |buf| {
                    ClientResponse { id: request, body }.encode(buf)
                });
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
        }
    }

    /// A client of fake servers S1, S2, …, one per entry of `live`.
    fn client_of(live: &[bool], config: ClientConfig) -> (Client, Arrivals) {
        let arrivals = Arrivals::default();
        let addrs = live
            .iter()
            .enumerate()
            .map(|(i, &live)| {
                let id = ServerId::from_index(i);
                (id, fake_server(id, live, &arrivals))
            })
            .collect();
        (
            Client::with_map(&addrs, ShardMap::uniform(1), config),
            arrivals,
        )
    }

    #[test]
    fn a_failed_server_hands_the_retry_to_the_next_one_without_sleeping() {
        // S1 answers `Unavailable`, S2 leads. A backoff of 10 s would show.
        let config = ClientConfig {
            backoff_initial: Duration::from_secs(10),
            backoff_max: Duration::from_secs(10),
            op_budget: Duration::from_secs(60),
            ..ClientConfig::default()
        };
        let (client, arrivals) = client_of(&[false, true], config);
        let started = Instant::now();
        let value = client.get(b"k", Bytes::from_static(b"q")).unwrap();
        assert_eq!(value, Bytes::from_static(b"q"));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the client slept"
        );
        let servers: Vec<ServerId> = arrivals.lock().iter().map(|(id, _)| *id).collect();
        assert_eq!(servers, vec![ServerId::new(1), ServerId::new(2)]);
    }

    #[test]
    fn a_client_sleeps_once_per_pass_when_every_server_fails() {
        let backoff = Duration::from_millis(400);
        let config = ClientConfig {
            backoff_initial: backoff,
            backoff_max: backoff,
            max_attempts: 6,
            ..ClientConfig::default()
        };
        let (client, arrivals) = client_of(&[false, false], config);
        assert_eq!(
            client.get(b"k", Bytes::from_static(b"q")),
            Err(ClientError::AttemptsExhausted)
        );
        let arrivals = arrivals.lock();
        // Three passes of S1 then S2: the server that just failed is never
        // tried again at once.
        let servers: Vec<u32> = arrivals.iter().map(|(id, _)| id.get()).collect();
        assert_eq!(servers, vec![1, 2, 1, 2, 1, 2]);
        // A sleep (at least half the backoff) between passes, none within.
        let gaps: Vec<bool> = arrivals
            .windows(2)
            .map(|w| w[1].1 - w[0].1 >= backoff / 2)
            .collect();
        assert_eq!(gaps, vec![false, true, false, true, false]);
    }
}
