//! The shard-aware client: a cached [`ShardMap`] routes each key to its
//! owning group, per-group leader hints route the group to a server, and
//! a bounded retry loop absorbs redirects, leadership changes, and
//! failovers — with jittered exponential backoff so a dead shard gets
//! polite probing, not a retry storm.

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
        for _ in 0..self.config.max_attempts {
            let now = monotonic_now();
            if now >= deadline {
                return Err(ClientError::BudgetExhausted);
            }
            let group = self.route(key);
            let server = self.pick(group, &mut rotation);
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
                        // instead). Forget the hint and back off before
                        // probing again.
                        self.leaders.lock().remove(&group);
                        self.sleep_within(&mut backoff, deadline);
                    }
                },
                Some(ResponseBody::Map(_)) | Some(ResponseBody::Unavailable) | None => {
                    // Connection failure, timeout, or a server that can't
                    // help. Drop the leader hint and back off — this is
                    // the path that must not storm a dead shard.
                    self.leaders.lock().remove(&group);
                    self.sleep_within(&mut backoff, deadline);
                }
            }
        }
        Err(ClientError::AttemptsExhausted)
    }

    /// The server to try for `group`: its remembered leader if any,
    /// otherwise the rotation cursor walks the server list so consecutive
    /// leaderless attempts spread across the cluster.
    fn pick(&self, group: GroupId, rotation: &mut usize) -> ServerId {
        if let Some(leader) = self.leaders.lock().get(&group) {
            return *leader;
        }
        let server = self.servers[*rotation % self.servers.len()];
        *rotation += 1;
        server
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
