//! TCP transport: a full mesh of length-prefixed framed connections using
//! the `escape-wire` codec, multiplexing any number of consensus groups
//! over one socket per peer pair.
//!
//! The mesh splits into three reusable pieces:
//!
//! * [`TcpMesh`] — the outbound side: one socket per peer, shared by
//!   every group hosted in the process. Frames are buffered (bounded)
//!   per peer while its socket is down, and a background flusher keeps
//!   every link connected, with exponential backoff between failed
//!   dials.
//! * [`GroupOutbound`] — a per-group handle that stamps its [`GroupId`]
//!   into each [`Envelope`], which is how receivers demultiplex.
//! * [`Acceptor`] + [`GroupRoutes`] — the inbound side: one acceptor per
//!   process, reader threads that parse frames and route each envelope
//!   to the inbox of the group it names.
//!
//! `escape-shard`'s `ShardedNode` — the one node type — wires the three
//! together for the N groups it hosts (a single-group deployment is a
//! shard map of one, everything riding [`GroupId::ZERO`]).
//!
//! **A link lives exactly as long as its peer's incarnation.** A frame
//! written into a socket whose far end belongs to a dead incarnation is
//! lost without an error, and a follower sends a fellow follower nothing
//! until the `RequestVote` of a failover — the one frame the protocol
//! cannot afford to lose. So:
//!
//! * closing an [`Acceptor`] (`kill`/`shutdown`) closes every peer
//!   connection it accepted and joins their readers; the far end sees
//!   EOF at once instead of a socket that swallows its next frame;
//! * an outbound socket carries no inbound traffic, so anything readable
//!   on it is the peer's FIN or RST: the flusher's scan peeks every
//!   connected link and marks a dead one broken within one
//!   [`FLUSH_INTERVAL`], without spending a frame to find out;
//! * the flusher dials every link that is down and past its backoff,
//!   frames pending or not, so the first frame to a peer never waits for
//!   a connect. The price: a peer that stays dead is dialled once per
//!   backoff step (capped at [`BACKOFF_MAX`]) by every server, not only
//!   by a leader whose heartbeats kept its queue non-empty;
//! * the first envelope on a new inbound connection from a peer clears
//!   the backoff of the outbound link to it ([`TcpMesh::peer_seen`]): a
//!   restarted process is re-dialled when it shows up, not a backoff cap
//!   later.
//!
//! Client connections are not part of this: the dead incarnation's
//! `ClientService` threads keep answering `Unavailable`, which (while
//! the caller holds the listener open, so that re-dials land in a
//! backlog nobody reads) is what tells a client to move on.
//!
//! Listeners are **bound by the caller and passed in** (see
//! [`loopback_listeners`]): binding inside `spawn` from a probed address
//! was a TOCTOU race (another process could take the port between probe
//! and bind), and holding the listener outside the node is also what lets
//! a killed node be restarted on the same address without rebinding — the
//! kill-and-restart durability test depends on it.
//!
//! With a `data_dir`, the node persists term/vote/log/configuration
//! through `escape-storage` and recovers them on the next spawn from the
//! same directory; the engine syncs the WAL before any promise it made
//! (a vote, an ack, a configuration clock) is handed to this transport,
//! so a vote a peer has seen is always on disk. A leader's own log
//! appends are the one exception — see [`crate::wal`] — and
//! [`recover_group`] + [`start_group`] are the one place that wires a
//! group's storage up.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use escape_core::engine::NodeBuilder;
use escape_core::message::Message;
use escape_core::storage::{RecoveredState, Storage};
use escape_core::types::{GroupId, ServerId};
use escape_obs::{Counter, Event, Gauge, Labels, Observer, Registry};
use escape_storage::{WalInstruments, WalStorage};
use escape_wire::{write_frame, Decode, Encode, Envelope, FrameReader, CLIENT_HELLO};

use crate::clock::RuntimeClock;
use crate::runtime::{node_loop, NodeInput, Outbound};
use crate::service::ClientService;
use crate::wal::spawn_wal_thread;

/// How long one connect attempt may block.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// First retry delay after a failed connect or broken send.
const BACKOFF_INITIAL: Duration = Duration::from_millis(25);
/// Retry delays double up to this cap.
const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Per-peer cap on buffered outbound bytes while disconnected; beyond it
/// the oldest frames are dropped (loss the protocol already tolerates).
const PENDING_MAX_BYTES: usize = 1 << 20;
/// How often the background flusher scans every link: probes the
/// connected ones for a departed peer, drains leftovers, dials the rest.
const FLUSH_INTERVAL: Duration = Duration::from_millis(20);
/// How many queued frames one `write_vectored` gathers per attempt.
const WRITEV_MAX_FRAMES: usize = 64;

/// Observability bundle a transport node (or mesh) is spawned with: the
/// typed-event sink plus the metrics registry and the base label set
/// (`node`, plus `group` when sharded) its series are registered under.
#[derive(Clone, Debug)]
pub struct NodeObs {
    /// Receives [`Event`]s (frame drops, peer connects/disconnects, and —
    /// via the engine — elections, leases, WAL barriers).
    pub observer: Arc<dyn Observer>,
    /// Registry the transport/storage instruments register into.
    pub registry: Arc<Registry>,
    /// Base labels; per-peer series append a `peer` label.
    pub labels: Labels,
}

/// Per-peer observability hooks carried inside the [`PeerLink`], so the
/// drop and reconnect sites can emit while already holding the `link`
/// lock (the event ring's `events` lock sits below `link` in the lock
/// manifest).
#[derive(Clone, Debug)]
struct LinkInstruments {
    observer: Arc<dyn Observer>,
    /// Timestamps for emitted events: monotonic µs since mesh start.
    clock: RuntimeClock,
    peer: u32,
    /// Frames shed toward this peer (queue bound + broken partials).
    dropped_total: Arc<Counter>,
    /// Shed frames per million enqueued — the drop *rate*, readable
    /// without rate() support on the scraper side.
    drop_ppm: Arc<Gauge>,
    /// Bytes currently queued for this peer.
    queue_depth: Arc<Gauge>,
    /// Fresh connections installed by the flusher (first connect counts).
    reconnects: Arc<Counter>,
}

impl LinkInstruments {
    fn register(obs: &NodeObs, clock: RuntimeClock, peer: ServerId) -> Self {
        let labels = obs.labels.clone().with("peer", peer.get());
        LinkInstruments {
            observer: Arc::clone(&obs.observer),
            clock,
            peer: peer.get(),
            dropped_total: obs
                .registry
                .counter("escape_transport_frames_dropped_total", &labels),
            drop_ppm: obs
                .registry
                .gauge("escape_transport_frame_drop_ppm", &labels),
            queue_depth: obs
                .registry
                .gauge("escape_transport_queue_depth_bytes", &labels),
            reconnects: obs
                .registry
                .counter("escape_transport_reconnects_total", &labels),
        }
    }

    fn emit(&self, event: Event) {
        if self.observer.enabled() {
            self.observer.record(self.clock.now().as_micros(), event);
        }
    }
}

/// One peer's outbound state: the live socket (if any, in non-blocking
/// mode), frames buffered while the socket is down or full, and the
/// reconnect backoff schedule.
///
/// The invariant that keeps node threads responsive: **nothing here ever
/// blocks**. Sends enqueue and then opportunistically drain with
/// non-blocking writes; connecting (which can block for the connect
/// timeout) happens only on the mesh's flusher thread. A peer that is
/// dead — or worse, alive at the TCP level but reading nothing, so its
/// socket buffers fill — can therefore never stall a consensus thread
/// (or, through the per-peer lock, every group's thread at once).
#[derive(Debug, Default)]
struct PeerLink {
    stream: Option<TcpStream>,
    pending: VecDeque<Bytes>,
    /// How many bytes of `pending.front()` already went into the socket.
    front_offset: usize,
    pending_bytes: usize,
    /// Earliest instant the next connect attempt is allowed.
    next_attempt: Option<Instant>,
    backoff: Option<Duration>,
    /// Frames shed by the bound or a broken connection — the drops that
    /// used to be silent. Monotone over the link's lifetime.
    dropped: u64,
    /// Frames ever enqueued, the drop-rate denominator. Monotone.
    enqueued: u64,
    /// Observability hooks; `None` keeps the link untouched.
    obs: Option<LinkInstruments>,
}

impl PeerLink {
    /// Counts one shed frame in the local tally and, when instrumented,
    /// on the registry (total + refreshed per-million rate) and the event
    /// stream.
    fn note_dropped(&mut self) {
        self.dropped += 1;
        if let Some(obs) = &self.obs {
            obs.dropped_total.inc();
            if let Some(ppm) = self
                .dropped
                .saturating_mul(1_000_000)
                .checked_div(self.enqueued)
            {
                obs.drop_ppm.set(ppm);
            }
            obs.emit(Event::FrameDropped { peer: obs.peer });
        }
    }

    /// Refreshes the queue-depth gauge (no-op when uninstrumented).
    fn note_queue_depth(&self) {
        if let Some(obs) = &self.obs {
            obs.queue_depth.set(self.pending_bytes as u64);
        }
    }

    fn enqueue(&mut self, frame: Bytes) {
        self.pending_bytes += frame.len();
        self.pending.push_back(frame);
        self.enqueued += 1;
        // Bounded: drop the oldest *whole* frames — never the front one
        // while it is partially written, or the stream would carry half a
        // frame and desync the receiver's framing.
        while self.pending_bytes > PENDING_MAX_BYTES && self.pending.len() > 1 {
            let idx = usize::from(self.front_offset > 0);
            if idx >= self.pending.len() {
                break;
            }
            let Some(dropped) = self.pending.remove(idx) else {
                break;
            };
            self.pending_bytes -= dropped.len();
            self.note_dropped();
        }
        self.note_queue_depth();
    }

    /// Drains as much pending data as the socket accepts right now,
    /// writev-style: each attempt gathers up to [`WRITEV_MAX_FRAMES`]
    /// queued frames into one `write_vectored` call, so a burst of small
    /// envelopes (a batched replication round) costs one syscall instead
    /// of one per frame. Returns `Err` when the connection is broken
    /// (caller marks it).
    fn try_flush(&mut self) -> std::io::Result<()> {
        while !self.pending.is_empty() {
            let Some(stream) = self.stream.as_mut() else {
                return Ok(()); // disconnected: flusher will reconnect
            };
            let mut slices: Vec<std::io::IoSlice<'_>> =
                Vec::with_capacity(self.pending.len().min(WRITEV_MAX_FRAMES));
            for (i, frame) in self.pending.iter().take(WRITEV_MAX_FRAMES).enumerate() {
                let from = if i == 0 { self.front_offset } else { 0 };
                // lint:allow(panic): front_offset < front frame len (partial-write invariant)
                slices.push(std::io::IoSlice::new(&frame[from..]));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    // Consume `n` bytes across the queued frames.
                    while n > 0 {
                        let Some(front) = self.pending.front() else {
                            break;
                        };
                        let remaining = front.len() - self.front_offset;
                        if n >= remaining {
                            n -= remaining;
                            self.pending_bytes -= front.len();
                            self.front_offset = 0;
                            self.pending.pop_front();
                        } else {
                            self.front_offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.note_queue_depth();
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.note_queue_depth();
        Ok(())
    }

    /// Records a failure: drops the socket and schedules the next
    /// attempt. A partially written front frame is dropped with the
    /// socket — its prefix died in the old stream, and replaying the rest
    /// on a fresh connection would desync the receiver's framing.
    fn mark_broken(&mut self, now: Instant) {
        let was_connected = self.stream.is_some();
        self.stream = None;
        if self.front_offset > 0 {
            if let Some(partial) = self.pending.pop_front() {
                self.pending_bytes -= partial.len();
                self.note_dropped();
            }
            self.front_offset = 0;
        }
        if was_connected {
            // A live connection broke (not just another failed connect
            // attempt during backoff — those would spam the stream).
            if let Some(obs) = &self.obs {
                obs.emit(Event::PeerDisconnected { peer: obs.peer });
            }
        }
        self.note_queue_depth();
        let backoff = self.backoff.unwrap_or(BACKOFF_INITIAL);
        self.next_attempt = Some(now + backoff);
        self.backoff = Some((backoff * 2).min(BACKOFF_MAX));
    }

    /// Records a working connection: clears the backoff schedule.
    fn mark_healthy(&mut self) {
        self.next_attempt = None;
        self.backoff = None;
        if let Some(obs) = &self.obs {
            obs.reconnects.inc();
            obs.emit(Event::PeerConnected { peer: obs.peer });
        }
    }

    fn may_attempt(&self, now: Instant) -> bool {
        self.next_attempt.map_or(true, |at| now >= at)
    }

    /// `true` when the connected socket's far end has gone away. The peer
    /// never writes on this socket (its traffic arrives on the connection
    /// *it* dialled), so readable means FIN, RST or a stranger — and the
    /// socket is non-blocking, so asking costs one syscall.
    fn peer_gone(&self) -> bool {
        let Some(stream) = &self.stream else {
            return false;
        };
        match stream.peek(&mut [0u8; 1]) {
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ),
            Ok(_) => true,
        }
    }
}

/// The outbound half of a TCP mesh: one connection per peer, shared by
/// every consensus group in the process, with reconnect-with-backoff and
/// bounded buffering while a peer is down.
///
/// Writes to one peer are serialized under that peer's lock, so frames
/// from different groups never interleave mid-frame on the wire — and
/// every write is non-blocking, so a slow or dead peer never stalls the
/// sending threads (see [`PeerLink`]).
#[derive(Debug)]
pub struct TcpMesh {
    from: ServerId,
    peers: HashMap<ServerId, (SocketAddr, Mutex<PeerLink>)>,
    stop: AtomicBool,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl TcpMesh {
    /// Creates the mesh for server `from` given every peer's listen
    /// address (`from` itself may appear; it is skipped) and starts the
    /// background connect-and-flush thread.
    pub fn start(from: ServerId, addrs: &HashMap<ServerId, SocketAddr>) -> Arc<TcpMesh> {
        Self::start_inner(from, addrs, None)
    }

    /// [`TcpMesh::start`] with per-peer instrumentation: each link gets
    /// `escape_transport_*` series labelled with its peer id and emits
    /// connectivity/drop events into `obs.observer`. Registration (which
    /// takes the registry's `series` lock) happens here, before any link
    /// lock exists — under the link guard only atomic updates remain.
    pub fn start_observed(
        from: ServerId,
        addrs: &HashMap<ServerId, SocketAddr>,
        obs: NodeObs,
    ) -> Arc<TcpMesh> {
        Self::start_inner(from, addrs, Some(obs))
    }

    fn start_inner(
        from: ServerId,
        addrs: &HashMap<ServerId, SocketAddr>,
        obs: Option<NodeObs>,
    ) -> Arc<TcpMesh> {
        let clock = RuntimeClock::start();
        let peers = addrs
            .iter()
            .filter(|(id, _)| **id != from)
            .map(|(id, addr)| {
                let link = PeerLink {
                    obs: obs
                        .as_ref()
                        .map(|obs| LinkInstruments::register(obs, clock, *id)),
                    ..PeerLink::default()
                };
                (*id, (*addr, Mutex::new(link)))
            })
            .collect();
        let mesh = Arc::new(TcpMesh {
            from,
            peers,
            stop: AtomicBool::new(false),
            flusher: Mutex::new(None),
        });
        let worker = Arc::clone(&mesh);
        let handle = std::thread::Builder::new()
            .name(format!("escape-tcp-flush-{}", from.get()))
            .spawn(move || worker.flush_loop())
            // lint:allow(panic): thread-spawn failure at startup is fatal by design
            .expect("spawn mesh flusher");
        *mesh.flusher.lock() = Some(handle);
        mesh
    }

    /// The server this mesh sends as.
    pub fn from(&self) -> ServerId {
        self.from
    }

    /// Sends one pre-framed message to `to`: enqueued, then drained as
    /// far as the socket accepts without blocking. Connecting is the
    /// flusher thread's job, so a down peer costs the sender nothing but
    /// the enqueue.
    pub fn send_frame(&self, to: ServerId, frame: Bytes) {
        let Some((_, link)) = self.peers.get(&to) else {
            return; // unknown peer == lost message
        };
        let mut link = link.lock();
        link.enqueue(frame);
        if link.stream.is_some() && link.try_flush().is_err() {
            link.mark_broken(crate::clock::monotonic_now());
        }
    }

    /// Connects to a peer — flusher thread only, and **never under the
    /// peer lock**: this is the one blocking call in the mesh (up to the
    /// connect timeout), and holding the lock through it would park every
    /// group's `send_frame` to that peer for the duration — exactly the
    /// cross-group stall the non-blocking design exists to prevent.
    fn connect(addr: SocketAddr) -> Option<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).ok()?;
        Some(stream)
    }

    fn flush_loop(&self) {
        while !self.stop.load(Ordering::Acquire) {
            // Phase 1, under each link's lock in turn: a connected link is
            // probed for a departed peer and drained of leftovers; a link
            // that is down and past its backoff — frames pending or not —
            // is collected for a dial.
            let candidates: Vec<ServerId> = self
                .peers
                .iter()
                .filter(|(_, (_, link))| {
                    let mut link = link.lock();
                    let now = crate::clock::monotonic_now();
                    if link.stream.is_some() && (link.peer_gone() || link.try_flush().is_err()) {
                        link.mark_broken(now);
                    }
                    link.stream.is_none() && link.may_attempt(now)
                })
                .map(|(id, _)| *id)
                .collect();

            // Phase 2: connect **in parallel and outside any lock** — a
            // blackholed peer consumes its full connect timeout, and
            // doing that serially would head-of-line-block every other
            // peer's reconnect behind it. One scan therefore costs
            // max(connect time), not the sum.
            let attempts: Vec<(ServerId, JoinHandle<Option<TcpStream>>)> = candidates
                .into_iter()
                .filter_map(|id| {
                    let (addr, _) = self.peers.get(&id)?;
                    let addr = *addr;
                    Some((id, std::thread::spawn(move || Self::connect(addr))))
                })
                .collect();

            // Phase 3: install the connect results; whatever was queued
            // while the link was down leaves now, in order.
            for (id, attempt) in attempts {
                let fresh = attempt.join().unwrap_or(None);
                let Some((_, link)) = self.peers.get(&id) else {
                    continue;
                };
                let mut link = link.lock();
                match fresh {
                    // Sends may have raced in while we connected;
                    // installing the stream is fine either way (only the
                    // flusher ever connects, so no stream to clobber).
                    Some(stream) => {
                        link.stream = Some(stream);
                        link.mark_healthy();
                        if link.try_flush().is_err() {
                            link.mark_broken(crate::clock::monotonic_now());
                        }
                    }
                    None => link.mark_broken(crate::clock::monotonic_now()),
                }
            }
            std::thread::sleep(FLUSH_INTERVAL);
        }
    }

    /// A peer has just spoken on a connection *it* dialled, so it is up:
    /// if the outbound link to it is down, forget the backoff its dead
    /// predecessor earned and let the next scan dial. (A refusing port
    /// walks the backoff to its cap while a process is away; without this
    /// the restarted process would wait that long for its first
    /// heartbeat.)
    pub fn peer_seen(&self, peer: ServerId) {
        let Some((_, link)) = self.peers.get(&peer) else {
            return;
        };
        let mut link = link.lock();
        if link.stream.is_none() {
            link.next_attempt = None;
            link.backoff = None;
        }
    }

    /// Test/diagnostic hook: whether the link to `to` has a live socket.
    pub fn is_connected(&self, to: ServerId) -> bool {
        self.peers
            .get(&to)
            .is_some_and(|(_, link)| link.lock().stream.is_some())
    }

    /// Stops the background flusher and drops every connection. Buffered
    /// frames for unreachable peers are discarded (network loss).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = self.flusher.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        for (_, link) in self.peers.values() {
            let mut link = link.lock();
            link.stream = None;
            link.pending.clear();
            link.front_offset = 0;
            link.pending_bytes = 0;
        }
    }

    /// Test/diagnostic hook: bytes currently buffered for `to`.
    pub fn pending_bytes(&self, to: ServerId) -> usize {
        self.peers
            .get(&to)
            .map_or(0, |(_, link)| link.lock().pending_bytes)
    }

    /// Frames shed toward `to` so far (queue bound + broken-connection
    /// partials). Monotone.
    pub fn frames_dropped_to(&self, to: ServerId) -> u64 {
        self.peers
            .get(&to)
            .map_or(0, |(_, link)| link.lock().dropped)
    }

    /// Frames shed toward all peers so far. Monotone.
    pub fn frames_dropped(&self) -> u64 {
        self.peers
            .values()
            .map(|(_, link)| link.lock().dropped)
            .sum()
    }
}

/// A group's sending handle onto a shared [`TcpMesh`]: implements
/// [`Outbound`] by wrapping each message in an [`Envelope`] stamped with
/// the group id.
#[derive(Clone, Debug)]
pub struct GroupOutbound {
    mesh: Arc<TcpMesh>,
    group: GroupId,
}

impl GroupOutbound {
    /// A handle that sends on behalf of `group`.
    pub fn new(mesh: Arc<TcpMesh>, group: GroupId) -> Self {
        GroupOutbound { mesh, group }
    }
}

impl Outbound for GroupOutbound {
    fn send(&self, to: ServerId, msg: Message) {
        let envelope = Envelope {
            from: self.mesh.from(),
            group: self.group,
            message: msg,
        };
        let mut frame = BytesMut::new();
        write_frame(&mut frame, &envelope.to_bytes());
        self.mesh.send_frame(to, frame.freeze());
    }

    /// The mesh is shared by every group in the process, so this reports
    /// process-wide sheds — the quantity an operator watches for
    /// backpressure, regardless of which group's frame was unlucky.
    fn frames_dropped(&self) -> u64 {
        self.mesh.frames_dropped()
    }

    /// Per-peer sheds (also mesh-wide, not per-group: the peer's link is
    /// the congested resource, whichever group's frame was unlucky) —
    /// feeds the engine's per-peer pipelining clamp.
    fn frames_dropped_to(&self, to: ServerId) -> u64 {
        self.mesh.frames_dropped_to(to)
    }
}

/// The inbound routing table: which group's inbox each received envelope
/// is forwarded to. Shared between the acceptor's reader threads and the
/// process that registers its groups.
#[derive(Clone, Debug, Default)]
pub struct GroupRoutes {
    inner: Arc<Mutex<HashMap<GroupId, Sender<NodeInput>>>>,
}

impl GroupRoutes {
    /// An empty routing table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `group`'s inbox.
    pub fn register(&self, group: GroupId, inbox: Sender<NodeInput>) {
        self.inner.lock().insert(group, inbox);
    }

    /// Removes `group`'s inbox (a dead group stops receiving; the
    /// connection carrying the other groups lives on).
    pub fn unregister(&self, group: GroupId) {
        self.inner.lock().remove(&group);
    }

    /// The inbox for `group`, if registered.
    pub fn lookup(&self, group: GroupId) -> Option<Sender<NodeInput>> {
        self.inner.lock().get(&group).cloned()
    }
}

/// The connections an [`Acceptor`] has accepted and not (yet) recognised
/// as a client's, each with its reader thread. A reader takes its own
/// entry out when it ends or turns client dispatcher; whatever is left
/// when the acceptor closes is closed with it.
#[derive(Debug, Default)]
struct Inbound {
    next_id: u64,
    open: HashMap<u64, (TcpStream, JoinHandle<()>)>,
}

/// What the reader threads of one [`Acceptor`] share.
#[derive(Clone, Debug)]
struct Readers {
    routes: GroupRoutes,
    mesh: Arc<TcpMesh>,
    service: Option<ClientService>,
    conns: Arc<Mutex<Inbound>>,
}

impl Readers {
    /// Registers a freshly accepted connection and starts its reader.
    fn adopt(&self, stream: TcpStream) {
        let Ok(closer) = stream.try_clone() else {
            return;
        };
        let readers = self.clone();
        // Held across the spawn, so the reader's removal of its own entry
        // cannot run before the entry exists.
        let mut inbound = self.conns.lock();
        let conn = inbound.next_id;
        inbound.next_id += 1;
        let reader = std::thread::spawn(move || readers.read(conn, stream));
        inbound.open.insert(conn, (closer, reader));
    }

    /// One connection's reader thread.
    fn read(self, conn: u64, mut stream: TcpStream) {
        let hello = read_loop(&mut stream, &self.routes, &self.mesh);
        // An entry already gone means the acceptor closed and shut this
        // socket down: there is nobody left to serve.
        let ours = self.conns.lock().open.remove(&conn).is_some();
        if let (true, Some(buffered), Some(service)) = (ours, hello, self.service) {
            service.serve(stream, buffered);
        }
    }
}

/// One incarnation's inbound side: the accept loop on its listener plus
/// the peer connections that loop accepted. Owned by the node that
/// spawned it; [`Acceptor::close`] is the only way it ends.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Inbound>>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Spawns the accept loop for `listener` (reachable at `addr`): every
    /// inbound connection gets a reader thread that parses envelopes and
    /// routes them through `routes`, telling `mesh` when a peer first
    /// speaks (see [`TcpMesh::peer_seen`]). When `service` is set, a
    /// connection whose **first** frame is the client hello is handed to
    /// it instead (see [`ClientService`]); without a service, hello'd
    /// connections are dropped.
    pub fn spawn(
        id: ServerId,
        addr: SocketAddr,
        listener: TcpListener,
        routes: GroupRoutes,
        mesh: Arc<TcpMesh>,
        service: Option<ClientService>,
    ) -> Acceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Inbound::default()));
        let stopped = Arc::clone(&stop);
        let readers = Readers {
            routes,
            mesh,
            service,
            conns: Arc::clone(&conns),
        };
        let thread = std::thread::Builder::new()
            .name(format!("escape-tcp-accept-{}", id.get()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    stream.set_nodelay(true).ok();
                    readers.adopt(stream);
                }
            })
            // lint:allow(panic): thread-spawn failure at startup is fatal by design
            .expect("spawn acceptor");
        Acceptor {
            addr,
            stop,
            conns,
            thread,
        }
    }

    /// Ends the incarnation's inbound side: stops accepting, then closes
    /// every connection still registered — the peers', and any that never
    /// sent a first frame — and joins their readers, so each remote end
    /// observes EOF before this returns. Connections a [`ClientService`]
    /// has taken over are not touched (see the module docs).
    pub fn close(self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the flag makes it exit.
        let _ = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT);
        let _ = self.thread.join();
        let open = std::mem::take(&mut self.conns.lock().open);
        for (stream, _) in open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, reader) in open.into_values() {
            let _ = reader.join();
        }
    }
}

/// Wraps a group's freshly opened WAL in a different [`Storage`] before
/// the engine takes ownership. This is the hook that lets
/// `escape-storage`'s `FaultyStorage` (lying fsyncs, transient I/O
/// errors, disk-full) run under the **real TCP stack**, not just the
/// deterministic simulator: the campaign harness wraps each node's WAL
/// and the node never knows.
///
/// Called once per hosted group, after recovery — the recovered state the
/// engine boots from came off the raw WAL; the wrapper sees only the
/// writes that follow.
pub type StorageHook = Arc<dyn Fn(ServerId, GroupId, WalStorage) -> Box<dyn Storage> + Send + Sync>;

/// Opens and recovers one durable group's data directory — with nothing
/// started on it: the WAL gets its instruments (under `obs`'s labels plus
/// `group`) and is wrapped by the [`StorageHook`]. A node recovers every
/// group it hosts this way *before* it starts a thread or answers a
/// socket, so a directory that cannot be recovered leaves nothing
/// running.
///
/// # Errors
///
/// Whatever [`WalStorage::open`] reports: I/O failure, or a log the
/// directory can no longer reproduce (a node that cannot recover its WAL
/// must not serve).
pub fn recover_group(
    server: ServerId,
    group: GroupId,
    dir: &Path,
    obs: Option<&NodeObs>,
    storage_hook: Option<&StorageHook>,
) -> std::io::Result<(Box<dyn Storage>, RecoveredState)> {
    let (mut storage, recovered) = WalStorage::open(dir)?;
    if let Some(obs) = obs {
        let labels = obs.labels.clone().with("group", group.get());
        storage.instrument(WalInstruments::register(&obs.registry, &labels));
    }
    let storage: Box<dyn Storage> = match storage_hook {
        Some(hook) => hook(server, group, storage),
        None => Box::new(storage),
    };
    Ok((storage, recovered))
}

/// Starts one hosted group: puts `durable` (what [`recover_group`]
/// returned; `None` runs memory-only) behind its WAL thread — which posts
/// finished barriers into `inbox` — hands it to the engine, and starts the
/// node thread on `rx`. `builder` is the engine up to (not including)
/// storage and recovery; the WAL thread's name is `thread_name` plus
/// `-wal`.
///
/// The handles come back in the order they must be joined: the node
/// thread, then its WAL thread — which ends once the node thread has
/// dropped the engine, and closes the data directory as it goes, so a
/// respawn on the same directory after both joins finds no live writer.
pub fn start_group(
    thread_name: String,
    mut builder: NodeBuilder,
    durable: Option<(Box<dyn Storage>, RecoveredState)>,
    inbox: Sender<NodeInput>,
    rx: Receiver<NodeInput>,
    outbound: Arc<dyn Outbound + Sync>,
) -> Vec<JoinHandle<()>> {
    let mut wal_thread = None;
    if let Some((storage, recovered)) = durable {
        let (queued, handle) = spawn_wal_thread(format!("{thread_name}-wal"), storage, inbox);
        builder = builder.storage(Box::new(queued)).recover(recovered);
        wal_thread = Some(handle);
    }
    let node = builder.build();
    let clock = RuntimeClock::start();
    let node_thread = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || node_loop(node, rx, outbound, clock))
        // lint:allow(panic): thread-spawn failure at startup is fatal by design
        .expect("spawn node loop");
    std::iter::once(node_thread).chain(wal_thread).collect()
}

/// Reads one inbound connection until it ends. A peer's envelopes are
/// routed to their groups' inboxes and `None` comes back when the
/// connection is over; a connection whose first frame is the client hello
/// comes back at once as `Some` of the reader holding whatever bytes
/// followed the hello, for the [`ClientService`] to continue from.
fn read_loop(stream: &mut TcpStream, routes: &GroupRoutes, mesh: &TcpMesh) -> Option<FrameReader> {
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut first_frame = true;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => n,
        };
        // lint:allow(panic): n is the byte count just read into chunk, so n <= chunk.len()
        reader.extend(&chunk[..n]);
        loop {
            let mut frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return None,
            };
            let first = std::mem::take(&mut first_frame);
            if first && frame.as_ref() == CLIENT_HELLO {
                return Some(reader);
            }
            let Ok(envelope) = Envelope::decode(&mut frame) else {
                return None; // corrupt stream: drop the connection
            };
            if first {
                mesh.peer_seen(envelope.from);
            }
            // A group nobody registered is a misrouted or early message:
            // network loss to the protocol.
            if let Some(inbox) = routes.lookup(envelope.group) {
                if inbox
                    .send(NodeInput::Peer(envelope.from, envelope.message))
                    .is_err()
                {
                    // That group's engine is gone. Unregister it so the
                    // connection (which carries the *other* groups'
                    // traffic too) survives.
                    routes.unregister(envelope.group);
                }
            }
        }
    }
}

/// Binds `n` loopback listeners on OS-assigned free ports and returns
/// them **held open** alongside the address map.
///
/// The previous probe-then-rebind approach (bind, read the port, drop the
/// listener, bind again later inside the node) was a TOCTOU race: any
/// other process could take the port in the gap, flaking the TCP tests in
/// CI. Holding the bound listener and handing the node a
/// [`TcpListener::try_clone`] closes the race — and keeps the port
/// reserved across a node kill/restart cycle.
pub fn loopback_listeners(
    n: usize,
) -> (
    HashMap<ServerId, SocketAddr>,
    HashMap<ServerId, TcpListener>,
) {
    let mut addrs = HashMap::new();
    let mut listeners = HashMap::new();
    for i in 1..=n as u32 {
        // lint:allow(panic): test-harness helper; failure to bind loopback is fatal
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        // lint:allow(panic): test-harness helper; failure to bind loopback is fatal
        let addr = listener.local_addr().expect("local addr");
        addrs.insert(ServerId::new(i), addr);
        listeners.insert(ServerId::new(i), listener);
    }
    (addrs, listeners)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_core::types::Term;
    use std::time::Duration;

    /// Starts server 1's mesh against a `peer` that is down, runs
    /// `while_down` on it, then brings the peer's port back: returns the
    /// mesh and the listener now bound where it has been dialling.
    ///
    /// Modeling a *down* peer needs a connectable-later-but-not-now
    /// address, which means parking a port and rebinding it — an
    /// unavoidable reuse race (the class `loopback_listeners` exists to
    /// prevent elsewhere). The race is detectable: the rebind fails. So
    /// the whole scenario is retried on a fresh port when it does,
    /// instead of flaking.
    fn mesh_outliving_a_down_peer(
        peer: ServerId,
        while_down: impl Fn(&Arc<TcpMesh>),
    ) -> (Arc<TcpMesh>, TcpListener) {
        for _ in 0..5 {
            let parked = TcpListener::bind("127.0.0.1:0").expect("bind");
            let peer_addr = parked.local_addr().unwrap();
            drop(parked);
            let mesh = TcpMesh::start(ServerId::new(1), &HashMap::from([(peer, peer_addr)]));
            while_down(&mesh);
            match TcpListener::bind(peer_addr) {
                Ok(listener) => return (mesh, listener),
                Err(_) => mesh.stop(), // port stolen: retry fresh
            }
        }
        panic!("could not rebind a parked port in 5 attempts");
    }

    /// The reconnect-with-backoff satellite: frames sent while the peer
    /// is down are buffered and delivered once it comes up — under the
    /// old lazy-per-send scheme every one of them was silently lost.
    #[test]
    fn mesh_buffers_and_flushes_while_peer_is_down() {
        let peer = ServerId::new(2);
        let (mesh, listener) = mesh_outliving_a_down_peer(peer, |mesh| {
            let outbound = GroupOutbound::new(Arc::clone(mesh), GroupId::new(7));
            for term in 1..=5 {
                outbound.send(peer, vote_reply(term));
            }
            assert!(
                mesh.pending_bytes(peer) > 0,
                "sends to a down peer must be buffered, not dropped"
            );
        });
        // The peer is back on the same port; the flusher reconnects and
        // drains the queue in order.
        let (stream, _) = listener.accept().expect("flusher reconnects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut stream = stream;
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        while got.len() < 5 {
            let n = stream.read(&mut chunk).expect("read buffered frames");
            assert!(n > 0, "peer closed before all frames arrived");
            reader.extend(&chunk[..n]);
            while let Ok(Some(mut frame)) = reader.next_frame() {
                got.push(Envelope::decode(&mut frame).expect("decode"));
            }
        }
        for (i, envelope) in got.iter().enumerate() {
            assert_eq!(envelope.from, ServerId::new(1));
            assert_eq!(envelope.group, GroupId::new(7));
            assert_eq!(
                envelope.message,
                vote_reply(i as u64 + 1),
                "frames must flush in order"
            );
        }
        assert_eq!(mesh.pending_bytes(peer), 0);
        mesh.stop();
    }

    /// What a scheduler may add on top of a stated number of flusher
    /// scans before a test calls the mesh late.
    const SCHED_SLACK: Duration = Duration::from_millis(250);

    fn vote_reply(term: u64) -> Message {
        Message::RequestVoteReply(escape_core::message::RequestVoteReply {
            term: Term::new(term),
            vote_granted: false,
        })
    }

    /// The next connection to arrive on `listener` within `within`.
    fn accept_within(listener: &TcpListener, within: Duration) -> Option<TcpStream> {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let deadline = crate::clock::monotonic_now() + within;
        while crate::clock::monotonic_now() < deadline {
            if let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(false).expect("blocking stream");
                return Some(stream);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    /// The next envelope to arrive on `stream` within five seconds.
    fn read_envelope(stream: &mut TcpStream) -> Envelope {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(mut frame) = reader.next_frame().expect("framing") {
                return Envelope::decode(&mut frame).expect("decode");
            }
            let n = stream.read(&mut chunk).expect("read a frame");
            assert!(n > 0, "connection closed before a frame arrived");
            reader.extend(&chunk[..n]);
        }
    }

    /// A freshly started mesh dials a listening peer with nothing to send
    /// — the first frame to a fellow follower (a `RequestVote`) must not
    /// wait for a connect.
    #[test]
    fn mesh_dials_a_listening_peer_with_nothing_to_send() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = ServerId::new(2);
        let addrs = HashMap::from([(peer, listener.local_addr().unwrap())]);
        let mesh = TcpMesh::start(ServerId::new(1), &addrs);
        let dialled = accept_within(&listener, FLUSH_INTERVAL * 2 + SCHED_SLACK);
        assert!(dialled.is_some(), "no dial without a pending frame");
        mesh.stop();
    }

    /// The lost-solicitation bug, at the link: the peer goes away while
    /// the link is idle. Nothing was sent, so only the flusher's probe can
    /// notice; the link must be marked broken and re-dialled, and the
    /// *first* frame sent afterwards must arrive on the new connection —
    /// written into the dead socket it would vanish without an error.
    #[test]
    fn idle_link_notices_a_departed_peer_and_delivers_the_next_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = ServerId::new(2);
        let addrs = HashMap::from([(peer, listener.local_addr().unwrap())]);
        let (log, ring) = escape_obs::RingObserver::with_default_capacity();
        let mesh = TcpMesh::start_observed(
            ServerId::new(1),
            &addrs,
            NodeObs {
                observer: Arc::new(ring) as Arc<dyn Observer>,
                registry: Arc::new(Registry::new()),
                labels: Labels::new().with("node", 1u32),
            },
        );
        let first = accept_within(&listener, Duration::from_secs(5)).expect("eager dial");
        while !mesh.is_connected(peer) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // The peer's incarnation ends: its side of the connection closes.
        drop(first);
        let noticed_by = crate::clock::monotonic_now() + FLUSH_INTERVAL * 3 + SCHED_SLACK;
        let disconnected = || {
            log.snapshot()
                .iter()
                .any(|t| matches!(t.event, Event::PeerDisconnected { peer: 2 }))
        };
        while !disconnected() {
            assert!(
                crate::clock::monotonic_now() < noticed_by,
                "an idle link must notice its peer's FIN within three scans"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut second = accept_within(&listener, Duration::from_secs(5)).expect("re-dial");
        while !mesh.is_connected(peer) {
            std::thread::sleep(Duration::from_millis(1));
        }
        GroupOutbound::new(Arc::clone(&mesh), GroupId::ZERO).send(peer, vote_reply(7));
        assert_eq!(read_envelope(&mut second).message, vote_reply(7));
        assert_eq!(mesh.frames_dropped(), 0);
        mesh.stop();
    }

    /// A process that was away long enough for its port to refuse dials
    /// walks the survivors' backoff towards the cap; when it speaks on a
    /// connection of its own, `peer_seen` must get it re-dialled on the
    /// next scan rather than when the backoff runs out.
    #[test]
    fn peer_seen_redials_a_backed_off_link_at_once() {
        let peer = ServerId::new(2);
        let (mesh, listener) = mesh_outliving_a_down_peer(peer, |mesh| {
            // Refused dials double the wait: 25, 50, 100, 200, 400 ms. A
            // stored backoff of 800 ms means the 400 ms wait is on.
            while mesh.peers[&peer].1.lock().backoff < Some(Duration::from_millis(800)) {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        assert!(!mesh.is_connected(peer));
        mesh.peer_seen(peer);
        let dialled = accept_within(&listener, FLUSH_INTERVAL * 2 + SCHED_SLACK);
        assert!(
            dialled.is_some(),
            "a peer that has been seen must be dialled within two scans, \
             not after the 400 ms its dead predecessor earned"
        );
        mesh.stop();
    }

    /// Backoff bookkeeping: repeated failures double the delay up to the
    /// cap, and a success resets it.
    #[test]
    fn peer_link_backoff_doubles_and_resets() {
        let mut link = PeerLink::default();
        let t0 = crate::clock::monotonic_now();
        link.mark_broken(t0);
        assert_eq!(link.backoff, Some(BACKOFF_INITIAL * 2));
        assert!(!link.may_attempt(t0));
        assert!(link.may_attempt(t0 + BACKOFF_INITIAL));
        for _ in 0..20 {
            link.mark_broken(t0);
        }
        assert_eq!(link.backoff, Some(BACKOFF_MAX), "backoff must cap");
        link.mark_healthy();
        assert!(link.may_attempt(t0));
        assert_eq!(link.backoff, None);
    }

    /// The bounded queue drops oldest-first instead of growing without
    /// limit while a peer stays down.
    #[test]
    fn pending_queue_is_bounded() {
        let mut link = PeerLink::default();
        let frame = Bytes::from(vec![0u8; 64 * 1024]);
        for _ in 0..64 {
            link.enqueue(frame.clone());
        }
        assert!(link.pending_bytes <= PENDING_MAX_BYTES);
        assert!(link.pending.len() < 64);
        assert_eq!(
            link.dropped,
            64 - link.pending.len() as u64,
            "every shed frame must be counted"
        );
    }

    /// An instrumented link mirrors its shed counter into the registry,
    /// keeps the per-million drop-rate gauge consistent with the raw
    /// counters, and emits one `FrameDropped` event per shed frame.
    #[test]
    fn instrumented_link_reports_drops_and_rate() {
        let (log, ring) = escape_obs::RingObserver::with_default_capacity();
        let registry = Arc::new(Registry::new());
        let obs = NodeObs {
            observer: Arc::new(ring) as Arc<dyn Observer>,
            registry: Arc::clone(&registry),
            labels: Labels::new().with("node", 1u32),
        };
        let mut link = PeerLink {
            obs: Some(LinkInstruments::register(
                &obs,
                RuntimeClock::start(),
                ServerId::new(2),
            )),
            ..PeerLink::default()
        };
        let frame = Bytes::from(vec![0u8; 64 * 1024]);
        for _ in 0..64 {
            link.enqueue(frame.clone());
        }
        assert!(link.dropped > 0, "the bound must have shed frames");

        let labels = Labels::new().with("node", 1u32).with("peer", 2u32);
        assert_eq!(
            registry.counter_value("escape_transport_frames_dropped_total", &labels),
            Some(link.dropped),
        );
        assert_eq!(
            registry.gauge_value("escape_transport_frame_drop_ppm", &labels),
            Some(link.dropped * 1_000_000 / link.enqueued),
        );
        assert_eq!(
            registry.gauge_value("escape_transport_queue_depth_bytes", &labels),
            Some(link.pending_bytes as u64),
        );
        let dropped_events = log
            .snapshot()
            .iter()
            .filter(|t| matches!(t.event, Event::FrameDropped { peer: 2 }))
            .count() as u64;
        assert_eq!(dropped_events, link.dropped, "one event per shed frame");
    }

    /// A frame that is half-way into the socket must survive the bound
    /// (dropping it would desync the receiver's framing) — and must be
    /// discarded wholesale when the connection breaks (replaying its tail
    /// on a fresh connection would desync it too).
    #[test]
    fn partially_written_front_frame_is_preserved_then_discarded_on_break() {
        let mut link = PeerLink::default();
        link.enqueue(Bytes::from(vec![1u8; 512 * 1024]));
        link.front_offset = 10; // pretend the socket took 10 bytes
        for _ in 0..8 {
            link.enqueue(Bytes::from(vec![2u8; 256 * 1024]));
        }
        assert_eq!(
            link.pending.front().unwrap()[0],
            1,
            "the partially sent frame must not be dropped by the bound"
        );
        link.mark_broken(crate::clock::monotonic_now());
        assert_eq!(link.front_offset, 0);
        assert!(
            link.pending.front().map_or(true, |f| f[0] != 1),
            "a half-sent frame must not survive onto a fresh connection"
        );
    }
}
