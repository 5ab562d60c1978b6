//! One pipelined client connection per server, and no thread of its own.
//! The hello is written at connect; after that every caller writes its own
//! request frame, one whole frame at a time under the connection's send
//! lock, and then reads its own response:
//!
//! * A caller that takes the connection's **read role** (its `recv` slot,
//!   by `try_lock`) reads the socket until its own response arrives, and
//!   hands every other response it decodes to that caller's channel.
//! * A caller that finds the role taken waits on its channel, for its
//!   response or for a "read now" token. A caller that leaves the role
//!   gives that token to one waiter, so while anybody waits, somebody
//!   reads.
//! * Each read blocks for at most [`READ_SLICE`], the socket's read
//!   timeout set once at connect, so a reading caller checks its own
//!   deadline that often and returns within its timeout plus one slice.
//!
//! A write that fails or outlasts its timeout poisons the connection —
//! part of a frame may be on the wire, so the framing is lost — and so do
//! EOF, a read error and a corrupt frame: every waiter then wakes with
//! `None`. A connect cooldown makes a dead server cost a cheap check — not
//! a connect timeout — per request.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use escape_transport::clock::monotonic_now;
use escape_wire::{
    write_frame, write_frame_with, ClientRequest, ClientResponse, Decode, Encode, FrameReader,
    RequestBody, CLIENT_HELLO,
};

/// How long one connect attempt may block, and after it each write of a
/// request frame (a peer that stopped reading must not hold callers).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// The socket's read timeout: how long one read by the caller holding
/// the read role may block before it checks its own deadline again.
const READ_SLICE: Duration = Duration::from_millis(10);
/// First cooldown after a failed connect; doubles per failure.
const COOLDOWN_INITIAL: Duration = Duration::from_millis(50);
/// Cooldown cap: a dead server is probed at least this often.
const COOLDOWN_MAX: Duration = Duration::from_secs(1);

/// What a waiting caller's channel carries.
enum Wake {
    /// Its response, read off the socket by the caller holding the role.
    Response(ClientResponse),
    /// The read role was left: take it.
    ReadNow,
}

/// The read role: the socket's read half and what it has buffered.
#[derive(Debug)]
struct Recv {
    stream: TcpStream,
    frames: FrameReader,
    chunk: Vec<u8>,
}

/// A live connection's shared state: the socket's two halves, the
/// channels of the callers waiting on it, and the poison flag set when
/// the socket dies.
#[derive(Debug)]
struct Live {
    /// Held for one whole frame, so concurrent callers' frames never
    /// interleave.
    send: Mutex<TcpStream>,
    /// Taken by `try_lock` only, by a caller whose request is sent, and
    /// held across reads of at most [`READ_SLICE`] each.
    recv: Mutex<Recv>,
    /// The channel of every caller with a request in flight. Sent on only
    /// under this lock, and only while registered — so a caller that has
    /// taken itself out finds in its channel everything it will ever get.
    pending: Mutex<HashMap<u64, Sender<Wake>>>,
    dead: AtomicBool,
    /// Kept so [`Conn::disconnect`] can force a blocking read or write to
    /// fail.
    stream: TcpStream,
}

impl Live {
    fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        // Dropping the registry's senders wakes every waiter with a
        // channel error — they retry elsewhere instead of timing out.
        self.pending.lock().clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Waits until `deadline` for request `id`'s response, reading the
    /// socket whenever the read role is free.
    fn await_response(
        &self,
        id: u64,
        woken: &Receiver<Wake>,
        deadline: Instant,
    ) -> Option<ClientResponse> {
        loop {
            if let Some(mut recv) = self.recv.try_lock() {
                let response = self.read_until(&mut recv, woken, deadline);
                drop(recv);
                if response.is_none() {
                    self.pending.lock().remove(&id);
                }
                self.pass_read_role();
                return response;
            }
            let wait = deadline.saturating_duration_since(monotonic_now());
            match woken.recv_timeout(wait) {
                Ok(Wake::Response(response)) => return Some(response),
                Ok(Wake::ReadNow) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => return self.give_up(id, woken),
            }
        }
    }

    /// The read role's work: reads and delivers responses until the
    /// caller's own is among them (`Some`), or its deadline passes or the
    /// connection dies (`None`).
    fn read_until(
        &self,
        recv: &mut Recv,
        woken: &Receiver<Wake>,
        deadline: Instant,
    ) -> Option<ClientResponse> {
        loop {
            // Delivered by an earlier reader or just now. A token is
            // spent: this caller is reading already.
            while let Ok(wake) = woken.try_recv() {
                if let Wake::Response(response) = wake {
                    return Some(response);
                }
            }
            if monotonic_now() >= deadline {
                return None;
            }
            let alive = match recv.stream.read(&mut recv.chunk) {
                Ok(0) => false,
                Ok(n) => {
                    recv.frames.extend(&recv.chunk[..n]);
                    self.deliver_buffered(&mut recv.frames)
                }
                Err(e) => matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ),
            };
            if !alive {
                self.poison();
                return None;
            }
        }
    }

    /// Hands every whole response in `frames` to its caller; `false` when
    /// the stream is corrupt. A late response — its caller gave up — is
    /// dropped.
    fn deliver_buffered(&self, frames: &mut FrameReader) -> bool {
        loop {
            let response = match frames.next_frame() {
                Ok(Some(mut frame)) => match ClientResponse::decode(&mut frame) {
                    Ok(response) => response,
                    Err(_) => return false,
                },
                Ok(None) => return true,
                Err(_) => return false,
            };
            let mut pending = self.pending.lock();
            if let Some(waiter) = pending.remove(&response.id) {
                let _ = waiter.send(Wake::Response(response));
            }
        }
    }

    /// Gives the read role, just left, to one waiter.
    fn pass_read_role(&self) {
        let pending = self.pending.lock();
        if let Some(waiter) = pending.values().next() {
            let _ = waiter.send(Wake::ReadNow);
        }
    }

    /// A waiter's deadline passed. It leaves the registry, then takes
    /// what its channel got before that: its response, late but whole, or
    /// a token that it passes on instead of reading.
    fn give_up(&self, id: u64, woken: &Receiver<Wake>) -> Option<ClientResponse> {
        self.pending.lock().remove(&id);
        let mut response = None;
        let mut token = false;
        for wake in woken.try_iter() {
            match wake {
                Wake::Response(late) => response = Some(late),
                Wake::ReadNow => token = true,
            }
        }
        if token {
            self.pass_read_role();
        }
        response
    }
}

/// Reconnect cooldown state (negative cache for a dead server).
#[derive(Debug, Default)]
struct Cooldown {
    next_attempt: Option<Instant>,
    backoff: Option<Duration>,
}

/// The client's handle to one server: at most one TCP connection,
/// established lazily, shared by every in-flight request.
#[derive(Debug)]
pub(crate) struct Conn {
    addr: SocketAddr,
    live: Mutex<Option<Arc<Live>>>,
    cooldown: Mutex<Cooldown>,
    next_id: AtomicU64,
}

impl Conn {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            live: Mutex::new(None),
            cooldown: Mutex::new(Cooldown::default()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Sends one request and waits up to `timeout` for its response.
    /// `None` covers every transport-level failure: the server is in
    /// connect cooldown, the connection died, or the response did not
    /// arrive in time. The caller retries elsewhere; this layer never
    /// retries on its own.
    pub(crate) fn request(&self, body: RequestBody, timeout: Duration) -> Option<ClientResponse> {
        let live = self.establish()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (wake, woken) = unbounded();
        live.pending.lock().insert(id, wake);

        let mut frame = BytesMut::new();
        write_frame_with(&mut frame, |buf| ClientRequest { id, body }.encode(buf));
        // lint:allow(lock): callers write their own frames, this guard keeps each one whole, and the socket's write timeout bounds the hold
        let sent = live.send.lock().write_all(&frame);
        if sent.is_err() {
            live.pending.lock().remove(&id);
            live.poison();
            return None;
        }
        live.await_response(id, &woken, monotonic_now() + timeout)
    }

    /// Drops the current connection (if any); the next request
    /// reconnects. Used on shutdown and by tests.
    pub(crate) fn disconnect(&self) {
        let live = self.live.lock().take();
        if let Some(live) = live {
            live.poison();
        }
    }

    /// The current connection, or a fresh one — unless the server is in
    /// connect cooldown, which answers `None` immediately so callers
    /// rotate to another server instead of queueing on a dead one.
    fn establish(&self) -> Option<Arc<Live>> {
        let cached = self.live.lock().clone();
        if let Some(live) = cached {
            if !live.dead.load(Ordering::Acquire) {
                return Some(live);
            }
        }
        // Cooldown check — cheap, lock-scoped, no I/O.
        {
            let mut cooldown = self.cooldown.lock();
            if let Some(at) = cooldown.next_attempt {
                if monotonic_now() < at {
                    return None;
                }
            }
            // Claim the attempt slot now so concurrent callers don't
            // pile up connects against a dead server.
            let backoff = cooldown.backoff.unwrap_or(COOLDOWN_INITIAL);
            cooldown.next_attempt = Some(monotonic_now() + backoff);
        }
        // Connect outside every lock (it may block for the timeout).
        match Self::connect(self.addr) {
            Some(live) => {
                let mut cooldown = self.cooldown.lock();
                cooldown.next_attempt = None;
                cooldown.backoff = None;
                drop(cooldown);
                *self.live.lock() = Some(Arc::clone(&live));
                Some(live)
            }
            None => {
                let mut cooldown = self.cooldown.lock();
                let backoff = cooldown.backoff.unwrap_or(COOLDOWN_INITIAL);
                cooldown.backoff = Some((backoff * 2).min(COOLDOWN_MAX));
                None
            }
        }
    }

    /// Dials the server and says hello.
    fn connect(addr: SocketAddr) -> Option<Arc<Live>> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nodelay(true).ok();
        // Set before the clones: they share the one socket.
        stream.set_write_timeout(Some(CONNECT_TIMEOUT)).ok()?;
        stream.set_read_timeout(Some(READ_SLICE)).ok()?;

        let mut write_half = stream.try_clone().ok()?;
        let mut hello = BytesMut::new();
        write_frame(&mut hello, CLIENT_HELLO);
        write_half.write_all(&hello).ok()?;

        Some(Arc::new(Live {
            send: Mutex::new(write_half),
            recv: Mutex::new(Recv {
                stream: stream.try_clone().ok()?,
                frames: FrameReader::new(),
                chunk: vec![0; 16 * 1024],
            }),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            stream,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::net::{Shutdown, TcpListener};
    use std::thread;

    use bytes::Bytes;
    use escape_core::types::GroupId;
    use escape_wire::ResponseBody;

    /// A server that answers each read after the delay its query names,
    /// with the query as the value — so answers leave out of order — and
    /// that can drop every connection it has accepted.
    struct FakeServer {
        addr: SocketAddr,
        accepted: Arc<Mutex<Vec<TcpStream>>>,
    }

    impl FakeServer {
        fn start() -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accepted = Arc::new(Mutex::new(Vec::new()));
            let registry = Arc::clone(&accepted);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { return };
                    registry.lock().push(stream.try_clone().unwrap());
                    thread::spawn(move || answer_late(stream));
                }
            });
            FakeServer { addr, accepted }
        }

        /// Closes every connection accepted so far; later ones are served.
        fn close_connections(&self) {
            for stream in self.accepted.lock().drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// One fake connection: this thread reads requests, a second writes
    /// each answer once its delay is over.
    fn answer_late(mut stream: TcpStream) {
        let (due_tx, due_rx) = unbounded::<(Instant, Vec<u8>)>();
        let mut out = stream.try_clone().unwrap();
        thread::spawn(move || {
            let mut queue = BinaryHeap::<Reverse<(Instant, u64, Vec<u8>)>>::new();
            for seq in 0u64.. {
                let next = match queue.peek() {
                    Some(Reverse((due, _, _))) => {
                        due_rx.recv_timeout(due.saturating_duration_since(Instant::now()))
                    }
                    None => due_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                match next {
                    Ok((due, frame)) => queue.push(Reverse((due, seq, frame))),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                while queue
                    .peek()
                    .is_some_and(|Reverse((due, _, _))| *due <= Instant::now())
                {
                    let Some(Reverse((_, _, frame))) = queue.pop() else {
                        return;
                    };
                    if out.write_all(&frame).is_err() {
                        return;
                    }
                }
            }
        });
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
                let ClientRequest { id, body } = ClientRequest::decode(&mut frame).unwrap();
                let RequestBody::Read { query, .. } = body else {
                    continue;
                };
                let delay = u64::from_le_bytes(query[..8].try_into().unwrap());
                if delay == u64::MAX {
                    continue;
                }
                let mut frame = BytesMut::new();
                let body = ResponseBody::Value(query);
                write_frame_with(&mut frame, |buf| ClientResponse { id, body }.encode(buf));
                let due = Instant::now() + Duration::from_micros(delay);
                let _ = due_tx.send((due, frame.to_vec()));
            }
        }
    }

    /// A read the fake server answers after `delay` (never, for `None`),
    /// and the value it answers with.
    fn read_after(delay: Option<Duration>, tag: u64) -> (RequestBody, Bytes) {
        let micros = delay.map_or(u64::MAX, |d| d.as_micros() as u64);
        let mut query = micros.to_le_bytes().to_vec();
        query.extend_from_slice(&tag.to_le_bytes());
        let query = Bytes::from(query);
        let body = RequestBody::Read {
            group: GroupId::ZERO,
            key: Bytes::from_static(b"k"),
            query: query.clone(),
        };
        (body, query)
    }

    fn value_of(response: Option<ClientResponse>) -> Option<Bytes> {
        match response?.body {
            ResponseBody::Value(value) => Some(value),
            _ => None,
        }
    }

    /// A connection to a fresh fake server, dialled by one answered read.
    fn connected() -> (FakeServer, Arc<Conn>) {
        let server = FakeServer::start();
        let conn = Arc::new(Conn::new(server.addr));
        let (body, value) = read_after(Some(Duration::ZERO), 0);
        assert_eq!(
            value_of(conn.request(body, Duration::from_secs(5))),
            Some(value)
        );
        (server, conn)
    }

    /// Starts a caller on its own thread: it sends `body` with `timeout`
    /// and reports the response and how long it took.
    fn caller(
        conn: &Arc<Conn>,
        body: RequestBody,
        timeout: Duration,
    ) -> thread::JoinHandle<(Option<ClientResponse>, Duration)> {
        let conn = Arc::clone(conn);
        thread::spawn(move || {
            let started = Instant::now();
            let response = conn.request(body, timeout);
            (response, started.elapsed())
        })
    }

    /// Eight callers share one connection, and the server answers out of
    /// order after random delays: whoever holds the read role delivers the
    /// others' responses, every caller gets its own, and none is lost.
    #[test]
    fn callers_sharing_a_connection_each_get_their_own_response() {
        let (_server, conn) = connected();
        let callers: Vec<_> = (1..=8u64)
            .map(|caller| {
                let conn = Arc::clone(&conn);
                thread::spawn(move || {
                    let mut rng = caller.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for i in 0..500 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let delay = Duration::from_micros(rng % 1_000);
                        let (body, value) = read_after(Some(delay), caller << 32 | i);
                        let response = conn.request(body, Duration::from_secs(10));
                        assert_eq!(value_of(response), Some(value));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        let live = conn.live.lock().clone().unwrap();
        assert!(live.pending.lock().is_empty());
        assert!(!live.dead.load(Ordering::Acquire));
    }

    /// The caller holding the read role times out while others wait. It
    /// passes the role on, and so does the next caller to time out, so the
    /// responses still arrive for those who wait on; and nobody returns
    /// later than its timeout plus one read slice.
    #[test]
    fn a_reader_that_times_out_passes_the_read_role_on() {
        let (_server, conn) = connected();
        // One read slice, and room for the scheduler.
        let late = READ_SLICE + Duration::from_millis(10);
        let reader_timeout = Duration::from_millis(30);
        let reader = caller(&conn, read_after(None, 1).0, reader_timeout);
        // Lets the reader take the role first. The bounds below hold
        // whoever takes it; this order is the one that needs hand-overs,
        // and no outside view of the role can wait for it without taking
        // the role itself.
        thread::sleep(Duration::from_millis(10));
        let next_timeout = Duration::from_millis(60);
        let next = caller(&conn, read_after(None, 2).0, next_timeout);
        let waiter_timeout = Duration::from_millis(400);
        let waiters: Vec<_> = (3..6)
            .map(|tag| {
                let (body, value) = read_after(Some(Duration::from_millis(150)), tag);
                (caller(&conn, body, waiter_timeout), value)
            })
            .collect();

        for (handle, timeout) in [(reader, reader_timeout), (next, next_timeout)] {
            let (response, took) = handle.join().unwrap();
            assert_eq!(response, None);
            assert!(took < timeout + late, "returned after {took:?}");
        }
        for (handle, value) in waiters {
            let (response, took) = handle.join().unwrap();
            assert_eq!(value_of(response), Some(value));
            assert!(took < waiter_timeout, "returned after {took:?}");
        }
    }

    /// The server closes the connection while callers wait on it: the one
    /// reading sees EOF, and every caller is told at once.
    #[test]
    fn a_connection_closed_mid_wait_fails_every_waiter_at_once() {
        let (server, conn) = connected();
        let callers: Vec<_> = (1..=4)
            .map(|tag| caller(&conn, read_after(None, tag).0, Duration::from_secs(5)))
            .collect();
        let live = conn.live.lock().clone().unwrap();
        while live.pending.lock().len() < callers.len() {
            thread::yield_now();
        }
        let closed = Instant::now();
        server.close_connections();
        for handle in callers {
            assert_eq!(handle.join().unwrap().0, None);
        }
        assert!(closed.elapsed() < Duration::from_millis(100));
    }

    /// Nobody reads an idle connection, so its death goes unseen until the
    /// next request, which fails fast; the one after that redials.
    #[test]
    fn a_connection_that_died_idle_fails_one_request_then_redials() {
        let (server, conn) = connected();
        server.close_connections();

        let started = Instant::now();
        let (body, _) = read_after(Some(Duration::ZERO), 1);
        assert_eq!(conn.request(body, Duration::from_secs(5)), None);
        assert!(started.elapsed() < Duration::from_millis(100));

        let (body, value) = read_after(Some(Duration::ZERO), 2);
        assert_eq!(
            value_of(conn.request(body, Duration::from_secs(5))),
            Some(value)
        );
    }

    /// A server that accepts and then never reads fills the socket buffer.
    /// The caller that runs into it must come back once a write has sat
    /// out its timeout, and so must a caller queued behind it on the send
    /// lock — long before either's response timeout.
    #[test]
    fn a_peer_that_never_reads_holds_no_caller_past_the_write_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = Arc::new(Conn::new(listener.local_addr().unwrap()));
        // Connect first, so neither caller below is turned away by the
        // cooldown of the other's connect.
        assert_eq!(
            conn.request(RequestBody::FetchMap, Duration::from_millis(1)),
            None
        );
        let (_peer, _) = listener.accept().unwrap();

        // More than loopback socket buffers hold.
        let body = RequestBody::Write {
            group: GroupId::ZERO,
            key: Bytes::from_static(b"k"),
            command: Bytes::from(vec![0u8; 8 << 20]),
        };
        let started = Instant::now();
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (conn, body) = (Arc::clone(&conn), body.clone());
                std::thread::spawn(move || conn.request(body, Duration::from_secs(30)))
            })
            .collect();
        for caller in callers {
            assert_eq!(caller.join().unwrap(), None);
        }
        // The timeout is per blocked `write`, and a frame larger than the
        // buffer spends it more than once: while the kernel still takes
        // another part of the frame each time, then once with none taken.
        assert!(started.elapsed() < CONNECT_TIMEOUT * 8);
    }
}
