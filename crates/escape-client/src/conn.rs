//! One pipelined client connection per server, and one thread per
//! connection. The hello is written at connect; after that every caller
//! writes its own request frame, one whole frame at a time under the
//! connection's send lock, and waits. The **reader** thread demultiplexes
//! responses back to the waiting callers by request id. A write that
//! fails or outlasts its timeout poisons the connection — part of a frame
//! may be on the wire, so the framing is lost. A connect cooldown makes a
//! dead server cost a cheap check — not a connect timeout — per request.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use escape_transport::clock::monotonic_now;
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Decode, Encode, FrameReader, RequestBody,
    CLIENT_HELLO,
};

/// How long one connect attempt may block, and after it each write of a
/// request frame (a peer that stopped reading must not hold callers).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// First cooldown after a failed connect; doubles per failure.
const COOLDOWN_INITIAL: Duration = Duration::from_millis(50);
/// Cooldown cap: a dead server is probed at least this often.
const COOLDOWN_MAX: Duration = Duration::from_secs(1);

/// A live connection's shared state: the socket's send side, the
/// response registry the reader answers into, and the poison flag either
/// side sets when the socket dies.
#[derive(Debug)]
struct Live {
    /// Held for one whole frame, so concurrent callers' frames never
    /// interleave.
    send: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Sender<ClientResponse>>>,
    dead: AtomicBool,
    /// Reader-side handle kept so [`Conn::disconnect`] can force the
    /// blocking read to fail and the threads to unwind.
    stream: TcpStream,
}

impl Live {
    fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        // Dropping the registry's reply senders wakes every waiter with
        // a channel error — they retry elsewhere instead of timing out.
        self.pending.lock().clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
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
        let (reply_tx, reply_rx) = bounded(1);
        live.pending.lock().insert(id, reply_tx);

        let mut frame = BytesMut::new();
        write_frame(&mut frame, &ClientRequest { id, body }.to_bytes());
        // lint:allow(lock): this guard is the serialisation of whole frames that the writer thread used to provide, and the write timeout bounds the hold
        let sent = live.send.lock().write_all(&frame);
        if sent.is_err() {
            live.pending.lock().remove(&id);
            live.poison();
            return None;
        }
        match reply_rx.recv_timeout(timeout) {
            Ok(response) => Some(response),
            Err(_) => {
                // Timed out (slow server: the reader will drop the late
                // response) or the reader died (poisoned already). Either
                // way deregister and let the caller move on.
                live.pending.lock().remove(&id);
                None
            }
        }
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

    /// Dials the server, says hello, and starts the reader thread.
    fn connect(addr: SocketAddr) -> Option<Arc<Live>> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nodelay(true).ok();
        // Set before the clones: they share the one socket.
        stream.set_write_timeout(Some(CONNECT_TIMEOUT)).ok()?;

        let mut write_half = stream.try_clone().ok()?;
        let mut hello = BytesMut::new();
        write_frame(&mut hello, CLIENT_HELLO);
        write_half.write_all(&hello).ok()?;

        let live = Arc::new(Live {
            send: Mutex::new(write_half),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            stream: stream.try_clone().ok()?,
        });
        let reader_live = Arc::clone(&live);
        let mut read_half = stream;
        std::thread::spawn(move || {
            let mut reader = FrameReader::new();
            let mut chunk = [0u8; 16 * 1024];
            loop {
                let n = match read_half.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                reader.extend(&chunk[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(mut frame)) => {
                            let Ok(response) = ClientResponse::decode(&mut frame) else {
                                reader_live.poison();
                                return;
                            };
                            // A late response (its waiter timed out and
                            // deregistered) is dropped on the floor.
                            let waiter = reader_live.pending.lock().remove(&response.id);
                            if let Some(waiter) = waiter {
                                let _ = waiter.send(response);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            reader_live.poison();
                            return;
                        }
                    }
                }
            }
            reader_live.poison();
        });
        Some(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use bytes::Bytes;
    use escape_core::types::GroupId;

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
