//! Server-side client serving: turns [`ClientRequest`] frames arriving on
//! the peer listener into consensus operations and streams
//! [`ClientResponse`]s back, pipelined and out of order.
//!
//! Connection anatomy (two threads per connection, both exit when it
//! drops):
//!
//! * The acceptor's reader thread — after it sees the
//!   [`CLIENT_HELLO`](escape_wire::CLIENT_HELLO) frame — becomes the
//!   connection's **dispatcher**: it decodes requests, routes each through
//!   the node's [`ClientRouter`], and either answers immediately
//!   (`FetchMap`, redirects) or submits the operation to its group's inbox
//!   with a [`Reply`] built around the request id and the connection's
//!   outbox. It never waits for an outcome, so a wedged or leaderless
//!   shard delays only its own requests.
//! * The **group thread** answers: it invokes the reply where the outcome
//!   is known — a read when its batch is ready, a write when its command
//!   applies (or is refused) — which sends the [`ClientResponse`]. A
//!   reply the group drops unanswered (its thread ended, its inbox is
//!   closed) sends [`ResponseBody::Unavailable`], so every admitted
//!   request gets exactly one response and no thread keeps a timeout.
//! * The **outbox** is the socket's send side. A response — from a reply
//!   or from the dispatcher — is framed in place into its backlog under
//!   one lock. When the writer is idle the kernel gets it there and then,
//!   by a `send` that never blocks; nearly always it takes it all, and a
//!   response crosses no other thread. What it leaves behind wakes the
//!   **writer** thread, which makes the blocking writes until the backlog
//!   is empty again; while it works, responses only join the backlog. So
//!   no group thread ever waits on a client's socket, and frames never
//!   interleave.
//!
//! Responses carry the request's `id`; ordering across groups (and even
//! within one group between reads and writes) is deliberately unspecified.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bytes::{Buf, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use escape_core::engine::ProposeError;
use escape_core::types::GroupId;
use escape_wire::{
    write_frame_with, ClientRequest, ClientResponse, Encode, FrameReader, RequestBody,
    ResponseBody, WireShardMap,
};

use crate::runtime::{NodeInput, ProposeReply, Reply};
use crate::sys;

/// Where a client operation on `(group, key)` should go, as judged by the
/// serving node's routing state.
#[derive(Clone, Debug)]
pub enum RouteVerdict {
    /// The group is hosted here and owns the key: submit to its inbox.
    Local(Sender<NodeInput>),
    /// The key belongs to a different group (stale client map).
    Redirect {
        /// The group the client addressed.
        asked: GroupId,
        /// The owner under the server's map.
        owner: GroupId,
        /// The server's map version.
        map_version: u64,
    },
    /// The named group is not known here at all.
    Unknown,
}

/// How a serving node resolves client operations. The node type lives
/// above this crate (`escape-shard`), so its shard-map lookup arrives
/// through this trait.
pub trait ClientRouter: Send + Sync + std::fmt::Debug {
    /// Routes one operation addressed to `group` for `key`.
    fn route(&self, group: GroupId, key: &[u8]) -> RouteVerdict;

    /// The node's current shard map, in wire form (for
    /// [`RequestBody::FetchMap`]).
    fn map_snapshot(&self) -> WireShardMap;
}

/// The per-node client-serving half the acceptor hands hello'd connections
/// to. Cheap to clone (one `Arc`).
#[derive(Clone, Debug)]
pub struct ClientService {
    router: Arc<dyn ClientRouter>,
    handoffs: Handoffs,
}

impl ClientService {
    /// A service answering through `router`.
    pub fn new(router: Arc<dyn ClientRouter>) -> Self {
        ClientService {
            router,
            handoffs: Default::default(),
        }
    }

    /// Serves one hello'd client connection to completion. `reader` is the
    /// acceptor's frame reader, carrying whatever bytes followed the hello
    /// in the same read. Runs on the calling (reader) thread; returns when
    /// the client disconnects or the stream corrupts.
    pub fn serve(self, stream: TcpStream, mut reader: FrameReader) {
        let Ok(socket) = stream.try_clone() else {
            return;
        };
        let (wake, woken) = unbounded();
        let send_side = Arc::new(SendSide {
            socket,
            backlog: Mutex::default(),
        });
        let writer = {
            let send_side = Arc::clone(&send_side);
            std::thread::spawn(move || send_side.write_backlog(&woken))
        };
        let outbox = Arc::new(Outbox {
            send_side,
            wake,
            handoffs: self.handoffs.clone(),
        });

        self.dispatch_loop(stream, &mut reader, &outbox);

        // The writer ends once every outbox handle is gone — this one and
        // the one inside each reply still out with a group; joining it
        // lets the backlog already queued reach the wire.
        drop(outbox);
        let _ = writer.join();
    }

    /// Decodes and routes requests until the connection dies.
    fn dispatch_loop(&self, mut stream: TcpStream, reader: &mut FrameReader, outbox: &Arc<Outbox>) {
        use std::io::Read;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Drain every frame already buffered (the hello's read may
            // have carried pipelined requests) before blocking again.
            loop {
                match reader.next_frame() {
                    Ok(Some(mut frame)) => {
                        let Ok(request) =
                            <ClientRequest as escape_wire::Decode>::decode(&mut frame)
                        else {
                            return; // corrupt stream: drop the connection
                        };
                        if !self.handle(request, outbox) {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            // lint:allow(panic): n is the byte count just read into chunk, so n <= chunk.len()
            reader.extend(&chunk[..n]);
        }
    }

    /// Routes one request. Returns `false` when the connection should
    /// close (the client stopped taking responses).
    fn handle(&self, request: ClientRequest, outbox: &Arc<Outbox>) -> bool {
        let ClientRequest { id, body } = request;
        let immediate = match body {
            RequestBody::FetchMap => Some(ResponseBody::Map(self.router.map_snapshot())),
            RequestBody::Write {
                group,
                key,
                command,
            } => self.submit(group, &key, || NodeInput::Propose {
                command,
                reply: ProposeReply::Applied(respond(id, outbox, |(index, result)| {
                    ResponseBody::Written { index, result }
                })),
            }),
            RequestBody::Read { group, key, query } => {
                self.submit(group, &key, || NodeInput::Read {
                    queries: vec![query],
                    reply: respond(id, outbox, |values: Vec<Bytes>| {
                        match values.into_iter().next() {
                            Some(value) => ResponseBody::Value(value),
                            None => ResponseBody::Unavailable,
                        }
                    }),
                })
            }
        };
        match immediate {
            Some(body) => outbox.send(&ClientResponse { id, body }),
            None => true,
        }
    }

    /// Routes an operation on `(group, key)`: hosted here, `input` is built
    /// and handed to the group, whose thread answers it; otherwise the
    /// answer comes back to be sent at once. The input is built only for
    /// a local group because the reply inside it answers when dropped.
    fn submit(
        &self,
        group: GroupId,
        key: &[u8],
        input: impl FnOnce() -> NodeInput,
    ) -> Option<ResponseBody> {
        match self.router.route(group, key) {
            RouteVerdict::Local(inbox) => {
                // A refused send hands the input back, and dropping it
                // answers `Unavailable`.
                let _ = inbox.send(input());
                None
            }
            RouteVerdict::Redirect {
                asked,
                owner,
                map_version,
            } => Some(ResponseBody::Redirect {
                asked,
                owner,
                map_version,
            }),
            RouteVerdict::Unknown => Some(ResponseBody::Unavailable),
        }
    }
}

/// The reply for request `id`: sends its one [`ClientResponse`] through
/// the connection's outbox, from whichever thread ends up holding it —
/// `ok` shapes the group's answer, a refusal becomes `NotLeader`, and a
/// reply dropped unanswered becomes `Unavailable`.
fn respond<T: Send + 'static>(
    id: u64,
    outbox: &Arc<Outbox>,
    ok: impl FnOnce(T) -> ResponseBody + Send + 'static,
) -> Reply<Result<T, ProposeError>> {
    let outbox = Arc::clone(outbox);
    Reply::new(move |outcome| {
        let body = match outcome {
            Some(Ok(value)) => ok(value),
            Some(Err(ProposeError::NotLeader { hint })) => ResponseBody::NotLeader { hint },
            None => ResponseBody::Unavailable,
        };
        // A closed outbox means the client is gone, and nobody is left to
        // read the answer.
        outbox.send(&ClientResponse { id, body });
    })
}

/// A connection's send side, shared by every outbox handle and the
/// connection's writer thread.
#[derive(Debug)]
struct SendSide {
    socket: TcpStream,
    backlog: Mutex<Backlog>,
}

/// What the kernel has not taken yet, and who is giving it to it.
#[derive(Debug, Default)]
struct Backlog {
    /// Whole response frames, in the order they were sent.
    bytes: BytesMut,
    /// The writer thread holds the flush: set by the responder that handed
    /// it bytes the kernel would not take, cleared by the writer once the
    /// backlog is empty. While it is set nobody else sends, so frames
    /// reach the socket in backlog order.
    writer_busy: bool,
    /// A send failed: the client is gone, and later responses are dropped.
    closed: bool,
}

/// The handle responses go out through: the dispatcher holds one and so
/// does each reply out with a group. The writer thread ends once the last
/// is gone.
#[derive(Debug)]
struct Outbox {
    send_side: Arc<SendSide>,
    /// One token per hand-off to the parked writer thread.
    wake: Sender<()>,
    handoffs: Handoffs,
}

impl Outbox {
    /// Frames `response` into the backlog and, unless the writer holds the
    /// flush, sends the backlog at once without blocking; the writer is
    /// woken for whatever the kernel leaves. Returns `false` once the
    /// client is gone.
    fn send(&self, response: &ClientResponse) -> bool {
        let send_side = &*self.send_side;
        let mut backlog = send_side.backlog.lock();
        if backlog.closed {
            return false;
        }
        write_frame_with(&mut backlog.bytes, |buf| response.encode(buf));
        if backlog.writer_busy {
            return true;
        }
        match sys::send_nonblocking(&send_side.socket, &backlog.bytes) {
            Ok(sent) if sent == backlog.bytes.len() => {
                backlog.bytes.clear();
                return true;
            }
            Ok(sent) => backlog.bytes.advance(sent),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => {
                backlog.close();
                return false;
            }
        }
        backlog.writer_busy = true;
        drop(backlog);
        self.handoffs.count();
        // A writer that has already quit set `closed` first.
        let _ = self.wake.send(());
        true
    }
}

/// Responses handed to a writer thread, over every connection of one
/// service: counted for tests, nothing otherwise.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
struct Handoffs(Arc<std::sync::atomic::AtomicUsize>);

#[cfg(not(test))]
#[derive(Clone, Debug, Default)]
struct Handoffs;

impl Handoffs {
    #[cfg(test)]
    fn count(&self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    #[cfg(not(test))]
    fn count(&self) {}
}

impl Backlog {
    fn close(&mut self) {
        self.closed = true;
        self.writer_busy = false;
        self.bytes = BytesMut::new();
    }
}

impl SendSide {
    /// The writer thread: for each hand-off, writes the backlog out —
    /// blocking, with the lock released — until it finds it empty, then
    /// gives the flush back and parks. Ends when every outbox handle is
    /// gone, or the client is.
    fn write_backlog(&self, woken: &Receiver<()>) {
        let mut batch = BytesMut::new();
        while woken.recv().is_ok() {
            loop {
                {
                    let mut backlog = self.backlog.lock();
                    if backlog.bytes.is_empty() {
                        backlog.writer_busy = false;
                        break;
                    }
                    std::mem::swap(&mut backlog.bytes, &mut batch);
                }
                if (&self.socket).write_all(&batch).is_err() {
                    self.backlog.lock().close();
                    return; // client gone; the dispatcher notices on read
                }
                batch.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    use escape_wire::{write_frame, Decode};

    use crate::runtime::tests::ScriptedLeader;

    /// Routes by group id alone, to whatever inbox the test put there.
    #[derive(Debug)]
    struct FakeRouter(HashMap<GroupId, Sender<NodeInput>>);

    impl ClientRouter for FakeRouter {
        fn route(&self, group: GroupId, _key: &[u8]) -> RouteVerdict {
            match self.0.get(&group) {
                Some(inbox) => RouteVerdict::Local(inbox.clone()),
                None => RouteVerdict::Unknown,
            }
        }

        fn map_snapshot(&self) -> WireShardMap {
            WireShardMap {
                version: 0,
                ranges: Vec::new(),
            }
        }
    }

    /// The client end of a loopback connection a [`ClientService`] over
    /// `groups` is serving (on a thread that ends with the connection).
    struct TestClient {
        stream: TcpStream,
        reader: FrameReader,
    }

    impl TestClient {
        fn connect(groups: HashMap<GroupId, Sender<NodeInput>>) -> Self {
            Self::served_by(service_over(groups))
        }

        /// A new connection `service` serves.
        fn served_by(service: ClientService) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (served, _) = listener.accept().unwrap();
            std::thread::spawn(move || service.serve(served, FrameReader::new()));
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            TestClient {
                stream,
                reader: FrameReader::new(),
            }
        }

        fn send(&mut self, id: u64, body: RequestBody) {
            let mut frame = BytesMut::new();
            write_frame(&mut frame, &ClientRequest { id, body }.to_bytes());
            self.stream.write_all(&frame).unwrap();
        }

        /// The next response, or `None` if none arrives within `wait`.
        fn response_within(&mut self, wait: Duration) -> Option<ClientResponse> {
            self.stream.set_read_timeout(Some(wait)).unwrap();
            let mut chunk = [0u8; 4096];
            loop {
                if let Some(mut frame) = self.reader.next_frame().unwrap() {
                    return Some(ClientResponse::decode(&mut frame).unwrap());
                }
                match self.stream.read(&mut chunk) {
                    Ok(n) if n > 0 => self.reader.extend(&chunk[..n]),
                    _ => return None,
                }
            }
        }
    }

    fn service_over(groups: HashMap<GroupId, Sender<NodeInput>>) -> ClientService {
        ClientService::new(Arc::new(FakeRouter(groups)))
    }

    /// A group thread that answers every read with its own queries, and
    /// the count of reads it has answered.
    fn echo_group() -> (Sender<NodeInput>, Arc<AtomicUsize>) {
        let (inbox, inputs) = unbounded();
        let answered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&answered);
        std::thread::spawn(move || {
            for input in inputs.iter() {
                if let NodeInput::Read { queries, reply } = input {
                    reply.answer(Ok(queries));
                    count.fetch_add(1, Ordering::Release);
                }
            }
        });
        (inbox, answered)
    }

    fn read_of(group: u32, query: Bytes) -> RequestBody {
        RequestBody::Read {
            group: GroupId::new(group),
            key: Bytes::from_static(b"k"),
            query,
        }
    }

    fn value(id: u64, value: Bytes) -> Option<ClientResponse> {
        Some(ClientResponse {
            id,
            body: ResponseBody::Value(value),
        })
    }

    fn write_to(group: u32, command: &'static [u8]) -> RequestBody {
        RequestBody::Write {
            group: GroupId::new(group),
            key: Bytes::from_static(b"k"),
            command: Bytes::from_static(command),
        }
    }

    /// A write the leader accepted and nobody acknowledged is parked with
    /// the group thread. When that thread stops, the client hears
    /// `Unavailable` at once — not after a timeout somebody keeps — and so
    /// does the next request, which the closed inbox refuses.
    #[test]
    fn a_write_parked_on_a_group_that_stops_is_answered_unavailable() {
        let leader = ScriptedLeader::start();
        let mut client =
            TestClient::connect(HashMap::from([(GroupId::ZERO, leader.inbox.clone())]));
        client.send(1, write_to(0, b"A"));
        leader.replicates(b"A");
        assert_eq!(client.response_within(Duration::from_millis(50)), None);

        let stopped = Instant::now();
        leader.stop();
        let unavailable = |id| {
            Some(ClientResponse {
                id,
                body: ResponseBody::Unavailable,
            })
        };
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            unavailable(1)
        );
        assert!(stopped.elapsed() < Duration::from_millis(100));

        client.send(2, write_to(0, b"C"));
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            unavailable(2)
        );
    }

    /// One connection, two groups: a write to a group whose inbox nobody
    /// drains must not hold up a read to the other group: the dispatcher
    /// waits for no outcome. The stuck write is answered when its group
    /// goes away.
    #[test]
    fn a_stuck_group_does_not_delay_another_groups_read() {
        let (stuck, never_drained) = unbounded();
        let (healthy, _) = echo_group();
        let mut client = TestClient::connect(HashMap::from([
            (GroupId::new(1), stuck),
            (GroupId::new(2), healthy),
        ]));
        client.send(1, write_to(1, b"A"));
        client.send(2, read_of(2, Bytes::from_static(b"q")));
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            value(2, Bytes::from_static(b"q"))
        );
        assert_eq!(client.response_within(Duration::from_millis(50)), None);

        drop(never_drained);
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            Some(ClientResponse {
                id: 1,
                body: ResponseBody::Unavailable,
            })
        );
    }

    /// A client that stops reading fills its socket, and the rest of its
    /// responses pile up in its outbox's backlog for the writer thread.
    /// The group that answered them must not wait on it: a read from a
    /// second connection is answered at once. Once the first client reads
    /// again, every one of its responses arrives exactly once, whole.
    #[test]
    fn a_client_that_stops_reading_does_not_stall_its_group() {
        const COUNT: u64 = 64;
        const SIZE: usize = 256 << 10; // 16 MiB in all: more than loopback buffers hold
        let (group, answered) = echo_group();
        let service = service_over(HashMap::from([(GroupId::ZERO, group)]));
        let handoffs = Arc::clone(&service.handoffs.0);
        let mut stalled = TestClient::served_by(service.clone());
        let mut other = TestClient::served_by(service);
        let big = |id: u64| Bytes::from(vec![id as u8; SIZE]);

        for id in 1..=COUNT {
            stalled.send(id, read_of(0, big(id)));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while answered.load(Ordering::Acquire) < COUNT as usize {
            assert!(Instant::now() < deadline, "the group never answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(handoffs.load(Ordering::Relaxed) > 0);

        let asked = Instant::now();
        other.send(1, read_of(0, Bytes::from_static(b"q")));
        assert_eq!(
            other.response_within(Duration::from_secs(5)),
            value(1, Bytes::from_static(b"q"))
        );
        assert!(asked.elapsed() < Duration::from_millis(50));

        let mut seen = BTreeSet::new();
        for _ in 1..=COUNT {
            let response = stalled.response_within(Duration::from_secs(5)).unwrap();
            assert_eq!(Some(response.clone()), value(response.id, big(response.id)));
            assert!(seen.insert(response.id), "{} twice", response.id);
        }
        assert_eq!(seen, (1..=COUNT).collect());
        assert_eq!(stalled.response_within(Duration::from_millis(50)), None);
    }

    /// A connection whose client keeps up never wakes its writer thread:
    /// the group thread's own `send` delivers every response. (Where that
    /// call does not exist, every response is handed off.)
    #[test]
    fn a_client_that_keeps_up_never_needs_the_writer_thread() {
        const REQUESTS: u64 = 1_000;
        let (group, _) = echo_group();
        let service = service_over(HashMap::from([(GroupId::ZERO, group)]));
        let handoffs = Arc::clone(&service.handoffs.0);
        let mut client = TestClient::served_by(service);
        for id in 1..=REQUESTS {
            let query = Bytes::from(id.to_le_bytes().to_vec());
            client.send(id, read_of(0, query.clone()));
            assert_eq!(
                client.response_within(Duration::from_secs(5)),
                value(id, query)
            );
        }
        let expected = if cfg!(target_os = "linux") {
            0
        } else {
            REQUESTS as usize
        };
        assert_eq!(handoffs.load(Ordering::Relaxed), expected);
    }
}
