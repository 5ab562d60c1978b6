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
//!   the node's [`ClientRouter`] to a hosted group's [`GroupHandle`], and
//!   either answers immediately (`FetchMap`, redirects) or hands the
//!   operation to the group with a [`Reply`] built around the request id
//!   and the connection's outbox. A read the group's lease can answer at
//!   once is answered right there, on the group's engine
//!   ([`GroupHandle::read`]), so a leased get never leaves the dispatcher;
//!   the engine is taken by `try_lock` only, and every other operation
//!   goes to the group's inbox (a write as its own one-command
//!   [`NodeInput::Propose`]). It never waits for an outcome, so a
//!   wedged or leaderless shard delays only its own requests.
//! * The **group thread** answers the rest: it invokes the reply where the
//!   outcome is known — a read when its batch is ready, a write when its
//!   command applies (or is refused) — which sends the [`ClientResponse`].
//!   A reply the group drops unanswered (its thread ended, its inbox is
//!   closed) sends [`ResponseBody::Unavailable`], so every admitted
//!   request gets exactly one response and no thread keeps a timeout.
//! * The **outbox** is the socket's send side. A response — from a reply
//!   or from the dispatcher — is framed in place into its backlog under
//!   one lock. When the writer is idle the kernel gets it there and then,
//!   by a `send` that never blocks; nearly always it takes it all, and a
//!   response crosses no other thread. While the dispatcher handles what
//!   one `read` of the socket brought, it holds the backlog: responses
//!   only join it, and leave together in one `send` before the dispatcher
//!   reads again. What the kernel leaves behind wakes the **writer**
//!   thread, which makes the blocking writes until the backlog is empty
//!   again; while it works, responses only join the backlog. So
//!   no group thread ever waits on a client's socket, and frames never
//!   interleave.
//!
//! Responses carry the request's `id`; ordering across groups (and even
//! within one group between reads and writes) is deliberately unspecified.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::ops::DerefMut;
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

use crate::runtime::{GroupHandle, NodeInput, ProposeReply, Reply};
use crate::sys;

/// Where a client operation on `(group, key)` should go, as judged by the
/// serving node's routing state.
#[derive(Clone, Copy, Debug)]
pub enum RouteVerdict<'a> {
    /// The group is hosted here and owns the key: hand it the operation.
    Local(&'a GroupHandle),
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
    fn route(&self, group: GroupId, key: &[u8]) -> RouteVerdict<'_>;

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

        // A dispatcher that quit mid-hold gives it up, so what the groups
        // still answer goes out. The writer ends once every outbox handle
        // is gone — this one and the one inside each reply still out with
        // a group; joining it lets the backlog already queued reach the
        // wire.
        outbox.release();
        drop(outbox);
        let _ = writer.join();
    }

    /// Decodes and routes requests until the connection dies.
    fn dispatch_loop(&self, mut stream: TcpStream, reader: &mut FrameReader, outbox: &Arc<Outbox>) {
        use std::io::Read;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Drain every frame already buffered (the hello's read may
            // have carried pipelined requests) before blocking again. The
            // answers given meanwhile are held, and leave in one send.
            outbox.hold();
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
            if !outbox.release() {
                return;
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
            } => self.submit(group, &key, |group| {
                let input = NodeInput::Propose {
                    commands: vec![command],
                    reply: ProposeReply::Applied(vec![respond(id, outbox, |(index, result)| {
                        ResponseBody::Written { index, result }
                    })]),
                };
                // A refused send hands the input back, and dropping it
                // answers `Unavailable`.
                let _ = group.inbox().send(input);
            }),
            RequestBody::Read { group, key, query } => self.submit(group, &key, |group| {
                let reply = respond(id, outbox, |values: Vec<Bytes>| {
                    match values.into_iter().next() {
                        Some(value) => ResponseBody::Value(value),
                        None => ResponseBody::Unavailable,
                    }
                });
                group.read(vec![query], reply);
            }),
        };
        match immediate {
            Some(body) => outbox.send(&ClientResponse { id, body }),
            None => true,
        }
    }

    /// Routes an operation on `(group, key)`: hosted here, `local` hands it
    /// to the group, which answers it; otherwise the answer comes back to
    /// be sent at once. The reply is built only for a local group because
    /// it answers when dropped.
    fn submit(
        &self,
        group: GroupId,
        key: &[u8],
        local: impl FnOnce(&GroupHandle),
    ) -> Option<ResponseBody> {
        match self.router.route(group, key) {
            RouteVerdict::Local(group) => {
                local(group);
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
    /// The dispatcher is handling what one `read` brought: responses only
    /// join the backlog, and it sends them together when it is done.
    held: bool,
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
    /// flush or the dispatcher holds the backlog, sends the backlog at once
    /// without blocking; the writer is woken for whatever the kernel
    /// leaves. Returns `false` once the client is gone.
    fn send(&self, response: &ClientResponse) -> bool {
        let mut backlog = self.send_side.backlog.lock();
        if backlog.closed {
            return false;
        }
        write_frame_with(&mut backlog.bytes, |buf| response.encode(buf));
        if backlog.writer_busy || backlog.held {
            return true;
        }
        self.push(backlog)
    }

    /// Holds responses in the backlog until [`Outbox::release`].
    fn hold(&self) {
        self.send_side.backlog.lock().held = true;
    }

    /// Ends a hold, sending what it kept as [`Outbox::send`] would.
    /// Returns `false` once the client is gone.
    fn release(&self) -> bool {
        let mut backlog = self.send_side.backlog.lock();
        backlog.held = false;
        if backlog.closed {
            return false;
        }
        if backlog.writer_busy || backlog.bytes.is_empty() {
            return true;
        }
        self.push(backlog)
    }

    /// Sends the non-empty backlog without blocking, or hands what the
    /// kernel leaves to the writer thread.
    fn push(&self, mut backlog: impl DerefMut<Target = Backlog>) -> bool {
        let send_side = &*self.send_side;
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

    use crate::runtime::tests::{engine_of, leased_group, tagged, ScriptedLeader};

    /// Routes by group id alone, to whatever group the test put there.
    #[derive(Debug)]
    struct FakeRouter(HashMap<GroupId, GroupHandle>);

    impl ClientRouter for FakeRouter {
        fn route(&self, group: GroupId, _key: &[u8]) -> RouteVerdict<'_> {
            match self.0.get(&group) {
                Some(group) => RouteVerdict::Local(group),
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
        fn connect(groups: HashMap<GroupId, GroupHandle>) -> Self {
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

    fn service_over(groups: HashMap<GroupId, GroupHandle>) -> ClientService {
        ClientService::new(Arc::new(FakeRouter(groups)))
    }

    /// A group with no engine, whose thread answers every read with its
    /// own queries, and the count of reads it has answered.
    fn echo_group() -> (GroupHandle, Arc<AtomicUsize>) {
        let (inbox, inputs) = unbounded();
        (GroupHandle::new(inbox), echo(inputs))
    }

    /// Starts a group thread on `inputs` that answers every read with its
    /// own queries; returns the count of reads it has answered.
    fn echo(inputs: Receiver<NodeInput>) -> Arc<AtomicUsize> {
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
        answered
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
            TestClient::connect(HashMap::from([(GroupId::ZERO, leader.group.clone())]));
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
            (GroupId::new(1), GroupHandle::new(stuck)),
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

    /// A read the lease can answer is answered on the dispatcher, off the
    /// group's engine: a thousand gets on one connection, and not one of
    /// them reaches the group's inbox.
    #[test]
    fn leased_reads_are_answered_without_the_group_thread() {
        const REQUESTS: u64 = 1_000;
        let (inbox, inputs) = unbounded();
        let group = leased_group(inbox);
        let mut client = TestClient::connect(HashMap::from([(GroupId::ZERO, group.clone())]));
        for id in 1..=REQUESTS {
            let query = Bytes::from(id.to_le_bytes().to_vec());
            client.send(id, read_of(0, query.clone()));
            assert_eq!(
                client.response_within(Duration::from_secs(5)),
                value(id, tagged(&query))
            );
        }
        assert_eq!(
            inputs.try_iter().count(),
            0,
            "inputs the group thread received"
        );
        let engine = engine_of(&group).lock();
        let metrics = engine.as_ref().unwrap().metrics();
        assert_eq!((metrics.lease_reads, metrics.quorum_reads), (REQUESTS, 0));
    }

    /// A dispatcher never waits for the engine: while the node thread
    /// holds it, a read goes to the inbox, and the group thread answers it
    /// once it runs.
    #[test]
    fn a_read_goes_to_the_inbox_while_the_engine_is_busy() {
        let (inbox, inputs) = unbounded();
        let group = leased_group(inbox);
        let mut client = TestClient::connect(HashMap::from([(GroupId::ZERO, group.clone())]));
        let busy = engine_of(&group).lock();
        client.send(1, read_of(0, Bytes::from_static(b"q")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while inputs.is_empty() {
            assert!(
                Instant::now() < deadline,
                "the read never reached the inbox"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(client.response_within(Duration::from_millis(50)), None);

        echo(inputs);
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            value(1, Bytes::from_static(b"q")),
            "answered by the group thread, not the engine"
        );
        drop(busy);
    }

    /// The lease answers nothing on a follower: its node thread refuses
    /// the read, naming the leader it follows.
    #[test]
    fn a_read_on_a_follower_is_refused_with_the_leader_hint() {
        use escape_core::engine::Node;
        use escape_core::message::{AppendEntriesArgs, Message};
        use escape_core::policy::{RaftPolicy, ScriptedTimeouts};
        use escape_core::types::{LogIndex, ServerId, Term};

        struct Nowhere;
        impl crate::runtime::Outbound for Nowhere {
            fn send(&self, _to: ServerId, _msg: Message) {}
        }

        let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        let node = Node::builder(ids[1], ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![escape_core::time::Duration::from_secs(60)]),
            ))))
            .options(crate::spec::ProtocolSpec::local_options())
            .build();
        let (inbox, rx) = unbounded();
        let group = GroupHandle::new(inbox.clone());
        let thread = {
            let group = group.clone();
            std::thread::spawn(move || {
                crate::runtime::node_loop(node, group, rx, Arc::new(Nowhere))
            })
        };
        let heartbeat = Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(1),
            leader_id: ids[0],
            prev_log_index: LogIndex::ZERO,
            prev_log_term: Term::ZERO,
            entries: Vec::new(),
            leader_commit: LogIndex::ZERO,
            new_config: None,
            seq: 1,
        });
        inbox.send(NodeInput::Peer(ids[0], heartbeat)).unwrap();

        let mut client = TestClient::connect(HashMap::from([(GroupId::ZERO, group)]));
        client.send(1, read_of(0, Bytes::from_static(b"q")));
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            Some(ClientResponse {
                id: 1,
                body: ResponseBody::NotLeader { hint: Some(ids[0]) },
            })
        );
        inbox.send(NodeInput::Shutdown).unwrap();
        thread.join().unwrap();
    }

    /// The answers to the requests one `read` brought leave in one `send`:
    /// ten leased reads written at once come back in the client's first
    /// read.
    #[test]
    fn answers_to_one_reads_requests_leave_together() {
        const REQUESTS: u64 = 10;
        let (inbox, _inputs) = unbounded();
        let mut client = TestClient::connect(HashMap::from([(GroupId::ZERO, leased_group(inbox))]));
        let mut frames = BytesMut::new();
        for id in 1..=REQUESTS {
            let request = ClientRequest {
                id,
                body: read_of(0, Bytes::from(id.to_le_bytes().to_vec())),
            };
            write_frame(&mut frames, &request.to_bytes());
        }
        client.stream.write_all(&frames).unwrap();
        let mut chunk = [0u8; 4096];
        let n = client.stream.read(&mut chunk).unwrap();
        client.reader.extend(&chunk[..n]);
        let mut answered = 0;
        while let Some(mut frame) = client.reader.next_frame().unwrap() {
            let response = ClientResponse::decode(&mut frame).unwrap();
            let query = Bytes::from(response.id.to_le_bytes().to_vec());
            assert_eq!(Some(response.clone()), value(response.id, tagged(&query)));
            answered += 1;
        }
        assert_eq!(answered, REQUESTS, "answers in the first read");
    }

    /// A dispatcher that quits in the middle of a hold — here on a corrupt
    /// frame read together with a request its group parks — gives the hold
    /// up: the group's later answer still reaches the client, whether it
    /// comes before or after the dispatcher has quit.
    #[test]
    fn a_hold_ends_with_its_dispatcher() {
        let (inbox, inputs) = unbounded();
        let mut client =
            TestClient::connect(HashMap::from([(GroupId::ZERO, GroupHandle::new(inbox))]));
        let mut frames = BytesMut::new();
        let request = ClientRequest {
            id: 1,
            body: read_of(0, Bytes::from_static(b"q")),
        };
        write_frame(&mut frames, &request.to_bytes());
        write_frame(&mut frames, b"\xff");
        client.stream.write_all(&frames).unwrap();

        let Ok(NodeInput::Read { queries, reply }) = inputs.recv_timeout(Duration::from_secs(5))
        else {
            panic!("the read reaches the group");
        };
        reply.answer(Ok(queries));
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            value(1, Bytes::from_static(b"q"))
        );
    }
}
