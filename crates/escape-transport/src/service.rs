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
//!   response queue. It never waits for an outcome, so a wedged or
//!   leaderless shard delays only its own requests.
//! * The **group thread** answers: it invokes the reply where the outcome
//!   is known — a read when its batch is ready, a write when its command
//!   applies (or is refused) — which queues the [`ClientResponse`]. A
//!   reply the group drops unanswered (its thread ended, its inbox is
//!   closed) queues [`ResponseBody::Unavailable`], so every admitted
//!   request gets exactly one response and no thread keeps a timeout.
//! * One **writer** thread owns the socket's send side and drains that
//!   queue; the group thread never touches a socket.
//!
//! Responses carry the request's `id`; ordering across groups (and even
//! within one group between reads and writes) is deliberately unspecified.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Sender};

use escape_core::engine::ProposeError;
use escape_core::types::GroupId;
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Encode, FrameReader, RequestBody, ResponseBody,
    WireShardMap,
};

use crate::runtime::{NodeInput, ProposeReply, Reply};

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
}

impl ClientService {
    /// A service answering through `router`.
    pub fn new(router: Arc<dyn ClientRouter>) -> Self {
        ClientService { router }
    }

    /// Serves one hello'd client connection to completion. `reader` is the
    /// acceptor's frame reader, carrying whatever bytes followed the hello
    /// in the same read. Runs on the calling (reader) thread; returns when
    /// the client disconnects or the stream corrupts.
    pub fn serve(self, stream: TcpStream, mut reader: FrameReader) {
        let Ok(mut write_half) = stream.try_clone() else {
            return;
        };
        let (resp_tx, resp_rx) = unbounded::<ClientResponse>();
        let writer = std::thread::spawn(move || {
            // Sole owner of the send side: blocking writes are fine here
            // and serialize responses from every group thread.
            for response in resp_rx.iter() {
                let mut frame = BytesMut::new();
                write_frame(&mut frame, &response.to_bytes());
                if write_half.write_all(&frame).is_err() {
                    return; // client gone; dispatcher notices on read
                }
            }
        });

        self.dispatch_loop(stream, &mut reader, &resp_tx);

        // The writer ends once every sender is gone — this one and the
        // one inside each reply still out with a group; joining it lets
        // the responses already queued reach the wire.
        drop(resp_tx);
        let _ = writer.join();
    }

    /// Decodes and routes requests until the connection dies.
    fn dispatch_loop(
        &self,
        mut stream: TcpStream,
        reader: &mut FrameReader,
        resp_tx: &Sender<ClientResponse>,
    ) {
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
                        if !self.handle(request, resp_tx) {
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
    /// close (response channel gone = writer dead).
    fn handle(&self, request: ClientRequest, resp_tx: &Sender<ClientResponse>) -> bool {
        let ClientRequest { id, body } = request;
        let immediate = match body {
            RequestBody::FetchMap => Some(ResponseBody::Map(self.router.map_snapshot())),
            RequestBody::Write {
                group,
                key,
                command,
            } => self.submit(group, &key, || NodeInput::Propose {
                command,
                reply: ProposeReply::Applied(respond(id, resp_tx, |(index, result)| {
                    ResponseBody::Written { index, result }
                })),
            }),
            RequestBody::Read { group, key, query } => {
                self.submit(group, &key, || NodeInput::Read {
                    queries: vec![query],
                    reply: respond(id, resp_tx, |values: Vec<Bytes>| {
                        match values.into_iter().next() {
                            Some(value) => ResponseBody::Value(value),
                            None => ResponseBody::Unavailable,
                        }
                    }),
                })
            }
        };
        match immediate {
            Some(body) => resp_tx.send(ClientResponse { id, body }).is_ok(),
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

/// The reply for request `id`: queues its one [`ClientResponse`] for the
/// connection's writer, from whichever thread ends up holding it — `ok`
/// shapes the group's answer, a refusal becomes `NotLeader`, and a reply
/// dropped unanswered becomes `Unavailable`.
fn respond<T: Send + 'static>(
    id: u64,
    resp_tx: &Sender<ClientResponse>,
    ok: impl FnOnce(T) -> ResponseBody + Send + 'static,
) -> Reply<Result<T, ProposeError>> {
    let resp_tx = resp_tx.clone();
    Reply::new(move |outcome| {
        let body = match outcome {
            Some(Ok(value)) => ok(value),
            Some(Err(ProposeError::NotLeader { hint })) => ResponseBody::NotLeader { hint },
            None => ResponseBody::Unavailable,
        };
        // A closed queue means the connection is gone, and nobody is left
        // to read the answer.
        let _ = resp_tx.send(ClientResponse { id, body });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    use escape_wire::Decode;

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
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (served, _) = listener.accept().unwrap();
            let service = ClientService::new(Arc::new(FakeRouter(groups)));
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
        let (healthy, reads) = unbounded();
        std::thread::spawn(move || {
            for input in reads.iter() {
                if let NodeInput::Read { queries, reply } = input {
                    reply.answer(Ok(queries));
                }
            }
        });
        let mut client = TestClient::connect(HashMap::from([
            (GroupId::new(1), stuck),
            (GroupId::new(2), healthy),
        ]));
        client.send(1, write_to(1, b"A"));
        client.send(
            2,
            RequestBody::Read {
                group: GroupId::new(2),
                key: Bytes::from_static(b"k"),
                query: Bytes::from_static(b"q"),
            },
        );
        assert_eq!(
            client.response_within(Duration::from_secs(5)),
            Some(ClientResponse {
                id: 2,
                body: ResponseBody::Value(Bytes::from_static(b"q")),
            })
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
}
