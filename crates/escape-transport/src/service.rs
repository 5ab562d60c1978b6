//! Server-side client serving: turns [`ClientRequest`] frames arriving on
//! the peer listener into consensus operations and streams
//! [`ClientResponse`]s back, pipelined and out of order.
//!
//! Connection anatomy (all threads per connection, all exit when it drops):
//!
//! * The acceptor's reader thread — after it sees the
//!   [`CLIENT_HELLO`](escape_wire::CLIENT_HELLO) frame — becomes the
//!   connection's **dispatcher**: it decodes requests, routes each through
//!   the node's [`ClientRouter`], and either answers immediately
//!   (`FetchMap`, redirects) or submits the operation to its group and
//!   parks the pending reply with that group's completer.
//! * One **completer** thread per group touched by the connection waits on
//!   engine replies and emits the response. Completers are per group so a
//!   wedged or leaderless shard only stalls *its own* pending replies —
//!   operations on other shards keep completing.
//! * One **writer** thread owns the socket's send side and serializes
//!   responses from every completer; nothing ever blocks on the socket
//!   while holding shared state.
//!
//! Responses carry the request's `id`; ordering across groups (and even
//! within one group between reads and writes) is deliberately unspecified.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use escape_core::engine::ProposeError;
use escape_core::types::{GroupId, LogIndex};
use escape_wire::{
    write_frame, ClientRequest, ClientResponse, Encode, FrameReader, RequestBody, ResponseBody,
    WireShardMap,
};

use crate::runtime::NodeInput;

/// How long a completer waits for the engine's accept/read reply before
/// answering [`ResponseBody::Unavailable`].
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a completer waits for an accepted write to apply. Longer than
/// [`REPLY_TIMEOUT`]: acceptance was fast, but the commit needs a quorum
/// round trip (possibly across a failover).
const APPLY_TIMEOUT: Duration = Duration::from_secs(5);

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

/// A submitted operation waiting for its engine reply, parked with the
/// group's completer thread.
enum PendingOp {
    Write {
        id: u64,
        /// The group inbox, for the follow-up `AwaitApplied`.
        inbox: Sender<NodeInput>,
        accept: Receiver<Result<LogIndex, ProposeError>>,
    },
    Read {
        id: u64,
        accept: Receiver<Result<Vec<Bytes>, ProposeError>>,
    },
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
            // and serialize responses from every completer.
            for response in resp_rx.iter() {
                let mut frame = BytesMut::new();
                write_frame(&mut frame, &response.to_bytes());
                if write_half.write_all(&frame).is_err() {
                    return; // client gone; dispatcher notices on read
                }
            }
        });

        let mut completers: HashMap<GroupId, Sender<PendingOp>> = HashMap::new();
        self.dispatch_loop(stream, &mut reader, &mut completers, &resp_tx);

        // Dropping the completer senders and the response sender unwinds
        // the helper threads; join the writer so buffered responses for
        // already-completed operations still reach the wire.
        drop(completers);
        drop(resp_tx);
        let _ = writer.join();
    }

    /// Decodes and routes requests until the connection dies.
    fn dispatch_loop(
        &self,
        mut stream: TcpStream,
        reader: &mut FrameReader,
        completers: &mut HashMap<GroupId, Sender<PendingOp>>,
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
                        if !self.handle(request, completers, resp_tx) {
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
    fn handle(
        &self,
        request: ClientRequest,
        completers: &mut HashMap<GroupId, Sender<PendingOp>>,
        resp_tx: &Sender<ClientResponse>,
    ) -> bool {
        let ClientRequest { id, body } = request;
        let immediate = match body {
            RequestBody::FetchMap => Some(ResponseBody::Map(self.router.map_snapshot())),
            RequestBody::Write {
                group,
                key,
                command,
            } => match self.router.route(group, &key) {
                RouteVerdict::Local(inbox) => {
                    let (tx, rx) = bounded(1);
                    if inbox
                        .send(NodeInput::Propose { command, reply: tx })
                        .is_err()
                    {
                        Some(ResponseBody::Unavailable)
                    } else {
                        let op = PendingOp::Write {
                            id,
                            inbox,
                            accept: rx,
                        };
                        if completer_for(completers, group, resp_tx).send(op).is_err() {
                            Some(ResponseBody::Unavailable)
                        } else {
                            None
                        }
                    }
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
            },
            RequestBody::Read { group, key, query } => match self.router.route(group, &key) {
                RouteVerdict::Local(inbox) => {
                    let (tx, rx) = bounded(1);
                    if inbox
                        .send(NodeInput::Read {
                            queries: vec![query],
                            reply: tx,
                        })
                        .is_err()
                    {
                        Some(ResponseBody::Unavailable)
                    } else {
                        let op = PendingOp::Read { id, accept: rx };
                        if completer_for(completers, group, resp_tx).send(op).is_err() {
                            Some(ResponseBody::Unavailable)
                        } else {
                            None
                        }
                    }
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
            },
        };
        match immediate {
            Some(body) => resp_tx.send(ClientResponse { id, body }).is_ok(),
            None => true,
        }
    }
}

/// The completer channel for `group`, spawning its thread on first use.
fn completer_for<'a>(
    completers: &'a mut HashMap<GroupId, Sender<PendingOp>>,
    group: GroupId,
    resp_tx: &Sender<ClientResponse>,
) -> &'a Sender<PendingOp> {
    completers.entry(group).or_insert_with(|| {
        let (ops_tx, ops_rx) = unbounded::<PendingOp>();
        let resp = resp_tx.clone();
        std::thread::spawn(move || complete_loop(ops_rx, resp));
        ops_tx
    })
}

/// One group's completer: resolves parked operations in submission order
/// (within the group — exactly the order the engine will answer them).
fn complete_loop(ops: Receiver<PendingOp>, resp: Sender<ClientResponse>) {
    for op in ops.iter() {
        let (id, body) = match op {
            PendingOp::Write { id, inbox, accept } => {
                let body = match accept.recv_timeout(REPLY_TIMEOUT) {
                    Ok(Ok(index)) => await_applied(&inbox, index),
                    Ok(Err(ProposeError::NotLeader { hint })) => ResponseBody::NotLeader { hint },
                    Err(_) => ResponseBody::Unavailable,
                };
                (id, body)
            }
            PendingOp::Read { id, accept } => {
                let body = match accept.recv_timeout(REPLY_TIMEOUT) {
                    Ok(Ok(values)) => match values.into_iter().next() {
                        Some(value) => ResponseBody::Value(value),
                        None => ResponseBody::Unavailable,
                    },
                    Ok(Err(ProposeError::NotLeader { hint })) => ResponseBody::NotLeader { hint },
                    Err(_) => ResponseBody::Unavailable,
                };
                (id, body)
            }
        };
        if resp.send(ClientResponse { id, body }).is_err() {
            return; // connection gone; drain is pointless
        }
    }
}

/// Second half of a write: the command was accepted at `index`; wait for
/// it to apply so the response carries the state machine's result.
fn await_applied(inbox: &Sender<NodeInput>, index: LogIndex) -> ResponseBody {
    let (tx, rx) = bounded(1);
    if inbox
        .send(NodeInput::AwaitApplied { index, reply: tx })
        .is_err()
    {
        return ResponseBody::Unavailable;
    }
    match rx.recv_timeout(APPLY_TIMEOUT) {
        Ok(result) => ResponseBody::Written { index, result },
        Err(_) => ResponseBody::Unavailable,
    }
}
