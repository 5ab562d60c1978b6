//! The client-facing wire protocol: request/response envelopes spoken
//! between `escape-client` and a serving node, multiplexed over the same
//! listener as peer traffic.
//!
//! A client connection opens with a single [`CLIENT_HELLO`] frame. The
//! hello is one zero byte — a peer [`Envelope`](crate::Envelope) can
//! never start with it, because its leading field is a `ServerId` varint
//! and server id `0` is rejected by the codec — so the server's reader
//! can classify a connection from its first frame alone. Every
//! subsequent client frame is a [`ClientRequest`]; every server frame on
//! that connection is a [`ClientResponse`].
//!
//! Responses are matched to requests by the client-chosen `id`, **not**
//! by arrival order: the connection is pipelined, and the server answers
//! each request as its consensus group resolves it, so responses for
//! different groups legitimately interleave.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use escape_core::types::{GroupId, LogIndex, ServerId};

use crate::codec::{Decode, Encode};
use crate::error::WireError;
use crate::varint::{get_uvarint, put_uvarint};

/// The one-frame preamble a client sends right after connecting. (A peer
/// envelope's first byte is a nonzero `ServerId` varint, so this cannot
/// collide.)
pub const CLIENT_HELLO: &[u8] = &[0x00];

/// One client request. `id` is chosen by the client (unique per
/// connection) and echoed verbatim in the matching [`ClientResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientRequest {
    /// Request id, echoed in the response.
    pub id: u64,
    /// What is being asked.
    pub body: RequestBody,
}

/// The request payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestBody {
    /// Propose `command` into `group` (which the client believes owns
    /// `key`) and wait for it to apply.
    Write {
        /// The group the client's map says owns `key`.
        group: GroupId,
        /// The routing key (the server re-checks ownership).
        key: Bytes,
        /// The encoded state-machine command.
        command: Bytes,
    },
    /// Linearizable read of `query` against `group`'s state machine.
    Read {
        /// The group the client's map says owns `key`.
        group: GroupId,
        /// The routing key (the server re-checks ownership).
        key: Bytes,
        /// The encoded state-machine query.
        query: Bytes,
    },
    /// Fetch the server's current shard map (bootstrap, or refresh after
    /// a redirect named a newer version).
    FetchMap,
}

/// One server response, matched by `id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientResponse {
    /// The request id this answers.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The response payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// The write committed and applied.
    Written {
        /// The log index the command landed at.
        index: LogIndex,
        /// The state machine's response payload.
        result: Bytes,
    },
    /// The read's answer.
    Value(
        /// The state machine's query response.
        Bytes,
    ),
    /// The server's current shard map (answer to
    /// [`RequestBody::FetchMap`]).
    Map(WireShardMap),
    /// The addressed group does not own the key; retry at `owner` —
    /// and if `map_version` is newer than the client's cached map,
    /// refresh the map first.
    Redirect {
        /// The group the client addressed.
        asked: GroupId,
        /// The group that actually owns the key.
        owner: GroupId,
        /// The server's map version (monotone; newer wins).
        map_version: u64,
    },
    /// The group's engine on this server is not its leader. A server
    /// that knows no leader holds the request until one is known, so a
    /// `NotLeader` without a hint means none emerged within one election
    /// timeout floor of the request.
    NotLeader {
        /// Where to retry, if the engine knows.
        hint: Option<ServerId>,
    },
    /// The group's engine did not answer (thread gone, or past the
    /// server's reply budget). The client should back off and retry
    /// elsewhere.
    Unavailable,
}

/// A shard map in wire form: the version plus `(range start, owner)`
/// pairs ascending by start — exactly the shape
/// `escape_shard::ShardMap` serializes to and reconstructs from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireShardMap {
    /// The map version.
    pub version: u64,
    /// `(range start, owning group)`, ascending by start, first start 0.
    pub ranges: Vec<(u64, GroupId)>,
}

// Cap decoded range counts: a corrupt length prefix must read as
// truncation, not an allocation bomb (same stance as the entry-count cap
// in the peer codec).
const MAX_MAP_RANGES: u64 = 1 << 20;

impl Encode for WireShardMap {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.version);
        put_uvarint(buf, self.ranges.len() as u64);
        for (start, group) in &self.ranges {
            put_uvarint(buf, *start);
            group.encode(buf);
        }
    }
}

impl Decode for WireShardMap {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let version = get_uvarint(buf)?;
        let count = get_uvarint(buf)?;
        if count > MAX_MAP_RANGES {
            return Err(WireError::Truncated);
        }
        let mut ranges = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let start = get_uvarint(buf)?;
            let group = GroupId::decode(buf)?;
            ranges.push((start, group));
        }
        Ok(WireShardMap { version, ranges })
    }
}

fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    put_uvarint(buf, bytes.len() as u64);
    buf.put_slice(bytes);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_uvarint(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    Ok(buf.split_to(len))
}

const REQ_WRITE: u8 = 1;
const REQ_READ: u8 = 2;
const REQ_FETCH_MAP: u8 = 3;

impl Encode for ClientRequest {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.id);
        match &self.body {
            RequestBody::Write {
                group,
                key,
                command,
            } => {
                buf.put_u8(REQ_WRITE);
                group.encode(buf);
                put_bytes(buf, key);
                put_bytes(buf, command);
            }
            RequestBody::Read { group, key, query } => {
                buf.put_u8(REQ_READ);
                group.encode(buf);
                put_bytes(buf, key);
                put_bytes(buf, query);
            }
            RequestBody::FetchMap => buf.put_u8(REQ_FETCH_MAP),
        }
    }
}

impl Decode for ClientRequest {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let id = get_uvarint(buf)?;
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let body = match buf.get_u8() {
            REQ_WRITE => RequestBody::Write {
                group: GroupId::decode(buf)?,
                key: get_bytes(buf)?,
                command: get_bytes(buf)?,
            },
            REQ_READ => RequestBody::Read {
                group: GroupId::decode(buf)?,
                key: get_bytes(buf)?,
                query: get_bytes(buf)?,
            },
            REQ_FETCH_MAP => RequestBody::FetchMap,
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(ClientRequest { id, body })
    }
}

const RESP_WRITTEN: u8 = 1;
const RESP_VALUE: u8 = 2;
const RESP_MAP: u8 = 3;
const RESP_REDIRECT: u8 = 4;
const RESP_NOT_LEADER: u8 = 5;
const RESP_UNAVAILABLE: u8 = 6;

impl Encode for ClientResponse {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.id);
        match &self.body {
            ResponseBody::Written { index, result } => {
                buf.put_u8(RESP_WRITTEN);
                index.encode(buf);
                put_bytes(buf, result);
            }
            ResponseBody::Value(value) => {
                buf.put_u8(RESP_VALUE);
                put_bytes(buf, value);
            }
            ResponseBody::Map(map) => {
                buf.put_u8(RESP_MAP);
                map.encode(buf);
            }
            ResponseBody::Redirect {
                asked,
                owner,
                map_version,
            } => {
                buf.put_u8(RESP_REDIRECT);
                asked.encode(buf);
                owner.encode(buf);
                put_uvarint(buf, *map_version);
            }
            ResponseBody::NotLeader { hint } => {
                buf.put_u8(RESP_NOT_LEADER);
                match hint {
                    None => buf.put_u8(0),
                    Some(id) => {
                        buf.put_u8(1);
                        id.encode(buf);
                    }
                }
            }
            ResponseBody::Unavailable => buf.put_u8(RESP_UNAVAILABLE),
        }
    }
}

impl Decode for ClientResponse {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let id = get_uvarint(buf)?;
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let body = match buf.get_u8() {
            RESP_WRITTEN => ResponseBody::Written {
                index: LogIndex::decode(buf)?,
                result: get_bytes(buf)?,
            },
            RESP_VALUE => ResponseBody::Value(get_bytes(buf)?),
            RESP_MAP => ResponseBody::Map(WireShardMap::decode(buf)?),
            RESP_REDIRECT => ResponseBody::Redirect {
                asked: GroupId::decode(buf)?,
                owner: GroupId::decode(buf)?,
                map_version: get_uvarint(buf)?,
            },
            RESP_NOT_LEADER => {
                if !buf.has_remaining() {
                    return Err(WireError::Truncated);
                }
                let hint = match buf.get_u8() {
                    0 => None,
                    1 => Some(ServerId::decode(buf)?),
                    t => return Err(WireError::UnknownTag(t)),
                };
                ResponseBody::NotLeader { hint }
            }
            RESP_UNAVAILABLE => ResponseBody::Unavailable,
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(ClientResponse { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        let mut buf = bytes.clone();
        let decoded = T::decode(&mut buf).expect("decode");
        assert_eq!(decoded, value);
        assert!(!buf.has_remaining(), "decoder must consume everything");
    }

    fn sample_map() -> WireShardMap {
        WireShardMap {
            version: 3,
            ranges: vec![
                (0, GroupId::new(0)),
                (1 << 62, GroupId::new(2)),
                (1 << 63, GroupId::new(1)),
            ],
        }
    }

    #[test]
    fn requests_round_trip_every_variant() {
        round_trip(ClientRequest {
            id: 0,
            body: RequestBody::Write {
                group: GroupId::new(7),
                key: Bytes::from_static(b"user-17"),
                command: Bytes::from(vec![9u8; 300]),
            },
        });
        round_trip(ClientRequest {
            id: u64::MAX,
            body: RequestBody::Read {
                group: GroupId::ZERO,
                key: Bytes::new(),
                query: Bytes::from_static(b"q"),
            },
        });
        round_trip(ClientRequest {
            id: 42,
            body: RequestBody::FetchMap,
        });
    }

    #[test]
    fn responses_round_trip_every_variant() {
        round_trip(ClientResponse {
            id: 1,
            body: ResponseBody::Written {
                index: LogIndex::new(99),
                result: Bytes::from_static(b"ok"),
            },
        });
        round_trip(ClientResponse {
            id: 2,
            body: ResponseBody::Value(Bytes::from_static(b"value")),
        });
        round_trip(ClientResponse {
            id: 3,
            body: ResponseBody::Map(sample_map()),
        });
        round_trip(ClientResponse {
            id: 4,
            body: ResponseBody::Redirect {
                asked: GroupId::new(1),
                owner: GroupId::new(4),
                map_version: 2,
            },
        });
        round_trip(ClientResponse {
            id: 5,
            body: ResponseBody::NotLeader {
                hint: Some(ServerId::new(3)),
            },
        });
        round_trip(ClientResponse {
            id: 6,
            body: ResponseBody::NotLeader { hint: None },
        });
        round_trip(ClientResponse {
            id: 7,
            body: ResponseBody::Unavailable,
        });
    }

    #[test]
    fn wire_map_round_trips() {
        round_trip(sample_map());
        round_trip(WireShardMap {
            version: 1,
            ranges: vec![(0, GroupId::ZERO)],
        });
    }

    #[test]
    fn hello_cannot_be_a_peer_envelope() {
        // The hello frame's first byte is 0x00, which `ServerId::decode`
        // (the first field of a peer `Envelope`) rejects.
        let mut buf = Bytes::from_static(CLIENT_HELLO);
        assert!(crate::Envelope::decode(&mut buf).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected_not_panicked() {
        let mut req = BytesMut::new();
        put_uvarint(&mut req, 9);
        req.put_u8(0x7E);
        let mut bytes = req.freeze();
        assert_eq!(
            ClientRequest::decode(&mut bytes),
            Err(WireError::UnknownTag(0x7E))
        );

        let mut resp = BytesMut::new();
        put_uvarint(&mut resp, 9);
        resp.put_u8(0x7F);
        let mut bytes = resp.freeze();
        assert_eq!(
            ClientResponse::decode(&mut bytes),
            Err(WireError::UnknownTag(0x7F))
        );
    }

    #[test]
    fn corrupt_range_count_is_truncation_not_oom() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 5); // version
        put_uvarint(&mut buf, u64::MAX); // absurd range count
        let mut bytes = buf.freeze();
        assert_eq!(WireShardMap::decode(&mut bytes), Err(WireError::Truncated));
    }
}
