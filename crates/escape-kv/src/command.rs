//! KV commands and responses with their binary encoding.
//!
//! Mutations are what clients propose into the replicated log; responses
//! are what the state machine returns from `apply`. Reads (`Get`) do
//! **not** go through the log: they ride the engine's linearizable read
//! path (`read_batch` — ReadIndex confirmation or a held leader lease)
//! and are answered by `KvStateMachine::query` against applied state.
//! `Get` keeps its log encoding only so replicas can still replay
//! read-through-consensus entries written by older versions.

use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use escape_wire::varint::{get_uvarint, put_uvarint};
use escape_wire::WireError;

/// A client command against the replicated map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvCommand {
    /// Bind `key` to `value`.
    Put {
        /// UTF-8 key.
        key: String,
        /// Opaque value.
        value: Bytes,
    },
    /// Remove `key`.
    Delete {
        /// UTF-8 key.
        key: String,
    },
    /// Read `key` (linearizable: served off the log via the engine's
    /// ReadIndex/lease path, see `KvStateMachine::query`).
    Get {
        /// UTF-8 key.
        key: String,
    },
    /// Atomically set `key` only if it currently equals `expect`.
    CompareAndSwap {
        /// UTF-8 key.
        key: String,
        /// Required current value (`None` = key must be absent).
        expect: Option<Bytes>,
        /// New value on success.
        value: Bytes,
    },
}

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_GET: u8 = 3;
const TAG_CAS: u8 = 4;

fn put_str(buf: &mut BytesMut, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    let len = get_uvarint(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidValue("utf-8 key"))
}

fn put_blob(buf: &mut BytesMut, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.put_slice(b);
}

fn get_blob(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_uvarint(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    Ok(buf.split_to(len))
}

fn put_opt_blob(buf: &mut BytesMut, b: &Option<Bytes>) {
    match b {
        None => buf.put_u8(0),
        Some(inner) => {
            buf.put_u8(1);
            put_blob(buf, inner);
        }
    }
}

fn get_opt_blob(buf: &mut Bytes) -> Result<Option<Bytes>, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_blob(buf)?)),
        t => Err(WireError::UnknownTag(t)),
    }
}

impl KvCommand {
    /// The key this command addresses — the routing key the shard layer
    /// hashes to pick the owning consensus group.
    pub fn key(&self) -> &str {
        match self {
            KvCommand::Put { key, .. }
            | KvCommand::Delete { key }
            | KvCommand::Get { key }
            | KvCommand::CompareAndSwap { key, .. } => key,
        }
    }

    /// Serializes the command for proposing into the log.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            KvCommand::Put { key, value } => {
                buf.put_u8(TAG_PUT);
                put_str(&mut buf, key);
                put_blob(&mut buf, value);
            }
            KvCommand::Delete { key } => {
                buf.put_u8(TAG_DELETE);
                put_str(&mut buf, key);
            }
            KvCommand::Get { key } => {
                buf.put_u8(TAG_GET);
                put_str(&mut buf, key);
            }
            KvCommand::CompareAndSwap { key, expect, value } => {
                buf.put_u8(TAG_CAS);
                put_str(&mut buf, key);
                put_opt_blob(&mut buf, expect);
                put_blob(&mut buf, value);
            }
        }
        buf.freeze()
    }

    /// Deserializes a command from log bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<Self, WireError> {
        let mut buf = raw.clone();
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let cmd = match buf.get_u8() {
            TAG_PUT => KvCommand::Put {
                key: get_str(&mut buf)?,
                value: get_blob(&mut buf)?,
            },
            TAG_DELETE => KvCommand::Delete {
                key: get_str(&mut buf)?,
            },
            TAG_GET => KvCommand::Get {
                key: get_str(&mut buf)?,
            },
            TAG_CAS => KvCommand::CompareAndSwap {
                key: get_str(&mut buf)?,
                expect: get_opt_blob(&mut buf)?,
                value: get_blob(&mut buf)?,
            },
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(cmd)
    }
}

/// The state machine's reply to an applied command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvResponse {
    /// Mutation applied.
    Ok,
    /// Read result (`None` = key absent).
    Value(Option<Bytes>),
    /// Compare-and-swap failed; carries the actual current value.
    CasFailed(Option<Bytes>),
    /// The command bytes were malformed (a client bug, surfaced
    /// deterministically on every replica).
    Malformed,
}

const RTAG_OK: u8 = 1;
const RTAG_VALUE: u8 = 2;
const RTAG_CAS_FAILED: u8 = 3;
const RTAG_MALFORMED: u8 = 4;

impl KvResponse {
    /// Serializes the response (the `apply` return payload). Every put
    /// answers [`KvResponse::Ok`], so its one byte is allocated once and
    /// shared.
    pub fn encode(&self) -> Bytes {
        static OK: OnceLock<Bytes> = OnceLock::new();
        let mut buf = BytesMut::new();
        match self {
            KvResponse::Ok => return OK.get_or_init(|| Bytes::from_static(&[RTAG_OK])).clone(),
            KvResponse::Value(v) => {
                buf.put_u8(RTAG_VALUE);
                put_opt_blob(&mut buf, v);
            }
            KvResponse::CasFailed(v) => {
                buf.put_u8(RTAG_CAS_FAILED);
                put_opt_blob(&mut buf, v);
            }
            KvResponse::Malformed => buf.put_u8(RTAG_MALFORMED),
        }
        buf.freeze()
    }

    /// Deserializes a response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<Self, WireError> {
        let mut buf = raw.clone();
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let resp = match buf.get_u8() {
            RTAG_OK => KvResponse::Ok,
            RTAG_VALUE => KvResponse::Value(get_opt_blob(&mut buf)?),
            RTAG_CAS_FAILED => KvResponse::CasFailed(get_opt_blob(&mut buf)?),
            RTAG_MALFORMED => KvResponse::Malformed,
            t => return Err(WireError::UnknownTag(t)),
        };
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cmd: KvCommand) {
        let decoded = KvCommand::decode(&cmd.encode()).unwrap();
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn commands_round_trip() {
        round_trip(KvCommand::Put {
            key: "k".into(),
            value: Bytes::from_static(b"v"),
        });
        round_trip(KvCommand::Delete { key: "gone".into() });
        round_trip(KvCommand::Get { key: String::new() });
        round_trip(KvCommand::CompareAndSwap {
            key: "cas".into(),
            expect: None,
            value: Bytes::from_static(b"new"),
        });
        round_trip(KvCommand::CompareAndSwap {
            key: "cas".into(),
            expect: Some(Bytes::from_static(b"old")),
            value: Bytes::from_static(b"new"),
        });
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            KvResponse::Ok,
            KvResponse::Value(None),
            KvResponse::Value(Some(Bytes::from_static(b"x"))),
            KvResponse::CasFailed(Some(Bytes::from_static(b"actual"))),
            KvResponse::CasFailed(None),
            KvResponse::Malformed,
        ] {
            assert_eq!(KvResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn every_command_exposes_its_routing_key() {
        let value = Bytes::from_static(b"v");
        assert_eq!(
            KvCommand::Put { key: "p".into(), value: value.clone() }.key(),
            "p"
        );
        assert_eq!(KvCommand::Delete { key: "d".into() }.key(), "d");
        assert_eq!(KvCommand::Get { key: "g".into() }.key(), "g");
        assert_eq!(
            KvCommand::CompareAndSwap { key: "c".into(), expect: None, value }.key(),
            "c"
        );
    }

    #[test]
    fn unicode_keys_survive() {
        round_trip(KvCommand::Put {
            key: "ключ-🔑".into(),
            value: Bytes::from_static("значение".as_bytes()),
        });
    }

    #[test]
    fn invalid_utf8_key_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_GET);
        put_uvarint(&mut buf, 2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(
            KvCommand::decode(&buf.freeze()),
            Err(WireError::InvalidValue("utf-8 key"))
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(
            KvCommand::decode(&Bytes::from_static(&[0x63])),
            Err(WireError::UnknownTag(0x63))
        );
        assert_eq!(
            KvResponse::decode(&Bytes::from_static(&[0x63])),
            Err(WireError::UnknownTag(0x63))
        );
    }

    #[test]
    fn empty_input_is_truncated() {
        assert_eq!(
            KvCommand::decode(&Bytes::new()),
            Err(WireError::Truncated)
        );
        assert_eq!(
            KvResponse::decode(&Bytes::new()),
            Err(WireError::Truncated)
        );
    }
}
