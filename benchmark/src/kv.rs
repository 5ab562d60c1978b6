//! Keys, values and commands the workloads send, and the decoding the
//! output checks use. A value names its key and the operation that wrote
//! it, so a read-back can tell *which* write it is seeing.

use bytes::Bytes;

use escape_kv::{KvCommand, KvResponse};

/// Value size in bytes.
pub const VALUE_LEN: usize = 64;
/// The writer tag of preloaded values (no operation has this index).
pub const PRELOAD: u64 = u64::MAX;

pub fn key(rank: u32) -> String {
    format!("key-{rank:05}")
}

/// 64 bytes: key rank, the index of the operation writing it, filler.
pub fn value(rank: u32, writer: u64) -> Bytes {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&rank.to_le_bytes());
    v.extend_from_slice(&writer.to_le_bytes());
    v.resize(VALUE_LEN, 0x5A);
    Bytes::from(v)
}

/// The `(rank, writer)` a value carries, if it is one of ours.
pub fn decode_value(v: &[u8]) -> Option<(u32, u64)> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let rank = u32::from_le_bytes(v[0..4].try_into().ok()?);
    let writer = u64::from_le_bytes(v[4..12].try_into().ok()?);
    Some((rank, writer))
}

pub fn put(key: &str, value: &Bytes) -> Bytes {
    KvCommand::Put {
        key: key.to_string(),
        value: value.clone(),
    }
    .encode()
}

pub fn get(key: &str) -> Bytes {
    KvCommand::Get {
        key: key.to_string(),
    }
    .encode()
}

/// A put's apply result must decode to `KvResponse::Ok`.
pub fn put_ok(result: &Bytes) -> bool {
    KvResponse::decode(result) == Ok(KvResponse::Ok)
}

/// The writer index of the value a get returned, provided the response
/// decodes to a present value that was written for `rank`.
pub fn get_writer(response: &Bytes, rank: u32) -> Option<u64> {
    match KvResponse::decode(response) {
        Ok(KvResponse::Value(Some(v))) => match decode_value(&v) {
            Some((r, writer)) if r == rank => Some(writer),
            _ => None,
        },
        _ => None,
    }
}
