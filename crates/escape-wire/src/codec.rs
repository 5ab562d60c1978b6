//! Encode/decode for every protocol type.
//!
//! Layout conventions: all integers are LEB128 varints; optional fields are
//! a presence byte followed by the value; byte strings are
//! length-prefixed; enums are a single tag byte. Numeric newtypes encode as
//! their raw value.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use escape_core::config::Configuration;
use escape_core::log::{Entry, Payload};
use escape_core::message::{
    AppendEntriesArgs, AppendEntriesReply, ConfigStatus, InstallSnapshotArgs,
    InstallSnapshotReply, Message, RequestVoteArgs, RequestVoteReply,
};
use escape_core::time::Duration;
use escape_core::types::{ConfClock, GroupId, LogIndex, Priority, ServerId, Term};

use crate::error::WireError;
use crate::varint::{get_uvarint, put_uvarint};

/// A type with a canonical binary form.
pub trait Encode {
    /// Appends the binary form to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// A type reconstructible from its canonical binary form.
pub trait Decode: Sized {
    /// Consumes the binary form from `buf`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input; the buffer position is
    /// unspecified after an error.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

// ---- primitives ----

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

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(u8::from(v));
}

fn get_bool(buf: &mut Bytes) -> Result<bool, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::UnknownTag(t)),
    }
}

fn put_option<T: Encode>(buf: &mut BytesMut, v: &Option<T>) {
    match v {
        None => buf.put_u8(0),
        Some(inner) => {
            buf.put_u8(1);
            inner.encode(buf);
        }
    }
}

fn get_option<T: Decode>(buf: &mut Bytes) -> Result<Option<T>, WireError> {
    match get_bool(buf)? {
        false => Ok(None),
        true => Ok(Some(T::decode(buf)?)),
    }
}

// ---- newtypes ----

impl Encode for ServerId {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get() as u64);
    }
}

impl Decode for ServerId {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_uvarint(buf)?;
        if raw == 0 || raw > u32::MAX as u64 {
            return Err(WireError::InvalidValue("server id"));
        }
        Ok(ServerId::new(raw as u32))
    }
}

impl Encode for GroupId {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get() as u64);
    }
}

impl Decode for GroupId {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_uvarint(buf)?;
        if raw > u32::MAX as u64 {
            return Err(WireError::InvalidValue("group id"));
        }
        Ok(GroupId::new(raw as u32))
    }
}

impl Encode for Term {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get());
    }
}

impl Decode for Term {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Term::new(get_uvarint(buf)?))
    }
}

impl Encode for LogIndex {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get());
    }
}

impl Decode for LogIndex {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(LogIndex::new(get_uvarint(buf)?))
    }
}

impl Encode for ConfClock {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get());
    }
}

impl Decode for ConfClock {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ConfClock::new(get_uvarint(buf)?))
    }
}

impl Encode for Priority {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.get());
    }
}

impl Decode for Priority {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_uvarint(buf)?;
        if raw == 0 {
            return Err(WireError::InvalidValue("priority"));
        }
        Ok(Priority::new(raw))
    }
}

impl Encode for Duration {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.as_micros());
    }
}

impl Decode for Duration {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Duration::from_micros(get_uvarint(buf)?))
    }
}

// ---- protocol structures ----

impl Encode for Configuration {
    fn encode(&self, buf: &mut BytesMut) {
        self.timer_period.encode(buf);
        self.priority.encode(buf);
        self.conf_clock.encode(buf);
    }
}

impl Decode for Configuration {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Configuration::new(
            Duration::decode(buf)?,
            Priority::decode(buf)?,
            ConfClock::decode(buf)?,
        ))
    }
}

impl Encode for Payload {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Payload::Noop => buf.put_u8(0),
            Payload::Command(bytes) => {
                buf.put_u8(1);
                put_bytes(buf, bytes);
            }
        }
    }
}

impl Decode for Payload {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(Payload::Noop),
            1 => Ok(Payload::Command(get_bytes(buf)?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl Encode for Entry {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.index.encode(buf);
        self.payload.encode(buf);
    }
}

impl Decode for Entry {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Entry {
            term: Term::decode(buf)?,
            index: LogIndex::decode(buf)?,
            payload: Payload::decode(buf)?,
        })
    }
}

impl Encode for ConfigStatus {
    fn encode(&self, buf: &mut BytesMut) {
        self.log_index.encode(buf);
        self.timer_period.encode(buf);
        self.conf_clock.encode(buf);
    }
}

impl Decode for ConfigStatus {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ConfigStatus {
            log_index: LogIndex::decode(buf)?,
            timer_period: Duration::decode(buf)?,
            conf_clock: ConfClock::decode(buf)?,
        })
    }
}

impl Encode for AppendEntriesArgs {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.leader_id.encode(buf);
        self.prev_log_index.encode(buf);
        self.prev_log_term.encode(buf);
        put_uvarint(buf, self.entries.len() as u64);
        for entry in &self.entries {
            entry.encode(buf);
        }
        self.leader_commit.encode(buf);
        put_option(buf, &self.new_config);
        // The round stamp: the round number above the lease flag.
        put_uvarint(buf, self.seq);
    }
}

impl Decode for AppendEntriesArgs {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let term = Term::decode(buf)?;
        let leader_id = ServerId::decode(buf)?;
        let prev_log_index = LogIndex::decode(buf)?;
        let prev_log_term = Term::decode(buf)?;
        let count = get_uvarint(buf)? as usize;
        // Sanity cap: a count bigger than the remaining bytes is corrupt.
        if count > buf.remaining() {
            return Err(WireError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(Entry::decode(buf)?);
        }
        Ok(AppendEntriesArgs {
            term,
            leader_id,
            prev_log_index,
            prev_log_term,
            entries,
            leader_commit: LogIndex::decode(buf)?,
            new_config: get_option(buf)?,
            seq: get_uvarint(buf)?,
        })
    }
}

impl Encode for AppendEntriesReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        put_bool(buf, self.success);
        self.match_hint.encode(buf);
        put_option(buf, &self.status);
        put_uvarint(buf, self.seq);
    }
}

impl Decode for AppendEntriesReply {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(AppendEntriesReply {
            term: Term::decode(buf)?,
            success: get_bool(buf)?,
            match_hint: LogIndex::decode(buf)?,
            status: get_option(buf)?,
            seq: get_uvarint(buf)?,
        })
    }
}

impl Encode for RequestVoteArgs {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.candidate_id.encode(buf);
        self.last_log_index.encode(buf);
        self.last_log_term.encode(buf);
        put_option(buf, &self.conf_clock);
    }
}

impl Decode for RequestVoteArgs {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RequestVoteArgs {
            term: Term::decode(buf)?,
            candidate_id: ServerId::decode(buf)?,
            last_log_index: LogIndex::decode(buf)?,
            last_log_term: Term::decode(buf)?,
            conf_clock: get_option(buf)?,
        })
    }
}

impl Encode for RequestVoteReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        put_bool(buf, self.vote_granted);
    }
}

impl Decode for RequestVoteReply {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(RequestVoteReply {
            term: Term::decode(buf)?,
            vote_granted: get_bool(buf)?,
        })
    }
}

const TAG_APPEND_ENTRIES: u8 = 1;
const TAG_APPEND_ENTRIES_REPLY: u8 = 2;
const TAG_REQUEST_VOTE: u8 = 3;
const TAG_REQUEST_VOTE_REPLY: u8 = 4;
const TAG_INSTALL_SNAPSHOT: u8 = 5;
const TAG_INSTALL_SNAPSHOT_REPLY: u8 = 6;

impl Encode for InstallSnapshotArgs {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.leader_id.encode(buf);
        self.last_included_index.encode(buf);
        self.last_included_term.encode(buf);
        put_bytes(buf, &self.data);
    }
}

impl Decode for InstallSnapshotArgs {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(InstallSnapshotArgs {
            term: Term::decode(buf)?,
            leader_id: ServerId::decode(buf)?,
            last_included_index: LogIndex::decode(buf)?,
            last_included_term: Term::decode(buf)?,
            data: get_bytes(buf)?,
        })
    }
}

impl Encode for InstallSnapshotReply {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.match_hint.encode(buf);
    }
}

impl Decode for InstallSnapshotReply {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(InstallSnapshotReply {
            term: Term::decode(buf)?,
            match_hint: LogIndex::decode(buf)?,
        })
    }
}

impl Encode for Message {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Message::AppendEntries(m) => {
                buf.put_u8(TAG_APPEND_ENTRIES);
                m.encode(buf);
            }
            Message::AppendEntriesReply(m) => {
                buf.put_u8(TAG_APPEND_ENTRIES_REPLY);
                m.encode(buf);
            }
            Message::RequestVote(m) => {
                buf.put_u8(TAG_REQUEST_VOTE);
                m.encode(buf);
            }
            Message::RequestVoteReply(m) => {
                buf.put_u8(TAG_REQUEST_VOTE_REPLY);
                m.encode(buf);
            }
            Message::InstallSnapshot(m) => {
                buf.put_u8(TAG_INSTALL_SNAPSHOT);
                m.encode(buf);
            }
            Message::InstallSnapshotReply(m) => {
                buf.put_u8(TAG_INSTALL_SNAPSHOT_REPLY);
                m.encode(buf);
            }
        }
    }
}

impl Decode for Message {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            TAG_APPEND_ENTRIES => Ok(Message::AppendEntries(AppendEntriesArgs::decode(buf)?)),
            TAG_APPEND_ENTRIES_REPLY => Ok(Message::AppendEntriesReply(
                AppendEntriesReply::decode(buf)?,
            )),
            TAG_REQUEST_VOTE => Ok(Message::RequestVote(RequestVoteArgs::decode(buf)?)),
            TAG_REQUEST_VOTE_REPLY => {
                Ok(Message::RequestVoteReply(RequestVoteReply::decode(buf)?))
            }
            TAG_INSTALL_SNAPSHOT => Ok(Message::InstallSnapshot(InstallSnapshotArgs::decode(buf)?)),
            TAG_INSTALL_SNAPSHOT_REPLY => Ok(Message::InstallSnapshotReply(
                InstallSnapshotReply::decode(buf)?,
            )),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// A routed message: who sent it, which consensus group it belongs to,
/// plus the payload. What actually crosses a transport connection — the
/// group id is how one TCP mesh multiplexes every shard's traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The sending server.
    pub from: ServerId,
    /// The consensus group (shard) this message belongs to.
    pub group: GroupId,
    /// The protocol message.
    pub message: Message,
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut BytesMut) {
        self.from.encode(buf);
        self.group.encode(buf);
        self.message.encode(buf);
    }
}

impl Decode for Envelope {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Envelope {
            from: ServerId::decode(buf)?,
            group: GroupId::decode(buf)?,
            message: Message::decode(buf)?,
        })
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

    fn sample_entry(i: u64) -> Entry {
        Entry {
            term: Term::new(i),
            index: LogIndex::new(i * 3),
            payload: if i.is_multiple_of(2) {
                Payload::Noop
            } else {
                Payload::Command(Bytes::from(vec![i as u8; i as usize % 32]))
            },
        }
    }

    #[test]
    fn newtypes_round_trip() {
        round_trip(ServerId::new(128));
        round_trip(GroupId::ZERO);
        round_trip(GroupId::new(u32::MAX));
        round_trip(Term::new(u64::MAX));
        round_trip(LogIndex::ZERO);
        round_trip(ConfClock::new(77));
        round_trip(Priority::new(1));
        round_trip(Duration::from_millis(1500));
    }

    #[test]
    fn configuration_round_trips() {
        round_trip(Configuration::new(
            Duration::from_millis(2000),
            Priority::new(9),
            ConfClock::new(41),
        ));
    }

    #[test]
    fn append_entries_round_trips_full() {
        round_trip(AppendEntriesArgs {
            term: Term::new(7),
            leader_id: ServerId::new(3),
            prev_log_index: LogIndex::new(99),
            prev_log_term: Term::new(6),
            entries: (1..=5).map(sample_entry).collect(),
            leader_commit: LogIndex::new(98),
            new_config: Some(Configuration::new(
                Duration::from_millis(1500),
                Priority::new(8),
                ConfClock::new(12),
            )),
            seq: 41,
        });
    }

    #[test]
    fn append_entries_round_trips_heartbeat() {
        round_trip(AppendEntriesArgs {
            term: Term::new(1),
            leader_id: ServerId::new(1),
            prev_log_index: LogIndex::ZERO,
            prev_log_term: Term::ZERO,
            entries: Vec::new(),
            leader_commit: LogIndex::ZERO,
            new_config: None,
            seq: 0,
        });
    }

    #[test]
    fn replies_and_votes_round_trip() {
        round_trip(AppendEntriesReply {
            term: Term::new(4),
            success: true,
            match_hint: LogIndex::new(17),
            status: Some(ConfigStatus {
                log_index: LogIndex::new(17),
                timer_period: Duration::from_millis(2500),
                conf_clock: ConfClock::new(3),
            }),
            seq: 7,
        });
        round_trip(RequestVoteArgs {
            term: Term::new(10),
            candidate_id: ServerId::new(2),
            last_log_index: LogIndex::new(5),
            last_log_term: Term::new(9),
            conf_clock: Some(ConfClock::new(6)),
        });
        round_trip(RequestVoteReply {
            term: Term::new(10),
            vote_granted: false,
        });
    }

    #[test]
    fn message_enum_round_trips_every_variant() {
        round_trip(Message::RequestVoteReply(RequestVoteReply {
            term: Term::new(2),
            vote_granted: true,
        }));
        round_trip(Message::RequestVote(RequestVoteArgs {
            term: Term::new(2),
            candidate_id: ServerId::new(5),
            last_log_index: LogIndex::new(1),
            last_log_term: Term::new(1),
            conf_clock: None,
        }));
        round_trip(Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(3),
            leader_id: ServerId::new(1),
            prev_log_index: LogIndex::new(2),
            prev_log_term: Term::new(2),
            entries: vec![sample_entry(1)],
            leader_commit: LogIndex::new(2),
            new_config: None,
            seq: 9,
        }));
        round_trip(Message::AppendEntriesReply(AppendEntriesReply {
            term: Term::new(3),
            success: false,
            match_hint: LogIndex::ZERO,
            status: None,
            seq: 0,
        }));
    }

    #[test]
    fn install_snapshot_round_trips() {
        round_trip(Message::InstallSnapshot(InstallSnapshotArgs {
            term: Term::new(12),
            leader_id: ServerId::new(1),
            last_included_index: LogIndex::new(500),
            last_included_term: Term::new(11),
            data: Bytes::from(vec![7u8; 333]),
        }));
        round_trip(Message::InstallSnapshotReply(InstallSnapshotReply {
            term: Term::new(12),
            match_hint: LogIndex::new(500),
        }));
    }

    #[test]
    fn envelope_round_trips() {
        for group in [GroupId::ZERO, GroupId::new(3), GroupId::new(4096)] {
            round_trip(Envelope {
                from: ServerId::new(9),
                group,
                message: Message::RequestVoteReply(RequestVoteReply {
                    term: Term::new(1),
                    vote_granted: true,
                }),
            });
        }
    }

    #[test]
    fn unknown_message_tag_is_rejected() {
        let mut buf = Bytes::from_static(&[0x77]);
        assert_eq!(Message::decode(&mut buf), Err(WireError::UnknownTag(0x77)));
    }

    #[test]
    fn zero_server_id_is_rejected() {
        let mut buf = Bytes::from_static(&[0x00]);
        assert_eq!(
            ServerId::decode(&mut buf),
            Err(WireError::InvalidValue("server id"))
        );
    }

    #[test]
    fn corrupt_entry_count_is_truncation_not_oom() {
        // term=1, leader=1, prev=0, prevterm=0, then a huge entry count.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 1);
        put_uvarint(&mut buf, 1);
        put_uvarint(&mut buf, 0);
        put_uvarint(&mut buf, 0);
        put_uvarint(&mut buf, u64::from(u32::MAX));
        let mut bytes = buf.freeze();
        assert_eq!(
            AppendEntriesArgs::decode(&mut bytes),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn heartbeat_stays_small_on_the_wire() {
        let hb = Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(3),
            leader_id: ServerId::new(1),
            prev_log_index: LogIndex::new(100),
            prev_log_term: Term::new(3),
            entries: Vec::new(),
            leader_commit: LogIndex::new(100),
            new_config: None,
            seq: 5,
        });
        assert!(hb.to_bytes().len() <= 12, "heartbeats must be compact");
    }
}
