//! The WAL record vocabulary and its binary encoding.
//!
//! One record per persistent-state mutation, in the order the engine made
//! them. Replaying the sequence through the same `escape-core` log code
//! that produced it reproduces the pre-crash state bit-for-bit — the WAL
//! stores *operations*, not state, so follower-side conflict truncation
//! replays through [`Log::try_append`](escape_core::log::Log::try_append)
//! instead of being re-derived.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::types::{LogIndex, ServerId, Term};
use escape_wire::varint::{get_uvarint, put_uvarint};
use escape_wire::{Decode, Encode, WireError};

const TAG_HARD_STATE: u8 = 1;
const TAG_APPEND_ENTRY: u8 = 2;
const TAG_APPEND_SLICE: u8 = 3;
const TAG_CONFIG: u8 = 4;
const TAG_SNAPSHOT_MARKER: u8 = 5;

/// One durable mutation of a node's persistent state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// `current_term` / `voted_for` changed (campaign start, vote grant,
    /// higher-term observation).
    HardState {
        /// The term at the time of the mutation.
        term: Term,
        /// The vote within that term, if cast.
        voted_for: Option<ServerId>,
    },
    /// The leader appended one new entry at its log tail.
    AppendEntry {
        /// The appended entry (index included, so replay can detect
        /// records already covered by a snapshot).
        entry: Entry,
    },
    /// A follower accepted an `AppendEntries` batch; replay through
    /// `Log::try_append` reproduces any conflict truncation exactly.
    AppendSlice {
        /// Consistency-check anchor index.
        prev_index: LogIndex,
        /// Consistency-check anchor term.
        prev_term: Term,
        /// The entries the leader shipped.
        entries: Vec<Entry>,
    },
    /// The node adopted a prioritized configuration (PPF assignment or
    /// the leader's own retirement) — ESCAPE's durable `confClock`.
    Config {
        /// The adopted configuration.
        config: Configuration,
    },
    /// A snapshot at `(index, term)` became durable; the log below is
    /// compacted. Written as the first record of a post-snapshot segment.
    SnapshotMarker {
        /// Last index covered by the snapshot.
        index: LogIndex,
        /// Term of the entry at `index`.
        term: Term,
    },
}

impl WalRecord {
    /// Encodes the record into a standalone payload (framed and
    /// checksummed by the segment writer, not here).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the record's payload encoding to `buf` — what
    /// [`Wal::append`](crate::wal::Wal::append) writes straight into its
    /// group-commit buffer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::HardState { term, voted_for } => {
                buf.put_u8(TAG_HARD_STATE);
                term.encode(buf);
                match voted_for {
                    None => buf.put_u8(0),
                    Some(id) => {
                        buf.put_u8(1);
                        id.encode(buf);
                    }
                }
            }
            WalRecord::AppendEntry { entry } => Self::encode_append_entry(entry, buf),
            WalRecord::AppendSlice {
                prev_index,
                prev_term,
                entries,
            } => Self::encode_append_slice(*prev_index, *prev_term, entries, buf),
            WalRecord::Config { config } => {
                buf.put_u8(TAG_CONFIG);
                config.encode(buf);
            }
            WalRecord::SnapshotMarker { index, term } => {
                buf.put_u8(TAG_SNAPSHOT_MARKER);
                index.encode(buf);
                term.encode(buf);
            }
        }
    }

    /// The [`WalRecord::AppendEntry`] encoding of a borrowed entry, so
    /// the storage writes it without cloning the entry into a record.
    pub(crate) fn encode_append_entry(entry: &Entry, buf: &mut BytesMut) {
        buf.put_u8(TAG_APPEND_ENTRY);
        entry.encode(buf);
    }

    /// The [`WalRecord::AppendSlice`] encoding of a borrowed slice.
    pub(crate) fn encode_append_slice(
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
        buf: &mut BytesMut,
    ) {
        buf.put_u8(TAG_APPEND_SLICE);
        prev_index.encode(buf);
        prev_term.encode(buf);
        put_uvarint(buf, entries.len() as u64);
        for entry in entries {
            entry.encode(buf);
        }
    }

    /// Decodes one record from a payload produced by
    /// [`WalRecord::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            TAG_HARD_STATE => {
                let term = Term::decode(buf)?;
                let voted_for = match buf.has_remaining().then(|| buf.get_u8()) {
                    Some(0) => None,
                    Some(1) => Some(ServerId::decode(buf)?),
                    Some(t) => return Err(WireError::UnknownTag(t)),
                    None => return Err(WireError::Truncated),
                };
                Ok(WalRecord::HardState { term, voted_for })
            }
            TAG_APPEND_ENTRY => Ok(WalRecord::AppendEntry {
                entry: Entry::decode(buf)?,
            }),
            TAG_APPEND_SLICE => {
                let prev_index = LogIndex::decode(buf)?;
                let prev_term = Term::decode(buf)?;
                let count = get_uvarint(buf)? as usize;
                if count > buf.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(Entry::decode(buf)?);
                }
                Ok(WalRecord::AppendSlice {
                    prev_index,
                    prev_term,
                    entries,
                })
            }
            TAG_CONFIG => Ok(WalRecord::Config {
                config: Configuration::decode(buf)?,
            }),
            TAG_SNAPSHOT_MARKER => Ok(WalRecord::SnapshotMarker {
                index: LogIndex::decode(buf)?,
                term: Term::decode(buf)?,
            }),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_core::log::Payload;
    use escape_core::time::Duration;
    use escape_core::types::{ConfClock, Priority};

    fn round_trip(record: WalRecord) {
        let mut bytes = record.to_bytes();
        let decoded = WalRecord::decode(&mut bytes).expect("decode");
        assert_eq!(decoded, record);
        assert!(!bytes.has_remaining(), "decoder must consume everything");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(WalRecord::HardState {
            term: Term::new(7),
            voted_for: Some(ServerId::new(3)),
        });
        round_trip(WalRecord::HardState {
            term: Term::new(9),
            voted_for: None,
        });
        round_trip(WalRecord::AppendEntry {
            entry: Entry {
                term: Term::new(2),
                index: LogIndex::new(14),
                payload: Payload::Command(Bytes::from_static(b"x=1")),
            },
        });
        round_trip(WalRecord::AppendSlice {
            prev_index: LogIndex::new(4),
            prev_term: Term::new(2),
            entries: vec![
                Entry {
                    term: Term::new(3),
                    index: LogIndex::new(5),
                    payload: Payload::Noop,
                },
                Entry {
                    term: Term::new(3),
                    index: LogIndex::new(6),
                    payload: Payload::Command(Bytes::from_static(b"y=2")),
                },
            ],
        });
        round_trip(WalRecord::Config {
            config: Configuration::new(
                Duration::from_millis(1500),
                Priority::new(5),
                ConfClock::new(12),
            ),
        });
        round_trip(WalRecord::SnapshotMarker {
            index: LogIndex::new(100),
            term: Term::new(8),
        });
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = Bytes::from_static(&[0x66]);
        assert_eq!(WalRecord::decode(&mut bytes), Err(WireError::UnknownTag(0x66)));
    }

    #[test]
    fn truncated_record_is_rejected() {
        let full = WalRecord::AppendEntry {
            entry: Entry {
                term: Term::new(2),
                index: LogIndex::new(3),
                payload: Payload::Command(Bytes::from_static(b"abcdef")),
            },
        }
        .to_bytes();
        let mut cut = full.slice(..full.len() - 3);
        assert!(WalRecord::decode(&mut cut).is_err());
    }
}
