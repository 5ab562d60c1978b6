//! Property tests: every structurally valid message survives an
//! encode→decode round trip, and arbitrary bytes never panic the decoder.

use bytes::Bytes;
use proptest::prelude::*;

use escape_core::config::Configuration;
use escape_core::log::{Entry, Payload};
use escape_core::message::{
    AppendEntriesArgs, AppendEntriesReply, ConfigStatus, InstallSnapshotArgs,
    InstallSnapshotReply, Message, RequestVoteArgs, RequestVoteReply,
};
use escape_core::time::Duration;
use escape_core::types::{ConfClock, GroupId, LogIndex, Priority, ServerId, Term};
use escape_wire::{Decode, Encode, Envelope, FrameReader};

fn arb_server_id() -> impl Strategy<Value = ServerId> {
    (1u32..=4096).prop_map(ServerId::new)
}

fn arb_group_id() -> impl Strategy<Value = GroupId> {
    (0u32..=4096).prop_map(GroupId::new)
}

fn arb_term() -> impl Strategy<Value = Term> {
    any::<u64>().prop_map(Term::new)
}

fn arb_index() -> impl Strategy<Value = LogIndex> {
    any::<u64>().prop_map(LogIndex::new)
}

fn arb_clock() -> impl Strategy<Value = ConfClock> {
    any::<u64>().prop_map(ConfClock::new)
}

fn arb_duration() -> impl Strategy<Value = Duration> {
    (0u64..=10_000_000).prop_map(Duration::from_micros)
}

fn arb_config() -> impl Strategy<Value = Configuration> {
    (arb_duration(), 1u64..=1024, arb_clock())
        .prop_map(|(d, p, k)| Configuration::new(d, Priority::new(p), k))
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Noop),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|v| Payload::Command(Bytes::from(v))),
    ]
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (arb_term(), arb_index(), arb_payload()).prop_map(|(term, index, payload)| Entry {
        term,
        index,
        payload,
    })
}

fn arb_status() -> impl Strategy<Value = ConfigStatus> {
    (arb_index(), arb_duration(), arb_clock()).prop_map(|(log_index, timer_period, conf_clock)| {
        ConfigStatus {
            log_index,
            timer_period,
            conf_clock,
        }
    })
}

prop_compose! {
    fn arb_append_entries()(
        term in arb_term(),
        leader_id in arb_server_id(),
        prev_log_index in arb_index(),
        prev_log_term in arb_term(),
        entries in proptest::collection::vec(arb_entry(), 0..8),
        leader_commit in arb_index(),
        new_config in proptest::option::of(arb_config()),
        seq in (0..u64::MAX >> 1, any::<bool>())
            .prop_map(|(round, lease)| AppendEntriesArgs::stamp(round, lease)),
    ) -> AppendEntriesArgs {
        AppendEntriesArgs {
            term, leader_id, prev_log_index, prev_log_term,
            entries, leader_commit, new_config, seq,
        }
    }
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_append_entries().prop_map(Message::AppendEntries),
        (
            arb_term(),
            any::<bool>(),
            arb_index(),
            proptest::option::of(arb_status()),
            any::<u64>()
        )
            .prop_map(|(term, success, match_hint, status, seq)| {
                Message::AppendEntriesReply(AppendEntriesReply {
                    term,
                    success,
                    match_hint,
                    status,
                    seq,
                })
            }),
        (
            arb_term(),
            arb_server_id(),
            arb_index(),
            arb_term(),
            proptest::option::of(arb_clock())
        )
            .prop_map(|(term, candidate_id, last_log_index, last_log_term, conf_clock)| {
                Message::RequestVote(RequestVoteArgs {
                    term,
                    candidate_id,
                    last_log_index,
                    last_log_term,
                    conf_clock,
                })
            }),
        (arb_term(), any::<bool>()).prop_map(|(term, vote_granted)| {
            Message::RequestVoteReply(RequestVoteReply { term, vote_granted })
        }),
        (
            arb_term(),
            arb_server_id(),
            arb_index(),
            arb_term(),
            proptest::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(term, leader_id, last_included_index, last_included_term, data)| {
                Message::InstallSnapshot(InstallSnapshotArgs {
                    term,
                    leader_id,
                    last_included_index,
                    last_included_term,
                    data: Bytes::from(data),
                })
            }),
        (arb_term(), arb_index()).prop_map(|(term, match_hint)| {
            Message::InstallSnapshotReply(InstallSnapshotReply { term, match_hint })
        }),
    ]
}

proptest! {
    #[test]
    fn message_round_trips(msg in arb_message()) {
        let bytes = msg.to_bytes();
        let mut buf = bytes.clone();
        let decoded = Message::decode(&mut buf).expect("round trip");
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(buf.len(), 0, "decoder must consume every byte");
    }

    #[test]
    fn envelope_round_trips(from in arb_server_id(), group in arb_group_id(), msg in arb_message()) {
        let env = Envelope { from, group, message: msg };
        let mut buf = env.to_bytes();
        prop_assert_eq!(Envelope::decode(&mut buf).expect("round trip"), env);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any result is fine — Ok or Err — as long as it does not panic.
        let mut buf = Bytes::from(bytes);
        let _ = Message::decode(&mut buf);
    }

    #[test]
    fn truncated_encodings_error_cleanly(msg in arb_message(), cut in 0usize..64) {
        let bytes = msg.to_bytes();
        if cut < bytes.len() {
            let mut buf = bytes.slice(0..bytes.len() - cut - 1);
            // Must not panic; usually Truncated, occasionally a different
            // structured error (e.g. a cut presence byte becomes a tag error).
            let _ = Message::decode(&mut buf);
        }
    }

    #[test]
    fn framing_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_message(), 1..5),
        chunk in 1usize..17,
    ) {
        use bytes::BytesMut;
        let mut wire = BytesMut::new();
        for msg in &msgs {
            escape_wire::write_frame(&mut wire, &msg.to_bytes());
        }
        let wire = wire.freeze();
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.extend(piece);
            while let Some(frame) = reader.next_frame().expect("cap not hit") {
                let mut frame = frame;
                decoded.push(Message::decode(&mut frame).expect("framed decode"));
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        use escape_wire::varint::{get_uvarint, put_uvarint, uvarint_len};
        let mut buf = bytes::BytesMut::new();
        put_uvarint(&mut buf, v);
        prop_assert_eq!(buf.len(), uvarint_len(v));
        let mut frozen = buf.freeze();
        prop_assert_eq!(get_uvarint(&mut frozen).unwrap(), v);
    }

    #[test]
    fn zigzag_round_trips(v in any::<i64>()) {
        use escape_wire::varint::{zigzag_decode, zigzag_encode};
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }
}
