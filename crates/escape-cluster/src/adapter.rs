//! Glue between the engine's typed timer tokens and the simulator's opaque
//! `u64` tokens.
//!
//! The engine keeps one deadline per [`TimerKind`]: a new `SetTimer`
//! supersedes the last one of its kind. The cluster arms each kind in its
//! own simulator slot ([`Sim::arm`](escape_simnet::sim::Sim::arm), slot
//! [`timer_slot`]), so a superseded deadline never fires at all. Encoding
//! `(kind, epoch)` into the opaque token still lets the engine's epoch
//! check discard the fires it no longer wants — a timer silenced without
//! a re-arm (a step-down's heartbeat, say) still fires once.
//!
//! The low [`TAG_BITS`] of a token say what it is. Two tags are not engine
//! timers at all, but ride the node's timer queue because that gives them
//! the right lifetime for free — a crash cancels them along with the
//! node's timers:
//!
//! * [`BARRIER`] marks the instant a storage harness's deferred barrier
//!   reaches the disk (see
//!   [`StorageHarness::take_deferred`](crate::cluster::StorageHarness::take_deferred));
//! * [`PEER_CLOSED`] delivers a peer's closed connection, the failure
//!   hint of [`SimCluster::exit`](crate::cluster::SimCluster::exit).

use escape_core::engine::{TimerKind, TimerToken};
use escape_core::types::ServerId;

/// How many low bits of a token hold its tag.
pub const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// The tag of a deferred-barrier ticket.
pub const BARRIER: u64 = 0b111;
/// The tag of a peer's closed connection.
pub const PEER_CLOSED: u64 = 0b110;

/// The simulator timer slot of `kind`: one per kind, since each kind keeps
/// one deadline. The slot is also the kind's tag.
pub fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Election => 0,
        TimerKind::Heartbeat => 1,
        TimerKind::VoteRetry => 2,
        TimerKind::FenceLapse => 3,
    }
}

/// Packs a [`TimerToken`] into the simulator's opaque `u64`.
pub fn encode_timer(token: TimerToken) -> u64 {
    (token.epoch << TAG_BITS) | timer_slot(token.kind) as u64
}

/// Packs a deferred-barrier ticket into the simulator's opaque `u64`.
pub fn encode_barrier(ticket: u64) -> u64 {
    (ticket << TAG_BITS) | BARRIER
}

/// The deferred-barrier ticket `raw` carries, if it is one.
pub fn decode_barrier(raw: u64) -> Option<u64> {
    (raw & TAG_MASK == BARRIER).then_some(raw >> TAG_BITS)
}

/// Packs "`peer`'s connection closed" into the simulator's opaque `u64`.
pub fn encode_peer_closed(peer: ServerId) -> u64 {
    (u64::from(peer.get()) << TAG_BITS) | PEER_CLOSED
}

/// The peer whose connection closed, if `raw` says so.
pub fn decode_peer_closed(raw: u64) -> Option<ServerId> {
    (raw & TAG_MASK == PEER_CLOSED).then(|| ServerId::new((raw >> TAG_BITS) as u32))
}

/// Unpacks a simulator token back into a [`TimerToken`].
///
/// # Panics
///
/// Panics on a token that is not an engine timer (a harness bug, not an
/// input error): check [`decode_barrier`] and [`decode_peer_closed`]
/// first.
pub fn decode_timer(raw: u64) -> TimerToken {
    let kind = match raw & TAG_MASK {
        0 => TimerKind::Election,
        1 => TimerKind::Heartbeat,
        2 => TimerKind::VoteRetry,
        3 => TimerKind::FenceLapse,
        other => unreachable!("unknown timer kind encoding {other}"),
    };
    TimerToken {
        kind,
        epoch: raw >> TAG_BITS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_both_kinds() {
        for epoch in [0u64, 1, 2, 1_000_000, u64::MAX >> TAG_BITS] {
            for kind in [
                TimerKind::Election,
                TimerKind::Heartbeat,
                TimerKind::VoteRetry,
                TimerKind::FenceLapse,
            ] {
                let t = TimerToken { kind, epoch };
                assert_eq!(decode_timer(encode_timer(t)), t);
            }
        }
    }

    #[test]
    fn barrier_tickets_round_trip_and_are_not_timers() {
        for ticket in [0u64, 1, 77, u64::MAX >> TAG_BITS] {
            assert_eq!(decode_barrier(encode_barrier(ticket)), Some(ticket));
            assert_eq!(decode_peer_closed(encode_barrier(ticket)), None);
        }
        for kind in [TimerKind::VoteRetry, TimerKind::FenceLapse] {
            let timer = encode_timer(TimerToken { kind, epoch: 9 });
            assert_eq!(decode_barrier(timer), None);
            assert_eq!(decode_peer_closed(timer), None);
        }
    }

    #[test]
    fn closed_peers_round_trip_and_are_neither_timers_nor_barriers() {
        for raw in [1u32, 3, 50, u32::MAX] {
            let peer = ServerId::new(raw);
            let token = encode_peer_closed(peer);
            assert_eq!(decode_peer_closed(token), Some(peer));
            assert_eq!(decode_barrier(token), None);
        }
    }

    #[test]
    fn encodings_are_distinct() {
        let a = encode_timer(TimerToken {
            kind: TimerKind::Election,
            epoch: 5,
        });
        let b = encode_timer(TimerToken {
            kind: TimerKind::Heartbeat,
            epoch: 5,
        });
        assert_ne!(a, b);
    }
}
