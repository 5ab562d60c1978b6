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
//! The fourth kind encoding is not an engine timer at all: it marks the
//! instant a storage harness's deferred barrier reaches the disk (see
//! [`StorageHarness::take_deferred`](crate::cluster::StorageHarness::take_deferred)).
//! Riding the node's timer queue gives it the right lifetime for free —
//! a crash cancels the flush along with the node's timers.

use escape_core::engine::{TimerKind, TimerToken};

/// The simulator timer slot of `kind`: one per kind, since each kind keeps
/// one deadline.
pub fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Election => 0,
        TimerKind::Heartbeat => 1,
        TimerKind::VoteRetry => 2,
    }
}

/// Packs a [`TimerToken`] into the simulator's opaque `u64`.
pub fn encode_timer(token: TimerToken) -> u64 {
    (token.epoch << 2) | timer_slot(token.kind) as u64
}

/// Packs a deferred-barrier ticket into the simulator's opaque `u64`.
pub fn encode_barrier(ticket: u64) -> u64 {
    (ticket << 2) | 0b11
}

/// The deferred-barrier ticket `raw` carries, if it is one.
pub fn decode_barrier(raw: u64) -> Option<u64> {
    (raw & 0b11 == 0b11).then_some(raw >> 2)
}

/// Unpacks a simulator token back into a [`TimerToken`].
///
/// # Panics
///
/// Panics on a token that is not an engine timer (a harness bug, not an
/// input error): check [`decode_barrier`] first.
pub fn decode_timer(raw: u64) -> TimerToken {
    let kind = match raw & 0b11 {
        0 => TimerKind::Election,
        1 => TimerKind::Heartbeat,
        2 => TimerKind::VoteRetry,
        other => unreachable!("unknown timer kind encoding {other}"),
    };
    TimerToken {
        kind,
        epoch: raw >> 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_both_kinds() {
        for epoch in [0u64, 1, 2, 1_000_000, u64::MAX >> 2] {
            for kind in [
                TimerKind::Election,
                TimerKind::Heartbeat,
                TimerKind::VoteRetry,
            ] {
                let t = TimerToken { kind, epoch };
                assert_eq!(decode_timer(encode_timer(t)), t);
            }
        }
    }

    #[test]
    fn barrier_tickets_round_trip_and_are_not_timers() {
        for ticket in [0u64, 1, 77, u64::MAX >> 2] {
            assert_eq!(decode_barrier(encode_barrier(ticket)), Some(ticket));
        }
        let timer = encode_timer(TimerToken {
            kind: TimerKind::VoteRetry,
            epoch: 9,
        });
        assert_eq!(decode_barrier(timer), None);
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
