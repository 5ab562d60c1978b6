//! Pluggable leader-election policies.
//!
//! The consensus engine implements everything the three protocols share
//! (terms, votes, log replication, commit rules); an [`ElectionPolicy`]
//! supplies everything that differs between stock Raft, Z-Raft, and ESCAPE:
//!
//! | Hook | Raft | Z-Raft | ESCAPE |
//! |------|------|--------|--------|
//! | election timeout | uniform random in a range | Eq. 1 with a *static* priority | Eq. 1 with the PPF-assigned priority |
//! | term increment (Eq. 2) | 1 | static priority | assigned priority |
//! | vote admissibility | — | — | candidate `confClock` ≥ voter's |
//! | heartbeat piggyback | — | — | PPF rearrangement (`newConfig`) |
//!
//! Because the engine is shared, experimental comparisons between the
//! policies differ *only* in the policy under test — the same variable the
//! paper isolates.

mod escape;
mod raft;
mod zraft;

pub use escape::{EscapePolicy, PatrolSnapshot};
pub use raft::RaftPolicy;
pub use zraft::ZRaftPolicy;

use crate::config::Configuration;
use crate::message::{ConfigStatus, RequestVoteArgs};
use crate::time::Duration;
use crate::types::{ConfClock, LogIndex, ServerId};

/// Supplies election-timeout periods.
///
/// The default sources are random (Raft) or configuration-driven
/// (Z-Raft/ESCAPE); experiments that need *forced* timer collisions — the
/// competing-candidate phases of Fig. 10 — inject scripted sources instead.
pub trait TimeoutSource: std::fmt::Debug + Send {
    /// The next election-timeout period to arm.
    fn next_timeout(&mut self) -> Duration;
}

/// A scripted timeout source: plays back a fixed schedule, then repeats the
/// final value. Used to construct the deterministic scenarios of Figs. 2, 6
/// and the forced split-vote phases of Fig. 10.
#[derive(Clone, Debug)]
pub struct ScriptedTimeouts {
    schedule: Vec<Duration>,
    position: usize,
}

impl ScriptedTimeouts {
    /// Creates a source that yields `schedule` in order, then repeats the
    /// last element forever.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty.
    pub fn new(schedule: Vec<Duration>) -> Self {
        assert!(!schedule.is_empty(), "schedule must contain at least one timeout");
        ScriptedTimeouts {
            schedule,
            position: 0,
        }
    }
}

impl TimeoutSource for ScriptedTimeouts {
    fn next_timeout(&mut self) -> Duration {
        // lint:allow(panic): index clamped to len - 1; constructor asserts non-empty
        let d = self.schedule[self.position.min(self.schedule.len() - 1)];
        self.position += 1;
        d
    }
}

/// Election-protocol behaviour that varies between Raft, Z-Raft and ESCAPE.
///
/// All hooks have no-op defaults matching stock Raft, so a policy only
/// overrides what it changes. The trait is object-safe; the engine stores a
/// `Box<dyn ElectionPolicy>`.
pub trait ElectionPolicy: std::fmt::Debug + Send {
    /// Stable name for traces and experiment output
    /// (`"raft"`, `"zraft"`, `"escape"`).
    fn name(&self) -> &'static str;

    /// The next election-timeout period to arm on this server.
    fn election_timeout(&mut self) -> Duration;

    /// How far a new campaign advances the term (Eq. 2). Stock Raft: 1.
    fn term_increment(&self) -> u64 {
        1
    }

    /// The configuration clock to stamp on outgoing `RequestVote`s, or
    /// `None` if this policy does not patrol configurations.
    fn campaign_conf_clock(&self) -> Option<ConfClock> {
        None
    }

    /// Policy-specific vote admissibility, evaluated *in addition to* Raft's
    /// three rules. ESCAPE refuses candidates with stale configuration
    /// clocks here (§IV-B).
    fn candidate_admissible(&self, _args: &RequestVoteArgs) -> bool {
        true
    }

    /// Called when this node wins an election.
    fn became_leader(&mut self, _peers: &[ServerId]) {}

    /// Called when this node abandons leadership or candidacy for a newer
    /// term.
    fn stepped_down(&mut self) {}

    /// Follower: a heartbeat delivered a (possibly new) configuration
    /// assignment. Returns `true` if the configuration was adopted.
    fn config_received(&mut self, _config: Configuration) -> bool {
        false
    }

    /// Follower: the responsiveness report to piggyback on `AppendEntries`
    /// replies (Listing 1's `configStatus`).
    fn report_status(&self, _last_log_index: LogIndex) -> Option<ConfigStatus> {
        None
    }

    /// Leader: a follower's piggybacked status arrived.
    fn follower_status(&mut self, _from: ServerId, _status: ConfigStatus) {}

    /// Leader: called once at the start of every heartbeat round, *before*
    /// the per-follower sends. The probing patrol function performs its
    /// rearrangement here. Returns `true` if a new assignment was issued
    /// (for metrics).
    fn begin_heartbeat_round(&mut self) -> bool {
        false
    }

    /// Leader: the configuration to piggyback on this round's
    /// `AppendEntries` to `follower` (`newConfig` in Listing 1).
    fn config_for(&mut self, _follower: ServerId) -> Option<Configuration> {
        None
    }

    /// This server's current configuration, if the policy tracks one.
    /// Exposed for invariant checking (Theorem 3) and traces.
    fn current_config(&self) -> Option<Configuration> {
        None
    }

    /// Boot-time recovery: re-adopt the configuration the node held before
    /// its crash (as rebuilt from durable storage). Policies that track no
    /// configuration ignore this. Unlike
    /// [`config_received`](ElectionPolicy::config_received), the recovered
    /// configuration is adopted unconditionally — it *is* this node's
    /// pre-crash state, not a proposal from a leader.
    fn restore_config(&mut self, _config: Configuration) {}

    /// The shortest election timeout any server of the cluster can arm
    /// (Eq. 1's `baseTime`, Raft's range minimum), or `None` when the
    /// policy cannot know it (scripted schedules).
    fn timeout_floor(&self) -> Option<Duration> {
        None
    }

    /// The longest leader lease this policy can tolerate: the floor × 4/5,
    /// `None` without a floor. The engine caps `Options::lease_duration`
    /// here so the lease vote fence (lease × 5/4 of required silence)
    /// never exceeds the *minimum* election timeout: a fence above it
    /// would delay legitimate failovers — for ESCAPE, it would cost the
    /// prepared leader its reflex advantage.
    fn lease_bound(&self) -> Option<Duration> {
        self.timeout_floor().map(lease_bound_for)
    }
}

/// `timeout_floor × 4/5`: the largest lease whose vote fence still fits
/// under a policy's minimum election timeout (the default
/// [`ElectionPolicy::lease_bound`]).
pub(crate) fn lease_bound_for(timeout_floor: Duration) -> Duration {
    Duration::from_micros(timeout_floor.as_micros().saturating_mul(4) / 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_timeouts_replay_then_repeat() {
        let mut s = ScriptedTimeouts::new(vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
        ]);
        assert_eq!(s.next_timeout(), Duration::from_millis(10));
        assert_eq!(s.next_timeout(), Duration::from_millis(20));
        assert_eq!(s.next_timeout(), Duration::from_millis(20));
        assert_eq!(s.next_timeout(), Duration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "at least one timeout")]
    fn scripted_timeouts_reject_empty() {
        let _ = ScriptedTimeouts::new(Vec::new());
    }

    /// The default hooks must behave like stock Raft so that a minimal
    /// policy impl is a correct Raft.
    #[test]
    fn default_hooks_are_raft_shaped() {
        #[derive(Debug)]
        struct Minimal;
        impl ElectionPolicy for Minimal {
            fn name(&self) -> &'static str {
                "minimal"
            }
            fn election_timeout(&mut self) -> Duration {
                Duration::from_millis(150)
            }
        }
        let mut p = Minimal;
        assert_eq!(p.term_increment(), 1);
        assert_eq!(p.campaign_conf_clock(), None);
        assert!(p.candidate_admissible(&RequestVoteArgs {
            term: crate::types::Term::new(1),
            candidate_id: ServerId::new(1),
            last_log_index: LogIndex::ZERO,
            last_log_term: crate::types::Term::ZERO,
            conf_clock: None,
        }));
        assert!(!p.config_received(Configuration::new(
            Duration::from_millis(1),
            crate::types::Priority::new(1),
            ConfClock::ZERO,
        )));
        assert_eq!(p.report_status(LogIndex::ZERO), None);
        assert!(!p.begin_heartbeat_round());
        assert_eq!(p.config_for(ServerId::new(2)), None);
        assert_eq!(p.current_config(), None);
        assert_eq!(p.timeout_floor(), None);
        assert_eq!(p.lease_bound(), None);
    }

    #[test]
    fn lease_bound_leaves_fence_room() {
        // bound × 5/4 (the fence) must not exceed the floor it came from.
        for floor_ms in [5u64, 150, 1000, 2000] {
            let floor = Duration::from_millis(floor_ms);
            let bound = lease_bound_for(floor);
            let fence = Duration::from_micros(bound.as_micros() * 5 / 4);
            assert!(fence <= floor, "fence {fence:?} exceeds floor {floor:?}");
        }
    }
}
