//! Deterministic scenario scripts.
//!
//! Fig. 10 evaluates elections that resolve "in zero, one, two, and three
//! phases with competing candidates" — the authors *configured* timeouts to
//! produce each class. This module builds the equivalent scripted
//! protocols:
//!
//! * **Raft, class `m`** ([`competing_phases_protocol`]) — every server's
//!   election timeout is pinned to a common wave cadence, so after the
//!   leader disappears *all* followers' timers expire together. With the
//!   whole cluster campaigning, nobody has followers left to vote for it:
//!   each wave is a guaranteed split (a deterministic realization of the
//!   livelock §VI-C describes). After `m` such waves, one designated server
//!   keeps the cadence while everyone else stands down for a long beat —
//!   the designated server campaigns alone and wins.
//! * **ESCAPE, class `m ≥ 1`** — the analogous stress is `k = 0` in Eq. 1:
//!   every configuration shares the `baseTime` timeout, so every wave is a
//!   full collision. Priorities still differ, so the concurrent campaigns
//!   land on different term surfaces (Fig. 7) and the *first* wave resolves
//!   the election regardless of `m` — precisely the claim Fig. 10 makes.
//!
//! Wave position is tracked by counting campaigns: the engine calls
//! [`ElectionPolicy::term_increment`] exactly once per campaign start, so a
//! policy can count its own waves without peeking at engine internals.

use std::cell::Cell;
use std::sync::Arc;

use escape_core::config::EscapeParams;
use escape_core::policy::{ElectionPolicy, EscapePolicy, RaftPolicy, ScriptedTimeouts};
use escape_core::time::Duration;
use escape_core::types::ServerId;

use crate::cluster::Protocol;

/// The wave cadence used by the scripted Raft schedules: the minimum of the
/// paper's recommended 1500–3000 ms timeout range, i.e. the earliest a
/// repeat campaign can start.
pub const WAVE: Duration = Duration::from_millis(1500);

/// How long stood-down servers wait once the designated winner breaks the
/// tie — comfortably longer than a detect-campaign-win round trip at the
/// paper's latency.
pub const STAND_DOWN: Duration = Duration::from_millis(6000);

/// Stock-Raft election behaviour with a wave-scripted timeout: collide for
/// `forced_waves` campaigns, then either keep the cadence (the designated
/// winner) or stand down (everyone else).
#[derive(Debug)]
struct WaveScriptPolicy {
    forced_waves: u32,
    is_winner: bool,
    campaigns: Cell<u32>,
}

impl ElectionPolicy for WaveScriptPolicy {
    fn name(&self) -> &'static str {
        "raft"
    }

    fn election_timeout(&mut self) -> Duration {
        // Everyone keeps the wave cadence through the forced collisions;
        // afterwards only the designated winner keeps it.
        if self.campaigns.get() < self.forced_waves || self.is_winner {
            WAVE
        } else {
            STAND_DOWN
        }
    }

    fn term_increment(&self) -> u64 {
        // Called exactly once per campaign start: count the wave.
        self.campaigns.set(self.campaigns.get() + 1);
        1
    }
}

/// Builds the protocol for a Fig. 10 class (`competing_phases` = 0..=3) for
/// the given base protocol name (`"raft"` or `"escape"`).
///
/// Clusters built from these protocols are measured **from boot**: a fresh
/// leaderless cluster (timers armed, no heartbeats yet) is behaviourally
/// identical to the instant after a leader crash, and boot makes the wave
/// collisions exact because every timer arms at `t = 0`.
///
/// The designated `winner` (experiments use S2) breaks the tie after the
/// forced waves.
///
/// # Panics
///
/// Panics on an unknown protocol name.
pub fn competing_phases_protocol(
    protocol: &str,
    competing_phases: u32,
    winner: ServerId,
) -> Protocol {
    match protocol {
        "raft" => Protocol::Custom(Arc::new(move |id: ServerId, _n, _seed| {
            Box::new(WaveScriptPolicy {
                forced_waves: competing_phases,
                is_winner: id == winner,
                campaigns: Cell::new(0),
            })
        })),
        "escape" => {
            if competing_phases == 0 {
                // No contention: the paper's normal spacing.
                Protocol::escape_paper_default()
            } else {
                // Maximal contention: k = 0 collapses every timeout onto
                // baseTime; every wave is a full collision.
                Protocol::Custom(Arc::new(|id: ServerId, n: usize, _seed| {
                    let params = EscapeParams::builder(n)
                        .base_time_ms(1500)
                        .spacing_ms(0)
                        .build();
                    Box::new(EscapePolicy::new(id, params))
                }))
            }
        }
        other => panic!("unknown protocol {other:?} for the Fig. 10 scenario"),
    }
}

/// The Fig. 2 case study: a 5-server Raft cluster where S3 and S4 collide
/// and split the vote, then S3 wins on its second timeout.
///
/// S1 plays the crashed leader (its timer never fires); S2 and S5 are the
/// passive voters. The schedule is consumed as timers re-arm, and with no
/// heartbeats flowing in a leaderless boot, entry 0 is the first campaign
/// and entry 1 the retry.
pub fn fig2_split_vote_protocol() -> Protocol {
    Protocol::Custom(Arc::new(|id: ServerId, _n: usize, _seed: u64| {
        let schedule = match id.get() {
            3 => vec![
                Duration::from_millis(1500),
                Duration::from_millis(1200),
                Duration::from_millis(60_000),
            ],
            4 => vec![Duration::from_millis(1500), Duration::from_millis(60_000)],
            _ => vec![Duration::from_millis(60_000)],
        };
        Box::new(RaftPolicy::with_source(Box::new(ScriptedTimeouts::new(
            schedule,
        ))))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SimCluster};
    use crate::observer::measure_election;
    use escape_core::time::Time;
    use escape_core::types::{Role, Term};
    use escape_simnet::latency::LatencyModel;

    fn constant_latency(cfg: &mut ClusterConfig) {
        // Constant latency makes the scripted collisions exact.
        cfg.latency = LatencyModel::Constant(Duration::from_millis(150));
    }

    #[test]
    fn fig2_script_produces_a_split_then_resolution() {
        let mut cfg = ClusterConfig::paper_network(5, fig2_split_vote_protocol(), 7);
        // Asymmetric (geo) latency recreates Fig. 2's vote split exactly:
        // S2 hears S3 first, S5 hears S4 first.
        cfg.latency = LatencyModel::Geo {
            group_of: vec![0, 0, 0, 1, 1],
            intra: (Duration::from_millis(100), Duration::from_millis(100)),
            inter: (Duration::from_millis(200), Duration::from_millis(200)),
        };
        let mut cluster = SimCluster::new(cfg);
        // S1 is the crashed leader of t(1) — "afterwards there was no
        // communication between S1 and the other servers".
        cluster.crash(ServerId::new(1));

        // Both candidates fire at 1500 ms; each votes for itself, S2 votes
        // for S3, S5 votes for S4 — nobody reaches three votes.
        cluster.run_until(Time::from_millis(2400));
        for id in [3u32, 4] {
            assert_eq!(
                cluster.node(ServerId::new(id)).role(),
                Role::Candidate,
                "S{id} must be campaigning"
            );
        }
        assert!(cluster.current_leader().is_none(), "term 1 must split");

        // ...until S3's second timeout resolves it in term 2 (point D-E).
        let winner = cluster
            .run_until_new_leader(Term::ZERO, Time::from_millis(6000))
            .expect("S3 resolves the split");
        assert_eq!(winner, ServerId::new(3));
        assert_eq!(cluster.node(winner).current_term(), Term::new(2));
        assert!(cluster.safety().is_safe());
    }

    #[test]
    fn raft_class_zero_elects_in_one_wave() {
        let mut cfg = ClusterConfig::paper_network(
            8,
            competing_phases_protocol("raft", 0, ServerId::new(2)),
            3,
        );
        constant_latency(&mut cfg);
        let mut cluster = SimCluster::new(cfg);
        let winner = cluster
            .run_until_new_leader(Term::ZERO, Time::from_millis(10_000))
            .expect("class-0 script elects the winner in wave 1");
        assert_eq!(winner, ServerId::new(2));
        let m = measure_election(
            &cluster.event_streams(),
            Time::ZERO,
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(m.competing_phases, 0);
        assert_eq!(m.phases, 1);
    }

    #[test]
    fn raft_class_two_costs_two_extra_waves() {
        let mut cfg = ClusterConfig::paper_network(
            8,
            competing_phases_protocol("raft", 2, ServerId::new(2)),
            3,
        );
        constant_latency(&mut cfg);
        let mut cluster = SimCluster::new(cfg);
        let winner = cluster
            .run_until_new_leader(Term::ZERO, Time::from_millis(20_000))
            .expect("winner after two forced waves");
        assert_eq!(winner, ServerId::new(2));
        let m = measure_election(
            &cluster.event_streams(),
            Time::ZERO,
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(m.competing_phases, 2, "exactly two split waves");
        assert_eq!(m.phases, 3);
        // The livelock costs ≈ phases × wave (§VI-C).
        assert!(m.total() >= Duration::from_millis(4500));
        assert!(m.total() <= Duration::from_millis(5500));
        assert!(cluster.safety().is_safe());
    }

    #[test]
    fn escape_under_full_contention_resolves_in_first_wave() {
        let mut cfg = ClusterConfig::paper_network(
            8,
            competing_phases_protocol("escape", 3, ServerId::new(2)),
            3,
        );
        constant_latency(&mut cfg);
        let mut cluster = SimCluster::new(cfg);
        let winner = cluster
            .run_until_new_leader(Term::ZERO, Time::from_millis(10_000))
            .expect("highest-priority candidate wins wave 1");
        // All eight collide; the top term surface belongs to S8.
        assert_eq!(winner, ServerId::new(8));
        let m = measure_election(
            &cluster.event_streams(),
            Time::ZERO,
            Duration::from_millis(200),
        )
        .unwrap();
        // One phase despite 8 concurrent candidates — Fig. 10's claim.
        assert_eq!(m.phases, 1);
        assert_eq!(m.competing_phases, 1);
        assert!(
            m.total() <= Duration::from_millis(2100),
            "ESCAPE stays within the paper's 2000 ms envelope (got {})",
            m.total()
        );
        assert!(cluster.safety().is_safe());
    }

    #[test]
    #[should_panic(expected = "unknown protocol")]
    fn unknown_protocol_is_rejected() {
        let _ = competing_phases_protocol("paxos", 1, ServerId::new(1));
    }
}
