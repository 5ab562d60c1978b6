//! Election measurement.
//!
//! The paper's metric (§VI-B): "The leader election time is recorded
//! including the detection of the leader crash and the election of a new
//! leader." Fig. 10 additionally splits the two periods: "The detection
//! period is recorded between when a leader crashes and a candidate
//! appears. The election period is recorded between when a candidate starts
//! an election campaign and a new leader is elected."
//!
//! [`measure_election`] extracts exactly those quantities from the nodes'
//! `escape-obs` event streams ([`SimCluster::event_streams`]), merged the
//! way [`escape_obs::reconstruct`] merges them.
//!
//! [`SimCluster::event_streams`]: crate::cluster::SimCluster::event_streams

use std::collections::BTreeSet;

use escape_core::time::{Duration, Time};
use escape_core::types::{ServerId, Term};
use escape_obs::{merge_events, Event, NodeEvents};

/// The measured anatomy of one leader election.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionMeasurement {
    /// When the old leader crashed.
    pub crash_at: Time,
    /// When the first candidate appeared (end of the detection period).
    pub first_candidate_at: Time,
    /// When the new leader collected its quorum.
    pub leader_at: Time,
    /// The winner.
    pub winner: ServerId,
    /// The winner's leadership term.
    pub winning_term: Term,
    /// Campaigns started between crash and resolution (1 = the ideal,
    /// competition-free case).
    pub campaigns: u32,
    /// Distinct servers that campaigned.
    pub distinct_candidates: u32,
    /// Election "phases": campaign waves separated by quiet gaps — for
    /// Raft each wave is one shared term's worth of competing candidates.
    pub phases: u32,
    /// Phases in which two or more candidates campaigned concurrently
    /// (the paper's "phases with competing candidates").
    pub competing_phases: u32,
}

impl ElectionMeasurement {
    /// Crash → first candidate (the failure-detection period).
    pub fn detection(&self) -> Duration {
        self.first_candidate_at.saturating_since(self.crash_at)
    }

    /// First candidate → leader (the vote-collection period, including any
    /// split-vote livelock).
    pub fn election(&self) -> Duration {
        self.leader_at.saturating_since(self.first_candidate_at)
    }

    /// Crash → leader: the paper's headline "leader election time".
    pub fn total(&self) -> Duration {
        self.leader_at.saturating_since(self.crash_at)
    }
}

/// Groups candidate timestamps into waves: two campaigns belong to the same
/// phase when they start within `window` of each other.
fn count_phases(mut starts: Vec<Time>, window: Duration) -> (u32, u32) {
    starts.sort_unstable();
    let mut phases = 0u32;
    let mut competing = 0u32;
    let mut i = 0;
    while i < starts.len() {
        let wave_start = starts[i];
        let mut members = 0u32;
        while i < starts.len() && starts[i].saturating_since(wave_start) <= window {
            members += 1;
            i += 1;
        }
        phases += 1;
        if members >= 2 {
            competing += 1;
        }
    }
    (phases, competing)
}

/// Measures the election triggered by the crash at `since`.
///
/// Merges `streams` from `since` on ([`merge_events`]: by instant, ties by
/// node) and scans them for the first `CampaignStarted` and the first
/// `LeaderElected` after that; campaigns are grouped into phases with a
/// concurrency `window` (pass roughly the maximum network latency:
/// campaigns closer than one one-way delay genuinely compete for the same
/// votes).
///
/// Returns `None` if no leader emerged after the crash (measurement horizon
/// too short).
pub fn measure_election(
    streams: &[NodeEvents],
    since: Time,
    window: Duration,
) -> Option<ElectionMeasurement> {
    let mut first_candidate_at: Option<Time> = None;
    let mut campaign_starts: Vec<Time> = Vec::new();
    let mut candidates: BTreeSet<u32> = BTreeSet::new();
    let mut campaigns = 0u32;

    for (at, node, event) in merge_events(since.as_micros(), streams) {
        let at = Time::from_micros(at);
        match event {
            Event::CampaignStarted { .. } => {
                first_candidate_at.get_or_insert(at);
                campaigns += 1;
                candidates.insert(node);
                campaign_starts.push(at);
            }
            Event::LeaderElected { term } => {
                // A leadership claim with no post-crash campaign behind it
                // is leftover from a pre-crash election (e.g. a leader
                // crashed at the instant it won); the recovery election is
                // still ahead of us.
                let Some(first) = first_candidate_at else {
                    continue;
                };
                let (phases, competing_phases) = count_phases(campaign_starts, window);
                return Some(ElectionMeasurement {
                    crash_at: since,
                    first_candidate_at: first,
                    leader_at: at,
                    winner: ServerId::new(node),
                    winning_term: Term::new(term),
                    campaigns,
                    distinct_candidates: candidates.len() as u32,
                    phases,
                    competing_phases,
                });
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_obs::TimedEvent;

    /// One stream per node, in the order the nodes first appear; each
    /// `(at_ms, node, event)` is appended to its node's stream.
    fn streams(events: &[(u64, u32, Event)]) -> Vec<NodeEvents> {
        let mut out: Vec<NodeEvents> = Vec::new();
        for &(at, node, event) in events {
            let timed = TimedEvent {
                at_micros: ms(at).as_micros(),
                event,
            };
            match out.iter_mut().find(|stream| stream.node == node) {
                Some(stream) => stream.events.push(timed),
                None => out.push(NodeEvents {
                    node,
                    events: vec![timed],
                }),
            }
        }
        out
    }

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn cand(at: u64, node: u32, term: u64) -> (u64, u32, Event) {
        (at, node, Event::CampaignStarted { term })
    }

    fn lead(at: u64, node: u32, term: u64) -> (u64, u32, Event) {
        (at, node, Event::LeaderElected { term })
    }

    const WINDOW: Duration = Duration::from_millis(200);

    #[test]
    fn clean_single_campaign() {
        let events = streams(&[
            cand(100, 2, 1), // pre-crash noise
            lead(150, 2, 1),
            (1000, 2, Event::NodeKilled),
            cand(2600, 3, 2),
            lead(2900, 3, 2),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.detection(), Duration::from_millis(1600));
        assert_eq!(m.election(), Duration::from_millis(300));
        assert_eq!(m.total(), Duration::from_millis(1900));
        assert_eq!(m.winner, ServerId::new(3));
        assert_eq!(m.campaigns, 1);
        assert_eq!(m.phases, 1);
        assert_eq!(m.competing_phases, 0);
    }

    #[test]
    fn split_vote_counts_phases() {
        // Fig. 2's anatomy: S3 and S4 collide (phase 1, competing), then S3
        // wins alone on its second timeout (phase 2).
        let events = streams(&[
            cand(2500, 3, 2),
            cand(2550, 4, 2),
            cand(4100, 3, 3),
            lead(4400, 3, 3),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.campaigns, 3);
        assert_eq!(m.distinct_candidates, 2);
        assert_eq!(m.phases, 2);
        assert_eq!(m.competing_phases, 1);
        assert_eq!(m.winner, ServerId::new(3));
    }

    #[test]
    fn concurrent_escape_campaigns_one_phase() {
        // Fig. 6: three simultaneous campaigns in different terms, resolved
        // in one phase.
        let events = streams(&[
            cand(2600, 2, 13),
            cand(2610, 3, 15),
            cand(2620, 4, 12),
            lead(2950, 3, 15),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.phases, 1);
        assert_eq!(m.competing_phases, 1);
        assert_eq!(m.distinct_candidates, 3);
        assert_eq!(m.winning_term, Term::new(15));
    }

    #[test]
    fn no_leader_yields_none() {
        let events = streams(&[cand(2600, 3, 2)]);
        assert!(measure_election(&events, ms(1000), WINDOW).is_none());
    }

    #[test]
    fn leader_event_at_the_crash_instant_is_skipped() {
        // The crashed leader's own win can share the crash timestamp; the
        // measurement must wait for the *recovery* election instead of
        // aborting.
        let events = streams(&[
            lead(1000, 2, 5), // wins and crashes in the same instant
            cand(2600, 3, 7),
            lead(2900, 3, 7),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.winner, ServerId::new(3));
        assert_eq!(m.total(), Duration::from_millis(1900));
    }

    #[test]
    fn pre_crash_events_are_ignored() {
        let events = streams(&[
            cand(500, 9, 1),
            lead(800, 9, 1),
            cand(2600, 3, 2),
            lead(2900, 3, 2),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.winner, ServerId::new(3));
        assert_eq!(m.campaigns, 1);
    }

    #[test]
    fn commit_events_do_not_confuse_measurement() {
        // Neither a commit nor the detection and step-down markers around
        // a campaign move its measurement.
        let events = streams(&[
            (1100, 1, Event::FirstCommit { term: 1, index: 5 }),
            (2500, 3, Event::ElectionTimeout { term: 1 }),
            (2550, 4, Event::SteppedDown { term: 2 }),
            cand(2600, 3, 2),
            lead(2900, 3, 2),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.total(), Duration::from_millis(1900));
        assert_eq!(m.detection(), Duration::from_millis(1600));
    }

    #[test]
    fn a_campaign_won_at_the_instant_it_began_is_one_campaign() {
        // Same-instant events merge by node (S2 before S4), and S4's own
        // campaign and win keep their recording order.
        let events = streams(&[
            (2600, 4, Event::ElectionTimeout { term: 1 }),
            cand(2600, 4, 4),
            lead(2600, 4, 4),
            (2600, 2, Event::SteppedDown { term: 4 }),
        ]);
        let m = measure_election(&events, ms(1000), WINDOW).unwrap();
        assert_eq!(m.winner, ServerId::new(4));
        assert_eq!(m.campaigns, 1);
        assert_eq!(m.election(), Duration::ZERO);
    }

    #[test]
    fn phase_window_groups_correctly() {
        let (phases, competing) = count_phases(
            vec![ms(100), ms(150), ms(180), ms(900), ms(2000), ms(2100)],
            WINDOW,
        );
        assert_eq!(phases, 3);
        assert_eq!(competing, 2); // {100,150,180} and {2000,2100}
    }
}
