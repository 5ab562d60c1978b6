//! The failover-timeline reconstructor: merges per-node event streams
//! and decomposes one leader failure into its phases,
//!
//! ```text
//! leader_killed → detected → campaign_started → leader_elected → first_commit
//! ```
//!
//! so the paper's reflex bound can be asserted *per phase* rather than
//! end to end. The phase durations telescope — they sum to the measured
//! failover exactly, by construction — and the reconstructor counts
//! campaigns so the one-campaign property is a checkable number, not a
//! vibe.

use std::fmt::Write as _;

use crate::event::{Event, TimedEvent};

/// One node's recorded events, as fed to [`reconstruct`].
#[derive(Clone, Debug)]
pub struct NodeEvents {
    /// The recording node's server id.
    pub node: u32,
    /// Its retained events, any order (the reconstructor sorts).
    pub events: Vec<TimedEvent>,
}

/// Why a timeline could not be reconstructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimelineError {
    /// No surviving node's election timer fired after the kill.
    NoDetection,
    /// A timer fired but no campaign started.
    NoCampaign,
    /// A campaign started but nobody won.
    NoLeader,
    /// A leader was elected but never committed under its term.
    NoFirstCommit,
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            TimelineError::NoDetection => "no election timeout observed after the kill",
            TimelineError::NoCampaign => "no campaign started after detection",
            TimelineError::NoLeader => "no leader elected after the campaign",
            TimelineError::NoFirstCommit => "elected leader never committed under its term",
        };
        f.write_str(what)
    }
}

impl std::error::Error for TimelineError {}

/// A reconstructed failover. All instants are microseconds on the
/// cluster's shared clock (virtual under simnet, monotonic under TCP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverTimeline {
    /// When the old leader was killed.
    pub leader_killed_at: u64,
    /// The first failure hint a survivor took between the kill and the
    /// detection, as `(at, node, advance_micros)`: the leader's closed
    /// connection that moved an election deadline earlier. `None` when
    /// detection waited out the full timeout.
    pub hinted: Option<(u64, u32, u64)>,
    /// First surviving election-timer expiry (failure detected).
    pub detected_at: u64,
    /// First campaign start.
    pub campaign_started_at: u64,
    /// New leader's election.
    pub leader_elected_at: u64,
    /// New leader's first commit under its own term.
    pub first_commit_at: u64,
    /// The winning node.
    pub winner: u32,
    /// The winning term.
    pub winning_term: u64,
    /// Campaigns started between the kill and the first commit. ESCAPE's
    /// prepared-follower property predicts exactly one.
    pub campaigns: u32,
    /// Distinct nodes that campaigned in that window.
    pub distinct_candidates: u32,
}

/// Per-phase upper bounds for [`FailoverTimeline::check_bounds`], in
/// microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseBounds {
    /// kill → detection (failure-detector latency).
    pub detect_micros: u64,
    /// detection → campaign start (should be ~0: the same timer fire).
    pub campaign_micros: u64,
    /// campaign start → leadership (vote round trips).
    pub elect_micros: u64,
    /// leadership → first commit (no-op replication round).
    pub commit_micros: u64,
}

impl PhaseBounds {
    /// The paper's reflex bound applied to every phase: each ≤ 200 ms.
    pub fn reflex_200ms() -> Self {
        PhaseBounds {
            detect_micros: 200_000,
            campaign_micros: 200_000,
            elect_micros: 200_000,
            commit_micros: 200_000,
        }
    }
}

impl FailoverTimeline {
    /// kill → detection.
    pub fn detect_micros(&self) -> u64 {
        self.detected_at.saturating_sub(self.leader_killed_at)
    }

    /// detection → campaign start.
    pub fn campaign_micros(&self) -> u64 {
        self.campaign_started_at.saturating_sub(self.detected_at)
    }

    /// campaign start → leadership.
    pub fn elect_micros(&self) -> u64 {
        self.leader_elected_at.saturating_sub(self.campaign_started_at)
    }

    /// leadership → first commit.
    pub fn commit_micros(&self) -> u64 {
        self.first_commit_at.saturating_sub(self.leader_elected_at)
    }

    /// kill → first commit: the whole failover. Always equals the sum of
    /// the four phases (they telescope).
    pub fn total_micros(&self) -> u64 {
        self.first_commit_at.saturating_sub(self.leader_killed_at)
    }

    /// The named phases in order, as `(name, duration_micros)`.
    pub fn phases(&self) -> [(&'static str, u64); 4] {
        [
            ("detect", self.detect_micros()),
            ("campaign", self.campaign_micros()),
            ("elect", self.elect_micros()),
            ("commit", self.commit_micros()),
        ]
    }

    /// Checks every phase against its bound. The error lists each
    /// violated phase with its measured and allowed duration.
    ///
    /// # Errors
    ///
    /// A human-readable violation list when any phase exceeds its bound.
    pub fn check_bounds(&self, bounds: &PhaseBounds) -> Result<(), String> {
        let limits = [
            bounds.detect_micros,
            bounds.campaign_micros,
            bounds.elect_micros,
            bounds.commit_micros,
        ];
        let mut violations = String::new();
        for ((name, took), limit) in self.phases().into_iter().zip(limits) {
            if took > limit {
                let _ = write!(violations, "{name} took {took}us > bound {limit}us; ");
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.trim_end_matches("; ").to_string())
        }
    }

    /// The machine-readable breakdown: one `k=v` line per marker, then a
    /// `phases` summary line. Stable field order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "leader_killed at={}", self.leader_killed_at);
        if let Some((at, node, advance)) = self.hinted {
            let _ = writeln!(out, "hinted at={at} node={node} advance={advance}");
        }
        let _ = writeln!(out, "detected at={}", self.detected_at);
        let _ = writeln!(out, "campaign_started at={}", self.campaign_started_at);
        let _ = writeln!(
            out,
            "leader_elected at={} node={} term={}",
            self.leader_elected_at, self.winner, self.winning_term
        );
        let _ = writeln!(out, "first_commit at={}", self.first_commit_at);
        let _ = writeln!(
            out,
            "phases detect={} campaign={} elect={} commit={} total={} \
             campaigns={} distinct_candidates={}",
            self.detect_micros(),
            self.campaign_micros(),
            self.elect_micros(),
            self.commit_micros(),
            self.total_micros(),
            self.campaigns,
            self.distinct_candidates,
        );
        out
    }
}

/// Every event at or after `since_micros` across `streams`, as
/// `(at_micros, node, event)`, sorted stably by `(at_micros, node)`: ties
/// between nodes break by node id, and one node's same-instant events keep
/// their recording order.
pub fn merge_events(since_micros: u64, streams: &[NodeEvents]) -> Vec<(u64, u32, Event)> {
    let mut merged: Vec<(u64, u32, Event)> = streams
        .iter()
        .flat_map(|stream| {
            stream
                .events
                .iter()
                .filter(|timed| timed.at_micros >= since_micros)
                .map(|timed| (timed.at_micros, stream.node, timed.event))
        })
        .collect();
    merged.sort_by_key(|&(at, node, _)| (at, node));
    merged
}

/// Merges the nodes' event streams and reconstructs the failover that
/// began when the leader was killed at `killed_at_micros`.
///
/// Markers are taken in causal order: the first surviving
/// `ElectionTimeout` at or after the kill, the first `CampaignStarted`
/// at or after that, the first `LeaderElected` after the campaign, and
/// the winner's first `FirstCommit` under its winning term. Campaigns
/// are counted across **all** nodes between the kill and the first
/// commit.
///
/// # Errors
///
/// A [`TimelineError`] naming the first missing marker.
pub fn reconstruct(
    killed_at_micros: u64,
    streams: &[NodeEvents],
) -> Result<FailoverTimeline, TimelineError> {
    let merged = merge_events(killed_at_micros, streams);

    let detected_at = merged
        .iter()
        .find_map(|&(at, _, e)| matches!(e, Event::ElectionTimeout { .. }).then_some(at))
        .ok_or(TimelineError::NoDetection)?;
    let hinted = merged.iter().find_map(|&(at, node, e)| match e {
        Event::FailureHinted { advance_micros, .. } if at <= detected_at => {
            Some((at, node, advance_micros))
        }
        _ => None,
    });
    let campaign_started_at = merged
        .iter()
        .find_map(|&(at, _, e)| {
            (at >= detected_at && matches!(e, Event::CampaignStarted { .. })).then_some(at)
        })
        .ok_or(TimelineError::NoCampaign)?;
    let (leader_elected_at, winner, winning_term) = merged
        .iter()
        .find_map(|&(at, node, e)| match e {
            Event::LeaderElected { term } if at >= campaign_started_at => {
                Some((at, node, term))
            }
            _ => None,
        })
        .ok_or(TimelineError::NoLeader)?;
    let first_commit_at = merged
        .iter()
        .find_map(|&(at, node, e)| match e {
            Event::FirstCommit { term, .. }
                if node == winner && term == winning_term && at >= leader_elected_at =>
            {
                Some(at)
            }
            _ => None,
        })
        .ok_or(TimelineError::NoFirstCommit)?;

    let mut candidates: Vec<u32> = Vec::new();
    let campaigns = merged
        .iter()
        .filter(|&&(at, node, e)| {
            let counted =
                at <= first_commit_at && matches!(e, Event::CampaignStarted { .. });
            if counted && !candidates.contains(&node) {
                candidates.push(node);
            }
            counted
        })
        .count() as u32;

    Ok(FailoverTimeline {
        leader_killed_at: killed_at_micros,
        hinted,
        detected_at,
        campaign_started_at,
        leader_elected_at,
        first_commit_at,
        winner,
        winning_term,
        campaigns,
        distinct_candidates: candidates.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(node: u32, events: &[(u64, Event)]) -> NodeEvents {
        NodeEvents {
            node,
            events: events
                .iter()
                .map(|&(at_micros, event)| TimedEvent { at_micros, event })
                .collect(),
        }
    }

    /// A clean one-campaign failover across three nodes.
    fn clean_failover() -> Vec<NodeEvents> {
        vec![
            stream(1, &[(1_000, Event::NodeKilled)]),
            stream(
                2,
                &[
                    (151_000, Event::ElectionTimeout { term: 1 }),
                    (151_000, Event::CampaignStarted { term: 4 }),
                    (155_000, Event::LeaderElected { term: 4 }),
                    (160_000, Event::FirstCommit { term: 4, index: 7 }),
                ],
            ),
            stream(3, &[(152_000, Event::SteppedDown { term: 4 })]),
        ]
    }

    #[test]
    fn reconstructs_phases_that_sum_to_total() {
        let t = reconstruct(1_000, &clean_failover()).expect("timeline");
        assert_eq!(t.detect_micros(), 150_000);
        assert_eq!(t.campaign_micros(), 0);
        assert_eq!(t.elect_micros(), 4_000);
        assert_eq!(t.commit_micros(), 5_000);
        let phase_sum: u64 = t.phases().iter().map(|&(_, d)| d).sum();
        assert_eq!(phase_sum, t.total_micros(), "phases must telescope");
        assert_eq!(t.winner, 2);
        assert_eq!(t.winning_term, 4);
        assert_eq!(t.campaigns, 1);
        assert_eq!(t.distinct_candidates, 1);
    }

    #[test]
    fn counts_competing_campaigns() {
        let mut streams = clean_failover();
        streams.push(stream(
            3,
            &[
                (153_000, Event::ElectionTimeout { term: 1 }),
                (153_000, Event::CampaignStarted { term: 3 }),
            ],
        ));
        let t = reconstruct(1_000, &streams).expect("timeline");
        assert_eq!(t.campaigns, 2);
        assert_eq!(t.distinct_candidates, 2);
        // The real winner is still found despite the loser's campaign.
        assert_eq!(t.winner, 2);
    }

    #[test]
    fn bounds_pass_and_fail_per_phase() {
        let t = reconstruct(1_000, &clean_failover()).expect("timeline");
        assert!(t.check_bounds(&PhaseBounds::reflex_200ms()).is_ok());
        let tight = PhaseBounds {
            detect_micros: 1_000, // 150ms detect must violate this
            ..PhaseBounds::reflex_200ms()
        };
        let err = t.check_bounds(&tight).expect_err("must violate");
        assert!(err.contains("detect"), "violation names the phase: {err}");
        assert!(!err.contains("elect took"), "passing phases stay silent");
    }

    #[test]
    fn missing_markers_are_typed_errors() {
        assert_eq!(
            reconstruct(1_000, &[stream(1, &[(1_000, Event::NodeKilled)])]),
            Err(TimelineError::NoDetection)
        );
        let no_commit = vec![stream(
            2,
            &[
                (151_000, Event::ElectionTimeout { term: 1 }),
                (151_000, Event::CampaignStarted { term: 4 }),
                (155_000, Event::LeaderElected { term: 4 }),
            ],
        )];
        assert_eq!(
            reconstruct(1_000, &no_commit),
            Err(TimelineError::NoFirstCommit)
        );
    }

    #[test]
    fn events_before_the_kill_are_ignored() {
        let mut streams = clean_failover();
        // A pre-kill campaign (e.g. the boot election) must not count.
        streams.push(stream(
            2,
            &[(500, Event::CampaignStarted { term: 2 })],
        ));
        let t = reconstruct(1_000, &streams).expect("timeline");
        assert_eq!(t.campaigns, 1);
    }

    /// Same-instant events on two nodes come out in node order whatever
    /// the stream order; one node's same-instant events keep their
    /// recording order, so a campaign won at the instant it began is one
    /// campaign with a zero elect phase.
    #[test]
    fn same_instant_events_merge_by_node_then_recording_order() {
        let streams = vec![
            stream(3, &[(5_000, Event::SteppedDown { term: 2 })]),
            stream(
                2,
                &[
                    (5_000, Event::ElectionTimeout { term: 1 }),
                    (5_000, Event::CampaignStarted { term: 2 }),
                    (5_000, Event::LeaderElected { term: 2 }),
                    (6_000, Event::FirstCommit { term: 2, index: 1 }),
                ],
            ),
        ];
        let order: Vec<(u32, &str)> = merge_events(0, &streams)
            .iter()
            .map(|&(_, node, event)| (node, event.name()))
            .collect();
        assert_eq!(
            order,
            vec![
                (2, "election_timeout"),
                (2, "campaign_started"),
                (2, "leader_elected"),
                (3, "stepped_down"),
                (2, "first_commit"),
            ]
        );
        let t = reconstruct(0, &streams).expect("timeline");
        assert_eq!((t.winner, t.campaigns), (2, 1));
        assert_eq!(t.elect_micros(), 0);
    }

    /// A hinted detection explains itself: the hint that moved the
    /// deadline is on the timeline, and rendered before the detection.
    #[test]
    fn a_hinted_detection_renders_its_hint() {
        let mut streams = clean_failover();
        streams.push(stream(
            2,
            &[(
                2_000,
                Event::FailureHinted {
                    term: 1,
                    advance_micros: 25_000,
                },
            )],
        ));
        let t = reconstruct(1_000, &streams).expect("timeline");
        assert_eq!(t.hinted, Some((2_000, 2, 25_000)));
        let text = t.render();
        let hint = text
            .find("hinted at=2000 node=2 advance=25000")
            .expect("hint line");
        assert!(hint < text.find("detected at=").expect("detection line"));
        // An unhinted failover renders no hint line.
        let plain = reconstruct(1_000, &clean_failover()).expect("timeline");
        assert_eq!(plain.hinted, None);
        assert!(!plain.render().contains("hinted"));
    }

    #[test]
    fn render_is_machine_readable() {
        let t = reconstruct(1_000, &clean_failover()).expect("timeline");
        let text = t.render();
        assert!(text.contains("leader_killed at=1000"));
        assert!(text.contains("leader_elected at=155000 node=2 term=4"));
        assert!(text.contains("campaigns=1"));
        assert!(text.contains("total=159000"));
    }
}
