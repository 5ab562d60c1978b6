//! The ESCAPE election policy: stochastic configuration assignment (SCA) and
//! the probing patrol function (PPF), §IV of the paper.
//!
//! * **SCA** (§IV-A): at boot, server `S_i` takes priority `P_i = i` and the
//!   Eq. 1 timeout; a campaign advances the term by the priority (Eq. 2), so
//!   concurrent campaigns scatter into different terms.
//! * **PPF** (§IV-B): the leader tracks each follower's log index through
//!   heartbeat replies and, every heartbeat round, re-assigns the
//!   configuration pool so that more up-to-date followers hold
//!   higher-priority (shorter-timeout) configurations. Every assignment is
//!   stamped with a fresh, monotonically increasing configuration clock;
//!   voters refuse candidates with stale clocks, which fences off servers
//!   that recovered with outdated configurations (Fig. 5b).
//!
//! ## Engineering decisions the paper leaves open
//!
//! * **The leader's own configuration** is shown as "NA/∞" in Fig. 5 (its
//!   election timer is suspended). We retire the winning configuration by
//!   moving the leader to priority `1` — the one priority PPF never hands to
//!   a follower (followers receive `2..=n`). This makes Theorem 3
//!   (configuration uniqueness among nonfaulty servers) hold by
//!   construction, and gives a deposed leader the *longest* timeout, so
//!   fresher servers campaign first.
//! * **Clock repair**: a new leader starts issuing clocks from the maximum
//!   clock it has *seen* (its own, plus any follower report), guaranteeing
//!   monotonicity even when the previous leader issued assignments the new
//!   leader never received.
//! * **Ranking ties** break by previous priority, then server id, keeping
//!   assignments stable across rounds so configurations do not oscillate
//!   between equally-responsive followers.
//! * **Silent followers** (no status for [`EscapePolicy::STALENESS_ROUNDS`]
//!   heartbeat rounds) rank below every responsive follower regardless of
//!   their last-known log index — this is what re-homes a crashed server's
//!   high-priority configuration in Fig. 5b.
//! * **Clock thrift.** The paper ties the clock to the heartbeat cadence
//!   ("increments monotonically with the number of heartbeats") but also
//!   says followers adopt a configuration only "if the received one is
//!   different". Issuing a fresh clock on *every* round would, under
//!   message loss, scatter followers across many clock values and make the
//!   §IV-B vote rule refuse perfectly good candidates. PPF therefore
//!   issues a new clock **only when the rearranged assignment differs**
//!   from the standing one, and otherwise re-sends the standing assignment
//!   (repairing followers that missed it, at no clock cost). To keep
//!   transient replication lag from churning the ranking, log indexes are
//!   compared in buckets of [`EscapePolicy::RANK_TOLERANCE`] entries; a
//!   genuinely stale server falls behind by much more than a bucket.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::config::{Configuration, EscapeParams};
use crate::message::{ConfigStatus, RequestVoteArgs};
use crate::policy::ElectionPolicy;
use crate::time::Duration;
use crate::types::{ConfClock, LogIndex, Priority, ServerId};

/// Leader-side record of one follower's last report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FollowerRecord {
    log_index: LogIndex,
    conf_clock: ConfClock,
    last_heard_round: u64,
}

/// Precomputed per-follower ranking key: responsive first, then most
/// up-to-date (bucketed), then sticky (previous priority), then id.
/// Built once per round so the sort comparator is a plain tuple compare.
type RankKey = (Reverse<bool>, Reverse<u64>, Reverse<u64>, ServerId);

/// Leader-side patrol state; exists only while this node leads.
///
/// Everything is a flat `Vec` keyed by *follower slot* (the follower's
/// position in the sorted `followers` vector): `begin_heartbeat_round`
/// runs on every heartbeat, so the per-round work must be one key-build
/// pass plus one sort of small `Copy` tuples — no map lookups inside the
/// comparator, no allocation after the first round.
#[derive(Clone, Debug)]
struct Patrol {
    /// The newest configuration clock this leader has issued or observed.
    issuing_clock: ConfClock,
    /// The clock stamped on the standing assignment (re-sends reuse it
    /// even if `issuing_clock` was since repaired upward).
    assigned_clock: ConfClock,
    /// Heartbeat round counter (local to this leadership).
    round: u64,
    /// All followers this leader patrols, sorted by id; the index into
    /// this vector is the follower's slot.
    followers: Vec<ServerId>,
    /// Latest status per follower slot.
    records: Vec<Option<FollowerRecord>>,
    /// The pool priority each follower slot currently holds.
    assignment: Vec<Option<Priority>>,
    /// Whether any assignment has been issued this leadership.
    has_assignment: bool,
    /// Whether any follower has reported yet.
    reports_seen: bool,
    /// Scratch ranking buffer, reused across rounds.
    order: Vec<(RankKey, u32)>,
}

impl Patrol {
    fn slot(&self, id: ServerId) -> Option<usize> {
        self.followers.binary_search(&id).ok()
    }
}

/// Read-only view of the patrol state for tests, traces, and invariant
/// checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatrolSnapshot {
    /// The newest configuration clock issued by this leader.
    pub issuing_clock: ConfClock,
    /// Completed heartbeat rounds in this leadership.
    pub round: u64,
    /// The configuration currently assigned to each follower.
    pub assignment: BTreeMap<ServerId, Configuration>,
}

/// The ESCAPE election policy (SCA + PPF).
///
/// # Examples
///
/// ```
/// use escape_core::config::EscapeParams;
/// use escape_core::policy::{ElectionPolicy, EscapePolicy};
/// use escape_core::types::ServerId;
///
/// let params = EscapeParams::paper_defaults(10);
/// let mut s10 = EscapePolicy::new(ServerId::new(10), params);
/// // SCA boot assignment: P = server id, timeout from Eq. 1.
/// assert_eq!(s10.term_increment(), 10);
/// assert_eq!(s10.election_timeout().as_millis(), 1500);
/// ```
#[derive(Debug)]
pub struct EscapePolicy {
    id: ServerId,
    params: EscapeParams,
    config: Configuration,
    patrol: Option<Patrol>,
    rank_tolerance: u64,
    clock_every_round: bool,
}

impl EscapePolicy {
    /// Heartbeat rounds of silence after which a follower is ranked below
    /// every responsive one.
    pub const STALENESS_ROUNDS: u64 = 2;

    /// Log-responsiveness comparison granularity: followers whose reported
    /// log indexes differ by less than this are considered equally
    /// responsive, so ordinary replication jitter does not trigger
    /// rearrangements (and fresh clocks) every round.
    pub const RANK_TOLERANCE: u64 = 8;

    /// Creates the policy for server `id` with SCA's boot configuration.
    pub fn new(id: ServerId, params: EscapeParams) -> Self {
        let config = params.initial_configuration(id);
        EscapePolicy {
            id,
            params,
            config,
            patrol: None,
            rank_tolerance: Self::RANK_TOLERANCE,
            clock_every_round: false,
        }
    }

    /// Overrides SCA's boot priority (default `P_i = i`).
    ///
    /// SCA's boot assignment is explicitly arbitrary — any permutation of
    /// `1..=n` across the servers satisfies §IV-A1 — so swapping which
    /// server starts with which priority changes no protocol property.
    /// The shard layer uses this to rotate boot priorities per consensus
    /// group, so different groups elect different initial leaders instead
    /// of stacking every group's leadership on the same server.
    ///
    /// Callers are responsible for keeping the assignment a permutation:
    /// two servers sharing a boot priority would share a timeout — and,
    /// at priority `n`, both would campaign from
    /// [`Node::start`](crate::engine::Node::start) when the cluster is
    /// fresh, since the server holding priority `n` is the prepared
    /// candidate that campaigns at boot instead of waiting out `baseTime`.
    #[must_use]
    pub fn with_boot_priority(mut self, priority: Priority) -> Self {
        self.config = self.params.configuration_for(priority, ConfClock::ZERO);
        self
    }

    /// Overrides the log-responsiveness comparison granularity
    /// (ablation knob; default [`EscapePolicy::RANK_TOLERANCE`]).
    /// Tolerance `0` is treated as exact (tolerance 1).
    #[must_use]
    pub fn with_rank_tolerance(mut self, tolerance: u64) -> Self {
        self.rank_tolerance = tolerance.max(1);
        self
    }

    /// Issues a fresh configuration clock on *every* heartbeat round, the
    /// literal reading of §IV-B, instead of only when the assignment
    /// changes (ablation knob; the `ablations` bench shows why the default
    /// is change-driven).
    #[must_use]
    pub fn with_clock_every_round(mut self, every_round: bool) -> Self {
        self.clock_every_round = every_round;
        self
    }

    /// The server this policy belongs to.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The Eq. 1 parameters in force.
    pub fn params(&self) -> EscapeParams {
        self.params
    }

    /// A snapshot of the patrol state, if this node currently leads.
    pub fn patrol_snapshot(&self) -> Option<PatrolSnapshot> {
        self.patrol.as_ref().map(|p| PatrolSnapshot {
            issuing_clock: p.issuing_clock,
            round: p.round,
            assignment: p
                .followers
                .iter()
                .zip(&p.assignment)
                .filter_map(|(id, pri)| {
                    pri.map(|pri| {
                        (*id, self.params.configuration_for(pri, p.assigned_clock))
                    })
                })
                .collect(),
        })
    }

    /// Ranks followers by responsiveness and rebuilds the assignment with a
    /// freshly incremented clock. Returns `true` if an assignment was
    /// issued.
    fn rearrange(&mut self) -> bool {
        let tolerance = self.rank_tolerance;
        let clock_every_round = self.clock_every_round;
        let n = self.params.cluster_size() as u64;
        let patrol = match &mut self.patrol {
            Some(p) => p,
            None => return false,
        };
        patrol.round += 1;
        if !patrol.reports_seen || patrol.followers.is_empty() {
            // Nothing reported yet: keep boot/stale configurations in place
            // rather than guessing an order (first round of a leadership).
            return false;
        }

        let round = patrol.round;
        // One pass to build the ranking keys, then a tuple sort: the
        // comparator itself does no lookups (this runs every heartbeat).
        patrol.order.clear();
        for (slot, id) in patrol.followers.iter().enumerate() {
            // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
            let rec = patrol.records[slot];
            let responsive = rec.is_some_and(|r| {
                round.saturating_sub(r.last_heard_round) <= Self::STALENESS_ROUNDS
            });
            // Bucketed responsiveness: ignore sub-tolerance jitter.
            let bucket = rec.map_or(0, |r| r.log_index.get() / tolerance);
            // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
            let prev_priority = patrol.assignment[slot].map_or(0, |p| p.get());
            patrol.order.push((
                (
                    Reverse(responsive),
                    Reverse(bucket),
                    Reverse(prev_priority),
                    *id,
                ),
                slot as u32,
            ));
        }
        patrol.order.sort_unstable();

        // The pool hands rank `r` priority `n − r` (descending from `n`
        // to `2`); ranks beyond the pool stay unassigned.
        let pool_len = (n - 1).min(patrol.followers.len() as u64) as usize;
        let pool_priority = |rank: usize| Priority::new(n - rank as u64);

        // Clock thrift: only a *changed* ranking earns a fresh clock; an
        // unchanged one re-sends the standing assignment so followers that
        // missed it can still catch up. (`clock_every_round` disables the
        // thrift for ablation.)
        let unchanged = patrol.has_assignment
            // lint:allow(panic): pool_len <= followers.len() == order.len() after rearrange
            && patrol.order[..pool_len].iter().enumerate().all(|(rank, &(_, slot))| {
                // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
                patrol.assignment[slot as usize] == Some(pool_priority(rank))
            });
        if unchanged && !clock_every_round {
            return false;
        }

        patrol.issuing_clock = patrol.issuing_clock.next();
        let clock = patrol.issuing_clock;
        patrol.assigned_clock = clock;
        patrol.assignment.fill(None);
        // lint:allow(panic): pool_len <= followers.len() == order.len() after rearrange
        for (rank, &(_, slot)) in patrol.order[..pool_len].iter().enumerate() {
            // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
            patrol.assignment[slot as usize] = Some(pool_priority(rank));
        }
        patrol.has_assignment = true;
        // The leader patrols with the retired priority-1 configuration,
        // restamped so its own clock stays current.
        self.config = self.params.configuration_for(Priority::new(1), clock);
        true
    }
}

impl ElectionPolicy for EscapePolicy {
    fn name(&self) -> &'static str {
        "escape"
    }

    fn election_timeout(&mut self) -> Duration {
        self.config.timer_period
    }

    fn term_increment(&self) -> u64 {
        self.config.priority.term_increment()
    }

    fn campaign_conf_clock(&self) -> Option<ConfClock> {
        Some(self.config.conf_clock)
    }

    /// §IV-B: "servers never vote for candidates whose configuration clock
    /// is stale" — the candidate's clock must be at least the voter's.
    fn candidate_admissible(&self, args: &RequestVoteArgs) -> bool {
        args.conf_clock.unwrap_or(ConfClock::ZERO) >= self.config.conf_clock
    }

    fn became_leader(&mut self, peers: &[ServerId]) {
        let issuing_clock = self.config.conf_clock;
        let mut followers = peers.to_vec();
        followers.sort_unstable();
        let n = followers.len();
        self.patrol = Some(Patrol {
            issuing_clock,
            assigned_clock: issuing_clock,
            round: 0,
            followers,
            records: vec![None; n],
            assignment: vec![None; n],
            has_assignment: false,
            reports_seen: false,
            order: Vec::with_capacity(n),
        });
        // Retire the winning configuration (Fig. 5's "NA/∞" leader row).
        self.config = self.params.configuration_for(Priority::new(1), issuing_clock);
    }

    fn stepped_down(&mut self) {
        self.patrol = None;
    }

    fn config_received(&mut self, config: Configuration) -> bool {
        if config.conf_clock > self.config.conf_clock {
            self.config = config;
            true
        } else {
            false
        }
    }

    fn report_status(&self, last_log_index: LogIndex) -> Option<ConfigStatus> {
        Some(ConfigStatus {
            log_index: last_log_index,
            timer_period: self.config.timer_period,
            conf_clock: self.config.conf_clock,
        })
    }

    fn follower_status(&mut self, from: ServerId, status: ConfigStatus) {
        if let Some(patrol) = &mut self.patrol {
            let Some(slot) = patrol.slot(from) else {
                return; // not a patrolled follower
            };
            // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
            patrol.records[slot] = Some(FollowerRecord {
                log_index: status.log_index,
                conf_clock: status.conf_clock,
                last_heard_round: patrol.round,
            });
            patrol.reports_seen = true;
            // Clock repair: never issue below a clock any follower has seen.
            if status.conf_clock > patrol.issuing_clock {
                patrol.issuing_clock = status.conf_clock;
            }
        }
    }

    fn begin_heartbeat_round(&mut self) -> bool {
        self.rearrange()
    }

    fn config_for(&mut self, follower: ServerId) -> Option<Configuration> {
        let patrol = self.patrol.as_ref()?;
        // lint:allow(panic): slot indexes the followers-parallel arrays (same length by construction)
        let priority = patrol.assignment[patrol.slot(follower)?]?;
        Some(self.params.configuration_for(priority, patrol.assigned_clock))
    }

    fn current_config(&self) -> Option<Configuration> {
        Some(self.config)
    }

    fn restore_config(&mut self, config: Configuration) {
        self.config = config;
    }

    fn timeout_floor(&self) -> Option<Duration> {
        // Eq. 1's floor is `baseTime` (the priority-n configuration the
        // patrol hands the freshest follower). The lease bound it implies
        // keeps the vote fence at or below the prepared leader's timeout,
        // so the PPF reflex promotion is never delayed by the fence — it
        // fires exactly when every possible lease has also expired.
        Some(self.params.base_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(id: u32, n: usize) -> EscapePolicy {
        EscapePolicy::new(ServerId::new(id), EscapeParams::paper_defaults(n))
    }

    fn status(log_index: u64, clock: u64) -> ConfigStatus {
        ConfigStatus {
            log_index: LogIndex::new(log_index),
            timer_period: Duration::from_millis(1500),
            conf_clock: ConfClock::new(clock),
        }
    }

    fn peers(range: std::ops::RangeInclusive<u32>, except: u32) -> Vec<ServerId> {
        range.filter(|&i| i != except).map(ServerId::new).collect()
    }

    #[test]
    fn sca_boot_assignment_uses_server_id() {
        let p = policy(3, 5);
        let c = p.current_config().unwrap();
        assert_eq!(c.priority.get(), 3);
        assert_eq!(c.conf_clock, ConfClock::ZERO);
        // Eq. 1: 1500 + 500·(5−3) = 2500 ms.
        assert_eq!(c.timer_period.as_millis(), 2500);
    }

    #[test]
    fn leader_retires_to_priority_one() {
        let mut p = policy(5, 5);
        assert_eq!(p.term_increment(), 5);
        p.became_leader(&peers(1..=5, 5));
        let c = p.current_config().unwrap();
        assert_eq!(c.priority.get(), 1);
        assert_eq!(p.term_increment(), 1);
        assert!(p.patrol_snapshot().is_some());
    }

    #[test]
    fn first_round_without_reports_issues_nothing() {
        let mut p = policy(5, 5);
        p.became_leader(&peers(1..=5, 5));
        assert!(!p.begin_heartbeat_round());
        assert_eq!(p.config_for(ServerId::new(1)), None);
    }

    #[test]
    fn ppf_assigns_highest_priority_to_most_up_to_date() {
        let mut p = policy(1, 5);
        p.became_leader(&peers(1..=5, 1));
        p.follower_status(ServerId::new(2), status(10, 0));
        p.follower_status(ServerId::new(3), status(30, 0));
        p.follower_status(ServerId::new(4), status(20, 0));
        p.follower_status(ServerId::new(5), status(5, 0));
        assert!(p.begin_heartbeat_round());

        let mut get = |id: u32| p.config_for(ServerId::new(id)).unwrap();
        assert_eq!(get(3).priority.get(), 5, "most up-to-date gets P=n");
        assert_eq!(get(4).priority.get(), 4);
        assert_eq!(get(2).priority.get(), 3);
        assert_eq!(get(5).priority.get(), 2);
        // All configurations in one assignment share the fresh clock.
        for id in 2..=5 {
            assert_eq!(get(id).conf_clock, ConfClock::new(1));
        }
        // And the best configuration's timeout is exactly baseTime (§VI-B).
        assert_eq!(get(3).timer_period.as_millis(), 1500);
    }

    #[test]
    fn clock_advances_only_on_material_rearrangement() {
        let mut p = policy(1, 4);
        p.became_leader(&peers(1..=4, 1));
        p.follower_status(ServerId::new(2), status(1, 0));
        p.follower_status(ServerId::new(3), status(1, 0));
        p.follower_status(ServerId::new(4), status(1, 0));
        assert!(p.begin_heartbeat_round(), "first assignment is a change");
        let k1 = p.patrol_snapshot().unwrap().issuing_clock;

        // Same reports again: the standing assignment is re-sent, no new
        // clock (clock thrift — see module docs).
        for id in 2..=4 {
            p.follower_status(ServerId::new(id), status(1, 1));
        }
        assert!(!p.begin_heartbeat_round());
        assert_eq!(p.patrol_snapshot().unwrap().issuing_clock, k1);

        // Sub-tolerance jitter: still no rearrangement.
        p.follower_status(ServerId::new(2), status(1, 1));
        p.follower_status(ServerId::new(3), status(1, 1));
        p.follower_status(ServerId::new(4), status(EscapePolicy::RANK_TOLERANCE - 1, 1));
        assert!(!p.begin_heartbeat_round());

        // A follower pulling ahead by more than the tolerance re-ranks and
        // earns a fresh clock.
        p.follower_status(ServerId::new(2), status(1, 1));
        p.follower_status(ServerId::new(3), status(1, 1));
        p.follower_status(ServerId::new(4), status(EscapePolicy::RANK_TOLERANCE * 5, 1));
        assert!(p.begin_heartbeat_round());
        let k2 = p.patrol_snapshot().unwrap().issuing_clock;
        assert_eq!(k2, k1.next());
        assert_eq!(
            p.config_for(ServerId::new(4)).unwrap().priority.get(),
            4,
            "the now-most-responsive follower takes the top configuration"
        );
    }

    #[test]
    fn ties_keep_previous_assignment_stable() {
        let mut p = policy(1, 5);
        p.became_leader(&peers(1..=5, 1));
        for id in 2..=5 {
            p.follower_status(ServerId::new(id), status(7, 0));
        }
        p.begin_heartbeat_round();
        let first: Vec<(ServerId, Priority)> = p
            .patrol_snapshot()
            .unwrap()
            .assignment
            .into_iter()
            .map(|(id, c)| (id, c.priority))
            .collect();
        // Same (tied) statuses again: assignment order must not oscillate.
        for id in 2..=5 {
            p.follower_status(ServerId::new(id), status(7, 1));
        }
        p.begin_heartbeat_round();
        let second: Vec<(ServerId, Priority)> = p
            .patrol_snapshot()
            .unwrap()
            .assignment
            .into_iter()
            .map(|(id, c)| (id, c.priority))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn silent_follower_loses_high_priority_configuration() {
        // Fig. 5b: a crashed follower's winning configuration is re-homed.
        let mut p = policy(1, 5);
        p.became_leader(&peers(1..=5, 1));
        // S2 is the most up-to-date and gets P=5.
        p.follower_status(ServerId::new(2), status(50, 0));
        p.follower_status(ServerId::new(3), status(10, 0));
        p.follower_status(ServerId::new(4), status(10, 0));
        p.follower_status(ServerId::new(5), status(10, 0));
        p.begin_heartbeat_round();
        assert_eq!(p.config_for(ServerId::new(2)).unwrap().priority.get(), 5);

        // S2 then goes silent for more than STALENESS_ROUNDS rounds while
        // the others keep reporting.
        for round in 0..(EscapePolicy::STALENESS_ROUNDS + 2) {
            for id in 3..=5 {
                p.follower_status(ServerId::new(id), status(10 + round, round));
            }
            p.begin_heartbeat_round();
        }
        let s2 = p.config_for(ServerId::new(2)).unwrap();
        assert_eq!(
            s2.priority.get(),
            2,
            "silent follower must sink to the lowest pool priority"
        );
    }

    #[test]
    fn config_received_adopts_only_newer_clocks() {
        let mut p = policy(2, 5);
        let newer = Configuration::new(
            Duration::from_millis(1500),
            Priority::new(5),
            ConfClock::new(3),
        );
        assert!(p.config_received(newer));
        assert_eq!(p.current_config().unwrap(), newer);
        // Same or older clock: refused.
        let stale = Configuration::new(
            Duration::from_millis(2000),
            Priority::new(4),
            ConfClock::new(3),
        );
        assert!(!p.config_received(stale));
        assert_eq!(p.current_config().unwrap(), newer);
    }

    #[test]
    fn vote_admissibility_enforces_clock_rule() {
        let mut p = policy(2, 5);
        p.config_received(Configuration::new(
            Duration::from_millis(1500),
            Priority::new(5),
            ConfClock::new(4),
        ));
        let args = |clock: Option<u64>| RequestVoteArgs {
            term: crate::types::Term::new(10),
            candidate_id: ServerId::new(3),
            last_log_index: LogIndex::ZERO,
            last_log_term: crate::types::Term::ZERO,
            conf_clock: clock.map(ConfClock::new),
        };
        assert!(p.candidate_admissible(&args(Some(4))));
        assert!(p.candidate_admissible(&args(Some(9))));
        assert!(!p.candidate_admissible(&args(Some(3))), "stale clock refused");
        assert!(!p.candidate_admissible(&args(None)), "clockless candidate refused");
    }

    #[test]
    fn report_status_reflects_current_config() {
        let p = policy(4, 8);
        let s = p.report_status(LogIndex::new(17)).unwrap();
        assert_eq!(s.log_index.get(), 17);
        assert_eq!(s.conf_clock, ConfClock::ZERO);
        assert_eq!(s.timer_period, p.current_config().unwrap().timer_period);
    }

    #[test]
    fn clock_repair_from_follower_reports() {
        // A new leader that never saw the old leader's assignments must not
        // issue clocks below what followers already hold.
        let mut p = policy(2, 5);
        p.became_leader(&peers(1..=5, 2));
        p.follower_status(ServerId::new(3), status(10, 9));
        p.follower_status(ServerId::new(4), status(10, 2));
        p.begin_heartbeat_round();
        let snap = p.patrol_snapshot().unwrap();
        assert!(
            snap.issuing_clock > ConfClock::new(9),
            "issuing clock {:?} must exceed the max observed clock",
            snap.issuing_clock
        );
    }

    #[test]
    fn stepping_down_clears_patrol() {
        let mut p = policy(3, 5);
        p.became_leader(&peers(1..=5, 3));
        assert!(p.patrol_snapshot().is_some());
        p.stepped_down();
        assert!(p.patrol_snapshot().is_none());
        assert_eq!(p.config_for(ServerId::new(2)), None);
    }

    /// Lemma 3: within one assignment (one clock), configurations are
    /// pairwise distinct.
    #[test]
    fn lemma3_no_duplicate_configs_in_one_clock() {
        let mut p = policy(1, 9);
        p.became_leader(&peers(1..=9, 1));
        for id in 2..=9 {
            p.follower_status(ServerId::new(id), status(id as u64 * 3, 0));
        }
        p.begin_heartbeat_round();
        let snap = p.patrol_snapshot().unwrap();
        let mut priorities: Vec<u64> = snap
            .assignment
            .values()
            .map(|c| c.priority.get())
            .collect();
        // Include the leader's own retired configuration.
        priorities.push(p.current_config().unwrap().priority.get());
        priorities.sort_unstable();
        let deduped_len = {
            let mut d = priorities.clone();
            d.dedup();
            d.len()
        };
        assert_eq!(deduped_len, priorities.len(), "duplicate priority issued");
        assert_eq!(priorities, (1..=9).collect::<Vec<u64>>());
    }
}
