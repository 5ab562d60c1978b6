//! The leader-failure trial: the atomic unit behind Figs. 3, 4, 9 and 11.
//!
//! One trial = bootstrap a cluster, optionally run a client workload, crash
//! the leader at a de-correlated instant, and measure the resulting
//! election. Experiments sweep trial parameters and aggregate with
//! [`crate::stats`].

use bytes::Bytes;

use escape_core::rand::Rng64;
use escape_core::time::{Duration, Time};
use escape_core::types::ServerId;

use crate::cluster::{ClusterConfig, SimCluster};
use crate::observer::{measure_election, ElectionMeasurement};

/// Tuning for one leader-failure trial.
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// The cluster under test.
    pub cluster: ClusterConfig,
    /// How long to let the elected leader settle before the crash (lets PPF
    /// distribute configurations; ≥ a few heartbeat intervals).
    pub settle: Duration,
    /// Client commands proposed (at `workload_interval`) between settle and
    /// crash; zero for pure election experiments. Under loss this is what
    /// makes follower logs diverge (§VI-D).
    pub workload_commands: usize,
    /// Spacing between workload proposals.
    pub workload_interval: Duration,
    /// Measurement horizon after the crash; a run without a new leader by
    /// then reports `None` (never happened in practice below 60 s).
    pub horizon: Duration,
    /// Warm-up crash/recovery cycles before the measured crash. The paper
    /// "repeatedly crashed the leader … for 1000 runs" with recovery in
    /// between, so by steady state the deposed leaders' configurations are
    /// back in circulation — this matters for Z-Raft, whose static
    /// top-priority configuration would otherwise leave the pool with the
    /// first crashed leader.
    pub warm_crashes: usize,
}

impl TrialConfig {
    /// A pure election trial (no workload) with sensible settle/horizon.
    pub fn election_only(cluster: ClusterConfig) -> Self {
        TrialConfig {
            cluster,
            settle: Duration::from_millis(1200),
            workload_commands: 0,
            workload_interval: Duration::from_millis(50),
            horizon: Duration::from_secs(120),
            warm_crashes: 0,
        }
    }

    /// A trial with a replication workload before the crash and one
    /// warm-up crash/recovery cycle (Fig. 11's steady-state methodology).
    pub fn with_workload(cluster: ClusterConfig, commands: usize) -> Self {
        TrialConfig {
            workload_commands: commands,
            warm_crashes: 1,
            ..TrialConfig::election_only(cluster)
        }
    }
}

/// The outcome of one trial.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// The crashed (old) leader.
    pub crashed_leader: ServerId,
    /// The measured election, or `None` if the horizon passed first.
    pub measurement: Option<ElectionMeasurement>,
    /// Messages the network carried during the whole trial.
    pub messages_sent: u64,
    /// Whether the safety checker stayed green.
    pub safe: bool,
}

/// Runs one leader-failure trial.
///
/// The crash instant is offset by a uniform draw in `[0, heartbeat)` from a
/// dedicated RNG stream so it de-correlates from the heartbeat phase — the
/// paper's repeated-crash loop achieves the same effect by accumulated
/// drift.
pub fn run_leader_failure_trial(config: &TrialConfig) -> TrialOutcome {
    let mut cluster = SimCluster::new(config.cluster.clone());
    let mut jitter_rng = cluster.sim_mut().fork_rng(0x00C0_FFEE);

    // Phase 1: bootstrap to a stable leader.
    cluster.bootstrap(config.settle);

    // Phase 1b: warm-up crash/recovery cycles — the deposed leader comes
    // back as a follower and its configuration re-enters circulation.
    for _ in 0..config.warm_crashes {
        let victim = match cluster.current_leader() {
            Some(l) => l,
            None => break,
        };
        let term = cluster.node(victim).current_term();
        cluster.crash(victim);
        let horizon = cluster.now() + Duration::from_secs(300);
        cluster
            .run_until_new_leader(term, horizon)
            .expect("warm-up crash must re-elect");
        cluster.restart(victim);
        let settle = cluster.now() + config.settle;
        cluster.run_until(settle);
    }

    // Phase 2: optional client workload.
    for i in 0..config.workload_commands {
        let payload = Bytes::from(format!("cmd-{i}").into_bytes());
        // Ignore NotLeader windows (leader may be re-electing under loss).
        let _ = cluster.propose(payload);
        let next = cluster.now() + config.workload_interval;
        cluster.run_until(next);
    }

    // Phase 3: crash the leader at a de-correlated instant.
    let hb = config.cluster.options.heartbeat_interval;
    let offset = Duration::from_micros(jitter_rng.gen_range(0, hb.as_micros().max(1)));
    let crash_at = cluster.now() + offset;
    cluster.run_until(crash_at);
    let crashed = match cluster.current_leader() {
        Some(leader) => {
            cluster.crash(leader);
            leader
        }
        None => {
            // Extremely lossy bootstrap can leave a leaderless instant; wait
            // for one and crash it then.
            let term = cluster
                .events()
                .iter()
                .rev()
                .find_map(|e| match e {
                    crate::cluster::ObservedEvent::Leader { term, .. } => Some(*term),
                    _ => None,
                })
                .unwrap_or(escape_core::types::Term::ZERO);
            let horizon = cluster.now() + Duration::from_secs(300);
            cluster
                .run_until_new_leader(term, horizon)
                .expect("no leader to crash");
            cluster.crash_leader()
        }
    };
    let crash_time: Time = cluster.now();

    // Phase 4: measure the recovery election.
    let term_at_crash = cluster.node(crashed).current_term();
    let deadline = crash_time + config.horizon;
    cluster.run_until_new_leader(term_at_crash, deadline);

    let window = cluster.sim_mut().latency().max_latency();
    let measurement = measure_election(cluster.events(), crash_time, window);

    if measurement.is_none() && std::env::var_os("ESCAPE_TRIAL_DEBUG").is_some() {
        eprintln!(
            "trial debug: crashed {crashed} (term {term_at_crash:?}) at {crash_time}, no successor by {deadline}"
        );
        for event in cluster.events().iter().rev().take(12).collect::<Vec<_>>().iter().rev() {
            eprintln!("  event {event:?}");
        }
        for id in cluster.ids() {
            let n = cluster.node(id);
            eprintln!(
                "  {id}: role={:?} term={} log={} voted={:?} cfg={:?} alive={}",
                n.role(),
                n.current_term(),
                n.log().last_index(),
                n.voted_for(),
                n.current_config().map(|c| (
                    c.priority.get(),
                    c.conf_clock.get(),
                    c.timer_period.as_millis()
                )),
                cluster.is_alive(id)
            );
        }
    }

    TrialOutcome {
        crashed_leader: crashed,
        measurement,
        messages_sent: cluster.net_stats().sent,
        safe: cluster.safety().is_safe(),
    }
}

/// Runs `runs` independent trials (seeds `base_seed..base_seed+runs`) and
/// collects the successful measurements.
pub fn run_trials(template: &TrialConfig, base_seed: u64, runs: usize) -> Vec<ElectionMeasurement> {
    let mut out = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut config = template.clone();
        config.cluster.seed = base_seed.wrapping_add(run as u64);
        let outcome = run_leader_failure_trial(&config);
        assert!(outcome.safe, "safety violation in trial {run}");
        if let Some(m) = outcome.measurement {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Protocol;

    fn quick(cluster: ClusterConfig) -> TrialConfig {
        TrialConfig {
            horizon: Duration::from_secs(60),
            ..TrialConfig::election_only(cluster)
        }
    }

    #[test]
    fn raft_trial_elects_a_replacement() {
        let cfg = quick(ClusterConfig::paper_network(
            5,
            Protocol::raft_paper_default(),
            11,
        ));
        let outcome = run_leader_failure_trial(&cfg);
        let m = outcome.measurement.expect("a new leader must emerge");
        assert_ne!(m.winner, outcome.crashed_leader);
        assert!(m.total() >= Duration::from_millis(500), "implausibly fast");
        assert!(outcome.safe);
    }

    #[test]
    fn escape_trial_resolves_in_one_campaign() {
        let cfg = quick(ClusterConfig::paper_network(
            5,
            Protocol::escape_paper_default(),
            13,
        ));
        let outcome = run_leader_failure_trial(&cfg);
        let m = outcome.measurement.expect("a new leader must emerge");
        // Lemma 5: nonfaulty candidates ⇒ single campaign.
        assert_eq!(m.campaigns, 1, "ESCAPE should not repeat campaigns");
        // §VI-B: every ESCAPE election completes within 2000 ms.
        assert!(
            m.total() <= Duration::from_millis(2100),
            "total {} exceeds the paper's bound",
            m.total()
        );
    }

    #[test]
    fn trials_are_reproducible_per_seed() {
        let cfg = quick(ClusterConfig::paper_network(
            5,
            Protocol::escape_paper_default(),
            21,
        ));
        let a = run_leader_failure_trial(&cfg);
        let b = run_leader_failure_trial(&cfg);
        assert_eq!(a.measurement, b.measurement);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    /// Pins the exact outcome of `sim-loss`-shaped trials (n = 50, 20 %
    /// broadcast omission, 30 commands, one warm-up crash), recorded
    /// before the engine's quorum statistics went incremental and before
    /// the simulator kept superseded timers out of its queue. Both were
    /// meant to leave the event stream untouched; any later change that
    /// reorders it — one extra RNG draw, one event popped in another
    /// order — moves these numbers. Instants are in µs.
    #[test]
    fn sim_loss_trials_replay_their_recorded_outcomes() {
        use escape_simnet::loss::LossModel;
        let recorded = [
            (Protocol::escape_paper_default(), 1,
             "sent 6668, crashed S2 at 7635239, candidate at 9319832, S7 leads term 150 at 9626841 after 1 campaigns"),
            (Protocol::escape_paper_default(), 5,
             "sent 6893, crashed S13 at 8174344, candidate at 9768745, S41 leads term 198 at 10077919 after 1 campaigns"),
            (Protocol::raft_paper_default(), 1,
             "sent 7466, crashed S12 at 7684803, candidate at 9250266, S31 leads term 3 at 9594743 after 4 campaigns"),
            (Protocol::raft_paper_default(), 2,
             "sent 10174, crashed S6 at 9108081, candidate at 10656989, S49 leads term 5 at 11110210 after 9 campaigns"),
            (Protocol::zraft_paper_default(), 3,
             "sent 6598, crashed S49 at 7840732, candidate at 9473958, S50 leads term 149 at 9788111 after 1 campaigns"),
        ];
        for (protocol, seed, expected) in recorded {
            let name = protocol.name();
            let mut cluster = ClusterConfig::paper_network(50, protocol, seed);
            cluster.loss = LossModel::BroadcastOmission(0.20);
            let outcome = run_leader_failure_trial(&TrialConfig::with_workload(cluster, 30));
            assert!(outcome.safe, "{name} seed {seed}");
            let m = outcome.measurement.expect("a successor is elected");
            let replayed = format!(
                "sent {}, crashed {} at {}, candidate at {}, {} leads term {} at {} after {} campaigns",
                outcome.messages_sent,
                outcome.crashed_leader,
                m.crash_at.as_micros(),
                m.first_candidate_at.as_micros(),
                m.winner,
                m.winning_term.get(),
                m.leader_at.as_micros(),
                m.campaigns,
            );
            assert_eq!(replayed, expected, "{name} seed {seed} left its recording");
        }
    }

    #[test]
    fn run_trials_aggregates() {
        let cfg = quick(ClusterConfig::paper_network(
            4,
            Protocol::escape_paper_default(),
            0,
        ));
        let ms = run_trials(&cfg, 100, 5);
        assert_eq!(ms.len(), 5);
    }
}
