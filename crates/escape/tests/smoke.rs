//! Workspace smoke test: the paper's headline claim, end-to-end.
//!
//! ESCAPE (Lemma 5) resolves a leader failure in exactly **one campaign**:
//! the prepared future leader with the shortest timeout campaigns first and
//! wins before any other timer fires. Stock Raft under forced timer
//! collisions does the opposite — every follower campaigns at once, the
//! vote splits, and extra campaign waves pile up before a leader emerges.
//!
//! This test drives the whole stack (engine + policies → simnet →
//! cluster harness → observer) through the facade crate exactly the way
//! `examples/quickstart.rs` does, so a regression anywhere in the
//! workspace surfaces here.

use escape::cluster::scenario::competing_phases_protocol;
use escape::cluster::{
    measure_election, ClusterConfig, Protocol, SimCluster, TrialConfig,
    run_leader_failure_trial,
};
use escape::core::time::{Duration, Time};
use escape::core::types::{ServerId, Term};

/// ESCAPE after a leader crash: detection, then exactly one campaign.
#[test]
fn escape_leader_failure_elects_in_one_campaign() {
    for seed in [3, 17, 4242] {
        let cluster =
            ClusterConfig::paper_network(5, Protocol::escape_paper_default(), seed);
        let outcome = run_leader_failure_trial(&TrialConfig::election_only(cluster));
        assert!(outcome.safe, "safety checker tripped (seed {seed})");
        let m = outcome
            .measurement
            .unwrap_or_else(|| panic!("no leader elected within horizon (seed {seed})"));
        assert_eq!(
            m.campaigns, 1,
            "Lemma 5: ESCAPE must elect in one campaign (seed {seed}, got {})",
            m.campaigns
        );
    }
}

/// Stock Raft with every follower's timer pinned to the same wave cadence:
/// the forced collision splits the vote, so the election needs more than
/// one campaign — the livelock ESCAPE exists to remove.
#[test]
fn raft_under_forced_timer_collisions_needs_extra_campaigns() {
    let forced_waves = 2;
    let winner = ServerId::new(2);
    let cfg = ClusterConfig::paper_network(
        5,
        competing_phases_protocol("raft", forced_waves, winner),
        7,
    );
    let mut cluster = SimCluster::new(cfg);
    cluster
        .run_until_new_leader(Term::ZERO, Time::from_millis(60_000))
        .expect("scripted collision scenario must eventually elect");
    assert!(cluster.safety().is_safe(), "safety violation during collisions");

    let m = measure_election(
        &cluster.event_streams(),
        Time::ZERO,
        Duration::from_millis(200),
    )
    .expect("leader event must be observable");
    assert!(
        m.campaigns > 1,
        "forced collisions must cost Raft extra campaigns, got {}",
        m.campaigns
    );
}
