//! Liveness properties from §V:
//!
//! * **Lemma 5** — with nonfaulty candidates, ESCAPE terminates leader
//!   election in a single campaign.
//! * **Theorem 4 (strong liveness)** — after `f` cascading failures of the
//!   best candidates, a leader still emerges within `f + 1` elections.
//! * Raft's weaker guarantee for contrast: it recovers too, but without a
//!   campaign bound.

use escape::cluster::{ClusterConfig, Protocol, SimCluster};
use escape::core::time::Duration;
use escape::core::types::ServerId;

/// Lemma 5 across many seeds: no ESCAPE election under normal operation
/// ever needs a second campaign.
#[test]
fn lemma5_single_campaign_across_seeds() {
    for seed in 0..25u64 {
        let config = ClusterConfig::paper_network(8, Protocol::escape_paper_default(), seed);
        let outcome = escape::cluster::run_leader_failure_trial(
            &escape::cluster::TrialConfig::election_only(config),
        );
        let m = outcome.measurement.expect("leader emerges");
        assert_eq!(
            m.campaigns, 1,
            "seed {seed}: ESCAPE needed {} campaigns",
            m.campaigns
        );
        assert!(outcome.safe);
    }
}

/// Theorem 4: crash the leader, then crash each new winner the moment it
/// takes office, `f` times in a row. Normal operation must resume after at
/// most `f + 1` elections — one per failed "best candidate" plus the final
/// survivor.
#[test]
fn theorem4_f_plus_one_elections_under_cascading_failures() {
    let n = 7;
    let f = 3; // tolerate f = ⌊n/2⌋ failures
    let config = ClusterConfig::paper_network(n, Protocol::escape_paper_default(), 29);
    let mut cluster = SimCluster::new(config);
    let mut crashed = Vec::new();

    let first = cluster.bootstrap(Duration::from_millis(1500));
    let mut leader = first;
    for round in 0..f {
        let term = cluster.node(leader).current_term();
        cluster.crash(leader);
        crashed.push(leader);
        let horizon = cluster.now() + Duration::from_secs(60);
        leader = cluster
            .run_until_new_leader(term, horizon)
            .unwrap_or_else(|| panic!("no recovery after cascade round {round}"));
    }

    // Count elections after the first crash: with each winner immediately
    // killed, each failure costs exactly one election — f+1 total including
    // the final stable one... but the first f crashes already consumed f of
    // them, so at most one more campaign may still be in flight.
    let events_after_first_crash = cluster
        .event_streams()
        .iter()
        .flat_map(|stream| &stream.events)
        .filter(|timed| matches!(timed.event, escape::obs::Event::LeaderElected { .. }))
        .count();
    // Boot election + f recovery elections.
    assert!(
        events_after_first_crash <= 1 + f + 1,
        "too many elections: {events_after_first_crash}"
    );

    // The survivor cluster (n - f nodes, still a majority) keeps working.
    cluster
        .propose(bytes::Bytes::from_static(b"still-alive"))
        .expect("survivor cluster accepts proposals");
    cluster.run_for(Duration::from_millis(1500));
    let commit = cluster.node(leader).commit_index();
    assert!(commit.get() > 0, "survivors must still commit");
    assert!(cluster.safety().is_safe());
}

/// After f failures *and recoveries*, the cluster reintegrates everyone:
/// recovered servers get fresh configurations and can win again later.
#[test]
fn recovered_servers_reintegrate_fully() {
    let config = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 31);
    let mut cluster = SimCluster::new(config);
    let first = cluster.bootstrap(Duration::from_millis(1500));

    // Crash and recover the leader twice.
    let mut previous = first;
    for _ in 0..2 {
        let term = cluster.node(previous).current_term();
        cluster.crash(previous);
        let horizon = cluster.now() + Duration::from_secs(60);
        let next = cluster
            .run_until_new_leader(term, horizon)
            .expect("recovery election");
        cluster.restart(previous);
        cluster.run_for(Duration::from_millis(2000));
        previous = next;
    }

    // Everyone alive, one leader, all configurations unique and fresh.
    let leaders: Vec<ServerId> = cluster
        .ids()
        .into_iter()
        .filter(|id| cluster.node(*id).is_leader())
        .collect();
    assert_eq!(leaders.len(), 1, "exactly one leader after the churn");
    let mut priorities: Vec<u64> = cluster
        .ids()
        .iter()
        .map(|id| cluster.node(*id).current_config().unwrap().priority.get())
        .collect();
    priorities.sort_unstable();
    priorities.dedup();
    assert_eq!(priorities.len(), 5, "no duplicate priorities after recovery");
    assert!(cluster.safety().is_safe());
}

/// Contrast: Raft also recovers from cascading failures (liveness), just
/// without ESCAPE's campaign bound — and the harness proves both.
#[test]
fn raft_recovers_from_cascading_failures_without_bound() {
    let config = ClusterConfig::paper_network(7, Protocol::raft_paper_default(), 37);
    let mut cluster = SimCluster::new(config);
    let mut leader = cluster.bootstrap(Duration::from_millis(1500));
    for _ in 0..3 {
        let term = cluster.node(leader).current_term();
        cluster.crash(leader);
        let horizon = cluster.now() + Duration::from_secs(120);
        leader = cluster
            .run_until_new_leader(term, horizon)
            .expect("raft eventually elects");
    }
    assert!(cluster.safety().is_safe());
}

/// The detection/election split honours the paper's measurement semantics:
/// detection ends at the *first* candidate, election at the winner.
#[test]
fn measurement_semantics_match_the_paper() {
    let config = ClusterConfig::paper_network(8, Protocol::escape_paper_default(), 41);
    let outcome = escape::cluster::run_leader_failure_trial(
        &escape::cluster::TrialConfig::election_only(config),
    );
    let m = outcome.measurement.expect("measured");
    assert_eq!(m.total(), m.detection() + m.election());
    // ESCAPE's best configuration has a 1500 ms timeout: detection can
    // never beat it, and with heartbeats every 150 ms it can lag at most
    // one interval plus delivery jitter.
    assert!(m.detection() >= Duration::from_millis(1200));
    assert!(m.detection() <= Duration::from_millis(1900));
    // Election is vote collection: one round trip at 100–200 ms per hop.
    assert!(m.election() >= Duration::from_millis(200));
    assert!(m.election() <= Duration::from_millis(600));
}
