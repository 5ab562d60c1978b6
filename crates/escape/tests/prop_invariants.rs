//! Property-based safety testing: random fault schedules against random
//! cluster configurations must never violate the §V safety arguments —
//! Election Safety, commit safety, log-prefix agreement, and Theorem 3's
//! configuration uniqueness.
//!
//! The schedule space deliberately includes pathological interleavings:
//! crashes during elections, restarts mid-replication, partitions that
//! isolate majorities, and message loss on top of everything.

use bytes::Bytes;
use proptest::prelude::*;

use escape::cluster::{ClusterConfig, Protocol, SimCluster};
use escape::core::time::Duration;
use escape::core::types::ServerId;
use escape::obs::Event;
use escape::simnet::latency::LatencyModel;
use escape::simnet::loss::LossModel;

/// One step of a random fault schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Run the cluster for this many milliseconds.
    Run(u64),
    /// Crash server (index modulo n).
    Crash(u8),
    /// Restart server (index modulo n).
    Restart(u8),
    /// Partition the cluster in two at this cut point.
    Split(u8),
    /// Heal all partitions.
    Heal,
    /// Propose a command through the current leader, if any.
    Propose,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (50u64..3000).prop_map(Step::Run),
        any::<u8>().prop_map(Step::Crash),
        any::<u8>().prop_map(Step::Restart),
        (1u8..7).prop_map(Step::Split),
        Just(Step::Heal),
        Just(Step::Propose),
    ]
}

fn arb_protocol() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("raft"), Just("zraft"), Just("escape")]
}

fn protocol_by_name(name: &str) -> Protocol {
    match name {
        "raft" => Protocol::raft_paper_default(),
        "zraft" => Protocol::zraft_paper_default(),
        "escape" => Protocol::escape_paper_default(),
        _ => unreachable!(),
    }
}

fn run_schedule(
    protocol: &str,
    n: usize,
    seed: u64,
    loss: f64,
    schedule: &[Step],
) -> SimCluster {
    let mut config = ClusterConfig::paper_network(n, protocol_by_name(protocol), seed);
    config.latency = LatencyModel::paper_default();
    if loss > 0.0 {
        config.loss = LossModel::BroadcastOmission(loss);
    }
    let mut cluster = SimCluster::new(config);
    let ids: Vec<ServerId> = cluster.ids();

    // Never crash below a majority: the property under test is safety
    // during *tolerable* fault patterns (f of 2f+1).
    let max_down = (n - 1) / 2;

    for step in schedule {
        match step {
            Step::Run(ms) => cluster.run_for(Duration::from_millis(*ms)),
            Step::Crash(raw) => {
                let id = ids[*raw as usize % n];
                let down = ids.iter().filter(|i| !cluster.is_alive(**i)).count();
                if cluster.is_alive(id) && down < max_down {
                    cluster.crash(id);
                }
            }
            Step::Restart(raw) => {
                let id = ids[*raw as usize % n];
                if !cluster.is_alive(id) {
                    cluster.restart(id);
                }
            }
            Step::Split(cut) => {
                let cut = 1 + (*cut as usize % (n - 1));
                let (a, b) = ids.split_at(cut);
                cluster
                    .sim_mut()
                    .partitions_mut()
                    .split(&[a.to_vec(), b.to_vec()]);
            }
            Step::Heal => cluster.sim_mut().partitions_mut().heal(),
            Step::Propose => {
                let _ = cluster.propose(Bytes::from_static(b"prop-test-command"));
            }
        }
    }
    // Heal and let the survivors converge before the final deep checks.
    cluster.sim_mut().partitions_mut().heal();
    cluster.run_for(Duration::from_secs(15));
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// The big one: arbitrary tolerable fault schedules preserve every
    /// tracked safety property, for all three protocols, with and without
    /// message loss.
    #[test]
    fn safety_holds_under_random_fault_schedules(
        protocol in arb_protocol(),
        n in prop_oneof![Just(3usize), Just(5), Just(7)],
        seed in any::<u64>(),
        lossy in any::<bool>(),
        schedule in proptest::collection::vec(arb_step(), 4..20),
    ) {
        let loss = if lossy { 0.2 } else { 0.0 };
        let cluster = run_schedule(protocol, n, seed, loss, &schedule);

        // Continuous checks accumulated during the run.
        prop_assert!(
            cluster.safety().is_safe(),
            "violations: {:?}",
            cluster.safety().violations()
        );

        // Deep end-of-run check: every pair of committed prefixes agrees,
        // entry by entry (the exhaustive variant of the runtime checker).
        let ids = cluster.ids();
        let mut all_entries_agree = true;
        'outer: for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                let (na, nb) = (cluster.node(*a), cluster.node(*b));
                let common = na.commit_index().min(nb.commit_index());
                let mut idx = escape::core::types::LogIndex::ZERO.next();
                while idx <= common {
                    let (ea, eb) = (na.log().entry(idx), nb.log().entry(idx));
                    match (ea, eb) {
                        (Some(x), Some(y)) if x.term == y.term && x.payload == y.payload => {}
                        _ => {
                            all_entries_agree = false;
                            break 'outer;
                        }
                    }
                    idx = idx.next();
                }
            }
        }
        prop_assert!(all_entries_agree, "committed prefixes diverged");
    }

    /// Theorem 3 as a property: after any tolerable schedule plus a healing
    /// period, live ESCAPE servers hold pairwise-distinct (priority, clock)
    /// configurations.
    #[test]
    fn escape_configuration_uniqueness_is_invariant(
        seed in any::<u64>(),
        schedule in proptest::collection::vec(arb_step(), 4..16),
    ) {
        let cluster = run_schedule("escape", 5, seed, 0.0, &schedule);
        let mut seen = std::collections::BTreeSet::new();
        for id in cluster.ids() {
            if !cluster.is_alive(id) {
                continue;
            }
            let c = cluster.node(id).current_config().expect("escape config");
            prop_assert!(
                seen.insert((c.priority.get(), c.conf_clock.get())),
                "duplicate configuration on {id}: {c:?}"
            );
        }
    }

    /// Terms never regress, on any node, under any schedule.
    #[test]
    fn terms_are_monotone(
        protocol in arb_protocol(),
        seed in any::<u64>(),
        schedule in proptest::collection::vec(arb_step(), 4..12),
    ) {
        let cluster = run_schedule(protocol, 5, seed, 0.0, &schedule);
        // The terms each node's ring records its campaigns, wins and
        // step-downs under must be non-decreasing.
        for stream in cluster.event_streams() {
            let mut last_term = 0;
            for timed in &stream.events {
                let term = match timed.event {
                    Event::CampaignStarted { term }
                    | Event::LeaderElected { term }
                    | Event::SteppedDown { term } => term,
                    _ => continue,
                };
                prop_assert!(
                    term >= last_term,
                    "S{} regressed from {last_term} to {term}",
                    stream.node
                );
                last_term = term;
            }
        }
    }
}
