//! Integration tests reproducing the paper's worked scenarios end-to-end:
//! Fig. 2 (Raft split vote), Fig. 5a/5b (PPF rearrangement and stale
//! configurations), Fig. 6 (concurrent ESCAPE campaigns), and the §V
//! correctness arguments that have executable form (Lemmas 1 and 2).

use escape::cluster::scenario::fig2_split_vote_protocol;
use escape::cluster::{measure_election, ClusterConfig, Protocol, SimCluster};
use escape::core::config::EscapeParams;
use escape::core::engine::{Action, Node, TimerKind};
use escape::core::message::Message;
use escape::core::policy::{EscapePolicy, RaftPolicy, ScriptedTimeouts};
use escape::core::time::{Duration, Time};
use escape::core::types::{ConfClock, Priority, ServerId, Term};
use escape::simnet::latency::LatencyModel;

fn ids(n: u32) -> Vec<ServerId> {
    (1..=n).map(ServerId::new).collect()
}

/// Fig. 2, measured end to end: the split costs a full extra timeout and
/// the observer classifies it as one competing-candidate phase.
#[test]
fn fig2_split_vote_costs_an_extra_timeout() {
    let mut config = ClusterConfig::paper_network(5, fig2_split_vote_protocol(), 3);
    config.latency = LatencyModel::Geo {
        group_of: vec![0, 0, 0, 1, 1],
        intra: (Duration::from_millis(100), Duration::from_millis(100)),
        inter: (Duration::from_millis(200), Duration::from_millis(200)),
    };
    let mut cluster = SimCluster::new(config);
    cluster.crash(ServerId::new(1)); // the t(1) leader of the example

    let winner = cluster
        .run_until_new_leader(Term::ZERO, Time::from_millis(10_000))
        .expect("S3 eventually wins");
    assert_eq!(winner, ServerId::new(3));

    let m = measure_election(
        &cluster.event_streams(),
        Time::ZERO,
        Duration::from_millis(200),
    )
    .expect("measured");
    assert_eq!(m.competing_phases, 1, "B/C collide once");
    assert_eq!(m.phases, 2, "the second timeout resolves it");
    assert_eq!(m.distinct_candidates, 2, "S3 and S4");
    // The split costs at least one extra timeout beyond the first detection.
    assert!(m.total() >= Duration::from_millis(2_500));
    assert!(cluster.safety().is_safe());
}

/// Fig. 5a: followers that fall behind in log replication lose their
/// high-priority configurations to up-to-date ones, and win them back
/// after catching up.
#[test]
fn fig5a_ppf_rearranges_by_log_responsiveness() {
    let config = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 11);
    let mut cluster = SimCluster::new(config);
    let leader = cluster.bootstrap(Duration::from_millis(1500));

    // Two followers fall behind in log replication: their inbound links
    // degrade (heartbeats still arrive — no election fires — but entries
    // arrive a second late).
    let followers: Vec<ServerId> = cluster.ids().into_iter().filter(|i| *i != leader).collect();
    let (behind, ahead) = followers.split_at(2);
    cluster.sim_mut().set_latency(LatencyModel::Degraded {
        base: Box::new(LatencyModel::paper_default()),
        links: behind.iter().map(|b| (leader, *b)).collect(),
        extra: Duration::from_millis(1000),
    });

    // Replicate a workload faster than the degraded links can carry. The
    // gap must exceed the PPF rank tolerance to count as "falling behind".
    for i in 0..(EscapePolicy::RANK_TOLERANCE * 3) {
        cluster
            .propose(bytes::Bytes::from(format!("entry-{i}")))
            .expect("leader accepts");
        cluster.run_for(Duration::from_millis(30));
    }
    // Let the demotion configurations (which travel on the degraded links
    // themselves) reach the stragglers: one degraded one-way trip plus a
    // couple of heartbeat rounds.
    cluster.run_for(Duration::from_millis(1_600));

    let priority = |cluster: &SimCluster, id: ServerId| {
        cluster
            .node(id)
            .current_config()
            .expect("escape nodes track configs")
            .priority
            .get()
    };
    let worst_ahead = ahead.iter().map(|a| priority(&cluster, *a)).min().unwrap();
    for b in behind {
        assert!(
            priority(&cluster, *b) < worst_ahead,
            "behind follower {b} must rank below every up-to-date one"
        );
    }

    // Heal; the stragglers catch up and regain standing (they tie on logs,
    // so they must at least climb above the permanent bottom slot).
    cluster.sim_mut().set_latency(LatencyModel::paper_default());
    cluster.run_for(Duration::from_millis(3_000));
    let bottom: u64 = 2; // lowest pool priority
    let climbed = behind
        .iter()
        .filter(|b| priority(&cluster, **b) > bottom)
        .count();
    assert!(
        climbed >= 1,
        "caught-up followers should regain priority standing"
    );
    assert!(cluster.safety().is_safe());
}

/// Fig. 5b: a server that recovers with a stale configuration clock cannot
/// disturb the next election — the freshly-configured follower wins, and
/// the stale one is refused.
#[test]
fn fig5b_stale_configuration_is_fenced_off() {
    let config = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 13);
    let mut cluster = SimCluster::new(config);
    let leader = cluster.bootstrap(Duration::from_millis(1500));
    cluster.run_for(Duration::from_millis(1000)); // let PPF settle

    // Find the follower holding the best configuration (P = n).
    let top_holder = cluster
        .ids()
        .into_iter()
        .filter(|i| *i != leader)
        .max_by_key(|i| cluster.node(*i).current_config().unwrap().priority)
        .unwrap();
    let stale_config = cluster.node(top_holder).current_config().unwrap();
    assert_eq!(stale_config.priority.get(), 5);

    // It crashes; PPF re-homes P=5 onto someone else over the next rounds.
    cluster.crash(top_holder);
    cluster.run_for(Duration::from_millis(1500));
    let new_holder = cluster
        .ids()
        .into_iter()
        .filter(|i| *i != leader && *i != top_holder)
        .find(|i| cluster.node(*i).current_config().unwrap().priority.get() == 5)
        .expect("P=5 re-homed to a live follower");

    // The crashed server recovers — with its old clock (Fig. 5b: "S4 will
    // have a stale configuration after recovery") — and the leader dies
    // before the recovered server can refresh.
    cluster.restart(top_holder);
    let recovered = cluster.node(top_holder).current_config().unwrap();
    assert_eq!(recovered, stale_config, "configuration persists across the crash");
    let term = cluster.node(leader).current_term();
    cluster.crash(leader);

    let winner = cluster
        .run_until_new_leader(term, cluster.now() + Duration::from_secs(30))
        .expect("fresh holder wins");
    assert_eq!(
        winner, new_holder,
        "the freshly-configured follower must win; the stale twin is refused"
    );
    assert_ne!(winner, top_holder);
    assert!(cluster.safety().is_safe());
}

/// Fig. 6: three simultaneous ESCAPE campaigns occupy different term
/// surfaces; the highest-priority, freshest candidate supersedes the rest
/// and the election converges in one phase.
#[test]
fn fig6_concurrent_campaigns_converge_in_one_phase() {
    // k = 0 forces every follower to time out together (the scenario
    // builder's maximal-contention configuration).
    let protocol = escape::cluster::scenario::competing_phases_protocol(
        "escape",
        3,
        ServerId::new(2),
    );
    let mut config = ClusterConfig::paper_network(5, protocol, 17);
    config.latency = LatencyModel::Constant(Duration::from_millis(150));
    let mut cluster = SimCluster::new(config);

    let winner = cluster
        .run_until_new_leader(Term::ZERO, Time::from_millis(10_000))
        .expect("one wave resolves");
    // All five fire together; S5's priority-5 campaign lands highest.
    assert_eq!(winner, ServerId::new(5));

    let m = measure_election(
        &cluster.event_streams(),
        Time::ZERO,
        Duration::from_millis(200),
    )
    .expect("measured");
    assert_eq!(m.phases, 1, "one phase despite full-cluster contention");
    assert!(m.distinct_candidates >= 3, "the contention was real");
    assert!(m.total() <= Duration::from_millis(2100));
    assert!(cluster.safety().is_safe());
}

/// Lemma 1: an ESCAPE election with priority `P` is `P` consecutive Raft
/// elections in a blackout window — both reach exactly term `t + P`.
#[test]
fn lemma1_escape_election_translates_to_raft_elections() {
    let cluster_ids = ids(5);
    let priority = 3u64;

    // The ESCAPE server: boot configuration P = 3 (server id 3).
    let params = EscapeParams::paper_defaults(5);
    let mut escape_node = Node::builder(cluster_ids[2], cluster_ids.clone())
        .policy(Box::new(EscapePolicy::new(cluster_ids[2], params)))
        .build();
    let mut now = Time::ZERO;
    let fire = |node: &mut Node, now: &mut Time| -> Vec<Action> {
        let actions = node.start(*now);
        let (token, deadline) = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, deadline }
                    if token.kind == TimerKind::Election =>
                {
                    Some((*token, *deadline))
                }
                _ => None,
            })
            .expect("election timer armed");
        *now = deadline;
        node.handle_timer(token, *now)
    };
    fire(&mut escape_node, &mut now);
    assert_eq!(escape_node.current_term(), Term::new(priority));

    // The Raft server: three consecutive timeouts in a blackout window.
    let mut raft_node = Node::builder(cluster_ids[2], cluster_ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            ScriptedTimeouts::new(vec![Duration::from_millis(1500)]),
        ))))
        .build();
    let mut raft_now = Time::ZERO;
    let mut actions = raft_node.start(raft_now);
    for _ in 0..priority {
        let (token, deadline) = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, deadline }
                    if token.kind == TimerKind::Election =>
                {
                    Some((*token, *deadline))
                }
                _ => None,
            })
            .expect("timer re-armed each campaign");
        raft_now = deadline;
        actions = raft_node.handle_timer(token, raft_now);
    }
    assert_eq!(
        raft_node.current_term(),
        escape_node.current_term(),
        "P Raft elections reach the same term as one ESCAPE election"
    );
}

/// Lemma 2: a voter cannot distinguish an ESCAPE solicitation from a Raft
/// one at the same term — identical grant decisions (modulo the extension
/// field, which stock-Raft voters ignore).
#[test]
fn lemma2_solicitations_are_indistinguishable_to_raft_voters() {
    let cluster_ids = ids(5);
    // Two identical Raft voters.
    let mk_voter = || {
        let mut v = Node::builder(cluster_ids[4], cluster_ids.clone())
            .policy(Box::new(RaftPolicy::randomized(
                Duration::from_millis(100_000),
                Duration::from_millis(200_000),
                9,
            )))
            .build();
        v.start(Time::ZERO);
        v
    };
    let mut voter_for_escape = mk_voter();
    let mut voter_for_raft = mk_voter();

    // One solicitation as ESCAPE would send it (conf clock attached), one
    // as Raft would (no clock), same term and log position.
    let escape_args = escape::core::message::RequestVoteArgs {
        term: Term::new(3),
        candidate_id: cluster_ids[2],
        last_log_index: escape::core::types::LogIndex::ZERO,
        last_log_term: Term::ZERO,
        conf_clock: Some(ConfClock::ZERO),
    };
    let raft_args = escape::core::message::RequestVoteArgs {
        conf_clock: None,
        ..escape_args
    };

    let grant = |voter: &mut Node, args| {
        let actions = voter.handle_message(
            cluster_ids[2],
            Message::RequestVote(args),
            Time::from_millis(1),
        );
        actions.iter().any(|a| {
            matches!(a, Action::Send { msg: Message::RequestVoteReply(r), .. } if r.vote_granted)
        })
    };
    assert_eq!(
        grant(&mut voter_for_escape, escape_args),
        grant(&mut voter_for_raft, raft_args),
        "identical decisions for identical campaigns"
    );
    assert_eq!(
        voter_for_escape.current_term(),
        voter_for_raft.current_term()
    );
}

/// The priority-1 leader invariant behind Theorem 3: once PPF runs, the
/// leader patrols on the retired priority and every live server's priority
/// is unique.
#[test]
fn theorem3_configuration_uniqueness_holds_under_operation() {
    let config = ClusterConfig::paper_network(7, Protocol::escape_paper_default(), 19);
    let mut cluster = SimCluster::new(config);
    let leader = cluster.bootstrap(Duration::from_millis(1500));
    cluster.run_for(Duration::from_millis(2000));

    let mut priorities: Vec<u64> = cluster
        .ids()
        .iter()
        .map(|id| cluster.node(*id).current_config().unwrap().priority.get())
        .collect();
    assert_eq!(
        cluster.node(leader).current_config().unwrap().priority,
        Priority::new(1),
        "leader patrols on the retired priority"
    );
    priorities.sort_unstable();
    assert_eq!(priorities, (1..=7).collect::<Vec<u64>>());
    assert!(cluster.safety().is_safe());
}
