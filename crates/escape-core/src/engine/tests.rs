//! Engine-level tests: drive a handful of [`Node`]s with a minimal
//! hand-rolled pump (instant delivery, manually fired timers) to check the
//! protocol logic in isolation from the simulator.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use super::*;
use crate::config::EscapeParams;
use crate::policy::{EscapePolicy, RaftPolicy, ScriptedTimeouts};
use crate::time::{Duration, Time};
use crate::types::{LogIndex, Priority, Role, ServerId, Term};

/// A minimal deterministic pump: instant message delivery, timers fired by
/// hand. Enough to unit-test protocol logic without the simulator crate
/// (which depends on this one).
struct Pump {
    nodes: BTreeMap<ServerId, Node>,
    inbox: VecDeque<(ServerId, ServerId, Message)>,
    timers: BTreeMap<ServerId, BTreeMap<TimerKind, (TimerToken, Time)>>,
    now: Time,
    crashed: Vec<ServerId>,
    /// `(node, batch)` of every read batch released, in order.
    released: Vec<(ServerId, u64)>,
}

impl Pump {
    fn new(nodes: Vec<Node>) -> Self {
        let mut pump = Pump {
            nodes: nodes.into_iter().map(|n| (n.id(), n)).collect(),
            inbox: VecDeque::new(),
            timers: BTreeMap::new(),
            now: Time::ZERO,
            crashed: Vec::new(),
            released: Vec::new(),
        };
        let ids: Vec<ServerId> = pump.nodes.keys().copied().collect();
        for id in ids {
            let now = pump.now;
            let actions = pump.nodes.get_mut(&id).unwrap().start(now);
            pump.absorb(id, actions);
        }
        pump
    }

    fn absorb(&mut self, from: ServerId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg, .. } => self.inbox.push_back((from, to, msg)),
                Action::SetTimer { token, deadline } => {
                    self.timers
                        .entry(from)
                        .or_default()
                        .insert(token.kind, (token, deadline));
                }
                Action::ReadReady { batch, .. } => self.released.push((from, batch)),
                _ => {}
            }
        }
    }

    /// Delivers every queued message (and those they trigger) instantly.
    fn settle(&mut self) {
        for _ in 0..100_000 {
            let Some((from, to, msg)) = self.inbox.pop_front() else {
                return;
            };
            if self.crashed.contains(&to) || self.crashed.contains(&from) {
                continue;
            }
            let now = self.now;
            let actions = self.nodes.get_mut(&to).unwrap().handle_message(from, msg, now);
            self.absorb(to, actions);
        }
        panic!("message storm: cluster failed to settle");
    }

    /// Fires `id`'s pending timer of `kind` (at its deadline) and settles.
    fn fire(&mut self, id: ServerId, kind: TimerKind) {
        let (token, deadline) = self.timers.get(&id).and_then(|m| m.get(&kind)).copied()
            .unwrap_or_else(|| panic!("{id} has no pending {kind:?} timer"));
        self.now = self.now.max(deadline);
        let now = self.now;
        let actions = self.nodes.get_mut(&id).unwrap().handle_timer(token, now);
        self.absorb(id, actions);
        self.settle();
    }

    fn node(&self, id: u32) -> &Node {
        &self.nodes[&ServerId::new(id)]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node {
        self.nodes.get_mut(&ServerId::new(id)).unwrap()
    }

    fn crash(&mut self, id: u32) {
        self.crashed.push(ServerId::new(id));
    }

    fn leader(&self) -> Option<ServerId> {
        self.nodes
            .values()
            .filter(|n| !self.crashed.contains(&n.id()) && n.is_leader())
            .map(|n| n.id())
            .next()
    }
}

fn raft_cluster(n: u32) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(RaftPolicy::randomized(
                    Duration::from_millis(150),
                    Duration::from_millis(300),
                    id.get() as u64,
                )))
                .build()
        })
        .collect();
    Pump::new(nodes)
}

fn escape_cluster(n: u32) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let params = EscapeParams::paper_defaults(n as usize);
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(EscapePolicy::new(*id, params)))
                .build()
        })
        .collect();
    Pump::new(nodes)
}

/// An ESCAPE cluster whose nodes all have history, so none campaigns from
/// [`Node::start`]: each recovers its SCA boot configuration restamped
/// with clock 1 (as a patrol that kept the boot order would leave it),
/// and nothing else — terms still start at 0.
fn escape_cluster_with_history(n: u32) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let params = EscapeParams::paper_defaults(n as usize);
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(EscapePolicy::new(*id, params)))
                .recover(boot_config_history(*id, params))
                .build()
        })
        .collect();
    Pump::new(nodes)
}

/// The recovered state of a node whose only history is its boot
/// configuration at clock 1.
fn boot_config_history(id: ServerId, params: EscapeParams) -> RecoveredState {
    RecoveredState {
        term: Term::ZERO,
        voted_for: None,
        log: Log::new(),
        config: Some(
            params
                .initial_configuration(id)
                .restamped(crate::types::ConfClock::new(1)),
        ),
        snapshot: None,
    }
}

#[test]
fn first_timeout_elects_a_leader() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(2), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(2)));
    assert_eq!(pump.node(2).role(), Role::Leader);
    assert_eq!(pump.node(1).role(), Role::Follower);
    assert_eq!(pump.node(3).role(), Role::Follower);
    // Everyone converged on the candidate's term.
    let t = pump.node(2).current_term();
    assert_eq!(pump.node(1).current_term(), t);
    assert_eq!(pump.node(3).current_term(), t);
}

#[test]
fn raft_term_advances_by_one_per_campaign() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    assert_eq!(pump.node(1).current_term(), Term::new(1));
}

#[test]
fn escape_term_advances_by_priority() {
    // With history, so S5 does not campaign at boot.
    let mut pump = escape_cluster_with_history(5);
    // S4 boots with priority 4 (SCA): term jumps by 4.
    pump.fire(ServerId::new(4), TimerKind::Election);
    assert_eq!(pump.node(4).current_term(), Term::new(4));
    assert_eq!(pump.leader(), Some(ServerId::new(4)));
}

#[test]
fn leader_replicates_and_commits_proposals() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    // Commit the leader's no-op first.
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);

    let now = pump.now;
    let (index, actions) = pump
        .node_mut(1)
        .propose(Bytes::from_static(b"cmd"), now)
        .expect("leader accepts proposals");
    pump.absorb(ServerId::new(1), actions);
    pump.settle();

    assert!(pump.node(1).commit_index() >= index);
    // Followers learn the commit on the next heartbeat.
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    assert!(pump.node(2).commit_index() >= index);
    assert!(pump.node(3).commit_index() >= index);
    assert_eq!(pump.node(2).log().last_index(), pump.node(1).log().last_index());
}

#[test]
fn followers_reject_proposals_with_leader_hint() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    let now = pump.now;
    let err = pump
        .node_mut(2)
        .propose(Bytes::from_static(b"x"), now)
        .unwrap_err();
    assert_eq!(
        err,
        ProposeError::NotLeader {
            hint: Some(ServerId::new(1))
        }
    );
    assert!(err.to_string().contains("S1"));
}

#[test]
fn dead_leader_is_replaced_and_usurper_steps_down_on_return() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.crash(1);
    pump.fire(ServerId::new(3), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(3)));
    assert!(pump.node(3).current_term() > pump.node(1).current_term());

    // S1 "recovers" (messages flow again): the next heartbeat demotes it.
    pump.crashed.clear();
    pump.fire(ServerId::new(3), TimerKind::Heartbeat);
    assert_eq!(pump.node(1).role(), Role::Follower);
    assert_eq!(pump.node(1).current_term(), pump.node(3).current_term());
}

#[test]
fn split_vote_scenario_of_fig2() {
    // Five servers; S3 and S4 time out simultaneously (scripted) and split
    // the votes 2–2 (plus their own); nobody wins until S3's second timeout.
    let ids: Vec<ServerId> = (1..=5).map(ServerId::new).collect();
    let mk = |id: u32, first: u64, second: u64| {
        Node::builder(ServerId::new(id), ids.clone())
            .policy(Box::new(RaftPolicy::with_source(Box::new(
                ScriptedTimeouts::new(vec![
                    Duration::from_millis(first),
                    Duration::from_millis(second),
                ]),
            ))))
            .build()
    };
    // S1 is the crashed leader (never campaigns: huge timeout).
    let nodes = vec![
        mk(1, 100_000, 100_000),
        mk(2, 9_000, 9_000),
        mk(3, 1_500, 1_000), // times out at B, retries at D (Fig. 2)
        mk(4, 1_500, 9_000), // times out at C, loses the retry race
        mk(5, 9_000, 9_000),
    ];
    let mut pump = Pump::new(nodes);
    pump.crash(1);

    // Both candidates campaign in term 1 — but deliver S3's solicitation to
    // S2 first and S4's to S5 first, so each candidate gets exactly one
    // extra vote: a split.
    let now = Time::from_millis(1_500);
    pump.now = now;
    let t3 = pump.timers[&ServerId::new(3)][&TimerKind::Election].0;
    let t4 = pump.timers[&ServerId::new(4)][&TimerKind::Election].0;
    let a3 = pump.node_mut(3).handle_timer(t3, now);
    let a4 = pump.node_mut(4).handle_timer(t4, now);
    // Interleave: S3→S2 before S4→S2, and S4→S5 before S3→S5.
    let order = |from: ServerId, acts: Vec<Action>, first_to: u32| {
        let mut head = Vec::new();
        let mut tail = Vec::new();
        for a in acts {
            match &a {
                Action::Send { to, .. } if to.get() == first_to => head.push(a),
                _ => tail.push(a),
            }
        }
        (from, head, tail)
    };
    let (f3, h3, t3rest) = order(ServerId::new(3), a3, 2);
    let (f4, h4, t4rest) = order(ServerId::new(4), a4, 5);
    pump.absorb(f3, h3);
    pump.absorb(f4, h4);
    pump.settle();
    pump.absorb(f3, t3rest);
    pump.absorb(f4, t4rest);
    pump.settle();

    // Split: no leader in term 1.
    assert_eq!(pump.leader(), None, "votes must have split");
    assert_eq!(pump.node(3).role(), Role::Candidate);
    assert_eq!(pump.node(4).role(), Role::Candidate);

    // S3's second timeout (point D) resolves the election in term 2.
    pump.fire(ServerId::new(3), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(3)));
    assert_eq!(pump.node(3).current_term(), Term::new(2));
    // S4 steps back to follower after the new leader's heartbeat.
    assert_eq!(pump.node(4).role(), Role::Follower);
}

#[test]
fn escape_concurrent_campaigns_resolve_in_one_round() {
    // The Fig. 6 situation: multiple candidates fire simultaneously, but
    // priority-scaled term growth puts them on different term surfaces.
    // With history, so S5 does not campaign at boot.
    let mut pump = escape_cluster_with_history(5);
    // Fire S2 and S3 back-to-back without settling in between.
    let now = Time::from_millis(3_000);
    pump.now = now;
    let t2 = pump.timers[&ServerId::new(2)][&TimerKind::Election].0;
    let t3 = pump.timers[&ServerId::new(3)][&TimerKind::Election].0;
    let a2 = pump.node_mut(2).handle_timer(t2, now);
    let a3 = pump.node_mut(3).handle_timer(t3, now);
    pump.absorb(ServerId::new(2), a2);
    pump.absorb(ServerId::new(3), a3);
    pump.settle();

    // S3 campaigns in term 3, S2 in term 2: S3 must win outright.
    assert_eq!(pump.leader(), Some(ServerId::new(3)));
    assert_eq!(pump.node(3).current_term(), Term::new(3));
    assert_eq!(pump.node(2).role(), Role::Follower);
}

#[test]
fn restart_preserves_persistent_state_and_resets_volatile() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    let now = pump.now;
    let (_, actions) = pump.node_mut(1).propose(Bytes::from_static(b"x"), now).unwrap();
    pump.absorb(ServerId::new(1), actions);
    pump.settle();

    let term_before = pump.node(2).current_term();
    let log_before = pump.node(2).log().last_index();
    let applied_before = pump.node(2).last_applied();

    let actions = pump.node_mut(2).restart(now);
    pump.absorb(ServerId::new(2), actions);

    let n2 = pump.node(2);
    assert_eq!(n2.current_term(), term_before, "term persists");
    assert_eq!(n2.log().last_index(), log_before, "log persists");
    assert_eq!(n2.role(), Role::Follower);
    assert_eq!(n2.leader_hint(), None);
    assert_eq!(n2.commit_index(), applied_before, "commit restarts at the applied snapshot");
}

#[test]
fn stale_timer_tokens_are_ignored() {
    let mut pump = raft_cluster(3);
    let stale = TimerToken {
        kind: TimerKind::Election,
        epoch: 0,
    };
    let now = pump.now;
    let actions = pump.node_mut(1).handle_timer(stale, now);
    assert!(actions.is_empty(), "epoch-0 token predates the armed timer");
    assert_eq!(pump.node(1).role(), Role::Follower);
}

#[test]
fn vote_is_granted_once_per_term() {
    let mut pump = raft_cluster(5);
    let args = |cand: u32| {
        Message::RequestVote(crate::message::RequestVoteArgs {
            term: Term::new(1),
            candidate_id: ServerId::new(cand),
            last_log_index: LogIndex::ZERO,
            last_log_term: Term::ZERO,
            conf_clock: None,
        })
    };
    let now = pump.now;
    let a = pump.node_mut(5).handle_message(ServerId::new(2), args(2), now);
    let granted = |acts: &[Action]| {
        acts.iter().any(|x| {
            matches!(
                x,
                Action::Send {
                    msg: Message::RequestVoteReply(r),
                    ..
                } if r.vote_granted
            )
        })
    };
    assert!(granted(&a));
    let b = pump.node_mut(5).handle_message(ServerId::new(3), args(3), now);
    assert!(!granted(&b), "second candidate in the same term must be refused");
    // But the same candidate asking again (retransmission) is re-granted.
    let c = pump.node_mut(5).handle_message(ServerId::new(2), args(2), now);
    assert!(granted(&c));
}

#[test]
fn candidate_with_stale_log_is_refused() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat); // commit no-op everywhere

    // S3's log now has the no-op; a candidate with an empty log loses rule 3.
    let now = pump.now;
    let actions = pump.node_mut(3).handle_message(
        ServerId::new(2),
        Message::RequestVote(crate::message::RequestVoteArgs {
            term: Term::new(99),
            candidate_id: ServerId::new(2),
            last_log_index: LogIndex::ZERO,
            last_log_term: Term::ZERO,
            conf_clock: None,
        }),
        now,
    );
    let refused = actions.iter().any(|x| {
        matches!(
            x,
            Action::Send {
                msg: Message::RequestVoteReply(r),
                ..
            } if !r.vote_granted
        )
    });
    assert!(refused);
    // Term still syncs per Eq. 3.
    assert_eq!(pump.node(3).current_term(), Term::new(99));
}

#[test]
fn escape_ppf_redistributes_configs_through_heartbeats() {
    let mut pump = escape_cluster(5);
    // S5 has the boot-best config and wins the first election.
    pump.fire(ServerId::new(5), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(5)));

    // Two heartbeat rounds: the first collects statuses, the second issues
    // the rearrangement and distributes it.
    pump.fire(ServerId::new(5), TimerKind::Heartbeat);
    pump.fire(ServerId::new(5), TimerKind::Heartbeat);
    pump.fire(ServerId::new(5), TimerKind::Heartbeat);

    // All followers now hold clock > 0 configs, pairwise distinct (Thm. 3).
    let mut priorities = Vec::new();
    for id in 1..=4 {
        let c = pump.node(id).current_config().expect("escape tracks configs");
        assert!(c.conf_clock > crate::types::ConfClock::ZERO, "S{id} not patrolled");
        priorities.push(c.priority.get());
    }
    priorities.sort_unstable();
    priorities.dedup();
    assert_eq!(priorities.len(), 4, "duplicate priorities among followers");
    // The leader patrols on the retired priority 1.
    assert_eq!(pump.node(5).current_config().unwrap().priority.get(), 1);
}

#[test]
fn single_node_cluster_self_elects_and_commits() {
    let ids = vec![ServerId::new(1)];
    let node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(10),
            Duration::from_millis(20),
            1,
        )))
        .build();
    let mut pump = Pump::new(vec![node]);
    pump.fire(ServerId::new(1), TimerKind::Election);
    assert!(pump.node(1).is_leader());
    let now = pump.now;
    let (index, actions) = pump.node_mut(1).propose(Bytes::from_static(b"solo"), now).unwrap();
    pump.absorb(ServerId::new(1), actions);
    pump.settle();
    assert!(pump.node(1).commit_index() >= index);
}

fn build_with_cluster(id: u32, cluster: &[u32]) -> Node {
    Node::builder(
        ServerId::new(id),
        cluster.iter().copied().map(ServerId::new).collect(),
    )
    .policy(Box::new(RaftPolicy::randomized(
        Duration::from_millis(10),
        Duration::from_millis(20),
        1,
    )))
    .build()
}

#[test]
#[should_panic(expected = "duplicate server id S3 in cluster")]
fn builder_rejects_a_duplicate_id() {
    build_with_cluster(1, &[3, 1, 2, 3]);
}

#[test]
#[should_panic(expected = "cluster must contain the node's own id S4")]
fn builder_rejects_a_cluster_without_its_own_id() {
    build_with_cluster(4, &[1, 2, 3]);
}

#[test]
fn heartbeats_carry_commit_index_to_followers() {
    let mut pump = raft_cluster(5);
    pump.fire(ServerId::new(2), TimerKind::Election);
    pump.fire(ServerId::new(2), TimerKind::Heartbeat);
    pump.fire(ServerId::new(2), TimerKind::Heartbeat);
    let commit = pump.node(2).commit_index();
    assert!(commit > LogIndex::ZERO, "leader no-op should commit");
    for id in [1, 3, 4, 5] {
        assert_eq!(pump.node(id).commit_index(), commit, "S{id} lags commit");
    }
}

#[test]
fn divergent_follower_log_is_repaired() {
    // Build a follower with a conflicting suffix, then let the leader
    // backtrack and overwrite it.
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);

    // Manually poison S3's log with entries from a bogus term.
    // (Simulates a suffix replicated by a deposed leader.)
    let bogus = crate::log::Entry {
        term: Term::new(50),
        index: LogIndex::new(2),
        payload: crate::log::Payload::Command(Bytes::from_static(b"ghost")),
    };
    // Reach in via try_append on the node's log — we use a scoped helper.
    // The entry extends S3's log past the leader's.
    {
        let node = pump.node_mut(3);
        let prev = node.log().last_position();
        // Term 50 > leader term, so craft entries that chain onto S3's log.
        let out = node.log_mut_for_tests().try_append(
            prev.index,
            prev.term,
            &[crate::log::Entry {
                index: prev.index.next(),
                ..bogus
            }],
        );
        assert!(matches!(out, crate::log::AppendOutcome::Appended { .. }));
    }
    let poisoned_len = pump.node(3).log().last_index();

    // Propose through the leader; replication must truncate the ghost.
    let now = pump.now;
    let (index, actions) = pump.node_mut(1).propose(Bytes::from_static(b"real"), now).unwrap();
    pump.absorb(ServerId::new(1), actions);
    pump.settle();
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);

    let n3 = pump.node(3);
    assert_eq!(n3.log().last_index(), pump.node(1).log().last_index());
    assert_ne!(n3.log().last_index(), poisoned_len.next());
    let repaired = n3.log().entry(index).unwrap();
    assert_eq!(repaired.payload.as_command().unwrap().as_ref(), b"real");
}

#[test]
fn metrics_count_elections_and_messages() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    let m = pump.node(1).metrics();
    assert_eq!(m.elections_started, 1);
    assert_eq!(m.elections_won, 1);
    assert_eq!(m.request_votes_sent, 2);
    assert!(m.append_entries_sent >= 2, "initial heartbeat fan-out");
    let m2 = pump.node(2).metrics();
    assert_eq!(m2.votes_granted, 1);
}

#[test]
fn vote_retry_resolicit_only_missing_voters() {
    // A candidate whose first solicitation was partially lost re-sends
    // only to peers that have not granted.
    let ids: Vec<ServerId> = (1..=5).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            crate::policy::ScriptedTimeouts::new(vec![Duration::from_millis(1000)]),
        ))))
        .build();
    let actions = node.start(Time::ZERO);
    let token = actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { token, .. } if token.kind == TimerKind::Election => Some(*token),
            _ => None,
        })
        .unwrap();
    let mut now = Time::from_millis(1000);
    let actions = node.handle_timer(token, now);
    let retry_token = actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { token, .. } if token.kind == TimerKind::VoteRetry => Some(*token),
            _ => None,
        })
        .expect("campaign arms the retry timer");

    // S2 grants; S3..S5 stay silent.
    now += Duration::from_millis(100);
    node.handle_message(
        ids[1],
        Message::RequestVoteReply(crate::message::RequestVoteReply {
            term: node.current_term(),
            vote_granted: true,
        }),
        now,
    );

    now += Duration::from_millis(400);
    let actions = node.handle_timer(retry_token, now);
    let resolicited: Vec<ServerId> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: Message::RequestVote(_),
                ..
            } => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(resolicited.len(), 3, "S2 already granted");
    assert!(!resolicited.contains(&ids[1]));
    assert_eq!(node.role(), Role::Candidate, "still campaigning");
}

#[test]
fn vote_retry_stops_after_outcome() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    assert!(pump.node(1).is_leader());
    // The retry timer armed during the campaign is now epoch-stale.
    let stale = TimerToken {
        kind: TimerKind::VoteRetry,
        epoch: 1,
    };
    let now = pump.now;
    let actions = pump.node_mut(1).handle_timer(stale, now);
    assert!(
        actions.is_empty(),
        "a leader must not re-solicit votes: {actions:?}"
    );
}

#[test]
fn deposed_leader_rejects_then_steps_down_cleanly() {
    let mut pump = raft_cluster(5);
    pump.fire(ServerId::new(1), TimerKind::Election);
    // Simulate a network where S1 is isolated while S2 takes over.
    pump.crash(1);
    pump.fire(ServerId::new(2), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(2)));
    pump.crashed.clear();

    // S1 (still believing it leads, lower term) heartbeats S3: S3 must
    // reject with its higher term, and that reply must demote S1.
    let now = pump.now;
    let stale_heartbeat = Message::AppendEntries(crate::message::AppendEntriesArgs {
        term: pump.node(1).current_term(),
        leader_id: ServerId::new(1),
        prev_log_index: LogIndex::ZERO,
        prev_log_term: Term::ZERO,
        entries: Vec::new(),
        leader_commit: LogIndex::ZERO,
        new_config: None,
        seq: 0,
    });
    let replies = pump
        .node_mut(3)
        .handle_message(ServerId::new(1), stale_heartbeat, now);
    let reply = replies
        .iter()
        .find_map(|a| match a {
            Action::Send {
                msg: Message::AppendEntriesReply(r),
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("rejection reply");
    assert!(!reply.success);
    assert!(reply.term > pump.node(1).current_term());

    let actions =
        pump.node_mut(1)
            .handle_message(ServerId::new(3), Message::AppendEntriesReply(reply), now);
    assert_eq!(pump.node(1).role(), Role::Follower, "higher term demotes");
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::BecameFollower { .. })));
}

#[test]
fn duplicate_vote_replies_do_not_double_count() {
    let ids: Vec<ServerId> = (1..=5).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(100),
            Duration::from_millis(200),
            3,
        )))
        .build();
    let actions = node.start(Time::ZERO);
    let token = actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { token, .. } => Some(*token),
            _ => None,
        })
        .unwrap();
    let now = Time::from_millis(500);
    node.handle_timer(token, now);
    let term = node.current_term();
    let grant = Message::RequestVoteReply(crate::message::RequestVoteReply {
        term,
        vote_granted: true,
    });
    // The same voter's grant arrives three times (retransmission echoes):
    // still only one vote — no quorum from S2 alone (needs 3 of 5).
    for _ in 0..3 {
        node.handle_message(ids[1], grant.clone(), now);
    }
    assert_eq!(node.role(), Role::Candidate, "2 distinct votes < quorum 3");
    // A second distinct voter completes the quorum.
    node.handle_message(ids[2], grant, now);
    assert_eq!(node.role(), Role::Leader);
}

#[test]
fn commit_is_capped_by_confirmed_prefix_not_stale_tail() {
    // A follower with a stale uncommitted tail must not commit it when the
    // leader's commit index races ahead of the matched prefix.
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);

    // Poison S3 with two stale entries beyond the shared prefix.
    {
        let node = pump.node_mut(3);
        let prev = node.log().last_position();
        node.log_mut_for_tests().try_append(
            prev.index,
            prev.term,
            &[
                crate::log::Entry {
                    term: Term::new(77),
                    index: prev.index.next(),
                    payload: crate::log::Payload::Noop,
                },
                crate::log::Entry {
                    term: Term::new(77),
                    index: prev.index.next().next(),
                    payload: crate::log::Payload::Noop,
                },
            ],
        );
    }
    let shared = pump.node(1).log().last_index();
    // Heartbeat carrying leader_commit = shared: S3 must commit only the
    // confirmed prefix, never the term-77 ghosts.
    let now = pump.now;
    let hb = Message::AppendEntries(crate::message::AppendEntriesArgs {
        term: pump.node(1).current_term(),
        leader_id: ServerId::new(1),
        prev_log_index: shared,
        prev_log_term: pump.node(1).log().last_term(),
        entries: Vec::new(),
        leader_commit: shared,
        new_config: None,
        seq: 0,
    });
    pump.node_mut(3).handle_message(ServerId::new(1), hb, now);
    assert_eq!(pump.node(3).commit_index(), shared);
    assert!(pump.node(3).log().last_index() > shared, "ghosts still present");
}

#[test]
fn restart_mid_campaign_resumes_as_follower() {
    let mut pump = raft_cluster(3);
    pump.crash(1);
    pump.crash(3);
    // S2 campaigns into the void.
    pump.fire(ServerId::new(2), TimerKind::Election);
    assert_eq!(pump.node(2).role(), Role::Candidate);
    let term = pump.node(2).current_term();

    let now = pump.now;
    let actions = pump.node_mut(2).restart(now);
    assert_eq!(pump.node(2).role(), Role::Follower);
    assert_eq!(pump.node(2).current_term(), term, "term persists");
    assert_eq!(pump.node(2).voted_for(), Some(ServerId::new(2)), "vote persists");
    assert!(
        actions.iter().any(|a| matches!(
            a,
            Action::SetTimer { token, .. } if token.kind == TimerKind::Election
        )),
        "restart re-arms the failure detector"
    );
}

#[test]
fn heartbeat_to_deposed_candidate_includes_catchup_entries() {
    // A candidate that loses must receive the entries it missed while
    // campaigning, in the same AppendEntries stream.
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    let now = pump.now;
    let (index, actions) = pump
        .node_mut(1)
        .propose(Bytes::from_static(b"while-campaigning"), now)
        .unwrap();
    pump.absorb(ServerId::new(1), actions);
    pump.settle();
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    for id in [2u32, 3] {
        assert!(
            pump.node(id).log().last_index() >= index,
            "S{id} missing the proposed entry"
        );
        assert_eq!(pump.node(id).commit_index(), pump.node(1).commit_index());
    }
}

/// A storage mock that records the order of persist/sync calls, for
/// asserting the write-ahead discipline without real I/O.
#[derive(Debug, Default)]
struct TracingStorage {
    calls: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
}

// SAFETY: the engine requires `Send`; the Rc never actually crosses
// threads in these single-threaded tests.
#[allow(unsafe_code)]
unsafe impl Send for TracingStorage {}

impl crate::storage::Storage for TracingStorage {
    fn persist_hard_state(
        &mut self,
        term: Term,
        voted_for: Option<ServerId>,
    ) -> std::io::Result<()> {
        self.calls
            .borrow_mut()
            .push(format!("hard_state t={} v={voted_for:?}", term.get()));
        Ok(())
    }

    fn persist_entry(&mut self, entry: &crate::log::Entry) -> std::io::Result<()> {
        self.calls
            .borrow_mut()
            .push(format!("entry i={}", entry.index.get()));
        Ok(())
    }

    fn persist_entries(&mut self, entries: &[crate::log::Entry]) -> std::io::Result<()> {
        self.calls.borrow_mut().push(format!(
            "entries n={} first={}",
            entries.len(),
            entries.first().map_or(0, |e| e.index.get())
        ));
        Ok(())
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        _prev_term: Term,
        entries: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        self.calls
            .borrow_mut()
            .push(format!("appended prev={} n={}", prev_index.get(), entries.len()));
        Ok(())
    }

    fn persist_config(&mut self, config: crate::config::Configuration) -> std::io::Result<()> {
        self.calls
            .borrow_mut()
            .push(format!("config k={}", config.conf_clock.get()));
        Ok(())
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        _term: Term,
        _data: &Bytes,
        tail: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        self.calls
            .borrow_mut()
            .push(format!("snapshot i={} tail={}", index.get(), tail.len()));
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.calls.borrow_mut().push("sync".to_string());
        Ok(())
    }
}

/// Every persistent-state mutation must be recorded and synced before the
/// entry point returns its actions — the invariant real WAL durability
/// rides on.
#[test]
fn storage_is_written_and_synced_before_actions_return() {
    let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(150),
            Duration::from_millis(300),
            7,
        )))
        .storage(Box::new(TracingStorage {
            calls: calls.clone(),
        }))
        .build();

    // A vote grant persists hard state, then syncs, before the reply
    // action exists for the runtime to transmit.
    let actions = node.start(Time::ZERO);
    assert!(calls.borrow().is_empty(), "start touches no persistent state");
    drop(actions);
    let msg = crate::message::Message::RequestVote(crate::message::RequestVoteArgs {
        term: Term::new(4),
        candidate_id: ids[1],
        last_log_index: LogIndex::ZERO,
        last_log_term: Term::ZERO,
        conf_clock: None,
    });
    node.handle_message(ids[1], msg, Time::ZERO);
    {
        let seen = calls.borrow();
        // Higher term adoption, then the grant, then exactly one sync.
        assert_eq!(
            *seen,
            vec![
                "hard_state t=4 v=None".to_string(),
                "hard_state t=4 v=Some(ServerId(2))".to_string(),
                "sync".to_string(),
            ]
        );
    }

    // A campaign persists term+self-vote before the solicitations.
    calls.borrow_mut().clear();
    let timer = TimerToken {
        kind: TimerKind::Election,
        epoch: 2, // re-armed once by the vote grant
    };
    node.handle_timer(timer, Time::ZERO);
    {
        let seen = calls.borrow();
        assert_eq!(seen.first().map(String::as_str), Some("hard_state t=5 v=Some(ServerId(1))"));
        assert_eq!(seen.last().map(String::as_str), Some("sync"));
    }
}

/// Follower log mutations are recorded via the replayable
/// `persist_appended` form, and pure duplicate retransmissions are not
/// re-recorded.
#[test]
fn follower_appends_persist_only_real_changes() {
    let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[1], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(150),
            Duration::from_millis(300),
            7,
        )))
        .storage(Box::new(TracingStorage {
            calls: calls.clone(),
        }))
        .build();
    node.start(Time::ZERO);

    let entries = vec![crate::log::Entry {
        term: Term::new(1),
        index: LogIndex::new(1),
        payload: crate::log::Payload::Command(Bytes::from_static(b"a")),
    }];
    let append = |entries: Vec<crate::log::Entry>| {
        crate::message::Message::AppendEntries(crate::message::AppendEntriesArgs {
            term: Term::new(1),
            leader_id: ids[0],
            prev_log_index: LogIndex::ZERO,
            prev_log_term: Term::ZERO,
            entries,
            leader_commit: LogIndex::ZERO,
            new_config: None,
            seq: 0,
        })
    };

    node.handle_message(ids[0], append(entries.clone()), Time::ZERO);
    assert!(
        calls.borrow().iter().any(|c| c == "appended prev=0 n=1"),
        "first delivery must persist: {:?}",
        calls.borrow()
    );

    calls.borrow_mut().clear();
    node.handle_message(ids[0], append(entries), Time::ZERO);
    assert!(
        calls.borrow().iter().all(|c| !c.starts_with("appended")),
        "duplicate redelivery must not re-persist: {:?}",
        calls.borrow()
    );
}

// ---- batched + pipelined replication ----

/// Builds a 3-node cluster with node 1 as leader, with explicit options,
/// without delivering anything to peers (their acks are hand-fed), so the
/// pipeline window is observable.
fn undelivered_leader(options: Options) -> (Node, Vec<ServerId>) {
    undelivered_leader_on(options, Box::new(NullStorage))
}

fn undelivered_leader_on(options: Options, storage: Box<dyn Storage>) -> (Node, Vec<ServerId>) {
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            ScriptedTimeouts::new(vec![Duration::from_millis(1000)]),
        ))))
        .options(options)
        .storage(storage)
        .build();
    node.start(Time::ZERO);
    let token = TimerToken {
        kind: TimerKind::Election,
        epoch: 1,
    };
    node.handle_timer(token, Time::from_millis(1000));
    for peer in [ids[1], ids[2]] {
        node.handle_message(
            peer,
            Message::RequestVoteReply(crate::message::RequestVoteReply {
                term: node.current_term(),
                vote_granted: true,
            }),
            Time::from_millis(1000),
        );
    }
    assert!(node.is_leader());
    (node, ids)
}

fn appends_to(actions: &[Action], to: ServerId) -> Vec<&crate::message::AppendEntriesArgs> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to: dest,
                msg: Message::AppendEntries(args),
                ..
            } if *dest == to => Some(args),
            _ => None,
        })
        .collect()
}

#[test]
fn propose_batch_coalesces_into_one_window_per_peer() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat); // commit the no-op

    let now = pump.now;
    let commands: Vec<Bytes> = (0..5)
        .map(|i| Bytes::from(format!("batch-cmd-{i}")))
        .collect();
    let (indexes, actions) = pump
        .node_mut(1)
        .propose_batch(commands, now)
        .expect("leader accepts the batch");
    assert_eq!(indexes.len(), 5);
    for pair in indexes.windows(2) {
        assert_eq!(pair[1], pair[0].next(), "batch indexes must be consecutive");
    }
    // One entry-carrying AppendEntries per peer — not five.
    for peer in [2u32, 3] {
        let appends = appends_to(&actions, ServerId::new(peer));
        assert_eq!(appends.len(), 1, "S{peer} must get one coalesced window");
        assert_eq!(appends[0].entries.len(), 5);
    }

    pump.absorb(ServerId::new(1), actions);
    pump.settle();
    assert!(pump.node(1).commit_index() >= *indexes.last().unwrap());
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);
    for id in [2u32, 3] {
        assert!(pump.node(id).commit_index() >= *indexes.last().unwrap());
        assert_eq!(
            pump.node(id).log().last_index(),
            pump.node(1).log().last_index()
        );
    }
    // Metrics observed the batch.
    let m = pump.node(1).metrics();
    assert_eq!(m.propose_batches, 1);
    assert_eq!(m.commands_proposed, 5);
    assert!(m.commits_timed >= 5, "committed proposals must be timed");
}

#[test]
fn empty_propose_batch_is_a_leader_noop() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    let now = pump.now;
    let (indexes, actions) = pump.node_mut(1).propose_batch(Vec::new(), now).unwrap();
    assert!(indexes.is_empty());
    assert!(actions.is_empty());
    let err = pump
        .node_mut(2)
        .propose_batch(vec![Bytes::from_static(b"x")], now)
        .unwrap_err();
    assert!(matches!(err, ProposeError::NotLeader { .. }));
}

/// The pipeline sends ahead of acks up to `max_inflight_appends` windows,
/// stalls at the cap, and each ack tops it back up — instead of one
/// round-trip per window.
#[test]
fn replication_pipelines_up_to_the_inflight_cap() {
    let (mut node, ids) = undelivered_leader(Options {
        max_entries_per_append: 1,
        max_inflight_appends: 2,
        vote_retry_interval: None,
        ..Options::default()
    });
    let peer = ids[1];
    let now = Time::from_millis(1001);

    // Becoming leader already shipped the no-op window (credit 1 of 2).
    // The first propose pipelines a second window ahead of any ack…
    let (_, actions) = node.propose(Bytes::from_static(b"c1"), now).unwrap();
    assert_eq!(appends_to(&actions, peer).len(), 1, "window 2 of 2 sent");
    // …and the next two proposes find the pipeline full: appended and
    // persisted, but nothing sent to this peer yet.
    let (_, actions) = node.propose(Bytes::from_static(b"c2"), now).unwrap();
    assert!(appends_to(&actions, peer).is_empty(), "credit exhausted");
    let (i3, actions) = node.propose(Bytes::from_static(b"c3"), now).unwrap();
    assert!(appends_to(&actions, peer).is_empty(), "still exhausted");

    // One ack (for the no-op window) returns one credit: exactly one
    // backlog window ships, carrying the oldest unsent entry.
    let ack = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: LogIndex::new(1),
        status: None,
        seq: 0,
    });
    let actions = node.handle_message(peer, ack, now);
    let appends = appends_to(&actions, peer);
    assert_eq!(appends.len(), 1, "one ack buys one window");
    assert_eq!(appends[0].entries.len(), 1);
    assert_eq!(appends[0].entries[0].index, LogIndex::new(3), "oldest unsent");

    // An ack confirming everything so far drains the rest of the backlog
    // within the restored credit.
    let ack = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: LogIndex::new(3),
        status: None,
        seq: 0,
    });
    let actions = node.handle_message(peer, ack, now);
    let appends = appends_to(&actions, peer);
    assert_eq!(appends.len(), 1);
    assert_eq!(appends[0].entries[0].index, i3);
}

/// A rejection voids the optimistic pipeline: `next_index` walks back
/// to the follower's hint, the in-flight credit is reclaimed, and the
/// backlog is re-sent from there at once (fast repair; see the
/// trade-off note in `on_append_entries_reply`).
#[test]
fn rejection_backtracks_and_resends_the_backlog() {
    let (mut node, ids) = undelivered_leader(Options {
        max_entries_per_append: 8,
        max_inflight_appends: 4,
        vote_retry_interval: None,
        ..Options::default()
    });
    let peer = ids[1];
    let now = Time::from_millis(1001);
    for c in [&b"c1"[..], b"c2", b"c3"] {
        node.propose(Bytes::copy_from_slice(c), now).unwrap();
    }

    // The follower rejects (it diverged): match_hint names its tail.
    let nack = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: false,
        match_hint: LogIndex::ZERO,
        status: None,
        seq: 0,
    });
    let actions = node.handle_message(peer, nack, now);
    let appends = appends_to(&actions, peer);
    assert_eq!(appends.len(), 1, "backtracked re-send");
    assert_eq!(appends[0].prev_log_index, LogIndex::ZERO, "re-anchored at the hint");
    assert_eq!(appends[0].entries.len(), 4, "no-op + 3 commands re-shipped");
}

/// The transport's dropped-frame report clamps a peer's pipelining
/// window to 1 (instead of blindly topping up credit into a shedding
/// link), and each clean ack widens it back additively toward the cap.
#[test]
fn backpressure_clamps_the_window_and_acks_recover_it() {
    let (mut node, ids) = undelivered_leader(Options {
        max_entries_per_append: 1,
        max_inflight_appends: 4,
        vote_retry_interval: None,
        ..Options::default()
    });
    let peer = ids[1];
    let now = Time::from_millis(1001);

    node.note_backpressure(peer);
    assert_eq!(node.metrics().backpressure_resets, 1);
    // A re-report while already clamped neither double-counts nor zeroes
    // additive recovery progress.
    node.note_backpressure(peer);
    assert_eq!(node.metrics().backpressure_resets, 1);

    // Becoming leader already shipped the no-op window (credit 1), which
    // fills the clamped window: proposes append + persist but ship
    // nothing to this peer.
    let (_, actions) = node.propose(Bytes::from_static(b"c1"), now).unwrap();
    assert!(appends_to(&actions, peer).is_empty(), "window clamped to 1");
    let (_, actions) = node.propose(Bytes::from_static(b"c2"), now).unwrap();
    assert!(appends_to(&actions, peer).is_empty(), "still clamped");

    // A clean ack returns the credit AND widens the cap to 2: exactly
    // two backlog windows ship.
    let ack = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: LogIndex::new(1),
        status: None,
        seq: 0,
    });
    let actions = node.handle_message(peer, ack, now);
    assert_eq!(
        appends_to(&actions, peer).len(),
        2,
        "cap widened to 2 after one clean ack"
    );
}

/// Backpressure notes on a non-leader are a no-op: there is no pipeline
/// to clamp, and the counter must not move.
#[test]
fn backpressure_is_ignored_off_the_leader_role() {
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            ScriptedTimeouts::new(vec![Duration::from_millis(1000)]),
        ))))
        .build();
    node.start(Time::ZERO);
    node.note_backpressure(ids[1]);
    assert_eq!(node.metrics().backpressure_resets, 0);
}

/// Group commit at the engine/storage boundary: a batch of N commands is
/// persisted as one batched record run followed by exactly one sync, and
/// the sync precedes the returned actions (write-ahead preserved).
#[test]
fn propose_batch_persists_all_entries_before_one_sync() {
    let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            ScriptedTimeouts::new(vec![Duration::from_millis(1000)]),
        ))))
        .options(Options {
            leader_noop: false, // isolate the batch's records
            vote_retry_interval: None,
            ..Options::default()
        })
        .storage(Box::new(TracingStorage {
            calls: calls.clone(),
        }))
        .build();
    node.start(Time::ZERO);
    node.handle_timer(
        TimerToken {
            kind: TimerKind::Election,
            epoch: 1,
        },
        Time::from_millis(1000),
    );
    for peer in [ids[1], ids[2]] {
        node.handle_message(
            peer,
            Message::RequestVoteReply(crate::message::RequestVoteReply {
                term: node.current_term(),
                vote_granted: true,
            }),
            Time::from_millis(1000),
        );
    }
    assert!(node.is_leader());

    calls.borrow_mut().clear();
    let commands: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("gc-{i}"))).collect();
    let (indexes, actions) = node
        .propose_batch(commands, Time::from_millis(1001))
        .unwrap();
    assert_eq!(indexes.len(), 4);
    assert!(
        actions.iter().any(|a| matches!(a, Action::Send { .. })),
        "the batch must fan out"
    );
    let seen = calls.borrow();
    assert_eq!(
        *seen,
        vec!["entries n=4 first=1".to_string(), "sync".to_string()],
        "one batched record run, then exactly one sync, before any action"
    );
}

// ---- linearizable reads (ReadIndex + leases) ----

fn lease_options() -> Options {
    Options {
        lease_duration: Some(Duration::from_millis(100)),
        ..Options::default()
    }
}

/// 3-node Raft cluster with the 100 ms lease enabled. The randomized
/// policy's 150 ms floor puts the vote fence (125 ms) strictly under
/// every election timeout.
fn lease_cluster(n: u32) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(RaftPolicy::randomized(
                    Duration::from_millis(150),
                    Duration::from_millis(300),
                    id.get() as u64,
                )))
                .options(lease_options())
                .build()
        })
        .collect();
    Pump::new(nodes)
}

fn escape_lease_cluster(n: u32) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let params = EscapeParams::paper_defaults(n as usize);
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(EscapePolicy::new(*id, params)))
                .options(lease_options())
                .build()
        })
        .collect();
    Pump::new(nodes)
}

/// Fires `leader`'s heartbeat at its deadline with a read reaching the
/// leader at that instant, so the round is leased, and settles.
fn leased_heartbeat(pump: &mut Pump, leader: u32) {
    let (_, deadline) = pump.timers[&ServerId::new(leader)][&TimerKind::Heartbeat];
    pump.now = pump.now.max(deadline);
    let now = pump.now;
    pump.node_mut(leader).lease_read(&[], now);
    pump.fire(ServerId::new(leader), TimerKind::Heartbeat);
}

/// `(batch, results)` of every `ReadReady` in `actions`.
fn reads_ready(actions: &[Action]) -> Vec<(u64, Vec<Bytes>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::ReadReady { batch, results } => Some((*batch, results.clone())),
            _ => None,
        })
        .collect()
}

fn reads_failed(actions: &[Action]) -> Vec<u64> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::ReadFailed { batch, .. } => Some(*batch),
            _ => None,
        })
        .collect()
}

#[test]
fn read_batch_refuses_followers_with_a_leader_hint() {
    let mut pump = raft_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    let now = pump.now;
    let err = pump
        .node_mut(2)
        .read_batch(vec![Bytes::from_static(b"q")], now)
        .unwrap_err();
    assert_eq!(
        err,
        ProposeError::NotLeader {
            hint: Some(ServerId::new(1))
        }
    );
}

#[test]
fn empty_read_batch_resolves_instantly() {
    let (mut node, _ids) = undelivered_leader(Options::default());
    let (batch, actions) = node.read_batch(Vec::new(), Time::from_millis(1000)).unwrap();
    assert_eq!(reads_ready(&actions), vec![(batch, Vec::new())]);
}

#[test]
fn read_index_batch_waits_for_quorum_echo_and_apply() {
    // Leader with an uncommitted no-op and two unreachable peers: a read
    // batch must hold until (a) one peer echoes the confirm round's seq
    // and (b) the no-op commits and applies up to the read index.
    let (mut node, ids) = undelivered_leader(Options::default());
    let now = Time::from_millis(1000);
    let queries = vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")];
    let (batch, actions) = node.read_batch(queries, now).unwrap();
    assert!(reads_ready(&actions).is_empty(), "nothing confirmed yet");
    let confirm = appends_to(&actions, ids[1]);
    assert_eq!(confirm.len(), 1, "one confirm heartbeat per peer");
    let seq = confirm[0].seq;
    assert!(seq > 0, "confirm round must carry a live seq");
    assert_eq!(node.metrics().quorum_reads, 2);

    // A log-mismatch refusal still echoes the seq: the round confirms,
    // but the read index (the no-op) is not yet applied — stay queued.
    let refusal = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: false,
        match_hint: LogIndex::ZERO,
        status: None,
        seq,
    });
    let actions = node.handle_message(ids[1], refusal, now);
    assert!(
        reads_ready(&actions).is_empty(),
        "confirmed round must not release a read past last_applied"
    );

    // The successful ack commits + applies the no-op and releases the batch.
    let ack = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: node.log().last_index(),
        status: None,
        seq,
    });
    let actions = node.handle_message(ids[1], ack, now);
    let ready = reads_ready(&actions);
    assert_eq!(ready.len(), 1);
    assert_eq!(ready[0].0, batch);
    assert_eq!(ready[0].1.len(), 2, "one result per query, in order");
    assert_eq!(node.metrics().reads_served, 2);
    assert_eq!(node.metrics().reads_failed, 0);
}

#[test]
fn queued_reads_fail_on_term_change_instead_of_hanging() {
    // Regression: a batch queued under term T must be failed — not left
    // queued forever, not answered — when a higher term deposes the
    // leader before its confirm round completes.
    let (mut node, ids) = undelivered_leader(Options::default());
    let now = Time::from_millis(1000);
    let (batch, actions) = node
        .read_batch(vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")], now)
        .unwrap();
    assert!(reads_ready(&actions).is_empty());
    let seq = appends_to(&actions, ids[1])[0].seq;

    let usurper = Message::AppendEntries(crate::message::AppendEntriesArgs {
        term: Term::new(node.current_term().get() + 1),
        leader_id: ids[1],
        prev_log_index: LogIndex::ZERO,
        prev_log_term: Term::ZERO,
        entries: Vec::new(),
        leader_commit: LogIndex::ZERO,
        new_config: None,
        seq: 0,
    });
    let actions = node.handle_message(ids[1], usurper, now);
    assert_eq!(reads_failed(&actions), vec![batch], "batch must fail on step-down");
    assert!(reads_ready(&actions).is_empty());
    assert_eq!(node.metrics().reads_failed, 2);

    // A late echo of the old confirm round must not resurrect anything.
    let late = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: node.log().last_index(),
        status: None,
        seq,
    });
    let actions = node.handle_message(ids[2], late, now);
    assert!(reads_ready(&actions).is_empty());
    assert_eq!(node.metrics().reads_served, 0);
}

#[test]
fn single_node_leader_confirms_reads_instantly() {
    let ids = vec![ServerId::new(1)];
    let node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(10),
            Duration::from_millis(20),
            1,
        )))
        .build();
    let mut pump = Pump::new(vec![node]);
    pump.fire(ServerId::new(1), TimerKind::Election);
    let now = pump.now;
    let (_, actions) = pump.node_mut(1).propose(Bytes::from_static(b"x"), now).unwrap();
    pump.absorb(ServerId::new(1), actions);
    pump.settle();

    // No peers: every round is quorum-acked by self alone, so the batch
    // releases inside the read_batch call itself.
    let now = pump.now;
    let (batch, actions) = pump
        .node_mut(1)
        .read_batch(vec![Bytes::from_static(b"q")], now)
        .unwrap();
    let ready = reads_ready(&actions);
    assert_eq!(ready.len(), 1);
    assert_eq!(ready[0].0, batch);
}

#[test]
fn lease_serves_reads_without_a_network_round() {
    let mut pump = lease_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    leased_heartbeat(&mut pump, 1); // commit + apply the no-op
    let now = pump.now;
    assert!(pump.node(1).lease_valid(now), "confirmed round must start the lease");

    let (batch, actions) = pump
        .node_mut(1)
        .read_batch(vec![Bytes::from_static(b"q")], now)
        .unwrap();
    assert!(
        !actions.iter().any(|a| matches!(a, Action::Send { .. })),
        "a leased read must cost zero network messages: {actions:?}"
    );
    let ready = reads_ready(&actions);
    assert_eq!(ready.len(), 1);
    assert_eq!(ready[0].0, batch);
    let m = pump.node(1).metrics();
    assert_eq!(m.lease_reads, 1);
    assert_eq!(m.quorum_reads, 0);
}

#[test]
fn expired_lease_falls_back_to_a_quorum_round() {
    let mut pump = lease_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    pump.fire(ServerId::new(1), TimerKind::Heartbeat);

    // 200 ms of silence outlives the 100 ms lease.
    pump.now += Duration::from_millis(200);
    let now = pump.now;
    assert!(!pump.node(1).lease_valid(now));
    let (_batch, actions) = pump
        .node_mut(1)
        .read_batch(vec![Bytes::from_static(b"q")], now)
        .unwrap();
    assert!(reads_ready(&actions).is_empty(), "lapsed lease cannot vouch");
    assert!(
        actions.iter().any(|a| matches!(a, Action::Send { .. })),
        "must fall back to a ReadIndex confirm round"
    );
    assert_eq!(pump.node(1).metrics().quorum_reads, 1);

    // The round's acks confirm, release the read, and re-arm the lease.
    let served_before = pump.node(1).metrics().reads_served;
    pump.absorb(ServerId::new(1), actions);
    pump.settle();
    assert_eq!(pump.node(1).metrics().reads_served, served_before + 1);
    assert!(pump.node(1).lease_valid(pump.now), "quorum ack renews the lease");
}

/// A 3-node lease cluster whose leader (server 1) has committed its no-op
/// and, serving reads, holds a fresh lease.
fn leased_cluster() -> Pump {
    let mut pump = lease_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    leased_heartbeat(&mut pump, 1);
    assert!(pump.node(1).lease_valid(pump.now));
    pump
}

/// Asserts that `lease_read` declines on `node` at `now` and leaves every
/// bit of its state — metrics included — as it was, but for the read
/// demand it records on a leader.
fn declines_untouched(node: &mut Node, now: Time) {
    let before = format!("{node:?}");
    let last_read = node.lease.last_read();
    assert_eq!(node.lease_read(&[Bytes::from_static(b"q")], now), None);
    let demand = if node.is_leader() { Some(now) } else { last_read };
    assert_eq!(node.lease.last_read(), demand, "a read on a leader is demand");
    node.lease.set_last_read(last_read);
    assert_eq!(
        format!("{node:?}"),
        before,
        "a declined lease_read changes nothing else"
    );
}

#[test]
fn lease_read_counts_what_read_batchs_lease_branch_counts() {
    let queries = [Bytes::from_static(b"a"), Bytes::from_static(b"b")];
    let mut inline = leased_cluster();
    let mut batched = leased_cluster();
    let now = inline.now;

    let answered = inline.node_mut(1).lease_read(&queries, now);
    let (batch, actions) = batched.node_mut(1).read_batch(queries.to_vec(), now).unwrap();
    assert_eq!(reads_ready(&actions), vec![(batch, answered.clone().unwrap())]);
    assert_eq!(answered.map(|results| results.len()), Some(2));
    let metrics = inline.node(1).metrics();
    assert_eq!(metrics, batched.node(1).metrics());
    assert_eq!(
        (metrics.read_batches, metrics.lease_reads, metrics.reads_served),
        (1, 2, 2)
    );
}

#[test]
fn lease_read_declines_on_a_follower_and_after_the_lease_lapses() {
    let mut pump = leased_cluster();
    let now = pump.now;
    declines_untouched(pump.node_mut(2), now);
    pump.now += Duration::from_millis(200); // outlives the 100 ms lease
    let now = pump.now;
    assert!(pump.node(1).is_leader());
    declines_untouched(pump.node_mut(1), now);
}

#[test]
fn lease_read_declines_while_a_read_index_batch_is_pending() {
    // The lease from the last round runs out before the next round's acks
    // arrive: a read in the gap opens a ReadIndex round of its own, then
    // the late acks renew the lease. The lease now holds, but the queued
    // batch waits for its own round, and an answer past it would break
    // FIFO order.
    let mut pump = leased_cluster();
    let (token, _) = pump.timers[&ServerId::new(1)][&TimerKind::Heartbeat];
    pump.now += Duration::from_millis(50);
    let now = pump.now;
    let late_round = pump.node_mut(1).handle_timer(token, now);
    pump.now += Duration::from_millis(60); // the last lease has lapsed
    let now = pump.now;
    assert!(!pump.node(1).lease_valid(now));
    let (_, confirm) = pump
        .node_mut(1)
        .read_batch(vec![Bytes::from_static(b"q")], now)
        .unwrap();
    assert!(reads_ready(&confirm).is_empty());

    pump.absorb(ServerId::new(1), late_round);
    pump.settle();
    assert!(pump.node(1).lease_valid(now), "the late acks renew the lease");
    assert_eq!(pump.node(1).pending_reads.len(), 1);
    declines_untouched(pump.node_mut(1), now);
}

#[test]
fn lease_read_declines_until_the_read_index_has_applied() {
    // Applied trails committed: the instant between commit and apply,
    // which no call boundary shows, set up by hand.
    let mut pump = leased_cluster();
    let now = pump.now;
    let node = pump.node_mut(1);
    node.propose(Bytes::from_static(b"x"), now).unwrap();
    node.commit_index = node.log().last_index();
    assert!(node.last_applied() < node.commit_index());
    declines_untouched(node, now);
}

#[test]
fn lease_read_declines_before_the_terms_no_op_commits() {
    // A log-mismatch refusal echoes a leased round: the lease starts, but
    // the no-op is on no follower yet, so the read index is out of reach.
    let (mut node, ids) = undelivered_leader(lease_options());
    let now = Time::from_millis(1000);
    assert_eq!(node.lease_read(&[], now), None);
    let heartbeat = TimerToken {
        kind: TimerKind::Heartbeat,
        epoch: node.heartbeat_epoch,
    };
    node.handle_timer(heartbeat, now);
    let refusal = Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: false,
        match_hint: LogIndex::ZERO,
        status: None,
        seq: node.round_stamp(),
    });
    node.handle_message(ids[1], refusal, now);
    assert!(node.lease_valid(now));
    assert!(node.commit_index() < node.term_start_index);
    declines_untouched(&mut node, now);
}

#[test]
fn vote_fence_refuses_premature_votes_but_not_expired_timers() {
    let mut pump = lease_cluster(3);
    pump.fire(ServerId::new(1), TimerKind::Election);
    leased_heartbeat(&mut pump, 1);
    let contact = pump.now; // S2 heard the leased round at this instant

    let last = pump.node(3).log().last_position();
    let term = Term::new(pump.node(1).current_term().get() + 1);
    let solicit = || {
        Message::RequestVote(crate::message::RequestVoteArgs {
            term,
            candidate_id: ServerId::new(3),
            last_log_index: last.index,
            last_log_term: last.term,
            conf_clock: None,
        })
    };
    let granted = |actions: &[Action]| {
        actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Message::RequestVoteReply(r),
                    ..
                } => Some(r.vote_granted),
                _ => None,
            })
            .expect("a vote solicitation always gets a reply")
    };

    // 100 ms after last contact: inside the 125 ms fence (lease × 5/4) —
    // some lease the leader holds may still be live. Refuse.
    let early = contact + Duration::from_millis(100);
    let actions = pump.node_mut(2).handle_message(ServerId::new(3), solicit(), early);
    assert!(!granted(&actions), "fenced voter must refuse");
    assert_eq!(pump.node(2).metrics().votes_lease_fenced, 1);

    // 130 ms after last contact: every possible lease has expired — the
    // same solicitation now succeeds (the refusal burned no vote).
    let late = contact + Duration::from_millis(130);
    let actions = pump.node_mut(2).handle_message(ServerId::new(3), solicit(), late);
    assert!(granted(&actions), "fence must lift once lease × 5/4 elapsed");
}

#[test]
fn ppf_handoff_never_lets_the_deposed_leader_answer_a_read() {
    // ESCAPE's precautionary handoff with leases in force: the leader
    // dies mid-lease, the prepared leader is promoted by its (fence-
    // respecting) timeout, and the deposed leader must never again get a
    // read answered — not by lease, not by quorum.
    let mut pump = escape_lease_cluster(5);
    pump.fire(ServerId::new(5), TimerKind::Election); // boot-best wins
    for _ in 0..3 {
        leased_heartbeat(&mut pump, 5); // PPF assigns ranks; reads hold a lease
    }
    let t_confirm = pump.now;
    assert!(pump.node(5).lease_valid(t_confirm), "leader holds a live lease");

    // The prepared leader is the follower PPF handed the best (highest-
    // priority, shortest-timeout) configuration.
    let prepared = (1..=4u32)
        .max_by_key(|id| pump.node(*id).current_config().unwrap().priority.get())
        .unwrap();

    pump.crash(5);
    pump.fire(ServerId::new(prepared), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(prepared)), "reflex promotion");
    // The promotion could only happen after the fence: baseTime (the
    // prepared leader's timeout, 1500 ms) dwarfs lease × 5/4 (125 ms).
    assert!(pump.now >= t_confirm + Duration::from_micros(125_000));

    // The deposed leader still *believes* it leads, but its lease is
    // long gone — a read attempt gets no lease answer...
    let now = pump.now;
    assert!(pump.node(5).is_leader(), "deposed leader has not heard the news");
    assert!(!pump.node(5).lease_valid(now));
    let (_batch, actions) = pump
        .node_mut(5)
        .read_batch(vec![Bytes::from_static(b"stale?")], now)
        .unwrap();
    assert!(reads_ready(&actions).is_empty(), "stale read must not be answered");

    // ...and its confirm round, once the partition heals, only harvests
    // higher-term refusals: the batch fails, never serves.
    pump.crashed.clear();
    pump.absorb(ServerId::new(5), actions);
    pump.settle();
    assert_eq!(pump.node(5).role(), Role::Follower, "refusals demote the ghost");
    assert_eq!(pump.node(5).metrics().reads_served, 0);
    assert!(pump.node(5).metrics().reads_failed >= 1);

    // The new leader, meanwhile, answers reads under its own fresh lease.
    leased_heartbeat(&mut pump, prepared);
    let now = pump.now;
    let (batch, actions) = pump
        .node_mut(prepared)
        .read_batch(vec![Bytes::from_static(b"fresh")], now)
        .unwrap();
    assert_eq!(reads_ready(&actions).len(), 1, "new leader serves batch {batch}");
}

#[test]
fn clock_drift_within_the_fence_margin_cannot_revive_a_lease() {
    // The fence buys lease × 5/4 of real silence before any vote. A
    // deposed leader whose clock runs up to 25 % slow sees at least
    // 4/5 × (lease × 5/4) = lease elapse in that window — so by the
    // earliest possible promotion even the laggard's lease has expired.
    let mut pump = escape_lease_cluster(5);
    pump.fire(ServerId::new(5), TimerKind::Election);
    leased_heartbeat(&mut pump, 5);
    let t_confirm = pump.now; // last round start = last lease extension

    // Sanity: just before the lease boundary the lease is still live.
    assert!(pump.node(5).lease_valid(t_confirm + Duration::from_millis(99)));

    // Worst-case laggard clock at the earliest vote instant: real time
    // advanced by the full fence, local clock by only 4/5 of it — which
    // is exactly the lease length. Strictly not valid.
    let fence = Duration::from_micros(100_000 * 5 / 4);
    let local_elapsed = Duration::from_micros(fence.as_micros() * 4 / 5);
    assert_eq!(local_elapsed, Duration::from_millis(100), "margin arithmetic");
    assert!(
        !pump.node(5).lease_valid(t_confirm + local_elapsed),
        "a 25 % slow clock must still see its lease expire before any vote"
    );
}

// ---- the local lease across heartbeat rounds ----

/// Fires `leader`'s heartbeat at its deadline — a read reaching it at that
/// instant when `read` — and returns the round's start and what it sends,
/// undelivered.
fn leader_round(pump: &mut Pump, leader: u32, read: bool) -> (Time, Vec<Action>) {
    let id = ServerId::new(leader);
    let (token, start) = pump.timers[&id][&TimerKind::Heartbeat];
    pump.now = start;
    if read {
        pump.node_mut(leader).lease_read(&[], start);
    }
    (start, pump.node_mut(leader).handle_timer(token, start))
}

/// Delivers a round's frames, and the followers' acks, at `at`.
fn deliver_round(pump: &mut Pump, leader: u32, sent: Vec<Action>, at: Time) {
    pump.now = at;
    pump.absorb(ServerId::new(leader), sent);
    pump.settle();
}

/// What a lease of two heartbeats buys at the local timings while reads
/// keep coming: each round extends the lease to its own start plus the
/// lease, so it holds without a gap while every round's quorum ack lands
/// within one heartbeat of its send, and a lost round lapses it only
/// until the next round's ack.
#[test]
fn a_lease_of_two_heartbeats_holds_across_rounds_and_bridges_one_lost_round() {
    let local = Options::local();
    let hb = local.heartbeat_interval;
    let lease = local.lease_duration.expect("local timings lease");
    assert!(lease >= hb * 2);
    let leader = 3;
    let mut pump = local_escape_cluster(3, Lease::Serving);
    let queries = [Bytes::from_static(b"q")];

    for round in 0..20u64 {
        // Acks from a quarter of a heartbeat up to just under a whole one.
        let delay = Duration::from_micros(hb.as_micros() * (round % 4 + 1) / 4 - 1);
        let (start, sent) = leader_round(&mut pump, leader, true);
        // Valid up to the instant this round's ack lands: no gap since
        // the last extension.
        assert!(
            pump.node(leader).lease_valid(start + delay),
            "round {round}"
        );
        deliver_round(&mut pump, leader, sent, start + delay);
        assert_eq!(
            pump.node(leader).lease.until(),
            start + lease,
            "round {round}"
        );
    }

    // One round lost: the lease runs out no sooner than the next round
    // starts, and is back when that round's ack lands.
    let (_, lost) = leader_round(&mut pump, leader, true);
    pump.absorb(ServerId::new(leader), lost);
    pump.inbox.clear();
    let lapse = pump.node(leader).lease.until();
    let just_before = lapse - Duration::from_micros(1);
    assert!(pump
        .node_mut(leader)
        .lease_read(&queries, just_before)
        .is_some());
    let delay = hb / 2;
    let (start, sent) = leader_round(&mut pump, leader, true);
    let acked_at = start + delay;
    assert!(lapse >= start);
    assert!(acked_at - lapse <= delay);
    // Inside the gap the leader refuses to answer on its lease.
    assert!(!pump.node(leader).lease_valid(lapse));
    declines_untouched(pump.node_mut(leader), lapse);
    deliver_round(&mut pump, leader, sent, acked_at);
    assert!(pump.node(leader).lease_valid(acked_at));
    assert!(pump
        .node_mut(leader)
        .lease_read(&queries, acked_at)
        .is_some());
}

// ---- the failure hint and the deferred fenced grant ----

/// How a local cluster's leader stands towards reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lease {
    /// No lease configured.
    Off,
    /// [`Options::local`]'s lease, and no read ever reaches the leader:
    /// it holds no lease and its followers no fence.
    Idle,
    /// [`Options::local`]'s lease, and a read reaches the leader at each
    /// heartbeat: every round is leased.
    Serving,
}

/// The local timings a TCP deployment runs ([`Options::local`], its lease
/// configured or not), under `escape_local`'s `baseTime` 150 ms and `k`
/// 50 ms. The leader's last heartbeat is the cluster's `now`.
fn local_escape_cluster(n: u32, lease: Lease) -> Pump {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let params = EscapeParams::builder(n as usize)
        .base_time_ms(150)
        .spacing_ms(50)
        .build();
    let local = Options::local();
    let options = Options {
        lease_duration: local.lease_duration.filter(|_| lease != Lease::Off),
        ..local
    };
    let nodes = ids
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(EscapePolicy::new(*id, params)))
                .options(options)
                .build()
        })
        .collect();
    let mut pump = Pump::new(nodes);
    // The boot-best server wins, and a few heartbeats let PPF hand the
    // followers their ranks.
    pump.fire(ServerId::new(n), TimerKind::Election);
    for _ in 0..3 {
        if lease == Lease::Serving {
            leased_heartbeat(&mut pump, n);
        } else {
            pump.fire(ServerId::new(n), TimerKind::Heartbeat);
        }
    }
    pump
}

/// The vote fence of [`Options::local`].
fn local_fence() -> Duration {
    Options::local().vote_fence().expect("local timings lease")
}

/// An empty leased `AppendEntries` from `leader` at `term`.
fn heartbeat(term: u64, leader: ServerId) -> Message {
    heartbeat_leased(term, leader, true)
}

/// An empty `AppendEntries` of round 1 from `leader` at `term`, leased or
/// not.
fn heartbeat_leased(term: u64, leader: ServerId, lease: bool) -> Message {
    Message::AppendEntries(crate::message::AppendEntriesArgs {
        term: Term::new(term),
        leader_id: leader,
        prev_log_index: LogIndex::ZERO,
        prev_log_term: Term::ZERO,
        entries: Vec::new(),
        leader_commit: LogIndex::ZERO,
        new_config: None,
        seq: crate::message::AppendEntriesArgs::stamp(1, lease),
    })
}

/// The followers of `pump`'s leader `n`, best priority first.
fn followers_by_priority(pump: &Pump, n: u32) -> Vec<u32> {
    let mut followers: Vec<u32> = (1..n).collect();
    followers.sort_by_key(|id| {
        std::cmp::Reverse(pump.node(*id).current_config().unwrap().priority.get())
    });
    followers
}

/// The election deadline `actions` arm, if any.
fn election_deadline(actions: &[Action]) -> Option<Time> {
    actions.iter().find_map(|a| match a {
        Action::SetTimer { token, deadline } if token.kind == TimerKind::Election => {
            Some(*deadline)
        }
        _ => None,
    })
}

/// `(to, granted)` of every vote reply in `actions`.
fn vote_replies(actions: &[Action]) -> Vec<(ServerId, bool)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: Message::RequestVoteReply(r),
                ..
            } => Some((*to, r.vote_granted)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_hint_moves_the_deadline_by_floor_minus_fence_and_emits_it() {
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let (log, ring) = escape_obs::RingObserver::with_default_capacity();
    let params = EscapeParams::builder(3)
        .base_time_ms(150)
        .spacing_ms(50)
        .build();
    // With history: boot priority 3 of 3 would campaign from `start`.
    let mut node = Node::builder(ids[2], ids.clone())
        .policy(Box::new(EscapePolicy::new(ids[2], params)))
        .options(lease_options())
        .observer(Arc::new(ring))
        .recover(boot_config_history(ids[2], params))
        .build();
    node.start(Time::ZERO);
    let contact = Time::from_millis(10);
    node.handle_message(ids[0], heartbeat(1, ids[0]), contact);
    // Boot priority 3 of 3: `baseTime`.
    assert_eq!(node.election_deadline, contact + Duration::from_millis(150));

    let actions = node.peer_closed(ids[0], contact + Duration::from_millis(1));
    // 150 − 125 = 25 ms earlier: exactly one fence after the contact.
    assert_eq!(
        election_deadline(&actions),
        Some(contact + Duration::from_millis(125))
    );
    assert_eq!(node.election_deadline, contact + Duration::from_millis(125));
    let hinted: Vec<Event> = log
        .snapshot()
        .iter()
        .map(|t| t.event)
        .filter(|e| matches!(e, Event::FailureHinted { .. }))
        .collect();
    assert_eq!(
        hinted,
        vec![Event::FailureHinted {
            term: 1,
            advance_micros: 25_000
        }]
    );
    // A second hint finds nothing left to move.
    assert!(node
        .peer_closed(ids[0], contact + Duration::from_millis(2))
        .is_empty());
}

/// Fixed timeouts under a declared floor: a timer armed below the floor
/// the hint subtracts from, to drive its clamps.
#[derive(Debug)]
struct FlooredTimeouts {
    timeout: Duration,
    floor: Duration,
}

impl ElectionPolicy for FlooredTimeouts {
    fn name(&self) -> &'static str {
        "floored"
    }
    fn election_timeout(&mut self) -> Duration {
        self.timeout
    }
    fn timeout_floor(&self) -> Option<Duration> {
        Some(self.floor)
    }
}

/// A follower with a 150 ms floor, a 125 ms fence and timeouts of
/// `timeout_ms`, that heard server 1 lead at 10 ms.
fn floored_follower(timeout_ms: u64) -> Node {
    let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
    let mut node = Node::builder(ids[1], ids.clone())
        .policy(Box::new(FlooredTimeouts {
            timeout: Duration::from_millis(timeout_ms),
            floor: Duration::from_millis(150),
        }))
        .options(lease_options())
        .build();
    node.start(Time::ZERO);
    node.handle_message(ids[0], heartbeat(1, ids[0]), Time::from_millis(10));
    node
}

#[test]
fn a_hint_never_moves_the_deadline_inside_the_fence_nor_later() {
    let leader = ServerId::new(1);
    // Armed at 10 + 140: 25 ms earlier would be 125, inside the fence
    // (10 + 125 = 135) — so the deadline stops at the fence.
    let mut node = floored_follower(140);
    let actions = node.peer_closed(leader, Time::from_millis(11));
    assert_eq!(election_deadline(&actions), Some(Time::from_millis(135)));

    // Armed at 10 + 100, before the fence lapses: the hint would move it
    // later, so it does nothing — beyond forgetting the closed leader
    // (which arms the wait for the next one, one 150 ms floor out).
    let mut node = floored_follower(100);
    let mut forgotten = floored_follower(100);
    let mut forgetting = Vec::new();
    forgotten
        .watch
        .forget(Time::from_millis(11), &mut forgetting);
    let before = format!("{node:?}");
    assert_ne!(
        format!("{forgotten:?}"),
        before,
        "the follower named server 1 its leader"
    );
    assert_eq!(node.peer_closed(leader, Time::from_millis(11)), forgetting);
    assert_eq!(format!("{node:?}"), format!("{forgotten:?}"));
}

#[test]
fn a_hinted_follower_names_no_leader_until_one_is_heard() {
    let leader = ServerId::new(1);
    let mut node = floored_follower(140);
    node.peer_closed(leader, Time::from_millis(11));
    assert_eq!(node.leader_hint(), None);
    assert_eq!(
        node.propose(Bytes::from_static(b"x"), Time::from_millis(12)).map(|_| ()),
        Err(ProposeError::NotLeader { hint: None }),
        "no redirect to the server that just closed"
    );
    assert_eq!(
        node.read_batch(Vec::new(), Time::from_millis(12)).map(|_| ()),
        Err(ProposeError::NotLeader { hint: None })
    );

    // The leader was alive after all: its next heartbeat names it again.
    node.handle_message(leader, heartbeat(1, leader), Time::from_millis(20));
    assert_eq!(node.leader_hint(), Some(leader));
    assert_eq!(
        node.propose(Bytes::from_static(b"x"), Time::from_millis(21)).map(|_| ()),
        Err(ProposeError::NotLeader { hint: Some(leader) })
    );
}

#[test]
fn a_hint_from_a_peer_that_is_not_the_leader_leaves_the_node_as_it_was() {
    let mut node = floored_follower(140);
    let before = format!("{node:?}");
    assert!(node
        .peer_closed(ServerId::new(3), Time::from_millis(11))
        .is_empty());
    assert_eq!(format!("{node:?}"), before);
    assert_eq!(node.leader_hint(), Some(ServerId::new(1)));
}

#[test]
fn hinted_followers_keep_their_eq1_spacing() {
    // Under a leader serving reads the fence holds them back; under one
    // that serves none there is no fence.
    for (lease, fence) in [(Lease::Serving, local_fence()), (Lease::Idle, Duration::ZERO)] {
        let mut pump = local_escape_cluster(3, lease);
        let contact = pump.now;
        let leader = ServerId::new(3);
        let followers = followers_by_priority(&pump, 3);
        let moved: Vec<Time> = followers
            .iter()
            .map(|id| {
                let actions = pump.node_mut(*id).peer_closed(leader, contact);
                let deadline = election_deadline(&actions).expect("a hinted follower re-arms");
                pump.absorb(ServerId::new(*id), actions);
                deadline
            })
            .collect();
        // Priorities n and n−1: `baseTime` and `baseTime + k`, both moved
        // `baseTime` − fence earlier — the prepared one to the fence, the
        // gap still k.
        assert_eq!(moved[0], contact + fence, "{lease:?}");
        assert_eq!(moved[1] - moved[0], Duration::from_millis(50), "{lease:?}");

        // The prepared follower campaigns first, alone, and wins.
        pump.crash(3);
        pump.fire(ServerId::new(followers[0]), TimerKind::Election);
        assert_eq!(pump.now, contact + fence, "{lease:?}");
        assert_eq!(pump.leader(), Some(ServerId::new(followers[0])), "{lease:?}");
        assert_eq!(pump.node(followers[1]).metrics().elections_started, 0);
    }
}

#[test]
fn a_hint_is_ignored_unless_it_names_a_followers_leader() {
    let mut pump = local_escape_cluster(3, Lease::Serving);
    let now = pump.now;
    let followers = followers_by_priority(&pump, 3);
    // Not the leader: a fellow follower's process closed.
    let other = ServerId::new(followers[1]);
    assert!(pump
        .node_mut(followers[0])
        .peer_closed(other, now)
        .is_empty());
    // On the leader itself.
    assert!(pump.node_mut(3).peer_closed(other, now).is_empty());

    // No known leader: a fresh node.
    let mut fresh = floored_follower(140);
    fresh.restart(Time::from_millis(20));
    assert!(fresh
        .peer_closed(ServerId::new(1), Time::from_millis(21))
        .is_empty());

    // On a candidate.
    let mut candidate = floored_follower(140);
    let token = TimerToken {
        kind: TimerKind::Election,
        epoch: candidate.election_epoch,
    };
    candidate.handle_timer(token, Time::from_millis(150));
    assert_eq!(candidate.role(), Role::Candidate);
    assert!(candidate
        .peer_closed(ServerId::new(1), Time::from_millis(151))
        .is_empty());
}

#[test]
fn without_leases_the_prepared_follower_campaigns_at_the_hint() {
    let mut pump = local_escape_cluster(3, Lease::Off);
    let contact = pump.now;
    let hinted_at = contact + Duration::from_millis(1);
    let followers = followers_by_priority(&pump, 3);
    let prepared = pump
        .node_mut(followers[0])
        .peer_closed(ServerId::new(3), hinted_at);
    assert_eq!(election_deadline(&prepared), Some(hinted_at));
    let next = pump
        .node_mut(followers[1])
        .peer_closed(ServerId::new(3), hinted_at);
    assert_eq!(
        election_deadline(&next),
        Some(contact + Duration::from_millis(50))
    );
}

/// A follower of the local cluster whose leader serves reads, the instant
/// it last heard its leader, the prepared candidate, and that candidate's
/// solicitation for the next term.
fn fenced_voter() -> (Pump, u32, Time, ServerId, Message) {
    let pump = local_escape_cluster(3, Lease::Serving);
    let contact = pump.now;
    let followers = followers_by_priority(&pump, 3);
    let (candidate, voter) = (followers[0], followers[1]);
    let last = pump.node(candidate).log().last_position();
    let solicit = Message::RequestVote(crate::message::RequestVoteArgs {
        term: Term::new(pump.node(voter).current_term().get() + 1),
        candidate_id: ServerId::new(candidate),
        last_log_index: last.index,
        last_log_term: last.term,
        conf_clock: pump.node(candidate).policy.campaign_conf_clock(),
    });
    (pump, voter, contact, ServerId::new(candidate), solicit)
}

/// The fence-lapse timer `actions` arm.
fn fence_lapse(actions: &[Action]) -> (TimerToken, Time) {
    actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { token, deadline } if token.kind == TimerKind::FenceLapse => {
                Some((*token, *deadline))
            }
            _ => None,
        })
        .expect("a fenced refusal arms the fence lapse")
}

/// A message from the leader (server 3) carrying the term after
/// `solicit`'s.
fn higher_term_than(solicit: &Message) -> Message {
    Message::RequestVoteReply(crate::message::RequestVoteReply {
        term: Term::new(solicit.term().get() + 1),
        vote_granted: false,
    })
}

#[test]
fn a_fenced_refusal_is_granted_exactly_once_at_the_lapse() {
    let (mut pump, voter, contact, candidate, solicit) = fenced_voter();
    let node = pump.node_mut(voter);
    let granted_before = node.metrics().votes_granted;
    let refused = node.handle_message(candidate, solicit, contact + Duration::from_millis(1));
    assert_eq!(vote_replies(&refused), vec![(candidate, false)]);
    let (token, lapse) = fence_lapse(&refused);
    assert_eq!(lapse, contact + local_fence(), "one fence after the contact");
    assert_eq!(node.voted_for(), None);

    let granted = node.handle_timer(token, lapse);
    assert_eq!(vote_replies(&granted), vec![(candidate, true)]);
    assert_eq!(node.voted_for(), Some(candidate));
    assert_eq!(node.metrics().votes_granted, granted_before + 1);
    // Once: the token is spent.
    assert!(vote_replies(&node.handle_timer(token, lapse)).is_empty());
    assert_eq!(node.metrics().votes_granted, granted_before + 1);
}

#[test]
fn a_deferred_grant_yields_to_a_higher_term_another_vote_or_a_stale_term() {
    let leader = ServerId::new(3);

    // A higher term adopted meanwhile.
    let (mut pump, voter, contact, candidate, solicit) = fenced_voter();
    let node = pump.node_mut(voter);
    let (token, lapse) = fence_lapse(&node.handle_message(candidate, solicit.clone(), contact));
    node.handle_message(
        leader,
        higher_term_than(&solicit),
        contact + Duration::from_millis(2),
    );
    assert!(vote_replies(&node.handle_timer(token, lapse)).is_empty());
    assert_eq!(node.voted_for(), None);

    // The vote went to another candidate at the lapse instant.
    let (mut pump, voter, contact, candidate, solicit) = fenced_voter();
    let node = pump.node_mut(voter);
    let (token, lapse) = fence_lapse(&node.handle_message(candidate, solicit.clone(), contact));
    let rival = match solicit {
        Message::RequestVote(args) => Message::RequestVote(crate::message::RequestVoteArgs {
            candidate_id: leader,
            ..args
        }),
        _ => unreachable!(),
    };
    assert_eq!(
        vote_replies(&node.handle_message(leader, rival, lapse)),
        vec![(leader, true)]
    );
    assert!(vote_replies(&node.handle_timer(token, lapse)).is_empty());
    assert_eq!(node.voted_for(), Some(leader));

    // A stale term is refused outright and never deferred.
    let (mut pump, voter, contact, candidate, solicit) = fenced_voter();
    let node = pump.node_mut(voter);
    node.handle_message(leader, higher_term_than(&solicit), contact);
    let stale = node.handle_message(candidate, solicit, contact + Duration::from_millis(1));
    assert_eq!(vote_replies(&stale), vec![(candidate, false)]);
    assert!(stale.iter().all(|a| !matches!(
        a,
        Action::SetTimer { token, .. } if token.kind == TimerKind::FenceLapse
    )));
}

// ---- lease on demand ----

/// Every `AppendEntries` in `actions`.
fn appends(actions: &[Action]) -> Vec<&crate::message::AppendEntriesArgs> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                msg: Message::AppendEntries(args),
                ..
            } => Some(args),
            _ => None,
        })
        .collect()
}

/// Fires `leader`'s heartbeat at `at`, due or not, and returns what it
/// sends, undelivered.
fn heartbeat_at(pump: &mut Pump, leader: u32, at: Time) -> Vec<Action> {
    pump.now = at;
    let node = pump.node_mut(leader);
    let token = TimerToken {
        kind: TimerKind::Heartbeat,
        epoch: node.heartbeat_epoch,
    };
    node.handle_timer(token, at)
}

/// Hands server `to` every message `actions` of server `from` send it, at
/// `at`, and returns what `to` does in answer.
fn hand_over(pump: &mut Pump, from: u32, to: u32, actions: &[Action], at: Time) -> Vec<Action> {
    let mut answers = Vec::new();
    for action in actions {
        if let Action::Send { to: dest, msg, .. } = action {
            if *dest == ServerId::new(to) {
                answers.extend(pump.node_mut(to).handle_message(
                    ServerId::new(from),
                    msg.clone(),
                    at,
                ));
            }
        }
    }
    answers
}

#[test]
fn a_leader_without_reads_lets_its_lease_lapse_and_one_round_restarts_it() {
    let local = Options::local();
    let hb = local.heartbeat_interval;
    let lease = local.lease_duration.expect("local timings lease");
    let leader = 3;
    let mut pump = local_escape_cluster(3, Lease::Serving);
    let last_read = pump.now;

    // Rounds opened within one lease of the last read are leased; the
    // ones after it are not, and extend nothing.
    loop {
        let (start, sent) = leader_round(&mut pump, leader, false);
        let flags: Vec<bool> = appends(&sent).iter().map(|a| a.lease()).collect();
        assert_eq!(flags.len(), 2, "one AppendEntries per follower");
        let leased = start < last_read + lease;
        assert!(flags.iter().all(|&f| f == leased), "{flags:?} at {start}");
        deliver_round(&mut pump, leader, sent, start);
        if start >= last_read + lease + hb {
            break;
        }
    }
    let now = pump.now;
    assert_eq!(
        pump.node(leader).lease.until(),
        last_read + hb + lease,
        "the last leased round's extension"
    );
    assert!(!pump.node(leader).lease_valid(now));
    declines_untouched(pump.node_mut(leader), now);

    // The next read: one leased confirm round releases it and restarts
    // the lease.
    let quorum_reads = pump.node(leader).metrics().quorum_reads;
    let queries = [Bytes::from_static(b"q")];
    let (batch, actions) = pump
        .node_mut(leader)
        .read_batch(queries.to_vec(), now)
        .unwrap();
    assert!(reads_ready(&actions).is_empty());
    let confirm = appends(&actions);
    assert_eq!(confirm.len(), 2, "one round");
    assert!(confirm.iter().all(|a| a.lease()));
    deliver_round(&mut pump, leader, actions, now);
    assert_eq!(pump.released, vec![(ServerId::new(leader), batch)]);
    assert_eq!(pump.node(leader).metrics().quorum_reads, quorum_reads + 1);
    assert_eq!(pump.node(leader).lease.until(), now + lease);
    assert!(pump.node_mut(leader).lease_read(&queries, now).is_some());
}

#[test]
fn a_voter_stays_fenced_one_fence_after_a_leased_round_through_unleased_ones() {
    let (mut pump, voter, contact, candidate, solicit) = fenced_voter();
    let leader = ServerId::new(3);
    let term = pump.node(voter).current_term().get();
    let fence = local_fence();
    let node = pump.node_mut(voter);
    // The leader goes on without reads: unleased rounds up to the lapse.
    let mut at = contact;
    while at + Duration::from_millis(10) < contact + fence {
        at += Duration::from_millis(10);
        node.handle_message(leader, heartbeat_leased(term, leader, false), at);
    }
    assert_eq!(node.watch.leased_contact(), Some(contact));

    // Still fenced a µs before one fence after the leased round…
    let just_before = contact + fence - Duration::from_micros(1);
    let refused = node.handle_message(candidate, solicit, just_before);
    assert_eq!(vote_replies(&refused), vec![(candidate, false)]);
    let (token, lapse) = fence_lapse(&refused);
    assert_eq!(lapse, contact + fence, "unleased rounds extend no fence");
    // …and free at that instant.
    let granted = node.handle_timer(token, lapse);
    assert_eq!(vote_replies(&granted), vec![(candidate, true)]);
}

/// Server 3 misses the leader's last leased round and acks only the
/// unleased round after it, so it is fenced from an earlier leased round
/// alone. Server 2's late ack of the leased round then makes a quorum
/// (leader, 2, 3) echo it — but that quorum does not back a lease past
/// server 3's fence, so the round must not extend the lease.
#[test]
fn an_ack_of_an_unleased_round_never_extends_an_earlier_leased_rounds_lease() {
    let lease = lease_options().lease_duration.expect("lease options");
    let ms = Duration::from_millis;
    let mut pump = lease_cluster(5);
    pump.fire(ServerId::new(1), TimerKind::Election);
    // Servers 4 and 5 hear nothing more: the read quorum is 1, 2 and 3.
    pump.crash(4);
    pump.crash(5);
    leased_heartbeat(&mut pump, 1);
    let t0 = pump.now;
    assert_eq!(pump.node(1).lease.until(), t0 + lease);
    assert_eq!(pump.node(3).fence_lapse(), Some(t0 + Node::lease_fence(lease)));

    // A read, then the last round within one lease of it: leased, and
    // only server 2 gets it; its ack is still on the way.
    let read_at = t0 + ms(50);
    pump.node_mut(1).lease_read(&[], read_at);
    let leased = heartbeat_at(&mut pump, 1, read_at + lease - ms(1));
    assert!(appends(&leased).iter().all(|a| a.lease()));
    let round = appends(&leased)[0].round();
    let ack_of_leased = hand_over(&mut pump, 1, 2, &leased, read_at + lease - ms(1));

    // One lease after the read the next round is unleased; server 3
    // hears it and acks at once.
    let unleased = heartbeat_at(&mut pump, 1, read_at + lease);
    assert!(appends(&unleased).iter().all(|a| !a.lease()));
    let ack_of_unleased = hand_over(&mut pump, 1, 3, &unleased, read_at + lease);
    hand_over(&mut pump, 3, 1, &ack_of_unleased, read_at + lease);
    let late = read_at + lease + ms(1);
    hand_over(&mut pump, 2, 1, &ack_of_leased, late);

    let node = pump.node(1);
    assert!(node.confirmed_round() >= round, "a quorum echoed the leased round");
    assert_eq!(
        node.lease.until(),
        t0 + lease,
        "server 3 is fenced only until {:?}",
        pump.node(3).fence_lapse()
    );
    assert!(!node.lease_valid(late));
}

// ---- the deferred leader barrier ----

/// A storage whose deferred barrier never completes by itself: it hands
/// out tickets, and the test decides when (and whether) to report them.
#[derive(Debug, Default)]
struct DeferringStorage {
    tickets: u64,
}

impl Storage for DeferringStorage {
    fn persist_hard_state(&mut self, _: Term, _: Option<ServerId>) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_entry(&mut self, _: &crate::log::Entry) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_appended(
        &mut self,
        _: LogIndex,
        _: Term,
        _: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_config(&mut self, _: crate::config::Configuration) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_snapshot(
        &mut self,
        _: LogIndex,
        _: Term,
        _: &Bytes,
        _: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_deferred(&mut self) -> std::io::Result<crate::storage::Barrier> {
        self.tickets += 1;
        Ok(crate::storage::Barrier::Pending(self.tickets))
    }
}

/// A leader of three on a deferring storage, its no-op already committed
/// by both followers, plus one proposal whose barrier (ticket 1) is
/// still pending. Returns the proposal's index and actions.
fn leader_with_pending_barrier() -> (Node, Vec<ServerId>, LogIndex, Vec<Action>) {
    let (mut node, ids) = undelivered_leader_on(
        Options {
            vote_retry_interval: None,
            ..Options::default()
        },
        Box::new(DeferringStorage::default()),
    );
    let noop = node.log().last_index();
    assert_eq!(node.durable_index(), noop, "the no-op takes the blocking barrier");
    for peer in [ids[1], ids[2]] {
        node.handle_message(peer, ack(&node, noop), Time::from_millis(1001));
    }
    assert_eq!(node.commit_index(), noop);
    let (index, actions) = node
        .propose(Bytes::from_static(b"deferred"), Time::from_millis(1002))
        .unwrap();
    (node, ids, index, actions)
}

fn ack(node: &Node, through: LogIndex) -> Message {
    Message::AppendEntriesReply(crate::message::AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: through,
        status: None,
        seq: 0,
    })
}

fn committed(actions: &[Action]) -> Vec<LogIndex> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Committed { index } => Some(*index),
            _ => None,
        })
        .collect()
}

/// The proposal's `AppendEntries` leave before the leader's barrier, and
/// the leader is a replica of the entry only once `barrier_done` says so:
/// one follower ack is not a quorum until then.
#[test]
fn leader_counts_itself_only_after_its_barrier_completes() {
    let (mut node, ids, index, actions) = leader_with_pending_barrier();
    for peer in [ids[1], ids[2]] {
        assert_eq!(appends_to(&actions, peer).len(), 1, "sent before the barrier");
    }
    assert!(node.durable_index() < index);

    let actions = node.handle_message(ids[1], ack(&node, index), Time::from_millis(1003));
    assert!(committed(&actions).is_empty(), "one follower is not a quorum of three");
    assert!(node.commit_index() < index);

    let actions = node.barrier_done(1, Time::from_millis(1004));
    assert_eq!(committed(&actions), vec![index]);
    assert!(actions.iter().any(|a| matches!(a, Action::Applied { .. })));
    assert_eq!(node.durable_index(), index);
}

/// Two follower acks are a quorum without the leader: a slow leader disk
/// does not set commit latency. The late completion then changes nothing
/// but the durable index, and reporting it twice changes nothing at all.
#[test]
fn both_followers_commit_without_the_leader_and_stale_tickets_are_ignored() {
    let (mut node, ids, index, _) = leader_with_pending_barrier();
    node.handle_message(ids[1], ack(&node, index), Time::from_millis(1003));
    let actions = node.handle_message(ids[2], ack(&node, index), Time::from_millis(1003));
    assert_eq!(committed(&actions), vec![index]);
    assert!(node.durable_index() < index, "committed while the leader's flush runs");

    assert!(node.barrier_done(0, Time::from_millis(1004)).is_empty());
    assert!(node.durable_index() < index, "ticket 0 was never issued");
    assert!(node.barrier_done(1, Time::from_millis(1004)).is_empty());
    assert_eq!(node.durable_index(), index);
    assert!(node.barrier_done(1, Time::from_millis(1005)).is_empty());
    assert_eq!(node.durable_index(), index);
}

/// A deposed leader's un-synced tail is truncated by its successor while
/// the barrier that covered it is still pending. The blocking barrier the
/// follower-side append takes retires that ticket, so its late completion
/// cannot claim the old tail's indexes for entries that now sit there.
#[test]
fn late_completion_after_step_down_and_truncation_claims_nothing() {
    let (mut node, ids, index, _) = leader_with_pending_barrier();
    let (second, _) = node
        .propose(Bytes::from_static(b"also-lost"), Time::from_millis(1003))
        .unwrap();
    let noop = index.prev();
    let successor_term = Term::new(node.current_term().get() + 1);
    let replacement = crate::log::Entry {
        term: successor_term,
        index,
        payload: crate::log::Payload::Noop,
    };
    node.handle_message(
        ids[1],
        Message::AppendEntries(crate::message::AppendEntriesArgs {
            term: successor_term,
            leader_id: ids[1],
            prev_log_index: noop,
            prev_log_term: node.log().term_at(noop).unwrap(),
            entries: vec![replacement],
            leader_commit: noop,
            new_config: None,
            seq: 1,
        }),
        Time::from_millis(1004),
    );
    assert_eq!(node.role(), Role::Follower);
    assert_eq!(node.log().last_index(), index, "{second} was truncated away");
    assert_eq!(node.durable_index(), index);

    // Tickets 1 and 2 covered the old entries at `index` and `second`.
    assert!(node.barrier_done(2, Time::from_millis(1005)).is_empty());
    assert_eq!(node.durable_index(), index, "must not claim {second}");
}

/// A single-node cluster has no follower to commit through: the proposal
/// commits when — and only when — its own barrier completes.
#[test]
fn single_node_cluster_commits_only_on_barrier_completion() {
    let ids = vec![ServerId::new(1)];
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(10),
            Duration::from_millis(20),
            1,
        )))
        .storage(Box::new(DeferringStorage::default()))
        .build();
    node.start(Time::ZERO);
    node.handle_timer(
        TimerToken {
            kind: TimerKind::Election,
            epoch: 1,
        },
        Time::from_millis(20),
    );
    assert!(node.is_leader());
    let (index, actions) = node
        .propose(Bytes::from_static(b"solo"), Time::from_millis(21))
        .unwrap();
    assert!(committed(&actions).is_empty());
    assert!(node.commit_index() < index);
    let actions = node.barrier_done(1, Time::from_millis(22));
    assert_eq!(committed(&actions), vec![index]);
}

/// The deferred barrier is for steps whose only un-synced records are the
/// leader's tail appends. Should a promise record ever share the step,
/// nothing is deferred: the blocking barrier covers the lot.
#[test]
fn a_step_that_also_persisted_a_promise_takes_the_blocking_barrier() {
    let (mut node, _, first, _) = leader_with_pending_barrier();
    node.storage_dirty = true; // as a `persist_*` promise helper leaves it
    let (index, _) = node
        .propose(Bytes::from_static(b"blocking"), Time::from_millis(1003))
        .unwrap();
    assert!(node.pending_barriers.is_empty(), "no new ticket, and ticket 1 is covered");
    assert_eq!(node.durable_index(), index);
    assert!(first < index);
}

// ---- incremental quorum statistics vs. the scans they replaced ----

/// The sort-based `confirmed_round` the cached statistic replaced: the
/// `needed`-th largest round echoed by the peers that echoed any.
fn oracle_confirmed_round(node: &Node) -> u64 {
    let needed = node.read_quorum_needed();
    if needed == 0 {
        return node.broadcast_seq;
    }
    let mut acks: Vec<u64> = node
        .progress
        .iter()
        .map(|p| p.acked)
        .filter(|&acked| acked > 0)
        .collect();
    if acks.len() < needed {
        return 0;
    }
    acks.sort_unstable_by(|a, b| b.cmp(a));
    acks[needed - 1]
}

/// The scanning `advance_commit` the quorum selection replaced: where it
/// takes a commit index that stands at `commit`, given the leader's state.
fn oracle_commit(node: &Node, commit: LogIndex) -> LogIndex {
    let self_match = if node.storage_dirty {
        node.log.last_index()
    } else {
        node.durable_index
    };
    let mut candidate = node.log.last_index();
    while candidate > commit {
        if node.log.term_at(candidate) == Some(node.current_term) {
            let replicas = usize::from(candidate <= self_match)
                + node
                    .progress
                    .iter()
                    .filter(|p| p.matched >= candidate)
                    .count();
            if replicas >= node.quorum() {
                break;
            }
        }
        candidate = candidate.prev();
    }
    candidate.max(commit)
}

/// A leader of `n` on a deferring storage, elected at 1 s, its acks
/// still to come.
fn oracle_leader(n: u32) -> Node {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::with_source(Box::new(
            ScriptedTimeouts::new(vec![Duration::from_millis(1000)]),
        ))))
        .options(Options {
            max_entries_per_append: 4,
            vote_retry_interval: None,
            ..Options::default()
        })
        .storage(Box::new(DeferringStorage::default()))
        .build();
    node.start(Time::ZERO);
    let token = TimerToken {
        kind: TimerKind::Election,
        epoch: 1,
    };
    let now = Time::from_millis(1000);
    node.handle_timer(token, now);
    for peer in &ids[1..] {
        if node.is_leader() {
            break;
        }
        let grant = crate::message::RequestVoteReply {
            term: node.current_term(),
            vote_granted: true,
        };
        node.handle_message(*peer, Message::RequestVoteReply(grant), now);
    }
    assert!(node.is_leader());
    node
}

/// One leader input, decoded from three random numbers.
fn oracle_step(node: &mut Node, (op, peer, value): (u8, u32, u64), now: Time) {
    let peers = node.peers().to_vec();
    let from = (!peers.is_empty()).then(|| peers[peer as usize % peers.len()]);
    let last = node.log().last_index().get();
    // Mostly "caught up to the tail"; sometimes anywhere, including just
    // past the tail (a stale snapshot hint can claim that much).
    let hint = LogIndex::new(if value & 3 == 0 {
        (value >> 2) % (last + 3)
    } else {
        last
    });
    let seq = crate::message::AppendEntriesArgs::stamp(
        (value >> 8) % (node.broadcast_seq + 2),
        value & 0x80 != 0,
    );
    let term = node.current_term();
    match (op, from) {
        (0 | 1, Some(from)) => {
            let reply = crate::message::AppendEntriesReply {
                term,
                success: op == 0,
                match_hint: hint,
                status: None,
                seq,
            };
            node.handle_message(from, Message::AppendEntriesReply(reply), now);
        }
        (2, Some(from)) => {
            // A round ack that reports no progress.
            let reply = crate::message::AppendEntriesReply {
                term,
                success: true,
                match_hint: LogIndex::ZERO,
                status: None,
                seq,
            };
            node.handle_message(from, Message::AppendEntriesReply(reply), now);
        }
        (3, Some(from)) => node.note_backpressure(from),
        (4, Some(from)) => {
            let reply = crate::message::InstallSnapshotReply {
                term,
                match_hint: hint,
            };
            node.handle_message(from, Message::InstallSnapshotReply(reply), now);
        }
        (5, _) => {
            let commands = (0..=value % 3)
                .map(|i| Bytes::from(format!("c{i}")))
                .collect();
            node.propose_batch(commands, now).expect("still the leader");
        }
        (6, _) => {
            node.barrier_done(value % (last + 2), now);
        }
        (7, _) => {
            let token = TimerToken {
                kind: TimerKind::Heartbeat,
                epoch: node.heartbeat_epoch,
            };
            node.handle_timer(token, now);
        }
        (_, _) => {
            node.read_batch(vec![Bytes::from_static(b"q")], now)
                .expect("still the leader");
        }
    }
}

proptest::proptest! {
    /// The cached confirmed round and the selected commit index equal
    /// what the sort and the scan they replaced compute, after every
    /// input, for every cluster size the engine meets — 1 and 2 are the
    /// degenerate quorums, 50 the paper's scale point.
    #[test]
    fn quorum_statistics_match_the_scans_they_replaced(
        ops in proptest::collection::vec(
            (0u8..9, proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
            0..400,
        )
    ) {
        for n in [1u32, 2, 3, 5, 50] {
            let mut node = oracle_leader(n);
            let mut commit = oracle_commit(&node, node.commit_index());
            proptest::prop_assert_eq!(node.commit_index(), commit, "n={} at election", n);
            for (step, &op) in ops.iter().enumerate() {
                let now = Time::from_millis(1001 + step as u64);
                oracle_step(&mut node, op, now);
                commit = oracle_commit(&node, commit);
                proptest::prop_assert_eq!(
                    node.commit_index(), commit, "n={} step {} {:?}", n, step, op
                );
                proptest::prop_assert_eq!(
                    node.confirmed_round(),
                    oracle_confirmed_round(&node),
                    "n={} step {} {:?}", n, step, op
                );
            }
        }
    }
}

// ---- the boot campaign ----

/// What a [`RecordingStorage`] has seen of the hard state: the last
/// record persisted, and the last one a `sync` made durable.
#[derive(Debug, Default)]
struct HardStateRecord {
    persisted: Option<(Term, Option<ServerId>)>,
    synced: Option<(Term, Option<ServerId>)>,
}

/// A storage that records the hard state, and what of it is durable.
#[derive(Debug, Default)]
struct RecordingStorage(Arc<std::sync::Mutex<HardStateRecord>>);

impl Storage for RecordingStorage {
    fn persist_hard_state(
        &mut self,
        term: Term,
        voted_for: Option<ServerId>,
    ) -> std::io::Result<()> {
        self.0.lock().unwrap().persisted = Some((term, voted_for));
        Ok(())
    }
    fn persist_entry(&mut self, _: &crate::log::Entry) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_appended(
        &mut self,
        _: LogIndex,
        _: Term,
        _: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_config(&mut self, _: crate::config::Configuration) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_snapshot(
        &mut self,
        _: LogIndex,
        _: Term,
        _: &Bytes,
        _: &[crate::log::Entry],
    ) -> std::io::Result<()> {
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        let mut record = self.0.lock().unwrap();
        record.synced = record.persisted;
        Ok(())
    }
}

/// Starts server `id` of `n` under `policy`, recovered from `history`
/// if given. Returns the node, its boot actions, what its storage saw and
/// the events it recorded.
fn boot(
    id: u32,
    n: u32,
    policy: Box<dyn ElectionPolicy>,
    history: Option<RecoveredState>,
) -> (
    Node,
    Vec<Action>,
    Arc<std::sync::Mutex<HardStateRecord>>,
    Vec<Event>,
) {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let storage = RecordingStorage::default();
    let record = Arc::clone(&storage.0);
    let (log, ring) = escape_obs::RingObserver::with_default_capacity();
    let mut builder = Node::builder(ServerId::new(id), ids)
        .policy(policy)
        .storage(Box::new(storage))
        .observer(Arc::new(ring));
    if let Some(history) = history {
        builder = builder.recover(history);
    }
    let mut node = builder.build();
    let actions = node.start(Time::ZERO);
    let events = log.snapshot().iter().map(|t| t.event).collect();
    (node, actions, record, events)
}

/// The peers `actions` solicit votes from, and in which term.
fn solicitations(actions: &[Action]) -> Vec<(ServerId, Term)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: Message::RequestVote(args),
                ..
            } => Some((*to, args.term)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_fresh_prepared_candidate_campaigns_from_start_with_its_vote_durable() {
    let params = EscapeParams::paper_defaults(5);
    let s5 = ServerId::new(5);
    let s2 = ServerId::new(2);
    let cases: [(&str, ServerId, Box<dyn ElectionPolicy>, u64); 3] = [
        ("escape S5", s5, Box::new(EscapePolicy::new(s5, params)), 5),
        (
            "escape S2 rotated to priority 5",
            s2,
            Box::new(EscapePolicy::new(s2, params).with_boot_priority(Priority::new(5))),
            5,
        ),
        (
            "zraft S5",
            s5,
            Box::new(crate::policy::ZRaftPolicy::new(s5, params)),
            5,
        ),
    ];
    for (name, id, policy, term) in cases {
        let (node, actions, record, events) = boot(id.get(), 5, policy, None);
        assert_eq!(node.role(), Role::Candidate, "{name}");
        assert_eq!(node.current_term(), Term::new(term), "{name}");
        assert_eq!(node.voted_for(), Some(id), "{name}");
        assert_eq!(node.metrics().elections_started, 1, "{name}");
        // The term and vote were durable before the actions came back.
        assert_eq!(
            record.lock().unwrap().synced,
            Some((Term::new(term), Some(id))),
            "{name}"
        );
        let asked = solicitations(&actions);
        assert_eq!(asked.len(), 4, "{name}: {asked:?}");
        assert!(
            asked
                .iter()
                .all(|&(to, t)| to != id && t == Term::new(term)),
            "{name}"
        );
        // Nothing timed out: a campaign, no detection.
        assert!(events.contains(&Event::CampaignStarted { term }), "{name}");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::ElectionTimeout { .. })),
            "{name}: {events:?}"
        );
    }
}

#[test]
fn a_node_with_history_a_lower_priority_or_raft_waits_for_its_timer() {
    let params = EscapeParams::paper_defaults(5);
    let s5 = ServerId::new(5);
    let escape = |id: u32| -> Box<dyn ElectionPolicy> {
        Box::new(EscapePolicy::new(ServerId::new(id), params))
    };
    let mut logged = Log::new();
    logged.append_new(Term::new(1), crate::log::Payload::Noop);
    let histories = [
        (
            "a term",
            RecoveredState {
                term: Term::new(3),
                ..boot_config_history(s5, params)
            },
        ),
        (
            "a vote",
            RecoveredState {
                term: Term::new(3),
                voted_for: Some(ServerId::new(1)),
                ..boot_config_history(s5, params)
            },
        ),
        (
            "a log",
            RecoveredState {
                log: logged,
                ..boot_config_history(s5, params)
            },
        ),
        ("a configuration clock", boot_config_history(s5, params)),
    ];
    // (name, server, policy, history)
    type Case = (String, u32, Box<dyn ElectionPolicy>, Option<RecoveredState>);
    let mut cases: Vec<Case> = vec![
        ("escape S4 of 5".into(), 4, escape(4), None),
        (
            "escape S5 rotated to priority 1".into(),
            5,
            Box::new(EscapePolicy::new(s5, params).with_boot_priority(Priority::new(1))),
            None,
        ),
        (
            "zraft S4 of 5".into(),
            4,
            Box::new(crate::policy::ZRaftPolicy::new(ServerId::new(4), params)),
            None,
        ),
    ];
    for (what, history) in histories {
        cases.push((
            format!("escape S5 with {what}"),
            5,
            escape(5),
            Some(history),
        ));
    }
    for id in 1..=5 {
        let raft =
            RaftPolicy::randomized(Duration::from_millis(150), Duration::from_millis(300), 7);
        cases.push((format!("raft S{id}"), id, Box::new(raft), None));
    }
    for (name, id, policy, history) in cases {
        let term = history.as_ref().map_or(Term::ZERO, |h| h.term);
        let (node, actions, record, events) = boot(id, 5, policy, history);
        assert_eq!(node.role(), Role::Follower, "{name}");
        assert_eq!(node.current_term(), term, "{name}");
        assert_eq!(node.metrics().elections_started, 0, "{name}");
        assert!(solicitations(&actions).is_empty(), "{name}");
        assert!(
            election_deadline(&actions).is_some(),
            "{name}: the timer is armed"
        );
        assert_eq!(record.lock().unwrap().synced, None, "{name}");
        assert!(events.is_empty(), "{name}: {events:?}");
    }

    // A restarted process waits for its timer even without history.
    let ids: Vec<ServerId> = (1..=5).map(ServerId::new).collect();
    let mut node = Node::builder(s5, ids).policy(escape(5)).build();
    let actions = node.restart(Time::ZERO);
    assert_eq!(node.role(), Role::Follower);
    assert!(solicitations(&actions).is_empty());
    assert!(election_deadline(&actions).is_some());
}

#[test]
fn a_fresh_prepared_candidate_joining_a_later_term_follows_its_leader() {
    // S1–S4 have history in term 5; S4 wins term 9 while S5 is down.
    let n = 5;
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let params = EscapeParams::paper_defaults(n as usize);
    let nodes = ids[..4]
        .iter()
        .map(|id| {
            Node::builder(*id, ids.clone())
                .policy(Box::new(EscapePolicy::new(*id, params)))
                .recover(RecoveredState {
                    term: Term::new(5),
                    ..boot_config_history(*id, params)
                })
                .build()
        })
        .collect();
    let mut pump = Pump::new(nodes);
    pump.crash(5);
    pump.fire(ServerId::new(4), TimerKind::Election);
    assert_eq!(pump.leader(), Some(ServerId::new(4)));
    let term = pump.node(4).current_term();
    assert_eq!(term, Term::new(9));

    // A fresh S5 boots into the group: it campaigns in term 5, which every
    // voter refuses as stale, and it adopts the group's term.
    pump.crashed.clear();
    let s5 = ServerId::new(5);
    let mut fresh = Node::builder(s5, ids.clone())
        .policy(Box::new(EscapePolicy::new(s5, params)))
        .build();
    let now = pump.now;
    let actions = fresh.start(now);
    assert_eq!(
        solicitations(&actions),
        ids[..4]
            .iter()
            .map(|&to| (to, Term::new(5)))
            .collect::<Vec<_>>()
    );
    pump.nodes.insert(s5, fresh);
    pump.absorb(s5, actions);
    pump.settle();
    assert_eq!(
        pump.leader(),
        Some(ServerId::new(4)),
        "the leader was not deposed"
    );
    assert_eq!(pump.node(4).current_term(), term);
    for voter in 1..=3 {
        assert_eq!(
            pump.node(voter).voted_for(),
            Some(ServerId::new(4)),
            "S{voter}"
        );
    }
    assert_eq!(pump.node(5).current_term(), term);
    assert_eq!(pump.node(5).role(), Role::Follower);

    // The leader's next round reaches it: it follows.
    pump.fire(ServerId::new(4), TimerKind::Heartbeat);
    assert_eq!(pump.node(5).leader_hint(), Some(ServerId::new(4)));
    assert_eq!(pump.node(5).role(), Role::Follower);
    assert_eq!(pump.leader(), Some(ServerId::new(4)));
}
