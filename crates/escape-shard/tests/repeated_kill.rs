//! Every leader kill costs one campaign — on real TCP, kill after kill.
//!
//! The prepared candidate of a 3-server group needs the vote of the one
//! other survivor, and after the first failover that survivor is usually
//! the *respawned ex-leader*: a fresh incarnation behind the same
//! listener. A mesh whose links outlive the incarnation they were dialled
//! to hands the candidate's `RequestVote` to a reader thread of the dead
//! one, which swallows it; the election then waits out a second timeout
//! (2–3 campaigns, ≈150 ms more). The first kill of a run never shows
//! this — no link is stale yet — so the schedule here keeps going: four
//! rounds, each killing the leader the previous round elected.
//!
//! The killed process's closed sockets are also what starts each
//! failover: the survivors' mesh readers see EOF and hint their engines,
//! so the prepared candidate campaigns at once — the group serves no
//! reads, so it holds no lease and no vote fence — not a full election
//! timeout after the leader's last word.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use escape_core::statemachine::NullStateMachine;
use escape_core::types::{GroupId, Role, ServerId};
use escape_obs::{reconstruct, Event, EventLog, Labels, NodeEvents, Observer, Registry};
use escape_shard::{ShardMap, ShardedNode};
use escape_storage::wal::FSYNC_LATENCY_BOUNDS_MICROS;
use escape_transport::clock::monotonic_now;
use escape_transport::tcp::{loopback_listeners, NodeObs};
use escape_transport::{NodeStatus, ProtocolSpec};

const ROUNDS: usize = 4;
/// How long a killed server stays down.
const DOWNTIME: Duration = Duration::from_millis(300);
/// Leadership must follow the first election timeout this closely when no
/// survivor's vote fence refused the candidate: vote round trips on
/// loopback, nowhere near a second 150 ms timeout.
const ELECT_BOUND_MICROS: u64 = 50_000;
/// Detection must come within one vote fence of `local_options` (lease ×
/// 5/4) of the kill, plus 10 ms for scheduling: the hint, not the 150 ms
/// `baseTime`, ends it. That bound holds for a group serving reads; this
/// one serves none and is detected within a few ms, so the hint itself is
/// checked too. The first kill comes straight after the first election,
/// before the new leader's PPF rearrangement need have reached its
/// followers: their timers still run their longer boot-time periods, which
/// the hint shortens by `baseTime` less any fence but does not bring down
/// to the hint. Only the later kills are held to either.
fn detect_bound_micros() -> u64 {
    let fence = ProtocolSpec::local_options()
        .vote_fence()
        .expect("local options lease");
    fence.as_micros() + 10_000
}
/// Each kill after the first comes straight after the respawned server's
/// catch-up, so the leader may have spoken to the respawned follower up to
/// one heartbeat after its last heartbeat to the candidate. In a group
/// serving reads, that follower's vote fence then still stands when the
/// candidate's timer fires: it refuses the solicitation and grants it when
/// its fence lapses.
/// Leadership must follow that lapse this closely (scheduling), not wait
/// for the in-campaign vote retry one heartbeat after the campaign.
const GRANT_BOUND_MICROS: u64 = 10_000;

/// Records into one server's log on the *test's* clock. Every incarnation
/// stamps events on a clock of its own, started when it was spawned;
/// a timeline across servers and incarnations needs one epoch.
#[derive(Debug)]
struct SharedClockObserver {
    epoch: Instant,
    log: Arc<EventLog>,
}

impl Observer for SharedClockObserver {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, _at_micros: u64, event: Event) {
        self.log
            .push(self.epoch.elapsed().as_micros() as u64, event);
    }
}

struct Cluster {
    epoch: Instant,
    addrs: HashMap<ServerId, SocketAddr>,
    listeners: HashMap<ServerId, TcpListener>,
    map: ShardMap,
    /// Holds one data directory per server.
    root: PathBuf,
    /// One log and one registry per server, shared by all of its
    /// incarnations and by every group it hosts.
    logs: HashMap<ServerId, Arc<EventLog>>,
    registries: HashMap<ServerId, Arc<Registry>>,
    nodes: HashMap<ServerId, ShardedNode>,
    /// `elections_started` of the incarnations already killed.
    retired_elections: u64,
}

impl Cluster {
    /// Three observed, durable servers hosting `shards` groups each.
    fn start(label: &str, shards: usize) -> Cluster {
        let (addrs, listeners) = loopback_listeners(3);
        let root = std::env::temp_dir().join(format!("escape-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cluster = Cluster {
            epoch: monotonic_now(),
            logs: addrs.keys().map(|id| (*id, Arc::default())).collect(),
            registries: addrs.keys().map(|id| (*id, Arc::default())).collect(),
            addrs,
            listeners,
            map: ShardMap::uniform(shards),
            root,
            nodes: HashMap::new(),
            retired_elections: 0,
        };
        let ids: Vec<ServerId> = cluster.addrs.keys().copied().collect();
        for id in ids {
            cluster.spawn(id);
        }
        cluster
    }

    fn spawn(&mut self, id: ServerId) {
        let dir = self.root.join(format!("server-{}", id.get()));
        std::fs::create_dir_all(&dir).expect("create data dir");
        let node = ShardedNode::spawn_observed(
            id,
            self.listeners[&id].try_clone().expect("clone listener"),
            self.addrs.clone(),
            ProtocolSpec::escape_local(),
            11,
            self.map.clone(),
            |_group| Box::new(NullStateMachine),
            Some(&dir),
            NodeObs {
                observer: Arc::new(SharedClockObserver {
                    epoch: self.epoch,
                    log: Arc::clone(&self.logs[&id]),
                }),
                registry: Arc::clone(&self.registries[&id]),
                labels: Labels::new().with("node", id.get()),
            },
        );
        self.nodes.insert(id, node);
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn status(&self, id: ServerId, group: GroupId) -> NodeStatus {
        self.nodes[&id].status(group).expect("status")
    }

    /// Polls until some live server other than `not` leads `group`.
    fn wait_for_leader(&self, group: GroupId, not: Option<ServerId>) -> ServerId {
        let deadline = monotonic_now() + Duration::from_secs(10);
        loop {
            assert!(monotonic_now() < deadline, "no leader within 10 s");
            let leader = self
                .nodes
                .keys()
                .copied()
                .find(|id| Some(*id) != not && self.status(*id, group).role == Role::Leader);
            if let Some(leader) = leader {
                return leader;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Polls until `id` has committed everything each group's leader has.
    fn wait_for_catch_up(&self, id: ServerId) {
        for group in self.map.groups() {
            let leader = self.wait_for_leader(group, None);
            let target = self.status(leader, group).commit_index;
            let deadline = monotonic_now() + Duration::from_secs(10);
            while self.status(id, group).commit_index < target {
                assert!(
                    monotonic_now() < deadline,
                    "{id} did not catch up in {group}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Campaigns the live incarnation of `id` has started, all groups.
    fn elections_started_by(&self, id: ServerId) -> u64 {
        self.map
            .groups()
            .map(|group| self.status(id, group).metrics.elections_started)
            .sum()
    }

    fn kill(&mut self, id: ServerId) {
        self.retired_elections += self.elections_started_by(id);
        self.nodes.remove(&id).expect("live node").kill();
    }

    /// Campaigns started by every incarnation of every server so far.
    fn elections_started(&self) -> u64 {
        let live: u64 = self
            .nodes
            .keys()
            .map(|id| self.elections_started_by(*id))
            .sum();
        self.retired_elections + live
    }

    fn streams(&self) -> Vec<NodeEvents> {
        self.logs
            .iter()
            .map(|(id, log)| NodeEvents {
                node: id.get(),
                events: log.snapshot(),
            })
            .collect()
    }

    fn finish(mut self) {
        for (_, node) in self.nodes.drain() {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn every_kill_of_the_sitting_leader_costs_one_campaign() {
    let mut cluster = Cluster::start("repeated-kill", 1);
    let mut leader = cluster.wait_for_leader(GroupId::ZERO, None);
    let elections_at_start = cluster.elections_started();

    for round in 1..=ROUNDS {
        let victim = leader;
        let killed_at = cluster.now_micros();
        cluster.kill(victim);
        let down_until = monotonic_now() + DOWNTIME;
        leader = cluster.wait_for_leader(GroupId::ZERO, Some(victim));

        std::thread::sleep(down_until.saturating_duration_since(monotonic_now()));
        cluster.spawn(victim);
        cluster.wait_for_catch_up(victim);

        let timeline = reconstruct(killed_at, &cluster.streams())
            .unwrap_or_else(|e| panic!("kill #{round}: {e}"));
        assert_eq!(
            timeline.campaigns,
            1,
            "kill #{round}: the prepared candidate must win its first campaign\n{}",
            timeline.render()
        );
        if round > 1 {
            assert!(
                timeline.hinted.is_some(),
                "kill #{round}: no survivor took the closed connection as a hint\n{}",
                timeline.render()
            );
            assert!(
                timeline.detect_micros() <= detect_bound_micros(),
                "kill #{round}: detection took {} us\n{}",
                timeline.detect_micros(),
                timeline.render()
            );
        }
        match fence_lapse(&cluster.streams(), killed_at, timeline.winning_term) {
            Some(lapse) => assert!(
                timeline.leader_elected_at <= lapse + GRANT_BOUND_MICROS,
                "kill #{round}: leadership came {} us after a refusing voter's fence lapsed\n{}",
                timeline.leader_elected_at.saturating_sub(lapse),
                timeline.render()
            ),
            None => {
                let elect = timeline.leader_elected_at - timeline.detected_at;
                assert!(
                    elect <= ELECT_BOUND_MICROS,
                    "kill #{round}: leadership came {elect} us after the first election timeout\n{}",
                    timeline.render()
                );
            }
        }
    }

    assert_eq!(
        cluster.elections_started() - elections_at_start,
        ROUNDS as u64,
        "campaigns over the whole run, retired incarnations included, must equal kills"
    );
    cluster.finish();
}

/// A fresh cluster elects at boot: each group's rotated top server (SCA
/// priority n, whose timeout is the floor) campaigns as it is spawned and
/// leads within half a floor, one campaign per group. A server respawned
/// from its data directory has history and waits for its timer instead.
#[test]
fn a_fresh_cluster_elects_each_groups_top_server_at_boot() {
    let mut cluster = Cluster::start("fresh-boot", 2);
    let ProtocolSpec::Escape {
        base_time: floor, ..
    } = ProtocolSpec::escape_local()
    else {
        unreachable!("escape_local is an ESCAPE spec")
    };
    let n = cluster.addrs.len();
    for group in cluster.map.groups() {
        // Group g hands server s priority ((s−1+g) mod n)+1.
        let top = ServerId::from_index((2 * n - 1 - group.index()) % n);
        assert_eq!(cluster.wait_for_leader(group, None), top, "{group}");
        let term = cluster.status(top, group).term.get();
        let elected_at = cluster
            .streams()
            .iter()
            .filter(|stream| stream.node == top.get())
            .flat_map(|stream| &stream.events)
            .find(|t| t.event == Event::LeaderElected { term })
            .map(|t| t.at_micros)
            .expect("the election is in the winner's log");
        eprintln!("{group}: {top} leads term {term} {elected_at} us after the spawn");
        assert!(
            elected_at <= floor.as_micros() / 2,
            "{group}: {top} led {elected_at} us after the spawn"
        );
        let campaigns: u64 = cluster
            .nodes
            .keys()
            .map(|id| cluster.status(*id, group).metrics.elections_started)
            .sum();
        assert_eq!(campaigns, 1, "{group}: one campaign, by {top}");
    }

    // Group 0's leader, respawned from its directory, starts no campaign.
    let victim = cluster.wait_for_leader(GroupId::ZERO, None);
    cluster.kill(victim);
    cluster.wait_for_leader(GroupId::ZERO, Some(victim));
    let respawned_at = cluster.now_micros();
    cluster.spawn(victim);
    cluster.wait_for_catch_up(victim);
    std::thread::sleep(floor.into());
    assert_eq!(
        cluster.elections_started_by(victim),
        0,
        "{victim} campaigned"
    );
    let campaigned = cluster.streams().iter().any(|stream| {
        stream.node == victim.get()
            && stream.events.iter().any(|t| {
                t.at_micros >= respawned_at && matches!(t.event, Event::CampaignStarted { .. })
            })
    });
    assert!(!campaigned, "{victim} campaigned after its respawn");
    cluster.finish();
}

/// When the last vote fence that refused `term`'s candidate after `since`
/// lapsed, on the test's clock; `None` if no fence refused it.
fn fence_lapse(streams: &[NodeEvents], since: u64, term: u64) -> Option<u64> {
    streams
        .iter()
        .flat_map(|stream| &stream.events)
        .filter(|t| t.at_micros >= since)
        .filter_map(|t| match t.event {
            Event::VoteFenced {
                term: fenced,
                lapses_in_micros,
            } if fenced == term => Some(t.at_micros + lapses_in_micros),
            _ => None,
        })
        .max()
}

/// A follower's closed sockets are no failure hint: the leader's
/// followers hear it on, and nobody campaigns.
#[test]
fn killing_a_follower_starts_no_election() {
    let mut cluster = Cluster::start("follower-kill", 1);
    let leader = cluster.wait_for_leader(GroupId::ZERO, None);
    let elections_at_start = cluster.elections_started();
    let follower = cluster
        .nodes
        .keys()
        .copied()
        .find(|id| *id != leader)
        .expect("a follower");
    cluster.kill(follower);
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(cluster.wait_for_leader(GroupId::ZERO, None), leader);
    assert_eq!(
        cluster.elections_started(),
        elections_at_start,
        "killing a follower must start no election"
    );
    cluster.finish();
}

/// The same wiring on a node hosting two groups: every group's engine
/// records into the server's observer, so killing each group's leader in
/// turn leaves that group's campaign and election in the logs — enough
/// for `reconstruct` to lay the failover out — and each group's WAL
/// reports its flushes under its own `group` label.
#[test]
fn observed_two_shard_nodes_record_each_groups_failover() {
    let mut cluster = Cluster::start("observed-shards", 2);
    let groups: Vec<GroupId> = cluster.map.groups().collect();
    for group in &groups {
        cluster.wait_for_leader(*group, None);
    }

    for group in &groups {
        let victim = cluster.wait_for_leader(*group, None);
        let killed_at = cluster.now_micros();
        cluster.kill(victim);
        let leader = cluster.wait_for_leader(*group, Some(victim));
        let term = cluster.status(leader, *group).term.get();

        // The winner's log holds this group's election: the term is the
        // one the group's engine on that server reports leading in.
        let recorded = |wanted: Event| {
            cluster.streams().iter().any(|stream| {
                stream.node == leader.get()
                    && stream
                        .events
                        .iter()
                        .any(|t| t.at_micros >= killed_at && t.event == wanted)
            })
        };
        assert!(
            recorded(Event::CampaignStarted { term }),
            "{group}: no campaign for term {term} in {leader}'s log"
        );
        assert!(
            recorded(Event::LeaderElected { term }),
            "{group}: no election for term {term} in {leader}'s log"
        );
        // The first commit of the new term lands a round trip after the
        // election; the timeline needs it.
        let deadline = monotonic_now() + Duration::from_secs(5);
        let timeline = loop {
            match reconstruct(killed_at, &cluster.streams()) {
                Ok(timeline) => break timeline,
                Err(e) => assert!(monotonic_now() < deadline, "{group}: {e}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(timeline.campaigns >= 1, "{}", timeline.render());

        cluster.spawn(victim);
        cluster.wait_for_catch_up(victim);
    }

    for (id, registry) in &cluster.registries {
        for group in &groups {
            let labels = Labels::new()
                .with("node", id.get())
                .with("group", group.get());
            let flushes = registry
                .histogram(
                    "escape_wal_fsync_micros",
                    &labels,
                    &FSYNC_LATENCY_BOUNDS_MICROS,
                )
                .snapshot()
                .count;
            assert!(flushes > 0, "{id}: no WAL flush recorded for {group}");
        }
    }
    cluster.finish();
}
