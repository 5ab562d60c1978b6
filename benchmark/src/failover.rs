//! `leader-kill`: an open loop of puts that keeps its schedule while the
//! leader of a 3-server durable group is killed again and again and
//! respawned from its directory — the paper's claim (a short leaderless
//! period) in client terms, over real TCP.

use std::time::{Duration, Instant};

use escape_client::{Client, ClientConfig};
use escape_core::types::{GroupId, Role};
use escape_shard::group_data_dir;

use crate::cluster::{Cluster, ClusterShape, CounterSum, Ctr};
use crate::layers::{self, Summary};
use crate::load::{Pace, Phase};
use crate::probes;
use crate::report::RunResult;
use crate::spec;
use crate::stats::{median, outage_gaps, Slices};
use crate::steady::{self, RunArgs, Session, REFERENCE_BASE, REFERENCE_SHARE, ROUNDS, WINDOW_BASE};
use crate::timed_storage::StorageTrace;
use crate::trace::{Span, NONE};

/// Offered load: puts per second, open loop.
const RATE: f64 = 200.0;
/// First kill this long into the window, then one per `CYCLE`.
const FIRST_KILL: Duration = Duration::from_millis(400);
const CYCLE: Duration = Duration::from_millis(1100);
/// The killed server is respawned from its directory this long after.
const RESPAWN_AFTER: Duration = Duration::from_millis(550);
/// Quiet tail of the window after the last respawn.
const TAIL: Duration = Duration::from_millis(1000);
/// Each kill is offset by a seed-drawn amount below this (one heartbeat
/// interval), so kills do not line up with the heartbeat phase.
const OFFSET_BELOW_US: u64 = 50_000;
/// The status poller's period in a traced run.
const POLL_EVERY: Duration = Duration::from_millis(2);

const GROUP: GroupId = GroupId::ZERO;

/// One kill, as the killer thread saw it.
#[derive(Clone, Copy, Debug)]
struct Kill {
    victim: usize,
    /// The victim's term just before it died.
    term: u64,
    kill_ns: u64,
    respawn_ns: u64,
    /// `WalStorage::open` on the victim's directory (traced runs).
    recover_ms: Option<f64>,
}

/// One round of the status poller: every server's view at one instant.
#[derive(Clone, Copy, Debug)]
struct Round {
    t_ns: u64,
    /// Per server: (term, is leader, last applied, commit index).
    seen: [Option<(u64, bool, u64, u64)>; 3],
}

fn sleep_until(epoch: Instant, t_ns: u64) {
    let now = epoch.elapsed().as_nanos() as u64;
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// How many kills fit a window of `seconds`.
pub fn kills_in(seconds: f64) -> usize {
    let room = seconds - (FIRST_KILL + RESPAWN_AFTER + TAIL).as_secs_f64();
    if room < 0.0 {
        0
    } else {
        (room / CYCLE.as_secs_f64()) as usize + 1
    }
}

/// Kills the current leader at each scheduled instant and respawns it
/// `RESPAWN_AFTER` later. Returns the kills and the counters the dead
/// incarnations took with them.
fn killer(
    cluster: &Cluster,
    client: &Client,
    epoch: Instant,
    schedule: &[u64],
    traced: bool,
) -> (Vec<Kill>, CounterSum) {
    let mut kills = Vec::new();
    let mut retired = CounterSum::default();
    for &at_ns in schedule {
        // Pick the victim a moment early so the kill itself is prompt. If
        // no server leads just then (an election under way), wait for one
        // for a while; a kill still without a leader is skipped, and the
        // caller counts it as a failed check.
        sleep_until(epoch, at_ns.saturating_sub(3_000_000));
        let find_leader = || {
            (0..cluster.nodes.len()).find_map(|i| {
                cluster
                    .status(i, GROUP)
                    .filter(|s| s.role == Role::Leader)
                    .map(|s| (i, s))
            })
        };
        let mut leader = find_leader();
        let patience = Instant::now() + CYCLE / 2;
        while leader.is_none() && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(5));
            leader = find_leader();
        }
        let Some((victim, status)) = leader else {
            continue;
        };
        retired.add(&status.metrics, status.frames_dropped);
        sleep_until(epoch, at_ns);
        let kill_ns = epoch.elapsed().as_nanos() as u64;
        let node = cluster.nodes[victim].write().expect("node slot").take();
        if let Some(node) = node {
            node.kill();
        }
        sleep_until(epoch, kill_ns + RESPAWN_AFTER.as_nanos() as u64);
        let recover_ms = cluster
            .server_dir(victim)
            .filter(|_| traced)
            .and_then(|dir| probes::recover_ms(&group_data_dir(&dir, GROUP)));
        let respawn_ns = epoch.elapsed().as_nanos() as u64;
        let node = cluster.spawn(victim);
        *cluster.nodes[victim].write().expect("node slot") = Some(node);
        // `ShardedNode::kill` leaves the dead incarnation's client-serving
        // threads running: a connection opened before the kill stays up
        // and is answered `Unavailable` for ever, so the client would
        // never reach the respawned server (and, once every server has
        // been killed once, no server at all). Dropping the client's
        // connections makes its next request re-dial.
        client.disconnect();
        kills.push(Kill {
            victim,
            term: status.term.get(),
            kill_ns,
            respawn_ns,
            recover_ms,
        });
    }
    (kills, retired)
}

/// Polls every server's `status` each `POLL_EVERY` until `stop_ns`.
fn poller(cluster: &Cluster, epoch: Instant, stop_ns: u64) -> Vec<Round> {
    let mut rounds = Vec::new();
    loop {
        let t_ns = epoch.elapsed().as_nanos() as u64;
        if t_ns >= stop_ns {
            return rounds;
        }
        let mut seen = [None; 3];
        for (i, slot) in seen.iter_mut().enumerate() {
            *slot = cluster.status(i, GROUP).map(|s| {
                (
                    s.term.get(),
                    s.role == Role::Leader,
                    s.last_applied.get(),
                    s.commit_index.get(),
                )
            });
        }
        rounds.push(Round { t_ns, seen });
        sleep_until(epoch, t_ns + POLL_EVERY.as_nanos() as u64);
    }
}

/// The outside-in failover timeline of one kill, from the poller's
/// rounds and the client's completions. Each is `None` when the poller
/// never saw the transition.
struct Timeline {
    detect_ns: Option<u64>,
    elect_ns: Option<u64>,
    recover_ns: Option<u64>,
    rejoin_ns: Option<u64>,
}

fn timeline(kill: &Kill, rounds: &[Round], completions: &[u64]) -> Timeline {
    let after_kill = &rounds[rounds.partition_point(|r| r.t_ns < kill.kill_ns)..];
    let survivors = |r: &Round| {
        (0..3)
            .filter(|i| *i != kill.victim)
            .filter_map(|i| r.seen[i])
            .collect::<Vec<_>>()
    };
    let detect_ns = after_kill
        .iter()
        .find(|r| survivors(r).iter().any(|s| s.0 > kill.term))
        .map(|r| r.t_ns);
    let elect_ns = after_kill
        .iter()
        .find(|r| survivors(r).iter().any(|s| s.1 && s.0 > kill.term))
        .map(|r| r.t_ns);
    let recover_ns = elect_ns.and_then(|t| {
        completions
            .get(completions.partition_point(|c| *c < t))
            .copied()
    });
    let after_respawn = &rounds[rounds.partition_point(|r| r.t_ns < kill.respawn_ns)..];
    let rejoin_ns = after_respawn
        .iter()
        .find(|r| {
            let commit = survivors(r).iter().map(|s| s.3).max().unwrap_or(u64::MAX);
            r.seen[kill.victim].is_some_and(|v| v.2 + 2 >= commit)
        })
        .map(|r| r.t_ns);
    Timeline {
        detect_ns,
        elect_ns,
        recover_ns,
        rejoin_ns,
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut r = RunResult::new(spec::LEADER_KILL, args.traced);
    let shape = ClusterShape {
        servers: 3,
        shards: 1,
        durable: true,
    };
    let storage_trace = args.traced.then(|| StorageTrace::new(Instant::now()));
    // Short timeout and backoff so the client's retry cadence does not
    // quantise the gap it is measuring.
    let config = ClientConfig {
        request_timeout: Duration::from_millis(300),
        op_budget: Duration::from_secs(5),
        max_attempts: 400,
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(20),
        seed: args.seed,
    };
    // The kills need their window in one piece, so only the last of the
    // run's set-ups is measured on; `setup_s` is the median of them all.
    let rounds = if args.traced { 1 } else { ROUNDS };
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..rounds {
        if let Some(previous) = kept.take() {
            Session::tear_down(previous);
        }
        let fresh = Session::set_up(
            spec::LEADER_KILL,
            shape,
            config.clone(),
            0.0,
            args,
            storage_trace.clone(),
            &mut r,
        )?;
        setups.push(fresh.setup_s);
        kept = Some(fresh);
    }
    r.set(spec::SETUP_S, median(&setups), setups.len() as u64);
    let mut session = kept.ok_or("no set-up ran")?;
    let window = Duration::from_secs_f64(args.seconds);
    let pace = Pace::Open { rate: RATE };

    let reference = args.traced.then(|| {
        let ops = session.run(
            REFERENCE_BASE,
            pace,
            window.mul_f64(REFERENCE_SHARE),
            0.0,
            false,
            args,
        );
        steady::tally(&mut r, &ops);
        steady::median_ms(&ops, false).0
    });

    // Kill instants: seed-drawn offsets off the fixed cycle.
    let epoch = session.epoch;
    let begin_ns = epoch.elapsed().as_nanos() as u64 + 10_000_000;
    let mut rng = escape_core::rand::SplitMix64::new(args.seed ^ 0x4B11);
    let schedule: Vec<u64> = (0..kills_in(args.seconds))
        .map(|k| {
            let offset_us = escape_core::rand::Rng64::next_u64(&mut rng) % OFFSET_BELOW_US;
            begin_ns + (FIRST_KILL + CYCLE * k as u32).as_nanos() as u64 + offset_us * 1_000
        })
        .collect();
    let end_ns = begin_ns + window.as_nanos() as u64;

    if let Some(t) = &storage_trace {
        t.set_recording(true);
    }
    let before = session.cluster.metrics_sum();
    let bytes_before = session.cluster.data_bytes();
    let begun = Instant::now();
    let phase = Phase {
        cluster: &session.cluster,
        client: &session.client,
        leaders: &session.leaders,
        epoch,
        seed: args.seed,
        base_idx: WINDOW_BASE,
        pace,
        duration: window,
        read_fraction: 0.0,
        rotate_entries: false,
    };
    let (ops, (kills, retired), rounds) = std::thread::scope(|scope| {
        let killing = scope.spawn(|| {
            killer(
                &session.cluster,
                &session.client,
                epoch,
                &schedule,
                args.traced,
            )
        });
        let polling = args
            .traced
            .then(|| scope.spawn(|| poller(&session.cluster, epoch, end_ns)));
        let ops = phase.run();
        let kills = killing.join().expect("killer thread panicked");
        let rounds = polling.map(|p| p.join().expect("poller thread panicked"));
        (ops, kills, rounds.unwrap_or_default())
    });
    let wall = begun.elapsed();
    if let Some(t) = &storage_trace {
        t.set_recording(false);
    }
    session.history.extend_from_slice(&ops);

    // After the faults: a leader again, and every server caught up.
    let settled = Instant::now() + Duration::from_secs(5);
    let caught_up = loop {
        let applied: Vec<Option<u64>> = (0..3)
            .map(|i| {
                session
                    .cluster
                    .status(i, GROUP)
                    .map(|s| s.last_applied.get())
            })
            .collect();
        let level = applied.iter().all(|a| a.is_some() && *a == applied[0]);
        if level && !session.cluster.leaders().is_empty() {
            break true;
        }
        if Instant::now() >= settled {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    r.check(
        1,
        u64::from(!caught_up),
        "no leader, or a respawned server not caught up, 5 s after the last kill",
    );
    let delta = session.cluster.metrics_sum().plus(&retired).since(&before);

    let (succeeded, puts) = steady::tally(&mut r, &ops);
    r.check(
        schedule.len() as u64,
        (schedule.len() - kills.len()) as u64,
        "scheduled kill did not happen",
    );
    let stale = session.read_back(&mut r);

    let mut completions: Vec<u64> = ops.iter().filter(|op| op.ok).map(|op| op.end_ns).collect();
    completions.sort_unstable();
    let kill_times: Vec<u64> = kills.iter().map(|k| k.kill_ns).collect();
    let gaps_ms: Vec<f64> = outage_gaps(&completions, &kill_times, end_ns)
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let summary = Summary {
        headline: (median(&gaps_ms), gaps_ms.len() as u64),
        second: steady::median_ms(&ops, false),
        work_per_s: succeeded as f64 / wall.as_secs_f64(),
        work: succeeded,
        wall,
        slices: Slices::default(),
    };
    println!(
        "  outages (ms): {}   elections_started = {}   stale_final_keys = {stale}",
        gaps_ms
            .iter()
            .map(|g| format!("{g:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
        delta.get(Ctr::ElectionsStarted),
    );
    if !args.traced {
        session.tear_down();
        layers::finish_untraced(&mut r, std::slice::from_ref(&summary));
        return Ok(r);
    }

    layers::entry_series(&mut r, &ops);
    layers::core_series(&mut r, &delta, puts);
    let calls = storage_trace.as_ref().map(|t| t.take()).unwrap_or_default();
    let final_leaders = session.cluster.leaders();
    layers::cluster_series(
        &mut r,
        &calls,
        puts,
        shape.servers,
        &final_leaders,
        wall.as_nanos() as u64,
        session.cluster.data_bytes().saturating_sub(bytes_before),
    );
    r.set("client.stale_final_keys", stale as f64, 1);
    let recovers: Vec<f64> = kills.iter().filter_map(|k| k.recover_ms).collect();
    r.set(
        "storage.recover_ms",
        median(&recovers),
        recovers.len() as u64,
    );

    // The failover timeline, kill by kill, and its spans.
    let mut spans = layers::build_spans(&ops, &calls, |_| GROUP);
    let (mut detect, mut elect, mut recover, mut rejoin) = (vec![], vec![], vec![], vec![]);
    for (k, kill) in kills.iter().enumerate() {
        let t = timeline(kill, &rounds, &completions);
        let parent = spans.len() as u32;
        let mut push = |name, start_ns, end_ns, parent| {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: k as u64,
                server: kill.victim as u32 + 1,
                group: GROUP.get(),
            })
        };
        push("bench.kill", kill.kill_ns, kill.respawn_ns, NONE);
        if let Some(d) = t.detect_ns {
            detect.push((d - kill.kill_ns) as f64 / 1e6);
            push("shard.detect", kill.kill_ns, d, parent);
            if let Some(e) = t.elect_ns {
                elect.push((e - d) as f64 / 1e6);
                push("shard.elect", d, e, parent);
                if let Some(c) = t.recover_ns {
                    recover.push((c - e) as f64 / 1e6);
                    push("client.recover", e, c, parent);
                }
            }
        }
        if let Some(j) = t.rejoin_ns {
            rejoin.push((j - kill.respawn_ns) as f64 / 1e6);
            push("shard.rejoin", kill.respawn_ns, j, NONE);
        }
    }
    r.check(
        kills.len() as u64,
        (kills.len() - rejoin.len()) as u64,
        "respawned server was not seen to catch up",
    );
    r.set("shard.detect_ms", median(&detect), detect.len() as u64);
    r.set("shard.elect_ms", median(&elect), elect.len() as u64);
    r.set("client.recover_ms", median(&recover), recover.len() as u64);
    r.set("shard.rejoin_ms", median(&rejoin), rejoin.len() as u64);

    probes::fetchmap(&mut r, &session.cluster);
    session.tear_down();
    probes::isolated(&mut r, args.seed)?;
    let overhead = reference.map(|base| (summary.second.0, base));
    layers::finish_traced(&mut r, &summary, overhead, &spans);
    Ok(r)
}
