//! `sim-loss`: the paper's Fig. 11 point — leader-failure trials on the
//! simulator at n = 50 under 20 % broadcast omission. Simulated clock
//! and one seed, so the election metrics repeat exactly; only
//! `escape-core`, `escape-simnet` and `escape-cluster` run, and the
//! wall-clock trial rate is the engine's CPU cost at scale.

use std::time::{Duration, Instant};

use escape_cluster::{run_leader_failure_trial, ClusterConfig, Protocol, TrialConfig};
use escape_simnet::loss::LossModel;

use crate::layers::{self, Summary};
use crate::probes;
use crate::report::RunResult;
use crate::spec;
use crate::stats::{self, median, percentile, sorted};
use crate::steady::{RunArgs, REFERENCE_SHARE, ROUNDS};
use crate::trace::{Span, NONE};

const SERVERS: usize = 50;
const LOSS: f64 = 0.20;
/// Client commands proposed before the crash, so logs diverge under loss.
const WORKLOAD_COMMANDS: usize = 30;
/// ESCAPE trials per second of `--seconds`: the frozen count, sized so
/// the run takes about `--seconds` on the reference box today.
pub const TRIALS_PER_SECOND: u64 = 200;
/// Width of the slices the trial rate is judged in: some fifty trials.
const SLICE: Duration = Duration::from_millis(200);
/// Trials per set-up (untimed warm-up of allocator and caches).
const WARMUP_TRIALS: u64 = 100;
/// A trial may come back without a measurement although a leader was
/// elected: `measure_election` wants a campaign that *began* after the
/// crash, and now and then (about 2 in 10 000 trials here) one begun
/// just before it wins just after. Such a trial is counted in
/// `cluster.timed_out` and enters the percentiles at the horizon; the
/// run fails only when more than this share come back unmeasured, which
/// no artefact explains and a liveness regression would.
const UNMEASURED_SHARE_ALLOWED: f64 = 0.01;

/// What one batch of trials measured.
#[derive(Default)]
struct Trials {
    /// Crash → new leader in simulated ms, ascending; a trial without a
    /// measurement enters at the horizon.
    total_ms: Vec<f64>,
    detection_ms: Vec<f64>,
    election_ms: Vec<f64>,
    campaigns: u64,
    split_votes: u64,
    unmeasured: u64,
    unsafe_trials: u64,
    messages: u64,
    /// Wall-clock (start, end) of each trial, ns since the epoch.
    walls: Vec<(u64, u64)>,
    wall: Duration,
}

impl Trials {
    /// Counts the trials into the output checks: every one must stay
    /// safe, and (but for the known artefact) elect within the horizon.
    fn check(&self, r: &mut RunResult, what: &str) {
        let count = self.walls.len() as u64;
        r.check(
            count,
            self.unsafe_trials,
            &format!("{what} trial violated safety"),
        );
        if self.unmeasured as f64 > UNMEASURED_SHARE_ALLOWED * count as f64 {
            r.check(
                0,
                self.unmeasured,
                &format!("{what} trial elected no leader within the horizon"),
            );
        }
    }
}

fn run_trials(protocol: Protocol, base_seed: u64, count: u64, epoch: Instant) -> Trials {
    let mut out = Trials::default();
    let begun = Instant::now();
    for i in 0..count {
        let mut cluster = ClusterConfig::paper_network(SERVERS, protocol.clone(), base_seed + i);
        cluster.loss = LossModel::BroadcastOmission(LOSS);
        // `check_safety` stays off: that per-event structural sweep flags
        // the transient configuration duplicates a rearrangement in
        // flight legitimately produces (every lossy trial reads unsafe).
        // Election and commit safety are observed unconditionally, and
        // `safe` below reports them.
        let config = TrialConfig::with_workload(cluster, WORKLOAD_COMMANDS);
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let outcome = run_leader_failure_trial(&config);
        out.walls
            .push((start_ns, epoch.elapsed().as_nanos() as u64));
        out.messages += outcome.messages_sent;
        out.unsafe_trials += u64::from(!outcome.safe);
        match outcome.measurement {
            Some(m) => {
                out.total_ms.push(m.total().as_micros() as f64 / 1e3);
                out.detection_ms
                    .push(m.detection().as_micros() as f64 / 1e3);
                out.election_ms.push(m.election().as_micros() as f64 / 1e3);
                out.campaigns += m.campaigns as u64;
                out.split_votes += u64::from(m.competing_phases > 0);
            }
            None => {
                out.total_ms.push(config.horizon.as_micros() as f64 / 1e3);
                out.unmeasured += 1;
            }
        }
    }
    out.wall = begun.elapsed();
    sorted(&mut out.total_ms);
    out
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut r = RunResult::new(spec::SIM_LOSS, args.traced);
    let epoch = Instant::now();
    // The trial seeds: disjoint per `--seed`, shared by both protocols.
    let base_seed = args.seed.wrapping_mul(1_000_003);
    let escape = Protocol::escape_paper_default;

    let rounds = if args.traced { 1 } else { ROUNDS };
    let setup_times: Vec<f64> = (0..rounds)
        .map(|_| {
            // The same trials whatever the seed, so set-up time compares
            // across seeds (trials differ in cost).
            let warm = run_trials(escape(), 0x5EED, WARMUP_TRIALS, epoch);
            warm.check(&mut r, "warm-up");
            warm.wall.as_secs_f64()
        })
        .collect();
    r.set(spec::SETUP_S, median(&setup_times), rounds as u64);

    let count = (TRIALS_PER_SECOND as f64 * args.seconds).ceil() as u64;
    // Traced: a quarter as many trials first, as the untraced base of
    // the overhead figure (wall ms per trial).
    let reference = args.traced.then(|| {
        let n = (count as f64 * REFERENCE_SHARE).ceil() as u64;
        let trials = run_trials(escape(), base_seed ^ 0xBA5E, n, epoch);
        trials.check(&mut r, "reference");
        trials.wall.as_secs_f64() * 1e3 / n as f64
    });

    let trials = run_trials(escape(), base_seed, count, epoch);
    trials.check(&mut r, "escape");
    let n = trials.total_ms.len() as u64;
    // The election figures pool every trial (they are exact); the rate
    // is the undisturbed level over the window's slices.
    let slices = stats::slices(
        trials.walls.iter().map(|w| (w.0, w.1, 1.0, None)),
        trials.walls.first().map_or(0, |w| w.0),
        trials.walls.last().map_or(0, |w| w.1),
        SLICE.as_nanos() as u64,
    );
    let summary = Summary {
        headline: (percentile(&trials.total_ms, 0.50), n),
        second: (percentile(&trials.total_ms, 0.95), n),
        work_per_s: count as f64 / trials.wall.as_secs_f64(),
        work: count,
        wall: trials.wall,
        slices,
    };
    if !args.traced {
        println!(
            "  election_ms_p95 {:.3}   unmeasured trials {}   trials/s by slice: {}",
            summary.second.0,
            trials.unmeasured,
            summary
                .slices
                .rates
                .iter()
                .map(|rate| format!("{rate:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        layers::finish_untraced(&mut r, std::slice::from_ref(&summary));
        return Ok(r);
    }

    // The reference protocol on the same seeds, a quarter as many.
    let raft_count = (count as f64 * REFERENCE_SHARE).ceil() as u64;
    let raft = run_trials(Protocol::raft_paper_default(), base_seed, raft_count, epoch);
    raft.check(&mut r, "raft reference");
    let measured = trials.detection_ms.len() as u64;
    let per_measured = |total: u64| total as f64 / measured.max(1) as f64;
    r.set(
        "cluster.detection_ms_p50",
        median(&trials.detection_ms),
        measured,
    );
    r.set(
        "cluster.election_phase_ms_p50",
        median(&trials.election_ms),
        measured,
    );
    r.set(
        "cluster.campaigns_mean",
        per_measured(trials.campaigns),
        measured,
    );
    r.set(
        "cluster.split_vote_share",
        per_measured(trials.split_votes),
        measured,
    );
    r.set("cluster.timed_out", trials.unmeasured as f64, count);
    r.set(
        "cluster.msgs_per_trial",
        trials.messages as f64 / count as f64,
        count,
    );
    r.set(
        "cluster.raft_election_ms_p50",
        percentile(&raft.total_ms, 0.50),
        raft.total_ms.len() as u64,
    );
    r.set(
        "simnet.msgs_per_s",
        trials.messages as f64 / trials.wall.as_secs_f64(),
        trials.messages,
    );

    let spans: Vec<Span> = trials
        .walls
        .iter()
        .map(|w| ("cluster.trial", w))
        .chain(raft.walls.iter().map(|w| ("cluster.trial_raft", w)))
        .enumerate()
        .map(|(i, (name, &(start_ns, end_ns)))| Span {
            name,
            start_ns,
            end_ns,
            parent: NONE,
            request: i as u64,
            server: NONE,
            group: NONE,
        })
        .collect();
    probes::isolated(&mut r, args.seed)?;
    let per_trial_ms = trials.wall.as_secs_f64() * 1e3 / count as f64;
    let overhead = reference.map(|base| (per_trial_ms, base));
    layers::finish_traced(&mut r, &summary, overhead, &spans);
    Ok(r)
}
