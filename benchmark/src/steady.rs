//! `durable-mixed` and `memory-reads`: the two steady client workloads,
//! and the session set-up (boot, first elections, preload, client
//! connect, warm-up) every TCP workload starts from.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use escape_client::{Client, ClientConfig};
use escape_core::types::GroupId;

use crate::cluster::{self, Cluster, ClusterShape, CounterSum, Ctr};
use crate::layers::{self, Summary};
use crate::load::{self, Entry, Op, Pace, Phase};
use crate::probes;
use crate::report::RunResult;
use crate::spec;
use crate::stats::{self, median, percentile, Slices};
use crate::timed_storage::StorageTrace;

/// What the command line fixed for one run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
}

/// An untraced run sets up and measures this many times, each round on
/// a fresh cluster for its share of `--seconds`; `setup_s` is the median
/// over the rounds, and `layers::finish_untraced` says how the other
/// end-to-end metrics come out of them.
pub const ROUNDS: usize = 5;
/// Closed-loop warm-up at the end of every set-up: connections dialled,
/// shard map fetched, leader hints learnt, leases held.
const WARMUP: Duration = Duration::from_millis(250);
/// Width of the slices a closed loop's window is judged in: a few
/// thousand operations each, and short enough to fit inside the host's
/// briefest undisturbed spells.
pub const SLICE: Duration = Duration::from_millis(100);
/// A traced run first measures an untraced stretch this share of the
/// window long, as the base of `bench.trace_overhead_pct`.
pub const REFERENCE_SHARE: f64 = 0.25;

/// Arrival-index ranges of the phases of one run.
pub const WARMUP_BASE: u64 = 0;
pub const REFERENCE_BASE: u64 = 1 << 32;
pub const WINDOW_BASE: u64 = 2 << 32;

/// A booted, preloaded, warmed-up cluster with its one shared client.
pub struct Session {
    pub cluster: Cluster,
    pub client: Client,
    pub leaders: HashMap<GroupId, usize>,
    pub epoch: Instant,
    /// Every operation issued so far (the read-back needs all puts).
    pub history: Vec<Op>,
    pub setup_s: f64,
}

impl Session {
    pub fn set_up(
        workload: &str,
        shape: ClusterShape,
        client_config: ClientConfig,
        read_fraction: f64,
        args: &RunArgs,
        storage_trace: Option<Arc<StorageTrace>>,
        r: &mut RunResult,
    ) -> Result<Session, String> {
        let epoch = storage_trace
            .as_ref()
            .map_or_else(Instant::now, |t| t.epoch());
        let begun = Instant::now();
        let cluster = Cluster::boot(shape, args.seed, workload, storage_trace)?;
        let leaders = cluster.await_leaders()?;
        r.check(
            cluster::KEYS as u64,
            cluster.preload(&leaders),
            "preload command failed",
        );
        let client = Client::connect(&cluster.addrs, client_config)
            .map_err(|e| format!("client bootstrap: {e}"))?;
        let mut session = Session {
            cluster,
            client,
            leaders,
            epoch,
            history: Vec::new(),
            setup_s: 0.0,
        };
        let warm = session.run(
            WARMUP_BASE,
            Pace::Closed,
            WARMUP,
            read_fraction,
            false,
            args,
        );
        r.check(
            warm.len() as u64,
            warm.iter().filter(|op| !op.ok).count() as u64,
            "warm-up operation failed",
        );
        session.setup_s = begun.elapsed().as_secs_f64();
        Ok(session)
    }

    /// Runs one phase of load and remembers its operations.
    pub fn run(
        &mut self,
        base_idx: u64,
        pace: Pace,
        duration: Duration,
        read_fraction: f64,
        rotate_entries: bool,
        args: &RunArgs,
    ) -> Vec<Op> {
        let ops = Phase {
            cluster: &self.cluster,
            client: &self.client,
            leaders: &self.leaders,
            epoch: self.epoch,
            seed: args.seed,
            base_idx,
            pace,
            duration,
            read_fraction,
            rotate_entries,
        }
        .run();
        self.history.extend_from_slice(&ops);
        ops
    }

    /// Reads back every key with an acknowledged put; wrong values fail,
    /// stale ones are returned for `client.stale_final_keys`.
    pub fn read_back(&self, r: &mut RunResult) -> u64 {
        let back = load::read_back(&self.client, &self.history);
        r.check(
            back.checked,
            back.wrong,
            "key read back a value never sent for it",
        );
        back.stale
    }

    pub fn tear_down(self) {
        self.client.disconnect();
        self.cluster.teardown();
    }
}

/// Counts the window's operations into the output checks and returns
/// (successful ops, successful puts).
pub fn tally(r: &mut RunResult, ops: &[Op]) -> (u64, u64) {
    let failed = ops.iter().filter(|op| !op.ok).count() as u64;
    r.check(
        ops.len() as u64,
        failed,
        "operation failed or returned a wrong value",
    );
    let puts = ops.iter().filter(|op| op.ok && !op.is_get).count() as u64;
    (ops.len() as u64 - failed, puts)
}

/// Median latency (ms, from intended start) of the successful puts or
/// gets that went through the client, with the sample count.
pub fn median_ms(ops: &[Op], is_get: bool) -> (f64, u64) {
    let ms = load::millis(
        ops,
        |op| op.entry == Entry::Client && op.is_get == is_get,
        Op::latency_ns,
    );
    (percentile(&ms, 0.50), ms.len() as u64)
}

struct Steady {
    name: &'static str,
    durable: bool,
    pace: Pace,
    read_fraction: f64,
    /// Whether gets are the headline (and puts second) or the reverse.
    gets_headline: bool,
}

/// One measured window on a set-up session, with its output checks
/// counted into `r`.
struct Window {
    ops: Vec<Op>,
    /// Engine counters over the window.
    delta: CounterSum,
    puts: u64,
    stale: u64,
    summary: Summary,
}

fn measure(
    w: &Steady,
    session: &mut Session,
    window: Duration,
    args: &RunArgs,
    r: &mut RunResult,
) -> Window {
    let before = session.cluster.metrics_sum();
    let begun = Instant::now();
    let ops = session.run(
        WINDOW_BASE,
        w.pace,
        window,
        w.read_fraction,
        args.traced,
        args,
    );
    let wall = begun.elapsed();
    let delta = session.cluster.metrics_sum().since(&before);
    let (succeeded, puts) = tally(r, &ops);
    if delta.get(Ctr::ElectionsStarted) > 0 {
        // Legitimate behaviour (a stalled fsync can outlast the 150 ms
        // timeout), so not a failed check — but the figures of this
        // window include a failover and are not a steady state.
        println!(
            "  NOTE: {} election(s) started during this steady window",
            delta.get(Ctr::ElectionsStarted)
        );
    }
    let stale = session.read_back(r);
    let slices = match w.pace {
        Pace::Open { .. } => Slices::default(),
        Pace::Closed => {
            let from_ns = ops.iter().map(|op| op.start_ns).min().unwrap_or(0);
            let timed = |op: &Op| op.entry == Entry::Client && op.is_get == w.gets_headline;
            stats::slices(
                ops.iter().filter(|op| op.ok).map(|op| {
                    let ms = timed(op).then(|| op.latency_ns() as f64 / 1e6);
                    (op.start_ns, op.end_ns, 1.0, ms)
                }),
                from_ns,
                from_ns + window.as_nanos() as u64,
                SLICE.as_nanos() as u64,
            )
        }
    };
    let summary = Summary {
        headline: median_ms(&ops, w.gets_headline),
        second: median_ms(&ops, !w.gets_headline),
        work_per_s: succeeded as f64 / wall.as_secs_f64(),
        work: succeeded,
        wall,
        slices,
    };
    Window {
        ops,
        delta,
        puts,
        stale,
        summary,
    }
}

pub fn run(workload: &'static str, args: &RunArgs) -> Result<RunResult, String> {
    let w = match workload {
        spec::DURABLE_MIXED => Steady {
            name: spec::DURABLE_MIXED,
            durable: true,
            pace: Pace::Open { rate: 1000.0 },
            read_fraction: 0.50,
            gets_headline: false,
        },
        _ => Steady {
            name: spec::MEMORY_READS,
            durable: false,
            pace: Pace::Closed,
            read_fraction: 0.95,
            gets_headline: true,
        },
    };
    let mut r = RunResult::new(w.name, args.traced);
    let shape = ClusterShape {
        servers: 3,
        shards: 2,
        durable: w.durable,
    };
    let config = ClientConfig {
        seed: args.seed,
        ..ClientConfig::default()
    };
    let window = Duration::from_secs_f64(args.seconds);

    if !args.traced {
        let mut rounds = Vec::new();
        let mut setups = Vec::new();
        for _ in 0..ROUNDS {
            let mut session = Session::set_up(
                w.name,
                shape,
                config.clone(),
                w.read_fraction,
                args,
                None,
                &mut r,
            )?;
            setups.push(session.setup_s);
            let measured = measure(&w, &mut session, window / ROUNDS as u32, args, &mut r);
            println!(
                "  round: {} {:.4} ms, {:.1} /s, elections_started {}, stale_final_keys {}",
                spec::alias(w.name, spec::HEADLINE_MS),
                measured.summary.headline.0,
                measured.summary.work_per_s,
                measured.delta.get(Ctr::ElectionsStarted),
                measured.stale,
            );
            session.tear_down();
            rounds.push(measured.summary);
        }
        r.set(spec::SETUP_S, median(&setups), setups.len() as u64);
        layers::finish_untraced(&mut r, &rounds);
        return Ok(r);
    }

    // Traced: one round, with the storage wrapper installed.
    let storage_trace = StorageTrace::new(Instant::now());
    let mut session = Session::set_up(
        w.name,
        shape,
        config,
        w.read_fraction,
        args,
        Some(storage_trace.clone()),
        &mut r,
    )?;
    let reference = {
        let ops = session.run(
            REFERENCE_BASE,
            w.pace,
            window.mul_f64(REFERENCE_SHARE),
            w.read_fraction,
            false,
            args,
        );
        tally(&mut r, &ops);
        median_ms(&ops, w.gets_headline).0
    };
    let bytes_before = session.cluster.data_bytes();
    storage_trace.set_recording(true);
    let Window {
        ops,
        delta,
        puts,
        stale,
        summary,
    } = measure(&w, &mut session, window, args, &mut r);
    storage_trace.set_recording(false);
    let wal_bytes = session.cluster.data_bytes().saturating_sub(bytes_before);

    layers::entry_series(&mut r, &ops);
    layers::core_series(&mut r, &delta, puts);
    let calls = storage_trace.take();
    layers::cluster_series(
        &mut r,
        &calls,
        puts,
        shape.servers,
        &session.leaders,
        summary.wall.as_nanos() as u64,
        wal_bytes,
    );
    r.set("client.stale_final_keys", stale as f64, 1);
    probes::fetchmap(&mut r, &session.cluster);

    let map = session.cluster.map.clone();
    let spans = layers::build_spans(&ops, &calls, |rank| {
        map.owner(crate::kv::key(rank).as_bytes())
    });
    layers::replicate_self(&mut r, &spans, ["shard.propose", "shard.await_applied"]);

    session.client.disconnect();
    probes::after_window(&mut r, session.cluster, args.seed)?;

    let overhead = Some((summary.headline.0, reference));
    layers::finish_traced(&mut r, &summary, overhead, &spans);
    Ok(r)
}
