//! `durable-ingest`: depth without a client. One thread per group calls
//! `ShardedNode::propose_batch` (128 commands) on that group's leader,
//! awaits the last index and reads the last key back. Engine batching,
//! WAL group commit, pipelined AppendEntries and the peer codec do the
//! work; client, client wire and `ClientService` are bypassed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use escape_core::types::GroupId;

use crate::cluster::{Cluster, ClusterShape, CounterSum, Ctr, BATCH, KEYS};
use crate::kv;
use crate::layers::{self, Summary};
use crate::load::generator_threads;
use crate::probes;
use crate::report::RunResult;
use crate::spec;
use crate::stats::{self, median, percentile, sorted};
use crate::steady::{RunArgs, REFERENCE_BASE, REFERENCE_SHARE, ROUNDS, SLICE, WINDOW_BASE};
use crate::timed_storage::StorageTrace;
use crate::trace::{self, Span, NONE};

/// Batches per group per second of `--seconds`: the frozen count. Sized
/// so the run takes about `--seconds` on the reference box today; the
/// log is never compacted, so the count also bounds memory.
pub const BATCHES_PER_GROUP_PER_SECOND: u64 = 400;
/// Warm-up batches per group at the end of set-up.
const WARMUP_BATCHES: u64 = 8;
/// Times a batch is offered before it counts as failed.
const OFFERS: usize = 4;

const SHAPE: ClusterShape = ClusterShape {
    servers: 3,
    shards: 2,
    durable: true,
};

/// One batch, as its issuing thread timed it (ns since the epoch).
#[derive(Clone, Copy, Debug)]
struct Batch {
    group: GroupId,
    /// Writer index of the batch's first command.
    first_idx: u64,
    start_ns: u64,
    /// `propose_batch` returned: every command has its log index.
    proposed_ns: u64,
    applied_ns: u64,
    read_ns: u64,
    /// `BATCH` when every offer of the batch failed, else 0.
    failed: u64,
}

/// A booted, preloaded, warmed-up cluster to ingest into.
struct Ingest {
    cluster: Cluster,
    leaders: HashMap<GroupId, usize>,
    /// Key ranks owned by each group.
    ranks: HashMap<GroupId, Vec<u32>>,
    epoch: Instant,
    setup_s: f64,
}

impl Ingest {
    /// Boot, first elections, preload, warm-up batches.
    fn set_up(
        args: &RunArgs,
        storage_trace: Option<Arc<StorageTrace>>,
        r: &mut RunResult,
    ) -> Result<Ingest, String> {
        let epoch = storage_trace
            .as_ref()
            .map_or_else(Instant::now, |t| t.epoch());
        let begun = Instant::now();
        let cluster = Cluster::boot(SHAPE, args.seed, spec::DURABLE_INGEST, storage_trace)?;
        let leaders = cluster.await_leaders()?;
        r.check(
            KEYS as u64,
            cluster.preload(&leaders),
            "preload command failed",
        );
        let mut ranks: HashMap<GroupId, Vec<u32>> = HashMap::new();
        for rank in 0..KEYS {
            ranks
                .entry(cluster.map.owner(kv::key(rank).as_bytes()))
                .or_default()
                .push(rank);
        }
        let mut ingest = Ingest {
            cluster,
            leaders,
            ranks,
            epoch,
            setup_s: 0.0,
        };
        let (warm, _) = ingest.run(WARMUP_BATCHES, 0);
        tally(r, &warm);
        ingest.setup_s = begun.elapsed().as_secs_f64();
        Ok(ingest)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Batch `b` of `group`: propose, await the last index, read the last
    /// key back and check it holds what was just written. `leaders` is
    /// the calling thread's view of who leads; a batch that does not go
    /// through (an election moved the leader — rare, but a stalled fsync
    /// can do it) is offered again after a fresh look.
    fn batch(
        &self,
        leaders: &mut HashMap<GroupId, usize>,
        group: GroupId,
        b: u64,
        base_idx: u64,
    ) -> Batch {
        let ranks = &self.ranks[&group];
        let first_idx = base_idx + (group.get() as u64 * (1 << 24) + b) * BATCH as u64;
        let mut last = (0u32, String::new());
        let items: Vec<(Bytes, Bytes)> = (0..BATCH as u64)
            .map(|j| {
                let rank = ranks[((b * BATCH as u64 + j) % ranks.len() as u64) as usize];
                let key = kv::key(rank);
                let command = kv::put(&key, &kv::value(rank, first_idx + j));
                let item = (Bytes::copy_from_slice(key.as_bytes()), command);
                last = (rank, key);
                item
            })
            .collect();
        let mut out = Batch {
            group,
            first_idx,
            start_ns: self.now_ns(),
            proposed_ns: 0,
            applied_ns: 0,
            read_ns: 0,
            failed: BATCH as u64,
        };
        for attempt in 0..OFFERS {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(10));
                *leaders = self.cluster.leaders();
            }
            let Some(&leader) = leaders.get(&group) else {
                continue;
            };
            let slot = self.cluster.nodes[leader].read().expect("node slot");
            let Some(node) = slot.as_ref() else {
                continue;
            };
            // Every command must be accepted, the last one applied and
            // read back; anything less (leadership moved mid-batch) and
            // the whole batch is offered again — its values are the same,
            // so applying some twice changes nothing.
            let outcomes = node.propose_batch(items.clone());
            let accepted = outcomes
                .iter()
                .all(|o| matches!(o, Ok((g, _)) if *g == group));
            let Some(Ok((_, last_index))) = outcomes.last().filter(|_| accepted) else {
                continue;
            };
            out.proposed_ns = self.now_ns();
            let applied = node.await_applied(group, *last_index).ok();
            out.applied_ns = self.now_ns();
            let (rank, key) = &last;
            let read = node.read(key.as_bytes(), kv::get(key)).ok();
            out.read_ns = self.now_ns();
            let wanted = Some(first_idx + BATCH as u64 - 1);
            if applied.is_some_and(|reply| kv::put_ok(&reply))
                && read.is_some_and(|(_, reply)| kv::get_writer(&reply, *rank) == wanted)
            {
                out.failed = 0;
                return out;
            }
        }
        out
    }

    /// `per_group` batches into every group, the groups dealt round-robin
    /// to at most `G` threads. Returns the batches and the wall time.
    fn run(&self, per_group: u64, base_idx: u64) -> (Vec<Batch>, Duration) {
        let groups: Vec<GroupId> = self.cluster.map.groups().collect();
        let threads = generator_threads().min(groups.len());
        let begun = Instant::now();
        let batches = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mine: Vec<GroupId> =
                        groups.iter().copied().skip(t).step_by(threads).collect();
                    scope.spawn(move || {
                        let mut leaders = self.leaders.clone();
                        let mut out = Vec::new();
                        for b in 0..per_group {
                            for &group in &mine {
                                out.push(self.batch(&mut leaders, group, b, base_idx));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        (batches, begun.elapsed())
    }

    /// The measured stretch: `per_group` batches per group, then the
    /// output checks — every command applied and read back, and every
    /// replica of every group on the same applied index afterwards.
    fn measure(&self, per_group: u64, r: &mut RunResult) -> (Vec<Batch>, CounterSum, Summary) {
        let before = self.cluster.metrics_sum();
        let (batches, wall) = self.run(per_group, WINDOW_BASE);
        let delta = self.cluster.metrics_sum().since(&before);
        let applied = tally(r, &batches);
        if delta.get(Ctr::ElectionsStarted) > 0 {
            // Legitimate behaviour (a stalled fsync can outlast the 150 ms
            // timeout), so not a failed check — but the figures of this
            // window include a failover and are not a steady state.
            println!(
                "  NOTE: {} election(s) started during this steady window",
                delta.get(Ctr::ElectionsStarted)
            );
        }
        let settle = Instant::now() + Duration::from_secs(5);
        let converged = loop {
            let level = self.cluster.map.groups().all(|g| {
                let applied: Vec<Option<u64>> = (0..SHAPE.servers)
                    .map(|i| self.cluster.status(i, g).map(|s| s.last_applied.get()))
                    .collect();
                applied.iter().all(|a| a.is_some() && *a == applied[0])
            });
            if level || Instant::now() >= settle {
                break level;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        r.check(
            1,
            u64::from(!converged),
            "replicas did not converge within 5 s",
        );
        let summary = Summary {
            headline: median_ms(&batches, |b| b.applied_ns - b.start_ns),
            second: median_ms(&batches, |b| b.read_ns - b.applied_ns),
            work_per_s: applied as f64 / wall.as_secs_f64(),
            work: applied,
            wall,
            slices: stats::slices(
                batches.iter().filter(|b| b.failed == 0).map(|b| {
                    let ms = (b.applied_ns - b.start_ns) as f64 / 1e6;
                    (b.start_ns, b.read_ns, BATCH as f64, Some(ms))
                }),
                batches.iter().map(|b| b.start_ns).min().unwrap_or(0),
                batches.iter().map(|b| b.read_ns).max().unwrap_or(0),
                SLICE.as_nanos() as u64,
            ),
        };
        (batches, delta, summary)
    }
}

/// Counts the batches' commands into the output checks; returns the
/// commands that applied.
fn tally(r: &mut RunResult, batches: &[Batch]) -> u64 {
    let sent = (batches.len() * BATCH) as u64;
    let failed: u64 = batches.iter().map(|b| b.failed).sum();
    r.check(
        sent,
        failed,
        "ingest command refused, not applied, or not read back",
    );
    sent - failed
}

fn median_ms(batches: &[Batch], span: impl Fn(&Batch) -> u64) -> (f64, u64) {
    let mut v: Vec<f64> = batches
        .iter()
        .filter(|b| b.failed == 0)
        .map(|b| span(b) as f64 / 1e6)
        .collect();
    (percentile(sorted(&mut v), 0.50), v.len() as u64)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut r = RunResult::new(spec::DURABLE_INGEST, args.traced);
    let per_group = (BATCHES_PER_GROUP_PER_SECOND as f64 * args.seconds).ceil() as u64;

    if !args.traced {
        let mut rounds = Vec::new();
        let mut setups = Vec::new();
        for _ in 0..ROUNDS {
            let ingest = Ingest::set_up(args, None, &mut r)?;
            setups.push(ingest.setup_s);
            let (_, delta, summary) = ingest.measure(per_group.div_ceil(ROUNDS as u64), &mut r);
            println!(
                "  round: batch_p50_ms {:.4}, {:.0} cmds/s, elections_started {}",
                summary.headline.0,
                summary.work_per_s,
                delta.get(Ctr::ElectionsStarted),
            );
            ingest.cluster.teardown();
            rounds.push(summary);
        }
        r.set(spec::SETUP_S, median(&setups), setups.len() as u64);
        layers::finish_untraced(&mut r, &rounds);
        return Ok(r);
    }

    // Traced: one round, with the storage wrapper installed.
    let storage_trace = StorageTrace::new(Instant::now());
    let ingest = Ingest::set_up(args, Some(storage_trace.clone()), &mut r)?;
    let reference = {
        let count = (per_group as f64 * REFERENCE_SHARE).ceil() as u64;
        let (batches, _) = ingest.run(count, REFERENCE_BASE);
        tally(&mut r, &batches);
        median_ms(&batches, |b| b.applied_ns - b.start_ns).0
    };
    let bytes_before = ingest.cluster.data_bytes();
    storage_trace.set_recording(true);
    let (batches, delta, summary) = ingest.measure(per_group, &mut r);
    storage_trace.set_recording(false);
    let wal_bytes = ingest.cluster.data_bytes().saturating_sub(bytes_before);
    let applied = summary.work;

    r.set(
        "shard.batch_apply_us",
        summary.headline.0 * 1e3,
        summary.headline.1,
    );
    r.set("shard.read_us", summary.second.0 * 1e3, summary.second.1);
    layers::core_series(&mut r, &delta, applied);
    let calls = storage_trace.take();
    layers::cluster_series(
        &mut r,
        &calls,
        applied,
        SHAPE.servers,
        &ingest.leaders,
        summary.wall.as_nanos() as u64,
        wal_bytes,
    );
    probes::fetchmap(&mut r, &ingest.cluster);

    let mut spans = Vec::new();
    for b in &batches {
        let parent = spans.len() as u32;
        for (name, start_ns, end_ns, parent) in [
            ("shard.batch_apply", b.start_ns, b.applied_ns, NONE),
            ("shard.propose_batch", b.start_ns, b.proposed_ns, parent),
            ("shard.await_applied", b.proposed_ns, b.applied_ns, parent),
            ("shard.read", b.applied_ns, b.read_ns, NONE),
        ] {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: b.first_idx,
                server: NONE,
                group: b.group.get(),
            });
        }
    }
    layers::push_storage_spans(&mut spans, &calls);
    let storage = ["storage.persist", "storage.sync"];
    trace::adopt(&mut spans, "shard.propose_batch", &storage);
    trace::adopt(&mut spans, "shard.await_applied", &storage);
    layers::replicate_self(
        &mut r,
        &spans,
        ["shard.propose_batch", "shard.await_applied"],
    );

    probes::after_window(&mut r, ingest.cluster, args.seed)?;
    let overhead = Some((summary.headline.0, reference));
    layers::finish_traced(&mut r, &summary, overhead, &spans);
    Ok(r)
}
