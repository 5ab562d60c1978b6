//! Turns what a traced window recorded — operations by entry point,
//! storage calls, engine-counter deltas — into the per-layer series and
//! the span list. Shared by the TCP workloads.

use std::collections::HashMap;
use std::time::Duration;

use escape_core::types::GroupId;

use crate::cluster::{self, CounterSum, Ctr};
use crate::load::{Entry, Op};
use crate::report::RunResult;
use crate::spec;
use crate::stats::{self, percentile, sorted, tail_percentile, Slices};
use crate::timed_storage::StorageSpan;
use crate::trace::{self, Span, NONE};

/// Median and sample count of an ascending sample.
fn p50(values: &[f64]) -> (f64, u64) {
    (percentile(values, 0.50), values.len() as u64)
}

/// The highest percentile up to p99 with ten samples beyond it.
fn tail(values: &[f64]) -> (f64, u64) {
    let p = tail_percentile(values.len(), 0.99);
    (percentile(values, p), values.len() as u64)
}

fn micros(ops: &[Op], entry: Entry, is_get: bool) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .iter()
        .filter(|op| op.ok && op.entry == entry && op.is_get == is_get)
        .map(|op| op.service_ns() as f64 / 1e3)
        .collect();
    sorted(&mut v);
    v
}

/// client / transport / shard / bench series from the operations of a
/// traced window.
pub fn entry_series(r: &mut RunResult, ops: &[Op]) {
    for (name_p50, name_tail, is_get) in [
        ("client.put_p50_ms", "client.put_p99_ms", false),
        ("client.get_p50_ms", "client.get_p99_ms", true),
    ] {
        let ms = crate::load::millis(
            ops,
            |op| op.entry == Entry::Client && op.is_get == is_get,
            Op::latency_ns,
        );
        let (v, n) = p50(&ms);
        r.set(name_p50, v, n);
        let (v, n) = tail(&ms);
        r.set(name_tail, v, n);
    }
    let client_put = p50(&micros(ops, Entry::Client, false));
    let raw_put = p50(&micros(ops, Entry::Raw, false));
    let raw_get = p50(&micros(ops, Entry::Raw, true));
    let inproc_put = p50(&micros(ops, Entry::Inproc, false));
    let inproc_get = p50(&micros(ops, Entry::Inproc, true));
    r.set("transport.put_rtt_us", raw_put.0, raw_put.1);
    r.set("transport.get_rtt_us", raw_get.0, raw_get.1);
    r.set("shard.propose_apply_us", inproc_put.0, inproc_put.1);
    r.set("shard.read_us", inproc_get.0, inproc_get.1);
    if raw_put.1 > 0 {
        r.set(
            "client.self_us",
            client_put.0 - raw_put.0,
            client_put.1.min(raw_put.1),
        );
    }
    if inproc_put.1 > 0 {
        r.set(
            "transport.service_self_us",
            raw_put.0 - inproc_put.0,
            raw_put.1.min(inproc_put.1),
        );
    }

    let mut done: Vec<u64> = ops.iter().filter(|op| op.ok).map(|op| op.end_ns).collect();
    done.sort_unstable();
    let longest = done.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    r.set(
        "client.outage_max_ms",
        longest as f64 / 1e6,
        done.len() as u64,
    );

    let mut late: Vec<f64> = ops
        .iter()
        .map(|op| op.start_ns.saturating_sub(op.due_ns) as f64 / 1e3)
        .collect();
    let late = sorted(&mut late);
    r.set(
        "bench.late_p50_us",
        percentile(late, 0.50),
        late.len() as u64,
    );
    let (v, n) = tail(late);
    r.set("bench.late_p99_us", v, n);
}

/// core / transport counters over the window, per successful put.
pub fn core_series(r: &mut RunResult, delta: &CounterSum, puts: u64) {
    let ratio = |num: Ctr, den: u64| delta.get(num) as f64 / den.max(1) as f64;
    let batches = delta.get(Ctr::ProposeBatches);
    r.set(
        "core.batch_mean",
        ratio(Ctr::CommandsProposed, batches),
        batches,
    );
    let timed = delta.get(Ctr::CommitsTimed);
    r.set(
        "core.commit_us_mean",
        ratio(Ctr::CommitMicros, timed),
        timed,
    );
    r.set("core.msgs_per_put", ratio(Ctr::MessagesSent, puts), puts);
    let reads = delta.get(Ctr::ReadsServed);
    r.set(
        "core.lease_read_share",
        ratio(Ctr::LeaseReads, reads),
        reads,
    );
    for (name, counter) in [
        ("core.quorum_reads", Ctr::QuorumReads),
        ("core.elections_started", Ctr::ElectionsStarted),
        ("core.step_downs", Ctr::StepDowns),
        ("core.backpressure_resets", Ctr::BackpressureResets),
        ("transport.frames_dropped", Ctr::FramesDropped),
    ] {
        r.set(name, delta.get(counter) as f64, 1);
    }
    if let (Some(apply), true) = (r.get("shard.propose_apply_us"), timed > 0) {
        if apply.samples > 0 {
            let handoff = apply.value - ratio(Ctr::CommitMicros, timed);
            r.set("shard.handoff_us", handoff, apply.samples.min(timed));
        }
    }
}

/// storage series from the timing wrapper's calls during the window,
/// and what else is read off the cluster right after it. `leaders` says
/// which server led each group; `puts` are the successful writes;
/// `wal_bytes` is how much the data directories grew.
pub fn cluster_series(
    r: &mut RunResult,
    calls: &[StorageSpan],
    puts: u64,
    servers: usize,
    leaders: &HashMap<GroupId, usize>,
    window_ns: u64,
    wal_bytes: u64,
) {
    // The generator has gone; what is left besides this thread serves.
    let threads = cluster::proc_status("Threads").saturating_sub(1);
    r.set("transport.threads", threads as f64, 1);
    let leading: std::collections::HashSet<usize> = leaders.values().copied().collect();
    r.set("shard.leader_servers", leading.len() as f64, 1);
    r.set(
        "storage.wal_bytes_per_put",
        wal_bytes as f64 / puts.max(1) as f64,
        puts,
    );
    let micros_of = |keep: &dyn Fn(&StorageSpan) -> bool| {
        let mut v: Vec<f64> = calls
            .iter()
            .filter(|c| keep(c))
            .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
            .collect();
        sorted(&mut v);
        v
    };
    let syncs = micros_of(&|c| c.is_sync && c.dirty);
    let persists = micros_of(&|c| !c.is_sync);
    let (v, n) = p50(&syncs);
    r.set("storage.sync_us_p50", v, n);
    let (v, n) = tail(&syncs);
    r.set("storage.sync_us_p99", v, n);
    let (v, n) = p50(&persists);
    r.set("storage.persist_us_p50", v, n);
    let dirty = syncs.len() as u64;
    r.set(
        "storage.syncs_per_put",
        dirty as f64 / (puts.max(1) * servers as u64) as f64,
        dirty,
    );
    let entries: u64 = calls.iter().map(|c| c.entries as u64).sum();
    r.set(
        "storage.entries_per_sync",
        entries as f64 / dirty.max(1) as f64,
        dirty,
    );
    let busy: u64 = calls
        .iter()
        .filter(|c| leaders.get(&GroupId::new(c.group)) == Some(&(c.server as usize - 1)))
        .map(|c| c.end_ns - c.start_ns)
        .sum();
    r.set(
        "storage.busy_share",
        busy as f64 / (window_ns.max(1) * leaders.len().max(1) as u64) as f64,
        calls.len() as u64,
    );
}

fn op_span_name(op: &Op) -> &'static str {
    match (op.entry, op.is_get) {
        (Entry::Client, false) => "client.put",
        (Entry::Client, true) => "client.get",
        (Entry::Raw, false) => "transport.put_rtt",
        (Entry::Raw, true) => "transport.get_rtt",
        (Entry::Inproc, false) => "shard.propose_apply",
        (Entry::Inproc, true) => "shard.read",
    }
}

/// The span list of a traced window: one span per operation at its entry
/// point (in-process puts split into `shard.propose` and
/// `shard.await_applied`), and one per storage call, parented to the
/// in-process probe phase of the same group that contains it.
pub fn build_spans(
    ops: &[Op],
    calls: &[StorageSpan],
    group_of: impl Fn(u32) -> GroupId,
) -> Vec<Span> {
    let mut spans = Vec::with_capacity(ops.len() + calls.len());
    for op in ops {
        let group = group_of(op.rank).get();
        let parent = spans.len() as u32;
        spans.push(Span {
            name: op_span_name(op),
            start_ns: op.start_ns,
            end_ns: op.end_ns,
            parent: NONE,
            request: op.idx,
            server: NONE,
            group,
        });
        if op.mid_ns != 0 {
            for (name, start_ns, end_ns) in [
                ("shard.propose", op.start_ns, op.mid_ns),
                ("shard.await_applied", op.mid_ns, op.end_ns),
            ] {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    request: op.idx,
                    server: NONE,
                    group,
                });
            }
        }
    }
    push_storage_spans(&mut spans, calls);
    let storage = ["storage.persist", "storage.sync"];
    trace::adopt(&mut spans, "shard.propose", &storage);
    trace::adopt(&mut spans, "shard.await_applied", &storage);
    spans
}

/// One orphan span per storage call, carrying its server and group.
pub fn push_storage_spans(spans: &mut Vec<Span>, calls: &[StorageSpan]) {
    spans.extend(calls.iter().map(|call| Span {
        name: if call.is_sync {
            "storage.sync"
        } else {
            "storage.persist"
        },
        start_ns: call.start_ns,
        end_ns: call.end_ns,
        parent: NONE,
        request: 0,
        server: call.server,
        group: call.group,
    }));
}

/// `core.replicate_self_us`: per in-process put, the time of its two
/// phases that no storage call of its group covers — engine, hand-offs,
/// loopback and apply. Median over the probes.
pub fn replicate_self(r: &mut RunResult, spans: &[Span], phases: [&str; 2]) {
    let selfs = trace::self_times(spans);
    let mut per_request: HashMap<u64, u64> = HashMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        if phases.contains(&span.name) {
            *per_request.entry(span.request).or_default() += own;
        }
    }
    let mut v: Vec<f64> = per_request.values().map(|ns| *ns as f64 / 1e3).collect();
    let (value, n) = p50(sorted(&mut v));
    r.set("core.replicate_self_us", value, n);
}

/// What one round of measurement ends up with. An untraced run makes
/// several rounds, each on a freshly set-up cluster; a traced run one.
pub struct Summary {
    /// (value, samples) of the workload's `headline_ms`.
    pub headline: (f64, u64),
    pub second: (f64, u64),
    pub work_per_s: f64,
    /// Units of work behind `work_per_s`.
    pub work: u64,
    pub wall: Duration,
    /// The window in slices, where the workload is a closed loop or a
    /// fixed count (empty for an open loop, whose rate is its schedule's).
    pub slices: Slices,
}

/// `headline_ms` and `work_per_s` of a run's rounds. Where the rounds
/// come in slices, the undisturbed level over the slices of all rounds
/// (see [`stats::UNDISTURBED`]); otherwise the median over the rounds —
/// what noise is left there is per boot (disk state), which a longer
/// window does not average out and a median over fresh boots does.
fn levels(rounds: &[Summary]) -> (f64, f64) {
    let over =
        |value: fn(&Summary) -> f64| stats::median(&rounds.iter().map(value).collect::<Vec<_>>());
    let mut slices = Slices::default();
    for round in rounds {
        slices.extend(&round.slices);
    }
    let headline = if slices.medians.is_empty() {
        over(|s| s.headline.0)
    } else {
        slices.latency_ms()
    };
    let work_per_s = if slices.rates.is_empty() {
        over(|s| s.work_per_s)
    } else {
        slices.rate()
    };
    (headline, work_per_s)
}

/// An untraced run's end-to-end slots, with the rounds' samples added up.
pub fn finish_untraced(r: &mut RunResult, rounds: &[Summary]) {
    let (headline, work_per_s) = levels(rounds);
    r.set(
        spec::HEADLINE_MS,
        headline,
        rounds.iter().map(|s| s.headline.1).sum(),
    );
    r.set(
        spec::WORK_PER_S,
        work_per_s,
        rounds.iter().map(|s| s.work).sum(),
    );
}

/// A traced run's bench.* series and its trace file. `overhead` is the
/// traced and the untraced reference value of the quantity tracing
/// overhead is judged on.
pub fn finish_traced(r: &mut RunResult, s: &Summary, overhead: Option<(f64, f64)>, spans: &[Span]) {
    let (headline, work_per_s) = levels(std::slice::from_ref(s));
    r.set("bench.headline_ms", headline, s.headline.1);
    r.set("bench.second_ms", s.second.0, s.second.1);
    r.set("bench.work_per_s", work_per_s, s.work);
    r.set("bench.samples_headline", s.headline.1 as f64, 1);
    if let Some((traced, base)) = overhead.filter(|(_, base)| *base > 0.0) {
        r.set(
            "bench.trace_overhead_pct",
            (traced - base) / base * 100.0,
            s.headline.1,
        );
    }
    r.set(
        "bench.rss_mib",
        cluster::proc_status("VmHWM") as f64 / 1024.0,
        1,
    );
    r.set("bench.spans", spans.len() as f64, 1);
    r.set(
        "bench.generator_threads",
        crate::load::generator_threads() as f64,
        1,
    );
    r.set("bench.nproc", crate::pin::machine_cpus() as f64, 1);
    r.set("bench.window_s", s.wall.as_secs_f64(), 1);
    let path = cluster::out_dir().join(format!("trace-{}.json", r.workload));
    if let Err(e) = trace::write_file(&path, r.workload, spans) {
        r.check(1, 1, &format!("trace file not written: {e}"));
    }
    r.set("bench.failed_share", r.failed_share(), r.attempted);
}
