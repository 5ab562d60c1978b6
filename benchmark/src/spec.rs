//! The benchmark's vocabulary: workload names, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` lists them (`selftest`
//! checks the two agree). Later issues cite these names.

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const DURABLE_MIXED: &str = "durable-mixed";
pub const MEMORY_READS: &str = "memory-reads";
pub const DURABLE_INGEST: &str = "durable-ingest";
pub const LEADER_KILL: &str = "leader-kill";
pub const SIM_LOSS: &str = "sim-loss";

pub const WORKLOADS: [&str; 5] = [
    DURABLE_MIXED,
    MEMORY_READS,
    DURABLE_INGEST,
    LEADER_KILL,
    SIM_LOSS,
];

pub const HEADLINE_MS: &str = "headline_ms";
pub const WORK_PER_S: &str = "work_per_s";
pub const SETUP_S: &str = "setup_s";

/// Every run reports every end-to-end metric, so each is a slot whose
/// meaning the workload fixes (see [`alias`]).
pub const END_TO_END: [MetricSpec; 3] = [
    lower(HEADLINE_MS, "ms"),
    higher(WORK_PER_S, "1/s"),
    lower(SETUP_S, "s"),
];

/// What a slot measures on a workload — the issue's own name for that
/// quantity, printed next to the slot name. The traced run reports the
/// same slots as `bench.headline_ms`, `bench.work_per_s`, and the
/// workload's second timing (too noisy to gate on) as `bench.second_ms`.
pub fn alias(workload: &str, metric: &str) -> &'static str {
    let slot = metric.strip_prefix("bench.").unwrap_or(metric);
    match (workload, slot) {
        (DURABLE_MIXED, "headline_ms") => "put_p50_ms",
        (DURABLE_MIXED, "second_ms") => "get_p50_ms",
        (DURABLE_MIXED, "work_per_s") => "ops_per_s",
        (MEMORY_READS, "headline_ms") => "get_p50_ms",
        (MEMORY_READS, "second_ms") => "put_p50_ms",
        (MEMORY_READS, "work_per_s") => "ops_per_s",
        (DURABLE_INGEST, "headline_ms") => "batch_p50_ms",
        (DURABLE_INGEST, "second_ms") => "readback_p50_ms",
        (DURABLE_INGEST, "work_per_s") => "cmds_per_s",
        (LEADER_KILL, "headline_ms") => "outage_ms",
        (LEADER_KILL, "second_ms") => "put_p50_ms",
        (LEADER_KILL, "work_per_s") => "puts_per_s",
        (SIM_LOSS, "headline_ms") => "election_ms_p50",
        (SIM_LOSS, "second_ms") => "election_ms_p95",
        (SIM_LOSS, "work_per_s") => "trials_per_s",
        _ => "",
    }
}

/// Per-layer metrics (layer = crate, prefix = crate name without
/// `escape-`), all from the traced run. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 68] = [
    // client
    lower("client.put_p50_ms", "ms"),
    lower("client.get_p50_ms", "ms"),
    lower("client.put_p99_ms", "ms"),
    lower("client.get_p99_ms", "ms"),
    lower("client.self_us", "us"),
    lower("client.recover_ms", "ms"),
    lower("client.outage_max_ms", "ms"),
    lower("client.stale_final_keys", "count"),
    // wire
    lower("wire.client_codec_ns", "ns"),
    lower("wire.append_codec_ns_per_entry", "ns"),
    lower("wire.put_request_bytes", "bytes"),
    // transport
    lower("transport.put_rtt_us", "us"),
    lower("transport.get_rtt_us", "us"),
    lower("transport.fetchmap_rtt_us", "us"),
    lower("transport.service_self_us", "us"),
    lower("transport.threads", "count"),
    lower("transport.frames_dropped", "count"),
    // shard
    lower("shard.propose_apply_us", "us"),
    lower("shard.read_us", "us"),
    lower("shard.batch_apply_us", "us"),
    lower("shard.n1_propose_apply_us", "us"),
    lower("shard.handoff_us", "us"),
    lower("shard.route_ns", "ns"),
    higher("shard.leader_servers", "count"),
    lower("shard.detect_ms", "ms"),
    lower("shard.elect_ms", "ms"),
    lower("shard.rejoin_ms", "ms"),
    // core
    higher("core.batch_mean", "count"),
    lower("core.commit_us_mean", "us"),
    lower("core.msgs_per_put", "count"),
    higher("core.lease_read_share", "ratio"),
    lower("core.quorum_reads", "count"),
    lower("core.elections_started", "count"),
    lower("core.step_downs", "count"),
    lower("core.backpressure_resets", "count"),
    lower("core.replicate_self_us", "us"),
    // kv
    lower("kv.apply_ns", "ns"),
    lower("kv.query_ns", "ns"),
    // storage
    lower("storage.sync_us_p50", "us"),
    lower("storage.sync_us_p99", "us"),
    lower("storage.persist_us_p50", "us"),
    lower("storage.syncs_per_put", "ratio"),
    higher("storage.entries_per_sync", "count"),
    lower("storage.wal_bytes_per_put", "bytes"),
    lower("storage.busy_share", "ratio"),
    lower("storage.raw_fdatasync_us", "us"),
    lower("storage.recover_ms", "ms"),
    // cluster / simnet (sim-loss; simulated clock, so exact per seed)
    lower("cluster.detection_ms_p50", "ms"),
    lower("cluster.election_phase_ms_p50", "ms"),
    lower("cluster.campaigns_mean", "count"),
    lower("cluster.split_vote_share", "ratio"),
    lower("cluster.timed_out", "count"),
    lower("cluster.msgs_per_trial", "count"),
    lower("cluster.raft_election_ms_p50", "ms"),
    higher("simnet.msgs_per_s", "1/s"),
    // bench: the harness itself, and the traced run's own view of the
    // end-to-end slots
    lower("bench.headline_ms", "ms"),
    lower("bench.second_ms", "ms"),
    higher("bench.work_per_s", "1/s"),
    lower("bench.late_p50_us", "us"),
    lower("bench.late_p99_us", "us"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.rss_mib", "MiB"),
    lower("bench.failed_share", "ratio"),
    lower("bench.spans", "count"),
    lower("bench.generator_threads", "count"),
    lower("bench.nproc", "count"),
    lower("bench.window_s", "s"),
    lower("bench.samples_headline", "count"),
];
