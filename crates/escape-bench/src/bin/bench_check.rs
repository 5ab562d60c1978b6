//! Bench-regression gate: compares a fresh `BENCH_<suite>.json` medians
//! file (emitted by the criterion shim) against the committed baseline
//! and fails (exit 1) when a gated hot path regresses.
//!
//! ```text
//! cargo bench -p escape-bench --bench engine
//! cargo run -p escape-bench --bin bench_check -- engine \
//!     crates/escape-bench/BENCH_engine.json crates/escape-bench/baselines/engine.json
//! cargo run -p escape-bench --bin bench_check -- leader_round \
//!     crates/escape-bench/BENCH_engine.json crates/escape-bench/baselines/engine.json
//!
//! cargo bench -p escape-bench --bench shard
//! cargo run -p escape-bench --bin bench_check -- shard \
//!     crates/escape-bench/BENCH_shard.json crates/escape-bench/baselines/shard.json
//!
//! cargo bench -p escape-bench --bench replication
//! cargo run -p escape-bench --bin bench_check -- replication \
//!     crates/escape-bench/BENCH_replication.json \
//!     crates/escape-bench/baselines/replication.json
//! cargo run -p escape-bench --bin bench_check -- obs_overhead \
//!     crates/escape-bench/BENCH_replication.json \
//!     crates/escape-bench/baselines/replication.json
//!
//! cargo bench -p escape-bench --bench wal
//! cargo run -p escape-bench --bin bench_check -- wal \
//!     crates/escape-bench/BENCH_wal.json crates/escape-bench/baselines/wal.json
//!
//! cargo bench -p escape-bench --bench sim_queue
//! cargo run -p escape-bench --bin bench_check -- sim_queue \
//!     crates/escape-bench/BENCH_sim_queue.json \
//!     crates/escape-bench/baselines/sim_queue.json
//! ```
//!
//! Each suite gates one scaling ratio, twice — both machine-independent
//! so a slower CI runner cannot flake them:
//!
//! * **engine** — `ppf_rearrangement/128` vs `/32`: the ROADMAP's
//!   superlinear-cliff regression. Ratio limit 8×, baseline drift 2×.
//! * **leader_round** — `engine/leader_round/128` vs `/8`: one heartbeat
//!   round's replies to a leader with an uncommitted tail, so the round
//!   is n − 1 acks. Constant work per ack makes it 16× (linear); a
//!   per-ack sort or commit scan makes it quadratic (≈ 230× before the
//!   quorum statistics went incremental). Ratio limit 32×, baseline
//!   drift 2×.
//! * **shard** — `shard_route/route/1024` vs `/4`: the router must stay
//!   near-flat in the group count (hash + binary search). Ratio limit
//!   4×, baseline drift 2×.
//! * **replication** — `replication/propose_fsync/b256` vs `/b1`: both
//!   labels time the *same 256 commands* (as one batch vs one at a
//!   time), so the ratio is the group-commit + coalesced-fan-out
//!   speedup, inverted. Limit 0.1 — batching must stay ≥10× faster than
//!   the per-entry path with fsync on; baseline drift 2× (a >2×
//!   regression of batched throughput relative to per-entry fails).
//! * **reads** — `reads/lease/b256` vs `reads/log_read/b256`: both time
//!   the same 256 queries, served under a held leader lease vs proposed
//!   through the fsyncing log. Limit 0.1 — leased reads must stay ≥10×
//!   the through-the-log throughput; baseline drift 2×.
//! * **obs_overhead** — `obs_overhead/noop/b256` vs
//!   `obs_overhead/baseline/b256`: the same 256-command propose workload
//!   with an explicit no-op observer attached vs the builder default.
//!   Limit 1.02 — the observer hooks threaded through the hot path must
//!   cost under 2% when disabled; baseline drift 1.05.
//! * **wal** — `wal/append/b128` vs `wal/encode/b128`: `Wal::append` of
//!   one 128-entry slice plus its `write` (no fsync) against encoding the
//!   same entries alone. Limit 12× — the slicing-by-16 CRC keeps it ≈ 8×,
//!   the byte-at-a-time CRC it replaced measured ≈ 24×; baseline drift
//!   2×.
//! * **sim_queue** — `sim_queue/calendar/hold512` vs
//!   `sim_queue/heap_reference/hold512`: the simulator's event queue
//!   against the binary heap of whole 136-byte events it replaced, on the
//!   same hold model (pop one event, push it back 100–200 ms later) at a
//!   settled n = 50 cluster's occupancy. Limit 0.7 — the calendar queue
//!   of 24-byte keys over a slab reads ≈ 0.4–0.45, and a heap of whole
//!   events is back at ≈ 1; baseline drift 2×.
//!
//! Absolute medians are compared against the baseline too, but only
//! warn: wall-clock medians vary across CI machines, so absolute 2×
//! checks would flake.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One suite's machine-independent scaling gate.
struct Suite {
    name: &'static str,
    ratio_numerator: &'static str,
    ratio_denominator: &'static str,
    /// Hard cap on `numerator / denominator` in the current run.
    ratio_limit: f64,
    /// Hard cap on the current ratio relative to the baseline's ratio.
    baseline_factor: f64,
}

const SUITES: &[Suite] = &[
    Suite {
        name: "engine",
        ratio_numerator: "ppf_rearrangement/128",
        ratio_denominator: "ppf_rearrangement/32",
        ratio_limit: 8.0,
        baseline_factor: 2.0,
    },
    Suite {
        name: "leader_round",
        ratio_numerator: "engine/leader_round/128",
        ratio_denominator: "engine/leader_round/8",
        ratio_limit: 32.0,
        baseline_factor: 2.0,
    },
    Suite {
        name: "shard",
        ratio_numerator: "shard_route/route/1024",
        ratio_denominator: "shard_route/route/4",
        ratio_limit: 4.0,
        baseline_factor: 2.0,
    },
    Suite {
        name: "replication",
        ratio_numerator: "replication/propose_fsync/b256",
        ratio_denominator: "replication/propose_fsync/b1",
        ratio_limit: 0.1,
        baseline_factor: 2.0,
    },
    Suite {
        name: "reads",
        ratio_numerator: "reads/lease/b256",
        ratio_denominator: "reads/log_read/b256",
        ratio_limit: 0.1,
        baseline_factor: 2.0,
    },
    Suite {
        name: "obs_overhead",
        ratio_numerator: "obs_overhead/noop/b256",
        ratio_denominator: "obs_overhead/baseline/b256",
        ratio_limit: 1.02,
        baseline_factor: 1.05,
    },
    Suite {
        name: "wal",
        ratio_numerator: "wal/append/b128",
        ratio_denominator: "wal/encode/b128",
        ratio_limit: 12.0,
        baseline_factor: 2.0,
    },
    Suite {
        name: "sim_queue",
        ratio_numerator: "sim_queue/calendar/hold512",
        ratio_denominator: "sim_queue/heap_reference/hold512",
        ratio_limit: 0.7,
        baseline_factor: 2.0,
    },
];

/// Parses the shim's medians file: `{ "label": 1.23e-6, ... }`, one
/// entry per line.
fn parse_medians(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in raw.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue; // braces or blanks
        };
        let Some((label, value)) = rest.split_once("\": ") else {
            return Err(format!("{path}: malformed line {line:?}"));
        };
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("{path}: bad number in {line:?}: {e}"))?;
        out.insert(label.to_string(), value);
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark entries found"));
    }
    Ok(out)
}

fn fmt(secs: f64) -> String {
    if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(suite_name), Some(current_path), Some(baseline_path)) =
        (args.next(), args.next(), args.next())
    else {
        eprintln!("usage: bench_check <suite> <current-medians.json> <baseline-medians.json>");
        eprintln!(
            "  suites: {}",
            SUITES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let Some(suite) = SUITES.iter().find(|s| s.name == suite_name) else {
        eprintln!("bench_check: unknown suite {suite_name:?}");
        return ExitCode::FAILURE;
    };
    let current = match parse_medians(&current_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match parse_medians(&baseline_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;

    // Gate 1: the scaling ratio must stay within `baseline_factor` of the
    // committed baseline's ratio — measured as a ratio on the same
    // machine, so a uniformly slower (or faster) CI runner cancels out.
    let scaling = |m: &BTreeMap<String, f64>| -> Option<f64> {
        match (m.get(suite.ratio_numerator), m.get(suite.ratio_denominator)) {
            (Some(&num), Some(&den)) if den > 0.0 => Some(num / den),
            _ => None,
        }
    };
    match (scaling(&current), scaling(&baseline)) {
        (Some(cur_scale), Some(base_scale)) if base_scale > 0.0 => {
            let factor = cur_scale / base_scale;
            let verdict = if factor > suite.baseline_factor {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "[{verdict}] {} scaling vs {}: {cur_scale:.2}x, baseline {base_scale:.2}x \
                 ({factor:.2}x regression, limit {}x)",
                suite.ratio_numerator, suite.ratio_denominator, suite.baseline_factor
            );
        }
        _ => {
            eprintln!(
                "bench_check: {} / {} missing from current or baseline medians",
                suite.ratio_numerator, suite.ratio_denominator
            );
            failed = true;
        }
    }

    // Gate 2: scaling shape — the ratio itself under the hard cap,
    // machine-independent.
    match (
        current.get(suite.ratio_numerator),
        current.get(suite.ratio_denominator),
    ) {
        (Some(&num), Some(&den)) if den > 0.0 => {
            let ratio = num / den;
            let verdict = if ratio > suite.ratio_limit {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "[{verdict}] {} / {}: {ratio:.2}x (limit {}x)",
                suite.ratio_numerator, suite.ratio_denominator, suite.ratio_limit
            );
        }
        _ => {
            eprintln!("bench_check: ratio inputs missing from current medians");
            failed = true;
        }
    }

    // Advisory: absolute medians that regressed noticeably (these vary
    // with CI hardware, so they warn rather than gate).
    for (label, &cur) in &current {
        if let Some(&base) = baseline.get(label) {
            let factor = cur / base;
            if factor > suite.baseline_factor {
                println!(
                    "[warn] {label}: {} vs baseline {} ({factor:.2}x absolute) — advisory only",
                    fmt(cur),
                    fmt(base),
                );
            }
        }
    }

    if failed {
        eprintln!(
            "bench_check: {} hot-path regression gate FAILED",
            suite.name
        );
        ExitCode::FAILURE
    } else {
        println!("bench_check: all {} gates passed", suite.name);
        ExitCode::SUCCESS
    }
}
