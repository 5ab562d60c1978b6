//! `selftest`: the benchmark's own arithmetic on known inputs, and that
//! the names it emits are exactly those `BENCHMARK.json` lists. Needs no
//! cluster; exits nonzero on the first failure.

use std::collections::BTreeSet;
use std::path::Path;

use crate::compare::{self, Verdict};
use crate::json::{self, Json};
use crate::load::{Entry, Op};
use crate::report::RunResult;
use crate::spec;
use crate::stats::{
    self, median, outage_gaps, percentile, quartiles, spread, tail_percentile, Slices,
};
use crate::trace::{self, Span, NONE};

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        println!("  ok   {what}");
        Ok(())
    } else {
        Err(format!("selftest failed: {what}"))
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, group: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
        server: NONE,
        group,
    }
}

fn names_match(benchmark: &Json) -> Result<(), String> {
    let listed = |key: &str| -> BTreeSet<(String, String)> {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                ))
            })
            .collect()
    };
    let emitted = |specs: &[spec::MetricSpec]| -> BTreeSet<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    ensure(
        listed("end_to_end") == emitted(&spec::END_TO_END),
        "end-to-end names and units equal BENCHMARK.json",
    )?;
    ensure(
        listed("per_layer") == emitted(&spec::PER_LAYER),
        "per-layer names and units equal BENCHMARK.json",
    )?;
    let workloads: BTreeSet<String> = listed("workloads").into_iter().map(|w| w.0).collect();
    ensure(
        workloads == spec::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        "workload names equal BENCHMARK.json",
    )?;
    let better = |key: &str, specs: &[spec::MetricSpec]| {
        specs.iter().all(|s| {
            benchmark
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(s.name))
                .and_then(|m| m.get("better"))
                .and_then(Json::as_str)
                == Some(if s.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
        })
    };
    ensure(
        better("end_to_end", &spec::END_TO_END) && better("per_layer", &spec::PER_LAYER),
        "directions equal BENCHMARK.json",
    )
}

pub fn run() -> Result<(), String> {
    // Percentile picker, nearest rank.
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    ensure(
        percentile(&hundred, 0.50) == 50.0
            && percentile(&hundred, 0.99) == 99.0
            && percentile(&hundred, 1.0) == 100.0
            && percentile(&[], 0.5) == 0.0,
        "percentile picker on 1..=100",
    )?;
    ensure(
        median(&[3.0, 1.0, 2.0]) == 2.0 && median(&[4.0, 1.0, 2.0, 3.0]) == 2.5,
        "median of odd and even samples",
    )?;
    // "At least ten samples beyond" rule.
    ensure(
        tail_percentile(10_000, 0.999) == 0.999
            && tail_percentile(10_000, 0.99) == 0.99
            && tail_percentile(1_000, 0.999) == 0.99
            && tail_percentile(999, 0.99) == 0.95
            && tail_percentile(200, 0.99) == 0.95
            && tail_percentile(199, 0.99) == 0.90
            && tail_percentile(50, 0.99) == 0.50,
        "tail percentile keeps ten samples beyond it",
    )?;
    // Quartiles as Python's statistics.quantiles(v, n=4) gives them.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&ten).ok_or("quartiles of ten values")?;
    ensure(
        close(q1, 2.75) && close(q3, 8.25) && close(spread(&ten).unwrap_or(0.0), 1.0),
        "quartiles and spread match statistics.quantiles",
    )?;

    // Intended-start lateness.
    let op = Op {
        idx: 0,
        rank: 0,
        is_get: false,
        entry: Entry::Client,
        due_ns: 1_000,
        start_ns: 1_400,
        mid_ns: 0,
        end_ns: 3_000,
        ok: true,
    };
    ensure(
        op.latency_ns() == 2_000 && op.service_ns() == 1_600 && op.start_ns - op.due_ns == 400,
        "latency counts from the intended start, lateness apart",
    )?;

    // Per-cycle outage gaps: completions every 10 until a kill at 100
    // silences 100..290; a second kill at 400 silences 400..450.
    let mut completions: Vec<u64> = (0..10).map(|i| i * 10 + 5).collect();
    completions.extend((29..40).map(|i| i * 10));
    completions.extend((45..60).map(|i| i * 10));
    let gaps = outage_gaps(&completions, &[100, 400], 600);
    ensure(
        gaps == vec![195, 60],
        "outage gap charged to the kill that opened it",
    )?;
    ensure(
        outage_gaps(&[5, 15], &[100], 600) == vec![585],
        "silence to the end counts as outage",
    )?;

    // Slices of [100, 400) by 100: work spread by time spent, latency to
    // the slice it ended in, the remainder and the outside dropped.
    let work = [
        (100, 150, 1.0, Some(5.0)), // whole in slice 0
        (150, 250, 2.0, Some(7.0)), // half in 0, half in 1
        (50, 150, 4.0, None),       // half before the window
        (300, 300, 1.0, Some(9.0)), // instantaneous, slice 2
        (380, 480, 10.0, None),     // a fifth inside, the rest beyond
    ];
    let cut = stats::slices(work.into_iter(), 100, 450, 100);
    ensure(
        cut.rates.len() == 3
            && close(cut.rates[0], 4.0 * 1e7)
            && close(cut.rates[1], 1.0 * 1e7)
            && close(cut.rates[2], 3.0 * 1e7)
            && cut.medians == vec![5.0, 7.0, 9.0],
        "slices spread work by time spent and drop what lies outside",
    )?;
    let many = Slices {
        rates: (1..=200).map(f64::from).collect(),
        medians: (1..=200).map(f64::from).collect(),
    };
    ensure(
        many.rate() == 196.0 && many.latency_ms() == 5.0,
        "undisturbed level is the mirrored outer quantile of the slices",
    )?;

    // Span self time: overlapping children counted once, clipped.
    let mut spans = vec![
        span("parent", 0, 100, NONE, 1),
        span("child", 10, 40, 0, 1),
        span("child", 30, 60, 0, 1),
        span("child", 90, 130, 0, 1),
    ];
    ensure(
        trace::self_times(&spans) == vec![40, 30, 30, 40],
        "self time subtracts the union of child time",
    )?;
    spans.push(span("orphan", 20, 30, NONE, 1));
    spans.push(span("orphan", 20, 30, NONE, 2));
    trace::adopt(&mut spans, "parent", &["orphan"]);
    ensure(
        spans[4].parent == 0 && spans[5].parent == NONE,
        "orphans adopt the containing span of their group only",
    )?;

    // JSON round trip, and the result line's exact keys.
    let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": null, "e": true}}"#;
    let parsed = json::parse(text)?;
    ensure(
        json::parse(&parsed.render())? == parsed
            && parsed.get("a").and_then(Json::as_arr).map(<[Json]>::len) == Some(3)
            && parsed
                .get("b")
                .and_then(|b| b.get("c"))
                .and_then(Json::as_str)
                == Some("x\"y\n"),
        "JSON round trip",
    )?;
    let mut result = RunResult::new(spec::SIM_LOSS, false);
    result.check(10, 0, "never");
    for metric in spec::END_TO_END {
        result.set(metric.name, 1.25, 3);
    }
    let line = json::parse(&result.result_line())?;
    let keys: Vec<&str> = line
        .as_obj()
        .map(|m| m.keys().map(String::as_str).collect())
        .unwrap_or_default();
    ensure(
        keys == ["attempted", "correct", "failed", "metrics"]
            && line
                .get("metrics")
                .and_then(Json::as_obj)
                .is_some_and(|m| m.len() == spec::END_TO_END.len()),
        "result line has exactly correct, attempted, failed, metrics",
    )?;

    // compare's verdicts.
    let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
    let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
    let noisy = [8.0, 12.0, 9.0, 13.0, 10.0];
    ensure(
        compare::judge(&steady, &steady, false, 0.1).1 == Verdict::Ok
            && compare::judge(&steady, &slower, false, 0.1).1 == Verdict::Regressed
            && compare::judge(&steady, &slower, true, 0.1).1 == Verdict::Ok
            && compare::judge(&steady, &noisy, false, 0.1).1 == Verdict::Unresolved,
        "compare applies bound, direction and the spread rule",
    )?;

    names_match(&compare::read_json(Path::new("BENCHMARK.json"))?)?;
    println!("selftest passed");
    Ok(())
}
