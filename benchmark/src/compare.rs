//! `compare A.json B.json`: judges result file B against A with each
//! end-to-end metric's bound and direction from `BENCHMARK.json`. One
//! row per workload and metric; a breach exits nonzero; a pair whose
//! run-to-run spread exceeds the bound is "unresolved", not "unchanged".

use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, spread};

/// An end-to-end metric as `BENCHMARK.json` fixes it.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `end_to_end` list of `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some(Bound {
                name: field("name")?,
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get(workload)
        .and_then(|w| w.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// How one workload × metric pair came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges B's values against A's: by how much B's median is worse (as a
/// share of A's), and whether that breaches `bound`. With four or more
/// runs on a side, a spread above the bound makes the pair unresolved.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let noisy = [a, b]
        .iter()
        .filter_map(|side| spread(side))
        .any(|s| s > bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the table; `Ok(true)` when no pair regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let metrics = bounds(&benchmark)?;
    let mut clean = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in crate::spec::WORKLOADS {
        for metric in &metrics {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse, verdict) = judge(&va, &vb, metric.higher_is_better, metric.bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
    }
    Ok(clean)
}
