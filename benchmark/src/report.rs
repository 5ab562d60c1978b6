//! One run's result: named metrics with sample counts, the output
//! checks' tally, the human-readable table, the driver's result line,
//! and the result files `--json` accumulates and `compare` reads.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::spec::{self, MetricSpec};
use crate::stats;

/// A measured value and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// Everything one `--workload X --trace T` run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations (or trials) issued plus output checks made.
    pub attempted: u64,
    /// Of those: failed, refused, timed out, or failing an output check.
    pub failed: u64,
    /// Why `failed` is not zero (first few reasons).
    pub notes: Vec<String>,
    metrics: BTreeMap<&'static str, Measured>,
}

impl RunResult {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        RunResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.metrics.get(name).copied()
    }

    /// Counts `n` checks of which `bad` failed, noting `why` if any did.
    pub fn check(&mut self, n: u64, bad: u64, why: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.notes.len() < 8 {
            self.notes.push(format!("{bad} x {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics this run must report: every end-to-end metric when
    /// untraced, every per-layer metric when traced (0 where the
    /// workload does not exercise the layer).
    pub fn reported(&self) -> Vec<(MetricSpec, Measured)> {
        let specs: &[MetricSpec] = if self.traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        specs
            .iter()
            .map(|s| {
                let m = self.get(s.name).unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                });
                (*s, m)
            })
            .collect()
    }

    /// The table a person reads: one metric per line, by name, with its
    /// unit and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for (s, m) in self.reported() {
            let alias = spec::alias(self.workload, s.name);
            let label = if alias.is_empty() || alias == s.name {
                s.name.to_string()
            } else {
                format!("{} [{alias}]", s.name)
            };
            println!(
                "  {label:<38} {:>16.4} {:<6} n={}",
                m.value, s.unit, m.samples
            );
        }
        println!(
            "  {:<38} {:>16.6} {:<6} ({} failed of {} attempted)",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("  check failed: {note}");
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .reported()
            .into_iter()
            .map(|(s, m)| {
                let entry = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(s.unit.to_string())),
                ]);
                (s.name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Appends `run` to the result file at `path`: per workload and metric
/// the file keeps every run's value (so medians and spreads can be
/// taken over repeated invocations), the median, the unit and the last
/// sample count. Creates the file when absent.
pub fn merge_into_file(path: &Path, run: &RunResult) -> Result<(), String> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(_) => Json::Obj(BTreeMap::new()),
    };
    let Json::Obj(workloads) = &mut root else {
        return Err(format!("{}: not a result file", path.display()));
    };
    let entry = workloads
        .entry(run.workload.to_string())
        .or_insert_with(|| Json::Obj(BTreeMap::new()));
    let Json::Obj(metrics) = entry else {
        return Err(format!("{}: not a result file", path.display()));
    };
    for (s, m) in run.reported() {
        let mut values: Vec<f64> = metrics
            .get(s.name)
            .and_then(|e| e.get("values"))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        values.push(m.value);
        metrics.insert(
            s.name.to_string(),
            Json::obj([
                ("unit", Json::Str(s.unit.to_string())),
                ("samples", Json::Num(m.samples as f64)),
                ("median", Json::Num(stats::median(&values))),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    // One workload per line keeps committed baselines diffable.
    let Json::Obj(workloads) = &root else {
        unreachable!("checked above")
    };
    let mut text = String::from("{\n");
    for (i, (name, metrics)) in workloads.iter().enumerate() {
        let Json::Obj(metrics) = metrics else {
            continue;
        };
        text.push_str(&format!("  {}: {{\n", Json::Str(name.clone()).render()));
        for (j, (metric, body)) in metrics.iter().enumerate() {
            let comma = if j + 1 < metrics.len() { "," } else { "" };
            text.push_str(&format!(
                "    {}: {}{comma}\n",
                Json::Str(metric.clone()).render(),
                body.render()
            ));
        }
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        text.push_str(&format!("  }}{comma}\n"));
    }
    text.push_str("}\n");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
