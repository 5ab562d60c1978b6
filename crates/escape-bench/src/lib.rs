//! # escape-bench
//!
//! The paper's figures and the micro-bench regression gate. The
//! `figures <name>` binary regenerates one figure of the evaluation
//! ([`figures::FIGURES`]: `fig3`, `fig4`, `fig9`, `fig10`, `fig11`,
//! `ablations`, and `summary` for the headline percentages), printing
//! the rows/series the paper reports as a human-readable table plus CSV.
//! Criterion benches (`benches/`) time the engine's hot paths, and the
//! `bench_check` binary gates their scaling ratios in CI.
//!
//! Shared here: a tiny argument parser (`--runs`, `--seed`, `--csv`) and
//! text/CSV table writers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

use std::io::Write as _;

use escape_core::time::Duration;

pub mod figures;

/// Common knobs for every figure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchArgs {
    /// Trials per sweep point. The paper uses 1000; the default is chosen
    /// so every figure regenerates in well under a minute on a laptop.
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<std::path::PathBuf>,
}

impl BenchArgs {
    /// Parses `--runs N`, `--seed N`, `--csv PATH` from `args`, falling
    /// back to `default_runs` and seed 42.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_runs: usize, args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = BenchArgs {
            runs: default_runs,
            seed: 42,
            csv: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--runs" => parsed.runs = value("--runs").parse().expect("--runs: integer"),
                "--seed" => parsed.seed = value("--seed").parse().expect("--seed: integer"),
                "--csv" => parsed.csv = Some(value("--csv").into()),
                "--help" | "-h" => {
                    eprintln!("usage: figures <name> [--runs N] [--seed N] [--csv PATH]");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
        }
        parsed
    }
}

/// A rows-and-columns table that renders as aligned text and as CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column names.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders aligned, human-readable text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the text form and, if `csv` is set, writes the CSV file.
    pub fn emit(&self, csv: &Option<std::path::PathBuf>) {
        println!("{}", self.to_text());
        if let Some(path) = csv {
            let mut file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            file.write_all(self.to_csv().as_bytes())
                .expect("write CSV");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Formats a duration as fractional milliseconds for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_millis_f64())
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Percentage reduction of `new` relative to `old` (the paper's headline
/// metric: "ESCAPE reduces the election time by X %").
pub fn reduction(old: Duration, new: Duration) -> f64 {
    if old.is_zero() {
        return 0.0;
    }
    1.0 - new.as_millis_f64() / old.as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = Table::new(vec!["proto", "mean_ms"]);
        t.row(vec!["raft", "2400.0"]);
        t.row(vec!["escape", "1880.5"]);
        let text = t.to_text();
        assert!(text.contains("raft"));
        assert!(text.lines().count() == 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "proto,mean_ms");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y"]);
        t.row(vec!["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn reduction_matches_paper_arithmetic() {
        // 2400 → 1884 is a 21.5 % reduction (the paper reports 21.3 % for
        // its own numbers).
        let r = reduction(Duration::from_millis(2400), Duration::from_millis(1884));
        assert!((r - 0.215).abs() < 0.001);
        assert_eq!(reduction(Duration::ZERO, Duration::from_millis(5)), 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.5");
        assert_eq!(pct(0.213), "21.3%");
    }
}
