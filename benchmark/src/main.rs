//! `escape-benchmark`: the repo benchmark `BENCHMARK.json` describes.
//!
//! ```text
//! escape-benchmark --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! escape-benchmark compare A.json B.json
//! escape-benchmark selftest
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; nothing under `crates/` is changed. Run from the repo root
//! (`benchmark/run.sh` does): data directories, traces and result files
//! go to `benchmark/out/`.

mod cluster;
mod compare;
mod failover;
mod ingest;
mod json;
mod kv;
mod layers;
mod load;
mod pin;
mod probes;
mod report;
mod selftest;
mod simloss;
mod spec;
mod stats;
mod steady;
mod timed_storage;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;
use steady::RunArgs;

const USAGE: &str = "usage:
  escape-benchmark --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
  escape-benchmark compare A.json B.json
  escape-benchmark selftest
workloads: durable-mixed memory-reads durable-ingest leader-kill sim-loss";

struct Cli {
    workload: String,
    args: RunArgs,
    json: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        args: RunArgs {
            seed: 1,
            seconds: 20.0,
            traced: false,
        },
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cli.args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| bad("a number of seconds from 1 to 600"))?
            }
            "--trace" => {
                cli.args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--json" => cli.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if cli.workload != "all" && !spec::WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{USAGE}", cli.workload));
    }
    Ok(cli)
}

fn run_one(workload: &'static str, args: &RunArgs) -> Result<RunResult, String> {
    match workload {
        spec::DURABLE_MIXED | spec::MEMORY_READS => steady::run(workload, args),
        spec::DURABLE_INGEST => ingest::run(args),
        spec::LEADER_KILL => failover::run(args),
        _ => simloss::run(args),
    }
}

/// Runs, prints the table and merges into the result file.
fn run_and_report(
    workload: &'static str,
    args: &RunArgs,
    json: Option<&Path>,
) -> Result<RunResult, String> {
    let result = run_one(workload, args)?;
    result.print_table();
    if let Some(path) = json {
        report::merge_into_file(path, &result)?;
    }
    Ok(result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("selftest") => selftest::run().map(|()| true),
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&argv).and_then(|cli| {
            match pin::pin_to_one_cpu() {
                Some(cpu) => println!("pinned to processor {cpu}"),
                None => println!("NOTE: could not pin to one processor; the run floats"),
            }
            if cli.workload == "all" {
                // Every workload, untraced then traced, one table each.
                let mut all_correct = true;
                for workload in spec::WORKLOADS {
                    for traced in [false, true] {
                        let args = RunArgs { traced, ..cli.args };
                        all_correct &=
                            run_and_report(workload, &args, cli.json.as_deref())?.correct();
                    }
                }
                Ok(all_correct)
            } else {
                let workload = spec::WORKLOADS
                    .into_iter()
                    .find(|w| *w == cli.workload)
                    .ok_or("unknown workload")?;
                let result = run_and_report(workload, &cli.args, cli.json.as_deref())?;
                // The driver reads the last line of standard output; a
                // failed output check travels in it (`correct`, `failed`),
                // not in the exit code.
                println!("{}", result.result_line());
                Ok(true)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("escape-benchmark: an output check failed (see above)");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("escape-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
