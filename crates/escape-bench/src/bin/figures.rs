//! Regenerates one of the paper's figures by name; the names are
//! [`escape_bench::figures::FIGURES`].
//!
//! ```text
//! cargo run --release -p escape-bench --bin figures -- fig9 --runs 1000 --csv fig9.csv
//! ```

use escape_bench::{figures, BenchArgs};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    match figures::lookup(&name) {
        Ok(&(_, default_runs, run)) => run(&BenchArgs::parse(default_runs, args)),
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
    }
}
