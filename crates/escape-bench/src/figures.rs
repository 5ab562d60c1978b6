//! The paper's figures, one function per name, run by the `figures`
//! binary:
//!
//! ```text
//! cargo run --release -p escape-bench --bin figures -- <name> [--runs N] [--seed N] [--csv PATH]
//! ```
//!
//! Each prints the rows/series the paper reports as an aligned table
//! (the main one also as CSV with `--csv`), then the paper's checkable
//! claims next to the measured numbers.

use std::sync::Arc;

use escape_cluster::cluster::{ClusterConfig, Protocol};
use escape_cluster::experiments::loss::{self, run_loss_sweep, LossPoint, PAPER_DELTAS};
use escape_cluster::experiments::phases::{run_phases_sweep, PhasesPoint, PAPER_CLASSES};
use escape_cluster::experiments::randomness::{run_randomness_sweep, PAPER_RANGES_MS};
use escape_cluster::experiments::scale::{run_scale_sweep, ScalePoint, PAPER_SCALES};
use escape_cluster::stats::{Cdf, Summary};
use escape_cluster::trial::{run_trials, TrialConfig};
use escape_core::config::EscapeParams;
use escape_core::policy::EscapePolicy;
use escape_core::time::Duration;
use escape_core::types::ServerId;
use escape_simnet::loss::LossModel;

use crate::{ms, pct, reduction, BenchArgs, Table};

/// A figure: its name, the run count it uses without `--runs`, and the
/// function that renders it.
pub type Figure = (&'static str, usize, fn(&BenchArgs));

/// Every figure. The paper uses 1000 runs per point; the defaults keep
/// each figure to minutes on a laptop.
pub static FIGURES: [Figure; 7] = [
    ("fig3", 200, fig3),
    ("fig4", 200, fig4),
    ("fig9", 200, fig9),
    ("fig10", 50, fig10),
    ("fig11", 100, fig11),
    ("ablations", 60, ablations),
    ("summary", 60, summary),
];

/// The figure called `name`.
///
/// # Errors
///
/// An unknown name, with the list of known ones.
pub fn lookup(name: &str) -> Result<&'static Figure, String> {
    FIGURES.iter().find(|(n, ..)| *n == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|(n, ..)| *n).collect();
        format!(
            "unknown figure {name:?}; expected one of: {}",
            names.join(", ")
        )
    })
}

/// One CDF column per named sample set, evaluated on `steps` evenly
/// spaced points of `[lo_ms, hi_ms]`, after a leading `time_ms` column.
fn cdf_table<'a>(
    series: impl IntoIterator<Item = (String, &'a Summary)>,
    lo_ms: u64,
    hi_ms: u64,
    steps: usize,
) -> Table {
    let (lo, hi) = (Duration::from_millis(lo_ms), Duration::from_millis(hi_ms));
    let (names, cdfs): (Vec<String>, Vec<Cdf>) = series
        .into_iter()
        .map(|(name, samples)| (name, Cdf::on_grid(samples, lo, hi, steps)))
        .unzip();
    let header: Vec<String> = std::iter::once("time_ms".to_string())
        .chain(names)
        .collect();
    let mut table = Table::new(header);
    for i in 0..steps {
        let x = cdfs[0].points()[i].0;
        let mut row = vec![format!("{:.0}", x.as_millis_f64())];
        for cdf in &cdfs {
            row.push(format!("{:.3}", cdf.points()[i].1));
        }
        table.row(row);
    }
    table
}

fn scale_point<'a>(points: &'a [ScalePoint], protocol: &str, scale: usize) -> &'a ScalePoint {
    points
        .iter()
        .find(|p| p.protocol == protocol && p.scale == scale)
        .expect("sweep covers the grid")
}

fn phases_mean(points: &[PhasesPoint], protocol: &str, scale: usize, class: u32) -> Duration {
    points
        .iter()
        .find(|p| p.protocol == protocol && p.scale == scale && p.class == class)
        .map(|p| p.total.mean())
        .expect("grid covered")
}

/// §VI-D's claims, each with its reduction measured in `points`:
/// `(scale, Δ %, protocol, the paper's reduction vs Raft, measured)`.
fn loss_claims(
    points: &[LossPoint],
) -> impl Iterator<Item = (usize, u32, &'static str, &'static str, String)> + '_ {
    [
        (10usize, 10u32, "zraft", "9.8%"),
        (10, 40, "zraft", "14.3%"),
        (10, 10, "escape", "9.6%"),
        (10, 40, "escape", "19%"),
        (100, 10, "escape", "21.4%"),
        (100, 40, "escape", "49.3%"),
    ]
    .into_iter()
    .map(move |(scale, delta, who, paper)| {
        let mean = |protocol: &str| {
            points
                .iter()
                .find(|p| p.protocol == protocol && p.scale == scale && p.delta_pct == delta)
                .map(|p| p.total.mean())
                .expect("grid covered")
        };
        (
            scale,
            delta,
            who,
            paper,
            pct(reduction(mean("raft"), mean(who))),
        )
    })
}

/// Figure 3: CDF of Raft leader-election time in a 5-server cluster under
/// varying amounts of election-timeout randomness (§III). Paper setup:
/// ranges 1500–{1800,2000,3000,4000,5000,6000} ms, network latency
/// uniform 100–200 ms.
pub fn fig3(args: &BenchArgs) {
    eprintln!(
        "fig3: Raft election-time CDF, 5 servers, {} runs per range (paper: 1000)",
        args.runs
    );
    let points = run_randomness_sweep(&PAPER_RANGES_MS, args.runs, args.seed);

    // One CDF column per range, sampled on the paper's x-axis.
    let series = points
        .iter()
        .map(|p| (format!("cdf_{}-{}", p.range_ms.0, p.range_ms.1), &p.total));
    cdf_table(series, 1500, 7000, 45).emit(&args.csv);

    // The §III claims, as checkable numbers.
    for p in &points {
        println!(
            "range {}-{} ms: {:.1}% of campaigns not converged by 3500 ms, split-vote rate {:.1}%",
            p.range_ms.0,
            p.range_ms.1,
            (1.0 - p.total.fraction_within(Duration::from_millis(3500))) * 100.0,
            p.split_vote_rate * 100.0,
        );
    }
}

/// Figure 4: average Raft leader-election time vs the amount of timeout
/// randomness (§III) — the U-shaped trade-off between failure detection
/// (favours narrow ranges) and split-vote avoidance (favours wide ones).
pub fn fig4(args: &BenchArgs) {
    eprintln!(
        "fig4: average Raft election time vs timeout randomness, {} runs per range (paper: 1000)",
        args.runs
    );
    let points = run_randomness_sweep(&PAPER_RANGES_MS, args.runs, args.seed);

    let mut table = Table::new(vec![
        "range_ms",
        "mean_total_ms",
        "mean_detection_ms",
        "mean_election_ms",
        "p95_total_ms",
        "split_vote_rate",
    ]);
    for p in &points {
        table.row(vec![
            format!("{}-{}", p.range_ms.0, p.range_ms.1),
            ms(p.total.mean()),
            ms(p.detection.mean()),
            ms(p.election.mean()),
            ms(p.total.quantile(0.95)),
            format!("{:.3}", p.split_vote_rate),
        ]);
    }
    table.emit(&args.csv);

    // The paper's qualitative claim: the mean is minimized at an
    // intermediate range because detection time rises while split votes
    // fall.
    let best = points
        .iter()
        .min_by_key(|p| p.total.mean())
        .expect("non-empty sweep");
    println!(
        "minimum average election time: {} ms at range {}-{} ms",
        ms(best.total.mean()),
        best.range_ms.0,
        best.range_ms.1
    );
}

/// Figure 9: leader-election time of ESCAPE vs Raft at increasing scales
/// (§VI-B), the paper's headline experiment. Three panels: the ESCAPE
/// and Raft CDFs per scale (the CSV), and the average election time vs
/// cluster size. Paper setup: s ∈ {8, 16, 32, 64, 128}, Raft timeouts
/// 1500–3000 ms, ESCAPE `baseTime` 1500 ms / `k` 500 ms.
pub fn fig9(args: &BenchArgs) {
    eprintln!(
        "fig9: ESCAPE vs Raft at scales {:?}, {} runs per point (paper: 1000)",
        PAPER_SCALES, args.runs
    );
    let points = run_scale_sweep(&["escape", "raft"], &PAPER_SCALES, args.runs, args.seed);

    println!("== CDF of leader-election time (cumulative fraction) ==");
    let series = points
        .iter()
        .map(|p| (format!("{}_s{}", p.protocol, p.scale), &p.total));
    cdf_table(series, 1500, 6000, 40).emit(&args.csv);

    println!("== average leader-election time ==");
    let mut avg = Table::new(vec![
        "scale",
        "raft_mean_ms",
        "escape_mean_ms",
        "reduction",
        "raft_split_rate",
        "escape_split_rate",
        "escape_max_ms",
    ]);
    for &scale in &PAPER_SCALES {
        let raft = scale_point(&points, "raft", scale);
        let escape = scale_point(&points, "escape", scale);
        avg.row(vec![
            scale.to_string(),
            ms(raft.total.mean()),
            ms(escape.total.mean()),
            pct(reduction(raft.total.mean(), escape.total.mean())),
            format!("{:.3}", raft.split_vote_rate),
            format!("{:.3}", escape.split_vote_rate),
            ms(escape.total.max()),
        ]);
    }
    avg.emit(&None);

    // §VI-B checkable claims.
    for p in points.iter().filter(|p| p.protocol == "escape") {
        println!(
            "escape s={}: {} of elections within 2000 ms (paper: all)",
            p.scale,
            pct(p.total.fraction_within(Duration::from_millis(2000))),
        );
    }
    for p in points
        .iter()
        .filter(|p| p.protocol == "raft" && p.scale >= 32)
    {
        println!(
            "raft s={}: {} within 2000 ms (paper: <40%), {} beyond 4500 ms (paper at 128: >17%)",
            p.scale,
            pct(p.total.fraction_within(Duration::from_millis(2000))),
            pct(1.0 - p.total.fraction_within(Duration::from_millis(4500))),
        );
    }
}

/// Figure 10: election time under zero to three phases with competing
/// candidates (C.C.) at five scales (§VI-C), detection and election
/// reported separately as the paper's stacked bars do. Raft pays about
/// one election timeout per forced phase (the "provisional livelock");
/// ESCAPE resolves everything in a single campaign.
pub fn fig10(args: &BenchArgs) {
    eprintln!(
        "fig10: forced competing-candidate phases {:?} at scales {:?}, {} runs per point",
        PAPER_CLASSES, PAPER_SCALES, args.runs
    );
    let points = run_phases_sweep(
        &["raft", "escape"],
        &PAPER_SCALES,
        &PAPER_CLASSES,
        args.runs,
        args.seed,
    );

    let mut table = Table::new(vec![
        "protocol",
        "scale",
        "cc_phases",
        "detection_ms",
        "election_ms",
        "total_ms",
    ]);
    for p in &points {
        table.row(vec![
            p.protocol.to_string(),
            p.scale.to_string(),
            p.class.to_string(),
            ms(p.detection.mean()),
            ms(p.election.mean()),
            ms(p.total.mean()),
        ]);
    }
    table.emit(&args.csv);

    // §VI-C checkable claims: the three-phase comparison at s=8 and s=128.
    for &scale in &[8usize, 128] {
        let total = |protocol: &str, class: u32| phases_mean(&points, protocol, scale, class);
        println!(
            "s={scale}: raft 3-phase total {} ms (paper: ~{} ms); escape stays {} ms",
            ms(total("raft", 3)),
            if scale == 8 { "6535" } else { "7473" },
            ms(total("escape", 3)),
        );
        for class in [1u32, 2, 3] {
            println!(
                "  s={scale} {class}-phase reduction escape vs raft: {} (paper at 128: 44.9/64.2/74.3%)",
                pct(reduction(total("raft", class), total("escape", class))),
            );
        }
    }
}

/// Figure 11: leader election under message loss (§VI-D). Clusters of
/// 10, 50 and 100 servers; loss rates Δ ∈ {0, 10, 20, 30, 40} % applied
/// as per-broadcast receiver omission; Raft, Z-Raft and ESCAPE; a client
/// workload runs before each crash so logs diverge under loss.
pub fn fig11(args: &BenchArgs) {
    eprintln!(
        "fig11: Raft/Z-Raft/ESCAPE under loss {:?}% at scales {:?}, {} runs per point (paper: 1000)",
        PAPER_DELTAS,
        loss::PAPER_SCALES,
        args.runs
    );
    let points = run_loss_sweep(
        &["raft", "zraft", "escape"],
        &loss::PAPER_SCALES,
        &PAPER_DELTAS,
        args.runs,
        args.seed,
    );

    let mut table = Table::new(vec![
        "protocol",
        "scale",
        "delta_pct",
        "mean_total_ms",
        "p95_total_ms",
        "mean_campaigns",
        "timed_out",
    ]);
    for p in &points {
        table.row(vec![
            p.protocol.to_string(),
            p.scale.to_string(),
            p.delta_pct.to_string(),
            ms(p.total.mean()),
            ms(p.total.quantile(0.95)),
            format!("{:.2}", p.mean_campaigns),
            p.timed_out.to_string(),
        ]);
    }
    table.emit(&args.csv);

    for (scale, delta, who, paper, measured) in loss_claims(&points) {
        println!(
            "s={scale} Δ={delta}%: {who} reduces election time vs raft by {measured} (paper: {paper})"
        );
    }
}

fn escape_with(spacing_ms: u64, tolerance: u64, clock_every_round: bool) -> Protocol {
    Protocol::Custom(Arc::new(move |id: ServerId, n: usize, _seed| {
        let params = EscapeParams::builder(n)
            .base_time_ms(1500)
            .spacing_ms(spacing_ms)
            .build();
        Box::new(
            EscapePolicy::new(id, params)
                .with_rank_tolerance(tolerance)
                .with_clock_every_round(clock_every_round),
        )
    }))
}

/// Total election times, mean campaigns and timed-out trials of `runs`
/// trials of `template`.
fn summarize(template: &TrialConfig, seed: u64, runs: usize) -> (Summary, f64, usize) {
    let measured = run_trials(template, seed, runs);
    let timed_out = runs - measured.len();
    let campaigns =
        measured.iter().map(|m| m.campaigns as f64).sum::<f64>() / measured.len().max(1) as f64;
    (
        Summary::new(measured.iter().map(|m| m.total()).collect()),
        campaigns,
        timed_out,
    )
}

/// Ablations of the design choices the paper leaves open, each isolated
/// against the default configuration:
///
/// 1. **Eq. 1 spacing `k`**: the paper recommends `k` at least twice the
///    network latency (§VI-B) so the best candidate finishes before the
///    runner-up's timer fires; sweeping `k` shows why.
/// 2. **Configuration-clock policy**: a fresh clock every heartbeat (the
///    literal reading of §IV-B) vs only on assignment changes (the
///    default). Under loss, per-round clocks scatter voters across clock
///    values and the §IV-B vote rule starts refusing healthy candidates.
/// 3. **PPF rank tolerance**: how much replication jitter the patrol
///    ignores before re-ranking.
/// 4. **Vote-request retransmission**: without it, one lost solicitation
///    costs a whole election timeout.
pub fn ablations(args: &BenchArgs) {
    eprintln!("ablations at {} runs per point", args.runs);

    println!("== ablation 1: Eq. 1 spacing k (s=32, no loss) ==");
    let mut t = Table::new(vec!["k_ms", "mean_ms", "p95_ms", "max_ms", "campaigns"]);
    for k in [0u64, 100, 250, 500, 1000] {
        let cluster = ClusterConfig::paper_network(32, escape_with(k, 8, false), args.seed);
        let template = TrialConfig::election_only(cluster);
        let (total, campaigns, _) = summarize(&template, args.seed ^ k, args.runs);
        t.row(vec![
            k.to_string(),
            ms(total.mean()),
            ms(total.quantile(0.95)),
            ms(total.max()),
            format!("{campaigns:.2}"),
        ]);
    }
    t.emit(&None);
    println!("(k=0 still converges — priorities break the tie — but every\n follower campaigns; k ≥ 2× latency keeps elections single-candidate)\n");

    // No workload here: with an idle log the assignment is stable, which
    // is exactly when the two clock policies diverge — change-driven
    // clocks freeze (everyone stays admissible), per-round clocks keep
    // advancing and, under omission, scatter voters across clock values.
    println!("== ablation 2: configuration-clock policy (s=10, Δ=30%, idle log) ==");
    let mut t = Table::new(vec![
        "clock_policy",
        "mean_ms",
        "p95_ms",
        "campaigns",
        "timeouts",
    ]);
    for (label, every_round) in [
        ("on-change (default)", false),
        ("every-round (literal §IV-B)", true),
    ] {
        let mut cluster =
            ClusterConfig::paper_network(10, escape_with(500, 8, every_round), args.seed);
        cluster.loss = LossModel::BroadcastOmission(0.30);
        let template = TrialConfig::election_only(cluster);
        let (total, campaigns, timeouts) = summarize(&template, args.seed ^ 0xC10C, args.runs);
        t.row(vec![
            label.to_string(),
            ms(total.mean()),
            ms(total.quantile(0.95)),
            format!("{campaigns:.2}"),
            timeouts.to_string(),
        ]);
    }
    t.emit(&None);

    println!("== ablation 3: PPF rank tolerance (s=10, Δ=30%, workload) ==");
    let mut t = Table::new(vec!["tolerance", "mean_ms", "p95_ms", "campaigns"]);
    for tolerance in [1u64, 8, 64] {
        let mut cluster =
            ClusterConfig::paper_network(10, escape_with(500, tolerance, false), args.seed);
        cluster.loss = LossModel::BroadcastOmission(0.30);
        let template = TrialConfig::with_workload(cluster, 30);
        let (total, campaigns, _) = summarize(&template, args.seed ^ (tolerance << 8), args.runs);
        t.row(vec![
            tolerance.to_string(),
            ms(total.mean()),
            ms(total.quantile(0.95)),
            format!("{campaigns:.2}"),
        ]);
    }
    t.emit(&None);
    println!("(tolerance 1 re-ranks on every jitter — fresh clocks churn;\n tolerance 64 stops tracking genuine staleness)\n");

    println!("== ablation 4: RequestVote retransmission (raft, s=10, Δ=40%) ==");
    let mut t = Table::new(vec!["vote_retry", "mean_ms", "p95_ms", "campaigns"]);
    for (label, interval) in [
        ("500 ms (default)", Some(Duration::from_millis(500))),
        ("disabled", None),
    ] {
        let mut cluster =
            ClusterConfig::paper_network(10, Protocol::raft_paper_default(), args.seed);
        cluster.loss = LossModel::BroadcastOmission(0.40);
        cluster.options.vote_retry_interval = interval;
        let template = TrialConfig::with_workload(cluster, 30);
        let (total, campaigns, _) = summarize(&template, args.seed ^ 0xBEEF, args.runs);
        t.row(vec![
            label.to_string(),
            ms(total.mean()),
            ms(total.quantile(0.95)),
            format!("{campaigns:.2}"),
        ]);
    }
    t.emit(&None);
}

/// Every percentage claim from the paper's evaluation text, regenerated
/// in one run.
pub fn summary(args: &BenchArgs) {
    eprintln!("summary: headline claims at {} runs per point", args.runs);

    let mut table = Table::new(vec!["claim", "paper", "measured"]);

    // §VI-B: −11.6 % at s=8, −21.3 % at s=128.
    let scale_points = run_scale_sweep(&["raft", "escape"], &[8, 128], args.runs, args.seed);
    let scale_mean =
        |protocol: &str, scale: usize| scale_point(&scale_points, protocol, scale).total.mean();
    for (scale, paper) in [(8, "11.6%"), (128, "21.3%")] {
        table.row(vec![
            format!("LE-time reduction, s={scale}"),
            paper.to_string(),
            pct(reduction(
                scale_mean("raft", scale),
                scale_mean("escape", scale),
            )),
        ]);
    }
    table.row(vec![
        "ESCAPE elections within 2000 ms".to_string(),
        "100%".to_string(),
        pct(scale_point(&scale_points, "escape", 128)
            .total
            .fraction_within(Duration::from_millis(2000))),
    ]);

    // §VI-C: multi-phase reductions at s=128.
    let phase_points = run_phases_sweep(
        &["raft", "escape"],
        &[128],
        &[1, 2, 3],
        (args.runs / 4).max(5),
        args.seed,
    );
    for (class, paper) in [(1u32, "44.9%"), (2, "64.2%"), (3, "74.3%")] {
        table.row(vec![
            format!("{class}-phase C.C. reduction, s=128"),
            paper.to_string(),
            pct(reduction(
                phases_mean(&phase_points, "raft", 128, class),
                phases_mean(&phase_points, "escape", 128, class),
            )),
        ]);
    }

    // §VI-D: loss-rate reductions.
    let loss_points = run_loss_sweep(
        &["raft", "zraft", "escape"],
        &[10, 100],
        &[10, 40],
        args.runs,
        args.seed,
    );
    for (scale, delta, who, paper, measured) in loss_claims(&loss_points) {
        table.row(vec![
            format!("{who} reduction, s={scale}, Δ={delta}%"),
            paper.to_string(),
            measured,
        ]);
    }

    table.emit(&args.csv);
    println!(
        "reference means: raft s=128 {} ms, escape s=128 {} ms",
        ms(scale_mean("raft", 128)),
        ms(scale_mean("escape", 128)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_dispatches_and_unknown_names_list_them_all() {
        let defaults: Vec<String> = FIGURES
            .iter()
            .map(|(n, runs, _)| format!("{n}={runs}"))
            .collect();
        assert_eq!(
            defaults.join(" "),
            "fig3=200 fig4=200 fig9=200 fig10=50 fig11=100 ablations=60 summary=60"
        );
        for figure in &FIGURES {
            assert!(std::ptr::eq(lookup(figure.0).unwrap(), figure));
        }
        let err = lookup("fig5").expect_err("unknown names are refused");
        assert!(err.contains("\"fig5\""), "{err}");
        for (name, ..) in &FIGURES {
            assert!(err.contains(name), "{err} does not list {name}");
        }
    }

    /// The two 5-server figures run end to end through the table (the
    /// 128-server ones are too slow for a debug build) and write their
    /// whole CSV.
    #[test]
    fn five_server_figures_run_at_one_run_per_point() {
        for (name, header, rows) in [
            ("fig3", "time_ms,cdf_1500-1800,cdf_1500-2000,", 45),
            ("fig4", "range_ms,mean_total_ms,", PAPER_RANGES_MS.len()),
        ] {
            let csv = std::env::temp_dir()
                .join(format!("escape-bench-{name}-{}.csv", std::process::id()));
            let args = BenchArgs {
                runs: 1,
                seed: 42,
                csv: Some(csv.clone()),
            };
            (lookup(name).unwrap().2)(&args);
            let written = std::fs::read_to_string(&csv).unwrap();
            std::fs::remove_file(&csv).unwrap();
            assert!(written.starts_with(header), "{name}: {written}");
            assert_eq!(written.lines().count(), 1 + rows, "{name}: {written}");
        }
    }
}
