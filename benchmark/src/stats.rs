//! Order statistics and the two series finders the workloads share:
//! the percentile picker with the "at least ten samples beyond" rule,
//! and the per-cycle outage-gap finder.

/// Sorts in place and returns the slice (NaN never occurs: every sample
/// is a difference of monotonic clock readings or a count).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest percentile of the ladder, no higher than `cap`, that
/// still has at least ten samples beyond it in a sample of `n`; the
/// median when even p90 does not.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| *p <= cap && (n as f64) * (1.0 - p) >= 10.0)
        .fold(0.50, f64::max)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver uses for spreads. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated, clamped
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` below four
/// values, where a spread says nothing.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The share of a run's slices the reported level matches or beats. The
/// host disturbs in one direction only: for seconds at a time, often
/// for most of a run, everything on this processor runs a fifth slower
/// while the box itself is idle (another tenant's doing). A mean or a
/// median over the run follows the host's mood (ten runs of
/// `memory-reads` spread 5–9 %, and their level moved 6 % between two
/// sets of ten); but nearly every run holds a few undisturbed tenths of
/// a second, and the rate there repeats within 1–2 %. So a closed
/// loop's throughput is this upper quantile of its slices' rates, and
/// its latency the mirrored lower quantile of their medians: what the
/// program does when the host lets it.
pub const UNDISTURBED: f64 = 0.98;

/// A window cut into consecutive slices of equal width.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slices {
    /// Work per second done in each slice.
    pub rates: Vec<f64>,
    /// Median latency (ms) of the timed work that ended in each slice
    /// in which any did.
    pub medians: Vec<f64>,
}

impl Slices {
    pub fn extend(&mut self, other: &Slices) {
        self.rates.extend_from_slice(&other.rates);
        self.medians.extend_from_slice(&other.medians);
    }

    /// The undisturbed throughput: the [`UNDISTURBED`] quantile of the rates.
    pub fn rate(&self) -> f64 {
        let mut v = self.rates.clone();
        percentile(sorted(&mut v), UNDISTURBED)
    }

    /// The undisturbed latency: the mirrored quantile of the medians.
    pub fn latency_ms(&self) -> f64 {
        let mut v = self.medians.clone();
        v.sort_by(|a, b| b.total_cmp(a));
        percentile(&v, UNDISTURBED)
    }
}

/// Cuts `[from_ns, to_ns)` into whole slices `width_ns` wide (a shorter
/// remainder is dropped). Each piece of work — (start, end, units,
/// latency in ms if it is a timed one) — is spread over the slices it
/// ran in, in proportion to the time it spent in each, and gives its
/// latency to the slice it ended in.
pub fn slices(
    done: impl Iterator<Item = (u64, u64, f64, Option<f64>)>,
    from_ns: u64,
    to_ns: u64,
    width_ns: u64,
) -> Slices {
    let width_ns = width_ns.max(1);
    let count = (to_ns.saturating_sub(from_ns) / width_ns) as usize;
    let mut work = vec![0.0; count];
    let mut timed: Vec<Vec<f64>> = vec![Vec::new(); count];
    let slice_of = |t_ns: u64| (t_ns.saturating_sub(from_ns) / width_ns) as usize;
    for (start_ns, end_ns, units, ms) in done {
        let length = end_ns.saturating_sub(start_ns).max(1);
        for (k, share) in work
            .iter_mut()
            .enumerate()
            .take(slice_of(end_ns) + 1)
            .skip(slice_of(start_ns))
        {
            let slice_from = from_ns + k as u64 * width_ns;
            let inside = (end_ns.max(start_ns + 1))
                .min(slice_from + width_ns)
                .saturating_sub(start_ns.max(slice_from));
            *share += units * inside as f64 / length as f64;
        }
        if let Some(slot) = timed
            .get_mut(slice_of(end_ns))
            .filter(|_| end_ns >= from_ns)
        {
            slot.extend(ms);
        }
    }
    Slices {
        rates: work.iter().map(|w| w * 1e9 / width_ns as f64).collect(),
        medians: timed
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .collect(),
    }
}

/// For each fault cycle `[starts[k], starts[k+1])` (the last one ends at
/// `end`), the longest gap between consecutive successful completions
/// whose right edge falls in the cycle — so the gap a kill opens is
/// charged to that kill even though its left edge (the last success
/// before the kill) precedes it, and no gap is charged twice. Silence
/// from the last completion to `end` counts against the last cycle.
/// `completions` is ascending; all times share one clock.
pub fn outage_gaps(completions: &[u64], starts: &[u64], end: u64) -> Vec<u64> {
    let mut gaps: Vec<u64> = starts
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let stop = starts.get(k + 1).copied().unwrap_or(end);
            let first = completions.partition_point(|t| *t < start);
            let last = completions.partition_point(|t| *t < stop);
            (first..last)
                .map(|i| match i.checked_sub(1) {
                    Some(before) => completions[i] - completions[before],
                    None => completions[i] - start,
                })
                .max()
                .unwrap_or(0)
        })
        .collect();
    if let (Some(last_gap), Some(&first_start)) = (gaps.last_mut(), starts.first()) {
        let last_done = completions.last().copied().unwrap_or(first_start);
        *last_gap = (*last_gap).max(end.saturating_sub(last_done));
    }
    gaps
}
