//! Order statistics under the benchmark's reporting rule: a tail
//! percentile is reported only when at least [`TAIL_MIN_BEYOND`] samples
//! lie beyond it, so a "p99" is never the maximum of a handful of runs.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie above its rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The smallest sample count at which `percentile(_, p)` is reported.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            rank > 0 && n - rank >= TAIL_MIN_BEYOND
        })
        .expect("some sample count reaches any percentile below 100")
}

/// The median, over consecutive windows of `window` samples (in the order
/// given), of each window's `p`-th percentile; `None` unless at least one
/// full window reports it. A burst of host noise then moves only the
/// windows it falls in, not the run's figure.
pub fn windowed_percentile(values: &[f64], p: f64, window: usize) -> Option<f64> {
    let per_window: Vec<f64> =
        values.chunks_exact(window).filter_map(|w| percentile(w, p)).collect();
    median(&per_window)
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
