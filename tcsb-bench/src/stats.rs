//! Order statistics for repetition samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest-rank on the sorted samples).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a timing may be reported at besides its median, in tenths
/// of a percent (integers, so "ten samples beyond" is decided exactly).
const TAIL_LADDER: [u64; 5] = [800, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it, or `None` when even p80 does not (n < 50): then
/// the median is the only figure the sample supports.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n as u64 * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Run-to-run spread of `xs` as a share of their median: the distance
/// between the first and third quartile (Python's
/// `statistics.quantiles(xs, n=4)`, exclusive method) for four or more
/// samples, the full range below that.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let width = if n < 4 {
        v[n - 1] - v[0]
    } else {
        let q = |k: f64| {
            // Exclusive method: position k·(n+1)/4, 1-based, interpolated.
            let pos = (k * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
        };
        q(3.0) - q(1.0)
    };
    (width / m).abs()
}
