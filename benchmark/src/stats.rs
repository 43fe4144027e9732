//! Order statistics for small samples.

/// Median; the mean of the two middle values for an even count.
/// Panics on an empty slice: every caller has at least one rep.
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

/// The smallest value: what a host time reads on a shared machine when
/// nothing else held the CPU, since interference only ever adds time.
/// Panics on an empty slice, like [`median`].
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles the harness is willing to report, ascending.
const TAILS: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] that still has at least ten samples
/// beyond it, or `None` when even p75 does not (fewer than 40 samples): a
/// tail read off two or three samples is noise, not a percentile.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        // Integer arithmetic in tenths of a percent: 400 × 5 % is exactly 20.
        .find(|p| samples * (1000 - (p * 10.0).round() as usize) >= 10 * 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[1.0, 1.0, 9.0, 9.0]), 5.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 200.0);
        assert_eq!(percentile(&xs, 95.0), 380.0);
        assert_eq!(percentile(&xs, 100.0), 400.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // Ten timed reps: no tail at all, only the median is reported.
        assert_eq!(highest_percentile(10), None);
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        // The 400 jobs of one serve_mix rep: 20 beyond p95, 4 beyond p99.
        assert_eq!(highest_percentile(400), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }
}
