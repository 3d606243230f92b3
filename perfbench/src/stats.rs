//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice: a percentile of nothing is a harness bug.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the samples whose nearest-rank position lies between the
/// `lo`-th and the `hi`-th percentile, both included: a percentile
/// estimate that moves smoothly where the samples sit on a few discrete
/// steps (today's request latencies sit on the kernel's 4 ms timer
/// steps, and a plain percentile flips between two of them run to run).
/// A band never holds fewer than two samples while there are two: it
/// grows downward, so that of a dozen jobs the estimate around the 95th
/// percentile is the mean of the slowest two, not the slowest alone.
///
/// # Panics
/// Panics on an empty slice.
pub fn band_mean(sorted: &[f64], lo: f64, hi: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = |p: f64| ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let last = rank(hi);
    let first = rank(lo).min(last.saturating_sub(1)).max(1);
    let band = &sorted[first - 1..last];
    band.iter().sum::<f64>() / band.len() as f64
}

/// `op_p50_ms` of an ascending sample: the mean of its central fifth.
pub fn smooth_p50(sorted: &[f64]) -> f64 {
    band_mean(sorted, 40.0, 60.0)
}

/// `op_p95_ms` of an ascending sample: the mean of the twentieth of it
/// around the 95th percentile.
pub fn smooth_p95(sorted: &[f64]) -> f64 {
    band_mean(sorted, 92.5, 97.5)
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// gives them — the rule the acceptance check applies to ten runs.
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Five samples: p50 is the 3rd, p95 the 5th (ceil(4.75) = 5).
        let w = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 50.0), 30);
        assert_eq!(percentile(&w, 95.0), 50);
        assert_eq!(percentile(&w, 20.0), 10);
        assert_eq!(percentile(&w, 21.0), 20);
        assert_eq!(percentile(&[7u64], 95.0), 7);
    }

    #[test]
    fn band_means_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 40..=60 and 93..=98.
        assert_eq!(band_mean(&v, 40.0, 60.0), 50.0);
        assert_eq!(band_mean(&v, 92.5, 97.5), 95.5);
        // Four samples: the band around the median is the two middle ones,
        // the band around p95 the largest alone, grown to the largest two.
        let w = [10.0, 20.0, 40.0, 80.0];
        assert_eq!(band_mean(&w, 40.0, 60.0), 30.0);
        assert_eq!(band_mean(&w, 92.5, 97.5), 60.0);
        // Fourteen: ranks 6..=9 and 13..=14; thirteen: 13 alone, so 12..=13.
        let x: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(band_mean(&x, 40.0, 60.0), 7.5);
        assert_eq!(band_mean(&x, 92.5, 97.5), 13.5);
        assert_eq!(band_mean(&x[..13], 92.5, 97.5), 12.5);
        assert_eq!(band_mean(&[7.0], 40.0, 60.0), 7.0);
        // Stepped samples: the estimate moves with the mass, not by a step.
        let mut stepped = vec![52.0; 45];
        stepped.extend(vec![56.0; 55]);
        assert!((band_mean(&stepped, 40.0, 60.0) - 54.857).abs() < 0.01);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
