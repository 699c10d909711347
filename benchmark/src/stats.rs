//! Order statistics over latency samples.

/// The value at percentile `pct` of an ascending slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail a sample supports: the 99th percentile when at least ten
/// samples lie beyond its rank, else the highest percentile that has ten
/// beyond it, else (under twenty samples) the median. Returns the
/// percentile used and its value.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let beyond_p99 = n - (0.99 * n as f64).ceil() as usize;
    if beyond_p99 >= 10 {
        return (99.0, percentile(sorted, 99.0));
    }
    if n < 20 {
        return (50.0, percentile(sorted, 50.0));
    }
    (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11])
}

/// A median over floats (the mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), for two or more values.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: ranks 991..=1000 lie beyond p99, exactly ten
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), (99.0, 990));
        // 999 samples: only nine lie beyond p99, so the tail backs off
        // to the rank that has ten beyond it
        let v: Vec<u64> = (1..=999).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 989);
        assert!((98.9..99.0).contains(&pct), "{pct}");
        // 200 samples support p95
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail(&v), (95.0, 190));
        // too few for any tail: the median
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&v), (50.0, 10));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
