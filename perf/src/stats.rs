//! Exact order statistics over raw samples (no histogram buckets).

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least fraction `p` of the samples at or below it.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method), which is what the benchmark's acceptance
/// rule is stated in. One sample gives that sample three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The three timing metrics of a measured phase run as consecutive parts
/// `(correct ops, wall seconds, latency samples in ns)`: each is computed
/// per part and the median part is reported, so a burst of interference
/// that lands in one part does not move the run's numbers.
pub struct Timing {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

pub fn timing(parts: impl Iterator<Item = (f64, f64, Vec<u32>)>) -> Timing {
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for (good, wall_s, mut samples) in parts.filter(|(_, _, samples)| !samples.is_empty()) {
        samples.sort_unstable();
        rate.push(good / wall_s);
        p50.push(f64::from(percentile(&samples, 0.50)) / 1e3);
        p99.push(f64::from(percentile(&samples, 0.99)) / 1e3);
    }
    Timing {
        ops_per_s: median(&rate),
        p50_us: median(&p50),
        p99_us: median(&p99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution() {
        // 1..=1000 ns: the p-th percentile is exactly 1000 p.
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&sorted, 0.0), 1);
        // A 2x-wide histogram bucket would have answered 511 or 1023 here.
        let skew: Vec<u32> = (0..990)
            .map(|_| 100)
            .chain((0..10).map(|i| 5000 + i))
            .collect();
        assert_eq!(percentile(&skew, 0.50), 100);
        assert_eq!(percentile(&skew, 0.99), 100);
        assert_eq!(percentile(&skew, 0.991), 5000);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn timing_reports_the_median_part() {
        // Three parts of 100 ops; the middle one hit a stall.
        let part = |ns: u32| (100.0, f64::from(ns) * 100.0 / 1e9, vec![ns; 100]);
        let t = timing([part(1000), part(50_000), part(2000)].into_iter());
        assert_eq!((t.p50_us, t.p99_us), (2.0, 2.0));
        assert_eq!(t.ops_per_s, 500_000.0);
        // An empty part (the deadline cut the run short) is left out.
        let t = timing([part(1000), (0.0, 0.0, Vec::new())].into_iter());
        assert_eq!(t.p50_us, 1.0);
    }
}
