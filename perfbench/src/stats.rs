//! Order statistics the benchmark reports: medians, quartiles and tail
//! percentiles, each computed the way Python's
//! `statistics.quantiles(method="exclusive")` computes them, so a reader
//! can recompute any number from the raw samples.

/// The `p`-th percentile (0 < p < 100) of `samples`, by linear
/// interpolation between order statistics at rank `(n + 1) * p / 100`
/// (clamped to the first and last sample).  `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (n as f64 + 1.0) * p / 100.0;
    if rank <= 1.0 {
        return Some(sorted[0]);
    }
    if rank >= n as f64 {
        return Some(sorted[n - 1]);
    }
    let lo = rank.floor() as usize; // 1-based
    let frac = rank - lo as f64;
    Some(sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1]))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// First and third quartiles of `samples`.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    Some((percentile(samples, 25.0)?, percentile(samples, 75.0)?))
}

/// The tail percentiles a report may quote, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of p99.9, p99, p90 and p50 that leaves at least ten of `n`
/// samples beyond it, so a tail figure never rests on a handful of
/// outliers: p99 needs 1,000 samples.  `None` below 20 samples, where not
/// even the median has ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
    }

    #[test]
    fn percentiles_clamp_at_the_ends() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        assert_eq!(percentile(&xs, 99.0), Some(20.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 100, 1_000, 5_000, 10_000, 50_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn metric_names_use_only_the_allowed_alphabet() {
        assert!(valid_metric_name("step_ms"));
        assert!(valid_metric_name("vmi.aggregate.send_ns"));
        assert!(valid_metric_name("9-lives"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("rtt us"));
        assert!(!valid_metric_name("p99/us"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
