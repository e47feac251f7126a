//! Order statistics for the harness: nearest-rank percentiles, the
//! "highest percentile the sample supports" rule, and the median/min/max
//! summary every end-to-end row is reported as.

/// Percentiles a latency sample may be reported at, lowest first.
pub const CANDIDATE_PERCENTILES: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` in a sample of `n`: `ceil(p * n / 100)`,
/// with a guard so that `99 % of 1000` is 990 and not 991 by rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it. Falls back to the median when even that has fewer:
/// a sample too small for any tail is still summarised by its middle.
pub fn supported_percentile(n: usize) -> f64 {
    CANDIDATE_PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values
}

/// A metric over in-process repetitions: the median and the extremes, so a
/// reader can see whether a difference clears the spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        let n = s.len();
        assert!(n > 0, "summary of an empty sample");
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Summary {
            median,
            min: s[0],
            max: s[n - 1],
            n,
        }
    }
}

/// Lower `floor` element-wise to `sample` (the first sample seeds it). The
/// repetitions of a workload time the same deterministic operations in the
/// same order, and the host only ever adds time to one, so the fastest
/// occurrence of each operation is the closest to what it costs.
pub fn lower_floor(floor: &mut Vec<f64>, sample: &[f64]) {
    if floor.is_empty() {
        floor.extend_from_slice(sample);
    }
    for (f, s) in floor.iter_mut().zip(sample) {
        *f = f.min(*s);
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // Five daily windows support no tail at all: median only.
        assert_eq!(supported_percentile(5), 50.0);
        // p50 of 20 has exactly 10 beyond it; p90 has 2.
        assert_eq!(supported_percentile(20), 50.0);
        // p90 of 100 has exactly 10 beyond it.
        assert_eq!(supported_percentile(99), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        // p99 needs 1 000 samples and is the highest candidate.
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(1_439), 99.0);
        assert_eq!(supported_percentile(1_000_000), 99.0);
    }

    #[test]
    fn floor_keeps_the_fastest_occurrence_of_each_operation() {
        let mut floor = Vec::new();
        lower_floor(&mut floor, &[3.0, 1.0, 5.0]);
        lower_floor(&mut floor, &[2.0, 4.0, 5.5]);
        assert_eq!(floor, [2.0, 1.0, 5.0]);
    }

    #[test]
    fn summary_is_median_with_extremes() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 10.0]).median, 2.5);
    }
}
