//! Exact percentiles over raw per-operation samples.
//!
//! Every latency sample is kept, so a percentile is the sample at its
//! nearest rank, not a bucket bound: a change of a few percent shows.

/// Sorted latency samples in nanoseconds.
pub struct Samples(Vec<u64>);

/// Percentiles tried, highest first, when looking for the highest one
/// that still has at least [`TAIL_MIN`] samples beyond it.
const CANDIDATES: [f64; 7] = [99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be trusted.
pub const TAIL_MIN: usize = 10;

impl Samples {
    pub fn new(mut nanos: Vec<u64>) -> Samples {
        nanos.sort_unstable();
        Samples(nanos)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of percentile `p`.
    fn rank(&self, p: f64) -> usize {
        ((p / 100.0 * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len())
    }

    /// Nearest-rank percentile in microseconds (0 with no samples).
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[self.rank(p) - 1] as f64 / 1e3
    }

    /// Samples strictly after the rank of percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        if self.0.is_empty() {
            return 0;
        }
        self.0.len() - self.rank(p)
    }

    /// The highest candidate percentile with at least [`TAIL_MIN`]
    /// samples beyond it, or `None` when even the median has fewer.
    pub fn top_trusted(&self) -> Option<f64> {
        CANDIDATES.into_iter().find(|&p| self.beyond(p) >= TAIL_MIN)
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&n| n as f64).sum::<f64>() / self.0.len() as f64 / 1e3
    }
}

/// Median of a small list of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=1000).rev().map(|n| n * 1000).collect());
        assert_eq!(s.pct_us(50.0), 500.0);
        assert_eq!(s.pct_us(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.top_trusted(), Some(99.0));
    }

    #[test]
    fn few_samples_trust_no_percentile() {
        let s = Samples::new(vec![5; 15]);
        assert_eq!(s.top_trusted(), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
