//! Exact order statistics over raw samples.

/// Sorts samples in place (total order; the benchmark never records NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// The nearest-rank `q`-quantile of sorted samples, or 0 with none.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile `n` samples support: p99 when at least ten samples
/// lie beyond it, otherwise the highest quantile with ten beyond it, and
/// never below the median — with 20 samples or fewer no quantile above the
/// median has ten beyond it, so the tail reads the median.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile(&s, 0.5)
}

/// Arithmetic mean, or 0 with no samples.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A latency summary: median, supported tail and the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// The tail value at quantile `tail_q`.
    pub tail: f64,
    /// The tail quantile used (see [`tail_q`]).
    pub tail_q: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises unsorted samples.
pub fn summarise(v: &[f64]) -> Summary {
    let mut s = v.to_vec();
    sort(&mut s);
    let q = tail_q(s.len());
    Summary { p50: quantile(&s, 0.5), tail: quantile(&s, q), tail_q: q, n: s.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_q(2000), 0.99);
        assert_eq!(quantile(&v, 0.99), 1980.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let q = tail_q(100);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(quantile(&v, q), 90.0, "ten samples lie beyond the reported tail");
        assert_eq!(tail_q(7), 0.5, "too few samples for a tail: the median");
        assert_eq!(tail_q(0), 0.5);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = summarise(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.p50, s.tail, s.n), (3.0, 3.0, 5));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
