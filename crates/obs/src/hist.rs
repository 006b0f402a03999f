//! Fixed-bucket log2 histograms.
//!
//! No dependencies, no floats on the record path: bucket selection is
//! a `leading_zeros` and an array increment, cheap enough to run once
//! per scored subject inside the sweep. Bucket `0` holds the value
//! `0`; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so the full `u64`
//! range fits in 65 buckets.
//!
//! All accumulation (recording **and** merging) uses saturating
//! arithmetic, which keeps [`merge`](Histogram::merge) associative
//! and commutative even at the `u64` ceiling — the property the
//! `hist_properties` proptest pins down, and the reason per-worker
//! histograms can be folded in any order without changing the
//! aggregate.

/// Number of log2 buckets covering all of `u64`.
pub const BUCKETS: usize = 65;

/// Index of the bucket holding `value`.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Write a Prometheus metric family's `# HELP` and `# TYPE` lines
/// (`kind` is `counter`, `gauge`, `summary`, …); the samples follow.
pub fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write as _;
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = bucket_of(value);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram in (saturating per field, so the fold
    /// order never matters).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 for an empty histogram).
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value; `0.0` for an empty histogram (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= 64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Exact inverse of [`bucket_upper`](Self::bucket_upper): the
    /// bucket index whose inclusive upper bound is `upper`, or `None`
    /// if `upper` is not a log2 bucket boundary. This is what lets a
    /// serialized `(upper, count)` pair list be mapped back onto the
    /// fixed bucket array losslessly.
    pub fn bucket_index(upper: u64) -> Option<usize> {
        match upper {
            0 => Some(0),
            u64::MAX => Some(64),
            u => {
                // upper == 2^i - 1  ⟺  upper + 1 is a power of two.
                if u.wrapping_add(1).is_power_of_two() {
                    Some(64 - u.leading_zeros() as usize)
                } else {
                    None
                }
            }
        }
    }

    /// Rebuild a histogram from serialized parts: occupied buckets as
    /// `(inclusive_upper_bound, count)` pairs (the shape produced by
    /// [`occupied`](Self::occupied)) plus the saturating `sum` and
    /// the `max` sample. Returns `None` when an upper bound is not a
    /// bucket boundary or the parts are inconsistent (samples with a
    /// zero count, or `sum`/`max` nonzero on an empty histogram).
    pub fn from_parts<I>(buckets: I, sum: u64, max: u64) -> Option<Self>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut h = Histogram::new();
        for (upper, count) in buckets {
            let idx = Self::bucket_index(upper)?;
            h.counts[idx] = h.counts[idx].saturating_add(count);
            h.count = h.count.saturating_add(count);
        }
        if h.count == 0 && (sum != 0 || max != 0) {
            return None;
        }
        h.sum = sum;
        h.max = max;
        Some(h)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`q` clamped to `[0, 1]`); `0` for an empty histogram. The
    /// log2 buckets make this an upper estimate within 2× of the true
    /// order statistic — the right fidelity for latency summaries.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate: [`quantile`](Self::quantile)`(0.50)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate: [`quantile`](Self::quantile)`(0.90)`.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate: [`quantile`](Self::quantile)`(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate:
    /// [`quantile`](Self::quantile)`(0.999)`.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Occupied buckets as `(inclusive_upper_bound, count)` pairs.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }

    /// Render as a Prometheus text-format histogram. Bucket bounds
    /// are multiplied by `scale` (e.g. `1e-9` to turn nanosecond
    /// samples into the idiomatic seconds), cumulated, and closed
    /// with the mandatory `+Inf` bucket, `_sum`, and `_count` lines.
    pub fn prom_lines(&self, name: &str, scale: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (upper, count) in self.occupied() {
            cum = cum.saturating_add(count);
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                upper as f64 * scale
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum as f64 * scale);
        let _ = writeln!(out, "{name}_count {}", self.count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(10), 1023);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_never_divides_by_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max_value(), 0);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1104);
        assert_eq!(h.max_value(), 1000);
        // p50 lands in the bucket of the 3rd sample (value 2, bucket
        // upper 3); quantiles are bucket upper bounds capped at max.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.0) >= 1);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = Histogram::new();
        a.record(u64::MAX);
        a.record(u64::MAX);
        assert_eq!(a.sum(), u64::MAX, "sum saturates on record");
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.sum(), u64::MAX);
        assert_eq!(b.count(), 4);
        assert_eq!(b.max_value(), u64::MAX);
    }

    #[test]
    fn prom_rendering_is_cumulative_and_closed() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        h.record(2_000_000);
        let text = h.prom_lines("aalign_subject_latency_seconds", 1e-9);
        assert!(text.contains("# TYPE aalign_subject_latency_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        assert!(text.contains("_count 3"));
        // Cumulative: the widest finite bucket already counts all 3.
        let last_finite = text
            .lines()
            .rfind(|l| l.contains("le=\"") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_finite.ends_with(" 3"), "{last_finite}");
    }

    #[test]
    fn named_quantile_accessors_match_quantile() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), h.quantile(0.50));
        assert_eq!(h.p90(), h.quantile(0.90));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p999(), h.quantile(0.999));
        // The tail quantiles are ordered and land at/above the body.
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max_value());
    }
}
