//! The benchmark's arithmetic: medians, the percentile rule, and
//! paired differences between layers.

/// Median; the mean of the two middle values for an even count.
/// `NaN` for no samples, so a missing measurement cannot pass for one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in 0–100) of `samples`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten
/// samples beyond it; a tail read off fewer samples is noise.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, samples it takes to leave ten beyond it)
    [(99.9, 10_000), (99.0, 1_000), (90.0, 100)]
        .into_iter()
        .find(|&(_, needed)| samples >= needed)
        .map_or(50.0, |(pct, _)| pct)
}

/// One timing, and how much of it the hypervisor spent running another
/// tenant on the benchmark's CPU (the steal counter's advance while it
/// was taken, in the timing's unit; 0 when the counter stood still).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub value: f64,
    pub stolen: f64,
}

/// The timings the host left alone, and how many it did not. Steal
/// says nothing about the program, and on a shared host it comes in
/// bursts that last minutes. When too few timings escaped — under a
/// tenth, or under eight of sixteen or more — all are kept, each less
/// its stolen time: coarser (the counter ticks in 10 ms) and still
/// high (a CPU handed back has cold caches), but the best on offer.
pub fn undisturbed(samples: &[Timed]) -> (Vec<f64>, usize) {
    let clean: Vec<f64> = samples
        .iter()
        .filter(|t| t.stolen == 0.0)
        .map(|t| t.value)
        .collect();
    let disturbed = samples.len() - clean.len();
    let enough = (samples.len() / 2).min(8).max(samples.len() / 10).max(1);
    if clean.len() >= enough {
        (clean, disturbed)
    } else {
        let corrected = samples.iter().map(|t| t.value - t.stolen).collect();
        (corrected, disturbed)
    }
}

/// Median over ops of `upper[i] − lower[i]`: what the upper layer adds
/// to the layer beneath it, with drift between ops cancelled because
/// both sides of each difference ran back to back on the same query.
pub fn paired_diff_median(upper: &[f64], lower: &[f64]) -> f64 {
    assert_eq!(upper.len(), lower.len(), "layers were not run in pairs");
    let diffs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    median(&diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn undisturbed_drops_stolen_timings_unless_too_few_remain() {
        let timed = |value: f64, stolen: f64| Timed { value, stolen };
        let mut samples: Vec<Timed> = (0..20)
            .map(|i| timed(100.0 + f64::from(i), f64::from(i % 2) * 10.0))
            .collect();
        let (kept, disturbed) = undisturbed(&samples);
        assert_eq!((kept.len(), disturbed), (10, 10));
        assert!(kept.iter().all(|v| (*v as u32).is_multiple_of(2)));
        // Seven clean of twenty is under the floor of eight: keep all,
        // each less what was stolen from it.
        for s in samples.iter_mut().filter(|s| s.stolen == 0.0).take(3) {
            s.stolen = 30.0;
        }
        let (kept, disturbed) = undisturbed(&samples);
        assert_eq!((kept.len(), disturbed), (20, 13));
        assert_eq!(&kept[..4], &[70.0, 91.0, 72.0, 93.0]);
        // Three set-up rounds, one stolen from: the two clean ones stand.
        let rounds = [timed(0.5, 0.0), timed(0.9, 0.3), timed(0.6, 0.0)];
        assert_eq!(undisturbed(&rounds), (vec![0.5, 0.6], 1));
        // A thousand ops, ninety clean: under a tenth, keep all.
        let many: Vec<Timed> = (0..1000)
            .map(|i| timed(1.0, if i < 90 { 0.0 } else { 0.5 }))
            .collect();
        assert_eq!(undisturbed(&many).0.len(), 1000);
    }

    #[test]
    fn paired_differences_cancel_shared_drift() {
        // The lower layer drifts 10 → 30; the upper layer adds 2 each time.
        let lower = [10.0, 20.0, 30.0];
        let upper = [12.0, 22.0, 32.0];
        assert_eq!(paired_diff_median(&upper, &lower), 2.0);
        // A difference of medians would be the same here, but not when
        // one pair is disturbed:
        let upper = [12.0, 22.0, 90.0];
        assert_eq!(paired_diff_median(&upper, &lower), 2.0);
    }
}
