//! Order statistics over timing samples.

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `q` of all samples at or
/// below it. Nearest rank never interpolates, so the value reported is
/// always one that was measured. Returns `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the tail a
/// percentile rests on. A percentile is reported only when at least
/// ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(v) => samples.iter().filter(|&&s| s > v).count(),
        None => 0,
    }
}

/// `num / den`, 0 when the base is empty (the ratio is printed with
/// its base, so an empty base is never mistaken for a measured zero).
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
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(5.0));
        assert_eq!(quantile(&s, 0.95), Some(10.0));
        assert_eq!(quantile(&s, 0.1), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&s, 0.0), None);
    }

    #[test]
    fn p95_of_two_hundred_probes_leaves_ten_beyond() {
        // Distinct samples: exactly 10 of 200 lie above the p95.
        let s: Vec<f64> = (0..200).rev().map(f64::from).collect();
        assert_eq!(quantile(&s, 0.95), Some(189.0));
        assert_eq!(beyond(&s, 0.95), 10);
        // Fewer probes would leave too thin a tail.
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(beyond(&short, 0.95) < 10);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
