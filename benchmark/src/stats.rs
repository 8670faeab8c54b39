//! Order statistics used by the reports: medians, and tail percentiles
//! that are only reported when enough samples lie beyond them.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie strictly above its rank. With 100 samples the
/// 90th percentile has exactly 10 beyond it; with 99 it is withheld.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        // Reverse order so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&seq(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&seq(99), 90.0), None);
        assert_eq!(tail_percentile(&seq(200), 90.0), Some(180.0));
        assert_eq!(tail_percentile(&seq(30), 90.0), None);
    }

    #[test]
    fn median_percentile_is_nearest_rank() {
        assert_eq!(tail_percentile(&seq(100), 50.0), Some(50.0));
        assert_eq!(tail_percentile(&seq(11), 0.0), Some(1.0));
        assert_eq!(tail_percentile(&seq(5), 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
