//! Order statistics over per-pass samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it, and
/// its percentile rank. With fewer than eleven samples no such statistic
/// exists; the maximum is returned with rank 100 so the caller can say so.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    let k = n - 11;
    (v[k], 100.0 * k as f64 / (n - 1) as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let (v, rank) = tail(&xs);
        assert_eq!(v, 29.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((rank - 100.0 * 29.0 / 39.0).abs() < 1e-12);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
