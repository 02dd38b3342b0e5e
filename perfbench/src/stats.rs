//! Order statistics over a run's samples.

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the 99.9th, 99th, 95th, 90th and 75th percentiles that
/// has at least ten samples beyond it, as `(value, percentile)`; the
/// median when there are too few samples for any of them.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9 {
            return (quantile(xs, pct / 100.0), pct);
        }
    }
    (median(xs), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!(median(&[]).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((tail(&xs).1 - 90.0).abs() < 1e-12);
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!((tail(&few).1 - 50.0).abs() < 1e-12);
    }
}
