//! Sample statistics: medians and tail percentiles with the benchmark's
//! sample-count rule.

/// Sorts a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `p` (0..=100) of ascending `s`; NaN when empty.
pub fn percentile(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v` (nearest rank); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// Arithmetic mean of `v`; NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Percentile `p` of `v`, refused unless at least ten samples lie beyond
/// it — a tail figure read off fewer samples is noise, not a percentile.
pub fn tail(v: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let beyond = v.len() as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 {
        return Err(format!(
            "{what}: p{p} needs at least ten samples beyond it, have {} samples",
            v.len()
        ));
    }
    Ok(percentile(&sorted(v), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 99.0, "x").is_err());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0, "x"), Ok(989.0));
    }
}
