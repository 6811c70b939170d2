//! Order statistics: medians, nearest-rank percentiles, and the rule
//! that picks the highest percentile a sample can support.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the next lower rung of
//! [`TAIL_LADDER`] is used, down to the median, which is then flagged
//! as unsupported.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One summarized timing: its value, the sample count behind it, the
/// percentile it was read at, and whether at least [`MIN_BEYOND`]
/// samples lie beyond that percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub samples: usize,
    pub percentile: f64,
    pub supported: bool,
}

/// The median (mean of the two middle values for an even count; 0 for
/// an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile `p` (0 for an empty sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// The highest rung of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, for a sample of `n`; the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// The median, with its support flag.
pub fn mid(xs: &[f64]) -> Summary {
    Summary {
        value: median(xs),
        samples: xs.len(),
        percentile: 50.0,
        supported: beyond(xs.len(), 50.0) >= MIN_BEYOND,
    }
}

/// The tail at the highest supported percentile (see
/// [`tail_percentile`]); the median when only the median is left.
pub fn tail(xs: &[f64]) -> Summary {
    let p = tail_percentile(xs.len());
    Summary {
        value: if p == 50.0 {
            median(xs)
        } else {
            percentile(xs, p)
        },
        samples: xs.len(),
        percentile: p,
        supported: beyond(xs.len(), p) >= MIN_BEYOND,
    }
}

/// A percentile at a fixed level, with its support flag.
pub fn at(xs: &[f64], p: f64) -> Summary {
    Summary {
        value: percentile(xs, p),
        samples: xs.len(),
        percentile: p,
        supported: beyond(xs.len(), p) >= MIN_BEYOND,
    }
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
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
    }

    #[test]
    fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(7), 50.0);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.supported), (990.0, 99.0, true));
        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!((t.value, t.percentile, t.supported), (4.0, 50.0, false));
        let even: Vec<f64> = (1..=6).map(f64::from).collect();
        assert_eq!(tail(&even).value, median(&even));
        assert!(!mid(&few).supported);
        assert!(mid(&xs[..20]).supported);
    }
}
