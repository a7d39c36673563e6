//! Order statistics and the geometric mean.

/// Median of `v` (mean of the middle pair for even lengths); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of sorted `v`, the percentile given in tenths
/// of a percent (integer arithmetic, so 95 % of 200 is rank 190 exactly).
/// Returns the value and the number of samples ranked above it.
fn nearest_rank(sorted: &[f64], permille: usize) -> (f64, usize) {
    let n = sorted.len();
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Percentiles considered for a tail, highest first, in tenths of a
/// percent.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail latency: the percentile, its value, the samples above it and
/// the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile, in percent.
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it (nearest rank). With fewer than 20 samples no percentile qualifies
/// and the maximum (p100, nothing beyond) is reported.
pub fn tail(v: &[f64]) -> Option<Tail> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pick = TAIL_LADDER
        .iter()
        .map(|&p| (p, nearest_rank(&s, p)))
        .find(|(_, (_, beyond))| *beyond >= 10)
        .unwrap_or_else(|| (1000, nearest_rank(&s, 1000)));
    let (permille, (value, beyond)) = pick;
    Some(Tail {
        percentile: permille as f64 / 10.0,
        value,
        beyond,
        samples: s.len(),
    })
}

/// Geometric mean of positive values, summed in the given order so that
/// the same inputs give the same bits; `None` when empty or any value is
/// not positive.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let logs: f64 = v.iter().map(|x| x.ln()).sum();
    Some((logs / v.len() as f64).exp())
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
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
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves 10.
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 leaves 2, p95 leaves exactly 10.
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));

        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 is rank 190 with 9 beyond, so p90 (rank 180, 19 beyond).
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 180.0, 19));

        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p90 leaves 4, p75 leaves 10.
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));

        // Too few samples: the maximum.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 12.0, 0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=100).map(|i| f64::from(i * 7 % 101)).collect();
        let a = tail(&v).unwrap();
        v.reverse();
        assert_eq!(tail(&v).unwrap(), a);
    }

    #[test]
    fn geomean_arithmetic() {
        assert_eq!(geomean(&[4.0]), Some(4.0));
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        // Scale-equivariant: geomean(k·x) = k·geomean(x).
        let x = [0.3, 7.0, 11.5, 2.25];
        let kx: Vec<f64> = x.iter().map(|v| v * 10.0).collect();
        let (a, b) = (geomean(&x).unwrap(), geomean(&kx).unwrap());
        assert!((b - 10.0 * a).abs() < 1e-9 * b);
        // Same inputs, same bits.
        assert_eq!(geomean(&x).unwrap().to_bits(), a.to_bits());
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn ratio_and_mean_handle_empty_inputs() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
