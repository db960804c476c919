//! Order statistics for timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated
/// between the two nearest ranks. `sorted` must be ascending.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// The `p`-th percentile (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The mean, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The samples of the quietest `share` of `windows`, pooled: at least
/// `at_least` windows, or all there are. A window is as quiet as its
/// median is low.
///
/// This is how a run reads a latency on a host it shares. Neighbours on
/// the same cores slow every submit by a third or more for 0.1 to 3 s at
/// a stretch and never speed one up, so the windows with the lowest
/// medians are the ones the program ran alone in. Windows are chosen by
/// their median and the tail is read off what was chosen, so the choice
/// does not bias the tail towards windows that merely lacked slow
/// requests.
pub fn quietest_pooled(windows: &[&[f64]], share: f64, at_least: usize) -> Vec<f64> {
    let mut by_median: Vec<(f64, &[f64])> = windows.iter().map(|w| (median(w), *w)).collect();
    by_median.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timing samples are finite"));
    let keep = ((windows.len() as f64 * share).ceil() as usize)
        .max(at_least)
        .min(windows.len());
    by_median[..keep]
        .iter()
        .flat_map(|(_, w)| w.iter().copied())
        .collect()
}

/// Median, quartiles and sample count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn the_quietest_share_pools_the_windows_with_the_lowest_medians() {
        let quiet_a = [10.0, 11.0, 90.0];
        let quiet_b = [12.0, 10.0, 11.5];
        let slowed = [15.0, 16.0, 17.0];
        let spiked = [9.0, 30.0, 31.0];
        let windows: [&[f64]; 4] = [&slowed, &quiet_a, &spiked, &quiet_b];
        // Half of four windows: the two with medians 11 and 11.5, whole,
        // the 90 included. The 9 sits in a window that was not quiet.
        let mut pooled = quietest_pooled(&windows, 0.5, 1);
        pooled.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(pooled, [10.0, 10.0, 11.0, 11.5, 12.0, 90.0]);
        // Never fewer windows than asked for, never more than there are.
        assert_eq!(quietest_pooled(&windows, 0.0, 1), quiet_a);
        assert_eq!(quietest_pooled(&windows, 0.1, 3).len(), 9);
        assert_eq!(quietest_pooled(&windows, 0.1, 10).len(), 12);
    }

    #[test]
    fn percentile_hits_the_tail_of_a_large_sample() {
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
    }
}
