//! Order statistics used by every metric.

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` is a fraction in `[0, 1]`; an empty sample
/// gives `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The `q` percentile of each of `windows` equal time windows of
/// `[0, seconds)`, in time order. Samples are `(offset_s, value)`; empty
/// windows are skipped.
pub fn window_percentiles(
    samples: &[(f64, f64)],
    seconds: f64,
    windows: usize,
    q: f64,
) -> Vec<f64> {
    let windows = windows.max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, value) in samples {
        let w = ((at / seconds) * windows as f64) as usize;
        per_window[w.min(windows - 1)].push(value);
    }
    per_window.iter().filter_map(|w| percentile(w, q)).collect()
}

/// The mean over the windows of [`window_percentiles`]. The host's speed
/// drifts between slow and fast stretches of a few seconds; the mean
/// weighs them by their share of the run, where a median would jump
/// between them as that share crosses one half.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    seconds: f64,
    windows: usize,
    q: f64,
) -> Option<f64> {
    mean(&window_percentiles(samples, seconds, windows, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 0.99), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        // Never interpolates between two samples.
        assert_eq!(median(&[1.0, 4.0]), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_percentile_averages_the_windows() {
        // Ten windows of 1 s; window 3 reads 100 more.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let at = i as f64 / 100.0;
                let value = f64::from(i % 10) + if (3.0..4.0).contains(&at) { 100.0 } else { 0.0 };
                (at, value)
            })
            .collect();
        assert_eq!(
            window_percentiles(&samples, 10.0, 10, 0.5),
            [4.0, 4.0, 4.0, 104.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]
        );
        assert_eq!(windowed_percentile(&samples, 10.0, 10, 0.5), Some(14.0));
        assert_eq!(windowed_percentile(&samples, 10.0, 10, 0.9), Some(18.0));
        // One window is the plain percentile.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(
            windowed_percentile(&samples, 10.0, 1, 0.9),
            percentile(&all, 0.9)
        );
        assert_eq!(windowed_percentile(&[], 10.0, 4, 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
        assert_eq!(mean(&b), Some(3.0));
    }
}
