//! Order statistics and name checks shared by every workload.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p / 100 * n)`.
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond that rank, so a p99 never rests on one outlier.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of already-sorted samples; `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Nearest-rank tail percentile that refuses to answer when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n.saturating_sub(if n == 0 { 0 } else { rank(n, p) });
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples has {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    nearest_rank(sorted, p).ok_or_else(|| "no samples".into())
}

/// Sort a copy of `xs` ascending (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    nearest_rank(&sorted(xs), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Rates of successive windows of `window` items: `ends[i]` is when
/// item `i` completed, in seconds from the start, and every item counts
/// `per_item` units. A window runs from the end of the previous one (or
/// the start) to the completion of its last item; a trailing partial
/// window is dropped.
pub fn window_rates(ends: &[f64], per_item: f64, window: usize) -> Vec<f64> {
    let window = window.max(1);
    let mut from = 0.0;
    ends.chunks_exact(window)
        .filter_map(|w| {
            let to = *w.last()?;
            let dt = to - from;
            from = to;
            (dt > 0.0).then(|| per_item * window as f64 / dt)
        })
        .collect()
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_ceiling_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&xs, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&xs, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Ok(990.0));
        // 999 samples: rank 990, only 9 beyond
        let err = tail_percentile(&xs[..999], 99.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p90 of 100 samples: rank 90, 10 beyond
        assert_eq!(tail_percentile(&xs[..100], 90.0), Ok(90.0));
        assert!(tail_percentile(&xs[..99], 90.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn window_rates_span_from_previous_window() {
        // items every 0.1 s, then a stall of 1 s before the sixth
        let ends = [0.1, 0.2, 0.3, 0.4, 1.4, 1.5, 1.6];
        let rates = window_rates(&ends, 10.0, 2);
        assert_eq!(rates.len(), 3, "the partial last window is dropped");
        assert!((rates[0] - 100.0).abs() < 1e-9);
        assert!((rates[1] - 100.0).abs() < 1e-9);
        assert!((rates[2] - 20.0 / 1.1).abs() < 1e-9);
        assert!(window_rates(&ends[..1], 10.0, 2).is_empty());
        assert_eq!(window_rates(&[0.5], 1.0, 0), vec![2.0]);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "core.table.build_ms", "a", "9-lives", "x.y_z-1"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "sp ace",
            "slash/es",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
