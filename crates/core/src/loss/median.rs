//! Weighted median (Eq 16), the minimizer of weighted absolute deviation.

/// Compute the weighted median of `(value, weight)` pairs per the paper's
/// definition (Eq 16, after \[28, Ch. 9\]): the value `v_j` such that
///
/// ```text
/// Σ_{k: v_k < v_j} w_k  <  W/2    and    Σ_{k: v_k > v_j} w_k  <=  W/2
/// ```
///
/// where `W` is the total weight. Implemented by sorting and scanning the
/// cumulative weight — `O(n log n)`; the conventional median is the special
/// case of equal weights.
///
/// Non-positive total weight falls back to equal weights so the result is
/// always defined for non-empty input.
///
/// # Panics
/// Panics if `pairs` is empty.
pub fn weighted_median(pairs: &[(f64, f64)]) -> f64 {
    weighted_median_in_place(&mut pairs.to_vec())
}

/// [`weighted_median`] over a caller-owned buffer, which it sorts in place
/// (and whose weights it overwrites on the equal-weight fallback).
///
/// # Panics
/// Panics if `pairs` is empty.
pub(crate) fn weighted_median_in_place(pairs: &mut [(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        for p in pairs.iter_mut() {
            p.1 = 1.0;
        }
    }
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    // crh-lint: allow(panic-expect) — documented contract: callers pass ≥1 pair, and the scan of a non-empty slice always yields a value
    median_of_sorted(pairs.len(), total, |i| pairs[i]).expect("weighted_median of empty set")
}

/// The Eq 16 scan over `len` pairs already in ascending `total_cmp` value
/// order, with `at(i)` the `i`-th `(value, weight)` and `total` their
/// weight sum. Runs of `==` values merge (so `-0.0` and `+0.0` form one
/// run, reported by its first value); the first run with
/// `below < W/2` and `above <= W/2` wins. Numerical slack can skip the
/// condition, in which case the largest value is returned. `None` only
/// for `len == 0`. Shared by [`weighted_median`] and the columnar median
/// kernel, which walks a presorted source order instead of a sorted copy.
#[inline]
pub(crate) fn median_of_sorted(
    len: usize,
    total: f64,
    at: impl Fn(usize) -> (f64, f64),
) -> Option<f64> {
    let half = total / 2.0;
    let mut below = 0.0; // Σ w_k over v_k strictly before the candidate run
    let mut i = 0;
    while i < len {
        // merge the run of equal values
        let v = at(i).0;
        let mut run_w = 0.0;
        let mut j = i;
        while j < len {
            let (x, w) = at(j);
            if x != v {
                break;
            }
            run_w += w;
            j += 1;
        }
        let above = total - below - run_w;
        if below < half && above <= half {
            return Some(v);
        }
        below += run_w;
        i = j;
    }
    len.checked_sub(1).map(|last| at(last).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_is_conventional_median() {
        let pairs: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&v| (v, 1.0))
            .collect();
        assert_eq!(weighted_median(&pairs), 3.0);
    }

    #[test]
    fn heavy_weight_drags_median() {
        let pairs = vec![(1.0, 1.0), (2.0, 1.0), (10.0, 5.0)];
        assert_eq!(weighted_median(&pairs), 10.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(weighted_median(&[(7.5, 0.3)]), 7.5);
    }

    #[test]
    fn definition_holds() {
        // check Eq 16's two inequalities on a random-ish fixed set
        let pairs = vec![(3.0, 0.7), (1.0, 0.2), (4.0, 0.4), (2.0, 0.9), (5.0, 0.1)];
        let m = weighted_median(&pairs);
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let below: f64 = pairs.iter().filter(|(v, _)| *v < m).map(|(_, w)| w).sum();
        let above: f64 = pairs.iter().filter(|(v, _)| *v > m).map(|(_, w)| w).sum();
        assert!(below < total / 2.0);
        assert!(above <= total / 2.0);
    }

    #[test]
    fn duplicate_values_merge() {
        let pairs = vec![(2.0, 1.0), (2.0, 1.0), (1.0, 1.5)];
        assert_eq!(weighted_median(&pairs), 2.0);
    }

    #[test]
    fn zero_total_weight_falls_back_to_unweighted() {
        let pairs = vec![(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        assert_eq!(weighted_median(&pairs), 2.0);
    }

    #[test]
    fn robust_to_outlier() {
        // median ignores the wild value even with mild weight differences —
        // the robustness argument of §2.4.2.
        let pairs = vec![(70.0, 1.0), (71.0, 1.0), (72.0, 1.0), (1000.0, 1.2)];
        let m = weighted_median(&pairs);
        assert!(m <= 72.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        weighted_median(&[]);
    }

    #[test]
    fn even_count_returns_lower_half_boundary_consistently() {
        // With equal weights on {1,2,3,4}: below(2)=1 < 2, above(2)=2 <= 2 -> 2.
        let pairs: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0].iter().map(|&v| (v, 1.0)).collect();
        assert_eq!(weighted_median(&pairs), 2.0);
    }
}
