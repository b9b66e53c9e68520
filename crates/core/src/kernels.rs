//! Vectorization-friendly loss kernels over columnar claim storage.
//!
//! The row-oriented hot loops in [`solver`](crate::solver) spend most of
//! their time chasing `Value` enums and virtual [`Loss`](crate::loss::Loss)
//! calls per observation. For the paper's three workhorse losses the same
//! arithmetic can run as flat sweeps over the dense columns built by
//! [`columnar`](crate::columnar):
//!
//! * **weighted vote** (Eq 9) over dense `u32` ids — [`fit_vote`],
//! * **weighted mean** (Eq 14) / **weighted median** (Eq 16) over
//!   contiguous `f64` columns — [`fit_mean`] / [`fit_median`],
//! * **deviation accumulation** (Eqs 8/13/15) as branch-free column
//!   sweeps — [`dev_sweep_zero_one`], [`dev_sweep_squared`],
//!   [`dev_sweep_absolute`], [`dev_sweep_unit`].
//!
//! ## Bit-identity contract
//!
//! Every kernel here reproduces its row-path counterpart **to the bit**, at
//! every thread count — the determinism suite compares digests against the
//! row layout directly. Two rules make that work:
//!
//! 1. **Fits replay the row path's fold order.** Observations inside an
//!    entry are stored in ascending source order, and the fit kernels
//!    iterate the validity bitmap's set bits in that same ascending order,
//!    so every intermediate sum associates identically. Masked arithmetic
//!    is *not* used for fits: `0.0 * x` can yield `-0.0` and flip the sign
//!    of an accumulator that the row path never touched. The median fit
//!    walks a per-row source order sorted once per solve
//!    ([`MedianOrder`](crate::columnar::MedianOrder)) — the same order the
//!    row path's stable sort produces — through the shared
//!    [`median_of_sorted`] scan.
//! 2. **Deviation sweeps are branch-free selects on the column's own
//!    sentinel.** Every loss term is `>= +0.0` and the accumulators start
//!    at `+0.0`, so adding a literal `0.0` for an empty slot is the exact
//!    identity the row path gets by not adding at all. Empty slots hold
//!    `NaN` in an `f64` column and [`MISSING_CODE`] in a coded one (see
//!    [`Slot`]), so the select `if present { term } else { 0.0 }` reads
//!    only the slot it prices and compiles to a masked blend. Testing the
//!    validity bitmap per slot instead measured 1.5–2× slower per slot
//!    (DESIGN.md §15).
//!
//! Cross-chunk reduction uses [`pairwise_accumulate`]: a fixed pairwise
//! tree over the chunk index, a pure function of the chunk count (which is
//! itself a pure function of the entry count — see [`Pool`]), so the merged
//! deviation matrix is bit-identical for every thread count and shared by
//! the row and columnar paths alike.
//!
//! [`Pool`]: crate::par::Pool

use crate::columnar::MISSING_CODE;
use crate::loss::median_of_sorted;

/// Which columnar fast path (if any) reproduces a loss exactly.
///
/// A loss advertises a non-[`Generic`](KernelClass::Generic) class **only
/// if** its `fit` and `loss` semantics match the corresponding built-in
/// formula bit-for-bit — the kernels replace the virtual calls outright.
/// Anything else (distribution losses, text medoids, ensembles, custom
/// user losses) keeps the exact row-oriented path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelClass {
    /// No fast path: per-entry `Loss::fit` / `Loss::loss` calls.
    #[default]
    Generic,
    /// Weighted plurality vote over dense ids + 0-1 deviation sweep
    /// ([`ZeroOneLoss`](crate::loss::ZeroOneLoss) on categorical data).
    Vote,
    /// Weighted mean + normalized squared deviation sweep
    /// ([`SquaredLoss`](crate::loss::SquaredLoss) on continuous data).
    Mean,
    /// Weighted median + normalized absolute deviation sweep
    /// ([`AbsoluteLoss`](crate::loss::AbsoluteLoss) on continuous data).
    Median,
}

/// Reusable per-chunk fit scratch: the vote tally (indexed by dense id,
/// epoch-stamped so it clears in O(candidates) per entry). Sized lazily on
/// first use; the steady-state iteration loop performs no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FitScratch {
    /// `tally[code]` = accumulated vote weight for the current entry.
    tally: Vec<f64>,
    /// Codes observed in the current entry, in first-appearance order —
    /// the vote fold visits candidates exactly as the row path does.
    touched: Vec<u32>,
    /// `seen[code] == stamp` marks `tally[code]` as live for this entry.
    seen: Vec<u32>,
    /// Current epoch stamp.
    stamp: u32,
}

impl FitScratch {
    /// Grow the tally to `domain` codes and open a fresh epoch.
    fn begin_entry(&mut self, domain: usize) {
        if self.tally.len() < domain {
            self.tally.resize(domain, 0.0);
            self.seen.resize(domain, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // wrapped: old stamps could alias the new epoch — reset once
            for s in &mut self.seen {
                *s = 0;
            }
            self.stamp = 1;
        }
        self.touched.clear();
    }
}

/// Visit the set bits of `valid` in ascending order — ascending source id,
/// the exact iteration order of a row-path observation slice.
#[inline]
pub(crate) fn for_each_valid(valid: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in valid.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((wi << 6) + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// A column slot that marks its own absence in-band: `NaN` in an `f64`
/// column (real claims are finite), [`MISSING_CODE`] in a coded column.
/// The deviation sweeps select on it instead of on the validity bitmap.
pub(crate) trait Slot: Copy {
    /// Whether the slot holds a claim.
    fn present(self) -> bool;
}

impl Slot for f64 {
    #[inline]
    fn present(self) -> bool {
        !self.is_nan()
    }
}

impl Slot for u32 {
    #[inline]
    fn present(self) -> bool {
        self != MISSING_CODE
    }
}

/// Weighted mean over one entry's column row (Eq 14), replaying
/// [`SquaredLoss::fit`](crate::loss::SquaredLoss)'s fold order exactly:
/// the weight sum, the `<= 0` fallback to the unweighted mean, and the
/// weighted accumulation all associate in ascending source order.
pub(crate) fn fit_mean(values: &[f64], valid: &[u64], weights: &[f64]) -> f64 {
    let mut wsum = 0.0;
    for_each_valid(valid, |k| wsum += weights[k]);
    if wsum <= 0.0 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for_each_valid(valid, |k| {
            sum += values[k];
            count += 1;
        });
        return sum / count.max(1) as f64;
    }
    let mut acc = 0.0;
    for_each_valid(valid, |k| acc += weights[k] * values[k]);
    acc / wsum
}

/// Weighted median over one entry's column row (Eq 16), replaying
/// [`weighted_median`](crate::loss::weighted_median) exactly without
/// gathering or sorting: the weight total is summed in ascending source
/// order, a non-positive total falls back to unit weights, and `order` —
/// the row's valid source ids sorted by value, ties ascending by source,
/// which is what the row path's stable sort yields — feeds the shared
/// [`median_of_sorted`] scan. Returns `None` only for an empty row.
pub(crate) fn fit_median(
    values: &[f64],
    valid: &[u64],
    order: &[u32],
    weights: &[f64],
) -> Option<f64> {
    let mut total = 0.0;
    for_each_valid(valid, |k| total += weights[k]);
    let unit = total <= 0.0;
    if unit {
        // the row path sums `1.0` once per observation: exactly the count
        total = order.len() as f64;
    }
    median_of_sorted(order.len(), total, |i| {
        let s = order[i] as usize;
        (values[s], if unit { 1.0 } else { weights[s] })
    })
}

/// Weighted plurality vote over one entry's dense ids (Eq 9), replicating
/// [`ZeroOneLoss::fit`](crate::loss::ZeroOneLoss): per-code weights
/// accumulate in ascending source order, candidates are folded in
/// first-appearance order, and ties break `w > bw || (w == bw && c < bc)` —
/// toward the smaller id. Returns `None` only for an all-invalid row,
/// which a well-formed table never produces.
pub(crate) fn fit_vote(
    codes: &[u32],
    valid: &[u64],
    weights: &[f64],
    scratch: &mut FitScratch,
    domain: usize,
) -> Option<u32> {
    scratch.begin_entry(domain);
    let stamp = scratch.stamp;
    for_each_valid(valid, |k| {
        let c = codes[k] as usize;
        if scratch.seen[c] != stamp {
            scratch.seen[c] = stamp;
            scratch.tally[c] = 0.0;
            scratch.touched.push(codes[k]);
        }
        scratch.tally[c] += weights[k];
    });
    let mut best: Option<(u32, f64)> = None;
    for &c in &scratch.touched {
        let w = scratch.tally[c as usize];
        best = match best {
            None => Some((c, w)),
            Some((bc, bw)) => {
                if w > bw || (w == bw && c < bc) {
                    Some((c, w))
                } else {
                    Some((bc, bw))
                }
            }
        };
    }
    best.map(|(c, _)| c)
}

/// Branch-free 0-1 deviation sweep (Eq 8): for every present slot add
/// `scale * [code != truth]` to the per-source row. Term grouping matches
/// the row path's `scale * loss` exactly; [`MISSING_CODE`] slots add a
/// literal `0.0`, the accumulation identity (all cells stay `>= +0.0`).
pub(crate) fn dev_sweep_zero_one(codes: &[u32], truth_code: u32, scale: f64, row: &mut [f64]) {
    for (&c, r) in codes.iter().zip(row.iter_mut()) {
        let l = if c == truth_code { 0.0 } else { 1.0 };
        let term = scale * l;
        *r += if c.present() { term } else { 0.0 };
    }
}

/// Branch-free normalized squared deviation sweep (Eq 13):
/// `scale * ((t − v)² / std)` per present slot, grouped exactly as the row
/// path computes `scale * SquaredLoss::loss(..)`; `NaN` slots add `0.0`.
pub(crate) fn dev_sweep_squared(values: &[f64], truth: f64, std: f64, scale: f64, row: &mut [f64]) {
    for (&v, r) in values.iter().zip(row.iter_mut()) {
        let d = truth - v;
        let term = scale * (d * d / std);
        *r += if v.present() { term } else { 0.0 };
    }
}

/// Branch-free normalized absolute deviation sweep (Eq 15):
/// `scale * (|t − v| / std)` per present slot, grouped exactly as the row
/// path computes `scale * AbsoluteLoss::loss(..)`; `NaN` slots add `0.0`.
pub(crate) fn dev_sweep_absolute(
    values: &[f64],
    truth: f64,
    std: f64,
    scale: f64,
    row: &mut [f64],
) {
    for (&v, r) in values.iter().zip(row.iter_mut()) {
        let term = scale * ((truth - v).abs() / std);
        *r += if v.present() { term } else { 0.0 };
    }
}

/// Unit-penalty sweep: `scale * 1.0` per present slot of either column
/// kind. This is the row path's type-confusion branch (a truth whose type
/// cannot be priced against the column — e.g. a categorical point over an
/// `f64` column) which charges the maximal unit deviation for every
/// observation.
pub(crate) fn dev_sweep_unit<T: Slot>(slots: &[T], scale: f64, row: &mut [f64]) {
    for (&x, r) in slots.iter().zip(row.iter_mut()) {
        *r += if x.present() { scale } else { 0.0 };
    }
}

/// Fold per-chunk partial buffers (laid out `partials[c * cell ..][..cell]`)
/// with a **fixed pairwise tree over the chunk index**:
/// `((p0 + p1) + (p2 + p3)) + …`. The tree shape depends only on the chunk
/// count — itself a pure function of the entry count, never of the thread
/// count — so the reduction is bit-identical for every thread count *and*
/// shared by the row and columnar paths. The result lands in
/// `partials[..cell]`; the inner elementwise adds are contiguous and
/// auto-vectorize.
pub(crate) fn pairwise_accumulate(partials: &mut [f64], cell: usize) {
    if cell == 0 {
        return;
    }
    let chunks = partials.len() / cell;
    let mut gap = 1usize;
    while gap < chunks {
        let mut c = 0usize;
        while c + gap < chunks {
            let (head, tail) = partials.split_at_mut((c + gap) * cell);
            let dst = &mut head[c * cell..c * cell + cell];
            let src = &tail[..cell];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            c += 2 * gap;
        }
        gap *= 2;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::columnar::{ColumnarPlan, ColumnarTable, PropertyColumn};
    use crate::ids::{EntryId, ObjectId, SourceId};
    use crate::loss::{weighted_median, AbsoluteLoss, Loss, SquaredLoss, ZeroOneLoss};
    use crate::rng::{Pcg64, Rng};
    use crate::schema::Schema;
    use crate::stats::EntryStats;
    use crate::table::{ObservationTable, TableBuilder};
    use crate::value::Value;

    fn words(mask: &[bool]) -> Vec<u64> {
        let mut w = vec![0u64; mask.len().div_ceil(64).max(1)];
        for (k, &on) in mask.iter().enumerate() {
            if on {
                w[k >> 6] |= 1 << (k & 63);
            }
        }
        w
    }

    #[test]
    fn mean_matches_squared_loss_fit_bitwise() {
        let values = [1.5, 0.0, -3.25, 7.0, 2.5];
        let mask = [true, false, true, true, true];
        let weights = [0.3, 9.0, 1.7, 0.0, 2.2];
        let obs: Vec<(SourceId, Value)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| (SourceId(k as u32), Value::Num(values[k])))
            .collect();
        let row = SquaredLoss
            .fit(&obs, &weights, &EntryStats::trivial())
            .as_num()
            .unwrap();
        let col = fit_mean(&values, &words(&mask), &weights);
        assert_eq!(row.to_bits(), col.to_bits());

        // zero-weight fallback path
        let zw = [0.0; 5];
        let row = SquaredLoss
            .fit(&obs, &zw, &EntryStats::trivial())
            .as_num()
            .unwrap();
        let col = fit_mean(&values, &words(&mask), &zw);
        assert_eq!(row.to_bits(), col.to_bits());
    }

    #[test]
    fn median_matches_absolute_loss_fit_bitwise() {
        let values = [10.0, 20.0, 30.0, 5.0];
        let mask = [true, true, false, true];
        let weights = [0.1, 10.0, 1.0, 0.1];
        let obs: Vec<(SourceId, Value)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| (SourceId(k as u32), Value::Num(values[k])))
            .collect();
        let row = AbsoluteLoss
            .fit(&obs, &weights, &EntryStats::trivial())
            .as_num()
            .unwrap();
        // valid sources by ascending value: 5.0, 10.0, 20.0
        let order = [3u32, 0, 1];
        let col = fit_median(&values, &words(&mask), &order, &weights).unwrap();
        assert_eq!(row.to_bits(), col.to_bits());
        assert_eq!(
            fit_median(&values, &words(&[false; 4]), &[], &weights),
            None
        );
    }

    #[test]
    fn vote_matches_zero_one_fit_including_ties() {
        // codes per source; code 2 and code 0 tie at weight 2.0 — the row
        // path breaks toward the smaller id.
        let codes = [2u32, 0, 2, 0, 1];
        let mask = [true, true, true, true, false];
        let weights = [1.0, 1.0, 1.0, 1.0, 50.0];
        let obs: Vec<(SourceId, Value)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| (SourceId(k as u32), Value::Cat(codes[k])))
            .collect();
        let row = ZeroOneLoss
            .fit(&obs, &weights, &EntryStats::trivial())
            .point();
        let mut scratch = FitScratch::default();
        let col = fit_vote(&codes, &words(&mask), &weights, &mut scratch, 3).unwrap();
        assert_eq!(row, Value::Cat(col));
        assert_eq!(col, 0, "tie must break toward the smaller id");

        // reuse the scratch across entries: a heavier later code wins
        let codes2 = [1u32, 1, 2, 0, 0];
        let w2 = [1.0, 1.0, 5.0, 1.0, 1.0];
        let col2 = fit_vote(&codes2, &words(&[true; 5]), &w2, &mut scratch, 3).unwrap();
        assert_eq!(col2, 2);
        assert_eq!(
            fit_vote(&codes, &words(&[false; 5]), &weights, &mut scratch, 3),
            None
        );
    }

    #[test]
    fn dev_sweeps_match_row_loss_terms_bitwise() {
        let stats = EntryStats {
            std: 3.7,
            ..EntryStats::trivial()
        };
        let values = [1.0, f64::NAN, -4.0, 8.0];
        let mask = [true, false, true, true];
        let truth = 1.75f64;
        let scale = 2.5f64;

        let mut row_sq = [0.0f64; 4];
        let mut row_abs = [0.0f64; 4];
        let t = crate::value::Truth::Point(Value::Num(truth));
        for (k, &v) in values.iter().enumerate() {
            if mask[k] {
                row_sq[k] += scale * SquaredLoss.loss(&t, &Value::Num(v), &stats);
                row_abs[k] += scale * AbsoluteLoss.loss(&t, &Value::Num(v), &stats);
            }
        }
        let mut col_sq = vec![0.0f64; 4];
        let mut col_abs = vec![0.0f64; 4];
        dev_sweep_squared(&values, truth, stats.std, scale, &mut col_sq);
        dev_sweep_absolute(&values, truth, stats.std, scale, &mut col_abs);
        for k in 0..4 {
            assert_eq!(row_sq[k].to_bits(), col_sq[k].to_bits(), "squared k={k}");
            assert_eq!(row_abs[k].to_bits(), col_abs[k].to_bits(), "absolute k={k}");
        }

        let codes = [3u32, MISSING_CODE, 3, 0];
        let mut zo = vec![0.0f64; 4];
        dev_sweep_zero_one(&codes, 3, scale, &mut zo);
        assert_eq!(zo, vec![0.0, 0.0, 0.0, scale]);

        let mut unit = vec![0.0f64; 4];
        dev_sweep_unit(&values, scale, &mut unit);
        assert_eq!(unit, vec![scale, 0.0, scale, scale]);
    }

    #[test]
    fn pairwise_tree_is_a_fixed_function_of_chunk_count() {
        // 5 chunks of 3 cells: expect ((p0+p1)+(p2+p3))+p4 exactly.
        let cell = 3;
        let mut parts: Vec<f64> = (0..15).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let expect: Vec<f64> = (0..cell)
            .map(|i| {
                let p = |c: usize| (c * cell + i) as f64 * 0.1 + 1.0;
                ((p(0) + p(1)) + (p(2) + p(3))) + p(4)
            })
            .collect();
        pairwise_accumulate(&mut parts, cell);
        for i in 0..cell {
            assert_eq!(parts[i].to_bits(), expect[i].to_bits(), "cell {i}");
        }
        // degenerate shapes are no-ops
        pairwise_accumulate(&mut [], 3);
        pairwise_accumulate(&mut [1.0, 2.0], 0);
        let mut one = vec![4.0, 5.0];
        pairwise_accumulate(&mut one, 2);
        assert_eq!(one, vec![4.0, 5.0]);
    }

    /// Values drawn from a short ladder with a signed-zero pair, so rows
    /// are tie-heavy and `-0.0`/`+0.0` land in one `==` run.
    const LADDER: [f64; 6] = [-2.0, -0.0, 0.0, 0.0, 1.0, 3.5];

    /// A one-property continuous table over `K = 70` sources (two bitmap
    /// words per row). Row shapes cycle through tie-heavy, a single claim,
    /// near-continuous noise, and every source present.
    fn tie_heavy_table(seed: u64) -> ObservationTable {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut schema = Schema::new();
        let x = schema.add_continuous("x");
        let mut b = TableBuilder::new(schema);
        let ladder = |rng: &mut Pcg64| LADDER[rng.random_range(0..LADDER.len())];
        for o in 0..120u32 {
            let (obj, k) = (ObjectId(o), K as u32);
            match o % 4 {
                0 => {
                    for s in 0..k {
                        if rng.random_range(0..10u32) < 8 {
                            b.add(obj, x, SourceId(s), Value::Num(ladder(&mut rng)))
                                .unwrap();
                        }
                    }
                }
                1 => {
                    let s = rng.random_range(0..k);
                    b.add(obj, x, SourceId(s), Value::Num(ladder(&mut rng)))
                        .unwrap();
                }
                2 => {
                    for s in 0..k {
                        if rng.random_range(0..10u32) < 5 {
                            let v = rng.random_range(0..1000u32) as f64 / 7.0 - 50.0;
                            b.add(obj, x, SourceId(s), Value::Num(v)).unwrap();
                        }
                    }
                }
                _ => {
                    for s in 0..k {
                        b.add(obj, x, SourceId(s), Value::Num(ladder(&mut rng)))
                            .unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    }

    const K: usize = 70;

    #[test]
    fn presorted_median_matches_weighted_median_bitwise() {
        let table = tie_heavy_table(11);
        assert_eq!(table.num_sources(), K);
        let losses: Vec<Arc<dyn Loss>> = vec![Arc::new(AbsoluteLoss)];
        let plan = ColumnarPlan::new(&table, &losses).unwrap();
        assert_eq!(plan.class[0], KernelClass::Median);
        let PropertyColumn::Num(col) = plan.table.column(0) else {
            panic!("continuous property must be a num column");
        };

        let mut rng = Pcg64::seed_from_u64(5);
        let mut weight_sets: Vec<Vec<f64>> = vec![
            vec![0.0; K],  // zero total: unit-weight fallback
            vec![-0.0; K], // signed-zero total: same fallback
            vec![1.0; K],  // integer weights hit `above == W/2` exactly
        ];
        for _ in 0..4 {
            // positive, with exact-half ties from small integers
            weight_sets.push((0..K).map(|_| rng.random_range(0..3u32) as f64).collect());
            weight_sets.push(
                (0..K)
                    .map(|_| rng.random_range(1..1000u32) as f64 / 100.0)
                    .collect(),
            );
            // mixed signs: some rows total <= 0, others positive
            weight_sets.push(
                (0..K)
                    .map(|_| rng.random_range(0..200u32) as f64 / 100.0 - 1.1)
                    .collect(),
            );
        }

        let (mut fallbacks, mut signed_zero_runs, mut singles) = (0, 0, 0);
        for (r, &entry) in plan.table.column(0).rows().iter().enumerate() {
            let obs = table.observations(EntryId(entry));
            let vals = col.values_row(r, K);
            let order = plan.median[0].row(r);
            // the order is the stable value sort of the source-ordered claims
            let mut want: Vec<u32> = obs.iter().map(|(s, _)| s.0).collect();
            want.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
            assert_eq!(order, want.as_slice(), "row {r}: median order");
            singles += usize::from(obs.len() == 1);
            let has = |z: f64| {
                obs.iter()
                    .any(|(_, v)| v.as_num().unwrap().to_bits() == z.to_bits())
            };
            signed_zero_runs += usize::from(has(0.0) && has(-0.0));

            for w in &weight_sets {
                let pairs: Vec<(f64, f64)> = obs
                    .iter()
                    .map(|(s, v)| (v.as_num().unwrap(), w[s.index()]))
                    .collect();
                fallbacks += usize::from(pairs.iter().map(|p| p.1).sum::<f64>() <= 0.0);
                let row = weighted_median(&pairs);
                let fast = fit_median(vals, col.valid_row(r), order, w).unwrap();
                assert_eq!(row.to_bits(), fast.to_bits(), "row {r}, weights {w:?}");
                let fit = AbsoluteLoss.fit(obs, w, &EntryStats::trivial());
                assert_eq!(fit.as_num().unwrap().to_bits(), fast.to_bits());
            }
        }
        assert!(singles > 0 && signed_zero_runs > 0 && fallbacks > weight_sets.len());
    }

    #[test]
    fn sentinel_sweeps_match_row_terms_with_signed_zeros() {
        let mut schema = Schema::new();
        let x = schema.add_continuous("x");
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        let mut rng = Pcg64::seed_from_u64(3);
        let labels = ["a", "b", "c"];
        for o in 0..8u32 {
            for s in 0..K as u32 {
                if rng.random_range(0..3u32) != 0 {
                    let v = LADDER[rng.random_range(0..LADDER.len())];
                    b.add(ObjectId(o), x, SourceId(s), Value::Num(v)).unwrap();
                }
                if rng.random_range(0..3u32) != 0 {
                    let l = labels[rng.random_range(0..3usize)];
                    b.add_label(ObjectId(o), c, SourceId(s), l).unwrap();
                }
            }
        }
        let table = b.build().unwrap();
        let columnar = ColumnarTable::build(&table).unwrap();
        let stats = EntryStats {
            std: 0.75,
            ..EntryStats::trivial()
        };
        let (PropertyColumn::Num(num), PropertyColumn::Coded(coded)) =
            (columnar.column(x.index()), columnar.column(c.index()))
        else {
            panic!("expected a num and a coded column");
        };

        let mut zeros = 0;
        for (r, &entry) in columnar.column(x.index()).rows().iter().enumerate() {
            let obs = table.observations(EntryId(entry));
            let vals = num.values_row(r, K);
            let claimed: Vec<bool> = (0..K)
                .map(|s| columnar.value(x.index(), r, s).is_some())
                .collect();
            for (s, &on) in claimed.iter().enumerate() {
                assert_eq!(vals[s].is_nan(), !on, "row {r} slot {s}: NaN marks empty");
            }
            // the mirror stays lossless for signed zeros
            for (s, v) in obs {
                let back = columnar.value(x.index(), r, s.index()).unwrap();
                assert_eq!(
                    back.as_num().unwrap().to_bits(),
                    v.as_num().unwrap().to_bits()
                );
                zeros += usize::from(v.as_num() == Some(0.0));
            }
            for truth in [0.0, -0.0, 1.25] {
                let t = crate::value::Truth::Point(Value::Num(truth));
                for scale in [1.0, 2.5] {
                    let (mut row_sq, mut row_abs) = (vec![0.0f64; K], vec![0.0f64; K]);
                    for (s, v) in obs {
                        row_sq[s.index()] += scale * SquaredLoss.loss(&t, v, &stats);
                        row_abs[s.index()] += scale * AbsoluteLoss.loss(&t, v, &stats);
                    }
                    let (mut col_sq, mut col_abs) = (vec![0.0f64; K], vec![0.0f64; K]);
                    dev_sweep_squared(vals, truth, stats.std, scale, &mut col_sq);
                    dev_sweep_absolute(vals, truth, stats.std, scale, &mut col_abs);
                    let mut unit = vec![0.0f64; K];
                    dev_sweep_unit(vals, scale, &mut unit);
                    for s in 0..K {
                        assert_eq!(row_sq[s].to_bits(), col_sq[s].to_bits(), "sq r={r} s={s}");
                        assert_eq!(
                            row_abs[s].to_bits(),
                            col_abs[s].to_bits(),
                            "abs r={r} s={s}"
                        );
                        let want = if claimed[s] { scale } else { 0.0 };
                        assert_eq!(unit[s].to_bits(), want.to_bits(), "unit r={r} s={s}");
                    }
                }
            }
        }
        assert!(zeros > 0, "the table must carry signed-zero claims");

        for (r, &entry) in columnar.column(c.index()).rows().iter().enumerate() {
            let obs = table.observations(EntryId(entry));
            let codes = coded.codes_row(r, K);
            let claimed: Vec<bool> = (0..K)
                .map(|s| columnar.value(c.index(), r, s).is_some())
                .collect();
            for (s, &code) in codes.iter().enumerate() {
                assert_eq!(code == MISSING_CODE, !claimed[s], "row {r} slot {s}");
            }
            for truth in 0..3u32 {
                let t = crate::value::Truth::Point(Value::Cat(truth));
                let mut row_zo = vec![0.0f64; K];
                for (s, v) in obs {
                    row_zo[s.index()] += 2.5 * ZeroOneLoss.loss(&t, v, &stats);
                }
                let mut col_zo = vec![0.0f64; K];
                dev_sweep_zero_one(codes, truth, 2.5, &mut col_zo);
                let mut unit = vec![0.0f64; K];
                dev_sweep_unit(codes, 2.5, &mut unit);
                for s in 0..K {
                    assert_eq!(
                        row_zo[s].to_bits(),
                        col_zo[s].to_bits(),
                        "zero-one r={r} s={s}"
                    );
                    let want: f64 = if claimed[s] { 2.5 } else { 0.0 };
                    assert_eq!(unit[s].to_bits(), want.to_bits(), "unit r={r} s={s}");
                }
            }
        }
    }

    #[test]
    fn vote_epoch_stamp_survives_wraparound() {
        let mut s = FitScratch {
            stamp: u32::MAX,
            ..FitScratch::default()
        };
        let codes = [1u32, 1];
        let c = fit_vote(&codes, &words(&[true, true]), &[1.0, 1.0], &mut s, 2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(s.stamp, 1, "wrapped epoch must reset to a live stamp");
    }
}
