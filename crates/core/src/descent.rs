//! The one coordinate-descent loop (Algorithm 1) behind every CRH solver.
//!
//! [`Crh::run`](crate::solver::Crh::run), the fine-grained and
//! object-grouped variants, the semi-supervised variant and
//! [`CrhSession::run_to_convergence`](crate::session::CrhSession::run_to_convergence)
//! differ only in how Step I splits the source weights into blocks (§2.5
//! "fine-grained weights") and in whether some truths are pinned, so they
//! all run [`Descent::run`]. The loop is **fused**: the entry-sharded sweep
//! that fits the truths also prices them, and those deviations serve both
//! the convergence check and the next iteration's Step I — one sweep per
//! iteration.

use crate::cancel::CancelToken;
use crate::finegrained::FineGrainedResult;
use crate::ids::PropertyId;
use crate::par::Pool;
use crate::solver::{
    fused_fit_dev, objective, source_losses_rows, AnchorBoost, KernelSpec, KernelWeights,
    PreparedProblem, PropertyNorm, SolverScratch,
};
use crate::table::{ObservationTable, TruthTable};
use crate::weights::{LogMax, WeightAssigner};

/// The settings every CRH solver shares. The defaults are the paper's:
/// log-max weights, per-property sum normalization, count normalization,
/// a 100-iteration cap, a 1e-6 relative tolerance, all available cores and
/// the columnar kernels.
#[derive(Debug)]
pub(crate) struct Config {
    pub(crate) assigner: Box<dyn WeightAssigner>,
    pub(crate) max_iters: usize,
    pub(crate) tol: f64,
    pub(crate) property_norm: PropertyNorm,
    pub(crate) count_normalize: bool,
    pub(crate) threads: usize,
    pub(crate) columnar: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            assigner: Box::new(LogMax),
            max_iters: 100,
            tol: 1e-6,
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            threads: 0,
            columnar: true,
        }
    }
}

/// How Step I splits the source weights into blocks, one weight vector
/// per block.
#[derive(Clone, Copy)]
pub(crate) enum WeightModel<'a> {
    /// One block over every deviation row (plain CRH).
    Global,
    /// One block per property group: `groups[g]` lists group `g`'s
    /// properties and `group_of[p]` is property `p`'s group.
    ByProperty {
        groups: &'a [Vec<PropertyId>],
        group_of: &'a [usize],
    },
    /// One block per object group: `entry_group[i]` is entry `i`'s group
    /// `g`, whose deviations accumulate in rows `g*m..(g+1)*m`.
    ByObject {
        entry_group: &'a [usize],
        num_groups: usize,
    },
}

/// One weight block's deviation rows and per-source observation counts
/// (the count normalization of §2.5 "Missing values").
struct Block {
    rows: Vec<usize>,
    counts: Vec<usize>,
}

impl<'a> WeightModel<'a> {
    fn num_blocks(&self) -> usize {
        match self {
            WeightModel::Global => 1,
            WeightModel::ByProperty { groups, .. } => groups.len(),
            WeightModel::ByObject { num_groups, .. } => *num_groups,
        }
    }

    fn blocks(&self, table: &ObservationTable) -> Vec<Block> {
        let m = table.num_properties();
        let k = table.num_sources();
        let rows: Vec<Vec<usize>> = match self {
            WeightModel::Global => {
                return vec![Block {
                    rows: (0..m).collect(),
                    counts: table.source_counts().to_vec(),
                }]
            }
            WeightModel::ByProperty { groups, .. } => groups
                .iter()
                .map(|g| g.iter().map(|p| p.index()).collect())
                .collect(),
            WeightModel::ByObject { num_groups, .. } => (0..*num_groups)
                .map(|g| (g * m..(g + 1) * m).collect())
                .collect(),
        };
        let mut counts = vec![vec![0usize; k]; rows.len()];
        for (e, entry, obs) in table.iter_entries() {
            let g = match self {
                WeightModel::ByProperty { group_of, .. } => group_of[entry.property.index()],
                WeightModel::ByObject { entry_group, .. } => entry_group[e.index()],
                WeightModel::Global => 0,
            };
            for (s, _) in obs {
                counts[g][s.index()] += 1;
            }
        }
        rows.into_iter()
            .zip(counts)
            .map(|(rows, counts)| Block { rows, counts })
            .collect()
    }

    fn spec<'s>(&self, weights: &'s [Vec<f64>], anchors: Option<AnchorBoost<'s>>) -> KernelSpec<'s>
    where
        'a: 's,
    {
        let (weights, dev_block_of, num_dev_blocks) = match *self {
            WeightModel::Global => (KernelWeights::Shared(&weights[0]), None, 1),
            WeightModel::ByProperty { group_of, .. } => (
                KernelWeights::ByProperty {
                    per_group: weights,
                    group_of,
                },
                None,
                1,
            ),
            WeightModel::ByObject {
                entry_group,
                num_groups,
            } => (
                KernelWeights::ByEntry {
                    per_group: weights,
                    entry_group,
                },
                Some(entry_group),
                num_groups,
            ),
        };
        KernelSpec {
            weights,
            anchors,
            dev_block_of,
            num_dev_blocks,
        }
    }
}

/// One coordinate-descent problem: the prepared table, the weight model and
/// the anchored truths, if any (semi-supervised CRH).
pub(crate) struct Descent<'a> {
    pub(crate) cfg: &'a Config,
    pub(crate) prepared: &'a PreparedProblem<'a>,
    pub(crate) model: WeightModel<'a>,
    pub(crate) anchors: Option<AnchorBoost<'a>>,
}

/// What one [`Descent::run`] did.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Objective after each iteration.
    pub(crate) trace: Vec<f64>,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
    /// The cancel token tripped before the loop finished.
    pub(crate) cancelled: bool,
}

impl Descent<'_> {
    /// A fresh solve from uniform weights in every block, which makes the
    /// initial fit Voting / Averaging (§2.5 "Initialization").
    pub(crate) fn solve(&self) -> FineGrainedResult {
        let table = self.prepared.table;
        let mut weights = vec![vec![1.0f64; table.num_sources()]; self.model.num_blocks()];
        let mut truths = TruthTable::new(Vec::new());
        let mut scratch = SolverScratch::for_table(table);
        let out = self.run(
            &Pool::new(self.cfg.threads),
            &mut weights,
            &mut truths,
            &mut scratch,
            &CancelToken::new(),
        );
        FineGrainedResult {
            truths,
            weights,
            objective_trace: out.trace,
            iterations: out.iterations,
            converged: out.converged,
        }
    }

    /// Run Algorithm 1 from `weights`: fit the truths under them, then
    /// alternate Step I and Step II until the relative objective decrease
    /// `|prev − f| / max(|prev|, 1)` is at most the tolerance (never
    /// checked on the first iteration) or `max_iters` iterations have run.
    /// `cancel` is polled before the first fit and before every iteration.
    pub(crate) fn run(
        &self,
        pool: &Pool,
        weights: &mut [Vec<f64>],
        truths: &mut TruthTable,
        scratch: &mut SolverScratch,
        cancel: &CancelToken,
    ) -> Outcome {
        let cfg = self.cfg;
        let blocks = self.model.blocks(self.prepared.table);
        let losses = |scratch: &SolverScratch, b: &Block| {
            source_losses_rows(
                b.rows.iter().map(|&r| scratch.dev().row(r)),
                &b.counts,
                cfg.property_norm,
                cfg.count_normalize,
            )
        };
        let mut out = Outcome::default();
        if cancel.is_cancelled() {
            out.cancelled = true;
            return out;
        }
        // Line 1: fit under the starting weights. The sweep also prices
        // the fitted truths — the first iteration's Step-I input.
        let sweep = |weights: &[Vec<f64>], truths: &mut TruthTable, scratch: &mut SolverScratch| {
            let spec = self.model.spec(weights, self.anchors);
            fused_fit_dev(self.prepared, &spec, pool, truths, scratch);
        };
        sweep(weights, truths, scratch);
        while out.iterations < cfg.max_iters {
            if cancel.is_cancelled() {
                out.cancelled = true;
                break;
            }
            out.iterations += 1;
            // Step I (line 3, Eq 2): each block's weights from the carried
            // deviations of the current truths.
            for (w, b) in weights.iter_mut().zip(&blocks) {
                *w = cfg.assigner.assign(&losses(scratch, b));
            }
            // Step II (lines 4-8, Eq 3) fused with the deviation pass.
            sweep(weights, truths, scratch);
            // Convergence check (line 9): the objective summed over blocks.
            let mut f = 0.0;
            for (w, b) in weights.iter().zip(&blocks) {
                f += objective(w, &losses(scratch, b));
            }
            let rel = out
                .trace
                .last()
                .map(|&prev: &f64| (prev - f).abs() / prev.abs().max(1.0));
            out.trace.push(f);
            if rel.is_some_and(|r| r <= cfg.tol) {
                out.converged = true;
                break;
            }
        }
        out
    }
}
