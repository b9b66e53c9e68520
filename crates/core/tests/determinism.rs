//! The thread-count determinism gate: every solver variant must produce
//! **byte-identical** results at every kernel thread count.
//!
//! The parallel kernels' contract (see `crh_core::par`) is that chunk
//! geometry depends only on the entry count and partials merge with a
//! fixed pairwise tree over the chunk index, so `threads ∈ {1, 2, 3, 8}`
//! must agree to the bit — weights, objective traces, and every truth
//! cell. Each result is serialized with the exact-bits `persist::Enc` and
//! compared by `digest64`, so even a single last-ulp divergence fails the
//! suite. The tables are sized well past one kernel chunk (256 entries) so
//! multiple chunks — and real cross-thread merging — are actually
//! exercised.
//!
//! The second half of the suite pins the **columnar fast path** against
//! the row-oriented reference: for every solver variant, every seed and
//! every thread count, `columnar(true)` must reproduce the
//! `columnar(false).threads(1)` digest exactly. The columnar sweeps are
//! written to replay the row path's float programs (see
//! `crh_core::kernels`), and this suite is the proof.

use std::collections::HashMap;

use crh_core::finegrained::{FineGrainedCrh, FineGrainedResult, ObjectGroupedCrh};
use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::loss::{ProbVectorLoss, SquaredLoss};
use crh_core::par::Pool;
use crh_core::persist::{digest64, Enc};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::semisupervised::SemiSupervisedCrh;
use crh_core::solver::{
    deviation_matrix_into, fit_all_into, objective, source_losses_mat, CrhBuilder, CrhResult,
    PreparedProblem, PropertyNorm, SolverScratch,
};
use crh_core::table::{ObservationTable, TableBuilder, TruthTable};
use crh_core::value::Value;
use crh_core::weights::{LogMax, WeightAssigner};

const SEEDS: [u64; 5] = [1, 2, 17, 404, 90210];
const THREADS: [usize; 4] = [1, 2, 3, 8];
/// Thread sweep for the columnar-vs-row comparison (the scaling bench's
/// thread set).
const COL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// A seeded mixed categorical/continuous table: ~500 objects × 2
/// properties × 8 sources with ~80% observation density, so roughly a
/// thousand entries — several kernel chunks.
fn seeded_table(seed: u64) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut schema = Schema::new();
    let temp = schema.add_continuous("temp");
    let cond = schema.add_categorical("cond");
    let mut b = TableBuilder::new(schema);
    let labels = ["clear", "cloudy", "storm"];
    for i in 0..500u32 {
        let truth_t = (i % 90) as f64;
        for s in 0..8u32 {
            // per-source bias makes reliabilities genuinely differ
            let bias = s as f64 * 0.7;
            let noise = (rng.next_u64() % 1000) as f64 / 200.0;
            if rng.next_u64() % 10 < 8 {
                b.add(
                    ObjectId(i),
                    temp,
                    SourceId(s),
                    Value::Num(truth_t + bias + noise),
                )
                .unwrap();
            }
            if rng.next_u64() % 10 < 8 {
                let l = if rng.next_u64() % 10 < 10 - s as u64 {
                    labels[(i % 3) as usize]
                } else {
                    labels[(rng.next_u64() % 3) as usize]
                };
                b.add_label(ObjectId(i), cond, SourceId(s), l).unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn digest_parts(
    truths: &TruthTable,
    flat_weights: &[f64],
    trace: &[f64],
    iterations: usize,
) -> u64 {
    let mut e = Enc::new();
    e.f64s(flat_weights);
    e.f64s(trace);
    e.u64(iterations as u64);
    for (_, t) in truths.iter() {
        e.truth(t);
    }
    digest64(&e.into_bytes())
}

fn digest_plain(res: &CrhResult) -> u64 {
    digest_parts(
        &res.truths,
        &res.weights,
        &res.objective_trace,
        res.iterations,
    )
}

fn digest_grouped(res: &FineGrainedResult) -> u64 {
    let flat: Vec<f64> = res.weights.iter().flatten().copied().collect();
    digest_parts(&res.truths, &flat, &res.objective_trace, res.iterations)
}

#[test]
fn plain_crh_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        assert!(
            table.num_entries() > 256,
            "table must span multiple kernel chunks"
        );
        let run = |threads: usize| {
            CrhBuilder::new()
                .threads(threads)
                .max_iters(30)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_plain(&run(threads)),
                reference,
                "seed {seed}: threads={threads} diverged from sequential"
            );
        }
    }
}

#[test]
fn fine_grained_grouped_fit_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |threads: usize| {
            FineGrainedCrh::per_property(2)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_grouped(&run(threads)),
                reference,
                "seed {seed}: fine-grained threads={threads} diverged"
            );
        }
    }
}

#[test]
fn object_grouped_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |threads: usize| {
            ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_grouped(&run(threads)),
                reference,
                "seed {seed}: object-grouped threads={threads} diverged"
            );
        }
    }
}

#[test]
fn semi_supervised_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let mut anchors = HashMap::new();
        for o in [0u32, 7, 42] {
            anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
        }
        let run = |threads: usize| {
            SemiSupervisedCrh::new(anchors.clone())
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_plain(&run(threads)),
                reference,
                "seed {seed}: semi-supervised threads={threads} diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar-vs-row bit identity
// ---------------------------------------------------------------------------

#[test]
fn columnar_plain_crh_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            CrhBuilder::new()
                .columnar(columnar)
                .threads(threads)
                .max_iters(30)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_fine_grained_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            FineGrainedCrh::per_property(2)
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_grouped(&run(true, threads)),
                reference,
                "seed {seed}: columnar fine-grained threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_object_grouped_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_grouped(&run(true, threads)),
                reference,
                "seed {seed}: columnar object-grouped threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_semi_supervised_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let mut anchors = HashMap::new();
        for o in [0u32, 7, 42] {
            anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
        }
        // also pin one categorical anchor so the coded vote sweep hits the
        // anchored branch
        anchors.insert(
            (ObjectId(3), PropertyId(1)),
            table
                .schema()
                .lookup(PropertyId(1), "storm")
                .expect("label exists"),
        );
        let run = |columnar: bool, threads: usize| {
            SemiSupervisedCrh::new(anchors.clone())
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar semi-supervised threads={threads} diverged from the row path"
            );
        }
    }
}

/// Loss overrides swap the kernel class (squared → mean sweep) or disable
/// the fast path entirely (prob-vector → `Generic` on a coded column); both
/// must still match the row reference to the bit.
#[test]
fn columnar_matches_row_reference_under_loss_overrides() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            CrhBuilder::new()
                .columnar(columnar)
                .threads(threads)
                .loss_for(PropertyId(0), SquaredLoss)
                .loss_for(PropertyId(1), ProbVectorLoss)
                .max_iters(25)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar with overrides threads={threads} diverged from the row path"
            );
        }
    }
}

/// The unfused reference loop: Algorithm 1 transcribed from the public
/// primitives, with one deviation pass for Step I and another for the
/// convergence check — two sweeps per iteration where `Crh::run` fuses
/// them into one. It uses `CrhBuilder::new()`'s settings (default losses,
/// log-max weights, per-property sum and count normalization).
fn unfused_oracle(
    table: &ObservationTable,
    columnar: bool,
    threads: usize,
    max_iters: usize,
    tol: f64,
) -> CrhResult {
    let prepared = PreparedProblem::new_with_layout(table, &HashMap::new(), columnar).unwrap();
    let pool = Pool::new(threads);
    let mut scratch = SolverScratch::for_table(table);
    let price = |truths: &TruthTable, scratch: &mut SolverScratch| {
        deviation_matrix_into(&prepared, truths, &pool, scratch);
        source_losses_mat(
            scratch.dev(),
            table.source_counts(),
            PropertyNorm::SumToOne,
            true,
        )
    };
    let mut weights = vec![1.0; table.num_sources()];
    let mut truths = TruthTable::new(Vec::new());
    fit_all_into(&prepared, &weights, &pool, &mut truths);
    let mut trace: Vec<f64> = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    while iterations < max_iters {
        iterations += 1;
        weights = LogMax.assign(&price(&truths, &mut scratch));
        fit_all_into(&prepared, &weights, &pool, &mut truths);
        let f = objective(&weights, &price(&truths, &mut scratch));
        let rel = trace
            .last()
            .map(|&prev: &f64| (prev - f).abs() / prev.abs().max(1.0));
        trace.push(f);
        if rel.is_some_and(|r| r <= tol) {
            converged = true;
            break;
        }
    }
    CrhResult {
        truths,
        weights,
        objective_trace: trace,
        iterations,
        converged,
    }
}

/// The fused loop must reproduce the unfused oracle's weights, trace,
/// iteration count, convergence flag and truths to the bit, for both
/// layouts and every thread count.
#[test]
fn fused_loop_matches_unfused_oracle_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        for columnar in [false, true] {
            for threads in THREADS {
                let fused = CrhBuilder::new()
                    .columnar(columnar)
                    .threads(threads)
                    .max_iters(40)
                    .tolerance(1e-8)
                    .build()
                    .unwrap()
                    .run(&table)
                    .unwrap();
                let oracle = unfused_oracle(&table, columnar, threads, 40, 1e-8);
                assert_eq!(fused.converged, oracle.converged);
                assert_eq!(
                    digest_plain(&fused),
                    digest_plain(&oracle),
                    "seed {seed}: columnar={columnar} threads={threads} diverged from the oracle"
                );
            }
        }
    }
}

/// The unfused oracle must also be layout-invariant — it drives the
/// separate fit and deviation passes, which the fused loop doesn't
/// exercise in isolation.
#[test]
fn columnar_unfused_loop_matches_row_reference_bitwise() {
    for seed in SEEDS.iter().take(2) {
        let table = seeded_table(*seed);
        let run =
            |columnar: bool, threads: usize| unfused_oracle(&table, columnar, threads, 20, 1e-9);
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar unfused threads={threads} diverged from the row path"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden digests
// ---------------------------------------------------------------------------

fn anchors_for(table: &ObservationTable) -> HashMap<(ObjectId, PropertyId), Value> {
    let mut anchors = HashMap::new();
    for o in [0u32, 7, 42] {
        anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
    }
    anchors.insert(
        (ObjectId(3), PropertyId(1)),
        table
            .schema()
            .lookup(PropertyId(1), "storm")
            .expect("label exists"),
    );
    anchors
}

/// Digest of every pinned variant on one seeded table, in the order of
/// the columns of [`GOLDEN`].
fn golden_row(seed: u64) -> [u64; 5] {
    let table = seeded_table(seed);
    let plain = CrhBuilder::new().build().unwrap().run(&table).unwrap();
    let overrides = CrhBuilder::new()
        .loss_for(PropertyId(0), SquaredLoss)
        .loss_for(PropertyId(1), ProbVectorLoss)
        .max_iters(25)
        .tolerance(1e-9)
        .build()
        .unwrap()
        .run(&table)
        .unwrap();
    let fine = FineGrainedCrh::per_property(2)
        .unwrap()
        .run(&table)
        .unwrap();
    let semi = SemiSupervisedCrh::new(anchors_for(&table))
        .unwrap()
        .run(&table)
        .unwrap();
    let grouped = ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
        .unwrap()
        .run(&table)
        .unwrap();
    [
        digest_plain(&plain),
        digest_plain(&overrides),
        digest_grouped(&fine),
        digest_plain(&semi),
        digest_grouped(&grouped),
    ]
}

/// Exact-bits digests (weights, trace, iterations, truths) per seed of
/// `SEEDS`: plain `Crh::run` at defaults, `Crh::run` with the
/// squared/prob-vector loss overrides, `FineGrainedCrh::per_property(2)`,
/// `SemiSupervisedCrh` with four anchors, and `ObjectGroupedCrh` over three
/// object groups. Unlike the thread and layout sweeps above, which compare
/// runs of one build, these literals pin results across refactors: a change
/// to any solver's float program fails here.
const GOLDEN: [[u64; 5]; 5] = [
    [
        0xa11e196dc898b669,
        0x08cfe6b464263bf0,
        0x1d272665d053c57f,
        0xf7ae6710dbbbf2c5,
        0x73110b94e29bd506,
    ],
    [
        0x47c0b40dd0695847,
        0xb38c879704a95355,
        0x084734ca015fa7a7,
        0x7867852174225f47,
        0xcc0fac1888a724c6,
    ],
    [
        0x50944572d4c87774,
        0xe9a60bf8cafe975b,
        0x94adaff92c7bca26,
        0xfeac07be175d8484,
        0x9714ab9a94a2fdf7,
    ],
    [
        0x66a10d55c4b2cc6e,
        0x88f73af6a7e080c7,
        0x5be54ad706a85a12,
        0x6a55653e025e8960,
        0x367db2baf09714dc,
    ],
    [
        0x8572a4960ca52be8,
        0x51678281e4f8f3af,
        0x8c55189b89db18be,
        0x96f70a59c162d700,
        0x26eaa8044bbc0f2f,
    ],
];

#[test]
fn golden_digests_are_pinned() {
    for (seed, want) in SEEDS.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            &golden_row(*seed),
            want,
            "seed {seed}: golden digest drifted"
        );
    }
}

/// Fine-grained CRH with a single group of every property, and
/// object-grouped CRH with a single object group, are plain CRH: both must
/// reproduce `Crh::run` to the bit.
#[test]
fn single_block_variants_reduce_to_plain_crh_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let plain = digest_plain(&CrhBuilder::new().build().unwrap().run(&table).unwrap());
        let all: Vec<PropertyId> = (0..table.num_properties())
            .map(PropertyId::from_index)
            .collect();
        let fine = FineGrainedCrh::new(vec![all]).unwrap().run(&table).unwrap();
        assert_eq!(digest_grouped(&fine), plain, "seed {seed}: fine-grained");
        let grouped = ObjectGroupedCrh::new(1, |_| 0)
            .unwrap()
            .run(&table)
            .unwrap();
        assert_eq!(
            digest_grouped(&grouped),
            plain,
            "seed {seed}: object-grouped"
        );
    }
}

// ---------------------------------------------------------------------------
// Wide, tie-heavy tables
// ---------------------------------------------------------------------------

/// Continuous claims drawn from a short ladder with both signed zeros, so
/// weighted-median rows are dominated by `==` runs (and `-0.0`/`+0.0`
/// share one).
const TIE_LADDER: [f64; 7] = [-3.0, -1.5, -0.0, 0.0, 0.5, 0.5, 2.0];

/// ~300 objects × 2 properties × 70 sources (two validity-bitmap words per
/// row) at ~60% density. Source `s` reports the object's ladder rung with
/// a probability that falls with `s`, otherwise a random rung, so
/// reliabilities differ while almost every median row holds ties.
fn tie_heavy_wide_table(seed: u64) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut schema = Schema::new();
    let temp = schema.add_continuous("temp");
    let cond = schema.add_categorical("cond");
    let mut b = TableBuilder::new(schema);
    let labels = ["clear", "cloudy", "storm"];
    for i in 0..300u32 {
        for s in 0..70u32 {
            let honest = rng.random_range(0..70u32) >= s;
            if rng.random_range(0..10u32) < 6 {
                let rung = if honest {
                    i as usize % TIE_LADDER.len()
                } else {
                    rng.random_range(0..TIE_LADDER.len())
                };
                b.add(ObjectId(i), temp, SourceId(s), Value::Num(TIE_LADDER[rung]))
                    .unwrap();
            }
            if rng.random_range(0..10u32) < 6 {
                let l = if honest {
                    labels[(i % 3) as usize]
                } else {
                    labels[rng.random_range(0..3usize)]
                };
                b.add_label(ObjectId(i), cond, SourceId(s), l).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The columnar sweeps must match the row reference on wide rows (a second
/// bitmap word) and tie-heavy medians with signed zeros, for every solver
/// variant and the unfused oracle, at every thread count.
#[test]
fn columnar_matches_row_reference_on_wide_tie_heavy_tables() {
    for seed in SEEDS.iter().take(2) {
        let table = tie_heavy_wide_table(*seed);
        assert_eq!(table.num_sources(), 70);
        assert!(
            table.num_entries() > 256,
            "table must span multiple kernel chunks"
        );
        let anchors = anchors_for(&table);
        let plain = |columnar: bool, threads: usize| {
            digest_plain(
                &CrhBuilder::new()
                    .columnar(columnar)
                    .threads(threads)
                    .max_iters(25)
                    .tolerance(1e-9)
                    .build()
                    .unwrap()
                    .run(&table)
                    .unwrap(),
            )
        };
        let fine = |columnar: bool, threads: usize| {
            digest_grouped(
                &FineGrainedCrh::per_property(2)
                    .unwrap()
                    .columnar(columnar)
                    .threads(threads)
                    .max_iters(25)
                    .run(&table)
                    .unwrap(),
            )
        };
        let grouped = |columnar: bool, threads: usize| {
            digest_grouped(
                &ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                    .unwrap()
                    .columnar(columnar)
                    .threads(threads)
                    .max_iters(25)
                    .run(&table)
                    .unwrap(),
            )
        };
        let semi = |columnar: bool, threads: usize| {
            digest_plain(
                &SemiSupervisedCrh::new(anchors.clone())
                    .unwrap()
                    .columnar(columnar)
                    .threads(threads)
                    .max_iters(25)
                    .run(&table)
                    .unwrap(),
            )
        };
        let oracle = |columnar: bool, threads: usize| {
            digest_plain(&unfused_oracle(&table, columnar, threads, 20, 1e-9))
        };
        let check = |name: &str, run: &dyn Fn(bool, usize) -> u64| {
            let reference = run(false, 1);
            for threads in COL_THREADS {
                assert_eq!(
                    run(true, threads),
                    reference,
                    "seed {seed}: {name} columnar threads={threads} diverged from the row path"
                );
            }
        };
        check("plain", &plain);
        check("fine-grained", &fine);
        check("object-grouped", &grouped);
        check("semi-supervised", &semi);
        check("unfused oracle", &oracle);
    }
}
