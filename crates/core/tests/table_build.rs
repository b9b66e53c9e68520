//! Differential test of `ObservationTable::from_claims` against the
//! original quadratic build, kept here as the oracle: a stable sort of all
//! claims by entry, then a keep-last scan over each entry's group.
//!
//! Every claim set is built in three arrival orders (source-major,
//! entry-major, shuffled), and each case asserts which grouping path the
//! build takes — the dense counting sort or the sparse-key sort fallback.

use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::rng::{Pcg64, Rng};
use crh_core::table::{dense_key_span, Claim, Entry, ObservationTable};
use crh_core::value::Value;
use crh_core::Schema;

/// What the oracle derives from a claim set.
#[derive(Debug, PartialEq)]
struct Expected {
    entries: Vec<Entry>,
    observations: Vec<Vec<(SourceId, Value)>>,
    source_counts: Vec<usize>,
    num_sources: usize,
    num_objects: usize,
}

/// The original build: stable sort by entry, O(g²) keep-last per group,
/// values cloned.
fn oracle(mut claims: Vec<Claim>) -> Expected {
    claims.sort_by_key(|c| (c.object, c.property));
    let mut entries = Vec::new();
    let mut observations = Vec::new();
    let mut num_sources = 0;
    let mut num_objects = 0;
    let mut i = 0;
    while i < claims.len() {
        let key = Entry {
            object: claims[i].object,
            property: claims[i].property,
        };
        let start = i;
        while i < claims.len()
            && claims[i].object == key.object
            && claims[i].property == key.property
        {
            i += 1;
        }
        let group = &claims[start..i];
        let mut obs = Vec::new();
        for (gi, c) in group.iter().enumerate() {
            let superseded = group[gi + 1..].iter().any(|d| d.source == c.source);
            if !superseded {
                obs.push((c.source, c.value.clone()));
            }
        }
        obs.sort_by_key(|(s, _)| *s);
        num_objects = num_objects.max(key.object.index() + 1);
        for (s, _) in &obs {
            num_sources = num_sources.max(s.index() + 1);
        }
        entries.push(key);
        observations.push(obs);
    }
    let mut source_counts = vec![0; num_sources];
    for (s, _) in observations.iter().flatten() {
        source_counts[s.index()] += 1;
    }
    Expected {
        entries,
        observations,
        source_counts,
        num_sources,
        num_objects,
    }
}

fn observed(table: &ObservationTable) -> Expected {
    let (mut entries, mut observations) = (Vec::new(), Vec::new());
    for (e, entry, obs) in table.iter_entries() {
        assert_eq!(table.entry_id(entry.object, entry.property), Some(e));
        assert_eq!(table.observations(e), obs);
        entries.push(entry);
        observations.push(obs.to_vec());
    }
    Expected {
        entries,
        observations,
        source_counts: table.source_counts().to_vec(),
        num_sources: table.num_sources(),
        num_objects: table.num_objects(),
    }
}

/// One property of each type: continuous, categorical, text.
fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("num");
    s.add_categorical("cat");
    s.add_text("text");
    s
}

/// A value of property `p`'s type (see [`schema`]).
fn value(rng: &mut Pcg64, p: u32) -> Value {
    match p {
        0 => Value::Num(rng.random_range(-1e3..1e3)),
        1 => Value::Cat(rng.random_range(0u32..4)),
        _ => Value::Text(format!("t{}", rng.random_range(0u32..1000))),
    }
}

fn claim(rng: &mut Pcg64, object: u32, property: u32, source: u32) -> Claim {
    Claim {
        object: ObjectId(object),
        property: PropertyId(property),
        source: SourceId(source),
        value: value(rng, property),
    }
}

/// `n` claims over objects `objects`, every property, sources `0..sources`.
/// Draws repeat (entry, source) pairs often, with fresh values.
fn random_claims(rng: &mut Pcg64, n: usize, objects: &[u32], sources: u32) -> Vec<Claim> {
    (0..n)
        .map(|_| {
            let o = objects[rng.random_range(0..objects.len())];
            let p = rng.random_range(0u32..3);
            let s = rng.random_range(0..sources);
            claim(rng, o, p, s)
        })
        .collect()
}

/// The three arrival orders. Stable sorts keep each (entry, source)
/// pair's duplicates in their drawn order, so every order has a
/// well-defined last claim.
fn arrival_orders(rng: &mut Pcg64, claims: &[Claim]) -> Vec<(&'static str, Vec<Claim>)> {
    let mut source_major = claims.to_vec();
    source_major.sort_by_key(|c| c.source);
    let mut entry_major = claims.to_vec();
    entry_major.sort_by_key(|c| (c.object, c.property));
    let mut shuffled = claims.to_vec();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..i + 1));
    }
    vec![
        ("source-major", source_major),
        ("entry-major", entry_major),
        ("shuffled", shuffled),
    ]
}

/// Build `claims` in every arrival order, assert the grouping path taken,
/// and compare the table with the oracle.
fn check(case: &str, seed: u64, claims: Vec<Claim>, dense: bool) {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x7AB1E);
    for (order, claims) in arrival_orders(&mut rng, &claims) {
        let span = dense_key_span(&schema(), &claims).unwrap();
        assert_eq!(span.is_some(), dense, "{case} / {order}: span {span:?}");
        let expected = oracle(claims.clone());
        let table = ObservationTable::from_claims(schema(), claims).unwrap();
        assert_eq!(observed(&table), expected, "{case} / {order} / seed {seed}");
    }
}

#[test]
fn dense_keys_with_duplicates_match_the_oracle() {
    for seed in 0..8 {
        let mut rng = Pcg64::seed_from_u64(seed);
        // even objects only, so every odd object's buckets stay empty; 60
        // entries, 400 claims over 6 sources: most (entry, source) pairs
        // are claimed more than once
        let objects: Vec<u32> = (0..40).step_by(2).collect();
        let claims = random_claims(&mut rng, 400, &objects, 6);
        check("dense", seed, claims, true);
    }
}

#[test]
fn sparse_keys_take_the_fallback_and_match_the_oracle() {
    for seed in 0..8 {
        let mut rng = Pcg64::seed_from_u64(seed);
        let objects = [0, 7, 1 << 20, u32::MAX - 1];
        let claims = random_claims(&mut rng, 200, &objects, 5);
        check("sparse", seed, claims, false);
    }
}

#[test]
fn single_claim_matches_the_oracle() {
    let mut rng = Pcg64::seed_from_u64(1);
    // one claim on property 0 of object 0: span 3 > 1 claim → fallback
    check("single", 1, vec![claim(&mut rng, 0, 0, 0)], false);
    check("single text", 2, vec![claim(&mut rng, 0, 2, 4)], false);
}

#[test]
fn one_entry_holding_every_claim_matches_the_oracle() {
    for seed in 0..4 {
        let mut rng = Pcg64::seed_from_u64(seed);
        // all on (object 0, text property): Text values must be moved,
        // with the latest of each source kept
        let claims: Vec<Claim> = (0..64)
            .map(|_| {
                let s = rng.random_range(0u32..9);
                claim(&mut rng, 0, 2, s)
            })
            .collect();
        check("one entry", seed, claims, true);
    }
}
