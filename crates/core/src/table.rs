//! Multi-source observation storage and the truth table.
//!
//! [`ObservationTable`] stores the union of all sources' claims
//! `{X^(1), …, X^(K)}` in an entry-major CSR layout: for each entry
//! (object, property) a contiguous slice of `(SourceId, Value)` pairs.
//! Both solver steps iterate entry-by-entry, so this is the cache-friendly
//! orientation; missing observations (§2.5) simply do not appear.

use crate::error::{CrhError, Result};
use crate::ids::{EntryId, ObjectId, PropertyId, SourceId};
use crate::schema::Schema;
use crate::value::{Truth, Value};

/// An entry: one cell of the truth table (Definition 1). Entries order by
/// object, then property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Entry {
    /// The object `i`.
    pub object: ObjectId,
    /// The property `m`.
    pub property: PropertyId,
}

/// One input tuple `(eID, v, sID)` in the MapReduce data format (§2.7.1),
/// here with the entry spelled out as (object, property).
#[derive(Debug, Clone)]
pub struct Claim {
    /// The observed object.
    pub object: ObjectId,
    /// The observed property.
    pub property: PropertyId,
    /// The claiming source.
    pub source: SourceId,
    /// The claimed value.
    pub value: Value,
}

/// Incremental builder for [`ObservationTable`].
///
/// Duplicate claims (same entry, same source) are resolved keep-last, the
/// usual treatment for re-crawled web data.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    claims: Vec<Claim>,
}

impl TableBuilder {
    /// Start building against `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            claims: Vec::new(),
        }
    }

    /// Read access to the schema (e.g. to resolve property names).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (e.g. to intern categorical labels).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Record one observation. Validates the value against the schema.
    pub fn add(
        &mut self,
        object: ObjectId,
        property: PropertyId,
        source: SourceId,
        value: Value,
    ) -> Result<()> {
        self.schema.check_value(property, &value)?;
        self.claims.push(Claim {
            object,
            property,
            source,
            value,
        });
        Ok(())
    }

    /// Convenience: intern a categorical label and record the observation.
    pub fn add_label(
        &mut self,
        object: ObjectId,
        property: PropertyId,
        source: SourceId,
        label: &str,
    ) -> Result<()> {
        let v = self.schema.intern(property, label)?;
        self.add(object, property, source, v)
    }

    /// Number of claims recorded so far (before dedup).
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether no claims have been recorded.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Finalize into an [`ObservationTable`].
    pub fn build(self) -> Result<ObservationTable> {
        ObservationTable::from_claims(self.schema, self.claims)
    }
}

/// The assembled multi-source input `{X^(1), …, X^(K)}`.
#[derive(Debug, Clone)]
pub struct ObservationTable {
    schema: Schema,
    entries: Vec<Entry>,
    /// CSR offsets: observations of entry `e` live at `obs[offsets[e]..offsets[e+1]]`.
    offsets: Vec<usize>,
    obs: Vec<(SourceId, Value)>,
    /// Observation count per source (for the §2.5 count normalization),
    /// indexed up to the largest source id seen.
    source_counts: Vec<usize>,
}

impl ObservationTable {
    /// Build from raw claims. Claims are grouped by entry; within an entry,
    /// a later claim from the same source replaces an earlier one
    /// (keep-last), and the surviving observations are ordered by source.
    ///
    /// The build is linear in the claim count `n` and moves every value
    /// rather than cloning it. One pass rejects a property id the schema
    /// does not declare ([`CrhError::UnknownProperty`]) and finds the
    /// largest object id. The claims are then counting-sorted by the dense
    /// entry key `object · P + property` (`P` = the schema's property
    /// count): they land in their entry's bucket of the observation array
    /// in arrival order. Each bucket is then stable-sorted by source and
    /// only the last claim of each source run is kept, compacting the
    /// array in place. Empty buckets are skipped, so entries come out in
    /// ascending (object, property) order.
    ///
    /// When the key span `(largest object + 1) · P` exceeds `n` (sparse or
    /// adversarial ids), the claims are instead stable-sorted by entry and
    /// fed to the same per-entry keep-last step. Beyond the claims and the
    /// observation array, the bucketing holds at most one `u32` per claim;
    /// the fallback holds the stable sort's scratch buffer instead.
    ///
    /// Value types are not checked against the schema here (that is
    /// [`TableBuilder::add`]'s job), so a type-confused or non-finite value
    /// is stored as given.
    pub fn from_claims(schema: Schema, claims: Vec<Claim>) -> Result<Self> {
        if claims.is_empty() {
            return Err(CrhError::EmptyTable);
        }
        let (entries, mut offsets, mut obs) = match dense_key_span(&schema, &claims)? {
            Some(span) => bucket_by_key(claims, schema.num_properties(), span),
            None => sort_by_entry(claims),
        };
        let source_counts = keep_last_per_source(&mut obs, &mut offsets);
        Ok(Self {
            schema,
            entries,
            offsets,
            obs,
            source_counts,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of entries with at least one observation.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of sources `K` (1 + the largest source id seen).
    pub fn num_sources(&self) -> usize {
        self.source_counts.len()
    }

    /// Number of objects `N` (1 + the largest object id seen).
    pub fn num_objects(&self) -> usize {
        // entries are sorted by object
        self.entries.last().map_or(0, |e| e.object.index() + 1)
    }

    /// Number of properties `M` declared in the schema.
    pub fn num_properties(&self) -> usize {
        self.schema.num_properties()
    }

    /// Total number of observations (after dedup).
    pub fn num_observations(&self) -> usize {
        self.obs.len()
    }

    /// Observation count of each source.
    pub fn source_counts(&self) -> &[usize] {
        &self.source_counts
    }

    /// The entry descriptor for `e`.
    pub fn entry(&self, e: EntryId) -> Entry {
        self.entries[e.index()]
    }

    /// Look up an entry id by (object, property).
    pub fn entry_id(&self, object: ObjectId, property: PropertyId) -> Option<EntryId> {
        self.entries
            .binary_search(&Entry { object, property })
            .ok()
            .map(EntryId::from_index)
    }

    /// The `(source, value)` observations of entry `e`, sorted by source id.
    pub fn observations(&self, e: EntryId) -> &[(SourceId, Value)] {
        let i = e.index();
        &self.obs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterate `(EntryId, Entry, observations)` over all entries.
    pub fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (EntryId, Entry, &[(SourceId, Value)])> + '_ {
        self.entries.iter().enumerate().map(move |(i, &entry)| {
            (
                EntryId::from_index(i),
                entry,
                &self.obs[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }

    /// Iterate all claims as flat `(entry, source, value)` tuples — the
    /// MapReduce input format of §2.7.1.
    pub fn iter_claims(&self) -> impl Iterator<Item = (EntryId, SourceId, &Value)> + '_ {
        self.iter_entries()
            .flat_map(|(e, _, group)| group.iter().map(move |(s, v)| (e, *s, v)))
    }
}

/// Check every claim's property id against `schema` and choose how
/// [`ObservationTable::from_claims`] groups the claims: `Some(span)`, the
/// dense entry-key span `(largest object + 1) · P`, when it is at most the
/// claim count (counting sort), or `None` for the stable-sort fallback.
#[doc(hidden)]
pub fn dense_key_span(schema: &Schema, claims: &[Claim]) -> Result<Option<usize>> {
    let p = schema.num_properties();
    let mut max_object = 0;
    for c in claims {
        if c.property.index() >= p {
            return Err(CrhError::UnknownProperty(c.property));
        }
        max_object = max_object.max(c.object.index());
    }
    let span = (max_object + 1).checked_mul(p);
    // bucket ends are u32 offsets into the observation array
    Ok(span.filter(|&s| s <= claims.len() && u32::try_from(claims.len()).is_ok()))
}

/// Claims grouped by entry: `(entries, offsets, obs)`, entries in ascending
/// (object, property) order, entry `i`'s observations at
/// `obs[offsets[i]..offsets[i + 1]]` in arrival order, duplicates included.
type Grouped = (Vec<Entry>, Vec<usize>, Vec<(SourceId, Value)>);

/// Counting sort by the dense key `object · p + property < span`.
fn bucket_by_key(claims: Vec<Claim>, p: usize, span: usize) -> Grouped {
    let key = |c: &Claim| c.object.index() * p + c.property.index();
    // ends[k] holds bucket k's size, then its start, then (after the
    // scatter) its end
    let mut ends = vec![0u32; span];
    for c in &claims {
        ends[key(c)] += 1;
    }
    let mut start = 0;
    for e in &mut ends {
        let size = *e;
        *e = start;
        start += size;
    }
    let mut obs = vec![(SourceId(0), Value::Num(0.0)); claims.len()];
    for c in claims {
        let slot = &mut ends[key(&c)];
        obs[*slot as usize] = (c.source, c.value);
        *slot += 1;
    }

    let mut entries = Vec::new();
    let mut offsets = vec![0];
    let mut start = 0;
    for (object, row) in ends.chunks_exact(p).enumerate() {
        for (property, &end) in row.iter().enumerate() {
            if end > start {
                entries.push(Entry {
                    object: ObjectId::from_index(object),
                    property: PropertyId::from_index(property),
                });
                offsets.push(end as usize);
                start = end;
            }
        }
    }
    (entries, offsets, obs)
}

/// Fallback grouping for sparse keys: a stable sort by entry.
fn sort_by_entry(mut claims: Vec<Claim>) -> Grouped {
    claims.sort_by_key(|c| (c.object, c.property));
    let mut entries: Vec<Entry> = Vec::new();
    let mut offsets = Vec::new();
    let mut obs = Vec::with_capacity(claims.len());
    for c in claims {
        let entry = Entry {
            object: c.object,
            property: c.property,
        };
        if entries.last() != Some(&entry) {
            entries.push(entry);
            offsets.push(obs.len());
        }
        obs.push((c.source, c.value));
    }
    offsets.push(obs.len());
    (entries, offsets, obs)
}

/// Within each entry's observations (arrival order), keep the last one of
/// each source, ordered by source; compacts `obs` and rewrites `offsets`
/// in place. Returns the number of observations kept per source.
fn keep_last_per_source(obs: &mut Vec<(SourceId, Value)>, offsets: &mut [usize]) -> Vec<usize> {
    let mut source_counts = Vec::new();
    let mut kept = 0;
    let mut start = 0;
    for offset in &mut offsets[1..] {
        let end = *offset;
        // stable: one source's claims stay in arrival order, last is latest
        obs[start..end].sort_by_key(|(s, _)| *s);
        for r in start..end {
            if r + 1 < end && obs[r + 1].0 == obs[r].0 {
                continue;
            }
            let s = obs[r].0.index();
            if s >= source_counts.len() {
                source_counts.resize(s + 1, 0);
            }
            source_counts[s] += 1;
            if kept != r {
                obs.swap(kept, r);
            }
            kept += 1;
        }
        *offset = kept;
        start = end;
    }
    obs.truncate(kept);
    source_counts
}

/// The output truth table `X^(*)`: one [`Truth`] per entry of the
/// observation table it was computed from.
#[derive(Debug, Clone)]
pub struct TruthTable {
    cells: Vec<Truth>,
}

impl TruthTable {
    /// Wrap a dense vector of truths (parallel to the table's entries).
    pub fn new(cells: Vec<Truth>) -> Self {
        Self { cells }
    }

    /// The truth of entry `e`.
    pub fn get(&self, e: EntryId) -> &Truth {
        &self.cells[e.index()]
    }

    /// Mutable access, used by solvers.
    pub fn get_mut(&mut self, e: EntryId) -> &mut Truth {
        &mut self.cells[e.index()]
    }

    /// The dense cell storage, for entry-sharded kernels that write truths
    /// in place (cell `i` is entry `i`).
    pub fn as_mut_slice(&mut self) -> &mut [Truth] {
        &mut self.cells
    }

    /// Resize to exactly `n` cells so a kernel can overwrite them in place,
    /// reusing the existing allocation (and each cell's own allocations)
    /// across iterations. New cells get a placeholder value.
    pub fn resize_for_fit(&mut self, n: usize) {
        self.cells.resize(n, Truth::Point(Value::Num(0.0)));
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate `(EntryId, &Truth)`.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &Truth)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, t)| (EntryId::from_index(i), t))
    }

    /// Consume into the underlying cells.
    pub fn into_cells(self) -> Vec<Truth> {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weather_schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("high");
        s.add_categorical("cond");
        s
    }

    fn build_small() -> ObservationTable {
        let mut b = TableBuilder::new(weather_schema());
        let hi = PropertyId(0);
        let cond = PropertyId(1);
        b.add(ObjectId(0), hi, SourceId(0), Value::Num(70.0))
            .unwrap();
        b.add(ObjectId(0), hi, SourceId(1), Value::Num(72.0))
            .unwrap();
        b.add(ObjectId(0), hi, SourceId(2), Value::Num(90.0))
            .unwrap();
        b.add_label(ObjectId(0), cond, SourceId(0), "sunny")
            .unwrap();
        b.add_label(ObjectId(0), cond, SourceId(1), "sunny")
            .unwrap();
        b.add_label(ObjectId(1), cond, SourceId(2), "rain").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dimensions() {
        let t = build_small();
        assert_eq!(t.num_entries(), 3);
        assert_eq!(t.num_sources(), 3);
        assert_eq!(t.num_objects(), 2);
        assert_eq!(t.num_properties(), 2);
        assert_eq!(t.num_observations(), 6);
        assert_eq!(t.source_counts(), &[2, 2, 2]);
    }

    #[test]
    fn entry_lookup_and_observations() {
        let t = build_small();
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        let obs = t.observations(e);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0], (SourceId(0), Value::Num(70.0)));
        assert_eq!(t.entry(e).object, ObjectId(0));
        assert!(t.entry_id(ObjectId(5), PropertyId(0)).is_none());
    }

    #[test]
    fn keep_last_dedup() {
        let mut b = TableBuilder::new(weather_schema());
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(2.0))
            .unwrap();
        let t = b.build().unwrap();
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        assert_eq!(t.observations(e), &[(SourceId(0), Value::Num(2.0))]);
        assert_eq!(t.num_observations(), 1);
    }

    #[test]
    fn observations_sorted_by_source() {
        let mut b = TableBuilder::new(weather_schema());
        b.add(ObjectId(0), PropertyId(0), SourceId(2), Value::Num(3.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(1), Value::Num(2.0))
            .unwrap();
        let t = b.build().unwrap();
        let obs = t.observations(EntryId(0));
        let srcs: Vec<u32> = obs.iter().map(|(s, _)| s.0).collect();
        assert_eq!(srcs, vec![0, 1, 2]);
    }

    #[test]
    fn empty_table_is_error() {
        let b = TableBuilder::new(weather_schema());
        assert!(b.is_empty());
        assert!(matches!(b.build(), Err(CrhError::EmptyTable)));
    }

    #[test]
    fn type_mismatch_rejected_at_add() {
        let mut b = TableBuilder::new(weather_schema());
        let err = b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Cat(0));
        assert!(matches!(err, Err(CrhError::TypeMismatch { .. })));
    }

    #[test]
    fn out_of_schema_property_rejected_at_build() {
        let mut schema = Schema::new();
        schema.add_continuous("x");
        let claim = |property| Claim {
            object: ObjectId(0),
            property: PropertyId(property),
            source: SourceId(0),
            value: Value::Num(1.0),
        };
        let err = ObservationTable::from_claims(schema, vec![claim(0), claim(3)]);
        assert!(matches!(err, Err(CrhError::UnknownProperty(PropertyId(3)))));
    }

    #[test]
    fn iter_claims_flattens() {
        let t = build_small();
        assert_eq!(t.iter_claims().count(), t.num_observations());
    }

    #[test]
    fn missing_values_are_absent() {
        // source 2 never reports (o0, cond): the entry has 2 observations.
        let t = build_small();
        let e = t.entry_id(ObjectId(0), PropertyId(1)).unwrap();
        assert_eq!(t.observations(e).len(), 2);
    }

    #[test]
    fn truth_table_accessors() {
        let mut tt = TruthTable::new(vec![
            Truth::Point(Value::Num(1.0)),
            Truth::Point(Value::Cat(0)),
        ]);
        assert_eq!(tt.len(), 2);
        assert!(!tt.is_empty());
        assert_eq!(tt.get(EntryId(0)).as_num(), Some(1.0));
        *tt.get_mut(EntryId(0)) = Truth::Point(Value::Num(5.0));
        assert_eq!(tt.get(EntryId(0)).as_num(), Some(5.0));
        assert_eq!(tt.iter().count(), 2);
        assert_eq!(tt.into_cells().len(), 2);
    }
}
