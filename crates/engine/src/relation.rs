//! In-memory relations: named schemas over bags of tuples, with a lazily
//! encoded columnar view.
//!
//! A [`Relation`] is always a *bag*; whether it is interpreted as a set is
//! a [convention](arc_core::conventions) applied by the engine at
//! collection boundaries, never baked into the data structure — mirroring
//! the paper's §2.7. Its rows live in one flat, append-only store
//! ([`Relation::rows`], a [`Rows`]): every cell in one buffer, a row read
//! as a `&[Value]` slice of it, so emitting, loading or appending a row
//! allocates no block of its own. [`Relation::columns`] exposes the same
//! rows as typed [column chunks](arc_core::column) — encoded on first use
//! and cached — which is what the vectorized filter/join kernels and
//! `ANALYZE` consume; it and the ordered indexes are validated on the
//! store's generation, which every mutation moves.

use crate::eval::quantifier::KeySlots;
use arc_core::column::ColumnSet;
use arc_core::value::{Key, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use arc_core::rows::Rows;

/// A tuple held as a value of its own (a key, a memo entry, a row a
/// pattern function returns), aligned with a relation's schema. A
/// relation's own rows live in its [`Rows`] store instead.
pub type Tuple = Vec<Value>;

/// A named relation: schema (attribute names, in order) + rows, plus a
/// lazily encoded columnar view of those rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Relation name (display only; the catalog key is authoritative).
    pub name: String,
    /// Attribute names in column order.
    pub schema: Vec<String>,
    /// The rows, as a bag, in one flat store of the schema's arity.
    pub rows: Rows,
    /// Cached columnar encoding (see [`Relation::columns`]).
    columns: ColCache,
    /// Cached ordered secondary indexes (see [`Relation::ordered_index`]).
    indexes: IndexCache,
}

/// The lazily built columnar view of a relation's rows, with the
/// generation of the store it encodes. Identity-free by design: cloning
/// resets it (the clone re-encodes on first use) and it never
/// participates in equality, hashing, or `Debug` noise — it is a cache of
/// `rows`, not state of its own.
struct ColCache(Mutex<Option<(u64, Arc<ColumnSet>)>>);

impl ColCache {
    fn empty() -> ColCache {
        ColCache(Mutex::new(None))
    }

    /// Lock the cache, **recovering** from a poisoned mutex (a worker
    /// panicked while this relation was encoding): the poison is cleared
    /// — so later locks take the fast path again — and the cached view
    /// dropped, because a panic mid-encode may have published a partial
    /// one. Re-encoding on demand is always safe.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<(u64, Arc<ColumnSet>)>> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut cached = poisoned.into_inner();
            *cached = None;
            cached
        })
    }
}

impl Clone for ColCache {
    fn clone(&self) -> ColCache {
        // Deliberately not cloned: a cloned store draws a generation of its
        // own, so a copied entry could never be served anyway.
        ColCache::empty()
    }
}

impl PartialEq for ColCache {
    fn eq(&self, _: &ColCache) -> bool {
        true // caches never affect relation equality
    }
}
impl Eq for ColCache {}

impl fmt::Debug for ColCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ColCache")
    }
}

/// Lazily built ordered secondary indexes, keyed by the indexed column
/// list, each with the generation of the store it sorts. Same
/// identity-free contract as [`ColCache`]: cloning resets it, it never
/// participates in equality or `Debug`, and a cached index is served only
/// while the store's generation still matches its build-time one.
struct IndexCache(Mutex<IndexMap>);

/// Ordered indexes by column list, with the generation each was built at.
type IndexMap = HashMap<Vec<usize>, (u64, Arc<crate::eval::index::OrderedIndex>)>;

impl IndexCache {
    fn empty() -> IndexCache {
        IndexCache(Mutex::new(HashMap::new()))
    }

    /// Lock the cache, recovering from a poisoned mutex the same way
    /// [`ColCache::lock`] does: clear the poison, drop the cached
    /// indexes, rebuild on demand.
    fn lock(&self) -> std::sync::MutexGuard<'_, IndexMap> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut cached = poisoned.into_inner();
            cached.clear();
            cached
        })
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> IndexCache {
        // Deliberately not cloned, for the same reason as ColCache.
        IndexCache::empty()
    }
}

impl PartialEq for IndexCache {
    fn eq(&self, _: &IndexCache) -> bool {
        true // caches never affect relation equality
    }
}
impl Eq for IndexCache {}

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IndexCache")
    }
}

impl Relation {
    /// An empty relation with the given name and schema.
    pub fn new(name: impl Into<String>, schema: &[&str]) -> Self {
        let schema: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
        let rows = Rows::new(schema.len());
        Relation::from_store(name, schema, rows)
    }

    /// A relation over an existing store.
    ///
    /// # Panics
    /// Panics when the store's arity is not the schema's.
    pub fn from_store(name: impl Into<String>, schema: Vec<String>, rows: Rows) -> Self {
        let name = name.into();
        assert_eq!(
            rows.arity(),
            schema.len(),
            "arity mismatch storing rows into {name}"
        );
        Relation {
            name,
            schema,
            rows,
            columns: ColCache::empty(),
            indexes: IndexCache::empty(),
        }
    }

    /// The columnar view of this relation: rows encoded into typed
    /// [chunks](arc_core::column) of [`arc_core::column::CHUNK_ROWS`],
    /// built on first use and cached.
    ///
    /// The cache validates on the store's [generation](Rows::generation):
    /// any mutation of `rows` — an append or a whole new store, at any
    /// length — makes the next call re-encode, so a stale view is never
    /// served.
    pub fn columns(&self) -> Arc<ColumnSet> {
        let generation = self.rows.generation();
        let mut cached = self.columns.lock();
        if let Some((built, set)) = cached.as_ref() {
            if *built == generation {
                return Arc::clone(set);
            }
        }
        let start = Instant::now();
        let set = Arc::new(ColumnSet::encode(&self.rows));
        crate::metrics::chunk_builds().inc();
        crate::metrics::chunk_encode_time().record_elapsed(start);
        *cached = Some((generation, Arc::clone(&set)));
        set
    }

    /// True when [`Relation::columns`] would answer from its cache (a
    /// view encoded at the store's current generation).
    pub(crate) fn columns_cached(&self) -> bool {
        let generation = self.rows.generation();
        matches!(self.columns.lock().as_ref(), Some((built, _)) if *built == generation)
    }

    /// The ordered secondary index over `cols`, built on first use and
    /// cached on the relation — so repeated queries against the same
    /// catalog pay the build once (a gather from [`Relation::columns`],
    /// reusing the view `ANALYZE` encoded, and a sort that is a linear
    /// radix pass per key digit for `Int` columns) and every index-range
    /// scan after that is O(log n + k). Shared via `Arc`: the parallel
    /// executor's workers and the coordinator read the same index. The
    /// cache validates on the store's generation, exactly like
    /// [`Relation::columns`].
    pub(crate) fn ordered_index(&self, cols: &[usize]) -> Arc<crate::eval::index::OrderedIndex> {
        let generation = self.rows.generation();
        let mut cached = self.indexes.lock();
        if let Some((built, idx)) = cached.get(cols) {
            if *built == generation {
                return Arc::clone(idx);
            }
        }
        let start = Instant::now();
        let idx = Arc::new(crate::eval::index::OrderedIndex::build(
            &self.columns(),
            cols,
        ));
        crate::metrics::ordered_builds().inc();
        crate::metrics::ordered_build_time().record_elapsed(start);
        cached.insert(cols.to_vec(), (generation, Arc::clone(&idx)));
        idx
    }

    /// Build a relation from rows of values convertible to [`Value`].
    ///
    /// ```
    /// use arc_engine::relation::Relation;
    /// let r = Relation::from_rows("R", &["A", "B"], vec![vec![1.into(), 2.into()]]);
    /// assert_eq!(r.len(), 1);
    /// ```
    ///
    /// # Panics
    /// Panics when a row's arity does not match the schema (see
    /// [`Relation::push`]).
    pub fn from_rows(name: impl Into<String>, schema: &[&str], rows: Vec<Tuple>) -> Self {
        let mut rel = Relation::new(name, schema);
        for row in &rows {
            rel.check_arity(row);
        }
        rel.rows = Rows::from_vecs(rel.arity(), rows);
        rel
    }

    /// Convenience constructor from integer rows (most paper instances).
    pub fn from_ints(name: impl Into<String>, schema: &[&str], rows: &[&[i64]]) -> Self {
        let mut rel = Relation::new(name, schema);
        rel.rows.reserve(rows.len());
        for row in rows {
            rel.push(row.iter().map(|v| Value::Int(*v)).collect());
        }
        rel
    }

    /// Number of rows (bag cardinality).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column arity.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Append one row, checking arity. [`Rows::push_row`] on
    /// [`Relation::rows`] appends a borrowed row without the `Vec`.
    ///
    /// # Panics
    /// Panics when the row arity does not match the schema; tuples are
    /// produced by the engine, so a mismatch is an internal logic error.
    pub fn push(&mut self, row: Tuple) {
        self.check_arity(&row);
        self.rows.push(row);
    }

    fn check_arity(&self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "arity mismatch inserting into {}",
            self.name
        );
    }

    /// Index of an attribute.
    pub fn attr_index(&self, attr: &str) -> Option<usize> {
        self.schema.iter().position(|a| a == attr)
    }

    /// Canonical key view of a row (for hashing/grouping/sorting).
    pub fn row_key(row: &[Value]) -> Vec<Key> {
        row.iter().map(Value::key).collect()
    }

    /// Equi-join key of a row over `cols`, or `None` when any selected
    /// value can never satisfy an equality predicate (`NULL` compares as
    /// `Unknown`; a float `NaN` is incomparable even to itself), so
    /// indexing/probing with it must produce no matches.
    ///
    /// This is the **one** place join-key semantics live: the hash-join
    /// executor builds its indexes with it and the planner's cardinality
    /// estimator ([`Relation::distinct_estimate`]) counts with it, so the
    /// two can never disagree on what "equal" means.
    pub fn key_for(row: &[Value], cols: &[usize]) -> Option<Vec<Key>> {
        let mut key = Vec::with_capacity(cols.len());
        for &c in cols {
            key.push(join_key(&row[c])?);
        }
        Some(key)
    }

    /// The hash of [`Relation::key_for`]'s key under the engine's one
    /// hasher, taken where the values are: `None` exactly where
    /// `key_for` is.
    pub(crate) fn join_hash(row: &[Value], cols: &[usize]) -> Option<u64> {
        let mut h = crate::eval::builds::hasher().build_hasher();
        for &c in cols {
            row[c].join_key_ref()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// Estimated number of distinct equi-join keys on `cols`, from a
    /// prefix sample of up to `sample` rows (linearly extrapolated when
    /// the relation is larger). Feeds the planner's greedy join ordering;
    /// a crude estimate is fine — it only has to rank join candidates.
    /// Keys are [`Relation::key_for`]'s, hashed and compared where the
    /// sampled rows hold them, so a distinct key allocates nothing.
    pub fn distinct_estimate(&self, cols: &[usize], sample: usize) -> usize {
        let n = self.rows.len();
        if n == 0 {
            return 0;
        }
        let take = n.min(sample.max(1));
        let mut seen = KeySlots::with_capacity(take);
        let mut distinct = 0;
        for (i, row) in self.rows.iter().take(take).enumerate() {
            let Some(hash) = Relation::join_hash(row, cols) else {
                continue;
            };
            let is_key = |at: u32| {
                let at = &self.rows[at as usize];
                cols.iter().all(|&c| at[c].key_ref() == row[c].key_ref())
            };
            distinct += usize::from(seen.insert(hash, i as u32, is_key));
        }
        let distinct = distinct.max(1);
        if take == n {
            distinct
        } else {
            // Linear extrapolation: assumes key frequencies in the sample
            // are representative.
            (distinct * n / take).max(distinct)
        }
    }

    /// Deduplicated copy (first occurrence order preserved).
    pub fn deduped(&self) -> Relation {
        let rows = dedupe_rows(self.rows.clone());
        Relation::from_store(self.name.clone(), self.schema.clone(), rows)
    }

    /// Rows sorted by canonical key (deterministic output order; the key
    /// is computed once per row, not once per comparison).
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut rows = self.rows.to_vecs();
        rows.sort_by_cached_key(|r| Relation::row_key(r));
        rows
    }

    /// Bag equality: same rows with same multiplicities (order-insensitive).
    /// Equality is [`Relation::row_key`]'s — `1` and `1.0` are one value,
    /// `NULL`s group — counted where the rows are stored, as
    /// `dedupe_rows` does: no key is built.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        let n = self.rows.len();
        if n != other.rows.len() || (n > 0 && self.arity() != other.arity()) {
            return false;
        }
        let (slots, firsts) = self.first_rows();
        let mut left = vec![0usize; n];
        firsts.iter().for_each(|&f| left[f as usize] += 1);
        other
            .rows
            .iter()
            .all(|row| match self.first_of(&slots, row) {
                Some(f) if left[f as usize] > 0 => {
                    left[f as usize] -= 1;
                    true
                }
                _ => false,
            })
    }

    /// Set equality: same distinct rows (multiplicities ignored), under
    /// [`Relation::bag_eq`]'s equality.
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.rows.is_empty() || other.rows.is_empty() {
            return self.rows.is_empty() == other.rows.is_empty();
        }
        if self.arity() != other.arity() {
            return false;
        }
        let (slots, firsts) = self.first_rows();
        let mut seen = vec![false; firsts.len()];
        let distinct = firsts.iter().enumerate().filter(|&(i, &f)| i == f as usize);
        let mut unseen = distinct.count();
        other
            .rows
            .iter()
            .all(|row| match self.first_of(&slots, row) {
                Some(f) => {
                    unseen -= usize::from(!std::mem::replace(&mut seen[f as usize], true));
                    true
                }
                None => false,
            })
            && unseen == 0
    }

    /// Every row's first equal row (by index), and the slot table that
    /// finds it ([`Relation::first_of`]).
    fn first_rows(&self) -> (KeySlots, Vec<u32>) {
        let mut slots = KeySlots::with_capacity(self.rows.len());
        let mut firsts = Vec::with_capacity(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            let hash = row_hash(row);
            let is_row = |at: u32| same_row(&self.rows[at as usize], row);
            firsts.push(slots.find(hash, is_row).unwrap_or_else(|| {
                slots.insert(hash, i as u32, is_row);
                i as u32
            }));
        }
        (slots, firsts)
    }

    /// The first of `self`'s rows equal to `row`, if any.
    fn first_of(&self, slots: &KeySlots, row: &[Value]) -> Option<u32> {
        slots.find(row_hash(row), |at| same_row(&self.rows[at as usize], row))
    }
}

/// A whole row's hash under the engine's one hasher, by
/// [`Relation::row_key`]'s equality, taken where the values are.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = crate::eval::builds::hasher().build_hasher();
    row.iter().for_each(|v| v.key_ref().hash(&mut h));
    h.finish()
}

/// Whether two rows are equal by [`Relation::row_key`]'s equality.
fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.key_ref() == b.key_ref())
}

/// The rows of `rows` that repeat no earlier one, in first-occurrence
/// order. Equality is [`Relation::row_key`]'s — `1` and `1.0` are one
/// value, `NULL`s group — but no key is built: a row is hashed where it is
/// and verified against the kept row its hash addresses, so the pass
/// allocates one table and one verdict per row, whatever the rows hold,
/// and hands back the store itself when nothing repeats.
pub(crate) fn dedupe_rows(rows: Rows) -> Rows {
    if rows.len() < 2 {
        return rows;
    }
    let mut kept = KeySlots::with_capacity(rows.len());
    let mut keep = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let is_row = |at: u32| same_row(&rows[at as usize], row);
        keep.push(kept.insert(row_hash(row), i as u32, is_row));
    }
    if keep.iter().all(|&k| k) {
        return rows;
    }
    rows.filter(&keep)
}

/// A value's hash key for equi-join purposes, or `None` when the value can
/// never satisfy an equality predicate. `Value::key()` normalizes integral
/// floats to integer keys, so key equality coincides exactly with
/// `compare(..) == Equal` for the remaining values. Delegates to
/// [`Value::join_key`] — the semantics live in `arc-core` so the
/// statistics subsystem counts with the same rule.
pub fn join_key(v: &Value) -> Option<Key> {
    v.join_key()
}

// The parallel executor shares relations (and the keys inside hash
// indexes) read-only across worker threads; keep that a compile-time fact
// so a future field can't silently break `ARC_THREADS > 1`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Relation>();
    assert_send_sync::<Tuple>();
    assert_send_sync::<Value>();
    assert_send_sync::<Key>();
};

impl fmt::Display for Relation {
    /// Render as an aligned text table (used by examples and EXPERIMENTS.md).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.schema.iter().map(|s| s.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .sorted_rows()
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}:", self.name)?;
        let header: Vec<String> = self
            .schema
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{s:width$}", width = widths[i]))
            .collect();
        writeln!(f, "  {}", header.join(" | "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "  {}", rule.join("-+-"))?;
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:width$}", width = widths[i]))
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_ints("R", &["A", "B"], rows)
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let rel = r(&[&[1, 2], &[3, 4], &[1, 2]]);
        let d = rel.deduped();
        assert_eq!(d.len(), 2);
        assert_eq!(d.rows[0], [Value::Int(1), Value::Int(2)]);
        assert_eq!(d.rows[1], [Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn bag_and_set_equality_differ() {
        let a = r(&[&[1, 2], &[1, 2]]);
        let b = r(&[&[1, 2]]);
        assert!(!a.bag_eq(&b));
        assert!(a.set_eq(&b));
    }

    /// Bag and set equality compare by [`Relation::row_key`]: `1` is
    /// `1.0`, `NULL` rows and `NaN` rows are equal to themselves, and a
    /// bag counts multiplicities where a set does not.
    #[test]
    fn bag_and_set_equality_compare_row_keys() {
        let rel = |rows: Vec<Vec<Value>>| Relation::from_rows("R", &["A", "B"], rows);
        let (int, nan) = (Value::Int, Value::Float(f64::NAN));
        let a = rel(vec![
            vec![int(1), Value::str("x")],
            vec![Value::Null, Value::Null],
            vec![nan.clone(), int(2)],
            vec![Value::Null, Value::Null],
        ]);
        let b = rel(vec![
            vec![Value::Null, Value::Null],
            vec![nan.clone(), Value::Float(2.0)],
            vec![Value::Null, Value::Null],
            vec![Value::Float(1.0), Value::str("x")],
        ]);
        assert!(a.bag_eq(&b) && b.bag_eq(&a));
        assert!(a.set_eq(&b) && b.set_eq(&a));
        // The same rows, other multiplicities, the same count.
        let c = rel(vec![
            vec![int(1), Value::str("x")],
            vec![Value::Null, Value::Null],
            vec![nan.clone(), int(2)],
            vec![nan.clone(), int(2)],
        ]);
        assert!(!a.bag_eq(&c) && !c.bag_eq(&a));
        assert!(a.set_eq(&c) && c.set_eq(&a));
        // Differing row counts.
        let d = rel(vec![vec![int(1), Value::str("x")]]);
        assert!(!a.bag_eq(&d) && !d.bag_eq(&a));
        assert!(!a.set_eq(&d) && !d.set_eq(&a));
        let empty = rel(vec![]);
        assert!(empty.bag_eq(&empty) && empty.set_eq(&empty));
        assert!(!d.bag_eq(&empty) && !d.set_eq(&empty) && !empty.set_eq(&d));
        // A row that differs in one value.
        let e = rel(vec![vec![int(1), Value::str("y")]]);
        assert!(!d.bag_eq(&e) && !d.set_eq(&e));
    }

    /// `distinct_estimate` counts [`Relation::key_for`]'s keys — `1` and
    /// `1.0` are one, a row with a `NULL` or `NaN` component has none —
    /// and extrapolates a prefix sample linearly: the same estimates as
    /// collecting the sampled keys into a set.
    #[test]
    fn distinct_estimate_counts_join_keys() {
        use std::collections::BTreeSet;
        let (int, s) = (Value::Int, Value::str);
        let rel = Relation::from_rows(
            "R",
            &["A", "B"],
            vec![
                vec![int(1), int(0)],
                vec![Value::Float(1.0), int(0)],
                vec![Value::Null, int(0)],
                vec![Value::Float(f64::NAN), int(1)],
                vec![s("x"), int(1)],
                vec![int(1), int(2)],
                vec![s("x"), Value::Null],
                vec![Value::Float(2.5), int(1)],
            ],
        );
        let by_set = |cols: &[usize], sample: usize| {
            let take = rel.len().min(sample.max(1));
            let keys: BTreeSet<_> = rel
                .rows
                .iter()
                .take(take)
                .filter_map(|row| Relation::key_for(row, cols))
                .collect();
            let distinct = keys.len().max(1);
            (distinct * rel.len() / take).max(distinct)
        };
        let cols: [&[usize]; 4] = [&[0], &[1], &[0, 1], &[]];
        for cols in cols {
            for sample in [0, 1, 2, 3, 4, 5, 8, 100] {
                assert_eq!(
                    rel.distinct_estimate(cols, sample),
                    by_set(cols, sample),
                    "{cols:?} over {sample}"
                );
            }
        }
        assert_eq!(rel.distinct_estimate(&[0], 8), 3, "1 ≡ 1.0, \"x\", 2.5");
        assert_eq!(rel.distinct_estimate(&[0, 1], 8), 4);
        assert_eq!(rel.distinct_estimate(&[0], 4), 2, "one key in 4 of 8 rows");
        assert_eq!(rel.distinct_estimate(&[], 8), 1);
        assert_eq!(Relation::new("E", &["A"]).distinct_estimate(&[0], 8), 0);
    }

    #[test]
    fn nulls_group_in_keys() {
        let mut rel = Relation::new("R", &["A"]);
        rel.push(vec![Value::Null]);
        rel.push(vec![Value::Null]);
        assert_eq!(rel.deduped().len(), 1);
    }

    #[test]
    fn display_renders_table() {
        let rel = r(&[&[1, 2]]);
        let s = rel.to_string();
        assert!(s.contains("A | B"));
        assert!(s.contains("1 | 2"));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut rel = Relation::new("R", &["A", "B"]);
        rel.push(vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch inserting into R")]
    fn from_rows_checks_every_row_before_taking_the_vector() {
        Relation::from_rows(
            "R",
            &["A", "B"],
            vec![vec![1.into(), 2.into()], vec![3.into()]],
        );
    }

    #[test]
    fn columns_cache_rebuilds_after_growth() {
        let mut rel = r(&[&[1, 2], &[3, 4]]);
        let first = rel.columns();
        assert_eq!(first.rows(), 2);
        assert!(
            Arc::ptr_eq(&first, &rel.columns()),
            "stable while unchanged"
        );
        rel.push(vec![Value::Int(5), Value::Int(6)]);
        let second = rel.columns();
        assert_eq!(second.rows(), 3);
        assert_eq!(second.value(2, 0), Value::Int(5));
    }

    #[test]
    fn a_replaced_store_of_the_same_length_is_never_served_stale() {
        let mut rel = r(&[&[1, 2], &[3, 4]]);
        let (cols, index) = (rel.columns(), rel.ordered_index(&[0]));
        assert_eq!(cols.value(0, 0), Value::Int(1));
        assert_eq!(
            index.entries(),
            [(vec![Key::Int(1)], 0), (vec![Key::Int(3)], 1)]
        );
        rel.rows = r(&[&[8, 0], &[7, 0]]).rows;
        let cols = rel.columns();
        assert_eq!(cols.rows(), 2);
        assert_eq!(cols.value(0, 0), Value::Int(8));
        assert_eq!(cols.value(1, 0), Value::Int(7));
        let index = rel.ordered_index(&[0]);
        assert_eq!(
            index.entries(),
            [(vec![Key::Int(7)], 1), (vec![Key::Int(8)], 0)],
            "sorted over the new values"
        );
    }

    /// An ordered index gathers from the chunk view and keys each chunk
    /// as the rows key: an `Int` chunk with a `NULL`, a `Mixed` chunk
    /// holding an integral `3.0` and a `NaN`, a `Float` chunk of integral
    /// floats and a `NaN` — all of it `Int` keys — and then a string,
    /// which turns its column generic.
    #[test]
    fn an_index_keys_every_chunk_kind_as_the_rows_do() {
        use arc_core::column::{ColumnData, CHUNK_ROWS};
        let chunk = CHUNK_ROWS as i64;
        let mut rel = Relation::new("R", &["A", "B"]);
        for i in 0..2 * chunk + 40 {
            let a = match i % chunk {
                _ if i == 5 => Value::Null,
                6 if i > chunk => Value::Float(3.0),
                7 if i > chunk => Value::Float(f64::NAN),
                n if i >= 2 * chunk => Value::Float((n % 10) as f64),
                n => Value::Int(n % 10),
            };
            rel.push(vec![a, Value::Int(i % 3)]);
        }
        let kinds: Vec<&str> = (rel.columns().chunks().iter())
            .map(|c| match c.col(0).data() {
                ColumnData::Int(_) => "int",
                ColumnData::Mixed(_) => "mixed",
                ColumnData::Float(_) => "float",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["int", "mixed", "float"]);
        // What the rows say: every row with a key on each indexed column,
        // by key tuple, then row id (`Key`'s own order puts `Int` before
        // `Str`, as the index's class order does).
        let from_rows = |rel: &Relation, cols: &[usize]| {
            let mut entries: Vec<(Vec<Key>, u32)> = (rel.rows.iter().enumerate())
                .filter_map(|(i, row)| Some((Relation::key_for(row, cols)?, i as u32)))
                .collect();
            entries.sort();
            entries
        };
        let shapes: [&[usize]; 3] = [&[0], &[1, 0], &[0, 1]];
        for cols in shapes {
            let index = rel.ordered_index(cols);
            assert_eq!(index.entries(), from_rows(&rel, cols), "{cols:?}");
            assert_eq!(index.typed(), vec![true; cols.len()], "{cols:?}");
        }
        assert_eq!(
            rel.ordered_index(&[0]).len(),
            rel.len() - 3,
            "a NULL, two NaNs"
        );
        rel.push(vec![Value::str("s"), Value::Int(0)]);
        for (cols, typed) in shapes
            .into_iter()
            .zip([[false, false], [true, false], [false, true]])
        {
            let index = rel.ordered_index(cols);
            assert_eq!(index.entries(), from_rows(&rel, cols), "{cols:?}");
            assert_eq!(index.typed(), typed[..cols.len()], "{cols:?}");
        }
    }

    #[test]
    fn poisoned_column_cache_recovers_by_re_encoding() {
        let rel = Arc::new(r(&[&[1, 2], &[3, 4]]));
        let _ = rel.columns();
        let clone = Arc::clone(&rel);
        std::thread::spawn(move || {
            let _guard = clone.columns.0.lock().unwrap();
            panic!("worker panicked mid-encode");
        })
        .join()
        .unwrap_err();
        assert!(rel.columns.0.is_poisoned());
        // Recovery drops the possibly-partial view and re-encodes.
        let cols = rel.columns();
        assert_eq!(cols.rows(), 2);
        assert_eq!(cols.value(1, 0), Value::Int(3));
        assert!(!rel.columns.0.is_poisoned(), "recovery clears the poison");
    }

    #[test]
    fn poisoned_index_cache_recovers_by_rebuilding() {
        let rel = Arc::new(r(&[&[2, 20], &[1, 10]]));
        let before = rel.ordered_index(&[0]);
        let clone = Arc::clone(&rel);
        std::thread::spawn(move || {
            let _guard = clone.indexes.0.lock().unwrap();
            panic!("worker panicked mid-build");
        })
        .join()
        .unwrap_err();
        assert!(rel.indexes.0.is_poisoned());
        let after = rel.ordered_index(&[0]);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "poisoned entries are evicted, not reused"
        );
        assert_eq!(after.entries(), before.entries());
        assert!(!rel.indexes.0.is_poisoned(), "recovery clears the poison");
    }

    #[test]
    fn clone_re_encodes_columns_independently() {
        let rel = r(&[&[1, 2]]);
        let before = rel.columns();
        let cloned = rel.clone();
        assert!(!Arc::ptr_eq(&before, &cloned.columns()));
        assert_eq!(rel, cloned, "cache never affects equality");
    }

    #[test]
    fn sorted_rows_are_deterministic() {
        let a = r(&[&[3, 4], &[1, 2]]);
        let b = r(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }
}
