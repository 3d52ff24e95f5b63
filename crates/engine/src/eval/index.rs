//! Ordered secondary indexes: sorted permutations over one or more
//! columns, binary-searched for the bound prefix of an
//! [`Access::IndexRange`](arc_plan::Access::IndexRange) step.
//!
//! ## What the index holds
//!
//! An [`OrderedIndex`] over columns `cols` is a permutation of the row
//! ids whose every indexed column has a join key (`NULL` and float `NaN`
//! are excluded outright: under three-valued logic neither can satisfy an
//! equality *or* an ordering predicate, so no bound prefix could ever
//! select them). Entries sort lexicographically by a total order over
//! keys — class rank first (booleans, then numerics with `Int`/`Float`
//! interleaved by numeric value, then strings), exact value within a
//! class — with ties broken by row id, so equal-key runs enumerate in
//! original row order.
//!
//! Beside the permutation the index keeps one *typed* key column per
//! indexed column, in entry order: a packed `Vec<i64>` when every indexed
//! key of that column is `Key::Int` (integral floats already normalize to
//! it, so an `Int` column holding `3.0` stays typed), a `Vec<Key>`
//! otherwise — decided per column from the keys the build saw, never
//! from an option. The search reads either layout through the borrowed
//! [`KeyRef`] view, so there is one search path and one comparator
//! ([`key_cmp`]) whatever the columns hold.
//!
//! ## How it is built
//!
//! [`OrderedIndex::build`] reads the relation's chunk view
//! ([`Relation::columns`](crate::relation::Relation::columns)) — the one
//! `ANALYZE` already encoded, so an analyzed relation's first index-range
//! scan encodes nothing new. One gather walks it a chunk at a time: an
//! `Int` chunk copies its slice, dropping `NULL` slots through its
//! validity words; any other chunk keys each slot as the row path does.
//! The gather emits rows in ascending id order, and both sorts keep that
//! order among equal keys: an all-`Int` index of any width sorts by a
//! stable LSD radix sort (`radix_sort`, linear per key digit), anything
//! else by [`key_cmp`] with the row id as the last key.
//!
//! ## Search semantics — who defines "equal" and "less"
//!
//! The two probe components deliberately use *different* comparison
//! sources, each matching the execution path it replaces:
//!
//! * **equality prefix** — exact [`Key`] match, the same rule the
//!   hash-join index uses ([`Relation::key_for`](crate::relation::Relation::key_for)): an index-range step
//!   with a constant-equality prefix replaces a hash probe, and must
//!   select exactly the rows that probe would have.
//! * **range bound** — [`Value::compare`] semantics, the same rule the
//!   row path's [`cmp_truth`](arc_core::value::cmp_truth) and the
//!   columnar kernels apply: the bound replaces an ordering filter. A
//!   constant only orders against values of its own comparability class
//!   (bool / numeric / string — anything else is `Unknown` and the row
//!   path drops it), so the search first narrows to the constant's class
//!   window and only then applies the bound; a missing end stops at the
//!   class boundary, not at the end of the index. A `NULL`/`NaN`
//!   constant (or a lower/upper pair from two different classes) can
//!   match nothing and short-circuits to an empty selection.
//!
//! Both probes are monotone over the sort order, so plain binary search
//! (`partition_point` style) finds every window; the qualifying row ids
//! are then re-sorted ascending so the scan emits environments in
//! exactly the order the full-scan row path would — workspace
//! invariant 13, and what lets the selection compose with chunk-aligned
//! morsel partitioning unchanged.

use arc_core::ast::{CmpOp, Predicate};
use arc_core::column::{ColumnChunk, ColumnData, ColumnSet, Mask};
use arc_core::value::{Key, KeyRef, Value};
use arc_plan::const_cmp;
use std::cmp::Ordering;

/// Comparability class of a key (mirrors [`Value::compare`]: values of
/// different classes never order against each other). `NULL` never
/// enters an index.
fn class(k: KeyRef<'_>) -> u8 {
    match k {
        KeyRef::Null => unreachable!("NULL keys are excluded at build time"),
        KeyRef::Bool(_) => 0,
        KeyRef::Int(_) | KeyRef::Float(_) => 1,
        KeyRef::Str(_) => 2,
    }
}

/// Class of a constant value, `None` for `NULL`/`NaN` (which no row can
/// equal or order against).
fn value_class(v: &Value) -> Option<u8> {
    match v {
        Value::Null => None,
        Value::Float(f) if f.is_nan() => None,
        Value::Bool(_) => Some(0),
        Value::Int(_) | Value::Float(_) => Some(1),
        Value::Str(_) => Some(2),
    }
}

/// The index's total order over two keys: class rank, then exact value.
/// `Int` and `Float` interleave by numeric value (via `f64`, which is
/// exact here: integral floats normalize to `Key::Int` at key
/// construction, so every `Float` key is non-integral with magnitude
/// below 2^53, where `i64 → f64` ordering is lossless) and are never
/// `Equal` cross-type — so an `Equal` run under this order is exactly a
/// run of identical keys.
fn key_cmp(a: KeyRef<'_>, b: KeyRef<'_>) -> Ordering {
    let (ca, cb) = (class(a), class(b));
    if ca != cb {
        return ca.cmp(&cb);
    }
    let float = |x: f64, y: f64| {
        x.partial_cmp(&y)
            .expect("NaN keys are excluded at build time")
    };
    match (a, b) {
        (KeyRef::Bool(x), KeyRef::Bool(y)) => x.cmp(&y),
        (KeyRef::Int(x), KeyRef::Int(y)) => x.cmp(&y),
        (KeyRef::Str(x), KeyRef::Str(y)) => x.cmp(y),
        (KeyRef::Float(x), KeyRef::Float(y)) => float(f64::from_bits(x), f64::from_bits(y)),
        (KeyRef::Int(x), KeyRef::Float(y)) => float(x as f64, f64::from_bits(y)),
        (KeyRef::Float(x), KeyRef::Int(y)) => float(f64::from_bits(x), y as f64),
        _ => unreachable!("cross-class pairs are ordered by class rank"),
    }
}

/// Same-class ordering of an indexed key against a bound constant,
/// replicating [`Value::compare`] exactly — including its `f64` widening
/// for mixed `Int`/`Float` pairs, so the selected window is precisely
/// the set of rows `cmp_truth` would keep. Monotone over [`key_cmp`]
/// order (the `i64 → f64` widening is order-preserving), which is what
/// makes binary search with it sound. Caller guarantees the constant is
/// in the key's class and is not `NULL`/`NaN`.
fn key_cmp_value(k: KeyRef<'_>, v: &Value) -> Ordering {
    let float = |x: f64, y: f64| x.partial_cmp(&y).expect("NaN keys and bounds are excluded");
    match (k, v) {
        (KeyRef::Bool(a), Value::Bool(b)) => a.cmp(b),
        (KeyRef::Int(a), Value::Int(b)) => a.cmp(b),
        (KeyRef::Int(a), Value::Float(b)) => float(a as f64, *b),
        (KeyRef::Float(a), Value::Int(b)) => float(f64::from_bits(a), *b as f64),
        (KeyRef::Float(a), Value::Float(b)) => float(f64::from_bits(a), *b),
        (KeyRef::Str(a), Value::Str(b)) => a.cmp(b.as_str()),
        _ => unreachable!("caller narrows to the constant's class first"),
    }
}

/// A resolved index probe: the constant equality prefix (exact keys, in
/// index-column order) plus at most one lower and one upper bound on the
/// final column. Built once at step-materialization time from the
/// consumed filters (see `Ctx::materialize_steps`).
pub(crate) struct IndexProbe {
    /// Exact keys for the leading equality columns (may be empty: a
    /// range-only probe on a single-column index).
    pub(crate) eq: Vec<Key>,
    /// Lower bound on the final column (`Gt`/`Ge`).
    pub(crate) lo: Option<(CmpOp, Value)>,
    /// Upper bound on the final column (`Lt`/`Le`).
    pub(crate) hi: Option<(CmpOp, Value)>,
    /// Statically empty: some consumed constant was `NULL`/`NaN`, or the
    /// two bounds come from different comparability classes — no row can
    /// satisfy the conjunction, so the search skips the index entirely.
    pub(crate) empty: bool,
}

/// The executable form of an [`Access::IndexRange`](arc_plan::Access)
/// step: which columns the index sorts, the resolved probe, and the
/// consumed filters' addresses (the selection-cache key component).
pub(crate) struct IndexPlan {
    /// Indexed columns: the equality prefix in order, then the single
    /// range-bound column.
    pub(crate) cols: Vec<usize>,
    /// The resolved probe (exact prefix keys + bounds).
    pub(crate) probe: IndexProbe,
    /// Addresses of the consumed predicates — combined with the
    /// vectorized-prefix addresses to key the scan's selection in the
    /// evaluation's build store, and pinned as that key's are
    /// (`Ordered::selection_key`).
    pub(crate) key: Vec<usize>,
}

impl IndexPlan {
    /// Re-derive the bound semantics of an index-range step from its
    /// consumed filter indices, using the *same* classifier the planner
    /// used ([`const_cmp`]) so the two can never disagree. Returns
    /// `None` when the consumed filters don't re-derive — the engine
    /// maps that onto an internal-invariant error.
    pub(crate) fn build(
        cols: &[usize],
        consumed: &[usize],
        filters: &[&Predicate],
        var: &str,
        schema: &[String],
    ) -> Option<IndexPlan> {
        let (&range_col, eq_cols) = cols.split_last()?;
        let mut eq: Vec<Option<Key>> = vec![None; eq_cols.len()];
        let mut lo: Option<(CmpOp, Value)> = None;
        let mut hi: Option<(CmpOp, Value)> = None;
        let mut empty = false;
        for &f in consumed {
            let (col, op, value) = const_cmp(filters.get(f)?, var, schema)?;
            match op {
                CmpOp::Eq => {
                    let p = eq_cols.iter().position(|&c| c == col)?;
                    if eq[p].is_some() {
                        return None; // one equality per prefix column
                    }
                    // A NULL/NaN equality constant matches no row; the
                    // placeholder key is never compared (`empty` wins).
                    eq[p] = Some(match value.join_key() {
                        Some(k) => k,
                        None => {
                            empty = true;
                            Key::Int(0)
                        }
                    });
                }
                CmpOp::Lt | CmpOp::Le => {
                    if col != range_col || hi.is_some() {
                        return None;
                    }
                    empty |= value_class(value).is_none();
                    hi = Some((op, value.clone()));
                }
                CmpOp::Gt | CmpOp::Ge => {
                    if col != range_col || lo.is_some() {
                        return None;
                    }
                    empty |= value_class(value).is_none();
                    lo = Some((op, value.clone()));
                }
                CmpOp::Ne => return None, // the planner never consumes ≠
            }
        }
        if lo.is_none() && hi.is_none() {
            return None; // an index-range step always has a range bound
        }
        // Bounds from two different comparability classes reject every
        // row (one of the two comparisons is Unknown for any value).
        if let (Some((_, l)), Some((_, h))) = (&lo, &hi) {
            if value_class(l) != value_class(h) {
                empty = true;
            }
        }
        let eq: Vec<Key> = eq.into_iter().collect::<Option<_>>()?;
        Some(IndexPlan {
            cols: cols.to_vec(),
            probe: IndexProbe { eq, lo, hi, empty },
            key: consumed
                .iter()
                .map(|&f| filters[f] as *const Predicate as usize)
                .collect(),
        })
    }

    /// Row-wise equivalent of this plan's consumed filters — the
    /// **degraded** scan path when the memory budget denies the
    /// ordered-index (or selection) build. Keeps exactly the rows
    /// [`OrderedIndex::search`] would select: the equality prefix under
    /// hash-probe (key) semantics, the range bounds under
    /// [`cmp_truth`](arc_core::value::cmp_truth).
    pub(crate) fn row_matches(&self, row: &[Value]) -> bool {
        if self.probe.empty {
            return false;
        }
        let (&range_col, eq_cols) = self
            .cols
            .split_last()
            .expect("an index plan always has columns");
        for (k, &c) in self.probe.eq.iter().zip(eq_cols) {
            match row[c].join_key() {
                Some(rk) if rk == *k => {}
                _ => return false,
            }
        }
        let in_bound = |b: &Option<(CmpOp, Value)>| {
            b.iter()
                .all(|(op, v)| arc_core::value::cmp_truth(&row[range_col], *op, v).is_true())
        };
        in_bound(&self.probe.lo) && in_bound(&self.probe.hi)
    }
}

/// One indexed column's keys, in entry order.
enum KeyColumn {
    /// Every indexed key of the column is `Key::Int`: the payloads, packed.
    Int(Vec<i64>),
    /// Anything else (another class, or a non-integral float among ints).
    Keys(Vec<Key>),
}

/// Slot `i`'s join key: what [`Value::join_key_ref`] makes of the value
/// the slot decodes to (`None` for `NULL` and `NaN`; an integral float
/// keys as `Int`), read without copying a string.
fn slot_key(col: &ColumnChunk, i: usize) -> Option<KeyRef<'_>> {
    if !col.is_valid(i) {
        return None;
    }
    match col.data() {
        ColumnData::Int(xs) => Some(KeyRef::Int(xs[i])),
        ColumnData::Float(xs) => match Value::Float(xs[i]).join_key()? {
            Key::Int(k) => Some(KeyRef::Int(k)),
            Key::Float(bits) => Some(KeyRef::Float(bits)),
            _ => unreachable!("a float keys as Int or Float"),
        },
        ColumnData::Bool(xs) => Some(KeyRef::Bool(xs[i])),
        ColumnData::Str(xs) => Some(KeyRef::Str(&xs[i])),
        ColumnData::Mixed(vs) => vs[i].join_key_ref(),
        ColumnData::Null => None,
    }
}

impl KeyColumn {
    fn get(&self, entry: usize) -> KeyRef<'_> {
        match self {
            KeyColumn::Int(xs) => KeyRef::Int(xs[entry]),
            KeyColumn::Keys(ks) => ks[entry].key_ref(),
        }
    }

    /// Append a key; the first non-`Int` one turns the column generic.
    fn push(&mut self, k: KeyRef<'_>) {
        match (&mut *self, k) {
            (KeyColumn::Int(xs), KeyRef::Int(i)) => xs.push(i),
            (KeyColumn::Int(xs), k) => {
                let mut ks = Vec::with_capacity(xs.capacity());
                ks.extend(xs.iter().map(|&i| Key::Int(i)));
                ks.push(k.to_key());
                *self = KeyColumn::Keys(ks);
            }
            (KeyColumn::Keys(ks), k) => ks.push(k.to_key()),
        }
    }

    /// Append the keys of `col`'s slots for the global row ids `rows`
    /// (ascending, all in the chunk starting at row `base`, every one
    /// with a key): an `Int` chunk into a packed column copies its slice,
    /// anything else goes slot by slot through [`slot_key`].
    fn extend(&mut self, col: &ColumnChunk, base: usize, rows: &[u32]) {
        if let (KeyColumn::Int(out), ColumnData::Int(xs)) = (&mut *self, col.data()) {
            if rows.len() == xs.len() {
                out.extend_from_slice(xs);
            } else {
                out.extend(rows.iter().map(|&r| xs[r as usize - base]));
            }
            return;
        }
        for &r in rows {
            self.push(slot_key(col, r as usize - base).expect("a gathered slot has a key"));
        }
    }

    /// The column with slot `i` taken from old slot `order[i]` (`order`
    /// is a permutation, so every key moves exactly once).
    fn permuted(self, order: &[u32]) -> KeyColumn {
        match self {
            KeyColumn::Int(xs) => KeyColumn::Int(order.iter().map(|&p| xs[p as usize]).collect()),
            KeyColumn::Keys(mut ks) => KeyColumn::Keys(
                order
                    .iter()
                    .map(|&p| std::mem::replace(&mut ks[p as usize], Key::Null))
                    .collect(),
            ),
        }
    }
}

/// An ordered secondary index over one or more columns of a relation:
/// the sorted permutation plus the typed key columns it sorts by.
pub(crate) struct OrderedIndex {
    /// One key column per indexed column; entry `i` owns slot `i` of each.
    keys: Vec<KeyColumn>,
    /// Row ids, parallel to the key columns, in sorted order.
    perm: Vec<u32>,
}

/// Widest radix digit, in bits: a histogram of at most `2^11` counts.
const DIGIT_BITS: u32 = 11;

/// Sort an all-`Int` index in place by `(key tuple, row id)`: an LSD
/// radix sort, stable, so the ascending row ids the gather produced
/// break every tie. Column by column from the last (least significant),
/// each column's keys are counted as `x − min` (a `u64`, so the whole
/// `i64` range is exact) in digits of at most [`DIGIT_BITS`] — no wider
/// than its range needs, nor than the row count's bit length — and each
/// digit scatters every key column and the row ids into one spare set,
/// which then swaps in. An all-equal column, or a digit every key
/// shares, makes no pass.
fn radix_sort(cols: &mut [Vec<i64>], perm: &mut Vec<u32>) {
    let n = perm.len();
    if n < 2 {
        return;
    }
    let widest = (usize::BITS - n.leading_zeros()).min(DIGIT_BITS);
    let mut counts: Vec<u32> = Vec::new();
    let mut spare: Option<(Vec<Vec<i64>>, Vec<u32>)> = None;
    for c in (0..cols.len()).rev() {
        let (min, max) =
            (cols[c].iter()).fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let bits = u64::BITS - (max.wrapping_sub(min) as u64).leading_zeros();
        let passes = bits.div_ceil(widest);
        if passes == 0 {
            continue;
        }
        let width = bits.div_ceil(passes);
        let mask = (1u64 << width) - 1;
        for pass in 0..passes {
            let shift = pass * width;
            let digit = |x: i64| ((x.wrapping_sub(min) as u64 >> shift) & mask) as usize;
            counts.clear();
            counts.resize(1 << width, 0);
            for &x in &cols[c] {
                counts[digit(x)] += 1;
            }
            if counts.iter().any(|&k| k as usize == n) {
                continue; // every key shares this digit
            }
            let mut at = 0;
            for k in &mut counts {
                (*k, at) = (at, at + *k);
            }
            let (spare_cols, spare_perm) = spare
                .get_or_insert_with(|| (cols.iter().map(|_| vec![0; n]).collect(), vec![0; n]));
            for i in 0..n {
                let slot = &mut counts[digit(cols[c][i])];
                let to = *slot as usize;
                *slot += 1;
                for (from, into) in cols.iter().zip(spare_cols.iter_mut()) {
                    into[to] = from[i];
                }
                spare_perm[to] = perm[i];
            }
            for (from, into) in cols.iter_mut().zip(spare_cols.iter_mut()) {
                std::mem::swap(from, into);
            }
            std::mem::swap(perm, spare_perm);
        }
    }
}

impl OrderedIndex {
    /// Bytes a build over `rows` rows and `width` `Int` columns holds at
    /// its peak — what `ORDERED_BUILD` reserves: the index (8 B per key
    /// and the 4 B row id), the radix sort's spare set of the same size,
    /// and its histogram (`2^DIGIT_BITS` counts of 4 B).
    pub(crate) fn build_bytes(rows: usize, width: usize) -> usize {
        2 * rows * (8 * width + 4) + (4 << DIGIT_BITS)
    }

    /// Build the index over `cols` of the columnar view `set`. Rows where
    /// any indexed column lacks a join key (`NULL`/`NaN`) are excluded —
    /// they can never satisfy the equality or ordering predicates a probe
    /// encodes.
    ///
    /// One gather, a chunk at a time, collects the indexed columns flat
    /// in ascending row order, each column typed by the keys it actually
    /// met: an `Int` chunk copies its slice (its validity words drop the
    /// `NULL`s); any other chunk keys each slot as
    /// [`Value::join_key_ref`] does. An all-`Int` index of any width then
    /// LSD-radix-sorts (`radix_sort`); anything else sorts the
    /// permutation through the gathered columns with [`key_cmp`]. Either
    /// way the entries end in `(key tuple, row id)` order — equal keys
    /// keep their rows' order — and nothing is allocated per row beyond
    /// the string payload of a `Str` key.
    pub(crate) fn build(set: &ColumnSet, cols: &[usize]) -> OrderedIndex {
        let mut keys: Vec<KeyColumn> = cols
            .iter()
            .map(|_| KeyColumn::Int(Vec::with_capacity(set.rows())))
            .collect();
        let mut perm: Vec<u32> = Vec::with_capacity(set.rows());
        let mut keep = Mask::default();
        for chunk in set.chunks() {
            // The chunk's rows where every indexed column has a key.
            keep.select_range(chunk.len(), 0..chunk.len());
            for &c in cols {
                let col = chunk.col(c);
                match col.data() {
                    ColumnData::Int(_) => col.and_is_null(true, &mut keep),
                    _ => keep.retain(|i| slot_key(col, i).is_some()),
                }
            }
            let start = perm.len();
            keep.indices_into(chunk.base() as u32, &mut perm);
            for (key, &c) in keys.iter_mut().zip(cols) {
                key.extend(chunk.col(c), chunk.base(), &perm[start..]);
            }
        }
        if keys.iter().all(|col| matches!(col, KeyColumn::Int(_))) {
            let mut ints: Vec<Vec<i64>> = keys
                .into_iter()
                .map(|col| match col {
                    KeyColumn::Int(xs) => xs,
                    KeyColumn::Keys(_) => unreachable!("checked above"),
                })
                .collect();
            radix_sort(&mut ints, &mut perm);
            let keys = ints.into_iter().map(KeyColumn::Int).collect();
            return OrderedIndex { keys, perm };
        }
        // Gathered in row order, so a slot's position orders like its row
        // id.
        let mut order: Vec<u32> = (0..perm.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            keys.iter()
                .map(|col| key_cmp(col.get(a as usize), col.get(b as usize)))
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        let keys = keys.into_iter().map(|col| col.permuted(&order)).collect();
        let perm = order.iter().map(|&p| perm[p as usize]).collect();
        OrderedIndex { keys, perm }
    }

    /// Number of indexed (non-NULL/NaN) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.perm.len()
    }

    /// The entries in index order, as owned `(key tuple, row id)` pairs.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(Vec<Key>, u32)> {
        (0..self.perm.len())
            .map(|e| {
                let key = self.keys.iter().map(|col| col.get(e).to_key()).collect();
                (key, self.perm[e])
            })
            .collect()
    }

    /// Which indexed columns are stored packed.
    #[cfg(test)]
    pub(crate) fn typed(&self) -> Vec<bool> {
        self.keys
            .iter()
            .map(|col| matches!(col, KeyColumn::Int(_)))
            .collect()
    }

    /// First entry in `[lo, hi)` where `pred` on column `col` turns
    /// false (`partition_point` over a slice of the permutation).
    fn partition(
        &self,
        mut lo: usize,
        mut hi: usize,
        col: usize,
        pred: impl Fn(KeyRef<'_>) -> bool,
    ) -> usize {
        let keys = &self.keys[col];
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(keys.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Row ids satisfying the probe, in **ascending row order** (the
    /// same artifact a vectorized scan's selection vector is, so the two
    /// compose and the morsel partitioner needs no special case).
    pub(crate) fn search(&self, probe: &IndexProbe) -> Vec<u32> {
        if probe.empty {
            return Vec::new();
        }
        // Narrow to the equality prefix, one column at a time: each
        // column's keys are sorted within the window where all previous
        // columns already match, and exact-key runs are contiguous
        // because `key_cmp` is `Equal` only for identical keys.
        let (mut lo, mut hi) = (0usize, self.perm.len());
        for (col, k) in probe.eq.iter().enumerate() {
            let k = k.key_ref();
            lo = self.partition(lo, hi, col, |x| key_cmp(x, k) == Ordering::Less);
            hi = self.partition(lo, hi, col, |x| key_cmp(x, k) != Ordering::Greater);
            if lo == hi {
                return Vec::new();
            }
        }
        // Narrow to the bound constants' comparability class on the
        // range column: a constant orders only against its own class
        // (everything else is `Unknown`, which the row path rejects).
        let col = probe.eq.len();
        if let Some(c) = [&probe.lo, &probe.hi]
            .into_iter()
            .flatten()
            .filter_map(|(_, v)| value_class(v))
            .next()
        {
            lo = self.partition(lo, hi, col, |x| class(x) < c);
            hi = self.partition(lo, hi, col, |x| class(x) <= c);
        }
        // Apply the bounds with `Value::compare` semantics.
        if let Some((op, v)) = &probe.lo {
            let strict = *op == CmpOp::Gt;
            lo = self.partition(lo, hi, col, |x| {
                let ord = key_cmp_value(x, v);
                ord == Ordering::Less || (strict && ord == Ordering::Equal)
            });
        }
        if let Some((op, v)) = &probe.hi {
            let strict = *op == CmpOp::Lt;
            hi = self.partition(lo, hi, col, |x| {
                let ord = key_cmp_value(x, v);
                ord == Ordering::Less || (!strict && ord == Ordering::Equal)
            });
        }
        let mut out: Vec<u32> = self.perm[lo..hi].to_vec();
        out.sort_unstable();
        out
    }
}

// Indexes are cached on relations behind `Arc` and shared read-only
// across worker threads; keep that a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OrderedIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, Rows};
    use arc_core::value::cmp_truth;

    fn rel() -> Relation {
        // Mixed-type column A with NULL/NaN noise, plus a B column for
        // multi-column prefixes.
        Relation::from_rows(
            "R",
            &["A", "B"],
            (0..400i64)
                .map(|i| {
                    vec![
                        match i % 7 {
                            0 => Value::Null,
                            1 => Value::Float(f64::NAN),
                            2 => Value::Float(i as f64 + 0.5),
                            3 => Value::Float(i as f64), // integral: keys as Int
                            4 => Value::Str(format!("s{:03}", i % 50)),
                            5 => Value::Bool(i % 2 == 0),
                            _ => Value::Int(i % 90),
                        },
                        Value::Int(i % 4),
                    ]
                })
                .collect(),
        )
    }

    /// The reference: the rows the row path would keep for the same
    /// conjunction of consumed filters.
    fn row_reference(
        rel: &Relation,
        eq: &[(usize, Value)],
        col: usize,
        probe: &IndexProbe,
    ) -> Vec<u32> {
        rel.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                eq.iter().all(|(c, v)| {
                    // Equality prefix uses hash-probe (key) semantics.
                    match (row[*c].join_key(), v.join_key()) {
                        (Some(a), Some(b)) => a == b,
                        _ => false,
                    }
                }) && probe
                    .lo
                    .iter()
                    .all(|(op, v)| cmp_truth(&row[col], *op, v).is_true())
                    && probe
                        .hi
                        .iter()
                        .all(|(op, v)| cmp_truth(&row[col], *op, v).is_true())
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn range_search_matches_cmp_truth_per_class() {
        let rel = rel();
        let idx = OrderedIndex::build(&rel.columns(), &[0]);
        assert!(idx.len() < rel.len(), "NULL/NaN rows are excluded");
        let cases = vec![
            (
                Some((CmpOp::Gt, Value::Int(40))),
                Some((CmpOp::Le, Value::Int(70))),
            ),
            (Some((CmpOp::Ge, Value::Float(39.5))), None),
            (None, Some((CmpOp::Lt, Value::Float(10.75)))),
            (
                Some((CmpOp::Gt, Value::str("s01"))),
                Some((CmpOp::Lt, Value::str("s040"))),
            ),
            (Some((CmpOp::Ge, Value::Bool(true))), None),
            // Contradictory interval: empty, not negative.
            (
                Some((CmpOp::Gt, Value::Int(70))),
                Some((CmpOp::Lt, Value::Int(40))),
            ),
        ];
        for (lo, hi) in cases {
            let probe = IndexProbe {
                eq: Vec::new(),
                lo: lo.clone(),
                hi: hi.clone(),
                empty: false,
            };
            let got = idx.search(&probe);
            let want = row_reference(&rel, &[], 0, &probe);
            assert_eq!(got, want, "bounds {lo:?} / {hi:?}");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending row order");
        }
    }

    #[test]
    fn eq_prefix_narrows_before_the_range_bound() {
        let rel = rel();
        let idx = OrderedIndex::build(&rel.columns(), &[1, 0]);
        let probe = IndexProbe {
            eq: vec![Key::Int(2)],
            lo: Some((CmpOp::Gt, Value::Int(10))),
            hi: Some((CmpOp::Le, Value::Int(60))),
            empty: false,
        };
        let got = idx.search(&probe);
        let want = row_reference(&rel, &[(1, Value::Int(2))], 0, &probe);
        assert_eq!(got, want);
        assert!(!got.is_empty(), "fixture must exercise the window");
    }

    #[test]
    fn unmatchable_probes_are_empty() {
        let rel = rel();
        let idx = OrderedIndex::build(&rel.columns(), &[0]);
        // Statically empty probe (NULL/NaN constant or cross-class pair).
        let probe = IndexProbe {
            eq: Vec::new(),
            lo: Some((CmpOp::Gt, Value::Int(0))),
            hi: None,
            empty: true,
        };
        assert!(idx.search(&probe).is_empty());
        // Missing equality key: empty without touching the range logic.
        let idx2 = OrderedIndex::build(&rel.columns(), &[1, 0]);
        let probe = IndexProbe {
            eq: vec![Key::Int(99)],
            lo: Some((CmpOp::Gt, Value::Int(0))),
            hi: None,
            empty: false,
        };
        assert!(idx2.search(&probe).is_empty());
    }

    #[test]
    fn cache_rebuilds_after_growth_and_survives_requests() {
        let mut rel = rel();
        let first = rel.ordered_index(&[0]);
        assert!(
            std::sync::Arc::ptr_eq(&first, &rel.ordered_index(&[0])),
            "stable while unchanged"
        );
        rel.push(vec![Value::Int(7), Value::Int(7)]);
        let second = rel.ordered_index(&[0]);
        let last = rel.len() as u32 - 1;
        assert!(second.entries().iter().any(|&(_, id)| id == last));
        assert!(!std::sync::Arc::ptr_eq(&first, &second));
    }

    /// The comparator the index sorted owned key tuples with before it
    /// stored typed columns, written out: class rank, then exact value,
    /// `Int`/`Float` interleaved numerically.
    fn old_key_cmp(a: &Key, b: &Key) -> Ordering {
        let rank = |k: &Key| match k {
            Key::Null => unreachable!("NULL keys are never indexed"),
            Key::Bool(_) => 0,
            Key::Int(_) | Key::Float(_) => 1,
            Key::Str(_) => 2,
        };
        rank(a).cmp(&rank(b)).then_with(|| match (a, b) {
            (Key::Bool(x), Key::Bool(y)) => x.cmp(y),
            (Key::Int(x), Key::Int(y)) => x.cmp(y),
            (Key::Str(x), Key::Str(y)) => x.cmp(y),
            (Key::Float(x), Key::Float(y)) => {
                f64::from_bits(*x).partial_cmp(&f64::from_bits(*y)).unwrap()
            }
            (Key::Int(x), Key::Float(y)) => (*x as f64).partial_cmp(&f64::from_bits(*y)).unwrap(),
            (Key::Float(x), Key::Int(y)) => f64::from_bits(*x).partial_cmp(&(*y as f64)).unwrap(),
            _ => unreachable!("same rank, same class"),
        })
    }

    /// The build this one replaced: one owned key tuple per row with a
    /// join key on every column, sorted by [`old_key_cmp`], then row id.
    fn reference_entries(rows: &Rows, cols: &[usize]) -> Vec<(Vec<Key>, u32)> {
        let mut entries: Vec<(Vec<Key>, u32)> = rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| Some((Relation::key_for(row, cols)?, i as u32)))
            .collect();
        entries.sort_by(|a, b| {
            a.0.iter()
                .zip(&b.0)
                .map(|(x, y)| old_key_cmp(x, y))
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        entries
    }

    /// Build the index over `cols` (equality prefix, then the range
    /// column), check its entry order against [`reference_entries`], and
    /// check every probe shape — each prefix in `eqs` × one- and
    /// two-sided bounds from `bounds` — against the row path.
    fn check_index(
        rel: &Relation,
        cols: &[usize],
        eqs: &[Vec<Value>],
        bounds: &[Value],
    ) -> OrderedIndex {
        let idx = OrderedIndex::build(&rel.columns(), cols);
        assert_eq!(
            idx.entries(),
            reference_entries(&rel.rows, cols),
            "{cols:?}"
        );
        let (&range_col, eq_cols) = cols.split_last().unwrap();
        type Bound = Option<(CmpOp, Value)>;
        let mut intervals: Vec<(Bound, Bound)> = Vec::new();
        for b in bounds {
            intervals.push((Some((CmpOp::Gt, b.clone())), None));
            intervals.push((Some((CmpOp::Ge, b.clone())), None));
            intervals.push((None, Some((CmpOp::Lt, b.clone()))));
            intervals.push((None, Some((CmpOp::Le, b.clone()))));
            for h in bounds.iter().filter(|h| value_class(h) == value_class(b)) {
                intervals.push((Some((CmpOp::Ge, b.clone())), Some((CmpOp::Lt, h.clone()))));
            }
        }
        let mut selected = 0;
        for eq in eqs {
            let eq_ref: Vec<(usize, Value)> = eq_cols.iter().copied().zip(eq.clone()).collect();
            for (lo, hi) in &intervals {
                let probe = IndexProbe {
                    eq: eq.iter().map(|v| v.join_key().unwrap()).collect(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    empty: false,
                };
                let got = idx.search(&probe);
                let want = row_reference(rel, &eq_ref, range_col, &probe);
                assert_eq!(got, want, "cols {cols:?} eq {eq:?} bounds {lo:?} / {hi:?}");
                selected += got.len();
            }
        }
        assert!(selected > 0, "fixture must exercise the windows");
        idx
    }

    /// `A` runs over the extremes, negatives and long duplicate runs;
    /// `B` and `C` are small, so equal-key runs span many rows.
    fn int_rel(n: i64) -> Relation {
        Relation::from_rows(
            "I",
            &["A", "B", "C"],
            (0..n)
                .map(|i| {
                    let a = match i % 10 {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        2 => -(i % 13),
                        _ => i % 5,
                    };
                    vec![Value::Int(a), Value::Int(i % 3), Value::Int(i % 2)]
                })
                .collect(),
        )
    }

    #[test]
    fn all_int_indexes_are_packed_at_widths_one_to_three() {
        let rel = int_rel(3_000);
        let bounds = [
            Value::Int(i64::MIN),
            Value::Int(-4),
            Value::Int(0),
            Value::Float(2.5),
            Value::Int(4),
            Value::Int(i64::MAX),
            Value::str("not a number"),
        ];
        let (b1, c1) = (Value::Int(1), Value::Int(1));
        let absent = Value::Int(9);
        for (cols, eqs) in [
            (vec![0], vec![vec![]]),
            (vec![1, 0], vec![vec![b1.clone()], vec![absent.clone()]]),
            (
                vec![2, 1, 0],
                vec![vec![c1.clone(), b1.clone()], vec![c1, absent]],
            ),
        ] {
            let idx = check_index(&rel, &cols, &eqs, &bounds);
            assert_eq!(idx.typed(), vec![true; cols.len()]);
            assert_eq!(idx.len(), rel.len());
        }
        // Four columns radix-sort as well.
        let wide = Relation::from_rows(
            "W",
            &["A", "B", "C", "D"],
            (0..500i64)
                .map(|i| [i % 2, i % 3, i % 5, -i].map(Value::Int).to_vec())
                .collect(),
        );
        let eq = vec![Value::Int(1), Value::Int(2), Value::Int(4)];
        let idx = check_index(&wide, &[0, 1, 2, 3], &[eq], &[Value::Int(-250)]);
        assert_eq!(idx.typed(), vec![true; 4]);
    }

    #[test]
    fn integral_floats_stay_packed_and_one_fraction_makes_its_column_generic() {
        // `3.0` keys as `Int(3)`: the column stays typed.
        let mut rel = Relation::new("F", &["A", "B"]);
        for i in 0..2_000i64 {
            let a = if i % 2 == 0 {
                Value::Int(i % 9)
            } else {
                Value::Float((i % 9) as f64)
            };
            rel.push(vec![a, Value::Int(i % 4)]);
        }
        let bounds = [Value::Int(3), Value::Float(3.0), Value::Float(5.5)];
        let eqs = [vec![Value::Int(2)]];
        assert_eq!(check_index(&rel, &[0], &[vec![]], &bounds).typed(), [true]);
        assert_eq!(
            check_index(&rel, &[1, 0], &eqs, &bounds).typed(),
            [true, true]
        );
        // One non-integral float: that column alone goes generic.
        let mut rows = rel.rows.to_vecs();
        rows[1_500][0] = Value::Float(2.5);
        let rel = Relation::from_rows("F", &["A", "B"], rows);
        assert_eq!(check_index(&rel, &[0], &[vec![]], &bounds).typed(), [false]);
        assert_eq!(
            check_index(&rel, &[1, 0], &eqs, &bounds).typed(),
            [true, false]
        );
        assert_eq!(
            check_index(&rel, &[0, 1], &[vec![Value::Float(2.5)]], &[Value::Int(0)]).typed(),
            [false, true]
        );
    }

    #[test]
    fn a_column_that_changes_class_mid_gather_falls_back() {
        // Strings first appear after row 1 024, NULL/NaN rows throughout.
        let mut rel = Relation::new("S", &["A", "B"]);
        for i in 0..2_048i64 {
            let a = match i {
                _ if i % 11 == 0 => Value::Null,
                _ if i % 13 == 0 => Value::Float(f64::NAN),
                _ if i > 1_024 => Value::str(format!("s{:02}", i % 40)),
                _ => Value::Int(i % 40),
            };
            rel.push(vec![a, Value::Int(i % 2)]);
        }
        let bounds = [Value::Int(20), Value::str("s20")];
        let idx = check_index(&rel, &[0], &[vec![]], &bounds);
        assert_eq!(idx.typed(), [false]);
        let no_key = (0..2_048).filter(|i| i % 11 == 0 || i % 13 == 0).count();
        assert_eq!(idx.len(), rel.len() - no_key, "NULL/NaN rows are excluded");
        let idx = check_index(&rel, &[1, 0], &[vec![Value::Int(1)]], &bounds);
        assert_eq!(idx.typed(), [true, false]);
        // Before the strings arrive the same column is typed.
        let rel = Relation::from_rows(
            "S",
            &["A", "B"],
            rel.rows.range(0..1_024).map(<[Value]>::to_vec).collect(),
        );
        assert_eq!(
            check_index(&rel, &[0], &[vec![]], &bounds[..1]).typed(),
            [true]
        );
    }

    #[test]
    fn a_rebuild_after_growth_indexes_the_new_rows() {
        let mut rel = int_rel(600);
        let probe = IndexProbe {
            eq: Vec::new(),
            lo: Some((CmpOp::Gt, Value::Int(1_000))),
            hi: Some((CmpOp::Lt, Value::Int(i64::MAX))),
            empty: false,
        };
        assert!(rel.ordered_index(&[0]).search(&probe).is_empty());
        rel.push(vec![Value::Int(2_000), Value::Int(0), Value::Int(0)]);
        rel.push(vec![Value::Float(1_500.5), Value::Int(0), Value::Int(0)]);
        let idx = rel.ordered_index(&[0]);
        assert_eq!(idx.search(&probe), vec![600, 601]);
        assert_eq!(idx.typed(), [false], "the fraction arrived with the growth");
    }

    /// The order the radix sort must reproduce, computed the plain way:
    /// the rows whose indexed cells are all `Int`, as `(key tuple, row
    /// id)` pairs sorted by a comparison sort.
    fn comparison_order(rel: &Relation, cols: &[usize]) -> Vec<(Vec<Key>, u32)> {
        let mut entries: Vec<(Vec<i64>, u32)> = rel
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| {
                let key = cols.iter().map(|&c| match row[c] {
                    Value::Int(x) => Some(x),
                    _ => None,
                });
                Some((key.collect::<Option<_>>()?, i as u32))
            })
            .collect();
        entries.sort_unstable();
        entries
            .into_iter()
            .map(|(key, id)| (key.into_iter().map(Key::Int).collect(), id))
            .collect()
    }

    /// Build over `cols` and check the radix order against the
    /// comparison sort's, every column packed.
    fn check_radix(rel: &Relation, cols: &[usize]) {
        let idx = OrderedIndex::build(&rel.columns(), cols);
        assert_eq!(idx.typed(), vec![true; cols.len()], "{cols:?}");
        assert_eq!(idx.entries(), comparison_order(rel, cols), "{cols:?}");
    }

    /// `n` rows of five `Int` columns: `A` over both extremes of `i64`
    /// (a 64-bit range) and negatives, `B` heavy duplicates, `C` all
    /// equal, `D` negatives only, `E` with a `NULL` every fifth row.
    fn radix_rel(n: i64) -> Relation {
        Relation::from_rows(
            "X",
            &["A", "B", "C", "D", "E"],
            (0..n)
                .map(|i| {
                    let a = match i % 7 {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        2 => i64::MIN + i,
                        3 => -(i * 7_919 % 4_001),
                        _ => i * 104_729 % 3_001,
                    };
                    let e = if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 9 - 4)
                    };
                    vec![
                        Value::Int(a),
                        Value::Int(i % 3),
                        Value::Int(7),
                        Value::Int(-1 - i * 31 % 257),
                        e,
                    ]
                })
                .collect(),
        )
    }

    /// Column lists of widths 1–4 over [`radix_rel`]: each column alone
    /// and in prefixes that put the duplicates, the constant, the
    /// extremes and the `NULL`s at every position.
    const RADIX_COLS: [&[usize]; 12] = [
        &[0],
        &[1],
        &[2],
        &[3],
        &[4],
        &[1, 0],
        &[2, 3],
        &[4, 0],
        &[2, 1, 0],
        &[1, 4, 3],
        &[2, 1, 4, 0],
        &[0, 1, 2, 3],
    ];

    #[test]
    fn radix_order_equals_the_comparison_order_at_widths_one_to_four() {
        // Two full chunks and a short third, then builds too small to
        // fill a histogram.
        let many = 2 * arc_core::column::CHUNK_ROWS as i64 + 300;
        for n in [many, 0, 1, 2, 32] {
            let rel = radix_rel(n);
            for cols in RADIX_COLS {
                check_radix(&rel, cols);
            }
            // The NULLs of `E` drop out through its chunks' validity words.
            let chunks = rel.columns();
            let idx = OrderedIndex::build(&chunks, &[4, 0]);
            assert_eq!(idx.len() as i64, n - (n + 4) / 5);
            // Ties keep ascending row ids: `C` is one run in row order.
            let ids: Vec<u32> = (OrderedIndex::build(&chunks, &[2]).entries().into_iter())
                .map(|(_, id)| id)
                .collect();
            assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        }
        let chunks = radix_rel(many).columns();
        assert_eq!(chunks.chunks().len(), 3);
        assert_eq!(chunks.chunks()[2].len(), 300);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Arbitrary `i64` keys, at every width from one to four.
        #[test]
        fn radix_order_equals_the_comparison_order_for_any_keys(
            rows in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<i64>(), 4..5),
                0..300,
            ),
            narrow in 0u32..3,
        ) {
            // Narrowed keys collide, so ties are exercised too.
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|row| row.into_iter().map(|x| Value::Int(x >> (narrow * 30))).collect())
                .collect();
            let rel = Relation::from_rows("P", &["A", "B", "C", "D"], rows);
            for width in 1..=4 {
                let cols: Vec<usize> = (0..width).collect();
                let idx = OrderedIndex::build(&rel.columns(), &cols);
                proptest::prop_assert_eq!(idx.entries(), comparison_order(&rel, &cols));
            }
        }
    }

    /// One generated cell: what column `kind` makes of `(tag, n)`.
    fn cell(kind: u32, tag: u32, n: i64) -> Value {
        match (kind, tag) {
            // ints with the extremes
            (0, 0) => Value::Int(i64::MIN),
            (0, 1) => Value::Int(i64::MAX),
            // ints, integral floats, no-key cells
            (1, 0) => Value::Null,
            (1, 1) => Value::Float(n as f64),
            (1, 2) => Value::Float(f64::NAN),
            // numerics with fractions
            (2, 0) => Value::Float(n as f64 + 0.5),
            (2, 1) => Value::Float(n as f64),
            // every class
            (3, 0) => Value::Null,
            (3, 1) => Value::Bool(n > 0),
            (3, 2) => Value::str(format!("s{n}")),
            (3, 3) => Value::Float(n as f64 + 0.25),
            (3, 4) => Value::Float(f64::NAN),
            _ => Value::Int(n),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Whatever the columns hold, the built entry order is the old
        /// build's, and a probe keyed off the first row selects what the
        /// row path keeps.
        #[test]
        fn built_order_equals_the_old_sort(
            kinds in proptest::collection::vec(0u32..4, 3..4),
            cells in proptest::collection::vec(
                proptest::collection::vec((0u32..8, -4i64..5), 3..4),
                0..200,
            ),
            width in 1usize..4,
            first in 0usize..3,
        ) {
            let rows: Vec<Vec<Value>> = cells
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&kinds)
                        .map(|(&(tag, n), &kind)| cell(kind, tag, n))
                        .collect()
                })
                .collect();
            let cols: Vec<usize> = (0..width).map(|j| (first + j) % 3).collect();
            let rel = Relation::from_rows("P", &["A", "B", "C"], rows);
            let idx = OrderedIndex::build(&rel.columns(), &cols);
            proptest::prop_assert_eq!(idx.entries(), reference_entries(&rel.rows, &cols));

            let (&range_col, eq_cols) = cols.split_last().unwrap();
            let eq: Option<Vec<Key>> = rel
                .rows
                .get(0)
                .and_then(|row| Relation::key_for(row, eq_cols));
            if let Some(eq) = eq {
                let eq_ref: Vec<(usize, Value)> = eq_cols
                    .iter()
                    .map(|&c| (c, rel.rows[0][c].clone()))
                    .collect();
                let probe = IndexProbe {
                    eq,
                    lo: Some((CmpOp::Ge, Value::Int(-1))),
                    hi: Some((CmpOp::Lt, Value::Float(2.5))),
                    empty: false,
                };
                proptest::prop_assert_eq!(
                    idx.search(&probe),
                    row_reference(&rel, &eq_ref, range_col, &probe)
                );
            }
        }
    }
}
