//! The binding loop: executing a compiled scope's step pipeline.
//!
//! [`Ctx::run_scope`] drives a callback over every environment of a
//! quantifier scope that survives the filter predicates. Nothing about
//! the *shape* of the enumeration is decided here — binding order,
//! per-binding access path (scan vs. hash probe vs. index range vs.
//! external access pattern vs. abstract check vs. lateral) and where each
//! filter runs come from the [`arc_plan::ScopePlan`], and every expression
//! the loop evaluates arrives **slot-resolved** from [`super::scope`]
//! (names → `(frame, column)` once per scope, not once per row).
//!
//! ## What one candidate row costs
//!
//! Binding a candidate is pushing a [`Frame`] that *borrows* the row where
//! the relation stores it; a pushed-down filter is a couple of indexed
//! loads and a comparison; a hash probe hashes the probe values in place
//! (no key is built, no string copied) and verifies them against one
//! stored row of the matching bucket. A rejected candidate allocates
//! nothing; an accepted one allocates whatever the callback builds from it
//! (an output row, nothing at all for a grouped fold).
//!
//! The plan greedily orders joins by estimated cardinality, hash-probes
//! every reachable equi-join, and pushes filters down to the step where
//! their variables bind — results are bag-identical to the paper's
//! nested loops (`arc_analysis::oracle`).
//!
//! ## Parallel execution
//!
//! A compiled pipeline is thread-shareable ([`Ordered`] is `Sync`: hash
//! indexes live behind `Arc`, memoized through `OnceLock`), which is what
//! lets [`super::parallel`] drive one pipeline from many pool workers,
//! each scanning its own morsel of the partition axis via
//! [`Ctx::scan_partition`].

use super::env::{Env, Frame, Layout};
use super::lateral::Lateral;
use super::profile::ScopeTally;
use super::scope::{Pipeline, Scope, Steps};
use super::slots::{CFormula, CPred, CScalar};
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::external::AccessPattern;
use crate::metrics;
use crate::relation::{Relation, Tuple};
use arc_core::value::Value;
use arc_guard::seam;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Where one ordered binding draws its tuples from.
pub(crate) enum Src<'a> {
    /// A materialized relation (base, defined, or fixpoint result).
    Rows(&'a Relation),
    /// A correlated nested collection (§2.4): evaluated once per distinct
    /// value of the outer attributes it reads, per environment where its
    /// result is not a function of those alone (see [`super::lateral`]).
    Nested(Lateral<'a>),
    /// An external relation solved through an access pattern (§2.13.1).
    External {
        pattern: &'a AccessPattern,
        inputs: Vec<CScalar<'a>>,
    },
    /// An abstract relation checked in context (§2.13.2): the candidate
    /// tuple is bound under the definition's own head name and the
    /// definition body decides membership.
    Abstract {
        inputs: Vec<CScalar<'a>>,
        /// The layout the body runs under: the frames before this step,
        /// then the head frame.
        check_layout: Layout<'a>,
        body: CFormula<'a>,
    },
}

/// Equi-join access plan for one relation binding: which columns form the
/// hash key and which outer expressions produce the probe key.
pub(crate) struct HashPlan<'a> {
    /// Column indices (into the relation schema) of the join key.
    pub(crate) key_cols: Vec<usize>,
    /// Outer-side expressions, parallel to `key_cols`.
    pub(crate) probe_exprs: Vec<CScalar<'a>>,
}

/// Bucket-address stride for hash collisions between *different* join
/// keys (see [`HashIndex`]).
const NEXT_BUCKET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Pass-through hasher for maps keyed by an already-computed 64-bit hash.
#[derive(Default)]
pub(crate) struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("HashIndex buckets are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash index over a relation: one bucket per distinct join key,
/// holding that key's row indices in original order.
///
/// The index stores **no keys**. A bucket is addressed by the hash of its
/// key (under the evaluation's [`Ctx::hash_state`]) and identified by its
/// first row: builder and probe both compare the key columns of that row
/// against theirs, and on a mismatch — two different keys, one hash —
/// move on to address `hash + NEXT_BUCKET`. So neither building nor
/// probing copies a string or allocates a key vector, and equality is
/// [`Value::join_key_ref`]'s, the workspace's one equi-join rule
/// (`NULL`/`NaN` rows are never indexed).
///
/// Nor does it store a vector per bucket: every bucket's rows sit in one
/// flat array, so a build allocates the same few blocks whether the
/// relation has one distinct key or one per row.
pub(crate) struct HashIndex {
    /// Bucket number by address.
    slots: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    /// First one entry per bucket — where its rows end — then every
    /// bucket's rows, bucket after bucket (a bucket starts where the one
    /// before it ends).
    flat: Vec<u32>,
}

impl HashIndex {
    pub(crate) fn build(rows: &[Tuple], key_cols: &[usize], state: &RandomState) -> HashIndex {
        HashIndex::build_by(rows, key_cols, |row| {
            let mut h = state.build_hasher();
            for &c in key_cols {
                row[c].join_key_ref()?.hash(&mut h);
            }
            Some(h.finish())
        })
    }

    /// [`HashIndex::build`] over an arbitrary key hash (`None`: the row
    /// has a `NULL`/`NaN` key component and is never indexed).
    fn build_by(
        rows: &[Tuple],
        key_cols: &[usize],
        hash: impl Fn(&[Value]) -> Option<u64>,
    ) -> HashIndex {
        HashIndex::group(
            rows.len(),
            |i| hash(&rows[i]),
            |first, i| {
                let (first, row) = (&rows[first as usize], &rows[i]);
                key_cols
                    .iter()
                    .all(|&c| first[c].key_ref() == row[c].key_ref())
            },
        )
    }

    /// An index over rows known only by their key hashes (`None`: never
    /// indexed): rows whose keys collide share a bucket, which is enough
    /// for a caller that re-checks every candidate of a bucket anyway.
    pub(crate) fn from_hashes(hashes: &[Option<u64>]) -> HashIndex {
        HashIndex::group(hashes.len(), |i| hashes[i], |_, _| true)
    }

    /// Group rows `0..n` into buckets: row `i` joins the bucket `hash(i)`
    /// addresses whose first row `same_key(first, i)` accepts.
    fn group(
        n: usize,
        hash: impl Fn(usize) -> Option<u64>,
        same_key: impl Fn(u32, usize) -> bool,
    ) -> HashIndex {
        const UNINDEXED: u32 = u32::MAX;
        let mut slots: HashMap<u64, u32, BuildHasherDefault<Prehashed>> =
            HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
        // Pass 1: every row's bucket, buckets numbered by first row.
        let mut firsts: Vec<u32> = Vec::with_capacity(n);
        let mut bucket_of: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let Some(mut at) = hash(i) else {
                bucket_of.push(UNINDEXED);
                continue;
            };
            let bucket = loop {
                match slots.entry(at) {
                    Entry::Vacant(e) => {
                        e.insert(firsts.len() as u32);
                        firsts.push(i as u32);
                        break firsts.len() as u32 - 1;
                    }
                    Entry::Occupied(e) if same_key(firsts[*e.get() as usize], i) => break *e.get(),
                    Entry::Occupied(_) => at = at.wrapping_add(NEXT_BUCKET),
                }
            };
            bucket_of.push(bucket);
        }
        // Pass 2: a counting sort of the rows by bucket, which keeps each
        // bucket's rows ascending. `flat[b]` counts bucket `b`, then is
        // where it starts, then — once its rows are placed — where it ends.
        let buckets = firsts.len();
        let indexed = bucket_of.iter().filter(|&&b| b != UNINDEXED).count();
        let mut flat = vec![0u32; buckets + indexed];
        for &b in bucket_of.iter().filter(|&&b| b != UNINDEXED) {
            flat[b as usize] += 1;
        }
        let mut start = 0;
        for slot in &mut flat[..buckets] {
            start += std::mem::replace(slot, start);
        }
        for (i, &b) in bucket_of.iter().enumerate() {
            if b != UNINDEXED {
                let at = flat[b as usize];
                flat[b as usize] = at + 1;
                flat[buckets + at as usize] = i as u32;
            }
        }
        HashIndex { slots, flat }
    }

    /// The rows of bucket number `b`, ascending.
    fn rows_of(&self, b: u32) -> &[u32] {
        let (ends, rows) = self.flat.split_at(self.slots.len());
        let start = match b {
            0 => 0,
            _ => ends[b as usize - 1],
        };
        &rows[start as usize..ends[b as usize] as usize]
    }

    /// The rows of the bucket addressed by `hash` whose first row
    /// `is_key` accepts (ascending row order); empty when there is none.
    pub(crate) fn bucket(
        &self,
        hash: u64,
        mut is_key: impl FnMut(u32) -> Result<bool>,
    ) -> Result<&[u32]> {
        let mut at = hash;
        while let Some(&b) = self.slots.get(&at) {
            let rows = self.rows_of(b);
            if is_key(rows[0])? {
                return Ok(rows);
            }
            at = at.wrapping_add(NEXT_BUCKET);
        }
        Ok(&[])
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// An insert-as-you-go map from a key to a small id that, like
/// [`HashIndex`], stores **no keys**: a slot is addressed by the key's
/// hash and identified by what its id stands for — the caller's `is_key`
/// compares that against the key in hand — and a slot held by a different
/// key sends the search on to `hash + NEXT_BUCKET`. The fixpoint's seen
/// set and the lateral memo are built on it.
#[derive(Default)]
pub(crate) struct KeySlots {
    slots: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
}

impl KeySlots {
    /// Slots for `n` keys, allocated once.
    pub(crate) fn with_capacity(n: usize) -> KeySlots {
        KeySlots {
            slots: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
        }
    }

    /// The id of the key `hash` addresses and `is_key` accepts.
    pub(crate) fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut at = hash;
        while let Some(&id) = self.slots.get(&at) {
            if is_key(id) {
                return Some(id);
            }
            at = at.wrapping_add(NEXT_BUCKET);
        }
        None
    }

    /// Give the key the slot `id` unless it has one already; returns
    /// whether the key was new.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        id: u32,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> bool {
        let mut at = hash;
        loop {
            match self.slots.entry(at) {
                Entry::Vacant(e) => {
                    e.insert(id);
                    return true;
                }
                Entry::Occupied(e) => {
                    if is_key(*e.get()) {
                        return false;
                    }
                    at = at.wrapping_add(NEXT_BUCKET);
                }
            }
        }
    }
}

/// The per-query index cache living on [`Ctx`], keyed by relation address
/// plus key columns (see [`Ctx::join_index`] for why addresses are
/// stable). Indexes are `Arc`-shared: the parallel executor builds them
/// once on the coordinator and every worker context reuses them
/// read-only.
pub(crate) type JoinIndexCache = std::cell::RefCell<HashMap<(usize, Vec<usize>), Arc<HashIndex>>>;

/// One planned step: a binding with a resolved source, its access path,
/// and the filters pushed down to it — in execution order.
pub(crate) struct Ordered<'a> {
    pub(crate) source: Src<'a>,
    pub(crate) hash_plan: Option<HashPlan<'a>>,
    /// Filters evaluated as soon as this step's variable binds. When the
    /// step scans a relation, the leading run of constant filters is
    /// hoisted into `vec_filters` and only the residue remains here (see
    /// [`super::vector`] on why only a prefix is safe to hoist).
    pub(crate) step_filters: Vec<CPred<'a>>,
    /// The vectorizable constant-filter prefix, resolved to columns of
    /// the scanned relation (scan steps only; empty when the relation is
    /// tiny or no prefix classifies).
    pub(crate) vec_filters: Vec<super::vector::VecFilter>,
    /// Addresses of the original predicates behind `vec_filters` — part
    /// of the `Ctx` selection-cache key ([`Ordered::selection_key`]).
    pub(crate) vec_key: Vec<usize>,
    /// The index-range access plan, when the planner chose one for this
    /// step: the ordered index answers the consumed bound prefix by
    /// binary search and the result joins the selection-vector path
    /// (composing with `vec_filters` when both are present).
    pub(crate) index_plan: Option<super::index::IndexPlan>,
    /// The plan's index, memoized on first probe so the hot loop touches
    /// neither the [`Ctx`]-level cache nor its heap-allocated key again.
    /// A `OnceLock` (not `OnceCell`) so a compiled pipeline stays `Sync`
    /// and can be shared across pool workers.
    pub(crate) index: std::sync::OnceLock<Arc<HashIndex>>,
    /// The scan's selection vector (`vec_filters` applied to every
    /// chunk), memoized like `index` and shared across pool workers.
    pub(crate) selection: std::sync::OnceLock<Arc<Vec<u32>>>,
}

impl Ordered<'_> {
    /// Whether this step scans through a selection vector — an
    /// index-range probe, a vectorized constant-filter prefix, or both
    /// composed. Used by the scan loops to pick the selection walk and
    /// by the parallel coordinator to pre-build selections for workers.
    pub(crate) fn uses_selection(&self) -> bool {
        self.index_plan.is_some() || !self.vec_filters.is_empty()
    }

    /// The per-`Ctx` selection-cache key: the consumed index filters'
    /// addresses (behind a `usize::MAX` marker no predicate address can
    /// collide with), then the vectorized prefix's addresses.
    ///
    /// Every address is pinned for the key's lifetime. The cache lives
    /// in one `Ctx<'a>` (a worker's snapshot dies with the worker's
    /// context), and each predicate is a `&'a Predicate` into the AST the
    /// evaluation borrows, so none can move or be freed — and no other
    /// predicate can take its address — while the key exists. An address
    /// names a filter *with* its constant: two scans that differ only in
    /// a constant share a plan, whose constants are typed holes, but not
    /// a key, so each builds its own selection
    /// (`tests/selection_build.rs`). The relation half of the key
    /// ([`Ctx::scan_selection`]) is pinned the same way: catalog and
    /// materialized relations are borrowed for `'a`.
    fn selection_key(&self) -> Vec<usize> {
        match &self.index_plan {
            Some(ip) => {
                let mut key = Vec::with_capacity(1 + ip.key.len() + self.vec_key.len());
                key.push(usize::MAX);
                key.extend_from_slice(&ip.key);
                key.extend_from_slice(&self.vec_key);
                key
            }
            None => self.vec_key.clone(),
        }
    }

    /// Row-wise equivalent of everything this step's selection vector
    /// encodes — the **degraded** check when the memory budget denies
    /// the selection build: the consumed index-range bounds (if any)
    /// and the vectorized constant-filter prefix, applied per row.
    fn row_survives(&self, row: &[Value]) -> bool {
        self.index_plan
            .as_ref()
            .is_none_or(|ip| ip.row_matches(row))
            && (self.vec_filters.is_empty() || super::vector::row_passes(row, &self.vec_filters))
    }

    /// Compute the selection without touching the column chunks (the
    /// budget denied the chunk build): the same ascending row order,
    /// via the row-path kernels. Only reachable for pure
    /// constant-filter selections — the index-range path never needs
    /// chunks.
    fn compute_selection_rows(&self, rel: &Relation) -> Vec<u32> {
        (0..rel.rows.len() as u32)
            .filter(|&r| super::vector::row_passes(&rel.rows[r as usize], &self.vec_filters))
            .collect()
    }

    /// Compute this step's selection vector: the index-range probe when
    /// one is planned (binary search over the relation's cached ordered
    /// index, then the demoted constant filters row-checked over the
    /// survivors), otherwise the vectorized kernels over all chunks.
    /// Ascending row order either way.
    fn compute_selection(&self, rel: &Relation) -> Vec<u32> {
        let Some(ip) = &self.index_plan else {
            return super::vector::selection(&rel.columns(), &self.vec_filters);
        };
        let mut sel = rel.ordered_index(&ip.cols).search(&ip.probe);
        // Registry accounting for the index-range path: rows the bound
        // prefix's binary search survived, and how many of those the
        // demoted constant filters then dropped.
        metrics::index_range_rows().add(sel.len() as u64);
        if !self.vec_filters.is_empty() {
            let before = sel.len();
            sel.retain(|&r| super::vector::row_passes(&rel.rows[r as usize], &self.vec_filters));
            metrics::index_range_dropped().add((before - sel.len()) as u64);
        }
        sel
    }
}

/// The per-environment callback of [`Ctx::run_scope`]; returns `Ok(false)`
/// to stop early (existential short-circuit).
pub(crate) type EnvFn<'f, 'a> = dyn FnMut(&Ctx<'a>, &mut Env<'a>) -> Result<bool> + 'f;

/// What the recursive loop threads through every level unchanged.
struct Run<'r, 'a> {
    scope: usize,
    pipeline: &'r Steps<'a>,
    tally: Option<&'r ScopeTally>,
}

impl<'a> Ctx<'a> {
    /// Enumerate all binding environments of a compiled scope, applying
    /// the filter predicates, and invoke `cb` for each survivor.
    pub(crate) fn run_scope(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<()> {
        env.with_layout(&sc.layout, |env| match &sc.pipeline {
            Pipeline::Join(join) => self.run_join(join, env, cb),
            Pipeline::Steps(steps) => self.run_steps(sc.id, steps, env, cb),
        })
    }

    fn run_steps(
        &self,
        scope: usize,
        pipeline: &Steps<'a>,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<()> {
        // Span seam: one scope span per enumeration call. `start` reads no
        // clock when spans are off or the lane buffer is full.
        let span = self.shared.spans.as_ref().and_then(|s| s.start(self.lane));
        // Profiling: a local tally per enumeration call, keyed by the
        // binding-slice address — the identity `arc_plan::scope_identity`
        // stamps on the lowered plan, so `EXPLAIN ANALYZE` can join the
        // actuals back to the tree. Created before the prelude so a
        // prelude-empty call still counts as one scope invocation.
        let tally = self
            .shared
            .profile
            .as_ref()
            .map(|_| ScopeTally::new(scope, pipeline.steps.len()));
        let start = (self.opts.trace && tally.is_some()).then(std::time::Instant::now);
        let run = Run {
            scope,
            pipeline,
            tally: tally.as_ref(),
        };
        let res = match self.all_true(&pipeline.prelude, env) {
            // Prelude filters touch only outer variables (or constants):
            // one failing verdict empties the whole scope.
            Ok(false) => Ok(true),
            Ok(true) => self.enumerate_rec(&run, 0, env, cb),
            Err(e) => Err(e),
        };
        if let (Some(t), Some(sink)) = (&tally, &self.shared.profile) {
            if let Some(s) = start {
                t.add_nanos(s.elapsed().as_nanos() as u64);
            }
            t.flush(sink, true);
        }
        if let (Some(sink), Some(t0)) = (&self.shared.spans, span) {
            sink.complete(
                self.lane,
                arc_trace::SpanKind::Scope,
                arc_trace::OpId::scope(scope),
                t0,
            );
        }
        res.map(|_| ())
    }

    /// Whether every predicate holds (stops at the first that does not).
    pub(crate) fn all_true(&self, preds: &[CPred<'a>], env: &Env<'a>) -> Result<bool> {
        for p in preds {
            if !self.pred_truth(p, env)?.is_true() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Build (or fetch from the per-query cache) the hash index for a plan
    /// over a relation. The cache key is the relation's address plus the
    /// key columns: relations are borrowed from the catalog or the
    /// `defined` map, both immutable for the lifetime of the [`Ctx`], so
    /// addresses are stable — and correlated scopes (one `run_scope` call
    /// per outer environment) reuse the index instead of rebuilding it per
    /// outer row.
    /// `None` means the memory budget denied the build — the caller
    /// degrades to a streaming probe over the base rows (identical
    /// matches, identical ascending row order) instead of failing.
    pub(crate) fn join_index(&self, plan: &HashPlan<'_>, rel: &Relation) -> Option<Arc<HashIndex>> {
        let key = (rel as *const Relation as usize, plan.key_cols.clone());
        if let Some(index) = self.join_indexes.borrow().get(&key) {
            return Some(index.clone());
        }
        // Admission: the hash table (entry + bucket overhead per row).
        if !self.guard_admit(
            seam::HASH_BUILD,
            rel.len() * (48 + 24 * plan.key_cols.len()),
        ) {
            return None;
        }
        let start = self.opts.trace.then(std::time::Instant::now);
        let index = Arc::new(HashIndex::build(
            &rel.rows,
            &plan.key_cols,
            &self.shared.hash_state,
        ));
        metrics::hash_builds().inc();
        if let Some(s) = start {
            metrics::hash_build_time().record_nanos(s.elapsed().as_nanos() as u64);
        }
        self.join_indexes.borrow_mut().insert(key, index.clone());
        Some(index)
    }

    /// The selection vector of a selection-backed scan step (index-range
    /// probe and/or vectorized constant-filter prefix) — through the
    /// per-query cache, so correlated scopes that re-enter per outer row
    /// compute it once (the consumed filters are constant, hence
    /// outer-independent).
    /// `None` means the memory budget denied the build — the caller
    /// degrades to row-checking [`Ordered::row_survives`] during its
    /// scan instead of failing.
    pub(crate) fn scan_selection(&self, rel: &Relation, ob: &Ordered<'_>) -> Option<Arc<Vec<u32>>> {
        let key = (rel as *const Relation as usize, ob.selection_key());
        if let Some(sel) = self.selections.borrow().get(&key) {
            metrics::selection_cache_hits().inc();
            return Some(sel.clone());
        }
        // Admission: the selection vector itself, then what computing it
        // materializes — the ordered index for an index-range probe, the
        // column chunks for the vectorized kernels. A denied chunk build
        // only downgrades the computation to the row loop; a denied
        // selection or ordered-index build degrades the whole scan.
        if !self.guard_admit(seam::SELECTION_BUILD, rel.len() * 8) {
            return None;
        }
        let columnar = if let Some(ip) = &ob.index_plan {
            let bytes = super::index::OrderedIndex::build_bytes(rel.len(), ip.cols.len());
            if !self.guard_admit(seam::ORDERED_BUILD, bytes) {
                return None;
            }
            true
        } else {
            self.guard_admit(seam::CHUNK_BUILD, rel.len() * rel.schema.len().max(1) * 24)
        };
        let start = self.opts.trace.then(std::time::Instant::now);
        let sel = Arc::new(if columnar {
            ob.compute_selection(rel)
        } else {
            ob.compute_selection_rows(rel)
        });
        metrics::selection_builds().inc();
        if let Some(s) = start {
            metrics::selection_build_time().record_nanos(s.elapsed().as_nanos() as u64);
        }
        self.selections.borrow_mut().insert(key, sel.clone());
        Some(sel)
    }

    /// Step `i`'s memoized hash index, timing the first (and only) build
    /// into the step's profile tally when tracing. The cold branch is
    /// taken once per compiled pipeline; after that this is a plain
    /// `OnceLock` load.
    fn step_index<'o>(
        &self,
        ob: &'o Ordered<'_>,
        plan: &HashPlan<'_>,
        rel: &Relation,
        i: usize,
        tally: Option<&ScopeTally>,
    ) -> Option<&'o Arc<HashIndex>> {
        if let Some(index) = ob.index.get() {
            return Some(index);
        }
        let start = (self.opts.trace && tally.is_some()).then(std::time::Instant::now);
        let built = self.join_index(plan, rel)?;
        let index = ob.index.get_or_init(|| built);
        if let (Some(s), Some(t)) = (start, tally) {
            t.add_step_nanos(i, s.elapsed().as_nanos() as u64);
        }
        Some(index)
    }

    /// Step `i`'s memoized selection vector; same shape as
    /// [`Ctx::step_index`].
    fn step_selection<'o>(
        &self,
        ob: &'o Ordered<'_>,
        rel: &Relation,
        i: usize,
        tally: Option<&ScopeTally>,
    ) -> Option<&'o Arc<Vec<u32>>> {
        if let Some(sel) = ob.selection.get() {
            return Some(sel);
        }
        let start = (self.opts.trace && tally.is_some()).then(std::time::Instant::now);
        let built = self.scan_selection(rel, ob)?;
        let sel = ob.selection.get_or_init(|| built);
        if let (Some(s), Some(t)) = (start, tally) {
            t.add_step_nanos(i, s.elapsed().as_nanos() as u64);
        }
        Some(sel)
    }

    /// Hash of the join key `exprs` produce in `env`, or `None` when a
    /// component is `NULL`/`NaN` (no row can match). Hashes the values
    /// where they are; no key is assembled.
    pub(crate) fn key_hash(&self, exprs: &[CScalar<'a>], env: &Env<'a>) -> Result<Option<u64>> {
        let mut h = self.shared.hash_state.build_hasher();
        for e in exprs {
            match self.scalar(e, env)?.join_key_ref() {
                Some(k) => k.hash(&mut h),
                None => return Ok(None),
            }
        }
        Ok(Some(h.finish()))
    }

    /// Whether `row`'s key columns equal the probe key in `env`.
    fn row_has_probe_key(&self, plan: &HashPlan<'a>, row: &[Value], env: &Env<'a>) -> Result<bool> {
        for (e, &c) in plan.probe_exprs.iter().zip(&plan.key_cols) {
            if self.scalar(e, env)?.join_key_ref() != row[c].join_key_ref() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Bind one candidate row of step `i`: push its frame, run the step's
    /// pushed-down filters, descend one level, pop. Returns false when
    /// the enumeration was stopped early.
    #[inline]
    fn bind(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        frame: Frame<'a>,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<bool> {
        env.push(frame);
        let cont = self.step_into(run, i, env, cb)?;
        env.pop();
        Ok(cont)
    }

    /// Pushed-down filters of step `i`, then descend one level.
    fn step_into(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<bool> {
        if let Some(t) = run.tally {
            t.row(i);
        }
        // Guard tick seam: one amortized cooperative check per
        // environment entering a step.
        self.guard_step()?;
        if !self.all_true(&run.pipeline.steps[i].step_filters, env)? {
            return Ok(true); // this environment is filtered out
        }
        if let Some(t) = run.tally {
            t.pass(i);
        }
        self.enumerate_rec(run, i + 1, env, cb)
    }

    /// Execute one morsel of a partitioned scope: enumerate rows
    /// `range` of the first step's scan (the plan's partition axis) and
    /// descend through the remaining steps exactly as the sequential
    /// loop would. Concatenating the callbacks' outputs over consecutive
    /// ranges reproduces the sequential enumeration order. `tally` is
    /// the morsel-local profile tally; note it never counts a step-0
    /// *call* — the parallel coordinator counts the scope entry (and its
    /// axis scan's single start) exactly once, which is what keeps a
    /// partitioned profile count-identical to the sequential one.
    pub(crate) fn scan_partition(
        &self,
        scope: usize,
        pipeline: &Steps<'a>,
        range: std::ops::Range<usize>,
        env: &mut Env<'a>,
        tally: Option<&ScopeTally>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<()> {
        // Guard check seam: every morsel begins with a full cooperative
        // check, so a tripped guard stops within one morsel of work.
        self.guard_at(seam::MORSEL)?;
        let Some(first) = pipeline.steps.first() else {
            return Err(EvalError::Internal(
                "partitioned scope with no steps".into(),
            ));
        };
        let (Src::Rows(rel), None) = (&first.source, &first.hash_plan) else {
            return Err(EvalError::Internal(
                "partition axis is not a relation scan".into(),
            ));
        };
        let rel: &'a Relation = rel;
        let run = Run {
            scope,
            pipeline,
            tally,
        };
        if first.uses_selection() {
            // Selection-backed scan (index probe and/or vectorized
            // prefix): walk the (ascending) selection restricted to this
            // morsel's row range — concatenation over consecutive
            // ranges still reproduces the sequential order.
            let sel = match first.selection.get() {
                Some(sel) => Some(sel),
                None => self
                    .scan_selection(rel, first)
                    .map(|built| first.selection.get_or_init(|| built)),
            };
            let Some(sel) = sel else {
                // Degraded morsel scan (budget denied the selection):
                // row-check the same predicates over this range.
                for row in &rel.rows[range] {
                    if first.row_survives(row)
                        && !self.bind(&run, 0, Frame::Borrowed(row), env, cb)?
                    {
                        return Ok(());
                    }
                }
                return Ok(());
            };
            let start = sel.partition_point(|&r| (r as usize) < range.start);
            for &ridx in &sel[start..] {
                if ridx as usize >= range.end {
                    break;
                }
                let row = Frame::Borrowed(&rel.rows[ridx as usize]);
                if !self.bind(&run, 0, row, env, cb)? {
                    return Ok(());
                }
            }
            return Ok(());
        }
        for row in &rel.rows[range] {
            if !self.bind(&run, 0, Frame::Borrowed(row), env, cb)? {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Recursive plan execution; returns false when stopped early. Each
    /// level enumerates its access path — scan, lazily built hash index,
    /// external access pattern, abstract membership check, or lateral
    /// evaluation — applies its pushed-down filters, and recurses.
    ///
    /// This wrapper is the step span seam: one span per step invocation
    /// (= per upstream environment entering step `i`, matching the
    /// profile's `calls` semantics), covering the step's whole candidate
    /// loop including everything nested below it. Leaf entries
    /// (`i == steps.len()`) record nothing.
    fn enumerate_rec(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<bool> {
        match &self.shared.spans {
            Some(sink) if i < run.pipeline.steps.len() => {
                let span = sink.start(self.lane);
                let res = self.enumerate_rec_inner(run, i, env, cb);
                if let Some(t0) = span {
                    sink.complete(
                        self.lane,
                        arc_trace::SpanKind::Step,
                        arc_trace::OpId::step(run.scope, i),
                        t0,
                    );
                }
                res
            }
            _ => self.enumerate_rec_inner(run, i, env, cb),
        }
    }

    fn enumerate_rec_inner(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<bool> {
        if i == run.pipeline.steps.len() {
            // All bound: apply the leaf filters, then the callback.
            if !self.all_true(&run.pipeline.leaf, env)? {
                return Ok(true);
            }
            if let Some(t) = run.tally {
                t.emit();
            }
            return cb(self, env);
        }
        if let Some(t) = run.tally {
            t.call(i);
        }
        let ob = &run.pipeline.steps[i];
        match &ob.source {
            Src::Rows(rel) => {
                let rel: &'a Relation = rel;
                if let Some(plan) = &ob.hash_plan {
                    let Some(hash) = self.key_hash(&plan.probe_exprs, env)? else {
                        return Ok(true); // NULL/NaN probe: no row can match
                    };
                    let Some(index) = self.step_index(ob, plan, rel, i, run.tally) else {
                        // Degraded streaming probe (budget denied the
                        // hash build): key-compare every base row —
                        // identical matches, identical ascending order.
                        for row in &rel.rows {
                            if self.row_has_probe_key(plan, row, env)?
                                && !self.bind(run, i, Frame::Borrowed(row), env, cb)?
                            {
                                return Ok(false);
                            }
                        }
                        return Ok(true);
                    };
                    let matches = index.bucket(hash, |first| {
                        self.row_has_probe_key(plan, &rel.rows[first as usize], env)
                    })?;
                    for &ridx in matches {
                        let row = Frame::Borrowed(&rel.rows[ridx as usize]);
                        if !self.bind(run, i, row, env, cb)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                }
                if ob.uses_selection() {
                    // Selection-backed scan: the index probe and/or the
                    // constant-filter prefix already ran; enumerate the
                    // selection (in ascending row order, so emission
                    // order is identical to the row path) and row-check
                    // only the residue.
                    let Some(sel) = self.step_selection(ob, rel, i, run.tally) else {
                        // Degraded scan (budget denied the selection):
                        // row-check the same predicates in row order.
                        for row in &rel.rows {
                            if ob.row_survives(row)
                                && !self.bind(run, i, Frame::Borrowed(row), env, cb)?
                            {
                                return Ok(false);
                            }
                        }
                        return Ok(true);
                    };
                    for &ridx in sel.iter() {
                        let row = Frame::Borrowed(&rel.rows[ridx as usize]);
                        if !self.bind(run, i, row, env, cb)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                }
                for row in &rel.rows {
                    if !self.bind(run, i, Frame::Borrowed(row), env, cb)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Src::Nested(lat) => {
                // Lateral: the nested collection's rows for this
                // environment, out of the step's memo or evaluated.
                for row in self.lateral_rows(lat, env)? {
                    if !self.bind(run, i, Frame::Owned(row), env, cb)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Src::External { pattern, inputs } => {
                let Some(vals) = self.input_values(inputs, env)? else {
                    return Ok(true); // no tuples relate to NULL operands
                };
                for tuple in (pattern.complete)(&vals) {
                    if !self.bind(run, i, Frame::Owned(tuple), env, cb)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Src::Abstract {
                inputs,
                check_layout,
                body,
            } => {
                // Determine the full candidate tuple, then check membership
                // by evaluating the abstract definition's body with the
                // head fixed (§2.13.2).
                let Some(tuple) = self.input_values(inputs, env)? else {
                    return Ok(true);
                };
                env.push(Frame::Owned(tuple));
                let holds = env.with_layout(check_layout, |env| self.cformula_truth(body, env))?;
                let Some(Frame::Owned(tuple)) = env.frames.pop() else {
                    unreachable!("the candidate frame pushed above")
                };
                if holds.is_true() && !self.bind(run, i, Frame::Owned(tuple), env, cb)? {
                    return Ok(false);
                }
                Ok(true)
            }
        }
    }

    /// The operand values of an external/abstract step, or `None` when one
    /// is `NULL` (no tuple relates to a `NULL` operand).
    fn input_values(&self, inputs: &[CScalar<'a>], env: &Env<'a>) -> Result<Option<Tuple>> {
        let mut vals = Vec::with_capacity(inputs.len());
        for e in inputs {
            let v = self.scalar(e, env)?;
            if v.is_null() {
                return Ok(None);
            }
            vals.push(v.into_owned());
        }
        Ok(Some(vals))
    }

    /// Drive an already-compiled pipeline from its first step with no
    /// prelude, span or scope tally of its own: the semi-join build
    /// enters here, everything else goes through [`Ctx::run_scope`].
    pub(crate) fn run_build_steps(
        &self,
        scope: usize,
        pipeline: &Steps<'a>,
        env: &mut Env<'a>,
        tally: Option<&ScopeTally>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<()> {
        let run = Run {
            scope,
            pipeline,
            tally,
        };
        self.enumerate_rec(&run, 0, env, cb).map(|_| ())
    }
}

// The parallel executor shares compiled pipelines across pool workers;
// keep that a compile-time fact.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Ordered<'static>>();
    assert_sync::<Src<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_buckets_hold_one_key_each_in_row_order() {
        let rel = Relation::from_rows(
            "R",
            &["A", "B"],
            (0..2500i64)
                .map(|i| {
                    vec![
                        match i % 5 {
                            0 => Value::Null,
                            1 => Value::Float(f64::NAN),
                            2 => Value::Float((i % 50) as f64), // integral: joins with Int
                            3 => Value::str(format!("s{}", i % 7)),
                            _ => Value::Int(i % 50),
                        },
                        Value::Int(i % 3),
                    ]
                })
                .collect(),
        );
        let cols = [0usize, 1];
        let state = RandomState::new();
        let index = HashIndex::build(&rel.rows, &cols, &state);
        let mut want: HashMap<Vec<arc_core::value::Key>, Vec<u32>> = HashMap::new();
        for (i, row) in rel.rows.iter().enumerate() {
            if let Some(key) = Relation::key_for(row, &cols) {
                want.entry(key).or_default().push(i as u32);
            }
        }
        assert_eq!(index.len(), want.len());
        for rows in want.values() {
            let probe = &rel.rows[rows[0] as usize];
            let mut h = state.build_hasher();
            for &c in &cols {
                probe[c].join_key_ref().unwrap().hash(&mut h);
            }
            let got = index
                .bucket(h.finish(), |first| {
                    Ok(cols
                        .iter()
                        .all(|&c| rel.rows[first as usize][c].key_ref() == probe[c].key_ref()))
                })
                .unwrap();
            assert_eq!(got, rows.as_slice());
        }
    }

    #[test]
    fn colliding_keys_get_buckets_of_their_own() {
        // Every key hashes to one address: the buckets chain.
        let rows: Vec<Tuple> = (0..6i64).map(|i| vec![Value::Int(i % 3)]).collect();
        let index = HashIndex::build_by(&rows, &[0], |_| Some(7));
        assert_eq!(index.len(), 3);
        let find = |v: i64| {
            index
                .bucket(7, |first| Ok(rows[first as usize][0] == Value::Int(v)))
                .unwrap()
                .to_vec()
        };
        assert_eq!(find(0), vec![0, 3]);
        assert_eq!(find(1), vec![1, 4]);
        assert_eq!(find(2), vec![2, 5]);
        assert!(find(9).is_empty());
    }
}
