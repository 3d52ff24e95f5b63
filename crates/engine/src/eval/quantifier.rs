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
//! Most candidates never get that far one at a time. A scan step's
//! candidates come out of its column kernels as a batch of ascending row
//! ids — the cached selection vector of its constant filters, narrowed
//! per entry by its per-entry kernels (see [`super::vector`]) — and a
//! hash probe's are its bucket. When such a step is the last one and
//! only a head of slots, constants and spine-assigned values follows it
//! (no leaf filter, no boolean subformula, no spine: a [`Sink::Gather`]),
//! the batch skips the per-row round trip altogether: the head's columns
//! are copied straight out of the rows into output tuples, in ascending
//! row order, with the profile counted and the guard checked a piece of
//! at most `CHUNK_ROWS` rows at a time. So for Eq 19's last step a row
//! costs a typed comparison and, if it survives, its output vector. A
//! grouping scope's last step does the same for its fold
//! ([`Sink::Fold`]): when no filter follows it and its keys and
//! aggregate arguments are slots or constants, its row ids — a batch,
//! or an unfiltered full scan's range — go straight to their groups.
//!
//! A last step that is a hash probe takes the step before it out of the
//! row-at-a-time loop as well, when that step hands its row ids on
//! unfiltered, the probe key is slots and constants and the sink gathers
//! or folds from the batch ([`Ordered::probes_last`]): the outer rows
//! probe a piece of `PROBE_PIECE` at a time — every key hashed where its
//! values are stored, every hash's first slot looked up (independent
//! lookups the CPU overlaps), then each bucket checked against its key
//! and handed to the gather or the fold with the outer row's frame
//! pushed. So a pk-join's outer row costs a hash, a slot lookup, a key
//! comparison and its output, with no bind, no `scalar` call and no
//! recursion. The row-at-a-time loop is left to shapes the batch does
//! not cover and to a build the budget denied.
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
//! lets [`super::parallel`] drive one pipeline from many worker threads,
//! each scanning its own morsel of the partition axis via
//! [`Ctx::scan_partition`].

use super::aggregate::Groups;
use super::builds::hasher;
use super::env::{Env, Frame, Layout};
use super::lateral::Lateral;
use super::output::{HeadPlan, Partial};
use super::scope::{GroupPlan, Pipeline, Scope, Steps};
use super::slots::{CFormula, CPred, CScalar};
use super::vector::EntryFilter;
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::external::AccessPattern;
use crate::metrics;
use crate::relation::{Relation, Rows, Tuple};
use arc_core::column::{ColumnSet, Mask, CHUNK_ROWS};
use arc_core::value::Value;
use arc_guard::seam;
use arc_trace::{OpId, Recorder, ScopeTally, SpanKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
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

/// Outer rows a batch probe ([`Ctx::probe_batch`]) hashes, looks up and
/// emits at a time, out of fixed buffers on the stack.
const PROBE_PIECE: usize = 128;

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
/// key (under the engine's one [`hasher`]) and identified by its
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
    pub(crate) fn build(rows: &Rows, key_cols: &[usize]) -> HashIndex {
        HashIndex::build_by(rows, key_cols, |row| Relation::join_hash(row, key_cols))
    }

    /// What `HASH_BUILD` reserves for a build over `rows` rows keyed on
    /// `width` columns: no less than the build's peak — the bucket table,
    /// the flat rows, and the per-row bucket numbers and first rows it
    /// gathers them from. The index stores no key, so the width only adds
    /// room to spare (`tests/alloc_guard.rs` measures the peak).
    pub(crate) fn build_bytes(rows: usize, width: usize) -> usize {
        rows * (48 + 24 * width)
    }

    /// [`HashIndex::build`] over an arbitrary key hash (`None`: the row
    /// has a `NULL`/`NaN` key component and is never indexed).
    pub(super) fn build_by(
        rows: &Rows,
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
        is_key: impl FnMut(u32) -> Result<bool>,
    ) -> Result<&[u32]> {
        self.bucket_from(hash, self.slot(hash), is_key)
    }

    /// The number of the bucket at address `at`: the first one a probe
    /// of hash `at` checks. A batch looks up all its hashes' slots before
    /// it walks a bucket, so those independent lookups overlap.
    pub(crate) fn slot(&self, at: u64) -> Option<u32> {
        self.slots.get(&at).copied()
    }

    /// [`HashIndex::bucket`], its first slot already looked up
    /// ([`HashIndex::slot`] of `hash`): the chain past it is followed only
    /// when that bucket's first row holds another key.
    pub(crate) fn bucket_from(
        &self,
        hash: u64,
        mut slot: Option<u32>,
        mut is_key: impl FnMut(u32) -> Result<bool>,
    ) -> Result<&[u32]> {
        let mut at = hash;
        while let Some(b) = slot {
            let rows = self.rows_of(b);
            if is_key(rows[0])? {
                return Ok(rows);
            }
            at = at.wrapping_add(NEXT_BUCKET);
            slot = self.slot(at);
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
/// set, the lateral memo, a grouping scope's group table and a semi-join
/// key set of more or fewer than one column are built on it.
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
    /// The constant filters of the step's kernel prefix, resolved to
    /// columns of the scanned relation (scan steps only; empty when the
    /// relation is tiny or no prefix classifies).
    pub(crate) vec_filters: Vec<super::vector::VecFilter>,
    /// The per-entry filters of the kernel prefix: their invariant sides
    /// are evaluated once per entry, then they narrow the step's
    /// candidates chunk by chunk (see [`super::vector`]).
    pub(crate) entry_filters: Vec<EntryFilter<'a>>,
    /// Addresses of the original predicates behind `vec_filters` — part
    /// of the selection's build key ([`Ordered::selection_key`]).
    pub(crate) vec_key: Vec<usize>,
    /// The index-range access plan, when the planner chose one for this
    /// step: the ordered index answers the consumed bound prefix by
    /// binary search and the result joins the selection-vector path
    /// (composing with `vec_filters` when both are present).
    pub(crate) index_plan: Option<super::index::IndexPlan>,
    /// The plan's index, memoized on first probe so the hot loop touches
    /// neither the evaluation's build store nor its heap-allocated key
    /// again — and so is a denial (`None`): the step asks the guard once
    /// per evaluation, and every later entry streams.
    /// A `OnceLock` (not `OnceCell`) so a compiled pipeline stays `Sync`
    /// and can be shared across worker threads.
    pub(crate) index: std::sync::OnceLock<Option<Arc<HashIndex>>>,
    /// The scan's selection vector (`vec_filters` applied to every
    /// chunk), memoized like `index` and shared across worker threads.
    pub(crate) selection: std::sync::OnceLock<Option<Arc<Vec<u32>>>>,
    /// The scanned relation's column chunks, which `entry_filters` read,
    /// admitted and memoized like `index`.
    pub(crate) columns: std::sync::OnceLock<Option<Arc<ColumnSet>>>,
    /// This step hands its row ids to the next, last step's hash probe
    /// a piece at a time ([`Ctx::probe_batch`]): neither step filters a
    /// row, nothing follows the probe, and its key is read where it is
    /// stored ([`Ordered::probed_in_place`]). Decided when the scope
    /// compiles; the sink decides the rest ([`Sink::probes_from_batch`]).
    pub(crate) probes_last: bool,
}

impl<'a> Ordered<'a> {
    /// Whether this step's candidates come out of a batch of row ids —
    /// a selection vector, per-entry kernels, or a hash bucket — that a
    /// gathered head can read in one pass when it is the last step and
    /// no row filter is left on it.
    pub(crate) fn batches(&self) -> bool {
        self.yields_ids()
            && (self.hash_plan.is_some() || self.uses_selection() || !self.entry_filters.is_empty())
    }

    /// Whether every candidate this step yields passes on as a row id of
    /// a relation, with no row filter left to run on it: a batching step
    /// ([`Ordered::batches`]) or an unfiltered full scan. A grouping
    /// scope folds such a last step's rows from the batch.
    pub(crate) fn yields_ids(&self) -> bool {
        matches!(self.source, Src::Rows(_)) && self.step_filters.is_empty()
    }

    /// Whether this step is a hash probe that yields row ids and whose
    /// probe key is all slots and constants, read where they are stored.
    pub(crate) fn probed_in_place(&self) -> bool {
        self.yields_ids()
            && self.hash_plan.as_ref().is_some_and(|p| {
                let stored =
                    |e: &CScalar<'_>| matches!(e, CScalar::Slot { .. } | CScalar::Const(_));
                p.probe_exprs.iter().all(stored)
            })
    }

    /// Whether this step scans through a selection vector — an
    /// index-range probe, a vectorized constant-filter prefix, or both
    /// composed. Used by the scan loops to pick the selection walk and
    /// by the parallel coordinator to pre-build selections for workers.
    pub(crate) fn uses_selection(&self) -> bool {
        self.index_plan.is_some() || !self.vec_filters.is_empty()
    }

    /// What the selection covers, the filter half of its build key: the
    /// consumed index filters' addresses (behind a `usize::MAX` marker no
    /// predicate address can collide with), then the vectorized prefix's
    /// addresses.
    ///
    /// Every address is pinned for the key's lifetime: the key dies with
    /// the evaluation's build store, and each predicate is a `&'a
    /// Predicate` into the AST the evaluation borrows. An address names a
    /// filter *with* its constant: two scans that differ only in a
    /// constant share a plan, whose constants are typed holes, but not a
    /// key, so each builds its own selection (`tests/selection_build.rs`).
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
    /// constant-filter selections — a denied chunk build degrades an
    /// index-range scan whole, since its index gathers from the chunks.
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

/// Where the binding loop delivers the environments that survive.
pub(crate) enum Sink<'s, 'a> {
    /// One callback per surviving environment.
    Each(&'s mut EnvFn<'s, 'a>),
    /// A scope that only emits a head of slots, constants and
    /// spine-assigned values, with no filter after its last step
    /// (`Body::Rows::gathers`): the last step copies the head's columns
    /// straight out of its batch of row ids — no frame pushed, no
    /// callback — and any environment that still reaches the leaf (a
    /// degraded build's row loop) is gathered the same way.
    Gather(Gathered<'s, 'a>),
    /// A grouping scope's members folding into its groups. When its
    /// [`GroupPlan`] folds from the batch, the last step hands its row ids
    /// — a batch, or a full scan's range — straight to
    /// [`Groups::fold_rows`]: no frame pushed, no callback, no `scalar`
    /// call or key built per member. Any environment that still reaches
    /// the leaf (another plan, a degraded build's row loop) folds through
    /// [`Groups::fold_env`] into the same groups.
    Fold(Folding<'s, 'a>),
}

/// A gathered head, the values the enclosing spine assigned, and the
/// rows out.
pub(crate) struct Gathered<'s, 'a> {
    pub(crate) head: &'s HeadPlan<'a>,
    pub(crate) partial: &'s Partial,
    pub(crate) out: &'s mut Rows,
}

/// A grouping scope's plan and boolean subformulas, where its frames
/// start, and the groups its members fold into.
pub(crate) struct Folding<'s, 'a> {
    pub(crate) plan: &'s GroupPlan<'a>,
    pub(crate) pre_bool: &'s [CFormula<'a>],
    pub(crate) base: usize,
    pub(crate) groups: &'s mut Groups<'a>,
}

impl<'s, 'a> Sink<'s, 'a> {
    /// Deliver one surviving environment; `Ok(false)` stops the loop.
    #[inline]
    pub(crate) fn env(&mut self, ctx: &Ctx<'a>, env: &mut Env<'a>) -> Result<bool> {
        match self {
            Sink::Each(cb) => cb(ctx, env),
            Sink::Gather(g) => {
                g.push_env(env);
                Ok(true)
            }
            Sink::Fold(f) => {
                if ctx.all_hold(f.pre_bool, env)? {
                    let (keys, aggs) = (&f.plan.keys, &f.plan.tests.aggs);
                    f.groups.fold_env(ctx, keys, aggs, env, f.base)?;
                }
                Ok(true)
            }
        }
    }

    /// Whether the sink takes a last step's row ids as a batch — it
    /// gathers, or folds from the batch — so the step before it may
    /// probe it a piece at a time ([`Ordered::probes_last`]).
    fn probes_from_batch(&self) -> bool {
        match self {
            Sink::Gather(_) => true,
            Sink::Fold(f) => f.plan.batched,
            Sink::Each(_) => false,
        }
    }

    /// The groups the last step `i` of `run` folds its row ids into, when
    /// the sink folds from the batch.
    fn folding(&mut self, run: &Run<'_, 'a>, i: usize) -> Option<&mut Folding<'s, 'a>> {
        match self {
            Sink::Fold(f) if f.plan.batched && i + 1 == run.pipeline.steps.len() => Some(f),
            _ => None,
        }
    }
}

impl<'a> Gathered<'_, 'a> {
    /// Gather the head of an environment that reached the leaf one row
    /// at a time (a degraded build's row loop) — off the hot path.
    #[cold]
    #[inline(never)]
    fn push_env(&mut self, env: &Env<'a>) {
        self.head
            .gather(self.partial, |f| env.frames[f].row(), self.out);
    }
}

/// Reused buffers of one per-entry kernel pass: the invariant values,
/// the chunk mask, the surviving row ids. Kept on [`Ctx`] between
/// entries (a pool, since a deeper step may run a pass of its own while
/// an outer one's ids are still being bound).
#[derive(Default)]
pub(crate) struct EntryScratch {
    vals: Vec<Value>,
    mask: Mask,
    ids: Vec<u32>,
}

/// What the recursive loop threads through every level unchanged.
struct Run<'r, 'a> {
    scope: usize,
    pipeline: &'r Steps<'a>,
    tally: Option<&'r ScopeTally>,
}

impl<'a> Ctx<'a> {
    /// Enumerate all binding environments of a compiled scope, applying
    /// the filter predicates, and deliver each survivor to `sink`.
    pub(crate) fn run_scope(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<()> {
        env.with_layout(&sc.layout, |env| match &sc.pipeline {
            Pipeline::Join(join) => self.run_join(join, env, sink),
            Pipeline::Steps(steps) => self.run_steps(sc.id, steps, env, sink),
        })
    }

    fn run_steps(
        &self,
        scope: usize,
        pipeline: &Steps<'a>,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<()> {
        // Scope seam: a local tally per enumeration call, keyed by the
        // scope's id — the identity `arc_plan::QuantRef::id` stamps on the
        // lowered plan, so `EXPLAIN ANALYZE` can join the actuals back to
        // the tree — and, timed, one clock pair for the
        // scope span and the scope's `nanos`. Opened before the prelude so
        // a prelude-empty call still counts as one scope invocation.
        let rec = self.shared.recorder.as_ref();
        let tally = rec.map(|_| ScopeTally::new(scope, pipeline.steps.len()));
        let t0 = rec.and_then(Recorder::start);
        let run = Run {
            scope,
            pipeline,
            tally: tally.as_ref(),
        };
        let res = match self.all_true(&pipeline.prelude, env) {
            // Prelude filters touch only outer variables (or constants):
            // one failing verdict empties the whole scope.
            Ok(false) => Ok(true),
            Ok(true) => self.enumerate_rec(&run, 0, env, sink),
            Err(e) => Err(e),
        };
        if let (Some(rec), Some(t)) = (rec, &tally) {
            t.add_nanos(rec.finish(self.lane, SpanKind::Scope, OpId::scope(scope), t0));
            t.flush(rec, true);
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

    /// Build (or fetch from the evaluation's build store) the hash index
    /// for a plan over a relation: correlated scopes and scopes compiled
    /// under other layouts reuse it. Inside a recursive component's solve,
    /// an index over a relation the catalog holds lives in the solve's
    /// store ([`QueryShared::base`](super::QueryShared::base)), so every
    /// round probes the one build.
    ///
    /// `None` means the memory budget denied the build — the caller
    /// degrades to a streaming probe over the base rows (identical
    /// matches, identical ascending row order) instead of failing. The
    /// compiled step remembers a denial for the rest of the evaluation
    /// ([`Ordered::index`]), so it asks the guard once; a solve's next
    /// round is a new evaluation and asks again.
    pub(crate) fn join_index(&self, plan: &HashPlan<'_>, rel: &Relation) -> Option<Arc<HashIndex>> {
        let cataloged = || {
            let held = self.shared.catalog.relation(&rel.name);
            held.is_some_and(|c| std::ptr::eq(c, rel))
        };
        let builds = match self.shared.base {
            Some(base) if cataloged() => base,
            _ => &self.shared.builds,
        };
        let key = super::builds::key(rel, plan.key_cols.clone());
        if let Some(index) = builds.get(|s| &mut s.hash, &key) {
            return Some(index);
        }
        let bytes = HashIndex::build_bytes(rel.len(), plan.key_cols.len());
        if !self.guard_admit(seam::HASH_BUILD, bytes) {
            return None;
        }
        let (index, nanos) = self.timed(|| Arc::new(HashIndex::build(&rel.rows, &plan.key_cols)));
        metrics::hash_builds().inc();
        if let Some(nanos) = nanos {
            metrics::hash_build_time().record_nanos(nanos);
        }
        Some(builds.publish(|s| &mut s.hash, key, index))
    }

    /// The selection vector of a selection-backed scan step (index-range
    /// probe and/or vectorized constant-filter prefix) — through the
    /// evaluation's build store, so correlated scopes that re-enter per
    /// outer row compute it once (the consumed filters are constant,
    /// hence outer-independent).
    /// `None` means the memory budget denied the build — the caller
    /// degrades to row-checking [`Ordered::row_survives`] during its
    /// scan instead of failing.
    pub(crate) fn scan_selection(&self, rel: &Relation, ob: &Ordered<'_>) -> Option<Arc<Vec<u32>>> {
        let builds = &self.shared.builds;
        let key = super::builds::key(rel, ob.selection_key());
        if let Some(sel) = builds.get(|s| &mut s.selections, &key) {
            metrics::selection_cache_hits().inc();
            return Some(sel);
        }
        // Admission: the selection vector itself, then what computing it
        // materializes — the ordered index for an index-range probe (and
        // the column chunks it gathers from, unless already encoded), the
        // column chunks for the vectorized kernels. A denied chunk build
        // only downgrades the kernels to the row loop; a denied
        // selection, ordered-index or index chunk build degrades the
        // whole scan.
        if !self.guard_admit(seam::SELECTION_BUILD, rel.len() * 8) {
            return None;
        }
        let columnar = if let Some(ip) = &ob.index_plan {
            let bytes = super::index::OrderedIndex::build_bytes(rel.len(), ip.cols.len());
            if !self.guard_admit(seam::ORDERED_BUILD, bytes)
                || !(rel.columns_cached() || self.guard_admit(seam::CHUNK_BUILD, rel.rows.bytes()))
            {
                return None;
            }
            true
        } else {
            self.guard_admit(seam::CHUNK_BUILD, rel.rows.bytes())
        };
        let (sel, nanos) = self.timed(|| {
            Arc::new(if columnar {
                ob.compute_selection(rel)
            } else {
                ob.compute_selection_rows(rel)
            })
        });
        metrics::selection_builds().inc();
        if let Some(nanos) = nanos {
            metrics::selection_build_time().record_nanos(nanos);
        }
        Some(builds.publish(|s| &mut s.selections, key, sel))
    }

    /// Run `f`, timing it when the record is timed: its result, and its
    /// nanoseconds (`None`, with no clock read, when untimed).
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Option<u64>) {
        let rec = self.shared.recorder.as_ref();
        let t0 = rec.and_then(Recorder::start);
        let out = f();
        (out, t0.and(rec).map(|r| r.since(t0)))
    }

    /// Step `i`'s memoized build — its hash index or its selection
    /// vector, or the guard's denial of it (`None`) — timing the first
    /// (and only) lookup, a build, a build-store hit or a denial, into
    /// the step's tally when the record is timed. The cold branch is
    /// taken once per compiled pipeline; after that this is a plain
    /// `OnceLock` load.
    pub(crate) fn step_build<'o, T>(
        &self,
        memo: &'o std::sync::OnceLock<Option<T>>,
        i: usize,
        tally: Option<&ScopeTally>,
        build: impl FnOnce() -> Option<T>,
    ) -> Option<&'o T> {
        if let Some(built) = memo.get() {
            return built.as_ref();
        }
        let (built, nanos) = self.timed(build);
        let built = memo.get_or_init(|| built);
        if let (Some(nanos), Some(t)) = (nanos, tally) {
            t.add_step_nanos(i, nanos);
        }
        built.as_ref()
    }

    /// Hash of the join key `exprs` produce in `env`, or `None` when a
    /// component is `NULL`/`NaN` (no row can match). Hashes the values
    /// where they are; no key is assembled.
    pub(crate) fn key_hash(&self, exprs: &[CScalar<'a>], env: &Env<'a>) -> Result<Option<u64>> {
        let mut h = hasher().build_hasher();
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
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        env.push(frame);
        let cont = self.step_into(run, i, env, sink)?;
        env.pop();
        Ok(cont)
    }

    /// Pushed-down filters of step `i`, then descend one level.
    fn step_into(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
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
        self.enumerate_rec(run, i + 1, env, sink)
    }

    /// Execute one morsel of a partitioned scope: enumerate rows
    /// `range` of the first step's scan (the plan's partition axis) and
    /// descend through the remaining steps exactly as the sequential
    /// loop would — through the same [`Ctx::scan_step`]. Concatenating
    /// the sinks' outputs over consecutive ranges reproduces the
    /// sequential enumeration order. `tally` is the morsel-local profile
    /// tally; note it never counts a step-0 *call* — the parallel
    /// coordinator counts the scope entry (and its axis scan's single
    /// start) exactly once, which is what keeps a partitioned profile
    /// count-identical to the sequential one.
    pub(crate) fn scan_partition(
        &self,
        sc: &Scope<'a>,
        range: Range<usize>,
        env: &mut Env<'a>,
        tally: Option<&ScopeTally>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<()> {
        // Guard check seam: every morsel begins with a full cooperative
        // check, so a tripped guard stops within one morsel of work.
        self.guard_at(seam::MORSEL)?;
        let Pipeline::Steps(pipeline) = &sc.pipeline else {
            return Err(EvalError::Internal(
                "partitioned scope without a step pipeline".into(),
            ));
        };
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
        let run = Run {
            scope: sc.id,
            pipeline,
            tally,
        };
        self.scan_step(&run, 0, rel, range, env, sink).map(|_| ())
    }

    /// The rows of `range` a scan step (one without a hash probe)
    /// yields: its selection vector (index range and/or constant
    /// kernels), narrowed by its per-entry kernels, handed on as one
    /// batch ([`Ctx::batch`]). When the budget denies the selection or
    /// the column chunks, the same predicates run row by row, in the
    /// same order. The sequential loop (`range`: every row) and each
    /// morsel of a partition run this one function.
    fn scan_step(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        rel: &'a Relation,
        range: Range<usize>,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        let ob = &run.pipeline.steps[i];
        // `Some(None)`: the budget denied the selection vector.
        let sel = ob.uses_selection().then(|| {
            let sel = self.step_build(&ob.selection, i, run.tally, || self.scan_selection(rel, ob));
            sel.map(|sel| {
                let from = sel.partition_point(|&r| (r as usize) < range.start);
                let to = sel.partition_point(|&r| (r as usize) < range.end);
                &sel[from..to]
            })
        });
        if ob.entry_filters.is_empty() {
            return match sel {
                Some(Some(ids)) => self.batch(run, i, rel, ids, env, sink),
                Some(None) => self.scan_rows(run, i, rel, range, true, &[], env, sink),
                None => {
                    if let Some(f) = sink.folding(run, i) {
                        self.fold(run, i, rel, range, env, f)?;
                        return Ok(true);
                    }
                    if ob.probes_last && sink.probes_from_batch() {
                        let mut rows = range;
                        return self.probe_batch(run, i, rel, &mut rows, env, sink);
                    }
                    for row in rel.rows.range(range) {
                        if !self.bind(run, i, Frame::Borrowed(row), env, sink)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                }
            };
        }
        let mut scratch = self.entry_scratch.borrow_mut().pop().unwrap_or_default();
        self.entry_values(&ob.entry_filters, env, &mut scratch.vals)?;
        let cols = match sel {
            Some(None) => None, // already degraded: no chunks to ask for
            _ => self.step_columns(ob, rel),
        };
        let out = match (sel, cols) {
            (Some(Some(ids)), None) => {
                let rows = ids.iter().map(|&r| r as usize);
                self.scan_rows(run, i, rel, rows, false, &scratch.vals, env, sink)
            }
            (sel, None) => {
                let recheck = sel.is_some();
                self.scan_rows(run, i, rel, range, recheck, &scratch.vals, env, sink)
            }
            (sel, Some(cols)) => {
                let EntryScratch { vals, mask, ids } = &mut scratch;
                ids.clear();
                super::vector::entry_selection(
                    cols,
                    &rel.rows,
                    range,
                    sel.flatten(),
                    &ob.entry_filters,
                    vals,
                    mask,
                    ids,
                );
                self.batch(run, i, rel, ids, env, sink)
            }
        };
        self.entry_scratch.borrow_mut().push(scratch);
        out
    }

    /// The row-at-a-time scan: bind each of `rows` that passes the
    /// step's per-entry filters (their invariant sides evaluated to
    /// `vals`) and — when `recheck`, because the budget denied the
    /// selection vector — what that vector encodes.
    #[allow(clippy::too_many_arguments)]
    fn scan_rows(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        rel: &'a Relation,
        rows: impl Iterator<Item = usize>,
        recheck: bool,
        vals: &[Value],
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        let ob = &run.pipeline.steps[i];
        for r in rows {
            let row = &rel.rows[r];
            let passes = (!recheck || ob.row_survives(row))
                && ob
                    .entry_filters
                    .iter()
                    .zip(vals.chunks(2))
                    .all(|(f, v)| f.passes(row, &v[0], &v[1]));
            if passes && !self.bind(run, i, Frame::Borrowed(row), env, sink)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Step `i`'s candidates, a batch of ascending row ids. When the sink
    /// gathers and this is the last step, the head's columns are copied
    /// out of those rows in one pass; otherwise each row is bound and
    /// descends as usual.
    fn batch(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        rel: &'a Relation,
        ids: &[u32],
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        if let Sink::Gather(g) = sink {
            if i + 1 == run.pipeline.steps.len() {
                self.gather(run, i, rel, ids, env, g)?;
                return Ok(true);
            }
        }
        if let Some(f) = sink.folding(run, i) {
            let rows = ids.iter().map(|&r| r as usize);
            self.fold(run, i, rel, rows, env, f)?;
            return Ok(true);
        }
        if run.pipeline.steps[i].probes_last && sink.probes_from_batch() {
            let mut rows = ids.iter().map(|&r| r as usize);
            return self.probe_batch(run, i, rel, &mut rows, env, sink);
        }
        for &r in ids {
            if !self.bind(run, i, Frame::Borrowed(&rel.rows[r as usize]), env, sink)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Gather the head of every row of `ids` — the last step's frame —
    /// into the sink's output, in order.
    fn gather(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        rel: &'a Relation,
        ids: &[u32],
        env: &Env<'a>,
        g: &mut Gathered<'_, 'a>,
    ) -> Result<()> {
        let top = env.len();
        let rows = ids.iter().map(|&r| r as usize);
        self.in_pieces(run, i, rows, |piece| {
            for r in piece {
                let row = &rel.rows[r];
                let at = |f: usize| match f == top {
                    true => row,
                    false => env.frames[f].row(),
                };
                g.head.gather(g.partial, at, g.out);
            }
        })
    }

    /// Step `i`'s candidates `rows`, which pass on unfiltered, probing the
    /// last step's hash index ([`Ordered::probes_last`]) a piece of
    /// `PROBE_PIECE` rows at a time instead of one bound row at a time:
    /// hash every probe key where its values are stored (a `NULL`/`NaN`
    /// component matches nothing), look up every hash's first slot, then
    /// check each bucket's first row against its key — following the
    /// chain only on a mismatch — and hand the bucket to the sink with
    /// the row's frame pushed. Outer rows and each bucket's rows stay
    /// ascending, so the output is the row path's, in its order.
    ///
    /// The profile counts what the row path does (each outer row a
    /// candidate and a pass of step `i` and a call of step `i + 1`, each
    /// bucket through [`Ctx::gather`] or [`Ctx::fold`]), a timed record
    /// gets one step span per call, and the guard ticks once per piece
    /// and per bucket. The index is asked for at the first key that is
    /// not `NULL`, as the row path asks; when the budget denies it, the
    /// rest streams through the row path. Out of line, and one copy for
    /// both callers (`rows` is a trait object): inlined into its callers,
    /// it slowed scans it never runs for, and a copy per caller's
    /// iterator raised every workload's peak resident set.
    #[inline(never)]
    fn probe_batch(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        outer: &'a Relation,
        rows: &mut dyn Iterator<Item = usize>,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        let last = &run.pipeline.steps[i + 1];
        let (Src::Rows(rel), Some(plan)) = (&last.source, &last.hash_plan) else {
            unreachable!("a batch probes a hash-probed relation")
        };
        let rel: &'a Relation = rel;
        let (top, rec) = (env.len(), self.shared.recorder.as_ref());
        let mut index: Option<&HashIndex> = None;
        let mut ids = [0usize; PROBE_PIECE];
        let mut hashes = [None::<u64>; PROBE_PIECE];
        let mut slots = [None::<u32>; PROBE_PIECE];
        loop {
            let mut n = 0;
            for r in (&mut *rows).take(PROBE_PIECE) {
                let row = &outer.rows[r];
                let mut h = hasher().build_hasher();
                let key = plan.probe_exprs.iter().try_for_each(|e| {
                    let k = super::aggregate::operand(e, top, row, env).join_key_ref()?;
                    k.hash(&mut h);
                    Some(())
                });
                (ids[n], hashes[n]) = (r, key.map(|()| h.finish()));
                n += 1;
            }
            if n == 0 {
                return Ok(true);
            }
            if index.is_none() && hashes[..n].iter().any(Option::is_some) {
                let built =
                    self.step_build(&last.index, i + 1, run.tally, || self.join_index(plan, rel));
                let Some(built) = built else {
                    // Denied: every row from this piece on takes the
                    // row path's streaming probe.
                    for r in ids[..n].iter().copied().chain(rows) {
                        if !self.bind(run, i, Frame::Borrowed(&outer.rows[r]), env, sink)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                };
                index = Some(built);
            }
            if let Some(index) = index {
                for (slot, hash) in slots[..n].iter_mut().zip(&hashes[..n]) {
                    *slot = hash.and_then(|h| index.slot(h));
                }
            }
            // Guard tick seam, a piece at a time.
            self.guard_rows(n)?;
            for k in 0..n {
                if let Some(t) = run.tally {
                    t.row(i);
                    t.pass(i);
                    t.call(i + 1);
                }
                let t0 = rec.and_then(|rec| rec.span_start(self.lane));
                let out = match (index, hashes[k], slots[k]) {
                    (Some(index), Some(hash), slot @ Some(_)) => {
                        let row = &outer.rows[ids[k]];
                        let bucket = index.bucket_from(hash, slot, |first| {
                            let first = &rel.rows[first as usize];
                            let mut key = plan.probe_exprs.iter().zip(&plan.key_cols);
                            Ok(key.all(|(e, &c)| {
                                let v = super::aggregate::operand(e, top, row, env);
                                v.join_key_ref() == first[c].join_key_ref()
                            }))
                        })?;
                        env.push(Frame::Borrowed(row));
                        let out = match sink {
                            Sink::Gather(g) => self.gather(run, i + 1, rel, bucket, env, g),
                            Sink::Fold(f) => {
                                let members = bucket.iter().map(|&r| r as usize);
                                self.fold(run, i + 1, rel, members, env, f)
                            }
                            Sink::Each(_) => unreachable!("an `Each` sink binds every row"),
                        };
                        env.pop();
                        out
                    }
                    _ => Ok(()), // a `NULL`/`NaN` key, or no bucket at its hash
                };
                if let Some(rec) = rec {
                    rec.finish(self.lane, SpanKind::Step, OpId::step(run.scope, i + 1), t0);
                }
                out?;
            }
        }
    }

    /// Fold `rows` — the last step's candidates — into the sink's groups,
    /// in order.
    fn fold(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        rel: &'a Relation,
        rows: impl ExactSizeIterator<Item = usize>,
        env: &Env<'a>,
        f: &mut Folding<'_, 'a>,
    ) -> Result<()> {
        self.in_pieces(run, i, rows, |piece| {
            f.groups.fold_rows(f.plan, env, f.base, rel, piece)
        })
    }

    /// Hand `rows` — step `i`'s candidates, consumed by a sink without
    /// being bound ([`Ctx::gather`], [`Ctx::fold`]) — to `each` a piece of
    /// at most `CHUNK_ROWS` rows at a time. Per piece it checks the guard
    /// and counts what binding the rows would have: each is a candidate
    /// of step `i` and passes (no filter is left on it).
    fn in_pieces<I: ExactSizeIterator<Item = usize>>(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        mut rows: I,
        mut each: impl FnMut(std::iter::Take<&mut I>),
    ) -> Result<()> {
        while rows.len() > 0 {
            let piece = rows.len().min(CHUNK_ROWS);
            // Guard tick seam, a piece at a time: a trip stops the sink
            // within one chunk of rows.
            self.guard_rows(piece)?;
            if let Some(t) = run.tally {
                t.gather(i, piece as u64);
            }
            each(rows.by_ref().take(piece));
        }
        Ok(())
    }

    /// Step `i`'s memoized column chunks, which its per-entry kernels
    /// read: admitted at the chunk-build seam on first use. `None` when
    /// the budget denies them — every entry then checks its per-entry
    /// filters row by row, and none asks the guard again.
    pub(crate) fn step_columns<'o>(
        &self,
        ob: &'o Ordered<'_>,
        rel: &Relation,
    ) -> Option<&'o Arc<ColumnSet>> {
        ob.columns
            .get_or_init(|| {
                let admitted = self.guard_admit(seam::CHUNK_BUILD, rel.rows.bytes());
                admitted.then(|| rel.columns())
            })
            .as_ref()
    }

    /// The invariant sides of a step's per-entry filters under `env`:
    /// each filter's offset (`NULL` when it has none), then its right
    /// side.
    fn entry_values(
        &self,
        filters: &[EntryFilter<'a>],
        env: &Env<'a>,
        vals: &mut Vec<Value>,
    ) -> Result<()> {
        vals.clear();
        for f in filters {
            vals.push(match &f.offset {
                Some((_, e)) => self.scalar(e, env)?.into_owned(),
                None => Value::Null,
            });
            vals.push(self.scalar(&f.rhs, env)?.into_owned());
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
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        match &self.shared.recorder {
            Some(rec) if i < run.pipeline.steps.len() => {
                let t0 = rec.span_start(self.lane);
                let res = self.enumerate_rec_inner(run, i, env, sink);
                rec.finish(self.lane, SpanKind::Step, OpId::step(run.scope, i), t0);
                res
            }
            _ => self.enumerate_rec_inner(run, i, env, sink),
        }
    }

    fn enumerate_rec_inner(
        &self,
        run: &Run<'_, 'a>,
        i: usize,
        env: &mut Env<'a>,
        sink: &mut Sink<'_, 'a>,
    ) -> Result<bool> {
        if i == run.pipeline.steps.len() {
            // All bound: apply the leaf filters, then the callback.
            if !self.all_true(&run.pipeline.leaf, env)? {
                return Ok(true);
            }
            if let Some(t) = run.tally {
                t.emit();
            }
            return sink.env(self, env);
        }
        if let Some(t) = run.tally {
            t.call(i);
        }
        let ob = &run.pipeline.steps[i];
        match &ob.source {
            Src::Rows(rel) => {
                let rel: &'a Relation = rel;
                let Some(plan) = &ob.hash_plan else {
                    return self.scan_step(run, i, rel, 0..rel.len(), env, sink);
                };
                let Some(hash) = self.key_hash(&plan.probe_exprs, env)? else {
                    return Ok(true); // NULL/NaN probe: no row can match
                };
                let index = self.step_build(&ob.index, i, run.tally, || self.join_index(plan, rel));
                let Some(index) = index else {
                    // Degraded streaming probe (budget denied the hash
                    // build): key-compare every base row — identical
                    // matches, identical ascending order.
                    for row in &rel.rows {
                        if self.row_has_probe_key(plan, row, env)?
                            && !self.bind(run, i, Frame::Borrowed(row), env, sink)?
                        {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                };
                let matches = index.bucket(hash, |first| {
                    self.row_has_probe_key(plan, &rel.rows[first as usize], env)
                })?;
                self.batch(run, i, rel, matches, env, sink)
            }
            Src::Nested(lat) => {
                // Lateral: the nested collection's rows for this
                // environment, out of the step's memo or evaluated.
                for row in self.lateral_rows(lat, env)?.iter() {
                    if !self.bind(run, i, Frame::Owned(row.to_vec()), env, sink)? {
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
                    if !self.bind(run, i, Frame::Owned(tuple), env, sink)? {
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
                if holds.is_true() && !self.bind(run, i, Frame::Owned(tuple), env, sink)? {
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
        self.enumerate_rec(&run, 0, env, &mut Sink::Each(cb))
            .map(|_| ())
    }
}

// The parallel executor shares compiled pipelines across worker threads;
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
        let index = HashIndex::build(&rel.rows, &cols);
        let mut want: HashMap<Vec<arc_core::value::Key>, Vec<u32>> = HashMap::new();
        for (i, row) in rel.rows.iter().enumerate() {
            if let Some(key) = Relation::key_for(row, &cols) {
                want.entry(key).or_default().push(i as u32);
            }
        }
        assert_eq!(index.len(), want.len());
        for rows in want.values() {
            let probe = &rel.rows[rows[0] as usize];
            let mut h = hasher().build_hasher();
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
        let rows = Rows::from_vecs(1, (0..6i64).map(|i| vec![Value::Int(i % 3)]).collect());
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

    /// A batch probe looks up every key's first slot before it walks any
    /// bucket (`Ctx::probe_batch`): when every key hashes to one address,
    /// that slot holds the first key's bucket, and each other key must be
    /// found by walking the chain past it.
    #[test]
    fn a_batch_probe_walks_the_chain_past_its_first_slot() {
        let rows = Rows::from_vecs(1, (0..12i64).map(|i| vec![Value::Int(i % 4)]).collect());
        let index = HashIndex::build_by(&rows, &[0], |_| Some(7));
        let probes = [3i64, 0, 9, 2, 1, 3];
        let slots = probes.map(|_| index.slot(7));
        let found: Vec<Vec<u32>> = probes
            .iter()
            .zip(slots)
            .map(|(&v, slot)| {
                let is_key = |first: u32| Ok(rows[first as usize][0] == Value::Int(v));
                index.bucket_from(7, slot, is_key).unwrap().to_vec()
            })
            .collect();
        let want: [&[u32]; 6] = [
            &[3, 7, 11],
            &[0, 4, 8],
            &[],
            &[2, 6, 10],
            &[1, 5, 9],
            &[3, 7, 11],
        ];
        assert_eq!(found, want);
        assert!(index.bucket_from(7, None, |_| Ok(true)).unwrap().is_empty());
    }
}
