//! Decorrelated boolean scopes: set-level semi/anti-join execution.
//!
//! A boolean quantifier scope (`∃` in a conjunct, `¬∃` under negation —
//! the `semi-join ∃` / `anti-join ¬∃` roles in `EXPLAIN`) used to be
//! answered by re-entering the binding loop once per outer environment:
//! O(outer × inner) in the worst case, with the plan cache amortizing
//! only the *planning*. When the scope's correlation with the outer
//! environment is a **pure equi-join**, or Eq 17's null guard (recognized by
//! [`arc_plan::plan_scope_boolean`]'s decorrelation pass), this module
//! instead:
//!
//! 1. evaluates the scope body **once** — the build pipeline, planned
//!    with the correlated filters masked and the outer environment
//!    hidden, so it is provably outer-row independent;
//! 2. keys a hash set on the scope-local sides of the correlated
//!    equalities (via [`Value::join_key`](arc_core::value::Value::join_key),
//!    the workspace's single source of
//!    equi-join key semantics: `NULL`/`NaN` components never enter the
//!    set, because no equality can ever hold on them);
//! 3. answers every outer row by evaluating the outer sides and probing —
//!    O(1) per row, after the outer-only prelude filters run.
//!
//! ## Three-valued logic
//!
//! The probe reproduces the reference semantics exactly, including the
//! `NOT IN`-shaped corner: an outer key containing `NULL` makes every
//! correlated equality evaluate to `Unknown`, so no inner environment
//! survives — `∃` is *false* and `¬∃` (applied by the caller's negation)
//! is *true*, which is precisely what the nested path computes row by
//! row. Build-side `NULL` keys likewise match no probe. Bag semantics
//! needs no extra care: a boolean scope contributes a truth value, never
//! multiplicity (the §2.7 semijoin-multiplicity rule lives at the
//! emission spine, unchanged).
//!
//! **Null-aware keys.** SQL's `NOT IN` correlates through Eq 17's null
//! guard `L = O ∨ L is null ∨ O is null` instead of `L = O`
//! ([`arc_plan::Decorrelation::null_aware`]). Each disjunct is `True` or
//! `False` for non-`NULL` operands, and `L is null` / `O is null` is
//! `True` wherever `L = O` is `Unknown`, so the guard is two-valued and
//! `∃` holds for an outer row iff
//! `non_empty ∧ (O is null ∨ has_null ∨ key(O) ∈ set)`, where `non_empty`
//! records that some build environment survived and `has_null` that
//! some surviving `L` was `NULL` (the build stops there: every probe
//! then answers `True`). `NaN` is not `NULL`: it satisfies neither `is null`
//! nor any equality, so on either side it is just a key that matches
//! nothing — exactly what `Cmp Eq` answers on the nested path. The
//! columnar build cannot tell a `NULL` from a `NaN`, so null-aware
//! builds run row at a time.
//!
//! ## Caching and sharing
//!
//! Built key sets live in [`SemiBuildCache`], keyed by the scope's
//! identity (its address in the AST, the same on every worker) paired
//! with the build plan's `Arc` address. The scope says *which* filters
//! the build ran — the plan cache keys plans by shape, so two scopes of
//! one evaluation that differ only in a constant are served the same
//! `Arc` — and the plan says under which access paths (one scope may
//! compile under several layouts). The cache itself is a mutex in the
//! evaluation's shared state, which every worker context the parallel
//! executor forks points at — all workers probe the *same* build instead
//! of each re-building.
//!
//! Both halves of the key are addresses, and both are pinned for the
//! cache's lifetime, which is one evaluation: the scope identity
//! (`QuantRef::id`) is the address of a binding slice — or, for a scope
//! without bindings, of its body — inside the AST the evaluation borrows
//! for `'a` (it cannot move or be freed while any `Ctx<'a>` lives), and
//! the plan half is pinned by the entry itself ([`SemiEntry`]). Two
//! scopes that differ only in a constant — two `NOT IN` subqueries among
//! them — have two identities, so two builds
//! (`sibling_scopes_differing_in_a_constant_build_separately` and
//! `sibling_not_in_scopes_differing_in_a_constant_build_separately` in
//! `tests/semijoin_equivalence.rs`).
//!
//! ## Fallback
//!
//! If the build errors (say, an unknown attribute in a build-side leaf
//! filter), the error is *not* reported from here: the scope is marked
//! non-decorrelatable for this evaluation and the nested path re-runs it
//! per outer row — surfacing the error exactly when (and only when) the
//! reference enumeration would, early exits included.

use super::env::Env;
use super::profile::ScopeTally;
use super::quantifier::Src;
use super::scope::{Pipeline, Scope, SemiKey, SemiKeys, SemiPlan, Steps};
use super::slots::CScalar;
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::metrics;
use arc_core::value::{Key, Truth};
use arc_plan::ScopePlan;
use arc_trace::{OpId, OpStats};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// The correlated-key set of one build: every key the scope body can
/// produce (NULL/NaN-free by construction). A one-column key — every
/// `NOT IN`, most `EXISTS` — is stored bare, so a distinct key costs no
/// allocation of its own.
#[derive(Debug, PartialEq)]
pub(crate) enum KeySet {
    One(HashSet<Key>),
    /// Any other width (`[]` is the keyless build's one key).
    Many(HashSet<Vec<Key>>),
}

impl KeySet {
    /// An empty set of `width`-component keys, with room for `capacity`
    /// (a keyless build holds at most its one empty key).
    pub(crate) fn new(width: usize, capacity: usize) -> Self {
        match width {
            0 => KeySet::Many(HashSet::new()),
            1 => KeySet::One(HashSet::with_capacity(capacity)),
            _ => KeySet::Many(HashSet::with_capacity(capacity)),
        }
    }

    /// Add `key`, copying it on its first occurrence only.
    pub(crate) fn insert(&mut self, key: &[Key]) {
        match self {
            KeySet::One(set) => {
                if !set.contains(&key[0]) {
                    set.insert(key[0].clone());
                }
            }
            KeySet::Many(set) => {
                if !set.contains(key) {
                    set.insert(key.to_vec());
                }
            }
        }
    }

    pub(crate) fn contains(&self, key: &[Key]) -> bool {
        match self {
            KeySet::One(set) => set.contains(&key[0]),
            KeySet::Many(set) => set.contains(key),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            KeySet::One(set) => set.len(),
            KeySet::Many(set) => set.len(),
        }
    }
}

/// What one build found: the key set, and the two facts a null-aware
/// probe reads beside it (see the module docs).
struct Built {
    keys: KeySet,
    /// Some build environment survived the build filters and the
    /// outer-free boolean subformulas.
    non_empty: bool,
    /// Some surviving environment's local key side was `NULL` (recorded
    /// by null-aware builds only).
    has_null: bool,
}

/// One cached build. The entry **pins** the plan whose address is half
/// of its key: worker-planned `Arc`s are otherwise retained only by that
/// worker's compiled scopes and the (overwritable, cap-clearable) global
/// cache, so without the pin an address could be freed mid-evaluation and
/// recycled by the same scope's plan under another layout — and the
/// probe would serve the wrong key set. Holding the `Arc` makes address
/// reuse impossible for as long as the entry lives.
pub(crate) struct SemiEntry {
    key: BuildKey,
    _plan: Arc<ScopePlan>,
    /// `None` records a failed build: the scope falls back to the nested
    /// path for the rest of the evaluation (which reproduces any real
    /// error lazily) instead of re-attempting the build per outer row.
    built: Option<Built>,
    /// The entry published before this one.
    next: Option<Arc<SemiEntry>>,
}

/// Build-once cache of decorrelated scopes: a list of entries, newest
/// first, one per [`BuildKey`] — an evaluation has a handful, so a walk
/// is as fast as a hash and costs one allocation per build. It lives in
/// the evaluation's shared state, so the coordinator and every worker
/// lock the same list, and an evaluation without a decorrelated scope
/// allocates nothing for it.
#[derive(Default)]
pub(crate) struct SemiBuildCache(Mutex<Head>);

/// *(scope identity, address of the — pinned, see [`SemiEntry`] — build
/// plan)*.
type BuildKey = (usize, usize);

type Head = Option<Arc<SemiEntry>>;

/// The entry for `key` in the list starting at `head`.
fn find(head: &Head, key: BuildKey) -> Option<&Arc<SemiEntry>> {
    let mut at = head.as_ref();
    while let Some(entry) = at {
        if entry.key == key {
            return Some(entry);
        }
        at = entry.next.as_ref();
    }
    None
}

impl SemiBuildCache {
    /// Lock the cache, **recovering** from a poisoned mutex (a worker
    /// panicked mid-insert): the poison is cleared — so later locks take
    /// the fast path again — and the list is emptied, because a build
    /// interrupted by a panic may have published nothing or anything.
    /// Build-once is an optimization; dropping entries costs a rebuild,
    /// never correctness.
    fn lock(&self) -> std::sync::MutexGuard<'_, Head> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut head = poisoned.into_inner();
            *head = None;
            head
        })
    }

    /// The entry for `key`, or `None` if no build has been published.
    fn get(&self, key: BuildKey) -> Option<Arc<SemiEntry>> {
        find(&self.lock(), key).cloned()
    }

    /// Publish a build for `key` — unless a racing worker already did,
    /// in which case its entry wins and this duplicate (identical by
    /// construction) is dropped.
    fn publish(
        &self,
        key: BuildKey,
        plan: &Arc<ScopePlan>,
        built: Option<Built>,
    ) -> Arc<SemiEntry> {
        let mut head = self.lock();
        if let Some(entry) = find(&head, key) {
            return entry.clone();
        }
        let entry = Arc::new(SemiEntry {
            key,
            _plan: plan.clone(),
            built,
            next: head.take(),
        });
        *head = Some(entry.clone());
        entry
    }
}

/// Total decorrelated-scope builds so far in this process — a read of
/// the `engine.semijoin.builds` registry counter (see
/// [`crate::metrics`]). `tests/semijoin_build.rs` asserts a correlated
/// scope builds once per evaluation — not once per outer row — the
/// execution-level companion of `arc_plan::planner_runs`.
pub fn semi_build_runs() -> u64 {
    metrics::semi_builds().get()
}

impl<'a> Ctx<'a> {
    /// Answer a decorrelated boolean scope through its build-once key
    /// set. `Ok(None)` means the build failed — the caller runs the
    /// nested loop, with identical semantics.
    pub(crate) fn semijoin_truth(
        &self,
        sc: &Scope<'a>,
        semi: &SemiPlan<'a>,
        env: &mut Env<'a>,
    ) -> Result<Option<Truth>> {
        let Pipeline::Steps(build) = &sc.pipeline else {
            return Err(EvalError::Internal(
                "decorrelated scope without a step pipeline".into(),
            ));
        };
        // The outer-only prelude, per outer row — exactly the filters the
        // nested path would have checked before its first step. One
        // failing verdict empties the scope: `∃` is false.
        if !self.all_true(&semi.probe_filters, env)? {
            return Ok(Some(Truth::False));
        }
        let entry = self.semi_build(sc, semi, build, env)?;
        let Some(built) = &entry.built else {
            return Ok(None); // failed build: nested path reproduces it
        };
        let hit = match &semi.keys {
            // Eq 17's guard: `non_empty ∧ (O is null ∨ has_null ∨ key(O) ∈
            // set)`, evaluating `O` only when the bits leave it open.
            SemiKeys::NullAware(key) => {
                built.non_empty
                    && (built.has_null || {
                        let o = self.scalar(&key.probe, env)?;
                        o.is_null()
                            || o.join_key()
                                .is_some_and(|k| built.keys.contains(std::slice::from_ref(&k)))
                    })
            }
            // Probe: evaluate the outer side of every correlated equality
            // into the context's scratch key. A NULL/NaN component can
            // satisfy no equality, so the scope is empty for this row.
            SemiKeys::Equi(keys) => {
                let mut key = self.probe_key.borrow_mut();
                let probes = keys.iter().map(|k| &k.probe);
                self.key_into(probes, env, &mut key)? && built.keys.contains(&key)
            }
        };
        metrics::semi_probes().inc();
        if hit {
            metrics::semi_hits().inc();
        }
        if let Some(sink) = &self.shared.profile {
            // Probe-side actuals on the semi-join pseudo-step: one call
            // per probed outer row, one output row per hit.
            sink.merge_op(
                OpId::semi(sc.id),
                OpStats {
                    calls: 1,
                    rows_out: hit as u64,
                    ..OpStats::default()
                },
            );
        }
        Ok(Some(Truth::from_bool(hit)))
    }

    /// Evaluate join-key expressions into `key` (cleared first); `false`
    /// when a component is NULL/NaN and can match nothing.
    fn key_into<'k>(
        &self,
        exprs: impl Iterator<Item = &'k CScalar<'a>>,
        env: &Env<'a>,
        key: &mut Vec<Key>,
    ) -> Result<bool>
    where
        'a: 'k,
    {
        key.clear();
        for e in exprs {
            match self.scalar(e, env)?.join_key() {
                Some(k) => key.push(k),
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// The build, through the shared cache: first caller (coordinator or
    /// any pool worker) builds, everyone else probes the same `Arc`. Two
    /// racing workers may both build; the first insert wins and the
    /// duplicate — identical by construction — is dropped.
    fn semi_build(
        &self,
        sc: &Scope<'a>,
        semi: &SemiPlan<'a>,
        build: &Steps<'a>,
        env: &mut Env<'a>,
    ) -> Result<Arc<SemiEntry>> {
        let cache_key = (sc.id, Arc::as_ptr(&build.plan) as usize);
        if let Some(entry) = self.shared.semi_builds.get(cache_key) {
            return Ok(entry);
        }
        // Admission: the key set, estimated from the largest source
        // relation. Denied → record a *failed* build, so the nested
        // per-outer-row path answers this scope for the rest of the
        // evaluation instead of re-attempting the build per outer row.
        if !self.guard_admit(
            arc_guard::seam::SEMI_BUILD,
            semi.est_rows * (48 + 24 * semi.keys.as_slice().len()),
        ) {
            return Ok(self
                .shared
                .semi_builds
                .publish(cache_key, &build.plan, None));
        }
        metrics::semi_builds().inc();
        let base = env.len();
        let start = self.opts.trace.then(std::time::Instant::now);
        let span = self.shared.spans.as_ref().and_then(|s| s.start(self.lane));
        let built = match env.with_layout(&sc.layout, |env| self.run_build(sc, semi, build, env)) {
            Ok(built) => Some(built),
            Err(_) => {
                // Abandoned enumeration may leave local frames pushed;
                // restore the environment before the nested path reuses it.
                env.truncate(base);
                None
            }
        };
        let build_nanos = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        if build_nanos > 0 {
            metrics::semi_build_time().record_nanos(build_nanos);
        }
        if let (Some(sink), Some(t0)) = (&self.shared.spans, span) {
            sink.complete(
                self.lane,
                arc_trace::SpanKind::SemiBuild,
                OpId::semi(sc.id),
                t0,
            );
        }
        if let Some(sink) = &self.shared.profile {
            // Build-side actuals on the semi-join pseudo-step: the key
            // set's cardinality (what `est=` on the semi-join line
            // estimated) and the build's wall time.
            sink.merge_op(
                OpId::semi(sc.id),
                OpStats {
                    rows_in: built.as_ref().map_or(0, |b| b.keys.len() as u64),
                    nanos: build_nanos,
                    ..OpStats::default()
                },
            );
        }
        Ok(self
            .shared
            .semi_builds
            .publish(cache_key, &build.plan, built))
    }

    /// Evaluate the build pipeline once, collecting the correlated-key
    /// set. The environment's outer frames are present but provably
    /// unread: every build-side expression resolves against scope locals
    /// (the decorrelation pass planned the build under `NoOuter`).
    fn run_build(
        &self,
        sc: &Scope<'a>,
        semi: &SemiPlan<'a>,
        build: &Steps<'a>,
        env: &mut Env<'a>,
    ) -> Result<Built> {
        // Sized by the estimate the admission charged for.
        let mut built = Built {
            keys: KeySet::new(semi.keys.as_slice().len(), semi.est_rows),
            non_empty: false,
            has_null: false,
        };
        // The build prelude holds constant-only filters (every
        // outer-touching filter went to the probe side): one failing
        // verdict empties the build.
        if !self.all_true(&build.prelude, env)? {
            return Ok(built);
        }
        // Columnar fast path: when the pipeline is a single un-probed
        // relation scan whose filters all vectorized, the key set builds
        // straight from the column chunks — no per-row environment push,
        // no per-row scalar dispatch, one buffer allocation per chunk.
        if let Some(built) = self.columnar_build(sc, semi, build) {
            return Ok(built);
        }
        // A wider row key is assembled in a reused scratch buffer; the set
        // copies a key only on its first occurrence. The build pipeline
        // tallies under the scope's own operator ids (`EXPLAIN ANALYZE`
        // renders them on the `build (once)` subtree); the columnar fast
        // path above bypasses the row pipeline and leaves those est-only.
        let tally = self
            .shared
            .profile
            .as_ref()
            .map(|_| ScopeTally::new(sc.id, build.steps.len()));
        let mut scratch: Vec<Key> = Vec::new();
        self.run_build_steps(sc.id, build, env, tally.as_ref(), &mut |ctx, env| {
            // Outer-free boolean subformulas run per build environment,
            // exactly where the nested path evaluates them.
            if !ctx.all_hold(&sc.pre_bool, env)? {
                return Ok(true);
            }
            built.non_empty = true;
            match semi.keys.as_slice() {
                // A keyless build is a pure non-emptiness check: the first
                // surviving environment decides, so stop early — matching
                // the nested path's existential short-circuit.
                [] => {
                    built.keys.insert(&[]);
                    return Ok(false);
                }
                [SemiKey { build: local, .. }] => {
                    let v = ctx.scalar(local, env)?;
                    match v.join_key() {
                        Some(k) => built.keys.insert(std::slice::from_ref(&k)),
                        // `L is null` holds for every outer row: the probe
                        // no longer reads the set, so stop.
                        None if v.is_null() && matches!(semi.keys, SemiKeys::NullAware(_)) => {
                            built.has_null = true;
                            return Ok(false);
                        }
                        None => {} // NULL/NaN: matches no probe
                    }
                }
                keys => {
                    if ctx.key_into(keys.iter().map(|k| &k.build), env, &mut scratch)? {
                        built.keys.insert(&scratch);
                    }
                }
            }
            Ok(true)
        })?;
        if let (Some(t), Some(sink)) = (&tally, &self.shared.profile) {
            t.flush(sink, true);
        }
        Ok(built)
    }

    /// The columnar build, when the pipeline shape permits: a single
    /// un-probed relation scan, every pushed-down filter vectorized (no
    /// residual step filters), no leaf filters, no outer-free boolean
    /// subformulas, every correlated-key expression a plain attribute
    /// of the scanned variable, and no null-aware key (the key buffers
    /// cannot tell `NULL` from `NaN`). Anything else returns `None` and
    /// the row-at-a-time build runs — which also keeps error behaviour
    /// untouched, because the shapes accepted here evaluate nothing that
    /// can error (the key expressions resolved to slots).
    fn columnar_build(
        &self,
        sc: &Scope<'a>,
        semi: &SemiPlan<'a>,
        build: &Steps<'a>,
    ) -> Option<Built> {
        let SemiKeys::Equi(keys) = &semi.keys else {
            return None;
        };
        let [ob] = build.steps.as_slice() else {
            return None;
        };
        if ob.hash_plan.is_some()
            || !ob.step_filters.is_empty()
            || !build.leaf.is_empty()
            || !sc.pre_bool.is_empty()
        {
            return None;
        }
        let Src::Rows(rel) = &ob.source else {
            return None;
        };
        if rel.len() < super::vector::VECTOR_MIN_ROWS {
            return None;
        }
        // The scanned variable's frame is the scope's first local one.
        let mut key_cols = Vec::with_capacity(keys.len());
        for k in keys {
            match &k.build {
                CScalar::Slot { frame, col } if *frame as usize == sc.base => {
                    key_cols.push(*col as usize)
                }
                _ => return None,
            }
        }
        let sel = match ob.uses_selection() {
            // A budget-denied selection bails the columnar fast path —
            // the row pipeline repeats the degradation decision per row.
            true => Some(self.scan_selection(rel, ob)?),
            false => None,
        };
        let non_empty = sel.as_ref().map_or(!rel.rows.is_empty(), |s| !s.is_empty());
        if key_cols.is_empty() {
            // Keyless build: a pure non-emptiness check over the
            // selection — the row path would stop at the first survivor.
            let mut keys = KeySet::new(0, 0);
            if non_empty {
                keys.insert(&[]);
            }
            return Some(Built {
                keys,
                non_empty,
                has_null: false,
            });
        }
        // Admission for the column chunks the key extraction reads;
        // denied → the row-at-a-time build runs instead.
        if !self.guard_admit(
            arc_guard::seam::CHUNK_BUILD,
            rel.len() * rel.schema.len().max(1) * 24,
        ) {
            return None;
        }
        Some(Built {
            keys: super::vector::build_key_set(
                &rel.columns(),
                &key_cols,
                sel.as_deref().map(Vec::as_slice),
            ),
            non_empty,
            has_null: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_semi_build_cache_recovers_empty() {
        let cache = SemiBuildCache::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.0.lock().unwrap();
                panic!("worker panicked mid-insert");
            })
            .join()
            .unwrap_err();
        });
        assert!(cache.0.is_poisoned());
        // Recovery empties the list (builds re-run — an optimization
        // loss, never a correctness one) and clears the poison bit.
        assert!(cache.lock().is_none());
        assert!(!cache.0.is_poisoned(), "recovery clears the poison");
    }
}
