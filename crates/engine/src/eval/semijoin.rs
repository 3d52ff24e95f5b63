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
//! nothing — exactly what `Cmp Eq` answers on the nested path.
//!
//! ## One build path
//!
//! Every build runs the step pipeline it was planned as
//! (`Ctx::run_build_steps`): a filtered scan reads its cached selection
//! vector through the scan step, as any other scope does, and the build
//! tallies under the scope's own operator ids, so `EXPLAIN ANALYZE` shows
//! actuals on every `build (once)` subtree.
//!
//! ## Caching and sharing
//!
//! Built key sets live in the evaluation's build store (`eval::builds`),
//! which every worker context shares, keyed by the scope's identity (its
//! address in the AST, the same on every worker) paired with the build
//! plan's `Arc` address. The scope says *which* filters the build ran —
//! the plan cache keys plans by shape, so two scopes of one evaluation
//! that differ only in a constant are served the same `Arc` — and the
//! plan says under which access paths (one scope may compile under
//! several layouts). A compiled scope consults the store on its first
//! probe only and memoizes the entry ([`SemiPlan::entry`]): every later
//! outer row reads it without a lock.
//!
//! Both halves of the key are addresses, and both are pinned for the
//! store's lifetime, which is one evaluation: the scope identity
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

use super::builds::{hasher, WordState};
use super::env::Env;
use super::quantifier::KeySlots;
use super::scope::{Pipeline, Scope, SemiKey, SemiKeys, SemiPlan, Steps};
use super::slots::CScalar;
use super::{Ctx, QueryShared};
use crate::error::{EvalError, Result};
use crate::metrics;
use arc_core::value::{Key, Truth};
use arc_plan::ScopePlan;
use arc_trace::{OpId, OpStats, Recorder, ScopeTally, SpanKind};
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The correlated-key set of one build: every key the scope body can
/// produce (NULL/NaN-free by construction), hashed with the engine's one
/// `hasher()` like every other engine table. A one-column key — every
/// `NOT IN`, most `EXISTS` — is stored bare in a one-block set; any other
/// width keeps its keys end to end in one vector and finds them through
/// [`KeySlots`], as a grouping scope's groups do. Either way a distinct
/// key costs no allocation of its own.
pub(crate) enum KeySet {
    One(HashSet<Key, WordState>),
    /// Any other width (`[]` is the keyless build's one key): key `id`
    /// is `keys[id * width..][..width]`.
    Many {
        slots: KeySlots,
        keys: Vec<Key>,
        width: usize,
        len: usize,
    },
}

impl KeySet {
    /// An empty set of `width`-component keys, with room for `capacity`.
    pub(crate) fn new(width: usize, capacity: usize) -> Self {
        match width {
            1 => KeySet::One(HashSet::with_capacity_and_hasher(
                capacity,
                hasher().clone(),
            )),
            _ => KeySet::Many {
                slots: KeySlots::with_capacity(capacity),
                keys: Vec::with_capacity(capacity * width),
                width,
                len: 0,
            },
        }
    }

    /// What `SEMI_BUILD` reserves for a set of at most `keys` keys of
    /// `width` components: no less than the peak of a set sized for them
    /// (`tests/alloc_guard.rs` measures it). A set that grows past its
    /// starting capacity can hold more for the moment it rehashes.
    pub(crate) fn build_bytes(keys: usize, width: usize) -> usize {
        keys.saturating_mul(48 + 24 * width)
    }

    fn hash(key: &[Key]) -> u64 {
        let mut h = hasher().build_hasher();
        key.iter().for_each(|k| k.hash(&mut h));
        h.finish()
    }

    /// Add `key`, copying it on its first occurrence only.
    pub(crate) fn insert(&mut self, key: &[Key]) {
        match self {
            KeySet::One(set) => {
                if !set.contains(&key[0]) {
                    set.insert(key[0].clone());
                }
            }
            KeySet::Many {
                slots,
                keys,
                width,
                len,
            } => {
                let w = *width;
                let held = &*keys;
                if slots.insert(KeySet::hash(key), *len as u32, |id| {
                    held[id as usize * w..][..w] == *key
                }) {
                    keys.extend_from_slice(key);
                    *len += 1;
                }
            }
        }
    }

    pub(crate) fn contains(&self, key: &[Key]) -> bool {
        match self {
            KeySet::One(set) => set.contains(&key[0]),
            KeySet::Many {
                slots, keys, width, ..
            } => slots
                .find(KeySet::hash(key), |id| {
                    keys[id as usize * width..][..*width] == *key
                })
                .is_some(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            KeySet::One(set) => set.len(),
            KeySet::Many { len, .. } => *len,
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
    pub(crate) key: BuildKey,
    _plan: Arc<ScopePlan>,
    /// `None` records a failed build: the scope falls back to the nested
    /// path for the rest of the evaluation (which reproduces any real
    /// error lazily) instead of re-attempting the build per outer row.
    built: Option<Built>,
    /// Probes answered from this build, and how many hit — counted only
    /// when the evaluation records (relaxed adds, no lock), and folded
    /// into the record once, when the evaluation ends
    /// ([`QueryShared::record_probes`]).
    probes: AtomicU64,
    hits: AtomicU64,
    /// The entry published before this one.
    pub(crate) next: Option<Arc<SemiEntry>>,
}

/// *(scope identity, address of the — pinned, see [`SemiEntry`] — build
/// plan)*.
pub(crate) type BuildKey = (usize, usize);

impl QueryShared<'_> {
    /// Fold every build's probe-side actuals into the record — once per
    /// evaluation, not once per probed row: on the semi-join
    /// pseudo-operator, one call per probed outer row and one output row
    /// per hit.
    pub(crate) fn record_probes(&self) {
        let Some(rec) = &self.recorder else { return };
        self.builds.each_semi(|entry| {
            let probes = entry.probes.load(Ordering::Relaxed);
            if probes > 0 {
                rec.merge_op(
                    OpId::semi(entry.key.0),
                    OpStats {
                        calls: probes,
                        rows_out: entry.hits.load(Ordering::Relaxed),
                        ..OpStats::default()
                    },
                );
            }
        });
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
        let entry = match semi.entry.get() {
            Some(entry) => entry,
            None => {
                let entry = self.semi_build(sc, semi, build, env)?;
                semi.entry.get_or_init(|| entry)
            }
        };
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
        if self.shared.recorder.is_some() {
            entry.probes.fetch_add(1, Ordering::Relaxed);
            entry.hits.fetch_add(hit as u64, Ordering::Relaxed);
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

    /// The build, through the evaluation's store: the first caller
    /// (coordinator or any worker thread) builds, everyone else probes the
    /// same `Arc`. Two racing workers may both build; the first publish
    /// wins and the duplicate — identical by construction — is dropped.
    fn semi_build(
        &self,
        sc: &Scope<'a>,
        semi: &SemiPlan<'a>,
        build: &Steps<'a>,
        env: &mut Env<'a>,
    ) -> Result<Arc<SemiEntry>> {
        let key = (sc.id, Arc::as_ptr(&build.plan) as usize);
        if let Some(entry) = self.shared.builds.semi(key) {
            return Ok(entry);
        }
        // Admission: the key set, at the most keys the build can hold.
        // Denied → record a *failed* build, so the nested per-outer-row
        // path answers this scope for the rest of the evaluation instead
        // of re-attempting the build per outer row.
        if !self.guard_admit(
            arc_guard::seam::SEMI_BUILD,
            KeySet::build_bytes(semi.max_keys, semi.keys.as_slice().len()),
        ) {
            return Ok(self.publish_semi(key, &build.plan, None));
        }
        metrics::semi_builds().inc();
        let base = env.len();
        let rec = self.shared.recorder.as_ref();
        let t0 = rec.and_then(Recorder::start);
        let built = match env.with_layout(&sc.layout, |env| self.run_build(sc, semi, build, env)) {
            Ok(built) => Some(built),
            Err(_) => {
                // Abandoned enumeration may leave local frames pushed;
                // restore the environment before the nested path reuses it.
                env.truncate(base);
                None
            }
        };
        if let Some(rec) = rec {
            // One clock pair: the build's span, its registry histogram
            // sample, and the build-side actuals on the semi-join
            // pseudo-step — the key set's cardinality (what `est=` on the
            // semi-join line estimated) and the build's wall time.
            let nanos = rec.finish(self.lane, SpanKind::SemiBuild, OpId::semi(sc.id), t0);
            if t0.is_some() {
                metrics::semi_build_time().record_nanos(nanos);
            }
            rec.merge_op(
                OpId::semi(sc.id),
                OpStats {
                    rows_in: built.as_ref().map_or(0, |b| b.keys.len() as u64),
                    nanos,
                    ..OpStats::default()
                },
            );
        }
        Ok(self.publish_semi(key, &build.plan, built))
    }

    /// Publish a build (`None`: a failed one) in the evaluation's store.
    fn publish_semi(
        &self,
        key: BuildKey,
        plan: &Arc<ScopePlan>,
        built: Option<Built>,
    ) -> Arc<SemiEntry> {
        self.shared.builds.publish_semi(key, |next| SemiEntry {
            key,
            _plan: plan.clone(),
            built,
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            next,
        })
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
        let mut built = Built {
            keys: KeySet::new(semi.keys.as_slice().len(), semi.capacity),
            non_empty: false,
            has_null: false,
        };
        // The build prelude holds constant-only filters (every
        // outer-touching filter went to the probe side): one failing
        // verdict empties the build.
        if !self.all_true(&build.prelude, env)? {
            return Ok(built);
        }
        // A wider key is assembled in a reused scratch buffer; the set
        // copies a key only on its first occurrence. The build pipeline
        // tallies under the scope's own operator ids (`EXPLAIN ANALYZE`
        // renders them on the `build (once)` subtree).
        let rec = self.shared.recorder.as_ref();
        let tally = rec.map(|_| ScopeTally::new(sc.id, build.steps.len()));
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
        if let (Some(t), Some(rec)) = (&tally, rec) {
            t.flush(rec, true);
        }
        Ok(built)
    }
}
