//! Partitioned (morsel-driven) scope execution.
//!
//! When an engine runs with `ARC_THREADS > 1`, a scope whose plan has a
//! [partition axis](arc_plan::ScopePlan::partition_axis) — an outer
//! relation scan big enough to amortize the fork — executes in parallel:
//!
//! 1. the **coordinator** (the evaluating thread) holds the compiled
//!    scope, checks the prelude filters, and eagerly builds every hash
//!    index the plan probes (build sides are shared read-only via `Arc`
//!    — workers never build);
//! 2. the axis scan is split into [`Morsels`]; each morsel runs the full
//!    pipeline over its row range on a pool worker, with a **forked
//!    context**: one pointer to the evaluation's shared state (catalog,
//!    definitions, hasher, semi-join builds, sinks, guard), snapshots of
//!    the coordinator's hash-index, estimate and selection caches, and
//!    the coordinator's options with `threads = 1`, so parallelism never
//!    nests — plus a cloned outer environment;
//! 3. per-morsel outputs are gathered **in morsel order** and
//!    concatenated, which reproduces the sequential enumeration order
//!    exactly — so bag semantics needs no merge logic at all, set
//!    semantics deduplicates at the collection boundary as always, and
//!    grouped scopes fold the concatenation into their group map in the
//!    same order the sequential loop would have.
//!
//! Errors follow the same rule: the error reported is the first error of
//! the earliest morsel, which is the error the sequential loop would have
//! hit first (later morsels may do wasted work, never observable work —
//! enumeration is side-effect-free).

use super::env::Env;
use super::profile::ScopeTally;
use super::quantifier::{HashIndex, Src};
use super::scope::{Pipeline, Scope};
use super::{Ctx, QueryOptions, QueryShared};
use crate::error::Result;
use arc_exec::{run_morsels_guarded, Morsels, WorkerPool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything a pool worker needs to build its evaluation context: the
/// evaluation's [`QueryShared`] state, by reference, plus snapshots of the
/// coordinator's caches (hash indexes, distinct estimates, selections), so
/// workers start warm and build nothing the coordinator already has.
/// Compiled scopes are not snapshotted: the partitioned scope itself is
/// shared by reference, and scopes nested under it compile per worker,
/// against the global plan cache.
pub(crate) struct WorkerSeed<'a> {
    shared: &'a QueryShared<'a>,
    join_indexes: HashMap<(usize, Vec<usize>), Arc<HashIndex>>,
    distinct_estimates: HashMap<(usize, Vec<usize>), usize>,
    selections: HashMap<(usize, Vec<usize>), Arc<Vec<u32>>>,
}

impl<'a> WorkerSeed<'a> {
    /// The context of the worker on `lane`. Its `threads` is pinned to 1:
    /// nested scopes inside a worker run sequentially (the scope above
    /// them is already saturating the pool).
    fn ctx(&self, opts: QueryOptions, lane: usize) -> Ctx<'a> {
        let mut ctx = Ctx::new(QueryOptions { threads: 1, ..opts }, self.shared);
        ctx.lane = lane;
        *ctx.join_indexes.get_mut() = self.join_indexes.clone();
        *ctx.distinct_estimates.get_mut() = self.distinct_estimates.clone();
        *ctx.selections.get_mut() = self.selections.clone();
        ctx
    }
}

// Worker seeds are shared by reference across pool threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<WorkerSeed<'static>>();
};

/// Per-worker state for a partitioned scope run: the forked evaluation
/// context plus worker-lane profile accounting (morsels claimed, busy
/// wall time). The lane flushes to the shared sink on drop — i.e. when
/// the worker finishes its last morsel — so the profile's `workers`
/// vector reflects the actual work distribution.
struct WorkerState<'a> {
    ctx: Ctx<'a>,
    lane: usize,
    morsels: u64,
    busy_nanos: u64,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        if self.morsels > 0 {
            if let Some(sink) = &self.ctx.shared.profile {
                sink.record_lane(self.lane, self.morsels, self.busy_nanos);
            }
        }
    }
}

/// The per-environment collection callback [`Ctx::enumerate_collect`]
/// drives: append into the morsel's output vector, return `Ok(true)` to
/// keep enumerating. `Sync` because the parallel path shares it across
/// pool workers.
pub(crate) type EachFn<'f, 'a, T> =
    dyn Fn(&Ctx<'a>, &mut Env<'a>, &mut Vec<T>) -> Result<bool> + Sync + 'f;

impl<'a> Ctx<'a> {
    fn worker_seed(&self) -> WorkerSeed<'a> {
        WorkerSeed {
            shared: self.shared,
            join_indexes: self.join_indexes.borrow().clone(),
            distinct_estimates: self.distinct_estimates.borrow().clone(),
            selections: self.selections.borrow().clone(),
        }
    }

    /// Enumerate a scope, appending what `each` produces per surviving
    /// environment into `out` — in enumeration order. This is the entry
    /// point the output stages use instead of raw [`Ctx::run_scope`]:
    /// append-only collection is exactly what partitioned execution can
    /// scatter, so eligible scopes run parallel here, and everything
    /// else streams through the sequential loop straight into `out`
    /// with no intermediate buffering.
    ///
    /// `each` must not rely on early exit (it must always return
    /// `Ok(true)`; the parallel path enumerates every partition).
    pub(crate) fn enumerate_collect<T: Send>(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        each: &EachFn<'_, 'a, T>,
        out: &mut Vec<T>,
    ) -> Result<()> {
        if self.try_parallel(sc, env, each, out)? {
            return Ok(());
        }
        self.run_scope(sc, env, &mut |ctx, env| each(ctx, env, out))
    }

    /// The partitioned path; `Ok(false)` means "not eligible — run the
    /// sequential loop" (a sequential engine, an outer-join scope, no
    /// partition axis, or an axis scan too small for the configured
    /// morsel floor).
    pub(crate) fn try_parallel<T: Send>(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        each: &EachFn<'_, 'a, T>,
        out: &mut Vec<T>,
    ) -> Result<bool> {
        if self.opts.threads <= 1 {
            return Ok(false);
        }
        let Pipeline::Steps(pipeline) = &sc.pipeline else {
            return Ok(false);
        };
        let steps = &pipeline.steps;
        if pipeline.plan.partition_axis().is_none() {
            return Ok(false);
        }
        // The axis must be an un-probed relation scan at step 0 (the plan
        // guarantees the access kind; re-check the source against the
        // materialization so a mismatch degrades to sequential instead of
        // erroring).
        let total = match steps.first() {
            Some(first) if first.hash_plan.is_none() => match &first.source {
                Src::Rows(rel) => rel.rows.len(),
                _ => return Ok(false),
            },
            _ => return Ok(false),
        };
        if total < 2 {
            return Ok(false);
        }

        // Coordinator-side profile tally: the scope entry and the axis
        // scan's single start are counted here, exactly once — morsel
        // tallies deliberately skip both (see `Ctx::scan_partition`), so
        // a partitioned profile is count-identical to the sequential one.
        let scope_id = sc.id;
        let coord = self
            .shared
            .profile
            .as_ref()
            .map(|_| ScopeTally::new(scope_id, steps.len()));
        let start = (self.opts.trace && coord.is_some()).then(Instant::now);
        // Coordinator scope span: covers the prelude, the shared builds,
        // and the whole scatter/gather. Worker morsel spans nest under it
        // on the timeline (their lanes render as separate tracks).
        let scope_span = self.shared.spans.as_ref().and_then(|s| s.start(self.lane));

        // Prelude filters see only outer variables: evaluate once here,
        // not once per morsel.
        if !self.all_true(&pipeline.prelude, env)? {
            if let (Some(t), Some(sink)) = (&coord, &self.shared.profile) {
                t.flush(sink, true);
            }
            if let (Some(sink), Some(t0)) = (&self.shared.spans, scope_span) {
                sink.complete(
                    self.lane,
                    arc_trace::SpanKind::Scope,
                    arc_trace::OpId::scope(scope_id),
                    t0,
                );
            }
            return Ok(true); // scope is empty; nothing to scatter
        }
        // Build every probe's hash index — and every vectorized scan's
        // selection vector — up front so workers share them read-only
        // instead of racing to build duplicates.
        for ob in steps {
            if let (Src::Rows(rel), Some(hash_plan)) = (&ob.source, &ob.hash_plan) {
                let _ = self.join_index(hash_plan, rel);
            }
            if let (Src::Rows(rel), true) = (&ob.source, ob.uses_selection()) {
                let _ = self.scan_selection(rel, ob);
            }
        }

        let (seed, opts) = (self.worker_seed(), self.opts);
        // Workers see the frames of this scope under its own layout.
        let outer_env = env.with_layout(&sc.layout, |env| env.clone());
        // Chunk-aligned morsels: a morsel covers whole column chunks, so a
        // worker's selection walk never straddles a chunk another worker
        // owns. Ordered gather is untouched (invariant 9).
        let morsels = Morsels::aligned(total, self.opts.threads, arc_core::column::CHUNK_ROWS);
        // One forked context per participating worker (not per morsel —
        // forking clones the cache snapshots); each morsel still gets a
        // fresh clone of the outer environment because an error can
        // abandon pushed frames mid-scan.
        if let Some(t) = &coord {
            t.call(0); // the axis scan starts once, morsels notwithstanding
        }
        let lanes = AtomicUsize::new(0);
        let results = run_morsels_guarded(
            WorkerPool::global(),
            self.opts.threads,
            morsels,
            self.shared.guard.as_deref(),
            || {
                let lane = lanes.fetch_add(1, Ordering::Relaxed);
                let ctx = seed.ctx(opts, lane);
                if let Some(sink) = &ctx.shared.spans {
                    sink.touch(lane); // name the track even if every span drops
                }
                WorkerState {
                    ctx,
                    lane,
                    morsels: 0,
                    busy_nanos: 0,
                }
            },
            |st, _, range| {
                let mut wenv = outer_env.clone();
                let mut morsel_out = Vec::new();
                let tally = st
                    .ctx
                    .shared
                    .profile
                    .as_ref()
                    .map(|_| ScopeTally::new(scope_id, steps.len()));
                let mstart = (st.ctx.opts.trace && tally.is_some()).then(Instant::now);
                let mspan = st.ctx.shared.spans.as_ref().and_then(|s| s.start(st.lane));
                let r = st
                    .ctx
                    .scan_partition(
                        scope_id,
                        pipeline,
                        range,
                        &mut wenv,
                        tally.as_ref(),
                        &mut |c, e| each(c, e, &mut morsel_out),
                    )
                    .map(|()| morsel_out);
                if let (Some(sink), Some(t0)) = (&st.ctx.shared.spans, mspan) {
                    sink.complete(
                        st.lane,
                        arc_trace::SpanKind::Morsel,
                        arc_trace::OpId::step(scope_id, 0),
                        t0,
                    );
                }
                st.morsels += 1;
                if let Some(s) = mstart {
                    st.busy_nanos += s.elapsed().as_nanos() as u64;
                }
                if let (Some(t), Some(sink)) = (&tally, &st.ctx.shared.profile) {
                    t.flush(sink, false);
                }
                r
            },
        );
        if let (Some(t), Some(sink)) = (&coord, &self.shared.profile) {
            if let Some(s) = start {
                t.add_nanos(s.elapsed().as_nanos() as u64);
            }
            t.flush(sink, true);
        }
        if let (Some(sink), Some(t0)) = (&self.shared.spans, scope_span) {
            sink.complete(
                self.lane,
                arc_trace::SpanKind::Scope,
                arc_trace::OpId::scope(scope_id),
                t0,
            );
        }
        // Merge in morsel order: errors surface from the earliest morsel
        // (what the sequential loop would hit first), outputs concatenate
        // into the exact sequential emission order. A contained worker
        // panic becomes the structured `WorkerPanic` error (the pool
        // itself survives); a morsel skipped because the guard tripped
        // surfaces the trip's own error — never a partial result.
        let results = results.map_err(|p| crate::error::EvalError::WorkerPanic(p.message))?;
        for slot in results {
            match slot {
                Some(r) => out.extend(r?),
                None => {
                    let trip = self
                        .shared
                        .guard
                        .as_ref()
                        .and_then(|g| g.trip_cause())
                        .map(super::trip_error)
                        .unwrap_or_else(|| {
                            crate::error::EvalError::Internal(
                                "unclaimed morsel without a tripped guard".into(),
                            )
                        });
                    return Err(trip);
                }
            }
        }
        Ok(true)
    }
}
