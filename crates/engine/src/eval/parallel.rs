//! Partitioned (morsel-driven) scope execution.
//!
//! When an engine runs with `ARC_THREADS > 1`, a scope that emits rows
//! and whose plan has a
//! [partition axis](arc_plan::ScopePlan::partition_axis) — an outer
//! relation scan big enough to amortize the fork — executes in parallel:
//!
//! 1. the **coordinator** (the evaluating thread) holds the compiled
//!    scope, checks the prelude filters, and eagerly builds every hash
//!    index the plan probes (build sides are shared read-only via `Arc`
//!    — workers never build);
//! 2. the axis scan is split into [`Morsels`] of whole column chunks and
//!    handed to the morsel runner ([`crate::morsel`]): the coordinator
//!    and up to `threads − 1` helpers — scoped threads
//!    (`std::thread::scope`), spawned for this scatter and joined before
//!    it returns, so they borrow the query's state and none outlives it —
//!    claim morsels from a shared counter and run the full pipeline over
//!    each one's row range with a **forked context**: one pointer to the
//!    evaluation's shared state (catalog, definitions, build store,
//!    recorder, guard) — so a worker finds every build the coordinator or
//!    another worker made — and the coordinator's options with
//!    `threads = 1`, so parallelism never nests — plus a cloned outer
//!    environment;
//! 3. per-morsel rows are appended **in morsel order**, which reproduces
//!    the sequential emission order exactly — so bag semantics needs no
//!    merge logic at all, and set semantics deduplicates at the
//!    collection boundary as always.
//!
//! Only row-emitting scopes scatter. A grouping scope folds its members
//! sequentially at any thread count (`Sink::Fold`), so even
//! order-sensitive aggregates (float sums) fold in enumeration order; a
//! boolean scope stops at its first survivor.
//!
//! Errors follow the same rule: the error reported is the first error of
//! the earliest morsel, which is the error the sequential loop would have
//! hit first (later morsels may do wasted work, never observable work —
//! enumeration is side-effect-free). A panicking morsel is caught on its
//! thread and surfaces as `EvalError::WorkerPanic` once every thread of
//! the scatter has joined.

use super::env::Env;
use super::quantifier::{Sink, Src};
use super::scope::{Body, Pipeline, Scope};
use super::{Ctx, QueryOptions};
use crate::error::{EvalError, Result};
use crate::morsel::{run_morsels_guarded, Morsels};
use crate::relation::Rows;
use arc_trace::{OpId, Recorder, ScopeTally, SpanKind};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-worker state for a partitioned scope run: the forked evaluation
/// context plus worker-lane accounting (morsels claimed, busy wall time).
/// The lane flushes to the record on drop — i.e. when the worker
/// finishes its last morsel — so the profile's `workers` vector reflects
/// the actual work distribution.
struct WorkerState<'a> {
    ctx: Ctx<'a>,
    lane: usize,
    morsels: u64,
    busy_nanos: u64,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        if let (Some(rec), true) = (&self.ctx.shared.recorder, self.morsels > 0) {
            rec.record_lane(self.lane, self.morsels, self.busy_nanos);
        }
    }
}

/// The per-environment collection callback [`Ctx::enumerate_collect`]
/// drives: append into the morsel's rows, return `Ok(true)` to keep
/// enumerating. `Sync` because the parallel path shares it across
/// worker threads.
pub(crate) type EachFn<'f, 'a> =
    dyn Fn(&Ctx<'a>, &mut Env<'a>, &mut Rows) -> Result<bool> + Sync + 'f;

/// One morsel of a partitioned scope: [`Ctx::scan_partition`] over a
/// row range of the axis, from a worker's context and environment, with
/// a morsel-local tally, appending to the morsel's rows.
pub(crate) type MorselFn<'f, 'a> = dyn Fn(&Ctx<'a>, Range<usize>, &mut Env<'a>, Option<&ScopeTally>, &mut Rows) -> Result<()>
    + Sync
    + 'f;

impl<'a> Ctx<'a> {
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
    pub(crate) fn enumerate_collect(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        each: &EachFn<'_, 'a>,
        out: &mut Rows,
    ) -> Result<()> {
        let morsel: &MorselFn<'_, 'a> = &|ctx, range, env, tally, out| {
            let mut each = |ctx: &Ctx<'a>, env: &mut Env<'a>| each(ctx, env, out);
            ctx.scan_partition(sc, range, env, tally, &mut Sink::Each(&mut each))
        };
        if self.try_parallel(sc, env, morsel, out)? {
            return Ok(());
        }
        self.run_scope(
            sc,
            env,
            &mut Sink::Each(&mut |ctx, env| each(ctx, env, out)),
        )
    }

    /// The partitioned path, each morsel run by `morsel`; `Ok(false)`
    /// means "not eligible — run the sequential loop" (a sequential
    /// engine, an outer-join scope, no partition axis — a scope that
    /// does not emit rows has none — or an axis scan of fewer than two
    /// rows).
    pub(crate) fn try_parallel(
        &self,
        sc: &Scope<'a>,
        env: &mut Env<'a>,
        morsel: &MorselFn<'_, 'a>,
        out: &mut Rows,
    ) -> Result<bool> {
        if self.opts.threads <= 1 {
            return Ok(false);
        }
        let Pipeline::Steps(pipeline) = &sc.pipeline else {
            return Ok(false);
        };
        let steps = &pipeline.steps;
        let emits_rows = matches!(sc.body, Body::Rows { .. });
        if pipeline.plan.partition_axis(emits_rows).is_none() {
            return Ok(false);
        }
        // The axis must be an un-probed relation scan at step 0 (the plan
        // guarantees the access kind; re-check the source against the
        // materialization so a mismatch degrades to sequential instead of
        // erroring).
        let total = match steps.first() {
            Some(first) if first.hash_plan.is_none() => match &first.source {
                Src::Rows(rel) => rel.len(),
                _ => return Ok(false),
            },
            _ => return Ok(false),
        };
        if total < 2 {
            return Ok(false);
        }

        // Coordinator scope seam: the scope entry and the axis scan's
        // single start are counted here, exactly once — morsel tallies
        // deliberately skip both (see `Ctx::scan_partition`), so a
        // partitioned profile is count-identical to the sequential one —
        // and, timed, one clock pair covers the prelude, the shared
        // builds and the whole scatter/gather for the scope span and the
        // scope's `nanos`. Worker morsel spans nest under it on the
        // timeline (their lanes render as separate tracks).
        let scope_id = sc.id;
        let rec = self.shared.recorder.as_ref();
        let coord = rec.map(|_| ScopeTally::new(scope_id, steps.len()));
        let t0 = rec.and_then(Recorder::start);
        let close_scope = || {
            if let (Some(rec), Some(t)) = (rec, &coord) {
                t.add_nanos(rec.finish(self.lane, SpanKind::Scope, OpId::scope(scope_id), t0));
                t.flush(rec, true);
            }
        };

        // Prelude filters see only outer variables: evaluate once here,
        // not once per morsel.
        if !self.all_true(&pipeline.prelude, env)? {
            close_scope();
            return Ok(true); // scope is empty; nothing to scatter
        }
        // Build every probe's hash index — and every vectorized scan's
        // selection vector and per-entry kernels' column chunks — up
        // front so workers share them read-only instead of racing to
        // build duplicates. Through the steps' memos, which keep a denial
        // too: no worker asks the guard again.
        let tally = coord.as_ref();
        for (i, ob) in steps.iter().enumerate() {
            let Src::Rows(rel) = &ob.source else { continue };
            if let Some(hash_plan) = &ob.hash_plan {
                let _ = self.step_build(&ob.index, i, tally, || self.join_index(hash_plan, rel));
            }
            if ob.uses_selection() {
                let _ = self.step_build(&ob.selection, i, tally, || self.scan_selection(rel, ob));
            }
            if !ob.entry_filters.is_empty() {
                let _ = self.step_columns(ob, rel);
            }
        }

        // A worker's context: nested scopes inside it run sequentially
        // (the scope above them already occupies every thread).
        let shared = self.shared;
        let opts = QueryOptions {
            threads: 1,
            ..self.opts
        };
        // Workers see the frames of this scope under its own layout.
        let outer_env = env.with_layout(&sc.layout, |env| env.clone());
        // Chunk-aligned morsels; ordered gather is untouched (invariant 9).
        let morsels = Morsels::new(total, self.opts.threads);
        // One forked context per participating worker (not per morsel —
        // its compiled scopes carry over); each morsel still gets a fresh
        // clone of the outer environment because an error can abandon
        // pushed frames mid-scan.
        if let Some(t) = &coord {
            t.call(0); // the axis scan starts once, morsels notwithstanding
        }
        let lanes = AtomicUsize::new(0);
        let arity = out.arity();
        let results = run_morsels_guarded(
            self.opts.threads,
            morsels,
            self.shared.guard.as_deref(),
            || {
                let lane = lanes.fetch_add(1, Ordering::Relaxed);
                let ctx = Ctx {
                    lane,
                    ..Ctx::new(opts, shared)
                };
                if let Some(rec) = &ctx.shared.recorder {
                    rec.touch(lane); // name the track even if every span drops
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
                let mut morsel_out = Rows::new(arity);
                // Morsel seam: a morsel-local tally and, timed, one clock
                // pair for the morsel span and the lane's busy time.
                let rec = st.ctx.shared.recorder.as_ref();
                let tally = rec.map(|_| ScopeTally::new(scope_id, steps.len()));
                let t0 = rec.and_then(Recorder::start);
                let r = morsel(&st.ctx, range, &mut wenv, tally.as_ref(), &mut morsel_out)
                    .map(|()| morsel_out);
                st.morsels += 1;
                if let (Some(rec), Some(t)) = (rec, &tally) {
                    let op = OpId::step(scope_id, 0);
                    st.busy_nanos += rec.finish(st.lane, SpanKind::Morsel, op, t0);
                    t.flush(rec, false);
                }
                r
            },
        );
        close_scope();
        // Merge in morsel order: errors surface from the earliest morsel
        // (what the sequential loop would hit first), outputs concatenate
        // into the exact sequential emission order. A contained worker
        // panic is already the structured `WorkerPanic` error; a morsel
        // skipped because the guard tripped surfaces the trip's own
        // error — never a partial result.
        for slot in results? {
            match slot {
                Some(r) => out.append(r?),
                None => {
                    let trip = self
                        .shared
                        .guard
                        .as_ref()
                        .and_then(|g| g.trip_cause())
                        .map(super::trip_error)
                        .unwrap_or_else(|| {
                            EvalError::Internal("unclaimed morsel without a tripped guard".into())
                        });
                    return Err(trip);
                }
            }
        }
        Ok(true)
    }
}
