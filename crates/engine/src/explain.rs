//! `EXPLAIN` and `EXPLAIN ANALYZE`: render the plan a query runs under
//! this engine, optionally annotated with measured actuals.
//!
//! `EXPLAIN` is a view of execution, not a second planner: lowering
//! ([`arc_plan::lower_collection`] / [`arc_plan::lower_program`]) walks the
//! query tree and plans every scope through the function compiling it
//! calls — the same name resolution (definitions shadow the catalog,
//! which shadows abstract definitions, which shadow externals), the same
//! live statistics, the same global plan-cache key — so an `EXPLAIN` after
//! an evaluation is served the plans that ran, and an unplaceable binding
//! fails `EXPLAIN` with the error evaluation reports. A program lowers
//! stratum by stratum in the order evaluation materializes it (abstract
//! definitions are never materialized, so they show only as the
//! `abstract-check` steps that read them).
//!
//! What `EXPLAIN` cannot know without running is said plainly: a plain
//! [`Engine::explain_program`] plans each definition's readers with an
//! unknown row count (the planner's default), and shows a recursive
//! definition once, although evaluation plans it per round against
//! growing totals. [`Engine::explain_analyze_program`] lowers against the
//! definitions its own run materialized — the row counts the query was
//! planned with. Outer-join scopes run on the materialized path and show
//! unplanned. The output is the textual rendering of the
//! [`arc_plan::PlanNode`] tree; a diagram backend can walk the same tree
//! instead.
//!
//! The `*_analyze` variants actually **run** the query first (via
//! [`Engine::profile_collection`]/[`Engine::profile_program`]), then join
//! the recorded [`arc_trace::QueryProfile`] back onto the plan tree by
//! operator id: each quantifier scope's id is [`arc_plan::QuantRef::id`],
//! stamped at lowering time and recorded again at evaluation time — both
//! walk the *same* AST the caller holds, so the join needs no name
//! matching. Annotated operators render `act=N (est=N, q=X.X)` per step —
//! `q` is the [q-error](arc_plan::q_error) of the planner's estimate —
//! plus wall time when the recording knob ([`Engine::with_spans`] /
//! `ARC_TRACE`) times the record.

use crate::error::Result;
use crate::eval::{Ctx, Engine, Entry, Recording};
use crate::fixpoint::{ProgramOutput, Strata};
use crate::relation::Relation;
use arc_core::ast::{Collection, Program};
use arc_plan::PlanNode;
use arc_trace::{QueryProfile, Recorder};
use std::collections::HashMap;

/// What a recorded entry's recorder holds, as `read` sees it (an empty
/// profile or timeline if the entry recorded nothing — which a `Profile`
/// or `Timeline` entry never does).
fn read_back<T: Default>(rec: Option<Recorder>, read: impl FnOnce(&Recorder) -> T) -> T {
    rec.as_ref().map(read).unwrap_or_default()
}

/// Serialize a recorded span trace against its lowered plan: the
/// process track is named by the plan's first rendered line, and span
/// names resolve through [`arc_plan::span_names`] (plan spans prefixed
/// `plan `, everything unnamed falls back to the kind default).
fn chrome_trace_with_plan(
    trace: &arc_trace::SpanTrace,
    plan_text: &str,
    plan: &PlanNode,
) -> arc_core::json::Json {
    let names = arc_plan::span_names(plan);
    let label = plan_text.lines().next().unwrap_or("query").to_string();
    arc_trace::chrome_trace(trace, &label, &move |kind, op| match kind {
        arc_trace::SpanKind::Plan => names.get(&op).map(|n| format!("plan {n}")),
        arc_trace::SpanKind::Morsel => names.get(&op).map(|n| format!("morsel {n}")),
        _ => names.get(&op).cloned(),
    })
}

impl Engine<'_> {
    /// Render the physical plan of a standalone collection as text. An
    /// engine running parallel (`ARC_THREADS > 1` /
    /// [`Engine::with_threads`]) renders the `partition(n)` operator on
    /// each scope's partition-axis step.
    /// An engine running under a memory budget (`ARC_MEM_BUDGET` /
    /// [`Engine::with_mem_budget`]) appends a `governance:` note: the
    /// build-side operators above it may degrade to streaming fallbacks
    /// at run time.
    pub fn explain_collection(&self, c: &Collection) -> Result<String> {
        let opts = self.options()?;
        let plan = self.lowered_collection(c)?;
        Ok(arc_plan::render_governed(
            &plan,
            opts.threads,
            opts.mem_budget,
        ))
    }

    /// An entry that plans and records nothing: the one `EXPLAIN` lowers
    /// under.
    fn planning_entry(&self) -> Result<Entry> {
        Ok(Entry {
            opts: self.options()?,
            guard: None,
            recorder: None,
        })
    }

    /// Lower a standalone collection exactly as [`Self::explain_collection`]
    /// would.
    fn lowered_collection(&self, c: &Collection) -> Result<PlanNode> {
        let entry = self.planning_entry()?;
        let (defined, abstracts) = (HashMap::new(), HashMap::new());
        let shared = self.shared(&entry, &defined, &abstracts);
        let ctx = Ctx::new(entry.opts, &shared);
        arc_plan::lower_collection(c, &mut |scope| ctx.explain_scope(scope))
    }

    /// Render the physical plan of a whole program as text: definitions in
    /// declaration order (mutually recursive groups fused into `fixpoint`
    /// nodes), then the query.
    /// Like [`Engine::explain_collection`], a memory budget appends the
    /// `governance:` degradation note.
    pub fn explain_program(&self, p: &Program) -> Result<String> {
        let opts = self.options()?;
        let plan = self.lowered_program(p, None)?;
        Ok(arc_plan::render_governed(
            &plan,
            opts.threads,
            opts.mem_budget,
        ))
    }

    /// Lower a whole program, stratum by stratum, against the definitions
    /// a run `materialized` — or, with none, planning every definition's
    /// readers with an unknown row count ([`Self::explain_program`]).
    fn lowered_program(
        &self,
        p: &Program,
        materialized: Option<&HashMap<String, Relation>>,
    ) -> Result<PlanNode> {
        let entry = self.planning_entry()?;
        let strata = Strata::of(p);
        let none = HashMap::new();
        let mut shared = self.shared(&entry, materialized.unwrap_or(&none), &strata.abstracts);
        if materialized.is_none() {
            shared.unmaterialized = &strata.components;
        }
        let ctx = Ctx::new(entry.opts, &shared);
        arc_plan::lower_program(&strata.components, p.query.as_ref(), &mut |scope| {
            ctx.explain_scope(scope)
        })
    }

    /// Evaluate a standalone collection while recording a per-operator
    /// execution profile, returning both the result and the profile.
    ///
    /// Actual row/call counts are gathered regardless of the recording
    /// knob (this call records; a default [`Engine::eval_collection`]
    /// does not); per-operator wall times additionally require
    /// [`Engine::with_spans`] / `ARC_TRACE=on`, which times the record.
    pub fn profile_collection(&self, c: &Collection) -> Result<(Relation, QueryProfile)> {
        let (rel, rec) = self.collection_recorded(c, Recording::Profile)?;
        Ok((rel, read_back(rec, Recorder::profile)))
    }

    /// Evaluate a whole program while recording a per-operator execution
    /// profile; the profile aggregates over every definition the program
    /// materializes (fixpoint iterations included) plus the query. See
    /// [`Engine::profile_collection`] for what the recording knob adds.
    pub fn profile_program(&self, p: &Program) -> Result<(ProgramOutput, QueryProfile)> {
        let (out, rec) = self.program_recorded(p, Recording::Profile)?;
        Ok((out, read_back(rec, Recorder::profile)))
    }

    /// Evaluate a standalone collection while recording hierarchical
    /// spans, returning the result plus the timeline as a Chrome Trace
    /// Event Format JSON value — load it at <https://ui.perfetto.dev> (or
    /// `chrome://tracing`) to see the query → plan → scope → step →
    /// morsel nesting per worker lane.
    ///
    /// The record is timed and its span lanes are this call's own, sized
    /// to the engine's thread count; span names come from
    /// [`arc_plan::span_names`] over the same lowered plan `EXPLAIN`
    /// renders, so timeline blocks are joinable back to `EXPLAIN ANALYZE`
    /// lines by name and by the `args.op` operator key.
    pub fn span_trace_collection(
        &self,
        c: &Collection,
    ) -> Result<(Relation, arc_core::json::Json)> {
        let (rel, rec) = self.collection_recorded(c, Recording::Timeline)?;
        let plan = self.lowered_collection(c)?;
        let trace = read_back(rec, Recorder::span_trace);
        let json = chrome_trace_with_plan(&trace, &arc_plan::render(&plan), &plan);
        Ok((rel, json))
    }

    /// [`Engine::span_trace_collection`] for a whole program: one
    /// timeline covering every definition the program materializes
    /// (fixpoint iterations included) plus the query, under a single
    /// enclosing `query` span.
    pub fn span_trace_program(&self, p: &Program) -> Result<(ProgramOutput, arc_core::json::Json)> {
        let (out, rec) = self.program_recorded(p, Recording::Timeline)?;
        let defined: HashMap<String, Relation> = out.defined.into_iter().collect();
        let plan = self.lowered_program(p, Some(&defined))?;
        let trace = read_back(rec, Recorder::span_trace);
        let json = chrome_trace_with_plan(&trace, &arc_plan::render(&plan), &plan);
        let out = ProgramOutput {
            defined: defined.into_iter().collect(),
            query: out.query,
        };
        Ok((out, json))
    }

    /// `EXPLAIN ANALYZE` for a standalone collection: run it with
    /// profiling ([`Engine::profile_collection`]), then render the plan
    /// with each operator annotated by its measured actuals —
    /// `act=N (est=N, q=X.X)` per step (q-error of the planner's
    /// estimate), probe/hit counts on semi-joins, and wall time when the
    /// recording knob times the record.
    pub fn explain_analyze_collection(&self, c: &Collection) -> Result<String> {
        let (_, profile) = self.profile_collection(c)?;
        let plan = self.lowered_collection(c)?;
        Ok(arc_plan::render_analyze(
            &plan,
            self.options()?.threads,
            &|id| profile.op(id).copied(),
        ))
    }

    /// `EXPLAIN ANALYZE` for a whole program: evaluate it with profiling,
    /// then render definitions and query annotated with measured actuals.
    /// Scopes evaluated more than once (fixpoint iterations, correlated
    /// re-entry) report summed counts across all invocations — the
    /// renderer's per-call normalization divides by `calls`.
    pub fn explain_analyze_program(&self, p: &Program) -> Result<String> {
        let (out, profile) = self.profile_program(p)?;
        let defined: HashMap<String, Relation> = out.defined.into_iter().collect();
        let plan = self.lowered_program(p, Some(&defined))?;
        Ok(arc_plan::render_analyze(
            &plan,
            self.options()?.threads,
            &|id| profile.op(id).copied(),
        ))
    }
}
