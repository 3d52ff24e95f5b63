//! `EXPLAIN` and `EXPLAIN ANALYZE`: render the plan a query would
//! execute under this engine, optionally annotated with measured actuals.
//!
//! The engine resolves names against its catalog (and, for programs, the
//! program's own definitions — classified into intensional vs. abstract by
//! the binder, exactly as evaluation does) and hands `arc-plan` the same
//! statistics the evaluator would use, minus live row counts for
//! not-yet-materialized definitions. The output is the textual rendering
//! of the [`arc_plan::PlanNode`] tree; a diagram backend can walk the same
//! tree instead.
//!
//! The `*_analyze` variants actually **run** the query first (via
//! [`Engine::profile_collection`]/[`Engine::profile_program`]), then join
//! the recorded [`arc_trace::QueryProfile`] back onto the plan tree by
//! operator id: each quantifier scope's id is the address of its binding
//! list in the AST, stamped at lowering time and recorded again at
//! evaluation time — both walk the *same* AST the caller holds, so the
//! join needs no name matching. Annotated operators render
//! `act=N (est=N, q=X.X)` per step — `q` is the
//! [q-error](arc_plan::q_error) of the planner's estimate — plus wall
//! time when the trace knob ([`Engine::with_trace`] / `ARC_TRACE`)
//! enables clock reads.

use crate::catalog::Catalog;
use crate::error::{EvalError, Result};
use crate::eval::Engine;
use crate::fixpoint::{FixpointStrategy, ProgramOutput};
use crate::relation::Relation;
use arc_core::ast::{Collection, Program};
use arc_core::binder::Binder;
use arc_plan::{LowerError, PlanNode, ResolvedSource, SourceKind, SourceResolver};
use arc_trace::{ProfileSink, QueryProfile};
use std::collections::HashMap;

/// Resolver over the engine's catalog plus a program's definitions,
/// mirroring the evaluator's shadowing order exactly (see
/// `Ctx::resolve_bindings`): materialized definitions shadow catalog
/// relations, which shadow abstract definitions, which shadow externals.
struct CatalogResolver<'c> {
    catalog: &'c Catalog,
    defined: HashMap<String, Vec<String>>,
    abstracts: HashMap<String, Vec<String>>,
}

impl SourceResolver for CatalogResolver<'_> {
    fn resolve(&self, name: &str) -> Option<ResolvedSource> {
        if let Some(attrs) = self.defined.get(name) {
            return Some(ResolvedSource {
                kind: SourceKind::Defined,
                schema: attrs.clone(),
                rows: None,
                patterns: Vec::new(),
                stats: None,
            });
        }
        if let Some(rel) = self.catalog.relation(name) {
            return Some(ResolvedSource {
                kind: SourceKind::Base,
                schema: rel.schema.clone(),
                rows: Some(rel.rows.len()),
                patterns: Vec::new(),
                // ANALYZE sketches, when present: EXPLAIN's `est=N` then
                // matches what the evaluator's planner would estimate.
                stats: self.catalog.stats(name).cloned(),
            });
        }
        if let Some(attrs) = self.abstracts.get(name) {
            return Some(ResolvedSource {
                kind: SourceKind::Abstract,
                schema: attrs.clone(),
                rows: None,
                patterns: Vec::new(),
                stats: None,
            });
        }
        if let Some(ext) = self.catalog.external(name) {
            return Some(ResolvedSource {
                kind: SourceKind::External,
                schema: ext.schema.clone(),
                rows: None,
                patterns: ext.patterns.iter().map(|p| p.bound.clone()).collect(),
                stats: None,
            });
        }
        None
    }

    fn stats_epoch(&self) -> Option<u64> {
        Some(self.catalog.stats_epoch())
    }
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

fn lower_err(e: LowerError) -> EvalError {
    match e {
        LowerError::UnknownRelation(n) => EvalError::UnknownRelation(n),
        LowerError::Unplaceable { var } => EvalError::Unplannable { var },
    }
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

    /// Lower a standalone collection exactly as [`Self::explain_collection`]
    /// would.
    fn lowered_collection(&self, c: &Collection) -> Result<PlanNode> {
        let resolver = CatalogResolver {
            catalog: self.catalog,
            defined: HashMap::new(),
            abstracts: HashMap::new(),
        };
        arc_plan::lower_collection(c, &resolver).map_err(lower_err)
    }

    /// Render the physical plan of a whole program as text: definitions in
    /// declaration order (mutually recursive groups fused into `fixpoint`
    /// nodes), then the query.
    /// Like [`Engine::explain_collection`], a memory budget appends the
    /// `governance:` degradation note.
    pub fn explain_program(&self, p: &Program) -> Result<String> {
        let opts = self.options()?;
        let plan = self.lowered_program(p)?;
        Ok(arc_plan::render_governed(
            &plan,
            opts.threads,
            opts.mem_budget,
        ))
    }

    /// Lower a whole program exactly as [`Self::explain_program`] would.
    fn lowered_program(&self, p: &Program) -> Result<PlanNode> {
        // Classify abstract definitions via the binder, mirroring
        // `materialize_definitions`.
        let abstract_names = Binder::new().abstract_definitions(p);
        let is_abstract = |name: &str| -> bool { abstract_names.iter().any(|n| n == name) };
        let abstracts: HashMap<String, Vec<String>> = p
            .definitions
            .iter()
            .filter(|d| is_abstract(d.name()))
            .map(|d| (d.name().to_string(), d.collection.head.attrs.clone()))
            .collect();
        // Non-abstract definitions materialize, so they shadow same-named
        // catalog relations during evaluation — the resolver must agree.
        let defined: HashMap<String, Vec<String>> = p
            .definitions
            .iter()
            .filter(|d| !is_abstract(d.name()))
            .map(|d| (d.name().to_string(), d.collection.head.attrs.clone()))
            .collect();
        let resolver = CatalogResolver {
            catalog: self.catalog,
            defined,
            abstracts,
        };
        arc_plan::lower_program(p, &resolver).map_err(lower_err)
    }

    /// Evaluate a standalone collection while recording a per-operator
    /// execution profile, returning both the result and the profile.
    ///
    /// Actual row/call counts are gathered regardless of the trace knob
    /// (the profile sink is attached only for this call — ordinary
    /// [`Engine::eval_collection`] never profiles); per-operator wall
    /// times additionally require [`Engine::with_trace`] / `ARC_TRACE=on`
    /// to enable clock reads.
    pub fn profile_collection(&self, c: &Collection) -> Result<(Relation, QueryProfile)> {
        let sink = ProfileSink::new();
        let rel = self.collection_recorded(c, Some(sink.clone()), None)?;
        Ok((rel, sink.finish()))
    }

    /// Evaluate a whole program while recording a per-operator execution
    /// profile; the profile aggregates over every definition the program
    /// materializes (fixpoint iterations included) plus the query. See
    /// [`Engine::profile_collection`] for what the trace knob adds.
    pub fn profile_program(&self, p: &Program) -> Result<(ProgramOutput, QueryProfile)> {
        let sink = ProfileSink::new();
        let out =
            self.program_recorded(p, FixpointStrategy::default(), Some(sink.clone()), None)?;
        Ok((out, sink.finish()))
    }

    /// Evaluate a standalone collection while recording hierarchical
    /// spans, returning the result plus the timeline as a Chrome Trace
    /// Event Format JSON value — load it at <https://ui.perfetto.dev> (or
    /// `chrome://tracing`) to see the query → plan → scope → step →
    /// morsel nesting per worker lane.
    ///
    /// The sink is attached only for this call and sized to the engine's
    /// thread count; span names come from [`arc_plan::span_names`] over
    /// the same lowered plan `EXPLAIN` renders, so timeline blocks are
    /// joinable back to `EXPLAIN ANALYZE` lines by name and by the
    /// `args.op` operator key.
    pub fn span_trace_collection(
        &self,
        c: &Collection,
    ) -> Result<(Relation, arc_core::json::Json)> {
        let sink = arc_trace::SpanSink::with_lanes(self.options()?.threads);
        let rel = self.collection_recorded(c, None, Some(sink.clone()))?;
        let plan = self.lowered_collection(c)?;
        let trace = sink.finish();
        let json = chrome_trace_with_plan(&trace, &arc_plan::render(&plan), &plan);
        Ok((rel, json))
    }

    /// [`Engine::span_trace_collection`] for a whole program: one
    /// timeline covering every definition the program materializes
    /// (fixpoint iterations included) plus the query, under a single
    /// enclosing `query` span.
    pub fn span_trace_program(&self, p: &Program) -> Result<(ProgramOutput, arc_core::json::Json)> {
        let sink = arc_trace::SpanSink::with_lanes(self.options()?.threads);
        let out =
            self.program_recorded(p, FixpointStrategy::default(), None, Some(sink.clone()))?;
        let plan = self.lowered_program(p)?;
        let trace = sink.finish();
        let json = chrome_trace_with_plan(&trace, &arc_plan::render(&plan), &plan);
        Ok((out, json))
    }

    /// `EXPLAIN ANALYZE` for a standalone collection: run it with
    /// profiling ([`Engine::profile_collection`]), then render the plan
    /// with each operator annotated by its measured actuals —
    /// `act=N (est=N, q=X.X)` per step (q-error of the planner's
    /// estimate), probe/hit counts on semi-joins, and wall time when the
    /// trace knob enables clock reads.
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
        let (_, profile) = self.profile_program(p)?;
        let plan = self.lowered_program(p)?;
        Ok(arc_plan::render_analyze(
            &plan,
            self.options()?.threads,
            &|id| profile.op(id).copied(),
        ))
    }
}
