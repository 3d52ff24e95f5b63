//! The evaluator: ARC's executable semantics, as an operator pipeline.
//!
//! Collections are evaluated by enumerating quantifier bindings — the
//! `for x in X: for y in Y: if …: yield …` strategy the paper uses to
//! *define* the semantics (§2.3) — extended with:
//!
//! * grouping scopes with **multiple aggregates over one scope** (§2.5, the
//!   FIO pattern) and `γ∅` ("group by true") producing exactly one group;
//! * correlated (lateral) nested collections (§2.4);
//! * outer-join annotations over the binding list (§2.11), where the ON
//!   condition of a `left`/`full` node absorbs the body predicates that
//!   touch its right/either side (literal leaves absorb predicates that
//!   compare against their constant);
//! * external relations solved through access patterns (§2.13.1);
//! * abstract relations checked in context (§2.13.2);
//! * nested-existential **semijoin multiplicity** under bag semantics
//!   (§2.7): head tuples emitted from inside a nested scope are
//!   deduplicated per enclosing environment;
//! * the [`Conventions`] switches — none of which change the code path
//!   through the relational structure, only value-level behaviour.
//!
//! ## Pipeline layout
//!
//! The evaluator is split into focused stages, each a submodule:
//!
//! | module         | stage                                                     |
//! |----------------|-----------------------------------------------------------|
//! | [`env`]        | runtime environments: borrowed row frames + name layouts  |
//! | [`partition`]  | body analysis (re-exported from [`arc_plan::analysis`])   |
//! | [`slots`]      | slot-resolved expressions (names → `(frame, column)`)     |
//! | [`scope`]      | compiled scopes: resolve, plan, materialize, cache        |
//! | [`scalar`]     | scalar & predicate evaluation, comparisons, arithmetic    |
//! | [`formula`]    | boolean formula / sentence evaluation                     |
//! | [`quantifier`] | the binding loop: executes compiled step pipelines        |
//! | [`semijoin`]   | decorrelated `∃`/`¬∃`: build-once set-level semi/anti-join|
//! | [`lateral`]    | lateral steps: nested collections memoized by outer values|
//! | [`parallel`]   | partitioned (morsel-driven) scope execution via `arc-exec`|
//! | [`aggregate`]  | grouping scopes: one-pass accumulators, per-group verdicts|
//! | [`output`]     | output assembly: head-tuple construction and emission     |
//! | [`join`]       | outer-join annotation trees (`left`/`full`, §2.11)        |
//! | [`knobs`]      | the `ARC_*` environment knobs and their parsers           |
//!
//! The **plan seam** sits in front of the binding loop: every quantifier
//! scope is described to [`arc_plan::plan_scope`] and the returned physical
//! plan — binding order, per-step scan/hash-probe/external/abstract
//! access, pushed-down filters — is compiled by [`scope`] into a
//! slot-resolved pipeline that [`quantifier`] executes. Plans are
//! **cached** globally by scope shape (see [`arc_plan::cache`]: constants
//! are typed holes, so statements that differ only in their constants
//! share plans) and compiled scopes per `Ctx` by scope identity + frame
//! layout, so correlated scopes plan and resolve names once, not once per
//! outer row.
//! Boolean `∃`/`¬∃` scopes whose correlation is a pure equi-join go
//! further: [`semijoin`] evaluates the
//! scope body **once**, keys a hash set on the correlated columns, and
//! answers every outer row with an O(1) probe — execution, not just
//! planning, amortizes across outer rows. Each join independently selects
//! its algorithm, and results are bag-identical to the paper's semantics —
//! which `arc_analysis::oracle` defines, as nested loops sharing no code
//! with this module, and which every equivalence suite checks against.
//! With `ARC_THREADS > 1` (or [`Engine::with_threads`]) a scope whose plan has
//! a partition axis executes its outer scan in parallel morsels — the
//! ordered merge keeps even that path emission-order identical. The
//! [`Engine::explain_collection`]/[`Engine::explain_program`] renderers
//! (in [`crate::explain`]) show the plan a query would execute, including
//! the `partition(n)` operator when the engine runs parallel.

pub mod aggregate;
pub mod env;
pub mod formula;
pub(crate) mod index;
pub mod join;
pub mod knobs;
pub(crate) mod lateral;
pub mod output;
pub mod parallel;
pub(crate) mod profile;
pub mod quantifier;
pub mod scalar;
pub(crate) mod scope;
pub mod semijoin;
pub(crate) mod slots;
pub mod vector;

/// Body analysis: predicate-role partitioning and free-variable
/// computation. The analysis itself lives in [`arc_plan::analysis`] — the
/// shared front half of both the planner and the evaluator, so the two
/// can never disagree on what counts as a filter, an assignment, or a
/// free variable. This module re-exports the pieces the evaluator
/// consumes.
pub mod partition {
    pub(crate) use arc_plan::analysis::{partition, pred_consts, pred_vars, Parts};
}

pub(crate) use env::Env;

/// Per-query cache of vectorized scan selections — see [`Ctx::selections`].
pub(crate) type SelectionCache = RefCell<HashMap<(usize, Vec<usize>), Arc<Vec<u32>>>>;

use crate::catalog::Catalog;
use crate::error::{EvalError, Result};
use crate::relation::Relation;
use arc_core::ast::{Collection, Formula};
use arc_core::conventions::Conventions;
use arc_core::value::Truth;
use arc_guard::{seam, CancelHandle, CancelState, FaultKind, FaultPlan, QueryGuard, Trip};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// How many enumeration steps ([`Ctx::guard_step`]) between guard
/// checks: amortizes the cancel-flag load and deadline clock read so the
/// per-environment cost of an armed guard stays one `Cell` bump.
const GUARD_TICK: u32 = 256;

/// Map a guard trip onto its structured engine error.
pub(crate) fn trip_error(t: Trip) -> EvalError {
    match t {
        Trip::Cancelled => EvalError::Cancelled,
        Trip::DeadlineExceeded => EvalError::DeadlineExceeded,
        Trip::MemoryBudget => EvalError::MemoryBudget,
    }
}

/// Guard plumbing shared by code that holds a guard but no [`Ctx`] (the
/// fixpoint driver): fault injection at a named check seam, then the
/// cooperative check. A `Panic` fault panics (containment is the entry
/// points' `catch_unwind`); a `Budget` fault at a check seam trips the
/// budget; a `Cancel` fault trips cancellation.
pub(crate) fn guard_check_at(guard: Option<&Arc<QueryGuard>>, at: &'static str) -> Result<()> {
    let Some(g) = guard else { return Ok(()) };
    if g.fault_armed() {
        match g.fire_fault(at) {
            Some(FaultKind::Panic) => {
                crate::metrics::guard_faults().inc();
                panic!("injected fault at seam `{at}`")
            }
            Some(FaultKind::Budget) => {
                crate::metrics::guard_faults().inc();
                g.trip(Trip::MemoryBudget);
            }
            Some(FaultKind::Cancel) => {
                crate::metrics::guard_faults().inc();
                g.trip(Trip::Cancelled);
            }
            None => {}
        }
    }
    g.check().map_err(trip_error)
}

/// Hard reservation against a guard without a [`Ctx`] (fixpoint deltas):
/// denial trips the guard and surfaces `EvalError::MemoryBudget`.
pub(crate) fn guard_reserve_hard(guard: Option<&Arc<QueryGuard>>, bytes: usize) -> Result<()> {
    match guard {
        Some(g) => g.reserve_hard(bytes).map_err(trip_error),
        None => Ok(()),
    }
}

/// The evaluation engine: a catalog plus a convention profile plus the
/// execution knobs (parallelism, recording, guard limits). No knob picks
/// an algorithm: decorrelation, columnar kernels and ordered indexes are
/// always on, and each build falls back to its streaming path only when
/// the guard denies it (see [`Engine::with_mem_budget`]).
pub struct Engine<'c> {
    pub(crate) catalog: &'c Catalog,
    /// The convention profile queries are interpreted under (§2.6/§2.7).
    pub conventions: Conventions,
    /// Parallelism for partitioned scope execution (`ARC_THREADS`).
    /// Stored as a `Result` — like every knob below — so a malformed
    /// environment value surfaces as a normal engine error on the first
    /// evaluation instead of panicking at construction.
    threads: std::result::Result<usize, crate::error::EvalError>,
    /// Execution tracing (`ARC_TRACE`, default **off**): timing of
    /// index/selection/semi-join builds into the `arc-trace` registry
    /// and wall-time stamps on execution profiles; same deferred-error
    /// story.
    trace: std::result::Result<bool, crate::error::EvalError>,
    /// Hierarchical span recording (`ARC_SPANS`, default **off**): every
    /// evaluation context gets a per-lane span sink and the
    /// query/plan/scope/step/morsel seams record begin/end timestamps
    /// into it; same deferred-error story.
    spans: std::result::Result<bool, crate::error::EvalError>,
    /// Per-query deadline (`ARC_TIMEOUT_MS` / [`Engine::with_timeout`]);
    /// `None` means unbounded. Same deferred-error story.
    timeout: std::result::Result<Option<Duration>, crate::error::EvalError>,
    /// Per-query memory budget in bytes (`ARC_MEM_BUDGET` /
    /// [`Engine::with_mem_budget`]); `None` means unbounded. Builds that
    /// would exceed the budget degrade to streaming paths; only hard
    /// exhaustion aborts. Same deferred-error story.
    mem_budget: std::result::Result<Option<usize>, crate::error::EvalError>,
    /// Deterministic fault-injection plan (`ARC_FAULT` /
    /// [`Engine::with_fault`]); `None` (the default) injects nothing.
    /// Same deferred-error story.
    fault: std::result::Result<Option<FaultPlan>, crate::error::EvalError>,
    /// Cooperative cancellation state shared with every
    /// [`CancelHandle`] this engine hands out. Guards are only built
    /// when a handle was requested (or a deadline/budget/fault is
    /// configured), so engines that never cancel pay nothing.
    cancel: Arc<CancelState>,
    /// When set, every evaluation context this engine creates records
    /// per-operator actuals into the sink (the `EXPLAIN ANALYZE` /
    /// [`Engine::profile_collection`] path; `None` for ordinary
    /// evaluation, which then pays only an `Option` check per row).
    profile: Option<arc_trace::ProfileSink>,
    /// When set, evaluation contexts record spans into *this* sink
    /// instead of a per-context one (the [`Engine::span_trace_*`]
    /// timeline-export path, which needs the spans back afterwards).
    /// Implies span recording regardless of the `spans` knob.
    pub(crate) span_sink: Option<arc_trace::SpanSink>,
    /// Lazily-built sink for the bare `spans` knob: allocated once per
    /// engine on the first evaluation and [`reset`](arc_trace::SpanSink::reset)
    /// per evaluation, so `ARC_SPANS=on` pays ring-buffer *recording*
    /// per query, not ring-buffer *allocation* (the slabs are hundreds
    /// of KB for a multi-lane sink). Never read back — the knob path
    /// records and drops; exporters attach [`Engine::span_sink`]
    /// instead, which always wins.
    knob_sink: std::sync::OnceLock<arc_trace::SpanSink>,
}

impl<'c> Engine<'c> {
    /// Create an engine over a catalog with the given conventions.
    ///
    /// Every knob defaults to its `ARC_*` environment variable (see
    /// [`knobs`]), so the full test suite can be re-run under, say,
    /// `ARC_THREADS=4` without touching any call site. A malformed value
    /// is reported by the first evaluation as
    /// [`EvalError::Config`](crate::error::EvalError::Config).
    pub fn new(catalog: &'c Catalog, conventions: Conventions) -> Self {
        Engine {
            catalog,
            conventions,
            threads: knobs::from_env("ARC_THREADS", arc_exec::parse_threads),
            trace: knobs::onoff_from_env("ARC_TRACE"),
            spans: knobs::onoff_from_env("ARC_SPANS"),
            timeout: knobs::from_env("ARC_TIMEOUT_MS", knobs::parse_timeout),
            mem_budget: knobs::from_env("ARC_MEM_BUDGET", knobs::parse_mem_budget),
            fault: knobs::from_env("ARC_FAULT", knobs::parse_fault),
            cancel: Arc::new(CancelState::default()),
            profile: None,
            span_sink: None,
            knob_sink: std::sync::OnceLock::new(),
        }
    }

    /// Override the parallelism (builder style); `1` (or `0`) means
    /// sequential. Clamped to [`arc_exec::MAX_THREADS`], the same bound
    /// the `ARC_THREADS` parser enforces — an oversized value must never
    /// be able to exhaust OS threads and abort the process.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Ok(threads.clamp(1, arc_exec::MAX_THREADS));
        self
    }

    /// The parallelism this engine evaluates under (an `Err` reproduces
    /// the configuration problem every evaluation would report).
    pub fn threads(&self) -> Result<usize> {
        self.threads.clone()
    }

    /// Override execution tracing (builder style): `true` makes
    /// evaluation time index/selection/semi-join builds into the
    /// [`arc_trace`] registry and stamp wall time onto execution
    /// profiles, exactly like running under `ARC_TRACE=on` — tests use
    /// this to compare both modes without touching the (racy) process
    /// environment. Off (the default) keeps
    /// the hot path free of clock reads; row/call actuals in
    /// [`Engine::profile_collection`] /
    /// [`Engine::explain_analyze_collection`](crate::eval::Engine) are
    /// gathered either way.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = Ok(trace);
        self
    }

    /// Whether this engine records execution timings.
    pub fn trace(&self) -> Result<bool> {
        self.trace.clone()
    }

    /// Override hierarchical span recording (builder style): `true` makes
    /// every evaluation record begin/end spans (query → plan → scope →
    /// semi-join build → step → morsel) into bounded per-lane ring
    /// buffers, exactly like running under `ARC_SPANS=on`. Use
    /// [`Engine::span_trace_collection`](crate::explain) /
    /// `span_trace_program` to get the spans back as a Chrome-trace
    /// timeline; with only this knob the spans are recorded and dropped,
    /// which is what the `ARC_SPANS=on` CI leg exercises (recording cost
    /// without export cost). Off (the
    /// default) keeps every span seam to a single `Option` check.
    pub fn with_spans(mut self, spans: bool) -> Self {
        self.spans = Ok(spans);
        self
    }

    /// Whether this engine records execution spans.
    pub fn spans(&self) -> Result<bool> {
        self.spans.clone()
    }

    /// Set a per-query deadline (builder style): every evaluation on this
    /// engine must finish within `timeout` of its start or it surfaces
    /// [`EvalError::DeadlineExceeded`] — cooperatively, within one morsel
    /// of work of the deadline passing. Exactly like running under
    /// `ARC_TIMEOUT_MS=<millis>`.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Ok(Some(timeout));
        self
    }

    /// The per-query deadline this engine evaluates under.
    pub fn timeout(&self) -> Result<Option<Duration>> {
        self.timeout.clone()
    }

    /// Set a per-query memory budget in bytes (builder style): an
    /// allocation-heavy build (hash index, semi-join key set, column
    /// chunks, ordered index, scan selection) that would exceed the
    /// budget releases its claim and **degrades** to the corresponding
    /// streaming/nested path instead of failing (counted in
    /// `guard.degradations`); only hard exhaustion — fixpoint deltas,
    /// result growth that no fallback can avoid — surfaces
    /// [`EvalError::MemoryBudget`]. Exactly like running under
    /// `ARC_MEM_BUDGET=<bytes>` (suffixes `k`/`m`/`g` accepted).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Ok((bytes > 0).then_some(bytes));
        self
    }

    /// The per-query memory budget this engine evaluates under.
    pub fn mem_budget(&self) -> Result<Option<usize>> {
        self.mem_budget.clone()
    }

    /// Arm a deterministic fault-injection plan (builder style): the
    /// `plan.at`-th visit to seam `plan.seam` fires `plan.kind` (a panic,
    /// a budget trip, or a cancellation). Exactly like running under
    /// `ARC_FAULT=<seam>:<n>[:<kind>]`; tests and the CI smoke leg use it
    /// to prove every error path leaves the engine reusable.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Ok(Some(plan));
        self
    }

    /// A handle that cancels queries on this engine from another thread:
    /// evaluations observe the flag at the enumeration/morsel/fixpoint
    /// seams and surface [`EvalError::Cancelled`] within one morsel of
    /// work. The flag is sticky until [`CancelHandle::reset`]; requesting
    /// a handle arms guard construction for subsequent evaluations.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.arm();
        CancelHandle::new(self.cancel.clone())
    }

    /// Build the per-query guard for one engine entry — `None` when no
    /// deadline, budget, fault plan, or cancel handle is configured, so
    /// unguarded evaluation stays a handful of `Option` checks.
    pub(crate) fn make_guard(&self) -> Result<Option<Arc<QueryGuard>>> {
        let timeout = self.timeout.clone()?;
        let budget = self.mem_budget.clone()?;
        let fault = self.fault.clone()?;
        if timeout.is_none() && budget.is_none() && fault.is_none() && !self.cancel.armed() {
            return Ok(None);
        }
        Ok(Some(Arc::new(QueryGuard::new(
            timeout.map(|d| std::time::Instant::now() + d),
            budget,
            fault,
            self.cancel.armed().then(|| self.cancel.clone()),
        ))))
    }

    /// Panic containment at the engine boundary: run `f` under
    /// `catch_unwind` so a worker (or injected) panic surfaces as
    /// [`EvalError::WorkerPanic`] instead of unwinding through the
    /// caller, and count terminal guard trips into the metrics registry.
    /// The engine and its pool stay usable afterwards — per-engine caches
    /// recover via their poison-clearing locks.
    pub(crate) fn contained<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
            Err(crate::error::EvalError::WorkerPanic(
                arc_guard::panic_message(p.as_ref()),
            ))
        });
        match &out {
            Err(crate::error::EvalError::Cancelled) => crate::metrics::query_cancelled().inc(),
            Err(crate::error::EvalError::DeadlineExceeded) => crate::metrics::query_timeout().inc(),
            _ => {}
        }
        out
    }

    /// A shallow copy of this engine: the same catalog, conventions and
    /// knobs, a sink cache of its own. The one place that lists every
    /// field, so the copies below only name what they change.
    fn shallow_copy(&self) -> Engine<'c> {
        Engine {
            catalog: self.catalog,
            conventions: self.conventions,
            threads: self.threads.clone(),
            trace: self.trace.clone(),
            spans: self.spans.clone(),
            timeout: self.timeout.clone(),
            mem_budget: self.mem_budget.clone(),
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
            profile: self.profile.clone(),
            span_sink: self.span_sink.clone(),
            knob_sink: std::sync::OnceLock::new(),
        }
    }

    /// A shallow copy of this engine with a profile sink attached: every
    /// evaluation context it creates records per-operator actuals into
    /// `sink`. The `EXPLAIN ANALYZE` entry points evaluate through this
    /// copy so ordinary engines never pay for profiling.
    pub(crate) fn with_sink(&self, sink: arc_trace::ProfileSink) -> Engine<'c> {
        Engine {
            profile: Some(sink),
            ..self.shallow_copy()
        }
    }

    /// A shallow copy with a span sink attached: every evaluation context
    /// records spans into `sink` (implying span recording), so the
    /// `span_trace_*` exporters can drain them afterwards.
    pub(crate) fn with_span_sink(&self, sink: arc_trace::SpanSink) -> Engine<'c> {
        Engine {
            spans: Ok(true),
            span_sink: Some(sink),
            ..self.shallow_copy()
        }
    }

    /// Inject a threads-parse outcome (tests only: process environment
    /// variables are racy under parallel tests, so the typo path is tested
    /// by injection rather than by setting `ARC_THREADS`).
    #[cfg(test)]
    pub(crate) fn set_threads_result(
        &mut self,
        r: std::result::Result<usize, crate::error::EvalError>,
    ) {
        self.threads = r;
    }

    fn ctx<'a>(
        &'a self,
        defined: &'a HashMap<String, Relation>,
        abstracts: &'a HashMap<String, Collection>,
        redirect: Option<Redirect<'a>>,
        guard: Option<Arc<QueryGuard>>,
    ) -> Result<Ctx<'a>> {
        let threads = self.threads.clone()?;
        // An explicit sink (the span_trace_* path) wins; the bare knob
        // records into a per-context sink that is dropped at the end —
        // same recording cost, no export, which is what the ARC_SPANS=on
        // CI leg exercises.
        let spans = match (&self.span_sink, self.spans.clone()?) {
            (Some(sink), _) => Some(sink.clone()),
            (None, true) => {
                // Engine-cached sink, rewound per evaluation: the knob
                // prices recording, not per-query slab allocation.
                let sink = self
                    .knob_sink
                    .get_or_init(|| arc_trace::SpanSink::with_lanes(threads));
                sink.reset();
                Some(sink.clone())
            }
            (None, false) => None,
        };
        Ok(Ctx {
            catalog: self.catalog,
            conv: self.conventions,
            threads,
            trace: self.trace.clone()?,
            spans,
            lane: 0,
            guard,
            guard_tick: Cell::new(0),
            profile: self.profile.clone(),
            defined,
            abstracts,
            redirect,
            hash_state: RandomState::new(),
            join_indexes: RefCell::new(HashMap::new()),
            distinct_estimates: RefCell::new(HashMap::new()),
            scopes: RefCell::new(HashMap::new()),
            selections: RefCell::new(HashMap::new()),
            semi_builds: semijoin::SemiBuildCache::default(),
            probe_key: RefCell::new(Vec::new()),
        })
    }

    /// Evaluate a standalone query collection (no definitions).
    pub fn eval_collection(&self, c: &Collection) -> Result<Relation> {
        self.contained(|| {
            let guard = self.make_guard()?;
            let (defined, abstracts) = (HashMap::new(), HashMap::new());
            let ctx = self.ctx(&defined, &abstracts, None, guard)?;
            let timer = QueryTimer::start(ctx.spans.as_ref());
            let out = ctx.collection_relation(c, &mut Env::default());
            timer.finish(ctx.spans.as_ref());
            out
        })
    }

    /// Evaluate a boolean sentence (paper Fig 9).
    pub fn eval_sentence(&self, f: &Formula) -> Result<Truth> {
        self.contained(|| {
            let guard = self.make_guard()?;
            let (defined, abstracts) = (HashMap::new(), HashMap::new());
            let ctx = self.ctx(&defined, &abstracts, None, guard)?;
            let timer = QueryTimer::start(ctx.spans.as_ref());
            let out = ctx.formula_truth(f, &mut Env::default());
            timer.finish(ctx.spans.as_ref());
            out
        })
    }

    /// Evaluate a collection with pre-materialized definitions and abstract
    /// relations in scope (used by the fixpoint driver), one binding
    /// possibly [redirected](Redirect). The guard is the **program-level**
    /// one: deadline and budget span all strata.
    pub(crate) fn eval_with<'a>(
        &'a self,
        c: &'a Collection,
        defined: &'a HashMap<String, Relation>,
        abstracts: &'a HashMap<String, Collection>,
        guard: Option<&Arc<QueryGuard>>,
        redirect: Option<Redirect<'a>>,
    ) -> Result<Relation> {
        self.ctx(defined, abstracts, redirect, guard.cloned())?
            .collection_relation(c, &mut Env::default())
    }

    /// Evaluate a sentence with definitions in scope.
    pub(crate) fn eval_sentence_with(
        &self,
        f: &Formula,
        defined: &HashMap<String, Relation>,
        abstracts: &HashMap<String, Collection>,
        guard: Option<&Arc<QueryGuard>>,
    ) -> Result<Truth> {
        self.ctx(defined, abstracts, None, guard.cloned())?
            .formula_truth(f, &mut Env::default())
    }
}

/// One binding of the evaluated AST read under another name than it
/// spells: how the fixpoint driver evaluates a rule's *delta variants* —
/// the rule itself, one recursive occurrence reading last round's delta —
/// without cloning the rule per occurrence.
#[derive(Clone, Copy)]
pub(crate) struct Redirect<'a> {
    /// The binding, by identity (its address in the AST).
    pub(crate) binding: &'a arc_core::ast::Binding,
    /// The name it resolves instead of its own.
    pub(crate) name: &'a str,
}

/// Top-level query timing, attached at the engine entry points
/// (`eval_collection` / `eval_sentence` / `eval_program`): one always-on
/// sample into the `engine.query.latency` quantile histogram (gated only
/// by the process-wide `arc_trace::quantile::recording()` switch), plus
/// the enclosing `Query` span when span recording is on.
pub(crate) struct QueryTimer {
    wall: Option<std::time::Instant>,
    span: Option<u64>,
}

impl QueryTimer {
    pub(crate) fn start(spans: Option<&arc_trace::SpanSink>) -> QueryTimer {
        QueryTimer {
            wall: arc_trace::quantile::recording().then(std::time::Instant::now),
            span: spans.and_then(|s| s.start(0)),
        }
    }

    pub(crate) fn finish(self, spans: Option<&arc_trace::SpanSink>) {
        if let (Some(sink), Some(t0)) = (spans, self.span) {
            sink.complete(0, arc_trace::SpanKind::Query, arc_trace::OpId::scope(0), t0);
        }
        if let Some(t0) = self.wall {
            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            crate::metrics::query_latency().record_nanos(nanos);
        }
    }
}

/// The per-query evaluation context threaded through every pipeline stage.
pub(crate) struct Ctx<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) conv: Conventions,
    /// Parallelism budget: scopes with a partition axis scatter their
    /// outer scan across this many pool threads. Worker contexts are
    /// forked with `threads = 1`, so parallelism never nests.
    pub(crate) threads: usize,
    /// Whether execution records wall times (`ARC_TRACE`, default off):
    /// gates every clock read on the evaluation path, so the default
    /// engine never touches `Instant::now`.
    pub(crate) trace: bool,
    /// Span sink for hierarchical begin/end timeline events
    /// (`ARC_SPANS` / [`Engine::with_spans`] / the `span_trace_*`
    /// exporters); `None` on ordinary evaluation, which then pays one
    /// `Option` check per span seam. Cloned into every worker context —
    /// lanes write to disjoint ring buffers.
    pub(crate) spans: Option<arc_trace::SpanSink>,
    /// Worker lane this context executes on: 0 for the coordinator (and
    /// all sequential evaluation), the worker's lane id inside a
    /// partitioned scope. Stamps spans and morsel events.
    pub(crate) lane: usize,
    /// The per-query resource guard (deadline, budget, cancellation,
    /// fault plan); `None` on unguarded evaluation, which then pays one
    /// `Option` check per seam. Shared (`Arc`) with every worker context
    /// so trips and memory charges are query-global.
    pub(crate) guard: Option<Arc<QueryGuard>>,
    /// Amortization tick for [`Ctx::guard_step`]: the cooperative check
    /// runs every [`GUARD_TICK`] enumeration steps, not every step.
    pub(crate) guard_tick: Cell<u32>,
    /// Per-operator actuals sink, when this evaluation is profiled (see
    /// [`profile`]); `None` on ordinary evaluation. Cloned into every
    /// worker context the parallel executor forks — all tallies merge
    /// into one profile.
    pub(crate) profile: Option<arc_trace::ProfileSink>,
    /// Materialized intensional relations (views/CTEs/fixpoint results).
    pub(crate) defined: &'a HashMap<String, Relation>,
    /// Abstract relations: checked in context, never materialized.
    pub(crate) abstracts: &'a HashMap<String, Collection>,
    /// The one binding that reads another source than it names (a
    /// semi-naive delta variant), if this evaluation has one.
    pub(crate) redirect: Option<Redirect<'a>>,
    /// Hasher of equi-join keys for this evaluation: hash-index builds
    /// and probes (coordinator and workers alike) must agree on it.
    pub(crate) hash_state: RandomState,
    /// Per-query cache of equi-join hash indexes, keyed by relation
    /// address + key columns (addresses are stable for the `Ctx` lifetime;
    /// see `Ctx::join_index`). A relation probed by two scopes (or by
    /// scopes compiled under two layouts) is indexed once; decorrelated
    /// boolean scopes skip the re-entry entirely and probe
    /// [`Ctx::semi_builds`] instead.
    pub(crate) join_indexes: quantifier::JoinIndexCache,
    /// Per-query cache of distinct-key estimates, feeding the planner's
    /// greedy join ordering for relations without statistics. Keyed like
    /// `join_indexes`, by relation address + key columns: the relation is
    /// borrowed from the catalog or `defined` for `'a`, so its address
    /// stays its own while this `Ctx` (or a worker's snapshot) lives, and
    /// an estimate depends on nothing but its rows and the columns.
    pub(crate) distinct_estimates: RefCell<HashMap<(usize, Vec<usize>), usize>>,
    /// Compiled scopes — sources resolved, plan fetched, every name
    /// resolved to a slot — keyed by scope identity, role and frame
    /// layout (see [`scope`]). A correlated scope re-entered once per
    /// outer row compiles on the first entry only.
    pub(crate) scopes: RefCell<HashMap<scope::ScopeKey, Rc<scope::Scope<'a>>>>,
    /// Per-query cache of vectorized scan selections, keyed by relation
    /// address + the addresses of the filters the selection applies
    /// (pinned for the `Ctx` lifetime, see `Ordered::selection_key`).
    /// Correlated scopes that re-enter per outer row recompute nothing:
    /// the selection of a constant-filter scan is outer-independent by
    /// construction.
    pub(crate) selections: SelectionCache,
    /// Build-once key sets of decorrelated boolean scopes, keyed by scope
    /// identity and build plan and shared — through an `Arc` — with every
    /// worker context the parallel executor forks, so all workers probe
    /// the same build (see [`semijoin`]).
    pub(crate) semi_builds: semijoin::SemiBuildCache,
    /// Scratch for the semi-join probe key, reused across outer rows.
    pub(crate) probe_key: RefCell<Vec<arc_core::value::Key>>,
}

/// Guard seams: how the evaluation pipeline observes the per-query
/// [`QueryGuard`]. Three shapes, by cost profile:
///
/// * **tick seams** ([`Ctx::guard_step`]) — per-environment, so the
///   check is amortized over [`GUARD_TICK`] steps;
/// * **check seams** ([`Ctx::guard_at`]) — per-morsel / per-round, so
///   the full check (and any armed fault) runs every time;
/// * **admission seams** ([`Ctx::guard_admit`]) — before an
///   allocation-heavy build, charging the estimate against the budget;
///   denial is *graceful*: the caller degrades to its streaming path.
impl Ctx<'_> {
    /// Full cooperative check at a named seam (morsel claim, fixpoint
    /// round): fires any armed fault for this seam, then surfaces a
    /// tripped/expired/cancelled guard as its structured error.
    pub(crate) fn guard_at(&self, at: &'static str) -> Result<()> {
        guard_check_at(self.guard.as_ref(), at)
    }

    /// Amortized cooperative check on the enumeration hot path: one
    /// `Option` check when unguarded; a `Cell` bump plus a check every
    /// [`GUARD_TICK`] environments when guarded (every step while a
    /// fault plan is armed, so injection offsets stay deterministic).
    #[inline]
    pub(crate) fn guard_step(&self) -> Result<()> {
        let Some(g) = self.guard.as_ref() else {
            return Ok(());
        };
        if g.fault_armed() {
            return guard_check_at(self.guard.as_ref(), seam::ENUMERATE);
        }
        let t = self.guard_tick.get().wrapping_add(1);
        self.guard_tick.set(t);
        if !t.is_multiple_of(GUARD_TICK) {
            return Ok(());
        }
        g.check().map_err(trip_error)
    }

    /// Admission control for an allocation-heavy build at seam `at`,
    /// charging `bytes` (a coarse deterministic estimate) against the
    /// memory budget. Returns `true` when the build may proceed; `false`
    /// when the budget denies it — the caller **degrades** to its
    /// streaming path (counted in `guard.degradations`), it does not
    /// fail. An armed `Panic` fault at this seam panics (contained at
    /// the engine boundary); a `Budget` fault denies this admission; a
    /// `Cancel` fault trips cancellation (observed at the next check).
    pub(crate) fn guard_admit(&self, at: &'static str, bytes: usize) -> bool {
        let Some(g) = self.guard.as_ref() else {
            return true;
        };
        if g.fault_armed() {
            match g.fire_fault(at) {
                Some(FaultKind::Panic) => {
                    crate::metrics::guard_faults().inc();
                    panic!("injected fault at seam `{at}`")
                }
                Some(FaultKind::Budget) => {
                    crate::metrics::guard_faults().inc();
                    g.note_degradation();
                    crate::metrics::guard_degradations().inc();
                    return false;
                }
                Some(FaultKind::Cancel) => {
                    crate::metrics::guard_faults().inc();
                    g.trip(Trip::Cancelled);
                }
                None => {}
            }
        }
        if g.try_reserve(bytes) {
            return true;
        }
        g.note_degradation();
        crate::metrics::guard_degradations().inc();
        false
    }
}
