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
//! | `env`          | runtime environments: borrowed row frames + name layouts  |
//! | [`partition`]  | body analysis (re-exported from [`arc_plan::analysis`])   |
//! | `slots`        | slot-resolved expressions (names → `(frame, column)`)     |
//! | `scope`        | compiled scopes: resolve, plan, materialize, cache        |
//! | `scalar`       | scalar & predicate evaluation, comparisons, arithmetic    |
//! | `formula`      | boolean formula / sentence evaluation                     |
//! | `quantifier`   | the binding loop: executes compiled step pipelines        |
//! | `semijoin`     | decorrelated `∃`/`¬∃`: build-once set-level semi/anti-join|
//! | `lateral`      | lateral steps: nested collections memoized by outer values|
//! | `parallel`     | partitioned (morsel-driven) scope execution via `arc-exec`|
//! | `aggregate`    | grouping scopes: one-pass accumulators, per-group verdicts|
//! | `output`       | output assembly: head-tuple construction and emission     |
//! | `join`         | outer-join annotation trees (`left`/`full`, §2.11)        |
//! | `knobs`        | the `ARC_*` environment knobs and their parsers           |
//!
//! The **plan seam** sits in front of the binding loop: every quantifier
//! scope is described to [`arc_plan::plan_scope`] and the returned physical
//! plan — binding order, per-step scan/hash-probe/external/abstract
//! access, pushed-down filters — is compiled by `scope` into a
//! slot-resolved pipeline that `quantifier` executes. Plans are
//! **cached** globally by scope shape (see [`arc_plan::cache`]: constants
//! are typed holes, so statements that differ only in their constants
//! share plans) and compiled scopes per `Ctx` by scope identity + frame
//! layout, so correlated scopes plan and resolve names once, not once per
//! outer row.
//! Boolean `∃`/`¬∃` scopes whose correlation is a pure equi-join go
//! further: `semijoin` evaluates the
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

pub(crate) mod aggregate;
pub(crate) mod env;
pub(crate) mod formula;
pub(crate) mod index;
pub(crate) mod join;
pub(crate) mod knobs;
pub(crate) mod lateral;
pub(crate) mod output;
pub(crate) mod parallel;
pub(crate) mod profile;
pub(crate) mod quantifier;
pub(crate) mod scalar;
pub(crate) mod scope;
pub(crate) mod semijoin;
pub(crate) mod slots;
pub(crate) mod vector;

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
pub use knobs::QueryOptions;

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
use std::time::{Duration, Instant};

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

/// The evaluation engine: a catalog, a convention profile, and the
/// [`QueryOptions`] every query on it runs under (parallelism, recording,
/// guard limits). No option picks an algorithm: decorrelation, columnar
/// kernels and ordered indexes are always on, and each build falls back to
/// its streaming path only when the guard denies it (see
/// [`Engine::with_mem_budget`]).
pub struct Engine<'c> {
    pub(crate) catalog: &'c Catalog,
    /// The convention profile queries are interpreted under (§2.6/§2.7).
    pub conventions: Conventions,
    /// The query environment, parsed once from the `ARC_*` variables in
    /// [`Engine::new`]. Stored as a `Result` so a malformed value
    /// surfaces as the same [`EvalError::Config`] from every entry point
    /// instead of panicking at construction.
    options: Result<QueryOptions>,
    /// Cooperative cancellation state shared with every
    /// [`CancelHandle`] this engine hands out. Guards are only built
    /// when a handle was requested (or a deadline/budget/fault is
    /// configured), so engines that never cancel pay nothing.
    cancel: Arc<CancelState>,
    /// Lazily-built sink for the bare `spans` option: allocated once per
    /// engine on the first evaluation and [`reset`](arc_trace::SpanSink::reset)
    /// per evaluation, so `ARC_SPANS=on` pays ring-buffer *recording*
    /// per query, not ring-buffer *allocation* (the slabs are hundreds
    /// of KB for a multi-lane sink). Never read back — the option
    /// records and drops; the `span_trace_*` exporters pass a sink of
    /// their own, which always wins.
    knob_sink: std::sync::OnceLock<arc_trace::SpanSink>,
}

impl<'c> Engine<'c> {
    /// Create an engine over a catalog with the given conventions.
    ///
    /// Its [`QueryOptions`] are read once, here, from the `ARC_*`
    /// environment variables, so the full test suite can be re-run under,
    /// say, `ARC_THREADS=4` without touching any call site. A malformed
    /// value is reported by every entry point as
    /// [`EvalError::Config`] naming the variable; a `with_*` builder does
    /// not mask it.
    pub fn new(catalog: &'c Catalog, conventions: Conventions) -> Self {
        Engine {
            catalog,
            conventions,
            options: QueryOptions::from_vars(|var| std::env::var(var).ok()),
            cancel: Arc::new(CancelState::default()),
            knob_sink: std::sync::OnceLock::new(),
        }
    }

    /// The options every query on this engine runs under (an `Err`
    /// reproduces the configuration problem every entry point reports).
    pub fn options(&self) -> Result<QueryOptions> {
        self.options.clone()
    }

    /// Change one option (builder style); a configuration error stays.
    fn set(mut self, f: impl FnOnce(&mut QueryOptions)) -> Self {
        if let Ok(options) = &mut self.options {
            f(options);
        }
        self
    }

    /// Override the parallelism (builder style); `1` (or `0`) means
    /// sequential. Clamped to [`arc_exec::MAX_THREADS`], the same bound
    /// the `ARC_THREADS` parser enforces — an oversized value must never
    /// be able to exhaust OS threads and abort the process.
    pub fn with_threads(self, threads: usize) -> Self {
        self.set(|o| o.threads = threads.clamp(1, arc_exec::MAX_THREADS))
    }

    /// Override execution tracing (builder style): `true` makes
    /// evaluation time index/selection/semi-join builds into the
    /// [`arc_trace`] registry and stamp wall time onto execution
    /// profiles, exactly like running under `ARC_TRACE=on` — tests use
    /// this to compare both modes without touching the (racy) process
    /// environment. Off (the default) keeps
    /// the hot path free of clock reads; row/call actuals in
    /// [`Engine::profile_collection`] /
    /// [`Engine::explain_analyze_collection`] are
    /// gathered either way.
    pub fn with_trace(self, trace: bool) -> Self {
        self.set(|o| o.trace = trace)
    }

    /// Override hierarchical span recording (builder style): `true` makes
    /// every evaluation record begin/end spans (query → plan → scope →
    /// semi-join build → step → morsel) into bounded per-lane ring
    /// buffers, exactly like running under `ARC_SPANS=on`. Use
    /// [`Engine::span_trace_collection`] /
    /// `span_trace_program` to get the spans back as a Chrome-trace
    /// timeline; with only this option the spans are recorded and dropped,
    /// which is what the `ARC_SPANS=on` CI leg exercises (recording cost
    /// without export cost). Off (the
    /// default) keeps every span seam to a single `Option` check.
    pub fn with_spans(self, spans: bool) -> Self {
        self.set(|o| o.spans = spans)
    }

    /// Set a per-query deadline (builder style): every evaluation on this
    /// engine must finish within `timeout` of its start or it surfaces
    /// [`EvalError::DeadlineExceeded`] — cooperatively, within one morsel
    /// of work of the deadline passing. Exactly like running under
    /// `ARC_TIMEOUT_MS=<millis>`.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.set(|o| o.timeout = Some(timeout))
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
    pub fn with_mem_budget(self, bytes: usize) -> Self {
        self.set(|o| o.mem_budget = (bytes > 0).then_some(bytes))
    }

    /// Arm a deterministic fault-injection plan (builder style): the
    /// `plan.at`-th visit to seam `plan.seam` fires `plan.kind` (a panic,
    /// a budget trip, or a cancellation). Exactly like running under
    /// `ARC_FAULT=<seam>:<n>[:<kind>]`; tests and the CI smoke leg use it
    /// to prove every error path leaves the engine reusable.
    pub fn with_fault(self, plan: FaultPlan) -> Self {
        self.set(|o| o.fault = Some(plan))
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

    /// Inject the options outcome (tests only: process environment
    /// variables are racy under parallel tests, so a malformed value is
    /// tested by injection rather than by setting `ARC_*`).
    #[cfg(test)]
    pub(crate) fn set_options(&mut self, options: Result<QueryOptions>) {
        self.options = options;
    }

    /// Run one engine entry — a query, a sentence, or a program with all
    /// its strata — under one [`Entry`]: the options (or their
    /// configuration error), the per-query guard — `None` when no
    /// deadline, budget, fault plan, or cancel handle is configured, so
    /// unguarded evaluation stays a handful of `Option` checks — and the
    /// recording sinks. An explicit span sink (the `span_trace_*` path)
    /// wins; the bare `spans` option records into the engine's cached
    /// sink, rewound here — same recording cost, no export, which is what
    /// the `ARC_SPANS=on` CI leg exercises.
    ///
    /// The entry is one sample of the `engine.query.latency` quantile
    /// histogram (gated only by `arc_trace::quantile::recording()`) and,
    /// when spans record, one enclosing `Query` span. A panic inside —
    /// a worker's or an injected one — is contained here and surfaces as
    /// [`EvalError::WorkerPanic`]; terminal guard trips are counted into
    /// the metrics registry. The engine and its pool stay usable
    /// afterwards — per-engine caches recover via their poison-clearing
    /// locks.
    pub(crate) fn entered<T>(
        &self,
        profile: Option<arc_trace::ProfileSink>,
        spans: Option<arc_trace::SpanSink>,
        f: impl FnOnce(&Entry) -> Result<T>,
    ) -> Result<T> {
        let run = || {
            let opts = self.options()?;
            let guarded =
                opts.timeout.is_some() || opts.mem_budget.is_some() || opts.fault.is_some();
            let guard = (guarded || self.cancel.armed()).then(|| {
                Arc::new(QueryGuard::new(
                    opts.timeout.map(|d| Instant::now() + d),
                    opts.mem_budget,
                    opts.fault,
                    self.cancel.armed().then(|| self.cancel.clone()),
                ))
            });
            let spans = spans.or_else(|| {
                opts.spans.then(|| {
                    let sink = self
                        .knob_sink
                        .get_or_init(|| arc_trace::SpanSink::with_lanes(opts.threads));
                    sink.reset();
                    sink.clone()
                })
            });
            let wall = arc_trace::quantile::recording().then(Instant::now);
            let span = spans.as_ref().and_then(|s| s.start(0));
            let entry = Entry {
                opts,
                guard,
                profile,
                spans,
            };
            let out = f(&entry);
            if let (Some(sink), Some(t0)) = (&entry.spans, span) {
                sink.complete(0, arc_trace::SpanKind::Query, arc_trace::OpId::scope(0), t0);
            }
            if let Some(t0) = wall {
                let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                crate::metrics::query_latency().record_nanos(nanos);
            }
            out
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .unwrap_or_else(|p| Err(EvalError::WorkerPanic(arc_guard::panic_message(p.as_ref()))));
        match &out {
            Err(EvalError::Cancelled) => crate::metrics::query_cancelled().inc(),
            Err(EvalError::DeadlineExceeded) => crate::metrics::query_timeout().inc(),
            _ => {}
        }
        out
    }

    /// Evaluate a standalone query collection (no definitions).
    pub fn eval_collection(&self, c: &Collection) -> Result<Relation> {
        self.collection_recorded(c, None, None)
    }

    /// [`Engine::eval_collection`] recording into the given sinks (the
    /// `profile_*` and `span_trace_*` entry points).
    pub(crate) fn collection_recorded(
        &self,
        c: &Collection,
        profile: Option<arc_trace::ProfileSink>,
        spans: Option<arc_trace::SpanSink>,
    ) -> Result<Relation> {
        self.entered(profile, spans, |entry| {
            self.eval_with(c, &HashMap::new(), &HashMap::new(), entry, None)
        })
    }

    /// Evaluate a boolean sentence (paper Fig 9).
    pub fn eval_sentence(&self, f: &Formula) -> Result<Truth> {
        self.entered(None, None, |entry| {
            self.eval_sentence_with(f, &HashMap::new(), &HashMap::new(), entry)
        })
    }

    /// The state one evaluation shares with every worker it forks.
    fn shared<'a>(
        &'a self,
        entry: &Entry,
        defined: &'a HashMap<String, Relation>,
        abstracts: &'a HashMap<String, Collection>,
        redirect: Option<Redirect<'a>>,
    ) -> QueryShared<'a> {
        QueryShared {
            catalog: self.catalog,
            conv: self.conventions,
            defined,
            abstracts,
            redirect,
            hash_state: RandomState::new(),
            semi_builds: semijoin::SemiBuildCache::default(),
            profile: entry.profile.clone(),
            spans: entry.spans.clone(),
            guard: entry.guard.clone(),
        }
    }

    /// Evaluate a collection with pre-materialized definitions and abstract
    /// relations in scope (used by the fixpoint driver), one binding
    /// possibly [redirected](Redirect), under the entry's options, guard
    /// and sinks. For a program the entry is the **program-level** one:
    /// deadline and budget span all strata.
    pub(crate) fn eval_with(
        &self,
        c: &Collection,
        defined: &HashMap<String, Relation>,
        abstracts: &HashMap<String, Collection>,
        entry: &Entry,
        redirect: Option<Redirect<'_>>,
    ) -> Result<Relation> {
        let shared = self.shared(entry, defined, abstracts, redirect);
        Ctx::new(entry.opts, &shared).collection_relation(c, &mut Env::default())
    }

    /// Evaluate a sentence with definitions in scope.
    pub(crate) fn eval_sentence_with(
        &self,
        f: &Formula,
        defined: &HashMap<String, Relation>,
        abstracts: &HashMap<String, Collection>,
        entry: &Entry,
    ) -> Result<Truth> {
        let shared = self.shared(entry, defined, abstracts, None);
        Ctx::new(entry.opts, &shared).formula_truth(f, &mut Env::default())
    }
}

/// What one engine entry — a query, a sentence, or a whole program with
/// all its strata — fixes for every evaluation it runs: the options, the
/// guard, and the recording sinks.
pub(crate) struct Entry {
    pub(crate) opts: QueryOptions,
    pub(crate) guard: Option<Arc<QueryGuard>>,
    /// Per-operator actuals sink: the `EXPLAIN ANALYZE` /
    /// [`Engine::profile_collection`] path; `None` for ordinary
    /// evaluation, which then pays only an `Option` check per row.
    pub(crate) profile: Option<arc_trace::ProfileSink>,
    /// Span sink: the `span_trace_*` exporters' own, or the engine's
    /// cached one under the bare `spans` option.
    pub(crate) spans: Option<arc_trace::SpanSink>,
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

/// What one evaluation's coordinator shares, by reference, with every
/// worker context it forks: built once per evaluation by the engine, and
/// never copied field by field.
pub(crate) struct QueryShared<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) conv: Conventions,
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
    /// Build-once key sets of decorrelated boolean scopes, keyed by scope
    /// identity and build plan: every worker probes — and lazily
    /// populates — the same builds (see `semijoin`).
    pub(crate) semi_builds: semijoin::SemiBuildCache,
    /// Per-operator actuals sink, when this evaluation is profiled (see
    /// `profile`): every worker's tallies merge into one profile.
    pub(crate) profile: Option<arc_trace::ProfileSink>,
    /// Span sink for hierarchical begin/end timeline events; `None` on
    /// ordinary evaluation, which then pays one `Option` check per span
    /// seam. Lanes write to disjoint ring buffers.
    pub(crate) spans: Option<arc_trace::SpanSink>,
    /// The per-query resource guard (deadline, budget, cancellation,
    /// fault plan); `None` on unguarded evaluation, which then pays one
    /// `Option` check per seam. Trips and memory charges are query-global.
    pub(crate) guard: Option<Arc<QueryGuard>>,
}

/// The per-context evaluation state threaded through every pipeline
/// stage: the options this context runs under, its lane, its caches, and
/// one pointer to the [`QueryShared`] state of the evaluation.
pub(crate) struct Ctx<'a> {
    /// The entry's options; a worker context runs with `threads = 1`, so
    /// parallelism never nests. `trace` gates every clock read on the
    /// evaluation path, so the default engine never touches
    /// `Instant::now`.
    pub(crate) opts: QueryOptions,
    /// Worker lane this context executes on: 0 for the coordinator (and
    /// all sequential evaluation), the worker's lane id inside a
    /// partitioned scope. Stamps spans and morsel events.
    pub(crate) lane: usize,
    /// Amortization tick for [`Ctx::guard_step`]: the cooperative check
    /// runs every [`GUARD_TICK`] enumeration steps, not every step.
    pub(crate) guard_tick: Cell<u32>,
    /// Everything shared with the coordinator and its other workers.
    pub(crate) shared: &'a QueryShared<'a>,
    /// Per-query cache of equi-join hash indexes, keyed by relation
    /// address + key columns (addresses are stable for the `Ctx` lifetime;
    /// see `Ctx::join_index`). A relation probed by two scopes (or by
    /// scopes compiled under two layouts) is indexed once; decorrelated
    /// boolean scopes skip the re-entry entirely and probe
    /// [`QueryShared::semi_builds`] instead.
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
    /// layout (see `scope`). A correlated scope re-entered once per
    /// outer row compiles on the first entry only.
    pub(crate) scopes: RefCell<HashMap<scope::ScopeKey, Rc<scope::Scope<'a>>>>,
    /// Per-query cache of vectorized scan selections, keyed by relation
    /// address + the addresses of the filters the selection applies
    /// (pinned for the `Ctx` lifetime, see `Ordered::selection_key`).
    /// Correlated scopes that re-enter per outer row recompute nothing:
    /// the selection of a constant-filter scan is outer-independent by
    /// construction.
    pub(crate) selections: SelectionCache,
    /// Scratch for the semi-join probe key, reused across outer rows.
    pub(crate) probe_key: RefCell<Vec<arc_core::value::Key>>,
}

impl<'a> Ctx<'a> {
    /// A context with empty caches: the coordinator's, or a worker's
    /// before its snapshot is copied in. The one place that lists the
    /// fields.
    pub(crate) fn new(opts: QueryOptions, shared: &'a QueryShared<'a>) -> Ctx<'a> {
        Ctx {
            opts,
            lane: 0,
            guard_tick: Cell::new(0),
            shared,
            join_indexes: RefCell::new(HashMap::new()),
            distinct_estimates: RefCell::new(HashMap::new()),
            scopes: RefCell::new(HashMap::new()),
            selections: RefCell::new(HashMap::new()),
            probe_key: RefCell::new(Vec::new()),
        }
    }
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
        guard_check_at(self.shared.guard.as_ref(), at)
    }

    /// Amortized cooperative check on the enumeration hot path: one
    /// `Option` check when unguarded; a `Cell` bump plus a check every
    /// [`GUARD_TICK`] environments when guarded (every step while a
    /// fault plan is armed, so injection offsets stay deterministic).
    #[inline]
    pub(crate) fn guard_step(&self) -> Result<()> {
        let Some(g) = self.shared.guard.as_ref() else {
            return Ok(());
        };
        if g.fault_armed() {
            return guard_check_at(Some(g), seam::ENUMERATE);
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
        let Some(g) = self.shared.guard.as_ref() else {
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
