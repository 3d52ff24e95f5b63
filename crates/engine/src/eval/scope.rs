//! Compiled scopes: names → sources, plan, and slots — once per scope.
//!
//! The first time an evaluation enters a quantifier scope under a given
//! frame layout, [`Ctx::emit_scope`] / [`Ctx::bool_scope`] compile it:
//!
//! 1. **partition** the body by predicate role ([`arc_plan::analysis`]) and
//!    reject the shapes no scope of that role can have;
//! 2. **resolve** binding sources by name ([`Ctx::resolve_bindings`]);
//! 3. fetch or compute the **physical plan** ([`Ctx::scope_plan`] — the
//!    global plan cache keys by the scope's shape and its outer
//!    *availability*, neither of which depends on frame positions or on
//!    the values of constants, so a cached [`ScopePlan`] serves the same
//!    scope at any nesting depth, in any statement);
//! 4. turn the plan into executable steps and resolve **every** attribute
//!    reference the scope will ever evaluate — pushed-down and leaf
//!    filters, probe expressions, boolean subformulas, head assignments,
//!    grouping keys, aggregate arguments — to `(frame, column)` slots
//!    against the layout each one runs under ([`super::slots`]).
//!
//! The result is cached on the [`Ctx`] under *(scope identity, role,
//! layout identity, stack depth)*. A correlated scope re-entered once per
//! outer row, or once per fixpoint-free re-evaluation of a lateral
//! collection, pays a hash lookup; nothing about names happens again.
//! The layout identity is what keeps slots out of the global plan cache:
//! outer references resolve to *stack positions*, and the same scope can
//! sit at two depths (or, for an abstract definition's body, under two
//! call sites).

use super::aggregate::{folds_from_batch, AggSpec};
use super::env::{Env, Layout, LayoutOuter, Names};
use super::join::JoinPlan;
use super::output::{HeadCtx, HeadPlan, Partial};
use super::partition::{partition, Parts};
use super::quantifier::{HashPlan, Ordered, Src};
use super::slots::{CFormula, CPred, CScalar, Resolver};
use super::vector::Kernel;
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::external::ExternalRelation;
use crate::relation::Relation;
use arc_core::ast::*;
use arc_plan::analysis::free_vars;
use arc_plan::logical::{eq_sides, other_side};
pub(crate) use arc_plan::QuantRef;
use arc_plan::{
    cache, Access, Basis, BindingSpec, DistinctEstimator, OuterScope, PlanError, Planned,
    ScopePlan, ScopeRequest, ScopeSpec, SourceSpec,
};
use std::rc::Rc;
use std::sync::Arc;

/// Row-sample cap for the planner's distinct-key estimates.
const DISTINCT_SAMPLE: usize = 256;

/// What a scope is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Role {
    /// A scope on a collection's emission spine.
    Emit,
    /// A boolean `∃` scope, decorrelated when its shape and plan allow.
    Bool,
    /// A boolean `∃` scope pinned to the per-outer-row nested loop (what
    /// a decorrelated scope falls back to when its build fails).
    BoolNested,
}

/// Key of the per-`Ctx` compiled-scope cache: *(body address, role,
/// layout identity, stack depth)*. Addresses are stable because the AST
/// outlives the evaluation context.
pub(crate) type ScopeKey = (usize, Role, usize, usize);

/// A planned step pipeline, ready to run.
pub(crate) struct Steps<'a> {
    pub(crate) plan: Arc<ScopePlan>,
    pub(crate) steps: Vec<Ordered<'a>>,
    /// Filters over outer variables only: checked once per entry.
    pub(crate) prelude: Vec<CPred<'a>>,
    /// Filters checked once every step has bound.
    pub(crate) leaf: Vec<CPred<'a>>,
}

/// How a scope's environments are produced.
pub(crate) enum Pipeline<'a> {
    Steps(Steps<'a>),
    /// An outer-join annotation tree (§2.11).
    Join(JoinPlan<'a>),
}

/// What a scope does with each surviving environment.
pub(crate) enum Body<'a> {
    /// Emit one head tuple, or descend into the emission spine.
    Rows {
        head: HeadPlan<'a>,
        spine: Option<&'a Formula>,
        /// The head is gathered from the last step's batch of row ids
        /// (`Sink::Gather`): that step [batches](Ordered::batches), and
        /// only a head of slots, constants and spine-assigned values
        /// follows it — no leaf filter, no boolean subformula, no spine.
        gathers: bool,
    },
    /// Fold into groups; emit (or test) per group.
    Groups(GroupPlan<'a>),
    /// Boolean scope: one survivor decides.
    Exists,
    /// Boolean scope answered by a build-once key set: the pipeline is
    /// the *build* side (see [`super::semijoin`]).
    Semi(SemiPlan<'a>),
}

/// A grouping scope's per-member and per-group work.
pub(crate) struct GroupPlan<'a> {
    /// The grouping key, per member.
    pub(crate) keys: Vec<CScalar<'a>>,
    /// The per-group tests and assignments, over the representative
    /// member's frames.
    pub(crate) tests: GroupTests<'a>,
    /// The scope body, kept to recompile `tests` against the outer frames
    /// alone for `γ∅` over an empty join — a group with no member, whose
    /// attribute references can only reach outward.
    pub(crate) body: &'a Formula,
    /// Members fold from the last step's row ids (`Sink::Fold`): that
    /// step [yields row ids](Ordered::yields_ids), no leaf filter or
    /// boolean subformula follows it, and every key and aggregate
    /// argument is a slot or a constant. Otherwise every member folds
    /// through its environment.
    pub(crate) batched: bool,
}

impl<'a> GroupPlan<'a> {
    fn compile(
        g: &'a Grouping,
        body: &'a Formula,
        parts: &Parts<'a>,
        names: &[Names<'a>],
        pipeline: &Pipeline<'a>,
        head: Option<(&HeadCtx<'a>, &Partial)>,
    ) -> GroupPlan<'a> {
        let r = Resolver::tuple(names);
        let keys: Vec<CScalar<'a>> = g.keys.iter().map(|k| r.attr(k)).collect();
        let tests = GroupTests::compile(parts, names, head);
        let batched = match pipeline {
            Pipeline::Steps(p) => {
                p.leaf.is_empty()
                    && parts.pre_bool.is_empty()
                    && p.steps.last().is_some_and(Ordered::yields_ids)
                    && folds_from_batch(&keys, &tests.aggs)
            }
            Pipeline::Join(_) => false,
        };
        GroupPlan {
            keys,
            tests,
            body,
            batched,
        }
    }

    /// The tests to run over a group: the compiled ones — or, for the
    /// member-less `γ∅` group (`empty`), a recompilation against the
    /// outer frames `names`, parked in `spare`.
    pub(crate) fn tests_for<'t>(
        &'t self,
        empty: bool,
        names: &[Names<'a>],
        head: Option<(&HeadCtx<'a>, &Partial)>,
        spare: &'t mut Option<GroupTests<'a>>,
    ) -> &'t GroupTests<'a> {
        if !empty {
            return &self.tests;
        }
        // The head name "\u{0}" cannot occur: a boolean scope has no
        // assignments.
        let parts = partition(self.body, head.map_or("\u{0}", |(h, _)| h.name));
        spare.insert(GroupTests::compile(&parts, names, head))
    }
}

/// The group-context half of a grouping scope, resolved against one
/// layout.
pub(crate) struct GroupTests<'a> {
    pub(crate) aggs: Vec<AggSpec<'a>>,
    pub(crate) agg_tests: Vec<CPred<'a>>,
    pub(crate) post_bool: Vec<CFormula<'a>>,
    /// Head assembly (emitting scopes only).
    pub(crate) head: Option<HeadPlan<'a>>,
}

impl<'a> GroupTests<'a> {
    pub(crate) fn compile(
        parts: &Parts<'a>,
        names: &[Names<'a>],
        head: Option<(&HeadCtx<'a>, &Partial)>,
    ) -> GroupTests<'a> {
        let mut r = Resolver::group(names);
        let agg_tests = parts.agg_tests.iter().map(|p| r.pred(p)).collect();
        let post_bool = parts.post_bool.iter().map(|f| r.formula(f)).collect();
        let assigns: Vec<(&'a str, CScalar<'a>)> = parts
            .assigns
            .iter()
            .chain(&parts.agg_assigns)
            .map(|(attr, expr)| (*attr, r.scalar(expr)))
            .collect();
        let aggs = r.aggs.take().expect("group resolver");
        let head = head.map(|(head, partial)| HeadPlan::compile(head, partial, assigns, &aggs));
        GroupTests {
            aggs,
            agg_tests,
            post_bool,
            head,
        }
    }
}

/// The probe side of a decorrelated boolean scope.
pub(crate) struct SemiPlan<'a> {
    /// Outer-only filters: checked per outer row before probing.
    pub(crate) probe_filters: Vec<CPred<'a>>,
    /// The correlated key.
    pub(crate) keys: SemiKeys<'a>,
    /// The most distinct keys the build can hold — what its admission
    /// reserves for ([`SemiKeys::bounds`]).
    pub(crate) max_keys: usize,
    /// The key set's starting capacity: the largest relation the key
    /// expressions read, at most `max_keys` and the planner's estimate
    /// of the distinct keys, at least one.
    pub(crate) capacity: usize,
    /// The build this scope probes, memoized on its first probe so every
    /// later outer row touches neither the evaluation's store nor its
    /// lock (a `OnceLock`, like [`Ordered::index`], so the scope stays
    /// `Sync`).
    pub(crate) entry: std::sync::OnceLock<Arc<super::semijoin::SemiEntry>>,
}

/// The correlated key of a decorrelated boolean scope.
pub(crate) enum SemiKeys<'a> {
    /// Correlated equalities `L = O`, one key component each (none: the
    /// build is a pure non-emptiness check).
    Equi(Vec<SemiKey<'a>>),
    /// The one key of a null guard `L = O ∨ L is null ∨ O is null`: see
    /// [`super::semijoin`]'s three-valued logic.
    NullAware(SemiKey<'a>),
}

impl<'a> SemiKeys<'a> {
    pub(crate) fn as_slice(&self) -> &[SemiKey<'a>] {
        match self {
            SemiKeys::Equi(keys) => keys,
            SemiKeys::NullAware(key) => std::slice::from_ref(key),
        }
    }

    /// An upper bound on the distinct keys a build over `steps`, bound
    /// from stack position `base` on, can produce — the product of the
    /// row counts of the relation steps the build sides read, one when
    /// they read none (a keyless build holds one key) — and the largest
    /// of those counts, capped by the bound. A step of another source
    /// counts as one row: its size is not known before it runs.
    fn bounds(&self, steps: &[Ordered<'a>], base: usize) -> (usize, usize) {
        let rows = steps
            .iter()
            .enumerate()
            .filter_map(|(i, ob)| match &ob.source {
                Src::Rows(rel) if self.as_slice().iter().any(|k| k.build.reads(base + i)) => {
                    Some(rel.len())
                }
                _ => None,
            });
        let max_keys = rows.clone().fold(1, usize::saturating_mul);
        (max_keys, rows.max().unwrap_or(1).min(max_keys))
    }
}

/// Both sides of one correlated equality.
pub(crate) struct SemiKey<'a> {
    /// The outer side, evaluated per probed outer row.
    pub(crate) probe: CScalar<'a>,
    /// The scope-local side, evaluated per build environment.
    pub(crate) build: CScalar<'a>,
}

/// A compiled quantifier scope.
pub(crate) struct Scope<'a> {
    /// The scope's stable operator id ([`QuantRef::id`]).
    pub(crate) id: usize,
    /// Stack depth at entry: scope-local frames start here.
    pub(crate) base: usize,
    /// Names of the outer frames, then of this scope's own, in binding
    /// (plan) order.
    pub(crate) layout: Layout<'a>,
    pub(crate) pipeline: Pipeline<'a>,
    /// Boolean subformulas without scope-level aggregates, checked per
    /// surviving environment.
    pub(crate) pre_bool: Vec<CFormula<'a>>,
    pub(crate) body: Body<'a>,
}

/// A resolved binding source.
pub(crate) enum Resolved<'a> {
    /// A materialized relation — with the catalog's `ANALYZE` statistics
    /// when it *is* the catalog's relation (a same-named materialized
    /// definition shadows it, and the sketches describe the wrong rows
    /// then).
    Rel(&'a Relation, Option<&'a arc_stats::TableStats>),
    Ext(&'a ExternalRelation),
    Abs(&'a Collection),
    Nested(&'a Collection),
    /// A program definition this context plans but has not materialized
    /// (a plain `EXPLAIN` of the program, which runs nothing): a relation
    /// of unknown size, never executed.
    Unmaterialized(&'a Collection),
}

impl<'a> Resolved<'a> {
    /// The attribute names the source exposes, in column order.
    fn attrs(&self) -> &'a [String] {
        match *self {
            Resolved::Rel(rel, _) => &rel.schema,
            Resolved::Ext(ext) => &ext.schema,
            Resolved::Abs(c) | Resolved::Nested(c) | Resolved::Unmaterialized(c) => &c.head.attrs,
        }
    }
}

/// Live statistics for the planner: catalog `ANALYZE` sketches first
/// (cost model v2 — correlation-capped distinct counts, MCV/histogram
/// selectivities), then prefix-sample estimates, kept in the
/// evaluation's build store, as the distinct-count fallback for sources
/// without statistics (intensional results, small un-analyzed
/// relations). The one estimator the planner is given, for execution and
/// `EXPLAIN` alike.
struct CtxEstimator<'c, 'a> {
    ctx: &'c Ctx<'a>,
    resolved: &'c [Resolved<'a>],
}

impl CtxEstimator<'_, '_> {
    fn table_stats(&self, binding: usize) -> Option<&arc_stats::TableStats> {
        match self.resolved[binding] {
            Resolved::Rel(_, stats) => stats,
            _ => None,
        }
    }
}

impl DistinctEstimator for CtxEstimator<'_, '_> {
    fn basis(&self, binding: usize) -> Basis {
        match self.resolved[binding] {
            Resolved::Rel(_, Some(_)) => Basis::Statistics,
            Resolved::Rel(_, None) => Basis::Sample,
            _ => Basis::None,
        }
    }

    fn distinct(&self, binding: usize, cols: &[usize]) -> Option<usize> {
        if let Some(stats) = self.table_stats(binding) {
            return Some(stats.distinct_cols(cols) as usize);
        }
        let Resolved::Rel(rel, _) = &self.resolved[binding] else {
            return None;
        };
        let builds = &self.ctx.shared.builds;
        let key = super::builds::key(rel, cols.to_vec());
        if let Some(d) = builds.get(|s| &mut s.distinct, &key) {
            return Some(d);
        }
        let d = rel.distinct_estimate(cols, DISTINCT_SAMPLE);
        Some(builds.publish(|s| &mut s.distinct, key, d))
    }

    fn selectivity(
        &self,
        binding: usize,
        col: usize,
        op: CmpOp,
        value: &arc_core::value::Value,
    ) -> Option<f64> {
        self.table_stats(binding)?.selectivity(col, op, value)
    }

    fn null_fraction(&self, binding: usize, col: usize) -> Option<f64> {
        let stats = self.table_stats(binding)?;
        Some(1.0 - stats.columns.get(col)?.non_null_fraction())
    }

    fn range_selectivity(
        &self,
        binding: usize,
        col: usize,
        lo: Option<(CmpOp, &arc_core::value::Value)>,
        hi: Option<(CmpOp, &arc_core::value::Value)>,
    ) -> Option<f64> {
        self.table_stats(binding)?.range_selectivity(col, lo, hi)
    }
}

impl<'a> Ctx<'a> {
    /// The compiled form of a scope on the emission spine of the
    /// collection `head` belongs to, with `partial` the head values the
    /// enclosing spine has assigned so far (which *columns* it has
    /// assigned is fixed by the scope's position, so it is part of what
    /// is compiled).
    pub(crate) fn emit_scope(
        &self,
        q: QuantRef<'a>,
        head: &HeadCtx<'a>,
        partial: &Partial,
        env: &Env<'a>,
    ) -> Result<Rc<Scope<'a>>> {
        self.cached_scope(q.body, Role::Emit, env, || {
            let parts = partition(q.body, head.name);
            match q.grouping {
                None => {
                    if let Some(p) = parts.agg_tests.first() {
                        return Err(EvalError::AggregateOutsideGrouping(p.to_string()));
                    }
                    if let Some((attr, _)) = parts.agg_assigns.first() {
                        return Err(EvalError::AggregateOutsideGrouping(format!(
                            "{}.{attr}",
                            head.name
                        )));
                    }
                    if !parts.post_bool.is_empty() {
                        return Err(EvalError::AggregateOutsideGrouping(
                            "aggregate under a connective".to_string(),
                        ));
                    }
                    if parts.spines.len() > 1 {
                        return Err(EvalError::MultipleSpines);
                    }
                }
                Some(_) => {
                    if !parts.spines.is_empty() {
                        return Err(EvalError::SpineUnderGrouping);
                    }
                }
            }
            let (pipeline, layout) = self.compile_pipeline(q, &parts, false, None, env.names())?;
            let body = match q.grouping {
                None => {
                    let mut r = Resolver::tuple(&layout);
                    let assigns = parts
                        .assigns
                        .iter()
                        .map(|(attr, expr)| (*attr, r.scalar(expr)));
                    let head = HeadPlan::compile(head, partial, assigns, &[]);
                    let gathers = match &pipeline {
                        Pipeline::Steps(p) => {
                            p.leaf.is_empty() && p.steps.last().is_some_and(Ordered::batches)
                        }
                        Pipeline::Join(_) => false,
                    };
                    Body::Rows {
                        gathers: gathers
                            && parts.spines.is_empty()
                            && parts.pre_bool.is_empty()
                            && head.gathers(),
                        head,
                        spine: parts.spines.first().copied(),
                    }
                }
                Some(g) => Body::Groups(GroupPlan::compile(
                    g,
                    q.body,
                    &parts,
                    &layout,
                    &pipeline,
                    Some((head, partial)),
                )),
            };
            Ok(self.finish_scope(q, &parts, pipeline, layout, body, env))
        })
    }

    /// The compiled form of a boolean `∃` scope. Unless `nested` pins the
    /// per-outer-row loop, a scope whose shape and plan allow it compiles
    /// to its decorrelated form ([`Body::Semi`]).
    pub(crate) fn bool_scope(
        &self,
        quant: &'a Quant,
        nested: bool,
        env: &Env<'a>,
    ) -> Result<Rc<Scope<'a>>> {
        let role = if nested { Role::BoolNested } else { Role::Bool };
        let q = QuantRef::from(quant);
        self.cached_scope(q.body, role, env, || {
            // The head name "\u{0}" cannot occur, so nothing classifies as
            // an assignment.
            let mut parts = partition(q.body, "\u{0}");
            if q.grouping.is_none() {
                if let Some(p) = parts.agg_tests.first() {
                    return Err(EvalError::AggregateOutsideGrouping(p.to_string()));
                }
                if !parts.post_bool.is_empty() {
                    // Mirror the collection path: an aggregate under a
                    // connective needs a grouping scope; silently ignoring
                    // it would make the quantifier degenerate to a
                    // non-emptiness check.
                    return Err(EvalError::AggregateOutsideGrouping(
                        "aggregate under a connective".to_string(),
                    ));
                }
            }
            let outer = env.names();
            // Shape check (shared with `EXPLAIN`'s lowering): no grouping,
            // no outer-join annotation, no aggregates, and no boolean
            // subformula correlated with the outer environment but one
            // null guard.
            let shape = if nested {
                None
            } else {
                arc_plan::decorrelatable_shape(q, &parts, &LayoutOuter(outer))
            };
            let guard = shape.flatten();
            let (pipeline, layout) =
                self.compile_pipeline(q, &parts, shape.is_some(), guard.map(|g| g.eq), outer)?;
            let body = match (q.grouping, &pipeline) {
                (Some(g), _) => Body::Groups(GroupPlan::compile(
                    g, q.body, &parts, &layout, &pipeline, None,
                )),
                (None, Pipeline::Steps(Steps { plan, steps, .. }))
                    if plan.decorrelation.is_some() =>
                {
                    let dec = plan.decorrelation.as_ref().expect("checked above");
                    // Filter `filters.len()` is the null guard's equality
                    // (`ScopeSpec::filter`).
                    let filter = |i: usize| match parts.filters.get(i) {
                        Some(p) => p,
                        None => guard.expect("a null-aware key").eq,
                    };
                    let key = |k: &arc_plan::CorrelatedKey| {
                        let (local, probe) = eq_sides(filter(k.filter), k.local_on_left);
                        SemiKey {
                            probe: Resolver::tuple(outer).scalar(probe),
                            build: Resolver::tuple(&layout).scalar(local),
                        }
                    };
                    let keys = match dec.keys.as_slice() {
                        [k] if dec.null_aware => SemiKeys::NullAware(key(k)),
                        keys => SemiKeys::Equi(keys.iter().map(key).collect()),
                    };
                    // The set starts at the planner's estimate of its keys
                    // (`est=` on the semi-join line) when that is smaller:
                    // a low estimate costs a rehash, not a wrong answer.
                    let (max_keys, capacity) = keys.bounds(steps, outer.len());
                    let est = usize::try_from(dec.est_keys).unwrap_or(usize::MAX);
                    let capacity = capacity.min(est).max(1);
                    Body::Semi(SemiPlan {
                        probe_filters: dec
                            .probe_filters
                            .iter()
                            .map(|&i| Resolver::tuple(outer).pred(filter(i)))
                            .collect(),
                        keys,
                        max_keys,
                        capacity,
                        entry: std::sync::OnceLock::new(),
                    })
                }
                (None, _) => Body::Exists,
            };
            // A null-aware probe answers the guard; the build must not
            // evaluate it (its outer side is not the build's to read).
            if let (Some(g), Body::Semi(_)) = (guard, &body) {
                parts.pre_bool.remove(g.index);
            }
            Ok(self.finish_scope(q, &parts, pipeline, layout, body, env))
        })
    }

    /// The compiled scope for `body` under `role` and `env`'s layout,
    /// compiling it on first use. The key's address half is pinned for
    /// the key's lifetime: `body` is borrowed from the AST for `'a`, and
    /// the map lives in this `Ctx<'a>`, so no other formula can occupy the
    /// address while the entry exists. Two scopes that differ only in a
    /// constant are two bodies, so two entries — and, through their
    /// distinct `Scope::id`s, two semi-join builds
    /// (`sibling_not_in_scopes_differing_in_a_constant_build_separately`
    /// in `tests/semijoin_equivalence.rs`).
    fn cached_scope(
        &self,
        body: &'a Formula,
        role: Role,
        env: &Env<'a>,
        compile: impl FnOnce() -> Result<Scope<'a>>,
    ) -> Result<Rc<Scope<'a>>> {
        let key = (
            body as *const Formula as usize,
            role,
            env.layout_id(),
            env.len(),
        );
        if let Some(sc) = self.scopes.borrow().get(&key) {
            return Ok(sc.clone());
        }
        let sc = Rc::new(compile()?);
        self.scopes.borrow_mut().insert(key, sc.clone());
        Ok(sc)
    }

    fn finish_scope(
        &self,
        q: QuantRef<'a>,
        parts: &Parts<'a>,
        pipeline: Pipeline<'a>,
        layout: Layout<'a>,
        body: Body<'a>,
        env: &Env<'a>,
    ) -> Scope<'a> {
        let mut r = Resolver::tuple(&layout);
        let pre_bool = parts.pre_bool.iter().map(|f| r.formula(f)).collect();
        Scope {
            id: q.id(),
            base: env.len(),
            layout,
            pipeline,
            pre_bool,
            body,
        }
    }

    /// Resolve, plan and materialize a scope's bindings under the outer
    /// frames `outer`; returns the pipeline and the full layout. `guard`
    /// is a boolean scope's null guard equality ([`ScopeSpec::guard`]).
    fn compile_pipeline(
        &self,
        q: QuantRef<'a>,
        parts: &Parts<'a>,
        boolean: bool,
        guard: Option<&'a Predicate>,
        outer: &[Names<'a>],
    ) -> Result<(Pipeline<'a>, Layout<'a>)> {
        if let Some(tree) = q.join.filter(|t| t.has_outer()) {
            let (join, layout) = self.compile_join(q.bindings, tree, &parts.filters, outer)?;
            return Ok((Pipeline::Join(join), layout));
            // A pure-inner annotation is semantically the default join.
        }
        let (resolved, plan) =
            self.scope_plan(q, &parts.filters, &LayoutOuter(outer), boolean, guard)?;
        self.materialize_steps(q.bindings, &parts.filters, &resolved, plan, outer)
    }

    /// Plan a scope as `EXPLAIN` lowers it ([`arc_plan::ScopePlanner`]):
    /// exactly as compiling it does, with each binding's schema.
    pub(crate) fn explain_scope(&self, req: ScopeRequest<'_, 'a>) -> Result<Planned<'a>> {
        let (resolved, plan) =
            self.scope_plan(req.scope, req.filters, req.outer, req.boolean, req.guard)?;
        Ok((plan, resolved.iter().map(Resolved::attrs).collect()))
    }

    /// The name binding `b` reads: the one it spells, unless this
    /// evaluation [redirects](super::Redirect) it.
    fn source_name(&self, b: &Binding, name: &'a str) -> &'a str {
        match self.shared.redirect {
            Some(redirect) if std::ptr::eq(redirect.binding, b) => redirect.name,
            _ => name,
        }
    }

    /// Resolve the source binding `b` names as `name` — the one place
    /// that decides which relation a named binding reads, for step
    /// pipelines and outer-join trees alike.
    ///
    /// Resolution order matches the pre-plan evaluator: defined
    /// (materialized) relations shadow catalog relations, which shadow
    /// abstract definitions, which shadow externals. A definition the
    /// context has not materialized shadows the catalog as its
    /// materialized relation would.
    pub(crate) fn resolve_named(&self, b: &Binding, name: &'a str) -> Result<Resolved<'a>> {
        let name = self.source_name(b, name);
        let mut unmaterialized = self.shared.unmaterialized.iter().flat_map(|s| &s.members);
        if let Some(rel) = self.shared.defined.get(name) {
            Ok(Resolved::Rel(rel, None))
        } else if let Some(def) = unmaterialized.find(|d| d.name() == name) {
            Ok(Resolved::Unmaterialized(&def.collection))
        } else if let Some(rel) = self.shared.catalog.relation(name) {
            Ok(Resolved::Rel(
                rel,
                self.shared.catalog.stats(name).map(|s| &**s),
            ))
        } else if let Some(def) = self.shared.abstracts.get(name) {
            Ok(Resolved::Abs(def))
        } else if let Some(ext) = self.shared.catalog.external(name) {
            Ok(Resolved::Ext(ext))
        } else {
            Err(EvalError::UnknownRelation(name.to_string()))
        }
    }

    /// Resolve binding sources by name ([`Ctx::resolve_named`]).
    pub(crate) fn resolve_bindings(&self, bindings: &'a [Binding]) -> Result<Vec<Resolved<'a>>> {
        bindings
            .iter()
            .map(|b| match &b.source {
                BindingSource::Named(name) => self.resolve_named(b, name),
                BindingSource::Collection(c) => Ok(Resolved::Nested(c)),
            })
            .collect()
    }

    /// The scope's sources ([`Ctx::resolve_bindings`]) and its physical
    /// plan, through the global plan cache ([`cache::scope_plan`]: keyed
    /// by the scope's shape, its constants as typed holes and selectivity
    /// buckets). Runs once per compiled scope, and once per scope an
    /// `EXPLAIN` lowers.
    fn scope_plan(
        &self,
        q: QuantRef<'a>,
        filters: &[&Predicate],
        outer: &dyn OuterScope,
        boolean: bool,
        guard: Option<&'a Predicate>,
    ) -> Result<(Vec<Resolved<'a>>, Arc<ScopePlan>)> {
        let bindings = q.bindings;
        let resolved = self.resolve_bindings(bindings)?;
        // Describe the scope to the planner.
        let spec_bindings: Vec<BindingSpec<'_>> = bindings
            .iter()
            .zip(resolved.iter())
            .map(|(b, r)| BindingSpec {
                var: &b.var,
                source: match (r, &b.source) {
                    (Resolved::Rel(rel, _), BindingSource::Named(name)) => SourceSpec::Relation {
                        name: self.source_name(b, name),
                        schema: &rel.schema,
                        rows: Some(rel.rows.len()),
                    },
                    (Resolved::Rel(rel, _), BindingSource::Collection(_)) => {
                        unreachable!("`{}` resolved a collection to a relation", rel.name)
                    }
                    (Resolved::Ext(ext), _) => SourceSpec::External {
                        schema: &ext.schema,
                        patterns: ext.patterns.iter().map(|p| p.bound.as_slice()).collect(),
                    },
                    (Resolved::Abs(def), _) => SourceSpec::Abstract {
                        attrs: &def.head.attrs,
                    },
                    (Resolved::Nested(c), _) => SourceSpec::Nested {
                        attrs: &c.head.attrs,
                        free: free_vars(c),
                    },
                    (Resolved::Unmaterialized(def), _) => SourceSpec::Relation {
                        name: &def.head.relation,
                        schema: &def.head.attrs,
                        rows: None,
                    },
                },
            })
            .collect();
        let estimator = CtxEstimator {
            ctx: self,
            resolved: &resolved,
        };
        let spec = ScopeSpec {
            bindings: spec_bindings,
            filters,
            outer,
            estimator: Some(&estimator),
            guard,
        };

        // The statistics epoch rides in the key: a post-`ANALYZE`
        // evaluation re-plans instead of serving a plan shaped by the old
        // statistics (`tests/plan_cache.rs` phase 5). Only a run of the
        // planner is recorded as a plan span.
        let rec = self.shared.recorder.as_ref();
        let t0 = rec.and_then(|r| r.span_start(self.lane));
        let (plan, planned) = cache::scope_plan(&spec, self.shared.catalog.stats_epoch(), boolean)
            // Map planner failures onto the precise source-kind diagnostics.
            .map_err(|e| {
                let PlanError::Unplaceable { binding } = e;
                let b = &bindings[binding];
                match (&b.source, &resolved[binding]) {
                    (BindingSource::Named(name), Resolved::Ext(_)) => EvalError::NoAccessPath {
                        relation: name.clone(),
                        var: b.var.clone(),
                    },
                    (BindingSource::Named(name), Resolved::Abs(_)) => {
                        EvalError::AbstractUnderdetermined {
                            relation: name.clone(),
                            var: b.var.clone(),
                        }
                    }
                    (_, Resolved::Nested(c)) => EvalError::UnboundVariable(
                        free_vars(c)
                            .first()
                            .copied()
                            .unwrap_or_default()
                            .to_string(),
                    ),
                    _ => EvalError::Internal(format!(
                        "relation binding `{}` reported unplaceable",
                        b.var
                    )),
                }
            })?;
        if let (true, Some(rec)) = (planned, rec) {
            let op = arc_trace::OpId::scope(q.id());
            rec.finish(self.lane, arc_trace::SpanKind::Plan, op, t0);
        }
        Ok((resolved, plan))
    }

    /// Turn a plan into executable steps, resolving every expression
    /// against the frames that are on the stack when it runs: probe and
    /// input expressions see the steps before theirs, a step's filters
    /// see it too, the prelude sees only `outer`, the leaf everything.
    fn materialize_steps(
        &self,
        bindings: &'a [Binding],
        filters: &[&'a Predicate],
        resolved: &[Resolved<'a>],
        plan: Arc<ScopePlan>,
        outer: &[Names<'a>],
    ) -> Result<(Pipeline<'a>, Layout<'a>)> {
        // The whole layout first — the outer frames, then one frame per
        // step — so every expression below resolves against a prefix of
        // it: `seen` frames are on the stack when it runs.
        let layout: Layout<'a> = outer
            .iter()
            .copied()
            .chain(plan.steps.iter().map(|step| Names {
                var: &bindings[step.binding].var,
                attrs: resolved[step.binding].attrs(),
            }))
            .collect();
        let mut steps: Vec<Ordered<'a>> = Vec::with_capacity(plan.steps.len());
        for (seen, step) in (outer.len()..).zip(&plan.steps) {
            let b = &bindings[step.binding];
            let names = &layout[..seen];
            let inputs = |inputs: &[arc_plan::EqInput]| -> Vec<CScalar<'a>> {
                let mut r = Resolver::tuple(names);
                inputs
                    .iter()
                    .map(|e| r.scalar(other_side(filters[e.filter], e.attr_on_left)))
                    .collect()
            };
            let mut index_plan = None;
            let (source, hash_plan) = match (&resolved[step.binding], &step.access) {
                (&Resolved::Rel(rel, _), Access::Scan) => (Src::Rows(rel), None),
                (
                    &Resolved::Rel(rel, _),
                    Access::IndexRange {
                        cols,
                        filters: consumed,
                    },
                ) => {
                    // Re-derive the bound semantics from the consumed
                    // filters with the planner's own classifier; a
                    // mismatch is a planner/engine contract violation.
                    index_plan = Some(
                        super::index::IndexPlan::build(
                            cols,
                            consumed,
                            filters,
                            &b.var,
                            &rel.schema,
                        )
                        .ok_or_else(|| {
                            EvalError::Internal(format!(
                                "index-range filters for `{}` did not re-derive",
                                b.var
                            ))
                        })?,
                    );
                    (Src::Rows(rel), None)
                }
                (&Resolved::Rel(rel, _), Access::HashProbe { keys }) => {
                    let mut r = Resolver::tuple(names);
                    let plan = HashPlan {
                        key_cols: keys.iter().map(|k| k.col).collect(),
                        probe_exprs: keys
                            .iter()
                            .map(|k| r.scalar(other_side(filters[k.eq.filter], k.eq.attr_on_left)))
                            .collect(),
                    };
                    (Src::Rows(rel), Some(plan))
                }
                (&Resolved::Ext(ext), Access::External { pattern, inputs: i }) => (
                    Src::External {
                        pattern: &ext.patterns[*pattern],
                        inputs: inputs(i),
                    },
                    None,
                ),
                (&Resolved::Abs(def), Access::Abstract { inputs: i }) => {
                    // The membership check binds the candidate under the
                    // definition's own head name, on top of the frames
                    // before this step.
                    let mut check: Vec<Names<'a>> = names.to_vec();
                    check.push(Names {
                        var: &def.head.relation,
                        attrs: &def.head.attrs,
                    });
                    let body = Resolver::tuple(&check).formula(&def.body);
                    (
                        Src::Abstract {
                            inputs: inputs(i),
                            check_layout: check.into(),
                            body,
                        },
                        None,
                    )
                }
                (&Resolved::Nested(c), Access::Nested) => {
                    (Src::Nested(self.lateral(c, names)), None)
                }
                (_, access) => {
                    return Err(EvalError::Internal(format!(
                        "planner chose {} for an incompatible source of `{}`",
                        access.name(),
                        b.var
                    )))
                }
            };
            // This step's own filters see its frame too.
            let mut r = Resolver::tuple(&layout[..seen + 1]);
            let mut step_filters = step.filters.iter().map(|&i| (i, r.pred(filters[i])));
            // A scan runs the leading run of classifiable filters on
            // column kernels — constant ones through its cached selection
            // vector, per-entry ones once per entry; everything from the
            // first filter that does not classify stays row-at-a-time, in
            // order, so error behaviour is untouched (see
            // [`super::vector`]).
            let mut vec_filters = Vec::new();
            let mut vec_key = Vec::new();
            let mut entry_filters = Vec::new();
            let mut residue = None;
            if let (Src::Rows(rel), None) = (&source, &hash_plan) {
                if rel.len() >= super::vector::VECTOR_MIN_ROWS {
                    for (i, p) in step_filters.by_ref() {
                        match super::vector::classify(p, seen) {
                            Ok(Kernel::Const(f)) => {
                                vec_filters.push(f);
                                // Pinned: see `Ordered::selection_key`.
                                vec_key.push(filters[i] as *const Predicate as usize);
                            }
                            Ok(Kernel::Entry(f)) => entry_filters.push(f),
                            Err(p) => {
                                residue = Some(p);
                                break;
                            }
                        }
                    }
                }
            }
            steps.push(Ordered {
                source,
                hash_plan,
                step_filters: residue
                    .into_iter()
                    .chain(step_filters.map(|(_, p)| p))
                    .collect(),
                vec_filters,
                vec_key,
                entry_filters,
                index_plan,
                index: std::sync::OnceLock::new(),
                selection: std::sync::OnceLock::new(),
                columns: std::sync::OnceLock::new(),
                probes_last: false,
            });
        }
        let prelude = plan
            .prelude_filters
            .iter()
            .map(|&i| Resolver::tuple(outer).pred(filters[i]))
            .collect();
        let leaf = plan
            .leaf_filters
            .iter()
            .map(|&i| Resolver::tuple(&layout).pred(filters[i]))
            .collect::<Vec<_>>();
        if let ([.., before, last], true) = (steps.as_mut_slice(), leaf.is_empty()) {
            before.probes_last = before.yields_ids() && last.probed_in_place();
        }
        Ok((
            Pipeline::Steps(Steps {
                plan,
                steps,
                prelude,
                leaf,
            }),
            layout,
        ))
    }
}

// The parallel executor shares a compiled scope across worker threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Scope<'static>>();
};
