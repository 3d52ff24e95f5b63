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

use super::aggregate::AggSpec;
use super::env::{Env, Layout, LayoutOuter, Names};
use super::join::JoinPlan;
use super::output::{HeadCtx, HeadPlan, Partial};
use super::partition::{partition, Parts};
use super::quantifier::{HashPlan, Ordered, Src};
use super::slots::{CFormula, CPred, CScalar, Resolver};
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::external::ExternalRelation;
use crate::relation::Relation;
use arc_core::ast::*;
use arc_plan::analysis::free_vars;
use arc_plan::logical::{eq_sides, other_side};
use arc_plan::{
    cache, Access, Basis, BindingSpec, DistinctEstimator, PlanError, ScopePlan, ScopeSpec,
    SourceSpec,
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

/// The pieces of a quantifier scope (a bare formula on the emission spine
/// is a scope with no bindings).
#[derive(Clone, Copy)]
pub(crate) struct QuantRef<'a> {
    pub(crate) bindings: &'a [Binding],
    pub(crate) grouping: Option<&'a Grouping>,
    pub(crate) join: Option<&'a JoinTree>,
    pub(crate) body: &'a Formula,
}

impl QuantRef<'_> {
    /// The scope's operator id: the address of its binding slice — the
    /// identity `arc_plan::scope_identity` stamps at lowering time — or,
    /// for a scope without bindings, of its body, because every empty
    /// slice shares one dangling address.
    ///
    /// The address is pinned for as long as any key holding it lives.
    /// Both the slice and the body are borrowed from the AST for `'a`, so
    /// neither moves nor is freed while a `Ctx<'a>` — or the semi-join
    /// build cache, span sink or profile of that evaluation — exists.
    /// Two boolean scopes (the ones the semi-join build cache keys) never
    /// share an id: each is a boxed `Quant`, a non-empty binding slice is
    /// a heap allocation of its own, and a body a field of its own box.
    /// Scopes that differ only in a constant therefore get two ids, and
    /// two builds (`sibling_not_in_scopes_differing_in_a_constant_build_separately`,
    /// `tests/regressions/zero_binding_semi_scopes.rs`).
    pub(crate) fn id(&self) -> usize {
        if self.bindings.is_empty() {
            self.body as *const Formula as usize
        } else {
            self.bindings.as_ptr() as usize
        }
    }
}

impl<'a> From<&'a Quant> for QuantRef<'a> {
    fn from(q: &'a Quant) -> Self {
        QuantRef {
            bindings: &q.bindings,
            grouping: q.grouping.as_ref(),
            join: q.join.as_ref(),
            body: &q.body,
        }
    }
}

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
}

impl<'a> GroupPlan<'a> {
    fn compile(
        g: &'a Grouping,
        body: &'a Formula,
        parts: &Parts<'a>,
        names: &[Names<'a>],
        head: Option<(&HeadCtx<'a>, &Partial)>,
    ) -> GroupPlan<'a> {
        let r = Resolver::tuple(names);
        GroupPlan {
            keys: g.keys.iter().map(|k| r.attr(k)).collect(),
            tests: GroupTests::compile(parts, names, head),
            body,
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
    /// Row count of the largest source relation (the build's admission
    /// estimate).
    pub(crate) est_rows: usize,
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
}

/// Live statistics for the planner: catalog `ANALYZE` sketches first
/// (cost model v2 — correlation-capped distinct counts, MCV/histogram
/// selectivities), then the per-query prefix-sample cache on [`Ctx`] as
/// the distinct-count fallback for sources without statistics
/// (intensional results, small un-analyzed relations).
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
        // Pinned for the cache's lifetime: see `Ctx::distinct_estimates`.
        let key = (*rel as *const Relation as usize, cols.to_vec());
        if let Some(&d) = self.ctx.distinct_estimates.borrow().get(&key) {
            return Some(d);
        }
        let d = rel.distinct_estimate(cols, DISTINCT_SAMPLE);
        self.ctx.distinct_estimates.borrow_mut().insert(key, d);
        Some(d)
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
                    Body::Rows {
                        head: HeadPlan::compile(head, partial, assigns, &[]),
                        spine: parts.spines.first().copied(),
                    }
                }
                Some(g) => Body::Groups(GroupPlan::compile(
                    g,
                    q.body,
                    &parts,
                    &layout,
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
                arc_plan::decorrelatable_shape(quant, &parts, &LayoutOuter(outer))
            };
            let guard = shape.flatten();
            let (pipeline, layout) =
                self.compile_pipeline(q, &parts, shape.is_some(), guard.map(|g| g.eq), outer)?;
            let body = match (q.grouping, &pipeline) {
                (Some(g), _) => Body::Groups(GroupPlan::compile(g, q.body, &parts, &layout, None)),
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
                    Body::Semi(SemiPlan {
                        probe_filters: dec
                            .probe_filters
                            .iter()
                            .map(|&i| Resolver::tuple(outer).pred(filter(i)))
                            .collect(),
                        keys: match dec.keys.as_slice() {
                            [k] if dec.null_aware => SemiKeys::NullAware(key(k)),
                            keys => SemiKeys::Equi(keys.iter().map(key).collect()),
                        },
                        est_rows: steps
                            .iter()
                            .map(|ob| match &ob.source {
                                Src::Rows(rel) => rel.len(),
                                _ => 0,
                            })
                            .max()
                            .unwrap_or(0),
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
        let resolved = self.resolve_bindings(q.bindings)?;
        let plan = self.scope_plan(q, &parts.filters, outer, &resolved, boolean, guard)?;
        self.materialize_steps(q.bindings, &parts.filters, &resolved, plan, outer)
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
    /// abstract definitions, which shadow externals.
    pub(crate) fn resolve_named(&self, b: &Binding, name: &'a str) -> Result<Resolved<'a>> {
        let name = self.source_name(b, name);
        if let Some(rel) = self.shared.defined.get(name) {
            Ok(Resolved::Rel(rel, None))
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

    /// The scope's physical plan, through the global plan cache
    /// ([`cache::scope_plan`]: keyed by the scope's shape, its constants
    /// as typed holes and selectivity buckets). Runs once per compiled
    /// scope.
    fn scope_plan(
        &self,
        q: QuantRef<'a>,
        filters: &[&Predicate],
        outer: &[Names<'a>],
        resolved: &[Resolved<'a>],
        boolean: bool,
        guard: Option<&'a Predicate>,
    ) -> Result<Arc<ScopePlan>> {
        let bindings = q.bindings;
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
                },
            })
            .collect();
        let estimator = CtxEstimator {
            ctx: self,
            resolved,
        };
        let spec = ScopeSpec {
            bindings: spec_bindings,
            filters,
            outer: &LayoutOuter(outer),
            estimator: Some(&estimator),
            guard,
        };

        // The statistics epoch rides in the key: a post-`ANALYZE`
        // evaluation re-plans instead of serving a plan shaped by the old
        // statistics (`tests/plan_cache.rs` phase 5). Only a run of the
        // planner is recorded as a plan span.
        let plan_span = self.shared.spans.as_ref().and_then(|s| s.start(self.lane));
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
        if let (true, Some(sink), Some(t0)) = (planned, &self.shared.spans, plan_span) {
            sink.complete(
                self.lane,
                arc_trace::SpanKind::Plan,
                arc_trace::OpId::scope(q.id()),
                t0,
            );
        }
        Ok(plan)
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
                attrs: match resolved[step.binding] {
                    Resolved::Rel(rel, _) => &rel.schema,
                    Resolved::Ext(ext) => &ext.schema,
                    Resolved::Abs(def) => &def.head.attrs,
                    Resolved::Nested(c) => &c.head.attrs,
                },
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
            let names = &layout[..seen + 1];
            // Vectorized scans hoist the leading run of constant filters
            // into columnar kernels; everything after the first
            // non-classifiable filter stays row-at-a-time, in order, so
            // error behaviour is untouched (see [`super::vector`]).
            let mut vec_filters = Vec::new();
            let mut vec_key = Vec::new();
            if let (Src::Rows(rel), None) = (&source, &hash_plan) {
                if rel.len() >= super::vector::VECTOR_MIN_ROWS {
                    for &i in &step.filters {
                        match super::vector::classify(filters[i], &b.var, &rel.schema) {
                            Some(f) => {
                                vec_filters.push(f);
                                // Pinned: see `Ordered::selection_key`.
                                vec_key.push(filters[i] as *const Predicate as usize);
                            }
                            None => break,
                        }
                    }
                }
            }
            let mut r = Resolver::tuple(names);
            steps.push(Ordered {
                source,
                hash_plan,
                step_filters: step.filters[vec_filters.len()..]
                    .iter()
                    .map(|&i| r.pred(filters[i]))
                    .collect(),
                vec_filters,
                vec_key,
                index_plan,
                index: std::sync::OnceLock::new(),
                selection: std::sync::OnceLock::new(),
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
            .collect();
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

// The parallel executor shares a compiled scope across pool workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Scope<'static>>();
};
