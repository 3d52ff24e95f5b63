//! Planner inputs: the abstract description of one quantifier scope.
//!
//! The engine describes a scope — its bindings, their resolved source
//! kinds, the filter predicates, and which outer variables are in reach —
//! and the planner turns that description into a
//! [`ScopePlan`](crate::physical::ScopePlan). The spec deliberately knows
//! nothing about engine types: relations appear only as schemas and
//! cardinalities. Execution and `EXPLAIN` describe a scope the same way,
//! through the engine (see [`crate::query`]).

use arc_core::ast::{Binding, CmpOp, Formula, Grouping, JoinTree, Predicate, Quant};
use arc_core::value::Value;

/// Default cardinality assumed for sources whose row count is unknown at
/// plan time (a program's definitions in a plain `EXPLAIN`, which runs
/// nothing).
pub const DEFAULT_ROWS: usize = 32;

/// A quantifier scope, borrowed from the AST: a [`Quant`], or a bare
/// formula on a collection's emission spine (a scope with no bindings).
#[derive(Clone, Copy)]
pub struct QuantRef<'a> {
    /// The scope's bindings.
    pub bindings: &'a [Binding],
    /// Its grouping operator, if any.
    pub grouping: Option<&'a Grouping>,
    /// Its join annotation, if any.
    pub join: Option<&'a JoinTree>,
    /// Its body.
    pub body: &'a Formula,
}

impl<'a> QuantRef<'a> {
    /// A predicate-only body as the scope with no bindings it is.
    pub fn bare(body: &'a Formula) -> Self {
        QuantRef {
            bindings: &[],
            grouping: None,
            join: None,
            body,
        }
    }

    /// The scope's stable operator id: the address of its binding slice
    /// or, for a scope without bindings, of its body, because every empty
    /// slice shares one dangling address. Lowering stamps it on the plan
    /// tree and the engine keys its semi-join builds and execution profile
    /// on it, so actuals recorded while evaluating an AST join back to the
    /// plan lowered from that same AST.
    ///
    /// The address is pinned for as long as any key holding it lives:
    /// both the slice and the body are borrowed from the AST, which
    /// outlives every evaluation of it. Two boolean scopes never share an
    /// id: each is a boxed `Quant`, a non-empty binding slice is a heap
    /// allocation of its own, and a body a field of its own box. Scopes
    /// that differ only in a constant therefore get two ids, and two
    /// semi-join builds
    /// (`sibling_not_in_scopes_differing_in_a_constant_build_separately`,
    /// `tests/regressions/zero_binding_semi_scopes.rs`).
    pub fn id(&self) -> usize {
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

/// Estimated rows produced by one lateral (nested-collection) evaluation.
pub const NESTED_EST: f64 = 8.0;

/// Estimated rows produced by one external access-pattern completion.
pub const EXTERNAL_EST: f64 = 1.0;

/// Estimated rows produced by one abstract-relation membership check.
pub const ABSTRACT_EST: f64 = 1.0;

/// What a range variable's source looks like to the planner.
#[derive(Debug, Clone)]
pub enum SourceSpec<'a> {
    /// A materialized relation (base, defined, or fixpoint intermediate):
    /// scannable, probeable, always placeable.
    Relation {
        /// The name the binding resolved (with the statistics epoch it
        /// identifies the statistics the estimator answers from).
        name: &'a str,
        /// Attribute names, in column order.
        schema: &'a [String],
        /// Row count, when known (`None` for a definition a plain
        /// `EXPLAIN` has not materialized).
        rows: Option<usize>,
    },
    /// An external relation solved through access patterns (§2.13.1): each
    /// pattern lists the schema positions that must be determined by
    /// equality predicates before the pattern can run.
    External {
        /// Full schema of the external relation.
        schema: &'a [String],
        /// Bound-attribute positions, one slice per access pattern, in
        /// declaration order (the first satisfiable pattern is chosen).
        patterns: Vec<&'a [usize]>,
    },
    /// An abstract relation checked in context (§2.13.2): placeable only
    /// once *every* head attribute is determined by an equality.
    Abstract {
        /// The abstract definition's head attributes.
        attrs: &'a [String],
    },
    /// A nested (lateral) collection evaluated per outer environment:
    /// placeable once its free variables are bound.
    Nested {
        /// The nested collection's head attributes.
        attrs: &'a [String],
        /// Free variables the nested body references.
        free: Vec<&'a str>,
    },
}

impl SourceSpec<'_> {
    /// The attribute schema this source exposes to later probe/input
    /// expressions.
    pub fn schema(&self) -> &[String] {
        match self {
            SourceSpec::Relation { schema, .. } => schema,
            SourceSpec::External { schema, .. } => schema,
            SourceSpec::Abstract { attrs } => attrs,
            SourceSpec::Nested { attrs, .. } => attrs,
        }
    }
}

/// One range-variable binding, as the planner sees it.
#[derive(Debug, Clone)]
pub struct BindingSpec<'a> {
    /// The range variable introduced by the binding.
    pub var: &'a str,
    /// Its resolved source.
    pub source: SourceSpec<'a>,
}

/// The outer lexical environment a scope is planned under: which variables
/// are already bound outside the scope, and with what attributes.
pub trait OuterScope {
    /// The attribute schema of `var`'s innermost outer binding, or `None`
    /// when no outer binding exists.
    fn attrs(&self, var: &str) -> Option<&[String]>;
}

/// An [`OuterScope`] with no variables (top-level scopes).
pub struct NoOuter;

impl OuterScope for NoOuter {
    fn attrs(&self, _var: &str) -> Option<&[String]> {
        None
    }
}

/// What a [`DistinctEstimator`]'s answers about one binding rest on. Two
/// estimators that report the same basis for a binding of the same name,
/// row count and statistics epoch answer every question about it
/// identically — which is what lets the plan cache key on the basis
/// instead of on the answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// Nothing: every question answers `None`.
    None,
    /// A sample of the live rows (distinct counts only). The sample is
    /// *not* identified by name and row count, so a cached plan can be
    /// stale for such a binding — see [`crate::cache`].
    Sample,
    /// The catalog's `ANALYZE` statistics for the binding's name.
    Statistics,
}

/// Cardinality side-statistics the host can supply: distinct join-key
/// counts (driving the greedy ordering's probe-cost estimate
/// `rows / distinct`) and, when the catalog has been `ANALYZE`d,
/// per-column selectivities of constant comparisons (driving scan-cost
/// scaling, access-path choice, and the partition-axis threshold).
///
/// Every method may answer `None` ("unknown"): the planner then falls
/// back to its pre-statistics behaviour, so a stats-free catalog plans
/// exactly as it always has. The engine implements this over catalog
/// statistics with a live prefix-sample fallback, for execution and
/// `EXPLAIN` alike.
pub trait DistinctEstimator {
    /// What the answers about `binding` rest on.
    fn basis(&self, binding: usize) -> Basis;

    /// Estimated distinct count of `cols` (schema positions) in the
    /// relation behind binding `binding`, or `None` when unknown.
    fn distinct(&self, binding: usize, cols: &[usize]) -> Option<usize>;

    /// Estimated fraction of `binding`'s rows whose column `col`
    /// satisfies `col op value`, or `None` when unknown (no statistics).
    fn selectivity(&self, binding: usize, col: usize, op: CmpOp, value: &Value) -> Option<f64> {
        let _ = (binding, col, op, value);
        None
    }

    /// Estimated fraction of `binding`'s rows whose column `col` can
    /// never satisfy an equality (`NULL`, float `NaN`), or `None` when
    /// unknown. Feeds `IS [NOT] NULL` selectivity (approximate: the
    /// statistics count `NaN` as unjoinable, SQL's `IS NULL` does not —
    /// an estimate-only distinction).
    fn null_fraction(&self, binding: usize, col: usize) -> Option<f64> {
        let _ = (binding, col);
        None
    }

    /// Estimated fraction of `binding`'s rows whose column `col` falls in
    /// the interval described by an optional lower bound (`Gt`/`Ge`) and
    /// an optional upper bound (`Lt`/`Le`) — the quantity the index-range
    /// access path is priced by. The default composes the single-bound
    /// [`selectivity`](Self::selectivity) answers with the
    /// inclusion–exclusion identity `sel(lo ∧ hi) = sel(lo) + sel(hi) −
    /// sel(non-null)` (exact for histogram fractions); statistics-backed
    /// implementations may answer directly from their sketches.
    fn range_selectivity(
        &self,
        binding: usize,
        col: usize,
        lo: Option<(CmpOp, &Value)>,
        hi: Option<(CmpOp, &Value)>,
    ) -> Option<f64> {
        match (lo, hi) {
            (Some((lop, lv)), Some((hop, hv))) => {
                let l = self.selectivity(binding, col, lop, lv)?;
                let h = self.selectivity(binding, col, hop, hv)?;
                let nn = 1.0
                    - self
                        .null_fraction(binding, col)
                        .unwrap_or(0.0)
                        .clamp(0.0, 1.0);
                Some((l + h - nn).clamp(0.0, l.min(h)))
            }
            (Some((op, v)), None) | (None, Some((op, v))) => self.selectivity(binding, col, op, v),
            (None, None) => None,
        }
    }
}

/// Everything the planner needs to know about one quantifier scope.
pub struct ScopeSpec<'a> {
    /// The bindings, in declaration order.
    pub bindings: Vec<BindingSpec<'a>>,
    /// The scope's filter predicates (no aggregates, no head assignments —
    /// the engine's partition stage routes those elsewhere).
    pub filters: &'a [&'a Predicate],
    /// The outer lexical environment.
    pub outer: &'a dyn OuterScope,
    /// Optional live statistics (the engine always supplies one).
    pub estimator: Option<&'a dyn DistinctEstimator>,
    /// Boolean scopes only: the equality `L = O` of the scope's **null
    /// guard** — Eq 17's `L = O ∨ L is null ∨ O is null`, the boolean
    /// subformula SQL's `NOT IN` lowers to (see
    /// [`decorrelatable_shape`](crate::physical::decorrelatable_shape)).
    /// It is no filter, so no plan schedules or probes it: only the
    /// decorrelation pass reads it, and may turn it into a null-aware
    /// correlated key, which names it as filter `filters.len()`.
    pub guard: Option<&'a Predicate>,
}

impl<'a> ScopeSpec<'a> {
    /// Filter `i`, where `filters.len()` names the null guard's equality.
    pub fn filter(&self, i: usize) -> &'a Predicate {
        self.filters
            .get(i)
            .copied()
            .or(self.guard)
            .expect("a filter index, or the null guard's")
    }
}

/// Why a scope could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No placement order satisfies the bindings' input requirements; the
    /// index is the first unplaceable binding in declaration order (the
    /// caller maps it onto its source kind for a precise diagnostic).
    Unplaceable {
        /// Index into [`ScopeSpec::bindings`].
        binding: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unplaceable { binding } => {
                write!(f, "binding #{binding} cannot be placed in any join order")
            }
        }
    }
}

impl std::error::Error for PlanError {}
