//! The physical scope plan and the planning pipeline.
//!
//! [`plan_scope`] turns a [`ScopeSpec`] into an executable [`ScopePlan`]:
//!
//! 1. **equality extraction** ([`crate::logical::extract_equalities`]);
//! 2. **join ordering** — greedy by estimated cardinality. Estimates are
//!    statistics-aware when the host supplies a
//!    [`DistinctEstimator`] backed by
//!    `ANALYZE` sketches: scans shrink by the MCV/histogram selectivity
//!    of their constant filters, probes divide by correlation-capped
//!    distinct counts — and without statistics every formula degrades to
//!    the former row-count behaviour;
//! 3. **per-operator access selection** — each relation step independently
//!    becomes a [`Access::HashProbe`] when an equality edge reaches it from
//!    already-placed or outer variables, and a plain [`Access::Scan`]
//!    otherwise;
//! 4. **predicate pushdown** — each filter is scheduled at the earliest
//!    step where all its variables are bound.
//!
//! Boolean quantifier scopes (the `semi-join ∃` / `anti-join ¬∃` roles of
//! `EXISTS`-shaped subformulas) additionally run the **decorrelation
//! pass** ([`plan_scope_boolean`]): when every correlated filter is a pure
//! equi-join between a scope-local expression and an outer expression
//! (plus optional outer-only prelude filters), the scope is planned as a
//! *set-level* semi/anti-join — a build pipeline (this module's usual
//! plan, with the correlated filters masked out and the outer environment
//! hidden) plus a [`Decorrelation`] describing the correlated-key
//! signature. The engine then evaluates the build **once**, keys a hash
//! set on the correlated columns, and answers every outer row with an
//! O(1) probe instead of re-entering the enumeration per row. The one
//! correlated *boolean subformula* the pass accepts is Eq 17's null guard
//! `L = O ∨ L is null ∨ O is null` (SQL's `NOT IN`): it becomes a single
//! **null-aware** key, whose probe also reads whether the build was
//! non-empty and whether it saw a `NULL` `L`.
//!
//! ## Observational equivalence
//!
//! Pushdown and probing only ever *skip* environments that a leaf filter
//! would reject anyway, and every pushed/probing decision is validated at
//! plan time: an expression whose attribute references do not all resolve
//! against the schemas they will bind to is left at the leaf, so
//! data-independent errors (`UnknownAttribute` is the only one scalar
//! evaluation can raise eagerly — arithmetic is total and null-poisoning)
//! surface exactly when the reference nested loop would surface them.
//! Join *reordering* changes enumeration order, so results are
//! bag-identical — not order-identical — to the paper's nested loops (the
//! `arc_analysis::oracle` reference).

use crate::analysis::{each_formula_free_ref, Parts};
use crate::logical::{const_cmp, eq_sides, extract_equalities, other_side, EqEdge};
use crate::scope::{
    DistinctEstimator, NoOuter, OuterScope, PlanError, QuantRef, ScopeSpec, SourceSpec,
    ABSTRACT_EST, DEFAULT_ROWS, EXTERNAL_EST, NESTED_EST,
};
use arc_core::ast::{CmpOp, Formula, Predicate, Scalar};
use arc_core::value::Value;

/// A reference to one orientation of an equality filter: the probe/input
/// expression is the *other* side of `filters[filter]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqInput {
    /// Index into the scope's filter list.
    pub filter: usize,
    /// Whether the bound attribute is the comparison's left operand.
    pub attr_on_left: bool,
}

/// One hash-probe key column: relation column `col` is matched against the
/// expression behind `eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeKey {
    /// Column index into the relation's schema.
    pub col: usize,
    /// Where the probe expression lives.
    pub eq: EqInput,
}

/// How one step obtains its tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Enumerate the source in storage order.
    Scan,
    /// Build/reuse a hash index on `keys` and probe it with expressions
    /// over earlier bindings (relation sources only).
    HashProbe {
        /// The key columns and their probe expressions.
        keys: Vec<ProbeKey>,
    },
    /// Solve an external relation through access pattern `pattern`, with
    /// one input expression per bound position.
    External {
        /// Index into the external's pattern list.
        pattern: usize,
        /// Input expressions, parallel to the pattern's bound positions.
        inputs: Vec<EqInput>,
    },
    /// Check an abstract relation in context: one input expression per
    /// head attribute.
    Abstract {
        /// Input expressions, parallel to the head attributes.
        inputs: Vec<EqInput>,
    },
    /// Evaluate a nested (lateral) collection per outer environment.
    Nested,
    /// Binary-search an ordered secondary index over `cols` for a bound
    /// prefix of constant predicates (relation sources only): constant
    /// equalities bind every column but the last, and the last column is
    /// closed by one or two constant range bounds. Predicates that do not
    /// fit the prefix (a second range column, `!=`, `IS NULL`) are
    /// *demoted* — they stay ordinary step filters over the streamed
    /// index matches.
    IndexRange {
        /// Index column order: equality-bound columns first (in filter
        /// order), then the single range-bound column.
        cols: Vec<usize>,
        /// Indices into the scope's filter list consumed by the bound —
        /// one equality per prefix column, then the range column's lower
        /// and/or upper bound filters last.
        filters: Vec<usize>,
    },
}

impl Access {
    /// Whether the access path itself enforces filter `filter` (a
    /// hash-probe key, or a bound an index range consumes), so that no
    /// step needs to re-check it.
    pub fn consumes(&self, filter: usize) -> bool {
        match self {
            Access::HashProbe { keys } => keys.iter().any(|k| k.eq.filter == filter),
            Access::IndexRange { filters, .. } => filters.contains(&filter),
            _ => false,
        }
    }

    /// Short operator name for `EXPLAIN`.
    pub fn name(&self) -> &'static str {
        match self {
            Access::Scan => "scan",
            Access::HashProbe { .. } => "hash-probe",
            Access::External { .. } => "external",
            Access::Abstract { .. } => "abstract-check",
            Access::Nested => "lateral",
            Access::IndexRange { .. } => "index-range",
        }
    }
}

/// One planned step: bind `bindings[binding]` via `access`, then apply the
/// pushed-down `filters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Index into [`ScopeSpec::bindings`].
    pub binding: usize,
    /// The chosen access path.
    pub access: Access,
    /// Filter indices evaluated as soon as this step's variable binds.
    pub filters: Vec<usize>,
    /// Estimated rows this step contributes per upstream environment, as
    /// planning priced it — in [`bucketed`] fractions, so it is a function
    /// of the plan's cache key. It decides
    /// ([`ScopePlan::partition_axis`]), and it is the `est=N` `EXPLAIN`
    /// prints: the estimate the plan was built from.
    pub estimated_rows: u64,
}

/// One correlated-key component of a decorrelated boolean scope: the
/// scope-local side of equality filter `filter` is evaluated per build
/// environment to form the key, the outer side per outer row to probe it
/// (orientation via [`eq_sides`]). `filter` may name the null guard's
/// equality ([`ScopeSpec::filter`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedKey {
    /// Index into the scope's filter list.
    pub filter: usize,
    /// Whether the scope-local expression is the comparison's left operand.
    pub local_on_left: bool,
}

/// Set-level decorrelation of a boolean quantifier scope (`∃` / `¬∃`):
/// attached to the scope's [`ScopePlan`] when the correlation with the
/// outer environment is a pure equi-join, or exactly one null guard. The
/// plan's steps then describe the **build** pipeline — planned with the
/// correlated filters masked out and the outer environment hidden, so
/// the build is provably outer-row independent and can be evaluated once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decorrelation {
    /// The correlated-key signature: which equality filters tie the scope
    /// body to the outer environment. May be empty when the only
    /// correlation is outer-only prelude filters (or none at all) — the
    /// build then collapses to a cached non-emptiness verdict.
    pub keys: Vec<CorrelatedKey>,
    /// Outer-only filters evaluated per outer row *before* probing (the
    /// filters the nested path would have checked as its prelude).
    pub probe_filters: Vec<usize>,
    /// Whether `keys` is the one key of the scope's null guard
    /// ([`ScopeSpec::guard`]): `L = O ∨ L is null ∨ O is null` rather
    /// than `L = O`. The scope then holds for an outer row iff the build
    /// is non-empty and `O` is `NULL`, or some `L` is `NULL`, or `O`'s key
    /// is in the set.
    pub null_aware: bool,
    /// Estimated distinct correlated keys in the build (semi-join
    /// selectivity): the distinct counts of the key columns, capped by
    /// the product of the planned build steps' estimates.
    pub est_keys: u64,
}

impl Decorrelation {
    /// The filters the probe enforces, which the build pipeline must
    /// therefore neither see nor schedule.
    fn masked(&self) -> Vec<usize> {
        let keys = self.keys.iter().map(|k| k.filter);
        keys.chain(self.probe_filters.iter().copied()).collect()
    }
}

/// The physical plan of one quantifier scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopePlan {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Filters over outer variables (or constants) only, evaluated once
    /// before the first step.
    pub prelude_filters: Vec<usize>,
    /// Filters evaluated only when every binding is bound (non-pushable:
    /// unresolved variables/attributes).
    pub leaf_filters: Vec<usize>,
    /// Present when this plan is the build side of a set-level semi/anti
    /// join (boolean scopes planned by [`plan_scope_boolean`] whose
    /// correlation is pure equi-join). `None` for every emitting scope and
    /// for boolean scopes that fell back to the nested path.
    pub decorrelation: Option<Decorrelation>,
}

/// Minimum estimated cardinality of an outer scan before partitioned
/// (parallel) execution pays for its morsel bookkeeping. Small scans run
/// sequentially even under `ARC_THREADS > 1`.
pub const PARALLEL_MIN_ROWS: u64 = 16;

/// Maximum estimated fraction of a relation an index-range bound prefix
/// may select before the planner keeps the (vectorized) full scan: an
/// ordered-index walk only beats a scan when the bound is selective, and
/// without `ANALYZE` statistics no bound can prove itself selective —
/// the default inequality guess (one third) sits above this threshold by
/// design, so un-analyzed catalogs plan exactly as before.
pub const INDEX_MAX_FRACTION: f64 = 0.25;

/// Mantissa bits of a fraction that costing keeps (see [`bucketed`]):
/// with 2, every power of two and every quarter step between two of them
/// is a bucket edge — [`INDEX_MAX_FRACTION`] among them.
pub const SELECTIVITY_BUCKET_BITS: u32 = 2;

impl ScopePlan {
    /// The step order as binding indices (convenience for callers that
    /// reorder their own side tables).
    pub fn binding_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.binding).collect()
    }

    /// The partition axis for parallel execution: the step whose scan the
    /// executor may split into morsels, chosen by the plan and the
    /// scope's role. Only a scope that `emits_rows` partitions — its
    /// morsels' rows, appended in morsel order, are the sequential
    /// emission order — never a grouping scope (it folds sequentially)
    /// or a boolean one (its first survivor decides). Only the *first*
    /// step qualifies (later steps enumerate per upstream environment,
    /// so splitting them would duplicate upstream work), and only when it
    /// enumerates a relation without keying off bound variables — a
    /// plain scan or an index-range scan (whose qualifying row ids
    /// partition like a scan's selection vector) estimated at
    /// [`PARALLEL_MIN_ROWS`] rows or more. Probes, external accesses,
    /// abstract checks, and laterals are not partitionable. `EXPLAIN`'s
    /// `partition(n)` marker and the executor both ask this one function.
    pub fn partition_axis(&self, emits_rows: bool) -> Option<usize> {
        let first = self.steps.first().filter(|_| emits_rows)?;
        (matches!(first.access, Access::Scan | Access::IndexRange { .. })
            && first.estimated_rows >= PARALLEL_MIN_ROWS)
            .then_some(0)
    }
}

/// The fraction costing uses in place of `raw`: the midpoint of `raw`'s
/// **selectivity bucket**. Buckets are the upper-inclusive intervals
/// between neighbouring floats that keep [`SELECTIVITY_BUCKET_BITS`]
/// mantissa bits — `(0.21875, 0.25]`, `(0.25, 0.3125]`, … — so a bucketed
/// fraction is within an eighth of the raw one, and lies on the same side
/// of every edge: a single fraction compared with an edge (the
/// [`INDEX_MAX_FRACTION`] gate) decides as the raw fraction would. Exact
/// `0` (and below) and exact `1` (and above) are buckets of their own; a
/// `NaN` stays one.
///
/// Every statistics answer that depends on a filter constant reaches the
/// planner through this function, and the plan cache's
/// [`scope_fingerprint`](crate::cache::scope_fingerprint) hashes the same
/// bucketed answers where the constants stood. A plan is therefore a
/// function of the key it is cached under: two statements that differ
/// only in constants of one bucket vector *are* planned identically, not
/// approximately so.
pub fn bucketed(raw: f64) -> f64 {
    if raw.is_nan() {
        return raw;
    }
    if raw <= 0.0 {
        return 0.0;
    }
    if raw >= 1.0 {
        return 1.0;
    }
    let shift = f64::MANTISSA_DIGITS - 1 - SELECTIVITY_BUCKET_BITS;
    // One step down makes the cell's upper edge inclusive.
    let cell = raw.next_down().to_bits() >> shift;
    f64::from_bits((cell << shift) | (1 << (shift - 1)))
}

/// The statistics estimator as costing sees it — the one place a
/// constant-dependent answer enters the planner, always as its
/// [`bucketed`] fraction.
#[derive(Clone, Copy)]
struct Priced<'e> {
    est: &'e dyn DistinctEstimator,
}

impl Priced<'_> {
    fn selectivity(&self, binding: usize, col: usize, op: CmpOp, value: &Value) -> Option<f64> {
        let raw = self.est.selectivity(binding, col, op, value)?;
        Some(bucketed(raw.clamp(0.0, 1.0)))
    }

    fn range_selectivity(
        &self,
        binding: usize,
        col: usize,
        lo: Option<(CmpOp, &Value)>,
        hi: Option<(CmpOp, &Value)>,
    ) -> Option<f64> {
        let raw = self.est.range_selectivity(binding, col, lo, hi)?;
        Some(bucketed(raw))
    }
}

/// Every constant-dependent fraction planning `spec` can consume, as
/// planning consumes it ([`bucketed`]), in a fixed order: per relation
/// binding, the selectivity of each constant comparison on it, then the
/// interval selectivity of each column an index range could close.
/// `None` is an answer too (no statistics for that column).
pub(crate) fn each_constant_fraction(spec: &ScopeSpec<'_>, visit: &mut impl FnMut(Option<f64>)) {
    let Some(est) = spec.estimator else {
        return;
    };
    let priced = Priced { est };
    for (bi, b) in spec.bindings.iter().enumerate() {
        let SourceSpec::Relation { schema, .. } = &b.source else {
            continue;
        };
        let mut constants = false;
        for p in spec.filters {
            if let Some((col, op, value)) = const_cmp(p, b.var, schema) {
                visit(priced.selectivity(bi, col, op, value));
                constants = true;
            }
        }
        if constants {
            let bounds = ConstBounds::gather(spec, b.var, schema, &[]);
            bounds.each_range(&mut |col, lo, hi| {
                visit(priced.range_selectivity(bi, col, bound_of(lo), bound_of(hi)))
            });
        }
    }
}

/// A placement candidate found during one ordering round.
struct Candidate {
    binding: usize,
    access: Access,
    cost: f64,
}

/// The `plan.runs` registry counter: actual planning runs since process
/// start (cache hits do not plan, so the delta across a workload measures
/// cache effectiveness — the engine's plan-cache tests assert correlated
/// scopes plan O(1) times, not once per outer row). Consolidated into the
/// `arc-trace` registry so `arc_trace::snapshot()` diffs cover it.
fn runs_counter() -> arc_trace::Counter {
    static C: std::sync::OnceLock<arc_trace::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| arc_trace::counter("plan.runs"))
}

/// Total [`plan_scope`] invocations so far in this process (the
/// `plan.runs` registry counter).
pub fn planner_runs() -> u64 {
    runs_counter().get()
}

/// Plan one quantifier scope. See the module docs for the pass pipeline.
pub fn plan_scope(spec: &ScopeSpec<'_>) -> Result<ScopePlan, PlanError> {
    runs_counter().inc();
    plan_scope_impl(spec, &[])
}

/// Plan a *boolean* quantifier scope (`∃` / `¬∃` truth, no emission):
/// this first runs the decorrelation pass, and when the scope's
/// correlation with the outer environment is a pure equi-join (or one
/// null guard) the returned plan describes the build pipeline and carries
/// a [`Decorrelation`] (see [`ScopePlan::decorrelation`]). Everything
/// else — non-equi correlation, placements that need the outer
/// environment — falls back to the ordinary [`plan_scope`] result.
pub fn plan_scope_boolean(spec: &ScopeSpec<'_>) -> Result<ScopePlan, PlanError> {
    runs_counter().inc();
    if let Some(plan) = try_decorrelate(spec) {
        return Ok(plan);
    }
    plan_scope_impl(spec, &[])
}

/// A boolean scope's null guard: `parts.pre_bool[index]` is Eq 17's
/// `L = O ∨ L is null ∨ O is null`, and `eq` its disjunct `L = O`.
#[derive(Debug, Clone, Copy)]
pub struct NullGuard<'f> {
    /// Index into the partition's `pre_bool`.
    pub index: usize,
    /// The guard's equality: the caller's [`ScopeSpec::guard`].
    pub eq: &'f Predicate,
}

/// Structural eligibility of a boolean quantifier scope for set-level
/// decorrelation: no grouping, no outer-join annotation, no aggregates,
/// and no boolean subformula that references an outer variable (that
/// would be correlation the equi-join key cannot capture) — except at
/// most one **null guard**: an `Or` of exactly the three disjuncts
/// `L = O` (or `O = L`), `L is null` and `O is null`, in any order. `None`
/// means the scope stays nested; `Some(guard)` that it may decorrelate,
/// with its null guard if it has one. Whether `L` is scope-local and `O`
/// outer-only — and every filter-level classification — is decided
/// inside [`plan_scope_boolean`]; this is the cheap shape check both the
/// engine and `EXPLAIN` run first. `parts` is the caller's
/// already-computed *boolean* partition of `q.body` (head `"\u{0}"`) —
/// both callers have it in hand, and this check runs once per compiled
/// scope, so re-deriving it here would walk the body twice.
pub fn decorrelatable_shape<'f>(
    q: QuantRef<'_>,
    parts: &Parts<'f>,
    outer: &dyn OuterScope,
) -> Option<Option<NullGuard<'f>>> {
    if q.grouping.is_some() || q.join.is_some_and(|t| t.has_outer()) {
        return None;
    }
    if !parts.agg_tests.is_empty() || !parts.post_bool.is_empty() {
        return None;
    }
    let mut guard = None;
    for (index, b) in parts.pre_bool.iter().enumerate() {
        let mut correlated = false;
        each_formula_free_ref(b, &mut |r| {
            correlated |=
                !q.bindings.iter().any(|bi| bi.var == r.var) && outer.attrs(&r.var).is_some();
        });
        if !correlated {
            continue;
        }
        match null_guard(b) {
            Some(eq) if guard.is_none() => guard = Some(NullGuard { index, eq }),
            _ => return None,
        }
    }
    Some(guard)
}

/// The equality `L = O` of a formula that is exactly `L = O ∨ L is null ∨
/// O is null` (disjuncts in any order, `=` in either orientation).
fn null_guard(f: &Formula) -> Option<&Predicate> {
    let Formula::Or(disjuncts) = f else {
        return None;
    };
    let [Formula::Pred(a), Formula::Pred(b), Formula::Pred(c)] = disjuncts.as_slice() else {
        return None;
    };
    fn is_null(p: &Predicate) -> Option<&Scalar> {
        match p {
            Predicate::IsNull {
                expr,
                negated: false,
            } => Some(expr),
            _ => None,
        }
    }
    [(a, b, c), (b, a, c), (c, a, b)]
        .into_iter()
        .find_map(|(eq, x, y)| {
            let Predicate::Cmp {
                left,
                op: CmpOp::Eq,
                right,
            } = eq
            else {
                return None;
            };
            let (x, y) = (is_null(x)?, is_null(y)?);
            ((x == left && y == right) || (x == right && y == left)).then_some(eq)
        })
}

/// How one side of a filter relates to the scope.
#[derive(PartialEq, Eq, Clone, Copy)]
enum SideKind {
    /// No attribute references (constant expression).
    Neutral,
    /// All references are scope-local and resolve against the binding
    /// schemas.
    Local,
    /// At least one reference, all to visible outer variables, all
    /// resolving against the outer schemas.
    Outer,
    /// Mixed, unresolvable, unknown-variable, or aggregate-bearing: the
    /// decorrelation pass must bail.
    Opaque,
}

/// The binding that declares `var`, if the scope has one.
fn local<'s, 'a>(spec: &'s ScopeSpec<'a>, var: &str) -> Option<&'s crate::scope::BindingSpec<'a>> {
    spec.bindings.iter().find(|b| b.var == var)
}

/// The decorrelation pass: classify every filter as build-side
/// (outer-free), probe-prelude (outer-only), or a correlated equi-join
/// key — then plan the build with the correlated filters masked and the
/// outer environment hidden. A null guard's equality must be the scope's
/// only key, local on one side and outer on the other. `None` means "not
/// decorrelatable, use the nested path".
fn try_decorrelate(spec: &ScopeSpec<'_>) -> Option<ScopePlan> {
    let duplicates = spec
        .bindings
        .iter()
        .enumerate()
        .any(|(i, b)| spec.bindings[..i].iter().any(|e| e.var == b.var));
    if duplicates {
        // Duplicate range-variable names: plan-time resolution could
        // disagree with the runtime's innermost-first lookup.
        return None;
    }
    let side_kind = |s: &Scalar| -> SideKind {
        if s.has_aggregate() {
            return SideKind::Opaque;
        }
        // What the references are, and whether each resolves where it
        // points: all local, or all to visible outer variables.
        let (mut refs, mut locals, mut resolved) = (0usize, 0usize, true);
        s.each_attr_ref(&mut |r| {
            refs += 1;
            match local(spec, &r.var) {
                Some(b) => {
                    locals += 1;
                    resolved &= b.source.schema().contains(&r.attr);
                }
                None => {
                    resolved &= spec
                        .outer
                        .attrs(&r.var)
                        .is_some_and(|attrs| attrs.contains(&r.attr));
                }
            }
        });
        match (refs, locals) {
            (0, _) => SideKind::Neutral,
            (n, l) if l == n && resolved => SideKind::Local,
            (_, 0) if resolved => SideKind::Outer,
            _ => SideKind::Opaque,
        }
    };

    let mut keys: Vec<CorrelatedKey> = Vec::new();
    let mut probe_filters: Vec<usize> = Vec::new();
    // The null guard's equality classifies like a filter, as filter
    // `filters.len()`.
    for (i, p) in spec.filters.iter().copied().chain(spec.guard).enumerate() {
        // Build-side filters reference no visible outer variable at all
        // (locals, constants, or unknown names — the latter error at the
        // build's leaf exactly as they would at the nested path's leaf).
        let mut touches_outer = false;
        p.each_attr_ref(&mut |r| {
            touches_outer |= local(spec, &r.var).is_none() && spec.outer.attrs(&r.var).is_some();
        });
        if !touches_outer {
            continue;
        }
        match p {
            Predicate::Cmp {
                left,
                op: CmpOp::Eq,
                right,
            } => match (side_kind(left), side_kind(right)) {
                (SideKind::Local, SideKind::Outer) => keys.push(CorrelatedKey {
                    filter: i,
                    local_on_left: true,
                }),
                (SideKind::Outer, SideKind::Local) => keys.push(CorrelatedKey {
                    filter: i,
                    local_on_left: false,
                }),
                (SideKind::Outer, SideKind::Outer | SideKind::Neutral)
                | (SideKind::Neutral, SideKind::Outer) => probe_filters.push(i),
                _ => return None,
            },
            // Any other correlated predicate shape is probe-prelude when
            // it is outer-only and fully resolvable, and a bailout
            // otherwise (non-equi correlation touching locals).
            Predicate::Cmp { left, right, .. } => match (side_kind(left), side_kind(right)) {
                (SideKind::Outer | SideKind::Neutral, SideKind::Outer | SideKind::Neutral) => {
                    probe_filters.push(i)
                }
                _ => return None,
            },
            Predicate::IsNull { expr, .. } => match side_kind(expr) {
                SideKind::Outer => probe_filters.push(i),
                _ => return None,
            },
        }
    }

    // A guarded scope's one key is its guard: another equi-join key would
    // need a NULL bit per key, and a guard over outer-only or constant
    // sides is no key at all.
    if spec.guard.is_some() && !matches!(keys.as_slice(), [k] if k.filter == spec.filters.len()) {
        return None;
    }

    // Plan the build with the correlated filters masked out and NO outer
    // environment: a placement that would need an outer variable (lateral
    // free vars, external/abstract inputs through outer expressions)
    // fails here, and the scope falls back to the nested path — which is
    // what keeps the build provably outer-row independent.
    let mut decorrelation = Decorrelation {
        keys,
        probe_filters,
        null_aware: spec.guard.is_some(),
        est_keys: 0,
    };
    let mut plan = plan_scope_impl(&build_spec(spec), &decorrelation.masked()).ok()?;
    decorrelation.est_keys = est_keys(spec, &decorrelation.keys, &plan.steps);
    plan.decorrelation = Some(decorrelation);
    Some(plan)
}

/// `spec` as a decorrelated scope's build pipeline is planned: the outer
/// environment hidden.
fn build_spec<'a>(spec: &ScopeSpec<'a>) -> ScopeSpec<'a> {
    ScopeSpec {
        bindings: spec.bindings.clone(),
        filters: spec.filters,
        outer: &NoOuter,
        estimator: spec.estimator,
        guard: spec.guard,
    }
}

/// [`Decorrelation::est_keys`] of a build planned as `steps`.
fn est_keys(spec: &ScopeSpec<'_>, keys: &[CorrelatedKey], steps: &[Step]) -> u64 {
    let build_rows = steps
        .iter()
        .fold(1u64, |acc, s| acc.saturating_mul(s.estimated_rows.max(1)));
    distinct_keys(spec, keys).map_or(build_rows, |d| d.min(build_rows))
}

/// Product of the distinct counts of a decorrelated scope's correlated
/// key columns, per binding — `None` unless every key is a bare local
/// attribute the estimator knows.
fn distinct_keys(spec: &ScopeSpec<'_>, keys: &[CorrelatedKey]) -> Option<u64> {
    let est = spec.estimator?;
    if keys.is_empty() {
        return None;
    }
    let mut per_binding: Vec<(usize, Vec<usize>)> = Vec::new();
    for k in keys {
        let (Scalar::Attr(a), _) = eq_sides(spec.filter(k.filter), k.local_on_left) else {
            return None;
        };
        let bi = spec.bindings.iter().position(|b| b.var == a.var)?;
        let col = spec.bindings[bi]
            .source
            .schema()
            .iter()
            .position(|s| s == &a.attr)?;
        match per_binding.iter_mut().find(|(b, _)| *b == bi) {
            Some((_, cols)) => cols.push(col),
            None => per_binding.push((bi, vec![col])),
        }
    }
    per_binding.iter().try_fold(1u64, |product, (bi, cols)| {
        Some(product.saturating_mul(est.distinct(*bi, cols)?.max(1) as u64))
    })
}

/// A cost as the step estimate it is reported as.
fn rows_of(cost: f64) -> u64 {
    cost.round().max(1.0) as u64
}

/// The scope's equality edges, minus those of `masked` filters.
fn unmasked_equalities<'a>(spec: &ScopeSpec<'a>, masked: &[usize]) -> Vec<EqEdge<'a>> {
    let mut edges = extract_equalities(spec.filters);
    edges.retain(|e| !masked.contains(&e.filter));
    edges
}

/// The shared planning pipeline. `masked` filters are invisible to every
/// pass — they can neither drive probe keys / external inputs nor be
/// scheduled anywhere — because the caller enforces them elsewhere (the
/// decorrelated probe).
fn plan_scope_impl(spec: &ScopeSpec<'_>, masked: &[usize]) -> Result<ScopePlan, PlanError> {
    let edges = unmasked_equalities(spec, masked);
    let mut remaining: Vec<usize> = (0..spec.bindings.len()).collect();
    let mut placed: Vec<usize> = Vec::with_capacity(remaining.len()); // in step order
    let mut steps: Vec<Step> = Vec::with_capacity(remaining.len());

    while !remaining.is_empty() {
        let placement = Placement {
            spec,
            edges: &edges,
            masked,
            placed: &placed,
        };
        // Greedy: strictly smaller estimated cardinality wins; ties keep
        // declaration order (remaining is ordered).
        let mut best: Option<Candidate> = None;
        for &bi in &remaining {
            let Some(c) = placement.candidate(bi) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| c.cost < b.cost) {
                best = Some(c);
            }
        }
        let Some(c) = best else {
            return Err(PlanError::Unplaceable {
                binding: remaining[0],
            });
        };
        remaining.retain(|&i| i != c.binding);
        placed.push(c.binding);
        steps.push(Step {
            binding: c.binding,
            access: c.access,
            filters: Vec::new(),
            estimated_rows: rows_of(c.cost),
        });
    }

    let mut plan = ScopePlan {
        steps,
        prelude_filters: Vec::new(),
        leaf_filters: Vec::new(),
        decorrelation: None,
    };
    assign_filters(spec, masked, &mut plan);
    Ok(plan)
}

/// One ordering round's view of the scope: what is placed so far, and
/// how candidates for the next step are found and priced.
struct Placement<'p, 'a> {
    spec: &'p ScopeSpec<'a>,
    /// The scope's (unmasked) equality edges.
    edges: &'p [EqEdge<'a>],
    masked: &'p [usize],
    /// Binding indices placed so far, in step order.
    placed: &'p [usize],
}

impl Placement<'_, '_> {
    /// A variable is usable by a probe/input/lateral expression once its
    /// binding is placed; a scope-local name that is not yet placed must
    /// NOT fall back to a same-named outer variable (the local shadows
    /// it).
    fn usable(&self, var: &str) -> bool {
        self.placed
            .iter()
            .any(|&i| self.spec.bindings[i].var == var)
            || (local(self.spec, var).is_none() && self.spec.outer.attrs(var).is_some())
    }

    /// Plan-time attribute resolution, mirroring runtime lookup order:
    /// placed bindings shadow the outer environment, innermost first.
    fn attr_resolves(&self, r: &arc_core::ast::AttrRef) -> bool {
        for &i in self.placed.iter().rev() {
            if self.spec.bindings[i].var == r.var {
                return self.spec.bindings[i].source.schema().contains(&r.attr);
            }
        }
        self.spec
            .outer
            .attrs(&r.var)
            .is_some_and(|attrs| attrs.contains(&r.attr))
    }

    /// One resolvable input expression per required attribute of `var`
    /// (the shared determination rule for external access patterns and
    /// abstract relations), or `None` when any attribute is
    /// undetermined. The expressions are evaluated eagerly at enumeration
    /// time, so only variable reachability is required (attribute errors
    /// surface as they would at the leaf).
    fn determined_inputs<'s>(
        &self,
        var: &str,
        attrs: impl Iterator<Item = &'s String>,
    ) -> Option<Vec<EqInput>> {
        attrs
            .map(|attr| {
                self.edges
                    .iter()
                    .find(|e| {
                        let mut reachable = e.var == var && e.attr == attr;
                        if reachable {
                            other_side(self.spec.filters[e.filter], e.attr_on_left)
                                .each_attr_ref(&mut |r| reachable &= self.usable(&r.var));
                        }
                        reachable
                    })
                    .map(|e| EqInput {
                        filter: e.filter,
                        attr_on_left: e.attr_on_left,
                    })
            })
            .collect()
    }

    /// The way binding `bi` could be placed next and what that would
    /// cost, or `None` while it cannot be placed.
    fn candidate(&self, bi: usize) -> Option<Candidate> {
        let spec = self.spec;
        let b = &spec.bindings[bi];
        let (access, cost) = match &b.source {
            SourceSpec::Relation { schema, rows, .. } => {
                self.relation_candidate(bi, b.var, schema, *rows)
            }
            SourceSpec::External { schema, patterns } => (
                patterns.iter().enumerate().find_map(|(pi, bound)| {
                    self.determined_inputs(b.var, bound.iter().map(|&pos| &schema[pos]))
                        .map(|inputs| Access::External {
                            pattern: pi,
                            inputs,
                        })
                })?,
                EXTERNAL_EST,
            ),
            SourceSpec::Abstract { attrs } => (
                Access::Abstract {
                    inputs: self.determined_inputs(b.var, attrs.iter())?,
                },
                ABSTRACT_EST,
            ),
            SourceSpec::Nested { free, .. } => {
                if !free.iter().all(|v| self.usable(v)) {
                    return None;
                }
                (Access::Nested, NESTED_EST)
            }
        };
        Some(Candidate {
            binding: bi,
            access,
            cost,
        })
    }

    fn relation_candidate(
        &self,
        bi: usize,
        var: &str,
        schema: &[String],
        rows: Option<usize>,
    ) -> (Access, f64) {
        let (spec, masked) = (self.spec, self.masked);
        let priced = spec.estimator.map(|est| Priced { est });
        let keys = self.probe_keys(var, schema);
        let rows_f = rows.unwrap_or(DEFAULT_ROWS) as f64;
        if keys.is_empty() {
            // Statistics-scaled scan: constant comparisons on this
            // binding shrink the estimate (MCV / histogram selectivity)
            // when stats exist — without statistics the product is 1 and
            // the cost is the plain row count, as ever.
            let sel = const_selectivity(spec, priced, bi, var, schema, masked);
            // A selective constant bound prefix upgrades the scan to an
            // index-range walk over the same rows (the estimate is
            // unchanged — the access path is, not the output).
            let access = index_candidate(spec, bi, var, schema, masked).unwrap_or(Access::Scan);
            return (access, rows_f * sel);
        }
        // Probe cost: constant-keyed columns use their measured equality
        // selectivity (MCV-aware); the remaining key columns divide by
        // the distinct-key estimate; residual constant filters (not
        // consumed by the probe) scale the result like they scale a scan.
        let mut var_cols: Vec<usize> = Vec::new();
        let mut probed: Vec<usize> = masked.to_vec();
        let mut cost = rows_f;
        let mut all_const = true;
        for k in &keys {
            probed.push(k.eq.filter);
            let probe = other_side(spec.filters[k.eq.filter], k.eq.attr_on_left);
            let known = match (probe, priced) {
                (Scalar::Const(v), Some(p)) => p.selectivity(bi, k.col, CmpOp::Eq, v),
                _ => None,
            };
            all_const &= matches!(probe, Scalar::Const(_));
            match known {
                Some(s) => cost *= s,
                None => var_cols.push(k.col),
            }
        }
        if !var_cols.is_empty() {
            let distinct = spec
                .estimator
                .and_then(|e| e.distinct(bi, &var_cols))
                .unwrap_or_else(|| rows.unwrap_or(DEFAULT_ROWS).max(1));
            cost /= distinct.max(1) as f64;
        }
        cost *= const_selectivity(spec, priced, bi, var, schema, &probed);
        // When every probe key is a *constant* (no dependence on other
        // bindings), an ordered index can bind those equalities as its
        // prefix AND close it with a range predicate a hash bucket
        // cannot capture — prefer it when the bound prices selective
        // enough.
        let access = all_const
            .then(|| index_candidate(spec, bi, var, schema, masked))
            .flatten()
            .unwrap_or(Access::HashProbe { keys });
        (access, cost.max(1.0))
    }

    /// Hash-probe key selection for one relation binding: every equality
    /// edge `var.attr = expr` whose probe expression is computable from
    /// bindings placed *before* it (or unshadowed outer variables), does
    /// not mention `var` itself, and resolves attribute-by-attribute at
    /// plan time.
    fn probe_keys(&self, var: &str, schema: &[String]) -> Vec<ProbeKey> {
        let mut keys = Vec::new();
        for e in self.edges {
            if e.var != var {
                continue;
            }
            let Some(col) = schema.iter().position(|a| a == e.attr) else {
                continue;
            };
            let probe = other_side(self.spec.filters[e.filter], e.attr_on_left);
            // Probing must be a pure per-tuple evaluation: no aggregates,
            // no self-references, and every attribute reference must be
            // both reachable and resolvable at plan time (see module docs
            // on error equivalence).
            let mut pure = !probe.has_aggregate();
            if pure {
                probe.each_attr_ref(&mut |r| {
                    pure &= r.var != var && self.usable(&r.var) && self.attr_resolves(r)
                });
            }
            if pure {
                keys.push(ProbeKey {
                    col,
                    eq: EqInput {
                        filter: e.filter,
                        attr_on_left: e.attr_on_left,
                    },
                });
            }
        }
        keys
    }
}

/// One constant bound of a column: `(column, filter, operator, constant)`.
type ConstBound<'a> = (usize, usize, CmpOp, &'a Value);

fn bound_of<'a>(b: Option<&ConstBound<'a>>) -> Option<(CmpOp, &'a Value)> {
    b.map(|&(_, _, op, v)| (op, v))
}

/// The constant predicates on one relation binding an ordered-index
/// bound could enforce ([`const_cmp`]-shaped — the only shape it can):
/// the first per column and direction, in filter order.
struct ConstBounds<'a> {
    eq: Vec<ConstBound<'a>>,
    lo: Vec<ConstBound<'a>>,
    hi: Vec<ConstBound<'a>>,
}

impl<'a> ConstBounds<'a> {
    fn gather(spec: &ScopeSpec<'a>, var: &str, schema: &[String], masked: &[usize]) -> Self {
        let mut bounds = ConstBounds {
            eq: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
        };
        for (i, p) in spec.filters.iter().enumerate() {
            if masked.contains(&i) {
                continue;
            }
            let Some((col, op, v)) = const_cmp(p, var, schema) else {
                continue;
            };
            let side = match op {
                CmpOp::Eq => &mut bounds.eq,
                CmpOp::Gt | CmpOp::Ge => &mut bounds.lo,
                CmpOp::Lt | CmpOp::Le => &mut bounds.hi,
                CmpOp::Ne => continue,
            };
            if !side.iter().any(|&(c, ..)| c == col) {
                side.push((col, i, op, v));
            }
        }
        bounds
    }

    /// The columns a range bound could close a prefix on, each with its
    /// lower and upper bound: lower-bounded columns first, then the
    /// upper-bounded only, each in filter order. An equality on the same
    /// column is already tighter — those columns are skipped.
    fn each_range(
        &self,
        visit: &mut impl FnMut(usize, Option<&ConstBound<'a>>, Option<&ConstBound<'a>>),
    ) {
        let bounded = |side: &'_ [ConstBound<'a>], col: usize| -> bool {
            side.iter().any(|&(c, ..)| c == col)
        };
        let lower = self.lo.iter().map(|&(c, ..)| c);
        let upper_only = self
            .hi
            .iter()
            .map(|&(c, ..)| c)
            .filter(|&c| !bounded(&self.lo, c));
        for col in lower.chain(upper_only) {
            if bounded(&self.eq, col) {
                continue;
            }
            visit(
                col,
                self.lo.iter().find(|&&(c, ..)| c == col),
                self.hi.iter().find(|&&(c, ..)| c == col),
            );
        }
    }
}

/// Ordered-index access selection for one relation binding: gather the
/// constant predicates ([`ConstBounds`]), form the bound prefix (every
/// constant-equality column, then ONE range-bound column closing it; a
/// lower and an upper bound on the same column combine into an
/// interval), and price the prefix with the statistics estimator in
/// [`bucketed`] fractions. Returns `None` — keeping the caller's
/// scan/probe — when no range bound exists, the range column's
/// selectivity is unknown (no `ANALYZE` statistics), or the priced prefix
/// is not selective enough ([`INDEX_MAX_FRACTION`]).
///
/// Everything this function does *not* consume — a second range column,
/// duplicate equalities, `!=`, `IS NULL` — is demoted: it stays in the
/// pushdown pass's hands and runs as an ordinary filter over the
/// streamed index matches.
fn index_candidate(
    spec: &ScopeSpec<'_>,
    binding: usize,
    var: &str,
    schema: &[String],
    masked: &[usize],
) -> Option<Access> {
    let priced = Priced {
        est: spec.estimator?,
    };
    let bounds = ConstBounds::gather(spec, var, schema, masked);
    // The range column closing the prefix: the most selective
    // statistics-priced interval among the range-bound columns.
    let mut best: Option<(usize, [Option<usize>; 2], f64)> = None; // (col, filters, fraction)
    bounds.each_range(&mut |col, l, h| {
        let Some(frac) = priced.range_selectivity(binding, col, bound_of(l), bound_of(h)) else {
            return;
        };
        if best.as_ref().is_none_or(|b| frac < b.2) {
            best = Some((col, [l.map(|b| b.1), h.map(|b| b.1)], frac));
        }
    });
    let (range_col, range_filters, range_frac) = best?;
    // Price the whole bound prefix: known equality selectivities shrink
    // it further; unknown ones contribute nothing (a bound cannot claim
    // selectivity the statistics cannot back).
    let mut sel = range_frac;
    for &(col, _, _, v) in &bounds.eq {
        if let Some(s) = priced.selectivity(binding, col, CmpOp::Eq, v) {
            sel *= s;
        }
    }
    if sel.is_nan() || sel > INDEX_MAX_FRACTION {
        return None;
    }
    let mut cols: Vec<usize> = bounds.eq.iter().map(|&(c, ..)| c).collect();
    let mut filters: Vec<usize> = bounds.eq.iter().map(|&(_, f, ..)| f).collect();
    cols.push(range_col);
    filters.extend(range_filters.into_iter().flatten());
    Some(Access::IndexRange { cols, filters })
}

/// Combined selectivity of the scope's constant comparisons against
/// binding `binding` (`var.attr op const`, either orientation, plus
/// `var.attr IS [NOT] NULL`), asked of the statistics estimator. Filters
/// listed in `exclude` (already consumed as probe keys) are skipped, as
/// is any filter the estimator has no answer for — with no statistics the
/// product is exactly 1 and the caller's estimate is unchanged.
fn const_selectivity(
    spec: &ScopeSpec<'_>,
    priced: Option<Priced<'_>>,
    binding: usize,
    var: &str,
    schema: &[String],
    exclude: &[usize],
) -> f64 {
    let Some(priced) = priced else {
        return 1.0;
    };
    let mut sel = 1.0f64;
    for (i, p) in spec.filters.iter().enumerate() {
        if exclude.contains(&i) {
            continue;
        }
        match p {
            Predicate::Cmp { .. } => {
                let Some((col, op, value)) = const_cmp(p, var, schema) else {
                    continue;
                };
                if let Some(s) = priced.selectivity(binding, col, op, value) {
                    sel *= s;
                }
            }
            Predicate::IsNull { expr, negated } => {
                let Scalar::Attr(a) = expr else { continue };
                if a.var != var {
                    continue;
                }
                let Some(col) = schema.iter().position(|s| s == &a.attr) else {
                    continue;
                };
                if let Some(f) = priced.est.null_fraction(binding, col) {
                    let f = f.clamp(0.0, 1.0);
                    sel *= if *negated { 1.0 - f } else { f };
                }
            }
        }
    }
    sel
}

/// Where the pushdown pass puts one filter.
enum Slot {
    Prelude,
    Step(usize),
    Leaf,
}

/// The earliest point where all of `p`'s variables are bound and
/// resolve, given the placed `steps`.
fn slot_of(spec: &ScopeSpec<'_>, steps: &[Step], p: &Predicate) -> Slot {
    let mut level: Option<usize> = None; // None = prelude
    let mut leaf = false;
    p.each_attr_ref(&mut |r| {
        // Locals shadow the outer scope once placed — and every local is
        // placed by now (innermost binding of a name decides).
        let step = steps
            .iter()
            .rposition(|s| spec.bindings[s.binding].var == r.var);
        let resolves = match step {
            Some(s) => spec.bindings[steps[s].binding]
                .source
                .schema()
                .contains(&r.attr),
            // Unknown variable: only the leaf may (or may not) see it,
            // exactly like the reference.
            None => spec
                .outer
                .attrs(&r.var)
                .is_some_and(|attrs| attrs.contains(&r.attr)),
        };
        leaf |= !resolves;
        // The *first* binding of the name decides when it is available.
        let bound_at = steps
            .iter()
            .position(|s| spec.bindings[s.binding].var == r.var);
        level = level.max(bound_at);
    });
    match (leaf, level) {
        (true, _) => Slot::Leaf,
        (false, None) => Slot::Prelude,
        (false, Some(s)) => Slot::Step(s),
    }
}

/// The predicate-pushdown pass: schedule each filter at the earliest point
/// where all its variables are bound — before the first step for
/// outer-only filters, after step *i* when the latest local variable binds
/// at step *i*, and at the leaf when a variable or attribute cannot be
/// resolved at plan time (preserving the reference's lazy error surfacing).
fn assign_filters(spec: &ScopeSpec<'_>, masked: &[usize], plan: &mut ScopePlan) {
    for (i, p) in spec.filters.iter().enumerate() {
        if masked.contains(&i) {
            // Masked filters (decorrelated correlated keys and probe
            // preludes) are enforced by the semi-join probe, never by the
            // build pipeline.
            continue;
        }
        match slot_of(spec, &plan.steps, p) {
            Slot::Prelude => plan.prelude_filters.push(i),
            // A filter consumed as a hash-probe key of step `s` is
            // already fully enforced by the probe
            // (`Relation::key_for`-style keys coincide exactly with
            // `compare(..) == Equal`, and NULL/NaN probes match nothing —
            // the same equivalence the probe itself relies on), and its
            // slot is necessarily `s` (the probe side binds last there).
            // The same holds for the constant filters an index-range
            // bound consumes: the ordered-index binary search admits
            // exactly the rows those filters accept. Skip the redundant
            // re-evaluation per matched row.
            Slot::Step(s) if plan.steps[s].access.consumes(i) => {}
            Slot::Step(s) => plan.steps[s].filters.push(i),
            Slot::Leaf => plan.leaf_filters.push(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{BindingSpec, NoOuter, ScopeSpec, SourceSpec};
    use arc_core::ast::{Formula, Predicate};
    use arc_core::dsl::*;

    fn pred(f: Formula) -> Predicate {
        match f {
            Formula::Pred(p) => p,
            other => panic!("expected predicate, got {other:?}"),
        }
    }

    fn schema(attrs: &[&str]) -> Vec<String> {
        attrs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn auto_orders_by_cardinality_and_probes() {
        let rs = schema(&["A", "B"]);
        let ss = schema(&["B", "C"]);
        let join = pred(eq(col("r", "B"), col("s", "B")));
        let filters: Vec<&Predicate> = vec![&join];
        let spec = ScopeSpec {
            bindings: vec![
                BindingSpec {
                    var: "r",
                    source: SourceSpec::Relation {
                        name: "T",
                        schema: &rs,
                        rows: Some(1000),
                    },
                },
                BindingSpec {
                    var: "s",
                    source: SourceSpec::Relation {
                        name: "T",
                        schema: &ss,
                        rows: Some(10),
                    },
                },
            ],
            filters: &filters,
            outer: &NoOuter,
            estimator: None,
            guard: None,
        };
        let plan = plan_scope(&spec).unwrap();
        // The small relation scans first; the big one is hash-probed.
        assert_eq!(plan.binding_order(), vec![1, 0]);
        assert!(matches!(plan.steps[1].access, Access::HashProbe { .. }));
        // The join filter is fully enforced by the probe: it appears
        // neither on a step nor at the leaf.
        assert!(plan.steps.iter().all(|s| s.filters.is_empty()));
        assert!(plan.leaf_filters.is_empty());
    }

    #[test]
    fn unresolvable_attribute_stays_at_the_leaf() {
        // `r.NOPE` does not resolve: the filter must not be pushed down and
        // the probe key must be rejected — preserving lazy error surfacing.
        let rs = schema(&["A"]);
        let ss = schema(&["B"]);
        let join = pred(eq(col("s", "B"), col("r", "NOPE")));
        let filters: Vec<&Predicate> = vec![&join];
        let spec = ScopeSpec {
            bindings: vec![
                BindingSpec {
                    var: "r",
                    source: SourceSpec::Relation {
                        name: "T",
                        schema: &rs,
                        rows: Some(1),
                    },
                },
                BindingSpec {
                    var: "s",
                    source: SourceSpec::Relation {
                        name: "T",
                        schema: &ss,
                        rows: Some(5),
                    },
                },
            ],
            filters: &filters,
            outer: &NoOuter,
            estimator: None,
            guard: None,
        };
        let plan = plan_scope(&spec).unwrap();
        assert_eq!(plan.leaf_filters, vec![0]);
        assert!(plan.steps.iter().all(|s| s.access == Access::Scan));
    }

    #[test]
    fn abstract_requires_all_attrs_determined() {
        let attrs = schema(&["x", "y"]);
        let rs = schema(&["A"]);
        let only_x = pred(eq(col("a", "x"), col("r", "A")));
        let filters: Vec<&Predicate> = vec![&only_x];
        let spec = ScopeSpec {
            bindings: vec![
                BindingSpec {
                    var: "a",
                    source: SourceSpec::Abstract { attrs: &attrs },
                },
                BindingSpec {
                    var: "r",
                    source: SourceSpec::Relation {
                        name: "T",
                        schema: &rs,
                        rows: Some(3),
                    },
                },
            ],
            filters: &filters,
            outer: &NoOuter,
            estimator: None,
            guard: None,
        };
        let err = plan_scope(&spec).unwrap_err();
        assert_eq!(err, PlanError::Unplaceable { binding: 0 });
    }

    /// A statistics stub answering one fixed fraction per column for
    /// every comparison (`None` = that column has no statistics).
    struct StubStats {
        by_col: Vec<Option<f64>>,
    }
    impl crate::scope::DistinctEstimator for StubStats {
        fn basis(&self, _binding: usize) -> crate::scope::Basis {
            crate::scope::Basis::Statistics
        }
        fn distinct(&self, _binding: usize, _cols: &[usize]) -> Option<usize> {
            None
        }
        fn selectivity(
            &self,
            _binding: usize,
            col: usize,
            _op: CmpOp,
            _value: &Value,
        ) -> Option<f64> {
            self.by_col.get(col).copied().flatten()
        }
    }

    fn range_spec<'a>(
        rs: &'a [String],
        filters: &'a [&'a Predicate],
        estimator: Option<&'a dyn crate::scope::DistinctEstimator>,
    ) -> ScopeSpec<'a> {
        ScopeSpec {
            bindings: vec![BindingSpec {
                var: "r",
                source: SourceSpec::Relation {
                    name: "T",
                    schema: rs,
                    rows: Some(1024),
                },
            }],
            filters,
            outer: &NoOuter,
            estimator,
            guard: None,
        }
    }

    #[test]
    fn index_range_fires_on_a_selective_stats_backed_bound() {
        let rs = schema(&["A", "B"]);
        let lo = pred(gt(col("r", "A"), int(3)));
        let hi = pred(lt(col("r", "A"), int(9)));
        let filters: Vec<&Predicate> = vec![&lo, &hi];
        let est = StubStats {
            by_col: vec![Some(0.05), None],
        };
        let spec = range_spec(&rs, &filters, Some(&est));
        let plan = plan_scope(&spec).unwrap();
        // Both bounds close the interval over column A and are consumed
        // by the access path — nothing left to filter.
        assert_eq!(
            plan.steps[0].access,
            Access::IndexRange {
                cols: vec![0],
                filters: vec![0, 1],
            }
        );
        assert!(plan.steps[0].filters.is_empty());
        assert!(plan.leaf_filters.is_empty());
    }

    #[test]
    fn index_range_bails_without_stats_or_unselective() {
        let rs = schema(&["A", "B"]);
        let lo = pred(gt(col("r", "A"), int(3)));
        let filters: Vec<&Predicate> = vec![&lo];
        // No estimator (a `clear_stats()` catalog): never a candidate.
        let spec = range_spec(&rs, &filters, None);
        let plan = plan_scope(&spec).unwrap();
        assert_eq!(plan.steps[0].access, Access::Scan);
        assert_eq!(plan.steps[0].filters, vec![0]);
        // Unselective bound: the vectorized full scan stays cheaper.
        let wide = StubStats {
            by_col: vec![Some(0.4), None],
        };
        let spec = range_spec(&rs, &filters, Some(&wide));
        let plan = plan_scope(&spec).unwrap();
        assert_eq!(plan.steps[0].access, Access::Scan);
        assert_eq!(plan.steps[0].filters, vec![0]);
    }

    #[test]
    fn constant_equalities_extend_the_bound_prefix() {
        // `r.B = 7 ∧ r.A > 3`: the constant equality would normally plan
        // a hash probe, but an ordered index binds it as the prefix AND
        // closes it with the range bound — both filters consumed.
        let rs = schema(&["A", "B"]);
        let key = pred(eq(col("r", "B"), int(7)));
        let lo = pred(gt(col("r", "A"), int(3)));
        let filters: Vec<&Predicate> = vec![&key, &lo];
        let est = StubStats {
            by_col: vec![Some(0.2), Some(0.5)],
        };
        let spec = range_spec(&rs, &filters, Some(&est));
        let plan = plan_scope(&spec).unwrap();
        assert_eq!(
            plan.steps[0].access,
            Access::IndexRange {
                cols: vec![1, 0],
                filters: vec![0, 1],
            }
        );
        assert!(plan.steps[0].filters.is_empty());
        assert!(plan.leaf_filters.is_empty());
    }

    #[test]
    fn a_prefix_gap_demotes_trailing_predicates_to_step_filters() {
        // Only ONE range column may close the prefix: the second range
        // bound (on C) and the `!=` stay ordinary step filters over the
        // streamed index matches.
        let rs = schema(&["A", "B", "C"]);
        let lo = pred(gt(col("r", "A"), int(3)));
        let other = pred(lt(col("r", "C"), int(9)));
        let noteq = pred(ne(col("r", "B"), int(2)));
        let filters: Vec<&Predicate> = vec![&lo, &other, &noteq];
        let est = StubStats {
            by_col: vec![Some(0.05), Some(0.5), Some(0.2)],
        };
        let spec = range_spec(&rs, &filters, Some(&est));
        let plan = plan_scope(&spec).unwrap();
        // A prices tighter than C, so A closes the prefix…
        assert_eq!(
            plan.steps[0].access,
            Access::IndexRange {
                cols: vec![0],
                filters: vec![0],
            }
        );
        // …and the rest run as pushed-down filters, in filter order.
        assert_eq!(plan.steps[0].filters, vec![1, 2]);
        assert!(plan.leaf_filters.is_empty());
    }

    #[test]
    fn outer_only_filters_move_to_the_prelude() {
        struct Outer(Vec<String>);
        impl crate::scope::OuterScope for Outer {
            fn attrs(&self, var: &str) -> Option<&[String]> {
                (var == "o").then_some(self.0.as_slice())
            }
        }
        let outer = Outer(schema(&["A"]));
        let rs = schema(&["A"]);
        let outer_only = pred(gt(col("o", "A"), int(3)));
        let filters: Vec<&Predicate> = vec![&outer_only];
        let spec = ScopeSpec {
            bindings: vec![BindingSpec {
                var: "r",
                source: SourceSpec::Relation {
                    name: "T",
                    schema: &rs,
                    rows: Some(3),
                },
            }],
            filters: &filters,
            outer: &outer,
            estimator: None,
            guard: None,
        };
        let plan = plan_scope(&spec).unwrap();
        assert_eq!(plan.prelude_filters, vec![0]);
        assert!(plan.leaf_filters.is_empty());
    }

    #[test]
    fn buckets_keep_every_edge_on_its_side() {
        // Exact 0 and exact 1 are buckets of their own; everything else
        // is priced at the midpoint of a cell that is open below and
        // closed above.
        assert_eq!(bucketed(0.0), 0.0);
        assert_eq!(bucketed(-0.5), 0.0);
        assert_eq!(bucketed(1.0), 1.0);
        assert_eq!(bucketed(7.0), 1.0);
        assert!(bucketed(f64::NAN).is_nan());
        assert_eq!(bucketed(0.25), 0.234375, "(0.21875, 0.25]");
        assert_eq!(bucketed(0.22), 0.234375);
        assert_eq!(bucketed(0.25f64.next_up()), 0.28125, "(0.25, 0.3125]");
        assert_eq!(bucketed(0.9999), 0.9375, "(0.875, 1) stays below exact 1");
        assert!(bucketed(f64::MIN_POSITIVE) > 0.0, "and above exact 0");
        // The index gate decides on a bucketed fraction as on the raw one.
        let mut raw = 0.001;
        while raw < 1.0 {
            assert_eq!(
                bucketed(raw) > INDEX_MAX_FRACTION,
                raw > INDEX_MAX_FRACTION,
                "{raw}"
            );
            // Monotone, idempotent, within an eighth.
            assert!(bucketed(raw) <= bucketed(raw * 1.01), "{raw}");
            assert_eq!(bucketed(bucketed(raw)), bucketed(raw), "{raw}");
            assert!((bucketed(raw) / raw - 1.0).abs() <= 0.125, "{raw}");
            raw *= 1.01;
        }
    }

    /// Statistics that answer a different fraction for every constant:
    /// `value / 1000` for comparisons, and the same for an interval's
    /// lower bound.
    struct PerValue;
    impl crate::scope::DistinctEstimator for PerValue {
        fn basis(&self, _binding: usize) -> crate::scope::Basis {
            crate::scope::Basis::Statistics
        }
        fn distinct(&self, _binding: usize, _cols: &[usize]) -> Option<usize> {
            Some(10)
        }
        fn selectivity(&self, _b: usize, _col: usize, _op: CmpOp, value: &Value) -> Option<f64> {
            Some(value.as_f64()? / 1000.0)
        }
    }

    #[test]
    fn a_cached_plan_is_the_cold_plan_for_every_constant() {
        // `r.A > k ∧ r.B = s.B ∧ s.C = c`: as `k` sweeps, the scan of R
        // turns into an index range and the join order flips — always at
        // a bucket edge, so the plan the cache serves (planned for some
        // other constant of the bucket) is the one a cold run returns.
        let rs = schema(&["A", "B"]);
        let ss = schema(&["B", "C"]);
        let join = pred(eq(col("r", "B"), col("s", "B")));
        let mut distinct_plans = std::collections::HashSet::new();
        for k in (1..1000).step_by(7) {
            let range = pred(gt(col("r", "A"), int(k)));
            let key = pred(eq(col("s", "C"), int(1000 - k)));
            let filters: Vec<&Predicate> = vec![&range, &join, &key];
            let spec = ScopeSpec {
                bindings: vec![
                    BindingSpec {
                        var: "r",
                        source: SourceSpec::Relation {
                            name: "TransparencyR",
                            schema: &rs,
                            rows: Some(5000),
                        },
                    },
                    BindingSpec {
                        var: "s",
                        source: SourceSpec::Relation {
                            name: "TransparencyS",
                            schema: &ss,
                            rows: Some(3000),
                        },
                    },
                ],
                filters: &filters,
                outer: &NoOuter,
                estimator: Some(&PerValue),
                guard: None,
            };
            let cold = plan_scope(&spec).unwrap();
            let (served, _) = crate::cache::scope_plan(&spec, 77, false).unwrap();
            assert_eq!(*served, cold, "k = {k}");
            distinct_plans.insert(format!("{cold:?}"));
            // What EXPLAIN shows is the plan's own estimate: R's rows
            // times the bucketed fraction of `k`, whichever constant of
            // the bucket planned the shape.
            let scan = served.steps.iter().position(|s| s.binding == 0).unwrap();
            if matches!(
                served.steps[scan].access,
                Access::Scan | Access::IndexRange { .. }
            ) {
                let est = rows_of(5000.0 * bucketed(k as f64 / 1000.0));
                assert_eq!(served.steps[scan].estimated_rows, est, "k = {k}");
            }
        }
        assert!(distinct_plans.len() > 3, "the sweep crosses plan changes");
    }
}
