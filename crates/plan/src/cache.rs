//! Plan caching: the scope fingerprint and the global plan cache.
//!
//! Planning a scope is pure — the [`ScopePlan`] depends only on the scope
//! *structure* (bindings, source shapes, filters), the statistics visible
//! at plan time, and the outer-variable availability. That makes plans
//! cacheable at two levels:
//!
//! * **per evaluation context** — a correlated scope re-enters the
//!   planner once per outer row with identical inputs; the engine caches
//!   its compiled scopes by `(scope identity, role, frame layout)` so the
//!   search runs once, not once per row (that cache lives on the engine's
//!   `Ctx`). Boolean scopes planned for set-level decorrelation cache
//!   under the same scheme — and the engine keys its build-once semi-join
//!   key sets by scope identity and plan (never by the plan alone: a plan
//!   is shared by every scope of its shape), so *execution* of a
//!   decorrelated scope amortizes across outer rows too, not just
//!   planning;
//! * **globally, keyed by shape** — [`scope_plan`] serves every scope of
//!   the process, whichever statement it belongs to: two statements whose
//!   scopes differ only in their constants hash to the same `PlanKey`
//!   and share one plan. Execution and `EXPLAIN` both go through it, so
//!   `EXPLAIN` shows the plan execution is served.
//!
//! ## What the keys contain — and what staleness means
//!
//! A `PlanKey` is the [`scope_fingerprint`], the catalog's **statistics
//! epoch** and the two role bits. The fingerprint covers,
//! per binding, the range variable, the kind of source, its **name**, its
//! schema, its **row count** and the [`Basis`] of
//! the estimator's answers about it; per filter, the predicate's
//! structure with every attribute reference's outer availability, and
//! the same for the null guard's equality (what makes a decorrelated
//! plan null-aware); and
//! per **constant** two things in place of its value:
//!
//! * a **typed hole** — the constant's class (`Null`, `Bool`, `Int`,
//!   `Float`, `Str`) and nothing else;
//! * the **selectivity bucket** ([`bucketed`](crate::physical::bucketed))
//!   of every statistics answer that depends on the value: the
//!   selectivity of the comparison it stands in, and the interval
//!   selectivity of each column an index range could close
//!   (`physical::each_constant_fraction` lists them, in the planner's
//!   own terms).
//!
//! Costing sees **buckets, not raw fractions**: every constant-dependent
//! answer reaches the planner through `bucketed`, the same function the
//! fingerprint hashes. So nothing the planner can observe about a
//! constant is missing from the key, and a cached plan is *the* plan a
//! cold planner run returns for the statement at hand — equal field by
//! field, not "close enough". What `EXPLAIN` prints as `est=N` is the
//! plan's own bucketed estimate
//! ([`Step::estimated_rows`](crate::physical::Step::estimated_rows)), so
//! `EXPLAIN` is a function of the key too: two constants of one bucket
//! render the same text. A
//! plan refers to filters by index, never by value, so the engine derives
//! probe keys, vectorized kernels and index bounds from the statement's
//! own filters whichever statement planned the scope first.
//!
//! Sketch *contents* are not hashed — that would cost more than planning
//! — but every `ANALYZE` bumps the epoch from a process-wide counter, so
//! (epoch, name) identifies the statistics, and a statistics change
//! invalidates exactly the plans it could have shaped. Without statistics
//! (`Catalog::clear_stats()`, relations too small to auto-analyze,
//! intensional results) there are no fractions to bucket and the key is shape plus
//! row counts. A cached plan can then be stale in exactly one way — a
//! binding whose basis is a live *sample* changed contents under an
//! unchanged name and row count, so the greedy order or probe choice is
//! no longer the one a fresh plan would pick. That is a *performance*
//! wobble, never a correctness one: every plan of a scope is
//! bag-equivalent by construction (ordering changes enumeration order
//! only; probing only skips rows a filter would reject), which is the
//! same guarantee workspace invariant 8 pins down.
//!
//! The hashes are 128-bit (two independent FNV-1a streams), so accidental
//! collisions are out of the picture for any realistic cache population.

use crate::physical::{each_constant_fraction, ScopePlan};
use crate::scope::{Basis, PlanError, ScopeSpec, SourceSpec};
use arc_core::ast::{AggArg, AttrRef, Predicate, Scalar};
use arc_core::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Bound on global cache entries; on overflow the cache is cleared
/// wholesale (plans are cheap to recompute — eviction bookkeeping would
/// cost more than the occasional refill).
const GLOBAL_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second stream's offset basis (any constant ≠ the FNV basis works; this
/// is the basis xored with a fixed pattern so the streams decorrelate).
const FNV_OFFSET_B: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Two independent FNV-1a streams fed with the same structure walk.
struct StructHasher {
    a: u64,
    b: u64,
}

impl StructHasher {
    fn new() -> Self {
        StructHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME.rotate_left(1) | 1);
        }
    }

    /// Feed a structure tag (disambiguates enum variants / list kinds).
    fn tag(&mut self, tag: u8) {
        self.bytes(&[0xfe, tag]);
    }

    /// Feed a length or index.
    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    /// Feed a string with a terminator (so `("ab","c")` ≠ `("a","bc")`).
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn strs(&mut self, list: &[String]) {
        self.num(list.len());
        list.iter().for_each(|s| self.str(s));
    }

    /// Feed a predicate structurally (no `fmt` machinery — this runs once
    /// per compiled scope); `attr` feeds what an attribute reference
    /// resolves against.
    fn predicate(&mut self, p: &Predicate, attr: &mut impl FnMut(&mut Self, &AttrRef)) {
        match p {
            Predicate::Cmp { left, op, right } => {
                self.tag(0x20);
                self.scalar(left, attr);
                self.tag(*op as u8);
                self.scalar(right, attr);
            }
            Predicate::IsNull { expr, negated } => {
                self.tag(0x21);
                self.scalar(expr, attr);
                self.tag(u8::from(*negated));
            }
        }
    }

    fn scalar(&mut self, s: &Scalar, attr: &mut impl FnMut(&mut Self, &AttrRef)) {
        match s {
            Scalar::Attr(a) => {
                self.tag(0x30);
                self.str(&a.var);
                self.str(&a.attr);
                attr(self, a);
            }
            Scalar::Const(v) => {
                self.tag(0x31);
                self.hole(v);
            }
            Scalar::Agg(call) => {
                self.tag(0x32);
                self.tag(call.func as u8);
                self.tag(u8::from(call.distinct));
                match &call.arg {
                    AggArg::Star => self.tag(0x33),
                    AggArg::Expr(e) => {
                        self.tag(0x34);
                        self.scalar(e, attr);
                    }
                }
            }
            Scalar::Arith { op, left, right } => {
                self.tag(0x35);
                self.tag(*op as u8);
                self.scalar(left, attr);
                self.scalar(right, attr);
            }
        }
    }

    /// Feed a constant as a **typed hole**: its class, not its value.
    fn hole(&mut self, v: &Value) {
        self.tag(match v {
            Value::Null => 0x40,
            Value::Bool(_) => 0x41,
            Value::Int(_) => 0x42,
            Value::Float(_) => 0x43,
            Value::Str(_) => 0x44,
        });
    }

    /// Feed a constant-dependent statistics answer: the bucketed
    /// fraction (a bucket's midpoint identifies the bucket).
    fn fraction(&mut self, f: Option<f64>) {
        match f {
            None => self.tag(0x50),
            Some(f) => {
                self.tag(0x51);
                self.bytes(&f.to_bits().to_le_bytes());
            }
        }
    }

    fn finish(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

// ---------------------------------------------------------------------------
// The scope key
// ---------------------------------------------------------------------------

/// Fingerprint of one scope spec — everything about it that planning can
/// observe: bindings (variables, source kinds, names, schemas, row
/// counts, estimator basis), filters and the null guard's equality with
/// constants as typed holes, the outer availability of every variable the
/// scope references (filter attribute references and nested collections'
/// free variables, shadowed by scope locals), and the bucketed fraction
/// of every statistics answer that depends on a constant. See the module
/// docs.
pub fn scope_fingerprint(spec: &ScopeSpec<'_>) -> (u64, u64) {
    let mut h = StructHasher::new();
    // Which outer variables are visible, and with what attribute schemas:
    // the planner observes the outer environment *only* through
    // `attrs(var)` lookups on the variables the scope references.
    let outer = |h: &mut StructHasher, var: &str| {
        if spec.bindings.iter().any(|b| b.var == var) {
            return h.tag(0x60);
        }
        match spec.outer.attrs(var) {
            None => h.tag(0x61),
            Some(attrs) => {
                h.tag(0x62);
                h.strs(attrs);
            }
        }
    };
    h.num(spec.bindings.len());
    for (bi, b) in spec.bindings.iter().enumerate() {
        h.str(b.var);
        match &b.source {
            SourceSpec::Relation { name, schema, rows } => {
                h.tag(1);
                h.str(name);
                h.strs(schema);
                match rows {
                    None => h.tag(2),
                    Some(n) => {
                        h.tag(3);
                        h.num(*n);
                    }
                }
                h.tag(match spec.estimator.map(|e| e.basis(bi)) {
                    None | Some(Basis::None) => 7,
                    Some(Basis::Sample) => 8,
                    Some(Basis::Statistics) => 9,
                });
            }
            SourceSpec::External { schema, patterns } => {
                h.tag(4);
                h.strs(schema);
                h.num(patterns.len());
                for p in patterns {
                    h.num(p.len());
                    p.iter().for_each(|&pos| h.num(pos));
                }
            }
            SourceSpec::Abstract { attrs } => {
                h.tag(5);
                h.strs(attrs);
            }
            SourceSpec::Nested { attrs, free } => {
                h.tag(6);
                h.strs(attrs);
                h.num(free.len());
                for v in free {
                    h.str(v);
                    outer(&mut h, v);
                }
            }
        }
    }
    h.num(spec.filters.len());
    for p in spec.filters {
        h.predicate(p, &mut |h, a| outer(h, &a.var));
    }
    match spec.guard {
        None => h.tag(0x22),
        Some(p) => h.predicate(p, &mut |h, a| outer(h, &a.var)),
    }
    each_constant_fraction(spec, &mut |f| h.fraction(f));
    h.finish()
}

/// The global plan-cache key: scope fingerprint + statistics epoch + role
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// [`scope_fingerprint`] of the scope being planned.
    scope: (u64, u64),
    /// The catalog's statistics epoch at plan time. Every `ANALYZE` (or
    /// statistics drop) bumps the epoch from a process-wide counter, so a
    /// re-`ANALYZE` invalidates cached plans without hashing the sketches
    /// themselves — and two distinct analyzed catalogs can never share an
    /// epoch, so their statistics-driven plans can't cross-pollute. `0`
    /// means "no statistics have ever been attached".
    epoch: u64,
    /// Whether the scope was planned in the boolean (decorrelatable) role
    /// ([`crate::physical::plan_scope_boolean`]): the same scope structure
    /// plans differently as a build pipeline than as an emitting scope,
    /// so the two roles must never share a cache slot.
    decor: bool,
}

// ---------------------------------------------------------------------------
// The global cache
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Mutex<HashMap<PlanKey, Arc<ScopePlan>>>> = OnceLock::new();

fn global() -> std::sync::MutexGuard<'static, HashMap<PlanKey, Arc<ScopePlan>>> {
    GLOBAL
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("plan cache")
}

/// The cache's `arc-trace` registry handles: lookups that found a plan /
/// did not (`plan.cache.hit` / `plan.cache.miss`), entries currently
/// cached (`plan.cache.entries`, a gauge), and wholesale clears at
/// [`GLOBAL_CAP`] (`plan.cache.clears`) — so `arc_trace::snapshot()`
/// covers the cache alongside every other engine metric.
struct Meters {
    hit: arc_trace::Counter,
    miss: arc_trace::Counter,
    clears: arc_trace::Counter,
    entries: arc_trace::Gauge,
}

fn meters() -> &'static Meters {
    static M: OnceLock<Meters> = OnceLock::new();
    M.get_or_init(|| Meters {
        hit: arc_trace::counter("plan.cache.hit"),
        miss: arc_trace::counter("plan.cache.miss"),
        clears: arc_trace::counter("plan.cache.clears"),
        entries: arc_trace::gauge("plan.cache.entries"),
    })
}

fn global_lookup(key: &PlanKey) -> Option<Arc<ScopePlan>> {
    let found = global().get(key).cloned();
    match found {
        Some(_) => meters().hit.inc(),
        None => meters().miss.inc(),
    }
    found
}

fn global_store(key: PlanKey, plan: Arc<ScopePlan>) {
    let mut map = global();
    if map.len() >= GLOBAL_CAP {
        map.clear();
        meters().clears.inc();
    }
    map.insert(key, plan);
    meters().entries.set(map.len() as u64);
}

/// Empty the global cache (tests compare cold plans with warm ones).
#[doc(hidden)]
pub fn global_clear() {
    global().clear();
    meters().entries.set(0);
}

/// The plan of one scope — out of the global cache, or planned now
/// ([`plan_scope`](crate::physical::plan_scope); `boolean` scopes by
/// [`plan_scope_boolean`](crate::physical::plan_scope_boolean), the
/// decorrelation pass) and published there. The flag says whether the
/// planner ran. `epoch` is the statistics epoch of the catalog
/// `spec.estimator` answers from.
pub fn scope_plan(
    spec: &ScopeSpec<'_>,
    epoch: u64,
    boolean: bool,
) -> Result<(Arc<ScopePlan>, bool), PlanError> {
    let key = PlanKey {
        scope: scope_fingerprint(spec),
        epoch,
        decor: boolean,
    };
    if let Some(plan) = global_lookup(&key) {
        return Ok((plan, false));
    }
    let plan = Arc::new(if boolean {
        crate::physical::plan_scope_boolean(spec)?
    } else {
        crate::physical::plan_scope(spec)?
    });
    global_store(key, plan.clone());
    if boolean && plan.decorrelation.is_none() {
        // A bailed decorrelation is the emitting-role plan
        // (`plan_scope_boolean` falls back to the ordinary pipeline):
        // publish it under the non-boolean key too, so the nested
        // fallback a denied build compiles reuses it instead of planning
        // a second time.
        global_store(
            PlanKey {
                decor: false,
                ..key
            },
            plan.clone(),
        );
    }
    Ok((plan, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{BindingSpec, NoOuter, OuterScope};
    use arc_core::dsl::*;

    fn pred(f: arc_core::ast::Formula) -> Predicate {
        match f {
            arc_core::ast::Formula::Pred(p) => p,
            other => panic!("expected predicate, got {other:?}"),
        }
    }

    fn spec<'a>(
        schema: &'a [String],
        rows: usize,
        filters: &'a [&'a Predicate],
        outer: &'a dyn OuterScope,
    ) -> ScopeSpec<'a> {
        ScopeSpec {
            bindings: vec![BindingSpec {
                var: "r",
                source: SourceSpec::Relation {
                    name: "R",
                    schema,
                    rows: Some(rows),
                },
            }],
            filters,
            outer,
            estimator: None,
            guard: None,
        }
    }

    #[test]
    fn scope_fingerprint_sees_rows_and_filters() {
        let schema: Vec<String> = vec!["A".into(), "B".into()];
        let gt3 = pred(gt(col("r", "A"), int(3)));
        let gt4 = pred(gt(col("r", "A"), int(4)));
        let gt_float = pred(gt(col("r", "A"), Scalar::Const(Value::Float(4.0))));
        let lt4 = pred(lt(col("r", "A"), int(4)));
        let of = |rows, p: &Predicate| scope_fingerprint(&spec(&schema, rows, &[p], &NoOuter));
        assert_eq!(of(10, &gt3), of(10, &gt3));
        assert_ne!(of(10, &gt3), of(11, &gt3), "row counts differ");
        assert_ne!(of(10, &gt3), of(10, &lt4), "filters differ");
        // Without statistics a constant is its class and nothing else.
        assert_eq!(of(10, &gt3), of(10, &gt4), "a constant is a typed hole");
        assert_ne!(of(10, &gt4), of(10, &gt_float), "of its own class");
        let mut renamed = spec(&schema, 10, &[], &NoOuter);
        let plain = scope_fingerprint(&renamed);
        renamed.bindings[0].source = SourceSpec::Relation {
            name: "S",
            schema: &schema,
            rows: Some(10),
        };
        assert_ne!(plain, scope_fingerprint(&renamed), "source names differ");
    }

    #[test]
    fn outer_signature_tracks_availability_and_shadowing() {
        struct Outer(Vec<String>);
        impl OuterScope for Outer {
            fn attrs(&self, var: &str) -> Option<&[String]> {
                (var == "o").then_some(self.0.as_slice())
            }
        }
        let with_o = Outer(vec!["A".into()]);
        let schema: Vec<String> = vec!["A".into()];
        let filter = pred(eq(col("r", "A"), col("o", "A")));
        let filters: Vec<&Predicate> = vec![&filter];
        let bound = scope_fingerprint(&spec(&schema, 5, &filters, &with_o));
        let unbound = scope_fingerprint(&spec(&schema, 5, &filters, &NoOuter));
        assert_ne!(bound, unbound, "availability must change the fingerprint");
        // Shadowed by a local: the outer binding is invisible either way.
        let shadowing = |outer| {
            let mut s = spec(&schema, 5, &filters, outer);
            s.bindings[0].var = "o";
            scope_fingerprint(&s)
        };
        assert_eq!(shadowing(&with_o), shadowing(&NoOuter));
    }

    #[test]
    fn global_cache_round_trips() {
        let schema: Vec<String> = vec!["Zq".into()]; // a schema no other test plans
        let spec = spec(&schema, 5, &[], &NoOuter);
        let (first, planned) = scope_plan(&spec, 0, false).unwrap();
        assert!(planned);
        let (again, planned) = scope_plan(&spec, 0, false).unwrap();
        assert!(!planned && Arc::ptr_eq(&first, &again));
        let (other_epoch, planned) = scope_plan(&spec, 1, false).unwrap();
        assert!(planned);
        assert_eq!(*other_epoch, *first);
    }
}
