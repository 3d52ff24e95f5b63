//! Whole-query logical plans: the operator tree a `Program`/`Collection`
//! lowers into, with each quantifier scope planned by
//! [`plan_scope`](crate::physical::plan_scope).
//!
//! The tree is the **pattern-level** view the paper's Relational Diagrams
//! render: projection, aggregation, quantifier scopes (join pipelines),
//! union of rules, and fixpoints for recursive definitions. The
//! [`explain`](crate::explain) module renders it as text; a diagram
//! backend can walk the same tree.

use crate::analysis::{free_vars, partition};
use crate::physical::{plan_scope, Access, ScopePlan};
use crate::scope::{BindingSpec, OuterScope, ScopeSpec, SourceSpec};
use arc_core::ast::*;
use std::sync::Arc;

/// The kind of a named source, as resolved by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// An extensional (stored) relation.
    Base,
    /// An intensional relation (definition/fixpoint result).
    Defined,
    /// An external relation with access patterns (§2.13.1).
    External,
    /// An abstract relation checked in context (§2.13.2).
    Abstract,
}

/// What a name resolves to, for planning purposes.
#[derive(Debug, Clone)]
pub struct ResolvedSource {
    /// The source's kind.
    pub kind: SourceKind,
    /// Attribute names in column order.
    pub schema: Vec<String>,
    /// Row count when known (`None` for unmaterialized sources).
    pub rows: Option<usize>,
    /// For externals: bound-position lists, one per access pattern.
    pub patterns: Vec<Vec<usize>>,
    /// `ANALYZE` statistics when the catalog has them (base relations
    /// only): `EXPLAIN` estimates become MCV/histogram-backed instead of
    /// bare row counts.
    pub stats: Option<std::sync::Arc<arc_stats::TableStats>>,
}

/// Resolves relation names to planning metadata. The engine implements
/// this over its catalog (and materialized definitions); `EXPLAIN` of a
/// bare program implements it over the program's own definitions.
pub trait SourceResolver {
    /// Resolve `name`, or `None` when unknown.
    fn resolve(&self, name: &str) -> Option<ResolvedSource>;

    /// The statistics epoch of the catalog behind this resolver: with a
    /// name, it identifies the statistics [`resolve`](Self::resolve)
    /// hands out, which is what lets lowering share the global plan cache
    /// ([`crate::cache::scope_plan`]) with execution. `None` (statistics
    /// of no catalog) plans every scope afresh.
    fn stats_epoch(&self) -> Option<u64> {
        None
    }
}

/// Why lowering failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A binding references a name the resolver does not know.
    UnknownRelation(String),
    /// A binding cannot be placed in any join order (underdetermined
    /// external/abstract inputs or unbound lateral free variables).
    Unplaceable {
        /// The range variable of the stuck binding.
        var: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            LowerError::Unplaceable { var } => {
                write!(f, "binding `{var}` cannot be placed in any join order")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// One rendered pipeline step of a scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepNode {
    /// The range variable bound by the step.
    pub var: String,
    /// Display name of the source (relation name, or `{…}` for laterals).
    pub source: String,
    /// Rendered access path (`scan`, `hash-probe on [r.B = s.B]`, …).
    pub access: String,
    /// Pushed-down filters, rendered.
    pub pushed: Vec<String>,
    /// Estimated rows contributed per upstream environment.
    pub est: u64,
    /// True when this step is the scope's partition axis (see
    /// [`ScopePlan::partition_axis`]): under parallel execution its scan
    /// is split into morsels. Rendered as a `partition(n)` prefix by
    /// [`crate::explain::render_with_threads`] when `n > 1`.
    pub partition: bool,
}

/// A labeled child subplan of a scope (laterals, spines, quantified
/// subformulas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildPlan {
    /// Role label (`lateral x`, `semi-join ∃`, `anti-join ¬∃`, `spine`).
    pub label: String,
    /// The child's plan.
    pub plan: PlanNode,
}

/// A node of the whole-query logical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// Head-tuple assembly for a collection.
    Project {
        /// Head relation name.
        head: String,
        /// Head attributes.
        attrs: Vec<String>,
        /// The body plan.
        input: Box<PlanNode>,
    },
    /// Union of rule branches (a disjunctive body).
    Union {
        /// One input per branch.
        inputs: Vec<PlanNode>,
    },
    /// A grouping scope: grouping keys plus per-group outputs/tests over
    /// the underlying join pipeline.
    Aggregate {
        /// Grouping-key attributes, rendered (`γ∅` when empty).
        keys: Vec<String>,
        /// Aggregating head assignments, rendered.
        assigns: Vec<String>,
        /// Per-group tests (aggregation predicates), rendered.
        tests: Vec<String>,
        /// The grouped join pipeline.
        input: Box<PlanNode>,
    },
    /// A planned quantifier scope: an ordered join pipeline.
    Scope {
        /// Stable operator id: the address of the scope's binding list in
        /// the source AST — the same identity the engine's per-query plan
        /// cache keys on, so a profile gathered while *executing* the AST
        /// joins back to the plan lowered from it (see
        /// [`crate::explain::render_analyze`]). `0` for synthesized
        /// scopes with no bindings.
        scope_id: usize,
        /// Pipeline steps in execution order.
        steps: Vec<StepNode>,
        /// Filters evaluated before the first step (outer-only), rendered.
        prelude: Vec<String>,
        /// Filters evaluated at the leaf, rendered.
        residual: Vec<String>,
        /// Non-aggregating head assignments, rendered.
        assigns: Vec<String>,
        /// Labeled child subplans.
        children: Vec<ChildPlan>,
    },
    /// A decorrelated boolean scope: a set-level semi- or anti-join whose
    /// build pipeline runs once and whose correlated-key probe answers
    /// every outer row in O(1) (see
    /// [`plan_scope_boolean`](crate::physical::plan_scope_boolean)).
    SemiJoin {
        /// Stable operator id of the underlying scope (see
        /// [`PlanNode::Scope::scope_id`]); probe-side actuals are
        /// recorded under it.
        scope_id: usize,
        /// `true` for `anti-join ¬∃`, `false` for `semi-join ∃`.
        anti: bool,
        /// The correlated equality filters forming the key, rendered.
        keys: Vec<String>,
        /// Outer-only filters checked per probe, rendered.
        prelude: Vec<String>,
        /// Estimated distinct correlated keys in the build.
        est_keys: u64,
        /// Whether the key is a null guard's (`L = O ∨ L is null ∨ O is
        /// null`, SQL's `NOT IN`): rendered `null-aware`.
        null_aware: bool,
        /// The build pipeline (a [`PlanNode::Scope`], evaluated once).
        build: Box<PlanNode>,
    },
    /// An outer-join annotation scope (`left`/`full`, §2.11): executed on
    /// the materialized path, shown unplanned.
    OuterJoin {
        /// The annotation tree, rendered.
        tree: String,
        /// All filters (ON absorption happens at run time), rendered.
        filters: Vec<String>,
        /// Non-aggregating head assignments, rendered.
        assigns: Vec<String>,
    },
    /// A recursive definition group solved by least fixed point.
    Fixpoint {
        /// The mutually recursive relation names.
        relations: Vec<String>,
        /// One plan per member definition.
        inputs: Vec<PlanNode>,
    },
    /// A whole program: definitions (in declaration order, recursive
    /// groups fused into [`PlanNode::Fixpoint`]) plus an optional query.
    Program {
        /// Definition plans.
        definitions: Vec<PlanNode>,
        /// The final query plan, when present.
        query: Option<Box<PlanNode>>,
    },
}

/// Stable lowering-time id of a quantifier scope: the address of its
/// binding list in the source AST. The engine keys its per-query plan
/// cache, its decorrelation bail-out set, and its execution profile on
/// the same address, so actuals recorded while evaluating a `Collection`
/// join back to the plan lowered from that same `Collection`.
/// Zero-binding scopes (predicate-only bodies) get id `0`: an empty
/// `Vec`'s dangling pointer is shared across all empty vectors, so it
/// cannot identify anything.
pub fn scope_identity(q: &Quant) -> usize {
    if q.bindings.is_empty() {
        0
    } else {
        q.bindings.as_ptr() as usize
    }
}

/// Lexical scope stack used while lowering (an [`OuterScope`] for
/// `plan_scope`).
#[derive(Default)]
struct ScopeStack {
    frames: Vec<(String, Vec<String>)>,
}

impl OuterScope for ScopeStack {
    fn attrs(&self, var: &str) -> Option<&[String]> {
        self.frames
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|(_, attrs)| attrs.as_slice())
    }
}

/// Lower a collection into a logical plan under `resolver` statistics,
/// running the same passes the engine runs: boolean subscopes of a
/// decorrelatable shape plan as semi/anti-joins, and statistics-backed
/// selective bounds as index ranges.
pub fn lower_collection(
    c: &Collection,
    resolver: &dyn SourceResolver,
) -> Result<PlanNode, LowerError> {
    let mut stack = ScopeStack::default();
    lower_collection_in(c, resolver, &mut stack)
}

/// Lower a program: definitions (recursive groups fused into fixpoint
/// nodes) plus the query, with the passes of [`lower_collection`].
pub fn lower_program(p: &Program, resolver: &dyn SourceResolver) -> Result<PlanNode, LowerError> {
    // Wrap the resolver so definition names resolve as intensional
    // relations even before materialization.
    struct WithDefs<'a> {
        base: &'a dyn SourceResolver,
        defs: &'a [Definition],
    }
    impl SourceResolver for WithDefs<'_> {
        fn resolve(&self, name: &str) -> Option<ResolvedSource> {
            if let Some(r) = self.base.resolve(name) {
                return Some(r);
            }
            self.defs
                .iter()
                .find(|d| d.name() == name)
                .map(|d| ResolvedSource {
                    kind: SourceKind::Defined,
                    schema: d.collection.head.attrs.clone(),
                    rows: None,
                    patterns: Vec::new(),
                    stats: None,
                })
        }

        fn stats_epoch(&self) -> Option<u64> {
            self.base.stats_epoch()
        }
    }
    let resolver = WithDefs {
        base: resolver,
        defs: &p.definitions,
    };

    // Reachability over definition references → recursive groups.
    let names: Vec<&str> = p.definitions.iter().map(|d| d.name()).collect();
    let direct: Vec<Vec<usize>> = p
        .definitions
        .iter()
        .map(|d| {
            let mut sources = Vec::new();
            collect_sources(&d.collection, &mut sources);
            let mut deps: Vec<usize> = sources
                .iter()
                .filter_map(|s| names.iter().position(|n| n == s))
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect();
    let reach = |from: usize| -> Vec<bool> {
        let mut seen = vec![false; names.len()];
        let mut queue = direct[from].clone();
        while let Some(i) = queue.pop() {
            if !seen[i] {
                seen[i] = true;
                queue.extend(direct[i].iter().copied());
            }
        }
        seen
    };
    let reachable: Vec<Vec<bool>> = (0..names.len()).map(reach).collect();

    let mut emitted = vec![false; names.len()];
    let mut definitions = Vec::new();
    for i in 0..names.len() {
        if emitted[i] {
            continue;
        }
        if reachable[i][i] {
            // Recursive: fuse the whole mutually-recursive group.
            let group: Vec<usize> = (i..names.len())
                .filter(|&j| j == i || (reachable[i][j] && reachable[j][i]))
                .collect();
            let mut inputs = Vec::new();
            for &j in &group {
                emitted[j] = true;
                inputs.push(lower_collection(&p.definitions[j].collection, &resolver)?);
            }
            definitions.push(PlanNode::Fixpoint {
                relations: group.iter().map(|&j| names[j].to_string()).collect(),
                inputs,
            });
        } else {
            emitted[i] = true;
            definitions.push(lower_collection(&p.definitions[i].collection, &resolver)?);
        }
    }
    let query = match &p.query {
        Some(q) => Some(Box::new(lower_collection(q, &resolver)?)),
        None => None,
    };
    Ok(PlanNode::Program { definitions, query })
}

fn collect_sources(c: &Collection, out: &mut Vec<String>) {
    fn walk(f: &Formula, out: &mut Vec<String>) {
        match f {
            Formula::Quant(q) => {
                for b in &q.bindings {
                    match &b.source {
                        BindingSource::Named(n) => out.push(n.clone()),
                        BindingSource::Collection(c) => collect_sources(c, out),
                    }
                }
                walk(&q.body, out);
            }
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|s| walk(s, out)),
            Formula::Not(inner) => walk(inner, out),
            Formula::Pred(_) => {}
        }
    }
    walk(&c.body, out);
}

fn lower_collection_in(
    c: &Collection,
    resolver: &dyn SourceResolver,
    stack: &mut ScopeStack,
) -> Result<PlanNode, LowerError> {
    let input = lower_branch(&c.body, &c.head, resolver, stack)?;
    Ok(PlanNode::Project {
        head: c.head.relation.clone(),
        attrs: c.head.attrs.clone(),
        input: Box::new(input),
    })
}

fn lower_branch(
    f: &Formula,
    head: &Head,
    resolver: &dyn SourceResolver,
    stack: &mut ScopeStack,
) -> Result<PlanNode, LowerError> {
    match f {
        Formula::Or(branches) => {
            let mut inputs = Vec::with_capacity(branches.len());
            for b in branches {
                inputs.push(lower_branch(b, head, resolver, stack)?);
            }
            Ok(PlanNode::Union { inputs })
        }
        Formula::Quant(q) => lower_quant(q, &head.relation, resolver, None, stack),
        other => {
            // Predicate-only body: a scope with no bindings.
            let q = Quant {
                bindings: Vec::new(),
                grouping: None,
                join: None,
                body: other.clone(),
            };
            lower_quant(&q, &head.relation, resolver, None, stack)
        }
    }
}

/// Lower one quantifier scope (the workhorse). `head` is the collection
/// head name, or a non-occurring name for boolean scopes. `bool_role` is
/// `Some(negated)` when the scope is a boolean subformula (`semi-join ∃` /
/// `anti-join ¬∃`) — the only position where the decorrelation pass may
/// fire.
fn lower_quant(
    q: &Quant,
    head: &str,
    resolver: &dyn SourceResolver,
    bool_role: Option<bool>,
    stack: &mut ScopeStack,
) -> Result<PlanNode, LowerError> {
    let parts = partition(&q.body, head);
    let render_assigns = |assigns: &[(&str, &Scalar)]| -> Vec<String> {
        assigns
            .iter()
            .map(|(attr, expr)| format!("{head}.{attr} = {expr}"))
            .collect()
    };

    // Outer-join annotations execute on the materialized path; show them
    // unplanned.
    let scope = if q.join.as_ref().is_some_and(|t| t.has_outer()) {
        PlanNode::OuterJoin {
            tree: q.join.as_ref().expect("checked").to_string(),
            filters: parts.filters.iter().map(|p| p.to_string()).collect(),
            assigns: render_assigns(&parts.assigns),
        }
    } else {
        // Resolve sources, then plan the scope.
        let mut resolved: Vec<Option<ResolvedSource>> = Vec::with_capacity(q.bindings.len());
        for b in &q.bindings {
            resolved.push(match &b.source {
                BindingSource::Named(n) => Some(
                    resolver
                        .resolve(n)
                        .ok_or_else(|| LowerError::UnknownRelation(n.clone()))?,
                ),
                BindingSource::Collection(_) => None,
            });
        }
        let bindings: Vec<BindingSpec<'_>> = q
            .bindings
            .iter()
            .enumerate()
            .map(|(i, b)| BindingSpec {
                var: &b.var,
                source: match (&b.source, &resolved[i]) {
                    (BindingSource::Collection(c), _) => SourceSpec::Nested {
                        attrs: &c.head.attrs,
                        free: free_vars(c),
                    },
                    (BindingSource::Named(name), Some(r)) => match r.kind {
                        SourceKind::Base | SourceKind::Defined => SourceSpec::Relation {
                            name,
                            schema: &r.schema,
                            rows: r.rows,
                        },
                        SourceKind::External => SourceSpec::External {
                            schema: &r.schema,
                            patterns: r.patterns.iter().map(|p| p.as_slice()).collect(),
                        },
                        SourceKind::Abstract => SourceSpec::Abstract { attrs: &r.schema },
                    },
                    (BindingSource::Named(_), None) => unreachable!("resolved above"),
                },
            })
            .collect();
        // Catalog statistics, one slot per binding, make `EXPLAIN`'s
        // estimates MCV/histogram-backed wherever an ANALYZE has run.
        let estimator = crate::estimator::TableStatsEstimator::new(
            resolved
                .iter()
                .map(|r| r.as_ref().and_then(|r| r.stats.clone()))
                .collect(),
        );
        // Boolean scopes run the decorrelation pass, mirroring the
        // engine's execution-time decision exactly: same shape check,
        // same planner entry point.
        let shape = bool_role.and_then(|_| crate::physical::decorrelatable_shape(q, &parts, stack));
        let boolean = shape.is_some();
        let spec = ScopeSpec {
            bindings,
            filters: &parts.filters,
            outer: stack,
            estimator: Some(&estimator),
            guard: shape.flatten().map(|g| g.eq),
        };
        // Through the global cache when the resolver's statistics have an
        // identity it can key on — the plan execution is served.
        let plan = match resolver.stats_epoch() {
            Some(epoch) => crate::cache::scope_plan(&spec, epoch, boolean).map(|(p, _)| p),
            None if boolean => crate::physical::plan_scope_boolean(&spec).map(Arc::new),
            None => plan_scope(&spec).map(Arc::new),
        }
        .map_err(|e| match e {
            crate::scope::PlanError::Unplaceable { binding } => LowerError::Unplaceable {
                var: q.bindings[binding].var.clone(),
            },
        })?;
        let estimates = crate::physical::estimates(&spec, &plan);
        let scope = render_scope(q, &parts, &plan, &estimates, head, &resolved);
        match &plan.decorrelation {
            Some(dec) => PlanNode::SemiJoin {
                scope_id: scope_identity(q),
                anti: bool_role.unwrap_or(false),
                keys: dec
                    .keys
                    .iter()
                    .map(|k| spec.filter(k.filter).to_string())
                    .collect(),
                prelude: dec
                    .probe_filters
                    .iter()
                    .map(|&i| parts.filters[i].to_string())
                    .collect(),
                est_keys: estimates.keys.expect("a decorrelated plan"),
                null_aware: dec.null_aware,
                build: Box::new(scope),
            },
            None => scope,
        }
    };

    // Push this scope's bindings for children (laterals, subformulas,
    // spines all evaluate under the full scope environment).
    let base = stack.frames.len();
    for b in &q.bindings {
        let attrs = match &b.source {
            BindingSource::Named(n) => resolver.resolve(n).map(|r| r.schema).unwrap_or_default(),
            BindingSource::Collection(c) => c.head.attrs.clone(),
        };
        stack.frames.push((b.var.clone(), attrs));
    }

    // Children: laterals, boolean subformulas, spines.
    let mut children = Vec::new();
    for b in &q.bindings {
        if let BindingSource::Collection(c) = &b.source {
            children.push(ChildPlan {
                label: format!("lateral {}", b.var),
                plan: lower_collection_in(c, resolver, stack)?,
            });
        }
    }
    for sub in parts.pre_bool.iter().chain(parts.post_bool.iter()) {
        collect_bool_children(sub, false, resolver, stack, &mut children)?;
    }
    for spine in &parts.spines {
        let mut spine_children = Vec::new();
        collect_spine_children(spine, head, resolver, stack, &mut spine_children)?;
        children.extend(spine_children);
    }
    stack.frames.truncate(base);

    let scope = attach_children(scope, children);

    // A grouping operator wraps the pipeline in an aggregation node.
    Ok(match &q.grouping {
        Some(g) => PlanNode::Aggregate {
            keys: g.keys.iter().map(|k| k.to_string()).collect(),
            assigns: render_assigns(&parts.agg_assigns),
            tests: parts.agg_tests.iter().map(|p| p.to_string()).collect(),
            input: Box::new(scope),
        },
        None => scope,
    })
}

fn attach_children(node: PlanNode, mut new_children: Vec<ChildPlan>) -> PlanNode {
    match node {
        PlanNode::Scope {
            scope_id,
            steps,
            prelude,
            residual,
            assigns,
            mut children,
        } => {
            children.append(&mut new_children);
            PlanNode::Scope {
                scope_id,
                steps,
                prelude,
                residual,
                assigns,
                children,
            }
        }
        // Decorrelated scopes carry their children (laterals, nested
        // subformulas) on the build pipeline.
        PlanNode::SemiJoin {
            scope_id,
            anti,
            keys,
            prelude,
            est_keys,
            null_aware,
            build,
        } => PlanNode::SemiJoin {
            scope_id,
            anti,
            keys,
            prelude,
            est_keys,
            null_aware,
            build: Box::new(attach_children(*build, new_children)),
        },
        other => other, // outer-join scopes: children omitted from display
    }
}

/// Quantified subformulas of a boolean conjunct become labeled children:
/// positive scopes are semi-joins, negated ones anti-joins.
fn collect_bool_children(
    f: &Formula,
    negated: bool,
    resolver: &dyn SourceResolver,
    stack: &mut ScopeStack,
    out: &mut Vec<ChildPlan>,
) -> Result<(), LowerError> {
    match f {
        Formula::Quant(q) => {
            let label = if negated {
                "anti-join ¬∃"
            } else {
                "semi-join ∃"
            };
            out.push(ChildPlan {
                label: label.to_string(),
                plan: lower_quant(q, "\u{0}", resolver, Some(negated), stack)?,
            });
            Ok(())
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                collect_bool_children(sub, negated, resolver, stack, out)?;
            }
            Ok(())
        }
        Formula::Not(inner) => collect_bool_children(inner, !negated, resolver, stack, out),
        Formula::Pred(_) => Ok(()),
    }
}

/// Spine subformulas (assignment-bearing nested scopes) lower as plans of
/// their own, labeled `spine`.
fn collect_spine_children(
    f: &Formula,
    head: &str,
    resolver: &dyn SourceResolver,
    stack: &mut ScopeStack,
    out: &mut Vec<ChildPlan>,
) -> Result<(), LowerError> {
    match f {
        Formula::Quant(q) => {
            out.push(ChildPlan {
                label: "spine".to_string(),
                plan: lower_quant(q, head, resolver, None, stack)?,
            });
            Ok(())
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                collect_spine_children(sub, head, resolver, stack, out)?;
            }
            Ok(())
        }
        Formula::Not(_) | Formula::Pred(_) => Ok(()),
    }
}

/// Render a planned scope into a [`PlanNode::Scope`]. `resolved` supplies
/// per-binding schemas so index-range bounds render as column names.
fn render_scope(
    q: &Quant,
    parts: &crate::analysis::Parts<'_>,
    plan: &ScopePlan,
    estimates: &crate::physical::Estimates,
    head: &str,
    resolved: &[Option<ResolvedSource>],
) -> PlanNode {
    let render_filter = |i: &usize| parts.filters[*i].to_string();
    let axis = plan.partition_axis();
    let steps = plan
        .steps
        .iter()
        .enumerate()
        .map(|(step_idx, s)| {
            let b = &q.bindings[s.binding];
            let source = match &b.source {
                BindingSource::Named(n) => n.clone(),
                BindingSource::Collection(c) => format!("{{{}}}", c.head),
            };
            let access = match &s.access {
                Access::Scan => "scan".to_string(),
                Access::HashProbe { keys } => {
                    let keys: Vec<String> = keys
                        .iter()
                        .map(|k| parts.filters[k.eq.filter].to_string())
                        .collect();
                    format!("hash-probe on [{}]", keys.join(", "))
                }
                Access::External { pattern, .. } => format!("access-pattern #{pattern}"),
                Access::Abstract { .. } => "abstract-check".to_string(),
                Access::Nested => "lateral".to_string(),
                Access::IndexRange { cols, .. } => {
                    // Bound prefix as column names; the closing range
                    // column carries a `..` suffix: `index-range on [A, B..]`.
                    let schema = resolved[s.binding].as_ref().map(|r| r.schema.as_slice());
                    let names: Vec<String> = cols
                        .iter()
                        .enumerate()
                        .map(|(ci, &c)| {
                            let name = schema
                                .and_then(|sch| sch.get(c).cloned())
                                .unwrap_or_else(|| format!("#{c}"));
                            if ci + 1 == cols.len() {
                                format!("{name}..")
                            } else {
                                name
                            }
                        })
                        .collect();
                    format!("index-range on [{}]", names.join(", "))
                }
            };
            StepNode {
                var: b.var.clone(),
                source,
                access,
                pushed: s.filters.iter().map(render_filter).collect(),
                est: estimates.steps[step_idx],
                partition: axis == Some(step_idx),
            }
        })
        .collect();
    PlanNode::Scope {
        scope_id: scope_identity(q),
        steps,
        prelude: plan.prelude_filters.iter().map(render_filter).collect(),
        residual: plan.leaf_filters.iter().map(render_filter).collect(),
        assigns: parts
            .assigns
            .iter()
            .map(|(attr, expr)| format!("{head}.{attr} = {expr}"))
            .collect(),
        children: Vec::new(),
    }
}
