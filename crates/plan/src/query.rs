//! Whole-query logical plans: the operator tree a `Program`/`Collection`
//! lowers into.
//!
//! The tree is the **pattern-level** view the paper's Relational Diagrams
//! render: projection, aggregation, quantifier scopes (join pipelines),
//! union of rules, and fixpoints for recursive definitions. The
//! [`explain`](crate::explain) module renders it as text; a diagram
//! backend can walk the same tree.
//!
//! Lowering is only the tree walk. It partitions each scope body and runs
//! the decorrelation shape check, as the engine's compile does, and asks
//! the host's [`ScopePlanner`] for the scope's plan — the engine answers
//! with the very function its compile calls (same sources, same
//! statistics, same global-cache key, same errors), so the tree shows the
//! plan that runs. A program lowers stratum by stratum in the order the
//! engine materializes its definitions ([`Stratum`]).

use crate::analysis::{partition, Parts};
use crate::physical::{decorrelatable_shape, Access, ScopePlan};
use crate::scope::{OuterScope, QuantRef};
use arc_core::ast::*;
use std::sync::Arc;

/// One scope, as lowering asks the host to plan it.
pub struct ScopeRequest<'r, 'a> {
    /// The scope.
    pub scope: QuantRef<'a>,
    /// Its filter predicates (the partition's `filters`).
    pub filters: &'r [&'a Predicate],
    /// The variables of the enclosing scopes.
    pub outer: &'r dyn OuterScope,
    /// Whether the scope is a boolean one of a decorrelatable shape: the
    /// decorrelation pass plans it
    /// ([`plan_scope_boolean`](crate::physical::plan_scope_boolean)).
    pub boolean: bool,
    /// The null guard's equality of such a scope
    /// ([`ScopeSpec::guard`](crate::scope::ScopeSpec::guard)).
    pub guard: Option<&'a Predicate>,
}

/// The host's answer for one scope: its plan, and the schema of each
/// binding's source in binding order.
pub type Planned<'a> = (Arc<ScopePlan>, Vec<&'a [String]>);

/// The host's scope planner: resolves a scope's sources and plans it —
/// or fails the way evaluating the scope would.
pub type ScopePlanner<'f, 'a, E> = dyn FnMut(ScopeRequest<'_, 'a>) -> Result<Planned<'a>, E> + 'f;

/// One stratum of a program's materialized definitions: a strongly
/// connected component of their dependency graph, recursive when it reads
/// itself (then solved by least fixed point). The engine computes a
/// program's strata once and both materializes and lowers them in order.
pub struct Stratum<'a> {
    /// The component's definitions.
    pub members: Vec<&'a Definition>,
    /// Whether it is recursive.
    pub recursive: bool,
}

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
        /// Stable operator id ([`QuantRef::id`]): the identity the
        /// engine keys its execution profile on, so a profile gathered
        /// while *executing* the AST joins back to
        /// the plan lowered from it (see
        /// [`crate::explain::render_analyze`]).
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

/// Lexical scope stack used while lowering (the [`OuterScope`] a scope is
/// planned under).
#[derive(Default)]
struct ScopeStack<'a> {
    frames: Vec<(&'a str, &'a [String])>,
}

impl OuterScope for ScopeStack<'_> {
    fn attrs(&self, var: &str) -> Option<&[String]> {
        self.frames
            .iter()
            .rev()
            .find(|(v, _)| *v == var)
            .map(|(_, attrs)| *attrs)
    }
}

/// Lower a collection into a logical plan, each scope planned by
/// `planner`.
pub fn lower_collection<'a, E>(
    c: &'a Collection,
    planner: &mut ScopePlanner<'_, 'a, E>,
) -> Result<PlanNode, E> {
    Lowering {
        planner,
        stack: ScopeStack::default(),
    }
    .collection(c)
}

/// Lower a program: its strata in order — a recursive stratum fused into
/// one [`PlanNode::Fixpoint`] — then the query.
pub fn lower_program<'a, E>(
    strata: &[Stratum<'a>],
    query: Option<&'a Collection>,
    planner: &mut ScopePlanner<'_, 'a, E>,
) -> Result<PlanNode, E> {
    let mut definitions = Vec::with_capacity(strata.len());
    for stratum in strata {
        let mut inputs = Vec::with_capacity(stratum.members.len());
        for d in &stratum.members {
            inputs.push(lower_collection(&d.collection, planner)?);
        }
        definitions.push(if stratum.recursive {
            PlanNode::Fixpoint {
                relations: stratum
                    .members
                    .iter()
                    .map(|d| d.name().to_string())
                    .collect(),
                inputs,
            }
        } else {
            inputs
                .pop()
                .expect("a non-recursive stratum has one member")
        });
    }
    let query = match query {
        Some(q) => Some(Box::new(lower_collection(q, planner)?)),
        None => None,
    };
    Ok(PlanNode::Program { definitions, query })
}

/// The tree walk: the planner, and the scopes enclosing the one at hand.
struct Lowering<'p, 'f, 'a, E> {
    planner: &'p mut ScopePlanner<'f, 'a, E>,
    stack: ScopeStack<'a>,
}

impl<'a, E> Lowering<'_, '_, 'a, E> {
    fn collection(&mut self, c: &'a Collection) -> Result<PlanNode, E> {
        let input = self.branch(&c.body, &c.head.relation)?;
        Ok(PlanNode::Project {
            head: c.head.relation.clone(),
            attrs: c.head.attrs.clone(),
            input: Box::new(input),
        })
    }

    fn branch(&mut self, f: &'a Formula, head: &str) -> Result<PlanNode, E> {
        match f {
            Formula::Or(branches) => {
                let mut inputs = Vec::with_capacity(branches.len());
                for b in branches {
                    inputs.push(self.branch(b, head)?);
                }
                Ok(PlanNode::Union { inputs })
            }
            Formula::Quant(q) => self.scope(QuantRef::from(&**q), head, None),
            other => self.scope(QuantRef::bare(other), head, None),
        }
    }

    /// Lower one quantifier scope (the workhorse). `head` is the
    /// collection head name, or a non-occurring name for boolean scopes.
    /// `bool_role` is `Some(negated)` when the scope is a boolean
    /// subformula (`semi-join ∃` / `anti-join ¬∃`) — the only position
    /// where the decorrelation pass may fire.
    fn scope(
        &mut self,
        q: QuantRef<'a>,
        head: &str,
        bool_role: Option<bool>,
    ) -> Result<PlanNode, E> {
        let parts = partition(q.body, head);
        let assigns = |assigns: &[(&str, &Scalar)]| -> Vec<String> {
            assigns
                .iter()
                .map(|(attr, expr)| format!("{head}.{attr} = {expr}"))
                .collect()
        };
        let scope = if let Some(tree) = q.join.filter(|t| t.has_outer()) {
            // Outer-join annotations execute on the materialized path;
            // show them unplanned.
            PlanNode::OuterJoin {
                tree: tree.to_string(),
                filters: parts.filters.iter().map(|p| p.to_string()).collect(),
                assigns: assigns(&parts.assigns),
            }
        } else {
            // Boolean scopes run the decorrelation pass: the engine's
            // shape check, then the engine's planner.
            let shape = bool_role.and_then(|_| decorrelatable_shape(q, &parts, &self.stack));
            let guard = shape.flatten().map(|g| g.eq);
            let (plan, schemas) = (self.planner)(ScopeRequest {
                scope: q,
                filters: &parts.filters,
                outer: &self.stack,
                boolean: shape.is_some(),
                guard,
            })?;
            let children = self.children(q, &parts, &schemas, head)?;
            let emits_rows = bool_role.is_none() && q.grouping.is_none();
            let axis = plan.partition_axis(emits_rows);
            let scope = render_scope(
                q,
                &parts,
                &plan,
                &schemas,
                axis,
                assigns(&parts.assigns),
                children,
            );
            match &plan.decorrelation {
                Some(dec) => {
                    // Filter `filters.len()` is the null guard's equality.
                    let filter = |i: usize| {
                        let p = parts.filters.get(i).copied().or(guard);
                        p.expect("a filter index, or the null guard's").to_string()
                    };
                    PlanNode::SemiJoin {
                        scope_id: q.id(),
                        anti: bool_role.unwrap_or(false),
                        keys: dec.keys.iter().map(|k| filter(k.filter)).collect(),
                        prelude: dec.probe_filters.iter().map(|&i| filter(i)).collect(),
                        est_keys: dec.est_keys,
                        null_aware: dec.null_aware,
                        build: Box::new(scope),
                    }
                }
                None => scope,
            }
        };
        // A grouping operator wraps the pipeline in an aggregation node.
        Ok(match q.grouping {
            Some(g) => PlanNode::Aggregate {
                keys: g.keys.iter().map(|k| k.to_string()).collect(),
                assigns: assigns(&parts.agg_assigns),
                tests: parts.agg_tests.iter().map(|p| p.to_string()).collect(),
                input: Box::new(scope),
            },
            None => scope,
        })
    }

    /// A planned scope's labeled children — laterals, then boolean
    /// subformulas, then spines — each lowered under the scope's full
    /// environment.
    fn children(
        &mut self,
        q: QuantRef<'a>,
        parts: &Parts<'a>,
        schemas: &[&'a [String]],
        head: &str,
    ) -> Result<Vec<ChildPlan>, E> {
        let base = self.stack.frames.len();
        let frames = q.bindings.iter().zip(schemas);
        self.stack
            .frames
            .extend(frames.map(|(b, attrs)| (b.var.as_str(), *attrs)));
        let mut children = Vec::new();
        for b in q.bindings {
            if let BindingSource::Collection(c) = &b.source {
                children.push(ChildPlan {
                    label: format!("lateral {}", b.var),
                    plan: self.collection(c)?,
                });
            }
        }
        for sub in parts.pre_bool.iter().chain(&parts.post_bool) {
            self.bool_children(sub, false, &mut children)?;
        }
        for spine in &parts.spines {
            self.spine_children(spine, head, &mut children)?;
        }
        self.stack.frames.truncate(base);
        Ok(children)
    }

    /// Quantified subformulas of a boolean conjunct become labeled
    /// children: positive scopes are semi-joins, negated ones anti-joins.
    fn bool_children(
        &mut self,
        f: &'a Formula,
        negated: bool,
        out: &mut Vec<ChildPlan>,
    ) -> Result<(), E> {
        match f {
            Formula::Quant(q) => {
                let label = if negated {
                    "anti-join ¬∃"
                } else {
                    "semi-join ∃"
                };
                out.push(ChildPlan {
                    label: label.to_string(),
                    plan: self.scope(QuantRef::from(&**q), "\u{0}", Some(negated))?,
                });
                Ok(())
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    self.bool_children(sub, negated, out)?;
                }
                Ok(())
            }
            Formula::Not(inner) => self.bool_children(inner, !negated, out),
            Formula::Pred(_) => Ok(()),
        }
    }

    /// Spine subformulas (assignment-bearing nested scopes) lower as plans
    /// of their own, labeled `spine`.
    fn spine_children(
        &mut self,
        f: &'a Formula,
        head: &str,
        out: &mut Vec<ChildPlan>,
    ) -> Result<(), E> {
        match f {
            Formula::Quant(q) => {
                out.push(ChildPlan {
                    label: "spine".to_string(),
                    plan: self.scope(QuantRef::from(&**q), head, None)?,
                });
                Ok(())
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    self.spine_children(sub, head, out)?;
                }
                Ok(())
            }
            Formula::Not(_) | Formula::Pred(_) => Ok(()),
        }
    }
}

/// Render a planned scope into a [`PlanNode::Scope`]. `schemas` supplies
/// per-binding schemas so index-range bounds render as column names;
/// `axis` is the scope's partition axis.
fn render_scope(
    q: QuantRef<'_>,
    parts: &Parts<'_>,
    plan: &ScopePlan,
    schemas: &[&[String]],
    axis: Option<usize>,
    assigns: Vec<String>,
    children: Vec<ChildPlan>,
) -> PlanNode {
    let render_filter = |i: &usize| parts.filters[*i].to_string();
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
                    let schema = schemas[s.binding];
                    let names: Vec<String> = cols
                        .iter()
                        .enumerate()
                        .map(|(ci, &c)| {
                            let name = schema.get(c).cloned().unwrap_or_else(|| format!("#{c}"));
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
                est: s.estimated_rows,
                partition: axis == Some(step_idx),
            }
        })
        .collect();
    PlanNode::Scope {
        scope_id: q.id(),
        steps,
        prelude: plan.prelude_filters.iter().map(render_filter).collect(),
        residual: plan.leaf_filters.iter().map(render_filter).collect(),
        assigns,
        children,
    }
}
