//! Outer-join annotation trees (§2.11): `left`/`full` nodes over the
//! binding list, with ON-condition absorption of body predicates.
//!
//! Outer joins always run on the materialized nested-loop path — the ON
//! absorption logic depends on seeing whole sides at once, and outer
//! workloads in the paper are small. Extending [`super::EvalStrategy`]
//! coverage to outer nodes is future work.
//!
//! Like every other scope, an annotated scope is **compiled once**
//! ([`Ctx::compile_join`]): leaves resolve to their sources, every body
//! predicate is routed to the outer node whose ON condition absorbs it (or
//! to the final WHERE), and each is slot-resolved against the frames its
//! node has on the stack when it runs. Execution ([`Ctx::run_join`]) then
//! combines borrowed rows; only `NULL`-padded sides and lateral results
//! own theirs.

use super::env::{Env, Frame, Layout, Names};
use super::partition::{pred_consts, pred_vars};
use super::quantifier::EnvFn;
use super::slots::{CPred, Resolver};
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::relation::Relation;
use arc_core::ast::*;
use arc_core::value::Value;
use std::collections::{HashMap, HashSet};

/// One node of a compiled annotation tree.
enum JoinNode<'a> {
    /// A range variable over a materialized relation.
    Rel(&'a Relation),
    /// A range variable over a nested collection, evaluated on entry.
    Nested(&'a Collection),
    /// A literal leaf: one row, no variable.
    Lit,
    Inner(Vec<JoinNode<'a>>),
    /// `left`/`full` outer join: `on` sees the outer frames, then the
    /// left side's, then the right side's. The widths are the arities of
    /// each side's variables, for `NULL` padding.
    Outer {
        left: Box<JoinNode<'a>>,
        right: Box<JoinNode<'a>>,
        on: Vec<CPred<'a>>,
        left_widths: Vec<usize>,
        right_widths: Vec<usize>,
        full: bool,
    },
}

/// A compiled outer-join scope: the tree, then the predicates no ON
/// condition absorbed (they apply as WHERE over the joined rows).
pub(crate) struct JoinPlan<'a> {
    root: JoinNode<'a>,
    filters: Vec<CPred<'a>>,
}

/// What compiling a subtree learns about it.
struct Side<'a> {
    node: JoinNode<'a>,
    /// Its variables, in frame order.
    vars: Vec<Names<'a>>,
    /// Its literal leaves.
    lits: Vec<&'a Value>,
}

/// Body predicates being routed to ON conditions.
struct Routing<'f, 'a> {
    filters: &'f [&'a Predicate],
    consumed: HashSet<usize>,
    outer: &'f [Names<'a>],
}

impl<'a> Routing<'_, 'a> {
    /// Select the ON predicates for an outer node: body predicates whose
    /// variables are covered by the two sides (plus the outer environment)
    /// and that either touch the right side's variables or compare against
    /// one of the right side's literal leaves (paper Fig 12's
    /// `inner(11, s)` pattern) — resolved against outer ++ left ++ right.
    fn on_preds(&mut self, left: &Side<'a>, right: &Side<'a>) -> Vec<CPred<'a>> {
        let in_side = |side: &Side<'a>, v: &str| side.vars.iter().any(|n| n.var == v);
        let names: Vec<Names<'a>> = [self.outer, &left.vars, &right.vars].concat();
        let mut on = Vec::new();
        for (i, p) in self.filters.iter().enumerate() {
            if self.consumed.contains(&i) {
                continue;
            }
            let vars = pred_vars(p);
            let covered = vars.iter().all(|v| {
                in_side(left, v) || in_side(right, v) || self.outer.iter().any(|n| n.var == v)
            });
            if !covered {
                continue;
            }
            let touches_right = vars.iter().any(|v| in_side(right, v));
            let touches_lit =
                !right.lits.is_empty() && pred_consts(p).iter().any(|c| right.lits.contains(&c));
            if touches_right || touches_lit {
                self.consumed.insert(i);
                on.push(Resolver::tuple(&names).pred(p));
            }
        }
        on
    }
}

fn null_frames<'a>(widths: &[usize]) -> impl Iterator<Item = Frame<'a>> + '_ {
    widths.iter().map(|&w| Frame::Owned(vec![Value::Null; w]))
}

impl<'a> Ctx<'a> {
    /// Compile an outer-join scope under the outer frames `outer`;
    /// returns the plan and the scope's full layout (outer frames, then
    /// the tree's variables in leaf order).
    pub(crate) fn compile_join(
        &self,
        bindings: &'a [Binding],
        tree: &'a JoinTree,
        filters: &[&'a Predicate],
        outer: &[Names<'a>],
    ) -> Result<(JoinPlan<'a>, Layout<'a>)> {
        // The annotation must cover exactly the bound variables.
        let tree_vars: HashSet<&str> = tree.vars().into_iter().collect();
        if tree_vars.len() != bindings.len()
            || !bindings.iter().all(|b| tree_vars.contains(b.var.as_str()))
        {
            return Err(EvalError::JoinTreeMismatch);
        }
        let by_var: HashMap<&str, &'a Binding> =
            bindings.iter().map(|b| (b.var.as_str(), b)).collect();
        let mut routing = Routing {
            filters,
            consumed: HashSet::new(),
            outer,
        };
        let root = self.compile_join_node(tree, &by_var, &mut routing)?;
        let names: Vec<Names<'a>> = [outer, &root.vars].concat();
        // Remaining (non-consumed) filters apply as WHERE.
        let mut r = Resolver::tuple(&names);
        let filters = filters
            .iter()
            .enumerate()
            .filter(|(i, _)| !routing.consumed.contains(i))
            .map(|(_, p)| r.pred(p))
            .collect();
        Ok((
            JoinPlan {
                root: root.node,
                filters,
            },
            names.into(),
        ))
    }

    fn compile_join_node(
        &self,
        node: &'a JoinTree,
        by_var: &HashMap<&str, &'a Binding>,
        routing: &mut Routing<'_, 'a>,
    ) -> Result<Side<'a>> {
        match node {
            JoinTree::Var(v) => {
                let binding = by_var.get(v.as_str()).ok_or(EvalError::JoinTreeMismatch)?;
                let (node, attrs) = match &binding.source {
                    BindingSource::Named(name) => {
                        let rel = if let Some(r) = self.defined.get(name) {
                            r
                        } else if let Some(r) = self.catalog.relation(name) {
                            r
                        } else if self.catalog.external(name).is_some() {
                            return Err(EvalError::ExternalInJoinTree { var: v.clone() });
                        } else {
                            return Err(EvalError::UnknownRelation(name.clone()));
                        };
                        (JoinNode::Rel(rel), &rel.schema)
                    }
                    BindingSource::Collection(c) => (JoinNode::Nested(c), &c.head.attrs),
                };
                Ok(Side {
                    node,
                    vars: vec![Names { var: v, attrs }],
                    lits: Vec::new(),
                })
            }
            JoinTree::Lit(v) => Ok(Side {
                node: JoinNode::Lit,
                vars: Vec::new(),
                lits: vec![v],
            }),
            JoinTree::Inner(children) => {
                let mut acc = Side {
                    node: JoinNode::Lit,
                    vars: Vec::new(),
                    lits: Vec::new(),
                };
                let mut nodes = Vec::with_capacity(children.len());
                for c in children {
                    let next = self.compile_join_node(c, by_var, routing)?;
                    nodes.push(next.node);
                    acc.vars.extend(next.vars);
                    acc.lits.extend(next.lits);
                }
                acc.node = JoinNode::Inner(nodes);
                Ok(acc)
            }
            JoinTree::Left(l, r) | JoinTree::Full(l, r) => {
                let left = self.compile_join_node(l, by_var, routing)?;
                let right = self.compile_join_node(r, by_var, routing)?;
                let on = routing.on_preds(&left, &right);
                let widths = |side: &Side<'a>| side.vars.iter().map(|n| n.attrs.len()).collect();
                Ok(Side {
                    node: JoinNode::Outer {
                        left_widths: widths(&left),
                        right_widths: widths(&right),
                        left: Box::new(left.node),
                        right: Box::new(right.node),
                        on,
                        full: matches!(node, JoinTree::Full(..)),
                    },
                    vars: [left.vars, right.vars].concat(),
                    lits: [left.lits, right.lits].concat(),
                })
            }
        }
    }

    /// Execute a compiled outer-join scope: materialize the joined rows,
    /// then apply the remaining filters and the callback per row.
    pub(crate) fn run_join(
        &self,
        join: &JoinPlan<'a>,
        env: &mut Env<'a>,
        cb: &mut EnvFn<'_, 'a>,
    ) -> Result<()> {
        let base = env.len();
        for row in self.join_rows(&join.root, env)? {
            env.frames.extend(row);
            let cont = !self.all_true(&join.filters, env)? || cb(self, env)?;
            env.truncate(base);
            if !cont {
                return Ok(());
            }
        }
        Ok(())
    }

    /// The rows of a subtree: one frame per variable, in leaf order.
    fn join_rows(&self, node: &JoinNode<'a>, env: &mut Env<'a>) -> Result<Vec<Vec<Frame<'a>>>> {
        match node {
            JoinNode::Rel(rel) => Ok(rel.rows.iter().map(|t| vec![Frame::Borrowed(t)]).collect()),
            JoinNode::Nested(c) => Ok(self
                .collection_relation(c, env)?
                .rows
                .into_iter()
                .map(|t| vec![Frame::Owned(t)])
                .collect()),
            JoinNode::Lit => Ok(vec![Vec::new()]),
            JoinNode::Inner(children) => {
                let mut acc: Vec<Vec<Frame<'a>>> = vec![Vec::new()];
                for c in children {
                    let next = self.join_rows(c, env)?;
                    let mut rows = Vec::with_capacity(acc.len() * next.len().max(1));
                    for a in &acc {
                        for b in &next {
                            rows.push([a.as_slice(), b.as_slice()].concat());
                        }
                    }
                    acc = rows;
                }
                Ok(acc)
            }
            JoinNode::Outer {
                left,
                right,
                on,
                left_widths,
                right_widths,
                full,
            } => {
                let left = self.join_rows(left, env)?;
                let right = self.join_rows(right, env)?;
                let base = env.len();
                let mut rows = Vec::new();
                let mut right_matched = vec![false; right.len()];
                for lrow in &left {
                    let mut matched = false;
                    for (j, rrow) in right.iter().enumerate() {
                        env.frames.extend(lrow.iter().chain(rrow).cloned());
                        let ok = self.all_true(on, env);
                        env.truncate(base);
                        if ok? {
                            matched = true;
                            right_matched[j] = true;
                            rows.push([lrow.as_slice(), rrow.as_slice()].concat());
                        }
                    }
                    if !matched {
                        let mut row = lrow.clone();
                        row.extend(null_frames(right_widths));
                        rows.push(row);
                    }
                }
                if *full {
                    for (rrow, _) in right.iter().zip(&right_matched).filter(|(_, m)| !**m) {
                        let mut row: Vec<Frame<'a>> = null_frames(left_widths).collect();
                        row.extend(rrow.iter().cloned());
                        rows.push(row);
                    }
                }
                Ok(rows)
            }
        }
    }
}
