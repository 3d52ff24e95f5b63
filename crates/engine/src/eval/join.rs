//! Outer-join annotation trees (§2.11): `left`/`full` nodes over the
//! binding list, with ON-condition absorption of body predicates.
//!
//! An annotated scope bypasses the plan IR: each node materializes its
//! two sides, and an outer node then **hash-partitions** the right one.
//! When the scope is compiled, the `=` conjuncts of a node's ON condition
//! that compare a left-or-enclosing-scope expression with a right-side
//! one become its *equi-keys*; when it runs, the right side's rows are
//! bucketed once by the hash of their key values (the workspace's one
//! equi-join rule, [`Value::join_key_ref`]: `1 = 1.0`, and a `NULL`/`NaN`
//! key lands in no bucket) and each left row visits only its bucket, in
//! right-row order. The bucket merely narrows the candidates: the whole,
//! unchanged ON condition is evaluated on each of them, so three-valued
//! logic, residual non-equi predicates, literal leaves, `full`'s
//! right-side bookkeeping, `NULL` padding and output order follow one
//! rule, and keys that collide share a bucket harmlessly. An ON condition
//! without an equi-key runs the same loop over one all-rows bucket.
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
use super::quantifier::{HashIndex, Sink};
use super::scope::Resolved;
use super::slots::{CPred, CScalar, Resolver};
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
        keys: EquiKeys<'a>,
        left_widths: Vec<usize>,
        right_widths: Vec<usize>,
        full: bool,
    },
}

/// The `=` conjuncts of an ON condition that compare something the left
/// side (or an enclosing scope) decides with something the right side
/// decides — the sides of the `n`-th one are `probe[n]` and `build[n]`.
/// They only *partition* the right side; `on` still holds, and checks,
/// every conjunct.
#[derive(Default)]
struct EquiKeys<'a> {
    /// Over the outer and left frames: evaluated once per left row.
    probe: Vec<CScalar<'a>>,
    /// Over the right frames, resolved as if they sat directly on the
    /// outer ones: evaluated once per right row.
    build: Vec<CScalar<'a>>,
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
    fn on_preds(&mut self, left: &Side<'a>, right: &Side<'a>) -> (Vec<CPred<'a>>, EquiKeys<'a>) {
        let in_side = |side: &Side<'a>, v: &str| side.vars.iter().any(|n| n.var == v);
        let names: Vec<Names<'a>> = [self.outer, &left.vars, &right.vars].concat();
        let mut on = Vec::new();
        let mut sources = Vec::new();
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
                sources.push(*p);
            }
        }
        let keys = self.equi_keys(&sources, &on, &names, right);
        (on, keys)
    }

    /// Split the equi-keys out of an ON condition: `=` between an
    /// expression that reads frames below the right side only (or none)
    /// and one that reads right frames only. A condition that can raise
    /// yields none — it must keep raising on the pair it raised on.
    fn equi_keys(
        &self,
        sources: &[&'a Predicate],
        on: &[CPred<'a>],
        names: &[Names<'a>],
        right: &Side<'a>,
    ) -> EquiKeys<'a> {
        let mut keys = EquiKeys::default();
        if on.iter().any(CPred::may_raise) {
            return keys;
        }
        let split = names.len() - right.vars.len();
        let below = |s: &CScalar<'a>| s.frames().is_none_or(|(_, hi)| hi < split);
        let above = |s: &CScalar<'a>| s.frames().is_some_and(|(lo, _)| lo >= split);
        let build_names: Vec<Names<'a>> = [self.outer, &right.vars].concat();
        for (p, c) in sources.iter().zip(on) {
            let (
                Predicate::Cmp {
                    left: l,
                    op: CmpOp::Eq,
                    right: r,
                },
                CPred::Cmp {
                    left: cl,
                    right: cr,
                    ..
                },
            ) = (p, c)
            else {
                continue;
            };
            let (probe, build) = if below(cl) && above(cr) {
                (l, r)
            } else if above(cl) && below(cr) {
                (r, l)
            } else {
                continue;
            };
            keys.probe
                .push(Resolver::tuple(&names[..split]).scalar(probe));
            keys.build.push(Resolver::tuple(&build_names).scalar(build));
        }
        keys
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
                    BindingSource::Named(name) => match self.resolve_named(binding, name)? {
                        Resolved::Rel(rel, _) => (JoinNode::Rel(rel), &rel.schema),
                        Resolved::Ext(_) => {
                            return Err(EvalError::ExternalInJoinTree { var: v.clone() })
                        }
                        // A join leaf is materialized; an abstract
                        // definition has nothing to materialize (and
                        // `EXPLAIN` compiles no join tree).
                        Resolved::Abs(_) | Resolved::Nested(_) | Resolved::Unmaterialized(_) => {
                            return Err(EvalError::UnknownRelation(name.clone()))
                        }
                    },
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
                let (on, keys) = routing.on_preds(&left, &right);
                let widths = |side: &Side<'a>| side.vars.iter().map(|n| n.attrs.len()).collect();
                Ok(Side {
                    node: JoinNode::Outer {
                        left_widths: widths(&left),
                        right_widths: widths(&right),
                        left: Box::new(left.node),
                        right: Box::new(right.node),
                        on,
                        keys,
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
        sink: &mut Sink<'_, 'a>,
    ) -> Result<()> {
        let base = env.len();
        let rows = self.join_rows(&join.root, env)?;
        for row in rows.iter() {
            env.frames.extend(row.iter().cloned());
            let cont = !self.all_true(&join.filters, env)? || sink.env(self, env)?;
            env.truncate(base);
            if !cont {
                return Ok(());
            }
        }
        Ok(())
    }

    /// The rows of a subtree: one frame per variable, in leaf order.
    fn join_rows(&self, node: &JoinNode<'a>, env: &mut Env<'a>) -> Result<JoinRows<'a>> {
        match node {
            JoinNode::Rel(rel) => Ok(JoinRows {
                width: 1,
                len: rel.len(),
                frames: rel.rows.iter().map(Frame::Borrowed).collect(),
            }),
            JoinNode::Nested(c) => {
                let rows = self.collection_rows(c, env)?;
                Ok(JoinRows {
                    width: 1,
                    len: rows.len(),
                    frames: rows.iter().map(|r| Frame::Owned(r.to_vec())).collect(),
                })
            }
            JoinNode::Lit => Ok(JoinRows::unit()),
            JoinNode::Inner(children) => {
                let mut acc = JoinRows::unit();
                for c in children {
                    let next = self.join_rows(c, env)?;
                    let mut rows =
                        JoinRows::with_capacity(acc.width + next.width, acc.len * next.len);
                    for a in acc.iter() {
                        for b in next.iter() {
                            rows.push(a.iter().chain(b).cloned());
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
                keys,
                left_widths,
                right_widths,
                full,
            } => {
                let left = self.join_rows(left, env)?;
                let right = self.join_rows(right, env)?;
                let base = env.len();
                // Partition the right side once by the hash of its key
                // values. A bucket only narrows the candidates `on` is
                // checked against, so colliding keys may share one — and
                // with no equi-key every row hashes alike: one bucket.
                let mut hashes = Vec::with_capacity(right.len);
                for rrow in right.iter() {
                    env.frames.extend(rrow.iter().cloned());
                    let hash = self.key_hash(&keys.build, env);
                    env.truncate(base);
                    hashes.push(hash?);
                }
                let index = HashIndex::from_hashes(&hashes);
                let mut rows = JoinRows::with_capacity(left.width + right.width, left.len);
                let mut right_matched = vec![false; right.len];
                for lrow in left.iter() {
                    env.frames.extend(lrow.iter().cloned());
                    let mid = env.len();
                    let mut probe = || -> Result<bool> {
                        // A NULL/NaN key on the left equals nothing.
                        let Some(hash) = self.key_hash(&keys.probe, env)? else {
                            return Ok(false);
                        };
                        let mut matched = false;
                        for &j in index.bucket(hash, |_| Ok(true))? {
                            let rrow = right.row(j as usize);
                            env.frames.extend(rrow.iter().cloned());
                            let ok = self.all_true(on, env);
                            env.truncate(mid);
                            if ok? {
                                matched = true;
                                right_matched[j as usize] = true;
                                rows.push(lrow.iter().chain(rrow).cloned());
                            }
                        }
                        Ok(matched)
                    };
                    let matched = probe();
                    env.truncate(base);
                    if !matched? {
                        rows.push(lrow.iter().cloned().chain(null_frames(right_widths)));
                    }
                }
                if *full {
                    for (rrow, _) in right.iter().zip(&right_matched).filter(|(_, m)| !**m) {
                        rows.push(null_frames(left_widths).chain(rrow.iter().cloned()));
                    }
                }
                Ok(rows)
            }
        }
    }
}

/// The rows of a join subtree, `width` frames each, stored end to end:
/// one buffer for the whole side instead of a vector per row.
struct JoinRows<'a> {
    width: usize,
    /// The row count — what `frames` alone cannot say when `width` is 0
    /// (a literal leaf has one row of no frames).
    len: usize,
    frames: Vec<Frame<'a>>,
}

impl<'a> JoinRows<'a> {
    /// One row of no frames: a literal leaf, and the seed of a product.
    fn unit() -> Self {
        JoinRows {
            width: 0,
            len: 1,
            frames: Vec::new(),
        }
    }

    fn with_capacity(width: usize, rows: usize) -> Self {
        JoinRows {
            width,
            len: 0,
            frames: Vec::with_capacity(width * rows),
        }
    }

    fn push(&mut self, row: impl Iterator<Item = Frame<'a>>) {
        self.frames.extend(row);
        self.len += 1;
        debug_assert_eq!(self.frames.len(), self.width * self.len);
    }

    fn row(&self, i: usize) -> &[Frame<'a>] {
        &self.frames[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[Frame<'a>]> {
        (0..self.len).map(|i| self.row(i))
    }
}
