//! Output assembly: building head tuples from assignment predicates and
//! emitting them through the (possibly disjunctive, possibly nested)
//! emission spine.

use super::aggregate::{member_of, AggSpec, Group, Groups, Member};
use super::env::Env;
use super::scope::{Body, GroupPlan, GroupTests, QuantRef, Scope};
use super::slots::CScalar;
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::relation::{dedupe_rows, Relation, Tuple};
use arc_core::ast::*;
use arc_core::conventions::Semantics;
use arc_core::value::Value;
use std::borrow::Cow;

/// Partial head tuple: per-attribute assigned value.
pub(crate) type Partial = Vec<Option<Value>>;

/// The output relation being assembled: name + attribute schema.
pub(crate) struct HeadCtx<'h> {
    pub(crate) name: &'h str,
    pub(crate) attrs: &'h [String],
}

/// Where an output column's value comes from.
enum ColSrc {
    /// Already assigned by an enclosing scope of the emission spine.
    Partial,
    /// The scope's `n`-th assignment expression.
    Expr(usize),
    /// Nothing assigns it here.
    Missing,
}

/// What happens, in body order, before a row is assembled.
enum PreStep {
    /// A second assignment to a column: both equalities must hold, i.e.
    /// expression `expr` must produce the key the column already has
    /// (`NULL = NULL` assignments agree only structurally) — or the row
    /// is dropped.
    Agree { expr: usize, col: usize },
    /// Evaluate assignment `n` for its error alone: it can raise, and
    /// must do so at its place in body order.
    Probe(usize),
    /// An assignment to an attribute the head does not have.
    Raise(EvalError),
}

/// A scope's head assignments, resolved: every assignment to an output
/// column **index**, every duplicate to an agreement check, so assembling
/// a row evaluates each expression once, in place, into the output
/// vector.
pub(crate) struct HeadPlan<'a> {
    name: &'a str,
    attrs: &'a [String],
    exprs: Vec<CScalar<'a>>,
    pre: Vec<PreStep>,
    cols: Vec<ColSrc>,
}

impl<'a> HeadPlan<'a> {
    /// `assigns` are the scope's head assignments in body order;
    /// `partial` says which columns the enclosing spine already assigned
    /// (a property of the scope's position, not of the row).
    pub(crate) fn compile(
        head: &HeadCtx<'a>,
        partial: &Partial,
        assigns: impl IntoIterator<Item = (&'a str, CScalar<'a>)>,
        aggs: &[AggSpec<'a>],
    ) -> HeadPlan<'a> {
        let mut cols: Vec<ColSrc> = partial
            .iter()
            .map(|slot| match slot {
                Some(_) => ColSrc::Partial,
                None => ColSrc::Missing,
            })
            .collect();
        let mut pre = Vec::new();
        let assigns = assigns.into_iter();
        let mut exprs = Vec::with_capacity(assigns.size_hint().0);
        for (n, (attr, expr)) in assigns.enumerate() {
            let raises = expr.may_raise(aggs);
            exprs.push(expr);
            match head.attrs.iter().position(|a| a == attr) {
                None => {
                    // The expression is evaluated before the attribute is
                    // looked up, so its own error wins.
                    if raises {
                        pre.push(PreStep::Probe(n));
                    }
                    pre.push(PreStep::Raise(EvalError::UnknownAttribute {
                        var: head.name.to_string(),
                        attr: attr.to_string(),
                    }));
                }
                Some(col) => match cols[col] {
                    ColSrc::Missing => {
                        if raises {
                            pre.push(PreStep::Probe(n));
                        }
                        cols[col] = ColSrc::Expr(n);
                    }
                    ColSrc::Partial | ColSrc::Expr(_) => pre.push(PreStep::Agree { expr: n, col }),
                },
            }
        }
        HeadPlan {
            name: head.name,
            attrs: head.attrs,
            exprs,
            pre,
            cols,
        }
    }

    /// Run the pre-steps; `Ok(false)` drops the row (two assignments to
    /// one column disagree).
    fn admit<'e>(
        &'e self,
        partial: &'e Partial,
        eval: &mut impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
    ) -> Result<bool> {
        for step in &self.pre {
            match step {
                PreStep::Agree { expr, col } => {
                    let v = eval(&self.exprs[*expr])?;
                    let agrees = match &self.cols[*col] {
                        ColSrc::Expr(first) => eval(&self.exprs[*first])?.key_ref() == v.key_ref(),
                        _ => partial[*col].as_ref().map(Value::key_ref) == Some(v.key_ref()),
                    };
                    if !agrees {
                        return Ok(false);
                    }
                }
                PreStep::Probe(n) => {
                    eval(&self.exprs[*n])?;
                }
                PreStep::Raise(e) => return Err(e.clone()),
            }
        }
        Ok(true)
    }

    /// Run the pre-steps, then fill every column in order: `some` wraps an
    /// assigned value, `missing` decides what an unassigned column is.
    /// `None` when conflicting assignments drop the row.
    fn assemble<'e, T>(
        &'e self,
        partial: &'e Partial,
        mut eval: impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
        some: fn(Value) -> T,
        missing: impl Fn(usize) -> Result<T>,
    ) -> Result<Option<Vec<T>>> {
        if !self.admit(partial, &mut eval)? {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.cols.len());
        for (col, src) in self.cols.iter().enumerate() {
            out.push(match src {
                ColSrc::Partial => some(
                    partial[col]
                        .clone()
                        .expect("assigned by the enclosing spine"),
                ),
                ColSrc::Expr(n) => some(eval(&self.exprs[*n])?.into_owned()),
                ColSrc::Missing => missing(col)?,
            });
        }
        Ok(Some(out))
    }

    /// Assemble the complete head tuple for the current environment, or
    /// `None` when conflicting assignments drop the row.
    pub(crate) fn row<'e>(
        &'e self,
        partial: &'e Partial,
        eval: impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
    ) -> Result<Option<Tuple>> {
        self.assemble(
            partial,
            eval,
            |v| v,
            |col| {
                Err(EvalError::MissingAssignment {
                    collection: self.name.to_string(),
                    attr: self.attrs[col].clone(),
                })
            },
        )
    }

    /// Like [`HeadPlan::row`], for a scope with a nested emission spine:
    /// the extended partial tuple the spine continues from.
    fn partial<'e>(
        &'e self,
        partial: &'e Partial,
        eval: impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
    ) -> Result<Option<Partial>> {
        self.assemble(partial, eval, Some, |_| Ok(None))
    }
}

impl<'a> Ctx<'a> {
    /// Evaluate a collection to a relation (applying the set-semantics
    /// deduplication convention at the collection boundary).
    pub(crate) fn collection_relation(
        &self,
        c: &'a Collection,
        env: &mut Env<'a>,
    ) -> Result<Relation> {
        let mut rel = Relation::new(c.head.relation.clone(), &[]);
        rel.schema = c.head.attrs.clone();
        rel.rows = self.collection_rows(c, env)?;
        Ok(rel)
    }

    /// The rows of [`Ctx::collection_relation`], for callers that bind
    /// them and have no use for a named relation around them (a lateral
    /// step evaluates its collection once per outer environment).
    pub(crate) fn collection_rows(
        &self,
        c: &'a Collection,
        env: &mut Env<'a>,
    ) -> Result<Vec<Tuple>> {
        let head = HeadCtx {
            name: &c.head.relation,
            attrs: &c.head.attrs,
        };
        let partial: Partial = vec![None; c.head.attrs.len()];
        let mut rows = Vec::new();
        self.emit_branch(&c.body, &head, &partial, env, &mut rows)?;
        if self.shared.conv.semantics == Semantics::Set {
            dedupe_rows(&mut rows);
        }
        Ok(rows)
    }

    pub(crate) fn emit_branch(
        &self,
        f: &'a Formula,
        head: &HeadCtx<'a>,
        partial: &Partial,
        env: &mut Env<'a>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let q = match f {
            Formula::Or(branches) => {
                for b in branches {
                    self.emit_branch(b, head, partial, env, out)?;
                }
                return Ok(());
            }
            Formula::Quant(q) => QuantRef::from(&**q),
            other => QuantRef {
                bindings: &[],
                grouping: None,
                join: None,
                body: other,
            },
        };
        let sc = self.emit_scope(q, head, partial, env)?;
        match &sc.body {
            Body::Rows { head: plan, spine } => {
                self.emit_existential(&sc, plan, *spine, head, partial, env, out)
            }
            Body::Groups(g) => self.emit_grouped(&sc, g, head, partial, env, out),
            Body::Exists | Body::Semi(_) => Err(EvalError::Internal(
                "boolean scope on the emission spine".into(),
            )),
        }
    }

    /// Plain existential scope: each surviving environment contributes one
    /// head tuple (or descends into the spine).
    #[allow(clippy::too_many_arguments)]
    fn emit_existential(
        &self,
        sc: &Scope<'a>,
        plan: &HeadPlan<'a>,
        spine: Option<&'a Formula>,
        head: &HeadCtx<'a>,
        partial: &Partial,
        env: &mut Env<'a>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        // Through `enumerate_collect`: scopes with a partition axis run
        // their outer scan in parallel morsels (the ordered merge keeps
        // the emitted tuples in sequential enumeration order); everything
        // else streams straight into `out`.
        self.enumerate_collect::<Tuple>(
            sc,
            env,
            &|ctx, env, sink| {
                if !ctx.all_hold(&sc.pre_bool, env)? {
                    return Ok(true);
                }
                match spine {
                    None => sink.extend(plan.row(partial, |e| ctx.scalar(e, env))?),
                    Some(spine) => {
                        let Some(p2) = plan.partial(partial, |e| ctx.scalar(e, env))? else {
                            return Ok(true);
                        };
                        // Nested existential: emissions collapse per
                        // environment (semijoin multiplicity, §2.7).
                        let mut sub = Vec::new();
                        ctx.emit_branch(spine, head, &p2, env, &mut sub)?;
                        dedupe_rows(&mut sub);
                        sink.extend(sub);
                    }
                }
                Ok(true)
            },
            out,
        )
    }

    /// Grouping scope: fold surviving environments into per-group
    /// accumulators as they are enumerated, then emit one head tuple per
    /// passing group, in key order.
    fn emit_grouped(
        &self,
        sc: &Scope<'a>,
        g: &GroupPlan<'a>,
        head: &HeadCtx<'a>,
        partial: &Partial,
        env: &mut Env<'a>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        self.each_group(sc, g, Some((head, partial)), env, |group, tests, env| {
            if group.verdict(self, tests, env)? {
                let plan = tests.head.as_ref().expect("emitting scope");
                out.extend(plan.row(partial, |e| group.scalar(self, &tests.aggs, e, env))?);
            }
            Ok(true)
        })
    }

    /// Enumerate a grouping scope, fold its members, and visit the groups
    /// in key order — each under its representative environment (outer
    /// frames plus the first member's local ones; grouping keys are
    /// constant within a group) and with the tests that apply to it.
    /// `visit` returns `Ok(false)` to stop.
    pub(crate) fn each_group(
        &self,
        sc: &Scope<'a>,
        g: &GroupPlan<'a>,
        head: Option<(&HeadCtx<'a>, &Partial)>,
        env: &mut Env<'a>,
        mut visit: impl FnMut(&Group<'_, 'a>, &GroupTests<'a>, &mut Env<'a>) -> Result<bool>,
    ) -> Result<()> {
        let groups = self.fold_groups(sc, g, env)?;
        let base = env.len();
        env.with_layout(&sc.layout, |env| {
            for group in groups.groups() {
                let mut spare = None;
                let tests = g.tests_for(group.is_empty(), env.names(), head, &mut spare);
                env.frames.extend(group.repr.iter().cloned());
                let cont = visit(&group, tests, env);
                env.truncate(base);
                if !cont? {
                    break;
                }
            }
            Ok(())
        })
    }

    /// Enumerate a grouping scope and fold its members. Sequentially each
    /// surviving environment folds straight into its group; a partitioned
    /// scope gathers evaluated [`Member`]s per morsel and folds them here
    /// in morsel order — the order the sequential loop folds in, so even
    /// order-sensitive aggregates (float sums) come out bit-identical.
    fn fold_groups(
        &self,
        sc: &Scope<'a>,
        g: &GroupPlan<'a>,
        env: &mut Env<'a>,
    ) -> Result<Groups<'a>> {
        let (keys, aggs) = (&g.keys, &g.tests.aggs);
        let mut groups = Groups::new();
        let mut members: Vec<Member<'a>> = Vec::new();
        let parallel = self.try_parallel(
            sc,
            env,
            &|ctx, env, sink| {
                if ctx.all_hold(&sc.pre_bool, env)? {
                    sink.push(member_of(ctx, keys, aggs, env, sc.base)?);
                }
                Ok(true)
            },
            &mut members,
        )?;
        if parallel {
            for m in members {
                groups.fold_member(aggs, m);
            }
        } else {
            self.run_scope(sc, env, &mut |ctx, env| {
                if ctx.all_hold(&sc.pre_bool, env)? {
                    groups.fold_env(ctx, keys, aggs, env, sc.base)?;
                }
                Ok(true)
            })?;
        }
        if keys.is_empty() {
            groups.ensure_global(aggs);
        }
        Ok(groups)
    }
}
