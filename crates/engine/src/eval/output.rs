//! Output assembly: building head tuples from assignment predicates and
//! emitting them through the (possibly disjunctive, possibly nested)
//! emission spine.
//!
//! A scope that emits rows runs partitioned when its plan has a partition
//! axis and the engine more than one thread (see `super::parallel`); a
//! grouping scope folds sequentially at any thread count.

use super::aggregate::{AggSpec, Group, Groups};
use super::env::Env;
use super::parallel::MorselFn;
use super::quantifier::{Folding, Gathered, Sink};
use super::scope::{Body, GroupPlan, GroupTests, QuantRef, Scope};
use super::slots::CScalar;
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::relation::{dedupe_rows, Relation, Rows};
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

    /// The value of column `col`, which `src` fills: `None` when nothing
    /// assigns it.
    fn column<'e>(
        &'e self,
        col: usize,
        src: &ColSrc,
        partial: &'e Partial,
        eval: &mut impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
    ) -> Result<Option<Value>> {
        Ok(match src {
            ColSrc::Partial => partial[col].clone(),
            ColSrc::Expr(n) => Some(eval(&self.exprs[*n])?.into_owned()),
            ColSrc::Missing => None,
        })
    }

    /// Run the pre-steps, then append the complete head tuple for the
    /// current environment to `out` — unless conflicting assignments drop
    /// the row.
    pub(crate) fn row_into<'e>(
        &'e self,
        partial: &'e Partial,
        mut eval: impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
        out: &mut Rows,
    ) -> Result<()> {
        if !self.admit(partial, &mut eval)? {
            return Ok(());
        }
        out.try_push_iter(self.cols.iter().enumerate().map(|(col, src)| {
            self.column(col, src, partial, &mut eval)?
                .ok_or_else(|| EvalError::MissingAssignment {
                    collection: self.name.to_string(),
                    attr: self.attrs[col].clone(),
                })
        }))
    }

    /// Whether a row assembles by copying values alone: every column a
    /// slot, a constant or spine-assigned, and no pre-step — so
    /// assembling it cannot raise, and [`HeadPlan::gather`] applies.
    pub(crate) fn gathers(&self) -> bool {
        self.pre.is_empty()
            && self.cols.iter().all(|src| match src {
                ColSrc::Partial => true,
                ColSrc::Expr(n) => {
                    matches!(self.exprs[*n], CScalar::Slot { .. } | CScalar::Const(_))
                }
                ColSrc::Missing => false,
            })
    }

    /// Append the head tuple of a plan that
    /// [`gathers`](HeadPlan::gathers) to `out`, reading the row bound at
    /// stack position `f` as `row(f)`: what [`HeadPlan::row_into`]
    /// appends, without evaluating an expression.
    pub(crate) fn gather<'r>(
        &self,
        partial: &Partial,
        row: impl Fn(usize) -> &'r [Value],
        out: &mut Rows,
    ) {
        out.push_iter(self.cols.iter().enumerate().map(|(col, src)| {
            match src {
                ColSrc::Expr(n) => match &self.exprs[*n] {
                    CScalar::Slot { frame, col } => row(*frame as usize)[*col as usize].clone(),
                    CScalar::Const(v) => (*v).clone(),
                    _ => unreachable!("a gathered head reads slots and constants"),
                },
                _ => partial[col]
                    .clone()
                    .expect("assigned by the enclosing spine"),
            }
        }));
    }

    /// Like [`HeadPlan::row_into`], for a scope with a nested emission
    /// spine: the extended partial tuple the spine continues from.
    fn partial<'e>(
        &'e self,
        partial: &'e Partial,
        mut eval: impl FnMut(&'e CScalar<'a>) -> Result<Cow<'e, Value>>,
    ) -> Result<Option<Partial>> {
        if !self.admit(partial, &mut eval)? {
            return Ok(None);
        }
        let cols = self.cols.iter().enumerate();
        cols.map(|(col, src)| self.column(col, src, partial, &mut eval))
            .collect::<Result<Partial>>()
            .map(Some)
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
        let rows = self.collection_rows(c, env)?;
        Ok(Relation::from_store(
            &c.head.relation,
            c.head.attrs.clone(),
            rows,
        ))
    }

    /// The rows of [`Ctx::collection_relation`], for callers that bind
    /// them and have no use for a named relation around them (a lateral
    /// step evaluates its collection once per outer environment).
    pub(crate) fn collection_rows(&self, c: &'a Collection, env: &mut Env<'a>) -> Result<Rows> {
        let rows = self.rule_rows(c, &c.body, env)?;
        Ok(match self.shared.conv.semantics {
            Semantics::Set => dedupe_rows(rows),
            Semantics::Bag => rows,
        })
    }

    /// The rows `rule` — `c`'s body or one of its disjuncts — emits under
    /// `c`'s head, in emission order, with no set-semantics pass.
    pub(crate) fn rule_rows(
        &self,
        c: &'a Collection,
        rule: &'a Formula,
        env: &mut Env<'a>,
    ) -> Result<Rows> {
        let head = HeadCtx {
            name: &c.head.relation,
            attrs: &c.head.attrs,
        };
        let partial: Partial = vec![None; c.head.attrs.len()];
        let mut rows = Rows::new(c.head.attrs.len());
        self.emit_branch(rule, &head, &partial, env, &mut rows)?;
        Ok(rows)
    }

    pub(crate) fn emit_branch(
        &self,
        f: &'a Formula,
        head: &HeadCtx<'a>,
        partial: &Partial,
        env: &mut Env<'a>,
        out: &mut Rows,
    ) -> Result<()> {
        let q = match f {
            Formula::Or(branches) => {
                for b in branches {
                    self.emit_branch(b, head, partial, env, out)?;
                }
                return Ok(());
            }
            Formula::Quant(q) => QuantRef::from(&**q),
            other => QuantRef::bare(other),
        };
        let sc = self.emit_scope(q, head, partial, env)?;
        match &sc.body {
            Body::Rows {
                head: plan,
                spine: _,
                gathers: true,
            } => self.emit_gathered(&sc, plan, partial, env, out),
            Body::Rows {
                head: plan, spine, ..
            } => self.emit_existential(&sc, plan, *spine, head, partial, env, out),
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
        out: &mut Rows,
    ) -> Result<()> {
        // Through `enumerate_collect`: scopes with a partition axis run
        // their outer scan in parallel morsels (the ordered merge keeps
        // the emitted tuples in sequential enumeration order); everything
        // else streams straight into `out`.
        self.enumerate_collect(
            sc,
            env,
            &|ctx, env, sink| {
                if !ctx.all_hold(&sc.pre_bool, env)? {
                    return Ok(true);
                }
                match spine {
                    None => plan.row_into(partial, |e| ctx.scalar(e, env), sink)?,
                    Some(spine) => {
                        let Some(p2) = plan.partial(partial, |e| ctx.scalar(e, env))? else {
                            return Ok(true);
                        };
                        // Nested existential: emissions collapse per
                        // environment (semijoin multiplicity, §2.7).
                        let mut sub = Rows::new(head.attrs.len());
                        ctx.emit_branch(spine, head, &p2, env, &mut sub)?;
                        sink.append(dedupe_rows(sub));
                    }
                }
                Ok(true)
            },
            out,
        )
    }

    /// A scope whose head is gathered straight from its last step's row
    /// ids ([`Sink::Gather`]) — sequentially, or per morsel of its
    /// partition axis, concatenated in morsel order.
    fn emit_gathered(
        &self,
        sc: &Scope<'a>,
        plan: &HeadPlan<'a>,
        partial: &Partial,
        env: &mut Env<'a>,
        out: &mut Rows,
    ) -> Result<()> {
        let morsel: &MorselFn<'_, 'a> = &|ctx, range, env, tally, out| {
            let head = Gathered {
                head: plan,
                partial,
                out,
            };
            ctx.scan_partition(sc, range, env, tally, &mut Sink::Gather(head))
        };
        if self.try_parallel(sc, env, morsel, out)? {
            return Ok(());
        }
        let head = Gathered {
            head: plan,
            partial,
            out,
        };
        self.run_scope(sc, env, &mut Sink::Gather(head))
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
        out: &mut Rows,
    ) -> Result<()> {
        self.each_group(sc, g, Some((head, partial)), env, |group, tests, env| {
            if group.verdict(self, tests, env)? {
                let plan = tests.head.as_ref().expect("emitting scope");
                plan.row_into(partial, |e| group.scalar(self, &tests.aggs, e, env), out)?;
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

    /// Enumerate a grouping scope and fold its members, sequentially at
    /// any thread count ([`Sink::Fold`]: from the last step's row ids when
    /// the plan allows, else each member's environment). Members fold in
    /// enumeration order, so even order-sensitive aggregates (float sums)
    /// come out the same on every run.
    fn fold_groups(
        &self,
        sc: &Scope<'a>,
        g: &GroupPlan<'a>,
        env: &mut Env<'a>,
    ) -> Result<Groups<'a>> {
        let aggs = &g.tests.aggs;
        let mut groups = Groups::new(g.keys.len(), aggs.len());
        let folding = Folding {
            plan: g,
            pre_bool: &sc.pre_bool,
            base: sc.base,
            groups: &mut groups,
        };
        self.run_scope(sc, env, &mut Sink::Fold(folding))?;
        if g.keys.is_empty() {
            groups.ensure_global(aggs);
        }
        Ok(groups)
    }
}
