//! Aggregation over grouping scopes (§2.5, §2.6): one-pass accumulators
//! and the per-group tests evaluated over them.
//!
//! A grouping scope never materializes its members. Each surviving
//! environment evaluates the grouping key and every aggregate call's
//! argument once and folds them into its group's [`Acc`]s; the group keeps
//! only the *first* member's rows (the representative environment the
//! non-aggregate scalars read — grouping keys are constant within a
//! group). Members fold in enumeration order, so order-sensitive results
//! (float sums) are exactly what a collect-then-fold would compute.

use super::env::{Env, Frame};
use super::scalar::arith;
use super::scope::GroupTests;
use super::slots::{CFormula, CPred, CScalar};
use super::Ctx;
use crate::error::{EvalError, Result};
use arc_core::ast::AggFunc;
use arc_core::conventions::EmptyAgg;
use arc_core::value::{Key, Truth, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// One aggregate call of a grouping scope, arguments resolved.
pub(crate) struct AggSpec<'a> {
    func: AggFunc,
    distinct: bool,
    /// The per-member argument; `None` is `*` (every member counts).
    arg: Option<CScalar<'a>>,
    /// The error the argument raises whenever it is evaluated (a name
    /// that did not resolve, a nested aggregate). Such a call folds
    /// nothing and reports the error when its value is asked for over a
    /// non-empty group — the moment a per-member evaluation would have
    /// hit it.
    pub(crate) err: Option<EvalError>,
}

impl<'a> AggSpec<'a> {
    pub(crate) fn new(func: AggFunc, distinct: bool, arg: Option<CScalar<'a>>) -> Self {
        let err = arg.as_ref().and_then(|a| a.first_raise()).cloned();
        AggSpec {
            func,
            distinct,
            arg,
            err,
        }
    }

    /// What the environment on top of `env` feeds this call: `None` for a
    /// call whose argument always raises (it folds nothing), 1 for `*`.
    fn input<'e>(&'e self, ctx: &Ctx<'_>, env: &'e Env<'_>) -> Result<Option<Cow<'e, Value>>> {
        match (&self.err, &self.arg) {
            (Some(_), _) => Ok(None),
            (None, None) => Ok(Some(Cow::Owned(Value::Int(1)))),
            (None, Some(arg)) => ctx.scalar(arg, env).map(Some),
        }
    }
}

/// Running state of one aggregate call over one group (SQL semantics:
/// `NULL` inputs are skipped; `count(*)` counts members).
pub(crate) struct Acc {
    /// Inputs folded (non-`NULL`, and first occurrences under `distinct`).
    n: usize,
    /// Σ inputs while every one has been an `Int` (wrapping).
    ints: i64,
    /// Σ inputs as `f64`, in fold order, while every one was numeric.
    floats: f64,
    all_int: bool,
    numeric: bool,
    /// Current minimum / maximum.
    extreme: Option<Value>,
    /// Keys already folded, for `distinct` calls.
    seen: Option<HashSet<Key>>,
}

impl Acc {
    fn new(spec: &AggSpec<'_>) -> Acc {
        Acc {
            n: 0,
            ints: 0,
            // The float fold starts from `Iterator::sum`'s own neutral
            // element, so an all-`-0.0` group sums as it always has.
            floats: std::iter::empty::<f64>().sum(),
            all_int: true,
            numeric: true,
            extreme: None,
            seen: spec.distinct.then(HashSet::new),
        }
    }

    fn fold(&mut self, func: AggFunc, v: &Value) {
        if v.is_null() {
            return;
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert(v.key()) {
                return;
            }
        }
        self.n += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                match v {
                    Value::Int(i) => self.ints = self.ints.wrapping_add(*i),
                    _ => self.all_int = false,
                }
                match v.as_f64() {
                    Some(f) => self.floats += f,
                    None => self.numeric = false,
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let replace = if func == AggFunc::Min {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Less
                };
                match &self.extreme {
                    None => self.extreme = Some(v.clone()),
                    Some(best) if best.compare(v) == Some(replace) => {
                        self.extreme = Some(v.clone())
                    }
                    Some(_) => {}
                }
            }
        }
    }

    /// The sum so far: integral when every input was, float otherwise,
    /// `NULL` once a non-numeric input was seen.
    fn sum(&self) -> Value {
        if self.all_int {
            Value::Int(self.ints)
        } else if self.numeric {
            Value::Float(self.floats)
        } else {
            Value::Null
        }
    }

    /// The call's value: the empty-group value is the [`EmptyAgg`]
    /// convention for `sum`/`avg`, always 0 for `count`, `NULL` for
    /// `min`/`max`.
    fn finish(&self, func: AggFunc, empty: EmptyAgg) -> Value {
        let empty_numeric = || match empty {
            EmptyAgg::Null => Value::Null,
            EmptyAgg::Zero => Value::Int(0),
        };
        match func {
            AggFunc::Count => Value::Int(self.n as i64),
            AggFunc::Sum if self.n == 0 => empty_numeric(),
            AggFunc::Sum => self.sum(),
            AggFunc::Avg if self.n == 0 => empty_numeric(),
            AggFunc::Avg => match self.sum().as_f64() {
                Some(s) => Value::Float(s / self.n as f64),
                None => Value::Null,
            },
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
        }
    }
}

/// One group: the representative member's rows plus one accumulator per
/// aggregate call — a view into its [`Groups`].
pub(crate) struct Group<'g, 'a> {
    /// The first member's scope-local frames (empty for `γ∅` over an
    /// empty join, which has a group but no member).
    pub(crate) repr: &'g [Frame<'a>],
    members: usize,
    accs: &'g [Acc],
}

/// The groups of one grouping-scope execution, in key order. Every
/// group's frames and accumulators sit in two buffers of the whole
/// execution — a new group is its key and its place in them.
pub(crate) struct Groups<'a> {
    /// Group number and members folded so far, by key.
    map: BTreeMap<Vec<Key>, (usize, usize)>,
    scratch: Vec<Key>,
    /// Representative frames, `width` per group (every member binds the
    /// scope's own variables, so the same number).
    reprs: Vec<Frame<'a>>,
    width: usize,
    /// Accumulators, one per aggregate call per group.
    accs: Vec<Acc>,
}

/// What one member contributes, already evaluated: the parallel path
/// gathers these per morsel and folds them on the coordinator in morsel
/// order.
pub(crate) struct Member<'a> {
    key: Vec<Key>,
    frames: Vec<Frame<'a>>,
    inputs: Vec<Value>,
}

impl<'a> Groups<'a> {
    pub(crate) fn new() -> Self {
        Groups {
            map: BTreeMap::new(),
            scratch: Vec::new(),
            reprs: Vec::new(),
            width: 0,
            accs: Vec::new(),
        }
    }

    /// Open the next group, its first member binding `repr`: what the
    /// map is to hold for it.
    fn open(
        &mut self,
        repr: impl ExactSizeIterator<Item = Frame<'a>>,
        aggs: &[AggSpec<'_>],
    ) -> (usize, usize) {
        self.width = repr.len();
        self.reprs.extend(repr);
        self.accs.extend(aggs.iter().map(Acc::new));
        (self.map.len(), 1)
    }

    /// Fold the environment on top of `env` (scope-local frames start at
    /// `base`) into its group.
    pub(crate) fn fold_env(
        &mut self,
        ctx: &Ctx<'_>,
        keys: &[CScalar<'_>],
        aggs: &[AggSpec<'_>],
        env: &Env<'a>,
        base: usize,
    ) -> Result<()> {
        self.scratch.clear();
        for k in keys {
            self.scratch.push(ctx.scalar(k, env)?.key());
        }
        let n = match self.map.get_mut(self.scratch.as_slice()) {
            Some((n, members)) => {
                *members += 1;
                *n
            }
            None => {
                let group = self.open(env.frames[base..].iter().cloned(), aggs);
                self.map.insert(self.scratch.clone(), group);
                group.0
            }
        };
        let accs = &mut self.accs[n * aggs.len()..(n + 1) * aggs.len()];
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            if let Some(v) = spec.input(ctx, env)? {
                acc.fold(spec.func, &v);
            }
        }
        Ok(())
    }

    /// Fold an already-evaluated member (see [`member_of`]).
    pub(crate) fn fold_member(&mut self, aggs: &[AggSpec<'_>], m: Member<'a>) {
        let n = match self.map.get_mut(&m.key) {
            Some((n, members)) => {
                *members += 1;
                *n
            }
            None => {
                let group = self.open(m.frames.into_iter(), aggs);
                self.map.insert(m.key, group);
                group.0
            }
        };
        let accs = &mut self.accs[n * aggs.len()..(n + 1) * aggs.len()];
        for ((acc, spec), v) in accs.iter_mut().zip(aggs).zip(&m.inputs) {
            acc.fold(spec.func, v);
        }
    }

    /// `γ∅` has exactly one group, even over an empty join (§2.5 — "there
    /// is just one group", like SQL's aggregate query without GROUP BY).
    pub(crate) fn ensure_global(&mut self, aggs: &[AggSpec<'_>]) {
        if self.map.is_empty() {
            // A group of no member.
            let (n, _) = self.open(std::iter::empty(), aggs);
            self.map.insert(Vec::new(), (n, 0));
        }
    }

    /// The groups, in key order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = Group<'_, 'a>> {
        let naggs = match self.map.len() {
            0 => 0,
            groups => self.accs.len() / groups,
        };
        self.map.values().map(move |&(n, members)| Group {
            repr: &self.reprs[n * self.width..(n + 1) * self.width],
            members,
            accs: &self.accs[n * naggs..(n + 1) * naggs],
        })
    }
}

/// Evaluate what the environment on top of `env` contributes to its group
/// (the parallel path's per-morsel half of [`Groups::fold_env`]).
pub(crate) fn member_of<'a>(
    ctx: &Ctx<'_>,
    keys: &[CScalar<'_>],
    aggs: &[AggSpec<'_>],
    env: &Env<'a>,
    base: usize,
) -> Result<Member<'a>> {
    let mut key = Vec::with_capacity(keys.len());
    for k in keys {
        key.push(ctx.scalar(k, env)?.key());
    }
    let mut inputs = Vec::with_capacity(aggs.len());
    for spec in aggs {
        // A `NULL` input folds nothing.
        inputs.push(spec.input(ctx, env)?.map_or(Value::Null, Cow::into_owned));
    }
    Ok(Member {
        key,
        frames: env.frames[base..].to_vec(),
        inputs,
    })
}

impl Group<'_, '_> {
    /// Whether the group has no member (`γ∅` over an empty join): its
    /// tests and assignments then see the outer frames only.
    pub(crate) fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Evaluate the per-group tests (aggregation comparisons + boolean
    /// subformulas containing scope-level aggregates). `env` holds the
    /// representative environment.
    pub(crate) fn verdict<'c>(
        &self,
        ctx: &Ctx<'c>,
        tests: &GroupTests<'c>,
        env: &mut Env<'c>,
    ) -> Result<bool> {
        let mut t = Truth::True;
        for p in &tests.agg_tests {
            t = t.and(self.pred(ctx, &tests.aggs, p, env)?);
            if t == Truth::False {
                return Ok(false);
            }
        }
        for f in &tests.post_bool {
            t = t.and(self.formula(ctx, &tests.aggs, f, env)?);
            if t == Truth::False {
                return Ok(false);
            }
        }
        Ok(t.is_true())
    }

    fn formula<'c>(
        &self,
        ctx: &Ctx<'c>,
        aggs: &[AggSpec<'_>],
        f: &CFormula<'c>,
        env: &mut Env<'c>,
    ) -> Result<Truth> {
        match f {
            CFormula::Pred(p) => self.pred(ctx, aggs, p, env),
            CFormula::And(fs) => {
                let mut t = Truth::True;
                for sub in fs {
                    t = t.and(self.formula(ctx, aggs, sub, env)?);
                }
                Ok(t)
            }
            CFormula::Or(fs) => {
                let mut t = Truth::False;
                for sub in fs {
                    t = t.or(self.formula(ctx, aggs, sub, env)?);
                }
                Ok(t)
            }
            CFormula::Not(inner) => Ok(self.formula(ctx, aggs, inner, env)?.not()),
            CFormula::Quant(q) => ctx.quant_truth(q, env),
        }
    }

    fn pred(
        &self,
        ctx: &Ctx<'_>,
        aggs: &[AggSpec<'_>],
        p: &CPred<'_>,
        env: &Env<'_>,
    ) -> Result<Truth> {
        match p {
            CPred::Cmp { left, op, right } => {
                let l = self.scalar(ctx, aggs, left, env)?;
                let r = self.scalar(ctx, aggs, right, env)?;
                Ok(ctx.compare(&l, *op, &r))
            }
            CPred::IsNull { expr, negated } => {
                let v = self.scalar(ctx, aggs, expr, env)?;
                Ok(Truth::from_bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate a scalar in group context: aggregate calls read their
    /// accumulators; everything else evaluates against the representative
    /// environment.
    pub(crate) fn scalar<'e>(
        &self,
        ctx: &Ctx<'_>,
        aggs: &[AggSpec<'_>],
        s: &'e CScalar<'_>,
        env: &'e Env<'_>,
    ) -> Result<Cow<'e, Value>> {
        match s {
            CScalar::Agg(n) => {
                let spec = &aggs[*n];
                match &spec.err {
                    Some(e) if self.members > 0 => Err(e.clone()),
                    _ => Ok(Cow::Owned(
                        self.accs[*n].finish(spec.func, ctx.conv.empty_agg),
                    )),
                }
            }
            CScalar::Arith { op, left, right } => {
                let l = self.scalar(ctx, aggs, left, env)?;
                let r = self.scalar(ctx, aggs, right, env)?;
                Ok(Cow::Owned(arith(*op, &l, &r)))
            }
            _ => ctx.scalar(s, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_all(func: AggFunc, distinct: bool, values: &[Value]) -> Value {
        let spec = AggSpec::new(func, distinct, None);
        let mut acc = Acc::new(&spec);
        for v in values {
            acc.fold(func, v);
        }
        acc.finish(func, EmptyAgg::Null)
    }

    #[test]
    fn sums_stay_integral_until_a_float_arrives() {
        let ints = [Value::Int(2), Value::Null, Value::Int(3)];
        assert!(matches!(
            fold_all(AggFunc::Sum, false, &ints),
            Value::Int(5)
        ));
        let mixed = [Value::Int(2), Value::Float(0.5)];
        assert!(matches!(fold_all(AggFunc::Sum, false, &mixed), Value::Float(f) if f == 2.5));
        let with_str = [Value::Int(2), Value::str("x")];
        assert!(fold_all(AggFunc::Sum, false, &with_str).is_null());
    }

    #[test]
    fn empty_inputs_follow_the_conventions() {
        assert!(fold_all(AggFunc::Sum, false, &[Value::Null]).is_null());
        assert!(matches!(
            fold_all(AggFunc::Count, false, &[Value::Null]),
            Value::Int(0)
        ));
        let spec = AggSpec::new(AggFunc::Avg, false, None);
        assert!(matches!(
            Acc::new(&spec).finish(AggFunc::Avg, EmptyAgg::Zero),
            Value::Int(0)
        ));
    }

    #[test]
    fn distinct_folds_first_occurrences_only() {
        let vs = [Value::Int(1), Value::Float(1.0), Value::Int(2)];
        assert!(matches!(fold_all(AggFunc::Count, true, &vs), Value::Int(2)));
        assert!(matches!(fold_all(AggFunc::Sum, true, &vs), Value::Int(3)));
    }

    #[test]
    fn extremes_keep_the_first_of_incomparable_inputs() {
        let vs = [Value::Int(4), Value::str("a"), Value::Int(1)];
        assert!(matches!(fold_all(AggFunc::Min, false, &vs), Value::Int(1)));
        assert!(matches!(fold_all(AggFunc::Max, false, &vs), Value::Int(4)));
    }
}
