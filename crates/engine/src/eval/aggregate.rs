//! Aggregation over grouping scopes (§2.5, §2.6): one-pass accumulators
//! and the per-group tests evaluated over them.
//!
//! A grouping scope never materializes its members. Each member's key
//! finds its group in one hashed table of group ids ([`KeySlots`]) that
//! stores no key: the key's values are hashed where they are and
//! compared with the group's own key (`Value::key_ref` equality, so `1`
//! and `1.0` are one key and NULLs group together). A group keeps its
//! sort key, built once when it opens, the *first* member's rows (the
//! representative environment the non-aggregate scalars read — grouping
//! keys are constant within a group) and one [`Acc`] per aggregate call;
//! groups come out in key order.
//!
//! Members arrive two ways. When the scope's last step hands on a batch
//! of row ids and every key and argument is a slot or a constant
//! ([`folds_from_batch`]), [`Groups::fold_rows`] reads them from the rows
//! by id — no frame, no `scalar` call, no key built per member. Every
//! other member — another shape, a denied build's row loop — folds its
//! environment through [`Groups::fold_env`] into the same table.
//!
//! The batch fold has a typed arm for `Int` cells, taken cell by cell
//! inside the same loop. A one-column key whose cell is `Int(k)` hashes
//! `KeyRef::Int(k)` — exactly the `Value` path's hash of that key — and
//! matches a group whose key is `Key::Int(k)`; an argument cell `Int(v)`
//! folds through [`Acc::fold_int`] (`count` adds one, `sum`/`avg` add to
//! the wrapping integer and the float sums, `min`/`max` go through the
//! shared [`Acc::extreme`]).
//! Every other cell — NULL, `Float` (`1.0` is the key `1`, so it finds
//! and opens the same groups as `Int` `1`), `Str`, `Bool`, a key of two
//! columns — takes the `Value` path, one member at a time, into the same
//! table and accumulators, so both arms mix freely within a piece. A
//! grouping scope never runs partitioned: members fold sequentially, in
//! enumeration order, at any thread count, so order-sensitive results
//! (float sums) are exactly what a collect-then-fold would compute.
//!
//! `Int` arithmetic wraps wherever it is computed: scalar arithmetic
//! (`eval/scalar.rs`), the column kernels, `sum`/`avg` on both fold paths
//! here, and the oracle. `sum` over `{i64::MAX, 1}` is `i64::MIN`.

use super::builds::{hasher, WordState};
use super::env::{Env, Frame};
use super::quantifier::KeySlots;
use super::scalar::arith;
use super::scope::{GroupPlan, GroupTests};
use super::slots::{CFormula, CPred, CScalar};
use super::Ctx;
use crate::error::{EvalError, Result};
use crate::relation::Relation;
use arc_core::ast::AggFunc;
use arc_core::conventions::EmptyAgg;
use arc_core::value::{Key, KeyRef, Truth, Value};
use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};

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
            (None, None) => Ok(Some(Cow::Borrowed(&ONE))),
            (None, Some(arg)) => ctx.scalar(arg, env).map(Some),
        }
    }
}

/// Whether every grouping key and aggregate argument reads a stored value
/// — a slot or a constant — so members can fold from the last step's
/// row ids ([`Groups::fold_rows`]).
pub(crate) fn folds_from_batch(keys: &[CScalar<'_>], aggs: &[AggSpec<'_>]) -> bool {
    let stored = |s: &CScalar<'_>| matches!(s, CScalar::Slot { .. } | CScalar::Const(_));
    keys.iter().all(stored) && aggs.iter().all(|a| a.arg.as_ref().is_none_or(stored))
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
    seen: Option<HashSet<Key, WordState>>,
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
            seen: spec
                .distinct
                .then(|| HashSet::with_hasher(hasher().clone())),
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
            AggFunc::Min | AggFunc::Max => self.extreme(func, v),
        }
    }

    /// [`Acc::fold`] of `Value::Int(v)`, with no `Value` in hand: the
    /// same state afterwards, bit for bit.
    #[inline]
    fn fold_int(&mut self, func: AggFunc, v: i64) {
        if let Some(seen) = &mut self.seen {
            if !seen.insert(Key::Int(v)) {
                return;
            }
        }
        self.n += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.ints = self.ints.wrapping_add(v);
                self.floats += v as f64;
            }
            AggFunc::Min | AggFunc::Max => self.extreme(func, &Value::Int(v)),
        }
    }

    /// Fold `v` into the current minimum (`func` is `Min`) or maximum:
    /// it replaces the extreme only when strictly beyond it, so the first
    /// of equal or incomparable inputs stays.
    fn extreme(&mut self, func: AggFunc, v: &Value) {
        let replace = if func == AggFunc::Min {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Less
        };
        match &self.extreme {
            None => self.extreme = Some(v.clone()),
            Some(best) if best.compare(v) == Some(replace) => self.extreme = Some(v.clone()),
            Some(_) => {}
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
    empty: bool,
    accs: &'g [Acc],
}

/// The groups of one grouping-scope execution. Every group's key,
/// frames and accumulators sit in flat buffers of the whole execution —
/// a new group is its place in them — and a group is found through one
/// hashed table of group ids that stores no key: the key in hand is
/// hashed where it is and compared against the group's own key.
pub(crate) struct Groups<'a> {
    /// Group id by key hash ([`KeySlots`]).
    slots: KeySlots,
    /// Each group's key, `nkeys` per group: built once, when the group
    /// opens, and what the groups sort by on the way out.
    keys: Vec<Key>,
    nkeys: usize,
    /// Groups opened so far.
    len: usize,
    /// The one group is `γ∅`'s over an empty join, which has no member.
    memberless: bool,
    /// The row path's evaluated key, reused from member to member.
    scratch: Vec<Key>,
    /// Representative frames, `width` per group (every member binds the
    /// scope's own variables, so the same number).
    reprs: Vec<Frame<'a>>,
    width: usize,
    /// Accumulators, `naggs` per group.
    accs: Vec<Acc>,
    naggs: usize,
}

/// What `count(*)` folds per member.
static ONE: Value = Value::Int(1);

impl<'a> Groups<'a> {
    pub(crate) fn new(nkeys: usize, naggs: usize) -> Self {
        Groups {
            slots: KeySlots::default(),
            keys: Vec::new(),
            nkeys,
            len: 0,
            memberless: false,
            scratch: Vec::new(),
            reprs: Vec::new(),
            width: 0,
            accs: Vec::new(),
            naggs,
        }
    }

    /// The group of the key whose `j`-th component is `key(j)`: found by
    /// the key's hash, or opened with the frames `repr`
    /// appends when the key is new.
    fn group_of<'k>(
        &mut self,
        key: impl Fn(usize) -> KeyRef<'k>,
        repr: impl FnOnce(&mut Vec<Frame<'a>>),
        aggs: &[AggSpec<'_>],
    ) -> usize {
        let nk = self.nkeys;
        let mut h = hasher().build_hasher();
        (0..nk).for_each(|j| key(j).hash(&mut h));
        let hash = h.finish();
        let keys = &self.keys;
        let found = self.slots.find(hash, |g| {
            let at = g as usize * nk;
            (0..nk).all(|j| keys[at + j].key_ref() == key(j))
        });
        match found {
            Some(g) => g as usize,
            None => self.open(hash, (0..nk).map(|j| key(j).to_key()), repr, aggs),
        }
    }

    /// [`Groups::group_of`] of a one-column key `Int(k)`: the same hash
    /// (`KeyRef::Int(k)` hashed alone), so the same group, whichever path
    /// opened it — a `Float` `1.0` opens `Key::Int(1)` too.
    #[inline]
    fn group_of_int(
        &mut self,
        k: i64,
        repr: impl FnOnce(&mut Vec<Frame<'a>>),
        aggs: &[AggSpec<'_>],
    ) -> usize {
        let hash = hasher().hash_one(KeyRef::Int(k));
        let keys = &self.keys;
        match self
            .slots
            .find(hash, |g| matches!(keys[g as usize], Key::Int(x) if x == k))
        {
            Some(g) => g as usize,
            None => self.open(hash, std::iter::once(Key::Int(k)), repr, aggs),
        }
    }

    /// Open the group of `key` (at `hash`), with the frames `repr`
    /// appends as its representative.
    fn open(
        &mut self,
        hash: u64,
        key: impl Iterator<Item = Key>,
        repr: impl FnOnce(&mut Vec<Frame<'a>>),
        aggs: &[AggSpec<'_>],
    ) -> usize {
        let g = self.len;
        self.len += 1;
        self.slots.insert(hash, g as u32, |_| false);
        self.keys.extend(key);
        let before = self.reprs.len();
        repr(&mut self.reprs);
        self.width = self.reprs.len() - before;
        self.accs.extend(aggs.iter().map(Acc::new));
        g
    }

    /// Group `g`'s accumulators.
    fn accs_of(&mut self, g: usize) -> &mut [Acc] {
        &mut self.accs[g * self.naggs..(g + 1) * self.naggs]
    }

    /// Fold the environment on top of `env` (scope-local frames start at
    /// `base`) into its group: the row path, for members the batch fold
    /// does not reach.
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
            let key = ctx.scalar(k, env)?.key();
            self.scratch.push(key);
        }
        let scratch = std::mem::take(&mut self.scratch);
        let g = self.group_of(
            |j| scratch[j].key_ref(),
            |reprs| reprs.extend_from_slice(&env.frames[base..]),
            aggs,
        );
        self.scratch = scratch;
        for (acc, spec) in self.accs_of(g).iter_mut().zip(aggs) {
            if let Some(v) = spec.input(ctx, env)? {
                acc.fold(spec.func, &v);
            }
        }
        Ok(())
    }

    /// Fold rows `rows` of `rel` — the last step's candidates, to be
    /// bound on top of `env` — into their groups, reading every key and
    /// argument (slots and constants only, see [`folds_from_batch`]) where
    /// it is stored: no frame pushed, no `scalar` call, no key built per
    /// member. An `Int` cell takes the typed arm — a one-column key
    /// through [`Groups::group_of_int`], an argument through
    /// [`Acc::fold_int`] — and every other cell the `Value` path, into
    /// the same groups and accumulators.
    pub(crate) fn fold_rows(
        &mut self,
        plan: &GroupPlan<'_>,
        env: &Env<'a>,
        base: usize,
        rel: &'a Relation,
        rows: impl Iterator<Item = usize>,
    ) {
        let (keys, aggs, last) = (&plan.keys, &plan.tests.aggs, env.len());
        let single = match &keys[..] {
            [k] => Some(k),
            _ => None,
        };
        for r in rows {
            let row = &rel.rows[r][..];
            let repr = |reprs: &mut Vec<Frame<'a>>| {
                reprs.extend_from_slice(&env.frames[base..]);
                reprs.push(Frame::Borrowed(row));
            };
            let g = match single.map(|k| operand(k, last, row, env)) {
                Some(&Value::Int(k)) => self.group_of_int(k, repr, aggs),
                _ => self.group_of(|j| operand(&keys[j], last, row, env).key_ref(), repr, aggs),
            };
            for (acc, spec) in self.accs_of(g).iter_mut().zip(aggs) {
                match spec.arg.as_ref().map(|a| operand(a, last, row, env)) {
                    None => acc.fold_int(spec.func, 1),
                    Some(&Value::Int(v)) => acc.fold_int(spec.func, v),
                    Some(v) => acc.fold(spec.func, v),
                }
            }
        }
    }

    /// `γ∅` has exactly one group, even over an empty join (§2.5 — "there
    /// is just one group", like SQL's aggregate query without GROUP BY).
    pub(crate) fn ensure_global(&mut self, aggs: &[AggSpec<'_>]) {
        if self.len == 0 {
            self.len = 1;
            self.memberless = true;
            self.accs.extend(aggs.iter().map(Acc::new));
        }
    }

    /// The groups, in key order (each group's key was built once, when
    /// it opened; one group needs no sort).
    pub(crate) fn groups(&self) -> impl Iterator<Item = Group<'_, 'a>> {
        let nk = self.nkeys;
        let key = |g: usize| &self.keys[g * nk..(g + 1) * nk];
        let mut order = Vec::new();
        if self.len > 1 {
            order.extend(0..self.len);
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        }
        (0..self.len).map(move |at| {
            let g = order.get(at).copied().unwrap_or(at);
            Group {
                repr: match self.memberless {
                    true => &[],
                    false => &self.reprs[g * self.width..(g + 1) * self.width],
                },
                empty: self.memberless,
                accs: &self.accs[g * self.naggs..(g + 1) * self.naggs],
            }
        })
    }
}

/// A batch-folded key or argument, or a batch-probed key component: a
/// column of the candidate `row` (bound at stack position `last`), a slot
/// of an outer frame, or a constant.
#[inline]
pub(crate) fn operand<'v>(
    s: &'v CScalar<'_>,
    last: usize,
    row: &'v [Value],
    env: &'v Env<'_>,
) -> &'v Value {
    match s {
        CScalar::Slot { frame, col } if *frame as usize == last => &row[*col as usize],
        CScalar::Slot { frame, col } => &env.frames[*frame as usize].row()[*col as usize],
        CScalar::Const(v) => v,
        _ => unreachable!("a batch-folded operand is a slot or a constant"),
    }
}

impl Group<'_, '_> {
    /// Whether the group has no member (`γ∅` over an empty join): its
    /// tests and assignments then see the outer frames only.
    pub(crate) fn is_empty(&self) -> bool {
        self.empty
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
                    Some(e) if !self.empty => Err(e.clone()),
                    _ => Ok(Cow::Owned(
                        self.accs[*n].finish(spec.func, ctx.shared.conv.empty_agg),
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

    /// One value for another: same variant, same bits.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
        }
    }

    /// A seeded stream of words (splitmix64).
    fn words(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn the_typed_int_fold_equals_the_value_fold() {
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        // What a run of `Int`s turns into part-way: `all_int`, then
        // `numeric` flips, and an extreme stops being an `Int`.
        let others = [
            Value::Float(0.5),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
            Value::str("s"),
        ];
        for seed in 0..64 {
            let mut word = words(seed);
            // Wrapping sums, and repeats for `distinct` to drop.
            let ints: Vec<Value> = (0..48)
                .map(|_| match word() % 6 {
                    0 => Value::Int(i64::MIN),
                    1 => Value::Int(i64::MAX),
                    2 => Value::Int((word() % 7) as i64 - 3),
                    _ => Value::Int(word() as i64),
                })
                .collect();
            let mut seqs = vec![ints.clone()];
            for other in &others {
                let at = (word() % 48) as usize;
                let mut seq = ints.clone();
                seq.insert(at, other.clone());
                seq.insert(at / 2, other.clone());
                seqs.push(seq);
            }
            for seq in &seqs {
                for func in funcs {
                    for distinct in [false, true] {
                        let spec = AggSpec::new(func, distinct, None);
                        let (mut by_value, mut typed) = (Acc::new(&spec), Acc::new(&spec));
                        for v in seq {
                            by_value.fold(func, v);
                            match v {
                                Value::Int(i) => typed.fold_int(func, *i),
                                v => typed.fold(func, v),
                            }
                        }
                        for empty in [EmptyAgg::Null, EmptyAgg::Zero] {
                            let want = by_value.finish(func, empty);
                            let got = typed.finish(func, empty);
                            assert!(
                                same(&want, &got),
                                "{func:?} distinct {distinct}, seed {seed}: {want:?} vs {got:?}\n{seq:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
