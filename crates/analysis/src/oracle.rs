//! The oracle: what an ARC query *means*, computed the way the paper
//! defines it — a deliberately naive reference evaluator of ARC's core,
//! written to be read beside §2.3–§2.11 rather than to be fast. It follows
//! SNIPPETS.md Snippet 1's split (grammar → abstract syntax → interpreter
//! rules over it) and Kelly & van Emden's relational semantics for the
//! predicate calculus: one rule per construct, defined over relations.
//!
//! * A scope `∃ r ∈ R, s ∈ S [φ]` is **nested loops over its bindings** in
//!   declaration order (named relations, then laterals, §2.4, which are
//!   re-evaluated for every environment); a collection is the bag — or
//!   set, §2.7 — of head tuples its environments assign; a disjunction on
//!   the emission spine is the union of its branches, and a nested scope
//!   on the spine yields each tuple once per enclosing environment.
//! * Formulas are **three-valued** (§2.10); under two-valued logic an
//!   `Unknown` comparison is `false`; `∃` itself is two-valued.
//! * `γ` **groups first, then aggregates** (§2.5): `γ∅` has one group even
//!   over nothing, and an empty `sum`/`avg` is the convention's (§2.6).
//! * A `left`/`full` node of a join annotation (§2.11) absorbs as its ON
//!   condition every body predicate over its two sides that touches its
//!   right side or a literal leaf of it (Fig 12); unmatched rows are padded.
//! * Definitions are evaluated in dependency order, a recursive component
//!   by **naive fixpoint** iteration from the empty relation (§2.9).
//!
//! It reads a [`Catalog`]'s relations as plain data and calls no planner
//! and no engine function, so it cannot share a bug with them. External
//! and abstract relations (§2.13) are outside its core.

use arc_core::ast::{
    AggArg, AggCall, AggFunc, ArithOp, AttrRef, Binding, BindingSource, CmpOp, Collection, Formula,
    Grouping, Head, JoinTree, Predicate, Program, Scalar,
};
use arc_core::binder::Binder;
use arc_core::conventions::{Conventions, EmptyAgg, NullLogic, Semantics};
use arc_core::value::{cmp_truth, Key, Truth, Value};
use arc_engine::{Catalog, Relation, Rows};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Why the oracle has no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// An external or abstract relation: outside the oracle's core.
    Unsupported(String),
    /// The query has no meaning (an unknown name, a misplaced aggregate, a
    /// missing head assignment, recursion under bag semantics, …).
    Invalid(String),
}

type Res<T> = Result<T, OracleError>;

fn invalid<T>(msg: impl Into<String>) -> Res<T> {
    Err(OracleError::Invalid(msg.into()))
}

/// Fixpoint rounds before a recursive component is declared divergent.
const MAX_ROUNDS: usize = 10_000;

/// The relation a collection denotes over `catalog` under `conv`.
pub fn eval_collection(catalog: &Catalog, conv: Conventions, c: &Collection) -> Res<Relation> {
    let rows = Oracle::new(catalog, conv, &HashMap::new()).collection(c, &mut Vec::new())?;
    Ok(relation(&c.head, rows))
}

/// The truth of a boolean sentence (Fig 9).
pub fn eval_sentence(catalog: &Catalog, conv: Conventions, f: &Formula) -> Res<Truth> {
    Oracle::new(catalog, conv, &HashMap::new()).formula(f, &mut Vec::new(), None)
}

/// What a program denotes: every definition's relation, and the query's.
#[derive(Debug, Clone)]
pub struct ProgramRows {
    /// The defined relations, by name.
    pub defined: BTreeMap<String, Relation>,
    /// The query's relation, when the program has one.
    pub query: Option<Relation>,
}

/// Evaluate a program: a definition once everything it reads outside its
/// recursive component is known; a recursive component by re-evaluating
/// every member over the last round's relations and adding what is new,
/// until nothing is.
pub fn eval_program(catalog: &Catalog, conv: Conventions, p: &Program) -> Res<ProgramRows> {
    if let Some(name) = Binder::new().abstract_definitions(p).first() {
        return Err(OracleError::Unsupported(format!("abstract {name}")));
    }
    let defs = &p.definitions;
    let n = defs.len();
    // reads[i][j]: definition i reads definition j, directly or not.
    let mut reads = vec![vec![false; n]; n];
    for (i, d) in defs.iter().enumerate() {
        let mut names = Vec::new();
        sources(&d.collection.body, &mut names);
        for (j, e) in defs.iter().enumerate() {
            reads[i][j] = names.contains(&e.name());
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reads[i][j] |= reads[i][k] && reads[k][j];
            }
        }
    }
    let mut defined = HashMap::new();
    let mut done = vec![false; n];
    let ready = |i: usize, done: &[bool]| (0..n).all(|j| done[j] || !reads[i][j] || reads[j][i]);
    while let Some(i) = (0..n).find(|&i| !done[i] && ready(i, &done)) {
        let (recursive, name) = (reads[i][i], defs[i].name());
        if recursive && conv.semantics == Semantics::Bag {
            return invalid(format!("recursion through {name} under bag semantics"));
        }
        let component: Vec<usize> = (0..n)
            .filter(|&j| j == i || reads[i][j] && reads[j][i])
            .collect();
        for &j in &component {
            done[j] = true;
            let head = &defs[j].collection.head;
            defined.insert(head.relation.clone(), relation(head, Vec::new()));
        }
        for round in 0.. {
            if round == MAX_ROUNDS {
                return invalid(format!("no fixpoint for {name}"));
            }
            let oracle = Oracle::new(catalog, conv, &defined);
            let next = (component.iter())
                .map(|&j| oracle.collection(&defs[j].collection, &mut Vec::new()))
                .collect::<Res<Vec<_>>>()?;
            let mut grew = false;
            for (&j, rows) in component.iter().zip(next) {
                let rel = defined.get_mut(defs[j].name()).expect("seeded");
                let mut all = match recursive {
                    true => rel.rows.to_vecs(),
                    false => Vec::new(),
                };
                all.extend(rows);
                if recursive {
                    dedup(&mut all);
                    grew |= all.len() > rel.len();
                }
                rel.rows = Rows::from_vecs(rel.arity(), all);
            }
            if !grew {
                break;
            }
        }
    }
    let oracle = Oracle::new(catalog, conv, &defined);
    let query = (p.query.as_ref())
        .map(|q| Ok(relation(&q.head, oracle.collection(q, &mut Vec::new())?)))
        .transpose()?;
    Ok(ProgramRows {
        defined: defined.into_iter().collect(),
        query,
    })
}

fn relation(head: &Head, rows: Vec<Vec<Value>>) -> Relation {
    let rows = Rows::from_vecs(head.attrs.len(), rows);
    Relation::from_store(&head.relation, head.attrs.clone(), rows)
}

/// Keep the first occurrence of every row (`1` and `1.0` are one value,
/// `NULL`s are equal).
fn dedup(rows: &mut Vec<Vec<Value>>) {
    let mut seen = HashSet::new();
    rows.retain(|row| seen.insert(row.iter().map(Value::key).collect::<Vec<_>>()));
}

/// Every relation name a formula ranges over, nested collections included.
fn sources<'a>(f: &'a Formula, out: &mut Vec<&'a str>) {
    match f {
        Formula::Quant(q) => {
            for b in &q.bindings {
                match &b.source {
                    BindingSource::Named(n) => out.push(n),
                    BindingSource::Collection(c) => sources(&c.body, out),
                }
            }
            sources(&q.body, out);
        }
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| sources(f, out)),
        Formula::Not(g) => sources(g, out),
        Formula::Pred(_) => {}
    }
}

/// One bound range variable: its name, its attributes, its current row.
type Frame<'a> = (&'a str, &'a [String], Cow<'a, [Value]>);

/// The environment: the bound variables, outermost first.
type Env<'a> = Vec<Frame<'a>>;

/// The members of one group, each a full environment — when evaluating in
/// a group's context, where aggregates range over them.
type Group<'g, 'a> = Option<&'g [Env<'a>]>;

/// A visitor over environments; it returns `false` to stop the loops.
type Visit<'v, 'a> = dyn FnMut(&mut Env<'a>) -> Res<bool> + 'v;

/// What a binding ranges over: its attributes and its rows.
type Source<'a> = (&'a [String], Vec<Cow<'a, [Value]>>);

/// Materialized definitions, by name: they shadow the catalog.
type Defined = HashMap<String, Relation>;

/// A quantifier scope (a bare formula is a scope without bindings), its
/// body's conjuncts sorted by the role the paper gives them (§2.3, §2.5).
#[derive(Default)]
struct Scope<'a> {
    bindings: &'a [Binding],
    grouping: Option<&'a Grouping>,
    join: Option<&'a JoinTree>,
    /// Comparisons and subformulas checked per environment.
    tests: Vec<&'a Formula>,
    /// Head assignments `Head.A = e`, in body order.
    assigns: Vec<(&'a str, &'a Scalar)>,
    /// Aggregation predicates and subformulas, checked per group.
    group_tests: Vec<&'a Formula>,
    /// Subformulas that assign the head: the emission spine goes on there.
    spines: Vec<&'a Formula>,
}

/// The scope `f` opens; `head` is `None` in a boolean scope. Outside a
/// grouping scope an aggregate stays a per-environment test, where
/// evaluating it reports it as misplaced.
fn scope<'a>(f: &'a Formula, head: Option<&str>) -> Scope<'a> {
    let mut s = Scope::default();
    let body = match f {
        Formula::Quant(q) => {
            (s.bindings, s.grouping, s.join) = (&q.bindings, q.grouping.as_ref(), q.join.as_ref());
            &q.body
        }
        body => body,
    };
    let assigns = |p: &Predicate| head.is_some_and(|h| assignment(p, h).is_some());
    let grouped = s.grouping.is_some();
    body.each_conjunct(&mut |f| match f {
        Formula::Pred(p) if assigns(p) => s.assigns.extend(head.and_then(|h| assignment(p, h))),
        _ if any_pred(f, false, true, &assigns) => s.spines.push(f),
        _ if grouped && any_pred(f, true, false, &|p| p.has_aggregate()) => s.group_tests.push(f),
        _ => s.tests.push(f),
    });
    s
}

/// Does a predicate of `f` pass `test` — looking under `¬` and into nested
/// quantifier bodies only as told?
fn any_pred(f: &Formula, not: bool, quant: bool, test: &dyn Fn(&Predicate) -> bool) -> bool {
    match f {
        Formula::Pred(p) => test(p),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|f| any_pred(f, not, quant, test)),
        Formula::Not(g) => not && any_pred(g, not, quant, test),
        Formula::Quant(q) => quant && any_pred(&q.body, not, quant, test),
    }
}

/// `head.A = e`, either way round: an assignment predicate.
fn assignment<'a>(p: &'a Predicate, head: &str) -> Option<(&'a str, &'a Scalar)> {
    let attr_of = |s: &'a Scalar| match s {
        Scalar::Attr(a) if a.var == head => Some(a.attr.as_str()),
        _ => None,
    };
    match p {
        Predicate::Cmp { left, op, right } if *op == CmpOp::Eq => {
            match (attr_of(left), attr_of(right)) {
                (Some(attr), None) => Some((attr, right)),
                (None, Some(attr)) => Some((attr, left)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Does `s` contain one of `lits` as a constant?
fn mentions(s: &Scalar, lits: &[&Value]) -> bool {
    match s {
        Scalar::Const(v) => lits.contains(&v),
        Scalar::Attr(_) => false,
        Scalar::Agg(call) => matches!(&call.arg, AggArg::Expr(e) if mentions(e, lits)),
        Scalar::Arith { left, right, .. } => mentions(left, lits) || mentions(right, lits),
    }
}

/// Null-propagating arithmetic: integers stay integral (wrapping), a mixed
/// pair computes in floating point, `x / 0` and non-numbers are `NULL`.
fn arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div if *b == 0 => Value::Null,
            ArithOp::Div => Value::Int(a.wrapping_div(*b)),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(_), Some(b)) if op == ArithOp::Div && b == 0.0 => Value::Null,
        (Some(a), Some(b)) => Value::Float(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }),
        _ => Value::Null,
    }
}

/// A subtree of a join annotation, evaluated (§2.11): its rows (one frame
/// per variable, in leaf order), its variables and its literal leaves.
#[derive(Default)]
struct Side<'a> {
    rows: Vec<Env<'a>>,
    vars: Vec<(&'a str, &'a [String])>,
    lits: Vec<&'a Value>,
}

impl<'a> Side<'a> {
    fn has(&self, var: &str) -> bool {
        self.vars.iter().any(|(v, _)| *v == var)
    }

    fn nulls(&self) -> Env<'a> {
        (self.vars.iter())
            .map(|&(v, a)| (v, a, vec![Value::Null; a.len()].into()))
            .collect()
    }
}

struct Oracle<'a> {
    catalog: &'a Catalog,
    conv: Conventions,
    defined: &'a Defined,
}

impl<'a> Oracle<'a> {
    fn new(catalog: &'a Catalog, conv: Conventions, defined: &'a Defined) -> Self {
        Oracle {
            catalog,
            conv,
            defined,
        }
    }

    fn relation(&self, name: &str) -> Res<&'a Relation> {
        match (self.defined.get(name), self.catalog.relation(name)) {
            (Some(rel), _) | (None, Some(rel)) => Ok(rel),
            _ if self.catalog.external(name).is_some() => {
                Err(OracleError::Unsupported(format!("external {name}")))
            }
            _ => invalid(format!("unknown relation {name}")),
        }
    }

    // ---- collections and the emission spine (§2.3, §2.7, §2.8) ---------

    fn collection(&self, c: &'a Collection, env: &mut Env<'a>) -> Res<Vec<Vec<Value>>> {
        let (mut out, partial) = (Vec::new(), vec![None; c.head.attrs.len()]);
        self.emit(&c.body, &c.head, &partial, env, &mut out)?;
        if self.conv.semantics == Semantics::Set {
            dedup(&mut out);
        }
        Ok(out)
    }

    fn emit(
        &self,
        f: &'a Formula,
        head: &'a Head,
        partial: &[Option<Value>],
        env: &mut Env<'a>,
        out: &mut Vec<Vec<Value>>,
    ) -> Res<()> {
        if let Formula::Or(branches) = f {
            return (branches.iter()).try_for_each(|b| self.emit(b, head, partial, env, out));
        }
        let s = scope(f, Some(&head.relation));
        if s.spines.len() > usize::from(s.grouping.is_none()) {
            return invalid("a second emission spine, or one under grouping");
        }
        self.solutions(&s, env, |env, group| {
            let Some(row) = self.assign(head, partial, &s.assigns, env, group)? else {
                return Ok(true);
            };
            let Some(spine) = s.spines.first() else {
                let row = row.into_iter().collect::<Option<_>>();
                out.push(row.ok_or_else(|| OracleError::Invalid(format!("{head} is unassigned")))?);
                return Ok(true);
            };
            let mut sub = Vec::new();
            self.emit(spine, head, &row, env, &mut sub)?;
            dedup(&mut sub);
            out.extend(sub);
            Ok(true)
        })?;
        Ok(())
    }

    /// Head assignments in body order: the first fixes a column, a later
    /// one must agree with it (`NULL` agrees with `NULL`) or the
    /// environment emits nothing.
    fn assign(
        &self,
        head: &Head,
        partial: &[Option<Value>],
        assigns: &[(&str, &'a Scalar)],
        env: &Env<'a>,
        group: Group<'_, 'a>,
    ) -> Res<Option<Vec<Option<Value>>>> {
        let mut row = partial.to_vec();
        for &(attr, expr) in assigns {
            let v = self.scalar(expr, env, group)?;
            let Some(col) = head.attrs.iter().position(|a| a == attr) else {
                return invalid(format!("unknown attribute {}.{attr}", head.relation));
            };
            match &row[col] {
                Some(old) if old.key() != v.key() => return Ok(None),
                Some(_) => {}
                None => row[col] = Some(v),
            }
        }
        Ok(Some(row))
    }

    // ---- scopes: nested loops (§2.3), laterals (§2.4), groups (§2.5) ---

    /// Visit a scope's solutions: each environment that passes its tests —
    /// or, grouped, each group that passes its aggregation tests, under its
    /// first member's environment (the enclosing one for an empty `γ∅`
    /// group). Returns whether the visitor ran to the end.
    fn solutions(
        &self,
        s: &Scope<'a>,
        env: &mut Env<'a>,
        mut visit: impl FnMut(&mut Env<'a>, Group<'_, 'a>) -> Res<bool>,
    ) -> Res<bool> {
        let Some(g) = s.grouping else {
            return self.each_env(s, env, &mut |env| visit(env, None));
        };
        let mut groups: BTreeMap<Vec<Key>, Vec<Env<'a>>> = BTreeMap::new();
        self.each_env(s, env, &mut |env| {
            let key = g.keys.iter().map(|k| Ok(self.attr(k, env)?.key()));
            let key = key.collect::<Res<_>>()?;
            groups.entry(key).or_default().push(env.clone());
            Ok(true)
        })?;
        if g.keys.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }
        for members in groups.values() {
            let mut repr = members.first().unwrap_or(env).clone();
            let passes = self.holds(&s.group_tests, &mut repr, Some(members))?;
            if passes && !visit(&mut repr, Some(members))? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Every environment of a scope's bindings that passes its tests.
    fn each_env(&self, s: &Scope<'a>, env: &mut Env<'a>, visit: &mut Visit<'_, 'a>) -> Res<bool> {
        let Some(tree) = s.join.filter(|t| t.has_outer()) else {
            let named = |b: &&Binding| matches!(b.source, BindingSource::Named(_));
            let order: Vec<&'a Binding> = (s.bindings.iter().filter(named))
                .chain(s.bindings.iter().filter(|b| !named(b)))
                .collect();
            return self.bind(&order, &s.tests, env, visit);
        };
        let mut absorbed = vec![false; s.tests.len()];
        let joined = self.join(tree, s.bindings, &s.tests, &mut absorbed, env)?;
        // What no ON condition absorbed filters the joined rows.
        let rest: Vec<_> = (s.tests.iter().zip(absorbed))
            .filter_map(|(f, on)| (!on).then_some(*f))
            .collect();
        let base = env.len();
        for row in joined.rows {
            env.extend(row);
            let more = match self.holds(&rest, env, None) {
                Ok(true) => visit(env),
                other => other.map(|_| true),
            };
            env.truncate(base);
            if !more? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn bind(
        &self,
        order: &[&'a Binding],
        tests: &[&'a Formula],
        env: &mut Env<'a>,
        visit: &mut Visit<'_, 'a>,
    ) -> Res<bool> {
        let Some((b, rest)) = order.split_first() else {
            return Ok(!self.holds(tests, env, None)? || visit(env)?);
        };
        let (attrs, rows) = self.source(b, env)?;
        for row in rows {
            env.push((&b.var, attrs, row));
            let more = self.bind(rest, tests, env, visit);
            env.pop();
            if !more? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// What a binding ranges over here: a named relation's rows, or a
    /// lateral collection evaluated in this environment.
    fn source(&self, b: &'a Binding, env: &mut Env<'a>) -> Res<Source<'a>> {
        Ok(match &b.source {
            BindingSource::Named(name) => {
                let rel = self.relation(name)?;
                let rows = rel.rows.iter().map(Cow::Borrowed);
                (&rel.schema, rows.collect())
            }
            BindingSource::Collection(c) => {
                let rows = self.collection(c, env)?;
                (&c.head.attrs, rows.into_iter().map(Cow::Owned).collect())
            }
        })
    }

    /// An aggregate over a group: `NULL` inputs are skipped, `distinct`
    /// keeps first occurrences, `count(*)` counts members; an empty
    /// `sum`/`avg` is the convention's value, an empty `min`/`max` `NULL`.
    fn aggregate(&self, call: &'a AggCall, members: &[Env<'a>]) -> Res<Value> {
        let mut values = Vec::new();
        let mut seen = HashSet::new();
        for m in members {
            let v = match &call.arg {
                AggArg::Star => Value::Int(1),
                AggArg::Expr(e) => self.scalar(e, m, None)?,
            };
            if !v.is_null() && (!call.distinct || seen.insert(v.key())) {
                values.push(v);
            }
        }
        let n = values.len();
        let floats = || values.iter().map(Value::as_f64).sum::<Option<f64>>();
        let sum = match values.iter().map(Value::as_i64).collect::<Option<Vec<_>>>() {
            Some(ints) => Value::Int(ints.into_iter().fold(0, i64::wrapping_add)),
            None => floats().map_or(Value::Null, Value::Float),
        };
        let extreme = |keep| {
            let best =
                (values.iter()).reduce(|b, v| if v.compare(b) == Some(keep) { v } else { b });
            best.cloned().unwrap_or(Value::Null)
        };
        let empty = match self.conv.empty_agg {
            EmptyAgg::Null => Value::Null,
            EmptyAgg::Zero => Value::Int(0),
        };
        Ok(match call.func {
            AggFunc::Count => Value::Int(n as i64),
            AggFunc::Sum | AggFunc::Avg if n == 0 => empty,
            AggFunc::Sum => sum,
            AggFunc::Avg => (sum.as_f64()).map_or(Value::Null, |s| Value::Float(s / n as f64)),
            AggFunc::Min => extreme(Ordering::Less),
            AggFunc::Max => extreme(Ordering::Greater),
        })
    }

    // ---- outer-join annotations (§2.11) --------------------------------

    /// Evaluate a join-annotation subtree, absorbing into each outer node's
    /// ON condition the `tests` that belong to it.
    fn join(
        &self,
        tree: &'a JoinTree,
        bindings: &'a [Binding],
        tests: &[&'a Formula],
        absorbed: &mut [bool],
        env: &mut Env<'a>,
    ) -> Res<Side<'a>> {
        let mut side = Side {
            rows: vec![Vec::new()],
            ..Side::default()
        };
        let (l, r, full) = match tree {
            JoinTree::Var(v) => {
                let Some(b) = bindings.iter().find(|b| b.var == *v) else {
                    return invalid(format!("{v} is annotated but not bound"));
                };
                let (attrs, rows) = self.source(b, env)?;
                side.rows = (rows.into_iter())
                    .map(|row| vec![(&v[..], attrs, row)])
                    .collect();
                side.vars.push((v, attrs));
                return Ok(side);
            }
            // A literal leaf is a one-row relation of no variable.
            JoinTree::Lit(v) => {
                side.lits.push(v);
                return Ok(side);
            }
            JoinTree::Inner(children) => {
                for c in children {
                    let next = self.join(c, bindings, tests, absorbed, env)?;
                    side.rows = (side.rows.iter())
                        .flat_map(|a| next.rows.iter().map(move |b| [&a[..], b].concat()))
                        .collect();
                    side.vars.extend(next.vars);
                    side.lits.extend(next.lits);
                }
                return Ok(side);
            }
            JoinTree::Left(l, r) => (l, r, false),
            JoinTree::Full(l, r) => (l, r, true),
        };
        let left = self.join(l, bindings, tests, absorbed, env)?;
        let right = self.join(r, bindings, tests, absorbed, env)?;
        let mut on = Vec::new();
        for (f, taken) in tests.iter().zip(absorbed.iter_mut()) {
            let Formula::Pred(p) = f else { continue };
            let mut vars = Vec::new();
            p.each_attr_ref(&mut |a: &AttrRef| vars.push(a.var.as_str()));
            let bound = |v: &&str| left.has(v) || right.has(v) || env.iter().any(|f| f.0 == *v);
            let lit = match p {
                Predicate::Cmp { left, right: r, .. } => {
                    [left, r].iter().any(|s| mentions(s, &right.lits))
                }
                Predicate::IsNull { expr, .. } => mentions(expr, &right.lits),
            };
            if !*taken && vars.iter().all(bound) && (lit || vars.iter().any(|v| right.has(v))) {
                *taken = true;
                on.push(*f);
            }
        }
        side.rows.clear();
        let mut right_matched = vec![false; right.rows.len()];
        let base = env.len();
        for lrow in &left.rows {
            let mut matched = false;
            for (rrow, hit) in right.rows.iter().zip(right_matched.iter_mut()) {
                env.extend(lrow.iter().chain(rrow).cloned());
                let holds = self.holds(&on, env, None);
                env.truncate(base);
                if holds? {
                    (matched, *hit) = (true, true);
                    side.rows.push([&lrow[..], rrow].concat());
                }
            }
            if !matched {
                side.rows.push([lrow.clone(), right.nulls()].concat());
            }
        }
        let unmatched = (right.rows.iter().zip(right_matched)).filter(|(_, m)| full && !m);
        side.rows
            .extend(unmatched.map(|(rrow, _)| [left.nulls(), rrow.clone()].concat()));
        side.vars = [left.vars, right.vars].concat();
        side.lits = [left.lits, right.lits].concat();
        Ok(side)
    }

    // ---- formulas: three-valued logic (§2.10) --------------------------

    fn formula(&self, f: &'a Formula, env: &mut Env<'a>, group: Group<'_, 'a>) -> Res<Truth> {
        let mut fold = |fs: &'a [Formula], t, op: fn(Truth, Truth) -> Truth| {
            (fs.iter()).try_fold(t, |t, f| Ok(op(t, self.formula(f, env, group)?)))
        };
        Ok(match f {
            Formula::Pred(Predicate::Cmp { left, op, right }) => {
                let l = self.scalar(left, env, group)?;
                match cmp_truth(&l, *op, &self.scalar(right, env, group)?) {
                    Truth::Unknown if self.conv.null_logic == NullLogic::TwoValued => Truth::False,
                    t => t,
                }
            }
            Formula::Pred(Predicate::IsNull { expr, negated }) => {
                Truth::from_bool(self.scalar(expr, env, group)?.is_null() != *negated)
            }
            Formula::And(fs) => fold(fs, Truth::True, Truth::and)?,
            Formula::Or(fs) => fold(fs, Truth::False, Truth::or)?,
            Formula::Not(g) => self.formula(g, env, group)?.not(),
            // `∃` over a scope: does it have a solution?
            Formula::Quant(_) => {
                let s = scope(f, None);
                Truth::from_bool(!self.solutions(&s, env, |_, _| Ok(false))?)
            }
        })
    }

    fn holds(&self, fs: &[&'a Formula], env: &mut Env<'a>, group: Group<'_, 'a>) -> Res<bool> {
        (fs.iter()).try_fold(true, |ok, f| {
            Ok(ok && self.formula(f, env, group)?.is_true())
        })
    }

    /// A scalar in an environment; in a group's context its aggregates are
    /// computed over the group's members.
    fn scalar(&self, s: &'a Scalar, env: &Env<'a>, group: Group<'_, 'a>) -> Res<Value> {
        match s {
            Scalar::Attr(a) => self.attr(a, env),
            Scalar::Const(v) => Ok(v.clone()),
            Scalar::Agg(call) => match group {
                Some(members) => self.aggregate(call, members),
                None => invalid(format!("aggregate {call} outside a grouping scope")),
            },
            Scalar::Arith { op, left, right } => {
                let l = self.scalar(left, env, group)?;
                Ok(arith(*op, &l, &self.scalar(right, env, group)?))
            }
        }
    }

    /// `var.attr`, from the innermost binding of `var` (§2.1).
    fn attr(&self, a: &AttrRef, env: &Env<'a>) -> Res<Value> {
        let Some((_, attrs, row)) = env.iter().rev().find(|f| f.0 == a.var) else {
            return invalid(format!("unbound variable {}", a.var));
        };
        match attrs.iter().position(|x| *x == a.attr) {
            Some(i) => Ok(row[i].clone()),
            None => invalid(format!("unknown attribute {a}")),
        }
    }
}
