//! SQL → ARC lowering.
//!
//! Translates the SQL subset into ARC collections, applying the paper's own
//! normalizations along the way:
//!
//! * scalar subqueries in SELECT items become **lateral nested
//!   collections** (§2.12, Fig 13: only the lateral form preserves
//!   per-outer-tuple semantics under bag semantics);
//! * scalar subqueries in comparisons become grouped nested quantifier
//!   scopes (the count-bug version-1 shape, Eq (27));
//! * `NOT IN` becomes the null-guarded `NOT EXISTS` of Fig 11 / Eq (17),
//!   reproducing SQL's three-valued behaviour in the calculus;
//! * `DISTINCT` and `UNION` (without `ALL`) become deduplicating wrappers —
//!   grouping on all projected attributes (§2.7);
//! * `LEFT/FULL JOIN` becomes a join annotation over the binding list
//!   (§2.11) with the ON condition merged into the body.

use crate::ast::*;
use arc_core::ast as arc;
use arc_core::ast::{AttrRef, Binding, CmpOp, Formula, Grouping, Head, JoinTree, Predicate};
use arc_core::binder::SchemaMap;
use arc_core::value::Value;
use std::borrow::Cow;
use std::fmt;

/// Lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// FROM references a table the schema map does not know.
    UnknownTable(String),
    /// A column reference did not resolve.
    UnknownColumn(String),
    /// An unqualified column resolves to more than one range variable.
    AmbiguousColumn(String),
    /// The construct falls outside the supported subset.
    Unsupported(String),
    /// A lowering invariant was violated (a bug in the lowerer). Surfaced
    /// as an error instead of a panic so malformed SQL can never abort
    /// the host process.
    Internal(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            LowerError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            LowerError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            LowerError::Unsupported(msg) => write!(f, "unsupported SQL: {msg}"),
            LowerError::Internal(msg) => write!(f, "internal SQL lowering error: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower a SQL query to an ARC collection named `Q`.
pub fn lower_query<'s>(
    q: &'s SqlQuery,
    schemas: &'s SchemaMap,
) -> Result<arc::Collection, LowerError> {
    let mut lw = Lowerer {
        schemas,
        scopes: Vec::new(),
        counter: 0,
    };
    lw.query(q, "Q", None)
}

/// The range variables one `SELECT` has in reach, each with the
/// attributes it carries. Names are borrowed from the query text and the
/// schema map; only what lowering itself invents (fresh variables, a
/// subquery's output attributes) is owned.
struct Scope<'s> {
    vars: Vec<(Cow<'s, str>, Cow<'s, [String]>)>,
}

struct Lowerer<'s> {
    schemas: &'s SchemaMap,
    scopes: Vec<Scope<'s>>,
    counter: usize,
}

/// The `SELECT 1` item of a subquery without select items.
static ONE: SqlExpr = SqlExpr::Literal(Value::Int(1));

impl<'s> Lowerer<'s> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    /// Lower a query; `expected_attrs` aligns UNION branch heads.
    fn query(
        &mut self,
        q: &'s SqlQuery,
        head_name: &str,
        expected_attrs: Option<&[String]>,
    ) -> Result<arc::Collection, LowerError> {
        match q {
            SqlQuery::Select(s) => self.select(s, head_name, expected_attrs),
            SqlQuery::Union { left, right, all } => {
                let left_c = self.query(left, head_name, expected_attrs)?;
                let attrs = left_c.head.attrs.clone();
                let right_c = self.query(right, head_name, Some(&attrs))?;
                let combined = arc::Collection {
                    head: left_c.head.clone(),
                    body: Formula::Or(vec![left_c.body, right_c.body]),
                };
                if *all {
                    Ok(combined)
                } else {
                    Ok(self.dedup_wrap(combined))
                }
            }
        }
    }

    /// Wrap a collection in a deduplicating outer collection: grouping on
    /// all projected attributes (§2.7).
    fn dedup_wrap(&mut self, inner: arc::Collection) -> arc::Collection {
        let head = inner.head.clone();
        let var = self.fresh("d");
        let inner_name = self.fresh("D");
        let renamed = arc::Collection {
            head: Head {
                relation: inner_name.clone(),
                attrs: head.attrs.clone(),
            },
            body: rename_head(inner.body, &head.relation, Some(&inner_name)),
        };
        let keys: Vec<AttrRef> = head
            .attrs
            .iter()
            .map(|a| AttrRef::new(var.clone(), a.clone()))
            .collect();
        let assigns: Vec<Formula> = head
            .attrs
            .iter()
            .map(|a| {
                Formula::Pred(Predicate::Cmp {
                    left: arc::Scalar::Attr(AttrRef::new(head.relation.clone(), a.clone())),
                    op: CmpOp::Eq,
                    right: arc::Scalar::Attr(AttrRef::new(var.clone(), a.clone())),
                })
            })
            .collect();
        arc::Collection {
            head,
            body: Formula::Quant(Box::new(arc::Quant {
                bindings: vec![Binding::nested(var, renamed)],
                grouping: Some(Grouping::by(keys)),
                join: None,
                body: Formula::And(assigns),
            })),
        }
    }

    fn select(
        &mut self,
        s: &'s Select,
        head_name: &str,
        expected_attrs: Option<&[String]>,
    ) -> Result<arc::Collection, LowerError> {
        // 1. FROM: flatten to bindings (+ optional join annotation) and
        //    collect ON conditions.
        let mut bindings: Vec<Binding> = Vec::new();
        let mut on_conds: Vec<&'s SqlExpr> = Vec::new();

        // FROM variables register as they are met, so subqueries and ON
        // clauses resolve the siblings before them (what LATERAL needs).
        self.scopes.push(Scope { vars: Vec::new() });
        let join = self.lower_from(&s.from, &mut bindings, &mut on_conds)?;

        // 2. Head attributes.
        let mut attrs: Vec<String> = Vec::new();
        for (i, item) in s.items.iter().enumerate() {
            let name = match expected_attrs {
                Some(exp) => exp
                    .get(i)
                    .cloned()
                    .ok_or_else(|| LowerError::Unsupported("UNION arity mismatch".into()))?,
                None => item_name(item, i),
            };
            attrs.push(name);
        }
        if expected_attrs.map(|e| e.len()) == Some(attrs.len()) || expected_attrs.is_none() {
            // ok
        } else {
            return Err(LowerError::Unsupported("UNION arity mismatch".into()));
        }

        // 3. Body conjuncts.
        let mut conjuncts: Vec<Formula> = Vec::new();
        for cond in on_conds {
            conjuncts.push(self.bool_expr(cond)?);
        }
        if let Some(w) = &s.where_clause {
            conjuncts.push(self.bool_expr(w)?);
        }

        // 4. Grouping.
        let has_agg = s.items.iter().any(|i| contains_agg(&i.expr))
            || s.having.as_ref().map(contains_agg).unwrap_or(false);
        let grouping = if !s.group_by.is_empty() {
            let mut keys = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                match self.scalar_expr(g)? {
                    arc::Scalar::Attr(a) => keys.push(a),
                    _ => {
                        return Err(LowerError::Unsupported(
                            "GROUP BY supports column references only".into(),
                        ))
                    }
                }
            }
            Some(Grouping::by(keys))
        } else if has_agg {
            Some(Grouping::empty())
        } else {
            None
        };

        // 5. Projection: assignments (scalar subqueries become laterals).
        for (i, item) in s.items.iter().enumerate() {
            let scalar = if contains_scalar_subquery(&item.expr) {
                let expr = self.extract_scalar_subqueries(&item.expr, &mut bindings)?;
                self.scalar_expr(&expr)?
            } else {
                self.scalar_expr(&item.expr)?
            };
            conjuncts.push(Formula::Pred(Predicate::Cmp {
                left: arc::Scalar::Attr(AttrRef::new(head_name, attrs[i].clone())),
                op: CmpOp::Eq,
                right: scalar,
            }));
        }

        // 6. HAVING.
        if let Some(h) = &s.having {
            conjuncts.push(self.bool_expr(h)?);
        }

        self.scopes.pop();

        let collection = arc::Collection {
            head: Head {
                relation: head_name.to_string(),
                attrs,
            },
            body: Formula::Quant(Box::new(arc::Quant {
                bindings,
                grouping,
                join,
                body: Formula::And(conjuncts),
            })),
        };
        if s.distinct {
            Ok(self.dedup_wrap(collection))
        } else {
            Ok(collection)
        }
    }

    /// Lower a FROM clause: registers bindings/scope vars, collects ON
    /// conditions, and returns the quantifier's join annotation — the
    /// FROM elements' join trees folded into one, when an outer join
    /// occurs (`None` otherwise: the default join needs no annotation).
    fn lower_from(
        &mut self,
        from: &'s [TableRef],
        bindings: &mut Vec<Binding>,
        on_conds: &mut Vec<&'s SqlExpr>,
    ) -> Result<Option<JoinTree>, LowerError> {
        let annotate = from.iter().any(has_outer_join);
        let mut parts = Vec::new();
        for tref in from {
            let part = self.table_ref(tref, bindings, on_conds, annotate)?;
            parts.extend(part);
        }
        if !annotate {
            return Ok(None);
        }
        Ok(Some(if parts.len() == 1 {
            parts.pop().ok_or_else(|| {
                LowerError::Internal("outer join annotation with no FROM parts".into())
            })?
        } else {
            JoinTree::Inner(parts)
        }))
    }

    /// Lower one FROM element; registers bindings/scope vars and collects
    /// ON conditions; returns the element's join-annotation part when the
    /// clause is to be annotated.
    fn table_ref(
        &mut self,
        tref: &'s TableRef,
        bindings: &mut Vec<Binding>,
        on_conds: &mut Vec<&'s SqlExpr>,
        annotate: bool,
    ) -> Result<Option<JoinTree>, LowerError> {
        match tref {
            TableRef::Table { name, alias } => {
                let var = alias.as_ref().unwrap_or(name);
                let attrs = self
                    .schemas
                    .get(name)
                    .ok_or_else(|| LowerError::UnknownTable(name.clone()))?;
                bindings.push(Binding::named(var.clone(), name.clone()));
                self.register(Cow::Borrowed(var), Cow::Borrowed(attrs))?;
                Ok(annotate.then(|| JoinTree::Var(var.clone())))
            }
            TableRef::Subquery { query, alias, .. } => {
                let head_name = self.fresh("X");
                let sub = self.query(query, &head_name, None)?;
                let attrs = sub.head.attrs.clone();
                bindings.push(Binding::nested(alias.clone(), sub));
                self.register(Cow::Borrowed(alias), Cow::Owned(attrs))?;
                Ok(annotate.then(|| JoinTree::Var(alias.clone())))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.table_ref(left, bindings, on_conds, annotate)?;
                let mut r = self.table_ref(right, bindings, on_conds, annotate)?;
                let outer = matches!(kind, JoinKind::Left | JoinKind::Full);
                if let Some(cond) = on.as_ref().filter(|c| !is_trivially_true(c)) {
                    if let (true, Some(right)) = (outer, r.take()) {
                        // The engine associates ON conditions with the
                        // predicates that touch the join's right side.
                        // An ON conjunct referencing only the left side
                        // (Fig 12: `r.h = 11`) is encoded with the
                        // paper's literal-leaf trick: the constant
                        // becomes a singleton leaf of the right subtree
                        // so the predicate attaches to this join node.
                        let lowered = self.bool_expr(cond)?;
                        let rvars = right.vars();
                        let mut anchors = Vec::new();
                        for conjunct in lowered.conjuncts() {
                            let Formula::Pred(p) = conjunct else { continue };
                            let mut touches_right = false;
                            p.each_attr_ref(&mut |a| {
                                touches_right |= rvars.contains(&a.var.as_str())
                            });
                            if touches_right {
                                continue;
                            }
                            anchors.push(first_const(p).ok_or_else(|| {
                                LowerError::Unsupported(format!(
                                    "outer-join ON condition `{p}` references only the preserved side and has no constant to anchor it"
                                ))
                            })?);
                        }
                        r = Some(
                            anchors
                                .into_iter()
                                .fold(right, |r, c| JoinTree::Inner(vec![JoinTree::Lit(c), r])),
                        );
                    }
                    on_conds.push(cond);
                }
                let (Some(l), Some(r)) = (l, r) else {
                    return Ok(None);
                };
                Ok(Some(match kind {
                    JoinKind::Inner | JoinKind::Cross => JoinTree::Inner(vec![l, r]),
                    JoinKind::Left => JoinTree::Left(Box::new(l), Box::new(r)),
                    JoinKind::Full => JoinTree::Full(Box::new(l), Box::new(r)),
                }))
            }
        }
    }

    fn register(&mut self, var: Cow<'s, str>, attrs: Cow<'s, [String]>) -> Result<(), LowerError> {
        self.scopes
            .last_mut()
            .ok_or_else(|| LowerError::Internal("variable registered outside any scope".into()))?
            .vars
            .push((var, attrs));
        Ok(())
    }

    /// Replace scalar subqueries inside a select-item expression with
    /// references to fresh lateral bindings (§2.12).
    fn extract_scalar_subqueries(
        &mut self,
        e: &'s SqlExpr,
        bindings: &mut Vec<Binding>,
    ) -> Result<SqlExpr, LowerError> {
        Ok(match e {
            SqlExpr::ScalarSubquery(q) => {
                let var = self.fresh("x");
                let (collection, attr) = self.scalar_collection(q)?;
                let attrs = collection.head.attrs.clone();
                bindings.push(Binding::nested(var.clone(), collection));
                self.register(Cow::Owned(var.clone()), Cow::Owned(attrs))?;
                SqlExpr::Column {
                    table: Some(var),
                    column: attr,
                }
            }
            SqlExpr::Binary { op, left, right } => SqlExpr::Binary {
                op: *op,
                left: Box::new(self.extract_scalar_subqueries(left, bindings)?),
                right: Box::new(self.extract_scalar_subqueries(right, bindings)?),
            },
            other => other.clone(),
        })
    }

    /// Lower a scalar subquery to a single-attribute collection; returns it
    /// with its output attribute name.
    fn scalar_collection(
        &mut self,
        q: &'s SqlQuery,
    ) -> Result<(arc::Collection, String), LowerError> {
        let head_name = self.fresh("X");
        let c = self.query(q, &head_name, None)?;
        if c.head.attrs.len() != 1 {
            return Err(LowerError::Unsupported(
                "scalar subquery must project exactly one column".into(),
            ));
        }
        let attr = c.head.attrs[0].clone();
        Ok((c, attr))
    }

    // -- Boolean expressions ---------------------------------------------------

    fn bool_expr(&mut self, e: &'s SqlExpr) -> Result<Formula, LowerError> {
        match e {
            SqlExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => Ok(Formula::And(vec![
                self.bool_expr(left)?,
                self.bool_expr(right)?,
            ])),
            SqlExpr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => Ok(Formula::Or(vec![
                self.bool_expr(left)?,
                self.bool_expr(right)?,
            ])),
            SqlExpr::Not(inner) => Ok(Formula::Not(Box::new(self.bool_expr(inner)?))),
            SqlExpr::IsNull { expr, negated } => Ok(Formula::Pred(Predicate::IsNull {
                expr: self.scalar_expr(expr)?,
                negated: *negated,
            })),
            SqlExpr::Exists { query, negated } => {
                let f = self.subquery_as_formula(query, None)?;
                Ok(if *negated {
                    Formula::Not(Box::new(f))
                } else {
                    f
                })
            }
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let probe = self.scalar_expr(expr)?;
                if *negated {
                    // Fig 11 / Eq (17): NOT IN with explicit null guards.
                    let f = self.subquery_as_formula_with(query, |item, lw| {
                        Ok(Formula::Or(vec![
                            Formula::Pred(Predicate::Cmp {
                                left: lw.scalar_expr(item)?.clone(),
                                op: CmpOp::Eq,
                                right: probe.clone(),
                            }),
                            Formula::Pred(Predicate::IsNull {
                                expr: lw.scalar_expr(item)?,
                                negated: false,
                            }),
                            Formula::Pred(Predicate::IsNull {
                                expr: probe.clone(),
                                negated: false,
                            }),
                        ]))
                    })?;
                    Ok(Formula::Not(Box::new(f)))
                } else {
                    let f = self.subquery_as_formula_with(query, |item, lw| {
                        Ok(Formula::Pred(Predicate::Cmp {
                            left: lw.scalar_expr(item)?,
                            op: CmpOp::Eq,
                            right: probe.clone(),
                        }))
                    })?;
                    Ok(f)
                }
            }
            SqlExpr::Binary { op, left, right } if op.is_comparison() => {
                let arc_op = cmp_op(*op);
                // Comparison against a scalar subquery → grouped nested
                // scope with an aggregation comparison (Eq (27) shape).
                if let SqlExpr::ScalarSubquery(q) = &**right {
                    let probe = self.scalar_expr(left)?;
                    return self.scalar_subquery_comparison(q, probe, arc_op);
                }
                if let SqlExpr::ScalarSubquery(q) = &**left {
                    let probe = self.scalar_expr(right)?;
                    return self.scalar_subquery_comparison(q, probe, arc_op.flipped());
                }
                Ok(Formula::Pred(Predicate::Cmp {
                    left: self.scalar_expr(left)?,
                    op: arc_op,
                    right: self.scalar_expr(right)?,
                }))
            }
            SqlExpr::Literal(Value::Bool(true)) => Ok(Formula::And(Vec::new())),
            SqlExpr::Literal(Value::Bool(false)) => Ok(Formula::Or(Vec::new())),
            other => Err(LowerError::Unsupported(format!(
                "expression in boolean position: {other:?}"
            ))),
        }
    }

    /// `probe op (SELECT item FROM …)`: lower to a quantifier whose body
    /// carries the comparison as an (aggregation) predicate.
    fn scalar_subquery_comparison(
        &mut self,
        q: &'s SqlQuery,
        probe: arc::Scalar,
        op: CmpOp,
    ) -> Result<Formula, LowerError> {
        self.subquery_as_formula_with(q, move |item, lw| {
            Ok(Formula::Pred(Predicate::Cmp {
                left: probe.clone(),
                op,
                right: lw.scalar_expr(item)?,
            }))
        })
    }

    /// Lower a subquery to an existential formula (EXISTS shape), ignoring
    /// its projection.
    fn subquery_as_formula(
        &mut self,
        q: &'s SqlQuery,
        extra: Option<Formula>,
    ) -> Result<Formula, LowerError> {
        self.subquery_as_formula_with(q, move |_item, _lw| {
            Ok(extra.clone().unwrap_or(Formula::And(Vec::new())))
        })
    }

    /// Lower a subquery to a quantifier formula; `with_item` receives the
    /// subquery's single select-item expression to build the extra
    /// predicate tied into the scope (IN probes, scalar comparisons).
    fn subquery_as_formula_with(
        &mut self,
        q: &'s SqlQuery,
        with_item: impl Fn(&'s SqlExpr, &mut Self) -> Result<Formula, LowerError> + Clone,
    ) -> Result<Formula, LowerError> {
        let s = match q {
            SqlQuery::Select(s) => s,
            SqlQuery::Union { left, right, all } => {
                if !all {
                    return Err(LowerError::Unsupported(
                        "UNION (distinct) subquery in boolean position".into(),
                    ));
                }
                let l = self.subquery_as_formula_with(left, with_item.clone())?;
                let r = self.subquery_as_formula_with(right, with_item)?;
                return Ok(Formula::Or(vec![l, r]));
            }
        };
        let mut bindings: Vec<Binding> = Vec::new();
        let mut on_conds: Vec<&'s SqlExpr> = Vec::new();
        self.scopes.push(Scope { vars: Vec::new() });
        let join = self.lower_from(&s.from, &mut bindings, &mut on_conds)?;

        let mut conjuncts = Vec::new();
        for cond in on_conds {
            conjuncts.push(self.bool_expr(cond)?);
        }
        if let Some(w) = &s.where_clause {
            conjuncts.push(self.bool_expr(w)?);
        }
        // The item-level predicate (equality probe or aggregation test).
        let item_expr = s.items.first().map_or(&ONE, |i| &i.expr);
        let item_formula = with_item(item_expr, self)?;
        let item_has_agg = contains_agg(item_expr);
        conjuncts.push(item_formula);

        if let Some(h) = &s.having {
            conjuncts.push(self.bool_expr(h)?);
        }

        let grouping = if !s.group_by.is_empty() {
            let mut keys = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                match self.scalar_expr(g)? {
                    arc::Scalar::Attr(a) => keys.push(a),
                    _ => {
                        return Err(LowerError::Unsupported(
                            "GROUP BY supports column references only".into(),
                        ))
                    }
                }
            }
            Some(Grouping::by(keys))
        } else if item_has_agg || s.having.as_ref().map(contains_agg).unwrap_or(false) {
            Some(Grouping::empty())
        } else {
            None
        };

        self.scopes.pop();
        Ok(Formula::Quant(Box::new(arc::Quant {
            bindings,
            grouping,
            join,
            body: Formula::And(conjuncts),
        })))
    }

    // -- Scalars -----------------------------------------------------------------

    fn scalar_expr(&mut self, e: &SqlExpr) -> Result<arc::Scalar, LowerError> {
        match e {
            SqlExpr::Column { table, column } => {
                let attr = self.resolve(table.as_deref(), column)?;
                Ok(arc::Scalar::Attr(attr))
            }
            SqlExpr::Literal(v) => Ok(arc::Scalar::Const(v.clone())),
            SqlExpr::Binary { op, left, right } if !op.is_comparison() && !op.is_logical() => {
                Ok(arc::Scalar::Arith {
                    op: match op {
                        BinOp::Add => arc::ArithOp::Add,
                        BinOp::Sub => arc::ArithOp::Sub,
                        BinOp::Mul => arc::ArithOp::Mul,
                        BinOp::Div => arc::ArithOp::Div,
                        _ => unreachable!("filtered by guard"),
                    },
                    left: Box::new(self.scalar_expr(left)?),
                    right: Box::new(self.scalar_expr(right)?),
                })
            }
            SqlExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                let f = match func.as_str() {
                    "sum" => arc::AggFunc::Sum,
                    "count" => arc::AggFunc::Count,
                    "avg" => arc::AggFunc::Avg,
                    "min" => arc::AggFunc::Min,
                    "max" => arc::AggFunc::Max,
                    other => {
                        return Err(LowerError::Unsupported(format!(
                            "aggregate function `{other}`"
                        )))
                    }
                };
                let a = match arg {
                    Some(inner) => arc::AggArg::Expr(self.scalar_expr(inner)?),
                    None => arc::AggArg::Star,
                };
                Ok(arc::Scalar::Agg(Box::new(arc::AggCall {
                    func: f,
                    arg: a,
                    distinct: *distinct,
                })))
            }
            SqlExpr::ScalarSubquery(_) => Err(LowerError::Unsupported(
                "scalar subquery only supported in SELECT items and comparisons".into(),
            )),
            other => Err(LowerError::Unsupported(format!(
                "expression in scalar position: {other:?}"
            ))),
        }
    }

    fn resolve(&self, table: Option<&str>, column: &str) -> Result<AttrRef, LowerError> {
        match table {
            Some(t) => {
                // Qualified: the variable must exist in some scope; trust
                // the attribute (binder/engine re-validate).
                for scope in self.scopes.iter().rev() {
                    if let Some((var, _attrs)) = scope.vars.iter().find(|(v, _)| v == t) {
                        return Ok(AttrRef::new(&**var, column));
                    }
                }
                Err(LowerError::UnknownColumn(format!("{t}.{column}")))
            }
            None => {
                let mut found: Option<AttrRef> = None;
                for scope in self.scopes.iter().rev() {
                    for (var, attrs) in &scope.vars {
                        if attrs.iter().any(|a| a == column) {
                            if found.is_some() {
                                return Err(LowerError::AmbiguousColumn(column.to_string()));
                            }
                            found = Some(AttrRef::new(&**var, column));
                        }
                    }
                    if found.is_some() {
                        // Closest scope wins; ambiguity only within a scope.
                        break;
                    }
                }
                found.ok_or_else(|| LowerError::UnknownColumn(column.to_string()))
            }
        }
    }
}

/// Rename head references `old.attr` → `new.attr` in assignment positions.
/// With `new = None`, this is identity (used to keep the borrow simple).
fn rename_head(f: Formula, old: &str, new: Option<&str>) -> Formula {
    let Some(new) = new else { return f };
    fn scalar(s: arc::Scalar, old: &str, new: &str) -> arc::Scalar {
        match s {
            arc::Scalar::Attr(a) if a.var == old => arc::Scalar::Attr(AttrRef::new(new, a.attr)),
            arc::Scalar::Arith { op, left, right } => arc::Scalar::Arith {
                op,
                left: Box::new(scalar(*left, old, new)),
                right: Box::new(scalar(*right, old, new)),
            },
            other => other,
        }
    }
    fn walk(f: Formula, old: &str, new: &str) -> Formula {
        match f {
            Formula::Pred(Predicate::Cmp { left, op, right }) => Formula::Pred(Predicate::Cmp {
                left: scalar(left, old, new),
                op,
                right: scalar(right, old, new),
            }),
            Formula::Pred(p) => Formula::Pred(p),
            Formula::And(fs) => Formula::And(fs.into_iter().map(|s| walk(s, old, new)).collect()),
            Formula::Or(fs) => Formula::Or(fs.into_iter().map(|s| walk(s, old, new)).collect()),
            Formula::Not(inner) => Formula::Not(Box::new(walk(*inner, old, new))),
            Formula::Quant(q) => Formula::Quant(Box::new(arc::Quant {
                bindings: q.bindings,
                grouping: q.grouping,
                join: q.join,
                body: walk(q.body, old, new),
            })),
        }
    }
    walk(f, old, new)
}

/// First constant appearing in a predicate (literal-leaf anchor).
fn first_const(p: &Predicate) -> Option<Value> {
    fn walk(s: &arc::Scalar) -> Option<Value> {
        match s {
            arc::Scalar::Const(v) => Some(v.clone()),
            arc::Scalar::Attr(_) => None,
            arc::Scalar::Agg(call) => match &call.arg {
                arc::AggArg::Expr(e) => walk(e),
                arc::AggArg::Star => None,
            },
            arc::Scalar::Arith { left, right, .. } => walk(left).or_else(|| walk(right)),
        }
    }
    match p {
        Predicate::Cmp { left, right, .. } => walk(left).or_else(|| walk(right)),
        Predicate::IsNull { expr, .. } => walk(expr),
    }
}

fn item_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        SqlExpr::Column { column, .. } => column.clone(),
        SqlExpr::Agg { func, .. } => func.clone(),
        _ => format!("c{}", index + 1),
    }
}

/// Does a select-item expression hold a scalar subquery where
/// [`Lowerer::extract_scalar_subqueries`] would replace it?
fn contains_scalar_subquery(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::ScalarSubquery(_) => true,
        SqlExpr::Binary { left, right, .. } => {
            contains_scalar_subquery(left) || contains_scalar_subquery(right)
        }
        _ => false,
    }
}

/// Does a FROM element hold a `LEFT`/`FULL` join?
fn has_outer_join(tref: &TableRef) -> bool {
    match tref {
        TableRef::Table { .. } | TableRef::Subquery { .. } => false,
        TableRef::Join {
            left, right, kind, ..
        } => {
            matches!(kind, JoinKind::Left | JoinKind::Full)
                || has_outer_join(left)
                || has_outer_join(right)
        }
    }
}

fn contains_agg(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Agg { .. } => true,
        SqlExpr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        SqlExpr::Not(inner) => contains_agg(inner),
        SqlExpr::IsNull { expr, .. } => contains_agg(expr),
        // Aggregates inside subqueries belong to the subquery's scope.
        SqlExpr::Exists { .. } | SqlExpr::InSubquery { .. } | SqlExpr::ScalarSubquery(_) => false,
        SqlExpr::Column { .. } | SqlExpr::Literal(_) => false,
    }
}

fn is_trivially_true(e: &SqlExpr) -> bool {
    matches!(e, SqlExpr::Literal(Value::Bool(true)))
}

fn cmp_op(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        other => unreachable!("not a comparison: {other:?}"),
    }
}
