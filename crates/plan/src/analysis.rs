//! Scope-body analysis: predicate-role partitioning and free-variable
//! computation.
//!
//! This is the shared front half of both the evaluator and the planner
//! (it lived inside `arc-engine` before the plan layer existed): a scope
//! body is a conjunction whose members play distinct *roles* — filters,
//! head assignments, aggregation predicates, boolean subformulas — and
//! both lowering and execution need the same partition.

use arc_core::ast::*;

/// The body of a quantifier scope, partitioned by predicate role.
pub struct Parts<'f> {
    /// Plain predicates: filters (no aggregate, not a head assignment).
    pub filters: Vec<&'f Predicate>,
    /// Non-aggregating head assignments `(attr, expr)`.
    pub assigns: Vec<(&'f str, &'f Scalar)>,
    /// Aggregating head assignments (need a grouping scope).
    pub agg_assigns: Vec<(&'f str, &'f Scalar)>,
    /// Aggregating non-assignment predicates (per-group tests).
    pub agg_tests: Vec<&'f Predicate>,
    /// Boolean subformulas without scope-level aggregates (pre-group).
    pub pre_bool: Vec<&'f Formula>,
    /// Boolean subformulas containing scope-level aggregates (per-group).
    pub post_bool: Vec<&'f Formula>,
    /// Subformulas carrying positive head assignments (the emission spine).
    pub spines: Vec<&'f Formula>,
}

/// Partition a scope body's conjuncts by role, relative to head relation
/// `head` (pass a name that cannot occur — e.g. `"\u{0}"` — to classify a
/// boolean scope, where nothing is an assignment).
pub fn partition<'f>(body: &'f Formula, head: &str) -> Parts<'f> {
    let mut parts = Parts {
        filters: Vec::new(),
        assigns: Vec::new(),
        agg_assigns: Vec::new(),
        agg_tests: Vec::new(),
        pre_bool: Vec::new(),
        post_bool: Vec::new(),
        spines: Vec::new(),
    };
    body.each_conjunct(&mut |conjunct| match conjunct {
        Formula::Pred(p) => {
            if let Some((attr, expr)) = head_assignment(p, head) {
                if expr.has_aggregate() {
                    parts.agg_assigns.push((attr, expr));
                } else {
                    parts.assigns.push((attr, expr));
                }
            } else if p.has_aggregate() {
                parts.agg_tests.push(p);
            } else {
                parts.filters.push(p);
            }
        }
        sub => {
            if has_head_assignment(sub, head) {
                parts.spines.push(sub);
            } else if has_direct_aggregate(sub) {
                parts.post_bool.push(sub);
            } else {
                parts.pre_bool.push(sub);
            }
        }
    });
    parts
}

/// `Head.attr = expr` (either orientation) with a bare head side.
pub fn head_assignment<'f>(p: &'f Predicate, head: &str) -> Option<(&'f str, &'f Scalar)> {
    if let Predicate::Cmp {
        left,
        op: CmpOp::Eq,
        right,
    } = p
    {
        fn is_head<'s>(s: &'s Scalar, head: &str) -> Option<&'s str> {
            match s {
                Scalar::Attr(a) if a.var == head => Some(a.attr.as_str()),
                _ => None,
            }
        }
        match (is_head(left, head), is_head(right, head)) {
            (Some(attr), None) => return Some((attr, right)),
            (None, Some(attr)) => return Some((attr, left)),
            _ => {}
        }
    }
    None
}

/// Does `f` contain a *positive* head assignment for `head` (not under
/// negation, not inside a nested collection)?
pub fn has_head_assignment(f: &Formula, head: &str) -> bool {
    match f {
        Formula::Pred(p) => head_assignment(p, head).is_some(),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|s| has_head_assignment(s, head)),
        Formula::Not(_) => false,
        Formula::Quant(q) => has_head_assignment(&q.body, head),
    }
}

/// Does `f` contain an aggregate belonging to the *current* scope (i.e. in
/// a predicate not nested under another quantifier)?
pub fn has_direct_aggregate(f: &Formula) -> bool {
    match f {
        Formula::Pred(p) => p.has_aggregate(),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(has_direct_aggregate),
        Formula::Not(inner) => has_direct_aggregate(inner),
        Formula::Quant(_) => false,
    }
}

/// Extract `(attr-ref, other-side)` pairs from an equality predicate, in
/// both orientations.
pub fn equality_pair(p: &Predicate) -> Vec<(&AttrRef, &Scalar)> {
    let mut out = Vec::new();
    if let Predicate::Cmp {
        left,
        op: CmpOp::Eq,
        right,
    } = p
    {
        if let Scalar::Attr(a) = left {
            out.push((a, right));
        }
        if let Scalar::Attr(a) = right {
            out.push((a, left));
        }
    }
    out
}

/// Variables referenced by a predicate.
pub fn pred_vars(p: &Predicate) -> Vec<String> {
    let mut out = Vec::new();
    let mut push_scalar = |s: &Scalar| {
        for r in s.attr_refs() {
            out.push(r.var.clone());
        }
    };
    match p {
        Predicate::Cmp { left, right, .. } => {
            push_scalar(left);
            push_scalar(right);
        }
        Predicate::IsNull { expr, .. } => push_scalar(expr),
    }
    out
}

/// Constants appearing in a predicate (for literal-leaf ON association in
/// outer-join annotation trees).
pub fn pred_consts(p: &Predicate) -> Vec<arc_core::value::Value> {
    fn walk(s: &Scalar, out: &mut Vec<arc_core::value::Value>) {
        match s {
            Scalar::Const(v) => out.push(v.clone()),
            Scalar::Attr(_) => {}
            Scalar::Agg(call) => {
                if let AggArg::Expr(e) = &call.arg {
                    walk(e, out);
                }
            }
            Scalar::Arith { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    match p {
        Predicate::Cmp { left, right, .. } => {
            walk(left, &mut out);
            walk(right, &mut out);
        }
        Predicate::IsNull { expr, .. } => walk(expr, &mut out),
    }
    out
}

/// Free variables of a collection: referenced variables that no internal
/// binding (or the collection's own head) declares.
pub fn free_vars(c: &Collection) -> Vec<&str> {
    let mut free: Vec<&str> = Vec::new();
    let mut bound = vec![c.head.relation.as_str()];
    each_free_ref(&c.body, &mut bound, &mut |r| {
        if !free.contains(&r.var.as_str()) {
            free.push(&r.var);
        }
    });
    free
}

/// The attribute references a collection reads from outside itself —
/// [`free_vars`] at `var.attr` granularity, each pair once, in occurrence
/// order. Together their values are everything a nested collection's
/// result depends on in its environment: its *correlation key*.
pub fn free_attr_refs(c: &Collection) -> Vec<&AttrRef> {
    let mut free: Vec<&AttrRef> = Vec::new();
    let mut bound = vec![c.head.relation.as_str()];
    each_free_ref(&c.body, &mut bound, &mut |r| {
        if !free.contains(&r) {
            free.push(r);
        }
    });
    free
}

/// Visit every attribute reference of a bare formula whose variable no
/// quantifier inside the formula binds. Used by the decorrelation pass to
/// detect correlation hiding in a scope's boolean subformulas (a nested
/// quantifier referencing an outer variable, or a null guard).
pub fn each_formula_free_ref<'f>(f: &'f Formula, visit: &mut impl FnMut(&'f AttrRef)) {
    each_free_ref(f, &mut Vec::new(), visit);
}

/// Visit every attribute reference of `f` whose variable nothing in
/// `bound` — extended by the quantifiers passed on the way down —
/// declares.
fn each_free_ref<'f>(
    f: &'f Formula,
    bound: &mut Vec<&'f str>,
    visit: &mut impl FnMut(&'f AttrRef),
) {
    match f {
        Formula::Quant(q) => {
            let base = bound.len();
            for b in &q.bindings {
                if let BindingSource::Collection(c) = &b.source {
                    // The nested collection sees current bound vars.
                    let inner = bound.len();
                    bound.push(&c.head.relation);
                    each_free_ref(&c.body, bound, visit);
                    bound.truncate(inner);
                }
                bound.push(&b.var);
            }
            for key in q.grouping.iter().flat_map(|g| &g.keys) {
                if !bound.contains(&key.var.as_str()) {
                    visit(key);
                }
            }
            each_free_ref(&q.body, bound, visit);
            bound.truncate(base);
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                each_free_ref(sub, bound, visit);
            }
        }
        Formula::Not(inner) => each_free_ref(inner, bound, visit),
        Formula::Pred(p) => p.each_attr_ref(&mut |r| {
            if !bound.contains(&r.var.as_str()) {
                visit(r);
            }
        }),
    }
}
