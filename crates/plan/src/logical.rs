//! The logical side of scope planning: equality-predicate extraction and
//! predicate classification.
//!
//! These are the analyses the optimizer passes consume: which filters are
//! equi-join edges (and in which orientation), and which variables a
//! predicate touches. They operate on the bound AST's predicate leaves —
//! the planner never rewrites the AST itself, it only *indexes* into it,
//! so the physical plan can refer back to predicates by position.

use arc_core::ast::{CmpOp, Predicate, Scalar};
use arc_core::value::Value;

/// One orientation of an equality filter `var.attr = expr`: the bound side
/// is an attribute reference, the other side is an arbitrary scalar.
///
/// A predicate with attribute references on both sides yields two edges
/// (one per orientation), mirroring the evaluator's `equality_pair`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqEdge<'a> {
    /// Index of the originating predicate in the scope's filter list.
    pub filter: usize,
    /// The bound-side variable.
    pub var: &'a str,
    /// The bound-side attribute.
    pub attr: &'a str,
    /// `true` when the bound attribute is the comparison's left operand
    /// (the probe/input expression is then the right operand).
    pub attr_on_left: bool,
}

/// Extract every equality edge from the scope's filters, in filter order
/// (left orientation before right within one predicate). This is the
/// **equality-predicate extraction pass**: the edges drive hash-probe key
/// selection, external access-pattern inputs, and abstract-relation
/// determination.
pub fn extract_equalities<'a>(filters: &[&'a Predicate]) -> Vec<EqEdge<'a>> {
    let mut out = Vec::new();
    for (i, p) in filters.iter().enumerate() {
        if let Predicate::Cmp {
            left,
            op: CmpOp::Eq,
            right,
        } = p
        {
            if let Scalar::Attr(a) = left {
                out.push(EqEdge {
                    filter: i,
                    var: &a.var,
                    attr: &a.attr,
                    attr_on_left: true,
                });
            }
            if let Scalar::Attr(a) = right {
                out.push(EqEdge {
                    filter: i,
                    var: &a.var,
                    attr: &a.attr,
                    attr_on_left: false,
                });
            }
        }
    }
    out
}

/// The scalar on the *other* side of an equality edge (the probe or input
/// expression).
pub fn other_side(p: &Predicate, attr_on_left: bool) -> &Scalar {
    match p {
        Predicate::Cmp { left, right, .. } => {
            if attr_on_left {
                right
            } else {
                left
            }
        }
        Predicate::IsNull { expr, .. } => expr, // unreachable for equality edges
    }
}

/// The two sides of an equality predicate in *(local, outer)* orientation
/// for a decorrelated correlated key: with `local_on_left` the comparison
/// reads `local = outer`, otherwise `outer = local`. The first returned
/// scalar is the build-side (scope-local) expression, the second the
/// probe-side (outer) expression.
pub fn eq_sides(p: &Predicate, local_on_left: bool) -> (&Scalar, &Scalar) {
    match p {
        Predicate::Cmp { left, right, .. } => {
            if local_on_left {
                (left, right)
            } else {
                (right, left)
            }
        }
        // Unreachable for correlated keys (they are equality comparisons by
        // construction); kept total for API robustness.
        Predicate::IsNull { expr, .. } => (expr, expr),
    }
}

/// Classify a predicate as a **constant comparison** on one attribute of
/// `var`: `var.attr op const` or `const op var.attr` (the operator is
/// flipped into attribute-on-the-left orientation). Returns the schema
/// position of the attribute, the oriented operator, and the constant —
/// or `None` for any other shape (other variables, attr-vs-attr,
/// `IS NULL`, unknown attributes).
///
/// This is the **one** classifier behind index-range planning: the
/// planner uses it to pick which filters an ordered-index bound may
/// consume, and the engine re-derives the bound keys from the same
/// classification, so the two can never disagree about what a consumed
/// filter means.
pub fn const_cmp<'a>(
    p: &'a Predicate,
    var: &str,
    schema: &[String],
) -> Option<(usize, CmpOp, &'a Value)> {
    let Predicate::Cmp { left, op, right } = p else {
        return None;
    };
    let (attr, op, value) = match (left, right) {
        (Scalar::Attr(a), Scalar::Const(v)) => (a, *op, v),
        (Scalar::Const(v), Scalar::Attr(a)) => (a, op.flipped(), v),
        _ => return None,
    };
    if attr.var != var {
        return None;
    }
    let col = schema.iter().position(|s| s == &attr.attr)?;
    Some((col, op, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_core::dsl::*;

    #[test]
    fn extraction_orients_both_sides() {
        let p = match eq(col("r", "B"), col("s", "B")) {
            arc_core::ast::Formula::Pred(p) => p,
            _ => unreachable!(),
        };
        let filters = [&p];
        let edges = extract_equalities(&filters);
        assert_eq!(edges.len(), 2);
        assert_eq!((edges[0].var, edges[0].attr_on_left), ("r", true));
        assert_eq!((edges[1].var, edges[1].attr_on_left), ("s", false));
    }

    #[test]
    fn non_equalities_yield_no_edges() {
        let p = match lt(col("r", "B"), col("s", "B")) {
            arc_core::ast::Formula::Pred(p) => p,
            _ => unreachable!(),
        };
        let filters = [&p];
        assert!(extract_equalities(&filters).is_empty());
    }
}
