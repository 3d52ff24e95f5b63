//! Slot-resolved expressions: the abstract syntax the evaluator walks.
//!
//! The surface AST names things — `r.A` is a range variable and an
//! attribute, both strings. When a scope is compiled (see
//! [`super::scope`]) every attribute reference is resolved **once**
//! against the frame [layout](super::env::Layout) the expression will run
//! under, to a `(frame, column)` slot; evaluation then indexes the frame
//! stack and never compares a string. Resolution is innermost-first, so a
//! shadowed name picks the frame the run-time stack walk used to pick.
//!
//! A reference that does not resolve compiles to [`CScalar::Raise`], which
//! fails with the familiar `UnboundVariable` / `UnknownAttribute` **when
//! evaluated** — a bad name under a scope that enumerates no rows is as
//! silent as it always was. An aggregate call compiles to an accumulator
//! index in a grouping scope's per-group tests and assignments, and to a
//! `Raise` (`AggregateOutsideGrouping`) everywhere else.

use super::aggregate::AggSpec;
use super::env::{resolve, Names, Resolution};
use crate::error::EvalError;
use arc_core::ast::*;
use arc_core::value::Value;

/// A scalar with its names resolved.
pub(crate) enum CScalar<'a> {
    /// Column `col` of the row bound at stack position `frame`.
    Slot {
        frame: u32,
        col: u32,
    },
    Const(&'a Value),
    Arith {
        op: ArithOp,
        left: Box<CScalar<'a>>,
        right: Box<CScalar<'a>>,
    },
    /// The value of the scope's `n`-th aggregate call (group context only).
    Agg(usize),
    /// Fails with this error when evaluated.
    Raise(Box<EvalError>),
}

impl CScalar<'_> {
    /// The error evaluating this scalar in tuple context always raises,
    /// if any: operands evaluate left to right with no short-circuit, so
    /// it is the first `Raise` in that order.
    pub(crate) fn first_raise(&self) -> Option<&EvalError> {
        match self {
            CScalar::Raise(e) => Some(e),
            CScalar::Arith { left, right, .. } => left.first_raise().or(right.first_raise()),
            CScalar::Slot { .. } | CScalar::Const(_) | CScalar::Agg(_) => None,
        }
    }

    /// The lowest and highest stack positions this scalar reads a row at;
    /// `None` when it reads none.
    pub(crate) fn frames(&self) -> Option<(usize, usize)> {
        match self {
            CScalar::Slot { frame, .. } => Some((*frame as usize, *frame as usize)),
            CScalar::Arith { left, right, .. } => match (left.frames(), right.frames()) {
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                (one, other) => one.or(other),
            },
            CScalar::Const(_) | CScalar::Agg(_) | CScalar::Raise(_) => None,
        }
    }

    /// Whether this scalar reads the row bound at stack position `frame`.
    pub(crate) fn reads(&self, frame: usize) -> bool {
        match self {
            CScalar::Slot { frame: f, .. } => *f as usize == frame,
            CScalar::Arith { left, right, .. } => left.reads(frame) || right.reads(frame),
            CScalar::Const(_) | CScalar::Agg(_) | CScalar::Raise(_) => false,
        }
    }

    /// Whether evaluation can fail at all (a `Raise`, or an aggregate
    /// whose argument holds one).
    pub(crate) fn may_raise(&self, aggs: &[AggSpec<'_>]) -> bool {
        match self {
            CScalar::Raise(_) => true,
            CScalar::Agg(n) => aggs[*n].err.is_some(),
            CScalar::Arith { left, right, .. } => left.may_raise(aggs) || right.may_raise(aggs),
            CScalar::Slot { .. } | CScalar::Const(_) => false,
        }
    }
}

/// A predicate leaf over resolved scalars.
pub(crate) enum CPred<'a> {
    Cmp {
        left: CScalar<'a>,
        op: CmpOp,
        right: CScalar<'a>,
    },
    IsNull {
        expr: CScalar<'a>,
        negated: bool,
    },
}

impl CPred<'_> {
    /// Whether evaluating this predicate in tuple context can fail.
    pub(crate) fn may_raise(&self) -> bool {
        match self {
            CPred::Cmp { left, right, .. } => {
                left.first_raise().is_some() || right.first_raise().is_some()
            }
            CPred::IsNull { expr, .. } => expr.first_raise().is_some(),
        }
    }
}

/// A boolean formula over resolved predicates. Quantifier scopes stay AST
/// references: each compiles (and is cached) on its own when first
/// entered.
pub(crate) enum CFormula<'a> {
    Pred(CPred<'a>),
    And(Vec<CFormula<'a>>),
    Or(Vec<CFormula<'a>>),
    Not(Box<CFormula<'a>>),
    Quant(&'a Quant),
}

/// Resolves names against one frame layout. In **tuple** context an
/// aggregate call is an error waiting to be evaluated; in **group**
/// context it registers an accumulator and compiles to its index.
pub(crate) struct Resolver<'n, 'a> {
    names: &'n [Names<'a>],
    /// The accumulators registered so far (`Some` = group context).
    pub(crate) aggs: Option<Vec<AggSpec<'a>>>,
}

impl<'n, 'a> Resolver<'n, 'a> {
    pub(crate) fn tuple(names: &'n [Names<'a>]) -> Self {
        Resolver { names, aggs: None }
    }

    pub(crate) fn group(names: &'n [Names<'a>]) -> Self {
        Resolver {
            names,
            aggs: Some(Vec::new()),
        }
    }

    pub(crate) fn attr(&self, a: &AttrRef) -> CScalar<'a> {
        match resolve(self.names, &a.var, &a.attr) {
            Resolution::Slot { frame, col } => CScalar::Slot {
                frame: frame as u32,
                col: col as u32,
            },
            Resolution::UnknownAttribute => CScalar::Raise(Box::new(EvalError::UnknownAttribute {
                var: a.var.clone(),
                attr: a.attr.clone(),
            })),
            Resolution::Unbound => {
                CScalar::Raise(Box::new(EvalError::UnboundVariable(a.var.clone())))
            }
        }
    }

    pub(crate) fn scalar(&mut self, s: &'a Scalar) -> CScalar<'a> {
        match s {
            Scalar::Attr(a) => self.attr(a),
            Scalar::Const(v) => CScalar::Const(v),
            Scalar::Agg(call) => match &mut self.aggs {
                None => CScalar::Raise(Box::new(EvalError::AggregateOutsideGrouping(
                    call.to_string(),
                ))),
                Some(aggs) => {
                    // The argument runs per member, in tuple context.
                    let arg = match &call.arg {
                        AggArg::Star => None,
                        AggArg::Expr(e) => Some(Resolver::tuple(self.names).scalar(e)),
                    };
                    aggs.push(AggSpec::new(call.func, call.distinct, arg));
                    CScalar::Agg(aggs.len() - 1)
                }
            },
            Scalar::Arith { op, left, right } => CScalar::Arith {
                op: *op,
                left: Box::new(self.scalar(left)),
                right: Box::new(self.scalar(right)),
            },
        }
    }

    pub(crate) fn pred(&mut self, p: &'a Predicate) -> CPred<'a> {
        match p {
            Predicate::Cmp { left, op, right } => CPred::Cmp {
                left: self.scalar(left),
                op: *op,
                right: self.scalar(right),
            },
            Predicate::IsNull { expr, negated } => CPred::IsNull {
                expr: self.scalar(expr),
                negated: *negated,
            },
        }
    }

    pub(crate) fn formula(&mut self, f: &'a Formula) -> CFormula<'a> {
        match f {
            Formula::Pred(p) => CFormula::Pred(self.pred(p)),
            Formula::And(fs) => CFormula::And(fs.iter().map(|s| self.formula(s)).collect()),
            Formula::Or(fs) => CFormula::Or(fs.iter().map(|s| self.formula(s)).collect()),
            Formula::Not(inner) => CFormula::Not(Box::new(self.formula(inner))),
            Formula::Quant(q) => CFormula::Quant(q),
        }
    }
}
