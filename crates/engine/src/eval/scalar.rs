//! Scalar and predicate evaluation in tuple context: slot loads,
//! comparisons under the active null convention, and arithmetic.

use super::env::Env;
use super::slots::{CPred, CScalar};
use super::Ctx;
use crate::error::{EvalError, Result};
use arc_core::ast::*;
use arc_core::conventions::NullLogic;
use arc_core::value::{cmp_truth, Truth, Value};
use std::borrow::Cow;

impl Ctx<'_> {
    /// Evaluate a scalar in tuple context. Attribute and constant reads
    /// borrow — the row stays where the relation keeps it — and only
    /// arithmetic produces an owned value.
    #[inline]
    pub(crate) fn scalar<'e>(
        &self,
        s: &'e CScalar<'_>,
        env: &'e Env<'_>,
    ) -> Result<Cow<'e, Value>> {
        match s {
            CScalar::Slot { frame, col } => Ok(Cow::Borrowed(
                &env.frames[*frame as usize].row()[*col as usize],
            )),
            CScalar::Const(v) => Ok(Cow::Borrowed(v)),
            CScalar::Arith { op, left, right } => {
                let l = self.scalar(left, env)?;
                let r = self.scalar(right, env)?;
                Ok(Cow::Owned(arith(*op, &l, &r)))
            }
            CScalar::Agg(_) => Err(EvalError::Internal(
                "aggregate slot evaluated outside its group".into(),
            )),
            CScalar::Raise(e) => Err((**e).clone()),
        }
    }

    /// Evaluate a predicate leaf to a truth value.
    #[inline]
    pub(crate) fn pred_truth(&self, p: &CPred<'_>, env: &Env<'_>) -> Result<Truth> {
        match p {
            CPred::Cmp { left, op, right } => {
                let l = self.scalar(left, env)?;
                let r = self.scalar(right, env)?;
                Ok(self.compare(&l, *op, &r))
            }
            CPred::IsNull { expr, negated } => {
                let v = self.scalar(expr, env)?;
                Ok(Truth::from_bool(v.is_null() != *negated))
            }
        }
    }

    /// Compare two values under the active null-logic convention: the
    /// shared three-valued table ([`arc_core::value::cmp_truth`], also the
    /// reference for the columnar kernels) followed by the convention's
    /// `Unknown` collapse.
    pub(crate) fn compare(&self, l: &Value, op: CmpOp, r: &Value) -> Truth {
        let t = cmp_truth(l, op, r);
        match self.shared.conv.null_logic {
            NullLogic::ThreeValued => t,
            NullLogic::TwoValued => {
                if t == Truth::Unknown {
                    Truth::False
                } else {
                    t
                }
            }
        }
    }
}

/// Null-propagating arithmetic; integer ops stay integral and wrap, `Div` follows
/// SQL integer division for integer operands, division by zero yields
/// `NULL` (documented deviation: SQL raises an error; an error value would
/// poison whole-query evaluation for a single bad tuple).
pub(crate) fn arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            ArithOp::Add => Value::Float(a + b),
            ArithOp::Sub => Value::Float(a - b),
            ArithOp::Mul => Value::Float(a * b),
            ArithOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
        },
        _ => Value::Null,
    }
}
