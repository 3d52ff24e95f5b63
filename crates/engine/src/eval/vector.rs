//! Vectorized scan execution: which pushed-down filters can run as
//! columnar kernels, and selection-vector computation over a relation's
//! [column chunks](arc_core::column).
//!
//! ## What vectorizes — and why only a *prefix*
//!
//! A pushed-down step filter of a scan runs on a column kernel when one
//! side is an attribute of the scanned variable — alone, or `±` a
//! *scan-invariant* scalar — and the other side is scan-invariant, or
//! when it null-tests such an attribute. Scan-invariant means built from
//! constants and slots of frames already bound when the step is entered:
//! its value is fixed for the whole candidate loop of one entry.
//! [`classify`] sorts such a filter into one of two kinds:
//!
//! * **constant** ([`VecFilter`]: `var.col op const`, `IS [NOT] NULL`) —
//!   the same for every entry, so its selection vector is computed once
//!   and cached per query (correlated scopes re-enter for free);
//! * **per-entry** ([`EntryFilter`]: `var.col [± inv] op inv`, e.g.
//!   Eq 19's `r.B - s.B > t.B` under bound `s` and `t`) — the invariant
//!   sides are evaluated once per entry into the step, then each chunk's
//!   mask narrows through the typed `Int`/`Float` kernels
//!   ([`ColumnChunk::and_cmp`](arc_core::column::ColumnChunk::and_cmp),
//!   [`ColumnChunk::and_offset_cmp`](arc_core::column::ColumnChunk::and_offset_cmp)),
//!   which follow the evaluator's `arith` and `cmp_truth` exactly
//!   (`Int` wraps, `/ 0` is `NULL`, `NULL` propagates, `NaN` is
//!   incomparable). A chunk whose payload has no typed loop (`Mixed`,
//!   `Str`, `Bool`, all-`NULL`) falls back, for that chunk, to `arith` +
//!   `cmp_truth` per selected row.
//!
//! Neither kind can raise an evaluation error: the attribute is resolved
//! at compile time, constants and bound slots don't error, and
//! arithmetic yields `NULL` rather than failing. So hoisting them out of
//! the per-row loop cannot suppress an error the row path would have
//! reported. That guarantee only holds for the *leading run* of
//! classifiable filters: an unclassifiable filter may error, and the row
//! path evaluates filters strictly in order, so a classifiable filter
//! *after* it must stay on the row path — otherwise it could filter away
//! the very row whose earlier filter would have errored. [`classify`] is
//! therefore applied to a prefix only (see `Ctx::materialize_steps` in
//! [`super::scope`]). What stays on the row path: filters comparing two
//! columns of the scanned row, aggregates, unresolvable names, and
//! arithmetic other than `attr ± inv` on the attribute's side.
//!
//! Selection vectors keep ascending row order, so a vectorized scan
//! emits exactly the environments the row path would, in the same order
//! — invariant 12 (and, through morsel concatenation, invariant 9).

use super::scalar::arith;
use super::slots::{CPred, CScalar};
use crate::relation::Rows;
use arc_core::ast::{ArithOp, CmpOp};
use arc_core::column::{ColumnSet, Mask, CHUNK_ROWS};
use arc_core::value::{cmp_truth, Value};
use std::borrow::Cow;
use std::ops::Range;

/// Scans below this row count stay on the row path: the encode/selection
/// bookkeeping would cost more than the per-row dispatch it saves.
/// Deliberately equal to the executor's partition threshold so the two
/// size gates tell one story.
pub(crate) const VECTOR_MIN_ROWS: usize = 16;

/// One constant kernel filter, resolved to a column of the scanned
/// relation.
pub(crate) enum VecFilter {
    /// `var.col op const` (a constant on the left arrives pre-flipped).
    Cmp {
        /// Column index into the scanned relation's schema.
        col: usize,
        /// The comparison, normalized to attribute-on-the-left.
        op: CmpOp,
        /// The constant side.
        value: Value,
    },
    /// `var.col IS [NOT] NULL`.
    IsNull {
        /// Column index into the scanned relation's schema.
        col: usize,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

/// One per-entry kernel filter: `var.col [± offset] op rhs`, `offset`
/// and `rhs` scan-invariant (a filter with the attribute on the right
/// arrives flipped).
pub(crate) struct EntryFilter<'a> {
    /// Column index into the scanned relation's schema.
    pub(crate) col: usize,
    /// `Add` or `Sub`, and the invariant the attribute is offset by.
    pub(crate) offset: Option<(ArithOp, CScalar<'a>)>,
    /// The comparison, normalized to attribute-on-the-left.
    pub(crate) op: CmpOp,
    /// The invariant right side.
    pub(crate) rhs: CScalar<'a>,
}

impl EntryFilter<'_> {
    /// The row path's verdict on one row, the invariant sides evaluated
    /// (`offset` is ignored when the filter has none).
    pub(crate) fn passes(&self, row: &[Value], offset: &Value, rhs: &Value) -> bool {
        let x = &row[self.col];
        let lhs = match self.offset {
            Some((op, _)) => Cow::Owned(arith(op, x, offset)),
            None => Cow::Borrowed(x),
        };
        cmp_truth(&lhs, self.op, rhs).is_true()
    }
}

/// A classified filter: which kernel runs it.
pub(crate) enum Kernel<'a> {
    Const(VecFilter),
    Entry(EntryFilter<'a>),
}

/// Whether `s` is fixed for one entry into the step binding stack
/// position `frame`: built from constants and earlier frames' slots.
fn invariant(s: &CScalar<'_>, frame: usize) -> bool {
    match s {
        CScalar::Slot { frame: f, .. } => (*f as usize) < frame,
        CScalar::Const(_) => true,
        CScalar::Arith { left, right, .. } => invariant(left, frame) && invariant(right, frame),
        CScalar::Agg(_) | CScalar::Raise(_) => false,
    }
}

/// The scanned attribute's column, when `s` is a slot of `frame`.
fn attr(s: &CScalar<'_>, frame: usize) -> Option<usize> {
    match s {
        CScalar::Slot { frame: f, col } if *f as usize == frame => Some(*col as usize),
        _ => None,
    }
}

/// Whether `s` is `attr [± offset]` over `frame`, `offset` invariant.
/// `inv + attr` is accepted too (both `Int` and `f64` addition commute);
/// `inv - attr` is not.
fn offset_attr(s: &CScalar<'_>, frame: usize) -> bool {
    match s {
        CScalar::Slot { .. } => attr(s, frame).is_some(),
        CScalar::Arith { op, left, right } => match op {
            ArithOp::Add => {
                (attr(left, frame).is_some() && invariant(right, frame))
                    || (attr(right, frame).is_some() && invariant(left, frame))
            }
            ArithOp::Sub => attr(left, frame).is_some() && invariant(right, frame),
            ArithOp::Mul | ArithOp::Div => false,
        },
        _ => false,
    }
}

/// Split an [`offset_attr`] side into its column and offset.
fn split<'a>(s: CScalar<'a>, frame: usize) -> (usize, Option<(ArithOp, CScalar<'a>)>) {
    match s {
        CScalar::Slot { col, .. } => (col as usize, None),
        CScalar::Arith { op, left, right } => match attr(&left, frame) {
            Some(col) => (col, Some((op, *right))),
            None => (attr(&right, frame).expect("checked"), Some((op, *left))),
        },
        _ => unreachable!("checked by offset_attr"),
    }
}

/// Classify one pushed-down filter of a scan whose rows bind stack
/// position `frame`, resolved against the step's layout: which kernel
/// runs it, or the filter back when it must stay on the row path (see
/// the module docs).
pub(crate) fn classify<'a>(p: CPred<'a>, frame: usize) -> Result<Kernel<'a>, CPred<'a>> {
    let (side, op, other) = match p {
        CPred::IsNull { expr, negated } => {
            return match attr(&expr, frame) {
                Some(col) => Ok(Kernel::Const(VecFilter::IsNull { col, negated })),
                None => Err(CPred::IsNull { expr, negated }),
            }
        }
        CPred::Cmp { left, op, right } => {
            if offset_attr(&left, frame) && invariant(&right, frame) {
                (left, op, right)
            } else if offset_attr(&right, frame) && invariant(&left, frame) {
                (right, op.flipped(), left)
            } else {
                return Err(CPred::Cmp { left, op, right });
            }
        }
    };
    Ok(match (split(side, frame), other) {
        ((col, None), CScalar::Const(value)) => Kernel::Const(VecFilter::Cmp {
            col,
            op,
            value: value.clone(),
        }),
        ((col, offset), rhs) => Kernel::Entry(EntryFilter {
            col,
            offset,
            op,
            rhs,
        }),
    })
}

/// Evaluate a conjunction of vectorized filters over all chunks,
/// returning the selected row indices in ascending order.
pub(crate) fn selection(cols: &ColumnSet, filters: &[VecFilter]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut mask = Mask::default();
    for chunk in cols.chunks() {
        mask.select_range(chunk.len(), 0..chunk.len());
        for f in filters {
            match f {
                VecFilter::Cmp { col, op, value } => chunk.col(*col).and_cmp(*op, value, &mut mask),
                VecFilter::IsNull { col, negated } => {
                    chunk.col(*col).and_is_null(*negated, &mut mask)
                }
            }
            if !mask.any() {
                break;
            }
        }
        mask.indices_into(chunk.base() as u32, &mut out);
    }
    out
}

/// One entry's candidate rows through its per-entry kernels: `base`
/// (ascending row ids inside `range`) when the step has a selection,
/// else every row of `range`, narrowed chunk by chunk and appended to
/// `out` in ascending order. `vals` holds each filter's evaluated offset
/// (any value when it has none) and right side, in filter order. `mask`
/// is reused scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn entry_selection(
    cols: &ColumnSet,
    rows: &Rows,
    range: Range<usize>,
    base: Option<&[u32]>,
    filters: &[EntryFilter<'_>],
    vals: &[Value],
    mask: &mut Mask,
    out: &mut Vec<u32>,
) {
    let chunks = &cols.chunks()[range.start / CHUNK_ROWS..range.end.div_ceil(CHUNK_ROWS)];
    let mut next = 0; // into `base`
    for chunk in chunks {
        let at = chunk.base();
        let end = at + chunk.len();
        match base {
            Some(ids) => {
                mask.select_range(chunk.len(), 0..0);
                let from = next;
                while next < ids.len() && (ids[next] as usize) < end {
                    mask.select(ids[next] as usize - at);
                    next += 1;
                }
                if from == next {
                    continue; // nothing selected here
                }
            }
            None => {
                let lo = range.start.max(at) - at;
                mask.select_range(chunk.len(), lo..range.end.min(end) - at);
            }
        }
        for (f, vals) in filters.iter().zip(vals.chunks(2)) {
            let (offset, rhs) = (&vals[0], &vals[1]);
            let col = chunk.col(f.col);
            let typed = match f.offset {
                None => {
                    col.and_cmp(f.op, rhs, mask);
                    true
                }
                Some((op, _)) => col.and_offset_cmp(op, offset, f.op, rhs, mask),
            };
            if !typed {
                // No typed loop for this payload: the row path's
                // `arith` + `cmp_truth` over the chunk's selected rows.
                mask.retain(|i| f.passes(&rows[at + i], offset, rhs));
            }
            if !mask.any() {
                break;
            }
        }
        mask.indices_into(at as u32, out);
    }
}

/// Row-at-a-time check of a vectorized-filter conjunction, with exactly
/// the kernels' semantics (`cmp_truth` / null-test). The index-range
/// path uses this to run the demoted constant filters over the (few)
/// index survivors instead of paying a whole-column kernel pass — same
/// rows selected either way.
pub(crate) fn row_passes(row: &[Value], filters: &[VecFilter]) -> bool {
    filters.iter().all(|f| match f {
        VecFilter::Cmp { col, op, value } => {
            arc_core::value::cmp_truth(&row[*col], *op, value).is_true()
        }
        VecFilter::IsNull { col, negated } => row[*col].is_null() != *negated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    use crate::eval::env::Names;
    use crate::eval::slots::Resolver;
    use arc_core::ast::{AttrRef, Predicate, Scalar};

    fn pred_cmp(left: Scalar, op: CmpOp, right: Scalar) -> Predicate {
        Predicate::Cmp { left, op, right }
    }

    fn attr(var: &str, a: &str) -> Scalar {
        Scalar::Attr(AttrRef::new(var, a))
    }

    fn arith(op: ArithOp, left: Scalar, right: Scalar) -> Scalar {
        Scalar::Arith {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Classify `p` for a scan of `r(A, B)` bound at stack position 1,
    /// under an outer `s(A, B)` at position 0.
    fn classified(p: &Predicate, check: impl FnOnce(Result<Kernel<'_>, CPred<'_>>)) {
        let schema = ["A".to_string(), "B".to_string()];
        let layout = [
            Names {
                var: "s",
                attrs: &schema,
            },
            Names {
                var: "r",
                attrs: &schema,
            },
        ];
        check(classify(Resolver::tuple(&layout).pred(p), 1));
    }

    #[test]
    fn classify_accepts_const_filters_both_ways() {
        let p = pred_cmp(attr("r", "B"), CmpOp::Lt, Scalar::Const(Value::Int(5)));
        classified(&p, |k| match k {
            Ok(Kernel::Const(VecFilter::Cmp {
                col: 1,
                op: CmpOp::Lt,
                ..
            })) => {}
            _ => panic!("attr-left const filter must classify"),
        });
        let p = pred_cmp(Scalar::Const(Value::Int(5)), CmpOp::Lt, attr("r", "B"));
        classified(&p, |k| match k {
            // 5 < r.B ⇔ r.B > 5
            Ok(Kernel::Const(VecFilter::Cmp {
                col: 1,
                op: CmpOp::Gt,
                ..
            })) => {}
            _ => panic!("const-left filter must classify flipped"),
        });
    }

    #[test]
    fn classify_accepts_per_entry_filters() {
        // Eq 19's shape: r.B - s.B > s.A, the offset kept on r's side.
        let p = pred_cmp(
            arith(ArithOp::Sub, attr("r", "B"), attr("s", "B")),
            CmpOp::Gt,
            attr("s", "A"),
        );
        classified(&p, |k| match k {
            Ok(Kernel::Entry(EntryFilter {
                col: 1,
                offset: Some((ArithOp::Sub, CScalar::Slot { frame: 0, col: 1 })),
                op: CmpOp::Gt,
                rhs: CScalar::Slot { frame: 0, col: 0 },
            })) => {}
            _ => panic!("attr - outer vs outer must run per entry"),
        });
        // s.A + 1 <= s.B + r.A ⇔ r.A + s.B >= s.A + 1: an arithmetic
        // invariant, and `inv + attr`.
        let p = pred_cmp(
            arith(ArithOp::Add, attr("s", "A"), Scalar::Const(Value::Int(1))),
            CmpOp::Le,
            arith(ArithOp::Add, attr("s", "B"), attr("r", "A")),
        );
        classified(&p, |k| match k {
            Ok(Kernel::Entry(EntryFilter {
                col: 0,
                offset: Some((ArithOp::Add, CScalar::Slot { frame: 0, col: 1 })),
                op: CmpOp::Ge,
                rhs: CScalar::Arith { .. },
            })) => {}
            _ => panic!("inv + attr vs an arithmetic invariant must run per entry"),
        });
    }

    #[test]
    fn classify_rejects_other_vars_unknown_attrs_and_non_consts() {
        let rejected = |p: Predicate, why: &str| {
            classified(&p, |k| assert!(k.is_err(), "{why}: {p}"));
        };
        rejected(
            pred_cmp(attr("s", "A"), CmpOp::Eq, Scalar::Const(Value::Int(1))),
            "another variable's attribute",
        );
        rejected(
            pred_cmp(attr("r", "Z"), CmpOp::Eq, Scalar::Const(Value::Int(1))),
            "unresolvable attrs stay on the row path, which owns the error",
        );
        rejected(
            pred_cmp(attr("r", "A"), CmpOp::Eq, attr("r", "B")),
            "two columns of the scanned row",
        );
        rejected(
            pred_cmp(
                arith(ArithOp::Sub, attr("s", "A"), attr("r", "A")),
                CmpOp::Gt,
                Scalar::Const(Value::Int(0)),
            ),
            "inv - attr",
        );
        rejected(
            pred_cmp(
                arith(ArithOp::Mul, attr("r", "A"), attr("s", "A")),
                CmpOp::Gt,
                Scalar::Const(Value::Int(0)),
            ),
            "attr * inv",
        );
    }

    #[test]
    fn selection_matches_row_filtering() {
        let rel = Relation::from_rows(
            "R",
            &["A", "B"],
            (0..3000i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i % 10)
                        },
                    ]
                })
                .collect(),
        );
        let filters = vec![
            VecFilter::Cmp {
                col: 1,
                op: CmpOp::Ge,
                value: Value::Int(8),
            },
            VecFilter::IsNull {
                col: 1,
                negated: true,
            },
        ];
        let sel = selection(&rel.columns(), &filters);
        let want: Vec<u32> = rel
            .rows
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                arc_core::value::cmp_truth(&row[1], CmpOp::Ge, &Value::Int(8)).is_true()
                    && !row[1].is_null()
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, want);
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "ascending order");
    }
}
