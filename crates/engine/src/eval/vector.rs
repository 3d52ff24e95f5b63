//! Vectorized scan execution: which pushed-down filters can run as
//! columnar kernels, selection-vector computation over a relation's
//! [column chunks](arc_core::column), and the columnar semi-join build.
//!
//! ## What vectorizes — and why only a *prefix*
//!
//! A pushed-down step filter is vectorizable when it compares an
//! attribute of the scanned variable against a constant (either side),
//! or null-tests such an attribute — exactly the shapes
//! [`ColumnChunk`](arc_core::column::ColumnChunk) has kernels for. Such
//! filters can never raise an evaluation error (the attribute is
//! verified against the schema at classification time; constants don't
//! error), so hoisting them out of the per-row loop cannot suppress an
//! error the row path would have reported. That guarantee only holds for
//! the *leading run* of vectorizable filters: a non-vectorizable filter
//! may error, and the row path evaluates filters strictly in order, so a
//! vectorizable filter *after* it must stay on the row path — otherwise
//! it could filter away the very row whose earlier filter would have
//! errored. [`classify`] is therefore applied to a prefix only (see
//! `Ctx::materialize_steps` in [`super::scope`]).
//!
//! Selection vectors keep ascending row order, so a vectorized scan
//! emits exactly the environments the row path would, in the same order
//! — invariant 12 (and, through morsel concatenation, invariant 9).

use super::semijoin::KeySet;
use arc_core::ast::{AttrRef, CmpOp, Predicate, Scalar};
use arc_core::column::{ColumnSet, Mask};
use arc_core::value::{Key, Value};

/// Scans below this row count stay on the row path: the encode/selection
/// bookkeeping would cost more than the per-row dispatch it saves.
/// Deliberately equal to the executor's partition threshold so the two
/// size gates tell one story.
pub(crate) const VECTOR_MIN_ROWS: usize = 16;

/// One vectorizable filter, resolved to a column of the scanned relation.
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

fn col_of(a: &AttrRef, var: &str, schema: &[String]) -> Option<usize> {
    if a.var != var {
        return None;
    }
    schema.iter().position(|s| s == &a.attr)
}

/// Classify one pushed-down filter of a scan over `var` (schema
/// `schema`): `Some` when it can run as a columnar kernel, `None` when it
/// must stay on the row path (outer references, arithmetic, aggregates,
/// or an attribute that does not resolve — the row path owns reporting
/// that error).
pub(crate) fn classify(p: &Predicate, var: &str, schema: &[String]) -> Option<VecFilter> {
    match p {
        Predicate::Cmp {
            left: Scalar::Attr(a),
            op,
            right: Scalar::Const(v),
        } => Some(VecFilter::Cmp {
            col: col_of(a, var, schema)?,
            op: *op,
            value: v.clone(),
        }),
        Predicate::Cmp {
            left: Scalar::Const(v),
            op,
            right: Scalar::Attr(a),
        } => Some(VecFilter::Cmp {
            col: col_of(a, var, schema)?,
            op: op.flipped(),
            value: v.clone(),
        }),
        Predicate::IsNull {
            expr: Scalar::Attr(a),
            negated,
        } => Some(VecFilter::IsNull {
            col: col_of(a, var, schema)?,
            negated: *negated,
        }),
        _ => None,
    }
}

/// Evaluate a conjunction of vectorized filters over all chunks,
/// returning the selected row indices in ascending order.
pub(crate) fn selection(cols: &ColumnSet, filters: &[VecFilter]) -> Vec<u32> {
    let mut out = Vec::new();
    for chunk in cols.chunks() {
        let mut mask = Mask::all_true(chunk.len());
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

/// Columnar semi-join build: assemble the correlated-key set straight
/// from the scan's column chunks. Per-chunk [`join_keys_into`]
/// (arc_core::column::ColumnChunk::join_keys_into) passes fill reusable
/// buffers — one allocation per chunk per key column, amortized to zero
/// across chunks — and the assembled row key is copied only on its first
/// occurrence in the set ([`KeySet::insert`]).
/// `sel` optionally restricts the scan to a selection vector (ascending
/// row ids, as [`selection`] produces); chunks with no selected rows
/// skip key decoding entirely. A `None` key component (NULL/NaN) drops
/// the row, matching `join_key` row semantics exactly.
pub(crate) fn build_key_set(cols: &ColumnSet, key_cols: &[usize], sel: Option<&[u32]>) -> KeySet {
    fn visit(i: usize, key_bufs: &[Vec<Option<Key>>], scratch: &mut Vec<Key>, set: &mut KeySet) {
        scratch.clear();
        for buf in key_bufs {
            match &buf[i] {
                Some(k) => scratch.push(k.clone()),
                None => return, // NULL/NaN component: matches no probe
            }
        }
        set.insert(scratch);
    }
    let mut set = KeySet::new(key_cols.len(), sel.map_or(cols.rows(), <[u32]>::len));
    let mut key_bufs: Vec<Vec<Option<Key>>> = vec![Vec::new(); key_cols.len()];
    let mut scratch: Vec<Key> = Vec::with_capacity(key_cols.len());
    let mut sel_from = 0usize;
    for chunk in cols.chunks() {
        let base = chunk.base();
        let end = base + chunk.len();
        if let Some(sel) = sel {
            let lo = sel_from;
            while sel_from < sel.len() && (sel[sel_from] as usize) < end {
                sel_from += 1;
            }
            if lo == sel_from {
                continue; // nothing selected here: skip the key decode
            }
            for (buf, &c) in key_bufs.iter_mut().zip(key_cols) {
                chunk.col(c).join_keys_into(buf);
            }
            for &rid in &sel[lo..sel_from] {
                visit(rid as usize - base, &key_bufs, &mut scratch, &mut set);
            }
        } else {
            for (buf, &c) in key_bufs.iter_mut().zip(key_cols) {
                chunk.col(c).join_keys_into(buf);
            }
            for i in 0..chunk.len() {
                visit(i, &key_bufs, &mut scratch, &mut set);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn pred_cmp(left: Scalar, op: CmpOp, right: Scalar) -> Predicate {
        Predicate::Cmp { left, op, right }
    }

    fn attr(var: &str, a: &str) -> Scalar {
        Scalar::Attr(AttrRef::new(var, a))
    }

    #[test]
    fn classify_accepts_const_filters_both_ways() {
        let schema = vec!["A".to_string(), "B".to_string()];
        let p = pred_cmp(attr("r", "B"), CmpOp::Lt, Scalar::Const(Value::Int(5)));
        match classify(&p, "r", &schema) {
            Some(VecFilter::Cmp {
                col: 1,
                op: CmpOp::Lt,
                ..
            }) => {}
            _ => panic!("attr-left const filter must classify"),
        }
        let p = pred_cmp(Scalar::Const(Value::Int(5)), CmpOp::Lt, attr("r", "B"));
        match classify(&p, "r", &schema) {
            // 5 < r.B ⇔ r.B > 5
            Some(VecFilter::Cmp {
                col: 1,
                op: CmpOp::Gt,
                ..
            }) => {}
            _ => panic!("const-left filter must classify flipped"),
        }
    }

    #[test]
    fn classify_rejects_other_vars_unknown_attrs_and_non_consts() {
        let schema = vec!["A".to_string()];
        let other_var = pred_cmp(attr("s", "A"), CmpOp::Eq, Scalar::Const(Value::Int(1)));
        assert!(classify(&other_var, "r", &schema).is_none());
        let unknown = pred_cmp(attr("r", "Z"), CmpOp::Eq, Scalar::Const(Value::Int(1)));
        assert!(
            classify(&unknown, "r", &schema).is_none(),
            "unresolvable attrs stay on the row path, which owns the error"
        );
        let join = pred_cmp(attr("r", "A"), CmpOp::Eq, attr("s", "A"));
        assert!(classify(&join, "r", &schema).is_none());
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

    #[test]
    fn columnar_key_set_matches_row_built_set() {
        let rel = Relation::from_rows(
            "R",
            &["A", "B"],
            (0..2600i64)
                .map(|i| {
                    vec![
                        match i % 6 {
                            0 => Value::Null,
                            1 => Value::Float(f64::NAN),
                            2 => Value::Float((i % 40) as f64), // integral: keys as Int
                            _ => Value::Int(i % 40),
                        },
                        Value::Int(i % 9),
                    ]
                })
                .collect(),
        );
        let key_cols = [0usize, 1];
        let row_set = |rows: &[usize]| -> std::collections::HashSet<Vec<Key>> {
            rows.iter()
                .filter_map(|&i| Relation::key_for(&rel.rows[i], &key_cols))
                .collect()
        };
        // Unselective (full scan) build.
        let all: Vec<usize> = (0..rel.rows.len()).collect();
        assert_eq!(
            build_key_set(&rel.columns(), &key_cols, None),
            KeySet::Many(row_set(&all))
        );
        // Selection-restricted build, with whole chunks filtered out.
        let filters = [VecFilter::Cmp {
            col: 1,
            op: CmpOp::Eq,
            value: Value::Int(4),
        }];
        let sel = selection(&rel.columns(), &filters);
        let picked: Vec<usize> = sel.iter().map(|&r| r as usize).collect();
        assert_eq!(
            build_key_set(&rel.columns(), &key_cols, Some(&sel)),
            KeySet::Many(row_set(&picked))
        );
        // Empty selection builds an empty set without touching key data.
        assert_eq!(build_key_set(&rel.columns(), &key_cols, Some(&[])).len(), 0);
    }
}
