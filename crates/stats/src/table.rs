//! Per-relation statistics: the `ANALYZE` pass and multi-column
//! distinct-key estimation.

use crate::column::ColumnStats;
use crate::histogram::Histogram;
use crate::sketch::{combine_hashes, hash_key, DistinctSketch, RowSketch};
use arc_core::ast::CmpOp;
use arc_core::column::{ColumnChunk, ColumnData, ColumnSet};
use arc_core::rows::Rows;
use arc_core::value::{Key, Value};
use std::collections::HashMap;

/// Buckets per equi-depth histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Maximum entries per most-common-values list.
pub const MCV_ENTRIES: usize = 8;

/// ANALYZE samples at most this many rows for histograms and MCV lists
/// (strided over the whole relation, so late skew is still seen); the
/// distinct sketches and null/min/max counts always stream every row.
pub const SAMPLE_CAP: usize = 8192;

/// Statistics of one relation: one [`ColumnStats`] per schema position
/// plus a whole-row distinct estimate (the correlation bound).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Total rows at ANALYZE time.
    pub rows: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
    /// Estimated distinct whole rows (grouping-key semantics). Any column
    /// subset projects *onto* the full row, so this upper-bounds every
    /// multi-column distinct estimate — which is what lets
    /// [`TableStats::distinct_cols`] stay sane on correlated keys.
    pub row_distinct: u64,
}

impl TableStats {
    /// The `ANALYZE` pass: summarize `rows` (each of width `arity`).
    ///
    /// Relations that fit in the sample (up to [`SAMPLE_CAP`] rows — in
    /// particular everything the catalog auto-analyzes at registration)
    /// are counted **exactly**: distinct counts come from the value-
    /// frequency maps and the whole-row count from a key set, with no
    /// sketch hashing at all. Larger relations stream every row through
    /// the register sketches (per column + whole row) for null/min/max
    /// and distinct counts, and build histograms/MCV lists from a strided
    /// sample (counts scaled back to the full relation; the stride covers
    /// the whole relation, so late skew is still seen). Histograms build
    /// straight from the sampled value *frequencies* in run-length form —
    /// no per-column sorted multiset is ever materialized.
    ///
    /// On the sketch path a cell is hashed once ([`hash_key`]): a value's
    /// join key is its grouping key unless it is `NULL`/`NaN`, so the one
    /// hash updates the column's sketch and folds into the row's hash.
    ///
    /// [`TableStats::analyze_chunks`] computes the same statistics from a
    /// columnar encoding, one typed pass per column — this pass is the
    /// reference its equality test compares against.
    pub fn analyze<R>(arity: usize, rows: R) -> TableStats
    where
        R: IntoIterator + Copy,
        R::IntoIter: ExactSizeIterator,
        R::Item: AsRef<[Value]>,
    {
        let n = rows.into_iter().len();
        let stride = n.div_ceil(SAMPLE_CAP).max(1);
        let exact = stride == 1;

        let mut sketches: Vec<DistinctSketch> = vec![DistinctSketch::new(); arity];
        let mut nulls: Vec<u64> = vec![0; arity];
        let mut mins: Vec<Option<Key>> = vec![None; arity];
        let mut maxs: Vec<Option<Key>> = vec![None; arity];
        let mut row_sketch = RowSketch::new();
        let mut exact_rows: std::collections::HashSet<Vec<Key>> = Default::default();

        for row in rows {
            let row = row.as_ref();
            let mut row_hash: u64 = 0;
            for (c, v) in row.iter().enumerate() {
                match v.join_key() {
                    // NULL/NaN: no join key, but a grouping key — only
                    // the row hash sees the cell.
                    None => {
                        nulls[c] += 1;
                        if !exact {
                            row_hash = combine_hashes(row_hash, hash_key(&v.key()));
                        }
                    }
                    // Otherwise the two keys are the same key: one hash
                    // feeds the column sketch and the row-hash fold.
                    Some(k) => {
                        if !exact {
                            let h = hash_key(&k);
                            sketches[c].insert_hash(h);
                            row_hash = combine_hashes(row_hash, h);
                        }
                        if mins[c].as_ref().is_none_or(|m| &k < m) {
                            mins[c] = Some(k.clone());
                        }
                        if maxs[c].as_ref().is_none_or(|m| &k > m) {
                            maxs[c] = Some(k);
                        }
                    }
                }
            }
            if exact {
                exact_rows.insert(row.iter().map(Value::key).collect());
            } else {
                row_sketch.insert_hash(row_hash);
            }
        }

        // Strided sample for value frequencies (the full relation when
        // exact).
        let mut counts: Vec<HashMap<Key, u64>> = vec![HashMap::new(); arity];
        for row in rows.into_iter().step_by(stride) {
            for (c, v) in row.as_ref().iter().enumerate() {
                if let Some(k) = v.join_key() {
                    *counts[c].entry(k).or_insert(0) += 1;
                }
            }
        }

        let columns = (0..arity)
            .map(|c| {
                column_stats(
                    n,
                    stride,
                    exact,
                    &counts[c],
                    nulls[c],
                    &mins[c],
                    &maxs[c],
                    &sketches[c],
                )
            })
            .collect();

        let row_distinct = if exact {
            exact_rows.len() as u64
        } else {
            row_sketch.estimate().max(1)
        };
        TableStats {
            rows: n as u64,
            columns,
            row_distinct,
        }
    }

    /// [`TableStats::analyze`] over a columnar encoding: one typed pass
    /// per column straight off the chunk slices, instead of decoding
    /// every row cell-by-cell. Produces **identical** statistics to the
    /// row-at-a-time pass — `cols` must encode exactly `rows` (callers
    /// hold both; the engine's `Relation` keeps them in sync).
    ///
    /// `Int`, `Float` and `Bool` chunks fold on their native slices (an
    /// `Int` chunk keeps its min/max as `i64`s and builds a [`Key`] only
    /// for a sampled cell); string and mixed chunks go through a reused
    /// join-key buffer. Every cell is hashed once: the same hash updates
    /// the column's sketch and, folded in schema order, the cell's row
    /// hash — in the one pass over the column.
    pub fn analyze_chunks(rows: &Rows, cols: &ColumnSet) -> TableStats {
        let (arity, n) = (rows.arity(), cols.rows());
        debug_assert_eq!(n, rows.len(), "columns must encode the given rows");
        let stride = n.div_ceil(SAMPLE_CAP).max(1);
        let exact = stride == 1;

        // Row hashes, folded column by column (sketch path only).
        let mut row_hashes: Vec<u64> = if exact { Vec::new() } else { vec![0; n] };
        let mut key_buf: Vec<Option<Key>> = Vec::new();
        let columns = (0..arity)
            .map(|c| {
                let mut fold = ColumnFold::new(stride);
                for chunk in cols.chunks() {
                    let col = chunk.col(c);
                    let base = chunk.base();
                    let hashes = (!exact).then(|| &mut row_hashes[base..base + chunk.len()]);
                    match col.data() {
                        ColumnData::Int(xs) => fold.int_chunk(xs, col, base, hashes),
                        ColumnData::Float(xs) => {
                            fold.cells(col, base, hashes, |i| Value::Float(xs[i]).join_key())
                        }
                        ColumnData::Bool(xs) => {
                            fold.cells(col, base, hashes, |i| Some(Key::Bool(xs[i])))
                        }
                        ColumnData::Str(_) | ColumnData::Mixed(_) | ColumnData::Null => {
                            col.join_keys_into(&mut key_buf);
                            fold.cells(col, base, hashes, |i| key_buf[i].take())
                        }
                    }
                }
                column_stats(
                    n,
                    stride,
                    exact,
                    &fold.counts,
                    fold.nulls,
                    &fold.min,
                    &fold.max,
                    &fold.sketch,
                )
            })
            .collect();

        // Whole-row distinct: the exact path needs real grouping keys (a
        // key set); the sketch path feeds the folded row hashes.
        let row_distinct = if exact {
            let mut exact_rows: std::collections::HashSet<Vec<Key>> = Default::default();
            for row in rows {
                exact_rows.insert(row.iter().map(Value::key).collect());
            }
            exact_rows.len() as u64
        } else {
            let mut row_sketch = RowSketch::new();
            for h in row_hashes {
                row_sketch.insert_hash(h);
            }
            row_sketch.estimate().max(1)
        };
        TableStats {
            rows: n as u64,
            columns,
            row_distinct,
        }
    }

    /// Estimated distinct join keys over the column set `cols`.
    ///
    /// A single column answers from its sketch. A multi-column key starts
    /// from the independence estimate (the product of per-column distinct
    /// counts) and then clamps it into the bounds that hold regardless of
    /// correlation: at least the largest single-column count, at most the
    /// whole-row distinct count (projection only merges rows) and the row
    /// count itself. Correlated keys — where the product wildly
    /// overshoots — land on the upper bound instead of the fantasy.
    pub fn distinct_cols(&self, cols: &[usize]) -> u64 {
        let ds: Vec<u64> = cols
            .iter()
            .filter_map(|&c| self.columns.get(c))
            .map(|c| c.distinct.max(1))
            .collect();
        match ds.as_slice() {
            [] => 1,
            [one] => (*one).min(self.rows.max(1)),
            many => {
                let prod = many
                    .iter()
                    .try_fold(1u64, |acc, &d| acc.checked_mul(d))
                    .unwrap_or(u64::MAX);
                let lower = *many.iter().max().expect("non-empty");
                let upper = self.rows.max(1).min(self.row_distinct.max(lower));
                prod.clamp(lower, upper.max(lower))
            }
        }
    }

    /// Estimated fraction of rows satisfying `cols[col] op value`
    /// (delegates to [`ColumnStats::cmp_selectivity`]).
    pub fn selectivity(&self, col: usize, op: CmpOp, value: &Value) -> Option<f64> {
        self.columns.get(col).map(|c| c.cmp_selectivity(op, value))
    }

    /// Estimated fraction of rows whose column `col` lies in the interval
    /// `lo ∧ hi` (delegates to [`ColumnStats::range_selectivity`]) — the
    /// quantity the planner prices an index-range bound prefix by.
    pub fn range_selectivity(
        &self,
        col: usize,
        lo: Option<(CmpOp, &Value)>,
        hi: Option<(CmpOp, &Value)>,
    ) -> Option<f64> {
        self.columns.get(col).map(|c| c.range_selectivity(lo, hi))
    }
}

/// One column's streamed aggregates during [`TableStats::analyze_chunks`].
struct ColumnFold {
    stride: usize,
    sketch: DistinctSketch,
    nulls: u64,
    min: Option<Key>,
    max: Option<Key>,
    counts: HashMap<Key, u64>,
}

impl ColumnFold {
    fn new(stride: usize) -> ColumnFold {
        ColumnFold {
            stride,
            sketch: DistinctSketch::new(),
            nulls: 0,
            min: None,
            max: None,
            counts: HashMap::new(),
        }
    }

    /// Widen the column's min/max by `k` (the workspace's `Key` order).
    fn widen(&mut self, k: &Key) {
        if self.min.as_ref().is_none_or(|m| k < m) {
            self.min = Some(k.clone());
        }
        if self.max.as_ref().is_none_or(|m| k > m) {
            self.max = Some(k.clone());
        }
    }

    /// Fold a chunk cell by cell: `join_key(i)` is slot `i`'s join key
    /// (only asked of non-`NULL` slots). `hashes` are the chunk's row
    /// hashes on the sketch path, `None` on the exact one.
    fn cells(
        &mut self,
        col: &ColumnChunk,
        base: usize,
        mut hashes: Option<&mut [u64]>,
        mut join_key: impl FnMut(usize) -> Option<Key>,
    ) {
        let null_hash = hash_key(&Key::Null);
        let nan_hash = hash_key(&Value::Float(f64::NAN).key());
        for i in 0..col.len() {
            let valid = col.is_valid(i);
            let key = if valid { join_key(i) } else { None };
            if let Some(hashes) = hashes.as_deref_mut() {
                let h = match &key {
                    // The join key is the grouping key: one hash feeds
                    // the column sketch and the row-hash fold.
                    Some(k) => {
                        let h = hash_key(k);
                        self.sketch.insert_hash(h);
                        h
                    }
                    // No join key but still a grouping key, which only
                    // the row hash sees: a NaN (the slot is valid) or NULL.
                    None if valid => nan_hash,
                    None => null_hash,
                };
                hashes[i] = combine_hashes(hashes[i], h);
            }
            match key {
                None => self.nulls += 1,
                Some(k) => {
                    self.widen(&k);
                    if (base + i).is_multiple_of(self.stride) {
                        *self.counts.entry(k).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    /// [`ColumnFold::cells`] for an `Int` chunk: min/max stay native and a
    /// key is built only for the sampled cells.
    fn int_chunk(
        &mut self,
        xs: &[i64],
        col: &ColumnChunk,
        base: usize,
        mut hashes: Option<&mut [u64]>,
    ) {
        let null_hash = hash_key(&Key::Null);
        let mut range: Option<(i64, i64)> = None;
        for (i, &x) in xs.iter().enumerate() {
            let valid = col.is_valid(i);
            if valid {
                range = Some(range.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
                if (base + i).is_multiple_of(self.stride) {
                    *self.counts.entry(Key::Int(x)).or_insert(0) += 1;
                }
            } else {
                self.nulls += 1;
            }
            if let Some(hashes) = hashes.as_deref_mut() {
                let h = if valid {
                    let h = hash_key(&Key::Int(x));
                    self.sketch.insert_hash(h);
                    h
                } else {
                    null_hash
                };
                hashes[i] = combine_hashes(hashes[i], h);
            }
        }
        if let Some((lo, hi)) = range {
            self.widen(&Key::Int(lo));
            self.widen(&Key::Int(hi));
        }
    }
}

/// Finalize one column's statistics from its streamed aggregates — shared
/// by the row-at-a-time and columnar analyze passes, so the two produce
/// bit-identical results by construction.
#[allow(clippy::too_many_arguments)]
fn column_stats(
    n: usize,
    stride: usize,
    exact: bool,
    counts: &HashMap<Key, u64>,
    nulls: u64,
    min: &Option<Key>,
    max: &Option<Key>,
    sketch: &DistinctSketch,
) -> ColumnStats {
    let distinct = if exact {
        counts.len() as u64
    } else {
        sketch.estimate().max(1)
    };
    // MCV: the top raw sample counts. A value must be *seen* at least
    // twice (a once-sampled value scaled by the stride is noise, not a
    // frequency) and its scaled frequency must beat the column average
    // (a uniform column keeps an empty list).
    let mut by_freq: Vec<(Key, u64)> = counts.iter().map(|(k, c)| (k.clone(), *c)).collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let non_null = (n as u64).saturating_sub(nulls);
    let avg = non_null as f64 / distinct.max(1) as f64;
    let mcv: Vec<(Key, u64)> = by_freq
        .into_iter()
        .take(MCV_ENTRIES)
        .filter(|(_, raw)| *raw >= 2)
        .map(|(k, raw)| (k, raw * stride as u64))
        .filter(|(_, scaled)| *scaled as f64 > avg)
        .collect();
    // Histogram over the sampled non-null value frequencies, in
    // run-length form: [`Histogram::build_weighted`] places the same
    // fenceposts the expanded multiset would, without materializing it.
    let mut by_key: Vec<(Key, u64)> = counts.iter().map(|(k, c)| (k.clone(), *c)).collect();
    by_key.sort_by(|a, b| a.0.cmp(&b.0));
    ColumnStats {
        rows: n as u64,
        nulls,
        distinct,
        min: min.clone(),
        max: max.clone(),
        mcv,
        histogram: Histogram::build_weighted(&by_key, HISTOGRAM_BUCKETS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_ab(pairs: &[(i64, i64)]) -> Vec<Vec<Value>> {
        pairs
            .iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
            .collect()
    }

    #[test]
    fn analyze_counts_nulls_min_max() {
        let rows = vec![
            vec![Value::Int(3), Value::Null],
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Float(f64::NAN), Value::Int(9)],
        ];
        let ts = TableStats::analyze(2, &rows);
        assert_eq!(ts.rows, 3);
        assert_eq!(ts.columns[0].nulls, 1); // NaN never joins
        assert_eq!(ts.columns[1].nulls, 1);
        assert_eq!(ts.columns[0].min, Some(Key::Int(1)));
        assert_eq!(ts.columns[0].max, Some(Key::Int(3)));
        assert_eq!(ts.columns[1].distinct, 2);
    }

    #[test]
    fn correlated_keys_clamp_to_row_distinct() {
        // A and B are perfectly correlated (B = A): the independence
        // product says 100 × 100 = 10000 distinct pairs; the truth is 100.
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let ts = TableStats::analyze(2, &rows_ab(&pairs));
        let d = ts.distinct_cols(&[0, 1]);
        assert_eq!(d, 100, "correlation bound must cap the product");
    }

    #[test]
    fn independent_keys_keep_the_product() {
        // 10 × 10 grid: 100 distinct pairs over 100 rows.
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i / 10)).collect();
        let ts = TableStats::analyze(2, &rows_ab(&pairs));
        assert_eq!(ts.distinct_cols(&[0]), 10);
        assert_eq!(ts.distinct_cols(&[1]), 10);
        assert_eq!(ts.distinct_cols(&[0, 1]), 100);
    }

    #[test]
    fn mcv_captures_skew() {
        // 0 appears 91 times, 1..=9 once each.
        let pairs: Vec<(i64, i64)> = (0..100)
            .map(|i| (if i < 91 { 0 } else { i - 90 }, i))
            .collect();
        let ts = TableStats::analyze(2, &rows_ab(&pairs));
        let c = &ts.columns[0];
        assert_eq!(c.mcv.first(), Some(&(Key::Int(0), 91)));
        let hot = c.eq_selectivity(&Value::Int(0));
        assert!((hot - 0.91).abs() < 1e-9, "{hot}");
        let cold = c.eq_selectivity(&Value::Int(5));
        assert!(cold < 0.02, "{cold}");
    }

    #[test]
    fn empty_relation_analyzes() {
        let ts = TableStats::analyze(2, &Rows::new(2));
        assert_eq!(ts.rows, 0);
        assert_eq!(ts.columns.len(), 2);
        assert_eq!(ts.columns[0].eq_selectivity(&Value::Int(1)), 0.0);
        assert_eq!(ts.distinct_cols(&[0, 1]), 1);
    }

    #[test]
    fn sampled_mcv_requires_repeated_observations() {
        // 40k unique values, stride 5: a value sampled once must not
        // enter the MCV list claiming a stride-scaled frequency of 5.
        let pairs: Vec<(i64, i64)> = (0..40_000).map(|i| (i, i % 3)).collect();
        let ts = TableStats::analyze(2, &rows_ab(&pairs));
        assert!(
            ts.columns[0].mcv.is_empty(),
            "unique sampled column fabricated MCVs: {:?}",
            ts.columns[0].mcv
        );
    }

    #[test]
    fn chunked_analyze_is_identical_to_row_analyze() {
        // Mixed types, NULLs, NaN, all-NULL columns, chunk-boundary and
        // beyond-sample sizes: the columnar pass must agree bit for bit.
        let mk = |n: i64| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| {
                    vec![
                        match i % 5 {
                            0 => Value::Null,
                            1 => Value::Float(f64::NAN),
                            2 => Value::Float((i % 97) as f64),
                            3 => Value::Str(format!("s{}", i % 13)),
                            _ => Value::Int(i % 97),
                        },
                        Value::Int(i % 7),
                        Value::Null,
                    ]
                })
                .collect()
        };
        for n in [0i64, 1, 50, 1023, 1024, 1025, 2500, 20_000] {
            let rows = Rows::from_vecs(3, mk(n));
            let cols = ColumnSet::encode(&rows);
            assert_eq!(
                TableStats::analyze_chunks(&rows, &cols),
                TableStats::analyze(3, &rows),
                "divergence at n={n}"
            );
        }
        // Columns whose chunks are typed — all-`Int`, `Int` with NULLs,
        // `Float` with NaN / -0.0 / integral values, `Bool` — up to the
        // sample cap (exact counts) and beyond it (sketches, where a
        // cell's one hash feeds its column sketch and its row hash).
        let typed = |n: i64| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int((i * 7919) % 1000 - 500),
                        if i % 9 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i % 64)
                        },
                        match i % 6 {
                            0 => Value::Float(f64::NAN),
                            1 => Value::Float(-0.0),
                            2 => Value::Float((i % 50) as f64),
                            3 => Value::Null,
                            _ => Value::Float(-((i % 31) as f64) - 0.25),
                        },
                        Value::Bool(i % 3 == 0),
                    ]
                })
                .collect()
        };
        for n in [8_192i64, 8_193, 20_000, 131_072] {
            let rows = Rows::from_vecs(4, typed(n));
            let cols = ColumnSet::encode(&rows);
            let chunked = TableStats::analyze_chunks(&rows, &cols);
            assert_eq!(
                chunked,
                TableStats::analyze(4, &rows),
                "divergence at n={n}"
            );
            assert_eq!(chunked.columns[0].min, Some(Key::Int(-500)));
            assert_eq!(chunked.columns[1].nulls, (n as u64).div_ceil(9));
            // `Key` orders floats by their bits: the most negative is last.
            assert_eq!(
                chunked.columns[2].max,
                Some(Key::Float((-30.25f64).to_bits()))
            );
        }
    }

    #[test]
    fn large_relations_sample_but_stay_close() {
        // 40k rows, uniform over 1000 keys: stride sampling + sketches.
        let pairs: Vec<(i64, i64)> = (0..40_000).map(|i| (i % 1000, i)).collect();
        let ts = TableStats::analyze(2, &rows_ab(&pairs));
        let d = ts.distinct_cols(&[0]) as f64;
        assert!((500.0..=2000.0).contains(&d), "distinct(A) ≈ 1000, got {d}");
        let sel = ts.selectivity(0, CmpOp::Lt, &Value::Int(250)).unwrap();
        assert!((sel - 0.25).abs() < 0.1, "lt 250 → {sel}");
    }
}
