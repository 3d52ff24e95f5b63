//! The stats-backed [`DistinctEstimator`]: catalog statistics
//! (`arc-stats` sketches) answering the planner's cardinality questions.
//!
//! This is "cost model v2": where the v1 estimator extrapolated a prefix
//! sample per query, this one reads the summaries an `ANALYZE` pass
//! already computed — multi-column distinct counts are correlation-capped
//! by the whole-row sketch ([`TableStats::distinct_cols`]), equality
//! selectivity is MCV-aware, and range selectivity comes from the
//! equi-depth histograms. `EXPLAIN` uses it directly over catalog
//! statistics; the execution engine layers a live prefix-sample fallback
//! on top for relations that have no statistics (intensional results,
//! small un-analyzed tables).

use crate::scope::{Basis, DistinctEstimator};
use arc_core::ast::CmpOp;
use arc_core::value::Value;
use arc_stats::TableStats;
use std::sync::Arc;

/// A [`DistinctEstimator`] over per-binding table statistics (`None` for
/// bindings whose source has none: laterals, externals, abstracts,
/// un-analyzed relations).
pub struct TableStatsEstimator {
    tables: Vec<Option<Arc<TableStats>>>,
}

impl TableStatsEstimator {
    /// Wrap one statistics slot per scope binding, in binding order.
    pub fn new(tables: Vec<Option<Arc<TableStats>>>) -> Self {
        TableStatsEstimator { tables }
    }

    fn table(&self, binding: usize) -> Option<&TableStats> {
        self.tables.get(binding)?.as_deref()
    }
}

impl DistinctEstimator for TableStatsEstimator {
    fn basis(&self, binding: usize) -> Basis {
        match self.table(binding) {
            Some(_) => Basis::Statistics,
            None => Basis::None,
        }
    }

    fn distinct(&self, binding: usize, cols: &[usize]) -> Option<usize> {
        self.table(binding).map(|t| t.distinct_cols(cols) as usize)
    }

    fn selectivity(&self, binding: usize, col: usize, op: CmpOp, value: &Value) -> Option<f64> {
        self.table(binding)?.selectivity(col, op, value)
    }

    fn null_fraction(&self, binding: usize, col: usize) -> Option<f64> {
        let t = self.table(binding)?;
        let c = t.columns.get(col)?;
        Some(1.0 - c.non_null_fraction())
    }

    fn range_selectivity(
        &self,
        binding: usize,
        col: usize,
        lo: Option<(CmpOp, &Value)>,
        hi: Option<(CmpOp, &Value)>,
    ) -> Option<f64> {
        self.table(binding)?.range_selectivity(col, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_stats() -> Arc<TableStats> {
        // A(0..100 unique), B(90% zeros).
        let rows: Vec<Vec<Value>> = (0..100i64)
            .map(|i| vec![Value::Int(i), Value::Int(if i < 90 { 0 } else { i })])
            .collect();
        Arc::new(TableStats::analyze(2, &rows))
    }

    #[test]
    fn answers_through_the_trait() {
        let est = TableStatsEstimator::new(vec![Some(skewed_stats()), None]);
        assert_eq!(est.distinct(0, &[0]), Some(100));
        let hot = est.selectivity(0, 1, CmpOp::Eq, &Value::Int(0)).unwrap();
        assert!((hot - 0.9).abs() < 1e-9, "{hot}");
        let range = est.selectivity(0, 0, CmpOp::Gt, &Value::Int(89)).unwrap();
        assert!((range - 0.1).abs() < 0.05, "{range}");
        assert_eq!(est.null_fraction(0, 0), Some(0.0));
        // Statistics-free bindings answer unknown, not zero.
        assert_eq!(est.distinct(1, &[0]), None);
        assert_eq!(est.selectivity(1, 0, CmpOp::Eq, &Value::Int(1)), None);
        assert_eq!(est.distinct(7, &[0]), None, "out-of-range binding");
    }
}
