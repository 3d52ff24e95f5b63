//! The catalog: base relations + external relations + column statistics.
//!
//! Mirrors the paper's Fig 14 taxonomy: **base relations** are extensional
//! (stored here); **intensional relations** come from [`Program`]
//! definitions and are materialized by the engine; **external relations**
//! (§2.13.1) live here with their access patterns; **abstract relations**
//! (§2.13.2) are definitions the engine checks in context rather than
//! materializes.
//!
//! ## Statistics
//!
//! Each base relation can carry [`TableStats`] — the `arc-stats` sketches
//! (distinct counters, equi-depth histograms, MCV lists) that back the
//! planner's cost model v2. Registration **auto-analyzes** relations at
//! or above [`AUTO_ANALYZE_MIN_ROWS`] rows; [`Catalog::analyze`] is the
//! explicit `ANALYZE` pass (every relation, regardless of size), and
//! [`Catalog::clear_stats`] the one way to plan without statistics.
//! Every statistics change bumps the
//! catalog's **epoch** from a process-wide counter — the plan caches fold
//! the epoch into their keys, so a re-`ANALYZE` invalidates exactly the
//! cached plans the new statistics could have shaped.
//!
//! [`Program`]: arc_core::ast::Program

use crate::external::{standard_externals, ExternalRelation};
use crate::relation::Relation;
use arc_core::binder::SchemaMap;
use arc_stats::TableStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Registration auto-analyzes relations with at least this many rows
/// (aligned with the planner's parallel-partition threshold: relations
/// below it can't mislead the optimizer far enough to matter, and test
/// fixtures stay cheap to build).
pub const AUTO_ANALYZE_MIN_ROWS: usize = 16;

/// Process-wide epoch source: every statistics change on any catalog
/// draws a fresh value, so two catalogs can never share an epoch and the
/// global plan cache can't serve one catalog's statistics-shaped plan to
/// another.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// A database: named base relations, external relations, and per-relation
/// column statistics.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: HashMap<String, Relation>,
    externals: HashMap<String, ExternalRelation>,
    stats: HashMap<String, Arc<TableStats>>,
    /// Statistics epoch: `0` until the first statistics change, then a
    /// process-unique value per change.
    epoch: u64,
}

impl Catalog {
    /// An empty catalog (no externals).
    pub fn new() -> Self {
        Catalog::default()
    }

    /// A catalog preloaded with the standard external relations
    /// (`Minus`, `Add`, `*`, `Div`, `Bigger`, `>`, `Concat`).
    pub fn with_standard_externals() -> Self {
        Catalog {
            externals: standard_externals(),
            ..Catalog::default()
        }
    }

    /// Insert (or replace) a base relation, keyed by its name.
    ///
    /// Stale statistics for a replaced relation are dropped; relations of
    /// [`AUTO_ANALYZE_MIN_ROWS`] rows or more are analyzed on the spot.
    pub fn add(&mut self, relation: Relation) -> &mut Self {
        let had_stats = self.stats.remove(&relation.name).is_some();
        let analyzed = relation.len() >= AUTO_ANALYZE_MIN_ROWS;
        if analyzed {
            self.stats
                .insert(relation.name.clone(), Arc::new(analyze_relation(&relation)));
        }
        if had_stats || analyzed {
            self.bump_epoch();
        }
        self.relations.insert(relation.name.clone(), relation);
        self
    }

    /// Builder-style [`Catalog::add`].
    pub fn with(mut self, relation: Relation) -> Self {
        self.add(relation);
        self
    }

    /// Insert (or replace) an external relation.
    pub fn add_external(&mut self, ext: ExternalRelation) -> &mut Self {
        self.externals.insert(ext.name.clone(), ext);
        self
    }

    /// The explicit `ANALYZE` pass: make sure **every** base relation has
    /// statistics, regardless of size, and bump the statistics epoch (invalidating cached plans). Returns the
    /// number of relations covered.
    ///
    /// Statistics that are already current are kept, not recomputed: a
    /// relation cannot change while the catalog holds it (replacing it
    /// through [`Catalog::add`] drops its statistics), so what
    /// registration's auto-analyze produced still describes its rows —
    /// load-then-`ANALYZE` reads each relation once, not twice.
    pub fn analyze(&mut self) -> usize {
        for rel in self.relations.values() {
            let current = self
                .stats
                .get(&rel.name)
                .is_some_and(|ts| ts.rows == rel.len() as u64);
            if !current {
                self.stats
                    .insert(rel.name.clone(), Arc::new(analyze_relation(rel)));
            }
        }
        self.bump_epoch();
        self.relations.len()
    }

    /// Drop all statistics (and bump the epoch): the catalog plans like a
    /// never-analyzed one — no MCV/histogram pricing, and so no
    /// index-range access path. The one way to plan without statistics
    /// (workspace invariant 10).
    pub fn clear_stats(&mut self) -> &mut Self {
        self.stats.clear();
        self.bump_epoch();
        self
    }

    /// Statistics for a base relation, when an analyze pass has run.
    pub fn stats(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.stats.get(name)
    }

    /// The statistics epoch: `0` until the first statistics change, then
    /// a process-unique value per change. Plan-cache keys incorporate it.
    pub fn stats_epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a base relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Look up an external relation.
    pub fn external(&self, name: &str) -> Option<&ExternalRelation> {
        self.externals.get(name)
    }

    /// Iterate base relations (unordered).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Schema map over base + external relations, for the closed-world
    /// [`Binder`](arc_core::binder::Binder).
    pub fn schema_map(&self) -> SchemaMap {
        let mut m = SchemaMap::new();
        for r in self.relations.values() {
            m.insert(r.name.clone(), r.schema.clone());
        }
        for e in self.externals.values() {
            m.insert(e.name.clone(), e.schema.clone());
        }
        m
    }
}

// The catalog is borrowed by every worker context during partitioned
// execution.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
};

/// One relation's ANALYZE pass, streamed from the relation's column
/// chunks — one typed pass per column, and the encoding stays cached on
/// the relation for the scans that follow. The row-at-a-time
/// [`TableStats::analyze`] is its reference (`arc-stats` asserts the two
/// identical).
fn analyze_relation(rel: &Relation) -> TableStats {
    TableStats::analyze_chunks(&rel.rows, &rel.columns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        c.add(Relation::from_ints("R", &["A"], &[&[1]]));
        assert_eq!(c.relation("R").unwrap().len(), 1);
        assert!(c.relation("S").is_none());
    }

    #[test]
    fn standard_externals_present() {
        let c = Catalog::with_standard_externals();
        assert!(c.external("Minus").is_some());
        assert!(c.external("*").is_some());
        assert!(c.external("Bigger").is_some());
    }

    #[test]
    fn schema_map_covers_both_kinds() {
        let c = Catalog::with_standard_externals().with(Relation::from_ints("R", &["A", "B"], &[]));
        let m = c.schema_map();
        assert_eq!(m["R"], vec!["A".to_string(), "B".to_string()]);
        assert_eq!(m["Minus"], vec!["left", "right", "out"]);
    }

    fn big_rel(name: &str, n: i64) -> Relation {
        let mut r = Relation::new(name, &["A"]);
        for i in 0..n {
            r.push(vec![(i % 5).into()]);
        }
        r
    }

    #[test]
    fn explicit_analyze_covers_small_relations_and_bumps_epoch() {
        let mut c = Catalog::new();
        c.add(Relation::from_ints("Tiny", &["A"], &[&[1], &[2]]));
        assert!(c.stats("Tiny").is_none(), "below the auto threshold");
        let before = c.stats_epoch();
        assert_eq!(c.analyze(), 1);
        assert!(c.stats_epoch() > before, "ANALYZE must bump the epoch");
        let ts = c.stats("Tiny").expect("explicit ANALYZE ignores size");
        assert_eq!(ts.rows, 2);
        assert_eq!(ts.columns[0].distinct, 2);
    }

    #[test]
    fn explicit_analyze_keeps_statistics_that_are_current() {
        let mut c = Catalog::new();
        c.add(big_rel("Big", 64));
        c.add(Relation::from_ints("Tiny", &["A"], &[&[1]]));
        let auto = c.stats("Big").cloned().expect("auto-analyzed");
        let before = c.stats_epoch();
        assert_eq!(c.analyze(), 2);
        assert!(c.stats_epoch() > before, "the epoch moves regardless");
        assert!(c.stats("Tiny").is_some(), "missing statistics are computed");
        // The very same statistics object survives the explicit pass.
        assert!(Arc::ptr_eq(&auto, c.stats("Big").unwrap()));
        // Replacing the relation drops its statistics; the next pass
        // computes them afresh.
        c.add(big_rel("Big", 32));
        c.analyze();
        assert_eq!(c.stats("Big").unwrap().rows, 32);
    }

    #[test]
    fn auto_analyze_triggers_at_the_threshold() {
        let mut c = Catalog::new();
        c.add(big_rel("Small", AUTO_ANALYZE_MIN_ROWS as i64 - 1));
        assert!(c.stats("Small").is_none(), "below the threshold");
        c.add(big_rel("Big", AUTO_ANALYZE_MIN_ROWS as i64));
        let ts = c.stats("Big").expect("auto-analyzed at the threshold");
        assert_eq!(ts.rows, AUTO_ANALYZE_MIN_ROWS as u64);
        assert_eq!(ts.columns[0].distinct, 5);
    }

    #[test]
    fn replacing_a_relation_drops_stale_stats() {
        let mut c = Catalog::new();
        c.add(big_rel("R", 64));
        c.analyze();
        let epoch = c.stats_epoch();
        // Replace with a below-threshold relation: stats must not survive
        // (they describe rows that no longer exist), epoch must move.
        c.add(Relation::from_ints("R", &["A"], &[&[1]]));
        assert!(c.stats("R").is_none());
        assert!(c.stats_epoch() > epoch);
    }

    #[test]
    fn clear_stats_restores_the_unanalyzed_profile() {
        let mut c = Catalog::new();
        c.add(big_rel("R", 64));
        c.analyze();
        assert!(c.stats("R").is_some());
        let epoch = c.stats_epoch();
        c.clear_stats();
        assert!(c.stats("R").is_none());
        assert!(c.stats_epoch() > epoch);
    }

    #[test]
    fn epochs_are_process_unique_across_catalogs() {
        let mut a = Catalog::new();
        let mut b = Catalog::new();
        a.add(big_rel("R", 4));
        b.add(big_rel("R", 4));
        a.analyze();
        b.analyze();
        assert_ne!(a.stats_epoch(), b.stats_epoch());
    }
}
