//! Per-query selection vectors are keyed by the addresses of the
//! predicates they apply, not by the plan that schedules them: a plan is
//! shared by every scope of its shape, constants being typed holes, so
//! two scans that differ only in a filter's constant must build — and
//! read — two selections.
//!
//! The assertion reads `engine.selection.builds`, a process-global
//! counter, so this file deliberately contains a **single** `#[test]`
//! (like `tests/semijoin_build.rs`).

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn sibling_scans_differing_in_a_constant_select_separately() {
    let mut r = Relation::new("R", &["A", "B"]);
    for a in 0..64 {
        r.push(vec![Value::Int(a), Value::Int(a % 16)]);
    }
    let mut analyzed = Catalog::new().with(r);
    analyzed.analyze();
    let mut plain = analyzed.clone();
    plain.clear_stats();
    // 16 rows have `B > 11`, 8 have `B > 13`: one shared selection would
    // return 32 or 16 rows, not 24.
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B > 11] ∨ ∃r ∈ R [Q.A = r.A ∧ r.B > 13]}");
    let builds = arc_engine::metrics::selection_builds();
    for (statistics, catalog) in [("none", &plain), ("analyzed", &analyzed)] {
        let before = builds.get();
        let got = Engine::new(catalog, Conventions::sql())
            .with_threads(1)
            .eval_collection(&q)
            .unwrap();
        assert_eq!(builds.get() - before, 2, "statistics {statistics}");
        assert_eq!(got.len(), 24, "statistics {statistics}");
        arc_tests::assert_oracle(catalog, Conventions::sql(), &q, &got);
    }
}
