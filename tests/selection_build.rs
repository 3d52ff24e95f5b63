//! Per-query selection vectors are keyed by the addresses of the
//! predicates they apply, not by the plan that schedules them: a plan is
//! shared by every scope of its shape, constants being typed holes, so
//! two scans that differ only in a filter's constant must build — and
//! read — two selections.
//!
//!
//! The first index-range scan of an `ANALYZE`d relation gathers its
//! ordered index from the chunk view the analyze pass encoded, so it
//! builds the index and no chunk view. A copy of the catalog keeps the
//! statistics but not the view: there the scan admits the view's encode
//! at the `chunk-build` seam, and a denial degrades the scan to the row
//! loop, with the same rows.
//!
//! The assertions read process-global registry counters, so the tests
//! of this file run one at a time, under [`SERIAL`].

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;
use std::sync::Mutex;

/// Held by every test here while it reads the registry.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn sibling_scans_differing_in_a_constant_select_separately() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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

#[test]
fn a_first_index_range_scan_gathers_from_the_chunk_view() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut t = Relation::new("T", &["A", "B"]);
    for i in 0..4_096 {
        t.push(vec![Value::Int(i % 8), Value::Int(4_095 - i)]);
    }
    let mut catalog = Catalog::new().with(t);
    catalog.analyze();
    let q = fx::q("{Q(B) | ∃t ∈ T [Q.B = t.B ∧ t.A = 3 ∧ t.B > 4000]}");
    let plan = (Engine::new(&catalog, Conventions::sql()).explain_collection(&q)).unwrap();
    assert!(plan.contains("index-range on [A, B"), "{plan}");
    let (chunks, ordered) = (
        arc_engine::metrics::chunk_builds(),
        arc_engine::metrics::ordered_builds(),
    );
    let degradations = arc_engine::metrics::guard_degradations();
    let builds = || (chunks.get(), ordered.get(), degradations.get());
    let scan = |catalog: &Catalog, deny: Option<&'static str>| {
        let engine = Engine::new(catalog, Conventions::sql()).with_threads(1);
        let engine = match deny {
            Some(seam) => arc_tests::deny_first(engine, seam),
            None => engine,
        };
        let before = builds();
        let got = engine.eval_collection(&q).unwrap();
        let after = builds();
        assert_eq!(got.len(), 12);
        arc_tests::assert_oracle(catalog, Conventions::sql(), &q, &got);
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    // (chunk views encoded, ordered indexes built, degradations)
    assert_eq!(scan(&catalog, None), (0, 1, 0), "analyzed");
    let copy = catalog.clone();
    assert_eq!(scan(&copy, Some("chunk-build")), (0, 0, 1), "denied");
    assert_eq!(scan(&copy, None), (1, 1, 0), "copied");
}
