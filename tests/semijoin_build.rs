//! Build-once guarantee of the decorrelated semi-join path: a correlated
//! boolean scope evaluates its body **once per evaluation** — not once
//! per outer row — and the parallel executor's workers share that single
//! build through the `Arc`'d cache. Every outer row is still one probe,
//! whichever thread answers it and however the scope found its build.
//!
//! The assertions read `arc_engine::semi_build_runs()` and
//! `engine.semijoin.probes`, process-global counters — so this file deliberately contains a **single** `#[test]`
//! (test binaries run one at a time under `cargo test`, and a single test
//! keeps the counter deltas attributable), mirroring
//! `tests/plan_cache.rs` for the planner-run counter.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{semi_build_runs, Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn semijoin_builds_once_not_per_outer_row() {
    let outer_rows = 400;
    let catalog = fx::semijoin_catalog(outer_rows, 256);
    let q = fx::not_exists_corr(256);

    let probes = arc_engine::metrics::semi_probes();

    // Phase 1: one evaluation, one build — 400 outer rows probe it.
    let before = (semi_build_runs(), probes.get());
    let sequential = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let builds = semi_build_runs() - before.0;
    assert!(!sequential.is_empty(), "fixture produces rows");
    assert_eq!(
        builds, 1,
        "the correlated scope must build once for {outer_rows} outer rows"
    );
    assert_eq!(
        probes.get() - before.1,
        outer_rows as u64,
        "one probe per outer row"
    );

    // Phase 2: a budget that denies the build runs the nested fallback —
    // zero builds — and agrees on the bag.
    let before = semi_build_runs();
    let nested = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_mem_budget(1)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(
        semi_build_runs() - before,
        0,
        "a denied build must fall back to the nested path"
    );
    assert!(sequential.bag_eq(&nested));

    // Phase 3: partitioned execution — workers probe the coordinator-
    // shared cache, so the build count stays far below the worker×morsel
    // count (racing workers may at worst each build once) and the rows
    // are identical, order included (invariant 9 extends to this path).
    let before = (semi_build_runs(), probes.get());
    let parallel = Engine::new(&catalog, Conventions::sql())
        .with_threads(4)
        .eval_collection(&q)
        .unwrap();
    let parallel_builds = semi_build_runs() - before.0;
    assert!(
        parallel_builds <= 4,
        "workers must share builds through the Arc'd cache, got {parallel_builds}"
    );
    assert_eq!(probes.get() - before.1, outer_rows as u64, "at threads 4");
    assert_eq!(sequential.rows, parallel.rows);

    // Phase 4: a fresh evaluation builds again (the cache is per
    // evaluation — relation contents may differ between evaluations).
    let before = semi_build_runs();
    Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(semi_build_runs() - before, 1);

    // Phase 5: the guarded `NOT IN` (Eq 17) is a null-aware anti-join —
    // one build for 1 024 outer rows, some of them NULL, and the same
    // rows in the same order at threads 4.
    let mut r = Relation::new("R", &["A"]);
    for i in 0..1024i64 {
        r.push(vec![if i % 100 == 7 {
            Value::Null
        } else {
            Value::Int(i)
        }]);
    }
    let mut s = Relation::new("S", &["A"]);
    for i in 0..256i64 {
        s.push(vec![Value::Int(3 * i)]);
    }
    let catalog = Catalog::new().with(r).with(s);
    let q = fx::eq17();
    let eval = |threads| {
        Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .eval_collection(&q)
            .unwrap()
    };
    let before = (semi_build_runs(), probes.get());
    let sequential = eval(1);
    assert_eq!(
        semi_build_runs() - before.0,
        1,
        "the guarded NOT IN must build once for 1 024 outer rows"
    );
    assert_eq!(probes.get() - before.1, 1024, "one probe per outer row");
    // 768 of the 1 024 are neither NULL nor a multiple of 3 below 768.
    let kept = (0..1024i64)
        .filter(|i| i % 100 != 7 && (i % 3 != 0 || *i >= 768))
        .count();
    assert_eq!(sequential.rows.len(), kept);
    let before = (semi_build_runs(), probes.get());
    let parallel = eval(4);
    assert!(semi_build_runs() - before.0 <= 4);
    assert_eq!(probes.get() - before.1, 1024, "at threads 4");
    assert_eq!(sequential.rows, parallel.rows);
}
