//! Workspace invariant 10: **statistics change plans, never results.**
//!
//! An `ANALYZE`d catalog gives the planner MCV/histogram selectivities
//! and correlation-capped distinct counts; a statistics-free catalog
//! leaves it with row counts and prefix samples. The two may pick
//! different join orders and access paths — that is the point — but every
//! plan of a scope is bag-equivalent by construction, so results must be
//! bag-identical — and the oracle's.
//!
//! The deterministic companion test pins the acceptance demonstration:
//! on the skewed fixture the statistics visibly flip the join order *and*
//! the access path, while the result rows stay the same bag.

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_engine::Engine;
use arc_tests::fixtures as fx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 10: planned results with and without statistics are
    /// bag-identical and agree with the oracle, across conventions, with
    /// and without NULLs.
    #[test]
    fn stats_on_off_bag_identical(
        seed in 0u64..400,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in proptest::prelude::any::<bool>(),
    ) {
        let spec = if with_nulls {
            InstanceSpec::rs_with_nulls(0.2)
        } else {
            InstanceSpec::rs()
        };
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(9931));
        let base = random_catalog(&spec, &mut rng);
        let mut analyzed = base.clone();
        analyzed.analyze();
        let mut bare = base;
        bare.clear_stats();
        for conv in [Conventions::sql(), Conventions::set(), Conventions::souffle()] {
            let with_stats = Engine::new(&analyzed, conv).eval_collection(&q).unwrap();
            let without = Engine::new(&bare, conv).eval_collection(&q).unwrap();
            prop_assert!(
                with_stats.bag_eq(&without),
                "conv {:?}\nquery {:?}\nwith stats:\n{}\nwithout:\n{}",
                conv, q, with_stats, without
            );
            let oracle = arc_tests::oracle_rows(&bare, conv, &q);
            prop_assert!(arc_tests::agrees(conv, &without, &oracle), "oracle:\n{}", oracle);
        }
    }
}

/// The acceptance demonstration: on the skewed fixture (unique `R.A`
/// filtered by a narrow range, small `S`), an `ANALYZE`d catalog flips
/// both the join order (the filtered big scan becomes the outer) and the
/// access path (`S` becomes the probed side) — and the results remain
/// bag-identical.
#[test]
fn stats_flip_join_order_and_access_path() {
    let n = 1024;
    let base = fx::stats_skew_catalog(n);
    let q = fx::eq1_range(n);
    let mut analyzed = base.clone();
    analyzed.analyze();
    let mut bare = base;
    bare.clear_stats();

    let explain = |catalog: &arc_engine::Catalog| {
        Engine::new(catalog, Conventions::sql())
            .with_threads(1)
            .explain_collection(&q)
            .unwrap()
    };
    let plan_on = explain(&analyzed);
    let plan_off = explain(&bare);

    // Without statistics the planner sees only row counts: S (64 rows)
    // scans first, R is probed on the join key.
    assert!(
        plan_off.contains("1: scan S as s")
            && plan_off.contains("2: hash-probe on [r.B = s.B] R as r"),
        "unanalyzed plan shape drifted:\n{plan_off}"
    );
    // With statistics the histogram sees `r.A > n-8` keep ~7 of 1024
    // rows: the bound R step becomes the outer side (as an index-range
    // over the ordered `A` index) and S is probed.
    assert!(
        plan_on.contains("1: index-range on [A..] R as r")
            && plan_on.contains("2: hash-probe on [r.B = s.B] S as s"),
        "analyzed plan shape drifted:\n{plan_on}"
    );
    assert_ne!(plan_on, plan_off, "statistics must change the plan");

    // …and the results must not care.
    for conv in [Conventions::sql(), Conventions::set()] {
        let with_stats = Engine::new(&analyzed, conv).eval_collection(&q).unwrap();
        let without = Engine::new(&bare, conv).eval_collection(&q).unwrap();
        assert!(
            with_stats.bag_eq(&without),
            "conv {conv:?}: stats changed the result bag"
        );
        // 7 surviving R rows, each matching 8 S rows: 56 under bag
        // semantics, 7 distinct A values either way.
        assert_eq!(
            with_stats.deduped().len(),
            7,
            "r.A > {} keeps 7 rows",
            n - 8
        );
    }
}

/// The statistics epoch invalidates cached plans at the engine level:
/// the same `Ctx`-visible scope re-plans after an `ANALYZE`, so the
/// flipped join order actually takes effect in a process that evaluated
/// the query before analyzing (regression companion to
/// `tests/plan_cache.rs`, which asserts the planner-run counters).
#[test]
fn post_analyze_plans_are_not_served_stale() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.clear_stats();
    let q = fx::eq1_range(n);
    let before = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    catalog.analyze();
    let after = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert!(before.bag_eq(&after));
    // The post-ANALYZE plan must be the statistics-shaped one (the
    // thread count pinned against the `ARC_THREADS` suite re-run).
    let plan = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .explain_collection(&q)
        .unwrap();
    assert!(
        plan.contains("1: index-range on [A..] R as r"),
        "stale plan shape:\n{plan}"
    );
}
