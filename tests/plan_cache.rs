//! Plan-cache effectiveness: correlated scopes must plan O(1) times per
//! query (not once per outer row), and repeated queries must skip
//! planning entirely through the global cache.
//!
//! The assertions read `arc_plan::planner_runs()`, a process-global
//! counter — so this file deliberately contains a **single** `#[test]`
//! (test binaries run one at a time under `cargo test`, and a single test
//! keeps the counter deltas attributable).

use arc_bench::fixtures as fx;
use arc_core::conventions::Conventions;
use arc_engine::Engine;

#[test]
fn plan_cache_eliminates_per_outer_row_planning() {
    // Eq (7): the FOI pattern — for each of the 400 outer rows, the
    // correlated nested grouped scope re-enters the planner with an
    // identical signature.
    let outer_rows = 400;
    let mut catalog = fx::grouped_catalog(outer_rows, 8);
    let q = fx::eq7();

    // Phase 1: first evaluation. The per-evaluation compiled-scope cache
    // must collapse the per-outer-row re-planning of the correlated scope
    // to one run per distinct (scope, layout); the whole query has a handful of
    // scopes, so the delta must be orders of magnitude below the outer
    // cardinality.
    let before = arc_plan::planner_runs();
    let first = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let first_eval_runs = arc_plan::planner_runs() - before;
    assert!(!first.is_empty(), "fixture produces rows");
    assert!(
        first_eval_runs < 10,
        "correlated scope replanned per outer row: {first_eval_runs} planner runs \
         for {outer_rows} outer rows"
    );

    // Phase 2: a repeated query (fresh engine, fresh Ctx, same AST) hits
    // the global cache for every scope — zero planner runs.
    let before = arc_plan::planner_runs();
    let second = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let second_eval_runs = arc_plan::planner_runs() - before;
    assert_eq!(
        second_eval_runs, 0,
        "repeated query must skip planning entirely (global plan cache)"
    );
    assert_eq!(first.rows, second.rows);

    // Phase 3: a re-parsed structurally-identical query (different AST
    // addresses, same program hash) also skips planning.
    let reparsed = fx::eq7();
    let before = arc_plan::planner_runs();
    let third = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&reparsed)
        .unwrap();
    assert_eq!(
        arc_plan::planner_runs() - before,
        0,
        "program hash must be structural, not address-based"
    );
    assert_eq!(first.rows, third.rows);

    // Phase 4: changed statistics (different row count) change the key —
    // the planner runs again rather than serving a stale-cardinality
    // plan.
    let catalog2 = fx::grouped_catalog(outer_rows + 1, 8);
    let before = arc_plan::planner_runs();
    Engine::new(&catalog2, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert!(
        arc_plan::planner_runs() - before > 0,
        "changed cardinalities must re-plan"
    );

    // Phase 5: ANALYZE bumps the statistics epoch, which both cache
    // levels fold into their keys — the very same query on the very same
    // catalog must re-plan (the new statistics could shape a different
    // plan), then cache again.
    catalog.analyze();
    let before = arc_plan::planner_runs();
    let fifth = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert!(
        arc_plan::planner_runs() - before > 0,
        "a post-ANALYZE evaluation must re-plan, not serve the stale-epoch plan"
    );
    assert!(first.bag_eq(&fifth), "statistics must not change results");
    let before = arc_plan::planner_runs();
    Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(
        arc_plan::planner_runs() - before,
        0,
        "the re-planned epoch must itself be cached"
    );
}
