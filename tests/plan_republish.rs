//! Plan-cache counter audit for the bailed-decorrelation republish seam.
//!
//! When a boolean scope's decorrelation bails (non-equi correlation),
//! `scope_plan` publishes the fallback plan under the non-boolean key
//! too (`global_store`), and the scope compiles its nested pipeline
//! straight from that plan. The republish may not touch the
//! `plan.cache.hit`/`plan.cache.miss` counters: the scope was planned
//! **once**, so the first evaluation must count exactly one miss per
//! distinct scope (not one per cache key the plan lands under), and a
//! fresh-engine re-evaluation must count exactly one hit per scope (the
//! nested fallback runs the scope compiled from the boolean lookup,
//! never a second global lookup).
//!
//! The assertions pin **exact** process-global counter deltas, so this
//! file deliberately contains a single `#[test]` (test binaries run one
//! at a time under `cargo test`; a single test keeps deltas
//! attributable).

use arc_core::conventions::Conventions;
use arc_engine::Engine;
use arc_tests::fixtures as fx;

#[test]
fn bailed_boolean_republish_counts_once() {
    let catalog = fx::semijoin_catalog(64, 16);
    // Non-equi correlation: `plan_scope_boolean` cannot extract join
    // keys, so the inner boolean scope bails and republishes.
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.B > r.B]]}");
    let eval = || {
        Engine::new(&catalog, Conventions::sql())
            .with_threads(1)
            .eval_collection(&q)
            .unwrap()
    };

    // First evaluation: two distinct scopes (the outer ∃r and the inner
    // bailed boolean ∃s) — exactly two global misses, zero hits. A third
    // miss would mean the republished plan re-entered the lookup path; a
    // hit would mean the nested fallback consulted the global cache for
    // the plan its compiled scope already holds.
    let before = arc_trace::snapshot();
    let first = eval();
    let delta = arc_trace::snapshot().diff(&before);
    assert!(!first.is_empty(), "fixture produces rows");
    assert_eq!(
        (
            delta.counter("plan.cache.miss"),
            delta.counter("plan.cache.hit")
        ),
        (2, 0),
        "first eval: one miss per distinct scope, republish uncounted"
    );

    // Fresh engine, same AST: both scopes served by the global cache —
    // exactly two hits, zero misses. In particular the bailed scope's
    // *boolean* key (the one `global_lookup` probes first) was published,
    // so the nested path never re-plans and never re-misses.
    let before = arc_trace::snapshot();
    let second = eval();
    let delta = arc_trace::snapshot().diff(&before);
    assert_eq!(first.rows, second.rows, "republish must not change rows");
    assert_eq!(
        (
            delta.counter("plan.cache.miss"),
            delta.counter("plan.cache.hit")
        ),
        (0, 2),
        "re-eval: one hit per scope, no double count from the republished keys"
    );
}
