//! Build-once guarantee of the fixpoint driver: the rounds of one
//! recursive component's solve probe the hash indexes over catalog
//! relations built **once per solve**, not once per round, and a round
//! evaluates only the rules that read a member — the base rule of a
//! closure runs in round 0 alone.
//!
//! The assertions read `engine.index.hash.builds` and
//! `guard.degradations`, process-global counters, so this file
//! deliberately contains a **single** `#[test]` (like
//! `tests/semijoin_build.rs`).

use arc_core::ast::{Formula, Program};
use arc_core::conventions::Conventions;
use arc_engine::{seam, Catalog, Engine, EvalError, Relation};
use arc_parser::parse_program;
use arc_trace::OpId;

/// Edges of the chain `0 → 1 → … → 64`.
const EDGES: i64 = 64;

/// `A` = transitive closure of `P`: a base rule, then a right-linear
/// recursive one.
const CLOSURE: &str = "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
     ∃p ∈ P, a ∈ A [A.s = p.s ∧ p.t = a.s ∧ A.t = a.t]};";

/// The profile id of each rule's scope, in source order.
fn rule_scopes(p: &Program) -> Vec<OpId> {
    let Formula::Or(rules) = &p.definitions[0].collection.body else {
        panic!("two rules expected")
    };
    rules
        .iter()
        .map(|rule| match rule {
            Formula::Quant(q) => OpId::scope(q.bindings.as_ptr() as usize),
            other => panic!("a quantified rule expected, got {other:?}"),
        })
        .collect()
}

#[test]
fn fixpoint_rounds_share_base_indexes_and_skip_base_rules() {
    let edges: Vec<[i64; 2]> = (0..EDGES).map(|i| [i, i + 1]).collect();
    let rows: Vec<&[i64]> = edges.iter().map(|e| &e[..]).collect();
    let catalog = Catalog::new().with(Relation::from_ints("P", &["s", "t"], &rows));
    let p = parse_program(CLOSURE).unwrap();
    let conv = Conventions::souffle();
    let engine = |threads| Engine::new(&catalog, conv).with_threads(threads);
    let want = arc_tests::oracle_program(&catalog, conv, &p).defined["A"].clone();
    assert_eq!(want.len() as i64, EDGES * (EDGES + 1) / 2);
    let builds = arc_engine::metrics::hash_builds();
    let degradations = arc_engine::metrics::guard_degradations();

    // Phase 1: one solve, at most two builds — the index over `P` every
    // round probes, and whatever round 0 builds over the empty `A` — where
    // a build per round would be one per edge.
    let before = builds.get();
    let sequential = engine(1).eval_program(&p).unwrap().defined["A"].clone();
    let sequential_builds = builds.get() - before;
    assert!(
        sequential_builds <= 2,
        "a {EDGES}-edge closure built {sequential_builds} hash indexes"
    );
    assert!(sequential.bag_eq(&want));

    // Phase 2: four threads build no more, and derive the same rows in
    // the same order.
    let before = builds.get();
    let parallel = engine(4).eval_program(&p).unwrap().defined["A"].clone();
    let parallel_builds = builds.get() - before;
    assert!(
        parallel_builds <= 2,
        "four threads built {parallel_builds} hash indexes"
    );
    assert_eq!(sequential.rows, parallel.rows);

    // Phase 3: a budget that denies every build builds nothing; the
    // closure's own growth cannot stream, so the solve stops structured.
    let before = builds.get();
    let starved = engine(1).with_mem_budget(1).eval_program(&p);
    assert_eq!(builds.get() - before, 0, "a denied build must not run");
    assert!(
        matches!(starved, Err(EvalError::MemoryBudget)),
        "expected MemoryBudget, got {starved:?}"
    );

    // Phase 4: the first build denied degrades that round only — a
    // round is an evaluation of its own, and a step remembers a denial
    // for its evaluation alone, so a later round builds the index — and
    // the rows are the oracle's.
    let (before, denied_before) = (builds.get(), degradations.get());
    let denied = arc_tests::deny_first(engine(1), seam::HASH_BUILD)
        .eval_program(&p)
        .unwrap()
        .defined["A"]
        .clone();
    assert!(
        degradations.get() > denied_before,
        "the first build was denied"
    );
    assert!(
        builds.get() > before,
        "a round after the denial builds again"
    );
    assert!(denied.bag_eq(&want));

    // Phase 5: the base rule's scope runs once, in round 0; the recursive
    // rule's once per round — round 0 and the `EDGES` rounds that follow,
    // the last of which derives nothing.
    let (out, profile) = engine(1).profile_program(&p).unwrap();
    assert!(out.defined["A"].bag_eq(&want));
    let [base, recursive] = rule_scopes(&p)[..] else {
        panic!("two rules expected")
    };
    let calls = |id| profile.op(id).map(|op| op.calls);
    assert_eq!(calls(base), Some(1), "{profile:?}");
    assert_eq!(calls(recursive), Some(EDGES as u64 + 1), "{profile:?}");
}
