//! A build the guard denies is remembered by its compiled step for the
//! rest of the evaluation: the step asks the guard once, and every later
//! outer row streams — as a decorrelated semi-join remembers a denied key
//! set. Eight rows of `R` probe a 4 000-row `S` on `r.B = s.B`; each
//! probing row used to ask for the index again.
//!
//! The assertions read `engine.index.hash.builds` and
//! `guard.degradations`, process-global counters, so this file
//! deliberately contains a **single** `#[test]` (like
//! `tests/fixpoint_build.rs`).

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{seam, Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn a_denied_hash_build_is_asked_for_once_per_evaluation() {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..8i64 {
        r.push(vec![Value::Int(i), Value::Int(i % 4)]);
    }
    let mut s = Relation::new("S", &["B", "C"]);
    for i in 0..4000i64 {
        s.push(vec![Value::Int(i % 16), Value::Int(i)]);
    }
    let catalog = Catalog::new().with(r).with(s);
    let q = fx::q("{Q(A,C) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ Q.C = s.C]}");
    let conv = Conventions::sql();
    let want = arc_tests::oracle_rows(&catalog, conv, &q);
    let builds = arc_engine::metrics::hash_builds();
    let degradations = arc_engine::metrics::guard_degradations();
    let engine = || Engine::new(&catalog, conv).with_threads(1);

    // The plan probes `S` from each row of `R`: one build serves them all.
    let before = builds.get();
    let built = engine().eval_collection(&q).unwrap();
    assert_eq!(builds.get() - before, 1, "one index for eight probing rows");
    assert!(arc_tests::agrees(conv, &built, &want));

    // The first admission denied, as `deny_first` and a budget below the
    // index's reservation (4 000 × 72 bytes) each deny it: no build, one
    // degradation, the oracle's rows.
    let denied = [
        arc_tests::deny_first(engine(), seam::HASH_BUILD),
        engine().with_mem_budget(64 << 10),
    ];
    for (i, engine) in denied.into_iter().enumerate() {
        let (before, denied_before) = (builds.get(), degradations.get());
        let got = engine.eval_collection(&q).unwrap();
        assert_eq!(builds.get() - before, 0, "case {i}: a denied build ran");
        assert_eq!(
            degradations.get() - denied_before,
            1,
            "case {i}: the step asked the guard more than once"
        );
        assert!(arc_tests::agrees(conv, &got, &want), "case {i}");
        assert_eq!(
            got.rows, built.rows,
            "case {i}: the streaming probe's order"
        );
    }
}
