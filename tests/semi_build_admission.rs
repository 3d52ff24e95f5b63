//! The semi-join admission reserves for the most keys a build can hold.
//! A build keyed from two bindings can hold up to the product of their
//! row counts, not the largest one's: `R` at 8 rows probes a build keyed
//! on `S` and `U`, 200 distinct rows each — up to 40 000 keys of two
//! columns, 3.84 MB at `KeySet::build_bytes`' rate. A 1 MiB budget must
//! deny it, and the nested path answer with the oracle's rows.
//!
//! The assertions read `guard.degradations` and the semi-join build
//! count, process-global counters, so this file deliberately contains a
//! **single** `#[test]` (like `tests/denied_build.rs`).

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{semi_build_runs, Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn a_build_over_two_bindings_reserves_for_their_product() {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..8i64 {
        r.push(vec![Value::Int(i), Value::Int(i)]);
    }
    let (mut s, mut u) = (Relation::new("S", &["B"]), Relation::new("U", &["C"]));
    for i in 0..200i64 {
        s.push(vec![Value::Int(i)]);
        u.push(vec![Value::Int(i)]);
    }
    let catalog = Catalog::new().with(r).with(s).with(u);
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S, u ∈ U [s.B = r.B ∧ u.C = r.A]]}");
    let conv = Conventions::sql();
    let want = arc_tests::oracle_rows(&catalog, conv, &q);
    assert_eq!(want.len(), 8);
    let engine = |budget| {
        Engine::new(&catalog, conv)
            .with_threads(1)
            .with_mem_budget(budget)
    };
    let plan = engine(0).explain_collection(&q).unwrap();
    assert!(
        plan.contains("semi-join on [s.B = r.B, u.C = r.A] (est=40000)"),
        "{plan}"
    );
    let degradations = arc_engine::metrics::guard_degradations();
    // Unbudgeted: one build, no degradation. Under 1 MiB: the build is
    // denied once, and the nested path answers every outer row.
    for (budget, builds, degraded) in [(0, 1, 0), (1 << 20, 0, 1)] {
        let before = (semi_build_runs(), degradations.get());
        let got = engine(budget).eval_collection(&q).unwrap();
        assert_eq!(semi_build_runs() - before.0, builds, "budget {budget}");
        assert_eq!(degradations.get() - before.1, degraded, "budget {budget}");
        assert!(arc_tests::agrees(conv, &got, &want), "budget {budget}");
    }
}
