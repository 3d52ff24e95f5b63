//! Workspace invariants for the plan layer (`arc-plan`):
//!
//! * **Invariant 8** — the planned pipeline (greedy join ordering,
//!   per-operator hash/scan choice, predicate pushdown) is *bag-identical*
//!   to the oracle's nested loops on random conjunctive queries over
//!   random instances, with and without NULLs. (Join reordering
//!   legitimately changes enumeration order, so the guarantee is the
//!   multiset of rows.)
//! * **Golden `EXPLAIN` snapshots** for three paper queries, so plan-shape
//!   changes are deliberate, reviewed diffs rather than silent drift.

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_bench::fixtures as fx;
use arc_core::conventions::Conventions;
use arc_engine::Engine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 8: planned execution ≡ the oracle, tuple-for-tuple as
    /// bags (as sets under set conventions), across conventions.
    #[test]
    fn planned_pipeline_bag_identical_to_reference(
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
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(6007));
        let catalog = random_catalog(&spec, &mut rng);
        for conv in [Conventions::sql(), Conventions::set(), Conventions::souffle()] {
            let reference = arc_tests::oracle_rows(&catalog, conv, &q);
            let planned = Engine::new(&catalog, conv).eval_collection(&q).unwrap();
            prop_assert!(
                arc_tests::agrees(conv, &planned, &reference),
                "conv {:?}\nquery {:?}\nreference:\n{}\nplanned:\n{}",
                conv, q, reference, planned
            );
        }
    }
}

/// Golden plan for Eq (1) — the running TRC equi-join over an `ANALYZE`d
/// catalog: both relations are probed (S on its constant key, R on the
/// join key), both filters are pushed onto their steps, and the
/// `est=N` cardinalities come from the statistics (S's constant key
/// matches half its rows; R's probe divides by the 10 distinct join
/// keys) rather than the old flat `est=1`.
#[test]
fn explain_eq1_golden() {
    // `analyze()` pins the statistics state explicitly: registration
    // auto-analyzes only relations of 16 rows or more.
    let mut catalog = fx::rs_catalog(64);
    catalog.analyze();
    // `with_threads(1)`: the sequential plan rendering is the golden —
    // parallel engines add `partition(n)` prefixes (covered by
    // `explain_partition_golden` in `parallel_equivalence.rs`), and the
    // goldens must not depend on the ambient `ARC_THREADS`.
    let engine = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_collection(&fx::eq1()).unwrap();
    let expected = "\
project Q(A)
  scope
    1: hash-probe on [s.C = 0] S as s (est=30)
    2: hash-probe on [r.B = s.B] R as r (est=6)
    emit: Q.A = r.A
";
    assert_eq!(plan, expected, "eq1 plan drifted:\n{plan}");
}

/// The same query over a statistics-free catalog: the planner falls back
/// to its pre-`ANALYZE` profile — flat probe estimates, same shape.
#[test]
fn explain_eq1_unanalyzed_golden() {
    let mut catalog = fx::rs_catalog(64);
    catalog.clear_stats();
    let engine = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_collection(&fx::eq1()).unwrap();
    let expected = "\
project Q(A)
  scope
    1: hash-probe on [s.C = 0] S as s (est=1)
    2: hash-probe on [r.B = s.B] R as r (est=1)
    emit: Q.A = r.A
";
    assert_eq!(plan, expected, "eq1 unanalyzed plan drifted:\n{plan}");
}

/// Golden plan for Eq (3) — the grouped FIO aggregate: an aggregate node
/// over a single scan.
#[test]
fn explain_eq3_golden() {
    let catalog = fx::grouped_catalog(64, 8);
    let engine = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_collection(&fx::eq3()).unwrap();
    let expected = "\
project Q(A, sm)
  aggregate γ r.A
    agg: Q.sm = sum(r.B)
    scope
      1: scan R as r (est=64)
      emit: Q.A = r.A
";
    assert_eq!(plan, expected, "eq3 plan drifted:\n{plan}");
}

/// Golden plan for Eq (16) — recursion: the ancestor definition becomes a
/// fixpoint node whose recursive branch probes the recursive relation.
#[test]
fn explain_eq16_golden() {
    let catalog = arc_analysis::chain_catalog(16, 0, 3);
    let engine = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_program(&fx::eq16()).unwrap();
    let expected = "\
program
  fixpoint [A]
    project A(s, t)
      union
        scope
          1: scan P as p (est=16)
          emit: A.s = p.s
          emit: A.t = p.t
        scope
          1: scan P as p (est=16)
          2: hash-probe on [p.t = a2.s] A as a2 (est=1)
          emit: A.s = p.s
          emit: A.t = a2.t
";
    assert_eq!(plan, expected, "eq16 plan drifted:\n{plan}");
}

/// All three frontends (comprehension text, SQL, Datalog) execute through
/// the same planned pipeline: lower each surface form and check the
/// engine agrees with the oracle, and that the planner can render every
/// frontend's lowering with auto-selected hash probes.
#[test]
fn frontends_execute_through_the_plan_layer() {
    let catalog = fx::rs_catalog(32);
    let schemas = catalog.schema_map();

    // Comprehension text and SQL: the Eq (1) join as a collection.
    let from_text =
        arc_parser::parse_collection("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}")
            .unwrap();
    let sql = arc_sql::arc_to_sql(&from_text, &Conventions::sql()).unwrap();
    let from_sql = arc_sql::sql_to_arc(&sql, &schemas).unwrap();
    for (name, q) in [("text", &from_text), ("sql", &from_sql)] {
        let planned = Engine::new(&catalog, Conventions::sql())
            .eval_collection(q)
            .unwrap();
        let reference = arc_tests::oracle_rows(&catalog, Conventions::sql(), q);
        assert!(planned.bag_eq(&reference), "frontend {name} diverged");
        let plan = Engine::new(&catalog, Conventions::sql())
            .explain_collection(q)
            .unwrap();
        assert!(plan.contains("hash-probe"), "frontend {name}:\n{plan}");
    }

    // Datalog: the Eq (16) ancestor program through the fixpoint driver.
    let program = arc_datalog::parse_datalog(
        ".decl P(s: number, t: number)\n\
         .decl A(s: number, t: number)\n\
         A(x, y) :- P(x, y).\n\
         A(x, y) :- P(x, z), A(z, y).\n",
    )
    .unwrap();
    let arc = arc_datalog::lower_program(&program).unwrap();
    let chain = arc_analysis::chain_catalog(12, 0, 5);
    let planned = Engine::new(&chain, Conventions::souffle())
        .eval_program(&arc)
        .unwrap();
    let reference = arc_tests::oracle_program(&chain, Conventions::souffle(), &arc);
    assert!(
        planned.defined["A"].bag_eq(&reference.defined["A"]),
        "datalog fixpoint diverged"
    );
    let plan = Engine::new(&chain, Conventions::souffle())
        .explain_program(&arc)
        .unwrap();
    assert!(plan.contains("fixpoint"), "{plan}");
    assert!(plan.contains("hash-probe"), "{plan}");
}
