//! Workspace invariant 11: **decorrelation changes execution, never
//! results.**
//!
//! A boolean quantifier scope with pure equi-join correlation executes as
//! a build-once set-level semi/anti-join under the planned engine
//! (`ARC_DECORRELATE` on, the default) and as the per-outer-row nested
//! loop otherwise. Both paths must return the oracle's rows under every
//! convention, thread count, and NULL density — with the
//! `¬∃`-over-NULL-keys corner (the `NOT IN` shape of Fig 11) generated
//! explicitly, because that is where a naive set translation would
//! diverge from three-valued logic.
//!
//! Deterministic companions pin the NULL semantics row-for-row and golden
//! the new `EXPLAIN` operators (`semi-join on […]` / `anti-join on […]`
//! with `est=N` and a `build (once)` pipeline).

use arc_analysis::{random_catalog, random_correlated_boolean_query, InstanceSpec};
use arc_bench::fixtures as fx;
use arc_core::conventions::Conventions;
use arc_engine::Engine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 11: decorrelated ≡ nested ≡ the oracle, as bags (as sets
    /// under set conventions), for generated correlated `∃`/`¬∃` queries
    /// across conventions × `ARC_THREADS` ∈ {1, 4} × NULL-heavy instances.
    #[test]
    fn decorrelated_bag_identical_to_reference(
        seed in 0u64..400,
        keys in 0usize..3,
        inner_joins in 1usize..3,
        sels in 0usize..2,
        negated in proptest::prelude::any::<bool>(),
        with_nulls in proptest::prelude::any::<bool>(),
    ) {
        let spec = if with_nulls {
            // NULL-heavy: every third value NULL on average, so NULL keys
            // hit both the probe side and the build side routinely.
            InstanceSpec::rs_with_nulls(0.3)
        } else {
            InstanceSpec::rs()
        };
        let q = random_correlated_boolean_query(&spec, keys, inner_joins, sels, negated, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7717));
        let catalog = random_catalog(&spec, &mut rng);
        for conv in [Conventions::sql(), Conventions::set(), Conventions::souffle()] {
            let reference = arc_tests::oracle_rows(&catalog, conv, &q);
            for threads in [1usize, 4] {
                for decorrelate in [true, false] {
                    let result = Engine::new(&catalog, conv)
                        .with_threads(threads)
                        .with_decorrelate(decorrelate)
                        .eval_collection(&q)
                        .unwrap();
                    prop_assert!(
                        arc_tests::agrees(conv, &result, &reference),
                        "conv {:?} threads {} decorrelate {}\nquery {:?}\nreference:\n{}\ngot:\n{}",
                        conv, threads, decorrelate, q, reference, result
                    );
                }
            }
        }
    }
}

/// The `¬∃`-with-NULL-keys corner, row for row: NULLs on the probe side
/// (the outer key) and the build side (inner rows) must reproduce the
/// oracle's three-valued verdicts exactly — an outer NULL key makes
/// the correlated equality `Unknown` for every inner row, so `∃` is
/// false and `¬∃` is *true* (the unguarded `NOT IN` shape; SQL users add
/// the Fig 11 guards to get SQL's `NOT IN` instead, which stays on the
/// nested path because its body is a disjunction).
#[test]
fn null_keys_under_negation_match_reference() {
    use arc_core::value::Value;
    let mut r = arc_engine::Relation::new("R", &["A"]);
    for v in [Value::Int(1), Value::Int(2), Value::Null] {
        r.push(vec![v]);
    }
    let mut s = arc_engine::Relation::new("S", &["A"]);
    for v in [Value::Int(2), Value::Null] {
        s.push(vec![v]);
    }
    let catalog = arc_engine::Catalog::new().with(r).with(s);

    let anti = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ¬(∃s ∈ S [s.A = r.A])]}");
    let semi = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.A = r.A]]}");
    for conv in [Conventions::sql(), Conventions::set()] {
        for q in [&anti, &semi] {
            let reference = arc_tests::oracle_rows(&catalog, conv, q);
            let decorrelated = Engine::new(&catalog, conv)
                .with_threads(1)
                .with_decorrelate(true)
                .eval_collection(q)
                .unwrap();
            assert_eq!(
                reference.sorted_rows(),
                decorrelated.sorted_rows(),
                "conv {conv:?}"
            );
        }
    }
    // And the verdicts themselves: 1 and NULL survive ¬∃ (NULL keys can
    // never witness the existential), only 2 survives ∃.
    let anti_rows = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&anti)
        .unwrap();
    assert_eq!(
        anti_rows.sorted_rows(),
        // Canonical key order sorts NULL first.
        vec![vec![Value::Null], vec![Value::Int(1)]]
    );
    let semi_rows = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&semi)
        .unwrap();
    assert_eq!(semi_rows.sorted_rows(), vec![vec![Value::Int(2)]]);
}

/// Eq (17) — `NOT IN` with explicit null guards — must *not* decorrelate
/// (its scope body is a disjunction, i.e. correlated `pre_bool`), and
/// must keep returning the empty result when `S` contains a NULL.
#[test]
fn guarded_not_in_stays_on_the_nested_path() {
    let catalog = arc_engine::Catalog::new()
        .with(arc_engine::Relation::from_ints("R", &["A"], &[&[1], &[2]]))
        .with({
            let mut s = arc_engine::Relation::new("S", &["A"]);
            s.push(vec![arc_core::value::Value::Int(2)]);
            s.push(vec![arc_core::value::Value::Null]);
            s
        });
    let q = fx::eq17();
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let plan = engine.explain_collection(&q).unwrap();
    assert!(
        !plan.contains("-join on"),
        "disjunctive correlation must not decorrelate:\n{plan}"
    );
    assert!(engine.eval_collection(&q).unwrap().is_empty());
}

/// Golden `EXPLAIN` for the decorrelated semi-join: the new operator line
/// carries the correlated key and the semi-join selectivity estimate
/// (distinct keys, MCV-capped), and the build pipeline renders beneath it
/// as an ordinary scope evaluated once — whose selective `s.C > 59` bound
/// the analyzed catalog turns into an index-range access path.
#[test]
fn explain_semijoin_golden() {
    // `analyze()` pins the statistics state explicitly: the suite runs
    // under `ARC_STATS=off` too, where registration does not auto-analyze.
    let mut catalog = fx::semijoin_catalog(64, 64);
    catalog.analyze();
    let engine = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_decorrelate(true)
        .with_indexes(true)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_collection(&fx::exists_corr(64)).unwrap();
    let expected = "\
project Q(A)
  scope
    1: scan R as r (est=64)
    emit: Q.A = r.A
    [semi-join ∃]
      semi-join on [s.B = r.B] (est=4)
        build (once)
          scope
            1: index-range on [C..] S as s (est=4)
";
    assert_eq!(plan, expected, "semi-join plan drifted:\n{plan}");
}

/// Golden `EXPLAIN` for the anti-join twin, and the escape hatch: an
/// engine with decorrelation off renders the classic nested probe plan.
#[test]
fn explain_antijoin_and_escape_hatch_golden() {
    let mut catalog = fx::semijoin_catalog(64, 64);
    catalog.analyze();
    let q = fx::not_exists_corr(64);
    let on = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_decorrelate(true)
        .with_indexes(true)
        .with_mem_budget(0)
        .explain_collection(&q)
        .unwrap();
    let expected = "\
project Q(A)
  scope
    1: scan R as r (est=64)
    emit: Q.A = r.A
    [anti-join ¬∃]
      anti-join on [s.B = r.B] (est=4)
        build (once)
          scope
            1: index-range on [C..] S as s (est=4)
";
    assert_eq!(on, expected, "anti-join plan drifted:\n{on}");

    let off = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_decorrelate(false)
        .explain_collection(&q)
        .unwrap();
    assert!(
        off.contains("hash-probe on [s.B = r.B]") && !off.contains("-join on"),
        "ARC_DECORRELATE=off must render the nested probe plan:\n{off}"
    );
}

/// A malformed `ARC_DECORRELATE` value surfaces as a descriptive
/// configuration error (parse-level check; the engine wiring follows the
/// same deferred-error path as `ARC_THREADS`).
#[test]
fn malformed_decorrelate_value_is_descriptive() {
    let err =
        arc_engine::eval::knobs::parse_onoff("ARC_DECORRELATE", Some("sideways")).unwrap_err();
    assert!(err.contains("ARC_DECORRELATE"), "{err}");
    assert!(err.contains("sideways"), "{err}");
    assert!(err.contains("expected"), "{err}");
}

/// Two decorrelated scopes of one evaluation that differ only in a
/// constant have the same shape, so the plan cache hands both the same
/// plan — and each must still probe its *own* build. Without statistics
/// the constants share a plan key outright; analyzed, they share it
/// whenever they fall in one selectivity bucket (here: equally frequent).
#[test]
fn sibling_scopes_differing_in_a_constant_build_separately() {
    use arc_core::value::Value;
    let mut r = arc_engine::Relation::new("R", &["A"]);
    let mut s = arc_engine::Relation::new("S", &["A", "B"]);
    for a in 0..40 {
        r.push(vec![Value::Int(a)]);
        // S holds (a, 1) for a mod 4 ∈ {0, 1} and (a, 2) for a mod 4 ∈
        // {1, 2}: twenty rows each.
        if a % 4 <= 1 {
            s.push(vec![Value::Int(a), Value::Int(1)]);
        }
        if (1..=2).contains(&(a % 4)) {
            s.push(vec![Value::Int(a), Value::Int(2)]);
        }
    }
    let mut analyzed = arc_engine::Catalog::new().with(r).with(s);
    analyzed.analyze();
    let mut plain = analyzed.clone();
    plain.clear_stats();

    let both = fx::q(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.A = r.A ∧ s.B = 1] ∧ ∃s ∈ S [s.A = r.A ∧ s.B = 2]]}",
    );
    let neither = fx::q(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ¬(∃s ∈ S [s.A = r.A ∧ s.B = 1]) ∧ ¬(∃s ∈ S [s.A = r.A ∧ s.B = 2])]}",
    );
    let first_only = fx::q(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.A = r.A ∧ s.B = 1] ∧ ¬(∃s ∈ S [s.A = r.A ∧ s.B = 2])]}",
    );
    let rows_where = |keep: fn(i64) -> bool| -> Vec<Vec<Value>> {
        (0..40)
            .filter(|&a| keep(a))
            .map(|a| vec![Value::Int(a)])
            .collect()
    };
    let expect = [
        (&both, rows_where(|a| a % 4 == 1)),
        (&neither, rows_where(|a| a % 4 == 3)),
        (&first_only, rows_where(|a| a % 4 == 0)),
    ];
    for (statistics, catalog) in [("none", &plain), ("analyzed", &analyzed)] {
        for (q, rows) in &expect {
            let reference = arc_tests::oracle_rows(catalog, Conventions::sql(), q);
            assert_eq!(&reference.sorted_rows(), rows);
            for threads in [1usize, 4] {
                let decorrelated = Engine::new(catalog, Conventions::sql())
                    .with_threads(threads)
                    .with_decorrelate(true)
                    .eval_collection(q)
                    .unwrap();
                assert_eq!(
                    &decorrelated.sorted_rows(),
                    rows,
                    "threads {threads}, statistics {statistics}, query {q:?}"
                );
            }
        }
    }
}
