//! Workspace invariant 11: **decorrelation changes execution, never
//! results.**
//!
//! A boolean quantifier scope with pure equi-join correlation executes as
//! a build-once set-level semi/anti-join, and as the per-outer-row nested
//! loop when the memory budget denies the build. Both paths must return
//! the oracle's rows under every convention, thread count, and NULL
//! density — with the
//! `¬∃`-over-NULL-keys corner (the `NOT IN` shape of Fig 11) generated
//! explicitly, because that is where a naive set translation would
//! diverge from three-valued logic.
//!
//! Deterministic companions pin the NULL semantics row-for-row and golden
//! the new `EXPLAIN` operators (`semi-join on […]` / `anti-join on […]`
//! with `est=N` and a `build (once)` pipeline).

use arc_analysis::{random_catalog, random_correlated_boolean_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::Engine;
use arc_tests::fixtures as fx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 11: decorrelated ≡ starved (nested) ≡ the oracle, as bags
    /// (as sets under set conventions), for generated correlated `∃`/`¬∃`
    /// queries across conventions × `ARC_THREADS` ∈ {1, 4} × NULL-heavy
    /// instances.
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
                for budget in [0usize, 1] {
                    let result = Engine::new(&catalog, conv)
                        .with_threads(threads)
                        .with_mem_budget(budget)
                        .eval_collection(&q)
                        .unwrap();
                    prop_assert!(
                        arc_tests::agrees(conv, &result, &reference),
                        "conv {:?} threads {} budget {}\nquery {:?}\nreference:\n{}\ngot:\n{}",
                        conv, threads, budget, q, reference, result
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
/// the Fig 11 guards to get SQL's `NOT IN` instead, which runs as a
/// null-aware anti-join — see `guarded_not_in_decorrelates`).
#[test]
fn null_keys_under_negation_match_reference() {
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

/// Eq (17) — `NOT IN` with explicit null guards — decorrelates into a
/// **null-aware** anti-join keyed on the guard's equality, and keeps
/// returning the empty result when `S` contains a NULL.
#[test]
fn guarded_not_in_decorrelates() {
    let catalog = arc_engine::Catalog::new()
        .with(arc_engine::Relation::from_ints("R", &["A"], &[&[1], &[2]]))
        .with({
            let mut s = arc_engine::Relation::new("S", &["A"]);
            s.push(vec![arc_core::value::Value::Int(2)]);
            s.push(vec![arc_core::value::Value::Null]);
            s
        });
    let q = fx::eq17();
    let engine = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_mem_budget(0);
    let plan = engine.explain_collection(&q).unwrap();
    let expected = "\
project Q(A)
  scope
    1: scan R as r (est=2)
    emit: Q.A = r.A
    [anti-join ¬∃]
      anti-join on [s.A = r.A] null-aware (est=1)
        build (once)
          scope
            1: scan S as s (est=2)
";
    assert_eq!(plan, expected, "null-aware anti-join plan drifted:\n{plan}");
    assert!(engine.eval_collection(&q).unwrap().is_empty());
}

/// `N(A)` and `M(A, B)` from the given rows.
fn not_in_catalog(n: &[Value], m: &[(Value, i64)]) -> arc_engine::Catalog {
    let n = n.iter().map(|a| vec![a.clone()]).collect();
    let m = m
        .iter()
        .map(|(a, b)| vec![a.clone(), Value::Int(*b)])
        .collect();
    arc_engine::Catalog::new()
        .with(arc_engine::Relation::from_rows("N", &["A"], n))
        .with(arc_engine::Relation::from_rows("M", &["A", "B"], m))
}

/// Every NULL placement the null-aware anti-join distinguishes, plus NaN
/// (a key that equals nothing, itself included, and is not NULL).
fn not_in_placements() -> Vec<(&'static str, arc_engine::Catalog)> {
    let (i, f, null, nan) = (
        Value::Int,
        Value::Float,
        Value::Null,
        Value::Float(f64::NAN),
    );
    vec![
        ("M empty", not_in_catalog(&[i(1), i(2), null.clone()], &[])),
        (
            "M only NULL",
            not_in_catalog(&[i(1), i(2), null.clone()], &[(null.clone(), 1)]),
        ),
        (
            // `M.B = 1` filters the NULL out of the build.
            "NULL in M removed by a build filter",
            not_in_catalog(&[i(1), i(2), i(3)], &[(i(2), 1), (null.clone(), 0)]),
        ),
        (
            "NULL in N only",
            not_in_catalog(&[i(1), i(2), null.clone()], &[(i(2), 1), (i(3), 1)]),
        ),
        (
            "NULL in M only",
            not_in_catalog(&[i(1), i(2), i(3)], &[(i(2), 1), (null.clone(), 1)]),
        ),
        (
            "NULL in both",
            not_in_catalog(&[i(1), null.clone()], &[(i(1), 1), (null.clone(), 1)]),
        ),
        (
            "NaN in N",
            not_in_catalog(&[f(1.0), nan.clone(), f(2.5)], &[(f(1.0), 1), (f(3.0), 1)]),
        ),
        (
            "NaN in M",
            not_in_catalog(&[f(1.0), f(2.5), nan.clone()], &[(nan, 1), (f(2.5), 1)]),
        ),
    ]
}

/// The guarded `NOT IN` in both spellings — SQL, and ARC's Eq 17 with its
/// disjuncts permuted — plus its `∃` twin, with and without a build filter.
fn guarded_queries() -> Vec<arc_core::ast::Collection> {
    let schemas = not_in_catalog(&[], &[]).schema_map();
    let sql = |text: &str| arc_sql::sql_to_arc(text, &schemas).unwrap();
    vec![
        sql("select N.A from N where N.A not in (select M.A from M)"),
        sql("select N.A from N where N.A not in (select M.A from M where M.B = 1)"),
        fx::q("{Q(A) | ∃r ∈ N [Q.A = r.A ∧ ¬(∃s ∈ M [s.A = r.A ∨ s.A is null ∨ r.A is null])]}"),
        fx::q("{Q(A) | ∃r ∈ N [Q.A = r.A ∧ ¬(∃s ∈ M [r.A is null ∨ r.A = s.A ∨ s.A is null])]}"),
        fx::q(
            "{Q(A) | ∃r ∈ N [Q.A = r.A ∧ \
             ¬(∃s ∈ M [s.B = 1 ∧ (s.A is null ∨ r.A is null ∨ s.A = r.A)])]}",
        ),
        fx::q("{Q(A) | ∃r ∈ N [Q.A = r.A ∧ ∃s ∈ M [r.A is null ∨ s.A is null ∨ s.A = r.A]]}"),
    ]
}

/// The null-aware anti-join ≡ the oracle over every NULL placement, under
/// every convention, at threads 1 and 4 — and under a one-byte memory
/// budget, where the build is denied and the nested path answers.
#[test]
fn null_aware_anti_join_matches_reference() {
    for q in guarded_queries() {
        for (case, catalog) in not_in_placements() {
            for conv in [
                Conventions::sql(),
                Conventions::set(),
                Conventions::souffle(),
            ] {
                let reference = arc_tests::oracle_rows(&catalog, conv, &q);
                for threads in [1usize, 4] {
                    for budget in [0usize, 1] {
                        let engine = Engine::new(&catalog, conv)
                            .with_threads(threads)
                            .with_mem_budget(budget);
                        if budget == 0 {
                            let plan = engine.explain_collection(&q).unwrap();
                            assert!(plan.contains(" null-aware (est="), "{q:?}\n{plan}");
                        }
                        let got = engine.eval_collection(&q).unwrap();
                        assert!(
                            arc_tests::agrees(conv, &got, &reference),
                            "{case}, conv {conv:?}, threads {threads}, budget {budget}\n\
                             query {q:?}\nreference:\n{reference}\ngot:\n{got}"
                        );
                    }
                }
            }
        }
    }
}

/// NaN under the null-aware anti-join is what `Cmp Eq` makes it on the
/// nested path: not NULL, and equal to nothing — so a NaN in `N` survives
/// `NOT IN`, and a NaN in `M` excludes nothing.
#[test]
fn nan_is_a_key_that_matches_nothing() {
    let q =
        fx::q("{Q(A) | ∃r ∈ N [Q.A = r.A ∧ ¬(∃s ∈ M [s.A = r.A ∨ s.A is null ∨ r.A is null])]}");
    let (one, nan) = (Value::Float(1.0), Value::Float(f64::NAN));
    let is_nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
    // (M's one row, N's survivors of `N = {1.0, NaN}`).
    for (m, survivors) in [(one.clone(), 1), (nan.clone(), 2)] {
        let catalog = not_in_catalog(&[one.clone(), nan.clone()], &[(m, 1)]);
        for budget in [0usize, 1] {
            let got = Engine::new(&catalog, Conventions::sql())
                .with_threads(1)
                .with_mem_budget(budget)
                .eval_collection(&q)
                .unwrap();
            assert_eq!(got.rows.len(), survivors, "budget {budget}: {got}");
            assert!(got.rows.iter().any(|r| is_nan(&r[0])), "{got}");
        }
    }
}

/// Shapes one step away from Eq 17's guard stay on the nested path — and
/// still agree with the oracle.
#[test]
fn near_miss_guards_stay_nested() {
    let near_misses = [
        // `is not null` in place of `is null`.
        "¬(∃s ∈ M [s.A = r.A ∨ s.A is not null ∨ r.A is null])",
        // `<>` in place of `=`.
        "¬(∃s ∈ M [s.A <> r.A ∨ s.A is null ∨ r.A is null])",
        // A fourth disjunct.
        "¬(∃s ∈ M [s.A = r.A ∨ s.A is null ∨ r.A is null ∨ s.B = 2])",
        // The local `is null` on a different column.
        "¬(∃s ∈ M [s.A = r.A ∨ s.B is null ∨ r.A is null])",
        // Two guards.
        "¬(∃s ∈ M [(s.A = r.A ∨ s.A is null ∨ r.A is null) ∧ \
                   (s.B = r.A ∨ s.B is null ∨ r.A is null)])",
        // A guard beside an equi-join key.
        "¬(∃s ∈ M [s.B = r.A ∧ (s.A = r.A ∨ s.A is null ∨ r.A is null)])",
    ];
    for body in near_misses {
        let q = fx::q(&format!("{{Q(A) | ∃r ∈ N [Q.A = r.A ∧ {body}]}}"));
        for (case, catalog) in not_in_placements() {
            let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
            let plan = engine.explain_collection(&q).unwrap();
            assert!(
                !plan.contains("-join on"),
                "{body} must stay nested:\n{plan}"
            );
            let got = engine.eval_collection(&q).unwrap();
            let reference = arc_tests::oracle_rows(&catalog, Conventions::sql(), &q);
            assert!(
                arc_tests::agrees(Conventions::sql(), &got, &reference),
                "{case}: {body}\nreference:\n{reference}\ngot:\n{got}"
            );
        }
    }
}

/// Two guarded `NOT IN` scopes of one query that differ only in a build
/// filter's constant share a plan, yet each probes its own key set.
#[test]
fn sibling_not_in_scopes_differing_in_a_constant_build_separately() {
    let catalog = not_in_catalog(
        &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
        &[(Value::Int(1), 1), (Value::Int(2), 2), (Value::Int(3), 2)],
    );
    let q = fx::q(
        "{Q(A) | ∃r ∈ N [Q.A = r.A ∧ \
         ¬(∃s ∈ M [s.B = 1 ∧ (s.A = r.A ∨ s.A is null ∨ r.A is null)]) ∧ \
         ¬(∃s ∈ M [s.B = 2 ∧ (s.A = r.A ∨ s.A is null ∨ r.A is null)])]}",
    );
    for threads in [1usize, 4] {
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_mem_budget(0);
        assert_eq!(
            engine
                .explain_collection(&q)
                .unwrap()
                .matches("null-aware")
                .count(),
            2
        );
        let got = engine.eval_collection(&q).unwrap();
        assert_eq!(
            got.sorted_rows(),
            vec![vec![Value::Int(4)]],
            "threads {threads}"
        );
    }
}

/// Golden `EXPLAIN` for the decorrelated semi-join: the new operator line
/// carries the correlated key and the semi-join selectivity estimate
/// (distinct keys, MCV-capped), and the build pipeline renders beneath it
/// as an ordinary scope evaluated once — whose selective `s.C > 59` bound
/// the analyzed catalog turns into an index-range access path.
#[test]
fn explain_semijoin_golden() {
    let mut catalog = fx::semijoin_catalog(64, 64);
    catalog.analyze();
    let engine = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
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

/// Golden `EXPLAIN` for the anti-join twin, and the escape hatch: the
/// fallback is a run-time decision, so a starved engine shows the same
/// plan under a governance note — and its nested answer is the oracle's.
#[test]
fn explain_antijoin_and_escape_hatch_golden() {
    let mut catalog = fx::semijoin_catalog(64, 64);
    catalog.analyze();
    let q = fx::not_exists_corr(64);
    let engine = |budget| {
        Engine::new(&catalog, Conventions::sql())
            .with_threads(1)
            .with_mem_budget(budget)
    };
    let on = engine(0).explain_collection(&q).unwrap();
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

    let starved = engine(1);
    let off = starved.explain_collection(&q).unwrap();
    assert!(
        off.starts_with(expected)
            && off[expected.len()..].starts_with("governance: memory budget 1 B"),
        "a starved engine must show the same plan under the governance note:\n{off}"
    );
    let got = starved.eval_collection(&q).unwrap();
    arc_tests::assert_oracle(&catalog, Conventions::sql(), &q, &got);
}

/// Two decorrelated scopes of one evaluation that differ only in a
/// constant have the same shape, so the plan cache hands both the same
/// plan — and each must still probe its *own* build. Without statistics
/// the constants share a plan key outright; analyzed, they share it
/// whenever they fall in one selectivity bucket (here: equally frequent).
#[test]
fn sibling_scopes_differing_in_a_constant_build_separately() {
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
