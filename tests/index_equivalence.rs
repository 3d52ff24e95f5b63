//! Workspace invariant 13 — **ordered index access is invisible**: for
//! any program and instance, the engine returns the oracle's rows, and
//! the same rows (same order, same multiplicities) when the memory budget
//! denies the ordered-index build and the planned index range streams
//! the scan instead, across:
//!
//! * both convention presets (SQL three-valued and set two-valued),
//! * NULL/NaN-heavy and mixed-type instances (the class-ordering corners
//!   the ordered index's binary search must get right),
//! * `ARC_THREADS` 1 and 4 (the index selection partitions like a scan's
//!   selection vector),
//! * analyzed catalogs — only statistics make index-range a candidate,
//!   so every proptest case runs post-`ANALYZE`,
//! * prefix gaps: predicates the bound cannot consume (a second range
//!   column, `<>`) are demoted to post-filters and must not change rows.
//!
//! Errors must surface identically too: a selective index bound ordered
//! before an erroring post-filter skips exactly the rows the full scan's
//! pushed-down filter would have skipped — never more, never fewer.

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_core::dsl as d;
use arc_core::value::Value;
use arc_engine::{seam, Catalog, Engine, Relation};
use arc_tests::deny_first;
use arc_tests::fixtures as fx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scaled-up instances so scans clear the vectorization floor and the
/// partition gate (the paths the index selection composes with).
fn big_spec(with_nulls: bool) -> InstanceSpec {
    let mut spec = if with_nulls {
        InstanceSpec::rs_with_nulls(0.25)
    } else {
        InstanceSpec::rs()
    };
    for r in &mut spec.relations {
        r.rows = 48..120;
        r.domain = 0..10;
    }
    spec
}

/// Evaluate `q` on the default engine (the reference, checked against the
/// oracle), then on it, on it denied its first ordered build, and on it
/// denied every build, under every thread count, asserting row-identical
/// output.
fn assert_index_invisible(catalog: &Catalog, q: &arc_core::ast::Collection, conv: Conventions) {
    let reference = Engine::new(catalog, conv)
        .with_threads(1)
        .eval_collection(q)
        .unwrap();
    arc_tests::assert_oracle(catalog, conv, q, &reference);
    for threads in [1usize, 4] {
        let engine = || Engine::new(catalog, conv).with_threads(threads);
        for (mode, engine) in [
            ("default", engine()),
            ("ordered denied", deny_first(engine(), seam::ORDERED_BUILD)),
            ("starved", engine().with_mem_budget(1)),
        ] {
            let got = engine.eval_collection(q).unwrap();
            assert_eq!(
                reference.rows, got.rows,
                "{mode} threads {threads} {conv:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 13 over generated conjunctive queries (joins plus
    /// range-shaped constant selections), with and without NULLs, both
    /// conventions, on `ANALYZE`d catalogs.
    #[test]
    fn indexed_identical_on_conjunctive_queries(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in any::<bool>(),
    ) {
        let spec = big_spec(with_nulls);
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7717));
        let mut catalog = random_catalog(&spec, &mut rng);
        catalog.analyze();
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_index_invisible(&catalog, &q, conv);
        }
    }
}

/// The acceptance demonstration on the skewed range-join fixture: with
/// statistics the planner walks the ordered index; without them it plans
/// no index range — and the rows are the oracle's either way, and the
/// same when the budget denies the index build.
#[test]
fn skew_fixture_plans_index_range_and_matches_the_scan() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = fx::eq1_range(n);
    let mut bare = catalog.clone();
    bare.clear_stats();

    let explain = |catalog| {
        Engine::new(catalog, Conventions::sql())
            .with_threads(1)
            .explain_collection(&q)
            .unwrap()
    };
    let on = explain(&catalog);
    assert!(
        on.contains("index-range on [A..] R as r"),
        "analyzed plan must walk the ordered index:\n{on}"
    );
    let off = explain(&bare);
    assert!(
        !off.contains("index-range"),
        "without statistics the plan must scan:\n{off}"
    );

    for conv in [Conventions::sql(), Conventions::set()] {
        assert_index_invisible(&catalog, &q, conv);
        let scanned = Engine::new(&bare, conv).eval_collection(&q).unwrap();
        arc_tests::assert_oracle(&bare, conv, &q, &scanned);
    }
    let rows = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(rows.deduped().len(), 7, "r.A > {} keeps 7 rows", n - 8);
}

/// An unselective bound must NOT flip to index-range even on an analyzed
/// catalog: `r.A > 8` keeps ~99% of the rows, so the planner keeps the
/// full scan (the bench's "index only fires when it pays" gate).
#[test]
fn unselective_bounds_keep_the_full_scan() {
    let mut catalog = fx::stats_skew_catalog(1024);
    catalog.analyze();
    let q = fx::q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ r.A > 8]}");
    let plan = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .explain_collection(&q)
        .unwrap();
    assert!(
        !plan.contains("index-range"),
        "an unselective bound must stay a scan:\n{plan}"
    );
}

/// The multi-column prefix fixture: `r.A = 3` extends the prefix,
/// `r.B > n-64` closes it, and `r.C <> 1` is demoted to a post-filter —
/// all visible in `EXPLAIN`, with rows identical to the scan path.
#[test]
fn eq_prefix_and_demoted_residue_match_the_scan() {
    let n = 2048;
    let mut catalog = fx::prefix_catalog(n);
    catalog.analyze();
    let q = fx::prefix_range(n);

    let plan = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .explain_collection(&q)
        .unwrap();
    assert!(
        plan.contains("index-range on [A, B..] R as r"),
        "the constant equality must extend the bound prefix:\n{plan}"
    );
    assert!(
        plan.contains("filter: r.C <> 1"),
        "the residue must be demoted to a post-filter:\n{plan}"
    );

    for conv in [Conventions::sql(), Conventions::set()] {
        assert_index_invisible(&catalog, &q, conv);
    }
    // 2048/8 = 256 rows have A = 3; of those, B > 1984 keeps 8; C <> 1
    // drops the `i ≡ 1 (mod 5)` survivors.
    let rows = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert!(!rows.rows.is_empty());
}

/// A relation exercising the ordered index's class-ordering corners: a
/// mixed-type column (ints, strings, floats incl. NaN, bools, NULLs), a
/// NaN-heavy float column, and a clean int column.
fn corner_catalog(n: i64) -> Catalog {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                match i % 6 {
                    0 => Value::Int(i % 11),
                    1 => Value::str(format!("s{}", i % 5)),
                    2 => Value::Float(f64::NAN),
                    3 => Value::Float((i % 7) as f64 + 0.5),
                    4 => Value::Bool(i % 2 == 0),
                    _ => Value::Null,
                },
                if i % 3 == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float((i % 13) as f64)
                },
                Value::Int(i % 17),
            ]
        })
        .collect();
    let mut c = Catalog::new();
    let mut rel = Relation::new("M".to_string(), &["A", "B", "C"]);
    for row in rows {
        rel.push(row);
    }
    c.add(rel);
    c
}

/// Mixed-type / NaN columns at chunk-boundary sizes: every range bound
/// (int, float, string constants; one- and two-sided) agrees with the
/// row path exactly, because the search replicates `Value::compare`
/// within the constant's class window.
#[test]
fn class_ordering_corners_match_the_scan() {
    for n in [1023i64, 1024, 1025] {
        let mut catalog = corner_catalog(n);
        catalog.analyze();
        let filter_sets: Vec<Vec<arc_core::ast::Formula>> = vec![
            vec![d::gt(d::col("m", "A"), d::int(8))],
            vec![d::lt(d::col("m", "A"), d::text("s1"))],
            vec![
                d::ge(d::col("m", "A"), d::flt(2.5)),
                d::le(d::col("m", "A"), d::flt(4.5)),
            ],
            vec![d::gt(d::col("m", "B"), d::flt(10.0))],
            vec![
                d::gt(d::col("m", "C"), d::int(13)),
                d::lt(d::col("m", "B"), d::flt(3.0)),
            ],
            vec![
                d::ge(d::col("m", "C"), d::int(15)),
                d::ne(d::col("m", "A"), d::int(3)),
            ],
        ];
        for filters in filter_sets {
            let mut preds = vec![d::assign("Q", "C", d::col("m", "C"))];
            preds.extend(filters);
            let q = d::collection("Q", &["C"], d::exists(&[d::bind("m", "M")], d::and(preds)));
            for conv in [Conventions::sql(), Conventions::set()] {
                assert_index_invisible(&catalog, &q, conv);
            }
        }
    }
}

/// `T(A,B,C)` with `B = i mod 8` and `C = i mod 4` (equality prefixes)
/// and `A` whatever `a(i)` makes it.
fn keyed_catalog(n: i64, a: impl Fn(i64) -> Value) -> Catalog {
    let mut t = Relation::new("T", &["A", "B", "C"]);
    for i in 0..n {
        t.push(vec![a(i), Value::Int(i % 8), Value::Int(i % 4)]);
    }
    let mut catalog = Catalog::new().with(t);
    catalog.analyze();
    catalog
}

/// `{Q(A,B) | ∃t ∈ T [Q.A = t.A ∧ Q.B = t.B ∧ filters]}` must plan an
/// index-range scan and return what the scan path returns, row for row.
fn assert_walks_index_like_the_scan(catalog: &Catalog, filters: Vec<arc_core::ast::Formula>) {
    let mut preds = vec![
        d::assign("Q", "A", d::col("t", "A")),
        d::assign("Q", "B", d::col("t", "B")),
    ];
    preds.extend(filters);
    let q = d::collection(
        "Q",
        &["A", "B"],
        d::exists(&[d::bind("t", "T")], d::and(preds)),
    );
    let plan = Engine::new(catalog, Conventions::sql())
        .with_threads(1)
        .explain_collection(&q)
        .unwrap();
    assert!(
        plan.contains("index-range on ["),
        "not an index walk:\n{plan}"
    );
    for conv in [Conventions::sql(), Conventions::set()] {
        assert_index_invisible(catalog, &q, conv);
    }
}

/// All-`Int` indexes of width 1–3 over the extremes of `i64`, negatives
/// and long duplicate runs (which must come back in row order).
#[test]
fn int_indexes_with_extremes_and_duplicates_match_the_scan() {
    let catalog = keyed_catalog(4_000, |i| {
        Value::Int(match i % 10 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -(i % 13),
            _ => i % 5,
        })
    });
    let a = || d::col("t", "A");
    let b_is = |v| d::eq(d::col("t", "B"), d::int(v));
    let c_is = |v| d::eq(d::col("t", "C"), d::int(v));
    for filters in [
        vec![d::ge(a(), d::int(i64::MAX))],
        vec![d::le(a(), d::int(i64::MIN))],
        vec![d::lt(a(), d::int(-3))],
        vec![d::gt(a(), d::int(i64::MIN)), d::lt(a(), d::int(0))],
        vec![d::gt(a(), d::flt(3.5))],
        vec![b_is(1), d::gt(a(), d::int(2))],
        vec![b_is(3), d::le(a(), d::int(i64::MAX)), d::ge(a(), d::int(4))],
        vec![c_is(1), b_is(5), d::le(a(), d::int(-1))],
        vec![
            c_is(2),
            b_is(2),
            d::ge(a(), d::int(0)),
            d::ne(a(), d::int(3)),
        ],
    ] {
        assert_walks_index_like_the_scan(&catalog, filters);
    }
}

/// Columns the index cannot pack whole: integral floats among ints (they
/// key as ints), one fractional float, strings that first appear after
/// row 1 024, `NULL`/`NaN` cells — alone and behind an `Int` prefix.
#[test]
fn columns_that_leave_the_int_class_match_the_scan() {
    let integral = |i: i64| {
        if i % 2 == 0 {
            Value::Int(i % 97)
        } else {
            Value::Float((i % 97) as f64)
        }
    };
    let a = || d::col("t", "A");
    let b_is = |v| d::eq(d::col("t", "B"), d::int(v));
    let numeric = || {
        vec![
            vec![d::gt(a(), d::int(90))],
            vec![d::ge(a(), d::flt(93.0)), d::lt(a(), d::flt(95.5))],
            vec![b_is(1), d::gt(a(), d::flt(80.0))],
            vec![b_is(2), d::le(a(), d::int(3))],
        ]
    };
    for catalog in [
        keyed_catalog(4_096, integral),
        keyed_catalog(4_096, |i| match i {
            1_500 => Value::Float(2.5),
            _ => integral(i),
        }),
        keyed_catalog(4_096, |i| match i {
            _ if i % 11 == 0 => Value::Null,
            _ if i % 13 == 0 => Value::Float(f64::NAN),
            _ => integral(i),
        }),
    ] {
        for filters in numeric() {
            assert_walks_index_like_the_scan(&catalog, filters);
        }
    }
    let late_strings = keyed_catalog(4_096, |i| {
        if i > 1_024 {
            Value::str(format!("s{:02}", i % 97))
        } else {
            Value::Int(i % 97)
        }
    });
    for filters in [
        vec![d::lt(a(), d::int(20))],
        vec![d::ge(a(), d::text("s80"))],
        vec![b_is(1), d::lt(a(), d::text("s20"))],
        vec![b_is(7), d::le(a(), d::int(30))],
    ] {
        assert_walks_index_like_the_scan(&late_strings, filters);
    }
}

/// A relation that grew is indexed afresh: the rows appended since the
/// last index walk are found, in row order.
#[test]
fn a_grown_relation_is_indexed_afresh() {
    let mut catalog = keyed_catalog(4_000, |i| Value::Int(i % 100));
    let filters = || vec![d::gt(d::col("t", "A"), d::int(95))];
    assert_walks_index_like_the_scan(&catalog, filters());
    let mut grown = catalog.relation("T").unwrap().clone();
    for i in 0..64i64 {
        let a = if i % 2 == 0 {
            Value::Int(96 + i)
        } else {
            Value::Float(96.5 + i as f64)
        };
        grown.push(vec![a, Value::Int(i % 8), Value::Int(i % 4)]);
    }
    catalog.add(grown);
    catalog.analyze();
    assert_walks_index_like_the_scan(&catalog, filters());
    let rows = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&d::collection(
            "Q",
            &["A"],
            d::exists(
                &[d::bind("t", "T")],
                d::and([
                    d::assign("Q", "A", d::col("t", "A")),
                    d::gt(d::col("t", "A"), d::int(99)),
                ]),
            ),
        ))
        .unwrap();
    assert_eq!(rows.len(), 61, "only appended rows exceed 99");
}

/// Error equivalence: a selective index bound ordered before an erroring
/// post-filter must produce the identical outcome — the bound admits
/// exactly the rows the pushed-down filter would have admitted, so the
/// erroring filter sees the same survivors (or the same empty set).
#[test]
fn errors_surface_identically() {
    let n = 2048;
    let mut catalog = fx::prefix_catalog(n);
    catalog.analyze();
    // Without statistics the bound is a pushed-down scan filter.
    let mut bare = catalog.clone();
    bare.clear_stats();
    // `r.B > n-64` keeps rows, so `r.NOPE` errors either way; `r.B > n`
    // keeps none, so both paths return the empty result.
    for (bound, label) in [(n as i64 - 64, "surviving"), (n as i64, "empty")] {
        let q = d::collection(
            "Q",
            &["B"],
            d::exists(
                &[d::bind("r", "R")],
                d::and([
                    d::assign("Q", "B", d::col("r", "B")),
                    d::gt(d::col("r", "B"), d::int(bound)),
                    d::le(d::col("r", "NOPE"), d::int(3)),
                ]),
            ),
        );
        let engine = || Engine::new(&catalog, Conventions::sql());
        let on = engine().eval_collection(&q);
        let scan = Engine::new(&bare, Conventions::sql());
        let denied = deny_first(engine(), seam::ORDERED_BUILD);
        for off in [scan, denied, engine().with_mem_budget(1)] {
            assert_eq!(off.eval_collection(&q), on, "outcome drift ({label})");
        }
    }
}
