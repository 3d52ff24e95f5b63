//! Workspace invariant 12 — **vectorized execution is invisible**: for
//! any program and instance, the engine returns the oracle's rows, and
//! the same rows (same order, same multiplicities) when the memory budget
//! keeps it off the columnar path — every build denied, so scans filter
//! row by row, or only the first chunk build, so a selection computes
//! through the row kernels — across:
//!
//! * both convention presets (SQL three-valued and set two-valued),
//! * NULL/NaN-heavy instances,
//! * `ARC_THREADS` 1 and 4 (chunk-aligned morsels),
//! * mixed-type and all-NULL columns — the validity-bitmap corners the
//!   typed kernels must get right, exercised explicitly below,
//! * chunk-boundary relation sizes (1023 / 1024 / 1025),
//! * correlated boolean scopes (the decorrelated semi-join's columnar
//!   key-set build).
//!
//! Errors must surface identically too: a filter the row path would
//! error on cannot be silently filtered by a kernel (the engine only
//! vectorizes the leading run of non-erroring constant filters).

use arc_analysis::{
    random_catalog, random_conjunctive_query, random_correlated_boolean_query, InstanceSpec,
};
use arc_core::conventions::Conventions;
use arc_core::dsl as d;
use arc_core::value::Value;
use arc_engine::{seam, Catalog, Engine, Relation};
use arc_tests::deny_first;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scaled-up instances so scans clear the vectorization floor
/// (`VECTOR_MIN_ROWS`) and the partition gate.
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
/// oracle), then on it and its two budget-starved twins under every
/// thread count, asserting row-identical output.
fn assert_vector_invisible(catalog: &Catalog, q: &arc_core::ast::Collection, conv: Conventions) {
    let reference = Engine::new(catalog, conv)
        .with_threads(1)
        .eval_collection(q)
        .unwrap();
    arc_tests::assert_oracle(catalog, conv, q, &reference);
    for threads in [1usize, 4] {
        let engine = || Engine::new(catalog, conv).with_threads(threads);
        for (mode, engine) in [
            ("default", engine()),
            ("starved", engine().with_mem_budget(1)),
            ("chunk denied", deny_first(engine(), seam::CHUNK_BUILD)),
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

    /// Invariant 12 over generated conjunctive queries (joins plus the
    /// `<=`-constant selections the kernel path hoists), with and
    /// without NULLs, both conventions.
    #[test]
    fn vectorized_identical_on_conjunctive_queries(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in any::<bool>(),
    ) {
        let spec = big_spec(with_nulls);
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(4219));
        let catalog = random_catalog(&spec, &mut rng);
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_vector_invisible(&catalog, &q, conv);
        }
    }

    /// Invariant 12 over correlated boolean scopes: the decorrelated
    /// semi/anti-join path builds its key set columnar unless the budget
    /// denies it — the verdicts must not move.
    #[test]
    fn vectorized_identical_on_correlated_boolean_queries(
        seed in 0u64..200,
        keys in 0usize..3,
        inner_joins in 1usize..3,
        negated in any::<bool>(),
    ) {
        let spec = big_spec(true);
        let q = random_correlated_boolean_query(&spec, keys, inner_joins, 1, negated, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(9901));
        let catalog = random_catalog(&spec, &mut rng);
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_vector_invisible(&catalog, &q, conv);
        }
    }
}

/// A relation exercising every validity-bitmap corner: a mixed-type
/// column (ints, strings, floats incl. NaN, bools, NULLs), an **all-NULL**
/// column, a NaN-heavy float column, and a clean int column — at the
/// chunk-boundary sizes.
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
                Value::Null,
                if i % 3 == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float((i % 13) as f64)
                },
                Value::Int(i % 17),
            ]
        })
        .collect();
    let mut c = Catalog::with_standard_externals();
    let mut rel = Relation::new("M".to_string(), &["A", "B", "C", "D"]);
    for row in rows {
        rel.push(row);
    }
    c.add(rel);
    c
}

/// Mixed-type / all-NULL / NaN columns at sizes straddling `CHUNK_ROWS`:
/// every kernel (comparisons against int, float, string, and NaN
/// constants; `IS [NOT] NULL`) agrees with the row path exactly.
#[test]
fn validity_bitmap_corners_match_row_path() {
    for n in [1023i64, 1024, 1025] {
        let catalog = corner_catalog(n);
        let filter_sets: Vec<Vec<arc_core::ast::Formula>> = vec![
            vec![d::le(d::col("m", "A"), d::int(5))],
            vec![d::ne(d::col("m", "A"), d::text("s2"))],
            vec![d::is_null(d::col("m", "B"))],
            vec![d::is_not_null(d::col("m", "B"))],
            vec![
                d::gt(d::col("m", "C"), d::flt(4.0)),
                d::lt(d::col("m", "D"), d::int(9)),
            ],
            vec![d::eq(d::col("m", "C"), d::flt(f64::NAN))],
            vec![d::ne(d::col("m", "C"), d::flt(f64::NAN))],
            vec![
                d::ge(d::col("m", "A"), d::flt(2.5)),
                d::is_not_null(d::col("m", "A")),
            ],
        ];
        for filters in filter_sets {
            let mut preds = vec![d::assign("Q", "D", d::col("m", "D"))];
            preds.extend(filters);
            let q = d::collection("Q", &["D"], d::exists(&[d::bind("m", "M")], d::and(preds)));
            // Under SQL's bag semantics, row identity keeps multiplicities.
            for conv in [Conventions::sql(), Conventions::set()] {
                assert_vector_invisible(&catalog, &q, conv);
            }
        }
    }
}

/// Error equivalence: a vectorizable filter *after* a non-vectorizable,
/// erroring one must not hoist past it — the default and the starved
/// engine report the same error (the kernel path only hoists the leading
/// filter run).
#[test]
fn errors_surface_identically() {
    let catalog = corner_catalog(1024);
    // The unresolvable attribute errors on the first enumerated row:
    // every engine must report it.
    let erroring = d::collection(
        "Q",
        &["D"],
        d::exists(
            &[d::bind("m", "M")],
            d::and([
                d::assign("Q", "D", d::col("m", "D")),
                d::le(d::col("m", "NOPE"), d::int(3)),
            ]),
        ),
    );
    let engine = || Engine::new(&catalog, Conventions::sql());
    let row_path = || {
        let chunk_denied = deny_first(engine(), seam::CHUNK_BUILD);
        [engine().with_mem_budget(1), chunk_denied]
    };
    let on = engine().eval_collection(&erroring).unwrap_err();
    for off in row_path() {
        let off = off.eval_collection(&erroring).unwrap_err();
        assert_eq!(off, on, "vectorization must not change reported errors");
    }
    // Alongside a vectorizable filter the planner may order either one
    // first (a selective constant filter can legitimately mask the
    // error) — but whatever the kernel path produces, Ok or Err, the
    // row path must produce the identical outcome.
    let mixed = d::collection(
        "Q",
        &["D"],
        d::exists(
            &[d::bind("m", "M")],
            d::and([
                d::assign("Q", "D", d::col("m", "D")),
                d::le(d::col("m", "NOPE"), d::int(3)),
                d::le(d::col("m", "D"), d::int(-1)),
            ]),
        ),
    );
    let on = engine().eval_collection(&mixed);
    for off in row_path() {
        assert_eq!(off.eval_collection(&mixed), on, "outcome drift");
    }
}
