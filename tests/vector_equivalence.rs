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
use arc_tests::fixtures as fx;
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

/// The per-entry kernels' differential instance. `X(A, B, S)` holds 1 030
/// rows, so a scan crosses a chunk boundary: `A` is an `Int` chunk with
/// `NULL`s and `i64::MIN` / `i64::MAX` (sums wrap), then a `Mixed` tail
/// of ints, `-0.0`, `NaN` and `NULL`; `B` is `Float` with `NaN`, `-0.0`
/// and `NULL`; `S` is a string column. `Y(B)` and `Z(C)` are small, so the
/// planner scans them first and `X` last: each `(y, z)` is one entry
/// into `X`'s step, with `y.B` and `z.C` fixed. `K(A, B)` (40 rows) is
/// the inside of boolean scopes.
fn entry_catalog() -> Catalog {
    let x = (0..1030i64).map(|i| {
        let a = match (i >= 1024, i % 97, i % 5) {
            (false, _, _) if i % 9 == 0 => Value::Null,
            (false, 1, _) => Value::Int(i64::MAX),
            (false, 2, _) => Value::Int(i64::MIN),
            (false, _, _) => Value::Int(i % 23 - 11),
            (true, _, 0) => Value::Int(i % 7),
            (true, _, 1) => Value::Float(-0.0),
            (true, _, 2) => Value::Float(f64::NAN),
            (true, _, 3) => Value::Null,
            (true, _, _) => Value::Float(2.5),
        };
        let b = match i % 13 {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Null,
            _ => Value::Float((i % 19) as f64 - 9.5),
        };
        let s = match i % 6 {
            0 => Value::Null,
            k => Value::str(format!("s{k}")),
        };
        vec![a, b, s]
    });
    let y = [
        Value::Int(3),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Int(i64::MAX),
        Value::Null,
    ];
    let z = [Value::Int(-2), Value::Null, Value::Float(1.5)];
    let k = (0..40i64).map(|i| {
        let b = match i % 7 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            _ => Value::Int(i - 20),
        };
        vec![Value::Int(i % 5), b]
    });
    Catalog::new()
        .with(Relation::from_rows("K", &["A", "B"], k.collect()))
        .with(Relation::from_rows("X", &["A", "B", "S"], x.collect()))
        .with(Relation::from_rows(
            "Y",
            &["B"],
            y.into_iter().map(|v| vec![v]).collect(),
        ))
        .with(Relation::from_rows(
            "Z",
            &["C"],
            z.into_iter().map(|v| vec![v]).collect(),
        ))
}

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// Every per-entry filter shape — `x.c op y.B` and `x.c ± y.B op z.C`,
/// six operators, the attribute on either side — over every column kind,
/// plus single-relation scans whose offset is a constant (the partition
/// axis runs them per morsel at four threads).
fn entry_filters() -> Vec<String> {
    let mut out = Vec::new();
    for op in OPS {
        for c in ["A", "B", "S"] {
            out.push(format!("∃y ∈ Y, x ∈ X [Q.A = x.A ∧ x.{c} {op} y.B]"));
            out.push(format!("∃y ∈ Y, x ∈ X [Q.A = x.A ∧ y.B {op} x.{c}]"));
            out.push(format!(
                "∃y ∈ Y, z ∈ Z, x ∈ X [Q.A = x.A ∧ x.{c} + y.B {op} z.C]"
            ));
            out.push(format!(
                "∃y ∈ Y, z ∈ Z, x ∈ X [Q.A = x.A ∧ z.C {op} x.{c} - y.B]"
            ));
        }
        // Boolean scopes: a decorrelated build whose filter runs per
        // entry, and a nested one whose offset is the outer row's.
        out.push(format!(
            "∃y ∈ Y [Q.A = y.B ∧ ∃k ∈ K [k.A = y.B ∧ k.B - 1 {op} 2]]"
        ));
        out.push(format!(
            "∃y ∈ Y [Q.A = y.B ∧ ¬(∃k ∈ K [k.A = 3 ∧ k.B + y.B {op} 3])]"
        ));
        out.push(format!(
            "∃x ∈ X [Q.A = x.A ∧ x.A - 9223372036854775807 {op} 2]"
        ));
        out.push(format!("∃x ∈ X [Q.A = x.A ∧ 1.5 {op} x.B + 1]"));
    }
    out
}

/// The per-entry kernels agree with the oracle on every filter shape,
/// under every convention, at one and four threads, and with the first
/// chunk build denied (that entry's filter runs row by row).
#[test]
fn per_entry_kernels_match_the_oracle() {
    let catalog = entry_catalog();
    let eq19 = fx::q("{Q(A) | ∃y ∈ Y, z ∈ Z, x ∈ X [Q.A = x.A ∧ x.A - y.B > z.C]}");
    let plan = Engine::new(&catalog, Conventions::sql())
        .explain_collection(&eq19)
        .unwrap();
    assert!(
        plan.contains("3: scan X as x"),
        "X is the last step, so its filter runs per entry:\n{plan}"
    );
    for body in entry_filters() {
        let q = fx::q(&format!("{{Q(A) | {body}}}"));
        for conv in [
            Conventions::sql(),
            Conventions::set(),
            Conventions::souffle(),
        ] {
            let want = arc_tests::oracle_rows(&catalog, conv, &q);
            for threads in [1usize, 4] {
                let engine = || Engine::new(&catalog, conv).with_threads(threads);
                for (mode, engine) in [
                    ("default", engine()),
                    ("chunk denied", deny_first(engine(), seam::CHUNK_BUILD)),
                ] {
                    let got = engine.eval_collection(&q).unwrap();
                    assert!(
                        arc_tests::agrees(conv, &got, &want),
                        "{mode} threads {threads} {conv:?}: {body}\nengine:\n{got}\noracle:\n{want}"
                    );
                }
            }
        }
    }
}

/// The prefix rule holds for per-entry filters: a filter that raises,
/// placed before a kernel-eligible one at the same step, keeps both on
/// the row path, so the error surfaces — on the default engine, at four
/// threads and with the chunk build denied alike — although the later
/// filter, on a kernel, would have rejected every row first. (A step
/// filter raises when a shadowed name resolves differently at its step
/// than the planner saw: `x.S` is placed at the first `x`, which is
/// `K`, where `S` does not exist.)
#[test]
fn a_raising_filter_keeps_a_later_per_entry_filter_on_the_row_path() {
    let catalog = entry_catalog();
    let q = fx::q(
        "{Q(A) | ∃y ∈ Y, x ∈ K, x ∈ X \
         [Q.A = y.B ∧ x.S > 1 ∧ x.B - y.B > 9223372036854775807]}",
    );
    let plan = Engine::new(&catalog, Conventions::sql())
        .explain_collection(&q)
        .unwrap();
    assert!(
        plan.contains("2: scan K as x (est=40)\n      filter: x.S > 1\n      filter: x.B - y.B"),
        "both filters sit on K's step, the raising one first:\n{plan}"
    );
    for threads in [1usize, 4] {
        let engine = || Engine::new(&catalog, Conventions::sql()).with_threads(threads);
        for engine in [engine(), deny_first(engine(), seam::CHUNK_BUILD)] {
            let err = engine.eval_collection(&q).unwrap_err();
            assert_eq!(
                err,
                arc_engine::EvalError::UnknownAttribute {
                    var: "x".into(),
                    attr: "S".into(),
                },
                "threads {threads}"
            );
        }
    }
}
