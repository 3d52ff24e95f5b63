//! Grouping is invisible: a grouping scope returns the oracle's rows, in
//! the oracle's order (groups in key order, one row each), under every
//! convention preset and thread count — whether its members fold from
//! the last step's batch of row ids or through their environments (a
//! denied hash build). A grouping scope folds sequentially at any thread
//! count, so the threads-4 runs must match the one-thread runs exactly.
//!
//! The instances carry the corners a fold can get wrong:
//!
//! * every aggregate — `count(*)`, `count`, `sum`, `avg`, `min`, `max` —
//!   with and without `distinct`;
//! * argument columns of `Int` with `i64::MIN`/`MAX` (sums wrap), `Float`
//!   with `NaN`, `-0.0` and `±inf`, mostly-NULL and all-NULL, a `Mixed`
//!   run that starts past row 1 024, and `Str`;
//! * keys of `Int`, of `Float` `1.0` beside `Int` `1` (one group), with
//!   NULL (NULLs group together), of `Str`, of two columns, of none
//!   (`γ∅`, also over an empty relation), and a key read from an outer
//!   frame while the last step is a hash probe (Fig 6a's shape);
//! * one piece of fewer than 1 024 rows whose key and argument cells
//!   switch between `Int` — the fold's typed arm — and every other kind —
//!   its `Value` arm: a group opened by `Float` `1.0` and then found by
//!   `Int` `1`, the reverse, and a key column that opens with NULL and a
//!   `Str`.
//!
//! Values compare exactly: same variant, same bits (any NaN matches any
//! NaN). Float sums are order-sensitive, so this also checks that each
//! path folds in the oracle's enumeration order.

use arc_core::ast::Collection;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

/// Rows of `G`: past one chunk, so the `Mixed` run starts in the second.
const G_ROWS: i64 = 1_100;

/// Where `M` stops being all `Int`.
const MIXED_FROM: i64 = 1_030;

fn g_row(i: i64) -> Vec<Value> {
    let key_f = match i % 5 {
        0 => Value::Int(1),
        1 => Value::Float(1.0),
        2 => Value::Float(2.5),
        3 => Value::Null,
        _ => Value::Float(-0.0),
    };
    let key_n = match i % 3 {
        0 => Value::Null,
        _ => Value::Int(i % 4),
    };
    let int = match i % 9 {
        0 => Value::Int(i64::MAX),
        1 => Value::Int(i64::MIN),
        2 => Value::Int(i64::MAX - i),
        3 => Value::Null,
        _ => Value::Int(i * 31 - 5_000),
    };
    // Exact halves, so any summation order gives the same bits; each
    // `KI` group (`i % 6`) has its own special values.
    let half = Value::Float(0.5 * (i % 17) as f64 - 3.0);
    let float = match (i % 6, i % 11) {
        (_, 0) => Value::Null,
        (0, 1) | (1, _) => Value::Float(-0.0),
        (2, 2) => Value::Float(f64::NAN),
        (3, 3) => Value::Float(f64::INFINITY),
        (4, 4) => Value::Float(f64::NEG_INFINITY),
        (4, 5) => Value::Float(f64::INFINITY),
        (5, 6..) => Value::Null,
        _ => half,
    };
    let sparse = match i % 10 {
        0 => Value::Int(i),
        _ => Value::Null,
    };
    let mixed = match (i < MIXED_FROM, i % 4) {
        (true, _) => Value::Int(i % 50),
        (false, 0) => Value::str("m"),
        (false, 1) => Value::Float(0.25),
        (false, 2) => Value::Int(7),
        (false, _) => Value::Bool(true),
    };
    vec![
        Value::Int(i % 6),
        key_f,
        key_n,
        Value::str(["x", "y", "z"][((i / 7) % 3) as usize]),
        int,
        float,
        sparse,
        Value::Null,
        mixed,
        Value::str(format!("s{}", i % 23)),
    ]
}

/// Rows of `H`: one piece of the batch fold.
const H_ROWS: i64 = 1_000;

/// A row of `H`, whose cells switch between `Int` and other kinds from
/// row to row. `KA`'s integral groups open on a `Float` (row 0 opens `1`
/// as `1.0`, row 3 opens `0` as `0.0`) and are found by `Int`s; `KB`'s
/// open on an `Int` (row 0 opens `1`) and are found by `Float`s too; `KC`
/// opens with NULL and a `Str`, and its `-0.0` is the key `0`.
fn h_row(i: i64) -> Vec<Value> {
    let (int, float) = (Value::Int(i % 3), Value::Float((i % 3) as f64));
    let (ka, kb) = match i % 4 {
        0 => (Value::Float(1.0), Value::Int(1)),
        1 => (Value::Int(1), Value::Float(1.0)),
        2 => (int, float),
        _ => (float, int),
    };
    let kc = match (i, i % 13, i % 17, i % 19) {
        (0, ..) | (_, 0, ..) => Value::Null,
        (1, ..) | (_, _, 0, _) => Value::str("c"),
        (_, _, _, 0) => Value::Float(-0.0),
        _ => Value::Int(i % 5),
    };
    let v = match (i % 5, i % 7, i % 31) {
        (0, ..) => Value::Null,
        (_, 0, _) => Value::Float(0.5),
        (_, _, 30) => Value::str("v"),
        _ => Value::Int(i * 7 - 3_000),
    };
    let w = match i % 6 {
        0 => Value::Int(i64::MAX),
        1 => Value::Int(i64::MIN + i),
        _ => Value::Int(i % 11),
    };
    vec![ka, kb, kc, v, w]
}

fn catalog() -> Catalog {
    let g = Relation::from_rows(
        "G",
        &["KI", "KF", "KN", "KS", "I", "F", "N", "Z", "M", "S"],
        (0..G_ROWS).map(g_row).collect(),
    );
    // Fig 6a: each employee has three salaries, so the plan scans `Emp`
    // and probes `Sal` — the key `e.dept` is an outer frame's.
    let emp = Relation::from_rows(
        "Emp",
        &["empl", "dept"],
        (0..300i64)
            .map(|e| {
                let dept = match e % 17 {
                    0 => Value::Null,
                    _ => Value::Int(e % 8),
                };
                vec![Value::Int(e), dept]
            })
            .collect(),
    );
    let sal = Relation::from_rows(
        "Sal",
        &["empl", "sal"],
        (0..900i64)
            .map(|i| {
                let sal = match i % 50 {
                    0 => Value::Int(i64::MAX),
                    7 => Value::Null,
                    _ => Value::Int(i * 3 - 700),
                };
                vec![Value::Int(i / 3), sal]
            })
            .collect(),
    );
    let h = Relation::from_rows(
        "H",
        &["KA", "KB", "KC", "V", "W"],
        (0..H_ROWS).map(h_row).collect(),
    );
    let empty = Relation::from_rows("E", &["A"], Vec::new());
    let mut c = Catalog::new()
        .with(g)
        .with(emp)
        .with(sal)
        .with(h)
        .with(empty);
    c.analyze();
    c
}

/// Every aggregate call over `arg`, plain and `distinct`, as head
/// assignments `Q.a0 …` (the head's first attributes are the keys).
fn calls(arg: &str) -> Vec<String> {
    let mut out = Vec::new();
    for distinct in ["", "distinct "] {
        out.push(format!("count({distinct}*)"));
        for func in ["count", "sum", "avg", "min", "max"] {
            out.push(format!("{func}({distinct}{arg})"));
        }
    }
    // `count(distinct *)` is not a call.
    out.retain(|c| c != "count(distinct *)");
    out
}

/// `{Q(k…, a…) | ∃ bindings, γ keys [key and call assignments ∧ rest]}`.
fn grouped(bindings: &str, keys: &[&str], calls: &[String], rest: &str) -> Collection {
    let mut attrs: Vec<String> = (0..keys.len()).map(|j| format!("k{j}")).collect();
    attrs.extend((0..calls.len()).map(|j| format!("a{j}")));
    let mut body: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(j, k)| format!("Q.k{j} = {k}"))
        .collect();
    body.extend(
        calls
            .iter()
            .enumerate()
            .map(|(j, c)| format!("Q.a{j} = {c}")),
    );
    if !rest.is_empty() {
        body.push(rest.to_string());
    }
    let gamma = match keys {
        [] => "∅".to_string(),
        keys => format!("({})", keys.join(", ")),
    };
    fx::q(&format!(
        "{{Q({}) | ∃{bindings}, γ {gamma} [{}]}}",
        attrs.join(", "),
        body.join(" ∧ ")
    ))
}

/// One value for another: same variant, same bits; NaN matches NaN.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan()
        }
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// The engine's rows for `q` equal the oracle's, in order, value for
/// value, under every preset, at one thread and four, and with every
/// build denied (a hash probe then streams and binds row by row).
fn assert_groups_match(catalog: &Catalog, q: &Collection) {
    for conv in [
        Conventions::sql(),
        Conventions::set(),
        Conventions::souffle(),
    ] {
        let want = arc_tests::oracle_rows(catalog, conv, q);
        for threads in [1usize, 4] {
            let engine = || Engine::new(catalog, conv).with_threads(threads);
            for (mode, engine) in [
                ("default", engine()),
                ("starved", engine().with_mem_budget(1)),
            ] {
                let got = engine.eval_collection(q).unwrap();
                let agree = got.schema == want.schema
                    && got.rows.len() == want.rows.len()
                    && got.rows.iter().zip(&want.rows).all(|(g, w)| {
                        g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b))
                    });
                assert!(
                    agree,
                    "{mode}, threads {threads}, {conv:?}:\n{q:?}\nengine:\n{got}\noracle:\n{want}"
                );
            }
        }
    }
}

#[test]
fn every_aggregate_over_every_column_kind_matches_the_oracle_in_key_order() {
    let catalog = catalog();
    for arg in ["r.I", "r.F", "r.N", "r.Z", "r.M", "r.S"] {
        let q = grouped("r ∈ G", &["r.KI"], &calls(arg), "");
        assert_groups_match(&catalog, &q);
    }
}

#[test]
fn every_key_shape_groups_as_the_oracle_does() {
    let catalog = catalog();
    let keys: [&[&str]; 6] = [
        &["r.KI"],
        &["r.KF"],
        &["r.KN"],
        &["r.KS"],
        &["r.KI", "r.KS"],
        &[],
    ];
    for keys in keys {
        for arg in ["r.I", "r.F", "r.M"] {
            let q = grouped("r ∈ G", keys, &calls(arg), "");
            assert_groups_match(&catalog, &q);
        }
    }
}

#[test]
fn int_and_other_cells_in_one_piece_share_their_groups() {
    let catalog = catalog();
    for key in ["h.KA", "h.KB", "h.KC"] {
        for arg in ["h.V", "h.W", "h.KA", "h.KC"] {
            let q = grouped("h ∈ H", &[key], &calls(arg), "");
            assert_groups_match(&catalog, &q);
        }
    }
}

#[test]
fn a_key_from_an_outer_frame_over_a_hash_probe_matches_the_oracle() {
    let catalog = catalog();
    let q = grouped(
        "e ∈ Emp, s ∈ Sal",
        &["e.dept"],
        &calls("s.sal"),
        "e.empl = s.empl",
    );
    let plan = Engine::new(&catalog, Conventions::sql())
        .explain_collection(&q)
        .unwrap();
    assert!(
        plan.contains("hash-probe on [e.empl = s.empl] Sal as s"),
        "{plan}"
    );
    assert_groups_match(&catalog, &q);
    // Fig 6a's `having`: a per-group test over the folded sums.
    let having = grouped(
        "e ∈ Emp, s ∈ Sal",
        &["e.dept"],
        &["avg(s.sal)".to_string()],
        "e.empl = s.empl ∧ sum(s.sal) > 20000",
    );
    assert_groups_match(&catalog, &having);
}

#[test]
fn gamma_empty_over_an_empty_relation_has_its_one_group() {
    let catalog = catalog();
    let q = grouped("r ∈ E", &[], &calls("r.A"), "");
    assert_groups_match(&catalog, &q);
    let sql = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sql.len(), 1, "{sql}");
}
