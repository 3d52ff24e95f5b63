//! A last-step hash probe fed by a batch of outer row ids is invisible: a
//! scope whose second-to-last step hands its rows on unfiltered and whose
//! last step is a hash probe with a key of slots and constants probes a
//! piece of outer rows at a time — hash every key, look up every slot,
//! then walk each bucket into the gathered head or the folded groups.
//! Its rows must be the oracle's, and exactly — value for value, in
//! order — those of a run with every build denied (the streaming row
//! probe), at one thread and four, under bag and set conventions.
//!
//! The keys carry the corners a probe can get wrong: `NULL` (matches
//! nothing), `NaN` (matches nothing), `Float 1.0` against `Int 1` (one
//! key), `Str`, two columns, one component read from a frame outside the
//! scope (a correlated nested collection), one constant component, and
//! buckets of many rows, some longer than a gathered piece.

use arc_core::ast::Collection;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

/// Rows of the outer relation `O`: three probe pieces, the last short.
const O_ROWS: i64 = 300;

/// Rows of the probed relation `P`.
const P_ROWS: i64 = 2_400;

fn catalog() -> Catalog {
    let float = |i: i64| match i % 6 {
        0 => Value::Float(1.0),
        1 => Value::Float(f64::NAN),
        2 => Value::Int(2),
        3 => Value::Float(2.0),
        4 => Value::Null,
        _ => Value::Float((i % 9) as f64),
    };
    let o = Relation::from_rows(
        "O",
        &["K", "F", "S", "A", "B", "V"],
        (0..O_ROWS)
            .map(|i| {
                vec![
                    match i % 11 {
                        0 => Value::Null,
                        _ => Value::Int(i % 40),
                    },
                    float(i),
                    match i % 17 {
                        0 => Value::Null,
                        _ => Value::str(format!("s{}", i % 13)),
                    },
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int(i),
                ]
            })
            .collect(),
    );
    // `K` has 50 keys of 48 rows each (keys 40..50 match no outer row);
    // `A` has 5 keys of 480 rows; `W` has 2 keys of 1 200 rows, longer
    // than a gathered piece.
    let p = Relation::from_rows(
        "P",
        &["K", "F", "S", "A", "B", "W", "V", "X"],
        (0..P_ROWS)
            .map(|i| {
                vec![
                    match i % 23 {
                        0 => Value::Null,
                        _ => Value::Int(i % 50),
                    },
                    match i % 7 {
                        0 => Value::Float(f64::NAN),
                        _ => Value::Int(i % 4),
                    },
                    Value::str(format!("s{}", i % 19)),
                    Value::Int(i % 5),
                    Value::Int(i % 7),
                    Value::Int(i % 2),
                    Value::Int(i * 7 % 101),
                    Value::Float(0.1 * (i % 13) as f64 - 0.35),
                ]
            })
            .collect(),
    );
    let x = Relation::from_rows(
        "X",
        &["A", "B"],
        (0..4i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect(),
    );
    let mut c = Catalog::new().with(o).with(p).with(x);
    c.analyze();
    c
}

/// The join conditions under test, each over `o ∈ O` and `p ∈ P`.
const JOINS: [&str; 7] = [
    "o.K = p.K",
    "o.F = p.F",
    "o.S = p.S",
    "o.A = p.A ∧ o.B = p.B",
    "o.K = p.K ∧ p.B = 3",
    "o.A = p.A",
    "o.B = p.W",
];

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

fn same_rows(a: &Relation, b: &Relation) -> bool {
    a.schema == b.schema
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| same(u, v)))
}

/// `q`'s plan ends in a hash probe, and its rows are the oracle's (as a
/// bag or a set) and, exactly and in order, the rows of a run with every
/// build denied — at one thread and four, under bag and set conventions.
/// With `in_order`, the oracle's rows must also come in the same order
/// (a grouping's groups in key order, its float sums in fold order).
fn assert_probe_matches(catalog: &Catalog, q: &Collection, in_order: bool) {
    let plan = Engine::new(catalog, Conventions::sql())
        .explain_collection(q)
        .unwrap();
    assert!(plan.contains("hash-probe on ["), "{plan}");
    for conv in [Conventions::sql(), Conventions::set()] {
        let want = arc_tests::oracle_rows(catalog, conv, q);
        let streamed = Engine::new(catalog, conv)
            .with_threads(1)
            .with_mem_budget(1)
            .eval_collection(q)
            .unwrap();
        for threads in [1usize, 4] {
            let engine = || Engine::new(catalog, conv).with_threads(threads);
            for (mode, engine) in [
                ("default", engine()),
                ("starved", engine().with_mem_budget(1)),
            ] {
                let got = engine.eval_collection(q).unwrap();
                let agree = match in_order {
                    true => same_rows(&got, &want),
                    false => arc_tests::agrees(conv, &got, &want),
                };
                assert!(
                    agree && same_rows(&got, &streamed),
                    "{mode}, threads {threads}, {conv:?}:\n{q:?}\nengine:\n{got}\n\
                     oracle:\n{want}\nstreamed:\n{streamed}"
                );
            }
        }
    }
}

#[test]
fn a_gathered_probe_matches_the_oracle_and_the_row_probe() {
    let catalog = catalog();
    for on in JOINS {
        let q = fx::q(&format!(
            "{{Q(V, W, A) | ∃o ∈ O, p ∈ P [Q.V = o.V ∧ Q.W = p.V ∧ Q.A = p.A ∧ {on}]}}"
        ));
        assert_probe_matches(&catalog, &q, false);
    }
}

#[test]
fn a_folded_probe_matches_the_oracle_in_key_and_fold_order() {
    let catalog = catalog();
    for on in JOINS {
        // Keys from the outer frame (Fig 6a's `e.dept`) and from the
        // probed one; a float sum, which only one fold order reproduces.
        for key in ["o.B", "p.A"] {
            let q = fx::q(&format!(
                "{{Q(k, n, s, x) | ∃o ∈ O, p ∈ P, γ {key} \
                 [Q.k = {key} ∧ Q.n = count(*) ∧ Q.s = sum(p.V) ∧ Q.x = sum(p.X) ∧ {on}]}}"
            ));
            assert_probe_matches(&catalog, &q, true);
        }
    }
}

/// A probe key with one component from a frame outside the scope: the
/// nested collection is evaluated per row of `X`, its scan of `O` feeding
/// a probe of `P` keyed on `o.K` and the outer `x.B`.
#[test]
fn a_correlated_probe_matches_the_oracle_and_the_row_probe() {
    let catalog = catalog();
    let gathered = fx::q(
        "{Q(A, W) | ∃x ∈ X, y ∈ {Y(W) | ∃o ∈ O, p ∈ P \
         [Y.W = p.V ∧ o.K = p.K ∧ p.B = x.B]} [Q.A = x.A ∧ Q.W = y.W]}",
    );
    assert_probe_matches(&catalog, &gathered, false);
    let folded = fx::q(
        "{Q(A, k, n) | ∃x ∈ X, y ∈ {Y(k, n) | ∃o ∈ O, p ∈ P, γ o.A \
         [Y.k = o.A ∧ Y.n = sum(p.X) ∧ o.K = p.K ∧ p.B = x.B]} \
         [Q.A = x.A ∧ Q.k = y.k ∧ Q.n = y.n]}",
    );
    assert_probe_matches(&catalog, &folded, false);
}
