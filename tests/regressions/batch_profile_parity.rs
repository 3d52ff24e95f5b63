//! The batched innermost step keeps `EXPLAIN ANALYZE`'s actuals. A
//! per-entry kernel or a gathered head counts in bulk what binding each
//! row counted one at a time — candidates, survivors, output rows — so
//! every step's `act` and `calls` are the row path's, at one thread and
//! four, timed or not. The one change is the intended one: a filter that
//! moved onto a kernel no longer shows its candidates as `in=`, as a
//! constant kernel filter never has.
//!
//! A grouping scope whose members fold from the last step's batch
//! counts the same way: each member is a candidate of that step, passes
//! and reaches the fold, as binding it did.
//!
//! The relations are the benchmark's `join_enum` and `load_scan` shapes
//! (Eq 19 at U 256 / V 24 / W 24, the Eq 1 fan-out at 1 024 rows, the
//! wide `T.C > 500` scan, the grouped sum over G 65 536 / 256 keys, Fig
//! 6a over Emp / Sal 16 384 / 64 departments), whose counts are the same
//! for every seed.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

fn ints(name: &str, attrs: &[&str], rows: impl Iterator<Item = Vec<i64>>) -> Relation {
    let rows = rows.map(|r| r.into_iter().map(Value::Int).collect());
    Relation::from_rows(name, attrs, rows.collect())
}

fn catalog() -> Catalog {
    let mut c = Catalog::new()
        .with(ints("U", &["A", "B"], (0..256).map(|i| vec![i, i % 97])))
        .with(ints("V", &["B"], (0..24).map(|i| vec![i % 13])))
        .with(ints("W", &["B"], (0..24).map(|i| vec![i % 41])))
        .with(ints("R", &["A", "B"], (0..1024).map(|i| vec![i, i % 10])))
        .with(ints(
            "S",
            &["B", "C"],
            (0..1024).map(|i| vec![i % 10, (i / 10) % 2]),
        ))
        .with(ints(
            "T",
            &["A", "B", "C"],
            (0..131_072).map(|i| vec![i % 8, i, i % 1000]),
        ))
        .with(ints(
            "G",
            &["A", "B"],
            (0..65_536).map(|i| vec![i % 256, i]),
        ))
        .with(ints(
            "Emp",
            &["empl", "dept"],
            (0..16_384).map(|i| vec![i, i % 64]),
        ))
        .with(ints(
            "Sal",
            &["empl", "sal"],
            (0..16_384).map(|i| vec![i, 40 + i % 30]),
        ));
    c.analyze();
    c
}

/// `EXPLAIN ANALYZE` of `text` at every thread count, timed and not.
fn analyzed(catalog: &Catalog, text: &str) -> Vec<String> {
    let q = fx::q(text);
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        for spans in [false, true] {
            let engine = Engine::new(catalog, Conventions::sql())
                .with_threads(threads)
                .with_spans(spans);
            out.push(engine.explain_analyze_collection(&q).unwrap());
        }
    }
    out
}

/// The line of `text` that starts as `line` (`scope`, `1:`, …) holds
/// every fragment of `want`.
fn assert_actuals(text: &str, pins: &[(&str, &[&str])]) {
    for (line, want) in pins {
        let found = text
            .lines()
            .find(|l| l.trim_start().starts_with(line))
            .unwrap_or_else(|| panic!("no line `{line}` in\n{text}"));
        for want in *want {
            assert!(found.contains(want), "`{line}` must read `{want}`:\n{text}");
        }
    }
}

#[test]
fn eq19_actuals_are_the_row_paths() {
    let catalog = catalog();
    for text in analyzed(
        &catalog,
        "{Q(A) | ∃r ∈ U, s ∈ V, t ∈ W [Q.A = r.A ∧ r.B - s.B > t.B]}",
    ) {
        assert_actuals(
            &text,
            &[
                ("scope", &["act=116280 ", "calls=1"]),
                ("1:", &["scan V as s", "act=24 ", "calls=1"]),
                ("2:", &["scan W as t", "act=576 ", "calls=24"]),
                ("3:", &["scan U as r", "act=116280 ", "calls=576"]),
            ],
        );
        // The filter runs on a per-entry kernel: step 3's candidates
        // are its survivors (the row path read `in=147456`).
        assert!(!text.contains("in="), "{text}");
    }
}

#[test]
fn eq1_fanout_actuals_are_the_row_paths() {
    let catalog = catalog();
    for text in analyzed(
        &catalog,
        "{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}",
    ) {
        assert_actuals(
            &text,
            &[
                ("scope", &["act=52636 ", "calls=1"]),
                ("1:", &["S as s", "act=514 ", "calls=1"]),
                (
                    "2:",
                    &[
                        "hash-probe on [r.B = s.B] R as r",
                        "act=52636 ",
                        "calls=514",
                    ],
                ),
            ],
        );
    }
}

#[test]
fn wide_scan_actuals_are_the_row_paths() {
    let catalog = catalog();
    for text in analyzed(&catalog, "{Q(B) | ∃t ∈ T [Q.B = t.B ∧ t.C > 500]}") {
        assert_actuals(
            &text,
            &[
                ("scope", &["act=65369 ", "calls=1"]),
                ("1:", &["scan T as t", "act=65369 ", "calls=1"]),
            ],
        );
    }
}

#[test]
fn grouped_sum_actuals_are_the_row_paths() {
    let catalog = catalog();
    for text in analyzed(
        &catalog,
        "{Q(A, sm) | ∃g ∈ G, γ g.A [Q.A = g.A ∧ Q.sm = sum(g.B)]}",
    ) {
        assert_actuals(
            &text,
            &[
                ("scope", &["act=65536 ", "calls=1"]),
                ("1:", &["scan G as g", "act=65536 ", "calls=1"]),
            ],
        );
        assert!(!text.contains("in="), "{text}");
    }
}

#[test]
fn fig6a_actuals_are_the_row_paths() {
    let catalog = catalog();
    for text in analyzed(
        &catalog,
        "{Q(dept, av) | ∃e ∈ Emp, s ∈ Sal, γ e.dept [Q.dept = e.dept ∧ Q.av = avg(s.sal) \
         ∧ e.empl = s.empl ∧ sum(s.sal) > 100]}",
    ) {
        assert_actuals(
            &text,
            &[
                ("scope", &["act=16384 ", "calls=1"]),
                ("1:", &["scan Emp as e", "act=16384 ", "calls=1"]),
                (
                    "2:",
                    &[
                        "hash-probe on [e.empl = s.empl] Sal as s",
                        "act=16384 ",
                        "calls=16384",
                    ],
                ),
            ],
        );
        assert!(!text.contains("in="), "{text}");
    }
}
