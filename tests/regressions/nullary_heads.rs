//! A nullary head `Q()` has rows with no values, and a bag of them is a
//! count: `{Q() | ∃r ∈ R [r.A = 1]}` over `R = {(1),(1),(2)}` holds one
//! row per satisfying environment under bag semantics (`sql()`: 2) and
//! one under set semantics (`souffle()`: 1), and an unsatisfiable filter
//! holds none. The rows hold no cells, so a row store that derived its
//! count from its cells would answer 0 every time.

use arc_core::conventions::Conventions;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn a_nullary_head_keeps_its_multiplicity() {
    let catalog = Catalog::new().with(Relation::from_ints("R", &["A"], &[&[1], &[1], &[2]]));
    for (conv, name, want) in [
        (Conventions::sql(), "sql", 2),
        (Conventions::souffle(), "souffle", 1),
    ] {
        for threads in [1usize, 4] {
            let engine = Engine::new(&catalog, conv).with_threads(threads);
            let q = fx::q("{Q() | ∃r ∈ R [r.A = 1]}");
            let rel = engine.eval_collection(&q).unwrap();
            assert_eq!(rel.len(), want, "{name}, threads {threads}");
            assert_eq!(rel.rows.iter().count(), want, "{name}, threads {threads}");
            assert!(rel.rows.iter().all(|row| row.is_empty()));
            assert_eq!(rel.columns().rows(), want, "{name}, threads {threads}");
            arc_tests::assert_oracle(&catalog, conv, &q, &rel);

            let none = fx::q("{Q() | ∃r ∈ R [r.A = 7]}");
            let rel = engine.eval_collection(&none).unwrap();
            assert_eq!(rel.len(), 0, "{name}, threads {threads}");
            arc_tests::assert_oracle(&catalog, conv, &none, &rel);
        }
    }
}

#[test]
fn a_nullary_relation_counts_its_pushed_rows() {
    let mut z = Relation::new("Z", &[]);
    z.push(vec![]);
    z.push(vec![]);
    assert_eq!(z.len(), 2);
    assert_eq!(z.columns().rows(), 2);
}
