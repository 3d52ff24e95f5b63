//! `Int` arithmetic wraps, and `sum` agrees: over `{i64::MAX, 1}` it is
//! `i64::MIN`, and `avg` is that value's float over the count — on the
//! fold from the batch (slot arguments), on the row path (an arithmetic
//! argument), and in the oracle.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn int_sums_wrap_on_both_fold_paths_and_in_the_oracle() {
    let g = Relation::from_rows(
        "G",
        &["K", "B"],
        vec![
            vec![Value::Int(0), Value::Int(i64::MAX)],
            vec![Value::Int(0), Value::Int(1)],
        ],
    );
    let catalog = Catalog::new().with(g);
    let conv = Conventions::sql();
    for arg in ["g.B", "g.B + 0"] {
        let q = fx::q(&format!(
            "{{Q(s, a) | ∃g ∈ G, γ g.K [Q.s = sum({arg}) ∧ Q.a = avg({arg})]}}"
        ));
        let oracle = arc_tests::oracle_rows(&catalog, conv, &q);
        for threads in [1usize, 4] {
            let engine = Engine::new(&catalog, conv).with_threads(threads);
            let rows = engine.eval_collection(&q).unwrap().rows;
            for (side, rows) in [("engine", &rows), ("oracle", &oracle.rows)] {
                assert!(
                    matches!(
                        rows.to_vecs().as_slice(),
                        [row] if matches!(row.as_slice(),
                            [Value::Int(i64::MIN), Value::Float(a)]
                                if a.to_bits() == (i64::MIN as f64 / 2.0).to_bits())
                    ),
                    "{side}, sum({arg}), threads {threads}: {rows:?}"
                );
            }
        }
    }
}
