//! Per-figure integration tests: each figure's claim, checked end-to-end
//! through the fixtures the benchmark harness uses. (The engine-level unit
//! tests check the same semantics from hand-built ASTs; here everything
//! goes through the comprehension parser, as in the paper's notation.)

use arc_analysis::{classify, AggPattern};
use arc_core::conventions::Conventions;
use arc_core::pattern::signature;
use arc_core::value::{Truth, Value};
use arc_engine::Engine;
use arc_tests::fixtures as fx;

#[test]
fn fig2_eq1_runs() {
    let catalog = fx::rs_catalog(50);
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&fx::eq1())
        .unwrap();
    assert!(!out.is_empty());
}

#[test]
fn fig4_fig5_fio_foi_equivalence() {
    let catalog = fx::grouped_catalog(40, 5);
    let engine = Engine::new(&catalog, Conventions::set());
    let fio = engine.eval_collection(&fx::eq3()).unwrap();
    let foi = engine.eval_collection(&fx::eq7()).unwrap();
    assert!(fio.set_eq(&foi));
    assert_eq!(classify(&fx::eq3()).aggregates[0].pattern, AggPattern::Fio);
    assert_eq!(classify(&fx::eq7()).aggregates[0].pattern, AggPattern::Foi);
}

#[test]
fn fig6_7_8_same_answer_different_signatures() {
    let catalog = fx::dept_paper_catalog();
    let engine = Engine::new(&catalog, Conventions::set());
    let a = engine.eval_collection(&fx::eq8()).unwrap();
    let b = engine.eval_collection(&fx::eq10()).unwrap();
    let c = engine.eval_collection(&fx::eq12()).unwrap();
    assert!(a.set_eq(&b) && b.set_eq(&c));
    assert_eq!(a.len(), 1);
    assert_eq!(a.rows[0][1], Value::Float(55.0));
    // The paper's signature observation: 1 vs 3 vs 2 copies of R.
    assert_eq!(signature(&fx::eq8()).features["rel:R"], 1);
    assert_eq!(signature(&fx::eq10()).features["rel:R"], 3);
    assert_eq!(signature(&fx::eq12()).features["rel:R"], 2);
}

#[test]
fn fig9_sentences() {
    // R(1,2): count over S = 2 satisfies (13). R(2,5): q=5 > count=0, so
    // the integrity constraint (14) is violated (False).
    let catalog = arc_engine::Catalog::new()
        .with(arc_engine::Relation::from_ints(
            "R",
            &["id", "q"],
            &[&[1, 2], &[2, 5]],
        ))
        .with(arc_engine::Relation::from_ints(
            "S",
            &["id", "d"],
            &[&[1, 10], &[1, 11]],
        ));
    let engine = Engine::new(&catalog, Conventions::sql());
    assert_eq!(engine.eval_sentence(&fx::eq13()).unwrap(), Truth::True);
    assert_eq!(engine.eval_sentence(&fx::eq14()).unwrap(), Truth::False);

    // On an instance where every id's q ≤ its count, (14) holds.
    let catalog2 = fx::count_bug_catalog(false);
    let engine2 = Engine::new(&catalog2, Conventions::sql());
    assert_eq!(engine2.eval_sentence(&fx::eq14()).unwrap(), Truth::True);
}

/// The engine's semi-naive fixpoint of Eq (16) is the oracle's naive one.
#[test]
fn fig10_recursion_both_strategies() {
    let catalog = arc_analysis::chain_catalog(32, 5, 2);
    let semi = Engine::new(&catalog, Conventions::set())
        .eval_program(&fx::eq16())
        .unwrap();
    let naive = arc_tests::oracle_program(&catalog, Conventions::set(), &fx::eq16());
    assert!(naive.defined["A"].set_eq(&semi.defined["A"]));
    assert!(!naive.defined["A"].is_empty());
}

#[test]
fn fig12_outer_join_null_padding() {
    let catalog = fx::fig12_catalog();
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&fx::eq18())
        .unwrap();
    let rows = out.sorted_rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1], vec![Value::Int(2), Value::Null]);
}

#[test]
fn fig15_reified_arithmetic_chain() {
    let catalog = fx::fig15_catalog();
    let engine = Engine::new(&catalog, Conventions::set());
    let a = engine.eval_collection(&fx::eq19()).unwrap();
    let b = engine.eval_collection(&fx::eq20()).unwrap();
    let c = engine.eval_collection(&fx::eq21()).unwrap();
    assert!(a.set_eq(&b) && b.set_eq(&c));
    assert_eq!(a.len(), 1);
}

#[test]
fn fig16_19_abstract_relations() {
    let catalog = fx::likes_paper_catalog();
    let engine = Engine::new(&catalog, Conventions::set());
    let direct = engine.eval_collection(&fx::eq22()).unwrap();
    let modular = engine.eval_program(&fx::eq24_program()).unwrap();
    assert!(direct.set_eq(modular.query.as_ref().unwrap()));
    assert_eq!(direct.rows[0][0], Value::str("b"));
}

#[test]
fn fig20_matmul_2x2() {
    let catalog = arc_engine::Catalog::with_standard_externals()
        .with(arc_engine::Relation::from_ints(
            "A",
            &["row", "col", "val"],
            &[&[0, 0, 1], &[0, 1, 2], &[1, 0, 3], &[1, 1, 4]],
        ))
        .with(arc_engine::Relation::from_ints(
            "B",
            &["row", "col", "val"],
            &[&[0, 0, 5], &[0, 1, 6], &[1, 0, 7], &[1, 1, 8]],
        ));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&fx::eq26())
        .unwrap();
    assert_eq!(out.len(), 4);
    let rows = out.sorted_rows();
    assert_eq!(rows[0], vec![Value::Int(0), Value::Int(0), Value::Int(19)]);
    assert_eq!(rows[3], vec![Value::Int(1), Value::Int(1), Value::Int(50)]);
}

#[test]
fn fig21_count_bug_all_versions() {
    // Paper instance: v1 = {9}, v2 = ∅, v3 = {9}.
    let catalog = fx::count_bug_catalog(true);
    let engine = Engine::new(&catalog, Conventions::sql());
    let v1 = engine.eval_collection(&fx::eq27()).unwrap();
    let v2 = engine.eval_collection(&fx::eq28()).unwrap();
    let v3 = engine.eval_collection(&fx::eq29()).unwrap();
    assert_eq!(v1.len(), 1);
    assert!(v2.is_empty());
    assert!(v1.bag_eq(&v3));

    // Benign instance: all three agree.
    let catalog = fx::count_bug_catalog(false);
    let engine = Engine::new(&catalog, Conventions::sql());
    let v1 = engine.eval_collection(&fx::eq27()).unwrap();
    let v2 = engine.eval_collection(&fx::eq28()).unwrap();
    let v3 = engine.eval_collection(&fx::eq29()).unwrap();
    assert!(v1.bag_eq(&v3));
    // v2 drops R-rows whose id has no S row (id 3 with q=0 → count 0).
    assert!(v2.len() <= v1.len());
}

#[test]
fn conventions_flip_eq15_results_only() {
    let catalog = fx::eq15_catalog();
    let souffle = Engine::new(&catalog, Conventions::souffle())
        .eval_collection(&fx::eq15())
        .unwrap();
    let sql = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&fx::eq15())
        .unwrap();
    assert_eq!(souffle.rows[0], vec![Value::Int(1), Value::Int(0)]);
    assert_eq!(sql.rows[0], vec![Value::Int(1), Value::Null]);
    // Orthogonality: the signature never saw the conventions.
    assert_eq!(signature(&fx::eq15()).canon, signature(&fx::eq15()).canon);
}

#[test]
fn experiments_binary_fixtures_all_parse() {
    // Guard: every fixture used by the experiments binary stays parseable.
    let _ = (
        fx::eq1(),
        fx::eq2(),
        fx::eq3(),
        fx::eq7(),
        fx::eq8(),
        fx::eq10(),
        fx::eq12(),
        fx::eq13(),
        fx::eq14(),
        fx::eq15(),
        fx::eq16(),
        fx::eq17(),
        fx::eq18(),
        fx::eq19(),
        fx::eq20(),
        fx::eq21(),
        fx::eq22(),
        fx::eq24_program(),
        fx::eq26(),
        fx::eq27(),
        fx::eq28(),
        fx::eq29(),
    );
}
