//! Property-based workspace invariants (DESIGN.md §7), over randomly
//! generated queries and instances. Invariant 7 — the engine answers what
//! the oracle does — lives in `oracle_equivalence.rs`.

use arc_analysis::{random_catalog, random_conjunctive_query, unnest, InstanceSpec};
use arc_core::conventions::{Conventions, Semantics};
use arc_core::pattern::signature;
use arc_engine::Engine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: SQL round-trip — rendering a lowered query back to SQL
    /// and re-lowering preserves execution results.
    #[test]
    fn sql_round_trip_preserves_execution(seed in 0u64..500, joins in 1usize..4, sels in 0usize..3) {
        let spec = InstanceSpec::rs();
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let sql = arc_sql::arc_to_sql(&q, &Conventions::sql()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let catalog = random_catalog(&spec, &mut rng);
        let relowered = arc_sql::sql_to_arc(&sql, &catalog.schema_map())
            .unwrap_or_else(|e| panic!("re-lower failed: {e}\n{sql}"));
        let engine = Engine::new(&catalog, Conventions::sql());
        let a = engine.eval_collection(&q).unwrap();
        let b = engine.eval_collection(&relowered).unwrap();
        prop_assert!(a.bag_eq(&b), "sql:\n{}\n{}\nvs\n{}", sql, a, b);
    }

    /// Invariant 3: conventions are orthogonal to patterns — evaluating the
    /// same query under different conventions never changes its signature
    /// (trivially, signatures don't see conventions) and set-results are a
    /// subset of bag-results' support.
    #[test]
    fn conventions_orthogonal_to_patterns(seed in 0u64..500) {
        let spec = InstanceSpec::rs();
        let q = random_conjunctive_query(&spec, 2, 1, seed);
        let sig_before = signature(&q).canon;
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = random_catalog(&spec, &mut rng);
        let set_result = Engine::new(&catalog, Conventions::set()).eval_collection(&q).unwrap();
        let bag_result = Engine::new(&catalog, Conventions::sql()).eval_collection(&q).unwrap();
        prop_assert_eq!(signature(&q).canon, sig_before);
        prop_assert!(set_result.set_eq(&bag_result.deduped()));
    }

    /// Invariant: unnesting is sound under set semantics for generated
    /// queries that contain a nested positive scope.
    #[test]
    fn unnest_sound_under_set_semantics(seed in 0u64..300) {
        let spec = InstanceSpec::rs();
        // Wrap a generated query's quant in an artificial nesting.
        let inner = random_conjunctive_query(&spec, 2, 1, seed);
        let nested = arc_core::ast::Collection {
            head: inner.head.clone(),
            body: arc_core::ast::Formula::Quant(Box::new(arc_core::ast::Quant {
                bindings: vec![],
                grouping: None,
                join: None,
                body: inner.body.clone(),
            })),
        };
        let flat = unnest(&nested);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(99));
        let catalog = random_catalog(&spec, &mut rng);
        let engine = Engine::new(&catalog, Conventions::set());
        let a = engine.eval_collection(&nested).unwrap();
        let b = engine.eval_collection(&flat).unwrap();
        prop_assert!(a.set_eq(&b));
    }

    /// Invariant 5: the engine's semi-naive fixpoint and the oracle's
    /// naive one agree on random graphs.
    #[test]
    fn fixpoint_strategies_agree(depth in 2usize..20, extra in 0usize..8, seed in 0u64..100) {
        let catalog = arc_analysis::chain_catalog(depth, extra, seed);
        let program = arc_tests::fixtures::eq16();
        let semi = Engine::new(&catalog, Conventions::set()).eval_program(&program).unwrap();
        let naive = arc_tests::oracle_program(&catalog, Conventions::set(), &program);
        prop_assert!(naive.defined["A"].set_eq(&semi.defined["A"]));
    }

    /// Invariant 6: deduplication by grouping on all projected attributes
    /// equals set-semantics deduplication.
    #[test]
    fn dedup_is_grouping_on_all_attrs(seed in 0u64..300) {
        use arc_core::dsl::*;
        let spec = InstanceSpec::rs();
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = random_catalog(&spec, &mut rng);
        let plain = collection(
            "Q",
            &["A", "B"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "B", col("r", "B")),
                ]),
            ),
        );
        let grouped = collection(
            "Q",
            &["A", "B"],
            quant(
                &[bind("r", "R")],
                group(&[("r", "A"), ("r", "B")]),
                None,
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "B", col("r", "B")),
                ]),
            ),
        );
        // Under bag semantics: grouping deduplicates; compare with the
        // set-semantics evaluation of the plain projection.
        let bag_grouped = Engine::new(&catalog, Conventions::sql()).eval_collection(&grouped).unwrap();
        let set_plain = Engine::new(&catalog, Conventions::set()).eval_collection(&plain).unwrap();
        prop_assert!(bag_grouped.bag_eq(&set_plain));
    }

    /// Bag-semantics conservation: a set-evaluated result is always the
    /// dedup of the bag-evaluated one.
    #[test]
    fn set_is_dedup_of_bag(seed in 0u64..300, joins in 1usize..3) {
        let spec = InstanceSpec::rs();
        let q = random_conjunctive_query(&spec, joins, 1, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let catalog = random_catalog(&spec, &mut rng);
        let set_r = Engine::new(&catalog, Conventions::set()).eval_collection(&q).unwrap();
        let bag_r = Engine::new(&catalog, Conventions::sql()).eval_collection(&q).unwrap();
        prop_assert!(set_r.bag_eq(&bag_r.deduped()));
    }
}

#[test]
fn semantics_enum_is_the_only_difference() {
    // A direct spot-check of Semantics as a pure switch.
    assert_ne!(Semantics::Set, Semantics::Bag);
}
