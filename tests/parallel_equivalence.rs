//! Workspace invariants for the parallel executor (the engine's
//! `eval/parallel.rs`: morsels on scoped threads, gathered in order):
//!
//! * **Invariant 9** — partitioned execution is *identical* to sequential
//!   execution: for generated programs over generated instances, the
//!   engine returns the same rows **in the same order** under
//!   `ARC_THREADS` ∈ {1, 2, 8}. (The guarantee is stronger than the
//!   bag-identity the issue asks for: morsels are merged in scan order,
//!   so even emission order is preserved — which the deterministic-merge
//!   unit tests below pin down explicitly.)
//! * Runtime **errors** surface identically: the parallel path reports
//!   the error the sequential enumeration would have hit first.
//! * A **golden `EXPLAIN`** showing the `partition(n)` operator on the
//!   partition-axis step of a parallel engine's plan.

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_engine::Engine;
use arc_tests::fixtures as fx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The default `InstanceSpec::rs` generates 0..8-row relations — too
/// small for the partition gate (`PARALLEL_MIN_ROWS`). Scale it up so
/// generated programs actually exercise the morsel path.
fn big_spec(with_nulls: bool) -> InstanceSpec {
    let mut spec = if with_nulls {
        InstanceSpec::rs_with_nulls(0.2)
    } else {
        InstanceSpec::rs()
    };
    for r in &mut spec.relations {
        r.rows = 32..96;
        r.domain = 0..12;
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 9: `ARC_THREADS` ∈ {1, 2, 8} agree row-for-row on
    /// generated conjunctive queries, with and without NULLs, under both
    /// bag and set semantics.
    #[test]
    fn parallel_identical_to_sequential(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in proptest::prelude::any::<bool>(),
    ) {
        let spec = big_spec(with_nulls);
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(2693));
        let catalog = random_catalog(&spec, &mut rng);
        for conv in [Conventions::sql(), Conventions::set()] {
            let sequential = Engine::new(&catalog, conv)
                .with_threads(1)
                .eval_collection(&q)
                .unwrap();
            for threads in [2usize, 8] {
                let parallel = Engine::new(&catalog, conv)
                    .with_threads(threads)
                    .eval_collection(&q)
                    .unwrap();
                prop_assert_eq!(
                    &sequential.rows,
                    &parallel.rows,
                    "threads {} conv {:?}",
                    threads,
                    conv
                );
            }
        }
    }
}

/// Deterministic bag merge: partitioned execution under bag semantics
/// concatenates morsel outputs in scan order, so repeated parallel runs
/// and the sequential run all emit the same row sequence.
#[test]
fn bag_merge_order_is_deterministic() {
    let catalog = fx::rs_catalog(512);
    let q = fx::eq19(); // non-equi joins: all scans, partition axis at step 0
    let catalog = {
        // eq19 needs R(A,B), S(B), T(B).
        let mut c = catalog;
        c.add(arc_engine::Relation::from_ints("S", &["B"], &[&[1], &[3]]));
        c.add(arc_engine::Relation::from_ints("T", &["B"], &[&[2], &[5]]));
        c
    };
    let sequential = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert!(!sequential.rows.is_empty(), "fixture produces rows");
    for _ in 0..3 {
        let parallel = Engine::new(&catalog, Conventions::sql())
            .with_threads(4)
            .eval_collection(&q)
            .unwrap();
        assert_eq!(
            sequential.rows, parallel.rows,
            "bag merge must be deterministic and order-identical"
        );
    }
}

/// Grouped scopes on a parallel engine: a grouping scope folds its
/// members sequentially, in scan order, so aggregates (including
/// order-sensitive member layouts) match the sequential engine exactly.
#[test]
fn parallel_grouped_aggregates_match() {
    let catalog = fx::grouped_catalog(1000, 17);
    let q = fx::eq3();
    let sequential = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let parallel = Engine::new(&catalog, Conventions::set())
        .with_threads(8)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sequential.rows, parallel.rows);
    assert_eq!(sequential.len(), 17);
}

/// Correlated (FOI) scopes: the outer scan partitions while each worker
/// evaluates the correlated nested scope per row.
#[test]
fn parallel_correlated_scopes_match() {
    let catalog = fx::grouped_catalog(300, 11);
    let q = fx::eq7();
    let sequential = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let parallel = Engine::new(&catalog, Conventions::set())
        .with_threads(4)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sequential.rows, parallel.rows);
}

/// Errors surface identically: the parallel path reports the earliest
/// morsel's error, which is the first error sequential enumeration hits.
#[test]
fn parallel_errors_match_sequential() {
    use arc_core::dsl::*;
    let catalog = fx::rs_catalog(256);
    // `r.NOPE` resolves for no row: the filter stays at the leaf and the
    // first enumerated environment errors.
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([
                assign("Q", "A", col("r", "A")),
                le(col("r", "NOPE"), int(3)),
            ]),
        ),
    );
    let sequential = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap_err();
    let parallel = Engine::new(&catalog, Conventions::sql())
        .with_threads(4)
        .eval_collection(&q)
        .unwrap_err();
    assert_eq!(sequential, parallel);
}

/// Golden `EXPLAIN` for a parallel engine: the partition-axis step gains
/// the `partition(n)` operator prefix; sequential engines (threads = 1)
/// render the classic plan (covered by the goldens in
/// `plan_equivalence.rs`).
#[test]
fn explain_partition_golden() {
    let catalog = fx::grouped_catalog(64, 8);
    let engine = Engine::new(&catalog, Conventions::set())
        .with_threads(4)
        // Pin the ambient guard knob too: a memory budget appends the
        // `governance:` note, and the goldens must not depend on it.
        .with_mem_budget(0);
    let plan = engine.explain_collection(&fx::scan_r()).unwrap();
    let expected = "\
project Q(A, B)
  scope
    1: partition(4) scan R as r (est=64)
    emit: Q.A = r.A
    emit: Q.B = r.B
";
    assert_eq!(plan, expected, "partition plan drifted:\n{plan}");
}

/// Only a scope that emits rows runs partitioned: a grouping scope folds
/// sequentially and a boolean one (a semi- or anti-join build, a nested
/// `∃`) stops at its first survivor, so neither renders `partition(n)`
/// at any thread count — while the row-emitting scope around a boolean
/// one still does.
#[test]
fn only_row_emitting_scopes_render_partition() {
    let rs = fx::rs_catalog(256);
    let grouped = fx::grouped_catalog(256, 8);
    // (catalog, query, scopes that partition): eq3 is one grouping
    // scope; eq7's outer scope emits rows around a grouping lateral; the
    // others emit rows around a semi-join, an anti-join and a nested `∃`
    // build.
    let nested = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.B < r.B]]}");
    let cases = [
        (&grouped, fx::eq3(), 0),
        (&grouped, fx::eq7(), 1),
        (&rs, fx::exists_corr(5), 1),
        (&rs, fx::not_exists_corr(5), 1),
        (&rs, nested, 1),
    ];
    for (catalog, q, want) in cases {
        let engine = Engine::new(catalog, Conventions::set())
            .with_threads(4)
            .with_mem_budget(0);
        let plan = engine.explain_collection(&q).unwrap();
        let lines: Vec<&str> = plan.lines().collect();
        let indent = |l: &str| l.len() - l.trim_start().len();
        // The nearest line above `at` that is indented less: its node.
        let parent = |at: usize| {
            let above = lines[..at]
                .iter()
                .rposition(|l| indent(l) < indent(lines[at]));
            above.expect("a step sits under its scope")
        };
        let mut partitioned = 0;
        for at in (0..lines.len()).filter(|&i| lines[i].contains("partition(")) {
            let scope = parent(at);
            assert_eq!(lines[scope].trim(), "scope", "{plan}");
            let owner = lines[parent(scope)].trim();
            assert!(
                owner.starts_with("project"),
                "`{owner}` partitions:\n{plan}"
            );
            partitioned += 1;
        }
        assert_eq!(partitioned, want, "{plan}");
    }
}
