//! Invariant 7: the engine means what the oracle says.
//!
//! `arc_analysis::oracle` is a deliberately naive evaluator that follows
//! the paper's rules and shares no code with `arc-plan` or `arc-engine`.
//! This suite first pins the oracle itself on rows written out by hand,
//! then checks the default engine against it — bag-equal, or set-equal
//! under set conventions — under `sql`, `set` and `souffle` over random
//! conjunctive queries (with and without NULLs), random correlated
//! boolean queries and every paper fixture; and finally walks the engine's
//! option lattice (threads × guard × statistics, plus one starved point per
//! admission seam) against it. Every loop has a fixed case budget.

use arc_analysis::oracle::{self, OracleError};
use arc_analysis::{
    chain_catalog, random_catalog, random_conjunctive_query, random_correlated_boolean_query,
    InstanceSpec,
};
use arc_core::ast::{Collection, Formula, Program};
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{seam, Catalog, Engine, EvalError, Relation};
use arc_tests::fixtures as fx;
use arc_tests::{agrees, assert_oracle, deny_first, oracle_program, oracle_rows};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn conventions() -> [Conventions; 3] {
    [
        Conventions::sql(),
        Conventions::set(),
        Conventions::souffle(),
    ]
}

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
        .collect()
}

/// `R(A)`, `S(A)` from optional integers (`None` is `NULL`).
fn not_in_catalog(r: &[Option<i64>], s: &[Option<i64>]) -> Catalog {
    let rel = |name: &str, vals: &[Option<i64>]| {
        let rows = vals.iter().map(|v| vec![v.map_or(Value::Null, Value::Int)]);
        Relation::from_rows(name, &["A"], rows.collect())
    };
    Catalog::new().with(rel("R", r)).with(rel("S", s))
}

// ---- the oracle, pinned by hand ------------------------------------------

#[test]
fn count_bug_by_hand() {
    // R = {(9,0)}, S = ∅ (Fig 21): v1 and v3 return {9}, v2 returns ∅.
    let catalog = fx::count_bug_catalog(true);
    let run = |q: &Collection| oracle_rows(&catalog, Conventions::sql(), q).rows;
    assert_eq!(run(&fx::eq27()), ints(&[&[9]]));
    assert!(run(&fx::eq28()).is_empty());
    assert_eq!(run(&fx::eq29()), ints(&[&[9]]));
}

#[test]
fn eq17_guarded_not_in_by_hand() {
    // NOT IN keeps 1; 2 is in S, and a NULL probe is unknown, so both go.
    let catalog = not_in_catalog(&[Some(1), Some(2), None], &[Some(2)]);
    for conv in conventions() {
        assert_eq!(oracle_rows(&catalog, conv, &fx::eq17()).rows, ints(&[&[1]]));
    }
    // A NULL in S makes every comparison unknown: nothing survives.
    let catalog = not_in_catalog(&[Some(1), Some(2), None], &[Some(2), None]);
    assert!(oracle_rows(&catalog, Conventions::sql(), &fx::eq17()).is_empty());
}

#[test]
fn eq16_ancestor_on_a_five_chain_by_hand() {
    let catalog = Catalog::new().with(Relation::from_ints(
        "P",
        &["s", "t"],
        &[&[1, 2], &[2, 3], &[3, 4], &[4, 5]],
    ));
    let out = oracle_program(&catalog, Conventions::set(), &fx::eq16());
    let pairs = [
        [1, 2],
        [1, 3],
        [1, 4],
        [1, 5],
        [2, 3],
        [2, 4],
        [2, 5],
        [3, 4],
        [3, 5],
        [4, 5],
    ];
    let want: Vec<&[i64]> = pairs.iter().map(|p| &p[..]).collect();
    assert_eq!(out.defined["A"].sorted_rows(), ints(&want));
    // Recursion has no meaning under bag semantics.
    let bag = oracle::eval_program(&catalog, Conventions::sql(), &fx::eq16());
    assert!(matches!(bag, Err(OracleError::Invalid(_))), "{bag:?}");
}

#[test]
fn fig12_literal_leaf_by_hand() {
    // left(r, inner(11, s)): `r.h = 11` compares with the literal leaf, so
    // it joins the ON condition — r = (2,20,99) is padded, not dropped.
    let out = oracle_rows(&fx::fig12_catalog(), Conventions::sql(), &fx::eq18());
    assert_eq!(
        out.sorted_rows(),
        vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(2), Value::Null]
        ]
    );
}

#[test]
fn empty_gamma_sum_follows_the_convention_by_hand() {
    // Eq 15 over R = {(1,2)}, S = ∅: γ∅ has one, empty group.
    let catalog = fx::eq15_catalog();
    let sql = oracle_rows(&catalog, Conventions::sql(), &fx::eq15());
    assert_eq!(sql.rows, vec![vec![Value::Int(1), Value::Null]]);
    let souffle = oracle_rows(&catalog, Conventions::souffle(), &fx::eq15());
    assert_eq!(souffle.rows, ints(&[&[1, 0]]));
}

#[test]
fn external_and_abstract_relations_are_outside_the_oracle() {
    let unsupported = |r: Result<(), OracleError>| matches!(r, Err(OracleError::Unsupported(_)));
    let matrix = |name| Relation::from_ints(name, &["row", "col", "val"], &[&[0, 0, 1]]);
    let fig15 = fx::fig15_catalog().with(matrix("A")).with(matrix("B"));
    for q in [fx::eq20(), fx::eq21(), fx::eq26()] {
        let r = oracle::eval_collection(&fig15, Conventions::set(), &q);
        assert!(unsupported(r.map(drop)), "{q:?}");
    }
    let likes = fx::likes_paper_catalog();
    let r = oracle::eval_program(&likes, Conventions::set(), &fx::eq24_program());
    assert!(unsupported(r.map(drop)));
}

// ---- the engine against the oracle ---------------------------------------

fn check(catalog: &Catalog, q: &Collection) {
    for conv in conventions() {
        let got = Engine::new(catalog, conv).eval_collection(q).unwrap();
        assert_oracle(catalog, conv, q, &got);
    }
}

/// Replaces "hash join ≡ nested loop": the default engine returns the
/// oracle's rows on random conjunctive queries, with and without NULLs.
#[test]
fn engine_matches_oracle_on_random_conjunctive_queries() {
    for seed in 0..96u64 {
        let spec = if seed % 2 == 0 {
            InstanceSpec::rs()
        } else {
            InstanceSpec::rs_with_nulls(0.2)
        };
        let q = random_conjunctive_query(&spec, 1 + seed as usize % 3, seed as usize % 3, seed);
        let catalog = random_catalog(&spec, &mut StdRng::seed_from_u64(seed.wrapping_mul(7919)));
        check(&catalog, &q);
    }
}

#[test]
fn engine_matches_oracle_on_random_correlated_boolean_queries() {
    for seed in 0..96u64 {
        let spec = InstanceSpec::rs_with_nulls(if seed % 3 == 0 { 0.0 } else { 0.25 });
        let (keys, joins, sels) = (seed as usize % 3, 1 + seed as usize % 2, seed as usize % 2);
        let q = random_correlated_boolean_query(&spec, keys, joins, sels, seed % 2 == 1, seed);
        let catalog = random_catalog(&spec, &mut StdRng::seed_from_u64(seed ^ 0x5eed));
        check(&catalog, &q);
    }
}

/// Eq 2's instance: `X(A)` against a `Y(A)` it is compared with.
fn xy_catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints("X", &["A"], &[&[1], &[3], &[3]]))
        .with(Relation::from_ints("Y", &["A"], &[&[2], &[4], &[4], &[0]]))
}

/// Every paper fixture the oracle covers, each over its instance.
fn fixtures() -> Vec<(&'static str, Catalog, Collection)> {
    let not_in = not_in_catalog(&[Some(1), Some(2), None, Some(4)], &[Some(2), Some(4)]);
    vec![
        ("eq1", fx::rs_catalog(40), fx::eq1()),
        ("eq2", xy_catalog(), fx::eq2()),
        ("eq3", fx::grouped_catalog(60, 7), fx::eq3()),
        ("eq7", fx::grouped_catalog(60, 7), fx::eq7()),
        ("eq8", fx::dept_catalog(30, 4), fx::eq8()),
        ("eq10", fx::dept_paper_catalog(), fx::eq10()),
        ("eq12", fx::dept_catalog(30, 4), fx::eq12()),
        ("eq15", fx::eq15_catalog(), fx::eq15()),
        ("eq17", not_in, fx::eq17()),
        ("eq18", fx::fig12_catalog(), fx::eq18()),
        ("eq19", fx::fig15_catalog(), fx::eq19()),
        ("eq19 at scale", fx::arith_catalog(50, 12), fx::eq19()),
        ("eq22", fx::likes_paper_catalog(), fx::eq22()),
        ("eq27", fx::count_bug_catalog(false), fx::eq27()),
        ("eq28", fx::count_bug_catalog(false), fx::eq28()),
        ("eq29", fx::count_bug_catalog(false), fx::eq29()),
        ("eq27 paper", fx::count_bug_catalog(true), fx::eq27()),
        ("eq29 paper", fx::count_bug_catalog(true), fx::eq29()),
        ("eq1_range", fx::stats_skew_catalog(200), fx::eq1_range(200)),
        (
            "prefix_range",
            fx::prefix_catalog(200),
            fx::prefix_range(200),
        ),
        (
            "exists_corr",
            fx::semijoin_catalog(80, 48),
            fx::exists_corr(48),
        ),
        (
            "not_exists_corr",
            fx::semijoin_catalog(80, 48),
            fx::not_exists_corr(48),
        ),
        ("filter_scan", fx::filter_catalog(2000), fx::filter_scan()),
        // Not a paper equation: the nested emission spine of §2.7, where
        // an inner scope contributes each tuple once per outer row.
        (
            "nested spine",
            fx::rs_catalog(40),
            fx::q("{Q(A) | ∃r ∈ R [∃s ∈ S [Q.A = r.A ∧ r.B = s.B]]}"),
        ),
    ]
}

#[test]
fn engine_matches_oracle_on_every_paper_fixture() {
    for (_, catalog, q) in fixtures() {
        check(&catalog, &q);
    }
    // The sentences (Fig 9) and the recursive program (Fig 10).
    let sentences: [Formula; 2] = [fx::eq13(), fx::eq14()];
    for paper in [true, false] {
        let catalog = fx::count_bug_catalog(paper);
        for (f, conv) in sentences.iter().zip(conventions()) {
            let got = Engine::new(&catalog, conv).eval_sentence(f).unwrap();
            assert_eq!(Ok(got), oracle::eval_sentence(&catalog, conv, f), "{f:?}");
        }
    }
    let catalog = chain_catalog(12, 5, 3);
    let program: Program = fx::eq16();
    let got = Engine::new(&catalog, Conventions::set())
        .eval_program(&program)
        .unwrap();
    let want = oracle_program(&catalog, Conventions::set(), &program);
    assert!(got.defined["A"].set_eq(&want.defined["A"]));
}

// ---- the option lattice --------------------------------------------------

/// The guard seams where a denied build degrades to a fallback path.
const ADMISSION_SEAMS: [&str; 5] = [
    seam::HASH_BUILD,
    seam::SEMI_BUILD,
    seam::CHUNK_BUILD,
    seam::ORDERED_BUILD,
    seam::SELECTION_BUILD,
];

/// One engine configuration of the lattice: everything but the
/// statistics, which live in the catalog. `starved` names the admission
/// seam whose first build the guard denies.
#[derive(Debug, Clone, Copy)]
struct Point {
    threads: usize,
    budget: usize,
    starved: Option<&'static str>,
}

/// Threads {1, 4} × budget {none, 1 GiB, 1 byte}, then one sequential
/// point per admission seam.
fn lattice() -> Vec<Point> {
    let mut points = Vec::new();
    for threads in [1, 4] {
        for budget in [0, 1 << 30, 1] {
            points.push(Point {
                threads,
                budget,
                starved: None,
            });
        }
    }
    for seam in ADMISSION_SEAMS {
        points.push(Point {
            threads: 1,
            budget: 0,
            starved: Some(seam),
        });
    }
    points
}

/// A budget of 0 is none at all, whatever `ARC_MEM_BUDGET` says.
fn engine(catalog: &Catalog, conv: Conventions, p: Point) -> Engine<'_> {
    let engine = Engine::new(catalog, conv)
        .with_threads(p.threads)
        .with_mem_budget(p.budget);
    match p.starved {
        Some(seam) => deny_first(engine, seam),
        None => engine,
    }
}

/// `catalog` with statistics, or with none.
fn with_stats(catalog: &Catalog, analyzed: bool) -> Catalog {
    let mut catalog = catalog.clone();
    if analyzed {
        catalog.analyze();
    } else {
        catalog.clear_stats();
    }
    catalog
}

/// The rest of the mode matrix, in process: every lattice point × with and
/// without statistics answers like the oracle. Under the 1-byte budget the
/// only accepted deviation is `MemoryBudget` on a recursive program. Every
/// starved point must really take its fallback somewhere: its denials
/// count in `guard.degradations`, which no other test of this file moves.
#[test]
fn option_lattice_matches_oracle() {
    let names = "eq1 eq8 eq10 eq17 eq18 eq29 eq1_range prefix_range exists_corr not_exists_corr";
    let workloads: Vec<_> = (fixtures().into_iter())
        .filter(|(name, ..)| names.split(' ').any(|w| w == *name))
        .collect();
    let points = lattice();
    let degradations = arc_engine::metrics::guard_degradations();
    let mut degraded = vec![0; points.len()];
    for analyzed in [true, false] {
        for (name, catalog, q) in &workloads {
            let catalog = with_stats(catalog, analyzed);
            for conv in [Conventions::sql(), Conventions::set()] {
                let want = oracle_rows(&catalog, conv, q);
                for (i, &p) in points.iter().enumerate() {
                    let before = degradations.get();
                    let got = engine(&catalog, conv, p).eval_collection(q).unwrap();
                    degraded[i] += degradations.get() - before;
                    assert!(
                        agrees(conv, &got, &want),
                        "{name} {conv:?} {p:?} analyzed={analyzed}:\n{got}\n{want}"
                    );
                }
            }
        }
        let chain = with_stats(&chain_catalog(8, 3, 11), analyzed);
        let want = oracle_program(&chain, Conventions::set(), &fx::eq16());
        for &p in &points {
            match engine(&chain, Conventions::set(), p).eval_program(&fx::eq16()) {
                Ok(got) => assert!(got.defined["A"].set_eq(&want.defined["A"]), "{p:?}"),
                Err(EvalError::MemoryBudget) if p.budget == 1 => {}
                Err(e) => panic!("eq16 {p:?} analyzed={analyzed}: {e}"),
            }
        }
    }
    for (p, degraded) in points.iter().zip(degraded) {
        if p.starved.is_some() {
            assert!(degraded > 0, "{p:?} never reached its fallback");
        }
    }
}
