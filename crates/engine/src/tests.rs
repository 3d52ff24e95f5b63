//! Engine unit tests: every semantic claim of the paper, checked on the
//! paper's own instances (larger randomized checks live in the
//! workspace-level integration tests and `arc-analysis`).

use crate::{Catalog, Engine, EvalError, Relation};
use arc_core::conventions::Conventions;
use arc_core::dsl::*;
use arc_core::value::{Truth, Value};
use arc_core::{Collection, Program};

fn ints(name: &str, schema: &[&str], rows: &[&[i64]]) -> Relation {
    Relation::from_ints(name, schema, rows)
}

fn sorted(rel: &Relation) -> Vec<Vec<Value>> {
    rel.sorted_rows()
}

fn row(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|v| Value::Int(*v)).collect()
}

// ---------------------------------------------------------------------------
// §2.1 — Eq (1): the running TRC example
// ---------------------------------------------------------------------------

fn eq1() -> Collection {
    collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R"), bind("s", "S")],
            and([
                assign("Q", "A", col("r", "A")),
                eq(col("r", "B"), col("s", "B")),
                eq(col("s", "C"), int(0)),
            ]),
        ),
    )
}

#[test]
fn eq1_join_and_selection() {
    let catalog = Catalog::new()
        .with(ints("R", &["A", "B"], &[&[1, 10], &[2, 20], &[3, 30]]))
        .with(ints("S", &["B", "C"], &[&[10, 0], &[20, 1], &[30, 0]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&eq1())
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1]), row(&[3])]);
}

#[test]
fn constant_singleton_collection() {
    // A "virtual unary table" (§2.11): {L(v) | L.v = 11}.
    let c = collection("L", &["v"], assign("L", "v", int(11)));
    let catalog = Catalog::new();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&c)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[11])]);
}

// ---------------------------------------------------------------------------
// §2.4 — Eq (2): orthogonal nesting = lateral join
// ---------------------------------------------------------------------------

#[test]
fn eq2_lateral_nesting() {
    // {Q(A,B) | ∃x∈X, z∈{Z(B) | ∃y∈Y[Z.B=y.A ∧ x.A<y.A]} [Q.A=x.A ∧ Q.B=z.B]}
    let inner = collection(
        "Z",
        &["B"],
        exists(
            &[bind("y", "Y")],
            and([
                assign("Z", "B", col("y", "A")),
                lt(col("x", "A"), col("y", "A")),
            ]),
        ),
    );
    let q = collection(
        "Q",
        &["A", "B"],
        exists(
            &[bind("x", "X"), bind_coll("z", inner)],
            and([
                assign("Q", "A", col("x", "A")),
                assign("Q", "B", col("z", "B")),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("X", &["A"], &[&[1], &[2]]))
        .with(ints("Y", &["A"], &[&[2], &[3]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1, 2]), row(&[1, 3]), row(&[2, 3])]);
}

#[test]
fn lateral_sibling_reference_in_same_quantifier() {
    // Fig 5c shape: the nested collection references a sibling binding.
    let q = foi_query();
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[&[1, 10], &[1, 20], &[2, 5]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1, 30]), row(&[2, 5])]);
}

// ---------------------------------------------------------------------------
// §2.5 — grouping and aggregates: FIO (Eq 3) vs FOI (Eq 7)
// ---------------------------------------------------------------------------

fn fio_query() -> Collection {
    // Eq (3): {Q(A,sm) | ∃r∈R, γ r.A [Q.A=r.A ∧ Q.sm=sum(r.B)]}
    collection(
        "Q",
        &["A", "sm"],
        quant(
            &[bind("r", "R")],
            group(&[("r", "A")]),
            None,
            and([
                assign("Q", "A", col("r", "A")),
                assign_agg("Q", "sm", sum(col("r", "B"))),
            ]),
        ),
    )
}

fn foi_query() -> Collection {
    // Eq (7): {Q(A,sm) | ∃r∈R, x∈{X(sm) | ∃r2∈R, γ∅ [r2.A=r.A ∧ X.sm=sum(r2.B)]}
    //                     [Q.A=r.A ∧ Q.sm=x.sm]}
    let x = collection(
        "X",
        &["sm"],
        quant(
            &[bind("r2", "R")],
            group_all(),
            None,
            and([
                eq(col("r2", "A"), col("r", "A")),
                assign_agg("X", "sm", sum(col("r2", "B"))),
            ]),
        ),
    );
    collection(
        "Q",
        &["A", "sm"],
        exists(
            &[bind("r", "R"), bind_coll("x", x)],
            and([
                assign("Q", "A", col("r", "A")),
                assign("Q", "sm", col("x", "sm")),
            ]),
        ),
    )
}

#[test]
fn fio_grouped_sum() {
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[&[1, 10], &[1, 20], &[2, 5]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&fio_query())
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1, 30]), row(&[2, 5])]);
}

#[test]
fn fio_and_foi_agree_on_sets() {
    // Fig 5's point: the FOI pattern computes the same answer as FIO
    // (under set semantics / DISTINCT).
    let catalog = Catalog::new().with(ints(
        "R",
        &["A", "B"],
        &[&[1, 10], &[1, 20], &[2, 5], &[3, 7], &[3, 8]],
    ));
    let engine = Engine::new(&catalog, Conventions::set());
    let fio = engine.eval_collection(&fio_query()).unwrap();
    let foi = engine.eval_collection(&foi_query()).unwrap();
    assert!(fio.set_eq(&foi));
}

#[test]
fn empty_gamma_produces_one_group_over_empty_join() {
    // SQL: SELECT count(*) FROM empty → one row with 0. γ∅ likewise (§2.5).
    let q = collection(
        "Q",
        &["c"],
        quant(
            &[bind("r", "R")],
            group_all(),
            None,
            and([assign_agg("Q", "c", count(col("r", "A")))]),
        ),
    );
    let catalog = Catalog::new().with(ints("R", &["A"], &[]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[0])]);
}

#[test]
fn keyed_grouping_over_empty_input_produces_no_groups() {
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&fio_query())
        .unwrap();
    assert!(out.is_empty());
}

#[test]
fn multiple_aggregates_share_one_scope() {
    // Fig 6 / Eq (8): average salary per department paying total > 100.
    let x = collection(
        "X",
        &["dept", "av", "sm"],
        quant(
            &[bind("r", "R"), bind("s", "S")],
            group(&[("r", "dept")]),
            None,
            and([
                eq(col("r", "empl"), col("s", "empl")),
                assign("X", "dept", col("r", "dept")),
                assign_agg("X", "av", avg(col("s", "sal"))),
                assign_agg("X", "sm", sum(col("s", "sal"))),
            ]),
        ),
    );
    let q = collection(
        "Q",
        &["dept", "av"],
        exists(
            &[bind_coll("x", x)],
            and([
                assign("Q", "dept", col("x", "dept")),
                assign("Q", "av", col("x", "av")),
                gt(col("x", "sm"), int(100)),
            ]),
        ),
    );
    // d1: empl 1 (50) + empl 2 (60) → sum 110 > 100, avg 55.
    // d2: empl 3 (40) → sum 40, filtered by HAVING.
    let catalog = Catalog::new()
        .with(ints("R", &["empl", "dept"], &[&[1, 1], &[2, 1], &[3, 2]]))
        .with(ints("S", &["empl", "sal"], &[&[1, 50], &[2, 60], &[3, 40]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(1));
    assert_eq!(out.rows[0][1], Value::Float(55.0));
}

#[test]
fn hella_pattern_eq10_same_answer() {
    // Eq (10): per-aggregate scopes (Klug/Hella), FOI — same rows as Eq (8).
    let x = collection(
        "X",
        &["av"],
        quant(
            &[bind("r1", "R"), bind("s1", "S")],
            group(&[("r1", "dept")]),
            None,
            and([
                eq(col("r1", "dept"), col("r3", "dept")),
                eq(col("r1", "empl"), col("s1", "empl")),
                assign_agg("X", "av", avg(col("s1", "sal"))),
            ]),
        ),
    );
    let y = collection(
        "Y",
        &["sm"],
        quant(
            &[bind("r2", "R"), bind("s2", "S")],
            group(&[("r2", "dept")]),
            None,
            and([
                eq(col("r2", "dept"), col("r3", "dept")),
                eq(col("r2", "empl"), col("s2", "empl")),
                assign_agg("Y", "sm", sum(col("s2", "sal"))),
            ]),
        ),
    );
    let q = collection(
        "Q",
        &["dept", "av"],
        exists(
            &[
                bind("r3", "R"),
                bind("s3", "S"),
                bind_coll("x", x),
                bind_coll("y", y),
            ],
            and([
                assign("Q", "dept", col("r3", "dept")),
                assign("Q", "av", col("x", "av")),
                eq(col("r3", "empl"), col("s3", "empl")),
                gt(col("y", "sm"), int(100)),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("R", &["empl", "dept"], &[&[1, 1], &[2, 1], &[3, 2]]))
        .with(ints("S", &["empl", "sal"], &[&[1, 50], &[2, 60], &[3, 40]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(1));
    assert_eq!(out.rows[0][1], Value::Float(55.0));
}

#[test]
fn distinct_aggregate_deduplicates_inputs() {
    let q = collection(
        "Q",
        &["c", "cd"],
        quant(
            &[bind("r", "R")],
            group_all(),
            None,
            and([
                assign_agg("Q", "c", count(col("r", "B"))),
                assign_agg(
                    "Q",
                    "cd",
                    agg_distinct(arc_core::ast::AggFunc::Count, col("r", "B")),
                ),
            ]),
        ),
    );
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[&[1, 7], &[2, 7], &[3, 8]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[3, 2])]);
}

#[test]
fn min_max_and_avg() {
    let q = collection(
        "Q",
        &["mn", "mx", "av"],
        quant(
            &[bind("r", "R")],
            group_all(),
            None,
            and([
                assign_agg("Q", "mn", min(col("r", "A"))),
                assign_agg("Q", "mx", max(col("r", "A"))),
                assign_agg("Q", "av", avg(col("r", "A"))),
            ]),
        ),
    );
    let catalog = Catalog::new().with(ints("R", &["A"], &[&[2], &[4], &[9]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Int(2));
    assert_eq!(out.rows[0][1], Value::Int(9));
    assert_eq!(out.rows[0][2], Value::Float(5.0));
}

#[test]
fn aggregates_skip_nulls() {
    // SQL semantics: NULL inputs are ignored; count(*) counts rows.
    let q = collection(
        "Q",
        &["c", "cs", "sm"],
        quant(
            &[bind("r", "R")],
            group_all(),
            None,
            and([
                assign_agg("Q", "c", count(col("r", "A"))),
                assign_agg("Q", "cs", count_star()),
                assign_agg("Q", "sm", sum(col("r", "A"))),
            ]),
        ),
    );
    let mut r = Relation::new("R", &["A"]);
    r.push(vec![Value::Int(5)]);
    r.push(vec![Value::Null]);
    let catalog = Catalog::new().with(r);
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1, 2, 5])]);
}

// ---------------------------------------------------------------------------
// §2.6 — conventions: Eq (15), sum over empty
// ---------------------------------------------------------------------------

fn eq15_query() -> Collection {
    // Soufflé: Q(ak, sm) :- R(ak, _), sm = sum b : {S(a, b), a < ak}.
    let x = collection(
        "X",
        &["sm"],
        quant(
            &[bind("s", "S")],
            group_all(),
            None,
            and([
                lt(col("s", "A"), col("r", "A")),
                assign_agg("X", "sm", sum(col("s", "B"))),
            ]),
        ),
    );
    collection(
        "Q",
        &["ak", "sm"],
        exists(
            &[bind("r", "R"), bind_coll("x", x)],
            and([
                assign("Q", "ak", col("r", "A")),
                assign("Q", "sm", col("x", "sm")),
            ]),
        ),
    )
}

#[test]
fn eq15_souffle_derives_zero_sql_derives_null() {
    let catalog = Catalog::new()
        .with(ints("R", &["A", "B"], &[&[1, 2]]))
        .with(ints("S", &["A", "B"], &[]));

    let souffle = Engine::new(&catalog, Conventions::souffle())
        .eval_collection(&eq15_query())
        .unwrap();
    assert_eq!(sorted(&souffle), vec![row(&[1, 0])]);

    let sql = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&eq15_query())
        .unwrap();
    assert_eq!(sql.len(), 1);
    assert_eq!(sql.rows[0][0], Value::Int(1));
    assert_eq!(sql.rows[0][1], Value::Null);
}

// ---------------------------------------------------------------------------
// §2.7 — set vs. bag: nesting/unnesting, deduplication
// ---------------------------------------------------------------------------

fn nested_semijoin() -> Collection {
    collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([exists(
                &[bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            )]),
        ),
    )
}

fn unnested_join() -> Collection {
    collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R"), bind("s", "S")],
            and([
                assign("Q", "A", col("r", "A")),
                eq(col("r", "B"), col("s", "B")),
            ]),
        ),
    )
}

#[test]
fn unnesting_valid_under_set_semantics() {
    let catalog = Catalog::new()
        .with(ints("R", &["A", "B"], &[&[1, 7]]))
        .with(ints("S", &["B"], &[&[7], &[7]]));
    let engine = Engine::new(&catalog, Conventions::set());
    let nested = engine.eval_collection(&nested_semijoin()).unwrap();
    let unnested = engine.eval_collection(&unnested_join()).unwrap();
    assert!(nested.bag_eq(&unnested));
    assert_eq!(nested.len(), 1);
}

#[test]
fn unnesting_invalid_under_bag_semantics() {
    // The nested form is a semijoin (once per r); the unnested form
    // multiplies by matching S rows (§2.7).
    let catalog = Catalog::new()
        .with(ints("R", &["A", "B"], &[&[1, 7]]))
        .with(ints("S", &["B"], &[&[7], &[7]]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let nested = engine.eval_collection(&nested_semijoin()).unwrap();
    let unnested = engine.eval_collection(&unnested_join()).unwrap();
    assert_eq!(nested.len(), 1);
    assert_eq!(unnested.len(), 2);
}

#[test]
fn deduplication_is_grouping_on_all_attrs() {
    // {Q(A,B) | ∃r∈R, γ r.A,r.B [Q.A=r.A ∧ Q.B=r.B]} = DISTINCT (§2.7).
    let q = collection(
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
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[&[1, 2], &[1, 2], &[3, 4]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1, 2]), row(&[3, 4])]);
}

// ---------------------------------------------------------------------------
// §2.8/§2.9 — disjunction, union, recursion
// ---------------------------------------------------------------------------

fn ancestor_program() -> Program {
    // Eq (16).
    let anc = collection(
        "A",
        &["s", "t"],
        or([
            exists(
                &[bind("p", "P")],
                and([
                    assign("A", "s", col("p", "s")),
                    assign("A", "t", col("p", "t")),
                ]),
            ),
            exists(
                &[bind("p", "P"), bind("a2", "A")],
                and([
                    assign("A", "s", col("p", "s")),
                    eq(col("p", "t"), col("a2", "s")),
                    assign("A", "t", col("a2", "t")),
                ]),
            ),
        ]),
    );
    Program::default().with_definition(define(anc))
}

#[test]
fn recursion_transitive_closure() {
    // Chain 1→2→3→4.
    let catalog = Catalog::new().with(ints("P", &["s", "t"], &[&[1, 2], &[2, 3], &[3, 4]]));
    let engine = Engine::new(&catalog, Conventions::set());
    let out = engine.eval_program(&ancestor_program()).unwrap();
    let anc = &out.defined["A"];
    assert_eq!(anc.len(), 6); // (1,2)(1,3)(1,4)(2,3)(2,4)(3,4)
}

#[test]
fn recursion_under_bag_rejected() {
    let catalog = Catalog::new().with(ints("P", &["s", "t"], &[&[1, 2]]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let err = engine.eval_program(&ancestor_program()).unwrap_err();
    assert!(matches!(err, EvalError::RecursionUnderBag { .. }));
}

#[test]
fn recursion_through_negation_rejected() {
    // A(s,t) :- P(s,t), ¬A(t,s) — not stratifiable.
    let bad = collection(
        "A",
        &["s", "t"],
        exists(
            &[bind("p", "P")],
            and([
                assign("A", "s", col("p", "s")),
                assign("A", "t", col("p", "t")),
                not(exists(
                    &[bind("a2", "A")],
                    and([
                        eq(col("a2", "s"), col("p", "t")),
                        eq(col("a2", "t"), col("p", "s")),
                    ]),
                )),
            ]),
        ),
    );
    let catalog = Catalog::new().with(ints("P", &["s", "t"], &[&[1, 2]]));
    let engine = Engine::new(&catalog, Conventions::set());
    let err = engine
        .eval_program(&Program::default().with_definition(define(bad)))
        .unwrap_err();
    assert!(matches!(err, EvalError::NotStratifiable { .. }));
}

#[test]
fn stratified_negation_through_definitions_works() {
    // D1 = P; query uses ¬D1 — different stratum, fine.
    let d1 = collection(
        "D",
        &["s"],
        exists(&[bind("p", "P")], and([assign("D", "s", col("p", "s"))])),
    );
    let q = collection(
        "Q",
        &["s"],
        exists(
            &[bind("u", "U")],
            and([
                assign("Q", "s", col("u", "s")),
                not(exists(
                    &[bind("d", "D")],
                    and([eq(col("d", "s"), col("u", "s"))]),
                )),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("P", &["s", "t"], &[&[1, 2]]))
        .with(ints("U", &["s"], &[&[1], &[9]]));
    let mut p = Program::default().with_definition(define(d1));
    p.query = Some(q);
    let out = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(sorted(out.query.as_ref().unwrap()), vec![row(&[9])]);
}

// ---------------------------------------------------------------------------
// §2.10 — null values and NOT IN (Eq 17)
// ---------------------------------------------------------------------------

fn not_in_query() -> Collection {
    collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([
                assign("Q", "A", col("r", "A")),
                not(exists(
                    &[bind("s", "S")],
                    or([
                        eq(col("s", "A"), col("r", "A")),
                        is_null(col("s", "A")),
                        is_null(col("r", "A")),
                    ]),
                )),
            ]),
        ),
    )
}

#[test]
fn not_in_with_null_in_s_returns_empty() {
    let mut s = Relation::new("S", &["A"]);
    s.push(vec![Value::Int(1)]);
    s.push(vec![Value::Null]);
    let catalog = Catalog::new()
        .with(ints("R", &["A"], &[&[1], &[3]]))
        .with(s);
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&not_in_query())
        .unwrap();
    assert!(out.is_empty());
}

#[test]
fn not_in_without_nulls_behaves_as_difference() {
    let catalog = Catalog::new()
        .with(ints("R", &["A"], &[&[1], &[3]]))
        .with(ints("S", &["A"], &[&[1]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&not_in_query())
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[3])]);
}

// ---------------------------------------------------------------------------
// §2.11 — outer joins (Eq 18 / Fig 12)
// ---------------------------------------------------------------------------

#[test]
fn fig12_left_join_with_literal_leaf() {
    // {Q(m,n) | ∃r∈R, s∈S, left(r, inner(11, s))
    //           [Q.m=r.m ∧ Q.n=s.n ∧ r.y=s.y ∧ r.h=11]}
    let q = collection(
        "Q",
        &["m", "n"],
        quant(
            &[bind("r", "R"), bind("s", "S")],
            None,
            Some(jleft(jvar("r"), jinner([jlit(11i64), jvar("s")]))),
            and([
                assign("Q", "m", col("r", "m")),
                assign("Q", "n", col("s", "n")),
                eq(col("r", "y"), col("s", "y")),
                eq(col("r", "h"), int(11)),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("R", &["m", "y", "h"], &[&[1, 10, 11], &[2, 20, 99]]))
        .with(ints("S", &["y", "n", "q"], &[&[10, 5, 0], &[30, 6, 0]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    let rows = sorted(&out);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Int(1), Value::Int(5)]);
    assert_eq!(rows[1], vec![Value::Int(2), Value::Null]);
}

#[test]
fn full_outer_join_pads_both_sides() {
    let q = collection(
        "Q",
        &["a", "b"],
        quant(
            &[bind("r", "R"), bind("s", "S")],
            None,
            Some(jfull(jvar("r"), jvar("s"))),
            and([
                assign("Q", "a", col("r", "A")),
                assign("Q", "b", col("s", "B")),
                eq(col("r", "A"), col("s", "B")),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("R", &["A"], &[&[1], &[2]]))
        .with(ints("S", &["B"], &[&[2], &[3]]));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    let rows = sorted(&out);
    // (1, null), (2, 2), (null, 3) — Null sorts first.
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], vec![Value::Null, Value::Int(3)]);
    assert_eq!(rows[1], vec![Value::Int(1), Value::Null]);
    assert_eq!(rows[2], vec![Value::Int(2), Value::Int(2)]);
}

// ---------------------------------------------------------------------------
// §2.12 / Fig 13 — head aggregates: lateral is right, LEFT JOIN+GROUP BY
// is wrong under duplicates
// ---------------------------------------------------------------------------

fn fig13_lateral() -> Collection {
    // Fig 13b/13d: sum of S.B where S.A < R.A, once per R tuple.
    let x = collection(
        "X",
        &["sm"],
        quant(
            &[bind("s", "S")],
            group_all(),
            None,
            and([
                lt(col("s", "A"), col("r", "A")),
                assign_agg("X", "sm", sum(col("s", "B"))),
            ]),
        ),
    );
    collection(
        "Q",
        &["A", "sm"],
        exists(
            &[bind("r", "R"), bind_coll("x", x)],
            and([
                assign("Q", "A", col("r", "A")),
                assign("Q", "sm", col("x", "sm")),
            ]),
        ),
    )
}

fn fig13_left_join_group_by() -> Collection {
    // Fig 13c: groups collapse duplicate R.A values — the counterexample.
    collection(
        "Q",
        &["A", "sm"],
        quant(
            &[bind("r", "R"), bind("s", "S")],
            group(&[("r", "A")]),
            Some(jleft(jvar("r"), jvar("s"))),
            and([
                assign("Q", "A", col("r", "A")),
                assign_agg("Q", "sm", sum(col("s", "B"))),
                lt(col("s", "A"), col("r", "A")),
            ]),
        ),
    )
}

#[test]
fn fig13_rewrites_agree_without_duplicates() {
    let catalog = Catalog::new()
        .with(ints("R", &["A"], &[&[3], &[5]]))
        .with(ints("S", &["A", "B"], &[&[1, 10], &[2, 20], &[4, 40]]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let lateral = engine.eval_collection(&fig13_lateral()).unwrap();
    let leftjoin = engine.eval_collection(&fig13_left_join_group_by()).unwrap();
    assert!(lateral.bag_eq(&leftjoin));
    assert_eq!(sorted(&lateral), vec![row(&[3, 30]), row(&[5, 70])]);
}

#[test]
fn fig13_left_join_group_by_wrong_under_duplicates() {
    let catalog = Catalog::new()
        .with(ints("R", &["A"], &[&[3], &[3], &[5]])) // duplicate 3
        .with(ints("S", &["A", "B"], &[&[1, 10], &[2, 20], &[4, 40]]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let lateral = engine.eval_collection(&fig13_lateral()).unwrap();
    let leftjoin = engine.eval_collection(&fig13_left_join_group_by()).unwrap();
    // Lateral: once per tuple of R → (3,30) ×2, (5,70).
    assert_eq!(
        sorted(&lateral),
        vec![row(&[3, 30]), row(&[3, 30]), row(&[5, 70])]
    );
    // LEFT JOIN + GROUP BY: duplicates collapse AND the sum doubles.
    assert_eq!(sorted(&leftjoin), vec![row(&[3, 60]), row(&[5, 70])]);
    assert!(!lateral.bag_eq(&leftjoin));
}

// ---------------------------------------------------------------------------
// Fig 9 — boolean sentences (Eqs 13, 14)
// ---------------------------------------------------------------------------

#[test]
fn sentences_with_aggregation_comparisons() {
    let catalog = Catalog::new()
        .with(ints("R", &["id", "q"], &[&[1, 2]]))
        .with(ints("S", &["id", "d"], &[&[1, 5], &[1, 6]]));
    let engine = Engine::new(&catalog, Conventions::sql());

    // (13): ∃r∈R[∃s∈S, γ∅ [r.id=s.id ∧ r.q ≤ count(s.d)]]
    let e13 = exists(
        &[bind("r", "R")],
        and([quant(
            &[bind("s", "S")],
            group_all(),
            None,
            and([
                eq(col("r", "id"), col("s", "id")),
                le(col("r", "q"), count(col("s", "d"))),
            ]),
        )]),
    );
    assert_eq!(engine.eval_sentence(&e13).unwrap(), Truth::True);

    // (14): ¬∃r∈R[∃s∈S, γ∅ [r.id=s.id ∧ r.q > count(s.d)]]
    let e14 = not(exists(
        &[bind("r", "R")],
        and([quant(
            &[bind("s", "S")],
            group_all(),
            None,
            and([
                eq(col("r", "id"), col("s", "id")),
                gt(col("r", "q"), count(col("s", "d"))),
            ]),
        )]),
    ));
    assert_eq!(engine.eval_sentence(&e14).unwrap(), Truth::True);

    // Flip the instance: r.q = 3 > count = 2.
    let catalog2 = Catalog::new()
        .with(ints("R", &["id", "q"], &[&[1, 3]]))
        .with(ints("S", &["id", "d"], &[&[1, 5], &[1, 6]]));
    let engine2 = Engine::new(&catalog2, Conventions::sql());
    assert_eq!(engine2.eval_sentence(&e13).unwrap(), Truth::False);
    assert_eq!(engine2.eval_sentence(&e14).unwrap(), Truth::False);
}

// ---------------------------------------------------------------------------
// §3.2 — the count bug (Eqs 27–29)
// ---------------------------------------------------------------------------

fn count_bug_v1() -> Collection {
    collection(
        "Q",
        &["id"],
        exists(
            &[bind("r", "R")],
            and([
                assign("Q", "id", col("r", "id")),
                quant(
                    &[bind("s", "S")],
                    group_all(),
                    None,
                    and([
                        eq(col("r", "id"), col("s", "id")),
                        eq(col("r", "q"), count(col("s", "d"))),
                    ]),
                ),
            ]),
        ),
    )
}

fn count_bug_v2() -> Collection {
    let x = collection(
        "X",
        &["id", "ct"],
        quant(
            &[bind("s", "S")],
            group(&[("s", "id")]),
            None,
            and([
                assign("X", "id", col("s", "id")),
                assign_agg("X", "ct", count(col("s", "d"))),
            ]),
        ),
    );
    collection(
        "Q",
        &["id"],
        exists(
            &[bind("r", "R"), bind_coll("x", x)],
            and([
                assign("Q", "id", col("r", "id")),
                eq(col("r", "id"), col("x", "id")),
                eq(col("r", "q"), col("x", "ct")),
            ]),
        ),
    )
}

fn count_bug_v3() -> Collection {
    let x = collection(
        "X",
        &["id", "ct"],
        quant(
            &[bind("r2", "R"), bind("s", "S")],
            group(&[("r2", "id")]),
            Some(jleft(jvar("r2"), jvar("s"))),
            and([
                assign("X", "id", col("r2", "id")),
                assign_agg("X", "ct", count(col("s", "d"))),
                eq(col("r2", "id"), col("s", "id")),
            ]),
        ),
    );
    collection(
        "Q",
        &["id"],
        exists(
            &[bind("r", "R"), bind_coll("x", x)],
            and([
                assign("Q", "id", col("r", "id")),
                eq(col("r", "id"), col("x", "id")),
                eq(col("r", "q"), col("x", "ct")),
            ]),
        ),
    )
}

#[test]
fn count_bug_on_paper_instance() {
    // R(9, 0), S empty: v1 returns 9; v2 returns nothing; v3 returns 9.
    let catalog = Catalog::new()
        .with(ints("R", &["id", "q"], &[&[9, 0]]))
        .with(ints("S", &["id", "d"], &[]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let v1 = engine.eval_collection(&count_bug_v1()).unwrap();
    let v2 = engine.eval_collection(&count_bug_v2()).unwrap();
    let v3 = engine.eval_collection(&count_bug_v3()).unwrap();
    assert_eq!(sorted(&v1), vec![row(&[9])]);
    assert!(v2.is_empty());
    assert_eq!(sorted(&v3), vec![row(&[9])]);
}

#[test]
fn count_bug_versions_agree_when_every_id_has_rows() {
    let catalog = Catalog::new()
        .with(ints("R", &["id", "q"], &[&[1, 2], &[2, 1]]))
        .with(ints("S", &["id", "d"], &[&[1, 10], &[1, 11], &[2, 20]]));
    let engine = Engine::new(&catalog, Conventions::sql());
    let v1 = engine.eval_collection(&count_bug_v1()).unwrap();
    let v2 = engine.eval_collection(&count_bug_v2()).unwrap();
    let v3 = engine.eval_collection(&count_bug_v3()).unwrap();
    assert!(v1.bag_eq(&v2));
    assert!(v1.bag_eq(&v3));
    assert_eq!(sorted(&v1), vec![row(&[1]), row(&[2])]);
}

// ---------------------------------------------------------------------------
// §2.13.1 — external relations (Eqs 19–21, Fig 15)
// ---------------------------------------------------------------------------

#[test]
fn eq19_arithmetic_inline() {
    // {Q(A) | ∃r∈R,s∈S,t∈T [Q.A=r.A ∧ r.B - s.B > t.B]}
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R"), bind("s", "S"), bind("t", "T")],
            and([
                assign("Q", "A", col("r", "A")),
                gt(sub(col("r", "B"), col("s", "B")), col("t", "B")),
            ]),
        ),
    );
    let catalog = Catalog::new()
        .with(ints("R", &["A", "B"], &[&[1, 10], &[2, 5]]))
        .with(ints("S", &["B"], &[&[3]]))
        .with(ints("T", &["B"], &[&[5]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1])]);
}

#[test]
fn eq20_reified_minus() {
    // {Q(A) | ∃r,s,t, f∈Minus [Q.A=r.A ∧ f.left=r.B ∧ f.right=s.B ∧ f.out>t.B]}
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[
                bind("r", "R"),
                bind("s", "S"),
                bind("t", "T"),
                bind("f", "Minus"),
            ],
            and([
                assign("Q", "A", col("r", "A")),
                eq(col("f", "left"), col("r", "B")),
                eq(col("f", "right"), col("s", "B")),
                gt(col("f", "out"), col("t", "B")),
            ]),
        ),
    );
    let catalog = Catalog::with_standard_externals()
        .with(ints("R", &["A", "B"], &[&[1, 10], &[2, 5]]))
        .with(ints("S", &["B"], &[&[3]]))
        .with(ints("T", &["B"], &[&[5]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1])]);
}

#[test]
fn eq21_equijoin_between_externals() {
    // Minus joined with Bigger: "-".out = ">".left (Fig 15e).
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[
                bind("r", "R"),
                bind("s", "S"),
                bind("t", "T"),
                bind("f", "Minus"),
                bind("g", "Bigger"),
            ],
            and([
                assign("Q", "A", col("r", "A")),
                eq(col("f", "left"), col("r", "B")),
                eq(col("f", "right"), col("s", "B")),
                eq(col("f", "out"), col("g", "left")),
                eq(col("g", "right"), col("t", "B")),
            ]),
        ),
    );
    let catalog = Catalog::with_standard_externals()
        .with(ints("R", &["A", "B"], &[&[1, 10], &[2, 5]]))
        .with(ints("S", &["B"], &[&[3]]))
        .with(ints("T", &["B"], &[&[5]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1])]);
}

#[test]
fn backward_access_pattern_solves_operands() {
    // Add(x, 3, 5): the (right, out)-bound pattern computes left = 2.
    let q = collection(
        "Q",
        &["x"],
        exists(
            &[bind("f", "Add")],
            and([
                eq(col("f", "right"), int(3)),
                eq(col("f", "out"), int(5)),
                assign("Q", "x", col("f", "left")),
            ]),
        ),
    );
    let catalog = Catalog::with_standard_externals();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[2])]);
}

#[test]
fn no_access_path_is_reported() {
    // Minus with only one operand bound: unsolvable.
    let q = collection(
        "Q",
        &["x"],
        exists(
            &[bind("f", "Minus")],
            and([
                eq(col("f", "left"), int(3)),
                assign("Q", "x", col("f", "out")),
            ]),
        ),
    );
    let catalog = Catalog::with_standard_externals();
    let engine = Engine::new(&catalog, Conventions::set());
    let err = engine.eval_collection(&q).unwrap_err();
    assert!(matches!(err, EvalError::NoAccessPath { .. }));
    // EXPLAIN plans through evaluation's planner, so it fails the same way.
    assert_eq!(engine.explain_collection(&q), Err(err.clone()));
    assert_eq!(engine.explain_analyze_collection(&q), Err(err));
}

// ---------------------------------------------------------------------------
// §3.1 — matrix multiplication (Eq 26, Fig 20)
// ---------------------------------------------------------------------------

#[test]
fn matrix_multiplication_via_external_star() {
    let q = collection(
        "C",
        &["row", "col", "val"],
        quant(
            &[bind("a", "A"), bind("b", "B"), bind("f", "*")],
            group(&[("a", "row"), ("b", "col")]),
            None,
            and([
                assign("C", "row", col("a", "row")),
                assign("C", "col", col("b", "col")),
                eq(col("a", "col"), col("b", "row")),
                assign_agg("C", "val", sum(col("f", "out"))),
                eq(col("f", "$1"), col("a", "val")),
                eq(col("f", "$2"), col("b", "val")),
            ]),
        ),
    );
    // A = [[1,2],[3,4]], B = [[5,6],[7,8]] → C = [[19,22],[43,50]].
    let catalog = Catalog::with_standard_externals()
        .with(ints(
            "A",
            &["row", "col", "val"],
            &[&[0, 0, 1], &[0, 1, 2], &[1, 0, 3], &[1, 1, 4]],
        ))
        .with(ints(
            "B",
            &["row", "col", "val"],
            &[&[0, 0, 5], &[0, 1, 6], &[1, 0, 7], &[1, 1, 8]],
        ));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(
        sorted(&out),
        vec![
            row(&[0, 0, 19]),
            row(&[0, 1, 22]),
            row(&[1, 0, 43]),
            row(&[1, 1, 50]),
        ]
    );
}

// ---------------------------------------------------------------------------
// §2.13.2 — abstract relations (Eqs 22–24, Figs 16–19)
// ---------------------------------------------------------------------------

fn likes_catalog() -> Catalog {
    // a likes {1,2}; b likes {1}; c likes {1,2} → only b's set is unique.
    let mut l = Relation::new("L", &["d", "b"]);
    for (d, b) in [("a", 1), ("a", 2), ("b", 1), ("c", 1), ("c", 2)] {
        l.push(vec![Value::str(d), Value::Int(b)]);
    }
    Catalog::new().with(l)
}

fn unique_set_direct() -> Collection {
    // Eq (22), the relationally complete formulation.
    collection(
        "Q",
        &["d"],
        exists(
            &[bind("l1", "L")],
            and([
                assign("Q", "d", col("l1", "d")),
                not(exists(
                    &[bind("l2", "L")],
                    and([
                        ne(col("l2", "d"), col("l1", "d")),
                        not(exists(
                            &[bind("l3", "L")],
                            and([
                                eq(col("l3", "d"), col("l2", "d")),
                                not(exists(
                                    &[bind("l4", "L")],
                                    and([
                                        eq(col("l4", "b"), col("l3", "b")),
                                        eq(col("l4", "d"), col("l1", "d")),
                                    ]),
                                )),
                            ]),
                        )),
                        not(exists(
                            &[bind("l5", "L")],
                            and([
                                eq(col("l5", "d"), col("l1", "d")),
                                not(exists(
                                    &[bind("l6", "L")],
                                    and([
                                        eq(col("l6", "d"), col("l2", "d")),
                                        eq(col("l6", "b"), col("l5", "b")),
                                    ]),
                                )),
                            ]),
                        )),
                    ]),
                )),
            ]),
        ),
    )
}

fn unique_set_with_abstract_subset() -> Program {
    // Eq (23): abstract Subset(left, right).
    let subset = collection(
        "Subset",
        &["left", "right"],
        not(exists(
            &[bind("l3", "L")],
            and([
                eq(col("l3", "d"), col("Subset", "left")),
                not(exists(
                    &[bind("l4", "L")],
                    and([
                        eq(col("l4", "b"), col("l3", "b")),
                        eq(col("l4", "d"), col("Subset", "right")),
                    ]),
                )),
            ]),
        )),
    );
    // Eq (24): the query modularized through Subset.
    let q = collection(
        "Q",
        &["d"],
        exists(
            &[bind("l1", "L")],
            and([
                assign("Q", "d", col("l1", "d")),
                not(exists(
                    &[bind("l2", "L"), bind("s1", "Subset"), bind("s2", "Subset")],
                    and([
                        ne(col("l2", "d"), col("l1", "d")),
                        eq(col("s1", "left"), col("l1", "d")),
                        eq(col("s1", "right"), col("l2", "d")),
                        eq(col("s2", "left"), col("l2", "d")),
                        eq(col("s2", "right"), col("l1", "d")),
                    ]),
                )),
            ]),
        ),
    );
    let mut p = Program::default().with_definition(define(subset));
    p.query = Some(q);
    p
}

#[test]
fn unique_set_query_direct() {
    let catalog = likes_catalog();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&unique_set_direct())
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::str("b"));
}

#[test]
fn unique_set_query_via_abstract_subset_matches_direct() {
    let catalog = likes_catalog();
    let engine = Engine::new(&catalog, Conventions::set());
    let direct = engine.eval_collection(&unique_set_direct()).unwrap();
    let modular = engine
        .eval_program(&unique_set_with_abstract_subset())
        .unwrap();
    assert!(direct.set_eq(modular.query.as_ref().unwrap()));
}

#[test]
fn abstract_relation_underdetermined_is_reported() {
    // Using Subset without equating both attributes.
    let subset = collection(
        "Subset",
        &["left", "right"],
        not(exists(
            &[bind("l3", "L")],
            and([
                eq(col("l3", "d"), col("Subset", "left")),
                not(exists(
                    &[bind("l4", "L")],
                    and([
                        eq(col("l4", "b"), col("l3", "b")),
                        eq(col("l4", "d"), col("Subset", "right")),
                    ]),
                )),
            ]),
        )),
    );
    let q = collection(
        "Q",
        &["d"],
        exists(
            &[bind("l1", "L"), bind("s1", "Subset")],
            and([
                assign("Q", "d", col("l1", "d")),
                eq(col("s1", "left"), col("l1", "d")),
                // s1.right never determined
            ]),
        ),
    );
    let mut p = Program::default().with_definition(define(subset));
    p.query = Some(q);
    let catalog = likes_catalog();
    let engine = Engine::new(&catalog, Conventions::set());
    let err = engine.eval_program(&p).unwrap_err();
    assert!(matches!(err, EvalError::AbstractUnderdetermined { .. }));
    assert_eq!(engine.explain_program(&p), Err(err));
}

// ---------------------------------------------------------------------------
// Error behaviour
// ---------------------------------------------------------------------------

#[test]
fn unknown_relation_error() {
    let q = collection(
        "Q",
        &["A"],
        exists(&[bind("r", "Nope")], and([assign("Q", "A", col("r", "A"))])),
    );
    let catalog = Catalog::new();
    let err = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap_err();
    assert_eq!(err, EvalError::UnknownRelation("Nope".to_string()));
}

#[test]
fn aggregate_without_grouping_error() {
    let q = collection(
        "Q",
        &["s"],
        exists(
            &[bind("r", "R")],
            and([assign_agg("Q", "s", sum(col("r", "A")))]),
        ),
    );
    let catalog = Catalog::new().with(ints("R", &["A"], &[&[1]]));
    let err = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap_err();
    assert!(matches!(err, EvalError::AggregateOutsideGrouping(_)));
}

#[test]
fn missing_assignment_error() {
    let q = collection(
        "Q",
        &["A", "B"],
        exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "A"))])),
    );
    let catalog = Catalog::new().with(ints("R", &["A"], &[&[1]]));
    let err = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap_err();
    assert!(matches!(err, EvalError::MissingAssignment { .. }));
}

#[test]
fn conflicting_assignments_filter_rows() {
    // Q.A = r.A ∧ Q.A = r.B keeps only rows with r.A = r.B.
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([
                assign("Q", "A", col("r", "A")),
                assign("Q", "A", col("r", "B")),
            ]),
        ),
    );
    let catalog = Catalog::new().with(ints("R", &["A", "B"], &[&[1, 1], &[1, 2]]));
    let out = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1])]);
}

#[test]
fn disjunctive_union_bag_vs_set() {
    let q = collection(
        "Q",
        &["A"],
        or([
            exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "A"))])),
            exists(&[bind("s", "S")], and([assign("Q", "A", col("s", "A"))])),
        ]),
    );
    let catalog =
        Catalog::new()
            .with(ints("R", &["A"], &[&[1]]))
            .with(ints("S", &["A"], &[&[1], &[2]]));
    let set = Engine::new(&catalog, Conventions::set())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&set), vec![row(&[1]), row(&[2])]);
    let bag = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(bag.len(), 3); // UNION ALL
}

#[test]
fn arithmetic_with_nulls_and_division() {
    // r.B / r.C > 1 with C = 0 → NULL → row filtered, not an error.
    let q = collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([
                assign("Q", "A", col("r", "A")),
                gt(div(col("r", "B"), col("r", "C")), int(1)),
            ]),
        ),
    );
    let catalog = Catalog::new().with(ints(
        "R",
        &["A", "B", "C"],
        &[&[1, 10, 2], &[2, 10, 0], &[3, 1, 2]],
    ));
    let out = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    assert_eq!(sorted(&out), vec![row(&[1])]);
}

// ---------------------------------------------------------------------------
// Hash joins: every equi-join the planner probes returns the rows the
// paper's semantics gives, written out by hand (the workspace-level
// `tests/oracle_equivalence.rs` checks the same against the oracle)
// ---------------------------------------------------------------------------

/// Assert `q` evaluates to exactly the bag `want` (row order aside).
fn assert_rows(catalog: &Catalog, conv: Conventions, q: &Collection, want: &[&[i64]]) {
    let out = Engine::new(catalog, conv).eval_collection(q).unwrap();
    let attrs: Vec<&str> = out.schema.iter().map(String::as_str).collect();
    assert_eq!(
        sorted(&out),
        sorted(&ints("want", &attrs, want)),
        "{conv:?}: {q:?}"
    );
}

mod strategy_equivalence {
    use super::*;

    fn join_catalog() -> Catalog {
        Catalog::new()
            .with(ints(
                "R",
                &["A", "B"],
                &[&[1, 10], &[2, 20], &[2, 20], &[3, 30], &[4, 40]],
            ))
            .with(ints(
                "S",
                &["B", "C"],
                &[&[20, 5], &[20, 6], &[30, 7], &[50, 8]],
            ))
    }

    fn equijoin() -> Collection {
        collection(
            "Q",
            &["A", "C"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "C", col("s", "C")),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            ),
        )
    }

    #[test]
    fn equijoin_identical_under_all_conventions() {
        let catalog = join_catalog();
        let bag: &[&[i64]] = &[&[2, 5], &[2, 6], &[2, 5], &[2, 6], &[3, 7]];
        assert_rows(&catalog, Conventions::sql(), &equijoin(), bag);
        let set: &[&[i64]] = &[&[2, 5], &[2, 6], &[3, 7]];
        assert_rows(&catalog, Conventions::set(), &equijoin(), set);
        assert_rows(&catalog, Conventions::souffle(), &equijoin(), set);
    }

    #[test]
    fn hash_join_actually_joins_something() {
        // Guard against agreeing vacuously on empty output — and the
        // planner must really probe.
        let catalog = join_catalog();
        let engine = Engine::new(&catalog, Conventions::sql());
        let out = engine.eval_collection(&equijoin()).unwrap();
        // R(2,20) ×2 matches S(20,5),S(20,6) → 4 rows; R(3,30)→S(30,7) → 1.
        assert_eq!(out.len(), 5);
        let plan = engine.explain_collection(&equijoin()).unwrap();
        assert!(plan.contains("hash-probe"), "{plan}");
    }

    #[test]
    fn nulls_never_hash_match() {
        let mut r = Relation::new("R", &["A", "B"]);
        r.push(vec![Value::Int(1), Value::Null]);
        r.push(vec![Value::Int(2), Value::Int(20)]);
        let mut s = Relation::new("S", &["B", "C"]);
        s.push(vec![Value::Null, Value::Int(9)]);
        s.push(vec![Value::Int(20), Value::Int(5)]);
        let catalog = Catalog::new().with(r).with(s);
        // NULL = NULL is not a match.
        for conv in [Conventions::sql(), Conventions::souffle()] {
            assert_rows(&catalog, conv, &equijoin(), &[&[2, 5]]);
        }
    }

    #[test]
    fn mixed_int_float_keys_hash_match_like_compare() {
        // 1 = 1.0 under the engine's comparison; the hash key
        // normalization must agree (and 2 ≠ 2.5 must not match).
        let mut r = Relation::new("R", &["A"]);
        r.push(vec![Value::Int(1)]);
        r.push(vec![Value::Int(2)]);
        let mut s = Relation::new("S", &["A", "tag"]);
        s.push(vec![Value::Float(1.0), Value::str("f1")]);
        s.push(vec![Value::Float(2.5), Value::str("f25")]);
        let catalog = Catalog::new().with(r).with(s);
        let q = collection(
            "Q",
            &["A", "tag"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "tag", col("s", "tag")),
                    eq(col("r", "A"), col("s", "A")),
                ]),
            ),
        );
        let out = Engine::new(&catalog, Conventions::sql())
            .eval_collection(&q)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][1], Value::str("f1"));
    }

    #[test]
    fn nan_keys_never_hash_match() {
        // NaN is incomparable even to itself: compare() returns None, so
        // NaN = NaN is not true; hashing must agree (raw bit keys would
        // wrongly match).
        let mut r = Relation::new("R", &["A"]);
        r.push(vec![Value::Float(f64::NAN)]);
        r.push(vec![Value::Float(1.5)]);
        let mut s = Relation::new("S", &["A"]);
        s.push(vec![Value::Float(f64::NAN)]);
        s.push(vec![Value::Float(1.5)]);
        let catalog = Catalog::new().with(r).with(s);
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("r", "A"), col("s", "A")),
                ]),
            ),
        );
        let out = Engine::new(&catalog, Conventions::sql())
            .eval_collection(&q)
            .unwrap();
        assert_eq!(out.len(), 1); // only 1.5 = 1.5
    }

    #[test]
    fn three_way_chain_join_identical() {
        let catalog = Catalog::new()
            .with(ints("R", &["A", "B"], &[&[1, 2], &[2, 3], &[3, 4]]))
            .with(ints("S", &["B", "C"], &[&[2, 5], &[3, 6], &[9, 9]]))
            .with(ints("T", &["C", "D"], &[&[5, 0], &[6, 1], &[6, 2]]));
        let q = collection(
            "Q",
            &["A", "D"],
            exists(
                &[bind("r", "R"), bind("s", "S"), bind("t", "T")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "D", col("t", "D")),
                    eq(col("r", "B"), col("s", "B")),
                    eq(col("s", "C"), col("t", "C")),
                ]),
            ),
        );
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_rows(&catalog, conv, &q, &[&[1, 0], &[2, 1], &[2, 2]]);
        }
    }

    #[test]
    fn non_equi_predicates_fall_back_and_agree() {
        // `<` cannot be hashed; the plan must cover only the equality and
        // the inequality must still filter.
        let q = collection(
            "Q",
            &["A", "C"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "C", col("s", "C")),
                    eq(col("r", "B"), col("s", "B")),
                    lt(col("r", "A"), col("s", "C")),
                ]),
            ),
        );
        let want: &[&[i64]] = &[&[2, 5], &[2, 6], &[2, 5], &[2, 6], &[3, 7]];
        assert_rows(&join_catalog(), Conventions::sql(), &q, want);
    }

    #[test]
    fn constant_key_probe_identical() {
        // Selection by constant is a degenerate equi-join: key computable
        // from the (empty) outer context.
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([assign("Q", "A", col("r", "A")), eq(col("r", "B"), int(20))]),
            ),
        );
        assert_rows(&join_catalog(), Conventions::sql(), &q, &[&[2], &[2]]);
    }

    #[test]
    fn grouped_aggregation_over_hash_join_identical() {
        let q = collection(
            "Q",
            &["A", "ct"],
            quant(
                &[bind("r", "R"), bind("s", "S")],
                group(&[("r", "A")]),
                None,
                and([
                    assign("Q", "A", col("r", "A")),
                    assign_agg("Q", "ct", count(col("s", "C"))),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            ),
        );
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_rows(&join_catalog(), conv, &q, &[&[2, 4], &[3, 1]]);
        }
    }

    #[test]
    fn correlated_nested_scope_probes_outer_vars() {
        // NOT EXISTS-style correlated scope: the inner quantifier's
        // equality references the outer row, so the probe keys on an
        // outer-environment expression.
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    not(exists(
                        &[bind("s", "S")],
                        and([eq(col("s", "B"), col("r", "B"))]),
                    )),
                ]),
            ),
        );
        assert_rows(&join_catalog(), Conventions::sql(), &q, &[&[1], &[4]]);
    }

    #[test]
    fn shadowed_variable_names_do_not_mislead_the_probe() {
        // An inner scope rebinds `r`, shadowing the outer `r ∈ R`. The
        // probe key for `s` must NOT be computed from the outer `r` (the
        // sibling `r ∈ R2` shadows it).
        let catalog = Catalog::new()
            .with(ints("R", &["A"], &[&[1]]))
            .with(ints("R2", &["A"], &[&[2]]))
            .with(ints("S", &["B"], &[&[2]]));
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    exists(
                        &[bind("s", "S"), bind("r", "R2")],
                        and([eq(col("s", "B"), col("r", "A"))]),
                    ),
                ]),
            ),
        );
        // Inner r ∈ R2 has A=2 which matches S.B=2, so the outer row
        // survives; probing with the outer r.A=1 would wrongly drop it.
        assert_rows(&catalog, Conventions::sql(), &q, &[&[1]]);
    }

    #[test]
    fn error_paths_are_identical_across_strategies() {
        // A bad attribute reference in an equality filter surfaces only
        // when enumeration actually reaches the filter, so the planner
        // must not evaluate such an expression eagerly as a probe key.
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("s", "B"), col("r", "NOPE")),
                ]),
            ),
        );
        // Case 1: S empty — the filter is never evaluated.
        let catalog = Catalog::new()
            .with(ints("R", &["A"], &[&[1]]))
            .with(Relation::new("S", &["B"]));
        let out = Engine::new(&catalog, Conventions::sql())
            .eval_collection(&q)
            .unwrap();
        assert!(out.is_empty());
        // Case 2: S non-empty — the error surfaces.
        let catalog =
            Catalog::new()
                .with(ints("R", &["A"], &[&[1]]))
                .with(ints("S", &["B"], &[&[2]]));
        let err = Engine::new(&catalog, Conventions::sql())
            .eval_collection(&q)
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::UnknownAttribute {
                var: "r".into(),
                attr: "NOPE".into()
            }
        );
    }

    #[test]
    fn threads_typo_surfaces_as_engine_error_not_panic() {
        // A malformed ARC_THREADS fails every entry point with the one
        // configuration error, naming the variable (pure parsing is tested
        // in `knobs`; the env var itself is racy under parallel tests, so
        // the failure is injected). A `with_*` builder for the same knob
        // does not mask it.
        let msg = crate::eval::knobs::parse_threads(Some("many")).unwrap_err();
        assert!(msg.contains("ARC_THREADS"), "{msg}");
        let want = EvalError::Config(msg);
        let catalog = join_catalog();
        let mut engine = Engine::new(&catalog, Conventions::sql());
        engine.set_options(Err(want.clone()));
        let engine = engine.with_threads(2);
        assert_eq!(engine.options(), Err(want.clone()));
        let q = collection(
            "Q",
            &["A"],
            exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "A"))])),
        );
        let s = exists(&[bind("r", "R")], and([eq(col("r", "A"), int(1))]));
        let p = Program::query(q.clone());
        let errors = [
            ("eval_collection", engine.eval_collection(&q).err()),
            ("eval_sentence", engine.eval_sentence(&s).err()),
            ("eval_program", engine.eval_program(&p).err()),
            ("eval_sentence_in", engine.eval_sentence_in(&p, &s).err()),
            ("explain_collection", engine.explain_collection(&q).err()),
            ("explain_program", engine.explain_program(&p).err()),
            (
                "explain_analyze_collection",
                engine.explain_analyze_collection(&q).err(),
            ),
            (
                "explain_analyze_program",
                engine.explain_analyze_program(&p).err(),
            ),
            ("profile_collection", engine.profile_collection(&q).err()),
            ("profile_program", engine.profile_program(&p).err()),
            (
                "span_trace_collection",
                engine.span_trace_collection(&q).err(),
            ),
            ("span_trace_program", engine.span_trace_program(&p).err()),
        ];
        for (entry, err) in errors {
            assert_eq!(err.as_ref(), Some(&want), "{entry}");
        }
    }

    #[test]
    fn with_threads_overrides_and_clamps() {
        let catalog = join_catalog();
        let threads = |e: &Engine<'_>| e.options().map(|o| o.threads);
        let e = Engine::new(&catalog, Conventions::sql()).with_threads(0);
        assert_eq!(threads(&e), Ok(1));
        let e = e.with_threads(8);
        assert_eq!(threads(&e), Ok(8));
        // An absurd count is clamped, not allowed to exhaust OS threads.
        let e = e.with_threads(500_000);
        assert_eq!(threads(&e), Ok(crate::eval::knobs::MAX_THREADS));
    }
}

// ---------------------------------------------------------------------------
// The planned pipeline (arc-plan): per-operator access choice, join
// reordering, predicate pushdown — the same bag as the paper's nested
// loops, here written out by hand
// ---------------------------------------------------------------------------

mod planned_pipeline {
    use super::*;

    fn skew_catalog() -> Catalog {
        // Deliberately skewed cardinalities so the greedy ordering must
        // reorder (T ≪ S ≪ R) away from declaration order.
        let mut r = Vec::new();
        for i in 0..60i64 {
            r.push(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let mut s = Vec::new();
        for i in 0..12i64 {
            s.push(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        Catalog::new()
            .with(Relation::from_rows("R", &["A", "B"], r))
            .with(Relation::from_rows("S", &["B", "C"], s))
            .with(ints("T", &["C", "D"], &[&[3, 0], &[5, 1]]))
    }

    /// `R.A` values `< 60` with `A mod 10 = b`, each paired with `d`.
    fn r_with_b(b: i64, d: i64) -> impl Iterator<Item = [i64; 2]> {
        (0..60).filter(move |a| a % 10 == b).map(move |a| [a, d])
    }

    #[test]
    fn reordered_chain_join_is_bag_identical() {
        let q = collection(
            "Q",
            &["A", "D"],
            exists(
                &[bind("r", "R"), bind("s", "S"), bind("t", "T")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "D", col("t", "D")),
                    eq(col("r", "B"), col("s", "B")),
                    eq(col("s", "C"), col("t", "C")),
                ]),
            ),
        );
        // t(3,0) meets s(3,3) and t(5,1) meets s(5,5).
        let want: Vec<[i64; 2]> = r_with_b(3, 0).chain(r_with_b(5, 1)).collect();
        let want: Vec<&[i64]> = want.iter().map(|r| &r[..]).collect();
        for conv in [
            Conventions::sql(),
            Conventions::set(),
            Conventions::souffle(),
        ] {
            assert_rows(&skew_catalog(), conv, &q, &want);
        }
    }

    #[test]
    fn planned_joins_auto_select_hash_without_env() {
        // The plan layer's acceptance check: equi-joins probe
        // with no configuration at all. Asserted through EXPLAIN.
        let catalog = skew_catalog();
        let engine = Engine::new(&catalog, Conventions::sql());
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            ),
        );
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("hash-probe"), "{plan}");
    }

    #[test]
    fn pushdown_filters_scopes_with_selections() {
        // A selective constant filter lands on the scan step, not the
        // leaf, and the rows are the paper's.
        let catalog = skew_catalog();
        let q = collection(
            "Q",
            &["A", "C"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "C", col("s", "C")),
                    eq(col("r", "B"), col("s", "B")),
                    lt(col("r", "A"), int(7)),
                ]),
            ),
        );
        let want: &[&[i64]] = &[
            &[0, 0],
            &[0, 10],
            &[1, 1],
            &[1, 11],
            &[2, 2],
            &[3, 3],
            &[4, 4],
            &[5, 5],
            &[6, 6],
        ];
        assert_rows(&catalog, Conventions::sql(), &q, want);
        // With statistics, the selective bound is consumed by the
        // index-range access path instead of running as a filter at all.
        let mut catalog = catalog;
        catalog.analyze();
        let engine = Engine::new(&catalog, Conventions::sql());
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("index-range on [A..]"), "{plan}");
        assert!(!plan.contains("residual: r.A < 7"), "{plan}");
        // Without statistics no index range is planned: the filter line
        // must still appear nested under a step, not as a residual.
        catalog.clear_stats();
        let engine = Engine::new(&catalog, Conventions::sql());
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("filter: r.A < 7"), "{plan}");
        assert!(!plan.contains("residual: r.A < 7"), "{plan}");
    }

    #[test]
    fn correlated_grouped_and_negated_scopes_match_reference() {
        let catalog = skew_catalog();
        // Grouped aggregate over a join: six R rows per B, joined with the
        // two S rows of B ∈ {0, 1} and the one of every other B.
        let grouped = collection(
            "Q",
            &["B", "ct"],
            quant(
                &[bind("r", "R"), bind("s", "S")],
                group(&[("r", "B")]),
                None,
                and([
                    assign("Q", "B", col("r", "B")),
                    assign_agg("Q", "ct", count(col("s", "C"))),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            ),
        );
        let want: Vec<[i64; 2]> = (0..10).map(|b| [b, if b < 2 { 12 } else { 6 }]).collect();
        let want: Vec<&[i64]> = want.iter().map(|r| &r[..]).collect();
        // NOT EXISTS with a correlated probe: every R.B has an S row.
        let negated = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    not(exists(
                        &[bind("s", "S")],
                        and([eq(col("s", "B"), col("r", "B"))]),
                    )),
                ]),
            ),
        );
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_rows(&catalog, conv, &grouped, &want);
            assert_rows(&catalog, conv, &negated, &[]);
        }
    }

    #[test]
    fn planned_error_paths_match_reference() {
        // The pushdown validator must leave unresolvable filters at the
        // leaf so errors surface (or stay silent) exactly as the nested
        // loops would.
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("s", "B"), col("r", "NOPE")),
                ]),
            ),
        );
        let empty_s = Catalog::new()
            .with(ints("R", &["A"], &[&[1]]))
            .with(Relation::new("S", &["B"]));
        let out = Engine::new(&empty_s, Conventions::sql())
            .eval_collection(&q)
            .unwrap();
        assert!(out.is_empty());
        let full_s =
            Catalog::new()
                .with(ints("R", &["A"], &[&[1]]))
                .with(ints("S", &["B"], &[&[2]]));
        let err = Engine::new(&full_s, Conventions::sql())
            .eval_collection(&q)
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::UnknownAttribute {
                var: "r".into(),
                attr: "NOPE".into()
            }
        );
    }

    #[test]
    fn explain_resolves_definitions_before_catalog_like_evaluation() {
        // A program definition named `R` shadows the same-named catalog
        // relation during evaluation (`defined` is consulted first), so
        // EXPLAIN must resolve it the same way: the definition's schema
        // (attribute `X`), not the catalog's (attribute `A`).
        let def = collection(
            "R",
            &["X"],
            exists(&[bind("b", "Base")], and([assign("R", "X", col("b", "A"))])),
        );
        let mut program =
            Program::default().with_definition(arc_core::ast::Definition { collection: def });
        program.query = Some(collection(
            "Q",
            &["X"],
            exists(&[bind("r", "R")], and([assign("Q", "X", col("r", "X"))])),
        ));
        let catalog = Catalog::new()
            .with(ints("Base", &["A"], &[&[1]]))
            .with(ints("R", &["A"], &[&[9]])); // shadowed by the definition
        let engine = Engine::new(&catalog, Conventions::set());
        // Evaluation succeeds through the definition (catalog R has no X).
        let out = engine.eval_program(&program).unwrap();
        assert_eq!(sorted(out.query.as_ref().unwrap()), vec![row(&[1])]);
        // EXPLAIN must not error and must plan the query over the defined
        // relation (unknown rows → default estimate, not the catalog's 1).
        let plan = engine.explain_program(&program).unwrap();
        assert!(plan.contains("scan R as r (est=32)"), "{plan}");
    }

    #[test]
    fn explain_renders_fixpoint_for_recursive_programs() {
        let anc = collection(
            "A",
            &["s", "t"],
            or([
                exists(
                    &[bind("p", "P")],
                    and([
                        assign("A", "s", col("p", "s")),
                        assign("A", "t", col("p", "t")),
                    ]),
                ),
                exists(
                    &[bind("p", "P"), bind("a2", "A")],
                    and([
                        assign("A", "s", col("p", "s")),
                        eq(col("p", "t"), col("a2", "s")),
                        assign("A", "t", col("a2", "t")),
                    ]),
                ),
            ]),
        );
        let program =
            Program::default().with_definition(arc_core::ast::Definition { collection: anc });
        let catalog = Catalog::new().with(ints("P", &["s", "t"], &[&[1, 2], &[2, 3]]));
        let engine = Engine::new(&catalog, Conventions::set());
        let plan = engine.explain_program(&program).unwrap();
        assert!(plan.contains("fixpoint [A]"), "{plan}");
        assert!(plan.contains("union"), "{plan}");
        assert!(plan.contains("hash-probe"), "{plan}");
    }
}

#[test]
fn sentence_aggregate_under_connective_errors_like_collections() {
    // An aggregate under ∨ inside a non-grouping sentence scope must
    // report AggregateOutsideGrouping, exactly as the collection path
    // does — not silently degenerate to a non-emptiness check.
    let s = exists(
        &[bind("r", "R")],
        and([or([
            gt(sum(col("r", "A")), int(100)),
            gt(sum(col("r", "A")), int(200)),
        ])]),
    );
    let catalog = Catalog::new().with(ints("R", &["A"], &[&[1]]));
    let err = Engine::new(&catalog, Conventions::set())
        .eval_sentence(&s)
        .unwrap_err();
    assert!(
        matches!(err, EvalError::AggregateOutsideGrouping(_)),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// §2.4 — the lateral memo's footprint, read off the guard's accountant
// ---------------------------------------------------------------------------

/// `{Q(k,c) | ∃b ∈ Big, x ∈ {X(c) | ∃t ∈ T, γ∅ [t.C < b.k ∧ X.c = count(*)]}
/// [Q.k = b.k ∧ Q.c = x.c]}` over `keys` as `Big.k`: the accountant's
/// peak, and the result. Nothing but the memo charges the guard here (no
/// equi-join, relations too small for the columnar path).
fn lateral_memo_peak(keys: impl Iterator<Item = i64>) -> (usize, Relation) {
    let inner = collection(
        "X",
        &["c"],
        quant(
            &[bind("t", "T")],
            group_all(),
            None,
            and([
                lt(col("t", "C"), col("b", "k")),
                assign_agg("X", "c", count_star()),
            ]),
        ),
    );
    let q = collection(
        "Q",
        &["k", "c"],
        exists(
            &[bind("b", "Big"), bind_coll("x", inner)],
            and([
                assign("Q", "k", col("b", "k")),
                assign("Q", "c", col("x", "c")),
            ]),
        ),
    );
    let mut big = Relation::new("Big", &["k"]);
    for k in keys {
        big.push(vec![Value::Int(k)]);
    }
    let catalog = Catalog::new()
        .with(big)
        .with(ints("T", &["C"], &[&[0], &[1]]));
    let guard = std::sync::Arc::new(arc_guard::QueryGuard::new(None, None, None, None));
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let entry = crate::eval::Entry {
        opts: engine.options().unwrap(),
        guard: Some(guard.clone()),
        recorder: None,
    };
    let (defined, abstracts) = Default::default();
    let out = engine.eval_with(&q, &defined, &abstracts, &entry).unwrap();
    (guard.mem_peak(), out)
}

#[test]
fn lateral_memo_abandons_an_all_distinct_key() {
    // 32 keys over 12 000 rows: 32 entries, however long the scan.
    let (repeated, out) = lateral_memo_peak((0..12_000).map(|k| k % 32));
    assert_eq!(out.len(), 12_000);
    assert!(repeated > 0, "the memo charges what it holds");
    let per_entry = repeated / 32;
    assert_eq!(repeated, 32 * per_entry);

    // 12 000 keys over 12 000 rows: once misses outnumber hits past the
    // first 128 probes — here, at the 128th — nothing more is admitted,
    // and the rows are the per-row ones.
    let (distinct, out) = lateral_memo_peak(0..12_000);
    assert_eq!(distinct, 127 * per_entry, "127 entries, not 12 000");
    let want: Vec<Vec<Value>> = (0..12_000).map(|k| row(&[k, k.min(2)])).collect();
    assert_eq!(out.rows.to_vecs(), want);
}
