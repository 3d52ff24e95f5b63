//! `right` was no reserved word, so `FROM R RIGHT JOIN S ON …` parsed
//! `RIGHT` as `R`'s alias and ran an inner join (or failed to find `R`).
//! `right`, `natural` and `using` can no longer alias a table — `right`
//! stays an attribute name — so `RIGHT [OUTER] JOIN` now parses, as the
//! mirrored `LEFT JOIN`, and `NATURAL JOIN` / `JOIN … USING` report that
//! they are unsupported instead of joining on nothing.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_sql::{sql_to_arc, SqlError};

/// `R(A)` = {1, 2}; `S(A, right)` = {(2, 20), (3, 30)}.
fn catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints("R", &["A"], &[&[1], &[2]]))
        .with(Relation::from_ints(
            "S",
            &["A", "right"],
            &[&[2, 20], &[3, 30]],
        ))
}

fn run(sql: &str) -> Vec<Vec<Value>> {
    let catalog = catalog();
    let q = sql_to_arc(sql, &catalog.schema_map()).unwrap();
    let got = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    arc_tests::assert_oracle(&catalog, Conventions::sql(), &q, &got);
    got.sorted_rows()
}

/// Every `S` row survives; `S`'s `(3, 30)` finds no `R` and is padded.
fn preserved_s() -> Vec<Vec<Value>> {
    vec![
        vec![Value::Null, Value::Int(30)],
        vec![Value::Int(2), Value::Int(20)],
    ]
}

#[test]
fn right_join_preserves_its_right_operand() {
    assert_eq!(
        run("select R.A, S.right from R right join S on R.A = S.A"),
        preserved_s()
    );
}

#[test]
fn right_outer_join_preserves_its_right_operand() {
    assert_eq!(
        run("select R.A, S.right from R RIGHT OUTER JOIN S on R.A = S.A"),
        preserved_s()
    );
}

#[test]
fn right_join_after_an_alias_preserves_its_right_operand() {
    assert_eq!(
        run("select r.A, s.right from R r right join S s on r.A = s.A"),
        preserved_s()
    );
}

fn parse_error(sql: &str) -> String {
    match sql_to_arc(sql, &catalog().schema_map()) {
        Err(SqlError::Parse(e)) => e.to_string(),
        other => panic!("{sql}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn natural_join_is_reported_not_run_as_a_cross_join() {
    let err = parse_error("select R.A from R natural join S");
    assert!(err.contains("NATURAL JOIN is not supported"), "{err}");
}

#[test]
fn join_using_is_reported() {
    let err = parse_error("select R.A from R join S using (A)");
    assert!(err.contains("USING is not supported"), "{err}");
}
