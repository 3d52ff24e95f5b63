//! `Value::Int(i64::MIN)` prints as `-9223372036854775808`, which the ARC
//! and SQL lexers used to reject (`bad integer literal
//! 9223372036854775808`): they parsed the magnitude, which does not fit
//! an `i64`, and folded the sign afterwards. The sign is now folded
//! first and the signed literal range-checked.

use arc_core::ast::{Collection, Formula, Predicate, Scalar};
use arc_core::binder::SchemaMap;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_datalog::{lower_program, parse_datalog, render_collection as render_datalog};
use arc_parser::{parse_collection, print_collection};
use arc_sql::{arc_to_sql, sql_to_arc};

fn schemas() -> SchemaMap {
    SchemaMap::from([("R".to_string(), vec!["A".to_string()])])
}

/// `{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > v]}`.
fn above(v: i64) -> Collection {
    use arc_core::dsl::*;
    collection(
        "Q",
        &["A"],
        exists(
            &[bind("r", "R")],
            and([assign("Q", "A", col("r", "A")), gt(col("r", "A"), int(v))]),
        ),
    )
}

/// The integer constants of a collection's filters.
fn constants(c: &Collection) -> Vec<i64> {
    fn walk(f: &Formula, out: &mut Vec<i64>) {
        match f {
            Formula::Pred(Predicate::Cmp { left, right, .. }) => {
                for s in [left, right] {
                    if let Scalar::Const(Value::Int(v)) = s {
                        out.push(*v);
                    }
                }
            }
            Formula::Pred(_) => {}
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|s| walk(s, out)),
            Formula::Not(inner) => walk(inner, out),
            Formula::Quant(q) => walk(&q.body, out),
        }
    }
    let mut out = Vec::new();
    walk(&c.body, &mut out);
    out
}

#[test]
fn the_extreme_integers_survive_print_then_parse_in_every_frontend() {
    for v in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
        let q = above(v);

        let text = print_collection(&q);
        assert_eq!(parse_collection(&text).unwrap(), q, "ARC: {text}");

        let sql = arc_to_sql(&q, &Conventions::sql()).unwrap();
        let back = sql_to_arc(&sql, &schemas()).unwrap_or_else(|e| panic!("SQL: {sql}: {e}"));
        assert_eq!(constants(&back), [v], "SQL: {sql}");

        let rules = render_datalog(&q).unwrap();
        let program = format!(".decl R(A: number)\n.decl Q(A: number)\n{rules}");
        let lowered = lower_program(&parse_datalog(&program).unwrap())
            .unwrap_or_else(|e| panic!("Datalog: {program}: {e}"));
        assert_eq!(
            constants(&lowered.definitions[0].collection),
            [v],
            "Datalog: {program}"
        );
    }
}

#[test]
fn a_magnitude_out_of_range_is_still_rejected_where_it_stands() {
    // One past `i64::MAX` is in range only as the operand of a unary `-`.
    let big = "9223372036854775808";
    for text in [
        format!("{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > {big}]}}"),
        format!("{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A - {big} > 0]}}"),
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > -9223372036854775809]}".to_string(),
    ] {
        let err = parse_collection(&text).unwrap_err();
        assert!(
            err.message
                .starts_with("bad integer literal `92233720368547758"),
            "{err}"
        );
        assert_eq!(&text[err.offset..err.offset + 5], "92233", "{err}");
    }
    for text in [
        format!("select R.A from R where R.A > {big}"),
        format!("select R.A from R where R.A - {big} > 0"),
    ] {
        let err = arc_sql::parse_sql(&text).unwrap_err();
        assert_eq!(err.message, format!("bad integer `{big}`"), "{text}");
        assert_eq!(&text[err.offset..err.offset + 5], "92233", "{text}");
    }
    // Negating the most negative integer is arithmetic, not a literal.
    let q = parse_collection("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > -(-9223372036854775808)]}");
    assert!(q.is_ok(), "{q:?}");
}
