//! `arc-datalog` lowered `q = count : {…}` with `q` already bound by a
//! positive atom as if `q` were free: it computed the aggregate, rebound
//! `q` to it and dropped the equality, so every outer row passed.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_datalog::{lower_program, parse_datalog};
use arc_engine::{Catalog, Engine, Relation};
use arc_parser::parse_collection;
use arc_sql::{lower_query, parse_sql};

/// `R(a,q)` pairs every key with a claimed aggregate value; `S(a,b)` holds
/// the members. Key 5 has no members at all.
fn catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints(
            "R",
            &["a", "q"],
            &[&[1, 2], &[2, 7], &[3, 30], &[4, 9], &[5, 0], &[6, 1]],
        ))
        .with(Relation::from_ints(
            "S",
            &["a", "b"],
            &[
                &[1, 10],
                &[1, 20],
                &[2, 7],
                &[3, 10],
                &[3, 20],
                &[4, 9],
                &[4, 9],
                &[6, 4],
            ],
        ))
}

fn eval_datalog(src: &str, relation: &str) -> Relation {
    let p = lower_program(&parse_datalog(src).unwrap()).unwrap();
    let catalog = catalog();
    let mut out = Engine::new(&catalog, Conventions::souffle())
        .eval_program(&p)
        .unwrap();
    out.defined.remove(relation).unwrap()
}

const DECLS: &str = ".decl R(a: number, q: number)\n\
                     .decl S(a: number, b: number)\n\
                     .decl Free(a: number, v: number)\n\
                     .decl Bound(a: number)\n";

#[test]
fn a_bound_target_compares_for_every_aggregate_function() {
    for agg in ["count", "sum b", "mean b", "min b", "max b"] {
        let free = eval_datalog(
            &format!("{DECLS}Free(a, v) :- R(a, _), v = {agg} : {{S(a, b)}}.\n"),
            "Free",
        );
        let bound = eval_datalog(
            &format!("{DECLS}Bound(a) :- R(a, q), q = {agg} : {{S(a, b)}}.\n"),
            "Bound",
        );
        // The bound spelling keeps exactly the keys whose claimed value is
        // the aggregate the free spelling computes.
        let catalog = catalog();
        let claimed = catalog.relation("R").unwrap();
        let mut want: Vec<Vec<Value>> = free
            .rows
            .iter()
            .filter(|f| {
                claimed
                    .rows
                    .iter()
                    .any(|r| r[0] == f[0] && !f[1].is_null() && r[1] == f[1])
            })
            .map(|f| vec![f[0].clone()])
            .collect();
        want.sort_by_key(|r| Relation::row_key(r));
        assert_eq!(bound.sorted_rows(), want, "aggregate `{agg}`");
        assert!(
            bound.len() < claimed.len(),
            "aggregate `{agg}`: the equality must reject some key"
        );
        assert!(!bound.is_empty(), "aggregate `{agg}`: some key must agree");
    }
}

#[test]
fn the_three_frontends_agree_on_a_bound_count() {
    let datalog = eval_datalog(
        &format!("{DECLS}Bound(a) :- R(a, q), q = count : {{S(a, _)}}.\n"),
        "Bound",
    );
    let catalog = catalog();
    let engine = Engine::new(&catalog, Conventions::sql());
    let sql = lower_query(
        &parse_sql("select R.a from R where R.q = (select count(S.b) from S where S.a = R.a)")
            .unwrap(),
        &catalog.schema_map(),
    )
    .unwrap();
    let arc = parse_collection(
        "{Q(a) | ∃r ∈ R [Q.a = r.a ∧ ∃s ∈ S, γ ∅ [s.a = r.a ∧ r.q = count(s.b)]]}",
    )
    .unwrap();
    let want = [
        vec![Value::Int(1)],
        vec![Value::Int(5)],
        vec![Value::Int(6)],
    ];
    assert_eq!(datalog.sorted_rows(), want);
    assert_eq!(engine.eval_collection(&sql).unwrap().sorted_rows(), want);
    assert_eq!(engine.eval_collection(&arc).unwrap().sorted_rows(), want);
}
