//! `Engine::materialize_definitions` walked the definition dependency
//! components in *reverse* of the order Tarjan emits them — dependents
//! before what they read — so a non-recursive definition that read
//! another definition failed with `unknown relation` unless it was the
//! program's query. Every Datalog program with an auxiliary IDB relation
//! was affected.

use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_datalog::{lower_program, parse_datalog};
use arc_engine::{Catalog, Engine, Relation};
use arc_parser::parse_program;

/// `P(s,t)`: the chain 1 → 2 → 3 → 4.
fn chain() -> Catalog {
    Catalog::new().with(Relation::from_ints(
        "P",
        &["s", "t"],
        &[&[1, 2], &[2, 3], &[3, 4]],
    ))
}

fn ints(rel: &Relation) -> Vec<Vec<i64>> {
    rel.sorted_rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("expected an integer, got {other}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn three_deep_non_recursive_chain() {
    // Declared dependents-first and dependencies-first: textual order must
    // not matter either way.
    let d1 = "{D1(s,t) | ∃p ∈ P [D1.s = p.s ∧ D1.t = p.t]}";
    let d2 = "{D2(s) | ∃d ∈ D1 [D2.s = d.t]}";
    let d3 = "{D3(s) | ∃d ∈ D2 [D3.s = d.s ∧ d.s > 2]}";
    for order in [[d1, d2, d3], [d3, d2, d1], [d2, d3, d1]] {
        let p = parse_program(&format!("{};", order.join(";\n"))).unwrap();
        let catalog = chain();
        let out = Engine::new(&catalog, Conventions::sql())
            .eval_program(&p)
            .unwrap();
        assert_eq!(ints(&out.defined["D2"]), [[2], [3], [4]]);
        assert_eq!(ints(&out.defined["D3"]), [[3], [4]]);
    }
}

#[test]
fn non_recursive_chain_feeds_a_recursive_component() {
    let p = parse_program(
        "{E(s,t) | ∃p ∈ P [E.s = p.s ∧ E.t = p.t ∧ p.s > 1]};\n\
         {F(s,t) | ∃e ∈ E [F.s = e.s ∧ F.t = e.t]};\n\
         {A(s,t) | ∃f ∈ F [A.s = f.s ∧ A.t = f.t] ∨ \
                   ∃f ∈ F, a ∈ A [A.s = f.s ∧ f.t = a.s ∧ A.t = a.t]};",
    )
    .unwrap();
    let catalog = chain();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(ints(&out.defined["A"]), [[2, 3], [2, 4], [3, 4]]);
}

#[test]
fn recursive_component_feeds_a_non_recursive_definition() {
    let p = parse_program(
        "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
                   ∃p ∈ P, a ∈ A [A.s = p.s ∧ p.t = a.s ∧ A.t = a.t]};\n\
         {Ends(s) | ∃a ∈ A [Ends.s = a.s ∧ a.t = 4]};\n\
         {Q(s) | ∃e ∈ Ends [Q.s = e.s ∧ e.s > 1]}",
    )
    .unwrap();
    let catalog = chain();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(ints(&out.defined["Ends"]), [[1], [2], [3]]);
    assert_eq!(ints(out.query.as_ref().unwrap()), [[2], [3]]);
}

#[test]
fn datalog_program_with_auxiliary_idb_relations() {
    let p = lower_program(
        &parse_datalog(
            ".decl P(s: number, t: number)\n\
             .decl Hop(s: number, t: number)\n\
             .decl Anc(s: number, t: number)\n\
             .decl Far(s: number)\n\
             Far(s) :- Anc(s, t), t > 3, !Hop(s, t).\n\
             Anc(s, t) :- Hop(s, t).\n\
             Anc(s, t) :- Hop(s, m), Anc(m, t).\n\
             Hop(s, t) :- P(s, t).\n",
        )
        .unwrap(),
    )
    .unwrap();
    let catalog = chain();
    let out = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(ints(&out.defined["Hop"]), [[1, 2], [2, 3], [3, 4]]);
    assert_eq!(ints(&out.defined["Anc"]).len(), 6);
    // 1 and 2 reach 4, but not in one hop.
    assert_eq!(ints(&out.defined["Far"]), [[1], [2]]);
}
