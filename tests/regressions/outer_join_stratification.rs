//! `uses_nonmonotonically` looked only at negation and grouping, never at
//! a scope's join annotation, so a recursive member on the
//! **null-supplying** side of an outer join — `left`'s second child, either
//! child of `full` — was accepted. Such a rule is not monotone: a new row
//! on the padded side can *remove* a result, the `NULL`-padded row it now
//! matches, exactly like a new row under `¬`; semi-naive evaluation then
//! disagreed with naive (17 of 24 random graphs). It is now the
//! not-stratifiable error. The preserved side stays legal.
//!
//! Neither other frontend can build the shape: SQL lowers one query, never
//! a recursive definition, and the Datalog lowering emits no join
//! annotation at all.

use arc_core::ast::{Formula, Program};
use arc_core::conventions::Conventions;
use arc_engine::{Catalog, Engine, EvalError, Relation};
use arc_parser::parse_program;

fn chain() -> Catalog {
    Catalog::new().with(Relation::from_ints(
        "P",
        &["s", "t"],
        &[&[1, 2], &[2, 3], &[3, 4], &[4, 1]],
    ))
}

/// Transitive closure whose recursive step joins `A` into `P` through
/// the annotation `tree`.
fn closure_through(tree: &str) -> Program {
    parse_program(&format!(
        "{{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
         ∃p ∈ P, a ∈ A, {tree} [p.t = a.s ∧ A.s = p.s ∧ A.t = a.t]}};"
    ))
    .unwrap()
}

/// The engine refuses the program before computing anything.
fn assert_not_stratifiable(tree: &str) {
    let catalog = chain();
    let got = Engine::new(&catalog, Conventions::set()).eval_program(&closure_through(tree));
    assert_eq!(
        got.map(|_| ()),
        Err(EvalError::NotStratifiable {
            relation: "A".into()
        }),
        "{tree}"
    );
}

#[test]
fn a_recursive_member_as_the_right_child_of_left_is_not_stratifiable() {
    assert_not_stratifiable("left(p, a)");
}

#[test]
fn a_recursive_member_as_the_left_child_of_full_is_not_stratifiable() {
    assert_not_stratifiable("full(a, p)");
}

#[test]
fn a_recursive_member_as_the_right_child_of_full_is_not_stratifiable() {
    assert_not_stratifiable("full(p, a)");
}

#[test]
fn the_preserved_side_stays_legal() {
    let catalog = chain();
    let p = closure_through("left(a, p)");
    let out = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    let want = arc_tests::oracle_program(&catalog, Conventions::set(), &p);
    assert!(out.defined["A"].set_eq(&want.defined["A"]));
    assert_eq!(out.defined["A"].len(), 16);
}

#[test]
fn datalog_lowers_recursion_without_join_annotations() {
    fn annotated(f: &Formula) -> bool {
        match f {
            Formula::Quant(q) => q.join.is_some() || annotated(&q.body),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(annotated),
            Formula::Not(g) => annotated(g),
            Formula::Pred(_) => false,
        }
    }
    let program = arc_datalog::lower_program(
        &arc_datalog::parse_datalog(
            ".decl P(s: number, t: number)\n.decl A(s: number, t: number)\n\
             A(x, y) :- P(x, y).\nA(x, y) :- P(x, z), A(z, y), !P(y, x).\n",
        )
        .unwrap(),
    )
    .unwrap();
    assert!(!program
        .definitions
        .iter()
        .any(|d| annotated(&d.collection.body)));
}
