//! Recursion may pass through an abstract definition (§2.13.2): `A` reads
//! the abstract `N`, whose body reads `A`, so `A` is one recursive
//! component although no rule of `A` names `A`. Two checks missed the
//! reads inside the abstract body:
//!
//! * the semi-naive driver made delta variants only for the bindings of
//!   the rule itself, so a rule whose recursive read sits in `N`'s body had
//!   none, and the fixpoint stopped after its seed;
//! * the stratification check did not look into `N` either, so a
//!   recursive read under `¬` inside `N` was accepted.
//!
//! The oracle refuses abstract definitions, so the rows are written out by
//! hand.
//!
//! A rule that reaches one binding twice through an abstract body cannot
//! be redirected to a delta and runs whole every round. That fallback is
//! per rule: the member's other rules keep their delta variants.

use arc_core::ast::Formula;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, EvalError, Relation};
use arc_parser::parse_program;
use arc_trace::OpId;

fn catalog(edges: &[&[i64]]) -> Catalog {
    Catalog::new().with(Relation::from_ints("P", &["s", "t"], edges))
}

/// `A` seeded with `P`'s edges out of 1; an edge `p` joins `A` when the
/// abstract `N` (given by `n_body`) holds for `p.t`.
fn through_abstract(n_body: &str) -> String {
    format!(
        "{{N(x) | {n_body}}};\n\
         {{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s = 1] ∨ \
         ∃p ∈ P, n ∈ N [n.x = p.t ∧ A.s = p.s ∧ A.t = p.t]}};"
    )
}

fn pairs(rel: &Relation) -> Vec<(i64, i64)> {
    rel.sorted_rows()
        .iter()
        .map(|row| match row[..] {
            [Value::Int(s), Value::Int(t)] => (s, t),
            _ => panic!("expected an integer pair, got {row:?}"),
        })
        .collect()
}

/// `A` under the default engine and under four threads: the same rows,
/// none twice.
fn assert_derives(catalog: &Catalog, text: &str, want: &[(i64, i64)]) {
    let p = parse_program(text).unwrap();
    for engine in [
        Engine::new(catalog, Conventions::set()),
        Engine::new(catalog, Conventions::set()).with_threads(4),
    ] {
        let a = &engine.eval_program(&p).unwrap().defined["A"];
        assert_eq!(pairs(a), want, "{text}");
        assert_eq!(a.len(), want.len(), "a row derived twice: {text}");
    }
}

/// On the chain 1 → 2 → 3 → 4 → 5, `(1,2)` is the seed; `N(3)` then
/// holds (`2 < 3`) and admits `(2,3)`, and so on: every edge.
#[test]
fn semi_naive_follows_a_recursive_read_inside_an_abstract_body() {
    let chain = catalog(&[&[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
    assert_derives(
        &chain,
        &through_abstract("∃a ∈ A [a.t < N.x]"),
        &[(1, 2), (2, 3), (3, 4), (4, 5)],
    );
    // `N(x)` holds when `x - 1` is a target of `A`, read twice: for `p.t`
    // and for `p.s`. `(3,3)` needs the seed's target 2 in both reads;
    // `(3,4)` needs 3, new in the round before, in one read and the old 2
    // in the other. The two reads share one abstract body, so redirecting
    // the body's read of `A` to the delta would send both reads to it at
    // once and miss `(3,4)`.
    assert_derives(
        &catalog(&[&[1, 2], &[3, 3], &[3, 4]]),
        "{N(x) | ∃a ∈ A [a.t < N.x ∧ N.x < a.t + 2]};\n\
         {A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s = 1] ∨ \
         ∃p ∈ P, m ∈ N, n ∈ N [m.x = p.t ∧ n.x = p.s ∧ A.s = p.s ∧ A.t = p.t]};",
        &[(1, 2), (3, 3), (3, 4)],
    );
}

/// `A` has three rules: a seed, a linear rule extending a path by an edge
/// of `P`, and the rule of the test above that reads `N` twice. On
/// `P` = {(1,2), (3,3), (3,4), (4,5), (5,6)} the third rule admits
/// `(3,3)` (`N(3)`: 2 is a target), then the linear rule and the third
/// one take turns: `(3,4)`; `(3,5)` and `(4,5)`; `(3,6)`, `(4,6)` and
/// `(5,6)`.
///
/// Only the third rule runs unredirected. The linear rule reads `A`
/// through its delta, so over all rounds it reads each row of `A` once and
/// emits one row per edge of `P` leaving that row's target — where reading
/// the whole of `A` every round would emit each of those again in every
/// later round.
#[test]
fn a_rule_reaching_a_binding_twice_falls_back_alone() {
    let catalog = catalog(&[&[1, 2], &[3, 3], &[3, 4], &[4, 5], &[5, 6]]);
    let text = "{N(x) | ∃a ∈ A [a.t < N.x ∧ N.x < a.t + 2]};\n\
         {A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s = 1] ∨ \
         ∃a ∈ A, p ∈ P [a.t = p.s ∧ A.s = a.s ∧ A.t = p.t] ∨ \
         ∃p ∈ P, m ∈ N, n ∈ N [m.x = p.t ∧ n.x = p.s ∧ A.s = p.s ∧ A.t = p.t]};";
    let want = [
        (1, 2),
        (3, 3),
        (3, 4),
        (3, 5),
        (3, 6),
        (4, 5),
        (4, 6),
        (5, 6),
    ];
    assert_derives(&catalog, text, &want);

    let p = parse_program(text).unwrap();
    let Formula::Or(rules) = &p.definitions[1].collection.body else {
        panic!("`A` has three rules")
    };
    let Formula::Quant(linear) = &rules[1] else {
        panic!("the linear rule is a scope")
    };
    let (_, profile) = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .profile_program(&p)
        .unwrap();
    let emitted = profile
        .op(OpId::scope(linear.bindings.as_ptr() as usize))
        .map(|op| op.rows_out);
    let leaving = |(_, t): &(i64, i64)| [1, 3, 3, 4, 5].iter().filter(|&&s| s == *t).count();
    let once = want.iter().map(leaving).sum::<usize>() as u64;
    assert_eq!(emitted, Some(once), "{profile:?}");
}

/// A row of `A` can remove a row of `N`, which a row of `A` needed: not
/// monotone, refused before anything is computed.
#[test]
fn a_recursive_read_under_negation_inside_an_abstract_body_is_not_stratifiable() {
    let chain = catalog(&[&[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
    let p = parse_program(&through_abstract("¬∃a ∈ A [a.s = N.x]")).unwrap();
    let got = Engine::new(&chain, Conventions::set()).eval_program(&p);
    assert_eq!(
        got.map(|_| ()),
        Err(EvalError::NotStratifiable {
            relation: "A".into()
        })
    );
}
