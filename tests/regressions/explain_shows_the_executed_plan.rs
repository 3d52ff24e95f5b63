//! `EXPLAIN` used to re-plan every query through a copy of the engine's
//! decisions — its own name resolver, a catalog-statistics estimator and
//! its own definition-dependency walk — and the copies disagreed with what
//! ran. A program whose query read a definition `D` over `S` and a
//! relation `T` printed `1: scan T as t act=12 (est=14) calls=1` although
//! `T` has 14 rows: the engine had scanned the materialized `D` (12 rows)
//! and probed `T`, and `EXPLAIN ANALYZE` joined those actuals onto the
//! plan it had guessed (`D` of unknown size, so `T` first). And a plain
//! `EXPLAIN` of Eq 24 printed the abstract `Subset` as a materialized
//! definition the engine never evaluates.

use arc_core::ast::{Definition, Program};
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_parser::parse_collection;
use arc_tests::fixtures as fx;

/// Case (a): every unfiltered `scan X` line of `EXPLAIN ANALYZE` reads
/// `act = calls × |X|` — the step scans what it says it scans.
#[test]
fn explain_analyze_program_scans_what_ran() {
    let column = |n: i64| (0..n).map(|i| vec![Value::Int(i)]).collect();
    let pairs = (0..12)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    let s = Relation::from_rows("S", &["A", "B"], pairs);
    let t = Relation::from_rows("T", &["B"], column(14));
    let catalog = Catalog::new().with(s).with(t);
    let mut p = Program::default().with_definition(Definition {
        collection: parse_collection("{D(B) | ∃s ∈ S [D.B = s.B]}").unwrap(),
    });
    p.query = Some(parse_collection("{Q(B) | ∃d ∈ D, t ∈ T [Q.B = d.B ∧ d.B = t.B]}").unwrap());
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let out = engine.eval_program(&p).unwrap();
    let rows = |name: &str| match out.defined.get(name) {
        Some(rel) => rel.len(),
        None => catalog.relation(name).unwrap().len(),
    };
    let text = engine.explain_analyze_program(&p).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut checked = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some((_, step)) = line.split_once(": scan ") else {
            continue;
        };
        if lines
            .get(i + 1)
            .is_some_and(|next| next.trim_start().starts_with("filter:"))
        {
            continue;
        }
        let relation = step.split(' ').next().unwrap();
        let number = |key: &str| -> usize {
            let at = step
                .find(key)
                .unwrap_or_else(|| panic!("no `{key}` in {line}"));
            let mut digits = step[at + key.len()..].split(|c: char| !c.is_ascii_digit());
            digits.next().unwrap().parse().unwrap()
        };
        let (act, calls) = (number(" act="), number(" calls="));
        assert_eq!(act, calls * rows(relation), "{line}\n{text}");
        checked += 1;
    }
    assert_eq!(
        checked, 2,
        "one scan for `D`'s body, one for the query:\n{text}"
    );
    assert!(text.contains("scan D as d"), "the query scans D:\n{text}");
}

/// Case (b): the abstract `Subset` of Eq 24 is checked in context, never
/// materialized, so `EXPLAIN` shows no definition plan for it.
#[test]
fn explain_program_shows_no_plan_for_an_abstract_definition() {
    let catalog = fx::likes_paper_catalog();
    let text = Engine::new(&catalog, Conventions::set())
        .explain_program(&fx::eq24_program())
        .unwrap();
    assert!(!text.contains("project Subset("), "{text}");
    assert!(text.contains("abstract-check Subset as s1"), "{text}");
}

/// A predicate-only body is a scope with no bindings; its operator id is
/// its body's address on both sides of `EXPLAIN ANALYZE`, so the scope
/// line carries the actuals the engine recorded for it.
#[test]
fn a_scope_without_bindings_shows_its_actuals() {
    let catalog = Catalog::new();
    let text = Engine::new(&catalog, Conventions::sql())
        .explain_analyze_collection(&parse_collection("{Q(A) | Q.A = 7}").unwrap())
        .unwrap();
    assert!(text.contains("scope act=1 calls=1"), "{text}");
}
