//! The slot-compiled scope seam: names resolve once per scope to
//! `(frame, column)` slots, frames borrow rows, groups fold in one pass.
//! These tests pin what that must not change — lexical scoping, error
//! texts and *when* an error is raised, aggregate results bit for bit —
//! across the default engine, the parallel executor and a budget-starved
//! engine (every build denied, so boolean scopes run nested), and against
//! the oracle; and what a lateral step's memo must deliver: one evaluation
//! per distinct value of the outer attributes it reads, with the rows,
//! the errors and their timing of per-row evaluation.

use arc_analysis::oracle::{self, OracleError};
use arc_core::ast::{BindingSource, Collection, Formula, Program};
use arc_core::conventions::{Conventions, EmptyAgg};
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, EvalError, Relation};
use arc_tests::fixtures as fx;
use arc_trace::OpId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The engines every case must agree under.
fn engines<'c>(catalog: &'c Catalog, conv: Conventions) -> Vec<(&'static str, Engine<'c>)> {
    vec![
        ("default", Engine::new(catalog, conv)),
        ("threads(4)", Engine::new(catalog, conv).with_threads(4)),
        ("starved", Engine::new(catalog, conv).with_mem_budget(1)),
    ]
}

/// Evaluate under every engine; all must produce `want` (as a bag), and
/// so must the oracle.
fn assert_rows(catalog: &Catalog, conv: Conventions, q: &Collection, want: &[&[Value]]) {
    let mut want: Vec<Vec<Value>> = want.iter().map(|r| r.to_vec()).collect();
    want.sort_by_key(|r| Relation::row_key(r));
    assert_eq!(
        arc_tests::oracle_rows(catalog, conv, q).sorted_rows(),
        want,
        "oracle"
    );
    for (name, engine) in engines(catalog, conv) {
        let got = engine
            .eval_collection(q)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got.sorted_rows(), want, "{name}");
    }
}

/// Evaluate under every engine; all must agree with the default one —
/// and so must the oracle, unless the query reaches past its core (an
/// external relation).
fn assert_engines_agree(catalog: &Catalog, conv: Conventions, q: &Collection) -> Relation {
    let reference = Engine::new(catalog, conv).eval_collection(q).unwrap();
    match oracle::eval_collection(catalog, conv, q) {
        Ok(want) => assert!(
            arc_tests::agrees(conv, &reference, &want),
            "oracle:\n{want}"
        ),
        Err(OracleError::Unsupported(_)) => {}
        Err(e) => panic!("oracle: {e:?}"),
    }
    for (name, engine) in engines(catalog, conv) {
        let got = engine
            .eval_collection(q)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got.sorted_rows(), reference.sorted_rows(), "{name}");
    }
    reference
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

/// `R(A,B)`, `S(A,B)`, `T(C)`, `U(D)` and an empty `E(A,B)`; `R` is big
/// enough (≥ 16 rows) for the parallel executor to partition its scan.
fn catalog() -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for k in 0..24i64 {
        r.push(vec![i(k), i(k % 4)]);
    }
    Catalog::new()
        .with(r)
        .with(Relation::from_ints(
            "S",
            &["A", "B"],
            &[&[2, 0], &[3, 1], &[5, 1], &[40, 2]],
        ))
        .with(Relation::from_ints("T", &["C"], &[&[0], &[1]]))
        .with(Relation::from_ints("U", &["D"], &[&[1], &[3]]))
        .with(Relation::new("E", &["A", "B"]))
}

// ---------------------------------------------------------------- scoping

#[test]
fn an_inner_binding_shadows_an_outer_one_of_the_same_name() {
    let catalog = catalog();
    // The inner `r` ranges over S: `r.A = 40` holds for one S row whatever
    // the outer `r` is, so every R row qualifies. Resolving the inner
    // reference to the outer frame would keep no row (R has no A = 40).
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A < 3 ∧ ∃r ∈ S [r.A = 40]]}");
    assert_rows(
        &catalog,
        Conventions::sql(),
        &q,
        &[&[i(0)], &[i(1)], &[i(2)]],
    );
    // After the inner scope closes the outer binding is visible again.
    let q = fx::q("{Q(A) | ∃r ∈ R [∃r ∈ S [r.A = 40] ∧ Q.A = r.A ∧ r.A < 2]}");
    assert_rows(&catalog, Conventions::sql(), &q, &[&[i(0)], &[i(1)]]);
}

#[test]
fn a_reference_reaches_three_scopes_up() {
    let catalog = catalog();
    // u.D = r.B crosses the s- and t-scopes; s.B = t.C and s.A = r.A keep
    // every intermediate frame live.
    let q = fx::q(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.A = r.A ∧ \
           ∃t ∈ T [t.C = s.B ∧ ∃u ∈ U [u.D = r.B ∧ u.D > t.C - 1]]]]}",
    );
    // r ∈ {2 (B=2), 3 (B=3), 5 (B=1)}; U = {1, 3}: 3 and 5 survive.
    assert_rows(&catalog, Conventions::sql(), &q, &[&[i(3)], &[i(5)]]);
}

#[test]
fn one_scope_text_at_two_nesting_depths_resolves_per_depth() {
    // `¬∃x ∈ S [x.A <> r.A ∧ x.B = r.B]` occurs twice, word for word: once
    // with `r` at the bottom of the frame stack, once with `t` below it.
    // The global plan cache shares one plan between the two occurrences
    // (same program, same scope fingerprint, same availability
    // signature); the slots of `r.A` / `r.B` must not be shared.
    let anti = "¬(∃x ∈ S [x.A <> r.A ∧ x.B = r.B])";
    let q = fx::q(&format!(
        "{{Q(A,C) | ∃r ∈ R [Q.A = r.A ∧ Q.C = 9 ∧ r.A < 4 ∧ {anti}] ∨ \
                   ∃t ∈ T [Q.C = t.C ∧ ∃r ∈ R [Q.A = r.A ∧ r.A < 4 ∧ {anti}]]}}"
    ));
    // S rows by B: 0 → {2}, 1 → {3, 5}, 2 → {40}. An R row (A, B = A mod 4)
    // with A < 4 survives when no S row with its B has another A:
    // A=0 (B=0): S has 2 → out; A=1 (B=1): out; A=2 (B=2): 40 → out;
    // A=3 (B=3): nothing in S → in.
    let catalog = catalog();
    let want: [&[Value]; 3] = [&[i(3), i(9)], &[i(3), i(0)], &[i(3), i(1)]];
    for _warm in 0..2 {
        // Twice: the second evaluation is served by the global plan cache.
        assert_rows(&catalog, Conventions::sql(), &q, &want);
    }
    // The decorrelatable variant (pure equi-join correlation) as well.
    let semi = "∃x ∈ S [x.A = r.A]";
    let q = fx::q(&format!(
        "{{Q(A,C) | ∃r ∈ R [Q.A = r.A ∧ Q.C = 9 ∧ {semi}] ∨ \
                   ∃t ∈ T [Q.C = t.C ∧ t.C > 0 ∧ ∃r ∈ R [Q.A = r.A ∧ {semi}]]}}"
    ));
    let want: [&[Value]; 6] = [
        &[i(2), i(9)],
        &[i(3), i(9)],
        &[i(5), i(9)],
        &[i(2), i(1)],
        &[i(3), i(1)],
        &[i(5), i(1)],
    ];
    assert_rows(&catalog, Conventions::sql(), &q, &want);
}

#[test]
fn duplicate_head_assignments_must_agree() {
    let mut r = Relation::new("R", &["A"]);
    let mut s = Relation::new("S", &["A"]);
    for v in [i(1), i(2), Value::Null, Value::Float(4.0)] {
        r.push(vec![v]);
    }
    for v in [Value::Float(1.0), i(3), Value::Null, i(4)] {
        s.push(vec![v]);
    }
    let catalog = Catalog::new().with(r).with(s);
    // Two assignments to Q.A both hold only when they produce the same
    // key: 1 = 1.0, NULL = NULL (structurally), 4.0 = 4 — and the first
    // assignment's value is the one emitted.
    // Across the emission spine too: the outer scope assigns, the inner
    // one must agree.
    for text in [
        "{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ Q.A = s.A]}",
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [Q.A = s.A]]}",
    ] {
        let q = fx::q(text);
        for (name, engine) in engines(&catalog, Conventions::sql()) {
            let got = engine.eval_collection(&q).unwrap();
            let shown: Vec<String> = got
                .sorted_rows()
                .iter()
                .map(|r| format!("{:?}", r[0]))
                .collect();
            assert_eq!(shown, ["Null", "Int(1)", "Float(4.0)"], "{name}: {text}");
        }
    }
}

#[test]
fn synthesized_frames_behave_like_borrowed_ones() {
    // Lateral (Eq 2): the nested collection's rows are owned frames.
    let lateral = fx::q(
        "{Q(A,B) | ∃x ∈ R, z ∈ {Z(B) | ∃y ∈ S [Z.B = y.A ∧ x.A < y.A ∧ y.A < 10]} \
           [Q.A = x.A ∧ Q.B = z.B ∧ x.A > 1 ∧ x.A < 5]}",
    );
    let want: [&[Value]; 4] = [&[i(2), i(3)], &[i(2), i(5)], &[i(3), i(5)], &[i(4), i(5)]];
    assert_rows(&catalog(), Conventions::sql(), &lateral, &want);

    // External (Eq 20, Fig 15d) and two chained externals (Eq 21).
    let externals = fx::fig15_catalog();
    let a = assert_engines_agree(&externals, Conventions::sql(), &fx::eq20());
    let b = assert_engines_agree(&externals, Conventions::sql(), &fx::eq21());
    let inline = assert_engines_agree(&externals, Conventions::sql(), &fx::eq19());
    assert!(!a.is_empty());
    assert_eq!(a.sorted_rows(), inline.sorted_rows());
    assert_eq!(b.sorted_rows(), inline.sorted_rows());

    // Outer join with a literal leaf (Eq 18, Fig 12): NULL-padded frames.
    let outer = assert_engines_agree(&fx::fig12_catalog(), Conventions::sql(), &fx::eq18());
    assert!(outer.rows.iter().any(|r| r[1].is_null()));
    assert!(outer.rows.iter().any(|r| !r[1].is_null()));
}

#[test]
fn an_abstract_definition_checks_in_context_from_two_call_sites() {
    // Eq 24: `Subset` is abstract — its body runs under the frames of
    // whichever binding checks it (two per outer row here), and must
    // agree with the first-order spelling (Eq 22).
    let catalog = fx::likes_paper_catalog();
    let program: Program = fx::eq24_program();
    let direct = Engine::new(&catalog, Conventions::set())
        .eval_collection(&fx::eq22())
        .unwrap();
    assert!(!direct.is_empty());
    for (name, engine) in engines(&catalog, Conventions::set()) {
        let out = engine
            .eval_program(&program)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            out.query.unwrap().sorted_rows(),
            direct.sorted_rows(),
            "{name}"
        );
    }
}

// ----------------------------------------------------------------- errors

/// Every engine must fail with exactly this message.
fn assert_error(q: &str, want: &str) {
    let catalog = catalog();
    let q = fx::q(q);
    for (name, engine) in engines(&catalog, Conventions::sql()) {
        match engine.eval_collection(&q) {
            Err(e) => assert_eq!(e.to_string(), want, "{name}"),
            Ok(rows) => panic!("{name}: expected `{want}`, got {} rows", rows.len()),
        }
    }
}

/// Every engine must succeed with no rows.
fn assert_silent(q: &str) {
    assert_rows(&catalog(), Conventions::sql(), &fx::q(q), &[]);
}

#[test]
fn name_errors_keep_their_text() {
    assert_error("{Q(A) | ∃r ∈ R [Q.A = z.A]}", "unbound variable `z`");
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ z.B > 1]}",
        "unbound variable `z`",
    );
    assert_error("{Q(A) | ∃r ∈ R [Q.A = r.Z]}", "`r` has no attribute `Z`");
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.A = r.Nope]]}",
        "`r` has no attribute `Nope`",
    );
    // The innermost binding of a name decides, even when an outer one has
    // the attribute.
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃r ∈ T [r.B = 1]]}",
        "`r` has no attribute `B`",
    );
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ Q.Z = r.B]}",
        "`Q` has no attribute `Z`",
    );
    assert_error(
        "{Q(A,n) | ∃r ∈ R, γ r.B [Q.A = r.B ∧ Q.n = sum(r.Nope)]}",
        "`r` has no attribute `Nope`",
    );
    assert_error(
        "{Q(A,n) | ∃r ∈ R, γ r.Nope [Q.A = r.B ∧ Q.n = count(*)]}",
        "`r` has no attribute `Nope`",
    );
}

#[test]
fn assignment_and_aggregate_errors_keep_their_text() {
    assert_error(
        "{Q(A,B) | ∃r ∈ R [Q.A = r.A]}",
        "head attribute `Q.B` not assigned on an emitted row",
    );
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = sum(r.A)]}",
        "aggregate outside grouping scope in `Q.A`",
    );
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ count(*) > 1]}",
        "aggregate outside grouping scope in `count(*) > 1`",
    );
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [sum(s.A) > r.A]]}",
        "aggregate outside grouping scope in `sum(s.A) > r.A`",
    );
    assert_error(
        "{Q(A) | ∃r ∈ R [Q.A = r.A ∧ (count(*) > 1 ∨ r.A = 2)]}",
        "aggregate outside grouping scope in `aggregate under a connective`",
    );
    assert_error(
        "{Q(n) | ∃r ∈ R, γ ∅ [Q.n = sum(count(*))]}",
        "aggregate outside grouping scope in `count(*)`",
    );
}

#[test]
fn a_bad_name_is_silent_until_something_evaluates_it() {
    // Under an empty scan nothing evaluates the body.
    assert_silent("{Q(A) | ∃e ∈ E [Q.A = z.A]}");
    assert_silent("{Q(A) | ∃e ∈ E [Q.A = e.A ∧ e.Nope = 1]}");
    assert_silent("{Q(A) | ∃e ∈ E, r ∈ R [Q.A = r.A ∧ r.Nope = e.A]}");
    assert_silent("{Q(A) | ∃e ∈ E [Q.A = e.A ∧ Q.Z = 1]}");
    assert_silent("{Q(A,B) | ∃e ∈ E [Q.A = e.A]}");
    assert_silent("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > 100 ∧ ∃s ∈ S [s.Nope = r.A]]}");
    // A filter that rejects every row before the bad one runs.
    assert_silent("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > 100 ∧ r.Nope = 1]}");
    // Keyed grouping over no members: no group, so nothing evaluates.
    assert_silent("{Q(A,n) | ∃e ∈ E, γ e.A [Q.A = e.A ∧ Q.n = sum(e.Nope)]}");
    // A group whose test fails never assembles its head: the aggregate
    // over a bad name is not asked for.
    assert_silent("{Q(n) | ∃r ∈ R, γ ∅ [count(*) > 100 ∧ Q.n = sum(r.Nope)]}");
    // … and is, once the test passes.
    assert_error(
        "{Q(n) | ∃r ∈ R, γ ∅ [count(*) > 1 ∧ Q.n = sum(r.Nope)]}",
        "`r` has no attribute `Nope`",
    );
    // γ∅ over an empty join has its one group but no member: aggregates
    // take their empty values without touching their arguments …
    let catalog = catalog();
    let q = fx::q("{Q(n,m) | ∃e ∈ E, γ ∅ [Q.n = count(e.Nope) ∧ Q.m = sum(e.A)]}");
    assert_rows(&catalog, Conventions::sql(), &q, &[&[i(0), Value::Null]]);
    let zero = Conventions::sql().with_empty_agg(EmptyAgg::Zero);
    assert_rows(&catalog, zero, &q, &[&[i(0), i(0)]]);
    // … while a plain attribute has no row to read.
    assert_error(
        "{Q(A,n) | ∃e ∈ E, γ ∅ [Q.A = e.A ∧ Q.n = count(*)]}",
        "unbound variable `e`",
    );
}

#[test]
fn an_unknown_relation_is_reported_before_any_row() {
    let catalog = catalog();
    for (name, engine) in engines(&catalog, Conventions::sql()) {
        let err = engine
            .eval_collection(&fx::q("{Q(A) | ∃e ∈ E, x ∈ Nowhere [Q.A = x.A]}"))
            .unwrap_err();
        assert_eq!(err, EvalError::UnknownRelation("Nowhere".into()), "{name}");
    }
}

// ----------------------------------------------------------- lateral memo

/// The inner scope of the lateral bound by binding `n` of `q`'s outer
/// scope: its profile id is its binding slice's address.
fn lateral_scope_id(q: &Collection, n: usize) -> usize {
    let Formula::Quant(outer) = &q.body else {
        panic!("expected a quantifier scope")
    };
    let BindingSource::Collection(c) = &outer.bindings[n].source else {
        panic!("binding {n} is not a nested collection")
    };
    let Formula::Quant(inner) = &c.body else {
        panic!("expected a quantifier scope inside the lateral")
    };
    inner.bindings.as_ptr() as usize
}

/// How often the engine entered the lateral's inner scope.
fn lateral_calls(engine: &Engine<'_>, q: &Collection, n: usize) -> u64 {
    let (_, profile) = engine.profile_collection(q).unwrap();
    profile
        .op(OpId::scope(lateral_scope_id(q, n)))
        .map_or(0, |op| op.calls)
}

/// Engines that enter a lateral declared after `r ∈ R` once per `R` row
/// unless its memo answers: sequentially and over four workers sharing
/// the compiled step.
fn per_row_engines(catalog: &Catalog) -> Vec<Engine<'_>> {
    let engine = || Engine::new(catalog, Conventions::sql());
    vec![engine().with_threads(1), engine().with_threads(4)]
}

#[test]
fn an_outer_free_lateral_is_evaluated_once() {
    let catalog = catalog();
    // `y` mentions nothing of `r`: however the scope is ordered, one
    // evaluation serves all 24 rows of R (Eq 12 then costs what Eq 8 does).
    let q = fx::q(
        "{Q(A,n) | ∃r ∈ R, y ∈ {Y(n) | ∃s ∈ S, γ ∅ [s.A < 10 ∧ Y.n = count(*)]} \
         [Q.A = r.A ∧ Q.n = y.n]}",
    );
    let got = assert_engines_agree(&catalog, Conventions::sql(), &q);
    assert_eq!(got.len(), 24);
    assert!(got.rows.iter().all(|row| row[1] == i(3)));
    assert_eq!(
        lateral_calls(&Engine::new(&catalog, Conventions::sql()), &q, 1),
        1
    );
    // Over four rows of R the plan scans R first and enters the lateral
    // once per row — unless its memo answers, as it must.
    let mut few = catalog.clone();
    let r = catalog.relation("R").unwrap();
    let attrs: Vec<&str> = r.schema.iter().map(String::as_str).collect();
    few.add(Relation::from_rows(
        "R",
        &attrs,
        r.rows.range(0..4).map(<[Value]>::to_vec).collect(),
    ));
    let plan = Engine::new(&few, Conventions::sql())
        .explain_collection(&q)
        .unwrap();
    assert!(plan.contains("1: scan R as r"), "{plan}");
    assert_eq!(lateral_calls(&per_row_engines(&few)[0], &q, 1), 1);
}

#[test]
fn a_correlated_lateral_is_evaluated_once_per_distinct_key() {
    let catalog = catalog();
    // R.B takes four values over 24 rows; the empty group (no S row has
    // B = 3) still yields its row, from the memo like any other.
    let q = fx::q(
        "{Q(A,n,sm) | ∃r ∈ R, x ∈ {X(n,sm) | ∃s ∈ S, γ ∅ \
         [s.B = r.B ∧ X.n = count(*) ∧ X.sm = sum(s.A)]} [Q.A = r.A ∧ Q.n = x.n ∧ Q.sm = x.sm]}",
    );
    let want: Vec<Vec<Value>> = (0..24i64)
        .map(|k| match k % 4 {
            0 => vec![i(k), i(1), i(2)],
            1 => vec![i(k), i(2), i(8)],
            2 => vec![i(k), i(1), i(40)],
            _ => vec![i(k), i(0), Value::Null],
        })
        .collect();
    let want: Vec<&[Value]> = want.iter().map(Vec::as_slice).collect();
    assert_rows(&catalog, Conventions::sql(), &q, &want);
    for engine in per_row_engines(&catalog) {
        let calls = lateral_calls(&engine, &q, 1);
        // Workers that miss the same key at the same moment may both
        // evaluate it; sequentially it is exactly once per key.
        assert!((4..=8).contains(&calls), "{calls} evaluations for 4 keys");
    }
    assert_eq!(lateral_calls(&per_row_engines(&catalog)[0], &q, 1), 4);
}

#[test]
fn memo_keys_are_exact_values_not_equal_ones() {
    // The inner head copies the outer value, so `1` and `1.0` — equal
    // under `=` — and `0.0` and `-0.0` must not share a memo entry.
    let keys = [
        i(1),
        Value::Float(1.0),
        i(1),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(1.0),
        Value::Null,
        i(0),
    ];
    let mut o = Relation::new("O", &["k"]);
    for k in &keys {
        o.push(vec![k.clone()]);
    }
    let catalog = Catalog::new()
        .with(o)
        .with(Relation::from_ints("T", &["C"], &[&[0]]));
    let q = fx::q("{Q(v) | ∃o ∈ O, x ∈ {X(v) | ∃t ∈ T [X.v = o.k]} [Q.v = x.v]}");
    let want: Vec<Vec<Value>> = keys.iter().map(|k| vec![k.clone()]).collect();
    for (name, engine) in engines(&catalog, Conventions::sql()) {
        let got = engine.eval_collection(&q).unwrap();
        assert_eq!(exact(&got.rows), exact(&want), "{name}");
    }
}

#[test]
fn a_raising_lateral_raises_the_same_error_on_the_same_outer_row() {
    let catalog = catalog();
    // R's rows carry B = 0, 1, 2, 3, 0, …: the first (B = 0) matches
    // nothing inside and is silent; the second (B = 1) matches a U row
    // and evaluates `u.bad1`; `s.bad2` would first be evaluated on the
    // third. Whatever the memo holds by then, the error is the second
    // row's.
    let q = fx::q(
        "{Q(A,v) | ∃r ∈ R, x ∈ {X(v) | ∃u ∈ U [u.D = r.B ∧ X.v = u.bad1] ∨ \
         ∃s ∈ S [s.A = r.B ∧ X.v = s.bad2]} [Q.A = r.A ∧ Q.v = x.v]}",
    );
    let want = EvalError::UnknownAttribute {
        var: "u".into(),
        attr: "bad1".into(),
    };
    for (name, engine) in engines(&catalog, Conventions::sql()) {
        let got = engine.eval_collection(&q).unwrap_err();
        assert_eq!(got, want, "{name}");
        assert_eq!(got.to_string(), want.to_string(), "{name}");
    }
}

/// `n` rows whose key column is all-distinct, and a two-row inner side.
fn distinct_keys(n: i64) -> Catalog {
    let mut big = Relation::new("Big", &["k"]);
    for k in 0..n {
        big.push(vec![i(k)]);
    }
    Catalog::new()
        .with(big)
        .with(Relation::from_ints("T", &["C"], &[&[0], &[1]]))
}

const PER_KEY: &str = "{Q(k,c) | ∃b ∈ Big, x ∈ {X(c) | ∃t ∈ T, γ ∅ [t.C < b.k ∧ X.c = count(*)]} \
     [Q.k = b.k ∧ Q.c = x.c]}";

#[test]
fn an_all_distinct_key_and_a_denied_memo_change_no_row() {
    // 10 000 outer rows, no key twice: the memo gives up early (its size
    // is pinned where the guard's accountant is visible, in the engine's
    // own tests) and the rows are what per-row evaluation returns. With
    // a budget that denies every reservation there is no memo at all.
    let catalog = distinct_keys(10_000);
    let q = fx::q(PER_KEY);
    let want: Vec<Vec<Value>> = (0..10_000i64).map(|k| vec![i(k), i(k.min(2))]).collect();
    let engine = || Engine::new(&catalog, Conventions::sql());
    for (name, engine) in [
        ("default", engine()),
        ("threads(4)", engine().with_threads(4)),
        ("denied", engine().with_mem_budget(1)),
        (
            "denied, threads(4)",
            engine().with_mem_budget(1).with_threads(4),
        ),
        ("generous", engine().with_mem_budget(1 << 30)),
    ] {
        let got = engine.eval_collection(&q).unwrap();
        assert_eq!(exact(&got.rows), exact(&want), "{name}");
    }
    // A repeated key under the same denial: still row-identical.
    let catalog = self::catalog();
    let q = fx::q(
        "{Q(A,n) | ∃r ∈ R, x ∈ {X(n) | ∃s ∈ S, γ ∅ [s.B = r.B ∧ X.n = count(*)]} \
         [Q.A = r.A ∧ Q.n = x.n]}",
    );
    let reference = Engine::new(&catalog, Conventions::sql())
        .eval_collection(&q)
        .unwrap();
    for threads in [1, 4] {
        let denied = Engine::new(&catalog, Conventions::sql())
            .with_mem_budget(1)
            .with_threads(threads)
            .eval_collection(&q)
            .unwrap();
        assert_eq!(
            exact(&denied.rows),
            exact(&reference.rows),
            "threads {threads}"
        );
    }
}

// ------------------------------------------------------------- aggregates

/// One generated cell of the aggregated column.
fn cell() -> BoxedStrategy<Value> {
    prop_oneof![
        6 => (-40i64..40).prop_map(Value::Int),
        3 => (-40i64..40).prop_map(|n| Value::Float(n as f64 / 8.0)),
        1 => Just(Value::Float(-0.0)),
        2 => Just(Value::Null),
        1 => (0i64..3).prop_map(|n| Value::str(format!("s{n}"))),
    ]
    .boxed()
}

/// The plain reference: collect a group's inputs, then fold them the
/// way the definition reads (SQL semantics: NULLs skipped, `distinct`
/// keeps first occurrences, sums integral while every input is).
fn reference_fold(func: &str, distinct: bool, inputs: &[Value], empty: EmptyAgg) -> Value {
    let mut values: Vec<&Value> = inputs.iter().filter(|v| !v.is_null()).collect();
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.key()));
    }
    let empty_numeric = match empty {
        EmptyAgg::Null => Value::Null,
        EmptyAgg::Zero => Value::Int(0),
    };
    let sum = |values: &[&Value]| -> Value {
        if values.iter().all(|v| matches!(v, Value::Int(_))) {
            Value::Int(
                values
                    .iter()
                    .filter_map(|v| v.as_i64())
                    .fold(0i64, i64::wrapping_add),
            )
        } else {
            match values
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<Vec<f64>>>()
            {
                Some(fs) => Value::Float(fs.iter().sum()),
                None => Value::Null,
            }
        }
    };
    match func {
        "count" => Value::Int(values.len() as i64),
        "sum" if values.is_empty() => empty_numeric,
        "sum" => sum(&values),
        "avg" if values.is_empty() => empty_numeric,
        "avg" => match sum(&values).as_f64() {
            Some(s) => Value::Float(s / values.len() as f64),
            None => Value::Null,
        },
        "min" | "max" => {
            let keep = if func == "min" {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
            values
                .iter()
                .map(|v| (*v).clone())
                .reduce(|a, b| if a.compare(&b) == Some(keep) { b } else { a })
                .unwrap_or(Value::Null)
        }
        other => unreachable!("{other}"),
    }
}

/// Exact rendering: `Int(1)` and `Float(1.0)` differ, as do `0.0`/`-0.0`.
fn exact<R: AsRef<[Value]>>(rows: impl IntoIterator<Item = R>) -> Vec<String> {
    rows.into_iter()
        .map(|r| format!("{:?}", r.as_ref()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-pass accumulators agree with collect-then-fold, bit for bit,
    /// sequentially and under the partitioned executor (whose morsels
    /// fold on the coordinator in enumeration order).
    #[test]
    fn accumulators_match_the_reference_fold(
        cells in prop::collection::vec((0i64..4, cell()), 0..90),
        distinct in any::<bool>(),
        zero in any::<bool>(),
    ) {
        let mut rel = Relation::new("R", &["K", "V"]);
        for (k, v) in &cells {
            rel.push(vec![Value::Int(*k), v.clone()]);
        }
        let catalog = Catalog::new().with(rel);
        let empty = if zero { EmptyAgg::Zero } else { EmptyAgg::Null };
        let conv = Conventions::sql().with_empty_agg(empty);
        let d = if distinct { "distinct " } else { "" };
        let funcs = ["count", "sum", "avg", "min", "max"];
        let calls: Vec<String> = funcs
            .iter()
            .map(|f| format!("Q.{f} = {f}({d}r.V)"))
            .collect();
        let grouped = fx::q(&format!(
            "{{Q(K,n,count,sum,avg,min,max) | ∃r ∈ R, γ r.K [Q.K = r.K ∧ Q.n = count(*) ∧ {}]}}",
            calls.join(" ∧ ")
        ));
        let global = fx::q(&format!(
            "{{Q(n,count,sum,avg,min,max) | ∃r ∈ R, γ ∅ [Q.n = count(*) ∧ {}]}}",
            calls.join(" ∧ ")
        ));

        let mut groups: BTreeMap<i64, Vec<Value>> = BTreeMap::new();
        for (k, v) in &cells {
            groups.entry(*k).or_default().push(v.clone());
        }
        let row = |inputs: &[Value]| -> Vec<Value> {
            std::iter::once(Value::Int(inputs.len() as i64))
                .chain(funcs.iter().map(|f| reference_fold(f, distinct, inputs, empty)))
                .collect()
        };
        let want_grouped: Vec<Vec<Value>> = groups
            .iter()
            .map(|(k, inputs)| std::iter::once(Value::Int(*k)).chain(row(inputs)).collect())
            .collect();
        let all: Vec<Value> = cells.iter().map(|(_, v)| v.clone()).collect();
        let want_global = vec![row(&all)];

        for threads in [1usize, 4] {
            let engine = Engine::new(&catalog, conv).with_threads(threads);
            let got = engine.eval_collection(&grouped).unwrap();
            prop_assert_eq!(exact(&got.rows), exact(&want_grouped), "grouped, threads {}", threads);
            let got = engine.eval_collection(&global).unwrap();
            prop_assert_eq!(exact(&got.rows), exact(&want_global), "γ∅, threads {}", threads);
        }
    }
}
