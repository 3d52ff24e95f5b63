//! Outer-join annotation trees (§2.11) against a nested-loop reference
//! written here over the same rows, and against the oracle.
//!
//! The engine partitions an outer node's right side by the hash of its
//! equi-key values and checks the whole ON condition on the candidates of
//! one bucket; the reference below checks it on **every** left × right
//! pair, in Rust, with [`cmp_truth`]'s three-valued comparisons. The two
//! must agree row for row **and in row order** — left rows in order, each
//! with its matches in right-row order or one `NULL`-padded row, then
//! (for `full`) the unmatched right rows in order — which is also the
//! order the all-pairs loop this node used to run produced.

use arc_core::ast::{CmpOp, Collection};
use arc_core::conventions::Conventions;
use arc_core::value::{cmp_truth, Value};
use arc_engine::{Catalog, Engine, Relation, Tuple};
use arc_tests::fixtures as fx;

/// `l op r` holds (is `True`, not `Unknown`).
fn holds(l: &Value, op: CmpOp, r: &Value) -> bool {
    cmp_truth(l, op, r).is_true()
}

/// The reference: every pair is tested; a row is the left columns then
/// the right columns, `NULL`-padded to `left_width` / `right_width`.
fn outer_join(
    left: &[Tuple],
    right: &[Tuple],
    (left_width, right_width): (usize, usize),
    on: impl Fn(&[Value], &[Value]) -> bool,
    full: bool,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for l in left {
        let mut matched = false;
        for (j, r) in right.iter().enumerate() {
            if on(l, r) {
                matched = true;
                right_matched[j] = true;
                out.push([l.as_slice(), r.as_slice()].concat());
            }
        }
        if !matched {
            out.push([l.as_slice(), &vec![Value::Null; right_width]].concat());
        }
    }
    if full {
        for (r, _) in right.iter().zip(&right_matched).filter(|(_, m)| !**m) {
            out.push([&vec![Value::Null; left_width], r.as_slice()].concat());
        }
    }
    out
}

/// Exact (type- and bit-level) rendering: `Value`'s own equality treats
/// `1` and `1.0`, and any two `NaN`s, as equal.
fn exact(rows: &[Tuple]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Evaluate `q` under the default engine and four threads; both must
/// return `want`, order included — and the oracle must agree.
fn assert_rows(catalog: &Catalog, q: &Collection, want: &[Tuple], what: &str) {
    let engine = || Engine::new(catalog, Conventions::sql());
    for (name, engine) in [
        ("default", engine()),
        ("threads(4)", engine().with_threads(4)),
    ] {
        let got = engine.eval_collection(q).unwrap();
        assert_eq!(exact(&got.rows.to_vecs()), exact(want), "{what} ({name})");
        arc_tests::assert_oracle(catalog, Conventions::sql(), q, &got);
    }
}

/// Keys of every comparability class, with the values equality cannot
/// match (`NULL`, `NaN`) and the ones it matches across types (`1`,
/// `1.0`) on both sides, several of them repeated.
fn mixed_keys() -> (Relation, Relation) {
    let nan = || Value::Float(f64::NAN);
    let keys_r = vec![
        Value::Int(1),
        Value::Null,
        Value::Float(1.0),
        nan(),
        Value::str("x"),
        Value::Float(2.5),
        Value::Int(4),
        Value::str("y"),
        Value::Bool(true),
        Value::Int(1),
    ];
    let keys_s = vec![
        Value::Float(1.0),
        Value::str("x"),
        Value::Null,
        Value::Int(1),
        nan(),
        Value::Float(2.5),
        Value::Int(7),
        Value::str("x"),
        Value::Bool(true),
        Value::str("1"),
    ];
    let mut r = Relation::new("R", &["k", "a"]);
    for (i, k) in keys_r.into_iter().enumerate() {
        r.push(vec![k, Value::Int(i as i64)]);
    }
    let mut s = Relation::new("S", &["k", "b"]);
    for (i, k) in keys_s.into_iter().enumerate() {
        s.push(vec![k, Value::Int(10 * i as i64)]);
    }
    (r, s)
}

#[test]
fn equi_keys_of_every_type_with_nulls_and_nans_on_both_sides() {
    let (r, s) = mixed_keys();
    let catalog = Catalog::new().with(r.clone()).with(s.clone());
    for full in [false, true] {
        let kind = if full { "full" } else { "left" };
        let q = fx::q(&format!(
            "{{Q(rk,a,sk,b) | ∃r ∈ R, s ∈ S, {kind}(r, s) \
             [Q.rk = r.k ∧ Q.a = r.a ∧ Q.sk = s.k ∧ Q.b = s.b ∧ r.k = s.k]}}"
        ));
        let want = outer_join(
            &r.rows.to_vecs(),
            &s.rows.to_vecs(),
            (2, 2),
            |l, r| holds(&l[0], CmpOp::Eq, &r[0]),
            full,
        );
        // `1` matches `1.0` both ways; NULL and NaN rows are padded.
        assert!(exact(&want)
            .iter()
            .any(|row| row.contains("Int(1), Int(0), Float(1.0)")));
        assert_rows(&catalog, &q, &want, kind);
    }
}

#[test]
fn residual_predicates_stay_in_on_and_left_only_ones_in_where() {
    let (r, s) = mixed_keys();
    let catalog = Catalog::new().with(r.clone()).with(s.clone());
    // `s.b > r.a` touches the right side: part of ON (a failing pair pads
    // instead of vanishing). `r.a <> 4` does not: WHERE, after the join.
    let q = fx::q(
        "{Q(a,b) | ∃r ∈ R, s ∈ S, left(r, s) \
         [Q.a = r.a ∧ Q.b = s.b ∧ r.k = s.k ∧ s.b > r.a ∧ r.a <> 4]}",
    );
    let joined = outer_join(
        &r.rows.to_vecs(),
        &s.rows.to_vecs(),
        (2, 2),
        |l, r| holds(&l[0], CmpOp::Eq, &r[0]) && holds(&r[1], CmpOp::Gt, &l[1]),
        false,
    );
    let want: Vec<Tuple> = joined
        .into_iter()
        .filter(|row| holds(&row[1], CmpOp::Ne, &Value::Int(4)))
        .map(|row| vec![row[1].clone(), row[3].clone()])
        .collect();
    assert!(
        want.iter().any(|row| row[1].is_null()),
        "a padded row survives"
    );
    assert_rows(&catalog, &q, &want, "residual");
}

#[test]
fn no_equi_key_at_all() {
    let (r, s) = mixed_keys();
    let catalog = Catalog::new().with(r.clone()).with(s.clone());
    for full in [false, true] {
        let kind = if full { "full" } else { "left" };
        let q = fx::q(&format!(
            "{{Q(a,b) | ∃r ∈ R, s ∈ S, {kind}(r, s) [Q.a = r.a ∧ Q.b = s.b ∧ s.b < r.a + r.a]}}"
        ));
        let want: Vec<Tuple> = outer_join(
            &r.rows.to_vecs(),
            &s.rows.to_vecs(),
            (2, 2),
            |l, r| {
                let twice = Value::Int(2 * l[1].as_i64().unwrap());
                holds(&r[1], CmpOp::Lt, &twice)
            },
            full,
        )
        .into_iter()
        .map(|row| vec![row[1].clone(), row[3].clone()])
        .collect();
        assert_rows(&catalog, &q, &want, kind);
    }
}

#[test]
fn on_reads_an_enclosing_scopes_variable() {
    let (r, s) = mixed_keys();
    let o = Relation::from_rows(
        "O",
        &["id", "k", "lim"],
        vec![
            vec![Value::Int(0), Value::str("x"), Value::Int(30)],
            vec![Value::Int(1), Value::Float(1.0), Value::Int(100)],
            vec![Value::Int(2), Value::Null, Value::Int(100)],
        ],
    );
    let catalog = Catalog::new()
        .with(r.clone())
        .with(s.clone())
        .with(o.clone());
    // Per outer row `o`: one equi-key between the two sides, one between
    // the right side and the enclosing scope, one residual over it.
    let q = fx::q(
        "{Q(id,a,b) | ∃o ∈ O, x ∈ {X(a,b) | ∃r ∈ R, s ∈ S, left(r, s) \
         [X.a = r.a ∧ X.b = s.b ∧ r.k = s.k ∧ s.k = o.k ∧ s.b < o.lim]} \
         [Q.id = o.id ∧ Q.a = x.a ∧ Q.b = x.b]}",
    );
    let mut want = Vec::new();
    for o in &o.rows {
        let rows = outer_join(
            &r.rows.to_vecs(),
            &s.rows.to_vecs(),
            (2, 2),
            |l, r| {
                holds(&l[0], CmpOp::Eq, &r[0])
                    && holds(&r[0], CmpOp::Eq, &o[1])
                    && holds(&r[1], CmpOp::Lt, &o[2])
            },
            false,
        );
        want.extend(
            rows.into_iter()
                .map(|row| vec![o[0].clone(), row[1].clone(), row[3].clone()]),
        );
    }
    assert_rows(&catalog, &q, &want, "enclosing");
}

#[test]
fn an_outer_node_under_an_outer_node_on_either_side() {
    let (r, s) = mixed_keys();
    let t = Relation::from_rows(
        "T",
        &["c", "d"],
        (0..8i64)
            .map(|i| vec![Value::Int(10 * (i % 5)), Value::Int(100 + i)])
            .chain([vec![Value::Null, Value::Int(999)]])
            .collect(),
    );
    let catalog = Catalog::new()
        .with(r.clone())
        .with(s.clone())
        .with(t.clone());
    let head = "Q.a = r.a ∧ Q.b = s.b ∧ Q.d = t.d ∧ r.k = s.k ∧ s.b = t.c";
    let project = |rows: Vec<Tuple>| -> Vec<Tuple> {
        rows.into_iter()
            .map(|row| vec![row[1].clone(), row[3].clone(), row[5].clone()])
            .collect()
    };
    let key = |l: &[Value], r: &[Value]| holds(&l[0], CmpOp::Eq, &r[0]);

    // left(left(r, s), t): the inner node's padded rows carry a NULL
    // `s.b`, which matches no `t`.
    for full in [false, true] {
        let kind = if full { "full" } else { "left" };
        let q = fx::q(&format!(
            "{{Q(a,b,d) | ∃r ∈ R, s ∈ S, t ∈ T, {kind}(left(r, s), t) [{head}]}}"
        ));
        let rs = outer_join(&r.rows.to_vecs(), &s.rows.to_vecs(), (2, 2), key, false);
        let want = project(outer_join(
            &rs,
            &t.rows.to_vecs(),
            (4, 2),
            |l, r| holds(&l[3], CmpOp::Eq, &r[0]),
            full,
        ));
        assert_rows(&catalog, &q, &want, &format!("{kind}(left(r, s), t)"));
    }

    // left(r, full(s, t)): the right side is itself a joined subtree, and
    // its key `s.k` is NULL on the rows `full` padded.
    let q = fx::q(&format!(
        "{{Q(a,b,d) | ∃r ∈ R, s ∈ S, t ∈ T, left(r, full(s, t)) [{head}]}}"
    ));
    let st = outer_join(
        &s.rows.to_vecs(),
        &t.rows.to_vecs(),
        (2, 2),
        |l, r| holds(&l[1], CmpOp::Eq, &r[0]),
        true,
    );
    let want = project(outer_join(&r.rows.to_vecs(), &st, (2, 4), key, false));
    assert_rows(&catalog, &q, &want, "left(r, full(s, t))");
}

#[test]
fn fig12_literal_leaf_associates_its_constant_with_the_right_side() {
    // `r.h = 11` mentions no variable of the right side, yet belongs to
    // ON: it compares against the literal leaf of `inner(11, s)`.
    let r = Relation::from_ints(
        "R",
        &["m", "y", "h"],
        &[
            &[1, 10, 11],
            &[2, 20, 99],
            &[3, 10, 99],
            &[4, 30, 11],
            &[5, 10, 11],
        ],
    );
    let s = Relation::from_ints(
        "S",
        &["y", "n", "q"],
        &[&[10, 5, 0], &[30, 6, 0], &[10, 7, 0], &[40, 8, 0]],
    );
    let catalog = Catalog::new().with(r.clone()).with(s.clone());
    let want: Vec<Tuple> = outer_join(
        &r.rows.to_vecs(),
        &s.rows.to_vecs(),
        (3, 3),
        |l, r| holds(&l[1], CmpOp::Eq, &r[0]) && holds(&l[2], CmpOp::Eq, &Value::Int(11)),
        false,
    )
    .into_iter()
    .map(|row| vec![row[0].clone(), row[4].clone()])
    .collect();
    assert_eq!(want.len(), 7, "3 + 1 + 2 matches, rows 2 and 3 padded");
    assert_rows(&catalog, &fx::eq18(), &want, "fig 12");
}

#[test]
fn the_papers_count_bug_instance_in_arc_and_sql() {
    // Fig 21: R = {(9, 0)}, S = ∅. Versions 1 and 3 answer {9}; version 2
    // — the bug — answers nothing, because an empty group never forms.
    let catalog = Catalog::new()
        .with(Relation::from_ints("R", &["id", "q"], &[&[9, 0]]))
        .with(Relation::new("S", &["id", "d"]));
    let nine = vec![vec![Value::Int(9)]];
    let v1 = fx::q("{Q(id) | ∃r ∈ R [Q.id = r.id ∧ ∃s ∈ S, γ ∅ [s.id = r.id ∧ r.q = count(s.d)]]}");
    assert_rows(&catalog, &v1, &nine, "version 1");
    assert_rows(&catalog, &fx::eq28(), &[], "version 2");
    assert_rows(&catalog, &fx::eq29(), &nine, "version 3 (ARC)");
    let v3_sql = arc_sql::sql_to_arc(
        "select R.id from R, (select R2.id, count(S.d) as ct \
         from R R2 left join S on R2.id = S.id group by R2.id) as X \
         where R.q = X.ct and R.id = X.id",
        &catalog.schema_map(),
    )
    .unwrap();
    assert_rows(&catalog, &v3_sql, &nine, "version 3 (SQL)");

    // The same three on an instance with details: ids 0..40, id `i` with
    // `i mod 4` detail rows and `q = (i / 4) mod 4`.
    let mut r = Relation::new("R", &["id", "q"]);
    let mut s = Relation::new("S", &["id", "d"]);
    for i in 0..40i64 {
        r.push(vec![Value::Int(i), Value::Int((i / 4) % 4)]);
        for j in 0..i % 4 {
            s.push(vec![Value::Int(i), Value::Int(10 * i + j)]);
        }
    }
    let catalog = Catalog::new().with(r).with(s);
    let want: Vec<Tuple> = (0..40i64)
        .filter(|i| i % 4 == (i / 4) % 4)
        .map(|i| vec![Value::Int(i)])
        .collect();
    assert_rows(&catalog, &v1, &want, "version 1, with details");
    let sorted = |q: &Collection| {
        Engine::new(&catalog, Conventions::sql())
            .eval_collection(q)
            .unwrap()
            .sorted_rows()
    };
    assert_eq!(sorted(&fx::eq29()), want, "version 3 agrees with version 1");
    assert_eq!(sorted(&v3_sql), want, "and so does its SQL spelling");
    let buggy: Vec<Tuple> = (0..40i64)
        .filter(|i| i % 4 == (i / 4) % 4 && i % 4 != 0)
        .map(|i| vec![Value::Int(i)])
        .collect();
    assert_eq!(
        sorted(&fx::eq28()),
        buggy,
        "version 2 loses the ids without details"
    );
}
