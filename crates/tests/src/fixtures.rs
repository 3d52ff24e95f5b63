//! Paper fixtures: queries (by equation number) and instances (by figure),
//! in their comprehension-syntax form, parsed on demand.

use arc_core::ast::{Collection, Formula, Program};
use arc_core::binder::SchemaMap;
use arc_engine::{Catalog, Relation};
use arc_parser::{parse_collection, parse_sentence};

/// Parse a fixture (panics on error: fixtures are static).
pub fn q(src: &str) -> Collection {
    parse_collection(src).unwrap_or_else(|e| panic!("fixture parse error: {e}\n{src}"))
}

/// Parse a sentence fixture.
pub fn sentence(src: &str) -> Formula {
    parse_sentence(src).unwrap_or_else(|e| panic!("fixture parse error: {e}\n{src}"))
}

/// Eq (1): the running TRC example (Fig 2).
pub fn eq1() -> Collection {
    q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}")
}

/// Eq (2): orthogonal nesting (Fig 3's lateral join).
pub fn eq2() -> Collection {
    q("{Q(A,B) | ∃x ∈ X, z ∈ {Z(B) | ∃y ∈ Y [Z.B = y.A ∧ x.A < y.A]} [Q.A = x.A ∧ Q.B = z.B]}")
}

/// Eq (3): grouped aggregate, FIO (Fig 4).
pub fn eq3() -> Collection {
    q("{Q(A,sm) | ∃r ∈ R, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}")
}

/// Every row of `R(A,B)`, emitted as it is: one row-emitting scan, the
/// scope shape that runs partitioned under `ARC_THREADS > 1`.
pub fn scan_r() -> Collection {
    q("{Q(A,B) | ∃r ∈ R [Q.A = r.A ∧ Q.B = r.B]}")
}

/// Eq (7): the same aggregate in the FOI pattern (Fig 5).
pub fn eq7() -> Collection {
    q(
        "{Q(A,sm) | ∃r ∈ R, x ∈ {X(sm) | ∃r2 ∈ R, γ ∅ [r2.A = r.A ∧ X.sm = sum(r2.B)]} \
       [Q.A = r.A ∧ Q.sm = x.sm]}",
    )
}

/// Eq (8): multiple aggregates in one scope + HAVING (Fig 6).
pub fn eq8() -> Collection {
    q(
        "{Q(dept,av) | ∃x ∈ {X(dept,av,sm) | ∃r ∈ R, s ∈ S, γ r.dept \
       [X.dept = r.dept ∧ X.av = avg(s.sal) ∧ X.sm = sum(s.sal) ∧ r.empl = s.empl]} \
       [Q.dept = x.dept ∧ Q.av = x.av ∧ x.sm > 100]}",
    )
}

/// Eq (10): the Hella et al. pattern — separate scope per aggregate (Fig 7).
pub fn eq10() -> Collection {
    q("{Q(dept,av) | ∃r3 ∈ R, s3 ∈ S, \
       x ∈ {X(av) | ∃r1 ∈ R, s1 ∈ S, γ r1.dept \
            [r1.dept = r3.dept ∧ r1.empl = s1.empl ∧ X.av = avg(s1.sal)]}, \
       y ∈ {Y(sm) | ∃r2 ∈ R, s2 ∈ S, γ r2.dept \
            [r2.dept = r3.dept ∧ r2.empl = s2.empl ∧ Y.sm = sum(s2.sal)]} \
       [Q.dept = r3.dept ∧ Q.av = x.av ∧ r3.empl = s3.empl ∧ y.sm > 100]}")
}

/// Eq (12): the Rel pattern — FOI with per-aggregate scopes (Fig 8).
pub fn eq12() -> Collection {
    q(
        "{Q(dept,av) | ∃x ∈ {X(dept,av) | ∃r1 ∈ R, s1 ∈ S, γ r1.dept \
            [X.dept = r1.dept ∧ r1.empl = s1.empl ∧ X.av = avg(s1.sal)]}, \
       y ∈ {Y(dept,sm) | ∃r2 ∈ R, s2 ∈ S, γ r2.dept \
            [Y.dept = r2.dept ∧ r2.empl = s2.empl ∧ Y.sm = sum(s2.sal)]} \
       [Q.dept = x.dept ∧ Q.av = x.av ∧ x.dept = y.dept ∧ y.sm > 100]}",
    )
}

/// Eq (13): boolean sentence with an aggregation comparison (Fig 9b).
pub fn eq13() -> Formula {
    sentence("∃r ∈ R [∃s ∈ S, γ ∅ [r.id = s.id ∧ r.q <= count(s.d)]]")
}

/// Eq (14): its negated integrity-constraint form (Fig 9d).
pub fn eq14() -> Formula {
    sentence("¬∃r ∈ R [∃s ∈ S, γ ∅ [r.id = s.id ∧ r.q > count(s.d)]]")
}

/// Eq (16): recursion — ancestor as one definition (Fig 10).
pub fn eq16() -> Program {
    let anc = q("{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
                 ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}");
    Program::default().with_definition(arc_core::ast::Definition { collection: anc })
}

/// Eq (17): NOT IN with explicit null guards (Fig 11).
pub fn eq17() -> Collection {
    q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ¬(∃s ∈ S [s.A = r.A ∨ s.A is null ∨ r.A is null])]}")
}

/// Eq (18): outer join with a literal leaf (Fig 12).
pub fn eq18() -> Collection {
    q("{Q(m,n) | ∃r ∈ R, s ∈ S, left(r, inner(11, s)) \
       [Q.m = r.m ∧ Q.n = s.n ∧ r.y = s.y ∧ r.h = 11]}")
}

/// Eq (19): inline arithmetic (Fig 15a).
pub fn eq19() -> Collection {
    q("{Q(A) | ∃r ∈ R, s ∈ S, t ∈ T [Q.A = r.A ∧ r.B - s.B > t.B]}")
}

/// Eq (20): reified Minus (Fig 15d).
pub fn eq20() -> Collection {
    q("{Q(A) | ∃r ∈ R, s ∈ S, t ∈ T, f ∈ Minus \
       [Q.A = r.A ∧ f.left = r.B ∧ f.right = s.B ∧ f.out > t.B]}")
}

/// Eq (21): equijoin between two externals (Fig 15e).
pub fn eq21() -> Collection {
    q("{Q(A) | ∃r ∈ R, s ∈ S, t ∈ T, f ∈ Minus, g ∈ Bigger \
       [Q.A = r.A ∧ f.left = r.B ∧ f.right = s.B ∧ f.out = g.left ∧ g.right = t.B]}")
}

/// Eq (22): the unique-set query, first-order form (Figs 16–17).
pub fn eq22() -> Collection {
    q("{Q(d) | ∃l1 ∈ L [Q.d = l1.d ∧ ¬(∃l2 ∈ L [l2.d <> l1.d ∧ \
       ¬(∃l3 ∈ L [l3.d = l2.d ∧ ¬(∃l4 ∈ L [l4.b = l3.b ∧ l4.d = l1.d])]) ∧ \
       ¬(∃l5 ∈ L [l5.d = l1.d ∧ ¬(∃l6 ∈ L [l6.d = l2.d ∧ l6.b = l5.b])])])]}")
}

/// Eqs (23)+(24): the unique-set query modularized through the abstract
/// relation `Subset` (Figs 16/19).
pub fn eq24_program() -> Program {
    let subset = q("{Subset(left,right) | ¬(∃l3 ∈ L [l3.d = Subset.left ∧ \
                    ¬(∃l4 ∈ L [l4.b = l3.b ∧ l4.d = Subset.right])])}");
    let query = q(
        "{Q(d) | ∃l1 ∈ L [Q.d = l1.d ∧ ¬(∃l2 ∈ L, s1 ∈ Subset, s2 ∈ Subset \
                   [l2.d <> l1.d ∧ s1.left = l1.d ∧ s1.right = l2.d ∧ \
                    s2.left = l2.d ∧ s2.right = l1.d])]}",
    );
    let mut p =
        Program::default().with_definition(arc_core::ast::Definition { collection: subset });
    p.query = Some(query);
    p
}

/// Eq (26): matrix multiplication over the `*` external (Fig 20).
pub fn eq26() -> Collection {
    q(
        "{C(row,col,val) | ∃a ∈ A, b ∈ B, f ∈ \"*\", γ a.row, b.col \
       [C.row = a.row ∧ C.col = b.col ∧ a.col = b.row ∧ \
        C.val = sum(f.out) ∧ f.$1 = a.val ∧ f.$2 = b.val]}",
    )
}

/// Eq (27): count bug version 1 (Fig 21 left).
pub fn eq27() -> Collection {
    q("{Q(id) | ∃r ∈ R [Q.id = r.id ∧ ∃s ∈ S, γ ∅ [s.id = r.id ∧ r.q = count(s.d)]]}")
}

/// Eq (28): count bug version 2 — the bug (Fig 21 middle).
pub fn eq28() -> Collection {
    q(
        "{Q(id) | ∃r ∈ R, x ∈ {X(id,ct) | ∃s ∈ S, γ s.id [X.id = s.id ∧ X.ct = count(s.d)]} \
       [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct]}",
    )
}

/// Eq (29): count bug version 3 — the fix (Fig 21 right).
pub fn eq29() -> Collection {
    q(
        "{Q(id) | ∃r ∈ R, x ∈ {X(id,ct) | ∃s ∈ S, r2 ∈ R, γ r2.id, left(r2, s) \
       [X.id = r2.id ∧ X.ct = count(s.d) ∧ r2.id = s.id]} \
       [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct]}",
    )
}

/// Eq (15)'s FOI sum with a correlated filter (§2.6 conventions example).
pub fn eq15() -> Collection {
    q(
        "{Q(ak,sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅ [s.A < r.A ∧ X.sm = sum(s.B)]} \
       [Q.ak = r.A ∧ Q.sm = x.sm]}",
    )
}

// ---------------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------------

/// `R(A,B)`, `S(B,C)` with `n` rows each (Fig 2 scale-up).
pub fn rs_catalog(n: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    let mut s = Relation::new("S", &["B", "C"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % 10) as i64).into()]);
        s.push(vec![((i % 10) as i64).into(), ((i % 2) as i64).into()]);
    }
    Catalog::new().with(r).with(s)
}

/// `R(A,B)` with `n` rows over `groups` distinct keys (Figs 4/5 scale-up).
pub fn grouped_catalog(n: usize, groups: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..n {
        r.push(vec![((i % groups) as i64).into(), (i as i64).into()]);
    }
    Catalog::new().with(r)
}

/// The Eq (19) non-equi workload at scale: `R(A,B)` with `n` rows plus
/// `S(B)`/`T(B)` side relations of `k` rows each. No equality predicate
/// reaches any binding, so every step is a scan and the planned pipeline
/// partitions its outer scan under `ARC_THREADS > 1`.
pub fn arith_catalog(n: usize, k: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % 97) as i64).into()]);
    }
    let mut s = Relation::new("S", &["B"]);
    let mut t = Relation::new("T", &["B"]);
    for i in 0..k {
        s.push(vec![((i % 13) as i64).into()]);
        t.push(vec![((i % 41) as i64).into()]);
    }
    Catalog::new().with(r).with(s).with(t)
}

/// The statistics workload: `R(A,B)` with `n` rows (`A` unique,
/// `B = A mod 8`) joined to a fixed 64-row `S(B,C)`. Combined with
/// [`eq1_range`]'s narrow range predicate on `R.A`, only an `ANALYZE`d
/// catalog can see that the big scan shrinks to a handful of rows — the
/// fixture where cost model v2 demonstrably flips the join order and the
/// access path (pinned by workspace invariant 10's companion test).
pub fn stats_skew_catalog(n: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % 8) as i64).into()]);
    }
    let mut s = Relation::new("S", &["B", "C"]);
    for i in 0..64 {
        s.push(vec![((i % 8) as i64).into(), ((i % 4) as i64).into()]);
    }
    Catalog::new().with(r).with(s)
}

/// Eq (1)'s join shape with the constant filter turned into a narrow
/// range on the big relation: `r.A > n - 8` keeps 7 of `n` rows. Pairs
/// with [`stats_skew_catalog`].
pub fn eq1_range(n: usize) -> Collection {
    q(&format!(
        "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ r.A > {}]}}",
        n - 8
    ))
}

/// Multi-column prefix fixture: `R(A,B,C)` with `n` rows, `A = i mod 8`
/// (the equality-prefix column), `B = i` (unique — the range column),
/// `C = i mod 5` (a residue column for demotion). Pairs with
/// [`prefix_range`], whose `r.A = 3 ∧ r.B > n-64` bound an ordered
/// `[A, B]` index answers with one binary search while `r.C <> 1` is
/// demoted to a post-filter over the streamed matches.
pub fn prefix_catalog(n: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B", "C"]);
    for i in 0..n {
        r.push(vec![
            ((i % 8) as i64).into(),
            (i as i64).into(),
            ((i % 5) as i64).into(),
        ]);
    }
    Catalog::new().with(r)
}

/// Constant equality + range + demoted residue over [`prefix_catalog`].
pub fn prefix_range(n: usize) -> Collection {
    q(&format!(
        "{{Q(B) | ∃r ∈ R [Q.B = r.B ∧ r.A = 3 ∧ r.B > {} ∧ r.C <> 1]}}",
        n as i64 - 64
    ))
}

/// Correlated `EXISTS` over [`semijoin_catalog`]: keep outer rows whose
/// join key has a match among the last few `S` rows (`s.C > k - 5`).
/// Most outer rows miss, so the nested path exhausts their whole (skewed)
/// probe bucket per row, while the decorrelated path probes a build-once
/// key set.
pub fn exists_corr(k: usize) -> Collection {
    q(&format!(
        "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.B = r.B ∧ s.C > {}]]}}",
        k as i64 - 5
    ))
}

/// The negated twin of [`exists_corr`]: `NOT EXISTS`, where the nested
/// path cannot even early-exit on the ~75% of outer rows that succeed.
pub fn not_exists_corr(k: usize) -> Collection {
    q(&format!(
        "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ¬(∃s ∈ S [s.B = r.B ∧ s.C > {}])]}}",
        k as i64 - 5
    ))
}

/// Skewed semi-join fixture: `R(A,B)` with `n` rows over 16 heavy join
/// keys, `S(B,C)` with `k` rows over the same 16 keys (`C` unique). Each
/// probe bucket holds `k/16` rows, so a correlated scope that filters on
/// `C` makes the per-outer-row nested path scan ~`k/16` rows per miss.
pub fn semijoin_catalog(n: usize, k: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % 16) as i64).into()]);
    }
    let mut s = Relation::new("S", &["B", "C"]);
    for i in 0..k {
        s.push(vec![((i % 16) as i64).into(), (i as i64).into()]);
    }
    Catalog::new().with(r).with(s)
}

/// Constant-filter scan fixture: `R(A,B)` with `n` rows, `B = i mod
/// 1000`, paired with [`filter_scan`]'s `r.B > 995` predicate (~0.4%
/// selectivity). Runtime is dominated by filter evaluation over a big
/// scan — the shape the columnar kernels accelerate.
pub fn filter_catalog(n: usize) -> Catalog {
    let mut r = Relation::new("R", &["A", "B"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % 1000) as i64).into()]);
    }
    Catalog::new().with(r)
}

/// The constant-filter scan over [`filter_catalog`].
pub fn filter_scan() -> Collection {
    q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B > 995]}")
}

/// Employees/departments (Figs 6–8): `n` employees over `depts` departments.
pub fn dept_catalog(n: usize, depts: usize) -> Catalog {
    let mut r = Relation::new("R", &["empl", "dept"]);
    let mut s = Relation::new("S", &["empl", "sal"]);
    for i in 0..n {
        r.push(vec![(i as i64).into(), ((i % depts) as i64).into()]);
        s.push(vec![(i as i64).into(), ((40 + i % 30) as i64).into()]);
    }
    Catalog::new().with(r).with(s)
}

/// The paper's Fig 6 instance (two departments, salaries 50/60/40).
pub fn dept_paper_catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints(
            "R",
            &["empl", "dept"],
            &[&[1, 1], &[2, 1], &[3, 2]],
        ))
        .with(Relation::from_ints(
            "S",
            &["empl", "sal"],
            &[&[1, 50], &[2, 60], &[3, 40]],
        ))
}

/// Fig 9 / count-bug instances: `R(id,q)`, `S(id,d)`.
pub fn count_bug_catalog(paper: bool) -> Catalog {
    if paper {
        Catalog::new()
            .with(Relation::from_ints("R", &["id", "q"], &[&[9, 0]]))
            .with(Relation::from_ints("S", &["id", "d"], &[]))
    } else {
        Catalog::new()
            .with(Relation::from_ints(
                "R",
                &["id", "q"],
                &[&[1, 2], &[2, 1], &[3, 0]],
            ))
            .with(Relation::from_ints(
                "S",
                &["id", "d"],
                &[&[1, 10], &[1, 11], &[2, 20]],
            ))
    }
}

/// Fig 12's outer-join instance.
pub fn fig12_catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints(
            "R",
            &["m", "y", "h"],
            &[&[1, 10, 11], &[2, 20, 99]],
        ))
        .with(Relation::from_ints(
            "S",
            &["y", "n", "q"],
            &[&[10, 5, 0], &[30, 6, 0]],
        ))
}

/// Fig 15's arithmetic instance (with standard externals registered).
pub fn fig15_catalog() -> Catalog {
    Catalog::with_standard_externals()
        .with(Relation::from_ints("R", &["A", "B"], &[&[1, 10], &[2, 5]]))
        .with(Relation::from_ints("S", &["B"], &[&[3]]))
        .with(Relation::from_ints("T", &["B"], &[&[5]]))
}

/// Fig 13's duplicate-sensitive instance.
pub fn fig13_catalog(dup: bool) -> Catalog {
    let r: &[&[i64]] = if dup {
        &[&[3], &[3], &[5]]
    } else {
        &[&[3], &[5]]
    };
    Catalog::new()
        .with(Relation::from_ints("R", &["A"], r))
        .with(Relation::from_ints(
            "S",
            &["A", "B"],
            &[&[1, 10], &[2, 20], &[4, 40]],
        ))
}

/// Eq (15)'s instance: `R = {(1,2)}`, `S = ∅`.
pub fn eq15_catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints("R", &["A", "B"], &[&[1, 2]]))
        .with(Relation::from_ints("S", &["A", "B"], &[]))
}

/// The paper's beer-drinkers instance (§2.13.2): only `b` is unique.
pub fn likes_paper_catalog() -> Catalog {
    let mut l = Relation::new("L", &["d", "b"]);
    for (d, b) in [("a", 1), ("a", 2), ("b", 1), ("c", 1), ("c", 2)] {
        l.push(vec![arc_core::value::Value::str(d), (b as i64).into()]);
    }
    Catalog::new().with(l)
}

/// Schema map covering every fixture (for binder/SQL round-trips).
pub fn all_schemas() -> SchemaMap {
    let mut m = SchemaMap::new();
    for (name, attrs) in [
        ("R", vec!["A", "B"]),
        ("S", vec!["B", "C"]),
        ("T", vec!["B"]),
        ("X", vec!["A"]),
        ("Y", vec!["A"]),
        ("P", vec!["s", "t"]),
        ("L", vec!["d", "b"]),
    ] {
        m.insert(
            name.to_string(),
            attrs.into_iter().map(|s| s.to_string()).collect(),
        );
    }
    m
}
