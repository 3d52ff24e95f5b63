//! Semi-naive evaluation keeps, per recursive relation, one total appended
//! in place and one *seen* set over its rows; a round streams what the
//! delta variants of its recursive rules derive through that set (a rule
//! that reads no member runs in the seed round only). These tests hold
//! that driver to three references:
//!
//! * the **oracle** (`arc_analysis::oracle`), whose naive fixpoint — the
//!   textbook definition — shares no code with the engine: the same rows,
//!   none twice;
//! * a **plain-loop closure** written here (no engine code): the same
//!   rows;
//! * a **plain-loop semi-naive driver** written here — seed, then per
//!   round the recursive rules' delta variants, minus everything derived
//!   before: the same rows **in the same rounds**.
//!
//! Row order is additionally pinned across configurations (default,
//! `with_threads(4)`, a generous budget) for every defined relation of
//! every program, and by layering: a linear rule derives a pair in the
//! round equal to its distance, so distances never decrease down a total.

use arc_core::ast::Program;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, EvalError, Relation};
use arc_parser::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};

type Edge = (i64, i64);

/// `A` = transitive closure of `P`, right-linear.
const LINEAR: &str = "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
     ∃p ∈ P, a ∈ A [A.s = p.s ∧ p.t = a.s ∧ A.t = a.t]};";

/// The same closure by the non-linear rule `A(x,y) :- A(x,z), A(z,y)`:
/// two recursive occurrences, so two delta variants per round.
const NON_LINEAR: &str = "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
     ∃a ∈ A, b ∈ A [A.s = a.s ∧ a.t = b.s ∧ A.t = b.t]};";

/// Paths of odd (`O`) and even (`E`) length: a two-member SCC.
const MUTUAL: &str = "{O(s,t) | ∃p ∈ P [O.s = p.s ∧ O.t = p.t] ∨ \
     ∃p ∈ P, e ∈ E [O.s = p.s ∧ p.t = e.s ∧ O.t = e.t]};\n\
     {E(s,t) | ∃p ∈ P, o ∈ O [E.s = p.s ∧ p.t = o.s ∧ E.t = o.t]};";

/// The non-linear rule with both recursive occurrences on the preserved
/// side of an outer join (padding `p` changes no row of `A`).
const LEFT_JOINED: &str = "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
     ∃a ∈ A, b ∈ A, p ∈ P, left(inner(a, b), p) \
     [a.t = b.s ∧ p.s = b.t ∧ A.s = a.s ∧ A.t = b.t]};";

/// Two non-recursive rules around a recursive one: the forward edges and
/// the backward edges reversed seed `A`, and the recursive rule closes it
/// over `P`.
const TWO_BASES: &str = "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s < p.t] ∨ \
     ∃p ∈ P, a ∈ A [A.s = p.s ∧ p.t = a.s ∧ A.t = a.t] ∨ \
     ∃p ∈ P [A.s = p.t ∧ A.t = p.s ∧ p.t < p.s]};";

/// A non-recursive definition feeding the recursive one, which feeds a
/// non-recursive one.
const SANDWICH: &str = "{F(s,t) | ∃p ∈ P [F.s = p.s ∧ F.t = p.t ∧ p.s <> 0]};\n\
     {A(s,t) | ∃f ∈ F [A.s = f.s ∧ A.t = f.t] ∨ \
               ∃f ∈ F, a ∈ A [A.s = f.s ∧ f.t = a.s ∧ A.t = a.t]};\n\
     {Loops(s) | ∃a ∈ A [Loops.s = a.s ∧ a.s = a.t]};";

fn program(text: &str) -> Program {
    parse_program(text).unwrap()
}

/// A seeded random graph over `nodes` nodes: a few cycles, self-loops and
/// duplicate edges among `edges` random ones.
fn random_edges(seed: u64, nodes: i64, edges: usize) -> Vec<Edge> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Edge> = (0..edges)
        .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
        .collect();
    let n = rng.gen_range(0..nodes);
    out.push((n, n)); // a self-loop
    out.push(out[0]); // a duplicate EDB edge
    out.push((out[1].1, out[1].0)); // a 2-cycle
    out
}

fn catalog_of(edges: &[Edge]) -> Catalog {
    let mut p = Relation::new("P", &["s", "t"]);
    for &(s, t) in edges {
        p.push(vec![Value::Int(s), Value::Int(t)]);
    }
    Catalog::new().with(p)
}

fn pairs(rel: &Relation) -> Vec<Edge> {
    rel.rows
        .iter()
        .map(|row| match row[..] {
            [Value::Int(s), Value::Int(t)] => (s, t),
            _ => panic!("expected an integer pair, got {row:?}"),
        })
        .collect()
}

/// The closure reference: grow the pair set until nothing is new.
fn closure(edges: &[Edge]) -> BTreeSet<Edge> {
    let mut reach: BTreeSet<Edge> = edges.iter().copied().collect();
    loop {
        let mut grown = reach.clone();
        for &(s, m) in edges {
            grown.extend(
                reach
                    .iter()
                    .filter(|&&(m2, _)| m2 == m)
                    .map(|&(_, t)| (s, t)),
            );
        }
        if grown.len() == reach.len() {
            return reach;
        }
        reach = grown;
    }
}

/// Length of the shortest path behind every pair of the closure.
fn distances(edges: &[Edge]) -> BTreeMap<Edge, usize> {
    let mut dist: BTreeMap<Edge, usize> = edges.iter().map(|&e| (e, 1)).collect();
    let mut frontier: Vec<Edge> = dist.keys().copied().collect();
    for d in 2.. {
        let mut next = Vec::new();
        for &(s, m) in edges {
            for &(m2, t) in &frontier {
                if m2 == m && !dist.contains_key(&(s, t)) {
                    dist.insert((s, t), d);
                    next.push((s, t));
                }
            }
        }
        if next.is_empty() {
            return dist;
        }
        frontier = next;
    }
    unreachable!()
}

/// The semi-naive driver as plain loops: the seed, then per round every
/// variant's rows — kept on first occurrence, dropped when derived before
/// — until a round derives nothing. Returns what each round added.
fn semi_naive(
    seed: Vec<Edge>,
    variants: impl Fn(&[Edge], &[Edge]) -> Vec<Vec<Edge>>,
) -> Vec<BTreeSet<Edge>> {
    let mut seen: HashSet<Edge> = HashSet::new();
    let mut total: Vec<Edge> = seed.into_iter().filter(|e| seen.insert(*e)).collect();
    let mut rounds = vec![total.iter().copied().collect()];
    let mut delta = total.clone();
    while !delta.is_empty() {
        let mut fresh = Vec::new();
        for rows in variants(&total, &delta) {
            fresh.extend(rows.into_iter().filter(|e| seen.insert(*e)));
        }
        total.extend(&fresh);
        rounds.push(fresh.iter().copied().collect());
        delta = fresh;
    }
    rounds.pop(); // the empty last round
    rounds
}

/// A total cut where `rounds` says each round ends.
fn by_round(total: &[Edge], rounds: &[BTreeSet<Edge>]) -> Vec<BTreeSet<Edge>> {
    let mut rest = total.iter().copied();
    let cut = rounds
        .iter()
        .map(|r| rest.by_ref().take(r.len()).collect())
        .collect();
    assert_eq!(rest.next(), None, "the engine ran more rounds");
    cut
}

/// `for a ∈ left, b ∈ right: if a.t = b.s emit (a.s, b.t)`.
fn compose(left: &[Edge], right: &[Edge]) -> Vec<Edge> {
    let mut out = Vec::new();
    for &(s, m) in left {
        out.extend(
            right
                .iter()
                .filter(|&&(m2, _)| m2 == m)
                .map(|&(_, t)| (s, t)),
        );
    }
    out
}

/// The configurations whose results must be row-identical, order
/// included: the default engine, four worker threads, a guard with a
/// budget it never reaches.
fn configurations(catalog: &Catalog) -> Vec<(&'static str, Engine<'_>)> {
    let engine = || Engine::new(catalog, Conventions::set());
    vec![
        ("default", engine()),
        ("threads(4)", engine().with_threads(4)),
        ("generous budget", engine().with_mem_budget(1 << 30)),
    ]
}

/// Semi-naive under every configuration, order-identical per defined
/// relation, and the oracle's naive fixpoint as a set, with no duplicate.
/// Returns the default engine's output.
fn eval_all(catalog: &Catalog, p: &Program) -> BTreeMap<String, Relation> {
    let mut reference: Option<BTreeMap<String, Relation>> = None;
    for (name, engine) in configurations(catalog) {
        let out = engine.eval_program(p).unwrap().defined;
        match &reference {
            None => reference = Some(out),
            Some(first) => {
                assert_eq!(
                    first.keys().collect::<Vec<_>>(),
                    out.keys().collect::<Vec<_>>()
                );
                for (rel, rows) in first {
                    assert_eq!(rows.rows, out[rel].rows, "{name}: order of `{rel}` drifted");
                }
            }
        }
    }
    let semi = reference.unwrap();
    let naive = arc_tests::oracle_program(catalog, Conventions::set(), p).defined;
    for (rel, rows) in &semi {
        assert_eq!(rows.len(), naive[rel].len(), "`{rel}`: a row derived twice");
        assert!(rows.set_eq(&naive[rel]), "`{rel}`: semi-naive ≠ naive");
    }
    semi
}

#[test]
fn linear_closure_agrees_with_naive_the_loop_reference_and_its_layering() {
    for seed in 0..24 {
        let edges = random_edges(seed, 4 + seed as i64 % 9, 3 + seed as usize % 14);
        let catalog = catalog_of(&edges);
        let out = eval_all(&catalog, &program(LINEAR));
        let got = pairs(&out["A"]);
        assert_eq!(
            got.iter().copied().collect::<BTreeSet<_>>(),
            closure(&edges),
            "seed {seed}"
        );
        // Round k derives exactly the pairs at distance k + 1.
        let dist = distances(&edges);
        let layers: Vec<usize> = got.iter().map(|e| dist[e]).collect();
        assert!(
            layers.windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: a total lists its rounds in order: {layers:?}"
        );
    }
}

/// Each semi-naive round of the engine adds exactly the rows the
/// plain-loop driver's round adds (a total lists its rounds in order), and
/// the whole total is the oracle's naive fixpoint.
#[test]
fn each_round_derives_what_the_plain_loop_driver_derives() {
    for seed in 0..24 {
        let edges = random_edges(100 + seed, 3 + seed as i64 % 8, 2 + seed as usize % 12);
        let catalog = catalog_of(&edges);
        let rounds = |text: &str, driver: &[BTreeSet<Edge>]| {
            let p = program(text);
            let out = Engine::new(&catalog, Conventions::set())
                .eval_program(&p)
                .unwrap();
            let want = arc_tests::oracle_program(&catalog, Conventions::set(), &p);
            assert!(out.defined["A"].set_eq(&want.defined["A"]), "{text}");
            by_round(&pairs(&out.defined["A"]), driver)
        };
        // After the seed a round runs only the recursive rule, once per
        // recursive occurrence, that occurrence over the delta: all a
        // non-recursive rule derives is in the seed.
        let linear = semi_naive(edges.clone(), |_, delta| vec![compose(&edges, delta)]);
        assert_eq!(rounds(LINEAR, &linear), linear, "linear, seed {seed}");
        let non_linear = semi_naive(edges.clone(), |total, delta| {
            vec![compose(delta, total), compose(total, delta)]
        });
        let name = "non-linear";
        assert_eq!(
            rounds(NON_LINEAR, &non_linear),
            non_linear,
            "{name}, seed {seed}"
        );
        // A delta variant reads the delta wherever its scope compiles —
        // under an outer-join annotation too.
        assert_eq!(
            rounds(LEFT_JOINED, &non_linear),
            non_linear,
            "outer join, seed {seed}"
        );
        assert_eq!(
            non_linear.iter().flatten().collect::<BTreeSet<_>>(),
            linear.iter().flatten().collect::<BTreeSet<_>>(),
            "both rules derive the closure"
        );
        // Both base rules seed, in rule order; the rounds extend the seed
        // by an edge at a time.
        let forward = edges.iter().filter(|(s, t)| s < t).copied();
        let backward = edges.iter().filter(|(s, t)| t < s).map(|&(s, t)| (t, s));
        let two_bases = semi_naive(forward.chain(backward).collect(), |_, delta| {
            vec![compose(&edges, delta)]
        });
        assert_eq!(
            rounds(TWO_BASES, &two_bases),
            two_bases,
            "two base rules, seed {seed}"
        );
    }
}

#[test]
fn non_linear_rule_and_two_member_scc_agree_with_the_closure() {
    for seed in 0..16 {
        let edges = random_edges(200 + seed, 4 + seed as i64 % 7, 3 + seed as usize % 10);
        let catalog = catalog_of(&edges);
        let reach = closure(&edges);

        for text in [NON_LINEAR, LEFT_JOINED] {
            let out = eval_all(&catalog, &program(text));
            assert_eq!(pairs(&out["A"]).into_iter().collect::<BTreeSet<_>>(), reach);
        }

        // Odd ∪ even paths are all paths; a pair is in both when two of
        // its paths differ in parity.
        let out = eval_all(&catalog, &program(MUTUAL));
        let (odd, even) = (pairs(&out["O"]), pairs(&out["E"]));
        let both: BTreeSet<Edge> = odd.iter().chain(&even).copied().collect();
        assert_eq!(both, reach, "seed {seed}");
        let odd_ref: BTreeSet<Edge> = parity_paths(&edges).0;
        assert_eq!(
            odd.into_iter().collect::<BTreeSet<_>>(),
            odd_ref,
            "seed {seed}"
        );
    }
}

/// Pairs joined by a path of odd / of even (≥ 2) length, by plain loops
/// over (pair, parity) states.
fn parity_paths(edges: &[Edge]) -> (BTreeSet<Edge>, BTreeSet<Edge>) {
    let mut odd: BTreeSet<Edge> = edges.iter().copied().collect();
    let mut even: BTreeSet<Edge> = BTreeSet::new();
    loop {
        let before = odd.len() + even.len();
        let e: Vec<Edge> = even.iter().copied().collect();
        let o: Vec<Edge> = odd.iter().copied().collect();
        odd.extend(compose(edges, &e));
        even.extend(compose(edges, &o));
        if odd.len() + even.len() == before {
            return (odd, even);
        }
    }
}

#[test]
fn recursion_between_non_recursive_definitions() {
    for seed in 0..12 {
        let edges = random_edges(300 + seed, 5, 4 + seed as usize % 8);
        let catalog = catalog_of(&edges);
        let out = eval_all(&catalog, &program(SANDWICH));
        let kept: Vec<Edge> = edges.iter().copied().filter(|&(s, _)| s != 0).collect();
        let reach = closure(&kept);
        assert_eq!(pairs(&out["A"]).into_iter().collect::<BTreeSet<_>>(), reach);
        let loops: BTreeSet<i64> = reach.iter().filter(|(s, t)| s == t).map(|e| e.0).collect();
        let got: BTreeSet<i64> = out["Loops"]
            .rows
            .iter()
            .map(|row| row[0].as_i64().unwrap())
            .collect();
        assert_eq!(got, loops, "seed {seed}");
    }
}

#[test]
fn numerically_equal_keys_are_one_tuple_and_nulls_group() {
    // 1 → 2 → 3 with the middle node spelled `2` on one edge and `2.0`
    // on the other, every edge listed in both spellings, and two edges
    // with a NULL end (and a dead end) that can join nothing.
    let mut p = Relation::new("P", &["s", "t"]);
    for row in [
        vec![Value::Int(1), Value::Int(2)],
        vec![Value::Float(1.0), Value::Float(2.0)],
        vec![Value::Float(2.0), Value::Int(3)],
        vec![Value::Int(2), Value::Float(3.0)],
        vec![Value::Null, Value::Int(9)],
        vec![Value::Null, Value::Float(9.0)],
        vec![Value::Int(7), Value::Null],
    ] {
        p.push(row);
    }
    let catalog = Catalog::new().with(p);
    let out = eval_all(&catalog, &program(LINEAR));
    // First occurrences survive, in seed-then-delta order: the four
    // distinct edges, then the one derived pair.
    assert_eq!(
        out["A"].rows,
        vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Float(2.0), Value::Int(3)],
            vec![Value::Null, Value::Int(9)],
            vec![Value::Int(7), Value::Null],
            vec![Value::Int(1), Value::Int(3)],
        ]
    );
    // Equal *and* identically spelled: `1 → 2` kept its `Int`s.
    assert!(matches!(
        out["A"].rows[0][..],
        [Value::Int(1), Value::Int(2)]
    ));
    assert!(matches!(
        out["A"].rows[1][..],
        [Value::Float(_), Value::Int(3)]
    ));
}

#[test]
fn a_tight_budget_trips_structured_and_the_catalog_answers_afterwards() {
    let edges: Vec<Edge> = (0..48).map(|i| (i, i + 1)).collect();
    let catalog = catalog_of(&edges);
    let p = program(LINEAR);
    let reference = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(reference.defined["A"].len(), 48 * 49 / 2);
    // Enough for the seed and a few rounds of deltas, not for the closure:
    // the trip comes with the total and the seen set partly filled.
    let starved = Engine::new(&catalog, Conventions::set())
        .with_mem_budget(16 * 1024)
        .eval_program(&p);
    assert!(
        matches!(starved, Err(EvalError::MemoryBudget)),
        "expected MemoryBudget, got {starved:?}"
    );
    let after = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert_eq!(after.defined["A"].rows, reference.defined["A"].rows);
}
