//! Independent references: what each statement must return, computed with
//! plain loops over the generated integers — never by the engine under
//! test, and sharing no code with it.
//!
//! Every function streams its result **bag** into `emit`; [`digest`]
//! folds that into a row count and an order-independent checksum, after
//! de-duplicating when the statement runs under set conventions.

use crate::gen::NULL;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One result cell. Floats are compared by bit pattern: every float the
/// workloads produce is one IEEE division of two exactly representable
/// integers, so the engine and the reference must agree to the bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    Null,
    Int(i64),
    Float(u64),
}

impl Cell {
    pub fn float(f: f64) -> Cell {
        Cell::Float(f.to_bits())
    }
}

/// Row count plus an order-independent checksum of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn row_hash(row: &[Cell]) -> u64 {
    row.iter().fold(0x9E37_79B9_7F4A_7C15, |h, c| {
        let (tag, payload) = match *c {
            Cell::Null => (1, 0),
            Cell::Int(i) => (2, i as u64),
            Cell::Float(b) => (3, b),
        };
        mix(h ^ mix(payload.wrapping_add(tag)))
    })
}

/// Fold whatever `produce` emits into a [`Digest`]; `set` de-duplicates
/// first (set conventions), otherwise every emitted row counts (bag).
pub fn digest(set: bool, produce: impl FnOnce(&mut dyn FnMut(&[Cell]))) -> Digest {
    let mut d = Digest::default();
    if set {
        let mut seen: HashSet<Vec<Cell>> = HashSet::new();
        produce(&mut |row| {
            if seen.insert(row.to_vec()) {
                d.rows += 1;
                d.sum = d.sum.wrapping_add(row_hash(row));
            }
        });
    } else {
        produce(&mut |row| {
            d.rows += 1;
            d.sum = d.sum.wrapping_add(row_hash(row));
        });
    }
    d
}

type Rows = [Vec<i64>];
type Emit<'e> = &'e mut dyn FnMut(&[Cell]);

/// "No threshold": every generated id is above it.
pub const ALL: i64 = i64::MIN;

fn index(rows: &Rows, col: usize) -> HashMap<i64, Vec<usize>> {
    let mut m: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        m.entry(r[col]).or_default().push(i);
    }
    m
}

/// Eq (1): `Q(A)` per pair `r ∈ R(A,B)`, `s ∈ S(B,C)` with `r.B = s.B`,
/// `s.C = c` and `r.A > k`.
pub fn eq1_join(r: &Rows, s: &Rows, c: i64, k: i64, emit: Emit) {
    for r in r.iter().filter(|r| r[0] > k) {
        for s in s {
            if r[1] == s[0] && s[1] == c {
                emit(&[Cell::Int(r[0])]);
            }
        }
    }
}

/// Primary-key join: `Q(empl,sal)` for `Emp ⋈ Sal` on `empl`, `sal > k`.
pub fn pk_join(emp: &Rows, sal: &Rows, k: i64, emit: Emit) {
    let by_empl = index(sal, 0);
    for e in emp {
        for &i in by_empl.get(&e[0]).map_or(&[][..], |v| v) {
            if sal[i][1] > k {
                emit(&[Cell::Int(e[0]), Cell::Int(sal[i][1])]);
            }
        }
    }
}

/// Eq (3) / Fig 4a: `Q(key, sum(val))` grouped by `key`, over the rows
/// whose `filter` column exceeds `k`.
pub fn group_sum(r: &Rows, key: usize, val: usize, filter: usize, k: i64, emit: Emit) {
    let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
    for r in r.iter().filter(|r| r[filter] > k) {
        *sums.entry(r[key]).or_insert(0) += r[val];
    }
    for (g, sm) in sums {
        emit(&[Cell::Int(g), Cell::Int(sm)]);
    }
}

/// Eq (7), the FOI pattern: per row with `filter > k`, `Q(row[out], sm)`
/// where `sm` sums `val` over *all* rows sharing the row's `key`.
pub fn foi_sum(r: &Rows, key: usize, val: usize, out: usize, filter: usize, k: i64, emit: Emit) {
    let mut sums: HashMap<i64, i64> = HashMap::new();
    for r in r {
        *sums.entry(r[key]).or_insert(0) += r[val];
    }
    for r in r.iter().filter(|r| r[filter] > k) {
        emit(&[Cell::Int(r[out]), Cell::Int(sums[&r[key]])]);
    }
}

/// Eq (8) / Fig 6a (and Eq (12), the same answer through two scopes):
/// `Q(dept, avg(sal))` for departments whose salary sum exceeds `k`.
pub fn dept_avg_having(emp: &Rows, sal: &Rows, k: i64, emit: Emit) {
    let by_empl = index(sal, 0);
    let mut depts: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for e in emp {
        for &i in by_empl.get(&e[0]).map_or(&[][..], |v| v) {
            let d = depts.entry(e[1]).or_insert((0, 0));
            d.0 += sal[i][1];
            d.1 += 1;
        }
    }
    for (dept, (sum, n)) in depts {
        if sum > k {
            emit(&[Cell::Int(dept), Cell::float(sum as f64 / n as f64)]);
        }
    }
}

/// Eq (17) / Fig 11, SQL's `NOT IN`: `Q(A)` for non-NULL `n.A > k` with no
/// equal `m.A` — and nothing at all once `M` holds a NULL.
pub fn not_in(n: &Rows, m: &Rows, k: i64, emit: Emit) {
    if m.iter().any(|m| m[0] == NULL) {
        return;
    }
    let inner: HashSet<i64> = m.iter().map(|m| m[0]).collect();
    for n in n {
        if n[0] != NULL && n[0] > k && !inner.contains(&n[0]) {
            emit(&[Cell::Int(n[0])]);
        }
    }
}

/// Eq (19): `Q(A)` per triple with `u.B - v.B > w.B` and `u.A > k`.
pub fn arith_3way(u: &Rows, v: &Rows, w: &Rows, k: i64, emit: Emit) {
    for u in u.iter().filter(|u| u[0] > k) {
        for v in v {
            for w in w {
                if u[1] - v[0] > w[0] {
                    emit(&[Cell::Int(u[0])]);
                }
            }
        }
    }
}

/// Eq (27)/(29), count-bug versions 1 and 3: `Q(id)` for `r.id > k` whose
/// `q` equals the number of `Sd` rows with that id — zero included.
pub fn count_v1(rq: &Rows, sd: &Rows, k: i64, emit: Emit) {
    let by_id = index(sd, 0);
    for r in rq.iter().filter(|r| r[0] > k) {
        if r[1] == by_id.get(&r[0]).map_or(0, |v| v.len() as i64) {
            emit(&[Cell::Int(r[0])]);
        }
    }
}

/// Eq (28), version 2 (the bug): ids without detail rows have no group,
/// so they can never match — even with `q = 0`.
pub fn count_v2(rq: &Rows, sd: &Rows, k: i64, emit: Emit) {
    let by_id = index(sd, 0);
    for r in rq.iter().filter(|r| r[0] > k) {
        if by_id.get(&r[0]).is_some_and(|v| v.len() as i64 == r[1]) {
            emit(&[Cell::Int(r[0])]);
        }
    }
}

/// `∃` / `¬∃` over a correlated scope: `Q(A)` for `r.A > k` that have
/// (`anti = false`) or lack (`anti = true`) an `s` with `s.B = r.B`,
/// `s.C > c`.
pub fn semi_join(r: &Rows, s: &Rows, c: i64, k: i64, anti: bool, emit: Emit) {
    let keys: HashSet<i64> = s.iter().filter(|s| s[1] > c).map(|s| s[0]).collect();
    for r in r.iter().filter(|r| r[0] > k) {
        if keys.contains(&r[1]) != anti {
            emit(&[Cell::Int(r[0])]);
        }
    }
}

/// Eq (16): `A(s,t)`, the transitive closure of `P`, seeded only by edges
/// with `s >= k` (the recursive rule extends at the front, unfiltered).
pub fn closure(p: &Rows, k: i64, emit: Emit) {
    let by_target = index(p, 1);
    let mut delta: Vec<(i64, i64)> = p
        .iter()
        .filter(|e| e[0] >= k)
        .map(|e| (e[0], e[1]))
        .collect();
    let mut a: BTreeSet<(i64, i64)> = delta.iter().copied().collect();
    while !delta.is_empty() {
        let mut fresh = Vec::new();
        for (z, y) in delta {
            for &i in by_target.get(&z).map_or(&[][..], |v| v) {
                if a.insert((p[i][0], y)) {
                    fresh.push((p[i][0], y));
                }
            }
        }
        delta = fresh;
    }
    for (s, t) in a {
        emit(&[Cell::Int(s), Cell::Int(t)]);
    }
}

/// Eq (22): `Q(d)` per `L(d,b)` row whose drinker likes a set of beers no
/// other drinker likes exactly.
pub fn unique_set(l: &Rows, emit: Emit) {
    let mut likes: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    for r in l {
        likes.entry(r[0]).or_default().insert(r[1]);
    }
    for r in l {
        let mine = &likes[&r[0]];
        if !likes.iter().any(|(d, set)| *d != r[0] && set == mine) {
            emit(&[Cell::Int(r[0])]);
        }
    }
}

/// A constant-filter scan: `Q(row[out])` for every row `keep` accepts.
pub fn scan(t: &Rows, out: usize, keep: impl Fn(&[i64]) -> bool, emit: Emit) {
    for r in t.iter().filter(|r| keep(r)) {
        emit(&[Cell::Int(r[out])]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(rows: &[&[i64]]) -> Vec<Vec<i64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    fn bag(produce: impl FnOnce(Emit)) -> Vec<Vec<Cell>> {
        let mut out = Vec::new();
        produce(&mut |row| out.push(row.to_vec()));
        out.sort_by_key(|r| format!("{r:?}"));
        out
    }

    fn int_rows(rows: &[&[i64]]) -> Vec<Vec<Cell>> {
        let mut out: Vec<Vec<Cell>> = rows
            .iter()
            .map(|r| r.iter().map(|&i| Cell::Int(i)).collect())
            .collect();
        out.sort_by_key(|r| format!("{r:?}"));
        out
    }

    #[test]
    fn fig2_eq1_on_the_paper_instance() {
        // Fig 2: R = {(1,10),(2,20),(3,30)}, S = {(10,0),(20,1),(30,0)}.
        let r = ints(&[&[1, 10], &[2, 20], &[3, 30]]);
        let s = ints(&[&[10, 0], &[20, 1], &[30, 0]]);
        assert_eq!(
            bag(|e| eq1_join(&r, &s, 0, ALL, e)),
            int_rows(&[&[1], &[3]])
        );
        assert_eq!(bag(|e| eq1_join(&r, &s, 0, 1, e)), int_rows(&[&[3]]));
    }

    #[test]
    fn fig4_and_fig5_sums_agree() {
        let r = ints(&[&[1, 10], &[1, 20], &[2, 5]]);
        assert_eq!(
            bag(|e| group_sum(&r, 0, 1, 0, ALL, e)),
            int_rows(&[&[1, 30], &[2, 5]])
        );
        // FOI emits once per outer row (bag), the same pairs as a set.
        assert_eq!(
            bag(|e| foi_sum(&r, 0, 1, 0, 0, ALL, e)),
            int_rows(&[&[1, 30], &[1, 30], &[2, 5]])
        );
    }

    #[test]
    fn fig6_department_average_with_having() {
        // Fig 6: dept 1 earns 50 + 60, dept 2 earns 40; HAVING sum > 100.
        let emp = ints(&[&[1, 1], &[2, 1], &[3, 2]]);
        let sal = ints(&[&[1, 50], &[2, 60], &[3, 40]]);
        assert_eq!(
            bag(|e| dept_avg_having(&emp, &sal, 100, e)),
            vec![vec![Cell::Int(1), Cell::float(55.0)]]
        );
    }

    #[test]
    fn fig21_count_bug_paper_instance() {
        // R = {(9,0)}, S = ∅: versions 1/3 keep 9, version 2 loses it.
        let rq = ints(&[&[9, 0]]);
        let sd = ints(&[]);
        assert_eq!(bag(|e| count_v1(&rq, &sd, ALL, e)), int_rows(&[&[9]]));
        assert_eq!(bag(|e| count_v2(&rq, &sd, ALL, e)), int_rows(&[]));
        // The non-degenerate Fig 9 instance: all three ids under v1.
        let rq = ints(&[&[1, 2], &[2, 1], &[3, 0]]);
        let sd = ints(&[&[1, 10], &[1, 11], &[2, 20]]);
        assert_eq!(
            bag(|e| count_v1(&rq, &sd, ALL, e)),
            int_rows(&[&[1], &[2], &[3]])
        );
        assert_eq!(bag(|e| count_v2(&rq, &sd, ALL, e)), int_rows(&[&[1], &[2]]));
    }

    #[test]
    fn fig11_not_in_with_nulls() {
        let n = ints(&[&[1], &[2], &[NULL], &[3]]);
        assert_eq!(
            bag(|e| not_in(&n, &ints(&[&[2]]), ALL, e)),
            int_rows(&[&[1], &[3]])
        );
        // One NULL on the inner side and NOT IN holds for nobody.
        assert_eq!(
            bag(|e| not_in(&n, &ints(&[&[2], &[NULL]]), ALL, e)),
            int_rows(&[])
        );
    }

    #[test]
    fn fig15_arithmetic_join() {
        // Fig 15: R = {(1,10),(2,5)}, S = {3}, T = {5}: 10-3 > 5, 5-3 < 5.
        let u = ints(&[&[1, 10], &[2, 5]]);
        assert_eq!(
            bag(|e| arith_3way(&u, &ints(&[&[3]]), &ints(&[&[5]]), ALL, e)),
            int_rows(&[&[1]])
        );
    }

    #[test]
    fn fig10_ancestor_chain() {
        let p = ints(&[&[1, 2], &[2, 3], &[3, 4]]);
        assert_eq!(bag(|e| closure(&p, ALL, e)).len(), 6);
        // Seeding from s >= 2 still extends backwards through (1,2).
        assert_eq!(
            bag(|e| closure(&p, 2, e)),
            int_rows(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4], &[3, 4]])
        );
    }

    #[test]
    fn beer_drinkers_unique_set() {
        // §2.13.2 with drinkers a=1, b=2, c=3: a and c like {1,2}, b {1}.
        let l = ints(&[&[1, 1], &[1, 2], &[2, 1], &[3, 1], &[3, 2]]);
        assert_eq!(bag(|e| unique_set(&l, e)), int_rows(&[&[2]]));
    }

    #[test]
    fn semi_and_anti_partition_the_outer_side() {
        let r = ints(&[&[1, 0], &[2, 1], &[3, 0], &[400, 1]]);
        let s = ints(&[&[0, 0], &[1, 1], &[0, 2], &[1, 0]]);
        assert_eq!(
            bag(|e| semi_join(&r, &s, 1, ALL, false, e)),
            int_rows(&[&[1], &[3]])
        );
        assert_eq!(
            bag(|e| semi_join(&r, &s, 1, ALL, true, e)),
            int_rows(&[&[2], &[400]])
        );
    }

    #[test]
    fn digest_is_order_independent_and_convention_aware() {
        let rows = [vec![Cell::Int(1)], vec![Cell::Int(2)], vec![Cell::Int(1)]];
        let fwd = digest(false, |e| rows.iter().for_each(|r| e(r)));
        let rev = digest(false, |e| rows.iter().rev().for_each(|r| e(r)));
        assert_eq!(fwd, rev);
        assert_eq!(fwd.rows, 3);
        let set = digest(true, |e| rows.iter().for_each(|r| e(r)));
        assert_eq!(set.rows, 2);
        assert_ne!(set.sum, fwd.sum);
        // Int 1, Float 1.0 and NULL are three different cells.
        let one = |c: Cell| digest(false, |e| e(&[c])).sum;
        assert_ne!(one(Cell::Int(1)), one(Cell::float(1.0)));
        assert_ne!(one(Cell::Int(0)), one(Cell::Null));
    }
}
