//! Seeded input generation: plain integer tables, nothing of the engine.
//!
//! The seed drives row order, id offsets and jitter, never a cardinality:
//! group sizes, join fan-outs and filter selectivities are the same for
//! every seed, so two seeds give different inputs but the same amount of
//! work (the driver compares runs across seeds).

/// The NULL marker inside generated tables (only `nested_rec`'s and
/// `adhoc_text`'s `N(A)` hold it).
pub const NULL: i64 = i64::MIN;

/// One generated base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    pub name: &'static str,
    pub cols: &'static [&'static str],
    pub rows: Vec<Vec<i64>>,
}

impl Table {
    fn new(name: &'static str, cols: &'static [&'static str], rows: Vec<Vec<i64>>) -> Table {
        Table { name, cols, rows }
    }
}

/// splitmix64: small, seedable, and good enough for shuffles and jitter.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn shuffled(rng: &mut Rng, mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rng.shuffle(&mut rows);
    rows
}

/// The one-row relation behind the `engine.fixed_us` probe; every catalog
/// carries it.
fn one() -> Table {
    Table::new("One", &["A"], vec![vec![1]])
}

/// `n` ascending ids spread over `0..n*stride` with seeded jitter, so a
/// uniform threshold constant is uniformly selective.
fn spread_ids(rng: &mut Rng, n: usize, stride: i64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| i * stride + rng.below(stride as u64))
        .collect()
}

// ---------------------------------------------------------------------------
// adhoc_text: paper-figure-sized relations (<= 64 rows each)
// ---------------------------------------------------------------------------

/// Ids of every `adhoc_text` relation spread over `0..ADHOC_ID_RANGE`.
pub const ADHOC_ID_RANGE: u64 = 960_000;

pub fn adhoc_tables(seed: u64) -> Vec<Table> {
    let rng = &mut Rng::new(seed, 1);
    let ids = |rng: &mut Rng, n: usize| spread_ids(rng, n, ADHOC_ID_RANGE as i64 / n as i64);

    let a = ids(rng, 32);
    let r = (0..32).map(|i| vec![a[i], i as i64 % 8]).collect();
    let s = (0..32).map(|i| vec![i % 8, (i / 8) % 4]).collect();

    // Four departments of six; salary sums sit around 6 x 55 000.
    let emp = (0..24).map(|i| vec![i + 1, i % 4]).collect();
    let sal = (0..24)
        .map(|i| vec![i + 1, 1000 * (40 + i % 30) + rng.below(1000)])
        .collect();

    // Count bug: id i has i % 4 detail rows; q matches on some of them.
    let id = ids(rng, 16);
    let rq = (0..16).map(|i| vec![id[i], (i as i64 / 4) % 4]).collect();
    let mut sd = Vec::new();
    for (i, id) in id.iter().enumerate() {
        for j in 0..(i as i64 % 4) {
            sd.push(vec![*id, 100 * i as i64 + j]);
        }
    }

    let ua = ids(rng, 12);
    let u = (0..12).map(|i| vec![ua[i], (i as i64 * 7) % 29]).collect();
    let v = (0..6).map(|i| vec![i % 5]).collect();
    let w = (0..6).map(|i| vec![2 * i]).collect();

    let na = ids(rng, 32);
    let n = (0..32)
        .map(|i| vec![if i % 8 == 7 { NULL } else { na[i] }])
        .collect();
    let m = (0..32).step_by(2).map(|i| vec![na[i]]).collect();

    // Three chains of four edges over ascending node ids.
    let nodes = ids(rng, 15);
    let mut p = Vec::new();
    for chain in 0..3 {
        for j in 0..4 {
            p.push(vec![nodes[chain * 5 + j], nodes[chain * 5 + j + 1]]);
        }
    }

    vec![
        Table::new("R", &["A", "B"], shuffled(rng, r)),
        Table::new("S", &["B", "C"], shuffled(rng, s)),
        Table::new("Emp", &["empl", "dept"], shuffled(rng, emp)),
        Table::new("Sal", &["empl", "sal"], shuffled(rng, sal)),
        Table::new("Rq", &["id", "q"], shuffled(rng, rq)),
        Table::new("Sd", &["id", "d"], shuffled(rng, sd)),
        Table::new("U", &["A", "B"], shuffled(rng, u)),
        Table::new("V", &["B"], shuffled(rng, v)),
        Table::new("W", &["B"], shuffled(rng, w)),
        Table::new("N", &["A"], shuffled(rng, n)),
        Table::new("M", &["A"], shuffled(rng, m)),
        Table::new("P", &["s", "t"], shuffled(rng, p)),
        one(),
    ]
}

// ---------------------------------------------------------------------------
// join_enum: mid-size relations, enumerate / probe / emit / dedup
// ---------------------------------------------------------------------------

pub const PK_ROWS: i64 = 16_384;
pub const PK_DEPTS: i64 = 64;
/// `Sal.sal > PK_SAL_GT` keeps 18 of every 30 salaries (9 830 rows).
pub const PK_SAL_GT: i64 = 51;
pub const FANOUT_ROWS: i64 = 1_024;
pub const GROUP_ROWS: i64 = 65_536;
pub const GROUP_KEYS: i64 = 256;
pub const ARITH_ROWS: i64 = 256;
pub const ARITH_SIDE: i64 = 24;

/// `Emp(empl,dept)` and `Sal(empl,sal)`: `n` employees over `depts`
/// departments, salaries 40..70, independently shuffled.
fn emp_sal(rng: &mut Rng, n: i64, depts: i64) -> (Table, Table) {
    let base = 1000 * rng.below(1000);
    let emp = (0..n).map(|i| vec![base + i, i % depts]).collect();
    let sal = (0..n).map(|i| vec![base + i, 40 + i % 30]).collect();
    (
        Table::new("Emp", &["empl", "dept"], shuffled(rng, emp)),
        Table::new("Sal", &["empl", "sal"], shuffled(rng, sal)),
    )
}

pub fn join_enum_tables(seed: u64) -> Vec<Table> {
    let rng = &mut Rng::new(seed, 2);
    let (emp, sal) = emp_sal(rng, PK_ROWS, PK_DEPTS);
    let base = 1000 * rng.below(1000);
    // Eq 1 fan-out: ten join keys, half of each key's S rows have C = 0.
    let r = (0..FANOUT_ROWS).map(|i| vec![base + i, i % 10]).collect();
    let s = (0..FANOUT_ROWS)
        .map(|i| vec![i % 10, (i / 10) % 2])
        .collect();
    let g = (0..GROUP_ROWS).map(|i| vec![i % GROUP_KEYS, i]).collect();
    let u = (0..ARITH_ROWS).map(|i| vec![base + i, i % 97]).collect();
    let v = (0..ARITH_SIDE).map(|i| vec![i % 13]).collect();
    let w = (0..ARITH_SIDE).map(|i| vec![i % 41]).collect();
    vec![
        emp,
        sal,
        Table::new("R", &["A", "B"], shuffled(rng, r)),
        Table::new("S", &["B", "C"], shuffled(rng, s)),
        Table::new("G", &["A", "B"], shuffled(rng, g)),
        Table::new("U", &["A", "B"], shuffled(rng, u)),
        Table::new("V", &["B"], shuffled(rng, v)),
        Table::new("W", &["B"], shuffled(rng, w)),
        one(),
    ]
}

// ---------------------------------------------------------------------------
// nested_rec: correlated scopes, outer joins, negation, recursion
// ---------------------------------------------------------------------------

pub const FOI_ROWS: i64 = 2_048;
pub const FOI_KEYS: i64 = 32;
pub const COUNT_ROWS: i64 = 512;
pub const NOT_IN_OUTER: i64 = 1_024;
pub const NOT_IN_INNER: i64 = 256;
pub const SEMI_OUTER: i64 = 8_192;
pub const SEMI_INNER: i64 = 1_024;
pub const REL_ROWS: i64 = 1_024;
pub const REL_DEPTS: i64 = 32;
pub const UNIQUE_DRINKERS: i64 = 20;
pub const CHAIN: i64 = 96;

pub fn nested_rec_tables(seed: u64) -> Vec<Table> {
    let rng = &mut Rng::new(seed, 3);
    let g = (0..FOI_ROWS).map(|i| vec![i % FOI_KEYS, i]).collect();

    // Count bug: id i has i % 4 detail rows; q matches on a quarter of them.
    let base = 1000 * rng.below(1000);
    let rq = (0..COUNT_ROWS)
        .map(|i| vec![base + i, (i / 4) % 4])
        .collect();
    let mut sd = Vec::new();
    for i in 0..COUNT_ROWS {
        for j in 0..i % 4 {
            sd.push(vec![base + i, 10 * i + j]);
        }
    }

    // NOT IN: every 16th outer value is NULL, the inner side holds every
    // fourth outer value and no NULL (one NULL there empties the answer).
    let n = (0..NOT_IN_OUTER)
        .map(|i| vec![if i % 16 == 15 { NULL } else { base + i }])
        .collect();
    let m = (0..NOT_IN_INNER).map(|i| vec![base + 4 * i]).collect();

    // Semi/anti join: 16 heavy keys; `C` is unique on the inner side.
    let big = (0..SEMI_OUTER).map(|i| vec![base + i, i % 16]).collect();
    let small = (0..SEMI_INNER).map(|i| vec![i % 16, i]).collect();

    let (emp, sal) = emp_sal(rng, REL_ROWS, REL_DEPTS);

    // Unique-set: drinker d likes beers {d % 5, .., d % 5 + d % 3}; several
    // drinkers share a set, several do not.
    let mut l = Vec::new();
    for d in 0..UNIQUE_DRINKERS {
        for b in 0..=(d % 3) {
            l.push(vec![base + d, d % 5 + b]);
        }
    }
    l.push(vec![base + UNIQUE_DRINKERS, 40]);

    let mut nodes: Vec<i64> = (0..=CHAIN).map(|i| base + i).collect();
    rng.shuffle(&mut nodes);
    let p = (0..CHAIN as usize)
        .map(|i| vec![nodes[i], nodes[i + 1]])
        .collect();

    vec![
        Table::new("G", &["A", "B"], shuffled(rng, g)),
        Table::new("Rq", &["id", "q"], shuffled(rng, rq)),
        Table::new("Sd", &["id", "d"], shuffled(rng, sd)),
        Table::new("N", &["A"], shuffled(rng, n)),
        Table::new("M", &["A"], shuffled(rng, m)),
        Table::new("Big", &["A", "B"], shuffled(rng, big)),
        Table::new("Small", &["B", "C"], shuffled(rng, small)),
        emp,
        sal,
        Table::new("L", &["d", "b"], shuffled(rng, l)),
        Table::new("P", &["s", "t"], shuffled(rng, p)),
        one(),
    ]
}

/// The paper's count-bug instance (Fig 21): `R = {(9,0)}`, `S = ∅`.
pub fn count_bug_paper_tables() -> Vec<Table> {
    vec![
        Table::new("Rq", &["id", "q"], vec![vec![9, 0]]),
        Table::new("Sd", &["id", "d"], vec![]),
    ]
}

// ---------------------------------------------------------------------------
// load_scan: one wide relation, rebuilt every round
// ---------------------------------------------------------------------------

pub const SCAN_ROWS: i64 = 131_072;

/// `T(A,B,C)`: `A = i mod 8` (equality prefix), `B` unique and dense
/// (range column), `C` a seeded permutation mod 1000 (filter column).
pub fn load_scan_tables(seed: u64) -> Vec<Table> {
    let rng = &mut Rng::new(seed, 4);
    let base = 1000 * rng.below(1000);
    let mut perm: Vec<i64> = (0..SCAN_ROWS).collect();
    rng.shuffle(&mut perm);
    let t = (0..SCAN_ROWS)
        .map(|i| vec![i % 8, base + i, perm[i as usize] % 1000])
        .collect();
    vec![Table::new("T", &["A", "B", "C"], shuffled(rng, t)), one()]
}

/// The smallest `B` of [`load_scan_tables`] (its seeded offset).
pub fn scan_base(t: &Table) -> i64 {
    t.rows.iter().map(|r| r[1]).min().unwrap_or(0)
}

/// Rows of `name` in a generated table set.
pub fn rows<'t>(tables: &'t [Table], name: &str) -> &'t [Vec<i64>] {
    &tables
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("generator bug: no table {name}"))
        .rows
}
