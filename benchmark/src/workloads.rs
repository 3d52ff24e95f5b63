//! The four workloads: which statements a round runs, as **text**, and
//! what each must return.
//!
//! `adhoc_text` regenerates its statements every round (distinct texts,
//! plan-cache misses); the other three repeat a fixed list (plan-cache
//! hits). Sizes are the constants in [`crate::gen`], never calibrated at
//! run time.

use crate::gen::{self, rows, Rng, Table};
use crate::reference::{self as rf, digest, Cell, Digest, ALL};

/// Which frontend a statement's text goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// `arc_parser::parse_collection`.
    Arc,
    /// `arc_parser::parse_program` (definitions, recursion).
    ArcProgram,
    /// `arc_sql::{parse_sql, lower_query}`.
    Sql,
    /// `arc_datalog::{parse_datalog, lower_program}`.
    Datalog,
}

impl Frontend {
    pub fn name(self) -> &'static str {
        match self {
            Frontend::Arc | Frontend::ArcProgram => "arc",
            Frontend::Sql => "sql",
            Frontend::Datalog => "datalog",
        }
    }
}

/// The convention profile a statement is evaluated under (paper §2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conv {
    /// `Conventions::set()` — how the paper reads comprehension syntax.
    Set,
    /// `Conventions::sql()` — bag semantics.
    Sql,
    /// `Conventions::souffle()` — what Datalog text means.
    Souffle,
}

impl Conv {
    pub fn is_set(self) -> bool {
        !matches!(self, Conv::Sql)
    }
}

/// One statement of a round.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub id: &'static str,
    pub frontend: Frontend,
    pub conv: Conv,
    /// The definition that holds the answer when the text is a program
    /// without a query (Datalog, recursive ARC).
    pub head: &'static str,
    pub text: String,
    /// Reference result under `conv`.
    pub expect: Digest,
}

impl Stmt {
    fn new(
        id: &'static str,
        frontend: Frontend,
        conv: Conv,
        text: String,
        reference: impl FnOnce(&mut dyn FnMut(&[Cell])),
    ) -> Stmt {
        Stmt {
            id,
            frontend,
            conv,
            head: "Q",
            text,
            expect: digest(conv.is_set(), reference),
        }
    }

    fn with_head(mut self, head: &'static str) -> Stmt {
        self.head = head;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocText,
    JoinEnum,
    NestedRec,
    LoadScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AdhocText,
        Workload::JoinEnum,
        Workload::NestedRec,
        Workload::LoadScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocText => "adhoc_text",
            Workload::JoinEnum => "join_enum",
            Workload::NestedRec => "nested_rec",
            Workload::LoadScan => "load_scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn tables(self, seed: u64) -> Vec<Table> {
        match self {
            Workload::AdhocText => gen::adhoc_tables(seed),
            Workload::JoinEnum => gen::join_enum_tables(seed),
            Workload::NestedRec => gen::nested_rec_tables(seed),
            Workload::LoadScan => gen::load_scan_tables(seed),
        }
    }

    /// The statements of round `round`. Only `adhoc_text` depends on the
    /// round number (and on the seed beyond the tables).
    pub fn round(self, tables: &[Table], seed: u64, round: u64) -> Vec<Stmt> {
        match self {
            Workload::AdhocText => adhoc_round(tables, seed, round),
            Workload::JoinEnum => join_enum_stmts(tables),
            Workload::NestedRec => nested_rec_stmts(tables),
            Workload::LoadScan => load_scan_stmts(tables),
        }
    }

    /// The sizes behind a result, for the report.
    pub fn sizes(self) -> String {
        match self {
            Workload::AdhocText => format!(
                "{ADHOC_STMTS} distinct statements per round over relations of at most 32 rows"
            ),
            Workload::JoinEnum => format!(
                "7 statements: pk join {} x {}, fan-out {} x {}, {} rows / {} groups, \
                 arithmetic {} x {} x {}",
                gen::PK_ROWS,
                gen::PK_ROWS,
                gen::FANOUT_ROWS,
                gen::FANOUT_ROWS,
                gen::GROUP_ROWS,
                gen::GROUP_KEYS,
                gen::ARITH_ROWS,
                gen::ARITH_SIDE,
                gen::ARITH_SIDE
            ),
            Workload::NestedRec => format!(
                "10 statements: FOI {} / {}, count bug {}, NOT IN {} x {}, semi/anti {} x {}, \
                 Rel {} / {}, chain {}",
                gen::FOI_ROWS,
                gen::FOI_KEYS,
                gen::COUNT_ROWS,
                gen::NOT_IN_OUTER,
                gen::NOT_IN_INNER,
                gen::SEMI_OUTER,
                gen::SEMI_INNER,
                gen::REL_ROWS,
                gen::REL_DEPTS,
                gen::CHAIN
            ),
            Workload::LoadScan => format!(
                "{} rows loaded per round, 4 scans first-touch then {SCAN_REPEATS} times cached",
                gen::SCAN_ROWS
            ),
        }
    }

    /// Statement ids whose `stmt.<id>_ms` rows the per-layer output has.
    pub fn stmt_ids(self) -> &'static [&'static str] {
        match self {
            Workload::AdhocText => &[],
            Workload::JoinEnum => &[
                "pk_join",
                "pk_join_dl",
                "fanout_join_bag",
                "fanout_join_set",
                "group_sum",
                "join_group_having",
                "arith_3way",
            ],
            Workload::NestedRec => &[
                "foi_sum",
                "count_v1",
                "count_v2",
                "count_v3_left_join",
                "not_in_nulls",
                "exists_semi",
                "not_exists_anti",
                "rel_pattern",
                "unique_set",
                "ancestor",
            ],
            Workload::LoadScan => &[
                "filter_narrow_first",
                "range_tail_first",
                "prefix_eq_range_first",
                "filter_wide_first",
                "filter_narrow_repeat",
                "range_tail_repeat",
                "prefix_eq_range_repeat",
                "filter_wide_repeat",
            ],
        }
    }
}

/// `.decl` lines for the named generated tables.
fn decls(tables: &[Table], names: &[&str]) -> String {
    let mut out = String::new();
    for name in names {
        let t = tables
            .iter()
            .find(|t| t.name == *name)
            .unwrap_or_else(|| panic!("generator bug: no table {name}"));
        let attrs: Vec<String> = t.cols.iter().map(|c| format!("{c}: number")).collect();
        out.push_str(&format!(".decl {}({})\n", t.name, attrs.join(", ")));
    }
    out
}

// ---------------------------------------------------------------------------
// Statement texts shared between workloads (the paper's equations)
// ---------------------------------------------------------------------------

const EQ1: &str = "{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}";
const EQ19: &str = "{Q(A) | ∃r ∈ U, s ∈ V, t ∈ W [Q.A = r.A ∧ r.B - s.B > t.B]}";
const FIG6A: &str = "select Emp.dept, avg(Sal.sal) av from Emp, Sal \
     where Emp.empl = Sal.empl group by Emp.dept having sum(Sal.sal) > 100";
const EQ27: &str =
    "{Q(id) | ∃r ∈ Rq [Q.id = r.id ∧ ∃s ∈ Sd, γ ∅ [s.id = r.id ∧ r.q = count(s.d)]]}";
const EQ28: &str = "{Q(id) | ∃r ∈ Rq, x ∈ {X(id,ct) | ∃s ∈ Sd, γ s.id \
     [X.id = s.id ∧ X.ct = count(s.d)]} [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct]}";
const FIG21_V3: &str = "select Rq.id from Rq, (select R2.id, count(Sd.d) as ct \
     from Rq R2 left join Sd on R2.id = Sd.id group by R2.id) as X \
     where Rq.q = X.ct and Rq.id = X.id";

// ---------------------------------------------------------------------------
// join_enum
// ---------------------------------------------------------------------------

fn join_enum_stmts(t: &[Table]) -> Vec<Stmt> {
    let (emp, sal) = (rows(t, "Emp"), rows(t, "Sal"));
    let (r, s) = (rows(t, "R"), rows(t, "S"));
    let k = gen::PK_SAL_GT;
    vec![
        Stmt::new(
            "pk_join",
            Frontend::Sql,
            Conv::Sql,
            format!(
                "select Emp.empl, Sal.sal from Emp, Sal \
                 where Emp.empl = Sal.empl and Sal.sal > {k}"
            ),
            |e| rf::pk_join(emp, sal, k, e),
        ),
        Stmt::new(
            "pk_join_dl",
            Frontend::Datalog,
            Conv::Souffle,
            format!(
                "{}.decl Q(empl: number, sal: number)\n\
                 Q(e, s) :- Emp(e, _), Sal(e, s), s > {k}.\n",
                decls(t, &["Emp", "Sal"])
            ),
            |e| rf::pk_join(emp, sal, k, e),
        ),
        Stmt::new(
            "fanout_join_bag",
            Frontend::Arc,
            Conv::Sql,
            EQ1.into(),
            |e| rf::eq1_join(r, s, 0, ALL, e),
        ),
        Stmt::new(
            "fanout_join_set",
            Frontend::Arc,
            Conv::Set,
            EQ1.into(),
            |e| rf::eq1_join(r, s, 0, ALL, e),
        ),
        Stmt::new(
            "group_sum",
            Frontend::Sql,
            Conv::Sql,
            "select G.A, sum(G.B) sm from G group by G.A".into(),
            |e| rf::group_sum(rows(t, "G"), 0, 1, 0, ALL, e),
        ),
        Stmt::new(
            "join_group_having",
            Frontend::Sql,
            Conv::Sql,
            FIG6A.into(),
            |e| rf::dept_avg_having(emp, sal, 100, e),
        ),
        Stmt::new("arith_3way", Frontend::Arc, Conv::Sql, EQ19.into(), |e| {
            rf::arith_3way(rows(t, "U"), rows(t, "V"), rows(t, "W"), ALL, e)
        }),
    ]
}

// ---------------------------------------------------------------------------
// nested_rec
// ---------------------------------------------------------------------------

fn count_stmts(t: &[Table]) -> Vec<Stmt> {
    let (rq, sd) = (rows(t, "Rq"), rows(t, "Sd"));
    vec![
        Stmt::new("count_v1", Frontend::Arc, Conv::Sql, EQ27.into(), |e| {
            rf::count_v1(rq, sd, ALL, e)
        }),
        Stmt::new("count_v2", Frontend::Arc, Conv::Sql, EQ28.into(), |e| {
            rf::count_v2(rq, sd, ALL, e)
        }),
        Stmt::new(
            "count_v3_left_join",
            Frontend::Sql,
            Conv::Sql,
            FIG21_V3.into(),
            |e| rf::count_v1(rq, sd, ALL, e),
        ),
    ]
}

/// The paper's Fig 21 instance (`R = {(9,0)}`, `S = ∅`) with the three
/// count-bug statements: versions 1 and 3 must return `{9}`, version 2
/// nothing. Checked by `nested_rec`'s verify pass.
pub fn count_bug_paper_case() -> (Vec<Table>, Vec<Stmt>) {
    let tables = gen::count_bug_paper_tables();
    let stmts = count_stmts(&tables);
    (tables, stmts)
}

fn nested_rec_stmts(t: &[Table]) -> Vec<Stmt> {
    let (big, small) = (rows(t, "Big"), rows(t, "Small"));
    let c = gen::SEMI_INNER - 5;
    let mut out = vec![Stmt::new(
        "foi_sum",
        Frontend::Arc,
        Conv::Sql,
        "{Q(A,sm) | ∃r ∈ G, x ∈ {X(sm) | ∃r2 ∈ G, γ ∅ [r2.A = r.A ∧ X.sm = sum(r2.B)]} \
         [Q.A = r.A ∧ Q.sm = x.sm]}"
            .into(),
        |e| rf::foi_sum(rows(t, "G"), 0, 1, 0, 0, ALL, e),
    )];
    out.extend(count_stmts(t));
    out.extend([
        Stmt::new(
            "not_in_nulls",
            Frontend::Sql,
            Conv::Sql,
            "select N.A from N where N.A not in (select M.A from M)".into(),
            |e| rf::not_in(rows(t, "N"), rows(t, "M"), ALL, e),
        ),
        Stmt::new(
            "exists_semi",
            Frontend::Arc,
            Conv::Sql,
            format!("{{Q(A) | ∃r ∈ Big [Q.A = r.A ∧ ∃s ∈ Small [s.B = r.B ∧ s.C > {c}]]}}"),
            |e| rf::semi_join(big, small, c, ALL, false, e),
        ),
        Stmt::new(
            "not_exists_anti",
            Frontend::Arc,
            Conv::Sql,
            format!("{{Q(A) | ∃r ∈ Big [Q.A = r.A ∧ ¬(∃s ∈ Small [s.B = r.B ∧ s.C > {c}])]}}"),
            |e| rf::semi_join(big, small, c, ALL, true, e),
        ),
        Stmt::new(
            "rel_pattern",
            Frontend::Arc,
            Conv::Sql,
            "{Q(dept,av) | ∃x ∈ {X(dept,av) | ∃r1 ∈ Emp, s1 ∈ Sal, γ r1.dept \
             [X.dept = r1.dept ∧ r1.empl = s1.empl ∧ X.av = avg(s1.sal)]}, \
             y ∈ {Y(dept,sm) | ∃r2 ∈ Emp, s2 ∈ Sal, γ r2.dept \
             [Y.dept = r2.dept ∧ r2.empl = s2.empl ∧ Y.sm = sum(s2.sal)]} \
             [Q.dept = x.dept ∧ Q.av = x.av ∧ x.dept = y.dept ∧ y.sm > 100]}"
                .into(),
            |e| rf::dept_avg_having(rows(t, "Emp"), rows(t, "Sal"), 100, e),
        ),
        Stmt::new(
            "unique_set",
            Frontend::Arc,
            Conv::Set,
            "{Q(d) | ∃l1 ∈ L [Q.d = l1.d ∧ ¬(∃l2 ∈ L [l2.d <> l1.d ∧ \
             ¬(∃l3 ∈ L [l3.d = l2.d ∧ ¬(∃l4 ∈ L [l4.b = l3.b ∧ l4.d = l1.d])]) ∧ \
             ¬(∃l5 ∈ L [l5.d = l1.d ∧ ¬(∃l6 ∈ L [l6.d = l2.d ∧ l6.b = l5.b])])])]}"
                .into(),
            |e| rf::unique_set(rows(t, "L"), e),
        ),
        Stmt::new(
            "ancestor",
            Frontend::Datalog,
            Conv::Souffle,
            format!(
                "{}.decl A(s: number, t: number)\n\
                 A(x, y) :- P(x, y).\n\
                 A(x, y) :- P(x, z), A(z, y).\n",
                decls(t, &["P"])
            ),
            |e| rf::closure(rows(t, "P"), ALL, e),
        )
        .with_head("A"),
    ]);
    out
}

// ---------------------------------------------------------------------------
// load_scan
// ---------------------------------------------------------------------------

/// How often each scan statement repeats after its first touch.
pub const SCAN_REPEATS: usize = 8;

/// First-touch statements (four), then [`SCAN_REPEATS`] cached passes.
fn load_scan_stmts(tables: &[Table]) -> Vec<Stmt> {
    let table = &tables[0];
    let t = &table.rows[..];
    let hi = gen::scan_base(table) + gen::SCAN_ROWS - 64;
    let pass = |ids: [&'static str; 4]| {
        vec![
            Stmt::new(
                ids[0],
                Frontend::Arc,
                Conv::Sql,
                "{Q(B) | ∃t ∈ T [Q.B = t.B ∧ t.C > 995]}".into(),
                |e| rf::scan(t, 1, |r| r[2] > 995, e),
            ),
            Stmt::new(
                ids[1],
                Frontend::Sql,
                Conv::Sql,
                format!("select T.B from T where T.B > {hi}"),
                |e| rf::scan(t, 1, |r| r[1] > hi, e),
            ),
            Stmt::new(
                ids[2],
                Frontend::Arc,
                Conv::Sql,
                format!("{{Q(B) | ∃t ∈ T [Q.B = t.B ∧ t.A = 3 ∧ t.B > {hi} ∧ t.C <> 1]}}"),
                |e| rf::scan(t, 1, |r| r[0] == 3 && r[1] > hi && r[2] != 1, e),
            ),
            Stmt::new(
                ids[3],
                Frontend::Sql,
                Conv::Sql,
                "select T.B from T where T.C > 500".into(),
                |e| rf::scan(t, 1, |r| r[2] > 500, e),
            ),
        ]
    };
    let mut out = pass([
        "filter_narrow_first",
        "range_tail_first",
        "prefix_eq_range_first",
        "filter_wide_first",
    ]);
    let repeat = pass([
        "filter_narrow_repeat",
        "range_tail_repeat",
        "prefix_eq_range_repeat",
        "filter_wide_repeat",
    ]);
    for _ in 0..SCAN_REPEATS {
        out.extend(repeat.iter().cloned());
    }
    out
}

// ---------------------------------------------------------------------------
// adhoc_text
// ---------------------------------------------------------------------------

/// Statements per `adhoc_text` round.
pub const ADHOC_STMTS: usize = 2_400;

/// The twelve paper-shaped templates.
pub const TEMPLATES: [&str; 12] = [
    "eq1_join",
    "eq3_group",
    "eq7_foi",
    "eq8_having",
    "eq17_not_in",
    "eq19_arith",
    "count_v1",
    "count_v2",
    "count_v3",
    "exists_semi",
    "not_exists_anti",
    "reach_rec",
];

/// The three surface languages, with their share of a round.
pub const LANGUAGES: [(Frontend, u64); 3] = [
    (Frontend::Arc, 50),
    (Frontend::Sql, 30),
    (Frontend::Datalog, 20),
];

/// Why a language has no spelling of a template — `None` when it has one.
pub fn unsupported(template: &str, language: Frontend) -> Option<&'static str> {
    match (language, template) {
        (Frontend::Sql, "reach_rec") => Some("the SQL subset has no recursive query"),
        (Frontend::Datalog, "eq17_not_in") => Some("Datalog has no NULL"),
        (Frontend::Datalog, "eq19_arith") => Some("the Datalog parser has no arithmetic terms"),
        (Frontend::Datalog, "count_v3") => Some("Datalog has no outer join"),
        (Frontend::Datalog, "count_v2" | "not_exists_anti") => Some(
            "needs an auxiliary IDB relation, and a definition that reads another \
             non-recursive definition fails today with `unknown relation`",
        ),
        _ => None,
    }
}

/// One template instance in one language: the text and its conventions,
/// or `None` where [`unsupported`] says so.
fn spelling(
    tables: &[Table],
    template: &str,
    language: Frontend,
    c: i64,
    k: i64,
) -> Option<(Frontend, Conv, String)> {
    if unsupported(template, language).is_some() {
        return None;
    }
    let dl = |used: &[&str], rules: String| {
        (
            Frontend::Datalog,
            Conv::Souffle,
            format!("{}{rules}", decls(tables, used)),
        )
    };
    let arc = |text: String| (Frontend::Arc, Conv::Set, text);
    let sql = |text: String| (Frontend::Sql, Conv::Sql, text);
    Some(match (template, language) {
        ("eq1_join", Frontend::Arc) => arc(format!(
            "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = {c} ∧ r.A > {k}]}}"
        )),
        ("eq1_join", Frontend::Sql) => sql(format!(
            "select R.A from R, S where R.B = S.B and S.C = {c} and R.A > {k}"
        )),
        ("eq1_join", _) => dl(
            &["R", "S"],
            format!(".decl Q(A: number)\nQ(a) :- R(a, b), S(b, {c}), a > {k}.\n"),
        ),
        ("eq3_group", Frontend::Arc) => arc(format!(
            "{{Q(B,sm) | ∃r ∈ R, γ r.B [Q.B = r.B ∧ Q.sm = sum(r.A) ∧ r.A > {k}]}}"
        )),
        ("eq3_group", Frontend::Sql) => sql(format!(
            "select R.B, sum(R.A) sm from R where R.A > {k} group by R.B"
        )),
        ("eq3_group", _) => dl(
            &["R"],
            format!(
                ".decl Q(B: number, sm: number)\n\
                 Q(b, sm) :- R(a0, b), a0 > {k}, sm = sum a : {{R(a, b), a > {k}}}.\n"
            ),
        ),
        ("eq7_foi", Frontend::Arc) => arc(format!(
            "{{Q(A,sm) | ∃r ∈ R, x ∈ {{X(sm) | ∃r2 ∈ R, γ ∅ [r2.B = r.B ∧ X.sm = sum(r2.A)]}} \
             [Q.A = r.A ∧ Q.sm = x.sm ∧ r.A > {k}]}}"
        )),
        ("eq7_foi", Frontend::Sql) => sql(format!(
            "select R.A, (select sum(R2.A) sm from R R2 where R2.B = R.B) from R where R.A > {k}"
        )),
        ("eq7_foi", _) => dl(
            &["R"],
            format!(
                ".decl Q(A: number, sm: number)\n\
                 Q(a, sm) :- R(a, b), a > {k}, sm = sum a2 : {{R(a2, b)}}.\n"
            ),
        ),
        ("eq8_having", Frontend::Arc) => arc(format!(
            "{{Q(dept,av) | ∃x ∈ {{X(dept,av,sm) | ∃r ∈ Emp, s ∈ Sal, γ r.dept \
             [X.dept = r.dept ∧ X.av = avg(s.sal) ∧ X.sm = sum(s.sal) ∧ r.empl = s.empl]}} \
             [Q.dept = x.dept ∧ Q.av = x.av ∧ x.sm > {k}]}}"
        )),
        ("eq8_having", Frontend::Sql) => sql(format!(
            "select Emp.dept, avg(Sal.sal) av from Emp, Sal where Emp.empl = Sal.empl \
             group by Emp.dept having sum(Sal.sal) > {k}"
        )),
        // Datalog spells it as the paper's Eq (10): one scope per aggregate.
        ("eq8_having", _) => dl(
            &["Emp", "Sal"],
            format!(
                ".decl Q(dept: number, av: number)\n\
                 Q(d, av) :- Emp(_, d), av = mean s : {{Emp(e, d), Sal(e, s)}}, \
                 sm = sum s2 : {{Emp(e2, d), Sal(e2, s2)}}, sm > {k}.\n"
            ),
        ),
        ("eq17_not_in", Frontend::Arc) => arc(format!(
            "{{Q(A) | ∃r ∈ N [Q.A = r.A ∧ r.A > {k} ∧ \
             ¬(∃s ∈ M [s.A = r.A ∨ s.A is null ∨ r.A is null])]}}"
        )),
        ("eq17_not_in", _) => sql(format!(
            "select N.A from N where N.A not in (select M.A from M) and N.A > {k}"
        )),
        ("eq19_arith", Frontend::Arc) => arc(format!(
            "{{Q(A) | ∃r ∈ U, s ∈ V, t ∈ W [Q.A = r.A ∧ r.B - s.B > t.B ∧ r.A > {k}]}}"
        )),
        ("eq19_arith", _) => sql(format!(
            "select U.A from U, V, W where U.B - V.B > W.B and U.A > {k}"
        )),
        ("count_v1", Frontend::Arc) => arc(format!(
            "{{Q(id) | ∃r ∈ Rq [Q.id = r.id ∧ r.id > {k} ∧ \
             ∃s ∈ Sd, γ ∅ [s.id = r.id ∧ r.q = count(s.d)]]}}"
        )),
        ("count_v1", Frontend::Sql) => sql(format!(
            "select Rq.id from Rq where Rq.q = \
             (select count(Sd.d) from Sd where Sd.id = Rq.id) and Rq.id > {k}"
        )),
        ("count_v1", _) => dl(
            &["Rq", "Sd"],
            format!(
                ".decl Q(id: number)\n\
                 Q(i) :- Rq(i, q), i > {k}, c = count : {{Sd(i, _)}}, c = q.\n"
            ),
        ),
        ("count_v2", Frontend::Arc) => arc(format!(
            "{{Q(id) | ∃r ∈ Rq, x ∈ {{X(id,ct) | ∃s ∈ Sd, γ s.id \
             [X.id = s.id ∧ X.ct = count(s.d)]}} \
             [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct ∧ r.id > {k}]}}"
        )),
        ("count_v2", _) => sql(format!(
            "select Rq.id from Rq, (select Sd.id, count(Sd.d) as ct from Sd group by Sd.id) \
             as X where Rq.q = X.ct and Rq.id = X.id and Rq.id > {k}"
        )),
        ("count_v3", Frontend::Arc) => arc(format!(
            "{{Q(id) | ∃r ∈ Rq, x ∈ {{X(id,ct) | ∃s ∈ Sd, r2 ∈ Rq, γ r2.id, left(r2, s) \
             [X.id = r2.id ∧ X.ct = count(s.d) ∧ r2.id = s.id]}} \
             [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct ∧ r.id > {k}]}}"
        )),
        ("count_v3", _) => sql(format!("{FIG21_V3} and Rq.id > {k}")),
        ("exists_semi", Frontend::Arc) => arc(format!(
            "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > {k} ∧ ∃s ∈ S [s.B = r.B ∧ s.C > {c}]]}}"
        )),
        ("exists_semi", Frontend::Sql) => sql(format!(
            "select R.A from R where exists \
             (select S.B from S where S.B = R.B and S.C > {c}) and R.A > {k}"
        )),
        ("exists_semi", _) => dl(
            &["R", "S"],
            format!(".decl Q(A: number)\nQ(a) :- R(a, b), a > {k}, S(b, c), c > {c}.\n"),
        ),
        ("not_exists_anti", Frontend::Arc) => arc(format!(
            "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > {k} ∧ ¬(∃s ∈ S [s.B = r.B ∧ s.C > {c}])]}}"
        )),
        ("not_exists_anti", _) => sql(format!(
            "select R.A from R where not exists \
             (select S.B from S where S.B = R.B and S.C > {c}) and R.A > {k}"
        )),
        ("reach_rec", Frontend::Arc) => (
            Frontend::ArcProgram,
            Conv::Set,
            format!(
                "{{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s >= {k}] ∨ \
                 ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}};"
            ),
        ),
        ("reach_rec", _) => dl(
            &["P"],
            format!(
                ".decl A(s: number, t: number)\n\
                 A(x, y) :- P(x, y), x >= {k}.\n\
                 A(x, y) :- P(x, z), A(z, y).\n"
            ),
        ),
        (other, _) => panic!("generator bug: unknown template {other}"),
    })
}

/// The reference answer of a template instance, as a bag.
fn template_reference(t: &[Table], template: &str, c: i64, k: i64, e: &mut dyn FnMut(&[Cell])) {
    let (r, s) = (rows(t, "R"), rows(t, "S"));
    let (rq, sd) = (rows(t, "Rq"), rows(t, "Sd"));
    match template {
        "eq1_join" => rf::eq1_join(r, s, c, k, e),
        "eq3_group" => rf::group_sum(r, 1, 0, 0, k, e),
        "eq7_foi" => rf::foi_sum(r, 1, 0, 0, 0, k, e),
        "eq8_having" => rf::dept_avg_having(rows(t, "Emp"), rows(t, "Sal"), k, e),
        "eq17_not_in" => rf::not_in(rows(t, "N"), rows(t, "M"), k, e),
        "eq19_arith" => rf::arith_3way(rows(t, "U"), rows(t, "V"), rows(t, "W"), k, e),
        "count_v1" | "count_v3" => rf::count_v1(rq, sd, k, e),
        "count_v2" => rf::count_v2(rq, sd, k, e),
        "exists_semi" => rf::semi_join(r, s, c, k, false, e),
        "not_exists_anti" => rf::semi_join(r, s, c, k, true, e),
        "reach_rec" => rf::closure(rows(t, "P"), k, e),
        other => panic!("generator bug: unknown template {other}"),
    }
}

/// Seeded constants of a template instance: `c` is a small selective
/// constant, `k` a threshold drawn uniformly over the column it filters.
fn constants(template: &str, rng: &mut Rng) -> (i64, i64) {
    let c = rng.below(4);
    let k = match template {
        // Department salary sums sit around 6 × 55 000.
        "eq8_having" => 250_000 + rng.below(160_000),
        _ => rng.below(gen::ADHOC_ID_RANGE),
    };
    (c, k)
}

fn instance(
    tables: &[Table],
    template: &'static str,
    language: Frontend,
    c: i64,
    k: i64,
) -> Option<Stmt> {
    let (frontend, conv, text) = spelling(tables, template, language, c, k)?;
    let head = if template == "reach_rec" { "A" } else { "Q" };
    Some(
        Stmt::new(template, frontend, conv, text, |e| {
            template_reference(tables, template, c, k, e)
        })
        .with_head(head),
    )
}

/// Templates a language can spell.
pub fn templates_of(language: Frontend) -> Vec<&'static str> {
    TEMPLATES
        .into_iter()
        .filter(|t| unsupported(t, language).is_none())
        .collect()
}

/// Round `round` of `adhoc_text`: [`ADHOC_STMTS`] statements with fresh
/// constants, the language drawn first ([`LANGUAGES`] shares), then a
/// template that language can spell.
fn adhoc_round(tables: &[Table], seed: u64, round: u64) -> Vec<Stmt> {
    let rng = &mut Rng::new(seed, 1000 + round);
    let per_language: Vec<Vec<&'static str>> =
        LANGUAGES.iter().map(|(l, _)| templates_of(*l)).collect();
    (0..ADHOC_STMTS)
        .map(|_| {
            let mut pick = rng.below(100) as u64;
            let mut lang = 0;
            while pick >= LANGUAGES[lang].1 {
                pick -= LANGUAGES[lang].1;
                lang += 1;
            }
            let choices = &per_language[lang];
            let template = choices[rng.below(choices.len() as u64) as usize];
            let (c, k) = constants(template, rng);
            instance(tables, template, LANGUAGES[lang].0, c, k)
                .expect("templates_of lists only what the language spells")
        })
        .collect()
}

/// For the verify pass: every template with `draws` constant draws, each
/// in **all** the languages that can spell it, so the spellings of one
/// instance can be compared with each other as well as with the reference.
pub fn adhoc_cross_check(tables: &[Table], seed: u64, draws: usize) -> Vec<Vec<Stmt>> {
    let rng = &mut Rng::new(seed, 999);
    let mut groups = Vec::new();
    for template in TEMPLATES {
        for _ in 0..draws {
            let (c, k) = constants(template, rng);
            groups.push(
                LANGUAGES
                    .iter()
                    .filter_map(|(l, _)| instance(tables, template, *l, c, k))
                    .collect(),
            );
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(w: Workload, seed: u64, round: u64) -> Vec<String> {
        let tables = w.tables(seed);
        w.round(&tables, seed, round)
            .into_iter()
            .map(|s| s.text)
            .collect()
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_do_not() {
        for w in Workload::ALL {
            assert_eq!(w.tables(7), w.tables(7), "{}", w.name());
            assert_ne!(w.tables(7), w.tables(8), "{}", w.name());
            assert_eq!(texts(w, 7, 3), texts(w, 7, 3), "{}", w.name());
        }
        // Ad-hoc texts differ by seed and by round; the warm workloads
        // repeat theirs every round.
        assert_ne!(
            texts(Workload::AdhocText, 7, 3),
            texts(Workload::AdhocText, 8, 3)
        );
        assert_ne!(
            texts(Workload::AdhocText, 7, 3),
            texts(Workload::AdhocText, 7, 4)
        );
        assert_eq!(
            texts(Workload::JoinEnum, 7, 3),
            texts(Workload::JoinEnum, 7, 4)
        );
    }

    #[test]
    fn seeds_change_inputs_but_not_the_amount_of_work() {
        for w in [Workload::JoinEnum, Workload::NestedRec, Workload::LoadScan] {
            let rows_of = |seed| -> Vec<u64> {
                let tables = w.tables(seed);
                w.round(&tables, seed, 0)
                    .iter()
                    .map(|s| s.expect.rows)
                    .collect()
            };
            assert_eq!(rows_of(1), rows_of(2), "{}", w.name());
        }
    }

    #[test]
    fn adhoc_rounds_are_distinct_texts_in_the_stated_language_mix() {
        let tables = Workload::AdhocText.tables(1);
        let round = adhoc_round(&tables, 1, 0);
        assert_eq!(round.len(), ADHOC_STMTS);
        let distinct: std::collections::HashSet<&str> =
            round.iter().map(|s| s.text.as_str()).collect();
        assert!(
            distinct.len() > ADHOC_STMTS * 99 / 100,
            "{}",
            distinct.len()
        );
        for (language, share) in LANGUAGES {
            let n = round
                .iter()
                .filter(|s| s.frontend.name() == language.name())
                .count();
            let want = ADHOC_STMTS * share as usize / 100;
            assert!(n.abs_diff(want) < ADHOC_STMTS / 20, "{language:?}: {n}");
        }
    }

    #[test]
    fn a_language_that_cannot_spell_a_template_is_named_not_dropped() {
        let tables = Workload::AdhocText.tables(1);
        let mut missing = Vec::new();
        for template in TEMPLATES {
            for (language, _) in LANGUAGES {
                match instance(&tables, template, language, 1, 1) {
                    Some(_) => assert!(unsupported(template, language).is_none()),
                    None => missing.push((template, language.name())),
                }
            }
        }
        assert_eq!(
            missing,
            vec![
                ("eq17_not_in", "datalog"),
                ("eq19_arith", "datalog"),
                ("count_v2", "datalog"),
                ("count_v3", "datalog"),
                ("not_exists_anti", "datalog"),
                ("reach_rec", "sql"),
            ]
        );
        // Every template keeps at least its ARC spelling.
        assert_eq!(templates_of(Frontend::Arc).len(), TEMPLATES.len());
    }

    #[test]
    fn stmt_ids_name_exactly_the_fixed_statements() {
        for w in [Workload::JoinEnum, Workload::NestedRec, Workload::LoadScan] {
            let tables = w.tables(1);
            let mut ids: Vec<&str> = w.round(&tables, 1, 0).iter().map(|s| s.id).collect();
            ids.dedup();
            ids.sort_unstable();
            ids.dedup();
            let mut want = w.stmt_ids().to_vec();
            want.sort_unstable();
            assert_eq!(ids, want, "{}", w.name());
        }
    }
}
