//! The twelve statement shapes of the benchmark's `adhoc_text` workload —
//! paper-figure queries whose instances differ only in two constants —
//! in every language that spells them, over a catalog of the same sizes.
//! Texts and sizes are copied, not imported: nothing here depends on
//! `benchmark/`. Included by several test binaries (`#[path]`), each of
//! which uses part of it.
#![allow(dead_code)]

use arc_core::ast::{Collection, Program};
use arc_core::binder::{Binder, SchemaMap};
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};

/// What a statement text is parsed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// `arc_parser::parse_collection`.
    Arc,
    /// `arc_parser::parse_program`.
    ArcProgram,
    /// `arc_sql::{parse_sql, lower_query}`.
    Sql,
    /// `arc_datalog::{parse_datalog, lower_program}`.
    Datalog,
}

/// One instance of one template in one language.
#[derive(Debug, Clone)]
pub struct Shape {
    pub template: &'static str,
    pub frontend: Frontend,
    /// The definition that holds the answer when the text is a program.
    pub head: &'static str,
    pub text: String,
}

impl Shape {
    /// `template.language`, for messages.
    pub fn name(&self) -> String {
        let language = match self.frontend {
            Frontend::Arc | Frontend::ArcProgram => "arc",
            Frontend::Sql => "sql",
            Frontend::Datalog => "datalog",
        };
        format!("{}.{language}", self.template)
    }

    /// The conventions the language's texts mean.
    pub fn conventions(&self) -> Conventions {
        match self.frontend {
            Frontend::Arc | Frontend::ArcProgram => Conventions::set(),
            Frontend::Sql => Conventions::sql(),
            Frontend::Datalog => Conventions::souffle(),
        }
    }
}

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

/// A constant as ARC and SQL spell it.
fn literal(v: &Value) -> String {
    v.to_string()
}

/// A constant as Datalog spells it; it has neither `NULL` nor booleans.
fn datalog_literal(v: &Value) -> Option<String> {
    match v {
        Value::Null | Value::Bool(_) => None,
        Value::Str(s) => Some(format!("\"{s}\"")),
        other => Some(other.to_string()),
    }
}

const DECLS: [(&str, &str); 6] = [
    ("R", ".decl R(A: number, B: number)\n"),
    ("S", ".decl S(B: number, C: number)\n"),
    ("Emp", ".decl Emp(empl: number, dept: number)\n"),
    ("Sal", ".decl Sal(empl: number, sal: number)\n"),
    ("Rq", ".decl Rq(id: number, q: number)\n"),
    ("Sd", ".decl Sd(id: number, d: number)\n"),
];

/// Every spelling of `template` with the small constant `c` and the
/// threshold `k`.
pub fn spellings(template: &'static str, c: &Value, k: &Value) -> Vec<Shape> {
    let mut out = Vec::new();
    let mut push = |frontend, text: String| {
        out.push(Shape {
            template,
            frontend,
            head: if template == "reach_rec" { "A" } else { "Q" },
            text,
        })
    };
    let (ac, ak) = (literal(c), literal(k));
    let dl = |used: &[&str], rules: String| -> String {
        let decls: String = DECLS
            .iter()
            .filter(|(name, _)| used.contains(name))
            .map(|(_, decl)| *decl)
            .collect();
        format!("{decls}{rules}")
    };
    let datalog = datalog_literal(c).zip(datalog_literal(k));
    match template {
        "eq1_join" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = {ac} ∧ r.A > {ak}]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!("select R.A from R, S where R.B = S.B and S.C = {ac} and R.A > {ak}"),
            );
            if let Some((c, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["R", "S"],
                        format!(".decl Q(A: number)\nQ(a) :- R(a, b), S(b, {c}), a > {k}.\n"),
                    ),
                );
            }
        }
        "eq3_group" => {
            push(
                Frontend::Arc,
                format!("{{Q(B,sm) | ∃r ∈ R, γ r.B [Q.B = r.B ∧ Q.sm = sum(r.A) ∧ r.A > {ak}]}}"),
            );
            push(
                Frontend::Sql,
                format!("select R.B, sum(R.A) sm from R where R.A > {ak} group by R.B"),
            );
            if let Some((_, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["R"],
                        format!(
                            ".decl Q(B: number, sm: number)\n\
                     Q(b, sm) :- R(a0, b), a0 > {k}, sm = sum a : {{R(a, b), a > {k}}}.\n"
                        ),
                    ),
                );
            }
        }
        "eq7_foi" => {
            push(
                Frontend::Arc,
                format!(
                "{{Q(A,sm) | ∃r ∈ R, x ∈ {{X(sm) | ∃r2 ∈ R, γ ∅ [r2.B = r.B ∧ X.sm = sum(r2.A)]}} \
                 [Q.A = r.A ∧ Q.sm = x.sm ∧ r.A > {ak}]}}"
            ),
            );
            push(Frontend::Sql, format!(
                "select R.A, (select sum(R2.A) sm from R R2 where R2.B = R.B) from R where R.A > {ak}"
            ));
            if let Some((_, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["R"],
                        format!(
                            ".decl Q(A: number, sm: number)\n\
                     Q(a, sm) :- R(a, b), a > {k}, sm = sum a2 : {{R(a2, b)}}.\n"
                        ),
                    ),
                );
            }
        }
        "eq8_having" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(dept,av) | ∃x ∈ {{X(dept,av,sm) | ∃r ∈ Emp, s ∈ Sal, γ r.dept \
                 [X.dept = r.dept ∧ X.av = avg(s.sal) ∧ X.sm = sum(s.sal) ∧ r.empl = s.empl]}} \
                 [Q.dept = x.dept ∧ Q.av = x.av ∧ x.sm > {ak}]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!(
                    "select Emp.dept, avg(Sal.sal) av from Emp, Sal where Emp.empl = Sal.empl \
                 group by Emp.dept having sum(Sal.sal) > {ak}"
                ),
            );
            if let Some((_, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["Emp", "Sal"],
                        format!(
                            ".decl Q(dept: number, av: number)\n\
                     Q(d, av) :- Emp(_, d), av = mean s : {{Emp(e, d), Sal(e, s)}}, \
                     sm = sum s2 : {{Emp(e2, d), Sal(e2, s2)}}, sm > {k}.\n"
                        ),
                    ),
                );
            }
        }
        "eq17_not_in" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(A) | ∃r ∈ N [Q.A = r.A ∧ r.A > {ak} ∧ \
                 ¬(∃s ∈ M [s.A = r.A ∨ s.A is null ∨ r.A is null])]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!("select N.A from N where N.A not in (select M.A from M) and N.A > {ak}"),
            );
        }
        "eq19_arith" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(A) | ∃r ∈ U, s ∈ V, t ∈ W [Q.A = r.A ∧ r.B - s.B > t.B ∧ r.A > {ak}]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!("select U.A from U, V, W where U.B - V.B > W.B and U.A > {ak}"),
            );
        }
        "count_v1" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(id) | ∃r ∈ Rq [Q.id = r.id ∧ r.id > {ak} ∧ \
                 ∃s ∈ Sd, γ ∅ [s.id = r.id ∧ r.q = count(s.d)]]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!(
                    "select Rq.id from Rq where Rq.q = \
                 (select count(Sd.d) from Sd where Sd.id = Rq.id) and Rq.id > {ak}"
                ),
            );
            if let Some((_, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["Rq", "Sd"],
                        format!(
                            ".decl Q(id: number)\n\
                     Q(i) :- Rq(i, q), i > {k}, c = count : {{Sd(i, _)}}, c = q.\n"
                        ),
                    ),
                );
            }
        }
        "count_v2" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(id) | ∃r ∈ Rq, x ∈ {{X(id,ct) | ∃s ∈ Sd, γ s.id \
                 [X.id = s.id ∧ X.ct = count(s.d)]}} \
                 [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct ∧ r.id > {ak}]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!(
                "select Rq.id from Rq, (select Sd.id, count(Sd.d) as ct from Sd group by Sd.id) \
                 as X where Rq.q = X.ct and Rq.id = X.id and Rq.id > {ak}"
            ),
            );
        }
        "count_v3" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(id) | ∃r ∈ Rq, x ∈ {{X(id,ct) | ∃s ∈ Sd, r2 ∈ Rq, γ r2.id, left(r2, s) \
                 [X.id = r2.id ∧ X.ct = count(s.d) ∧ r2.id = s.id]}} \
                 [Q.id = r.id ∧ r.id = x.id ∧ r.q = x.ct ∧ r.id > {ak}]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!(
                    "select Rq.id from Rq, (select R2.id, count(Sd.d) as ct \
                 from Rq R2 left join Sd on R2.id = Sd.id group by R2.id) as X \
                 where Rq.q = X.ct and Rq.id = X.id and Rq.id > {ak}"
                ),
            );
        }
        "exists_semi" => {
            push(
                Frontend::Arc,
                format!(
                    "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > {ak} ∧ ∃s ∈ S [s.B = r.B ∧ s.C > {ac}]]}}"
                ),
            );
            push(
                Frontend::Sql,
                format!(
                    "select R.A from R where exists \
                 (select S.B from S where S.B = R.B and S.C > {ac}) and R.A > {ak}"
                ),
            );
            if let Some((c, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    dl(
                        &["R", "S"],
                        format!(
                            ".decl Q(A: number)\nQ(a) :- R(a, b), a > {k}, S(b, c), c > {c}.\n"
                        ),
                    ),
                );
            }
        }
        "not_exists_anti" => {
            push(
                Frontend::Arc,
                format!(
                "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.A > {ak} ∧ ¬(∃s ∈ S [s.B = r.B ∧ s.C > {ac}])]}}"
            ),
            );
            push(
                Frontend::Sql,
                format!(
                    "select R.A from R where not exists \
                 (select S.B from S where S.B = R.B and S.C > {ac}) and R.A > {ak}"
                ),
            );
        }
        "reach_rec" => {
            push(
                Frontend::ArcProgram,
                format!(
                    "{{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t ∧ p.s >= {ak}] ∨ \
                 ∃p ∈ P, a2 ∈ A [A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}};"
                ),
            );
            if let Some((_, k)) = &datalog {
                push(
                    Frontend::Datalog,
                    format!(
                        ".decl P(s: number, t: number)\n.decl A(s: number, t: number)\n\
                     A(x, y) :- P(x, y), x >= {k}.\n\
                     A(x, y) :- P(x, z), A(z, y).\n"
                    ),
                );
            }
        }
        other => panic!("unknown template {other}"),
    }
    out
}

/// Every spelling of every template.
pub fn all_spellings(c: &Value, k: &Value) -> Vec<Shape> {
    TEMPLATES
        .into_iter()
        .flat_map(|t| spellings(t, c, k))
        .collect()
}

/// Ids of every relation spread over `0..ID_RANGE`.
pub const ID_RANGE: i64 = 960_000;

/// `n` ascending ids spread over `0..ID_RANGE`, unevenly.
fn ids(n: i64, salt: i64) -> Vec<i64> {
    let stride = ID_RANGE / n;
    (0..n)
        .map(|i| i * stride + (i * 7919 + salt * 104_729) % stride)
        .collect()
}

fn relation(name: &str, schema: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    Relation::from_rows(name, schema, rows)
}

fn ints(rows: impl IntoIterator<Item = Vec<i64>>) -> Vec<Vec<Value>> {
    rows.into_iter()
        .map(|row| row.into_iter().map(Value::Int).collect())
        .collect()
}

/// The relations the templates read — at most 32 rows each — analyzed.
pub fn catalog() -> Catalog {
    let a = ids(32, 1);
    let id = ids(16, 2);
    let ua = ids(12, 3);
    let na = ids(32, 4);
    let nodes = ids(15, 5);
    let mut sd = Vec::new();
    for (i, id) in id.iter().enumerate() {
        for j in 0..(i as i64 % 4) {
            sd.push(vec![*id, 100 * i as i64 + j]);
        }
    }
    let mut p = Vec::new();
    for chain in 0..3 {
        for j in 0..4 {
            p.push(vec![nodes[chain * 5 + j], nodes[chain * 5 + j + 1]]);
        }
    }
    let n = (0..32)
        .map(|i| {
            vec![if i % 8 == 7 {
                Value::Null
            } else {
                Value::Int(na[i])
            }]
        })
        .collect();
    let mut catalog = Catalog::new()
        .with(relation(
            "R",
            &["A", "B"],
            ints((0..32).map(|i| vec![a[i], i as i64 % 8])),
        ))
        .with(relation(
            "S",
            &["B", "C"],
            ints((0..32).map(|i| vec![i % 8, (i / 8) % 4])),
        ))
        .with(relation(
            "Emp",
            &["empl", "dept"],
            ints((0..24).map(|i| vec![i + 1, i % 4])),
        ))
        .with(relation(
            "Sal",
            &["empl", "sal"],
            ints((0..24).map(|i| vec![i + 1, 1000 * (40 + i % 30) + (i * 37) % 1000])),
        ))
        .with(relation(
            "Rq",
            &["id", "q"],
            ints((0..16).map(|i| vec![id[i], (i as i64 / 4) % 4])),
        ))
        .with(relation("Sd", &["id", "d"], ints(sd)))
        .with(relation(
            "U",
            &["A", "B"],
            ints((0..12).map(|i| vec![ua[i], (i as i64 * 7) % 29])),
        ))
        .with(relation("V", &["B"], ints((0..6).map(|i| vec![i % 5]))))
        .with(relation("W", &["B"], ints((0..6).map(|i| vec![2 * i]))))
        .with(relation("N", &["A"], n))
        .with(relation(
            "M",
            &["A"],
            ints((0..32).step_by(2).map(|i| vec![na[i]])),
        ))
        .with(relation("P", &["s", "t"], ints(p)));
    catalog.analyze();
    catalog
}

/// A statement, parsed and lowered to what the engine evaluates.
pub enum Statement {
    Collection(Collection),
    Program(Program),
}

/// Text → AST, through the shape's frontend.
pub fn parse(shape: &Shape, schemas: &SchemaMap) -> Result<Statement, String> {
    Ok(match shape.frontend {
        Frontend::Arc => Statement::Collection(
            arc_parser::parse_collection(&shape.text).map_err(|e| e.to_string())?,
        ),
        Frontend::ArcProgram => {
            Statement::Program(arc_parser::parse_program(&shape.text).map_err(|e| e.to_string())?)
        }
        Frontend::Sql => {
            let parsed = arc_sql::parse_sql(&shape.text).map_err(|e| e.to_string())?;
            Statement::Collection(
                arc_sql::lower_query(&parsed, schemas).map_err(|e| e.to_string())?,
            )
        }
        Frontend::Datalog => {
            let parsed = arc_datalog::parse_datalog(&shape.text).map_err(|e| e.to_string())?;
            Statement::Program(arc_datalog::lower_program(&parsed).map_err(|e| e.to_string())?)
        }
    })
}

/// Text → rows: the path a caller takes (frontend, binder, engine).
pub fn run(
    shape: &Shape,
    schemas: &SchemaMap,
    binder: &Binder,
    engine: &Engine<'_>,
) -> Result<Relation, String> {
    match parse(shape, schemas)? {
        Statement::Collection(c) => {
            let info = binder.bind_collection(&c);
            if !info.is_valid() {
                return Err(format!("binder: {:?}", info.errors()));
            }
            engine.eval_collection(&c).map_err(|e| e.to_string())
        }
        Statement::Program(p) => {
            let info = binder.bind_program(&p);
            if !info.is_valid() {
                return Err(format!("binder: {:?}", info.errors()));
            }
            let mut out = engine.eval_program(&p).map_err(|e| e.to_string())?;
            out.query
                .take()
                .or_else(|| out.defined.remove(shape.head))
                .ok_or_else(|| format!("program defines no `{}`", shape.head))
        }
    }
}

/// Text → rows through the oracle instead of the engine.
pub fn oracle(shape: &Shape, schemas: &SchemaMap, catalog: &Catalog) -> Relation {
    let conv = shape.conventions();
    match parse(shape, schemas).unwrap() {
        Statement::Collection(c) => arc_tests::oracle_rows(catalog, conv, &c),
        Statement::Program(p) => {
            let mut out = arc_tests::oracle_program(catalog, conv, &p);
            out.query
                .take()
                .unwrap_or_else(|| out.defined.remove(shape.head).unwrap())
        }
    }
}

/// The plan the engine would run for a statement.
pub fn explain(stmt: &Statement, engine: &Engine<'_>) -> String {
    match stmt {
        Statement::Collection(c) => engine.explain_collection(c),
        Statement::Program(p) => engine.explain_program(p),
    }
    .unwrap_or_else(|e| format!("error: {e}"))
}
