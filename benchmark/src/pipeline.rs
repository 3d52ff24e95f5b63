//! The path a caller takes: statement **text** → frontend → binder →
//! `Engine` → materialized `Relation`, with a bench-side span around each
//! public call. Only the stable public surface of the crates is used: no
//! strategy override, no feature knob, no environment variable.

use crate::gen::{Table, NULL};
use crate::reference::{digest, Cell, Digest};
use crate::spans::Rec;
use crate::workloads::{Conv, Frontend, Stmt};
use arc_core::ast::Collection;
use arc_core::binder::SchemaMap;
use arc_core::{Binder, Conventions, Value};
use arc_engine::{Catalog, Engine, Relation};
use std::time::Duration;

/// Run `f` inside a span.
pub fn span<R: Rec, T>(rec: &mut R, name: &'static str, f: impl FnOnce() -> T) -> T {
    let token = rec.begin(name);
    let out = f();
    rec.end(token);
    out
}

/// A generated table as the engine's `Relation`, row by row through
/// `Relation::push` as a loading caller would.
fn relation_of(t: &Table) -> Relation {
    let mut rel = Relation::new(t.name, t.cols);
    for row in &t.rows {
        rel.push(
            row.iter()
                .map(|&v| {
                    if v == NULL {
                        Value::Null
                    } else {
                        Value::Int(v)
                    }
                })
                .collect(),
        );
    }
    rel
}

/// Load generated tables into an analyzed catalog. `Catalog::with`
/// already analyzes relations of 16 rows or more today; the explicit
/// `Catalog::analyze` is what guarantees statistics whatever that
/// default becomes, so both are timed, each under its own span.
pub fn load<R: Rec>(rec: &mut R, tables: &[Table]) -> Catalog {
    let relations: Vec<Relation> = span(rec, "engine.load", || {
        tables.iter().map(relation_of).collect()
    });
    let mut catalog = span(rec, "engine.catalog", || {
        relations.into_iter().fold(Catalog::new(), Catalog::with)
    });
    span(rec, "stats.analyze", || catalog.analyze());
    catalog
}

/// The engine configurations the per-layer probes compare. Everything
/// end-to-end runs [`Variant::Default`]: what `Engine::new` gives a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Default,
    /// `with_threads(2)`.
    Threads2,
    /// A deadline and a memory budget far too generous to trip.
    Guarded,
    /// `with_spans(true)`.
    Spans,
}

fn engine<'c>(catalog: &'c Catalog, conv: Conventions, variant: Variant) -> Engine<'c> {
    let e = Engine::new(catalog, conv);
    match variant {
        Variant::Default => e,
        Variant::Threads2 => e.with_threads(2),
        Variant::Guarded => e
            .with_timeout(Duration::from_secs(3600))
            .with_mem_budget(1 << 40),
        Variant::Spans => e.with_spans(true),
    }
}

/// One catalog's frontends and engines, built once and reused by every
/// statement (a caller's connection).
pub struct Session<'c> {
    pub variant: Variant,
    schemas: SchemaMap,
    binder: Binder,
    set: Engine<'c>,
    sql: Engine<'c>,
    souffle: Engine<'c>,
}

impl<'c> Session<'c> {
    pub fn new(catalog: &'c Catalog, variant: Variant) -> Session<'c> {
        let schemas = catalog.schema_map();
        Session {
            variant,
            binder: Binder::with_schemas(schemas.clone()),
            schemas,
            set: engine(catalog, Conventions::set(), variant),
            sql: engine(catalog, Conventions::sql(), variant),
            souffle: engine(catalog, Conventions::souffle(), variant),
        }
    }

    pub fn engine(&self, conv: Conv) -> &Engine<'c> {
        match conv {
            Conv::Set => &self.set,
            Conv::Sql => &self.sql,
            Conv::Souffle => &self.souffle,
        }
    }

    /// Text in, rows out.
    pub fn run<R: Rec>(&self, rec: &mut R, stmt: &Stmt) -> Result<Relation, String> {
        let engine = self.engine(stmt.conv);
        let program = match stmt.frontend {
            Frontend::Arc | Frontend::Sql => {
                let c = self.collection(rec, stmt)?;
                let info = span(rec, "core.bind", || self.binder.bind_collection(&c));
                if !info.is_valid() {
                    return Err(format!("binder: {:?}", info.errors()));
                }
                return span(rec, "engine.eval", || engine.eval_collection(&c))
                    .map_err(|e| format!("eval: {e}"));
            }
            Frontend::ArcProgram => span(rec, "parser.parse", || {
                arc_parser::parse_program(&stmt.text)
            })
            .map_err(|e| format!("parse: {e}"))?,
            Frontend::Datalog => {
                let parsed = span(rec, "datalog.parse", || {
                    arc_datalog::parse_datalog(&stmt.text)
                })
                .map_err(|e| format!("parse: {e}"))?;
                span(rec, "datalog.lower", || arc_datalog::lower_program(&parsed))
                    .map_err(|e| format!("lower: {e}"))?
            }
        };
        let info = span(rec, "core.bind", || self.binder.bind_program(&program));
        if !info.is_valid() {
            return Err(format!("binder: {:?}", info.errors()));
        }
        span(rec, "engine.eval", || {
            let mut out = engine.eval_program(&program)?;
            Ok(out.query.take().or_else(|| out.defined.remove(stmt.head)))
        })
        .map_err(|e: arc_engine::EvalError| format!("eval: {e}"))?
        .ok_or_else(|| format!("program defines no `{}`", stmt.head))
    }

    /// The frontend half of [`Session::run`] for single-collection
    /// statements (also what the explain / profile / modality probes use).
    pub fn collection<R: Rec>(&self, rec: &mut R, stmt: &Stmt) -> Result<Collection, String> {
        match stmt.frontend {
            Frontend::Arc => span(rec, "parser.parse", || {
                arc_parser::parse_collection(&stmt.text)
            })
            .map_err(|e| format!("parse: {e}")),
            Frontend::Sql => {
                let parsed = span(rec, "sql.parse", || arc_sql::parse_sql(&stmt.text))
                    .map_err(|e| format!("parse: {e}"))?;
                span(rec, "sql.lower", || {
                    arc_sql::lower_query(&parsed, &self.schemas)
                })
                .map_err(|e| format!("lower: {e}"))
            }
            Frontend::ArcProgram | Frontend::Datalog => Err("not a single collection".into()),
        }
    }
}

/// The digest of an engine result under the statement's conventions,
/// comparable with the reference's.
pub fn digest_of(rel: &Relation, set: bool) -> Digest {
    digest(set, |emit| {
        let mut cells = Vec::new();
        for row in &rel.rows {
            cells.clear();
            cells.extend(row.iter().map(|v| match v {
                Value::Null => Cell::Null,
                Value::Int(i) => Cell::Int(*i),
                Value::Bool(b) => Cell::Int(*b as i64),
                Value::Float(f) => Cell::float(*f),
                // No generated input holds a string; one in a result can
                // only be wrong, and a length is enough to say so.
                Value::Str(s) => Cell::Int(s.len() as i64),
            }));
            emit(&cells);
        }
    })
}

/// What went wrong, counted, with the first few messages kept for stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }

    /// Add another tally's counts and messages to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.first.len());
        self.first.extend(other.first.into_iter().take(room));
    }
}

/// Run a list of statements, comparing row counts only (the timed path).
pub fn run_stmts<R: Rec>(
    rec: &mut R,
    session: &Session<'_>,
    stmts: &[Stmt],
    round: u32,
    tally: &mut Tally,
) {
    for stmt in stmts {
        rec.at(round, stmt.id);
        let token = rec.begin("stmt");
        tally.attempted += 1;
        match session.run(rec, stmt) {
            Ok(rel) => {
                if rel.len() as u64 != stmt.expect.rows {
                    tally.fail(format!(
                        "{}: {} rows, reference has {}: {}",
                        stmt.id,
                        rel.len(),
                        stmt.expect.rows,
                        stmt.text
                    ));
                }
                // Freeing the materialized answer is the caller's wait too,
                // and the engine's output representation decides its cost.
                span(rec, "engine.drop", || drop(rel));
            }
            Err(e) => tally.fail(format!("{}: {e}: {}", stmt.id, stmt.text)),
        }
        rec.end(token);
    }
    rec.at(round, "");
}
