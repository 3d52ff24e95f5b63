//! The per-layer side of a run: the traced pass, the layer table derived
//! from its spans, the registry counters, and the probes that price what
//! the defaults leave off (threads, guard, spans) and what sits outside
//! the timed round (planning, fixed cost, the reading modalities).

use crate::pipeline::{Session, Variant};
use crate::run::{ms, Bench, Metrics, Window};
use crate::spans::{Off, SpanLog};
use crate::stats::{mean, median};
use crate::workloads::{Conv, Frontend, Workload, SCAN_REPEATS};
use arc_core::ast::Collection;
use arc_core::Conventions;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The traced pass runs at least this many rounds, and writes this many
/// to the trace file.
const TRACED_ROUNDS: usize = 5;
/// ... and at most this many (an ad-hoc round is ~12 000 spans).
const TRACED_ROUNDS_MAX: usize = 20;
/// Default/variant round pairs behind each overhead ratio: at least one,
/// at most this many within an eighth of `--seconds`.
const PROBE_PAIRS_MAX: usize = 3;
/// Statements the explain / profile / modality probes look at.
const PROBE_STMTS: usize = 200;

fn us(nanos: f64) -> f64 {
    nanos / 1e3
}

/// Σ duration of the spans called `name`, in nanoseconds.
fn total_ns(log: &SpanLog, name: &str) -> f64 {
    let spans = log.spans.iter().filter(|s| s.name == name);
    spans.map(|s| s.nanos() as f64).sum()
}

/// Traced rounds, then every per-layer metric into `m`. `untraced` is the
/// window measured just before, the baseline of the tracing overhead.
pub fn traced_pass(b: &mut Bench<'_>, untraced: &Window, setup_log: &SpanLog, m: &mut Metrics) {
    let mut log = SpanLog::new();
    let before = arc_trace::snapshot();
    let started = Instant::now();
    let (mut rounds, mut stmts) = (0usize, 0usize);
    while rounds < TRACED_ROUNDS
        || (rounds < TRACED_ROUNDS_MAX && started.elapsed().as_secs_f64() < b.seconds / 4.0)
    {
        stmts += b.round(&mut log, None).1;
        rounds += 1;
    }
    let counters = CounterDelta::since(&before);
    let n = rounds as f64;

    m.insert("bench.rounds".into(), n);
    m.insert("bench.stmts_per_round".into(), stmts as f64 / n);
    m.insert("bench.host_slowdown".into(), median(&untraced.slowdown));
    let round_ns: Vec<f64> = log.per_round("round").iter().map(|&v| v as f64).collect();
    m.insert(
        "bench.trace_overhead_ratio".into(),
        ms(median(&round_ns)) / median(&untraced.walls_ms),
    );
    m.insert(
        "engine.rows_out_per_round".into(),
        b.last_round().iter().map(|s| s.expect.rows).sum::<u64>() as f64,
    );
    layer_table(&log, n, m);
    statement_rows(b.workload, &log, n, m);
    load_rows(
        b,
        if b.workload == Workload::LoadScan {
            (&log, n)
        } else {
            (setup_log, 1.0)
        },
        m,
    );
    counter_rows(&counters, n, stmts as f64, m);

    probe_variants(b, m);
    probe_fixed_cost(b.session, m);
    probe_collections(b, m);
    write_trace(b.workload, &log);
}

/// Frontend call means, layer shares, and the layer self-time table that
/// sums — with the unattributed residual — to the traced round wall.
fn layer_table(log: &SpanLog, n: f64, m: &mut Metrics) {
    let totals = log.totals();
    let round_total = total_ns(log, "round");
    let mut frontend_ns = 0.0;
    for (name, metric) in [
        ("parser.parse", "parser.parse_us"),
        ("sql.parse", "sql.parse_us"),
        ("sql.lower", "sql.lower_us"),
        ("datalog.parse", "datalog.parse_us"),
        ("datalog.lower", "datalog.lower_us"),
        ("core.bind", "core.bind_us"),
    ] {
        if let Some(&(ns, calls)) = totals.get(name) {
            frontend_ns += ns as f64;
            m.insert(metric.into(), us(ns as f64 / calls as f64));
        }
    }
    let eval_total = total_ns(log, "engine.eval");
    m.insert("frontend.share".into(), frontend_ns / round_total);
    m.insert("engine.eval_ms".into(), ms(eval_total / n));
    m.insert("engine.share".into(), eval_total / round_total);

    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    for (span, own) in log.spans.iter().zip(log.self_nanos()) {
        match span.layer() {
            Some(layer) => *layers.entry(layer).or_default() += own as f64,
            None => unattributed += own as f64,
        }
    }
    for (layer, ns) in &layers {
        m.insert(format!("layer.{layer}_ms"), ms(ns / n));
    }
    m.insert(
        "bench.layer_sum_ratio".into(),
        layers.values().sum::<f64>() / round_total,
    );
    m.insert("bench.unattributed_ms".into(), ms(unattributed / n));
}

/// `stmt.<id>_ms` (median wall per fixed statement), `tmpl.<id>_us` (mean
/// per ad-hoc template, whose instances differ), and the rows that single
/// out one statement's evaluation.
fn statement_rows(w: Workload, log: &SpanLog, n: f64, m: &mut Metrics) {
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut evals: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &log.spans {
        match s.name {
            "stmt" => walls.entry(s.stmt).or_default().push(s.nanos() as f64),
            "engine.eval" => evals.entry(s.stmt).or_default().push(s.nanos() as f64),
            _ => {}
        }
    }
    for (id, ns) in &walls {
        if w == Workload::AdhocText {
            m.insert(format!("tmpl.{id}_us"), us(mean(ns)));
        } else {
            m.insert(format!("stmt.{id}_ms"), ms(median(ns)));
        }
    }
    for (id, metric) in [
        ("ancestor", "engine.fixpoint_ms"),
        ("count_v3_left_join", "engine.outer_join_ms"),
    ] {
        if let Some(ns) = evals.get(id) {
            m.insert(metric.into(), ms(median(ns)));
        }
    }
    if w == Workload::LoadScan {
        let per_round = |suffix: &str| -> f64 {
            let matching = evals.iter().filter(|(id, _)| id.ends_with(suffix));
            matching.map(|(_, ns)| ns.iter().sum::<f64>()).sum::<f64>() / n
        };
        let first = per_round("_first");
        let repeat = per_round("_repeat") / SCAN_REPEATS as f64;
        m.insert("engine.first_ms".into(), ms(first));
        m.insert("engine.repeat_ms".into(), ms(repeat));
        m.insert("engine.first_over_repeat".into(), first / repeat);
    }
}

/// Load and analyze, from the `loads` loads that `log` recorded: every
/// traced round where rounds load, the one at set-up otherwise.
fn load_rows(b: &Bench<'_>, (log, loads): (&SpanLog, f64), m: &mut Metrics) {
    let rows = b.tables.iter().map(|t| t.rows.len()).sum::<usize>() as f64;
    let load_ns = (total_ns(log, "engine.load") + total_ns(log, "engine.catalog")) / loads;
    let analyze_ns = total_ns(log, "stats.analyze") / loads;
    m.insert("engine.load_ms".into(), ms(load_ns));
    m.insert("engine.load_rows_per_s".into(), rows / (load_ns / 1e9));
    m.insert("stats.analyze_ms".into(), ms(analyze_ns));
    m.insert("stats.analyze_rows_per_s".into(), rows / (analyze_ns / 1e9));
}

/// Registry counters by name, per traced round (`n`) or statement.
fn counter_rows(counters: &CounterDelta, n: f64, stmts: f64, m: &mut Metrics) {
    let per_round = |name: &str| counters.get(name).map(|d| d / n);
    let share = |hit: Option<f64>, miss: Option<f64>| match (hit, miss) {
        (Some(h), Some(o)) if h + o > 0.0 => Some(h / (h + o)),
        _ => None,
    };
    let semi_hits = counters.get("engine.semijoin.hits");
    let semi_misses = counters
        .get("engine.semijoin.probes")
        .zip(semi_hits)
        .map(|(probes, hits)| probes - hits);
    for (metric, value) in [
        (
            "plan.runs_per_stmt",
            counters.get("plan.runs").map(|d| d / stmts),
        ),
        (
            "plan.cache_hit_ratio",
            share(
                counters.get("plan.cache.hit"),
                counters.get("plan.cache.miss"),
            ),
        ),
        ("engine.hash_builds", per_round("engine.index.hash.builds")),
        (
            "engine.semijoin_builds",
            per_round("engine.semijoin.builds"),
        ),
        ("engine.semijoin_hit_ratio", share(semi_hits, semi_misses)),
        (
            "engine.chunk_builds",
            per_round("engine.column.chunk_builds"),
        ),
        (
            "engine.ordered_builds",
            per_round("engine.index.ordered.builds"),
        ),
        (
            "engine.selection_builds",
            per_round("engine.selection.builds"),
        ),
        (
            "engine.selection_cache_hits",
            per_round("engine.selection.cache_hits"),
        ),
        (
            "engine.index_range_rows",
            per_round("engine.index.range.rows"),
        ),
    ] {
        if let Some(v) = value {
            m.insert(metric.into(), v);
        }
    }
}

/// What the defaults leave off, priced: round eval time under each
/// variant ÷ under the default, alternating, plus the counters the
/// variant moves.
fn probe_variants(b: &mut Bench<'_>, m: &mut Metrics) {
    for (variant, ratio_metric, counts) in [
        (
            Variant::Threads2,
            "exec.t2_over_t1",
            &[("exec.morsels", "exec.morsels")][..],
        ),
        (
            Variant::Guarded,
            "guard.overhead_ratio",
            &[("guard.degradations", "guard.degradations")][..],
        ),
        // The registry has no span counters today, so `with_spans` is
        // priced by its ratio alone.
        (Variant::Spans, "trace.overhead_ratio", &[][..]),
    ] {
        let with_variant = Session::new(b.catalog, variant);
        let eval_ns = |b: &mut Bench<'_>, session: Option<&Session<'_>>| {
            let mut probe = SpanLog::new();
            b.round(&mut probe, session);
            total_ns(&probe, "engine.eval")
        };
        let (mut base, mut with) = (Vec::new(), Vec::new());
        let mut delta = CounterDelta::default();
        let started = Instant::now();
        while base.is_empty()
            || (base.len() < PROBE_PAIRS_MAX && started.elapsed().as_secs_f64() < b.seconds / 8.0)
        {
            base.push(eval_ns(b, None));
            let before = arc_trace::snapshot();
            with.push(eval_ns(b, Some(&with_variant)));
            delta.add(&CounterDelta::since(&before));
        }
        m.insert(ratio_metric.into(), median(&with) / median(&base));
        for (counter, metric) in counts {
            if let Some(d) = delta.get(counter) {
                m.insert((*metric).into(), d / base.len() as f64);
            }
        }
    }
}

/// Per-query fixed cost: a one-row, one-binding statement, plan cached.
fn probe_fixed_cost(session: &Session<'_>, m: &mut Metrics) {
    let one = arc_parser::parse_collection("{Q(A) | ∃o ∈ One [Q.A = o.A]}")
        .expect("the probe statement parses");
    let engine = session.engine(Conv::Sql);
    let batches: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(engine.eval_collection(std::hint::black_box(&one)).ok());
            }
            t0.elapsed().as_nanos() as f64 / 100.0
        })
        .collect();
    m.insert("engine.fixed_us".into(), us(median(&batches)));
}

/// Planning, operator row counts and the paper's reading modalities, over
/// the single-collection statements of the round that ran last.
fn probe_collections(b: &mut Bench<'_>, m: &mut Metrics) {
    let session = b.session;
    let mut seen = HashSet::new();
    let collections: Vec<(Collection, Conv)> = b
        .last_round()
        .iter()
        .filter(|s| matches!(s.frontend, Frontend::Arc | Frontend::Sql))
        .filter(|s| seen.insert((s.text.clone(), s.conv.is_set())))
        .take(PROBE_STMTS)
        .filter_map(|s| Some((session.collection(&mut Off, s).ok()?, s.conv)))
        .collect();
    if collections.is_empty() {
        return;
    }
    let mean_us = |f: &mut dyn FnMut(&Collection, Conv)| -> f64 {
        let t0 = Instant::now();
        for (c, conv) in &collections {
            f(c, *conv);
        }
        us(t0.elapsed().as_nanos() as f64 / collections.len() as f64)
    };
    m.insert(
        "plan.explain_us".into(),
        mean_us(&mut |c, conv| {
            std::hint::black_box(session.engine(conv).explain_collection(c).ok());
        }),
    );

    let (mut rows_in, mut rows_out, mut eval_ns) = (0u64, 0u64, 0u64);
    for (c, conv) in &collections {
        let engine = session.engine(*conv);
        let t0 = Instant::now();
        let plain = engine.eval_collection(c);
        eval_ns += t0.elapsed().as_nanos() as u64;
        drop(plain);
        if let Ok((rel, profile)) = engine.profile_collection(c) {
            rows_out += rel.len() as u64;
            rows_in += profile.ops.values().map(|op| op.rows_in).sum::<u64>();
        }
    }
    if rows_out > 0 && rows_in > 0 {
        m.insert(
            "engine.rows_in_per_row_out".into(),
            rows_in as f64 / rows_out as f64,
        );
        m.insert(
            "engine.us_per_row_in".into(),
            us(eval_ns as f64 / rows_in as f64),
        );
    }

    if b.workload != Workload::AdhocText {
        return;
    }
    m.insert(
        "parser.print_us".into(),
        mean_us(&mut |c, _| {
            std::hint::black_box(arc_parser::print_collection(c));
        }),
    );
    m.insert(
        "sql.render_us".into(),
        mean_us(&mut |c, _| {
            std::hint::black_box(arc_sql::arc_to_sql(c, &Conventions::sql()).ok());
        }),
    );
    m.insert(
        "core.signature_us".into(),
        mean_us(&mut |c, _| {
            std::hint::black_box(arc_core::signature(c));
        }),
    );
    m.insert(
        "higraph.svg_us".into(),
        mean_us(&mut |c, _| {
            let graph = arc_higraph::build_collection(c);
            std::hint::black_box(arc_higraph::render_svg(&graph));
        }),
    );
}

/// Spans stay in memory until the workload ends; then the first
/// [`TRACED_ROUNDS`] rounds go to `benchmark/target/traces/`, wherever the
/// harness is run from.
fn write_trace(w: Workload, log: &SpanLog) {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/target/traces"));
    let path = dir.join(format!("{}.trace.json", w.name()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, log.chrome_trace(w.name(), TRACED_ROUNDS as u32)));
    match written {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Registry counter changes over a region, read **by name**: a counter
/// the program does not register is simply absent (`None`), never an
/// error, so the harness survives counters being renamed or removed.
#[derive(Default)]
struct CounterDelta(BTreeMap<String, f64>);

impl CounterDelta {
    fn since(before: &arc_trace::Snapshot) -> CounterDelta {
        let after = arc_trace::snapshot();
        CounterDelta(
            after
                .counters
                .iter()
                .map(|(name, v)| {
                    let was = before.counters.get(name).copied().unwrap_or(0);
                    (name.clone(), v.saturating_sub(was) as f64)
                })
                .collect(),
        )
    }

    fn add(&mut self, other: &CounterDelta) {
        for (name, v) in &other.0 {
            *self.0.entry(name.clone()).or_default() += v;
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}
