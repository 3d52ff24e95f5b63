//! One workload in one process: set-up, verify pass, then either the
//! measured window (end-to-end metrics, tracing off) or the traced pass
//! and the probes (per-layer metrics).

use crate::calibrate::{Calibrator, Paced};
use crate::gen::Table;
use crate::layers;
use crate::pipeline::{digest_of, load, run_stmts, span, Session, Tally, Variant};
use crate::reference::Digest;
use crate::spans::{Off, Rec, SpanLog};
use crate::stats::{median, percentile};
use crate::workloads::{self, Stmt, Workload};
use arc_engine::Catalog;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Measured values by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// Rounds run before anything is timed: caches fill, lazy set-up finishes.
const WARMUP_ROUNDS: u64 = 3;

/// An end-to-end run sets up several times, each from scratch, and reports
/// the median: one sample of a few hundred milliseconds is at the mercy of
/// whatever else the host does in that moment. One set-up per this many
/// seconds of window, so that a short run is not mostly set-up ...
const SECONDS_PER_SETUP: f64 = 5.0;
/// ... and at most this many (what a 25 s run gets).
const MAX_SETUPS: u64 = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub tally: Tally,
    /// Every set-up of this process, in seconds at nominal host speed:
    /// generation → first measured round, references excluded.
    pub setups_s: Vec<f64>,
    /// Median host slowdown over the measured window (1.0 = nominal).
    pub host_slowdown: f64,
    /// Measured rounds behind the percentiles.
    pub rounds: usize,
    /// min / p10 / p50 / p90 / max of the measured round walls as timed
    /// (not normalized), for stderr.
    pub quantiles_ms: [f64; 5],
    /// Every metric this run measured, by name.
    pub metrics: Metrics,
}

/// One round; returns its wall time in nanoseconds. With `reload` the
/// round first loads the tables into a catalog of its own (`load_scan`)
/// and runs against that, under `session`'s engine variant.
fn run_round<R: Rec>(
    rec: &mut R,
    session: &Session<'_>,
    reload: Option<&[Table]>,
    stmts: &[Stmt],
    round: u64,
    tally: &mut Tally,
) -> u64 {
    let round = round as u32;
    let t0 = Instant::now();
    rec.at(round, "");
    let token = rec.begin("round");
    match reload {
        None => run_stmts(rec, session, stmts, round, tally),
        Some(tables) => {
            let catalog = load(rec, tables);
            let fresh = span(rec, "engine.new", || {
                Session::new(&catalog, session.variant)
            });
            run_stmts(rec, &fresh, stmts, round, tally);
            drop(fresh);
            span(rec, "engine.drop", || drop(catalog));
        }
    }
    rec.end(token);
    t0.elapsed().as_nanos() as u64
}

/// Where a round's statements come from. Reference answers are computed
/// here, on the `reference` clock, never inside a timed region.
struct Source<'t> {
    workload: Workload,
    tables: &'t [Table],
    seed: u64,
    fixed: Option<Vec<Stmt>>,
}

impl<'t> Source<'t> {
    fn new(workload: Workload, tables: &'t [Table], seed: u64, reference: &mut Duration) -> Self {
        let t0 = Instant::now();
        let fixed = (workload != Workload::AdhocText).then(|| workload.round(tables, seed, 0));
        *reference += t0.elapsed();
        Source {
            workload,
            tables,
            seed,
            fixed,
        }
    }

    fn round(&self, round: u64, reference: &mut Duration) -> Cow<'_, [Stmt]> {
        match &self.fixed {
            Some(stmts) => Cow::Borrowed(stmts),
            None => {
                let t0 = Instant::now();
                let stmts = self.workload.round(self.tables, self.seed, round);
                *reference += t0.elapsed();
                Cow::Owned(stmts)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Verify pass
// ---------------------------------------------------------------------------

/// Run one statement untimed and compare its full result with the
/// reference; returns the result's set digest for cross-spelling checks.
fn check(session: &Session<'_>, stmt: &Stmt, tally: &mut Tally) -> Option<Digest> {
    tally.attempted += 1;
    match session.run(&mut Off, stmt) {
        Ok(rel) => {
            let got = digest_of(&rel, stmt.conv.is_set());
            if got != stmt.expect {
                tally.fail(format!(
                    "verify {}: got {got:?}, reference {:?}: {}",
                    stmt.id, stmt.expect, stmt.text
                ));
            }
            Some(digest_of(&rel, true))
        }
        Err(e) => {
            tally.fail(format!("verify {}: {e}: {}", stmt.id, stmt.text));
            None
        }
    }
}

/// All spellings of one query must return the same set of rows.
fn agree(what: &str, digests: &[Option<Digest>], tally: &mut Tally) {
    tally.attempted += 1;
    if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
        tally.fail(format!("verify {what}: spellings disagree: {digests:?}"));
    }
}

/// Statement pairs of the fixed workloads that spell one query twice.
const SAME_ANSWER: [(&str, &str); 2] = [
    ("pk_join", "pk_join_dl"),
    ("fanout_join_bag", "fanout_join_set"),
];

fn verify(
    w: Workload,
    tables: &[Table],
    seed: u64,
    session: &Session<'_>,
    stmts: &[Stmt],
    tally: &mut Tally,
) {
    let mut seen = HashSet::new();
    let mut by_id: HashMap<&str, Option<Digest>> = HashMap::new();
    for stmt in stmts {
        if seen.insert((stmt.text.as_str(), stmt.conv.is_set())) {
            by_id.insert(stmt.id, check(session, stmt, tally));
        }
    }
    for (a, b) in SAME_ANSWER {
        if let (Some(x), Some(y)) = (by_id.get(a), by_id.get(b)) {
            agree(a, &[*x, *y], tally);
        }
    }
    match w {
        Workload::AdhocText => {
            for group in workloads::adhoc_cross_check(tables, seed, 3) {
                let digests: Vec<_> = group.iter().map(|s| check(session, s, tally)).collect();
                agree(group[0].id, &digests, tally);
            }
        }
        Workload::NestedRec => {
            let (paper, stmts) = workloads::count_bug_paper_case();
            let catalog = load(&mut Off, &paper);
            let session = Session::new(&catalog, Variant::Default);
            for stmt in &stmts {
                check(&session, stmt, tally);
            }
        }
        Workload::JoinEnum | Workload::LoadScan => {}
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What a run keeps between its phases.
pub struct Bench<'a> {
    pub workload: Workload,
    pub seconds: f64,
    pub tables: &'a [Table],
    pub catalog: &'a Catalog,
    pub session: &'a Session<'a>,
    source: Source<'a>,
    /// Time spent in references and verification: not part of set-up.
    pub reference: Duration,
    pub tally: Tally,
    next_round: u64,
}

impl<'a> Bench<'a> {
    /// Run the next round into `rec`, under `variant`'s engines when given
    /// (the default ones otherwise); returns its wall time in nanoseconds
    /// and its statement count.
    pub fn round<R: Rec>(&mut self, rec: &mut R, variant: Option<&Session<'_>>) -> (u64, usize) {
        let stmts = self.source.round(self.next_round, &mut self.reference);
        let session: &Session<'_> = variant.unwrap_or(self.session);
        let reload = (self.workload == Workload::LoadScan).then_some(self.tables);
        let ns = run_round(
            rec,
            session,
            reload,
            &stmts,
            self.next_round,
            &mut self.tally,
        );
        self.next_round += 1;
        (ns, stmts.len())
    }

    /// The statements of the round that ran last.
    pub fn last_round(&mut self) -> Cow<'_, [Stmt]> {
        self.source.round(self.next_round - 1, &mut self.reference)
    }

    /// Untraced rounds for `seconds` (at least one), calibrated before,
    /// inside and after each: the samples every end-to-end time metric is
    /// made of.
    fn window(&mut self, seconds: f64, calibrator: &mut Calibrator) -> Window {
        let mut out = Window::default();
        let mut rec = Paced::new(calibrator);
        let started = Instant::now();
        while out.walls_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let (ns, stmts) = self.round(&mut rec, None);
            let (slowdown, sampling) = rec.close_round();
            out.walls_ms
                .push(ms(ns as f64 - sampling.as_nanos() as f64));
            out.slowdown.push(slowdown);
            out.stmts_per_round = stmts;
        }
        out
    }
}

/// The measured window: per round, its wall time (calibration excluded)
/// and how much slower than nominal the host ran during it.
#[derive(Default)]
pub struct Window {
    pub walls_ms: Vec<f64>,
    pub slowdown: Vec<f64>,
    pub stmts_per_round: usize,
}

impl Window {
    /// Round walls at nominal host speed: each divided by the slowdown its
    /// calibrations saw.
    pub fn normalized_ms(&self) -> Vec<f64> {
        self.walls_ms
            .iter()
            .zip(&self.slowdown)
            .map(|(wall, slow)| wall / slow)
            .collect()
    }
}

/// What one set-up took and left behind.
struct SetUp {
    /// Generation → end of the last warm-up round, references excluded,
    /// at nominal host speed like the round times (see `calibrate`).
    seconds: f64,
    first_round_ns: u64,
    /// The spans of this set-up's load and analyze.
    log: SpanLog,
}

/// Set up from scratch — generate the tables, load and analyze them, build
/// the engines, run the warm-up rounds (numbered from `first_round`, so a
/// repeated set-up sees ad-hoc texts no earlier one planned) — and hand
/// the warm bench to `then`. `began` is when this set-up started.
fn set_up<T>(
    began: Instant,
    args: &Args,
    first_round: u64,
    calibrator: &mut Calibrator,
    then: impl FnOnce(Bench<'_>, SetUp, &mut Calibrator) -> T,
) -> T {
    let w = args.workload;
    let mut slowdown = vec![calibrator.slowdown()];
    let mut reference = Duration::ZERO;
    let tables = w.tables(args.seed);
    let mut log = SpanLog::new();
    let catalog = load(&mut log, &tables);
    let session = Session::new(&catalog, Variant::Default);
    let source = Source::new(w, &tables, args.seed, &mut reference);
    let mut b = Bench {
        workload: w,
        seconds: args.seconds,
        tables: &tables,
        catalog: &catalog,
        session: &session,
        source,
        reference,
        tally: Tally::default(),
        next_round: first_round,
    };
    slowdown.push(calibrator.slowdown());
    let first_round_ns = b.round(&mut Off, None).0;
    for _ in 1..WARMUP_ROUNDS {
        b.round(&mut Off, None);
    }
    slowdown.push(calibrator.slowdown());
    // The median: one sample hit by a stall must not deflate the set-up.
    let seconds = began.elapsed().saturating_sub(b.reference).as_secs_f64() / median(&slowdown);
    let setup = SetUp {
        seconds,
        first_round_ns,
        log,
    };
    then(b, setup, calibrator)
}

/// Run `args.workload`. `start` is when the process started.
pub fn run(start: Instant, args: &Args) -> Outcome {
    // Only the end-to-end run reports `setup_s`, so only it repeats the
    // set-up; every set-up but the last is dropped again once timed.
    let setups = match args.trace {
        true => 1,
        false => ((args.seconds / SECONDS_PER_SETUP) as u64).clamp(1, MAX_SETUPS),
    };
    let calibrator = &mut Calibrator::new();
    let mut earlier = Tally::default();
    let mut setups_s = Vec::new();
    let mut began = start;
    for repeat in 0..setups - 1 {
        let first_round = repeat * WARMUP_ROUNDS;
        set_up(began, args, first_round, calibrator, |b, setup, _| {
            setups_s.push(setup.seconds);
            earlier.absorb(b.tally);
        });
        began = Instant::now();
    }
    let first_round = (setups - 1) * WARMUP_ROUNDS;
    set_up(began, args, first_round, calibrator, |mut b, setup, cal| {
        setups_s.push(setup.seconds);
        b.tally.absorb(earlier);
        measure(b, &setup, setups_s, args, cal)
    })
}

/// Verify, then the measured window (and, traced, the per-layer passes).
fn measure(
    mut b: Bench<'_>,
    setup: &SetUp,
    setups_s: Vec<f64>,
    args: &Args,
    calibrator: &mut Calibrator,
) -> Outcome {
    let round0 = b.source.round(0, &mut b.reference);
    let t0 = Instant::now();
    verify(
        b.workload,
        b.tables,
        args.seed,
        b.session,
        &round0,
        &mut b.tally,
    );
    drop(round0);
    b.reference += t0.elapsed();

    // All of `--seconds` for the end-to-end run; a quarter of it, as the
    // baseline of the tracing overhead, for the traced one.
    let seconds = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    let window = b.window(seconds, calibrator);
    let mut metrics = Metrics::new();
    if args.trace {
        let first_round_ms = ms(setup.first_round_ns as f64);
        metrics.insert("bench.first_round_ms".into(), first_round_ms);
        layers::traced_pass(&mut b, &window, &setup.log, &mut metrics);
        metrics.insert("bench.verify_s".into(), b.reference.as_secs_f64());
    } else {
        end_to_end(&window, &mut metrics);
    }
    Outcome {
        tally: b.tally,
        setups_s,
        host_slowdown: median(&window.slowdown),
        rounds: window.walls_ms.len(),
        quantiles_ms: [0.0, 0.1, 0.5, 0.9, 1.0].map(|p| percentile(&window.walls_ms, p)),
        metrics,
    }
}

/// The end-to-end metrics of the measured window (`setup_s` is added by
/// the caller from `Outcome::setups_s`). Times are at nominal host speed:
/// see `calibrate` for why.
fn end_to_end(window: &Window, m: &mut Metrics) {
    let normalized = window.normalized_ms();
    m.insert("round_p50_ms".into(), median(&normalized));
    m.insert("round_p90_ms".into(), percentile(&normalized, 0.9));
    let measured_s = normalized.iter().sum::<f64>() / 1e3;
    let stmts = window.stmts_per_round * normalized.len();
    m.insert("stmts_per_s".into(), stmts as f64 / measured_s);
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb".into(), rss);
    }
}
