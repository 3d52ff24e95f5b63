//! The per-query record: what each plan operator *actually did*, and the
//! one [`Recorder`] an evaluation writes it through.
//!
//! `arc-plan` assigns every quantifier scope a **stable operator id** at
//! lowering time (the address of its binding slice — the same key the
//! engine's per-query plan cache and the decorrelation bail-out set
//! already use), and every join step inside a scope is identified by its
//! plan-order position. The engine threads one [`Recorder`] through its
//! evaluation context and the contexts its worker threads fork; each
//! enumeration call accumulates a local [`ScopeTally`] (plain integers, no
//! locking) and folds it into the recorder's operator table **once per
//! call / once per morsel**, so the shared `Mutex` is touched at gather
//! granularity, not per row. Merging is commutative addition, which is
//! why a profile gathered across four workers equals the sequential one.
//!
//! A *timed* recorder also owns the evaluation's span lanes
//! ([`SpanSink`]): at each timed seam one clock pair files the span and,
//! where the operator keeps the region's duration, its `nanos`. An
//! untimed recorder counts rows and calls and never reads a clock.
//!
//! The profile is intentionally engine-agnostic: ids, row counts, call
//! counts, nanoseconds. `arc-plan`'s analyze renderer joins it back to
//! the plan tree to print `act=N (est=N, q=X.X)` per operator.

use crate::registry::Counter;
use crate::span::{SpanKind, SpanSink, SpanTrace};
use arc_core::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Stable identity of a profiled operator.
///
/// `scope` is the lowering-time scope id (binding-slice address). `step`
/// is `None` for the scope as a whole (its output = rows surviving every
/// binding and leaf filter) and `Some(i)` for the *i*-th join step in
/// **plan order** (the order EXPLAIN prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// Lowering-time scope id.
    pub scope: usize,
    /// Plan-order step position within the scope, or `None` for the
    /// scope-level aggregate.
    pub step: Option<usize>,
}

impl OpId {
    /// The scope-level operator of scope `scope`.
    pub fn scope(scope: usize) -> OpId {
        OpId { scope, step: None }
    }

    /// Step `step` (plan order) of scope `scope`.
    pub fn step(scope: usize, step: usize) -> OpId {
        OpId {
            scope,
            step: Some(step),
        }
    }

    /// The semi/anti-join probe operator of scope `scope` (pseudo-step
    /// `usize::MAX`, which no plan can reach): kept distinct from
    /// [`OpId::scope`] so the probe-side actuals (`calls` = probes,
    /// `rows_in` = built keys, `rows_out` = hits, `nanos` = build time)
    /// never collide with the build pipeline's own scope-level stats —
    /// both derive from the same binding list, hence share `scope`.
    pub fn semi(scope: usize) -> OpId {
        OpId {
            scope,
            step: Some(usize::MAX),
        }
    }
}

/// Accumulated actuals for one operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Invocations: for a step, the number of upstream environments that
    /// entered it (= its actual input rows); for a scope, the number of
    /// times the scope was enumerated (1 for a top-level scope, once per
    /// outer row for a correlated one).
    pub calls: u64,
    /// Rows the operator's access path yielded *before* its pushed-down
    /// filters (candidates: hash-bucket entries, index-range survivors,
    /// scanned rows).
    pub rows_in: u64,
    /// Rows the operator emitted downstream (after pushed filters; for a
    /// scope, rows that survived the leaf — its actual output).
    pub rows_out: u64,
    /// Wall time attributed to the operator, in nanoseconds (zero unless
    /// the record is timed; scope-level time is inclusive of its steps and
    /// sums worker-local busy time when partitioned).
    pub nanos: u64,
}

impl OpStats {
    /// Fold `other` into `self` (commutative, associative — worker-merge
    /// order cannot matter).
    pub fn merge(&mut self, other: &OpStats) {
        self.calls += other.calls;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.nanos += other.nanos;
    }
}

/// Per-worker accounting from the morsel executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLane {
    /// Morsels this worker lane executed.
    pub morsels: u64,
    /// Wall time this lane spent executing morsels, in nanoseconds (zero
    /// unless the record is timed).
    pub busy_nanos: u64,
}

/// A complete per-query execution profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Actuals per operator.
    pub ops: BTreeMap<OpId, OpStats>,
    /// Per-worker-lane accounting (index = lane id; lane 0 is the
    /// coordinator on the sequential path).
    pub workers: Vec<WorkerLane>,
}

impl QueryProfile {
    /// Actuals for `id`, if the operator ran.
    pub fn op(&self, id: OpId) -> Option<&OpStats> {
        self.ops.get(&id)
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &QueryProfile) {
        for (id, stats) in &other.ops {
            self.ops.entry(*id).or_default().merge(stats);
        }
        for (lane, w) in other.workers.iter().enumerate() {
            self.add_lane(lane, w.morsels, w.busy_nanos);
        }
    }

    /// Add morsel/busy accounting to worker lane `lane`.
    fn add_lane(&mut self, lane: usize, morsels: u64, busy_nanos: u64) {
        if self.workers.len() <= lane {
            self.workers.resize(lane + 1, WorkerLane::default());
        }
        self.workers[lane].morsels += morsels;
        self.workers[lane].busy_nanos += busy_nanos;
    }

    /// Serialize as a canonical JSON object. Operator ids are rendered as
    /// `"scope/step"` strings (`"140231.../2"`, `"140231.../-"` for the
    /// scope level) — stable within a process run, which is what bench
    /// output needs.
    pub fn to_json(&self) -> Json {
        let ops = Json::Obj(
            self.ops
                .iter()
                .map(|(id, s)| {
                    let key = match id.step {
                        Some(i) => format!("{}/{}", id.scope, i),
                        None => format!("{}/-", id.scope),
                    };
                    (
                        key,
                        Json::obj([
                            ("calls", Json::Int(s.calls as i64)),
                            ("rows_in", Json::Int(s.rows_in as i64)),
                            ("rows_out", Json::Int(s.rows_out as i64)),
                            ("nanos", Json::Int(s.nanos as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        let workers = Json::Arr(
            self.workers
                .iter()
                .map(|w| {
                    Json::obj([
                        ("morsels", Json::Int(w.morsels as i64)),
                        ("busy_nanos", Json::Int(w.busy_nanos as i64)),
                    ])
                })
                .collect(),
        );
        Json::obj([("ops", ops), ("workers", workers)])
    }
}

/// One evaluation's record, shared by its coordinator and every worker it
/// forks (cloning shares it): the operator table (a [`QueryProfile`] —
/// per-operator actuals and per-lane accounting) and, when the record is
/// **timed**, the span lanes.
///
/// Timing is one bit, fixed at construction: a timed recorder reads the
/// clock at every seam ([`Recorder::start`] / [`Recorder::finish`]) and
/// files each timed region as a span; an untimed one hands out no start,
/// so the same seams cost one `Option` check and no clock read.
#[derive(Debug, Clone)]
pub struct Recorder(Arc<Record>);

#[derive(Debug)]
struct Record {
    table: Mutex<QueryProfile>,
    /// The span lanes; present exactly when the record is timed.
    spans: Option<SpanSink>,
}

impl Recorder {
    /// A recorder, timed iff it has span lanes to file into (a fresh
    /// sink, or a [reset](SpanSink::reset) one reused across
    /// evaluations); untimed, it counts rows and calls only.
    pub fn new(spans: Option<SpanSink>) -> Recorder {
        Recorder(Arc::new(Record {
            table: Mutex::new(QueryProfile::default()),
            spans,
        }))
    }

    /// Open a region whose duration an operator keeps (query, scope,
    /// semi-join build, morsel, builds): its start when timed — one clock
    /// read, whether or not its span will fit — and `None` when untimed.
    #[inline]
    pub fn start(&self) -> Option<u64> {
        self.0.spans.as_ref().map(SpanSink::now)
    }

    /// Open a region only its span wants (plan, step): like
    /// [`Recorder::start`], but `None` — no clock read, one counted drop —
    /// once `lane`'s buffer is full.
    #[inline]
    pub fn span_start(&self, lane: usize) -> Option<u64> {
        self.0.spans.as_ref()?.start(lane)
    }

    /// Close a region: the closing clock read files the span on `lane`
    /// (or counts it dropped) and returns the region's nanoseconds for
    /// the operator — 0 when `start` is `None`.
    pub fn finish(&self, lane: usize, kind: SpanKind, op: OpId, start: Option<u64>) -> u64 {
        match (&self.0.spans, start) {
            (Some(spans), Some(t0)) => spans.complete(lane, kind, op, t0),
            _ => 0,
        }
    }

    /// Nanoseconds since `start`, filing no span (a build timed into a
    /// registry histogram); 0 when `start` is `None`.
    pub fn since(&self, start: Option<u64>) -> u64 {
        match (&self.0.spans, start) {
            (Some(spans), Some(t0)) => spans.now().saturating_sub(t0),
            _ => 0,
        }
    }

    /// Mark `lane` as having participated even if it files no span (a
    /// worker lane at init names its track deterministically).
    pub fn touch(&self, lane: usize) {
        if let Some(spans) = &self.0.spans {
            spans.touch(lane);
        }
    }

    /// Lock the table, recovering from a poisoned mutex. A worker that
    /// panicked mid-merge leaves the table with, at worst, one partial
    /// tally — counters only ever add, so the gathered numbers stay
    /// usable. The poison is cleared so later locks take the fast path.
    fn table(&self) -> MutexGuard<'_, QueryProfile> {
        self.0.table.lock().unwrap_or_else(|poisoned| {
            self.0.table.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Fold actuals for a single operator in.
    pub fn merge_op(&self, id: OpId, stats: OpStats) {
        self.table().ops.entry(id).or_default().merge(&stats);
    }

    /// Record morsel/busy accounting for a worker lane.
    pub fn record_lane(&self, lane: usize, morsels: u64, busy_nanos: u64) {
        self.table().add_lane(lane, morsels, busy_nanos);
    }

    /// Copy out the operator table as gathered so far.
    pub fn profile(&self) -> QueryProfile {
        self.table().clone()
    }

    /// Drain the span lanes (empty when untimed).
    pub fn span_trace(&self) -> SpanTrace {
        let spans = self.0.spans.as_ref();
        spans.map(SpanSink::finish).unwrap_or_default()
    }

    /// Add this record's span counts to the registry's rollups —
    /// `trace.spans` (filed) and `trace.spans.dropped` (lost to a full
    /// lane) — once, when the evaluation ends.
    pub fn roll_up(&self) {
        static ROLLUPS: OnceLock<[Counter; 2]> = OnceLock::new();
        if let Some(spans) = &self.0.spans {
            let [filed, dropped] = ROLLUPS.get_or_init(|| {
                [
                    crate::counter("trace.spans"),
                    crate::counter("trace.spans.dropped"),
                ]
            });
            let (f, d) = spans.counts();
            filed.add(f);
            dropped.add(d);
        }
    }
}

/// The local tally of one enumeration call / one morsel over one scope:
/// the scope's actuals, then each step's, in plain [`Cell`]s — touched
/// on the hot path behind a single `Option` check, and folded into the
/// [`Recorder`] **once**, by [`ScopeTally::flush`].
pub struct ScopeTally {
    /// The scope's stable operator id.
    scope: usize,
    /// `[scope, step 0, step 1, …]`. A step counts `calls` (upstream
    /// environments that reached it), `rows_in` (candidates its access
    /// path yielded), `rows_out` (survivors of its pushed filters) and
    /// `nanos` (its first hash-index or selection build, when timed);
    /// the scope counts `rows_out` (leaf survivors — its output rows) and
    /// `nanos` (its inclusive wall time, when timed).
    ops: Vec<Cell<OpStats>>,
}

impl ScopeTally {
    /// A zeroed tally for scope `scope` with `steps` plan steps.
    pub fn new(scope: usize, steps: usize) -> ScopeTally {
        ScopeTally {
            scope,
            ops: (0..=steps).map(|_| Cell::default()).collect(),
        }
    }

    #[inline]
    fn bump(&self, at: usize, f: impl FnOnce(&mut OpStats)) {
        let mut stats = self.ops[at].get();
        f(&mut stats);
        self.ops[at].set(stats);
    }

    /// Step `i`'s access path started.
    pub fn call(&self, i: usize) {
        self.bump(i + 1, |s| s.calls += 1);
    }

    /// Step `i` yielded a candidate row.
    pub fn row(&self, i: usize) {
        self.bump(i + 1, |s| s.rows_in += 1);
    }

    /// A candidate row survived step `i`'s pushed filters.
    pub fn pass(&self, i: usize) {
        self.bump(i + 1, |s| s.rows_out += 1);
    }

    /// An environment survived the leaf filters (one output row).
    pub fn emit(&self) {
        self.bump(0, |s| s.rows_out += 1);
    }

    /// Step `i`, the last, yielded `n` candidates that had no filter
    /// left to pass and went straight out as output rows: what
    /// [`ScopeTally::row`], [`ScopeTally::pass`] and [`ScopeTally::emit`]
    /// count for each, counted at once.
    pub fn gather(&self, i: usize, n: u64) {
        self.bump(i + 1, |s| {
            s.rows_in += n;
            s.rows_out += n;
        });
        self.bump(0, |s| s.rows_out += n);
    }

    /// Attribute build time to step `i`.
    pub fn add_step_nanos(&self, i: usize, nanos: u64) {
        self.bump(i + 1, |s| s.nanos += nanos);
    }

    /// Attribute wall time to the scope as a whole.
    pub fn add_nanos(&self, nanos: u64) {
        self.bump(0, |s| s.nanos += nanos);
    }

    /// Fold the tally into the recorder — the one lock acquisition per
    /// enumeration call / morsel. `scope_call` is true on the sequential
    /// path and on the parallel coordinator (which counts the scope
    /// entry once); morsel tallies pass false so a partitioned scope
    /// still counts one call, not one per morsel.
    pub fn flush(&self, rec: &Recorder, scope_call: bool) {
        let mut table = rec.table();
        for (at, stats) in self.ops.iter().enumerate() {
            let mut stats = stats.get();
            let id = match at {
                0 => {
                    stats.calls = scope_call as u64;
                    OpId::scope(self.scope)
                }
                _ => OpId::step(self.scope, at - 1),
            };
            table.ops.entry(id).or_default().merge(&stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_addition() {
        let rec = Recorder::new(None);
        // Two "workers" merge partial tallies for the same operator.
        let id = OpId::step(0xabc, 1);
        rec.merge_op(
            id,
            OpStats {
                calls: 3,
                rows_in: 10,
                rows_out: 4,
                nanos: 100,
            },
        );
        rec.merge_op(
            id,
            OpStats {
                calls: 2,
                rows_in: 5,
                rows_out: 1,
                nanos: 50,
            },
        );
        rec.record_lane(1, 4, 1000);
        rec.record_lane(0, 2, 500);
        let p = rec.profile();
        let s = p.op(id).unwrap();
        assert_eq!((s.calls, s.rows_in, s.rows_out, s.nanos), (5, 15, 5, 150));
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.workers[1].morsels, 4);
        assert_eq!(p.workers[0].busy_nanos, 500);
    }

    #[test]
    fn poisoned_sink_recovers_and_keeps_tallies() {
        let rec = Recorder::new(None);
        let id = OpId::step(1, 0);
        rec.merge_op(
            id,
            OpStats {
                calls: 1,
                rows_in: 2,
                rows_out: 2,
                nanos: 10,
            },
        );
        // Poison the mutex: a worker panics while holding the lock.
        let clone = rec.clone();
        std::thread::spawn(move || {
            let _guard = clone.0.table.lock().unwrap();
            panic!("worker panicked mid-merge");
        })
        .join()
        .unwrap_err();
        assert!(rec.0.table.is_poisoned());
        // The recorder keeps working and the pre-panic tallies survive.
        rec.merge_op(
            id,
            OpStats {
                calls: 1,
                rows_in: 3,
                rows_out: 1,
                nanos: 5,
            },
        );
        let p = rec.profile();
        let s = p.op(id).unwrap();
        assert_eq!((s.calls, s.rows_in, s.rows_out, s.nanos), (2, 5, 3, 15));
        assert!(!rec.0.table.is_poisoned(), "recovery clears the poison bit");
    }

    #[test]
    fn profiles_merge_across_sinks() {
        let mut a = QueryProfile::default();
        a.ops.insert(
            OpId::scope(7),
            OpStats {
                calls: 1,
                rows_in: 0,
                rows_out: 9,
                nanos: 0,
            },
        );
        let mut b = QueryProfile::default();
        b.ops.insert(
            OpId::scope(7),
            OpStats {
                calls: 1,
                rows_in: 0,
                rows_out: 3,
                nanos: 0,
            },
        );
        b.workers.push(WorkerLane {
            morsels: 1,
            busy_nanos: 10,
        });
        a.merge(&b);
        assert_eq!(a.op(OpId::scope(7)).unwrap().rows_out, 12);
        assert_eq!(a.workers.len(), 1);
    }

    #[test]
    fn profile_serializes_to_canonical_json() {
        let rec = Recorder::new(None);
        rec.merge_op(
            OpId::step(42, 0),
            OpStats {
                calls: 1,
                rows_in: 2,
                rows_out: 2,
                nanos: 0,
            },
        );
        rec.record_lane(0, 1, 0);
        let text = rec.profile().to_json().to_string();
        assert!(text.contains("\"42/0\""), "{text}");
        assert!(text.contains("\"rows_out\":2"), "{text}");
        assert!(text.contains("\"morsels\":1"), "{text}");
        arc_core::json::parse(&text).expect("profile JSON must reparse");
    }

    #[test]
    fn tallies_fold_into_the_recorder_once() {
        let rec = Recorder::new(None);
        let t = ScopeTally::new(0xfeed, 2);
        t.call(0);
        for _ in 0..5 {
            t.row(0);
            t.pass(0);
            t.call(1);
        }
        t.row(1);
        t.pass(1);
        t.emit();
        t.add_step_nanos(1, 40);
        t.add_nanos(100);
        t.flush(&rec, true);
        // A second (morsel-shaped) tally merges additively, without
        // double-counting the scope call.
        let m = ScopeTally::new(0xfeed, 2);
        m.row(0);
        m.pass(0);
        m.call(1);
        m.flush(&rec, false);
        let p = rec.profile();
        let scope = p.op(OpId::scope(0xfeed)).unwrap();
        assert_eq!((scope.calls, scope.rows_out, scope.nanos), (1, 1, 100));
        let s0 = p.op(OpId::step(0xfeed, 0)).unwrap();
        assert_eq!((s0.calls, s0.rows_in, s0.rows_out), (1, 6, 6));
        let s1 = p.op(OpId::step(0xfeed, 1)).unwrap();
        assert_eq!((s1.calls, s1.rows_in, s1.rows_out, s1.nanos), (6, 1, 1, 40));
    }

    /// One clock pair per timed region: an untimed recorder hands out no
    /// start (so reads no clock); a timed one returns the duration its
    /// span carries.
    #[test]
    fn one_clock_pair_feeds_the_span_and_the_operator() {
        let untimed = Recorder::new(None);
        assert_eq!((untimed.start(), untimed.span_start(0)), (None, None));
        assert!(untimed.span_trace().spans.is_empty());

        let rec = Recorder::new(Some(SpanSink::with_lanes(1)));
        let t0 = rec.start();
        assert!(t0.is_some());
        let nanos = rec.finish(0, SpanKind::Scope, OpId::scope(1), t0);
        assert_eq!(rec.span_trace().spans[0].dur_nanos, nanos);
    }
}
