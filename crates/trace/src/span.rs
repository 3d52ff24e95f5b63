//! Hierarchical execution spans: *when* each operator ran and for how
//! long, recorded into bounded per-worker-lane ring buffers.
//!
//! The operator table ([`profile`](crate::profile)) answers "how many
//! rows, how many calls"; the spans answer "where did the wall clock go,
//! on which lane". A span is one timed region — query → plan → scope →
//! semi-join build → step → morsel — keyed by the same stable
//! [`OpId`]s the profile and `EXPLAIN ANALYZE` use, so a timeline event
//! is joinable back to its `act=N (est=N, q=X.X)` line. The lanes belong
//! to a timed [`Recorder`](crate::Recorder), whose clock pair at each
//! seam files the span and, where the operator keeps the region's
//! duration, its `nanos`.
//!
//! ## Design constraints
//!
//! * **No allocation and no locking on the record path.** Each lane owns
//!   a fixed slab of `AtomicU64` words sized at sink construction
//!   ([`LANE_CAPACITY`] slots × `SLOT_WORDS` words). Recording claims a
//!   slot with one `fetch_add` and publishes it with one `Release` store
//!   of the slot's meta word; readers ([`SpanSink::finish`]) take
//!   `Acquire` loads and skip unpublished slots. Worker lanes never
//!   contend: lane *i* appends only to buffer *i* (the claim counter is
//!   shared-safe anyway, so a mis-stamped lane degrades to contention,
//!   not corruption).
//! * **Bounded with an explicit drop count.** A full lane rejects the
//!   span *at start* — [`SpanSink::start`] returns `None` and bumps the
//!   lane's drop counter, so an overflowing query skips even the clock
//!   reads for the spans it cannot keep (a region whose duration an
//!   operator keeps is still timed, and its span counted dropped at
//!   [`SpanSink::complete`]). The total is surfaced in
//!   [`SpanTrace::dropped`], in the Chrome-trace export's metadata, and
//!   in the registry's `trace.spans.dropped` rollup.
//! * **Zero cost when not recording.** The engine threads one
//!   `Option<Recorder>` through its context; an untimed or absent
//!   recorder owns no lanes, and every seam is one `Option` branch.
//!
//! Timestamps are nanoseconds relative to the sink's construction instant
//! (`Instant` monotonic clock), which is what the Chrome Trace Event
//! Format wants (`ts` is per-trace relative anyway).

use crate::profile::OpId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spans a lane can hold before it starts dropping (per lane, so a
/// 4-thread sink holds 4× this many).
pub const LANE_CAPACITY: usize = 4096;

/// `AtomicU64` words per recorded span slot.
const SLOT_WORDS: usize = 5;

/// Meta-word bit marking a slot as fully written (set last, `Release`).
const READY_BIT: u64 = 1 << 63;
/// Meta-word bit marking `step` as `Some` in the span's [`OpId`].
const HAS_STEP_BIT: u64 = 1 << 62;

/// What kind of timed region a span covers. The hierarchy nests in this
/// order: a query contains plans and scopes, a scope contains semi-join
/// builds and steps, a partitioned scope contains morsels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// One whole engine evaluation (`eval_collection` / `eval_sentence` /
    /// a program).
    Query = 0,
    /// Planning a scope on a global-plan-cache miss (spec building,
    /// lookup, join ordering, access-path choice).
    Plan = 1,
    /// One enumeration of a quantifier scope (once for a top-level scope,
    /// once per outer row for a correlated one).
    Scope = 2,
    /// Building a decorrelated semi/anti-join key set (once per cache
    /// miss, shared across workers afterwards).
    SemiBuild = 3,
    /// One invocation of a join step (all candidate rows of one upstream
    /// environment, including everything nested below it).
    Step = 4,
    /// One morsel executed by a worker lane on the partitioned path.
    Morsel = 5,
}

impl SpanKind {
    fn from_u8(v: u8) -> SpanKind {
        match v {
            0 => SpanKind::Query,
            1 => SpanKind::Plan,
            2 => SpanKind::Scope,
            3 => SpanKind::SemiBuild,
            4 => SpanKind::Step,
            _ => SpanKind::Morsel,
        }
    }

    /// Default display name when no plan-derived name is available.
    pub fn default_name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Plan => "plan",
            SpanKind::Scope => "scope",
            SpanKind::SemiBuild => "semi-join build",
            SpanKind::Step => "step",
            SpanKind::Morsel => "morsel",
        }
    }
}

/// One lane's ring buffer: a claim counter, a drop counter, and the slot
/// slab. `claimed` only grows; slots `[0, claimed.min(LANE_CAPACITY))`
/// may hold published spans (check the ready bit).
struct LaneBuf {
    claimed: AtomicUsize,
    dropped: AtomicU64,
    /// Any span recorded or [`SpanSink::touch`]ed on this lane marks it
    /// used, so the export can name exactly the lanes that participated
    /// (a worker that claimed zero morsels still shows up).
    used: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl LaneBuf {
    fn new() -> LaneBuf {
        let mut slots = Vec::with_capacity(LANE_CAPACITY * SLOT_WORDS);
        slots.resize_with(LANE_CAPACITY * SLOT_WORDS, || AtomicU64::new(0));
        LaneBuf {
            claimed: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            used: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }
}

struct SinkInner {
    epoch: Instant,
    lanes: Vec<LaneBuf>,
}

/// Shared, cloneable handle to a set of per-lane span buffers for one
/// query evaluation. Cloning shares the buffers (`Arc`), which is how
/// the engine's worker threads feed the coordinator's sink.
#[derive(Clone)]
pub struct SpanSink(Arc<SinkInner>);

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("lanes", &self.0.lanes.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanSink {
    /// A sink with buffers for `lanes` worker lanes (lane 0 is the
    /// coordinator; pass the engine's resolved thread count). Clamped to
    /// at least one lane.
    pub fn with_lanes(lanes: usize) -> SpanSink {
        let lanes = lanes.max(1);
        SpanSink(Arc::new(SinkInner {
            epoch: Instant::now(),
            lanes: (0..lanes).map(|_| LaneBuf::new()).collect(),
        }))
    }

    /// Nanoseconds since the sink's epoch — the span clock.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Begin a span on `lane`: returns the start timestamp, or `None`
    /// when the lane's buffer is already full (the drop counter is bumped
    /// and the caller should skip the matching [`SpanSink::complete`] —
    /// no clock is read on the drop path). A `lane` beyond the sink's
    /// buffers also drops (counted on lane 0).
    #[inline]
    pub fn start(&self, lane: usize) -> Option<u64> {
        let buf = match self.0.lanes.get(lane) {
            Some(b) => b,
            None => {
                self.0.lanes[0].dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if buf.claimed.load(Ordering::Relaxed) >= LANE_CAPACITY {
            buf.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(self.now())
    }

    /// End a span begun at `start_nanos` ([`SpanSink::start`] or
    /// [`SpanSink::now`]), publishing it into `lane`'s buffer, and return
    /// its duration. A full lane — or a slot claim that loses a race
    /// against concurrent writers on the same lane (the engine stamps one
    /// lane per worker, so in practice it never does) — counts as a drop.
    pub fn complete(&self, lane: usize, kind: SpanKind, op: OpId, start_nanos: u64) -> u64 {
        let end = self.now();
        let dur = end.saturating_sub(start_nanos);
        let Some(buf) = self.0.lanes.get(lane) else {
            return dur;
        };
        buf.used.store(1, Ordering::Relaxed);
        let slot = buf.claimed.fetch_add(1, Ordering::Relaxed);
        if slot >= LANE_CAPACITY {
            buf.dropped.fetch_add(1, Ordering::Relaxed);
            return dur;
        }
        let base = slot * SLOT_WORDS;
        let mut meta = READY_BIT | ((kind as u64) << 32) | (lane as u64 & 0xffff_ffff);
        let step = match op.step {
            Some(s) => {
                meta |= HAS_STEP_BIT;
                s as u64
            }
            None => 0,
        };
        buf.slots[base + 1].store(op.scope as u64, Ordering::Relaxed);
        buf.slots[base + 2].store(step, Ordering::Relaxed);
        buf.slots[base + 3].store(start_nanos, Ordering::Relaxed);
        buf.slots[base + 4].store(dur, Ordering::Relaxed);
        // Publish last: the ready bit makes the slot visible to readers.
        buf.slots[base].store(meta, Ordering::Release);
        dur
    }

    /// Mark `lane` as having participated even if it records no spans —
    /// worker lanes call this at init so the exported timeline names
    /// exactly `min(threads, morsels)` worker tids deterministically.
    pub fn touch(&self, lane: usize) {
        if let Some(buf) = self.0.lanes.get(lane) {
            buf.used.store(1, Ordering::Relaxed);
        }
    }

    /// Rewind every lane so the buffers can be reused for another
    /// evaluation without reallocating the slabs: claim, drop, and used
    /// counters go back to zero, and subsequent writes overwrite old
    /// slots (each slot republishes via its meta word, so a reader never
    /// sees stale data below the new claim point). This is how an engine
    /// under `ARC_TRACE=on` amortizes one sink across the evaluations
    /// nobody exports — O(lanes) atomic stores per reset, no zeroing of
    /// the slot slabs.
    /// Resetting while another evaluation is still recording into the
    /// sink scrambles that evaluation's spans (never memory-unsafe —
    /// everything is atomics); callers that export must use a dedicated
    /// sink per evaluation, as `span_trace_*` do.
    pub fn reset(&self) {
        for buf in &self.0.lanes {
            buf.claimed.store(0, Ordering::Relaxed);
            buf.dropped.store(0, Ordering::Relaxed);
            buf.used.store(0, Ordering::Relaxed);
        }
    }

    /// Total spans dropped across all lanes (buffer overflow).
    pub fn dropped(&self) -> u64 {
        self.counts().1
    }

    /// `(filed, dropped)` across all lanes: spans that claimed a slot,
    /// and spans lost to a full lane.
    pub fn counts(&self) -> (u64, u64) {
        self.0.lanes.iter().fold((0, 0), |(filed, dropped), b| {
            let claimed = b.claimed.load(Ordering::Relaxed).min(LANE_CAPACITY);
            (
                filed + claimed as u64,
                dropped + b.dropped.load(Ordering::Relaxed),
            )
        })
    }

    /// Drain the buffers into an owned [`SpanTrace`]. Spans are returned
    /// lane-major in publish order; unpublished (still-racing) slots are
    /// skipped.
    pub fn finish(&self) -> SpanTrace {
        let mut spans = Vec::new();
        let mut lanes = Vec::new();
        for (lane, buf) in self.0.lanes.iter().enumerate() {
            if buf.used.load(Ordering::Relaxed) != 0 {
                lanes.push(lane);
            }
            let filled = buf.claimed.load(Ordering::Relaxed).min(LANE_CAPACITY);
            for slot in 0..filled {
                let base = slot * SLOT_WORDS;
                let meta = buf.slots[base].load(Ordering::Acquire);
                if meta & READY_BIT == 0 {
                    continue;
                }
                let kind = SpanKind::from_u8(((meta >> 32) & 0xff) as u8);
                let scope = buf.slots[base + 1].load(Ordering::Relaxed) as usize;
                let op = if meta & HAS_STEP_BIT != 0 {
                    OpId::step(scope, buf.slots[base + 2].load(Ordering::Relaxed) as usize)
                } else {
                    OpId::scope(scope)
                };
                spans.push(Span {
                    kind,
                    op,
                    lane,
                    start_nanos: buf.slots[base + 3].load(Ordering::Relaxed),
                    dur_nanos: buf.slots[base + 4].load(Ordering::Relaxed),
                });
            }
        }
        SpanTrace {
            spans,
            lanes,
            dropped: self.dropped(),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Region kind.
    pub kind: SpanKind,
    /// Operator identity (joinable to profiles and `EXPLAIN ANALYZE`).
    pub op: OpId,
    /// Worker lane that executed the region (0 = coordinator).
    pub lane: usize,
    /// Start, nanoseconds since the sink epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
}

impl Span {
    /// End timestamp, nanoseconds since the sink epoch.
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.dur_nanos)
    }
}

/// A drained set of spans from one evaluation, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTrace {
    /// All published spans, lane-major.
    pub spans: Vec<Span>,
    /// Lanes that participated (recorded a span or were touched).
    pub lanes: Vec<usize>,
    /// Spans lost to lane-buffer overflow.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_finish_roundtrip() {
        let sink = SpanSink::with_lanes(2);
        let t0 = sink.start(0).expect("empty lane accepts");
        sink.complete(0, SpanKind::Query, OpId::scope(7), t0);
        let t1 = sink.start(1).expect("lane 1 accepts");
        sink.complete(1, SpanKind::Step, OpId::step(7, 2), t1);
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.lanes, vec![0, 1]);
        let q = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Query)
            .unwrap();
        assert_eq!(q.op, OpId::scope(7));
        assert_eq!(q.lane, 0);
        let s = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Step)
            .unwrap();
        assert_eq!(s.op, OpId::step(7, 2));
        assert!(s.end_nanos() >= s.start_nanos);
    }

    #[test]
    fn overflow_drops_are_counted_not_lost_silently() {
        let sink = SpanSink::with_lanes(1);
        for _ in 0..LANE_CAPACITY {
            let t = sink.start(0).expect("under capacity");
            sink.complete(0, SpanKind::Morsel, OpId::step(1, 0), t);
        }
        // The lane is now full: start refuses (no clock read, no slot).
        assert!(sink.start(0).is_none());
        assert!(sink.start(0).is_none());
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), LANE_CAPACITY);
        assert_eq!(trace.dropped, 2);
    }

    #[test]
    fn out_of_range_lane_drops_on_lane_zero() {
        let sink = SpanSink::with_lanes(1);
        assert!(sink.start(9).is_none());
        assert_eq!(sink.dropped(), 1);
        // complete() with a bad lane is a no-op, not a panic.
        sink.complete(9, SpanKind::Scope, OpId::scope(1), 0);
        assert_eq!(sink.finish().spans.len(), 0);
    }

    #[test]
    fn touch_marks_a_lane_without_spans() {
        let sink = SpanSink::with_lanes(4);
        sink.touch(2);
        let t0 = sink.start(0).unwrap();
        sink.complete(0, SpanKind::Query, OpId::scope(0), t0);
        let trace = sink.finish();
        assert_eq!(trace.lanes, vec![0, 2]);
    }

    #[test]
    fn reset_rewinds_full_lanes_for_reuse() {
        let sink = SpanSink::with_lanes(2);
        for _ in 0..LANE_CAPACITY {
            let t = sink.start(0).expect("under capacity");
            sink.complete(0, SpanKind::Morsel, OpId::step(1, 0), t);
        }
        assert!(sink.start(0).is_none(), "full lane drops");
        sink.reset();
        // Post-reset the lane accepts again and old state is gone.
        assert_eq!(sink.dropped(), 0);
        let t = sink.start(0).expect("reset lane accepts");
        sink.complete(0, SpanKind::Query, OpId::scope(3), t);
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].op, OpId::scope(3));
        assert_eq!(trace.lanes, vec![0], "touch state also rewinds");
    }

    #[test]
    fn timestamps_are_monotonic_per_lane() {
        let sink = SpanSink::with_lanes(1);
        let a = sink.start(0).unwrap();
        sink.complete(0, SpanKind::Scope, OpId::scope(1), a);
        let b = sink.start(0).unwrap();
        assert!(b >= a);
        sink.complete(0, SpanKind::Scope, OpId::scope(2), b);
        let t = sink.finish();
        assert!(t.spans[0].start_nanos <= t.spans[1].start_nanos);
    }
}
