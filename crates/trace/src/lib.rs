//! # arc-trace — runtime introspection for ARC
//!
//! `EXPLAIN` renders what the planner *intends* (`est=N` per operator);
//! this crate records what execution *actually did*. One evaluation
//! writes one record, through one [`Recorder`]; the process keeps
//! rollups and latency tails beside it:
//!
//! * [`profile`] — the **per-query record**. A [`Recorder`] holds the
//!   operator table (a [`QueryProfile`]: per-operator actual input/output
//!   rows, invocation counts and wall time, keyed by the stable operator
//!   ids that `arc-plan` assigns at lowering time, plus per-worker
//!   morsel/busy accounting from the engine's partitioned scopes), the
//!   span lanes, and one *timed* bit. Untimed, it counts rows and calls
//!   and reads no clock (`EXPLAIN ANALYZE` under the defaults); timed
//!   (`ARC_TRACE=on`, or a span export), each seam — query → plan →
//!   scope → semi-join build → step → morsel — reads one clock pair for
//!   its [`span`], which also feeds the operator's `nanos` wherever the
//!   operator keeps the region's duration. The engine's
//!   `explain_analyze_*` renders the table against the planner's
//!   estimates as `act=N (est=N, q=X.X)` q-error annotations;
//!   [`trace_json`] exports the spans as Chrome Trace Event Format JSON
//!   that Perfetto / `chrome://tracing` render as a per-query timeline.
//! * [`registry`] — a process-wide metrics registry of **named monotonic
//!   counters**, **gauges** and **latency histograms**, all always on.
//!   Counters are plain relaxed atomics (they are how the workspace's
//!   counter-delta tests observe planner/cache/semi-join behavior, and
//!   where each record's span counts roll up: `trace.spans`,
//!   `trace.spans.dropped`). A histogram ([`quantile`]: fixed 128 log
//!   buckets, relaxed atomics, mergeable snapshots) samples coarse seams
//!   only — per query, per morsel, per build — and surfaces as
//!   count/sum/max plus p50/p95/p99 through
//!   [`registry::metrics_text`]'s Prometheus-style exposition. A build
//!   inside an evaluation records the nanos its timed record measured
//!   (nothing when untimed); the registry itself has no switch.
//!
//! The crate depends only on `arc-core` (for [`arc_core::json`]
//! serialization of snapshots and profiles) and sits below `arc-plan`
//! and `arc-engine` in the workspace dependency order.

#![warn(missing_docs)]

pub mod profile;
pub mod quantile;
pub mod registry;
pub mod span;
pub mod trace_json;

pub use profile::{OpId, OpStats, QueryProfile, Recorder, ScopeTally, WorkerLane};
pub use quantile::{Histogram, HistogramSnapshot};
pub use registry::{
    counter, gauge, histogram, metrics_text, snapshot, validate_metric_names, Counter, Gauge,
    Snapshot,
};
pub use span::{Span, SpanKind, SpanSink, SpanTrace, LANE_CAPACITY};
pub use trace_json::{chrome_trace, op_key};

/// Interpret an `ARC_TRACE` environment value: the one parser of the one
/// recording knob. The default is **off**: recording is opt-in, so the
/// unrecorded hot path pays only `Option` checks.
///
/// This is the pure core (unit-testable without touching the process
/// environment, which is racy under parallel tests) behind the engine's
/// `QueryOptions::trace`, which the engine reads once per engine — the
/// only reader of `ARC_TRACE`.
pub fn parse_trace(value: Option<&str>) -> Result<bool, String> {
    match value.map(|v| v.to_lowercase().replace('_', "-")) {
        None => Ok(false),
        Some(v) => match v.as_str() {
            "on" | "1" | "true" | "auto" => Ok(true),
            "" | "off" | "0" | "false" | "no" => Ok(false),
            other => Err(format!(
                "unknown ARC_TRACE `{other}` (expected `on` or `off`)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_defaults_off_and_parses_like_the_other_knobs() {
        assert_eq!(parse_trace(None), Ok(false));
        assert_eq!(parse_trace(Some("")), Ok(false));
        assert_eq!(parse_trace(Some("on")), Ok(true));
        assert_eq!(parse_trace(Some("1")), Ok(true));
        assert_eq!(parse_trace(Some("TRUE")), Ok(true));
        assert_eq!(parse_trace(Some("off")), Ok(false));
        assert_eq!(parse_trace(Some("0")), Ok(false));
        let err = parse_trace(Some("nope")).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(err.contains("ARC_TRACE"), "{err}");
    }
}
