//! # arc-trace — runtime introspection for ARC
//!
//! PR 2's `EXPLAIN` renders what the planner *intends* (`est=N` per
//! operator); this crate records what execution *actually did*. It is the
//! repo's first cross-cutting observability layer and has two halves:
//!
//! * [`registry`] — a process-wide metrics registry of **named monotonic
//!   counters**, **gauges** and **duration histograms**. Counters are plain relaxed
//!   atomics and always on (they are how the workspace's counter-delta
//!   tests observe planner/cache/semi-join behavior); the *expensive*
//!   instrumentation — reading clocks — hides behind a single
//!   `AtomicBool` load ([`enabled`]), so `ARC_TRACE=off` (the default)
//!   costs one branch per timed region.
//! * [`profile`] — **per-query execution profiles**: per-operator actual
//!   input/output rows, invocation counts and wall time, keyed by the
//!   stable operator ids that `arc-plan` assigns at lowering time, plus
//!   per-worker busy/morsel accounting from `arc-exec`. The engine's
//!   `explain_analyze_*` renders these against the planner's estimates
//!   as `act=N (est=N, q=X.X)` q-error annotations.
//!
//! v2 adds two more layers on the same operator-id spine:
//!
//! * [`span`] + [`trace_json`] — **hierarchical execution spans** (query
//!   → plan → scope → semi-join build → step → morsel) recorded into
//!   bounded per-lane ring buffers behind the `ARC_SPANS` knob (default
//!   off), exported as Chrome Trace Event Format JSON that Perfetto /
//!   `chrome://tracing` render as a per-query timeline.
//! * [`quantile`] — **always-on latency quantile histograms** (fixed
//!   128 log buckets, relaxed atomics, mergeable snapshots) at the
//!   per-query and per-morsel seams, surfaced as p50/p95/p99 through
//!   [`registry::metrics_text`]'s Prometheus-style exposition.
//!
//! The crate depends only on `arc-core` (for [`arc_core::json`]
//! serialization of snapshots and profiles) and sits below `arc-plan`,
//! `arc-exec`, and `arc-engine` in the workspace dependency order.

#![warn(missing_docs)]

pub mod profile;
pub mod quantile;
pub mod registry;
pub mod span;
pub mod trace_json;

pub use profile::{OpId, OpStats, ProfileSink, QueryProfile, WorkerLane};
pub use quantile::{QuantileHistogram, QuantileSnapshot, QUANTILE_BUCKETS};
pub use registry::{
    counter, enabled, gauge, histogram, maybe_now, metrics_text, quantile_histogram, record_since,
    reset, set_enabled, snapshot, validate_metric_names, Counter, Gauge, Histogram, Snapshot,
};
pub use span::{Span, SpanKind, SpanSink, SpanTrace, LANE_CAPACITY};
pub use trace_json::{chrome_trace, op_key};

/// Interpret an `ARC_TRACE` environment value. Unlike the engine's other
/// knobs, the default is **off**: tracing is opt-in, so the untraced hot
/// path pays only the [`enabled`] atomic-load guard.
///
/// This is the pure core (unit-testable without touching the process
/// environment, which is racy under parallel tests) behind the
/// process-wide [`enabled`] flag; the engine reads the same variable once
/// per engine into its `QueryOptions`, through a knob registry that a unit
/// test there keeps in agreement with this parser.
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
