//! The engine's registry metrics: one accessor per named counter or
//! histogram, each a process-global `arc-trace` handle cached in a
//! `OnceLock` so the hot path pays one relaxed atomic load — never a
//! registry lookup.
//!
//! Counters are **always on** (a relaxed `fetch_add` at build/cache
//! sites, which run once per query, not once per row). The hash,
//! selection and semi-join build histograms record only when the
//! evaluation's record is timed (`ARC_TRACE` /
//! [`Engine::with_spans`](crate::eval::Engine::with_spans), or a span
//! export), which is what reads the clocks that feed them; the relation
//! cache misses (chunk encode, ordered-index build) and the query latency
//! read their own clock on every run. The full catalog, including the
//! `plan.*` metrics registered by `arc-plan` and the `exec.*` ones
//! registered by the morsel runner (`morsel.rs`), is
//! documented in the workspace README's Observability section.

use arc_trace::{Counter, Histogram};
use std::sync::OnceLock;

macro_rules! counter_fn {
    ($(#[$doc:meta])* $name:ident, $key:literal) => {
        $(#[$doc])*
        pub fn $name() -> Counter {
            static C: OnceLock<Counter> = OnceLock::new();
            *C.get_or_init(|| arc_trace::counter($key))
        }
    };
}

macro_rules! histogram_fn {
    ($(#[$doc:meta])* $name:ident, $key:literal) => {
        $(#[$doc])*
        pub fn $name() -> Histogram {
            static H: OnceLock<Histogram> = OnceLock::new();
            *H.get_or_init(|| arc_trace::histogram($key))
        }
    };
}

counter_fn!(
    /// `engine.index.hash.builds`: equi-join hash indexes built (misses
    /// of the per-query index cache and, inside a recursive solve, of the
    /// solve's indexes over catalog relations).
    hash_builds,
    "engine.index.hash.builds"
);
counter_fn!(
    /// `engine.index.ordered.builds`: ordered secondary indexes built
    /// (cache misses of the per-relation index cache).
    ordered_builds,
    "engine.index.ordered.builds"
);
counter_fn!(
    /// `engine.index.range.rows`: rows surviving index-range binary
    /// searches (before demoted post-filters).
    index_range_rows,
    "engine.index.range.rows"
);
counter_fn!(
    /// `engine.index.range.dropped`: index-range survivors then dropped
    /// by the demoted constant filters.
    index_range_dropped,
    "engine.index.range.dropped"
);
counter_fn!(
    /// `engine.column.chunk_builds`: columnar chunk views encoded (cache
    /// misses of the per-relation column cache).
    chunk_builds,
    "engine.column.chunk_builds"
);
counter_fn!(
    /// `engine.selection.builds`: selection vectors computed (vectorized
    /// constant-filter prefixes and/or index-range probes).
    selection_builds,
    "engine.selection.builds"
);
counter_fn!(
    /// `engine.selection.cache_hits`: selection vectors served from the
    /// evaluation's build store (correlated scopes re-entering a scan).
    selection_cache_hits,
    "engine.selection.cache_hits"
);
counter_fn!(
    /// `engine.semijoin.builds`: decorrelated semi/anti-join key sets
    /// built (once per evaluation, not once per outer row).
    semi_builds,
    "engine.semijoin.builds"
);
counter_fn!(
    /// `engine.semijoin.probes`: outer rows answered by probing a built
    /// key set.
    semi_probes,
    "engine.semijoin.probes"
);
counter_fn!(
    /// `engine.semijoin.hits`: semi-join probes that found their key.
    semi_hits,
    "engine.semijoin.hits"
);
counter_fn!(
    /// `guard.degradations`: builds denied by the memory budget that
    /// fell back to their streaming/nested path instead of failing.
    guard_degradations,
    "guard.degradations"
);
counter_fn!(
    /// `guard.faults`: injected faults fired
    /// ([`Engine::with_fault`](crate::eval::Engine::with_fault)).
    guard_faults,
    "guard.faults"
);
counter_fn!(
    /// `engine.query.cancelled`: evaluations that surfaced
    /// `EvalError::Cancelled` at the engine boundary.
    query_cancelled,
    "engine.query.cancelled"
);
counter_fn!(
    /// `engine.query.timeout`: evaluations that surfaced
    /// `EvalError::DeadlineExceeded` at the engine boundary.
    query_timeout,
    "engine.query.timeout"
);

histogram_fn!(
    /// `engine.index.hash.build`: wall time of hash-index builds.
    hash_build_time,
    "engine.index.hash.build"
);
histogram_fn!(
    /// `engine.index.ordered.build`: wall time of ordered-index builds.
    ordered_build_time,
    "engine.index.ordered.build"
);
histogram_fn!(
    /// `engine.column.encode`: wall time of columnar chunk encoding.
    chunk_encode_time,
    "engine.column.encode"
);
histogram_fn!(
    /// `engine.selection.build`: wall time of selection-vector builds.
    selection_build_time,
    "engine.selection.build"
);
histogram_fn!(
    /// `engine.semijoin.build`: wall time of semi-join key-set builds.
    semi_build_time,
    "engine.semijoin.build"
);

histogram_fn!(
    /// `engine.query.latency`: end-to-end latency, sampled once per
    /// engine entry point (`eval_collection` / `eval_sentence` /
    /// `eval_program`).
    query_latency,
    "engine.query.latency"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_registered() {
        // Same handle on every call (the OnceLock), and the snapshot
        // carries the registered name once touched.
        hash_builds().add(0);
        semi_build_time();
        let snap = arc_trace::snapshot();
        assert!(snap.counters.contains_key("engine.index.hash.builds"));
        assert!(snap.histograms.contains_key("engine.semijoin.build"));
    }
}
