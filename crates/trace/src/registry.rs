//! The process-wide metrics registry: named monotonic counters, gauges
//! and duration histograms, with snapshot/reset/diff and JSON
//! serialization.
//!
//! ## Design
//!
//! A metric is registered on first use ([`counter`]/[`histogram`]) and
//! lives for the process lifetime (`Box::leak` — the registry is a small
//! fixed vocabulary of names, not per-query state). Handles are `Copy`
//! references to leaked atomics, so the increment path is a single
//! relaxed `fetch_add` with no locking; the registry's `Mutex` is touched
//! only at registration and snapshot time.
//!
//! Counters are **always on**: the workspace's counter-delta tests (plan
//! cache, semi-join builds) observe them without `ARC_TRACE`, and a
//! relaxed add on an out-of-line cache/build path is already in the
//! noise. What the [`enabled`] gate guards is *clock reads*: call
//! [`maybe_now`] at a region start and [`record_since`] at its end, and
//! the disabled path costs one atomic load and two branches.
//!
//! ## Racing tests
//!
//! Process-global counters under a multi-threaded test runner can only
//! *grow* between two reads. Delta assertions therefore either pin an
//! exact zero ("this path must not run") — still sound, concurrent
//! increments would only make the test fail loudly — or assert an upper
//! bound over a [`Snapshot`] diff taken around the region of interest.
//! [`Snapshot::diff`] is saturating, so a reset racing a reader never
//! underflows.

use crate::quantile::{QuantileCell, QuantileHistogram, QuantileSnapshot};
use arc_core::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The enabled gate
// ---------------------------------------------------------------------------

/// Tracing gate: seeded from `ARC_TRACE` on first read (a malformed value
/// seeds `false` here; the *engine* surfaces the parse error as a config
/// error), overridable with [`set_enabled`].
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_cell() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let env = std::env::var("ARC_TRACE").ok();
        AtomicBool::new(crate::parse_trace(env.as_deref()).unwrap_or(false))
    })
}

/// Is expensive instrumentation (wall-clock timing) on? A single relaxed
/// atomic load — the entire cost of the facade when tracing is off.
#[inline]
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Override the tracing gate for this process (e.g. a test that wants
/// timings regardless of the environment).
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// `Some(Instant::now())` when tracing is enabled, `None` otherwise — the
/// region-start half of the timing facade.
#[inline]
pub fn maybe_now() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Region-end half of the timing facade: record the elapsed time into
/// `hist` if [`maybe_now`] handed out a start. Returns the elapsed
/// nanoseconds when it recorded (callers that also fold the duration into
/// a per-query profile reuse it instead of reading the clock twice).
#[inline]
pub fn record_since(hist: Histogram, start: Option<Instant>) -> Option<u64> {
    let start = start?;
    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    hist.record_nanos(nanos);
    Some(nanos)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotonic counter. `Copy` handle to a leaked atomic; cache it
/// in a `OnceLock` at the call site to skip the registry lookup.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Add `n` (relaxed; ordering between counters is not meaningful).
    #[inline]
    pub fn add(self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge: a value that is *set*, not accumulated (how many
/// entries a cache holds now). Same leaked-atomic handle as [`Counter`].
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    /// Set the current value (relaxed).
    #[inline]
    pub fn set(self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

const BUCKETS: usize = 64;

/// Backing storage for a duration histogram: power-of-two nanosecond
/// buckets (bucket *i* counts durations with `ilog2(nanos) == i`), plus
/// count/sum/max for exact averages.
struct HistogramCell {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

/// A named duration histogram. `Copy` handle, like [`Counter`].
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramCell);

impl Histogram {
    /// Record one observation of `nanos` nanoseconds.
    #[inline]
    pub fn record_nanos(self, nanos: u64) {
        let cell = self.0;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        let bucket = if nanos == 0 {
            0
        } else {
            nanos.ilog2() as usize
        };
        cell.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn sum_nanos(self) -> u64 {
        self.0.sum_nanos.load(Ordering::Relaxed)
    }

    /// Largest recorded duration, in nanoseconds.
    pub fn max_nanos(self) -> u64 {
        self.0.max_nanos.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

struct Registry {
    counters: BTreeMap<&'static str, &'static AtomicU64>,
    gauges: BTreeMap<&'static str, &'static AtomicU64>,
    histograms: BTreeMap<&'static str, &'static HistogramCell>,
    quantiles: BTreeMap<&'static str, &'static QuantileCell>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            quantiles: BTreeMap::new(),
        })
    })
}

/// Get (registering on first use) the counter named `name`. Names are
/// dot-separated lowercase (`plan.cache.hit`); see the README metric
/// catalog.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry().lock().unwrap();
    let cell = reg
        .counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Counter(cell)
}

/// Get (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = registry().lock().unwrap();
    let cell = reg
        .gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Gauge(cell)
}

/// Get (registering on first use) the duration histogram named `name`.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().unwrap();
    let cell = reg
        .histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(HistogramCell::new())));
    Histogram(cell)
}

/// Get (registering on first use) the latency quantile histogram named
/// `name`. Unlike duration [`Histogram`]s these are **always on** (no
/// `ARC_TRACE` gate) — they are the p50/p99 surface the exposition
/// endpoint scrapes — so attach them only at coarse seams (per query,
/// per morsel).
pub fn quantile_histogram(name: &'static str) -> QuantileHistogram {
    let mut reg = registry().lock().unwrap();
    let cell = reg
        .quantiles
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(QuantileCell::new())));
    QuantileHistogram(cell)
}

// ---------------------------------------------------------------------------
// Snapshot / reset / diff
// ---------------------------------------------------------------------------

/// Point-in-time histogram statistics inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed durations, nanoseconds.
    pub sum_nanos: u64,
    /// Largest observed duration, nanoseconds.
    pub max_nanos: u64,
}

/// A point-in-time copy of every registered metric. Take one before a
/// region of interest and [`Snapshot::diff`] one taken after it to get
/// race-tolerant deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → (count, sum, max).
    pub histograms: BTreeMap<String, HistStats>,
    /// Quantile histogram name → full bucket state (mergeable,
    /// quantile-queryable; overflow drops included).
    pub quantiles: BTreeMap<String, QuantileSnapshot>,
}

impl Snapshot {
    /// The change from `earlier` to `self`, per metric. Saturating — a
    /// concurrent [`reset`] can make a later reading smaller, which
    /// clamps to zero instead of wrapping. `max_nanos` carries the later
    /// snapshot's value (maxima don't subtract meaningfully), and so do
    /// gauges (a level is not a delta).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let before = earlier.histograms.get(k).copied().unwrap_or_default();
                (
                    k.clone(),
                    HistStats {
                        count: v.count.saturating_sub(before.count),
                        sum_nanos: v.sum_nanos.saturating_sub(before.sum_nanos),
                        max_nanos: v.max_nanos,
                    },
                )
            })
            .collect();
        let quantiles = self
            .quantiles
            .iter()
            .map(|(k, v)| {
                let before = earlier.quantiles.get(k).cloned().unwrap_or_default();
                (k.clone(), v.diff(&before))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            quantiles,
        }
    }

    /// Gauge value by name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Counter value by name (0 if absent — e.g. not yet registered when
    /// the snapshot was taken).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram stats by name (zeros if absent).
    pub fn hist(&self, name: &str) -> HistStats {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// Quantile histogram state by name (empty if absent).
    pub fn quantile(&self, name: &str) -> QuantileSnapshot {
        self.quantiles.get(name).cloned().unwrap_or_default()
    }

    /// Serialize as a canonical JSON object:
    /// `{"counters": {name: n, ...}, "gauges": {name: n, ...},
    /// "histograms": {name: {"count": n, "sum_nanos": n, "max_nanos": n},
    /// ...}}`.
    pub fn to_json(&self) -> Json {
        let plain = |values: &BTreeMap<String, u64>| {
            Json::Obj(
                values
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                    .collect(),
            )
        };
        let (counters, gauges) = (plain(&self.counters), plain(&self.gauges));
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::Int(v.count as i64)),
                            ("sum_nanos", Json::Int(v.sum_nanos as i64)),
                            ("max_nanos", Json::Int(v.max_nanos as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        let quantiles = Json::Obj(
            self.quantiles
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("quantiles", quantiles),
        ])
    }

    /// Render every metric in Prometheus text exposition format. Metric
    /// names are the registry's dot-namespaced names with dots mapped to
    /// underscores under an `arc_` prefix (`plan.cache.hit` →
    /// `arc_plan_cache_hit`); quantile histograms export as summaries
    /// with `quantile="0.5"/"0.95"/"0.99"` labels. Deterministic order
    /// (the underlying maps are sorted).
    pub fn metrics_text(&self) -> String {
        fn mangle(name: &str) -> String {
            format!("arc_{}", name.replace('.', "_"))
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = mangle(name);
            out.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let m = mangle(name);
            out.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let m = mangle(name);
            out.push_str(&format!(
                "# TYPE {m} summary\n{m}_count {}\n{m}_sum_nanos {}\n{m}_max_nanos {}\n",
                h.count, h.sum_nanos, h.max_nanos
            ));
        }
        for (name, q) in &self.quantiles {
            let m = mangle(name);
            out.push_str(&format!("# TYPE {m} summary\n"));
            for quant in [0.5, 0.95, 0.99] {
                out.push_str(&format!(
                    "{m}{{quantile=\"{quant}\"}} {}\n",
                    q.quantile(quant)
                ));
            }
            out.push_str(&format!(
                "{m}_count {}\n{m}_sum_nanos {}\n{m}_max_nanos {}\n{m}_overflow {}\n",
                q.count, q.sum_nanos, q.max_nanos, q.overflow
            ));
        }
        out
    }
}

/// Copy every registered metric into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap();
    let counters = reg
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = reg
        .gauges
        .iter()
        .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .iter()
        .map(|(k, v)| {
            (
                k.to_string(),
                HistStats {
                    count: v.count.load(Ordering::Relaxed),
                    sum_nanos: v.sum_nanos.load(Ordering::Relaxed),
                    max_nanos: v.max_nanos.load(Ordering::Relaxed),
                },
            )
        })
        .collect();
    let quantiles = reg
        .quantiles
        .iter()
        .map(|(k, v)| (k.to_string(), v.snapshot()))
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
        quantiles,
    }
}

/// Zero every registered counter and histogram (a gauge mirrors live
/// state and keeps its value). Tests should prefer [`Snapshot::diff`]
/// (reset is process-global and visible to concurrent tests); reset
/// exists for long-lived processes that want fresh windows.
pub fn reset() {
    let reg = registry().lock().unwrap();
    for v in reg.counters.values() {
        v.store(0, Ordering::Relaxed);
    }
    for v in reg.histograms.values() {
        v.count.store(0, Ordering::Relaxed);
        v.sum_nanos.store(0, Ordering::Relaxed);
        v.max_nanos.store(0, Ordering::Relaxed);
        for b in &v.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
    for v in reg.quantiles.values() {
        v.reset();
    }
}

/// Render every registered metric in Prometheus text exposition format
/// (a live-registry shorthand for [`Snapshot::metrics_text`]).
pub fn metrics_text() -> String {
    snapshot().metrics_text()
}

/// Lint every registered metric name: dot-namespaced (at least two
/// segments), snake_case segments (`[a-z][a-z0-9_]*`), and unique across
/// metric kinds — the contract that keeps [`metrics_text`] output
/// machine-scrapable (names mangle injectively to `arc_*`). Returns a
/// message naming every offender. CI runs this as a unit test after the
/// full workspace vocabulary has registered.
pub fn validate_metric_names() -> Result<(), String> {
    let reg = registry().lock().unwrap();
    let mut problems = Vec::new();
    let mut seen: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let all = reg
        .counters
        .keys()
        .map(|k| (*k, "counter"))
        .chain(reg.gauges.keys().map(|k| (*k, "gauge")))
        .chain(reg.histograms.keys().map(|k| (*k, "histogram")))
        .chain(reg.quantiles.keys().map(|k| (*k, "quantile")));
    for (name, kind) in all {
        if !name_well_formed(name) {
            problems.push(format!(
                "`{name}` ({kind}) is not dot-namespaced snake_case"
            ));
        }
        if let Some(prior) = seen.insert(name, kind) {
            problems.push(format!("`{name}` registered as both {prior} and {kind}"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Is `name` dot-namespaced snake_case (`seg.seg[.seg...]`, each segment
/// `[a-z][a-z0-9_]*`)?
fn name_well_formed(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let c = counter("test.registry.alpha");
        let again = counter("test.registry.alpha");
        let before = c.get();
        c.inc();
        again.add(2);
        assert_eq!(c.get() - before, 3);
    }

    #[test]
    fn snapshot_diff_isolates_a_region() {
        let c = counter("test.registry.region");
        let before = snapshot();
        c.add(5);
        let delta = snapshot().diff(&before);
        assert_eq!(delta.counter("test.registry.region"), 5);
        // A metric absent from the earlier snapshot diffs against zero.
        assert_eq!(delta.counter("test.registry.never-touched"), 0);
    }

    #[test]
    fn gauges_hold_a_level_that_diffs_do_not_subtract() {
        let g = gauge("test.registry.level");
        g.set(7);
        let before = snapshot();
        g.set(4);
        let after = snapshot();
        assert_eq!(after.gauge("test.registry.level"), 4);
        assert_eq!(after.diff(&before).gauge("test.registry.level"), 4);
        let text = after.metrics_text();
        assert!(
            text.contains("# TYPE arc_test_registry_level gauge\narc_test_registry_level 4\n"),
            "{text}"
        );
    }

    #[test]
    fn histograms_track_count_sum_max() {
        let h = histogram("test.registry.hist");
        let before = snapshot();
        h.record_nanos(10);
        h.record_nanos(1000);
        h.record_nanos(0);
        let d = snapshot().diff(&before).hist("test.registry.hist");
        assert_eq!(d.count, 3);
        assert_eq!(d.sum_nanos, 1010);
        assert!(d.max_nanos >= 1000);
    }

    #[test]
    fn timing_facade_is_inert_when_disabled() {
        let h = histogram("test.registry.gated");
        let was = enabled();
        set_enabled(false);
        let before = h.count();
        let start = maybe_now();
        assert!(start.is_none());
        assert_eq!(record_since(h, start), None);
        assert_eq!(h.count(), before);

        set_enabled(true);
        let start = maybe_now();
        assert!(start.is_some());
        assert!(record_since(h, start).is_some());
        assert_eq!(h.count(), before + 1);
        set_enabled(was);
    }

    #[test]
    fn snapshot_serializes_to_canonical_json() {
        counter("test.registry.json").add(7);
        histogram("test.registry.json_hist").record_nanos(42);
        quantile_histogram("test.registry.json_quant").record_nanos(42);
        let j = snapshot().to_json();
        let text = j.to_string();
        assert!(text.contains("\"test.registry.json\":"), "{text}");
        assert!(text.contains("\"test.registry.json_hist\":"), "{text}");
        assert!(text.contains("\"test.registry.json_quant\":"), "{text}");
        assert!(text.contains("\"sum_nanos\":"), "{text}");
        assert!(text.contains("\"p99\":"), "{text}");
        // Round-trips through the arc-core parser.
        arc_core::json::parse(&text).expect("snapshot JSON must reparse");
    }

    #[test]
    fn quantile_histograms_snapshot_and_diff() {
        let q = quantile_histogram("test.registry.quant_diff");
        let before = snapshot();
        q.record_nanos(100);
        q.record_nanos(200);
        let d = snapshot()
            .diff(&before)
            .quantile("test.registry.quant_diff");
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_nanos, 300);
    }

    #[test]
    fn metrics_text_exposes_quantiles_against_a_known_distribution() {
        // Uniform 1..=1000 µs in nanoseconds: p50 ≈ 500µs, p95 ≈ 950µs,
        // p99 ≈ 990µs — each reported as its bucket floor, within one
        // half-octave bucket (≤ 25% below) of the exact rank value.
        let q = quantile_histogram("test.registry.exposition");
        for v in 1..=1000u64 {
            q.record_nanos(v * 1000);
        }
        let snap = q.snapshot();
        for (quant, exact) in [(0.5, 500_000u64), (0.95, 950_000), (0.99, 990_000)] {
            let got = snap.quantile(quant);
            assert!(got <= exact, "q={quant}: {got} > {exact}");
            assert!(
                got as f64 >= exact as f64 * 0.75,
                "q={quant}: {got} more than one bucket below {exact}"
            );
        }
        let text = metrics_text();
        assert!(
            text.contains("# TYPE arc_test_registry_exposition summary"),
            "{text}"
        );
        for quant in ["0.5", "0.95", "0.99"] {
            let needle = format!("arc_test_registry_exposition{{quantile=\"{quant}\"}} ");
            assert!(text.contains(&needle), "missing {needle} in:\n{text}");
        }
        assert!(
            text.contains("arc_test_registry_exposition_count 1000"),
            "{text}"
        );
        assert!(
            text.contains("arc_test_registry_exposition_overflow 0"),
            "{text}"
        );
    }

    #[test]
    fn metric_name_lint_accepts_the_catalog_shape_only() {
        // Shape rules, exercised directly (bad names never reach the
        // live registry — that would poison the registry-wide lint).
        assert!(name_well_formed("plan.cache.hit"));
        assert!(name_well_formed("engine.index.hash.builds"));
        assert!(name_well_formed("exec.morsel.latency"));
        assert!(!name_well_formed("flat")); // not namespaced
        assert!(!name_well_formed("has-hyphen.segment"));
        assert!(!name_well_formed("Upper.case"));
        assert!(!name_well_formed("trailing.dot."));
        assert!(!name_well_formed(".leading.dot"));
        assert!(!name_well_formed("digit.1leading"));
        assert!(!name_well_formed("has space.x"));
    }

    #[test]
    fn registered_metric_names_pass_the_lint() {
        counter("test.registry.lint_ok");
        validate_metric_names().expect("every registered name is clean");
    }
}
