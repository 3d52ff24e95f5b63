//! The process-wide metrics registry: named monotonic counters, gauges
//! and latency histograms, with snapshot/diff and JSON serialization.
//!
//! ## Design
//!
//! A metric is registered on first use ([`counter`]/[`gauge`]/
//! [`histogram`]) and lives for the process lifetime (`Box::leak` — the
//! registry is a small fixed vocabulary of names, not per-query state).
//! Handles are `Copy` references to leaked atomics, so the record path is
//! a few relaxed atomic ops with no locking; the registry's `Mutex` is
//! touched only at registration and snapshot time.
//!
//! Every metric is **always on**: the workspace's counter-delta tests
//! (plan cache, semi-join builds) observe counters without `ARC_TRACE`,
//! and a relaxed add on an out-of-line cache/build path is already in the
//! noise. The registry has no switch of its own; what decides whether a
//! clock is read is the call site. A build inside an evaluation records
//! the nanoseconds its record's timed span already measured (nothing when
//! the record is untimed); a coarse seam outside an evaluation — a
//! relation-cache miss, a query, a morsel — reads its own
//! clock pair on every run.
//!
//! ## Racing tests
//!
//! Process-global metrics under a multi-threaded test runner can only
//! *grow* between two reads (nothing resets them). Delta assertions
//! therefore either pin an exact zero ("this path must not run") — still
//! sound, concurrent increments would only make the test fail loudly — or
//! assert a bound over a [`Snapshot`] diff taken around the region of
//! interest.

use crate::quantile::{Histogram, HistogramSnapshot, QuantileCell};
use arc_core::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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
// Registration
// ---------------------------------------------------------------------------

struct Registry {
    counters: BTreeMap<&'static str, &'static AtomicU64>,
    gauges: BTreeMap<&'static str, &'static AtomicU64>,
    histograms: BTreeMap<&'static str, &'static QuantileCell>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
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

/// Get (registering on first use) the latency histogram named `name`.
/// Each sample is a few relaxed atomics, so attach one only at coarse
/// seams (per query, per morsel, per build), never per row.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().unwrap();
    let cell = reg
        .histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(QuantileCell::new())));
    Histogram(cell)
}

// ---------------------------------------------------------------------------
// Snapshot / diff
// ---------------------------------------------------------------------------

/// A point-in-time copy of every registered metric. Take one before a
/// region of interest and [`Snapshot::diff`] one taken after it to get
/// race-tolerant deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → full bucket state (mergeable, quantile-queryable;
    /// overflow included).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The change from `earlier` to `self`, per metric. Saturating, so a
    /// pair of snapshots taken in the wrong order clamps to zero instead
    /// of wrapping. A histogram's `max_nanos` carries the later
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
            .map(|(k, v)| (k.clone(), v.diff(&earlier.hist(k))))
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
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

    /// Histogram state by name (empty if absent).
    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Serialize as a canonical JSON object:
    /// `{"counters": {name: n, ...}, "gauges": {name: n, ...},
    /// "histograms": {name: {"count": n, "sum_nanos": n, "max_nanos": n,
    /// "overflow": n, "p50": n, "p95": n, "p99": n, "buckets": [n, ...]},
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
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", plain(&self.counters)),
            ("gauges", plain(&self.gauges)),
            ("histograms", histograms),
        ])
    }

    /// Render every metric in Prometheus text exposition format. Metric
    /// names are the registry's dot-namespaced names with dots mapped to
    /// underscores under an `arc_` prefix (`plan.cache.hit` →
    /// `arc_plan_cache_hit`); histograms export as summaries with
    /// `quantile="0.5"/"0.95"/"0.99"` labels. Deterministic order (the
    /// underlying maps are sorted).
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
            out.push_str(&format!("# TYPE {m} summary\n"));
            for quant in [0.5, 0.95, 0.99] {
                out.push_str(&format!(
                    "{m}{{quantile=\"{quant}\"}} {}\n",
                    h.quantile(quant)
                ));
            }
            out.push_str(&format!(
                "{m}_count {}\n{m}_sum_nanos {}\n{m}_max_nanos {}\n{m}_overflow {}\n",
                h.count, h.sum_nanos, h.max_nanos, h.overflow
            ));
        }
        out
    }
}

/// Copy every registered metric into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap();
    let load = |cells: &BTreeMap<&'static str, &'static AtomicU64>| {
        cells
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    };
    Snapshot {
        counters: load(&reg.counters),
        gauges: load(&reg.gauges),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect(),
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
/// message naming every offender. The workspace's `span_equivalence`
/// test runs it after evaluations have registered the engine's,
/// executor's and planner's names.
pub fn validate_metric_names() -> Result<(), String> {
    let reg = registry().lock().unwrap();
    let mut problems = Vec::new();
    let mut seen: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let all = reg
        .counters
        .keys()
        .map(|k| (*k, "counter"))
        .chain(reg.gauges.keys().map(|k| (*k, "gauge")))
        .chain(reg.histograms.keys().map(|k| (*k, "histogram")));
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
        assert_eq!(d.quantile(1.0), 768, "1000 lands in [768, 1024)");
        // An absent histogram reads as empty.
        assert_eq!(snapshot().hist("test.registry.never_touched").count, 0);
    }

    #[test]
    fn quantile_histograms_snapshot_and_diff() {
        // Every histogram keeps quantile buckets; a diff subtracts them
        // bucket-wise, so the window's quantiles ignore earlier samples.
        let h = histogram("test.registry.quant_diff");
        h.record_nanos(5_000);
        let before = snapshot();
        h.record_nanos(100);
        h.record_nanos(200);
        let d = snapshot().diff(&before).hist("test.registry.quant_diff");
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_nanos, 300);
        assert_eq!(d.quantile(0.5), 96, "100 lands in [96, 128)");
        assert_eq!(d.quantile(1.0), 192, "200 lands in [192, 256)");
    }

    #[test]
    fn snapshot_serializes_to_canonical_json() {
        counter("test.registry.json").add(7);
        histogram("test.registry.json_hist").record_nanos(42);
        let text = snapshot().to_json().to_string();
        assert!(text.contains("\"test.registry.json\":"), "{text}");
        assert!(text.contains("\"test.registry.json_hist\":"), "{text}");
        assert!(text.contains("\"sum_nanos\":"), "{text}");
        assert!(text.contains("\"p99\":"), "{text}");
        // Three maps, one per metric kind: no separate quantile map.
        assert!(!text.contains("\"quantiles\""), "{text}");
        // Round-trips through the arc-core parser.
        arc_core::json::parse(&text).expect("snapshot JSON must reparse");
    }

    #[test]
    fn metrics_text_exposes_quantiles_against_a_known_distribution() {
        // Uniform 1..=1000 µs in nanoseconds: p50 ≈ 500µs, p95 ≈ 950µs,
        // p99 ≈ 990µs — each reported as its bucket floor, less than a
        // third below the exact rank value (the bucketing's worst case).
        let h = histogram("test.registry.exposition");
        for v in 1..=1000u64 {
            h.record_nanos(v * 1000);
        }
        let snap = h.snapshot();
        for (quant, exact) in [(0.5, 500_000u64), (0.95, 950_000), (0.99, 990_000)] {
            let got = snap.quantile(quant);
            assert!(got <= exact, "q={quant}: {got} > {exact}");
            assert!(
                (got as f64) > exact as f64 * (2.0 / 3.0),
                "q={quant}: {got} more than one bucket below {exact}"
            );
        }
        // A build histogram prints the count/sum/max lines scrapers
        // read, with the quantile lines beside them.
        histogram("engine.semijoin.build").record_nanos(42);
        let text = metrics_text();
        for metric in ["arc_test_registry_exposition", "arc_engine_semijoin_build"] {
            assert!(text.contains(&format!("# TYPE {metric} summary")), "{text}");
            for line in [
                "{quantile=\"0.5\"} ",
                "{quantile=\"0.95\"} ",
                "{quantile=\"0.99\"} ",
                "_count ",
                "_sum_nanos ",
                "_max_nanos ",
            ] {
                let needle = format!("\n{metric}{line}");
                assert!(text.contains(&needle), "missing {needle} in:\n{text}");
            }
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
