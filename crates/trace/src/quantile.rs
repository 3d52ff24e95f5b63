//! The registry's one histogram type: always-on, mergeable latency
//! histograms (HDR-style log-bucketing, fixed 128 buckets, relaxed
//! atomics).
//!
//! A [`Histogram`] keeps count/sum/max for exact averages plus just enough
//! bucket resolution to answer p50/p95/p99 within a bounded relative
//! error, while staying:
//!
//! * **cheap** — recording is four relaxed `fetch_add`s and one
//!   `fetch_max`, no locks, no allocation; fit for coarse seams (once per
//!   query, per morsel, per build), never per row;
//! * **mergeable** — buckets are plain counts, so snapshots merge by
//!   addition (associative and commutative: per-worker or per-window
//!   histograms fold into totals in any order);
//! * **bounded** — exactly 128 buckets regardless of the value range.
//!
//! ## Bucketing scheme
//!
//! Values 0–15 ns get exact unit buckets (indices 0–15). Above that, each
//! power-of-two octave is split in half by its next-highest bit — two
//! buckets per octave — and a reported quantile is the floor of its
//! bucket, so it is less than 1/3 below the true value. The worst case
//! is the top of a lower half-octave: 383 lies in `[256, 384)` and
//! reports 256. Values past the last bucket (≈ 2⁶⁰ ns ≈ 36 years) land in
//! an explicit overflow count that snapshots surface, so saturation is
//! visible rather than silently folded into the top bucket.

use arc_core::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of buckets in every histogram.
const QUANTILE_BUCKETS: usize = 128;

/// Bucket index for a nanosecond value, or `None` for overflow.
#[inline]
fn bucket_index(nanos: u64) -> Option<usize> {
    if nanos < 16 {
        return Some(nanos as usize);
    }
    let octave = nanos.ilog2() as usize; // >= 4
    let half = ((nanos >> (octave - 1)) & 1) as usize;
    let idx = 16 + (octave - 4) * 2 + half;
    (idx < QUANTILE_BUCKETS).then_some(idx)
}

/// Smallest value that lands in bucket `idx` — the representative a
/// quantile query reports.
fn bucket_floor(idx: usize) -> u64 {
    if idx < 16 {
        return idx as u64;
    }
    let k = idx - 16;
    let octave = 4 + k / 2;
    let base = 1u64 << octave;
    if k.is_multiple_of(2) {
        base
    } else {
        base | (base >> 1)
    }
}

/// Backing storage for a histogram (the leaked registry cell).
pub(crate) struct QuantileCell {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
    overflow: AtomicU64,
    buckets: [AtomicU64; QUANTILE_BUCKETS],
}

impl QuantileCell {
    pub(crate) fn new() -> QuantileCell {
        QuantileCell {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; QUANTILE_BUCKETS],
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A named latency histogram. `Copy` handle to a leaked cell, like
/// [`Counter`](crate::Counter); obtain one from
/// [`histogram`](crate::registry::histogram).
#[derive(Clone, Copy)]
pub struct Histogram(pub(crate) &'static QuantileCell);

impl Histogram {
    /// Record one observation of `nanos` nanoseconds (relaxed atomics).
    #[inline]
    pub fn record_nanos(self, nanos: u64) {
        let cell = self.0;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        match bucket_index(nanos) {
            Some(idx) => {
                cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            }
            None => {
                cell.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record the time elapsed since `start`.
    #[inline]
    pub fn record_elapsed(self, start: Instant) {
        self.record_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Point-in-time copy of the full bucket state.
    pub fn snapshot(self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// Owned bucket state of a histogram: the mergeable, quantile-queryable
/// value type snapshots and diffs work over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values, nanoseconds.
    pub sum_nanos: u64,
    /// Largest observed value, nanoseconds.
    pub max_nanos: u64,
    /// Observations past the last bucket (saturation — nonzero means the
    /// top quantiles are floor-reported from `max_nanos`).
    pub overflow: u64,
    /// Per-bucket counts, 128 long.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
            overflow: 0,
            buckets: vec![0; QUANTILE_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Record into an owned snapshot (plain arithmetic — used by tests
    /// and by anything accumulating off the hot path).
    pub fn record_nanos(&mut self, nanos: u64) {
        self.count += 1;
        // Saturating: min(MAX, Σ) is order-independent, so merge stays
        // associative even once a sum pins at the ceiling.
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        match bucket_index(nanos) {
            Some(idx) => self.buckets[idx] += 1,
            None => self.overflow += 1,
        }
    }

    /// Fold `other` in. Addition bucket-by-bucket: associative and
    /// commutative, so per-worker histograms merge in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        self.overflow += other.overflow;
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The change from `earlier` to `self` (saturating, like
    /// [`Snapshot::diff`](crate::Snapshot::diff); `max_nanos` carries the
    /// later value).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            max_nanos: self.max_nanos,
            overflow: self.overflow.saturating_sub(earlier.overflow),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the floor of the
    /// bucket containing the ceil(q·count)-th observation. Returns 0 on
    /// an empty histogram; ranks that fall into the overflow count report
    /// `max_nanos`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max_nanos
    }

    /// Serialize as a canonical JSON object (`buckets` trailing zeros are
    /// elided to keep exposition output compact).
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::Int(self.count as i64)),
            ("sum_nanos", Json::Int(self.sum_nanos as i64)),
            ("max_nanos", Json::Int(self.max_nanos as i64)),
            ("overflow", Json::Int(self.overflow as i64)),
            ("p50", Json::Int(self.quantile(0.5) as i64)),
            ("p95", Json::Int(self.quantile(0.95) as i64)),
            ("p99", Json::Int(self.quantile(0.99) as i64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&b| Json::Int(b as i64))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_invert() {
        let mut prev = None;
        for idx in 0..QUANTILE_BUCKETS {
            let floor = bucket_floor(idx);
            if let Some(p) = prev {
                assert!(floor > p, "floors must strictly increase at {idx}");
            }
            prev = Some(floor);
            // The floor of a bucket lands back in that bucket.
            assert_eq!(bucket_index(floor), Some(idx), "floor {floor} idx {idx}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // The worst value of a bucket is its top one: every value reports
        // a floor less than a third below it. The top of a lower
        // half-octave comes closest (383 reports 256).
        for idx in 16..QUANTILE_BUCKETS - 1 {
            let (floor, top) = (bucket_floor(idx), bucket_floor(idx + 1) - 1);
            assert_eq!(bucket_index(top), Some(idx), "top {top} idx {idx}");
            // (top - floor) / top < 1/3, in integers: f64 rounds the
            // high buckets' error to exactly 1/3.
            assert!(3 * (top - floor) < top, "value {top} floor {floor}");
        }
        assert_eq!(bucket_floor(bucket_index(383).unwrap()), 256);
    }

    #[test]
    fn overflow_is_explicit() {
        let mut s = HistogramSnapshot::default();
        s.record_nanos(u64::MAX);
        s.record_nanos(5);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 2);
        // The overflow rank reports max, not a bucket floor.
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert_eq!(s.quantile(0.25), 5);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut s = HistogramSnapshot::default();
            for &v in vals {
                s.record_nanos(v);
            }
            s
        };
        let a = mk(&[1, 50, 3000]);
        let b = mk(&[7, 7, 1_000_000]);
        let c = mk(&[0, u64::MAX]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // a ⊕ b == b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // And merging equals recording everything into one histogram.
        assert_eq!(ab_c, mk(&[1, 50, 3000, 7, 7, 1_000_000, 0, u64::MAX]));
    }

    #[test]
    fn known_distribution_quantiles_within_one_bucket() {
        // Uniform 1..=1000 ns: p50 = 500, p95 = 950, p99 = 990.
        let mut s = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            s.record_nanos(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let got = s.quantile(q);
            let idx = bucket_index(exact).unwrap();
            // Within one bucket of the exact value: the reported floor is
            // the exact value's bucket or an adjacent one.
            let got_idx = bucket_index(got).unwrap();
            assert!(
                got_idx.abs_diff(idx) <= 1,
                "q={q} exact={exact} got={got} (bucket {got_idx} vs {idx})"
            );
            // And never above the exact value's bucket ceiling.
            assert!(got <= exact, "quantile floor must not exceed exact rank");
        }
        assert_eq!(s.quantile(0.0), bucket_floor(bucket_index(1).unwrap()));
        assert_eq!(s.quantile(1.0), bucket_floor(bucket_index(1000).unwrap()));
    }

    #[test]
    fn diff_isolates_a_window() {
        let mut s = HistogramSnapshot::default();
        s.record_nanos(10);
        let before = s.clone();
        s.record_nanos(100);
        s.record_nanos(100);
        let d = s.diff(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_nanos, 200);
        assert_eq!(d.quantile(0.5), bucket_floor(bucket_index(100).unwrap()));
    }

    #[test]
    fn snapshot_json_reparses() {
        let mut s = HistogramSnapshot::default();
        for v in [3u64, 47, 4097] {
            s.record_nanos(v);
        }
        let text = s.to_json().to_string();
        assert!(text.contains("\"p50\""), "{text}");
        assert!(text.contains("\"overflow\":0"), "{text}");
        arc_core::json::parse(&text).expect("quantile JSON must reparse");
    }
}
