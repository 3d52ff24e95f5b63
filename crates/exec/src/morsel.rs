//! Morsel-driven partitioning: split a row range into morsels, execute
//! them across the pool, and gather per-morsel results **in morsel
//! order** — which is what makes parallel execution deterministic: the
//! concatenation of per-morsel outputs is exactly the output a sequential
//! scan of the same rows would produce, regardless of which worker ran
//! which morsel or in what real-time order they finished.

use crate::pool::{BroadcastPanic, WorkerPool};
use arc_guard::QueryGuard;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many morsels each worker should get on average: small enough that
/// a skewed morsel cannot serialize the tail, large enough that the
/// per-morsel overhead (context fork, result slot) stays negligible.
const MORSELS_PER_WORKER: usize = 4;

/// A partitioning of `0..total` rows into fixed-size morsels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsels {
    total: usize,
    size: usize,
}

impl Morsels {
    /// Split `total` rows for `parallelism` workers.
    pub fn new(total: usize, parallelism: usize) -> Self {
        let chunks = parallelism.max(1) * MORSELS_PER_WORKER;
        Morsels {
            total,
            size: total.div_ceil(chunks).max(1),
        }
    }

    /// Split `total` rows for `parallelism` workers with the morsel size
    /// rounded up to a multiple of `align`: every morsel but the last
    /// covers whole aligned blocks. The engine always uses chunk
    /// alignment (`align = CHUNK_ROWS`) so a morsel never splits a
    /// column chunk between workers; coverage and gather order are
    /// identical to [`Morsels::new`] — only the boundaries move.
    pub fn aligned(total: usize, parallelism: usize, align: usize) -> Self {
        let base = Morsels::new(total, parallelism);
        let align = align.max(1);
        Morsels {
            total,
            size: base.size.div_ceil(align) * align,
        }
    }

    /// Number of morsels (zero when there are no rows).
    pub fn count(&self) -> usize {
        self.total.div_ceil(self.size)
    }

    /// Row range of morsel `i`.
    pub fn range(&self, i: usize) -> Range<usize> {
        let lo = i * self.size;
        lo..(lo + self.size).min(self.total)
    }
}

/// Execute `work` once per morsel across up to `parallelism` threads of
/// `pool` (the calling thread participates), returning the results in
/// morsel order. Workers claim morsels from a shared counter, so load
/// balances dynamically while the gather order stays fixed.
///
/// `init` runs once on each participating thread (not once per morsel)
/// and the resulting state is threaded through every morsel that thread
/// claims: the engine forks one evaluation context (with the scopes it
/// compiles) per worker instead of one per morsel.
///
/// Under a [`QueryGuard`], workers stop claiming morsels as soon as the
/// guard trips (checked **before every claim**, so a tripped guard stops
/// within one morsel of work per worker). A panicking morsel is
/// contained by the pool barrier instead of unwinding through the
/// caller.
///
/// * `Ok(slots)` — per-morsel results in morsel order. A slot is `None`
///   only when the guard tripped before that morsel was claimed; with no
///   guard (or an untripped one) every slot is `Some`.
/// * `Err(panic)` — some morsel panicked. All other claimed morsels
///   still completed (the barrier drains everything) and the pool stays
///   usable; the host converts this into its structured error.
pub fn run_morsels_guarded<S, T, I, F>(
    pool: &WorkerPool,
    parallelism: usize,
    morsels: Morsels,
    guard: Option<&QueryGuard>,
    init: I,
    work: F,
) -> Result<Vec<Option<T>>, BroadcastPanic>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>) -> T + Sync,
{
    let n = morsels.count();
    if n == 0 {
        return Ok(Vec::new());
    }
    // Registry accounting: every executed morsel counts (per-worker
    // lane attribution is the host's job — it owns the worker state).
    morsels_counter().add(n as u64);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool.broadcast(parallelism.min(n).max(1), &|| {
        let mut state = init();
        loop {
            // Cooperative stop: a tripped guard ends this worker's
            // claiming before the next morsel starts.
            if guard.is_some_and(|g| g.check().is_err()) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // Always-on morsel latency sample.
            let t0 = std::time::Instant::now();
            let out = work(&mut state, i, morsels.range(i));
            morsel_latency().record_elapsed(t0);
            *slots[i].lock().expect("morsel slot") = Some(out);
        }
    })?;
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("morsel slot"))
        .collect())
}

/// The `exec.morsels` registry counter: morsels executed process-wide.
fn morsels_counter() -> arc_trace::Counter {
    static C: std::sync::OnceLock<arc_trace::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| arc_trace::counter("exec.morsels"))
}

/// The `exec.morsel.latency` histogram: wall time per executed
/// morsel, sampled on every run (see `arc_trace::quantile`).
fn morsel_latency() -> arc_trace::Histogram {
    static Q: std::sync::OnceLock<arc_trace::Histogram> = std::sync::OnceLock::new();
    *Q.get_or_init(|| arc_trace::histogram("exec.morsel.latency"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_the_range_exactly_once() {
        for total in [0usize, 1, 7, 64, 1000] {
            for par in [1usize, 2, 8] {
                let m = Morsels::new(total, par);
                let mut covered = 0;
                for i in 0..m.count() {
                    let r = m.range(i);
                    assert_eq!(r.start, covered, "gap at morsel {i}");
                    covered = r.end;
                }
                assert_eq!(covered, total, "total {total} par {par}");
            }
        }
    }

    #[test]
    fn aligned_morsels_cover_exactly_and_respect_alignment() {
        for total in [0usize, 1, 100, 1024, 1025, 5000, 100_000] {
            for par in [1usize, 2, 8] {
                for align in [1usize, 64, 1024] {
                    let m = Morsels::aligned(total, par, align);
                    let mut covered = 0;
                    for i in 0..m.count() {
                        let r = m.range(i);
                        assert_eq!(r.start, covered, "gap at morsel {i}");
                        assert_eq!(r.start % align, 0, "unaligned start");
                        covered = r.end;
                    }
                    assert_eq!(covered, total, "total {total} par {par} align {align}");
                }
            }
        }
    }

    /// Every morsel's result, in morsel order, with no guard: every slot
    /// is filled.
    fn run_all<T: Send>(
        pool: &WorkerPool,
        parallelism: usize,
        morsels: Morsels,
        work: impl Fn(usize, Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        run_morsels_guarded(
            pool,
            parallelism,
            morsels,
            None,
            || (),
            |(), i, r| work(i, r),
        )
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("no guard: every morsel runs"))
        .collect()
    }

    #[test]
    fn results_gather_in_morsel_order() {
        let pool = WorkerPool::new(4);
        let rows: Vec<usize> = (0..997).collect();
        let out = run_all(&pool, 4, Morsels::new(rows.len(), 4), |_, range| {
            rows[range].to_vec()
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, rows, "concatenation must equal the sequential scan");
    }

    #[test]
    fn per_worker_state_initializes_once_per_thread() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(3);
        let inits = AtomicUsize::new(0);
        let out = run_morsels_guarded(
            &pool,
            4,
            Morsels::new(1000, 4),
            None,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |state, _, range| {
                *state += 1;
                range.len()
            },
        )
        .unwrap();
        assert_eq!(out.iter().map(|s| s.unwrap()).sum::<usize>(), 1000);
        let inits = inits.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&inits),
            "init ran per worker, not per morsel: {inits}"
        );
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let pool = WorkerPool::new(1);
        let out: Vec<Vec<usize>> = run_all(&pool, 4, Morsels::new(0, 4), |_, _| Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn tripped_guard_stops_claims_and_leaves_unclaimed_slots_none() {
        let pool = WorkerPool::new(0); // inline: deterministic claim order
        let guard = QueryGuard::new(None, Some(64), None, None);
        let m = Morsels::new(100, 1);
        let done = AtomicUsize::new(0);
        let out = run_morsels_guarded(
            &pool,
            1,
            m,
            Some(&guard),
            || (),
            |(), i, _| {
                if i == 2 {
                    // Hard exhaustion mid-query: the guard trips…
                    let _ = guard.reserve_hard(1 << 20);
                }
                done.fetch_add(1, Ordering::SeqCst)
            },
        )
        .unwrap();
        // …and no later morsel is claimed (inline worker, so exactly the
        // first three slots filled).
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert!(out[..3].iter().all(Option::is_some));
        assert!(out[3..].iter().all(Option::is_none));
        assert_eq!(guard.trip_cause(), Some(arc_guard::Trip::MemoryBudget));
    }

    #[test]
    fn morsel_panics_surface_as_errors_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let err = run_morsels_guarded(
            &pool,
            3,
            Morsels::new(50, 3),
            None,
            || (),
            |(), i, _| {
                if i == 1 {
                    panic!("morsel 1 dies");
                }
                i
            },
        )
        .expect_err("the panicking morsel must be reported");
        assert_eq!(err.message, "morsel 1 dies");
        // Same pool, next query: fully functional.
        let out = run_all(&pool, 3, Morsels::new(10, 3), |i, _| i);
        assert_eq!(out.len(), Morsels::new(10, 3).count());
    }
}
