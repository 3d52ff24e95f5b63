//! The morsel runner behind partitioned scope execution.
//!
//! [`Morsels`] splits a row range into chunk-aligned pieces;
//! [`run_morsels_guarded`] runs one closure per morsel on the calling
//! thread and scoped helpers (`std::thread::scope`) and gathers the
//! results in morsel order. It knows nothing of scopes or contexts: the
//! engine's `eval/parallel.rs` forks the evaluation context per worker
//! and merges the per-morsel rows.

use crate::error::{EvalError, Result};
use arc_core::column::CHUNK_ROWS;
use arc_guard::QueryGuard;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many morsels each worker should get on average: small enough that
/// a skewed morsel cannot serialize the tail, large enough that the
/// per-morsel overhead (context fork, result slot) stays negligible.
const MORSELS_PER_WORKER: usize = 4;

/// A partitioning of `0..total` rows into morsels of whole column chunks:
/// every morsel but the last covers a multiple of `CHUNK_ROWS` rows, so a
/// worker's selection walk never straddles a chunk another worker owns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Morsels {
    total: usize,
    size: usize,
}

impl Morsels {
    /// Split `total` rows for `parallelism` workers.
    pub(crate) fn new(total: usize, parallelism: usize) -> Self {
        let chunks = parallelism.max(1) * MORSELS_PER_WORKER;
        Morsels {
            total,
            size: total.div_ceil(chunks).div_ceil(CHUNK_ROWS).max(1) * CHUNK_ROWS,
        }
    }

    /// Number of morsels (zero when there are no rows).
    pub(crate) fn count(&self) -> usize {
        self.total.div_ceil(self.size)
    }

    /// Row range of morsel `i`.
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        let lo = i * self.size;
        lo..(lo + self.size).min(self.total)
    }
}

/// Execute `work` once per morsel on up to `parallelism` threads — the
/// calling thread and scoped helpers, joined before this returns —
/// returning the results in morsel order. Threads claim morsels from a
/// shared counter, so load balances dynamically while the gather order
/// stays fixed. A one-morsel run spawns nothing.
///
/// `init` runs once on each participating thread (not once per morsel)
/// and the resulting state is threaded through every morsel that thread
/// claims: the engine forks one evaluation context per worker.
///
/// Under a [`QueryGuard`], threads stop claiming morsels as soon as the
/// guard trips (checked **before every claim**, so a tripped guard stops
/// within one morsel of work per thread).
///
/// * `Ok(slots)` — per-morsel results in morsel order. A slot is `None`
///   only when the guard tripped before that morsel was claimed; with no
///   guard (or an untripped one) every slot is `Some`.
/// * `Err(EvalError::WorkerPanic)` — some morsel panicked. Each thread's
///   share is wrapped in `catch_unwind`, so the other threads finish
///   their claims and every helper is joined before the error returns.
pub(crate) fn run_morsels_guarded<S, T, I, F>(
    parallelism: usize,
    morsels: Morsels,
    guard: Option<&QueryGuard>,
    init: I,
    work: F,
) -> Result<Vec<Option<T>>>
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
    // lane attribution is the caller's job — it owns the worker state).
    morsels_counter().add(n as u64);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let share = || {
        catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            loop {
                // Cooperative stop: a tripped guard ends this thread's
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
        }))
    };
    let helpers = parallelism.min(n).max(1) - 1;
    let panicked = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(share)).collect();
        let mut panicked = share().err();
        for handle in handles {
            if let Err(p) = handle.join().and_then(|outcome| outcome) {
                panicked.get_or_insert(p);
            }
        }
        panicked
    });
    if let Some(p) = panicked {
        return Err(EvalError::WorkerPanic(arc_guard::panic_message(p.as_ref())));
    }
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("morsel slot"))
        .collect())
}

/// The `exec.morsels` registry counter: morsels executed process-wide.
fn morsels_counter() -> arc_trace::Counter {
    static C: OnceLock<arc_trace::Counter> = OnceLock::new();
    *C.get_or_init(|| arc_trace::counter("exec.morsels"))
}

/// The `exec.morsel.latency` histogram: wall time per executed
/// morsel, sampled on every run (see `arc_trace::quantile`).
fn morsel_latency() -> arc_trace::Histogram {
    static Q: OnceLock<arc_trace::Histogram> = OnceLock::new();
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
                    assert!(!r.is_empty(), "empty morsel {i}");
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
                let m = Morsels::new(total, par);
                let mut covered = 0;
                for i in 0..m.count() {
                    let r = m.range(i);
                    assert_eq!(r.start, covered, "gap at morsel {i}");
                    assert_eq!(r.start % CHUNK_ROWS, 0, "unaligned start");
                    if r.end < total {
                        assert_eq!(r.len() % CHUNK_ROWS, 0, "partial chunk mid-range");
                    }
                    covered = r.end;
                }
                assert_eq!(covered, total, "total {total} par {par}");
            }
        }
    }

    /// Every morsel's result, in morsel order, with no guard: every slot
    /// is filled.
    fn run_all<T: Send>(
        parallelism: usize,
        morsels: Morsels,
        work: impl Fn(usize, Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        run_morsels_guarded(parallelism, morsels, None, || (), |(), i, r| work(i, r))
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("no guard: every morsel runs"))
            .collect()
    }

    #[test]
    fn results_gather_in_morsel_order() {
        let rows: Vec<usize> = (0..10 * CHUNK_ROWS + 7).collect();
        let morsels = Morsels::new(rows.len(), 4);
        assert!(morsels.count() > 4, "{morsels:?}");
        let out = run_all(4, morsels, |_, range| rows[range].to_vec());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, rows, "concatenation must equal the sequential scan");
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        assert_eq!(Morsels::new(0, 4).count(), 0);
        let out: Vec<Vec<usize>> = run_all(4, Morsels::new(0, 4), |_, _| Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn per_worker_state_initializes_once_per_thread() {
        let inits = AtomicUsize::new(0);
        let out = run_morsels_guarded(
            4,
            Morsels::new(16 * CHUNK_ROWS, 4),
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
        assert_eq!(
            out.iter().map(|s| s.unwrap()).sum::<usize>(),
            16 * CHUNK_ROWS
        );
        let inits = inits.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&inits),
            "init ran per worker, not per morsel: {inits}"
        );
    }

    #[test]
    fn tripped_guard_stops_claims_and_leaves_unclaimed_slots_none() {
        let guard = QueryGuard::new(None, Some(64), None, None);
        // One thread: the calling thread claims in order.
        let m = Morsels::new(16 * CHUNK_ROWS, 1);
        assert_eq!(m.count(), 4);
        let done = AtomicUsize::new(0);
        let out = run_morsels_guarded(
            1,
            m,
            Some(&guard),
            || (),
            |(), i, _| {
                if i == 1 {
                    // Hard exhaustion mid-query: the guard trips…
                    let _ = guard.reserve_hard(1 << 20);
                }
                done.fetch_add(1, Ordering::SeqCst)
            },
        )
        .unwrap();
        // …and no later morsel is claimed: exactly the first two slots
        // are filled.
        assert_eq!(done.load(Ordering::SeqCst), 2);
        assert!(out[..2].iter().all(Option::is_some));
        assert!(out[2..].iter().all(Option::is_none));
        assert_eq!(guard.trip_cause(), Some(arc_guard::Trip::MemoryBudget));
    }

    #[test]
    fn morsel_panics_surface_as_worker_panic_errors() {
        let m = Morsels::new(8 * CHUNK_ROWS, 3);
        let ran = AtomicUsize::new(0);
        let err = run_morsels_guarded(
            3,
            m,
            None,
            || (),
            |(), i, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    panic!("morsel 1 dies");
                }
                i
            },
        )
        .expect_err("the panicking morsel must be reported");
        assert_eq!(err, EvalError::WorkerPanic("morsel 1 dies".into()));
        // The panic ends one thread's share; the others drain the rest.
        assert_eq!(ran.load(Ordering::SeqCst), m.count());
        let out = run_all(3, m, |i, _| i);
        assert_eq!(out, (0..m.count()).collect::<Vec<_>>());
    }
}
