//! The persistent worker pool.
//!
//! Workers are plain `std::thread`s parked on a shared FIFO of type-erased
//! jobs. The pool is deliberately dumb: all scheduling intelligence
//! (morsel sizing, partition-axis selection, merge order) lives in
//! [`crate::morsel`] and in the engine — the pool only guarantees that a
//! [`WorkerPool::broadcast`] call runs its task `parallelism` times
//! concurrently and does not return until every instance has finished.
//!
//! ## Why the lifetime erasure is sound
//!
//! Queued jobs must be `'static` (worker threads outlive any borrow), but
//! a broadcast task borrows the caller's stack: the catalog, the scope
//! plan, the outer environment. [`WorkerPool::broadcast`] therefore
//! erases the task's lifetime — and re-establishes safety with a strict
//! **completion barrier**: every enqueued instance sends a completion
//! message (normal return *and* caught panic both send), and `broadcast`
//! receives all of them before returning. The erased borrow can never be
//! observed after the borrowed data is gone, because `broadcast` does not
//! return while any instance may still run. This is the same contract
//! scoped-thread libraries implement; it lives here so the *threads*
//! can persist across queries while the *borrows* stay scoped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A worker (or inline) instance of a [`WorkerPool::broadcast`] task
/// panicked. The panic was caught **after** the completion barrier — all
/// borrows stayed sound, the pool is still usable — and is reported as a
/// value so callers can convert it into a structured error instead of
/// unwinding through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastPanic {
    /// Best-effort text of the first panic payload observed.
    pub message: String,
}

impl std::fmt::Display for BroadcastPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "broadcast task panicked: {}", self.message)
    }
}

impl std::error::Error for BroadcastPanic {}

/// A type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Set by `Drop`: workers drain the queue, then exit instead of
    /// parking (a dropped pool must not leak its threads forever).
    closed: std::sync::atomic::AtomicBool,
}

/// A persistent pool of worker threads executing queued jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Join handles of the worker threads spawned so far (the pool grows
    /// on demand and never shrinks; parked workers cost one blocked OS
    /// thread each). [`WorkerPool::shutdown`] drains and joins these.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool with `workers` threads spawned up front. `broadcast` grows
    /// the pool lazily, so `WorkerPool::new(0)` is a valid cold start.
    pub fn new(workers: usize) -> Self {
        let pool = WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                closed: std::sync::atomic::AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide pool. Created empty on first use; each
    /// `broadcast` grows it to the parallelism it needs, so the pool ends
    /// up sized to the largest `ARC_THREADS` the process has seen.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Spawn workers until at least `n` exist.
    pub fn ensure_workers(&self, n: usize) {
        let mut handles = self.handles.lock().expect("pool mutex");
        while handles.len() < n {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("arc-exec-{}", handles.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn arc-exec worker");
            handles.push(handle);
        }
    }

    /// Number of worker threads currently spawned.
    pub fn workers(&self) -> usize {
        self.handles.lock().expect("pool mutex").len()
    }

    /// Close the pool and **join** every worker thread: signal shutdown,
    /// wake parked workers, then block (parked in `JoinHandle::join`, no
    /// polling) until each has exited. In-flight jobs complete first —
    /// workers only exit on an empty queue. Idempotent; called by `Drop`.
    ///
    /// The wait is recorded in the registry on every shutdown that joins
    /// workers (`exec.pool.shutdowns` counter, `exec.pool.shutdown_wait`
    /// histogram), so a pool whose teardown stalls shows up in the
    /// metrics instead of silently eating process-exit time.
    pub fn shutdown(&self) {
        let handles: Vec<_> = {
            let mut handles = self.handles.lock().expect("pool mutex");
            if handles.is_empty() {
                return;
            }
            std::mem::take(&mut *handles)
        };
        self.shared
            .closed
            .store(true, std::sync::atomic::Ordering::SeqCst);
        {
            let _guard = self.shared.queue.lock().expect("pool mutex");
            self.shared.available.notify_all();
        }
        let start = std::time::Instant::now();
        for handle in handles {
            // A worker that panicked already reported through its job's
            // completion channel; the thread itself has nothing to add.
            let _ = handle.join();
        }
        shutdowns_counter().inc();
        shutdown_wait_histogram().record_elapsed(start);
    }

    /// Run `task` `parallelism` times concurrently — once inline on the
    /// calling thread, the rest on pool workers — and return only when
    /// every instance has finished. A panic in any instance is caught and
    /// reported as `Err(BroadcastPanic)` *after* the barrier (so borrows
    /// stay sound and the pool stays alive for the next broadcast). The
    /// calling thread steals queued jobs while it waits, so nested
    /// broadcasts cannot deadlock a fully-busy pool.
    pub fn broadcast(
        &self,
        parallelism: usize,
        task: &(dyn Fn() + Sync),
    ) -> Result<(), BroadcastPanic> {
        let helpers = parallelism.saturating_sub(1);
        if helpers == 0 {
            return catch_unwind(AssertUnwindSafe(task)).map_err(|p| BroadcastPanic {
                message: arc_guard::panic_message(p.as_ref()),
            });
        }
        self.ensure_workers(helpers);

        // SAFETY: the erased reference is only invoked by jobs whose
        // completion messages are all received below before this function
        // returns; see the module docs for the barrier argument.
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task) };

        let (tx, rx) = channel::<std::thread::Result<()>>();
        {
            let mut queue = self.shared.queue.lock().expect("pool mutex");
            for _ in 0..helpers {
                let tx = tx.clone();
                queue.push_back(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(erased));
                    // A dropped receiver is impossible while the barrier
                    // below is still draining; ignore the send result so a
                    // worker can never panic out of its loop.
                    let _ = tx.send(outcome);
                }));
            }
            self.shared.available.notify_all();
        }

        let mut panic = catch_unwind(AssertUnwindSafe(task)).err();

        // Completion barrier with work-stealing: while helper instances
        // are still pending, run other queued jobs instead of blocking,
        // so a broadcast issued from inside a pool worker always makes
        // progress even when every worker is busy.
        let mut done = 0;
        while done < helpers {
            match rx.try_recv() {
                Ok(outcome) => {
                    done += 1;
                    if let Err(p) = outcome {
                        panic.get_or_insert(p);
                    }
                }
                Err(TryRecvError::Empty) => {
                    let stolen = self.shared.queue.lock().expect("pool mutex").pop_front();
                    match stolen {
                        Some(job) => job(),
                        None => {
                            // Nothing left to steal: our remaining
                            // instances are running on workers; block.
                            let outcome = rx.recv().expect("worker lost completion channel");
                            done += 1;
                            if let Err(p) = outcome {
                                panic.get_or_insert(p);
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("completion senders outlive the barrier")
                }
            }
        }
        match panic {
            Some(p) => Err(BroadcastPanic {
                message: arc_guard::panic_message(p.as_ref()),
            }),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    /// [`WorkerPool::shutdown`]: close the pool and join its workers. The
    /// global pool lives in a `static` and is never dropped; this exists
    /// so ad-hoc pools (`WorkerPool::new`) cannot leak parked threads
    /// for the rest of the process. In-flight `broadcast` jobs still
    /// complete: workers only exit on an *empty* queue, and `Drop` waits
    /// for the exits instead of firing and forgetting (the old
    /// notify-and-hope teardown left tests busy-polling `strong_count`
    /// for up to 5 seconds).
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The `exec.pool.shutdowns` registry counter.
fn shutdowns_counter() -> arc_trace::Counter {
    static C: OnceLock<arc_trace::Counter> = OnceLock::new();
    *C.get_or_init(|| arc_trace::counter("exec.pool.shutdowns"))
}

/// The `exec.pool.shutdown_wait` registry histogram (time spent joining
/// workers at pool teardown).
fn shutdown_wait_histogram() -> arc_trace::Histogram {
    static H: OnceLock<arc_trace::Histogram> = OnceLock::new();
    *H.get_or_init(|| arc_trace::histogram("exec.pool.shutdown_wait"))
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool mutex");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.closed.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool mutex");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_task_parallelism_times() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        pool.broadcast(4, &|| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn broadcast_of_one_stays_inline() {
        let pool = WorkerPool::new(0);
        let mut side = 0;
        let cell = std::sync::Mutex::new(&mut side);
        pool.broadcast(1, &|| {
            **cell.lock().unwrap() += 1;
        })
        .unwrap();
        assert_eq!(side, 1);
        assert_eq!(pool.workers(), 0, "no worker needed for parallelism 1");
    }

    #[test]
    fn broadcast_grows_the_pool_on_demand() {
        let pool = WorkerPool::new(0);
        pool.broadcast(3, &|| {}).unwrap();
        assert!(pool.workers() >= 2);
    }

    #[test]
    fn panics_surface_as_values_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let outcome = pool.broadcast(3, &|| {
            if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first instance dies");
            }
        });
        let err = outcome.expect_err("a panicking instance must be reported");
        assert_eq!(err.message, "first instance dies");
        // Every instance ran (the barrier drains all of them).
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // The pool survives the panic.
        pool.broadcast(3, &|| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn inline_panics_surface_as_values_too() {
        let pool = WorkerPool::new(0);
        let err = pool
            .broadcast(1, &|| panic!("inline instance dies"))
            .expect_err("the inline instance panicked");
        assert_eq!(err.message, "inline instance dies");
        let mut ran = false;
        let cell = std::sync::Mutex::new(&mut ran);
        pool.broadcast(1, &|| **cell.lock().unwrap() = true)
            .unwrap();
        assert!(ran);
    }

    #[test]
    fn nested_broadcast_does_not_deadlock() {
        let pool = WorkerPool::new(1); // deliberately undersized
        let hits = AtomicUsize::new(0);
        pool.broadcast(2, &|| {
            // Each outer instance broadcasts again: the stealing barrier
            // must drain the nested jobs even with one worker.
            WorkerPool::global()
                .broadcast(2, &|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn dropped_pool_releases_its_workers() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.broadcast(3, &|| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let shared = Arc::downgrade(&pool.shared);
        let before = arc_trace::snapshot();
        drop(pool);
        // Drop joins the workers, so by the time it returns every worker
        // has exited and dropped its Arc<Shared> clone — no polling.
        assert_eq!(shared.strong_count(), 0, "worker threads did not exit");
        // The teardown is a recorded pool metric.
        let delta = arc_trace::snapshot().diff(&before);
        assert!(
            delta.counter("exec.pool.shutdowns") >= 1,
            "shutdown must count itself"
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_records_its_wait() {
        let before = arc_trace::snapshot();
        let pool = WorkerPool::new(2);
        pool.shutdown();
        assert_eq!(pool.workers(), 0, "shutdown drains the handle list");
        // Second call: nothing left to join, no double count.
        pool.shutdown();
        // Concurrent tests drop pools of their own, so the process-global
        // delta is a lower bound, never an exact count.
        let delta = arc_trace::snapshot().diff(&before);
        assert!(delta.counter("exec.pool.shutdowns") >= 1);
        assert!(delta.hist("exec.pool.shutdown_wait").count >= 1);
        // A closed pool can still be re-grown and used (ensure_workers
        // spawns fresh threads... they would exit immediately with the
        // closed flag set, so broadcast falls back to inline stealing).
        drop(pool);
    }

    #[test]
    fn borrowed_state_is_visible_after_the_barrier() {
        let pool = WorkerPool::new(4);
        let data: Vec<usize> = (0..1000).collect();
        let sum = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        pool.broadcast(4, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= data.len() {
                break;
            }
            sum.fetch_add(data[i], Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }
}
