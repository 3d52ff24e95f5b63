//! A partitioned scope runs on scoped threads: every helper a scatter
//! spawns is joined before the scatter returns, so no worker thread
//! outlives the query that started it.
//!
//! The check counts the process's threads (`/proc/self/task`, Linux
//! only), so this file deliberately contains a **single** `#[test]`:
//! another test's threads in the same process would move the count.

use arc_core::conventions::Conventions;
use arc_engine::Engine;
use arc_tests::fixtures as fx;

#[cfg(target_os = "linux")]
#[test]
fn no_worker_thread_outlives_its_query() {
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    // 4 000 rows of `R` at four threads: four chunk-aligned morsels.
    let catalog = fx::grouped_catalog(4000, 17);
    let engine = Engine::new(&catalog, Conventions::set()).with_threads(4);
    let before_threads = threads();
    let before = arc_trace::snapshot();
    let rows = engine.eval_collection(&fx::scan_r()).unwrap();
    let morsels = arc_trace::snapshot().diff(&before).counter("exec.morsels");
    assert_eq!(rows.len(), 4000);
    assert!(morsels >= 2, "the scan must scatter: {morsels} morsels");
    assert_eq!(
        threads(),
        before_threads,
        "a worker thread outlived its query"
    );
}
