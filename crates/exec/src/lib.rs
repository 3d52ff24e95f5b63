//! # arc-exec — morsel-driven parallel execution for ARC
//!
//! The paper's thesis is that an abstract relational language should
//! decouple what a query pattern *means* from how it is *evaluated*. The
//! plan layer (`arc-plan`) made evaluation an explicit operator pipeline;
//! this crate is the payoff: a scope that emits rows and whose outer step
//! is a scan can be **partitioned** — the scan's rows split into morsels, each
//! morsel driven through the full pipeline by a pool worker, and the
//! per-morsel outputs concatenated *in morsel order*, which reproduces
//! the sequential enumeration order exactly. Bag semantics therefore
//! merges by concatenation; set semantics deduplicates at the collection
//! boundary exactly as the sequential engine does.
//!
//! | module     | role                                                        |
//! |------------|-------------------------------------------------------------|
//! | [`pool`]   | persistent worker pool (`std::thread` + channels, no deps)  |
//! | [`morsel`] | morsel partitioning and ordered scatter/gather              |
//! | [`threads`]| `ARC_THREADS` value parsing shared with the engine          |
//!
//! The crate is engine-agnostic on purpose: it knows nothing about
//! relations, plans, or environments. Its surface is the pool
//! ([`WorkerPool`]), the partitioning ([`Morsels`]) and one runner,
//! [`run_morsels_guarded`]: per-worker state, results in morsel order,
//! a [`QueryGuard`](arc_guard::QueryGuard) checked before every claim
//! and a worker panic contained. The engine supplies the per-worker state
//! (a forked evaluation context) and the per-morsel closure (which
//! enumerates its row range of a row-emitting scope); hash build sides
//! are built once by the coordinator and shared read-only (`Arc`)
//! through the forked contexts.

#![warn(missing_docs)]

pub mod morsel;
pub mod pool;
pub mod threads;

pub use morsel::{run_morsels_guarded, Morsels};
pub use pool::{BroadcastPanic, WorkerPool};
pub use threads::{available_parallelism, parse_threads, MAX_THREADS};
