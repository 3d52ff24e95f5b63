//! # arc-stats — column statistics for ARC catalogs
//!
//! The paper positions ARC as the layer where optimizers reason about
//! query *patterns* independently of surface syntax; this crate supplies
//! the data those decisions need. An `ANALYZE` pass
//! ([`TableStats::analyze`]) summarizes each stored relation into
//! per-column sketches:
//!
//! * a **register-based distinct counter** ([`sketch::DistinctSketch`],
//!   HLL-style: 256 registers, deterministic hash) for distinct join-key
//!   counts in bounded memory;
//! * an **equi-depth histogram** ([`histogram::Histogram`]) over the
//!   workspace's total [`Key`](arc_core::value::Key) order, for range and
//!   out-of-bounds estimates;
//! * a **most-common-values list** (per [`column::ColumnStats`]) so
//!   equality selectivity on skewed columns is frequency-aware rather
//!   than uniform;
//! * **null / min / max counts**.
//!
//! [`table::TableStats`] packages the columns of one relation, adds a
//! whole-row distinct sketch (the correlation bound for multi-column join
//! keys — see [`TableStats::distinct_cols`]).
//!
//! Everything counts with [`Value::join_key`](arc_core::value::Value::join_key)
//! semantics — `NULL` and float `NaN` never match an equality — which is
//! the same rule the engine's hash-join executor indexes by, so estimates
//! and execution can never disagree about what "equal" means.
//!
//! The crate is std-only and depends only on `arc-core`: the planner
//! (`arc-plan`) consumes these summaries through its estimator trait, and
//! the engine's catalog produces them.

#![warn(missing_docs)]

pub mod column;
pub mod histogram;
pub mod sketch;
pub mod table;

pub use column::ColumnStats;
pub use histogram::Histogram;
pub use sketch::DistinctSketch;
pub use table::{TableStats, HISTOGRAM_BUCKETS, MCV_ENTRIES, SAMPLE_CAP};
