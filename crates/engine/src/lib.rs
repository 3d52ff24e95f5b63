//! # arc-engine — an executable semantics for ARC
//!
//! An in-memory relational engine that evaluates Abstract Relational
//! Calculus (ARC) queries under switchable **conventions** (set vs. bag
//! semantics, null logic, empty-aggregate initialization — paper §2.6/§2.7).
//!
//! The engine exists to make every figure of the paper *checkable*: the
//! count bug (Fig 21) really returns different rows for version 1 and
//! version 2; the lateral rewrite of a scalar subquery (Fig 13) really is
//! equivalent under bag semantics while the LEFT JOIN + GROUP BY rewrite
//! is not; Soufflé's `sum ∅ = 0` convention really flips Eq (15)'s result.
//!
//! The **reference semantics** is the paper's conceptual evaluation
//! (nested loops, §2.3): ARC is positioned as a reference language "in the
//! opposite direction" of IRs, so fidelity beats speed. That reference
//! lives outside this crate, in `arc_analysis::oracle` — a deliberately
//! naive evaluator that shares no code with the engine — and every
//! equivalence suite checks the engine against it. The engine itself has
//! one execution mode: every quantifier scope is planned through
//! `arc-plan` — greedy join ordering by estimated cardinality, per-join
//! hash/scan choice, predicate pushdown — so equi-join workloads drop from
//! O(n·m) to O(n+m) with no configuration, and
//! `Engine::explain_collection`/`Engine::explain_program` render the plan.
//! Recursion is solved semi-naively, with naive iteration
//! ([`fixpoint::FixpointStrategy`]) kept as the in-engine reference the
//! fixpoint suites compare against.
//!
//! ```
//! use arc_core::dsl::*;
//! use arc_core::Conventions;
//! use arc_engine::{Catalog, Engine, Relation};
//!
//! // Paper Eq (3): grouped sum over R(A,B), the FIO pattern.
//! let q = collection(
//!     "Q",
//!     &["A", "sm"],
//!     quant(
//!         &[bind("r", "R")],
//!         group(&[("r", "A")]),
//!         None,
//!         and([
//!             assign("Q", "A", col("r", "A")),
//!             assign_agg("Q", "sm", sum(col("r", "B"))),
//!         ]),
//!     ),
//! );
//! let catalog = Catalog::new().with(Relation::from_ints(
//!     "R",
//!     &["A", "B"],
//!     &[&[1, 10], &[1, 20], &[2, 5]],
//! ));
//! let out = Engine::new(&catalog, Conventions::sql()).eval_collection(&q).unwrap();
//! assert_eq!(out.len(), 2); // (1, 30) and (2, 5)
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod eval;
pub mod explain;
pub mod external;
pub mod fixpoint;
pub mod metrics;
pub mod relation;

pub use catalog::Catalog;
pub use error::{EvalError, Result};
pub use eval::semijoin::semi_build_runs;
pub use eval::{Engine, QueryOptions};
// Guard vocabulary callers need to drive `Engine::with_fault` /
// `Engine::cancel_handle` without depending on `arc-guard` directly.
pub use arc_guard::{seam, CancelHandle, FaultKind, FaultPlan};
pub use external::{AccessPattern, ExternalRelation};
pub use fixpoint::{FixpointStrategy, ProgramOutput};
pub use relation::{Relation, Tuple};

#[cfg(test)]
mod tests;
