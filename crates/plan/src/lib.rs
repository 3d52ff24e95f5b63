//! # arc-plan — logical/physical query plans for ARC
//!
//! The paper positions ARC as an *abstract* relational layer: many surface
//! languages (SQL, Datalog, comprehension text, diagrams) lower into it,
//! and engines consume it. This crate is the consuming seam: an explicit
//! plan IR between the bound AST and the evaluator, so that optimization
//! decisions are **per-operator plan choices** rather than global engine
//! switches.
//!
//! ## Layers
//!
//! | module       | layer                                                       |
//! |--------------|-------------------------------------------------------------|
//! | [`analysis`] | scope-body analysis: predicate roles, free variables        |
//! | [`scope`]    | planner inputs: abstract scope descriptions + statistics    |
//! | [`estimator`]| cost model v2: `ANALYZE` sketches answering cardinalities   |
//! | [`logical`]  | logical passes: equality-predicate extraction               |
//! | [`physical`] | physical plans: join ordering, access selection, pushdown   |
//! | [`cache`]    | plan caching: hashable scope/program keys, global plan cache|
//! | [`query`]    | whole-query plan trees (project/aggregate/scope/union/fixpoint) |
//! | [`explain`]  | textual `EXPLAIN` rendering of plan trees                   |
//! | [`normalize`]| structural normalization shared with `arc-analysis`         |
//!
//! ## The pipeline
//!
//! For every quantifier scope, [`physical::plan_scope`] runs:
//! **equality extraction** → **greedy join ordering** (by estimated
//! cardinality, honoring external/abstract/lateral placement constraints)
//! → **per-operator access selection** (each join step independently picks
//! a hash probe or a scan) → **predicate pushdown** (each filter runs at
//! the earliest step where its variables are bound). There is one
//! planning mode: what a plan must preserve is the paper's meaning, which
//! `arc_analysis::oracle` defines independently of this crate.
//!
//! The crate depends only on `arc-core`: the engine implements the small
//! [`scope::OuterScope`] / [`scope::DistinctEstimator`] /
//! [`query::SourceResolver`] traits to feed it live statistics, and
//! `EXPLAIN` runs the same planner over catalog-level statistics.

#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod estimator;
pub mod explain;
pub mod logical;
pub mod normalize;
pub mod physical;
pub mod query;
pub mod scope;

pub use estimator::TableStatsEstimator;
pub use explain::{
    q_error, render, render_analyze, render_governed, render_with_threads, span_names, Actuals,
};
pub use logical::const_cmp;
pub use normalize::{normalize_collection, normalize_formula};
pub use physical::{
    bucketed, decorrelatable_shape, plan_scope, plan_scope_boolean, planner_runs, Access,
    CorrelatedKey, Decorrelation, EqInput, NullGuard, ProbeKey, ScopePlan, Step,
    INDEX_MAX_FRACTION, PARALLEL_MIN_ROWS, SELECTIVITY_BUCKET_BITS,
};
pub use query::{
    lower_collection, lower_program, scope_identity, LowerError, PlanNode, ResolvedSource,
    SourceKind, SourceResolver,
};
pub use scope::{
    Basis, BindingSpec, DistinctEstimator, NoOuter, OuterScope, PlanError, ScopeSpec, SourceSpec,
};
