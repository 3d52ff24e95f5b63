//! # arc-analysis — pattern analysis over ARC
//!
//! The machine-facing analyses the paper motivates (§1's three questions):
//!
//! 1. **Making relational structure explicit and comparable**
//!    ([`classify`](mod@classify)): FIO vs. FOI aggregation patterns, aggregate roles
//!    (value vs. test), relation-occurrence signatures, query shapes.
//! 2. **Validating machine-generated queries** — via `arc_core::binder`
//!    plus [`equiv`]'s randomized testing (find the instance where two
//!    "equivalent" queries disagree, or fail to).
//! 3. **Semantic similarity faithful to relational meaning**
//!    ([`similarity`], [`intent`]): feature-multiset and tree-edit
//!    measures over the convention-free pattern layer, contrasted with
//!    surface-level exact match.
//!
//! [`rewrite`] implements the paper's transformations (unnesting,
//! FIO→FOI, arithmetic reification, count-bug decorrelation) so each
//! validity condition is *demonstrated* by tests and benches instead of
//! asserted. [`generate`] provides the workload generators the benchmark
//! suite sweeps. [`oracle`] is the workspace's reference semantics: a
//! deliberately naive evaluator of ARC's core that shares no code with
//! the engine, which every equivalence suite checks the engine against.

#![warn(missing_docs)]

pub mod classify;
pub mod equiv;
pub mod generate;
pub mod intent;
pub mod oracle;
pub mod rewrite;
pub mod similarity;

pub use classify::{classify, AggPattern, Classification, QueryShape};
pub use equiv::{random_equivalence, Counterexample, Verdict};
pub use generate::{
    chain_catalog, likes_catalog, random_catalog, random_conjunctive_query,
    random_correlated_boolean_query, sparse_matrix, InstanceSpec, RelationSpec,
};
pub use intent::{intent_report, IntentReport};
pub use rewrite::{decorrelate, fio_to_foi, reify_arith, unnest, Decorrelation};
pub use similarity::{
    collection_feature_similarity, feature_similarity, structural_similarity, tree_edit_distance,
};
