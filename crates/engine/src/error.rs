//! Evaluation errors.

use std::fmt;

/// Errors surfaced while evaluating ARC against a catalog. Queries that
/// pass the binder (`arc_core::binder`) against the catalog's schema map
/// should never hit the name-resolution variants; they exist because the
/// engine is usable on unbound ASTs too.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum EvalError {
    /// A binding references a relation the catalog does not know.
    UnknownRelation(String),
    /// An attribute reference could not be resolved at runtime.
    UnboundVariable(String),
    /// A resolved variable has no such attribute.
    UnknownAttribute { var: String, attr: String },
    /// An aggregate occurred in a non-grouping scope.
    AggregateOutsideGrouping(String),
    /// No access pattern of an external relation is satisfiable from the
    /// equality predicates in scope (§2.13.1).
    NoAccessPath { relation: String, var: String },
    /// An abstract relation's attributes are not all determined by equality
    /// predicates in the enclosing scope (§2.13.2).
    AbstractUnderdetermined { relation: String, var: String },
    /// Assignment-bearing subformulas are not allowed inside grouping
    /// scopes (aggregation scopes emit through their own predicates).
    SpineUnderGrouping,
    /// More than one assignment-bearing subformula in one conjunction.
    MultipleSpines,
    /// A head attribute was never assigned on an emitted row.
    MissingAssignment { collection: String, attr: String },
    /// Recursion through negation or aggregation (not stratifiable, §2.9).
    NotStratifiable { relation: String },
    /// Recursive definitions require set semantics.
    RecursionUnderBag { relation: String },
    /// The fixpoint did not converge within the iteration budget.
    FixpointLimit { relation: String, iterations: usize },
    /// External relations are not supported inside outer-join annotations.
    ExternalInJoinTree { var: String },
    /// A join annotation does not cover all bound variables.
    JoinTreeMismatch,
    /// An engine configuration value (e.g. `ARC_THREADS`) could not
    /// be interpreted; surfaced on the first evaluation instead of
    /// panicking mid-run.
    Config(String),
    /// The caller tripped the query's `CancelHandle`
    /// ([`Engine::cancel_handle`](crate::Engine::cancel_handle)).
    Cancelled,
    /// The query ran past its deadline (`ARC_TIMEOUT_MS` /
    /// [`Engine::with_timeout`](crate::Engine::with_timeout)).
    DeadlineExceeded,
    /// A non-degradable allocation exceeded the memory budget
    /// (`ARC_MEM_BUDGET` /
    /// [`Engine::with_mem_budget`](crate::Engine::with_mem_budget)).
    /// Degradable builds fall back to streaming paths instead of
    /// raising this; only hard exhaustion aborts.
    MemoryBudget,
    /// A worker panicked mid-query. The panic was contained at the
    /// engine boundary: caches recover and the same engine answers the
    /// next query.
    WorkerPanic(String),
    /// Internal invariant violation (a bug in the engine).
    Internal(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            EvalError::UnboundVariable(var) => write!(f, "unbound variable `{var}`"),
            EvalError::UnknownAttribute { var, attr } => {
                write!(f, "`{var}` has no attribute `{attr}`")
            }
            EvalError::AggregateOutsideGrouping(pred) => {
                write!(f, "aggregate outside grouping scope in `{pred}`")
            }
            EvalError::NoAccessPath { relation, var } => write!(
                f,
                "no viable access pattern for external `{relation}` (via `{var}`): bind its inputs with equality predicates"
            ),
            EvalError::AbstractUnderdetermined { relation, var } => write!(
                f,
                "abstract relation `{relation}` (via `{var}`) is underdetermined: every attribute needs an equality in scope"
            ),
            EvalError::SpineUnderGrouping => {
                write!(f, "assignment-bearing subformula inside a grouping scope")
            }
            EvalError::MultipleSpines => {
                write!(f, "more than one assignment-bearing subformula in a conjunction")
            }
            EvalError::MissingAssignment { collection, attr } => {
                write!(f, "head attribute `{collection}.{attr}` not assigned on an emitted row")
            }
            EvalError::NotStratifiable { relation } => write!(
                f,
                "recursive relation `{relation}` is used under negation or aggregation (not stratifiable)"
            ),
            EvalError::RecursionUnderBag { relation } => write!(
                f,
                "recursive relation `{relation}` requires set semantics (bag fixpoints diverge)"
            ),
            EvalError::FixpointLimit { relation, iterations } => write!(
                f,
                "fixpoint for `{relation}` did not converge within {iterations} iterations"
            ),
            EvalError::ExternalInJoinTree { var } => write!(
                f,
                "external relation binding `{var}` cannot appear under an outer-join annotation"
            ),
            EvalError::JoinTreeMismatch => {
                write!(f, "join annotation does not cover the quantifier's bindings")
            }
            EvalError::Config(msg) => write!(f, "engine configuration error: {msg}"),
            EvalError::Cancelled => write!(f, "query cancelled"),
            EvalError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EvalError::MemoryBudget => write!(f, "query memory budget exceeded"),
            EvalError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            EvalError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
