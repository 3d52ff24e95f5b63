//! # arc-core — Abstract Relational Calculus (ARC)
//!
//! An implementation of the Abstract Relational Query Language proposed in
//! *"Database Research needs an Abstract Relational Query Language"*
//! (Gatterbauer & Sabale, CIDR 2026).
//!
//! ARC is a **semantics-first reference metalanguage** for relational
//! queries: a strict generalization of Tuple Relational Calculus in a
//! collection framework. It separates a query into
//!
//! 1. a **relational core** — the compositional structure that determines
//!    intent ([`ast`], whose types are simultaneously the Abstract Language
//!    Tree of the paper);
//! 2. **modalities** — alternative, losslessly inter-translatable
//!    representations of that core ([`alt`] here; the comprehension syntax
//!    lives in `arc-parser`, the higraph diagrams in `arc-higraph`, SQL and
//!    Datalog renderings in `arc-sql`/`arc-datalog`);
//! 3. **conventions** — orthogonal environment-level semantic parameters
//!    ([`conventions`]): set vs. bag semantics, null logic, aggregate
//!    initialization on empty input.
//!
//! The [`binder`] performs the *linking step* (name resolution, scope
//! construction, predicate-role classification, validation), producing the
//! linked ALT — conceptually an Abstract Language Higraph. [`pattern`]
//! extracts canonical, convention-free *relational pattern* signatures, the
//! paper's unit of cross-language comparison.
//!
//! ## Quick example
//!
//! ```
//! use arc_core::dsl::*;
//! use arc_core::{alt, binder::Binder, pattern};
//!
//! // Paper Eq (1): {Q(A) | ∃r∈R, s∈S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}
//! let q = collection(
//!     "Q",
//!     &["A"],
//!     exists(
//!         &[bind("r", "R"), bind("s", "S")],
//!         and([
//!             assign("Q", "A", col("r", "A")),
//!             eq(col("r", "B"), col("s", "B")),
//!             eq(col("s", "C"), int(0)),
//!         ]),
//!     ),
//! );
//!
//! let info = Binder::new().bind_collection(&q);
//! assert!(info.is_valid());
//!
//! let tree = alt::render_collection(&q); // Fig 2a, textually
//! assert!(tree.contains("BINDING: r ∈ R"));
//!
//! let sig = pattern::signature(&q); // the relational pattern
//! assert_eq!(sig.features["rel:R"], 1);
//! ```

#![warn(missing_docs)]

pub mod alt;
pub mod ast;
pub mod binder;
pub mod column;
pub mod conventions;
pub mod dsl;
pub mod json;
pub mod pattern;
pub mod rows;
pub mod value;

pub use ast::{
    AggArg, AggCall, AggFunc, ArithOp, AttrRef, Binding, BindingSource, CmpOp, Collection,
    Definition, Formula, Grouping, Head, JoinTree, Predicate, Program, Quant, Scalar,
};
pub use binder::{BindError, Binder, BoundInfo, PredRole};
pub use conventions::{Conventions, EmptyAgg, NullLogic, Semantics};
pub use pattern::{signature, PatternSignature};
pub use rows::Rows;
pub use value::{Truth, Value};
