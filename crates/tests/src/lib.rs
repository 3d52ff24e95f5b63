//! Host crate for the workspace-level integration tests in `/tests` and
//! the runnable examples in `/examples`: the paper fixtures they share
//! ([`fixtures`]), and the one comparison the tests share — an engine
//! answer against the oracle's.
#![warn(missing_docs)]

pub mod fixtures;

use arc_analysis::oracle;
use arc_core::ast::{Collection, Program};
use arc_core::conventions::{Conventions, Semantics};
use arc_engine::{Catalog, Engine, FaultKind, FaultPlan, Relation};

/// Do two answers mean the same: one bag, or — under set conventions —
/// one set, over one schema?
pub fn agrees(conv: Conventions, got: &Relation, want: &Relation) -> bool {
    got.schema == want.schema
        && match conv.semantics {
            Semantics::Bag => got.bag_eq(want),
            Semantics::Set => got.set_eq(want),
        }
}

/// The oracle's answer to `q`; panics when it has none.
pub fn oracle_rows(catalog: &Catalog, conv: Conventions, q: &Collection) -> Relation {
    oracle::eval_collection(catalog, conv, q).unwrap_or_else(|e| panic!("oracle: {e:?}\n{q:?}"))
}

/// The oracle's answer to a program; panics when it has none.
pub fn oracle_program(catalog: &Catalog, conv: Conventions, p: &Program) -> oracle::ProgramRows {
    oracle::eval_program(catalog, conv, p).unwrap_or_else(|e| panic!("oracle: {e:?}\n{p:?}"))
}

/// `engine` with its first build at admission seam `seam` denied, as a
/// budget too small for that build would deny it: the build's fallback
/// path runs instead.
pub fn deny_first<'c>(engine: Engine<'c>, seam: &'static str) -> Engine<'c> {
    engine.with_fault(FaultPlan {
        seam,
        at: 1,
        kind: FaultKind::Budget,
    })
}

/// Assert the engine's `got` agrees with the oracle on `q`.
pub fn assert_oracle(catalog: &Catalog, conv: Conventions, q: &Collection, got: &Relation) {
    let want = oracle_rows(catalog, conv, q);
    assert!(
        agrees(conv, got, &want),
        "engine and oracle disagree under {conv:?} on\n{q:?}\nengine:\n{got}\noracle:\n{want}"
    );
}
