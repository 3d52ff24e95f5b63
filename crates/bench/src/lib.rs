//! Shared fixtures for the tests and the experiments binary: every paper
//! figure's queries and instances, constructed once, reused by `tests/*`
//! and `src/bin/experiments.rs`.

#![warn(missing_docs)]

pub mod fixtures;
