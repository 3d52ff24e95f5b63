//! The engine's `ARC_*` environment knobs, read once into one
//! [`QueryOptions`] value: one parser for the on/off switches, one parser
//! each for the valued ones (`ARC_THREADS`, `ARC_TIMEOUT_MS`,
//! `ARC_MEM_BUDGET`, `ARC_FAULT`). A malformed value surfaces as
//! [`EvalError::Config`] from every engine entry point, never as a panic
//! at construction.

use crate::error::EvalError;
use arc_guard::FaultPlan;
use std::time::Duration;

/// The environment one query runs under: every `ARC_*` knob, parsed once
/// by `Engine::new` and adjusted by the `with_*` builders. None of it
/// changes a result — it sets parallelism, recording and the guard's
/// limits. `Copy`, so each evaluation context holds its own (a forked
/// worker's with `threads = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Parallelism of the partitioned executor (`ARC_THREADS`, default 1).
    pub threads: usize,
    /// Wall-clock timing of builds into the `arc-trace` registry and onto
    /// execution profiles (`ARC_TRACE`, default off).
    pub trace: bool,
    /// Begin/end spans into per-lane ring buffers (`ARC_SPANS`, default
    /// off).
    pub spans: bool,
    /// Per-query deadline (`ARC_TIMEOUT_MS`); `None` is unbounded.
    pub timeout: Option<Duration>,
    /// Per-query build-memory budget in bytes (`ARC_MEM_BUDGET`); `None`
    /// is unbounded.
    pub mem_budget: Option<usize>,
    /// Deterministic fault injection (`ARC_FAULT`); `None` injects
    /// nothing.
    pub fault: Option<FaultPlan>,
}

impl QueryOptions {
    /// The options `lookup` sets, each variable through its one parser;
    /// the first malformed one, in field order, is the error.
    pub(crate) fn from_vars(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<QueryOptions, EvalError> {
        let onoff = |name: &str| parse_onoff(name, lookup(name).as_deref());
        (|| {
            Ok(QueryOptions {
                threads: arc_exec::parse_threads(lookup("ARC_THREADS").as_deref())?,
                trace: onoff("ARC_TRACE")?,
                spans: onoff("ARC_SPANS")?,
                timeout: parse_timeout(lookup("ARC_TIMEOUT_MS").as_deref())?,
                mem_budget: parse_mem_budget(lookup("ARC_MEM_BUDGET").as_deref())?,
                fault: parse_fault(lookup("ARC_FAULT").as_deref())?,
            })
        })()
        .map_err(EvalError::Config)
    }
}

/// Interpret `value` for the on/off knob `var` (`ARC_TRACE`, `ARC_SPANS`:
/// both record, neither changes what runs) — one grammar, one
/// normalization (`lowercase`, `_` → `-`), one error shape. Unset and
/// empty mean off; `on`/`1`/`true`/`auto` affirm; `off`/`0`/`false`/`no`
/// negate; anything else is a descriptive error naming the variable.
pub fn parse_onoff(var: &str, value: Option<&str>) -> Result<bool, String> {
    match value.map(|v| v.to_lowercase().replace('_', "-")).as_deref() {
        None | Some("") => Ok(false),
        Some("on" | "1" | "true" | "auto") => Ok(true),
        Some("off" | "0" | "false" | "no") => Ok(false),
        Some(other) => Err(format!("unknown {var} `{other}` (expected `on` or `off`)")),
    }
}

/// Query deadline, from `ARC_TIMEOUT_MS` (milliseconds): unset, empty,
/// and `0` mean no deadline.
pub fn parse_timeout(value: Option<&str>) -> Result<Option<Duration>, String> {
    let Some(v) = value.map(str::trim) else {
        return Ok(None);
    };
    if v.is_empty() {
        return Ok(None);
    }
    let ms: u64 = v.parse().map_err(|_| {
        format!("unparseable ARC_TIMEOUT_MS `{v}` (expected milliseconds, e.g. `5000`)")
    })?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

/// Per-query memory budget, from `ARC_MEM_BUDGET` (bytes, with optional
/// `k`/`m`/`g` suffix, parsed by [`arc_guard::parse_mem_budget`]): unset,
/// empty, and `0` mean no budget. Builds that would exceed the budget
/// degrade to streaming paths; only hard exhaustion aborts with
/// `EvalError::MemoryBudget`.
pub fn parse_mem_budget(value: Option<&str>) -> Result<Option<usize>, String> {
    match value {
        None => Ok(None),
        Some(v) => {
            arc_guard::parse_mem_budget(v).map_err(|e| format!("unparseable ARC_MEM_BUDGET: {e}"))
        }
    }
}

/// Deterministic fault injection, from `ARC_FAULT=seam:N[:kind]` (see
/// [`arc_guard::FaultPlan`]): fire a panic, budget denial, or
/// cancellation at the Nth visit of a named guard seam. Test/CI
/// machinery — unset means no fault.
pub fn parse_fault(value: Option<&str>) -> Result<Option<FaultPlan>, String> {
    match value {
        None => Ok(None),
        Some(v) => FaultPlan::parse(v).map_err(|e| format!("unparseable ARC_FAULT: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The consolidation contract: every knob — the two on/off switches
    /// and the three guard knobs — accepts its
    /// affirmative and negative forms and reports garbage as a
    /// descriptive error naming the variable.
    #[test]
    fn every_knob_parses_on_off_and_garbage() {
        for var in ["ARC_TRACE", "ARC_SPANS"] {
            for (value, want) in [
                (None, false),
                (Some(""), false),
                (Some("on"), true),
                (Some("TRUE"), true),
                (Some("off"), false),
                (Some("0"), false),
            ] {
                assert_eq!(parse_onoff(var, value), Ok(want), "{var}={value:?}");
            }
            let err = parse_onoff(var, Some("garbage")).unwrap_err();
            assert!(err.contains(var), "{err}");
            assert!(err.contains("garbage"), "{err}");
        }

        // Guard knobs: on (a valid value), off (unset/empty), garbage.
        assert_eq!(parse_timeout(None), Ok(None));
        assert_eq!(parse_timeout(Some("")), Ok(None));
        assert_eq!(parse_timeout(Some("0")), Ok(None));
        assert_eq!(
            parse_timeout(Some("250")),
            Ok(Some(Duration::from_millis(250)))
        );
        let err = parse_timeout(Some("soon")).unwrap_err();
        assert!(err.contains("ARC_TIMEOUT_MS"), "{err}");

        assert_eq!(parse_mem_budget(None), Ok(None));
        assert_eq!(parse_mem_budget(Some("")), Ok(None));
        assert_eq!(parse_mem_budget(Some("64m")), Ok(Some(64 << 20)));
        let err = parse_mem_budget(Some("lots")).unwrap_err();
        assert!(err.contains("ARC_MEM_BUDGET"), "{err}");

        assert_eq!(parse_fault(None), Ok(None));
        assert_eq!(parse_fault(Some("")), Ok(None));
        let plan = parse_fault(Some("hash-build:2:budget")).unwrap().unwrap();
        assert_eq!(plan.seam, arc_guard::seam::HASH_BUILD);
        let err = parse_fault(Some("nowhere:1")).unwrap_err();
        assert!(err.contains("ARC_FAULT"), "{err}");
    }

    /// Options read from variables: unset is every default, and with
    /// several malformed variables the error names the first, in field
    /// order — one value, one error, whichever knob a caller reads.
    #[test]
    fn options_report_the_first_malformed_variable() {
        let from = |vars: &[(&str, &str)]| {
            QueryOptions::from_vars(|name| {
                let found = vars.iter().find(|(n, _)| *n == name);
                found.map(|(_, v)| v.to_string())
            })
        };
        let defaults = from(&[]).unwrap();
        assert_eq!(
            defaults,
            QueryOptions {
                threads: 1,
                trace: false,
                spans: false,
                timeout: None,
                mem_budget: None,
                fault: None,
            }
        );
        let set = from(&[("ARC_THREADS", "4"), ("ARC_MEM_BUDGET", "1k")]).unwrap();
        assert_eq!((set.threads, set.mem_budget), (4, Some(1024)));
        for (vars, first) in [
            (
                &[("ARC_FAULT", "x"), ("ARC_SPANS", "maybe")][..],
                "ARC_SPANS",
            ),
            (
                &[("ARC_TIMEOUT_MS", "soon"), ("ARC_THREADS", "many")],
                "ARC_THREADS",
            ),
            (
                &[("ARC_FAULT", "nowhere:1"), ("ARC_MEM_BUDGET", "lots")],
                "ARC_MEM_BUDGET",
            ),
            (&[("ARC_FAULT", "nowhere:1")], "ARC_FAULT"),
        ] {
            let Err(EvalError::Config(msg)) = from(vars) else {
                panic!("{vars:?} must not parse");
            };
            assert!(msg.contains(first), "{vars:?}: {msg}");
        }
    }

    /// `ARC_TRACE` is read twice — per engine through this registry, and
    /// process-wide by the `arc-trace` registry through
    /// [`arc_trace::parse_trace`] — so the two readings must agree.
    #[test]
    fn consolidated_trace_knobs_match_the_arc_trace_parsers() {
        for v in [
            None,
            Some(""),
            Some("on"),
            Some("OFF"),
            Some("1"),
            Some("no"),
        ] {
            assert_eq!(
                parse_onoff("ARC_TRACE", v),
                arc_trace::parse_trace(v),
                "{v:?}"
            );
        }
        assert!(parse_onoff("ARC_TRACE", Some("nope")).is_err());
        assert!(arc_trace::parse_trace(Some("nope")).is_err());
    }
}
