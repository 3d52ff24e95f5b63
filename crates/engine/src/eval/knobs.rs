//! The engine's `ARC_*` environment knobs: one registry for the on/off
//! switches, one parser each for the valued ones (`ARC_THREADS`,
//! `ARC_TIMEOUT_MS`, `ARC_MEM_BUDGET`, `ARC_FAULT`). Every malformed value
//! surfaces as [`EvalError::Config`] on the first evaluation, never as a
//! panic at construction.

use crate::error::EvalError;
use arc_guard::FaultPlan;
use std::time::Duration;

/// One registered on/off engine knob: its environment variable and its
/// default.
pub struct OnOffKnob {
    /// Environment variable name.
    pub var: &'static str,
    /// Value when the variable is unset or empty.
    pub default: bool,
}

/// The single registry behind every on/off `ARC_*` knob — one grammar,
/// one normalization (`lowercase`, `_` → `-`), one error shape. Both
/// record; neither changes what runs:
///
/// * `ARC_TRACE` — build timings into the `arc-trace` registry and wall
///   times onto execution profiles (default off);
/// * `ARC_SPANS` — begin/end spans into per-lane ring buffers (default
///   off).
pub const ONOFF_KNOBS: &[OnOffKnob] = &[
    OnOffKnob {
        var: "ARC_TRACE",
        default: false,
    },
    OnOffKnob {
        var: "ARC_SPANS",
        default: false,
    },
];

/// Interpret `value` for the registered knob `var`. Unset and empty mean
/// the knob's default; `on`/`1`/`true`/`auto` affirm; `off`/`0`/`false`/
/// `no` negate; anything else is a descriptive error naming the variable.
pub fn parse_onoff(var: &str, value: Option<&str>) -> Result<bool, String> {
    let knob = ONOFF_KNOBS
        .iter()
        .find(|k| k.var == var)
        .unwrap_or_else(|| panic!("`{var}` is not a registered on/off knob"));
    let Some(v) = value.map(|v| v.to_lowercase().replace('_', "-")) else {
        return Ok(knob.default);
    };
    match v.as_str() {
        "" => Ok(knob.default),
        "on" | "1" | "true" | "auto" => Ok(true),
        "off" | "0" | "false" | "no" => Ok(false),
        other => Err(format!("unknown {var} `{other}` (expected `on` or `off`)")),
    }
}

/// Read `var` from the live environment through its one parser, the
/// error deferred into [`EvalError::Config`] like every other engine knob.
/// `ARC_THREADS` parses with [`arc_exec::parse_threads`] (unset means
/// sequential, `auto` the machine's parallelism).
pub(crate) fn from_env<T>(
    var: &str,
    parse: impl Fn(Option<&str>) -> Result<T, String>,
) -> Result<T, EvalError> {
    parse(std::env::var(var).ok().as_deref()).map_err(EvalError::Config)
}

/// [`parse_onoff`] over the live environment.
pub(crate) fn onoff_from_env(var: &str) -> Result<bool, EvalError> {
    from_env(var, |v| parse_onoff(var, v))
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

    /// The consolidation contract: every registered knob — the two
    /// on/off switches and the three guard knobs — accepts its
    /// affirmative and negative forms and reports garbage as a
    /// descriptive error naming the variable.
    #[test]
    fn every_knob_parses_on_off_and_garbage() {
        for knob in ONOFF_KNOBS {
            assert_eq!(
                parse_onoff(knob.var, None),
                Ok(knob.default),
                "{}",
                knob.var
            );
            assert_eq!(
                parse_onoff(knob.var, Some("")),
                Ok(knob.default),
                "{}",
                knob.var
            );
            assert_eq!(parse_onoff(knob.var, Some("on")), Ok(true), "{}", knob.var);
            assert_eq!(
                parse_onoff(knob.var, Some("TRUE")),
                Ok(true),
                "{}",
                knob.var
            );
            assert_eq!(
                parse_onoff(knob.var, Some("off")),
                Ok(false),
                "{}",
                knob.var
            );
            assert_eq!(parse_onoff(knob.var, Some("0")), Ok(false), "{}", knob.var);
            let err = parse_onoff(knob.var, Some("garbage")).unwrap_err();
            assert!(err.contains(knob.var), "{err}");
            assert!(err.contains("garbage"), "{err}");
        }
        // Both recording knobs default off.
        for var in ["ARC_TRACE", "ARC_SPANS"] {
            assert_eq!(parse_onoff(var, None), Ok(false), "{var}");
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
