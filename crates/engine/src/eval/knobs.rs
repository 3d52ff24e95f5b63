//! The engine's `ARC_*` environment knobs, read once into one
//! [`QueryOptions`] value: one parser per knob — [`arc_trace::parse_trace`]
//! for the one on/off switch (`ARC_TRACE`), one each for the valued ones
//! (`ARC_THREADS`, `ARC_TIMEOUT_MS`, `ARC_MEM_BUDGET`). A malformed value
//! surfaces as [`EvalError::Config`] from every engine entry point, never
//! as a panic at construction.

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
    /// Record every evaluation, timed (`ARC_TRACE`, default off):
    /// operator actuals, spans into per-lane ring buffers, and build
    /// timings into the `arc-trace` registry.
    pub trace: bool,
    /// Per-query deadline (`ARC_TIMEOUT_MS`); `None` is unbounded.
    pub timeout: Option<Duration>,
    /// Per-query build-memory budget in bytes (`ARC_MEM_BUDGET`); `None`
    /// is unbounded.
    pub mem_budget: Option<usize>,
    /// Deterministic fault injection (`Engine::with_fault`; no variable
    /// sets it); `None` injects nothing.
    pub fault: Option<FaultPlan>,
}

impl QueryOptions {
    /// The options `lookup` sets, each variable through its one parser;
    /// the first malformed one, in field order, is the error.
    pub(crate) fn from_vars(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<QueryOptions, EvalError> {
        (|| {
            Ok(QueryOptions {
                threads: parse_threads(lookup("ARC_THREADS").as_deref())?,
                trace: arc_trace::parse_trace(lookup("ARC_TRACE").as_deref())?,
                timeout: parse_timeout(lookup("ARC_TIMEOUT_MS").as_deref())?,
                mem_budget: parse_mem_budget(lookup("ARC_MEM_BUDGET").as_deref())?,
                fault: None,
            })
        })()
        .map_err(EvalError::Config)
    }
}

/// Upper bound on configured parallelism: far above any real machine this
/// engine targets, low enough that a typo (`ARC_THREADS=1000000`) cannot
/// spawn an absurd number of OS threads.
pub const MAX_THREADS: usize = 256;

/// The machine's available parallelism (1 when undetectable).
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Interpret an `ARC_THREADS` value. `None`/empty means sequential
/// (parallelism 1 — the conservative default: results are identical
/// either way, so opting in is a pure performance decision); `auto` or
/// `0` means the machine's available parallelism; otherwise a thread
/// count in `1..=`[`MAX_THREADS`]. Anything else is a descriptive error
/// (the engine surfaces it as a configuration error on first evaluation,
/// never a panic).
pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(1);
    };
    if v.eq_ignore_ascii_case("auto") {
        return Ok(available_parallelism().min(MAX_THREADS));
    }
    match v.parse::<usize>() {
        Ok(0) => Ok(available_parallelism().min(MAX_THREADS)),
        Ok(n) if n <= MAX_THREADS => Ok(n),
        Ok(n) => Err(format!(
            "ARC_THREADS `{n}` exceeds the maximum of {MAX_THREADS}"
        )),
        Err(_) => Err(format!(
            "unknown ARC_THREADS `{v}` (expected a thread count, `auto`, or `0` for auto)"
        )),
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

/// Every `.rs` file under `dir`, at any depth: what the tests that scan
/// the workspace's sources for a forbidden construct read.
#[cfg(test)]
pub(crate) fn rust_sources(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The consolidation contract: every knob — the on/off switch and
    /// the two guard knobs — accepts its affirmative and negative forms
    /// and reports garbage as a descriptive error naming the variable.
    #[test]
    fn every_knob_parses_on_off_and_garbage() {
        use arc_trace::parse_trace;
        for (value, want) in [
            (None, false),
            (Some(""), false),
            (Some("on"), true),
            (Some("TRUE"), true),
            (Some("off"), false),
            (Some("0"), false),
        ] {
            assert_eq!(parse_trace(value), Ok(want), "ARC_TRACE={value:?}");
        }
        let err = parse_trace(Some("garbage")).unwrap_err();
        assert!(err.contains("ARC_TRACE"), "{err}");
        assert!(err.contains("garbage"), "{err}");

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
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(parse_threads(None), Ok(1));
        assert_eq!(parse_threads(Some("")), Ok(1));
        assert_eq!(parse_threads(Some("  ")), Ok(1));
    }

    #[test]
    fn explicit_counts_parse() {
        assert_eq!(parse_threads(Some("1")), Ok(1));
        assert_eq!(parse_threads(Some("8")), Ok(8));
        assert_eq!(parse_threads(Some(" 4 ")), Ok(4));
    }

    #[test]
    fn auto_uses_available_parallelism() {
        let auto = parse_threads(Some("auto")).unwrap();
        assert!(auto >= 1);
        assert_eq!(parse_threads(Some("0")).unwrap(), auto);
        assert_eq!(parse_threads(Some("AUTO")).unwrap(), auto);
    }

    #[test]
    fn junk_is_a_descriptive_error() {
        let err = parse_threads(Some("many")).unwrap_err();
        assert!(err.contains("many"), "{err}");
        assert!(err.contains("ARC_THREADS"), "{err}");
        let err = parse_threads(Some("100000")).unwrap_err();
        assert!(err.contains("maximum"), "{err}");
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
                timeout: None,
                mem_budget: None,
                fault: None,
            }
        );
        let set = from(&[("ARC_THREADS", "4"), ("ARC_MEM_BUDGET", "1k")]).unwrap();
        assert_eq!((set.threads, set.mem_budget), (4, Some(1024)));
        for (vars, first) in [
            (&[("ARC_TRACE", "maybe")][..], "ARC_TRACE"),
            (
                &[("ARC_TIMEOUT_MS", "soon"), ("ARC_THREADS", "many")],
                "ARC_THREADS",
            ),
            (
                &[("ARC_MEM_BUDGET", "lots"), ("ARC_TIMEOUT_MS", "soon")],
                "ARC_TIMEOUT_MS",
            ),
        ] {
            let Err(EvalError::Config(msg)) = from(vars) else {
                panic!("{vars:?} must not parse");
            };
            assert!(msg.contains(first), "{vars:?}: {msg}");
        }
    }

    /// One reader per knob: `Engine::new` (in `eval/mod.rs`) is the only
    /// code under `crates/*/src` that reads an `ARC_*` variable. A second
    /// reader would parse the knob its own way and let a malformed value
    /// slip past `EvalError::Config`.
    #[test]
    fn only_the_engine_reads_arc_variables() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(&crates).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                files.extend(rust_sources(&src));
            }
        }
        // Split so this file does not match itself.
        let needles = [
            concat!("env::var", "(\"ARC_"),
            concat!("env::var_os", "(\"ARC_"),
        ];
        let readers: Vec<_> = files
            .iter()
            .filter(|f| !f.ends_with("engine/src/eval/mod.rs"))
            .filter(|f| {
                let text = std::fs::read_to_string(f).unwrap();
                needles.iter().any(|n| text.contains(n))
            })
            .collect();
        assert!(files.len() > 50, "walked {} files", files.len());
        assert!(readers.is_empty(), "second ARC_* readers: {readers:?}");
    }
}
