//! `arc-benchmark`: query text in (ARC / SQL / Datalog) → rows out, timed
//! end to end and attributed layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! arc-benchmark                                   all workloads, full report
//! arc-benchmark --smoke                           the same in under 30 s
//! arc-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                 one run, result as the last line
//! arc-benchmark --compare BASE.json NEW.json      regression verdicts
//! ```

mod calibrate;
mod gen;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod reference;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::END_TO_END;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Workload, LANGUAGES, TEMPLATES};

const USAGE: &str = "usage: arc-benchmark [--workload NAME --trace 0|1 | --compare BASE NEW] \
     [--seed N] [--seconds S] [--runs K] [--smoke]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        runs: 3,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value `{v}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad(v))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad(v));
                }
            }
            "--runs" => {
                let v = value()?;
                cli.runs = v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                cli.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--smoke" => {
                cli.seconds = 1.0;
                cli.runs = 1;
            }
            "--compare" => {
                let base = value()?.clone();
                cli.compare = Some((base, value()?.clone()));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let start = Instant::now();
    // `Engine::new` reads its knobs from `ARC_*`; a stray one would make
    // this a benchmark of some other configuration.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ARC_"))
    {
        eprintln!(
            "arc-benchmark: {} is set; unset every ARC_* variable first",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("arc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&cli.compare, cli.workload) {
        (Some((base, new)), _) => compare(base, new),
        (None, Some(w)) => one_run(start, &cli, w),
        (None, None) => full_report(&cli),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("arc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One run of one workload (what the driver calls)
// ---------------------------------------------------------------------------

fn one_run(start: Instant, cli: &Cli, w: Workload) -> Result<ExitCode, String> {
    let args = run::Args {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let mut outcome = run::run(start, &args);
    if !cli.trace {
        let setup_s = stats::median(&outcome.setups_s);
        outcome.metrics.insert("setup_s".into(), setup_s);
    }
    for line in &outcome.tally.first {
        eprintln!("failed: {line}");
    }
    eprintln!(
        "{}: seed {} trace {} — {} measured rounds (raw min/p10/p50/p90/max {:.1?} ms, \
         host slowdown {:.3}), {} statements attempted, {} failed, set-ups {:.3?} s",
        w.name(),
        cli.seed,
        cli.trace as u8,
        outcome.rounds,
        outcome.quantiles_ms,
        outcome.host_slowdown,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.setups_s,
    );

    // The result: every declared metric of this mode, in declared order.
    // The driver's contract wants a number for each, so a per-layer metric
    // this run has no value for (another workload's statement, a counter
    // the registry does not hold) is printed as 0 here and named on the
    // `not-applicable` line above; the full report prints it as `null`.
    let declared: Vec<(String, &str)> = if cli.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut absent = Vec::new();
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = outcome
            .metrics
            .get(&name)
            .copied()
            .filter(|v| v.is_finite());
        if value.is_none() {
            if !cli.trace {
                return Err(format!("end-to-end metric {name} was not measured"));
            }
            absent.push(name.clone());
        }
        fields.push((
            name,
            Json::obj([
                ("value", Json::num(value.unwrap_or(0.0))),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    if cli.trace {
        println!("not-applicable: {}", absent.join(","));
    }
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(outcome.tally.attempted as f64)),
            ("failed", Json::num(outcome.tally.failed as f64)),
            ("metrics", Json::Obj(fields)),
        ])
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The full report: every workload, `--runs` end-to-end runs + a traced one
// ---------------------------------------------------------------------------

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Run this executable again on workload `w` — a process of its own, so
/// `peak_rss_mb` and the global plan cache are that workload's alone — and
/// return its result line plus its `not-applicable` list.
fn run_child(w: Workload, cli: &Cli, trace: bool) -> Result<(Json, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (seed, seconds) = (cli.seed.to_string(), cli.seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        w.name(),
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ];
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let out = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    let absent = out
        .lines()
        .find_map(|l| l.strip_prefix("not-applicable: "))
        .map(|l| l.split(',').map(String::from).collect())
        .unwrap_or_default();
    let last = out.lines().last().ok_or("child printed nothing")?;
    Ok((json::parse(last)?, absent))
}

fn full_report(cli: &Cli) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..cli.runs {
            eprintln!("{}: end-to-end run {} of {}", w.name(), run + 1, cli.runs);
            let (result, _) = run_child(w, cli, false)?;
            tally(&result);
            for (values, metric) in runs.iter_mut().zip(&END_TO_END) {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {} in child output", w.name(), metric.name))?;
                values.push(v);
            }
        }
        let end_to_end = END_TO_END.iter().zip(&runs).map(|(metric, values)| {
            (
                metric.name,
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    (
                        "better",
                        Json::str(if metric.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    ),
                    ("bound", Json::num(metric.bound)),
                    ("median", Json::num(stats::median(values))),
                    ("min", Json::num(stats::percentile(values, 0.0))),
                    ("max", Json::num(stats::percentile(values, 1.0))),
                    ("spread", Json::num(stats::spread(values))),
                    (
                        "runs",
                        Json::Arr(values.iter().map(|&v| Json::num(v)).collect()),
                    ),
                ]),
            )
        });
        let end_to_end = Json::obj(end_to_end);

        eprintln!("{}: traced run", w.name());
        let (result, absent) = run_child(w, cli, true)?;
        tally(&result);
        let per_layer = result
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .map(|(name, metric)| {
                let value = match absent.contains(name) {
                    true => Json::Null,
                    false => metric.get("value").cloned().unwrap_or(Json::Null),
                };
                let unit = metric.get("unit").cloned().unwrap_or(Json::Null);
                (name.clone(), Json::obj([("unit", unit), ("value", value)]))
            });
        let per_layer = Json::Obj(per_layer.collect());
        all_correct &= failed == 0.0;
        workloads.push((
            w.name(),
            Json::obj([
                ("sizes", Json::str(w.sizes())),
                ("attempted", Json::num(attempted)),
                ("failed", Json::num(failed)),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }
    let mut unsupported = Vec::new();
    for template in TEMPLATES {
        for (language, _) in LANGUAGES {
            if let Some(why) = workloads::unsupported(template, language) {
                unsupported.push(Json::obj([
                    ("template", Json::str(template)),
                    ("language", Json::str(language.name())),
                    ("why", Json::str(why)),
                ]));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let report = Json::obj([
        ("benchmark", Json::str("arc-benchmark")),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("nproc", Json::num(nproc as f64)),
        ("seed", Json::num(cli.seed as f64)),
        ("seconds", Json::num(cli.seconds)),
        ("runs", Json::num(cli.runs as f64)),
        ("correct", Json::Bool(all_correct)),
        ("unsupported", Json::Arr(unsupported)),
        ("workloads", Json::obj(workloads)),
    ]);
    print!("{}", report.pretty());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// `ok`, `regressed` (worse than the bound allows) or `unresolved` (either
/// side's run-to-run spread is wider than the bound, so the comparison
/// decides nothing).
fn verdict(metric: &metrics::EndToEnd, base: f64, new: f64, spread: f64) -> &'static str {
    let worse_by = if metric.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    if spread > metric.bound {
        "unresolved"
    } else if worse_by > metric.bound {
        "regressed"
    } else {
        "ok"
    }
}

fn compare(base_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (read(base_path)?, read(new_path)?);
    let field = |report: &Json, w: Workload, metric: &str, key: &str| {
        report
            .get("workloads")?
            .get(w.name())?
            .get("end_to_end")?
            .get(metric)?
            .get(key)?
            .as_f64()
    };
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        for metric in &END_TO_END {
            let values = (
                field(&base, w, metric.name, "median"),
                field(&new, w, metric.name, "median"),
            );
            let (Some(b), Some(n)) = values else {
                return Err(format!(
                    "{} {} is missing from a report",
                    w.name(),
                    metric.name
                ));
            };
            let spread = f64::max(
                field(&base, w, metric.name, "spread").unwrap_or(0.0),
                field(&new, w, metric.name, "spread").unwrap_or(0.0),
            );
            let verdict = verdict(metric, b, n, spread);
            regressed |= verdict == "regressed";
            println!(
                "{:<12} {:<14} {:>12.4} {:>12.4} {:>7.3} {:>6.2}  {verdict}",
                w.name(),
                metric.name,
                b,
                n,
                n / b,
                metric.bound
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &END_TO_END[0]; // round_p50_ms, bound 0.07
        let higher = &END_TO_END[2]; // stmts_per_s, bound 0.07
        assert!(!lower.higher_is_better && higher.higher_is_better);
        assert_eq!((lower.bound, higher.bound), (0.07, 0.07));
        assert_eq!(verdict(lower, 100.0, 106.0, 0.01), "ok");
        assert_eq!(verdict(lower, 100.0, 108.0, 0.01), "regressed");
        assert_eq!(verdict(lower, 100.0, 50.0, 0.01), "ok");
        assert_eq!(verdict(higher, 100.0, 92.0, 0.01), "regressed");
        assert_eq!(verdict(higher, 100.0, 150.0, 0.01), "ok");
        assert_eq!(verdict(lower, 100.0, 108.0, 0.08), "unresolved");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.10));
    }

    #[test]
    fn cli_parses_the_driver_invocation_and_rejects_nonsense() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let cli = parse_cli(&args(
            "--workload join_enum --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::JoinEnum));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 2.5, true));
        let smoke = parse_cli(&args("--smoke")).unwrap();
        assert_eq!((smoke.seconds, smoke.runs), (1.0, 1));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--runs 0",
            "--seed",
            "--x",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }
}
