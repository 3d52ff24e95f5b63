//! Textual `EXPLAIN` / `EXPLAIN ANALYZE`: render a [`PlanNode`] tree as
//! an indented operator listing.
//!
//! The format is deliberately plain and stable (golden-tested): one
//! operator per line, two-space indentation per level, steps of a scope
//! numbered in execution order. A future diagram backend (higraph) walks
//! the same [`PlanNode`] tree instead of this renderer.
//!
//! [`render_analyze`] is the same tree annotated with **actuals** from an
//! `arc-trace` execution profile: per operator, `act=N (est=N, q=X.X)` —
//! the actual output cardinality against the planner's estimate and
//! their **q-error** `max(est/act, act/est)` (both sides clamped to ≥ 1
//! row; `q = 1.0` is a perfect estimate) — plus invocation counts,
//! candidate-row counts, and wall time where the engine recorded them.

use crate::query::PlanNode;
use arc_trace::{OpId, OpStats};
use std::fmt::Write as _;

/// Per-operator actuals source for [`render_analyze`]: maps a stable
/// operator id to what execution recorded for it, or `None` when the
/// operator never ran (its line renders estimate-only).
pub type Actuals<'x> = &'x dyn Fn(OpId) -> Option<OpStats>;

/// Render a plan tree as indented text (trailing newline included).
pub fn render(node: &PlanNode) -> String {
    render_with_threads(node, 1)
}

/// Render a plan tree for an engine running `threads`-way parallel
/// execution: the partition-axis step of each scope gains a
/// `partition(n)` operator prefix showing its scan will be split into
/// morsels across `n` threads. With `threads <= 1` this is exactly
/// [`render`] (sequential engines show sequential plans).
pub fn render_with_threads(node: &PlanNode, threads: usize) -> String {
    let mut out = String::new();
    render_into(node, 0, threads, None, &mut out);
    out
}

/// Render a plan tree for an engine running under a memory budget:
/// exactly [`render_with_threads`], followed by a one-line governance
/// note stating the budget and the degradation contract. The note makes
/// `EXPLAIN` honest under `ARC_MEM_BUDGET`: every `hash-join` /
/// `index-range` / `semi-join` line above it is an *intent* the guard
/// may demote to the streaming / nested fallback at run time — same
/// rows, different cost — and only hard exhaustion aborts.
pub fn render_governed(node: &PlanNode, threads: usize, mem_budget: Option<usize>) -> String {
    let mut out = render_with_threads(node, threads);
    if let Some(budget) = mem_budget {
        line(
            &mut out,
            0,
            &format!(
                "governance: memory budget {budget} B — builds over budget degrade to streaming fallbacks (guard.degradations counts them)"
            ),
        );
    }
    out
}

/// Render a plan tree annotated with execution actuals (`EXPLAIN
/// ANALYZE`). Operators the profile has no record of render exactly as
/// in [`render_with_threads`], so `render_analyze(n, t, &|_| None)`
/// degrades to the plain rendering.
///
/// When any operator *did* record actuals, the rendering ends with a
/// `misestimates` footer: the top 3 operators by [`q_error`] with
/// `q >= 2.0` (one line each, worst first), or a one-line all-clear
/// naming the worst q observed — the first place to look when a plan
/// misbehaves after `ANALYZE`.
pub fn render_analyze(node: &PlanNode, threads: usize, actuals: Actuals<'_>) -> String {
    let mut out = String::new();
    render_into(node, 0, threads, Some(actuals), &mut out);
    let mut mis: Vec<(f64, String)> = Vec::new();
    collect_misestimates(node, actuals, &mut mis);
    if !mis.is_empty() {
        mis.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        if mis[0].0 >= 2.0 {
            line(&mut out, 0, "misestimates (top 3 by q-error):");
            for (_, text) in mis.iter().take(3).filter(|(q, _)| *q >= 2.0) {
                line(&mut out, 1, text);
            }
        } else {
            line(
                &mut out,
                0,
                &format!("misestimates: none (worst q={:.1})", mis[0].0),
            );
        }
    }
    out
}

/// Walk the tree collecting a `(q-error, rendered line)` entry per
/// operator that has both an estimate and recorded actuals — the same
/// ids and the same [`q_error`] normalization the inline annotations
/// use, so the footer is joinable back to the lines above it.
fn collect_misestimates(node: &PlanNode, actuals: Actuals<'_>, out: &mut Vec<(f64, String)>) {
    match node {
        PlanNode::Program { definitions, query } => {
            for d in definitions {
                collect_misestimates(d, actuals, out);
            }
            if let Some(q) = query {
                collect_misestimates(q, actuals, out);
            }
        }
        PlanNode::Fixpoint { inputs, .. } | PlanNode::Union { inputs } => {
            for i in inputs {
                collect_misestimates(i, actuals, out);
            }
        }
        PlanNode::Project { input, .. } | PlanNode::Aggregate { input, .. } => {
            collect_misestimates(input, actuals, out);
        }
        PlanNode::Scope {
            scope_id,
            steps,
            children,
            ..
        } => {
            for (i, s) in steps.iter().enumerate() {
                if let Some(a) = actuals(OpId::step(*scope_id, i)) {
                    let q = q_error(s.est, a.rows_out, a.calls);
                    out.push((
                        q,
                        format!(
                            "{} {} as {}: q={:.1} (est={}, act={}, calls={})",
                            s.access, s.source, s.var, q, s.est, a.rows_out, a.calls
                        ),
                    ));
                }
            }
            for c in children {
                collect_misestimates(&c.plan, actuals, out);
            }
        }
        PlanNode::SemiJoin {
            scope_id,
            anti,
            keys,
            est_keys,
            build,
            ..
        } => {
            if let Some(a) = actuals(OpId::semi(*scope_id)) {
                let q = q_error(*est_keys, a.rows_in, 1);
                let op = if *anti { "anti-join" } else { "semi-join" };
                out.push((
                    q,
                    format!(
                        "{op} on [{}]: q={:.1} (est={}, keys={})",
                        keys.join(", "),
                        q,
                        est_keys,
                        a.rows_in
                    ),
                ));
            }
            collect_misestimates(build, actuals, out);
        }
        PlanNode::OuterJoin { .. } => {}
    }
}

/// Timeline display names for span export: map each plan operator's
/// [`OpId`] to the same text `EXPLAIN` prints for it — steps as
/// `access source as var`, scopes as `scope [vars]`, semi-joins as
/// `semi-join build on [keys]` — so a Perfetto block is joinable back to
/// its `EXPLAIN ANALYZE` line by name as well as by `args.op`.
pub fn span_names(node: &PlanNode) -> std::collections::BTreeMap<OpId, String> {
    let mut names = std::collections::BTreeMap::new();
    collect_span_names(node, &mut names);
    names
}

fn collect_span_names(node: &PlanNode, out: &mut std::collections::BTreeMap<OpId, String>) {
    match node {
        PlanNode::Program { definitions, query } => {
            for d in definitions {
                collect_span_names(d, out);
            }
            if let Some(q) = query {
                collect_span_names(q, out);
            }
        }
        PlanNode::Fixpoint { inputs, .. } | PlanNode::Union { inputs } => {
            for i in inputs {
                collect_span_names(i, out);
            }
        }
        PlanNode::Project { input, .. } | PlanNode::Aggregate { input, .. } => {
            collect_span_names(input, out);
        }
        PlanNode::Scope {
            scope_id,
            steps,
            children,
            ..
        } => {
            let vars: Vec<&str> = steps.iter().map(|s| s.var.as_str()).collect();
            out.insert(
                OpId::scope(*scope_id),
                format!("scope [{}]", vars.join(", ")),
            );
            for (i, s) in steps.iter().enumerate() {
                out.insert(
                    OpId::step(*scope_id, i),
                    format!("{} {} as {}", s.access, s.source, s.var),
                );
            }
            for c in children {
                collect_span_names(&c.plan, out);
            }
        }
        PlanNode::SemiJoin {
            scope_id,
            anti,
            keys,
            build,
            ..
        } => {
            let op = if *anti { "anti-join" } else { "semi-join" };
            out.insert(
                OpId::semi(*scope_id),
                format!("{op} build on [{}]", keys.join(", ")),
            );
            collect_span_names(build, out);
        }
        PlanNode::OuterJoin { .. } => {}
    }
}

/// The q-error of an estimate: `max(est/act, act/est)` with both sides
/// clamped to ≥ 1 row (the standard convention — emptiness collapses the
/// ratio, and sub-row estimates are noise). `est` is the planner's
/// per-upstream-environment estimate, so the actual is normalized by the
/// operator's invocation count before comparing.
pub fn q_error(est: u64, rows_out: u64, calls: u64) -> f64 {
    let est = (est as f64).max(1.0);
    let per_call = if calls == 0 {
        rows_out as f64
    } else {
        rows_out as f64 / calls as f64
    }
    .max(1.0);
    (est / per_call).max(per_call / est)
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(text);
    out.push('\n');
}

fn render_into(
    node: &PlanNode,
    depth: usize,
    threads: usize,
    actuals: Option<Actuals<'_>>,
    out: &mut String,
) {
    match node {
        PlanNode::Program { definitions, query } => {
            line(out, depth, "program");
            for d in definitions {
                render_into(d, depth + 1, threads, actuals, out);
            }
            if let Some(q) = query {
                line(out, depth + 1, "query");
                render_into(q, depth + 2, threads, actuals, out);
            }
        }
        PlanNode::Fixpoint { relations, inputs } => {
            line(out, depth, &format!("fixpoint [{}]", relations.join(", ")));
            for i in inputs {
                render_into(i, depth + 1, threads, actuals, out);
            }
        }
        PlanNode::Project { head, attrs, input } => {
            line(out, depth, &format!("project {head}({})", attrs.join(", ")));
            render_into(input, depth + 1, threads, actuals, out);
        }
        PlanNode::Union { inputs } => {
            line(out, depth, "union");
            for i in inputs {
                render_into(i, depth + 1, threads, actuals, out);
            }
        }
        PlanNode::Aggregate {
            keys,
            assigns,
            tests,
            input,
        } => {
            let keys = if keys.is_empty() {
                "γ∅".to_string()
            } else {
                format!("γ {}", keys.join(", "))
            };
            line(out, depth, &format!("aggregate {keys}"));
            for a in assigns {
                line(out, depth + 1, &format!("agg: {a}"));
            }
            for t in tests {
                line(out, depth + 1, &format!("having: {t}"));
            }
            render_into(input, depth + 1, threads, actuals, out);
        }
        PlanNode::Scope {
            scope_id,
            steps,
            prelude,
            residual,
            assigns,
            children,
        } => {
            let mut text = String::from("scope");
            if let Some(s) = actuals.and_then(|a| a(OpId::scope(*scope_id))) {
                let _ = write!(text, " act={} calls={}", s.rows_out, s.calls);
                if s.nanos > 0 {
                    let _ = write!(text, " time={}", fmt_nanos(s.nanos));
                }
            }
            line(out, depth, &text);
            for p in prelude {
                line(out, depth + 1, &format!("prelude: {p}"));
            }
            for (i, s) in steps.iter().enumerate() {
                let partition = if s.partition && threads > 1 {
                    format!("partition({threads}) ")
                } else {
                    String::new()
                };
                let mut text = format!(
                    "{}: {partition}{} {} as {}",
                    i + 1,
                    s.access,
                    s.source,
                    s.var
                );
                match actuals.and_then(|a| a(OpId::step(*scope_id, i))) {
                    Some(a) => {
                        let q = q_error(s.est, a.rows_out, a.calls);
                        let _ = write!(
                            text,
                            " act={} (est={}, q={:.1}) calls={}",
                            a.rows_out, s.est, q, a.calls
                        );
                        if a.rows_in != a.rows_out {
                            // Candidates the access path yielded vs rows
                            // surviving pushed filters — e.g. index-range
                            // survivors vs post-filter drops.
                            let _ = write!(text, " in={}", a.rows_in);
                        }
                        if a.nanos > 0 {
                            let _ = write!(text, " time={}", fmt_nanos(a.nanos));
                        }
                    }
                    None => {
                        let _ = write!(text, " (est={})", s.est);
                    }
                }
                line(out, depth + 1, &text);
                for f in &s.pushed {
                    line(out, depth + 2, &format!("filter: {f}"));
                }
            }
            for r in residual {
                line(out, depth + 1, &format!("residual: {r}"));
            }
            for a in assigns {
                line(out, depth + 1, &format!("emit: {a}"));
            }
            for c in children {
                line(out, depth + 1, &format!("[{}]", c.label));
                render_into(&c.plan, depth + 2, threads, actuals, out);
            }
        }
        PlanNode::SemiJoin {
            scope_id,
            anti,
            keys,
            prelude,
            est_keys,
            null_aware,
            build,
        } => {
            let op = if *anti { "anti-join" } else { "semi-join" };
            let on = if keys.is_empty() {
                // Correlation is prelude-only (or absent): the build
                // collapses to a cached non-emptiness verdict.
                String::from("[∅]")
            } else {
                format!("[{}]", keys.join(", "))
            };
            let mut text = format!("{op} on {on}");
            if *null_aware {
                text.push_str(" null-aware");
            }
            match actuals.and_then(|a| a(OpId::semi(*scope_id))) {
                // Probe-side actuals live on the scope-level operator:
                // `rows_in` = keys in the build set, `calls` = probes,
                // `rows_out` = probe hits, `nanos` = build time.
                Some(a) => {
                    let q = q_error(*est_keys, a.rows_in, 1);
                    let _ = write!(
                        text,
                        " act={} (est={}, q={:.1}) probes={} hits={}",
                        a.rows_in, est_keys, q, a.calls, a.rows_out
                    );
                    if a.nanos > 0 {
                        let _ = write!(text, " build={}", fmt_nanos(a.nanos));
                    }
                }
                None => {
                    let _ = write!(text, " (est={est_keys})");
                }
            }
            line(out, depth, &text);
            for p in prelude {
                line(out, depth + 1, &format!("probe-filter: {p}"));
            }
            line(out, depth + 1, "build (once)");
            render_into(build, depth + 2, threads, actuals, out);
        }
        PlanNode::OuterJoin {
            tree,
            filters,
            assigns,
        } => {
            line(out, depth, &format!("outer-join {tree} (materialized)"));
            for f in filters {
                line(out, depth + 1, &format!("filter: {f}"));
            }
            for a in assigns {
                line(out, depth + 1, &format!("emit: {a}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_clamps_and_is_symmetric() {
        assert_eq!(q_error(10, 10, 1), 1.0);
        assert_eq!(q_error(10, 1, 1), 10.0);
        assert_eq!(q_error(1, 10, 1), 10.0);
        // Per-call normalization: 40 rows over 4 calls against est=10.
        assert_eq!(q_error(10, 40, 4), 1.0);
        // Emptiness clamps to one row instead of collapsing the ratio.
        assert_eq!(q_error(5, 0, 1), 5.0);
        assert_eq!(q_error(0, 0, 0), 1.0);
    }
}
