//! Chrome Trace Event Format export for [`SpanTrace`]s — the JSON that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` render as
//! a per-query timeline.
//!
//! Mapping: `pid` = the query (one process per trace), `tid` = worker
//! lane, duration events per span — `B`/`E` begin/end pairs for the
//! nesting kinds (query/plan/scope/semi-join build/step) and compact `X`
//! complete events for morsels. `M` metadata events name the process
//! (the query text) and each participating lane, so a 4-thread run shows
//! four named tracks. Timestamps are microseconds (the format's unit)
//! as floats, preserving nanosecond resolution.
//!
//! Every event carries `args.op`, the `"scope/step"` operator key that
//! [`QueryProfile::to_json`](crate::QueryProfile::to_json) and the
//! `EXPLAIN ANALYZE` renderer use, so a timeline block is joinable back
//! to its `act=N (est=N, q=X.X)` line. Span *names* come from a caller
//! closure (the engine passes `arc_plan::span_names`, rendering the same
//! `access source as var` text EXPLAIN prints); kinds with no
//! plan-derived name fall back to [`SpanKind::default_name`].
//!
//! ## Guaranteed well-formedness
//!
//! The exporter sorts each lane's spans by `(start asc, end desc)` and
//! emits `B`/`E` through an explicit stack, so in the output array every
//! `B` on a tid is closed by a matching `E` before anything that starts
//! after it ends — the span-trace golden (`tests/span_equivalence.rs`)
//! checks exactly this.

use crate::profile::OpId;
use crate::span::{Span, SpanKind, SpanTrace};
use arc_core::json::Json;

/// Render an operator key exactly the way profiles do (`"scope/step"`,
/// `"scope/-"` for scope level), with the semi-join pseudo-step printed
/// as `"scope/semi"` for readability.
pub fn op_key(op: OpId) -> String {
    match op.step {
        None => format!("{}/-", op.scope),
        Some(s) if s == usize::MAX => format!("{}/semi", op.scope),
        Some(s) => format!("{}/{}", op.scope, s),
    }
}

fn micros(nanos: u64) -> Json {
    Json::Float(nanos as f64 / 1000.0)
}

fn name_for(kind: SpanKind, op: OpId, names: &dyn Fn(SpanKind, OpId) -> Option<String>) -> String {
    names(kind, op).unwrap_or_else(|| kind.default_name().to_string())
}

fn event(ph: &str, tid: usize, name: &str, span: &Span) -> Json {
    let mut pairs = vec![
        ("ph", Json::Str(ph.to_string())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid as i64)),
        ("name", Json::Str(name.to_string())),
        (
            "ts",
            micros(if ph == "E" {
                span.end_nanos()
            } else {
                span.start_nanos
            }),
        ),
    ];
    if ph == "X" {
        pairs.push(("dur", micros(span.dur_nanos)));
    }
    pairs.push((
        "args",
        Json::obj([
            ("op", Json::Str(op_key(span.op))),
            ("kind", Json::Str(span.kind.default_name().to_string())),
        ]),
    ));
    Json::obj(pairs)
}

fn metadata(name: &str, tid: Option<usize>, value: &str) -> Json {
    let mut pairs = vec![
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Int(1)),
        ("name", Json::Str(name.to_string())),
        ("args", Json::obj([("name", Json::Str(value.to_string()))])),
    ];
    if let Some(tid) = tid {
        pairs.insert(3, ("tid", Json::Int(tid as i64)));
    }
    Json::obj(pairs)
}

/// Serialize a [`SpanTrace`] as a Chrome Trace Event Format object:
/// `{"traceEvents": [...], "meta": {...}}`. `query` names the process
/// track; `names` maps `(kind, op)` to a display name (return `None` to
/// use the kind default).
pub fn chrome_trace(
    trace: &SpanTrace,
    query: &str,
    names: &dyn Fn(SpanKind, OpId) -> Option<String>,
) -> Json {
    let mut events = Vec::new();
    events.push(metadata("process_name", None, query));
    for &lane in &trace.lanes {
        let label = if lane == 0 {
            "lane 0 (coordinator)".to_string()
        } else {
            format!("lane {lane}")
        };
        events.push(metadata("thread_name", Some(lane), &label));
    }

    // Per lane: nesting kinds as stack-emitted B/E, morsels as X.
    let mut lanes: Vec<usize> = trace.spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let mut nested: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.kind != SpanKind::Morsel)
            .collect();
        // Parent before child on ties: earlier start first, then the
        // longer (enclosing) span first, then the more enclosing *kind*
        // (query < plan < scope < build < step < morsel) when a coarse
        // clock hands parent and child identical endpoints.
        nested.sort_by(|a, b| {
            a.start_nanos
                .cmp(&b.start_nanos)
                .then(b.end_nanos().cmp(&a.end_nanos()))
                .then(a.kind.cmp(&b.kind))
        });
        let mut stack: Vec<&Span> = Vec::new();
        for span in nested {
            while let Some(top) = stack.last() {
                if top.end_nanos() <= span.start_nanos {
                    let name = name_for(top.kind, top.op, names);
                    events.push(event("E", lane, &name, top));
                    stack.pop();
                } else {
                    break;
                }
            }
            let name = name_for(span.kind, span.op, names);
            events.push(event("B", lane, &name, span));
            stack.push(span);
        }
        while let Some(top) = stack.pop() {
            let name = name_for(top.kind, top.op, names);
            events.push(event("E", lane, &name, top));
        }
        for span in trace
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.kind == SpanKind::Morsel)
        {
            let name = name_for(span.kind, span.op, names);
            events.push(event("X", lane, &name, span));
        }
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "meta",
            Json::obj([
                ("dropped_spans", Json::Int(trace.dropped as i64)),
                (
                    "lanes",
                    Json::Arr(trace.lanes.iter().map(|&l| Json::Int(l as i64)).collect()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanSink, SpanTrace};

    fn no_names(_: SpanKind, _: OpId) -> Option<String> {
        None
    }

    fn span(kind: SpanKind, op: OpId, lane: usize, start: u64, dur: u64) -> Span {
        Span {
            kind,
            op,
            lane,
            start_nanos: start,
            dur_nanos: dur,
        }
    }

    /// Walk traceEvents simulating a per-tid stack; every B must close
    /// with a matching E and nothing may close out of order.
    fn assert_balanced(j: &Json) {
        let Json::Obj(top) = j else {
            panic!("not an object")
        };
        let Json::Arr(events) = &top["traceEvents"] else {
            panic!("no traceEvents")
        };
        let mut stacks: std::collections::BTreeMap<i64, Vec<String>> = Default::default();
        for e in events {
            let Json::Obj(e) = e else {
                panic!("event not an object")
            };
            let ph = match &e["ph"] {
                Json::Str(s) => s.as_str(),
                _ => panic!("ph"),
            };
            let tid = match e.get("tid") {
                Some(Json::Int(t)) => *t,
                _ => -1,
            };
            let name = match &e["name"] {
                Json::Str(s) => s.clone(),
                _ => panic!("name"),
            };
            match ph {
                "B" => stacks.entry(tid).or_default().push(name),
                "E" => {
                    let popped = stacks.entry(tid).or_default().pop();
                    assert_eq!(popped.as_deref(), Some(name.as_str()), "mismatched E");
                }
                "X" | "M" => {}
                other => panic!("unexpected ph {other}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(
                stack.is_empty(),
                "unclosed B events on tid {tid}: {stack:?}"
            );
        }
    }

    #[test]
    fn nested_spans_emit_balanced_b_e_pairs() {
        let trace = SpanTrace {
            spans: vec![
                span(SpanKind::Query, OpId::scope(0), 0, 0, 1000),
                span(SpanKind::Scope, OpId::scope(7), 0, 100, 800),
                span(SpanKind::Step, OpId::step(7, 0), 0, 150, 300),
                span(SpanKind::Step, OpId::step(7, 1), 0, 500, 300),
                span(SpanKind::Morsel, OpId::step(7, 0), 1, 200, 50),
            ],
            lanes: vec![0, 1],
            dropped: 0,
        };
        let j = chrome_trace(&trace, "test query", &no_names);
        assert_balanced(&j);
        let text = j.to_string();
        assert!(text.contains("\"displayTimeUnit\""), "{text}");
        assert!(text.contains("\"7/0\""), "{text}");
        assert!(text.contains("\"thread_name\""), "{text}");
        arc_core::json::parse(&text).expect("chrome trace must reparse");
    }

    #[test]
    fn tie_breaking_keeps_parent_outside_child() {
        // Child shares both endpoints with its parent (coarse clock):
        // parent must still open first and close last.
        let trace = SpanTrace {
            spans: vec![
                span(SpanKind::Step, OpId::step(1, 1), 0, 10, 20),
                span(SpanKind::Scope, OpId::scope(1), 0, 10, 20),
            ],
            lanes: vec![0],
            dropped: 0,
        };
        let j = chrome_trace(&trace, "q", &no_names);
        assert_balanced(&j);
        let Json::Obj(top) = &j else { unreachable!() };
        let Json::Arr(events) = &top["traceEvents"] else {
            unreachable!()
        };
        let phases: Vec<(String, String)> = events
            .iter()
            .filter_map(|e| {
                let Json::Obj(e) = e else { return None };
                match (&e["ph"], &e["name"]) {
                    (Json::Str(ph), Json::Str(n)) if ph != "M" => Some((ph.clone(), n.clone())),
                    _ => None,
                }
            })
            .collect();
        assert_eq!(
            phases,
            vec![
                ("B".into(), "scope".into()),
                ("B".into(), "step".into()),
                ("E".into(), "step".into()),
                ("E".into(), "scope".into()),
            ]
        );
    }

    #[test]
    fn names_closure_overrides_defaults() {
        let sink = SpanSink::with_lanes(1);
        let t = sink.start(0).unwrap();
        sink.complete(0, SpanKind::Step, OpId::step(3, 0), t);
        let j = chrome_trace(&sink.finish(), "q", &|kind, op| {
            (kind == SpanKind::Step && op == OpId::step(3, 0)).then(|| "scan R as r".to_string())
        });
        let text = j.to_string();
        assert!(text.contains("\"scan R as r\""), "{text}");
    }

    #[test]
    fn op_keys_match_profile_rendering() {
        assert_eq!(op_key(OpId::scope(42)), "42/-");
        assert_eq!(op_key(OpId::step(42, 3)), "42/3");
        assert_eq!(op_key(OpId::semi(42)), "42/semi");
    }

    #[test]
    fn dropped_count_is_surfaced() {
        let trace = SpanTrace {
            spans: vec![],
            lanes: vec![],
            dropped: 17,
        };
        let text = chrome_trace(&trace, "q", &no_names).to_string();
        assert!(text.contains("\"dropped_spans\":17"), "{text}");
    }
}
