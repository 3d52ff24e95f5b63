//! The exported timeline of an evaluation's record
//! ([`Engine::span_trace_collection`] / [`Engine::span_trace_program`]).
//! Recording it never changes a row — the timeline's leg of workspace
//! invariant 14, whose other legs are in `trace_equivalence.rs` — and the
//! exported Chrome Trace Event Format JSON is held to a structural golden
//! on the skewed range-join. It must reparse, every
//! `B` event must close with a matching `E` on its tid (Perfetto rejects
//! unbalanced tracks), a 4-thread partitioned run must name exactly 4
//! lane tracks and scatter morsel events across more than one of them,
//! and span names/op keys must join back to the `EXPLAIN ANALYZE`
//! rendering of the same plan.

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_core::json::Json;
use arc_engine::Engine;
use arc_tests::fixtures as fx;
use arc_trace::OpId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Scaled-up instances so the morsel path actually engages (the default
/// `InstanceSpec::rs` stays under the partition gate).
fn big_spec(with_nulls: bool) -> InstanceSpec {
    let mut spec = if with_nulls {
        InstanceSpec::rs_with_nulls(0.2)
    } else {
        InstanceSpec::rs()
    };
    for r in &mut spec.relations {
        r.rows = 32..96;
        r.domain = 0..12;
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 14, timeline leg: exporting spans returns the rows an
    /// unrecorded evaluation does, with the record timed or not, across
    /// every thread count × {unbounded, every build denied}.
    #[test]
    fn spans_on_off_row_identical(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in proptest::prelude::any::<bool>(),
    ) {
        let spec = big_spec(with_nulls);
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(6113));
        let catalog = random_catalog(&spec, &mut rng);
        for threads in [1usize, 4] {
            for budget in [0usize, 1] {
                let engine = |spans: bool| {
                    Engine::new(&catalog, Conventions::sql())
                        .with_threads(threads)
                        .with_mem_budget(budget)
                        .with_spans(spans)
                };
                let off = engine(false).eval_collection(&q).unwrap();
                for spans in [false, true] {
                    let (on, _) = engine(spans).span_trace_collection(&q).unwrap();
                    prop_assert_eq!(
                        &off.rows, &on.rows,
                        "spans {} threads {} budget {}", spans, threads, budget
                    );
                }
            }
        }
    }
}

/// Walk `traceEvents` simulating a per-tid stack: every `B` must close
/// with a matching `E` in order, nothing may remain open, and `X`/`M`
/// events pass through. Returns per-event `(ph, tid, name, op)` rows for
/// further assertions.
fn walk_events(j: &Json) -> Vec<(String, i64, String, Option<String>)> {
    let Json::Obj(top) = j else {
        panic!("trace is not an object")
    };
    let Json::Arr(events) = &top["traceEvents"] else {
        panic!("no traceEvents array")
    };
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut rows = Vec::new();
    for e in events {
        let Json::Obj(e) = e else {
            panic!("event is not an object")
        };
        let ph = match &e["ph"] {
            Json::Str(s) => s.clone(),
            _ => panic!("missing ph"),
        };
        let tid = match e.get("tid") {
            Some(Json::Int(t)) => *t,
            _ => -1,
        };
        let name = match &e["name"] {
            Json::Str(s) => s.clone(),
            _ => panic!("missing name"),
        };
        let op = e.get("args").and_then(|a| match a {
            Json::Obj(a) => match a.get("op") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            },
            _ => None,
        });
        match ph.as_str() {
            "B" => stacks.entry(tid).or_default().push(name.clone()),
            "E" => {
                let popped = stacks.entry(tid).or_default().pop();
                assert_eq!(
                    popped.as_deref(),
                    Some(name.as_str()),
                    "mismatched E on tid {tid}"
                );
            }
            "X" | "M" => {}
            other => panic!("unexpected ph {other}"),
        }
        rows.push((ph, tid, name, op));
    }
    for (tid, stack) in stacks {
        assert!(
            stack.is_empty(),
            "unclosed B events on tid {tid}: {stack:?}"
        );
    }
    rows
}

/// The skewed range-join widened to keep 32 rows of `R`: the narrow
/// `eq1_range` bound estimates at 7 rows — *below* `PARALLEL_MIN_ROWS`,
/// so the planner correctly keeps it sequential — while 32 keeps the
/// filtered `R` scan both the cheapest first step *and* above the
/// partition gate, so the scope partitions `R` across worker lanes.
fn wide_range(n: usize) -> arc_core::ast::Collection {
    fx::q(&format!(
        "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ r.A > {}]}}",
        n - 33
    ))
}

/// Structural golden: a 4-thread partitioned run of the skewed
/// range-join exports a valid, balanced Chrome trace with exactly 4
/// named lane tracks, morsel events attributed to worker lanes, and
/// names/op keys joinable to the plan.
#[test]
fn span_trace_golden_partitioned_range_join() {
    let n = 4096;
    // The partitioned plan is statistics-driven: the filtered `R` index
    // range must price as the cheapest first step, which makes it the
    // partition axis.
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = wide_range(n);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(4);
    let (rows, trace) = engine.span_trace_collection(&q).unwrap();
    // The last 32 R rows survive, each matching its 8-row S bucket.
    assert_eq!(rows.len(), 32 * 8, "surviving R rows × 8 S matches");

    // Well-formed JSON end to end: serialize and reparse.
    let text = trace.to_string();
    let reparsed = arc_core::json::parse(&text).expect("chrome trace must reparse");
    let events = walk_events(&reparsed);

    // Exactly `threads` lane tracks are named (broadcast guarantees all
    // four workers initialize, and init touches the lane).
    let lane_tracks = events
        .iter()
        .filter(|(ph, _, name, _)| ph == "M" && name == "thread_name")
        .count();
    assert_eq!(lane_tracks, 4, "one named track per lane:\n{text}");
    assert!(
        text.contains("lane 0 (coordinator)"),
        "coordinator track named:\n{text}"
    );

    // Morsel events are recorded per claimed morsel on the claiming
    // worker's lane. (Which lane claims how many is scheduler-dependent —
    // on a single-CPU host one worker may drain the whole queue — so the
    // assertion is on counts and lane validity, not on the distribution.)
    let morsels: Vec<i64> = events
        .iter()
        .filter(|(ph, _, name, _)| ph == "X" && name.starts_with("morsel"))
        .map(|(_, tid, _, _)| *tid)
        .collect();
    assert!(
        morsels.len() >= 4,
        "chunk-aligned partition yields one morsel event each: {morsels:?}\n{text}"
    );
    assert!(
        morsels.iter().all(|t| (0..4).contains(t)),
        "morsel events attribute to worker lanes: {morsels:?}"
    );

    // The enclosing spans exist: one query span, a scope span, and plan
    // names joinable back to the EXPLAIN rendering (`source as var`).
    let names: BTreeSet<&str> = events.iter().map(|(_, _, n, _)| n.as_str()).collect();
    assert!(names.contains("query"), "query span missing: {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("scope [")),
        "plan-named scope span missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.contains(" as r")) && names.iter().any(|n| n.contains(" as s")),
        "step spans must carry EXPLAIN step names: {names:?}"
    );

    // Op keys join to profile/EXPLAIN ANALYZE operator ids: the same
    // scope id carries the scope-level key and both step keys.
    let ops: BTreeSet<&str> = events
        .iter()
        .filter_map(|(_, _, _, op)| op.as_deref())
        .collect();
    // (`0/-` is the query pseudo-op; the scope's key carries the real
    // AST-address scope id.)
    let scope_key = ops
        .iter()
        .find(|o| o.ends_with("/-") && **o != "0/-")
        .unwrap_or_else(|| panic!("scope-level op key missing: {ops:?}"));
    let scope_id = scope_key.trim_end_matches("/-").to_string();
    assert!(
        ops.contains(format!("{scope_id}/0").as_str())
            && ops.contains(format!("{scope_id}/1").as_str()),
        "step op keys must share the scope id {scope_id}: {ops:?}"
    );

    // ...and the trace reports its bookkeeping meta.
    let Json::Obj(top) = &reparsed else {
        unreachable!()
    };
    let Json::Obj(meta) = &top["meta"] else {
        panic!("meta missing")
    };
    assert!(meta.contains_key("dropped_spans"));
    let Json::Arr(lanes) = &meta["lanes"] else {
        panic!("lanes missing")
    };
    assert_eq!(lanes.len(), 4, "meta.lanes mirrors the named tracks");
}

/// Program traces nest everything under a single query span and stay
/// balanced across fixpoint iterations.
#[test]
fn span_trace_program_is_balanced() {
    let catalog = arc_analysis::chain_catalog(32, 5, 2);
    let engine = Engine::new(&catalog, Conventions::set()).with_threads(1);
    let (out, trace) = engine.span_trace_program(&fx::eq16()).unwrap();
    assert!(!out.defined["A"].is_empty());
    let text = trace.to_string();
    let reparsed = arc_core::json::parse(&text).expect("program trace must reparse");
    let events = walk_events(&reparsed);
    let queries = events
        .iter()
        .filter(|(ph, _, name, _)| ph == "B" && name == "query")
        .count();
    assert_eq!(queries, 1, "one enclosing query span:\n{text}");
    assert!(
        events.iter().any(|(ph, _, _, _)| ph == "B"),
        "program trace records spans"
    );
}

/// The sequential engine records the same scopes the parallel one does
/// (modulo morsels): span export works without partitioning too, and a
/// spans-off engine exports nothing.
#[test]
fn span_trace_sequential_records_scopes() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = fx::eq1_range(n);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let (rows, trace) = engine.span_trace_collection(&q).unwrap();
    assert_eq!(rows.len(), 56);
    let events = walk_events(&trace);
    assert!(
        events
            .iter()
            .any(|(ph, _, name, _)| ph == "B" && name.starts_with("scope [")),
        "sequential run records scope spans"
    );

    // Recording off: evaluation allocates no record at all, and the knob
    // round-trips through the builder. (The default is env-driven, so
    // the default-off assertion only holds when CI isn't re-running the
    // suite under `ARC_TRACE=on`.)
    if std::env::var_os("ARC_TRACE").is_none() {
        let default = Engine::new(&catalog, Conventions::sql());
        assert!(
            !default.options().unwrap().trace,
            "ARC_TRACE defaults to off"
        );
    }
    let off = Engine::new(&catalog, Conventions::sql()).with_spans(false);
    assert!(!off.options().unwrap().trace);
    assert_eq!(off.eval_collection(&q).unwrap().rows, rows.rows);
}

/// Latency quantiles are always on: an evaluation bumps the
/// `engine.query.latency` count, a partitioned evaluation additionally
/// bumps `exec.morsel.latency`, and both surface — with p50/p95/p99
/// lines — in the Prometheus-style `metrics_text()` exposition.
#[test]
fn latency_quantiles_surface_in_metrics_text() {
    let n = 4096;
    // Analyzed explicitly for the same reason as the golden above.
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = wide_range(n);
    let before = arc_trace::snapshot();
    let out = Engine::new(&catalog, Conventions::sql())
        .with_threads(4)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(out.len(), 32 * 8);
    let delta = arc_trace::snapshot().diff(&before);
    let query = delta.hist("engine.query.latency");
    assert!(query.count >= 1, "query latency sampled: {query:?}");
    assert!(
        query.quantile(0.99) >= query.quantile(0.5),
        "quantiles are monotone: {query:?}"
    );
    let morsel = delta.hist("exec.morsel.latency");
    assert!(
        morsel.count >= 2,
        "partitioned run samples per-morsel latency: {morsel:?}"
    );

    let text = arc_trace::metrics_text();
    for metric in ["arc_engine_query_latency", "arc_exec_morsel_latency"] {
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                text.contains(&format!("{metric}{{quantile=\"{q}\"}}")),
                "{metric} p{q} missing from exposition:\n{text}"
            );
        }
        assert!(
            text.contains(&format!("{metric}_count")),
            "{metric} count missing:\n{text}"
        );
    }
}

/// The metric-name lint over the workspace's real vocabulary, not only
/// `arc-trace`'s own test names: a partitioned evaluation, a decorrelated
/// `EXISTS` and an analyzed index-range scan — each timed, since the
/// in-evaluation build histograms register only when timed — register
/// every histogram, and then every registered name must be clean
/// dot-namespaced snake_case, unique across kinds.
#[test]
fn the_workspace_metric_vocabulary_passes_the_name_lint() {
    let n = 4096;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let engine = |threads| {
        Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_spans(true)
    };
    let out = engine(4).eval_collection(&wide_range(n)).unwrap();
    assert_eq!(out.len(), 32 * 8);
    let exists = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.B = r.B]]}");
    assert_eq!(engine(1).eval_collection(&exists).unwrap().len(), n);
    assert_eq!(
        engine(1).eval_collection(&fx::eq1_range(n)).unwrap().len(),
        56
    );

    arc_trace::validate_metric_names().expect("every registered name is clean");
    let snap = arc_trace::snapshot();
    for name in [
        "engine.index.hash.build",
        "engine.index.ordered.build",
        "engine.column.encode",
        "engine.selection.build",
        "engine.semijoin.build",
        "engine.query.latency",
        "exec.morsel.latency",
    ] {
        assert!(
            snap.histograms.contains_key(name),
            "{name} is not a registered histogram"
        );
    }
}

/// `B` (nesting) plus `X` (morsel) events: one per exported span.
fn exported_spans(trace: &Json) -> u64 {
    let events = walk_events(trace);
    events
        .iter()
        .filter(|(ph, ..)| ph == "B" || ph == "X")
        .count() as u64
}

/// Two views of one record agree: on the skewed range-join, the timeline
/// holds one `Step` span per invocation of the hash probe (step 1) —
/// exactly the profile's step-1 `calls`, 7, one per surviving `R` row.
/// And the record rolls its spans up into the registry when it ends:
/// `trace.spans` rises by at least what the trace exported (`>=`: the
/// counters are process-global and other tests run concurrently).
#[test]
fn step_spans_count_the_profiles_step_calls() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = fx::eq1_range(n);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let (_, profile) = engine.profile_collection(&q).unwrap();
    let scope = profile
        .ops
        .keys()
        .find(|id| id.step.is_none())
        .unwrap()
        .scope;
    let calls = profile.op(OpId::step(scope, 1)).unwrap().calls;
    assert_eq!(calls, 7, "one probe per surviving R row");

    let before = arc_trace::snapshot();
    let (_, trace) = engine.span_trace_collection(&q).unwrap();
    let delta = arc_trace::snapshot().diff(&before);
    let key = arc_trace::op_key(OpId::step(scope, 1));
    let step_spans = walk_events(&trace)
        .iter()
        .filter(|(ph, _, _, op)| ph == "B" && op.as_deref() == Some(key.as_str()))
        .count() as u64;
    assert_eq!(step_spans, calls, "step-1 spans vs the profile's calls");
    assert!(delta.counter("trace.spans") >= exported_spans(&trace));
}

/// An overflowing run — a self-join probing once per row of an 8 192-row
/// scan, twice a lane's capacity in step spans — drops spans, says so in
/// the export's `meta.dropped_spans`, and raises `trace.spans.dropped`
/// by at least as many.
#[test]
fn dropped_spans_roll_up_into_the_registry() {
    let catalog = fx::stats_skew_catalog(8192);
    let q = fx::q("{Q(A) | ∃r ∈ R, t ∈ R [Q.A = r.A ∧ r.A = t.A]}");
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let before = arc_trace::snapshot();
    let (rows, trace) = engine.span_trace_collection(&q).unwrap();
    let delta = arc_trace::snapshot().diff(&before);
    assert_eq!(rows.len(), 8192);
    let Json::Obj(top) = &trace else {
        panic!("trace is not an object")
    };
    let Json::Obj(meta) = &top["meta"] else {
        panic!("meta missing")
    };
    let Json::Int(dropped) = meta["dropped_spans"] else {
        panic!("dropped_spans")
    };
    assert!(dropped > 0, "an 8 192-probe run overflows its lane");
    assert!(delta.counter("trace.spans.dropped") >= dropped as u64);
    assert!(delta.counter("trace.spans") >= exported_spans(&trace));
}
