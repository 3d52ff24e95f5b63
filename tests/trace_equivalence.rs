//! Workspace invariant 14: **recording observes, never changes.**
//!
//! An evaluation's one record — timed under `ARC_TRACE`
//! ([`Engine::with_spans`]), read back as a profile
//! ([`Engine::profile_collection`] / `explain_analyze_*`) or as a
//! timeline ([`Engine::span_trace_collection`]) — only counts rows the
//! evaluator was producing anyway and reads clocks around work it was
//! doing anyway. No way of recording may change a single result row,
//! under any thread count, nor on the paths a starved budget takes — and
//! the counts themselves must be *exact*: the same profile whether
//! gathered sequentially or merged from four workers, with row counts
//! matching a hand-counted oracle on the skewed range-join fixture. (The
//! exported timeline's row-identity leg and goldens are in
//! `span_equivalence.rs`.)

use arc_analysis::{random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::conventions::Conventions;
use arc_engine::Engine;
use arc_tests::fixtures as fx;
use arc_trace::OpId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 14: trace on (`with_spans(true)`, a timed record nobody
    /// reads) and a profile, timed or not, return the rows an unrecorded
    /// evaluation does, across every thread count × {unbounded, every
    /// build denied}. The timeline's leg is `spans_on_off_row_identical`
    /// in `span_equivalence.rs`.
    #[test]
    fn trace_on_off_row_identical(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in proptest::prelude::any::<bool>(),
    ) {
        let spec = big_spec(with_nulls);
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(4799));
        let catalog = random_catalog(&spec, &mut rng);
        for threads in [1usize, 4] {
            for budget in [0usize, 1] {
                let engine = |record: bool| {
                    Engine::new(&catalog, Conventions::sql())
                        .with_threads(threads)
                        .with_mem_budget(budget)
                        .with_spans(record)
                };
                let plain = engine(false).eval_collection(&q).unwrap();
                let recorded = [
                    ("with_spans(true)", engine(true).eval_collection(&q).unwrap()),
                    ("profile", engine(false).profile_collection(&q).unwrap().0),
                    ("timed profile", engine(true).profile_collection(&q).unwrap().0),
                ];
                for (how, rows) in recorded {
                    prop_assert_eq!(
                        &plain.rows, &rows.rows,
                        "{} at threads {} budget {}", how, threads, budget
                    );
                }
            }
        }
    }
}

/// The acceptance oracle: on the ANALYZEd skewed fixture the plan is
/// `index-range R (7 rows) → hash-probe S (8 matches each)`, so every
/// actual is hand-countable — and the profile must report exactly those
/// numbers, whether gathered sequentially or merged from four workers,
/// with or without the trace knob (which only adds wall time).
#[test]
fn profile_actuals_match_hand_count() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = fx::eq1_range(n);

    let profile_with = |threads: usize, trace: bool| {
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_spans(trace);
        let (rows, profile) = engine.profile_collection(&q).unwrap();
        // 7 R rows survive `r.A > n-8`, each matching 8 S rows.
        assert_eq!(rows.len(), 56, "threads {threads}: result bag drifted");
        profile
    };
    let sequential = profile_with(1, false);

    // Exactly one scope: scope-level entry plus one entry per step.
    let scope_ids: Vec<usize> = sequential
        .ops
        .keys()
        .filter(|id| id.step.is_none())
        .map(|id| id.scope)
        .collect();
    assert_eq!(scope_ids.len(), 1, "one quantifier scope: {sequential:?}");
    let s = scope_ids[0];

    let scope = sequential.op(OpId::scope(s)).unwrap();
    assert_eq!(scope.calls, 1, "top-level scope enumerated once");
    assert_eq!(scope.rows_out, 56, "leaf survivors = result rows");

    // Step 0, index-range over R: one access-path start, 7 candidates
    // out of the binary search, no residual filter drops any.
    let step0 = sequential.op(OpId::step(s, 0)).unwrap();
    assert_eq!(
        (step0.calls, step0.rows_in, step0.rows_out),
        (1, 7, 7),
        "index-range actuals"
    );

    // Step 1, hash-probe into S: entered once per surviving R row, each
    // probe yielding its full 8-row bucket.
    let step1 = sequential.op(OpId::step(s, 1)).unwrap();
    assert_eq!(
        (step1.calls, step1.rows_in, step1.rows_out),
        (7, 56, 56),
        "hash-probe actuals"
    );

    // Counts are count-identical under worker merge and under the trace
    // knob; only nanos may differ, so compare them field by field.
    for (threads, trace) in [(4usize, false), (1, true), (4, true)] {
        let p = profile_with(threads, trace);
        for (id, expect) in &sequential.ops {
            let got = p
                .op(*id)
                .unwrap_or_else(|| panic!("threads {threads} trace {trace}: missing op {id:?}"));
            assert_eq!(
                (got.calls, got.rows_in, got.rows_out),
                (expect.calls, expect.rows_in, expect.rows_out),
                "threads {threads} trace {trace}: op {id:?} drifted"
            );
        }
        assert_eq!(
            p.ops.len(),
            sequential.ops.len(),
            "threads {threads} trace {trace}: extra operators appeared"
        );
    }

    // Trace off means no clock reads anywhere in the profile.
    assert!(
        sequential.ops.values().all(|op| op.nanos == 0),
        "trace off must not read clocks: {sequential:?}"
    );
    assert!(sequential.workers.iter().all(|w| w.busy_nanos == 0));
}

/// A primary-key join whose probe is fed a batch of outer rows counts
/// what the row probe counted: on `Sal(empl, sal)` filtered to its 100
/// top salaries, probing `Emp`, which holds only the even employees, the
/// probe step has one call per surviving `Sal` row (100) and one actual
/// row per match (50) — sequentially or merged from four workers, with
/// or without the trace knob — and `EXPLAIN ANALYZE` renders those.
#[test]
fn a_batched_probe_counts_calls_per_outer_row_and_act_per_match() {
    let emp = arc_engine::Relation::from_rows(
        "Emp",
        &["empl", "dept"],
        (0..500i64)
            .map(|i| vec![(2 * i).into(), (i % 7).into()])
            .collect(),
    );
    let sal = arc_engine::Relation::from_rows(
        "Sal",
        &["empl", "sal"],
        (0..1000i64).map(|i| vec![i.into(), i.into()]).collect(),
    );
    let mut catalog = arc_engine::Catalog::new().with(emp).with(sal);
    catalog.analyze();
    let q = fx::q(
        "{Q(E, S) | ∃s ∈ Sal, e ∈ Emp [Q.E = e.empl ∧ Q.S = s.sal ∧ e.empl = s.empl ∧ s.sal > 899]}",
    );
    for (threads, trace) in [(1usize, false), (4, false), (1, true), (4, true)] {
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_spans(trace);
        let (rows, profile) = engine.profile_collection(&q).unwrap();
        assert_eq!(rows.len(), 50, "threads {threads} trace {trace}");
        let scope = profile
            .ops
            .keys()
            .find(|id| id.step.is_none())
            .unwrap()
            .scope;
        let op = |i| {
            let op = profile.op(OpId::step(scope, i)).unwrap();
            (op.calls, op.rows_in, op.rows_out)
        };
        let at = format!("threads {threads} trace {trace}");
        assert_eq!(op(0), (1, 100, 100), "{at}: the filtered scan of Sal");
        assert_eq!(op(1), (100, 50, 50), "{at}: the probe of Emp");
        let analyzed = engine.explain_analyze_collection(&q).unwrap();
        let probe = analyzed
            .lines()
            .find(|l| l.contains("hash-probe on [e.empl = s.empl] Emp as e"))
            .unwrap_or_else(|| panic!("{at}: no probe line:\n{analyzed}"));
        let words: Vec<&str> = probe.split_whitespace().collect();
        assert!(
            words.contains(&"act=50") && words.contains(&"calls=100"),
            "{at}: {probe}"
        );
    }
}

/// `EXPLAIN ANALYZE` joins the profile back onto the rendered plan:
/// per-step `act=… (est=…, q=…)` annotations, and wall time once the
/// trace knob enables clock reads.
#[test]
fn explain_analyze_renders_actuals() {
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let q = fx::eq1_range(n);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);

    let analyzed = engine.explain_analyze_collection(&q).unwrap();
    // Step 0: 7 actual rows against an est of 7 (the histogram nails the
    // range); step 1: 56 rows over 7 probes = 8 per call against est 8.
    assert!(
        analyzed.contains("index-range on [A..] R as r act=7 (est=7, q=1.0) calls=1"),
        "index-range actuals missing:\n{analyzed}"
    );
    assert!(
        analyzed.contains("hash-probe on [r.B = s.B] S as s act=56 (est=8, q=1.0) calls=7"),
        "hash-probe actuals missing:\n{analyzed}"
    );
    assert!(
        analyzed.contains("act=56 calls=1"),
        "scope-level actuals missing:\n{analyzed}"
    );
    // Plain EXPLAIN renders no actuals — the annotations come from the
    // profile, not the renderer.
    let plain = engine.explain_collection(&q).unwrap();
    assert!(!plain.contains("act="), "EXPLAIN must not run the query");

    // With the trace knob on, operators additionally report wall time.
    let timed = engine
        .with_spans(true)
        .explain_analyze_collection(&q)
        .unwrap();
    assert!(
        timed.contains("time="),
        "trace on must render time:\n{timed}"
    );
}

/// The `EXPLAIN ANALYZE` misestimates footer: exact estimates render the
/// one-line all-clear (golden-pinned on the ANALYZEd skewed range-join,
/// where the histogram nails both steps), while a heavy-key join whose
/// per-probe average overshoots the actual bucket renders the offender —
/// worst first, joinable to its inline `q=` annotation.
#[test]
fn explain_analyze_footer_reports_misestimates() {
    // All-clear: the ANALYZEd skew fixture estimates exactly.
    let n = 1024;
    let mut catalog = fx::stats_skew_catalog(n);
    catalog.analyze();
    let analyzed = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .explain_analyze_collection(&fx::eq1_range(n))
        .unwrap();
    assert!(
        analyzed.ends_with("misestimates: none (worst q=1.0)\n"),
        "exact estimates must render the all-clear footer:\n{analyzed}"
    );
    // Plain EXPLAIN carries no footer (no actuals — nothing ran).
    let plain = Engine::new(&catalog, Conventions::sql())
        .explain_collection(&fx::eq1_range(n))
        .unwrap();
    assert!(
        !plain.contains("misestimates"),
        "EXPLAIN must not run:\n{plain}"
    );

    // Heavy-key skew: R's 4 rows all probe S's key 7, whose bucket holds
    // 24 rows — but the per-probe estimate is the average bucket
    // (1024 rows / 2 distinct keys = 512), a q-error of 21.3.
    let mut r = arc_engine::Relation::new("R", &["A", "B"]);
    for i in 0..4i64 {
        r.push(vec![i.into(), 7i64.into()]);
    }
    let mut s = arc_engine::Relation::new("S", &["B", "C"]);
    for i in 0..1024i64 {
        s.push(vec![(if i < 1000 { 0i64 } else { 7 }).into(), i.into()]);
    }
    // Analyzed explicitly: the estimate below is a statistics-driven one,
    // and `R` is too small to be analyzed at registration.
    let mut skewed = arc_engine::Catalog::new().with(r).with(s);
    skewed.analyze();
    let analyzed = Engine::new(&skewed, Conventions::sql())
        .with_threads(1)
        .explain_analyze_collection(&fx::q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B]}"))
        .unwrap();
    assert!(
        analyzed.contains("misestimates (top 3 by q-error):"),
        "footer header missing:\n{analyzed}"
    );
    assert!(
        analyzed.contains("  hash-probe on [r.B = s.B] S as s: q=21.3 (est=512, act=96, calls=4)"),
        "offending probe missing from footer:\n{analyzed}"
    );
    assert!(
        !analyzed.contains("scan R as r: q="),
        "exact steps (q=1.0) must stay out of the footer:\n{analyzed}"
    );
}

/// Semi-join probe actuals live on their own pseudo-operator (they
/// share the scope id with the build pipeline): `rows_in` = built keys,
/// `calls` = probes, `rows_out` = hits — all hand-countable on the
/// skewed semi-join fixture.
#[test]
fn semijoin_profile_counts_probes_and_hits() {
    let (n, k) = (256, 64);
    let catalog = fx::semijoin_catalog(n, k);
    let q = fx::exists_corr(k);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let (rows, profile) = engine.profile_collection(&q).unwrap();
    // Keys with s.C > 59: S rows 60..63, i.e. B ∈ {12, 13, 14, 15};
    // 16 outer rows per key survive.
    assert_eq!(rows.len(), 64);

    let semi: Vec<_> = profile
        .ops
        .iter()
        .filter(|(id, _)| id.step == Some(usize::MAX))
        .collect();
    assert_eq!(semi.len(), 1, "one decorrelated scope: {profile:?}");
    let stats = semi[0].1;
    assert_eq!(stats.rows_in, 4, "built key set holds 4 keys");
    assert_eq!(stats.calls, 256, "one probe per outer row");
    assert_eq!(stats.rows_out, 64, "probe hits");

    // …and the renderer prints them on the semi-join operator line.
    let analyzed = engine.explain_analyze_collection(&q).unwrap();
    assert!(
        analyzed.contains("probes=256 hits=64"),
        "semi-join actuals missing:\n{analyzed}"
    );
}

/// The morsel executor attributes work to worker lanes: a parallel run
/// records at least one lane and as many morsels as the partition
/// produced, while the counts stay identical to the sequential profile
/// (checked exhaustively above — here we pin the lane accounting).
#[test]
fn parallel_profile_records_worker_lanes() {
    // The partition golden's fixture, scaled past several column chunks
    // (morsels are chunk-aligned): the row-emitting scan partitions its
    // 4000-row axis across 4 workers.
    let catalog = fx::grouped_catalog(4000, 17);
    let q = fx::scan_r();
    let engine = Engine::new(&catalog, Conventions::set()).with_threads(4);
    let (rows, profile) = engine.profile_collection(&q).unwrap();
    assert_eq!(rows.len(), 4000, "one row out per row of R");
    assert!(
        !profile.workers.is_empty(),
        "parallel run must record lanes: {profile:?}"
    );
    let morsels: u64 = profile.workers.iter().map(|w| w.morsels).sum();
    assert!(morsels >= 2, "partitioned scan runs multiple morsels");

    // A sequential engine records no lane accounting at all.
    let (_, seq) = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .profile_collection(&q)
        .unwrap();
    assert!(seq
        .workers
        .iter()
        .all(|w| w.morsels == 0 && w.busy_nanos == 0));
}

/// A grouping scope folds sequentially at any thread count: eq3 over the
/// same 4000 rows at four threads records no worker lane and no morsel,
/// and its rows — in order — are the one-thread rows.
#[test]
fn a_grouping_scope_folds_on_the_evaluating_thread() {
    let catalog = fx::grouped_catalog(4000, 17);
    let q = fx::eq3();
    let profile = |threads| {
        let engine = Engine::new(&catalog, Conventions::set()).with_threads(threads);
        engine.profile_collection(&q).unwrap()
    };
    let (sequential, _) = profile(1);
    let (rows, parallel) = profile(4);
    assert_eq!(rows.rows, sequential.rows);
    assert_eq!(rows.len(), 17, "one group per key");
    assert!(
        parallel
            .workers
            .iter()
            .all(|w| w.morsels == 0 && w.busy_nanos == 0),
        "a grouping scope must not scatter: {parallel:?}"
    );
}

/// Fixpoint programs profile across iterations: a recursive definition's
/// scope is enumerated once per round, so `calls` exceeds 1 and the
/// program-level `EXPLAIN ANALYZE` renders actuals inside the fixpoint.
#[test]
fn explain_analyze_program_sums_fixpoint_iterations() {
    let catalog = arc_analysis::chain_catalog(32, 5, 2);
    let engine = Engine::new(&catalog, Conventions::set()).with_threads(1);
    let (out, profile) = engine.profile_program(&fx::eq16()).unwrap();
    assert!(!out.defined["A"].is_empty());
    assert!(
        profile.ops.values().any(|op| op.calls > 1),
        "fixpoint re-enumeration must accumulate calls: {profile:?}"
    );
    let analyzed = engine.explain_analyze_program(&fx::eq16()).unwrap();
    assert!(
        analyzed.contains("act="),
        "program analyze missing actuals:\n{analyzed}"
    );
}

/// The unified registry observes the hot seams: one evaluation of the
/// semi-join fixture bumps the build/probe/hit counters by at least the
/// hand-counted amounts (deltas are `>=` — counters are process-global
/// and other tests run concurrently).
#[test]
fn registry_counters_observe_hot_seams() {
    let (n, k) = (256, 64);
    let catalog = fx::semijoin_catalog(n, k);
    let q = fx::exists_corr(k);
    let before = arc_trace::snapshot();
    let out = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(out.len(), 64);
    let delta = arc_trace::snapshot().diff(&before);
    assert!(delta.counter("engine.semijoin.builds") >= 1);
    assert!(delta.counter("engine.semijoin.probes") >= 256);
    assert!(delta.counter("engine.semijoin.hits") >= 64);
    assert!(delta.counter("plan.runs") >= 1, "planner runs registered");
    // The snapshot serializes through arc-core's JSON.
    arc_core::json::parse(&delta.to_json().to_string()).expect("snapshot JSON reparses");
}

/// Every decorrelated build runs the step pipeline it was planned as, so
/// `EXPLAIN ANALYZE` shows actuals on its `build (once)` subtree: the
/// index-range scan of `S` yields its 4 rows, once.
#[test]
fn explain_analyze_records_every_decorrelated_build() {
    let catalog = fx::semijoin_catalog(400, 64);
    // Pin the ambient knobs: `ARC_TRACE` adds timings, a budget a note.
    let analyzed = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .with_spans(false)
        .with_mem_budget(0)
        .explain_analyze_collection(&fx::exists_corr(64))
        .unwrap();
    let expected = "\
project Q(A)
  scope act=400 calls=1
    1: scan R as r act=400 (est=400, q=1.0) calls=1
    emit: Q.A = r.A
    [semi-join ∃]
      semi-join on [s.B = r.B] act=4 (est=4, q=1.0) probes=400 hits=100
        build (once)
          scope act=4 calls=1
            1: index-range on [C..] S as s act=4 (est=4, q=1.0) calls=1
misestimates: none (worst q=1.0)
";
    assert_eq!(
        analyzed, expected,
        "semi-join build actuals drifted:\n{analyzed}"
    );
}
