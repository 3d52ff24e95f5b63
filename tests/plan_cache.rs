//! Plan-cache effectiveness: correlated scopes must plan O(1) times per
//! query (not once per outer row), and repeated queries must skip
//! planning entirely through the global cache.
//!
//! And the cache is **transparent**: it keys a scope by its shape — every
//! constant a typed hole plus the selectivity buckets of the statistics
//! answers that depend on it — and costing sees the same buckets, so the
//! plan it serves for a statement is the plan a cold planner run returns
//! for it, whichever constant planned the shape first.
//!
//! And `EXPLAIN` is a view of what runs: it plans each scope through the
//! engine's own compile path, so after an evaluation it is served the
//! evaluation's plans and runs the planner zero times — with statistics
//! and without. Recursive definitions are the exception: their members
//! plan once per round against the growing totals, and `EXPLAIN ANALYZE`
//! plans them once more against the final ones.
//!
//! The assertions read `arc_plan::planner_runs()`, a process-global
//! counter, and empty the process-global cache — so this file
//! deliberately contains a **single** `#[test]` (test binaries run one at
//! a time under `cargo test`, and a single test keeps the counter deltas
//! attributable).

#[path = "adhoc_shapes.rs"]
mod adhoc_shapes;

use adhoc_shapes::{all_spellings, Shape, Statement, ID_RANGE};
use arc_core::binder::Binder;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;

#[test]
fn plan_cache_eliminates_per_outer_row_planning() {
    per_outer_row_planning_is_eliminated();
    constants_share_plans_and_the_shared_plan_is_the_cold_one();
    explain_after_evaluation_plans_nothing();
}

/// Every spelling of every shape, on the analyzed catalog and again after
/// `clear_stats()`: a collection's `EXPLAIN` after its evaluation, and a
/// non-recursive program's `EXPLAIN ANALYZE` after its evaluation, run
/// the planner zero times.
fn explain_after_evaluation_plans_nothing() {
    let mut catalog = adhoc_shapes::catalog();
    let schemas = catalog.schema_map();
    let binder = Binder::with_schemas(schemas.clone());
    let spellings = all_spellings(&Value::Int(1), &Value::Int(480_000));
    for analyzed in [true, false] {
        if !analyzed {
            catalog.clear_stats();
        }
        let (mut collections, mut programs) = (0, 0);
        for shape in &spellings {
            let engine = engine(&catalog, shape);
            adhoc_shapes::run(shape, &schemas, &binder, &engine)
                .unwrap_or_else(|e| panic!("{}: {e}", shape.name()));
            let before = arc_plan::planner_runs();
            match adhoc_shapes::parse(shape, &schemas).unwrap() {
                Statement::Collection(c) => {
                    engine.explain_collection(&c).unwrap();
                    collections += 1;
                }
                Statement::Program(_) if shape.template == "reach_rec" => continue,
                Statement::Program(p) => {
                    engine.explain_analyze_program(&p).unwrap();
                    programs += 1;
                }
            }
            assert_eq!(
                arc_plan::planner_runs() - before,
                0,
                "analyzed: {analyzed}: EXPLAIN of {} planned what evaluation did not",
                shape.name()
            );
        }
        assert!(
            collections >= 20 && programs >= 5,
            "{collections} / {programs}"
        );
    }
}

/// The constants of the sweep: thresholds across (and beyond) the id
/// range, negatives, the extreme integers, and one constant of every
/// other class.
fn sweep() -> Vec<Value> {
    let mut ks: Vec<Value> = (0..60)
        .map(|i| Value::Int(i * ID_RANGE / 59 + (i * 7919) % 1013))
        .collect();
    ks.extend([-1, -960_000, 2 * ID_RANGE, i64::MIN, i64::MAX].map(Value::Int));
    ks.extend([
        Value::Float(480_000.5),
        Value::str("abc"),
        Value::Null,
        Value::Bool(true),
    ]);
    ks
}

/// The engine that plans, sequential so the counters stay on this
/// thread's work.
fn engine<'c>(catalog: &'c Catalog, shape: &Shape) -> Engine<'c> {
    Engine::new(catalog, shape.conventions()).with_threads(1)
}

fn constants_share_plans_and_the_shared_plan_is_the_cold_one() {
    let mut catalog = adhoc_shapes::catalog();
    let schemas = catalog.schema_map();
    let binder = Binder::with_schemas(schemas.clone());
    let ks = sweep();
    assert!(ks.len() >= 64);
    // Every statement of the sweep, with `c` moving too.
    let statements: Vec<Shape> = ks
        .iter()
        .enumerate()
        .flat_map(|(i, k)| all_spellings(&Value::Int(i as i64 % 4), k))
        .collect();
    let run = |catalog: &Catalog, shape: &Shape| {
        adhoc_shapes::run(shape, &schemas, &binder, &engine(catalog, shape))
            .unwrap_or_else(|e| panic!("{}: {e}: {}", shape.name(), shape.text))
    };

    // (i) One planner run per (shape, bucket vector): the sweep plans far
    // fewer scopes than it runs statements, and a second pass — which
    // meets no new shape and no new bucket — plans nothing.
    arc_plan::cache::global_clear();
    let before = arc_plan::planner_runs();
    let first: Vec<_> = statements.iter().map(|s| run(&catalog, s)).collect();
    let planned = arc_plan::planner_runs() - before;
    assert!(
        (planned as usize) < statements.len() / 2,
        "{planned} planner runs for {} statements",
        statements.len()
    );
    let before = arc_plan::planner_runs();
    for (shape, rows) in statements.iter().zip(&first) {
        assert_eq!(run(&catalog, shape).rows, rows.rows, "{}", shape.text);
    }
    assert_eq!(
        arc_plan::planner_runs() - before,
        0,
        "a repeated sweep meets only cached (shape, bucket vector) keys"
    );

    // (iv) Whatever a cached plan consumed — probe keys, vectorized
    // prefixes, index-range bounds — is re-derived from the statement's
    // own constants: no evaluation above failed, and every result is the
    // oracle's.
    let mut index_ranges = 0;
    for (shape, rows) in statements.iter().zip(&first) {
        let expect = adhoc_shapes::oracle(shape, &schemas, &catalog);
        assert!(
            arc_tests::agrees(shape.conventions(), rows, &expect),
            "{}",
            shape.text
        );
        let stmt = adhoc_shapes::parse(shape, &schemas).unwrap();
        index_ranges += usize::from(
            adhoc_shapes::explain(&stmt, &engine(&catalog, shape)).contains("index-range"),
        );
    }
    assert!(index_ranges > 0, "the sweep reaches index-range plans");

    // (ii) EXPLAIN goes through the same cache. Cold — the cache emptied
    // before every statement — it shows what the planner makes of this
    // statement alone; warm, what the cache serves, mostly planned for
    // another constant. They are the same text, estimates included.
    let explain = |shape: &Shape| {
        let stmt = adhoc_shapes::parse(shape, &schemas).unwrap();
        adhoc_shapes::explain(&stmt, &engine(&catalog, shape))
    };
    let cold: Vec<String> = statements
        .iter()
        .map(|shape| {
            arc_plan::cache::global_clear();
            explain(shape)
        })
        .collect();
    arc_plan::cache::global_clear();
    let before = arc_plan::planner_runs();
    for (shape, cold) in statements.iter().zip(&cold) {
        assert_eq!(&explain(shape), cold, "{}", shape.text);
    }
    let warm_runs = arc_plan::planner_runs() - before;
    assert!(
        (warm_runs as usize) < statements.len() / 2,
        "the warm pass shares plans: {warm_runs} planner runs"
    );

    // (v) And EXPLAIN is a function of the plan key: of two neighbouring
    // thresholds, the second plans nothing after the first exactly when
    // both fall in one bucket vector — and then the two texts are the
    // same byte for byte, estimates included, once each threshold is read
    // as a hole. Thresholds below 1 000 are skipped, so a hole never
    // swallows an estimate.
    let mut same_bucket = 0;
    for pair in ks.windows(2) {
        let (Value::Int(a), Value::Int(b)) = (&pair[0], &pair[1]) else {
            continue;
        };
        if a.unsigned_abs() < 1000 || b.unsigned_abs() < 1000 {
            continue;
        }
        let (c, ka, kb) = (Value::Int(1), Value::Int(*a), Value::Int(*b));
        for (sa, sb) in all_spellings(&c, &ka).iter().zip(&all_spellings(&c, &kb)) {
            arc_plan::cache::global_clear();
            let first = hole(&explain(sa), *a);
            let before = arc_plan::planner_runs();
            let second = hole(&explain(sb), *b);
            if arc_plan::planner_runs() == before {
                same_bucket += 1;
                assert_eq!(first, second, "{} vs {}", sa.text, sb.text);
            }
        }
    }
    assert!(same_bucket > 100, "{same_bucket} same-bucket pairs");

    // (iii) What is not the same shape is a miss: a constant of another
    // class, another row count, another statistics epoch.
    let probe = |catalog: &Catalog, k: Value| {
        let shape = &adhoc_shapes::spellings("eq1_join", &Value::Int(1), &k)[0];
        let before = arc_plan::planner_runs();
        run(catalog, shape);
        arc_plan::planner_runs() - before
    };
    assert!(probe(&catalog, Value::Int(500_000)) <= 1);
    assert_eq!(probe(&catalog, Value::Int(500_001)), 0, "same bucket");
    assert!(
        probe(&catalog, Value::Float(500_001.0)) > 0,
        "another class"
    );
    assert_eq!(probe(&catalog, Value::Float(500_002.0)), 0);
    catalog.analyze(); // the epoch moves
    assert!(probe(&catalog, Value::Int(500_001)) > 0, "another epoch");
    assert_eq!(probe(&catalog, Value::Int(500_000)), 0);
    // Another row count, and nothing else: relations too small to be
    // analyzed at registration, so both catalogs sit at the same epoch
    // and the planner has no fraction to bucket.
    let tiny = |r_rows: i64| {
        let rows = |n: i64| {
            (0..n)
                .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
                .collect()
        };
        Catalog::new()
            .with(Relation::from_rows("R", &["A", "B"], rows(r_rows)))
            .with(Relation::from_rows("S", &["B", "C"], rows(8)))
    };
    let (eight, nine) = (tiny(8), tiny(9));
    assert_eq!(eight.stats_epoch(), nine.stats_epoch());
    assert!(probe(&eight, Value::Int(3)) > 0, "other sources");
    assert_eq!(probe(&eight, Value::Int(5)), 0);
    assert!(probe(&nine, Value::Int(3)) > 0, "another row count");
    assert_eq!(probe(&nine, Value::Int(5)), 0);
}

/// `text` with every whole-number occurrence of `k` read as `$k`.
fn hole(text: &str, k: i64) -> String {
    let k = k.to_string();
    let number = |c: Option<char>| c.is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '.');
    let mut out = String::with_capacity(text.len());
    let mut rest = 0;
    for (at, _) in text.match_indices(&k) {
        let end = at + k.len();
        if number(text[..at].chars().next_back()) || number(text[end..].chars().next()) {
            continue;
        }
        out.push_str(&text[rest..at]);
        out.push_str("$k");
        rest = end;
    }
    out.push_str(&text[rest..]);
    out
}

fn per_outer_row_planning_is_eliminated() {
    // Eq (7): the FOI pattern — for each of the 400 outer rows, the
    // correlated nested grouped scope re-enters the planner with an
    // identical signature.
    let outer_rows = 400;
    let mut catalog = fx::grouped_catalog(outer_rows, 8);
    let q = fx::eq7();

    // Phase 1: first evaluation. The per-evaluation compiled-scope cache
    // must collapse the per-outer-row re-planning of the correlated scope
    // to one run per distinct (scope, layout); the whole query has a handful of
    // scopes, so the delta must be orders of magnitude below the outer
    // cardinality.
    let before = arc_plan::planner_runs();
    let first = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let first_eval_runs = arc_plan::planner_runs() - before;
    assert!(!first.is_empty(), "fixture produces rows");
    assert!(
        first_eval_runs < 10,
        "correlated scope replanned per outer row: {first_eval_runs} planner runs \
         for {outer_rows} outer rows"
    );

    // Phase 2: a repeated query (fresh engine, fresh Ctx, same AST) hits
    // the global cache for every scope — zero planner runs.
    let before = arc_plan::planner_runs();
    let second = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    let second_eval_runs = arc_plan::planner_runs() - before;
    assert_eq!(
        second_eval_runs, 0,
        "repeated query must skip planning entirely (global plan cache)"
    );
    assert_eq!(first.rows, second.rows);

    // Phase 3: a re-parsed structurally-identical query (different AST
    // addresses, same program hash) also skips planning.
    let reparsed = fx::eq7();
    let before = arc_plan::planner_runs();
    let third = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&reparsed)
        .unwrap();
    assert_eq!(
        arc_plan::planner_runs() - before,
        0,
        "program hash must be structural, not address-based"
    );
    assert_eq!(first.rows, third.rows);

    // Phase 4: changed statistics (different row count) change the key —
    // the planner runs again rather than serving a stale-cardinality
    // plan.
    let catalog2 = fx::grouped_catalog(outer_rows + 1, 8);
    let before = arc_plan::planner_runs();
    Engine::new(&catalog2, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert!(
        arc_plan::planner_runs() - before > 0,
        "changed cardinalities must re-plan"
    );

    // Phase 5: ANALYZE bumps the statistics epoch, which both cache
    // levels fold into their keys — the very same query on the very same
    // catalog must re-plan (the new statistics could shape a different
    // plan), then cache again.
    catalog.analyze();
    let before = arc_plan::planner_runs();
    let fifth = Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert!(
        arc_plan::planner_runs() - before > 0,
        "a post-ANALYZE evaluation must re-plan, not serve the stale-epoch plan"
    );
    assert!(first.bag_eq(&fifth), "statistics must not change results");
    let before = arc_plan::planner_runs();
    Engine::new(&catalog, Conventions::set())
        .with_threads(1)
        .eval_collection(&q)
        .unwrap();
    assert_eq!(
        arc_plan::planner_runs() - before,
        0,
        "the re-planned epoch must itself be cached"
    );
}
