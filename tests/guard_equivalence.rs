//! Workspace invariant 16 — **the guard is invisible**: for any program
//! and instance, an engine running under `arc-guard` governance with
//! limits it never hits (a generous deadline, a generous memory budget)
//! returns exactly the rows — same order, same multiplicities — of the
//! unguarded engine, across:
//!
//! * `ARC_THREADS` 1 and 4 (the guard is checked per morsel claim),
//! * fixpoint programs (the guard spans every stratum and round).
//!
//! A *tight* budget must degrade, not diverge: with every build
//! admission denied, the streaming/nested fallbacks still produce
//! row-identical output — only hard exhaustion (fixpoint growth)
//! aborts, with a structured error.
//!
//! Cancellation is **all-or-nothing**: a query tripped at any seam
//! either completes with the full answer or returns
//! `EvalError::Cancelled` — never a partial relation — and the same
//! engine answers the next query correctly.
//!
//! The fault-injection matrix drives an injected panic or budget denial
//! through every registered seam and asserts the structured outcome:
//! never a process panic, caches evicted-or-recovered, and the same
//! catalog answering the next query.

use arc_analysis::{chain_catalog, random_catalog, random_conjunctive_query, InstanceSpec};
use arc_core::ast::Collection;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{seam, Catalog, Engine, EvalError, FaultKind, FaultPlan, Relation};
use arc_tests::fixtures as fx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Limits the workload never reaches: the guard runs every check and
/// charges every seam, but nothing trips.
const GENEROUS_DEADLINE: Duration = Duration::from_secs(3600);
const GENEROUS_BUDGET: usize = 1 << 30;

/// Evaluate `q` unguarded (the reference, itself checked against the
/// oracle) and under never-hit limits, at every thread count, asserting
/// row-identical output.
fn assert_guard_invisible(catalog: &Catalog, q: &Collection, conv: Conventions) {
    let reference = Engine::new(catalog, conv)
        .with_threads(1)
        .eval_collection(q)
        .unwrap();
    arc_tests::assert_oracle(catalog, conv, q, &reference);
    for threads in [1usize, 4] {
        let base = || Engine::new(catalog, conv).with_threads(threads);
        let at = format!("threads {threads} {conv:?}");
        let off = base().eval_collection(q).unwrap();
        let on = base()
            .with_timeout(GENEROUS_DEADLINE)
            .with_mem_budget(GENEROUS_BUDGET)
            .eval_collection(q)
            .unwrap();
        assert_eq!(off.rows, on.rows, "guard drift: {at}");
        assert_eq!(reference.rows, on.rows, "thread drift: {at}");
        // A budget too small for ANY build: every admission is denied,
        // every optimized build degrades to its streaming / nested /
        // row-at-a-time fallback — and the rows must not move.
        let degraded = base().with_mem_budget(1).eval_collection(q).unwrap();
        assert_eq!(reference.rows, degraded.rows, "degradation drift: {at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 16 over generated conjunctive queries (joins plus
    /// constant selections), with and without NULLs, both conventions,
    /// on `ANALYZE`d catalogs.
    #[test]
    fn guarded_identical_on_conjunctive_queries(
        seed in 0u64..300,
        joins in 1usize..4,
        sels in 0usize..3,
        with_nulls in any::<bool>(),
    ) {
        let spec = if with_nulls {
            InstanceSpec::rs_with_nulls(0.25)
        } else {
            InstanceSpec::rs()
        };
        let q = random_conjunctive_query(&spec, joins, sels, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(9973));
        let mut catalog = random_catalog(&spec, &mut rng);
        catalog.analyze();
        for conv in [Conventions::sql(), Conventions::set()] {
            assert_guard_invisible(&catalog, &q, conv);
        }
    }

    /// Cancellation is all-or-nothing: trip `Cancel` at a random visit
    /// of a random seam — the result is either the complete answer (the
    /// fault never fired: that visit count was never reached) or
    /// `EvalError::Cancelled`; never a partial relation. Either way the
    /// same catalog answers the next, unguarded query identically —
    /// the caches survive the aborted run.
    #[test]
    fn cancellation_is_all_or_nothing(
        seam_ix in 0usize..8,
        at in 1u64..48,
        seed in 0u64..200,
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let spec = InstanceSpec::rs();
        let q = random_conjunctive_query(&spec, 2, 1, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let mut catalog = random_catalog(&spec, &mut rng);
        catalog.analyze();
        let reference = Engine::new(&catalog, Conventions::sql())
            .with_threads(1)
            .eval_collection(&q)
            .unwrap();
        let tripped = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_fault(FaultPlan {
                seam: seam::ALL[seam_ix],
                at,
                kind: FaultKind::Cancel,
            })
            .eval_collection(&q);
        match tripped {
            Ok(rows) => prop_assert_eq!(&rows.rows, &reference.rows, "partial result"),
            Err(EvalError::Cancelled) => {}
            Err(other) => prop_assert!(false, "expected Cancelled, got {other:?}"),
        }
        let rerun = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .eval_collection(&q)
            .unwrap();
        prop_assert_eq!(&rerun.rows, &reference.rows, "post-cancel rerun drifted");
    }
}

/// Fixpoint programs under the guard: generous limits are invisible, and
/// the recursive growth charge is the one hard (non-degrading) budget
/// consumer — a tiny budget aborts with `MemoryBudget`, structured.
#[test]
fn fixpoint_guarded_identical_and_tight_budget_aborts_structured() {
    let catalog = chain_catalog(24, 0, 3);
    let p = fx::eq16();
    let reference = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    let guarded = Engine::new(&catalog, Conventions::set())
        .with_timeout(GENEROUS_DEADLINE)
        .with_mem_budget(GENEROUS_BUDGET)
        .eval_program(&p)
        .unwrap();
    assert_eq!(
        reference.defined["A"].rows, guarded.defined["A"].rows,
        "guarded fixpoint drifted"
    );
    let starved = Engine::new(&catalog, Conventions::set())
        .with_mem_budget(1)
        .eval_program(&p);
    assert!(
        matches!(starved, Err(EvalError::MemoryBudget)),
        "starved fixpoint must abort structured, got {starved:?}"
    );
    // The same catalog still answers after the aborted fixpoint.
    let after = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    assert!(!after.defined["A"].rows.is_empty());
}

/// A pre-cancelled handle trips before any work; `reset` re-arms the
/// same engine, which then answers correctly — the documented
/// cancel-from-another-thread lifecycle, compressed.
#[test]
fn cancel_handle_trips_and_resets_the_same_engine() {
    let catalog = fx::rs_catalog(256);
    let engine = Engine::new(&catalog, Conventions::sql()).with_threads(1);
    let handle = engine.cancel_handle();
    handle.cancel();
    assert!(handle.is_cancelled());
    let cancelled = engine.eval_collection(&fx::eq1());
    assert!(
        matches!(cancelled, Err(EvalError::Cancelled)),
        "pre-cancelled engine must return Cancelled, got {cancelled:?}"
    );
    handle.reset();
    let rows = engine.eval_collection(&fx::eq1()).unwrap();
    let reference = Engine::new(&catalog, Conventions::sql())
        .with_threads(1)
        .eval_collection(&fx::eq1())
        .unwrap();
    assert_eq!(rows.rows, reference.rows, "post-reset rerun drifted");
}

/// A zero deadline trips within one morsel of work on a scan big enough
/// to cross the cooperative check cadence.
#[test]
fn zero_deadline_surfaces_as_deadline_exceeded() {
    let catalog = fx::rs_catalog(4096);
    for threads in [1usize, 4] {
        let out = Engine::new(&catalog, Conventions::sql())
            .with_threads(threads)
            .with_timeout(Duration::ZERO)
            .eval_collection(&fx::eq1());
        assert!(
            matches!(out, Err(EvalError::DeadlineExceeded)),
            "threads {threads}: expected DeadlineExceeded, got {out:?}"
        );
    }
}

/// A gathered emission checks the guard at least once per `CHUNK_ROWS`
/// rows: over 131 072 gathered rows, a cancellation injected at the
/// first, a middle and the 128th enumerate visit — the last chunk —
/// still trips, and so does a deadline that has already passed (a zero
/// timeout, so the case does not depend on how fast the scan runs).
/// Either way the query returns the trip's error, never the rows
/// gathered so far.
#[test]
fn a_trip_inside_a_gathered_emission_returns_no_rows() {
    const ROWS: usize = 131_072;
    let catalog = fx::filter_catalog(ROWS);
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B >= 0]}");
    let chunks = (ROWS / arc_core::column::CHUNK_ROWS) as u64;
    for threads in [1usize, 4] {
        let engine = || Engine::new(&catalog, Conventions::sql()).with_threads(threads);
        assert_eq!(engine().eval_collection(&q).unwrap().len(), ROWS);
        for at in [1, chunks / 2, chunks] {
            let out = engine()
                .with_fault(FaultPlan {
                    seam: seam::ENUMERATE,
                    at,
                    kind: FaultKind::Cancel,
                })
                .eval_collection(&q);
            assert!(
                matches!(out, Err(EvalError::Cancelled)),
                "threads {threads}, cancel at visit {at}: {:?}",
                out.map(|rel| rel.len())
            );
        }
        let out = engine().with_timeout(Duration::ZERO).eval_collection(&q);
        assert!(
            matches!(out, Err(EvalError::DeadlineExceeded)),
            "threads {threads}: {:?}",
            out.map(|rel| rel.len())
        );
    }
}

/// A grouping scope whose members fold from the batch checks the guard
/// once per `CHUNK_ROWS` members, as a gathered emission does: over
/// 65 536 members in 256 groups, a cancellation at the first, a middle
/// and the last chunk's enumerate visit trips, and so does a deadline
/// that has already passed (a zero timeout, so the case does not hang
/// on how fast the fold runs) — each returns the trip's error, never
/// the groups folded so far.
#[test]
fn a_trip_inside_a_folded_grouping_returns_no_rows() {
    const ROWS: i64 = 65_536;
    let g = Relation::from_rows(
        "G",
        &["A", "B"],
        (0..ROWS)
            .map(|i| vec![Value::Int(i % 256), Value::Int(i)])
            .collect(),
    );
    let catalog = Catalog::new().with(g);
    let q = fx::q("{Q(A, sm) | ∃g ∈ G, γ g.A [Q.A = g.A ∧ Q.sm = sum(g.B)]}");
    let chunks = ROWS as u64 / arc_core::column::CHUNK_ROWS as u64;
    for threads in [1usize, 4] {
        let engine = || Engine::new(&catalog, Conventions::sql()).with_threads(threads);
        assert_eq!(engine().eval_collection(&q).unwrap().len(), 256);
        for at in [1, chunks / 2, chunks] {
            let out = engine()
                .with_fault(FaultPlan {
                    seam: seam::ENUMERATE,
                    at,
                    kind: FaultKind::Cancel,
                })
                .eval_collection(&q);
            assert!(
                matches!(out, Err(EvalError::Cancelled)),
                "threads {threads}, cancel at visit {at}: {:?}",
                out.map(|rel| rel.len())
            );
        }
        let out = engine().with_timeout(Duration::ZERO).eval_collection(&q);
        assert!(
            matches!(out, Err(EvalError::DeadlineExceeded)),
            "threads {threads}: {:?}",
            out.map(|rel| rel.len())
        );
    }
}

/// A last-step hash probe fed a batch of outer rows checks the guard
/// once per piece of outer rows and once per bucket, where the row probe
/// checked once per outer row: over Fig 6a's shape — 8 192 employees,
/// each with one salary, folded into 64 departments (a grouping scope
/// folds sequentially at any thread count) — a cancellation at the
/// first, a middle and the last enumerate visit trips, and so does a
/// zero timeout; each returns the trip's error, never the groups folded
/// so far. One visit past the last finds nothing to cancel.
#[test]
fn a_trip_inside_a_batched_probe_returns_no_rows() {
    const ROWS: i64 = 8_192;
    let emp = Relation::from_rows(
        "Emp",
        &["empl", "dept"],
        (0..ROWS)
            .map(|i| vec![Value::Int(i), Value::Int(i % 64)])
            .collect(),
    );
    let sal = Relation::from_rows(
        "Sal",
        &["empl", "sal"],
        (0..ROWS)
            .map(|i| vec![Value::Int(ROWS - 1 - i), Value::Int(i)])
            .collect(),
    );
    let catalog = Catalog::new().with(emp).with(sal);
    let q = fx::q(
        "{Q(d, s) | ∃e ∈ Emp, s ∈ Sal, γ e.dept \
         [Q.d = e.dept ∧ Q.s = sum(s.sal) ∧ e.empl = s.empl]}",
    );
    // One visit per piece of 128 outer rows, one per one-row bucket.
    let last = ROWS as u64 / 128 + ROWS as u64;
    for threads in [1usize, 4] {
        let engine = || Engine::new(&catalog, Conventions::sql()).with_threads(threads);
        let plan = engine().explain_collection(&q).unwrap();
        assert!(plan.contains("hash-probe on ["), "{plan}");
        assert_eq!(engine().eval_collection(&q).unwrap().len(), 64);
        let cancel_at = |at| {
            engine()
                .with_fault(FaultPlan {
                    seam: seam::ENUMERATE,
                    at,
                    kind: FaultKind::Cancel,
                })
                .eval_collection(&q)
        };
        for at in [1, last / 2, last] {
            let out = cancel_at(at);
            assert!(
                matches!(out, Err(EvalError::Cancelled)),
                "threads {threads}, cancel at visit {at}: {:?}",
                out.map(|rel| rel.len())
            );
        }
        let past = cancel_at(last + 1).map(|rel| rel.len());
        assert!(matches!(past, Ok(64)), "threads {threads}: {past:?}");
        let out = engine().with_timeout(Duration::ZERO).eval_collection(&q);
        assert!(
            matches!(out, Err(EvalError::DeadlineExceeded)),
            "threads {threads}: {:?}",
            out.map(|rel| rel.len())
        );
    }
}

/// One canonical workload per registered seam: a (catalog, query) pair
/// known to visit the seam on its very first opportunity, so
/// `FaultPlan { at: 1 }` deterministically fires.
struct SeamCase {
    seam: &'static str,
    /// Build the catalog; queries are built per-run.
    catalog: fn() -> Catalog,
    query: fn() -> Collection,
    threads: usize,
    /// What an injected budget denial does at this seam: admission
    /// seams degrade (complete, row-identical); check seams trip
    /// (`EvalError::MemoryBudget`).
    budget_degrades: bool,
}

fn skew_analyzed() -> Catalog {
    let mut c = fx::stats_skew_catalog(4096);
    c.analyze();
    c
}

fn semijoin_analyzed() -> Catalog {
    let mut c = fx::semijoin_catalog(64, 64);
    c.analyze();
    c
}

/// `R(A)` over 0..256 with a NULL every 50th row; `S(A)` the multiples
/// of 3 below 192.
fn not_in_catalog() -> Catalog {
    let mut r = Relation::new("R", &["A"]);
    for i in 0..256i64 {
        r.push(vec![if i % 50 == 7 {
            Value::Null
        } else {
            Value::Int(i)
        }]);
    }
    let mut s = Relation::new("S", &["A"]);
    for i in 0..64i64 {
        s.push(vec![Value::Int(3 * i)]);
    }
    Catalog::new().with(r).with(s)
}

fn seam_cases() -> Vec<SeamCase> {
    vec![
        SeamCase {
            seam: seam::ENUMERATE,
            catalog: || fx::rs_catalog(256),
            query: fx::eq1,
            threads: 1,
            budget_degrades: false,
        },
        SeamCase {
            // The partition axis needs an un-probed, row-emitting scan at
            // step 0: a single-relation scan scatters into morsels.
            seam: seam::MORSEL,
            catalog: || fx::grouped_catalog(1024, 17),
            query: fx::scan_r,
            threads: 4,
            budget_degrades: false,
        },
        SeamCase {
            seam: seam::HASH_BUILD,
            catalog: || fx::rs_catalog(256),
            query: fx::eq1,
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            seam: seam::SEMI_BUILD,
            catalog: semijoin_analyzed,
            query: || fx::exists_corr(64),
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            // The guarded `NOT IN` (Eq 17): a null-aware anti-join build.
            seam: seam::SEMI_BUILD,
            catalog: not_in_catalog,
            query: fx::eq17,
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            // A constant filter too wide for an index range (90 % of the
            // rows): the scan's selection vector comes from the columnar
            // kernels, which read the chunk view.
            seam: seam::CHUNK_BUILD,
            catalog: || fx::filter_catalog(4096),
            query: || fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B > 100]}"),
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            // Eq 19 over a 256-row R scanned last: its filter runs on a
            // per-entry kernel, whose column chunks are the query's first
            // chunk build — a denial runs that entry row by row.
            seam: seam::CHUNK_BUILD,
            catalog: || fx::arith_catalog(256, 24),
            query: fx::eq19,
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            // A wide single scan: the head is gathered straight from the
            // selection vector, so every enumerate visit — the first
            // included — falls inside that batch.
            seam: seam::ENUMERATE,
            catalog: || fx::filter_catalog(4096),
            query: || fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B > 100]}"),
            threads: 1,
            budget_degrades: false,
        },
        SeamCase {
            seam: seam::ORDERED_BUILD,
            catalog: skew_analyzed,
            query: || fx::eq1_range(4096),
            threads: 1,
            budget_degrades: true,
        },
        SeamCase {
            seam: seam::SELECTION_BUILD,
            catalog: skew_analyzed,
            query: || fx::eq1_range(4096),
            threads: 1,
            budget_degrades: true,
        },
    ]
}

/// The fault-injection matrix (tentpole acceptance): for every
/// registered seam, an injected **panic** surfaces as
/// `EvalError::WorkerPanic` and an injected **budget denial** either
/// degrades to the row-identical fallback (admission seams) or
/// surfaces as `EvalError::MemoryBudget` (check seams) — never a
/// process panic — and the same catalog (shared relation caches)
/// answers the next, unguarded query correctly.
#[test]
fn fault_matrix_structured_errors_and_survival() {
    for case in seam_cases() {
        let catalog = (case.catalog)();
        let q = (case.query)();
        let engine = || Engine::new(&catalog, Conventions::sql()).with_threads(case.threads);
        let reference = engine().eval_collection(&q).unwrap();

        let panicked = engine()
            .with_fault(FaultPlan {
                seam: case.seam,
                at: 1,
                kind: FaultKind::Panic,
            })
            .eval_collection(&q);
        match panicked {
            Err(EvalError::WorkerPanic(msg)) => assert!(
                msg.contains(case.seam),
                "seam {}: panic message should name the seam, got `{msg}`",
                case.seam
            ),
            other => panic!(
                "seam {}: injected panic must surface as WorkerPanic, got {other:?}",
                case.seam
            ),
        }

        let denied = engine()
            .with_fault(FaultPlan {
                seam: case.seam,
                at: 1,
                kind: FaultKind::Budget,
            })
            .eval_collection(&q);
        if case.budget_degrades {
            let rows = denied.unwrap_or_else(|e| {
                panic!(
                    "seam {}: a denied build must degrade, not fail: {e:?}",
                    case.seam
                )
            });
            assert_eq!(
                rows.rows, reference.rows,
                "seam {}: degraded fallback drifted",
                case.seam
            );
        } else {
            assert!(
                matches!(denied, Err(EvalError::MemoryBudget)),
                "seam {}: a budget trip at a check seam must surface structured, got {denied:?}",
                case.seam
            );
        }

        // Survival: the same catalog — shared relation-level caches —
        // answers unguarded, identically.
        let after = engine().eval_collection(&q).unwrap();
        assert_eq!(
            after.rows, reference.rows,
            "seam {}: post-fault rerun drifted",
            case.seam
        );
    }

    // The fixpoint-round seam needs a recursive program. Round 1 faults
    // before any delta is derived; rounds 2 and 3 fault with the
    // persistent totals and seen sets already partly filled. Either way
    // the error is structured and an unfaulted engine over the same
    // catalog then answers row-identically, order included.
    let catalog = chain_catalog(24, 0, 3);
    let p = fx::eq16();
    let reference = Engine::new(&catalog, Conventions::set())
        .eval_program(&p)
        .unwrap();
    for at in 1..=3 {
        for kind in [FaultKind::Panic, FaultKind::Budget] {
            let out = Engine::new(&catalog, Conventions::set())
                .with_fault(FaultPlan {
                    seam: seam::FIXPOINT_ROUND,
                    at,
                    kind,
                })
                .eval_program(&p);
            let structured = match kind {
                FaultKind::Panic => matches!(out, Err(EvalError::WorkerPanic(_))),
                _ => matches!(out, Err(EvalError::MemoryBudget)),
            };
            assert!(
                structured,
                "fixpoint-round:{at} {kind:?}: expected a structured error, got {out:?}"
            );
            let after = Engine::new(&catalog, Conventions::set())
                .eval_program(&p)
                .unwrap();
            assert_eq!(
                after.defined["A"].rows, reference.defined["A"].rows,
                "fixpoint-round:{at} {kind:?}: post-fault rerun drifted"
            );
        }
    }
}

/// The fault-injection smoke: every registered seam × every battery
/// entry (the per-seam cases above and the recursive Eq 16 program) ×
/// {panic, budget}, at the first visit — plus `fixpoint-round` at the
/// third, where the recursive totals and seen sets are partly filled.
/// Every outcome is complete or a structured guard error — never a
/// process panic — and a second run of the same plan gives the identical
/// outcome (injection is deterministic).
#[test]
fn fault_smoke_every_seam_every_battery_entry() {
    let mut visits: Vec<(&'static str, u64)> = seam::ALL.iter().map(|&s| (s, 1)).collect();
    visits.push((seam::FIXPOINT_ROUND, 3));
    let batteries: Vec<(String, Catalog, Collection, usize)> = seam_cases()
        .into_iter()
        .enumerate()
        .map(|(i, case)| {
            let name = format!("#{i} ({})", case.seam);
            (name, (case.catalog)(), (case.query)(), case.threads)
        })
        .collect();
    let chain = chain_catalog(24, 0, 3);
    let eq16 = fx::eq16();
    for (at_seam, at) in visits {
        for kind in [FaultKind::Panic, FaultKind::Budget] {
            let plan = FaultPlan {
                seam: at_seam,
                at,
                kind,
            };
            let smoke = |battery: &str, run: &dyn Fn() -> Result<Vec<Vec<Value>>, EvalError>| {
                let first = run();
                assert!(
                    matches!(
                        first,
                        Ok(_)
                            | Err(EvalError::WorkerPanic(_))
                            | Err(EvalError::MemoryBudget)
                            | Err(EvalError::Cancelled)
                            | Err(EvalError::DeadlineExceeded)
                    ),
                    "battery {battery} under {at_seam}:{at}:{kind:?}: a non-guard outcome {first:?}"
                );
                assert_eq!(
                    first,
                    run(),
                    "battery {battery} under {at_seam}:{at}:{kind:?}: injection must be deterministic"
                );
            };
            for (name, catalog, q, threads) in &batteries {
                smoke(name, &|| {
                    Engine::new(catalog, Conventions::sql())
                        .with_threads(*threads)
                        .with_fault(plan)
                        .eval_collection(q)
                        .map(|rel| rel.rows.to_vecs())
                });
            }
            smoke("eq16", &|| {
                Engine::new(&chain, Conventions::set())
                    .with_fault(plan)
                    .eval_program(&eq16)
                    .map(|out| out.defined["A"].rows.to_vecs())
            });
        }
    }
}
