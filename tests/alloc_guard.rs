//! A deterministic guard on what one row costs, counted in allocator
//! calls — the noisy shared host cannot blur a count.
//!
//! Binding a candidate row borrows it, a pushed-down filter indexes the
//! frame stack, a hash probe hashes the probe values where they are: a
//! *rejected* candidate allocates nothing, and an *emitted* row is written
//! into the result's flat row store, so it allocates nothing of its own
//! either — only the store's amortized growth shows. The test's own thread
//! counts (`thread_local`), so other tests running in parallel do not
//! show.

#[path = "adhoc_shapes.rs"]
mod adhoc_shapes;

use arc_core::ast::Collection;
use arc_core::conventions::Conventions;
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation};
use arc_tests::fixtures as fx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds (allocated minus freed), and the highest
    /// that has been since [`live_and_reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// This thread took `grown` more bytes (or gave `-grown` back).
fn resize(grown: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: defers every operation to the system allocator unchanged; the
// counters are `const`-initialized thread-local `Cell`s without a
// destructor, so touching them neither allocates nor runs after teardown.
// The one `unsafe` the workspace allows: a global allocator is unsafe by
// definition.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        resize(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        resize(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The most bytes this thread held at once while `f` ran, beyond what
/// it held when `f` started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (PEAK.with(Cell::get) - start, out)
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The shapes under guard, all meaning Eq 1: the default plan turns Eq 1
/// itself into two hash probes, so every candidate it binds is emitted; a
/// range test on `s.C` leaves a filter after the `B` probe, which binds
/// each of `r`'s matches in `S` and refuses some; and `B` compared by
/// `<=`/`>=` cannot be probed at all, so the plan pairs every `r` with
/// every `C = 0` row of `S` and refuses nearly all of the pairs.
fn queries() -> [(&'static str, Collection); 3] {
    [
        ("probe", fx::eq1()),
        (
            "probe-then-filter",
            fx::q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C < 1]}"),
        ),
        (
            "scan",
            fx::q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B <= s.B ∧ r.B >= s.B ∧ s.C = 0]}"),
        ),
    ]
}

/// Sequential, so the work (and its allocations) stays on this thread.
fn engine(catalog: &Catalog) -> Engine<'_> {
    Engine::new(catalog, Conventions::sql()).with_threads(1)
}

/// Allocator calls made by this thread while evaluating `q`, and the
/// number of rows it returned.
fn allocations(engine: &Engine<'_>, q: &Collection) -> (u64, usize) {
    engine.eval_collection(q).unwrap(); // warm the global plan cache
    let before = ALLOCS.with(Cell::get);
    let rows = engine.eval_collection(q).unwrap();
    let after = ALLOCS.with(Cell::get);
    (after - before, rows.len())
}

/// Rows of `R` in every catalog below: only their *keys* vary, so the
/// planner sees the same cardinalities (and picks the same plan, and
/// builds the same-shaped hash indexes) throughout.
const R_ROWS: i64 = 3_000;

/// What a whole evaluation may allocate: compiling the scope, the hash
/// indexes (grown a few times), the result store's growth. Independent of
/// how many candidates were bound and how many rows were emitted.
const PER_QUERY: u64 = 2_048;

/// Eq 1's catalog. `S(B,C)` is fixed: for every key in `0..64`, two rows
/// with `C = 0` and two with `C = 1`; for every key in `64..128`, four
/// rows with `C = 1`. `R(A,B)` has `emitting` rows over keys `0..64` (each
/// joins two `C = 0` rows), `rejected` rows over keys `64..128` (they
/// bind, probe, match four rows and are filtered out), and the rest over
/// 64 keys `S` does not have.
fn eq1_catalog(key: fn(i64) -> Value, emitting: i64, rejected: i64) -> Catalog {
    let mut s = Relation::new("S", &["B", "C"]);
    for b in 0..128i64 {
        for copy in 0..4i64 {
            let c = if b < 64 { copy % 2 } else { 1 };
            s.push(vec![key(b), Value::Int(c)]);
        }
    }
    let mut r = Relation::new("R", &["A", "B"]);
    for n in 0..R_ROWS {
        let b = if n < emitting {
            n % 64
        } else if n < emitting + rejected {
            64 + n % 64
        } else {
            1_000 + n % 64
        };
        r.push(vec![Value::Int(n), key(b)]);
    }
    Catalog::new().with(r).with(s)
}

fn check(key: fn(i64) -> Value) {
    let base = eq1_catalog(key, 500, 0);
    // 2 000 R rows find four S rows each instead of none, and every one
    // of those candidates is refused.
    let rejecting = eq1_catalog(key, 500, 2_000);
    // 2 000 more R rows emit (two rows each).
    let emitting = eq1_catalog(key, 2_500, 0);
    for (name, q) in queries() {
        let (base_allocs, rows) = allocations(&engine(&base), &q);
        assert_eq!(rows, 1_000, "{name}");
        assert!(
            base_allocs <= PER_QUERY,
            "{name}: {base_allocs} allocator calls for {rows} rows"
        );

        let (allocs, rows) = allocations(&engine(&rejecting), &q);
        assert_eq!(rows, 1_000, "{name}");
        assert!(
            allocs <= PER_QUERY,
            "{name}: rejected candidates must not allocate: {allocs} allocator calls for {rows} rows"
        );

        // No allocation per additional row: only the amortized growth of
        // the result store and the index buckets (3 to 6 calls measured).
        let (allocs, rows) = allocations(&engine(&emitting), &q);
        assert_eq!(rows, 5_000, "{name}");
        let extra = allocs.saturating_sub(base_allocs);
        assert!(
            extra <= 16,
            "{name}: an emitted row allocates nothing of its own: \
             {extra} extra allocator calls for 4 000 rows"
        );
    }
}

#[test]
fn eq1_under_bag_semantics_allocates_per_emitted_row_only() {
    check(Value::Int);
}

#[test]
fn a_string_keyed_join_copies_no_string_per_probe() {
    // The same join on a 40-byte string key: a probe that built a key
    // would copy it (one allocation per probe, two per emitted row).
    check(|b| Value::str(format!("key-{b:036}")));
}

/// Semi-naive evaluation does work in proportion to what it reads and
/// derives: each round streams the rows its delta variants derive through
/// a persistent seen set and appends the new ones to a persistent total.
/// The transitive closure of a chain of `n` edges has `n (n + 1) / 2`
/// pairs, derived over `n` rounds — so doubling the chain quadruples the
/// output (3.98×) and doubles the rounds. Rows live in flat stores, so a
/// round allocates a few blocks (its rule's output, its delta, the
/// stores' growth) and no block per derived row: the allocations follow
/// the rounds (2.10× measured). A driver that allocates per derived row
/// quadruples them; one that re-keys or copies the whole total every
/// round is cubic (≈ 8×).
#[test]
fn semi_naive_allocations_scale_with_the_derived_rows() {
    let program = arc_parser::parse_program(
        "{A(s,t) | ∃p ∈ P [A.s = p.s ∧ A.t = p.t] ∨ \
         ∃p ∈ P, a ∈ A [A.s = p.s ∧ p.t = a.s ∧ A.t = a.t]};",
    )
    .unwrap();
    let allocations = |n: i64| {
        let mut p = Relation::new("P", &["s", "t"]);
        for i in 0..n {
            p.push(vec![Value::Int(i), Value::Int(i + 1)]);
        }
        let catalog = Catalog::new().with(p);
        let engine = Engine::new(&catalog, Conventions::set()).with_threads(1);
        engine.eval_program(&program).unwrap(); // warm the global plan cache
        let before = ALLOCS.with(Cell::get);
        let out = engine.eval_program(&program).unwrap();
        let after = ALLOCS.with(Cell::get);
        assert_eq!(out.defined["A"].len() as i64, n * (n + 1) / 2);
        after - before
    };
    let (small, large) = (allocations(96), allocations(192));
    assert!(
        10 * large <= 23 * small,
        "a chain of 192 runs 2× the rounds of a chain of 96 and may allocate \
         at most 2.3× as often: {large} vs {small} allocator calls ({:.2}×)",
        large as f64 / small as f64
    );
}

/// `T(A,B,C,D)` of `n` integer rows, analyzed: `A = i mod 4`,
/// `B = i mod 8` and `D = i mod 16` take an equality prefix, `C = i` the
/// range bound.
fn scan_catalog(n: i64) -> Catalog {
    let mut t = Relation::new("T", &["A", "B", "C", "D"]);
    for i in 0..n {
        t.push([i % 4, i % 8, i, i % 16].map(Value::Int).to_vec());
    }
    let mut catalog = Catalog::new().with(t);
    catalog.analyze(); // only statistics plan an index range
    catalog
}

/// The last rows of [`scan_catalog`] through an ordered index of `width`
/// columns (the constant equalities extend the bound prefix).
fn index_scan(n: i64, width: usize) -> Collection {
    let prefix = [
        "",
        "t.A = 1 ∧ ",
        "t.A = 1 ∧ t.B = 5 ∧ ",
        "t.A = 1 ∧ t.B = 5 ∧ t.D = 13 ∧ ",
    ][width - 1];
    fx::q(&format!(
        "{{Q(C) | ∃t ∈ T [Q.C = t.C ∧ {prefix}t.C > {}]}}",
        n - 64
    ))
}

/// The default plan with no span buffers to allocate, whatever the CI
/// leg's environment says; sequential, so the work stays on this thread.
fn indexed(catalog: &Catalog) -> Engine<'_> {
    Engine::new(catalog, Conventions::sql())
        .with_spans(false)
        .with_threads(1)
}

/// The first index-range scan of a relation builds its ordered index:
/// one flat gather and one spare set for the sort, whatever the row
/// count — no key vector per indexed row. After that an emitted row is
/// written into the result store, as everywhere else.
#[test]
fn first_index_range_scan_allocates_per_emitted_row_not_per_indexed_row() {
    const N: i64 = 20_000;
    for width in 1..=4 {
        let q = index_scan(N, width);
        indexed(&scan_catalog(N)).eval_collection(&q).unwrap(); // warm the global plan cache
        let catalog = scan_catalog(N);
        let engine = indexed(&catalog);
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("index-range on ["), "width {width}:\n{plan}");
        let before = ALLOCS.with(Cell::get);
        let rows = engine.eval_collection(&q).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(rows.len(), [63, 16, 8, 4][width - 1], "width {width}");
        assert!(
            allocs <= rows.len() as u64 + PER_QUERY,
            "width {width}: {allocs} allocator calls to index {N} rows and emit {}",
            rows.len()
        );
    }
}

/// What `ORDERED_BUILD` reserves is what the build holds: for an `Int`
/// index of `w` columns over `n` rows, the index (`8w + 4` bytes per
/// row), the radix sort's spare set of the same size and its histogram
/// (2 048 four-byte counts) — the reservation never under-counts the
/// measured peak and over-counts it by at most a twentieth. A budget one
/// byte short of the selection vector's reservation (`8n`) plus the
/// index's denies the build.
#[test]
fn ordered_build_reservation_matches_the_measured_peak() {
    const N: i64 = 20_000;
    for width in 1..=4usize {
        let q = index_scan(N, width);
        let reserved = 2 * N as usize * (8 * width + 4) + 4 * 2_048;

        // Measured: the first scan's peak beyond the repeat's (which
        // finds the index cached on the relation). `EXPLAIN` first: it
        // plans through the global plan cache, so neither scan plans —
        // or grows the cache's table, shared with the tests running
        // beside this one — inside its measured region.
        let catalog = scan_catalog(N);
        let engine = indexed(&catalog);
        engine.explain_collection(&q).unwrap();
        let (first, rows) = peak_bytes(|| engine.eval_collection(&q).unwrap());
        let (repeat, again) = peak_bytes(|| engine.eval_collection(&q).unwrap());
        assert_eq!(rows.rows, again.rows);
        let measured = (first - repeat) as usize;
        assert!(
            measured <= reserved && 20 * reserved <= 21 * measured,
            "width {width}: the build held {measured} B at its peak, the guard reserves {reserved} B"
        );

        // Reserved: the build happens exactly from that budget on.
        let selection = 8 * N as usize;
        for (budget, built) in [
            (selection + reserved - 1, false),
            (selection + reserved, true),
        ] {
            let catalog = scan_catalog(N);
            let engine = indexed(&catalog).with_mem_budget(budget);
            engine.explain_collection(&q).unwrap();
            let (peak, out) = peak_bytes(|| engine.eval_collection(&q).unwrap());
            assert_eq!(out.rows, rows.rows, "width {width}: budget {budget}");
            assert_eq!(
                peak as usize >= measured,
                built,
                "width {width}: budget {budget} B, peak {peak} B"
            );
        }
    }
}

/// What `HASH_BUILD` reserves covers what the build holds: over `n`
/// rows keyed on `w` columns, the guard reserves `n × (48 + 24w)` bytes,
/// and the index — its bucket table and flat rows — with the build's own
/// scratch never holds more, whether the rows share 16 keys or all
/// differ. Measured as the evaluation's peak beyond the peak of the same
/// evaluation with the build denied (its streaming probe builds
/// nothing); the printed factor is how much the reservation spares.
#[test]
fn hash_build_reservation_covers_the_measured_peak() {
    const N: i64 = 20_000;
    let cols = ["B", "C", "D"];
    for width in 1..=3usize {
        for keys in [16, N] {
            // `S` holds the `N` indexed rows; the one row of `R` probes a
            // key `S` does not have, so no row comes out of either run —
            // and the denied run probes once, so it never asks again.
            let s = Relation::from_rows(
                "S",
                &["A", "B", "C", "D"],
                (0..N)
                    .map(|i| [i, i % keys, i % keys, i % keys].map(Value::Int).to_vec())
                    .collect(),
            );
            let r = Relation::from_rows("R", &["A", "B", "C", "D"], vec![vec![Value::Int(-1); 4]]);
            let catalog = Catalog::new().with(r).with(s);
            let on: Vec<String> = cols[..width]
                .iter()
                .map(|c| format!("r.{c} = s.{c}"))
                .collect();
            let q = fx::q(&format!(
                "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = s.A ∧ {}]}}",
                on.join(" ∧ ")
            ));
            let peak = |engine: Engine<'_>| {
                let plan = engine.explain_collection(&q).unwrap();
                assert!(plan.contains("hash-probe on ["), "{plan}");
                let (peak, rows) = peak_bytes(|| engine.eval_collection(&q).unwrap());
                assert!(rows.is_empty());
                peak
            };
            let built = peak(indexed(&catalog));
            let denied = peak(arc_tests::deny_first(indexed(&catalog), "hash-build"));
            let measured = (built - denied) as usize;
            let reserved = N as usize * (48 + 24 * width);
            println!(
                "width {width}, {keys} keys: {measured} B at the peak, {reserved} B reserved ({:.2}x)",
                reserved as f64 / measured as f64
            );
            assert!(
                measured <= reserved,
                "width {width}, {keys} keys: the build held {measured} B at its peak, the guard reserves {reserved} B"
            );
        }
    }
}

/// The `semi-build` reservation (`KeySet::build_bytes`, `n × (48 + 24w)`
/// for a build over one relation of `n` rows) is no less than what the
/// key set holds at its peak, whether the rows share 16 keys or all
/// differ, one column or two. Measured as the evaluation's peak beyond
/// the peak of a run of the same shape whose key set stays empty (every
/// key column of `S` `NULL`, so no row's key enters the set): both runs
/// compile the same plan and scan the same rows, and only the set's own
/// growth differs. The printed factor is how much the reservation
/// spares. The set starts at the planner's estimate of its keys, so a
/// build of 16 keys peaks lower than one of 20 000.
#[test]
fn semi_build_reservation_covers_the_measured_peak() {
    const N: i64 = 20_000;
    let cols = ["B", "C"];
    for width in 1..=2usize {
        let mut peaks = Vec::new();
        for keys in [16, N] {
            // `S` holds the `N` rows the key set is built from; the one
            // row of `R` probes a key `S` does not have, so no row comes
            // out of either run.
            let catalog = |key: &dyn Fn(i64) -> Value| {
                let s = Relation::from_rows(
                    "S",
                    &["A", "B", "C"],
                    (0..N)
                        .map(|i| vec![Value::Int(i), key(i), key(i)])
                        .collect(),
                );
                let r = Relation::from_rows("R", &["A", "B", "C"], vec![vec![Value::Int(-1); 3]]);
                Catalog::new().with(r).with(s)
            };
            let on: Vec<String> = cols[..width]
                .iter()
                .map(|c| format!("s.{c} = r.{c}"))
                .collect();
            let q = fx::q(&format!(
                "{{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [{}]]}}",
                on.join(" ∧ ")
            ));
            let peak = |catalog: &Catalog| {
                let engine = indexed(catalog);
                let plan = engine.explain_collection(&q).unwrap();
                assert!(plan.contains("semi-join on ["), "{plan}");
                let (peak, rows) = peak_bytes(|| engine.eval_collection(&q).unwrap());
                assert!(rows.is_empty());
                peak
            };
            let built = peak(&catalog(&|i| Value::Int(i % keys)));
            let empty = peak(&catalog(&|_| Value::Null));
            let measured = built - empty;
            let reserved = N * (48 + 24 * width as i64);
            println!(
                "width {width}, {keys} keys: {measured} B at the peak, {reserved} B reserved ({:.2}x)",
                reserved as f64 / measured.max(1) as f64
            );
            assert!(
                measured > 0 && measured <= reserved,
                "width {width}, {keys} keys: the build held {measured} B at its peak, the guard reserves {reserved} B"
            );
            peaks.push(built);
        }
        assert!(
            peaks[0] < peaks[1],
            "width {width}: the evaluation peaked at {} B with 16 keys, at {} B with {N}",
            peaks[0],
            peaks[1]
        );
    }
}

/// A distinct-key estimate hashes and compares the sampled rows where
/// they hold their keys: one slot table, whatever the number of distinct
/// keys — no key copied per distinct key, strings included.
#[test]
fn a_distinct_estimate_allocates_the_same_whatever_the_number_of_keys() {
    const ROWS: i64 = 4_096;
    let rel = |keys: i64| {
        Relation::from_rows(
            "R",
            &["A", "B"],
            (0..ROWS)
                .map(|i| vec![Value::Int(i % keys), Value::str(format!("s{}", i % keys))])
                .collect(),
        )
    };
    let (few, many) = (rel(16), rel(ROWS));
    let cols: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
    for cols in cols {
        let calls = |rel: &Relation| {
            let before = ALLOCS.with(Cell::get);
            let distinct = rel.distinct_estimate(cols, ROWS as usize);
            (ALLOCS.with(Cell::get) - before, distinct)
        };
        let ((few_calls, few_keys), (many_calls, many_keys)) = (calls(&few), calls(&many));
        assert_eq!((few_keys, many_keys), (16, ROWS as usize), "{cols:?}");
        assert!(
            few_calls <= 1 && many_calls == few_calls,
            "{cols:?}: {few_calls} allocator calls over 16 keys, {many_calls} over {ROWS}"
        );
    }
}

/// Statement text in, rows out — one instance of each `adhoc_text`
/// template in each language that spells it, selective enough (`k` near
/// the top of the id range) that the count is mostly *set-up*: lexing,
/// parsing, lowering, binding, compiling the scopes, building the hash
/// indexes and selections. Per instance: the allocator calls the commit
/// before the typed-hole plan cache made (measured once, there), and the
/// ceiling now — at most half of that, pinned at the count measured once
/// rows moved into flat stores; the ARC and SQL `exists_semi` and
/// `not_exists_anti` shapes at the count measured once their key sets
/// were built by the row pipeline alone.
const TEXT_TO_ROWS: [(&str, u64, u64); 30] = [
    ("eq1_join.arc", 203, 72),
    ("eq1_join.sql", 241, 97),
    ("eq1_join.datalog", 266, 121),
    ("eq3_group.arc", 192, 78),
    ("eq3_group.sql", 209, 94),
    ("eq3_group.datalog", 467, 202),
    ("eq7_foi.arc", 345, 137),
    ("eq7_foi.sql", 359, 168),
    ("eq7_foi.datalog", 434, 196),
    ("eq8_having.arc", 450, 153),
    ("eq8_having.sql", 309, 121),
    ("eq8_having.datalog", 949, 393),
    ("eq17_not_in.arc", 208, 80),
    ("eq17_not_in.sql", 229, 107),
    ("eq19_arith.arc", 165, 66),
    ("eq19_arith.sql", 209, 91),
    ("count_v1.arc", 232, 92),
    ("count_v1.sql", 289, 127),
    ("count_v1.datalog", 393, 182),
    ("count_v2.arc", 421, 147),
    ("count_v2.sql", 458, 193),
    ("count_v3.arc", 625, 215),
    ("count_v3.sql", 690, 279),
    ("exists_semi.arc", 211, 86),
    ("exists_semi.sql", 272, 117),
    ("exists_semi.datalog", 261, 126),
    ("not_exists_anti.arc", 199, 84),
    ("not_exists_anti.sql", 258, 115),
    ("reach_rec.arc", 802, 217),
    ("reach_rec.datalog", 798, 265),
];

#[test]
fn text_to_rows_allocates_at_most_half_of_what_it_did() {
    let catalog = adhoc_shapes::catalog();
    let schemas = catalog.schema_map();
    let binder = arc_core::binder::Binder::with_schemas(schemas.clone());
    let mut measured = Vec::new();
    for template in adhoc_shapes::TEMPLATES {
        // Ids spread below 960 000; department salary sums sit between
        // 300 000 and 320 000; the top of `N` is mostly in `M` too, and
        // the last path of `P` starts below 900 000. Eq 19's smallest
        // answer is the 36 rows its topmost `U` row makes with all of
        // `V x W` — one allocation each under bag semantics, before and
        // now — so its instance selects no row: all set-up.
        let k = match template {
            "eq8_having" => 310_000,
            "eq17_not_in" | "reach_rec" => 800_000,
            _ => 900_000,
        };
        // Every `S.B` meets every `S.C` in `0..4`: only `c = 3` leaves the
        // anti-join an answer.
        let c = if template == "not_exists_anti" { 3 } else { 1 };
        for shape in adhoc_shapes::spellings(template, &Value::Int(c), &Value::Int(k)) {
            // The default plan, whatever the CI leg's environment says;
            // sequential, so the work stays on this thread.
            let engine = Engine::new(&catalog, shape.conventions())
                .with_spans(false)
                .with_mem_budget(0)
                .with_threads(1);
            let run = || adhoc_shapes::run(&shape, &schemas, &binder, &engine).unwrap();
            run(); // warm the global plan cache
            let before = ALLOCS.with(Cell::get);
            let rows = run();
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(rows.is_empty(), template == "eq19_arith", "{}", shape.text);
            measured.push((shape.name(), allocs));
        }
    }
    let table: Vec<String> = measured
        .iter()
        .map(|(name, allocs)| format!("{name} {allocs}"))
        .collect();
    assert_eq!(measured.len(), TEXT_TO_ROWS.len(), "{table:?}");
    for ((name, allocs), (pinned, parent, ceiling)) in measured.iter().zip(TEXT_TO_ROWS) {
        assert_eq!(name, pinned);
        assert!(
            *allocs <= ceiling && 2 * ceiling <= parent,
            "{name}: {allocs} allocator calls, ceiling {ceiling}, {parent} before; all: {table:?}"
        );
    }
}

/// A hash index is a table of bucket numbers and one flat array of row
/// ids: building it allocates the same few blocks whether the relation
/// holds sixteen distinct join keys or four thousand (a vector per bucket
/// would make it one allocation per key). The rows out go into one flat
/// store, so the whole evaluation makes the same few allocator calls for
/// 2 048 rows out as for 8.
#[test]
fn a_hash_index_allocates_the_same_whatever_the_number_of_keys() {
    const S_ROWS: i64 = 4_096;
    let q = fx::q("{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B]}");
    let calls = |keys: i64| {
        let r = Relation::from_rows(
            "R",
            &["A", "B"],
            (0..8).map(|i| vec![Value::Int(i), Value::Int(i)]).collect(),
        );
        let s = Relation::from_rows(
            "S",
            &["B", "C"],
            (0..S_ROWS)
                .map(|i| vec![Value::Int(i % keys), Value::Int(i)])
                .collect(),
        );
        let catalog = Catalog::new().with(r).with(s);
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_mem_budget(0)
            .with_spans(false)
            .with_threads(1);
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("hash-probe on [r.B = s.B] S as s"), "{plan}");
        let (allocs, rows) = allocations(&engine, &q);
        assert_eq!(rows as i64, 8 * S_ROWS / keys, "{keys} keys");
        allocs
    };
    let (few, many) = (calls(16), calls(S_ROWS));
    assert!(
        few <= PER_QUERY / 8 && many <= few + 32 && few <= many + 32,
        "allocator calls: {few} with 16 keys, {many} with {S_ROWS}"
    );
}

/// A semi-join key set of two columns keeps its keys end to end in one
/// vector and finds them through one table of key ids: building it
/// allocates the same few blocks whether the build side holds sixteen
/// distinct keys or four thousand (a vector per key would make it one
/// allocation per key).
#[test]
fn a_two_column_key_set_allocates_the_same_whatever_the_number_of_keys() {
    const S_ROWS: i64 = 4_096;
    let q = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ ∃s ∈ S [s.B = r.B ∧ s.C = r.C]]}");
    let calls = |keys: i64| {
        let r = Relation::from_rows(
            "R",
            &["A", "B", "C"],
            (0..8).map(|i| vec![Value::Int(i); 3]).collect(),
        );
        let s = Relation::from_rows(
            "S",
            &["B", "C"],
            (0..S_ROWS).map(|i| vec![Value::Int(i % keys); 2]).collect(),
        );
        let catalog = Catalog::new().with(r).with(s);
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_mem_budget(0)
            .with_spans(false)
            .with_threads(1);
        let plan = engine.explain_collection(&q).unwrap();
        assert!(
            plan.contains("semi-join on [s.B = r.B, s.C = r.C]"),
            "{plan}"
        );
        let (allocs, rows) = allocations(&engine, &q);
        assert_eq!(rows, 8, "{keys} keys");
        allocs
    };
    let (few, many) = (calls(16), calls(S_ROWS));
    assert!(
        few <= PER_QUERY / 8 && many <= few + 32 && few <= many + 32,
        "allocator calls: {few} with 16 keys, {many} with {S_ROWS}"
    );
}

/// A gathered emission copies the head out of its batch of row ids
/// straight into the result's flat store, and allocates nothing per row
/// or per entry: Eq 19 (a per-entry kernel on its last step, entered 576
/// times) and a wide single scan (a selection vector) each make the same
/// few allocator calls, give or take the store's growth, for four times
/// the rows out.
#[test]
fn a_gathered_emission_allocates_one_block_per_row_out() {
    let calls = |catalog: &Catalog, q: &Collection, plan_has: &str| {
        let engine = Engine::new(catalog, Conventions::sql())
            .with_mem_budget(0)
            .with_spans(false)
            .with_threads(1);
        let plan = engine.explain_collection(q).unwrap();
        assert!(plan.contains(plan_has), "{plan}");
        let (allocs, rows) = allocations(&engine, q);
        (allocs, rows)
    };
    // Eq 19: R of 256 or 1 024 rows behind the same 24 x 24 entries.
    let eq19 = |n| calls(&fx::arith_catalog(n, 24), &fx::eq19(), "3: scan R as r");
    let ((few, small), (many, large)) = (eq19(256), eq19(1_024));
    assert!(
        large >= 4 * small && small > 100_000,
        "{small} / {large} rows"
    );
    assert!(
        few <= PER_QUERY / 8 && many <= few + 32,
        "Eq 19: allocator calls: {few} for {small} rows, {many} for {large}"
    );
    // The wide scan: 4 096 or 16 384 rows, nine in ten selected.
    let wide = fx::q("{Q(A) | ∃r ∈ R [Q.A = r.A ∧ r.B > 100]}");
    let scan = |n| calls(&fx::filter_catalog(n), &wide, "1: scan R as r");
    let ((few, small), (many, large)) = (scan(4_096), scan(16_384));
    assert!(large >= 4 * small, "{small} / {large} rows");
    assert!(
        few <= PER_QUERY / 8 && many <= few + 32,
        "wide scan: allocator calls: {few} for {small} rows, {many} for {large}"
    );
}

/// A grouping scope that folds from its last step's batch allocates per
/// *group* — its key, its representative frames, its accumulators, a
/// slot in the group table — and nothing per member: the grouped sum over
/// 65 536 members and over 262 144, both in the same 256 groups, makes
/// the same allocator calls give or take a few.
#[test]
fn a_folded_grouping_allocates_per_group_not_per_member() {
    let q = fx::q("{Q(A, sm) | ∃g ∈ G, γ g.A [Q.A = g.A ∧ Q.sm = sum(g.B)]}");
    let calls = |members: i64| {
        let g = Relation::from_rows(
            "G",
            &["A", "B"],
            (0..members)
                .map(|i| vec![Value::Int(i % 256), Value::Int(i)])
                .collect(),
        );
        let catalog = Catalog::new().with(g);
        let engine = Engine::new(&catalog, Conventions::sql())
            .with_mem_budget(0)
            .with_spans(false)
            .with_threads(1);
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("1: scan G as g"), "{plan}");
        let (allocs, rows) = allocations(&engine, &q);
        assert_eq!(rows, 256);
        allocs
    };
    let (few, many) = (calls(65_536), calls(262_144));
    assert!(
        few <= PER_QUERY && many <= few + 16 && few <= many + 16,
        "allocator calls: {few} for 65 536 members, {many} for 262 144"
    );
}

/// A last-step hash probe fed a batch of outer rows probes them a piece
/// at a time out of fixed buffers: Fig 6a's shape — every employee joined
/// to its one salary, folded into 64 departments — makes the same
/// allocator calls for 1 024 employees as for 16 384, so nothing is
/// allocated per outer row or per piece.
#[test]
fn a_batched_probe_allocates_nothing_per_outer_row() {
    let q = fx::q(
        "{Q(d, s) | ∃e ∈ Emp, s ∈ Sal, γ e.dept \
         [Q.d = e.dept ∧ Q.s = sum(s.sal) ∧ e.empl = s.empl]}",
    );
    let calls = |rows: i64| {
        let emp = Relation::from_rows(
            "Emp",
            &["empl", "dept"],
            (0..rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 64)])
                .collect(),
        );
        let sal = Relation::from_rows(
            "Sal",
            &["empl", "sal"],
            (0..rows)
                .map(|i| vec![Value::Int(rows - 1 - i), Value::Int(i)])
                .collect(),
        );
        let catalog = Catalog::new().with(emp).with(sal);
        let engine = indexed(&catalog);
        let plan = engine.explain_collection(&q).unwrap();
        assert!(plan.contains("hash-probe on ["), "{plan}");
        let (allocs, rows) = allocations(&engine, &q);
        assert_eq!(rows, 64);
        allocs
    };
    let (few, many) = (calls(1_024), calls(16_384));
    assert!(
        few <= PER_QUERY && many == few,
        "allocator calls: {few} for 1 024 outer rows, {many} for 16 384"
    );
}
