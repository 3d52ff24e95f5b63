//! Reproduce every figure/equation of the paper and print the results as
//! Markdown (the content of `EXPERIMENTS.md`):
//!
//! ```text
//! cargo run -p arc-tests --example experiments > EXPERIMENTS.md
//! ```
//!
//! For each experiment it prints the paper's claim, what this
//! implementation measures, and a ✓/✗ status. "Measured" means actually
//! executed on the paper's instances by `arc-engine` (plus pattern-level
//! checks by `arc-core`/`arc-analysis`).

use arc_analysis::{classify, collection_feature_similarity, AggPattern};
use arc_core::conventions::Conventions;
use arc_core::pattern::signature;
use arc_core::value::Truth;
use arc_engine::{Engine, Relation};
use arc_tests::fixtures as fx;

struct Report {
    rows: Vec<(String, String, String, bool)>,
}

impl Report {
    fn add(&mut self, id: &str, claim: &str, measured: String, ok: bool) {
        self.rows
            .push((id.to_string(), claim.to_string(), measured, ok));
    }
}

fn rows_str(r: &Relation) -> String {
    let rows: Vec<String> = r
        .sorted_rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            format!("({})", cells.join(","))
        })
        .collect();
    if rows.is_empty() {
        "∅".to_string()
    } else {
        rows.join(" ")
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut rep = Report { rows: Vec::new() };
    let set = Conventions::set();
    let sql = Conventions::sql();

    // ---- Fig 2 / Eq (1) ---------------------------------------------------
    {
        let q = fx::eq1();
        let catalog = fx::rs_catalog(100);
        let out = Engine::new(&catalog, set).eval_collection(&q).unwrap();
        let sig = signature(&q);
        rep.add(
            "Fig 2 / Eq (1)",
            "TRC query binds, links, and evaluates; ALT has explicit bindings + 3 predicates",
            format!(
                "{} rows with 100-row R and S; pattern: {} scope, rel R×{}, rel S×{}",
                out.len(),
                sig.features["scope"],
                sig.features["rel:R"],
                sig.features["rel:S"]
            ),
            sig.features["scope"] == 1 && !out.is_empty(),
        );
    }

    // ---- Fig 3 / Eq (2) ----------------------------------------------------
    {
        let q = fx::eq2();
        let catalog = arc_engine::Catalog::new()
            .with(Relation::from_ints("X", &["A"], &[&[1], &[2]]))
            .with(Relation::from_ints("Y", &["A"], &[&[2], &[3]]));
        let out = Engine::new(&catalog, sql).eval_collection(&q).unwrap();
        let sql_text = "select x.A, z.B from X as x join lateral \
                        (select y.A as B from Y as y where x.A < y.A) as z on true";
        let lowered = arc_sql::sql_to_arc(sql_text, &catalog.schema_map()).unwrap();
        let out2 = Engine::new(&catalog, sql)
            .eval_collection(&lowered)
            .unwrap();
        rep.add(
            "Fig 3 / Eq (2)",
            "Nested comprehension ≡ SQL lateral join",
            format!("ARC: {} — lateral SQL: {}", rows_str(&out), rows_str(&out2)),
            out.bag_eq(&out2),
        );
    }

    // ---- Figs 4+5 / Eqs (3)–(7): FIO vs FOI --------------------------------
    {
        let fio = fx::eq3();
        let foi = fx::eq7();
        let catalog = fx::grouped_catalog(60, 6);
        let engine = Engine::new(&catalog, set);
        let a = engine.eval_collection(&fio).unwrap();
        let b = engine.eval_collection(&foi).unwrap();
        let ca = classify(&fio);
        let cb = classify(&foi);
        rep.add(
            "Figs 4–5 / Eqs (3),(7)",
            "FIO and FOI patterns compute the same grouped sums; FOI uses 2 logical copies of R",
            format!(
                "equal={}, FIO classified {:?} (R×{}), FOI classified {:?} (R×{})",
                a.set_eq(&b),
                ca.aggregates[0].pattern,
                signature(&fio).features["rel:R"],
                cb.aggregates[0].pattern,
                signature(&foi).features["rel:R"],
            ),
            a.set_eq(&b)
                && ca.aggregates[0].pattern == AggPattern::Fio
                && cb.aggregates[0].pattern == AggPattern::Foi,
        );
    }

    // ---- Figs 6/7/8 / Eqs (8),(10),(12) -------------------------------------
    {
        let catalog = fx::dept_paper_catalog();
        let engine = Engine::new(&catalog, set);
        let r8 = engine.eval_collection(&fx::eq8()).unwrap();
        let r10 = engine.eval_collection(&fx::eq10()).unwrap();
        let r12 = engine.eval_collection(&fx::eq12()).unwrap();
        let copies = |c: &arc_core::Collection| signature(c).features["rel:R"];
        rep.add(
            "Figs 6–8 / Eqs (8),(10),(12)",
            "Same answer (dept 1, avg 55); signatures differ: R×1 (ARC/SQL), R×3 (Hella), R×2 (Rel)",
            format!(
                "answers {} / {} / {}; copies of R: {} / {} / {}",
                rows_str(&r8),
                rows_str(&r10),
                rows_str(&r12),
                copies(&fx::eq8()),
                copies(&fx::eq10()),
                copies(&fx::eq12()),
            ),
            r8.set_eq(&r10)
                && r10.set_eq(&r12)
                && copies(&fx::eq8()) == 1
                && copies(&fx::eq10()) == 3
                && copies(&fx::eq12()) == 2,
        );
    }

    // ---- Fig 9 / Eqs (13),(14) ----------------------------------------------
    {
        // R(1,2): count over S = 2, satisfies (13); R(2,5): no S rows, so
        // q=5 > count=0 violates the constraint (14).
        let catalog = arc_engine::Catalog::new()
            .with(Relation::from_ints("R", &["id", "q"], &[&[1, 2], &[2, 5]]))
            .with(Relation::from_ints(
                "S",
                &["id", "d"],
                &[&[1, 10], &[1, 11]],
            ));
        let engine = Engine::new(&catalog, sql);
        let t13 = engine.eval_sentence(&fx::eq13()).unwrap();
        let t14 = engine.eval_sentence(&fx::eq14()).unwrap();
        rep.add(
            "Fig 9 / Eqs (13),(14)",
            "Boolean sentences with aggregation comparison predicates evaluate to truth values",
            format!("(13) = {t13:?}, (14) = {t14:?}"),
            t13 == Truth::True && t14 == Truth::False,
        );
    }

    // ---- Fig 10 / Eq (16): recursion ------------------------------------------
    {
        let program = fx::eq16();
        let catalog = arc_analysis::chain_catalog(64, 0, 1);
        let semi = Engine::new(&catalog, set).eval_program(&program).unwrap();
        let naive = arc_tests::oracle_program(&catalog, set, &program);
        let n = semi.defined["A"].len();
        rep.add(
            "Fig 10 / Eq (16)",
            "Ancestor = one definition with a disjunctive body; LFP; semi-naive ≡ naive",
            format!(
                "chain(64): {n} facts (closed form 64·65/2 = {}); semi-naive = the oracle's naive fixpoint: {}",
                64 * 65 / 2,
                semi.defined["A"].set_eq(&naive.defined["A"])
            ),
            n == 64 * 65 / 2 && semi.defined["A"].set_eq(&naive.defined["A"]),
        );
    }

    // ---- Fig 11 / Eq (17) ----------------------------------------------------
    {
        let mut s = Relation::new("S", &["A"]);
        s.push(vec![1i64.into()]);
        s.push(vec![arc_core::value::Value::Null]);
        let catalog = arc_engine::Catalog::new()
            .with(Relation::from_ints("R", &["A"], &[&[1], &[3]]))
            .with(s);
        let guarded = Engine::new(&catalog, sql)
            .eval_collection(&fx::eq17())
            .unwrap();
        let not_in = arc_sql::sql_to_arc(
            "select R.A from R where R.A not in (select S.A from S)",
            &catalog.schema_map(),
        )
        .unwrap();
        let same_pattern = signature(&not_in).canon == signature(&fx::eq17()).canon;
        rep.add(
            "Fig 11 / Eq (17)",
            "NOT IN with a NULL in S returns ∅; lowering NOT IN produces exactly the guarded pattern",
            format!("result = {}; NOT IN lowering pattern-identical: {same_pattern}", rows_str(&guarded)),
            guarded.is_empty() && same_pattern,
        );
    }

    // ---- Fig 12 / Eq (18) -----------------------------------------------------
    {
        let catalog = fx::fig12_catalog();
        let out = Engine::new(&catalog, sql)
            .eval_collection(&fx::eq18())
            .unwrap();
        rep.add(
            "Fig 12 / Eq (18)",
            "left(r, inner(11, s)) keeps non-matching R rows null-padded: (1,5) and (2,null)",
            format!("result = {}", rows_str(&out)),
            out.len() == 2 && rows_str(&out).contains("(2,null)"),
        );
    }

    // ---- Fig 13 ---------------------------------------------------------------
    {
        let schemas = fx::fig13_catalog(true).schema_map();
        let lateral = arc_sql::sql_to_arc(
            "select R.A, X.sm from R join lateral \
             (select sum(S.B) sm from S where S.A < R.A) X on true",
            &schemas,
        )
        .unwrap();
        let scalar = arc_sql::sql_to_arc(
            "select R.A, (select sum(S.B) sm from S where S.A < R.A) from R",
            &schemas,
        )
        .unwrap();
        let leftjoin = arc_sql::sql_to_arc(
            "select R.A, sum(S.B) sm from R left join S on S.A < R.A group by R.A",
            &schemas,
        )
        .unwrap();
        let catalog = fx::fig13_catalog(true);
        let engine = Engine::new(&catalog, sql);
        let a = engine.eval_collection(&scalar).unwrap();
        let b = engine.eval_collection(&lateral).unwrap();
        let c = engine.eval_collection(&leftjoin).unwrap();
        rep.add(
            "Fig 13",
            "scalar ≡ lateral under bag semantics with duplicates; LEFT JOIN+GROUP BY diverges",
            format!(
                "scalar {} ; lateral {} ; left-join {}",
                rows_str(&a),
                rows_str(&b),
                rows_str(&c)
            ),
            a.bag_eq(&b) && !a.bag_eq(&c),
        );
    }

    // ---- Fig 15 / Eqs (19)–(21) -------------------------------------------------
    {
        let catalog = fx::fig15_catalog();
        let engine = Engine::new(&catalog, set);
        let a = engine.eval_collection(&fx::eq19()).unwrap();
        let b = engine.eval_collection(&fx::eq20()).unwrap();
        let c = engine.eval_collection(&fx::eq21()).unwrap();
        let reified = arc_analysis::reify_arith(&fx::eq19());
        let d = engine.eval_collection(&reified).unwrap();
        rep.add(
            "Fig 15 / Eqs (19)–(21)",
            "Inline arithmetic ≡ reified Minus ≡ Minus⋈Bigger; reify_arith automates (19)→(20)",
            format!(
                "{} = {} = {} = {} (rewrite)",
                rows_str(&a),
                rows_str(&b),
                rows_str(&c),
                rows_str(&d)
            ),
            a.set_eq(&b) && b.set_eq(&c) && c.set_eq(&d),
        );
    }

    // ---- Figs 16–19 / Eqs (22)–(24) ----------------------------------------------
    {
        let catalog = fx::likes_paper_catalog();
        let engine = Engine::new(&catalog, set);
        let direct = engine.eval_collection(&fx::eq22()).unwrap();
        let modular = engine.eval_program(&fx::eq24_program()).unwrap();
        let modular_q = modular.query.as_ref().unwrap();
        rep.add(
            "Figs 16–19 / Eqs (22)–(24)",
            "Unique-set query; abstract relation Subset modularizes it with the same answer ('b')",
            format!(
                "direct = {}, via abstract Subset = {}",
                rows_str(&direct),
                rows_str(modular_q)
            ),
            direct.set_eq(modular_q) && direct.len() == 1,
        );
    }

    // ---- Fig 20 / Eq (26) ------------------------------------------------------
    {
        let catalog = arc_engine::Catalog::with_standard_externals()
            .with(Relation::from_ints(
                "A",
                &["row", "col", "val"],
                &[&[0, 0, 1], &[0, 1, 2], &[1, 0, 3], &[1, 1, 4]],
            ))
            .with(Relation::from_ints(
                "B",
                &["row", "col", "val"],
                &[&[0, 0, 5], &[0, 1, 6], &[1, 0, 7], &[1, 1, 8]],
            ));
        let out = Engine::new(&catalog, set)
            .eval_collection(&fx::eq26())
            .unwrap();
        rep.add(
            "Fig 20 / Eq (26)",
            "Matrix multiplication via external `*` and grouped sum: [[19,22],[43,50]]",
            format!("C = {}", rows_str(&out)),
            rows_str(&out) == "(0,0,19) (0,1,22) (1,0,43) (1,1,50)",
        );
    }

    // ---- Fig 21 / Eqs (27)–(29) ---------------------------------------------------
    {
        let catalog = fx::count_bug_catalog(true);
        let engine = Engine::new(&catalog, sql);
        let v1 = engine.eval_collection(&fx::eq27()).unwrap();
        let v2 = engine.eval_collection(&fx::eq28()).unwrap();
        let v3 = engine.eval_collection(&fx::eq29()).unwrap();
        rep.add(
            "Fig 21 / Eqs (27)–(29)",
            "On R(9,0), S=∅: version 1 returns 9, version 2 returns ∅ (the bug), version 3 returns 9",
            format!("v1 = {}, v2 = {}, v3 = {}", rows_str(&v1), rows_str(&v2), rows_str(&v3)),
            rows_str(&v1) == "(9)" && v2.is_empty() && rows_str(&v3) == "(9)",
        );
    }

    // ---- §2.6 conventions / Eq (15) -------------------------------------------------
    {
        let catalog = fx::eq15_catalog();
        let souffle = Engine::new(&catalog, Conventions::souffle())
            .eval_collection(&fx::eq15())
            .unwrap();
        let sql_out = Engine::new(&catalog, sql)
            .eval_collection(&fx::eq15())
            .unwrap();
        let same_pattern = signature(&fx::eq15()).canon == signature(&fx::eq15()).canon;
        rep.add(
            "§2.6 / Eq (15)",
            "Conventions flip the result, not the pattern: Soufflé derives Q(1,0), SQL Q(1,null)",
            format!(
                "Soufflé: {}, SQL: {}; pattern unchanged: {same_pattern}",
                rows_str(&souffle),
                rows_str(&sql_out)
            ),
            rows_str(&souffle) == "(1,0)" && rows_str(&sql_out) == "(1,null)",
        );
    }

    // ---- §2.7 set vs bag --------------------------------------------------------------
    {
        let nested = fx::q("{Q(A) | ∃r ∈ R [∃s ∈ S [Q.A = r.A ∧ r.B = s.B]]}");
        let unnested = arc_analysis::unnest(&nested);
        let catalog = arc_engine::Catalog::new()
            .with(Relation::from_ints("R", &["A", "B"], &[&[1, 7]]))
            .with(Relation::from_ints("S", &["B", "C"], &[&[7, 0], &[7, 1]]));
        let set_eq = {
            let e = Engine::new(&catalog, set);
            e.eval_collection(&nested)
                .unwrap()
                .bag_eq(&e.eval_collection(&unnested).unwrap())
        };
        let e = Engine::new(&catalog, sql);
        let n = e.eval_collection(&nested).unwrap();
        let u = e.eval_collection(&unnested).unwrap();
        rep.add(
            "§2.7",
            "Unnesting is valid under set semantics; under bag semantics the nested form is a semijoin",
            format!(
                "set: equal={set_eq}; bag: nested {} row(s) vs unnested {} row(s)",
                n.len(),
                u.len()
            ),
            set_eq && n.len() == 1 && u.len() == 2,
        );
    }

    // ---- Intent metrics (§1/§4) ----------------------------------------------------------
    {
        let gold = fx::eq3();
        let renamed = fx::q("{Out(A,sm) | ∃z ∈ R, γ z.A [Out.A = z.A ∧ Out.sm = sum(z.B)]}");
        let sim = collection_feature_similarity(&gold, &renamed);
        let pattern_match = signature(&gold).canon == signature(&renamed).canon;
        rep.add(
            "§1/§4 intent",
            "Renamed queries fail exact match but are pattern-identical (intent-based comparison)",
            format!("pattern match = {pattern_match}, feature similarity = {sim:.3}"),
            pattern_match && sim == 1.0,
        );
    }

    // ---- Print ----------------------------------------------------------------------------
    println!("# EXPERIMENTS — paper vs. measured\n");
    println!("Generated by `cargo run -p arc-tests --example experiments`.\n");
    println!("Every row is executed by `arc-engine` on the paper's instances;");
    println!("\"pattern\" checks use `arc-core::pattern` signatures.\n");
    println!("| Experiment | Paper claim | Measured | Status |");
    println!("|---|---|---|---|");
    let mut all_ok = true;
    for (id, claim, measured, ok) in &rep.rows {
        all_ok &= ok;
        println!(
            "| {id} | {claim} | {measured} | {} |",
            if *ok { "✓" } else { "✗" }
        );
    }
    println!();
    println!(
        "**{} / {} experiments reproduce the paper's claims.**",
        rep.rows.iter().filter(|r| r.3).count(),
        rep.rows.len()
    );

    // ---- Execution telemetry appendix -------------------------------------
    // What the runs above *actually did*: an `EXPLAIN ANALYZE` of the
    // skewed range-join (the cost-model acceptance fixture — `q=1.0`
    // means the estimate was exact) and the registry counters the whole
    // binary accumulated. Timings are deliberately absent (`ARC_TRACE`
    // stays off here) so the output is stable enough to diff.
    {
        let n = 1024;
        let mut catalog = fx::stats_skew_catalog(n);
        catalog.analyze();
        let engine = Engine::new(&catalog, sql);
        let analyzed = engine
            .explain_analyze_collection(&fx::eq1_range(n))
            .expect("skew fixture profiles");
        println!();
        println!("## Execution telemetry\n");
        println!("`EXPLAIN ANALYZE` of the skewed range-join (ANALYZEd catalog):\n");
        println!("```\n{analyzed}```\n");
        let counters = arc_trace::Snapshot {
            counters: arc_trace::snapshot().counters,
            ..Default::default()
        };
        println!("Registry counters accumulated across every experiment above:\n");
        println!("```json\n{}\n```", counters.to_json());
    }

    // ---- Span timeline artifacts ------------------------------------------
    // Perfetto-loadable Chrome-trace timelines for the two ablation
    // fixtures, written next to the build artifacts. Load one at
    // <https://ui.perfetto.dev> (or `chrome://tracing`) to see the
    // query → plan → scope → step → morsel hierarchy per worker lane;
    // span names and `args.op` keys join back to the `EXPLAIN ANALYZE`
    // above.
    {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        )
        .join("traces");
        std::fs::create_dir_all(&dir).expect("create trace artifact dir");
        let mut wrote: Vec<(std::path::PathBuf, &str)> = Vec::new();
        {
            let catalog = fx::rs_catalog(100);
            let (_, json) = Engine::new(&catalog, set)
                .span_trace_collection(&fx::eq1())
                .expect("eq1 traces");
            let path = dir.join("eq1.trace.json");
            std::fs::write(&path, json.to_string()).expect("write eq1 trace");
            wrote.push((path, "Eq (1) on the 100-row R ⋈ S instance (sequential)"));
        }
        {
            let n = 4096;
            let catalog = fx::stats_skew_catalog(n);
            // Widened range bound: keeps the `R` index range above the
            // partition gate so the scope fans out across 4 worker lanes
            // (the narrow `eq1_range` bound stays sequential by design).
            let q = fx::q(&format!(
                "{{Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ r.A > {}]}}",
                n - 33
            ));
            let (_, json) = Engine::new(&catalog, sql)
                .with_threads(4)
                .span_trace_collection(&q)
                .expect("skewed range-join traces");
            let path = dir.join("range_join_skew.trace.json");
            std::fs::write(&path, json.to_string()).expect("write range-join trace");
            wrote.push((path, "skewed range-join partitioned across 4 worker lanes"));
        }
        println!();
        println!("## Span timeline artifacts\n");
        println!("Chrome-trace timelines written by this run (load at ui.perfetto.dev):\n");
        for (path, what) in &wrote {
            println!("- `{}` — {what}", path.display());
        }
        println!();
    }
    if !all_ok {
        std::process::exit(1);
    }
}
