//! Cross-modality integration: the same query travels through every
//! modality (comprehension text, ALT JSON, SQL, Datalog, higraph) and the
//! engine — losslessly with respect to both pattern and results.

use arc_core::binder::Binder;
use arc_core::conventions::Conventions;
use arc_core::pattern::signature;
use arc_engine::{Catalog, Engine, Relation};

fn grouped_catalog() -> Catalog {
    Catalog::new().with(Relation::from_ints(
        "R",
        &["A", "B"],
        &[&[1, 10], &[1, 20], &[2, 5]],
    ))
}

#[test]
fn five_way_modality_consistency() {
    // Start in the comprehension modality (Eq (3)).
    let src = "{Q(A,sm) | ∃r ∈ R, γ r.A [Q.A = r.A ∧ Q.sm = sum(r.B)]}";
    let from_text = arc_parser::parse_collection(src).unwrap();

    // → ALT JSON and back.
    let json = arc_core::alt::to_json(&from_text);
    let from_json = arc_core::alt::from_json(&json).unwrap();
    assert_eq!(from_text, from_json);

    // → printed text and back.
    let printed = arc_parser::print_collection(&from_text);
    let reparsed = arc_parser::parse_collection(&printed).unwrap();
    assert_eq!(from_text.normalized(), reparsed.normalized());

    // → SQL and back (pattern-preserving up to naming).
    let catalog = grouped_catalog();
    let sql = arc_sql::arc_to_sql(&from_text, &Conventions::sql()).unwrap();
    let from_sql = arc_sql::sql_to_arc(&sql, &catalog.schema_map()).unwrap();

    // → higraph (structure counts match the ALT).
    let hg = arc_higraph::build_collection(&from_text);
    assert_eq!(hg.count_edges(|_| true), 2, "two predicates → two edges");
    assert_eq!(
        hg.count_nodes(|k| matches!(k, arc_higraph::NodeKind::Scope { grouping: true })),
        1
    );

    // All executable forms agree.
    let engine = Engine::new(&catalog, Conventions::sql());
    let a = engine.eval_collection(&from_text).unwrap();
    let b = engine.eval_collection(&from_sql).unwrap();
    assert!(a.bag_eq(&b), "{a}\nvs\n{b}");
    assert_eq!(a.len(), 2);

    // Pattern identity across the text/JSON path.
    assert_eq!(signature(&from_text).canon, signature(&from_json).canon);
}

#[test]
fn datalog_and_sql_front_ends_agree_on_shared_fragment() {
    // The same conjunctive query through both front-ends.
    let catalog = Catalog::new()
        .with(Relation::from_ints("R", &["a", "b"], &[&[1, 7], &[2, 8]]))
        .with(Relation::from_ints("S", &["b", "c"], &[&[7, 0], &[8, 1]]));

    let from_sql = arc_sql::sql_to_arc(
        "select R.a from R, S where R.b = S.b and S.c = 0",
        &catalog.schema_map(),
    )
    .unwrap();

    let dl = arc_datalog::parse_datalog(
        ".decl R(a: number, b: number)\n\
         .decl S(b: number, c: number)\n\
         .decl Q(a: number)\n\
         Q(x) :- R(x, y), S(y, 0).\n",
    )
    .unwrap();
    let from_dl_prog = arc_datalog::lower_program(&dl).unwrap();

    let engine = Engine::new(&catalog, Conventions::set());
    let a = engine.eval_collection(&from_sql).unwrap();
    let b = engine.eval_program(&from_dl_prog).unwrap().defined["Q"].clone();
    assert!(a.set_eq(&b), "{a}\nvs\n{b}");

    // And their patterns coincide (ARC as the Rosetta Stone).
    let sig_sql = signature(&from_sql);
    let sig_dl = signature(&from_dl_prog.definitions[0].collection);
    assert_eq!(sig_sql.canon, sig_dl.canon);
}

#[test]
fn binder_validates_every_fixture() {
    use arc_tests::fixtures as fx;
    let schemas = fx::all_schemas();
    // Collections with self-contained schemas bind closed-world; the rest
    // bind open-world. All must be valid.
    for (name, c) in [
        ("eq1", fx::eq1()),
        ("eq2", fx::eq2()),
        ("eq3", fx::eq3()),
        ("eq7", fx::eq7()),
        ("eq8", fx::eq8()),
        ("eq10", fx::eq10()),
        ("eq12", fx::eq12()),
        ("eq17", fx::eq17()),
        ("eq18", fx::eq18()),
        ("eq19", fx::eq19()),
        ("eq20", fx::eq20()),
        ("eq21", fx::eq21()),
        ("eq22", fx::eq22()),
        ("eq26", fx::eq26()),
        ("eq27", fx::eq27()),
        ("eq28", fx::eq28()),
        ("eq29", fx::eq29()),
        ("eq15", fx::eq15()),
    ] {
        let info = Binder::new().bind_collection(&c);
        assert!(info.is_valid(), "{name}: {:?}", info.diagnostics);
    }
    let info = Binder::with_schemas(schemas).bind_collection(&fx::eq1());
    assert!(info.is_valid());

    // Programs too (recursion + abstract relations).
    let info = Binder::new().bind_program(&fx::eq16());
    assert!(info.is_valid(), "{:?}", info.diagnostics);
    let info = Binder::new().bind_program(&fx::eq24_program());
    assert!(info.is_valid(), "{:?}", info.diagnostics);
    assert_eq!(info.abstract_collections, vec!["Subset".to_string()]);
}

#[test]
fn alt_text_modality_matches_paper_layout_for_eq27() {
    // Fig 21g, verbatim layout.
    use arc_tests::fixtures as fx;
    let rendered = arc_core::alt::render_collection(&fx::eq27());
    let expected = "\
COLLECTION
├─ HEAD: Q(id)
└─ QUANTIFIER ∃
   ├─ BINDING: r ∈ R
   └─ AND ∧
      ├─ PREDICATE: Q.id = r.id
      └─ QUANTIFIER ∃
         ├─ BINDING: s ∈ S
         ├─ GROUPING: ∅
         └─ AND ∧
            ├─ PREDICATE: s.id = r.id
            └─ PREDICATE: r.q = count(s.d)
";
    assert_eq!(rendered, expected);
}

#[test]
fn higraph_svg_and_dot_render_for_all_fixtures() {
    use arc_tests::fixtures as fx;
    for c in [
        fx::eq1(),
        fx::eq3(),
        fx::eq8(),
        fx::eq18(),
        fx::eq22(),
        fx::eq26(),
        fx::eq29(),
    ] {
        let hg = arc_higraph::build_collection(&c);
        let svg = arc_higraph::render_svg(&hg);
        assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
        let dot = arc_higraph::render_dot(&hg);
        assert!(dot.starts_with("digraph"));
        assert!(!arc_higraph::render_outline(&hg).is_empty());
    }
}
