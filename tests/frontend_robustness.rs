//! No input makes a frontend panic (ROADMAP item 5d): seeded arbitrary
//! strings over the characters the three grammars are made of — ASCII,
//! the paper's Unicode operators, other multi-byte characters — and every
//! prefix of every `adhoc_text` template text either parse or are refused
//! with an error that points into the text.
//!
//! The lexers walk the source by byte offset and slice it; a slice off a
//! character boundary would panic, which is what this pins.

#[path = "adhoc_shapes.rs"]
mod adhoc_shapes;

use arc_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parse `text` with every frontend; an error offset must lie inside the
/// text, on a character boundary.
fn parse_with_every_frontend(text: &str) {
    let inside = |offset: usize, frontend: &str| {
        assert!(
            offset <= text.len() && text.is_char_boundary(offset),
            "{frontend}: error at byte {offset} of {text:?}"
        );
    };
    if let Err(e) = arc_parser::parse_collection(text) {
        inside(e.offset, "parse_collection");
    }
    if let Err(e) = arc_parser::parse_program(text) {
        inside(e.offset, "parse_program");
    }
    if let Err(e) = arc_parser::parse_sentence(text) {
        inside(e.offset, "parse_sentence");
    }
    if let Err(e) = arc_sql::parse_sql(text) {
        inside(e.offset, "parse_sql");
    }
    if let Err(e) = arc_datalog::parse_datalog(text) {
        // Datalog scans bytes: its offsets need not sit on a boundary.
        assert!(e.offset <= text.len(), "parse_datalog: {e} in {text:?}");
    }
}

/// What the arbitrary strings are drawn from: every token start of the
/// three grammars, and characters of every UTF-8 width that are none.
const ALPHABET: &[&str] = &[
    " ",
    "\n",
    "\t",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "|",
    ",",
    ".",
    ";",
    ":",
    "-",
    "--",
    "//",
    "+",
    "*",
    "/",
    "=",
    "<",
    ">",
    "<=",
    ">=",
    "<>",
    "!=",
    "!",
    "'",
    "\"",
    "_",
    "$",
    "#",
    "@",
    ":-",
    "0",
    "7",
    "42",
    "3.5",
    "9223372036854775807",
    "9223372036854775808",
    "99999999999999999999",
    "Q",
    "r",
    "R",
    "A",
    "x1",
    "sum",
    "count",
    "select",
    "from",
    "where",
    "group",
    "by",
    "exists",
    "not",
    "in",
    "is",
    "null",
    "and",
    "or",
    "left",
    "join",
    "on",
    "true",
    "false",
    ".decl",
    "number",
    "∃",
    "∈",
    "∧",
    "∨",
    "¬",
    "γ",
    "∅",
    "≤",
    "≥",
    "≠",
    "é",
    "ß",
    "λ",
    "中",
    "\u{a0}",
    "\u{2003}",
    "😀",
    "𝔸",
    "\u{0301}",
    "\u{feff}",
    "\0",
];

#[test]
fn arbitrary_strings_never_panic_a_frontend() {
    let mut rng = StdRng::seed_from_u64(0x5d);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..24usize);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        parse_with_every_frontend(&text);
    }
}

#[test]
fn every_prefix_of_every_template_text_parses_or_is_refused() {
    let (c, k) = (Value::Int(1), Value::Int(-480_000));
    let mut texts: Vec<String> = adhoc_shapes::all_spellings(&c, &k)
        .into_iter()
        .map(|shape| shape.text)
        .collect();
    // Constants of the other classes, and the extreme integers.
    for k in [
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(0.5),
        Value::str("中 é"),
        Value::Null,
    ] {
        texts.extend(
            adhoc_shapes::spellings("eq1_join", &c, &k)
                .into_iter()
                .map(|shape| shape.text),
        );
    }
    for text in &texts {
        for (end, _) in text.char_indices() {
            parse_with_every_frontend(&text[..end]);
        }
        parse_with_every_frontend(text);
        // A cut inside a multi-byte character is not a `&str`; the same
        // bytes with the tail replaced are.
        for end in (0..text.len()).filter(|&end| !text.is_char_boundary(end)) {
            parse_with_every_frontend(&String::from_utf8_lossy(&text.as_bytes()[..end]));
        }
    }
}

#[test]
fn mutated_template_texts_never_panic_a_frontend() {
    let mut rng = StdRng::seed_from_u64(0xd5);
    let texts: Vec<String> = adhoc_shapes::all_spellings(&Value::Int(1), &Value::Int(480_000))
        .into_iter()
        .map(|shape| shape.text)
        .collect();
    for _ in 0..4_000 {
        let text = &texts[rng.gen_range(0..texts.len())];
        let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let at = cuts[rng.gen_range(0..cuts.len())];
        let to = cuts[rng.gen_range(0..cuts.len())].max(at);
        let insert = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        // Replace a stretch of the text by one alphabet entry.
        parse_with_every_frontend(&format!("{}{insert}{}", &text[..at], &text[to..]));
    }
}
