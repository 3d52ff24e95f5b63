//! Intent-based query comparison (the paper's NL2SQL discussion, §1/§4):
//! contrasting **surface-level** metrics (exact string match) with
//! **execution match** and **pattern match** — the paper's argument, after
//! Floratou et al. \[22\], that benchmarks should score *intent*.

use crate::equiv::{random_equivalence, Verdict};
use crate::generate::InstanceSpec;
use crate::similarity::{collection_feature_similarity, structural_similarity};
use arc_core::ast::Collection;
use arc_core::conventions::Conventions;
use arc_core::pattern::signature;

/// A multi-metric comparison of two queries (e.g. gold vs. generated).
#[derive(Debug, Clone)]
pub struct IntentReport {
    /// Surface: the two texts are byte-identical (what exact-match
    /// NL2SQL benchmarks measure).
    pub exact_text_match: bool,
    /// Execution: indistinguishable over the random-instance trials.
    pub execution_match: bool,
    /// Pattern: identical canonical relational patterns (the paper's
    /// intent proxy — syntax-blind, convention-free).
    pub pattern_match: bool,
    /// Feature-multiset cosine similarity in `[0, 1]`.
    pub feature_similarity: f64,
    /// ALT tree-edit similarity in `[0, 1]`.
    pub structural_similarity: f64,
}

/// Compare two queries given their surface texts.
pub fn intent_report(
    a: &Collection,
    a_text: &str,
    b: &Collection,
    b_text: &str,
    spec: &InstanceSpec,
    conv: Conventions,
    trials: usize,
) -> IntentReport {
    let verdict = random_equivalence(a, b, spec, conv, trials, 0xA2C);
    IntentReport {
        exact_text_match: normalize_ws(a_text) == normalize_ws(b_text),
        execution_match: matches!(verdict, Verdict::IndistinguishableAfter { .. }),
        pattern_match: signature(a).canon == signature(b).canon,
        feature_similarity: collection_feature_similarity(a, b),
        structural_similarity: structural_similarity(a, b),
    }
}

fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_core::dsl::*;

    #[test]
    fn renamed_query_fails_exact_match_but_matches_intent() {
        // The paper's point: surface metrics miss semantic equivalence.
        let a = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col("r", "A")),
                    eq(col("r", "B"), col("s", "B")),
                ]),
            ),
        );
        let b = collection(
            "Q",
            &["A"],
            exists(
                &[bind("u", "R"), bind("v", "S")],
                and([
                    eq(col("u", "B"), col("v", "B")),
                    assign("Q", "A", col("u", "A")),
                ]),
            ),
        );
        let report = intent_report(
            &a,
            "select R.A from R, S where R.B = S.B",
            &b,
            "SELECT u.A FROM R u, S v WHERE u.B = v.B",
            &InstanceSpec::rs(),
            Conventions::set(),
            40,
        );
        assert!(!report.exact_text_match);
        assert!(report.execution_match);
        assert!(report.pattern_match);
        assert_eq!(report.feature_similarity, 1.0);
    }

    #[test]
    fn subtly_different_query_matches_surface_but_not_intent() {
        // Syntactically near-identical, semantically different: < vs <=.
        let a = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([assign("Q", "A", col("r", "A")), lt(col("r", "B"), int(3))]),
            ),
        );
        let b = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([assign("Q", "A", col("r", "A")), le(col("r", "B"), int(3))]),
            ),
        );
        let report = intent_report(
            &a,
            "select R.A from R where R.B < 3",
            &b,
            "select R.A from R where R.B < 3", // same surface text!
            &InstanceSpec::rs(),
            Conventions::set(),
            60,
        );
        assert!(report.exact_text_match, "surface metric is fooled");
        assert!(!report.execution_match, "execution testing is not");
        assert!(!report.pattern_match, "pattern comparison is not");
        assert!(report.feature_similarity > 0.8, "but they are *similar*");
    }
}
