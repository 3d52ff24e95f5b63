//! Semantic similarity over relational patterns (the paper's question 3:
//! "What language abstraction should an LLM use to internally reason about
//! query intent and semantic similarity?").
//!
//! Two measures over the convention-free pattern layer:
//!
//! * **feature similarity** — cosine similarity of the pattern-signature
//!   feature multisets (relations, scopes, groupings, aggregate kinds,
//!   negations, join kinds);
//! * **structural similarity** — a normalized ordered-tree edit distance
//!   over ALTs (insert/delete/relabel, label-sensitive), computed with the
//!   classic children-sequence DP.
//!
//! Both are *syntax-blind*: variable names, constants, and formatting do
//! not matter — exactly what surface-level metrics (exact/string match)
//! get wrong per Floratou et al. \[22\].

use arc_core::alt::{collection_tree, TreeNode};
use arc_core::ast::Collection;
use arc_core::pattern::{signature, PatternSignature};

/// Cosine similarity of two feature multisets (1.0 = identical features).
pub fn feature_similarity(a: &PatternSignature, b: &PatternSignature) -> f64 {
    if a.features == b.features {
        return 1.0; // exact (avoids floating-point drift on equal inputs)
    }
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (k, va) in &a.features {
        let va = *va as f64;
        na += va * va;
        if let Some(vb) = b.features.get(k) {
            dot += va * *vb as f64;
        }
    }
    for vb in b.features.values() {
        let vb = *vb as f64;
        nb += vb * vb;
    }
    if na == 0.0 || nb == 0.0 {
        return if a.features.is_empty() && b.features.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Convenience: feature similarity of two collections.
pub fn collection_feature_similarity(a: &Collection, b: &Collection) -> f64 {
    feature_similarity(&signature(a), &signature(b))
}

/// Tree edit distance between two ALTs with unit insert/delete/relabel
/// costs (labels are node labels after canonicalizing variable-bearing
/// parts). Small and exact for the tree sizes ALTs have.
pub fn tree_edit_distance(a: &TreeNode, b: &TreeNode) -> usize {
    let relabel = usize::from(canon_label(&a.label) != canon_label(&b.label));
    relabel + forest_distance(&a.children, &b.children)
}

/// Edit distance between two ordered forests (sequence DP where the
/// substitution cost is the recursive tree distance).
fn forest_distance(a: &[TreeNode], b: &[TreeNode]) -> usize {
    let n = a.len();
    let m = b.len();
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for (i, t) in a.iter().enumerate() {
        dp[i + 1][0] = dp[i][0] + t.size();
    }
    for (j, t) in b.iter().enumerate() {
        dp[0][j + 1] = dp[0][j] + t.size();
    }
    for i in 1..=n {
        for j in 1..=m {
            let del = dp[i - 1][j] + a[i - 1].size();
            let ins = dp[i][j - 1] + b[j - 1].size();
            let sub = dp[i - 1][j - 1] + tree_edit_distance(&a[i - 1], &b[j - 1]);
            dp[i][j] = del.min(ins).min(sub);
        }
    }
    dp[n][m]
}

/// Normalized structural similarity in `[0, 1]`: `1 - TED / (|a| + |b|)`.
pub fn structural_similarity(a: &Collection, b: &Collection) -> f64 {
    let ta = collection_tree(&a.normalized());
    let tb = collection_tree(&b.normalized());
    let ted = tree_edit_distance(&ta, &tb) as f64;
    let total = (ta.size() + tb.size()) as f64;
    (1.0 - ted / total).max(0.0)
}

/// Canonicalize an ALT label for comparison: variable names are blinded,
/// constants are blinded to their presence.
fn canon_label(label: &str) -> String {
    // Labels look like "BINDING: r ∈ R", "PREDICATE: Q.A = r.A",
    // "GROUPING: r.A", "HEAD: Q(A,sm)", "AND ∧", …
    if let Some(rest) = label.strip_prefix("BINDING: ") {
        // Keep only the source relation.
        return match rest.split(" ∈ ").nth(1) {
            Some(src) => format!("BINDING ∈ {src}"),
            None => "BINDING".to_string(),
        };
    }
    if let Some(rest) = label.strip_prefix("PREDICATE: ") {
        // Keep the operator and attribute names, blind the variables.
        let blinded: String = rest
            .split_whitespace()
            .map(|tok| {
                if let Some((_, attr)) = tok.split_once('.') {
                    format!("_.{attr}")
                } else if tok.parse::<f64>().is_ok() || tok.starts_with('\'') {
                    "const".to_string()
                } else {
                    tok.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        return format!("PREDICATE: {blinded}");
    }
    if let Some(rest) = label.strip_prefix("GROUPING: ") {
        let keys = rest.split(", ").count();
        return format!("GROUPING:{keys}");
    }
    if label.starts_with("HEAD: ") {
        return "HEAD".to_string();
    }
    label.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_core::dsl::*;

    fn q_simple(var: &str, c: i64) -> Collection {
        collection(
            "Q",
            &["A"],
            exists(
                &[bind(var, "R"), bind("s", "S")],
                and([
                    assign("Q", "A", col(var, "A")),
                    eq(col(var, "B"), col("s", "B")),
                    eq(col("s", "C"), int(c)),
                ]),
            ),
        )
    }

    #[test]
    fn renamed_queries_are_identical() {
        let a = q_simple("r", 0);
        let b = q_simple("zz", 42);
        assert_eq!(collection_feature_similarity(&a, &b), 1.0);
        assert!(structural_similarity(&a, &b) > 0.999);
    }

    #[test]
    fn different_patterns_score_lower() {
        let a = q_simple("r", 0);
        // Same relations, but with negation instead of a join.
        let b = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    not(exists(
                        &[bind("s", "S")],
                        and([eq(col("r", "B"), col("s", "B"))]),
                    )),
                ]),
            ),
        );
        let sim = collection_feature_similarity(&a, &b);
        assert!(sim < 0.99, "negation must lower similarity, got {sim}");
        assert!(structural_similarity(&a, &b) < 0.95);
    }

    #[test]
    fn fio_vs_foi_are_similar_but_not_identical() {
        let fio = collection(
            "Q",
            &["A", "sm"],
            quant(
                &[bind("r", "R")],
                group(&[("r", "A")]),
                None,
                and([
                    assign("Q", "A", col("r", "A")),
                    assign_agg("Q", "sm", sum(col("r", "B"))),
                ]),
            ),
        );
        let x = collection(
            "X",
            &["sm"],
            quant(
                &[bind("r2", "R")],
                group_all(),
                None,
                and([
                    eq(col("r2", "A"), col("r", "A")),
                    assign_agg("X", "sm", sum(col("r2", "B"))),
                ]),
            ),
        );
        let foi = collection(
            "Q",
            &["A", "sm"],
            exists(
                &[bind("r", "R"), bind_coll("x", x)],
                and([
                    assign("Q", "A", col("r", "A")),
                    assign("Q", "sm", col("x", "sm")),
                ]),
            ),
        );
        let sim = collection_feature_similarity(&fio, &foi);
        assert!(sim > 0.4 && sim < 1.0, "got {sim}");
    }

    #[test]
    fn tree_edit_distance_basics() {
        use arc_core::alt::TreeNode;
        let a = TreeNode::node("X", vec![TreeNode::leaf("a"), TreeNode::leaf("b")]);
        let b = TreeNode::node("X", vec![TreeNode::leaf("a")]);
        assert_eq!(tree_edit_distance(&a, &a), 0);
        assert_eq!(tree_edit_distance(&a, &b), 1);
        let c = TreeNode::node("Y", vec![TreeNode::leaf("a"), TreeNode::leaf("c")]);
        assert_eq!(tree_edit_distance(&a, &c), 2);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = q_simple("r", 0);
        let b = collection(
            "Q",
            &["A"],
            exists(&[bind("r", "R")], and([assign("Q", "A", col("r", "A"))])),
        );
        let s1 = structural_similarity(&a, &b);
        let s2 = structural_similarity(&b, &a);
        assert!((s1 - s2).abs() < 1e-9);
    }
}
