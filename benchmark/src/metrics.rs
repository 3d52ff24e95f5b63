//! The metric names, units, directions and bounds the benchmark reports —
//! the code-side twin of `BENCHMARK.json` (a self-test compares the two).

use crate::workloads::{Workload, TEMPLATES};

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median it may worsen by before a change counts
/// as a regression. The bounds are ISSUE 12's; none is wider than 10 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.07,
    },
    EndToEnd {
        name: "round_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.07,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Per-layer metrics that exist on every workload, with their units.
const LAYER: [(&str, &str); 56] = [
    ("parser.parse_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.lower_us", "us"),
    ("datalog.parse_us", "us"),
    ("datalog.lower_us", "us"),
    ("core.bind_us", "us"),
    ("frontend.share", "ratio"),
    ("plan.explain_us", "us"),
    ("plan.runs_per_stmt", "count"),
    ("plan.cache_hit_ratio", "ratio"),
    ("engine.eval_ms", "ms"),
    ("engine.share", "ratio"),
    ("engine.fixed_us", "us"),
    ("engine.rows_in_per_row_out", "ratio"),
    ("engine.us_per_row_in", "us"),
    ("engine.rows_out_per_round", "count"),
    ("engine.hash_builds", "count"),
    ("engine.semijoin_builds", "count"),
    ("engine.semijoin_hit_ratio", "ratio"),
    ("engine.chunk_builds", "count"),
    ("engine.ordered_builds", "count"),
    ("engine.selection_builds", "count"),
    ("engine.selection_cache_hits", "count"),
    ("engine.index_range_rows", "count"),
    ("engine.load_ms", "ms"),
    ("engine.load_rows_per_s", "1/s"),
    ("stats.analyze_ms", "ms"),
    ("stats.analyze_rows_per_s", "1/s"),
    ("engine.first_ms", "ms"),
    ("engine.repeat_ms", "ms"),
    ("engine.first_over_repeat", "ratio"),
    ("engine.fixpoint_ms", "ms"),
    ("engine.outer_join_ms", "ms"),
    ("exec.t2_over_t1", "ratio"),
    ("exec.morsels", "count"),
    ("guard.overhead_ratio", "ratio"),
    ("guard.degradations", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("parser.print_us", "us"),
    ("sql.render_us", "us"),
    ("core.signature_us", "us"),
    ("higraph.svg_us", "us"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.first_round_ms", "ms"),
    ("bench.verify_s", "s"),
    ("bench.host_slowdown", "ratio"),
    ("bench.rounds", "count"),
    ("bench.stmts_per_round", "count"),
    ("layer.parser_ms", "ms"),
    ("layer.sql_ms", "ms"),
    ("layer.datalog_ms", "ms"),
    ("layer.core_ms", "ms"),
    ("layer.engine_ms", "ms"),
    ("layer.stats_ms", "ms"),
];

/// Every per-layer metric, in report order: the layer table, then one
/// `stmt.<id>_ms` per fixed statement and one `tmpl.<id>_us` per template.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for w in Workload::ALL {
        for id in w.stmt_ids() {
            out.push((format!("stmt.{id}_ms"), "ms"));
        }
    }
    for t in TEMPLATES {
        out.push((format!("tmpl.{t}_us"), "us"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let names = per_layer();
        assert!(names.len() <= 128, "{}", names.len());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    fn text_of(v: Option<&Json>) -> String {
        match v {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        }
    }

    /// `BENCHMARK.json` sits at the repository root, outside this package;
    /// when it is there, it must declare exactly what the code reports.
    #[test]
    fn manifest_declares_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let manifest = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            match manifest.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| text_of(m.get(k));
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let code: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), code);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        if let Some(Json::Arr(items)) = manifest.get("end_to_end") {
            for (m, code) in items.iter().zip(&END_TO_END) {
                assert_eq!(m.get("bound").and_then(Json::as_f64), Some(code.bound));
                let better = if code.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text_of(m.get("better")), better);
            }
        }
        let workloads: Vec<String> = match manifest.get("workloads") {
            Some(Json::Arr(items)) => items.iter().map(|w| text_of(w.get("name"))).collect(),
            _ => Vec::new(),
        };
        let code: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, code);
    }
}
