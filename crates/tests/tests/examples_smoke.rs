//! Workspace smoke test: every runnable example must build, run, and exit 0.
//!
//! The examples are the paper's end-to-end walkthroughs (quickstart, the
//! count bug, the rosetta stone, matrix multiplication, NL2SQL
//! validation) and `experiments`, the table of every paper figure, which
//! exits 1 when a row is ✗; breaking one silently would invalidate the
//! README. Each is executed through `cargo run --example` from the
//! workspace root, so the test exercises exactly what a reader would type.

use std::process::Command;

const EXAMPLES: &[&str] = &[
    "quickstart",
    "count_bug",
    "rosetta_stone",
    "matrix_multiplication",
    "nl2sql_validation",
    "experiments",
];

fn run_example(name: &str) -> std::process::Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    Command::new(cargo)
        .args(["run", "--quiet", "-p", "arc-tests", "--example", name])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example `{name}`: {e}"))
}

#[test]
fn all_examples_run_to_completion() {
    for name in EXAMPLES {
        let out = run_example(name);
        assert!(
            out.status.success(),
            "example `{name}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            !out.stdout.is_empty(),
            "example `{name}` printed nothing; examples must narrate what they demonstrate"
        );
    }
}
