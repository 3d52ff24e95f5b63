//! Every source file under `/tests` and `/examples` is wired into this
//! crate's manifest: a test file as a `[[test]]` path or `#[path]`-included
//! by one, an example as an `[[example]]` path. The manifest is kept by
//! hand, and a file it misses compiles and runs nowhere.

use std::fs;
use std::path::Path;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The `.rs` files directly under `dir` of the workspace root, by name.
fn sources(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(Path::new(ROOT).join(dir))
        .unwrap_or_else(|e| panic!("read {dir}/: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".rs"))
        .collect();
    names.sort();
    names
}

/// The `path = "../../{dir}/…"` entries of the manifest, as file names
/// under `dir`.
fn wired(manifest: &str, dir: &str) -> Vec<String> {
    let prefix = format!("path = \"../../{dir}/");
    manifest
        .lines()
        .filter_map(|line| line.trim().strip_prefix(prefix.as_str()))
        .map(|rest| rest.trim_end_matches('"').to_string())
        .collect()
}

/// The files a source includes through `#[path = "…"]`, resolved against
/// the including file's directory.
fn path_includes(dir: &str, file: &str) -> Vec<String> {
    let text = fs::read_to_string(Path::new(ROOT).join(dir).join(file)).unwrap();
    text.lines()
        .filter_map(|line| line.trim().strip_prefix("#[path = \""))
        .map(|rest| rest.trim_end_matches("\"]").to_string())
        .collect()
}

#[test]
fn every_test_and_example_file_is_wired() {
    let manifest = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")).unwrap();
    let tests = wired(&manifest, "tests");
    let mut reached: Vec<String> = tests
        .iter()
        .flat_map(|file| path_includes("tests", file))
        .collect();
    reached.extend(tests.iter().cloned());
    let unwired: Vec<String> = sources("tests")
        .into_iter()
        .filter(|file| !reached.contains(file))
        .collect();
    assert!(
        unwired.is_empty(),
        "tests/ files neither a [[test]] path nor #[path]-included: {unwired:?}"
    );
    let examples = wired(&manifest, "examples");
    let unwired: Vec<String> = sources("examples")
        .into_iter()
        .filter(|file| !examples.contains(file))
        .collect();
    assert!(
        unwired.is_empty(),
        "examples/ files not an [[example]] path: {unwired:?}"
    );
}
