//! Smoke tests: the examples must run to completion.
//!
//! Invokes the same `cargo` binary driving this test to build and run each
//! example end-to-end. `--offline` keeps the inner invocation hermetic —
//! the workspace has only path dependencies.

use std::process::Command;

/// Runs one example and asserts every expected line appears on stdout.
fn run_example(name: &str, expects: &[&str]) {
    let cargo = env!("CARGO");
    let output = Command::new(cargo)
        .args(["run", "--offline", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "{name} example failed ({}):\n--- stdout\n{}\n--- stderr\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for expect in expects {
        assert!(
            stdout.contains(expect),
            "{name}: expected {expect:?} in output:\n{stdout}"
        );
    }
}

#[test]
fn quickstart_runs_to_completion() {
    run_example(
        "quickstart",
        &[
            "bulk-loaded 100000 keys",
            // 100k bulk-loaded + 1 fresh upsert - 1 delete.
            "reopened tree: 100000 keys intact",
        ],
    );
}

#[test]
fn reopen_kv_runs_to_completion() {
    run_example(
        "reopen_kv",
        &[
            "newest order via reverse seek: (10000, 20000)",
            "orders intact",
            "killed with 3 orders committed to the journal, unapplied",
            "second reopen: 10000 orders still intact",
            "journal recovery replayed the 3 committed orders",
            "service booted from catalog and served the newest order",
            "reopen_kv example finished OK",
        ],
    );
}

#[test]
fn sharded_kv_runs_to_completion() {
    run_example(
        "sharded_kv",
        &[
            "inserted 60000 keys across 3 shards",
            "crash partway through population: reopened 2 shards from the catalog",
            "sharded_kv example finished OK",
        ],
    );
}
