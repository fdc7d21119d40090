//! The command line, end to end: the driver's calling convention, the
//! exit codes, and `compare` over the documents `--json` writes.

use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn list_names_the_five_workloads() {
    let out = perf(&["--list"]);
    assert!(out.status.success());
    let names: Vec<String> = stdout(&out)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(
        names,
        [
            "tree_read",
            "tree_write",
            "svc_write",
            "svc_read_mostly",
            "restart"
        ]
    );
}

#[test]
fn driver_convention_result_line_and_exit_codes() {
    // As the driver calls it; `restart` is the workload that is quick at
    // full scale.
    let out = perf(&[
        "--workload",
        "restart",
        "--seed",
        "21",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text
        .lines()
        .any(|l| l.starts_with("restart p99_us ") && l.contains(" us n=")));
    let last = text.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in [
        "setup_s",
        "ops_per_s",
        "p50_us",
        "p99_us",
        "pm_bytes_per_key",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {last}"
        );
    }
    assert!(!last.contains("flushes_per_op") && !last.contains("catalog.open_us"));

    let traced = perf(&[
        "--workload",
        "restart",
        "--seed",
        "21",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(traced.status.success());
    let text = stdout(&traced);
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"catalog.open_us\"") && last.contains("\"flushes_per_op\""));
    assert!(!last.contains("\"setup_s\""));

    // An acknowledged commit that is not there: failed > 0, exit code 1.
    let lost = perf(&[
        "--workload",
        "restart",
        "--seconds",
        "1",
        "--inject-lost-commit",
    ]);
    assert_eq!(lost.status.code(), Some(1));
    let text = stdout(&lost);
    assert!(text
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
    assert!(!text.contains("restart failed_frac 0 ratio"));

    assert_eq!(perf(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(perf(&["--seconds", "0"]).status.code(), Some(2));
    assert_eq!(perf(&["compare", "only-one.json"]).status.code(), Some(2));
}

#[test]
fn repeat_writes_the_sets_compare_reads() {
    let dir = std::env::temp_dir().join(format!("perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for path in [&a, &b] {
        let run = perf(&[
            "--workload",
            "restart",
            "--seconds",
            "1",
            "--repeat",
            "3",
            "--json",
            path.to_str().unwrap(),
        ]);
        assert!(run.status.success());
    }
    let out = perf(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = stdout(&out);
    assert_eq!(table.lines().count(), 1 + 8, "{table}");
    // Same code, same seed: the exact counts are bit-identical.
    for metric in [
        "flushes_per_op",
        "fences_per_op",
        "pm_bytes_per_key",
        "failed_frac",
    ] {
        let row = table.lines().find(|l| l.contains(metric)).unwrap();
        assert!(row.ends_with("same"), "{row}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
