//! Smoke test: `e2e --quick` runs every workload in a few seconds, and its
//! names, units and result lines agree with `BENCHMARK.json`.

use std::process::Command;

const E2E: &str = env!("CARGO_BIN_EXE_e2e");

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The value of `"key": "..."` in a one-line JSON object.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every entry in one top-level list of
/// `BENCHMARK.json` (one entry per line).
fn entries(json: &str, list: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"));
    json[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| {
            let name = string_field(l, "name")
                .expect("entry has a name")
                .to_string();
            (name, string_field(l, "unit").map(str::to_string))
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line's `metrics` object.
fn result_metrics(line: &str) -> Vec<(String, String)> {
    let body = &line[line.find("\"metrics\": {").expect("result has metrics") + 12..];
    body.split("}, ")
        .map(|m| {
            let name = m
                .trim_start_matches('{')
                .split('"')
                .nth(1)
                .expect("metric name");
            let unit = string_field(m, "unit").expect("metric has a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(E2E).args(args).output().expect("e2e runs");
    assert!(
        out.status.success(),
        "e2e {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn quick_run_covers_every_workload_and_metric() {
    let json = benchmark_json();
    let stdout = run(&["--quick", "--seconds", "0"]);
    let workloads = entries(&json, "workloads");
    assert_eq!(workloads.len(), 4);
    for (name, _) in &workloads {
        let header = format!("== {name}  seed");
        let section = &stdout[stdout
            .find(&header)
            .unwrap_or_else(|| panic!("no {name} section"))..];
        for (metric, unit) in entries(&json, "end_to_end") {
            let unit = unit.expect("end-to-end metrics have units");
            assert!(
                section.lines().any(
                    |l| l.trim_start().starts_with(&format!("{metric} ")) && l.ends_with(&unit)
                ),
                "{name}: no `{metric}` line in {unit}"
            );
        }
        let fail = section
            .lines()
            .find(|l| l.trim_start().starts_with("fail_ratio"))
            .expect("fail_ratio line");
        assert!(fail.contains(" 0 ("), "{name}: {fail}");
        assert!(!section.contains("GATE FAILED"), "{name}: a gate failed");
    }
}

#[test]
fn result_lines_match_benchmark_json() {
    let json = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&[
            "--workload",
            "p4-hunt",
            "--quick",
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        let want: Vec<(String, String)> = entries(&json, list)
            .into_iter()
            .map(|(n, u)| (n, u.expect("metric has a unit")))
            .collect();
        assert_eq!(result_metrics(last), want, "--trace {trace}");
    }
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--bogus", "1"],
        &["--seed"],
    ] {
        let out = Command::new(E2E).args(args).output().expect("e2e runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
