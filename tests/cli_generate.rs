//! End-to-end tests of the generated-program CLI: `druzhba generate`
//! (text + JSON goldens, byte-compared like the analyze goldens),
//! `druzhba hunt --generate` (campaign transcript golden, worker-count
//! determinism, flag validation), and `druzhba p4-fuzz --generate`.
//!
//! Regenerate the goldens after an intentional generator change with:
//!
//! ```text
//! druzhba generate --count 2 --seed 0xd122b --out tests/golden/generate.txt
//! druzhba generate --count 2 --seed 0xd122b --json --out tests/golden/generate.json
//! druzhba hunt --generate 3 --phvs 120 --faults 1 --seed 0xd122b --jobs 2 \
//!     --out tests/golden/genhunt.json
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn generate_text_matches_golden_baseline() {
    let out = druzhba(&["generate", "--count", "2", "--seed", "0xd122b"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("generate.txt"),
        "generator text output drifted from tests/golden/generate.txt; if the \
         change is intentional, regenerate with `druzhba generate --count 2 \
         --seed 0xd122b --out tests/golden/generate.txt`"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("0 candidate(s) rejected"), "stderr: {err}");
}

#[test]
fn generate_json_matches_golden_baseline() {
    let out = druzhba(&["generate", "--count", "2", "--seed", "0xd122b", "--json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("generate.json"),
        "generator JSON output drifted from tests/golden/generate.json"
    );
}

#[test]
fn genhunt_transcript_matches_golden_baseline() {
    let out = druzhba(&[
        "hunt",
        "--generate",
        "3",
        "--phvs",
        "120",
        "--faults",
        "1",
        "--seed",
        "0xd122b",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("genhunt.json"),
        "hunt --generate report drifted from tests/golden/genhunt.json"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("0 clean divergence(s)"), "stderr: {err}");
    assert!(
        err.contains("minimized to program-level reproducers"),
        "stderr: {err}"
    );
}

/// The report is a pure function of the configuration: sweeping the
/// same campaign on 1 and 3 workers yields byte-identical JSON.
#[test]
fn genhunt_report_is_worker_count_independent() {
    let run = |jobs: &str| {
        let out = druzhba(&[
            "hunt",
            "--generate",
            "4",
            "--phvs",
            "80",
            "--seed",
            "11",
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        run("1"),
        run("3"),
        "hunt --generate report depends on --jobs"
    );
}

/// The replay recipe printed in reports (`generate --seed S --index K`)
/// reproduces exactly the program a batch puts at index K.
#[test]
fn generate_index_replays_the_batch_program() {
    let batch = druzhba(&["generate", "--count", "3", "--seed", "0xd122b"]);
    assert!(batch.status.success());
    let solo = druzhba(&["generate", "--seed", "0xd122b", "--index", "2"]);
    assert!(solo.status.success());
    let batch_out = String::from_utf8_lossy(&batch.stdout).into_owned();
    let solo_out = String::from_utf8_lossy(&solo.stdout).into_owned();
    assert!(
        batch_out.ends_with(&solo_out),
        "--index 2 does not replay program 2 of the batch;\nbatch:\n{batch_out}\nsolo:\n{solo_out}"
    );
}

#[test]
fn generate_p4_emits_a_parseable_workload() {
    let out = druzhba(&["generate", "--p4", "--count", "1", "--seed", "0xd122b"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("header_type"), "stdout: {stdout}");
    assert!(stdout.contains("// entries for p4gen_"), "stdout: {stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 p4 program(s)"), "stderr: {err}");
}

#[test]
fn p4_fuzz_generate_composes_with_the_differential_modes() {
    let out = druzhba(&[
        "p4-fuzz",
        "--generate",
        "2",
        "--phvs",
        "200",
        "--seed",
        "0xd122b",
        "--lint",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 workload(s) generated"),
        "stderr: {stderr}"
    );
    // Lint ran on the generated targets, then every backend fuzzed clean
    // and the cross-model check covered them.
    assert!(stderr.contains("lint[p4gen_"), "stderr: {stderr}");
    for level in ["unoptimized", "scc", "scc_inline", "fused"] {
        assert!(
            stdout.contains(&format!(":{level}]")),
            "missing level `{level}` in:\n{stdout}"
        );
    }
    assert!(stdout.contains("cross-model[p4gen_"), "stdout: {stdout}");
}

#[test]
fn generate_rejects_a_positional_argument() {
    let out = druzhba(&["generate", "whoops.domino"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no positional argument"), "stderr: {err}");
}

#[test]
fn hunt_generate_rejects_corpus_flags() {
    let out = druzhba(&["hunt", "--generate", "2", "--programs", "sampling"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corpus hunt"), "stderr: {err}");
}

#[test]
fn p4_fuzz_generate_rejects_a_positional_target() {
    let out = druzhba(&["p4-fuzz", "learn_filter", "--generate", "2"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drop the positional"), "stderr: {err}");
}

#[test]
fn generate_rejects_an_index_range_past_the_last_program() {
    let out = druzhba(&[
        "generate",
        "--index",
        "18446744073709551615",
        "--count",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--index 18446744073709551615 --count 2 runs past the last program index"),
        "stderr: {err}"
    );
    assert!(out.stdout.is_empty(), "programs were emitted");
}
