//! End-to-end tests of the `druzhba` command-line tool: spawn the built
//! binary and assert exit codes and key output lines for the
//! compile/fuzz/verify/atoms/programs workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

const SAMPLING: &str = "state int count = 0;\n\
                        if (count == 9) { count = 0; pkt.sample = 1; }\n\
                        else { count = count + 1; pkt.sample = 0; }\n";

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

fn write_sampling() -> PathBuf {
    // Unique per call: tests run concurrently within one process.
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "druzhba-cli-test-{}-{n}.domino",
        std::process::id()
    ));
    std::fs::write(&path, SAMPLING).expect("write temp domino file");
    path
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = druzhba(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "stderr: {err}");
}

#[test]
fn unknown_command_fails() {
    let out = druzhba(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn atoms_lists_the_library() {
    let out = druzhba(&["atoms"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for atom in [
        "raw",
        "sub",
        "if_else_raw",
        "pred_raw",
        "nested_ifs",
        "pair",
    ] {
        assert!(stdout.contains(atom), "missing atom `{atom}` in:\n{stdout}");
    }
    assert!(stdout.contains("stateless_full"));
}

#[test]
fn programs_lists_the_table1_corpus() {
    let out = druzhba(&["programs"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["blue_decrease", "sampling", "conga", "spam_detection"] {
        assert!(
            stdout.contains(name),
            "missing program `{name}` in:\n{stdout}"
        );
    }
}

#[test]
fn compile_emits_machine_code() {
    let path = write_sampling();
    let out = druzhba(&[
        "compile",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The machine code must program the whole grid, including the sampling
    // threshold as an if_else_raw immediate.
    assert!(stdout.contains("output_mux_phv_0_0"), "stdout: {stdout}");
    assert!(
        stdout.contains("stateful_alu_0_0_const_0 = 9"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compiled:"), "stderr: {stderr}");
    assert!(stderr.contains("\"sample\""), "stderr: {stderr}");
}

#[test]
fn fuzz_passes_on_a_correct_compilation() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "500",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("500 PHVs"), "stdout: {stdout}");
    assert!(stdout.contains("Pass"), "stdout: {stdout}");
}

#[test]
fn fuzz_campaign_shards_runs_across_workers() {
    let path = write_sampling();
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fuzz",
            path.to_str().unwrap(),
            "--depth",
            "2",
            "--width",
            "1",
            "--atom",
            "if_else_raw",
            "--phvs",
            "200",
        ];
        v.extend_from_slice(extra);
        v.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let out = druzhba(
        &args(&["--runs", "4", "--jobs", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("campaign[fused]: 4 runs x 200 PHVs"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("4 passed"), "stdout: {stdout}");

    // --jobs without a multi-run campaign is an explicit error, not a
    // silently serial run.
    let out = druzhba(
        &args(&["--jobs", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--runs"), "stderr: {err}");
}

#[test]
fn fuzz_accepts_hex_seed_and_reports_it() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "200",
        "--seed",
        "0xBEEF",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The seed is echoed so failing runs paste straight back into --seed.
    assert!(stdout.contains("seed 0xbeef"), "stdout: {stdout}");

    // A malformed seed is a flag error, not a silent default.
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--seed",
        "xyz",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad seed"), "stderr: {err}");
}

#[test]
fn fuzz_level_all_exercises_every_backend() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "200",
        "--level",
        "all",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for level in ["unoptimized", "scc", "scc_inline", "fused"] {
        assert!(
            stdout.contains(&format!("fuzz[{level}]")),
            "missing level `{level}` in:\n{stdout}"
        );
    }
}

#[test]
fn fuzz_edit_diverges_and_printed_seed_replays_it() {
    let path = write_sampling();
    let base = |extra: &[&str]| {
        let mut v = vec![
            "fuzz",
            path.to_str().unwrap(),
            "--depth",
            "2",
            "--width",
            "1",
            "--atom",
            "if_else_raw",
            "--phvs",
            "200",
        ];
        v.extend_from_slice(extra);
        v.into_iter().map(String::from).collect::<Vec<_>>()
    };
    // Reroute the sample-flag output mux: a mutant the fuzzer must catch.
    let args = base(&["--edit", "stateful_alu_0_0_const_0=8"]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!out.status.success(), "the edit must diverge");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The failure prints a minimized counterexample and an actionable
    // replay line carrying the seed and the edit.
    assert!(
        stdout.contains("minimized counterexample"),
        "stdout: {stdout}"
    );
    assert!(stderr.contains("--seed 0x"), "stderr: {stderr}");
    assert!(
        stderr.contains("--edit 'stateful_alu_0_0_const_0=8'"),
        "stderr: {stderr}"
    );
    // Extract the printed seed and paste it back: same divergence.
    let seed = stderr
        .split("--seed ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("failure message carries a seed")
        .to_string();
    let args = base(&["--edit", "stateful_alu_0_0_const_0=8", "--seed", &seed]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!out.status.success(), "replay must reproduce");
    let replay_err = String::from_utf8_lossy(&out.stderr);
    assert!(
        replay_err.contains(&format!("--seed {seed}")),
        "replay stderr: {replay_err}"
    );

    // Unknown pair names are flag errors, not silent no-ops.
    let args = base(&["--edit", "no_such_pair=1"]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a machine-code pair"), "stderr: {err}");
}

#[test]
fn fuzz_rejects_unknown_level() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--level",
        "9",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--level"), "stderr: {err}");
}

#[test]
fn verify_exhausts_small_input_space() {
    let path = write_sampling();
    let out = druzhba(&[
        "verify",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--bits",
        "2",
        "--packets",
        "3",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified"), "stdout: {stdout}");
    // Default coverage: every backend is differentially verified.
    for level in ["unoptimized", "scc", "scc_inline", "fused"] {
        assert!(
            stdout.contains(&format!("verified[{level}]")),
            "missing level `{level}` in:\n{stdout}"
        );
    }
}

/// Bounded verification of `tests/fixtures/verify_threshold.domino`
/// finds the `x > 1500` divergence at every level and through the lane
/// sweep, and the CLI minimizes each counterexample before printing it.
#[test]
fn verify_prints_a_minimized_counterexample_at_every_level() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/verify_threshold.domino"
    );
    let base = [
        "verify",
        fixture,
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--bits",
        "11",
        "--packets",
        "2",
    ];
    let runs: [(&[&str], &str); 5] = [
        (&["--level", "0"], "unoptimized"),
        (&["--level", "1"], "scc"),
        (&["--level", "2"], "scc_inline"),
        (&["--level", "3"], "fused"),
        (&["--lanes", "64"], "fused"),
    ];
    for (flags, level) in runs {
        let out = druzhba(&[&base[..], flags].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{flags:?}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.starts_with(&format!("counterexample[{level}]: ")),
            "{flags:?}: stdout: {stdout}"
        );
        assert!(
            stdout.ends_with(
                "minimized counterexample: 1 of 2 packet(s), 14 differential check(s)\n  \
                 packet 0: [1501, 0, 0]\n"
            ),
            "{flags:?}: stdout: {stdout}"
        );
    }
}

#[test]
fn verify_refusal_reports_the_true_case_count_past_u64() {
    // 9-bit inputs over 1 container x 8 packets: 2^72 cases, which the
    // refusal must print in full rather than saturated at u64::MAX.
    let rcp = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/programs/assets/rcp.domino"
    );
    let out = druzhba(&[
        "verify",
        rcp,
        "--depth",
        "3",
        "--width",
        "3",
        "--atom",
        "pred_raw",
        "--bits",
        "9",
        "--packets",
        "8",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains(
            "error: bounded verification needs 4722366482869645213696 cases \
             (> budget 10000000); shrink bits/packets/containers\n"
        ),
        "stderr: {err}"
    );
}

#[test]
fn verify_rejects_lane_flags_before_synthesis() {
    let rcp = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/programs/assets/rcp.domino"
    );
    let grid = ["--depth", "3", "--width", "3", "--atom", "pred_raw"];
    let cases: [(&[&str], &str); 2] = [
        (
            &["--lanes", "64", "--level", "0"],
            "combine it only with --level fused",
        ),
        (&["--lanes", "7"], "--lanes 7 is not a supported width"),
    ];
    for (flags, message) in cases {
        let out = druzhba(&[&["verify", rcp][..], &grid, flags].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: stderr: {err}");
        assert!(
            out.stdout.is_empty(),
            "{flags:?}: stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(err.contains(message), "{flags:?}: stderr: {err}");
        assert!(
            !err.contains("compiled:"),
            "{flags:?} synthesized first: {err}"
        );
    }
}

#[test]
fn hunt_smoke_detects_all_faults_and_emits_json() {
    let out = druzhba(&[
        "hunt",
        "--programs",
        "sampling",
        "--mutants",
        "1",
        "--phvs",
        "400",
        "--runs",
        "1",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("\"detection_rate\": 1.0000"),
        "stdout: {stdout}"
    );
    for key in [
        "\"removed_pair\"",
        "\"mutated_value\"",
        "\"out_of_range_value\"",
        "\"hostile_trap\"",
        "\"detected_by\": \"panic\"",
        "\"minimized\"",
        "\"essential_edits\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
    assert!(stderr.contains("detected"), "stderr: {stderr}");
}

#[test]
fn hunt_rejects_unknown_program() {
    let out = druzhba(&["hunt", "--programs", "nonexistent_program"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown program"), "stderr: {err}");
}

#[test]
fn compile_rejects_a_program_that_does_not_fit() {
    let path = write_sampling();
    // Depth 1 cannot hold the atom plus the dependent output flag.
    let out = druzhba(&[
        "compile",
        path.to_str().unwrap(),
        "--depth",
        "1",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
}

/// Every subcommand rejects a flag it does not read, naming the flag and
/// the command, instead of silently running with the defaults.
#[test]
fn unknown_flags_fail_loudly() {
    let file = write_sampling();
    let file = file.to_str().unwrap();
    let grid = ["--depth", "2", "--width", "1", "--atom", "if_else_raw"];
    let cases: [(&[&str], &str, &str); 8] = [
        (
            &["verify", file, "--bogus-flag", "5"],
            "--bogus-flag",
            "verify",
        ),
        // A typo of `--phvs`.
        (&["fuzz", file, "--phv", "100"], "--phv", "fuzz"),
        // Valid for `fuzz`, but `verify` does not read it.
        (&["verify", file, "--phvs", "100"], "--phvs", "verify"),
        (&["compile", file, "-x", "out.txt"], "-x", "compile"),
        (
            &["hunt", "--programs", "sampling", "--mutant", "1"],
            "--mutant",
            "hunt",
        ),
        (
            &["p4-fuzz", "l2_forward", "--phvs", "100", "--jsn"],
            "--jsn",
            "p4-fuzz",
        ),
        // The deleted coverage-guided mode's selector, on both commands.
        (&["fuzz", file, "--greybox", "10"], "--greybox", "fuzz"),
        (
            &["p4-fuzz", "l2_forward", "--greybox", "10"],
            "--greybox",
            "p4-fuzz",
        ),
    ];
    for (args, flag, cmd) in cases {
        let mut args = args.to_vec();
        if cmd != "hunt" && cmd != "p4-fuzz" {
            args.extend_from_slice(&grid);
        }
        let out = druzhba(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{flag}` for `{cmd}`")),
            "{args:?}: stderr: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

#[test]
fn cross_model_switch_takes_only_on_or_off() {
    let out = druzhba(&[
        "p4-fuzz",
        "l2_forward",
        "--phvs",
        "100",
        "--cross-model",
        "of",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--cross-model must be on|off, got `of`"),
        "stderr: {err}"
    );
    assert!(out.stdout.is_empty(), "the campaign ran before failing");

    let on = druzhba(&[
        "p4-fuzz",
        "l2_forward",
        "--phvs",
        "100",
        "--cross-model",
        "on",
    ]);
    assert!(on.status.success());
    assert!(String::from_utf8_lossy(&on.stdout).contains("cross-model[l2_forward]"));
}

#[test]
fn mode_inapplicable_and_repeated_flags_fail_loudly() {
    let file = write_sampling();
    let file = file.to_str().unwrap();
    let grid = ["--depth", "2", "--width", "1", "--atom", "if_else_raw"];
    let p4 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/programs/assets/p4/l2_forward.p4"
    );
    let rcp = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/programs/assets/rcp.domino"
    );
    let cases: [(&[&str], &str); 17] = [
        // Only the mutant campaign writes a report or caps its cases.
        (
            &["p4-fuzz", "l2_forward", "--out", "x.json"],
            "flag `--out` does not apply to `p4-fuzz` in single-run mode",
        ),
        (
            &["p4-fuzz", "l2_forward", "--case-budget", "3"],
            "flag `--case-budget` does not apply to `p4-fuzz` in single-run mode",
        ),
        (
            &["p4-fuzz", "l2_forward", "--runs", "3", "--out", "x.json"],
            "flag `--out` does not apply to `p4-fuzz` in campaign mode",
        ),
        // Only the plain runs add the cross-model check.
        (
            &[
                "p4-fuzz",
                "l2_forward",
                "--mutants",
                "1",
                "--cross-model",
                "off",
            ],
            "flag `--cross-model` does not apply to `p4-fuzz` in mutants mode",
        ),
        // Only the seeded campaign checkpoints.
        (
            &["fuzz", file, "--checkpoint", "ckpt"],
            "flag `--checkpoint` does not apply to `fuzz` in single-run mode",
        ),
        // Only `verify` sweeps the lane engine.
        (
            &["fuzz", file, "--lanes", "32"],
            "unknown flag `--lanes` for `fuzz`",
        ),
        (
            &["p4-fuzz", "--lanes", "32"],
            "unknown flag `--lanes` for `p4-fuzz`",
        ),
        // The generated-program hunt has no verification step.
        (
            &["hunt", "--generate", "2", "--verify-bits", "3"],
            "flag `--verify-bits` does not apply to `hunt` in generate mode",
        ),
        (
            &["hunt", "--generate", "2", "--verify-packets", "3"],
            "flag `--verify-packets` does not apply to `hunt` in generate mode",
        ),
        (
            &["hunt", "--generate", "2", "--case-budget", "1"],
            "flag `--case-budget` does not apply to `hunt` in generate mode",
        ),
        // A repeated flag never silently takes the last value.
        (
            &["fuzz", file, "--phvs", "100", "--phvs", "200"],
            "flag `--phvs` given twice for `fuzz`",
        ),
        // The input kind selects the mode: grid flags are Domino-only,
        // lowering flags P4-only, and a corpus name brings its own grid.
        (
            &["compile", p4, "--depth", "3"],
            "flag `--depth` does not apply to `compile` in p4-file mode",
        ),
        (
            &["emit", rcp, "--stages", "3", "--depth", "3"],
            "flag `--stages` does not apply to `emit` in domino-file mode",
        ),
        (
            &["analyze", "l2_forward", "--depth", "3"],
            "flag `--depth` does not apply to `analyze` in p4-program mode",
        ),
        (
            &[
                "analyze", "rcp", "--depth", "9", "--width", "9", "--atom", "nope",
            ],
            "flag `--depth` does not apply to `analyze` in domino-program mode",
        ),
        (
            &["analyze", "--symbolic", "--tables-per-stage", "2"],
            "flag `--tables-per-stage` does not apply to `analyze` in whole-corpus mode",
        ),
        // `--every` is the snapshot interval; without a checkpoint
        // directory there is nothing to snapshot.
        (
            &["hunt", "--every", "3", "--programs", "rcp"],
            "--every sets the snapshot interval; pass --checkpoint DIR or --resume DIR",
        ),
    ];
    for (args, message) in cases {
        let mut args = args.to_vec();
        if args[0] == "fuzz" {
            args.extend_from_slice(&grid);
        }
        let out = druzhba(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: stderr: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

#[test]
fn emit_accepts_level_names_and_rejects_all() {
    let file = write_sampling();
    let file = file.to_str().unwrap();
    let emit = |level: &str| {
        druzhba(&[
            "emit",
            file,
            "--depth",
            "2",
            "--width",
            "1",
            "--atom",
            "if_else_raw",
            "--level",
            level,
        ])
    };
    let named = emit("fused");
    let numbered = emit("3");
    assert!(named.status.success(), "{named:?}");
    assert!(!named.stdout.is_empty());
    assert_eq!(named.stdout, numbered.stdout, "`fused` is level 3");
    let all = emit("all");
    assert_eq!(all.status.code(), Some(1));
    let err = String::from_utf8_lossy(&all.stderr);
    assert!(err.contains("emit renders one backend"), "stderr: {err}");
}

/// `druzhba help` and the flag tables of docs/FUZZING.md list the same
/// flags for every command (and mode) the guide documents, both ways.
#[test]
fn help_and_the_fuzzing_guide_list_the_same_flags() {
    use std::collections::BTreeSet;

    let out = druzhba(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    // Flags `help` lists for `cmd`: every flag when `mode` is `None`,
    // else the unmarked ones plus those marked `[.., mode, ..]`.
    let help_flags = |cmd: &str, mode: Option<&str>| -> BTreeSet<String> {
        let head = format!("druzhba {cmd}");
        let block = help
            .split("\n\n")
            .find(|b| {
                b.lines()
                    .next()
                    .unwrap_or("")
                    .split(' ')
                    .take(2)
                    .eq(head.split(' '))
            })
            .unwrap_or_else(|| panic!("help has no `{head}` block:\n{help}"));
        block
            .lines()
            .filter(|l| l.trim_start().starts_with('-'))
            .filter(|l| {
                let marked = l
                    .ends_with(']')
                    .then(|| &l[l.rfind('[').unwrap() + 1..l.len() - 1]);
                match (marked, mode) {
                    (Some(modes), Some(mode)) => modes.split(", ").any(|m| m == mode),
                    _ => true,
                }
            })
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect()
    };

    let guide = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FUZZING.md"))
        .expect("read docs/FUZZING.md");
    // Flags named in the first column of the tables in the sections
    // whose headings start with one of `headings`.
    let guide_flags = |headings: &[&str]| -> BTreeSet<String> {
        let mut flags = BTreeSet::new();
        for section in guide.split("\n## ").skip(1) {
            if !headings.iter().any(|h| section.starts_with(h)) {
                continue;
            }
            for row in section.lines().filter(|l| l.starts_with("| `")) {
                let cell = row.split(" | ").next().unwrap();
                flags.extend(
                    cell.split(|c: char| c == '`' || c.is_whitespace())
                        .filter(|t| t.starts_with('-') && t.len() > 2)
                        .map(str::to_string),
                );
            }
        }
        flags
    };

    let runtime = "Checkpoint, resume, and budgets";
    let cases: [(&str, Option<&str>, Vec<&str>); 5] = [
        ("fuzz", None, vec!["`druzhba fuzz`", runtime]),
        ("verify", None, vec!["`druzhba verify"]),
        ("p4-fuzz", None, vec!["`druzhba p4-fuzz`", runtime]),
        ("hunt", Some("corpus"), vec!["`druzhba hunt` ", runtime]),
        (
            "hunt",
            Some("generate"),
            vec!["`druzhba hunt --generate`", runtime],
        ),
    ];
    for (cmd, mode, headings) in cases {
        let documented = guide_flags(&headings);
        let listed = help_flags(cmd, mode);
        assert!(!listed.is_empty(), "{cmd} {mode:?}: no flags in help");
        assert_eq!(
            listed.difference(&documented).collect::<Vec<_>>(),
            Vec::<&String>::new(),
            "{cmd} {mode:?}: flags in help but not in docs/FUZZING.md"
        );
        assert_eq!(
            documented.difference(&listed).collect::<Vec<_>>(),
            Vec::<&String>::new(),
            "{cmd} {mode:?}: flags in docs/FUZZING.md but not in help"
        );
    }
}
