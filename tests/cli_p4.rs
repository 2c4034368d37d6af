//! Golden-file tests of the `druzhba` CLI's P4 input paths: `compile`
//! and `emit` on a `.p4` file render byte-stable lowering reports and
//! pipeline sources (committed under `tests/golden/`), and `p4-fuzz`
//! runs the differential workflow end to end with deterministic output.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A compact program exercising exact + LPM matching, action parameters,
/// a register, a counter, a default action, and a match-dependent chain.
const DEMO_P4: &str = r#"
header_type ip_t { fields { dst : 32; ttl : 8; } }
header_type meta_t { fields { nhop : 16; } }
header ip_t ip;
metadata meta_t meta;
parser start { extract(ip); return ingress; }
register last_hop { width : 32; instance_count : 2; }
counter routed { instance_count : 2; }
action set_nhop(hop, class) {
    modify_field(meta.nhop, hop);
    register_write(last_hop, class, hop);
    subtract_from_field(ip.ttl, 1);
}
action tally() { count(routed, 0); }
action unreachable() { drop(); }
table route {
    reads { ip.dst : lpm; }
    actions { set_nhop; unreachable; }
    default_action : unreachable;
}
table audit { reads { meta.nhop : ternary; } actions { tally; } }
control ingress { apply(route); apply(audit); }
"#;

const DEMO_ENTRIES: &str = "route : ip.dst=0x0A000000/8 => set_nhop(1, 0)\n\
                            route : ip.dst=0x0A010000/16 => set_nhop(2, 1)\n\
                            audit : meta.nhop=1/0xff => tally()\n";

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

/// Write the demo program + entries as `golden_demo.p4` in a fresh temp
/// directory (the file stem appears in CLI output, so it must be fixed).
fn write_demo() -> (PathBuf, PathBuf) {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("druzhba-cli-p4-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let p4 = dir.join("golden_demo.p4");
    std::fs::write(&p4, DEMO_P4).expect("write p4 file");
    let entries = dir.join("golden_demo.entries");
    std::fs::write(&entries, DEMO_ENTRIES).expect("write entries file");
    (dir, p4)
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

fn assert_matches_golden(actual: &str, name: &str) {
    let expected = golden(name);
    assert_eq!(
        actual, expected,
        "output drifted from tests/golden/{name}; if the change is \
         intentional, regenerate the golden file"
    );
}

#[test]
fn compile_p4_renders_the_lowering_report() {
    let (dir, p4) = write_demo();
    let out = druzhba(&["compile", p4.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_matches_golden(&String::from_utf8_lossy(&out.stdout), "p4_compile.txt");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lowered:"), "stderr: {stderr}");
}

#[test]
fn emit_p4_level_1_renders_resolved_source() {
    let (dir, p4) = write_demo();
    let out = druzhba(&["emit", p4.to_str().unwrap(), "--level", "1"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_matches_golden(&String::from_utf8_lossy(&out.stdout), "p4_emit_level1.txt");
}

#[test]
fn emit_p4_level_3_renders_the_fused_program() {
    let (dir, p4) = write_demo();
    let out = druzhba(&["emit", p4.to_str().unwrap(), "--level", "3"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_matches_golden(&String::from_utf8_lossy(&out.stdout), "p4_emit_level3.txt");
}

#[test]
fn p4_fuzz_runs_the_differential_workflow() {
    let (dir, p4) = write_demo();
    let out = druzhba(&[
        "p4-fuzz",
        p4.to_str().unwrap(),
        "--phvs",
        "400",
        "--level",
        "all",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_matches_golden(&String::from_utf8_lossy(&out.stdout), "p4_fuzz.txt");
}

#[test]
fn p4_fuzz_corpus_name_resolves() {
    let out = druzhba(&[
        "p4-fuzz",
        "acl_ternary",
        "--phvs",
        "200",
        "--level",
        "3",
        "--cross-model",
        "off",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p4-fuzz[acl_ternary:fused]"), "{stdout}");
    assert!(stdout.contains("Pass"), "{stdout}");
    assert!(!stdout.contains("cross-model"), "{stdout}");
}

#[test]
fn p4_fuzz_mutants_mode_detects_and_reports_json() {
    let out = druzhba(&[
        "p4-fuzz",
        "l2_forward",
        "--mutants",
        "1",
        "--phvs",
        "600",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"detection_rate\": 1.0000"), "{stdout}");
    assert!(stdout.contains("\"mutants\": ["), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(100.0%)"), "{stderr}");
}

#[test]
fn p4_fuzz_mutants_work_on_ad_hoc_files() {
    // Fault injection is the CLI's divergence demo: the entries file is
    // the *specification* (editing it moves both sides of the oracle),
    // so seeded mutants are how table/action faults are exercised.
    let (dir, p4) = write_demo();
    let out = druzhba(&[
        "p4-fuzz",
        p4.to_str().unwrap(),
        "--mutants",
        "1",
        "--phvs",
        "500",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"program\": \"golden_demo\""), "{stdout}");
    assert!(stdout.contains("\"detection_rate\": 1.0000"), "{stdout}");
    assert!(stdout.contains("\"minimized\": {"), "{stdout}");
}

#[test]
fn p4_fuzz_rejects_unbindable_entries() {
    let (dir, p4) = write_demo();
    let entries = dir.join("golden_demo.entries");
    std::fs::write(&entries, DEMO_ENTRIES.replace("audit :", "ghost_table :")).unwrap();
    let out = druzhba(&["p4-fuzz", p4.to_str().unwrap(), "--phvs", "100"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown table"), "stderr: {stderr}");
}

#[test]
fn p4_fuzz_rejects_a_duplicate_declaration() {
    let (dir, p4) = write_demo();
    std::fs::write(
        &p4,
        "header_type h_t { fields { a : 8; } }\nheader h_t pkt; header h_t pkt;\n",
    )
    .unwrap();
    let out = druzhba(&["p4-fuzz", p4.to_str().unwrap(), "--phvs", "100"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(out.stdout, b"");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: P4 parse error at line 0: header instance `pkt` is declared more than once\n"
    );
}

#[test]
fn fuzz_rejects_p4_inputs_with_a_pointer() {
    let (dir, p4) = write_demo();
    let out = druzhba(&["fuzz", p4.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("p4-fuzz"), "stderr: {stderr}");
}

#[test]
fn programs_lists_the_p4_corpus() {
    let out = druzhba(&["programs"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "l2_forward",
        "acl_ternary",
        "lpm_router",
        "flow_meter",
        "guarded_mirror",
    ] {
        assert!(stdout.contains(name), "missing `{name}` in:\n{stdout}");
    }
}

#[test]
fn unknown_p4_target_reports_cleanly() {
    let out = druzhba(&["p4-fuzz", "no_such_program"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("neither a .p4 file nor a P4 corpus program"),
        "stderr: {stderr}"
    );
}

#[test]
fn p4_fuzz_rejects_target_flags_its_target_does_not_read() {
    let cases: &[&[&str]] = &[
        &["p4-fuzz", "l2_forward", "--entries", "/nonexistent.entries"],
        &[
            "p4-fuzz",
            "--entries",
            "/nonexistent.entries",
            "--phvs",
            "10",
        ],
        &[
            "p4-fuzz",
            "--generate",
            "1",
            "--stages",
            "1",
            "--entries",
            "/nope",
        ],
        &["p4-fuzz", "--generate", "1", "--stages", "1"],
        &["p4-fuzz", "--generate", "1", "--tables-per-stage", "2"],
    ];
    for args in cases {
        let out = druzhba(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = args
            .iter()
            .any(|a| a.starts_with("--") && stderr.contains(&format!("flag `{a}` does not apply")));
        assert!(named, "{args:?} must name the flag; stderr: {stderr}");
    }
    // A `.p4` file reads `--entries` (and the lowering flags).
    let (dir, p4) = write_demo();
    let entries = dir.join("golden_demo.entries");
    let out = druzhba(&[
        "p4-fuzz",
        p4.to_str().unwrap(),
        "--entries",
        entries.to_str().unwrap(),
        "--stages",
        "12",
        "--phvs",
        "50",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn p4_mutants_json_carries_executions_to_detection() {
    let out = druzhba(&[
        "p4-fuzz",
        "l2_forward",
        "--mutants",
        "1",
        "--phvs",
        "400",
        "--runs",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"executions_to_detection\":"),
        "p4-fuzz --mutants JSON must surface executions-to-detection:\n{stdout}"
    );
}
