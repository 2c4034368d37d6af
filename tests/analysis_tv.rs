//! Static translation validation over the corpus, the pinned analyzer
//! baseline, and CLI smoke tests for the `analyze` / `--lint` surface.
//!
//! The golden file `tests/golden/analyze.json` is the byte-exact output
//! of `druzhba analyze --json` over the 17 corpus programs: any new
//! warning, any lost lint, and any translation-validation mismatch fails
//! CI until the baseline is deliberately regenerated with
//! `druzhba analyze --json --out tests/golden/analyze.json`.

use std::process::{Command, Output};

use druzhba::analysis::{Screened, SymbolicVerdict};
use druzhba::analyze::analyze_corpus;

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn corpus_translation_validation_is_clean() {
    let analysis = analyze_corpus(false).expect("corpus analyzes");
    assert_eq!(analysis.programs.len(), 17, "12 Domino + 5 P4 programs");
    assert_eq!(
        analysis.tv_mismatches(),
        0,
        "every compiled form must be abstractly compatible with its source:\n{}",
        analysis.to_text()
    );
    // Every Table 1 program carries observable behavior the screen must
    // not reject as trivial (they all ship as fuzz targets).
    for p in analysis.programs.iter().filter(|p| p.kind == "domino") {
        assert_eq!(
            p.screen,
            Some(Screened::Interesting),
            "{}: corpus programs screen as interesting",
            p.name
        );
    }
}

#[test]
fn analyzer_output_matches_golden_baseline() {
    let analysis = analyze_corpus(false).expect("corpus analyzes");
    let expected = golden("analyze.json");
    assert_eq!(
        analysis.to_json(),
        expected,
        "analyzer drifted from tests/golden/analyze.json (new warning, lost \
         lint, or TV change); if intentional, regenerate with \
         `druzhba analyze --json --out tests/golden/analyze.json`"
    );
}

#[test]
fn cli_analyze_runs_the_corpus() {
    let out = druzhba(&["analyze"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("analyze: 17 program(s), 0 TV mismatch(es)"),
        "{stdout}"
    );
}

#[test]
fn cli_analyze_json_matches_golden_baseline() {
    let out = druzhba(&["analyze", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("analyze.json"),
        "CLI JSON output must be byte-identical to the golden baseline"
    );
}

#[test]
fn cli_analyze_single_program_by_name() {
    let out = druzhba(&["analyze", "blue_increase"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("blue_increase [domino]:"), "{stdout}");
    assert!(stdout.contains("screen: interesting"), "{stdout}");
}

#[test]
fn cli_p4_fuzz_lint_reports_diagnostics_before_fuzzing() {
    let out = druzhba(&[
        "p4-fuzz",
        "guarded_mirror",
        "--lint",
        "--phvs",
        "50",
        "--level",
        "3",
        "--cross-model",
        "off",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("lint[guarded_mirror]: 2 diagnostic(s), 0 TV mismatch(es)"),
        "{stderr}"
    );
    assert!(stderr.contains("unreachable-table"), "{stderr}");
    assert!(stderr.contains("invalid-header-read"), "{stderr}");
}

#[test]
fn cli_analyze_reports_the_semantic_p4_lints() {
    // A zero-length LPM prefix, and a `resolve` entry keyed on a next hop
    // that no `route` action ever sets. The later files list a `/0` route
    // before the `/8` one, so LPM selection re-sorts `route`, and every
    // lint must still name its entry by its index in the file.
    let cases = [
        (
            "lpm_router_lints",
            [
                "note [lpm-always-match] stage 0 pc 2: entry 1 of table `route` uses a \
                 zero-length LPM prefix (matches every packet)",
                "warning [unreachable-entry] stage 1 pc 2: entry 1 of table `resolve` can \
                 never match any reachable packet",
            ],
        ),
        (
            "lpm_router_lints_reordered",
            [
                "note [lpm-always-match] stage 0 pc 1: entry 0 of table `route` uses a \
                 zero-length LPM prefix (matches every packet)",
                "warning [unreachable-entry] stage 1 pc 2: entry 1 of table `resolve` can \
                 never match any reachable packet",
            ],
        ),
        (
            "lpm_router_shadowed",
            [
                "note [lpm-always-match] stage 0 pc 1: entry 0 of table `route` uses a \
                 zero-length LPM prefix (matches every packet)",
                "warning [unreachable-entry] stage 0 pc 2: entry 1 of table `route` can \
                 never match any reachable packet",
            ],
        ),
    ];
    let root = env!("CARGO_MANIFEST_DIR");
    let program = format!("{root}/crates/programs/assets/p4/lpm_router.p4");
    for (fixture, expected) in cases {
        let entries = format!("{root}/tests/fixtures/{fixture}.entries");
        let out = druzhba(&["analyze", &program, "--entries", &entries]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{fixture}: {stdout}");
        assert!(
            stdout.contains("lpm_router [p4]: 0 TV mismatch(es), 2 diagnostic(s)"),
            "{fixture}: {stdout}"
        );
        let diagnostics: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("  lpm_router: "))
            .collect();
        assert_eq!(diagnostics, expected, "{fixture}: {stdout}");
    }
}

// ---------------------------------------------------------------------------
// Exit-code matrix (documented in docs/FUZZING.md):
//   0 — clean corpus, or lint diagnostics only
//   1 — operational error (unknown program, unreadable file)
//   2 — proven miscompilation (abstract TV mismatch or symbolic refutation)
// ---------------------------------------------------------------------------

#[test]
fn cli_analyze_exits_zero_on_clean_corpus_with_lints() {
    // The corpus carries Note-severity lints but no proven
    // miscompilation, so the documented exit code is 0.
    let out = druzhba(&["analyze"]);
    assert_eq!(out.status.code(), Some(0), "lint-only analysis exits 0");
}

#[test]
fn cli_analyze_exits_one_on_operational_error() {
    let out = druzhba(&["analyze", "no_such_program"]);
    assert_eq!(out.status.code(), Some(1), "bad arguments exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_program"), "{stderr}");
}

#[test]
fn exit_code_two_for_proven_miscompilation() {
    use druzhba::analyze::{CorpusAnalysis, ProgramAnalysis};

    let clean = ProgramAnalysis {
        name: "clean".into(),
        kind: "domino",
        tv_mismatches: Vec::new(),
        diagnostics: Vec::new(),
        screen: None,
        proven_dead: Vec::new(),
        imprecision: Vec::new(),
        symbolic: Some(SymbolicVerdict::Proved),
    };
    assert_eq!(
        CorpusAnalysis {
            programs: vec![clean.clone()]
        }
        .exit_code(),
        0,
        "proved programs exit 0"
    );

    let mut tv_bad = clean.clone();
    tv_bad.tv_mismatches = vec!["scc_inline: container 0 escapes".into()];
    assert_eq!(
        CorpusAnalysis {
            programs: vec![clean.clone(), tv_bad]
        }
        .exit_code(),
        2,
        "an abstract TV mismatch anywhere in the corpus exits 2"
    );

    let mut refuted = clean.clone();
    refuted.symbolic = Some(SymbolicVerdict::Refuted {
        level: "fused",
        site: "container 1".into(),
        cex: vec![0, 0],
    });
    assert_eq!(
        CorpusAnalysis {
            programs: vec![clean, refuted]
        }
        .exit_code(),
        2,
        "a symbolic refutation anywhere in the corpus exits 2"
    );
}

// ---------------------------------------------------------------------------
// Symbolic translation validation over the corpus.
// ---------------------------------------------------------------------------

#[test]
fn corpus_symbolic_validation_proves_every_program() {
    let analysis = analyze_corpus(true).expect("corpus analyzes");
    for p in &analysis.programs {
        assert_eq!(
            p.symbolic,
            Some(SymbolicVerdict::Proved),
            "{}: every corpus program must be symbolically proved on every \
             backend pair (no Unknown residuals, no refutations)",
            p.name
        );
    }
    assert_eq!(analysis.exit_code(), 0);
}

#[test]
fn cli_analyze_symbolic_json_matches_golden_baseline() {
    let out = druzhba(&["analyze", "--json", "--symbolic"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("analyze_symbolic.json"),
        "symbolic analyzer drifted from tests/golden/analyze_symbolic.json; \
         if intentional, regenerate with \
         `druzhba analyze --json --symbolic --out tests/golden/analyze_symbolic.json`"
    );
}
