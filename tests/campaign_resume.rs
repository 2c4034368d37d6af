//! The resumable campaign engine's on-disk contract: every campaign kind
//! keeps its version-1 checkpoint line format byte for byte, and a P4 hunt
//! and the seeded campaigns of both stacks resume from their checkpoints
//! to the identical report.

use std::fs;
use std::path::PathBuf;

use druzhba::dgen::OptLevel;
use druzhba::dsim::fault::FaultKind;
use druzhba::dsim::p4::{P4FaultKind, P4Target};
use druzhba::dsim::runtime::{RecordCodec, RuntimeOptions};
use druzhba::dsim::snapshot;
use druzhba::dsim::testing::{
    fuzz_campaign, AluTarget, CampaignConfig, CampaignReport, FuzzConfig, FuzzReport, Target,
    Verdict, VerdictClass,
};
use druzhba::genhunt::GenRecord;
use druzhba::hunt::EvalRecord;
use druzhba::p4hunt::{p4_hunt, P4EvalRecord, P4HuntConfig};

/// Decode `line` as a `R` record and re-encode it: the bytes must survive.
fn round_trip<R: RecordCodec>(line: &str) -> (usize, R) {
    let (idx, record) = R::decode(line).expect("v1 fixture line decodes");
    assert_eq!(
        record.encode(idx).as_deref(),
        Some(line),
        "re-encoding drifted"
    );
    (idx, record)
}

#[test]
fn hunt_v1_line_round_trips() {
    let line = [
        "12",
        "sampling",
        "hostile_trap",
        "unoptimized",
        "panic",
        "structural",
        "backend_panic",
        "1",
        r#"    {"program": "sampling", "fault": {"kind": "hostile_trap", "name": "stateless_alu_1_0_const_13", "old": 0}, "level": "unoptimized", "static_flag": "structural", "detected_by": "panic", "seed": 3284790051838081140, "executions_to_detection": 1, "verdict": "backend_panic", "minimized": null}"#,
    ]
    .join("\t");
    let (idx, r) = round_trip::<EvalRecord>(&line);
    assert_eq!(idx, 12);
    assert_eq!(r.fault_kind, FaultKind::HostileTrap);
    assert_eq!(r.level, OptLevel::Unoptimized);
    assert_eq!(r.detector, "panic");
    assert_eq!(r.verdict_class, VerdictClass::BackendPanic);
}

#[test]
fn p4_hunt_v1_line_round_trips() {
    let line = [
        "1",
        "l2_forward",
        "removed_entry",
        "scc",
        "fuzz",
        "container_mismatch",
        "1",
        r#"    {"program": "l2_forward", "fault": {"kind": "removed_entry", "table": "forward", "priority": 2}, "level": "scc", "detected_by": "fuzz", "seed": 15163469125773510546, "executions_to_detection": 1, "verdict": "container_mismatch", "minimized": {"original_packets": 200, "packets": 1, "input": [[3, 0, 0, 0, 0]], "checks": 12}}"#,
    ]
    .join("\t");
    let (idx, r) = round_trip::<P4EvalRecord>(&line);
    assert_eq!(idx, 1);
    assert_eq!(r.fault_kind, P4FaultKind::RemovedEntry);
    assert_eq!(r.level, OptLevel::Scc);
    assert_eq!(r.verdict_class, VerdictClass::ContainerMismatch);
}

#[test]
fn genhunt_v1_line_round_trips() {
    let line = [
        "0",
        "gen_0000000000000007_0",
        "3x2:pred_raw",
        "0",
        "0",
        "0",
        "1",
        "1",
        "1",
        "0",
        r#"    {"name": "gen_0000000000000007_0", "index": 0, "grid": "3x2:pred_raw", "atom": "pred_raw", "recipe": "druzhba generate --seed 0x7 --index 0", "rejected": 0, "clean_divergences": [], "faults": [{"fault": {"kind": "removed_pair", "name": "stateless_alu_1_0_const_12"}, "detected": true, "level": "unoptimized", "seed": 2283554252737622676, "verdict": "incompatible", "minimized": {"size_before": 4, "size_after": 2, "checks": 2, "source": "state int total = 0;\npkt.out0 = total;\n"}}]}"#,
    ]
    .join("\t");
    let (idx, r) = round_trip::<GenRecord>(&line);
    assert_eq!((idx, r.index), (0, 0));
    assert_eq!((r.faults_seeded, r.faults_detected, r.minimized), (1, 1, 1));
    assert!(!r.panicked);
}

#[test]
fn campaign_v1_line_round_trips() {
    let (run, r) = round_trip::<FuzzReport>("pass 2 100 11081701098249266538");
    assert_eq!(run, 2);
    assert_eq!(r.verdict, Verdict::Pass);
    assert_eq!((r.phvs_tested, r.seed), (100, 11081701098249266538));
}

#[test]
fn p4_campaign_v1_line_round_trips() {
    let (run, r) = round_trip::<FuzzReport>("pass 1 1500 16439868420296266003");
    assert_eq!(run, 1);
    assert_eq!((r.phvs_tested, r.seed), (1500, 16439868420296266003));
    // A failed run is never checkpointed: it re-runs on resume.
    let failed = FuzzReport {
        verdict: Verdict::BackendPanic {
            payload: "boom".into(),
        },
        ..r
    };
    assert_eq!(failed.encode(1), None);
}

fn p4_config(ckpt: Option<PathBuf>, resume: bool) -> P4HuntConfig {
    P4HuntConfig {
        programs: vec!["l2_forward".into()],
        mutants_per_class: 1,
        fuzz_phvs: 200,
        fuzz_runs: 1,
        workers: 2,
        runtime: RuntimeOptions {
            checkpoint_dir: ckpt,
            checkpoint_every: 1,
            resume,
            budget_secs: None,
        },
        ..P4HuntConfig::default()
    }
}

#[test]
fn resumed_p4_hunt_report_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("druzhba-p4-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let clean = p4_hunt(&p4_config(None, false)).unwrap();
    let total = clean.evaluations();

    // Lose the newest snapshot: resume falls back to the rotated one and
    // restores every record it holds instead of re-evaluating.
    p4_hunt(&p4_config(Some(dir.clone()), false)).unwrap();
    fs::remove_file(snapshot::current_path(&dir, "p4-hunt")).unwrap();
    let resumed = p4_hunt(&p4_config(Some(dir.clone()), true)).unwrap();
    assert_eq!(
        resumed.to_json(),
        clean.to_json(),
        "resumed report diverged"
    );
    assert!(resumed.outcomes.len() < total, "nothing was restored");

    // Keep only the first half of the records: the rest re-run and land
    // on the same report.
    let fingerprint_of_run = {
        let text = fs::read_to_string(snapshot::current_path(&dir, "p4-hunt")).unwrap();
        let hex = text.lines().nth(1).unwrap().strip_prefix("fingerprint ");
        u64::from_str_radix(hex.unwrap(), 16).unwrap()
    };
    let lines = snapshot::load_latest(&dir, "p4-hunt", fingerprint_of_run)
        .lines
        .unwrap();
    assert_eq!(lines.len(), total);
    snapshot::save(&dir, "p4-hunt", fingerprint_of_run, &lines[..total / 2]).unwrap();
    let resumed = p4_hunt(&p4_config(Some(dir.clone()), true)).unwrap();
    assert_eq!(
        resumed.to_json(),
        clean.to_json(),
        "partial resume diverged"
    );
    assert_eq!(resumed.outcomes.len(), total - total / 2);
    let _ = fs::remove_dir_all(&dir);
}

/// One seeded campaign on `target`, at `workers` workers under `runtime`.
fn campaign<R, T: Target<R>>(
    target: &T,
    make_reference: impl Fn() -> R + Sync,
    base: &FuzzConfig,
    workers: usize,
    runtime: &RuntimeOptions,
) -> CampaignReport {
    let cfg = CampaignConfig {
        runs: 6,
        workers,
        base: base.clone(),
    };
    fuzz_campaign(target, make_reference, &cfg, runtime)
}

/// The seeded-campaign contract, written once for any [`Target`]: the
/// report is the same at 1 and 4 workers, and a checkpointed campaign
/// resumed after losing its newest snapshot reproduces it exactly.
fn assert_resumes_to_clean_report<R, T: Target<R>>(
    label: &str,
    target: &T,
    make_reference: impl Fn() -> R + Sync,
    base: &FuzzConfig,
) -> CampaignReport {
    let none = RuntimeOptions::default();
    let clean = campaign(target, &make_reference, base, 2, &none);
    assert_eq!(clean.runs.len(), 6, "{label}");
    for workers in [1, 4] {
        let sharded = campaign(target, &make_reference, base, workers, &none);
        assert_eq!(sharded, clean, "{label}: {workers} worker(s)");
    }
    let dir = std::env::temp_dir().join(format!(
        "druzhba-seeded-resume-{}-{label}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let checkpointed = RuntimeOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..RuntimeOptions::default()
    };
    let first = campaign(target, &make_reference, base, 2, &checkpointed);
    assert_eq!(first, clean, "{label}: checkpointing perturbed the report");
    // Die before the last snapshot landed: resume from the previous one.
    fs::remove_file(snapshot::current_path(&dir, T::CAMPAIGN)).unwrap();
    let resumed = RuntimeOptions {
        resume: true,
        ..checkpointed
    };
    let again = campaign(target, &make_reference, base, 4, &resumed);
    assert_eq!(again, clean, "{label}: resumed report differs");
    let _ = fs::remove_dir_all(&dir);
    clean
}

#[test]
fn seeded_campaigns_resume_to_the_clean_report_on_both_stacks() {
    let def = druzhba::programs::by_name("sampling").unwrap();
    let compiled = def.compile_cached().unwrap();
    let base = def.fuzz_config(&compiled, 200);
    let mut faulty = compiled.machine_code.clone();
    faulty.set("output_mux_phv_0_1", 1);
    for (label, mc) in [("alu", &compiled.machine_code), ("alu-faulty", &faulty)] {
        let target = AluTarget::new(&compiled.pipeline_spec, mc, OptLevel::Fused, &base);
        let report =
            assert_resumes_to_clean_report(label, &target, || def.hand_spec(&compiled), &base);
        // Failed runs are not checkpointed: the faulty campaign checks
        // that resume re-derives them.
        assert_eq!(report.passed(), mc == &compiled.machine_code, "{label}");
    }

    let w = druzhba::programs::p4_by_name("lpm_router")
        .unwrap()
        .workload()
        .unwrap();
    let mut bad = w.entries.clone();
    bad[0].args[0] ^= 1;
    let base = FuzzConfig {
        num_phvs: 200,
        input_bits: 16,
        ..FuzzConfig::default()
    };
    for (label, entries) in [("p4", &w.entries), ("p4-faulty", &bad)] {
        let target = P4Target {
            workload: &w,
            entries,
            level: OptLevel::Fused,
        };
        let report = assert_resumes_to_clean_report(label, &target, || (), &base);
        assert_eq!(report.passed(), entries == &w.entries, "{label}");
    }
}
