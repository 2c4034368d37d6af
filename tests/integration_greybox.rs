//! End-to-end tests of the coverage-guided greybox campaigns on both
//! differential stacks: detection of injected faults, determinism under a
//! fixed `(seed, workers)` pair, and the CLI surface (`fuzz --greybox`,
//! `p4-fuzz --greybox`).

use std::process::{Command, Output};

use druzhba::dgen::OptLevel;
use druzhba::dsim::coverage::{greybox_fuzz_test, p4_greybox_fuzz_test, GreyboxConfig};
use druzhba::dsim::fault::{FaultInjector, FaultKind};
use druzhba::dsim::p4::{apply_fault, P4FaultInjector, P4FaultKind};
use druzhba::dsim::testing::Verdict;
use druzhba::programs::{by_name, p4_by_name};

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

/// Four merge rounds of 2 shards x 64 executions after 4 bootstrap seeds.
fn small_cfg() -> GreyboxConfig {
    GreyboxConfig {
        executions: 400,
        packets: 12,
        workers: 2,
        ..GreyboxConfig::default()
    }
}

#[test]
fn greybox_detects_injected_machine_code_faults_on_a_corpus_program() {
    let def = by_name("sampling").expect("corpus program");
    let comp = def.compile_cached().expect("compiles");
    let mut injector = FaultInjector::new(7);
    for kind in FaultKind::ALL {
        let (mc, fault) = injector
            .inject(&comp.pipeline_spec, &comp.machine_code, kind)
            .expect("injectable");
        let report = greybox_fuzz_test(
            &comp.pipeline_spec,
            &mc,
            OptLevel::Fused,
            || def.interpreter_spec(&comp),
            Some(&comp.observable_containers()),
            &comp.state_cells,
            &small_cfg(),
        );
        match kind {
            // Structural faults are rejected at pipeline generation:
            // the first execution must already diverge.
            FaultKind::RemovedPair | FaultKind::OutOfRangeValue => {
                assert!(
                    matches!(report.verdict, Verdict::Incompatible(_)),
                    "{fault:?}: {:?}",
                    report.verdict
                );
                assert_eq!(report.first_divergence, Some(1), "{fault:?}");
            }
            // A value mutation may be behaviorally neutral (an encoding
            // variant); when it is not, the campaign must both find it
            // and carry a minimized counterexample.
            FaultKind::MutatedValue => {
                if let Some(at) = report.first_divergence {
                    assert!(at <= report.executions);
                    assert!(report.diverging_input.is_some(), "{fault:?}");
                    assert!(report.minimized.is_some(), "{fault:?}");
                }
            }
            // The hostile trap panics pipeline generation on the first
            // execution; panic isolation must convert that into a
            // BackendPanic divergence (never an abort), with nothing to
            // minimize.
            FaultKind::HostileTrap => {
                assert!(
                    matches!(report.verdict, Verdict::BackendPanic { .. }),
                    "{fault:?}: {:?}",
                    report.verdict
                );
                assert_eq!(report.first_divergence, Some(1), "{fault:?}");
                assert!(report.minimized.is_none(), "{fault:?}");
            }
        }
    }
}

#[test]
fn greybox_detects_injected_table_faults_on_the_p4_corpus() {
    let def = p4_by_name("l2_forward").expect("corpus program");
    let workload = def.workload().expect("lowers");
    let mut injector = P4FaultInjector::new(11);
    let mut detected = 0;
    for kind in P4FaultKind::ALL {
        let (entries, fault) = injector
            .inject(&workload.entries, kind)
            .expect("injectable");
        let report = p4_greybox_fuzz_test(
            &workload,
            &entries,
            OptLevel::SccInline,
            false,
            &small_cfg(),
        );
        if let Some(at) = report.first_divergence {
            detected += 1;
            assert!(at <= report.executions, "{fault:?}");
            let mce = report.minimized.expect("minimized");
            // The fault replays from the report: apply it to the corpus
            // baseline and re-run the minimized input through the plain
            // case runner.
            let rebuilt = apply_fault(&workload.entries, &fault).expect("fault fits baseline");
            assert_eq!(rebuilt, entries, "{fault:?}");
            let v = druzhba::dsim::p4::run_p4_case(
                &workload,
                &rebuilt,
                OptLevel::SccInline,
                &mce.input,
            );
            assert_eq!(v.class(), mce.verdict.class(), "{fault:?}");
        }
    }
    assert!(detected >= 2, "only {detected} of 3 fault classes detected");
}

#[test]
fn greybox_reports_are_a_pure_function_of_seed_and_workers() {
    let def = p4_by_name("acl_ternary").expect("corpus program");
    let workload = def.workload().expect("lowers");
    let cfg = GreyboxConfig {
        executions: 400, // three merge rounds of 3 shards x 64
        packets: 8,
        workers: 3,
        ..GreyboxConfig::default()
    };
    let a = p4_greybox_fuzz_test(&workload, &workload.entries, OptLevel::Fused, true, &cfg);
    let b = p4_greybox_fuzz_test(&workload, &workload.entries, OptLevel::Fused, true, &cfg);
    assert_eq!(a, b, "same seed + same workers must reproduce exactly");
}

#[test]
fn campaign_seed_actually_drives_input_generation() {
    // The engine must consume the campaign seed: different seeds must
    // bootstrap from different traffic and mutate along different
    // streams. Checked at the model level, where the difference is
    // deterministic (whole-report inequality between two clean campaigns
    // is not guaranteed — small programs can saturate identically).
    use druzhba::core::ValueGen;
    use druzhba::dsim::coverage::{AluTraceModel, InputModel};
    let model = AluTraceModel {
        phv_length: 3,
        input_bits: 10,
        max_packets: 16,
    };
    let a = model.seed_input(&mut ValueGen::new(1, 32), 8);
    let b = model.seed_input(&mut ValueGen::new(2, 32), 8);
    assert_ne!(
        a, b,
        "different seeds must yield different bootstrap inputs"
    );
    let mut ma = a.clone();
    let mut mb = a;
    model.mutate(&mut ValueGen::new(1, 32), &mut ma);
    model.mutate(&mut ValueGen::new(2, 32), &mut mb);
    assert_ne!(ma, mb, "different seeds must yield different mutations");
}

// ----------------------------------------------------------------------
// CLI surface.
// ----------------------------------------------------------------------

const SAMPLING: &str = "state int count = 0;\n\
                        if (count == 9) { count = 0; pkt.sample = 1; }\n\
                        else { count = count + 1; pkt.sample = 0; }\n";

fn write_sampling() -> std::path::PathBuf {
    // Unique per call: tests run concurrently within one process, and a
    // shared path lets one test truncate the file another test's binary
    // is reading.
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("druzhba-greybox-{}-{n}.domino", std::process::id()));
    std::fs::write(&path, SAMPLING).expect("write temp domino file");
    path
}

#[test]
fn cli_fuzz_greybox_passes_on_correct_machine_code() {
    let file = write_sampling();
    let out = druzhba(&[
        "fuzz",
        file.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--greybox",
        "150",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("greybox[fuzz:fused]"), "stdout: {stdout}");
    assert!(stdout.contains("edges covered"), "stdout: {stdout}");
    assert!(stdout.contains("no divergence"), "stdout: {stdout}");
}

#[test]
fn cli_fuzz_greybox_reports_divergence_with_replay_recipe() {
    let file = write_sampling();
    let out = druzhba(&[
        "fuzz",
        file.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--greybox",
        "300",
        "--jobs",
        "2",
        "--edit",
        "output_mux_phv_0_1=1",
    ]);
    assert!(!out.status.success(), "edited machine code must diverge");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--greybox 300"), "stderr: {err}");
    assert!(err.contains("--jobs 2"), "stderr: {err}");
    assert!(err.contains("--seed"), "stderr: {err}");
}

#[test]
fn cli_p4_fuzz_greybox_runs_a_corpus_program() {
    let out = druzhba(&[
        "p4-fuzz",
        "l2_forward",
        "--greybox",
        "120",
        "--jobs",
        "2",
        "--level",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("greybox[l2_forward:fused]"), "{stdout}");
}

#[test]
fn cli_greybox_rejects_conflicting_mutants_mode() {
    let out = druzhba(&["p4-fuzz", "--greybox", "100", "--mutants", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("separate campaign modes"), "stderr: {err}");
}

#[test]
fn hunt_json_carries_executions_to_detection() {
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
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"executions_to_detection\":"),
        "hunt JSON must surface executions-to-detection:\n{stdout}"
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

/// Cross-check the analyzer's unreachability lints against concrete
/// branch coverage: an edge the abstract interpreter proves dead (under
/// an input abstraction matching the campaign's traffic bit-width) must
/// never be hit by a real campaign (modulo coverage-map slot collisions
/// with a live edge). Live-predicted edges the campaign never reaches
/// are logged as the analyzer's known-imprecision list — they are *not*
/// failures, only edges the abstraction could not rule out.
///
/// At 4 input bits `rcp` is the deterministic positive case: its
/// `rtt >= 31` / `rtt <= 30` guards become decidable, so both arms'
/// infeasible outcomes are proven dead and the matching 4-bit campaign
/// can never reach them.
#[test]
fn statically_dead_edges_are_never_hit_by_concrete_coverage() {
    use druzhba::analysis::{analyze_pipeline, AbsVal};
    use druzhba::analyze::predicted_dead_edges;
    use druzhba::core::coverage::edge_id;
    use druzhba::dgen::Pipeline;
    use druzhba::dsim::TrafficGenerator;
    use druzhba::programs::PROGRAMS;

    let mut checked_dead = 0usize;
    let mut unproven: Vec<String> = Vec::new();
    for bits in [10u32, 4] {
        for def in &PROGRAMS {
            let compiled = def.compile_cached().expect("corpus compiles");
            let spec = &compiled.pipeline_spec;
            let len = spec.config.phv_length;
            let input = vec![AbsVal::bits(bits); len];
            for level in [OptLevel::SccInline, OptLevel::Fused] {
                let dead = predicted_dead_edges(def, level, bits)
                    .expect("analysis succeeds")
                    .expect("statically-keyed level");
                let abs = analyze_pipeline(spec, &compiled.machine_code, level, &input)
                    .expect("analysis succeeds");

                let mut pipeline =
                    Pipeline::generate(spec, &compiled.machine_code, level).expect("generates");
                pipeline.enable_coverage();
                for seed in 0..4u64 {
                    let trace = TrafficGenerator::new(seed, len, bits).trace(256);
                    for phv in &trace.phvs {
                        pipeline.process(phv);
                    }
                }
                let cov = pipeline.coverage().expect("coverage enabled");

                // A dead edge's slot may legitimately light up if a *live*
                // edge hashes into the same of the 4096 slots.
                let live_slots: std::collections::BTreeSet<usize> = abs
                    .live_edges
                    .iter()
                    .map(|&(site, event, outcome)| edge_id(site, event, outcome) as usize % 4096)
                    .collect();
                for &(site, event, outcome) in &dead {
                    let slot = edge_id(site, event, outcome) as usize % 4096;
                    checked_dead += 1;
                    assert!(
                        cov.count(slot) == 0 || live_slots.contains(&slot),
                        "{} at {level:?} ({bits}-bit input): edge (site={site:#x}, pc={event}, \
                         taken={outcome}) was proven unreachable but a concrete campaign hit it",
                        def.name
                    );
                }
                for &(site, event, outcome) in &abs.live_edges {
                    let slot = edge_id(site, event, outcome) as usize % 4096;
                    if cov.count(slot) == 0 {
                        unproven.push(format!(
                            "{}:{}@{bits}bit (site={site:#x}, pc={event}, taken={outcome})",
                            def.name,
                            level.key()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        checked_dead >= 4,
        "the corpus must exercise the dead-edge predictor (rcp at 4 bits \
         proves 2 edges dead per statically-keyed level), got {checked_dead}"
    );
    // Known-imprecision list: never hit concretely, but not provably dead.
    eprintln!(
        "analyzer imprecision: {} live-predicted edge(s) never hit by the campaign",
        unproven.len()
    );
    for e in &unproven {
        eprintln!("  unproven: {e}");
    }
}
