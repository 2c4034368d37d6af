//! End-to-end hunt campaigns: the mutation-driven detection-power
//! measurement must catch **every** seeded fault on real corpus programs,
//! every divergence must carry a minimized counterexample that still
//! reproduces, and every fuzz-detected divergence must replay from its
//! recorded seed — the acceptance criteria of the bug-hunt workflow.

use druzhba::dsim::fault::FaultKind;
use druzhba::dsim::testing::{fuzz_test, FuzzConfig, VerdictClass};
use druzhba::hunt::{hunt, replay, Detection, HuntConfig};
use druzhba::programs::by_name;

/// Reduced-budget campaign over three small corpus programs (kept quick:
/// these run in debug CI).
fn campaign_config() -> HuntConfig {
    HuntConfig {
        programs: vec![
            "sampling".into(),
            "snap_heavy_hitter".into(),
            "conga".into(),
        ],
        mutants_per_class: 2,
        fuzz_phvs: 600,
        fuzz_runs: 2,
        workers: 4,
        ..HuntConfig::default()
    }
}

#[test]
fn hunt_detects_every_fault_class_on_three_corpus_programs() {
    let report = hunt(&campaign_config()).unwrap();
    assert_eq!(
        report.detected(),
        report.evaluations(),
        "survivors: {:?}",
        report
            .undetected()
            .iter()
            .map(|o| (o.program, &o.fault, o.level))
            .collect::<Vec<_>>()
    );
    assert!((report.detection_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(report.truncated, 0, "no budget, no truncation");
    // Every behavioral class contributes its full matrix
    // (3 programs x 2 mutants x 4 levels = 24 evaluations) and is fully
    // detected; the hostile-trap class contributes as many wide-constant
    // holes as the programs offer, and every one is caught as a panic.
    let by_fault = report.by_fault_kind();
    for kind in FaultKind::BEHAVIORAL {
        let (total, detected) = by_fault[&kind];
        assert_eq!(total, 24, "{kind:?}");
        assert_eq!(detected, total, "{kind:?} not fully detected");
    }
    let (hostile_total, hostile_detected) = by_fault[&FaultKind::HostileTrap];
    assert!(hostile_total > 0, "no hostile mutant seeded");
    assert_eq!(hostile_detected, hostile_total, "a hostile trap survived");
    assert_eq!(report.evaluations(), 72 + hostile_total, "campaign shape");
}

#[test]
fn hunt_divergences_carry_reproducing_minimized_counterexamples() {
    let report = hunt(&campaign_config()).unwrap();
    let mut replayed = 0;
    let mut panics = 0;
    for o in &report.outcomes {
        // A hostile-trap mutant is caught by panic isolation: no
        // counterexample to minimize (delta-debugging would re-trip the
        // panic), only the replay recipe in the detection seed.
        if matches!(o.fault, druzhba::dsim::fault::Fault::HostileTrap { .. }) {
            assert!(
                matches!(o.detection, Detection::Panic { .. }),
                "{}: {:?} detected by {:?}, expected a panic",
                o.program,
                o.fault,
                o.detection
            );
            assert!(o.minimized.is_none());
            panics += 1;
            continue;
        }
        let mce = o
            .minimized
            .as_ref()
            .unwrap_or_else(|| panic!("{}: {:?} has no counterexample", o.program, o.fault));
        let verdict = o.verdict.as_ref().expect("detected outcomes have one");
        // The minimized divergence preserves the original's class…
        assert_eq!(
            mce.verdict.class(),
            verdict.class(),
            "{}: {:?}",
            o.program,
            o.fault
        );
        // …never grew…
        assert!(mce.packets() <= mce.original_packets);
        // …isolates the injected fault as the only essential edit…
        let edits = mce.essential_edits.as_ref().expect("hunt has a baseline");
        assert_eq!(edits.len(), 1, "{}: {:?} -> {edits:?}", o.program, o.fault);
        assert_eq!(edits[0].name, o.fault.name());
        // …and still reproduces when replayed from scratch.
        let def = by_name(o.program).unwrap();
        let compiled = def.compile_cached().unwrap();
        let mut bad = compiled.machine_code.clone();
        match edits[0].bad {
            Some(v) => bad.set(edits[0].name.clone(), v),
            None => {
                bad.remove(&edits[0].name);
            }
        }
        let v = replay(&compiled, def, &bad, o.level, &mce.input);
        assert_eq!(
            v.class(),
            mce.verdict.class(),
            "{}: {:?}",
            o.program,
            o.fault
        );
        replayed += 1;
    }
    assert_eq!(replayed, 72);
    assert!(panics > 0, "no hostile-trap evaluation in the campaign");
}

#[test]
fn hunt_fuzz_seeds_replay_the_divergence() {
    let cfg = campaign_config();
    let report = hunt(&cfg).unwrap();
    let mut checked = 0;
    for o in &report.outcomes {
        let (Detection::Fuzz { seed } | Detection::Witness { seed }) = o.detection else {
            continue;
        };
        // Replay exactly the way `druzhba fuzz --seed` does: same seed,
        // same PHV count, same bit width, through the public fuzz_test.
        let def = by_name(o.program).unwrap();
        let compiled = def.compile_cached().unwrap();
        let mut bad = compiled.machine_code.clone();
        let edits = o
            .minimized
            .as_ref()
            .unwrap()
            .essential_edits
            .as_ref()
            .unwrap();
        for e in edits {
            match e.bad {
                Some(v) => bad.set(e.name.clone(), v),
                None => {
                    bad.remove(&e.name);
                }
            }
        }
        let mut reference = def.interpreter_spec(&compiled);
        let fuzz_cfg = FuzzConfig {
            num_phvs: cfg.fuzz_phvs,
            seed,
            input_bits: cfg.input_bits,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            minimize: false,
        };
        let rerun = fuzz_test(
            &compiled.pipeline_spec,
            &bad,
            o.level,
            &mut reference,
            &fuzz_cfg,
        );
        assert!(
            !rerun.passed(),
            "{}: {:?} seed {seed:#x} did not replay",
            o.program,
            o.fault
        );
        assert_eq!(
            rerun.verdict.class(),
            o.verdict.as_ref().unwrap().class(),
            "{}: replay changed class",
            o.program
        );
        checked += 1;
    }
    assert!(checked > 0, "campaign found no fuzz-detected faults");
}

#[test]
fn hunt_is_deterministic_across_worker_counts() {
    let mut cfg = campaign_config();
    cfg.programs = vec!["sampling".into()];
    cfg.workers = 1;
    let serial = hunt(&cfg).unwrap();
    cfg.workers = 8;
    let parallel = hunt(&cfg).unwrap();
    assert_eq!(serial.evaluations(), parallel.evaluations());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.program, b.program);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.level, b.level);
        assert_eq!(a.detection, b.detection);
        assert_eq!(a.minimized, b.minimized);
    }
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn hunt_json_is_well_formed_enough_to_grep() {
    let mut cfg = campaign_config();
    cfg.programs = vec!["snap_heavy_hitter".into()];
    cfg.mutants_per_class = 1;
    let report = hunt(&cfg).unwrap();
    let json = report.to_json();
    // Balanced braces/brackets (a cheap structural check without a JSON
    // parser).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    for key in [
        "\"config\"",
        "\"summary\"",
        "\"detection_rate\"",
        "\"by_fault\"",
        "\"by_detector\"",
        "\"taxonomy\"",
        "\"truncated\"",
        "\"case_budget\"",
        "\"mutants\"",
        "\"essential_edits\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}

#[test]
fn hunt_rejects_unknown_programs_and_empty_levels() {
    let err = hunt(&HuntConfig {
        programs: vec!["no_such_program".into()],
        ..HuntConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("unknown program"), "{err}");

    let err = hunt(&HuntConfig {
        programs: vec!["sampling".into()],
        levels: Vec::new(),
        ..HuntConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("level"), "{err}");

    // An unusable verification bound is a config error, not a silently
    // skipped phase.
    let err = hunt(&HuntConfig {
        programs: vec!["sampling".into()],
        verify_bits: 40,
        ..HuntConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("31-bit"), "{err}");
}

/// The screening probe discards behaviorally neutral mutations instead of
/// letting them poison the detection-rate denominator: every accepted
/// mutant is detectable, so the campaign's verdicts are about the
/// *workflow*, not about mutant quality.
#[test]
fn hunt_outcomes_all_classify_into_the_taxonomy() {
    let mut cfg = campaign_config();
    cfg.programs = vec!["conga".into()];
    let report = hunt(&cfg).unwrap();
    let taxonomy = report.taxonomy();
    let total: usize = taxonomy.values().sum();
    assert_eq!(total, report.evaluations());
    assert!(!taxonomy.contains_key("pass"), "{taxonomy:?}");
    for class in taxonomy.keys() {
        assert!(
            [
                VerdictClass::Incompatible.key(),
                VerdictClass::ContainerMismatch.key(),
                VerdictClass::StateMismatch.key(),
                VerdictClass::LengthMismatch.key(),
                VerdictClass::BackendPanic.key(),
            ]
            .contains(class),
            "unexpected taxonomy class {class}"
        );
    }
    // The hostile-trap mutants land in the panic bucket, proving a
    // panicking backend never aborts the campaign.
    assert!(
        taxonomy.contains_key(VerdictClass::BackendPanic.key()),
        "{taxonomy:?}"
    );
}
