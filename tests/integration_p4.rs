//! End-to-end tests of the P4 differential-testing subsystem: the
//! committed corpus must run interpreter-vs-pipeline clean on all four
//! backends, injected table/action faults must be detected and minimized
//! by the hunt machinery, campaigns must be worker-count independent,
//! and the three execution models (sequential interpreter, staged RMT
//! pipeline, scheduled dRMT machine) must agree packet-for-packet.

use druzhba::core::ValueGen;
use druzhba::dgen::OptLevel;
use druzhba::dsim::p4::{
    apply_fault, run_p4_case, P4Checker, P4FaultInjector, P4FaultKind, P4Target, P4Traffic,
    P4Workload,
};
use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::testing::{
    fuzz_campaign, fuzz_run, CampaignConfig, FuzzConfig, FuzzReport, VerdictClass,
};
use druzhba::p4hunt::{cross_model_check, p4_hunt, P4Detection, P4HuntConfig};
use druzhba::programs::P4_PROGRAMS;

/// One seeded run of the P4 target.
fn p4_fuzz_test(
    workload: &P4Workload,
    entries: &[druzhba::p4::tables::TableEntry],
    level: OptLevel,
    cfg: &FuzzConfig,
) -> FuzzReport {
    let target = P4Target {
        workload,
        entries,
        level,
    };
    fuzz_run(&target, &mut (), cfg)
}

/// The P4 stack's historical run shape: 1000 packets at 16-bit fields.
fn p4_cfg() -> FuzzConfig {
    FuzzConfig {
        input_bits: 16,
        ..FuzzConfig::default()
    }
}

/// Reduced-budget campaign over two corpus programs (quick in debug CI).
fn campaign_config() -> P4HuntConfig {
    P4HuntConfig {
        programs: vec!["l2_forward".into(), "lpm_router".into()],
        mutants_per_class: 2,
        fuzz_phvs: 600,
        fuzz_runs: 2,
        workers: 4,
        ..P4HuntConfig::default()
    }
}

#[test]
fn corpus_runs_clean_on_all_four_backends() {
    for def in &P4_PROGRAMS {
        let w = def.workload().unwrap();
        for level in OptLevel::ALL {
            let cfg = FuzzConfig {
                num_phvs: 1_500,
                ..p4_cfg()
            };
            let report = p4_fuzz_test(&w, &w.entries, level, &cfg);
            assert!(
                report.passed(),
                "{} diverges at {level:?}: {:?}",
                def.name,
                report.verdict
            );
        }
    }
}

#[test]
fn cross_model_agreement_on_the_whole_corpus() {
    for def in &P4_PROGRAMS {
        let w = def.workload().unwrap();
        let report =
            cross_model_check(&w, 0xC0DE, 400, 16).unwrap_or_else(|e| panic!("{}: {e}", def.name));
        assert_eq!(report.packets, 400);
        assert_eq!(report.rmt_stages, def.stages, "{}", def.name);
        assert!(
            report.drmt_skipped.is_none(),
            "{}: corpus programs satisfy the dRMT precondition",
            def.name
        );
        assert!(report.drmt_makespan > 0, "{}", def.name);
    }
}

#[test]
fn cross_model_skips_drmt_on_shared_register_hazards() {
    // t1 writes meta.x and register r; t2 matches meta.x and reads r — a
    // match-dependent pair sharing a register. The dRMT machine's
    // pipelined execution has cross-packet read/write hazards here that
    // its scheduler does not serialize, so the dRMT leg must be skipped
    // (documented precondition), not reported as a spurious divergence.
    let src = r#"
        header_type h { fields { a : 8; b : 32; } }
        header_type m { fields { x : 8; } }
        header h pkt;
        metadata m meta;
        parser start { extract(pkt); return ingress; }
        register r { width : 32; instance_count : 2; }
        action mark() { modify_field(meta.x, 1); register_write(r, 0, pkt.a); }
        action observe() { register_read(pkt.b, r, 0); }
        table t1 { reads { pkt.a : ternary; } actions { mark; } }
        table t2 { reads { meta.x : exact; } actions { observe; } }
        control ingress { apply(t1); apply(t2); }
    "#;
    let entries = "t1 : pkt.a=0/0 => mark()\nt2 : meta.x=1 => observe()\n";
    let w = druzhba::dsim::p4::P4Workload::parse(
        src,
        entries,
        &druzhba::p4::lower::RmtConfig::default(),
    )
    .unwrap();
    // Interpreter vs. RMT pipeline still must agree on every backend.
    for level in OptLevel::ALL {
        let report = p4_fuzz_test(&w, &w.entries, level, &p4_cfg());
        assert!(report.passed(), "{level:?}: {:?}", report.verdict);
    }
    let report = cross_model_check(&w, 0xC0DE, 200, 8).expect("no spurious divergence");
    let reason = report.drmt_skipped.expect("dRMT leg skipped");
    assert!(reason.contains("`r`"), "{reason}");
    assert_eq!(report.drmt_makespan, 0);
}

/// The whole P4 hunt report, byte for byte. The CLI cannot select two
/// corpus programs, so an intentional change regenerates the file from
/// this configuration: write `p4_hunt(&campaign_config())?.to_json()` to
/// `tests/golden/p4hunt.json`.
#[test]
fn hunt_report_matches_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/p4hunt.json");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        p4_hunt(&campaign_config()).unwrap().to_json(),
        golden,
        "P4 hunt report drifted from tests/golden/p4hunt.json"
    );
}

#[test]
fn hunt_detects_every_fault_class_and_minimizes() {
    let report = p4_hunt(&campaign_config()).unwrap();
    // 2 programs x 3 classes x 2 mutants x 4 levels = 48 evaluations
    // (minus any class the injector cannot seed twice distinctly).
    assert!(report.evaluations() >= 40, "{}", report.evaluations());
    assert_eq!(
        report.detected(),
        report.evaluations(),
        "survivors: {:?}",
        report
            .outcomes
            .iter()
            .filter(|o| !o.detected())
            .map(|o| (&o.program, &o.fault, o.level))
            .collect::<Vec<_>>()
    );
    // Every fault class is represented.
    let by_fault = report.by_fault_kind();
    for kind in P4FaultKind::ALL {
        let (total, detected) = by_fault[&kind];
        assert!(total > 0, "{kind:?} never seeded");
        assert_eq!(detected, total, "{kind:?} not fully detected");
    }
    // Every divergence carries a minimized counterexample that still
    // reproduces when replayed from scratch, and never grew.
    let targets: Vec<_> = campaign_config()
        .programs
        .iter()
        .map(|name| {
            let def = druzhba::programs::p4_by_name(name).unwrap();
            (name.clone(), def.workload().unwrap())
        })
        .collect();
    for o in &report.outcomes {
        let mce = o
            .minimized
            .as_ref()
            .unwrap_or_else(|| panic!("{}: {:?} has no counterexample", o.program, o.fault));
        let verdict = o.verdict.as_ref().expect("detected outcomes have one");
        assert_eq!(mce.verdict.class(), verdict.class());
        assert!(mce.packets() <= mce.original_packets);
        let (_, workload) = targets.iter().find(|(n, _)| *n == o.program).unwrap();
        // Rebuild the mutant entries from the recorded fault alone (the
        // report is self-contained) and replay the minimized trace.
        let entries = apply_fault(&workload.entries, &o.fault)
            .unwrap_or_else(|| panic!("{}: {:?} does not fit baseline", o.program, o.fault));
        let v = run_p4_case(workload, &entries, o.level, &mce.input);
        assert_eq!(
            v.class(),
            mce.verdict.class(),
            "{}: {:?} minimized CE does not reproduce",
            o.program,
            o.fault
        );
    }
}

#[test]
fn hunt_campaign_is_worker_count_independent() {
    let base = campaign_config();
    let one = p4_hunt(&P4HuntConfig {
        workers: 1,
        ..base.clone()
    })
    .unwrap();
    let many = p4_hunt(&P4HuntConfig { workers: 8, ..base }).unwrap();
    assert_eq!(one.outcomes, many.outcomes);
    assert_eq!(one.records, many.records);
    assert_eq!(one.neutral_discarded, many.neutral_discarded);
}

#[test]
fn fuzz_detected_faults_replay_from_their_seed() {
    let report = p4_hunt(&campaign_config()).unwrap();
    let targets: Vec<_> = campaign_config()
        .programs
        .iter()
        .map(|name| {
            let def = druzhba::programs::p4_by_name(name).unwrap();
            (name.clone(), def.workload().unwrap())
        })
        .collect();
    let mut replayed = 0;
    for o in &report.outcomes {
        let seed = match &o.detection {
            P4Detection::Fuzz { seed } | P4Detection::Witness { seed } => *seed,
            P4Detection::Panic { .. } | P4Detection::Verify | P4Detection::Undetected => continue,
        };
        // A diverging seed replays to a failure of the same class via a
        // plain p4_fuzz_test over the mutant entries. Reconstructing the
        // exact mutant is covered above; here assert the baseline passes
        // on that same seed (the divergence is the mutant's, not the
        // traffic's).
        let (_, workload) = targets.iter().find(|(n, _)| *n == o.program).unwrap();
        let cfg = FuzzConfig {
            num_phvs: campaign_config().fuzz_phvs,
            seed,
            input_bits: campaign_config().input_bits,
            minimize: false,
            ..FuzzConfig::default()
        };
        let clean = p4_fuzz_test(workload, &workload.entries, o.level, &cfg);
        assert!(clean.passed(), "baseline diverges on its own seed");
        replayed += 1;
    }
    assert!(replayed > 0);
}

#[test]
fn differential_campaign_is_deterministic_across_workers() {
    let def = druzhba::programs::p4_by_name("flow_meter").unwrap();
    let w = def.workload().unwrap();
    let run_with = |workers: usize| {
        let cfg = CampaignConfig {
            runs: 6,
            workers,
            base: FuzzConfig {
                num_phvs: 300,
                ..p4_cfg()
            },
        };
        let target = P4Target {
            workload: &w,
            entries: &w.entries,
            level: OptLevel::Fused,
        };
        fuzz_campaign(&target, || (), &cfg, &RuntimeOptions::default())
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    let oversubscribed = run_with(32);
    assert_eq!(serial, parallel);
    assert_eq!(parallel, oversubscribed);
    assert!(serial.passed());
}

#[test]
fn injected_fault_minimizes_to_a_tiny_counterexample() {
    // A deterministic single-fault scenario: forward to the wrong port.
    let def = druzhba::programs::p4_by_name("l2_forward").unwrap();
    let w = def.workload().unwrap();
    let mut bad = w.entries.clone();
    assert_eq!(bad[0].args, vec![1]);
    bad[0].args[0] = 7;
    for level in OptLevel::ALL {
        let report = p4_fuzz_test(&w, &bad, level, &p4_cfg());
        assert!(!report.passed(), "{level:?}");
        let mce = report.minimized.expect("minimized");
        assert!(mce.packets() <= 2, "{level:?}: {:?}", mce.input);
        assert_eq!(mce.verdict.class(), VerdictClass::ContainerMismatch);
        let v = run_p4_case(&w, &bad, level, &mce.input);
        assert_eq!(v.class(), mce.verdict.class(), "{level:?}");
    }
}

/// One reused checker per entry set gives every verdict a fresh
/// `run_p4_case` gives, on every corpus workload and backend, over a
/// seeded sequence of checks that interleaves the intended entries, two
/// injected faults and an entry set that does not bind. `flow_meter`
/// writes registers and counts on every packet, so a checker that skipped
/// `MatPipeline::reset` or `Interpreter::reset` would report state
/// carried over from its trace before.
#[test]
fn checker_verdicts_equal_fresh_run_p4_case() {
    for def in &P4_PROGRAMS {
        let w = def.workload().unwrap();
        let mut injector = P4FaultInjector::new(0xD122B);
        let mut fault = |kind| {
            injector
                .inject(&w.entries, kind)
                .map_or_else(|| w.entries.clone(), |(entries, _)| entries)
        };
        let removed = fault(P4FaultKind::RemovedEntry);
        let mismatched = fault(P4FaultKind::MatchValue);
        let mut unbound = w.entries.clone();
        unbound[0].table = "no_such_table".into();
        let sets = [w.entries.clone(), removed, mismatched, unbound];
        for level in OptLevel::ALL {
            let mut checkers: Vec<P4Checker> = sets
                .iter()
                .map(|entries| P4Checker::new(&w, entries, level))
                .collect();
            let mut gen = ValueGen::new(level as u64, 32);
            for _ in 0..24 {
                let set = gen.value_below(4) as usize;
                let len = gen.value_below(41) as usize;
                let input = P4Traffic::new(&w, u64::from(gen.value()), 16).trace(len);
                assert_eq!(
                    checkers[set].check(&input.phvs),
                    run_p4_case(&w, &sets[set], level, &input),
                    "{} at {level:?}",
                    def.name
                );
            }
        }
    }
}
