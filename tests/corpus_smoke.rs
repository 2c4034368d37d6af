//! Corpus smoke test: every embedded Table 1 Domino asset must parse,
//! compile under its declared (depth, width, atom) configuration, and
//! survive a short fuzz run against its hand-written specification — so a
//! corpus regression fails CI instead of first appearing in a long fuzz
//! campaign.

use druzhba::core::{MachineCode, Trace, ValueGen};
use druzhba::dgen::{expected_machine_code, OptLevel, Pipeline};
use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::testing::{fuzz_campaign, fuzz_test, AluTarget, CampaignConfig};
use druzhba::dsim::{Simulator, TrafficGenerator};
use druzhba::programs::PROGRAMS;

#[test]
fn corpus_is_complete() {
    assert_eq!(PROGRAMS.len(), 12, "Table 1 lists 12 programs");
    let mut names: Vec<&str> = PROGRAMS.iter().map(|p| p.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 12, "program names must be unique");
}

#[test]
fn every_asset_parses_with_declared_state() {
    for def in &PROGRAMS {
        let program = def.parse();
        assert_eq!(
            program.state_vars.len(),
            def.state_vars,
            "{}: declared state count",
            def.name
        );
        assert!(
            program.state_vars.iter().all(|d| d.init == 0),
            "{}: compiler requires zero-initialized state",
            def.name
        );
    }
}

#[test]
fn every_asset_compiles_on_its_table1_grid() {
    for def in &PROGRAMS {
        let compiled = def
            .compile_cached()
            .unwrap_or_else(|e| panic!("{}: failed to compile: {e}", def.name));
        assert!(
            compiled.report.stages_used <= def.depth,
            "{}: used {} stages on a depth-{} grid",
            def.name,
            compiled.report.stages_used,
            def.depth
        );
        assert_eq!(
            compiled.state_cells.len(),
            def.state_vars,
            "{}: one state cell per program state variable",
            def.name
        );
    }
}

#[test]
fn every_asset_passes_a_short_hand_spec_fuzz() {
    for def in &PROGRAMS {
        let compiled = def.compile_cached().unwrap();
        let mut spec = def.hand_spec(&compiled);
        let report = fuzz_test(
            &compiled.pipeline_spec,
            &compiled.machine_code,
            OptLevel::SccInline,
            &mut spec,
            &def.fuzz_config(&compiled, 100),
        );
        assert!(report.passed(), "{}: {:?}", def.name, report.verdict);
    }
}

/// The fused (version 4) backend passes the same Fig. 5 workflow on every
/// Table 1 program, driven as a sharded parallel campaign.
#[test]
fn every_asset_passes_a_parallel_fused_campaign() {
    for def in &PROGRAMS {
        let compiled = def.compile_cached().unwrap();
        let cfg = CampaignConfig {
            runs: 4,
            workers: 4,
            base: def.fuzz_config(&compiled, 100),
        };
        let campaign = fuzz_campaign(
            &AluTarget::new(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                OptLevel::Fused,
                &cfg.base,
            ),
            || def.hand_spec(&compiled),
            &cfg,
            &RuntimeOptions::default(),
        );
        assert!(
            campaign.passed(),
            "{}: {:?}",
            def.name,
            campaign.first_failure()
        );
    }
}

/// Backend-equivalence property over the whole corpus: for every Table 1
/// program, all four `OptLevel`s produce identical output traces *and*
/// state snapshots — both for the compiled machine code and for randomized
/// in-domain machine code on the same grid (which exercises mux routings
/// and ALU configurations the compiler never emits).
#[test]
fn four_backends_agree_on_corpus_and_randomized_machine_code() {
    let mut gen = ValueGen::new(0xC0DE_2026, 32);
    for def in &PROGRAMS {
        let compiled = def.compile_cached().unwrap();
        let spec = &compiled.pipeline_spec;

        let mut candidates: Vec<(String, MachineCode)> =
            vec![("compiled".into(), compiled.machine_code.clone())];
        for trial in 0..3 {
            let mc = MachineCode::from_pairs(expected_machine_code(spec).into_iter().map(
                |(name, domain)| {
                    let bound = domain.bound().min(1 << 8) as u32;
                    (name, gen.value_below(bound))
                },
            ));
            candidates.push((format!("random {trial}"), mc));
        }

        for (label, mc) in &candidates {
            let input =
                TrafficGenerator::new(0xD0D1 ^ def.name.len() as u64, spec.config.phv_length, 10)
                    .trace(60);
            let mut results: Vec<(OptLevel, Trace)> = Vec::new();
            for opt in OptLevel::ALL {
                let pipeline = Pipeline::generate(spec, mc, opt)
                    .unwrap_or_else(|e| panic!("{} [{label}] {opt:?}: {e}", def.name));
                let mut sim = Simulator::new(pipeline);
                results.push((opt, sim.run(&input)));
            }
            for pair in results.windows(2) {
                let (a_opt, a) = &pair[0];
                let (b_opt, b) = &pair[1];
                assert_eq!(
                    a, b,
                    "{} [{label}]: {a_opt:?} and {b_opt:?} diverge",
                    def.name
                );
            }
        }
    }
}
