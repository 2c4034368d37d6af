//! Properties of the Gauntlet-style program generators (DESIGN.md §13):
//!
//! - every generated Domino program parses, compiles, is classified
//!   `Interesting` by the analysis screen, and passes a clean
//!   differential sweep on all four backends across a seed sweep — no
//!   panics, no `Hazardous` candidate ever leaks into a campaign;
//! - the symbolic verdict a generated program carries equals a fresh
//!   all-level build's;
//! - generation is deterministic and index-addressable: identical
//!   (seed, index) yields byte-identical program text, and a
//!   `hunt --generate` report is byte-identical across worker counts;
//! - program-level ddmin shrinks a diverging generated program to a
//!   reproducer that still diverges with the same `VerdictClass` and
//!   never grows (the program dimension of `minimize_props`).

use druzhba::analysis::pipeline::{screen, ProgramBuild, Screened};
use druzhba::chipmunk::{compile, CompiledSpec, CompilerConfig};
use druzhba::core::MachineCode;
use druzhba::dgen::OptLevel;
use druzhba::domino::{parse_program, DominoProgram};
use druzhba::dsim::fault::{Fault, FaultInjector, FaultKind};
use druzhba::dsim::testing::{fuzz_test, FuzzConfig, VerdictClass};
use druzhba::genhunt::{genhunt, GenHuntConfig};
use druzhba::p4::lower::RmtConfig;
use druzhba::progen::{
    generate_domino, generate_domino_at, generate_p4, generate_p4_at, minimize_program,
    program_size, render_program, GeneratedDomino,
};

/// One clean differential fuzz run of a generated program.
fn clean_class(g: &GeneratedDomino, level: OptLevel, seed: u64, phvs: usize) -> VerdictClass {
    let mut reference = g.interpreter_spec();
    let cfg = FuzzConfig {
        num_phvs: phvs,
        seed,
        input_bits: 10,
        observable: Some(g.compiled.observable_containers()),
        state_cells: g.compiled.state_cells.clone(),
        minimize: false,
    };
    fuzz_test(
        &g.compiled.pipeline_spec,
        &g.compiled.machine_code,
        level,
        &mut reference,
        &cfg,
    )
    .verdict
    .class()
}

/// Satellite: across a seed sweep, every generated Domino program
/// parses, re-screens `Interesting`, never rejects a candidate for an
/// alarming reason (TV mismatch / symbolic refutation — those would be
/// compiler bugs), and passes a clean differential run on all four
/// backends.
#[test]
fn generated_domino_sweep_parses_screens_and_passes_every_backend() {
    for base in [0x000D_122Bu64, 1, 0xFEED] {
        for index in 0..6u64 {
            let g = generate_domino_at(base, index);
            // Parses: the emitted text round-trips through the real parser.
            let parsed = parse_program(&g.source)
                .unwrap_or_else(|e| panic!("{}: generated source fails to parse: {e}", g.name));
            assert_eq!(parsed, g.program, "{}: text/AST disagree", g.name);
            // No alarming rejects: every rejection was Trivial/Hazardous/
            // no-fit, never a TV mismatch on a fresh compile.
            assert_eq!(
                g.rejects.alarming(),
                0,
                "{}: candidate rejected for a compiler-bug reason: {:?}",
                g.name,
                g.rejects
            );
            // Re-screens Interesting: no Trivial or Hazardous program is
            // ever handed to a campaign.
            let classified = screen(
                &g.compiled.pipeline_spec,
                &g.compiled.machine_code,
                Some(&g.compiled.observable_containers()),
            )
            .unwrap_or_else(|e| panic!("{}: screen failed: {e}", g.name));
            assert!(
                matches!(classified, Screened::Interesting),
                "{}: screen reclassified as {}",
                g.name,
                classified.label()
            );
            // Clean sweep: the four backends agree with the interpreter.
            for level in OptLevel::ALL {
                let class = clean_class(&g, level, 0x5EED ^ index, 80);
                assert_eq!(
                    class,
                    VerdictClass::Pass,
                    "{}: clean divergence at {level:?}",
                    g.name
                );
            }
        }
    }
}

/// Satellite: generated P4 workloads re-parse from their emitted
/// source + entries under the default RMT grid, and generation never
/// rejects a candidate for an alarming reason.
#[test]
fn generated_p4_sweep_reparses_and_rebinds() {
    for base in [0x000D_122Bu64, 7] {
        for index in 0..6u64 {
            let g = generate_p4_at(base, index);
            assert_eq!(g.rejects.alarming(), 0, "{}: {:?}", g.name, g.rejects);
            let reparsed =
                druzhba::dsim::p4::P4Workload::parse(&g.source, &g.entries, &RmtConfig::default())
                    .unwrap_or_else(|e| {
                        panic!("{}: emitted source fails to re-parse: {e}", g.name)
                    });
            assert_eq!(
                reparsed.entries.len(),
                g.workload.entries.len(),
                "{}: entry set changed across the round trip",
                g.name
            );
        }
    }
}

/// Satellite: generator determinism. Identical (seed, index) yields
/// byte-identical program text, and batch generation equals
/// index-addressed generation.
#[test]
fn generation_is_deterministic_and_index_addressable() {
    for index in 0..4u64 {
        let a = generate_domino_at(42, index);
        let b = generate_domino_at(42, index);
        assert_eq!(
            a.source, b.source,
            "domino generation is not a pure function"
        );
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.rejects, b.rejects);
        let p = generate_p4_at(42, index);
        let q = generate_p4_at(42, index);
        assert_eq!(p.source, q.source, "p4 generation is not a pure function");
        assert_eq!(p.entries, q.entries);
    }
    let batch = generate_domino(42, 4);
    for (i, g) in batch.iter().enumerate() {
        assert_eq!(
            g.source,
            generate_domino_at(42, i as u64).source,
            "batch generation diverges from index-addressed generation"
        );
    }
    let p4_batch = generate_p4(42, 3);
    for (i, g) in p4_batch.iter().enumerate() {
        assert_eq!(g.source, generate_p4_at(42, i as u64).source);
    }
}

/// The symbolic verdict a generated program carries out of vetting is
/// the one a fresh all-level build computes: the clean sweep's fused
/// fast path trusts it, so it must not drift from the analysis.
#[test]
fn carried_verdict_matches_a_fresh_all_level_build() {
    for seed in [0x000D_122B, 7] {
        for g in generate_domino(seed, 50) {
            let c = &g.compiled;
            let fresh = ProgramBuild::new(&c.pipeline_spec, &c.machine_code, &OptLevel::ALL)
                .expect("a vetted program builds at every level")
                .verdict();
            assert_eq!(g.verdict, fresh, "{}: carried verdict", g.name);
        }
    }
}

/// Satellite: `hunt --generate` reports are byte-identical across
/// worker counts (the generated-program extension of the existing
/// worker-count determinism suites).
#[test]
fn genhunt_report_is_byte_identical_across_worker_counts() {
    let cfg = |workers: usize| GenHuntConfig {
        count: 5,
        seed: 0x000D_122B,
        fuzz_phvs: 60,
        faults_per_program: 1,
        minimize_checks: 40,
        workers,
        ..GenHuntConfig::default()
    };
    let one = genhunt(&cfg(1)).expect("serial campaign");
    let four = genhunt(&cfg(4)).expect("parallel campaign");
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "genhunt report depends on the worker count"
    );
}

/// Find a (generated program, injected fault, diverging level/seed)
/// triple to drive the program-level minimization tests.
fn diverging_case() -> (
    GeneratedDomino,
    Fault,
    MachineCode,
    OptLevel,
    u64,
    VerdictClass,
) {
    for index in 0..12u64 {
        let g = generate_domino_at(0x000D_122B, index);
        for (k, &kind) in FaultKind::BEHAVIORAL.iter().enumerate() {
            let mut injector = FaultInjector::new(0xFA17 + index * 16 + k as u64);
            let Some((bad_mc, fault)) =
                injector.inject(&g.compiled.pipeline_spec, &g.compiled.machine_code, kind)
            else {
                continue;
            };
            for level in OptLevel::ALL {
                let traffic_seed = 0xBEEF ^ index;
                let mut reference = g.interpreter_spec();
                let cfg = FuzzConfig {
                    num_phvs: 120,
                    seed: traffic_seed,
                    input_bits: 10,
                    observable: Some(g.compiled.observable_containers()),
                    state_cells: g.compiled.state_cells.clone(),
                    minimize: false,
                };
                let class = fuzz_test(
                    &g.compiled.pipeline_spec,
                    &bad_mc,
                    level,
                    &mut reference,
                    &cfg,
                )
                .verdict
                .class();
                if class != VerdictClass::Pass {
                    return (g, fault, bad_mc, level, traffic_seed, class);
                }
            }
        }
    }
    panic!("no injected fault diverged across 12 generated programs — injector broken?");
}

/// The real compile-and-replay oracle genhunt uses: recompile the
/// candidate on the original grid, re-apply the fault by pair name, and
/// demand the same verdict class under the same traffic seed.
fn replay_oracle(
    g: &GeneratedDomino,
    fault: &Fault,
    level: OptLevel,
    traffic_seed: u64,
    class: VerdictClass,
) -> impl FnMut(&DominoProgram) -> bool {
    let grid = g.grid;
    let fault = fault.clone();
    move |candidate: &DominoProgram| {
        let cfg = CompilerConfig::new(grid.depth, grid.width, grid.atom);
        let Ok(comp) = compile(candidate, &cfg) else {
            return false;
        };
        let Some(bad_mc) = fault.apply(&comp.machine_code) else {
            return false;
        };
        let mut reference = CompiledSpec::new(candidate.clone(), &comp);
        let fuzz_cfg = FuzzConfig {
            num_phvs: 120,
            seed: traffic_seed,
            input_bits: 10,
            observable: Some(comp.observable_containers()),
            state_cells: comp.state_cells.clone(),
            minimize: false,
        };
        fuzz_test(
            &comp.pipeline_spec,
            &bad_mc,
            level,
            &mut reference,
            &fuzz_cfg,
        )
        .verdict
        .class()
            == class
    }
}

/// Satellite: program-level ddmin against the real compile-and-replay
/// oracle. The minimized generated reproducer still diverges with the
/// same `VerdictClass`, never grows, and the reduction is
/// deterministic.
#[test]
fn minimized_generated_reproducer_keeps_verdict_and_never_grows() {
    let (g, fault, _bad_mc, level, traffic_seed, class) = diverging_case();
    let before = program_size(&g.program);

    let mut oracle = replay_oracle(&g, &fault, level, traffic_seed, class);
    let (reduced, checks) = minimize_program(&g.program, &mut oracle, 200)
        .expect("the original program reproduces, so minimization must succeed");
    assert!(checks <= 200, "budget overrun: {checks}");
    assert!(
        program_size(&reduced) <= before,
        "minimization grew the program: {} -> {}",
        before,
        program_size(&reduced)
    );
    // The reduced program still diverges the same way — checked with a
    // fresh oracle, not the one minimization consumed.
    assert!(
        replay_oracle(&g, &fault, level, traffic_seed, class)(&reduced),
        "reduced program no longer diverges with the same verdict class:\n{}",
        render_program(&reduced)
    );
    // And re-minimizing the reduced program cannot grow it.
    let mut oracle = replay_oracle(&g, &fault, level, traffic_seed, class);
    let (again, _) = minimize_program(&reduced, &mut oracle, 200)
        .expect("a minimized reproducer still reproduces");
    assert!(program_size(&again) <= program_size(&reduced));

    // Determinism: the same inputs reduce to the same program.
    let mut oracle = replay_oracle(&g, &fault, level, traffic_seed, class);
    let (second, second_checks) =
        minimize_program(&g.program, &mut oracle, 200).expect("deterministic reduction");
    assert_eq!(render_program(&second), render_program(&reduced));
    assert_eq!(second_checks, checks);
}

/// Satellite: minimization degrades gracefully under a tiny oracle
/// budget — it still returns a reproducer and still never grows.
#[test]
fn minimization_budget_degrades_gracefully() {
    let (g, fault, _bad_mc, level, traffic_seed, class) = diverging_case();
    let before = program_size(&g.program);
    for budget in [2usize, 5, 20] {
        let mut oracle = replay_oracle(&g, &fault, level, traffic_seed, class);
        let (reduced, checks) = minimize_program(&g.program, &mut oracle, budget)
            .expect("a reproducing program minimizes under any nonzero budget");
        assert!(checks <= budget, "budget {budget} overrun: {checks}");
        assert!(program_size(&reduced) <= before);
        assert!(
            replay_oracle(&g, &fault, level, traffic_seed, class)(&reduced),
            "budget {budget}: reduced program no longer reproduces"
        );
    }
}
