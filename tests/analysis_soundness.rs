//! Soundness of the abstract interpreter: the concrete result of every
//! backend is contained in the abstract result, on both domains at once
//! ([`AbsVal::contains`] checks the interval *and* the known-bits member
//! of the reduced product).
//!
//! Two abstraction levels are exercised per program:
//!
//! - **top input** — the abstract fixpoint from an unconstrained input
//!   PHV must contain the output and state of *any* concrete trace;
//! - **constant input** — the abstraction of one concrete packet must
//!   contain every run in which that same packet repeats (the state
//!   fixpoint covers any packet count).
//!
//! Covered: all 12 Table 1 Domino programs and a few generated ones across
//! all four dgen backends, and all 5 P4 corpus programs plus a few
//! generated ones against both the HLIR interpreter and the lowered fused
//! `MatInstr` pipeline.
//!
//! The dead-edge cross-check holds the branch outcomes the analysis proves
//! unreachable to the ALU backends' concrete coverage.

use proptest::prelude::*;

use druzhba::analysis::{analyze_p4, analyze_pipeline, AbsVal};
use druzhba::chipmunk::CompiledProgram;
use druzhba::core::Trace;
use druzhba::dgen::mat::MatPipeline;
use druzhba::dgen::{OptLevel, Pipeline};
use druzhba::dsim::p4::{P4Traffic, P4Workload};
use druzhba::dsim::TrafficGenerator;
use druzhba::progen::{generate_domino_at, generate_p4_at};
use druzhba::programs::{P4_PROGRAMS, PROGRAMS};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Unoptimized,
    OptLevel::Scc,
    OptLevel::SccInline,
    OptLevel::Fused,
];

/// Assert `abs` contains the concrete state snapshot (same
/// `[stage][slot][var]` shape on both sides).
fn check_state(
    program: &str,
    level: OptLevel,
    abs: &[Vec<Vec<AbsVal>>],
    concrete: &[Vec<Vec<u32>>],
) -> Result<(), String> {
    for (stage, (astage, cstage)) in abs.iter().zip(concrete).enumerate() {
        for (slot, (aslot, cslot)) in astage.iter().zip(cstage).enumerate() {
            for (var, (a, &c)) in aslot.iter().zip(cslot).enumerate() {
                if !a.contains(c) {
                    return Err(format!(
                        "{program} at {level:?}: state[{stage}][{slot}][{var}] = {c} \
                         escapes the abstraction {a:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Run `npackets` concrete packets through every backend and require
/// each output PHV and the final state to stay inside the abstraction
/// computed from `input`.
fn check_domino(
    name: &str,
    compiled: &CompiledProgram,
    input: &[AbsVal],
    trace: &Trace,
) -> Result<(), String> {
    let spec = &compiled.pipeline_spec;
    let mc = &compiled.machine_code;
    for level in LEVELS {
        let abs = analyze_pipeline(spec, mc, level, input).map_err(|e| format!("{name}: {e}"))?;
        let mut pipeline =
            Pipeline::generate(spec, mc, level).map_err(|e| format!("{name}: {e}"))?;
        for phv in &trace.phvs {
            let out = pipeline.process(phv);
            for (c, a) in abs.phv.iter().enumerate() {
                let v = out.get(c);
                if !a.contains(v) {
                    return Err(format!(
                        "{name} at {level:?}: output container[{c}] = {v} escapes \
                         the abstraction {a:?}"
                    ));
                }
            }
            // State soundness must hold after *every* packet, not just
            // the last one — the fixpoint covers all intermediate states.
            check_state(name, level, &abs.state, &pipeline.state_snapshot())?;
        }
    }
    Ok(())
}

/// Run `npackets` packets of `seed`'s 16-bit traffic through the HLIR
/// interpreter and the lowered fused `MatInstr` pipeline, and require
/// every field, drop flag, lowered container and final register cell to
/// stay inside `analyze_p4`'s abstraction of that side.
fn check_p4(
    program: &str,
    workload: &P4Workload,
    seed: u64,
    npackets: usize,
) -> Result<(), String> {
    let analysis = analyze_p4(&workload.hlir, &workload.entries, &workload.lowering)
        .map_err(|e| format!("{program}: {e}"))?;
    let (habs, mabs) = (&analysis.hlir, &analysis.mat);
    let layout = &workload.lowering.layout;

    let mut traffic = P4Traffic::new(workload, seed, 16);
    let trace = traffic.trace(npackets);

    // HLIR interpreter side.
    let mut interp = workload.interpreter();
    for (i, phv) in trace.phvs.iter().enumerate() {
        let mut packet = layout.phv_to_packet(i as u64, phv);
        interp.process(&mut packet);
        for (f, _) in layout.fields() {
            let v = packet.get(f);
            let a = habs.fields.get(f).copied().unwrap_or_else(AbsVal::top);
            if !a.contains(v) {
                return Err(format!(
                    "{program}: field {f} = {v} escapes the HLIR abstraction {a:?}"
                ));
            }
        }
        if !habs.dropped.contains(u32::from(packet.dropped)) {
            return Err(format!("{program}: drop flag escapes the HLIR abstraction"));
        }
    }
    for (name, cells) in interp.registers() {
        let acells = habs.registers.get(name).cloned().unwrap_or_default();
        for (i, (&c, a)) in cells.iter().zip(&acells).enumerate() {
            if !a.contains(c) {
                return Err(format!(
                    "{program}: register {name}[{i}] = {c} escapes the HLIR abstraction {a:?}"
                ));
            }
        }
    }

    // Lowered fused MatInstr side.
    let mut mat = MatPipeline::generate(
        &workload.hlir,
        &workload.entries,
        &workload.lowering,
        OptLevel::Fused,
    )
    .map_err(|e| format!("{program}: {e}"))?;
    let out = mat.run(&trace);
    for phv in &out.phvs {
        for (slot, a) in mabs.frame.iter().enumerate() {
            let v = phv.get(slot);
            if !a.contains(v) {
                return Err(format!(
                    "{program}: lowered container[{slot}] = {v} escapes the MAT abstraction {a:?}"
                ));
            }
        }
    }
    for (name, cells) in &mat.registers() {
        let acells = mabs.registers.get(name).cloned().unwrap_or_default();
        for (i, (&c, a)) in cells.iter().zip(&acells).enumerate() {
            if !a.contains(c) {
                return Err(format!(
                    "{program}: lowered register {name}[{i}] = {c} escapes the MAT \
                     abstraction {a:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn domino_concrete_runs_stay_inside_top_abstraction(
        seed in 0u64..0xFFFF_FFFF,
        npackets in 1usize..5,
    ) {
        // The corpus, plus a few generated programs: the analysis also
        // screens and translation-validates every `gen-sweep` candidate.
        let generated = (0..3).map(|index| {
            let g = generate_domino_at(seed, index);
            (g.name, g.compiled)
        });
        let corpus = PROGRAMS
            .iter()
            .map(|def| (def.name.to_string(), def.compile_cached().unwrap()));
        for (name, compiled) in corpus.chain(generated) {
            let len = compiled.pipeline_spec.config.phv_length;
            let input = vec![AbsVal::top(); len];
            let trace = TrafficGenerator::new(seed, len, 16).trace(npackets);
            if let Err(e) = check_domino(&name, &compiled, &input, &trace) {
                prop_assert!(false, "{e}");
            }
        }
    }

    #[test]
    fn domino_repeated_packet_stays_inside_constant_abstraction(
        seed in 0u64..0xFFFF_FFFF,
        npackets in 1usize..5,
    ) {
        for def in &PROGRAMS {
            let compiled = def.compile_cached().unwrap();
            let len = compiled.pipeline_spec.config.phv_length;
            let phv = TrafficGenerator::new(seed, len, 16).next_phv();
            let input: Vec<AbsVal> =
                (0..len).map(|c| AbsVal::constant(phv.get(c))).collect();
            let trace = Trace::from_phvs(vec![phv; npackets]);
            if let Err(e) = check_domino(def.name, &compiled, &input, &trace) {
                prop_assert!(false, "{e}");
            }
        }
    }

    #[test]
    fn p4_concrete_runs_stay_inside_abstraction(
        seed in 0u64..0xFFFF_FFFF,
        npackets in 1usize..6,
    ) {
        // The corpus, plus a few generated programs: their metadata-keyed
        // entries drive the register fixpoint.
        let corpus = P4_PROGRAMS
            .iter()
            .map(|def| (def.name.to_string(), def.workload().unwrap()));
        let generated = (0..3).map(|index| {
            let g = generate_p4_at(seed, index);
            (g.name, g.workload)
        });
        for (program, workload) in corpus.chain(generated) {
            if let Err(e) = check_p4(&program, &workload, seed, npackets) {
                prop_assert!(false, "{e}");
            }
        }
    }
}

/// The proptest above runs a handful of short traces per program, too
/// few packets to push a register past a reset-valued abstraction. Long
/// traces close that gap: 256 packets per seed on every P4 corpus
/// program, so accumulating registers (`flow_meter`'s byte meter) run far
/// from their reset value.
#[test]
fn p4_long_traces_stay_inside_abstraction() {
    for def in &P4_PROGRAMS {
        let workload = def.workload().unwrap();
        for seed in [1, 7, 0xbeef] {
            if let Err(e) = check_p4(def.name, &workload, seed, 256) {
                panic!("seed {seed:#x}: {e}");
            }
        }
    }
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
