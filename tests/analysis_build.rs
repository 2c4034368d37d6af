//! One build per program: every analysis of a Domino program reads off
//! one store holding all four levels' transfer functions. That is only
//! sound if a level's canonical terms do not depend on what else the
//! store holds (commutative operands sort by term id, so a rewrite rule
//! keyed on ids could break it). These tests pin it: the all-level
//! build's abstraction at each level equals a one-level build's, and its
//! symbolic verdict equals the per-level verdicts combined. A mutated
//! machine code is a consistent program too: its verdict is never
//! `Refuted`, which is what lets a proved program's campaign run one
//! backend for all four.

use druzhba::alu_dsl::atoms::atom;
use druzhba::analysis::{symbolic_validate_level, AbsVal, ProgramBuild, SymbolicVerdict};
use druzhba::core::{MachineCode, PipelineConfig};
use druzhba::dgen::{expected_machine_code, OptLevel, PipelineSpec};
use druzhba::dsim::fault::{FaultInjector, FaultKind};
use druzhba::dsim::shard_seed;
use druzhba::progen::generate_domino;
use druzhba::programs::PROGRAMS;

/// The verdict of all compiled levels from their one-level verdicts, in
/// level order: the first refutation, else every residual.
fn combine(verdicts: impl IntoIterator<Item = SymbolicVerdict>) -> SymbolicVerdict {
    let mut residuals = Vec::new();
    for v in verdicts {
        match v {
            SymbolicVerdict::Proved => {}
            SymbolicVerdict::Refuted { .. } => return v,
            SymbolicVerdict::Unknown { residuals: r } => residuals.extend(r),
        }
    }
    if residuals.is_empty() {
        SymbolicVerdict::Proved
    } else {
        SymbolicVerdict::Unknown { residuals }
    }
}

fn assert_store_order_independent(name: &str, spec: &PipelineSpec, mc: &MachineCode) {
    let all = ProgramBuild::new(spec, mc, &OptLevel::ALL).expect("all levels build");
    let len = spec.config.phv_length;
    let inputs = [AbsVal::top(), AbsVal::bits(10), AbsVal::bits(4)].map(|v| vec![v; len]);
    for level in OptLevel::ALL {
        let alone = ProgramBuild::new(spec, mc, &[level]).expect("one level builds");
        for input in &inputs {
            assert_eq!(
                all.abstraction(level, input),
                alone.abstraction(level, input),
                "{name}: abstraction at {} under {:?}",
                level.key(),
                input[0]
            );
        }
    }
    let per_level = OptLevel::ALL[1..]
        .iter()
        .map(|&level| symbolic_validate_level(spec, mc, level));
    assert_eq!(all.verdict(), combine(per_level), "{name}: verdict");
}

#[test]
fn corpus_all_level_build_matches_one_level_builds() {
    for def in &PROGRAMS {
        let c = def.compile_cached().expect("corpus compiles");
        assert_store_order_independent(def.name, &c.pipeline_spec, &c.machine_code);
    }
}

#[test]
fn generated_all_level_build_matches_one_level_builds() {
    for g in generate_domino(7, 50) {
        let c = &g.compiled;
        assert_store_order_independent(&g.name, &c.pipeline_spec, &c.machine_code);
    }
}

/// Neither the all-level verdict nor any one level's verdict refutes
/// `mc`; returns whether every level built.
fn assert_never_refuted(name: &str, spec: &PipelineSpec, mc: &MachineCode) -> bool {
    for level in OptLevel::ALL[1..].iter().copied() {
        let v = symbolic_validate_level(spec, mc, level);
        assert!(
            !matches!(v, SymbolicVerdict::Refuted { .. }),
            "{name}: {} refuted: {v:?}",
            level.key()
        );
    }
    let Ok(all) = ProgramBuild::new(spec, mc, &OptLevel::ALL) else {
        return false;
    };
    let v = all.verdict();
    assert!(
        !matches!(v, SymbolicVerdict::Refuted { .. }),
        "{name}: refuted: {v:?}"
    );
    true
}

/// Every backend implements a mutated machine code's semantics alike, so
/// proof-based validation never misreports a mutation as a
/// miscompilation, at any level: a hand-made subtracting accumulator, and
/// behavioural faults injected into the corpus and generated programs.
#[test]
fn mutated_machine_code_is_never_refuted() {
    // 1-stage accumulator (state += container 0; old state -> container
    // 1), mutated to subtract.
    let spec = PipelineSpec::new(
        PipelineConfig::with_phv_length(1, 1, 2),
        atom("raw").unwrap(),
        atom("stateless_mux").unwrap(),
    )
    .unwrap();
    let mut mc = MachineCode::from_pairs(
        expected_machine_code(&spec)
            .into_iter()
            .map(|(n, _)| (n, 0)),
    );
    mc.set("output_mux_phv_0_1", 2);
    mc.set("stateful_alu_0_0_arith_op_0", 1);
    assert!(assert_never_refuted("subtracting accumulator", &spec, &mc));

    let corpus = PROGRAMS.iter().map(|def| {
        let c = def.compile_cached().expect("corpus compiles");
        (def.name.to_string(), c.pipeline_spec, c.machine_code)
    });
    let generated = generate_domino(7, 20).into_iter().map(|g| {
        let c = g.compiled;
        (g.name, c.pipeline_spec, c.machine_code)
    });
    let mut built = 0;
    for (i, (name, spec, mc)) in corpus.chain(generated).enumerate() {
        for kind in FaultKind::BEHAVIORAL {
            let mut injector = FaultInjector::new(shard_seed(0xFA17, i as u64));
            if let Some((bad, fault)) = injector.inject(&spec, &mc, kind) {
                let name = format!("{name} + {fault:?}");
                built += usize::from(assert_never_refuted(&name, &spec, &bad));
            }
        }
    }
    assert!(built > 0, "some mutant must build at every level");
}
