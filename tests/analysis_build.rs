//! One build per program: every analysis of a Domino program reads off
//! one store holding all four levels' transfer functions. That is only
//! sound if a level's canonical terms do not depend on what else the
//! store holds (commutative operands sort by term id, so a rewrite rule
//! keyed on ids could break it). These tests pin it: the all-level
//! build's abstraction at each level equals a one-level build's, and its
//! symbolic verdict equals the per-level verdicts combined.

use druzhba::analysis::{symbolic_validate_level, AbsVal, ProgramBuild, SymbolicVerdict};
use druzhba::core::MachineCode;
use druzhba::dgen::{OptLevel, PipelineSpec};
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
