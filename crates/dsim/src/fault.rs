//! Machine-code fault injection.
//!
//! The paper's case study (§5.2) surfaces two classes of bad machine code:
//! programs *missing pairs* (incompatible with the pipeline) and programs
//! whose values produce *wrong behaviour* (caught as trace mismatches).
//! This module manufactures both kinds of faults from a known-good program,
//! so the test suite can verify that the fuzzing workflow actually detects
//! them — a tester that never fires is worse than no tester.

use druzhba_core::{MachineCode, ValueGen};
use druzhba_dgen::{expected_machine_code, PipelineSpec};

/// A description of an injected fault, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A pair was deleted from the program.
    RemovedPair { name: String },
    /// A pair's value was replaced (still within the primitive's domain).
    MutatedValue { name: String, old: u32, new: u32 },
    /// A pair's value was set outside the primitive's domain.
    OutOfRangeValue { name: String, new: u32 },
    /// A full-width immediate was set to the hostile sentinel
    /// ([`druzhba_core::hostile::HOSTILE_TRAP_VALUE`]): still in-domain —
    /// so it survives validation and static screening — but every backend
    /// that builds the program panics deterministically. Models a
    /// compiler crash on valid input.
    HostileTrap { name: String, old: u32 },
}

/// The class of a [`Fault`], without its concrete location/values. Hunt
/// campaigns seed mutants per class and report detection per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A pair deleted from the program (§5.2 "missing machine code pairs").
    RemovedPair,
    /// An in-domain value replacement (wrong behaviour, buildable).
    MutatedValue,
    /// An out-of-domain value (rejected at pipeline generation).
    OutOfRangeValue,
    /// The in-domain hostile sentinel that crashes every backend build
    /// (detected as a `backend_panic` verdict, never as an abort).
    HostileTrap,
}

impl FaultKind {
    /// All fault classes, in campaign order. The first three are the
    /// behavioural classes the paper's case study motivates; the fourth
    /// exercises the runtime's panic isolation.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::RemovedPair,
        FaultKind::MutatedValue,
        FaultKind::OutOfRangeValue,
        FaultKind::HostileTrap,
    ];

    /// The three behavioural classes (everything but the hostile trap) —
    /// what generated-program fault sweeps inject, where a guaranteed
    /// panic would only add noise.
    pub const BEHAVIORAL: [FaultKind; 3] = [
        FaultKind::RemovedPair,
        FaultKind::MutatedValue,
        FaultKind::OutOfRangeValue,
    ];

    /// Stable snake_case label for machine-readable reports.
    pub fn key(self) -> &'static str {
        match self {
            FaultKind::RemovedPair => "removed_pair",
            FaultKind::MutatedValue => "mutated_value",
            FaultKind::OutOfRangeValue => "out_of_range_value",
            FaultKind::HostileTrap => "hostile_trap",
        }
    }

    /// Inverse of [`FaultKind::key`], for checkpoint decoding.
    pub fn from_key(key: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.key() == key)
    }
}

impl Fault {
    /// This fault's class.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::RemovedPair { .. } => FaultKind::RemovedPair,
            Fault::MutatedValue { .. } => FaultKind::MutatedValue,
            Fault::OutOfRangeValue { .. } => FaultKind::OutOfRangeValue,
            Fault::HostileTrap { .. } => FaultKind::HostileTrap,
        }
    }

    /// The machine-code pair the fault targets.
    pub fn name(&self) -> &str {
        match self {
            Fault::RemovedPair { name }
            | Fault::MutatedValue { name, .. }
            | Fault::OutOfRangeValue { name, .. }
            | Fault::HostileTrap { name, .. } => name,
        }
    }

    /// Re-apply this fault to (freshly compiled) machine code — the
    /// program-level minimization loop recompiles reduced programs and
    /// needs the *same* fault re-injected by pair name to decide whether
    /// a reduction still reproduces. Returns `None` when the target pair
    /// does not exist in `mc` (the reduction compiled the fault site
    /// away), which callers treat as "does not reproduce".
    pub fn apply(&self, mc: &MachineCode) -> Option<MachineCode> {
        let mut out = mc.clone();
        match self {
            Fault::RemovedPair { name } => {
                mc.try_get(name)?;
                out.remove(name);
            }
            Fault::MutatedValue { name, new, .. } | Fault::OutOfRangeValue { name, new } => {
                mc.try_get(name)?;
                out.set(name.clone(), *new);
            }
            Fault::HostileTrap { name, .. } => {
                mc.try_get(name)?;
                out.set(name.clone(), druzhba_core::hostile::HOSTILE_TRAP_VALUE);
            }
        }
        Some(out)
    }
}

/// Deterministic generator of faulty machine-code variants.
#[derive(Debug)]
pub struct FaultInjector {
    gen: ValueGen,
}

impl FaultInjector {
    /// A fault injector with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            gen: ValueGen::new(seed, 32),
        }
    }

    /// Inject one fault of the given class. [`FaultKind::RemovedPair`]
    /// always succeeds; the other two return `None` when the program has
    /// no suitable target (mutation targets *live* pairs, see
    /// [`FaultInjector::mutate_live_value`]).
    pub fn inject(
        &mut self,
        spec: &PipelineSpec,
        mc: &MachineCode,
        kind: FaultKind,
    ) -> Option<(MachineCode, Fault)> {
        match kind {
            FaultKind::RemovedPair => Some(self.remove_random_pair(mc)),
            FaultKind::MutatedValue => self.mutate_live_value(spec, mc),
            FaultKind::OutOfRangeValue => self.out_of_range_value(spec, mc),
            FaultKind::HostileTrap => self.hostile_trap(spec, mc),
        }
    }

    /// Remove one randomly chosen pair (the paper's "missing machine code
    /// pairs" failure).
    pub fn remove_random_pair(&mut self, mc: &MachineCode) -> (MachineCode, Fault) {
        let names: Vec<String> = mc.names().map(str::to_string).collect();
        let idx = self.gen.value_below(names.len() as u32) as usize;
        let name = names[idx].clone();
        let mut out = mc.clone();
        out.remove(&name);
        (out, Fault::RemovedPair { name })
    }

    /// Mutate one randomly chosen pair to a *different* in-domain value.
    ///
    /// Returns `None` if no primitive has more than one legal value (then
    /// every in-domain mutation would be a no-op).
    pub fn mutate_random_value(
        &mut self,
        spec: &PipelineSpec,
        mc: &MachineCode,
    ) -> Option<(MachineCode, Fault)> {
        let expected = expected_machine_code(spec);
        let mutable: Vec<_> = expected
            .iter()
            .filter(|(_, domain)| domain.bound() > 1)
            .collect();
        if mutable.is_empty() {
            return None;
        }
        let (name, domain) = mutable[self.gen.value_below(mutable.len() as u32) as usize];
        let old = mc.try_get(name)?;
        let bound = domain.bound().min(1 << 16) as u32;
        let mut new = self.gen.value_below(bound);
        if new == old {
            new = (new + 1) % bound;
        }
        let mut out = mc.clone();
        out.set(name.clone(), new);
        Some((
            out,
            Fault::MutatedValue {
                name: name.clone(),
                old,
                new,
            },
        ))
    }

    /// Mutate one randomly chosen *live* pair — a pair the compiler
    /// programmed to a nonzero value — to a different in-domain value.
    ///
    /// Most of a grid's machine code is dead (unused ALUs, untaken branches
    /// of opcode-dispatched atoms), so a uniformly random mutation is
    /// usually behaviourally neutral. The compiler only emits nonzero
    /// values for primitives the program actually exercises, which makes
    /// nonzero pairs the semantically loaded targets — the ones a mutation
    /// campaign must be able to detect.
    ///
    /// Returns `None` if no live pair has more than one legal value.
    pub fn mutate_live_value(
        &mut self,
        spec: &PipelineSpec,
        mc: &MachineCode,
    ) -> Option<(MachineCode, Fault)> {
        let expected = expected_machine_code(spec);
        let live: Vec<_> = expected
            .iter()
            .filter(|(name, domain)| domain.bound() > 1 && mc.try_get(name).is_some_and(|v| v != 0))
            .collect();
        if live.is_empty() {
            return None;
        }
        let (name, domain) = live[self.gen.value_below(live.len() as u32) as usize];
        let old = mc.try_get(name)?;
        let bound = domain.bound().min(1 << 16) as u32;
        let mut new = self.gen.value_below(bound);
        if new == old {
            new = (new + 1) % bound;
        }
        let mut out = mc.clone();
        out.set(name.clone(), new);
        Some((
            out,
            Fault::MutatedValue {
                name: name.clone(),
                old,
                new,
            },
        ))
    }

    /// Set one randomly chosen *choice* primitive (mux or opcode) out of
    /// its domain.
    pub fn out_of_range_value(
        &mut self,
        spec: &PipelineSpec,
        mc: &MachineCode,
    ) -> Option<(MachineCode, Fault)> {
        let expected = expected_machine_code(spec);
        let choices: Vec<_> = expected
            .iter()
            .filter(|(_, d)| matches!(d, druzhba_alu_dsl::HoleDomain::Choice(_)))
            .collect();
        if choices.is_empty() {
            return None;
        }
        let (name, domain) = choices[self.gen.value_below(choices.len() as u32) as usize];
        let new = domain.bound() as u32;
        let mut out = mc.clone();
        out.set(name.clone(), new);
        Some((
            out,
            Fault::OutOfRangeValue {
                name: name.clone(),
                new,
            },
        ))
    }

    /// Plant the hostile sentinel into one randomly chosen full-width
    /// (`Bits(32)`) immediate hole: the program stays in-domain, so it
    /// passes validation and static screening, but every backend build
    /// panics deterministically ([`druzhba_core::hostile`]).
    ///
    /// Returns `None` if the grid has no hole wide enough to represent
    /// the sentinel (ordinary value mutation is capped at 16 bits, so the
    /// two fault populations can never collide).
    pub fn hostile_trap(
        &mut self,
        spec: &PipelineSpec,
        mc: &MachineCode,
    ) -> Option<(MachineCode, Fault)> {
        let expected = expected_machine_code(spec);
        let wide: Vec<_> = expected
            .iter()
            .filter(|(_, d)| matches!(d, druzhba_alu_dsl::HoleDomain::Bits(b) if *b >= 32))
            .collect();
        if wide.is_empty() {
            return None;
        }
        let (name, _) = wide[self.gen.value_below(wide.len() as u32) as usize];
        let old = mc.try_get(name)?;
        let mut out = mc.clone();
        out.set(name.clone(), druzhba_core::hostile::HOSTILE_TRAP_VALUE);
        Some((
            out,
            Fault::HostileTrap {
                name: name.clone(),
                old,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::PipelineConfig;
    use druzhba_dgen::{OptLevel, Pipeline};

    fn setup() -> (PipelineSpec, MachineCode) {
        let spec = PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("pred_raw").unwrap(),
            atom("stateless_arith").unwrap(),
        )
        .unwrap();
        let mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        (spec, mc)
    }

    #[test]
    fn removed_pair_always_rejected_by_dgen() {
        let (spec, mc) = setup();
        let mut inj = FaultInjector::new(1);
        for _ in 0..20 {
            let (bad, fault) = inj.remove_random_pair(&mc);
            assert_eq!(bad.len(), mc.len() - 1);
            let err = Pipeline::generate(&spec, &bad, OptLevel::SccInline).unwrap_err();
            assert!(err.is_incompatibility(), "{fault:?} -> {err}");
        }
    }

    #[test]
    fn out_of_range_always_rejected_by_dgen() {
        let (spec, mc) = setup();
        let mut inj = FaultInjector::new(2);
        for _ in 0..20 {
            let (bad, _) = inj.out_of_range_value(&spec, &mc).unwrap();
            let err = Pipeline::generate(&spec, &bad, OptLevel::Scc).unwrap_err();
            assert!(err.is_incompatibility());
        }
    }

    #[test]
    fn mutation_produces_valid_but_different_program() {
        let (spec, mc) = setup();
        let mut inj = FaultInjector::new(3);
        for _ in 0..20 {
            let (bad, fault) = inj.mutate_random_value(&spec, &mc).unwrap();
            // Still buildable: mutation stays in-domain.
            Pipeline::generate(&spec, &bad, OptLevel::SccInline).unwrap();
            match fault {
                Fault::MutatedValue { old, new, .. } => assert_ne!(old, new),
                other => panic!("unexpected fault: {other:?}"),
            }
            assert_ne!(bad, mc);
        }
    }

    #[test]
    fn live_mutation_targets_programmed_pairs() {
        let (spec, mut mc) = setup();
        // Program a couple of live pairs the way a compiler would.
        mc.set("output_mux_phv_0_0", 2);
        mc.set("stateful_alu_0_0_const_0", 7);
        let mut inj = FaultInjector::new(11);
        for _ in 0..20 {
            let (bad, fault) = inj.mutate_live_value(&spec, &mc).unwrap();
            let Fault::MutatedValue { name, old, new } = &fault else {
                panic!("unexpected fault: {fault:?}");
            };
            assert_ne!(old, new);
            assert_ne!(*old, 0, "mutation must target a live (nonzero) pair");
            assert_eq!(mc.try_get(name), Some(*old));
            // Still buildable: the mutation stays in-domain.
            Pipeline::generate(&spec, &bad, OptLevel::SccInline).unwrap();
        }
    }

    #[test]
    fn live_mutation_without_live_pairs_is_none() {
        let (spec, mc) = setup(); // all-zero program: nothing is live
        assert!(FaultInjector::new(1)
            .mutate_live_value(&spec, &mc)
            .is_none());
    }

    #[test]
    fn kind_and_name_accessors() {
        let f = Fault::MutatedValue {
            name: "x".into(),
            old: 1,
            new: 2,
        };
        assert_eq!(f.kind(), FaultKind::MutatedValue);
        assert_eq!(f.kind().key(), "mutated_value");
        assert_eq!(f.name(), "x");
        assert_eq!(FaultKind::ALL.len(), 4);
        assert_eq!(FaultKind::BEHAVIORAL.len(), 3);
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(FaultKind::from_key("nonsense"), None);
    }

    #[test]
    fn hostile_trap_is_valid_but_panics_every_backend() {
        let (spec, mc) = setup();
        let mut inj = FaultInjector::new(13);
        let (bad, fault) = inj.hostile_trap(&spec, &mc).unwrap();
        let Fault::HostileTrap { name, .. } = &fault else {
            panic!("unexpected fault: {fault:?}");
        };
        assert_eq!(
            bad.try_get(name),
            Some(druzhba_core::hostile::HOSTILE_TRAP_VALUE)
        );
        // In-domain: validation accepts the program...
        assert!(druzhba_dgen::pipeline::validate_machine_code(&spec, &bad).is_empty());
        // ...but every backend build panics (deterministically).
        for opt in OptLevel::ALL {
            let caught = std::panic::catch_unwind(|| Pipeline::generate(&spec, &bad, opt));
            assert!(caught.is_err(), "{opt:?} must trip the trap");
        }
    }

    #[test]
    fn inject_dispatches_by_kind() {
        let (spec, mut mc) = setup();
        mc.set("output_mux_phv_0_0", 1);
        let mut inj = FaultInjector::new(5);
        for kind in FaultKind::ALL {
            let (_, fault) = inj.inject(&spec, &mc, kind).unwrap();
            assert_eq!(fault.kind(), kind);
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let (spec, mc) = setup();
        let a = FaultInjector::new(7)
            .mutate_random_value(&spec, &mc)
            .unwrap();
        let b = FaultInjector::new(7)
            .mutate_random_value(&spec, &mc)
            .unwrap();
        assert_eq!(a.1, b.1);
    }
}
