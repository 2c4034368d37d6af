//! Bounded exhaustive equivalence verification.
//!
//! The paper's §7 proposes going beyond fuzzing: *"we wish to use program
//! verification by allowing support for a high-level specification … This
//! specification and the pipeline description can be transformed into SMT
//! formulas so that equivalence can be formally proven."* This module
//! provides the solver-free counterpart: for a bounded input domain (k-bit
//! values in the enumerated containers, traces of a fixed number of PHVs),
//! it checks *every* input exactly — within those bounds the result is a
//! proof, not a sample.
//!
//! The domain must be small (the case count is
//! `2^(bits · containers · packets)`), which is exactly the regime where
//! guard/threshold bugs live: the §5.2 limited-range failures are
//! distinguishable with 4-bit inputs and a handful of packets.

use druzhba_analysis::{symbolic_validate_level, SymbolicResidual, SymbolicVerdict};
use druzhba_core::trace::TraceMismatch;
use druzhba_core::{Error, MachineCode, Phv, Result, Trace};
use druzhba_dgen::{LanePipeline, OptLevel, Pipeline, PipelineSpec};

use crate::minimize::{minimize, MinimizeConfig, MinimizedCounterExample};
use crate::sim::Simulator;
use crate::testing::Specification;

/// Bounds and observation points for exhaustive verification.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Enumerated values per container: `[0, 2^input_bits)`.
    pub input_bits: u32,
    /// Length of every enumerated input trace.
    pub packets: usize,
    /// Containers enumerated (the program's input fields); all others are
    /// zero in every generated PHV.
    pub relevant_containers: Vec<usize>,
    /// Containers compared against the specification (`None` = all).
    pub observable: Option<Vec<usize>>,
    /// State cells compared after each trace.
    pub state_cells: Vec<(usize, usize, usize)>,
    /// Refuse to enumerate more cases than this (guards against
    /// accidental exponential blowups).
    pub max_cases: u64,
    /// Lane width for SIMD-swept enumeration (0 = scalar). When set, the
    /// fused program is lane-lowered and that many inputs are enumerated
    /// per instruction stream pass, which also lifts the scalar path's
    /// `input_bits <= 31` wall to the full 32 bits. Requires
    /// [`OptLevel::Fused`] and a width in
    /// [`LANE_WIDTHS`](druzhba_dgen::LANE_WIDTHS).
    pub lanes: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            input_bits: 2,
            packets: 3,
            relevant_containers: Vec::new(),
            observable: None,
            state_cells: Vec::new(),
            max_cases: 5_000_000,
            lanes: 0,
        }
    }
}

/// The verdict of a bounded verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every input within the bounds agreed.
    Verified {
        /// Number of input traces checked.
        cases: u64,
    },
    /// A concrete diverging input.
    CounterExample {
        /// The input trace that diverges.
        input: Trace,
        /// Where pipeline and specification disagree.
        mismatch: TraceMismatch,
        /// The input further reduced by delta debugging (enumeration
        /// order already biases toward small inputs, but value shrinking
        /// and packet reduction usually tighten it more). Boxed to keep
        /// the happy-path `Verified` variant small.
        minimized: Option<Box<MinimizedCounterExample>>,
    },
}

impl VerifyOutcome {
    /// True if verification succeeded.
    pub fn verified(&self) -> bool {
        matches!(self, VerifyOutcome::Verified { .. })
    }
}

/// Delta-debug a concrete diverging input found by the enumeration (the
/// odometer order already biases toward small values, but packet
/// reduction and value shrinking usually tighten it further).
fn minimize_counterexample(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    input: &Trace,
    cfg: &VerifyConfig,
) -> Option<Box<MinimizedCounterExample>> {
    minimize(
        pipeline_spec,
        mc,
        opt,
        reference,
        input,
        &MinimizeConfig {
            observable: cfg.observable.clone(),
            state_cells: cfg.state_cells.clone(),
            ..MinimizeConfig::default()
        },
    )
    .map(Box::new)
}

/// Exhaustively check pipeline-vs-specification equivalence within the
/// configured bounds.
pub fn verify_bounded(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &VerifyConfig,
) -> Result<VerifyOutcome> {
    if cfg.lanes > 0 {
        return verify_bounded_lanes(pipeline_spec, mc, opt, reference, cfg);
    }
    // Refuse domains we cannot actually enumerate rather than silently
    // clamping: reporting "verified" over a smaller domain than requested
    // would be a false proof.
    if cfg.input_bits > 31 {
        return Err(Error::Other {
            message: format!(
                "bounded verification supports at most 31-bit inputs \
                 (requested {} bits); clamping would silently verify a \
                 smaller domain than asked for",
                cfg.input_bits
            ),
        });
    }
    let slots = cfg.relevant_containers.len() * cfg.packets;
    let values_per_slot = 1u64 << cfg.input_bits;
    // An overflowing case count certainly exceeds any budget.
    let cases = values_per_slot
        .checked_pow(slots as u32)
        .unwrap_or(u64::MAX);
    if cases > cfg.max_cases {
        return Err(Error::Other {
            message: format!(
                "bounded verification needs {cases} cases \
                 (> budget {}); shrink bits/packets/containers",
                cfg.max_cases
            ),
        });
    }
    let pipeline = Pipeline::generate(pipeline_spec, mc, opt)?;
    let mut sim = Simulator::new(pipeline);
    let phv_length = pipeline_spec.config.phv_length;

    // Odometer over all (container, packet) slots.
    let mut assignment = vec![0u32; slots];
    let max = (values_per_slot - 1) as u32;
    let mut checked = 0u64;
    let nrel = cfg.relevant_containers.len();
    loop {
        let input = case_input(cfg, phv_length, |p, ci| assignment[p * nrel + ci]);
        if let Some(cex) = check_case(&mut sim, (pipeline_spec, mc, opt), reference, cfg, input) {
            return Ok(cex);
        }
        checked += 1;

        // Next assignment.
        let mut i = 0;
        loop {
            if i == slots {
                return Ok(VerifyOutcome::Verified { cases: checked });
            }
            if assignment[i] < max {
                assignment[i] += 1;
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
        if slots == 0 {
            // Single (empty) assignment: one case total.
            return Ok(VerifyOutcome::Verified { cases: checked });
        }
    }
}

/// SIMD-swept exhaustive enumeration: lane-lower the fused program
/// ([`druzhba_dgen::lanes`]) and push `cfg.lanes` enumerated inputs
/// through one instruction stream per pass, each lane an independent
/// execution with its own state.
///
/// Cases run in exactly the scalar odometer order (lanes are filled and
/// compared in case order), so the first divergence found is the same
/// case the scalar path would find first; that case is then re-run
/// through the scalar simulator to build a [`VerifyOutcome`] **identical**
/// to scalar mode's — same counterexample trace, mismatch, and
/// minimization. The swept engine also lifts the scalar path's 31-bit
/// input wall to the full 32 bits (the budget check moves to 128-bit
/// arithmetic so the case count cannot overflow).
fn verify_bounded_lanes(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &VerifyConfig,
) -> Result<VerifyOutcome> {
    if opt != OptLevel::Fused {
        return Err(Error::Other {
            message: format!(
                "lane-swept verification requires the fused backend \
                 (got {:?}); drop `lanes` for the scalar path",
                opt
            ),
        });
    }
    if !druzhba_dgen::lanes::supported_width(cfg.lanes) {
        return Err(Error::Other {
            message: format!(
                "unsupported lane width {} (supported: {:?})",
                cfg.lanes,
                druzhba_dgen::LANE_WIDTHS
            ),
        });
    }
    if cfg.input_bits > 32 {
        return Err(Error::Other {
            message: format!(
                "lane-swept verification supports at most 32-bit inputs \
                 (requested {} bits)",
                cfg.input_bits
            ),
        });
    }
    let slots = cfg.relevant_containers.len() * cfg.packets;
    let values_per_slot: u64 = 1u64 << cfg.input_bits;
    let total: u128 = (values_per_slot as u128)
        .checked_pow(slots as u32)
        .unwrap_or(u128::MAX);
    if total > u128::from(cfg.max_cases) {
        return Err(Error::Other {
            message: format!(
                "bounded verification needs {total} cases \
                 (> budget {}); shrink bits/packets/containers",
                cfg.max_cases
            ),
        });
    }

    let pipeline = Pipeline::generate(pipeline_spec, mc, opt)?;
    let fused = pipeline.fused_program().expect("fused level");
    let lowered = LanePipeline::lower(fused).ok_or_else(|| Error::Other {
        message: "fused program is not lane-lowerable".to_string(),
    })?;
    let width = cfg.lanes;
    let mut sweep = lowered.sweep(width).expect("width validated above");
    let phv_length = pipeline_spec.config.phv_length;
    let nrel = cfg.relevant_containers.len();
    let max = (values_per_slot - 1) as u32;

    // Reused buffers — the hot loop is allocation-free.
    let mut assignment = vec![0u32; slots];
    let mut assign_buf = vec![0u32; slots.max(1) * width];
    let mut out_buf = vec![0u32; cfg.packets * phv_length * width];
    let mut scratch_in = Phv::zeroed(phv_length);
    let mut scratch_out = Phv::zeroed(phv_length);
    let mut expected_state: Vec<druzhba_core::Value> = Vec::new();
    let mut checked = 0u64;
    let mut done = false;

    while !done {
        // Fill up to `width` lanes from the shared odometer, in case
        // order (cheap increments — no per-lane index arithmetic).
        let mut active = 0;
        while active < width && !done {
            for (s, &v) in assignment.iter().enumerate() {
                assign_buf[s * width + active] = v;
            }
            active += 1;
            if slots == 0 {
                done = true;
                break;
            }
            let mut i = 0;
            loop {
                if i == slots {
                    done = true;
                    break;
                }
                if assignment[i] < max {
                    assignment[i] += 1;
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
        if active == 0 {
            break;
        }

        // Execute all lanes in lockstep, buffering every output PHV.
        sweep.reset();
        for p in 0..cfg.packets {
            sweep.clear_phv();
            for lane in 0..active {
                for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                    sweep.set_input(lane, container, assign_buf[(p * nrel + ci) * width + lane]);
                }
            }
            sweep.step(active);
            for lane in 0..active {
                for c in 0..phv_length {
                    out_buf[(p * phv_length + c) * width + lane] = sweep.output(lane, c);
                }
            }
        }

        // Compare each lane against the reference, in case order, with
        // exactly `Trace::first_mismatch`'s per-container semantics.
        for lane in 0..active {
            reference.reset();
            let mut diverged = false;
            'packets: for p in 0..cfg.packets {
                for c in 0..phv_length {
                    scratch_in.set(c, 0);
                }
                for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                    scratch_in.set(container, assign_buf[(p * nrel + ci) * width + lane]);
                }
                reference.process_into(&scratch_in, &mut scratch_out);
                let compare = |c: usize| {
                    let expected = scratch_out.try_get(c);
                    let actual = if c < phv_length {
                        Some(out_buf[(p * phv_length + c) * width + lane])
                    } else {
                        None
                    };
                    expected != actual
                };
                match cfg.observable.as_deref() {
                    Some(obs) => {
                        for &c in obs {
                            if compare(c) {
                                diverged = true;
                                break 'packets;
                            }
                        }
                    }
                    None => {
                        for c in 0..scratch_out.len().max(phv_length) {
                            if compare(c) {
                                diverged = true;
                                break 'packets;
                            }
                        }
                    }
                }
            }
            if !diverged && !cfg.state_cells.is_empty() {
                reference.state_into(&mut expected_state);
                for (i, &(stage, slot, var)) in cfg.state_cells.iter().enumerate() {
                    if sweep.state_value(lane, stage, slot, var) != expected_state.get(i).copied() {
                        diverged = true;
                        break;
                    }
                }
            }
            if diverged {
                // Rebuild this case's input trace and re-run the *scalar*
                // verification path on it so the returned outcome is
                // byte-identical to what scalar mode would produce.
                let input = case_input(cfg, phv_length, |p, ci| {
                    assign_buf[(p * nrel + ci) * width + lane]
                });
                return scalar_recheck(pipeline_spec, mc, opt, reference, cfg, input);
            }
            checked += 1;
        }
    }
    Ok(VerifyOutcome::Verified { cases: checked })
}

/// One enumerated case: `cfg.packets` PHVs whose relevant containers
/// hold `value(packet, relevant container index)`, every other container 0.
fn case_input(cfg: &VerifyConfig, phv_length: usize, value: impl Fn(usize, usize) -> u32) -> Trace {
    let phvs = (0..cfg.packets).map(|p| {
        let mut phv = Phv::zeroed(phv_length);
        for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
            phv.set(container, value(p, ci));
        }
        phv
    });
    Trace::from_phvs(phvs.collect())
}

/// Run `input` through `sim` and `reference`, both from clean state; the
/// (minimized) counterexample when an observable container or a state
/// cell disagrees.
fn check_case(
    sim: &mut Simulator,
    (pipeline_spec, mc, opt): (&PipelineSpec, &MachineCode, OptLevel),
    reference: &mut dyn Specification,
    cfg: &VerifyConfig,
    input: Trace,
) -> Option<VerifyOutcome> {
    sim.reset();
    let actual = sim.run(&input);
    reference.reset();
    let expected = Trace::from_phvs(input.phvs.iter().map(|p| reference.process(p)).collect());
    let state_mismatch = || {
        if cfg.state_cells.is_empty() {
            return None;
        }
        let snapshot = actual.state.as_ref().expect("run records state");
        let expected_state = reference.state();
        cfg.state_cells
            .iter()
            .enumerate()
            .find_map(|(i, &(stage, slot, var))| {
                let actual_v = snapshot
                    .get(stage)
                    .and_then(|s| s.get(slot))
                    .and_then(|vars| vars.get(var))
                    .copied();
                let expected_v = expected_state.get(i).copied();
                (actual_v != expected_v).then(|| TraceMismatch::StateMismatch {
                    stage,
                    slot,
                    expected: expected_v.into_iter().collect(),
                    actual: actual_v.into_iter().collect(),
                })
            })
    };
    let mismatch = expected
        .first_mismatch(&actual, cfg.observable.as_deref())
        .or_else(state_mismatch)?;
    let minimized = minimize_counterexample(pipeline_spec, mc, opt, reference, &input, cfg);
    Some(VerifyOutcome::CounterExample {
        input,
        mismatch,
        minimized,
    })
}

/// Re-run one diverging case through the scalar simulator and build the
/// exact [`VerifyOutcome::CounterExample`] the scalar enumeration would
/// have returned for it. A lane-detected divergence the scalar backend
/// cannot reproduce is a lane-engine bug and reported as an error rather
/// than a counterexample.
fn scalar_recheck(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &VerifyConfig,
    input: Trace,
) -> Result<VerifyOutcome> {
    let mut sim = Simulator::new(Pipeline::generate(pipeline_spec, mc, opt)?);
    check_case(&mut sim, (pipeline_spec, mc, opt), reference, cfg, input).ok_or_else(|| {
        Error::Other {
            message: "lane-swept enumeration found a divergence the scalar \
                      backend does not reproduce — this is a lane-engine bug, \
                      not a compiler bug"
                .to_string(),
        }
    })
}

/// Outcome of proof-first verification ([`verify_symbolic_first`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicVerifyOutcome {
    /// The compiled program's canonical symbolic transfer function equals
    /// the source semantics' term for term — equivalence holds over the
    /// *entire* 32-bit input and state space, not just the bounds.
    Proved,
    /// Normalization left residual sites (unequal-but-not-disjoint terms,
    /// a refutation, or an executor bail); bounded enumeration decided
    /// them within the configured bounds.
    Fallback {
        /// The sites symbolic validation could not prove equal.
        residuals: Vec<SymbolicResidual>,
        /// What exhaustive enumeration concluded within the bounds.
        outcome: VerifyOutcome,
    },
}

impl SymbolicVerifyOutcome {
    /// True if equivalence holds — by proof, or exhaustively within the
    /// bounds after fallback.
    pub fn verified(&self) -> bool {
        match self {
            SymbolicVerifyOutcome::Proved => true,
            SymbolicVerifyOutcome::Fallback { outcome, .. } => outcome.verified(),
        }
    }
}

/// The Unoptimized backend of a machine code, viewed as a
/// [`Specification`]: the reference side of translation validation. Each
/// packet runs through a one-PHV trace so state persists across calls.
struct SourceSpec {
    sim: Simulator,
    state_cells: Vec<(usize, usize, usize)>,
    last_state: Option<druzhba_core::trace::StateSnapshot>,
}

impl Specification for SourceSpec {
    fn reset(&mut self) {
        self.sim.reset();
        self.last_state = None;
    }
    fn process(&mut self, input: &Phv) -> Phv {
        let out = self.sim.run(&Trace::from_phvs(vec![input.clone()]));
        self.last_state = out.state.clone();
        out.phvs.into_iter().next().expect("one PHV in, one out")
    }
    fn state(&self) -> Vec<druzhba_core::Value> {
        let snapshot = self.last_state.as_deref().unwrap_or(&[]);
        self.state_cells
            .iter()
            .map(|&(stage, slot, var)| {
                snapshot
                    .get(stage)
                    .and_then(|s| s.get(slot))
                    .and_then(|vars| vars.get(var))
                    .copied()
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Proof-first translation validation: try symbolic validation
/// (canonical term equality, which covers the full 32-bit input and
/// state space), and fall back to [`verify_bounded`]'s exhaustive
/// enumeration — compiled level against the Unoptimized backend of the
/// *same* machine code — only on the residual sites the rewrite engine
/// could not decide.
///
/// This relates the compiled program at `opt` to its own source
/// semantics, the same obligation `symbolic_validate_level` discharges.
/// To compare against an external specification (a mutant against the
/// original program's interpreter, say), use [`verify_bounded`]
/// directly.
pub fn verify_symbolic_first(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    cfg: &VerifyConfig,
) -> Result<SymbolicVerifyOutcome> {
    let residuals = match symbolic_validate_level(pipeline_spec, mc, opt) {
        SymbolicVerdict::Proved => return Ok(SymbolicVerifyOutcome::Proved),
        SymbolicVerdict::Refuted { level, site, .. } => vec![SymbolicResidual { level, site }],
        SymbolicVerdict::Unknown { residuals } => residuals,
    };
    let reference_pipeline = Pipeline::generate(pipeline_spec, mc, OptLevel::Unoptimized)?;
    let mut reference = SourceSpec {
        sim: Simulator::new(reference_pipeline),
        state_cells: cfg.state_cells.clone(),
        last_state: None,
    };
    let outcome = verify_bounded(pipeline_spec, mc, opt, &mut reference, cfg)?;
    Ok(SymbolicVerifyOutcome::Fallback { residuals, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ClosureSpec;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::PipelineConfig;
    use druzhba_dgen::expected_machine_code;

    /// 1-stage accumulator: state += container 0; old state -> container 1.
    fn setup() -> (PipelineSpec, MachineCode) {
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
        (spec, mc)
    }

    fn accumulator_spec() -> impl Specification {
        ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                *state = state.wrapping_add(input.get(0));
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![*s],
        )
    }

    #[test]
    fn correct_pipeline_verifies_exhaustively() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 3,
            packets: 3,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let outcome =
            verify_bounded(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg).unwrap();
        match outcome {
            VerifyOutcome::Verified { cases } => assert_eq!(cases, 8u64.pow(3)),
            other => panic!("expected verified, got {other:?}"),
        }
    }

    #[test]
    fn wrong_pipeline_yields_concrete_counterexample() {
        let (spec, mut mc) = setup();
        // Subtract instead of add.
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let cfg = VerifyConfig {
            input_bits: 2,
            packets: 2,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let outcome = verify_bounded(&spec, &mc, OptLevel::Scc, &mut reference, &cfg).unwrap();
        match outcome {
            VerifyOutcome::CounterExample { input, .. } => {
                // The counterexample must actually involve a nonzero add
                // (x - y == x + y only when y == 0 in 2-bit space... it
                // diverges as soon as any input is nonzero).
                assert!(input.phvs.iter().any(|p| p.get(0) != 0));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn budget_guard_refuses_blowups() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 10,
            packets: 10,
            relevant_containers: vec![0, 1],
            max_cases: 1_000,
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let err = verify_bounded(&spec, &mc, OptLevel::Scc, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("shrink"));
    }

    #[test]
    fn oversized_bit_widths_are_rejected_not_clamped() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 40,
            packets: 1,
            relevant_containers: vec![0],
            max_cases: u64::MAX,
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let err = verify_bounded(&spec, &mc, OptLevel::Scc, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("31-bit"), "{err}");
    }

    #[test]
    fn counterexample_carries_a_reproducing_minimization() {
        let (spec, mut mc) = setup();
        mc.set("stateful_alu_0_0_arith_op_0", 1); // subtract instead of add
        let cfg = VerifyConfig {
            input_bits: 2,
            packets: 3,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let outcome = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
        let VerifyOutcome::CounterExample {
            input, minimized, ..
        } = outcome
        else {
            panic!("expected counterexample");
        };
        let mce = minimized.expect("divergences carry a minimization");
        assert!(mce.packets() <= input.len());
        // Replaying the minimized input still diverges in the same class.
        let mut reference = accumulator_spec();
        let v = crate::testing::run_case(
            &spec,
            &mc,
            OptLevel::Fused,
            &mut reference,
            &mce.input,
            cfg.observable.as_deref(),
            &cfg.state_cells,
        );
        assert_eq!(v.class(), mce.verdict.class());
        assert!(!v.passed());
    }

    #[test]
    fn no_relevant_containers_is_single_case() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 4,
            packets: 5,
            relevant_containers: vec![],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let outcome =
            verify_bounded(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg).unwrap();
        assert_eq!(outcome, VerifyOutcome::Verified { cases: 1 });
    }

    /// A clean compiled program is proved symbolically — no enumeration
    /// runs at all, and the claim covers the full domain.
    #[test]
    fn symbolic_first_proves_clean_program_without_enumeration() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 3,
            packets: 3,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let outcome = verify_symbolic_first(&spec, &mc, OptLevel::SccInline, &cfg).unwrap();
        assert_eq!(outcome, SymbolicVerifyOutcome::Proved);
        assert!(outcome.verified());
    }

    /// A *mutated* machine code is still translation-consistent: every
    /// backend implements the mutated semantics, so proof-first
    /// validation must never misreport the mutation as a miscompilation
    /// (zero false refutations).
    #[test]
    fn symbolic_first_never_refutes_a_consistent_mutant() {
        let (spec, mut mc) = setup();
        mc.set("stateful_alu_0_0_arith_op_0", 1); // subtract instead of add
        let cfg = VerifyConfig {
            input_bits: 2,
            packets: 2,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        for level in [OptLevel::Scc, OptLevel::SccInline, OptLevel::Fused] {
            let outcome = verify_symbolic_first(&spec, &mc, level, &cfg).unwrap();
            assert!(outcome.verified(), "{level:?}: {outcome:?}");
        }
    }

    /// The fallback reference — the Unoptimized backend wrapped as a
    /// [`Specification`] — agrees with the compiled levels packet by
    /// packet, including persistent state across `process` calls.
    #[test]
    fn source_spec_reference_tracks_unoptimized_backend() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 2,
            packets: 3,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let pipeline = Pipeline::generate(&spec, &mc, OptLevel::Unoptimized).unwrap();
        let mut reference = SourceSpec {
            sim: Simulator::new(pipeline),
            state_cells: cfg.state_cells.clone(),
            last_state: None,
        };
        let outcome = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
        assert_eq!(outcome, VerifyOutcome::Verified { cases: 4u64.pow(3) });
    }

    /// Exhaustive verification catches the §5.2 limited-range bug class
    /// that sampling-based fuzzing can only catch probabilistically: a
    /// sampling-style reset whose threshold is off by one.
    #[test]
    fn catches_threshold_off_by_one_exhaustively() {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            atom("if_else_raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap();
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        // if (state >= 3) { state = 0 } else { state += pkt_0 }
        mc.set("stateful_alu_0_0_rel_op_0", 0); // >=
        mc.set("stateful_alu_0_0_mux3_0", 2); // C()
        mc.set("stateful_alu_0_0_const_0", 3);
        mc.set("stateful_alu_0_0_opt_1", 1); // then: 0 + ...
        mc.set("stateful_alu_0_0_mux3_1", 2); // ... + C(0)
        mc.set("stateful_alu_0_0_mux3_2", 0); // else: state + pkt_0
        mc.set("output_mux_phv_0_1", 2);
        // The spec resets at threshold 4 — the machine code's 3 is an
        // off-by-one only visible when the running sum lands exactly on 3.
        let mut reference = ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                if *state >= 4 {
                    *state = 0;
                } else {
                    *state = state.wrapping_add(input.get(0));
                }
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![*s],
        );
        let cfg = VerifyConfig {
            input_bits: 3,
            packets: 2,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let outcome =
            verify_bounded(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg).unwrap();
        match outcome {
            VerifyOutcome::CounterExample { input, .. } => {
                // Divergence requires the first packet to land the sum
                // exactly on 3.
                assert_eq!(input.phvs[0].get(0), 3);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    /// The threshold-off-by-one pipeline of
    /// [`catches_threshold_off_by_one_exhaustively`], reused by the
    /// lane-swept cross-checks (micro domain, counterexample expected).
    fn threshold_setup() -> (PipelineSpec, MachineCode) {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            atom("if_else_raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap();
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        mc.set("stateful_alu_0_0_rel_op_0", 0); // >=
        mc.set("stateful_alu_0_0_mux3_0", 2); // C()
        mc.set("stateful_alu_0_0_const_0", 3);
        mc.set("stateful_alu_0_0_opt_1", 1);
        mc.set("stateful_alu_0_0_mux3_1", 2);
        mc.set("stateful_alu_0_0_mux3_2", 0);
        mc.set("output_mux_phv_0_1", 2);
        (spec, mc)
    }

    fn threshold_reference() -> impl Specification {
        ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                if *state >= 4 {
                    *state = 0;
                } else {
                    *state = state.wrapping_add(input.get(0));
                }
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![*s],
        )
    }

    /// Satellite cross-check: for micro input domains (<= 2^16 cases),
    /// scalar and lane-swept enumeration reach the **same** outcome —
    /// equal `Verified` case counts, or an `==`-equal `CounterExample`
    /// (same input trace, same mismatch, same minimization and therefore
    /// the same verdict class) — at every lane width.
    #[test]
    fn lane_swept_micro_domain_matches_scalar_exactly() {
        // Verified outcome: the clean accumulator, 8^3 = 512 cases.
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 3,
            packets: 3,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = accumulator_spec();
        let scalar = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
        assert_eq!(scalar, VerifyOutcome::Verified { cases: 512 });
        for lanes in [1usize, 8, 64] {
            let cfg = VerifyConfig {
                lanes,
                ..cfg.clone()
            };
            let mut reference = accumulator_spec();
            let swept = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
            assert_eq!(swept, scalar, "width {lanes}");
        }

        // CounterExample outcome: the off-by-one threshold, 2^16 cases so
        // enumeration has to work through plenty of agreeing lanes first.
        let (spec, mc) = threshold_setup();
        let cfg = VerifyConfig {
            input_bits: 8,
            packets: 2,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            ..VerifyConfig::default()
        };
        let mut reference = threshold_reference();
        let scalar = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
        let VerifyOutcome::CounterExample {
            input, minimized, ..
        } = &scalar
        else {
            panic!("expected counterexample, got {scalar:?}");
        };
        assert_eq!(input.phvs[0].get(0), 3);
        let scalar_class = minimized.as_ref().expect("minimized").verdict.class();
        for lanes in [1usize, 8, 64] {
            let cfg = VerifyConfig {
                lanes,
                ..cfg.clone()
            };
            let mut reference = threshold_reference();
            let swept = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
            assert_eq!(swept, scalar, "width {lanes}");
            let VerifyOutcome::CounterExample { minimized, .. } = &swept else {
                unreachable!("equality above");
            };
            assert_eq!(
                minimized.as_ref().expect("minimized").verdict.class(),
                scalar_class,
                "width {lanes}: minimized verdict class"
            );
        }
    }

    #[test]
    fn lane_swept_rejects_non_fused_levels_and_bad_widths() {
        let (spec, mc) = setup();
        let base = VerifyConfig {
            input_bits: 2,
            packets: 1,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            ..VerifyConfig::default()
        };
        let cfg = VerifyConfig {
            lanes: 8,
            ..base.clone()
        };
        let mut reference = accumulator_spec();
        let err =
            verify_bounded(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("fused"), "{err}");
        let cfg = VerifyConfig {
            lanes: 7,
            ..base.clone()
        };
        let err = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("lane width"), "{err}");
        // The budget guard still applies, with the same "shrink" hint.
        let cfg = VerifyConfig {
            lanes: 8,
            input_bits: 32,
            max_cases: 1_000,
            ..base.clone()
        };
        let err = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("shrink"), "{err}");
        // Bits past even the lifted wall are rejected, not clamped.
        let cfg = VerifyConfig {
            lanes: 8,
            input_bits: 33,
            max_cases: u64::MAX,
            ..base
        };
        let err = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
    }

    /// An allocation-free accumulator reference for the full-width proof:
    /// the default `process`/`state` path allocates two `Vec`s per case,
    /// which at 2^32 cases is the difference between minutes and hours.
    struct AccSpec {
        state: u32,
    }

    impl Specification for AccSpec {
        fn reset(&mut self) {
            self.state = 0;
        }
        fn process(&mut self, input: &Phv) -> Phv {
            let old = self.state;
            self.state = self.state.wrapping_add(input.get(0));
            Phv::new(vec![input.get(0), old])
        }
        fn state(&self) -> Vec<druzhba_core::Value> {
            vec![self.state]
        }
        fn process_into(&mut self, input: &Phv, out: &mut Phv) {
            let old = self.state;
            self.state = self.state.wrapping_add(input.get(0));
            out.set(0, input.get(0));
            out.set(1, old);
        }
        fn state_into(&mut self, out: &mut Vec<druzhba_core::Value>) {
            out.clear();
            out.push(self.state);
        }
    }

    /// The acceptance-criterion proof: lane-swept enumeration verifies a
    /// program over its **entire 32-bit input domain** — all 2^32 single-
    /// packet traces — past the scalar path's 31-bit wall, within an
    /// explicit budget. (The workspace compiles dsim's tests with
    /// `opt-level = 2` precisely so this sweep stays in test-suite
    /// territory; see the root `Cargo.toml` profile overrides.)
    #[test]
    fn lane_swept_proves_full_32_bit_domain() {
        let (spec, mc) = setup();
        let cfg = VerifyConfig {
            input_bits: 32,
            packets: 1,
            relevant_containers: vec![0],
            observable: Some(vec![1]),
            state_cells: vec![(0, 0, 0)],
            max_cases: 1 << 32,
            lanes: 64,
        };
        // Scalar mode refuses this domain outright.
        let mut reference = AccSpec { state: 0 };
        let scalar_cfg = VerifyConfig {
            lanes: 0,
            ..cfg.clone()
        };
        let err =
            verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &scalar_cfg).unwrap_err();
        assert!(err.to_string().contains("31-bit"), "{err}");
        // The swept mode proves it exhaustively.
        let outcome = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
        assert_eq!(outcome, VerifyOutcome::Verified { cases: 1 << 32 });
    }
}
