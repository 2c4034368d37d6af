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
//! distinguishable with 4-bit inputs and a handful of packets. Lane-swept
//! enumeration ([`VerifyConfig::lanes`]) runs both sides of the check a
//! batch at a time: the pipeline on the SIMD lane engine, the reference
//! through [`Specification::expect_lanes`], compared column by column.

use druzhba_core::trace::TraceMismatch;
use druzhba_core::{Error, MachineCode, Phv, Result, Trace, Value};
use druzhba_dgen::{LanePipeline, LaneSweep, OptLevel, Pipeline, PipelineSpec};

use crate::sim::Simulator;
use crate::testing::{LaneExpectation, SpecComparator, Specification};

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
    /// A concrete diverging input: the first in enumeration order, which
    /// already biases toward small values. Callers that want it smaller
    /// delta-debug it with [`minimize`](crate::minimize::minimize).
    CounterExample {
        /// The input trace that diverges.
        input: Trace,
        /// Where pipeline and specification disagree.
        mismatch: TraceMismatch,
    },
}

/// Exhaustively check pipeline-vs-specification equivalence within the
/// configured bounds.
///
/// One loop enumerates every case: an odometer over the `(packet,
/// container)` slots fills batches of input traces in case order, and each
/// batch runs on one of two executors.
///
/// - Scalar (`cfg.lanes == 0`): the tick-accurate [`Simulator`] at any
///   level, one case per batch, checked by the ALU stack's one spec
///   comparison, the one every fuzz check makes.
/// - Lanes (`cfg.lanes > 0`): the lane-lowered fused program
///   ([`druzhba_dgen::lanes`]) pushes `cfg.lanes` cases through one
///   instruction stream per pass, each lane an independent execution with
///   its own state. The reference runs the same batch through
///   [`Specification::expect_lanes`] (the Domino interpreter walks all
///   lanes at once), and a column check under the same observation rules
///   names the first diverging case of the batch.
///
/// Both executors check cases in the same order, so the first divergence
/// is the same case either way. A lane-found divergence is re-run on the
/// simulator and compared there to build the [`VerifyOutcome`], so the
/// counterexample is **identical** to the scalar one; a divergence the
/// simulator does not reproduce is a lane-engine bug, reported as an
/// error. The lane engine also lifts the scalar 31-bit input wall to the
/// full 32 bits.
pub fn verify_bounded(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &VerifyConfig,
) -> Result<VerifyOutcome> {
    check_bounds(opt, cfg)?;
    let pipeline = Pipeline::generate(pipeline_spec, mc, opt)?;
    let phv_length = pipeline_spec.config.phv_length;
    let mut comparator =
        SpecComparator::new(phv_length, cfg.observable.as_deref(), &cfg.state_cells);
    if cfg.lanes == 0 {
        let mut sim = Simulator::new(pipeline);
        let found = enumerate(cfg, phv_length, 1, |batch| {
            scalar_check(&mut sim, &mut comparator, reference, &batch[0]).map(|m| (0, m))
        });
        return Ok(match found {
            Ok(cases) => VerifyOutcome::Verified { cases },
            Err((input, mismatch)) => VerifyOutcome::CounterExample { input, mismatch },
        });
    }
    let fused = pipeline.fused_program().expect("fused level");
    let lowered = LanePipeline::lower(fused).ok_or_else(|| Error::Other {
        message: "fused program is not lane-lowerable".to_string(),
    })?;
    let mut lanes = LaneExecutor {
        sweep: lowered.sweep(cfg.lanes).expect("width validated above"),
        inputs: &cfg.relevant_containers,
        packets: cfg.packets,
        input_rows: vec![0; cfg.packets * phv_length * cfg.lanes],
        output_rows: vec![0; cfg.packets * phv_length * cfg.lanes],
    };
    let mut expected = LaneExpectation::new(cfg.lanes, phv_length, cfg.packets);
    let found = enumerate(cfg, phv_length, cfg.lanes, |batch| {
        lanes.run(batch);
        reference.expect_lanes(batch.len(), &lanes.input_rows, &mut expected);
        let state = |stage, slot, var| lanes.sweep.state_column(stage, slot, var);
        let lane = comparator.check_lanes(&expected, batch.len(), &lanes.output_rows, state);
        lane.map(|lane| (lane, ()))
    });
    match found {
        Ok(cases) => Ok(VerifyOutcome::Verified { cases }),
        Err((input, ())) => {
            let sim = Simulator::new(pipeline);
            scalar_recheck(sim, &mut comparator, reference, input)
        }
    }
}

/// Check one case on the tick-accurate simulator, from reset.
fn scalar_check(
    sim: &mut Simulator,
    comparator: &mut SpecComparator,
    reference: &mut dyn Specification,
    case: &Trace,
) -> Option<TraceMismatch> {
    sim.reset();
    let actual = sim.run(case);
    comparator.compare(reference, &case.phvs, &actual)
}

/// Re-run one lane-found diverging case on the simulator and build the
/// exact [`VerifyOutcome::CounterExample`] the scalar enumeration returns
/// for it. A divergence the simulator does not reproduce is a lane-engine
/// bug and reported as an error rather than a counterexample.
fn scalar_recheck(
    mut sim: Simulator,
    comparator: &mut SpecComparator,
    reference: &mut dyn Specification,
    input: Trace,
) -> Result<VerifyOutcome> {
    match scalar_check(&mut sim, comparator, reference, &input) {
        Some(mismatch) => Ok(VerifyOutcome::CounterExample { input, mismatch }),
        None => Err(Error::Other {
            message: "lane-swept enumeration found a divergence the scalar \
                      backend does not reproduce — this is a lane-engine bug, \
                      not a compiler bug"
                .to_string(),
        }),
    }
}

/// Refuse configurations the executor cannot honour and domains past the
/// case budget. Refusing rather than clamping matters: reporting
/// "verified" over a smaller domain than requested would be a false proof.
fn check_bounds(opt: OptLevel, cfg: &VerifyConfig) -> Result<()> {
    let refuse = |message: String| Err(Error::Other { message });
    if cfg.lanes > 0 {
        if opt != OptLevel::Fused {
            return refuse(format!(
                "lane-swept verification requires the fused backend \
                 (got {opt:?}); drop `lanes` for the scalar path"
            ));
        }
        if !druzhba_dgen::lanes::supported_width(cfg.lanes) {
            return refuse(format!(
                "unsupported lane width {} (supported: {:?})",
                cfg.lanes,
                druzhba_dgen::LANE_WIDTHS
            ));
        }
        if cfg.input_bits > 32 {
            return refuse(format!(
                "lane-swept verification supports at most 32-bit inputs \
                 (requested {} bits)",
                cfg.input_bits
            ));
        }
    } else if cfg.input_bits > 31 {
        return refuse(format!(
            "bounded verification supports at most 31-bit inputs \
             (requested {} bits); clamping would silently verify a \
             smaller domain than asked for",
            cfg.input_bits
        ));
    }
    let slots = cfg.relevant_containers.len() * cfg.packets;
    // A count past u128 certainly exceeds any budget.
    let cases = u32::try_from(slots)
        .ok()
        .and_then(|slots| (1u128 << cfg.input_bits).checked_pow(slots))
        .unwrap_or(u128::MAX);
    if cases > u128::from(cfg.max_cases) {
        return refuse(format!(
            "bounded verification needs {cases} cases \
             (> budget {}); shrink bits/packets/containers",
            cfg.max_cases
        ));
    }
    Ok(())
}

/// The lane executor: every case of a batch in its own lane of the
/// lane-lowered fused program, all lanes in lockstep. It keeps each tick's
/// PHV rows from before and after the step, so the hot loop allocates
/// nothing.
struct LaneExecutor<'p> {
    sweep: LaneSweep<'p>,
    /// The containers a case may set; every other input container is 0.
    inputs: &'p [usize],
    packets: usize,
    /// Each tick's input rows, laid out as [`LaneExpectation::outputs`].
    input_rows: Vec<Value>,
    /// Each tick's output rows, in the same layout.
    output_rows: Vec<Value>,
}

impl LaneExecutor<'_> {
    /// Execute `batch` (at most one case per lane), each case from reset.
    fn run(&mut self, batch: &[Trace]) {
        let tick_len = self.sweep.phv_rows().len();
        self.sweep.reset();
        for p in 0..self.packets {
            self.sweep.clear_phv();
            for (lane, case) in batch.iter().enumerate() {
                for &c in self.inputs {
                    self.sweep.set_input(lane, c, case.phvs[p].get(c));
                }
            }
            let rows = p * tick_len..(p + 1) * tick_len;
            self.input_rows[rows.clone()].copy_from_slice(self.sweep.phv_rows());
            self.sweep.step(batch.len());
            self.output_rows[rows].copy_from_slice(self.sweep.phv_rows());
        }
    }
}

/// The one enumeration loop: an odometer fills batches of up to `width`
/// input traces in case order, and `check` executes a batch and compares
/// its cases, returning the index of the first diverging one with what it
/// found out about it. Returns the number of cases checked, or that case
/// and finding.
fn enumerate<M>(
    cfg: &VerifyConfig,
    phv_length: usize,
    width: usize,
    mut check: impl FnMut(&[Trace]) -> Option<(usize, M)>,
) -> std::result::Result<u64, (Trace, M)> {
    let nrel = cfg.relevant_containers.len();
    let max = ((1u64 << cfg.input_bits) - 1) as u32;
    // Odometer over all (packet, container) slots; digit `p * nrel + ci`
    // is relevant container `ci` of packet `p`. Every other container
    // stays zero in every case, so the batch is filled in place.
    let mut assignment = vec![0u32; nrel * cfg.packets];
    let mut batch = vec![Trace::from_phvs(vec![Phv::zeroed(phv_length); cfg.packets]); width];
    let mut checked = 0u64;
    let mut more = true;
    while more {
        let mut active = 0;
        while more && active < width {
            for (p, phv) in batch[active].phvs.iter_mut().enumerate() {
                for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                    phv.set(container, assignment[p * nrel + ci]);
                }
            }
            active += 1;
            more = advance(&mut assignment, max);
        }
        if let Some((case, found)) = check(&batch[..active]) {
            return Err((batch.swap_remove(case), found));
        }
        checked += active as u64;
    }
    Ok(checked)
}

/// Step the odometer to the next assignment; `false` once it wraps, i.e.
/// every assignment has been visited (at once for zero digits).
fn advance(assignment: &mut [u32], max: u32) -> bool {
    for digit in assignment {
        if *digit < max {
            *digit += 1;
            return true;
        }
        *digit = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::{minimize, MinimizeConfig, MinimizedCounterExample};
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

    /// Delta-debug a counterexample's input on the fused backend, with
    /// the minimization config `druzhba verify` uses.
    fn minimize_input(
        spec: &PipelineSpec,
        mc: &MachineCode,
        reference: &mut dyn Specification,
        input: &Trace,
        cfg: &VerifyConfig,
    ) -> MinimizedCounterExample {
        let mcfg = MinimizeConfig {
            observable: cfg.observable.clone(),
            state_cells: cfg.state_cells.clone(),
            ..MinimizeConfig::default()
        };
        minimize(spec, mc, OptLevel::Fused, reference, input, &mcfg)
            .expect("a counterexample minimizes")
    }

    #[test]
    fn counterexample_input_minimizes_to_a_reproducer() {
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
        let VerifyOutcome::CounterExample { input, .. } = outcome else {
            panic!("expected counterexample");
        };
        let mce = minimize_input(&spec, &mc, &mut reference, &input, &cfg);
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
    /// (same input trace and mismatch, so its minimization has the same
    /// verdict class) — at every lane width.
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
        let VerifyOutcome::CounterExample { input, .. } = &scalar else {
            panic!("expected counterexample, got {scalar:?}");
        };
        assert_eq!(input.phvs[0].get(0), 3);
        let scalar_class = minimize_input(&spec, &mc, &mut reference, input, &cfg)
            .verdict
            .class();
        for lanes in [1usize, 8, 64] {
            let cfg = VerifyConfig {
                lanes,
                ..cfg.clone()
            };
            let mut reference = threshold_reference();
            let swept = verify_bounded(&spec, &mc, OptLevel::Fused, &mut reference, &cfg).unwrap();
            assert_eq!(swept, scalar, "width {lanes}");
            let VerifyOutcome::CounterExample { input, .. } = &swept else {
                unreachable!("equality above");
            };
            assert_eq!(
                minimize_input(&spec, &mc, &mut reference, input, &cfg)
                    .verdict
                    .class(),
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
