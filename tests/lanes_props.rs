//! Differential lane-vs-scalar properties for the SoA lane engine
//! (`dgen::lanes`): for any in-domain machine code, a
//! [`LanePipeline::sweep`] of up to `width` independent executions must
//! be *bit-identical* to running each execution through a fresh scalar
//! [`FusedPipeline`] from reset: every output container after every
//! packet, every state cell, and (under injected faults) the divergence a
//! differential oracle reports. Lanes masked out of a step keep their
//! inputs and state untouched; the empty and single-lane steps are pinned
//! explicitly.

use proptest::prelude::*;

use druzhba::alu_dsl::atoms::atom;
use druzhba::alu_dsl::HoleDomain;
use druzhba::core::{MachineCode, Phv, PipelineConfig, Trace, Value};
use druzhba::dgen::{
    expected_machine_code, FusedPipeline, LanePipeline, LaneSweep, PipelineSpec, LANE_WIDTHS,
};
use druzhba::dsim::fault::FaultInjector;

/// The widths the differential harness sweeps (the engine also supports
/// 16; {1, 8, 32, 64} covers the degenerate, narrow, and widest shapes).
const WIDTHS: [usize; 4] = [1, 8, 32, 64];

/// Longest execution the properties sweep, in packets.
const MAX_PACKETS: usize = 4;

fn spec_for(stateful: &str, stateless: &str, depth: usize, width: usize) -> PipelineSpec {
    PipelineSpec::new(
        PipelineConfig::new(depth, width),
        atom(stateful).unwrap(),
        atom(stateless).unwrap(),
    )
    .unwrap()
}

/// Strategy: an arbitrary in-domain machine code for the spec.
fn machine_code_strategy(spec: &PipelineSpec) -> impl Strategy<Value = MachineCode> {
    let expected = expected_machine_code(spec);
    let fields: Vec<(String, u32)> = expected
        .into_iter()
        .map(|(name, domain)| {
            let bound = match domain {
                HoleDomain::Choice(n) => n,
                HoleDomain::Bits(b) => 1u32 << b.min(8),
            };
            (name, bound)
        })
        .collect();
    let values: Vec<BoxedStrategy<u32>> = fields
        .iter()
        .map(|(_, bound)| (0..*bound).boxed())
        .collect();
    let names: Vec<String> = fields.into_iter().map(|(n, _)| n).collect();
    values.prop_map(move |vs| MachineCode::from_pairs(names.iter().cloned().zip(vs)))
}

/// The vendored proptest only generates fixed-length vecs; execution
/// lengths and active-lane counts come from pairing the full-size stream
/// with random per-lane lengths and a random truncation.
fn phv_stream(len: usize, count: usize) -> impl Strategy<Value = Vec<Phv>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..1024, len).prop_map(Phv::new),
        count,
    )
}

/// Everything a scalar run observes of one execution: the output PHV and
/// the state snapshot after each packet.
type Observed = Vec<(Phv, Vec<Vec<Vec<Value>>>)>;

/// Run one execution through a fresh scalar fused pipeline.
fn scalar_run(spec: &PipelineSpec, mc: &MachineCode, packets: &[Phv]) -> Observed {
    let mut p = FusedPipeline::fuse(spec, mc);
    packets
        .iter()
        .map(|phv| {
            let mut out = phv.clone();
            p.process_in_place(&mut out);
            (out, p.state_snapshot())
        })
        .collect()
}

/// Load one PHV into `lane`'s input containers.
fn load(sweep: &mut LaneSweep<'_>, lane: usize, phv: &Phv) {
    for c in 0..phv.len() {
        sweep.set_input(lane, c, phv.get(c));
    }
}

/// One lane's PHV registers as a PHV.
fn lane_phv(sweep: &LaneSweep<'_>, lane: usize, len: usize) -> Phv {
    Phv::new((0..len).map(|c| sweep.output(lane, c)).collect())
}

/// Every state cell of `lane`, read through [`LaneSweep::state_value`],
/// in the shape of `like` (a scalar snapshot of the same program).
fn lane_state(
    sweep: &LaneSweep<'_>,
    lane: usize,
    like: &[Vec<Vec<Value>>],
) -> Vec<Vec<Vec<Value>>> {
    like.iter()
        .enumerate()
        .map(|(stage, row)| {
            row.iter()
                .enumerate()
                .map(|(slot, cells)| {
                    (0..cells.len())
                        .map(|var| sweep.state_value(lane, stage, slot, var).unwrap())
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The sweep property at every width in [`WIDTHS`]. `lens[i]` (1..=4) is
/// lane `i`'s execution length; `active_pick` chooses how many lanes run
/// (all of them when it is below 64, else `active_pick % width`, usually
/// fewer); `stream` supplies the packets of lane `i` at
/// `stream[i * MAX_PACKETS..]` and, past the active lanes, the inputs
/// parked in the inactive ones.
///
/// Lanes are sorted longest-first, so the lanes still running at step `t`
/// are a prefix and `step(active_t)` masks the finished ones out. After
/// every step: each running lane matches its scalar run after that packet;
/// each other lane still holds exactly the inputs parked in it and the
/// state it had (its final state, or the reset 0).
fn check_sweep(
    spec: &PipelineSpec,
    mc: &MachineCode,
    stream: &[Phv],
    lens: &[usize],
    active_pick: usize,
) -> Result<(), TestCaseError> {
    let phv_len = spec.config.phv_length;
    let fused = FusedPipeline::fuse(spec, mc);
    let lp = LanePipeline::lower(&fused).expect("the fuser emits forward jumps only");
    let zero_state = FusedPipeline::fuse(spec, mc).state_snapshot();
    for width in WIDTHS {
        let active = if active_pick < 64 {
            width
        } else {
            active_pick % width
        };
        let mut lens: Vec<usize> = lens[..active].to_vec();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let execution = |lane: usize| &stream[lane * MAX_PACKETS..lane * MAX_PACKETS + lens[lane]];
        let expected: Vec<Observed> = (0..active)
            .map(|lane| scalar_run(spec, mc, execution(lane)))
            .collect();
        let parked = |lane: usize, t: usize| &stream[(lane * MAX_PACKETS + t) % stream.len()];

        let mut sweep = lp.sweep(width).unwrap();
        // Poison every register with a full-width step first, so a lane
        // the mask fails to protect has garbage to leak.
        for lane in 0..width {
            load(&mut sweep, lane, parked(lane, 3));
        }
        sweep.step(width);
        sweep.reset();
        for t in 0..lens.first().copied().unwrap_or(1) {
            let running = lens.iter().take_while(|&&len| len > t).count();
            sweep.clear_phv();
            for lane in 0..width {
                let input = if lane < running {
                    &execution(lane)[t]
                } else {
                    parked(lane, t)
                };
                load(&mut sweep, lane, input);
            }
            sweep.step(running);
            for lane in 0..width {
                let (want_phv, want_state) = if lane < running {
                    let (phv, state) = &expected[lane][t];
                    (phv, state)
                } else if lane < active {
                    (parked(lane, t), &expected[lane][lens[lane] - 1].1)
                } else {
                    (parked(lane, t), &zero_state)
                };
                let got = lane_phv(&sweep, lane, phv_len);
                prop_assert!(
                    &got == want_phv,
                    "width {width} lane {lane} packet {t}: {got:?} != {want_phv:?}"
                );
                let state = lane_state(&sweep, lane, want_state);
                prop_assert!(
                    &state == want_state,
                    "width {width} lane {lane} packet {t}: state {state:?} != {want_state:?}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any machine code, up to `width` executions of 1–4 packets each,
    /// sometimes fewer active lanes than the width: every lane matches its
    /// own scalar run from reset, and masked lanes are left untouched.
    #[test]
    fn lane_batches_bit_identical_to_scalar_fused(
        mc in machine_code_strategy(&spec_for("if_else_raw", "stateless_full", 2, 2)),
        stream in phv_stream(2, 64 * MAX_PACKETS),
        lens in proptest::collection::vec(1usize..MAX_PACKETS + 1, 64),
        active_pick in 0usize..128,
    ) {
        let spec = spec_for("if_else_raw", "stateless_full", 2, 2);
        check_sweep(&spec, &mc, &stream, &lens, active_pick)?;
    }

    /// Same property over a stateful two-variable atom on a deeper grid —
    /// the shape where every lane's state chain runs through three stages.
    #[test]
    fn lane_batches_bit_identical_for_pair_atom(
        mc in machine_code_strategy(&spec_for("pair", "stateless_arith", 3, 1)),
        stream in phv_stream(1, 64 * MAX_PACKETS),
        lens in proptest::collection::vec(1usize..MAX_PACKETS + 1, 64),
        active_pick in 0usize..128,
    ) {
        let spec = spec_for("pair", "stateless_arith", 3, 1);
        check_sweep(&spec, &mc, &stream, &lens, active_pick)?;
    }

    /// Divergence-detection parity under injected faults: a differential
    /// oracle that swaps the scalar fused backend for a lane sweep reports
    /// exactly the same first mismatch against the specification for every
    /// execution, at every width. (The accumulator's correct behaviour is
    /// computed inline; the fault injector corrupts the machine code.)
    #[test]
    fn fault_divergences_detected_identically(
        fault_seed in 0u64..10_000,
        stream in phv_stream(2, 50 * MAX_PACKETS),
        executions in 1usize..51,
        packets in 1usize..MAX_PACKETS + 1,
    ) {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            atom("raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap();
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec).into_iter().map(|(n, _)| (n, 0)),
        );
        mc.set("output_mux_phv_0_1", 2);
        let Some((bad, _fault)) = FaultInjector::new(fault_seed).mutate_random_value(&spec, &mc)
        else {
            return Ok(());
        };
        let runs: Vec<&[Phv]> = stream.chunks(packets).take(executions).collect();
        // The specification: state += container 0, old state -> container 1.
        let expected: Vec<Trace> = runs
            .iter()
            .map(|run| {
                let mut state = 0u32;
                Trace::from_phvs(
                    run.iter()
                        .map(|p| {
                            let old = state;
                            state = state.wrapping_add(p.get(0));
                            Phv::new(vec![p.get(0), old])
                        })
                        .collect(),
                )
            })
            .collect();
        let scalar: Vec<Vec<Phv>> = runs
            .iter()
            .map(|run| scalar_run(&spec, &bad, run).into_iter().map(|(phv, _)| phv).collect())
            .collect();
        let fused = FusedPipeline::fuse(&spec, &bad);
        let lp = LanePipeline::lower(&fused).unwrap();
        for width in WIDTHS {
            let mut sweep = lp.sweep(width).unwrap();
            for (chunk, first) in runs.chunks(width).zip((0..).step_by(width)) {
                sweep.reset();
                let mut lane_out = vec![Vec::new(); chunk.len()];
                for t in 0..packets {
                    sweep.clear_phv();
                    for (lane, run) in chunk.iter().enumerate() {
                        load(&mut sweep, lane, &run[t]);
                    }
                    sweep.step(chunk.len());
                    for (lane, out) in lane_out.iter_mut().enumerate() {
                        out.push(lane_phv(&sweep, lane, 2));
                    }
                }
                for (lane, out) in lane_out.into_iter().enumerate() {
                    let run = first + lane;
                    prop_assert_eq!(&out, &scalar[run]);
                    let lane_verdict = expected[run].first_mismatch(&Trace::from_phvs(out), None);
                    let scalar_verdict =
                        expected[run].first_mismatch(&Trace::from_phvs(scalar[run].clone()), None);
                    prop_assert_eq!(&lane_verdict, &scalar_verdict);
                }
            }
        }
    }
}

/// An empty step and a single-lane step at the widest width, on a frame
/// poisoned by a full-width step: the single execution matches scalar
/// exactly, the 63 masked lanes keep their inputs and reset state, and the
/// empty step changes nothing at all.
#[test]
fn empty_and_single_phv_batches_are_exact() {
    let spec = spec_for("pred_raw", "stateless_full", 2, 1);
    let mc = MachineCode::from_pairs(
        expected_machine_code(&spec)
            .into_iter()
            .map(|(n, _)| (n, 0)),
    );
    let phv_len = spec.config.phv_length;
    let width = *LANE_WIDTHS.last().unwrap();
    let warm = |lane: usize| {
        Phv::new(
            (0..phv_len)
                .map(|c| (lane as u32 * 7 + c as u32 * 3) % 100)
                .collect(),
        )
    };
    let single = Phv::new((0..phv_len).map(|c| 41 + c as u32).collect());

    let fused = FusedPipeline::fuse(&spec, &mc);
    let lp = LanePipeline::lower(&fused).unwrap();
    let mut sweep = lp.sweep(width).unwrap();
    for lane in 0..width {
        load(&mut sweep, lane, &warm(lane));
    }
    sweep.step(width);
    sweep.reset();

    let mut scalar = FusedPipeline::fuse(&spec, &mc);
    let zero = scalar.state_snapshot();
    let mut want = single.clone();
    scalar.process_in_place(&mut want);
    let want_state = scalar.state_snapshot();

    sweep.clear_phv();
    load(&mut sweep, 0, &single);
    for lane in 1..width {
        load(&mut sweep, lane, &warm(lane));
    }
    sweep.step(1);
    assert_eq!(lane_phv(&sweep, 0, phv_len), want, "single-lane step");
    assert_eq!(
        lane_state(&sweep, 0, &want_state),
        want_state,
        "state after single"
    );
    for lane in 1..width {
        assert_eq!(
            lane_phv(&sweep, lane, phv_len),
            warm(lane),
            "masked lane {lane}"
        );
        assert_eq!(
            lane_state(&sweep, lane, &zero),
            zero,
            "masked lane {lane} state"
        );
    }

    let before: Vec<(Phv, _)> = (0..width)
        .map(|lane| {
            (
                lane_phv(&sweep, lane, phv_len),
                lane_state(&sweep, lane, &zero),
            )
        })
        .collect();
    sweep.step(0);
    let after: Vec<(Phv, _)> = (0..width)
        .map(|lane| {
            (
                lane_phv(&sweep, lane, phv_len),
                lane_state(&sweep, lane, &zero),
            )
        })
        .collect();
    assert_eq!(before, after, "an empty step is a no-op");
}
