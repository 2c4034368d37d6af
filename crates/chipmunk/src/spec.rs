//! Adapter exposing the Domino reference interpreter as a dsim
//! [`Specification`], wired to a [`CompiledProgram`]'s container layout.
//!
//! This closes the Fig. 5 loop without hand-writing a Rust spec: the same
//! Domino file that was compiled to machine code also *executes* as the
//! high-level specification, and the fuzz harness asserts the two agree.

use std::collections::HashMap;

use druzhba_core::{Phv, Value};
use druzhba_domino::{DominoProgram, Interpreter};
use druzhba_dsim::testing::{expect_by_case, LaneExpectation, Specification};

use crate::compile::CompiledProgram;

/// A [`Specification`] that interprets the Domino program against the
/// compiled container layout. Field and state names are resolved once, in
/// [`CompiledSpec::new`]; a packet costs one walk of the program.
pub struct CompiledSpec {
    interp: Interpreter,
    state: Vec<Value>,
    phv_length: usize,
}

impl CompiledSpec {
    /// Pair a program with its compilation result.
    pub fn new(program: DominoProgram, compiled: &CompiledProgram) -> Self {
        // When several written fields share an output container, the one
        // last in name order owns it: its value, or 0 on a packet that
        // does not write it.
        let owner: HashMap<usize, &str> = compiled
            .output_fields
            .iter()
            .map(|(field, &container)| (container, field.as_str()))
            .collect();
        let interp = Interpreter::new(
            &program,
            |field| compiled.input_fields.iter().position(|f| f == field),
            |field| {
                compiled
                    .output_fields
                    .get(field)
                    .copied()
                    .filter(|container| owner[container] == field)
            },
        );
        CompiledSpec {
            state: interp.initial_state().to_vec(),
            interp,
            phv_length: compiled.pipeline_spec.config.phv_length,
        }
    }

    /// Expected state in `state_cells` order (declaration order — exactly
    /// how [`CompiledProgram::state_cells`] is ordered).
    pub fn expected_state(&self) -> Vec<Value> {
        self.state()
    }

    /// [`Specification::expect_lanes`] at width `L`: every case starts
    /// from the declared initial state, and each tick's output columns are
    /// zeroed before the interpreter's lane step writes them.
    fn expect_width<const L: usize>(
        &self,
        active: usize,
        inputs: &[Value],
        expected: &mut LaneExpectation,
    ) {
        let tick_len = expected.phv_len() * L;
        let ticks = expected.ticks();
        let init = self.interp.initial_state();
        let (outputs, state) = expected.columns_mut(init.len());
        for (column, &v) in state.chunks_exact_mut(L).zip(init) {
            column.fill(v);
        }
        for t in 0..ticks {
            let tick = t * tick_len..(t + 1) * tick_len;
            let out = &mut outputs[tick.clone()];
            out.fill(0);
            self.interp
                .step_lanes::<L>(&inputs[tick], out, state, active);
        }
    }
}

impl Specification for CompiledSpec {
    fn reset(&mut self) {
        self.state.copy_from_slice(self.interp.initial_state());
    }

    fn process(&mut self, input: &Phv) -> Phv {
        let mut out = Phv::zeroed(self.phv_length);
        self.process_into(input, &mut out);
        out
    }

    fn state(&self) -> Vec<Value> {
        self.state.clone()
    }

    fn process_into(&mut self, input: &Phv, out: &mut Phv) {
        // The caller reuses `out` across packets: every container the
        // step does not write must read 0, never the previous packet's.
        if out.len() == self.phv_length {
            out.containers_mut().fill(0);
        } else {
            *out = Phv::zeroed(self.phv_length);
        }
        self.interp.step(input, out, &mut self.state);
    }

    fn state_into(&mut self, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(&self.state);
    }

    /// All cases of the batch at once, through the interpreter's lane walk
    /// at the batch width (one of [`druzhba_dgen::LANE_WIDTHS`]; any other
    /// width runs case by case).
    fn expect_lanes(&mut self, active: usize, inputs: &[Value], expected: &mut LaneExpectation) {
        match expected.width() {
            1 => self.expect_width::<1>(active, inputs, expected),
            8 => self.expect_width::<8>(active, inputs, expected),
            16 => self.expect_width::<16>(active, inputs, expected),
            32 => self.expect_width::<32>(active, inputs, expected),
            64 => self.expect_width::<64>(active, inputs, expected),
            _ => expect_by_case(self, active, inputs, expected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompilerConfig};
    use druzhba_dgen::OptLevel;
    use druzhba_domino::parse_program;
    use druzhba_dsim::testing::{fuzz_test, FuzzConfig};

    /// The complete Fig. 5 workflow: compile, fuzz, assert equivalence.
    fn fuzz_program(src: &str, cfg: CompilerConfig, num_phvs: usize) {
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &cfg).unwrap();
        let mut spec = CompiledSpec::new(program, &compiled);
        let fuzz_cfg = FuzzConfig {
            num_phvs,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            ..FuzzConfig::default()
        };
        for level in OptLevel::ALL {
            let report = fuzz_test(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                level,
                &mut spec,
                &fuzz_cfg,
            );
            assert!(report.passed(), "{level:?}: {:?}", report.verdict);
        }
    }

    /// Compile `layout_src` and pair the resulting container layout with
    /// the (possibly different) program `spec_src`.
    fn spec_over(
        layout_src: &str,
        spec_src: &str,
        cfg: CompilerConfig,
    ) -> (CompiledSpec, CompiledProgram) {
        let compiled = compile(&parse_program(layout_src).unwrap(), &cfg).unwrap();
        let spec = CompiledSpec::new(parse_program(spec_src).unwrap(), &compiled);
        (spec, compiled)
    }

    /// A PHV of the spec's length with `values` in its first containers.
    fn packet(spec: &CompiledSpec, values: &[Value]) -> Phv {
        let mut phv = Phv::zeroed(spec.phv_length);
        phv.containers_mut()[..values.len()].copy_from_slice(values);
        phv
    }

    #[test]
    fn output_written_on_one_branch_reads_zero_on_the_other() {
        // Chipmunk rejects a field written on only some paths, so the
        // layout comes from a program that always writes `o`.
        let (mut spec, compiled) = spec_over(
            "pkt.o = pkt.x + 1;",
            "if (pkt.x == 1) { pkt.o = 7; }",
            CompilerConfig::new(1, 1, "raw"),
        );
        let o = compiled.output_fields["o"];
        let mut out = Phv::zeroed(spec.phv_length);
        spec.process_into(&packet(&spec, &[1]), &mut out);
        assert_eq!(out.get(o), 7);
        spec.process_into(&packet(&spec, &[2]), &mut out);
        assert_eq!(
            out.get(o),
            0,
            "the reused buffer must not leak the last packet's write"
        );
    }

    #[test]
    fn process_and_process_into_agree_on_every_packet() {
        let src = "state int count = 0;\n\
                   if (count == 9) { count = 0; pkt.sample = 1; }\n\
                   else { count = count + 1; pkt.sample = 0; }\n\
                   pkt.y = pkt.x + 3;";
        let cfg = || CompilerConfig::new(2, 2, "if_else_raw");
        let (mut by_value, _) = spec_over(src, src, cfg());
        let (mut in_place, _) = spec_over(src, src, cfg());
        let mut out = Phv::zeroed(in_place.phv_length);
        let mut gen = druzhba_core::rng::ValueGen::new(0xd122b, 32);
        for _ in 0..200 {
            let input = packet(&in_place, &[gen.value()]);
            in_place.process_into(&input, &mut out);
            assert_eq!(by_value.process(&input), out);
            assert_eq!(by_value.state(), in_place.state());
        }
    }

    #[test]
    fn field_read_without_input_container_reads_zero() {
        // The layout has a container for `x` only; the spec reads `ghost`.
        let (mut spec, compiled) = spec_over(
            "pkt.o = pkt.x + 1;",
            "pkt.o = pkt.ghost + 1;",
            CompilerConfig::new(1, 1, "raw"),
        );
        let o = compiled.output_fields["o"];
        let mut out = Phv::zeroed(spec.phv_length);
        for x in [0, 41, u32::MAX] {
            spec.process_into(&packet(&spec, &[x]), &mut out);
            assert_eq!(out.get(o), 1, "o = 0 + 1 whatever x = {x} holds");
            assert_eq!(spec.process(&packet(&spec, &[x])), out);
        }
    }

    #[test]
    fn reset_restores_a_nonzero_declared_init() {
        // Switch state powers up zeroed, so the layout comes from the
        // zero-initialized twin of the program the spec runs.
        let (mut spec, _) = spec_over(
            "state int s = 0;\ns = s + pkt.x;",
            "state int s = 100;\ns = s + pkt.x;",
            CompilerConfig::new(1, 1, "raw"),
        );
        let mut out = Phv::zeroed(spec.phv_length);
        assert_eq!(spec.state(), [100]);
        spec.process_into(&packet(&spec, &[5]), &mut out);
        assert_eq!(spec.expected_state(), [105]);
        spec.reset();
        assert_eq!(spec.state(), [100]);
        spec.process_into(&packet(&spec, &[1]), &mut out);
        let mut state = Vec::new();
        spec.state_into(&mut state);
        assert_eq!(state, [101]);
    }

    /// The interpreter's batched [`Specification::expect_lanes`] writes
    /// what the case-by-case default writes, at every lane width: every
    /// active lane's output columns at every tick, zeroes for a field
    /// written on one branch only, and its state.
    #[test]
    fn lane_batches_equal_case_by_case() {
        let sampling = "state int count = 0;\n\
                        if (count == 2) { count = 0; pkt.sample = 1; }\n\
                        else { count = count + pkt.x; pkt.sample = 0; }\n\
                        pkt.y = pkt.x + 3;";
        let one_branch = "state int s = 5;\nif (pkt.x == 1) { pkt.o = 7; s = s * 2; }";
        let mut gen = druzhba_core::rng::ValueGen::new(0x1a7e, 32);
        for (layout, src, cfg) in [
            (sampling, sampling, CompilerConfig::new(2, 2, "if_else_raw")),
            (
                "pkt.o = pkt.x + 1;",
                one_branch,
                CompilerConfig::new(1, 1, "raw"),
            ),
        ] {
            let (mut spec, _) = spec_over(layout, src, cfg);
            for width in druzhba_dgen::LANE_WIDTHS {
                let (n, ticks) = (spec.phv_length, 3);
                let mut batched = LaneExpectation::new(width, n, ticks);
                let mut by_case = LaneExpectation::new(width, n, ticks);
                // Both expectations are reused, so a column the second
                // batch leaves unwritten still holds the first batch's.
                let mut active = 0;
                for _ in 0..2 {
                    active = 1 + gen.value_below(width as Value) as usize;
                    let inputs: Vec<Value> =
                        (0..ticks * n * width).map(|_| gen.value_below(3)).collect();
                    spec.expect_lanes(active, &inputs, &mut batched);
                    expect_by_case(&mut spec, active, &inputs, &mut by_case);
                }
                for l in 0..active {
                    let lane = |e: &LaneExpectation| -> Vec<Value> {
                        e.outputs().iter().skip(l).step_by(width).copied().collect()
                    };
                    assert_eq!(lane(&batched), lane(&by_case), "width {width} lane {l}");
                    let state = |e: &LaneExpectation| -> Vec<Option<Value>> {
                        (0..3).map(|i| e.state(l, i)).collect()
                    };
                    assert_eq!(state(&batched), state(&by_case), "width {width} lane {l}");
                }
            }
        }
    }

    #[test]
    fn end_to_end_accumulator() {
        fuzz_program(
            "state int sum = 0;\nsum = sum + pkt.x;\npkt.double = pkt.x * 2;",
            CompilerConfig::new(1, 1, "raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_sampling() {
        fuzz_program(
            "state int count = 0;\n\
             if (count == 9) { count = 0; pkt.sample = 1; }\n\
             else { count = count + 1; pkt.sample = 0; }",
            CompilerConfig::new(2, 1, "if_else_raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_port_counter() {
        fuzz_program(
            "state int hits = 0;\n\
             if (pkt.port == 80) { hits = hits + 1; }",
            CompilerConfig::new(2, 1, "pred_raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_pair_max_tracker() {
        fuzz_program(
            "state int best_util = 0;\n\
             state int best_path = 0;\n\
             if (best_util <= pkt.util) { best_util = pkt.util; best_path = pkt.path; }",
            CompilerConfig::new(1, 1, "pair"),
            500,
        );
    }
}
