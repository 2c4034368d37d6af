//! Tick-accurate RMT pipeline simulation.
//!
//! Paper §3.3: *"At every simulation tick, dsim ensures that a PHV created
//! by the traffic generator enters the pipeline and is executed by the
//! first pipeline stage and that PHVs in subsequent stages are sent to
//! their next respective stages."*
//!
//! To prevent a PHV from traversing multiple stages in one tick, dsim
//! models each pipeline register *"in two parts: a read half and a write
//! half. A pipeline stage writes its results to the write half of the
//! resulting PHV while the next stage reads that PHV from the read half
//! that holds the values that were written to it from the previous tick.
//! During the beginning of the next simulation tick, the values in the PHV
//! containers within the write half are moved to the read half."*

use druzhba_core::{Phv, Trace};
use druzhba_dgen::Pipeline;

/// The tick-accurate simulator driving a generated [`Pipeline`].
///
/// ```
/// use druzhba_alu_dsl::atoms::atom;
/// use druzhba_core::{MachineCode, PipelineConfig};
/// use druzhba_dgen::{expected_machine_code, OptLevel, Pipeline, PipelineSpec};
/// use druzhba_dsim::{Simulator, TrafficGenerator};
///
/// let spec = PipelineSpec::new(
///     PipelineConfig::new(2, 1),
///     atom("raw").unwrap(),
///     atom("stateless_mux").unwrap(),
/// ).unwrap();
/// // All-zero machine code: every output mux passes through.
/// let mc = MachineCode::from_pairs(
///     expected_machine_code(&spec).into_iter().map(|(n, _)| (n, 0)),
/// );
/// let pipeline = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();
/// let mut sim = Simulator::new(pipeline);
/// let input = TrafficGenerator::new(7, 1, 10).trace(100);
/// let output = sim.run(&input);
/// assert_eq!(output.phvs, input.phvs); // pass-through
/// ```
#[derive(Debug)]
pub struct Simulator {
    pipeline: Pipeline,
    /// Read halves: `read[k]` is the PHV stage `k` consumes this tick
    /// (i.e. the output of stage `k-1` from the previous tick).
    read: Vec<Option<Phv>>,
    /// Write halves: `write[k]` is what stage `k-1` produced this tick.
    write: Vec<Option<Phv>>,
    ticks: u64,
}

impl Simulator {
    /// Wrap a generated pipeline in a simulator with an empty pipe.
    pub fn new(pipeline: Pipeline) -> Self {
        let depth = pipeline.config().depth;
        Simulator {
            pipeline,
            read: vec![None; depth],
            write: vec![None; depth + 1],
            ticks: 0,
        }
    }

    /// Access the underlying pipeline (e.g. for state snapshots).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the underlying pipeline (e.g. to enable or clear
    /// its coverage map).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Number of ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The PHVs currently in flight: `in_flight()[k]` is the PHV stage `k`
    /// will consume next tick (its read half), if any. Used by the
    /// time-travel debugger to snapshot pipeline occupancy.
    pub fn in_flight(&self) -> &[Option<Phv>] {
        &self.read
    }

    /// Execute one simulation tick: optionally inject a PHV into stage 0,
    /// run every occupied stage on its read half, then move write halves to
    /// read halves. Returns the PHV exiting the final stage, if any.
    ///
    /// PHVs are *moved* between the halves and every stage executes in
    /// place against generation-time scratch buffers, so on the optimized
    /// backends a tick performs no heap allocation: the injected PHV's
    /// buffer is the one that eventually exits. (The deliberately slow
    /// version-1 backend still allocates per hash-map hole lookup.)
    pub fn tick(&mut self, inject: Option<Phv>) -> Option<Phv> {
        let depth = self.pipeline.config().depth;
        self.read[0] = inject;

        // Every stage consumes its read half and produces a write half.
        // Stages are independent within a tick (they operate on different
        // PHVs), so iteration order is immaterial.
        for stage in 0..depth {
            self.write[stage + 1] = self.read[stage].take().map(|mut phv| {
                self.pipeline.execute_stage_in_place(stage, &mut phv);
                phv
            });
        }

        // Beginning of the next tick: write halves become read halves.
        let exiting = self.write[depth].take();
        for stage in (1..depth).rev() {
            self.read[stage] = self.write[stage].take();
        }
        self.ticks += 1;
        exiting
    }

    /// Run a whole input trace through the pipeline: one PHV enters per
    /// tick, and draining ticks flush the pipe. The returned trace contains
    /// every PHV in exit order plus the final state snapshot.
    ///
    /// Each input PHV is cloned exactly once — at injection, where the
    /// clone becomes the output buffer that is mutated in place as it moves
    /// through the pipe. No further per-stage allocation occurs.
    pub fn run(&mut self, input: &Trace) -> Trace {
        let mut out = Vec::with_capacity(input.len());
        let mut pending = input.phvs.iter().map(Phv::clone);
        let depth = self.pipeline.config().depth;
        // n injection ticks + depth drain ticks empty the pipe.
        for _ in 0..input.len() + depth {
            if let Some(phv) = self.tick(pending.next()) {
                out.push(phv);
            }
        }
        Trace {
            phvs: out,
            state: Some(self.pipeline.state_snapshot()),
        }
    }

    /// Reset pipeline state and in-flight PHVs.
    pub fn reset(&mut self) {
        self.pipeline.reset();
        self.read.iter_mut().for_each(|s| *s = None);
        self.write.iter_mut().for_each(|s| *s = None);
        self.ticks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficGenerator;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::coverage::COVERAGE_MAP_SIZE;
    use druzhba_core::{MachineCode, PipelineConfig};
    use druzhba_dgen::{expected_machine_code, OptLevel, PipelineSpec};

    fn spec(depth: usize, width: usize) -> PipelineSpec {
        PipelineSpec::new(
            PipelineConfig::new(depth, width),
            atom("raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap()
    }

    fn zero_mc(spec: &PipelineSpec) -> MachineCode {
        MachineCode::from_pairs(expected_machine_code(spec).into_iter().map(|(n, _)| (n, 0)))
    }

    #[test]
    fn phv_takes_depth_ticks_to_exit() {
        let s = spec(4, 2);
        let mc = zero_mc(&s);
        let p = Pipeline::generate(&s, &mc, OptLevel::SccInline).unwrap();
        let mut sim = Simulator::new(p);
        let phv = druzhba_core::Phv::new(vec![1, 2]);
        // Tick 1 injects; the PHV exits at tick `depth`.
        assert_eq!(sim.tick(Some(phv.clone())), None);
        assert_eq!(sim.tick(None), None);
        assert_eq!(sim.tick(None), None);
        assert_eq!(sim.tick(None), Some(phv));
    }

    #[test]
    fn output_preserves_order_and_length() {
        let s = spec(3, 2);
        let mc = zero_mc(&s);
        let p = Pipeline::generate(&s, &mc, OptLevel::SccInline).unwrap();
        let mut sim = Simulator::new(p);
        let input = TrafficGenerator::new(5, 2, 8).trace(50);
        let output = sim.run(&input);
        // Pass-through machine code: output == input, in order.
        assert_eq!(output.phvs, input.phvs);
        assert!(output.state.is_some());
    }

    #[test]
    fn tick_accurate_equals_per_phv_processing() {
        // The pipelining invariant: running PHVs tick-by-tick produces the
        // same per-PHV outputs, final state and coverage map as pushing
        // each PHV through all stages immediately, on every backend.
        use druzhba_core::ValueGen;
        let s = PipelineSpec::new(
            PipelineConfig::new(3, 2),
            atom("pred_raw").unwrap(),
            atom("stateless_arith").unwrap(),
        )
        .unwrap();
        let mut gen = ValueGen::new(1234, 32);
        for trial in 0..10 {
            let mc = MachineCode::from_pairs(expected_machine_code(&s).into_iter().map(
                |(name, domain)| {
                    let bound = domain.bound().min(1 << 6) as u32;
                    (name, gen.value_below(bound))
                },
            ));
            let input = TrafficGenerator::new(trial, 2, 10).trace(40);
            for level in OptLevel::ALL {
                let mut tick_pipe = Simulator::new(Pipeline::generate(&s, &mc, level).unwrap());
                tick_pipe.pipeline_mut().enable_coverage();
                let mut immediate_pipe = Pipeline::generate(&s, &mc, level).unwrap();
                immediate_pipe.enable_coverage();
                let ticked = tick_pipe.run(&input);
                let immediate: Vec<_> = input
                    .phvs
                    .iter()
                    .map(|p| immediate_pipe.process(p))
                    .collect();
                assert_eq!(ticked.phvs, immediate, "trial {trial} {level:?}");
                assert_eq!(
                    ticked.state.unwrap(),
                    immediate_pipe.state_snapshot(),
                    "trial {trial} {level:?}"
                );
                let coverage = tick_pipe.pipeline().coverage().unwrap();
                assert!(
                    (0..COVERAGE_MAP_SIZE).any(|slot| coverage.count(slot) > 0),
                    "trial {trial} {level:?}"
                );
                assert_eq!(
                    coverage,
                    immediate_pipe.coverage().unwrap(),
                    "trial {trial} {level:?}"
                );
            }
        }
    }

    #[test]
    fn reset_restores_empty_pipe() {
        let s = spec(2, 1);
        let mc = zero_mc(&s);
        let p = Pipeline::generate(&s, &mc, OptLevel::Scc).unwrap();
        let mut sim = Simulator::new(p);
        sim.tick(Some(druzhba_core::Phv::new(vec![9])));
        sim.reset();
        assert_eq!(sim.ticks(), 0);
        // Nothing in flight: draining produces no PHVs.
        assert_eq!(sim.tick(None), None);
        assert_eq!(sim.tick(None), None);
    }

    #[test]
    fn interleaved_injection_gaps() {
        // Bubbles in the pipe (None injections) must not reorder PHVs.
        let s = spec(2, 1);
        let mc = zero_mc(&s);
        let p = Pipeline::generate(&s, &mc, OptLevel::SccInline).unwrap();
        let mut sim = Simulator::new(p);
        let a = druzhba_core::Phv::new(vec![1]);
        let b = druzhba_core::Phv::new(vec![2]);
        let mut outs = Vec::new();
        for inject in [Some(a.clone()), None, Some(b.clone()), None, None, None] {
            if let Some(p) = sim.tick(inject) {
                outs.push(p);
            }
        }
        assert_eq!(outs, vec![a, b]);
    }
}
