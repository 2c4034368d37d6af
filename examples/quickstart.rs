//! Quickstart: assemble machine code by hand, generate a pipeline with
//! dgen, and simulate PHVs with dsim.
//!
//! The pipeline is 1 stage x 1 ALU: the stateful `raw` atom accumulates
//! PHV container 0 into its state and exposes the pre-update value in
//! container 1 (a running-sum packet transaction).
//!
//! Run with: `cargo run --example quickstart`

use druzhba::alu_dsl::atoms::atom;
use druzhba::core::{MachineCode, Phv, PipelineConfig};
use druzhba::dgen::{expected_machine_code, OptLevel, Pipeline, PipelineSpec};
use druzhba::dsim::{Simulator, TrafficGenerator};

fn main() {
    // 1. Describe the hardware: dimensions + the ALU structure (an ALU DSL
    //    atom for each of the stateful and stateless families).
    let spec = PipelineSpec::new(
        PipelineConfig::with_phv_length(1, 1, 2),
        atom("raw").unwrap(),
        atom("stateless_mux").unwrap(),
    )
    .unwrap();

    // 2. Write the machine code. Every primitive the pipeline owns needs a
    //    pair; start from all-zeros (pass-through) and program what we use.
    let mut mc = MachineCode::from_pairs(
        expected_machine_code(&spec)
            .into_iter()
            .map(|(name, _)| (name, 0)),
    );
    // raw atom: state_0 = arith_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))
    // All-zero holes already mean: state_0 = state_0 + pkt_0.
    // Route PHV container 1 from the stateful ALU output (old state):
    // output mux inputs: 0 = pass-through, 1 = stateless ALU 0,
    // 2 = stateful ALU 0.
    mc.set("output_mux_phv_0_1", 2);
    println!("machine code ({} pairs):\n{}", mc.len(), mc.to_text());

    // 3. Generate the pipeline (dgen) at an optimization level.
    let pipeline = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();

    // 4. Simulate (dsim): one PHV per tick through the pipe.
    let mut sim = Simulator::new(pipeline);
    let mut traffic = TrafficGenerator::new(42, 2, 4); // 4-bit random values
    println!("tick | input PHV        | output PHV (c1 = running sum before this packet)");
    let mut sum = 0u32;
    for tick in 0..8 {
        let input = traffic.next_phv();
        let expected_old_sum = sum;
        sum = sum.wrapping_add(input.get(0));
        // depth 1: the PHV exits on the same tick it enters.
        let output = sim.tick(Some(input.clone())).expect("depth-1 pipe");
        println!("{tick:>4} | {input:<16} | {output}");
        assert_eq!(output.get(1), expected_old_sum);
    }
    let state = sim.pipeline().state_snapshot();
    println!("final accumulator state: {}", state[0][0][0]);
    assert_eq!(state[0][0][0], sum);

    // 5. Manual PHVs work too.
    let pipeline = sim.pipeline_mut();
    pipeline.reset();
    let out = pipeline.process(&Phv::new(vec![7, 0]));
    assert_eq!(out.get(1), 0, "first packet sees the zero state");
    println!("quickstart OK");
}
