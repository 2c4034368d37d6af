//! # druzhba-bench
//!
//! The benchmark and experiment harness reproducing every table and figure
//! of the paper's evaluation (§5). Each artifact has a plain binary that
//! prints the paper-style rows (see DESIGN.md §5 for the experiment
//! index):
//!
//! | Binary | Artifact |
//! |--------|----------|
//! | `table1` | Table 1 — RMT runtimes for 12 programs × 3 optimization levels, 50 000 PHVs |
//! | `case_study` | §5.2 — the compiler-testing campaign (120+ correct programs, injected failures) |
//! | `fig6` | Fig. 6 — the three generated pipeline-description versions |
//! | `fig2` | Fig. 2 — structural dump of a depth-2/width-2 pipeline |
//! | `scaling` | §5.1 scaling claim — optimization speedup vs. pipeline size |
//! | `drmt_schedule` | §4 — table DAG, schedules, and dRMT simulation stats |

use std::time::{Duration, Instant};

use druzhba_chipmunk::CompiledProgram;
use druzhba_core::{Error, MachineCode, Phv, Result};
use druzhba_dgen::{LanePipeline, OptLevel, Pipeline, PipelineSpec};
use druzhba_dsim::{Simulator, TrafficGenerator};
use druzhba_programs::ProgramDef;

/// The PHV count of the paper's benchmarks (§5: *"Every RMT benchmark was
/// executed by using 50000 PHVs generated from the traffic generator"*).
pub const PAPER_PHVS: usize = 50_000;

/// Traffic seed shared by all benchmark runs so every backend sees the
/// identical PHV sequence.
pub const BENCH_SEED: u64 = 0xD0_D1_D2;

/// Build a pipeline and time a simulation of `num_phvs` random PHVs.
///
/// Returns the wall-clock duration of the simulation loop only (pipeline
/// generation excluded, as in the paper: dgen runs ahead of dsim).
pub fn time_simulation(
    spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    num_phvs: usize,
    seed: u64,
) -> Result<Duration> {
    let pipeline = Pipeline::generate(spec, mc, opt)?;
    let mut traffic = TrafficGenerator::new(seed, spec.config.phv_length, 10);
    let input = traffic.trace(num_phvs);
    let mut sim = Simulator::new(pipeline);
    let start = Instant::now();
    let output = sim.run(&input);
    let elapsed = start.elapsed();
    // Keep the output alive so the run cannot be optimized away.
    assert_eq!(output.phvs.len(), num_phvs);
    Ok(elapsed)
}

/// Build a pipeline and time pushing `num_phvs` random PHVs through it via
/// the batched in-place path ([`Pipeline::process_batch`]).
///
/// Per-PHV full traversal is provably equivalent to tick-accurate
/// simulation for this feedforward pipeline (the property suite asserts it
/// on every backend), so this measures pure pipeline throughput with the
/// simulator's injection bookkeeping out of the way — the number that the
/// `BENCH_scaling.json` trajectory tracks.
pub fn time_batch(
    spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    num_phvs: usize,
    seed: u64,
) -> Result<Duration> {
    let mut pipeline = Pipeline::generate(spec, mc, opt)?;
    let mut traffic = TrafficGenerator::new(seed, spec.config.phv_length, 10);
    let mut batch = traffic.trace(num_phvs).phvs;
    let start = Instant::now();
    pipeline.process_batch(&mut batch);
    let elapsed = start.elapsed();
    // Keep the output alive so the run cannot be optimized away.
    assert_eq!(batch.len(), num_phvs);
    Ok(elapsed)
}

/// Build the fused pipeline, lower it into the SoA lane engine, and time
/// pushing `num_phvs` random PHVs through it in lane-parallel sweeps of
/// `width` PHVs per instruction stream ([`druzhba_dgen::LaneSweep`]).
///
/// Each lane is an *independent* execution from reset state — the
/// configuration lane-swept bounded verification runs — so the column this
/// feeds (`fused_lanes` in `BENCH_scaling.json`) measures the SIMD
/// engine's verification throughput against the scalar fused baseline.
/// Per-PHV instruction work is identical to [`time_batch`] at
/// [`OptLevel::Fused`]; only the state chaining differs (zeroed per lane
/// instead of threaded across the batch).
pub fn time_batch_lanes(
    spec: &PipelineSpec,
    mc: &MachineCode,
    num_phvs: usize,
    seed: u64,
    width: usize,
) -> Result<Duration> {
    let pipeline = Pipeline::generate(spec, mc, OptLevel::Fused)?;
    let fused = pipeline.fused_program().expect("fused level");
    let lowered = LanePipeline::lower(fused).ok_or_else(|| Error::Other {
        message: "fused program is not lane-lowerable (non-forward jump)".to_string(),
    })?;
    let mut sweep = lowered.sweep(width).ok_or_else(|| Error::Other {
        message: format!("unsupported lane width {width}"),
    })?;
    let phv_len = spec.config.phv_length;
    let mut traffic = TrafficGenerator::new(seed, phv_len, 10);
    let mut batch = traffic.trace(num_phvs).phvs;
    let start = Instant::now();
    sweep_batch(&mut sweep, phv_len, &mut batch);
    let elapsed = start.elapsed();
    // Keep the output alive so the run cannot be optimized away.
    assert_eq!(batch.len(), num_phvs);
    Ok(elapsed)
}

/// Process a batch through a lane sweep, `width` PHVs per instruction
/// stream, each from reset state (the loop [`time_batch_lanes`] times).
fn sweep_batch(sweep: &mut druzhba_dgen::LaneSweep<'_>, phv_len: usize, batch: &mut [Phv]) {
    let width = sweep.width();
    for chunk in batch.chunks_mut(width) {
        sweep.reset();
        sweep.clear_phv();
        for (lane, phv) in chunk.iter().enumerate() {
            for c in 0..phv_len {
                sweep.set_input(lane, c, phv.get(c));
            }
        }
        sweep.step(chunk.len());
        for (lane, phv) in chunk.iter_mut().enumerate() {
            for c in 0..phv_len {
                phv.set(c, sweep.output(lane, c));
            }
        }
    }
}

/// One row of Table 1, extended with the beyond-paper fused backend.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub program: &'static str,
    pub depth: usize,
    pub width: usize,
    pub alu: &'static str,
    pub unoptimized: Duration,
    pub scc: Duration,
    pub scc_inline: Duration,
    pub fused: Duration,
}

impl Table1Row {
    /// Speedup of SCC propagation over the unoptimized backend.
    pub fn scc_speedup(&self) -> f64 {
        self.unoptimized.as_secs_f64() / self.scc.as_secs_f64().max(1e-9)
    }

    /// Speedup of whole-pipeline fusion over the paper's fastest backend
    /// (function inlining) — the version-4 headline number.
    pub fn fused_speedup(&self) -> f64 {
        self.scc_inline.as_secs_f64() / self.fused.as_secs_f64().max(1e-9)
    }

    /// The row's timing for one optimization level.
    pub fn timing(&self, opt: OptLevel) -> Duration {
        match opt {
            OptLevel::Unoptimized => self.unoptimized,
            OptLevel::Scc => self.scc,
            OptLevel::SccInline => self.scc_inline,
            OptLevel::Fused => self.fused,
        }
    }
}

/// Simulated PHVs per second for a measured duration.
pub fn phvs_per_sec(num_phvs: usize, elapsed: Duration) -> f64 {
    num_phvs as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Measure one Table 1 row (compiling the program first).
pub fn table1_row(def: &ProgramDef, num_phvs: usize) -> Result<Table1Row> {
    let compiled = def.compile_cached()?;
    let timings: Vec<Duration> = OptLevel::ALL
        .iter()
        .map(|&opt| {
            time_simulation(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                opt,
                num_phvs,
                BENCH_SEED,
            )
        })
        .collect::<Result<_>>()?;
    Ok(Table1Row {
        program: def.table1_name,
        depth: def.depth,
        width: def.width,
        alu: def.stateful_atom,
        unoptimized: timings[0],
        scc: timings[1],
        scc_inline: timings[2],
        fused: timings[3],
    })
}

/// Render rows in the paper's Table 1 layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>17} {:>21} {:>10} {:>11}\n",
        "Program",
        "depth,width",
        "ALU name",
        "Unoptimized (ms)",
        "SCC propagation (ms)",
        "+ FI (ms)",
        "Fused (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>12} {:>12} {:>17.1} {:>21.1} {:>10.1} {:>11.1}\n",
            r.program,
            format!("{},{}", r.depth, r.width),
            r.alu,
            r.unoptimized.as_secs_f64() * 1e3,
            r.scc.as_secs_f64() * 1e3,
            r.scc_inline.as_secs_f64() * 1e3,
            r.fused.as_secs_f64() * 1e3,
        ));
    }
    out
}

/// Compile a program variant on an enlarged grid (the case-study campaign
/// uses grid variants to generate many distinct machine-code programs).
pub fn compile_variant(
    def: &ProgramDef,
    extra_depth: usize,
    extra_width: usize,
) -> Result<CompiledProgram> {
    let mut cfg = def.compiler_config();
    cfg.depth += extra_depth;
    cfg.width += extra_width;
    druzhba_chipmunk::compile(&def.parse(), &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_programs::PROGRAMS;

    #[test]
    fn timing_harness_runs_and_orders_levels() {
        // Not a performance assertion (debug builds distort ratios); just
        // that the harness produces sane, nonzero timings.
        let def = &PROGRAMS[2]; // sampling, smallest grid
        let row = table1_row(def, 2_000).unwrap();
        assert!(row.unoptimized > Duration::ZERO);
        assert!(row.scc > Duration::ZERO);
        assert!(row.scc_inline > Duration::ZERO);
        assert!(row.fused > Duration::ZERO);
    }

    #[test]
    fn grid_variants_compile() {
        let def = druzhba_programs::by_name("sampling").unwrap();
        let v = compile_variant(def, 1, 1).unwrap();
        assert_eq!(v.pipeline_spec.config.depth, def.depth + 1);
        assert_eq!(v.pipeline_spec.config.width, def.width + 1);
    }

    /// The lane-sweep loop [`time_batch_lanes`] times must compute exactly
    /// what a scalar fused pipeline computes when reset before every PHV —
    /// otherwise the `fused_lanes` column measures a different workload.
    #[test]
    fn lane_sweep_batch_matches_scalar_reset_per_phv() {
        let def = druzhba_programs::by_name("sampling").unwrap();
        let compiled = def.compile_cached().unwrap();
        let spec = &compiled.pipeline_spec;
        let mc = &compiled.machine_code;
        let phv_len = spec.config.phv_length;
        let mut traffic = TrafficGenerator::new(BENCH_SEED, phv_len, 10);
        let inputs = traffic.trace(37).phvs; // partial final chunk at every width
        let mut scalar = Pipeline::generate(spec, mc, OptLevel::Fused).unwrap();
        let expected: Vec<Phv> = inputs
            .iter()
            .map(|phv| {
                scalar.reset();
                let mut x = phv.clone();
                scalar.process_in_place(&mut x);
                x
            })
            .collect();
        let pipeline = Pipeline::generate(spec, mc, OptLevel::Fused).unwrap();
        let fused = pipeline.fused_program().unwrap();
        let lowered = LanePipeline::lower(fused).unwrap();
        for width in [1usize, 8, 64] {
            let mut sweep = lowered.sweep(width).unwrap();
            let mut batch = inputs.clone();
            sweep_batch(&mut sweep, phv_len, &mut batch);
            assert_eq!(batch, expected, "width {width}");
        }
    }

    /// `time_batch_lanes` end to end: nonzero timing on a grid spec with
    /// zeroed machine code (the scaling binary's exact workload).
    #[test]
    fn lane_timing_harness_runs() {
        use druzhba_alu_dsl::atoms::atom;
        use druzhba_core::PipelineConfig;
        use druzhba_dgen::expected_machine_code;
        let spec = PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("pred_raw").unwrap(),
            atom("stateless_full").unwrap(),
        )
        .unwrap();
        let mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        let d = time_batch_lanes(&spec, &mc, 2_000, BENCH_SEED, 32).unwrap();
        assert!(d > Duration::ZERO);
        assert!(time_batch_lanes(&spec, &mc, 100, BENCH_SEED, 7).is_err());
    }

    /// The committed `BENCH_scaling.json` must carry the `fused_lanes`
    /// column and a lanes-over-fused geomean at or above the CI floor —
    /// the regression gate's committed counterpart. Regenerate with
    /// `cargo run --release -p druzhba-bench --bin scaling` after any
    /// lane-engine change.
    #[test]
    fn committed_scaling_json_has_lane_column_above_floor() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
        let json = std::fs::read_to_string(path).expect("committed BENCH_scaling.json");
        assert!(
            json.contains("\"fused_lanes\""),
            "BENCH_scaling.json lacks the fused_lanes column; regenerate it"
        );
        let key = "\"fused_lanes_over_fused_geomean\": ";
        let at = json
            .find(key)
            .expect("BENCH_scaling.json lacks fused_lanes_over_fused_geomean");
        let rest = &json[at + key.len()..];
        let end = rest
            .find(|c: char| c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let geomean: f64 = rest[..end].parse().expect("geomean parses");
        assert!(
            geomean >= 4.0,
            "committed lanes-over-fused geomean {geomean} fell below the 4x floor"
        );
    }

    #[test]
    fn format_table1_contains_all_programs() {
        let rows = vec![Table1Row {
            program: "BLUE (decrease)",
            depth: 4,
            width: 2,
            alu: "sub",
            unoptimized: Duration::from_millis(986),
            scc: Duration::from_millis(576),
            scc_inline: Duration::from_millis(576),
            fused: Duration::from_millis(192),
        }];
        let s = format_table1(&rows);
        assert!(s.contains("BLUE (decrease)"));
        assert!(s.contains("4,2"));
        assert!(s.contains("sub"));
    }
}
