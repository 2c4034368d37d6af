//! Ablation for the §5.1 scaling claim — *"programs … that showed the most
//! significant improvements due to our optimizations were the ones with the
//! highest number of pipeline depths and widths"* — extended with the
//! beyond-paper fused backend, plus the Table 1 corpus measured at all four
//! optimization levels.
//!
//! Besides the human-readable tables, the run writes a machine-readable
//! `BENCH_scaling.json` (PHVs/sec per backend per grid size and per Table 1
//! program) so the performance trajectory is diffable across commits; CI
//! runs a reduced-PHV smoke pass so regressions surface early.
//!
//! Throughput is measured over the batched in-place execution path
//! (`Pipeline::process_batch`), which the property suite proves equivalent
//! to tick-accurate simulation; the `table1` binary keeps the paper's
//! tick-accurate measurement. The `fused_lanes` column measures the SoA
//! lane engine in its 64-lane sweep configuration (independent executions,
//! the shape lane-swept verification runs); `--lanes-floor F` turns the
//! lanes-over-fused geomean into a CI regression gate (exit nonzero below
//! the floor).
//!
//! Usage: `cargo run -p druzhba-bench --release --bin scaling [num_phvs]
//! [--out FILE] [--lanes-floor F]`

use std::fmt::Write as _;
use std::time::Duration;

use druzhba_alu_dsl::atoms::atom;
use druzhba_bench::{phvs_per_sec, time_batch, time_batch_lanes, BENCH_SEED};
use druzhba_core::{MachineCode, PipelineConfig};
use druzhba_dgen::{expected_machine_code, OptLevel, PipelineSpec};
use druzhba_programs::PROGRAMS;

/// Lane width of the `fused_lanes` column: the engine's widest sweep.
const LANES: usize = 64;

/// Render `{"unoptimized": .., "scc": .., "scc_inline": .., "fused": ..}`
/// plus any extra named rates (the lane column is not an [`OptLevel`]).
fn rates_json(
    num_phvs: usize,
    timings: &[(OptLevel, Duration)],
    extra: &[(&str, Duration)],
) -> String {
    let mut fields: Vec<String> = timings
        .iter()
        .map(|(opt, d)| format!("\"{}\": {:.1}", opt.key(), phvs_per_sec(num_phvs, *d)))
        .collect();
    fields.extend(
        extra
            .iter()
            .map(|(name, d)| format!("\"{name}\": {:.1}", phvs_per_sec(num_phvs, *d))),
    );
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_flag = args.iter().position(|a| a == "--out");
    let out_path = out_flag
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_scaling.json", String::as_str);
    let floor_flag = args.iter().position(|a| a == "--lanes-floor");
    let lanes_floor: Option<f64> = floor_flag.and_then(|i| args.get(i + 1)).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --lanes-floor `{s}` (expected a ratio like 4.0)");
            std::process::exit(1);
        })
    });
    // The positional PHV count is any non-flag token that is not a flag's
    // value. An unparseable count is an error, not a silent fallback: a
    // trajectory point recorded at the wrong scale is worse than no run.
    let num_phvs: usize = match args.iter().enumerate().find(|&(i, a)| {
        !a.starts_with("--")
            && Some(i) != out_flag.map(|f| f + 1)
            && Some(i) != floor_flag.map(|f| f + 1)
    }) {
        None => 20_000,
        Some((_, s)) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad PHV count `{s}` (expected a plain integer)");
            std::process::exit(1);
        }),
    };

    let mut grids_json = Vec::new();
    let mut lanes_log_sum = 0.0f64;
    let mut lanes_cells = 0usize;
    println!("Backend PHVs/sec by grid size, {num_phvs} PHVs, pred_raw/stateless_full\n");
    println!(
        "{:>6} {:>6} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "depth",
        "width",
        "mc pairs",
        "unopt/s",
        "scc/s",
        "inline/s",
        "fused/s",
        "lanes/s",
        "scc-spdup",
        "fus-spdup",
        "lane-spdup"
    );
    for depth in [1usize, 2, 4, 6] {
        for width in [1usize, 2, 4, 6] {
            let spec = PipelineSpec::new(
                PipelineConfig::new(depth, width),
                atom("pred_raw").unwrap(),
                atom("stateless_full").unwrap(),
            )
            .unwrap();
            let expected = expected_machine_code(&spec);
            let pairs = expected.len();
            let mc = MachineCode::from_pairs(expected.into_iter().map(|(n, _)| (n, 0)));
            let timings: Vec<(OptLevel, Duration)> = OptLevel::ALL
                .iter()
                .map(|&opt| {
                    (
                        opt,
                        time_batch(&spec, &mc, opt, num_phvs, BENCH_SEED).unwrap(),
                    )
                })
                .collect();
            let lanes = time_batch_lanes(&spec, &mc, num_phvs, BENCH_SEED, LANES).unwrap();
            let rate = |i: usize| phvs_per_sec(num_phvs, timings[i].1);
            let lanes_rate = phvs_per_sec(num_phvs, lanes);
            let lane_speedup = lanes_rate / rate(3).max(1e-9);
            lanes_log_sum += lane_speedup.max(1e-9).ln();
            lanes_cells += 1;
            println!(
                "{:>6} {:>6} {:>10} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>8.2}x \
                 {:>8.2}x {:>8.2}x",
                depth,
                width,
                pairs,
                rate(0),
                rate(1),
                rate(2),
                rate(3),
                lanes_rate,
                rate(1) / rate(0).max(1e-9),
                rate(3) / rate(2).max(1e-9),
                lane_speedup,
            );
            grids_json.push(format!(
                "    {{\"depth\": {depth}, \"width\": {width}, \"mc_pairs\": {pairs}, \
                 \"phvs_per_sec\": {}}}",
                rates_json(num_phvs, &timings, &[("fused_lanes", lanes)])
            ));
        }
    }

    println!("\nTable 1 corpus, {num_phvs} PHVs per backend:\n");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "Program", "grid", "unopt/s", "scc/s", "inline/s", "fused/s", "lanes/s", "fus-spdup"
    );
    let mut table1_json = Vec::new();
    let mut speedup_log_sum = 0.0f64;
    let mut measured = 0usize;
    for def in &PROGRAMS {
        let compiled = match def.compile_cached() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{:<20} FAILED: {e}", def.table1_name);
                continue;
            }
        };
        let timings: Vec<(OptLevel, Duration)> = OptLevel::ALL
            .iter()
            .map(|&opt| {
                (
                    opt,
                    time_batch(
                        &compiled.pipeline_spec,
                        &compiled.machine_code,
                        opt,
                        num_phvs,
                        BENCH_SEED,
                    )
                    .unwrap(),
                )
            })
            .collect();
        let lanes = time_batch_lanes(
            &compiled.pipeline_spec,
            &compiled.machine_code,
            num_phvs,
            BENCH_SEED,
            LANES,
        )
        .unwrap();
        let speedup = timings[2].1.as_secs_f64() / timings[3].1.as_secs_f64().max(1e-9);
        speedup_log_sum += speedup.ln();
        measured += 1;
        println!(
            "{:<20} {:>12} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>8.2}x",
            def.table1_name,
            format!("{}x{}", def.depth, def.width),
            phvs_per_sec(num_phvs, timings[0].1),
            phvs_per_sec(num_phvs, timings[1].1),
            phvs_per_sec(num_phvs, timings[2].1),
            phvs_per_sec(num_phvs, timings[3].1),
            phvs_per_sec(num_phvs, lanes),
            speedup,
        );
        table1_json.push(format!(
            "    {{\"program\": \"{}\", \"depth\": {}, \"width\": {}, \
             \"phvs_per_sec\": {}, \"fused_over_scc_inline\": {:.3}}}",
            def.name,
            def.depth,
            def.width,
            rates_json(num_phvs, &timings, &[("fused_lanes", lanes)]),
            speedup,
        ));
    }
    let geomean = if measured > 0 {
        (speedup_log_sum / measured as f64).exp()
    } else {
        0.0
    };
    println!("\nGeomean fused-over-inline speedup across the corpus: {geomean:.2}x");
    let lanes_geomean = if lanes_cells > 0 {
        (lanes_log_sum / lanes_cells as f64).exp()
    } else {
        0.0
    };
    println!("Geomean {LANES}-lane sweep over scalar fused across the grid: {lanes_geomean:.2}x");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"num_phvs\": {num_phvs},");
    let _ = writeln!(json, "  \"seed\": {BENCH_SEED},");
    let _ = writeln!(json, "  \"lane_width\": {LANES},");
    let _ = writeln!(json, "  \"grids\": [");
    let _ = writeln!(json, "{}", grids_json.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"table1\": [");
    let _ = writeln!(json, "{}", table1_json.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fused_over_scc_inline_geomean\": {geomean:.3},");
    let _ = writeln!(
        json,
        "  \"fused_lanes_over_fused_geomean\": {lanes_geomean:.3}"
    );
    let _ = writeln!(json, "}}");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            // Exit nonzero: a green CI perf-smoke step must mean a fresh
            // measurement was recorded, not a stale committed file.
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    // The regression gate runs after the JSON write so a failing run still
    // records the measurement it failed on.
    if let Some(floor) = lanes_floor {
        if lanes_geomean < floor {
            eprintln!(
                "lane regression: {LANES}-lane sweep geomean {lanes_geomean:.2}x over scalar \
                 fused is below the committed {floor:.2}x floor"
            );
            std::process::exit(1);
        }
    }
}
