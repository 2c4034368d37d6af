//! Reproduce the paper's §5.2 case study: using Druzhba to test a
//! program-synthesis-based compiler.
//!
//! The paper tested "over 120 Chipmunk machine code programs", all correct,
//! and additionally observed 8 failures: 2 from *missing machine code
//! pairs* (the pipeline's output multiplexers were left unprogrammed) and
//! the rest from machine code valid only for a *limited range of values*
//! (synthesis did not satisfy 10-bit inputs).
//!
//! This harness regenerates that campaign:
//!
//! 1. every Table 1 program is compiled on its own grid plus nine enlarged
//!    grid variants (12 × 10 = 120 distinct machine-code programs), each
//!    validated by fuzzing against its specification;
//! 2. two programs are corrupted by deleting output-mux pairs (failure
//!    class 1);
//! 3. six programs are recompiled with a deliberately limited-range
//!    verifier (2-bit inputs) and fuzzed at the paper's 10-bit inputs
//!    (failure class 2) — mismatches are expected but not guaranteed for
//!    every program (some programs have no range-sensitive guards), which
//!    the report records faithfully.
//!
//! Every mismatch is reported with its delta-debugged counterexample (the
//! failing 5000-packet trace reduced to the few packets and small values
//! that actually matter), the way the hunt campaign reports divergences.
//!
//! Usage: `cargo run -p druzhba-bench --release --bin case_study`; exits 1
//! if any phase-1 program has an unexpected mismatch.

use druzhba_bench::compile_variant;
use druzhba_chipmunk::{compile, SynthConfig};
use druzhba_dgen::OptLevel;
use druzhba_dsim::fault::FaultInjector;
use druzhba_dsim::minimize::MinimizedCounterExample;
use druzhba_dsim::testing::{fuzz_test, Verdict};
use druzhba_programs::PROGRAMS;

/// One-line rendering of a minimized counterexample for the report.
fn minimized_line(mce: &MinimizedCounterExample) -> String {
    let packets: Vec<String> = mce.input.phvs.iter().map(|p| p.to_string()).collect();
    format!(
        "minimized to {}/{} packet(s): [{}]",
        mce.packets(),
        mce.original_packets,
        packets.join(", ")
    )
}

fn main() {
    let mut correct = 0usize;
    let mut incompatible = 0usize;
    let mut mismatches = 0usize;

    // Phase 1: the campaign of correct machine-code programs.
    println!("== Phase 1: compiler-generated machine code (grid variants) ==");
    let variants: [(usize, usize); 10] = [
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
        (2, 0),
        (0, 2),
        (2, 1),
        (1, 2),
        (2, 2),
        (3, 1),
    ];
    for def in &PROGRAMS {
        let mut per_program = 0;
        for &(dd, dw) in &variants {
            match compile_variant(def, dd, dw) {
                Ok(compiled) => {
                    let mut spec = def.interpreter_spec(&compiled);
                    let report = fuzz_test(
                        &compiled.pipeline_spec,
                        &compiled.machine_code,
                        OptLevel::SccInline,
                        &mut spec,
                        &def.fuzz_config(&compiled, 2_000),
                    );
                    if report.passed() {
                        correct += 1;
                        per_program += 1;
                    } else {
                        mismatches += 1;
                        println!(
                            "  UNEXPECTED mismatch: {} at +({dd},{dw}): {:?}",
                            def.name, report.verdict
                        );
                        if let Some(mce) = &report.minimized {
                            println!("    {}", minimized_line(mce));
                        }
                    }
                }
                Err(e) => println!("  {} at +({dd},{dw}) did not compile: {e}", def.name),
            }
        }
        println!("  {:<20} {per_program}/10 variants validated", def.name);
    }
    println!("Machine code programs determined to be correct: {correct}\n");

    // Phase 2: missing machine code pairs (the paper's first failure
    // class: "2 failures were due to missing machine code pairs ... to
    // program the behavior of the pipeline's output multiplexers").
    println!("== Phase 2: missing machine-code pairs ==");
    for name in ["sampling", "rcp"] {
        let def = druzhba_programs::by_name(name).unwrap();
        let compiled = def.compile_cached().unwrap();
        // Remove an output-mux pair, exactly as in the paper.
        let victim = compiled
            .machine_code
            .names()
            .find(|n| n.starts_with("output_mux_phv_"))
            .unwrap()
            .to_string();
        let mut bad = compiled.machine_code.clone();
        bad.remove(&victim);
        let mut spec = def.interpreter_spec(&compiled);
        let report = fuzz_test(
            &compiled.pipeline_spec,
            &bad,
            OptLevel::SccInline,
            &mut spec,
            &def.fuzz_config(&compiled, 1_000),
        );
        match &report.verdict {
            Verdict::Incompatible(e) => {
                incompatible += 1;
                println!("  {name}: removed `{victim}` -> detected: {e}");
            }
            other => println!("  {name}: UNDETECTED ({other:?})"),
        }
    }
    // Also demonstrate random structural fault injection.
    let def = druzhba_programs::by_name("conga").unwrap();
    let compiled = def.compile_cached().unwrap();
    let mut injector = FaultInjector::new(7);
    let (bad, fault) = injector.remove_random_pair(&compiled.machine_code);
    let mut spec = def.interpreter_spec(&compiled);
    let report = fuzz_test(
        &compiled.pipeline_spec,
        &bad,
        OptLevel::SccInline,
        &mut spec,
        &def.fuzz_config(&compiled, 1_000),
    );
    println!(
        "  conga: random fault {fault:?} -> {}",
        if matches!(report.verdict, Verdict::Incompatible(_)) {
            "detected"
        } else {
            "UNDETECTED"
        }
    );
    println!();

    // Phase 3: machine code valid only for a limited input range ("the
    // synthesis engine failed to find machine code to satisfy 10-bit
    // inputs ... only returning machine code that only satisfied a limited
    // range of values").
    println!("== Phase 3: limited-range machine code (2-bit-verified compiler, 10-bit fuzzing) ==");
    let mut limited_range_failures = 0usize;
    for def in PROGRAMS.iter() {
        let mut cfg = def.compiler_config();
        cfg.synth = SynthConfig {
            verify_bits: 2,
            ..SynthConfig::default()
        };
        match compile(&def.parse(), &cfg) {
            Ok(compiled) => {
                let mut spec = def.interpreter_spec(&compiled);
                let mut fuzz_cfg = def.fuzz_config(&compiled, 5_000);
                fuzz_cfg.input_bits = 10;
                let report = fuzz_test(
                    &compiled.pipeline_spec,
                    &compiled.machine_code,
                    OptLevel::SccInline,
                    &mut spec,
                    &fuzz_cfg,
                );
                match &report.verdict {
                    Verdict::Mismatch(m) => {
                        limited_range_failures += 1;
                        println!("  {:<20} 10-bit fuzzing caught it: {m}", def.name);
                        if let Some(mce) = &report.minimized {
                            println!("  {:<20} {}", "", minimized_line(mce));
                        }
                    }
                    Verdict::Pass => println!(
                        "  {:<20} limited-range code happens to be correct at 10 bits",
                        def.name
                    ),
                    Verdict::Incompatible(e) => println!("  {:<20} incompatible: {e}", def.name),
                    Verdict::BackendPanic { payload } => {
                        println!("  {:<20} backend panicked: {payload}", def.name)
                    }
                }
            }
            Err(e) => println!("  {:<20} 2-bit compiler failed outright: {e}", def.name),
        }
    }

    println!("\n== Case study summary (paper: >120 correct, 8 failures) ==");
    println!("  correct machine-code programs : {correct}");
    println!("  missing-pair failures detected: {incompatible} + 1 random injection");
    println!("  limited-range failures caught : {limited_range_failures}");
    println!("  unexpected mismatches         : {mismatches}");
    if mismatches > 0 {
        // A compiled program that fails its fuzz run on a correct grid is
        // a compiler or simulator regression, not a finding.
        std::process::exit(1);
    }
}
