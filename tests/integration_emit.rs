//! The emitted pipeline descriptions are real Rust: compile them with
//! rustc (the same contract the actual Druzhba relies on, §3.2) and check
//! the three optimization levels shrink the artifact.

use std::process::Command;

use druzhba::alu_dsl::atoms::atom;
use druzhba::core::{MachineCode, PipelineConfig};
use druzhba::dgen::emit::emit_pipeline;
use druzhba::dgen::{expected_machine_code, OptLevel, PipelineSpec};

fn sample() -> (PipelineSpec, MachineCode) {
    let spec = PipelineSpec::new(
        PipelineConfig::new(2, 2),
        atom("if_else_raw").unwrap(),
        atom("stateless_full").unwrap(),
    )
    .unwrap();
    let mc = MachineCode::from_pairs(
        expected_machine_code(&spec)
            .into_iter()
            .map(|(n, _)| (n, 0)),
    );
    (spec, mc)
}

fn rustc_available() -> bool {
    Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[test]
fn emitted_descriptions_compile_with_rustc() {
    if !rustc_available() {
        eprintln!("rustc not on PATH; skipping compile check");
        return;
    }
    let (spec, mc) = sample();
    let dir = std::env::temp_dir().join(format!("druzhba-emit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for opt in OptLevel::ALL {
        let src = emit_pipeline(&spec, &mc, opt).unwrap();
        let name = format!("pipeline_{opt:?}").to_lowercase();
        let path = dir.join(format!("{name}.rs"));
        std::fs::write(&path, &src).unwrap();
        let out = Command::new("rustc")
            .args([
                "--edition",
                "2021",
                "--crate-type",
                "lib",
                "--crate-name",
                &name,
                "-o",
            ])
            .arg(dir.join(format!("lib{name}.rlib")))
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{opt:?} emission failed to compile:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emission_shrinks_with_optimization() {
    let (spec, mc) = sample();
    let sizes: Vec<usize> = OptLevel::ALL
        .iter()
        .map(|&opt| emit_pipeline(&spec, &mc, opt).unwrap().len())
        .collect();
    assert!(sizes[0] > sizes[1], "SCC must shrink the description");
    assert!(sizes[1] > sizes[2], "inlining must shrink it further");
    assert!(
        sizes[2] > sizes[3],
        "whole-pipeline fusion must shrink it further still ({} vs {})",
        sizes[2],
        sizes[3]
    );
}

#[test]
fn compiled_program_descriptions_emit_for_every_benchmark() {
    for def in &druzhba::programs::PROGRAMS {
        let compiled = def.compile_cached().unwrap();
        for opt in OptLevel::ALL {
            let src = emit_pipeline(&compiled.pipeline_spec, &compiled.machine_code, opt).unwrap();
            assert!(src.contains("pub fn process_phv"), "{}: {opt:?}", def.name);
        }
    }
}

/// The emitted pipeline description doesn't just compile — it *behaves*
/// identically to the in-process backends: build it with rustc, run it on
/// random PHVs, and compare outputs and final state bit-for-bit.
#[test]
fn emitted_code_behaves_identically() {
    if !rustc_available() {
        eprintln!("rustc not on PATH; skipping behavioural check");
        return;
    }
    use druzhba::core::ValueGen;
    use druzhba::dgen::Pipeline;

    let spec = PipelineSpec::new(
        PipelineConfig::new(2, 2),
        atom("if_else_raw").unwrap(),
        atom("stateless_full").unwrap(),
    )
    .unwrap();
    // Random in-domain machine code.
    let mut gen = ValueGen::new(2026, 32);
    let mc = MachineCode::from_pairs(expected_machine_code(&spec).into_iter().map(
        |(name, domain)| {
            let bound = domain.bound().min(64) as u32;
            (name, gen.value_below(bound))
        },
    ));

    // Expected behaviour from the in-process pipeline.
    let mut pipeline = Pipeline::generate(&spec, &mc, druzhba::dgen::OptLevel::SccInline).unwrap();
    let inputs: Vec<Vec<u32>> = (0..24).map(|_| gen.values(2)).collect();
    let mut expected_lines = Vec::new();
    for input in &inputs {
        let out = pipeline.process(&druzhba::core::Phv::new(input.clone()));
        expected_lines.push(
            out.containers()
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    for stage in pipeline.state_snapshot() {
        for alu in stage {
            expected_lines.push(alu.iter().map(u32::to_string).collect::<Vec<_>>().join(","));
        }
    }

    let dir = std::env::temp_dir().join(format!("druzhba-emit-behaviour-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state_vars = spec.stateful_alu.state_vars.len();
    let (depth, width) = (spec.config.depth, spec.config.width);

    for opt in OptLevel::ALL {
        let module = emit_pipeline(&spec, &mc, opt).unwrap();
        let inputs_literal: Vec<String> = inputs.iter().map(|i| format!("vec!{i:?}")).collect();
        let call = match opt {
            OptLevel::Unoptimized => "process_phv(&values, &mut phv, &mut state);",
            _ => "process_phv(&mut phv, &mut state);",
        };
        let values_init = match opt {
            OptLevel::Unoptimized => "let values = machine_code();",
            _ => "",
        };
        let main = format!(
            "{module}\n\
             fn main() {{\n\
                 {values_init}\n\
                 let mut state: Vec<Vec<u32>> = (0..{depth} * {width}).map(|_| vec![0u32; {state_vars}]).collect();\n\
                 let inputs: Vec<Vec<u32>> = vec![{}];\n\
                 for input in inputs {{\n\
                     let mut phv = input.clone();\n\
                     {call}\n\
                     let strs: Vec<String> = phv.iter().map(|v| v.to_string()).collect();\n\
                     println!(\"{{}}\", strs.join(\",\"));\n\
                 }}\n\
                 for alu in &state {{\n\
                     let strs: Vec<String> = alu.iter().map(|v| v.to_string()).collect();\n\
                     println!(\"{{}}\", strs.join(\",\"));\n\
                 }}\n\
             }}\n",
            inputs_literal.join(", ")
        );
        let name = format!("behaviour_{opt:?}").to_lowercase();
        let src_path = dir.join(format!("{name}.rs"));
        let bin_path = dir.join(&name);
        std::fs::write(&src_path, &main).unwrap();
        let out = Command::new("rustc")
            .args(["--edition", "2021", "-O", "-o"])
            .arg(&bin_path)
            .arg(&src_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{opt:?} emission failed to compile:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let run = Command::new(&bin_path).output().unwrap();
        assert!(run.status.success(), "{opt:?} emitted binary crashed");
        let got: Vec<&str> = std::str::from_utf8(&run.stdout).unwrap().lines().collect();
        assert_eq!(
            got, expected_lines,
            "{opt:?}: emitted pipeline diverges from in-process backends"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
