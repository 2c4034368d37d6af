//! End-to-end compilation: Domino source → Druzhba machine code.
//!
//! The pipeline of passes: parse/validate (caller) → symbolic execution →
//! grouping search → lowering → grid scheduling → per-ALU hole synthesis →
//! machine-code assembly. Grouping options are tried most-merged first; the
//! first option that lowers, schedules, *and* synthesizes wins.

use std::collections::BTreeMap;

use druzhba_alu_dsl::atoms;
use druzhba_core::names::{self, AluKind};
use druzhba_core::{Error, MachineCode, Result, Value};
use druzhba_dgen::{expected_machine_code, PipelineSpec};
use druzhba_domino::DominoProgram;

use crate::ir::TExpr;
use crate::lower::{groupings, lower, DagOp, NodeInput};
use crate::schedule::{schedule, Placement};
use crate::synth::{synthesize_stateful, synthesize_stateless, SynthConfig};

/// Compiler configuration: the target grid and ALU pair, plus synthesis
/// parameters.
#[derive(Debug, Clone)]
pub struct CompilerConfig {
    /// Pipeline depth (stages).
    pub depth: usize,
    /// ALUs per stage (stateless and stateful each).
    pub width: usize,
    /// Stateful atom name (Table 1's "ALU name" column).
    pub stateful_atom: String,
    /// Stateless ALU name.
    pub stateless_atom: String,
    /// Synthesis parameters.
    pub synth: SynthConfig,
}

impl CompilerConfig {
    /// A config for the given grid using the named stateful atom and the
    /// general-purpose stateless ALU.
    pub fn new(depth: usize, width: usize, stateful_atom: &str) -> Self {
        CompilerConfig {
            depth,
            width,
            stateful_atom: stateful_atom.to_string(),
            stateless_atom: "stateless_full".to_string(),
            synth: SynthConfig::default(),
        }
    }
}

/// Statistics from a successful compilation.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// State-variable grouping chosen (program state indices per atom).
    pub grouping: Vec<Vec<usize>>,
    /// Stateless ALUs used.
    pub stateless_used: usize,
    /// Stateful ALUs used.
    pub stateful_used: usize,
    /// Highest stage index used, plus one.
    pub stages_used: usize,
    /// PHV containers used.
    pub phv_length: usize,
}

/// A compiled program: machine code plus everything needed to simulate and
/// test it.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The pipeline this machine code targets.
    pub pipeline_spec: PipelineSpec,
    /// The machine code (complete: every expected pair present).
    pub machine_code: MachineCode,
    /// Input packet fields in container order (field `i` ↔ container `i`).
    pub input_fields: Vec<String>,
    /// Written packet fields and the container holding each at pipeline
    /// exit.
    pub output_fields: BTreeMap<String, usize>,
    /// Grid cell `(stage, slot, var)` implementing each program state
    /// variable, in declaration order.
    pub state_cells: Vec<(usize, usize, usize)>,
    /// Compilation statistics.
    pub report: CompileReport,
}

impl CompiledProgram {
    /// Containers to assert in the fuzz harness (the observable outputs).
    pub fn observable_containers(&self) -> Vec<usize> {
        self.output_fields.values().copied().collect()
    }
}

/// Compile a validated Domino program onto the `depth × width` grid of
/// the given [`CompilerConfig`], producing machine code plus the
/// container layout and observable outputs the fuzz harness asserts on.
///
/// Synthesis is deterministic: the same program and configuration always
/// produce the same machine code, which is why fuzz/hunt seeds replay.
///
/// ```
/// use druzhba_chipmunk::{compile, CompilerConfig};
/// use druzhba_domino::parse_program;
///
/// let program = parse_program(
///     "state int count = 0;\n\
///      if (count == 9) { count = 0; pkt.sample = 1; }\n\
///      else { count = count + 1; pkt.sample = 0; }\n",
/// )
/// .unwrap();
/// let compiled = compile(&program, &CompilerConfig::new(2, 1, "if_else_raw")).unwrap();
/// assert_eq!(compiled.machine_code.try_get("stateful_alu_0_0_const_0"), Some(9));
/// assert!(compiled.output_fields.contains_key("sample"));
/// ```
pub fn compile(program: &DominoProgram, cfg: &CompilerConfig) -> Result<CompiledProgram> {
    // Pipeline state powers up zeroed; nonzero initials would need a
    // preamble the hardware model does not have.
    if let Some(decl) = program.state_vars.iter().find(|d| d.init != 0) {
        return Err(Error::DoesNotFit {
            message: format!(
                "state variable `{}` has nonzero initial value {} (switch state \
                 storage is zero-initialized)",
                decl.name, decl.init
            ),
        });
    }

    let stateful_alu = atoms::atom(&cfg.stateful_atom)?;
    let stateless_alu = atoms::atom(&cfg.stateless_atom)?;
    let capacity = stateful_alu.state_vars.len();

    let synth_cfg = cfg.synth.clone().with_candidates(&program.literals());

    let mut last_err = Error::DoesNotFit {
        message: "no grouping options".into(),
    };
    for grouping in groupings(program, capacity)? {
        match try_grouping(
            program,
            cfg,
            &grouping,
            &stateful_alu,
            &stateless_alu,
            &synth_cfg,
        ) {
            Ok(compiled) => return Ok(compiled),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

fn try_grouping(
    program: &DominoProgram,
    cfg: &CompilerConfig,
    grouping: &[Vec<usize>],
    stateful_alu: &druzhba_alu_dsl::AluSpec,
    stateless_alu: &druzhba_alu_dsl::AluSpec,
    synth_cfg: &SynthConfig,
) -> Result<CompiledProgram> {
    let lowered = lower(program, grouping)?;
    let placement = schedule(&lowered, cfg.depth, cfg.width)?;

    let pipeline_spec = PipelineSpec::new(
        placement.config,
        stateful_alu.clone(),
        stateless_alu.clone(),
    )?;

    // Every name of the grid starts at zero (pass-through output muxes,
    // unused ALUs): the machine code must program the whole grid or dgen
    // rejects it. Synthesis and routing below overwrite what they program.
    let mut mc = MachineCode::from_pairs(
        expected_machine_code(&pipeline_spec)
            .into_iter()
            .map(|(name, _)| (name, 0)),
    );

    // Stateless nodes.
    for (i, node) in lowered.nodes.iter().enumerate() {
        let (stage, slot) = placement.node_place[i];
        let (target, op_inputs) = node_target(node);
        let holes = synthesize_stateless(stateless_alu, op_inputs.len(), &target, synth_cfg)?;
        install_alu(
            &mut mc,
            AluKind::Stateless,
            stage,
            slot,
            &holes,
            &op_inputs,
            &placement,
        );
    }

    // Atoms.
    for (g, atom_task) in lowered.atoms.iter().enumerate() {
        let (stage, slot) = placement.atom_place[g];
        let op_inputs = &lowered.atom_operand_inputs[g];
        let holes = synthesize_stateful(stateful_alu, op_inputs.len(), &atom_task.tree, synth_cfg)?;
        install_alu(
            &mut mc,
            AluKind::Stateful,
            stage,
            slot,
            &holes,
            op_inputs,
            &placement,
        );
    }

    // Output muxes: route each producing ALU's output into its container at
    // its stage.
    for (i, &(stage, slot)) in placement.node_place.iter().enumerate() {
        mc.set(
            names::output_mux(stage, placement.node_container[i]),
            (1 + slot) as Value,
        );
    }
    for (g, &(stage, slot)) in placement.atom_place.iter().enumerate() {
        mc.set(
            names::output_mux(stage, placement.atom_container[g]),
            (1 + cfg.width + slot) as Value,
        );
    }

    // State-cell mapping per program state variable.
    let mut state_cells = vec![(0, 0, 0); program.state_vars.len()];
    for (g, group) in grouping.iter().enumerate() {
        let (stage, slot) = placement.atom_place[g];
        for (k, &var) in group.iter().enumerate() {
            state_cells[var] = (stage, slot, k);
        }
    }

    let stages_used = placement
        .node_place
        .iter()
        .chain(&placement.atom_place)
        .map(|&(s, _)| s + 1)
        .max()
        .unwrap_or(0);

    Ok(CompiledProgram {
        machine_code: mc,
        input_fields: lowered.input_fields.clone(),
        output_fields: placement.sink_container.clone(),
        state_cells,
        report: CompileReport {
            grouping: grouping.to_vec(),
            stateless_used: lowered.nodes.len(),
            stateful_used: lowered.atoms.len(),
            stages_used,
            phv_length: placement.config.phv_length,
        },
        pipeline_spec,
    })
}

/// The synthesis target of a DAG node, plus the (≤2) container-backed
/// operand inputs in mux order.
fn node_target(node: &crate::lower::DagNode) -> (TExpr, Vec<NodeInput>) {
    match node.op {
        DagOp::Const(v) => (TExpr::Const(v), Vec::new()),
        DagOp::Bin(op) => {
            let mut op_inputs = Vec::new();
            let mut side = |input: NodeInput| -> TExpr {
                match input {
                    NodeInput::Const(v) => TExpr::Const(v),
                    other => {
                        // Reuse an operand slot if the same source feeds
                        // both sides (e.g. a * a).
                        if let Some(k) = op_inputs.iter().position(|&i| i == other) {
                            TExpr::Op(k)
                        } else {
                            op_inputs.push(other);
                            TExpr::Op(op_inputs.len() - 1)
                        }
                    }
                }
            };
            let l = side(node.a);
            let r = side(node.b);
            (TExpr::Bin(op, Box::new(l), Box::new(r)), op_inputs)
        }
    }
}

/// Write one ALU's holes and operand muxes into the machine code.
fn install_alu(
    mc: &mut MachineCode,
    kind: AluKind,
    stage: usize,
    slot: usize,
    holes: &std::collections::HashMap<String, Value>,
    op_inputs: &[NodeInput],
    placement: &Placement,
) {
    for (local, &v) in holes {
        mc.set(names::alu_hole(kind, stage, slot, local), v);
    }
    for (k, &input) in op_inputs.iter().enumerate() {
        let container = placement
            .container_of(input)
            .expect("operand inputs are container-backed");
        mc.set(names::operand_mux(kind, stage, slot, k), container as Value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_dgen::{OptLevel, Pipeline};
    use druzhba_domino::parse_program;

    /// Compile and run a few packets through the pipeline, returning
    /// (outputs at observable containers, final state by program var).
    fn run_compiled(
        src: &str,
        cfg: &CompilerConfig,
        packets: &[Vec<(&str, Value)>],
    ) -> (Vec<BTreeMap<String, Value>>, Vec<Value>) {
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, cfg).unwrap();
        let mut pipe = Pipeline::generate(
            &compiled.pipeline_spec,
            &compiled.machine_code,
            OptLevel::SccInline,
        )
        .unwrap();
        let mut outs = Vec::new();
        for pkt in packets {
            let mut phv = druzhba_core::Phv::zeroed(compiled.pipeline_spec.config.phv_length);
            for (field, value) in pkt {
                let idx = compiled
                    .input_fields
                    .iter()
                    .position(|f| f == field)
                    .unwrap_or_else(|| panic!("unknown input field {field}"));
                phv.set(idx, *value);
            }
            let out = pipe.process(&phv);
            outs.push(
                compiled
                    .output_fields
                    .iter()
                    .map(|(f, &c)| (f.clone(), out.get(c)))
                    .collect(),
            );
        }
        let snapshot = pipe.state_snapshot();
        let state = compiled
            .state_cells
            .iter()
            .map(|&(stage, slot, var)| snapshot[stage][slot][var])
            .collect();
        (outs, state)
    }

    #[test]
    fn compiles_stateless_arithmetic() {
        let (outs, _) = run_compiled(
            "pkt.sum = pkt.a + pkt.b;\npkt.flag = pkt.a >= 10;",
            &CompilerConfig::new(1, 2, "raw"),
            &[vec![("a", 12), ("b", 30)], vec![("a", 3), ("b", 4)]],
        );
        assert_eq!(outs[0]["sum"], 42);
        assert_eq!(outs[0]["flag"], 1);
        assert_eq!(outs[1]["sum"], 7);
        assert_eq!(outs[1]["flag"], 0);
    }

    #[test]
    fn compiles_accumulator() {
        let (_, state) = run_compiled(
            "state int sum = 0;\nsum = sum + pkt.x;",
            &CompilerConfig::new(1, 1, "raw"),
            &[vec![("x", 5)], vec![("x", 7)], vec![("x", 1)]],
        );
        assert_eq!(state, vec![13]);
    }

    #[test]
    fn compiles_sampling_on_if_else_raw() {
        let src = "state int count = 0;\n\
                   if (count == 2) { count = 0; pkt.sample = 1; }\n\
                   else { count = count + 1; pkt.sample = 0; }";
        let packets: Vec<Vec<(&str, Value)>> = (0..6).map(|_| vec![]).collect();
        let (outs, state) = run_compiled(src, &CompilerConfig::new(2, 1, "if_else_raw"), &packets);
        let samples: Vec<Value> = outs.iter().map(|o| o["sample"]).collect();
        assert_eq!(samples, vec![0, 0, 1, 0, 0, 1]);
        assert_eq!(state, vec![0]);
    }

    #[test]
    fn compiles_pair_group() {
        let src = "state int count = 0;\n\
                   state int heavy = 0;\n\
                   if (count >= 3) { heavy = heavy + 1; count = count + 1; }\n\
                   else { count = count + 1; }";
        let packets: Vec<Vec<(&str, Value)>> = (0..5).map(|_| vec![]).collect();
        let (_, state) = run_compiled(src, &CompilerConfig::new(1, 1, "pair"), &packets);
        // counts 0,1,2,3,4 -> heavy increments at counts 3 and 4.
        assert_eq!(state, vec![5, 2]);
    }

    #[test]
    fn rejects_program_too_deep() {
        let program = parse_program("pkt.o = ((pkt.a + pkt.b) + pkt.c) + pkt.d;").unwrap();
        let err = compile(&program, &CompilerConfig::new(2, 4, "raw")).unwrap_err();
        assert!(matches!(err, Error::DoesNotFit { .. }));
    }

    #[test]
    fn rejects_nonzero_initial_state() {
        let program = parse_program("state int s = 5;\ns = s + pkt.a;").unwrap();
        let err = compile(&program, &CompilerConfig::new(1, 1, "raw")).unwrap_err();
        assert!(err.to_string().contains("zero-initialized"));
    }

    #[test]
    fn machine_code_is_complete_for_the_grid() {
        let program = parse_program("state int s = 0;\ns = s + pkt.a;").unwrap();
        let compiled = compile(&program, &CompilerConfig::new(2, 2, "raw")).unwrap();
        // dgen accepts it at every level — i.e. no missing pairs.
        for level in OptLevel::ALL {
            Pipeline::generate(&compiled.pipeline_spec, &compiled.machine_code, level).unwrap();
        }
    }

    #[test]
    fn grouping_fallback_to_minimal() {
        // Two cross-referencing-free variables with field-only guards fit
        // separate pred_raw atoms.
        let src = "state int sum_a = 0;\n\
                   state int sum_b = 0;\n\
                   if (pkt.sel == 0) { sum_a = sum_a + 1; }\n\
                   if (pkt.sel == 1) { sum_b = sum_b + 1; }";
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &CompilerConfig::new(2, 2, "pred_raw")).unwrap();
        assert_eq!(compiled.report.stateful_used, 2);
        assert_eq!(compiled.report.grouping, vec![vec![0], vec![1]]);
    }
}
