//! # druzhba-programs
//!
//! The twelve packet-processing programs of the paper's Table 1, each as:
//!
//! - a **Domino source** (embedded asset) authored within the capability of
//!   its Table 1 atom,
//! - the Table 1 **pipeline configuration** (depth, width, ALU name),
//! - a **hand-written Rust specification** ([`HandSpec`]) implementing the
//!   algorithm independently of the Domino interpreter — the paper §5.2:
//!   *"we defined the PHV structure and algorithmic behavior for each of
//!   our Domino programs in Rust"*,
//! - on-demand **compilation** to machine code through the
//!   synthesis-based compiler (cached per program).
//!
//! Two independent executable specifications (the Domino interpreter via
//! [`druzhba_chipmunk::CompiledSpec`] and the hand-written [`HandSpec`])
//! guard against common-mode bugs: the fuzz harness can check the pipeline
//! against either.

pub mod p4corpus;

pub use p4corpus::{p4_by_name, P4ProgramDef, P4_PROGRAMS};

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use druzhba_chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba_core::{Phv, Result, Value};
use druzhba_domino::{parse_program, DominoProgram};
use druzhba_dsim::testing::{FuzzConfig, Specification};

/// A field lookup callback handed to hand-written specs.
pub type FieldGet<'a> = &'a dyn Fn(&str) -> Value;

/// One step of a hand-written specification: mutate `state`, return the
/// written fields.
pub type StepFn = fn(&mut [Value], FieldGet<'_>) -> Vec<(&'static str, Value)>;

/// One Table 1 program.
#[derive(Clone, Copy)]
pub struct ProgramDef {
    /// Registry key (snake_case).
    pub name: &'static str,
    /// Display name as printed in Table 1.
    pub table1_name: &'static str,
    /// Pipeline depth from Table 1.
    pub depth: usize,
    /// Pipeline width from Table 1.
    pub width: usize,
    /// Stateful atom (Table 1 "ALU name").
    pub stateful_atom: &'static str,
    /// Domino source.
    pub source: &'static str,
    /// Number of state variables the program declares.
    pub state_vars: usize,
    /// Hand-written Rust specification step.
    pub hand_step: StepFn,
}

impl ProgramDef {
    /// Parse the Domino source.
    pub fn parse(&self) -> DominoProgram {
        parse_program(self.source).expect("shipped program parses")
    }

    /// The compiler configuration for the Table 1 grid.
    pub fn compiler_config(&self) -> CompilerConfig {
        CompilerConfig::new(self.depth, self.width, self.stateful_atom)
    }

    /// Compile to machine code (fresh run; see [`ProgramDef::compile_cached`]).
    pub fn compile(&self) -> Result<CompiledProgram> {
        compile(&self.parse(), &self.compiler_config())
    }

    /// Compile with process-wide caching (synthesis is deterministic, so
    /// the first result is *the* result).
    pub fn compile_cached(&self) -> Result<CompiledProgram> {
        static CACHE: OnceLock<Mutex<HashMap<&'static str, CompiledProgram>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().unwrap().get(self.name) {
            return Ok(hit.clone());
        }
        let compiled = self.compile()?;
        cache.lock().unwrap().insert(self.name, compiled.clone());
        Ok(compiled)
    }

    /// The Domino-interpreter specification, wired to a compilation.
    pub fn interpreter_spec(&self, compiled: &CompiledProgram) -> CompiledSpec {
        CompiledSpec::new(self.parse(), compiled)
    }

    /// The hand-written Rust specification, wired to a compilation.
    pub fn hand_spec(&self, compiled: &CompiledProgram) -> HandSpec {
        HandSpec {
            state: vec![0; self.state_vars],
            n_state: self.state_vars,
            step: self.hand_step,
            input_fields: compiled.input_fields.clone(),
            output_fields: compiled
                .output_fields
                .iter()
                .map(|(f, &c)| (f.clone(), c))
                .collect(),
            phv_length: compiled.pipeline_spec.config.phv_length,
        }
    }

    /// Fuzz configuration asserting this program's observable containers
    /// and state cells.
    pub fn fuzz_config(&self, compiled: &CompiledProgram, num_phvs: usize) -> FuzzConfig {
        FuzzConfig {
            num_phvs,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            ..FuzzConfig::default()
        }
    }
}

/// A hand-written Rust specification bound to a compiled container layout.
pub struct HandSpec {
    state: Vec<Value>,
    n_state: usize,
    step: StepFn,
    input_fields: Vec<String>,
    output_fields: Vec<(String, usize)>,
    phv_length: usize,
}

impl Specification for HandSpec {
    fn reset(&mut self) {
        self.state = vec![0; self.n_state];
    }

    fn process(&mut self, input: &Phv) -> Phv {
        let get = |name: &str| {
            self.input_fields
                .iter()
                .position(|f| f == name)
                .map_or(0, |i| input.get(i))
        };
        let written = (self.step)(&mut self.state, &get);
        let mut out = Phv::zeroed(self.phv_length);
        for (field, container) in &self.output_fields {
            let v = written
                .iter()
                .find(|(f, _)| f == field)
                .map(|&(_, v)| v)
                .unwrap_or(0);
            out.set(*container, v);
        }
        out
    }

    fn state(&self) -> Vec<Value> {
        self.state.clone()
    }
}

// ----------------------------------------------------------------------
// Hand-written specifications (independent of the Domino sources).
// ----------------------------------------------------------------------

fn blue_decrease_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let mark = u32::from(get("rand") <= state[0]);
    let dec = u32::from(get("qlen") == 0) * 2;
    state[0] = state[0].wrapping_sub(dec);
    vec![("mark", mark)]
}

fn blue_increase_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let mark = u32::from(get("rand") <= state[0]);
    if state[1] <= get("now").wrapping_sub(10) {
        state[0] = state[0].wrapping_add(1);
        state[1] = get("now");
    }
    vec![("mark", mark)]
}

fn sampling_step(state: &mut [Value], _get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    if state[0] == 9 {
        state[0] = 0;
        vec![("sample", 1)]
    } else {
        state[0] += 1;
        vec![("sample", 0)]
    }
}

fn marple_new_flow_step(state: &mut [Value], _get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let is_new = u32::from(state[0] == 0);
    state[0] = 1;
    vec![("is_new", is_new)]
}

fn marple_tcp_nmo_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let seq = get("seq");
    if seq.wrapping_add(1) <= state[0] {
        state[1] = state[1].wrapping_add(1);
    }
    if state[0] <= seq {
        state[0] = seq;
    }
    vec![]
}

fn snap_heavy_hitter_step(state: &mut [Value], _get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let prev = state[0];
    if state[0] >= 20 {
        state[1] = state[1].wrapping_add(1);
    }
    state[0] = state[0].wrapping_add(1);
    vec![("prev_count", prev)]
}

fn stateful_firewall_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let outbound = get("dir") == 0;
    let allow = u32::from(outbound || (state[0] != 0 && get("port") != 22));
    let established = u32::from(state[0] == 1);
    if outbound {
        state[0] = 1;
    }
    vec![("allow", allow), ("established", established)]
}

fn flowlets_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let old_hop = state[1];
    if state[0].wrapping_add(5) <= get("arrival") {
        state[1] = get("new_hop");
    }
    state[0] = get("arrival");
    vec![("old_hop", old_hop)]
}

fn learn_filter_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let (ev0, ev1, ev2) = (state[0], state[1], state[2]);
    state[0] = state[0].wrapping_add(get("src") % 2);
    state[1] = state[1].wrapping_add(u32::from(get("src").is_multiple_of(3)));
    state[2] = state[2].wrapping_add(get("dst") % 2);
    vec![("ev0", ev0), ("ev1", ev1), ("ev2", ev2)]
}

fn rcp_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let seen_rtt = state[0];
    let rtt = get("rtt");
    let over = u32::from(rtt >= 31);
    if rtt <= 30 {
        state[0] = state[0].wrapping_add(rtt);
        state[1] = state[1].wrapping_add(1);
    }
    vec![("seen_rtt", seen_rtt), ("over_limit", over)]
}

fn conga_step(state: &mut [Value], get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    let util = get("util");
    let congested = u32::from(util >= 90);
    let headroom = 100u32.wrapping_sub(util);
    if state[0] <= util {
        state[0] = util;
        state[1] = get("path");
    }
    vec![("congested", congested), ("headroom", headroom)]
}

fn spam_detection_step(state: &mut [Value], _get: FieldGet<'_>) -> Vec<(&'static str, Value)> {
    if state[0] >= 50 {
        state[1] = state[1].wrapping_add(1);
    }
    state[0] = state[0].wrapping_add(1);
    vec![]
}

// ----------------------------------------------------------------------
// Registry.
// ----------------------------------------------------------------------

/// All Table 1 programs, in the paper's row order.
pub const PROGRAMS: [ProgramDef; 12] = [
    ProgramDef {
        name: "blue_decrease",
        table1_name: "BLUE (decrease)",
        depth: 4,
        width: 2,
        stateful_atom: "sub",
        source: include_str!("../assets/blue_decrease.domino"),
        state_vars: 1,
        hand_step: blue_decrease_step,
    },
    ProgramDef {
        name: "blue_increase",
        table1_name: "BLUE (increase)",
        depth: 4,
        width: 2,
        stateful_atom: "pair",
        source: include_str!("../assets/blue_increase.domino"),
        state_vars: 2,
        hand_step: blue_increase_step,
    },
    ProgramDef {
        name: "sampling",
        table1_name: "Sampling",
        depth: 2,
        width: 1,
        stateful_atom: "if_else_raw",
        source: include_str!("../assets/sampling.domino"),
        state_vars: 1,
        hand_step: sampling_step,
    },
    ProgramDef {
        name: "marple_new_flow",
        table1_name: "Marple new flow",
        depth: 2,
        width: 2,
        stateful_atom: "pred_raw",
        source: include_str!("../assets/marple_new_flow.domino"),
        state_vars: 1,
        hand_step: marple_new_flow_step,
    },
    ProgramDef {
        name: "marple_tcp_nmo",
        table1_name: "Marple TCP NMO",
        depth: 3,
        width: 2,
        stateful_atom: "pred_raw",
        source: include_str!("../assets/marple_tcp_nmo.domino"),
        state_vars: 2,
        hand_step: marple_tcp_nmo_step,
    },
    ProgramDef {
        name: "snap_heavy_hitter",
        table1_name: "SNAP heavy hitter",
        depth: 1,
        width: 1,
        stateful_atom: "pair",
        source: include_str!("../assets/snap_heavy_hitter.domino"),
        state_vars: 2,
        hand_step: snap_heavy_hitter_step,
    },
    ProgramDef {
        name: "stateful_firewall",
        table1_name: "Stateful firewall",
        depth: 4,
        width: 5,
        stateful_atom: "pred_raw",
        source: include_str!("../assets/stateful_firewall.domino"),
        state_vars: 1,
        hand_step: stateful_firewall_step,
    },
    ProgramDef {
        name: "flowlets",
        table1_name: "Flowlets",
        depth: 4,
        width: 5,
        stateful_atom: "pred_raw",
        source: include_str!("../assets/flowlets.domino"),
        state_vars: 2,
        hand_step: flowlets_step,
    },
    ProgramDef {
        name: "learn_filter",
        table1_name: "Learn filter",
        depth: 3,
        width: 5,
        stateful_atom: "raw",
        source: include_str!("../assets/learn_filter.domino"),
        state_vars: 3,
        hand_step: learn_filter_step,
    },
    ProgramDef {
        name: "rcp",
        table1_name: "RCP",
        depth: 3,
        width: 3,
        stateful_atom: "pred_raw",
        source: include_str!("../assets/rcp.domino"),
        state_vars: 2,
        hand_step: rcp_step,
    },
    ProgramDef {
        name: "conga",
        table1_name: "CONGA",
        depth: 1,
        width: 5,
        stateful_atom: "pair",
        source: include_str!("../assets/conga.domino"),
        state_vars: 2,
        hand_step: conga_step,
    },
    ProgramDef {
        name: "spam_detection",
        table1_name: "Spam detection",
        depth: 1,
        width: 1,
        stateful_atom: "pair",
        source: include_str!("../assets/spam_detection.domino"),
        state_vars: 2,
        hand_step: spam_detection_step,
    },
];

/// Look up a program by registry name.
pub fn by_name(name: &str) -> Option<&'static ProgramDef> {
    PROGRAMS.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_dgen::OptLevel;
    use druzhba_dsim::testing::fuzz_test;

    #[test]
    fn all_sources_parse_and_declare_expected_state() {
        for p in &PROGRAMS {
            let program = p.parse();
            assert_eq!(
                program.state_vars.len(),
                p.state_vars,
                "{}: state count",
                p.name
            );
        }
    }

    #[test]
    fn registry_lookup() {
        assert!(by_name("rcp").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(PROGRAMS.len(), 12);
    }

    #[test]
    fn all_programs_compile_on_their_table1_grids() {
        for p in &PROGRAMS {
            let compiled = p
                .compile_cached()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(
                compiled.report.stages_used <= p.depth,
                "{}: used {} stages on a depth-{} grid",
                p.name,
                compiled.report.stages_used,
                p.depth
            );
        }
    }

    /// The full Fig. 5 workflow for every Table 1 program against the
    /// Domino-interpreter spec.
    #[test]
    fn all_programs_fuzz_clean_against_interpreter_spec() {
        for p in &PROGRAMS {
            let compiled = p.compile_cached().unwrap();
            let mut spec = p.interpreter_spec(&compiled);
            let report = fuzz_test(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                OptLevel::SccInline,
                &mut spec,
                &p.fuzz_config(&compiled, 300),
            );
            assert!(report.passed(), "{}: {:?}", p.name, report.verdict);
        }
    }

    /// And against the independent hand-written Rust specs.
    #[test]
    fn all_programs_fuzz_clean_against_hand_specs() {
        for p in &PROGRAMS {
            let compiled = p.compile_cached().unwrap();
            let mut spec = p.hand_spec(&compiled);
            let report = fuzz_test(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                OptLevel::Scc,
                &mut spec,
                &p.fuzz_config(&compiled, 300),
            );
            assert!(report.passed(), "{}: {:?}", p.name, report.verdict);
        }
    }
}
