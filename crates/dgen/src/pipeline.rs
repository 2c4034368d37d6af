//! Pipeline generation: turning (dimensions, ALU specs, machine code) into
//! an executable pipeline description.
//!
//! Structure (paper Fig. 2): every stage holds `width` stateless ALUs and
//! `width` stateful ALUs. Each ALU operand is fed by an *input multiplexer*
//! selecting one PHV container; after the ALUs execute, one *output
//! multiplexer per PHV container* selects what the container carries into
//! the next stage — the incoming value (pass-through), a stateless ALU
//! output, or a stateful ALU output.
//!
//! Machine-code validation happens here, up front: a program that is
//! missing pairs or programs a primitive out of its domain is rejected
//! before simulation — the "machine code was incompatible with the
//! pipeline" failure class of the paper's case study (§5.2).

use std::collections::HashMap;
use std::rc::Rc;

use druzhba_alu_dsl::{AluSpec, HoleDomain};
use druzhba_core::coverage::{edge_id, CoverageMap};
use druzhba_core::names::{self, AluKind};
use druzhba_core::trace::StateSnapshot;
use druzhba_core::{Error, MachineCode, Phv, PipelineConfig, Result, Value};

use crate::bytecode::BytecodeProgram;
use crate::fused::FusedPipeline;
use crate::opt::specialize;
use crate::OptLevel;

/// The inputs to dgen: pipeline dimensions plus the stateful and stateless
/// ALU structure shared by every grid position.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Depth, width, and PHV length.
    pub config: PipelineConfig,
    /// The stateful ALU instantiated at every (stage, slot).
    pub stateful_alu: AluSpec,
    /// The stateless ALU instantiated at every (stage, slot).
    pub stateless_alu: AluSpec,
}

impl PipelineSpec {
    /// Create a spec, validating the configuration and ALU kinds.
    pub fn new(
        config: PipelineConfig,
        stateful_alu: AluSpec,
        stateless_alu: AluSpec,
    ) -> Result<Self> {
        config.validate()?;
        if stateful_alu.kind != AluKind::Stateful {
            return Err(Error::InvalidConfig {
                message: format!("ALU `{}` is not stateful", stateful_alu.name),
            });
        }
        if stateless_alu.kind != AluKind::Stateless {
            return Err(Error::InvalidConfig {
                message: format!("ALU `{}` is not stateless", stateless_alu.name),
            });
        }
        Ok(PipelineSpec {
            config,
            stateful_alu,
            stateless_alu,
        })
    }
}

/// Every machine-code name the pipeline expects, with its legal domain.
///
/// The order is deterministic: stage by stage; within a stage, stateless
/// ALUs (operand muxes then internal holes), stateful ALUs likewise, then
/// output muxes.
pub fn expected_machine_code(spec: &PipelineSpec) -> Vec<(String, HoleDomain)> {
    let cfg = &spec.config;
    let mut out = Vec::new();
    for stage in 0..cfg.depth {
        for (kind, alu) in [
            (AluKind::Stateless, &spec.stateless_alu),
            (AluKind::Stateful, &spec.stateful_alu),
        ] {
            for slot in 0..cfg.width {
                for operand in 0..alu.operand_count() {
                    out.push((
                        names::operand_mux(kind, stage, slot, operand),
                        HoleDomain::Choice(cfg.phv_length as u32),
                    ));
                }
                for hole in &alu.holes {
                    out.push((names::alu_hole(kind, stage, slot, &hole.local), hole.domain));
                }
            }
        }
        for container in 0..cfg.phv_length {
            out.push((
                names::output_mux(stage, container),
                HoleDomain::Choice(cfg.output_mux_inputs() as u32),
            ));
        }
    }
    out
}

/// Validate `mc` against the pipeline's expected names and domains,
/// returning every violation (empty means compatible).
pub fn validate_machine_code(spec: &PipelineSpec, mc: &MachineCode) -> Vec<Error> {
    let mut errors = Vec::new();
    for (name, domain) in expected_machine_code(spec) {
        match mc.try_get(&name) {
            None => errors.push(Error::MissingMachineCode { name }),
            Some(v) if !domain.contains(v) => errors.push(Error::MachineCodeOutOfRange {
                name,
                value: v,
                limit: domain.bound().min(u64::from(u32::MAX)) as u32,
            }),
            Some(_) => {}
        }
    }
    errors
}

/// How an ALU unit executes its body.
#[derive(Debug, Clone)]
enum Backend {
    /// Version 1: interpret the shared AST, fetching every hole value from
    /// a hash map at each access.
    Unoptimized { holes: HashMap<String, Value> },
    /// Version 2: interpret a hole-free specialized AST.
    Specialized { spec: AluSpec },
    /// Version 3: run flattened bytecode.
    Compiled { program: BytecodeProgram },
}

/// One ALU instance at a grid position, with its input-mux configuration
/// and (for stateful ALUs) its local state storage.
#[derive(Debug, Clone)]
pub struct AluUnit {
    kind: AluKind,
    stage: usize,
    slot: usize,
    base_spec: Rc<AluSpec>,
    backend: Backend,
    /// Resolved input-mux selections (optimized backends). For the
    /// unoptimized backend the selections live in `mux_holes` and are
    /// fetched per tick.
    operand_sel: Vec<usize>,
    /// Unoptimized only: operand mux machine code, looked up at runtime.
    mux_holes: HashMap<String, Value>,
    /// State storage (stateful ALUs; empty otherwise).
    state: Vec<Value>,
    /// Reused per-execution operand buffer (no per-PHV allocation).
    operand_buf: Vec<Value>,
    /// Reused bytecode operand stack (compiled backend only), sized to the
    /// program's `max_stack` at generation time.
    stack_buf: Vec<Value>,
    /// Precomputed coverage site id for this grid position.
    site: u32,
}

impl AluUnit {
    /// Stateful or stateless.
    pub fn kind(&self) -> AluKind {
        self.kind
    }

    /// Grid position.
    pub fn position(&self) -> (usize, usize) {
        (self.stage, self.slot)
    }

    /// The ALU's current state-variable values.
    pub fn state(&self) -> &[Value] {
        &self.state
    }

    /// The underlying (unspecialized) ALU spec.
    pub fn spec(&self) -> &AluSpec {
        &self.base_spec
    }

    /// The coverage site id of this grid position (the `site` argument of
    /// every edge the unit records).
    pub fn site(&self) -> u32 {
        self.site
    }

    /// The unoptimized backend's hole environment, if this unit fetches
    /// hole values at runtime (version 1).
    pub fn hole_env(&self) -> Option<&HashMap<String, Value>> {
        match &self.backend {
            Backend::Unoptimized { holes } => Some(holes),
            _ => None,
        }
    }

    /// The specialized (hole-free) spec, if this unit interprets one
    /// (version 2).
    pub fn specialized_spec(&self) -> Option<&AluSpec> {
        match &self.backend {
            Backend::Specialized { spec } => Some(spec),
            _ => None,
        }
    }

    /// The compiled bytecode program, if this unit runs one (version 3).
    pub fn bytecode(&self) -> Option<&BytecodeProgram> {
        match &self.backend {
            Backend::Compiled { program } => Some(program),
            _ => None,
        }
    }

    /// The container index feeding operand `k`.
    pub fn operand_selection(&self, k: usize) -> usize {
        match &self.backend {
            Backend::Unoptimized { .. } => self
                .mux_holes
                .get(&format!("operand_mux_{k}"))
                .copied()
                .unwrap_or(0) as usize,
            _ => self.operand_sel.get(k).copied().unwrap_or(0),
        }
    }

    /// Execute the ALU once against the stage-input PHV; returns the ALU's
    /// PHV-visible output and commits any state update. The operand buffer
    /// and (for the compiled backend) the bytecode operand stack are
    /// generation-time allocations reused across PHVs.
    pub fn execute(&mut self, phv: &Phv) -> Value {
        self.execute_cov(phv, None)
    }

    /// Like [`AluUnit::execute`], optionally recording coverage edges:
    /// the operand-mux selections feeding this execution plus the body's
    /// branch/opcode-arm decisions (see [`crate::eval::eval_with_coverage`]
    /// and [`BytecodeProgram::run_with_coverage`]).
    pub fn execute_cov(&mut self, phv: &Phv, mut cov: Option<&mut CoverageMap>) -> Value {
        self.operand_buf.clear();
        match &self.backend {
            Backend::Unoptimized { .. } => {
                // Version 1: the input-mux helper reads its machine code
                // from the hash map on every invocation.
                for k in 0..self.base_spec.operand_count() {
                    let sel = self
                        .mux_holes
                        .get(&format!("operand_mux_{k}"))
                        .copied()
                        .unwrap_or(0) as usize;
                    self.operand_buf.push(phv.get(sel));
                }
            }
            _ => {
                for &sel in &self.operand_sel {
                    self.operand_buf.push(phv.get(sel));
                }
            }
        }
        if let Some(cov) = cov.as_deref_mut() {
            // Input-mux selection edges: resolved at generation time, so
            // they vary with the machine code, not the input — they give
            // mutated programs distinct coverage signatures.
            for (k, &sel) in self.operand_sel.iter().enumerate() {
                cov.hit(edge_id(self.site, 0x4000 + k as u32, sel as Value));
            }
        }
        match &self.backend {
            Backend::Unoptimized { holes } => {
                crate::eval::eval_with_coverage(
                    &self.base_spec,
                    holes,
                    &self.operand_buf,
                    &mut self.state,
                    cov,
                    self.site,
                )
                .output
            }
            Backend::Specialized { spec } => {
                // The specialized spec contains no holes; an empty map (no
                // allocation) satisfies the evaluator's signature.
                crate::eval::eval_with_coverage(
                    spec,
                    &HashMap::new(),
                    &self.operand_buf,
                    &mut self.state,
                    cov,
                    self.site,
                )
                .output
            }
            Backend::Compiled { program } => program.run_with_coverage(
                &self.operand_buf,
                &mut self.state,
                &mut self.stack_buf,
                cov,
                self.site,
            ),
        }
    }

    /// Reset state variables to zero.
    pub fn reset(&mut self) {
        self.state.fill(0);
    }
}

/// One pipeline stage: its ALUs and output-mux configuration.
#[derive(Debug, Clone)]
pub struct Stage {
    stateless: Vec<AluUnit>,
    stateful: Vec<AluUnit>,
    /// Resolved output-mux selections per container (optimized backends).
    output_sel: Vec<usize>,
    /// Unoptimized only: output-mux machine code fetched per tick, keyed by
    /// full machine-code name.
    output_holes: HashMap<String, Value>,
    unoptimized: bool,
    stage_index: usize,
    /// Reused per-execution ALU output buffers (no per-PHV allocation).
    stateless_out: Vec<Value>,
    stateful_out: Vec<Value>,
}

impl Stage {
    /// The stage's stateless ALUs.
    pub fn stateless_alus(&self) -> &[AluUnit] {
        &self.stateless
    }

    /// The stage's stateful ALUs.
    pub fn stateful_alus(&self) -> &[AluUnit] {
        &self.stateful
    }

    /// The output-mux selection for a container.
    pub fn output_selection(&self, container: usize) -> usize {
        if self.unoptimized {
            self.output_holes
                .get(&names::output_mux(self.stage_index, container))
                .copied()
                .unwrap_or(0) as usize
        } else {
            self.output_sel.get(container).copied().unwrap_or(0)
        }
    }

    /// Execute the stage: run every ALU against the input PHV, then apply
    /// the output muxes to produce the next PHV.
    pub fn execute(&mut self, input: &Phv) -> Phv {
        let mut out = input.clone();
        self.execute_in_place(&mut out);
        out
    }

    /// Execute the stage in place: every ALU reads the incoming PHV, then
    /// the output muxes overwrite exactly the containers they drive
    /// (pass-through containers are untouched). No heap allocation.
    pub fn execute_in_place(&mut self, phv: &mut Phv) {
        self.execute_in_place_cov(phv, None);
    }

    /// Like [`Stage::execute_in_place`], optionally recording coverage:
    /// every ALU's input-mux and body edges plus this stage's output-mux
    /// selections. Still allocation-free.
    pub fn execute_in_place_cov(&mut self, phv: &mut Phv, mut cov: Option<&mut CoverageMap>) {
        let width = self.stateless.len();
        self.stateless_out.clear();
        for alu in &mut self.stateless {
            self.stateless_out
                .push(alu.execute_cov(phv, cov.as_deref_mut()));
        }
        self.stateful_out.clear();
        for alu in &mut self.stateful {
            self.stateful_out
                .push(alu.execute_cov(phv, cov.as_deref_mut()));
        }
        for container in 0..phv.len() {
            let sel = self.output_selection(container);
            if let Some(cov) = cov.as_deref_mut() {
                cov.hit(edge_id(
                    0x0A00_0000 | self.stage_index as u32,
                    container as u32,
                    sel as Value,
                ));
            }
            if sel == 0 {
                continue;
            }
            let v = if sel <= width {
                self.stateless_out[sel - 1]
            } else {
                self.stateful_out[sel - 1 - width]
            };
            phv.set(container, v);
        }
    }
}

/// An executable pipeline description: the artifact dgen generates.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    opt_level: OptLevel,
    /// Per-stage structure (empty at [`OptLevel::Fused`], where the whole
    /// pipeline is one register program).
    stages: Vec<Stage>,
    /// The fused whole-pipeline register program ([`OptLevel::Fused`] only).
    fused: Option<FusedPipeline>,
    /// Optional execution-coverage map ([`Pipeline::enable_coverage`]);
    /// allocated once, reused allocation-free across PHVs.
    cov: Option<Box<CoverageMap>>,
}

impl Pipeline {
    /// Generate a pipeline from its spec and machine code at the given
    /// optimization level.
    ///
    /// Fails with [`Error::MissingMachineCode`] /
    /// [`Error::MachineCodeOutOfRange`] if the program is incompatible with
    /// the pipeline.
    pub fn generate(spec: &PipelineSpec, mc: &MachineCode, opt_level: OptLevel) -> Result<Self> {
        if let Some(err) = validate_machine_code(spec, mc).into_iter().next() {
            return Err(err);
        }
        // The hostile-trap scan sits after validation so the panic models a
        // backend crash on *valid* input — the case panic isolation exists
        // for. Static passes never build a pipeline, so they never trip it.
        druzhba_core::hostile::trip_if_hostile(mc);
        let cfg = spec.config;
        if opt_level == OptLevel::Fused {
            return Ok(Pipeline {
                config: cfg,
                opt_level,
                stages: Vec::new(),
                fused: Some(FusedPipeline::fuse(spec, mc)),
                cov: None,
            });
        }
        let stateless_rc = Rc::new(spec.stateless_alu.clone());
        let stateful_rc = Rc::new(spec.stateful_alu.clone());

        let mut stages = Vec::with_capacity(cfg.depth);
        for stage_idx in 0..cfg.depth {
            let build_units = |kind: AluKind, base: &Rc<AluSpec>| -> Vec<AluUnit> {
                (0..cfg.width)
                    .map(|slot| build_unit(kind, stage_idx, slot, base, mc, opt_level))
                    .collect()
            };
            let stateless = build_units(AluKind::Stateless, &stateless_rc);
            let stateful = build_units(AluKind::Stateful, &stateful_rc);

            let mut output_sel = Vec::with_capacity(cfg.phv_length);
            let mut output_holes = HashMap::new();
            for container in 0..cfg.phv_length {
                let name = names::output_mux(stage_idx, container);
                let v = mc.try_get(&name).expect("validated above");
                output_sel.push(v as usize);
                output_holes.insert(name, v);
            }
            stages.push(Stage {
                stateless,
                stateful,
                output_sel,
                output_holes,
                unoptimized: opt_level == OptLevel::Unoptimized,
                stage_index: stage_idx,
                stateless_out: Vec::with_capacity(cfg.width),
                stateful_out: Vec::with_capacity(cfg.width),
            });
        }
        Ok(Pipeline {
            config: cfg,
            opt_level,
            stages,
            fused: None,
            cov: None,
        })
    }

    /// Attach (or reset) an execution-coverage map: subsequent PHVs record
    /// branch, mux-selection, and opcode-arm edges into it. One allocation
    /// here; the instrumented tick loop itself stays allocation-free on
    /// every backend.
    pub fn enable_coverage(&mut self) {
        match &mut self.cov {
            Some(cov) => cov.clear(),
            None => self.cov = Some(Box::new(CoverageMap::new())),
        }
    }

    /// The coverage accumulated since [`Pipeline::enable_coverage`], if
    /// enabled.
    pub fn coverage(&self) -> Option<&CoverageMap> {
        self.cov.as_deref()
    }

    /// Zero the attached coverage map (no-op when disabled), keeping its
    /// allocation for the next execution.
    pub fn clear_coverage(&mut self) {
        if let Some(cov) = &mut self.cov {
            cov.clear();
        }
    }

    /// The pipeline's dimensions.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The optimization level the pipeline was generated at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The pipeline's stages (for structural inspection). Empty at
    /// [`OptLevel::Fused`], where per-stage structure is compiled away into
    /// one register program (see [`Pipeline::fused_program`]).
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The fused whole-pipeline register program, at [`OptLevel::Fused`].
    pub fn fused_program(&self) -> Option<&FusedPipeline> {
        self.fused.as_ref()
    }

    /// The coverage edges every processed packet records, whatever its
    /// contents: each ALU's input-mux and each stage's output-mux
    /// selections on the staged backends, each stage entry on the fused
    /// one. Branch edges, which depend on the packet, are not included.
    pub fn fixed_edges(&self) -> Vec<(u32, u32, u32)> {
        if let Some(fp) = &self.fused {
            return (0..fp.stage_bounds().len() as u32)
                .map(|stage| (crate::fused::FUSED_SITE, 0x8000 + stage, 0))
                .collect();
        }
        let mut out = Vec::new();
        for stage in &self.stages {
            for unit in stage.stateless.iter().chain(&stage.stateful) {
                for (k, &sel) in unit.operand_sel.iter().enumerate() {
                    out.push((unit.site, 0x4000 + k as u32, sel as Value));
                }
            }
            for container in 0..self.config.phv_length {
                let sel = stage.output_selection(container) as Value;
                out.push((
                    0x0A00_0000 | stage.stage_index as u32,
                    container as u32,
                    sel,
                ));
            }
        }
        out
    }

    /// Execute one stage in place (the tick-accurate simulator holds one
    /// in-flight PHV per stage), reusing generation-time buffers: zero
    /// heap allocations per call on every backend.
    pub fn execute_stage_in_place(&mut self, stage: usize, phv: &mut Phv) {
        let cov = self.cov.as_deref_mut();
        match &mut self.fused {
            Some(f) => f.execute_stage_in_place_cov(stage, phv, cov),
            None => self.stages[stage].execute_in_place_cov(phv, cov),
        }
    }

    /// Run a single PHV through every stage immediately.
    ///
    /// Because state is local to each stateful ALU and PHVs traverse stages
    /// in FIFO order, per-PHV full traversal produces results identical to
    /// tick-accurate pipelined execution — an invariant the dsim test suite
    /// checks by property test.
    pub fn process(&mut self, phv: &Phv) -> Phv {
        let mut cur = phv.clone();
        self.process_in_place(&mut cur);
        cur
    }

    /// Run a single PHV through every stage in place — the zero-allocation
    /// fast path ([`OptLevel::Fused`] additionally performs no per-stage
    /// dispatch at all).
    pub fn process_in_place(&mut self, phv: &mut Phv) {
        let mut cov = self.cov.as_deref_mut();
        match &mut self.fused {
            Some(f) => f.process_in_place_cov(phv, cov),
            None => {
                for stage in &mut self.stages {
                    stage.execute_in_place_cov(phv, cov.as_deref_mut());
                }
            }
        }
    }

    /// Push a batch of PHVs through the whole pipeline in order, each in
    /// place — the batched entry point the fuzzing campaigns and
    /// benchmarks drive.
    pub fn process_batch(&mut self, phvs: &mut [Phv]) {
        for phv in phvs {
            self.process_in_place(phv);
        }
    }

    /// Snapshot of every stateful ALU's state: `snapshot[stage][slot]`.
    pub fn state_snapshot(&self) -> StateSnapshot {
        match &self.fused {
            Some(f) => f.state_snapshot(),
            None => self
                .stages
                .iter()
                .map(|s| s.stateful.iter().map(|a| a.state.clone()).collect())
                .collect(),
        }
    }

    /// Reset all stateful ALU state to zero.
    pub fn reset(&mut self) {
        match &mut self.fused {
            Some(f) => f.reset(),
            None => {
                for stage in &mut self.stages {
                    for alu in &mut stage.stateful {
                        alu.reset();
                    }
                }
            }
        }
    }
}

fn build_unit(
    kind: AluKind,
    stage: usize,
    slot: usize,
    base: &Rc<AluSpec>,
    mc: &MachineCode,
    opt_level: OptLevel,
) -> AluUnit {
    // Collect the unit's hole values, keyed by local name.
    let mut local_holes = HashMap::new();
    for hole in &base.holes {
        let full = names::alu_hole(kind, stage, slot, &hole.local);
        local_holes.insert(hole.local.clone(), mc.try_get(&full).expect("validated"));
    }
    let mut mux_holes = HashMap::new();
    let mut operand_sel = Vec::new();
    for k in 0..base.operand_count() {
        let full = names::operand_mux(kind, stage, slot, k);
        let v = mc.try_get(&full).expect("validated");
        mux_holes.insert(format!("operand_mux_{k}"), v);
        operand_sel.push(v as usize);
    }

    let backend = match opt_level {
        OptLevel::Unoptimized => Backend::Unoptimized { holes: local_holes },
        OptLevel::Scc => Backend::Specialized {
            spec: specialize(base, &local_holes),
        },
        OptLevel::SccInline => Backend::Compiled {
            program: BytecodeProgram::compile(&specialize(base, &local_holes)),
        },
        OptLevel::Fused => unreachable!("OptLevel::Fused builds a FusedPipeline, not AluUnits"),
    };
    let state_len = if kind == AluKind::Stateful {
        base.state_vars.len()
    } else {
        0
    };
    let stack_cap = match &backend {
        Backend::Compiled { program } => program.max_stack(),
        _ => 0,
    };
    AluUnit {
        kind,
        stage,
        slot,
        base_spec: Rc::clone(base),
        backend,
        operand_sel,
        mux_holes,
        state: vec![0; state_len],
        operand_buf: Vec::with_capacity(base.operand_count()),
        stack_buf: Vec::with_capacity(stack_cap),
        // Distinct coverage site per (kind, stage, slot): stateless and
        // stateful ALUs at the same grid position must not collide.
        site: ((kind as u32 + 1) << 20) | ((stage as u32) << 10) | slot as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_alu_dsl::atoms::atom;

    /// A machine code programming every primitive to 0 (always in-domain).
    pub(crate) fn zero_machine_code(spec: &PipelineSpec) -> MachineCode {
        MachineCode::from_pairs(
            expected_machine_code(spec)
                .into_iter()
                .map(|(name, _)| (name, 0)),
        )
    }

    fn small_spec() -> PipelineSpec {
        PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn expected_names_cover_all_primitives() {
        let spec = small_spec();
        let names: Vec<String> = expected_machine_code(&spec)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        // 2 stages x (2 stateless x (2 operand muxes + 2 holes)
        //            + 2 stateful x (2 operand muxes + 4 holes)
        //            + 2 output muxes)
        assert_eq!(names.len(), 2 * (2 * (2 + 2) + 2 * (2 + 4) + 2));
        assert!(names.contains(&"stateless_alu_0_0_operand_mux_0".to_string()));
        assert!(names.contains(&"stateful_alu_1_1_mux3_0".to_string()));
        assert!(names.contains(&"output_mux_phv_1_1".to_string()));
        // No duplicates.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn missing_pair_rejected() {
        let spec = small_spec();
        let mut mc = zero_machine_code(&spec);
        mc.remove("output_mux_phv_0_1");
        let err = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap_err();
        assert_eq!(
            err,
            Error::MissingMachineCode {
                name: "output_mux_phv_0_1".into()
            }
        );
        assert!(err.is_incompatibility());
    }

    #[test]
    fn out_of_range_value_rejected() {
        let spec = small_spec();
        let mut mc = zero_machine_code(&spec);
        // Output mux domain here is 2*2+1 = 5.
        mc.set("output_mux_phv_0_0", 5);
        let err = Pipeline::generate(&spec, &mc, OptLevel::Scc).unwrap_err();
        assert!(matches!(err, Error::MachineCodeOutOfRange { .. }));
    }

    #[test]
    fn pass_through_by_default() {
        let spec = small_spec();
        let mc = zero_machine_code(&spec);
        // All output muxes are 0 => PHV passes through unchanged.
        for level in OptLevel::ALL {
            let mut p = Pipeline::generate(&spec, &mc, level).unwrap();
            let out = p.process(&Phv::new(vec![17, 23]));
            assert_eq!(out.containers(), &[17, 23], "{level:?}");
        }
    }

    #[test]
    fn stateful_accumulation_visible_across_phvs() {
        // Program stage 0 stateful ALU 0 as state += pkt (operand 0 from
        // container 0), and write its output (old state) to container 1.
        let spec = small_spec();
        let mut mc = zero_machine_code(&spec);
        // raw: state_0 = arith_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))
        // arith=0 (add), opt_0=0 (keep state), mux3_0=0 (pkt_0), const_0=0.
        // Defaults of zero already give that; select container 0 for
        // operand 0 (also the default).
        // Route container 1 from stateful ALU 0: selector = width+1 = 3.
        mc.set("output_mux_phv_0_1", 3);
        for level in OptLevel::ALL {
            let mut p = Pipeline::generate(&spec, &mc, level).unwrap();
            let out1 = p.process(&Phv::new(vec![5, 0]));
            // Old state was 0.
            assert_eq!(out1.get(1), 0, "{level:?}");
            let out2 = p.process(&Phv::new(vec![7, 0]));
            // Old state was 5 after the first PHV.
            assert_eq!(out2.get(1), 5, "{level:?}");
            assert_eq!(p.state_snapshot()[0][0], vec![12], "{level:?}");
        }
    }

    #[test]
    fn all_backends_agree_on_random_machine_code() {
        use druzhba_core::ValueGen;
        let spec = PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("if_else_raw").unwrap(),
            atom("stateless_arith").unwrap(),
        )
        .unwrap();
        let mut gen = ValueGen::new(99, 32);
        for trial in 0..20 {
            // Random in-domain machine code.
            let mc = MachineCode::from_pairs(expected_machine_code(&spec).into_iter().map(
                |(name, domain)| {
                    let bound = domain.bound().min(1 << 8) as u32;
                    (name, gen.value_below(bound))
                },
            ));
            let mut pipes: Vec<Pipeline> = OptLevel::ALL
                .iter()
                .map(|&l| Pipeline::generate(&spec, &mc, l).unwrap())
                .collect();
            for i in 0..10 {
                let phv = Phv::new(gen.values(2));
                let outs: Vec<Phv> = pipes.iter_mut().map(|p| p.process(&phv)).collect();
                for pair in outs.windows(2) {
                    assert_eq!(pair[0], pair[1], "trial {trial} phv {i}");
                }
            }
            let snaps: Vec<_> = pipes.iter().map(|p| p.state_snapshot()).collect();
            for pair in snaps.windows(2) {
                assert_eq!(pair[0], pair[1], "trial {trial} state");
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let spec = small_spec();
        let mc = zero_machine_code(&spec);
        let mut p = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();
        p.process(&Phv::new(vec![5, 5]));
        assert_ne!(p.state_snapshot()[0][0][0], 0);
        p.reset();
        assert!(p
            .state_snapshot()
            .iter()
            .flatten()
            .flatten()
            .all(|&v| v == 0));
    }

    #[test]
    fn fused_pipeline_has_program_not_stages() {
        let spec = small_spec();
        let mc = zero_machine_code(&spec);
        let p = Pipeline::generate(&spec, &mc, OptLevel::Fused).unwrap();
        assert!(p.stages().is_empty(), "fusion compiles stages away");
        assert!(p.fused_program().is_some());
        assert_eq!(p.opt_level(), OptLevel::Fused);
    }

    #[test]
    fn process_batch_matches_sequential_processing() {
        use druzhba_core::ValueGen;
        let spec = PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("pred_raw").unwrap(),
            atom("stateless_arith").unwrap(),
        )
        .unwrap();
        let mut gen = ValueGen::new(4242, 32);
        let mc = MachineCode::from_pairs(expected_machine_code(&spec).into_iter().map(
            |(name, domain)| {
                let bound = domain.bound().min(1 << 8) as u32;
                (name, gen.value_below(bound))
            },
        ));
        for level in OptLevel::ALL {
            let mut sequential = Pipeline::generate(&spec, &mc, level).unwrap();
            let mut batched = Pipeline::generate(&spec, &mc, level).unwrap();
            let phvs: Vec<Phv> = (0..30).map(|_| Phv::new(gen.values(2))).collect();
            let expected: Vec<Phv> = phvs.iter().map(|p| sequential.process(p)).collect();
            let mut batch = phvs;
            batched.process_batch(&mut batch);
            assert_eq!(batch, expected, "{level:?}");
            assert_eq!(
                batched.state_snapshot(),
                sequential.state_snapshot(),
                "{level:?}"
            );
        }
    }

    #[test]
    fn coverage_records_input_dependent_edges_on_every_backend() {
        // if_else_raw branches on a state/packet comparison, so different
        // inputs reach different arms — coverage must see that.
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(2, 1, 2),
            atom("if_else_raw").unwrap(),
            atom("stateless_arith").unwrap(),
        )
        .unwrap();
        let mut mc = zero_machine_code(&spec);
        // Compare state against C()=1 (rel_op 2 is ==) so pkt values
        // influence which arm runs on subsequent PHVs.
        mc.set("stateful_alu_0_0_rel_op_0", 2);
        mc.set("stateful_alu_0_0_mux3_0", 2);
        mc.set("stateful_alu_0_0_const_0", 1);
        for level in OptLevel::ALL {
            let mut p = Pipeline::generate(&spec, &mc, level).unwrap();
            assert!(p.coverage().is_none(), "{level:?}: off by default");
            p.enable_coverage();
            p.process(&Phv::new(vec![0, 0]));
            let low = p.coverage().unwrap().clone();
            assert!(low.edges_covered() > 0, "{level:?}: edges recorded");
            p.clear_coverage();
            p.reset();
            p.process(&Phv::new(vec![1, 0]));
            p.process(&Phv::new(vec![7, 0]));
            let high = p.coverage().unwrap().clone();
            assert_ne!(
                low.signature(),
                high.signature(),
                "{level:?}: different inputs, different coverage"
            );
        }
    }

    #[test]
    fn coverage_does_not_change_behaviour() {
        use druzhba_core::ValueGen;
        let spec = PipelineSpec::new(
            PipelineConfig::new(2, 2),
            atom("pred_raw").unwrap(),
            atom("stateless_full").unwrap(),
        )
        .unwrap();
        let mut gen = ValueGen::new(0xC0_7E57, 32);
        let mc = MachineCode::from_pairs(expected_machine_code(&spec).into_iter().map(
            |(name, domain)| {
                let bound = domain.bound().min(1 << 8) as u32;
                (name, gen.value_below(bound))
            },
        ));
        for level in OptLevel::ALL {
            let mut plain = Pipeline::generate(&spec, &mc, level).unwrap();
            let mut inst = Pipeline::generate(&spec, &mc, level).unwrap();
            inst.enable_coverage();
            for _ in 0..20 {
                let phv = Phv::new(gen.values(2));
                assert_eq!(plain.process(&phv), inst.process(&phv), "{level:?}");
            }
            assert_eq!(plain.state_snapshot(), inst.state_snapshot());
        }
    }

    #[test]
    fn structural_accessors() {
        let spec = small_spec();
        let mc = zero_machine_code(&spec);
        let p = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();
        assert_eq!(p.stages().len(), 2);
        assert_eq!(p.stages()[0].stateless_alus().len(), 2);
        assert_eq!(p.stages()[0].stateful_alus().len(), 2);
        assert_eq!(p.stages()[0].stateful_alus()[1].position(), (0, 1));
        assert_eq!(p.stages()[0].output_selection(0), 0);
        assert_eq!(p.stages()[0].stateless_alus()[0].operand_selection(0), 0);
    }
}
