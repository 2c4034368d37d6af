//! Whole-pipeline fusion: the version-4 backend that goes one optimization
//! level beyond the paper's Fig. 6.
//!
//! The paper stops at per-ALU specialization (SCC propagation + function
//! inlining); every PHV still pays per-stage PHV construction, per-ALU
//! operand gathering, and dynamic output-mux dispatch. This module fuses the
//! *entire pipeline* — input muxes, specialized ALU bodies, and output muxes
//! for all `depth × width` grid positions — into one flat register program:
//!
//! - every input mux becomes a fixed register index (ALU operands read the
//!   selected PHV container register directly — the mux disappears);
//! - every specialized ALU body is compiled to three-address register code
//!   (no operand stack, no per-ALU function dispatch);
//! - every output mux becomes either nothing (pass-through) or a single
//!   register copy;
//! - stateless ALUs whose output no output mux selects are eliminated
//!   entirely (they are pure, so this is behaviour-preserving);
//! - PHV containers, all stateful-ALU state, ALU outputs, and expression
//!   temporaries live side by side in one preallocated scratch frame, so
//!   pushing a PHV through all stages performs **zero heap allocations and
//!   zero string hashing**.
//!
//! Stage boundaries are recorded so the tick-accurate simulator can still
//! drive the pipeline stage by stage; jumps never cross an ALU body, so a
//! stage is exactly a contiguous instruction range.

use std::collections::HashMap;

use druzhba_alu_dsl::{AluSpec, BinOp, Expr, Stmt, UnOp};
use druzhba_core::coverage::{edge_id, CoverageMap};
use druzhba_core::names::{self, AluKind};
use druzhba_core::trace::StateSnapshot;
use druzhba_core::value::{self, Value};
use druzhba_core::{MachineCode, Phv};

use crate::eval::{apply_binop, apply_unop};
use crate::opt::specialize;
use crate::pipeline::PipelineSpec;

/// Index into the scratch frame.
pub type Reg = u32;

/// One three-address instruction of the fused register program.
///
/// Beyond the plain register forms, two peephole shapes cover the patterns
/// SCC specialization leaves everywhere: an immediate operand (machine-code
/// constants folded into the instruction) and a fused compare-and-branch
/// (every specialized `if` begins with one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedInstr {
    /// `frame[dst] = v`
    Const { dst: Reg, v: Value },
    /// `frame[dst] = frame[src]`
    Copy { dst: Reg, src: Reg },
    /// `frame[dst] = frame[l] <op> frame[r]`
    Bin { op: BinOp, dst: Reg, l: Reg, r: Reg },
    /// `frame[dst] = frame[l] <op> imm`
    BinImm {
        op: BinOp,
        dst: Reg,
        l: Reg,
        imm: Value,
    },
    /// `frame[dst] = <op> frame[src]`
    Un { op: UnOp, dst: Reg, src: Reg },
    /// Jump to `target` when `frame[src]` is zero.
    JumpIfZero { src: Reg, target: u32 },
    /// Jump to `target` when `frame[l] <op> frame[r]` is zero.
    CmpJumpIfZero {
        op: BinOp,
        l: Reg,
        r: Reg,
        target: u32,
    },
    /// Jump to `target` when `frame[l] <op> imm` is zero.
    CmpImmJumpIfZero {
        op: BinOp,
        l: Reg,
        imm: Value,
        target: u32,
    },
    /// Unconditional jump.
    Jump { target: u32 },
}

/// A whole pipeline compiled to one register program plus its preallocated
/// scratch frame.
///
/// Frame layout: `[PHV containers | stateful-ALU state | ALU output
/// registers (shared across stages) | expression temporaries]`. Only the
/// state window survives across PHVs; everything else is written before it
/// is read on every execution.
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    instrs: Vec<FusedInstr>,
    /// Instruction range `[start, end)` of each stage.
    stage_bounds: Vec<(u32, u32)>,
    frame: Vec<Value>,
    phv_len: usize,
    /// `state_regs[stage][slot]` = (first register, register count) of the
    /// stateful ALU's state window.
    state_regs: Vec<Vec<(Reg, Reg)>>,
    /// Full state window `[base, base+len)` for bulk reset.
    state_window: (usize, usize),
}

impl FusedPipeline {
    /// Fuse a validated (spec, machine code) pair. Callers are expected to
    /// have run `validate_machine_code` first (as `Pipeline::generate`
    /// does); missing pairs default to zero like the other backends.
    pub fn fuse(spec: &PipelineSpec, mc: &MachineCode) -> Self {
        let cfg = &spec.config;
        let phv_len = cfg.phv_length;
        let n_state = spec.stateful_alu.state_vars.len();

        // State windows, one per stateful ALU, immediately after the PHV.
        let mut state_regs = Vec::with_capacity(cfg.depth);
        let mut next = phv_len;
        for _ in 0..cfg.depth {
            let mut row = Vec::with_capacity(cfg.width);
            for _ in 0..cfg.width {
                row.push((next as Reg, n_state as Reg));
                next += n_state;
            }
            state_regs.push(row);
        }
        let state_window = (phv_len, next - phv_len);

        // ALU output registers, shared by every stage (a stage's outputs
        // are dead once its output muxes have copied them).
        let out_base = next as Reg;
        let temp_base = out_base + 2 * cfg.width as Reg;

        let mut fuser = Fuser {
            instrs: Vec::new(),
            temp_base,
            temp_sp: temp_base,
            temp_hwm: temp_base,
            ret_jumps: Vec::new(),
        };
        let mut stage_bounds = Vec::with_capacity(cfg.depth);
        for (stage, state_row) in state_regs.iter().enumerate() {
            let start = fuser.instrs.len() as u32;

            // Resolve this stage's output muxes up front: they determine
            // which stateless ALUs are live.
            let (out_sel, live_stateless) = stage_out_muxes(spec, mc, stage);

            for (slot, &live) in live_stateless.iter().enumerate() {
                if live {
                    fuser.compile_alu(
                        &spec.stateless_alu,
                        stage,
                        slot,
                        mc,
                        out_base + slot as Reg,
                        0,
                    );
                }
            }
            for (slot, &(state_base, _)) in state_row.iter().enumerate() {
                fuser.compile_alu(
                    &spec.stateful_alu,
                    stage,
                    slot,
                    mc,
                    out_base + (cfg.width + slot) as Reg,
                    state_base,
                );
            }

            // Output muxes: a pass-through is no instruction at all; an ALU
            // selection is one register copy.
            for (container, &sel) in out_sel.iter().enumerate() {
                if sel == 0 {
                    continue;
                }
                fuser.instrs.push(FusedInstr::Copy {
                    dst: container as Reg,
                    src: out_base + (sel - 1) as Reg,
                });
            }
            stage_bounds.push((start, fuser.instrs.len() as u32));
        }

        let pipeline = FusedPipeline {
            instrs: fuser.instrs,
            stage_bounds,
            frame: vec![0; fuser.temp_hwm as usize],
            phv_len,
            state_regs,
            state_window,
        };
        pipeline.check_invariants();
        pipeline
    }

    /// Enforce the executor's safety invariant once, at construction:
    /// every register index is inside the frame and every jump target is
    /// inside the instruction list. [`exec_range`] relies on this to skip
    /// per-access bounds checks.
    fn check_invariants(&self) {
        let frame_len = self.frame.len() as Reg;
        let instr_len = self.instrs.len() as u32;
        for (pc, instr) in self.instrs.iter().enumerate() {
            let (regs, target): (&[Reg], Option<u32>) = match instr {
                FusedInstr::Const { dst, .. } => (std::slice::from_ref(dst), None),
                FusedInstr::Copy { dst, src } | FusedInstr::Un { dst, src, .. } => {
                    (&[*dst, *src][..], None)
                }
                FusedInstr::Bin { dst, l, r, .. } => (&[*dst, *l, *r][..], None),
                FusedInstr::BinImm { dst, l, .. } => (&[*dst, *l][..], None),
                FusedInstr::JumpIfZero { src, target } => {
                    (std::slice::from_ref(src), Some(*target))
                }
                FusedInstr::CmpJumpIfZero { l, r, target, .. } => (&[*l, *r][..], Some(*target)),
                FusedInstr::CmpImmJumpIfZero { l, target, .. } => {
                    (std::slice::from_ref(l), Some(*target))
                }
                FusedInstr::Jump { target } => (&[][..], Some(*target)),
            };
            for &r in regs {
                assert!(r < frame_len, "instr {pc}: register r{r} out of frame");
            }
            if let Some(t) = target {
                assert!(t <= instr_len, "instr {pc}: jump target {t} out of range");
            }
        }
        for &(start, end) in &self.stage_bounds {
            assert!(start <= end && end <= instr_len, "bad stage bounds");
        }
    }

    /// The fused instruction sequence.
    pub fn instrs(&self) -> &[FusedInstr] {
        &self.instrs
    }

    /// Scratch-frame length in registers.
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// PHV length the program was fused for.
    pub fn phv_len(&self) -> usize {
        self.phv_len
    }

    /// Instruction range `[start, end)` of each stage, in stage order.
    /// Static analyzers walk these to mirror the coverage instrumentation's
    /// per-stage edges without executing the program.
    pub fn stage_bounds(&self) -> &[(u32, u32)] {
        &self.stage_bounds
    }

    /// Per-stage, per-slot `(first register, register count)` of each
    /// stateful ALU's state window within the frame.
    pub fn state_regs(&self) -> &[Vec<(Reg, Reg)>] {
        &self.state_regs
    }

    /// The full state window `(base, len)` within the frame: registers
    /// `[base, base + len)` hold every stateful ALU's state, contiguously.
    pub fn state_window(&self) -> (usize, usize) {
        self.state_window
    }

    /// Push one PHV through every stage, in place and allocation-free.
    pub fn process_in_place(&mut self, phv: &mut Phv) {
        self.process_in_place_cov(phv, None);
    }

    /// Like [`FusedPipeline::process_in_place`], optionally recording a
    /// coverage edge per conditional-jump decision plus one edge per
    /// executed stage (so branch-free programs still produce a signal
    /// whose hit-count buckets track trace length). The instrumented tick
    /// loop is still allocation-free — recording is one masked index and
    /// a saturating increment per event.
    pub fn process_in_place_cov(&mut self, phv: &mut Phv, mut cov: Option<&mut CoverageMap>) {
        debug_assert_eq!(phv.len(), self.phv_len);
        if let Some(cov) = cov.as_deref_mut() {
            for stage in 0..self.stage_bounds.len() {
                cov.hit(edge_id(FUSED_SITE, 0x8000 + stage as u32, 0));
            }
        }
        load_phv(&mut self.frame, phv.containers());
        exec_range(&self.instrs, &mut self.frame, 0, self.instrs.len(), cov);
        phv.copy_from_slice(&self.frame[..self.phv_len]);
    }

    /// Execute a single stage in place (the tick-accurate simulator holds
    /// one in-flight PHV per stage).
    pub fn execute_stage_in_place(&mut self, stage: usize, phv: &mut Phv) {
        self.execute_stage_in_place_cov(stage, phv, None);
    }

    /// Like [`FusedPipeline::execute_stage_in_place`], with optional
    /// branch-coverage recording.
    pub fn execute_stage_in_place_cov(
        &mut self,
        stage: usize,
        phv: &mut Phv,
        mut cov: Option<&mut CoverageMap>,
    ) {
        if let Some(cov) = cov.as_deref_mut() {
            cov.hit(edge_id(FUSED_SITE, 0x8000 + stage as u32, 0));
        }
        let (start, end) = self.stage_bounds[stage];
        load_phv(&mut self.frame, phv.containers());
        exec_range(
            &self.instrs,
            &mut self.frame,
            start as usize,
            end as usize,
            cov,
        );
        phv.copy_from_slice(&self.frame[..self.phv_len]);
    }

    /// Snapshot of every stateful ALU's state: `snapshot[stage][slot]`.
    pub fn state_snapshot(&self) -> StateSnapshot {
        self.state_regs
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(base, len)| self.frame[base as usize..(base + len) as usize].to_vec())
                    .collect()
            })
            .collect()
    }

    /// Reset all stateful ALU state to zero.
    pub fn reset(&mut self) {
        let (base, len) = self.state_window;
        self.frame[base..base + len].fill(0);
    }

    /// Human-readable listing of the register program, one instruction per
    /// line with stage headers.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (stage, &(start, end)) in self.stage_bounds.iter().enumerate() {
            let _ = writeln!(out, "; stage {stage}");
            for pc in start as usize..end as usize {
                let line = match self.instrs[pc] {
                    FusedInstr::Const { dst, v } => format!("r{dst} = {v}"),
                    FusedInstr::Copy { dst, src } => format!("r{dst} = r{src}"),
                    FusedInstr::Bin { op, dst, l, r } => {
                        format!("r{dst} = r{l} {} r{r}", op.symbol())
                    }
                    FusedInstr::BinImm { op, dst, l, imm } => {
                        format!("r{dst} = r{l} {} {imm}", op.symbol())
                    }
                    FusedInstr::Un { op, dst, src } => {
                        format!("r{dst} = {}r{src}", op.symbol())
                    }
                    FusedInstr::JumpIfZero { src, target } => {
                        format!("jz r{src} -> {target}")
                    }
                    FusedInstr::CmpJumpIfZero { op, l, r, target } => {
                        format!("jz (r{l} {} r{r}) -> {target}", op.symbol())
                    }
                    FusedInstr::CmpImmJumpIfZero { op, l, imm, target } => {
                        format!("jz (r{l} {} {imm}) -> {target}", op.symbol())
                    }
                    FusedInstr::Jump { target } => format!("jmp -> {target}"),
                };
                let _ = writeln!(out, "{pc:>5}: {line}");
            }
        }
        out
    }
}

/// Resolve one stage's output-mux selections and derive which stateless
/// slots they make live. Shared by the in-process fuser and the version-4
/// source emitter so the interpreted register program and the emitted Rust
/// source can never diverge structurally.
pub(crate) fn stage_out_muxes(
    spec: &PipelineSpec,
    mc: &MachineCode,
    stage: usize,
) -> (Vec<usize>, Vec<bool>) {
    let cfg = &spec.config;
    let out_sel: Vec<usize> = (0..cfg.phv_length)
        .map(|c| mc.try_get(&names::output_mux(stage, c)).unwrap_or(0) as usize)
        .collect();
    let mut live_stateless = vec![false; cfg.width];
    for &sel in &out_sel {
        if (1..=cfg.width).contains(&sel) {
            live_stateless[sel - 1] = true;
        }
    }
    (out_sel, live_stateless)
}

/// Site tag distinguishing fused-program edges from the staged backends'
/// per-ALU edges. Public so static analyses can predict the exact edge ids
/// the coverage instrumentation will emit for fused-program branches.
pub const FUSED_SITE: u32 = 0x00F0_05ED;

/// Copy the PHV into the frame's container window. A plain indexed loop:
/// PHVs are a handful of containers, where the loop beats `memcpy`'s call
/// overhead (the frame is always at least `phv.len()` registers).
#[inline]
fn load_phv(frame: &mut [Value], phv: &[Value]) {
    for (dst, &v) in frame[..phv.len()].iter_mut().zip(phv) {
        *dst = v;
    }
}

/// Execute `instrs[start..end]` against the frame.
///
/// `cov`, when present, receives one edge per conditional-jump decision
/// (`(FUSED_SITE, pc, taken)`) — a masked index and a saturating
/// increment, preserving the loop's zero-allocation invariant.
///
/// SAFETY: all register and jump indices were proven in-bounds by
/// `FusedPipeline::check_invariants` at construction (registers < frame
/// length, targets ≤ instruction count), so the hot loop elides bounds
/// checks — this interpreter is the per-PHV inner loop of the whole
/// simulator. Debug builds keep the checks as assertions.
#[inline]
fn exec_range(
    instrs: &[FusedInstr],
    frame: &mut [Value],
    start: usize,
    end: usize,
    mut cov: Option<&mut CoverageMap>,
) {
    macro_rules! branch {
        ($pc:expr, $taken:expr) => {
            if let Some(cov) = cov.as_deref_mut() {
                cov.hit(edge_id(FUSED_SITE, $pc as u32, u32::from($taken)));
            }
        };
    }
    debug_assert!(end <= instrs.len());
    let mut pc = start;
    while pc < end {
        let instr = unsafe { *instrs.get_unchecked(pc) };
        macro_rules! reg {
            ($i:expr) => {{
                debug_assert!(($i as usize) < frame.len());
                unsafe { *frame.get_unchecked($i as usize) }
            }};
        }
        macro_rules! set_reg {
            ($i:expr, $v:expr) => {{
                // Evaluate the value first so nested `reg!` expansions stay
                // outside this macro's own unsafe block.
                let value = $v;
                debug_assert!(($i as usize) < frame.len());
                unsafe { *frame.get_unchecked_mut($i as usize) = value }
            }};
        }
        match instr {
            FusedInstr::Const { dst, v } => set_reg!(dst, v),
            FusedInstr::Copy { dst, src } => set_reg!(dst, reg!(src)),
            FusedInstr::Bin { op, dst, l, r } => {
                set_reg!(dst, apply_binop(op, reg!(l), reg!(r)));
            }
            FusedInstr::BinImm { op, dst, l, imm } => {
                set_reg!(dst, apply_binop(op, reg!(l), imm));
            }
            FusedInstr::Un { op, dst, src } => {
                set_reg!(dst, apply_unop(op, reg!(src)));
            }
            FusedInstr::JumpIfZero { src, target } => {
                let taken = !value::truthy(reg!(src));
                branch!(pc, taken);
                if taken {
                    pc = target as usize;
                    continue;
                }
            }
            FusedInstr::CmpJumpIfZero { op, l, r, target } => {
                let taken = !value::truthy(apply_binop(op, reg!(l), reg!(r)));
                branch!(pc, taken);
                if taken {
                    pc = target as usize;
                    continue;
                }
            }
            FusedInstr::CmpImmJumpIfZero { op, l, imm, target } => {
                let taken = !value::truthy(apply_binop(op, reg!(l), imm));
                branch!(pc, taken);
                if taken {
                    pc = target as usize;
                    continue;
                }
            }
            FusedInstr::Jump { target } => {
                pc = target as usize;
                continue;
            }
        }
        pc += 1;
    }
}

/// The equivalent binary operation with operands swapped, where one
/// exists (used to put a constant left operand into immediate position).
fn commute(op: BinOp) -> Option<BinOp> {
    match op {
        BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => Some(op),
        BinOp::Lt => Some(BinOp::Gt),
        BinOp::Gt => Some(BinOp::Lt),
        BinOp::Le => Some(BinOp::Ge),
        BinOp::Ge => Some(BinOp::Le),
        BinOp::Sub | BinOp::Div | BinOp::Mod => None,
    }
}

/// Per-ALU compilation context: where this ALU's operands, state, and
/// output live in the frame.
struct AluCtx<'a> {
    spec: &'a AluSpec,
    /// `operand_regs[k]` is the PHV container register feeding operand `k`
    /// (the input mux, fully resolved).
    operand_regs: Vec<Reg>,
    state_base: Reg,
    out_reg: Reg,
}

struct Fuser {
    instrs: Vec<FusedInstr>,
    temp_base: Reg,
    /// Next free temporary (LIFO discipline within one expression).
    temp_sp: Reg,
    /// High-water mark — becomes the frame length.
    temp_hwm: Reg,
    /// `Jump` instructions awaiting the current ALU's end index.
    ret_jumps: Vec<usize>,
}

impl Fuser {
    fn compile_alu(
        &mut self,
        base: &AluSpec,
        stage: usize,
        slot: usize,
        mc: &MachineCode,
        out_reg: Reg,
        state_base: Reg,
    ) {
        let kind = base.kind;
        // Specialize the shared AST against this position's machine code —
        // the same SCC propagation the version-2/3 backends run.
        let holes: HashMap<String, Value> = base
            .holes
            .iter()
            .map(|h| {
                let full = names::alu_hole(kind, stage, slot, &h.local);
                (h.local.clone(), mc.try_get(&full).unwrap_or(0))
            })
            .collect();
        let spec = specialize(base, &holes);
        let operand_regs: Vec<Reg> = (0..base.operand_count())
            .map(|k| {
                let full = names::operand_mux(kind, stage, slot, k);
                mc.try_get(&full).unwrap_or(0) as Reg
            })
            .collect();
        let ctx = AluCtx {
            spec: &spec,
            operand_regs,
            state_base,
            out_reg,
        };

        self.ret_jumps.clear();
        // The whole body is a single `return e;`: no default output needed.
        if let [Stmt::Return(e)] = ctx.spec.body.as_slice() {
            self.store(&ctx, out_reg, e);
            return;
        }
        // Default output: pre-update first state variable (Banzai's
        // convention) for stateful ALUs, zero for stateless.
        if kind == AluKind::Stateful && !base.state_vars.is_empty() {
            self.instrs.push(FusedInstr::Copy {
                dst: out_reg,
                src: state_base,
            });
        } else {
            self.instrs.push(FusedInstr::Const { dst: out_reg, v: 0 });
        }
        self.stmts(&ctx, &ctx.spec.body, true);
        let end = self.instrs.len() as u32;
        for at in self.ret_jumps.drain(..) {
            self.instrs[at] = FusedInstr::Jump { target: end };
        }
    }

    fn stmts(&mut self, ctx: &AluCtx<'_>, body: &[Stmt], tail: bool) {
        for (i, stmt) in body.iter().enumerate() {
            let last = i + 1 == body.len();
            match stmt {
                Stmt::Assign { target, value } => {
                    let idx = ctx
                        .spec
                        .state_var_index(target)
                        .expect("analysis guarantees assignment targets are state variables");
                    self.store(ctx, ctx.state_base + idx as Reg, value);
                }
                Stmt::If { arms, else_body } => {
                    let mut end_jumps = Vec::new();
                    let mut next_patch: Option<usize> = None;
                    for (cond, arm_body) in arms {
                        if let Some(at) = next_patch.take() {
                            let here = self.instrs.len() as u32;
                            self.patch_jz(at, here);
                        }
                        let save = self.temp_sp;
                        let c = self.expr(ctx, cond);
                        self.temp_sp = save;
                        next_patch = Some(self.emit_branch_on_zero(c));
                        self.stmts(ctx, arm_body, false);
                        end_jumps.push(self.instrs.len());
                        self.instrs.push(FusedInstr::Jump { target: 0 });
                    }
                    if let Some(at) = next_patch.take() {
                        let here = self.instrs.len() as u32;
                        self.patch_jz(at, here);
                    }
                    self.stmts(ctx, else_body, false);
                    let end = self.instrs.len() as u32;
                    for at in end_jumps {
                        self.instrs[at] = FusedInstr::Jump { target: end };
                    }
                }
                Stmt::Return(e) => {
                    self.store(ctx, ctx.out_reg, e);
                    // A return in tail position falls through to the ALU
                    // end; anywhere else it jumps there.
                    if !(tail && last) {
                        self.ret_jumps.push(self.instrs.len());
                        self.instrs.push(FusedInstr::Jump { target: 0 });
                    }
                }
            }
        }
    }

    /// Emit the branch guarding an `if` arm: when the condition value was
    /// just produced into a temporary by a (possibly immediate) binary
    /// operation, fuse producer and branch into one compare-and-branch.
    /// Returns the branch's instruction index for later target patching.
    fn emit_branch_on_zero(&mut self, c: Reg) -> usize {
        if c >= self.temp_base {
            match self.instrs.last() {
                Some(&FusedInstr::Bin { op, dst, l, r }) if dst == c => {
                    self.instrs.pop();
                    self.instrs.push(FusedInstr::CmpJumpIfZero {
                        op,
                        l,
                        r,
                        target: 0,
                    });
                    return self.instrs.len() - 1;
                }
                Some(&FusedInstr::BinImm { op, dst, l, imm }) if dst == c => {
                    self.instrs.pop();
                    self.instrs.push(FusedInstr::CmpImmJumpIfZero {
                        op,
                        l,
                        imm,
                        target: 0,
                    });
                    return self.instrs.len() - 1;
                }
                _ => {}
            }
        }
        self.instrs
            .push(FusedInstr::JumpIfZero { src: c, target: 0 });
        self.instrs.len() - 1
    }

    fn patch_jz(&mut self, at: usize, target: u32) {
        match self.instrs[at] {
            FusedInstr::JumpIfZero { src, .. } => {
                self.instrs[at] = FusedInstr::JumpIfZero { src, target };
            }
            FusedInstr::CmpJumpIfZero { op, l, r, .. } => {
                self.instrs[at] = FusedInstr::CmpJumpIfZero { op, l, r, target };
            }
            FusedInstr::CmpImmJumpIfZero { op, l, imm, .. } => {
                self.instrs[at] = FusedInstr::CmpImmJumpIfZero { op, l, imm, target };
            }
            _ => {}
        }
    }

    /// Compile `e` and leave its value in `dst`, retargeting the producing
    /// instruction when possible instead of emitting a copy.
    fn store(&mut self, ctx: &AluCtx<'_>, dst: Reg, e: &Expr) {
        let save = self.temp_sp;
        let r = self.expr(ctx, e);
        self.temp_sp = save;
        if r == dst {
            return;
        }
        // Expressions are branch-free, so when the result landed in a
        // temporary the last emitted instruction is its producer and can be
        // retargeted at the destination directly.
        if r >= self.temp_base {
            if let Some(last) = self.instrs.last_mut() {
                let d = match last {
                    FusedInstr::Const { dst, .. }
                    | FusedInstr::Copy { dst, .. }
                    | FusedInstr::Bin { dst, .. }
                    | FusedInstr::BinImm { dst, .. }
                    | FusedInstr::Un { dst, .. } => Some(dst),
                    _ => None,
                };
                if let Some(d) = d {
                    if *d == r {
                        *d = dst;
                        return;
                    }
                }
            }
        }
        self.instrs.push(FusedInstr::Copy { dst, src: r });
    }

    fn alloc_temp(&mut self) -> Reg {
        let r = self.temp_sp;
        self.temp_sp += 1;
        self.temp_hwm = self.temp_hwm.max(self.temp_sp);
        r
    }

    fn bin(&mut self, ctx: &AluCtx<'_>, op: BinOp, a: &Expr, b: &Expr) -> Reg {
        // Immediate forms: a constant operand folds into the instruction
        // instead of occupying a temporary (SCC specialization leaves
        // machine-code constants all over the bodies).
        if let Expr::Const(imm) = b {
            let save = self.temp_sp;
            let l = self.expr(ctx, a);
            self.temp_sp = save;
            let dst = self.alloc_temp();
            self.instrs.push(FusedInstr::BinImm {
                op,
                dst,
                l,
                imm: *imm,
            });
            return dst;
        }
        if let Expr::Const(imm) = a {
            if let Some(op) = commute(op) {
                let save = self.temp_sp;
                let l = self.expr(ctx, b);
                self.temp_sp = save;
                let dst = self.alloc_temp();
                self.instrs.push(FusedInstr::BinImm {
                    op,
                    dst,
                    l,
                    imm: *imm,
                });
                return dst;
            }
        }
        let save = self.temp_sp;
        let l = self.expr(ctx, a);
        let r = self.expr(ctx, b);
        self.temp_sp = save;
        let dst = self.alloc_temp();
        self.instrs.push(FusedInstr::Bin { op, dst, l, r });
        dst
    }

    /// Compile an expression, returning the register holding its value.
    /// Packet fields and state variables are returned as their home
    /// registers (no copy); everything else lands in a temporary.
    fn expr(&mut self, ctx: &AluCtx<'_>, e: &Expr) -> Reg {
        match e {
            Expr::Const(v) => {
                let dst = self.alloc_temp();
                self.instrs.push(FusedInstr::Const { dst, v: *v });
                dst
            }
            Expr::Var(name) => {
                if let Some(k) = ctx.spec.packet_field_index(name) {
                    ctx.operand_regs[k]
                } else if let Some(i) = ctx.spec.state_var_index(name) {
                    ctx.state_base + i as Reg
                } else {
                    // Unresolved hole variable compiled without
                    // specialization: defaults to zero (mirrors bytecode).
                    let dst = self.alloc_temp();
                    self.instrs.push(FusedInstr::Const { dst, v: 0 });
                    dst
                }
            }
            // Hole-bearing constructs appear only when compiling an
            // unspecialized spec; they take their default (zero) selections,
            // exactly as the stack-bytecode compiler does.
            Expr::CConst { .. } => {
                let dst = self.alloc_temp();
                self.instrs.push(FusedInstr::Const { dst, v: 0 });
                dst
            }
            Expr::Opt { arg, .. } => self.expr(ctx, arg),
            Expr::Mux2 { a, .. } => self.expr(ctx, a),
            Expr::Mux3 { a, .. } => self.expr(ctx, a),
            Expr::RelOp { a, b, .. } => self.bin(ctx, BinOp::Ge, a, b),
            Expr::ArithOp { a, b, .. } => self.bin(ctx, BinOp::Add, a, b),
            Expr::Binary { op, l, r } => self.bin(ctx, *op, l, r),
            Expr::Unary { op, x } => {
                let save = self.temp_sp;
                let src = self.expr(ctx, x);
                self.temp_sp = save;
                let dst = self.alloc_temp();
                self.instrs.push(FusedInstr::Un { op: *op, dst, src });
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{expected_machine_code, Pipeline};
    use crate::OptLevel;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::{PipelineConfig, ValueGen};

    fn spec_for(stateful: &str, stateless: &str, depth: usize, width: usize) -> PipelineSpec {
        PipelineSpec::new(
            PipelineConfig::new(depth, width),
            atom(stateful).unwrap(),
            atom(stateless).unwrap(),
        )
        .unwrap()
    }

    fn random_mc(spec: &PipelineSpec, gen: &mut ValueGen) -> MachineCode {
        MachineCode::from_pairs(
            expected_machine_code(spec)
                .into_iter()
                .map(|(name, domain)| {
                    let bound = domain.bound().min(1 << 8) as u32;
                    (name, gen.value_below(bound))
                }),
        )
    }

    #[test]
    fn fused_matches_staged_backends_on_random_machine_code() {
        let spec = spec_for("if_else_raw", "stateless_full", 3, 2);
        let mut gen = ValueGen::new(0xF05E, 32);
        for trial in 0..15 {
            let mc = random_mc(&spec, &mut gen);
            let mut fused = FusedPipeline::fuse(&spec, &mc);
            let mut staged = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();
            for i in 0..20 {
                let phv = Phv::new(gen.values(2));
                let mut via_fused = phv.clone();
                fused.process_in_place(&mut via_fused);
                let via_staged = staged.process(&phv);
                assert_eq!(via_fused, via_staged, "trial {trial} phv {i}");
            }
            assert_eq!(
                fused.state_snapshot(),
                staged.state_snapshot(),
                "trial {trial} state"
            );
        }
    }

    #[test]
    fn stage_by_stage_equals_whole_program() {
        let spec = spec_for("pred_raw", "stateless_arith", 4, 2);
        let mut gen = ValueGen::new(7, 32);
        let mc = random_mc(&spec, &mut gen);
        let mut whole = FusedPipeline::fuse(&spec, &mc);
        let mut staged = FusedPipeline::fuse(&spec, &mc);
        for _ in 0..25 {
            let phv = Phv::new(gen.values(2));
            let mut a = phv.clone();
            whole.process_in_place(&mut a);
            let mut b = phv;
            for stage in 0..4 {
                staged.execute_stage_in_place(stage, &mut b);
            }
            assert_eq!(a, b);
        }
        assert_eq!(whole.state_snapshot(), staged.state_snapshot());
    }

    #[test]
    fn dead_stateless_alus_are_eliminated() {
        let spec = spec_for("raw", "stateless_full", 2, 2);
        // All-zero machine code: every output mux passes through, so no
        // stateless ALU is live and no output copy is emitted.
        let zero = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        let pruned = FusedPipeline::fuse(&spec, &zero);
        // Route one container from a stateless ALU: that slot comes alive.
        let mut mc = zero.clone();
        mc.set("output_mux_phv_0_0", 1);
        let live = FusedPipeline::fuse(&spec, &mc);
        assert!(
            pruned.instrs().len() < live.instrs().len(),
            "dead stateless ALUs must not be compiled ({} vs {})",
            pruned.instrs().len(),
            live.instrs().len()
        );
    }

    #[test]
    fn pass_through_pipeline_is_nearly_empty_per_container() {
        let spec = spec_for("raw", "stateless_mux", 1, 1);
        let zero = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        let mut fused = FusedPipeline::fuse(&spec, &zero);
        // Only the (always-live) stateful ALU remains; no output copies.
        assert!(
            !fused
                .instrs()
                .iter()
                .any(|i| matches!(i, FusedInstr::Copy { dst, .. } if *dst == 0)),
            "pass-through containers must not be written:\n{}",
            fused.disassemble()
        );
        let mut phv = Phv::new(vec![42]);
        fused.process_in_place(&mut phv);
        assert_eq!(phv.containers(), &[42]);
    }

    #[test]
    fn reset_zeroes_only_state() {
        let spec = spec_for("raw", "stateless_mux", 2, 1);
        let zero = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        let mut fused = FusedPipeline::fuse(&spec, &zero);
        let mut phv = Phv::new(vec![9]);
        fused.process_in_place(&mut phv);
        assert_ne!(fused.state_snapshot()[0][0][0], 0, "raw accumulates");
        fused.reset();
        assert!(fused
            .state_snapshot()
            .iter()
            .flatten()
            .flatten()
            .all(|&v| v == 0));
    }

    #[test]
    fn constants_and_branches_compile_to_fused_forms() {
        // sampling-style body: `if (s == 9) { s = 0; ... } else { s = s+1; }`
        // must compile its comparison to one compare-immediate branch with
        // no standalone Const or comparison instruction.
        let spec = spec_for("if_else_raw", "stateless_mux", 1, 1);
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        // rel_op = 2 (==), compare state against C() = 9.
        mc.set("stateful_alu_0_0_rel_op_0", 2);
        mc.set("stateful_alu_0_0_mux3_0", 2);
        mc.set("stateful_alu_0_0_const_0", 9);
        let fused = FusedPipeline::fuse(&spec, &mc);
        assert!(
            fused
                .instrs()
                .iter()
                .any(|i| matches!(i, FusedInstr::CmpImmJumpIfZero { imm: 9, .. })),
            "comparison against a constant must fuse into the branch:\n{}",
            fused.disassemble()
        );
        assert!(
            !fused
                .instrs()
                .iter()
                .any(|i| matches!(i, FusedInstr::JumpIfZero { .. })),
            "no unfused branch should remain:\n{}",
            fused.disassemble()
        );
    }

    #[test]
    fn disassembly_lists_every_stage() {
        let spec = spec_for("raw", "stateless_mux", 2, 1);
        let zero = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        let fused = FusedPipeline::fuse(&spec, &zero);
        let listing = fused.disassemble();
        assert!(listing.contains("; stage 0"));
        assert!(listing.contains("; stage 1"));
    }
}
