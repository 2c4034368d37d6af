//! SIMD/SoA lane-batched execution of the fused register program
//! (ROADMAP item 2 — the order-of-magnitude step past [`crate::fused`]).
//!
//! The fused backend is scalar: one PHV at a time through a flat register
//! program. This module lowers that same program into **lane-parallel**
//! form: every register becomes a `[u32; LANES]` row of a
//! structure-of-arrays frame, arithmetic/bitwise ops map 1:1 across lanes,
//! and every conditional jump becomes a masked select over a per-lane
//! predicate, so 8–64 PHVs flow through one instruction stream with zero
//! per-PHV dispatch. The lane loops are written as fixed-trip-count
//! operations over local `[u32; L]` arrays precisely so the compiler's
//! auto-vectorizer turns them into SIMD (SSE2/AVX on x86, NEON on ARM) —
//! no intrinsics, no `unsafe`.
//!
//! # Predication instead of branching
//!
//! Fused jumps are **forward-only** ("jumps never cross an ALU body"), so
//! per-lane control flow reduces to one `resume_pc` per lane: a lane is
//! *active* at `pc` iff `resume_pc[lane] <= pc`. Executing a taken jump
//! just raises the lane's `resume_pc` to the target; every instruction in
//! between computes harmlessly (all ops are total — division by zero
//! yields zero) and its result is discarded by a bitwise mask:
//!
//! ```text
//! m = active ? 0xFFFF_FFFF : 0
//! dst[lane] = (value & m) | (dst[lane] & !m)
//! ```
//!
//! The same sentinel makes partial sweeps safe: lanes past `active`
//! start with `resume_pc = instruction count`, are never active, and
//! therefore never write a register or touch state.
//!
//! # Sweep mode
//!
//! [`LanePipeline::sweep`] gives every lane its own independent state
//! lanes inside the SoA frame and runs the *whole* program transposed.
//! That is the native shape of bounded verification (every input is an
//! independent execution from reset state): lane `i` after `k` steps holds
//! exactly what `k` scalar [`FusedPipeline::process_in_place`] calls on a
//! fresh pipeline would. Ops are exact u32 semantics (no floating point,
//! no reassociation), so the result is the same at every width in
//! [`LANE_WIDTHS`].

use druzhba_alu_dsl::{BinOp, UnOp};
use druzhba_core::value::Value;

use crate::fused::{FusedInstr, FusedPipeline, Reg};

/// Lane widths the const-generic dispatch supports. Width 1 is the
/// degenerate scalar case (useful for differential testing); 8–64 are the
/// SIMD sweet spots (one to eight 256-bit vectors per register row).
pub const LANE_WIDTHS: [usize; 5] = [1, 8, 16, 32, 64];

/// True if `width` is one of [`LANE_WIDTHS`].
pub fn supported_width(width: usize) -> bool {
    matches!(width, 1 | 8 | 16 | 32 | 64)
}

/// A fused register program lowered to lane-parallel form.
///
/// The lowering is width-independent: one `LanePipeline` serves every
/// width in [`LANE_WIDTHS`] (the width is a per-call parameter), so a
/// cached lowering can be shared by differential tests that sweep widths.
#[derive(Debug, Clone)]
pub struct LanePipeline {
    instrs: Vec<FusedInstr>,
    frame_len: usize,
    phv_len: usize,
    /// State window `[base, base+len)` in fused-frame register numbering;
    /// each lane holds its own copy of these registers in the SoA frame.
    state_window: (usize, usize),
    /// `state_regs[stage][slot]` = (first register, register count).
    state_regs: Vec<Vec<(Reg, Reg)>>,
}

impl LanePipeline {
    /// Lower a fused program. Returns `None` when the program violates
    /// the forward-jump invariant the predication scheme relies on (the
    /// fuser never emits such programs; callers report an error).
    pub fn lower(fused: &FusedPipeline) -> Option<Self> {
        let instrs = fused.instrs().to_vec();
        for (pc, instr) in instrs.iter().enumerate() {
            if let Some(t) = jump_target(instr) {
                if t as usize <= pc {
                    return None;
                }
            }
        }

        Some(LanePipeline {
            instrs,
            frame_len: fused.frame_len(),
            phv_len: fused.phv_len(),
            state_window: fused.state_window(),
            state_regs: fused.state_regs().to_vec(),
        })
    }

    /// PHV length the program was compiled for.
    pub fn phv_len(&self) -> usize {
        self.phv_len
    }

    /// Sweep mode: `width` independent executions in lockstep, each lane
    /// with its own state. Returns `None` if `width` is not in
    /// [`LANE_WIDTHS`].
    pub fn sweep(&self, width: usize) -> Option<LaneSweep<'_>> {
        if !supported_width(width) {
            return None;
        }
        Some(LaneSweep {
            lp: self,
            width,
            frame: vec![0; self.frame_len * width],
        })
    }
}

/// Independent-lane execution over a [`LanePipeline`]: every lane is its
/// own simulation (own PHV, own stateful-ALU state), and one
/// [`LaneSweep::step`] pushes one packet through all active lanes with the
/// whole program running transposed — the shape bounded verification and
/// benchmark sweeps want.
///
/// Protocol per batch of executions: [`LaneSweep::reset`] (zero all state
/// lanes), then per packet [`LaneSweep::clear_phv`] +
/// [`LaneSweep::set_input`] + [`LaneSweep::step`] + [`LaneSweep::output`].
/// State lanes persist across steps, so multi-packet executions work
/// exactly like repeated scalar [`FusedPipeline::process_in_place`] calls.
#[derive(Debug)]
pub struct LaneSweep<'a> {
    lp: &'a LanePipeline,
    width: usize,
    frame: Vec<Value>,
}

impl LaneSweep<'_> {
    /// The lane width this sweep was built with.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Zero every lane's stateful-ALU state (the per-execution reset).
    pub fn reset(&mut self) {
        let (sbase, slen) = self.lp.state_window;
        let w = self.width;
        self.frame[sbase * w..(sbase + slen) * w].fill(0);
    }

    /// Zero every lane's PHV registers (fresh packet).
    pub fn clear_phv(&mut self) {
        let w = self.width;
        self.frame[..self.lp.phv_len * w].fill(0);
    }

    /// Set one input container for one lane.
    pub fn set_input(&mut self, lane: usize, container: usize, v: Value) {
        debug_assert!(lane < self.width && container < self.lp.phv_len);
        self.frame[container * self.width + lane] = v;
    }

    /// Read one output container for one lane (valid after
    /// [`LaneSweep::step`]).
    pub fn output(&self, lane: usize, container: usize) -> Value {
        debug_assert!(lane < self.width && container < self.lp.phv_len);
        self.frame[container * self.width + lane]
    }

    /// Read one state variable for one lane, or `None` if the (stage,
    /// slot, var) coordinate does not exist.
    pub fn state_value(&self, lane: usize, stage: usize, slot: usize, var: usize) -> Option<Value> {
        let &(base, count) = self.lp.state_regs.get(stage)?.get(slot)?;
        if var >= count as usize || lane >= self.width {
            return None;
        }
        Some(self.frame[(base as usize + var) * self.width + lane])
    }

    /// Push one packet through lanes `0..active`. Lanes `active..width`
    /// are masked out for the whole step: their PHV registers and state
    /// lanes are left untouched.
    pub fn step(&mut self, active: usize) {
        debug_assert!(active <= self.width);
        match self.width {
            1 => self.step_l::<1>(active),
            8 => self.step_l::<8>(active),
            16 => self.step_l::<16>(active),
            32 => self.step_l::<32>(active),
            64 => self.step_l::<64>(active),
            _ => unreachable!(),
        }
    }

    fn step_l<const L: usize>(&mut self, active: usize) {
        let end = self.lp.instrs.len();
        let mut resume = [end as u32; L];
        for r in resume.iter_mut().take(active) {
            *r = 0;
        }
        exec_transposed::<L>(&self.lp.instrs, &mut self.frame, &mut resume);
    }
}

fn jump_target(instr: &FusedInstr) -> Option<u32> {
    match *instr {
        FusedInstr::JumpIfZero { target, .. }
        | FusedInstr::CmpJumpIfZero { target, .. }
        | FusedInstr::CmpImmJumpIfZero { target, .. }
        | FusedInstr::Jump { target } => Some(target),
        _ => None,
    }
}

/// Dispatch a [`BinOp`] to a lane macro, appending the op's scalar
/// semantics as a `|a, b| expr` closure-shaped token tree. Each arm
/// mirrors [`crate::eval::apply_binop`] exactly (wrapping arithmetic,
/// total division, 0/1 booleans) so lane results are bit-identical to
/// scalar.
macro_rules! binop_dispatch {
    ($op:expr, $mac:ident ! ($($pre:tt)*)) => {
        match $op {
            BinOp::Add => $mac!($($pre)* |a, b| a.wrapping_add(b)),
            BinOp::Sub => $mac!($($pre)* |a, b| a.wrapping_sub(b)),
            BinOp::Mul => $mac!($($pre)* |a, b| a.wrapping_mul(b)),
            BinOp::Div => $mac!($($pre)* |a, b| if b == 0 { 0 } else { a / b }),
            BinOp::Mod => $mac!($($pre)* |a, b| if b == 0 { 0 } else { a % b }),
            BinOp::Eq => $mac!($($pre)* |a, b| u32::from(a == b)),
            BinOp::Ne => $mac!($($pre)* |a, b| u32::from(a != b)),
            BinOp::Lt => $mac!($($pre)* |a, b| u32::from(a < b)),
            BinOp::Gt => $mac!($($pre)* |a, b| u32::from(a > b)),
            BinOp::Le => $mac!($($pre)* |a, b| u32::from(a <= b)),
            BinOp::Ge => $mac!($($pre)* |a, b| u32::from(a >= b)),
            BinOp::And => $mac!($($pre)* |a, b| u32::from(a != 0 && b != 0)),
            BinOp::Or => $mac!($($pre)* |a, b| u32::from(a != 0 || b != 0)),
        }
    };
}

/// Execute `instrs` instruction-major across all `L` lanes.
///
/// Every lane op is a fixed-trip loop over local `[u32; L]` arrays — the
/// shape LLVM reliably auto-vectorizes. Inactive lanes (lanes masked out
/// of the step, lanes that took a forward jump past `pc`) compute
/// alongside active ones but their stores are masked to a no-op and their
/// jumps ignored.
fn exec_transposed<const L: usize>(
    instrs: &[FusedInstr],
    frame: &mut [Value],
    resume: &mut [u32; L],
) {
    for (pc, instr) in instrs.iter().enumerate() {
        let pcw = pc as u32;
        let mut mask = [0u32; L];
        let mut any = false;
        for (i, m) in mask.iter_mut().enumerate() {
            let active = resume[i] <= pcw;
            any |= active;
            *m = (active as u32).wrapping_neg();
        }
        if !any {
            continue;
        }

        // Hygiene requires locals (`frame`, `mask`, `resume`, `pcw`) to be
        // bound before these macros are defined.
        macro_rules! read_lanes {
            ($r:expr) => {{
                let base = $r as usize * L;
                let mut v = [0u32; L];
                v.copy_from_slice(&frame[base..base + L]);
                v
            }};
        }
        macro_rules! lane_store {
            ($dst:expr, $av:expr, $bv:expr, |$a:ident, $b:ident| $res:expr) => {{
                let av = $av;
                let bv = $bv;
                let mut out = [0u32; L];
                for i in 0..L {
                    let $a = av[i];
                    let $b = bv[i];
                    out[i] = $res;
                }
                let base = $dst as usize * L;
                let d = &mut frame[base..base + L];
                for i in 0..L {
                    d[i] = (out[i] & mask[i]) | (d[i] & !mask[i]);
                }
            }};
        }
        macro_rules! lane_cmp_jump {
            ($av:expr, $bv:expr, $target:expr, |$a:ident, $b:ident| $res:expr) => {{
                let av = $av;
                let bv = $bv;
                let target: u32 = $target;
                for i in 0..L {
                    let $a = av[i];
                    let $b = bv[i];
                    let v: u32 = $res;
                    let taken = (resume[i] <= pcw) & (v == 0);
                    resume[i] = if taken { target } else { resume[i] };
                }
            }};
        }

        match *instr {
            FusedInstr::Const { dst, v } => {
                lane_store!(dst, [v; L], [0u32; L], |a, _b| a);
            }
            FusedInstr::Copy { dst, src } => {
                let av = read_lanes!(src);
                lane_store!(dst, av, [0u32; L], |a, _b| a);
            }
            FusedInstr::Bin { op, dst, l, r } => {
                let av = read_lanes!(l);
                let bv = read_lanes!(r);
                binop_dispatch!(op, lane_store!(dst, av, bv,));
            }
            FusedInstr::BinImm { op, dst, l, imm } => {
                let av = read_lanes!(l);
                binop_dispatch!(op, lane_store!(dst, av, [imm; L],));
            }
            FusedInstr::Un { op, dst, src } => {
                let av = read_lanes!(src);
                match op {
                    UnOp::Neg => lane_store!(dst, av, [0u32; L], |a, _b| a.wrapping_neg()),
                    UnOp::Not => lane_store!(dst, av, [0u32; L], |a, _b| u32::from(a == 0)),
                }
            }
            FusedInstr::JumpIfZero { src, target } => {
                let av = read_lanes!(src);
                lane_cmp_jump!(av, [0u32; L], target, |a, _b| a);
            }
            FusedInstr::CmpJumpIfZero { op, l, r, target } => {
                let av = read_lanes!(l);
                let bv = read_lanes!(r);
                binop_dispatch!(op, lane_cmp_jump!(av, bv, target,));
            }
            FusedInstr::CmpImmJumpIfZero { op, l, imm, target } => {
                let av = read_lanes!(l);
                binop_dispatch!(op, lane_cmp_jump!(av, [imm; L], target,));
            }
            FusedInstr::Jump { target } => {
                for r in resume.iter_mut() {
                    *r = if *r <= pcw { target } else { *r };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{expected_machine_code, PipelineSpec};
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::{MachineCode, Phv, PipelineConfig, ValueGen};

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

    fn batch(gen: &mut ValueGen, phv_len: usize, count: usize) -> Vec<Phv> {
        (0..count).map(|_| Phv::new(gen.values(phv_len))).collect()
    }

    #[test]
    fn sweep_lanes_match_independent_scalar_executions() {
        let spec = spec_for("if_else_raw", "stateless_full", 2, 2);
        let mut gen = ValueGen::new(0x5EED, 32);
        let phv_len = spec.config.phv_length;
        for trial in 0..6 {
            let mc = random_mc(&spec, &mut gen);
            let fused = FusedPipeline::fuse(&spec, &mc);
            let lp = LanePipeline::lower(&fused).unwrap();
            let mut sweep = lp.sweep(8).unwrap();
            // Three packets per execution, eight independent executions.
            let packets: Vec<Vec<Phv>> = (0..3).map(|_| batch(&mut gen, phv_len, 8)).collect();
            sweep.reset();
            let mut lane_out = vec![vec![Phv::zeroed(phv_len); 8]; 3];
            for (t, round) in packets.iter().enumerate() {
                sweep.clear_phv();
                for (lane, phv) in round.iter().enumerate() {
                    for c in 0..phv_len {
                        sweep.set_input(lane, c, phv.get(c));
                    }
                }
                sweep.step(8);
                for (lane, out) in lane_out[t].iter_mut().enumerate() {
                    for c in 0..phv_len {
                        out.set(c, sweep.output(lane, c));
                    }
                }
            }
            for lane in 0..8 {
                let mut scalar = FusedPipeline::fuse(&spec, &mc);
                for (t, round) in packets.iter().enumerate() {
                    let mut phv = round[lane].clone();
                    scalar.process_in_place(&mut phv);
                    assert_eq!(phv, lane_out[t][lane], "trial {trial} lane {lane} tick {t}");
                }
                let snap = scalar.state_snapshot();
                for (stage, row) in snap.iter().enumerate() {
                    for (slot, cells) in row.iter().enumerate() {
                        for (var, &v) in cells.iter().enumerate() {
                            assert_eq!(
                                sweep.state_value(lane, stage, slot, var),
                                Some(v),
                                "trial {trial} lane {lane} state ({stage},{slot},{var})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_inactive_lanes_are_fully_preserved() {
        let spec = spec_for("pred_raw", "stateless_full", 2, 1);
        let mut gen = ValueGen::new(0x1D1E, 32);
        let mc = random_mc(&spec, &mut gen);
        let fused = FusedPipeline::fuse(&spec, &mc);
        let lp = LanePipeline::lower(&fused).unwrap();
        let phv_len = spec.config.phv_length;
        let mut sweep = lp.sweep(8).unwrap();
        sweep.reset();
        sweep.clear_phv();
        for lane in 0..8 {
            for c in 0..phv_len {
                sweep.set_input(lane, c, 1000 + lane as Value);
            }
        }
        sweep.step(3);
        for lane in 3..8 {
            for c in 0..phv_len {
                assert_eq!(
                    sweep.output(lane, c),
                    1000 + lane as Value,
                    "inactive lane {lane} container {c} was clobbered"
                );
            }
            assert_eq!(sweep.state_value(lane, 0, 0, 0), Some(0));
        }
        // Active lanes match scalar.
        for lane in 0..3 {
            let mut scalar = FusedPipeline::fuse(&spec, &mc);
            let mut phv = Phv::new(vec![1000 + lane as Value; phv_len]);
            scalar.process_in_place(&mut phv);
            for c in 0..phv_len {
                assert_eq!(sweep.output(lane, c), phv.get(c), "lane {lane} c {c}");
            }
        }
    }

    #[test]
    fn unsupported_widths_are_rejected() {
        assert!(supported_width(1) && supported_width(64));
        assert!(!supported_width(0) && !supported_width(7) && !supported_width(128));
        let spec = spec_for("raw", "stateless_full", 1, 1);
        let mc = random_mc(&spec, &mut ValueGen::new(1, 32));
        let fused = FusedPipeline::fuse(&spec, &mc);
        let lp = LanePipeline::lower(&fused).unwrap();
        assert!(lp.sweep(7).is_none());
        assert!(lp.sweep(0).is_none());
    }
}
