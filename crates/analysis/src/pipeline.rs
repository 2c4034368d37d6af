//! Whole-pipeline abstract interpretation, and the three passes built on
//! it: static translation validation, lint extraction, and the generator
//! screen.
//!
//! The analyzer never re-derives wiring from machine-code names: it walks
//! the very [`Pipeline`] the simulator generates (units, operand
//! selections, output muxes, fused program), so the abstract and concrete
//! executions cannot drift structurally. Cross-packet state is resolved by
//! a join/widen fixpoint: starting from all-zero state (the hardware
//! reset), abstract packets are pushed through until the state
//! abstraction stops growing — the result over-approximates the pipeline
//! after *any* number of packets drawn from the abstract input.

use std::collections::HashMap;

use druzhba_core::{MachineCode, Result};
use druzhba_dgen::fused::FUSED_SITE;
use druzhba_dgen::pipeline::{validate_machine_code, AluUnit, PipelineSpec};
use druzhba_dgen::{OptLevel, Pipeline};

use crate::alu::{abs_eval_alu, widen_states, LintEvent};
use crate::bytecode::abs_eval_bytecode;
use crate::domain::AbsVal;
use crate::fused::abs_eval_fused;

/// Maximum fixpoint iterations before declaring non-convergence (the
/// widening operator guarantees convergence far sooner; this is a belt).
const MAX_ITERS: usize = 64;
/// Iterations of plain join before widening kicks in.
const JOIN_ITERS: usize = 8;

/// One located lint from a pipeline pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRecord {
    pub stage: u32,
    pub pc: u32,
    pub code: &'static str,
    pub message: String,
}

/// A coverage edge key `(site, event, outcome)` as fed to
/// `druzhba_core::coverage::edge_id`.
pub type EdgeKey = (u32, u32, u32);

/// The abstract result of running a pipeline to its cross-packet state
/// fixpoint from one abstract input PHV.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAbs {
    pub level: OptLevel,
    /// Abstract output PHV (per container) at the state fixpoint.
    pub phv: Vec<AbsVal>,
    /// Abstract stateful-ALU state: `state[stage][slot][var]`.
    pub state: Vec<Vec<Vec<AbsVal>>>,
    /// Conditional-branch coverage edges proven unreachable. Only levels
    /// with statically-keyed branch edges report here (`SccInline`,
    /// `Fused`); the AST-walking levels key edges by execution-order
    /// event ordinals, which have no static identity.
    pub dead_edges: Vec<EdgeKey>,
    /// Conditional-branch edges the analysis could not rule out.
    pub live_edges: Vec<EdgeKey>,
    pub lints: Vec<LintRecord>,
}

/// Abstractly execute `(spec, mc)` at `level` from the abstract input
/// `input` (one [`AbsVal`] per PHV container).
pub fn analyze_pipeline(
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
    input: &[AbsVal],
) -> Result<PipelineAbs> {
    let pipeline = Pipeline::generate(spec, mc, level)?;
    let cfg = *pipeline.config();
    debug_assert_eq!(input.len(), cfg.phv_length);
    let n_state = spec.stateful_alu.state_vars.len();
    let zero_state = vec![vec![vec![AbsVal::constant(0); n_state]; cfg.width]; cfg.depth];

    let mut state = zero_state;
    let mut iters = 0;
    loop {
        let step = run_once(&pipeline, spec, input, &state, false);
        let merged: Vec<Vec<Vec<AbsVal>>> = state
            .iter()
            .zip(&step.state)
            .map(|(srow, nrow)| {
                srow.iter()
                    .zip(nrow)
                    .map(|(s, n)| {
                        let joined = crate::alu::join_states(s, n);
                        if iters < JOIN_ITERS {
                            joined
                        } else {
                            widen_states(s, &joined)
                        }
                    })
                    .collect()
            })
            .collect();
        if merged == state || iters >= MAX_ITERS {
            state = merged;
            break;
        }
        state = merged;
        iters += 1;
    }

    // Reporting run at the fixpoint.
    let step = run_once(&pipeline, spec, input, &state, true);
    Ok(PipelineAbs {
        level,
        phv: step.phv,
        state,
        dead_edges: step.dead_edges,
        live_edges: step.live_edges,
        lints: step.lints,
    })
}

/// One abstract packet through the pipeline from the given abstract state.
struct StepResult {
    phv: Vec<AbsVal>,
    state: Vec<Vec<Vec<AbsVal>>>,
    dead_edges: Vec<EdgeKey>,
    live_edges: Vec<EdgeKey>,
    lints: Vec<LintRecord>,
}

fn run_once(
    pipeline: &Pipeline,
    spec: &PipelineSpec,
    input: &[AbsVal],
    state_in: &[Vec<Vec<AbsVal>>],
    report: bool,
) -> StepResult {
    match pipeline.fused_program() {
        Some(fp) => run_once_fused(fp, input, state_in),
        None => run_once_staged(pipeline, spec, input, state_in, report),
    }
}

fn run_once_staged(
    pipeline: &Pipeline,
    _spec: &PipelineSpec,
    input: &[AbsVal],
    state_in: &[Vec<Vec<AbsVal>>],
    report: bool,
) -> StepResult {
    let cfg = pipeline.config();
    let width = cfg.width;
    let mut phv = input.to_vec();
    let mut state_out = state_in.to_vec();
    let mut dead_edges = Vec::new();
    let mut live_edges = Vec::new();
    let mut lints = Vec::new();

    for (si, stage) in pipeline.stages().iter().enumerate() {
        // Which stateless slots feed an output mux this stage (lint gate:
        // unselected stateless ALUs are configuration filler).
        let selected: Vec<bool> = (0..width)
            .map(|slot| (0..cfg.phv_length).any(|c| stage.output_selection(c) == 1 + slot))
            .collect();

        let mut stateless_out = Vec::with_capacity(width);
        for (slot, unit) in stage.stateless_alus().iter().enumerate() {
            let mut st: Vec<AbsVal> = Vec::new();
            let (out, events) = abs_execute_unit(
                unit,
                &phv,
                &mut st,
                report && selected[slot],
                &mut dead_edges,
                &mut live_edges,
            );
            stateless_out.push(out);
            push_lints(&mut lints, si, slot, false, events);
        }

        let mut stateful_out = Vec::with_capacity(width);
        for (slot, unit) in stage.stateful_alus().iter().enumerate() {
            let mut st = state_in[si][slot].clone();
            let (out, events) = abs_execute_unit(
                unit,
                &phv,
                &mut st,
                report,
                &mut dead_edges,
                &mut live_edges,
            );
            stateful_out.push(out);
            state_out[si][slot] = st;
            push_lints(&mut lints, si, slot, true, events);
        }

        // Output multiplexers: 0 = pass-through, 1..=w stateless,
        // w+1..=2w stateful.
        let mut next = phv.clone();
        for (c, slot) in next.iter_mut().enumerate() {
            let sel = stage.output_selection(c);
            if (1..=width).contains(&sel) {
                *slot = stateless_out[sel - 1];
            } else if sel > width {
                *slot = stateful_out[sel - 1 - width];
            }
        }
        phv = next;
    }

    StepResult {
        phv,
        state: state_out,
        dead_edges,
        live_edges,
        lints,
    }
}

/// Abstractly execute one ALU unit; returns its output abstraction and
/// (when `lint` is set) the body's lint events. State is updated in
/// place. Branch-edge bookkeeping only applies to the bytecode backend.
fn abs_execute_unit(
    unit: &AluUnit,
    phv: &[AbsVal],
    state: &mut Vec<AbsVal>,
    lint: bool,
    dead_edges: &mut Vec<EdgeKey>,
    live_edges: &mut Vec<EdgeKey>,
) -> (AbsVal, Vec<LintEvent>) {
    let spec = unit.spec();
    let operands: Vec<AbsVal> = (0..spec.operand_count())
        .map(|k| {
            phv.get(unit.operand_selection(k))
                .copied()
                .unwrap_or(AbsVal::constant(0))
        })
        .collect();
    let mut events = Vec::new();
    let sink = lint.then_some(&mut events);

    if let Some(holes) = unit.hole_env() {
        let out = abs_eval_alu(spec, holes, &operands, state, sink);
        *state = out.state;
        return (out.output, events);
    }
    if let Some(sspec) = unit.specialized_spec() {
        let out = abs_eval_alu(sspec, &HashMap::new(), &operands, state, sink);
        *state = out.state;
        return (out.output, events);
    }
    if let Some(prog) = unit.bytecode() {
        if let Some(abs) = abs_eval_bytecode(prog, &operands, state) {
            let site = unit.site();
            for (pc, taken) in abs.dead_branches {
                dead_edges.push((site, pc, u32::from(taken)));
            }
            for (pc, taken) in abs.live_branches {
                live_edges.push((site, pc, u32::from(taken)));
            }
            *state = abs.state;
            return (abs.output, events);
        }
    }
    // Unknown backend or structural surprise: stay sound.
    for v in state.iter_mut() {
        *v = AbsVal::top();
    }
    (AbsVal::top(), events)
}

fn push_lints(
    lints: &mut Vec<LintRecord>,
    stage: usize,
    slot: usize,
    stateful: bool,
    events: Vec<LintEvent>,
) {
    for e in events {
        let kind = if stateful { "stateful" } else { "stateless" };
        lints.push(LintRecord {
            stage: stage as u32,
            pc: (u32::from(stateful) << 15) | ((slot as u32) << 8) | (e.pc & 0xFF),
            code: e.code,
            message: format!("{kind} ALU slot {slot}: {}", e.message),
        });
    }
}

fn run_once_fused(
    fp: &druzhba_dgen::FusedPipeline,
    input: &[AbsVal],
    state_in: &[Vec<Vec<AbsVal>>],
) -> StepResult {
    let phv_len = fp.phv_len();
    let mut frame = vec![AbsVal::top(); fp.frame_len()];
    frame[..phv_len].copy_from_slice(input);
    for (si, row) in fp.state_regs().iter().enumerate() {
        for (slot, &(first, count)) in row.iter().enumerate() {
            for v in 0..count as usize {
                frame[first as usize + v] = state_in[si][slot][v];
            }
        }
    }
    let abs = abs_eval_fused(fp, &frame);
    let (frame, dead, live) = match abs {
        Some(a) => (a.frame, a.dead_branches, a.live_branches),
        None => (vec![AbsVal::top(); fp.frame_len()], Vec::new(), Vec::new()),
    };
    let mut state_out = state_in.to_vec();
    for (si, row) in fp.state_regs().iter().enumerate() {
        for (slot, &(first, count)) in row.iter().enumerate() {
            for v in 0..count as usize {
                state_out[si][slot][v] = frame[first as usize + v];
            }
        }
    }
    StepResult {
        phv: frame[..phv_len].to_vec(),
        state: state_out,
        dead_edges: dead
            .into_iter()
            .map(|(pc, taken)| (FUSED_SITE, pc, u32::from(taken)))
            .collect(),
        live_edges: live
            .into_iter()
            .map(|(pc, taken)| (FUSED_SITE, pc, u32::from(taken)))
            .collect(),
        lints: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Translation validation.
// ---------------------------------------------------------------------

/// Where a translation-validation mismatch was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvSite {
    /// An output PHV container.
    Container(usize),
    /// A stateful-ALU state variable.
    State {
        stage: usize,
        slot: usize,
        var: usize,
    },
}

/// Two compiled forms of the same program produced certainly-disjoint
/// abstractions of the same output — a compiler bug, found statically.
#[derive(Debug, Clone, PartialEq)]
pub struct TvMismatch {
    /// The compiled level that disagrees with the source semantics.
    pub level: OptLevel,
    pub site: TvSite,
    pub source: AbsVal,
    pub compiled: AbsVal,
}

/// Statically validate that every compiled form of `(spec, mc)` agrees
/// with the source (version-1) semantics on the abstract input: any
/// output container or state cell whose abstractions are disjoint is
/// reported. An empty result does not prove equivalence — it proves the
/// over-approximations overlap — but a non-empty result proves a bug.
pub fn translation_validate(
    spec: &PipelineSpec,
    mc: &MachineCode,
    input: &[AbsVal],
) -> Result<Vec<TvMismatch>> {
    let reference = analyze_pipeline(spec, mc, OptLevel::Unoptimized, input)?;
    let mut out = Vec::new();
    for level in [OptLevel::Scc, OptLevel::SccInline, OptLevel::Fused] {
        let abs = analyze_pipeline(spec, mc, level, input)?;
        for (c, (&s, &a)) in reference.phv.iter().zip(&abs.phv).enumerate() {
            if s.is_disjoint(a) {
                out.push(TvMismatch {
                    level,
                    site: TvSite::Container(c),
                    source: s,
                    compiled: a,
                });
            }
        }
        for (stage, (srow, arow)) in reference.state.iter().zip(&abs.state).enumerate() {
            for (slot, (svars, avars)) in srow.iter().zip(arow).enumerate() {
                for (var, (&s, &a)) in svars.iter().zip(avars).enumerate() {
                    if s.is_disjoint(a) {
                        out.push(TvMismatch {
                            level,
                            site: TvSite::State { stage, slot, var },
                            source: s,
                            compiled: a,
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Generator screen.
// ---------------------------------------------------------------------

/// Verdict of the generator validity screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screened {
    /// Observable outputs are constant or pure pass-through: not worth
    /// fuzz budget.
    Trivial,
    /// The program carries arithmetic hazards (certain overflow,
    /// division by a constant zero) — worth flagging before fuzzing.
    Hazardous,
    /// Everything else.
    Interesting,
}

impl Screened {
    pub fn label(self) -> &'static str {
        match self {
            Screened::Trivial => "trivial",
            Screened::Hazardous => "hazardous",
            Screened::Interesting => "interesting",
        }
    }
}

/// Lint codes that make a program [`Screened::Hazardous`].
const HAZARD_CODES: &[&str] = &["overflow", "div-by-zero"];

/// Screen a configured program for fuzz-worthiness from top abstract
/// inputs. `observable` limits the output containers considered (all
/// when `None`).
pub fn screen(
    spec: &PipelineSpec,
    mc: &MachineCode,
    observable: Option<&[usize]>,
) -> Result<Screened> {
    let input = vec![AbsVal::top(); spec.config.phv_length];
    let abs = analyze_pipeline(spec, mc, OptLevel::Unoptimized, &input)?;
    let all: Vec<usize> = (0..spec.config.phv_length).collect();
    let obs = observable.unwrap_or(&all);

    // Constant-output: with top inputs, a constant abstraction means the
    // concrete output cannot depend on anything.
    let constant = obs.iter().all(|&c| abs.phv[c].as_const().is_some());
    // All-dead: no output mux ever drives an observable container.
    let passthrough = obs.iter().all(|&c| {
        (0..spec.config.depth).all(|stage| {
            mc.try_get(&druzhba_core::names::output_mux(stage, c))
                .unwrap_or(0)
                == 0
        })
    });
    // State still counts as observable behavior (the differential oracles
    // compare state cells), so a program is only trivial if its state
    // abstraction is constant at the fixpoint too.
    let state_const = abs
        .state
        .iter()
        .flatten()
        .flatten()
        .all(|v| v.as_const().is_some());
    if state_const && (constant || passthrough) {
        return Ok(Screened::Trivial);
    }
    if abs.lints.iter().any(|l| HAZARD_CODES.contains(&l.code)) {
        return Ok(Screened::Hazardous);
    }
    Ok(Screened::Interesting)
}

// ---------------------------------------------------------------------
// Static fault flagging.
// ---------------------------------------------------------------------

/// How a machine-code mutant was flagged without executing a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticFlag {
    /// Rejected by machine-code validation (missing pair, out-of-domain
    /// value) — the pipeline cannot even be generated.
    Structural,
    /// Validation passes, but the abstract fingerprint (output PHV and
    /// state abstractions over a set of probe inputs) differs from the
    /// baseline's.
    Abstract,
    /// The abstract fingerprints agree, but the canonical symbolic
    /// transfer functions differ (see [`crate::symbolic`]): some
    /// observable's normal form changed even though its value *range*
    /// did not.
    Symbolic,
    /// Statically indistinguishable from the baseline.
    Unflagged,
}

impl StaticFlag {
    pub fn label(self) -> &'static str {
        match self {
            StaticFlag::Structural => "structural",
            StaticFlag::Abstract => "abstract",
            StaticFlag::Symbolic => "symbolic",
            StaticFlag::Unflagged => "none",
        }
    }

    /// Inverse of [`StaticFlag::label`], for checkpoint decoding.
    pub fn from_label(label: &str) -> Option<StaticFlag> {
        [
            StaticFlag::Structural,
            StaticFlag::Abstract,
            StaticFlag::Symbolic,
            StaticFlag::Unflagged,
        ]
        .into_iter()
        .find(|f| f.label() == label)
    }
}

/// Probe inputs used for abstract fingerprinting: top, plus two distinct
/// constant packets (constants make most of the dataflow concrete, so a
/// mutated hole value almost always perturbs the fingerprint).
fn probes(phv_length: usize) -> Vec<Vec<AbsVal>> {
    let const_probe = |f: &dyn Fn(u32) -> u32| -> Vec<AbsVal> {
        (0..phv_length as u32)
            .map(|i| AbsVal::constant(f(i)))
            .collect()
    };
    vec![
        vec![AbsVal::top(); phv_length],
        const_probe(&|i| (0x0101 * (i + 1)) & 0x3FF),
        const_probe(&|i| (7 * i + 3) & 0x3FF),
    ]
}

/// Statically compare a machine-code mutant against its baseline.
pub fn flag_mutant(
    spec: &PipelineSpec,
    baseline: &MachineCode,
    mutant: &MachineCode,
) -> StaticFlag {
    if !validate_machine_code(spec, mutant).is_empty() {
        return StaticFlag::Structural;
    }
    for probe in probes(spec.config.phv_length) {
        let good = analyze_pipeline(spec, baseline, OptLevel::Unoptimized, &probe);
        let bad = analyze_pipeline(spec, mutant, OptLevel::Unoptimized, &probe);
        match (good, bad) {
            (Ok(g), Ok(b)) => {
                if g.phv != b.phv || g.state != b.state {
                    return StaticFlag::Abstract;
                }
            }
            (Err(_), _) | (_, Err(_)) => return StaticFlag::Structural,
        }
    }
    // Abstract ranges agree everywhere: compare canonical symbolic
    // transfer functions. An executor bail (`None`) leaves the mutant
    // unflagged — never flag without a definite difference.
    if crate::symbolic::symbolic_equivalent(spec, baseline, mutant) == Some(false) {
        return StaticFlag::Symbolic;
    }
    StaticFlag::Unflagged
}

/// Sort-and-dedup helper for edge lists (the fixpoint's reporting run can
/// record the same edge many times).
pub fn normalize_edges(edges: &mut Vec<EdgeKey>) {
    edges.sort_unstable();
    edges.dedup();
}

/// The dead-edge set with live sightings removed: an edge is only *proven*
/// dead if no abstract path reaches it, which for edges recorded per
/// conditional requires subtracting the live list (a pc can be reached on
/// one fixpoint path and not another).
pub fn proven_dead_edges(abs: &PipelineAbs) -> Vec<EdgeKey> {
    let mut dead = abs.dead_edges.clone();
    normalize_edges(&mut dead);
    let mut live = abs.live_edges.clone();
    normalize_edges(&mut live);
    dead.retain(|e| live.binary_search(e).is_err());
    dead
}
