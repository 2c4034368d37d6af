//! Whole-pipeline abstract interpretation, and the three passes built on
//! it: static translation validation, lint extraction, and the generator
//! screen.
//!
//! The analyzer does not interpret any IR itself. A [`ProgramBuild`] runs
//! the symbolic executor of [`crate::symbolic`] once per requested level
//! over the very [`Pipeline`] the simulator generates, with every entry
//! container and state variable a free symbol, all levels into one
//! [`TermStore`]. Every analysis of the program reads off that one build:
//! the abstraction at a level, read off the transfer DAG with
//! [`TermStore::abs_eval`]; the abstract TV, which skips a level whose
//! terms equal the source's; the symbolic verdict; the symbolic lints;
//! and the screen. The free functions are short reads of a build of the
//! levels they need. Cross-packet state is resolved by a
//! join/widen fixpoint over the state terms: starting from all-zero state
//! (the hardware reset), the state abstraction is pushed through the
//! transfer function until it stops growing. The result over-approximates
//! the pipeline after *any* number of packets drawn from the abstract
//! input. Lints and branch edges come from the sites the executors record
//! while they walk, evaluated under the fixpoint valuation. The P4 stack
//! ([`crate::p4`]) resolves its registers through the same `fixpoint`.

use std::collections::{BTreeMap, HashMap};

use druzhba_core::{Error, MachineCode, Result};
use druzhba_dgen::bytecode::Instr;
use druzhba_dgen::fused::{FusedInstr, FUSED_SITE};
use druzhba_dgen::pipeline::{validate_machine_code, PipelineSpec};
use druzhba_dgen::{OptLevel, Pipeline};

use crate::domain::{AbsVal, Tri};
use crate::symbolic::{
    compare_transfers, fact_lints, flatten, source_bailed, sym_run_pipeline, Decision, Site, Sites,
    SymTransfer, SymbolicVerdict, UnitLoc,
};
use crate::term::{Sym, TermId, TermStore};

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

/// Abstract stateful-ALU state: `state[stage][slot][var]`.
type AbsState = Vec<Vec<Vec<AbsVal>>>;

/// The abstract result of running a pipeline to its cross-packet state
/// fixpoint from one abstract input PHV.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAbs {
    pub level: OptLevel,
    /// Abstract output PHV (per container) at the state fixpoint.
    pub phv: Vec<AbsVal>,
    /// Abstract stateful-ALU state: `state[stage][slot][var]`.
    pub state: AbsState,
    /// Conditional-branch coverage edges proven unreachable. Only levels
    /// with statically-keyed branch edges report here (`SccInline`,
    /// `Fused`); the AST-walking levels key edges by execution-order
    /// event ordinals, which have no static identity.
    pub dead_edges: Vec<EdgeKey>,
    /// Conditional-branch edges the analysis could not rule out, plus
    /// (at the same levels) the mux-selection or stage-entry edges every
    /// packet records.
    pub live_edges: Vec<EdgeKey>,
    pub lints: Vec<LintRecord>,
}

// ---------------------------------------------------------------------
// One build per program.
// ---------------------------------------------------------------------

/// One level of a [`ProgramBuild`]; `transfer` is `None` when the
/// executor bailed.
struct LevelBuild {
    level: OptLevel,
    pipeline: Pipeline,
    transfer: Option<SymTransfer>,
    sites: Sites,
}

/// Generate `(spec, mc)` at `level` and run the symbolic executor over it
/// into `store`. Every Domino symbolic build goes through here.
fn build_level(
    store: &mut TermStore,
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
) -> Result<LevelBuild> {
    let pipeline = Pipeline::generate(spec, mc, level)?;
    let mut sites = Sites::default();
    let transfer = sym_run_pipeline(store, &pipeline, spec, &mut sites);
    Ok(LevelBuild {
        level,
        pipeline,
        transfer,
        sites,
    })
}

/// The symbolic build of one program `(spec, mc)`: each requested level,
/// built in [`OptLevel::ALL`] order, with its pipeline, transfer function
/// and recorded sites, all in one [`TermStore`] so that terms compare by
/// id.
pub struct ProgramBuild<'a> {
    spec: &'a PipelineSpec,
    mc: &'a MachineCode,
    store: TermStore,
    levels: Vec<LevelBuild>,
}

impl<'a> ProgramBuild<'a> {
    /// Build `levels` of `(spec, mc)`. Fails with the first level, in
    /// [`OptLevel::ALL`] order, whose pipeline does not generate.
    pub fn new(
        spec: &'a PipelineSpec,
        mc: &'a MachineCode,
        levels: &[OptLevel],
    ) -> std::result::Result<Self, (OptLevel, Error)> {
        let mut store = TermStore::new();
        let levels = OptLevel::ALL
            .into_iter()
            .filter(|level| levels.contains(level))
            .map(|level| build_level(&mut store, spec, mc, level).map_err(|e| (level, e)))
            .collect::<std::result::Result<_, _>>()?;
        Ok(ProgramBuild {
            spec,
            mc,
            store,
            levels,
        })
    }

    /// Panics if `level` was not built.
    fn level(&self, level: OptLevel) -> &LevelBuild {
        self.levels
            .iter()
            .find(|b| b.level == level)
            .unwrap_or_else(|| panic!("level {} was not built", level.key()))
    }

    /// The source (Unoptimized) transfer function.
    fn source(&self) -> Option<&SymTransfer> {
        self.level(OptLevel::Unoptimized).transfer.as_ref()
    }

    /// The built levels other than the source, in [`OptLevel::ALL`] order.
    fn compiled(&self) -> impl Iterator<Item = &LevelBuild> {
        self.levels
            .iter()
            .filter(|b| b.level != OptLevel::Unoptimized)
    }

    /// The generated pipeline at `level`, never run.
    pub fn pipeline(&self, level: OptLevel) -> &Pipeline {
        &self.level(level).pipeline
    }

    /// The Unoptimized transfer function of another machine code, built
    /// into this store.
    fn transfer_of(&mut self, mc: &MachineCode) -> Result<Option<SymTransfer>> {
        Ok(build_level(&mut self.store, self.spec, mc, OptLevel::Unoptimized)?.transfer)
    }

    /// The abstraction at `level` from `input` (one [`AbsVal`] per PHV
    /// container); all top, with no lints and every edge live, if the
    /// executor bailed.
    pub fn abstraction(&self, level: OptLevel, input: &[AbsVal]) -> PipelineAbs {
        let b = self.level(level);
        let (store, spec, tr) = (&self.store, self.spec, b.transfer.as_ref());
        let (phv, state) = abstract_run(store, tr, spec, input);
        // The edges every packet records are live at the statically keyed
        // levels, so the live list covers every edge the backend records.
        let mut live_edges = match level {
            OptLevel::SccInline | OptLevel::Fused => b.pipeline.fixed_edges(),
            OptLevel::Unoptimized | OptLevel::Scc => Vec::new(),
        };
        // A bail leaves the recorded sites partial: read none of them, and
        // keep every branch outcome live.
        let seen = if tr.is_some() {
            let cells: Vec<AbsVal> = state.iter().flatten().flatten().copied().collect();
            let valuation = valuation(input, spec);
            read_sites(store, &b.sites, &|s| valuation(s, &cells))
        } else {
            BTreeMap::new()
        };

        let mut dead_edges = Vec::new();
        for (site, pc) in branch_sites(&b.pipeline) {
            // The jump is taken when the tested value is falsy.
            let truth = if tr.is_some() {
                seen.get(&Site::Branch { site, pc }).map(|t| t[0].truth())
            } else {
                Some(Tri::Unknown)
            };
            for (taken, live) in [
                (1, truth.is_some_and(|t| t != Tri::True)),
                (0, truth.is_some_and(|t| t != Tri::False)),
            ] {
                if live {
                    live_edges.push((site, pc, taken));
                } else {
                    dead_edges.push((site, pc, taken));
                }
            }
        }

        PipelineAbs {
            level,
            phv,
            state,
            dead_edges,
            live_edges,
            lints: lints(&seen),
        }
    }

    /// The output containers and state cells whose abstractions under
    /// `input` are disjoint between the source and a compiled level. A
    /// level whose terms equal the source's is skipped: identical terms
    /// have identical abstractions.
    pub fn tv(&self, input: &[AbsVal]) -> Vec<TvMismatch> {
        // Output containers, then state cells, as `flatten` lays them out.
        let flat = |tr| {
            let (phv, state) = abstract_run(&self.store, tr, self.spec, input);
            phv.into_iter().chain(state.into_iter().flatten().flatten())
        };
        let source = self.source();
        let mut reference: Option<Vec<AbsVal>> = None;
        let mut out = Vec::new();
        for b in self.compiled() {
            if b.transfer.as_ref() == source {
                continue;
            }
            let reference = reference.get_or_insert_with(|| flat(source).collect());
            for (i, (&s, a)) in reference.iter().zip(flat(b.transfer.as_ref())).enumerate() {
                if s.is_disjoint(a) {
                    out.push(TvMismatch {
                        level: b.level,
                        site: TvSite::of_flat(self.spec, i),
                        source: s,
                        compiled: a,
                    });
                }
            }
        }
        out
    }

    /// The symbolic verdict of every built compiled level against the
    /// source (`Proved`: identical canonical terms at every site).
    pub fn verdict(&self) -> SymbolicVerdict {
        let flat = |b: &LevelBuild| {
            let terms = b.transfer.as_ref().map(|t| flatten(&t.phv, &t.state));
            (b.level.key(), terms)
        };
        compare_transfers(
            &self.store,
            flat(self.level(OptLevel::Unoptimized)),
            self.compiled().map(flat),
            |i| TvSite::of_flat(self.spec, i).to_string(),
            self.spec.config.phv_length,
        )
    }

    /// The lints of symbolic facts about the source transfer function;
    /// empty if the executor bailed.
    pub fn symbolic_lints(&self) -> Vec<LintRecord> {
        let b = self.level(OptLevel::Unoptimized);
        b.transfer.as_ref().map_or_else(Vec::new, |tr| {
            fact_lints(&self.store, &self.spec.config, tr, &b.sites)
        })
    }

    /// Screen the program for fuzz-worthiness from top abstract inputs,
    /// over the `observable` output containers (all when `None`).
    pub fn screen(&self, observable: Option<&[usize]>) -> Screened {
        let cfg = &self.spec.config;
        let abs = self.abstraction(OptLevel::Unoptimized, &vec![AbsVal::top(); cfg.phv_length]);
        let all: Vec<usize> = (0..cfg.phv_length).collect();
        let obs = observable.unwrap_or(&all);

        // Constant-output: with top inputs, a constant abstraction means
        // the concrete output cannot depend on anything.
        let constant = obs.iter().all(|&c| abs.phv[c].as_const().is_some());
        // All-dead: no output mux ever drives an observable container.
        let passthrough = obs.iter().all(|&c| {
            (0..cfg.depth).all(|stage| {
                self.mc
                    .try_get(&druzhba_core::names::output_mux(stage, c))
                    .unwrap_or(0)
                    == 0
            })
        });
        // State still counts as observable behavior (the differential
        // oracles compare state cells), so a program is only trivial if
        // its state abstraction is constant at the fixpoint too.
        let state_const = abs
            .state
            .iter()
            .flatten()
            .flatten()
            .all(|v| v.as_const().is_some());
        if state_const && (constant || passthrough) {
            return Screened::Trivial;
        }
        if abs.lints.iter().any(|l| HAZARD_CODES.contains(&l.code)) {
            return Screened::Hazardous;
        }
        Screened::Interesting
    }
}

/// [`ProgramBuild::abstraction`] of a one-level build.
pub fn analyze_pipeline(
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
    input: &[AbsVal],
) -> Result<PipelineAbs> {
    let build = ProgramBuild::new(spec, mc, &[level]).map_err(|(_, e)| e)?;
    Ok(build.abstraction(level, input))
}

/// [`ProgramBuild::tv`] of an all-level build. An empty result does not
/// prove equivalence, but a non-empty one proves a bug.
pub fn translation_validate(
    spec: &PipelineSpec,
    mc: &MachineCode,
    input: &[AbsVal],
) -> Result<Vec<TvMismatch>> {
    let build = ProgramBuild::new(spec, mc, &OptLevel::ALL).map_err(|(_, e)| e)?;
    Ok(build.tv(input))
}

/// [`ProgramBuild::screen`] of an Unoptimized-only build.
pub fn screen(
    spec: &PipelineSpec,
    mc: &MachineCode,
    observable: Option<&[usize]>,
) -> Result<Screened> {
    let build = ProgramBuild::new(spec, mc, &[OptLevel::Unoptimized]).map_err(|(_, e)| e)?;
    Ok(build.screen(observable))
}

/// [`ProgramBuild::verdict`] of an all-level build.
pub fn symbolic_validate(spec: &PipelineSpec, mc: &MachineCode) -> SymbolicVerdict {
    validate(spec, mc, &OptLevel::ALL)
}

/// [`ProgramBuild::verdict`] of `level` against the source.
pub fn symbolic_validate_level(
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
) -> SymbolicVerdict {
    validate(spec, mc, &[OptLevel::Unoptimized, level])
}

fn validate(spec: &PipelineSpec, mc: &MachineCode, levels: &[OptLevel]) -> SymbolicVerdict {
    ProgramBuild::new(spec, mc, levels).map_or_else(
        |_| source_bailed(OptLevel::Unoptimized.key()),
        |b| b.verdict(),
    )
}

/// Compare two machine codes' Unoptimized transfer functions in one
/// store: `Some(true)` proves them equivalent on all packets and states,
/// `Some(false)` means the canonical forms differ, `None` that an
/// executor bailed.
pub fn symbolic_equivalent(spec: &PipelineSpec, a: &MachineCode, b: &MachineCode) -> Option<bool> {
    let mut build = ProgramBuild::new(spec, a, &[OptLevel::Unoptimized]).ok()?;
    build.source()?;
    let tb = build.transfer_of(b).ok()??;
    Some(build.source() == Some(&tb))
}

/// The transfer function of `(spec, mc)` at `level`, built into `store`;
/// `None` if the pipeline does not generate or the executor bails.
pub fn symbolic_transfer(
    store: &mut TermStore,
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
) -> Option<SymTransfer> {
    build_level(store, spec, mc, level).ok()?.transfer
}

/// Join each site's terms over the visits whose path is abstractly
/// possible under `valuation`.
pub(crate) fn read_sites<'s>(
    store: &TermStore,
    sites: &'s Sites,
    valuation: &dyn Fn(Sym) -> AbsVal,
) -> BTreeMap<&'s Site, [AbsVal; 2]> {
    let mut memo = HashMap::new();
    let mut abs = |t: TermId| store.abs_eval_memo(t, valuation, &mut memo);
    let mut seen: BTreeMap<&Site, [AbsVal; 2]> = BTreeMap::new();
    for v in &sites.visits {
        if !feasible(&v.decisions, &mut abs) {
            continue;
        }
        let terms = [abs(v.terms[0]), abs(v.terms[1])];
        seen.entry(&v.site)
            .and_modify(|acc| *acc = [acc[0].join(terms[0]), acc[1].join(terms[1])])
            .or_insert(terms);
    }
    seen
}

/// Is every decision on a path abstractly possible?
fn feasible(decisions: &[Decision], abs: &mut impl FnMut(TermId) -> AbsVal) -> bool {
    decisions.iter().all(|&(c, taken)| match abs(c).truth() {
        Tri::True => taken,
        Tri::False => !taken,
        Tri::Unknown => true,
    })
}

/// The valuation of the entry symbols: `input` for the PHV, the state
/// cells (flattened stage-, slot-, then var-major) for the stateful-ALU
/// variables.
fn valuation<'a>(
    input: &'a [AbsVal],
    spec: &PipelineSpec,
) -> impl Fn(Sym, &[AbsVal]) -> AbsVal + 'a {
    let width = spec.config.width;
    let n_state = spec.stateful_alu.state_vars.len();
    move |s, cells| match s {
        Sym::Phv(c) => input[c as usize],
        Sym::State { stage, slot, var } => {
            cells[(stage as usize * width + slot as usize) * n_state + var as usize]
        }
        Sym::RegCell(_) => AbsVal::top(),
    }
}

/// Abstractly evaluate a transfer function at its cross-packet fixpoint.
/// `cells` are the terms of the persistent cells (stateful-ALU variables,
/// P4 register cells) after one packet; `valuation(sym, state)` values an
/// entry symbol under the current abstraction `state` of those cells.
/// From the zero reset state, the cells are pushed through the transfer
/// function, joining for [`JOIN_ITERS`] rounds and widening after, until
/// they stop growing. Returns `outputs` evaluated at the fixpoint, and
/// the fixpoint. Both stacks resolve persistent state through this loop.
pub(crate) fn fixpoint(
    store: &TermStore,
    outputs: &[TermId],
    cells: &[TermId],
    valuation: impl Fn(Sym, &[AbsVal]) -> AbsVal,
) -> (Vec<AbsVal>, Vec<AbsVal>) {
    let mut state = vec![AbsVal::constant(0); cells.len()];
    for iters in 0.. {
        let next = abs_eval_all(store, cells, &|s| valuation(s, &state));
        let mut changed = false;
        for (s, n) in state.iter_mut().zip(next) {
            let joined = s.join(n);
            let merged = if iters < JOIN_ITERS {
                joined
            } else {
                s.widen(joined)
            };
            changed |= merged != *s;
            *s = merged;
        }
        if !changed || iters >= MAX_ITERS {
            break;
        }
    }
    let out = abs_eval_all(store, outputs, &|s| valuation(s, &state));
    (out, state)
}

/// The abstract output PHV and the cross-packet state [`fixpoint`] of one
/// transfer function under `input`; all-top when the executor bailed.
fn abstract_run(
    store: &TermStore,
    tr: Option<&SymTransfer>,
    spec: &PipelineSpec,
    input: &[AbsVal],
) -> (Vec<AbsVal>, AbsState) {
    let cfg = &spec.config;
    debug_assert_eq!(input.len(), cfg.phv_length);
    let n_state = spec.stateful_alu.state_vars.len();
    let shaped = |v: AbsVal| vec![vec![vec![v; n_state]; cfg.width]; cfg.depth];
    let Some(tr) = tr else {
        return (vec![AbsVal::top(); cfg.phv_length], shaped(AbsVal::top()));
    };

    let cells: Vec<TermId> = tr.state.iter().flatten().flatten().copied().collect();
    let (phv, fixed) = fixpoint(store, &tr.phv, &cells, valuation(input, spec));
    let mut state = shaped(AbsVal::constant(0));
    for (s, v) in state.iter_mut().flatten().flatten().zip(fixed) {
        *s = v;
    }
    (phv, state)
}

/// Abstractly evaluate `terms` under one valuation, sharing the memo.
fn abs_eval_all(
    store: &TermStore,
    terms: &[TermId],
    valuation: &dyn Fn(Sym) -> AbsVal,
) -> Vec<AbsVal> {
    let mut memo = HashMap::new();
    terms
        .iter()
        .map(|&t| store.abs_eval_memo(t, valuation, &mut memo))
        .collect()
}

/// Every statically keyed conditional branch `(site, pc)` of the
/// pipeline: each jump of the fused program, or of every SCC-inline
/// bytecode unit (stateless ones included, selected or not).
fn branch_sites(pipeline: &Pipeline) -> Vec<(u32, u32)> {
    if let Some(fp) = pipeline.fused_program() {
        return fp
            .instrs()
            .iter()
            .enumerate()
            .filter(|(_, i)| {
                matches!(
                    i,
                    FusedInstr::JumpIfZero { .. }
                        | FusedInstr::CmpJumpIfZero { .. }
                        | FusedInstr::CmpImmJumpIfZero { .. }
                )
            })
            .map(|(pc, _)| (FUSED_SITE, pc as u32))
            .collect();
    }
    let mut out = Vec::new();
    for stage in pipeline.stages() {
        for unit in stage.stateless_alus().iter().chain(stage.stateful_alus()) {
            let Some(prog) = unit.bytecode() else {
                continue;
            };
            for (pc, instr) in prog.instrs().iter().enumerate() {
                if matches!(instr, Instr::JumpIfZero(_)) {
                    out.push((unit.site(), pc as u32));
                }
            }
        }
    }
    out
}

/// The lints of the ALU-body sites seen on a possible path, with their
/// terms joined over those paths (`seen`, in site order).
fn lints(seen: &BTreeMap<&Site, [AbsVal; 2]>) -> Vec<LintRecord> {
    let mut out = Vec::new();
    let mut push = |unit: UnitLoc, pc: u32, code: &'static str, message: String| {
        let kind = if unit.stateful {
            "stateful"
        } else {
            "stateless"
        };
        out.push(LintRecord {
            stage: unit.stage,
            pc: (u32::from(unit.stateful) << 15) | (unit.slot << 8) | (pc & 0xFF),
            code,
            message: format!("{kind} ALU slot {}: {message}", unit.slot),
        });
    };
    // Whether the arms before the current one of an `if` chain may all
    // fall through; reset at each chain's arm 0.
    let mut may_reach = true;
    for (site, [l, r]) in seen {
        match **site {
            Site::Arm {
                unit,
                pc,
                arm,
                arms,
                has_else,
            } => {
                if arm == 0 {
                    may_reach = true;
                }
                if !may_reach {
                    // An earlier arm is always taken.
                    continue;
                }
                match l.truth() {
                    Tri::False => push(
                        unit,
                        pc,
                        "unreachable-arm",
                        format!("condition of arm {} of `if` chain is always false", arm + 1),
                    ),
                    Tri::True => {
                        may_reach = false;
                        for later in arm + 1..arms {
                            push(
                                unit,
                                pc,
                                "unreachable-arm",
                                format!("arm {} of `if` chain can never be reached", later + 1),
                            );
                        }
                        if has_else {
                            push(
                                unit,
                                pc,
                                "unreachable-arm",
                                "`else` body of `if` chain can never be reached".to_string(),
                            );
                        }
                    }
                    Tri::Unknown => {}
                }
            }
            Site::Operands { unit, pc, sym, .. } => {
                let max = u64::from(u32::MAX);
                let wraps = match sym {
                    "+" => u64::from(l.iv.lo) + u64::from(r.iv.lo) > max,
                    "-" => l.iv.hi < r.iv.lo,
                    "*" => u64::from(l.iv.lo) * u64::from(r.iv.lo) > max,
                    _ => false,
                };
                if wraps {
                    let message = format!("`{sym}` always wraps modulo 2^32 here");
                    push(unit, pc, "overflow", message);
                }
                if matches!(sym, "/" | "%") && r.as_const() == Some(0) {
                    let message = format!(
                        "right operand of `{sym}` is always zero (total semantics yield 0)"
                    );
                    push(unit, pc, "div-by-zero", message);
                }
            }
            Site::Overwrite {
                unit,
                pc,
                at,
                ref var,
            } => push(
                unit,
                pc,
                "dead-write",
                format!("state variable `{var}` is overwritten at pc {at} before being read"),
            ),
            Site::Branch { .. } | Site::Entry { .. } => {}
        }
    }
    out.sort_by(|a, b| {
        (a.stage, a.pc, a.code, &a.message).cmp(&(b.stage, b.pc, b.code, &b.message))
    });
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Translation validation.
// ---------------------------------------------------------------------

/// Where a translation-validation mismatch was observed; renders as
/// `container[c]` or `state[stage][slot][var]`.
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

impl TvSite {
    /// The site at index `i` of a flattened transfer function or
    /// abstraction: the output containers, then the state cells stage-,
    /// slot-, then var-major.
    fn of_flat(spec: &PipelineSpec, i: usize) -> TvSite {
        let Some(cell) = i.checked_sub(spec.config.phv_length) else {
            return TvSite::Container(i);
        };
        let n_state = spec.stateful_alu.state_vars.len();
        TvSite::State {
            stage: cell / n_state / spec.config.width,
            slot: cell / n_state % spec.config.width,
            var: cell % n_state,
        }
    }
}

impl std::fmt::Display for TvSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TvSite::Container(c) => write!(f, "container[{c}]"),
            TvSite::State { stage, slot, var } => write!(f, "state[{stage}][{slot}][{var}]"),
        }
    }
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
    // Both transfer functions in one store, so they compare by id.
    let Ok(mut build) = ProgramBuild::new(spec, baseline, &[OptLevel::Unoptimized]) else {
        return StaticFlag::Structural;
    };
    let Ok(bad) = build.transfer_of(mutant) else {
        return StaticFlag::Structural;
    };
    let good = build.source();
    for probe in probes(spec.config.phv_length) {
        if abstract_run(&build.store, good, spec, &probe)
            != abstract_run(&build.store, bad.as_ref(), spec, &probe)
        {
            return StaticFlag::Abstract;
        }
    }
    // Abstract ranges agree everywhere: compare canonical symbolic
    // transfer functions. An executor bail leaves the mutant unflagged —
    // never flag without a definite difference.
    match (good, bad) {
        (Some(g), Some(b)) if *g != b => StaticFlag::Symbolic,
        _ => StaticFlag::Unflagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_alu_dsl::parse_alu;
    use druzhba_core::{Phv, PipelineConfig};
    use druzhba_dgen::expected_machine_code;

    /// A 1×1 pipeline whose stateful ALU is `src` (packet field `p` reads
    /// container 0) and whose output drives container 1.
    fn one_alu(src: &str) -> (PipelineSpec, MachineCode) {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            parse_alu(src).expect("parses"),
            atom("stateless_mux").expect("library atom"),
        )
        .expect("valid spec");
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        mc.set("output_mux_phv_0_1", 2);
        (spec, mc)
    }

    /// Push every packet sequence of length 3 over `ps` through the
    /// concrete `level` backend and require each output PHV and state to
    /// stay inside `abs`.
    fn assert_contains_runs(spec: &PipelineSpec, mc: &MachineCode, abs: &PipelineAbs, ps: &[u32]) {
        for &a in ps {
            for &b in ps {
                for &c in ps {
                    let mut pipeline = Pipeline::generate(spec, mc, abs.level).expect("generates");
                    for p in [a, b, c] {
                        let out = pipeline.process(&Phv::new(vec![p, 0]));
                        for (k, v) in abs.phv.iter().enumerate() {
                            assert!(v.contains(out.get(k)), "container {k}: {out:?} ∉ {v:?}");
                        }
                        let s = pipeline.state_snapshot()[0][0][0];
                        assert!(
                            abs.state[0][0][0].contains(s),
                            "state {s} ∉ {:?}",
                            abs.state
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn abstract_result_contains_concrete_runs() {
        let (spec, mc) = one_alu(
            "name: abs_if_else\ntype: stateful\nstate variables: {s}\n\
             hole variables: {}\npacket fields: {p}\n\
             if (p > 5) { s = s + 1; }\nelse { s = 0; }\n",
        );
        let input = [AbsVal::bits(4), AbsVal::top()];
        for level in [OptLevel::Unoptimized, OptLevel::Scc] {
            let abs = analyze_pipeline(&spec, &mc, level, &input).expect("analyzes");
            assert_contains_runs(&spec, &mc, &abs, &[0, 5, 6, 15]);
        }
    }

    #[test]
    fn bytecode_abstraction_contains_concrete_runs() {
        let (spec, mc) = one_alu(
            "name: abs_bc\ntype: stateful\nstate variables: {s}\n\
             hole variables: {}\npacket fields: {p}\n\
             if (p == 3) { s = s + 2; }\nelse { s = s - 1; }\n",
        );
        let input = [AbsVal::bits(3), AbsVal::top()];
        for level in [OptLevel::SccInline, OptLevel::Fused] {
            let abs = analyze_pipeline(&spec, &mc, level, &input).expect("analyzes");
            assert_contains_runs(&spec, &mc, &abs, &[0, 3, 7]);
            // p == 3 is possible and avoidable: both branch outcomes live.
            assert!(abs.dead_edges.is_empty(), "{abs:?}");
            // An impossible condition kills a branch side.
            let narrow = [AbsVal::range(8, 20), AbsVal::top()];
            let abs = analyze_pipeline(&spec, &mc, level, &narrow).expect("analyzes");
            assert!(!abs.dead_edges.is_empty(), "p in [8,20] can never equal 3");
        }
    }

    #[test]
    fn constant_condition_yields_unreachable_arm_lint() {
        let (spec, mc) = one_alu(
            "name: abs_const_cond\ntype: stateful\nstate variables: {s}\n\
             hole variables: {}\npacket fields: {p}\n\
             if (0) { s = 1; }\nelse { s = p; }\n",
        );
        let input = [AbsVal::top(); 2];
        let abs = analyze_pipeline(&spec, &mc, OptLevel::Unoptimized, &input).expect("analyzes");
        assert!(
            abs.lints.iter().any(|l| l.code == "unreachable-arm"),
            "{:?}",
            abs.lints
        );
    }

    /// The verdict and the TV of a build whose Scc transfer is replaced by
    /// a hand-built one that differs from the source at output container
    /// 1 only: disjoint terms refute (and the TV sees the mismatch),
    /// overlapping ones leave a residual (and the TV sees nothing).
    #[test]
    fn differing_site_refutes_when_disjoint_and_is_residual_when_overlapping() {
        use crate::symbolic::SymbolicResidual;
        let (spec, mc) = one_alu(
            "name: hand_built\ntype: stateful\nstate variables: {s}\n\
             hole variables: {}\npacket fields: {p}\ns = s + p;\n",
        );
        let levels = [OptLevel::Unoptimized, OptLevel::Scc];
        let mut build = ProgramBuild::new(&spec, &mc, &levels).expect("builds");
        let store = &mut build.store;
        let p = store.sym(Sym::Phv(0), AbsVal::top());
        let s = store.sym(
            Sym::State {
                stage: 0,
                slot: 0,
                var: 0,
            },
            AbsVal::top(),
        );
        let (one, two) = (store.konst(1), store.konst(2));
        let transfer = |out| {
            Some(SymTransfer {
                phv: vec![p, out],
                state: vec![vec![vec![s]]],
            })
        };
        let top = [AbsVal::top(); 2];
        build.levels[0].transfer = transfer(one);

        build.levels[1].transfer = transfer(one);
        assert_eq!(build.verdict(), SymbolicVerdict::Proved);
        assert_eq!(build.tv(&top), []);

        build.levels[1].transfer = transfer(two);
        assert_eq!(
            build.verdict(),
            SymbolicVerdict::Refuted {
                level: "scc",
                site: "container[1]".to_string(),
                cex: vec![0, 0],
            }
        );
        assert_eq!(
            build.tv(&top),
            [TvMismatch {
                level: OptLevel::Scc,
                site: TvSite::Container(1),
                source: AbsVal::constant(1),
                compiled: AbsVal::constant(2),
            }]
        );

        build.levels[1].transfer = transfer(p);
        assert_eq!(
            build.verdict(),
            SymbolicVerdict::Unknown {
                residuals: vec![SymbolicResidual {
                    level: "scc",
                    site: "container[1]".to_string(),
                }],
            }
        );
        assert_eq!(build.tv(&top), []);
    }

    #[test]
    fn overwrite_before_read_yields_dead_write_lint() {
        let (spec, mc) = one_alu(
            "name: abs_dead_write\ntype: stateful\nstate variables: {s}\n\
             hole variables: {}\npacket fields: {p}\n\
             s = p + 1;\ns = p + 2;\n",
        );
        let input = [AbsVal::top(); 2];
        let abs = analyze_pipeline(&spec, &mc, OptLevel::Unoptimized, &input).expect("analyzes");
        assert!(
            abs.lints.iter().any(|l| l.code == "dead-write"),
            "{:?}",
            abs.lints
        );
    }
}
