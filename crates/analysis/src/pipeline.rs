//! Whole-pipeline abstract interpretation, and the three passes built on
//! it: static translation validation, lint extraction, and the generator
//! screen.
//!
//! The analyzer does not interpret any IR itself. It runs the symbolic
//! executor of [`crate::symbolic`] once over the very [`Pipeline`] the
//! simulator generates, with every entry container and state variable a
//! free symbol, and reads the abstraction off the resulting transfer DAG
//! with [`TermStore::abs_eval`]. Cross-packet state is resolved by a
//! join/widen fixpoint over the state terms: starting from all-zero state
//! (the hardware reset), the state abstraction is pushed through the
//! transfer function until it stops growing. The result over-approximates
//! the pipeline after *any* number of packets drawn from the abstract
//! input. Lints and branch edges come from the sites the executors record
//! while they walk, evaluated under the fixpoint valuation. The P4 stack
//! ([`crate::p4`]) resolves its registers through the same `fixpoint`.

use std::collections::{BTreeMap, HashMap};

use druzhba_core::{MachineCode, Result};
use druzhba_dgen::bytecode::Instr;
use druzhba_dgen::fused::{FusedInstr, FUSED_SITE};
use druzhba_dgen::pipeline::{validate_machine_code, PipelineSpec};
use druzhba_dgen::{OptLevel, Pipeline};

use crate::domain::{AbsVal, Tri};
use crate::symbolic::{sym_run_pipeline, Decision, Site, Sites, SymTransfer, UnitLoc};
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

/// Abstractly execute `(spec, mc)` at `level` from the abstract input
/// `input` (one [`AbsVal`] per PHV container).
///
/// If the symbolic executor bails (path explosion), the result is the
/// sound all-top abstraction: no lints, no dead edges, every edge live.
pub fn analyze_pipeline(
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
    input: &[AbsVal],
) -> Result<PipelineAbs> {
    let pipeline = Pipeline::generate(spec, mc, level)?;
    let mut store = TermStore::new();
    let mut sites = Sites::default();
    let tr = sym_run_pipeline(&mut store, &pipeline, spec, Some(&mut sites));
    let (phv, state) = abstract_run(&store, tr.as_ref(), spec, input);
    // The edges every packet records are live at the statically keyed
    // levels, so the live list covers every edge the backend records.
    let mut live_edges = match level {
        OptLevel::SccInline | OptLevel::Fused => pipeline.fixed_edges(),
        OptLevel::Unoptimized | OptLevel::Scc => Vec::new(),
    };
    // A bail leaves the recorded sites partial: read none of them, and
    // keep every branch outcome live.
    let seen = if tr.is_some() {
        let cells: Vec<AbsVal> = state.iter().flatten().flatten().copied().collect();
        let valuation = valuation(input, spec);
        read_sites(&store, &sites, &|s| valuation(s, &cells))
    } else {
        BTreeMap::new()
    };

    let mut dead_edges = Vec::new();
    for (site, pc) in branch_sites(&pipeline) {
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

    Ok(PipelineAbs {
        level,
        phv,
        state,
        dead_edges,
        live_edges,
        lints: lints(&seen),
    })
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
    // All four transfer functions in one store.
    let mut store = TermStore::new();
    let mut transfer = |level| -> Result<Option<SymTransfer>> {
        let pipeline = Pipeline::generate(spec, mc, level)?;
        Ok(sym_run_pipeline(&mut store, &pipeline, spec, None))
    };
    let source = transfer(OptLevel::Unoptimized)?;
    let compiled = [OptLevel::Scc, OptLevel::SccInline, OptLevel::Fused]
        .map(|level| transfer(level).map(|tr| (level, tr)));
    let (ref_phv, ref_state) = abstract_run(&store, source.as_ref(), spec, input);
    let mut out = Vec::new();
    for compiled in compiled {
        let (level, tr) = compiled?;
        let (phv, state) = abstract_run(&store, tr.as_ref(), spec, input);
        for (c, (&s, &a)) in ref_phv.iter().zip(&phv).enumerate() {
            if s.is_disjoint(a) {
                out.push(TvMismatch {
                    level,
                    site: TvSite::Container(c),
                    source: s,
                    compiled: a,
                });
            }
        }
        for (stage, (srow, arow)) in ref_state.iter().zip(&state).enumerate() {
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
    let (Ok(good), Ok(bad)) = (
        Pipeline::generate(spec, baseline, OptLevel::Unoptimized),
        Pipeline::generate(spec, mutant, OptLevel::Unoptimized),
    ) else {
        return StaticFlag::Structural;
    };
    // Both transfer functions in one store, so they compare by id.
    let mut store = TermStore::new();
    let good = sym_run_pipeline(&mut store, &good, spec, None);
    let bad = sym_run_pipeline(&mut store, &bad, spec, None);
    for probe in probes(spec.config.phv_length) {
        if abstract_run(&store, good.as_ref(), spec, &probe)
            != abstract_run(&store, bad.as_ref(), spec, &probe)
        {
            return StaticFlag::Abstract;
        }
    }
    // Abstract ranges agree everywhere: compare canonical symbolic
    // transfer functions. An executor bail leaves the mutant unflagged —
    // never flag without a definite difference.
    match (good, bad) {
        (Some(g), Some(b)) if g != b => StaticFlag::Symbolic,
        _ => StaticFlag::Unflagged,
    }
}

/// The edges an analysis proves dead: those no abstractly possible path
/// reaches (no dead edge is also live).
pub fn proven_dead_edges(abs: &PipelineAbs) -> Vec<EdgeKey> {
    abs.dead_edges.clone()
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
            assert!(proven_dead_edges(&abs).is_empty(), "{abs:?}");
            // An impossible condition kills a branch side.
            let narrow = [AbsVal::range(8, 20), AbsVal::top()];
            let abs = analyze_pipeline(&spec, &mc, level, &narrow).expect("analyzes");
            assert!(
                !proven_dead_edges(&abs).is_empty(),
                "p in [8,20] can never equal 3"
            );
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
