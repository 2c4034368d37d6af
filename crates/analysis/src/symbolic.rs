//! Symbolic translation validation: prove backend equivalence without
//! packets.
//!
//! Where `translation_validate` can only *refute* (abstract disjointness),
//! this module *proves*: every executable IR — the Unoptimized AST walk,
//! the Scc specialized AST, the SCC-inline stack bytecode, and the fused
//! register program — is executed symbolically over one shared hash-consed
//! [`TermStore`], producing for every observable site (output container,
//! stateful variable) a canonical term over the pipeline's free inputs.
//! Two backends are equivalent on *all* packets and states iff their
//! per-invocation transfer functions agree, and structural identity of
//! canonical terms (one `TermId` comparison) certifies exactly that.
//!
//! ## Path discipline
//!
//! Every executor runs all paths to completion, carrying the full decision
//! sequence `(condition term, taken)` from pipeline entry. Conditions are
//! built through the same canonicalizing constructors everywhere, so a
//! fork that one backend takes is the *same term* in every backend, and a
//! condition whose truth the abstract product decides is pruned (not
//! forked) identically everywhere. Completed paths are merged back into
//! one term per site by rebuilding the decision tree (`merge_paths`);
//! the Ite rewrite rules (equal-arm collapse, same-condition flattening
//! and pushdown) make per-unit merging (staged backends) and end-of-
//! pipeline merging (fused backend) meet in the same normal form.
//!
//! Executors bail to `None` (never a wrong term) on path explosion or
//! structurally surprising programs; the verdict is then `Unknown` and
//! callers fall back to bounded concrete verification.
//!
//! ## One build, one compare loop
//!
//! A Domino program is built once per analysis: a
//! [`ProgramBuild`](crate::pipeline::ProgramBuild) runs the executor for
//! each requested level into one store, and the abstraction, the abstract
//! TV, the verdict, the lints and the screen all read off that build. The
//! verdict of both stacks comes from one compare loop,
//! `compare_transfers`; the P4 one is part of `p4::analyze_p4`.
//!
//! ## Recorded sites
//!
//! The executors are also the abstract interpreters of the build and of
//! `p4::analyze_p4`. They record a `Site` visit wherever a lint or a
//! coverage edge is decided — each `if` arm, each arithmetic and division
//! operand pair, each overwritten state write, each conditional jump, each
//! P4 table-entry hit — with its terms and the decisions of its path.

use std::collections::{BTreeSet, HashMap};

use druzhba_alu_dsl::ast::{AluSpec, BinOp, Expr, Stmt};
use druzhba_core::value::Value;
use druzhba_dgen::bytecode::{BytecodeProgram, Instr};
use druzhba_dgen::fused::{FusedInstr, FUSED_SITE};
use druzhba_dgen::pipeline::{AluUnit, Pipeline, PipelineSpec};
use druzhba_dgen::{FusedPipeline, OptLevel};

use crate::domain::{AbsVal, Tri};
use crate::pipeline::LintRecord;
use crate::term::{Node, Sym, TermId, TermStore};

/// Cap on simultaneously live whole-pipeline paths before an executor
/// bails to `Unknown` (sound — never a wrong answer).
const MAX_PATHS: usize = 4096;
/// Cap on executed instructions across all paths of one program.
const MAX_STEPS: usize = 1 << 20;

/// One branch decision: the condition term and whether it was truthy.
pub(crate) type Decision = (TermId, bool);

/// Completed ALU-local paths: `(decisions, output term, state')`.
type AluPaths = Vec<(Vec<Decision>, TermId, Vec<TermId>)>;

/// Verdict of symbolic translation validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicVerdict {
    /// Every observable site has an identical canonical term on both
    /// sides: the backends are equivalent on all packets and states.
    Proved,
    /// Two sites carry terms with *disjoint* abstractions: every input
    /// is a counterexample; `cex` is the all-zeros witness PHV.
    Refuted {
        level: &'static str,
        site: String,
        cex: Vec<Value>,
    },
    /// Residual sites whose terms are unequal but not provably disjoint
    /// (or an executor bailed). Callers fall back to `verify_bounded`.
    Unknown { residuals: Vec<SymbolicResidual> },
}

/// One site symbolic validation could neither prove nor refute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicResidual {
    /// Backend key (`scc`, `scc_inline`, `fused`, `mat`).
    pub level: &'static str,
    /// Rendered site (`container[c]`, `state[si][slot][var]`, field name).
    pub site: String,
}

/// The symbolic transfer function of one pipeline invocation: a term per
/// output container and per stateful variable, as functions of the entry
/// PHV/state symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymTransfer {
    pub phv: Vec<TermId>,
    /// `state[stage][slot][var]`.
    pub state: Vec<Vec<Vec<TermId>>>,
}

// ---------------------------------------------------------------------
// Path merging
// ---------------------------------------------------------------------

/// Rebuild the decision tree of a set of completed paths into one value
/// vector. All paths carry full-from-entry decision sequences, so paths
/// sharing a prefix agree on the next condition; a path that finished
/// before a sibling's fork flows into both branches. Returns `None` on
/// irreconcilable shapes (sound bail).
pub(crate) fn merge_paths(
    store: &mut TermStore,
    paths: &[(Vec<Decision>, Vec<TermId>)],
) -> Option<Vec<TermId>> {
    let refs: Vec<&(Vec<Decision>, Vec<TermId>)> = paths.iter().collect();
    merge_at(store, &refs, 0)
}

fn merge_at(
    store: &mut TermStore,
    paths: &[&(Vec<Decision>, Vec<TermId>)],
    depth: usize,
) -> Option<Vec<TermId>> {
    let (first, rest) = paths.split_first()?;
    if rest.is_empty() {
        return Some(first.1.clone());
    }
    let Some(&(cond, _)) = paths.iter().find_map(|p| p.0.get(depth)) else {
        // Every path exhausted its decisions: they must agree.
        return paths
            .iter()
            .all(|p| p.1 == first.1)
            .then(|| first.1.clone());
    };
    let mut tgroup = Vec::new();
    let mut fgroup = Vec::new();
    for p in paths {
        match p.0.get(depth) {
            None => {
                tgroup.push(*p);
                fgroup.push(*p);
            }
            Some(&(c, taken)) if c == cond => {
                if taken {
                    tgroup.push(*p);
                } else {
                    fgroup.push(*p);
                }
            }
            Some(_) => return None,
        }
    }
    if tgroup.is_empty() || fgroup.is_empty() {
        let side = if tgroup.is_empty() { fgroup } else { tgroup };
        return merge_at(store, &side, depth + 1);
    }
    let tv = merge_at(store, &tgroup, depth + 1)?;
    let fv = merge_at(store, &fgroup, depth + 1)?;
    Some(
        tv.iter()
            .zip(&fv)
            .map(|(&a, &b)| store.ite(cond, a, b))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Recorded sites
// ---------------------------------------------------------------------

/// An ALU's place in the staged pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct UnitLoc {
    pub stage: u32,
    pub slot: u32,
    pub stateful: bool,
}

/// A program point whose abstract facts the analyzer reads back at the
/// state fixpoint (`pipeline::ProgramBuild::abstraction`,
/// `p4::analyze_p4`). An ALU-body `pc` is the pre-order statement index; a
/// bytecode or fused `pc` is the instruction index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Site {
    /// Arm `arm` of the `if` chain at `pc` (`arms` arms, and a non-empty
    /// `else` iff `has_else`). Term: the arm's condition.
    Arm {
        unit: UnitLoc,
        pc: u32,
        arm: u32,
        arms: u32,
        has_else: bool,
    },
    /// A `+`, `-`, `*`, `/` or `%` (`sym`) in the statement at `pc`;
    /// `expr` tells apart the expression nodes of one statement. Terms:
    /// the operands.
    Operands {
        unit: UnitLoc,
        pc: u32,
        expr: usize,
        sym: &'static str,
    },
    /// State variable `var`, written at `pc`, is written again at `at`
    /// with no read in between. Term: the value written at `at`.
    Overwrite {
        unit: UnitLoc,
        pc: u32,
        at: u32,
        var: String,
    },
    /// The conditional jump at `pc` of coverage site `site` (a bytecode
    /// unit, or the fused program). Term: the tested value.
    Branch { site: u32, pc: u32 },
    /// A hit of entry `entry` (file order) of applied P4 table `table`
    /// (HLIR index). No terms: only the path's feasibility is read.
    Entry { table: u32, entry: u32 },
}

/// One path's visit of a [`Site`]: its terms, and every decision the path
/// took from pipeline entry to get there.
pub(crate) struct Visit {
    pub site: Site,
    pub terms: [TermId; 2],
    pub decisions: Vec<Decision>,
}

/// What the symbolic executors record while they walk.
#[derive(Default)]
pub(crate) struct Sites {
    pub visits: Vec<Visit>,
    /// Source rel-op conditions decided for every input.
    relops: Vec<DecidedRelop>,
}

/// The recording context of one ALU invocation: the sink, the unit's
/// place, whether its lints count (an unselected stateless ALU is
/// configuration filler), and the decisions of the whole-pipeline path
/// it runs on.
struct Recorder<'r> {
    sites: &'r mut Sites,
    unit: UnitLoc,
    lint: bool,
    prefix: &'r [Decision],
}

impl Recorder<'_> {
    fn visit(&mut self, site: Site, terms: [TermId; 2], local: &[Decision]) {
        let mut decisions = self.prefix.to_vec();
        decisions.extend_from_slice(local);
        self.sites.visits.push(Visit {
            site,
            terms,
            decisions,
        });
    }
}

/// Number of statements in `stmts`, nested ones included (the span of
/// pre-order pcs the block occupies).
fn block_len(stmts: &[Stmt]) -> u32 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::If { arms, else_body } => {
                1 + arms.iter().map(|(_, b)| block_len(b)).sum::<u32>() + block_len(else_body)
            }
            _ => 1,
        })
        .sum()
}

// ---------------------------------------------------------------------
// ALU executors (AST walk and stack bytecode), path-producing
// ---------------------------------------------------------------------

/// One in-flight path through a single ALU invocation.
#[derive(Clone)]
struct LocalPath {
    decisions: Vec<Decision>,
    state: Vec<TermId>,
    ret: Option<TermId>,
}

/// Symbolic walk of an ALU-DSL body, mirroring `dgen::eval` exactly:
/// holes are concrete machine-code values (missing ⇒ 0), packet fields
/// and state variables are terms, and `if` chains fork on undecided
/// conditions. Covers both the Unoptimized semantics (unspecialized spec
/// + hole environment) and the Scc backend (specialized spec, no holes).
struct AluWalk<'a> {
    store: &'a mut TermStore,
    spec: &'a AluSpec,
    holes: &'a HashMap<String, Value>,
    operands: &'a [TermId],
    rec: Recorder<'a>,
    /// pc of the statement being evaluated (anchors operand sites).
    stmt_pc: u32,
    /// State writes of the current straight-line run not yet read:
    /// `(var, pc)`. Cleared at every block entry and `if` chain.
    pending: Vec<(usize, u32)>,
}

impl<'a> AluWalk<'a> {
    fn new(
        store: &'a mut TermStore,
        spec: &'a AluSpec,
        holes: &'a HashMap<String, Value>,
        operands: &'a [TermId],
        rec: Recorder<'a>,
    ) -> Self {
        AluWalk {
            store,
            spec,
            holes,
            operands,
            rec,
            stmt_pc: 0,
            pending: Vec::new(),
        }
    }

    fn hole(&self, name: &str) -> Value {
        self.holes.get(name).copied().unwrap_or(0)
    }

    /// The recorder, when this unit's lints count.
    fn linter(&mut self) -> Option<&mut Recorder<'a>> {
        self.rec.lint.then_some(&mut self.rec)
    }

    /// Run the body; each completed path yields `(decisions, output,
    /// state')` with the Banzai default-output convention (no executed
    /// `return` ⇒ pre-update first state variable, or 0).
    fn run(&mut self, state_in: &[TermId]) -> Option<AluPaths> {
        let default = match state_in.first() {
            Some(&t) => t,
            None => self.store.konst(0),
        };
        let root = LocalPath {
            decisions: Vec::new(),
            state: state_in.to_vec(),
            ret: None,
        };
        let mut done = Vec::new();
        let body: &'a [Stmt] = &self.spec.body;
        let live = self.block(body, 0, vec![root], &mut done)?;
        Some(
            done.into_iter()
                .chain(live)
                .map(|p| (p.decisions, p.ret.unwrap_or(default), p.state))
                .collect(),
        )
    }

    /// Run `stmts`, whose first statement has pc `pc`.
    fn block(
        &mut self,
        stmts: &'a [Stmt],
        mut pc: u32,
        mut live: Vec<LocalPath>,
        done: &mut Vec<LocalPath>,
    ) -> Option<Vec<LocalPath>> {
        self.pending.clear();
        for stmt in stmts {
            if live.is_empty() {
                break;
            }
            self.stmt_pc = pc;
            match stmt {
                Stmt::Assign { target, value } => {
                    let idx = self.spec.state_var_index(target);
                    for path in live.iter_mut() {
                        let v = self.eval(value, &path.state, &path.decisions);
                        if let Some(j) = idx {
                            if j < path.state.len() {
                                path.state[j] = v;
                            }
                        }
                    }
                    if let Some(j) = idx {
                        self.note_write(j, target, &live);
                    }
                }
                Stmt::If { arms, else_body } => {
                    let mut survivors = Vec::new();
                    for p in std::mem::take(&mut live) {
                        self.if_chain(arms, else_body, pc, p, &mut survivors, done)?;
                    }
                    self.pending.clear();
                    live = survivors;
                }
                Stmt::Return(e) => {
                    for mut p in live.drain(..) {
                        p.ret = Some(self.eval(e, &p.state, &p.decisions));
                        done.push(p);
                    }
                }
            }
            pc += block_len(std::slice::from_ref(stmt));
            if done.len() + live.len() > MAX_PATHS {
                return None;
            }
        }
        Some(live)
    }

    /// Track the write of state variable `j` at the current pc, recording
    /// an overwrite site on every live path when an unread write of `j`
    /// is pending.
    fn note_write(&mut self, j: usize, target: &str, live: &[LocalPath]) {
        let at = self.stmt_pc;
        let Some(entry) = self.pending.iter_mut().find(|(var, _)| *var == j) else {
            self.pending.push((j, at));
            return;
        };
        let pc = std::mem::replace(&mut entry.1, at);
        let Some(rec) = self.linter() else { return };
        for p in live {
            let Some(&v) = p.state.get(j) else { continue };
            let site = Site::Overwrite {
                unit: rec.unit,
                pc,
                at,
                var: target.to_string(),
            };
            rec.visit(site, [v, v], &p.decisions);
        }
    }

    fn if_chain(
        &mut self,
        arms: &'a [(Expr, Vec<Stmt>)],
        else_body: &'a [Stmt],
        pc: u32,
        path: LocalPath,
        out: &mut Vec<LocalPath>,
        done: &mut Vec<LocalPath>,
    ) -> Option<()> {
        // pc of each arm body's first statement, then the `else` body's.
        let mut bases = Vec::with_capacity(arms.len() + 1);
        let mut next = pc + 1;
        for (_, body) in arms {
            bases.push(next);
            next += block_len(body);
        }
        bases.push(next);

        let mut pending = vec![(path, 0usize)];
        while let Some((p, i)) = pending.pop() {
            let Some((cond, body)) = arms.get(i) else {
                out.extend(self.block(else_body, bases[i], vec![p], done)?);
                continue;
            };
            self.stmt_pc = pc;
            let c = self.eval(cond, &p.state, &p.decisions);
            if let Some(rec) = self.linter() {
                let site = Site::Arm {
                    unit: rec.unit,
                    pc,
                    arm: i as u32,
                    arms: arms.len() as u32,
                    has_else: !else_body.is_empty(),
                };
                rec.visit(site, [c, c], &p.decisions);
            }
            match self.store.truth(c) {
                Tri::True => {
                    self.note_decided(cond, true);
                    out.extend(self.block(body, bases[i], vec![p], done)?);
                }
                Tri::False => {
                    self.note_decided(cond, false);
                    pending.push((p, i + 1));
                }
                Tri::Unknown => {
                    let mut taken = p.clone();
                    taken.decisions.push((c, true));
                    out.extend(self.block(body, bases[i], vec![taken], done)?);
                    let mut fall = p;
                    fall.decisions.push((c, false));
                    pending.push((fall, i + 1));
                }
            }
            if out.len() + done.len() + pending.len() > MAX_PATHS {
                return None;
            }
        }
        Some(())
    }

    /// Record a source rel-op condition decided for every input.
    fn note_decided(&mut self, cond: &Expr, taken: bool) {
        let relop = match cond {
            Expr::RelOp { .. } => true,
            Expr::Binary { op, .. } => op.is_boolean(),
            _ => false,
        };
        if let (true, Some(rec)) = (relop, self.linter()) {
            let UnitLoc {
                stage,
                slot,
                stateful,
            } = rec.unit;
            rec.sites.relops.push(DecidedRelop {
                stage,
                slot,
                stateful,
                taken,
            });
        }
    }

    /// Record the operands of the arithmetic `expr` on the path with
    /// `decisions`.
    fn note_operands(
        &mut self,
        expr: &Expr,
        op: BinOp,
        terms: [TermId; 2],
        decisions: &[Decision],
    ) {
        let pc = self.stmt_pc;
        let Some(rec) = self.linter() else { return };
        let site = Site::Operands {
            unit: rec.unit,
            pc,
            expr: expr as *const Expr as usize,
            sym: op.symbol(),
        };
        rec.visit(site, terms, decisions);
    }

    /// Mirror of `Evaluator::eval` over terms; mux arms need not be
    /// forced eagerly (terms are pure), but every operand is evaluated so
    /// that state reads and operand sites match the concrete semantics.
    fn eval(&mut self, expr: &Expr, state: &[TermId], decisions: &[Decision]) -> TermId {
        match expr {
            Expr::Const(v) => self.store.konst(*v),
            Expr::Var(name) => {
                if let Some(i) = self.spec.packet_field_index(name) {
                    return match self.operands.get(i) {
                        Some(&t) => t,
                        None => self.store.konst(0),
                    };
                }
                if let Some(i) = self.spec.state_var_index(name) {
                    self.pending.retain(|&(var, _)| var != i);
                    return match state.get(i) {
                        Some(&t) => t,
                        None => self.store.konst(0),
                    };
                }
                let v = self.hole(name);
                self.store.konst(v)
            }
            Expr::CConst { hole } => {
                let v = self.hole(hole);
                self.store.konst(v)
            }
            Expr::Opt { hole, arg } => {
                let x = self.eval(arg, state, decisions);
                if self.hole(hole) == 0 {
                    x
                } else {
                    self.store.konst(0)
                }
            }
            Expr::Mux2 { hole, a, b } => {
                let a = self.eval(a, state, decisions);
                let b = self.eval(b, state, decisions);
                if self.hole(hole) == 0 {
                    a
                } else {
                    b
                }
            }
            Expr::Mux3 { hole, a, b, c } => {
                let a = self.eval(a, state, decisions);
                let b = self.eval(b, state, decisions);
                let c = self.eval(c, state, decisions);
                match self.hole(hole) {
                    0 => a,
                    1 => b,
                    _ => c,
                }
            }
            Expr::RelOp { hole, a, b } => {
                let a = self.eval(a, state, decisions);
                let b = self.eval(b, state, decisions);
                let op = match self.hole(hole) & 3 {
                    0 => BinOp::Ge,
                    1 => BinOp::Le,
                    2 => BinOp::Eq,
                    _ => BinOp::Ne,
                };
                self.store.bin(op, a, b)
            }
            Expr::ArithOp { hole, a, b } => {
                let a = self.eval(a, state, decisions);
                let b = self.eval(b, state, decisions);
                let op = if self.hole(hole) & 1 == 0 {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                self.note_operands(expr, op, [a, b], decisions);
                self.store.bin(op, a, b)
            }
            Expr::Binary { op, l, r } => {
                let l = self.eval(l, state, decisions);
                let r = self.eval(r, state, decisions);
                if matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
                ) {
                    self.note_operands(expr, *op, [l, r], decisions);
                }
                self.store.bin(*op, l, r)
            }
            Expr::Unary { op, x } => {
                let x = self.eval(x, state, decisions);
                self.store.un(*op, x)
            }
        }
    }
}

/// Symbolic stack machine over the SCC-inline bytecode, mirroring
/// `BytecodeProgram::run_with_coverage` (out-of-range reads push 0,
/// `JumpIfZero` takes on falsy, `Halt` yields the entry-captured default
/// output). Every conditional jump is recorded as a branch site of
/// coverage site `site`.
fn sym_eval_bytecode(
    store: &mut TermStore,
    prog: &BytecodeProgram,
    operands: &[TermId],
    state_in: &[TermId],
    site: u32,
    mut rec: Recorder,
) -> Option<AluPaths> {
    struct P {
        pc: usize,
        stack: Vec<TermId>,
        state: Vec<TermId>,
        decisions: Vec<Decision>,
    }
    let instrs = prog.instrs();
    let zero = store.konst(0);
    let default = state_in.first().copied().unwrap_or(zero);
    let mut work = vec![P {
        pc: 0,
        stack: Vec::new(),
        state: state_in.to_vec(),
        decisions: Vec::new(),
    }];
    let mut out = Vec::new();
    let mut steps = 0usize;
    while let Some(mut p) = work.pop() {
        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return None;
            }
            let Some(instr) = instrs.get(p.pc) else {
                out.push((p.decisions, default, p.state));
                break;
            };
            match *instr {
                Instr::Const(v) => {
                    let t = store.konst(v);
                    p.stack.push(t);
                    p.pc += 1;
                }
                Instr::Operand(i) => {
                    p.stack
                        .push(operands.get(i as usize).copied().unwrap_or(zero));
                    p.pc += 1;
                }
                Instr::State(i) => {
                    p.stack
                        .push(p.state.get(i as usize).copied().unwrap_or(zero));
                    p.pc += 1;
                }
                Instr::Bin(op) => {
                    let r = p.stack.pop()?;
                    let l = p.stack.pop()?;
                    p.stack.push(store.bin(op, l, r));
                    p.pc += 1;
                }
                Instr::Un(op) => {
                    let x = p.stack.pop()?;
                    p.stack.push(store.un(op, x));
                    p.pc += 1;
                }
                Instr::StoreState(i) => {
                    let v = p.stack.pop()?;
                    let slot = p.state.get_mut(i as usize)?;
                    *slot = v;
                    p.pc += 1;
                }
                Instr::JumpIfZero(target) => {
                    let v = p.stack.pop()?;
                    let pc = p.pc as u32;
                    rec.visit(Site::Branch { site, pc }, [v, v], &p.decisions);
                    match store.truth(v) {
                        Tri::True => p.pc += 1,
                        Tri::False => p.pc = target as usize,
                        Tri::Unknown => {
                            let mut jumped = P {
                                pc: target as usize,
                                stack: p.stack.clone(),
                                state: p.state.clone(),
                                decisions: p.decisions.clone(),
                            };
                            jumped.decisions.push((v, false));
                            work.push(jumped);
                            p.decisions.push((v, true));
                            p.pc += 1;
                        }
                    }
                }
                Instr::Jump(target) => p.pc = target as usize,
                Instr::ReturnValue => {
                    let v = p.stack.pop()?;
                    out.push((p.decisions, v, p.state));
                    break;
                }
                Instr::Halt => {
                    out.push((p.decisions, default, p.state));
                    break;
                }
            }
        }
        if out.len() + work.len() > MAX_PATHS {
            return None;
        }
    }
    Some(out)
}

/// Dispatch one pipeline ALU unit to its symbolic executor. Returns the
/// per-path `(decisions, output, state')` fan-out.
fn exec_unit(
    store: &mut TermStore,
    unit: &AluUnit,
    phv: &[TermId],
    state_in: &[TermId],
    rec: Recorder,
) -> Option<AluPaths> {
    let spec = unit.spec();
    let zero = store.konst(0);
    let operands: Vec<TermId> = (0..spec.operand_count())
        .map(|k| phv.get(unit.operand_selection(k)).copied().unwrap_or(zero))
        .collect();
    if let Some(holes) = unit.hole_env() {
        return AluWalk::new(store, spec, holes, &operands, rec).run(state_in);
    }
    if let Some(sspec) = unit.specialized_spec() {
        let empty = HashMap::new();
        return AluWalk::new(store, sspec, &empty, &operands, rec).run(state_in);
    }
    if let Some(prog) = unit.bytecode() {
        return sym_eval_bytecode(store, prog, &operands, state_in, unit.site(), rec);
    }
    None
}

// ---------------------------------------------------------------------
// Whole-pipeline executors
// ---------------------------------------------------------------------

/// One in-flight whole-pipeline path (staged backends).
#[derive(Clone)]
struct GPath {
    decisions: Vec<Decision>,
    phv: Vec<TermId>,
    state: Vec<Vec<Vec<TermId>>>,
}

/// A decided rel-op event located at a pipeline site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DecidedRelop {
    stage: u32,
    slot: u32,
    stateful: bool,
    taken: bool,
}

/// Symbolically execute one invocation of a generated pipeline, recording
/// its sites into `sites`.
pub(crate) fn sym_run_pipeline(
    store: &mut TermStore,
    pipeline: &Pipeline,
    spec: &PipelineSpec,
    sites: &mut Sites,
) -> Option<SymTransfer> {
    let cfg = *pipeline.config();
    let n_state = spec.stateful_alu.state_vars.len();

    let phv0: Vec<TermId> = (0..cfg.phv_length)
        .map(|c| store.sym(Sym::Phv(c as u32), AbsVal::top()))
        .collect();
    let state0: Vec<Vec<Vec<TermId>>> = (0..cfg.depth)
        .map(|si| {
            (0..cfg.width)
                .map(|slot| {
                    (0..n_state)
                        .map(|var| {
                            store.sym(
                                Sym::State {
                                    stage: si as u32,
                                    slot: slot as u32,
                                    var: var as u32,
                                },
                                AbsVal::top(),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let completed: Vec<(Vec<Decision>, Vec<TermId>)> = match pipeline.fused_program() {
        Some(fp) => sym_run_fused(store, fp, &phv0, &state0, sites)?,
        None => sym_run_staged(store, pipeline, &cfg, phv0, state0, sites)?,
    };

    let merged = merge_paths(store, &completed)?;
    let (phv, flat_state) = merged.split_at(cfg.phv_length);
    let mut it = flat_state.iter().copied();
    let state: Vec<Vec<Vec<TermId>>> = (0..cfg.depth)
        .map(|_| {
            (0..cfg.width)
                .map(|_| {
                    (0..n_state)
                        .map(|_| it.next().expect("state arity"))
                        .collect()
                })
                .collect()
        })
        .collect();
    Some(SymTransfer {
        phv: phv.to_vec(),
        state,
    })
}

/// Flatten a path's observables into the merge value vector: the output
/// containers, then the state cells stage-, slot-, then var-major.
pub(crate) fn flatten(phv: &[TermId], state: &[Vec<Vec<TermId>>]) -> Vec<TermId> {
    let mut v = phv.to_vec();
    for row in state {
        for slot in row {
            v.extend_from_slice(slot);
        }
    }
    v
}

/// Staged symbolic execution (Unoptimized / Scc / SccInline), mirroring
/// the concrete `run_once_staged` order: selected stateless ALUs in slot
/// order, then every stateful ALU in slot order, then the output muxes.
/// Unselected stateless ALUs are skipped on every backend (pure and
/// unobservable; the fuser does not even emit them), which keeps the
/// global decision sequences of staged and fused execution identical.
/// An unselected ALU is still walked on every path for its sites (the
/// concrete staged backends run it), without forking.
fn sym_run_staged(
    store: &mut TermStore,
    pipeline: &Pipeline,
    cfg: &druzhba_core::PipelineConfig,
    phv0: Vec<TermId>,
    state0: Vec<Vec<Vec<TermId>>>,
    sites: &mut Sites,
) -> Option<Vec<(Vec<Decision>, Vec<TermId>)>> {
    let width = cfg.width;
    let zero = store.konst(0);
    let mut paths = vec![GPath {
        decisions: Vec::new(),
        phv: phv0,
        state: state0,
    }];

    for (si, stage) in pipeline.stages().iter().enumerate() {
        let selected: Vec<bool> = (0..width)
            .map(|slot| (0..cfg.phv_length).any(|c| stage.output_selection(c) == 1 + slot))
            .collect();

        // Per-path scratch outputs for this stage.
        struct StagePath {
            gp: GPath,
            stateless_out: Vec<TermId>,
            stateful_out: Vec<TermId>,
        }
        let mut sub: Vec<StagePath> = paths
            .drain(..)
            .map(|gp| StagePath {
                gp,
                stateless_out: Vec::with_capacity(width),
                stateful_out: Vec::with_capacity(width),
            })
            .collect();

        for (slot, unit) in stage.stateless_alus().iter().enumerate() {
            let unit_loc = UnitLoc {
                stage: si as u32,
                slot: slot as u32,
                stateful: false,
            };
            if !selected[slot] {
                for s in &sub {
                    let rec = Recorder {
                        sites: &mut *sites,
                        unit: unit_loc,
                        lint: false,
                        prefix: &s.gp.decisions,
                    };
                    exec_unit(store, unit, &s.gp.phv, &[], rec)?;
                }
                for s in &mut sub {
                    s.stateless_out.push(zero);
                }
                continue;
            }
            let mut next_sub = Vec::new();
            for s in sub {
                let rec = Recorder {
                    sites: &mut *sites,
                    unit: unit_loc,
                    lint: true,
                    prefix: &s.gp.decisions,
                };
                let results = exec_unit(store, unit, &s.gp.phv, &[], rec)?;
                for (decs, out, _st) in results {
                    let mut s2 = StagePath {
                        gp: s.gp.clone(),
                        stateless_out: s.stateless_out.clone(),
                        stateful_out: s.stateful_out.clone(),
                    };
                    s2.gp.decisions.extend(decs);
                    s2.stateless_out.push(out);
                    next_sub.push(s2);
                }
                if next_sub.len() > MAX_PATHS {
                    return None;
                }
            }
            sub = next_sub;
        }

        for (slot, unit) in stage.stateful_alus().iter().enumerate() {
            let unit_loc = UnitLoc {
                stage: si as u32,
                slot: slot as u32,
                stateful: true,
            };
            let mut next_sub = Vec::new();
            for s in sub {
                let state_in = s.gp.state[si][slot].clone();
                let rec = Recorder {
                    sites: &mut *sites,
                    unit: unit_loc,
                    lint: true,
                    prefix: &s.gp.decisions,
                };
                let results = exec_unit(store, unit, &s.gp.phv, &state_in, rec)?;
                for (decs, out, st) in results {
                    let mut s2 = StagePath {
                        gp: s.gp.clone(),
                        stateless_out: s.stateless_out.clone(),
                        stateful_out: s.stateful_out.clone(),
                    };
                    s2.gp.decisions.extend(decs);
                    s2.stateful_out.push(out);
                    s2.gp.state[si][slot] = st;
                    next_sub.push(s2);
                }
                if next_sub.len() > MAX_PATHS {
                    return None;
                }
            }
            sub = next_sub;
        }

        // Output multiplexers: 0 pass-through, 1..=w stateless, else
        // stateful — identical to the concrete pipelines.
        for s in &mut sub {
            let mut next = s.gp.phv.clone();
            for (c, out) in next.iter_mut().enumerate() {
                let sel = stage.output_selection(c);
                if (1..=width).contains(&sel) {
                    *out = s.stateless_out[sel - 1];
                } else if sel > width {
                    *out = s.stateful_out[sel - 1 - width];
                }
            }
            s.gp.phv = next;
        }
        paths = sub.into_iter().map(|s| s.gp).collect();
    }

    Some(
        paths
            .into_iter()
            .map(|gp| (gp.decisions, flatten(&gp.phv, &gp.state)))
            .collect(),
    )
}

/// Fused symbolic execution: the whole register program in one path
/// space, state windows seeded from the entry symbols and read back at
/// the end. Every conditional jump is recorded as a `FUSED_SITE` branch
/// site.
fn sym_run_fused(
    store: &mut TermStore,
    fp: &FusedPipeline,
    phv0: &[TermId],
    state0: &[Vec<Vec<TermId>>],
    sites: &mut Sites,
) -> Option<Vec<(Vec<Decision>, Vec<TermId>)>> {
    let phv_len = fp.phv_len();
    let zero = store.konst(0);
    let mut frame = vec![zero; fp.frame_len()];
    frame[..phv_len].copy_from_slice(phv0);
    for (si, row) in fp.state_regs().iter().enumerate() {
        for (slot, &(first, count)) in row.iter().enumerate() {
            for v in 0..count as usize {
                frame[first as usize + v] = state0[si][slot][v];
            }
        }
    }

    struct P {
        pc: usize,
        frame: Vec<TermId>,
        decisions: Vec<Decision>,
    }
    let instrs = fp.instrs();
    let mut work = vec![P {
        pc: 0,
        frame,
        decisions: Vec::new(),
    }];
    let mut out = Vec::new();
    let mut steps = 0usize;
    while let Some(mut p) = work.pop() {
        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return None;
            }
            let Some(instr) = instrs.get(p.pc) else {
                // End of program: read the observables back out.
                let phv = p.frame[..phv_len].to_vec();
                let state: Vec<Vec<Vec<TermId>>> = fp
                    .state_regs()
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&(first, count)| {
                                (0..count as usize)
                                    .map(|v| p.frame[first as usize + v])
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                out.push((p.decisions, flatten(&phv, &state)));
                break;
            };
            // Conditional jumps yield `(tested value, target)`.
            let (cond, target) = match *instr {
                FusedInstr::Const { dst, v } => {
                    p.frame[dst as usize] = store.konst(v);
                    p.pc += 1;
                    continue;
                }
                FusedInstr::Copy { dst, src } => {
                    p.frame[dst as usize] = p.frame[src as usize];
                    p.pc += 1;
                    continue;
                }
                FusedInstr::Bin { op, dst, l, r } => {
                    let t = store.bin(op, p.frame[l as usize], p.frame[r as usize]);
                    p.frame[dst as usize] = t;
                    p.pc += 1;
                    continue;
                }
                FusedInstr::BinImm { op, dst, l, imm } => {
                    let i = store.konst(imm);
                    let t = store.bin(op, p.frame[l as usize], i);
                    p.frame[dst as usize] = t;
                    p.pc += 1;
                    continue;
                }
                FusedInstr::Un { op, dst, src } => {
                    let t = store.un(op, p.frame[src as usize]);
                    p.frame[dst as usize] = t;
                    p.pc += 1;
                    continue;
                }
                FusedInstr::Jump { target } => {
                    p.pc = target as usize;
                    continue;
                }
                FusedInstr::JumpIfZero { src, target } => (p.frame[src as usize], target),
                FusedInstr::CmpJumpIfZero { op, l, r, target } => (
                    store.bin(op, p.frame[l as usize], p.frame[r as usize]),
                    target,
                ),
                FusedInstr::CmpImmJumpIfZero { op, l, imm, target } => {
                    let i = store.konst(imm);
                    (store.bin(op, p.frame[l as usize], i), target)
                }
            };
            sites.visits.push(Visit {
                site: Site::Branch {
                    site: FUSED_SITE,
                    pc: p.pc as u32,
                },
                terms: [cond, cond],
                decisions: p.decisions.clone(),
            });
            match store.truth(cond) {
                Tri::True => p.pc += 1,
                Tri::False => p.pc = target as usize,
                Tri::Unknown => {
                    let mut jumped = P {
                        pc: target as usize,
                        frame: p.frame.clone(),
                        decisions: p.decisions.clone(),
                    };
                    jumped.decisions.push((cond, false));
                    work.push(jumped);
                    p.decisions.push((cond, true));
                    p.pc += 1;
                }
            }
        }
        if out.len() + work.len() > MAX_PATHS {
            return None;
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Validation and lints
// ---------------------------------------------------------------------

/// The `Unknown` verdict of a source side that has no transfer function.
pub(crate) fn source_bailed(level: &'static str) -> SymbolicVerdict {
    SymbolicVerdict::Unknown {
        residuals: vec![SymbolicResidual {
            level,
            site: "<source not symbolically executable>".to_string(),
        }],
    }
}

/// The symbolic verdict of both stacks: a flattened source transfer
/// function against compiled ones, each keyed by its backend and `None`
/// where the executor bailed, site by site. The first provably disjoint
/// pair refutes, with an all-zeros witness PHV of `witness_len`
/// containers; unequal but overlapping terms are residuals.
pub(crate) fn compare_transfers(
    store: &TermStore,
    (source_level, src): (&'static str, Option<Vec<TermId>>),
    compiled: impl IntoIterator<Item = (&'static str, Option<Vec<TermId>>)>,
    site: impl Fn(usize) -> String,
    witness_len: usize,
) -> SymbolicVerdict {
    let Some(src) = src else {
        return source_bailed(source_level);
    };
    let mut residuals = Vec::new();
    for (level, cmp) in compiled {
        let Some(cmp) = cmp else {
            let site = "<backend not symbolically executable>".to_string();
            residuals.push(SymbolicResidual { level, site });
            continue;
        };
        for (i, (&ta, &tb)) in src.iter().zip(&cmp).enumerate() {
            if ta == tb {
                continue;
            }
            let site = site(i);
            if store.abs(ta).is_disjoint(store.abs(tb)) {
                // Disjoint abstractions: *every* valuation is a witness.
                let va = store.eval(ta, &|_| 0);
                let vb = store.eval(tb, &|_| 0);
                debug_assert_ne!(va, vb, "disjoint terms must differ under zeros");
                if va != vb {
                    return SymbolicVerdict::Refuted {
                        level,
                        site,
                        cex: vec![0; witness_len],
                    };
                }
            }
            residuals.push(SymbolicResidual { level, site });
        }
    }
    if residuals.is_empty() {
        SymbolicVerdict::Proved
    } else {
        SymbolicVerdict::Unknown { residuals }
    }
}

/// Lints of symbolic facts about a transfer function `tr` and its
/// recorded `sites`: constant-output containers, state updates
/// independent of packet input, and rel-ops decided for every packet.
pub(crate) fn fact_lints(
    store: &TermStore,
    cfg: &druzhba_core::PipelineConfig,
    tr: &SymTransfer,
    sites: &Sites,
) -> Vec<LintRecord> {
    let mut out = Vec::new();

    for (c, &t) in tr.phv.iter().enumerate() {
        if let Some(v) = store.as_const(t) {
            out.push(LintRecord {
                stage: cfg.depth as u32,
                pc: c as u32,
                code: "constant-output",
                message: format!(
                    "container {c} leaves the pipeline holding the constant {v} for every packet"
                ),
            });
        }
    }

    for (si, row) in tr.state.iter().enumerate() {
        for (slot, vars) in row.iter().enumerate() {
            for (var, &t) in vars.iter().enumerate() {
                let init = Node::Sym(Sym::State {
                    stage: si as u32,
                    slot: slot as u32,
                    var: var as u32,
                });
                if store.node(t) != init && !store.depends_on_phv(t) {
                    out.push(LintRecord {
                        stage: si as u32,
                        pc: (1 << 15) | ((slot as u32) << 8) | (var as u32 & 0xFF),
                        code: "input-independent-write",
                        message: format!(
                            "state[{si}][{slot}][{var}] is updated without reading any \
                             packet input"
                        ),
                    });
                }
            }
        }
    }

    let events: BTreeSet<DecidedRelop> = sites.relops.iter().copied().collect();
    for e in events {
        out.push(LintRecord {
            stage: e.stage,
            pc: (u32::from(e.stateful) << 15) | (e.slot << 8),
            code: "always-taken-relop",
            message: format!(
                "{} ALU slot {} has a rel-op condition that is {} for every packet",
                if e.stateful { "stateful" } else { "stateless" },
                e.slot,
                if e.taken {
                    "always true"
                } else {
                    "always false"
                }
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------
// The P4 stack: the tables the Scc level of `dgen::mat` resolves (the
// source semantics) vs the lowered fused `MatInstr` program built from
// them. Both executors walk what `MatPipeline::generate` built; this
// module resolves no P4 of its own.
// ---------------------------------------------------------------------

use druzhba_dgen::mat::{MatInstr, MatPipeline, SlotOp, SlotPattern, Src, StateLayout};
use druzhba_p4::hlir::Hlir;
use druzhba_p4::lower::RmtLowering;
use druzhba_p4::tables::TableEntry;

/// Longest register-select chain built for a non-constant index before
/// the executor bails.
const MAX_REG_SELECT: usize = 256;

/// Register read with hardware semantics (`idx >= len` reads 0). A
/// non-constant index builds a select chain; both P4 executors share
/// this helper so their terms align.
fn reg_read_term(
    store: &mut TermStore,
    regs: &[TermId],
    base: usize,
    len: usize,
    idx: TermId,
) -> Option<TermId> {
    if let Some(i) = store.as_const(idx) {
        return Some(if (i as usize) < len {
            regs[base + i as usize]
        } else {
            store.konst(0)
        });
    }
    if len > MAX_REG_SELECT {
        return None;
    }
    let mut acc = store.konst(0);
    for i in (0..len).rev() {
        let iv = store.konst(i as Value);
        let hit = store.bin(BinOp::Eq, idx, iv);
        acc = store.ite(hit, regs[base + i], acc);
    }
    Some(acc)
}

/// Register write (`idx >= len` drops the write); select-guarded per
/// cell for a non-constant index.
fn reg_write_term(
    store: &mut TermStore,
    regs: &mut [TermId],
    base: usize,
    len: usize,
    idx: TermId,
    v: TermId,
) -> Option<()> {
    if let Some(i) = store.as_const(idx) {
        if (i as usize) < len {
            regs[base + i as usize] = v;
        }
        return Some(());
    }
    if len > MAX_REG_SELECT {
        return None;
    }
    for i in 0..len {
        let iv = store.konst(i as Value);
        let hit = store.bin(BinOp::Eq, idx, iv);
        regs[base + i] = store.ite(hit, v, regs[base + i]);
    }
    Some(())
}

/// One in-flight path through the P4 pipeline (either executor).
#[derive(Clone)]
pub(crate) struct P4Path {
    pub frame: Vec<TermId>,
    snap: Vec<TermId>,
    regs: Vec<TermId>,
    decisions: Vec<Decision>,
}

impl P4Path {
    fn observables(&self) -> Vec<TermId> {
        let mut v = self.frame.clone();
        v.extend_from_slice(&self.regs);
        v
    }
}

fn p4_src_term(store: &mut TermStore, frame: &[TermId], src: Src) -> TermId {
    match src {
        Src::Slot(i) => frame[i],
        Src::Const(v) => store.konst(v),
    }
}

/// Apply one resolved primitive to the live frame. Register operands
/// address `regs`; counters are unobservable and ignored; the `no_op`
/// self-copy leaves the term unchanged.
fn p4_apply_op(
    store: &mut TermStore,
    p: &mut P4Path,
    op: SlotOp,
    regs: &StateLayout,
    drop_slot: usize,
) -> Option<()> {
    match op {
        SlotOp::Set { dst, src } => p.frame[dst] = p4_src_term(store, &p.frame, src),
        SlotOp::Add { dst, src } => {
            let v = p4_src_term(store, &p.frame, src);
            p.frame[dst] = store.bin(BinOp::Add, p.frame[dst], v);
        }
        SlotOp::Sub { dst, src } => {
            let v = p4_src_term(store, &p.frame, src);
            p.frame[dst] = store.bin(BinOp::Sub, p.frame[dst], v);
        }
        SlotOp::RegRead { dst, reg, idx } => {
            let (base, len) = regs.span(reg);
            let i = p4_src_term(store, &p.frame, idx);
            p.frame[dst] = reg_read_term(store, &p.regs, base, len, i)?;
        }
        SlotOp::RegWrite { reg, idx, src } => {
            let (base, len) = regs.span(reg);
            let i = p4_src_term(store, &p.frame, idx);
            let v = p4_src_term(store, &p.frame, src);
            reg_write_term(store, &mut p.regs, base, len, i, v)?;
        }
        SlotOp::Count { .. } => {}
        SlotOp::Drop => p.frame[drop_slot] = store.konst(1),
    }
    Some(())
}

/// The match condition of one pattern against the stage snapshot, built
/// in the exact shape both executors share; `None` for a zero-length LPM
/// prefix, which matches every packet and so adds no condition.
fn pattern_cond(store: &mut TermStore, snap: &[TermId], pat: SlotPattern) -> Option<TermId> {
    let (subject, value) = match pat {
        SlotPattern::Exact { slot, value } => (snap[slot], value),
        SlotPattern::Ternary { slot, value, mask } => {
            let m = store.konst(mask);
            (store.bit_and(snap[slot], m), value)
        }
        SlotPattern::Lpm { shift, .. } if shift >= 32 => return None,
        SlotPattern::Lpm { slot, value, shift } => (store.shr(snap[slot], shift), value),
    };
    let v = store.konst(value);
    Some(store.bin(BinOp::Eq, subject, v))
}

/// Symbolically execute the source semantics: the resolved tables of
/// `scc`, an [`OptLevel::Scc`] pipeline. Stages run in order (snapshot at
/// each boundary), tables in control order within a stage, entries
/// first-hit in resolved order (≡ longest-prefix for LPM tables), and the
/// hit entry's action on the live frame. Each hit is recorded into
/// `sites` under the entry's file-order index.
pub(crate) fn sym_run_hlir(
    store: &mut TermStore,
    scc: &MatPipeline,
    entry_path: P4Path,
    sites: &mut Sites,
) -> Option<Vec<(Vec<Decision>, Vec<TermId>)>> {
    let stages = scc
        .resolved_stages()
        .expect("the Scc level exposes its resolved tables");
    let regs = scc.register_layout();
    let drop_slot = scc.layout().drop_flag();
    let mut paths = vec![entry_path];
    for stage in stages {
        for p in &mut paths {
            p.snap.copy_from_slice(&p.frame);
        }
        for table in stage {
            let mut done = Vec::new();
            // (path, entry index, pattern index) — first-hit scan.
            let mut work: Vec<(P4Path, usize, usize)> =
                paths.drain(..).map(|p| (p, 0, 0)).collect();
            while let Some((mut p, e, k)) = work.pop() {
                let Some(entry) = table.entries.get(e) else {
                    // Every entry missed: default action (if any).
                    for &op in table.default_action.iter().flatten() {
                        p4_apply_op(store, &mut p, op, regs, drop_slot)?;
                    }
                    done.push(p);
                    continue;
                };
                let Some(&pat) = entry.patterns.get(k) else {
                    // Hit: run the action, skip the rest of the table.
                    sites.visits.push(Visit {
                        site: Site::Entry {
                            table: table.table as u32,
                            entry: entry.index as u32,
                        },
                        terms: [store.konst(1); 2],
                        decisions: p.decisions.clone(),
                    });
                    for &op in &entry.action {
                        p4_apply_op(store, &mut p, op, regs, drop_slot)?;
                    }
                    done.push(p);
                    continue;
                };
                let Some(cond) = pattern_cond(store, &p.snap, pat) else {
                    work.push((p, e, k + 1));
                    continue;
                };
                match store.truth(cond) {
                    Tri::True => work.push((p, e, k + 1)),
                    Tri::False => work.push((p, e + 1, 0)),
                    Tri::Unknown => {
                        let mut hit = p.clone();
                        hit.decisions.push((cond, true));
                        work.push((hit, e, k + 1));
                        p.decisions.push((cond, false));
                        work.push((p, e + 1, 0));
                    }
                }
                if done.len() + work.len() > MAX_PATHS {
                    return None;
                }
            }
            paths = done;
        }
    }
    Some(
        paths
            .into_iter()
            .map(|p| (p.observables(), p))
            .map(|(o, p)| (p.decisions, o))
            .collect(),
    )
}

/// Symbolically execute the lowered fused `MatInstr` program.
pub(crate) fn sym_run_mat(
    store: &mut TermStore,
    prog: &[MatInstr],
    entry_path: P4Path,
) -> Option<Vec<(Vec<Decision>, Vec<TermId>)>> {
    let mut work = vec![(entry_path, 0usize)];
    let mut out = Vec::new();
    let mut steps = 0usize;
    while let Some((mut p, mut pc)) = work.pop() {
        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return None;
            }
            let Some(instr) = prog.get(pc) else {
                let obs = p.observables();
                out.push((p.decisions, obs));
                break;
            };
            match *instr {
                MatInstr::Snapshot => {
                    p.snap.copy_from_slice(&p.frame);
                    pc += 1;
                }
                MatInstr::CmpExact { .. }
                | MatInstr::CmpTernary { .. }
                | MatInstr::CmpLpm { .. } => {
                    let (pat, miss) = instr.compare().expect("a compare instruction");
                    let Some(cond) = pattern_cond(store, &p.snap, pat) else {
                        pc += 1;
                        continue;
                    };
                    match store.truth(cond) {
                        Tri::True => pc += 1,
                        Tri::False => pc = miss,
                        Tri::Unknown => {
                            let mut missed = p.clone();
                            missed.decisions.push((cond, false));
                            work.push((missed, miss));
                            p.decisions.push((cond, true));
                            pc += 1;
                        }
                    }
                }
                MatInstr::Jump { target } => pc = target,
                MatInstr::Set { dst, src } => {
                    p.frame[dst] = p4_src_term(store, &p.frame, src);
                    pc += 1;
                }
                MatInstr::Add { dst, src } => {
                    let v = p4_src_term(store, &p.frame, src);
                    p.frame[dst] = store.bin(BinOp::Add, p.frame[dst], v);
                    pc += 1;
                }
                MatInstr::Sub { dst, src } => {
                    let v = p4_src_term(store, &p.frame, src);
                    p.frame[dst] = store.bin(BinOp::Sub, p.frame[dst], v);
                    pc += 1;
                }
                MatInstr::RegRead {
                    dst,
                    base,
                    len,
                    idx,
                } => {
                    let i = p4_src_term(store, &p.frame, idx);
                    p.frame[dst] = reg_read_term(store, &p.regs, base, len, i)?;
                    pc += 1;
                }
                MatInstr::RegWrite {
                    base,
                    len,
                    idx,
                    src,
                } => {
                    let i = p4_src_term(store, &p.frame, idx);
                    let v = p4_src_term(store, &p.frame, src);
                    reg_write_term(store, &mut p.regs, base, len, i, v)?;
                    pc += 1;
                }
                MatInstr::Count { .. } => pc += 1,
            }
        }
        if out.len() + work.len() > MAX_PATHS {
            return None;
        }
    }
    Some(out)
}

/// The shared P4 entry state: container symbols with the abstract-input
/// widths (metadata folds to 0), zero drop flag, one symbol per cell of
/// the register layout `regs`.
pub(crate) fn p4_entry_path(
    store: &mut TermStore,
    hlir: &Hlir,
    lowering: &RmtLowering,
    regs: &StateLayout,
) -> P4Path {
    let layout = &lowering.layout;
    let phv_len = layout.phv_length();
    let input = crate::p4::abstract_input(hlir, lowering);
    let mut frame = vec![store.konst(0); phv_len];
    for (f, abs) in &input {
        if let Some(c) = layout.container(f) {
            frame[c] = store.sym(Sym::Phv(c as u32), *abs);
        }
    }
    let regs: Vec<TermId> = (0..regs.total())
        .map(|i| store.sym(Sym::RegCell(i as u32), AbsVal::top()))
        .collect();
    P4Path {
        snap: frame.clone(),
        frame,
        regs,
        decisions: Vec::new(),
    }
}

/// Render a P4 comparison site: field name, `drop`, or the cell of a
/// register of `regs`.
pub(crate) fn p4_site(lowering: &RmtLowering, regs: &StateLayout, index: usize) -> String {
    let layout = &lowering.layout;
    let phv_len = layout.phv_length();
    if index < phv_len {
        if index == layout.drop_flag() {
            return "drop".to_string();
        }
        for (f, _) in layout.fields() {
            if layout.container(f) == Some(index) {
                return f.to_string();
            }
        }
        return format!("container[{index}]");
    }
    let mut flat = index - phv_len;
    for (name, _, len) in regs.objects() {
        if flat < len {
            return format!("{name}[{flat}]");
        }
        flat -= len;
    }
    format!("reg[{flat}]")
}

/// Decide whether two table-entry sets drive the lowered pipeline to the
/// same transfer function: both fused `MatInstr` programs are executed
/// from one shared symbolic entry state and their merged observable
/// terms compared. `Some(true)` is a proof that no packet stream under
/// any register pre-state can distinguish the two entry sets —
/// mutation-hunt screening uses it to discard equivalent mutants without
/// spending probe executions. `None` means an executor bailed (path
/// explosion, unmergeable decisions) and the caller must fall back to
/// concrete probing.
pub fn p4_symbolic_entries_equivalent(
    hlir: &Hlir,
    entries_a: &[TableEntry],
    entries_b: &[TableEntry],
    lowering: &RmtLowering,
) -> Option<bool> {
    let fused = |entries| MatPipeline::generate(hlir, entries, lowering, OptLevel::Fused).ok();
    let (a, b) = (fused(entries_a)?, fused(entries_b)?);
    let mut store = TermStore::new();
    let entry_path = p4_entry_path(&mut store, hlir, lowering, a.register_layout());
    let mut transfer = |mat: &MatPipeline| -> Option<Vec<TermId>> {
        let prog = mat
            .fused_program()
            .expect("fused level exposes its program");
        let paths = sym_run_mat(&mut store, prog, entry_path.clone())?;
        merge_paths(&mut store, &paths)
    };
    let ta = transfer(&a)?;
    let tb = transfer(&b)?;
    Some(ta == tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{symbolic_equivalent, symbolic_validate};
    use druzhba_programs::PROGRAMS;

    #[test]
    fn corpus_symbolic_validation_proves_every_backend() {
        for def in &PROGRAMS {
            let compiled = def.compile_cached().expect("corpus compiles");
            let verdict = symbolic_validate(&compiled.pipeline_spec, &compiled.machine_code);
            assert_eq!(
                verdict,
                SymbolicVerdict::Proved,
                "{}: expected a proof of backend equivalence",
                def.name
            );
        }
    }

    #[test]
    fn p4_corpus_symbolic_validation_proves_lowered_program() {
        for def in &druzhba_programs::P4_PROGRAMS {
            let w = def.workload().expect("corpus lowers");
            let analysis =
                crate::p4::analyze_p4(&w.hlir, &w.entries, &w.lowering).expect("analyzes");
            assert_eq!(
                analysis.symbolic,
                SymbolicVerdict::Proved,
                "{}: expected a proof of lowering equivalence",
                def.name
            );
        }
    }

    #[test]
    fn program_is_symbolically_equivalent_to_itself() {
        for def in &PROGRAMS {
            let compiled = def.compile_cached().expect("corpus compiles");
            assert_eq!(
                symbolic_equivalent(
                    &compiled.pipeline_spec,
                    &compiled.machine_code,
                    &compiled.machine_code
                ),
                Some(true),
                "{}: a program must be proven equal to itself",
                def.name
            );
        }
    }
}
