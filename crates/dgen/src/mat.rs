//! The match-action pipeline generator: execute a lowered P4 program on
//! the simulated RMT pipeline at every [`OptLevel`].
//!
//! The paper's dgen generates *"a family of simulators, one for each
//! possible pipeline configuration"* from machine code and an ALU spec.
//! This module is the same idea for the paper's §4 P4 direction: from a
//! resolved program ([`Hlir`]), populated table entries, and an RMT
//! lowering ([`RmtLowering`]), it generates an executable *match-action
//! pipeline description* — and, mirroring the ALU path, each
//! [`OptLevel`] selects a progressively more specialized backend:
//!
//! | Level | Strategy |
//! |-------|----------|
//! | [`OptLevel::Unoptimized`] | fields live in string-keyed maps; every lookup re-resolves names and match kinds at runtime |
//! | [`OptLevel::Scc`] | configuration constants propagated: fields resolved to frame slots, entry arguments folded into the action bodies, statically-false guards eliminated |
//! | [`OptLevel::SccInline`] | each table's match+action logic flattened into a linear compare-and-jump instruction program (per-table bytecode) |
//! | [`OptLevel::Fused`] | the whole pipeline fused into one flat instruction program over a single preallocated frame — zero heap allocations and zero string hashing per packet |
//!
//! **Execution discipline** (DESIGN.md §8): packets traverse stages in
//! order; at each stage boundary the frame is snapshotted, *matches read
//! the stage-entry snapshot* while *actions read and write the live
//! frame* in control order. Because the lowering places every match- and
//! action-dependent table pair in distinct stages, this is exactly
//! equivalent to the sequential reference interpreter
//! ([`druzhba_p4::exec::Interpreter`]) on well-lowered programs — and
//! diverges observably when a lowering or table-entry fault violates a
//! dependency, which is what the differential fuzzer exists to catch.
//!
//! Tables with LPM fields pre-sort their entries by total prefix length
//! (stable, so priority breaks ties); an entry's LPM score is constant —
//! an entry only hits when *all* its patterns match — so the first hit in
//! sorted order is the longest-prefix match, letting the compiled
//! backends use straight-line first-hit chains.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use druzhba_core::{Error, Phv, Result, Trace, Value};
use druzhba_p4::ast::{ActionArg, ActionDecl, MatchKind, Primitive};
use druzhba_p4::exec::{execute_action, initial_counters, initial_registers};
use druzhba_p4::hlir::Hlir;
use druzhba_p4::lower::{FieldLayout, RmtLowering};
use druzhba_p4::tables::{bind, BoundEntry, ProgramTables, TableEntry};

use crate::OptLevel;

/// An instruction operand: a frame slot (live value) or a folded
/// constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Read the live frame slot.
    Slot(usize),
    /// A constant (entry argument or literal), folded at generation time.
    Const(Value),
}

impl Src {
    #[inline]
    fn read(self, cur: &[Value]) -> Value {
        match self {
            Src::Slot(i) => cur[i],
            Src::Const(v) => v,
        }
    }
}

/// One instruction of the compiled match-action backends
/// ([`OptLevel::SccInline`] and [`OptLevel::Fused`]).
///
/// `Cmp*` instructions read the *stage-entry snapshot* and jump to `miss`
/// when the pattern fails; everything else reads/writes the live frame.
/// Jump targets are absolute indices into the owning program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatInstr {
    /// Stage boundary: copy the live frame into the snapshot.
    Snapshot,
    /// Exact match against the snapshot: `if snap[slot] != value -> miss`.
    CmpExact {
        slot: usize,
        value: Value,
        miss: usize,
    },
    /// Ternary match: `if snap[slot] & mask != value -> miss` (`value`
    /// pre-masked).
    CmpTernary {
        slot: usize,
        value: Value,
        mask: Value,
        miss: usize,
    },
    /// LPM match: `if snap[slot] >> shift != value -> miss` (`value`
    /// pre-shifted; zero-length prefixes emit no instruction).
    CmpLpm {
        slot: usize,
        value: Value,
        shift: u32,
        miss: usize,
    },
    /// Unconditional jump (end of a hit entry's action: skip the rest of
    /// the table).
    Jump { target: usize },
    /// `cur[dst] = src`.
    Set { dst: usize, src: Src },
    /// `cur[dst] = cur[dst].wrapping_add(src)`.
    Add { dst: usize, src: Src },
    /// `cur[dst] = cur[dst].wrapping_sub(src)`.
    Sub { dst: usize, src: Src },
    /// `cur[dst] = regs[base + idx]` (0 when `idx >= len`).
    RegRead {
        dst: usize,
        base: usize,
        len: usize,
        idx: Src,
    },
    /// `regs[base + idx] = src` (dropped when `idx >= len`).
    RegWrite {
        base: usize,
        len: usize,
        idx: Src,
        src: Src,
    },
    /// `ctrs[base + idx] += 1` (dropped when `idx >= len`).
    Count { base: usize, len: usize, idx: Src },
}

impl MatInstr {
    /// A compare instruction's pattern and miss target; `None` for every
    /// other instruction.
    pub fn compare(&self) -> Option<(SlotPattern, usize)> {
        match *self {
            MatInstr::CmpExact { slot, value, miss } => {
                Some((SlotPattern::Exact { slot, value }, miss))
            }
            MatInstr::CmpTernary {
                slot,
                value,
                mask,
                miss,
            } => Some((SlotPattern::Ternary { slot, value, mask }, miss)),
            MatInstr::CmpLpm {
                slot,
                value,
                shift,
                miss,
            } => Some((SlotPattern::Lpm { slot, value, shift }, miss)),
            _ => None,
        }
    }
}

/// A resolved match pattern over the stage-entry snapshot's slots (the
/// [`OptLevel::Scc`] representation; the compiled backends emit one
/// `Cmp*` instruction per pattern). Constants are pre-masked and
/// pre-shifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPattern {
    /// `snap[slot] == value`.
    Exact { slot: usize, value: Value },
    /// `snap[slot] & mask == value`.
    Ternary {
        slot: usize,
        value: Value,
        mask: Value,
    },
    /// `snap[slot] >> shift == value`; `shift == 32` encodes a
    /// zero-length prefix, which always matches and compiles to no
    /// instruction.
    Lpm {
        slot: usize,
        value: Value,
        shift: u32,
    },
}

impl SlotPattern {
    #[inline]
    fn matches(self, snap: &[Value]) -> bool {
        match self {
            SlotPattern::Exact { slot, value } => snap[slot] == value,
            SlotPattern::Ternary { slot, value, mask } => snap[slot] & mask == value,
            SlotPattern::Lpm { slot, value, shift } => {
                shift >= 32 || (snap[slot] >> shift) == value
            }
        }
    }
}

/// One resolved action primitive over frame slots, entry arguments folded
/// in (the tree-walking [`OptLevel::Scc`] form; the compiled backends
/// flatten these into [`MatInstr`]s). Register and counter operands index
/// the objects of [`MatPipeline::register_layout`] and the counter
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOp {
    /// `cur[dst] = src`; `no_op` resolves to the self-copy of the drop
    /// flag, which the compiled backends skip.
    Set { dst: usize, src: Src },
    /// `cur[dst] = cur[dst].wrapping_add(src)`.
    Add { dst: usize, src: Src },
    /// `cur[dst] = cur[dst].wrapping_sub(src)`.
    Sub { dst: usize, src: Src },
    /// Read cell `idx` of register `reg` into `cur[dst]` (0 when `idx`
    /// is out of range).
    RegRead { dst: usize, reg: usize, idx: Src },
    /// Write `src` to cell `idx` of register `reg` (dropped when `idx` is
    /// out of range).
    RegWrite { reg: usize, idx: Src, src: Src },
    /// Increment cell `idx` of counter `ctr` (dropped when `idx` is out
    /// of range).
    Count { ctr: usize, idx: Src },
    /// Set the drop flag to 1.
    Drop,
}

/// One resolved entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotEntry {
    /// The entry's index among its table's entries in file order (LPM
    /// tables re-sort their entries, so this is not its position).
    pub index: usize,
    /// Every pattern must match for the entry to hit.
    pub patterns: Vec<SlotPattern>,
    /// The action with the entry's arguments folded in.
    pub action: Vec<SlotOp>,
}

/// One resolved table. Only tables whose validity guards hold are
/// resolved; statically-false guards are eliminated at generation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    /// The table's index among the HLIR's applied tables.
    pub table: usize,
    /// Entries in selection order, the first hit wins: LPM tables sorted
    /// by total prefix length descending, then file order; other tables
    /// in file (priority) order.
    pub entries: Vec<SlotEntry>,
    /// The action taken when no entry hits.
    pub default_action: Option<Vec<SlotOp>>,
}

/// Register/counter cell layout shared by the resolved and compiled
/// backends: object `i` (in declaration order) owns `len[i]` cells
/// starting at `base[i]` of one flat array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateLayout {
    names: Vec<String>,
    base: Vec<usize>,
    len: Vec<usize>,
}

impl StateLayout {
    fn build<'a>(items: impl Iterator<Item = (&'a str, usize)>) -> Self {
        let mut layout = StateLayout::default();
        let mut next = 0;
        for (name, len) in items {
            layout.names.push(name.to_string());
            layout.base.push(next);
            layout.len.push(len);
            next += len;
        }
        layout
    }

    /// The number of cells of all objects together.
    pub fn total(&self) -> usize {
        self.base.last().map_or(0, |b| b + self.len.last().unwrap())
    }

    /// Object `i`'s first cell and cell count.
    pub fn span(&self, i: usize) -> (usize, usize) {
        (self.base[i], self.len[i])
    }

    /// Every object's name, first cell and cell count, in declaration
    /// order.
    pub fn objects(&self) -> impl Iterator<Item = (&str, usize, usize)> {
        (0..self.names.len()).map(|i| (self.names[i].as_str(), self.base[i], self.len[i]))
    }

    fn index_of(&self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).expect("resolved")
    }

    /// Object `name`'s cells of `flat`.
    fn cells<'a, T>(&self, name: &str, flat: &'a [T]) -> Option<&'a [T]> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&flat[self.base[i]..self.base[i] + self.len[i]])
    }

    fn to_map<T: Copy>(&self, flat: &[T]) -> BTreeMap<String, Vec<T>> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n.clone(),
                    flat[self.base[i]..self.base[i] + self.len[i]].to_vec(),
                )
            })
            .collect()
    }
}

/// The interpretive backend state ([`OptLevel::Unoptimized`]).
#[derive(Debug, Clone)]
struct InterpBackend {
    hlir: Hlir,
    tables: ProgramTables,
    /// Stage of each applied table (the one lowering decision that must
    /// be kept — stage placement is the program being executed).
    stage_of: Vec<usize>,
    registers: BTreeMap<String, Vec<Value>>,
    counters: BTreeMap<String, Vec<u64>>,
}

/// The resolved backend state ([`OptLevel::Scc`]).
#[derive(Debug, Clone)]
struct ResolvedBackend {
    /// Per stage: the resolved tables applied there, in control order.
    stages: Vec<Vec<SlotTable>>,
}

/// The per-table bytecode backend state ([`OptLevel::SccInline`]).
#[derive(Debug, Clone)]
struct BytecodeBackend {
    /// Per stage: one instruction program per table, in control order.
    stages: Vec<Vec<Vec<MatInstr>>>,
}

/// The fused whole-pipeline backend state ([`OptLevel::Fused`]).
#[derive(Debug, Clone)]
struct FusedBackend {
    program: Vec<MatInstr>,
}

#[derive(Debug, Clone)]
enum Backend {
    Interp(Box<InterpBackend>),
    Resolved(ResolvedBackend),
    Bytecode(BytecodeBackend),
    Fused(FusedBackend),
}

/// An executable match-action pipeline at one [`OptLevel`].
///
/// Generate one with [`MatPipeline::generate`], drive packets (as PHVs
/// under the lowering's [`FieldLayout`]) with [`MatPipeline::process`] or
/// [`MatPipeline::run`], and read back the final stateful objects with
/// [`MatPipeline::registers`]/[`MatPipeline::counters`].
#[derive(Debug, Clone)]
pub struct MatPipeline {
    level: OptLevel,
    layout: FieldLayout,
    num_stages: usize,
    backend: Backend,
    /// Flat register/counter state shared by the slot-based backends.
    state_layout: StateLayout,
    ctr_layout: StateLayout,
    regs: Vec<Value>,
    ctrs: Vec<u64>,
    /// Preallocated frame buffers (live + stage-entry snapshot).
    cur: Vec<Value>,
    snap: Vec<Value>,
}

impl MatPipeline {
    /// Generate the pipeline description for a lowered program at the
    /// given optimization level. Entry validation follows
    /// [`bind`]; faults that make the entries
    /// unbindable are the P4 analog of "machine code incompatible with
    /// the pipeline".
    pub fn generate(
        hlir: &Hlir,
        entries: &[TableEntry],
        lowering: &RmtLowering,
        level: OptLevel,
    ) -> Result<Self> {
        let tables = bind(hlir, entries)?;
        let layout = lowering.layout.clone();
        let state_layout = StateLayout::build(
            hlir.program
                .registers
                .iter()
                .map(|r| (r.name.as_str(), r.instance_count as usize)),
        );
        let ctr_layout = StateLayout::build(
            hlir.program
                .counters
                .iter()
                .map(|c| (c.name.as_str(), c.instance_count as usize)),
        );
        let num_stages = lowering.num_stages();

        let backend = match level {
            OptLevel::Unoptimized => Backend::Interp(Box::new(InterpBackend {
                hlir: hlir.clone(),
                tables,
                stage_of: lowering.stage_of.clone(),
                registers: initial_registers(hlir),
                counters: initial_counters(hlir),
            })),
            OptLevel::Scc => Backend::Resolved(ResolvedBackend {
                stages: resolve_stages(hlir, &tables, lowering, &state_layout, &ctr_layout)?,
            }),
            OptLevel::SccInline => {
                let resolved = resolve_stages(hlir, &tables, lowering, &state_layout, &ctr_layout)?;
                let drop_slot = layout.drop_flag();
                let stages = resolved
                    .iter()
                    .map(|tabs| {
                        tabs.iter()
                            .map(|t| compile_table(t, drop_slot, &state_layout, &ctr_layout))
                            .collect()
                    })
                    .collect();
                Backend::Bytecode(BytecodeBackend { stages })
            }
            OptLevel::Fused => {
                let resolved = resolve_stages(hlir, &tables, lowering, &state_layout, &ctr_layout)?;
                let drop_slot = layout.drop_flag();
                let mut program = Vec::new();
                for tabs in &resolved {
                    program.push(MatInstr::Snapshot);
                    for t in tabs {
                        let base = program.len();
                        let mut chunk = compile_table(t, drop_slot, &state_layout, &ctr_layout);
                        relocate(&mut chunk, base);
                        program.append(&mut chunk);
                    }
                }
                Backend::Fused(FusedBackend { program })
            }
        };
        let phv_length = layout.phv_length();
        Ok(MatPipeline {
            level,
            layout,
            num_stages,
            backend,
            regs: vec![0; state_layout.total()],
            ctrs: vec![0; ctr_layout.total()],
            state_layout,
            ctr_layout,
            cur: vec![0; phv_length],
            snap: vec![0; phv_length],
        })
    }

    /// The backend's optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Pipeline depth (occupied stages).
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// The field-to-container layout packets are presented in.
    pub fn layout(&self) -> &FieldLayout {
        &self.layout
    }

    /// Reset all registers and counters to zero.
    pub fn reset(&mut self) {
        self.regs.iter_mut().for_each(|v| *v = 0);
        self.ctrs.iter_mut().for_each(|v| *v = 0);
        if let Backend::Interp(b) = &mut self.backend {
            b.registers = initial_registers(&b.hlir);
            b.counters = initial_counters(&b.hlir);
        }
    }

    /// Process one packet (a PHV under the lowering's layout) through
    /// every stage; returns the output PHV.
    pub fn process(&mut self, phv: &Phv) -> Phv {
        Phv::new(self.step(phv).to_vec())
    }

    /// Process one packet like [`MatPipeline::process`], leaving the
    /// output in the pipeline's frame: the returned containers stay valid
    /// until the next packet, and the slot-based backends allocate
    /// nothing.
    pub fn step(&mut self, phv: &Phv) -> &[Value] {
        match &mut self.backend {
            Backend::Interp(b) => {
                // Version-1 semantics: the packet lives in string-keyed
                // maps; every field access hashes names at runtime.
                let mut packet = self.layout.phv_to_packet(0, phv);
                for stage in 0..self.num_stages {
                    let snapshot = packet.clone();
                    for t in 0..b.hlir.tables.len() {
                        if b.stage_of[t] != stage {
                            continue;
                        }
                        if !b.hlir.table_applies(t) {
                            continue;
                        }
                        let Some(sel) = b.tables.table(t).lookup(|p| snapshot.get(&p.field)) else {
                            continue;
                        };
                        let (name, args) = (sel.action.to_string(), sel.args.to_vec());
                        if let Some(action) = b.hlir.program.action(&name) {
                            execute_action(
                                action,
                                &args,
                                &mut packet,
                                &mut b.registers,
                                &mut b.counters,
                            );
                        }
                    }
                }
                for (v, (f, _)) in self.cur.iter_mut().zip(self.layout.fields()) {
                    *v = packet.get(f);
                }
                self.cur[self.layout.drop_flag()] = Value::from(packet.dropped);
            }
            Backend::Resolved(b) => {
                load_frame(&mut self.cur, phv);
                for tabs in &b.stages {
                    self.snap.copy_from_slice(&self.cur);
                    for t in tabs {
                        if let Some(action) = select(t, &self.snap) {
                            run_slot_ops(
                                action,
                                &mut self.cur,
                                self.layout.drop_flag(),
                                &self.state_layout,
                                &self.ctr_layout,
                                &mut self.regs,
                                &mut self.ctrs,
                            );
                        }
                    }
                }
            }
            Backend::Bytecode(b) => {
                load_frame(&mut self.cur, phv);
                for tabs in &b.stages {
                    self.snap.copy_from_slice(&self.cur);
                    for prog in tabs {
                        run_instrs(
                            prog,
                            &mut self.cur,
                            &mut self.snap,
                            &mut self.regs,
                            &mut self.ctrs,
                        );
                    }
                }
            }
            Backend::Fused(b) => {
                load_frame(&mut self.cur, phv);
                run_instrs(
                    &b.program,
                    &mut self.cur,
                    &mut self.snap,
                    &mut self.regs,
                    &mut self.ctrs,
                );
            }
        }
        &self.cur
    }

    /// Run a whole input trace; the output trace holds one PHV per input
    /// packet, in order.
    pub fn run(&mut self, input: &Trace) -> Trace {
        Trace::from_phvs(input.phvs.iter().map(|p| self.process(p)).collect())
    }

    /// Final register contents, normalized by name (comparable across
    /// backends and against the reference interpreter).
    pub fn registers(&self) -> BTreeMap<String, Vec<Value>> {
        match &self.backend {
            Backend::Interp(b) => b.registers.clone(),
            _ => self.state_layout.to_map(&self.regs),
        }
    }

    /// Final counter contents, normalized by name.
    pub fn counters(&self) -> BTreeMap<String, Vec<u64>> {
        match &self.backend {
            Backend::Interp(b) => b.counters.clone(),
            _ => self.ctr_layout.to_map(&self.ctrs),
        }
    }

    /// The final cells of register `name` as [`MatPipeline::registers`]
    /// holds them, read in place; `None` for an undeclared register.
    pub fn register(&self, name: &str) -> Option<&[Value]> {
        match &self.backend {
            Backend::Interp(b) => b.registers.get(name).map(Vec::as_slice),
            _ => self.state_layout.cells(name, &self.regs),
        }
    }

    /// The final cells of counter `name` as [`MatPipeline::counters`]
    /// holds them, read in place; `None` for an undeclared counter.
    pub fn counter(&self, name: &str) -> Option<&[u64]> {
        match &self.backend {
            Backend::Interp(b) => b.counters.get(name).map(Vec::as_slice),
            _ => self.ctr_layout.cells(name, &self.ctrs),
        }
    }

    /// The fused instruction program (for emission and testing); `None`
    /// on non-fused backends.
    pub fn fused_program(&self) -> Option<&[MatInstr]> {
        match &self.backend {
            Backend::Fused(b) => Some(&b.program),
            _ => None,
        }
    }

    /// The resolved tables the [`OptLevel::Scc`] backend walks, per stage
    /// in control order (the form the compiled backends are built from);
    /// `None` on every other backend.
    pub fn resolved_stages(&self) -> Option<&[Vec<SlotTable>]> {
        match &self.backend {
            Backend::Resolved(b) => Some(&b.stages),
            _ => None,
        }
    }

    /// The flat register layout: each register's cells, in declaration
    /// order, as [`SlotOp`] register indices and [`MatInstr`] cell ranges
    /// address them.
    pub fn register_layout(&self) -> &StateLayout {
        &self.state_layout
    }
}

#[inline]
fn load_frame(cur: &mut [Value], phv: &Phv) {
    for (i, v) in cur.iter_mut().enumerate() {
        *v = phv.get(i);
    }
}

/// Scan a resolved table for its selected action (first hit in sorted
/// order wins; see the module docs for why that implements LPM); `None`
/// when nothing hits and the table has no default action.
fn select<'a>(table: &'a SlotTable, snap: &[Value]) -> Option<&'a [SlotOp]> {
    table
        .entries
        .iter()
        .find(|entry| entry.patterns.iter().all(|p| p.matches(snap)))
        .map(|entry| entry.action.as_slice())
        .or(table.default_action.as_deref())
}

/// Execute resolved primitive ops against the live frame.
fn run_slot_ops(
    ops: &[SlotOp],
    cur: &mut [Value],
    drop_slot: usize,
    regs_layout: &StateLayout,
    ctrs_layout: &StateLayout,
    regs: &mut [Value],
    ctrs: &mut [u64],
) {
    for &op in ops {
        match op {
            SlotOp::Set { dst, src } => cur[dst] = src.read(cur),
            SlotOp::Add { dst, src } => cur[dst] = cur[dst].wrapping_add(src.read(cur)),
            SlotOp::Sub { dst, src } => cur[dst] = cur[dst].wrapping_sub(src.read(cur)),
            SlotOp::RegRead { dst, reg, idx } => {
                let i = idx.read(cur) as usize;
                let (base, len) = regs_layout.span(reg);
                cur[dst] = if i < len { regs[base + i] } else { 0 };
            }
            SlotOp::RegWrite { reg, idx, src } => {
                let i = idx.read(cur) as usize;
                let (base, len) = regs_layout.span(reg);
                let v = src.read(cur);
                if i < len {
                    regs[base + i] = v;
                }
            }
            SlotOp::Count { ctr, idx } => {
                let i = idx.read(cur) as usize;
                let (base, len) = ctrs_layout.span(ctr);
                if i < len {
                    ctrs[base + i] += 1;
                }
            }
            SlotOp::Drop => cur[drop_slot] = 1,
        }
    }
}

/// The compiled-instruction executor shared by the bytecode and fused
/// backends: a single program-counter loop, no allocation.
fn run_instrs(
    program: &[MatInstr],
    cur: &mut [Value],
    snap: &mut [Value],
    regs: &mut [Value],
    ctrs: &mut [u64],
) {
    let mut pc = 0;
    while pc < program.len() {
        match program[pc] {
            MatInstr::Snapshot => snap.copy_from_slice(cur),
            MatInstr::CmpExact { slot, value, miss } => {
                let missed = snap[slot] != value;
                if missed {
                    pc = miss;
                    continue;
                }
            }
            MatInstr::CmpTernary {
                slot,
                value,
                mask,
                miss,
            } => {
                let missed = snap[slot] & mask != value;
                if missed {
                    pc = miss;
                    continue;
                }
            }
            MatInstr::CmpLpm {
                slot,
                value,
                shift,
                miss,
            } => {
                let missed = (snap[slot] >> shift) != value;
                if missed {
                    pc = miss;
                    continue;
                }
            }
            MatInstr::Jump { target } => {
                pc = target;
                continue;
            }
            MatInstr::Set { dst, src } => cur[dst] = src.read(cur),
            MatInstr::Add { dst, src } => cur[dst] = cur[dst].wrapping_add(src.read(cur)),
            MatInstr::Sub { dst, src } => cur[dst] = cur[dst].wrapping_sub(src.read(cur)),
            MatInstr::RegRead {
                dst,
                base,
                len,
                idx,
            } => {
                let i = idx.read(cur) as usize;
                cur[dst] = if i < len { regs[base + i] } else { 0 };
            }
            MatInstr::RegWrite {
                base,
                len,
                idx,
                src,
            } => {
                let i = idx.read(cur) as usize;
                let v = src.read(cur);
                if i < len {
                    regs[base + i] = v;
                }
            }
            MatInstr::Count { base, len, idx } => {
                let i = idx.read(cur) as usize;
                if i < len {
                    ctrs[base + i] += 1;
                }
            }
        }
        pc += 1;
    }
}

/// Resolve a bound action-argument into an instruction operand, folding
/// entry arguments to constants.
fn resolve_src(arg: &ActionArg, action: &ActionDecl, args: &[Value], layout: &FieldLayout) -> Src {
    match arg {
        ActionArg::Const(v) => Src::Const(*v),
        ActionArg::Field(f) => Src::Slot(layout.container(f).expect("resolved")),
        ActionArg::Param(p) => {
            let idx = action
                .params
                .iter()
                .position(|q| q == p)
                .unwrap_or(usize::MAX);
            Src::Const(args.get(idx).copied().unwrap_or(0))
        }
        ActionArg::Stateful(_) => Src::Const(0),
    }
}

/// Resolve one action body (entry arguments folded) into slot ops.
fn resolve_action(
    action: &ActionDecl,
    args: &[Value],
    layout: &FieldLayout,
    regs: &StateLayout,
    ctrs: &StateLayout,
) -> Vec<SlotOp> {
    let slot = |f| layout.container(f).expect("resolved");
    action
        .body
        .iter()
        .map(|prim| match prim {
            Primitive::ModifyField { dst, src } => SlotOp::Set {
                dst: slot(dst),
                src: resolve_src(src, action, args, layout),
            },
            Primitive::AddToField { dst, src } => SlotOp::Add {
                dst: slot(dst),
                src: resolve_src(src, action, args, layout),
            },
            Primitive::SubtractFromField { dst, src } => SlotOp::Sub {
                dst: slot(dst),
                src: resolve_src(src, action, args, layout),
            },
            Primitive::RegisterRead {
                dst,
                register,
                index,
            } => SlotOp::RegRead {
                dst: slot(dst),
                reg: regs.index_of(register),
                idx: resolve_src(index, action, args, layout),
            },
            Primitive::RegisterWrite {
                register,
                index,
                src,
            } => SlotOp::RegWrite {
                reg: regs.index_of(register),
                idx: resolve_src(index, action, args, layout),
                src: resolve_src(src, action, args, layout),
            },
            Primitive::Count { counter, index } => SlotOp::Count {
                ctr: ctrs.index_of(counter),
                idx: resolve_src(index, action, args, layout),
            },
            Primitive::Drop => SlotOp::Drop,
            Primitive::NoOp => SlotOp::Set {
                dst: layout.drop_flag(),
                src: Src::Slot(layout.drop_flag()),
            },
        })
        .collect()
}

/// Resolve bound entry `index` into slot patterns (constants pre-masked /
/// pre-shifted).
fn resolve_entry(
    index: usize,
    entry: &BoundEntry,
    decl_action: &ActionDecl,
    layout: &FieldLayout,
    regs: &StateLayout,
    ctrs: &StateLayout,
) -> SlotEntry {
    let patterns = entry
        .patterns
        .iter()
        .map(|p| {
            let slot = layout.container(&p.field).expect("resolved");
            match p.kind {
                MatchKind::Exact => SlotPattern::Exact {
                    slot,
                    value: p.value,
                },
                MatchKind::Ternary => {
                    let mask = p.qualifier.unwrap_or(Value::MAX);
                    SlotPattern::Ternary {
                        slot,
                        value: p.value & mask,
                        mask,
                    }
                }
                MatchKind::Lpm => {
                    let len = p.lpm_len();
                    let shift = p.width - len;
                    if len == 0 {
                        SlotPattern::Lpm {
                            slot,
                            value: 0,
                            shift: 32,
                        }
                    } else {
                        SlotPattern::Lpm {
                            slot,
                            value: p.value >> shift,
                            shift,
                        }
                    }
                }
            }
        })
        .collect();
    SlotEntry {
        index,
        patterns,
        action: resolve_action(decl_action, &entry.args, layout, regs, ctrs),
    }
}

/// Resolve the whole program into per-stage tables (the SCC-propagated
/// form): fields to slots, entry arguments folded, statically-false
/// guards eliminated, LPM entries pre-sorted.
fn resolve_stages(
    hlir: &Hlir,
    tables: &ProgramTables,
    lowering: &RmtLowering,
    regs: &StateLayout,
    ctrs: &StateLayout,
) -> Result<Vec<Vec<SlotTable>>> {
    let layout = &lowering.layout;
    let mut stages: Vec<Vec<SlotTable>> = vec![Vec::new(); lowering.num_stages()];
    for (s, table_indices) in lowering.stages.iter().enumerate() {
        for &t in table_indices {
            if !hlir.table_applies(t) {
                // Dead control path: eliminated, exactly like SCC's dead
                // branch elimination on the ALU side.
                continue;
            }
            let runtime = tables.table(t);
            let mut entries = Vec::with_capacity(runtime.entries.len());
            for (i, e) in runtime.entries.iter().enumerate() {
                let Some(action) = hlir.program.action(&e.action) else {
                    return Err(Error::Other {
                        message: format!("entry action `{}` is not declared", e.action),
                    });
                };
                entries.push(resolve_entry(i, e, action, layout, regs, ctrs));
            }
            if runtime.has_lpm {
                // Longest total prefix first; the stable sort keeps file
                // (priority) order among equal prefixes.
                entries.sort_by_key(|e| Reverse(runtime.entries[e.index].lpm_score));
            }
            let default_action = match &runtime.default_action {
                Some(name) => {
                    let Some(action) = hlir.program.action(name) else {
                        return Err(Error::Other {
                            message: format!("default action `{name}` is not declared"),
                        });
                    };
                    Some(resolve_action(action, &[], layout, regs, ctrs))
                }
                None => None,
            };
            stages[s].push(SlotTable {
                table: t,
                entries,
                default_action,
            });
        }
    }
    Ok(stages)
}

/// Compile one resolved table into a linear compare-and-jump program
/// (targets relative to the program start; [`relocate`] shifts them for
/// fusion).
fn compile_table(
    table: &SlotTable,
    drop_slot: usize,
    regs: &StateLayout,
    ctrs: &StateLayout,
) -> Vec<MatInstr> {
    let mut program: Vec<MatInstr> = Vec::new();
    // Two passes: emit with placeholder targets, then patch. Every entry
    // records (start, patch sites).
    let mut end_jumps: Vec<usize> = Vec::new();
    for entry in &table.entries {
        let mut miss_sites: Vec<usize> = Vec::new();
        for &p in &entry.patterns {
            match p {
                SlotPattern::Exact { slot, value } => {
                    miss_sites.push(program.len());
                    program.push(MatInstr::CmpExact {
                        slot,
                        value,
                        miss: usize::MAX,
                    });
                }
                SlotPattern::Ternary { slot, value, mask } => {
                    miss_sites.push(program.len());
                    program.push(MatInstr::CmpTernary {
                        slot,
                        value,
                        mask,
                        miss: usize::MAX,
                    });
                }
                SlotPattern::Lpm { slot, value, shift } => {
                    if shift < 32 {
                        miss_sites.push(program.len());
                        program.push(MatInstr::CmpLpm {
                            slot,
                            value,
                            shift,
                            miss: usize::MAX,
                        });
                    }
                }
            }
        }
        emit_action(&mut program, &entry.action, drop_slot, regs, ctrs);
        end_jumps.push(program.len());
        program.push(MatInstr::Jump { target: usize::MAX });
        // Misses fall through to the next entry, which starts here.
        let next_entry = program.len();
        for site in miss_sites {
            patch_miss(&mut program[site], next_entry);
        }
    }
    if let Some(default) = &table.default_action {
        emit_action(&mut program, default, drop_slot, regs, ctrs);
    }
    let end = program.len();
    for site in end_jumps {
        program[site] = MatInstr::Jump { target: end };
    }
    program
}

fn emit_action(
    program: &mut Vec<MatInstr>,
    action: &[SlotOp],
    drop_slot: usize,
    regs: &StateLayout,
    ctrs: &StateLayout,
) {
    for &op in action {
        match op {
            SlotOp::Set { dst, src } => {
                // The resolved no_op encoding (self-copy) is dead: skip.
                if src != Src::Slot(dst) {
                    program.push(MatInstr::Set { dst, src });
                }
            }
            SlotOp::Add { dst, src } => program.push(MatInstr::Add { dst, src }),
            SlotOp::Sub { dst, src } => program.push(MatInstr::Sub { dst, src }),
            SlotOp::RegRead { dst, reg, idx } => program.push(MatInstr::RegRead {
                dst,
                base: regs.base[reg],
                len: regs.len[reg],
                idx,
            }),
            SlotOp::RegWrite { reg, idx, src } => program.push(MatInstr::RegWrite {
                base: regs.base[reg],
                len: regs.len[reg],
                idx,
                src,
            }),
            SlotOp::Count { ctr, idx } => program.push(MatInstr::Count {
                base: ctrs.base[ctr],
                len: ctrs.len[ctr],
                idx,
            }),
            SlotOp::Drop => program.push(MatInstr::Set {
                dst: drop_slot,
                src: Src::Const(1),
            }),
        }
    }
}

fn patch_miss(instr: &mut MatInstr, target: usize) {
    match instr {
        MatInstr::CmpExact { miss, .. }
        | MatInstr::CmpTernary { miss, .. }
        | MatInstr::CmpLpm { miss, .. } => *miss = target,
        _ => unreachable!("only compare instructions carry miss targets"),
    }
}

/// Render the lowered match-action pipeline as Rust-like source text at
/// one optimization level — the P4 analog of [`crate::emit::emit_pipeline`]'s
/// Fig. 6 samples. The text mirrors what the in-process backend of the
/// same level executes: an interpretive driver at
/// [`OptLevel::Unoptimized`], resolved per-stage match arms at
/// [`OptLevel::Scc`], and labeled compare-and-jump instruction programs
/// at [`OptLevel::SccInline`] / [`OptLevel::Fused`].
pub fn emit_mat_pipeline(
    hlir: &Hlir,
    entries: &[TableEntry],
    lowering: &RmtLowering,
    level: OptLevel,
) -> Result<String> {
    use std::fmt::Write as _;
    let pipeline = MatPipeline::generate(hlir, entries, lowering, level)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// match-action pipeline, version {} ({})",
        match level {
            OptLevel::Unoptimized => 1,
            OptLevel::Scc => 2,
            OptLevel::SccInline => 3,
            OptLevel::Fused => 4,
        },
        level.key()
    );
    let _ = writeln!(
        s,
        "// {} stage(s), {} container(s) (last = drop flag)",
        lowering.num_stages(),
        lowering.layout.phv_length()
    );
    for (i, (f, w)) in lowering.layout.fields().iter().enumerate() {
        let _ = writeln!(s, "// container[{i}] = {f} ({w} bits)");
    }
    match &pipeline.backend {
        Backend::Interp(b) => {
            let _ = writeln!(s, "fn process_packet(packet: &mut Packet) {{");
            for (stage, tabs) in lowering.stages.iter().enumerate() {
                let _ = writeln!(s, "    // stage {stage}");
                let _ = writeln!(s, "    let snapshot = packet.clone();");
                for &t in tabs {
                    let name = &b.hlir.tables[t].name;
                    let _ = writeln!(
                        s,
                        "    if guard(\"{name}\") {{ \
                         apply(lookup(\"{name}\", &snapshot), packet); }}"
                    );
                }
            }
            let _ = writeln!(s, "}}");
        }
        Backend::Resolved(rb) => {
            let _ = writeln!(s, "fn process_packet(cur: &mut [u32]) {{");
            for (stage, tabs) in rb.stages.iter().enumerate() {
                let _ = writeln!(s, "    // stage {stage}");
                let _ = writeln!(s, "    let snap = cur.to_vec();");
                for (ti, table) in tabs.iter().enumerate() {
                    let _ = writeln!(s, "    'table_{stage}_{ti}: {{");
                    for entry in &table.entries {
                        let conds: Vec<String> =
                            entry.patterns.iter().map(render_pattern).collect();
                        let cond = if conds.is_empty() {
                            "true".to_string()
                        } else {
                            conds.join(" && ")
                        };
                        let _ = writeln!(s, "        if {cond} {{");
                        for &op in &entry.action {
                            let _ = writeln!(s, "            {}", render_slot_op(op));
                        }
                        let _ = writeln!(s, "            break 'table_{stage}_{ti};");
                        let _ = writeln!(s, "        }}");
                    }
                    if let Some(default) = &table.default_action {
                        for &op in default {
                            let _ = writeln!(s, "        {}", render_slot_op(op));
                        }
                    }
                    let _ = writeln!(s, "    }}");
                }
            }
            let _ = writeln!(s, "}}");
        }
        Backend::Bytecode(bb) => {
            for (stage, tabs) in bb.stages.iter().enumerate() {
                for (ti, prog) in tabs.iter().enumerate() {
                    let _ = writeln!(s, "// stage {stage}, table {ti}");
                    for (pc, instr) in prog.iter().enumerate() {
                        let _ = writeln!(s, "{pc:>4}: {}", render_instr(instr));
                    }
                }
            }
        }
        Backend::Fused(fb) => {
            let _ = writeln!(s, "// fused whole-pipeline program");
            for (pc, instr) in fb.program.iter().enumerate() {
                let _ = writeln!(s, "{pc:>4}: {}", render_instr(instr));
            }
        }
    }
    Ok(s)
}

fn render_src(src: Src) -> String {
    match src {
        Src::Slot(i) => format!("cur[{i}]"),
        Src::Const(v) => format!("{v}"),
    }
}

fn render_pattern(p: &SlotPattern) -> String {
    match *p {
        SlotPattern::Exact { slot, value } => format!("snap[{slot}] == {value}"),
        SlotPattern::Ternary { slot, value, mask } => {
            format!("snap[{slot}] & {mask:#x} == {value:#x}")
        }
        SlotPattern::Lpm { slot, value, shift } => {
            if shift >= 32 {
                "true".to_string()
            } else {
                format!("snap[{slot}] >> {shift} == {value:#x}")
            }
        }
    }
}

fn render_slot_op(op: SlotOp) -> String {
    match op {
        SlotOp::Set { dst, src } => format!("cur[{dst}] = {};", render_src(src)),
        SlotOp::Add { dst, src } => {
            format!("cur[{dst}] = cur[{dst}].wrapping_add({});", render_src(src))
        }
        SlotOp::Sub { dst, src } => {
            format!("cur[{dst}] = cur[{dst}].wrapping_sub({});", render_src(src))
        }
        SlotOp::RegRead { dst, reg, idx } => {
            format!("cur[{dst}] = reg_read({reg}, {});", render_src(idx))
        }
        SlotOp::RegWrite { reg, idx, src } => {
            format!(
                "reg_write({reg}, {}, {});",
                render_src(idx),
                render_src(src)
            )
        }
        SlotOp::Count { ctr, idx } => format!("count({ctr}, {});", render_src(idx)),
        SlotOp::Drop => "drop();".to_string(),
    }
}

fn render_instr(instr: &MatInstr) -> String {
    match *instr {
        MatInstr::Snapshot => "snapshot".to_string(),
        MatInstr::CmpExact { .. } | MatInstr::CmpTernary { .. } | MatInstr::CmpLpm { .. } => {
            let (pat, miss) = instr.compare().expect("a compare instruction");
            let mnemonic = match pat {
                SlotPattern::Exact { .. } => "cmp_exact",
                SlotPattern::Ternary { .. } => "cmp_ternary",
                SlotPattern::Lpm { .. } => "cmp_lpm",
            };
            format!("{mnemonic:<11} {} else -> {miss}", render_pattern(&pat))
        }
        MatInstr::Jump { target } => format!("jump        -> {target}"),
        MatInstr::Set { dst, src } => format!("set         cur[{dst}] = {}", render_src(src)),
        MatInstr::Add { dst, src } => format!("add         cur[{dst}] += {}", render_src(src)),
        MatInstr::Sub { dst, src } => format!("sub         cur[{dst}] -= {}", render_src(src)),
        MatInstr::RegRead {
            dst,
            base,
            len,
            idx,
        } => format!(
            "reg_read    cur[{dst}] = regs[{base}..{}][{}]",
            base + len,
            render_src(idx)
        ),
        MatInstr::RegWrite {
            base,
            len,
            idx,
            src,
        } => format!(
            "reg_write   regs[{base}..{}][{}] = {}",
            base + len,
            render_src(idx),
            render_src(src)
        ),
        MatInstr::Count { base, len, idx } => format!(
            "count       ctrs[{base}..{}][{}] += 1",
            base + len,
            render_src(idx)
        ),
    }
}

/// Shift a relocatable table program's jump targets by `base` (fusion).
fn relocate(program: &mut [MatInstr], base: usize) {
    for instr in program {
        match instr {
            MatInstr::CmpExact { miss, .. }
            | MatInstr::CmpTernary { miss, .. }
            | MatInstr::CmpLpm { miss, .. } => *miss += base,
            MatInstr::Jump { target } => *target += base,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_p4::lower::{lower, RmtConfig};
    use druzhba_p4::parse_p4;
    use druzhba_p4::tables::parse_entries;

    const PROGRAM: &str = r#"
        header_type pkt_t { fields { dst : 8; proto : 8; len : 16; } }
        header_type meta_t { fields { port : 8; seen : 32; } }
        header pkt_t pkt;
        metadata meta_t meta;
        parser start { extract(pkt); return ingress; }
        register last { width : 32; instance_count : 4; }
        counter total { instance_count : 2; }
        action set_port(port) { modify_field(meta.port, port); }
        action toss() { drop(); }
        action note() {
            register_read(meta.seen, last, 0);
            register_write(last, 0, pkt.dst);
            count(total, 1);
            add_to_field(pkt.len, 1);
        }
        table forward {
            reads { pkt.dst : exact; }
            actions { set_port; toss; }
            default_action : toss;
        }
        table audit { reads { meta.port : ternary; } actions { note; } }
        control ingress { apply(forward); apply(audit); }
    "#;

    const ENTRIES: &str = "forward : pkt.dst=1 => set_port(10)\n\
                           forward : pkt.dst=2 => set_port(20)\n\
                           audit : meta.port=10/0xff => note()\n";

    fn pipeline(level: OptLevel) -> MatPipeline {
        let hlir = parse_p4(PROGRAM).unwrap();
        let lowering = lower(&hlir, &RmtConfig::default()).unwrap();
        let entries = parse_entries(ENTRIES).unwrap();
        MatPipeline::generate(&hlir, &entries, &lowering, level).unwrap()
    }

    fn packet_phv(level: OptLevel, dst: Value) -> Phv {
        // Layout: pkt.dst, pkt.proto, pkt.len, meta.port, meta.seen, drop.
        let _ = level;
        Phv::new(vec![dst, 0, 0, 0, 0, 0])
    }

    #[test]
    fn match_dependent_table_sees_previous_stage_write() {
        for level in OptLevel::ALL {
            let mut p = pipeline(level);
            assert_eq!(p.num_stages(), 2, "{level:?}: forward -> audit chain");
            let out = p.process(&packet_phv(level, 1));
            // forward wrote meta.port=10 in stage 0; audit matched it in
            // stage 1 and ran note(): len += 1, register write, count.
            assert_eq!(out.get(3), 10, "{level:?} meta.port");
            assert_eq!(out.get(2), 1, "{level:?} pkt.len");
            assert_eq!(out.get(4), 0, "{level:?} meta.seen reads old reg");
            assert_eq!(p.registers()["last"][0], 1, "{level:?}");
            assert_eq!(p.counters()["total"][1], 1, "{level:?}");
        }
    }

    #[test]
    fn miss_fires_default_and_sets_drop_flag() {
        for level in OptLevel::ALL {
            let mut p = pipeline(level);
            let out = p.process(&packet_phv(level, 99));
            assert_eq!(out.get(5), 1, "{level:?} drop flag");
            assert_eq!(out.get(3), 0, "{level:?} port untouched");
        }
    }

    #[test]
    fn all_backends_agree_on_a_packet_stream() {
        let mut pipes: Vec<MatPipeline> = OptLevel::ALL.iter().map(|&l| pipeline(l)).collect();
        let inputs: Vec<Phv> = (0..64)
            .map(|i| Phv::new(vec![i % 5, i * 3 % 7, 0, 0, 0, 0]))
            .collect();
        let outs: Vec<Trace> = pipes
            .iter_mut()
            .map(|p| p.run(&Trace::from_phvs(inputs.clone())))
            .collect();
        for w in outs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        for w in pipes.windows(2) {
            assert_eq!(w[0].registers(), w[1].registers());
            assert_eq!(w[0].counters(), w[1].counters());
        }
    }

    #[test]
    fn reset_restores_initial_state_on_every_backend() {
        for level in OptLevel::ALL {
            let mut p = pipeline(level);
            p.process(&packet_phv(level, 1));
            assert_ne!(p.registers()["last"][0], 0, "{level:?}");
            p.reset();
            assert_eq!(p.registers()["last"][0], 0, "{level:?}");
            assert_eq!(p.counters()["total"][1], 0, "{level:?}");
        }
    }

    #[test]
    fn lpm_entries_sorted_longest_prefix_first() {
        let src = r#"
            header_type ip_t { fields { dst : 32; nhop : 32; } }
            header ip_t ip;
            parser start { extract(ip); return ingress; }
            action set_nhop(n) { modify_field(ip.nhop, n); }
            table route { reads { ip.dst : lpm; } actions { set_nhop; } }
            control ingress { apply(route); }
        "#;
        let hlir = parse_p4(src).unwrap();
        let lowering = lower(&hlir, &RmtConfig::default()).unwrap();
        let entries = parse_entries(
            "route : ip.dst=0x0A000000/8 => set_nhop(1)\n\
             route : ip.dst=0x0A010000/16 => set_nhop(2)\n",
        )
        .unwrap();
        for level in OptLevel::ALL {
            let mut p = MatPipeline::generate(&hlir, &entries, &lowering, level).unwrap();
            let out = p.process(&Phv::new(vec![0x0A01_0203, 0, 0]));
            assert_eq!(out.get(1), 2, "{level:?}: 16-bit prefix wins");
            let out = p.process(&Phv::new(vec![0x0A99_0203, 0, 0]));
            assert_eq!(out.get(1), 1, "{level:?}: 8-bit prefix");
            let out = p.process(&Phv::new(vec![0x0B00_0000, 0, 0]));
            assert_eq!(out.get(1), 0, "{level:?}: miss, no default");
        }
        // The resolved entries keep their file-order indices.
        let p = MatPipeline::generate(&hlir, &entries, &lowering, OptLevel::Scc).unwrap();
        let stages = p
            .resolved_stages()
            .expect("the Scc level resolves its tables");
        let route = &stages[0][0];
        assert_eq!(route.table, 0);
        let order: Vec<usize> = route.entries.iter().map(|e| e.index).collect();
        assert_eq!(order, [1, 0]);
    }

    #[test]
    fn statically_false_guard_is_eliminated() {
        let src = r#"
            header_type h { fields { a : 8; } }
            header h pkt;
            header h ghost;
            parser start { extract(pkt); return ingress; }
            action bump() { add_to_field(pkt.a, 1); }
            table t { reads { pkt.a : ternary; } actions { bump; } }
            control ingress { if (valid(ghost)) { apply(t); } }
        "#;
        let hlir = parse_p4(src).unwrap();
        let lowering = lower(&hlir, &RmtConfig::default()).unwrap();
        let entries = parse_entries("t : pkt.a=0/0 => bump()\n").unwrap();
        for level in OptLevel::ALL {
            let mut p = MatPipeline::generate(&hlir, &entries, &lowering, level).unwrap();
            let out = p.process(&Phv::new(vec![5, 0, 0]));
            assert_eq!(out.get(0), 5, "{level:?}: guarded table skipped");
        }
        // The fused program contains only the stage snapshot.
        let p = MatPipeline::generate(&hlir, &entries, &lowering, OptLevel::Fused).unwrap();
        assert_eq!(p.fused_program().unwrap().len(), 1);
    }

    #[test]
    fn invalid_entries_rejected_at_generation() {
        let hlir = parse_p4(PROGRAM).unwrap();
        let lowering = lower(&hlir, &RmtConfig::default()).unwrap();
        let bad = parse_entries("ghost : pkt.dst=1 => set_port(1)\n").unwrap();
        for level in OptLevel::ALL {
            assert!(MatPipeline::generate(&hlir, &bad, &lowering, level).is_err());
        }
    }
}
