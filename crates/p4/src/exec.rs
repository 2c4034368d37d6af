//! The reference match-action interpreter: sequential, per-packet
//! execution of a resolved P4 program against populated table entries.
//!
//! This is the *executable semantics* of the P4 subset — the oracle every
//! hardware model is differentially tested against. Each packet runs the
//! applied tables in control order to completion before the next packet
//! starts: match ([`crate::tables::TableRuntime::lookup`]), then the
//! selected action's primitives with entry-bound arguments, with
//! registers and counters updated in place. The scheduled dRMT machine
//! (`druzhba-drmt`) and the lowered RMT pipeline (dgen's `mat` backends)
//! must both agree with this interpreter on every packet trace.
//!
//! Per-packet [`TableHit`] traces record which table selected which entry
//! and action — the observability hook the differential fuzzers use to
//! explain divergences.
//!
//! # Example
//!
//! ```
//! use druzhba_p4::exec::{Interpreter, Packet};
//! use druzhba_p4::tables::parse_entries;
//! use druzhba_p4::parse_p4;
//!
//! let hlir = parse_p4(
//!     "header_type h { fields { dst : 8; port : 8; } }\n\
//!      header h pkt;\n\
//!      parser start { extract(pkt); return ingress; }\n\
//!      action fwd(p) { modify_field(pkt.port, p); }\n\
//!      action nop() { no_op(); }\n\
//!      table t { reads { pkt.dst : exact; } actions { fwd; nop; }\n\
//!                default_action : nop; }\n\
//!      control ingress { apply(t); }",
//! )
//! .unwrap();
//! let entries = parse_entries("t : pkt.dst=7 => fwd(3)\n").unwrap();
//! let mut interp = Interpreter::new(&hlir, &entries).unwrap();
//!
//! let mut packet = Packet::new(0, [(("pkt", "dst"), 7)]);
//! let hits = interp.process(&mut packet);
//! assert_eq!(packet.get_named("pkt", "port"), 3);
//! assert_eq!(hits[0].entry, Some(0));
//! assert_eq!(hits[0].action, "fwd");
//! ```

use std::cell::OnceCell;
use std::collections::BTreeMap;

use druzhba_core::{Error, Phv, Result, Value};

use crate::ast::{ActionArg, ActionDecl, FieldRef, Primitive};
use crate::hlir::Hlir;
use crate::tables::{bind, ProgramTables, TableEntry};

/// A packet: field values plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotonic packet id (assigned by the traffic generator).
    pub id: u64,
    /// All field values (header and metadata).
    pub fields: BTreeMap<FieldRef, Value>,
    /// Set by the `drop()` primitive.
    pub dropped: bool,
}

impl Packet {
    /// A packet with the given fields.
    pub fn new<I>(id: u64, fields: I) -> Self
    where
        I: IntoIterator<Item = ((&'static str, &'static str), Value)>,
    {
        Packet {
            id,
            fields: fields
                .into_iter()
                .map(|((header, field), v)| {
                    (
                        FieldRef {
                            header: header.to_string(),
                            field: field.to_string(),
                        },
                        v,
                    )
                })
                .collect(),
            dropped: false,
        }
    }

    /// A packet from an already-built field map.
    pub fn from_fields(id: u64, fields: BTreeMap<FieldRef, Value>) -> Self {
        Packet {
            id,
            fields,
            dropped: false,
        }
    }

    /// Read a field (absent fields read as 0).
    pub fn get(&self, f: &FieldRef) -> Value {
        self.fields.get(f).copied().unwrap_or(0)
    }

    /// Read a field by header/field name (absent fields read as 0).
    pub fn get_named(&self, header: &str, field: &str) -> Value {
        self.fields
            .iter()
            .find(|(f, _)| f.header == header && f.field == field)
            .map(|(_, &v)| v)
            .unwrap_or(0)
    }

    /// Write a field.
    pub fn set(&mut self, f: FieldRef, v: Value) {
        self.fields.insert(f, v);
    }
}

/// One table lookup recorded in a packet's execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableHit {
    /// Applied-table index (into [`Hlir::tables`]).
    pub table: usize,
    /// Hit entry index, or `None` when the default action fired.
    pub entry: Option<usize>,
    /// The executed action.
    pub action: String,
}

/// Resolve an action argument against the packet and the entry-bound
/// parameter values.
pub fn resolve_arg(arg: &ActionArg, params: &[String], args: &[Value], packet: &Packet) -> Value {
    match arg {
        ActionArg::Const(v) => *v,
        ActionArg::Field(f) => packet.get(f),
        ActionArg::Param(p) => {
            let idx = params.iter().position(|q| q == p).unwrap_or(usize::MAX);
            args.get(idx).copied().unwrap_or(0)
        }
        ActionArg::Stateful(_) => 0,
    }
}

/// Execute one action body against a packet and the stateful objects,
/// returning the number of register/counter accesses performed (the dRMT
/// machine accounts these as crossbar traffic).
///
/// Out-of-range register/counter indices follow hardware semantics:
/// reads return 0, writes and counts are dropped.
pub fn execute_action(
    action: &ActionDecl,
    args: &[Value],
    packet: &mut Packet,
    registers: &mut BTreeMap<String, Vec<Value>>,
    counters: &mut BTreeMap<String, Vec<u64>>,
) -> u64 {
    let mut stateful_accesses = 0;
    for prim in &action.body {
        match prim {
            Primitive::ModifyField { dst, src } => {
                let v = resolve_arg(src, &action.params, args, packet);
                packet.set(dst.clone(), v);
            }
            Primitive::AddToField { dst, src } => {
                let v = resolve_arg(src, &action.params, args, packet);
                let cur = packet.get(dst);
                packet.set(dst.clone(), cur.wrapping_add(v));
            }
            Primitive::SubtractFromField { dst, src } => {
                let v = resolve_arg(src, &action.params, args, packet);
                let cur = packet.get(dst);
                packet.set(dst.clone(), cur.wrapping_sub(v));
            }
            Primitive::RegisterRead {
                dst,
                register,
                index,
            } => {
                stateful_accesses += 1;
                let idx = resolve_arg(index, &action.params, args, packet) as usize;
                let v = registers
                    .get(register)
                    .and_then(|r| r.get(idx))
                    .copied()
                    .unwrap_or(0);
                packet.set(dst.clone(), v);
            }
            Primitive::RegisterWrite {
                register,
                index,
                src,
            } => {
                stateful_accesses += 1;
                let idx = resolve_arg(index, &action.params, args, packet) as usize;
                let v = resolve_arg(src, &action.params, args, packet);
                if let Some(slot) = registers.get_mut(register).and_then(|r| r.get_mut(idx)) {
                    *slot = v;
                }
            }
            Primitive::Count { counter, index } => {
                stateful_accesses += 1;
                let idx = resolve_arg(index, &action.params, args, packet) as usize;
                if let Some(slot) = counters.get_mut(counter).and_then(|c| c.get_mut(idx)) {
                    *slot += 1;
                }
            }
            Primitive::Drop => packet.dropped = true,
            Primitive::NoOp => {}
        }
    }
    stateful_accesses
}

/// Zero-initialized register file for a program.
pub fn initial_registers(hlir: &Hlir) -> BTreeMap<String, Vec<Value>> {
    hlir.program
        .registers
        .iter()
        .map(|r| (r.name.clone(), vec![0; r.instance_count as usize]))
        .collect()
}

/// Zero-initialized counters for a program.
pub fn initial_counters(hlir: &Hlir) -> BTreeMap<String, Vec<u64>> {
    hlir.program
        .counters
        .iter()
        .map(|c| (c.name.clone(), vec![0; c.instance_count as usize]))
        .collect()
}

/// An action operand, resolved when the interpreter is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A literal (and the 0 a stateful-object name reads as).
    Const(Value),
    /// A packet field's container.
    Field(usize),
    /// The entry-bound argument at this position; 0 when the entry binds
    /// fewer arguments (or the parameter is undeclared: `usize::MAX`).
    Arg(usize),
}

/// One primitive of a resolved action body. Registers and counters are
/// indices into the interpreter's by-name state (`usize::MAX` for an
/// undeclared object, which reads 0 and drops writes, like an
/// out-of-range cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Modify {
        dst: usize,
        src: Operand,
    },
    Add {
        dst: usize,
        src: Operand,
    },
    Sub {
        dst: usize,
        src: Operand,
    },
    RegisterRead {
        dst: usize,
        register: usize,
        index: Operand,
    },
    RegisterWrite {
        register: usize,
        index: Operand,
        src: Operand,
    },
    Count {
        counter: usize,
        index: Operand,
    },
    Drop,
}

/// A resolved action: its primitives in body order, and the containers
/// they write (an action body is straight-line, so every hit writes all
/// of them).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Action {
    name: String,
    ops: Vec<Op>,
    writes: Vec<usize>,
}

/// An applied table whose validity guards hold, with each selectable
/// action resolved to an index into the interpreter's actions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Applied {
    /// Applied-table index (into [`Hlir::tables`]).
    table: usize,
    /// The action of each bound entry, in entry order.
    entry_actions: Vec<usize>,
    /// The default action, fired on a miss.
    default_action: Option<usize>,
}

/// Named stateful objects (registers or counters) in name order, each a
/// vector of cells.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateFile<T> {
    names: Vec<String>,
    cells: Vec<Vec<T>>,
}

impl<T: Copy + Default> StateFile<T> {
    fn new(initial: BTreeMap<String, Vec<T>>) -> Self {
        let (names, cells) = initial.into_iter().unzip();
        StateFile { names, cells }
    }

    /// The index of object `name`, `usize::MAX` when undeclared.
    fn index(&self, name: &str) -> usize {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .unwrap_or(usize::MAX)
    }

    fn zero(&mut self) {
        for cells in &mut self.cells {
            cells.fill(T::default());
        }
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &[T])> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.cells.iter().map(Vec::as_slice))
    }

    fn to_map(&self) -> BTreeMap<String, Vec<T>> {
        self.iter()
            .map(|(name, cells)| (name.to_string(), cells.to_vec()))
            .collect()
    }
}

/// The sequential reference interpreter.
///
/// [`Interpreter::new`] resolves the program once: every field to its
/// container (its position in [`Hlir::fields`], the
/// [`crate::lower::FieldLayout`] order, with the drop flag last), every
/// action to an index with its parameters resolved to argument positions,
/// and every register and counter to its storage. A packet then steps as
/// a frame of containers in place ([`Interpreter::process_phv`]), with no
/// name lookup and no allocation. The [`Packet`] API
/// ([`Interpreter::process`], [`Interpreter::run`]) is an adapter over the
/// same walker.
#[derive(Debug, Clone)]
pub struct Interpreter {
    tables: ProgramTables,
    applied: Vec<Applied>,
    actions: Vec<Action>,
    /// The field of each container (the [`Packet`] adapter's keys); the
    /// drop flag follows the last.
    fields: Vec<FieldRef>,
    /// The container of each distinct field name, in name order (the
    /// order of a [`Packet`]'s keys): a name declared twice resolves to
    /// its first container.
    by_name: Vec<usize>,
    registers: StateFile<Value>,
    counters: StateFile<u64>,
    /// The by-name maps [`Interpreter::registers`] and
    /// [`Interpreter::counters`] return, built on demand and dropped by
    /// every step.
    register_view: OnceCell<BTreeMap<String, Vec<Value>>>,
    counter_view: OnceCell<BTreeMap<String, Vec<u64>>>,
    /// The [`Packet`] adapter's reused frame.
    scratch: Vec<Value>,
}

impl Interpreter {
    /// Build an interpreter from a resolved program and parsed entries.
    /// Entry validation follows [`bind`]; a primitive naming an
    /// undeclared field, or a table selecting an undeclared action, is
    /// rejected.
    pub fn new(hlir: &Hlir, entries: &[TableEntry]) -> Result<Self> {
        let tables = bind(hlir, entries)?;
        let registers = StateFile::new(initial_registers(hlir));
        let counters = StateFile::new(initial_counters(hlir));
        let container = |f: &FieldRef| {
            hlir.fields
                .iter()
                .position(|(g, _)| g == f)
                .ok_or_else(|| Error::Other {
                    message: format!("action writes or reads undeclared field `{f}`"),
                })
        };
        let actions = hlir
            .program
            .actions
            .iter()
            .map(|a| resolve_action(a, &container, &registers, &counters))
            .collect::<Result<Vec<_>>>()?;
        // The first declaration of a name, as `P4Program::action` finds it.
        let action_index = |name: &str| {
            actions
                .iter()
                .position(|a| a.name == name)
                .ok_or_else(|| Error::Other {
                    message: format!("table selects undeclared action `{name}`"),
                })
        };
        let applied = (0..hlir.tables.len())
            .filter(|&t| hlir.table_applies(t))
            .map(|t| {
                let runtime = tables.table(t);
                Ok(Applied {
                    table: t,
                    entry_actions: runtime
                        .entries
                        .iter()
                        .map(|e| action_index(&e.action))
                        .collect::<Result<_>>()?,
                    default_action: runtime
                        .default_action
                        .as_deref()
                        .map(action_index)
                        .transpose()?,
                })
            })
            .collect::<Result<_>>()?;
        let fields: Vec<FieldRef> = hlir.fields.iter().map(|(f, _)| f.clone()).collect();
        let mut by_name: Vec<usize> = (0..fields.len()).collect();
        by_name.sort_by(|&a, &b| fields[a].cmp(&fields[b]).then(a.cmp(&b)));
        by_name.dedup_by(|next, kept| fields[*next] == fields[*kept]);
        Ok(Interpreter {
            tables,
            applied,
            actions,
            scratch: vec![0; fields.len() + 1],
            fields,
            by_name,
            registers,
            counters,
            register_view: OnceCell::new(),
            counter_view: OnceCell::new(),
        })
    }

    /// Reset registers and counters to their initial (zero) state in
    /// place.
    pub fn reset(&mut self) {
        self.registers.zero();
        self.counters.zero();
        self.register_view.take();
        self.counter_view.take();
    }

    /// Containers per packet frame: one per field of [`Hlir::fields`],
    /// plus the trailing drop flag.
    pub fn frame_len(&self) -> usize {
        self.fields.len() + 1
    }

    /// Run one packet given as a PHV under the field layout (one
    /// container per field, then the drop flag) and write the processed
    /// packet into `out`, in place. A non-zero input drop flag reads as
    /// dropped, so it comes out as 1.
    ///
    /// # Panics
    /// Panics if `input` or `out` is shorter than [`Interpreter::frame_len`].
    pub fn process_phv(&mut self, input: &Phv, out: &mut Phv) {
        let drop = self.fields.len();
        let frame = &mut out.containers_mut()[..=drop];
        for (c, v) in frame[..drop].iter_mut().enumerate() {
            *v = input.get(c);
        }
        frame[drop] = Value::from(input.get(drop) != 0);
        self.step(frame, |_, _, _| {});
    }

    /// Run one packet through the applied tables in control order,
    /// mutating it in place; returns the per-table hit trace. Fields the
    /// packet lacks read as 0, and a field gains a key when an executed
    /// action writes it.
    pub fn process(&mut self, packet: &mut Packet) -> Vec<TableHit> {
        let mut frame = std::mem::take(&mut self.scratch);
        let drop = self.fields.len();
        // Both key lists are in name order: one merge pairs them.
        let mut named = self.by_name.iter().copied().peekable();
        for (f, &v) in &packet.fields {
            while let Some(c) = named.next_if(|&c| self.fields[c] < *f) {
                frame[c] = 0;
            }
            if let Some(c) = named.next_if(|&c| self.fields[c] == *f) {
                frame[c] = v;
            }
        }
        named.for_each(|c| frame[c] = 0);
        frame[drop] = Value::from(packet.dropped);
        let mut hits = Vec::new();
        self.step(&mut frame, |table, entry, action| {
            hits.push((table, entry, action))
        });
        let mut named = self.by_name.iter().copied().peekable();
        for (f, v) in packet.fields.iter_mut() {
            while named.next_if(|&c| self.fields[c] < *f).is_some() {}
            if let Some(c) = named.next_if(|&c| self.fields[c] == *f) {
                *v = frame[c];
            }
        }
        let hits = hits
            .into_iter()
            .map(|(table, entry, action)| {
                let action = &self.actions[action];
                for &c in &action.writes {
                    let f = &self.fields[c];
                    if !packet.fields.contains_key(f) {
                        packet.fields.insert(f.clone(), frame[c]);
                    }
                }
                TableHit {
                    table,
                    entry,
                    action: action.name.clone(),
                }
            })
            .collect();
        packet.dropped = frame[drop] != 0;
        self.scratch = frame;
        hits
    }

    /// The walker: step one frame through the applied tables in control
    /// order, calling `on_hit(table, entry, action)` for each table that
    /// selected an action.
    fn step(&mut self, frame: &mut [Value], mut on_hit: impl FnMut(usize, Option<usize>, usize)) {
        self.register_view.take();
        self.counter_view.take();
        let drop = self.fields.len();
        for applied in &self.applied {
            let t = applied.table;
            let Some(sel) = self.tables.tables[t].lookup(|p| frame[p.container]) else {
                continue;
            };
            let action = match sel.entry {
                Some(e) => applied.entry_actions[e],
                None => applied
                    .default_action
                    .expect("a miss selects the default action"),
            };
            execute(
                &self.actions[action].ops,
                sel.args,
                frame,
                drop,
                &mut self.registers.cells,
                &mut self.counters.cells,
            );
            on_hit(t, sel.entry, action);
        }
    }

    /// Run a packet sequence to completion, returning the processed
    /// packets (in order) and their hit traces.
    pub fn run(&mut self, packets: Vec<Packet>) -> (Vec<Packet>, Vec<Vec<TableHit>>) {
        let mut out = Vec::with_capacity(packets.len());
        let mut traces = Vec::with_capacity(packets.len());
        for mut p in packets {
            traces.push(self.process(&mut p));
            out.push(p);
        }
        (out, traces)
    }

    /// The bound table runtimes.
    pub fn tables(&self) -> &ProgramTables {
        &self.tables
    }

    /// Final register contents.
    pub fn registers(&self) -> &BTreeMap<String, Vec<Value>> {
        self.register_view.get_or_init(|| self.registers.to_map())
    }

    /// Final counter contents.
    pub fn counters(&self) -> &BTreeMap<String, Vec<u64>> {
        self.counter_view.get_or_init(|| self.counters.to_map())
    }

    /// Final register cells by name, in name order, without building a
    /// map.
    pub fn register_cells(&self) -> impl ExactSizeIterator<Item = (&str, &[Value])> {
        self.registers.iter()
    }

    /// Final counter cells by name, in name order, without building a
    /// map.
    pub fn counter_cells(&self) -> impl ExactSizeIterator<Item = (&str, &[u64])> {
        self.counters.iter()
    }
}

/// Resolve one action declaration against the field containers and the
/// stateful objects.
fn resolve_action(
    action: &ActionDecl,
    container: &impl Fn(&FieldRef) -> Result<usize>,
    registers: &StateFile<Value>,
    counters: &StateFile<u64>,
) -> Result<Action> {
    let operand = |arg: &ActionArg| -> Result<Operand> {
        Ok(match arg {
            ActionArg::Const(v) => Operand::Const(*v),
            ActionArg::Field(f) => Operand::Field(container(f)?),
            ActionArg::Param(p) => Operand::Arg(
                action
                    .params
                    .iter()
                    .position(|q| q == p)
                    .unwrap_or(usize::MAX),
            ),
            ActionArg::Stateful(_) => Operand::Const(0),
        })
    };
    let mut ops = Vec::with_capacity(action.body.len());
    let mut writes = Vec::new();
    for prim in &action.body {
        let op = match prim {
            Primitive::ModifyField { dst, src } => Op::Modify {
                dst: container(dst)?,
                src: operand(src)?,
            },
            Primitive::AddToField { dst, src } => Op::Add {
                dst: container(dst)?,
                src: operand(src)?,
            },
            Primitive::SubtractFromField { dst, src } => Op::Sub {
                dst: container(dst)?,
                src: operand(src)?,
            },
            Primitive::RegisterRead {
                dst,
                register,
                index,
            } => Op::RegisterRead {
                dst: container(dst)?,
                register: registers.index(register),
                index: operand(index)?,
            },
            Primitive::RegisterWrite {
                register,
                index,
                src,
            } => Op::RegisterWrite {
                register: registers.index(register),
                index: operand(index)?,
                src: operand(src)?,
            },
            Primitive::Count { counter, index } => Op::Count {
                counter: counters.index(counter),
                index: operand(index)?,
            },
            Primitive::Drop => Op::Drop,
            Primitive::NoOp => continue,
        };
        if let Op::Modify { dst, .. }
        | Op::Add { dst, .. }
        | Op::Sub { dst, .. }
        | Op::RegisterRead { dst, .. } = op
        {
            if !writes.contains(&dst) {
                writes.push(dst);
            }
        }
        ops.push(op);
    }
    Ok(Action {
        name: action.name.clone(),
        ops,
        writes,
    })
}

/// Execute a resolved action body on a frame with the entry-bound
/// arguments `args`. Out-of-range register/counter indices follow
/// hardware semantics: reads return 0, writes and counts are dropped.
fn execute(
    ops: &[Op],
    args: &[Value],
    frame: &mut [Value],
    drop: usize,
    registers: &mut [Vec<Value>],
    counters: &mut [Vec<u64>],
) {
    let read = |operand: Operand, frame: &[Value]| match operand {
        Operand::Const(v) => v,
        Operand::Field(c) => frame[c],
        Operand::Arg(i) => args.get(i).copied().unwrap_or(0),
    };
    for &op in ops {
        match op {
            Op::Modify { dst, src } => frame[dst] = read(src, frame),
            Op::Add { dst, src } => frame[dst] = frame[dst].wrapping_add(read(src, frame)),
            Op::Sub { dst, src } => frame[dst] = frame[dst].wrapping_sub(read(src, frame)),
            Op::RegisterRead {
                dst,
                register,
                index,
            } => {
                let i = read(index, frame) as usize;
                frame[dst] = registers
                    .get(register)
                    .and_then(|r| r.get(i))
                    .copied()
                    .unwrap_or(0);
            }
            Op::RegisterWrite {
                register,
                index,
                src,
            } => {
                let i = read(index, frame) as usize;
                let v = read(src, frame);
                if let Some(cell) = registers.get_mut(register).and_then(|r| r.get_mut(i)) {
                    *cell = v;
                }
            }
            Op::Count { counter, index } => {
                let i = read(index, frame) as usize;
                if let Some(cell) = counters.get_mut(counter).and_then(|c| c.get_mut(i)) {
                    *cell += 1;
                }
            }
            Op::Drop => frame[drop] = 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_p4;
    use crate::tables::parse_entries;

    const PROGRAM: &str = r#"
        header_type pkt_t { fields { dst : 8; len : 16; } }
        header_type meta_t { fields { port : 8; seen : 32; } }
        header pkt_t pkt;
        metadata meta_t meta;
        parser start { extract(pkt); return ingress; }
        register last { width : 32; instance_count : 4; }
        counter total { instance_count : 2; }
        action set_port(port) { modify_field(meta.port, port); }
        action note() {
            register_read(meta.seen, last, 0);
            register_write(last, 0, pkt.dst);
            count(total, 1);
            add_to_field(pkt.len, 1);
        }
        action toss() { drop(); }
        table forward {
            reads { pkt.dst : exact; }
            actions { set_port; toss; }
            default_action : toss;
        }
        table audit { reads { meta.port : ternary; } actions { note; } }
        control ingress { apply(forward); apply(audit); }
    "#;

    const ENTRIES: &str = "forward : pkt.dst=1 => set_port(10)\n\
                           audit : meta.port=10/0xff => note()\n";

    fn interp() -> Interpreter {
        let hlir = parse_p4(PROGRAM).unwrap();
        Interpreter::new(&hlir, &parse_entries(ENTRIES).unwrap()).unwrap()
    }

    fn packet(id: u64, dst: Value) -> Packet {
        Packet::new(id, [(("pkt", "dst"), dst)])
    }

    #[test]
    fn hit_executes_entry_action_with_bound_args() {
        let mut i = interp();
        let mut p = packet(0, 1);
        let hits = i.process(&mut p);
        assert_eq!(p.get_named("meta", "port"), 10);
        assert!(!p.dropped);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].action, "set_port");
        assert_eq!(hits[0].entry, Some(0));
    }

    #[test]
    fn miss_fires_default_action() {
        let mut i = interp();
        let mut p = packet(0, 99);
        let hits = i.process(&mut p);
        assert!(p.dropped, "default toss() drops");
        assert_eq!(hits[0].action, "toss");
        assert_eq!(hits[0].entry, None);
        // audit misses (meta.port stays 0) and has no default.
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn registers_counters_and_field_arithmetic() {
        let mut i = interp();
        let mut p1 = packet(0, 1);
        i.process(&mut p1);
        // First note(): reads last[0]=0 into meta.seen, writes dst=1.
        assert_eq!(p1.get_named("meta", "seen"), 0);
        assert_eq!(p1.get_named("pkt", "len"), 1, "add_to_field");
        assert_eq!(i.registers()["last"][0], 1);
        assert_eq!(i.counters()["total"][1], 1);
        let mut p2 = packet(1, 1);
        i.process(&mut p2);
        // Second note() observes the first packet's register write.
        assert_eq!(p2.get_named("meta", "seen"), 1);
        assert_eq!(i.counters()["total"][1], 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut i = interp();
        i.process(&mut packet(0, 1));
        assert_eq!(i.registers()["last"][0], 1);
        i.reset();
        assert_eq!(i.registers()["last"][0], 0);
        assert_eq!(i.counters()["total"][1], 0);
    }

    #[test]
    fn run_preserves_order_and_traces() {
        let mut i = interp();
        let (out, traces) = i.run(vec![packet(0, 1), packet(1, 2)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 0);
        assert!(out[1].dropped);
        assert_eq!(traces[0].len(), 2);
        assert_eq!(traces[1][0].action, "toss");
    }

    #[test]
    fn negative_validity_guard_skips_table() {
        // `other` is declared but never extracted: invalid. The guarded
        // table only runs under `valid(other)` and must be skipped.
        let src = r#"
            header_type h { fields { a : 8; } }
            header h pkt;
            header h other;
            parser start { extract(pkt); return ingress; }
            action bump() { add_to_field(pkt.a, 1); }
            table t { reads { pkt.a : ternary; } actions { bump; } }
            control ingress { if (valid(other)) { apply(t); } }
        "#;
        let hlir = parse_p4(src).unwrap();
        let entries = parse_entries("t : pkt.a=0/0 => bump()\n").unwrap();
        let mut i = Interpreter::new(&hlir, &entries).unwrap();
        let mut p = packet(0, 0);
        p.set(
            FieldRef {
                header: "pkt".into(),
                field: "a".into(),
            },
            5,
        );
        let hits = i.process(&mut p);
        assert!(hits.is_empty());
        assert_eq!(p.get_named("pkt", "a"), 5, "table skipped");
    }

    fn field(header: &str, field: &str) -> FieldRef {
        FieldRef {
            header: header.into(),
            field: field.into(),
        }
    }

    #[test]
    fn nonzero_input_drop_flag_comes_out_as_one() {
        let mut i = interp();
        // dst=5 misses `forward`, whose default drops; dst=1 hits and
        // leaves the flag as the input set it.
        for (dst, flag) in [(1, 7), (1, 1), (5, 0), (5, 0xFFFF_FFFF)] {
            let input = Phv::new(vec![dst, 0, 0, 0, flag]);
            let mut out = Phv::zeroed(i.frame_len());
            i.process_phv(&input, &mut out);
            assert_eq!(out.get(4), 1, "dst={dst} flag={flag}");
        }
        let mut out = Phv::zeroed(i.frame_len());
        i.process_phv(&Phv::new(vec![1, 0, 0, 0, 0]), &mut out);
        assert_eq!(out.get(4), 0, "a clear flag stays clear on a hit");
    }

    #[test]
    fn out_of_range_frame_indices_read_zero_and_drop_writes() {
        let src = r#"
            header_type h { fields { idx : 32; val : 32; got : 32; } }
            header h pkt;
            parser start { extract(pkt); return ingress; }
            register r { width : 32; instance_count : 2; }
            counter c { instance_count : 2; }
            action touch() {
                register_write(r, pkt.idx, pkt.val);
                register_read(pkt.got, r, pkt.idx);
                count(c, pkt.idx);
            }
            table t { reads { pkt.idx : ternary; } actions { touch; } }
            control ingress { apply(t); }
        "#;
        let hlir = parse_p4(src).unwrap();
        let entries = parse_entries("t : pkt.idx=0/0 => touch()\n").unwrap();
        let mut i = Interpreter::new(&hlir, &entries).unwrap();
        let mut out = Phv::zeroed(i.frame_len());
        // In range: the write lands, the read sees it, the count counts.
        i.process_phv(&Phv::new(vec![1, 42, 0, 0]), &mut out);
        assert_eq!(out.get(2), 42);
        assert_eq!(i.registers()["r"], vec![0, 42]);
        assert_eq!(i.counters()["c"], vec![0, 1]);
        // Out of range: the read is 0, the write and the count vanish.
        for idx in [2, 99, Value::MAX] {
            i.process_phv(&Phv::new(vec![idx, 7, 5, 0]), &mut out);
            assert_eq!(out.get(2), 0, "idx={idx}");
        }
        assert_eq!(i.registers()["r"], vec![0, 42]);
        assert_eq!(i.counters()["c"], vec![0, 1]);
        assert_eq!(
            i.register_cells().collect::<Vec<_>>(),
            vec![("r", &[0, 42][..])]
        );
    }

    #[test]
    fn action_parameters_resolve_to_their_argument_positions() {
        let src = r#"
            header_type h { fields { k : 8; a : 32; b : 32; c : 32; } }
            header h pkt;
            parser start { extract(pkt); return ingress; }
            action pick(x, y, z) {
                modify_field(pkt.a, z);
                modify_field(pkt.b, x);
                subtract_from_field(pkt.c, y);
            }
            table t { reads { pkt.k : exact; } actions { pick; } }
            control ingress { apply(t); }
        "#;
        let hlir = parse_p4(src).unwrap();
        // Entry 1 binds only two of the three arguments: `z` reads 0.
        let entries =
            parse_entries("t : pkt.k=1 => pick(10, 3, 30)\nt : pkt.k=2 => pick(4, 5)\n").unwrap();
        let mut i = Interpreter::new(&hlir, &entries).unwrap();
        let mut out = Phv::zeroed(i.frame_len());
        i.process_phv(&Phv::new(vec![1, 0, 0, 100, 0]), &mut out);
        assert_eq!(out.containers(), &[1, 30, 10, 97, 0]);
        i.process_phv(&Phv::new(vec![2, 9, 9, 1, 0]), &mut out);
        assert_eq!(out.containers(), &[2, 0, 4, 1u32.wrapping_sub(5), 0]);
    }

    #[test]
    fn packet_adapter_keeps_the_key_set_of_the_map_interpreter() {
        let keys = |p: &Packet| p.fields.keys().cloned().collect::<Vec<_>>();
        let mut i = interp();
        // A hit on both tables writes meta.port (set_port), then
        // meta.seen (register_read) and pkt.len (add_to_field).
        let mut hit = packet(0, 1);
        i.process(&mut hit);
        assert_eq!(
            keys(&hit),
            vec![
                field("meta", "port"),
                field("meta", "seen"),
                field("pkt", "dst"),
                field("pkt", "len"),
            ]
        );
        assert_eq!(hit.get_named("pkt", "len"), 1);
        // A miss fires `toss`, which writes no field: no key appears.
        let mut miss = packet(1, 99);
        i.process(&mut miss);
        assert_eq!(keys(&miss), vec![field("pkt", "dst")]);
        assert!(miss.dropped);
        // A key outside the program rides along untouched.
        let mut extra = packet(2, 99);
        extra.set(field("other", "x"), 5);
        i.process(&mut extra);
        assert_eq!(keys(&extra), vec![field("other", "x"), field("pkt", "dst")]);
        assert_eq!(extra.get_named("other", "x"), 5);
    }

    #[test]
    fn out_of_range_stateful_indices_are_total() {
        let src = r#"
            header_type h { fields { a : 32; } }
            header h pkt;
            parser start { extract(pkt); return ingress; }
            register r { width : 32; instance_count : 2; }
            counter c { instance_count : 2; }
            action wild() {
                register_write(r, 99, pkt.a);
                register_read(pkt.a, r, 99);
                count(c, 99);
            }
            table t { reads { pkt.a : ternary; } actions { wild; } }
            control ingress { apply(t); }
        "#;
        let hlir = parse_p4(src).unwrap();
        let entries = parse_entries("t : pkt.a=0/0 => wild()\n").unwrap();
        let mut i = Interpreter::new(&hlir, &entries).unwrap();
        let mut p = packet(0, 0);
        p.set(
            FieldRef {
                header: "pkt".into(),
                field: "a".into(),
            },
            7,
        );
        i.process(&mut p);
        // Write dropped, read returns 0, count dropped — no panic.
        assert_eq!(p.get_named("pkt", "a"), 0);
        assert_eq!(i.registers()["r"], vec![0, 0]);
        assert_eq!(i.counters()["c"], vec![0, 0]);
    }
}
