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

use std::collections::BTreeMap;

use druzhba_core::coverage::{edge_id, CoverageMap};
use druzhba_core::{Result, Value};

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

/// Coverage site tag for table-outcome edges (hit entry / default / skip).
pub(crate) const COV_TABLE_SITE: u32 = 0x7AB1_E000;
/// Coverage site tag for drop-transition edges.
pub(crate) const COV_DROP_SITE: u32 = 0xD209_0000;

/// The sequential reference interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter {
    hlir: Hlir,
    tables: ProgramTables,
    registers: BTreeMap<String, Vec<Value>>,
    counters: BTreeMap<String, Vec<u64>>,
    /// Optional execution-coverage map ([`Interpreter::enable_coverage`]).
    cov: Option<Box<CoverageMap>>,
}

impl Interpreter {
    /// Build an interpreter from a resolved program and parsed entries.
    /// Entry validation follows [`bind`].
    pub fn new(hlir: &Hlir, entries: &[TableEntry]) -> Result<Self> {
        let tables = bind(hlir, entries)?;
        Ok(Interpreter {
            registers: initial_registers(hlir),
            counters: initial_counters(hlir),
            hlir: hlir.clone(),
            tables,
            cov: None,
        })
    }

    /// Reset registers and counters to their initial (zero) state (the
    /// coverage map, if any, is left as is — clear it separately).
    pub fn reset(&mut self) {
        self.registers = initial_registers(&self.hlir);
        self.counters = initial_counters(&self.hlir);
    }

    /// Attach (or reset) an execution-coverage map: subsequent packets
    /// record table-hit/miss/default edges, action-taken edges, and drop
    /// transitions into it. Recording is allocation-free.
    pub fn enable_coverage(&mut self) {
        match &mut self.cov {
            Some(cov) => cov.clear(),
            None => self.cov = Some(Box::new(CoverageMap::new())),
        }
    }

    /// The coverage accumulated since [`Interpreter::enable_coverage`].
    pub fn coverage(&self) -> Option<&CoverageMap> {
        self.cov.as_deref()
    }

    /// Zero the attached coverage map (no-op when disabled).
    pub fn clear_coverage(&mut self) {
        if let Some(cov) = &mut self.cov {
            cov.clear();
        }
    }

    /// Run one packet through the applied tables in control order,
    /// mutating it in place; returns the per-table hit trace.
    pub fn process(&mut self, packet: &mut Packet) -> Vec<TableHit> {
        let mut hits = Vec::new();
        for t in 0..self.hlir.tables.len() {
            // Header validity is static in this model (the parser chain is
            // linear and unconditional), so guards resolve per program,
            // not per packet.
            if !self.hlir.table_applies(t) {
                continue;
            }
            let selected = self.tables.table(t).lookup(&mut |f| packet.get(f));
            let Some(sel) = selected else {
                // Coverage: the table's skip edge (miss with no default).
                if let Some(cov) = self.cov.as_deref_mut() {
                    cov.hit(edge_id(COV_TABLE_SITE, t as u32, 0));
                }
                continue;
            };
            let (action_name, args, entry) = (sel.action.to_string(), sel.args.to_vec(), sel.entry);
            if let Some(cov) = self.cov.as_deref_mut() {
                // Table-outcome edge: which entry hit (or the default
                // action, outcome 1). Entry → action binding is static,
                // so this doubles as the action-taken edge.
                let outcome = entry.map_or(1, |e| e as Value + 2);
                cov.hit(edge_id(COV_TABLE_SITE, t as u32, outcome));
            }
            let was_dropped = packet.dropped;
            if let Some(action) = self.hlir.program.action(&action_name) {
                execute_action(
                    action,
                    &args,
                    packet,
                    &mut self.registers,
                    &mut self.counters,
                );
            }
            if packet.dropped && !was_dropped {
                // Drop edge, attributed to the table whose action fired it.
                if let Some(cov) = self.cov.as_deref_mut() {
                    cov.hit(edge_id(COV_DROP_SITE, t as u32, 1));
                }
            }
            hits.push(TableHit {
                table: t,
                entry,
                action: action_name,
            });
        }
        hits
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

    /// The resolved program.
    pub fn hlir(&self) -> &Hlir {
        &self.hlir
    }

    /// The bound table runtimes.
    pub fn tables(&self) -> &ProgramTables {
        &self.tables
    }

    /// Final register contents.
    pub fn registers(&self) -> &BTreeMap<String, Vec<Value>> {
        &self.registers
    }

    /// Final counter contents.
    pub fn counters(&self) -> &BTreeMap<String, Vec<u64>> {
        &self.counters
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
