//! The dRMT machine: match+action processors over centralized memory.
//!
//! Paper §4.2: *"At every simulation tick, a packet is generated by the
//! traffic generator and given to a processor in a round robin fashion.
//! Matches and actions performed on packets specified by the given table
//! entries are performed according to the given dRMT schedule."*
//!
//! Every in-flight packet executes the program's operations at fixed
//! offsets from its arrival tick (the schedule); processors therefore hold
//! several packets concurrently, and because arrivals are staggered one
//! per tick, the mod-P capacity constraints of the scheduler guarantee
//! per-tick hardware limits are respected (asserted in [`DrmtStats`]).
//!
//! **State-consistency model.** A register or counter accessed by exactly
//! one table is accessed in packet-arrival order (all packets touch it at
//! the same schedule offset), making dRMT execution equivalent to
//! sequential per-packet execution — an invariant the test suite checks.
//! Programs sharing a register across tables get an action-dependency edge
//! and remain internally ordered, but cross-packet interleavings may then
//! differ from sequential execution (the paper's dRMT model is explicitly
//! "ongoing work"; §7 lists its limits).

use std::collections::BTreeMap;

use druzhba_core::{Result, Value};
use druzhba_p4::deps::build_dag;
use druzhba_p4::exec::execute_action;
use druzhba_p4::hlir::Hlir;
use druzhba_p4::tables::{bind, ProgramTables};

use crate::schedule::{Schedule, ScheduleConfig};
use crate::table_entries::TableEntry;

/// A packet: field values plus bookkeeping. Shared with the reference
/// interpreter — see [`druzhba_p4::exec::Packet`].
pub use druzhba_p4::exec::Packet;

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrmtStats {
    pub ticks: u64,
    pub packets_in: u64,
    pub packets_out: u64,
    pub matches_issued: u64,
    pub actions_executed: u64,
    /// Memory-cluster accesses through the crossbar (matches plus
    /// register/counter operations).
    pub crossbar_accesses: u64,
    /// Crossbar accesses per memory cluster (tables, registers, and
    /// counters are distributed round-robin across clusters).
    pub cluster_accesses: Vec<u64>,
    /// Peak accesses to any single cluster in one tick — the crossbar
    /// contention figure.
    pub max_cluster_accesses_per_tick: u64,
    /// Peak matches issued by one processor in one tick. The scheduler's
    /// mod-P constraint guarantees this respects the per-processor match
    /// capacity: a processor's in-flight packets all sit at schedule
    /// offsets congruent mod P, so its per-tick work is exactly one
    /// residue's worth.
    pub max_matches_per_processor_tick: u64,
    /// Peak actions executed by one processor in one tick.
    pub max_actions_per_processor_tick: u64,
}

/// One packet in flight on a processor.
#[derive(Debug, Clone)]
struct InFlight {
    packet: Packet,
    arrival: u64,
    processor: usize,
    /// Per table: the action selected by the match (entry args bound), or
    /// `None` when the match has not happened / missed with no default /
    /// the table's guard failed.
    chosen: Vec<Option<(String, Vec<Value>)>>,
}

/// The dRMT simulator.
#[derive(Debug)]
pub struct DrmtMachine {
    hlir: Hlir,
    schedule: Schedule,
    cfg: ScheduleConfig,
    /// Validated per-table entry runtimes (the shared match engine).
    tables: ProgramTables,
    registers: BTreeMap<String, Vec<Value>>,
    counters: BTreeMap<String, Vec<u64>>,
    /// Memory cluster of each applied table (round-robin).
    table_cluster: Vec<usize>,
    /// Memory cluster of each register/counter, by name.
    stateful_cluster: BTreeMap<String, usize>,
    clusters: usize,
    inflight: Vec<InFlight>,
    next_processor: usize,
    tick: u64,
    stats: DrmtStats,
}

impl DrmtMachine {
    /// Build a machine from a resolved program, a schedule, and table
    /// entries. Entries referencing unknown tables/actions are rejected.
    pub fn new(
        hlir: Hlir,
        schedule: Schedule,
        cfg: ScheduleConfig,
        entries: Vec<TableEntry>,
    ) -> Result<Self> {
        let tables = bind(&hlir, &entries)?;
        let registers = druzhba_p4::exec::initial_registers(&hlir);
        let counters = druzhba_p4::exec::initial_counters(&hlir);
        // Distribute memories over clusters round-robin: one cluster per
        // processor by default (the dRMT paper pairs them).
        let clusters = cfg.processors.max(1);
        let table_cluster: Vec<usize> = (0..hlir.tables.len()).map(|i| i % clusters).collect();
        let mut stateful_cluster = BTreeMap::new();
        for (i, name) in registers.keys().chain(counters.keys()).cloned().enumerate() {
            stateful_cluster.insert(name, (hlir.tables.len() + i) % clusters);
        }
        Ok(DrmtMachine {
            hlir,
            schedule,
            cfg,
            tables,
            registers,
            counters,
            table_cluster,
            stateful_cluster,
            clusters,
            inflight: Vec::new(),
            next_processor: 0,
            tick: 0,
            stats: DrmtStats {
                cluster_accesses: vec![0; clusters],
                ..DrmtStats::default()
            },
        })
    }

    /// Number of memory clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The memory cluster holding an applied table.
    pub fn table_cluster(&self, table_idx: usize) -> usize {
        self.table_cluster[table_idx]
    }

    /// Simulation statistics so far.
    pub fn stats(&self) -> &DrmtStats {
        &self.stats
    }

    /// Final register contents.
    pub fn registers(&self) -> &BTreeMap<String, Vec<Value>> {
        &self.registers
    }

    /// Final counter contents.
    pub fn counters(&self) -> &BTreeMap<String, Vec<u64>> {
        &self.counters
    }

    /// Execute one tick: optionally accept a packet (round-robin to the
    /// next processor), run every in-flight packet's due operations, and
    /// return packets completing this tick.
    pub fn tick(&mut self, inject: Option<Packet>) -> Vec<Packet> {
        let makespan = self.schedule.makespan() as u64;
        if let Some(packet) = inject {
            let processor = self.next_processor;
            self.next_processor = (self.next_processor + 1) % self.cfg.processors.max(1);
            self.stats.packets_in += 1;
            self.inflight.push(InFlight {
                chosen: vec![None; self.hlir.tables.len()],
                packet,
                arrival: self.tick,
                processor,
            });
        }

        let mut matches_per_proc = vec![0u64; self.cfg.processors.max(1)];
        let mut actions_per_proc = vec![0u64; self.cfg.processors.max(1)];
        let mut cluster_this_tick = vec![0u64; self.clusters];

        // Operations due this tick, in schedule order per packet.
        for fl in &mut self.inflight {
            let offset = (self.tick - fl.arrival) as u32;
            for t in 0..self.hlir.tables.len() {
                if self.schedule.match_slot[t] == offset {
                    // Guards: header validity is static (metadata and
                    // extracted headers are valid), so each guard path
                    // resolves per program.
                    if self.hlir.table_applies(t) {
                        matches_per_proc[fl.processor] += 1;
                        self.stats.matches_issued += 1;
                        self.stats.crossbar_accesses += 1;
                        let cluster = self.table_cluster[t];
                        self.stats.cluster_accesses[cluster] += 1;
                        cluster_this_tick[cluster] += 1;
                        let packet = &fl.packet;
                        fl.chosen[t] = self
                            .tables
                            .table(t)
                            .lookup(|p| packet.get(&p.field))
                            .map(|sel| (sel.action.to_string(), sel.args.to_vec()));
                    }
                }
                if self.schedule.action_slot[t] == offset {
                    if let Some((action, args)) = fl.chosen[t].take() {
                        actions_per_proc[fl.processor] += 1;
                        self.stats.actions_executed += 1;
                        let stateful_ops = match self.hlir.program.action(&action) {
                            Some(decl) => execute_action(
                                decl,
                                &args,
                                &mut fl.packet,
                                &mut self.registers,
                                &mut self.counters,
                            ),
                            None => 0,
                        };
                        self.stats.crossbar_accesses += stateful_ops;
                        // Register/counter traffic hits the stateful
                        // objects' clusters; attribute it to the table's
                        // stateful set (every touched object lives in one
                        // cluster).
                        if stateful_ops > 0 {
                            for obj in &self.hlir.tables[t].stateful {
                                if let Some(&cluster) = self.stateful_cluster.get(obj) {
                                    self.stats.cluster_accesses[cluster] += 1;
                                    cluster_this_tick[cluster] += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        for p in 0..self.cfg.processors.max(1) {
            self.stats.max_matches_per_processor_tick = self
                .stats
                .max_matches_per_processor_tick
                .max(matches_per_proc[p]);
            self.stats.max_actions_per_processor_tick = self
                .stats
                .max_actions_per_processor_tick
                .max(actions_per_proc[p]);
        }
        for &c in &cluster_this_tick {
            self.stats.max_cluster_accesses_per_tick =
                self.stats.max_cluster_accesses_per_tick.max(c);
        }

        // Completions.
        let tick = self.tick;
        let mut done = Vec::new();
        self.inflight.retain(|fl| {
            if tick - fl.arrival + 1 >= makespan.max(1) {
                done.push(fl.packet.clone());
                false
            } else {
                true
            }
        });
        self.stats.packets_out += done.len() as u64;
        self.stats.ticks += 1;
        self.tick += 1;
        done
    }

    /// Run a whole packet sequence (one injection per tick) to completion.
    pub fn run(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        let n = packets.len();
        let mut out = Vec::with_capacity(n);
        let mut pending = packets.into_iter();
        let drain = self.schedule.makespan() as usize + 1;
        for _ in 0..n + drain {
            out.extend(self.tick(pending.next()));
        }
        out
    }
}

/// What [`execute_sequential`] produces: the packets in completion order,
/// the final register file per register name, and the final counter values
/// per counter name.
pub type SequentialBaseline = (
    Vec<Packet>,
    BTreeMap<String, Vec<Value>>,
    BTreeMap<String, Vec<u64>>,
);

/// Reference executor: run each packet through the applied tables in
/// control order, to completion, one packet at a time. The semantic
/// baseline the scheduled machine must agree with.
pub fn execute_sequential(
    hlir: &Hlir,
    entries: &[TableEntry],
    packets: &[Packet],
) -> Result<SequentialBaseline> {
    // Reuse the machine loop with a trivial schedule and a single
    // processor, feeding packets one at a time with full drain.
    let dag = build_dag(hlir);
    let n = hlir.tables.len() as u32;
    let schedule = Schedule {
        match_slot: (0..n).map(|i| 2 * i).collect(),
        action_slot: (0..n).map(|i| 2 * i + 1).collect(),
    };
    let cfg = ScheduleConfig {
        delta_match: 1,
        delta_action: 1,
        match_capacity: hlir.tables.len().max(1),
        action_capacity: hlir.tables.len().max(1),
        processors: 1,
    };
    crate::schedule::check_schedule(&dag, &cfg, &schedule)?;
    let mut machine = DrmtMachine::new(hlir.clone(), schedule, cfg, entries.to_vec())?;
    let mut out = Vec::new();
    for p in packets {
        // One packet at a time: inject, then drain completely.
        let mut done = machine.tick(Some(p.clone()));
        while done.is_empty() {
            done = machine.tick(None);
        }
        out.extend(done);
    }
    Ok((out, machine.registers.clone(), machine.counters.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::solve;
    use crate::table_entries::parse_entries;
    use crate::traffic::PacketGen;
    use druzhba_p4::ast::FieldRef;
    use druzhba_p4::parse_p4;

    const PROGRAM: &str = r#"
        header_type pkt_t { fields { dst : 8; proto : 8; } }
        header_type meta_t { fields { port : 8; hits : 32; } }
        header pkt_t pkt;
        metadata meta_t meta;
        parser start { extract(pkt); return ingress; }
        register seen { width : 32; instance_count : 4; }
        counter total { instance_count : 4; }
        action set_port(port) { modify_field(meta.port, port); }
        action note() {
            register_write(seen, 1, pkt.dst);
            count(total, 0);
        }
        action _drop() { drop(); }
        table forward {
            reads { pkt.dst : exact; }
            actions { set_port; _drop; }
            default_action : _drop;
        }
        table audit {
            reads { meta.port : ternary; }
            actions { note; }
        }
        control ingress { apply(forward); apply(audit); }
    "#;

    const ENTRIES: &str = "forward : pkt.dst=1 => set_port(10)\n\
                           forward : pkt.dst=2 => set_port(20)\n\
                           audit : meta.port=10/0xff => note()\n";

    fn machine() -> DrmtMachine {
        let hlir = parse_p4(PROGRAM).unwrap();
        let dag = build_dag(&hlir);
        let cfg = ScheduleConfig::default();
        let schedule = solve(&dag, &cfg).unwrap();
        DrmtMachine::new(hlir, schedule, cfg, parse_entries(ENTRIES).unwrap()).unwrap()
    }

    fn packet(id: u64, dst: Value) -> Packet {
        let mut fields = BTreeMap::new();
        fields.insert(
            FieldRef {
                header: "pkt".into(),
                field: "dst".into(),
            },
            dst,
        );
        Packet::from_fields(id, fields)
    }

    #[test]
    fn exact_match_and_action_params() {
        let mut m = machine();
        let out = m.run(vec![packet(0, 1), packet(1, 2), packet(2, 9)]);
        assert_eq!(out.len(), 3);
        let port = |p: &Packet| {
            p.get(&FieldRef {
                header: "meta".into(),
                field: "port".into(),
            })
        };
        assert_eq!(port(&out[0]), 10);
        assert_eq!(port(&out[1]), 20);
        // Miss -> default drop.
        assert_eq!(port(&out[2]), 0);
        assert!(out[2].dropped);
    }

    #[test]
    fn dependent_table_sees_updated_field() {
        let mut m = machine();
        let out = m.run(vec![packet(0, 1)]);
        assert_eq!(out.len(), 1);
        // audit matched on meta.port == 10 (written by forward) and wrote
        // the register through the crossbar.
        assert_eq!(m.registers()["seen"][1], 1);
        assert_eq!(m.counters()["total"][0], 1);
    }

    #[test]
    fn scheduled_equals_sequential() {
        let hlir = parse_p4(PROGRAM).unwrap();
        let entries = parse_entries(ENTRIES).unwrap();
        let mut gen = PacketGen::new(&hlir, 77);
        let packets: Vec<Packet> = (0..50).map(|_| gen.next_packet()).collect();

        let mut m = machine();
        let scheduled = m.run(packets.clone());
        let (sequential, seq_regs, seq_counters) =
            execute_sequential(&hlir, &entries, &packets).unwrap();
        // Packets complete in arrival order in both executions.
        assert_eq!(scheduled, sequential);
        assert_eq!(m.registers(), &seq_regs);
        assert_eq!(m.counters(), &seq_counters);
    }

    #[test]
    fn stats_respect_capacity() {
        let mut m = machine();
        let packets: Vec<Packet> = (0..40).map(|i| packet(i, (i % 3) as u32)).collect();
        m.run(packets);
        let stats = m.stats();
        assert!(stats.packets_out == 40);
        assert!(
            stats.max_matches_per_processor_tick <= ScheduleConfig::default().match_capacity as u64
        );
        assert!(
            stats.max_actions_per_processor_tick
                <= ScheduleConfig::default().action_capacity as u64
        );
        assert!(stats.matches_issued > 0);
        assert!(stats.crossbar_accesses >= stats.matches_issued);
    }

    #[test]
    fn entry_validation() {
        let hlir = parse_p4(PROGRAM).unwrap();
        let dag = build_dag(&hlir);
        let cfg = ScheduleConfig::default();
        let schedule = solve(&dag, &cfg).unwrap();
        // Unknown table.
        let bad = parse_entries("ghost : pkt.dst=1 => set_port(1)\n").unwrap();
        assert!(DrmtMachine::new(hlir.clone(), schedule.clone(), cfg, bad).is_err());
        // Action not in table.
        let bad = parse_entries("forward : pkt.dst=1 => note()\n").unwrap();
        assert!(DrmtMachine::new(hlir.clone(), schedule.clone(), cfg, bad).is_err());
        // Field not read by table.
        let bad = parse_entries("forward : meta.port=1 => set_port(1)\n").unwrap();
        assert!(DrmtMachine::new(hlir, schedule, cfg, bad).is_err());
    }

    #[test]
    fn cluster_accounting() {
        let mut m = machine();
        m.run((0..20).map(|i| packet(i, 1)).collect());
        let stats = m.stats().clone();
        // Two tables over (default) 4 processors -> 4 clusters; tables sit
        // in clusters 0 and 1.
        assert_eq!(m.clusters(), 4);
        assert_eq!(m.table_cluster(0), 0);
        assert_eq!(m.table_cluster(1), 1);
        // All match traffic lands in the table clusters; register/counter
        // traffic in the stateful clusters.
        let total: u64 = stats.cluster_accesses.iter().sum();
        assert!(total >= stats.matches_issued);
        assert!(stats.max_cluster_accesses_per_tick >= 1);
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let src = r#"
            header_type ip_t { fields { dst : 32; } }
            header_type meta_t { fields { nhop : 32; } }
            header ip_t ip;
            metadata meta_t meta;
            parser start { extract(ip); return ingress; }
            action set_nhop(n) { modify_field(meta.nhop, n); }
            table route { reads { ip.dst : lpm; } actions { set_nhop; } }
            control ingress { apply(route); }
        "#;
        let hlir = parse_p4(src).unwrap();
        let dag = build_dag(&hlir);
        let cfg = ScheduleConfig::default();
        let schedule = solve(&dag, &cfg).unwrap();
        // 10.x.x.x/8 -> 1 ; 10.1.x.x/16 -> 2 (longest must win).
        let entries = parse_entries(
            "route : ip.dst=0x0A000000/8 => set_nhop(1)\n\
             route : ip.dst=0x0A010000/16 => set_nhop(2)\n",
        )
        .unwrap();
        let mut m = DrmtMachine::new(hlir, schedule, cfg, entries).unwrap();
        let mk = |dst: u32| {
            let mut fields = BTreeMap::new();
            fields.insert(
                FieldRef {
                    header: "ip".into(),
                    field: "dst".into(),
                },
                dst,
            );
            Packet::from_fields(0, fields)
        };
        let nhop = FieldRef {
            header: "meta".into(),
            field: "nhop".into(),
        };
        let out = m.run(vec![mk(0x0A010203), mk(0x0A990203), mk(0x0B000000)]);
        assert_eq!(out[0].get(&nhop), 2, "16-bit prefix wins");
        assert_eq!(out[1].get(&nhop), 1, "8-bit prefix");
        assert_eq!(out[2].get(&nhop), 0, "no match, no default");
    }
}
