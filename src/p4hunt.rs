//! `druzhba p4-fuzz --mutants`: the P4 stack of the mutation hunt
//! ([`crate::mutation`]) — table-entry faults in the P4 corpus — plus the
//! cross-model dRMT-vs-RMT check.
//!
//! A deterministic [`P4FaultInjector`] seeds `mutants_per_class` mutants
//! of each [`P4FaultKind`] (removed entry, action argument, match value).
//! Every candidate is screened for behavioral effect (a match-value flip
//! under masked-out ternary bits is an equivalent mutant), and a fault
//! already found neutral is never probed again. A fuzz round runs the
//! reference interpreter against the lowered match-action pipeline and
//! reduces any divergence with [`druzhba_dsim::p4::p4_minimize`]; the
//! ladder has no verification step.
//!
//! [`cross_model_check`] is the second differential axis the paper's §4
//! machinery enables: the *same* packets through the sequential
//! interpreter, the staged RMT match-action pipeline, and the scheduled
//! dRMT machine, asserting identical outputs, registers, and counters.

use std::collections::BTreeMap;

use druzhba_analysis::p4_symbolic_entries_equivalent;
use druzhba_core::json::{array, Object};
use druzhba_core::Value;
use druzhba_dgen::mat::MatPipeline;
use druzhba_dgen::OptLevel;
use druzhba_drmt::{solve, DrmtMachine, ScheduleConfig};
use druzhba_dsim::p4::{
    P4Checker, P4Fault, P4FaultInjector, P4FaultKind, P4Target, P4Traffic, P4Workload,
};
use druzhba_dsim::runtime::{default_workers, RuntimeOptions};
use druzhba_dsim::snapshot;
use druzhba_dsim::testing::{fuzz_run, shard_seed, FuzzConfig};
use druzhba_p4::deps::build_dag;
use druzhba_p4::tables::TableEntry;
use druzhba_programs::{p4_by_name, P4ProgramDef, P4_PROGRAMS};

use crate::mutation::{
    self, render_report, EvalRecord, HuntFault, Mutant, MutantOutcome, Report, Settings,
    SCREEN_SALT,
};

/// Configuration of a P4 hunt campaign.
#[derive(Debug, Clone)]
pub struct P4HuntConfig {
    /// Corpus programs to hunt over (registry names); empty = all.
    pub programs: Vec<String>,
    /// Mutants seeded per fault class per program.
    pub mutants_per_class: usize,
    /// Campaign seed: mutant selection and fuzz seeds derive from it.
    pub seed: u64,
    /// Backends each mutant is evaluated on.
    pub levels: Vec<OptLevel>,
    /// Packets per differential fuzz run.
    pub fuzz_phvs: usize,
    /// Independently seeded fuzz runs per (mutant, level) before the
    /// witness fallback.
    pub fuzz_runs: usize,
    /// Bit-width cap on randomized header fields.
    pub input_bits: u32,
    /// Worker threads for the evaluation shards.
    pub workers: usize,
    /// Cap on differential batches per (mutant, level) evaluation
    /// (`None` = the full phase schedule).
    pub case_budget: Option<usize>,
    /// Crash-proofing: checkpoint/resume/budget options. Excluded from
    /// the campaign fingerprint — a resumed run may change them freely.
    pub runtime: RuntimeOptions,
}

impl Default for P4HuntConfig {
    fn default() -> Self {
        P4HuntConfig {
            programs: Vec::new(),
            mutants_per_class: 2,
            seed: 0x000D_122B,
            levels: OptLevel::ALL.to_vec(),
            fuzz_phvs: 2_000,
            fuzz_runs: 2,
            input_bits: 16,
            workers: default_workers(),
            case_budget: None,
            runtime: RuntimeOptions::default(),
        }
    }
}

/// The P4 stack's detections: the shared enum, never `Verify`.
pub use crate::mutation::Detection as P4Detection;
/// Outcome of evaluating one table-entry mutant on one backend.
pub type P4MutantOutcome = MutantOutcome<P4Fault>;
/// The checkpoint record of one P4 hunt evaluation (the v1 `p4-hunt`
/// snapshot line, without a static-flag column).
pub type P4EvalRecord = EvalRecord<P4Fault>;
/// The P4 stack's aggregate report.
pub type P4HuntReport = Report<P4Fault, P4HuntConfig>;

impl P4HuntReport {
    /// Render the campaign as a JSON document (schema: DESIGN.md §7).
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let config = Object::block(4)
            .field("seed", cfg.seed)
            .field("mutants_per_class", cfg.mutants_per_class)
            .field("levels", array(cfg.levels.iter().map(|l| l.key()), None))
            .field("fuzz_phvs", cfg.fuzz_phvs)
            .field("fuzz_runs", cfg.fuzz_runs)
            .field("input_bits", cfg.input_bits)
            .field("case_budget", cfg.case_budget);
        let summary = self
            .summary_head()
            .field("neutral_discarded", self.neutral_discarded)
            .field("by_fault", self.by_fault());
        let rows = self.records.iter().map(|r| r.json.as_str());
        render_report(config, summary, "mutants", rows)
    }
}

/// The P4 stack: table-entry faults, no static flag, no verification step.
impl HuntFault for P4Fault {
    type Kind = P4FaultKind;
    const CAMPAIGN: &'static str = "p4-hunt";
    const SALT: u64 = 0x5034_4855; // "P4HU"
    const STATIC_FLAG: bool = false;

    fn class(&self) -> P4FaultKind {
        self.kind()
    }

    fn class_key(kind: P4FaultKind) -> &'static str {
        kind.key()
    }

    fn class_from_key(key: &str) -> Option<P4FaultKind> {
        P4FaultKind::from_key(key)
    }

    fn json(&self) -> Object {
        let (P4Fault::RemovedEntry { table, priority }
        | P4Fault::ActionArg {
            table, priority, ..
        }
        | P4Fault::MatchValue {
            table, priority, ..
        }) = self;
        let fault = Object::new()
            .field("kind", self.kind().key())
            .field("table", table)
            .field("priority", priority);
        match *self {
            P4Fault::RemovedEntry { .. } => fault,
            P4Fault::ActionArg { arg, old, new, .. } => {
                fault.field("arg", arg).field("old", old).field("new", new)
            }
            P4Fault::MatchValue {
                clause, old, new, ..
            } => fault
                .field("clause", clause)
                .field("old", old)
                .field("new", new),
        }
    }
}

/// Run a hunt over named corpus programs (empty = the whole corpus).
pub fn p4_hunt(cfg: &P4HuntConfig) -> Result<P4HuntReport, String> {
    let defs: Vec<&P4ProgramDef> = if cfg.programs.is_empty() {
        P4_PROGRAMS.iter().collect()
    } else {
        cfg.programs
            .iter()
            .map(|name| {
                p4_by_name(name)
                    .ok_or_else(|| format!("unknown P4 program `{name}` (see `druzhba programs`)"))
            })
            .collect::<Result<_, _>>()?
    };
    let targets: Vec<(String, P4Workload)> = defs
        .iter()
        .map(|def| {
            def.workload()
                .map(|w| (def.name.to_string(), w))
                .map_err(|e| format!("{}: {e}", def.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(p4_hunt_workloads(cfg, &targets))
}

/// Run a hunt over explicit (name, workload) targets — the entry point
/// the CLI uses for ad-hoc `.p4` files.
pub fn p4_hunt_workloads(cfg: &P4HuntConfig, targets: &[(String, P4Workload)]) -> P4HuntReport {
    // Seed mutants deterministically per program and fault class,
    // screening candidates for behavioral effect (the P4 analog of
    // mutation testing's equivalent-mutant problem: a match-value flip
    // under masked-out ternary bits changes nothing).
    let mut mutants: Vec<Mutant<P4Fault, Vec<TableEntry>>> = Vec::new();
    let mut neutral_discarded = 0usize;
    let mut candidate_counter = 0u64;
    for (ti, (_, workload)) in targets.iter().enumerate() {
        let mut injector = P4FaultInjector::new(shard_seed(cfg.seed, ti as u64));
        for kind in P4FaultKind::ALL {
            let mut seeded: Vec<P4Fault> = Vec::new();
            // Faults already probed and found behaviorally neutral: a
            // redraw of the same fault must neither pay another
            // screening probe nor inflate `neutral_discarded`.
            let mut known_neutral: Vec<P4Fault> = Vec::new();
            for _ in 0..cfg.mutants_per_class * 10 {
                if seeded.len() >= cfg.mutants_per_class {
                    break;
                }
                let Some((entries, fault)) = injector.inject(&workload.entries, kind) else {
                    break;
                };
                if seeded.contains(&fault) || known_neutral.contains(&fault) {
                    continue;
                }
                let probe_seed = shard_seed(cfg.seed ^ SCREEN_SALT, candidate_counter);
                candidate_counter += 1;
                let Some(witness) = screen(cfg, workload, &entries, probe_seed) else {
                    neutral_discarded += 1;
                    known_neutral.push(fault);
                    continue;
                };
                seeded.push(fault.clone());
                mutants.push(Mutant {
                    program: ti,
                    fault,
                    payload: entries,
                    static_flag: None,
                    witness: Some(witness),
                });
            }
        }
    }

    let settings = Settings {
        seed: cfg.seed,
        levels: &cfg.levels,
        fuzz_runs: cfg.fuzz_runs,
        case_budget: cfg.case_budget,
        workers: cfg.workers,
        runtime: &cfg.runtime,
        fingerprint: snapshot::fingerprint_of_config(
            P4Fault::CAMPAIGN,
            &P4HuntConfig {
                runtime: RuntimeOptions::default(),
                ..cfg.clone()
            },
        ),
    };
    let names: Vec<&str> = targets.iter().map(|(name, _)| name.as_str()).collect();
    mutation::run(
        &settings,
        &names,
        &mutants,
        neutral_discarded,
        cfg.clone(),
        |mutant, level, ladder| {
            let target = P4Target {
                workload: &targets[mutant.program].1,
                entries: &mutant.payload,
                level,
            };
            // One minimized fuzz round (panics are never minimized); this
            // stack's ladder has no verification step, so `seed` is
            // always set.
            ladder.run(false, |seed| {
                let round = FuzzConfig {
                    num_phvs: cfg.fuzz_phvs,
                    seed: seed?,
                    input_bits: cfg.input_bits,
                    ..FuzzConfig::default()
                };
                let report = fuzz_run(&target, &mut (), &round);
                (!report.passed()).then_some((report.verdict, report.minimized))
            })
        },
    )
}

/// Probe a candidate for behavioral effect: seeded differential fuzz runs
/// on the default backend. Returns the first diverging traffic seed, or
/// `None` for a presumed-equivalent mutant.
fn screen(
    cfg: &P4HuntConfig,
    workload: &P4Workload,
    entries: &[TableEntry],
    probe_seed: u64,
) -> Option<u64> {
    // Screen by proof first: if the mutated entry set compiles to the
    // same canonical symbolic transfer function as the intended one, no
    // packet stream can distinguish them — discard without probing.
    if p4_symbolic_entries_equivalent(
        &workload.hlir,
        &workload.entries,
        entries,
        &workload.lowering,
    ) == Some(true)
    {
        return None;
    }
    let mut checker = P4Checker::new(workload, OptLevel::SccInline);
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let input = P4Traffic::new(workload, seed, cfg.input_bits).trace(cfg.fuzz_phvs);
        if !checker.check(entries, &input).passed() {
            return Some(seed);
        }
    }
    None
}

// ----------------------------------------------------------------------
// Cross-model differential: interpreter vs. RMT pipeline vs. dRMT.
// ----------------------------------------------------------------------

/// Result of one cross-model check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossModelReport {
    /// Packets driven through the models.
    pub packets: usize,
    /// The dRMT schedule's makespan (ticks per packet; 0 when the dRMT
    /// leg was skipped).
    pub drmt_makespan: u32,
    /// RMT pipeline depth (stages).
    pub rmt_stages: usize,
    /// `None` when the dRMT machine participated; `Some(reason)` when
    /// its leg was skipped because the program violates the dRMT
    /// state-consistency precondition (see [`drmt_state_consistent`]).
    pub drmt_skipped: Option<String>,
}

/// Whether the dRMT machine's pipelined execution is guaranteed
/// equivalent to sequential per-packet execution for this program: every
/// register/counter must be touched by at most one *live* table (guards
/// statically true). A stateful object shared across tables has
/// cross-packet read/write hazards the scheduler does not serialize —
/// `drmt::machine`'s documented state-consistency model — so comparing
/// such a program against the sequential interpreter would report
/// spurious divergences. Returns the first shared object's name, or
/// `None` when the program is consistent.
pub fn drmt_state_consistent(workload: &P4Workload) -> Option<String> {
    let mut owner: BTreeMap<&str, usize> = BTreeMap::new();
    for (t, info) in workload.hlir.tables.iter().enumerate() {
        if !workload.hlir.table_applies(t) {
            continue;
        }
        for obj in &info.stateful {
            if let Some(&first) = owner.get(obj.as_str()) {
                if first != t {
                    return Some(obj.clone());
                }
            } else {
                owner.insert(obj, t);
            }
        }
    }
    None
}

/// Drive the same seeded packet stream through the sequential reference
/// interpreter, the staged RMT match-action pipeline
/// ([`OptLevel::Fused`]), and the scheduled dRMT machine, and assert all
/// three agree on every output packet and on final registers/counters —
/// the dRMT-schedule-vs-RMT-schedule oracle.
///
/// The dRMT leg only runs when the program satisfies the machine's
/// state-consistency precondition ([`drmt_state_consistent`]); otherwise
/// it is skipped (recorded in [`CrossModelReport::drmt_skipped`]) rather
/// than reported as a spurious divergence — the dRMT model for shared
/// stateful objects is the paper's explicit "ongoing work".
pub fn cross_model_check(
    workload: &P4Workload,
    seed: u64,
    packets: usize,
    input_bits: u32,
) -> Result<CrossModelReport, String> {
    let layout = &workload.lowering.layout;
    let input = P4Traffic::new(workload, seed, input_bits).trace(packets);
    let packet_list: Vec<druzhba_p4::exec::Packet> = input
        .phvs
        .iter()
        .enumerate()
        .map(|(i, phv)| layout.phv_to_packet(i as u64, phv))
        .collect();

    // Model 1: sequential reference interpreter.
    let mut interp = workload.interpreter();
    let (expected_packets, _) = interp.run(packet_list.clone());

    // Model 2: staged RMT match-action pipeline (fused backend).
    let mut pipeline = MatPipeline::generate(
        &workload.hlir,
        &workload.entries,
        &workload.lowering,
        OptLevel::Fused,
    )
    .map_err(|e| e.to_string())?;
    let rmt_out = pipeline.run(&input);
    for (i, (expected, actual)) in expected_packets.iter().zip(rmt_out.phvs.iter()).enumerate() {
        let expected_phv = layout.packet_to_phv(expected);
        if &expected_phv != actual {
            return Err(format!(
                "RMT pipeline diverges from interpreter on packet {i}: \
                 expected {expected_phv}, got {actual}"
            ));
        }
    }

    // Model 3: scheduled dRMT machine — only when its pipelined
    // execution is guaranteed sequential-equivalent for this program.
    type StatefulState = (BTreeMap<String, Vec<Value>>, BTreeMap<String, Vec<u64>>);
    let drmt_skipped = drmt_state_consistent(workload)
        .map(|obj| format!("stateful object `{obj}` is shared across tables"));
    let mut makespan = 0;
    let mut drmt_state: Option<StatefulState> = None;
    if drmt_skipped.is_none() {
        let dag = build_dag(&workload.hlir);
        let sched_cfg = ScheduleConfig::default();
        let schedule = solve(&dag, &sched_cfg).map_err(|e| e.to_string())?;
        makespan = schedule.makespan();
        let mut machine = DrmtMachine::new(
            workload.hlir.clone(),
            schedule,
            sched_cfg,
            workload.entries.clone(),
        )
        .map_err(|e| e.to_string())?;
        let drmt_out = machine.run(packet_list);
        if drmt_out.len() != expected_packets.len() {
            return Err(format!(
                "dRMT completed {} of {} packets",
                drmt_out.len(),
                expected_packets.len()
            ));
        }
        for (i, (expected, actual)) in expected_packets.iter().zip(drmt_out.iter()).enumerate() {
            if expected != actual {
                return Err(format!(
                    "dRMT machine diverges from interpreter on packet {i}: \
                     expected {expected:?}, got {actual:?}"
                ));
            }
        }
        drmt_state = Some((machine.registers().clone(), machine.counters().clone()));
    }

    // Final state: every participating model agrees.
    let mut reg_views: Vec<(&str, BTreeMap<String, Vec<Value>>)> =
        vec![("RMT pipeline", pipeline.registers())];
    let mut ctr_views: Vec<(&str, BTreeMap<String, Vec<u64>>)> =
        vec![("RMT pipeline", pipeline.counters())];
    if let Some((regs, ctrs)) = drmt_state {
        reg_views.push(("dRMT machine", regs));
        ctr_views.push(("dRMT machine", ctrs));
    }
    for (model, regs) in &reg_views {
        if regs != interp.registers() {
            return Err(format!(
                "{model} register state diverges: expected {:?}, got {regs:?}",
                interp.registers()
            ));
        }
    }
    for (model, ctrs) in &ctr_views {
        if ctrs != interp.counters() {
            return Err(format!(
                "{model} counter state diverges: expected {:?}, got {ctrs:?}",
                interp.counters()
            ));
        }
    }

    Ok(CrossModelReport {
        packets,
        drmt_makespan: makespan,
        rmt_stages: workload.lowering.num_stages(),
        drmt_skipped,
    })
}
