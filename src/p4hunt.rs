//! `druzhba p4-fuzz --mutants`: mutation-driven bug-hunt campaigns over
//! the P4 corpus, plus the cross-model dRMT-vs-RMT differential check.
//!
//! The structure mirrors [`crate::hunt`] — Gauntlet/FP4-style detection-
//! power measurement — applied to the P4 workload:
//!
//! 1. every selected corpus program's entries are mutated by a
//!    deterministic [`P4FaultInjector`]: `mutants_per_class` mutants per
//!    [`P4FaultKind`] (removed entry, mutated action argument, mutated
//!    match value);
//! 2. candidates are *screened for behavioral effect* first (a mutated
//!    match value under masked-out ternary bits, or a removed entry no
//!    probe packet hits, is an equivalent mutant, not a fault); the
//!    probe's diverging traffic seed becomes the mutant's *witness*;
//! 3. every surviving mutant is evaluated on every requested
//!    [`OptLevel`] backend — fresh seeded differential fuzzing first,
//!    then the witness seed — by the resumable campaign engine
//!    [`run_resumable`], with the same crash-proofing as [`crate::hunt`]:
//!    per-case panic isolation on a work-stealing pool, periodic
//!    checkpoints, resume, and wall-clock/per-case budgets (DESIGN.md
//!    §11);
//! 4. every divergence is reduced by the shared delta-debugging engine
//!    ([`druzhba_dsim::p4::p4_minimize`]) so the report carries a
//!    minimized reproducing packet sequence.
//!
//! [`cross_model_check`] is the second differential axis the paper's §4
//! machinery enables: the *same* packets through the sequential
//! interpreter, the staged RMT match-action pipeline, and the scheduled
//! dRMT machine, asserting identical outputs, registers, and counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use druzhba_analysis::p4_symbolic_entries_equivalent;
use druzhba_core::diag::json_string;
use druzhba_core::{Trace, Value};
use druzhba_dgen::mat::MatPipeline;
use druzhba_dgen::OptLevel;
use druzhba_drmt::{solve, DrmtMachine, ScheduleConfig};
use druzhba_dsim::minimize::MinimizedCounterExample;
use druzhba_dsim::p4::{
    p4_minimize, run_p4_case, P4Fault, P4FaultInjector, P4FaultKind, P4Traffic, P4Workload,
};
use druzhba_dsim::runtime::{
    default_workers, run_resumable, Campaign, RecordCodec, RuntimeOptions,
};
use druzhba_dsim::snapshot;
use druzhba_dsim::testing::{shard_seed, Verdict, VerdictClass};
use druzhba_p4::deps::build_dag;
use druzhba_p4::tables::TableEntry;
use druzhba_programs::{p4_by_name, P4_PROGRAMS};

use crate::hunt::{fault_counts_json, json_map, levels_json, packets_json};

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

/// How (whether) one mutant evaluation detected its fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P4Detection {
    /// Caught by fresh seeded fuzzing (`druzhba p4-fuzz --seed` replays).
    Fuzz {
        /// The diverging traffic seed.
        seed: u64,
    },
    /// Missed by fresh seeds, caught by the screening probe's witness.
    Witness {
        /// The witness traffic seed.
        seed: u64,
    },
    /// A backend panicked while evaluating the mutant — recorded as a
    /// detection (the crash *is* the divergence) with the replay seed.
    Panic {
        /// The traffic seed that provoked the panic.
        seed: u64,
    },
    /// Survived every phase under this budget.
    Undetected,
}

/// Stable JSON/snapshot key for a detection.
fn detector_key(d: &P4Detection) -> &'static str {
    match d {
        P4Detection::Fuzz { .. } => "fuzz",
        P4Detection::Witness { .. } => "witness",
        P4Detection::Panic { .. } => "panic",
        P4Detection::Undetected => "none",
    }
}

/// Outcome of evaluating one mutant on one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P4MutantOutcome {
    /// Corpus program name.
    pub program: String,
    /// The injected fault.
    pub fault: P4Fault,
    /// Backend evaluated.
    pub level: OptLevel,
    /// How the fault was detected, if at all.
    pub detection: P4Detection,
    /// Differential batches executed up to and including the detecting
    /// one (fresh fuzz runs then the witness replay; the full budget when
    /// undetected) — the per-mutant executions-to-detection figure
    /// `BENCH_greybox.json` compares against greybox search.
    pub executions: usize,
    /// The observed divergence (`None` when undetected).
    pub verdict: Option<Verdict>,
    /// Minimized counterexample (`None` when undetected).
    pub minimized: Option<MinimizedCounterExample>,
}

impl P4MutantOutcome {
    /// True if the fault was detected on this backend.
    pub fn detected(&self) -> bool {
        !matches!(self.detection, P4Detection::Undetected)
    }
}

/// The checkpoint-codable essence of one completed evaluation: the
/// aggregate keys plus the verbatim JSON row. A resumed campaign restores
/// these instead of re-evaluating, and because the JSON is stored
/// verbatim the final report is byte-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P4EvalRecord {
    /// Corpus program name.
    pub program: String,
    /// The injected fault's class.
    pub fault_kind: P4FaultKind,
    /// Backend evaluated.
    pub level: OptLevel,
    /// Stable detector key (`fuzz`/`witness`/`panic`/`none`).
    pub detector: &'static str,
    /// The verdict's class (`Pass` when undetected).
    pub verdict_class: VerdictClass,
    /// Differential batches executed.
    pub executions: usize,
    /// The verbatim JSON report row.
    pub json: String,
}

/// Project one outcome into its checkpoint record.
fn record_of(o: &P4MutantOutcome) -> P4EvalRecord {
    P4EvalRecord {
        program: o.program.clone(),
        fault_kind: o.fault.kind(),
        level: o.level,
        detector: detector_key(&o.detection),
        verdict_class: o
            .verdict
            .as_ref()
            .map_or(VerdictClass::Pass, Verdict::class),
        executions: o.executions,
        json: outcome_json(o),
    }
}

/// One snapshot line per completed task: tab-separated keys, JSON last
/// (the JSON row never contains a raw tab or newline; snapshot escaping
/// covers the rest).
impl RecordCodec for P4EvalRecord {
    fn encode(&self, idx: usize) -> Option<String> {
        Some(format!(
            "{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.program,
            self.fault_kind.key(),
            self.level.key(),
            self.detector,
            self.verdict_class.key(),
            self.executions,
            self.json
        ))
    }

    fn decode(line: &str) -> Option<(usize, Self)> {
        let mut parts = line.splitn(8, '\t');
        let idx = parts.next()?.parse().ok()?;
        let record = P4EvalRecord {
            program: parts.next()?.to_string(),
            fault_kind: P4FaultKind::from_key(parts.next()?)?,
            level: OptLevel::from_key(parts.next()?)?,
            detector: detector_from_key(parts.next()?)?,
            verdict_class: VerdictClass::from_key(parts.next()?)?,
            executions: parts.next()?.parse().ok()?,
            json: parts.next()?.to_string(),
        };
        Some((idx, record))
    }
}

fn detector_from_key(key: &str) -> Option<&'static str> {
    ["fuzz", "witness", "panic", "none"]
        .into_iter()
        .find(|k| *k == key)
}

/// Aggregate result of a P4 hunt campaign.
#[derive(Debug, Clone)]
pub struct P4HuntReport {
    /// One record per completed (program, mutant, level) task in
    /// deterministic task order — restored from a checkpoint or produced
    /// by this process; the canonical source for aggregates and JSON.
    pub records: Vec<P4EvalRecord>,
    /// Structured outcomes for the evaluations *this process* ran (a
    /// resumed campaign restores earlier tasks as records only).
    pub outcomes: Vec<P4MutantOutcome>,
    /// Tasks abandoned because the wall-clock budget expired.
    pub truncated: usize,
    /// Candidates discarded by screening as behaviorally neutral.
    pub neutral_discarded: usize,
    /// The configuration that produced the report.
    pub config: P4HuntConfig,
}

impl P4HuntReport {
    /// Total completed evaluations.
    pub fn evaluations(&self) -> usize {
        self.records.len()
    }

    /// Detected evaluations.
    pub fn detected(&self) -> usize {
        self.records.iter().filter(|r| r.detector != "none").count()
    }

    /// Detected fraction (1.0 for an empty campaign).
    pub fn detection_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.detected() as f64 / self.evaluations() as f64
    }

    /// `(total, detected)` per fault class.
    pub fn by_fault_kind(&self) -> BTreeMap<P4FaultKind, (usize, usize)> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            let e = out.entry(r.fault_kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += usize::from(r.detector != "none");
        }
        out
    }

    /// Render the campaign as a JSON document (schema: DESIGN.md §7).
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"config\": {{");
        let _ = writeln!(s, "    \"seed\": {},", cfg.seed);
        let _ = writeln!(s, "    \"mutants_per_class\": {},", cfg.mutants_per_class);
        let _ = writeln!(s, "    \"levels\": [{}],", levels_json(&cfg.levels));
        let _ = writeln!(s, "    \"fuzz_phvs\": {},", cfg.fuzz_phvs);
        let _ = writeln!(s, "    \"fuzz_runs\": {},", cfg.fuzz_runs);
        let _ = writeln!(s, "    \"input_bits\": {},", cfg.input_bits);
        let case_budget = cfg
            .case_budget
            .map_or("null".to_string(), |b| b.to_string());
        let _ = writeln!(s, "    \"case_budget\": {case_budget}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"summary\": {{");
        let _ = writeln!(s, "    \"evaluations\": {},", self.evaluations());
        let _ = writeln!(s, "    \"truncated\": {},", self.truncated);
        let _ = writeln!(s, "    \"detected\": {},", self.detected());
        let _ = writeln!(s, "    \"detection_rate\": {:.4},", self.detection_rate());
        let _ = writeln!(s, "    \"neutral_discarded\": {},", self.neutral_discarded);
        let by_fault = json_map(
            self.by_fault_kind()
                .into_iter()
                .map(|(kind, counts)| (kind.key(), fault_counts_json(counts))),
        );
        let _ = writeln!(s, "    \"by_fault\": {{{by_fault}}}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"mutants\": [");
        let rows: Vec<&str> = self.records.iter().map(|r| r.json.as_str()).collect();
        let _ = writeln!(s, "{}", rows.join(",\n"));
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

fn outcome_json(o: &P4MutantOutcome) -> String {
    let mut s = String::new();
    let _ = write!(s, "    {{\"program\": {}, ", json_string(&o.program));
    let fault = match &o.fault {
        P4Fault::RemovedEntry { table, priority } => format!(
            "{{\"kind\": \"removed_entry\", \"table\": {}, \"priority\": {priority}}}",
            json_string(table)
        ),
        P4Fault::ActionArg {
            table,
            priority,
            arg,
            old,
            new,
        } => format!(
            "{{\"kind\": \"action_arg\", \"table\": {}, \"priority\": {priority}, \
             \"arg\": {arg}, \"old\": {old}, \"new\": {new}}}",
            json_string(table)
        ),
        P4Fault::MatchValue {
            table,
            priority,
            clause,
            old,
            new,
        } => format!(
            "{{\"kind\": \"match_value\", \"table\": {}, \"priority\": {priority}, \
             \"clause\": {clause}, \"old\": {old}, \"new\": {new}}}",
            json_string(table)
        ),
    };
    let _ = write!(s, "\"fault\": {fault}, \"level\": \"{}\", ", o.level.key());
    let _ = write!(s, "\"detected_by\": \"{}\", ", detector_key(&o.detection));
    if let P4Detection::Fuzz { seed }
    | P4Detection::Witness { seed }
    | P4Detection::Panic { seed } = o.detection
    {
        let _ = write!(s, "\"seed\": {seed}, ");
    }
    let _ = write!(s, "\"executions_to_detection\": {}, ", o.executions);
    let verdict = o
        .verdict
        .as_ref()
        .map_or("null".to_string(), |v| format!("\"{}\"", v.class().key()));
    let _ = write!(s, "\"verdict\": {verdict}, ");
    match &o.minimized {
        None => {
            let _ = write!(s, "\"minimized\": null}}");
        }
        Some(mce) => {
            let _ = write!(
                s,
                "\"minimized\": {{\"original_packets\": {}, \"packets\": {}, \
                 \"input\": [{}], \"checks\": {}}}}}",
                mce.original_packets,
                mce.packets(),
                packets_json(&mce.input),
                mce.checks,
            );
        }
    }
    s
}

/// One seeded mutant awaiting evaluation.
struct Mutant {
    target: usize,
    fault: P4Fault,
    entries: Vec<TableEntry>,
    /// Traffic seed under which the screening probe saw the divergence.
    witness: u64,
}

/// Run a hunt over named corpus programs (empty = the whole corpus).
pub fn p4_hunt(cfg: &P4HuntConfig) -> Result<P4HuntReport, String> {
    let targets: Vec<(String, P4Workload)> = if cfg.programs.is_empty() {
        P4_PROGRAMS
            .iter()
            .map(|def| {
                def.workload()
                    .map(|w| (def.name.to_string(), w))
                    .map_err(|e| format!("{}: {e}", def.name))
            })
            .collect::<Result<_, _>>()?
    } else {
        cfg.programs
            .iter()
            .map(|name| {
                let def = p4_by_name(name).ok_or_else(|| {
                    format!("unknown P4 program `{name}` (see `druzhba programs`)")
                })?;
                def.workload()
                    .map(|w| (def.name.to_string(), w))
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(p4_hunt_workloads(cfg, &targets))
}

/// Run a hunt over explicit (name, workload) targets — the entry point
/// the CLI uses for ad-hoc `.p4` files.
pub fn p4_hunt_workloads(cfg: &P4HuntConfig, targets: &[(String, P4Workload)]) -> P4HuntReport {
    // Seed mutants deterministically per program and fault class,
    // screening candidates for behavioral effect (the P4 analog of
    // mutation testing's equivalent-mutant problem: a match-value flip
    // under masked-out ternary bits changes nothing).
    let mut mutants: Vec<Mutant> = Vec::new();
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
                let probe_seed = shard_seed(cfg.seed ^ 0x5343_524E, candidate_counter); // "SCRN"
                candidate_counter += 1;
                let Some(witness) = screen(cfg, workload, &entries, probe_seed) else {
                    neutral_discarded += 1;
                    known_neutral.push(fault);
                    continue;
                };
                seeded.push(fault.clone());
                mutants.push(Mutant {
                    target: ti,
                    fault,
                    entries,
                    witness,
                });
            }
        }
    }

    // Every (mutant, level) pair is one evaluation task. Task order (and
    // thus record order and every per-task seed) is a pure function of
    // the configuration, so restored and fresh evaluations interleave
    // into the exact report an uninterrupted run produces.
    let tasks: Vec<(usize, OptLevel)> = mutants
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| cfg.levels.iter().map(move |&l| (mi, l)))
        .collect();
    let fingerprint_cfg = P4HuntConfig {
        runtime: RuntimeOptions::default(),
        ..cfg.clone()
    };
    let campaign = Campaign {
        kind: "p4-hunt",
        fingerprint: snapshot::fingerprint_of_config("p4-hunt", &fingerprint_cfg),
        total: tasks.len(),
        workers: cfg.workers,
        runtime: &cfg.runtime,
    };
    let out = run_resumable(
        &campaign,
        |gi| {
            let (mi, level) = tasks[gi];
            evaluate(cfg, targets, &mutants[mi], level, gi as u64)
        },
        record_of,
        // A worker that dies at the pool level still yields a per-task
        // row: the panic becomes a `P4Detection::Panic` outcome.
        |gi, payload| {
            let (mi, level) = tasks[gi];
            let mutant = &mutants[mi];
            P4MutantOutcome {
                program: targets[mutant.target].0.clone(),
                fault: mutant.fault.clone(),
                level,
                detection: P4Detection::Panic {
                    seed: shard_seed(shard_seed(cfg.seed ^ 0x5034_4855, gi as u64), 0),
                },
                executions: 0,
                verdict: Some(Verdict::BackendPanic {
                    payload: payload.to_string(),
                }),
                minimized: None,
            }
        },
    );
    P4HuntReport {
        records: out.records,
        outcomes: out.fresh,
        truncated: out.truncated,
        neutral_discarded,
        config: cfg.clone(),
    }
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
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let input = P4Traffic::new(workload, seed, cfg.input_bits).trace(cfg.fuzz_phvs);
        if !run_p4_case(workload, entries, OptLevel::SccInline, &input).passed() {
            return Some(seed);
        }
    }
    None
}

/// Evaluate one mutant on one backend: fresh seeded fuzzing, then the
/// witness seed, then minimize whatever diverged.
fn evaluate(
    cfg: &P4HuntConfig,
    targets: &[(String, P4Workload)],
    mutant: &Mutant,
    level: OptLevel,
    task_index: u64,
) -> P4MutantOutcome {
    let (name, workload) = &targets[mutant.target];

    let fuzz_round = |seed: u64| -> Option<(Verdict, Option<MinimizedCounterExample>)> {
        let input = P4Traffic::new(workload, seed, cfg.input_bits).trace(cfg.fuzz_phvs);
        let verdict = run_p4_case(workload, &mutant.entries, level, &input);
        if verdict.passed() {
            return None;
        }
        // A panicking backend can't be delta-debugged — minimization
        // would rebuild it outside the panic guard and re-trip the abort.
        if matches!(verdict, Verdict::BackendPanic { .. }) {
            return Some((verdict, None));
        }
        let minimized = p4_minimize(workload, &mutant.entries, level, &input, 3_000);
        Some((verdict, minimized))
    };

    let outcome = |detection, executions, verdict, minimized| P4MutantOutcome {
        program: name.clone(),
        fault: mutant.fault.clone(),
        level,
        detection,
        executions,
        verdict,
        minimized,
    };

    // Phase 1: fresh seeded fuzzing (ordinary detection power), then
    // phase 2: the screening witness (a known-diverging stream; backends
    // are observationally equivalent, so it fires on every level).
    // `executions` counts differential batches so the report carries
    // executions-to-detection per mutant; the per-case budget caps it.
    let budget = cfg.case_budget.unwrap_or(usize::MAX).max(1);
    let mut executions = 0usize;
    let task_seed = shard_seed(cfg.seed ^ 0x5034_4855, task_index); // "P4HU"
    let fresh = (0..cfg.fuzz_runs).map(|run| (shard_seed(task_seed, run as u64), false));
    for (seed, witness) in fresh.chain([(mutant.witness, true)]) {
        if executions >= budget {
            break;
        }
        executions += 1;
        if let Some((verdict, minimized)) = fuzz_round(seed) {
            let detection = match verdict {
                Verdict::BackendPanic { .. } => P4Detection::Panic { seed },
                _ if witness => P4Detection::Witness { seed },
                _ => P4Detection::Fuzz { seed },
            };
            return outcome(detection, executions, Some(verdict), minimized);
        }
    }
    outcome(P4Detection::Undetected, executions, None, None)
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
        let live = info
            .guards
            .iter()
            .all(|(h, pol)| workload.hlir.header_valid(h) == *pol);
        if !live {
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

/// Replay one input trace through the P4 differential check (used by the
/// integration tests to re-validate minimized counterexamples).
pub fn p4_replay(
    workload: &P4Workload,
    entries: &[TableEntry],
    level: OptLevel,
    input: &Trace,
) -> Verdict {
    run_p4_case(workload, entries, level, input)
}
