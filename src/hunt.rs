//! `druzhba hunt`: end-to-end mutation-driven bug-hunt campaigns over the
//! Table 1 corpus.
//!
//! Gauntlet and FP4 (PAPERS.md) measure a compiler tester by its
//! *detection power*: seed known faults, count how many the workflow
//! catches, and report the survivors. This module turns
//! [`druzhba_dsim::fault`] from a test fixture into that campaign:
//!
//! 1. every selected corpus program is compiled to known-good machine code;
//! 2. a deterministic [`FaultInjector`] seeds `mutants_per_class` mutants
//!    for each of the four [`FaultKind`] classes. Value mutations are
//!    *screened for behavioral effect* first: a candidate that no probe
//!    distinguishes from the baseline is an encoding variant (mutation
//!    testing's "equivalent mutant"), not a fault, and is discarded and
//!    redrawn. The probe's diverging traffic seed is kept as the mutant's
//!    *witness*;
//! 3. every mutant is evaluated on every requested [`OptLevel`] backend —
//!    fresh seeded fuzzing first, then the witness seed, then bounded
//!    exhaustive verification — run by the resumable campaign engine
//!    ([`run_resumable`], the same engine behind `fuzz_campaign`) on its
//!    panic-isolated work-stealing pool;
//! 4. every divergence is delta-debugged against the known-good baseline
//!    ([`minimize_fault`]) so the report carries the essential machine-code
//!    edits and a minimized reproducing input, not a raw 2000-packet dump.
//!
//! The split between [`Detection::Fuzz`] and [`Detection::Witness`] keeps
//! the report honest: fresh-seed detections measure the workflow's
//! ordinary power, witness detections mean "the fault is real but this
//! backend's fresh seeds missed it".
//!
//! [`HuntReport::to_json`] renders the whole campaign machine-readably
//! (detection rate, failure taxonomy, minimized traces); the schema is
//! documented in DESIGN.md §7.
//!
//! The campaign is crash-proof (DESIGN.md §11): evaluations run on the
//! work-stealing pool with per-case panic isolation (a panicking backend
//! becomes a [`Detection::Panic`] row, never an abort), completed
//! evaluations checkpoint to `--checkpoint DIR` as [`EvalRecord`] lines
//! that `--resume DIR` restores without re-evaluating, and a wall-clock
//! budget truncates the campaign at a clean per-evaluation boundary.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use druzhba_analysis::{flag_mutant, symbolic_equivalent, StaticFlag};
use druzhba_chipmunk::CompiledProgram;
use druzhba_core::diag::json_string;
use druzhba_core::Trace;
use druzhba_dgen::OptLevel;
use druzhba_dsim::fault::{Fault, FaultInjector, FaultKind};
use druzhba_dsim::minimize::{minimize_fault, MinimizeConfig, MinimizedCounterExample};
use druzhba_dsim::runtime::{
    catch_silent, default_workers, run_resumable, Campaign, RecordCodec, RuntimeOptions,
};
use druzhba_dsim::snapshot;
use druzhba_dsim::testing::{fuzz_test, shard_seed, FuzzConfig, Verdict, VerdictClass};
use druzhba_dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba_dsim::TrafficGenerator;
use druzhba_programs::{by_name, ProgramDef, PROGRAMS};

/// Configuration of a hunt campaign.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Corpus programs to hunt over (registry names); empty = all twelve.
    pub programs: Vec<String>,
    /// Mutants seeded per fault class per program.
    pub mutants_per_class: usize,
    /// Campaign seed: mutant selection and fuzz seeds all derive from it.
    pub seed: u64,
    /// Backends each mutant is evaluated on.
    pub levels: Vec<OptLevel>,
    /// PHVs per fuzz run.
    pub fuzz_phvs: usize,
    /// Independently seeded fuzz runs per (mutant, level) before falling
    /// back to bounded verification.
    pub fuzz_runs: usize,
    /// Bit width of fuzzed container values.
    pub input_bits: u32,
    /// Bit width for the bounded-verification fallback.
    pub verify_bits: u32,
    /// Trace length for the bounded-verification fallback.
    pub verify_packets: usize,
    /// Worker threads for the evaluation shards.
    pub workers: usize,
    /// Hard cap on differential batches per (mutant, level) evaluation
    /// (`--case-budget N`): phases that would exceed the cap are skipped
    /// and the evaluation reports whatever its budget allowed.
    /// Deterministic — the cap counts batches, it does not time them.
    /// `None` runs the full fuzz → witness → verify ladder.
    pub case_budget: Option<usize>,
    /// Crash-resilience options: checkpoint/resume and the wall-clock
    /// budget ([`RuntimeOptions`]). Excluded from the snapshot
    /// fingerprint.
    pub runtime: RuntimeOptions,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            programs: Vec::new(),
            mutants_per_class: 2,
            seed: 0x000D_122B,
            levels: OptLevel::ALL.to_vec(),
            fuzz_phvs: 2_000,
            fuzz_runs: 2,
            input_bits: 10,
            verify_bits: 2,
            verify_packets: 3,
            workers: default_workers(),
            case_budget: None,
            runtime: RuntimeOptions::default(),
        }
    }
}

/// How (whether) one mutant evaluation detected its fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// Caught by fresh seeded fuzzing; the seed replays the failure via
    /// `druzhba fuzz --seed`.
    Fuzz {
        /// The traffic seed of the diverging run.
        seed: u64,
    },
    /// Missed by this evaluation's fresh seeds, caught by the screening
    /// probe's witness seed (replayable the same way).
    Witness {
        /// The witness traffic seed.
        seed: u64,
    },
    /// Caught by bounded exhaustive verification.
    Verify,
    /// The backend panicked evaluating this mutant. The panic-isolation
    /// layer captures it as a first-class detection (a crash *is* a
    /// compiler bug) instead of letting it abort the campaign; the seed
    /// replays the panicking run via `druzhba fuzz --seed`.
    Panic {
        /// The traffic seed of the panicking run.
        seed: u64,
    },
    /// Survived everything — under this budget the mutant is
    /// indistinguishable from the baseline (a mutation-testing
    /// "survivor").
    Undetected,
}

/// Stable snake_case key for a [`Detection`] (report + checkpoint codec).
fn detector_key(d: &Detection) -> &'static str {
    match d {
        Detection::Fuzz { .. } => "fuzz",
        Detection::Witness { .. } => "witness",
        Detection::Verify => "verify",
        Detection::Panic { .. } => "panic",
        Detection::Undetected => "none",
    }
}

/// Outcome of evaluating one mutant on one backend.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Corpus program name.
    pub program: &'static str,
    /// The injected fault.
    pub fault: Fault,
    /// Backend evaluated.
    pub level: OptLevel,
    /// How the fault was detected, if at all.
    pub detection: Detection,
    /// How the static analyzer flagged the mutant without executing a
    /// packet: `Structural` (machine-code validation rejects it),
    /// `Abstract` (the abstract fingerprint differs from the baseline's),
    /// or `Unflagged`.
    pub static_flag: StaticFlag,
    /// Differential batches executed up to and including the detecting
    /// one (each fresh fuzz run, the witness replay, and the bounded
    /// verification pass count as one batch; the full budget when
    /// undetected). `BENCH_greybox.json` compares this
    /// executions-to-detection figure against the greybox loop's
    /// executions-to-first-divergence.
    pub executions: usize,
    /// The observed divergence (`None` when undetected).
    pub verdict: Option<Verdict>,
    /// Minimized counterexample for the divergence (`None` when
    /// undetected).
    pub minimized: Option<MinimizedCounterExample>,
}

impl MutantOutcome {
    /// True if the fault was detected on this backend.
    pub fn detected(&self) -> bool {
        !matches!(self.detection, Detection::Undetected)
    }
}

/// The checkpoint-stable projection of one completed evaluation: the
/// aggregate-relevant keys plus the fully-rendered `mutants[]` JSON row.
/// Records survive process death — a resumed campaign restores them
/// verbatim from the snapshot, so the final report is byte-identical to
/// an uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRecord {
    /// Corpus program name.
    pub program: String,
    /// Injected fault class.
    pub fault_kind: FaultKind,
    /// Backend evaluated.
    pub level: OptLevel,
    /// Detector key (`"fuzz"`, `"witness"`, `"verify"`, `"panic"`,
    /// `"none"`).
    pub detector: &'static str,
    /// The static analyzer's verdict on the mutant.
    pub static_flag: StaticFlag,
    /// Class of the observed verdict (`Pass` when undetected).
    pub verdict_class: VerdictClass,
    /// Differential batches executed (see
    /// [`MutantOutcome::executions`]).
    pub executions: usize,
    /// The rendered JSON row ([`HuntReport::to_json`]'s `mutants[]`
    /// entry), carried verbatim through checkpoints.
    pub json: String,
}

/// Project a fresh evaluation onto its checkpoint-stable record.
fn record_of(o: &MutantOutcome) -> EvalRecord {
    EvalRecord {
        program: o.program.to_string(),
        fault_kind: o.fault.kind(),
        level: o.level,
        detector: detector_key(&o.detection),
        static_flag: o.static_flag,
        verdict_class: o
            .verdict
            .as_ref()
            .map_or(VerdictClass::Pass, Verdict::class),
        executions: o.executions,
        json: mutant_json(o),
    }
}

/// One checkpoint line per task: tab-separated keys, the JSON row last (it
/// is the only field that may itself contain tabs, hence `splitn` on
/// decode).
impl RecordCodec for EvalRecord {
    fn encode(&self, idx: usize) -> Option<String> {
        Some(format!(
            "{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.program,
            self.fault_kind.key(),
            self.level.key(),
            self.detector,
            self.static_flag.label(),
            self.verdict_class.key(),
            self.executions,
            self.json
        ))
    }

    fn decode(line: &str) -> Option<(usize, Self)> {
        let mut parts = line.splitn(9, '\t');
        let idx = parts.next()?.parse().ok()?;
        let record = EvalRecord {
            program: parts.next()?.to_string(),
            fault_kind: FaultKind::from_key(parts.next()?)?,
            level: OptLevel::from_key(parts.next()?)?,
            detector: detector_from_key(parts.next()?)?,
            static_flag: StaticFlag::from_label(parts.next()?)?,
            verdict_class: VerdictClass::from_key(parts.next()?)?,
            executions: parts.next()?.parse().ok()?,
            json: parts.next()?.to_string(),
        };
        Some((idx, record))
    }
}

fn detector_from_key(key: &str) -> Option<&'static str> {
    ["fuzz", "witness", "verify", "panic", "none"]
        .into_iter()
        .find(|k| *k == key)
}

/// Aggregate result of a hunt campaign.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// One record per *completed* (program, mutant, level) evaluation, in
    /// deterministic campaign order. The canonical source for every
    /// aggregate and for the JSON `mutants[]` array — resumed campaigns
    /// restore records from the checkpoint without re-evaluating.
    pub records: Vec<EvalRecord>,
    /// Structured outcomes for the evaluations performed *by this
    /// process*. A resumed campaign omits restored evaluations here
    /// (their rows live on in `records`); an uninterrupted campaign has
    /// one outcome per record.
    pub outcomes: Vec<MutantOutcome>,
    /// Evaluations skipped because the wall-clock budget expired. `> 0`
    /// marks the report as partial (`"truncated"` in the JSON).
    pub truncated: usize,
    /// Value-mutation candidates discarded by screening as behaviorally
    /// neutral (mutation testing's "equivalent mutants").
    pub neutral_discarded: usize,
    /// The configuration that produced the report (echoed into the JSON).
    pub config: HuntConfig,
}

impl HuntReport {
    /// Total completed evaluations.
    pub fn evaluations(&self) -> usize {
        self.records.len()
    }

    /// Detected evaluations.
    pub fn detected(&self) -> usize {
        self.records.iter().filter(|r| r.detector != "none").count()
    }

    /// Evaluations that survived the whole workflow. Covers only this
    /// process's evaluations (see [`HuntReport::outcomes`]); restored
    /// survivors are still counted by every aggregate.
    pub fn undetected(&self) -> Vec<&MutantOutcome> {
        self.outcomes.iter().filter(|o| !o.detected()).collect()
    }

    /// Detected fraction over completed evaluations (1.0 for an empty
    /// campaign).
    pub fn detection_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.detected() as f64 / self.evaluations() as f64
    }

    /// Evaluations whose mutant the static analyzer flagged (structurally
    /// or abstractly) without executing a packet.
    pub fn static_flagged(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.static_flag != StaticFlag::Unflagged)
            .count()
    }

    /// Evaluation count per static flag (`"structural"`, `"abstract"`,
    /// `"none"`).
    pub fn by_static_flag(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.static_flag.label()).or_insert(0) += 1;
        }
        out
    }

    /// Evaluation count per detector (`"fuzz"`, `"witness"`, `"verify"`,
    /// `"panic"`, `"none"`).
    pub fn by_detector(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.detector).or_insert(0) += 1;
        }
        out
    }

    /// `(total, detected)` per fault class.
    pub fn by_fault_kind(&self) -> BTreeMap<FaultKind, (usize, usize)> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            let e = out.entry(r.fault_kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += usize::from(r.detector != "none");
        }
        out
    }

    /// Failure taxonomy: evaluation count per observed verdict class
    /// (snake_case keys; undetected evaluations count under `"pass"`).
    pub fn taxonomy(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.verdict_class.key()).or_insert(0) += 1;
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
        let _ = writeln!(s, "    \"verify_bits\": {},", cfg.verify_bits);
        let _ = writeln!(s, "    \"verify_packets\": {},", cfg.verify_packets);
        let case_budget = cfg
            .case_budget
            .map_or("null".to_string(), |n| n.to_string());
        let _ = writeln!(s, "    \"case_budget\": {case_budget}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"summary\": {{");
        let _ = writeln!(s, "    \"evaluations\": {},", self.evaluations());
        let _ = writeln!(s, "    \"truncated\": {},", self.truncated);
        let _ = writeln!(s, "    \"detected\": {},", self.detected());
        let _ = writeln!(s, "    \"detection_rate\": {:.4},", self.detection_rate());
        let _ = writeln!(s, "    \"static_flagged\": {},", self.static_flagged());
        let by_static = json_map(self.by_static_flag());
        let _ = writeln!(s, "    \"by_static_flag\": {{{by_static}}},");
        let _ = writeln!(s, "    \"neutral_discarded\": {},", self.neutral_discarded);
        let by_detector = json_map(self.by_detector());
        let _ = writeln!(s, "    \"by_detector\": {{{by_detector}}},");
        let by_fault = json_map(
            self.by_fault_kind()
                .into_iter()
                .map(|(kind, counts)| (kind.key(), fault_counts_json(counts))),
        );
        let _ = writeln!(s, "    \"by_fault\": {{{by_fault}}},");
        let taxonomy = json_map(self.taxonomy());
        let _ = writeln!(s, "    \"taxonomy\": {{{taxonomy}}}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"mutants\": [");
        let rows: Vec<&str> = self.records.iter().map(|r| r.json.as_str()).collect();
        let _ = writeln!(s, "{}", rows.join(",\n"));
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

/// The body of a JSON object from `(key, rendered value)` pairs:
/// `"k1": v1, "k2": v2`.
pub(crate) fn json_map<K: Display, V: Display>(
    entries: impl IntoIterator<Item = (K, V)>,
) -> String {
    let pairs: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    pairs.join(", ")
}

/// The body of a report's `levels` array: quoted backend keys.
pub(crate) fn levels_json(levels: &[OptLevel]) -> String {
    let keys: Vec<String> = levels.iter().map(|l| format!("\"{}\"", l.key())).collect();
    keys.join(", ")
}

/// One `by_fault` entry's value from its `(total, detected)` counts.
pub(crate) fn fault_counts_json((total, detected): (usize, usize)) -> String {
    format!("{{\"total\": {total}, \"detected\": {detected}}}")
}

/// Render a fault as a JSON object (shared with the generated-program
/// campaign's rows).
pub(crate) fn fault_json(fault: &Fault) -> String {
    match fault {
        Fault::RemovedPair { name } => {
            format!(
                "{{\"kind\": \"removed_pair\", \"name\": {}}}",
                json_string(name)
            )
        }
        Fault::MutatedValue { name, old, new } => format!(
            "{{\"kind\": \"mutated_value\", \"name\": {}, \"old\": {old}, \"new\": {new}}}",
            json_string(name)
        ),
        Fault::OutOfRangeValue { name, new } => format!(
            "{{\"kind\": \"out_of_range_value\", \"name\": {}, \"new\": {new}}}",
            json_string(name)
        ),
        Fault::HostileTrap { name, old } => format!(
            "{{\"kind\": \"hostile_trap\", \"name\": {}, \"old\": {old}}}",
            json_string(name)
        ),
    }
}

/// Render a minimized input trace's packets as comma-separated JSON arrays
/// (shared with the P4 campaign's rows).
pub(crate) fn packets_json(input: &Trace) -> String {
    let packets: Vec<String> = input
        .phvs
        .iter()
        .map(|p| {
            let vals: Vec<String> = (0..p.len()).map(|c| p.get(c).to_string()).collect();
            format!("[{}]", vals.join(", "))
        })
        .collect();
    packets.join(", ")
}

fn mutant_json(o: &MutantOutcome) -> String {
    let mut s = String::new();
    let _ = write!(s, "    {{\"program\": \"{}\", ", o.program);
    let _ = write!(
        s,
        "\"fault\": {}, \"level\": \"{}\", ",
        fault_json(&o.fault),
        o.level.key()
    );
    let _ = write!(s, "\"static_flag\": \"{}\", ", o.static_flag.label());
    let _ = write!(s, "\"detected_by\": \"{}\", ", detector_key(&o.detection));
    if let Detection::Fuzz { seed } | Detection::Witness { seed } | Detection::Panic { seed } =
        o.detection
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
            let edits = match &mce.essential_edits {
                None => "null".to_string(),
                Some(edits) => {
                    let rows: Vec<String> = edits
                        .iter()
                        .map(|e| {
                            format!(
                                "{{\"name\": {}, \"good\": {}, \"bad\": {}}}",
                                json_string(&e.name),
                                e.good.map_or("null".to_string(), |v| v.to_string()),
                                e.bad.map_or("null".to_string(), |v| v.to_string()),
                            )
                        })
                        .collect();
                    format!("[{}]", rows.join(", "))
                }
            };
            let mismatch = match &mce.verdict {
                Verdict::Mismatch(m) => json_string(&m.to_string()),
                Verdict::Incompatible(e) => json_string(&e.to_string()),
                Verdict::BackendPanic { payload } => json_string(payload),
                Verdict::Pass => "null".to_string(),
            };
            let _ = write!(
                s,
                "\"minimized\": {{\"original_packets\": {}, \"packets\": {}, \
                 \"input\": [{}], \"mismatch\": {mismatch}, \
                 \"essential_edits\": {edits}, \"checks\": {}}}}}",
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
    program: usize,
    fault: Fault,
    mc: druzhba_core::MachineCode,
    /// The static analyzer's verdict on this mutant (computed once at
    /// seeding time; level-independent).
    static_flag: StaticFlag,
    /// Traffic seed under which the screening probe saw the divergence
    /// (`None` for faults that are detected structurally, or that the
    /// probe caught only via bounded verification).
    witness: Option<u64>,
}

/// Run a hunt campaign. Deterministic: outcomes are a pure function of the
/// configuration, independent of worker count.
pub fn hunt(cfg: &HuntConfig) -> Result<HuntReport, String> {
    let defs: Vec<&'static ProgramDef> = if cfg.programs.is_empty() {
        PROGRAMS.iter().collect()
    } else {
        cfg.programs
            .iter()
            .map(|name| {
                by_name(name)
                    .ok_or_else(|| format!("unknown program `{name}` (see `druzhba programs`)"))
            })
            .collect::<Result<_, _>>()?
    };
    if cfg.levels.is_empty() {
        return Err("hunt needs at least one optimization level".into());
    }
    // The verification fallback must actually be runnable: an unusable
    // bound would silently disable the phase (screening would then discard
    // verify-only-detectable mutants as "neutral"), which is exactly the
    // weaker-than-requested behavior verify_bounded itself refuses.
    if cfg.verify_bits > 31 {
        return Err(format!(
            "--verify-bits {} exceeds the 31-bit bounded-verification limit",
            cfg.verify_bits
        ));
    }

    // Compile every program up front (synthesis is the expensive,
    // cache-shared step; doing it before sharding keeps workers pure).
    let compiled: Vec<CompiledProgram> = defs
        .iter()
        .map(|def| {
            def.compile_cached()
                .map_err(|e| format!("{}: {e}", def.name))
        })
        .collect::<Result<_, _>>()?;

    // Seed mutants deterministically, per program, per fault class. Value
    // mutations are screened for behavioral effect; screening probes and
    // redraws both derive from the campaign seed, so the mutant set is a
    // pure function of the configuration.
    let mut mutants: Vec<Mutant> = Vec::new();
    let mut neutral_discarded = 0usize;
    let mut candidate_counter = 0u64;
    for (pi, (def, comp)) in defs.iter().zip(&compiled).enumerate() {
        let mut injector = FaultInjector::new(shard_seed(cfg.seed, pi as u64));
        for kind in FaultKind::ALL {
            let mut seeded = Vec::new();
            // Draw until `mutants_per_class` *distinct* behavioral faults
            // are seeded (the injector may revisit a pair, and screened
            // candidates may prove neutral); bounded retries keep
            // degenerate programs from spinning.
            for _ in 0..cfg.mutants_per_class * 10 {
                if seeded.len() >= cfg.mutants_per_class {
                    break;
                }
                let Some((mc, fault)) =
                    injector.inject(&comp.pipeline_spec, &comp.machine_code, kind)
                else {
                    break;
                };
                if seeded.contains(&fault) {
                    continue;
                }
                let witness = match kind {
                    // Structural faults are rejected at pipeline
                    // generation on every backend — no probe needed.
                    FaultKind::RemovedPair | FaultKind::OutOfRangeValue => None,
                    // Hostile traps panic pipeline generation on every
                    // backend deterministically; probing one would only
                    // exercise the panic guard a run earlier.
                    FaultKind::HostileTrap => None,
                    FaultKind::MutatedValue => {
                        let probe_seed = shard_seed(cfg.seed ^ 0x5343_524E, candidate_counter);
                        candidate_counter += 1;
                        match screen_mutant(cfg, def, comp, &mc, probe_seed) {
                            // No probe distinguishes the candidate from
                            // the baseline: an encoding variant, not a
                            // fault — discard and redraw.
                            None => {
                                neutral_discarded += 1;
                                continue;
                            }
                            Some(witness) => witness,
                        }
                    }
                };
                seeded.push(fault.clone());
                // The static screen generates the mutant's pipeline, so a
                // hostile trap trips here too — on the coordinator thread.
                // A panicking generator is the moral equivalent of a
                // generation error: flagged structurally, campaign intact.
                let static_flag =
                    catch_silent(|| flag_mutant(&comp.pipeline_spec, &comp.machine_code, &mc))
                        .unwrap_or(StaticFlag::Structural);
                mutants.push(Mutant {
                    program: pi,
                    fault,
                    mc,
                    static_flag,
                    witness,
                });
            }
            // Hostile traps are also lenient: a program without a wide
            // enough constant hole simply contributes none.
            if seeded.is_empty()
                && !matches!(kind, FaultKind::MutatedValue | FaultKind::HostileTrap)
            {
                return Err(format!(
                    "{}: could not seed any {} fault",
                    def.name,
                    kind.key()
                ));
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
    let fingerprint_cfg = HuntConfig {
        runtime: RuntimeOptions::default(),
        ..cfg.clone()
    };
    let campaign = Campaign {
        kind: "hunt",
        fingerprint: snapshot::fingerprint_of_config("hunt", &fingerprint_cfg),
        total: tasks.len(),
        workers: cfg.workers,
        runtime: &cfg.runtime,
    };
    let out = run_resumable(
        &campaign,
        |gi| {
            let (mi, level) = tasks[gi];
            evaluate(cfg, &defs, &compiled, &mutants[mi], level, gi as u64)
        },
        record_of,
        // A worker that dies at the pool level (a panic escaping the
        // per-case guards) still yields a per-task row instead of sinking
        // the campaign: the panic becomes a `Detection::Panic` outcome.
        |gi, payload| {
            let (mi, level) = tasks[gi];
            let mutant = &mutants[mi];
            MutantOutcome {
                program: defs[mutant.program].name,
                fault: mutant.fault.clone(),
                level,
                detection: Detection::Panic {
                    seed: shard_seed(shard_seed(cfg.seed ^ 0x4855_4E54, gi as u64), 0),
                },
                static_flag: mutant.static_flag,
                executions: 0,
                verdict: Some(Verdict::BackendPanic {
                    payload: payload.to_string(),
                }),
                minimized: None,
            }
        },
    );
    Ok(HuntReport {
        records: out.records,
        outcomes: out.fresh,
        truncated: out.truncated,
        neutral_discarded,
        config: cfg.clone(),
    })
}

/// Probe a value-mutation candidate for behavioral effect: seeded fuzz
/// runs, then bounded verification, against the interpreter spec. Returns
/// `None` when nothing distinguishes the candidate from the baseline
/// (presumed-equivalent mutant), `Some(Some(seed))` when fuzzing found a
/// diverging traffic seed, and `Some(None)` when only bounded
/// verification caught it (verification is deterministic, so every
/// evaluation's own verify phase will re-find it).
fn screen_mutant(
    cfg: &HuntConfig,
    def: &ProgramDef,
    comp: &CompiledProgram,
    mc: &druzhba_core::MachineCode,
    probe_seed: u64,
) -> Option<Option<u64>> {
    // Screen by proof first: identical canonical symbolic transfer
    // functions mean the candidate is equivalent on *every* packet and
    // state — no witness probing can ever distinguish it. `Some(false)`
    // and `None` both fall through to the concrete probes.
    if symbolic_equivalent(&comp.pipeline_spec, &comp.machine_code, mc) == Some(true) {
        return None;
    }
    let mut reference = def.interpreter_spec(comp);
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let fuzz_cfg = FuzzConfig {
            num_phvs: cfg.fuzz_phvs,
            seed,
            input_bits: cfg.input_bits,
            observable: Some(comp.observable_containers()),
            state_cells: comp.state_cells.clone(),
            minimize: false,
        };
        let report = fuzz_test(
            &comp.pipeline_spec,
            mc,
            OptLevel::SccInline,
            &mut reference,
            &fuzz_cfg,
        );
        if !report.passed() {
            return Some(Some(seed));
        }
    }
    match verify_bounded(
        &comp.pipeline_spec,
        mc,
        OptLevel::SccInline,
        &mut reference,
        &hunt_verify_config(cfg, comp),
    ) {
        Ok(VerifyOutcome::CounterExample { .. }) => Some(None),
        _ => None,
    }
}

/// The bounded-verification fallback configuration shared by screening
/// and evaluation (the budget cap keeps wide-input programs from blowing
/// up the enumeration; an over-budget domain simply skips the fallback).
fn hunt_verify_config(cfg: &HuntConfig, comp: &CompiledProgram) -> VerifyConfig {
    VerifyConfig {
        input_bits: cfg.verify_bits,
        packets: cfg.verify_packets,
        relevant_containers: (0..comp.input_fields.len()).collect(),
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        max_cases: 1 << 16,
        lanes: 0,
    }
}

/// Evaluate one mutant on one backend: seeded fuzz runs, bounded-verify
/// fallback, then minimization of whatever divergence was found.
fn evaluate(
    cfg: &HuntConfig,
    defs: &[&'static ProgramDef],
    compiled: &[CompiledProgram],
    mutant: &Mutant,
    level: OptLevel,
    task_index: u64,
) -> MutantOutcome {
    let def = defs[mutant.program];
    let comp = &compiled[mutant.program];
    let mut reference = def.interpreter_spec(comp);
    let minimize_cfg = MinimizeConfig {
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        ..MinimizeConfig::default()
    };

    // One fuzz round against the mutant; on divergence, the failing input
    // is rebuilt and delta-debugged against the known-good baseline so the
    // counterexample carries the essential machine-code edits.
    let fuzz_round = |seed: u64, reference: &mut druzhba_chipmunk::CompiledSpec| {
        let fuzz_cfg = FuzzConfig {
            num_phvs: cfg.fuzz_phvs,
            seed,
            input_bits: cfg.input_bits,
            observable: Some(comp.observable_containers()),
            state_cells: comp.state_cells.clone(),
            minimize: false,
        };
        let report = fuzz_test(&comp.pipeline_spec, &mutant.mc, level, reference, &fuzz_cfg);
        if report.passed() {
            return None;
        }
        // A panicking backend can't be delta-debugged — minimization would
        // rebuild it outside the panic guard and re-trip the abort. The
        // replay recipe (seed + config) is the counterexample.
        if matches!(report.verdict, Verdict::BackendPanic { .. }) {
            return Some((report.verdict, None));
        }
        let input =
            TrafficGenerator::new(seed, comp.pipeline_spec.config.phv_length, cfg.input_bits)
                .trace(cfg.fuzz_phvs);
        let minimized = minimize_fault(
            &comp.pipeline_spec,
            &comp.machine_code,
            &mutant.mc,
            level,
            reference,
            &input,
            &minimize_cfg,
        )
        .map(|(_, mce)| mce);
        Some((report.verdict, minimized))
    };

    let outcome = |detection, executions, verdict, minimized| MutantOutcome {
        program: def.name,
        fault: mutant.fault.clone(),
        level,
        detection,
        static_flag: mutant.static_flag,
        executions,
        verdict,
        minimized,
    };

    // Phase 1: fresh seeded fuzzing (measures ordinary detection power).
    // Phase 2: the screening probe's witness seed — a known-diverging
    // input stream; backends are observationally equivalent, so it fires
    // regardless of which level the probe ran on.
    // `executions` counts differential batches across all phases so the
    // report carries executions-to-detection per mutant. The per-case
    // budget caps that count: an expensive mutant degrades to a bounded
    // evaluation instead of stalling the whole campaign.
    let budget = cfg.case_budget.unwrap_or(usize::MAX).max(1);
    let mut executions = 0usize;
    let task_seed = shard_seed(cfg.seed ^ 0x4855_4E54, task_index); // "HUNT"
    let fresh = (0..cfg.fuzz_runs).map(|run| (shard_seed(task_seed, run as u64), false));
    for (seed, witness) in fresh.chain(mutant.witness.map(|seed| (seed, true))) {
        if executions >= budget {
            break;
        }
        executions += 1;
        if let Some((verdict, minimized)) = fuzz_round(seed, &mut reference) {
            let detection = match verdict {
                Verdict::BackendPanic { .. } => Detection::Panic { seed },
                _ if witness => Detection::Witness { seed },
                _ => Detection::Fuzz { seed },
            };
            return outcome(detection, executions, Some(verdict), minimized);
        }
    }

    // Phase 3: bounded exhaustive verification over the input fields.
    if executions < budget {
        executions += 1;
        if let Ok(VerifyOutcome::CounterExample {
            input, mismatch, ..
        }) = verify_bounded(
            &comp.pipeline_spec,
            &mutant.mc,
            level,
            &mut reference,
            &hunt_verify_config(cfg, comp),
        ) {
            let minimized = minimize_fault(
                &comp.pipeline_spec,
                &comp.machine_code,
                &mutant.mc,
                level,
                &mut reference,
                &input,
                &minimize_cfg,
            )
            .map(|(_, mce)| mce);
            let verdict = Some(Verdict::Mismatch(mismatch));
            return outcome(Detection::Verify, executions, verdict, minimized);
        }
    }
    outcome(Detection::Undetected, executions, None, None)
}

/// Replay one trace through the Fig. 5 differential check (used by hunt's
/// tests and by callers that want to re-validate a minimized trace).
pub fn replay(
    comp: &CompiledProgram,
    def: &ProgramDef,
    mc: &druzhba_core::MachineCode,
    level: OptLevel,
    input: &Trace,
) -> Verdict {
    let mut reference = def.interpreter_spec(comp);
    druzhba_dsim::testing::run_case(
        &comp.pipeline_spec,
        mc,
        level,
        &mut reference,
        input,
        Some(&comp.observable_containers()),
        &comp.state_cells,
    )
}
