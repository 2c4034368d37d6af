//! `druzhba hunt`: the Domino stack of the mutation hunt
//! ([`crate::mutation`]) — machine-code faults in the compiled Table 1
//! corpus.
//!
//! A deterministic [`FaultInjector`] seeds `mutants_per_class` mutants of
//! each [`FaultKind`]. Value mutations are screened for behavioral effect
//! (an equivalent mutant is discarded and redrawn; the probe's diverging
//! seed becomes the *witness*), structural ones skip the probe, every
//! mutant gets its static-analysis flag, and an unseedable structural
//! class is an error. Each evaluation ends its ladder with bounded
//! exhaustive verification, and every divergence is delta-debugged
//! against the known-good baseline ([`minimize_fault_known`]) so the
//! report carries the essential machine-code edits.

use druzhba_analysis::{flag_mutant, symbolic_equivalent, StaticFlag};
use druzhba_chipmunk::CompiledProgram;
use druzhba_core::json::{array, Object};
use druzhba_core::{MachineCode, Trace};
use druzhba_dgen::OptLevel;
use druzhba_dsim::fault::{Fault, FaultInjector, FaultKind};
use druzhba_dsim::minimize::{minimize_fault_known, MinimizeConfig, MinimizedCounterExample};
use druzhba_dsim::runtime::{catch_silent, default_workers, RuntimeOptions};
use druzhba_dsim::snapshot;
use druzhba_dsim::testing::{fuzz_test, run_case, shard_seed, FuzzConfig, Verdict};
use druzhba_dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba_dsim::TrafficGenerator;
use druzhba_programs::{by_name, ProgramDef, PROGRAMS};

pub use crate::mutation::Detection;
use crate::mutation::{
    self, render_report, HuntFault, Ladder, Mutant, Report, Settings, SCREEN_SALT,
};

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

/// The Domino stack's aggregate report.
pub type HuntReport = Report<Fault, HuntConfig>;
/// Outcome of evaluating one machine-code mutant on one backend.
pub type MutantOutcome = crate::mutation::MutantOutcome<Fault>;
/// The checkpoint record of one hunt evaluation (the v1 `hunt` snapshot
/// line, with its `static_flag` column).
pub type EvalRecord = crate::mutation::EvalRecord<Fault>;

impl HuntReport {
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
            .field("verify_bits", cfg.verify_bits)
            .field("verify_packets", cfg.verify_packets)
            .field("case_budget", cfg.case_budget);
        let summary = self
            .summary_head()
            .field("static_flagged", self.static_flagged())
            .field("by_static_flag", Object::from_iter(self.by_static_flag()))
            .field("neutral_discarded", self.neutral_discarded)
            .field("by_detector", Object::from_iter(self.by_detector()))
            .field("by_fault", self.by_fault())
            .field("taxonomy", Object::from_iter(self.taxonomy()));
        let rows = self.records.iter().map(|r| r.json.as_str());
        render_report(config, summary, "mutants", rows)
    }
}

/// The Domino stack: machine-code faults, checkpointed with their static
/// flag; a minimized counterexample also reports its mismatch and the
/// essential machine-code edits.
impl HuntFault for Fault {
    type Kind = FaultKind;
    const CAMPAIGN: &'static str = "hunt";
    const SALT: u64 = 0x4855_4E54; // "HUNT"
    const STATIC_FLAG: bool = true;

    fn class(&self) -> FaultKind {
        self.kind()
    }

    fn class_key(kind: FaultKind) -> &'static str {
        kind.key()
    }

    fn class_from_key(key: &str) -> Option<FaultKind> {
        FaultKind::from_key(key)
    }

    fn json(&self) -> Object {
        let (Fault::RemovedPair { name }
        | Fault::MutatedValue { name, .. }
        | Fault::OutOfRangeValue { name, .. }
        | Fault::HostileTrap { name, .. }) = self;
        let fault = Object::new()
            .field("kind", self.kind().key())
            .field("name", name);
        match *self {
            Fault::RemovedPair { .. } => fault,
            Fault::MutatedValue { old, new, .. } => fault.field("old", old).field("new", new),
            Fault::OutOfRangeValue { new, .. } => fault.field("new", new),
            Fault::HostileTrap { old, .. } => fault.field("old", old),
        }
    }

    fn minimized_detail(mce: &MinimizedCounterExample, minimized: Object) -> Object {
        let edits = mce.essential_edits.as_ref().map(|edits| {
            let edits = edits.iter().map(|e| {
                Object::new()
                    .field("name", &e.name)
                    .field("good", e.good)
                    .field("bad", e.bad)
            });
            array(edits, None)
        });
        let mismatch = match &mce.verdict {
            Verdict::Mismatch(m) => Some(m.to_string()),
            Verdict::Incompatible(e) => Some(e.to_string()),
            Verdict::BackendPanic { payload } => Some(payload.clone()),
            Verdict::Pass => None,
        };
        minimized
            .field("mismatch", mismatch)
            .field("essential_edits", edits)
    }
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
    let mut mutants: Vec<Mutant<Fault, MachineCode>> = Vec::new();
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
                        let probe_seed = shard_seed(cfg.seed ^ SCREEN_SALT, candidate_counter);
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
                    payload: mc,
                    static_flag: Some(static_flag),
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

    let settings = Settings {
        seed: cfg.seed,
        levels: &cfg.levels,
        fuzz_runs: cfg.fuzz_runs,
        case_budget: cfg.case_budget,
        workers: cfg.workers,
        runtime: &cfg.runtime,
        fingerprint: snapshot::fingerprint_of_config(
            Fault::CAMPAIGN,
            &HuntConfig {
                runtime: RuntimeOptions::default(),
                ..cfg.clone()
            },
        ),
    };
    let names: Vec<&str> = defs.iter().map(|def| def.name).collect();
    Ok(mutation::run(
        &settings,
        &names,
        &mutants,
        neutral_discarded,
        cfg.clone(),
        |mutant, level, ladder| {
            let pi = mutant.program;
            evaluate(cfg, defs[pi], &compiled[pi], mutant, level, ladder)
        },
    ))
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
    mc: &MachineCode,
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
        let fuzz_cfg = fuzz_config(cfg, comp, seed);
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

/// One seeded fuzz run of `cfg`'s shape (shared by screening and
/// evaluation).
fn fuzz_config(cfg: &HuntConfig, comp: &CompiledProgram, seed: u64) -> FuzzConfig {
    FuzzConfig {
        num_phvs: cfg.fuzz_phvs,
        seed,
        input_bits: cfg.input_bits,
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        minimize: false,
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

/// Evaluate one mutant on one backend: climb the fuzz → witness → verify
/// ladder, minimizing whatever divergence it finds.
fn evaluate(
    cfg: &HuntConfig,
    def: &ProgramDef,
    comp: &CompiledProgram,
    mutant: &Mutant<Fault, MachineCode>,
    level: OptLevel,
    ladder: Ladder<Fault>,
) -> MutantOutcome {
    let mc = &mutant.payload;
    let mut reference = def.interpreter_spec(comp);
    let minimize_cfg = MinimizeConfig {
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        ..MinimizeConfig::default()
    };
    ladder.run(true, |seed| {
        // `fuzzed`: the verdict is the check of `input` on `mc` at
        // `level`, which the minimization may take as its original check.
        let (verdict, input, fuzzed) = match seed {
            // One fuzz round against the mutant, on one trace for the
            // check and the minimization.
            Some(seed) => {
                let phv_length = comp.pipeline_spec.config.phv_length;
                let input =
                    TrafficGenerator::new(seed, phv_length, cfg.input_bits).trace(cfg.fuzz_phvs);
                let verdict = run_case(
                    &comp.pipeline_spec,
                    mc,
                    level,
                    &mut reference,
                    &input,
                    minimize_cfg.observable.as_deref(),
                    &minimize_cfg.state_cells,
                );
                if verdict.passed() {
                    return None;
                }
                // A panicking backend can't be delta-debugged —
                // minimization would rebuild it outside the panic guard
                // and re-trip the abort. The replay recipe (seed + config)
                // is the counterexample.
                if matches!(verdict, Verdict::BackendPanic { .. }) {
                    return Some((verdict, None));
                }
                (verdict, input, true)
            }
            // Bounded exhaustive verification over the input fields.
            None => match verify_bounded(
                &comp.pipeline_spec,
                mc,
                level,
                &mut reference,
                &hunt_verify_config(cfg, comp),
            ) {
                Ok(VerifyOutcome::CounterExample {
                    input, mismatch, ..
                }) => (Verdict::Mismatch(mismatch), input, false),
                _ => return None,
            },
        };
        // Delta-debug against the known-good baseline so the
        // counterexample carries the essential machine-code edits.
        let minimized = minimize_fault_known(
            &comp.pipeline_spec,
            &comp.machine_code,
            mc,
            level,
            &mut reference,
            &input,
            fuzzed.then_some(&verdict),
            &minimize_cfg,
        )
        .map(|(_, mce)| mce);
        Some((verdict, minimized))
    })
}

/// Replay one trace through the Fig. 5 differential check (used by hunt's
/// tests and by callers that want to re-validate a minimized trace).
pub fn replay(
    comp: &CompiledProgram,
    def: &ProgramDef,
    mc: &MachineCode,
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
