//! The traced run: each workload's campaign re-driven from this file
//! through the layers' public functions, single-threaded, with a span
//! around every layer call.
//!
//! The replicas follow the campaign drivers step for step (same seed
//! derivations, same phase order, same budgets), so they do the same work
//! as the untraced call. The faithfulness gate holds them to it: the
//! deterministic counts of a traced run must equal the untraced report's.
//! Calls that stay opaque here — `minimize_fault`, `p4_minimize`, the
//! hunts' `verify_bounded` fallback — are one span each; splitting them
//! needs spans inside the program.

use std::collections::BTreeMap;

use druzhba::analysis::{
    flag_mutant, p4_symbolic_entries_equivalent, screen, symbolic_equivalent, symbolic_validate,
    translation_validate, AbsVal, Screened, SymbolicVerdict,
};
use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba::core::{MachineCode, Phv, Trace, Value};
use druzhba::dgen::{LanePipeline, MatPipeline, OptLevel, Pipeline, PipelineSpec};
use druzhba::domino::{parse_program, DominoProgram};
use druzhba::dsim::fault::{FaultInjector, FaultKind};
use druzhba::dsim::minimize::{minimize_fault, MinimizeConfig};
use druzhba::dsim::p4::{p4_minimize, P4FaultInjector, P4FaultKind, P4Traffic, P4Workload};
use druzhba::dsim::runtime::catch_silent;
use druzhba::dsim::testing::{shard_seed, FuzzConfig, Specification, Verdict, VerdictClass};
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba::dsim::{Simulator, TrafficGenerator};
use druzhba::hunt::HuntConfig;
use druzhba::p4::tables::TableEntry;
use druzhba::p4hunt::P4HuntConfig;
use druzhba::progen::{domino_candidate, DominoCandidate, Reject, DOMINO_SALT, MAX_ATTEMPTS};
use druzhba::programs::{by_name, ProgramDef, P4_PROGRAMS, PROGRAMS};

use crate::trace::Tracer;
use crate::workload::{
    gen_config, gen_counts, hunt_config, hunt_counts, lane_program, lane_verify_config, p4_config,
    Outcome, Params, Workload, HUNT_DETECTORS, P4_DETECTORS,
};

// Seed salts of the campaign drivers (`src/hunt.rs`, `src/p4hunt.rs`,
// `src/genhunt.rs`); a drift shows up as a faithfulness-gate failure.
const SCREEN_SALT: u64 = 0x5343_524E; // "SCRN"
const HUNT_SALT: u64 = 0x4855_4E54; // "HUNT"
const P4HUNT_SALT: u64 = 0x5034_4855; // "P4HU"
const GENHUNT_SALT: u64 = 0x4745_4E48; // "GENH"

/// Span name of a backend's execution.
fn exec_layer(level: OptLevel) -> &'static str {
    match level {
        OptLevel::Unoptimized => "dgen.exec.unoptimized",
        OptLevel::Scc => "dgen.exec.scc",
        OptLevel::SccInline => "dgen.exec.scc_inline",
        OptLevel::Fused => "dgen.exec.fused",
    }
}

/// Run `w`'s campaign traced, single-threaded.
pub fn run(w: Workload, p: &Params, t: &mut Tracer) -> Result<Outcome, String> {
    match w {
        Workload::HuntCorpus => hunt_traced(&hunt_config(p, 1), t),
        Workload::GenSweep => gen_traced(p, t),
        Workload::P4Hunt => p4_traced(p, t),
        Workload::LaneVerify => lane_traced(p, t),
    }
}

// ---------------------------------------------------------------------
// Shared differential core (`dsim::testing::{fuzz_test, run_case}`).
// ---------------------------------------------------------------------

/// The configuration of one differential fuzz run over `comp`'s
/// observables, built per run as the campaign drivers build theirs. The
/// drivers minimize divergences themselves, so `minimize` is off.
fn fuzz_config(comp: &CompiledProgram, seed: u64, num_phvs: usize, input_bits: u32) -> FuzzConfig {
    FuzzConfig {
        num_phvs,
        seed,
        input_bits,
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        minimize: false,
    }
}

/// `dsim::testing::fuzz_test`: seeded traffic, then [`run_case_traced`].
fn fuzz_traced(
    t: &mut Tracer,
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
    reference: &mut dyn Specification,
    cfg: &FuzzConfig,
) -> VerdictClass {
    let input = t.span("dsim.traffic", |_| {
        TrafficGenerator::new(cfg.seed, spec.config.phv_length, cfg.input_bits).trace(cfg.num_phvs)
    });
    run_case_traced(t, spec, mc, level, reference, &input, cfg)
}

/// `dsim::testing::run_case`: generate the pipeline, run it and the
/// specification over `input`, and compare, under panic isolation.
fn run_case_traced(
    t: &mut Tracer,
    spec: &PipelineSpec,
    mc: &MachineCode,
    level: OptLevel,
    reference: &mut dyn Specification,
    input: &Trace,
    cfg: &FuzzConfig,
) -> VerdictClass {
    let depth = t.depth();
    let n = input.len() as u64;
    let guarded = catch_silent(|| {
        let pipeline = match t.span("dgen.generate", |_| Pipeline::generate(spec, mc, level)) {
            Ok(p) => p,
            Err(_) => return VerdictClass::Incompatible,
        };
        let actual = t.span(exec_layer(level), |t| {
            t.count(n);
            Simulator::new(pipeline).run(input)
        });
        let expected = t.span("domino.interp", |t| {
            t.count(n);
            reference.reset();
            Trace::from_phvs(input.phvs.iter().map(|p| reference.process(p)).collect())
        });
        t.span("core.compare", |_| {
            compare(&*reference, &expected, &actual, cfg)
        })
    });
    guarded.unwrap_or_else(|_| {
        t.unwind(depth);
        VerdictClass::BackendPanic
    })
}

/// The assertion half of `run_case`: observable containers, then state.
fn compare(
    reference: &dyn Specification,
    expected: &Trace,
    actual: &Trace,
    cfg: &FuzzConfig,
) -> VerdictClass {
    if let Some(m) = expected.first_mismatch(actual, cfg.observable.as_deref()) {
        return Verdict::Mismatch(m).class();
    }
    if !cfg.state_cells.is_empty() {
        let snapshot = actual.state.as_ref().expect("run records state");
        let expected_state = reference.state();
        for (i, &(stage, slot, var)) in cfg.state_cells.iter().enumerate() {
            let actual_v = snapshot
                .get(stage)
                .and_then(|s| s.get(slot))
                .and_then(|vars| vars.get(var))
                .copied();
            if actual_v != expected_state.get(i).copied() {
                return VerdictClass::StateMismatch;
            }
        }
    }
    VerdictClass::Pass
}

// ---------------------------------------------------------------------
// hunt-corpus (`druzhba::hunt::hunt`).
// ---------------------------------------------------------------------

struct Mutant {
    program: usize,
    mc: MachineCode,
    witness: Option<u64>,
}

fn hunt_traced(cfg: &HuntConfig, t: &mut Tracer) -> Result<Outcome, String> {
    let defs: Vec<&'static ProgramDef> = if cfg.programs.is_empty() {
        PROGRAMS.iter().collect()
    } else {
        cfg.programs
            .iter()
            .map(|n| by_name(n).ok_or_else(|| format!("unknown program `{n}`")))
            .collect::<Result<_, _>>()?
    };
    let compiled: Vec<CompiledProgram> = t.span("setup", |t| {
        defs.iter()
            .map(|def| {
                let program = t.span("domino.parse", |_| def.parse());
                t.span("chipmunk.compile", |_| {
                    compile(&program, &def.compiler_config())
                })
                .map_err(|e| format!("{}: {e}", def.name))
            })
            .collect::<Result<_, _>>()
    })?;

    let (mutants, neutral) = t.span("campaign.seed", |t| {
        seed_hunt_mutants(t, cfg, &defs, &compiled)
    })?;

    let tasks: Vec<(usize, OptLevel)> = (0..mutants.len())
        .flat_map(|mi| cfg.levels.iter().map(move |&l| (mi, l)))
        .collect();
    let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut checks = 0u64;
    for (gi, &(mi, level)) in tasks.iter().enumerate() {
        let m = &mutants[mi];
        let (detector, c) = t.span("campaign.task", |t| {
            evaluate_hunt(
                t,
                cfg,
                defs[m.program],
                &compiled[m.program],
                m,
                level,
                gi as u64,
            )
        });
        *by.entry(detector).or_insert(0) += 1;
        checks += c;
    }
    let n = |k: &str| by.get(k).copied().unwrap_or(0);
    Ok(Outcome {
        tasks: tasks.len() as u64,
        failed: n("none"),
        counts: hunt_counts(tasks.len() as u64, checks, &HUNT_DETECTORS, n, neutral),
    })
}

/// Mutant seeding: per program and fault class, injected and (for value
/// mutations) screened for behavioral effect, then statically flagged.
fn seed_hunt_mutants(
    t: &mut Tracer,
    cfg: &HuntConfig,
    defs: &[&'static ProgramDef],
    compiled: &[CompiledProgram],
) -> Result<(Vec<Mutant>, u64), String> {
    let mut mutants = Vec::new();
    let mut neutral = 0u64;
    let mut candidate_counter = 0u64;
    for (pi, (def, comp)) in defs.iter().zip(compiled).enumerate() {
        let mut injector = FaultInjector::new(shard_seed(cfg.seed, pi as u64));
        for kind in FaultKind::ALL {
            let mut seeded = Vec::new();
            for _ in 0..cfg.mutants_per_class * 10 {
                if seeded.len() >= cfg.mutants_per_class {
                    break;
                }
                let Some((mc, fault)) = t.span("dsim.fault", |_| {
                    injector.inject(&comp.pipeline_spec, &comp.machine_code, kind)
                }) else {
                    break;
                };
                if seeded.contains(&fault) {
                    continue;
                }
                let witness = if kind == FaultKind::MutatedValue {
                    let probe_seed = shard_seed(cfg.seed ^ SCREEN_SALT, candidate_counter);
                    candidate_counter += 1;
                    match screen_hunt_mutant(t, cfg, def, comp, &mc, probe_seed) {
                        None => {
                            neutral += 1;
                            continue;
                        }
                        Some(w) => w,
                    }
                } else {
                    None
                };
                seeded.push(fault);
                // The flag itself is not counted; a panic here is a
                // structural flag in the campaign.
                let _ = t.span("analysis.flag", |_| {
                    catch_silent(|| flag_mutant(&comp.pipeline_spec, &comp.machine_code, &mc))
                });
                mutants.push(Mutant {
                    program: pi,
                    mc,
                    witness,
                });
            }
            if seeded.is_empty()
                && matches!(kind, FaultKind::RemovedPair | FaultKind::OutOfRangeValue)
            {
                return Err(format!(
                    "{}: could not seed any {} fault",
                    def.name,
                    kind.key()
                ));
            }
        }
    }
    Ok((mutants, neutral))
}

/// `None` for a behaviorally neutral candidate, else the witness seed
/// (`Some(None)` when only bounded verification distinguishes it).
fn screen_hunt_mutant(
    t: &mut Tracer,
    cfg: &HuntConfig,
    def: &ProgramDef,
    comp: &CompiledProgram,
    mc: &MachineCode,
    probe_seed: u64,
) -> Option<Option<u64>> {
    if t.span("analysis.symbolic", |_| {
        symbolic_equivalent(&comp.pipeline_spec, &comp.machine_code, mc)
    }) == Some(true)
    {
        return None;
    }
    let mut reference = t.span("domino.parse", |_| def.interpreter_spec(comp));
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let fcfg = fuzz_config(comp, seed, cfg.fuzz_phvs, cfg.input_bits);
        let v = fuzz_traced(
            t,
            &comp.pipeline_spec,
            mc,
            OptLevel::SccInline,
            &mut reference,
            &fcfg,
        );
        if v != VerdictClass::Pass {
            return Some(Some(seed));
        }
    }
    let outcome = verify_traced(t, comp, mc, OptLevel::SccInline, &mut reference, cfg);
    matches!(outcome, Ok(VerifyOutcome::CounterExample { .. })).then_some(None)
}

/// The hunts' bounded-verification fallback, one opaque span.
fn verify_traced(
    t: &mut Tracer,
    comp: &CompiledProgram,
    mc: &MachineCode,
    level: OptLevel,
    reference: &mut dyn Specification,
    cfg: &HuntConfig,
) -> druzhba::core::Result<VerifyOutcome> {
    let vcfg = VerifyConfig {
        input_bits: cfg.verify_bits,
        packets: cfg.verify_packets,
        relevant_containers: (0..comp.input_fields.len()).collect(),
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        max_cases: 1 << 16,
        lanes: 0,
    };
    t.span("dsim.verify", |t| {
        let out = verify_bounded(&comp.pipeline_spec, mc, level, reference, &vcfg);
        if let Ok(VerifyOutcome::Verified { cases }) = &out {
            t.count(*cases);
        }
        out
    })
}

/// One (mutant, backend) evaluation: fresh fuzz runs, the witness seed,
/// bounded verification; every divergence delta-debugged. Returns the
/// detector key and the ddmin checks spent.
fn evaluate_hunt(
    t: &mut Tracer,
    cfg: &HuntConfig,
    def: &ProgramDef,
    comp: &CompiledProgram,
    m: &Mutant,
    level: OptLevel,
    task_index: u64,
) -> (&'static str, u64) {
    let mut reference = t.span("domino.parse", |_| def.interpreter_spec(comp));
    let minimize_cfg = MinimizeConfig {
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        ..MinimizeConfig::default()
    };
    let minimize = |t: &mut Tracer, reference: &mut CompiledSpec, input: &Trace| {
        t.span("dsim.minimize", |t| {
            let checks = minimize_fault(
                &comp.pipeline_spec,
                &comp.machine_code,
                &m.mc,
                level,
                reference,
                input,
                &minimize_cfg,
            )
            .map_or(0, |(_, mce)| mce.checks as u64);
            t.count(checks);
            checks
        })
    };
    // `Some((panicked, checks))` when the round diverged.
    let fuzz_round = |t: &mut Tracer, seed: u64, reference: &mut CompiledSpec| {
        let fcfg = fuzz_config(comp, seed, cfg.fuzz_phvs, cfg.input_bits);
        match fuzz_traced(t, &comp.pipeline_spec, &m.mc, level, reference, &fcfg) {
            VerdictClass::Pass => None,
            VerdictClass::BackendPanic => Some((true, 0)),
            _ => {
                let input = t.span("dsim.traffic", |_| {
                    TrafficGenerator::new(
                        seed,
                        comp.pipeline_spec.config.phv_length,
                        cfg.input_bits,
                    )
                    .trace(cfg.fuzz_phvs)
                });
                Some((false, minimize(t, reference, &input)))
            }
        }
    };

    let task_seed = shard_seed(cfg.seed ^ HUNT_SALT, task_index);
    for run in 0..cfg.fuzz_runs {
        let seed = shard_seed(task_seed, run as u64);
        if let Some((panicked, checks)) = fuzz_round(t, seed, &mut reference) {
            return (if panicked { "panic" } else { "fuzz" }, checks);
        }
    }
    if let Some(seed) = m.witness {
        if let Some((panicked, checks)) = fuzz_round(t, seed, &mut reference) {
            return (if panicked { "panic" } else { "witness" }, checks);
        }
    }
    if let Ok(VerifyOutcome::CounterExample { input, .. }) =
        verify_traced(t, comp, &m.mc, level, &mut reference, cfg)
    {
        return ("verify", minimize(t, &mut reference, &input));
    }
    ("none", 0)
}

// ---------------------------------------------------------------------
// gen-sweep (`druzhba::genhunt::genhunt`, via `progen::generate_domino_at`).
// ---------------------------------------------------------------------

fn gen_traced(p: &Params, t: &mut Tracer) -> Result<Outcome, String> {
    let cfg = gen_config(p, 1);
    let mut rows = Vec::new();
    for index in 0..cfg.count {
        let row = t.span("campaign.task", |t| {
            let mut rejected = 0u64;
            let mut alarming = 0u64;
            let mut accepted = None;
            for attempt in 0..MAX_ATTEMPTS {
                let seed = shard_seed(cfg.seed ^ DOMINO_SALT, (index << 16) | attempt);
                let cand = t.span("progen.candidate", |_| domino_candidate(seed));
                match vet_traced(t, &cand) {
                    Ok(vetted) => {
                        accepted = Some(vetted);
                        break;
                    }
                    Err(r) => {
                        rejected += 1;
                        alarming += u64::from(matches!(r, Reject::Tv | Reject::Refuted));
                    }
                }
            }
            let (program, compiled) = accepted
                .ok_or_else(|| format!("gen-sweep: program {index} exhausted its candidates"))?;
            let task_seed = shard_seed(cfg.seed ^ GENHUNT_SALT, index);
            let runs = cfg.fuzz_runs.max(1);
            let mut clean = 0u64;
            for (li, &level) in cfg.levels.iter().enumerate() {
                for run in 0..runs {
                    let seed = shard_seed(task_seed, (li * runs + run) as u64);
                    let mut reference = CompiledSpec::new(program.clone(), &compiled);
                    let fcfg = fuzz_config(&compiled, seed, cfg.fuzz_phvs, cfg.input_bits);
                    let (spec, mc) = (&compiled.pipeline_spec, &compiled.machine_code);
                    if fuzz_traced(t, spec, mc, level, &mut reference, &fcfg) != VerdictClass::Pass
                    {
                        clean += 1;
                        break;
                    }
                }
            }
            Ok::<_, String>((index, rejected, alarming, clean))
        })?;
        rows.push(row);
    }
    let failed = rows.iter().filter(|r| r.2 > 0 || r.3 > 0).count() as u64;
    Ok(Outcome {
        tasks: rows.len() as u64,
        failed,
        counts: gen_counts(&rows),
    })
}

/// `progen::vet`: parse round-trip, compile, screen, abstract TV,
/// symbolic TV.
fn vet_traced(
    t: &mut Tracer,
    cand: &DominoCandidate,
) -> Result<(DominoProgram, CompiledProgram), Reject> {
    let program = t
        .span("domino.parse", |_| parse_program(&cand.source))
        .map_err(|_| Reject::Parse)?;
    let ccfg = CompilerConfig::new(cand.grid.depth, cand.grid.width, cand.grid.atom);
    let compiled = t
        .span("chipmunk.compile", |t| {
            let r = compile(&program, &ccfg);
            t.count(u64::from(r.is_err()));
            r
        })
        .map_err(|_| Reject::Compile)?;
    let obs = compiled.observable_containers();
    let (spec, mc) = (&compiled.pipeline_spec, &compiled.machine_code);
    match t.span("analysis.screen", |_| screen(spec, mc, Some(&obs))) {
        Ok(Screened::Interesting) => {}
        Ok(Screened::Trivial) => return Err(Reject::Trivial),
        Ok(Screened::Hazardous) => return Err(Reject::Hazardous),
        Err(_) => return Err(Reject::Compile),
    }
    let input = vec![AbsVal::top(); spec.config.phv_length];
    match t.span("analysis.tv", |_| translation_validate(spec, mc, &input)) {
        Ok(mismatches) if mismatches.is_empty() => {}
        _ => return Err(Reject::Tv),
    }
    if let SymbolicVerdict::Refuted { .. } =
        t.span("analysis.symbolic", |_| symbolic_validate(spec, mc))
    {
        return Err(Reject::Refuted);
    }
    Ok((program, compiled))
}

// ---------------------------------------------------------------------
// p4-hunt (`druzhba::p4hunt::p4_hunt_workloads`).
// ---------------------------------------------------------------------

struct P4Mutant {
    target: usize,
    entries: Vec<TableEntry>,
    witness: u64,
}

fn p4_traced(p: &Params, t: &mut Tracer) -> Result<Outcome, String> {
    let cfg = p4_config(p, 1);
    let targets: Vec<P4Workload> = t.span("setup", |t| {
        P4_PROGRAMS
            .iter()
            .map(|def| {
                t.span("p4.front", |_| def.workload())
                    .map_err(|e| format!("{}: {e}", def.name))
            })
            .collect::<Result<_, _>>()
    })?;

    let (mutants, neutral) = t.span("campaign.seed", |t| {
        let mut mutants = Vec::new();
        let mut neutral = 0u64;
        let mut candidate_counter = 0u64;
        for (ti, workload) in targets.iter().enumerate() {
            let mut injector = P4FaultInjector::new(shard_seed(cfg.seed, ti as u64));
            for kind in P4FaultKind::ALL {
                let mut seeded = Vec::new();
                let mut known_neutral = Vec::new();
                for _ in 0..cfg.mutants_per_class * 10 {
                    if seeded.len() >= cfg.mutants_per_class {
                        break;
                    }
                    let Some((entries, fault)) =
                        t.span("dsim.fault", |_| injector.inject(&workload.entries, kind))
                    else {
                        break;
                    };
                    if seeded.contains(&fault) || known_neutral.contains(&fault) {
                        continue;
                    }
                    let probe_seed = shard_seed(cfg.seed ^ SCREEN_SALT, candidate_counter);
                    candidate_counter += 1;
                    let Some(witness) = screen_p4_mutant(t, &cfg, workload, &entries, probe_seed)
                    else {
                        neutral += 1;
                        known_neutral.push(fault);
                        continue;
                    };
                    seeded.push(fault);
                    mutants.push(P4Mutant {
                        target: ti,
                        entries,
                        witness,
                    });
                }
            }
        }
        (mutants, neutral)
    });

    let tasks: Vec<(usize, OptLevel)> = (0..mutants.len())
        .flat_map(|mi| cfg.levels.iter().map(move |&l| (mi, l)))
        .collect();
    let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut checks = 0u64;
    for (gi, &(mi, level)) in tasks.iter().enumerate() {
        let m = &mutants[mi];
        let workload = &targets[m.target];
        let (detector, c) = t.span("campaign.task", |t| {
            let task_seed = shard_seed(cfg.seed ^ P4HUNT_SALT, gi as u64);
            let round = |t: &mut Tracer, seed: u64| {
                let (v, input) = p4_fuzz_traced(t, workload, &m.entries, level, seed, &cfg);
                match v {
                    VerdictClass::Pass => None,
                    VerdictClass::BackendPanic => Some((true, 0)),
                    _ => Some((
                        false,
                        t.span("dsim.minimize", |t| {
                            let c = p4_minimize(workload, &m.entries, level, &input, 3_000)
                                .map_or(0, |mce| mce.checks as u64);
                            t.count(c);
                            c
                        }),
                    )),
                }
            };
            for run in 0..cfg.fuzz_runs {
                if let Some((panicked, c)) = round(t, shard_seed(task_seed, run as u64)) {
                    return (if panicked { "panic" } else { "fuzz" }, c);
                }
            }
            match round(t, m.witness) {
                Some((panicked, c)) => (if panicked { "panic" } else { "witness" }, c),
                None => ("none", 0),
            }
        });
        *by.entry(detector).or_insert(0) += 1;
        checks += c;
    }
    let n = |k: &str| by.get(k).copied().unwrap_or(0);
    Ok(Outcome {
        tasks: tasks.len() as u64,
        failed: n("none"),
        counts: hunt_counts(tasks.len() as u64, checks, &P4_DETECTORS, n, neutral),
    })
}

/// The first diverging probe seed of a candidate entry set, `None` for a
/// behaviorally neutral one (proved equivalent, or no probe diverges).
fn screen_p4_mutant(
    t: &mut Tracer,
    cfg: &P4HuntConfig,
    workload: &P4Workload,
    entries: &[TableEntry],
    probe_seed: u64,
) -> Option<u64> {
    if t.span("analysis.symbolic", |_| {
        p4_symbolic_entries_equivalent(
            &workload.hlir,
            &workload.entries,
            entries,
            &workload.lowering,
        )
    }) == Some(true)
    {
        return None;
    }
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let (v, _) = p4_fuzz_traced(t, workload, entries, OptLevel::SccInline, seed, cfg);
        if v != VerdictClass::Pass {
            return Some(seed);
        }
    }
    None
}

/// One P4 differential fuzz run: entry-biased traffic, then
/// [`run_p4_case_traced`]. Returns the verdict class and the input.
fn p4_fuzz_traced(
    t: &mut Tracer,
    workload: &P4Workload,
    entries: &[TableEntry],
    level: OptLevel,
    seed: u64,
    cfg: &P4HuntConfig,
) -> (VerdictClass, Trace) {
    let input = t.span("dsim.traffic", |_| {
        P4Traffic::new(workload, seed, cfg.input_bits).trace(cfg.fuzz_phvs)
    });
    (
        run_p4_case_traced(t, workload, entries, level, &input),
        input,
    )
}

/// `dsim::p4::run_p4_case`: match-action pipeline vs. the reference
/// interpreter over `input`, outputs then registers and counters.
fn run_p4_case_traced(
    t: &mut Tracer,
    w: &P4Workload,
    entries: &[TableEntry],
    level: OptLevel,
    input: &Trace,
) -> VerdictClass {
    let depth = t.depth();
    let n = input.len() as u64;
    let guarded = catch_silent(|| {
        let mut pipeline = match t.span("dgen.generate", |_| {
            MatPipeline::generate(&w.hlir, entries, &w.lowering, level)
        }) {
            Ok(p) => p,
            Err(_) => return VerdictClass::Incompatible,
        };
        let actual = t.span("dgen.mat", |t| {
            t.count(n);
            pipeline.run(input)
        });
        let (expected, interp) = t.span("p4.exec", |t| {
            t.count(n);
            let mut interp = w.interpreter();
            let layout = pipeline.layout();
            let phvs = input
                .phvs
                .iter()
                .enumerate()
                .map(|(i, phv)| {
                    let mut packet = layout.phv_to_packet(i as u64, phv);
                    interp.process(&mut packet);
                    layout.packet_to_phv(&packet)
                })
                .collect();
            (Trace::from_phvs(phvs), interp)
        });
        t.span("core.compare", |_| {
            if let Some(m) = expected.first_mismatch(&actual, None) {
                return Verdict::Mismatch(m).class();
            }
            if state_differs(interp.registers(), &pipeline.registers())
                || state_differs(interp.counters(), &pipeline.counters())
            {
                return VerdictClass::StateMismatch;
            }
            VerdictClass::Pass
        })
    });
    guarded.unwrap_or_else(|_| {
        t.unwind(depth);
        VerdictClass::BackendPanic
    })
}

/// True when any expected stateful object differs from the actual one (a
/// missing object reads as empty).
fn state_differs<V: PartialEq>(
    expected: &BTreeMap<String, Vec<V>>,
    actual: &BTreeMap<String, Vec<V>>,
) -> bool {
    expected
        .iter()
        .any(|(name, e)| actual.get(name).map_or(!e.is_empty(), |a| a != e))
}

// ---------------------------------------------------------------------
// lane-verify (`dsim::verify::verify_bounded` with `lanes > 0`).
// ---------------------------------------------------------------------

fn lane_traced(p: &Params, t: &mut Tracer) -> Result<Outcome, String> {
    let def = lane_program();
    let (compiled, mut reference) = t.span("setup", |t| {
        let program = t.span("domino.parse", |_| def.parse());
        let compiled = t
            .span("chipmunk.compile", |_| {
                compile(&program, &def.compiler_config())
            })
            .map_err(|e| e.to_string())?;
        let reference = t.span("domino.parse", |_| def.interpreter_spec(&compiled));
        Ok::<_, String>((compiled, reference))
    })?;
    let cfg = lane_verify_config(&compiled, p.quick);
    let spec = &compiled.pipeline_spec;
    let pipeline = t
        .span("dgen.generate", |_| {
            Pipeline::generate(spec, &compiled.machine_code, OptLevel::Fused)
        })
        .map_err(|e| e.to_string())?;
    let lowered = t
        .span("dgen.lanes", |_| {
            LanePipeline::lower(pipeline.fused_program().expect("fused level"))
        })
        .ok_or("rcp's fused program is not lane-lowerable")?;
    let width = cfg.lanes;
    let mut sweep = lowered.sweep(width).expect("64 is a supported lane width");

    let packets = cfg.packets;
    let phv_length = spec.config.phv_length;
    let nrel = cfg.relevant_containers.len();
    let slots = nrel * packets;
    let max = ((1u64 << cfg.input_bits) - 1) as u32;
    let observable = cfg
        .observable
        .clone()
        .expect("lane-verify observes outputs");
    let nobs = observable.len();
    let mut assignment = vec![0u32; slots];
    let mut assign_buf = vec![0u32; slots.max(1) * width];
    let mut out_buf = vec![0u32; packets * phv_length * width];
    let mut expected_out: Vec<Option<Value>> = vec![None; width * packets * nobs];
    let mut expected_state: Vec<Vec<Value>> = vec![Vec::new(); width];
    let mut scratch_in = Phv::zeroed(phv_length);
    let mut scratch_out = Phv::zeroed(phv_length);
    let (mut checked, mut diverged) = (0u64, 0u64);
    let mut done = false;

    while !done {
        t.span("dsim.verify", |t| {
            // Fill up to `width` lanes from the odometer, in case order.
            let mut active = 0;
            while active < width && !done {
                for (s, &v) in assignment.iter().enumerate() {
                    assign_buf[s * width + active] = v;
                }
                active += 1;
                if slots == 0 {
                    done = true;
                    break;
                }
                let mut i = 0;
                loop {
                    if i == slots {
                        done = true;
                        break;
                    }
                    if assignment[i] < max {
                        assignment[i] += 1;
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
            }
            if active == 0 {
                return;
            }
            t.count(active as u64);
            let phvs = (active * packets) as u64;
            t.span("dgen.lanes", |t| {
                t.count(phvs);
                sweep.reset();
                for p in 0..packets {
                    sweep.clear_phv();
                    for lane in 0..active {
                        for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                            sweep.set_input(
                                lane,
                                container,
                                assign_buf[(p * nrel + ci) * width + lane],
                            );
                        }
                    }
                    sweep.step(active);
                    for lane in 0..active {
                        for c in 0..phv_length {
                            out_buf[(p * phv_length + c) * width + lane] = sweep.output(lane, c);
                        }
                    }
                }
            });
            t.span("domino.interp", |t| {
                t.count(phvs);
                for lane in 0..active {
                    reference.reset();
                    for p in 0..packets {
                        for c in 0..phv_length {
                            scratch_in.set(c, 0);
                        }
                        for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                            scratch_in.set(container, assign_buf[(p * nrel + ci) * width + lane]);
                        }
                        reference.process_into(&scratch_in, &mut scratch_out);
                        for (k, &c) in observable.iter().enumerate() {
                            expected_out[(lane * packets + p) * nobs + k] = scratch_out.try_get(c);
                        }
                    }
                    if !cfg.state_cells.is_empty() {
                        reference.state_into(&mut expected_state[lane]);
                    }
                }
            });
            t.span("core.compare", |_| {
                for lane in 0..active {
                    let outputs_differ = (0..packets).any(|p| {
                        observable.iter().enumerate().any(|(k, &c)| {
                            let actual = (c < phv_length)
                                .then(|| out_buf[(p * phv_length + c) * width + lane]);
                            expected_out[(lane * packets + p) * nobs + k] != actual
                        })
                    });
                    let state_differs = || {
                        cfg.state_cells
                            .iter()
                            .enumerate()
                            .any(|(i, &(stage, slot, var))| {
                                sweep.state_value(lane, stage, slot, var)
                                    != expected_state[lane].get(i).copied()
                            })
                    };
                    if outputs_differ || state_differs() {
                        diverged += 1;
                    } else {
                        checked += 1;
                    }
                }
            });
        });
    }
    let cases = if diverged > 0 { 0 } else { checked };
    Ok(Outcome {
        tasks: cfg.max_cases,
        failed: cfg.max_cases - cases.min(cfg.max_cases),
        counts: vec![("cases", cases)],
    })
}
