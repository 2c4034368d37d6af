//! Greybox-vs-random ablation: executions to first divergence on the two
//! mutation campaigns.
//!
//! FP4 and Gauntlet justify feedback-driven input generation by detection
//! economics: fewer executions per found bug. This binary measures that
//! claim on Druzhba's own campaigns. For every seeded mutant (the same
//! deterministic fault classes `druzhba hunt` and `p4-fuzz --mutants`
//! inject) and every requested backend, it races two equal-budget modes:
//!
//! - **random** — independently seeded traffic batches through the plain
//!   differential oracle, counting batches until the first divergence;
//! - **greybox** — the coverage-guided loop (`dsim::coverage`) with the
//!   same per-execution packet count and total budget, counting its
//!   `first_divergence` ordinal.
//!
//! Both modes run single-threaded per evaluation (the evaluations
//! themselves shard across workers), so results are machine-independent.
//! The run writes machine-readable `BENCH_greybox.json` — detection rate
//! and median executions-to-first-divergence per mode per stack — which
//! is committed so the guidance payoff is diffable across commits; CI
//! runs a reduced smoke pass.
//!
//! Usage: `cargo run -p druzhba-bench --release --bin greybox --
//!   [executions] [--packets P] [--mutants N] [--level L|all]
//!   [--programs a,b] [--p4-programs x,y] [--seed S] [--out FILE]`

use std::fmt::Write as _;

use druzhba_core::MachineCode;
use druzhba_dgen::OptLevel;
use druzhba_dsim::coverage::{greybox_fuzz_test, p4_greybox_fuzz_test, GreyboxConfig};
use druzhba_dsim::fault::{FaultInjector, FaultKind};
use druzhba_dsim::p4::{P4FaultInjector, P4FaultKind, P4Target, P4Workload};
use druzhba_dsim::testing::{run_sharded, shard_seed, AluTarget, Target};
use druzhba_programs::{ProgramDef, P4_PROGRAMS, PROGRAMS};

/// One evaluation's outcome in one mode.
#[derive(Clone, Copy)]
struct ModeOutcome {
    /// Execution ordinal of the first divergence (1-based), if any.
    detected_at: Option<usize>,
}

/// One (mutant, level) evaluation: both modes under the same budget.
struct Evaluation {
    random: ModeOutcome,
    greybox: ModeOutcome,
}

/// Aggregate statistics of one mode over a stack's evaluations.
struct ModeStats {
    detected: usize,
    total: usize,
    median_execs: Option<usize>,
    mean_execs: Option<f64>,
}

fn stats(outcomes: impl Iterator<Item = ModeOutcome> + Clone) -> ModeStats {
    let total = outcomes.clone().count();
    let mut detections: Vec<usize> = outcomes.filter_map(|o| o.detected_at).collect();
    detections.sort_unstable();
    let detected = detections.len();
    let median_execs = (!detections.is_empty()).then(|| detections[detections.len() / 2]);
    let mean_execs = (!detections.is_empty())
        .then(|| detections.iter().sum::<usize>() as f64 / detections.len() as f64);
    ModeStats {
        detected,
        total,
        median_execs,
        mean_execs,
    }
}

fn mode_json(s: &ModeStats) -> String {
    // No evaluations means no measurement — null, not a perfect score.
    let rate = if s.total == 0 {
        "null".to_string()
    } else {
        format!("{:.4}", s.detected as f64 / s.total as f64)
    };
    format!(
        "{{\"detected\": {}, \"evaluations\": {}, \"detection_rate\": {rate}, \
         \"median_executions_to_divergence\": {}, \"mean_executions_to_divergence\": {}}}",
        s.detected,
        s.total,
        s.median_execs.map_or("null".to_string(), |m| m.to_string()),
        s.mean_execs
            .map_or("null".to_string(), |m| format!("{m:.1}")),
    )
}

/// Blind-random baseline on either stack: fresh `packets`-long traffic
/// batches at `bits`-bit values through the target's check until
/// divergence or budget exhaustion.
fn random_baseline<R: ?Sized, T: Target<R>>(
    target: &T,
    reference: &mut R,
    (budget, packets, bits): (usize, usize, u32),
    base_seed: u64,
) -> ModeOutcome {
    let detected_at = (0..budget)
        .find(|&i| {
            let input = target.traffic(shard_seed(base_seed, i as u64), bits, packets);
            !target.check(reference, &input).passed()
        })
        .map(|i| i + 1);
    ModeOutcome { detected_at }
}

/// [`random_baseline`] on the ALU stack, against the program's interpreter spec.
fn random_alu(
    def: &ProgramDef,
    comp: &druzhba_chipmunk::CompiledProgram,
    mc: &MachineCode,
    level: OptLevel,
    (budget, packets): (usize, usize),
    base_seed: u64,
) -> ModeOutcome {
    let observable = comp.observable_containers();
    let target = AluTarget {
        pipeline_spec: &comp.pipeline_spec,
        mc,
        opt: level,
        observable: Some(&observable),
        state_cells: &comp.state_cells,
    };
    let mut reference = def.interpreter_spec(comp);
    random_baseline(&target, &mut reference, (budget, packets, 10), base_seed)
}

fn greybox_cfg(budget: usize, packets: usize, bits: u32, seed: u64) -> GreyboxConfig {
    GreyboxConfig {
        executions: budget,
        packets,
        // Strictly equal per-execution budget: greybox traces may never
        // exceed the random baseline's fixed batch length, so the
        // comparison credits guidance, not extra packets.
        max_packets: packets,
        seed,
        input_bits: bits,
        workers: 1, // evaluations shard across workers; each mode is serial
        minimize: false,
        ..GreyboxConfig::default()
    }
}

fn parse_levels(raw: &str) -> Vec<OptLevel> {
    if raw == "all" {
        return OptLevel::ALL.to_vec();
    }
    raw.split(',')
        .map(|tok| match tok.trim() {
            "0" | "unoptimized" => OptLevel::Unoptimized,
            "1" | "scc" => OptLevel::Scc,
            "2" | "scc_inline" => OptLevel::SccInline,
            "3" | "fused" => OptLevel::Fused,
            other => panic!("unknown level `{other}`"),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut executions = 512usize;
    let mut packets = 48usize;
    let mut mutants_per_class = 2usize;
    let mut levels = OptLevel::ALL.to_vec();
    let mut out: Option<String> = None;
    let mut seed = 0x000D_122Bu64;
    let mut programs: Option<Vec<String>> = None;
    let mut p4_programs: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut flag = |name: &str| -> Option<String> {
            (a == name).then(|| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .clone()
            })
        };
        if let Some(v) = flag("--packets") {
            packets = v.parse().expect("--packets");
        } else if let Some(v) = flag("--mutants") {
            mutants_per_class = v.parse().expect("--mutants");
        } else if let Some(v) = flag("--level") {
            levels = parse_levels(&v);
        } else if let Some(v) = flag("--out") {
            out = Some(v);
        } else if let Some(v) = flag("--seed") {
            seed = v.parse().expect("--seed");
        } else if let Some(v) = flag("--programs") {
            programs = Some(v.split(',').map(|s| s.trim().to_string()).collect());
        } else if let Some(v) = flag("--p4-programs") {
            p4_programs = Some(v.split(',').map(|s| s.trim().to_string()).collect());
        } else {
            executions = a.parse().expect("usage: greybox [executions] [--flags]");
        }
    }
    let workers = druzhba_dsim::runtime::default_workers();

    // ------------------------------------------------------------------
    // ALU stack: machine-code mutants over the Table 1 corpus.
    // ------------------------------------------------------------------
    let defs: Vec<&ProgramDef> = match &programs {
        None => PROGRAMS.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                druzhba_programs::by_name(n).unwrap_or_else(|| panic!("unknown program `{n}`"))
            })
            .collect(),
    };
    let compiled: Vec<_> = defs
        .iter()
        .map(|def| def.compile_cached().expect("corpus compiles"))
        .collect();

    // Seed mutants like `druzhba hunt`: deterministic injector per
    // program, value mutations screened for behavioral effect with a
    // probe fuzz (equivalent mutants measure nothing).
    struct AluMutant {
        program: usize,
        mc: MachineCode,
    }
    let mut alu_mutants: Vec<AluMutant> = Vec::new();
    let mut alu_screened_out = 0usize;
    for (pi, (def, comp)) in defs.iter().zip(&compiled).enumerate() {
        let mut injector = FaultInjector::new(shard_seed(seed, pi as u64));
        // Behavioral fault classes only: the hostile-trap class exists to
        // exercise panic isolation, not to measure detection latency.
        for kind in FaultKind::BEHAVIORAL {
            let mut seeded = 0usize;
            for attempt in 0..mutants_per_class * 10 {
                if seeded >= mutants_per_class {
                    break;
                }
                let Some((mc, _fault)) =
                    injector.inject(&comp.pipeline_spec, &comp.machine_code, kind)
                else {
                    break;
                };
                if kind == FaultKind::MutatedValue {
                    // Probe for behavioral effect on the default backend.
                    let probe = random_alu(
                        def,
                        comp,
                        &mc,
                        OptLevel::SccInline,
                        (4, 2_000),
                        shard_seed(seed ^ 0x5343_524E, (pi * 100 + attempt) as u64),
                    );
                    if probe.detected_at.is_none() {
                        alu_screened_out += 1;
                        continue;
                    }
                }
                alu_mutants.push(AluMutant { program: pi, mc });
                seeded += 1;
            }
        }
    }

    let alu_tasks: Vec<(usize, OptLevel)> = alu_mutants
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| levels.iter().map(move |&l| (mi, l)))
        .collect();
    eprintln!(
        "alu: {} mutants ({} screened out) x {} level(s) = {} evaluations, \
         budget {executions} x {packets} packets",
        alu_mutants.len(),
        alu_screened_out,
        levels.len(),
        alu_tasks.len()
    );
    let alu_mutants = &alu_mutants;
    let defs = &defs;
    let compiled = &compiled;
    let alu_evals: Vec<Evaluation> = run_sharded(alu_tasks, workers, |ti, (mi, level)| {
        let m = &alu_mutants[mi];
        let (def, comp) = (defs[m.program], &compiled[m.program]);
        let random = random_alu(
            def,
            comp,
            &m.mc,
            level,
            (executions, packets),
            shard_seed(seed ^ 0x7A4D_0000, ti as u64),
        );
        let gb = greybox_fuzz_test(
            &comp.pipeline_spec,
            &m.mc,
            level,
            || def.interpreter_spec(comp),
            Some(&comp.observable_containers()),
            &comp.state_cells,
            &greybox_cfg(
                executions,
                packets,
                10,
                shard_seed(seed ^ 0x6B00_0000, ti as u64),
            ),
        );
        Evaluation {
            random,
            greybox: ModeOutcome {
                detected_at: gb.first_divergence,
            },
        }
    });

    // ------------------------------------------------------------------
    // P4 stack: table/action mutants over the P4 corpus.
    // ------------------------------------------------------------------
    let p4_defs: Vec<_> = match &p4_programs {
        None => P4_PROGRAMS.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                druzhba_programs::p4_by_name(n)
                    .unwrap_or_else(|| panic!("unknown p4 program `{n}`"))
            })
            .collect(),
    };
    let workloads: Vec<(String, P4Workload)> = p4_defs
        .iter()
        .map(|def| (def.name.to_string(), def.workload().expect("corpus lowers")))
        .collect();
    struct P4Mutant {
        target: usize,
        entries: Vec<druzhba_p4::tables::TableEntry>,
    }
    let mut p4_mutants: Vec<P4Mutant> = Vec::new();
    let mut p4_screened_out = 0usize;
    for (ti, (_, workload)) in workloads.iter().enumerate() {
        let mut injector = P4FaultInjector::new(shard_seed(seed, ti as u64));
        for kind in P4FaultKind::ALL {
            let mut seeded = 0usize;
            for attempt in 0..mutants_per_class * 10 {
                if seeded >= mutants_per_class {
                    break;
                }
                let Some((entries, _fault)) = injector.inject(&workload.entries, kind) else {
                    break;
                };
                let target = P4Target {
                    workload,
                    entries: &entries,
                    level: OptLevel::SccInline,
                };
                let probe_seed = shard_seed(seed ^ 0x5343_524E, (ti * 100 + attempt) as u64);
                let probe = random_baseline(&target, &mut (), (4, 2_000, 16), probe_seed);
                if probe.detected_at.is_none() {
                    p4_screened_out += 1;
                    continue;
                }
                p4_mutants.push(P4Mutant {
                    target: ti,
                    entries,
                });
                seeded += 1;
            }
        }
    }
    let p4_tasks: Vec<(usize, OptLevel)> = p4_mutants
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| levels.iter().map(move |&l| (mi, l)))
        .collect();
    eprintln!(
        "p4:  {} mutants ({} screened out) x {} level(s) = {} evaluations",
        p4_mutants.len(),
        p4_screened_out,
        levels.len(),
        p4_tasks.len()
    );
    let p4_mutants = &p4_mutants;
    let workloads = &workloads;
    let p4_evals: Vec<Evaluation> = run_sharded(p4_tasks, workers, |ti, (mi, level)| {
        let m = &p4_mutants[mi];
        let (_, workload) = &workloads[m.target];
        let target = P4Target {
            workload,
            entries: &m.entries,
            level,
        };
        let random = random_baseline(
            &target,
            &mut (),
            (executions, packets, 16),
            shard_seed(seed ^ 0x7A4D_0001, ti as u64),
        );
        let gb = p4_greybox_fuzz_test(
            workload,
            &m.entries,
            level,
            false,
            &greybox_cfg(
                executions,
                packets,
                16,
                shard_seed(seed ^ 0x6B00_0001, ti as u64),
            ),
        );
        Evaluation {
            random,
            greybox: ModeOutcome {
                detected_at: gb.first_divergence,
            },
        }
    });

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let render = |name: &str, evals: &[Evaluation]| -> String {
        let rnd = stats(evals.iter().map(|e| e.random));
        let gb = stats(evals.iter().map(|e| e.greybox));
        println!(
            "{name}: greybox {}/{} detected (median {} execs), random {}/{} (median {} execs)",
            gb.detected,
            gb.total,
            gb.median_execs.map_or("-".to_string(), |m| m.to_string()),
            rnd.detected,
            rnd.total,
            rnd.median_execs.map_or("-".to_string(), |m| m.to_string()),
        );
        format!(
            "  \"{name}\": {{\"greybox\": {}, \"random\": {}}}",
            mode_json(&gb),
            mode_json(&rnd)
        )
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let level_names: Vec<String> = levels.iter().map(|l| format!("\"{}\"", l.key())).collect();
    let _ = writeln!(
        json,
        "  \"config\": {{\"executions\": {executions}, \"packets\": {packets}, \
         \"mutants_per_class\": {mutants_per_class}, \"levels\": [{}], \"seed\": {seed}}},",
        level_names.join(", ")
    );
    let _ = writeln!(json, "{},", render("alu", &alu_evals));
    let _ = writeln!(json, "{}", render("p4", &p4_evals));
    let _ = writeln!(json, "}}");
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("write BENCH_greybox.json");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }

    // Guard the guidance claim: greybox must never detect fewer mutants
    // than blind random under the same budget.
    let gb_total = stats(alu_evals.iter().chain(&p4_evals).map(|e| e.greybox));
    let rnd_total = stats(alu_evals.iter().chain(&p4_evals).map(|e| e.random));
    if gb_total.detected < rnd_total.detected {
        eprintln!(
            "REGRESSION: greybox detected {} < random {}",
            gb_total.detected, rnd_total.detected
        );
        std::process::exit(1);
    }
}
