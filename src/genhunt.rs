//! `druzhba hunt --generate N`: Gauntlet-style generated-program
//! campaigns.
//!
//! Where [`hunt`](crate::hunt) mutates machine code under the fixed
//! twelve-program corpus, this campaign generates *fresh programs* —
//! [`druzhba_progen`]'s seed-driven, screen-vetted Domino generators —
//! and differentially tests every backend on each one:
//!
//! 1. program `i` is generated index-addressably from the campaign seed
//!    (any worker can produce program 733 without touching 0..732), so
//!    the campaign is deterministic and byte-identical across `--jobs`
//!    counts;
//! 2. the *clean sweep*: every generated program runs seeded
//!    differential fuzzing for every requested [`OptLevel`]. The programs
//!    are freshly compiled and statically vetted, so any divergence here
//!    is a genuine compiler bug (the expected count is zero, and CI
//!    treats nonzero as failure). Vetting proves almost every program's
//!    four backends equal (DESIGN.md §12); such a program replays each
//!    level's traffic on one fused build, and only a fused run that does
//!    not pass is rerun on its level;
//! 3. optionally (`--faults N`), known faults are injected into each
//!    generated program's machine code and hunted the usual way —
//!    measuring detection power over an unbounded program space instead
//!    of seventeen fixed inputs;
//! 4. every injected-fault divergence is minimized at the *program*
//!    level: [`minimize_program`] delta-debugs the generated source
//!    (statements, branch bodies, state declarations), recompiling and
//!    re-applying the fault per candidate, until the smallest program
//!    that still diverges with the same [`VerdictClass`] remains.
//!
//! The campaign shares the crash-proof campaign engine of the corpus hunt
//! ([`run_resumable`]): panic-isolated work stealing, per-program
//! checkpoint records that `--resume` restores verbatim, wall-clock
//! budgets that truncate at a clean per-program boundary.

use druzhba_chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba_core::json::{array, Object};
use druzhba_core::MachineCode;
use druzhba_dgen::OptLevel;
use druzhba_domino::DominoProgram;
use druzhba_dsim::fault::{Fault, FaultInjector, FaultKind};
use druzhba_dsim::runtime::{
    catch_silent, default_workers, run_resumable, Campaign, RecordCodec, RuntimeOptions,
};
use druzhba_dsim::snapshot;
use druzhba_dsim::testing::{fuzz_test, shard_seed, AluChecker, FuzzConfig, VerdictClass};
use druzhba_dsim::TrafficGenerator;
use druzhba_progen::{generate_domino_at, minimize_program, program_size, GeneratedDomino};

use crate::mutation::{rate, render_report, HuntFault, ROW_INDENT};

/// Salt mixed into the campaign seed for per-program task seeds
/// (`"GENH"`), keeping traffic seeds independent of the candidate-seed
/// stream the generator itself consumes.
const GENH_SALT: u64 = 0x4745_4E48;

/// Configuration of a generated-program campaign.
#[derive(Debug, Clone)]
pub struct GenHuntConfig {
    /// Programs to generate and sweep.
    pub count: u64,
    /// Campaign seed: program generation, fault injection, and traffic
    /// seeds all derive from it.
    pub seed: u64,
    /// Backends each program is swept on.
    pub levels: Vec<OptLevel>,
    /// PHVs per differential fuzz run.
    pub fuzz_phvs: usize,
    /// Independently seeded fuzz runs per (program, level) in the clean
    /// sweep.
    pub fuzz_runs: usize,
    /// Bit width of fuzzed container values.
    pub input_bits: u32,
    /// Faults injected per generated program (0 = clean sweep only).
    pub faults_per_program: usize,
    /// Oracle-consultation budget for program-level minimization of each
    /// diverging fault.
    pub minimize_checks: usize,
    /// Worker threads.
    pub workers: usize,
    /// Crash-resilience options (checkpoint/resume, wall-clock budget).
    /// Excluded from the snapshot fingerprint.
    pub runtime: RuntimeOptions,
}

impl Default for GenHuntConfig {
    fn default() -> Self {
        GenHuntConfig {
            count: 1000,
            seed: 0x000D_122B,
            levels: OptLevel::ALL.to_vec(),
            fuzz_phvs: 500,
            fuzz_runs: 1,
            input_bits: 10,
            faults_per_program: 0,
            minimize_checks: 200,
            workers: default_workers(),
            runtime: RuntimeOptions::default(),
        }
    }
}

/// The checkpoint-stable projection of one swept program: the
/// aggregate-relevant counters plus the fully-rendered `programs[]` JSON
/// row, restored verbatim on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRecord {
    /// Program index under the campaign seed.
    pub index: u64,
    /// Generated program name (`gen_{seed:016x}_{index}`).
    pub name: String,
    /// Grid label (`depth x width : atom`).
    pub grid: String,
    /// Candidates the vet chain rejected before this program.
    pub rejected: u32,
    /// Alarming rejects: candidates thrown out because translation
    /// validation mismatched or the symbolic pass *refuted* their fresh
    /// compile. Unlike `Trivial`/`Hazardous` rejects these are compiler
    /// bugs, and the campaign exit is nonzero when any occur.
    pub alarming: u32,
    /// Clean-sweep divergences (expected 0 — each is a compiler bug).
    pub clean_divergences: usize,
    /// Faults successfully injected.
    pub faults_seeded: usize,
    /// Injected faults detected by the sweep.
    pub faults_detected: usize,
    /// Detected faults whose program-level minimization succeeded.
    pub minimized: usize,
    /// The worker died evaluating this program (pool-level panic).
    pub panicked: bool,
    /// The program was proved equal on every backend, so its clean sweep
    /// replayed each level's traffic on one fused build.
    pub proved: bool,
    /// The rendered JSON row, carried verbatim through checkpoints.
    pub json: String,
}

/// One checkpoint line: tab-separated counters, the JSON row last (the
/// only field that may contain tabs, hence `splitn` on decode). The line
/// leads with the program index, which is also the task index. The field
/// before the row is a flag set: 1 = panicked, 2 = proved; a line written
/// before `proved` existed reads as unproved.
impl RecordCodec for GenRecord {
    fn encode(&self, _idx: usize) -> Option<String> {
        Some(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{ROW_INDENT}{}",
            self.index,
            self.name,
            self.grid,
            self.rejected,
            self.alarming,
            self.clean_divergences,
            self.faults_seeded,
            self.faults_detected,
            self.minimized,
            u8::from(self.panicked) | u8::from(self.proved) << 1,
            self.json
        ))
    }

    fn decode(line: &str) -> Option<(usize, Self)> {
        let fields: Vec<&str> = line.splitn(11, '\t').collect();
        let [index, name, grid, rejected, alarming, clean, seeded, detected, minimized, flags, json] =
            fields[..]
        else {
            return None;
        };
        let flags: u8 = flags.parse().ok().filter(|&f| f <= 3)?;
        let record = GenRecord {
            index: index.parse().ok()?,
            name: name.to_string(),
            grid: grid.to_string(),
            rejected: rejected.parse().ok()?,
            alarming: alarming.parse().ok()?,
            clean_divergences: clean.parse().ok()?,
            faults_seeded: seeded.parse().ok()?,
            faults_detected: detected.parse().ok()?,
            minimized: minimized.parse().ok()?,
            panicked: flags & 1 != 0,
            proved: flags & 2 != 0,
            json: json.strip_prefix(ROW_INDENT)?.to_string(),
        };
        Some((usize::try_from(record.index).ok()?, record))
    }
}

/// Aggregate result of a generated-program campaign.
#[derive(Debug, Clone)]
pub struct GenHuntReport {
    /// One record per *completed* program sweep, in index order — the
    /// canonical source for every aggregate and the JSON `programs[]`
    /// array. Resumed campaigns restore records without re-sweeping.
    pub records: Vec<GenRecord>,
    /// Program sweeps skipped because the wall-clock budget expired.
    pub truncated: usize,
    /// The configuration that produced the report.
    pub config: GenHuntConfig,
}

impl GenHuntReport {
    /// Programs swept to completion.
    pub fn programs(&self) -> usize {
        self.records.len()
    }

    /// Candidates the vet chain rejected across all programs.
    pub fn rejected_candidates(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.rejected)).sum()
    }

    /// Alarming rejects across all programs: fresh compiles the TV or
    /// symbolic pass caught disagreeing with their source. Each is a
    /// compiler bug; the expected count is zero.
    pub fn alarming_rejects(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.alarming)).sum()
    }

    /// Clean-sweep divergences across all programs (each one is a real
    /// compiler bug; the expected count is zero).
    pub fn clean_divergences(&self) -> usize {
        self.records.iter().map(|r| r.clean_divergences).sum()
    }

    /// Faults injected across all programs.
    pub fn faults_seeded(&self) -> usize {
        self.records.iter().map(|r| r.faults_seeded).sum()
    }

    /// Injected faults the sweep detected.
    pub fn faults_detected(&self) -> usize {
        self.records.iter().map(|r| r.faults_detected).sum()
    }

    /// Detected faults minimized to a program-level reproducer.
    pub fn minimized(&self) -> usize {
        self.records.iter().map(|r| r.minimized).sum()
    }

    /// Programs whose clean sweep ran on one fused build under the proof
    /// that every backend computes the same function.
    pub fn proved(&self) -> usize {
        self.records.iter().filter(|r| r.proved).count()
    }

    /// Programs whose sweep died to a pool-level panic.
    pub fn panics(&self) -> usize {
        self.records.iter().filter(|r| r.panicked).count()
    }

    /// Detected fraction over injected faults (1.0 when none injected).
    pub fn detection_rate(&self) -> f64 {
        if self.faults_seeded() == 0 {
            return 1.0;
        }
        self.faults_detected() as f64 / self.faults_seeded() as f64
    }

    /// Render the campaign as a JSON document (schema: DESIGN.md §13).
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let config = Object::block(4)
            .field("seed", cfg.seed)
            .field("count", cfg.count)
            .field("levels", array(cfg.levels.iter().map(|l| l.key()), None))
            .field("fuzz_phvs", cfg.fuzz_phvs)
            .field("fuzz_runs", cfg.fuzz_runs)
            .field("input_bits", cfg.input_bits)
            .field("faults_per_program", cfg.faults_per_program)
            .field("minimize_checks", cfg.minimize_checks);
        let summary = Object::block(4)
            .field("programs", self.programs())
            .field("truncated", self.truncated)
            .field("rejected_candidates", self.rejected_candidates())
            .field("alarming_rejects", self.alarming_rejects())
            .field("clean_divergences", self.clean_divergences())
            .field("faults_seeded", self.faults_seeded())
            .field("faults_detected", self.faults_detected())
            .field("detection_rate", rate(self.detection_rate()))
            .field("minimized", self.minimized())
            .field("panics", self.panics());
        let rows = self.records.iter().map(|r| r.json.as_str());
        render_report(config, summary, "programs", rows)
    }
}

/// Run a generated-program campaign. Deterministic: the report is a pure
/// function of the configuration, independent of worker count.
pub fn genhunt(cfg: &GenHuntConfig) -> Result<GenHuntReport, String> {
    if cfg.levels.is_empty() {
        return Err("hunt --generate needs at least one optimization level".into());
    }
    if cfg.count == 0 {
        return Err("--generate needs a nonzero program count".into());
    }

    let fingerprint_cfg = GenHuntConfig {
        runtime: RuntimeOptions::default(),
        ..cfg.clone()
    };
    let campaign = Campaign {
        kind: "genhunt",
        fingerprint: snapshot::fingerprint_of_config("genhunt", &fingerprint_cfg),
        total: cfg.count as usize,
        workers: cfg.workers,
        runtime: &cfg.runtime,
    };
    let out = run_resumable(
        &campaign,
        |index| sweep_program(cfg, index as u64),
        GenRecord::clone,
        // A worker that dies at the pool level (generation or synthesis
        // panicking past the per-case guards) still yields a row.
        |index, payload| {
            let name = format!("gen_{:016x}_{index}", cfg.seed);
            GenRecord {
                index: index as u64,
                json: Object::new()
                    .field("name", &name)
                    .field("index", index)
                    .field("panic", payload)
                    .to_string(),
                name,
                grid: "?".to_string(),
                rejected: 0,
                alarming: 0,
                clean_divergences: 0,
                faults_seeded: 0,
                faults_detected: 0,
                minimized: 0,
                panicked: true,
                proved: false,
            }
        },
    );
    Ok(GenHuntReport {
        records: out.records,
        truncated: out.truncated,
        config: cfg.clone(),
    })
}

/// One clean-sweep or fault-sweep divergence, for the JSON row.
#[derive(Debug, PartialEq, Eq)]
struct Divergence {
    level: OptLevel,
    seed: u64,
    verdict: VerdictClass,
}

/// Generate program `index` and sweep it: clean differential runs on
/// every level, then optional fault injection with program-level
/// minimization of every diverging fault.
fn sweep_program(cfg: &GenHuntConfig, index: u64) -> GenRecord {
    let g = generate_domino_at(cfg.seed, index);
    let task_seed = shard_seed(cfg.seed ^ GENH_SALT, index);

    // Clean sweep: the program is freshly compiled and statically vetted,
    // so any divergence is a genuine compiler bug.
    let clean = clean_sweep(cfg, &g, &g.compiled.machine_code, task_seed);

    // Fault sweep: inject known faults into the generated machine code
    // and hunt them, minimizing each divergence at the program level.
    let mut faults: Vec<FaultRow> = Vec::new();
    for f in 0..cfg.faults_per_program {
        let kind = FaultKind::BEHAVIORAL[f % FaultKind::BEHAVIORAL.len()];
        let mut injector = FaultInjector::new(shard_seed(task_seed, 0x4641 + f as u64));
        let Some((bad_mc, fault)) =
            injector.inject(&g.compiled.pipeline_spec, &g.compiled.machine_code, kind)
        else {
            continue;
        };
        faults.push(sweep_fault(cfg, &g, task_seed, f, fault, &bad_mc));
    }

    let faults_detected = faults.iter().filter(|f| f.divergence.is_some()).count();
    let minimized = faults.iter().filter(|f| f.minimized.is_some()).count();
    let json = program_json(&g, &clean, &faults);
    let proved = g.proved();
    GenRecord {
        index,
        name: g.name,
        grid: g.grid.to_string(),
        rejected: g.rejects.total(),
        alarming: g.rejects.alarming(),
        clean_divergences: clean.len(),
        faults_seeded: faults.len(),
        faults_detected,
        minimized,
        panicked: false,
        proved,
        json,
    }
}

/// The clean sweep of `mc` on `g`'s grid: per requested level, up to
/// `fuzz_runs` seeded runs, stopping at the level's first divergence.
///
/// When `g` is proved (DESIGN.md §12), every level computes the fused
/// backend's function, so each run's traffic is replayed on one fused
/// build instead of on the level itself. A fused run that does not pass
/// is confirmed by a run on the level, whose own verdict is recorded; the
/// two disagreeing means the proof is broken, which a stderr warning
/// reports. An unproved program runs every level.
fn clean_sweep(
    cfg: &GenHuntConfig,
    g: &GeneratedDomino,
    mc: &MachineCode,
    task_seed: u64,
) -> Vec<Divergence> {
    let comp = &g.compiled;
    let observable = comp.observable_containers();
    let mut fused = g.proved().then(|| {
        let checker = AluChecker::new(
            &comp.pipeline_spec,
            OptLevel::Fused,
            Some(&observable),
            &comp.state_cells,
        );
        (checker, g.interpreter_spec())
    });
    let phv_length = comp.pipeline_spec.config.phv_length;
    let runs = cfg.fuzz_runs.max(1);
    let mut clean = Vec::new();
    for (li, &level) in cfg.levels.iter().enumerate() {
        for run in 0..runs {
            let seed = shard_seed(task_seed, (li * runs + run) as u64);
            let verdict = match &mut fused {
                Some((checker, reference)) => {
                    let input = TrafficGenerator::new(seed, phv_length, cfg.input_bits)
                        .trace(cfg.fuzz_phvs);
                    let fast = checker.check(reference, mc, &input).class();
                    if fast == VerdictClass::Pass || level == OptLevel::Fused {
                        fast
                    } else {
                        let own = fuzz_class(cfg, (&g.program, comp), mc, level, seed);
                        if own != fast {
                            eprintln!(
                                "warning: program {} is proved equal on every backend, but the \
                                 fused and {} backends disagree under traffic seed {seed} \
                                 (fused: {}, {}: {}); a dgen or analysis bug",
                                g.index,
                                level.key(),
                                fast.key(),
                                level.key(),
                                own.key()
                            );
                        }
                        own
                    }
                }
                None => fuzz_class(cfg, (&g.program, comp), mc, level, seed),
            };
            if verdict != VerdictClass::Pass {
                clean.push(Divergence {
                    level,
                    seed,
                    verdict,
                });
                break;
            }
        }
    }
    clean
}

/// The verdict class of one differential fuzz run of `mc` (the
/// compilation `comp` of `program`, or a fault injected into it) at
/// `level` under traffic `seed`.
fn fuzz_class(
    cfg: &GenHuntConfig,
    (program, comp): (&DominoProgram, &CompiledProgram),
    mc: &MachineCode,
    level: OptLevel,
    seed: u64,
) -> VerdictClass {
    let mut reference = CompiledSpec::new(program.clone(), comp);
    let fuzz_cfg = FuzzConfig {
        num_phvs: cfg.fuzz_phvs,
        seed,
        input_bits: cfg.input_bits,
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        minimize: false,
    };
    let report = fuzz_test(&comp.pipeline_spec, mc, level, &mut reference, &fuzz_cfg);
    report.verdict.class()
}

/// One injected fault's sweep result.
struct FaultRow {
    fault: Fault,
    /// First diverging (level, seed, class), `None` when undetected.
    divergence: Option<Divergence>,
    /// Program-level minimization result: `(reduced, sizes, checks)`.
    minimized: Option<MinimizedProgram>,
}

struct MinimizedProgram {
    source: String,
    size_before: usize,
    size_after: usize,
    checks: usize,
}

/// Hunt one injected fault across the levels; on the first divergence,
/// shrink the *program* to a minimal reproducer that still diverges with
/// the same verdict class under the same fault and traffic seed.
fn sweep_fault(
    cfg: &GenHuntConfig,
    g: &GeneratedDomino,
    task_seed: u64,
    slot: usize,
    fault: Fault,
    bad_mc: &MachineCode,
) -> FaultRow {
    let mut divergence = None;
    for (li, &level) in cfg.levels.iter().enumerate() {
        let seed = shard_seed(task_seed, 0x4644 + (slot * cfg.levels.len() + li) as u64);
        let verdict = fuzz_class(cfg, (&g.program, &g.compiled), bad_mc, level, seed);
        if verdict != VerdictClass::Pass {
            divergence = Some(Divergence {
                level,
                seed,
                verdict,
            });
            break;
        }
    }

    let minimized = divergence.as_ref().and_then(|d| {
        let mut oracle =
            |p: &DominoProgram| catch_silent(|| reproduces(cfg, g, p, &fault, d)).unwrap_or(false);
        minimize_program(&g.program, &mut oracle, cfg.minimize_checks).map(|(reduced, checks)| {
            MinimizedProgram {
                source: druzhba_progen::render_program(&reduced),
                size_before: program_size(&g.program),
                size_after: program_size(&reduced),
                checks,
            }
        })
    });

    FaultRow {
        fault,
        divergence,
        minimized,
    }
}

/// The program-level minimization oracle: recompile the candidate on the
/// generated program's grid, re-apply the fault by pair name (a
/// reduction that compiles the fault site away does not reproduce), and
/// replay the differential check under the original diverging traffic
/// seed, demanding the same verdict class.
fn reproduces(
    cfg: &GenHuntConfig,
    g: &GeneratedDomino,
    candidate: &DominoProgram,
    fault: &Fault,
    d: &Divergence,
) -> bool {
    let compiler_cfg = CompilerConfig::new(g.grid.depth, g.grid.width, g.grid.atom);
    let Ok(comp) = compile(candidate, &compiler_cfg) else {
        return false;
    };
    let Some(bad_mc) = fault.apply(&comp.machine_code) else {
        return false;
    };
    fuzz_class(cfg, (candidate, &comp), &bad_mc, d.level, d.seed) == d.verdict
}

/// Render one program's JSON row. `proved` says whether the non-fused
/// levels' clean verdicts come from the §12 proof and the fused replay
/// rather than from running those levels.
fn program_json(g: &GeneratedDomino, clean: &[Divergence], faults: &[FaultRow]) -> String {
    let divergence = |d: &Divergence, row: Object| {
        row.field("level", d.level.key())
            .field("seed", d.seed)
            .field("verdict", d.verdict.key())
    };
    let faults = faults.iter().map(|f| {
        let row = Object::new().field("fault", f.fault.json());
        let row = match &f.divergence {
            Some(d) => divergence(d, row.field("detected", true)),
            None => row.field("detected", false),
        };
        let minimized = f.minimized.as_ref().map(|m| {
            Object::new()
                .field("size_before", m.size_before)
                .field("size_after", m.size_after)
                .field("checks", m.checks)
                .field("source", &m.source)
        });
        row.field("minimized", minimized)
    });
    Object::new()
        .field("name", &g.name)
        .field("index", g.index)
        .field("grid", g.grid.to_string())
        .field("atom", g.grid.atom)
        .field("recipe", g.recipe())
        .field("rejected", g.rejects.total())
        .field("proved", g.proved())
        .field(
            "clean_divergences",
            array(clean.iter().map(|d| divergence(d, Object::new())), None),
        )
        .field("faults", array(faults, None))
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_analysis::SymbolicVerdict;

    /// The clean sweep without the proof: every level runs every run
    /// itself, stopping at its first divergence.
    fn all_levels(
        cfg: &GenHuntConfig,
        g: &GeneratedDomino,
        mc: &MachineCode,
        task_seed: u64,
    ) -> Vec<Divergence> {
        let runs = cfg.fuzz_runs.max(1);
        let mut out = Vec::new();
        for (li, &level) in cfg.levels.iter().enumerate() {
            for run in 0..runs {
                let seed = shard_seed(task_seed, (li * runs + run) as u64);
                let verdict = fuzz_class(cfg, (&g.program, &g.compiled), mc, level, seed);
                if verdict != VerdictClass::Pass {
                    out.push(Divergence {
                        level,
                        seed,
                        verdict,
                    });
                    break;
                }
            }
        }
        out
    }

    /// Every order of the four levels.
    fn level_orders() -> Vec<Vec<OptLevel>> {
        (0..256usize)
            .map(|n| [n % 4, n / 4 % 4, n / 16 % 4, n / 64])
            .filter(|ix| (0..4).all(|i| ix[i + 1..].iter().all(|&j| j != ix[i])))
            .map(|ix| ix.iter().map(|&i| OptLevel::ALL[i]).collect())
            .collect()
    }

    /// Generated programs with their behavioural fault mutants: the
    /// machine codes whose clean sweep diverges.
    fn mutants() -> Vec<(GeneratedDomino, MachineCode)> {
        let mut out = Vec::new();
        for index in 0..3 {
            let g = generate_domino_at(0x000D_122B, index);
            for (k, kind) in FaultKind::BEHAVIORAL.into_iter().enumerate() {
                let mut injector = FaultInjector::new(shard_seed(index, k as u64));
                let spec = &g.compiled.pipeline_spec;
                if let Some((bad, _)) = injector.inject(spec, &g.compiled.machine_code, kind) {
                    out.push((g.clone(), bad));
                }
            }
        }
        out
    }

    /// Sweep each mutant in every level order and demand the all-levels
    /// loop's divergences; returns how many sweeps diverged.
    fn assert_sweeps_match(proved: bool) -> usize {
        let mut diverged = 0;
        for (mut g, bad) in mutants() {
            assert!(g.proved(), "{}: generated programs prove", g.name);
            if !proved {
                g.verdict = SymbolicVerdict::Unknown { residuals: vec![] };
            }
            for levels in level_orders() {
                let cfg = GenHuntConfig {
                    levels,
                    fuzz_phvs: 12,
                    fuzz_runs: 2,
                    ..GenHuntConfig::default()
                };
                let task_seed = shard_seed(cfg.seed ^ GENH_SALT, g.index);
                let want = all_levels(&cfg, &g, &bad, task_seed);
                let got = clean_sweep(&cfg, &g, &bad, task_seed);
                assert_eq!(got, want, "{} under {:?}", g.name, cfg.levels);
                diverged += usize::from(!got.is_empty());
            }
        }
        diverged
    }

    /// A proved program's sweep runs on one fused build; a failing fused
    /// run is confirmed on its level, so an injected fault (which every
    /// backend implements alike) yields the all-levels loop's rows.
    #[test]
    fn proved_sweep_confirms_fused_failures_on_each_level() {
        assert!(assert_sweeps_match(true) > 0, "some mutant must diverge");
    }

    /// Without a proof the sweep runs every level itself.
    #[test]
    fn unproved_sweep_runs_every_level() {
        assert!(assert_sweeps_match(false) > 0, "some mutant must diverge");
    }

    /// A row says whether its clean sweep rode on the proof.
    #[test]
    fn rows_name_whether_the_sweep_was_proved() {
        let mut g = generate_domino_at(0x000D_122B, 0);
        assert!(program_json(&g, &[], &[]).contains(r#""proved": true"#));
        g.verdict = SymbolicVerdict::Unknown { residuals: vec![] };
        assert!(program_json(&g, &[], &[]).contains(r#""proved": false"#));
    }

    /// The checkpoint line carries the proved flag next to the panic flag,
    /// so a resumed campaign's summary counts proved programs it did not
    /// re-sweep.
    #[test]
    fn checkpoint_line_carries_the_proved_flag() {
        let cfg = GenHuntConfig {
            fuzz_phvs: 12,
            fuzz_runs: 1,
            ..GenHuntConfig::default()
        };
        let record = sweep_program(&cfg, 0);
        assert!(record.proved && !record.panicked);
        let line = record.encode(0).expect("every record is checkpointed");
        assert_eq!(line.split('\t').nth(9), Some("2"));
        assert_eq!(GenRecord::decode(&line), Some((0, record.clone())));
        let both = GenRecord {
            panicked: true,
            ..record
        };
        let line = both.encode(0).expect("every record is checkpointed");
        assert_eq!(line.split('\t').nth(9), Some("3"));
        assert_eq!(GenRecord::decode(&line), Some((0, both)));
        let mut fields: Vec<&str> = line.splitn(11, '\t').collect();
        fields[9] = "4";
        assert_eq!(GenRecord::decode(&fields.join("\t")), None);
    }
}
