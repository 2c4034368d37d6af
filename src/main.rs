//! The `druzhba` command-line tool: the compiler-testing workflow from a
//! shell.
//!
//! ```text
//! druzhba compile <file.domino> --depth D --width W --atom NAME [-o mc.txt]
//! druzhba compile <file.p4> [--entries FILE] [--stages N] [-o report.txt]
//! druzhba fuzz    <file.domino> --depth D --width W --atom NAME [--phvs N] [--bits B]
//!                 [--seed S] [--level L|all] [--runs R] [--jobs J] [--edit name=v,...]
//! druzhba verify  <file.domino> --depth D --width W --atom NAME [--bits B] [--packets N]
//!                 [--level L|all]
//! druzhba emit    <file.domino> --depth D --width W --atom NAME [--level 0|1|2|3]
//! druzhba emit    <file.p4> [--entries FILE] [--level 0|1|2|3]
//! druzhba hunt    [--programs a,b,c] [--mutants N] [--seed S] [--level L|all]
//!                 [--phvs N] [--bits B] [--runs R] [--jobs J] [--out FILE]
//! druzhba hunt    --generate N [--faults F] [--minimize-checks C] [--seed S]
//!                 [--level L|all] [--phvs N] [--bits B] [--jobs J] [--out FILE]
//! druzhba generate [--count N] [--seed S] [--index K] [--p4] [--json] [--out FILE]
//! druzhba analyze [<file.domino>|<file.p4>|<program>] [--json] [--out FILE]
//!                 [--depth D --width W --atom NAME] [--entries FILE]
//! druzhba p4-fuzz [<file.p4>|<p4-program>] [--entries FILE] [--lint] [--phvs N] [--bits B]
//!                 [--seed S] [--level L|all] [--runs R] [--jobs J] [--mutants N]
//!                 [--stages N] [--tables-per-stage T] [--cross-model on|off] [--out FILE]
//! druzhba p4-fuzz --generate N [...same flags...]
//! druzhba atoms
//! druzhba programs
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every subcommand
//! maps onto a library call, so the tool is a thin shell over the public
//! API.

use std::path::PathBuf;
use std::process::ExitCode;

use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba::core::diag::json_string;
use druzhba::dgen::emit::emit_pipeline;
use druzhba::dgen::mat::emit_mat_pipeline;
use druzhba::dgen::OptLevel;
use druzhba::domino::{parse_program, DominoProgram};
use druzhba::drmt::{solve, ScheduleConfig};
use druzhba::dsim::coverage::{
    greybox_fuzz_test, p4_greybox_fuzz_test, GreyboxConfig, GreyboxReport,
};
use druzhba::dsim::minimize::MinimizedCounterExample;
use druzhba::dsim::p4::{P4Target, P4Workload};
use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::snapshot;
use druzhba::dsim::testing::{
    fuzz_campaign, fuzz_run, AluTarget, CampaignConfig, FuzzConfig, Target,
};
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba::genhunt::{genhunt, GenHuntConfig};
use druzhba::hunt::{hunt, HuntConfig};
use druzhba::mutation::{HuntFault, Report};
use druzhba::p4::deps::build_dag;
use druzhba::p4::lower::RmtConfig;
use druzhba::p4hunt::{cross_model_check, p4_hunt_workloads, P4HuntConfig};
use druzhba::progen::{generate_domino_at, generate_p4, generate_p4_at};
use druzhba::programs::{p4_by_name, P4_PROGRAMS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "compile" => cmd_compile(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "emit" => cmd_emit(&args[1..]),
        "hunt" => cmd_hunt(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "analyze" => match cmd_analyze(&args[1..]) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "p4-fuzz" => cmd_p4_fuzz(&args[1..]),
        "atoms" => cmd_atoms(),
        "programs" => cmd_programs(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "druzhba — programmable switch simulation for compiler testing

USAGE:
  druzhba compile <file.domino> --depth D --width W --atom NAME [-o out.txt]
  druzhba compile <file.p4> [--entries FILE] [--stages N] [--tables-per-stage T] [-o out.txt]
                  (P4 inputs print the RMT lowering: container map, stage map,
                   bound entries, dRMT schedule)
  druzhba fuzz    <file.domino> --depth D --width W --atom NAME [--phvs N] [--bits B]
                  [--seed S] [--level 0|1|2|3|all]
                  [--edit name=v,name=-]  (apply machine-code edits, `-` removes;
                                           replays a hunt report's essential_edits)
                  [--runs R --jobs J]   (R > 1: parallel seeded campaign)
                  [--greybox E]         (coverage-guided campaign with an E-execution
                                         budget; tune with --gb-packets P
                                         --gb-max-packets N --corpus N --merge-every M
                                         --jobs J --lanes 0|1|8|16|32|64;
                                         see docs/FUZZING.md)
  druzhba verify  <file.domino> --depth D --width W --atom NAME [--bits B] [--packets N]
                  [--level 0|1|2|3|all]  (default: all backends)
                  [--max-cases N] [--lanes 1|8|16|32|64]
                  (--lanes sweeps the fused backend's SIMD lane engine, 64
                   inputs per instruction stream; raises the exhaustive wall
                   to 32-bit inputs under the --max-cases budget)
  druzhba emit    <file.domino> --depth D --width W --atom NAME [--level 0|1|2|3]
  druzhba emit    <file.p4> [--entries FILE] [--level 0|1|2|3] [--stages N]
                  (render the lowered match-action pipeline at that backend)
  druzhba hunt    [--programs a,b,c] [--mutants N] [--seed S] [--level 0|1|2|3|all]
                  [--phvs N] [--bits B] [--runs R] [--jobs J]
                  [--verify-bits B] [--verify-packets N] [--out FILE]
                  [--case-budget N]  (cap differential batches per evaluation)
                  mutation campaign over the Table 1 corpus (JSON report;
                  every mutant also carries its static-analysis flag)
  druzhba hunt    --generate N [--faults F] [--minimize-checks C] [--seed S]
                  [--level 0|1|2|3|all] [--phvs N] [--bits B] [--runs R]
                  [--jobs J] [--out FILE]
                  Gauntlet-style campaign over N freshly *generated*,
                  screen-vetted Domino programs: a clean differential sweep
                  on every backend (any divergence is a compiler bug and the
                  exit is nonzero), plus optional fault injection (--faults F
                  per program) with program-level ddmin of every divergence
  druzhba generate [--count N] [--seed S] [--index K] [--p4] [--json] [--out FILE]
                  emit generated programs without running packets; program K
                  of a seed is a pure function of (seed, K), so
                  `--seed S --index K` replays exactly the program a
                  hunt --generate report names in its replay recipe
  druzhba analyze [<file.domino>|<file.p4>|<program>] [--json] [--out FILE]
                  [--depth D --width W --atom NAME] [--entries FILE] [--symbolic]
                  abstract-interpretation static analysis: translation
                  validation across every backend, lint diagnostics, the
                  generator screen, and the greybox imprecision list; with
                  --symbolic, a term-level equivalence proof per backend;
                  no positional = the whole 17-program corpus; exit 2 on a
                  proven miscompilation (TV mismatch or symbolic refutation),
                  0 for clean or lint-only output, 1 on operational errors
  druzhba p4-fuzz [<file.p4>|<p4-program>] [--entries FILE] [--lint] [--phvs N]
                  [--bits B] [--seed S] [--level 0|1|2|3|all] [--runs R --jobs J]
                  [--stages N] [--tables-per-stage T] [--cross-model on|off]
                  differential fuzz: reference interpreter vs. the lowered RMT
                  match-action pipeline on every backend, plus a cross-model
                  dRMT-vs-RMT check; no positional = the whole P4 corpus
  druzhba p4-fuzz --greybox E [--mutate-entries on|off] [...same flags...]
                  coverage-guided differential campaign over packets and (by
                  default) table entries; same tuning flags as fuzz --greybox
                  except --lanes
  druzhba p4-fuzz --mutants N [...same flags...] [--out FILE]
                  table/action-fault mutation campaign (JSON report; nonzero
                  exit if any injected fault survives)
  druzhba p4-fuzz --generate N [...same flags...]
                  swap the corpus for N freshly generated, TV-vetted P4
                  workloads; --lint, --runs, --mutants, --greybox, and the
                  cross-model check all compose with the generated targets
  druzhba atoms      list the ALU DSL atom library
  druzhba programs   list the Table 1 benchmark programs and the P4 corpus

Each campaign mode reads only its own flags: a flag the selected mode does
not read (e.g. --corpus without --greybox, --out without --mutants) or a
repeated flag fails with exit 1.

CRASH-PROOFING (campaign modes of fuzz / hunt / p4-fuzz; docs/FUZZING.md):
  --checkpoint DIR [--every N]   snapshot campaign progress into DIR every N
                                 completed tasks (atomic write + rotation)
  --resume DIR                   restore the snapshot in DIR, re-run only what
                                 is missing, keep checkpointing there; the
                                 resumed report is byte-identical to an
                                 uninterrupted run
  --budget-secs S                wall-clock budget: expiry ends the campaign
                                 cleanly with a partial (truncated) report and
                                 exit code 0 plus a warning";

/// Minimal flag parser: positional file plus `--key value` pairs.
struct Args {
    file: Option<String>,
    flags: Vec<(String, String)>,
}

/// Flag groups several subcommands read: space-separated names without
/// dashes.
const GRID: &str = "depth width atom";
const P4_TARGET: &str = "entries stages tables-per-stage";
const RUNTIME: &str = "checkpoint every resume budget-secs";
const FUZZ: &str = "seed level phvs bits runs jobs";
const GENHUNT: &str = "generate faults minimize-checks";
/// What the `fuzz`/`p4-fuzz` modes read beyond their command's common
/// flags (see [`FuzzMode`]).
const GREYBOX_MODE: &str = "gb-packets gb-max-packets corpus merge-every jobs";
const CAMPAIGN_MODE: &str = "phvs runs jobs";
const SINGLE_MODE: &str = "phvs runs";

impl Args {
    /// Parse `cmd`'s arguments. `known` lists the flag groups `cmd` reads;
    /// any other flag is an error, so a typo never silently runs the
    /// defaults.
    fn parse(cmd: &str, known: &[&str], args: &[String]) -> Result<Self, String> {
        let mut file = None;
        let mut flags = Vec::new();
        // Flags that take no value (presence is the signal).
        const BOOLEAN_FLAGS: &[&str] = &["json", "lint", "symbolic", "p4"];
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
                if file.is_some() {
                    return Err(format!("unexpected argument `{a}`"));
                }
                file = Some(a.clone());
                continue;
            };
            if !known.iter().any(|group| group.split(' ').any(|k| k == key)) {
                return Err(format!("unknown flag `{a}` for `{cmd}`"));
            }
            if flags.iter().any(|(k, _)| k == key) {
                return Err(format!("flag `{a}` given twice for `{cmd}`"));
            }
            let value = if BOOLEAN_FLAGS.contains(&key) {
                "on"
            } else {
                it.next().ok_or_else(|| format!("flag {a} needs a value"))?
            };
            flags.push((key.to_string(), value.to_string()));
        }
        Ok(Args { file, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Fail on any flag `cmd` does not read in `mode`; `reads` lists the
    /// flag groups that mode reads. A flag another mode reads is never
    /// silently ignored.
    fn check_mode(&self, cmd: &str, mode: &str, reads: &[&str]) -> Result<(), String> {
        let read = |key: &str| reads.iter().any(|group| group.split(' ').any(|k| k == key));
        match self.flags.iter().find(|(k, _)| !read(k)) {
            Some((key, _)) => Err(format!(
                "flag `--{key}` does not apply to `{cmd}` in {mode} mode"
            )),
            None => Ok(()),
        }
    }

    /// A number flag, `None` when absent.
    fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: bad number `{v}`")))
            .transpose()
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Seeds are printed as `0x…` in failure messages, so the flag accepts
    /// both decimal and `0x`-prefixed hex — replay instructions must paste
    /// back verbatim.
    fn get_seed(&self, key: &str, default: u64) -> Result<u64, String> {
        let Some(raw) = self.get(key) else {
            return Ok(default);
        };
        let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed.map_err(|_| format!("--{key}: bad seed `{raw}` (decimal or 0x-hex)"))
    }

    /// Worker threads: `--jobs J`, or `default` when absent or 0.
    fn get_workers(&self, default: usize) -> Result<usize, String> {
        match self.get_usize("jobs", 0)? {
            0 => Ok(default),
            jobs => Ok(jobs),
        }
    }

    /// An `on|off` switch (`default` when absent).
    fn get_on_off(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("--{key} must be on|off, got `{other}`")),
        }
    }

    /// Optimization levels: a single level, or `all` for every backend.
    fn get_levels(&self, key: &str, default: &[OptLevel]) -> Result<Vec<OptLevel>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(raw) => parse_levels(raw),
        }
    }
}

fn parse_level(tok: &str) -> Result<OptLevel, String> {
    match tok {
        "0" | "unoptimized" => Ok(OptLevel::Unoptimized),
        "1" | "scc" => Ok(OptLevel::Scc),
        "2" | "scc_inline" => Ok(OptLevel::SccInline),
        "3" | "fused" => Ok(OptLevel::Fused),
        other => Err(format!(
            "--level must be 0|1|2|3 (or unoptimized|scc|scc_inline|fused) or `all`, got `{other}`"
        )),
    }
}

fn parse_levels(raw: &str) -> Result<Vec<OptLevel>, String> {
    if raw == "all" {
        return Ok(OptLevel::ALL.to_vec());
    }
    raw.split(',').map(|tok| parse_level(tok.trim())).collect()
}

/// Apply `--edit name=value,name=-` machine-code edits (a `-` value
/// removes the pair). This is how a hunt report's `essential_edits`
/// replay from the CLI: the compiler regenerates the known-good program,
/// and the edits re-create the mutant the campaign diverged on.
fn apply_edits(mc: &mut druzhba::core::MachineCode, raw: &str) -> Result<(), String> {
    for tok in raw.split(',') {
        let tok = tok.trim();
        let Some((name, value)) = tok.split_once('=') else {
            return Err(format!(
                "--edit: expected `name=value` or `name=-`, got `{tok}`"
            ));
        };
        let (name, value) = (name.trim(), value.trim());
        if !mc.contains(name) {
            return Err(format!("--edit: `{name}` is not a machine-code pair"));
        }
        if value == "-" {
            mc.remove(name);
        } else {
            let v: u32 = value
                .parse()
                .map_err(|_| format!("--edit: bad value `{value}` for `{name}`"))?;
            mc.set(name.to_string(), v);
        }
    }
    Ok(())
}

/// Print a minimized counterexample the way a bug report wants it: the
/// reduced packet sequence plus (for hunts) the essential machine-code
/// delta.
fn print_minimized(mce: &MinimizedCounterExample) {
    println!(
        "minimized counterexample: {} of {} packet(s), {} differential check(s)",
        mce.packets(),
        mce.original_packets,
        mce.checks
    );
    for (i, phv) in mce.input.phvs.iter().enumerate() {
        println!("  packet {i}: {phv}");
    }
    if let Some(edits) = &mce.essential_edits {
        for e in edits {
            println!(
                "  essential edit: {} (good {:?} -> bad {:?})",
                e.name, e.good, e.bad
            );
        }
    }
}

/// Crash-proofing flags shared by the campaign subcommands
/// (docs/FUZZING.md "Checkpoint, resume, and budgets"):
/// `--checkpoint DIR [--every N]` snapshots progress into DIR,
/// `--resume DIR` restores a prior snapshot and keeps checkpointing
/// there, `--budget-secs S` bounds the campaign's wall clock.
fn runtime_options(args: &Args) -> Result<RuntimeOptions, String> {
    let defaults = RuntimeOptions::default();
    if args.get("checkpoint").is_some() && args.get("resume").is_some() {
        return Err(
            "--checkpoint and --resume are exclusive (--resume keeps checkpointing \
             into its directory)"
                .into(),
        );
    }
    let (checkpoint_dir, resume) = match (args.get("resume"), args.get("checkpoint")) {
        (Some(dir), _) => (Some(PathBuf::from(dir)), true),
        (None, Some(dir)) => (Some(PathBuf::from(dir)), false),
        (None, None) => (None, false),
    };
    Ok(RuntimeOptions {
        checkpoint_dir,
        checkpoint_every: args.get_usize("every", defaults.checkpoint_every)?,
        resume,
        budget_secs: args.get_opt("budget-secs")?,
    })
}

/// Write `what` to `path` (`--out`/`-o`), or to stdout without one. The
/// file is written atomically (tmp + rename): a crash mid-write never
/// leaves a truncated file where a previous good report stood.
fn write_out(path: Option<&str>, what: &str, contents: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            snapshot::write_atomic(std::path::Path::new(path), contents)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("{what} written to {path}");
        }
        None => print!("{contents}"),
    }
    Ok(())
}

/// The exit-0-with-warning contract for budget-truncated campaigns: a
/// partial report is a success with a loud warning, not a failure.
fn warn_truncated(what: &str, truncated: usize) {
    if truncated > 0 {
        eprintln!(
            "warning: {what}: wall-clock budget expired with {truncated} task(s) \
             unevaluated; the report is partial (marked truncated)"
        );
    }
}

/// Build the greybox configuration from the flags shared by
/// `fuzz --greybox` and `p4-fuzz --greybox` (`--gb-packets`, `--corpus`,
/// `--merge-every`, `--jobs`; defaults in [`GreyboxConfig`]).
fn greybox_config(
    args: &Args,
    executions: usize,
    seed: u64,
    bits: u32,
) -> Result<GreyboxConfig, String> {
    let defaults = GreyboxConfig::default();
    let lanes = args.get_usize("lanes", defaults.lanes)?;
    if lanes != 0 && !druzhba::dgen::lanes::supported_width(lanes) {
        return Err(format!(
            "--lanes {lanes} is not a supported width; pick one of 1, 8, 16, 32, 64 \
             (or 0 for the scalar oracle)"
        ));
    }
    Ok(GreyboxConfig {
        executions,
        packets: args.get_usize("gb-packets", defaults.packets)?,
        max_packets: args.get_usize("gb-max-packets", defaults.max_packets)?,
        seed,
        input_bits: bits,
        corpus_max: args.get_usize("corpus", defaults.corpus_max)?,
        workers: args.get_workers(defaults.workers)?,
        merge_every: args.get_usize("merge-every", defaults.merge_every)?,
        initial_seeds: defaults.initial_seeds,
        minimize: true,
        lanes,
        runtime: runtime_options(args)?,
    })
}

/// One-line greybox campaign summary (the JSON-schema fields, human
/// formatted): executions, edges, corpus, and where the first divergence
/// landed.
fn print_greybox(
    label: &str,
    level: OptLevel,
    cfg: &GreyboxConfig,
    report: &druzhba::dsim::GreyboxReport,
) {
    let outcome = match report.first_divergence {
        Some(at) => format!("first divergence at execution {at}"),
        None if report.truncated => "no divergence (budget-truncated)".to_string(),
        None => "no divergence".to_string(),
    };
    if report.truncated {
        eprintln!(
            "warning: greybox[{label}]: wall-clock budget expired after {} of {} \
             executions; the campaign is partial",
            report.executions, cfg.executions
        );
    }
    println!(
        "greybox[{label}:{}]: {} executions x {} packets on {} workers \
         ({} merge rounds) -> {} edges covered, corpus {}, {outcome}",
        level.key(),
        report.executions,
        cfg.packets,
        cfg.workers,
        report.rounds,
        report.edges_covered,
        report.corpus_size,
    );
}

/// The replay recipe for a greybox divergence: the campaign is a pure
/// function of (seed, jobs), so re-running with both reproduces it
/// byte-identically. `mode` carries campaign-mode flags that change the
/// search space (e.g. `--mutate-entries off`).
fn greybox_replay(cfg: &GreyboxConfig, mode: &str) -> String {
    let cap = if cfg.max_packets == 0 {
        String::new()
    } else {
        format!(" --gb-max-packets {}", cfg.max_packets)
    };
    let lanes = if cfg.lanes == 0 {
        String::new()
    } else {
        format!(" --lanes {}", cfg.lanes)
    };
    format!(
        "--greybox {} --seed {:#x} --jobs {} --gb-packets {} --corpus {} --merge-every {}{cap}{lanes}{mode}",
        cfg.executions, cfg.seed, cfg.workers, cfg.packets, cfg.corpus_max, cfg.merge_every
    )
}

/// The differential modes `fuzz` and `p4-fuzz` share, selected by flags:
/// a greybox campaign (`--greybox E`), a seeded campaign (`--runs R`,
/// R > 1) or one seeded run.
enum FuzzMode {
    Greybox(GreyboxConfig),
    Campaign(CampaignConfig, RuntimeOptions),
    Single(FuzzConfig),
}

impl FuzzMode {
    /// Select the mode and reject every flag it does not read. `common`
    /// lists the groups each mode of `cmd` reads; `greybox` and `seeded`
    /// are the command's own additions to the greybox and seeded modes.
    fn parse(
        cmd: &str,
        args: &Args,
        common: &[&str],
        (greybox, seeded): (&str, &str),
        (phvs, bits): (usize, u32),
    ) -> Result<Self, String> {
        let seed = args.get_seed("seed", FuzzConfig::default().seed)?;
        let bits = args.get_u32("bits", bits)?;
        let executions = args.get_usize("greybox", 0)?;
        if executions > 0 {
            args.check_mode(
                cmd,
                "greybox",
                &[common, &[GREYBOX_MODE, RUNTIME, greybox]].concat(),
            )?;
            return Ok(FuzzMode::Greybox(greybox_config(
                args, executions, seed, bits,
            )?));
        }
        let runs = args.get_usize("runs", 1)?;
        if args.get_usize("jobs", 0)? > 0 && runs <= 1 {
            return Err(
                "--jobs shards a multi-run campaign; pass --runs R (R > 1) or --greybox E with it"
                    .into(),
            );
        }
        let base = FuzzConfig {
            num_phvs: args.get_usize("phvs", phvs)?,
            seed,
            input_bits: bits,
            ..FuzzConfig::default()
        };
        if runs <= 1 {
            args.check_mode(
                cmd,
                "single-run",
                &[common, &[SINGLE_MODE, seeded]].concat(),
            )?;
            return Ok(FuzzMode::Single(base));
        }
        args.check_mode(
            cmd,
            "campaign",
            &[common, &[CAMPAIGN_MODE, RUNTIME, seeded]].concat(),
        )?;
        let workers = args.get_workers(CampaignConfig::default().workers)?;
        let campaign = CampaignConfig {
            runs,
            workers,
            base,
        };
        Ok(FuzzMode::Campaign(campaign, runtime_options(args)?))
    }

    /// The seeded run shape (`None` in greybox mode).
    fn seeded(&self) -> Option<&FuzzConfig> {
        match self {
            FuzzMode::Greybox(_) => None,
            FuzzMode::Campaign(campaign, _) => Some(&campaign.base),
            FuzzMode::Single(cfg) => Some(cfg),
        }
    }

    /// Run this mode on one target at `level`, print its outcome, and turn
    /// a divergence into an error carrying the replay recipe. `p4` names
    /// the P4 program (`None` on the ALU stack); `replay` is appended to
    /// every recipe and `greybox_mode` to the greybox flags; `greybox`
    /// runs the target's greybox campaign.
    fn run<R, T: Target<R>>(
        &self,
        (p4, replay, greybox_mode): (Option<&str>, &str, &str),
        level: OptLevel,
        target: &T,
        make_reference: impl Fn() -> R + Sync,
        greybox: impl FnOnce(&GreyboxConfig) -> GreyboxReport,
    ) -> Result<(), String> {
        let lv = level.key();
        let tag = |alu: &str| p4.map_or(format!("{alu}[{lv}]"), |n| format!("p4-fuzz[{n}:{lv}]"));
        let unit = if p4.is_some() { "packets" } else { "PHVs" };
        let found = |mode: &str| match p4 {
            None => format!("{mode}fuzzing found a divergence at level {lv}"),
            Some(n) => format!("p4 {mode}fuzzing found a divergence in `{n}` at level {lv}"),
        };
        let (failure, cfg, verdict) = match self {
            FuzzMode::Greybox(cfg) => {
                let report = greybox(cfg);
                print_greybox(p4.unwrap_or("fuzz"), level, cfg, &report);
                if report.passed() {
                    return Ok(());
                }
                if let Some(mce) = &report.minimized {
                    print_minimized(mce);
                }
                if let Some(entries) = &report.diverging_entries {
                    eprintln!("diverging entry set ({} entries):", entries.len());
                    for e in entries {
                        eprintln!("  {e:?}");
                    }
                }
                return Err(format!(
                    "{} (replay with `{} --level {lv} --bits {}{replay}`): {:?}",
                    found("greybox "),
                    greybox_replay(cfg, greybox_mode),
                    cfg.input_bits,
                    report.verdict
                ));
            }
            FuzzMode::Campaign(campaign, runtime) => {
                let report = fuzz_campaign(target, make_reference, campaign, runtime);
                let (passed, incompatible, mismatched, panicked) = report.counts();
                let cfg = &campaign.base;
                let workers = match p4 {
                    None => format!(" on {} workers", campaign.workers),
                    Some(_) => String::new(),
                };
                println!(
                    "{}: {} runs x {} {unit} at {}-bit inputs{workers} -> {passed} passed, \
                     {incompatible} incompatible, {mismatched} mismatched, {panicked} panicked",
                    tag("campaign"),
                    campaign.runs,
                    cfg.num_phvs,
                    cfg.input_bits,
                );
                warn_truncated(p4.map_or("fuzz campaign", |_| "p4-fuzz"), report.truncated);
                let Some(failure) = report.first_failure() else {
                    return Ok(());
                };
                let verdict = format!(": {:?}", failure.verdict);
                (failure.clone(), cfg, verdict)
            }
            FuzzMode::Single(cfg) => {
                let report = fuzz_run(target, &mut make_reference(), cfg);
                println!(
                    "{}: {} {unit} at {}-bit inputs (seed {:#x}) -> {:?}",
                    tag("fuzz"),
                    report.phvs_tested,
                    cfg.input_bits,
                    report.seed,
                    report.verdict
                );
                if report.passed() {
                    return Ok(());
                }
                (report, cfg, String::new())
            }
        };
        if let Some(mce) = &failure.minimized {
            print_minimized(mce);
        }
        Err(format!(
            "{} (replay with `--seed {:#x} --level {lv} --phvs {} --bits {}{replay}`){verdict}",
            found(""),
            failure.seed,
            cfg.num_phvs,
            cfg.input_bits,
        ))
    }
}

fn load(args: &Args) -> Result<(DominoProgram, CompilerConfig), String> {
    let file = args.file.as_deref().ok_or("missing <file.domino>")?;
    if is_p4_path(file) {
        return Err(format!(
            "`{file}` is a P4 program; use `druzhba p4-fuzz` for differential \
             testing (compile/emit accept .p4 directly)"
        ));
    }
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let program = parse_program(&source).map_err(|e| e.to_string())?;
    let depth = args.get_usize("depth", 4)?;
    let width = args.get_usize("width", 2)?;
    let atom = args.get("atom").unwrap_or("pred_raw");
    Ok((program, CompilerConfig::new(depth, width, atom)))
}

fn is_p4_path(file: &str) -> bool {
    std::path::Path::new(file)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("p4"))
}

/// The RMT grid flags shared by the P4 paths.
fn rmt_config(args: &Args) -> Result<RmtConfig, String> {
    let defaults = RmtConfig::default();
    Ok(RmtConfig {
        max_stages: args.get_usize("stages", defaults.max_stages)?,
        tables_per_stage: args.get_usize("tables-per-stage", defaults.tables_per_stage)?,
    })
}

/// Load one P4 target: a `.p4` file (entries from `--entries` or the
/// sibling `.entries` file) or a corpus program name.
fn load_p4_target(args: &Args, positional: &str) -> Result<(String, P4Workload), String> {
    let cfg = rmt_config(args)?;
    if is_p4_path(positional) {
        let source = std::fs::read_to_string(positional)
            .map_err(|e| format!("cannot read `{positional}`: {e}"))?;
        let entries_path = match args.get("entries") {
            Some(path) => std::path::PathBuf::from(path),
            None => std::path::Path::new(positional).with_extension("entries"),
        };
        let entries_text = std::fs::read_to_string(&entries_path).map_err(|e| {
            format!(
                "cannot read table entries `{}`: {e} (pass --entries FILE)",
                entries_path.display()
            )
        })?;
        let name = std::path::Path::new(positional)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| positional.to_string());
        let workload =
            P4Workload::parse(&source, &entries_text, &cfg).map_err(|e| e.to_string())?;
        Ok((name, workload))
    } else {
        let def = p4_by_name(positional).ok_or_else(|| {
            format!("`{positional}` is neither a .p4 file nor a P4 corpus program")
        })?;
        let workload =
            P4Workload::parse(def.source, def.entries, &cfg).map_err(|e| e.to_string())?;
        Ok((def.name.to_string(), workload))
    }
}

/// All selected P4 targets: the positional one, or the whole corpus.
fn load_p4_targets(args: &Args) -> Result<Vec<(String, P4Workload)>, String> {
    match args.file.as_deref() {
        Some(positional) => Ok(vec![load_p4_target(args, positional)?]),
        None => {
            let cfg = rmt_config(args)?;
            P4_PROGRAMS
                .iter()
                .map(|def| {
                    P4Workload::parse(def.source, def.entries, &cfg)
                        .map(|w| (def.name.to_string(), w))
                        .map_err(|e| format!("{}: {e}", def.name))
                })
                .collect()
        }
    }
}

/// The `compile` report for a P4 input: the RMT lowering as text.
fn p4_lowering_report(name: &str, workload: &P4Workload) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let layout = &workload.lowering.layout;
    let _ = writeln!(s, "# p4 lowering: {name}");
    for (i, (f, w)) in layout.fields().iter().enumerate() {
        let _ = writeln!(s, "container[{i}] = {f} ({w} bits)");
    }
    let _ = writeln!(s, "container[{}] = <drop flag>", layout.drop_flag());
    for (stage, tables) in workload.lowering.stages.iter().enumerate() {
        for &t in tables {
            let info = &workload.hlir.tables[t];
            let decl = workload.hlir.program.table(&info.name).expect("resolved");
            let entries = workload
                .entries
                .iter()
                .filter(|e| e.table == info.name)
                .count();
            let default = decl
                .default_action
                .as_deref()
                .map(|d| format!(", default {d}"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "stage {stage}: table {} ({entries} entr{}{default})",
                info.name,
                if entries == 1 { "y" } else { "ies" }
            );
        }
    }
    let dag = build_dag(&workload.hlir);
    match solve(&dag, &ScheduleConfig::default()) {
        Ok(schedule) => {
            let _ = writeln!(
                s,
                "drmt schedule: makespan {} (match slots {:?}, action slots {:?})",
                schedule.makespan(),
                schedule.match_slot,
                schedule.action_slot
            );
        }
        Err(e) => {
            let _ = writeln!(s, "drmt schedule: unschedulable ({e})");
        }
    }
    s
}

fn cmd_compile_p4(args: &Args, file: &str) -> Result<(), String> {
    let (name, workload) = load_p4_target(args, file)?;
    eprintln!(
        "lowered: {} field container(s) + drop flag, {} stage(s), {} table(s), {} entr(ies)",
        workload.lowering.layout.fields().len(),
        workload.lowering.num_stages(),
        workload.hlir.tables.len(),
        workload.entries.len()
    );
    let report = p4_lowering_report(&name, &workload);
    write_out(args.get("o"), "lowering report", &report)
}

fn cmd_p4_fuzz(rest: &[String]) -> Result<(), String> {
    let common = [P4_TARGET, "generate lint seed level bits greybox mutants"];
    let mutants_mode = "mutants phvs runs jobs case-budget out";
    let own = "mutate-entries cross-model";
    let known = [&common[..], &[GREYBOX_MODE, RUNTIME, mutants_mode, own]].concat();
    let args = Args::parse("p4-fuzz", &known, rest)?;
    let mutants = args.get_usize("mutants", 0)?;
    if args.get_usize("greybox", 0)? > 0 && mutants > 0 {
        return Err("--greybox and --mutants are separate campaign modes; pick one".into());
    }
    let mode = if mutants > 0 {
        args.check_mode(
            "p4-fuzz",
            "mutants",
            &[&common[..], &[mutants_mode, RUNTIME]].concat(),
        )?;
        None
    } else {
        let extra = ("mutate-entries", "cross-model");
        Some(FuzzMode::parse(
            "p4-fuzz",
            &args,
            &common,
            extra,
            (10_000, 16),
        )?)
    };
    let seed = args.get_seed("seed", FuzzConfig::default().seed)?;
    // `--generate N` swaps the corpus/file targets for N freshly
    // generated, TV-vetted P4 workloads; every downstream mode (--lint,
    // plain runs, --mutants, --greybox, cross-model) composes unchanged.
    let generate = args.get_usize("generate", 0)?;
    let targets = if generate > 0 {
        if args.file.is_some() {
            return Err(
                "--generate replaces the corpus/file targets; drop the positional argument".into(),
            );
        }
        let generated = generate_p4(seed, generate as u64);
        let rejected: u64 = generated.iter().map(|g| u64::from(g.rejects.total())).sum();
        eprintln!(
            "p4-fuzz --generate: {} workload(s) generated from seed {seed:#x} \
             ({rejected} candidate(s) rejected by the validity screen)",
            generated.len()
        );
        generated
            .into_iter()
            .map(|g| (g.name, g.workload))
            .collect()
    } else {
        load_p4_targets(&args)?
    };
    if args.get("lint").is_some() {
        // Static pre-pass: lint every target and translation-validate the
        // lowered program before spending any fuzz budget.
        let mut tv_mismatches = 0usize;
        for (name, workload) in &targets {
            let analysis = druzhba::analyze::analyze_p4_workload(name, workload, false)?;
            for d in &analysis.diagnostics {
                eprintln!("lint: {d}");
            }
            for m in &analysis.tv_mismatches {
                eprintln!("lint: {name}: TV MISMATCH: {m}");
                tv_mismatches += 1;
            }
            eprintln!(
                "lint[{name}]: {} diagnostic(s), {} TV mismatch(es)",
                analysis.diagnostics.len(),
                analysis.tv_mismatches.len()
            );
        }
        if tv_mismatches > 0 {
            return Err(format!(
                "p4-fuzz --lint: {tv_mismatches} translation-validation mismatch(es) — \
                 the lowered pipeline provably disagrees with the P4 semantics"
            ));
        }
    }
    let levels = args.get_levels("level", &OptLevel::ALL)?;
    let bits = args.get_u32("bits", 16)?;

    let Some(mode) = mode else {
        // Mutation campaign: seed table/action faults, require detection.
        let defaults = P4HuntConfig::default();
        let cfg = P4HuntConfig {
            programs: Vec::new(),
            mutants_per_class: mutants,
            seed,
            levels,
            fuzz_phvs: args.get_usize("phvs", 2_000)?,
            fuzz_runs: args.get_usize("runs", 2)?,
            input_bits: bits,
            workers: args.get_workers(defaults.workers)?,
            case_budget: args.get_opt("case-budget")?,
            runtime: runtime_options(&args)?,
        };
        let report = p4_hunt_workloads(&cfg, &targets);
        return finish_hunt(&report, report.to_json(), cfg.levels.len(), args.get("out"));
    };

    // Greybox mode: both sides run the same (mutated) entries unless
    // --mutate-entries off pins the corpus entry set (DESIGN.md §9).
    let mutate_entries = args.get_on_off("mutate-entries", true)?;
    let greybox_mode = if mutate_entries {
        ""
    } else {
        " --mutate-entries off"
    };
    let cross_model = args.get_on_off("cross-model", true)?;
    for (name, workload) in &targets {
        for &level in &levels {
            let target = P4Target {
                workload,
                entries: &workload.entries,
                level,
            };
            mode.run(
                (Some(name.as_str()), "", greybox_mode),
                level,
                &target,
                || (),
                |cfg| p4_greybox_fuzz_test(workload, &workload.entries, level, mutate_entries, cfg),
            )?;
        }
        if let (true, Some(cfg)) = (cross_model, mode.seeded()) {
            let packets = cfg.num_phvs.min(1_000);
            let xm = cross_model_check(workload, seed, packets, bits)?;
            match &xm.drmt_skipped {
                None => println!(
                    "cross-model[{name}]: interpreter == RMT(fused) == dRMT over {} packets \
                     (dRMT makespan {}, RMT stages {})",
                    xm.packets, xm.drmt_makespan, xm.rmt_stages
                ),
                Some(reason) => println!(
                    "cross-model[{name}]: interpreter == RMT(fused) over {} packets \
                     (RMT stages {}; dRMT leg skipped: {reason})",
                    xm.packets, xm.rmt_stages
                ),
            }
        }
    }
    Ok(())
}

fn compile_from(args: &Args) -> Result<(DominoProgram, CompiledProgram), String> {
    let (program, cfg) = load(args)?;
    let compiled = compile(&program, &cfg).map_err(|e| e.to_string())?;
    Ok((program, compiled))
}

fn report(compiled: &CompiledProgram) {
    let r = &compiled.report;
    eprintln!(
        "compiled: {} stateful + {} stateless ALUs, {} stage(s), {} PHV containers, \
         {} machine code pairs",
        r.stateful_used,
        r.stateless_used,
        r.stages_used,
        r.phv_length,
        compiled.machine_code.len()
    );
    eprintln!("inputs : {:?}", compiled.input_fields);
    eprintln!("outputs: {:?}", compiled.output_fields);
}

fn cmd_compile(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("compile", &[GRID, P4_TARGET, "o"], rest)?;
    if let Some(file) = args.file.clone().filter(|f| is_p4_path(f)) {
        return cmd_compile_p4(&args, &file);
    }
    let (_, compiled) = compile_from(&args)?;
    report(&compiled);
    write_out(
        args.get("o"),
        "machine code",
        &compiled.machine_code.to_text(),
    )
}

fn cmd_fuzz(rest: &[String]) -> Result<(), String> {
    let common = [GRID, "edit seed level bits greybox"];
    let known = [
        &common[..],
        &[GREYBOX_MODE, CAMPAIGN_MODE, RUNTIME, "lanes"],
    ]
    .concat();
    let args = Args::parse("fuzz", &known, rest)?;
    let mode = FuzzMode::parse("fuzz", &args, &common, ("lanes", ""), (50_000, 10))?;
    let (program, compiled) = compile_from(&args)?;
    report(&compiled);
    let levels = args.get_levels("level", &[OptLevel::Fused])?;
    let mut machine_code = compiled.machine_code.clone();
    if let Some(raw) = args.get("edit") {
        apply_edits(&mut machine_code, raw)?;
        eprintln!("applied machine-code edit(s): {raw}");
    }
    let replay = args
        .get("edit")
        .map(|raw| format!(" --edit '{raw}'"))
        .unwrap_or_default();
    let observable = compiled.observable_containers();
    let make_spec = || CompiledSpec::new(program.clone(), &compiled);
    for &level in &levels {
        let target = AluTarget {
            pipeline_spec: &compiled.pipeline_spec,
            mc: &machine_code,
            opt: level,
            observable: Some(&observable),
            state_cells: &compiled.state_cells,
        };
        mode.run((None, &replay, ""), level, &target, make_spec, |cfg| {
            greybox_fuzz_test(
                target.pipeline_spec,
                target.mc,
                level,
                make_spec,
                target.observable,
                target.state_cells,
                cfg,
            )
        })?;
    }
    Ok(())
}

fn cmd_verify(rest: &[String]) -> Result<(), String> {
    let own = "bits packets max-cases lanes level";
    let args = Args::parse("verify", &[GRID, own], rest)?;
    let (program, compiled) = compile_from(&args)?;
    report(&compiled);
    let bits = args.get_u32("bits", 2)?;
    let packets = args.get_usize("packets", 3)?;
    let max_cases = args.get_usize("max-cases", 10_000_000)? as u64;
    let lanes = args.get_usize("lanes", 0)?;
    if lanes != 0 && !druzhba::dgen::lanes::supported_width(lanes) {
        return Err(format!(
            "--lanes {lanes} is not a supported width; pick one of 1, 8, 16, 32, 64 \
             (or 0 to enumerate with the scalar backend)"
        ));
    }
    // Default: cover every backend — a divergence between levels is
    // exactly the compiler-testing signal this tool exists for. Lane
    // sweeping lowers the fused register program, so --lanes narrows the
    // default to the fused level (and rejects an explicit conflict).
    let default_levels: &[OptLevel] = if lanes > 0 {
        &[OptLevel::Fused]
    } else {
        &OptLevel::ALL
    };
    let levels = args.get_levels("level", default_levels)?;
    if lanes > 0 && levels.iter().any(|&l| l != OptLevel::Fused) {
        return Err(
            "--lanes sweeps the fused backend's lane engine; combine it only with \
             --level fused (or 3)"
                .into(),
        );
    }
    for &level in &levels {
        let mut spec = CompiledSpec::new(program.clone(), &compiled);
        let outcome = verify_bounded(
            &compiled.pipeline_spec,
            &compiled.machine_code,
            level,
            &mut spec,
            &VerifyConfig {
                input_bits: bits,
                packets,
                relevant_containers: (0..compiled.input_fields.len()).collect(),
                observable: Some(compiled.observable_containers()),
                state_cells: compiled.state_cells.clone(),
                max_cases,
                lanes,
            },
        )
        .map_err(|e| e.to_string())?;
        match outcome {
            VerifyOutcome::Verified { cases } => {
                let mode = if lanes > 0 {
                    format!(" ({lanes}-lane sweep)")
                } else {
                    String::new()
                };
                println!(
                    "verified[{}]: all {cases} input trace(s) of {packets} packet(s) at \
                     {bits}-bit inputs agree with the specification{mode}",
                    level.key()
                );
            }
            VerifyOutcome::CounterExample {
                input,
                mismatch,
                minimized,
            } => {
                println!("counterexample[{}]: {mismatch}", level.key());
                for (i, phv) in input.phvs.iter().enumerate() {
                    println!("  packet {i}: {phv}");
                }
                if let Some(mce) = &minimized {
                    print_minimized(mce);
                }
                return Err(format!(
                    "verification found a divergence at level {}",
                    level.key()
                ));
            }
        }
    }
    Ok(())
}

/// `druzhba generate`: emit generated programs without running any
/// packets — the inspection/replay face of the Gauntlet-style campaign.
/// Program `k` of a seed is a pure function of `(seed, k)`, so the
/// `--index` flag replays exactly the program a hunt report names.
fn cmd_generate(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("generate", &["count seed index p4 json out"], rest)?;
    if let Some(file) = &args.file {
        return Err(format!(
            "generate takes no positional argument (got `{file}`); \
             programs are addressed by --seed and --index"
        ));
    }
    let seed = args.get_seed("seed", GenHuntConfig::default().seed)?;
    let start = args.get_usize("index", 0)? as u64;
    let count = args.get_usize("count", 1)? as u64;
    if count == 0 {
        return Err("--count needs a nonzero program count".into());
    }
    let json = args.get("json").is_some();
    let mut out = String::new();
    let rejected: u64;
    if args.get("p4").is_some() {
        let programs: Vec<_> = (start..start + count)
            .map(|i| generate_p4_at(seed, i))
            .collect();
        rejected = programs.iter().map(|g| u64::from(g.rejects.total())).sum();
        if json {
            out.push_str("{\n  \"kind\": \"p4\",\n  \"programs\": [\n");
            let rows: Vec<String> = programs
                .iter()
                .map(|g| {
                    format!(
                        "    {{\"name\": \"{}\", \"index\": {}, \"rejected\": {}, \
                         \"recipe\": {}, \"source\": {}, \"entries\": {}}}",
                        g.name,
                        g.index,
                        g.rejects.total(),
                        json_string(&g.recipe()),
                        json_string(&g.source),
                        json_string(&g.entries)
                    )
                })
                .collect();
            out.push_str(&rows.join(",\n"));
            out.push_str("\n  ]\n}\n");
        } else {
            for g in &programs {
                use std::fmt::Write as _;
                let _ = writeln!(out, "// {} (replay: {})", g.name, g.recipe());
                out.push_str(&g.source);
                let _ = writeln!(out, "// entries for {}:", g.name);
                for line in g.entries.lines() {
                    let _ = writeln!(out, "//   {line}");
                }
            }
        }
    } else {
        let programs: Vec<_> = (start..start + count)
            .map(|i| generate_domino_at(seed, i))
            .collect();
        rejected = programs.iter().map(|g| u64::from(g.rejects.total())).sum();
        if json {
            out.push_str("{\n  \"kind\": \"domino\",\n  \"programs\": [\n");
            let rows: Vec<String> = programs
                .iter()
                .map(|g| {
                    format!(
                        "    {{\"name\": \"{}\", \"index\": {}, \"grid\": \"{}\", \
                         \"atom\": \"{}\", \"rejected\": {}, \"recipe\": {}, \
                         \"source\": {}}}",
                        g.name,
                        g.index,
                        g.grid,
                        g.grid.atom,
                        g.rejects.total(),
                        json_string(&g.recipe()),
                        json_string(&g.source)
                    )
                })
                .collect();
            out.push_str(&rows.join(",\n"));
            out.push_str("\n  ]\n}\n");
        } else {
            for g in &programs {
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "// {}: --depth {} --width {} --atom {} (replay: {})",
                    g.name,
                    g.grid.depth,
                    g.grid.width,
                    g.grid.atom,
                    g.recipe()
                );
                out.push_str(&g.source);
            }
        }
    }
    eprintln!(
        "generate: {count} {} program(s) from seed {seed:#x} starting at index {start} \
         ({rejected} candidate(s) rejected by the validity screen)",
        if args.get("p4").is_some() {
            "p4"
        } else {
            "domino"
        }
    );
    write_out(args.get("out"), "generated program(s)", &out)
}

/// `druzhba hunt --generate N`: the Gauntlet-style generated-program
/// campaign (clean differential sweep, optional fault injection with
/// program-level minimization).
fn cmd_genhunt(args: &Args, count: u64) -> Result<(), String> {
    if args.get("programs").is_some() || args.get("mutants").is_some() {
        return Err(
            "--generate sweeps freshly generated programs; --programs/--mutants \
             belong to the corpus hunt (drop --generate to use them)"
                .into(),
        );
    }
    args.check_mode("hunt", "generate", &[RUNTIME, FUZZ, GENHUNT, "out"])?;
    let defaults = GenHuntConfig::default();
    let cfg = GenHuntConfig {
        count,
        seed: args.get_seed("seed", defaults.seed)?,
        levels: args.get_levels("level", &defaults.levels)?,
        fuzz_phvs: args.get_usize("phvs", defaults.fuzz_phvs)?,
        fuzz_runs: args.get_usize("runs", defaults.fuzz_runs)?,
        input_bits: args.get_u32("bits", defaults.input_bits)?,
        faults_per_program: args.get_usize("faults", defaults.faults_per_program)?,
        minimize_checks: args.get_usize("minimize-checks", defaults.minimize_checks)?,
        workers: args.get_workers(defaults.workers)?,
        runtime: runtime_options(args)?,
    };
    let report = genhunt(&cfg)?;

    eprintln!(
        "hunt --generate: {} program(s) swept over {} backend(s), {} candidate(s) \
         rejected by the validity screen, {} clean divergence(s)",
        report.programs(),
        cfg.levels.len(),
        report.rejected_candidates(),
        report.clean_divergences()
    );
    if report.faults_seeded() > 0 {
        eprintln!(
            "hunt --generate: {}/{} injected fault(s) detected ({:.1}%), {} minimized \
             to program-level reproducers",
            report.faults_detected(),
            report.faults_seeded(),
            report.detection_rate() * 100.0,
            report.minimized()
        );
    }
    warn_truncated("hunt --generate", report.truncated);
    write_out(args.get("out"), "hunt --generate report", &report.to_json())?;
    if report.panics() > 0 {
        return Err(format!(
            "hunt --generate: {} program sweep(s) died to a worker panic",
            report.panics()
        ));
    }
    if report.clean_divergences() > 0 {
        return Err(format!(
            "hunt --generate: {} clean-sweep divergence(s) on freshly generated, \
             statically vetted programs — each one is a genuine compiler bug \
             (replay recipes are in the report's programs[] rows)",
            report.clean_divergences()
        ));
    }
    if report.alarming_rejects() > 0 {
        return Err(format!(
            "hunt --generate: {} candidate(s) rejected because translation validation \
             mismatched or the symbolic pass refuted their fresh compile — each one \
             is a genuine compiler bug",
            report.alarming_rejects()
        ));
    }
    Ok(())
}

fn cmd_hunt(rest: &[String]) -> Result<(), String> {
    let own = "programs mutants verify-bits verify-packets case-budget out";
    let args = Args::parse("hunt", &[RUNTIME, FUZZ, GENHUNT, own], rest)?;
    if let Some(file) = &args.file {
        return Err(format!(
            "hunt runs over the built-in corpus (unexpected argument `{file}`); \
             select programs with --programs a,b,c"
        ));
    }
    let generate = args.get_usize("generate", 0)?;
    if generate > 0 {
        return cmd_genhunt(&args, generate as u64);
    }
    args.check_mode("hunt", "corpus", &[RUNTIME, FUZZ, "generate", own])?;
    let defaults = HuntConfig::default();
    let cfg = HuntConfig {
        programs: args
            .get("programs")
            .map(|raw| raw.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or_default(),
        mutants_per_class: args.get_usize("mutants", defaults.mutants_per_class)?,
        seed: args.get_seed("seed", defaults.seed)?,
        levels: args.get_levels("level", &defaults.levels)?,
        fuzz_phvs: args.get_usize("phvs", defaults.fuzz_phvs)?,
        fuzz_runs: args.get_usize("runs", defaults.fuzz_runs)?,
        input_bits: args.get_u32("bits", defaults.input_bits)?,
        verify_bits: args.get_u32("verify-bits", defaults.verify_bits)?,
        verify_packets: args.get_usize("verify-packets", defaults.verify_packets)?,
        workers: args.get_workers(defaults.workers)?,
        case_budget: args.get_opt("case-budget")?,
        runtime: runtime_options(&args)?,
    };
    let report = hunt(&cfg)?;
    finish_hunt(&report, report.to_json(), cfg.levels.len(), args.get("out"))
}

/// The tail of both mutation hunts (`hunt`, `p4-fuzz --mutants`): a human
/// summary on stderr, the JSON report on stdout or `--out` (so
/// `druzhba hunt > report.json` composes), and a nonzero exit if any
/// injected fault survived.
fn finish_hunt<F: HuntFault, C>(
    report: &Report<F, C>,
    json: String,
    backends: usize,
    out: Option<&str>,
) -> Result<(), String> {
    let label = F::CAMPAIGN;
    for o in report.undetected() {
        eprintln!(
            "SURVIVOR: {} {:?} at level {} went undetected",
            o.program,
            o.fault,
            o.level.key()
        );
    }
    for (kind, (total, detected)) in report.by_fault_kind() {
        let key = F::class_key(kind);
        eprintln!("{label}: {key:<18} {detected}/{total} detected");
    }
    if report.neutral_discarded > 0 {
        eprintln!(
            "{label}: {} behaviorally neutral mutation candidate(s) screened out",
            report.neutral_discarded
        );
    }
    if F::STATIC_FLAG {
        let by_static: Vec<String> = report
            .by_static_flag()
            .into_iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        eprintln!(
            "{label}: {}/{} evaluation(s) flagged statically before any packet ran ({})",
            report.static_flagged(),
            report.evaluations(),
            by_static.join(", ")
        );
    }
    eprintln!(
        "{label}: {} evaluation(s) over {backends} backend(s) -> {}/{} detected ({:.1}%)",
        report.evaluations(),
        report.detected(),
        report.evaluations(),
        report.detection_rate() * 100.0
    );
    warn_truncated(label, report.truncated);
    write_out(out, &format!("{label} report"), &json)?;
    let undetected = report.evaluations() - report.detected();
    if undetected > 0 {
        return Err(format!(
            "{label}: {undetected} of {} injected-fault evaluation(s) went undetected",
            report.evaluations()
        ));
    }
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> Result<ExitCode, String> {
    use druzhba::analyze::{
        analyze_compiled, analyze_corpus, analyze_domino_def, analyze_p4_workload, CorpusAnalysis,
    };

    let args = Args::parse("analyze", &[GRID, P4_TARGET, "json out symbolic"], rest)?;
    let symbolic = args.get("symbolic").is_some();
    let analysis = match args.file.as_deref() {
        // No positional: the whole 17-program corpus.
        None => analyze_corpus(symbolic)?,
        Some(file) if is_p4_path(file) || p4_by_name(file).is_some() => {
            let (name, workload) = load_p4_target(&args, file)?;
            CorpusAnalysis {
                programs: vec![analyze_p4_workload(&name, &workload, symbolic)?],
            }
        }
        Some(name_or_file) => {
            let program = if let Some(def) = druzhba::programs::by_name(name_or_file) {
                analyze_domino_def(def, symbolic)?
            } else {
                let (_, compiled) = compile_from(&args)?;
                let observable = compiled.observable_containers();
                analyze_compiled(
                    name_or_file,
                    &compiled.pipeline_spec,
                    &compiled.machine_code,
                    Some(&observable),
                    symbolic,
                )?
            };
            CorpusAnalysis {
                programs: vec![program],
            }
        }
    };

    let rendered = if args.get("json").is_some() {
        analysis.to_json()
    } else {
        analysis.to_text()
    };
    write_out(args.get("out"), "analysis", &rendered)?;
    // Exit-code matrix (docs/FUZZING.md): 2 = proven miscompilation
    // (abstract TV mismatch or symbolic refutation), 0 = clean or
    // lint-only. Operational errors exit 1 via the generic Err path.
    let code = analysis.exit_code();
    if code != 0 {
        eprintln!(
            "analyze: {} translation-validation mismatch(es), {} symbolic refutation(s) — \
             the compiled forms provably disagree with the source semantics",
            analysis.tv_mismatches(),
            analysis.symbolic_refutations()
        );
    }
    Ok(ExitCode::from(code))
}

fn cmd_emit(rest: &[String]) -> Result<(), String> {
    let args = Args::parse("emit", &[GRID, P4_TARGET, "level"], rest)?;
    let level = match args.get("level") {
        None => OptLevel::SccInline,
        Some("all") => {
            return Err("emit renders one backend; pick one --level (0|1|2|3), not `all`".into())
        }
        Some(tok) => parse_level(tok)?,
    };
    if let Some(file) = args.file.clone().filter(|f| is_p4_path(f)) {
        let (_, workload) = load_p4_target(&args, &file)?;
        let src = emit_mat_pipeline(&workload.hlir, &workload.entries, &workload.lowering, level)
            .map_err(|e| e.to_string())?;
        print!("{src}");
        return Ok(());
    }
    let (_, compiled) = compile_from(&args)?;
    let src = emit_pipeline(&compiled.pipeline_spec, &compiled.machine_code, level)
        .map_err(|e| e.to_string())?;
    print!("{src}");
    Ok(())
}

fn cmd_atoms() -> Result<(), String> {
    use druzhba::alu_dsl::atoms::{atom, STATEFUL_ATOMS, STATELESS_ATOMS};
    println!("stateful atoms:");
    for name in STATEFUL_ATOMS {
        let spec = atom(name).map_err(|e| e.to_string())?;
        println!(
            "  {name:<14} {} state var(s), {} hole(s)",
            spec.state_vars.len(),
            spec.holes.len()
        );
    }
    println!("stateless ALUs:");
    for name in STATELESS_ATOMS {
        let spec = atom(name).map_err(|e| e.to_string())?;
        println!("  {name:<18} {} hole(s)", spec.holes.len());
    }
    Ok(())
}

fn cmd_programs() -> Result<(), String> {
    println!(
        "{:<20} {:>11} {:>12}  source",
        "program", "depth,width", "atom"
    );
    for def in &druzhba::programs::PROGRAMS {
        println!(
            "{:<20} {:>11} {:>12}  crates/programs/assets/{}.domino",
            def.name,
            format!("{},{}", def.depth, def.width),
            def.stateful_atom,
            def.name
        );
    }
    println!();
    println!("{:<20} {:>6}  description", "p4 program", "stages");
    for def in &P4_PROGRAMS {
        println!("{:<20} {:>6}  {}", def.name, def.stages, def.description);
    }
    Ok(())
}
