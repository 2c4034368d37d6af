//! The `druzhba` command-line tool: the compiler-testing workflow from a
//! shell.
//!
//! Every command is declared once, in [`COMMANDS`]: its positional
//! input, its modes, and each flag it reads with the modes that read it.
//! Parsing ([`Args::parse`]), the mode checks ([`Args::check_mode`]) and
//! `druzhba help` all read that table. Argument parsing is hand-rolled (no
//! CLI dependency); every command maps onto a library call, so the tool is
//! a thin shell over the public API.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use druzhba::analyze::{
    analyze_compiled, analyze_corpus, analyze_domino_def, analyze_p4_workload, CorpusAnalysis,
};
use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba::core::json::{array, Object};
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
    let Some(name) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => Args::parse(cmd, &args[1..]).and_then(|args| (cmd.run)(&args)),
        None => Err(format!("unknown command `{name}`\n{}", usage())),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// One command: its positional input, its modes and every flag it reads.
struct Command {
    name: &'static str,
    /// The positional input as `help` shows it (empty: none).
    positional: &'static str,
    /// One line on what the command does.
    about: &'static str,
    /// The mode axes, each a list of modes with what selects them; a run
    /// is in one mode of every axis. Empty for a one-mode command.
    modes: &'static [&'static [(&'static str, &'static str)]],
    flags: &'static [Flag],
    run: fn(&Args) -> Result<ExitCode, String>,
}

/// One flag of a command.
struct Flag {
    /// The name without dashes.
    name: &'static str,
    /// What the value is, as `help` shows it; empty for a switch, a flag
    /// that takes no value.
    metavar: &'static str,
    /// The modes that read the flag; empty for every mode. On an axis
    /// none of these modes belongs to, every mode reads the flag.
    modes: &'static [&'static str],
    help: &'static str,
}

// Mode names, as the mode checks print them.
const DOMINO_FILE: &str = "domino-file";
const P4_FILE: &str = "p4-file";
const DOMINO_PROGRAM: &str = "domino-program";
const P4_PROGRAM: &str = "p4-program";
const WHOLE_CORPUS: &str = "whole-corpus";
const SINGLE: &str = "single-run";
const CAMPAIGN: &str = "campaign";
const GREYBOX: &str = "greybox";
const MUTANTS: &str = "mutants";
const CORPUS: &str = "corpus";
const GENERATE: &str = "generate";

/// The modes of a flag every mode of its command reads.
const ALL: &[&str] = &[];
const INPUT_MODES: &[&[(&str, &str)]] =
    &[&[(DOMINO_FILE, "a .domino file"), (P4_FILE, "a .p4 file")]];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "compile", positional: "<file.domino>|<file.p4>", run: cmd_compile, modes: INPUT_MODES,
        about: "synthesize machine code for a Domino program, or print a P4 program's RMT lowering",
        flags: &[
            Flag { name: "depth", metavar: "D", modes: &[DOMINO_FILE], help: "pipeline stages of the synthesis grid" },
            Flag { name: "width", metavar: "W", modes: &[DOMINO_FILE], help: "ALUs per stage" },
            Flag { name: "atom", metavar: "NAME", modes: &[DOMINO_FILE], help: "stateful atom (see `druzhba atoms`)" },
            Flag { name: "entries", metavar: "FILE", modes: &[P4_FILE], help: "table entries (default: the sibling .entries file)" },
            Flag { name: "stages", metavar: "N", modes: &[P4_FILE], help: "RMT stages the lowering may use" },
            Flag { name: "tables-per-stage", metavar: "T", modes: &[P4_FILE], help: "RMT tables per stage" },
            Flag { name: "o", metavar: "FILE", modes: ALL, help: "write the machine code or lowering report to FILE" },
        ],
    },
    Command {
        name: "fuzz", positional: "<file.domino>", run: cmd_fuzz,
        modes: &[&[(SINGLE, "the default"), (CAMPAIGN, "--runs R, R > 1"), (GREYBOX, "--greybox E, E > 0")]],
        about: "differential fuzzing of every selected backend against the Domino program",
        flags: &[
            Flag { name: "depth", metavar: "D", modes: ALL, help: "pipeline stages of the synthesis grid" },
            Flag { name: "width", metavar: "W", modes: ALL, help: "ALUs per stage" },
            Flag { name: "atom", metavar: "NAME", modes: ALL, help: "stateful atom (see `druzhba atoms`)" },
            Flag { name: "edit", metavar: "name=v,name=-", modes: ALL, help: "apply machine-code edits (`-` removes a pair); replays essential_edits" },
            Flag { name: "seed", metavar: "S", modes: ALL, help: "traffic seed (decimal or 0x-hex)" },
            Flag { name: "level", metavar: "L", modes: ALL, help: "backends: 0|1|2|3 or a name, a comma list, or `all`" },
            Flag { name: "bits", metavar: "B", modes: ALL, help: "bit width of generated input values" },
            Flag { name: "greybox", metavar: "E", modes: ALL, help: "coverage-guided campaign with an E-execution budget" },
            Flag { name: "phvs", metavar: "N", modes: &[SINGLE, CAMPAIGN], help: "random PHVs per run" },
            Flag { name: "runs", metavar: "R", modes: &[SINGLE, CAMPAIGN], help: "independently seeded runs" },
            Flag { name: "jobs", metavar: "J", modes: &[CAMPAIGN, GREYBOX], help: "worker threads" },
            Flag { name: "gb-packets", metavar: "P", modes: &[GREYBOX], help: "packets per initial seed input" },
            Flag { name: "gb-max-packets", metavar: "N", modes: &[GREYBOX], help: "cap on a mutated trace's length" },
            Flag { name: "checkpoint", metavar: "DIR", modes: &[CAMPAIGN, GREYBOX], help: "snapshot campaign progress into DIR" },
            Flag { name: "every", metavar: "N", modes: &[CAMPAIGN, GREYBOX], help: "snapshot every N completed tasks (needs --checkpoint/--resume)" },
            Flag { name: "resume", metavar: "DIR", modes: &[CAMPAIGN, GREYBOX], help: "restore DIR's snapshot and keep checkpointing there" },
            Flag { name: "budget-secs", metavar: "S", modes: &[CAMPAIGN, GREYBOX], help: "wall-clock budget; expiry ends in a partial report, exit 0" },
        ],
    },
    Command {
        name: "verify", positional: "<file.domino>", run: cmd_verify, modes: &[],
        about: "bounded exhaustive verification of every selected backend against the Domino program",
        flags: &[
            Flag { name: "depth", metavar: "D", modes: ALL, help: "pipeline stages of the synthesis grid" },
            Flag { name: "width", metavar: "W", modes: ALL, help: "ALUs per stage" },
            Flag { name: "atom", metavar: "NAME", modes: ALL, help: "stateful atom (see `druzhba atoms`)" },
            Flag { name: "level", metavar: "L", modes: ALL, help: "backends: 0|1|2|3 or a name, a comma list, or `all`" },
            Flag { name: "bits", metavar: "B", modes: ALL, help: "input bit width" },
            Flag { name: "packets", metavar: "N", modes: ALL, help: "packets per enumerated trace" },
            Flag { name: "max-cases", metavar: "N", modes: ALL, help: "enumeration budget" },
            Flag { name: "lanes", metavar: "L", modes: ALL, help: "sweep the fused backend's SIMD lane engine: 1|8|16|32|64" },
        ],
    },
    Command {
        name: "emit", positional: "<file.domino>|<file.p4>", run: cmd_emit, modes: INPUT_MODES,
        about: "render the generated pipeline source of one backend",
        flags: &[
            Flag { name: "depth", metavar: "D", modes: &[DOMINO_FILE], help: "pipeline stages of the synthesis grid" },
            Flag { name: "width", metavar: "W", modes: &[DOMINO_FILE], help: "ALUs per stage" },
            Flag { name: "atom", metavar: "NAME", modes: &[DOMINO_FILE], help: "stateful atom (see `druzhba atoms`)" },
            Flag { name: "entries", metavar: "FILE", modes: &[P4_FILE], help: "table entries (default: the sibling .entries file)" },
            Flag { name: "stages", metavar: "N", modes: &[P4_FILE], help: "RMT stages the lowering may use" },
            Flag { name: "tables-per-stage", metavar: "T", modes: &[P4_FILE], help: "RMT tables per stage" },
            Flag { name: "level", metavar: "L", modes: ALL, help: "the one backend to render: 0|1|2|3 or a name" },
        ],
    },
    Command {
        name: "hunt", positional: "", run: cmd_hunt,
        about: "mutation campaign: inject faults, require the workflow to detect them (JSON report)",
        modes: &[&[(CORPUS, "the default; machine-code faults in the Table 1 corpus"),
            (GENERATE, "--generate N, N > 0; a sweep of N generated, screen-vetted programs")]],
        flags: &[
            Flag { name: "programs", metavar: "a,b,c", modes: &[CORPUS], help: "corpus programs to hunt over (default: all)" },
            Flag { name: "mutants", metavar: "N", modes: &[CORPUS], help: "mutants per fault class per program" },
            Flag { name: "generate", metavar: "N", modes: ALL, help: "sweep N freshly generated programs instead of the corpus" },
            Flag { name: "faults", metavar: "F", modes: &[GENERATE], help: "faults injected per generated program" },
            Flag { name: "minimize-checks", metavar: "C", modes: &[GENERATE], help: "oracle budget of program-level minimization" },
            Flag { name: "seed", metavar: "S", modes: ALL, help: "campaign seed (decimal or 0x-hex)" },
            Flag { name: "level", metavar: "L", modes: ALL, help: "backends: 0|1|2|3 or a name, a comma list, or `all`" },
            Flag { name: "phvs", metavar: "N", modes: ALL, help: "PHVs per fuzz run" },
            Flag { name: "runs", metavar: "R", modes: ALL, help: "fresh fuzz runs per evaluation" },
            Flag { name: "bits", metavar: "B", modes: ALL, help: "bit width of fuzzed inputs" },
            Flag { name: "verify-bits", metavar: "B", modes: &[CORPUS], help: "input width of the bounded-verification fallback" },
            Flag { name: "verify-packets", metavar: "N", modes: &[CORPUS], help: "trace length of the bounded-verification fallback" },
            Flag { name: "case-budget", metavar: "N", modes: &[CORPUS], help: "cap on differential batches per evaluation" },
            Flag { name: "jobs", metavar: "J", modes: ALL, help: "worker threads" },
            Flag { name: "checkpoint", metavar: "DIR", modes: ALL, help: "snapshot campaign progress into DIR" },
            Flag { name: "every", metavar: "N", modes: ALL, help: "snapshot every N completed tasks (needs --checkpoint/--resume)" },
            Flag { name: "resume", metavar: "DIR", modes: ALL, help: "restore DIR's snapshot and keep checkpointing there" },
            Flag { name: "budget-secs", metavar: "S", modes: ALL, help: "wall-clock budget; expiry ends in a partial report, exit 0" },
            Flag { name: "out", metavar: "FILE", modes: ALL, help: "write the JSON report to FILE" },
        ],
    },
    Command {
        name: "generate", positional: "", run: cmd_generate, modes: &[],
        about: "print generated programs without running packets; program K of a seed replays alone",
        flags: &[
            Flag { name: "count", metavar: "N", modes: ALL, help: "programs to generate" },
            Flag { name: "seed", metavar: "S", modes: ALL, help: "generation seed (decimal or 0x-hex)" },
            Flag { name: "index", metavar: "K", modes: ALL, help: "index of the first program" },
            Flag { name: "p4", metavar: "", modes: ALL, help: "generate P4 workloads instead of Domino programs" },
            Flag { name: "json", metavar: "", modes: ALL, help: "print JSON instead of source text" },
            Flag { name: "out", metavar: "FILE", modes: ALL, help: "write the output to FILE" },
        ],
    },
    Command {
        name: "analyze", positional: "[<file.domino>|<file.p4>|<program>]", run: cmd_analyze,
        about: "static analysis: translation validation, lints and screens; exit 2 on a proven miscompilation",
        modes: &[&[(WHOLE_CORPUS, "no positional input"), (DOMINO_PROGRAM, "a Table 1 program name, at its Table 1 grid"),
            (P4_PROGRAM, "a P4 corpus program name"), (P4_FILE, "a .p4 file"), (DOMINO_FILE, "any other file")]],
        flags: &[
            Flag { name: "depth", metavar: "D", modes: &[DOMINO_FILE], help: "pipeline stages of the synthesis grid" },
            Flag { name: "width", metavar: "W", modes: &[DOMINO_FILE], help: "ALUs per stage" },
            Flag { name: "atom", metavar: "NAME", modes: &[DOMINO_FILE], help: "stateful atom (see `druzhba atoms`)" },
            Flag { name: "entries", metavar: "FILE", modes: &[P4_FILE], help: "table entries (default: the sibling .entries file)" },
            Flag { name: "stages", metavar: "N", modes: &[P4_FILE, P4_PROGRAM], help: "RMT stages the lowering may use" },
            Flag { name: "tables-per-stage", metavar: "T", modes: &[P4_FILE, P4_PROGRAM], help: "RMT tables per stage" },
            Flag { name: "symbolic", metavar: "", modes: ALL, help: "add a term-level equivalence proof per backend" },
            Flag { name: "json", metavar: "", modes: ALL, help: "print JSON instead of text" },
            Flag { name: "out", metavar: "FILE", modes: ALL, help: "write the analysis to FILE" },
        ],
    },
    Command {
        name: "p4-fuzz", positional: "[<file.p4>|<p4-program>]", run: cmd_p4_fuzz,
        about: "differential fuzzing of the lowered RMT pipeline against the P4 reference interpreter",
        modes: &[&[(SINGLE, "the default"), (CAMPAIGN, "--runs R, R > 1"), (GREYBOX, "--greybox E, E > 0"),
            (MUTANTS, "--mutants N, N > 0; a table/action-fault campaign (JSON report)")],
            &[(CORPUS, "no positional input (the whole P4 corpus) or a corpus program name"), (P4_FILE, "a .p4 file"),
            (GENERATE, "--generate N, N > 0; N generated, TV-vetted P4 workloads")]],
        flags: &[
            Flag { name: "entries", metavar: "FILE", modes: &[P4_FILE], help: "table entries (default: the sibling .entries file)" },
            Flag { name: "stages", metavar: "N", modes: &[CORPUS, P4_FILE], help: "RMT stages the lowering may use" },
            Flag { name: "tables-per-stage", metavar: "T", modes: &[CORPUS, P4_FILE], help: "RMT tables per stage" },
            Flag { name: "generate", metavar: "N", modes: ALL, help: "replace the targets by N generated, TV-vetted P4 workloads" },
            Flag { name: "lint", metavar: "", modes: ALL, help: "lint and translation-validate every target first" },
            Flag { name: "seed", metavar: "S", modes: ALL, help: "traffic seed (decimal or 0x-hex)" },
            Flag { name: "level", metavar: "L", modes: ALL, help: "backends: 0|1|2|3 or a name, a comma list, or `all`" },
            Flag { name: "bits", metavar: "B", modes: ALL, help: "bit-width cap on randomized header fields" },
            Flag { name: "greybox", metavar: "E", modes: ALL, help: "coverage-guided campaign with an E-execution budget" },
            Flag { name: "mutants", metavar: "N", modes: ALL, help: "mutants per fault class per program" },
            Flag { name: "phvs", metavar: "N", modes: &[SINGLE, CAMPAIGN, MUTANTS], help: "packets per run" },
            Flag { name: "runs", metavar: "R", modes: &[SINGLE, CAMPAIGN, MUTANTS], help: "independently seeded runs" },
            Flag { name: "jobs", metavar: "J", modes: &[CAMPAIGN, GREYBOX, MUTANTS], help: "worker threads" },
            Flag { name: "cross-model", metavar: "on|off", modes: &[SINGLE, CAMPAIGN], help: "check interpreter == RMT(fused) == dRMT" },
            Flag { name: "gb-packets", metavar: "P", modes: &[GREYBOX], help: "packets per initial seed input" },
            Flag { name: "gb-max-packets", metavar: "N", modes: &[GREYBOX], help: "cap on a mutated trace's length" },
            Flag { name: "mutate-entries", metavar: "on|off", modes: &[GREYBOX], help: "mutate the shared table entries alongside packets" },
            Flag { name: "case-budget", metavar: "N", modes: &[MUTANTS], help: "cap on differential batches per evaluation" },
            Flag { name: "out", metavar: "FILE", modes: &[MUTANTS], help: "write the JSON report to FILE" },
            Flag { name: "checkpoint", metavar: "DIR", modes: &[CAMPAIGN, GREYBOX, MUTANTS], help: "snapshot campaign progress into DIR" },
            Flag { name: "every", metavar: "N", modes: &[CAMPAIGN, GREYBOX, MUTANTS], help: "snapshot every N completed tasks (needs --checkpoint/--resume)" },
            Flag { name: "resume", metavar: "DIR", modes: &[CAMPAIGN, GREYBOX, MUTANTS], help: "restore DIR's snapshot and keep checkpointing there" },
            Flag { name: "budget-secs", metavar: "S", modes: &[CAMPAIGN, GREYBOX, MUTANTS], help: "wall-clock budget; expiry ends in a partial report, exit 0" },
        ],
    },
    Command {
        name: "atoms", positional: "", run: cmd_atoms, modes: &[], flags: &[],
        about: "list the ALU DSL atom library",
    },
    Command {
        name: "programs", positional: "", run: cmd_programs, modes: &[], flags: &[],
        about: "list the Table 1 benchmark programs and the P4 corpus",
    },
];

/// `druzhba help`, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut s = String::from(
        "druzhba — programmable switch simulation for compiler testing\n\n\
         USAGE: druzhba <command> [<input>] [--flag value]...\n\n\
         A flag marked [mode, ...] is read only in those modes; a flag the selected\n\
         mode does not read, or a repeated flag, fails with exit 1. Defaults and\n\
         examples: docs/FUZZING.md.\n",
    );
    for cmd in COMMANDS {
        let head = format!("druzhba {} {}", cmd.name, cmd.positional);
        let _ = writeln!(s, "\n{}", head.trim_end());
        let _ = writeln!(s, "  {}", cmd.about);
        for (mode, selected_by) in cmd.modes.iter().copied().flatten() {
            let _ = writeln!(s, "  mode {mode}: {selected_by}");
        }
        for f in cmd.flags {
            let dashes = if f.name.len() == 1 { "-" } else { "--" };
            let name = format!("{dashes}{} {}", f.name, f.metavar);
            let modes = match f.modes {
                [] => String::new(),
                modes => format!(" [{}]", modes.join(", ")),
            };
            let _ = writeln!(s, "    {:<24}{}{modes}", name.trim_end(), f.help);
        }
    }
    s
}

/// A parsed command line: the positional input plus `--key value` pairs
/// (`on` for a switch).
struct Args {
    cmd: &'static Command,
    file: Option<String>,
    flags: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Parse `cmd`'s arguments. Any flag `cmd` does not declare, and any
    /// repeated flag, is an error, so a typo never silently runs the
    /// defaults.
    fn parse(cmd: &'static Command, args: &[String]) -> Result<Self, String> {
        let mut file = None;
        let mut flags: Vec<(&Flag, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
                if file.is_some() {
                    return Err(format!("unexpected argument `{a}`"));
                }
                file = Some(a.clone());
                continue;
            };
            let Some(flag) = cmd.flags.iter().find(|f| f.name == key) else {
                return Err(format!("unknown flag `{a}` for `{}`", cmd.name));
            };
            if flags.iter().any(|(f, _)| f.name == key) {
                return Err(format!("flag `{a}` given twice for `{}`", cmd.name));
            }
            let value = if flag.metavar.is_empty() {
                "on"
            } else {
                it.next().ok_or_else(|| format!("flag {a} needs a value"))?
            };
            flags.push((flag, value.to_string()));
        }
        Ok(Args { cmd, file, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f.name == key)
            .map(|(_, v)| v.as_str())
    }

    /// Fail on any flag the command does not read in `mode`: a flag
    /// another mode of the same axis reads is never silently ignored.
    fn check_mode(&self, mode: &str) -> Result<(), String> {
        let axis = self
            .cmd
            .modes
            .iter()
            .find(|axis| axis.iter().any(|(m, _)| *m == mode))
            .expect("a mode of the command");
        match self.flags.iter().find(|(f, _)| {
            axis.iter().any(|(m, _)| f.modes.contains(m)) && !f.modes.contains(&mode)
        }) {
            Some((f, _)) => Err(format!(
                "flag `--{}` does not apply to `{}` in {mode} mode",
                f.name, self.cmd.name
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

    /// Optimization levels: a comma list of levels, or `all` for every
    /// backend.
    fn get_levels(&self, key: &str, default: &[OptLevel]) -> Result<Vec<OptLevel>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some("all") => Ok(OptLevel::ALL.to_vec()),
            Some(raw) => raw.split(',').map(|tok| parse_level(tok.trim())).collect(),
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

/// The crash-proofing flags of the campaign modes (docs/FUZZING.md
/// "Checkpoint, resume, and budgets").
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
    if checkpoint_dir.is_none() && args.get("every").is_some() {
        return Err(
            "--every sets the snapshot interval; pass --checkpoint DIR or --resume DIR with it"
                .into(),
        );
    }
    Ok(RuntimeOptions {
        checkpoint_dir,
        checkpoint_every: args.get_usize("every", defaults.checkpoint_every)?,
        resume,
        budget_secs: args.get_opt("budget-secs")?,
    })
}

/// The runtime options of one (program, level) run: each run checkpoints
/// into its own `DIR/<program>/<level>/`, so a campaign over several
/// programs or levels never resumes one run from another's snapshot.
fn scoped(runtime: &RuntimeOptions, program: &str, level: OptLevel) -> RuntimeOptions {
    RuntimeOptions {
        checkpoint_dir: (runtime.checkpoint_dir.as_ref())
            .map(|d| d.join(program).join(level.key())),
        ..runtime.clone()
    }
}

/// Write `what` to `path` (`--out`/`-o`), or to stdout without one. The
/// file is written atomically (tmp + rename): a crash mid-write never
/// leaves a truncated file where a previous good report stood.
fn write_out(path: Option<&str>, what: &str, contents: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            snapshot::write_atomic(Path::new(path), contents)
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

/// The greybox configuration of `fuzz --greybox` and `p4-fuzz --greybox`
/// (defaults in [`GreyboxConfig`]).
fn greybox_config(
    args: &Args,
    executions: usize,
    seed: u64,
    bits: u32,
) -> Result<GreyboxConfig, String> {
    let defaults = GreyboxConfig::default();
    Ok(GreyboxConfig {
        executions,
        packets: args.get_usize("gb-packets", defaults.packets)?,
        max_packets: args.get_usize("gb-max-packets", defaults.max_packets)?,
        seed,
        input_bits: bits,
        workers: args.get_workers(defaults.workers)?,
        minimize: true,
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
    let mut replay = format!(
        "--greybox {} --seed {:#x} --jobs {} --gb-packets {}",
        cfg.executions, cfg.seed, cfg.workers, cfg.packets
    );
    if cfg.max_packets != 0 {
        let _ = write!(replay, " --gb-max-packets {}", cfg.max_packets);
    }
    replay + mode
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
    /// Select the mode and reject every flag it does not read; `phvs`
    /// and `bits` are the command's defaults.
    fn parse(args: &Args, (phvs, bits): (usize, u32)) -> Result<Self, String> {
        let seed = args.get_seed("seed", FuzzConfig::default().seed)?;
        let bits = args.get_u32("bits", bits)?;
        let executions = args.get_usize("greybox", 0)?;
        if executions > 0 {
            args.check_mode(GREYBOX)?;
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
            args.check_mode(SINGLE)?;
            return Ok(FuzzMode::Single(base));
        }
        args.check_mode(CAMPAIGN)?;
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

    /// Run this mode on `program`'s target at `level`, print its outcome,
    /// and turn a divergence into an error carrying the replay recipe. `p4`
    /// marks the P4 stack; `replay` is appended to every recipe and
    /// `greybox_mode` to the greybox flags; `greybox` runs the target's
    /// greybox campaign.
    fn run<R, T: Target<R>>(
        &self,
        (program, p4, replay, greybox_mode): (&str, bool, &str, &str),
        level: OptLevel,
        target: &T,
        make_reference: impl Fn() -> R + Sync,
        greybox: impl FnOnce(&GreyboxConfig) -> GreyboxReport,
    ) -> Result<(), String> {
        let p4 = p4.then_some(program);
        let lv = level.key();
        let tag = |alu: &str| p4.map_or(format!("{alu}[{lv}]"), |n| format!("p4-fuzz[{n}:{lv}]"));
        let unit = if p4.is_some() { "packets" } else { "PHVs" };
        let found = |mode: &str| match p4 {
            None => format!("{mode}fuzzing found a divergence at level {lv}"),
            Some(n) => format!("p4 {mode}fuzzing found a divergence in `{n}` at level {lv}"),
        };
        let (failure, cfg, verdict) = match self {
            FuzzMode::Greybox(cfg) => {
                let cfg = &GreyboxConfig {
                    runtime: scoped(&cfg.runtime, program, level),
                    ..cfg.clone()
                };
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
                let runtime = scoped(runtime, program, level);
                let report = fuzz_campaign(target, make_reference, campaign, &runtime);
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
    Path::new(file)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("p4"))
}

/// A program's name: its file's stem.
fn stem(file: &str) -> String {
    Path::new(file)
        .file_stem()
        .map_or_else(|| file.to_string(), |s| s.to_string_lossy().into_owned())
}

/// Check the flags against the mode a `.domino`/`.p4` input selects, and
/// return the input if it is a P4 file.
fn p4_input(args: &Args) -> Result<Option<&str>, String> {
    let p4 = args.file.as_deref().filter(|f| is_p4_path(f));
    args.check_mode(if p4.is_some() { P4_FILE } else { DOMINO_FILE })?;
    Ok(p4)
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
            Some(path) => PathBuf::from(path),
            None => Path::new(positional).with_extension("entries"),
        };
        let entries_text = std::fs::read_to_string(&entries_path).map_err(|e| {
            format!(
                "cannot read table entries `{}`: {e} (pass --entries FILE)",
                entries_path.display()
            )
        })?;
        let workload =
            P4Workload::parse(&source, &entries_text, &cfg).map_err(|e| e.to_string())?;
        Ok((stem(positional), workload))
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
        None => P4_PROGRAMS
            .iter()
            .map(|def| load_p4_target(args, def.name).map_err(|e| format!("{}: {e}", def.name)))
            .collect(),
    }
}

/// The `compile` report for a P4 input: the RMT lowering as text.
fn p4_lowering_report(name: &str, workload: &P4Workload) -> String {
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

fn cmd_p4_fuzz(args: &Args) -> Result<ExitCode, String> {
    let mutants = args.get_usize("mutants", 0)?;
    if args.get_usize("greybox", 0)? > 0 && mutants > 0 {
        return Err("--greybox and --mutants are separate campaign modes; pick one".into());
    }
    let mode = if mutants > 0 {
        args.check_mode(MUTANTS)?;
        None
    } else {
        Some(FuzzMode::parse(args, (10_000, 16))?)
    };
    let seed = args.get_seed("seed", FuzzConfig::default().seed)?;
    // `--generate N` swaps the corpus/file targets for N freshly
    // generated, TV-vetted P4 workloads; every downstream mode (--lint,
    // plain runs, --mutants, --greybox, cross-model) composes unchanged.
    let generate = args.get_usize("generate", 0)?;
    args.check_mode(if generate > 0 {
        GENERATE
    } else if args.file.as_deref().is_some_and(is_p4_path) {
        P4_FILE
    } else {
        CORPUS
    })?;
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
        load_p4_targets(args)?
    };
    if args.get("lint").is_some() {
        // Static pre-pass: lint every target and translation-validate the
        // lowered program before spending any fuzz budget.
        let mut tv_mismatches = 0usize;
        for (name, workload) in &targets {
            let analysis = analyze_p4_workload(name, workload, false)?;
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
            runtime: runtime_options(args)?,
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
                (name, true, "", greybox_mode),
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
    Ok(ExitCode::SUCCESS)
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

fn cmd_compile(args: &Args) -> Result<ExitCode, String> {
    let (what, text) = match p4_input(args)? {
        Some(file) => {
            let (name, workload) = load_p4_target(args, file)?;
            eprintln!(
                "lowered: {} field container(s) + drop flag, {} stage(s), {} table(s), {} entr(ies)",
                workload.lowering.layout.fields().len(),
                workload.lowering.num_stages(),
                workload.hlir.tables.len(),
                workload.entries.len()
            );
            ("lowering report", p4_lowering_report(&name, &workload))
        }
        None => {
            let (_, compiled) = compile_from(args)?;
            report(&compiled);
            ("machine code", compiled.machine_code.to_text())
        }
    };
    write_out(args.get("o"), what, &text)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_fuzz(args: &Args) -> Result<ExitCode, String> {
    let mode = FuzzMode::parse(args, (50_000, 10))?;
    let (program, compiled) = compile_from(args)?;
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
    let name = stem(args.file.as_deref().unwrap_or_default());
    for &level in &levels {
        let target = AluTarget {
            pipeline_spec: &compiled.pipeline_spec,
            mc: &machine_code,
            opt: level,
            observable: Some(&observable),
            state_cells: &compiled.state_cells,
        };
        mode.run(
            (&name, false, &replay, ""),
            level,
            &target,
            make_spec,
            |cfg| {
                greybox_fuzz_test(
                    target.pipeline_spec,
                    target.mc,
                    level,
                    make_spec,
                    target.observable,
                    target.state_cells,
                    cfg,
                )
            },
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(args: &Args) -> Result<ExitCode, String> {
    // Every flag is checked before `compile_from` runs synthesis.
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
    let (program, compiled) = compile_from(args)?;
    report(&compiled);
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
    Ok(ExitCode::SUCCESS)
}

/// `druzhba generate`: emit generated programs without running any
/// packets — the inspection/replay face of the Gauntlet-style campaign.
/// Program `k` of a seed is a pure function of `(seed, k)`, so the
/// `--index` flag replays exactly the program a hunt report names.
fn cmd_generate(args: &Args) -> Result<ExitCode, String> {
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
    let end = start.checked_add(count).ok_or_else(|| {
        format!("--index {start} --count {count} runs past the last program index")
    })?;
    let p4 = args.get("p4").is_some();
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut rejected = 0u64;
    for i in start..end {
        if p4 {
            let g = generate_p4_at(seed, i);
            rejected += u64::from(g.rejects.total());
            let _ = writeln!(text, "// {} (replay: {})", g.name, g.recipe());
            text.push_str(&g.source);
            let _ = writeln!(text, "// entries for {}:", g.name);
            for line in g.entries.lines() {
                let _ = writeln!(text, "//   {line}");
            }
            rows.push(
                Object::new()
                    .field("name", &g.name)
                    .field("index", g.index)
                    .field("rejected", g.rejects.total())
                    .field("recipe", g.recipe())
                    .field("source", &g.source)
                    .field("entries", &g.entries),
            );
        } else {
            let g = generate_domino_at(seed, i);
            rejected += u64::from(g.rejects.total());
            let _ = writeln!(
                text,
                "// {}: --depth {} --width {} --atom {} (replay: {})",
                g.name,
                g.grid.depth,
                g.grid.width,
                g.grid.atom,
                g.recipe()
            );
            text.push_str(&g.source);
            rows.push(
                Object::new()
                    .field("name", &g.name)
                    .field("index", g.index)
                    .field("grid", g.grid.to_string())
                    .field("atom", g.grid.atom)
                    .field("rejected", g.rejects.total())
                    .field("recipe", g.recipe())
                    .field("source", &g.source),
            );
        }
    }
    let kind = if p4 { "p4" } else { "domino" };
    eprintln!(
        "generate: {count} {kind} program(s) from seed {seed:#x} starting at index {start} \
         ({rejected} candidate(s) rejected by the validity screen)"
    );
    let out = if args.get("json").is_some() {
        let doc = Object::block(2)
            .field("kind", kind)
            .field("programs", array(rows, Some(4)));
        format!("{doc}\n")
    } else {
        text
    };
    write_out(args.get("out"), "generated program(s)", &out)?;
    Ok(ExitCode::SUCCESS)
}

/// `druzhba hunt --generate N`: the Gauntlet-style generated-program
/// campaign (clean differential sweep, optional fault injection with
/// program-level minimization).
fn cmd_genhunt(args: &Args, count: u64) -> Result<ExitCode, String> {
    if args.get("programs").is_some() || args.get("mutants").is_some() {
        return Err(
            "--generate sweeps freshly generated programs; --programs/--mutants \
             belong to the corpus hunt (drop --generate to use them)"
                .into(),
        );
    }
    args.check_mode(GENERATE)?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_hunt(args: &Args) -> Result<ExitCode, String> {
    if let Some(file) = &args.file {
        return Err(format!(
            "hunt runs over the built-in corpus (unexpected argument `{file}`); \
             select programs with --programs a,b,c"
        ));
    }
    let generate = args.get_usize("generate", 0)?;
    if generate > 0 {
        return cmd_genhunt(args, generate as u64);
    }
    args.check_mode(CORPUS)?;
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
        runtime: runtime_options(args)?,
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
) -> Result<ExitCode, String> {
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(args: &Args) -> Result<ExitCode, String> {
    let symbolic = args.get("symbolic").is_some();
    let Some(file) = args.file.as_deref() else {
        // No positional: the whole 17-program corpus.
        args.check_mode(WHOLE_CORPUS)?;
        return report_analysis(args, &analyze_corpus(symbolic)?);
    };
    let p4_mode = if is_p4_path(file) {
        Some(P4_FILE)
    } else {
        p4_by_name(file).map(|_| P4_PROGRAM)
    };
    let program = if let Some(mode) = p4_mode {
        args.check_mode(mode)?;
        let (name, workload) = load_p4_target(args, file)?;
        analyze_p4_workload(&name, &workload, symbolic)?
    } else if let Some(def) = druzhba::programs::by_name(file) {
        // A corpus program always runs at its Table 1 grid.
        args.check_mode(DOMINO_PROGRAM)?;
        analyze_domino_def(def, symbolic)?
    } else {
        args.check_mode(DOMINO_FILE)?;
        let (_, compiled) = compile_from(args)?;
        let observable = compiled.observable_containers();
        analyze_compiled(
            file,
            &compiled.pipeline_spec,
            &compiled.machine_code,
            Some(&observable),
            symbolic,
        )?
    };
    report_analysis(
        args,
        &CorpusAnalysis {
            programs: vec![program],
        },
    )
}

/// Print or write the analysis and pick `analyze`'s exit code.
fn report_analysis(args: &Args, analysis: &CorpusAnalysis) -> Result<ExitCode, String> {
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

fn cmd_emit(args: &Args) -> Result<ExitCode, String> {
    let p4 = p4_input(args)?;
    let level = match args.get("level") {
        None => OptLevel::SccInline,
        Some("all") => {
            return Err("emit renders one backend; pick one --level (0|1|2|3), not `all`".into())
        }
        Some(tok) => parse_level(tok)?,
    };
    let src = match p4 {
        Some(file) => {
            let (_, workload) = load_p4_target(args, file)?;
            emit_mat_pipeline(&workload.hlir, &workload.entries, &workload.lowering, level)
        }
        None => {
            let (_, compiled) = compile_from(args)?;
            emit_pipeline(&compiled.pipeline_spec, &compiled.machine_code, level)
        }
    };
    print!("{}", src.map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_atoms(_: &Args) -> Result<ExitCode, String> {
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_programs(_: &Args) -> Result<ExitCode, String> {
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
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    /// No command or flag is declared twice, and every flag is marked
    /// with modes its command declares.
    #[test]
    fn the_command_table_is_consistent() {
        for (i, cmd) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != cmd.name),
                "{}",
                cmd.name
            );
            // `check_mode` finds a mode's axis by its name.
            let modes: Vec<&str> = cmd
                .modes
                .iter()
                .copied()
                .flatten()
                .map(|(m, _)| *m)
                .collect();
            for (k, mode) in modes.iter().enumerate() {
                assert!(
                    !modes[..k].contains(mode),
                    "{}: mode `{mode}` twice",
                    cmd.name
                );
            }
            for (j, f) in cmd.flags.iter().enumerate() {
                let name = format!("{} --{}", cmd.name, f.name);
                assert!(
                    cmd.flags[..j].iter().all(|g| g.name != f.name),
                    "{name} twice"
                );
                for mode in f.modes {
                    assert!(
                        cmd.modes.iter().copied().flatten().any(|(m, _)| m == mode),
                        "{name}: `{mode}`"
                    );
                }
            }
        }
    }
}
