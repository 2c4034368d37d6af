//! `druzhba analyze`: the static-analysis pass over the shipped corpus
//! (or a single program), shared by the CLI and the golden-baseline test.
//!
//! For every Table 1 Domino program the driver runs static translation
//! validation across all compiled backends, extracts lint diagnostics,
//! and screens the program for fuzz-worthiness; for every P4 corpus
//! program it validates the lowered `MatInstr` program against the
//! resolved tables it was built from and reports the match-action lints. Output is deterministic
//! (corpus order, diagnostics sorted by [`sort_diagnostics`]) so the JSON
//! rendering can be pinned byte-for-byte under `tests/golden/`.

use std::fmt::Write as _;

use druzhba_analysis::{analyze_p4, AbsVal, LintRecord, ProgramBuild, Screened, SymbolicVerdict};
use druzhba_core::diag::{sort_diagnostics, Diagnostic, Severity};
use druzhba_core::json::{array, Object, Raw};
use druzhba_dgen::OptLevel;
use druzhba_dsim::p4::P4Workload;
use druzhba_programs::{P4ProgramDef, ProgramDef, P4_PROGRAMS, PROGRAMS};

/// Severity assigned to each lint code (unknown codes default to
/// warnings so new lints fail the CI baseline until triaged).
fn severity_of(code: &str) -> Severity {
    match code {
        "lpm-always-match" => Severity::Note,
        // Symbolic-fact lints describe suspicious-but-legal programs
        // (the corpus itself trips none); they inform, they don't gate.
        "constant-output" | "input-independent-write" | "always-taken-relop" => Severity::Note,
        _ => Severity::Warning,
    }
}

/// Analysis result for one corpus program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Registry name.
    pub name: String,
    /// `"domino"` or `"p4"`.
    pub kind: &'static str,
    /// Rendered translation-validation mismatches (empty = clean).
    pub tv_mismatches: Vec<String>,
    /// Sorted lint diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Generator-screen verdict (Domino programs only).
    pub screen: Option<Screened>,
    /// Conditional-branch coverage edges proven statically unreachable,
    /// per statically-keyed backend (`scc_inline`, `fused`).
    pub proven_dead: Vec<(&'static str, usize)>,
    /// Known-imprecision list: branch edges the abstraction predicts
    /// live but a deterministic seeded campaign never hits — candidates
    /// for sharper transfer functions, not failures. Sorted and deduped.
    pub imprecision: Vec<String>,
    /// Symbolic translation-validation verdict (`--symbolic` runs only).
    pub symbolic: Option<SymbolicVerdict>,
}

/// Whole-corpus analysis (17 programs: 12 Domino + 5 P4).
#[derive(Debug, Clone)]
pub struct CorpusAnalysis {
    pub programs: Vec<ProgramAnalysis>,
}

impl CorpusAnalysis {
    /// Total translation-validation mismatches.
    pub fn tv_mismatches(&self) -> usize {
        self.programs.iter().map(|p| p.tv_mismatches.len()).sum()
    }

    /// Programs whose symbolic validation produced a refutation — a
    /// proven miscompilation, counted alongside abstract TV mismatches.
    pub fn symbolic_refutations(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| matches!(p.symbolic, Some(SymbolicVerdict::Refuted { .. })))
            .count()
    }

    /// The documented `druzhba analyze` exit code (see docs/FUZZING.md):
    /// `2` when any compiled form provably disagrees with its source
    /// (abstract TV mismatch or symbolic refutation), `0` for a clean
    /// corpus or one that only carries lint diagnostics. Operational
    /// failures (bad arguments, unreadable files) exit `1` via the CLI's
    /// generic error path and never reach this classification.
    pub fn exit_code(&self) -> u8 {
        if self.tv_mismatches() > 0 || self.symbolic_refutations() > 0 {
            2
        } else {
            0
        }
    }

    /// Diagnostics at [`Severity::Warning`] or above.
    pub fn warnings(&self) -> usize {
        self.programs
            .iter()
            .flat_map(|p| &p.diagnostics)
            .filter(|d| d.severity >= Severity::Warning)
            .count()
    }

    /// Deterministic JSON rendering (golden baseline:
    /// `tests/golden/analyze.json`).
    pub fn to_json(&self) -> String {
        let summary = Object::block(4)
            .field("programs", self.programs.len())
            .field("tv_mismatches", self.tv_mismatches())
            .field("warnings", self.warnings());
        let report = Object::block(2)
            .field(
                "programs",
                array(self.programs.iter().map(program_json), Some(4)),
            )
            .field("summary", summary);
        format!("{report}\n")
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for p in &self.programs {
            let screen = p
                .screen
                .map(|v| format!(", screen: {}", v.label()))
                .unwrap_or_default();
            let symbolic = p
                .symbolic
                .as_ref()
                .map(|v| format!(", symbolic: {}", symbolic_label(v)))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "{} [{}]: {} TV mismatch(es), {} diagnostic(s){screen}{symbolic}",
                p.name,
                p.kind,
                p.tv_mismatches.len(),
                p.diagnostics.len()
            );
            for m in &p.tv_mismatches {
                let _ = writeln!(s, "  TV MISMATCH: {m}");
            }
            for d in &p.diagnostics {
                let _ = writeln!(s, "  {d}");
            }
            for (level, n) in &p.proven_dead {
                if *n > 0 {
                    let _ = writeln!(s, "  {n} branch edge(s) proven unreachable at {level}");
                }
            }
            for e in &p.imprecision {
                let _ = writeln!(s, "  imprecision: {e}");
            }
        }
        let _ = writeln!(
            s,
            "analyze: {} program(s), {} TV mismatch(es), {} warning(s)",
            self.programs.len(),
            self.tv_mismatches(),
            self.warnings()
        );
        s
    }
}

/// One-line rendering of a symbolic verdict for text and JSON output.
fn symbolic_label(v: &SymbolicVerdict) -> String {
    match v {
        SymbolicVerdict::Proved => "proved".to_string(),
        SymbolicVerdict::Refuted { level, site, .. } => format!("refuted at {site} ({level})"),
        SymbolicVerdict::Unknown { residuals } => {
            let sites: Vec<String> = residuals
                .iter()
                .map(|r| format!("{} ({})", r.site, r.level))
                .collect();
            format!("unknown: {}", sites.join(", "))
        }
    }
}

fn program_json(p: &ProgramAnalysis) -> Object {
    let diagnostics = p.diagnostics.iter().map(|d| Raw(d.to_json()));
    // A program without findings keeps its row on one line.
    let layout = (!p.diagnostics.is_empty()).then_some(6);
    Object::new()
        .field("name", &p.name)
        .field("kind", p.kind)
        .field("screen", p.screen.map(|v| v.label()))
        .field("tv_mismatches", array(&p.tv_mismatches, None))
        .field(
            "proven_dead_edges",
            Object::from_iter(p.proven_dead.iter().copied()),
        )
        .field("symbolic", p.symbolic.as_ref().map(symbolic_label))
        .field("imprecision", array(&p.imprecision, None))
        .field("diagnostics", array(diagnostics, layout))
}

fn lints_to_diags(name: &str, lints: &[LintRecord]) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = lints
        .iter()
        .map(|l| Diagnostic {
            program: name.to_string(),
            stage: l.stage,
            pc: l.pc,
            code: l.code,
            message: l.message.clone(),
            severity: severity_of(l.code),
        })
        .collect();
    sort_diagnostics(&mut out);
    out.dedup();
    out
}

/// Known-imprecision list for one compiled Domino pipeline: branch
/// edges the abstraction predicts live (under the campaign's input
/// bit-width) that a deterministic seeded campaign never hits. The
/// campaign shape (bit-widths 10 and 4, statically-keyed levels, 4 seeds
/// × 256 PHVs) mirrors the dead-edge cross-check in
/// `tests/analysis_soundness.rs`, so the two lists agree.
/// Entries are sorted and deduped; the list is a pure function of the
/// program.
fn imprecision_list(build: &ProgramBuild, len: usize) -> Vec<String> {
    use druzhba_core::coverage::edge_id;
    let mut out: Vec<String> = Vec::new();
    for bits in [10u32, 4] {
        let input = vec![AbsVal::bits(bits); len];
        for level in [OptLevel::SccInline, OptLevel::Fused] {
            let abs = build.abstraction(level, &input);
            let mut pipeline = build.pipeline(level).clone();
            pipeline.enable_coverage();
            for seed in 0..4u64 {
                let trace = druzhba_dsim::TrafficGenerator::new(seed, len, bits).trace(256);
                for phv in &trace.phvs {
                    pipeline.process(phv);
                }
            }
            let cov = pipeline.coverage().expect("coverage enabled");
            for &(site, event, outcome) in &abs.live_edges {
                let slot = edge_id(site, event, outcome) as usize % 4096;
                if cov.count(slot) == 0 {
                    out.push(format!(
                        "{}@{bits}bit (site={site:#x}, pc={event}, taken={outcome})",
                        level.key()
                    ));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Analyze one compiled Domino pipeline (name is only used for
/// labeling). Every product reads off one all-level build. With
/// `symbolic`, the report also carries the symbolic verdict of every
/// optimized backend against the source semantics.
pub fn analyze_compiled(
    name: &str,
    spec: &druzhba_dgen::pipeline::PipelineSpec,
    mc: &druzhba_core::MachineCode,
    observable: Option<&[usize]>,
    symbolic: bool,
) -> Result<ProgramAnalysis, String> {
    let build =
        ProgramBuild::new(spec, mc, &OptLevel::ALL).map_err(|(_, e)| format!("{name}: {e}"))?;
    let top = vec![AbsVal::top(); spec.config.phv_length];

    let tv_mismatches: Vec<String> = build
        .tv(&top)
        .iter()
        .map(|m| format!("{} vs source at {}", m.level.key(), m.site))
        .collect();

    let mut lints = build.abstraction(OptLevel::Unoptimized, &top).lints;
    lints.extend(build.symbolic_lints());
    let diagnostics = lints_to_diags(name, &lints);

    let proven_dead = [
        ("scc_inline", OptLevel::SccInline),
        ("fused", OptLevel::Fused),
    ]
    .map(|(label, level)| (label, build.abstraction(level, &top).dead_edges.len()))
    .to_vec();

    Ok(ProgramAnalysis {
        name: name.to_string(),
        kind: "domino",
        tv_mismatches,
        diagnostics,
        screen: Some(build.screen(observable)),
        proven_dead,
        imprecision: imprecision_list(&build, spec.config.phv_length),
        symbolic: symbolic.then(|| build.verdict()),
    })
}

/// Analyze one Table 1 Domino program (compiles via the shared cache).
pub fn analyze_domino_def(def: &ProgramDef, symbolic: bool) -> Result<ProgramAnalysis, String> {
    let compiled = def
        .compile_cached()
        .map_err(|e| format!("{}: {e}", def.name))?;
    let observable = compiled.observable_containers();
    analyze_compiled(
        def.name,
        &compiled.pipeline_spec,
        &compiled.machine_code,
        Some(&observable),
        symbolic,
    )
}

/// Analyze one P4 workload (parsed program + bound entries + lowering).
pub fn analyze_p4_workload(
    name: &str,
    workload: &P4Workload,
    symbolic: bool,
) -> Result<ProgramAnalysis, String> {
    let analysis = analyze_p4(&workload.hlir, &workload.entries, &workload.lowering)
        .map_err(|e| format!("{name}: {e}"))?;
    let tv_mismatches: Vec<String> = analysis
        .mismatches
        .iter()
        .map(|m| format!("lowered vs hlir at {}", m.site))
        .collect();
    Ok(ProgramAnalysis {
        name: name.to_string(),
        kind: "p4",
        tv_mismatches,
        diagnostics: lints_to_diags(name, &analysis.lints),
        screen: None,
        proven_dead: Vec::new(),
        imprecision: Vec::new(),
        symbolic: symbolic.then_some(analysis.symbolic),
    })
}

/// Analyze one P4 corpus program.
pub fn analyze_p4_def(def: &P4ProgramDef, symbolic: bool) -> Result<ProgramAnalysis, String> {
    let workload = def.workload().map_err(|e| format!("{}: {e}", def.name))?;
    analyze_p4_workload(def.name, &workload, symbolic)
}

/// Analyze the whole corpus in registry order (12 Domino, then 5 P4).
pub fn analyze_corpus(symbolic: bool) -> Result<CorpusAnalysis, String> {
    let mut programs = Vec::new();
    for def in &PROGRAMS {
        programs.push(analyze_domino_def(def, symbolic)?);
    }
    for def in &P4_PROGRAMS {
        programs.push(analyze_p4_def(def, symbolic)?);
    }
    Ok(CorpusAnalysis { programs })
}

/// Predicted-dead coverage edges for one Domino program at one backend,
/// assuming every input container carries at most `input_bits` bits —
/// the abstraction of a fuzz campaign's bounded traffic generator (pass
/// `>= 32` for an unconstrained input). Used by the dead-edge cross-check;
/// `None` for levels without statically-keyed edges.
pub fn predicted_dead_edges(
    def: &ProgramDef,
    level: OptLevel,
    input_bits: u32,
) -> Result<Option<Vec<druzhba_analysis::EdgeKey>>, String> {
    if !matches!(level, OptLevel::SccInline | OptLevel::Fused) {
        return Ok(None);
    }
    let compiled = def
        .compile_cached()
        .map_err(|e| format!("{}: {e}", def.name))?;
    let spec = &compiled.pipeline_spec;
    let container = if input_bits >= 32 {
        AbsVal::top()
    } else {
        AbsVal::bits(input_bits)
    };
    let input = vec![container; spec.config.phv_length];
    let abs = druzhba_analysis::analyze_pipeline(spec, &compiled.machine_code, level, &input)
        .map_err(|e| format!("{}: {e}", def.name))?;
    Ok(Some(abs.dead_edges))
}
