//! The four workloads: their inputs as a function of the seed, their
//! set-up, the one call into each campaign's public entry point, and the
//! checks on its report.

use druzhba::chipmunk::{CompiledProgram, CompiledSpec};
use druzhba::dgen::OptLevel;
use druzhba::dsim::p4::P4Workload;
use druzhba::dsim::snapshot::fnv1a;
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba::genhunt::{genhunt, GenHuntConfig, GenHuntReport};
use druzhba::hunt::{hunt, Detection, HuntConfig, HuntReport};
use druzhba::p4hunt::{p4_hunt_workloads, P4Detection, P4HuntConfig, P4HuntReport};
use druzhba::programs::{by_name, ProgramDef, P4_PROGRAMS, PROGRAMS};

/// The CLI's default campaign seed.
pub const DEFAULT_SEED: u64 = 0x000D_122B;

/// Worker threads of the pooled workloads: one per core of the
/// two-core host the bounds were set on.
pub const JOBS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Machine-code mutation hunt over the Domino corpus (paper §5.2).
    HuntCorpus,
    /// Clean differential sweep over generated Domino programs.
    GenSweep,
    /// Table-entry mutation hunt over the P4 corpus.
    P4Hunt,
    /// Exhaustive lane-swept verification of one corpus program.
    LaneVerify,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::HuntCorpus,
        Workload::GenSweep,
        Workload::P4Hunt,
        Workload::LaneVerify,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HuntCorpus => "hunt-corpus",
            Workload::GenSweep => "gen-sweep",
            Workload::P4Hunt => "p4-hunt",
            Workload::LaneVerify => "lane-verify",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the untraced campaign call.
    pub fn jobs(self) -> usize {
        match self {
            Workload::LaneVerify => 1,
            _ => JOBS,
        }
    }
}

/// What selects a workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// The benchmark seed.
    pub seed: u64,
    /// Shrink every workload to a few seconds (smoke testing).
    pub quick: bool,
}

/// The corpus hunt's configuration: the CLI default campaign with the
/// backend order picked by the seed. Task `i`'s fuzz seeds derive from
/// `i`, so the order decides which backend fuzzes and delta-debugs each
/// of a mutant's traffic streams. The mutant set stays the default's: the
/// few mutants whose delta debugging runs to thousands of checks would
/// otherwise make a campaign's cost swing by a factor of two between
/// seeds.
pub fn hunt_config(p: &Params, workers: usize) -> HuntConfig {
    let mut cfg = HuntConfig {
        seed: DEFAULT_SEED,
        levels: backend_order(p.seed),
        workers,
        ..HuntConfig::default()
    };
    if p.quick {
        cfg.programs = vec!["sampling".into(), "conga".into()];
        cfg.mutants_per_class = 1;
        cfg.fuzz_phvs = 800;
        cfg.fuzz_runs = 1;
    }
    cfg
}

/// The generated-program sweep's configuration: 600 fresh programs per
/// seed, no injected faults.
pub fn gen_config(p: &Params, workers: usize) -> GenHuntConfig {
    GenHuntConfig {
        count: if p.quick { 20 } else { 600 },
        seed: p.seed,
        faults_per_program: 0,
        workers,
        ..GenHuntConfig::default()
    }
}

/// The P4 hunt's configuration: eight mutants per fault class, the
/// backend order picked by the seed as for [`hunt_config`].
pub fn p4_config(p: &Params, workers: usize) -> P4HuntConfig {
    let mut cfg = P4HuntConfig {
        mutants_per_class: 8,
        seed: DEFAULT_SEED,
        levels: backend_order(p.seed),
        workers,
        ..P4HuntConfig::default()
    };
    if p.quick {
        cfg.mutants_per_class = 1;
        cfg.fuzz_phvs = 600;
    }
    cfg
}

/// One of the 24 orders of the four backends, picked by `seed`; the
/// default seed keeps the CLI's order.
pub fn backend_order(seed: u64) -> Vec<OptLevel> {
    let mut pool = OptLevel::ALL.to_vec();
    let mut k = seed.wrapping_sub(DEFAULT_SEED) % 24;
    let mut out = Vec::with_capacity(4);
    for radix in (1..=4u64).rev() {
        out.push(pool.remove((k % radix) as usize));
        k /= radix;
    }
    out
}

/// The program the lane sweep verifies.
pub const LANE_PROGRAM: &str = "rcp";

/// Lane-verify bounds: `rcp`'s one input field at 11 bits over two
/// packets (2^22 cases) on 64 lanes. The enumeration is exhaustive, so
/// the seed does not change it.
pub fn lane_verify_config(compiled: &CompiledProgram, quick: bool) -> VerifyConfig {
    let input_bits = if quick { 6 } else { 11 };
    let packets = 2;
    let relevant_containers: Vec<usize> = (0..compiled.input_fields.len()).collect();
    VerifyConfig {
        input_bits,
        packets,
        max_cases: 1u64 << (input_bits as usize * packets * relevant_containers.len()),
        relevant_containers,
        observable: Some(compiled.observable_containers()),
        state_cells: compiled.state_cells.clone(),
        lanes: 64,
    }
}

/// The lane-verify program's registry entry.
pub fn lane_program() -> &'static ProgramDef {
    by_name(LANE_PROGRAM).expect("rcp is a corpus program")
}

/// Deterministic summary of one campaign, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Tasks attempted.
    pub tasks: u64,
    /// Tasks whose verdict differs from the known answer, plus truncated
    /// and panicked-worker tasks.
    pub failed: u64,
    /// Counts the traced run must reproduce, as `(name, value)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// `name=value,...` rendering of [`Outcome::counts`].
    pub fn counts_line(&self) -> String {
        let parts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(",")
    }
}

/// Inputs built during set-up, before the campaign call.
pub enum Inputs {
    /// Compiled corpus (the hunt compiles through the process-wide cache,
    /// so set-up pays the synthesis and the campaign reuses it).
    HuntCorpus,
    /// Nothing to prepare: programs are generated inside the campaign.
    GenSweep,
    /// Lowered P4 corpus.
    P4Hunt(Vec<(String, P4Workload)>),
    /// Compiled `rcp` with its interpreter specification.
    LaneVerify(Box<(CompiledProgram, CompiledSpec)>),
}

/// Set-up: everything a campaign needs before its entry point is called.
pub fn setup(w: Workload) -> Result<Inputs, String> {
    Ok(match w {
        Workload::HuntCorpus => {
            for def in &PROGRAMS {
                def.compile_cached()
                    .map_err(|e| format!("{}: {e}", def.name))?;
            }
            Inputs::HuntCorpus
        }
        Workload::GenSweep => Inputs::GenSweep,
        Workload::P4Hunt => Inputs::P4Hunt(
            P4_PROGRAMS
                .iter()
                .map(|def| {
                    def.workload()
                        .map(|w| (def.name.to_string(), w))
                        .map_err(|e| format!("{}: {e}", def.name))
                })
                .collect::<Result<_, _>>()?,
        ),
        Workload::LaneVerify => {
            let def = lane_program();
            let compiled = def.compile_cached().map_err(|e| e.to_string())?;
            let spec = def.interpreter_spec(&compiled);
            Inputs::LaneVerify(Box::new((compiled, spec)))
        }
    })
}

/// A finished campaign's report.
pub enum Report {
    /// Corpus hunt.
    Hunt(HuntReport),
    /// Generated-program sweep.
    Gen(GenHuntReport),
    /// P4 hunt.
    P4(P4HuntReport),
    /// Lane-swept verification, with the number of cases in the domain.
    Verify(VerifyOutcome, u64),
}

/// The one timed call into the campaign entry point of the workload
/// whose set-up built `inputs`.
pub fn campaign(p: &Params, inputs: &mut Inputs) -> Result<Report, String> {
    Ok(match inputs {
        Inputs::HuntCorpus => Report::Hunt(hunt(&hunt_config(p, JOBS))?),
        Inputs::GenSweep => Report::Gen(genhunt(&gen_config(p, JOBS))?),
        Inputs::P4Hunt(targets) => Report::P4(p4_hunt_workloads(&p4_config(p, JOBS), targets)),
        Inputs::LaneVerify(inputs) => {
            let (compiled, spec) = &mut **inputs;
            let cfg = lane_verify_config(compiled, p.quick);
            let outcome = verify_bounded(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                OptLevel::Fused,
                spec,
                &cfg,
            )
            .map_err(|e| e.to_string())?;
            Report::Verify(outcome, cfg.max_cases)
        }
    })
}

impl Report {
    /// FNV-1a of the rendered report: equal digests mean byte-identical
    /// reports.
    pub fn digest(&self) -> u64 {
        let text = match self {
            Report::Hunt(r) => r.to_json(),
            Report::Gen(r) => r.to_json(),
            Report::P4(r) => r.to_json(),
            Report::Verify(o, _) => format!("{o:?}"),
        };
        fnv1a(text.as_bytes())
    }

    /// Tasks, failures against the known answers, and the counts the
    /// traced run must reproduce.
    pub fn outcome(&self) -> Outcome {
        match self {
            Report::Hunt(r) => {
                let worker_deaths = r
                    .outcomes
                    .iter()
                    .filter(|o| o.executions == 0 && matches!(o.detection, Detection::Panic { .. }))
                    .count();
                let checks: usize = r
                    .outcomes
                    .iter()
                    .filter_map(|o| o.minimized.as_ref())
                    .map(|m| m.checks)
                    .sum();
                let by = r.by_detector();
                let n = |k: &str| by.get(k).copied().unwrap_or(0) as u64;
                Outcome {
                    tasks: (r.evaluations() + r.truncated) as u64,
                    failed: n("none") + (r.truncated + worker_deaths) as u64,
                    counts: hunt_counts(
                        r.evaluations() as u64,
                        checks as u64,
                        &HUNT_DETECTORS,
                        n,
                        r.neutral_discarded as u64,
                    ),
                }
            }
            Report::Gen(r) => {
                let bad = r
                    .records
                    .iter()
                    .filter(|g| g.clean_divergences > 0 || g.alarming > 0 || g.panicked)
                    .count();
                let rows: Vec<(u64, u64, u64, u64)> = r
                    .records
                    .iter()
                    .map(|g| {
                        (
                            g.index,
                            u64::from(g.rejected),
                            u64::from(g.alarming),
                            g.clean_divergences as u64,
                        )
                    })
                    .collect();
                Outcome {
                    tasks: (r.programs() + r.truncated) as u64,
                    failed: (bad + r.truncated) as u64,
                    counts: gen_counts(&rows),
                }
            }
            Report::P4(r) => {
                let worker_deaths = r
                    .outcomes
                    .iter()
                    .filter(|o| {
                        o.executions == 0 && matches!(o.detection, P4Detection::Panic { .. })
                    })
                    .count();
                let checks: usize = r
                    .outcomes
                    .iter()
                    .filter_map(|o| o.minimized.as_ref())
                    .map(|m| m.checks)
                    .sum();
                let n = |k: &str| r.records.iter().filter(|x| x.detector == k).count() as u64;
                Outcome {
                    tasks: (r.evaluations() + r.truncated) as u64,
                    failed: n("none") + (r.truncated + worker_deaths) as u64,
                    counts: hunt_counts(
                        r.evaluations() as u64,
                        checks as u64,
                        &P4_DETECTORS,
                        n,
                        r.neutral_discarded as u64,
                    ),
                }
            }
            Report::Verify(o, domain) => {
                let cases = match o {
                    VerifyOutcome::Verified { cases } => *cases,
                    VerifyOutcome::CounterExample { .. } => 0,
                };
                Outcome {
                    tasks: *domain,
                    failed: domain - cases.min(*domain),
                    counts: vec![("cases", cases)],
                }
            }
        }
    }
}

/// Detector keys of the corpus hunt's report rows.
pub const HUNT_DETECTORS: [&str; 5] = ["fuzz", "witness", "verify", "panic", "none"];

/// Detector keys of the P4 hunt's report rows.
pub const P4_DETECTORS: [&str; 4] = ["fuzz", "witness", "panic", "none"];

/// Faithfulness counts of a mutation hunt: evaluations, ddmin checks,
/// evaluations per detector, and candidates screened out as neutral.
pub fn hunt_counts(
    evaluations: u64,
    checks: u64,
    detectors: &[&'static str],
    per_detector: impl Fn(&str) -> u64,
    neutral: u64,
) -> Vec<(&'static str, u64)> {
    let mut counts = vec![("evaluations", evaluations), ("checks", checks)];
    counts.extend(detectors.iter().map(|&d| (d, per_detector(d))));
    counts.push(("neutral", neutral));
    counts
}

/// Faithfulness counts of a generated-program sweep from per-program
/// `(index, rejected, alarming, clean divergences)` rows: the totals plus
/// a digest of the per-program rows.
pub fn gen_counts(rows: &[(u64, u64, u64, u64)]) -> Vec<(&'static str, u64)> {
    let text: String = rows
        .iter()
        .map(|(i, r, a, c)| format!("{i} {r} {a} {c}\n"))
        .collect();
    vec![
        ("programs", rows.len() as u64),
        ("rejected", rows.iter().map(|r| r.1).sum()),
        ("alarming", rows.iter().map(|r| r.2).sum()),
        ("clean_divergences", rows.iter().map(|r| r.3).sum()),
        ("rows_digest", fnv1a(text.as_bytes())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_orders_are_permutations() {
        let mut seen = std::collections::HashSet::new();
        for seed in DEFAULT_SEED..DEFAULT_SEED + 24 {
            let order = backend_order(seed);
            let mut sorted: Vec<&str> = order.iter().map(|l| l.key()).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, ["fused", "scc", "scc_inline", "unoptimized"]);
            seen.insert(order.iter().map(|l| l.key()).collect::<Vec<_>>().join(","));
        }
        assert_eq!(seen.len(), 24);
        assert_eq!(backend_order(DEFAULT_SEED), OptLevel::ALL.to_vec());
    }
}
