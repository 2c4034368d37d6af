//! The mutation-hunt driver shared by both fault campaigns: `druzhba hunt`
//! ([`crate::hunt`], machine-code faults, Domino corpus) and `druzhba
//! p4-fuzz --mutants` ([`crate::p4hunt`], table-entry faults, P4 corpus).
//!
//! Gauntlet and FP4 (PAPERS.md) score a compiler tester by its detection
//! power: seed known faults, count how many the workflow catches, report
//! the survivors. Each stack seeds and screens its mutants and runs one
//! fuzz round its own way; this module runs every mutant on every backend
//! on the resumable campaign engine ([`run_resumable`], DESIGN.md §11)
//! and owns the detection ladder, the [`MutantOutcome`], its
//! checkpoint [`EvalRecord`], and the [`Report`] with its JSON skeleton
//! (DESIGN.md §7). [`Detection::Fuzz`] and [`Detection::Witness`] stay
//! apart so the report is honest: a witness detection means "the fault is
//! real but this backend's fresh seeds missed it".

use std::collections::BTreeMap;
use std::fmt::Debug;

use druzhba_analysis::StaticFlag;
use druzhba_core::json::{array, Object, Raw, Value as _};
use druzhba_dgen::OptLevel;
use druzhba_dsim::minimize::MinimizedCounterExample;
use druzhba_dsim::runtime::{run_resumable, Campaign, RecordCodec, RuntimeOptions};
use druzhba_dsim::testing::{shard_seed, Verdict, VerdictClass};

/// The fault type one stack injects, with the constants that set the
/// stack's campaign apart.
pub trait HuntFault: Clone + Debug + Eq + Send + Sync {
    /// The fault's class (the report's `by_fault` key).
    type Kind: Copy + Ord + Debug;
    /// Snapshot kind and summary label (`hunt`, `p4-hunt`).
    const CAMPAIGN: &'static str;
    /// Salt of the per-task fuzz seeds.
    const SALT: u64;
    /// Whether evaluations carry the static analyzer's flag: a
    /// `static_flag` checkpoint column and row field.
    const STATIC_FLAG: bool;
    /// The fault's class.
    fn class(&self) -> Self::Kind;
    /// Stable snake_case key of a class.
    fn class_key(kind: Self::Kind) -> &'static str;
    /// Inverse of [`HuntFault::class_key`].
    fn class_from_key(key: &str) -> Option<Self::Kind>;
    /// The fault as a JSON object.
    fn json(&self) -> Object;
    /// Add the stack's extra fields to a row's `minimized` object (none
    /// by default).
    fn minimized_detail(_mce: &MinimizedCounterExample, minimized: Object) -> Object {
        minimized
    }
}

/// How (whether) one mutant evaluation detected its fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// Caught by fresh seeded fuzzing; the seed replays the failure via
    /// `druzhba fuzz --seed` (`p4-fuzz --seed`).
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
    /// Caught by bounded exhaustive verification (Domino stack only).
    Verify,
    /// The backend panicked evaluating this mutant. The panic-isolation
    /// layer captures it as a first-class detection (a crash *is* a
    /// compiler bug) instead of letting it abort the campaign; the seed
    /// replays the panicking run.
    Panic {
        /// The traffic seed of the panicking run.
        seed: u64,
    },
    /// Survived everything — under this budget the mutant is
    /// indistinguishable from the baseline (a mutation-testing
    /// "survivor").
    Undetected,
}

/// Every detector key, in [`Detection`] order.
const DETECTORS: [&str; 5] = ["fuzz", "witness", "verify", "panic", "none"];

impl Detection {
    /// Stable snake_case key (report + checkpoint codec).
    pub fn key(&self) -> &'static str {
        match self {
            Detection::Fuzz { .. } => "fuzz",
            Detection::Witness { .. } => "witness",
            Detection::Verify => "verify",
            Detection::Panic { .. } => "panic",
            Detection::Undetected => "none",
        }
    }

    /// The traffic seed that replays the detection, if it has one.
    pub fn seed(&self) -> Option<u64> {
        match *self {
            Detection::Fuzz { seed } | Detection::Witness { seed } | Detection::Panic { seed } => {
                Some(seed)
            }
            Detection::Verify | Detection::Undetected => None,
        }
    }
}

/// Outcome of evaluating one mutant on one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutantOutcome<F> {
    /// Corpus program name.
    pub program: String,
    /// The injected fault.
    pub fault: F,
    /// Backend evaluated.
    pub level: OptLevel,
    /// How the fault was detected, if at all.
    pub detection: Detection,
    /// How the static analyzer flagged the mutant without executing a
    /// packet (Domino stack only): `Structural` (machine-code validation
    /// rejects it), `Abstract`/`Symbolic` (its fingerprint differs from
    /// the baseline's), or `Unflagged`.
    pub static_flag: Option<StaticFlag>,
    /// Differential batches executed up to and including the detecting
    /// one (each fresh fuzz run, the witness replay, and the bounded
    /// verification pass count as one batch; the full budget when
    /// undetected).
    pub executions: usize,
    /// The observed divergence (`None` when undetected).
    pub verdict: Option<Verdict>,
    /// Minimized counterexample for the divergence (`None` when
    /// undetected).
    pub minimized: Option<MinimizedCounterExample>,
}

impl<F: HuntFault> MutantOutcome<F> {
    /// True if the fault was detected on this backend.
    pub fn detected(&self) -> bool {
        !matches!(self.detection, Detection::Undetected)
    }

    /// The report's `mutants[]` row.
    fn row_json(&self) -> Object {
        let minimized = self.minimized.as_ref().map(|mce| {
            let packets = mce.input.phvs.iter().map(|p| array(p.containers(), None));
            let head = Object::new()
                .field("original_packets", mce.original_packets)
                .field("packets", mce.packets())
                .field("input", array(packets, None));
            F::minimized_detail(mce, head).field("checks", mce.checks)
        });
        let mut row = Object::new()
            .field("program", &self.program)
            .field("fault", self.fault.json())
            .field("level", self.level.key());
        if let Some(flag) = self.static_flag {
            row = row.field("static_flag", flag.label());
        }
        row = row.field("detected_by", self.detection.key());
        if let Some(seed) = self.detection.seed() {
            row = row.field("seed", seed);
        }
        row.field("executions_to_detection", self.executions)
            .field("verdict", self.verdict.as_ref().map(|v| v.class().key()))
            .field("minimized", minimized)
    }
}

/// The checkpoint-stable projection of one completed evaluation: the
/// aggregate-relevant keys plus the fully-rendered `mutants[]` JSON row.
/// Records survive process death — a resumed campaign restores them
/// verbatim from the snapshot, so the final report is byte-identical to
/// an uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRecord<F: HuntFault> {
    /// Corpus program name.
    pub program: String,
    /// Injected fault class.
    pub fault_kind: F::Kind,
    /// Backend evaluated.
    pub level: OptLevel,
    /// Detector key (`"fuzz"`, `"witness"`, `"verify"`, `"panic"`,
    /// `"none"`).
    pub detector: &'static str,
    /// The static analyzer's verdict on the mutant (Domino stack only).
    pub static_flag: Option<StaticFlag>,
    /// Class of the observed verdict (`Pass` when undetected).
    pub verdict_class: VerdictClass,
    /// Differential batches executed (see
    /// [`MutantOutcome::executions`]).
    pub executions: usize,
    /// The rendered `mutants[]` row, carried verbatim through
    /// checkpoints.
    pub json: String,
}

impl<F: HuntFault> EvalRecord<F> {
    /// Project a fresh evaluation onto its checkpoint-stable record.
    fn of(o: &MutantOutcome<F>) -> Self {
        EvalRecord {
            program: o.program.clone(),
            fault_kind: o.fault.class(),
            level: o.level,
            detector: o.detection.key(),
            static_flag: o.static_flag,
            verdict_class: o
                .verdict
                .as_ref()
                .map_or(VerdictClass::Pass, Verdict::class),
            executions: o.executions,
            json: o.row_json().to_string(),
        }
    }
}

/// One checkpoint line per task: tab-separated keys (the static flag only
/// on stacks that compute one), the JSON row last, indented as in the
/// report. The row never holds a raw tab or newline (strings are
/// JSON-escaped; snapshot escaping covers the rest).
impl<F: HuntFault> RecordCodec for EvalRecord<F> {
    fn encode(&self, idx: usize) -> Option<String> {
        let mut cols = vec![
            idx.to_string(),
            self.program.clone(),
            F::class_key(self.fault_kind).to_string(),
            self.level.key().to_string(),
            self.detector.to_string(),
        ];
        cols.extend(self.static_flag.map(|flag| flag.label().to_string()));
        cols.extend([
            self.verdict_class.key().to_string(),
            self.executions.to_string(),
            format!("{ROW_INDENT}{}", self.json),
        ]);
        Some(cols.join("\t"))
    }

    fn decode(line: &str) -> Option<(usize, Self)> {
        let mut parts = line.splitn(8 + usize::from(F::STATIC_FLAG), '\t');
        let idx = parts.next()?.parse().ok()?;
        let program = parts.next()?.to_string();
        let fault_kind = F::class_from_key(parts.next()?)?;
        let level = OptLevel::from_key(parts.next()?)?;
        let key = parts.next()?;
        let detector = DETECTORS.into_iter().find(|k| *k == key)?;
        let static_flag = if F::STATIC_FLAG {
            Some(StaticFlag::from_label(parts.next()?)?)
        } else {
            None
        };
        let record = EvalRecord {
            program,
            fault_kind,
            level,
            detector,
            static_flag,
            verdict_class: VerdictClass::from_key(parts.next()?)?,
            executions: parts.next()?.parse().ok()?,
            json: parts.next()?.strip_prefix(ROW_INDENT)?.to_string(),
        };
        Some((idx, record))
    }
}

/// Aggregate result of a mutation hunt; `C` is the stack's config.
#[derive(Debug, Clone)]
pub struct Report<F: HuntFault, C> {
    /// One record per *completed* (program, mutant, level) evaluation, in
    /// deterministic campaign order. The canonical source for every
    /// aggregate and for the JSON `mutants[]` array — resumed campaigns
    /// restore records from the checkpoint without re-evaluating.
    pub records: Vec<EvalRecord<F>>,
    /// Structured outcomes for the evaluations performed *by this
    /// process*. A resumed campaign omits restored evaluations here
    /// (their rows live on in `records`); an uninterrupted campaign has
    /// one outcome per record.
    pub outcomes: Vec<MutantOutcome<F>>,
    /// Evaluations skipped because the wall-clock budget expired. `> 0`
    /// marks the report as partial (`"truncated"` in the JSON).
    pub truncated: usize,
    /// Candidates discarded by screening as behaviorally neutral
    /// (mutation testing's "equivalent mutants").
    pub neutral_discarded: usize,
    /// The configuration that produced the report (echoed into the JSON).
    pub config: C,
}

impl<F: HuntFault, C> Report<F, C> {
    /// Total completed evaluations.
    pub fn evaluations(&self) -> usize {
        self.records.len()
    }

    /// Detected evaluations.
    pub fn detected(&self) -> usize {
        self.records.iter().filter(|r| r.detector != "none").count()
    }

    /// Evaluations that survived the whole workflow. Covers only this
    /// process's evaluations (see [`Report::outcomes`]); restored
    /// survivors are still counted by every aggregate.
    pub fn undetected(&self) -> Vec<&MutantOutcome<F>> {
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

    /// Evaluation count per detector (`"fuzz"`, `"witness"`, `"verify"`,
    /// `"panic"`, `"none"`).
    pub fn by_detector(&self) -> BTreeMap<&'static str, usize> {
        tally(self.records.iter().map(|r| r.detector))
    }

    /// `(total, detected)` per fault class.
    pub fn by_fault_kind(&self) -> BTreeMap<F::Kind, (usize, usize)> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            let e = out.entry(r.fault_kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += usize::from(r.detector != "none");
        }
        out
    }

    /// Evaluations whose mutant the static analyzer flagged (structurally,
    /// abstractly or symbolically) without executing a packet.
    pub fn static_flagged(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.static_flag.is_some_and(|f| f != StaticFlag::Unflagged))
            .count()
    }

    /// Evaluation count per static flag (`"structural"`, `"abstract"`,
    /// `"symbolic"`, `"none"`).
    pub fn by_static_flag(&self) -> BTreeMap<&'static str, usize> {
        tally(
            self.records
                .iter()
                .filter_map(|r| r.static_flag)
                .map(StaticFlag::label),
        )
    }

    /// Failure taxonomy: evaluation count per observed verdict class
    /// (snake_case keys; undetected evaluations count under `"pass"`).
    pub fn taxonomy(&self) -> BTreeMap<&'static str, usize> {
        tally(self.records.iter().map(|r| r.verdict_class.key()))
    }

    /// The summary both stacks open with.
    pub(crate) fn summary_head(&self) -> Object {
        Object::block(4)
            .field("evaluations", self.evaluations())
            .field("truncated", self.truncated)
            .field("detected", self.detected())
            .field("detection_rate", rate(self.detection_rate()))
    }

    /// The summary's `by_fault` object.
    pub(crate) fn by_fault(&self) -> Object {
        self.by_fault_kind()
            .into_iter()
            .map(|(kind, (total, detected))| {
                let counts = Object::new()
                    .field("total", total)
                    .field("detected", detected);
                (F::class_key(kind), counts)
            })
            .collect()
    }
}

/// The indent a checkpoint line keeps before its report row: snapshot
/// format v1 stores the row as the report indents it.
pub(crate) const ROW_INDENT: &str = "    ";

/// A campaign report document: the `config` and `summary` objects, then
/// the pre-rendered rows as the `rows_key` array.
pub(crate) fn render_report<'a>(
    config: Object,
    summary: Object,
    rows_key: &str,
    rows: impl Iterator<Item = &'a str>,
) -> String {
    let rows = array(rows.map(|r| Raw(r.to_string())), Some(4));
    let report = Object::block(2)
        .field("config", config)
        .field("summary", summary)
        .field(rows_key, rows);
    let mut out = String::new();
    report.write_json(&mut out);
    out.push('\n');
    out
}

/// A rate as the reports print it: four decimals.
pub(crate) fn rate(r: f64) -> Raw {
    Raw(format!("{r:.4}"))
}

/// How often each key occurs.
fn tally<K: Ord>(keys: impl Iterator<Item = K>) -> BTreeMap<K, usize> {
    let mut out = BTreeMap::new();
    for k in keys {
        *out.entry(k).or_insert(0) += 1;
    }
    out
}

/// Salt of the screening probes' seeds (`"SCRN"`), shared by both stacks.
pub(crate) const SCREEN_SALT: u64 = 0x5343_524E;

/// What the driver reads off a stack's flat config.
pub(crate) struct Settings<'a> {
    /// Campaign seed; every per-task seed derives from it.
    pub seed: u64,
    /// Backends every mutant is evaluated on.
    pub levels: &'a [OptLevel],
    /// Fresh fuzz runs per evaluation.
    pub fuzz_runs: usize,
    /// Cap on differential batches per evaluation (`None` = the full
    /// ladder).
    pub case_budget: Option<usize>,
    /// Worker threads.
    pub workers: usize,
    /// Checkpoint/resume/budget options.
    pub runtime: &'a RuntimeOptions,
    /// Fingerprint of the result-relevant configuration (runtime options
    /// excluded, so a resumed run may change them).
    pub fingerprint: u64,
}

/// One seeded mutant awaiting evaluation.
pub(crate) struct Mutant<F, P> {
    /// Index of its program in the stack's target list.
    pub program: usize,
    /// The injected fault.
    pub fault: F,
    /// What the stack runs: mutated machine code, or table entries.
    pub payload: P,
    /// The static analyzer's verdict (computed once at seeding time;
    /// level-independent; Domino stack only).
    pub static_flag: Option<StaticFlag>,
    /// Traffic seed under which the screening probe saw the divergence
    /// (`None` when the probe needed no traffic or only bounded
    /// verification caught it).
    pub witness: Option<u64>,
}

/// What one diverging round observed: the verdict and, unless the backend
/// panicked, the minimized counterexample.
pub(crate) type Divergence = (Verdict, Option<MinimizedCounterExample>);

/// One evaluation's detection schedule, capped by the per-case budget:
/// `fuzz_runs` fresh seeded rounds, then the screening witness, then
/// optionally bounded verification. Every step is one differential batch;
/// steps past the cap are skipped and the evaluation reports whatever its
/// budget allowed. Deterministic — the cap counts batches, it does not
/// time them.
pub(crate) struct Ladder<F> {
    task_seed: u64,
    fuzz_runs: usize,
    budget: usize,
    witness: Option<u64>,
    /// The task's outcome so far: undetected, nothing executed.
    outcome: MutantOutcome<F>,
}

impl<F> Ladder<F> {
    /// Climb the ladder. `round(Some(seed))` runs one fuzz round,
    /// `round(None)` the verification step (only asked for when `verify`
    /// is set); the first divergence ends the evaluation.
    pub(crate) fn run(
        self,
        verify: bool,
        mut round: impl FnMut(Option<u64>) -> Option<Divergence>,
    ) -> MutantOutcome<F> {
        let fresh = (0..self.fuzz_runs).map(|run| Detection::Fuzz {
            seed: shard_seed(self.task_seed, run as u64),
        });
        let steps = fresh
            .chain(self.witness.map(|seed| Detection::Witness { seed }))
            .chain(verify.then_some(Detection::Verify))
            .take(self.budget);
        let mut outcome = self.outcome;
        for step in steps {
            outcome.executions += 1;
            if let Some((verdict, minimized)) = round(step.seed()) {
                outcome.detection = match (&verdict, step.seed()) {
                    (Verdict::BackendPanic { .. }, Some(seed)) => Detection::Panic { seed },
                    _ => step,
                };
                outcome.verdict = Some(verdict);
                outcome.minimized = minimized;
                break;
            }
        }
        outcome
    }
}

/// Evaluate every seeded mutant on every backend. Every (mutant, level)
/// pair is one task; task order (and thus record order and every per-task
/// seed) is a pure function of the configuration, so restored and fresh
/// evaluations interleave into the exact report an uninterrupted run
/// produces, whatever the worker count. `names` maps a mutant's program
/// index to its name; `evaluate` climbs one task's ladder.
pub(crate) fn run<F: HuntFault, P: Sync, C>(
    s: &Settings<'_>,
    names: &[&str],
    mutants: &[Mutant<F, P>],
    neutral_discarded: usize,
    config: C,
    evaluate: impl Fn(&Mutant<F, P>, OptLevel, Ladder<F>) -> MutantOutcome<F> + Sync,
) -> Report<F, C> {
    let tasks: Vec<(&Mutant<F, P>, OptLevel)> = mutants
        .iter()
        .flat_map(|m| s.levels.iter().map(move |&l| (m, l)))
        .collect();
    let task_seed = |gi: usize| shard_seed(s.seed ^ F::SALT, gi as u64);
    let undetected = |gi: usize| {
        let (m, level) = tasks[gi];
        MutantOutcome {
            program: names[m.program].to_string(),
            fault: m.fault.clone(),
            level,
            detection: Detection::Undetected,
            static_flag: m.static_flag,
            executions: 0,
            verdict: None,
            minimized: None,
        }
    };
    let campaign = Campaign {
        kind: F::CAMPAIGN,
        fingerprint: s.fingerprint,
        total: tasks.len(),
        workers: s.workers,
        runtime: s.runtime,
    };
    let out = run_resumable(
        &campaign,
        |gi| {
            let (m, level) = tasks[gi];
            let ladder = Ladder {
                task_seed: task_seed(gi),
                fuzz_runs: s.fuzz_runs,
                budget: s.case_budget.unwrap_or(usize::MAX).max(1),
                witness: m.witness,
                outcome: undetected(gi),
            };
            evaluate(m, level, ladder)
        },
        EvalRecord::of,
        // A worker that dies at the pool level (a panic escaping the
        // per-case guards) still yields a per-task row instead of sinking
        // the campaign: the panic becomes a `Detection::Panic` outcome.
        |gi, payload| MutantOutcome {
            detection: Detection::Panic {
                seed: shard_seed(task_seed(gi), 0),
            },
            verdict: Some(Verdict::BackendPanic {
                payload: payload.to_string(),
            }),
            ..undetected(gi)
        },
    );
    Report {
        records: out.records,
        outcomes: out.fresh,
        truncated: out.truncated,
        neutral_discarded,
        config,
    }
}
