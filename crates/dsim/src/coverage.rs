//! Coverage-guided greybox fuzzing shared by both differential stacks.
//!
//! The blind random workflows ([`crate::testing::fuzz_run`] on either
//! stack's [`Target`]) sample every input independently; FP4 and
//! Gauntlet (PAPERS.md) show that *feedback-driven* generation finds
//! deeper compiler bugs with far fewer executions. This module is that
//! feedback loop:
//!
//! 1. every differential execution records an AFL-style edge-coverage map
//!    ([`CoverageMap`], instrumented into all four ALU backends and the
//!    P4 match-action engine);
//! 2. inputs that reach new coverage (a higher hit-count *bucket* on any
//!    edge, [`CoverageMap::accumulate_buckets`]) join a seed **corpus** of
//!    at most 64 inputs, which evicts its oldest seed when full;
//! 3. the next parent is a uniform draw from the corpus (a rarity-weighted
//!    power schedule never beat it on the `greybox` bench);
//! 4. a deterministic **mutation stack** (bit flips, boundary values,
//!    packet duplication/removal/splicing — and, on the P4 side,
//!    entry-pattern resampling and table-entry mutations) derives the
//!    child input;
//! 5. the loop runs in sharded **rounds** over [`run_sharded`]: each
//!    round, every worker runs 64 executions independently from the
//!    shared corpus snapshot, then the shards' discoveries are merged
//!    deterministically (shard order, then discovery order) before the
//!    next round — periodic cross-shard corpus merging without any
//!    locking.
//!
//! Every execution is one guarded check of the stack's checker
//! ([`AluChecker`] on the tick-accurate simulator, [`P4Checker`]) with
//! coverage capture switched on.
//!
//! Everything is a pure function of `(GreyboxConfig, worker count)`: the
//! per-shard RNG streams derive from [`shard_seed`], merging is ordered,
//! and no wall-clock or pointer-dependent state participates — the same
//! seed and `--jobs` reproduce a byte-identical report.
//!
//! ```
//! use druzhba_alu_dsl::atoms::atom;
//! use druzhba_core::{MachineCode, Phv, PipelineConfig};
//! use druzhba_dgen::{expected_machine_code, OptLevel, PipelineSpec};
//! use druzhba_dsim::coverage::{greybox_fuzz_test, GreyboxConfig};
//! use druzhba_dsim::testing::ClosureSpec;
//!
//! // 1-stage accumulator (see `testing::fuzz_test`), fuzzed greybox-style.
//! let spec = PipelineSpec::new(
//!     PipelineConfig::with_phv_length(1, 1, 2),
//!     atom("raw").unwrap(),
//!     atom("stateless_mux").unwrap(),
//! )
//! .unwrap();
//! let mut mc = MachineCode::from_pairs(
//!     expected_machine_code(&spec).into_iter().map(|(n, _)| (n, 0)),
//! );
//! mc.set("output_mux_phv_0_1", 2);
//! let make_spec = || {
//!     ClosureSpec::new(
//!         0u32,
//!         |state: &mut u32, input: &Phv| {
//!             let old = *state;
//!             *state = state.wrapping_add(input.get(0));
//!             Phv::new(vec![input.get(0), old])
//!         },
//!         |s| vec![*s],
//!     )
//! };
//! let cfg = GreyboxConfig { executions: 60, workers: 2, ..GreyboxConfig::default() };
//! let report = greybox_fuzz_test(&spec, &mc, OptLevel::Fused, make_spec, None, &[], &cfg);
//! assert!(report.passed());
//! assert!(report.edges_covered > 0);
//! assert!(report.corpus_size >= 1);
//! ```

use std::time::Instant;

use druzhba_core::value::max_for_bits;
use druzhba_core::{MachineCode, Phv, Trace, Value, ValueGen};
use druzhba_dgen::{OptLevel, PipelineSpec};
use druzhba_p4::tables::{parse_entries, render_entry, TableEntry};

pub use druzhba_core::coverage::{bucket, edge_id, CoverageMap, COVERAGE_MAP_SIZE};

use crate::minimize::MinimizedCounterExample;
use crate::p4::{materialize_pattern, P4Checker, P4Target, P4Traffic, P4Workload};
use crate::runtime::{default_workers, RuntimeOptions};
use crate::snapshot;
use crate::testing::{
    minimizable, run_sharded, shard_seed, AluChecker, AluTarget, Specification, Target, Verdict,
};

// ----------------------------------------------------------------------
// Configuration and reports.
// ----------------------------------------------------------------------

/// Configuration of a greybox campaign.
///
/// The defaults favor many small executions over few large ones — the
/// opposite trade from [`crate::testing::FuzzConfig`]'s 50 000-PHV
/// batches — because the guidance signal is per *execution*: short traces
/// mutate meaningfully and diverging executions pinpoint faults cheaply.
///
/// ```
/// use druzhba_dsim::coverage::GreyboxConfig;
/// let cfg = GreyboxConfig { executions: 500, ..GreyboxConfig::default() };
/// assert_eq!(cfg.executions, 500);
/// assert!(cfg.packets < 100, "greybox favors short traces");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreyboxConfig {
    /// Total differential-execution budget across all shards.
    pub executions: usize,
    /// Packets per *initial* seed input.
    pub packets: usize,
    /// Hard cap on mutated trace length (duplication/appending stops
    /// there; shrinking may go down to one packet). `0` means the
    /// default of `4 × packets`; benchmarks comparing against fixed-size
    /// random batches pin this to `packets` for a strictly equal
    /// per-execution budget.
    pub max_packets: usize,
    /// Campaign seed: corpus seeding, scheduling draws, and every
    /// mutation derive from it.
    pub seed: u64,
    /// Bit-width cap on generated/mutated container values (the P4 side
    /// additionally caps each field at its declared width).
    pub input_bits: u32,
    /// Worker threads per round (clamped to the remaining budget).
    pub workers: usize,
    /// Minimize the diverging input on failure (shared delta-debugging
    /// engine; see [`mod@crate::minimize`]).
    pub minimize: bool,
    /// Crash-resilience options: checkpoint/resume and wall-clock budget
    /// (see [`RuntimeOptions`]). Excluded from the snapshot fingerprint,
    /// so a resumed campaign may move its checkpoint directory or change
    /// its budget without orphaning the snapshot.
    pub runtime: RuntimeOptions,
}

/// Seed-pool capacity; when full, the oldest seed is evicted.
const CORPUS_MAX: usize = 64;
/// Executions each shard runs between corpus merges.
const MERGE_EVERY: usize = 64;
/// Fresh (unmutated) traffic inputs seeded before the guided loop.
const INITIAL_SEEDS: usize = 4;

impl Default for GreyboxConfig {
    fn default() -> Self {
        GreyboxConfig {
            executions: 2_000,
            packets: 24,
            max_packets: 0,
            seed: 0x000D_122B,
            input_bits: 10,
            workers: default_workers(),
            minimize: true,
            runtime: RuntimeOptions::default(),
        }
    }
}

/// Report of one greybox campaign — the guided analog of
/// [`crate::testing::FuzzReport`], extended with the coverage statistics
/// the hunt JSON schema surfaces (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreyboxReport {
    /// Campaign seed, echoed for replay.
    pub seed: u64,
    /// Differential executions actually performed.
    pub executions: usize,
    /// Distinct coverage-map edges reached across the whole campaign.
    pub edges_covered: usize,
    /// Seed-corpus size at the end of the campaign.
    pub corpus_size: usize,
    /// Merge rounds completed (shards re-synchronized after each).
    pub rounds: usize,
    /// Execution ordinal (1-based) of the first divergence, if any —
    /// the "executions-to-first-divergence" metric `BENCH_greybox.json`
    /// compares against blind random sampling.
    pub first_divergence: Option<usize>,
    /// The verdict: `Pass` when the budget ran dry without divergence.
    pub verdict: Verdict,
    /// The diverging input trace (pre-minimization), if any.
    pub diverging_input: Option<Trace>,
    /// The mutated table entries active at the divergence (P4 campaigns
    /// with entry mutation only).
    pub diverging_entries: Option<Vec<TableEntry>>,
    /// Minimized counterexample ([`GreyboxConfig::minimize`]).
    pub minimized: Option<MinimizedCounterExample>,
    /// True if the wall-clock budget expired before the execution budget:
    /// the statistics cover only the rounds that completed.
    pub truncated: bool,
}

/// Resolve [`GreyboxConfig::max_packets`]'s `0`-means-default encoding.
fn effective_max_packets(cfg: &GreyboxConfig) -> usize {
    if cfg.max_packets == 0 {
        cfg.packets.max(1) * 4
    } else {
        cfg.max_packets.max(1)
    }
}

impl GreyboxReport {
    /// True if no divergence was found.
    pub fn passed(&self) -> bool {
        self.verdict.passed()
    }
}

// ----------------------------------------------------------------------
// The input model: seeding and mutation.
// ----------------------------------------------------------------------

/// How a workflow seeds fresh inputs and mutates corpus entries. The
/// engine is generic over this so both stacks (packet traces for the ALU
/// path; packets *plus table entries* for the P4 path) share the
/// scheduler.
pub trait InputModel: Sync {
    /// The input an oracle executes.
    type Input: Clone + Send + Sync;
    /// A fresh, unmutated input (the corpus bootstrap).
    fn seed_input(&self, rng: &mut ValueGen, packets: usize) -> Self::Input;
    /// Apply one deterministic mutation stack step in place.
    fn mutate(&self, rng: &mut ValueGen, input: &mut Self::Input);
    /// Serialize an input to a single line (no `\n`) for corpus
    /// checkpoints. [`InputModel::decode_input`] must invert this
    /// exactly — resumed campaigns replay scheduling decisions over the
    /// decoded corpus, so a lossy codec silently breaks determinism.
    fn encode_input(&self, input: &Self::Input) -> String;
    /// Parse [`InputModel::encode_input`] output; `None` rejects a
    /// corrupt or foreign line (the snapshot is then discarded).
    fn decode_input(&self, s: &str) -> Option<Self::Input>;
}

/// Packet traces serialize as `|`-separated packets of `,`-separated
/// decimal container values — compact, line-safe, and byte-stable.
fn encode_trace(trace: &Trace) -> String {
    trace
        .phvs
        .iter()
        .map(|phv| {
            (0..phv.len())
                .map(|c| phv.get(c).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Inverse of [`encode_trace`]; `None` on any malformed value.
fn decode_trace(s: &str) -> Option<Trace> {
    let mut phvs = Vec::new();
    for packet in s.split('|') {
        let values: Option<Vec<Value>> = packet.split(',').map(|v| v.parse().ok()).collect();
        phvs.push(Phv::new(values?));
    }
    Some(Trace::from_phvs(phvs))
}

/// Mutate one packet trace in place: the shared packet-level mutation
/// stack (bit flips, boundary values, redraws, cross-packet splices,
/// duplication, removal). `width_of(container)` bounds each container's
/// values; `None` containers are never touched (P4 metadata/drop flag).
fn mutate_trace(
    rng: &mut ValueGen,
    trace: &mut Trace,
    width_of: &dyn Fn(usize) -> Option<u32>,
    max_packets: usize,
    fresh_phv: &mut dyn FnMut(&mut ValueGen) -> Phv,
) {
    if trace.phvs.is_empty() {
        trace.phvs.push(fresh_phv(rng));
        return;
    }
    let pick_container = |rng: &mut ValueGen, phv_len: usize| -> Option<usize> {
        // Rejection-sample a mutable container; bounded so fully-frozen
        // layouts (all metadata) terminate.
        for _ in 0..8 {
            let c = rng.value_below(phv_len as Value) as usize;
            if width_of(c).is_some() {
                return Some(c);
            }
        }
        None
    };
    let stacked = 1 + rng.value_below(3);
    for _ in 0..stacked {
        let n = trace.phvs.len();
        let i = rng.value_below(n as Value) as usize;
        match rng.value_below(8) {
            // Bit flip within the container's width.
            0 => {
                if let Some(c) = pick_container(rng, trace.phvs[i].len()) {
                    let bits = width_of(c).unwrap_or(1).max(1);
                    let bit = rng.value_below(bits as Value);
                    let v = trace.phvs[i].get(c) ^ (1 << bit);
                    trace.phvs[i].set(c, v & max_for_bits(bits));
                }
            }
            // Boundary values: zero and the width maximum.
            1 => {
                if let Some(c) = pick_container(rng, trace.phvs[i].len()) {
                    trace.phvs[i].set(c, 0);
                }
            }
            2 => {
                if let Some(c) = pick_container(rng, trace.phvs[i].len()) {
                    let bits = width_of(c).unwrap_or(0);
                    trace.phvs[i].set(c, max_for_bits(bits));
                }
            }
            // Redraw one container uniformly.
            3 => {
                if let Some(c) = pick_container(rng, trace.phvs[i].len()) {
                    let bits = width_of(c).unwrap_or(0);
                    trace.phvs[i].set(c, rng.value() & max_for_bits(bits));
                }
            }
            // Splice: copy a container value from another packet (state
            // bugs often need the *same* value to recur).
            4 => {
                let j = rng.value_below(n as Value) as usize;
                if let Some(c) = pick_container(rng, trace.phvs[i].len()) {
                    let v = trace.phvs[j].get(c);
                    trace.phvs[i].set(c, v);
                }
            }
            // Duplicate a packet (bounded).
            5 => {
                if n < max_packets {
                    let dup = trace.phvs[i].clone();
                    trace.phvs.insert(i, dup);
                }
            }
            // Remove a packet (never below one).
            6 => {
                if n > 1 {
                    trace.phvs.remove(i);
                }
            }
            // Append a fresh packet (re-seeds entropy mid-trace).
            _ => {
                if n < max_packets {
                    let phv = fresh_phv(rng);
                    trace.phvs.push(phv);
                }
            }
        }
    }
}

/// The ALU-stack input model: traces of uniform random PHVs under a fixed
/// bit width, mutated by the shared packet stack.
pub struct AluTraceModel {
    /// PHV length of the pipeline under test.
    pub phv_length: usize,
    /// Bit-width cap on container values.
    pub input_bits: u32,
    /// Hard cap on mutated trace length.
    pub max_packets: usize,
}

impl InputModel for AluTraceModel {
    type Input = Trace;

    fn seed_input(&self, rng: &mut ValueGen, packets: usize) -> Trace {
        let seed = (u64::from(rng.value()) << 32) | u64::from(rng.value());
        crate::traffic::TrafficGenerator::new(seed, self.phv_length, self.input_bits)
            .trace(packets.max(1))
    }

    fn mutate(&self, rng: &mut ValueGen, trace: &mut Trace) {
        let bits = self.input_bits;
        let phv_length = self.phv_length;
        mutate_trace(rng, trace, &|_c| Some(bits), self.max_packets, &mut |rng| {
            Phv::new(
                (0..phv_length)
                    .map(|_| rng.value() & max_for_bits(bits))
                    .collect(),
            )
        });
    }

    fn encode_input(&self, input: &Trace) -> String {
        encode_trace(input)
    }

    fn decode_input(&self, s: &str) -> Option<Trace> {
        decode_trace(s)
    }
}

/// One greybox input on the P4 stack: a packet trace plus the table
/// entries both executions run under. Entries are only mutated when the
/// model's `mutate_entries` is on (sound because the oracle installs the
/// *same* entries on both sides — a divergence is still a compiler bug,
/// now searched over the entry space too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P4GreyboxInput {
    /// The packet trace (PHVs under the workload's field layout).
    pub trace: Trace,
    /// The table entries installed on *both* sides for this execution.
    pub entries: Vec<TableEntry>,
}

/// The P4-stack input model: entry-aware packets (fields resample
/// installed entry patterns, mirroring [`P4Traffic`]'s bias) and an
/// optional table-entry mutation dimension.
pub struct P4TraceModel<'a> {
    workload: &'a P4Workload,
    input_bits: u32,
    mutate_entries: bool,
    max_packets: usize,
    /// The per-container widths (`None` = frozen metadata/drop) and
    /// entry-derived pattern templates of the workload's traffic.
    traffic: P4Traffic,
}

impl<'a> P4TraceModel<'a> {
    /// A model over the workload's layout and intended entries.
    pub fn new(
        workload: &'a P4Workload,
        input_bits: u32,
        mutate_entries: bool,
        max_packets: usize,
    ) -> Self {
        P4TraceModel {
            workload,
            input_bits,
            mutate_entries,
            max_packets,
            traffic: P4Traffic::new(workload, 0, input_bits),
        }
    }
}

impl InputModel for P4TraceModel<'_> {
    type Input = P4GreyboxInput;

    fn seed_input(&self, rng: &mut ValueGen, packets: usize) -> P4GreyboxInput {
        let seed = (u64::from(rng.value()) << 32) | u64::from(rng.value());
        P4GreyboxInput {
            trace: P4Traffic::new(self.workload, seed, self.input_bits).trace(packets.max(1)),
            entries: if self.mutate_entries {
                self.workload.entries.clone()
            } else {
                Vec::new()
            },
        }
    }

    fn mutate(&self, rng: &mut ValueGen, input: &mut P4GreyboxInput) {
        // One draw in four mutates the entry dimension when enabled; the
        // rest mutate packets.
        if self.mutate_entries && !input.entries.is_empty() && rng.value_below(4) == 0 {
            let i = rng.value_below(input.entries.len() as Value) as usize;
            let entry = &mut input.entries[i];
            let flip = 1 + rng.value_below(7);
            if !entry.args.is_empty() && rng.value_below(2) == 0 {
                let a = rng.value_below(entry.args.len() as Value) as usize;
                entry.args[a] ^= flip;
            } else if !entry.matches.is_empty() {
                let m = rng.value_below(entry.matches.len() as Value) as usize;
                entry.matches[m].value ^= flip;
            }
            return;
        }
        let widths = &self.traffic.widths;
        let candidates = &self.traffic.candidates;
        let width_of = |c: usize| widths.get(c).copied().flatten();
        let mut fresh = |rng: &mut ValueGen| -> Phv {
            Phv::new(
                (0..widths.len())
                    .map(|c| match widths[c] {
                        Some(bits) => rng.value() & max_for_bits(bits),
                        None => 0,
                    })
                    .collect(),
            )
        };
        // Half the packet mutations resample an entry pattern into a
        // matched-on field — the greybox analog of P4Traffic's bias.
        if rng.value_below(2) == 0 && !input.trace.phvs.is_empty() {
            let biased: Vec<usize> = (0..widths.len())
                .filter(|&c| widths[c].is_some() && !candidates[c].is_empty())
                .collect();
            if !biased.is_empty() {
                let c = biased[rng.value_below(biased.len() as Value) as usize];
                let p = candidates[c][rng.value_below(candidates[c].len() as Value) as usize];
                let i = rng.value_below(input.trace.phvs.len() as Value) as usize;
                let v = materialize_pattern(&p, rng);
                input.trace.phvs[i].set(c, v);
                return;
            }
        }
        mutate_trace(
            rng,
            &mut input.trace,
            &width_of,
            self.max_packets,
            &mut fresh,
        );
    }

    fn encode_input(&self, input: &P4GreyboxInput) -> String {
        // Trace, then one rendered entry per tab. Entries round-trip
        // through the entries-file grammar ([`render_entry`]), and file
        // order restores the priorities the mutation stack never touches.
        let mut out = encode_trace(&input.trace);
        for entry in &input.entries {
            out.push('\t');
            out.push_str(&render_entry(entry));
        }
        out
    }

    fn decode_input(&self, s: &str) -> Option<P4GreyboxInput> {
        let mut parts = s.split('\t');
        let trace = decode_trace(parts.next()?)?;
        let text: String = parts.map(|line| format!("{line}\n")).collect();
        let entries = parse_entries(&text).ok()?;
        Some(P4GreyboxInput { trace, entries })
    }
}

/// One worker's differential check with coverage capture: the stack's
/// checker ([`AluChecker`], [`P4Checker`]) plus what it checks against.
/// The checkers guard every check, so a panicking backend comes back as
/// [`Verdict::BackendPanic`] and ends the campaign as a divergence.
trait CoveredCheck<I> {
    /// Differentially execute one greybox input: the coverage map of a
    /// passing check, or the diverging verdict.
    fn check(&mut self, input: &I) -> Result<&CoverageMap, Verdict>;
}

/// A passing check's coverage (which a check with coverage on always
/// records), or the diverging verdict.
fn covered(verdict: Verdict, coverage: Option<&CoverageMap>) -> Result<&CoverageMap, Verdict> {
    verdict
        .passed()
        .then(|| coverage.expect("a passing check ran with coverage on"))
        .ok_or(verdict)
}

/// The ALU stack's check: one machine code against a specification.
struct AluCheck<'a, S> {
    checker: AluChecker<'a>,
    reference: S,
    mc: &'a MachineCode,
}

impl<S: Specification> CoveredCheck<Trace> for AluCheck<'_, S> {
    fn check(&mut self, input: &Trace) -> Result<&CoverageMap, Verdict> {
        let verdict = self.checker.check(&mut self.reference, self.mc, input);
        covered(verdict, self.checker.coverage())
    }
}

/// The P4 stack's check: the target's fixed entries, or (`None`) each
/// input's own entry set on both sides.
struct P4Check<'a> {
    checker: P4Checker<'a>,
    entries: Option<&'a [TableEntry]>,
}

impl CoveredCheck<P4GreyboxInput> for P4Check<'_> {
    fn check(&mut self, input: &P4GreyboxInput) -> Result<&CoverageMap, Verdict> {
        let entries = self.entries.unwrap_or(&input.entries);
        let verdict = self.checker.check(entries, &input.trace);
        covered(verdict, self.checker.coverage())
    }
}

// ----------------------------------------------------------------------
// The corpus scheduler and sharded campaign loop.
// ----------------------------------------------------------------------

/// What one shard brings back from a round: its first divergence, if any,
/// as `(local execution index, input, verdict)`, and the inputs that
/// reached new coverage with their raw per-execution maps, in discovery
/// order.
type ShardOutcome<I> = (Option<(usize, I, Verdict)>, Vec<(I, CoverageMap)>);

/// Lowercase hex of a byte slice (the global coverage map in snapshots).
fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// The generic greybox loop: seed, then mutate-execute-merge rounds until
/// the budget is spent, the wall clock runs out, or a divergence appears.
/// `make_check` builds one check per worker (checks own mutable pipelines
/// and are never shared across threads). Returns the report, whose
/// diverging trace and minimization the caller fills in, and the
/// diverging input.
///
/// Crash resilience (`cfg.runtime`):
///
/// - at round boundaries the corpus, the global coverage accumulator and
///   the execution counters snapshot to the checkpoint directory
///   (`fingerprint` binds the snapshot to the campaign configuration);
///   resuming restores them and re-enters the round loop — per-round RNG
///   streams are a pure function of `(seed, round, shard)`, so the
///   continuation is byte-identical to an uninterrupted run;
/// - the wall-clock budget is checked at round boundaries; expiry sets
///   `truncated` and returns the statistics accumulated so far.
fn greybox_search<M, C, F>(
    model: &M,
    make_check: F,
    cfg: &GreyboxConfig,
    fingerprint: u64,
) -> (GreyboxReport, Option<M::Input>)
where
    M: InputModel,
    C: CoveredCheck<M::Input>,
    F: Fn() -> C + Sync,
{
    let budget = cfg.executions.max(1);
    let deadline = cfg.runtime.deadline(Instant::now());
    let ckpt_dir = cfg.runtime.checkpoint_dir.clone();
    let every = cfg.runtime.effective_every();
    let mut first_divergence = None;
    let mut divergence = None;
    let mut truncated = false;

    // Serialize the campaign state: counters, the raw global coverage
    // counts, then one corpus seed per line in corpus order (order is
    // load-bearing — parent draws index the corpus, and eviction drops
    // its oldest seed).
    let save_state =
        |corpus: &[M::Input], executions: usize, rounds: usize, global: &CoverageMap| {
            let Some(dir) = ckpt_dir.as_deref() else {
                return;
            };
            let mut lines = Vec::with_capacity(corpus.len() + 2);
            lines.push(format!("executions {executions} rounds {rounds}"));
            lines.push(format!("global {}", hex_encode(global.as_bytes())));
            for input in corpus {
                lines.push(format!("seed {}", model.encode_input(input)));
            }
            if let Err(e) = snapshot::save(dir, "greybox", fingerprint, &lines) {
                eprintln!("warning: failed to write greybox checkpoint: {e}");
            }
            snapshot::write_heartbeat(dir, "greybox", executions, budget, false);
        };

    // Inverse of `save_state`: (executions, rounds, global map, corpus).
    // `None` rejects any malformed line and the campaign starts fresh
    // (never trust a snapshot blindly).
    let parse_state = |lines: &[String]| -> Option<(usize, usize, CoverageMap, Vec<M::Input>)> {
        let head = lines.first()?.strip_prefix("executions ")?;
        let (executed_txt, rounds_txt) = head.split_once(" rounds ")?;
        let executions: usize = executed_txt.parse().ok()?;
        let rounds: usize = rounds_txt.parse().ok()?;
        let global = CoverageMap::from_bytes(&hex_decode(lines.get(1)?.strip_prefix("global ")?)?)?;
        let corpus = lines
            .get(2..)?
            .iter()
            .map(|line| model.decode_input(line.strip_prefix("seed ")?))
            .collect::<Option<_>>()?;
        Some((executions, rounds, global, corpus))
    };

    let restored = match (cfg.runtime.resume, ckpt_dir.as_deref()) {
        (true, Some(dir)) => {
            let loaded = snapshot::load_latest(dir, "greybox", fingerprint);
            for w in &loaded.warnings {
                eprintln!("warning: {w}");
            }
            let state = loaded.lines.as_deref().map(parse_state);
            if matches!(state, Some(None)) {
                eprintln!(
                    "warning: greybox snapshot in {} is malformed; starting fresh",
                    dir.display()
                );
            }
            state.flatten()
        }
        _ => None,
    };
    let resumed = restored.is_some();
    // `global` holds the per-edge max bucket observed.
    let (mut executions, mut rounds, mut global, mut corpus) =
        restored.unwrap_or_else(|| (0, 0, CoverageMap::new(), Vec::new()));

    // A full corpus evicts its oldest seed.
    let add_seed = |corpus: &mut Vec<M::Input>, input: M::Input| {
        if corpus.len() >= CORPUS_MAX {
            corpus.remove(0);
        }
        corpus.push(input);
    };

    // Bootstrap: fresh traffic inputs, run serially (they're few).
    // Skipped on resume — snapshots only exist past the bootstrap, and
    // replaying it would double-count its executions.
    if !resumed {
        let mut check = make_check();
        for i in 0..INITIAL_SEEDS.min(budget) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                truncated = true;
                break;
            }
            let mut rng = ValueGen::new(shard_seed(cfg.seed ^ 0x5EED_0000, i as u64), 32);
            let input = model.seed_input(&mut rng, cfg.packets);
            executions += 1;
            match check.check(&input) {
                Err(verdict) => {
                    first_divergence = Some(executions);
                    divergence = Some((input, verdict));
                    break;
                }
                Ok(cov) => {
                    if global.accumulate_buckets(cov) || corpus.is_empty() {
                        add_seed(&mut corpus, input);
                    }
                }
            }
        }
    }

    // Guided rounds with periodic cross-shard merging.
    while divergence.is_none() && !truncated && executions < budget {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            truncated = true;
            break;
        }
        rounds += 1;
        let remaining = budget - executions;
        let shards = cfg.workers.max(1).min(remaining.div_ceil(MERGE_EVERY));
        let tasks: Vec<usize> = (0..shards)
            .map(|s| MERGE_EVERY.min(remaining - s * MERGE_EVERY))
            .collect();
        let corpus_ref = &corpus;
        let global_ref = &global;
        let round = rounds as u64;
        let outcomes: Vec<ShardOutcome<M::Input>> =
            run_sharded(tasks.clone(), shards, |shard, shard_budget| {
                let mut check = make_check();
                let mut rng = ValueGen::new(
                    shard_seed(cfg.seed ^ 0x6B0C_5000, round << 16 | shard as u64),
                    32,
                );
                let mut local_global = global_ref.clone();
                let mut finds: Vec<(M::Input, CoverageMap)> = Vec::new();
                let mut divergence = None;
                for k in 0..shard_budget {
                    // A uniform parent over the corpus and this shard's
                    // finds so far.
                    let pick = rng.value_below((corpus_ref.len() + finds.len()) as Value) as usize;
                    let mut input = match corpus_ref.get(pick) {
                        Some(seed) => seed.clone(),
                        None => finds[pick - corpus_ref.len()].0.clone(),
                    };
                    model.mutate(&mut rng, &mut input);
                    match check.check(&input) {
                        Err(verdict) => {
                            divergence = Some((k, input, verdict));
                            break;
                        }
                        Ok(cov) => {
                            if local_global.accumulate_buckets(cov) {
                                finds.push((input, cov.clone()));
                            }
                        }
                    }
                }
                (divergence, finds)
            });

        // Deterministic merge: shard order, then discovery order. A find
        // is re-validated against the *merged* accumulator so a path two
        // shards discovered concurrently joins the corpus once.
        let base = executions;
        let mut best: Option<(usize, M::Input, Verdict)> = None;
        for (s, (divergence, finds)) in outcomes.into_iter().enumerate() {
            executions += divergence.as_ref().map_or(tasks[s], |(k, ..)| k + 1);
            if let Some((k, input, verdict)) = divergence {
                let ordinal = base + s * MERGE_EVERY + k + 1;
                if best.as_ref().is_none_or(|(o, _, _)| ordinal < *o) {
                    best = Some((ordinal, input, verdict));
                }
            }
            for (input, cov) in finds {
                if global.accumulate_buckets(&cov) {
                    add_seed(&mut corpus, input);
                }
            }
        }
        if let Some((ordinal, input, verdict)) = best {
            first_divergence = Some(ordinal);
            divergence = Some((input, verdict));
        } else if rounds.is_multiple_of(every) || executions >= budget {
            // A round boundary is a consistent cut: the merge above has
            // already folded every shard's finds in, so the snapshot is
            // exactly the state an uninterrupted run holds here.
            save_state(&corpus, executions, rounds, &global);
        }
    }
    if let Some(dir) = ckpt_dir.as_deref() {
        snapshot::write_heartbeat(dir, "greybox", executions, budget, truncated);
    }

    let (input, verdict) = divergence.unzip();
    let report = GreyboxReport {
        seed: cfg.seed,
        executions,
        edges_covered: global.edges_covered(),
        corpus_size: corpus.len(),
        rounds,
        first_divergence,
        verdict: verdict.unwrap_or(Verdict::Pass),
        diverging_input: None,
        diverging_entries: None,
        minimized: None,
        truncated,
    };
    (report, input)
}

// ----------------------------------------------------------------------
// Workflow wrappers: the two stacks.
// ----------------------------------------------------------------------

/// The configuration contribution to a greybox snapshot fingerprint:
/// every field that shapes the search, with the runtime options masked
/// out — moving a checkpoint directory or changing the wall-clock budget
/// must not orphan a snapshot.
fn greybox_fingerprint<R: ?Sized, T: Target<R>>(
    target: &T,
    mode: Option<String>,
    cfg: &GreyboxConfig,
) -> u64 {
    let mut parts = vec![format!("greybox-{}", T::STACK)];
    parts.extend(target.program_parts(true));
    parts.extend(target.observation_parts());
    parts.extend(mode);
    parts.push(format!(
        "{:?}",
        GreyboxConfig {
            runtime: RuntimeOptions::default(),
            ..cfg.clone()
        }
    ));
    snapshot::fingerprint_of(&parts)
}

/// The greybox tail shared by both stacks: record the diverging trace
/// and minimize it through `target`, unless a panic or
/// [`GreyboxConfig::minimize`] forbids it.
fn minimize_divergence<R: ?Sized, T: Target<R>>(
    target: &T,
    reference: &mut R,
    cfg: &GreyboxConfig,
    report: &mut GreyboxReport,
    input: Trace,
) {
    if cfg.minimize && minimizable(&report.verdict) {
        report.minimized = target.minimize(reference, &input);
    }
    report.diverging_input = Some(input);
}

/// Run a coverage-guided greybox campaign on the ALU stack: the
/// differential oracle of [`crate::testing::fuzz_test`] (generated
/// pipeline vs. specification), driven by the corpus scheduler instead of
/// independent random batches. `druzhba fuzz --greybox` wires this up.
///
/// Every execution is one [`AluChecker`] check on the tick-accurate
/// simulator. The pipeline is generated once per worker and *reset*
/// between executions, so the per-execution cost is simulation, not
/// regeneration.
pub fn greybox_fuzz_test<S, F>(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    make_spec: F,
    observable: Option<&[usize]>,
    state_cells: &[(usize, usize, usize)],
    cfg: &GreyboxConfig,
) -> GreyboxReport
where
    S: Specification,
    F: Fn() -> S + Sync,
{
    let target = AluTarget {
        pipeline_spec,
        mc,
        opt,
        observable,
        state_cells,
    };
    let model = AluTraceModel {
        phv_length: pipeline_spec.config.phv_length,
        input_bits: cfg.input_bits,
        max_packets: effective_max_packets(cfg),
    };
    let make_check = || {
        let mut checker = AluChecker::new(pipeline_spec, opt, observable, state_cells);
        checker.enable_coverage();
        AluCheck {
            checker,
            reference: make_spec(),
            mc,
        }
    };
    let fingerprint = greybox_fingerprint::<S, _>(&target, None, cfg);
    let (mut report, input) = greybox_search(&model, make_check, cfg, fingerprint);
    if let Some(input) = input {
        minimize_divergence(&target, &mut make_spec(), cfg, &mut report, input);
    }
    report
}

/// Run a coverage-guided greybox campaign on the P4 stack: the
/// differential oracle of [`P4Target`] (match-action pipeline vs.
/// reference interpreter), corpus-scheduled. `druzhba p4-fuzz --greybox`
/// wires this up.
///
/// Two modes:
///
/// - `mutate_entries == false` (mutant hunts): the pipeline runs
///   `entries` while the interpreter runs the workload's intended
///   entries — the injected-fault oracle of [`P4Checker::new`].
/// - `mutate_entries == true` (compiler-bug search): both sides run the
///   *same* entry set, which the mutation stack perturbs alongside the
///   packets ([`P4Checker::with_shared_entries`]); entry sets that fail
///   to bind are skipped, not reported.
///
/// Either way every execution is one [`P4Checker`] check, and each
/// worker's checker rebuilds only when an input's entry set changes.
pub fn p4_greybox_fuzz_test(
    workload: &P4Workload,
    entries: &[TableEntry],
    level: OptLevel,
    mutate_entries: bool,
    cfg: &GreyboxConfig,
) -> GreyboxReport {
    let target = P4Target {
        workload,
        entries,
        level,
    };
    let model = P4TraceModel::new(
        workload,
        cfg.input_bits,
        mutate_entries,
        effective_max_packets(cfg),
    );
    let make_check = || {
        let mut checker = if mutate_entries {
            P4Checker::with_shared_entries(workload, level)
        } else {
            P4Checker::new(workload, level)
        };
        checker.enable_coverage();
        P4Check {
            checker,
            entries: (!mutate_entries).then_some(entries),
        }
    };
    let fingerprint = greybox_fingerprint(&target, Some(format!("{mutate_entries:?}")), cfg);
    let (mut report, input) = greybox_search(&model, make_check, cfg, fingerprint);
    let Some(P4GreyboxInput { trace, entries }) = input else {
        return report;
    };
    // Shared-entries oracle: minimize with the diverging entry set
    // installed on both sides (it validated, or it could not diverge).
    let shared = mutate_entries.then(|| P4Workload {
        entries,
        ..workload.clone()
    });
    let target = shared.as_ref().map_or(target, |shared| P4Target {
        workload: shared,
        entries: &shared.entries,
        level,
    });
    minimize_divergence(&target, &mut (), cfg, &mut report, trace);
    report.diverging_entries = shared.map(|shared| shared.entries);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ClosureSpec;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::PipelineConfig;
    use druzhba_dgen::expected_machine_code;
    use druzhba_p4::lower::RmtConfig;

    fn accumulator() -> (PipelineSpec, MachineCode) {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            atom("raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap();
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        mc.set("output_mux_phv_0_1", 2);
        (spec, mc)
    }

    fn accumulator_spec() -> impl Specification {
        ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                *state = state.wrapping_add(input.get(0));
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![*s],
        )
    }

    /// Three merge rounds: 4 bootstrap seeds, then 3 shards of 64.
    fn small_cfg() -> GreyboxConfig {
        GreyboxConfig {
            executions: 400,
            packets: 8,
            workers: 3,
            ..GreyboxConfig::default()
        }
    }

    #[test]
    fn clean_program_passes_and_builds_a_corpus() {
        let (spec, mc) = accumulator();
        for level in OptLevel::ALL {
            let report =
                greybox_fuzz_test(&spec, &mc, level, accumulator_spec, None, &[], &small_cfg());
            assert!(report.passed(), "{level:?}: {:?}", report.verdict);
            assert_eq!(report.executions, 400, "{level:?}");
            assert!(report.edges_covered > 0, "{level:?}");
            assert!(report.corpus_size >= 1, "{level:?}");
            assert!(report.rounds >= 2, "{level:?}");
        }
    }

    #[test]
    fn faulty_machine_code_diverges_quickly_with_minimized_ce() {
        let (spec, mut mc) = accumulator();
        // Subtract instead of add.
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let report = greybox_fuzz_test(
            &spec,
            &mc,
            OptLevel::Fused,
            accumulator_spec,
            None,
            &[],
            &small_cfg(),
        );
        assert!(!report.passed());
        let ordinal = report.first_divergence.expect("divergence ordinal");
        assert!(ordinal <= report.executions);
        assert!(report.diverging_input.is_some());
        let mce = report.minimized.expect("minimized");
        assert!(mce.packets() <= 8);
    }

    #[test]
    fn incompatible_machine_code_diverges_on_first_execution() {
        let (spec, mut mc) = accumulator();
        mc.remove("output_mux_phv_0_0");
        let report = greybox_fuzz_test(
            &spec,
            &mc,
            OptLevel::SccInline,
            accumulator_spec,
            None,
            &[],
            &small_cfg(),
        );
        assert!(matches!(report.verdict, Verdict::Incompatible(_)));
        assert_eq!(report.first_divergence, Some(1));
    }

    #[test]
    fn same_seed_and_workers_reproduce_identical_reports() {
        let (spec, mc) = accumulator();
        let run = || {
            greybox_fuzz_test(
                &spec,
                &mc,
                OptLevel::Fused,
                accumulator_spec,
                None,
                &[],
                &small_cfg(),
            )
        };
        assert_eq!(run(), run(), "greybox campaigns must be deterministic");
    }

    const PROGRAM: &str = r#"
        header_type pkt_t { fields { dst : 8; len : 16; } }
        header_type meta_t { fields { port : 8; } }
        header pkt_t pkt;
        metadata meta_t meta;
        parser start { extract(pkt); return ingress; }
        counter hits { instance_count : 4; }
        action set_port(p) { modify_field(meta.port, p); }
        action toss() { drop(); }
        action note() { count(hits, 0); add_to_field(pkt.len, 1); }
        table forward {
            reads { pkt.dst : exact; }
            actions { set_port; toss; }
            default_action : toss;
        }
        table audit { reads { meta.port : ternary; } actions { note; } }
        control ingress { apply(forward); apply(audit); }
    "#;

    const ENTRIES: &str = "forward : pkt.dst=1 => set_port(10)\n\
                           forward : pkt.dst=2 => set_port(20)\n\
                           audit : meta.port=10/0xff => note()\n";

    fn workload() -> P4Workload {
        P4Workload::parse(PROGRAM, ENTRIES, &RmtConfig::default()).unwrap()
    }

    #[test]
    fn p4_clean_workload_passes_with_and_without_entry_mutation() {
        let w = workload();
        for mutate_entries in [false, true] {
            let report = p4_greybox_fuzz_test(
                &w,
                &w.entries,
                OptLevel::Fused,
                mutate_entries,
                &small_cfg(),
            );
            assert!(
                report.passed(),
                "mutate_entries={mutate_entries}: {:?}",
                report.verdict
            );
            assert!(report.edges_covered > 0);
        }
    }

    #[test]
    fn p4_faulty_entries_detected_and_minimized() {
        let w = workload();
        let mut bad = w.entries.clone();
        bad[0].args[0] = 11; // forward to the wrong port
        let report = p4_greybox_fuzz_test(&w, &bad, OptLevel::SccInline, false, &small_cfg());
        assert!(!report.passed());
        assert!(report.first_divergence.is_some());
        let mce = report.minimized.expect("minimized");
        assert_eq!(mce.packets(), 1, "one packet suffices");
        // The minimized packet reproduces through the plain case runner.
        let v = crate::p4::run_p4_case(&w, &bad, OptLevel::SccInline, &mce.input);
        assert_eq!(v.class(), mce.verdict.class());
    }

    #[test]
    fn p4_campaign_is_deterministic() {
        let w = workload();
        let run = || p4_greybox_fuzz_test(&w, &w.entries, OptLevel::Fused, true, &small_cfg());
        assert_eq!(run(), run());
    }

    #[test]
    fn coverage_guidance_grows_the_corpus_past_bootstrap() {
        // Guidance is only real if mutation keeps discovering inputs with
        // new coverage after the bootstrap seeds: the corpus must grow
        // (small programs saturate their *edge set* quickly, but longer
        // and rarer paths keep escalating hit-count buckets).
        let w = workload();
        let narrow = GreyboxConfig {
            executions: 4, // bootstrap only
            packets: 4,
            workers: 1,
            ..GreyboxConfig::default()
        };
        let wide = GreyboxConfig {
            executions: 300, // three merge rounds of 2 shards x 64
            packets: 4,
            workers: 2,
            ..GreyboxConfig::default()
        };
        let base = p4_greybox_fuzz_test(&w, &w.entries, OptLevel::Fused, true, &narrow);
        let guided = p4_greybox_fuzz_test(&w, &w.entries, OptLevel::Fused, true, &wide);
        assert!(guided.edges_covered >= base.edges_covered);
        assert!(
            guided.corpus_size > base.corpus_size,
            "guided corpus: {} vs bootstrap: {}",
            guided.corpus_size,
            base.corpus_size
        );
    }

    #[test]
    fn input_codecs_round_trip() {
        let alu = AluTraceModel {
            phv_length: 3,
            input_bits: 8,
            max_packets: 16,
        };
        let mut rng = ValueGen::new(7, 32);
        let mut trace = alu.seed_input(&mut rng, 5);
        for _ in 0..32 {
            alu.mutate(&mut rng, &mut trace);
        }
        let decoded = alu.decode_input(&alu.encode_input(&trace)).unwrap();
        assert_eq!(decoded, trace);

        let w = workload();
        let p4 = P4TraceModel::new(&w, 8, true, 16);
        let mut input = p4.seed_input(&mut rng, 5);
        for _ in 0..32 {
            p4.mutate(&mut rng, &mut input);
        }
        assert!(!input.entries.is_empty());
        let decoded = p4.decode_input(&p4.encode_input(&input)).unwrap();
        assert_eq!(decoded, input);

        assert!(alu.decode_input("1,2|oops").is_none());
        assert!(p4.decode_input("1,2\tnot an entry").is_none());
    }

    #[test]
    fn checkpointed_campaign_resumes_to_identical_report() {
        let (spec, mc) = accumulator();
        let dir = std::env::temp_dir().join(format!("druzhba-greybox-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |runtime: RuntimeOptions| {
            let cfg = GreyboxConfig {
                runtime,
                ..small_cfg()
            };
            greybox_fuzz_test(
                &spec,
                &mc,
                OptLevel::Fused,
                accumulator_spec,
                None,
                &[],
                &cfg,
            )
        };
        let clean = run(RuntimeOptions::default());
        let checkpointed = run(RuntimeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..RuntimeOptions::default()
        });
        assert_eq!(
            checkpointed, clean,
            "checkpointing must not perturb the campaign"
        );
        // Simulate dying before the last checkpoint finished: drop the
        // current snapshot so resume falls back to the previous round
        // boundary and re-runs the tail of the campaign.
        std::fs::remove_file(snapshot::current_path(&dir, "greybox")).unwrap();
        let resumed = run(RuntimeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            resume: true,
            ..RuntimeOptions::default()
        });
        assert_eq!(
            resumed, clean,
            "a resumed campaign must reproduce the uninterrupted report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_wallclock_budget_truncates_cleanly() {
        let (spec, mc) = accumulator();
        let cfg = GreyboxConfig {
            runtime: RuntimeOptions {
                budget_secs: Some(0),
                ..RuntimeOptions::default()
            },
            ..small_cfg()
        };
        let report = greybox_fuzz_test(
            &spec,
            &mc,
            OptLevel::Fused,
            accumulator_spec,
            None,
            &[],
            &cfg,
        );
        assert!(report.truncated);
        assert_eq!(report.executions, 0);
        assert!(report.passed(), "truncation is not a failure");
    }

    #[test]
    fn backend_panic_ends_the_campaign_as_a_divergence() {
        let (spec, mut mc) = accumulator();
        let hole = expected_machine_code(&spec)
            .into_iter()
            .find(|(_, d)| matches!(d, druzhba_alu_dsl::HoleDomain::Bits(b) if *b >= 32))
            .map(|(n, _)| n)
            .expect("the accumulator has a 32-bit constant hole");
        mc.set(&hole, druzhba_core::hostile::HOSTILE_TRAP_VALUE);
        let report = greybox_fuzz_test(
            &spec,
            &mc,
            OptLevel::Fused,
            accumulator_spec,
            None,
            &[],
            &small_cfg(),
        );
        assert!(matches!(report.verdict, Verdict::BackendPanic { .. }));
        assert_eq!(report.first_divergence, Some(1));
        assert!(
            report.minimized.is_none(),
            "panic verdicts must not be minimized"
        );
    }

    #[test]
    fn mutation_stack_is_deterministic_and_bounded() {
        let model = AluTraceModel {
            phv_length: 3,
            input_bits: 8,
            max_packets: 16,
        };
        let mut a_rng = ValueGen::new(42, 32);
        let mut b_rng = ValueGen::new(42, 32);
        let mut a = model.seed_input(&mut a_rng, 4);
        let mut b = model.seed_input(&mut b_rng, 4);
        assert_eq!(a, b);
        for _ in 0..200 {
            model.mutate(&mut a_rng, &mut a);
            model.mutate(&mut b_rng, &mut b);
            assert_eq!(a, b, "mutation must be a pure function of the rng");
            assert!(!a.phvs.is_empty() && a.phvs.len() <= 16);
            for phv in &a.phvs {
                for c in 0..phv.len() {
                    assert!(phv.get(c) <= 255, "values stay within input_bits");
                }
            }
        }
    }
}
