//! Counterexample minimization: solver-free delta debugging over a failing
//! `(MachineCode, Trace)` pair.
//!
//! A raw fuzzing divergence is a poor bug report: the failing input trace
//! is thousands of random PHVs, the diverging values are arbitrary 10-bit
//! integers, and (for injected faults) the machine code differs from a
//! known-good program in ways that may be irrelevant to the failure. What
//! Gauntlet and FP4 demonstrate for compiler/switch testing — and what this
//! module implements — is that the *counterexample*, not the raw failure,
//! is the unit of value.
//!
//! Minimization proceeds in three phases, each re-running the simulator
//! differentially against the specification and keeping only reductions
//! that preserve the divergence's [`VerdictClass`]:
//!
//! 1. **Packet reduction.** The failing trace is first truncated at the
//!    first diverging tick (exact for container mismatches), then reduced
//!    with ddmin — classic delta debugging over order-preserving packet
//!    subsets — plus a prefix-halving pass for end-of-trace (state)
//!    divergences.
//! 2. **Value shrinking.** Every container of every surviving PHV is
//!    shrunk toward zero while the divergence persists: zero first, else
//!    a bisection down to a value whose predecessor no longer reproduces
//!    (at most 33 checks for a 32-bit value).
//! 3. **Machine-code reduction** (injected-fault cases: [`minimize_fault`],
//!    or an [`AluTarget`] with a baseline). Every pair on which the faulty
//!    program differs from a known-good baseline is tentatively reset to
//!    its known-good state; pairs whose reset kills the divergence are
//!    *essential* and reported as the fault's footprint.
//!
//! Every candidate evaluation costs one differential simulation, not a
//! pipeline build: a search keeps one checker
//! ([`AluChecker`], [`crate::p4::P4Checker`]) that holds one build per
//! machine code or entry set, resets it before each check, and drops it
//! after a captured panic. The first check is the original input's. A
//! fuzz round ([`crate::testing::fuzz_run`]) has just made that check
//! and hands its verdict in through
//! [`Target::minimize`](crate::testing::Target::minimize), the one way a
//! caller's verdict reaches the search; when the check ran on the
//! search's level, the search charges it one check without simulating
//! it, so the counts and the result are those of a full re-check. Each
//! stack has one function that takes the hand-off: `minimize_alu` for the
//! ALU stack and `minimize_oracle` for the P4 stack. The public entry
//! points ([`minimize`], [`minimize_fault`], [`crate::p4::p4_minimize`])
//! simulate the original check. The [`MinimizeConfig::max_checks`]
//! budget bounds the total, and the search degrades gracefully (returns
//! the best reduction so far) when exhausted.
//!
//! **Which backend searches.** The four [`OptLevel`]s are one semantics
//! at four speeds (DESIGN.md §12 proves them equal on every corpus
//! program), so [`minimize`] and [`minimize_fault`] run their whole search
//! on [`OptLevel::Fused`], the fastest backend, whatever level `opt`
//! they are asked about. The result stands only if one replay of the
//! reduced machine code and the minimized trace on `opt` gives the
//! identical [`Verdict`]; that replay is not a minimization check and is
//! not counted in [`MinimizedCounterExample::checks`]. When the original
//! input diverges on `opt` but not on `Fused`, or the replay differs, the
//! backends disagree, which is a dgen bug: one `warning:` line goes to
//! stderr and the search reruns on `opt`, exactly as if `Fused` had never
//! run. With `opt` = `Fused` there is one search and no replay. P4
//! minimization ([`crate::p4::p4_minimize`]) stays on its evaluated
//! level, where the p4-hunt benchmark's 408 minimizations spend 7,887
//! checks in all.

use std::cell::RefCell;

use druzhba_core::{MachineCode, Phv, Trace, Value};
use druzhba_dgen::{OptLevel, PipelineSpec};

use crate::testing::{AluChecker, AluTarget, Specification, Verdict, VerdictClass};

/// Observation points and budget for a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeConfig {
    /// Container indices asserted for equality (`None` = all), exactly as
    /// in [`crate::testing::FuzzConfig::observable`].
    pub observable: Option<Vec<usize>>,
    /// State cells compared after each candidate run.
    pub state_cells: Vec<(usize, usize, usize)>,
    /// Budget on differential re-simulations. When exhausted, the best
    /// reduction found so far is returned.
    pub max_checks: usize,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            observable: None,
            state_cells: Vec::new(),
            max_checks: 3_000,
        }
    }
}

/// One essential difference between a faulty program and its known-good
/// baseline: resetting this pair to `good` makes the divergence disappear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineCodeEdit {
    /// Machine-code pair name.
    pub name: String,
    /// Baseline value (`None` if the pair does not exist in the baseline).
    pub good: Option<Value>,
    /// Faulty value (`None` if the pair was removed by the fault).
    pub bad: Option<Value>,
}

/// A minimized counterexample: the smallest input (and, when a baseline is
/// available, machine-code delta) found that still reproduces the
/// divergence class of the original failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizedCounterExample {
    /// Minimized failing input trace (empty for incompatibilities, which
    /// fail before any packet enters the pipeline).
    pub input: Trace,
    /// The divergence observed on the minimized input — same
    /// [`VerdictClass`] as the original failure.
    pub verdict: Verdict,
    /// Packet count of the original failing trace, for shrinkage stats.
    pub original_packets: usize,
    /// Essential machine-code edits versus a known-good baseline
    /// (`None` when minimization ran without a baseline).
    pub essential_edits: Option<Vec<MachineCodeEdit>>,
    /// Differential simulations spent.
    pub checks: usize,
}

impl MinimizedCounterExample {
    /// Number of packets in the minimized trace.
    pub fn packets(&self) -> usize {
        self.input.len()
    }
}

/// The delta-debugging engine: owns the differential-check budget.
///
/// The engine is *oracle-generic*: it knows nothing about pipelines or
/// specifications, only that a candidate `(program, input)` pair can be
/// differentially evaluated to a [`Verdict`]. The ALU workflow passes an
/// [`AluChecker`] closure over `(PipelineSpec, OptLevel, Specification)`;
/// the P4 workflow ([`crate::p4`]) passes a [`crate::p4::P4Checker`]
/// closure — both share every reduction strategy below.
struct Minimizer<'a> {
    oracle: &'a mut Oracle<'a>,
    max_checks: usize,
    checks: usize,
    /// The original input's verdict on this oracle, when the caller
    /// already has it ([`Minimizer::original`]).
    known: Option<Verdict>,
}

/// Differential oracle: evaluate one `(machine code, input)` pair.
type Oracle<'o> = dyn FnMut(&MachineCode, &[Phv]) -> Verdict + 'o;

impl<'a> Minimizer<'a> {
    fn new(oracle: &'a mut Oracle<'a>, max_checks: usize, known: Option<&Verdict>) -> Self {
        Minimizer {
            oracle,
            max_checks,
            checks: 0,
            known: known.cloned(),
        }
    }

    /// The whole trace minimization for a fixed machine code, starting
    /// with the check of the original input ([`Minimizer::original`]).
    /// `None` when it passes.
    fn search_trace(&mut self, mc: &MachineCode, input: &Trace) -> Option<MinimizedCounterExample> {
        let original = self.original(mc, &input.phvs)?;
        let target = original.class();
        if target == VerdictClass::Pass {
            return None;
        }
        let (phvs, verdict) = self.minimize_trace(mc, input, original, target);
        Some(MinimizedCounterExample {
            input: Trace::from_phvs(phvs),
            verdict,
            original_packets: input.len(),
            essential_edits: None,
            checks: self.checks,
        })
    }

    /// The whole fault minimization: edit reduction against `good`, then
    /// trace minimization for the reduced program. Starts with the check
    /// of the original input on `bad` ([`Minimizer::original`]); `None`
    /// when it passes.
    fn search_fault(
        &mut self,
        good: &MachineCode,
        bad: &MachineCode,
        input: &Trace,
    ) -> Option<(MachineCode, MinimizedCounterExample)> {
        let original = self.original(bad, &input.phvs)?;
        let target = original.class();
        if target == VerdictClass::Pass {
            return None;
        }
        // For incompatibilities the input is irrelevant — reduce edits
        // against the empty trace so each candidate costs only a pipeline
        // generation. (The empty-trace probe re-establishes the verdict
        // there; the non-incompatible path reuses `original` rather than
        // re-simulating the full trace it just checked.)
        let (edit_phvs, baseline_verdict): (Vec<Phv>, Verdict) =
            if target == VerdictClass::Incompatible {
                let v = self.reproduces(bad, &[], target).unwrap_or(original);
                (Vec::new(), v)
            } else {
                (input.phvs.clone(), original)
            };
        let (reduced, verdict) =
            self.reduce_edits(good, bad.clone(), &edit_phvs, baseline_verdict, target);
        let (phvs, verdict) = self.minimize_trace(&reduced, input, verdict, target);
        let edits = diff_names(good, &reduced)
            .into_iter()
            .map(|name| MachineCodeEdit {
                good: good.try_get(&name),
                bad: reduced.try_get(&name),
                name,
            })
            .collect();
        Some((
            reduced,
            MinimizedCounterExample {
                input: Trace::from_phvs(phvs),
                verdict,
                original_packets: input.len(),
                essential_edits: Some(edits),
                checks: self.checks,
            },
        ))
    }

    /// Differentially evaluate one candidate, spending one check. Returns
    /// `None` when the budget is exhausted (callers treat that as "does
    /// not reproduce", which is always sound).
    fn check(&mut self, mc: &MachineCode, phvs: &[Phv]) -> Option<Verdict> {
        self.charge().then(|| (self.oracle)(mc, phvs))
    }

    /// Spend one check of the budget; `false` when it is exhausted.
    fn charge(&mut self) -> bool {
        if self.checks >= self.max_checks {
            return false;
        }
        self.checks += 1;
        true
    }

    /// The check of the original input. A `known` verdict the caller
    /// handed in for this `(mc, phvs)` on this oracle (a fuzz round's) is
    /// charged one check while budget remains, exactly as if it were
    /// re-simulated, but is not simulated, so `checks`, budget exhaustion
    /// and the result stay what the full re-check would give.
    fn original(&mut self, mc: &MachineCode, phvs: &[Phv]) -> Option<Verdict> {
        match self.known.take() {
            Some(verdict) => self.charge().then_some(verdict),
            None => self.check(mc, phvs),
        }
    }

    /// Evaluate a candidate and return its verdict if it reproduces the
    /// target divergence class.
    fn reproduces(
        &mut self,
        mc: &MachineCode,
        phvs: &[Phv],
        target: VerdictClass,
    ) -> Option<Verdict> {
        let v = self.check(mc, phvs)?;
        (v.class() == target).then_some(v)
    }

    /// Classic ddmin over packet subsets, delegated to the item-generic
    /// engine ([`ddmin_items`]); the budget lives in [`Minimizer::check`],
    /// so the engine itself runs uncapped here.
    fn ddmin(
        &mut self,
        mc: &MachineCode,
        phvs: Vec<Phv>,
        verdict: Verdict,
        target: VerdictClass,
    ) -> (Vec<Phv>, Verdict) {
        let mut best = verdict;
        let phvs = {
            let best = &mut best;
            let mut test = |cand: &[Phv]| match self.reproduces(mc, cand, target) {
                Some(v) => {
                    *best = v;
                    true
                }
                None => false,
            };
            ddmin_items(phvs, &mut test, usize::MAX).0
        };
        (phvs, best)
    }

    /// Shrink every container value toward zero while the divergence
    /// persists: try zero, and when zero does not reproduce, bisect
    /// between the largest value known not to reproduce (`lo`, at first
    /// zero) and the smallest known to reproduce (`hi`, at first the
    /// cell's value) until `hi - 1` is `lo`. A 32-bit cell costs at most
    /// 33 checks.
    fn shrink_values(
        &mut self,
        mc: &MachineCode,
        mut phvs: Vec<Phv>,
        mut verdict: Verdict,
        target: VerdictClass,
    ) -> (Vec<Phv>, Verdict) {
        for p in 0..phvs.len() {
            for c in 0..phvs[p].len() {
                let mut hi = phvs[p].get(c);
                if hi == 0 {
                    continue;
                }
                let (mut lo, mut cand) = (0, 0);
                loop {
                    phvs[p].set(c, cand);
                    match self.reproduces(mc, &phvs, target) {
                        Some(v) => {
                            hi = cand;
                            verdict = v;
                        }
                        None => lo = cand,
                    }
                    if hi <= lo + 1 {
                        break;
                    }
                    cand = lo + (hi - lo) / 2;
                }
                phvs[p].set(c, hi);
            }
        }
        (phvs, verdict)
    }

    /// Minimize the failing trace for a fixed machine code: truncate at
    /// the diverging tick, prefix-halve, ddmin, then shrink values.
    fn minimize_trace(
        &mut self,
        mc: &MachineCode,
        input: &Trace,
        verdict: Verdict,
        target: VerdictClass,
    ) -> (Vec<Phv>, Verdict) {
        let mut phvs = input.phvs.clone();
        let mut best = verdict;

        // An incompatibility fails before any packet enters the pipeline:
        // the empty trace is the minimal input by construction.
        if target == VerdictClass::Incompatible {
            if let Some(v) = self.reproduces(mc, &[], target) {
                return (Vec::new(), v);
            }
            return (phvs, best);
        }

        // Truncate at the first diverging tick — exact for container
        // mismatches (the prefix executes identically).
        if let Verdict::Mismatch(m) = &best {
            if let Some(tick) = m.tick() {
                if tick + 1 < phvs.len() {
                    let prefix = input.prefix(tick + 1).phvs;
                    if let Some(v) = self.reproduces(mc, &prefix, target) {
                        phvs = prefix;
                        best = v;
                    }
                }
            }
        }
        // Prefix halving: effective for end-of-trace (state) divergences
        // that ddmin would otherwise approach one granularity at a time.
        while phvs.len() >= 2 {
            let half = phvs[..phvs.len() / 2].to_vec();
            match self.reproduces(mc, &half, target) {
                Some(v) => {
                    phvs = half;
                    best = v;
                }
                None => break,
            }
        }
        let (phvs, best) = self.ddmin(mc, phvs, best, target);
        self.shrink_values(mc, phvs, best, target)
    }

    /// Reset non-essential machine-code pairs to their baseline values,
    /// keeping only edits without which the divergence disappears.
    fn reduce_edits(
        &mut self,
        good: &MachineCode,
        bad: MachineCode,
        phvs: &[Phv],
        verdict: Verdict,
        target: VerdictClass,
    ) -> (MachineCode, Verdict) {
        let mut current = bad;
        let mut best = verdict;
        loop {
            let mut progressed = false;
            for name in diff_names(good, &current) {
                let mut candidate = current.clone();
                match good.try_get(&name) {
                    Some(v) => candidate.set(name.clone(), v),
                    None => {
                        candidate.remove(&name);
                    }
                }
                if let Some(v) = self.reproduces(&candidate, phvs, target) {
                    current = candidate;
                    best = v;
                    progressed = true;
                }
            }
            if !progressed {
                return (current, best);
            }
        }
    }
}

/// Classic ddmin (Zeller's delta debugging) over an arbitrary item list:
/// order-preserving subsets first (a reproducing chunk alone is the
/// biggest win), then complements, doubling granularity when neither
/// makes progress.
///
/// The engine is item-generic and oracle-generic — packets here, but
/// also program statements, stages, or table entries (the program-level
/// minimization in `progen` reduces generated Domino programs with the
/// same loop). `test` returns `true` when a candidate still reproduces
/// the failure; the reduction keeps exactly the candidates it accepted,
/// so the result is never longer than the input and (when any reduction
/// happened) has passed `test`.
///
/// `max_checks` caps `test` invocations; on exhaustion the best reduction
/// so far is returned. Returns `(reduced, checks_spent)`.
pub fn ddmin_items<T: Clone>(
    mut items: Vec<T>,
    test: &mut dyn FnMut(&[T]) -> bool,
    max_checks: usize,
) -> (Vec<T>, usize) {
    let mut checks = 0usize;
    let mut check = |cand: &[T], checks: &mut usize| {
        if *checks >= max_checks {
            return false;
        }
        *checks += 1;
        test(cand)
    };
    let mut granularity = 2usize;
    'outer: while items.len() >= 2 {
        let chunk = items.len().div_ceil(granularity);
        // Subsets first: a failing chunk alone is the biggest win.
        for start in (0..items.len()).step_by(chunk) {
            let subset: Vec<T> = items[start..(start + chunk).min(items.len())].to_vec();
            if subset.len() < items.len() && check(&subset, &mut checks) {
                items = subset;
                granularity = 2;
                continue 'outer;
            }
        }
        // Complements: drop one chunk.
        if granularity > 2 {
            for start in (0..items.len()).step_by(chunk) {
                let mut complement = items[..start].to_vec();
                complement.extend_from_slice(&items[(start + chunk).min(items.len())..]);
                if complement.len() < items.len() && check(&complement, &mut checks) {
                    items = complement;
                    granularity = (granularity - 1).max(2);
                    continue 'outer;
                }
            }
        }
        if granularity >= items.len() {
            break;
        }
        granularity = (granularity * 2).min(items.len());
    }
    (items, checks)
}

/// Names on which `a` and `b` disagree (value differs, or the pair exists
/// in only one of the two), in deterministic name order.
fn diff_names(a: &MachineCode, b: &MachineCode) -> Vec<String> {
    let mut names: Vec<String> = a
        .names()
        .chain(b.names())
        .filter(|n| a.try_get(n) != b.try_get(n))
        .map(str::to_string)
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Minimize a failing input trace for a fixed (faulty) machine code.
///
/// Returns `None` when `input` does not actually diverge (nothing to
/// minimize). The result's [`MinimizedCounterExample::verdict`] has the
/// same [`VerdictClass`] as the original divergence, and its input is
/// never longer than `input`. The search runs on the fused backend and is
/// confirmed on `opt` (see the module documentation).
pub fn minimize<R: Specification + ?Sized>(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut R,
    input: &Trace,
    cfg: &MinimizeConfig,
) -> Option<MinimizedCounterExample> {
    let target = AluTarget {
        pipeline_spec,
        mc,
        opt,
        observable: cfg.observable.as_deref(),
        state_cells: &cfg.state_cells,
        baseline: None,
    };
    minimize_alu(&target, reference, input, None, cfg.max_checks).map(|(_, mce)| mce)
}

/// Minimize a failing input trace *and* the machine-code delta against a
/// known-good baseline (the injected-fault workflow): non-essential pairs
/// are reset to their baseline values first, then the trace is minimized
/// for the reduced program. Like [`minimize`], the search runs on the
/// fused backend and is confirmed on `opt`.
///
/// Returns the reduced machine code alongside the counterexample;
/// [`MinimizedCounterExample::essential_edits`] lists the surviving delta.
/// `None` when `input` does not diverge on `bad`.
pub fn minimize_fault(
    pipeline_spec: &PipelineSpec,
    good: &MachineCode,
    bad: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    input: &Trace,
    cfg: &MinimizeConfig,
) -> Option<(MachineCode, MinimizedCounterExample)> {
    let target = AluTarget {
        pipeline_spec,
        mc: bad,
        opt,
        observable: cfg.observable.as_deref(),
        state_cells: &cfg.state_cells,
        baseline: Some(good),
    };
    minimize_alu(&target, reference, input, None, cfg.max_checks)
}

/// The ALU stack's one way into the minimizer, behind [`minimize`],
/// [`minimize_fault`] and [`AluTarget`]'s
/// [`Target::minimize`](crate::testing::Target::minimize): the fault
/// search against [`AluTarget::baseline`] when the target has one, else
/// the trace search for [`AluTarget::mc`]. Either runs on the fused
/// backend and is confirmed on [`AluTarget::opt`] (see the module
/// documentation).
///
/// `known` is the original input's verdict on `target.opt`, when the
/// caller already has it (a fuzz round's). Only a search on `target.opt`
/// itself takes it as its original check: on any other level the fused
/// check of the original input is what detects a backend disagreement, so
/// it is simulated.
pub(crate) fn minimize_alu<R: Specification + ?Sized>(
    target: &AluTarget,
    reference: &mut R,
    input: &Trace,
    known: Option<&Verdict>,
    max_checks: usize,
) -> Option<(MachineCode, MinimizedCounterExample)> {
    let mc = target.mc;
    let search = |m: &mut Minimizer| match target.baseline {
        Some(good) => m.search_fault(good, mc, input),
        None => m.search_trace(mc, input).map(|mce| (mc.clone(), mce)),
    };
    // Both oracles replay against the one specification, one at a time.
    let reference = RefCell::new(reference);
    let mut evaluated = differential_oracle(target, target.opt, &reference);
    if target.opt == OptLevel::Fused {
        return search(&mut Minimizer::new(&mut evaluated, max_checks, known));
    }
    let mut fused = differential_oracle(target, OptLevel::Fused, &reference);
    search_fused_then_confirm(&mut fused, &mut evaluated, target.opt, max_checks, &search)
}

/// A whole minimization over one oracle: `(reduced machine code,
/// counterexample)`, or `None` when the original input does not diverge.
type Search<'s> = dyn Fn(&mut Minimizer) -> Option<(MachineCode, MinimizedCounterExample)> + 's;

/// Run `search` on the `fused` oracle and accept its result only if one
/// replay of the reduced machine code and minimized trace on `evaluated`
/// gives the identical verdict. The confirmation is not a minimization
/// check, so `checks` is not charged for it.
///
/// When the fused search finds no divergence but the evaluated one does,
/// or the confirmation differs, the two backends disagree on this machine
/// code — a dgen bug. Print one warning and return the search on
/// `evaluated`, exactly as if the fused backend had never run.
fn search_fused_then_confirm(
    fused: &mut Oracle,
    evaluated: &mut Oracle,
    opt: OptLevel,
    max_checks: usize,
    search: &Search,
) -> Option<(MachineCode, MinimizedCounterExample)> {
    let fast = search(&mut Minimizer::new(fused, max_checks, None));
    if let Some((mc, mce)) = &fast {
        if evaluated(mc, &mce.input.phvs) == mce.verdict {
            return fast;
        }
    }
    let slow = search(&mut Minimizer::new(evaluated, max_checks, None));
    if fast.is_some() || slow.is_some() {
        eprintln!(
            "warning: the fused and {} backends disagree on this machine code (a dgen bug); \
             minimizing on {}",
            opt.key(),
            opt.key()
        );
    }
    slow
}

/// The ALU-pipeline differential oracle of `target` on backend `opt`: one
/// [`AluChecker`] for the whole minimization, so a candidate rebuilds the
/// pipeline only when its machine code changes.
fn differential_oracle<'a, 'r, R: Specification + ?Sized>(
    target: &AluTarget<'a>,
    opt: OptLevel,
    reference: &'a RefCell<&'r mut R>,
) -> impl FnMut(&MachineCode, &[Phv]) -> Verdict + use<'a, 'r, R> {
    let mut checker = AluChecker::new(
        target.pipeline_spec,
        opt,
        target.observable,
        target.state_cells,
    );
    move |mc, phvs| {
        let reference = &mut **reference.borrow_mut();
        checker.check(reference, mc, &Trace::from_phvs(phvs.to_vec()))
    }
}

/// The P4 stack's one way into the minimizer, behind
/// [`crate::p4::p4_minimize`] and [`crate::p4::P4Target`]'s
/// [`Target::minimize`](crate::testing::Target::minimize): minimize a failing input trace against a
/// differential oracle that fixes the program under test. It runs the
/// same reduction pipeline as [`minimize`] — truncation at the diverging
/// tick, prefix halving, packet ddmin, value shrinking — under the
/// `max_checks` budget. Returns `None` when `input` does not diverge.
///
/// `known` is the oracle's verdict on `input` when the caller already has
/// it: that verdict is the original check, charged one check but not
/// simulated, so the result is the one a re-simulation gives, `checks`
/// included.
pub(crate) fn minimize_oracle(
    oracle: &mut dyn FnMut(&[Phv]) -> Verdict,
    input: &Trace,
    known: Option<&Verdict>,
    max_checks: usize,
) -> Option<MinimizedCounterExample> {
    let mut adapted = |_: &MachineCode, phvs: &[Phv]| oracle(phvs);
    Minimizer::new(&mut adapted, max_checks, known).search_trace(&MachineCode::new(), input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{run_case, ClosureSpec};
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::PipelineConfig;
    use druzhba_dgen::expected_machine_code;

    /// 1-stage accumulator: state += container 0; old state -> container 1.
    fn setup() -> (PipelineSpec, MachineCode) {
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

    fn random_trace(seed: u64, len: usize) -> Trace {
        crate::traffic::TrafficGenerator::new(seed, 2, 10).trace(len)
    }

    #[test]
    fn passing_input_yields_none() {
        let (spec, mc) = setup();
        let mut reference = accumulator_spec();
        let input = random_trace(1, 50);
        let out = minimize(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &input,
            &MinimizeConfig::default(),
        );
        assert!(out.is_none());
    }

    #[test]
    fn mismatch_minimizes_to_one_small_packet() {
        let (spec, mut mc) = setup();
        // Subtract instead of add: diverges on the first nonzero input.
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let mut reference = accumulator_spec();
        let input = random_trace(2, 400);
        let mce = minimize(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &input,
            &MinimizeConfig::default(),
        )
        .expect("diverges");
        assert_eq!(mce.original_packets, 400);
        assert_eq!(mce.verdict.class(), VerdictClass::ContainerMismatch);
        // x - y != x + y needs two packets (the divergence is visible in
        // the *old state* output of the second packet) — but the state
        // cell route means container 1 of packet 2 shows it; ddmin gets
        // down to the minimal window.
        assert!(mce.packets() <= 2, "{:?}", mce.input);
        // Values shrink toward the smallest divergence-preserving input.
        let max = mce
            .input
            .phvs
            .iter()
            .flat_map(|p| (0..p.len()).map(|c| p.get(c)))
            .max()
            .unwrap();
        assert!(max <= 1, "{:?}", mce.input);
        // The minimized trace still reproduces.
        let mut reference = accumulator_spec();
        let v = run_case(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &mce.input,
            None,
            &[],
        );
        assert_eq!(v.class(), VerdictClass::ContainerMismatch);
    }

    #[test]
    fn state_divergence_minimized_with_state_cells() {
        let (spec, mut mc) = setup();
        // mux3 selects the constant 0: the accumulator never moves —
        // invisible on outputs, visible in the state cell.
        mc.set("stateful_alu_0_0_mux3_0", 2);
        let cfg = MinimizeConfig {
            observable: Some(vec![]),
            state_cells: vec![(0, 0, 0)],
            ..MinimizeConfig::default()
        };
        let mut reference = accumulator_spec();
        let input = random_trace(3, 300);
        let mce = minimize(&spec, &mc, OptLevel::Fused, &mut reference, &input, &cfg)
            .expect("state diverges");
        assert_eq!(mce.verdict.class(), VerdictClass::StateMismatch);
        assert_eq!(mce.packets(), 1, "{:?}", mce.input);
        assert_eq!(mce.input.phvs[0].get(0), 1, "smallest nonzero add");
    }

    #[test]
    fn incompatibility_minimizes_to_empty_trace() {
        let (spec, mut mc) = setup();
        mc.remove("output_mux_phv_0_0");
        let mut reference = accumulator_spec();
        let input = random_trace(4, 100);
        let mce = minimize(
            &spec,
            &mc,
            OptLevel::Scc,
            &mut reference,
            &input,
            &MinimizeConfig::default(),
        )
        .expect("incompatible");
        assert_eq!(mce.verdict.class(), VerdictClass::Incompatible);
        assert!(mce.input.is_empty());
    }

    #[test]
    fn fault_reduction_isolates_the_injected_pair() {
        let (spec, good) = setup();
        let mut bad = good.clone();
        // The real fault…
        bad.set("stateful_alu_0_0_arith_op_0", 1);
        // …plus irrelevant noise edits that do not affect behaviour on
        // their own (mutating dead pairs of the unused stateless mux).
        bad.set("stateless_alu_0_0_const_0", 99);
        let mut reference = accumulator_spec();
        let input = random_trace(5, 200);
        let (reduced, mce) = minimize_fault(
            &spec,
            &good,
            &bad,
            OptLevel::SccInline,
            &mut reference,
            &input,
            &MinimizeConfig::default(),
        )
        .expect("diverges");
        let edits = mce.essential_edits.as_ref().expect("baseline given");
        assert_eq!(edits.len(), 1, "{edits:?}");
        assert_eq!(edits[0].name, "stateful_alu_0_0_arith_op_0");
        assert_eq!(edits[0].good, Some(0));
        assert_eq!(edits[0].bad, Some(1));
        // The noise edit was reset to baseline.
        assert_eq!(reduced.try_get("stateless_alu_0_0_const_0"), Some(0));
        assert!(mce.packets() <= 2);
    }

    #[test]
    fn removed_pair_fault_reduces_to_the_removal() {
        let (spec, good) = setup();
        let mut bad = good.clone();
        bad.remove("output_mux_phv_0_1");
        bad.set("stateless_alu_0_0_const_0", 99); // noise
        let mut reference = accumulator_spec();
        let input = random_trace(6, 50);
        let (_, mce) = minimize_fault(
            &spec,
            &good,
            &bad,
            OptLevel::SccInline,
            &mut reference,
            &input,
            &MinimizeConfig::default(),
        )
        .expect("incompatible");
        assert_eq!(mce.verdict.class(), VerdictClass::Incompatible);
        assert!(mce.input.is_empty());
        let edits = mce.essential_edits.as_ref().unwrap();
        assert_eq!(edits.len(), 1);
        assert_eq!(edits[0].name, "output_mux_phv_0_1");
        assert_eq!(edits[0].bad, None);
    }

    fn state_mismatch() -> Verdict {
        Verdict::Mismatch(druzhba_core::trace::TraceMismatch::StateMismatch {
            stage: 0,
            slot: 0,
            expected: Vec::new(),
            actual: Vec::new(),
        })
    }

    /// Shrink one container of one packet against a counting oracle that
    /// diverges iff container 0 is at least 7. Returns the result and the
    /// number of oracle invocations.
    fn shrink_threshold(max_checks: usize) -> (MinimizedCounterExample, usize) {
        let mut calls = 0usize;
        let mut oracle = |phvs: &[Phv]| {
            calls += 1;
            if phvs.first().is_some_and(|p| p.get(0) >= 7) {
                state_mismatch()
            } else {
                Verdict::Pass
            }
        };
        let input = Trace::from_phvs(vec![Phv::new(vec![1000])]);
        let mce = minimize_oracle(&mut oracle, &input, None, max_checks).expect("diverges");
        (mce, calls)
    }

    #[test]
    fn value_shrinking_bisects_to_the_threshold() {
        // One packet and a state mismatch: no truncation, halving or
        // ddmin, so every check after the first is a shrink candidate.
        // 0 ✗, then bisection between lo = 0 and hi = 1000:
        //   500 ✓  250 ✓  125 ✓  62 ✓  31 ✓  15 ✓  7 ✓  3 ✗  5 ✗  6 ✗
        // = 1 + 1 + 10 = 12 checks, each one oracle call.
        let (mce, calls) = shrink_threshold(3_000);
        assert_eq!(mce.input.phvs[0].get(0), 7);
        assert_eq!(mce.checks, 12);
        assert_eq!(calls, 12);

        // A budget below that count still bounds the checks, and
        // whatever was reached still diverges.
        let (mce, calls) = shrink_threshold(10);
        assert!(mce.checks <= 10, "{}", mce.checks);
        assert!(calls <= mce.checks);
        assert!(mce.input.phvs[0].get(0) >= 7);
        assert_eq!(mce.verdict.class(), VerdictClass::StateMismatch);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let (spec, mut mc) = setup();
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let cfg = MinimizeConfig {
            max_checks: 3,
            ..MinimizeConfig::default()
        };
        let mut reference = accumulator_spec();
        let input = random_trace(7, 100);
        let mce = minimize(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &input,
            &cfg,
        )
        .expect("diverges");
        // Whatever was reached within budget still reproduces and is no
        // longer than the original.
        assert!(mce.packets() <= 100);
        assert!(mce.checks <= 3);
        assert_eq!(mce.verdict.class(), VerdictClass::ContainerMismatch);
    }

    /// The accumulator with the subtract fault, and a trace it diverges
    /// on.
    fn subtract_fault() -> (PipelineSpec, MachineCode, Trace) {
        let (spec, mut mc) = setup();
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        (spec, mc, random_trace(8, 200))
    }

    /// The baseline-free target of `mc` on `Scc`, observing every
    /// container.
    fn scc_target<'a>(spec: &'a PipelineSpec, mc: &'a MachineCode) -> AluTarget<'a> {
        AluTarget {
            pipeline_spec: spec,
            mc,
            opt: OptLevel::Scc,
            observable: None,
            state_cells: &[],
            baseline: None,
        }
    }

    #[test]
    fn disagreeing_fused_backend_falls_back_to_the_evaluated_level() {
        let (spec, mc, input) = subtract_fault();
        let cfg = MinimizeConfig::default();
        let search = |m: &mut Minimizer| m.search_trace(&mc, &input).map(|mce| (mc.clone(), mce));
        let target = scc_target(&spec, &mc);
        let mut reference = accumulator_spec();
        let reference = RefCell::new(&mut reference);
        let evaluated = || differential_oracle(&target, OptLevel::Scc, &reference);
        let expected = search(&mut Minimizer::new(&mut evaluated(), cfg.max_checks, None));
        assert!(expected.is_some(), "the fault diverges on Scc");

        // A fused backend that never diverges, and one that diverges on
        // every input with a verdict the evaluated level never gives.
        let mut never = |_: &MachineCode, _: &[Phv]| Verdict::Pass;
        let mut always = |_: &MachineCode, _: &[Phv]| state_mismatch();
        for fused in [&mut never as &mut Oracle, &mut always] {
            let got = search_fused_then_confirm(
                fused,
                &mut evaluated(),
                OptLevel::Scc,
                cfg.max_checks,
                &search,
            );
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn agreeing_fused_backend_is_confirmed_by_one_evaluated_replay() {
        let (spec, mc, input) = subtract_fault();
        let cfg = MinimizeConfig::default();
        let search = |m: &mut Minimizer| m.search_trace(&mc, &input).map(|mce| (mc.clone(), mce));
        let target = scc_target(&spec, &mc);
        let mut reference = accumulator_spec();
        let reference = RefCell::new(&mut reference);
        let mut scc = differential_oracle(&target, OptLevel::Scc, &reference);
        let expected = search(&mut Minimizer::new(&mut scc, cfg.max_checks, None));

        let mut fused = differential_oracle(&target, OptLevel::Fused, &reference);
        let mut replays = 0;
        let mut evaluated = |mc: &MachineCode, phvs: &[Phv]| {
            replays += 1;
            scc(mc, phvs)
        };
        let got = search_fused_then_confirm(
            &mut fused,
            &mut evaluated,
            OptLevel::Scc,
            cfg.max_checks,
            &search,
        );
        assert_eq!(got, expected);
        assert_eq!(replays, 1, "only the confirmation runs on Scc");
    }
}
