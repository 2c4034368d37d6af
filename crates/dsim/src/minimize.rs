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
//!    shrunk toward zero (zero, halving, decrement) while the divergence
//!    persists.
//! 3. **Machine-code reduction** (injected-fault cases, via
//!    [`minimize_fault`]). Every pair on which the faulty program differs
//!    from a known-good baseline is tentatively reset to its known-good
//!    state; pairs whose reset kills the divergence are *essential* and
//!    reported as the fault's footprint.
//!
//! Every candidate evaluation costs one differential simulation; the
//! [`MinimizeConfig::max_checks`] budget bounds the total, and the search
//! degrades gracefully (returns the best reduction so far) when exhausted.

use druzhba_core::{MachineCode, Phv, Trace, Value};
use druzhba_dgen::{OptLevel, PipelineSpec};

use crate::testing::{run_case, Specification, Verdict, VerdictClass};

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
/// differentially evaluated to a [`Verdict`]. The ALU workflow passes a
/// [`run_case`] closure over `(PipelineSpec, OptLevel, Specification)`;
/// the P4 workflow ([`crate::p4`]) passes an interpreter-vs-match-action
/// closure — both share every reduction strategy below.
struct Minimizer<'a> {
    /// Differential oracle: evaluate one `(machine code, input)` pair.
    oracle: &'a mut dyn FnMut(&MachineCode, &[Phv]) -> Verdict,
    max_checks: usize,
    checks: usize,
}

impl Minimizer<'_> {
    /// Differentially evaluate one candidate, spending one check. Returns
    /// `None` when the budget is exhausted (callers treat that as "does
    /// not reproduce", which is always sound).
    fn check(&mut self, mc: &MachineCode, phvs: &[Phv]) -> Option<Verdict> {
        if self.checks >= self.max_checks {
            return None;
        }
        self.checks += 1;
        Some((self.oracle)(mc, phvs))
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
    /// persists (try zero, then halving, then decrement).
    fn shrink_values(
        &mut self,
        mc: &MachineCode,
        mut phvs: Vec<Phv>,
        mut verdict: Verdict,
        target: VerdictClass,
    ) -> (Vec<Phv>, Verdict) {
        for p in 0..phvs.len() {
            for c in 0..phvs[p].len() {
                loop {
                    let v = phvs[p].get(c);
                    if v == 0 {
                        break;
                    }
                    let mut reduced = false;
                    let mut tried: Option<Value> = None;
                    // Candidates coincide for small v (v=1 makes all
                    // three zero) — skip duplicates, each costs a full
                    // differential simulation.
                    for cand in [0, v / 2, v - 1] {
                        if cand >= v || tried == Some(cand) {
                            continue;
                        }
                        tried = Some(cand);
                        let mut next = phvs.clone();
                        next[p].set(c, cand);
                        if let Some(vd) = self.reproduces(mc, &next, target) {
                            phvs = next;
                            verdict = vd;
                            reduced = true;
                            break;
                        }
                    }
                    if !reduced {
                        break;
                    }
                }
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
/// never longer than `input`.
pub fn minimize<R: Specification + ?Sized>(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut R,
    input: &Trace,
    cfg: &MinimizeConfig,
) -> Option<MinimizedCounterExample> {
    let mut oracle = differential_oracle(pipeline_spec, opt, reference, cfg);
    let mut m = Minimizer {
        oracle: &mut oracle,
        max_checks: cfg.max_checks,
        checks: 0,
    };
    let original = m.check(mc, &input.phvs)?;
    let target = original.class();
    if target == VerdictClass::Pass {
        return None;
    }
    let (phvs, verdict) = m.minimize_trace(mc, input, original, target);
    Some(MinimizedCounterExample {
        input: Trace::from_phvs(phvs),
        verdict,
        original_packets: input.len(),
        essential_edits: None,
        checks: m.checks,
    })
}

/// The standard ALU-pipeline differential oracle used by [`minimize`] and
/// [`minimize_fault`]: one [`run_case`] per candidate.
fn differential_oracle<'a, R: Specification + ?Sized>(
    pipeline_spec: &'a PipelineSpec,
    opt: OptLevel,
    reference: &'a mut R,
    cfg: &'a MinimizeConfig,
) -> impl FnMut(&MachineCode, &[Phv]) -> Verdict + 'a {
    move |mc, phvs| {
        run_case(
            pipeline_spec,
            mc,
            opt,
            reference,
            &Trace::from_phvs(phvs.to_vec()),
            cfg.observable.as_deref(),
            &cfg.state_cells,
        )
    }
}

/// Minimize a failing input trace against an arbitrary differential
/// oracle — the program under test is fixed inside the closure (the P4
/// workflow's interpreter-vs-pipeline check, a cross-model comparison,
/// or anything else that maps an input trace to a [`Verdict`]).
///
/// Runs the same reduction pipeline as [`minimize`] — truncation at the
/// diverging tick, prefix halving, packet ddmin, value shrinking — under
/// the same `max_checks` budget. Returns `None` when `input` does not
/// diverge.
pub fn minimize_trace_with(
    oracle: &mut dyn FnMut(&[Phv]) -> Verdict,
    input: &Trace,
    max_checks: usize,
) -> Option<MinimizedCounterExample> {
    let fixed = MachineCode::new();
    let mut adapted = |_: &MachineCode, phvs: &[Phv]| oracle(phvs);
    let mut m = Minimizer {
        oracle: &mut adapted,
        max_checks,
        checks: 0,
    };
    let original = m.check(&fixed, &input.phvs)?;
    let target = original.class();
    if target == VerdictClass::Pass {
        return None;
    }
    let (phvs, verdict) = m.minimize_trace(&fixed, input, original, target);
    Some(MinimizedCounterExample {
        input: Trace::from_phvs(phvs),
        verdict,
        original_packets: input.len(),
        essential_edits: None,
        checks: m.checks,
    })
}

/// Minimize a failing input trace *and* the machine-code delta against a
/// known-good baseline (the injected-fault workflow): non-essential pairs
/// are reset to their baseline values first, then the trace is minimized
/// for the reduced program.
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
    let mut oracle = differential_oracle(pipeline_spec, opt, reference, cfg);
    let mut m = Minimizer {
        oracle: &mut oracle,
        max_checks: cfg.max_checks,
        checks: 0,
    };
    let original = m.check(bad, &input.phvs)?;
    let target = original.class();
    if target == VerdictClass::Pass {
        return None;
    }
    // For incompatibilities the input is irrelevant — reduce edits against
    // the empty trace so each candidate costs only a pipeline generation.
    // (The empty-trace probe re-establishes the verdict there; the
    // non-incompatible path reuses `original` rather than re-simulating
    // the full trace it just checked.)
    let (edit_phvs, baseline_verdict): (Vec<Phv>, Verdict) = if target == VerdictClass::Incompatible
    {
        let v = m.reproduces(bad, &[], target).unwrap_or(original);
        (Vec::new(), v)
    } else {
        (input.phvs.clone(), original)
    };
    let (reduced, verdict) =
        m.reduce_edits(good, bad.clone(), &edit_phvs, baseline_verdict, target);
    let (phvs, verdict) = m.minimize_trace(&reduced, input, verdict, target);
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
            checks: m.checks,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ClosureSpec;
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
}
