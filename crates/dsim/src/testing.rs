//! The fuzzing-based compiler-testing workflow (paper Fig. 5, §3.3).
//!
//! *"Testing can be done through fuzzing using the random PHVs generated by
//! the traffic generator and checking the validity of the output trace.
//! This is done by writing a high-level specification capturing the
//! intended algorithmic behavior on both PHVs and state values and
//! recording both the input and output trace. The input trace is then given
//! to the specification which generates its own output trace. Assertions
//! check the equivalence of the output traces."*
//!
//! Failures are classified the way the paper's case study does (§5.2):
//! machine code *incompatible with the pipeline* (missing pairs or
//! out-of-domain values, detected when dgen builds the pipeline) versus
//! *assertion failures between the pipeline output trace and the
//! specification's output trace*.

use druzhba_core::trace::{phv_mismatch, TraceMismatch};
use druzhba_core::{Error, MachineCode, Phv, Trace, Value};
use druzhba_dgen::{OptLevel, Pipeline, PipelineSpec};

use crate::minimize::{minimize_alu, MinimizeConfig, MinimizedCounterExample};
use crate::runtime::{
    catch_silent, default_workers, run_resumable, Campaign, RecordCodec, RuntimeOptions,
};
use crate::sim::Simulator;
use crate::snapshot;
use crate::traffic::TrafficGenerator;

/// A high-level executable specification of the intended algorithm.
///
/// The specification processes the same input trace as the pipeline and
/// produces the expected output PHVs; it may also expose expected state
/// values for comparison against chosen stateful-ALU cells.
pub trait Specification {
    /// Reset internal state before a run.
    fn reset(&mut self);

    /// Process one input PHV, returning the expected output PHV.
    fn process(&mut self, input: &Phv) -> Phv;

    /// Expected values for the state cells registered in
    /// [`FuzzConfig::state_cells`], in the same order. Default: none.
    fn state(&self) -> Vec<Value> {
        Vec::new()
    }

    /// Allocation-free variant of [`Specification::process`]: write the
    /// expected output into `out`. Every ALU check calls this, as does
    /// the default [`Specification::expect_lanes`] (bounded verification
    /// can run billions of packets); the default simply delegates, so
    /// existing specifications need no changes.
    ///
    /// The comparison reuses one `out` buffer for every packet, so an
    /// implementation must write every output container, zero included:
    /// a container left untouched still holds the previous packet's value.
    fn process_into(&mut self, input: &Phv, out: &mut Phv) {
        *out = self.process(input);
    }

    /// Allocation-free variant of [`Specification::state`]: write the
    /// expected state-cell values into `out` (cleared first). The default
    /// delegates to [`Specification::state`].
    fn state_into(&mut self, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.state());
    }

    /// Run cases `0..active` of a lane batch, each from reset, and write
    /// what they are expected to produce into `expected`: every output PHV
    /// and the final state, as columns of [`LaneExpectation::width`]
    /// lanes. Packet `t` of case `l` is `inputs`' tick `t` in the same
    /// column layout ([`LaneExpectation::outputs`]). Lane-swept bounded
    /// verification calls this once per batch. The default runs the
    /// cases one at a time through [`Specification::reset`],
    /// [`Specification::process_into`] and [`Specification::state_into`]
    /// ([`expect_by_case`]); a reference that can run many packets at once
    /// overrides it.
    fn expect_lanes(&mut self, active: usize, inputs: &[Value], expected: &mut LaneExpectation) {
        expect_by_case(self, active, inputs, expected);
    }
}

/// What a [`Specification`] expects of one batch of up to `width` cases of
/// `ticks` packets each, stored as columns: one value per lane, lane `l`
/// holding case `l`.
#[derive(Debug, Clone)]
pub struct LaneExpectation {
    width: usize,
    phv_len: usize,
    ticks: usize,
    /// See [`LaneExpectation::outputs`].
    outputs: Vec<Value>,
    /// `(lane, length)` of every expected output PHV whose length was not
    /// `phv_len` (only a case-by-case reference can produce one).
    odd_lengths: Vec<(usize, usize)>,
    /// Expected state value `i` of lane `l` at `state[i * width + l]`, for
    /// `i < state_len[l]`.
    state: Vec<Value>,
    state_len: Vec<usize>,
    /// Buffers of [`expect_by_case`], reused across batches.
    input: Phv,
    output: Phv,
    lane_state: Vec<Value>,
}

impl LaneExpectation {
    /// An empty expectation for batches of up to `width` cases of `ticks`
    /// packets through PHVs of `phv_len` containers.
    pub fn new(width: usize, phv_len: usize, ticks: usize) -> Self {
        LaneExpectation {
            width,
            phv_len,
            ticks,
            outputs: vec![0; ticks * phv_len * width],
            odd_lengths: Vec::new(),
            state: Vec::new(),
            state_len: vec![0; width],
            input: Phv::zeroed(phv_len),
            output: Phv::zeroed(phv_len),
            lane_state: Vec::new(),
        }
    }

    /// Lanes per column.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Containers per PHV.
    pub fn phv_len(&self) -> usize {
        self.phv_len
    }

    /// Packets per case.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The expected output columns: container `c` of lane `l` at tick `t`
    /// is at `(t * phv_len + c) * width + l`, so each tick is
    /// `phv_len * width` values, one column per container.
    pub fn outputs(&self) -> &[Value] {
        &self.outputs
    }

    /// Expected state value `i` of lane `l`, or `None` past that lane's
    /// expected state.
    pub fn state(&self, lane: usize, i: usize) -> Option<Value> {
        (i < self.state_len[lane]).then(|| self.state[i * self.width + lane])
    }

    /// Writable columns for a reference that fills a whole batch at once:
    /// the output columns ([`LaneExpectation::outputs`]) and `state_rows`
    /// state columns (state value `i` of lane `l` at `i * width + l`),
    /// which become every lane's expected state.
    pub fn columns_mut(&mut self, state_rows: usize) -> (&mut [Value], &mut [Value]) {
        self.odd_lengths.clear();
        self.state_len.fill(state_rows);
        self.state.resize(state_rows * self.width, 0);
        (
            &mut self.outputs,
            &mut self.state[..state_rows * self.width],
        )
    }
}

/// [`Specification::expect_lanes`] one case at a time: for each lane in
/// `0..active`, [`Specification::reset`], one
/// [`Specification::process_into`] per tick on the lane's input column
/// values, then [`Specification::state_into`]. The output buffer is
/// reused across packets and cases, as [`Specification::process_into`]
/// allows.
pub fn expect_by_case<R: Specification + ?Sized>(
    reference: &mut R,
    active: usize,
    inputs: &[Value],
    expected: &mut LaneExpectation,
) {
    let (w, n) = (expected.width, expected.phv_len);
    expected.odd_lengths.clear();
    for lane in 0..active {
        reference.reset();
        for t in 0..expected.ticks {
            let at = |c: usize| (t * n + c) * w + lane;
            for (c, v) in expected.input.containers_mut().iter_mut().enumerate() {
                *v = inputs[at(c)];
            }
            reference.process_into(&expected.input, &mut expected.output);
            if expected.output.len() != n {
                expected.odd_lengths.push((lane, expected.output.len()));
            }
            for c in 0..n {
                expected.outputs[at(c)] = expected.output.try_get(c).unwrap_or(0);
            }
        }
        reference.state_into(&mut expected.lane_state);
        let rows = expected.lane_state.len();
        if expected.state.len() < rows * w {
            expected.state.resize(rows * w, 0);
        }
        for (i, &v) in expected.lane_state.iter().enumerate() {
            expected.state[i * w + lane] = v;
        }
        expected.state_len[lane] = rows;
    }
}

/// A [`Specification`] built from a closure over explicit state, convenient
/// for tests and examples.
pub struct ClosureSpec<S, F>
where
    F: FnMut(&mut S, &Phv) -> Phv,
{
    initial: S,
    state: S,
    f: F,
    observe: fn(&S) -> Vec<Value>,
}

impl<S: Clone, F: FnMut(&mut S, &Phv) -> Phv> ClosureSpec<S, F> {
    /// A spec with internal state `initial`, transition function `f`, and
    /// state observation `observe`.
    pub fn new(initial: S, f: F, observe: fn(&S) -> Vec<Value>) -> Self {
        ClosureSpec {
            state: initial.clone(),
            initial,
            f,
            observe,
        }
    }
}

impl<S: Clone, F: FnMut(&mut S, &Phv) -> Phv> Specification for ClosureSpec<S, F> {
    fn reset(&mut self) {
        self.state = self.initial.clone();
    }
    fn process(&mut self, input: &Phv) -> Phv {
        (self.f)(&mut self.state, input)
    }
    fn state(&self) -> Vec<Value> {
        (self.observe)(&self.state)
    }
}

/// Configuration of a fuzzing run, on either stack. The driver
/// ([`fuzz_run`]) reads the traffic shape and `minimize`; `observable` and
/// `state_cells` are the ALU stack's observation points, read by
/// [`AluTarget::new`] (the P4 oracle compares every container and every
/// register and counter).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random PHVs to drive through the pipeline (the paper's
    /// benchmarks use 50 000).
    pub num_phvs: usize,
    /// Traffic-generator seed.
    pub seed: u64,
    /// Bit width of generated container values (the case study exercises
    /// "10-bit inputs").
    pub input_bits: u32,
    /// Container indices asserted for equality; `None` compares every
    /// container (only sensible when the spec models scratch containers
    /// too).
    pub observable: Option<Vec<usize>>,
    /// Stateful-ALU state cells `(stage, slot, var)` compared against
    /// [`Specification::state`] after the run.
    pub state_cells: Vec<(usize, usize, usize)>,
    /// Minimize counterexamples on failure (delta debugging over the
    /// failing input trace; see [`mod@crate::minimize`]). On by default; turn
    /// off when the raw verdict is all a caller needs.
    pub minimize: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            num_phvs: 1000,
            seed: 0x000D_122B,
            input_bits: 10,
            observable: None,
            state_cells: Vec::new(),
            minimize: true,
        }
    }
}

/// Outcome of a fuzzing run, mirroring the case study's failure taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Output traces and state matched on every PHV.
    Pass,
    /// The machine code could not program the pipeline (missing pairs /
    /// out-of-domain values).
    Incompatible(Error),
    /// The pipeline's output trace diverged from the specification's.
    Mismatch(TraceMismatch),
    /// The backend itself panicked while building or executing the
    /// pipeline — a compiler crash on *valid* input, captured by
    /// [`crate::runtime::catch_silent`] instead of aborting the campaign.
    ///
    /// The report row carrying this verdict supplies the rest of the
    /// replay recipe (optimization level and traffic seed); replaying that
    /// `(program, level, seed)` triple through the same entry point
    /// reproduces the identical panic payload.
    BackendPanic {
        /// The panic payload as text.
        payload: String,
    },
}

impl Verdict {
    /// True if the run passed.
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// The verdict's class — what *kind* of outcome it is, stripped of the
    /// concrete values. Counterexample minimization reduces inputs while
    /// preserving the class, and hunt reports aggregate their taxonomy
    /// over it.
    pub fn class(&self) -> VerdictClass {
        match self {
            Verdict::Pass => VerdictClass::Pass,
            Verdict::Incompatible(_) => VerdictClass::Incompatible,
            Verdict::Mismatch(TraceMismatch::LengthMismatch { .. }) => VerdictClass::LengthMismatch,
            Verdict::Mismatch(TraceMismatch::ContainerMismatch { .. }) => {
                VerdictClass::ContainerMismatch
            }
            Verdict::Mismatch(TraceMismatch::StateMismatch { .. }) => VerdictClass::StateMismatch,
            Verdict::BackendPanic { .. } => VerdictClass::BackendPanic,
        }
    }
}

/// The coarse class of a [`Verdict`] (see [`Verdict::class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerdictClass {
    /// No divergence.
    Pass,
    /// The machine code could not program the pipeline.
    Incompatible,
    /// Output traces have different lengths.
    LengthMismatch,
    /// A PHV container diverges at some tick.
    ContainerMismatch,
    /// A stateful ALU's final state diverges.
    StateMismatch,
    /// The backend panicked instead of producing a trace.
    BackendPanic,
}

impl VerdictClass {
    /// Stable snake_case label for machine-readable reports.
    pub fn key(self) -> &'static str {
        match self {
            VerdictClass::Pass => "pass",
            VerdictClass::Incompatible => "incompatible",
            VerdictClass::LengthMismatch => "length_mismatch",
            VerdictClass::ContainerMismatch => "container_mismatch",
            VerdictClass::StateMismatch => "state_mismatch",
            VerdictClass::BackendPanic => "backend_panic",
        }
    }

    /// Inverse of [`VerdictClass::key`], for checkpoint decoding.
    pub fn from_key(key: &str) -> Option<VerdictClass> {
        Some(match key {
            "pass" => VerdictClass::Pass,
            "incompatible" => VerdictClass::Incompatible,
            "length_mismatch" => VerdictClass::LengthMismatch,
            "container_mismatch" => VerdictClass::ContainerMismatch,
            "state_mismatch" => VerdictClass::StateMismatch,
            "backend_panic" => VerdictClass::BackendPanic,
            _ => return None,
        })
    }
}

/// Report of one fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The verdict.
    pub verdict: Verdict,
    /// PHVs driven through the pipeline (0 if the pipeline failed to
    /// build).
    pub phvs_tested: usize,
    /// Seed used, for replay.
    pub seed: u64,
    /// Minimized counterexample, when the run failed and
    /// [`FuzzConfig::minimize`] was on.
    pub minimized: Option<MinimizedCounterExample>,
}

impl FuzzReport {
    /// True if the run passed.
    pub fn passed(&self) -> bool {
        self.verdict.passed()
    }
}

/// Differentially execute one concrete input trace: generate the pipeline,
/// run it and the specification over `input`, and compare output traces
/// (and the configured state cells). This is the single-case core shared
/// by [`fuzz_test`] and [`mod@crate::minimize`]: a one-shot use of
/// [`AluChecker`], whose build is dropped when the call returns.
///
/// The whole evaluation runs under panic isolation: a backend that
/// panics while building or executing the pipeline yields
/// [`Verdict::BackendPanic`] instead of unwinding the caller, so one
/// crashing case can never abort a campaign.
pub fn run_case<R: Specification + ?Sized>(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut R,
    input: &Trace,
    observable: Option<&[usize]>,
    state_cells: &[(usize, usize, usize)],
) -> Verdict {
    AluChecker::new(pipeline_spec, opt, observable, state_cells).check(reference, mc, input)
}

/// The guarded generate → run → compare check of the ALU stack, keeping
/// one built pipeline across checks.
///
/// A checker holds the pipeline shape, the backend and the observation
/// points, plus at most one `(machine code, simulator)` build. A check
/// rebuilds only when its machine code differs from the cached one, and
/// resets the simulator (pipeline state and in-flight PHVs) before every
/// run, so each verdict equals a fresh [`run_case`] on the same inputs.
/// Delta debugging re-checks one machine code thousands of times, so one
/// checker per minimization turns a check from a compile plus a
/// simulation into a simulation.
///
/// Generation, simulation and comparison all run under
/// [`catch_silent`]. A machine code the pipeline rejects
/// ([`Verdict::Incompatible`]) caches nothing, and a captured panic drops
/// the build, so no half-mutated simulator outlives its panic.
#[derive(Debug)]
pub struct AluChecker<'a> {
    pipeline_spec: &'a PipelineSpec,
    opt: OptLevel,
    built: Option<(MachineCode, Simulator)>,
    comparator: SpecComparator<'a>,
}

impl<'a> AluChecker<'a> {
    /// A checker with nothing built yet.
    pub fn new(
        pipeline_spec: &'a PipelineSpec,
        opt: OptLevel,
        observable: Option<&'a [usize]>,
        state_cells: &'a [(usize, usize, usize)],
    ) -> Self {
        let phv_length = pipeline_spec.config.phv_length;
        AluChecker {
            pipeline_spec,
            opt,
            built: None,
            comparator: SpecComparator::new(phv_length, observable, state_cells),
        }
    }

    /// Differentially execute `input` on the pipeline `mc` programs,
    /// against `reference` (see [`run_case`]).
    pub fn check<R: Specification + ?Sized>(
        &mut self,
        reference: &mut R,
        mc: &MachineCode,
        input: &Trace,
    ) -> Verdict {
        match catch_silent(|| self.run(reference, mc, input)) {
            Ok(verdict) => verdict,
            Err(p) => {
                self.built = None;
                Verdict::BackendPanic { payload: p.payload }
            }
        }
    }

    /// The unguarded check: (re)build when `mc` is not the cached machine
    /// code, reset, run, compare.
    fn run<R: Specification + ?Sized>(
        &mut self,
        reference: &mut R,
        mc: &MachineCode,
        input: &Trace,
    ) -> Verdict {
        if self.built.as_ref().is_none_or(|(cached, _)| cached != mc) {
            // Drop the old build first: at most one is ever alive.
            self.built = None;
            let pipeline = match Pipeline::generate(self.pipeline_spec, mc, self.opt) {
                Ok(p) => p,
                Err(e) => return Verdict::Incompatible(e),
            };
            self.built = Some((mc.clone(), Simulator::new(pipeline)));
        }
        let (_, sim) = self.built.as_mut().expect("built above");
        sim.reset();
        let actual = sim.run(input);
        let mismatch = self.comparator.compare(reference, &input.phvs, &actual);
        mismatch.map_or(Verdict::Pass, Verdict::Mismatch)
    }
}

/// The ALU stack's one pipeline-versus-specification comparison (the
/// paper's Fig. 5 assertion), made by every [`AluChecker`] check and every
/// bounded verification case: one case at a time
/// ([`SpecComparator::compare`]) or, on the lane path, a batch of cases
/// column by column under the same observation rules
/// ([`SpecComparator::check_lanes`]). It holds the observation points and
/// the reference's output buffers, reused across packets and cases.
#[derive(Debug)]
pub(crate) struct SpecComparator<'a> {
    /// Containers compared (`None` = every container of either PHV).
    observable: Option<&'a [usize]>,
    /// State cells `(stage, slot, var)`, in [`Specification::state`] order.
    state_cells: &'a [(usize, usize, usize)],
    expected: Phv,
    expected_state: Vec<Value>,
}

impl<'a> SpecComparator<'a> {
    /// A comparator for pipelines of `phv_length` containers.
    pub(crate) fn new(
        phv_length: usize,
        observable: Option<&'a [usize]>,
        state_cells: &'a [(usize, usize, usize)],
    ) -> Self {
        SpecComparator {
            observable,
            state_cells,
            expected: Phv::zeroed(phv_length),
            expected_state: Vec::new(),
        }
    }

    /// Step `reference` from reset over `input` through
    /// [`Specification::process_into`], comparing each output with
    /// `actual` in place, then compare the `state_cells` through
    /// [`Specification::state_into`]. Returns what
    /// [`Trace::first_mismatch`] returns on the reference's output trace
    /// (a length mismatch first, then the first differing observable
    /// container), else the first differing state cell. The reference
    /// steps every packet even after a mismatch, so one that panics on a
    /// late packet still panics.
    pub(crate) fn compare<R: Specification + ?Sized>(
        &mut self,
        reference: &mut R,
        input: &[Phv],
        actual: &Trace,
    ) -> Option<TraceMismatch> {
        reference.reset();
        let mut mismatch = (input.len() != actual.len()).then_some(TraceMismatch::LengthMismatch {
            expected: input.len(),
            actual: actual.len(),
        });
        for (tick, phv) in input.iter().enumerate() {
            reference.process_into(phv, &mut self.expected);
            if mismatch.is_none() {
                let actual = actual.phvs[tick].containers();
                mismatch = phv_mismatch(tick, &self.expected, actual, self.observable);
            }
        }
        if mismatch.is_some() || self.state_cells.is_empty() {
            return mismatch;
        }
        reference.state_into(&mut self.expected_state);
        let snapshot = actual.state.as_ref().expect("run records state");
        self.state_cells
            .iter()
            .enumerate()
            .find_map(|(i, &(stage, slot, var))| {
                let expected = self.expected_state.get(i).copied();
                let cell = |stage: &Vec<Vec<Value>>| stage.get(slot)?.get(var).copied();
                let actual = snapshot.get(stage).and_then(cell);
                (expected != actual).then(|| TraceMismatch::StateMismatch {
                    stage,
                    slot,
                    expected: expected.into_iter().collect(),
                    actual: actual.into_iter().collect(),
                })
            })
    }

    /// The first of lanes `0..active` whose case diverges, under the
    /// observation rules of [`SpecComparator::compare`]: lane `l` diverges
    /// when `compare` would report a mismatch for case `l` of the batch
    /// whose pipeline outputs are the `actual` columns (laid out as
    /// [`LaneExpectation::outputs`]) and whose state cell `(stage, slot,
    /// var)` is the column `actual_state` returns, `None` when the
    /// pipeline has no such cell. `expected` is the reference's side of the
    /// batch ([`Specification::expect_lanes`]).
    ///
    /// The observable containers (every container without a list) are
    /// compared at every tick, then each state cell; a state cell missing
    /// on one side only diverges on every lane that has the other side.
    pub(crate) fn check_lanes<'s>(
        &self,
        expected: &LaneExpectation,
        active: usize,
        actual: &[Value],
        actual_state: impl Fn(usize, usize, usize) -> Option<&'s [Value]>,
    ) -> Option<usize> {
        let (w, n) = (expected.width, expected.phv_len);
        // Only lanes before the first divergence found so far can lower it.
        let mut first = active;
        let check_column = |first: &mut usize, at: usize| {
            let (e, a) = (&expected.outputs[at..at + w], &actual[at..at + w]);
            if let Some(l) = (0..*first).find(|&l| e[l] != a[l]) {
                *first = l;
            }
        };
        for t in 0..expected.ticks {
            let column = |c: usize| (t * n + c) * w;
            match self.observable {
                // A listed container past the PHV is absent on both sides.
                Some(list) => list
                    .iter()
                    .filter(|&&c| c < n)
                    .for_each(|&c| check_column(&mut first, column(c))),
                None => (0..n).for_each(|c| check_column(&mut first, column(c))),
            }
        }
        // An expected PHV of another length has containers the pipeline's
        // lacks, or lacks some it has; either diverges where observed.
        for &(lane, len) in &expected.odd_lengths {
            let absent_on_one_side = |&c: &usize| (c < len) != (c < n);
            let observed = self
                .observable
                .is_none_or(|list| list.iter().any(absent_on_one_side));
            if lane < first && observed {
                first = lane;
            }
        }
        for (i, &(stage, slot, var)) in self.state_cells.iter().enumerate() {
            let column = actual_state(stage, slot, var);
            let differs = |&l: &usize| expected.state(l, i) != column.map(|col| col[l]);
            if let Some(l) = (0..first).find(differs) {
                first = l;
            }
        }
        (first < active).then_some(first)
    }
}

// ----------------------------------------------------------------------
// Differential targets: one driver for both stacks.
// ----------------------------------------------------------------------

/// One differential stack as the drivers see it: seeded traffic, the
/// guarded single-case check, the minimizer, and the parts that bind a
/// snapshot to the program under test.
///
/// `R` is the mutable reference a check compares against — a
/// [`Specification`] on the ALU stack ([`AluTarget`]), nothing (`()`) on
/// the P4 stack ([`crate::p4::P4Target`]), whose reference interpreter is
/// rebuilt inside every guarded case. The seeded run ([`fuzz_run`]) and
/// the resumable seeded campaign ([`fuzz_campaign`]) are written once
/// over this trait and monomorphized per stack.
pub trait Target<R: ?Sized>: Sync {
    /// Stack label in snapshot fingerprints (`alu-campaign`, `p4-campaign`).
    const STACK: &'static str;
    /// Snapshot kind of the seeded campaign.
    const CAMPAIGN: &'static str;

    /// The seeded input trace of `phvs` packets at `input_bits`-bit values.
    fn traffic(&self, seed: u64, input_bits: u32, phvs: usize) -> Trace;

    /// One differential execution under panic isolation.
    fn check(&self, reference: &mut R, input: &Trace) -> Verdict;

    /// Minimize a diverging input through the shared delta-debugging
    /// engine; `None` when `input` does not diverge. `verdict` is
    /// [`Target::check`]'s verdict on `input`, which the minimizer may
    /// take as its original check instead of re-simulating it.
    fn minimize(
        &self,
        reference: &mut R,
        input: &Trace,
        verdict: &Verdict,
    ) -> Option<MinimizedCounterExample>;

    /// Fingerprint parts naming the program under test: the level, then
    /// the code.
    fn program_parts(&self) -> Vec<String>;

    /// Fingerprint parts naming what the check observes.
    fn observation_parts(&self) -> Vec<String>;
}

/// The ALU stack: a compiled pipeline against a [`Specification`],
/// comparing the `observable` containers and the `state_cells`.
#[derive(Debug, Clone, Copy)]
pub struct AluTarget<'a> {
    /// The pipeline shape.
    pub pipeline_spec: &'a PipelineSpec,
    /// The machine code under test.
    pub mc: &'a MachineCode,
    /// The backend under test.
    pub opt: OptLevel,
    /// Containers asserted for equality (`None` = all).
    pub observable: Option<&'a [usize]>,
    /// State cells compared against [`Specification::state`].
    pub state_cells: &'a [(usize, usize, usize)],
    /// Known-good machine code that `mc` is a faulty variant of, when
    /// there is one: minimization then also reduces `mc` toward it and
    /// reports the essential edits ([`crate::minimize::minimize_fault`]).
    /// A failing run with `None` minimizes only the trace
    /// ([`crate::minimize::minimize`]).
    pub baseline: Option<&'a MachineCode>,
}

impl<'a> AluTarget<'a> {
    /// A target without a baseline, observing what `cfg` names
    /// ([`FuzzConfig::observable`], [`FuzzConfig::state_cells`]).
    pub fn new(
        pipeline_spec: &'a PipelineSpec,
        mc: &'a MachineCode,
        opt: OptLevel,
        cfg: &'a FuzzConfig,
    ) -> Self {
        AluTarget {
            pipeline_spec,
            mc,
            opt,
            observable: cfg.observable.as_deref(),
            state_cells: &cfg.state_cells,
            baseline: None,
        }
    }
}

impl<R: Specification + ?Sized> Target<R> for AluTarget<'_> {
    const STACK: &'static str = "alu";
    const CAMPAIGN: &'static str = "campaign";

    fn traffic(&self, seed: u64, input_bits: u32, phvs: usize) -> Trace {
        TrafficGenerator::new(seed, self.pipeline_spec.config.phv_length, input_bits).trace(phvs)
    }

    fn check(&self, reference: &mut R, input: &Trace) -> Verdict {
        run_case(
            self.pipeline_spec,
            self.mc,
            self.opt,
            reference,
            input,
            self.observable,
            self.state_cells,
        )
    }

    /// The fault search when the target has a [`AluTarget::baseline`],
    /// else the trace search. The original check is `verdict` only on
    /// [`OptLevel::Fused`], the level the search runs on (see
    /// [`mod@crate::minimize`]).
    fn minimize(
        &self,
        reference: &mut R,
        input: &Trace,
        verdict: &Verdict,
    ) -> Option<MinimizedCounterExample> {
        let max_checks = MinimizeConfig::default().max_checks;
        minimize_alu(self, reference, input, Some(verdict), max_checks).map(|(_, mce)| mce)
    }

    fn program_parts(&self) -> Vec<String> {
        vec![format!("{:?}", self.opt), self.mc.to_text()]
    }

    fn observation_parts(&self) -> Vec<String> {
        vec![
            format!("{:?}", self.observable),
            format!("{:?}", self.state_cells),
        ]
    }
}

/// True for verdicts delta debugging may reduce: a failure that is not a
/// backend panic (minimizing would rebuild the backend outside the panic
/// guard and re-trip it; the replay recipe is the counterexample).
pub(crate) fn minimizable(verdict: &Verdict) -> bool {
    !verdict.passed() && !matches!(verdict, Verdict::BackendPanic { .. })
}

/// One seeded run of the Fig. 5 workflow on any [`Target`]: seeded
/// traffic through the guarded check, minimized on failure unless
/// [`FuzzConfig::minimize`] is off. Reads `num_phvs`, `seed`,
/// `input_bits` and `minimize` from `cfg`; what the check observes is the
/// target's.
pub fn fuzz_run<R: ?Sized, T: Target<R>>(
    target: &T,
    reference: &mut R,
    cfg: &FuzzConfig,
) -> FuzzReport {
    let input = target.traffic(cfg.seed, cfg.input_bits, cfg.num_phvs);
    let verdict = target.check(reference, &input);
    let phvs_tested = if matches!(
        verdict,
        Verdict::Incompatible(_) | Verdict::BackendPanic { .. }
    ) {
        0
    } else {
        cfg.num_phvs
    };
    let minimized = if cfg.minimize && minimizable(&verdict) {
        target.minimize(reference, &input, &verdict)
    } else {
        None
    };
    FuzzReport {
        verdict,
        phvs_tested,
        seed: cfg.seed,
        minimized,
    }
}

/// Run the full Fig. 5 workflow on the ALU stack: generate the pipeline
/// from machine code, drive a random input trace through pipeline and
/// specification, and assert trace equivalence ([`fuzz_run`] over an
/// [`AluTarget`]). Failures carry a minimized counterexample unless
/// [`FuzzConfig::minimize`] is off.
///
/// ```
/// use druzhba_alu_dsl::atoms::atom;
/// use druzhba_core::{MachineCode, Phv, PipelineConfig};
/// use druzhba_dgen::{expected_machine_code, OptLevel, PipelineSpec};
/// use druzhba_dsim::testing::{fuzz_test, ClosureSpec, FuzzConfig};
///
/// // 1-stage accumulator: state += container 0; old state -> container 1.
/// let spec = PipelineSpec::new(
///     PipelineConfig::with_phv_length(1, 1, 2),
///     atom("raw").unwrap(),
///     atom("stateless_mux").unwrap(),
/// )
/// .unwrap();
/// let mut mc = MachineCode::from_pairs(
///     expected_machine_code(&spec).into_iter().map(|(n, _)| (n, 0)),
/// );
/// mc.set("output_mux_phv_0_1", 2);
/// let mut reference = ClosureSpec::new(
///     0u32,
///     |state: &mut u32, input: &Phv| {
///         let old = *state;
///         *state = state.wrapping_add(input.get(0));
///         Phv::new(vec![input.get(0), old])
///     },
///     |s| vec![*s],
/// );
/// let cfg = FuzzConfig { num_phvs: 200, ..FuzzConfig::default() };
/// let report = fuzz_test(&spec, &mc, OptLevel::Fused, &mut reference, &cfg);
/// assert!(report.passed());
/// ```
pub fn fuzz_test(
    pipeline_spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &FuzzConfig,
) -> FuzzReport {
    fuzz_run(&AluTarget::new(pipeline_spec, mc, opt, cfg), reference, cfg)
}

// ----------------------------------------------------------------------
// Parallel fuzz campaigns.
// ----------------------------------------------------------------------

/// Configuration of a multi-run fuzz campaign (the way FP4 and Gauntlet
/// scale their testing loops: many independently seeded runs sharded
/// across workers).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of independent fuzz runs. Run `i` uses the seed
    /// [`shard_seed`]`(base.seed, i)`, so results depend only on the run
    /// index — never on the worker count.
    pub runs: usize,
    /// Worker threads to shard the runs across (clamped to `1..=runs`).
    pub workers: usize,
    /// Template for every run; only the seed varies per run.
    pub base: FuzzConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 8,
            workers: default_workers(),
            base: FuzzConfig::default(),
        }
    }
}

/// Aggregate result of a fuzz campaign: one [`FuzzReport`] per run, in run
/// order (deterministic regardless of worker count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-run reports in run order. A budget-truncated campaign omits
    /// the runs that never started (see
    /// [`CampaignReport::truncated`]); a completed campaign holds every
    /// run, so its report is a pure function of the configuration.
    pub runs: Vec<FuzzReport>,
    /// Number of runs skipped because the wall-clock budget expired.
    /// `0` for a completed campaign.
    pub truncated: usize,
}

impl CampaignReport {
    /// True if every completed run passed.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(FuzzReport::passed)
    }

    /// `(passed, incompatible, mismatched, panicked)` run counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for r in &self.runs {
            match r.verdict {
                Verdict::Pass => counts.0 += 1,
                Verdict::Incompatible(_) => counts.1 += 1,
                Verdict::Mismatch(_) => counts.2 += 1,
                Verdict::BackendPanic { .. } => counts.3 += 1,
            }
        }
        counts
    }

    /// The first failing run, if any (its recorded seed replays the
    /// failure through a plain [`fuzz_run`]).
    pub fn first_failure(&self) -> Option<&FuzzReport> {
        self.runs.iter().find(|r| !r.passed())
    }
}

/// Derive the traffic seed of campaign run `run` from the base seed
/// (SplitMix64 finalizer: statistically independent streams per run, and a
/// pure function of `(base, run)` so campaigns replay deterministically).
pub fn shard_seed(base: u64, run: u64) -> u64 {
    let mut z = base ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run a deterministic multi-threaded fuzz campaign on any [`Target`]:
/// `cfg.runs` independently seeded [`fuzz_run`]s on the resumable
/// work-stealing engine ([`run_resumable`]), each against a fresh
/// reference from `make_reference`, so nothing mutable is shared. Reports
/// come back ordered by run index; a campaign's output is a pure function
/// of its configuration, independent of scheduling.
///
/// `runtime` attaches the crash-proof runtime: checkpointed progress
/// (`--checkpoint DIR --every N`), resume from the latest good snapshot
/// (`--resume DIR`), and a wall-clock budget that ends the campaign
/// cleanly with the report marked truncated. The snapshot records the
/// *passed* run indices only (a pass is fully reconstructible from
/// `(run, phvs, seed)`); failed runs are re-evaluated on resume, which
/// re-derives the identical verdict deterministically — so a
/// killed-and-resumed campaign's final report is byte-identical to an
/// uninterrupted one. A run whose worker panics is recorded as
/// [`Verdict::BackendPanic`] under its traffic seed (the replay recipe).
pub fn fuzz_campaign<R, T, F>(
    target: &T,
    make_reference: F,
    cfg: &CampaignConfig,
    runtime: &RuntimeOptions,
) -> CampaignReport
where
    T: Target<R>,
    F: Fn() -> R + Sync,
{
    let base = &cfg.base;
    let mut parts = vec![format!("{}-campaign", T::STACK)];
    parts.extend(target.program_parts());
    parts.extend([
        cfg.runs.to_string(),
        base.num_phvs.to_string(),
        base.seed.to_string(),
        base.input_bits.to_string(),
    ]);
    parts.extend(target.observation_parts());
    parts.push(base.minimize.to_string());
    let campaign = Campaign {
        kind: T::CAMPAIGN,
        fingerprint: snapshot::fingerprint_of(&parts),
        total: cfg.runs,
        workers: cfg.workers,
        runtime,
    };
    let seed_of = |run: usize| shard_seed(base.seed, run as u64);
    let eval = |run: usize| {
        // The target already holds what the check observes; a run only
        // needs the traffic shape, so nothing is cloned per run.
        let run_cfg = FuzzConfig {
            seed: seed_of(run),
            observable: None,
            state_cells: Vec::new(),
            ..*base
        };
        fuzz_run(target, &mut make_reference(), &run_cfg)
    };
    let out = run_resumable(&campaign, eval, FuzzReport::clone, |run, payload| {
        FuzzReport {
            verdict: Verdict::BackendPanic {
                payload: payload.to_string(),
            },
            phvs_tested: 0,
            seed: seed_of(run),
            minimized: None,
        }
    });
    CampaignReport {
        runs: out.records,
        truncated: out.truncated,
    }
}

/// Checkpoint lines of the seeded campaigns (`campaign`, `p4-campaign`):
/// `pass <run> <phvs> <seed>`. Only passes are recorded — a pass is fully
/// reconstructible from those three numbers; a failed run re-runs on
/// resume and re-derives its identical verdict.
impl RecordCodec for FuzzReport {
    fn encode(&self, run: usize) -> Option<String> {
        self.passed()
            .then(|| format!("pass {run} {} {}", self.phvs_tested, self.seed))
    }

    fn decode(line: &str) -> Option<(usize, Self)> {
        let mut it = line.strip_prefix("pass ")?.split(' ');
        let run = it.next()?.parse().ok()?;
        let phvs_tested = it.next()?.parse().ok()?;
        let seed = it.next()?.parse().ok()?;
        Some((
            run,
            FuzzReport {
                verdict: Verdict::Pass,
                phvs_tested,
                seed,
                minimized: None,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_core::PipelineConfig;
    use druzhba_dgen::expected_machine_code;

    /// Pipeline: 1 stage, width 1; stateful `raw` accumulates container 0
    /// into state and writes the old state to container 1.
    fn accumulator_setup() -> (PipelineSpec, MachineCode) {
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
        // Container 1 <- stateful ALU 0 output (selector width+1 = 2).
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

    /// A reference replaying scripted outputs and a scripted final state,
    /// panicking at packet `panic_at`. With `in_place` it writes into the
    /// caller's buffer when the lengths agree, as `CompiledSpec` does.
    struct Scripted {
        outputs: Vec<Phv>,
        state: Vec<Value>,
        next: usize,
        panic_at: Option<usize>,
        in_place: bool,
    }

    impl Specification for Scripted {
        fn reset(&mut self) {
            self.next = 0;
        }
        fn process(&mut self, _: &Phv) -> Phv {
            assert_ne!(Some(self.next), self.panic_at, "reference panics");
            self.next += 1;
            self.outputs[self.next - 1].clone()
        }
        fn state(&self) -> Vec<Value> {
            self.state.clone()
        }
        fn process_into(&mut self, input: &Phv, out: &mut Phv) {
            let phv = self.process(input);
            if self.in_place && out.len() == phv.len() {
                out.copy_from_slice(phv.containers());
            } else {
                *out = phv;
            }
        }
    }

    /// The comparison [`SpecComparator`] replaced: the reference's whole
    /// output trace through [`Trace::first_mismatch`], then the state
    /// cells in order.
    fn old_comparison(
        reference: &mut Scripted,
        input: &Trace,
        actual: &Trace,
        observable: Option<&[usize]>,
        state_cells: &[(usize, usize, usize)],
    ) -> Option<TraceMismatch> {
        reference.reset();
        let expected = Trace::from_phvs(input.phvs.iter().map(|p| reference.process(p)).collect());
        if let Some(m) = expected.first_mismatch(actual, observable) {
            return Some(m);
        }
        if state_cells.is_empty() {
            return None;
        }
        let snapshot = actual.state.as_ref().expect("run records state");
        let expected_state = reference.state();
        for (i, &(stage, slot, var)) in state_cells.iter().enumerate() {
            let actual_v = snapshot
                .get(stage)
                .and_then(|s| s.get(slot))
                .and_then(|vars| vars.get(var))
                .copied();
            let expected_v = expected_state.get(i).copied();
            if actual_v != expected_v {
                return Some(TraceMismatch::StateMismatch {
                    stage,
                    slot,
                    expected: expected_v.into_iter().collect(),
                    actual: actual_v.into_iter().collect(),
                });
            }
        }
        None
    }

    /// The comparator returns exactly what the old definition returns on
    /// seeded random traces: differing trace and PHV lengths, observable
    /// sets of `None`, subsets and indices past the PHV, and state cells
    /// inside and outside the snapshot. Every comparator starts from a
    /// 3-container buffer that it reuses across packets, so references
    /// that write in place and ones that replace the buffer both run.
    #[test]
    fn comparator_equals_first_mismatch_then_state_cells() {
        use druzhba_core::ValueGen;
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4u64 {
            let mut g = ValueGen::new(0xC0DE ^ seed, 32);
            for _ in 0..2_000 {
                let phv_length = 1 + g.value_below(4) as usize;
                let packets = g.value_below(4) as usize;
                // A PHV of `len` containers valued 0 or 1 (so matches are common).
                let phv = |g: &mut ValueGen, len: usize| {
                    Phv::new((0..len).map(|_| g.value_below(2)).collect())
                };
                let input =
                    Trace::from_phvs((0..packets).map(|_| phv(&mut g, phv_length)).collect());
                let odd_len = |g: &mut ValueGen| match g.value_below(8) {
                    0 => phv_length + 1,
                    1 => phv_length - 1,
                    _ => phv_length,
                };
                let outputs: Vec<Phv> = (0..packets)
                    .map(|_| {
                        let len = odd_len(&mut g);
                        phv(&mut g, len)
                    })
                    .collect();
                // The actual trace mostly copies the expected one.
                let actual_packets = match g.value_below(10) {
                    0 => packets + 1,
                    1 if packets > 0 => packets - 1,
                    _ => packets,
                };
                let phvs = (0..actual_packets)
                    .map(|t| match outputs.get(t) {
                        Some(o) if g.value_below(4) > 0 => o.clone(),
                        _ => {
                            let len = odd_len(&mut g);
                            phv(&mut g, len)
                        }
                    })
                    .collect();
                let snapshot = (0..2)
                    .map(|_| {
                        (0..2)
                            .map(|_| (0..2).map(|_| g.value_below(2)).collect())
                            .collect()
                    })
                    .collect();
                let actual = Trace {
                    phvs,
                    state: Some(snapshot),
                };
                let observable: Option<Vec<usize>> = (g.value_below(3) > 0).then(|| {
                    (0..g.value_below(4))
                        .map(|_| g.value_below(phv_length as Value + 2) as usize)
                        .collect()
                });
                let state_cells: Vec<(usize, usize, usize)> = (0..g.value_below(3))
                    .map(|_| {
                        let mut at = || g.value_below(3) as usize;
                        (at(), at(), at())
                    })
                    .collect();
                let mut reference = Scripted {
                    outputs,
                    state: (0..g.value_below(4)).map(|_| g.value_below(2)).collect(),
                    next: 0,
                    panic_at: None,
                    in_place: g.value_below(2) == 0,
                };
                let old = old_comparison(
                    &mut reference,
                    &input,
                    &actual,
                    observable.as_deref(),
                    &state_cells,
                );
                let mut comparator = SpecComparator::new(3, observable.as_deref(), &state_cells);
                let new = comparator.compare(&mut reference, &input.phvs, &actual);
                assert_eq!(
                    new, old,
                    "seed {seed}: {input:?} vs {actual:?}, {observable:?}"
                );
                seen.insert(new.map_or(VerdictClass::Pass, |m| Verdict::Mismatch(m).class()));
            }
        }
        assert_eq!(seen.len(), 4, "every outcome class is exercised: {seen:?}");
    }

    /// A reference that adds `add` to every input container (an output of
    /// `odd_len` containers when the first input is 1 and `odd_len` is
    /// set) and whose state is the running sum of the first inputs,
    /// `state_len` times over.
    struct Echo {
        add: Value,
        odd_len: Option<usize>,
        state_len: usize,
        sum: Value,
    }

    impl Specification for Echo {
        fn reset(&mut self) {
            self.sum = 0;
        }
        fn process(&mut self, input: &Phv) -> Phv {
            let first = input.try_get(0).unwrap_or(0);
            self.sum = self.sum.wrapping_add(first);
            let len = match self.odd_len {
                Some(len) if first == 1 => len,
                _ => input.len(),
            };
            let out = (0..len).map(|c| input.try_get(c).unwrap_or(0).wrapping_add(self.add));
            Phv::new(out.collect())
        }
        fn state(&self) -> Vec<Value> {
            vec![self.sum; self.state_len]
        }
    }

    /// On seeded random batches, the column check names the first case
    /// that `compare` finds diverging, through the default
    /// case-by-case [`Specification::expect_lanes`]. The batches mix
    /// observable lists (with containers past the PHV) and no list,
    /// expected PHVs of another length, state cells the pipeline lacks and
    /// expected states shorter than the cell list; about a quarter of the
    /// lanes get one corrupted output or state value.
    #[test]
    fn column_check_finds_the_case_compare_finds() {
        use druzhba_core::ValueGen;
        let mut covered = std::collections::BTreeSet::new();
        for seed in 0..4u64 {
            let mut g = ValueGen::new(0xC01 ^ seed, 32);
            for _ in 0..1_000 {
                let n = 1 + g.value_below(3) as usize;
                let ticks = g.value_below(3) as usize;
                let width = [1, 8][g.value_below(2) as usize];
                let active = 1 + g.value_below(width as Value) as usize;
                let mut reference = Echo {
                    add: g.value_below(2),
                    odd_len: (g.value_below(4) == 0)
                        .then(|| g.value_below(n as Value + 2) as usize),
                    state_len: g.value_below(3) as usize,
                    sum: 0,
                };
                let observable: Option<Vec<usize>> = (g.value_below(3) > 0).then(|| {
                    (0..g.value_below(3))
                        .map(|_| g.value_below(n as Value + 2) as usize)
                        .collect()
                });
                // The pipeline has cells (stage, 0, var) for var < vars[stage].
                let vars = [g.value_below(3) as usize, g.value_below(3) as usize];
                let state_cells: Vec<(usize, usize, usize)> = (0..g.value_below(3))
                    .map(|_| (g.value_below(3) as usize, 0, g.value_below(2) as usize))
                    .collect();
                let inputs: Vec<Value> = (0..ticks * n * width).map(|_| g.value_below(2)).collect();
                let case = |l: usize| -> Vec<Phv> {
                    let phv = |t: usize| (0..n).map(|c| inputs[(t * n + c) * width + l]).collect();
                    (0..ticks).map(|t| Phv::new(phv(t))).collect()
                };
                // The pipeline's side starts as the reference's, state
                // cells holding its sum, then some lanes are corrupted.
                let mut actual = vec![0; ticks * n * width];
                let mut cells: Vec<Vec<Vec<Value>>> =
                    vars.iter().map(|&v| vec![vec![0; width]; v]).collect();
                for l in 0..width {
                    reference.reset();
                    for (t, phv) in case(l).iter().enumerate() {
                        let out = reference.process(phv);
                        for c in 0..n {
                            actual[(t * n + c) * width + l] = out.try_get(c).unwrap_or(0);
                        }
                    }
                    for column in cells.iter_mut().flatten() {
                        column[l] = reference.sum;
                    }
                    if g.value_below(4) == 0 {
                        let stage = g.value_below(2) as usize;
                        if g.value_below(2) == 0 && !actual.is_empty() {
                            let at = g.value_below((ticks * n) as Value) as usize * width + l;
                            actual[at] ^= 1;
                        } else if let Some(column) = cells[stage].first_mut() {
                            column[l] ^= 1;
                        }
                    }
                }
                let mut comparator = SpecComparator::new(n, observable.as_deref(), &state_cells);
                let want = (0..active).find(|&l| {
                    let lane_of = |column: &Vec<Value>| column[l];
                    let trace = Trace {
                        phvs: (0..ticks)
                            .map(|t| {
                                Phv::new((0..n).map(|c| actual[(t * n + c) * width + l]).collect())
                            })
                            .collect(),
                        state: Some(
                            cells
                                .iter()
                                .map(|stage| vec![stage.iter().map(lane_of).collect()])
                                .collect(),
                        ),
                    };
                    comparator
                        .compare(&mut reference, &case(l), &trace)
                        .is_some()
                });
                let mut expected = LaneExpectation::new(width, n, ticks);
                reference.expect_lanes(active, &inputs, &mut expected);
                let state = |stage: usize, slot: usize, var: usize| {
                    let column = cells.get(stage).filter(|_| slot == 0)?.get(var)?;
                    Some(column.as_slice())
                };
                let got = comparator.check_lanes(&expected, active, &actual, state);
                assert_eq!(got, want, "seed {seed}: {observable:?} {state_cells:?}");
                let lacks_a_cell = state_cells
                    .iter()
                    .any(|&(stage, _, var)| state(stage, 0, var).is_none());
                for (label, hit) in [
                    ("no observable list", observable.is_none() && want.is_some()),
                    ("a missing cell", lacks_a_cell && want.is_some()),
                    (
                        "a short expected state",
                        reference.state_len < state_cells.len(),
                    ),
                    ("an odd output length", !expected.odd_lengths.is_empty()),
                    ("a divergence past lane 0", want.is_some_and(|l| l > 0)),
                    ("an agreeing batch", want.is_none() && active > 1),
                ] {
                    if hit {
                        covered.insert(label);
                    }
                }
            }
        }
        assert_eq!(covered.len(), 6, "{covered:?}");
    }

    /// The reference steps every packet even after a divergence, so one
    /// that panics on a late packet panics through the comparator as it
    /// did when the whole expected trace was built first.
    #[test]
    fn comparator_steps_a_late_panicking_reference() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let input = Trace::from_phvs(vec![Phv::zeroed(2); 3]);
        let actual = Trace {
            phvs: vec![Phv::new(vec![9, 9]); 3],
            state: Some(Vec::new()),
        };
        let mut reference = Scripted {
            outputs: vec![Phv::zeroed(2); 3],
            state: Vec::new(),
            next: 0,
            panic_at: Some(2),
            in_place: true,
        };
        let mut comparator = SpecComparator::new(2, None, &[]);
        let new = catch_unwind(AssertUnwindSafe(|| {
            comparator.compare(&mut reference, &input.phvs, &actual)
        }));
        assert!(new.is_err(), "the late packet's panic surfaces");
        let old = catch_unwind(AssertUnwindSafe(|| {
            old_comparison(&mut reference, &input, &actual, None, &[])
        }));
        assert!(old.is_err());
        // Without the panic, the divergence at packet 0 is reported.
        reference.panic_at = None;
        assert_eq!(
            comparator.compare(&mut reference, &input.phvs, &actual),
            old_comparison(&mut reference, &input, &actual, None, &[]),
        );
        assert!(matches!(
            comparator.compare(&mut reference, &input.phvs, &actual),
            Some(TraceMismatch::ContainerMismatch { tick: 0, .. })
        ));
    }

    #[test]
    fn correct_machine_code_passes() {
        let (spec, mc) = accumulator_setup();
        let mut reference = accumulator_spec();
        let cfg = FuzzConfig {
            num_phvs: 500,
            state_cells: vec![(0, 0, 0)],
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg);
        assert!(report.passed(), "{:?}", report.verdict);
        assert_eq!(report.phvs_tested, 500);
    }

    #[test]
    fn all_backends_pass_identically() {
        let (spec, mc) = accumulator_setup();
        for opt in OptLevel::ALL {
            let mut reference = accumulator_spec();
            let report = fuzz_test(&spec, &mc, opt, &mut reference, &FuzzConfig::default());
            assert!(report.passed(), "{opt:?}: {:?}", report.verdict);
        }
    }

    #[test]
    fn missing_pair_reported_as_incompatible() {
        let (spec, mut mc) = accumulator_setup();
        mc.remove("output_mux_phv_0_0");
        let mut reference = accumulator_spec();
        let report = fuzz_test(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &FuzzConfig::default(),
        );
        match &report.verdict {
            Verdict::Incompatible(e) => assert!(e.is_incompatibility()),
            other => panic!("expected incompatibility, got {other:?}"),
        }
        assert_eq!(report.phvs_tested, 0);
    }

    #[test]
    fn wrong_machine_code_reported_as_mismatch() {
        let (spec, mut mc) = accumulator_setup();
        // Subtract instead of add: arith_op hole = 1.
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let mut reference = accumulator_spec();
        let report = fuzz_test(
            &spec,
            &mc,
            OptLevel::SccInline,
            &mut reference,
            &FuzzConfig::default(),
        );
        match &report.verdict {
            Verdict::Mismatch(TraceMismatch::ContainerMismatch { container, .. }) => {
                assert_eq!(*container, 1);
            }
            other => panic!("expected container mismatch, got {other:?}"),
        }
    }

    #[test]
    fn state_mismatch_detected() {
        let (spec, mc) = accumulator_setup();
        // Spec claims final state is the accumulated sum plus one.
        let mut wrong_reference = ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                *state = state.wrapping_add(input.get(0));
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![s.wrapping_add(1)],
        );
        let cfg = FuzzConfig {
            state_cells: vec![(0, 0, 0)],
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::Scc, &mut wrong_reference, &cfg);
        assert!(matches!(
            report.verdict,
            Verdict::Mismatch(TraceMismatch::StateMismatch { .. })
        ));
    }

    #[test]
    fn observable_subset_ignores_scratch() {
        let (spec, mut mc) = accumulator_setup();
        // Misroute container 1 (the observable accumulator output) — but
        // only assert container 0: the fault is invisible.
        mc.set("output_mux_phv_0_1", 1);
        let mut reference = accumulator_spec();
        let cfg = FuzzConfig {
            observable: Some(vec![0]),
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg);
        assert!(report.passed());
        // Asserting container 1 exposes it.
        let cfg = FuzzConfig {
            observable: Some(vec![0, 1]),
            ..FuzzConfig::default()
        };
        let mut reference = accumulator_spec();
        let report = fuzz_test(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg);
        assert!(!report.passed());
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let (spec, mc) = accumulator_setup();
        let run_with = |workers: usize| {
            let cfg = CampaignConfig {
                runs: 6,
                workers,
                base: FuzzConfig {
                    num_phvs: 200,
                    state_cells: vec![(0, 0, 0)],
                    ..FuzzConfig::default()
                },
            };
            fuzz_campaign(
                &AluTarget::new(&spec, &mc, OptLevel::Fused, &cfg.base),
                accumulator_spec,
                &cfg,
                &RuntimeOptions::default(),
            )
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        let oversubscribed = run_with(64);
        assert_eq!(serial, parallel, "worker count must not change results");
        assert_eq!(parallel, oversubscribed);
        assert!(serial.passed());
        assert_eq!(serial.counts(), (6, 0, 0, 0));
        assert_eq!(serial.truncated, 0);
        // Every run got its own seed.
        let mut seeds: Vec<u64> = serial.runs.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
    }

    #[test]
    fn campaign_reports_failures_with_replayable_seeds() {
        let (spec, mut mc) = accumulator_setup();
        // Subtract instead of add: every seeded run should catch it.
        mc.set("stateful_alu_0_0_arith_op_0", 1);
        let cfg = CampaignConfig {
            runs: 4,
            workers: 2,
            base: FuzzConfig {
                num_phvs: 200,
                ..FuzzConfig::default()
            },
        };
        let campaign = fuzz_campaign(
            &AluTarget::new(&spec, &mc, OptLevel::Fused, &cfg.base),
            accumulator_spec,
            &cfg,
            &RuntimeOptions::default(),
        );
        assert!(!campaign.passed());
        let (_, incompatible, mismatched, panicked) = campaign.counts();
        assert_eq!(incompatible, 0);
        assert!(mismatched > 0);
        assert_eq!(panicked, 0);
        // A failing run replays identically through a plain fuzz_test with
        // the recorded seed.
        let failure = campaign.first_failure().unwrap().clone();
        let mut reference = accumulator_spec();
        let replay = fuzz_test(
            &spec,
            &mc,
            OptLevel::Fused,
            &mut reference,
            &FuzzConfig {
                seed: failure.seed,
                num_phvs: 200,
                ..FuzzConfig::default()
            },
        );
        assert_eq!(replay.verdict, failure.verdict);
    }

    /// The accumulator machine code with the hostile sentinel planted in
    /// a 32-bit constant hole: valid (in-domain) machine code whose
    /// backend build panics deterministically.
    fn hostile_setup() -> (PipelineSpec, MachineCode) {
        let (spec, mut mc) = accumulator_setup();
        let (name, _) = expected_machine_code(&spec)
            .into_iter()
            .find(|(_, d)| matches!(d, druzhba_alu_dsl::HoleDomain::Bits(b) if *b >= 32))
            .expect("the raw atom has a 32-bit constant hole");
        mc.set(name, druzhba_core::hostile::HOSTILE_TRAP_VALUE);
        (spec, mc)
    }

    #[test]
    fn backend_panic_is_a_verdict_not_an_abort() {
        let (spec, mc) = hostile_setup();
        let mut reference = accumulator_spec();
        let cfg = FuzzConfig {
            num_phvs: 50,
            minimize: false,
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::Fused, &mut reference, &cfg);
        match &report.verdict {
            Verdict::BackendPanic { payload } => {
                assert!(payload.contains("hostile machine-code trap"), "{payload}");
            }
            other => panic!("expected BackendPanic, got {other:?}"),
        }
        assert_eq!(report.verdict.class().key(), "backend_panic");
        assert_eq!(report.phvs_tested, 0);
    }

    #[test]
    fn campaign_survives_panicking_runs() {
        let (spec, mc) = hostile_setup();
        let cfg = CampaignConfig {
            runs: 4,
            workers: 2,
            base: FuzzConfig {
                num_phvs: 50,
                minimize: false,
                ..FuzzConfig::default()
            },
        };
        let campaign = fuzz_campaign(
            &AluTarget::new(&spec, &mc, OptLevel::Scc, &cfg.base),
            accumulator_spec,
            &cfg,
            &RuntimeOptions::default(),
        );
        let (passed, _, _, panicked) = campaign.counts();
        assert_eq!(passed, 0);
        assert_eq!(panicked, 4, "every run records the panic, none aborts");
    }

    #[test]
    fn zero_budget_truncates_cleanly() {
        let (spec, mc) = accumulator_setup();
        let cfg = CampaignConfig {
            runs: 4,
            workers: 2,
            base: FuzzConfig {
                num_phvs: 100,
                ..FuzzConfig::default()
            },
        };
        let runtime = RuntimeOptions {
            budget_secs: Some(0),
            ..RuntimeOptions::default()
        };
        let report = fuzz_campaign(
            &AluTarget::new(&spec, &mc, OptLevel::Fused, &cfg.base),
            accumulator_spec,
            &cfg,
            &runtime,
        );
        assert_eq!(
            report.truncated, 4,
            "no time: every run is skipped, none lost"
        );
        assert!(report.runs.is_empty());
    }

    #[test]
    fn shard_seed_is_pure_and_spreads() {
        assert_eq!(shard_seed(1, 2), shard_seed(1, 2));
        let seeds: std::collections::HashSet<u64> =
            (0..100).map(|i| shard_seed(0xD0D1, i)).collect();
        assert_eq!(seeds.len(), 100, "runs must not collide");
    }

    #[test]
    fn limited_range_bug_class_reproduced() {
        // The §5.2 failure class: machine code that is correct for small
        // inputs but wrong for large ones. Here the pipeline computes
        // container0 % 256 via a washed-out constant... simulated by a
        // machine code that is only exercised at >8-bit values: the raw
        // atom adds C()=256 instead of pkt when mux3 selects the constant.
        let (spec, mut mc) = accumulator_setup();
        // mux3 selects C() = 0: the accumulator never moves, which matches
        // the spec only while inputs are all zero.
        mc.set("stateful_alu_0_0_mux3_0", 2);
        let mut reference = accumulator_spec();
        // 0-bit inputs: every container is zero, the bug is invisible.
        let cfg = FuzzConfig {
            input_bits: 0,
            state_cells: vec![(0, 0, 0)],
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg);
        assert!(report.passed(), "bug must be invisible at 0-bit inputs");
        // 10-bit inputs expose it.
        let mut reference = accumulator_spec();
        let cfg = FuzzConfig {
            input_bits: 10,
            state_cells: vec![(0, 0, 0)],
            ..FuzzConfig::default()
        };
        let report = fuzz_test(&spec, &mc, OptLevel::SccInline, &mut reference, &cfg);
        assert!(!report.passed(), "bug must be visible at 10-bit inputs");
    }
}
