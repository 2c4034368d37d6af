//! # druzhba-dsim
//!
//! The simulation component of the paper's §3.3: dsim takes the pipeline
//! description generated by [dgen](druzhba_dgen) and simulates feedforward
//! packet processing over it, one PHV entering the pipeline per tick.
//!
//! Four pieces:
//!
//! - [`traffic`] — the traffic generator: *"creates a sequence of PHVs where
//!   every PHV consists of random unsigned integers"*;
//! - [`sim`] — the tick-accurate simulator, modelling each PHV *"in two
//!   parts: a read half and a write half"* so a PHV can never traverse two
//!   stages in one tick;
//! - [`testing`] — the fuzzing-based compiler-testing workflow of Fig. 5:
//!   a high-level [`testing::Specification`] processes the
//!   same input trace, and assertions check the equivalence of the two
//!   output traces; failures are classified the way the paper's case study
//!   classifies them (machine code incompatible with the pipeline vs.
//!   behavioural trace mismatch). Both differential stacks implement one
//!   [`testing::Target`] trait, so one seeded run ([`testing::fuzz_run`])
//!   and one resumable campaign ([`testing::fuzz_campaign`]) serve both;
//!   the campaign scales the loop the way FP4 and Gauntlet scale theirs:
//!   many independently seeded runs sharded across OS threads,
//!   deterministic per run index;
//! - [`fault`] — machine-code fault injection used to validate that the
//!   tester actually detects the §5.2 failure classes;
//! - [`mod@minimize`] — counterexample minimization: solver-free delta
//!   debugging (packet ddmin, value shrinking, machine-code reduction
//!   against a known-good baseline) that turns a raw divergence into the
//!   smallest reproducing input. Fuzzing and verification failures carry
//!   a [`minimize::MinimizedCounterExample`] in their reports. A
//!   minimization checks every candidate through one
//!   [`testing::AluChecker`] (or [`p4::P4Checker`]), which keeps the
//!   built pipeline while the machine code (or entry set) stays the same.
//!
//! The paper's §4 P4 direction gets the same treatment in [`p4`]: the
//! lowered match-action pipeline (dgen's `mat` backends) is
//! differentially fuzzed against the sequential reference interpreter —
//! seeded traffic ([`p4::P4Traffic`]), single-case checks
//! ([`p4::run_p4_case`]), the stack's [`p4::P4Target`] for the shared
//! seeded and campaign drivers,
//! table/action fault injection ([`p4::P4FaultInjector`]), and
//! counterexample minimization through the shared delta-debugging engine
//! ([`p4::p4_minimize`]).
//!
//! Two of the paper's §7 future-work items are implemented as well:
//! [`debugger`], a bidirectional time-travel debugger over recorded
//! simulations, and [`verify`], bounded exhaustive equivalence
//! verification (a solver-free stand-in for the proposed SMT encoding).
//!
//! No driver here reads execution coverage. The ALU pipeline's coverage
//! map ([`druzhba_core::coverage`]) has two readers outside this crate:
//! the known-imprecision list of `druzhba analyze` and the dead-edge
//! cross-check of the static analysis (`tests/analysis_soundness.rs`).

pub mod debugger;
pub mod fault;
pub mod minimize;
pub mod p4;
pub mod runtime;
pub mod sim;
pub mod snapshot;
pub mod testing;
pub mod traffic;
pub mod verify;

pub use debugger::{TickRecord, TimeTravelDebugger};
pub use minimize::{
    ddmin_items, minimize, minimize_fault, MachineCodeEdit, MinimizeConfig, MinimizedCounterExample,
};
pub use runtime::{catch_silent, run_stealing_observed, RuntimeOptions, WorkerPanic};
pub use sim::Simulator;
pub use testing::{
    fuzz_campaign, fuzz_run, fuzz_test, run_case, shard_seed, AluChecker, AluTarget,
    CampaignConfig, CampaignReport, FuzzConfig, FuzzReport, Specification, Target, Verdict,
    VerdictClass,
};
pub use traffic::TrafficGenerator;
pub use verify::{verify_bounded, VerifyConfig, VerifyOutcome};
