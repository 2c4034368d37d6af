//! End-to-end campaign benchmark for Druzhba.
//!
//! Compiler developers run the paper's Fig. 5 loop (compile → simulate →
//! fuzz/verify) over many programs and faults, and what they wait for is
//! a campaign verdict. This benchmark times that: whole campaigns through
//! their public entry points, in fresh processes, with a spread, plus a
//! traced run that splits the time across layers.
//!
//! # Load
//!
//! A closed loop: one trial process at a time, the next spawned after the
//! previous one exits. Each trial re-executes this binary
//! (`e2e --trial <workload>`), so it pays what a CLI user pays and no
//! process-wide cache (`compile_cached`) survives from one trial to the
//! next. Inside a trial: set-up, one timed call into the campaign entry
//! point, rendering and hashing the report, reading `/proc/self`. A
//! discarded warm-up trial of the shrunken (`--quick`) campaign precedes
//! the timed ones, inside the same time budget. Pooled workloads use two
//! workers.
//!
//! # Workloads
//!
//! - `hunt-corpus` — `druzhba::hunt::hunt` at its defaults: 12 corpus
//!   programs × 4 fault classes × 2 mutants × 4 backends = 384
//!   evaluations, 2000 PHVs × 2 fuzz runs each. The paper's §5.2
//!   fault-injection campaign; the only workload dominated by delta
//!   debugging (`dsim::minimize`). Traced self-time shares at the
//!   default seed: `dsim.minimize` 84%, `dgen.exec.*` 9% (unoptimized
//!   6.5%), `analysis.flag` 2.3%, `domino.interp` 1.4%, `dgen.generate`
//!   1.3%.
//! - `gen-sweep` — `druzhba::genhunt::genhunt` over 600 generated
//!   programs, no injected faults. The Gauntlet-style sweep: front end,
//!   synthesis, the analysis screens and short executions, and no ddmin,
//!   so it bypasses `dsim::minimize`. Traced shares: `dgen.exec.*` 33%
//!   (unoptimized 27%), `analysis.{tv,symbolic,screen}` 35%,
//!   `chipmunk.compile` 15%, `dgen.generate` 9%, `domino.interp` 5%.
//! - `p4-hunt` — `druzhba::p4hunt::p4_hunt_workloads` over the 5 P4
//!   corpus programs (lowered during set-up), 8 mutants per class. The
//!   only workload through `p4`, `dgen::mat` and `dsim::p4`. Traced
//!   shares: `dsim.minimize` (`p4_minimize`) 73%, `p4.exec` 18%,
//!   `dgen.mat` 6%, `dsim.traffic` 1.4%.
//! - `lane-verify` — `dsim::verify::verify_bounded` on `rcp`, fused
//!   backend, 64 lanes, 11-bit inputs × 2 packets = 2^22 cases, single
//!   thread. Runs from reset over enumerated inputs rather than long
//!   stateful traces, and is bound by the reference interpreter. Traced
//!   shares: `domino.interp` 90%, `dgen.lanes` 6.5%, `core.compare`
//!   2.5%.
//!
//! # Seeds
//!
//! The seed picks each workload's inputs. `gen-sweep` uses it as the
//! campaign seed. The two hunts keep the CLI default campaign's mutants
//! and let the seed choose one of the 24 backend orders. Each mutant keeps
//! its four traffic streams, but which backend fuzzes, and delta-debugs,
//! which stream changes, and with it how the work splits across the
//! backends. New mutants per seed would swing a hunt's cost by up to a
//! factor of two, because the ddmin cost of a few mutants dominates it.
//! `lane-verify` is exhaustive and ignores the seed.
//!
//! # Gates
//!
//! A workload's report digest must be identical across its trials
//! (determinism), and the traced run's deterministic counts must equal
//! the untraced report's (faithfulness). Either failure exits nonzero.

pub mod child;
pub mod harness;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
