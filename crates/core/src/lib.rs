//! # druzhba-core
//!
//! Fundamental types shared by every Druzhba crate: the machine [`Value`]
//! domain, packet header vectors ([`Phv`]), machine-code programs
//! ([`MachineCode`]), the machine-code [naming conventions](names), pipeline
//! configurations ([`PipelineConfig`]), simulation traces, deterministic
//! random-value generation, and the common error type.
//!
//! Druzhba models the low-level hardware primitives of an RMT
//! (Reconfigurable Match Tables) switch pipeline: PHV containers flow
//! through a feedforward pipeline of stages, each stage holding stateless
//! and stateful ALUs wired to the PHV through input and output multiplexers.
//! The behaviour of every primitive is programmed by a *machine code pair* —
//! a `(String, Value)` tuple whose name identifies the primitive and whose
//! value selects its behaviour.

pub mod config;
pub mod coverage;
pub mod diag;
pub mod error;
pub mod hostile;
pub mod json;
pub mod machine_code;
pub mod names;
pub mod phv;
pub mod rng;
pub mod trace;
pub mod value;

pub use config::PipelineConfig;
pub use coverage::CoverageMap;
pub use diag::{Diagnostic, Severity};
pub use error::{Error, Result};
pub use machine_code::MachineCode;
pub use phv::Phv;
pub use rng::ValueGen;
pub use trace::{StateSnapshot, Trace, TraceMismatch};
pub use value::Value;
