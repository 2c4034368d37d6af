//! # druzhba-dgen
//!
//! The pipeline code generator of the paper's §3.2–§3.4. dgen takes
//! (1) the depth and width of the pipeline, (2) a high-level representation
//! of the ALU structure (an [ALU DSL](druzhba_alu_dsl) specification), and
//! (3) machine code determining the switch's behaviour, and produces an
//! executable *pipeline description* — effectively *"a family of simulators,
//! one for each possible pipeline configuration"*.
//!
//! Three backends mirror the paper's three optimization levels (Fig. 6),
//! and a fourth goes one level beyond the paper:
//!
//! | Backend | Paper version | Behaviour |
//! |---------|---------------|-----------|
//! | [`OptLevel::Unoptimized`] | version 1 | machine-code values are looked up in a hash map at every access, and every mux arm / opcode dispatch is evaluated at runtime |
//! | [`OptLevel::Scc`] | version 2 | *sparse conditional constant propagation*: hole values are substituted as constants, constant expressions are folded, and dead control paths are eliminated |
//! | [`OptLevel::SccInline`] | version 3 | *function inlining*: the specialized AST is flattened into a linear bytecode program with no interpretive helper indirection |
//! | [`OptLevel::Fused`] | version 4 (beyond the paper) | *whole-pipeline fusion*: every input mux, specialized ALU body, and output mux of all `depth × width` positions is compiled into one flat register program executed against a single preallocated scratch frame — zero heap allocations and zero string hashing per PHV |
//!
//! [`emit`] additionally renders the pipeline description as Rust source
//! text at each optimization level, reproducing the paper's Fig. 6 samples
//! (the real Druzhba compiles this generated source together with dsim; as a
//! library we both emit the source and execute semantically identical
//! in-process backends).
//!
//! Beyond the ALU path, [`mat`] applies the same four-backend scheme to
//! the paper's §4 P4 direction: from a resolved P4 program, populated
//! table entries, and an RMT lowering
//! ([`druzhba_p4::lower::RmtLowering`]), [`MatPipeline::generate`] builds
//! an executable *match-action* pipeline — interpretive, resolved,
//! per-table bytecode, or whole-pipeline fused — that dsim's `p4` module
//! differentially fuzzes against the reference interpreter.

pub mod bytecode;
pub mod emit;
pub mod eval;
pub mod fused;
pub mod lanes;
pub mod mat;
pub mod opt;
pub mod pipeline;

pub use bytecode::BytecodeProgram;
pub use fused::{FusedInstr, FusedPipeline};
pub use lanes::{LanePipeline, LaneSweep, LANE_WIDTHS};
pub use mat::{emit_mat_pipeline, MatInstr, MatPipeline};
pub use opt::specialize;
pub use pipeline::{expected_machine_code, AluUnit, Pipeline, PipelineSpec, Stage};

/// The optimization level applied by dgen when generating a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Version 1: runtime hash-map lookups and full dispatch.
    Unoptimized,
    /// Version 2: sparse conditional constant propagation.
    Scc,
    /// Version 3: SCC propagation plus function inlining.
    #[default]
    SccInline,
    /// Version 4 (beyond the paper): whole-pipeline fusion into one flat
    /// register program with a preallocated scratch frame.
    Fused,
}

impl OptLevel {
    /// All levels, in the order benchmarked by the paper's Table 1
    /// (followed by the beyond-paper fused level).
    pub const ALL: [OptLevel; 4] = [
        OptLevel::Unoptimized,
        OptLevel::Scc,
        OptLevel::SccInline,
        OptLevel::Fused,
    ];

    /// Human-readable label matching Table 1's column headers (the fused
    /// level extends the table beyond the paper).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Unoptimized => "Unoptimized",
            OptLevel::Scc => "SCC propagation",
            OptLevel::SccInline => "+ Function inlining",
            OptLevel::Fused => "+ Pipeline fusion",
        }
    }

    /// Stable snake_case key used in machine-readable benchmark output
    /// (`BENCH_scaling.json`).
    pub fn key(self) -> &'static str {
        match self {
            OptLevel::Unoptimized => "unoptimized",
            OptLevel::Scc => "scc",
            OptLevel::SccInline => "scc_inline",
            OptLevel::Fused => "fused",
        }
    }

    /// Inverse of [`OptLevel::key`], for checkpoint decoding.
    pub fn from_key(key: &str) -> Option<OptLevel> {
        OptLevel::ALL.into_iter().find(|l| l.key() == key)
    }
}
