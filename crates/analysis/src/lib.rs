//! Abstract-interpretation static analyzer for the Druzhba stacks.
//!
//! One reduced-product domain — intervals × known bits ([`domain::AbsVal`])
//! — drives three passes. On both stacks the abstraction is read off the
//! symbolic transfer DAG of [`symbolic`]: each term node carries its
//! `AbsVal`, [`TermStore::abs_eval`] re-evaluates the DAG under an
//! abstract valuation of the entry symbols, and one join/widen loop
//! ([`pipeline`]) iterates that to the cross-packet fixpoint of the
//! Domino state or the P4 registers ([`p4`]). No pass interprets an IR
//! by itself.
//!
//! Every pass, and the symbolic verdict, reads off one build per program:
//! a [`ProgramBuild`] of the Domino levels, or [`p4::analyze_p4`].
//!
//! 1. **Static translation validation** ([`ProgramBuild::tv`],
//!    [`p4::analyze_p4`]): the source semantics (Unoptimized transfer
//!    function, the P4 Scc level's resolved tables) and every compiled
//!    form (specialized pipeline, stack bytecode, fused register program,
//!    lowered `MatInstr` program) are abstractly evaluated from the same
//!    abstract input; any observable whose two abstractions are
//!    *disjoint* is a proven miscompilation — no concrete execution of
//!    either side can agree there. A Domino level whose terms equal the
//!    source's is skipped: identical terms have identical abstractions.
//! 2. **Lint diagnostics**: statically unreachable `if`/mux arms, dead
//!    stateful writes, certain-overflow arithmetic, division by a constant
//!    zero, unreachable tables/entries/actions, always-match LPM prefixes,
//!    reads of never-extracted headers. Diagnostics are deterministic and
//!    machine-readable (see [`druzhba_core::diag`]).
//! 3. **Generator screen** ([`ProgramBuild::screen`]): classifies a generated
//!    program as `Trivial` (provably constant observable outputs),
//!    `Hazardous` (carries overflow/div-by-zero hazards), or
//!    `Interesting` — a cheap validity filter in front of the expensive
//!    differential stages.
//!
//! Soundness contract: for every pass, the concrete result of any run the
//! backends can produce is *contained* in the abstract result. The
//! property tests in `tests/analysis_soundness.rs` pin this against all
//! backends over the shipped corpus and generated programs.

pub mod domain;
pub mod p4;
pub mod pipeline;
pub mod rewrite;
pub mod symbolic;
pub mod term;

pub use domain::{AbsVal, Interval, KnownBits, Tri};
pub use p4::{abstract_input, analyze_p4, P4Abs, P4Analysis, P4TvMismatch};
pub use pipeline::{
    analyze_pipeline, flag_mutant, screen, symbolic_equivalent, symbolic_transfer,
    symbolic_validate, symbolic_validate_level, translation_validate, EdgeKey, LintRecord,
    PipelineAbs, ProgramBuild, Screened, StaticFlag, TvMismatch, TvSite,
};
pub use symbolic::{
    p4_symbolic_entries_equivalent, SymTransfer, SymbolicResidual, SymbolicVerdict,
};
pub use term::{Node, Sym, TermId, TermStore};
