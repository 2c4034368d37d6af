//! Umbrella crate re-exporting the Druzhba public API, plus the
//! orchestrators that need the corpus, the compilers, and the simulators
//! together and therefore live above all of them: [`hunt`] (machine-code
//! mutation campaigns over the Domino corpus), [`genhunt`] (Gauntlet-style
//! campaigns over freshly *generated* programs), [`p4hunt`] (table/
//! action mutation campaigns and the cross-model dRMT-vs-RMT check over
//! the P4 corpus), [`mutation`] (the driver both mutation campaigns run
//! on), and [`analyze`] (the abstract-interpretation pass —
//! translation validation, lints, and the generator screen — over the
//! same corpus).
pub mod analyze;
pub mod genhunt;
pub mod hunt;
pub mod mutation;
pub mod p4hunt;

pub use druzhba_alu_dsl as alu_dsl;
pub use druzhba_analysis as analysis;
pub use druzhba_chipmunk as chipmunk;
pub use druzhba_core as core;
pub use druzhba_dgen as dgen;
pub use druzhba_domino as domino;
pub use druzhba_drmt as drmt;
pub use druzhba_dsim as dsim;
pub use druzhba_p4 as p4;
pub use druzhba_progen as progen;
pub use druzhba_programs as programs;
