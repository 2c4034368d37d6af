//! # druzhba-p4
//!
//! A from-scratch P4-14 subset frontend for the dRMT side of Druzhba
//! (paper §4.1): *"dgen takes as input a P4 file representing the
//! algorithmic behavior specified in the context of a feed-forward
//! pipeline. dgen converts the given P4 file into a DAG representing the
//! match+action table dependencies."*
//!
//! Supported P4-14 constructs:
//!
//! - `header_type` declarations with fixed-width fields;
//! - `header` / `metadata` instances;
//! - a linear `parser` (a chain of `extract` statements ending in
//!   `return ingress`);
//! - `register` declarations (`width` / `instance_count`);
//! - `counter` declarations;
//! - `action` declarations over the primitive actions `modify_field`,
//!   `add_to_field`, `subtract_from_field`, `register_read`,
//!   `register_write`, `count`, `no_op`, and `drop`;
//! - `table` declarations with `reads { field : exact|ternary|lpm; }`,
//!   `actions`, and `size`;
//! - a `control ingress` block applying tables in sequence, with
//!   `if (valid(header)) { … } else { … }` conditionals.
//!
//! [`deps`] classifies the pairwise table dependencies (match, action,
//! successor) that drive the dRMT scheduler, following the taxonomy of the
//! RMT/dRMT papers.
//!
//! Beyond parsing and analysis, this crate gives the subset *executable*
//! match-action semantics:
//!
//! - [`tables`] — the table-entry configuration format of §4.2 plus the
//!   shared exact/ternary/lpm match engine every execution model uses;
//! - [`exec`] — the sequential reference interpreter ([`exec::Interpreter`]):
//!   per-packet table application in control order with registers,
//!   counters, default actions, and per-packet table-hit traces. This is
//!   the oracle the simulated pipelines are differentially fuzzed against;
//! - [`lower`] — the RMT lowering pass: packet fields are laid out onto
//!   PHV containers ([`lower::FieldLayout`]) and tables are assigned to
//!   pipeline stages from the dependency DAG ([`lower::lower`]), producing
//!   the placement that dgen's match-action backends execute.
//!
//! Data-flow neighbors: `druzhba-core` supplies the value domain and
//! errors; `druzhba-drmt` consumes [`Hlir`]/[`TableDag`] for scheduling
//! and re-exports [`exec::Packet`] and [`tables`] for its machine; dgen's
//! `mat` module executes [`lower::RmtLowering`] on four backends; dsim's
//! `p4` module drives the differential fuzzing loop.
//!
//! # Example
//!
//! ```
//! let hlir = druzhba_p4::parse_p4(
//!     "header_type h { fields { a : 32; } }\n\
//!      header h pkt;\n\
//!      parser start { extract(pkt); return ingress; }\n\
//!      action nop() { no_op(); }\n\
//!      table t { reads { pkt.a : exact; } actions { nop; } }\n\
//!      control ingress { apply(t); }",
//! )
//! .unwrap();
//! assert_eq!(hlir.tables.len(), 1);
//! assert_eq!(hlir.fields.len(), 1);
//! ```

pub mod ast;
pub mod deps;
pub mod exec;
pub mod hlir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod tables;

pub use ast::P4Program;
pub use deps::{DependencyKind, TableDag};
pub use exec::{Interpreter, Packet};
pub use hlir::Hlir;
pub use lower::{FieldLayout, RmtConfig, RmtLowering};
pub use tables::{parse_entries, ProgramTables, TableEntry};

use druzhba_core::Result;

/// Parse and resolve a P4-14 subset program.
pub fn parse_p4(source: &str) -> Result<Hlir> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    hlir::resolve(program)
}
