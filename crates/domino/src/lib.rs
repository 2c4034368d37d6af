//! # druzhba-domino
//!
//! A Domino-subset frontend: the high-level packet-transaction language
//! consumed by the paper's case-study compiler (Chipmunk compiles *"a given
//! Domino file"* into machine code, §5.2; the paper's Fig. 1 shows exactly
//! such a program).
//!
//! A program is a single *packet transaction*: persistent `state int`
//! declarations followed by straight-line statements (assignments and
//! `if`/`else`) that run to completion on every packet. Packet fields are
//! accessed as `pkt.<field>`; all values are unsigned 32-bit integers with
//! the same total wrapping semantics as the rest of Druzhba.
//!
//! ```
//! use druzhba_domino::parse_program;
//!
//! let program = parse_program(
//!     "state int count = 0;
//!      if (count == 10) {
//!          count = 0;
//!          pkt.sample = 1;
//!      } else {
//!          count = count + 1;
//!          pkt.sample = 0;
//!      }",
//! ).unwrap();
//! assert_eq!(program.state_vars.len(), 1);
//! assert!(program.fields_read().is_empty());
//! assert_eq!(program.fields_written(), vec!["sample".to_string()]);
//! ```
//!
//! The [`interp`] module provides the reference interpreter that runs a
//! program as the executable specification of the fuzz-testing workflow.

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;

pub use ast::{DominoExpr, DominoProgram, DominoStmt, StateDecl};
pub use interp::Interpreter;

use druzhba_core::Result;

/// Parse and validate a Domino-subset program (one packet transaction:
/// `state int` declarations followed by straight-line statements).
///
/// ```
/// let program = druzhba_domino::parse_program(
///     "state int count = 0;\ncount = count + pkt.len;\n",
/// )
/// .unwrap();
/// assert_eq!(program.state_vars.len(), 1);
/// ```
pub fn parse_program(source: &str) -> Result<DominoProgram> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    ast::validate(&program)?;
    Ok(program)
}
