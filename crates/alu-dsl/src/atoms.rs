//! The ALU library shipped with Druzhba.
//!
//! Paper §3.1: *"We have written 5 stateless ALUs and 6 stateful ALUs that
//! make use of our ALU DSL grammar that represent the behavior of atoms in
//! Banzai, a switch pipeline simulator for Domino. Atoms are Banzai's
//! natively supported atomic units of packet processing."*
//!
//! The six stateful atoms are `raw`, `sub`, `if_else_raw` (the paper's
//! Fig. 4), `pred_raw`, `nested_ifs`, and `pair`; the five stateless ALUs
//! are `stateless_mux`, `stateless_arith`, `stateless_rel`,
//! `stateless_select`, and `stateless_full`.

use std::sync::OnceLock;

use druzhba_core::{Error, Result};

use crate::ast::AluSpec;
use crate::parse_alu;

/// Names of the six stateful atoms, matching Table 1's "ALU name" column.
pub const STATEFUL_ATOMS: [&str; 6] = [
    "raw",
    "sub",
    "if_else_raw",
    "pred_raw",
    "nested_ifs",
    "pair",
];

/// Names of the five stateless ALUs.
pub const STATELESS_ATOMS: [&str; 5] = [
    "stateless_mux",
    "stateless_arith",
    "stateless_rel",
    "stateless_select",
    "stateless_full",
];

/// The DSL source of a named atom, or `None` if unknown.
pub fn atom_source(name: &str) -> Option<&'static str> {
    Some(match name {
        "raw" => include_str!("../assets/raw.alu"),
        "sub" => include_str!("../assets/sub.alu"),
        "if_else_raw" => include_str!("../assets/if_else_raw.alu"),
        "pred_raw" => include_str!("../assets/pred_raw.alu"),
        "nested_ifs" => include_str!("../assets/nested_ifs.alu"),
        "pair" => include_str!("../assets/pair.alu"),
        "stateless_mux" => include_str!("../assets/stateless_mux.alu"),
        "stateless_arith" => include_str!("../assets/stateless_arith.alu"),
        "stateless_rel" => include_str!("../assets/stateless_rel.alu"),
        "stateless_select" => include_str!("../assets/stateless_select.alu"),
        "stateless_full" => include_str!("../assets/stateless_full.alu"),
        _ => return None,
    })
}

/// Parse a named atom into an [`AluSpec`]. Each atom is parsed once per
/// process; later calls return a copy of that parse.
pub fn atom(name: &str) -> Result<AluSpec> {
    const COUNT: usize = STATEFUL_ATOMS.len() + STATELESS_ATOMS.len();
    static PARSED: [OnceLock<Result<AluSpec>>; COUNT] = [const { OnceLock::new() }; COUNT];
    let (index, source) = STATEFUL_ATOMS
        .iter()
        .chain(&STATELESS_ATOMS)
        .position(|&n| n == name)
        .zip(atom_source(name))
        .ok_or_else(|| Error::Other {
            message: format!(
                "unknown atom `{name}` (available: {:?} and {:?})",
                STATEFUL_ATOMS, STATELESS_ATOMS
            ),
        })?;
    PARSED[index].get_or_init(|| parse_alu(source)).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_core::names::AluKind;

    #[test]
    fn all_stateful_atoms_parse() {
        for name in STATEFUL_ATOMS {
            let spec = atom(name).unwrap_or_else(|e| panic!("atom {name}: {e}"));
            assert_eq!(spec.kind, AluKind::Stateful, "{name}");
            assert_eq!(spec.name, name);
            assert!(!spec.state_vars.is_empty(), "{name}");
        }
    }

    #[test]
    fn all_stateless_atoms_parse() {
        for name in STATELESS_ATOMS {
            let spec = atom(name).unwrap_or_else(|e| panic!("atom {name}: {e}"));
            assert_eq!(spec.kind, AluKind::Stateless, "{name}");
            assert!(spec.state_vars.is_empty(), "{name}");
        }
    }

    #[test]
    fn unknown_atom_is_error() {
        assert!(atom("frobnicate").is_err());
    }

    #[test]
    fn pair_has_two_state_variables() {
        let spec = atom("pair").unwrap();
        assert_eq!(spec.state_vars, vec!["state_0", "state_1"]);
    }

    #[test]
    fn if_else_raw_matches_figure_4_hole_count() {
        // Fig. 4: one rel_op, three Opt, three Mux3, three C().
        let spec = atom("if_else_raw").unwrap();
        assert_eq!(spec.holes.len(), 10);
        assert!(spec.hole("rel_op_0").is_some());
        assert!(spec.hole("opt_2").is_some());
        assert!(spec.hole("mux3_2").is_some());
        assert!(spec.hole("const_2").is_some());
    }

    #[test]
    fn stateless_full_has_opcode_hole() {
        let spec = atom("stateless_full").unwrap();
        let opcode = spec.hole("opcode").unwrap();
        assert_eq!(opcode.domain, crate::HoleDomain::Bits(3));
    }

    #[test]
    fn atoms_have_two_operands() {
        for name in STATEFUL_ATOMS.iter().chain(STATELESS_ATOMS.iter()) {
            assert_eq!(atom(name).unwrap().operand_count(), 2, "{name}");
        }
    }
}
