//! Property tests: the front ends never panic on mutated input.
//!
//! Every parser the CLI feeds user text to — Domino, the ALU DSL, P4,
//! `.entries` files and machine-code text — gets corpus inputs damaged by
//! truncation, byte flips, splices and digit-run insertions. Each call
//! must return `Ok` or `Err`; a panic is a bug. Domino mutants that still
//! parse are compiled at their program's Table 1 grid, so the synthesis
//! path sees them too, and machine code that parses must round-trip
//! through its text form.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use druzhba::alu_dsl::atoms::{atom_source, STATEFUL_ATOMS, STATELESS_ATOMS};
use druzhba::alu_dsl::parse_alu;
use druzhba::chipmunk::compile;
use druzhba::core::MachineCode;
use druzhba::domino::parse_program;
use druzhba::dsim::p4::P4Workload;
use druzhba::p4::lower::RmtConfig;
use druzhba::p4::parse_p4;
use druzhba::p4::tables::parse_entries;
use druzhba::programs::{P4_PROGRAMS, PROGRAMS};

/// A number below `n` (`n > 0`).
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One damaged copy of `text`: truncated, a byte flipped, a slice of
/// `donor` spliced in, or a run of digits inserted.
fn mutate(rng: &mut TestRng, text: &str, donor: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = below(rng, bytes.len() + 1);
    match below(rng, 4) {
        0 => bytes.truncate(at),
        1 if !bytes.is_empty() => {
            let i = below(rng, bytes.len());
            bytes[i] = rng.next_u64() as u8;
        }
        2 => {
            let from = below(rng, donor.len() + 1);
            let to = from + below(rng, donor.len() - from + 1).min(40);
            bytes.splice(at..at, donor.as_bytes()[from..to].iter().copied());
        }
        _ => {
            let run: Vec<u8> = (0..1 + below(rng, 24))
                .map(|_| b'0' + below(rng, 10) as u8)
                .collect();
            bytes.splice(at..at, run);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `f`, failing the property if it panics.
fn no_panic<T>(what: &str, input: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError::fail(format!("{what} panicked on:\n{input}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn domino_front_end_and_synthesis_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        for (i, def) in PROGRAMS.iter().enumerate() {
            let donor = PROGRAMS[(i + 1) % PROGRAMS.len()].source;
            let src = mutate(&mut rng, def.source, donor);
            if let Ok(program) = no_panic("parse_program", &src, || parse_program(&src))? {
                let cfg = def.compiler_config();
                no_panic("compile", &src, || compile(&program, &cfg).is_ok())?;
            }
        }
    }

    #[test]
    fn alu_dsl_front_end_never_panics(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let atoms: Vec<&str> = STATEFUL_ATOMS
            .iter()
            .chain(&STATELESS_ATOMS)
            .map(|name| atom_source(name).expect("shipped atom"))
            .collect();
        for (i, source) in atoms.iter().enumerate() {
            let src = mutate(&mut rng, source, atoms[(i + 1) % atoms.len()]);
            no_panic("parse_alu", &src, || parse_alu(&src).is_ok())?;
        }
    }

    #[test]
    fn p4_and_entries_front_ends_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let cfg = RmtConfig::default();
        for (i, def) in P4_PROGRAMS.iter().enumerate() {
            let next = &P4_PROGRAMS[(i + 1) % P4_PROGRAMS.len()];
            let src = mutate(&mut rng, def.source, next.source);
            no_panic("parse_p4", &src, || parse_p4(&src).is_ok())?;
            no_panic("P4Workload::parse", &src, || {
                P4Workload::parse(&src, def.entries, &cfg).is_ok()
            })?;
            let entries = mutate(&mut rng, def.entries, next.entries);
            no_panic("parse_entries", &entries, || parse_entries(&entries).is_ok())?;
            no_panic("P4Workload::parse", &entries, || {
                P4Workload::parse(def.source, &entries, &cfg).is_ok()
            })?;
        }
    }

    #[test]
    fn machine_code_text_never_panics_and_round_trips(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let texts: Vec<String> = PROGRAMS[..3]
            .iter()
            .map(|def| def.compile_cached().expect("corpus compiles").machine_code.to_text())
            .collect();
        for (i, text) in texts.iter().enumerate() {
            let src = mutate(&mut rng, text, &texts[(i + 1) % texts.len()]);
            if let Ok(mc) = no_panic("MachineCode::parse", &src, || MachineCode::parse(&src))? {
                let again = MachineCode::parse(&mc.to_text());
                prop_assert_eq!(again.ok(), Some(mc));
            }
        }
    }
}
