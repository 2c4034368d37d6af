//! Bounded exhaustive verification applied to compiled Table 1 programs:
//! within small input bounds, equivalence with the specification is
//! *proved*, not sampled — the realizable core of the paper's §7 plan.

use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba::core::{MachineCode, Phv, Value};
use druzhba::dgen::{OptLevel, LANE_WIDTHS};
use druzhba::domino::parse_program;
use druzhba::dsim::testing::{ClosureSpec, Specification};
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba::programs::by_name;

fn verify_program(name: &str, bits: u32, packets: usize) -> VerifyOutcome {
    let def = by_name(name).unwrap();
    let compiled = def.compile_cached().unwrap();
    // Input fields occupy the first containers.
    let relevant: Vec<usize> = (0..compiled.input_fields.len()).collect();
    let mut spec = def.interpreter_spec(&compiled);
    verify_bounded(
        &compiled.pipeline_spec,
        &compiled.machine_code,
        OptLevel::SccInline,
        &mut spec,
        &VerifyConfig {
            input_bits: bits,
            packets,
            relevant_containers: relevant,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            max_cases: 100_000,
            lanes: 0,
        },
    )
    .unwrap()
}

/// Input-free programs: exhaustive over trace length alone (their
/// behaviour is a pure function of packet count).
#[test]
fn input_free_programs_verified_for_long_traces() {
    for name in [
        "sampling",
        "marple_new_flow",
        "snap_heavy_hitter",
        "spam_detection",
    ] {
        // Long enough to cross every threshold in these programs
        // (sampling resets at 10, heavy hitter trips at 20, spam at 50).
        let outcome = verify_program(name, 1, 60);
        match outcome {
            VerifyOutcome::Verified { cases } => assert_eq!(cases, 1, "{name}"),
            other => panic!("{name}: {other:?}"),
        }
    }
}

/// CONGA (2 input fields) verified exhaustively at 2-bit inputs over
/// 2-packet traces: 4^4 = 256 cases.
#[test]
fn conga_exhaustive_two_packets() {
    match verify_program("conga", 2, 2) {
        VerifyOutcome::Verified { cases } => assert_eq!(cases, 256),
        other => panic!("{other:?}"),
    }
}

/// RCP (1 input field) exhaustively at 3-bit inputs over 3 packets:
/// 8^3 = 512 cases.
#[test]
fn rcp_exhaustive_three_packets() {
    match verify_program("rcp", 3, 3) {
        VerifyOutcome::Verified { cases } => assert_eq!(cases, 512),
        other => panic!("{other:?}"),
    }
}

/// Marple TCP NMO (1 input field): sequence-number regressions need at
/// least two packets; 3-bit values over 3 packets cover every ordering.
#[test]
fn marple_tcp_nmo_exhaustive() {
    match verify_program("marple_tcp_nmo", 3, 3) {
        VerifyOutcome::Verified { cases } => assert_eq!(cases, 512),
        other => panic!("{other:?}"),
    }
}

/// Verification finds deliberately corrupted machine code with a concrete
/// counterexample, where the same corruption might need many fuzzing
/// samples.
#[test]
fn verification_produces_concrete_counterexample() {
    let def = by_name("rcp").unwrap();
    let compiled = def.compile_cached().unwrap();
    // Corrupt a live immediate (the RTT threshold machinery).
    let (name, v) = compiled
        .machine_code
        .iter()
        .find(|(n, v)| n.contains("const") && *v == 30)
        .map(|(n, v)| (n.to_string(), v))
        .expect("the RTT limit lives in an immediate");
    let mut bad = compiled.machine_code.clone();
    bad.set(name, v - 29); // threshold 30 -> 1
    let relevant: Vec<usize> = (0..compiled.input_fields.len()).collect();
    let mut spec = def.interpreter_spec(&compiled);
    let outcome = verify_bounded(
        &compiled.pipeline_spec,
        &bad,
        OptLevel::SccInline,
        &mut spec,
        &VerifyConfig {
            input_bits: 3,
            packets: 2,
            relevant_containers: relevant,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            max_cases: 100_000,
            lanes: 0,
        },
    )
    .unwrap();
    match outcome {
        VerifyOutcome::CounterExample { input, .. } => {
            // The diverging RTT must exceed the corrupted threshold.
            assert!(input.phvs.iter().any(|p| p.get(0) > 1));
        }
        other => panic!("expected counterexample, got {other:?}"),
    }
}

/// Verify `mc` against a fresh reference from `reference` with the scalar
/// fused backend, then at every lane width, and require one outcome.
fn same_outcome_at_every_width(
    compiled: &CompiledProgram,
    mc: &MachineCode,
    bits: u32,
    packets: usize,
    reference: &dyn Fn() -> Box<dyn Specification>,
) -> VerifyOutcome {
    let cfg = VerifyConfig {
        input_bits: bits,
        packets,
        relevant_containers: (0..compiled.input_fields.len()).collect(),
        observable: Some(compiled.observable_containers()),
        state_cells: compiled.state_cells.clone(),
        max_cases: 1 << 22,
        lanes: 0,
    };
    let spec = &compiled.pipeline_spec;
    let scalar = verify_bounded(spec, mc, OptLevel::Fused, &mut *reference(), &cfg).unwrap();
    for lanes in LANE_WIDTHS {
        let cfg = VerifyConfig {
            lanes,
            ..cfg.clone()
        };
        let swept = verify_bounded(spec, mc, OptLevel::Fused, &mut *reference(), &cfg).unwrap();
        assert_eq!(swept, scalar, "width {lanes}");
    }
    scalar
}

/// Lane-swept verification reaches the scalar outcome at every width
/// through both reference paths: the Domino interpreter, which runs a
/// whole batch at once, and the hand-written specification, which runs
/// case by case. Verified corpus programs and a corrupted `rcp` both.
#[test]
fn lane_outcomes_equal_scalar_through_both_reference_paths() {
    for (name, bits, packets, cases) in [
        ("rcp", 3, 3, 512),
        ("sampling", 1, 12, 1),
        ("stateful_firewall", 2, 2, 256),
    ] {
        let def = by_name(name).unwrap();
        let compiled = def.compile_cached().unwrap();
        let mc = &compiled.machine_code;
        let interp = || Box::new(def.interpreter_spec(&compiled)) as Box<dyn Specification>;
        let hand = || Box::new(def.hand_spec(&compiled)) as Box<dyn Specification>;
        for reference in [&interp as &dyn Fn() -> _, &hand] {
            let outcome = same_outcome_at_every_width(&compiled, mc, bits, packets, reference);
            assert_eq!(outcome, VerifyOutcome::Verified { cases }, "{name}");
        }
    }
    let def = by_name("rcp").unwrap();
    let compiled = def.compile_cached().unwrap();
    let mut bad = compiled.machine_code.clone();
    let name = compiled
        .machine_code
        .iter()
        .find(|(n, v)| n.contains("const") && *v == 30)
        .map(|(n, _)| n.to_string())
        .expect("the RTT limit lives in an immediate");
    bad.set(name, 1);
    let interp = || Box::new(def.interpreter_spec(&compiled)) as Box<dyn Specification>;
    let hand = || Box::new(def.hand_spec(&compiled)) as Box<dyn Specification>;
    for reference in [&interp as &dyn Fn() -> _, &hand] {
        let outcome = same_outcome_at_every_width(&compiled, &bad, 3, 2, reference);
        assert!(
            matches!(outcome, VerifyOutcome::CounterExample { .. }),
            "{outcome:?}"
        );
    }
}

/// The `verify_threshold` fixture's counterexample (x > 1500 lies outside
/// the 10-bit synthesis range) is the same at every width, through the
/// interpreter and through a hand-written closure reference.
#[test]
fn threshold_counterexample_is_the_same_at_every_width() {
    let program = parse_program(include_str!("fixtures/verify_threshold.domino")).unwrap();
    let compiled = compile(&program, &CompilerConfig::new(2, 1, "if_else_raw")).unwrap();
    let big = compiled.output_fields["big"];
    let phv_length = compiled.pipeline_spec.config.phv_length;
    let interp =
        || Box::new(CompiledSpec::new(program.clone(), &compiled)) as Box<dyn Specification>;
    let hand = || {
        let step = move |seen: &mut Value, input: &Phv| {
            let mut out = Phv::zeroed(phv_length);
            if input.get(0) > 1500 {
                out.set(big, 1);
                *seen = 1;
            }
            out
        };
        Box::new(ClosureSpec::new(0, step, |seen| vec![*seen])) as Box<dyn Specification>
    };
    let mc = &compiled.machine_code;
    for reference in [&interp as &dyn Fn() -> _, &hand] {
        let outcome = same_outcome_at_every_width(&compiled, mc, 11, 2, reference);
        let VerifyOutcome::CounterExample { input, .. } = outcome else {
            panic!("expected a counterexample, got {outcome:?}");
        };
        assert_eq!(input.phvs[0].get(0), 1501);
    }
}
