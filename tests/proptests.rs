//! Property-based tests over the core invariants:
//!
//! - all four dgen backends (including the beyond-paper fused register
//!   program) are observationally equivalent for *any* in-domain machine
//!   code and any PHV stream;
//! - tick-accurate simulation equals per-PHV immediate execution;
//! - machine-code text round-trips;
//! - ALU DSL mux/opt algebra;
//! - dRMT schedules produced by both solvers are always feasible.

use proptest::prelude::*;

use druzhba::alu_dsl::atoms::atom;
use druzhba::alu_dsl::HoleDomain;
use druzhba::core::{MachineCode, Phv, PipelineConfig, Trace};
use druzhba::dgen::{expected_machine_code, OptLevel, Pipeline, PipelineSpec};
use druzhba::dsim::Simulator;

/// Build a pipeline spec for one of the shipped atom pairs.
fn spec_for(stateful: &str, stateless: &str, depth: usize, width: usize) -> PipelineSpec {
    PipelineSpec::new(
        PipelineConfig::new(depth, width),
        atom(stateful).unwrap(),
        atom(stateless).unwrap(),
    )
    .unwrap()
}

/// Strategy: an arbitrary in-domain machine code for the spec.
fn machine_code_strategy(spec: &PipelineSpec) -> impl Strategy<Value = MachineCode> {
    let expected = expected_machine_code(spec);
    let fields: Vec<(String, u32)> = expected
        .into_iter()
        .map(|(name, domain)| {
            let bound = match domain {
                HoleDomain::Choice(n) => n,
                // Immediates: keep within 8 bits so arithmetic stays
                // interesting without overflowing everything.
                HoleDomain::Bits(b) => 1u32 << b.min(8),
            };
            (name, bound)
        })
        .collect();
    let values: Vec<BoxedStrategy<u32>> = fields
        .iter()
        .map(|(_, bound)| (0..*bound).boxed())
        .collect();
    let names: Vec<String> = fields.into_iter().map(|(n, _)| n).collect();
    values.prop_map(move |vs| MachineCode::from_pairs(names.iter().cloned().zip(vs)))
}

fn phv_stream(len: usize, count: usize) -> impl Strategy<Value = Vec<Phv>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..1024, len).prop_map(Phv::new),
        count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any machine code and any input PHVs, the unoptimized, SCC,
    /// inlined, and fused backends produce identical traces and final
    /// state.
    #[test]
    fn backends_equivalent_if_else_raw(
        mc in machine_code_strategy(&spec_for("if_else_raw", "stateless_full", 2, 2)),
        phvs in phv_stream(2, 24),
    ) {
        let spec = spec_for("if_else_raw", "stateless_full", 2, 2);
        let input = Trace::from_phvs(phvs);
        let mut results = Vec::new();
        for opt in OptLevel::ALL {
            let pipeline = Pipeline::generate(&spec, &mc, opt).unwrap();
            let mut sim = Simulator::new(pipeline);
            results.push(sim.run(&input));
        }
        for pair in results.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }

    /// Same four-backend equivalence for the two-state-variable pair atom.
    #[test]
    fn backends_equivalent_pair(
        mc in machine_code_strategy(&spec_for("pair", "stateless_arith", 1, 2)),
        phvs in phv_stream(2, 24),
    ) {
        let spec = spec_for("pair", "stateless_arith", 1, 2);
        let input = Trace::from_phvs(phvs);
        let mut results = Vec::new();
        for opt in OptLevel::ALL {
            let pipeline = Pipeline::generate(&spec, &mc, opt).unwrap();
            let mut sim = Simulator::new(pipeline);
            results.push(sim.run(&input));
        }
        for pair in results.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }

    /// The fused register program is tick-accurate too: driving it through
    /// the read-half/write-half simulator equals per-PHV batch processing.
    #[test]
    fn fused_ticked_equals_batched(
        mc in machine_code_strategy(&spec_for("nested_ifs", "stateless_select", 3, 1)),
        phvs in phv_stream(1, 20),
    ) {
        let spec = spec_for("nested_ifs", "stateless_select", 3, 1);
        let input = Trace::from_phvs(phvs.clone());
        let mut sim = Simulator::new(
            Pipeline::generate(&spec, &mc, OptLevel::Fused).unwrap(),
        );
        let ticked = sim.run(&input);
        let mut batched = Pipeline::generate(&spec, &mc, OptLevel::Fused).unwrap();
        let mut batch = phvs;
        batched.process_batch(&mut batch);
        prop_assert_eq!(ticked.phvs, batch);
        prop_assert_eq!(ticked.state.unwrap(), batched.state_snapshot());
    }

    /// Tick-accurate pipelined execution equals pushing each PHV through
    /// all stages immediately (the read-half/write-half discipline never
    /// reorders or corrupts).
    #[test]
    fn ticked_equals_immediate(
        mc in machine_code_strategy(&spec_for("nested_ifs", "stateless_select", 3, 1)),
        phvs in phv_stream(1, 20),
    ) {
        let spec = spec_for("nested_ifs", "stateless_select", 3, 1);
        let input = Trace::from_phvs(phvs.clone());
        let mut sim = Simulator::new(
            Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap(),
        );
        let ticked = sim.run(&input);
        let mut immediate = Pipeline::generate(&spec, &mc, OptLevel::SccInline).unwrap();
        let direct: Vec<Phv> = phvs.iter().map(|p| immediate.process(p)).collect();
        prop_assert_eq!(ticked.phvs, direct);
        prop_assert_eq!(ticked.state.unwrap(), immediate.state_snapshot());
    }

    /// Machine code text serialization round-trips.
    #[test]
    fn machine_code_round_trips(
        mc in machine_code_strategy(&spec_for("raw", "stateless_mux", 1, 1)),
    ) {
        let text = mc.to_text();
        let back = MachineCode::parse(&text).unwrap();
        prop_assert_eq!(mc, back);
    }

    /// Trace equivalence is reflexive and mismatch-reporting is sound: a
    /// single container edit is always located.
    #[test]
    fn trace_mismatch_location_sound(
        phvs in phv_stream(3, 10),
        tick in 0usize..10,
        container in 0usize..3,
    ) {
        let a = Trace::from_phvs(phvs);
        prop_assert_eq!(a.first_mismatch(&a, None), None);
        let mut b = a.clone();
        let old = b.phvs[tick].get(container);
        b.phvs[tick].set(container, old ^ 1);
        match a.first_mismatch(&b, None) {
            Some(druzhba::core::TraceMismatch::ContainerMismatch { tick: t, container: c, .. }) => {
                // The first mismatch is at or before the edit.
                prop_assert!(t <= tick);
                if t == tick { prop_assert_eq!(c, container); }
            }
            other => prop_assert!(false, "expected container mismatch, got {:?}", other),
        }
    }
}

mod minimize_props {
    use super::*;
    use druzhba::dsim::fault::FaultInjector;
    use druzhba::dsim::minimize::{minimize, minimize_fault, MinimizeConfig};
    use druzhba::dsim::testing::{
        fuzz_test, run_case, AluChecker, ClosureSpec, FuzzConfig, Specification,
    };
    use druzhba::dsim::TrafficGenerator;
    use druzhba::programs::PROGRAMS;

    /// 1-stage accumulator grid with the correct machine code: state +=
    /// container 0, old state -> container 1.
    fn accumulator() -> (PipelineSpec, MachineCode) {
        let spec = PipelineSpec::new(
            PipelineConfig::with_phv_length(1, 1, 2),
            atom("raw").unwrap(),
            atom("stateless_mux").unwrap(),
        )
        .unwrap();
        let mut mc = MachineCode::from_pairs(
            expected_machine_code(&spec)
                .into_iter()
                .map(|(n, _)| (n, 0)),
        );
        mc.set("output_mux_phv_0_1", 2);
        (spec, mc)
    }

    fn accumulator_spec() -> impl Specification {
        ClosureSpec::new(
            0u32,
            |state: &mut u32, input: &Phv| {
                let old = *state;
                *state = state.wrapping_add(input.get(0));
                Phv::new(vec![input.get(0), old])
            },
            |s| vec![*s],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Minimization soundness over random single-pair mutations: when
        /// a fuzz run fails, its minimized counterexample (a) reproduces
        /// the same verdict class, (b) is never longer than the fuzzed
        /// trace, and (c) never grows any container value.
        #[test]
        fn minimized_counterexample_is_sound(
            fault_seed in 0u64..10_000,
            traffic_seed in 0u64..10_000,
        ) {
            let (spec, good) = accumulator();
            let mut injector = FaultInjector::new(fault_seed);
            let Some((bad, _fault)) = injector.mutate_random_value(&spec, &good) else {
                return Ok(());
            };
            let cfg = FuzzConfig {
                num_phvs: 120,
                seed: traffic_seed,
                state_cells: vec![(0, 0, 0)],
                ..FuzzConfig::default()
            };
            let mut reference = accumulator_spec();
            let report = fuzz_test(&spec, &bad, OptLevel::SccInline, &mut reference, &cfg);
            if report.passed() {
                // Behaviorally neutral mutation: nothing to minimize.
                prop_assert!(report.minimized.is_none());
                return Ok(());
            }
            let mce = report.minimized.expect("failures carry a counterexample");
            prop_assert_eq!(mce.verdict.class(), report.verdict.class());
            prop_assert!(mce.packets() <= cfg.num_phvs);
            prop_assert!(mce.packets() <= mce.original_packets);
            // Replay from scratch: the minimized input still fails the
            // same way.
            let mut reference = accumulator_spec();
            let v = run_case(
                &spec,
                &bad,
                OptLevel::SccInline,
                &mut reference,
                &mce.input,
                None,
                &cfg.state_cells,
            );
            prop_assert_eq!(v.class(), report.verdict.class());
        }

        /// Fault-aware minimization always pins the injected pair: with a
        /// known-good baseline, the essential edit set is exactly the one
        /// mutation (when it diverges at all), and the reduced machine
        /// code equals the baseline outside it.
        #[test]
        fn essential_edits_pin_the_injected_fault(
            fault_seed in 0u64..10_000,
            traffic_seed in 0u64..10_000,
        ) {
            let (spec, good) = accumulator();
            let mut injector = FaultInjector::new(fault_seed);
            let Some((bad, fault)) = injector.mutate_random_value(&spec, &good) else {
                return Ok(());
            };
            let input = TrafficGenerator::new(traffic_seed, 2, 10).trace(120);
            let mut reference = accumulator_spec();
            let cfg = MinimizeConfig {
                state_cells: vec![(0, 0, 0)],
                ..MinimizeConfig::default()
            };
            let Some((reduced, mce)) = minimize_fault(
                &spec,
                &good,
                &bad,
                OptLevel::Fused,
                &mut reference,
                &input,
                &cfg,
            ) else {
                return Ok(()); // neutral mutation
            };
            let edits = mce.essential_edits.expect("baseline given");
            prop_assert_eq!(edits.len(), 1);
            prop_assert_eq!(edits[0].name.as_str(), fault.name());
            // Resetting the essential edit recovers the baseline program.
            let mut restored = reduced;
            match edits[0].good {
                Some(v) => restored.set(edits[0].name.clone(), v),
                None => { restored.remove(&edits[0].name); }
            }
            prop_assert_eq!(restored, good);
        }

        /// One checker over a random sequence of checks gives every
        /// verdict a fresh `run_case` gives, while it switches between
        /// the baseline, a live-value mutant, a removed-pair
        /// (incompatible) mutant and a hostile-trap (panicking) mutant.
        /// A checker that skipped the reset between checks would carry
        /// state (or in-flight PHVs) from one trace into the next; one
        /// that kept its build after a panic or an incompatible build
        /// would run the wrong program.
        #[test]
        fn checker_verdicts_equal_fresh_run_case(
            program in 0usize..PROGRAMS.len(),
            level in 0usize..OptLevel::ALL.len(),
            fault_seed in 0u64..10_000,
            checks in proptest::collection::vec((0usize..4, 0usize..41, 0u64..10_000), 16),
        ) {
            let def = &PROGRAMS[program];
            let comp = def.compile_cached().unwrap();
            let spec = &comp.pipeline_spec;
            let baseline = comp.machine_code.clone();
            let mut injector = FaultInjector::new(fault_seed);
            let live = injector
                .mutate_live_value(spec, &baseline)
                .map_or_else(|| baseline.clone(), |(mc, _)| mc);
            let (removed, _) = injector.remove_random_pair(&baseline);
            let hostile = injector
                .hostile_trap(spec, &baseline)
                .map_or_else(|| baseline.clone(), |(mc, _)| mc);
            let codes = [baseline, live, removed, hostile];
            let opt = OptLevel::ALL[level];
            let observable = comp.observable_containers();
            let mut checker = AluChecker::new(spec, opt, Some(&observable), &comp.state_cells);
            let mut reference = def.interpreter_spec(&comp);
            for (which, len, seed) in checks {
                let input = TrafficGenerator::new(seed, spec.config.phv_length, 10).trace(len);
                let cached = checker.check(&mut reference, &codes[which], &input);
                let fresh = run_case(
                    spec,
                    &codes[which],
                    opt,
                    &mut def.interpreter_spec(&comp),
                    &input,
                    Some(&observable),
                    &comp.state_cells,
                );
                prop_assert_eq!(cached, fresh);
            }
        }

        /// The search runs on the fused backend, but the result is
        /// reported for the evaluated one: over corpus programs, all four
        /// levels and live-value mutants, the reduced machine code and the
        /// minimized trace replay on the *evaluated* level to exactly the
        /// reported verdict, of the fuzz run's class. The trace-only
        /// minimization of the unreduced mutant replays the same way.
        #[test]
        fn minimized_fault_replays_on_the_evaluated_level(
            program in 0usize..PROGRAMS.len(),
            level in 0usize..OptLevel::ALL.len(),
            fault_seed in 0u64..10_000,
            traffic_seed in 0u64..10_000,
        ) {
            let def = &PROGRAMS[program];
            let comp = def.compile_cached().unwrap();
            let spec = &comp.pipeline_spec;
            let good = &comp.machine_code;
            let Some((bad, _)) = FaultInjector::new(fault_seed).mutate_live_value(spec, good)
            else {
                return Ok(());
            };
            let opt = OptLevel::ALL[level];
            let observable = comp.observable_containers();
            let replay = |mc: &MachineCode, input: &Trace| {
                run_case(
                    spec,
                    mc,
                    opt,
                    &mut def.interpreter_spec(&comp),
                    input,
                    Some(&observable),
                    &comp.state_cells,
                )
            };
            let input = TrafficGenerator::new(traffic_seed, spec.config.phv_length, 10).trace(300);
            let fuzzed = replay(&bad, &input);
            if fuzzed.passed() {
                return Ok(()); // neutral on this traffic
            }
            let cfg = MinimizeConfig {
                observable: Some(observable.clone()),
                state_cells: comp.state_cells.clone(),
                ..MinimizeConfig::default()
            };
            let mut reference = def.interpreter_spec(&comp);
            let (reduced, mce) =
                minimize_fault(spec, good, &bad, opt, &mut reference, &input, &cfg)
                    .expect("a diverging input minimizes");
            prop_assert_eq!(&replay(&reduced, &mce.input), &mce.verdict);
            prop_assert_eq!(mce.verdict.class(), fuzzed.class());
            let mce = minimize(spec, &bad, opt, &mut reference, &input, &cfg)
                .expect("a diverging input minimizes");
            prop_assert_eq!(&replay(&bad, &mce.input), &mce.verdict);
            prop_assert_eq!(mce.verdict.class(), fuzzed.class());
        }

        /// Minimization is idempotent enough to trust: minimizing an
        /// already-minimized input cannot grow it.
        #[test]
        fn minimization_never_grows(
            fault_seed in 0u64..10_000,
            traffic_seed in 0u64..10_000,
        ) {
            let (spec, good) = accumulator();
            let mut injector = FaultInjector::new(fault_seed);
            let Some((bad, _)) = injector.mutate_random_value(&spec, &good) else {
                return Ok(());
            };
            let input = TrafficGenerator::new(traffic_seed, 2, 10).trace(80);
            let cfg = MinimizeConfig {
                state_cells: vec![(0, 0, 0)],
                ..MinimizeConfig::default()
            };
            let mut reference = accumulator_spec();
            let Some(first) =
                minimize(&spec, &bad, OptLevel::Scc, &mut reference, &input, &cfg)
            else {
                return Ok(());
            };
            let mut reference = accumulator_spec();
            let second = minimize(
                &spec,
                &bad,
                OptLevel::Scc,
                &mut reference,
                &first.input,
                &cfg,
            )
            .expect("a minimized counterexample still diverges");
            prop_assert!(second.packets() <= first.packets());
            prop_assert_eq!(second.verdict.class(), first.verdict.class());
        }
    }
}

mod drmt_props {
    use super::*;
    use druzhba::drmt::schedule::{check_schedule, solve, solve_optimal, ScheduleConfig};
    use druzhba::p4::deps::build_dag;
    use druzhba::p4::parse_p4;

    /// Generate a random chain/diamond P4 program with n tables.
    fn program_with_edges(n: usize, link_mask: u32) -> String {
        let mut src = String::from(
            "header_type h_t { fields { a : 32; b : 32; c : 32; d : 32; } }\n\
             header h_t pkt;\nmetadata h_t meta;\n\
             parser start { extract(pkt); return ingress; }\n",
        );
        // Table i writes meta field (i % 4) if its link bit is set; table
        // i+1 matches on it, creating a match dependency.
        let fields = ["a", "b", "c", "d"];
        for i in 0..n {
            let write = fields[i % 4];
            src.push_str(&format!(
                "action w{i}() {{ modify_field(meta.{write}, pkt.a); }}\n\
                 action n{i}() {{ no_op(); }}\n"
            ));
            let read = if i > 0 && (link_mask >> (i - 1)) & 1 == 1 {
                format!("meta.{}", fields[(i - 1) % 4])
            } else {
                "pkt.a".to_string()
            };
            src.push_str(&format!(
                "table t{i} {{ reads {{ {read} : exact; }} actions {{ w{i}; n{i}; }} }}\n"
            ));
        }
        src.push_str("control ingress { ");
        for i in 0..n {
            src.push_str(&format!("apply(t{i}); "));
        }
        src.push('}');
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both solvers always produce feasible schedules, and the exact
        /// solver never loses to the greedy one.
        #[test]
        fn schedules_always_feasible(
            n in 1usize..6,
            link_mask in 0u32..32,
            processors in 2usize..5,
        ) {
            let src = program_with_edges(n, link_mask);
            let hlir = parse_p4(&src).unwrap();
            let dag = build_dag(&hlir);
            let cfg = ScheduleConfig { processors, ..Default::default() };
            if n > processors * cfg.match_capacity {
                // Over line-rate capacity: must be rejected, not looped.
                prop_assert!(solve(&dag, &cfg).is_err());
                return Ok(());
            }
            let greedy = solve(&dag, &cfg).unwrap();
            check_schedule(&dag, &cfg, &greedy).unwrap();
            let exact = solve_optimal(&dag, &cfg, 50_000).unwrap();
            check_schedule(&dag, &cfg, &exact).unwrap();
            prop_assert!(exact.makespan() <= greedy.makespan());
        }
    }
}

/// Symbolic-engine properties (DESIGN §12): canonical terms are a faithful
/// compression of each backend's concrete semantics, and the rewrite
/// system is a terminating fixed point.
mod symbolic {
    use super::*;
    use druzhba::alu_dsl::ast::{BinOp, UnOp};
    use druzhba::analysis::{symbolic_transfer, AbsVal, Node, Sym, TermId, TermStore};
    use druzhba::core::value::truthy;
    use druzhba::dgen::eval::{apply_binop, apply_unop};

    /// Substitute a concrete packet and entry state into a symbolic
    /// transfer function and require exact agreement with the concrete
    /// backend, packet by packet, state snapshot by state snapshot. Each
    /// concrete value must also lie in `abs_eval` of its term under the
    /// all-top valuation (the abstraction the analyzer reads off the DAG).
    fn check_substitution(
        spec: &PipelineSpec,
        mc: &MachineCode,
        phvs: &[Phv],
    ) -> Result<(), String> {
        for level in OptLevel::ALL {
            let mut store = TermStore::new();
            let tr = symbolic_transfer(&mut store, spec, mc, level)
                .ok_or_else(|| format!("{level:?}: symbolic executor bailed on a small spec"))?;
            let mut pipeline =
                Pipeline::generate(spec, mc, level).map_err(|e| format!("{level:?}: {e}"))?;
            let mut state = pipeline.state_snapshot();
            let in_top = |t: TermId, v: u32, site: &str| {
                let abs = store.abs_eval(t, &|_| AbsVal::top());
                if abs.contains(v) {
                    Ok(())
                } else {
                    Err(format!("{level:?}: {site} = {v} escapes abs_eval {abs:?}"))
                }
            };
            for (i, phv) in phvs.iter().enumerate() {
                let entry = state.clone();
                let valuation = move |sym: Sym| match sym {
                    Sym::Phv(c) => phv.get(c as usize),
                    Sym::State { stage, slot, var } => {
                        entry[stage as usize][slot as usize][var as usize]
                    }
                    _ => 0,
                };
                let out = pipeline.process(phv);
                for (c, &t) in tr.phv.iter().enumerate() {
                    let got = store.eval(t, &valuation);
                    if got != out.get(c) {
                        return Err(format!(
                            "{level:?} packet {i}: container[{c}] symbolic {got} != concrete {}",
                            out.get(c)
                        ));
                    }
                    in_top(t, got, &format!("packet {i} container[{c}]"))?;
                }
                let next: Vec<Vec<Vec<u32>>> = tr
                    .state
                    .iter()
                    .map(|slots| {
                        slots
                            .iter()
                            .map(|vars| vars.iter().map(|&t| store.eval(t, &valuation)).collect())
                            .collect()
                    })
                    .collect();
                if next != pipeline.state_snapshot() {
                    return Err(format!(
                        "{level:?} packet {i}: symbolic state {next:?} != concrete {:?}",
                        pipeline.state_snapshot()
                    ));
                }
                let cells = tr.state.iter().flatten().flatten();
                for (&t, &v) in cells.zip(next.iter().flatten().flatten()) {
                    in_top(t, v, &format!("packet {i} state cell"))?;
                }
                state = next;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Concrete substitution into the canonical transfer function
        /// reproduces every backend exactly on random in-domain machine
        /// code — the term DAG loses nothing the interpreters can see.
        #[test]
        fn symbolic_transfer_substitution_matches_every_backend(
            mc in machine_code_strategy(&spec_for("if_else_raw", "stateless_arith", 2, 2)),
            phvs in phv_stream(2, 4),
        ) {
            let spec = spec_for("if_else_raw", "stateless_arith", 2, 2);
            if let Err(e) = check_substitution(&spec, &mc, &phvs) {
                prop_assert!(false, "{e}");
            }
        }

        /// Same property over a deeper pipe with the full stateless ALU.
        #[test]
        fn symbolic_transfer_substitution_matches_deeper_pipelines(
            mc in machine_code_strategy(&spec_for("raw", "stateless_full", 3, 2)),
            phvs in phv_stream(2, 3),
        ) {
            let spec = spec_for("raw", "stateless_full", 3, 2);
            if let Err(e) = check_substitution(&spec, &mc, &phvs) {
                prop_assert!(false, "{e}");
            }
        }
    }

    const BINOPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Gt,
        BinOp::Le,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rewrite engine terminates (bounded node growth), preserves
        /// the total concrete semantics of every constructed term under
        /// an in-domain valuation, and is idempotent: every interned node
        /// is a fixed point of its own smart constructor.
        #[test]
        fn rewrite_engine_is_idempotent_terminating_and_sound(
            pool in proptest::collection::vec(0u32..u32::MAX, 3),
            ops in proptest::collection::vec((0usize..18, 0u32..0x1_0000), 60),
        ) {
            let mut store = TermStore::new();
            // Leaves: two unconstrained symbols, one 8-bit symbol (its
            // valuation masked in-domain — the known-bits rules may rely
            // on the declared abstraction), two constants.
            let narrow = pool[2] & 0xFF;
            let (wide0, wide1) = (pool[0], pool[1]);
            let valuation = move |sym: Sym| match sym {
                Sym::Phv(0) => wide0,
                Sym::Phv(1) => narrow,
                Sym::State { .. } => wide1,
                _ => 0,
            };
            let mut stack: Vec<(TermId, u32)> = vec![
                (store.sym(Sym::Phv(0), AbsVal::top()), wide0),
                (store.sym(Sym::Phv(1), AbsVal::bits(8)), narrow),
                (
                    store.sym(Sym::State { stage: 0, slot: 0, var: 0 }, AbsVal::top()),
                    wide1,
                ),
                (store.konst(0), 0),
                (store.konst(7), 7),
            ];
            for &(opcode, pick) in &ops {
                let a = stack[(pick & 0xFF) as usize % stack.len()];
                let b = stack[((pick >> 8) & 0xFF) as usize % stack.len()];
                let (t, expect) = match opcode {
                    0..=12 => {
                        let op = BINOPS[opcode];
                        (store.bin(op, a.0, b.0), apply_binop(op, a.1, b.1))
                    }
                    13 => (store.un(UnOp::Neg, a.0), apply_unop(UnOp::Neg, a.1)),
                    14 => (store.un(UnOp::Not, a.0), apply_unop(UnOp::Not, a.1)),
                    15 => (store.bit_and(a.0, b.0), a.1 & b.1),
                    16 => {
                        let shift = pick % 33;
                        let v = if shift >= 32 { 0 } else { a.1 >> shift };
                        (store.shr(a.0, shift), v)
                    }
                    _ => {
                        let c = stack[((pick >> 4) & 0xFF) as usize % stack.len()];
                        let v = if truthy(c.1) { a.1 } else { b.1 };
                        (store.ite(c.0, a.0, b.0), v)
                    }
                };
                let got = store.eval(t, &valuation);
                prop_assert!(
                    got == expect,
                    "rewrite changed concrete semantics: got {} expect {} (node {:?})",
                    got, expect, store.node(t)
                );
                stack.push((t, expect));
            }
            // Termination: node growth stays linear in the op count —
            // no rule cascades into unbounded expansion.
            prop_assert!(store.len() <= 5 + 40 * ops.len());
            // Idempotence: rebuilding any interned node through its own
            // smart constructor lands on the same id.
            let n = store.len() as TermId;
            for id in 0..n {
                let again = match store.node(id) {
                    Node::Const(v) => store.konst(v),
                    Node::Sym(_) => id,
                    Node::Bin(op, l, r) => store.bin(op, l, r),
                    Node::Un(op, x) => store.un(op, x),
                    Node::BitAnd(l, r) => store.bit_and(l, r),
                    Node::Shr(x, s) => store.shr(x, s),
                    Node::Ite(c, t, e) => store.ite(c, t, e),
                };
                prop_assert!(
                    again == id,
                    "{:?} is not a fixed point of its constructor",
                    store.node(id)
                );
            }
        }
    }
}

/// The corpus's two reference specifications — the Domino interpreter
/// and the hand-written Rust steps — agree with each other directly,
/// packet by packet, not only each with the compiled pipeline.
mod reference_specs {
    use proptest::prelude::*;

    use druzhba::core::Phv;
    use druzhba::dsim::testing::Specification;
    use druzhba::programs::PROGRAMS;

    const PACKETS: usize = 16;
    /// Containers drawn per packet; at least every corpus layout's length.
    const WIDTH: usize = 32;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random 32-bit traces, `interpreter_spec` and `hand_spec`
        /// produce the same output PHV and the same state after every
        /// packet, for all 12 Table 1 programs. Each value is a full
        /// 32-bit draw shifted right by 0..32 bits, so small values (which
        /// hit the programs' equality guards) and full-width ones (which
        /// wrap) both occur.
        #[test]
        fn interpreter_spec_agrees_with_hand_spec(
            draws in proptest::collection::vec((any::<u32>(), 0u32..32), PACKETS * WIDTH),
        ) {
            let values: Vec<u32> = draws.iter().map(|&(v, shift)| v >> shift).collect();
            for p in &PROGRAMS {
                let compiled = p.compile_cached().unwrap();
                let phv_length = compiled.pipeline_spec.config.phv_length;
                prop_assert!(phv_length <= WIDTH, "{}: {phv_length} containers", p.name);
                let mut interp = p.interpreter_spec(&compiled);
                let mut hand = p.hand_spec(&compiled);
                for (i, packet) in values.chunks(WIDTH).enumerate() {
                    let input = Phv::new(packet[..phv_length].to_vec());
                    let (got, want) = (interp.process(&input), hand.process(&input));
                    prop_assert!(got == want, "{} packet {i} on {input}: output {got} != hand {want}", p.name);
                    let (got, want) = (interp.state(), hand.state());
                    prop_assert!(got == want, "{} packet {i} on {input}: state {got:?} != hand {want:?}", p.name);
                }
            }
        }
    }
}

/// The P4 reference interpreter, which resolves names once and steps a
/// frame of containers, against a second sequential executor: the dRMT
/// machine's `execute_sequential`, which still runs the string-keyed
/// `execute_action` over field maps.
mod p4_reference {
    use proptest::prelude::*;

    use druzhba::core::Phv;
    use druzhba::drmt::machine::execute_sequential;
    use druzhba::dsim::p4::{P4FaultInjector, P4FaultKind, P4Traffic};
    use druzhba::p4::exec::{Interpreter, Packet};
    use druzhba::programs::P4_PROGRAMS;

    const PACKETS: usize = 48;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On random 32-bit traffic, every corpus program under its
        /// intended entries and under one fault of each injector class
        /// gives the same packets and the same final registers and
        /// counters on both executors. Odd-numbered packets carry a
        /// random drop flag, so non-zero flags other than 1 occur; the
        /// frame path must turn each into 1, as the field-map path does.
        #[test]
        fn resolved_interpreter_agrees_with_sequential_drmt(
            seed in any::<u64>(),
            flags in proptest::collection::vec(any::<u32>(), PACKETS),
        ) {
            for def in &P4_PROGRAMS {
                let w = def.workload().unwrap();
                let layout = &w.lowering.layout;
                let mut injector = P4FaultInjector::new(seed);
                let mut sets = vec![w.entries.clone()];
                sets.extend(
                    P4FaultKind::ALL
                        .into_iter()
                        .filter_map(|kind| injector.inject(&w.entries, kind).map(|(e, _)| e)),
                );
                let mut traffic = P4Traffic::new(&w, seed, 32);
                let phvs: Vec<Phv> = flags
                    .iter()
                    .enumerate()
                    .map(|(i, &flag)| {
                        let mut phv = traffic.phv();
                        phv.set(layout.drop_flag(), if i % 2 == 1 { flag } else { 0 });
                        phv
                    })
                    .collect();
                let packets: Vec<Packet> = phvs
                    .iter()
                    .enumerate()
                    .map(|(i, phv)| layout.phv_to_packet(i as u64, phv))
                    .collect();
                for (set, entries) in sets.iter().enumerate() {
                    let (want, want_regs, want_ctrs) =
                        execute_sequential(&w.hlir, entries, &packets).unwrap();
                    let mut by_packet = Interpreter::new(&w.hlir, entries).unwrap();
                    let (got, _) = by_packet.run(packets.clone());
                    prop_assert!(got == want, "{} set {set}: packets differ", def.name);
                    let mut by_phv = Interpreter::new(&w.hlir, entries).unwrap();
                    let mut out = Phv::zeroed(layout.phv_length());
                    for (i, phv) in phvs.iter().enumerate() {
                        by_phv.process_phv(phv, &mut out);
                        let expected = layout.packet_to_phv(&want[i]);
                        prop_assert!(
                            out == expected,
                            "{} set {set} packet {i} on {phv}: {out} != {expected}",
                            def.name
                        );
                    }
                    for interp in [&by_packet, &by_phv] {
                        prop_assert!(
                            *interp.registers() == want_regs,
                            "{} set {set}: registers {:?} != {want_regs:?}",
                            def.name,
                            interp.registers()
                        );
                        prop_assert!(
                            *interp.counters() == want_ctrs,
                            "{} set {set}: counters {:?} != {want_ctrs:?}",
                            def.name,
                            interp.counters()
                        );
                    }
                }
            }
        }
    }
}

/// The Domino interpreter's lane walk (`Interpreter::step_lanes`) against
/// one packet at a time: at every lane width, each active lane ends as
/// per-lane width-1 steps and as a plain walk of the unresolved AST would
/// leave it, and every lane past `active` keeps its bits.
mod lane_interpreter {
    use proptest::prelude::*;

    use druzhba::core::value::{self, Value};
    use druzhba::core::Phv;
    use druzhba::dgen::LANE_WIDTHS;
    use druzhba::domino::interp::apply_binop;
    use druzhba::domino::{parse_program, DominoExpr, DominoProgram, DominoStmt, Interpreter};
    use druzhba::progen::domino_candidate;
    use druzhba::programs::PROGRAMS;

    use druzhba::alu_dsl::UnOp;

    const PACKETS: usize = 3;

    /// Division, modulo and both unary operators with field operands, so
    /// zero divisors and wrapping negation occur.
    const ARITH: &str = "state int q = 7;\n\
        pkt.d = pkt.a / pkt.b;\n\
        pkt.m = pkt.a % pkt.b;\n\
        pkt.n = -pkt.a + !pkt.b;\n\
        if (pkt.b == 0) { q = q - pkt.a; } else { q = q / pkt.b + q % pkt.b; pkt.e = q; }";

    /// The AST walked by name, one packet: the oracle that shares no code
    /// with the interpreter beyond `apply_binop`.
    struct Walk<'a> {
        program: &'a DominoProgram,
        reads: &'a [String],
        input: &'a [Value],
        writes: &'a [String],
        out: &'a mut [Value],
        state: &'a mut [Value],
    }

    impl Walk<'_> {
        fn stmts(&mut self, stmts: &[DominoStmt]) {
            for stmt in stmts {
                match stmt {
                    DominoStmt::AssignField { field, value } => {
                        let v = self.eval(value);
                        let c = self.writes.iter().position(|f| f == field).unwrap();
                        self.out[c] = v;
                    }
                    DominoStmt::AssignState { var, value } => {
                        let v = self.eval(value);
                        self.state[self.program.state_index(var).unwrap()] = v;
                    }
                    DominoStmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => {
                        if value::truthy(self.eval(cond)) {
                            self.stmts(then_body);
                        } else {
                            self.stmts(else_body);
                        }
                    }
                }
            }
        }

        fn eval(&self, expr: &DominoExpr) -> Value {
            match expr {
                DominoExpr::Const(v) => *v,
                DominoExpr::Field(f) => self.input[self.reads.iter().position(|r| r == f).unwrap()],
                DominoExpr::State(s) => self.state[self.program.state_index(s).unwrap()],
                DominoExpr::Binary { op, l, r } => apply_binop(*op, self.eval(l), self.eval(r)),
                DominoExpr::Unary { op: UnOp::Neg, x } => value::wneg(self.eval(x)),
                DominoExpr::Unary { op: UnOp::Not, x } => {
                    value::from_bool(!value::truthy(self.eval(x)))
                }
            }
        }
    }

    /// Run `program` for `PACKETS` packets on `L` lanes, lanes `0..active`
    /// active, from columns filled with `next()` draws, and check every
    /// lane against width-1 steps and against [`Walk`].
    fn check_width<const L: usize>(
        program: &DominoProgram,
        active: usize,
        next: &mut impl FnMut() -> Value,
    ) -> Result<(), String> {
        let (reads, writes) = (program.fields_read(), program.fields_written());
        let n = reads.len().max(writes.len()).max(1);
        let position = |fields: &[String], f: &str| fields.iter().position(|x| x == f);
        let interp = Interpreter::new(program, |f| position(&reads, f), |f| position(&writes, f));
        let slots = program.state_vars.len();
        let mut column = |len: usize| (0..len * L).map(|_| next()).collect::<Vec<Value>>();
        let (mut out, mut state) = (column(n), column(slots));
        let inputs: Vec<Vec<Value>> = (0..PACKETS).map(|_| column(n)).collect();
        let (out0, state0) = (out.clone(), state.clone());
        for input in &inputs {
            interp.step_lanes::<L>(input, &mut out, &mut state, active);
        }
        // Lane `l`'s values of a set of columns.
        let lane = |cols: &[Value], l: usize| -> Vec<Value> {
            cols.iter().skip(l).step_by(L).copied().collect()
        };
        for l in 0..L {
            let (got_out, got_state) = (lane(&out, l), lane(&state, l));
            if l >= active {
                if got_out != lane(&out0, l) || got_state != lane(&state0, l) {
                    return Err(format!(
                        "width {L}: inactive lane {l} of {active} was written"
                    ));
                }
                continue;
            }
            let mut phv_out = Phv::new(lane(&out0, l));
            let mut scalar_state = lane(&state0, l);
            let mut walk_out = phv_out.containers().to_vec();
            let mut walk_state = scalar_state.clone();
            for input in &inputs {
                let input = lane(input, l);
                interp.step(&Phv::new(input.clone()), &mut phv_out, &mut scalar_state);
                let mut walk = Walk {
                    program,
                    reads: &reads,
                    input: &input,
                    writes: &writes,
                    out: &mut walk_out,
                    state: &mut walk_state,
                };
                walk.stmts(&program.body);
            }
            for (what, out, state) in [
                ("width-1 step", phv_out.containers(), &scalar_state),
                ("AST walk", &walk_out[..], &walk_state),
            ] {
                if got_out != out || got_state != *state {
                    return Err(format!(
                        "width {L} lane {l} of {active}: lanes {got_out:?}/{got_state:?}, \
                         {what} {out:?}/{state:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The 12 corpus programs, four generated candidates and a program
        /// dividing by its inputs, at every width in `LANE_WIDTHS` with a
        /// random active-lane count. Each value is 0, within 3 of 2^32, a
        /// small value, or a 32-bit draw shifted right by 0..32 bits.
        #[test]
        fn lane_walk_equals_per_lane_steps(
            seed in any::<u64>(),
            actives in proptest::collection::vec(0usize..65, LANE_WIDTHS.len()),
            draws in proptest::collection::vec((any::<u32>(), 0u32..4), 512),
        ) {
            let mut programs: Vec<DominoProgram> = PROGRAMS.iter().map(|p| p.parse()).collect();
            programs.extend((0..4).map(|k| domino_candidate(seed.wrapping_add(k)).program));
            programs.push(parse_program(ARITH).unwrap());
            let mut at = 0;
            let mut next = || {
                let (v, kind) = draws[at % draws.len()];
                at += 1;
                match kind {
                    0 => 0,
                    1 => u32::MAX - v % 4,
                    2 => v % 16,
                    _ => v >> (v % 32),
                }
            };
            for program in &programs {
                for (&width, &active) in LANE_WIDTHS.iter().zip(&actives) {
                    let active = active % (width + 1);
                    let checked = match width {
                        1 => check_width::<1>(program, active, &mut next),
                        8 => check_width::<8>(program, active, &mut next),
                        16 => check_width::<16>(program, active, &mut next),
                        32 => check_width::<32>(program, active, &mut next),
                        64 => check_width::<64>(program, active, &mut next),
                        _ => unreachable!("LANE_WIDTHS"),
                    };
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
            }
        }
    }
}
