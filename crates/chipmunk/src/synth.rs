//! Program synthesis of machine-code hole values.
//!
//! The paper's case-study compiler (Chipmunk) *"generates machine code in
//! the form of constant integers from a given Domino file through the use
//! of program synthesis"*. This module is that synthesis engine, built as
//! counterexample-guided search (CEGIS) with an executable oracle:
//!
//! - **stateful atoms** are matched *structurally*: the atom body's guard
//!   and per-branch updates are synthesized component-by-component against
//!   the target [`TargetTree`], which keeps the search space per component
//!   tiny (tens to hundreds of candidates) instead of exponential in the
//!   whole atom;
//! - **stateless ALUs** enumerate their explicit opcode holes first, use
//!   [partial specialization](druzhba_dgen::opt::specialize_partial) to
//!   prune dead branches, and then enumerate the surviving data holes;
//! - every assembled assignment is **verified** against the whole target on
//!   randomized inputs; counterexamples are added to the sample set and
//!   synthesis reruns (up to [`SynthConfig::max_rounds`]).
//!
//! Enumeration runs on a *resolved probe*: each component's expression is
//! resolved once into a private tree whose operands and state variables
//! are indices and whose enumerated holes are slots of a vector, so a
//! candidate is written in place and costs no hash-map clone or lookup.
//! The tree evaluates through the opcode decoders of
//! [`druzhba_dgen::eval`], so the semantics live in one place. CEGIS
//! verification stays on [`eval_unoptimized`], the paper's version-1
//! hash-map evaluator, and so checks whatever the enumeration picks
//! independently of the probe.
//!
//! Verification inputs are drawn at [`SynthConfig::verify_bits`] bits. A
//! deliberately *small* width reproduces the paper's §5.2 failure class:
//! machine code that satisfies every sampled input but is wrong for larger
//! values ("the synthesis engine failed to find machine code to satisfy
//! 10-bit inputs … thus only returning machine code that only satisfied a
//! limited range of values").

use std::collections::HashMap;

use druzhba_alu_dsl::{AluSpec, BinOp, Expr, HoleDomain, Stmt, UnOp};
use druzhba_core::names::AluKind;
use druzhba_core::value::{self, Value};
use druzhba_core::{Error, Result, ValueGen};
use druzhba_dgen::eval::{
    apply_binop, apply_unop, arith_op, eval_unoptimized, mux2, mux3, opt, rel_op,
};
use druzhba_dgen::opt::specialize_partial;

use crate::ir::{TExpr, TargetTree};

/// Synthesis parameters.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Candidate immediate values (program literals plus 0/1; callers may
    /// extend).
    pub const_candidates: Vec<Value>,
    /// Initial number of random samples for component matching.
    pub base_samples: usize,
    /// Random inputs per verification round.
    pub verify_samples: usize,
    /// Bit width of sampled/verification values. 10 reproduces the paper's
    /// case study; smaller widths make the compiler *deliberately buggy*
    /// (the §5.2 limited-range failure class).
    pub verify_bits: u32,
    /// RNG seed (deterministic synthesis).
    pub seed: u64,
    /// Maximum CEGIS rounds before giving up.
    pub max_rounds: usize,
    /// Hard cap on per-component enumeration size.
    pub max_combos: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            const_candidates: vec![0, 1],
            base_samples: 24,
            verify_samples: 96,
            verify_bits: 10,
            seed: 0xC41_BA6E,
            max_rounds: 8,
            max_combos: 4_000_000,
        }
    }
}

impl SynthConfig {
    /// Add candidate constants (deduplicated, 0/1 always present).
    pub fn with_candidates(mut self, extra: &[Value]) -> Self {
        for &v in extra.iter().chain([0, 1].iter()) {
            if !self.const_candidates.contains(&v) {
                self.const_candidates.push(v);
            }
        }
        self.const_candidates.sort_unstable();
        self
    }

    /// Extend candidates with each value's +-1 neighbours. Needed for
    /// inverted-polarity guards over unsigned integers: the complement of
    /// `x >= c` is `x <= c-1`, so matching a negated guard requires the
    /// off-by-one constant.
    pub fn expand_neighbors(mut self) -> Self {
        let base = self.const_candidates.clone();
        for c in base {
            for v in [c.wrapping_sub(1), c.wrapping_add(1)] {
                if !self.const_candidates.contains(&v) {
                    self.const_candidates.push(v);
                }
            }
        }
        self.const_candidates.sort_unstable();
        self
    }
}

/// One sampled input: operand values plus (for stateful atoms) old state.
#[derive(Debug, Clone)]
struct Sample {
    ops: Vec<Value>,
    state: Vec<Value>,
}

/// Deterministic sample generator mixing uniform random values with the
/// "interesting" pool (candidate constants and their neighbours), so that
/// equality guards are exercised on both sides.
struct SampleGen {
    gen: ValueGen,
    pool: Vec<Value>,
    bits: u32,
}

impl SampleGen {
    fn new(cfg: &SynthConfig) -> Self {
        // The pool is masked to the verification width: a compiler that
        // verifies at k bits genuinely never sees larger inputs, which is
        // what lets the paper's "limited range of values" bug class arise.
        let mask = value::max_for_bits(cfg.verify_bits);
        let mut pool = vec![0, 1 & mask];
        for &c in &cfg.const_candidates {
            for v in [c.wrapping_sub(1), c, c.wrapping_add(1)] {
                let v = v & mask;
                if !pool.contains(&v) {
                    pool.push(v);
                }
            }
        }
        pool.push(mask);
        SampleGen {
            gen: ValueGen::new(cfg.seed, cfg.verify_bits),
            pool,
            bits: cfg.verify_bits,
        }
    }

    fn value(&mut self) -> Value {
        // Half uniform in [0, 2^bits), half from the interesting pool.
        if self.gen.value_below(2) == 0 {
            let idx = self.gen.value_below(self.pool.len() as u32) as usize;
            self.pool[idx]
        } else {
            let max = value::max_for_bits(self.bits);
            if max == Value::MAX {
                self.gen.value()
            } else {
                self.gen.value_below(max.saturating_add(1).max(1))
            }
        }
    }

    fn sample(&mut self, ops: usize, state: usize) -> Sample {
        Sample {
            ops: (0..ops).map(|_| self.value()).collect(),
            state: (0..state).map(|_| self.value()).collect(),
        }
    }

    /// Deterministic corner samples: every {0,1} combination over the input
    /// slots (capped), plus one all-`v` diagonal per pool value. These
    /// guarantee coverage of degenerate points (e.g. all-zero operands)
    /// that uniform sampling can miss, which would otherwise let constant
    /// functions masquerade as `||`/`&&`.
    fn corners(&self, ops: usize, state: usize) -> Vec<Sample> {
        let slots = ops + state;
        let mut out = Vec::new();
        if slots <= 6 {
            for mask in 0..(1u32 << slots) {
                let values: Vec<Value> = (0..slots).map(|i| (mask >> i) & 1).collect();
                out.push(Sample {
                    ops: values[..ops].to_vec(),
                    state: values[ops..].to_vec(),
                });
            }
        }
        for &v in &self.pool {
            out.push(Sample {
                ops: vec![v; ops],
                state: vec![v; state],
            });
        }
        out
    }
}

// ----------------------------------------------------------------------
// Stateful atom synthesis.
// ----------------------------------------------------------------------

/// Synthesize hole values (keyed by local hole name) making `atom`
/// implement `tree` over `operand_count` operands.
pub fn synthesize_stateful(
    atom: &AluSpec,
    operand_count: usize,
    tree: &TargetTree,
    cfg: &SynthConfig,
) -> Result<HashMap<String, Value>> {
    debug_assert_eq!(atom.kind, AluKind::Stateful);
    let group_width = tree.state_width();
    if group_width > atom.state_vars.len() {
        return Err(Error::DoesNotFit {
            message: format!(
                "atom `{}` has {} state variable(s) but the group needs {group_width}",
                atom.name,
                atom.state_vars.len()
            ),
        });
    }
    if operand_count > atom.operand_count() {
        return Err(Error::DoesNotFit {
            message: format!(
                "atom `{}` has {} operand(s) but the target uses {operand_count}",
                atom.name,
                atom.operand_count()
            ),
        });
    }

    let cfg = cfg
        .clone()
        .with_candidates(&tree.constants())
        .expand_neighbors();
    let mut sg = SampleGen::new(&cfg);
    let mut samples = sg.corners(atom.operand_count(), atom.state_vars.len());
    samples.extend(
        (0..cfg.base_samples).map(|_| sg.sample(atom.operand_count(), atom.state_vars.len())),
    );

    for _round in 0..cfg.max_rounds {
        let mut holes = HashMap::new();
        match_body(
            atom,
            &atom.body,
            Shape::Tree(tree),
            &samples,
            &cfg,
            &mut holes,
        )?;
        // Unconstrained holes (never reached, e.g. both branches of a
        // statically-true guard) default to zero.
        for h in &atom.holes {
            holes.entry(h.local.clone()).or_insert(0);
        }

        // CEGIS verification: whole atom vs whole tree.
        let mut counterexample = None;
        for _ in 0..cfg.verify_samples {
            let s = sg.sample(atom.operand_count(), atom.state_vars.len());
            if !check_sample(atom, &holes, tree, &s) {
                counterexample = Some(s);
                break;
            }
        }
        match counterexample {
            None => return Ok(holes),
            Some(s) => samples.push(s),
        }
    }
    Err(Error::SynthesisFailed {
        message: format!(
            "atom `{}`: no hole assignment verified within {} CEGIS rounds",
            atom.name, cfg.max_rounds
        ),
    })
}

fn check_sample(
    atom: &AluSpec,
    holes: &HashMap<String, Value>,
    tree: &TargetTree,
    s: &Sample,
) -> bool {
    let mut actual_state = s.state.clone();
    eval_unoptimized(atom, holes, &s.ops, &mut actual_state);
    let expected = tree.eval(&s.ops, &s.state);
    // Only the group's variables are constrained; trailing atom state
    // variables must stay unchanged (identity) so the atom is predictable.
    for (k, &actual) in actual_state.iter().enumerate() {
        let want = expected
            .get(k)
            .copied()
            .unwrap_or_else(|| s.state.get(k).copied().unwrap_or(0));
        if actual != want {
            return false;
        }
    }
    true
}

/// What a statement block must implement.
#[derive(Clone, Copy)]
enum Shape<'a> {
    Tree(&'a TargetTree),
    /// The block is unreachable or must leave state unchanged. Only
    /// reachable recursively (an identity block nested in an identity
    /// block); kept for completeness of the matcher.
    #[allow(dead_code)]
    Identity,
}

fn match_body(
    atom: &AluSpec,
    stmts: &[Stmt],
    shape: Shape<'_>,
    samples: &[Sample],
    cfg: &SynthConfig,
    holes: &mut HashMap<String, Value>,
) -> Result<()> {
    // A block of plain assignments (possibly empty).
    let all_assigns = stmts.iter().all(|s| matches!(s, Stmt::Assign { .. }));
    if all_assigns {
        return match shape {
            Shape::Identity => match_leaf(atom, stmts, &[], samples, cfg, holes),
            Shape::Tree(TargetTree::Leaf { updates }) => {
                match_leaf(atom, stmts, updates, samples, cfg, holes)
            }
            Shape::Tree(TargetTree::Branch { .. }) => Err(Error::SynthesisFailed {
                message: format!(
                    "atom `{}` has an unconditional update block where the program \
                     branches (atom too simple for this program)",
                    atom.name
                ),
            }),
        };
    }

    // A single `if` (with optional else), the canonical atom shape.
    if stmts.len() == 1 {
        if let Stmt::If { arms, else_body } = &stmts[0] {
            if arms.len() != 1 {
                return Err(Error::SynthesisFailed {
                    message: "else-if chains in atoms are not supported by the matcher".into(),
                });
            }
            let (cond, then_body) = &arms[0];
            return match shape {
                Shape::Tree(TargetTree::Branch {
                    guard,
                    then_tree,
                    else_tree,
                }) => {
                    // Direct polarity first, then inverted.
                    let direct = (|| -> Result<HashMap<String, Value>> {
                        let mut h = holes.clone();
                        synth_guard(atom, cond, GuardTarget::Expr(guard), samples, cfg, &mut h)?;
                        match_body(
                            atom,
                            then_body,
                            Shape::Tree(then_tree),
                            samples,
                            cfg,
                            &mut h,
                        )?;
                        match_body(
                            atom,
                            else_body,
                            Shape::Tree(else_tree),
                            samples,
                            cfg,
                            &mut h,
                        )?;
                        Ok(h)
                    })();
                    let chosen = match direct {
                        Ok(h) => h,
                        Err(_) => {
                            let mut h = holes.clone();
                            synth_guard(
                                atom,
                                cond,
                                GuardTarget::NegExpr(guard),
                                samples,
                                cfg,
                                &mut h,
                            )?;
                            match_body(
                                atom,
                                then_body,
                                Shape::Tree(else_tree),
                                samples,
                                cfg,
                                &mut h,
                            )?;
                            match_body(
                                atom,
                                else_body,
                                Shape::Tree(then_tree),
                                samples,
                                cfg,
                                &mut h,
                            )?;
                            h
                        }
                    };
                    *holes = chosen;
                    Ok(())
                }
                Shape::Tree(leaf @ TargetTree::Leaf { .. }) => {
                    // Unconditional target on a branching atom: pin the
                    // guard true (then-branch implements the leaf) or false.
                    let as_true = (|| -> Result<HashMap<String, Value>> {
                        let mut h = holes.clone();
                        synth_guard(atom, cond, GuardTarget::True, samples, cfg, &mut h)?;
                        match_body(atom, then_body, Shape::Tree(leaf), samples, cfg, &mut h)?;
                        Ok(h)
                    })();
                    let chosen = match as_true {
                        Ok(h) => h,
                        Err(_) => {
                            let mut h = holes.clone();
                            synth_guard(atom, cond, GuardTarget::False, samples, cfg, &mut h)?;
                            match_body(atom, else_body, Shape::Tree(leaf), samples, cfg, &mut h)?;
                            h
                        }
                    };
                    *holes = chosen;
                    Ok(())
                }
                Shape::Identity => {
                    // Both branches must be identity; pick any satisfiable
                    // guard (leave its holes for the true-guard synthesis to
                    // fill arbitrarily: default handled by caller).
                    match_body(atom, then_body, Shape::Identity, samples, cfg, holes)?;
                    match_body(atom, else_body, Shape::Identity, samples, cfg, holes)?;
                    Ok(())
                }
            };
        }
    }
    Err(Error::SynthesisFailed {
        message: format!(
            "atom `{}` body shape is not supported by the structural matcher",
            atom.name
        ),
    })
}

/// Match a block of assignments against leaf updates (`&[]` = identity).
fn match_leaf(
    atom: &AluSpec,
    stmts: &[Stmt],
    updates: &[Option<TExpr>],
    samples: &[Sample],
    cfg: &SynthConfig,
    holes: &mut HashMap<String, Value>,
) -> Result<()> {
    for stmt in stmts {
        let Stmt::Assign { target, value } = stmt else {
            unreachable!("caller checked all-assign shape");
        };
        let k = atom
            .state_var_index(target)
            .expect("analysis guarantees state target");
        // Expected semantics for this assignment: the group's update, or
        // identity for unmapped/unchanged variables.
        let expected: TExpr = match updates.get(k) {
            Some(Some(u)) => u.clone(),
            _ => TExpr::StateRef(k),
        };
        synth_component(
            atom,
            value,
            |s| expected.eval(&s.ops, &s.state),
            false,
            samples,
            cfg,
            holes,
        )?;
    }
    // A variable with a required update but no assignment in this block
    // cannot be implemented (the atom never writes it here).
    for (k, u) in updates.iter().enumerate() {
        if u.is_none() {
            continue;
        }
        let assigned = stmts.iter().any(
            |s| matches!(s, Stmt::Assign { target, .. } if atom.state_var_index(target) == Some(k)),
        );
        if !assigned {
            // Unless the update is semantically the identity, fail.
            let ident = samples.iter().all(|s| {
                u.as_ref().unwrap().eval(&s.ops, &s.state) == s.state.get(k).copied().unwrap_or(0)
            });
            if !ident {
                return Err(Error::SynthesisFailed {
                    message: format!(
                        "atom `{}` never assigns state variable #{k} in a branch that \
                         must update it",
                        atom.name
                    ),
                });
            }
        }
    }
    Ok(())
}

enum GuardTarget<'a> {
    Expr(&'a TExpr),
    NegExpr(&'a TExpr),
    True,
    False,
}

fn synth_guard(
    atom: &AluSpec,
    cond: &Expr,
    target: GuardTarget<'_>,
    samples: &[Sample],
    cfg: &SynthConfig,
    holes: &mut HashMap<String, Value>,
) -> Result<()> {
    synth_component(
        atom,
        cond,
        move |s| match &target {
            GuardTarget::Expr(g) => value::from_bool(value::truthy(g.eval(&s.ops, &s.state))),
            GuardTarget::NegExpr(g) => value::from_bool(!value::truthy(g.eval(&s.ops, &s.state))),
            GuardTarget::True => 1,
            GuardTarget::False => 0,
        },
        true,
        samples,
        cfg,
        holes,
    )
}

/// Enumerate the holes of a single atom expression until its evaluation
/// matches `expected` on every sample (`truthy`: compare as booleans).
fn synth_component(
    atom: &AluSpec,
    expr: &Expr,
    expected: impl Fn(&Sample) -> Value,
    truthy: bool,
    samples: &[Sample],
    cfg: &SynthConfig,
    holes: &mut HashMap<String, Value>,
) -> Result<()> {
    let names = free_holes(atom, expr, holes);

    // Candidate values per hole.
    let domains: Vec<Vec<Value>> = names
        .iter()
        .map(|name| {
            let domain = atom
                .hole(name)
                .map(|h| h.domain)
                .unwrap_or(HoleDomain::Bits(32));
            match domain {
                HoleDomain::Choice(n) => (0..n).collect(),
                HoleDomain::Bits(_) => {
                    let mut c: Vec<Value> = cfg
                        .const_candidates
                        .iter()
                        .copied()
                        .filter(|&v| domain.contains(v))
                        .collect();
                    if c.is_empty() {
                        c.push(0);
                    }
                    c
                }
            }
        })
        .collect();

    let combos: u64 = domains.iter().map(|d| d.len() as u64).product();
    if combos > cfg.max_combos {
        return Err(Error::SynthesisFailed {
            message: format!("component search space too large ({combos} combinations)"),
        });
    }

    let probe = Probe::resolve(atom, expr, &names, holes);
    // The target depends only on the sample, not on the candidate.
    let wanted: Vec<Value> = samples.iter().map(expected).collect();

    // `slots[i]` is always `domains[i][assignment[i]]`.
    let mut assignment = vec![0usize; names.len()];
    let mut slots: Vec<Value> = domains.iter().map(|d| d[0]).collect();
    loop {
        let ok = samples.iter().zip(&wanted).all(|(s, &want)| {
            let got = probe.eval(&slots, &s.ops, &s.state);
            if truthy {
                value::truthy(got) == value::truthy(want)
            } else {
                got == want
            }
        });
        if ok {
            for (name, &v) in names.iter().zip(&slots) {
                holes.insert(name.clone(), v);
            }
            return Ok(());
        }
        // Next assignment (odometer).
        let mut i = 0;
        loop {
            if i == names.len() {
                return Err(Error::SynthesisFailed {
                    message: format!(
                        "no hole assignment for component `{expr}` of atom `{}`",
                        atom.name
                    ),
                });
            }
            assignment[i] += 1;
            if assignment[i] < domains[i].len() {
                slots[i] = domains[i][assignment[i]];
                break;
            }
            assignment[i] = 0;
            slots[i] = domains[i][0];
            i += 1;
        }
    }
}

/// The holes `expr` reads that `holes` does not fix yet, in pre-order:
/// the holes a component owns, and the odometer's digits.
fn free_holes(atom: &AluSpec, expr: &Expr, holes: &HashMap<String, Value>) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    expr.visit(&mut |e| {
        let h = match e {
            Expr::CConst { hole }
            | Expr::Opt { hole, .. }
            | Expr::Mux2 { hole, .. }
            | Expr::Mux3 { hole, .. }
            | Expr::RelOp { hole, .. }
            | Expr::ArithOp { hole, .. } => Some(hole),
            Expr::Var(name) if atom.hole_vars.iter().any(|hv| &hv.name == name) => Some(name),
            _ => None,
        };
        if let Some(h) = h {
            if !holes.contains_key(h) && !names.contains(h) {
                names.push(h.clone());
            }
        }
    });
    names
}

/// Where an enumerated component reads a machine-code hole from.
#[derive(Debug, Clone, Copy)]
enum Hole {
    /// Fixed by an earlier component (or absent, read as 0).
    Fixed(Value),
    /// The candidate's value, at this index of the slot vector.
    Slot(usize),
}

impl Hole {
    #[inline]
    fn get(self, slots: &[Value]) -> Value {
        match self {
            Hole::Fixed(v) => v,
            Hole::Slot(i) => slots[i],
        }
    }
}

/// One atom expression resolved for enumeration: operands and state
/// variables are indices and holes are [`Hole`]s, so a candidate costs no
/// hash lookups or string comparisons. It evaluates to what
/// [`eval_unoptimized`] gives for `return expr;` under the same holes
/// (the `resolved_probe_equals_the_unoptimized_evaluator` test holds it
/// to that), through the same opcode decoders.
#[derive(Debug)]
enum Probe {
    Const(Value),
    Op(usize),
    State(usize),
    Hole(Hole),
    Opt(Hole, Box<Probe>),
    Mux2(Hole, Box<Probe>, Box<Probe>),
    Mux3(Hole, Box<Probe>, Box<Probe>, Box<Probe>),
    RelOp(Hole, Box<Probe>, Box<Probe>),
    ArithOp(Hole, Box<Probe>, Box<Probe>),
    Binary(BinOp, Box<Probe>, Box<Probe>),
    Unary(UnOp, Box<Probe>),
}

impl Probe {
    /// Resolve `expr` of `atom`: hole `names[i]` reads slot `i`, any other
    /// hole its value in `holes`, or 0 if it has none. A `Var` is a packet
    /// field first, then a state variable, then a hole, as in
    /// [`eval_unoptimized`].
    fn resolve(
        atom: &AluSpec,
        expr: &Expr,
        names: &[String],
        holes: &HashMap<String, Value>,
    ) -> Probe {
        let hole = |name: &str| match names.iter().position(|n| n == name) {
            Some(i) => Hole::Slot(i),
            None => Hole::Fixed(holes.get(name).copied().unwrap_or(0)),
        };
        let go = |e: &Expr| Box::new(Probe::resolve(atom, e, names, holes));
        match expr {
            Expr::Const(v) => Probe::Const(*v),
            Expr::Var(name) => {
                if let Some(i) = atom.packet_field_index(name) {
                    Probe::Op(i)
                } else if let Some(i) = atom.state_var_index(name) {
                    Probe::State(i)
                } else {
                    Probe::Hole(hole(name))
                }
            }
            Expr::CConst { hole: h } => Probe::Hole(hole(h)),
            Expr::Opt { hole: h, arg } => Probe::Opt(hole(h), go(arg)),
            Expr::Mux2 { hole: h, a, b } => Probe::Mux2(hole(h), go(a), go(b)),
            Expr::Mux3 { hole: h, a, b, c } => Probe::Mux3(hole(h), go(a), go(b), go(c)),
            Expr::RelOp { hole: h, a, b } => Probe::RelOp(hole(h), go(a), go(b)),
            Expr::ArithOp { hole: h, a, b } => Probe::ArithOp(hole(h), go(a), go(b)),
            Expr::Binary { op, l, r } => Probe::Binary(*op, go(l), go(r)),
            Expr::Unary { op, x } => Probe::Unary(*op, go(x)),
        }
    }

    fn eval(&self, slots: &[Value], ops: &[Value], state: &[Value]) -> Value {
        let ev = |p: &Probe| p.eval(slots, ops, state);
        match self {
            Probe::Const(v) => *v,
            Probe::Op(i) => ops.get(*i).copied().unwrap_or(0),
            Probe::State(i) => state.get(*i).copied().unwrap_or(0),
            Probe::Hole(h) => h.get(slots),
            Probe::Opt(h, x) => opt(h.get(slots), ev(x)),
            Probe::Mux2(h, a, b) => mux2(h.get(slots), ev(a), ev(b)),
            Probe::Mux3(h, a, b, c) => mux3(h.get(slots), ev(a), ev(b), ev(c)),
            Probe::RelOp(h, a, b) => rel_op(h.get(slots), ev(a), ev(b)),
            Probe::ArithOp(h, a, b) => arith_op(h.get(slots), ev(a), ev(b)),
            Probe::Binary(op, l, r) => apply_binop(*op, ev(l), ev(r)),
            Probe::Unary(op, x) => apply_unop(*op, ev(x)),
        }
    }
}

// ----------------------------------------------------------------------
// Stateless ALU synthesis.
// ----------------------------------------------------------------------

/// Synthesize hole values making the stateless ALU compute `target` over
/// `operand_count` operands.
pub fn synthesize_stateless(
    alu: &AluSpec,
    operand_count: usize,
    target: &TExpr,
    cfg: &SynthConfig,
) -> Result<HashMap<String, Value>> {
    debug_assert_eq!(alu.kind, AluKind::Stateless);
    if operand_count > alu.operand_count() {
        return Err(Error::DoesNotFit {
            message: format!(
                "stateless ALU `{}` has {} operand(s) but the target uses {operand_count}",
                alu.name,
                alu.operand_count()
            ),
        });
    }
    let cfg = cfg
        .clone()
        .with_candidates(&target.constants())
        .expand_neighbors();
    let mut sg = SampleGen::new(&cfg);
    let mut samples = sg.corners(alu.operand_count(), 0);
    samples.extend((0..cfg.base_samples).map(|_| sg.sample(alu.operand_count(), 0)));

    // Control holes (explicit hole variables) are enumerated first; each
    // control assignment prunes the body via partial specialization.
    let controls: Vec<(String, Vec<Value>)> = alu
        .hole_vars
        .iter()
        .map(|hv| {
            let bound = HoleDomain::Bits(hv.bits).bound().min(256) as u32;
            (hv.name.clone(), (0..bound).collect())
        })
        .collect();

    for _round in 0..cfg.max_rounds {
        let holes = try_stateless_once(alu, target, &controls, &samples, &cfg)?;
        // CEGIS verification.
        let mut counterexample = None;
        for _ in 0..cfg.verify_samples {
            let s = sg.sample(alu.operand_count(), 0);
            let mut scratch = [];
            let got = eval_unoptimized(alu, &holes, &s.ops, &mut scratch).output;
            if got != target.eval(&s.ops, &[]) {
                counterexample = Some(s);
                break;
            }
        }
        match counterexample {
            None => return Ok(holes),
            Some(s) => samples.push(s),
        }
    }
    Err(Error::SynthesisFailed {
        message: format!(
            "stateless ALU `{}`: no verified assignment within {} rounds",
            alu.name, cfg.max_rounds
        ),
    })
}

fn try_stateless_once(
    alu: &AluSpec,
    target: &TExpr,
    controls: &[(String, Vec<Value>)],
    samples: &[Sample],
    cfg: &SynthConfig,
) -> Result<HashMap<String, Value>> {
    let mut control_assignment = vec![0usize; controls.len()];
    loop {
        let mut holes: HashMap<String, Value> = controls
            .iter()
            .zip(&control_assignment)
            .map(|((name, domain), &i)| (name.clone(), domain[i]))
            .collect();
        // Prune dead branches under this control assignment.
        let residual = specialize_partial(alu, &holes);
        let attempt = synth_component(
            &residual,
            &body_as_expr(&residual),
            |s| target.eval(&s.ops, &[]),
            false,
            samples,
            cfg,
            &mut holes,
        );
        if attempt.is_ok() {
            // Default any holes from pruned branches.
            for h in &alu.holes {
                holes.entry(h.local.clone()).or_insert(0);
            }
            return Ok(holes);
        }
        // Next control assignment.
        let mut i = 0;
        loop {
            if i == controls.len() {
                return Err(Error::SynthesisFailed {
                    message: format!(
                        "stateless ALU `{}` cannot compute target `{target:?}`",
                        alu.name
                    ),
                });
            }
            control_assignment[i] += 1;
            if control_assignment[i] < controls[i].1.len() {
                break;
            }
            control_assignment[i] = 0;
            i += 1;
        }
        if controls.is_empty() {
            return Err(Error::SynthesisFailed {
                message: format!(
                    "stateless ALU `{}` cannot compute target `{target:?}`",
                    alu.name
                ),
            });
        }
    }
}

/// A specialized stateless body should be a single `return expr`; extract
/// that expression (synthesizing over it component-wise).
fn body_as_expr(spec: &AluSpec) -> Expr {
    match spec.body.as_slice() {
        [Stmt::Return(e)] => e.clone(),
        _ => {
            // Residual control flow (runtime conditions): wrap as an
            // unsupported marker that will fail enumeration cleanly — the
            // atoms shipped with Druzhba always specialize to one return
            // per control assignment.
            Expr::Const(u32::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_alu_dsl::atoms::atom;
    use druzhba_domino::ast::BinOp;

    fn cfg() -> SynthConfig {
        SynthConfig::default()
    }

    fn run_atom(atom_name: &str, ops: usize, tree: &TargetTree) -> Result<HashMap<String, Value>> {
        synthesize_stateful(&atom(atom_name).unwrap(), ops, tree, &cfg())
    }

    #[test]
    fn raw_accumulate_operand() {
        // state += op0
        let tree = TargetTree::Leaf {
            updates: vec![Some(TExpr::Bin(
                BinOp::Add,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Op(0)),
            ))],
        };
        let holes = run_atom("raw", 1, &tree).unwrap();
        // Verify semantics directly.
        let a = atom("raw").unwrap();
        let mut state = vec![10];
        eval_unoptimized(&a, &holes, &[7, 0], &mut state);
        assert_eq!(state[0], 17);
    }

    #[test]
    fn raw_set_constant() {
        // state = 42 (unconditional overwrite with an immediate)
        let tree = TargetTree::Leaf {
            updates: vec![Some(TExpr::Const(42))],
        };
        let holes = synthesize_stateful(
            &atom("raw").unwrap(),
            0,
            &tree,
            &cfg().with_candidates(&[42]),
        )
        .unwrap();
        let a = atom("raw").unwrap();
        let mut state = vec![999];
        eval_unoptimized(&a, &holes, &[3, 4], &mut state);
        assert_eq!(state[0], 42);
    }

    #[test]
    fn pred_raw_conditional_increment() {
        // if (state >= 10) {} else { state += 1 }  — via inverted polarity
        // (pred_raw's then-branch is the only updating branch).
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Ge,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Const(10)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![None],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Const(1)),
                ))],
            }),
        };
        let holes = run_atom("pred_raw", 0, &tree).unwrap();
        let a = atom("pred_raw").unwrap();
        let mut state = vec![4];
        eval_unoptimized(&a, &holes, &[0, 0], &mut state);
        assert_eq!(state[0], 5);
        let mut state = vec![11];
        eval_unoptimized(&a, &holes, &[0, 0], &mut state);
        assert_eq!(state[0], 11, "no update at/above threshold");
    }

    #[test]
    fn if_else_raw_sampling_semantics() {
        // if (state == 9) { state = 0 } else { state += 1 }
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Eq,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Const(9)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Const(0))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Const(1)),
                ))],
            }),
        };
        let holes = run_atom("if_else_raw", 0, &tree).unwrap();
        let a = atom("if_else_raw").unwrap();
        let mut state = vec![0];
        for i in 1..=9 {
            eval_unoptimized(&a, &holes, &[0, 0], &mut state);
            assert_eq!(state[0], i % 10);
        }
        eval_unoptimized(&a, &holes, &[0, 0], &mut state);
        assert_eq!(state[0], 0, "wraps at 9");
    }

    #[test]
    fn pair_conditional_two_variable_update() {
        // if (state0 <= op0) { state0 = op0; state1 = op1 }
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Le,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Op(0)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Op(0)), Some(TExpr::Op(1))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![None, None],
            }),
        };
        let holes = run_atom("pair", 2, &tree).unwrap();
        let a = atom("pair").unwrap();
        let mut state = vec![5, 100];
        eval_unoptimized(&a, &holes, &[9, 77], &mut state);
        assert_eq!(state, vec![9, 77], "update taken when util rises");
        eval_unoptimized(&a, &holes, &[3, 55], &mut state);
        assert_eq!(state, vec![9, 77], "no update when util lower");
    }

    #[test]
    fn guard_flag_via_operand() {
        // if (op0 != 0) { state += 1 } — a stateless flag drives the guard.
        let tree = TargetTree::Branch {
            guard: TExpr::Op(0),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Const(1)),
                ))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![None],
            }),
        };
        let holes = run_atom("pred_raw", 1, &tree).unwrap();
        let a = atom("pred_raw").unwrap();
        let mut state = vec![0];
        eval_unoptimized(&a, &holes, &[1, 0], &mut state);
        eval_unoptimized(&a, &holes, &[0, 0], &mut state);
        eval_unoptimized(&a, &holes, &[7, 0], &mut state);
        assert_eq!(state[0], 2, "increments only on truthy flag");
    }

    #[test]
    fn impossible_target_fails_cleanly() {
        // raw cannot branch.
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Ge,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Const(5)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Const(0))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Const(1)),
                ))],
            }),
        };
        let err = run_atom("raw", 0, &tree).unwrap_err();
        assert!(matches!(err, Error::SynthesisFailed { .. }));
    }

    #[test]
    fn too_many_operands_rejected() {
        let tree = TargetTree::Leaf {
            updates: vec![Some(TExpr::Op(2))],
        };
        let err = synthesize_stateful(&atom("raw").unwrap(), 3, &tree, &cfg()).unwrap_err();
        assert!(matches!(err, Error::DoesNotFit { .. }));
    }

    #[test]
    fn stateless_add() {
        let target = TExpr::Bin(BinOp::Add, Box::new(TExpr::Op(0)), Box::new(TExpr::Op(1)));
        let alu = atom("stateless_full").unwrap();
        let holes = synthesize_stateless(&alu, 2, &target, &cfg()).unwrap();
        let mut scratch = [];
        assert_eq!(
            eval_unoptimized(&alu, &holes, &[20, 22], &mut scratch).output,
            42
        );
    }

    #[test]
    fn stateless_compare_with_constant() {
        // op0 >= 7
        let target = TExpr::Bin(BinOp::Ge, Box::new(TExpr::Op(0)), Box::new(TExpr::Const(7)));
        let alu = atom("stateless_full").unwrap();
        let holes = synthesize_stateless(&alu, 1, &target, &cfg()).unwrap();
        let mut scratch = [];
        assert_eq!(
            eval_unoptimized(&alu, &holes, &[7, 0], &mut scratch).output,
            1
        );
        assert_eq!(
            eval_unoptimized(&alu, &holes, &[6, 0], &mut scratch).output,
            0
        );
    }

    #[test]
    fn stateless_multiply_flag() {
        // op0 * 3
        let target = TExpr::Bin(
            BinOp::Mul,
            Box::new(TExpr::Op(0)),
            Box::new(TExpr::Const(3)),
        );
        let alu = atom("stateless_full").unwrap();
        let holes = synthesize_stateless(&alu, 1, &target, &cfg()).unwrap();
        let mut scratch = [];
        assert_eq!(
            eval_unoptimized(&alu, &holes, &[5, 0], &mut scratch).output,
            15
        );
    }

    #[test]
    fn stateless_constant_materialization() {
        let target = TExpr::Const(7);
        let alu = atom("stateless_full").unwrap();
        let holes = synthesize_stateless(&alu, 0, &target, &cfg()).unwrap();
        let mut scratch = [];
        assert_eq!(
            eval_unoptimized(&alu, &holes, &[123, 456], &mut scratch).output,
            7
        );
    }

    #[test]
    fn stateless_strict_less_than() {
        // op0 < op1 — not a rel_op encoding; found through another branch
        // (e.g. the mux/logic path) or fails. stateless_full expresses it
        // as !(op0 >= op1)? It cannot; expect either success or a clean
        // SynthesisFailed (documenting atom expressiveness limits).
        let target = TExpr::Bin(BinOp::Lt, Box::new(TExpr::Op(0)), Box::new(TExpr::Op(1)));
        let alu = atom("stateless_full").unwrap();
        match synthesize_stateless(&alu, 2, &target, &cfg()) {
            Ok(holes) => {
                let mut scratch = [];
                assert_eq!(
                    eval_unoptimized(&alu, &holes, &[3, 9], &mut scratch).output,
                    1
                );
                assert_eq!(
                    eval_unoptimized(&alu, &holes, &[9, 3], &mut scratch).output,
                    0
                );
            }
            Err(Error::SynthesisFailed { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn limited_range_bug_reproduced_at_low_verify_bits() {
        // The §5.2 failure class: with 2-bit verification, "state == 3" is
        // indistinguishable from "state >= 3", and the enumeration order
        // (>= before ==) picks the wrong operator.
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Eq,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Const(3)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Const(0))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Const(1)),
                ))],
            }),
        };
        let buggy_cfg = SynthConfig {
            verify_bits: 2,
            ..cfg()
        };
        let holes =
            synthesize_stateful(&atom("if_else_raw").unwrap(), 0, &tree, &buggy_cfg).unwrap();
        let a = atom("if_else_raw").unwrap();
        // At state = 5 (outside 2 bits) the buggy machine code resets where
        // the true semantics increments.
        let mut state = vec![5];
        eval_unoptimized(&a, &holes, &[0, 0], &mut state);
        assert_eq!(
            state[0], 0,
            "2-bit-verified machine code treats ==3 as >=3 (the paper's bug class)"
        );
        // Full-width verification synthesizes correct code.
        let good = synthesize_stateful(&atom("if_else_raw").unwrap(), 0, &tree, &cfg()).unwrap();
        let mut state = vec![5];
        eval_unoptimized(&a, &good, &[0, 0], &mut state);
        assert_eq!(state[0], 6, "10-bit verification finds the == guard");
    }

    /// Every expression the matcher enumerates, with the spec it reads:
    /// each (sub)expression of the stateful atoms' statements, and each
    /// stateless ALU's body and its `specialize_partial` residual under
    /// every control assignment.
    fn enumerated_expressions() -> Vec<(AluSpec, Expr)> {
        use druzhba_alu_dsl::ast::visit_stmts;
        use druzhba_alu_dsl::atoms::{STATEFUL_ATOMS, STATELESS_ATOMS};
        let mut out = Vec::new();
        for name in STATEFUL_ATOMS {
            let a = atom(name).unwrap();
            let mut exprs = Vec::new();
            visit_stmts(&a.body, &mut |e| exprs.push(e.clone()));
            out.extend(exprs.into_iter().map(|e| (a.clone(), e)));
        }
        for name in STATELESS_ATOMS {
            let alu = atom(name).unwrap();
            let mut exprs = Vec::new();
            visit_stmts(&alu.body, &mut |e| exprs.push(e.clone()));
            out.extend(exprs.into_iter().map(|e| (alu.clone(), e)));
            let bounds: Vec<Value> = alu
                .hole_vars
                .iter()
                .map(|hv| HoleDomain::Bits(hv.bits).bound().min(256) as Value)
                .collect();
            let mut assignment = vec![0; bounds.len()];
            'controls: loop {
                let controls: HashMap<String, Value> = alu
                    .hole_vars
                    .iter()
                    .zip(&assignment)
                    .map(|(hv, &v)| (hv.name.clone(), v))
                    .collect();
                let residual = specialize_partial(&alu, &controls);
                out.push((residual.clone(), body_as_expr(&residual)));
                for i in 0..=bounds.len() {
                    if i == bounds.len() {
                        break 'controls;
                    }
                    assignment[i] += 1;
                    if assignment[i] < bounds[i] {
                        break;
                    }
                    assignment[i] = 0;
                }
            }
        }
        out
    }

    #[test]
    fn resolved_probe_equals_the_unoptimized_evaluator() {
        let mut gen = ValueGen::new(0x9E50_1FED, 32);
        // Hole values include out-of-domain ones (a mux3 selector of 7, a
        // rel_op opcode of 9); data values favour small, equal operands.
        let hole_value = |gen: &mut ValueGen| match gen.value_below(4) {
            0 => [7, 9, 0x8000_0000, Value::MAX][gen.value_below(4) as usize],
            1 => gen.value(),
            _ => gen.value_below(4),
        };
        let data = |gen: &mut ValueGen| match gen.value_below(3) {
            0 => gen.value(),
            _ => gen.value_below(4),
        };
        let exprs = enumerated_expressions();
        assert!(exprs.len() > 100, "{} expressions", exprs.len());
        for (spec, expr) in &exprs {
            let probe_spec = AluSpec {
                body: vec![Stmt::Return(expr.clone())],
                ..spec.clone()
            };
            let names = free_holes(spec, expr, &HashMap::new());
            for _ in 0..64 {
                // Each hole is enumerated, fixed by an earlier component,
                // or absent.
                let mut fixed = HashMap::new();
                let mut slot_names = Vec::new();
                for name in &names {
                    match gen.value_below(3) {
                        0 => slot_names.push(name.clone()),
                        1 => {
                            fixed.insert(name.clone(), hole_value(&mut gen));
                        }
                        _ => {}
                    }
                }
                let slots: Vec<Value> = slot_names.iter().map(|_| hole_value(&mut gen)).collect();
                let ops: Vec<Value> = (0..spec.operand_count()).map(|_| data(&mut gen)).collect();
                let state: Vec<Value> =
                    (0..spec.state_vars.len()).map(|_| data(&mut gen)).collect();

                let probe = Probe::resolve(spec, expr, &slot_names, &fixed);
                let got = probe.eval(&slots, &ops, &state);
                let mut all = fixed.clone();
                all.extend(slot_names.iter().cloned().zip(slots.iter().copied()));
                let want = eval_unoptimized(&probe_spec, &all, &ops, &mut state.clone()).output;
                assert_eq!(
                    got, want,
                    "`{expr}` of `{}` with holes {all:?}, operands {ops:?}, state {state:?}",
                    spec.name
                );
            }
        }
    }
}
