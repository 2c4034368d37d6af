//! Seed-driven generation of well-typed Domino programs.
//!
//! Candidates are drawn from five template families anchored on the real
//! corpus idioms (accumulators, BLUE-style decay, predicated latches,
//! if/else toggles, paired threshold counters), each over a jittered
//! (depth, width, atom) grid. A candidate is only *emitted* after the
//! full vet chain passes: parse round-trip, compilation, the screen
//! classification (`Interesting` required), abstract translation
//! validation (no certain mismatch at any OptLevel), and symbolic
//! validation (not `Refuted`). The last three read off one
//! [`ProgramBuild`] of all four levels, so a candidate costs one symbolic
//! execution per level. Program `k` for a base seed is
//! found by trying candidate seeds derived from `(base, k, attempt)` in
//! order, so generation is index-addressable: workers can generate
//! program 733 without generating programs 0–732 first.
//!
//! Subtraction discipline: the decay family's subtrahends always take
//! the relop-product shape `((pkt.b == K) * D)` whose abstract lower
//! bound is 0, so the certain-overflow lint (which would classify the
//! candidate `Hazardous`) can never fire on a generated program.

use druzhba_analysis::{AbsVal, ProgramBuild, Screened, SymbolicVerdict};
use druzhba_chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba_core::rng::ValueGen;
use druzhba_core::Value;
use druzhba_dgen::OptLevel;
use druzhba_domino::ast::{BinOp, DominoExpr, DominoProgram, DominoStmt, StateDecl};
use druzhba_domino::parse_program;
use druzhba_dsim::shard_seed;

/// Salt mixed into the base seed for Domino candidate derivation
/// (`"PROG"`), keeping the candidate stream independent of the fuzz,
/// screen, and hunt streams that share the same base seed.
pub const DOMINO_SALT: u64 = 0x5052_4F47;

/// Candidate seeds tried per program index before giving up. The vet
/// chain accepts well over half of all candidates, so exhausting this
/// many rejections in a row indicates a generator bug, not bad luck.
pub const MAX_ATTEMPTS: u64 = 4096;

/// The target grid a candidate is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenGrid {
    /// Pipeline depth (stages).
    pub depth: usize,
    /// ALUs per stage.
    pub width: usize,
    /// Stateful atom name (Table 1's "ALU name" column).
    pub atom: &'static str,
}

impl std::fmt::Display for GenGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}:{}", self.depth, self.width, self.atom)
    }
}

/// An unvetted candidate: the pure function of one candidate seed.
#[derive(Debug, Clone)]
pub struct DominoCandidate {
    /// The candidate seed that produced this program.
    pub seed: u64,
    /// Target grid.
    pub grid: GenGrid,
    /// The program.
    pub program: DominoProgram,
    /// Canonical rendering of `program` (what `parse_program` re-reads).
    pub source: String,
}

/// Why the vet chain rejected a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Canonical rendering did not re-parse (generator bug).
    Parse,
    /// The compiler could not fit the program on the target grid.
    Compile,
    /// Screened [`Screened::Trivial`] — constant or pass-through outputs.
    Trivial,
    /// Screened [`Screened::Hazardous`] — certain arithmetic hazard.
    Hazardous,
    /// Abstract translation validation found a certain backend mismatch.
    /// On a freshly compiled program this is a *compiler bug*, not a bad
    /// candidate; campaigns surface the count so it can fail CI.
    Tv,
    /// Symbolic validation refuted backend equivalence (compiler bug,
    /// like [`Reject::Tv`]).
    Refuted,
}

/// Per-reason rejection counters accumulated while searching for a
/// vettable candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectStats {
    pub parse: u32,
    pub compile: u32,
    pub trivial: u32,
    pub hazardous: u32,
    pub tv: u32,
    pub refuted: u32,
}

impl RejectStats {
    /// Record one rejection.
    pub fn add(&mut self, r: Reject) {
        match r {
            Reject::Parse => self.parse += 1,
            Reject::Compile => self.compile += 1,
            Reject::Trivial => self.trivial += 1,
            Reject::Hazardous => self.hazardous += 1,
            Reject::Tv => self.tv += 1,
            Reject::Refuted => self.refuted += 1,
        }
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, o: &RejectStats) {
        self.parse += o.parse;
        self.compile += o.compile;
        self.trivial += o.trivial;
        self.hazardous += o.hazardous;
        self.tv += o.tv;
        self.refuted += o.refuted;
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u32 {
        self.parse + self.compile + self.trivial + self.hazardous + self.tv + self.refuted
    }

    /// Rejections that indicate a compiler bug rather than an
    /// uninteresting candidate (TV mismatch or symbolic refutation on
    /// freshly compiled code).
    pub fn alarming(&self) -> u32 {
        self.tv + self.refuted
    }
}

/// A vetted generated program, ready for differential testing.
#[derive(Debug, Clone)]
pub struct GeneratedDomino {
    /// Stable name: `gen_{base_seed:016x}_{index}`.
    pub name: String,
    /// Program index under `base_seed`.
    pub index: u64,
    /// The base seed generation started from.
    pub base_seed: u64,
    /// The winning candidate seed (derived from base, index, attempt).
    pub seed: u64,
    /// Candidates rejected before this one, by reason.
    pub rejects: RejectStats,
    /// Target grid.
    pub grid: GenGrid,
    /// Canonical program text.
    pub source: String,
    /// The parsed program.
    pub program: DominoProgram,
    /// Compilation result (machine code, layout, observables).
    pub compiled: CompiledProgram,
    /// The symbolic verdict of the compiled levels against the source
    /// (never `Refuted`: vetting rejects those). `Proved` means the four
    /// backends compute the same function on every packet and state
    /// (DESIGN.md §12), so one backend's run speaks for all of them.
    pub verdict: SymbolicVerdict,
}

impl GeneratedDomino {
    /// The reference interpreter wired to this program's container
    /// layout — the high-level [`Specification`](druzhba_dsim::Specification)
    /// side of the differential loop.
    pub fn interpreter_spec(&self) -> CompiledSpec {
        CompiledSpec::new(self.program.clone(), &self.compiled)
    }

    /// True when [`GeneratedDomino::verdict`] proves every level equal to
    /// the source.
    pub fn proved(&self) -> bool {
        self.verdict == SymbolicVerdict::Proved
    }

    /// The exact command that regenerates this program.
    pub fn recipe(&self) -> String {
        format!(
            "druzhba generate --seed {:#x} --index {}",
            self.base_seed, self.index
        )
    }
}

// ---------------------------------------------------------------------
// Expression builders.
// ---------------------------------------------------------------------

fn field(name: &str) -> DominoExpr {
    DominoExpr::Field(name.to_string())
}

fn state(name: &str) -> DominoExpr {
    DominoExpr::State(name.to_string())
}

fn cnst(v: Value) -> DominoExpr {
    DominoExpr::Const(v)
}

fn bin(op: BinOp, l: DominoExpr, r: DominoExpr) -> DominoExpr {
    DominoExpr::Binary {
        op,
        l: Box::new(l),
        r: Box::new(r),
    }
}

fn decl(name: &str) -> StateDecl {
    StateDecl {
        name: name.to_string(),
        init: 0,
    }
}

fn assign_field(name: &str, value: DominoExpr) -> DominoStmt {
    DominoStmt::AssignField {
        field: name.to_string(),
        value,
    }
}

fn assign_state(name: &str, value: DominoExpr) -> DominoStmt {
    DominoStmt::AssignState {
        var: name.to_string(),
        value,
    }
}

// ---------------------------------------------------------------------
// Template families.
// ---------------------------------------------------------------------

/// A small state-free operand over the read fields: `pkt.a`, a small
/// constant, `(pkt.a % m)`, or `(pkt.a + k)`. None can trip the certain
/// overflow/div-by-zero lints (all right operands are nonzero constants
/// and top-valued fields never *certainly* wrap).
fn small_operand(rng: &mut ValueGen, f: &str) -> DominoExpr {
    match rng.value_below(4) {
        0 => field(f),
        1 => cnst(1 + rng.value_below(7)),
        2 => {
            let m = [2, 3, 5][rng.value_below(3) as usize];
            bin(BinOp::Mod, field(f), cnst(m))
        }
        _ => bin(BinOp::Add, field(f), cnst(1 + rng.value_below(7))),
    }
}

/// Stream-summing accumulator (learn_filter's idiom; atom `raw`).
fn accumulator(rng: &mut ValueGen) -> (GenGrid, DominoProgram) {
    let grid = GenGrid {
        depth: 3 + rng.value_below(2) as usize,
        width: 2 + rng.value_below(2) as usize,
        atom: "raw",
    };
    let mut body = vec![
        assign_field("out0", state("acc")),
        assign_state(
            "acc",
            bin(BinOp::Add, state("acc"), small_operand(rng, "a")),
        ),
    ];
    if rng.value_below(2) == 1 {
        let k = 1 + rng.value_below(15);
        let op = [BinOp::Add, BinOp::Eq, BinOp::Lt][rng.value_below(3) as usize];
        body.push(assign_field("out1", bin(op, field("b"), cnst(k))));
    }
    (
        grid,
        DominoProgram {
            state_vars: vec![decl("acc")],
            body,
        },
    )
}

/// BLUE-style probability decay (blue_decrease's idiom; atom `sub`). The
/// subtrahend's relop-product shape keeps its abstract lower bound at 0,
/// so decrementing from a zero-initialized state is never a certain
/// underflow.
fn decay(rng: &mut ValueGen) -> (GenGrid, DominoProgram) {
    let grid = GenGrid {
        depth: 4 + rng.value_below(2) as usize,
        width: 2 + rng.value_below(2) as usize,
        atom: "sub",
    };
    // `<` resists if_else synthesis on the sub atom; `<=` and `==` fit.
    let rel = [BinOp::Le, BinOp::Eq][rng.value_below(2) as usize];
    let k = rng.value_below(4);
    let d = 1 + rng.value_below(3);
    let body = vec![
        assign_field("mark", bin(rel, field("a"), state("level"))),
        assign_state(
            "level",
            bin(
                BinOp::Sub,
                state("level"),
                bin(BinOp::Mul, bin(BinOp::Eq, field("b"), cnst(k)), cnst(d)),
            ),
        ),
    ];
    (
        grid,
        DominoProgram {
            state_vars: vec![decl("level")],
            body,
        },
    )
}

/// Predicated state (marple_new_flow's idiom; atom `pred_raw`): either a
/// first-packet latch or a guarded accumulator.
fn guarded(rng: &mut ValueGen) -> (GenGrid, DominoProgram) {
    let grid = GenGrid {
        depth: 3 + rng.value_below(2) as usize,
        width: 2 + rng.value_below(2) as usize,
        atom: "pred_raw",
    };
    let program = if rng.value_below(2) == 0 {
        let c = 1 + rng.value_below(3);
        DominoProgram {
            state_vars: vec![decl("seen")],
            body: vec![
                assign_field("out0", bin(BinOp::Eq, state("seen"), cnst(0))),
                assign_state("seen", cnst(c)),
            ],
        }
    } else {
        let k = 1 + rng.value_below(31);
        let operand = small_operand(rng, "b");
        DominoProgram {
            state_vars: vec![decl("total")],
            body: vec![
                assign_field("out0", state("total")),
                DominoStmt::If {
                    cond: bin(BinOp::Lt, field("a"), cnst(k)),
                    then_body: vec![assign_state(
                        "total",
                        bin(BinOp::Add, state("total"), operand),
                    )],
                    else_body: vec![],
                },
            ],
        }
    };
    (grid, program)
}

/// Modular toggle (sampling's idiom; atom `if_else_raw`).
fn toggle(rng: &mut ValueGen) -> (GenGrid, DominoProgram) {
    let grid = GenGrid {
        depth: 2 + rng.value_below(2) as usize,
        width: 1 + rng.value_below(2) as usize,
        atom: "if_else_raw",
    };
    let n = 1 + rng.value_below(12);
    let s = 1 + rng.value_below(2);
    // The flag constants ride the atom's own output; only the 0/1 pair
    // fits, and the inverted orientation needs the extra stage.
    let (a, b) = if grid.depth >= 3 && rng.value_below(2) == 1 {
        (0, 1)
    } else {
        (1, 0)
    };
    let program = DominoProgram {
        state_vars: vec![decl("count")],
        body: vec![DominoStmt::If {
            cond: bin(BinOp::Eq, state("count"), cnst(n)),
            then_body: vec![
                assign_state("count", cnst(0)),
                assign_field("out0", cnst(a)),
            ],
            else_body: vec![
                assign_state("count", bin(BinOp::Add, state("count"), cnst(s))),
                assign_field("out0", cnst(b)),
            ],
        }],
    };
    (grid, program)
}

/// Paired threshold counter (snap_heavy_hitter's idiom; atom `pair`).
fn pair_threshold(rng: &mut ValueGen) -> (GenGrid, DominoProgram) {
    let grid = GenGrid {
        depth: 1 + rng.value_below(2) as usize,
        width: 1,
        atom: "pair",
    };
    let t = 1 + rng.value_below(30);
    let h = 1 + rng.value_below(3);
    let program = DominoProgram {
        state_vars: vec![decl("count"), decl("hits")],
        body: vec![
            assign_field("prev", state("count")),
            DominoStmt::If {
                cond: bin(BinOp::Ge, state("count"), cnst(t)),
                then_body: vec![assign_state(
                    "hits",
                    bin(BinOp::Add, state("hits"), cnst(h)),
                )],
                else_body: vec![],
            },
            assign_state("count", bin(BinOp::Add, state("count"), cnst(1))),
        ],
    };
    (grid, program)
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

/// Render a program in the canonical source form the generator emits:
/// state declarations first, four-space indentation, expressions fully
/// parenthesized (the AST `Display`), so `parse_program(render(p))`
/// round-trips exactly.
pub fn render_program(p: &DominoProgram) -> String {
    let mut out = String::new();
    for d in &p.state_vars {
        out.push_str(&format!("state int {} = {};\n", d.name, d.init));
    }
    render_stmts(&p.body, 0, &mut out);
    out
}

fn render_stmts(stmts: &[DominoStmt], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            DominoStmt::AssignField { field, value } => {
                out.push_str(&format!("{pad}pkt.{field} = {value};\n"));
            }
            DominoStmt::AssignState { var, value } => {
                out.push_str(&format!("{pad}{var} = {value};\n"));
            }
            DominoStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                out.push_str(&format!("{pad}if ({cond}) {{\n"));
                render_stmts(then_body, indent + 1, out);
                if else_body.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_stmts(else_body, indent + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Candidate generation and vetting.
// ---------------------------------------------------------------------

/// The pure candidate function: one seed, one program. Byte-identical
/// output for identical seeds is the determinism contract the property
/// suite pins.
pub fn domino_candidate(seed: u64) -> DominoCandidate {
    let mut rng = ValueGen::new(seed, 32);
    let (grid, program) = match rng.value_below(5) {
        0 => accumulator(&mut rng),
        1 => decay(&mut rng),
        2 => guarded(&mut rng),
        3 => toggle(&mut rng),
        _ => pair_threshold(&mut rng),
    };
    let source = render_program(&program);
    DominoCandidate {
        seed,
        grid,
        program,
        source,
    }
}

/// Run the full vet chain on a candidate. `Ok` carries the re-parsed
/// program (proving the round-trip), its compilation and its symbolic
/// verdict.
pub fn vet(
    cand: &DominoCandidate,
) -> Result<(DominoProgram, CompiledProgram, SymbolicVerdict), Reject> {
    let program = parse_program(&cand.source).map_err(|_| Reject::Parse)?;
    let cfg = CompilerConfig::new(cand.grid.depth, cand.grid.width, cand.grid.atom);
    let compiled = compile(&program, &cfg).map_err(|_| Reject::Compile)?;
    let verdict = screen_and_validate(&compiled)?;
    Ok((program, compiled, verdict))
}

/// The screen, the abstract TV and the symbolic verdict, in that order,
/// read off one all-level build. `Ok` carries the verdict, which is never
/// `Refuted`.
fn screen_and_validate(compiled: &CompiledProgram) -> Result<SymbolicVerdict, Reject> {
    let (spec, mc) = (&compiled.pipeline_spec, &compiled.machine_code);
    let build = ProgramBuild::new(spec, mc, &OptLevel::ALL).map_err(|(level, _)| match level {
        OptLevel::Unoptimized => Reject::Compile,
        _ => Reject::Tv,
    })?;
    match build.screen(Some(&compiled.observable_containers())) {
        Screened::Interesting => {}
        Screened::Trivial => return Err(Reject::Trivial),
        Screened::Hazardous => return Err(Reject::Hazardous),
    }
    let top = vec![AbsVal::top(); spec.config.phv_length];
    if !build.tv(&top).is_empty() {
        return Err(Reject::Tv);
    }
    match build.verdict() {
        SymbolicVerdict::Refuted { .. } => Err(Reject::Refuted),
        verdict => Ok(verdict),
    }
}

/// Candidate seed for `(base, index, attempt)`. The attempt occupies the
/// low 16 bits so every `(index, attempt)` pair maps to a distinct
/// shard-seed input.
fn candidate_seed(base: u64, index: u64, attempt: u64) -> u64 {
    shard_seed(base ^ DOMINO_SALT, (index << 16) | attempt)
}

/// Generate program `index` for `base` seed: try candidate seeds in
/// attempt order and emit the first one the vet chain accepts. Pure in
/// `(base, index)` — no other program's generation affects the result.
///
/// # Panics
///
/// After [`MAX_ATTEMPTS`] consecutive rejections, which the acceptance
/// rate of the template families makes practically unreachable; an
/// actual exhaustion means a generator or compiler regression.
pub fn generate_domino_at(base: u64, index: u64) -> GeneratedDomino {
    let mut rejects = RejectStats::default();
    for attempt in 0..MAX_ATTEMPTS {
        let seed = candidate_seed(base, index, attempt);
        let cand = domino_candidate(seed);
        match vet(&cand) {
            Ok((program, compiled, verdict)) => {
                return GeneratedDomino {
                    name: format!("gen_{base:016x}_{index}"),
                    index,
                    base_seed: base,
                    seed,
                    rejects,
                    grid: cand.grid,
                    source: cand.source,
                    program,
                    compiled,
                    verdict,
                };
            }
            Err(r) => rejects.add(r),
        }
    }
    panic!(
        "progen: exhausted {MAX_ATTEMPTS} candidates for base seed {base:#x} index {index} \
         (rejects: {rejects:?})"
    );
}

/// Generate programs `0..count` for a base seed.
pub fn generate_domino(base: u64, count: u64) -> Vec<GeneratedDomino> {
    (0..count).map(|i| generate_domino_at(base, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_analysis::screen;

    #[test]
    fn candidate_is_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let a = domino_candidate(seed);
            let b = domino_candidate(seed);
            assert_eq!(a.source, b.source);
            assert_eq!(a.grid, b.grid);
        }
    }

    #[test]
    fn render_round_trips() {
        for seed in 0..40u64 {
            let cand = domino_candidate(seed);
            let parsed = parse_program(&cand.source).expect("generated source parses");
            assert_eq!(render_program(&parsed), cand.source);
        }
    }

    #[test]
    fn generated_programs_are_vetted_and_stable() {
        let a = generate_domino_at(0x000D_122B, 0);
        let b = generate_domino_at(0x000D_122B, 0);
        assert_eq!(a.source, b.source);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.rejects, b.rejects);
        // Emitted programs always re-screen Interesting.
        let obs = a.compiled.observable_containers();
        let screened = screen(
            &a.compiled.pipeline_spec,
            &a.compiled.machine_code,
            Some(&obs),
        )
        .unwrap();
        assert_eq!(screened, Screened::Interesting);
    }

    #[test]
    fn indices_are_independent() {
        // Generating index 3 alone matches index 3 from a batch.
        let batch = generate_domino(7, 4);
        let solo = generate_domino_at(7, 3);
        assert_eq!(batch[3].source, solo.source);
        assert_eq!(batch[3].seed, solo.seed);
    }
}
