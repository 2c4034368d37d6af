//! Reference interpreter for Domino programs.
//!
//! The executable *high-level specification* of the fuzz-testing workflow
//! of Fig. 5 (the "program spec" box): the Domino file that was compiled
//! to machine code also runs here, packet by packet, and the harnesses
//! assert that the two agree.
//!
//! Every name is resolved once, when the interpreter is built: a field
//! read becomes an input-container index, a field write an
//! output-container index, a state variable a state slot. A step is then
//! a plain walk of the resolved tree with no hashing, no string
//! comparison and no allocation.
//!
//! The walk runs `L` packets at once ([`Interpreter::step_lanes`]): every
//! container and state slot is a column of `L` lanes, an `if` becomes a
//! then arm and an else arm under complementary lane masks (an arm no
//! lane takes is skipped), and every store is masked, so a lane outside
//! the mask keeps its bits. All operators are total, so evaluating an
//! expression on lanes that do not use it is harmless. A one-packet
//! [`Interpreter::step`] is the walk at width 1. The walker shares no
//! code with the compiler or the backends it checks beyond
//! [`apply_binop`], the one definition of the total operator semantics.

use druzhba_core::value::{self, Value};
use druzhba_core::Phv;

use crate::ast::{BinOp, DominoExpr, DominoProgram, DominoStmt, UnOp};

/// A Domino program resolved against a container layout, ready to run
/// packets. The persistent state lives with the caller (see
/// [`Interpreter::step`]); [`Interpreter::initial_state`] is its reset
/// value.
#[derive(Debug, Clone)]
pub struct Interpreter {
    body: Vec<Stmt>,
    init: Vec<Value>,
}

/// A statement with every name resolved.
#[derive(Debug, Clone)]
enum Stmt {
    /// Write an output container.
    Output { container: usize, value: Expr },
    /// Write a state slot.
    State { slot: usize, value: Expr },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
}

/// An expression with every name resolved.
#[derive(Debug, Clone)]
enum Expr {
    Const(Value),
    /// Read an input container.
    Input(usize),
    /// Read a state slot.
    State(usize),
    Binary {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Unary {
        op: UnOp,
        x: Box<Expr>,
    },
}

impl Interpreter {
    /// Resolve `program` against a container layout: `input_container`
    /// maps a field the program reads to the input container holding it,
    /// `output_container` a field it writes to the output container that
    /// receives it. A read of a field with no input container evaluates to
    /// 0 (a zeroed PHV container); a write of a field with no output
    /// container is dropped.
    pub fn new(
        program: &DominoProgram,
        input_container: impl Fn(&str) -> Option<usize>,
        output_container: impl Fn(&str) -> Option<usize>,
    ) -> Self {
        let resolver = Resolver {
            program,
            input_container: &input_container,
            output_container: &output_container,
        };
        Interpreter {
            body: resolver.stmts(&program.body),
            init: program.state_vars.iter().map(|d| d.init).collect(),
        }
    }

    /// The declared initial state values, in declaration order.
    pub fn initial_state(&self) -> &[Value] {
        &self.init
    }

    /// Run the transaction once: read fields from `input`, write the
    /// fields the taken path assigns into `out`, and update `state` (in
    /// declaration order, [`Interpreter::initial_state`]'s length) in
    /// place. Containers the path does not write keep their value, so a
    /// caller that wants unwritten outputs to read 0 zeroes `out` first.
    /// This is [`Interpreter::step_lanes`] at width 1.
    ///
    /// # Panics
    /// Panics if a resolved container is out of range for `input` or
    /// `out`, or `state` is shorter than the declared state.
    pub fn step(&self, input: &Phv, out: &mut Phv, state: &mut [Value]) {
        self.step_lanes::<1>(input.containers(), out.containers_mut(), state, 1);
    }

    /// Run the transaction on lanes `0..active` of `L` lanes at once, each
    /// lane its own packet and its own state. Every operand is a column:
    /// container `c` of lane `l` is `input[c * L + l]` (and
    /// `out[c * L + l]`), state slot `s` of lane `l` is
    /// `state[s * L + l]`. Each active lane ends exactly as [`step`] on
    /// its own column values would leave it; lanes `active..L` are not
    /// written at all.
    ///
    /// # Panics
    /// Panics if a resolved container's column is out of range for
    /// `input` or `out`, or a declared slot's column for `state`.
    ///
    /// [`step`]: Interpreter::step
    pub fn step_lanes<const L: usize>(
        &self,
        input: &[Value],
        out: &mut [Value],
        state: &mut [Value],
        active: usize,
    ) {
        let mut mask = [0; L];
        mask.iter_mut().take(active).for_each(|m| *m = !0);
        let mut lanes = Lanes { input, out, state };
        lanes.exec(&self.body, &mask);
    }
}

struct Resolver<'a> {
    program: &'a DominoProgram,
    input_container: &'a dyn Fn(&str) -> Option<usize>,
    output_container: &'a dyn Fn(&str) -> Option<usize>,
}

impl Resolver<'_> {
    fn stmts(&self, stmts: &[DominoStmt]) -> Vec<Stmt> {
        stmts
            .iter()
            .filter_map(|stmt| match stmt {
                DominoStmt::AssignField { field, value } => {
                    (self.output_container)(field).map(|container| Stmt::Output {
                        container,
                        value: self.expr(value),
                    })
                }
                DominoStmt::AssignState { var, value } => Some(Stmt::State {
                    slot: self.slot(var),
                    value: self.expr(value),
                }),
                DominoStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Some(Stmt::If {
                    cond: self.expr(cond),
                    then_body: self.stmts(then_body),
                    else_body: self.stmts(else_body),
                }),
            })
            .collect()
    }

    fn expr(&self, expr: &DominoExpr) -> Expr {
        match expr {
            DominoExpr::Const(v) => Expr::Const(*v),
            DominoExpr::Field(name) => match (self.input_container)(name) {
                Some(container) => Expr::Input(container),
                None => Expr::Const(0),
            },
            DominoExpr::State(name) => Expr::State(self.slot(name)),
            DominoExpr::Binary { op, l, r } => Expr::Binary {
                op: *op,
                l: Box::new(self.expr(l)),
                r: Box::new(self.expr(r)),
            },
            DominoExpr::Unary { op, x } => Expr::Unary {
                op: *op,
                x: Box::new(self.expr(x)),
            },
        }
    }

    fn slot(&self, var: &str) -> usize {
        self.program
            .state_index(var)
            .expect("validated programs declare every state variable they use")
    }
}

/// A lane mask: all ones for a lane the statement runs on, 0 otherwise.
type Mask<const L: usize> = [Value; L];

/// The columns one [`Interpreter::step_lanes`] call reads and writes.
struct Lanes<'a, const L: usize> {
    input: &'a [Value],
    out: &'a mut [Value],
    state: &'a mut [Value],
}

impl<const L: usize> Lanes<'_, L> {
    fn exec(&mut self, stmts: &[Stmt], mask: &Mask<L>) {
        for stmt in stmts {
            match stmt {
                Stmt::Output { container, value } => {
                    let v = self.eval(value);
                    store(&mut self.out[container * L..][..L], &v, mask);
                }
                Stmt::State { slot, value } => {
                    let v = self.eval(value);
                    store(&mut self.state[slot * L..][..L], &v, mask);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let cond = self.eval(cond);
                    let taken: Mask<L> = std::array::from_fn(|i| {
                        Value::from(value::truthy(cond[i])).wrapping_neg() & mask[i]
                    });
                    let not_taken: Mask<L> = std::array::from_fn(|i| !taken[i] & mask[i]);
                    if taken.iter().any(|&m| m != 0) {
                        self.exec(then_body, &taken);
                    }
                    if not_taken.iter().any(|&m| m != 0) {
                        self.exec(else_body, &not_taken);
                    }
                }
            }
        }
    }

    fn eval(&self, expr: &Expr) -> [Value; L] {
        match expr {
            Expr::Const(v) => [*v; L],
            Expr::Input(container) => column(&self.input[container * L..]),
            Expr::State(slot) => column(&self.state[slot * L..]),
            Expr::Binary { op, l, r } => binop_lanes(*op, &self.eval(l), &self.eval(r)),
            Expr::Unary { op, x } => {
                let x = self.eval(x);
                match op {
                    UnOp::Neg => x.map(value::wneg),
                    UnOp::Not => x.map(|x| value::from_bool(!value::truthy(x))),
                }
            }
        }
    }
}

/// The first `L` values of `from`.
fn column<const L: usize>(from: &[Value]) -> [Value; L] {
    let mut v = [0; L];
    v.copy_from_slice(&from[..L]);
    v
}

/// Write `v` into the lanes of `dst` that `mask` selects.
fn store<const L: usize>(dst: &mut [Value], v: &[Value; L], mask: &Mask<L>) {
    for ((d, &v), &m) in dst.iter_mut().zip(v).zip(mask) {
        *d = (v & m) | (*d & !m);
    }
}

/// [`apply_binop`] lane by lane, with the operator fixed per loop so each
/// loop compiles to that one operation.
fn binop_lanes<const L: usize>(op: BinOp, a: &[Value; L], b: &[Value; L]) -> [Value; L] {
    macro_rules! per_op {
        ($($op:ident),*) => {
            match op {
                $(BinOp::$op => std::array::from_fn(|i| apply_binop(BinOp::$op, a[i], b[i])),)*
            }
        };
    }
    per_op!(Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Gt, Le, Ge, And, Or)
}

/// The shared total-semantics binary operators (identical to the ALU DSL's).
#[inline]
pub fn apply_binop(op: BinOp, a: Value, b: Value) -> Value {
    match op {
        BinOp::Add => value::wadd(a, b),
        BinOp::Sub => value::wsub(a, b),
        BinOp::Mul => value::wmul(a, b),
        BinOp::Div => value::wdiv(a, b),
        BinOp::Mod => value::wmod(a, b),
        BinOp::Eq => value::from_bool(a == b),
        BinOp::Ne => value::from_bool(a != b),
        BinOp::Lt => value::from_bool(a < b),
        BinOp::Gt => value::from_bool(a > b),
        BinOp::Le => value::from_bool(a <= b),
        BinOp::Ge => value::from_bool(a >= b),
        BinOp::And => value::from_bool(value::truthy(a) && value::truthy(b)),
        BinOp::Or => value::from_bool(value::truthy(a) || value::truthy(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    /// A program resolved against a test layout: input fields in
    /// container order, output fields in container order, one PHV of
    /// `max(inputs, outputs)` containers on each side.
    struct Harness {
        interp: Interpreter,
        state: Vec<Value>,
        inputs: Vec<&'static str>,
        outputs: Vec<&'static str>,
        len: usize,
    }

    impl Harness {
        fn new(src: &str, inputs: &[&'static str], outputs: &[&'static str]) -> Self {
            let program = parse_program(src).unwrap();
            let position = |fields: &[&str], name: &str| fields.iter().position(|f| *f == name);
            let interp =
                Interpreter::new(&program, |f| position(inputs, f), |f| position(outputs, f));
            Harness {
                state: interp.initial_state().to_vec(),
                interp,
                inputs: inputs.to_vec(),
                outputs: outputs.to_vec(),
                len: inputs.len().max(outputs.len()),
            }
        }

        /// One packet; returns every output field with its value.
        fn step(&mut self, fields: &[(&str, Value)]) -> Vec<(&'static str, Value)> {
            let mut input = Phv::zeroed(self.len);
            for &(name, v) in fields {
                let c = self.inputs.iter().position(|f| *f == name).unwrap();
                input.set(c, v);
            }
            let mut out = Phv::zeroed(self.len);
            self.interp.step(&input, &mut out, &mut self.state);
            self.outputs
                .iter()
                .enumerate()
                .map(|(c, &f)| (f, out.get(c)))
                .collect()
        }

        fn out(&mut self, fields: &[(&str, Value)], field: &str) -> Value {
            let written = self.step(fields);
            written.iter().find(|(f, _)| *f == field).unwrap().1
        }
    }

    #[test]
    fn sampling_program_counts_to_ten() {
        let mut h = Harness::new(
            "state int count = 0;\n\
             if (count == 9) {\n\
                 count = 0;\n\
                 pkt.sample = 1;\n\
             } else {\n\
                 count = count + 1;\n\
                 pkt.sample = 0;\n\
             }",
            &[],
            &["sample"],
        );
        let mut samples = 0;
        for _ in 0..30 {
            samples += h.out(&[], "sample");
        }
        assert_eq!(samples, 3, "every 10th packet is sampled");
        assert_eq!(h.state, [0]);
    }

    #[test]
    fn state_persists_across_steps() {
        let mut h = Harness::new("state int sum = 0;\nsum = sum + pkt.x;", &["x"], &[]);
        h.step(&[("x", 5)]);
        h.step(&[("x", 7)]);
        assert_eq!(h.state, [12]);
        assert_eq!(h.interp.initial_state(), &[0]);
    }

    #[test]
    fn nonzero_initial_state_honoured() {
        let mut h = Harness::new(
            "state int s = 100;\ns = s - pkt.x;\npkt.o = 1;",
            &["x"],
            &["o"],
        );
        assert_eq!(h.interp.initial_state(), &[100]);
        h.step(&[("x", 30)]);
        assert_eq!(h.state, [70]);
    }

    #[test]
    fn sequential_statements_see_updates() {
        let mut h = Harness::new(
            "state int s = 0;\n\
             s = s + 1;\n\
             s = s * 2;\n\
             pkt.o = 5;",
            &[],
            &["o"],
        );
        h.step(&[]);
        assert_eq!(h.state, [2]);
        h.step(&[]);
        assert_eq!(h.state, [6]);
    }

    #[test]
    fn missing_fields_read_as_zero() {
        let mut h = Harness::new("pkt.o = pkt.ghost + 1;", &[], &["o"]);
        assert_eq!(h.out(&[], "o"), 1);
    }

    #[test]
    fn writes_without_an_output_container_are_dropped() {
        let mut h = Harness::new(
            "state int s = 0;\npkt.hidden = 7;\ns = s + 1;\npkt.o = 2;",
            &[],
            &["o"],
        );
        assert_eq!(h.step(&[]), [("o", 2)]);
        assert_eq!(h.state, [1], "dropping a write leaves the rest of the body");
    }

    #[test]
    fn wrapping_semantics_match_core() {
        let mut h = Harness::new(
            "pkt.o = pkt.a - pkt.b;\npkt.d = pkt.a / pkt.b;",
            &["a", "b"],
            &["o", "d"],
        );
        assert_eq!(h.out(&[("a", 0), ("b", 1)], "o"), u32::MAX);
        assert_eq!(
            h.out(&[("a", 0), ("b", 1)], "d"),
            0,
            "division by b=1 is 0/1"
        );
        assert_eq!(
            h.out(&[("a", 5), ("b", 0)], "d"),
            0,
            "division by zero is total"
        );
    }

    #[test]
    fn branch_conditions_on_fields() {
        let mut h = Harness::new(
            "state int hits = 0;\n\
             if (pkt.port == 80 || pkt.port == 443) { hits = hits + 1; }",
            &["port"],
            &[],
        );
        h.step(&[("port", 80)]);
        h.step(&[("port", 22)]);
        h.step(&[("port", 443)]);
        assert_eq!(h.state, [2]);
    }
}
