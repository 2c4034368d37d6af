//! Compiler intermediate representations.
//!
//! Three expression languages, in lowering order:
//!
//! 1. [`SExpr`] — *symbolic* values produced by symbolically executing the
//!    Domino transaction: every state variable's final value and every
//!    written field as an expression over the input packet fields and the
//!    *initial* state values, with explicit [`SExpr::Ite`] nodes at control
//!    joins.
//! 2. [`TExpr`] — *atom target* expressions: guards and updates of one
//!    stateful atom, over the atom's operands ([`TExpr::Op`]) and its own
//!    state variables ([`TExpr::StateRef`]). These drive hole synthesis.
//! 3. [`PExpr`] — *pure* (state-free) expressions computed by the stateless
//!    DAG: over packet fields, atom outputs (the pre-update first state
//!    variable of another atom), and constants.

use std::collections::HashMap;

use druzhba_core::value::{self, Value};
use druzhba_core::{Error, Result};
use druzhba_domino::ast::{BinOp, DominoExpr, DominoProgram, DominoStmt, UnOp};
use druzhba_domino::interp::apply_binop;

/// Symbolic value over input fields and initial state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SExpr {
    Const(Value),
    /// Input packet field.
    Field(String),
    /// Initial (pre-transaction) value of program state variable `i`.
    InitState(usize),
    Bin(BinOp, Box<SExpr>, Box<SExpr>),
    Un(UnOp, Box<SExpr>),
    /// Control join: `cond ? then : else`.
    Ite(Box<SExpr>, Box<SExpr>, Box<SExpr>),
}

impl SExpr {
    /// Pre-order visit.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SExpr)) {
        f(self);
        match self {
            SExpr::Const(_) | SExpr::Field(_) | SExpr::InitState(_) => {}
            SExpr::Bin(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            SExpr::Un(_, x) => x.visit(f),
            SExpr::Ite(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }

    /// State variables referenced (initial values).
    pub fn state_refs(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let SExpr::InitState(i) = e {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
        });
        out
    }

    /// True if no state variable is referenced.
    pub fn is_state_free(&self) -> bool {
        self.state_refs().is_empty()
    }
}

/// The result of symbolically executing a transaction.
#[derive(Debug, Clone)]
pub struct SymbolicTransaction {
    /// Final value of each state variable, indexed like
    /// `program.state_vars`.
    pub state_final: Vec<SExpr>,
    /// Final value of each written packet field.
    pub field_writes: Vec<(String, SExpr)>,
}

/// Symbolically execute a validated Domino program.
///
/// Fails if a packet field is written on some control paths but not others
/// (the pipeline's output container would then carry an undefined value on
/// the unwritten paths).
pub fn symbolic_execute(program: &DominoProgram) -> Result<SymbolicTransaction> {
    let mut state: Vec<SExpr> = (0..program.state_vars.len())
        .map(SExpr::InitState)
        .collect();
    let mut fields: HashMap<String, SExpr> = HashMap::new();
    exec(program, &program.body, &mut state, &mut fields, None)?;
    let mut field_writes: Vec<(String, SExpr)> = fields.into_iter().collect();
    field_writes.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(SymbolicTransaction {
        state_final: state,
        field_writes,
    })
}

fn exec(
    program: &DominoProgram,
    stmts: &[DominoStmt],
    state: &mut [SExpr],
    fields: &mut HashMap<String, SExpr>,
    path: Option<&SExpr>,
) -> Result<()> {
    let _ = path;
    for stmt in stmts {
        match stmt {
            DominoStmt::AssignState { var, value } => {
                let idx = program.state_index(var).expect("validated");
                let v = sym_eval(program, value, state, fields);
                state[idx] = v;
            }
            DominoStmt::AssignField { field, value } => {
                let v = sym_eval(program, value, state, fields);
                fields.insert(field.clone(), v);
            }
            DominoStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = sym_eval(program, cond, state, fields);
                let mut t_state = state.to_vec();
                let mut t_fields = fields.clone();
                exec(program, then_body, &mut t_state, &mut t_fields, Some(&c))?;
                let mut e_state = state.to_vec();
                let mut e_fields = fields.clone();
                exec(program, else_body, &mut e_state, &mut e_fields, Some(&c))?;
                // Merge state.
                for i in 0..state.len() {
                    state[i] = if t_state[i] == e_state[i] {
                        t_state[i].clone()
                    } else {
                        simplify_ite(c.clone(), t_state[i].clone(), e_state[i].clone())
                    };
                }
                // Merge fields: a field written on one path only is an
                // error (its container would be undefined on the other).
                let mut merged = HashMap::new();
                for key in t_fields.keys().chain(e_fields.keys()) {
                    if merged.contains_key(key) {
                        continue;
                    }
                    match (t_fields.get(key), e_fields.get(key)) {
                        (Some(t), Some(e)) => {
                            let v = if t == e {
                                t.clone()
                            } else {
                                simplify_ite(c.clone(), t.clone(), e.clone())
                            };
                            merged.insert(key.clone(), v);
                        }
                        _ => {
                            return Err(Error::DoesNotFit {
                                message: format!(
                                    "packet field `{key}` is written on some control paths \
                                     but not others"
                                ),
                            });
                        }
                    }
                }
                *fields = merged;
            }
        }
    }
    Ok(())
}

fn sym_eval(
    program: &DominoProgram,
    expr: &DominoExpr,
    state: &[SExpr],
    fields: &HashMap<String, SExpr>,
) -> SExpr {
    match expr {
        DominoExpr::Const(v) => SExpr::Const(*v),
        DominoExpr::Field(name) => fields
            .get(name)
            .cloned()
            .unwrap_or_else(|| SExpr::Field(name.clone())),
        DominoExpr::State(name) => state[program.state_index(name).expect("validated")].clone(),
        DominoExpr::Binary { op, l, r } => fold_bin(
            *op,
            sym_eval(program, l, state, fields),
            sym_eval(program, r, state, fields),
        ),
        DominoExpr::Unary { op, x } => {
            let x = sym_eval(program, x, state, fields);
            if let SExpr::Const(v) = x {
                SExpr::Const(match op {
                    UnOp::Neg => value::wneg(v),
                    UnOp::Not => value::from_bool(!value::truthy(v)),
                })
            } else {
                SExpr::Un(*op, Box::new(x))
            }
        }
    }
}

fn fold_bin(op: BinOp, l: SExpr, r: SExpr) -> SExpr {
    if let (SExpr::Const(a), SExpr::Const(b)) = (&l, &r) {
        return SExpr::Const(apply_binop(op, *a, *b));
    }
    SExpr::Bin(op, Box::new(l), Box::new(r))
}

/// Build an Ite with the simplifications that keep lowering tractable:
/// `Ite(c, x, x)` → `x`, `Ite(c, 1, 0)` → `c` (when `c` is boolean-valued),
/// `Ite(c, 0, 1)` → `!c`.
pub fn simplify_ite(c: SExpr, t: SExpr, e: SExpr) -> SExpr {
    if t == e {
        return t;
    }
    let c_is_boolean = matches!(&c, SExpr::Bin(op, _, _) if op.is_boolean())
        || matches!(&c, SExpr::Un(UnOp::Not, _));
    if c_is_boolean {
        if t == SExpr::Const(1) && e == SExpr::Const(0) {
            return c;
        }
        if t == SExpr::Const(0) && e == SExpr::Const(1) {
            return SExpr::Un(UnOp::Not, Box::new(c));
        }
    }
    SExpr::Ite(Box::new(c), Box::new(t), Box::new(e))
}

/// Lift every [`SExpr::Ite`] to the top of the expression, producing a
/// decision tree whose leaves are Ite-free. `Bin(op, Ite(c,a,b), r)`
/// becomes `Ite(c, Bin(op,a,r), Bin(op,b,r))`; worst case is exponential in
/// nesting depth, which is fine at packet-transaction sizes.
pub fn ite_lift(e: &SExpr) -> SExpr {
    match e {
        SExpr::Const(_) | SExpr::Field(_) | SExpr::InitState(_) => e.clone(),
        SExpr::Un(op, x) => match ite_lift(x) {
            SExpr::Ite(c, t, el) => SExpr::Ite(
                c,
                Box::new(ite_lift(&SExpr::Un(*op, t))),
                Box::new(ite_lift(&SExpr::Un(*op, el))),
            ),
            x => SExpr::Un(*op, Box::new(x)),
        },
        SExpr::Bin(op, l, r) => {
            let l = ite_lift(l);
            if let SExpr::Ite(c, t, el) = l {
                return SExpr::Ite(
                    c,
                    Box::new(ite_lift(&SExpr::Bin(*op, t, r.clone()))),
                    Box::new(ite_lift(&SExpr::Bin(*op, el, r.clone()))),
                );
            }
            let r = ite_lift(r);
            if let SExpr::Ite(c, t, el) = r {
                let l = Box::new(l);
                return SExpr::Ite(
                    c,
                    Box::new(ite_lift(&SExpr::Bin(*op, l.clone(), t))),
                    Box::new(ite_lift(&SExpr::Bin(*op, l, el))),
                );
            }
            SExpr::Bin(*op, Box::new(l), Box::new(r))
        }
        SExpr::Ite(c, t, e2) => {
            let c = ite_lift(c);
            // A conditional condition is beyond what atoms express.
            SExpr::Ite(Box::new(c), Box::new(ite_lift(t)), Box::new(ite_lift(e2)))
        }
    }
}

// ----------------------------------------------------------------------
// Atom-target expressions.
// ----------------------------------------------------------------------

/// Expression over an atom's operands and its own state variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TExpr {
    Const(Value),
    /// Operand `k` (the value behind input mux `k`).
    Op(usize),
    /// The atom's state variable `k` (pre-update).
    StateRef(usize),
    Bin(BinOp, Box<TExpr>, Box<TExpr>),
    Un(UnOp, Box<TExpr>),
}

impl TExpr {
    /// Evaluate against concrete operands and state.
    pub fn eval(&self, ops: &[Value], state: &[Value]) -> Value {
        match self {
            TExpr::Const(v) => *v,
            TExpr::Op(k) => ops.get(*k).copied().unwrap_or(0),
            TExpr::StateRef(k) => state.get(*k).copied().unwrap_or(0),
            TExpr::Bin(op, l, r) => apply_binop(*op, l.eval(ops, state), r.eval(ops, state)),
            TExpr::Un(op, x) => {
                let x = x.eval(ops, state);
                match op {
                    UnOp::Neg => value::wneg(x),
                    UnOp::Not => value::from_bool(!value::truthy(x)),
                }
            }
        }
    }

    /// All constants appearing in the expression.
    pub fn constants(&self) -> Vec<Value> {
        match self {
            TExpr::Const(v) => vec![*v],
            TExpr::Op(_) | TExpr::StateRef(_) => vec![],
            TExpr::Bin(_, l, r) => {
                let mut out = l.constants();
                out.extend(r.constants());
                out
            }
            TExpr::Un(_, x) => x.constants(),
        }
    }
}

/// The guarded-update tree one stateful atom must implement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetTree {
    /// Unconditional updates; `None` leaves the state variable unchanged.
    Leaf { updates: Vec<Option<TExpr>> },
    /// Branch on a guard.
    Branch {
        guard: TExpr,
        then_tree: Box<TargetTree>,
        else_tree: Box<TargetTree>,
    },
}

impl TargetTree {
    /// Evaluate: new state values given operands and old state.
    pub fn eval(&self, ops: &[Value], state: &[Value]) -> Vec<Value> {
        match self {
            TargetTree::Leaf { updates } => updates
                .iter()
                .enumerate()
                .map(|(k, u)| match u {
                    Some(e) => e.eval(ops, state),
                    None => state.get(k).copied().unwrap_or(0),
                })
                .collect(),
            TargetTree::Branch {
                guard,
                then_tree,
                else_tree,
            } => {
                if value::truthy(guard.eval(ops, state)) {
                    then_tree.eval(ops, state)
                } else {
                    else_tree.eval(ops, state)
                }
            }
        }
    }

    /// Number of state variables updated by the tree's leaves.
    pub fn state_width(&self) -> usize {
        match self {
            TargetTree::Leaf { updates } => updates.len(),
            TargetTree::Branch { then_tree, .. } => then_tree.state_width(),
        }
    }

    /// All constants appearing in guards and updates.
    pub fn constants(&self) -> Vec<Value> {
        match self {
            TargetTree::Leaf { updates } => updates
                .iter()
                .flatten()
                .flat_map(|e| e.constants())
                .collect(),
            TargetTree::Branch {
                guard,
                then_tree,
                else_tree,
            } => {
                let mut out = guard.constants();
                out.extend(then_tree.constants());
                out.extend(else_tree.constants());
                out
            }
        }
    }
}

// ----------------------------------------------------------------------
// Pure (stateless) expressions.
// ----------------------------------------------------------------------

/// State-free expression computed by the stateless DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PExpr {
    Const(Value),
    /// Input packet field (lives in a fixed container from stage 0).
    Field(String),
    /// Pre-update first-state-variable output of atom `g`.
    AtomOutput(usize),
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    Un(UnOp, Box<PExpr>),
    /// Conditional (lowered arithmetically by the DAG builder).
    Ite(Box<PExpr>, Box<PExpr>, Box<PExpr>),
}

impl PExpr {
    /// Pre-order visit.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PExpr)) {
        f(self);
        match self {
            PExpr::Const(_) | PExpr::Field(_) | PExpr::AtomOutput(_) => {}
            PExpr::Bin(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            PExpr::Un(_, x) => x.visit(f),
            PExpr::Ite(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_domino::parse_program;

    #[test]
    fn symbolic_execution_of_sampling() {
        let p = parse_program(
            "state int count = 0;\n\
             if (count == 9) { count = 0; pkt.sample = 1; }\n\
             else { count = count + 1; pkt.sample = 0; }",
        )
        .unwrap();
        let sym = symbolic_execute(&p).unwrap();
        // count = Ite(count0 == 9, 0, count0 + 1)
        match &sym.state_final[0] {
            SExpr::Ite(c, t, e) => {
                assert_eq!(
                    **c,
                    SExpr::Bin(
                        BinOp::Eq,
                        Box::new(SExpr::InitState(0)),
                        Box::new(SExpr::Const(9))
                    )
                );
                assert_eq!(**t, SExpr::Const(0));
                assert!(matches!(**e, SExpr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // sample simplifies from Ite(c,1,0) to c itself.
        assert_eq!(sym.field_writes.len(), 1);
        assert_eq!(sym.field_writes[0].0, "sample");
        assert!(matches!(sym.field_writes[0].1, SExpr::Bin(BinOp::Eq, _, _)));
    }

    #[test]
    fn sequential_state_updates_compose() {
        let p = parse_program("state int s = 0;\ns = s + 1;\ns = s * 2;\npkt.o = 1;").unwrap();
        let sym = symbolic_execute(&p).unwrap();
        // (s0 + 1) * 2
        assert_eq!(
            sym.state_final[0],
            SExpr::Bin(
                BinOp::Mul,
                Box::new(SExpr::Bin(
                    BinOp::Add,
                    Box::new(SExpr::InitState(0)),
                    Box::new(SExpr::Const(1))
                )),
                Box::new(SExpr::Const(2))
            )
        );
    }

    #[test]
    fn partial_field_write_rejected() {
        let p = parse_program(
            "state int s = 0;\n\
             if (s == 0) { pkt.flag = 1; }\ns = 1;",
        )
        .unwrap();
        let err = symbolic_execute(&p).unwrap_err();
        assert!(err.to_string().contains("some control paths"));
    }

    #[test]
    fn field_read_after_write_sees_written_value() {
        // Reads of pkt fields the program wrote are rejected by the
        // validator; here we check reads of *unwritten* fields stay input
        // refs.
        let p = parse_program("pkt.o = pkt.a + pkt.b;").unwrap();
        let sym = symbolic_execute(&p).unwrap();
        assert_eq!(
            sym.field_writes[0].1,
            SExpr::Bin(
                BinOp::Add,
                Box::new(SExpr::Field("a".into())),
                Box::new(SExpr::Field("b".into()))
            )
        );
    }

    #[test]
    fn ite_lift_pulls_conditionals_up() {
        // Ite(c, a, b) + 1 -> Ite(c, a+1, b+1)
        let c = SExpr::Bin(
            BinOp::Eq,
            Box::new(SExpr::InitState(0)),
            Box::new(SExpr::Const(3)),
        );
        let e = SExpr::Bin(
            BinOp::Add,
            Box::new(SExpr::Ite(
                Box::new(c.clone()),
                Box::new(SExpr::Field("a".into())),
                Box::new(SExpr::Field("b".into())),
            )),
            Box::new(SExpr::Const(1)),
        );
        match ite_lift(&e) {
            SExpr::Ite(cc, t, el) => {
                assert_eq!(*cc, c);
                assert!(matches!(*t, SExpr::Bin(BinOp::Add, _, _)));
                assert!(matches!(*el, SExpr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simplify_ite_boolean_shortcuts() {
        let c = SExpr::Bin(
            BinOp::Ge,
            Box::new(SExpr::Field("x".into())),
            Box::new(SExpr::Const(5)),
        );
        assert_eq!(simplify_ite(c.clone(), SExpr::Const(1), SExpr::Const(0)), c);
        assert_eq!(
            simplify_ite(c.clone(), SExpr::Const(0), SExpr::Const(1)),
            SExpr::Un(UnOp::Not, Box::new(c.clone()))
        );
        assert_eq!(
            simplify_ite(c, SExpr::Const(7), SExpr::Const(7)),
            SExpr::Const(7)
        );
    }

    #[test]
    fn texpr_eval() {
        // (op0 + state1) >= 10
        let e = TExpr::Bin(
            BinOp::Ge,
            Box::new(TExpr::Bin(
                BinOp::Add,
                Box::new(TExpr::Op(0)),
                Box::new(TExpr::StateRef(1)),
            )),
            Box::new(TExpr::Const(10)),
        );
        assert_eq!(e.eval(&[4], &[0, 7]), 1);
        assert_eq!(e.eval(&[2], &[0, 7]), 0);
        assert_eq!(e.constants(), vec![10]);
    }

    #[test]
    fn target_tree_eval_branches() {
        // if (state0 >= 10) { state0 = 0 } else { state0 += op0 }
        let tree = TargetTree::Branch {
            guard: TExpr::Bin(
                BinOp::Ge,
                Box::new(TExpr::StateRef(0)),
                Box::new(TExpr::Const(10)),
            ),
            then_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Const(0))],
            }),
            else_tree: Box::new(TargetTree::Leaf {
                updates: vec![Some(TExpr::Bin(
                    BinOp::Add,
                    Box::new(TExpr::StateRef(0)),
                    Box::new(TExpr::Op(0)),
                ))],
            }),
        };
        assert_eq!(tree.eval(&[3], &[5]), vec![8]);
        assert_eq!(tree.eval(&[3], &[12]), vec![0]);
        assert_eq!(tree.state_width(), 1);
        assert_eq!(tree.constants(), vec![10, 0]);
    }

    #[test]
    fn leaf_none_keeps_state() {
        let tree = TargetTree::Leaf {
            updates: vec![None, Some(TExpr::Const(4))],
        };
        assert_eq!(tree.eval(&[], &[9, 1]), vec![9, 4]);
    }
}
