//! Hash-consed bit-vector terms over the machine value domain.
//!
//! A [`TermStore`] interns every distinct term node exactly once, so
//! structural equality of two symbolic values is a single [`TermId`]
//! comparison. Construction goes through *smart constructors* that apply
//! the canonicalizing rewrite rules in [`crate::rewrite`] bottom-up:
//! a term is simplified the moment it is built, and an already-canonical
//! term can never be rebuilt into a different shape (the rewrite system
//! is idempotent by construction — `tests/proptests.rs` pins this).
//!
//! Every node also carries the [`AbsVal`] reduced product computed from
//! its children's abstractions via the `domain.rs` transfer functions.
//! That gives the rewrite engine known-bits-assisted simplification for
//! free: any node whose abstraction is a singleton collapses to a
//! constant, and branch conditions whose truth the product decides are
//! pruned instead of forked by the symbolic executors.

use std::collections::HashMap;

use druzhba_alu_dsl::ast::{BinOp, UnOp};
use druzhba_core::value::Value;

use crate::domain::{AbsVal, Tri};
use crate::rewrite;

/// Index of an interned term inside its [`TermStore`].
pub type TermId = u32;

/// A symbolic input: the free variables of the term language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// PHV container `c` (Domino) or layout container `c` (P4) at
    /// pipeline entry.
    Phv(u32),
    /// Stateful-ALU state variable `var` of `slot` in `stage` at
    /// pipeline entry.
    State { stage: u32, slot: u32, var: u32 },
    /// One flat register cell (P4 `StateLayout` flattening) at entry.
    RegCell(u32),
}

/// One interned term node. Children are [`TermId`]s into the same store,
/// so the whole structure is a DAG with maximal sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A machine constant.
    Const(Value),
    /// A free symbolic input.
    Sym(Sym),
    /// An ALU-DSL binary operator with the total wrapping semantics of
    /// `druzhba_core::value` (`x/0 == x%0 == 0`, comparisons yield 0/1,
    /// `&&`/`||` are non-short-circuit truthiness tests).
    Bin(BinOp, TermId, TermId),
    /// An ALU-DSL unary operator (wrapping negation, truthiness not).
    Un(UnOp, TermId),
    /// Bitwise AND — not expressible in the ALU DSL, needed for the
    /// lowered P4 ternary-match conditions (`field & mask == value`).
    BitAnd(TermId, TermId),
    /// Logical right shift by a constant in `0..32` — needed for the
    /// lowered P4 LPM-match conditions (`field >> shift == prefix`).
    Shr(TermId, u32),
    /// If-then-else on the truthiness of the condition. This is the
    /// merge operator the symbolic executors use to fold forked paths
    /// back into a single value.
    Ite(TermId, TermId, TermId),
}

/// The hash-consing arena. All terms of one validation problem live in
/// one store, so terms produced by *different* executors (source AST
/// walk, bytecode, fused frame, `MatInstr`) are comparable by id.
#[derive(Debug, Default)]
pub struct TermStore {
    nodes: Vec<Node>,
    abs: Vec<AbsVal>,
    interned: HashMap<Node, TermId>,
}

impl TermStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned nodes (monotone; useful as a growth budget).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The structure of `t`.
    pub fn node(&self, t: TermId) -> Node {
        self.nodes[t as usize]
    }

    /// The abstract value of `t` under the symbols' declared input
    /// abstractions.
    pub fn abs(&self, t: TermId) -> AbsVal {
        self.abs[t as usize]
    }

    /// Three-valued truthiness of `t` from its abstraction.
    pub fn truth(&self, t: TermId) -> Tri {
        self.abs(t).truth()
    }

    /// `Some(v)` iff `t` is the constant `v`.
    pub fn as_const(&self, t: TermId) -> Option<Value> {
        match self.node(t) {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    /// A term is *boolean* when its abstraction proves it only takes
    /// values in `{0, 1}` — comparison and logic operators, their Ite
    /// combinations, and 0/1 constants all qualify.
    pub fn is_boolean(&self, t: TermId) -> bool {
        self.abs(t).iv.hi <= 1
    }

    /// Intern `node` with abstraction `abs`, collapsing to a constant
    /// when the abstraction is a singleton (known-bits-assisted
    /// simplification).
    pub(crate) fn intern(&mut self, node: Node, abs: AbsVal) -> TermId {
        if !matches!(node, Node::Const(_)) {
            if let Some(v) = abs.as_const() {
                return self.konst(v);
            }
        }
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = TermId::try_from(self.nodes.len()).expect("term store overflow");
        self.nodes.push(node);
        self.abs.push(abs);
        self.interned.insert(node, id);
        id
    }

    /// Constant term.
    pub fn konst(&mut self, v: Value) -> TermId {
        if let Some(&id) = self.interned.get(&Node::Const(v)) {
            return id;
        }
        let id = TermId::try_from(self.nodes.len()).expect("term store overflow");
        self.nodes.push(Node::Const(v));
        self.abs.push(AbsVal::constant(v));
        self.interned.insert(Node::Const(v), id);
        id
    }

    /// Free symbol with its declared input abstraction. A symbol whose
    /// abstraction is a singleton (e.g. P4 metadata, always zero on
    /// ingress) folds directly to that constant. Re-interning the same
    /// symbol keeps the abstraction of the first intern.
    pub fn sym(&mut self, s: Sym, abs: AbsVal) -> TermId {
        self.intern(Node::Sym(s), abs)
    }

    /// Canonicalizing binary operator (see [`crate::rewrite`]).
    pub fn bin(&mut self, op: BinOp, l: TermId, r: TermId) -> TermId {
        rewrite::bin(self, op, l, r)
    }

    /// Canonicalizing unary operator.
    pub fn un(&mut self, op: UnOp, x: TermId) -> TermId {
        rewrite::un(self, op, x)
    }

    /// Canonicalizing bitwise AND.
    pub fn bit_and(&mut self, l: TermId, r: TermId) -> TermId {
        rewrite::bit_and(self, l, r)
    }

    /// Canonicalizing right shift by a constant.
    pub fn shr(&mut self, x: TermId, shift: u32) -> TermId {
        rewrite::shr(self, x, shift)
    }

    /// Canonicalizing if-then-else on the truthiness of `c`.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        rewrite::ite(self, c, t, e)
    }

    /// Coerce `t` to a 0/1 boolean value: identity on boolean terms,
    /// `t != 0` otherwise.
    pub fn boolify(&mut self, t: TermId) -> TermId {
        if self.is_boolean(t) {
            t
        } else {
            let zero = self.konst(0);
            self.bin(BinOp::Ne, t, zero)
        }
    }

    /// Concretely evaluate `t` under a valuation of its free symbols,
    /// memoized over the DAG. This is the executable semantics the
    /// `proptests.rs` soundness property pins against the four backend
    /// interpreters, and what turns a disjointness refutation into a
    /// concrete counterexample.
    pub fn eval(&self, t: TermId, valuation: &dyn Fn(Sym) -> Value) -> Value {
        let mut memo: HashMap<TermId, Value> = HashMap::new();
        self.eval_memo(t, valuation, &mut memo)
    }

    fn eval_memo(
        &self,
        t: TermId,
        valuation: &dyn Fn(Sym) -> Value,
        memo: &mut HashMap<TermId, Value>,
    ) -> Value {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = match self.node(t) {
            Node::Const(v) => v,
            Node::Sym(s) => valuation(s),
            Node::Bin(op, l, r) => {
                let (l, r) = (
                    self.eval_memo(l, valuation, memo),
                    self.eval_memo(r, valuation, memo),
                );
                druzhba_dgen::eval::apply_binop(op, l, r)
            }
            Node::Un(op, x) => {
                druzhba_dgen::eval::apply_unop(op, self.eval_memo(x, valuation, memo))
            }
            Node::BitAnd(l, r) => {
                self.eval_memo(l, valuation, memo) & self.eval_memo(r, valuation, memo)
            }
            Node::Shr(x, sh) => {
                let x = self.eval_memo(x, valuation, memo);
                if sh >= 32 {
                    0
                } else {
                    x >> sh
                }
            }
            Node::Ite(c, th, el) => {
                if druzhba_core::value::truthy(self.eval_memo(c, valuation, memo)) {
                    self.eval_memo(th, valuation, memo)
                } else {
                    self.eval_memo(el, valuation, memo)
                }
            }
        };
        memo.insert(t, v);
        v
    }

    /// Abstractly evaluate `t` under an abstract valuation of its free
    /// symbols, memoized over the DAG: the abstract counterpart of
    /// [`TermStore::eval`], and how the analyzer reads an abstract
    /// execution off a symbolic one. Each node applies the same
    /// `domain.rs` transfer function its construction-time abstraction
    /// came from; an `Ite` takes the arm its condition's truth decides
    /// and joins both arms otherwise.
    pub fn abs_eval(&self, t: TermId, valuation: &dyn Fn(Sym) -> AbsVal) -> AbsVal {
        self.abs_eval_memo(t, valuation, &mut HashMap::new())
    }

    /// [`TermStore::abs_eval`] sharing `memo` across calls under one
    /// valuation.
    pub(crate) fn abs_eval_memo(
        &self,
        t: TermId,
        valuation: &dyn Fn(Sym) -> AbsVal,
        memo: &mut HashMap<TermId, AbsVal>,
    ) -> AbsVal {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = match self.node(t) {
            Node::Const(v) => AbsVal::constant(v),
            Node::Sym(s) => valuation(s),
            Node::Bin(op, l, r) => AbsVal::binop(
                op,
                self.abs_eval_memo(l, valuation, memo),
                self.abs_eval_memo(r, valuation, memo),
            ),
            Node::Un(op, x) => AbsVal::unop(op, self.abs_eval_memo(x, valuation, memo)),
            Node::BitAnd(l, r) => self
                .abs_eval_memo(l, valuation, memo)
                .bit_and(self.abs_eval_memo(r, valuation, memo)),
            Node::Shr(x, sh) => self.abs_eval_memo(x, valuation, memo).shr(sh),
            Node::Ite(c, th, el) => match self.abs_eval_memo(c, valuation, memo).truth() {
                Tri::True => self.abs_eval_memo(th, valuation, memo),
                Tri::False => self.abs_eval_memo(el, valuation, memo),
                Tri::Unknown => self
                    .abs_eval_memo(th, valuation, memo)
                    .join(self.abs_eval_memo(el, valuation, memo)),
            },
        };
        memo.insert(t, v);
        v
    }

    /// Does `t` reference any `Sym::Phv` input? (Drives the
    /// input-independent-write lint.)
    pub fn depends_on_phv(&self, t: TermId) -> bool {
        let mut memo: HashMap<TermId, bool> = HashMap::new();
        self.depends_on_phv_memo(t, &mut memo)
    }

    fn depends_on_phv_memo(&self, t: TermId, memo: &mut HashMap<TermId, bool>) -> bool {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = match self.node(t) {
            Node::Const(_) => false,
            Node::Sym(s) => matches!(s, Sym::Phv(_)),
            Node::Bin(_, l, r) | Node::BitAnd(l, r) => {
                self.depends_on_phv_memo(l, memo) || self.depends_on_phv_memo(r, memo)
            }
            Node::Un(_, x) | Node::Shr(x, _) => self.depends_on_phv_memo(x, memo),
            Node::Ite(c, th, el) => {
                self.depends_on_phv_memo(c, memo)
                    || self.depends_on_phv_memo(th, memo)
                    || self.depends_on_phv_memo(el, memo)
            }
        };
        memo.insert(t, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes_structurally_equal_terms() {
        let mut s = TermStore::new();
        let x = s.sym(Sym::Phv(0), AbsVal::top());
        let y = s.sym(Sym::Phv(1), AbsVal::top());
        let a = s.bin(BinOp::Add, x, y);
        let b = s.bin(BinOp::Add, x, y);
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_abstraction_collapses_to_const() {
        let mut s = TermStore::new();
        // A symbol declared constant (P4 metadata) is the constant.
        let m = s.sym(Sym::Phv(3), AbsVal::constant(0));
        assert_eq!(s.as_const(m), Some(0));
    }

    #[test]
    fn eval_matches_total_semantics() {
        let mut s = TermStore::new();
        let x = s.sym(Sym::Phv(0), AbsVal::top());
        let zero = s.konst(0);
        let d = s.bin(BinOp::Div, x, zero); // x / 0 == 0 folds statically
        assert_eq!(s.as_const(d), Some(0));
        let y = s.sym(Sym::Phv(1), AbsVal::top());
        let d2 = s.bin(BinOp::Div, x, y);
        let v = s.eval(d2, &|sym| match sym {
            Sym::Phv(0) => 7,
            _ => 0,
        });
        assert_eq!(v, 0, "x / 0 == 0 dynamically too");
    }
}
