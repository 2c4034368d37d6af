//! The canonicalizing rewrite system behind [`TermStore`]'s smart
//! constructors.
//!
//! Terms are normalized *at construction*, bottom-up, so a stored term
//! is always in normal form and rebuilding it is the identity. The rule
//! set is chosen to make every backend's compilation strategy vanish
//! under normalization:
//!
//! - **constant folding** via the shared total semantics
//!   (`apply_binop`/`apply_unop`) subsumes `dgen::opt::fold_binary`, so
//!   the Scc specializer's folds are no-ops symbolically;
//! - **comparison direction** is canonicalized (`a > b` → `b < a`,
//!   `a >= b` → `b <= a`) because the fuser commutes constant-left
//!   comparisons into immediate forms;
//! - **commutative operands** (`+ * == != && ||`) are sorted by term id,
//!   and constant chains reassociate (`(x + c1) + c2` → `x + (c1+c2)`,
//!   `x - c` → `x + (-c)` in the wrapping domain);
//! - **mux/select pushdown**: a binary operator over two Ites on the
//!   *same* condition distributes into the Ite, and Ite itself prunes
//!   decided conditions, collapses equal arms, and flattens nested
//!   same-condition selections — this is what makes per-unit merged
//!   (staged) and whole-pipeline merged (fused) decision trees meet in
//!   one normal form;
//! - **boolean algebra** on provably-0/1 terms (`x != 0` → `x`,
//!   `!!x` → `x`, `!(a < b)` → `b <= a`, `Ite(c,1,0)` → `c`);
//! - **known-bits collapse** (at intern time): any node whose
//!   abstract product is a singleton becomes that constant.
//!
//! Termination is structural: every rule either folds to an existing or
//! strictly smaller term, or performs a bounded reorientation (operand
//! sort, comparison flip, `Sub`→`Add`) that cannot re-fire on its own
//! output. Idempotence is pinned by a property test.

use druzhba_alu_dsl::ast::{BinOp, UnOp};
use druzhba_core::value::{self, Value};
use druzhba_dgen::eval::{apply_binop, apply_unop};

use crate::domain::{AbsVal, Tri};
use crate::term::{Node, TermId, TermStore};

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or
    )
}

/// Smart constructor for [`Node::Bin`].
pub(crate) fn bin(store: &mut TermStore, op: BinOp, l: TermId, r: TermId) -> TermId {
    // Canonical comparison direction: the fuser rewrites `C < x` into
    // `x > C` (and friends) when moving constants to the immediate slot,
    // so only `Lt`/`Le` survive normalization.
    match op {
        BinOp::Gt => return bin(store, BinOp::Lt, r, l),
        BinOp::Ge => return bin(store, BinOp::Le, r, l),
        _ => {}
    }

    let (lc, rc) = (store.as_const(l), store.as_const(r));
    if let (Some(a), Some(b)) = (lc, rc) {
        return store.konst(apply_binop(op, a, b));
    }

    // `x - C` → `x + (-C)` (wrapping), folding subtraction chains into
    // the additive canonical form.
    if op == BinOp::Sub {
        if let Some(c) = rc {
            let neg = store.konst(value::wneg(c));
            return bin(store, BinOp::Add, l, neg);
        }
    }

    // Identity / absorption rules (the `fold_binary` set, both operand
    // orders where the operator commutes).
    match op {
        BinOp::Add => {
            if lc == Some(0) {
                return r;
            }
            if rc == Some(0) {
                return l;
            }
        }
        BinOp::Sub => {
            if l == r {
                return store.konst(0);
            }
        }
        BinOp::Mul => {
            if lc == Some(0) || rc == Some(0) {
                return store.konst(0);
            }
            if lc == Some(1) {
                return r;
            }
            if rc == Some(1) {
                return l;
            }
        }
        BinOp::Div => {
            if rc == Some(1) {
                return l;
            }
            if rc == Some(0) || lc == Some(0) {
                return store.konst(0);
            }
        }
        BinOp::Mod => {
            // Total semantics: `x % 0 == 0`; and `x % 1 == 0`.
            if rc == Some(0) || rc == Some(1) || lc == Some(0) {
                return store.konst(0);
            }
        }
        BinOp::And => {
            if lc == Some(0) || rc == Some(0) {
                return store.konst(0);
            }
            if let Some(c) = lc {
                debug_assert!(value::truthy(c));
                return store.boolify(r);
            }
            if let Some(c) = rc {
                debug_assert!(value::truthy(c));
                return store.boolify(l);
            }
            if l == r {
                return store.boolify(l);
            }
        }
        BinOp::Or => {
            if lc.is_some_and(value::truthy) || rc.is_some_and(value::truthy) {
                return store.konst(1);
            }
            if lc == Some(0) {
                return store.boolify(r);
            }
            if rc == Some(0) {
                return store.boolify(l);
            }
            if l == r {
                return store.boolify(l);
            }
        }
        BinOp::Eq | BinOp::Le => {
            if l == r {
                return store.konst(1);
            }
        }
        BinOp::Ne | BinOp::Lt => {
            if l == r {
                return store.konst(0);
            }
        }
        BinOp::Gt | BinOp::Ge => unreachable!("normalized above"),
    }

    // Boolean reductions against 0/1 constants.
    if matches!(op, BinOp::Eq | BinOp::Ne) {
        let (b, c) = match (lc, rc) {
            (Some(c), None) if store.is_boolean(r) => (r, c),
            (None, Some(c)) if store.is_boolean(l) => (l, c),
            _ => (0, 2),
        };
        if c <= 1 {
            let keep = (c == 1) == (op == BinOp::Eq);
            return if keep { b } else { un(store, UnOp::Not, b) };
        }
    }

    // Commutative operand ordering by term id.
    let (l, r) = if is_commutative(op) && l > r {
        (r, l)
    } else {
        (l, r)
    };
    let (lc, rc) = (store.as_const(l), store.as_const(r));

    // Constant reassociation for the wrapping ring operators:
    // `(x op C1) op C2` → `x op (C1 op C2)`.
    if matches!(op, BinOp::Add | BinOp::Mul) {
        let fold = |store: &mut TermStore, inner: TermId, c2: Value| -> Option<TermId> {
            if let Node::Bin(iop, a, b) = store.node(inner) {
                if iop == op {
                    if let Some(c1) = store.as_const(b) {
                        let c = store.konst(apply_binop(op, c1, c2));
                        return Some(bin(store, op, a, c));
                    }
                    if let Some(c1) = store.as_const(a) {
                        let c = store.konst(apply_binop(op, c1, c2));
                        return Some(bin(store, op, b, c));
                    }
                }
            }
            None
        };
        if let Some(c2) = rc {
            if let Some(t) = fold(store, l, c2) {
                return t;
            }
        }
        if let Some(c2) = lc {
            if let Some(t) = fold(store, r, c2) {
                return t;
            }
        }
    }

    // Select pushdown: distribute over two selections on the same
    // condition, so staged (per-unit merged) and fused (end-merged)
    // computations normalize identically.
    if let (Node::Ite(c1, a, b), Node::Ite(c2, x, y)) = (store.node(l), store.node(r)) {
        if c1 == c2 {
            let t = bin(store, op, a, x);
            let e = bin(store, op, b, y);
            return ite(store, c1, t, e);
        }
    }

    let abs = AbsVal::binop(op, store.abs(l), store.abs(r));
    store.intern(Node::Bin(op, l, r), abs)
}

/// Smart constructor for [`Node::Un`].
pub(crate) fn un(store: &mut TermStore, op: UnOp, x: TermId) -> TermId {
    if let Some(v) = store.as_const(x) {
        return store.konst(apply_unop(op, v));
    }
    match (op, store.node(x)) {
        (UnOp::Neg, Node::Un(UnOp::Neg, y)) => return y,
        (UnOp::Not, Node::Un(UnOp::Not, y)) => return store.boolify(y),
        // Comparison inversion keeps negation out of branch conditions.
        (UnOp::Not, Node::Bin(BinOp::Eq, a, b)) => return bin(store, BinOp::Ne, a, b),
        (UnOp::Not, Node::Bin(BinOp::Ne, a, b)) => return bin(store, BinOp::Eq, a, b),
        (UnOp::Not, Node::Bin(BinOp::Lt, a, b)) => return bin(store, BinOp::Le, b, a),
        (UnOp::Not, Node::Bin(BinOp::Le, a, b)) => return bin(store, BinOp::Lt, b, a),
        _ => {}
    }
    let abs = AbsVal::unop(op, store.abs(x));
    store.intern(Node::Un(op, x), abs)
}

/// Smart constructor for [`Node::BitAnd`].
pub(crate) fn bit_and(store: &mut TermStore, l: TermId, r: TermId) -> TermId {
    let (lc, rc) = (store.as_const(l), store.as_const(r));
    if let (Some(a), Some(b)) = (lc, rc) {
        return store.konst(a & b);
    }
    if lc == Some(0) || rc == Some(0) {
        return store.konst(0);
    }
    if lc == Some(u32::MAX) {
        return r;
    }
    if rc == Some(u32::MAX) {
        return l;
    }
    if l == r {
        return l;
    }
    let (l, r) = if l > r { (r, l) } else { (l, r) };
    let abs = store.abs(l).bit_and(store.abs(r));
    store.intern(Node::BitAnd(l, r), abs)
}

/// Smart constructor for [`Node::Shr`].
pub(crate) fn shr(store: &mut TermStore, x: TermId, shift: u32) -> TermId {
    if shift == 0 {
        return x;
    }
    if shift >= 32 {
        return store.konst(0);
    }
    if let Some(v) = store.as_const(x) {
        return store.konst(v >> shift);
    }
    if let Node::Shr(y, s1) = store.node(x) {
        return shr(store, y, (s1 + shift).min(32));
    }
    let abs = store.abs(x).shr(shift);
    store.intern(Node::Shr(x, shift), abs)
}

/// Smart constructor for [`Node::Ite`].
pub(crate) fn ite(store: &mut TermStore, c: TermId, t: TermId, e: TermId) -> TermId {
    match store.truth(c) {
        Tri::True => return t,
        Tri::False => return e,
        Tri::Unknown => {}
    }
    if t == e {
        return t;
    }
    // Negated conditions re-orient instead of nesting a `Not`.
    if let Node::Un(UnOp::Not, c2) = store.node(c) {
        return ite(store, c2, e, t);
    }
    // Nested selections on the same condition are redundant.
    if let Node::Ite(c2, a, _) = store.node(t) {
        if c2 == c {
            return ite(store, c, a, e);
        }
    }
    if let Node::Ite(c2, _, b) = store.node(e) {
        if c2 == c {
            return ite(store, c, t, b);
        }
    }
    // Boolean selection is the condition itself (or its negation).
    if store.as_const(t) == Some(1) && store.as_const(e) == Some(0) {
        return store.boolify(c);
    }
    if store.as_const(t) == Some(0) && store.as_const(e) == Some(1) {
        return un(store, UnOp::Not, c);
    }
    let abs = store.abs(t).join(store.abs(e));
    store.intern(Node::Ite(c, t, e), abs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sym;

    fn fresh() -> (TermStore, TermId, TermId) {
        let mut s = TermStore::new();
        let x = s.sym(Sym::Phv(0), AbsVal::top());
        let y = s.sym(Sym::Phv(1), AbsVal::top());
        (s, x, y)
    }

    #[test]
    fn fold_binary_identities_are_subsumed() {
        let (mut s, x, _) = fresh();
        let zero = s.konst(0);
        let one = s.konst(1);
        assert_eq!(s.bin(BinOp::Add, zero, x), x);
        assert_eq!(s.bin(BinOp::Add, x, zero), x);
        assert_eq!(s.bin(BinOp::Sub, x, zero), x);
        assert_eq!(s.bin(BinOp::Mul, one, x), x);
        assert_eq!(s.bin(BinOp::Mul, x, one), x);
        assert_eq!(s.bin(BinOp::Mul, x, zero), zero);
        assert_eq!(s.bin(BinOp::Div, x, one), x);
        assert_eq!(s.bin(BinOp::Div, x, zero), zero);
        assert_eq!(s.bin(BinOp::Mod, x, zero), zero);
        assert_eq!(s.bin(BinOp::And, x, zero), zero);
        let five = s.konst(5);
        assert_eq!(s.bin(BinOp::Or, x, five), one);
    }

    #[test]
    fn comparison_direction_is_canonical() {
        let (mut s, x, y) = fresh();
        let gt = s.bin(BinOp::Gt, x, y);
        let lt = s.bin(BinOp::Lt, y, x);
        assert_eq!(gt, lt);
        let ge = s.bin(BinOp::Ge, x, y);
        let le = s.bin(BinOp::Le, y, x);
        assert_eq!(ge, le);
    }

    #[test]
    fn commutative_operands_sort_and_reassociate() {
        let (mut s, x, y) = fresh();
        let a = s.bin(BinOp::Add, x, y);
        let b = s.bin(BinOp::Add, y, x);
        assert_eq!(a, b);
        let c1 = s.konst(3);
        let c2 = s.konst(4);
        let chain = s.bin(BinOp::Add, x, c1);
        let chain = s.bin(BinOp::Add, chain, c2);
        let seven = s.konst(7);
        let direct = s.bin(BinOp::Add, x, seven);
        assert_eq!(chain, direct);
        // Subtraction folds into the additive chain.
        let sub = s.bin(BinOp::Sub, x, c2);
        let sub = s.bin(BinOp::Add, sub, c2);
        assert_eq!(sub, x);
    }

    #[test]
    fn ite_prunes_and_collapses() {
        let (mut s, x, y) = fresh();
        let c = s.bin(BinOp::Lt, x, y);
        assert_eq!(s.ite(c, x, x), x);
        let one = s.konst(1);
        let zero = s.konst(0);
        assert_eq!(s.ite(c, one, zero), c);
        let notc = s.un(UnOp::Not, c);
        let le = s.bin(BinOp::Le, y, x);
        assert_eq!(notc, le, "!(x < y) == y <= x");
        let t = s.ite(c, x, y);
        let nested = s.ite(c, t, y);
        assert_eq!(nested, t);
    }

    #[test]
    fn same_condition_pushdown_meets_staged_and_fused_forms() {
        let (mut s, x, y) = fresh();
        let c = s.bin(BinOp::Lt, x, y);
        let a = s.bin(BinOp::Add, x, y);
        // staged shape: Ite(c,a,x) + Ite(c,y,x)
        let l = s.ite(c, a, x);
        let r = s.ite(c, y, x);
        let staged = s.bin(BinOp::Add, l, r);
        // fused shape: Ite(c, a+y, x+x)
        let ay = s.bin(BinOp::Add, a, y);
        let xx = s.bin(BinOp::Add, x, x);
        let fused = s.ite(c, ay, xx);
        assert_eq!(staged, fused);
    }

    #[test]
    fn boolean_reductions() {
        let (mut s, x, y) = fresh();
        let c = s.bin(BinOp::Eq, x, y);
        let zero = s.konst(0);
        let one = s.konst(1);
        assert_eq!(s.bin(BinOp::Ne, c, zero), c);
        assert_eq!(s.bin(BinOp::Eq, c, one), c);
        let not = s.un(UnOp::Not, c);
        assert_eq!(s.bin(BinOp::Eq, c, zero), not);
        assert_eq!(s.un(UnOp::Not, not), c);
    }
}
