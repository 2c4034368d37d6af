//! The abstract value domain: a reduced product of intervals and
//! known-bits.
//!
//! Every abstract value over-approximates a set of concrete `u32`s two
//! ways at once:
//!
//! * an **interval** `[lo, hi]` (inclusive, no wrap-around representation:
//!   `lo <= hi` always holds), and
//! * a **known-bits** mask: for each of the 32 bits, the bit is either
//!   known-0, known-1, or unknown.
//!
//! The two components are *reduced* against each other after every
//! operation: the known-bits fix the interval's reachable min/max, and an
//! interval whose bounds share a high-bit prefix pins those bits in the
//! known-bits mask. The soundness invariant — checked wholesale by the
//! `analysis_soundness` proptest — is that every concrete value any
//! backend can produce satisfies [`AbsVal::contains`].
//!
//! Transfer functions mirror `dgen`'s concrete semantics exactly:
//! wrapping `+`/`-`/`*`, *total* division and modulo (`x / 0 == x % 0 ==
//! 0`), comparisons and logical connectives producing `0`/`1`, and the
//! bitwise AND and constant right shift of the lowered P4 match
//! conditions.

use druzhba_alu_dsl::ast::{BinOp, UnOp};
use druzhba_core::value::{self, Value};

/// Three-valued truthiness of an abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    False,
    True,
    Unknown,
}

/// Inclusive, non-wrapping interval over `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    pub lo: u32,
    pub hi: u32,
}

/// Tri-state bit lattice: bit `i` is known-1 if `ones` has it set,
/// known-0 if neither `ones` nor `unknown` has it set, unknown otherwise.
/// Invariant: `ones & unknown == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnownBits {
    pub ones: u32,
    pub unknown: u32,
}

impl KnownBits {
    /// Bits whose value is determined.
    #[inline]
    pub fn known(self) -> u32 {
        !self.unknown
    }

    /// Smallest concrete value compatible with the mask.
    #[inline]
    pub fn min(self) -> u32 {
        self.ones
    }

    /// Largest concrete value compatible with the mask.
    #[inline]
    pub fn max(self) -> u32 {
        self.ones | self.unknown
    }
}

/// The product value. Constructed only through the smart constructors so
/// the reduction invariants hold everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsVal {
    pub iv: Interval,
    pub kb: KnownBits,
}

// Transfer functions deliberately reuse the operator names (`add`,
// `div`, `not`, …) without implementing the `std::ops` traits: they are
// *abstract* operators over the lattice, not the value semantics the
// traits promise.
#[allow(clippy::should_implement_trait)]
impl AbsVal {
    /// The singleton abstraction of one concrete value.
    pub fn constant(v: Value) -> Self {
        AbsVal {
            iv: Interval { lo: v, hi: v },
            kb: KnownBits {
                ones: v,
                unknown: 0,
            },
        }
    }

    /// Every `u32`.
    pub fn top() -> Self {
        AbsVal {
            iv: Interval {
                lo: 0,
                hi: u32::MAX,
            },
            kb: KnownBits {
                ones: 0,
                unknown: u32::MAX,
            },
        }
    }

    /// All values in `[lo, hi]`.
    pub fn range(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi);
        AbsVal {
            iv: Interval { lo, hi },
            kb: KnownBits {
                ones: 0,
                unknown: u32::MAX,
            },
        }
        .reduced()
    }

    /// All values representable in `bits` bits: `[0, 2^bits - 1]` with the
    /// high bits known-zero.
    pub fn bits(bits: u32) -> Self {
        AbsVal::range(0, value::max_for_bits(bits))
    }

    /// The concrete value, if this abstraction is a singleton.
    pub fn as_const(self) -> Option<Value> {
        if self.iv.lo == self.iv.hi {
            Some(self.iv.lo)
        } else {
            None
        }
    }

    /// Does the concretization include `v`? Checks both components.
    pub fn contains(self, v: Value) -> bool {
        self.iv.lo <= v && v <= self.iv.hi && (v & self.kb.known()) == self.kb.ones
    }

    /// Are the two concretizations certainly non-overlapping? (The
    /// translation-validation trigger: disjoint over-approximations of
    /// the same output prove the two programs differ.)
    pub fn is_disjoint(self, other: AbsVal) -> bool {
        if self.iv.hi < other.iv.lo || other.iv.hi < self.iv.lo {
            return true;
        }
        // A bit known in both with different values.
        let both_known = self.kb.known() & other.kb.known();
        (self.kb.ones ^ other.kb.ones) & both_known != 0
    }

    /// Least upper bound.
    pub fn join(self, other: AbsVal) -> Self {
        let iv = Interval {
            lo: self.iv.lo.min(other.iv.lo),
            hi: self.iv.hi.max(other.iv.hi),
        };
        let agree = self.kb.known() & other.kb.known() & !(self.kb.ones ^ other.kb.ones);
        let kb = KnownBits {
            ones: self.kb.ones & agree,
            unknown: !agree,
        };
        AbsVal { iv, kb }.reduced()
    }

    /// Widening: jump straight to the extreme on any growing bound. The
    /// known-bits component needs no widening — its chains have height at
    /// most 32 — so it joins.
    pub fn widen(self, next: AbsVal) -> Self {
        let j = self.join(next);
        let iv = Interval {
            lo: if j.iv.lo < self.iv.lo { 0 } else { self.iv.lo },
            hi: if j.iv.hi > self.iv.hi {
                u32::MAX
            } else {
                self.iv.hi
            },
        };
        AbsVal { iv, kb: j.kb }.reduced()
    }

    /// Tri-valued truthiness (`0` is false, everything else true).
    pub fn truth(self) -> Tri {
        if self.iv.lo == 0 && self.iv.hi == 0 {
            Tri::False
        } else if self.iv.lo > 0 || self.kb.ones != 0 {
            Tri::True
        } else {
            Tri::Unknown
        }
    }

    /// Mutual reduction of the two components. Runs the interval→bits and
    /// bits→interval refinements once each; both are monotone, and a
    /// single pass suffices for the invariants the rest of the crate
    /// relies on (the proptest checks containment, not optimality).
    fn reduced(mut self) -> Self {
        // Bits → interval: the mask bounds the reachable values.
        self.iv.lo = self.iv.lo.max(self.kb.min());
        self.iv.hi = self.iv.hi.min(self.kb.max());
        if self.iv.lo > self.iv.hi {
            // Components contradict: the set is empty. Collapse to the
            // interval's original singleton-ish point; callers never
            // produce empty sets for reachable code, so pick lo == hi to
            // stay well-formed.
            let v = self.iv.lo.min(self.iv.hi);
            return AbsVal::constant(v);
        }
        // Interval → bits: the common high-bit prefix of lo and hi is
        // fixed for every value in between.
        let differ = self.iv.lo ^ self.iv.hi;
        let fixed_high = if differ == 0 {
            u32::MAX
        } else {
            // All bits above the highest differing bit are equal across
            // the whole interval.
            !(u32::MAX >> differ.leading_zeros())
        };
        let newly_known = fixed_high & self.kb.unknown;
        self.kb.ones |= self.iv.lo & newly_known;
        self.kb.unknown &= !newly_known;
        // One more bits → interval pass with the refined mask.
        self.iv.lo = self.iv.lo.max(self.kb.min());
        self.iv.hi = self.iv.hi.min(self.kb.max());
        self
    }

    // --- Arithmetic transfer functions -------------------------------

    /// Wrapping addition.
    pub fn add(self, rhs: AbsVal) -> Self {
        let lo = u64::from(self.iv.lo) + u64::from(rhs.iv.lo);
        let hi = u64::from(self.iv.hi) + u64::from(rhs.iv.hi);
        let iv = if hi <= u64::from(u32::MAX) {
            // No path wraps.
            Interval {
                lo: lo as u32,
                hi: hi as u32,
            }
        } else if lo > u64::from(u32::MAX) {
            // Every path wraps by exactly 2^32.
            Interval {
                lo: (lo - (1u64 << 32)) as u32,
                hi: (hi - (1u64 << 32)) as u32,
            }
        } else {
            Interval {
                lo: 0,
                hi: u32::MAX,
            }
        };
        let kb = kb_add(self.kb, rhs.kb, Tri::False);
        AbsVal { iv, kb }.reduced()
    }

    /// Wrapping subtraction.
    pub fn sub(self, rhs: AbsVal) -> Self {
        let lo = i64::from(self.iv.lo) - i64::from(rhs.iv.hi);
        let hi = i64::from(self.iv.hi) - i64::from(rhs.iv.lo);
        let iv = if lo >= 0 {
            Interval {
                lo: lo as u32,
                hi: hi as u32,
            }
        } else if hi < 0 {
            Interval {
                lo: (lo + (1i64 << 32)) as u32,
                hi: (hi + (1i64 << 32)) as u32,
            }
        } else {
            Interval {
                lo: 0,
                hi: u32::MAX,
            }
        };
        // a - b == a + !b + 1 in two's complement.
        let kb = kb_add(self.kb, kb_not(rhs.kb), Tri::True);
        AbsVal { iv, kb }.reduced()
    }

    /// Wrapping multiplication.
    pub fn mul(self, rhs: AbsVal) -> Self {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(value::wmul(a, b));
        }
        let hi = u64::from(self.iv.hi) * u64::from(rhs.iv.hi);
        if hi <= u64::from(u32::MAX) {
            // No path wraps; the product is monotone over non-negative
            // operands.
            AbsVal::range(self.iv.lo * rhs.iv.lo, hi as u32)
        } else {
            AbsVal::top()
        }
    }

    /// Total division: `x / 0 == 0`.
    pub fn div(self, rhs: AbsVal) -> Self {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(value::wdiv(a, b));
        }
        if let (Some(lo), Some(hi)) = (
            self.iv.lo.checked_div(rhs.iv.hi),
            self.iv.hi.checked_div(rhs.iv.lo),
        ) {
            // Divisor cannot be zero; quotient monotone in both operands.
            AbsVal::range(lo, hi)
        } else {
            // Divisor may be zero (result 0) — but the quotient never
            // exceeds the dividend.
            AbsVal::range(0, self.iv.hi)
        }
    }

    /// Total modulo: `x % 0 == 0`.
    pub fn rem(self, rhs: AbsVal) -> Self {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(value::wmod(a, b));
        }
        if rhs.iv.hi == 0 {
            return AbsVal::constant(0);
        }
        // Result < divisor (or 0 for a zero divisor), and never exceeds
        // the dividend.
        AbsVal::range(0, self.iv.hi.min(rhs.iv.hi - 1))
    }

    /// Wrapping negation.
    pub fn neg(self) -> Self {
        if let Some(a) = self.as_const() {
            return AbsVal::constant(value::wneg(a));
        }
        if self.iv.lo > 0 {
            // 0 not included: -x maps [lo, hi] to [2^32-hi, 2^32-lo].
            AbsVal::range(
                ((1u64 << 32) - u64::from(self.iv.hi)) as u32,
                ((1u64 << 32) - u64::from(self.iv.lo)) as u32,
            )
        } else {
            AbsVal::top()
        }
    }

    /// Logical not: `!truthy(x)` as `0`/`1`.
    pub fn not(self) -> Self {
        match self.truth() {
            Tri::False => AbsVal::constant(1),
            Tri::True => AbsVal::constant(0),
            Tri::Unknown => AbsVal::bool_top(),
        }
    }

    /// `{0, 1}`.
    pub fn bool_top() -> Self {
        AbsVal::range(0, 1)
    }

    fn from_tri(t: Tri) -> Self {
        match t {
            Tri::False => AbsVal::constant(0),
            Tri::True => AbsVal::constant(1),
            Tri::Unknown => AbsVal::bool_top(),
        }
    }

    // --- Comparisons (0/1-valued, matching `apply_binop`) ------------

    pub fn cmp_eq(self, rhs: AbsVal) -> Self {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(Value::from(a == b));
        }
        if self.is_disjoint(rhs) {
            return AbsVal::constant(0);
        }
        AbsVal::bool_top()
    }

    pub fn cmp_ne(self, rhs: AbsVal) -> Self {
        self.cmp_eq(rhs).not()
    }

    pub fn cmp_lt(self, rhs: AbsVal) -> Self {
        AbsVal::from_tri(if self.iv.hi < rhs.iv.lo {
            Tri::True
        } else if self.iv.lo >= rhs.iv.hi {
            Tri::False
        } else {
            Tri::Unknown
        })
    }

    pub fn cmp_le(self, rhs: AbsVal) -> Self {
        AbsVal::from_tri(if self.iv.hi <= rhs.iv.lo {
            Tri::True
        } else if self.iv.lo > rhs.iv.hi {
            Tri::False
        } else {
            Tri::Unknown
        })
    }

    pub fn cmp_gt(self, rhs: AbsVal) -> Self {
        rhs.cmp_lt(self)
    }

    pub fn cmp_ge(self, rhs: AbsVal) -> Self {
        rhs.cmp_le(self)
    }

    /// Truthiness-based `&&` producing `0`/`1`.
    pub fn logic_and(self, rhs: AbsVal) -> Self {
        match (self.truth(), rhs.truth()) {
            (Tri::False, _) | (_, Tri::False) => AbsVal::constant(0),
            (Tri::True, Tri::True) => AbsVal::constant(1),
            _ => AbsVal::bool_top(),
        }
    }

    /// Truthiness-based `||` producing `0`/`1`.
    pub fn logic_or(self, rhs: AbsVal) -> Self {
        match (self.truth(), rhs.truth()) {
            (Tri::True, _) | (_, Tri::True) => AbsVal::constant(1),
            (Tri::False, Tri::False) => AbsVal::constant(0),
            _ => AbsVal::bool_top(),
        }
    }

    /// Abstract counterpart of `eval::apply_binop`.
    pub fn binop(op: BinOp, l: AbsVal, r: AbsVal) -> Self {
        match op {
            BinOp::Add => l.add(r),
            BinOp::Sub => l.sub(r),
            BinOp::Mul => l.mul(r),
            BinOp::Div => l.div(r),
            BinOp::Mod => l.rem(r),
            BinOp::Eq => l.cmp_eq(r),
            BinOp::Ne => l.cmp_ne(r),
            BinOp::Lt => l.cmp_lt(r),
            BinOp::Gt => l.cmp_gt(r),
            BinOp::Le => l.cmp_le(r),
            BinOp::Ge => l.cmp_ge(r),
            BinOp::And => l.logic_and(r),
            BinOp::Or => l.logic_or(r),
        }
    }

    /// Bitwise AND: `x & y <= min(x, y)` in the unsigned domain.
    pub fn bit_and(self, rhs: AbsVal) -> Self {
        AbsVal::range(0, self.iv.hi.min(rhs.iv.hi))
    }

    /// Logical right shift by a constant below 32 (monotone over the
    /// unsigned interval).
    pub fn shr(self, shift: u32) -> Self {
        AbsVal::range(self.iv.lo >> shift, self.iv.hi >> shift)
    }

    /// Abstract counterpart of `eval::apply_unop`.
    pub fn unop(op: UnOp, x: AbsVal) -> Self {
        match op {
            UnOp::Neg => x.neg(),
            UnOp::Not => x.not(),
        }
    }
}

/// Bitwise complement in the tri-state lattice: known-1 ↔ known-0,
/// unknown stays unknown.
fn kb_not(x: KnownBits) -> KnownBits {
    KnownBits {
        ones: !(x.ones | x.unknown),
        unknown: x.unknown,
    }
}

/// Ripple-carry addition over tri-state bits. `carry_in` seeds bit 0
/// (used as `True` for subtraction's `+1`).
fn kb_add(a: KnownBits, b: KnownBits, carry_in: Tri) -> KnownBits {
    let mut ones = 0u32;
    let mut unknown = 0u32;
    let mut carry = carry_in;
    for i in 0..32 {
        let abit = tri_bit(a, i);
        let bbit = tri_bit(b, i);
        let (sum, carry_out) = tri_full_add(abit, bbit, carry);
        match sum {
            Tri::True => ones |= 1 << i,
            Tri::False => {}
            Tri::Unknown => unknown |= 1 << i,
        }
        carry = carry_out;
    }
    KnownBits { ones, unknown }
}

fn tri_bit(x: KnownBits, i: u32) -> Tri {
    if x.unknown >> i & 1 == 1 {
        Tri::Unknown
    } else if x.ones >> i & 1 == 1 {
        Tri::True
    } else {
        Tri::False
    }
}

/// One full-adder over tri-state bits: `(sum, carry_out)`.
fn tri_full_add(a: Tri, b: Tri, c: Tri) -> (Tri, Tri) {
    let known_ones = [a, b, c].iter().filter(|&&t| t == Tri::True).count();
    let known_zeros = [a, b, c].iter().filter(|&&t| t == Tri::False).count();
    let unknowns = 3 - known_ones - known_zeros;
    let sum = if unknowns == 0 {
        if known_ones % 2 == 1 {
            Tri::True
        } else {
            Tri::False
        }
    } else {
        Tri::Unknown
    };
    // Carry-out is 1 iff at least two inputs are 1: decided whenever two
    // inputs agree on a known value.
    let carry = if known_ones >= 2 {
        Tri::True
    } else if known_zeros >= 2 {
        Tri::False
    } else {
        Tri::Unknown
    };
    (sum, carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive-ish soundness micro-check over small operand sets: for
    /// every pair of abstractions and every concrete pair they contain,
    /// the concrete op result is contained in the abstract op result.
    #[test]
    fn transfer_functions_are_sound_on_small_samples() {
        let abs: Vec<AbsVal> = vec![
            AbsVal::constant(0),
            AbsVal::constant(1),
            AbsVal::constant(9),
            AbsVal::constant(u32::MAX),
            AbsVal::range(0, 7),
            AbsVal::range(3, 1000),
            AbsVal::range(u32::MAX - 4, u32::MAX),
            AbsVal::bits(10),
            AbsVal::top(),
        ];
        let concretes = |a: AbsVal| -> Vec<u32> {
            let mut v = vec![a.iv.lo, a.iv.hi];
            for cand in [0u32, 1, 2, 5, 9, 1000, u32::MAX - 1, u32::MAX] {
                if a.contains(cand) {
                    v.push(cand);
                }
            }
            v.retain(|&x| a.contains(x));
            v
        };
        use BinOp::*;
        for &l in &abs {
            for &r in &abs {
                for op in [Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Gt, Le, Ge, And, Or] {
                    let out = AbsVal::binop(op, l, r);
                    for &cl in &concretes(l) {
                        for &cr in &concretes(r) {
                            let c = druzhba_dgen::eval::apply_binop(op, cl, cr);
                            assert!(
                                out.contains(c),
                                "{op:?} {cl} {cr} -> {c} not in {out:?} (l={l:?}, r={r:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn join_widen_and_disjoint_behave() {
        let a = AbsVal::constant(4);
        let b = AbsVal::constant(12);
        let j = a.join(b);
        assert!(j.contains(4) && j.contains(12));
        // Bit 2 of 4 is 1, of 12 is 1 → still known; bit 3 differs.
        assert_eq!(j.kb.ones & 0b100, 0b100);
        assert!(a.is_disjoint(b));
        assert!(!j.is_disjoint(a));
        let w = a.widen(j);
        assert!(w.contains(4) && w.contains(12));
        // Known-bits refine the interval: [0,1] has the top 31 bits known
        // zero.
        let bool_ = AbsVal::bool_top();
        assert_eq!(bool_.kb.unknown, 1);
    }

    #[test]
    fn kb_addition_tracks_low_bits() {
        // x in [0, 3] (bits 0-1 unknown) plus constant 4: bit 2 becomes
        // known-1, bits 0-1 stay unknown.
        let x = AbsVal::bits(2);
        let s = x.add(AbsVal::constant(4));
        assert_eq!(s.kb.ones & 0b100, 0b100);
        assert_eq!(s.iv.lo, 4);
        assert_eq!(s.iv.hi, 7);
    }
}
