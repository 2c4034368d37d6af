//! Packet header vectors.
//!
//! The parser of a real RMT switch produces a *packet header vector* (PHV):
//! a vector of containers, each holding one packet or metadata field.
//! Druzhba does not model parsing; the traffic generator synthesises PHVs
//! directly (paper §2.3, §3.3).

use std::fmt;

use crate::value::Value;

/// A packet header vector: an ordered collection of containers, each holding
/// a single [`Value`].
///
/// PHVs are the unit of work flowing through the simulated pipeline. One PHV
/// enters the pipeline per simulation tick and advances exactly one stage per
/// tick (enforced by dsim's read-half/write-half discipline).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Phv {
    containers: Vec<Value>,
}

impl Phv {
    /// Create a PHV whose containers hold the given values.
    pub fn new(containers: Vec<Value>) -> Self {
        Phv { containers }
    }

    /// Create a PHV of `len` containers, all zero.
    pub fn zeroed(len: usize) -> Self {
        Phv {
            containers: vec![0; len],
        }
    }

    /// Number of containers.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// True if the PHV has no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Read container `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range; pipeline construction validates all
    /// mux selectors against the PHV length, so an out-of-range access inside
    /// the simulator indicates a bug, not bad user input.
    pub fn get(&self, idx: usize) -> Value {
        self.containers[idx]
    }

    /// Read container `idx`, returning `None` when out of range.
    pub fn try_get(&self, idx: usize) -> Option<Value> {
        self.containers.get(idx).copied()
    }

    /// Write container `idx`.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.containers[idx] = v;
    }

    /// A view of all containers in order.
    pub fn containers(&self) -> &[Value] {
        &self.containers
    }

    /// A mutable view of all containers, for buffer-reuse execution paths
    /// that write results in place instead of allocating a fresh PHV.
    pub fn containers_mut(&mut self) -> &mut [Value] {
        &mut self.containers
    }

    /// Overwrite every container from `src` without reallocating. A plain
    /// indexed loop rather than `memcpy`: PHVs are a handful of containers,
    /// and this sits on the simulator's per-PHV hot path.
    ///
    /// # Panics
    /// Panics if `src.len() != self.len()` (the contract of
    /// [`slice::copy_from_slice`]) — container counts are fixed by the
    /// pipeline configuration, so a length mismatch is a bug.
    #[inline]
    pub fn copy_from_slice(&mut self, src: &[Value]) {
        assert_eq!(self.containers.len(), src.len(), "container count is fixed");
        for (dst, &v) in self.containers.iter_mut().zip(src) {
            *dst = v;
        }
    }
}

impl fmt::Display for Phv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.containers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Phv {
    fn from(containers: Vec<Value>) -> Self {
        Phv::new(containers)
    }
}

impl std::ops::Index<usize> for Phv {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.containers[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_all_zero_containers() {
        let p = Phv::zeroed(4);
        assert_eq!(p.len(), 4);
        assert!(p.containers().iter().all(|&c| c == 0));
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = Phv::zeroed(3);
        p.set(1, 99);
        assert_eq!(p.get(1), 99);
        assert_eq!(p.get(0), 0);
        assert_eq!(p[1], 99);
    }

    #[test]
    fn try_get_out_of_range_is_none() {
        let p = Phv::zeroed(2);
        assert_eq!(p.try_get(1), Some(0));
        assert_eq!(p.try_get(2), None);
    }

    #[test]
    fn display_formats_as_list() {
        let p = Phv::new(vec![1, 2, 3]);
        assert_eq!(p.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn from_vec_preserves_order() {
        let p: Phv = vec![5, 6].into();
        assert_eq!(p.containers(), &[5, 6]);
    }

    #[test]
    fn in_place_copy_helpers_reuse_the_buffer() {
        let mut p = Phv::zeroed(3);
        p.copy_from_slice(&[4, 5, 6]);
        assert_eq!(p.containers(), &[4, 5, 6]);
        p.containers_mut()[2] = 9;
        assert_eq!(p.get(2), 9);
    }

    #[test]
    fn empty_phv() {
        let p = Phv::zeroed(0);
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "[]");
    }
}
