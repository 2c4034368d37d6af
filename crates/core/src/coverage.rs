//! Allocation-free execution-coverage maps for the ALU backends.
//!
//! An AFL-style **edge-coverage map**: a fixed-size array of saturating
//! `u8` hit counters, indexed by a hashed *edge id*. dgen's four ALU
//! backends (`druzhba_dgen::Pipeline`) record events into an optional map
//! as they execute:
//!
//! - branch decisions in ALU bodies (if-arm taken, relational-operator
//!   outcomes, bytecode/fused conditional jumps);
//! - multiplexer and opcode-arm selections.
//!
//! Two readers hold the static analysis to these concrete edges: the
//! known-imprecision list of `druzhba analyze` (live-predicted edges a
//! seeded campaign never hits) and the dead-edge cross-check in
//! `tests/analysis_soundness.rs` (an edge proven dead is never hit).
//!
//! The map is a **generation-time allocation**: recording a hit is one
//! masked index and one saturating increment — no heap allocation, no
//! hashing of strings — so instrumentation preserves the fused backend's
//! zero-allocation tick-loop invariant.

/// Number of edge counters in a map. A power of two so edge ids fold in
/// with a mask; 4096 edges is comfortably above what the corpus programs
/// exercise (a few hundred distinct edges) while keeping the map one page.
pub const COVERAGE_MAP_SIZE: usize = 4096;

/// Mix an event site and its outcome into an edge id.
///
/// The three components are multiplied by distinct odd constants and
/// xor-folded, then avalanched, so structurally adjacent sites (stage 0
/// slot 1 vs. stage 1 slot 0) land far apart in the map. Collisions are
/// possible; the readers treat a slot shared with a live edge as live.
#[inline]
pub fn edge_id(site: u32, event: u32, outcome: u32) -> u32 {
    let mut x = site.wrapping_mul(0x9E37_79B1)
        ^ event.wrapping_mul(0x85EB_CA6B)
        ^ outcome.wrapping_mul(0xC2B2_AE35);
    x ^= x >> 15;
    x = x.wrapping_mul(0x2C1B_3C6D);
    x ^= x >> 12;
    x
}

/// A fixed-size edge-coverage map: `COVERAGE_MAP_SIZE` saturating `u8`
/// hit counters. One heap allocation at construction; recording is
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    counts: Box<[u8; COVERAGE_MAP_SIZE]>,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// An all-zero map.
    pub fn new() -> Self {
        CoverageMap {
            counts: Box::new([0; COVERAGE_MAP_SIZE]),
        }
    }

    /// Record one hit of `edge` (folded into the map by mask), saturating
    /// at 255. Allocation-free; this is the only call instrumented hot
    /// loops make.
    #[inline]
    pub fn hit(&mut self, edge: u32) {
        let slot = (edge as usize) & (COVERAGE_MAP_SIZE - 1);
        // Indexing is provably in bounds after the mask.
        let c = &mut self.counts[slot];
        *c = c.saturating_add(1);
    }

    /// The raw counter at `slot`.
    #[inline]
    pub fn count(&self, slot: usize) -> u8 {
        self.counts[slot & (COVERAGE_MAP_SIZE - 1)]
    }

    /// Zero every counter (reuse a map across executions without
    /// reallocating).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of slots with a nonzero counter.
    fn edges_covered(m: &CoverageMap) -> usize {
        (0..COVERAGE_MAP_SIZE)
            .filter(|&slot| m.count(slot) != 0)
            .count()
    }

    #[test]
    fn hits_accumulate_and_saturate() {
        let mut m = CoverageMap::new();
        assert_eq!(edges_covered(&m), 0);
        for _ in 0..300 {
            m.hit(7);
        }
        assert_eq!(m.count(7), 255, "counter saturates, never wraps");
        m.hit(7);
        assert_eq!(m.count(7), 255);
        assert_eq!(edges_covered(&m), 1);
    }

    #[test]
    fn edges_fold_by_mask() {
        let mut m = CoverageMap::new();
        m.hit(3);
        m.hit(3 + COVERAGE_MAP_SIZE as u32);
        assert_eq!(m.count(3), 2, "ids fold modulo the map size");
        assert_eq!(edges_covered(&m), 1);
    }

    #[test]
    fn edge_id_spreads_adjacent_sites() {
        let mut slots = std::collections::HashSet::new();
        for site in 0..16 {
            for event in 0..16 {
                for outcome in 0..4 {
                    slots.insert(edge_id(site, event, outcome) as usize & (COVERAGE_MAP_SIZE - 1));
                }
            }
        }
        // 1024 structured events should occupy most of their slot budget.
        assert!(slots.len() > 850, "only {} distinct slots", slots.len());
    }

    #[test]
    fn clear_resets_without_reallocating() {
        let mut m = CoverageMap::new();
        m.hit(1);
        let ptr = m.counts.as_ptr();
        m.clear();
        assert_eq!(edges_covered(&m), 0);
        assert_eq!(ptr, m.counts.as_ptr(), "clear reuses the buffer");
    }
}
