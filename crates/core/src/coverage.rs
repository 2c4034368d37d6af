//! Allocation-free execution-coverage maps for greybox fuzzing.
//!
//! FP4 and Gauntlet (PAPERS.md) show that feedback-driven input generation
//! finds deeper compiler bugs with far fewer executions than blind random
//! traffic. The feedback signal here is an AFL-style **edge-coverage map**:
//! a fixed-size array of saturating `u8` hit counters, indexed by a hashed
//! *edge id*. The interpreters (dgen's four ALU backends, the P4
//! match-action backends, and the reference interpreter) record events into
//! an optional map as they execute:
//!
//! - branch decisions in ALU bodies (if-arm taken, relational-operator
//!   outcomes, bytecode/fused conditional jumps);
//! - multiplexer and opcode-arm selections;
//! - table hit / miss / default-action edges, action-taken edges, and the
//!   drop edge in the P4 engine.
//!
//! The map is a **generation-time allocation**: recording a hit is one
//! masked index and one saturating increment — no heap allocation, no
//! hashing of strings — so instrumentation preserves the fused backend's
//! zero-allocation tick-loop invariant.
//!
//! Hit counts are compared through AFL's logarithmic **buckets** (1, 2, 3,
//! 4–7, 8–15, 16–31, 32–127, 128+): an input is *interesting*, and joins
//! the greybox corpus, when it drives some edge into a higher bucket than
//! any previous input ([`CoverageMap::accumulate_buckets`]). Tests that
//! compare two runs' coverage classes use [`CoverageMap::signature`], an
//! FNV-1a hash of the bucketized map.

/// Number of edge counters in a map. A power of two so edge ids fold in
/// with a mask; 4096 edges is comfortably above what the corpus programs
/// exercise (a few hundred distinct edges) while keeping the map one page.
pub const COVERAGE_MAP_SIZE: usize = 4096;

/// Mix an event site and its outcome into an edge id.
///
/// The three components are multiplied by distinct odd constants and
/// xor-folded, then avalanched, so structurally adjacent sites (stage 0
/// slot 1 vs. stage 1 slot 0) land far apart in the map. Collisions are
/// possible and harmless — AFL-style guidance tolerates them.
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

/// AFL's logarithmic hit-count bucketing: collapses raw counts into 9
/// classes so "executed 37 times" and "executed 41 times" compare equal,
/// while "never" / "once" / "a few" / "many" stay distinct.
#[inline]
pub fn bucket(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 3,
        4..=7 => 4,
        8..=15 => 5,
        16..=31 => 6,
        32..=127 => 7,
        _ => 8,
    }
}

/// A fixed-size edge-coverage map: `COVERAGE_MAP_SIZE` saturating `u8`
/// hit counters. One heap allocation at construction; recording is
/// allocation-free.
///
/// The same type serves two roles, mirrored by its two mutating APIs:
/// a **per-execution map** filled by [`CoverageMap::hit`] (raw counts),
/// and an **accumulator** updated by [`CoverageMap::accumulate_buckets`]
/// (per-edge maximum *bucket* observed across executions).
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

    /// Number of edges with a nonzero counter.
    pub fn edges_covered(&self) -> usize {
        self.counts.iter().filter(|&&c| c != 0).count()
    }

    /// True if no edge was hit.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Zero every counter (reuse a map across executions without
    /// reallocating).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Merge another per-execution map into this one by saturating
    /// addition (used to combine the coverage of the two sides of one
    /// differential execution).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(src);
        }
    }

    /// Treating `self` as a per-edge *maximum-bucket* accumulator, fold in
    /// one execution's raw-count map. Returns `true` if the execution
    /// drove any edge into a higher bucket than previously observed — the
    /// greybox "interesting input" predicate.
    pub fn accumulate_buckets(&mut self, run: &CoverageMap) -> bool {
        let mut interesting = false;
        // A run's map is mostly zero: skip it eight counters at a time.
        for (acc, raw) in self
            .counts
            .chunks_exact_mut(8)
            .zip(run.counts.chunks_exact(8))
        {
            let word: [u8; 8] = raw.try_into().expect("chunks of eight");
            if u64::from_ne_bytes(word) == 0 {
                continue;
            }
            for (acc, &raw) in acc.iter_mut().zip(raw) {
                let b = bucket(raw);
                if b > *acc {
                    *acc = b;
                    interesting = true;
                }
            }
        }
        interesting
    }

    /// The raw counter array, for checkpointing. Together with
    /// [`CoverageMap::from_bytes`] this round-trips a map exactly, so a
    /// resumed greybox campaign sees the identical accumulator state.
    pub fn as_bytes(&self) -> &[u8] {
        &self.counts[..]
    }

    /// Reconstruct a map from [`CoverageMap::as_bytes`] output. Returns
    /// `None` if `bytes` is not exactly `COVERAGE_MAP_SIZE` long (a
    /// truncated or corrupt snapshot).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; COVERAGE_MAP_SIZE] = bytes.try_into().ok()?;
        Some(CoverageMap {
            counts: Box::new(arr),
        })
    }

    /// FNV-1a hash over the bucketized counters: stable across processes
    /// and platforms (pure integer arithmetic), and invariant under
    /// raw-count jitter within a bucket.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &c in self.counts.iter() {
            h ^= u64::from(bucket(c));
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_accumulate_and_saturate() {
        let mut m = CoverageMap::new();
        assert!(m.is_empty());
        for _ in 0..300 {
            m.hit(7);
        }
        assert_eq!(m.count(7), 255, "counter saturates, never wraps");
        m.hit(7);
        assert_eq!(m.count(7), 255);
        assert_eq!(m.edges_covered(), 1);
    }

    #[test]
    fn edges_fold_by_mask() {
        let mut m = CoverageMap::new();
        m.hit(3);
        m.hit(3 + COVERAGE_MAP_SIZE as u32);
        assert_eq!(m.count(3), 2, "ids fold modulo the map size");
        assert_eq!(m.edges_covered(), 1);
    }

    #[test]
    fn bucket_classes_are_monotonic() {
        let mut last = 0;
        for c in 0..=255u8 {
            let b = bucket(c);
            assert!(b >= last, "buckets are monotone in the count");
            last = b;
        }
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(4), bucket(7));
        assert_ne!(bucket(7), bucket(8));
        assert_eq!(bucket(255), 8);
    }

    #[test]
    fn merge_is_saturating_elementwise_addition() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        a.hit(1);
        for _ in 0..200 {
            a.hit(2);
            b.hit(2);
        }
        b.hit(3);
        a.merge(&b);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.count(2), 255, "merge saturates");
        assert_eq!(a.count(3), 1);
        assert_eq!(a.edges_covered(), 3);
    }

    #[test]
    fn accumulate_buckets_detects_new_coverage_only() {
        let mut global = CoverageMap::new();
        let mut run = CoverageMap::new();
        run.hit(5);
        assert!(global.accumulate_buckets(&run), "first hit is new");
        assert!(
            !global.accumulate_buckets(&run),
            "same coverage again is not"
        );
        // Same edge, higher bucket: interesting again.
        for _ in 0..7 {
            run.hit(5);
        }
        assert!(global.accumulate_buckets(&run), "bucket escalation is new");
        // Raw-count jitter within a bucket: not interesting.
        run.clear();
        for _ in 0..6 {
            run.hit(5);
        }
        assert!(!global.accumulate_buckets(&run));
    }

    #[test]
    fn signature_is_stable_and_bucket_invariant() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        for _ in 0..5 {
            a.hit(9);
        }
        for _ in 0..6 {
            b.hit(9); // same bucket (4..=7) as five hits
        }
        assert_eq!(a.signature(), b.signature(), "same buckets, same key");
        b.hit(10);
        assert_ne!(a.signature(), b.signature());
        // Pinned value: the corpus key must stay stable across releases,
        // or every recorded greybox report silently invalidates.
        assert_eq!(CoverageMap::new().signature(), {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for _ in 0..COVERAGE_MAP_SIZE {
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        });
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
        assert!(m.is_empty());
        assert_eq!(ptr, m.counts.as_ptr(), "clear reuses the buffer");
    }
}
