//! Seed-driven generation of P4 programs with entry sets.
//!
//! One canonical two-table skeleton (classify on a header field, then
//! act on the classified metadata) with seed-driven knobs: the classify
//! match kind (exact / ternary / LPM), the entry set, the per-class
//! actions, and the action parameters. Entries are generated alongside
//! the program — Gauntlet-style, the *pair* is the test input — and a
//! candidate is only emitted when it parses, lowers under the default
//! RMT configuration, and passes abstract P4 translation validation
//! with zero mismatches.

use druzhba_analysis::analyze_p4;
use druzhba_core::rng::ValueGen;
use druzhba_core::Value;
use druzhba_dsim::p4::P4Workload;
use druzhba_dsim::shard_seed;
use druzhba_p4::lower::RmtConfig;

use crate::domino::{Reject, RejectStats};
use crate::MAX_ATTEMPTS;

/// Salt mixed into the base seed for P4 candidate derivation (`"P4GE"`).
pub const P4_SALT: u64 = 0x5034_4745;

/// An unvetted P4 candidate: program text plus entry text, the pure
/// function of one candidate seed.
#[derive(Debug, Clone)]
pub struct P4Candidate {
    /// The candidate seed that produced this pair.
    pub seed: u64,
    /// P4 source text.
    pub source: String,
    /// Table entry text (the control-plane half of the pair).
    pub entries: String,
}

/// A vetted generated P4 program, ready for differential testing.
#[derive(Debug, Clone)]
pub struct GeneratedP4 {
    /// Stable name: `p4gen_{base_seed:016x}_{index}`.
    pub name: String,
    /// Program index under `base_seed`.
    pub index: u64,
    /// The base seed generation started from.
    pub base_seed: u64,
    /// The winning candidate seed.
    pub seed: u64,
    /// Candidates rejected before this one, by reason.
    pub rejects: RejectStats,
    /// P4 source text.
    pub source: String,
    /// Table entry text.
    pub entries: String,
    /// The parsed, bound, and lowered workload.
    pub workload: P4Workload,
}

impl GeneratedP4 {
    /// The exact command that regenerates this program.
    pub fn recipe(&self) -> String {
        format!(
            "druzhba generate --p4 --seed {:#x} --index {}",
            self.base_seed, self.index
        )
    }
}

/// The pure candidate function: one seed, one (program, entries) pair.
pub fn p4_candidate(seed: u64) -> P4Candidate {
    let mut rng = ValueGen::new(seed, 32);
    // Knob 1: classify match kind.
    let kind = ["exact", "ternary", "lpm"][rng.value_below(3) as usize];
    // Knob 2: whether the act table's default tallies or is a no-op.
    let act_default = ["tally", "skip"][rng.value_below(2) as usize];
    let source = format!(
        "// progen candidate {seed:#018x}: classify ({kind}) then act.\n\
         header_type pkt_t {{\n\
         \x20   fields {{\n\
         \x20       f0 : 16;\n\
         \x20       f1 : 16;\n\
         \x20       f2 : 16;\n\
         \x20   }}\n\
         }}\n\
         header_type meta_t {{\n\
         \x20   fields {{\n\
         \x20       m0 : 8;\n\
         \x20   }}\n\
         }}\n\
         \n\
         header pkt_t pkt;\n\
         metadata meta_t meta;\n\
         \n\
         parser start {{\n\
         \x20   extract(pkt);\n\
         \x20   return ingress;\n\
         }}\n\
         \n\
         counter hits {{ instance_count : 8; }}\n\
         \n\
         action set_class(c) {{\n\
         \x20   modify_field(meta.m0, c);\n\
         }}\n\
         action bump(delta) {{\n\
         \x20   add_to_field(pkt.f1, delta);\n\
         }}\n\
         action toss() {{\n\
         \x20   drop();\n\
         }}\n\
         action tally() {{\n\
         \x20   count(hits, meta.m0);\n\
         }}\n\
         action skip() {{\n\
         \x20   no_op();\n\
         }}\n\
         \n\
         table classify {{\n\
         \x20   reads {{\n\
         \x20       pkt.f0 : {kind};\n\
         \x20   }}\n\
         \x20   actions {{ set_class; toss; }}\n\
         \x20   size : 8;\n\
         \x20   default_action : toss;\n\
         }}\n\
         table act {{\n\
         \x20   reads {{\n\
         \x20       meta.m0 : exact;\n\
         \x20   }}\n\
         \x20   actions {{ bump; tally; skip; }}\n\
         \x20   size : 8;\n\
         \x20   default_action : {act_default};\n\
         }}\n\
         \n\
         control ingress {{\n\
         \x20   apply(classify);\n\
         \x20   apply(act);\n\
         }}\n"
    );

    // Knob 3: the classify entry set.
    let n_classify = 2 + rng.value_below(3);
    let mut entries = String::new();
    let mut classes: Vec<Value> = Vec::new();
    for _ in 0..n_classify {
        let class = rng.value_below(8);
        if !classes.contains(&class) {
            classes.push(class);
        }
        match kind {
            "exact" => {
                let v = rng.value_below(64);
                entries.push_str(&format!("classify : pkt.f0={v} => set_class({class})\n"));
            }
            "ternary" => {
                let mask = [0x7u32, 0xf, 0x3f][rng.value_below(3) as usize];
                let v = rng.value_below(mask + 1);
                entries.push_str(&format!(
                    "classify : pkt.f0={v}/{mask:#x} => set_class({class})\n"
                ));
            }
            _ => {
                let plen = [4u32, 8, 12][rng.value_below(3) as usize];
                let v = rng.value_below(1 << plen) << (16 - plen);
                entries.push_str(&format!(
                    "classify : pkt.f0={v:#x}/{plen} => set_class({class})\n"
                ));
            }
        }
    }
    // Knob 4: one act entry per class seen, bump or tally.
    for &class in &classes {
        if rng.value_below(2) == 0 {
            let delta = 1 + rng.value_below(9);
            entries.push_str(&format!("act : meta.m0={class} => bump({delta})\n"));
        } else {
            entries.push_str(&format!("act : meta.m0={class} => tally()\n"));
        }
    }
    P4Candidate {
        seed,
        source,
        entries,
    }
}

/// Vet a candidate: parse + bind + lower, then require zero abstract
/// translation-validation mismatches across the lowered backends.
pub fn vet_p4(cand: &P4Candidate) -> Result<P4Workload, Reject> {
    let workload = P4Workload::parse(&cand.source, &cand.entries, &RmtConfig::default())
        .map_err(|_| Reject::Compile)?;
    match analyze_p4(&workload.hlir, &workload.entries, &workload.lowering) {
        Ok(analysis) if analysis.mismatches.is_empty() => {}
        _ => return Err(Reject::Tv),
    }
    Ok(workload)
}

/// Generate P4 program `index` for `base` seed — the P4 counterpart of
/// [`generate_domino_at`](crate::generate_domino_at), with the same
/// index-addressable attempt scheme.
///
/// # Panics
///
/// After [`MAX_ATTEMPTS`] consecutive rejections (generator regression).
pub fn generate_p4_at(base: u64, index: u64) -> GeneratedP4 {
    let mut rejects = RejectStats::default();
    for attempt in 0..MAX_ATTEMPTS {
        let seed = shard_seed(base ^ P4_SALT, (index << 16) | attempt);
        let cand = p4_candidate(seed);
        match vet_p4(&cand) {
            Ok(workload) => {
                return GeneratedP4 {
                    name: format!("p4gen_{base:016x}_{index}"),
                    index,
                    base_seed: base,
                    seed,
                    rejects,
                    source: cand.source,
                    entries: cand.entries,
                    workload,
                };
            }
            Err(r) => rejects.add(r),
        }
    }
    panic!(
        "progen: exhausted {MAX_ATTEMPTS} P4 candidates for base seed {base:#x} index {index} \
         (rejects: {rejects:?})"
    );
}

/// Generate P4 programs `0..count` for a base seed.
pub fn generate_p4(base: u64, count: u64) -> Vec<GeneratedP4> {
    (0..count).map(|i| generate_p4_at(base, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4_candidate_is_deterministic() {
        for seed in [0u64, 42, 0xFEED_FACE] {
            let a = p4_candidate(seed);
            let b = p4_candidate(seed);
            assert_eq!(a.source, b.source);
            assert_eq!(a.entries, b.entries);
        }
    }

    #[test]
    fn generated_p4_parses_and_validates() {
        let g = generate_p4_at(0x000D_122B, 0);
        // The workload rebuilt from the emitted text matches the vetted one.
        let again = P4Workload::parse(&g.source, &g.entries, &RmtConfig::default()).unwrap();
        assert_eq!(again.entries.len(), g.workload.entries.len());
    }
}
