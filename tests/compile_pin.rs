//! Pins the compiler's output. Each compile result is rendered in full —
//! machine code, input fields, output fields and state cells, or the
//! error — and FNV-1a digested, so any change to what synthesis picks
//! (hole values, grouping, placement, failure messages) fails here even
//! where every downstream fuzz run would still pass. The goldens under
//! `tests/golden/` and the generate sweep's digests hold reports, not
//! machine code, so without this a refactor of the synthesis engine could
//! silently change the generated code.
//!
//! Two sweeps: the 12 Table 1 programs on their own grids at several
//! verification widths (the narrow ones reproduce the paper's §5.2
//! limited-range class, so they exercise the picks that are wrong on
//! purpose), and a run of raw `domino_candidate` seeds, vetted or not, as
//! the generate sweep compiles them.

use druzhba::chipmunk::{compile, CompiledProgram, CompilerConfig};
use druzhba::core::Result;
use druzhba::domino::parse_program;
use druzhba::dsim::snapshot::fnv1a;
use druzhba::progen::domino_candidate;
use druzhba::programs::PROGRAMS;

/// Every field of a compile result that later stages read, or the error.
fn render(result: &Result<CompiledProgram>) -> String {
    match result {
        Ok(c) => format!(
            "{}inputs {:?}\noutputs {:?}\nstate {:?}\n",
            c.machine_code.to_text(),
            c.input_fields,
            c.output_fields,
            c.state_cells
        ),
        Err(e) => format!("error: {e}\n"),
    }
}

const VERIFY_BITS: [u32; 5] = [1, 2, 3, 4, 10];

/// Digest per corpus program, one per entry of [`VERIFY_BITS`].
const CORPUS_DIGESTS: [(&str, [u64; 5]); 12] = [
    (
        "blue_decrease",
        [
            0xa72a_c36a_2542_8ce7,
            0x903c_90f3_6586_5518,
            0x903c_90f3_6586_5518,
            0x903c_90f3_6586_5518,
            0x903c_90f3_6586_5518,
        ],
    ),
    (
        "blue_increase",
        [
            0x886f_688a_c6c7_ad4c,
            0x886f_688a_c6c7_ad4c,
            0x886f_688a_c6c7_ad4c,
            0x886f_688a_c6c7_ad4c,
            0x886f_688a_c6c7_ad4c,
        ],
    ),
    (
        "sampling",
        [
            0x253c_98cf_83a8_f230,
            0x253c_98cf_83a8_f230,
            0x253c_98cf_83a8_f230,
            0x5789_8b4e_6bac_0d4f,
            0x5789_8b4e_6bac_0d4f,
        ],
    ),
    (
        "marple_new_flow",
        [
            0x1d5d_7fa0_9201_e90c,
            0x52ca_d9d8_fbb2_7d47,
            0x52ca_d9d8_fbb2_7d47,
            0x52ca_d9d8_fbb2_7d47,
            0x52ca_d9d8_fbb2_7d47,
        ],
    ),
    (
        "marple_tcp_nmo",
        [
            0xb8b9_7965_bc43_8f66,
            0xb8b9_7965_bc43_8f66,
            0xb8b9_7965_bc43_8f66,
            0xb8b9_7965_bc43_8f66,
            0xb8b9_7965_bc43_8f66,
        ],
    ),
    (
        "snap_heavy_hitter",
        [
            0x1adb_a171_1a99_0188,
            0x1adb_a171_1a99_0188,
            0x1adb_a171_1a99_0188,
            0x1adb_a171_1a99_0188,
            0xdfe7_3eca_084e_dce3,
        ],
    ),
    (
        "stateful_firewall",
        [
            0x9ee5_8cb1_e3c4_517d,
            0x36b7_4220_3deb_0deb,
            0x36b7_4220_3deb_0deb,
            0x36b7_4220_3deb_0deb,
            0xa060_8f2b_6ab6_73b0,
        ],
    ),
    (
        "flowlets",
        [
            0x8662_fa9c_5e5a_c96d,
            0x8662_fa9c_5e5a_c96d,
            0x8662_fa9c_5e5a_c96d,
            0x8662_fa9c_5e5a_c96d,
            0x8662_fa9c_5e5a_c96d,
        ],
    ),
    (
        "learn_filter",
        [
            0xfa8f_120c_bcf9_64dd,
            0x2ac2_413c_360b_f695,
            0x2ac2_413c_360b_f695,
            0x2ac2_413c_360b_f695,
            0x2ac2_413c_360b_f695,
        ],
    ),
    (
        "rcp",
        [
            0xff78_f278_9216_9864,
            0xff78_f278_9216_9864,
            0xff78_f278_9216_9864,
            0xff78_f278_9216_9864,
            0x85df_1a51_ae6f_d38b,
        ],
    ),
    (
        "conga",
        [
            0x73d5_c7d8_2462_051c,
            0x73d5_c7d8_2462_051c,
            0x73d5_c7d8_2462_051c,
            0x73d5_c7d8_2462_051c,
            0x09bd_ff5b_de54_29ad,
        ],
    ),
    (
        "spam_detection",
        [
            0x5afe_94b4_8479_7c3d,
            0x5afe_94b4_8479_7c3d,
            0x5afe_94b4_8479_7c3d,
            0x5afe_94b4_8479_7c3d,
            0xf277_19df_4670_9f61,
        ],
    ),
];

#[test]
fn corpus_machine_code_is_pinned() {
    assert_eq!(CORPUS_DIGESTS.len(), PROGRAMS.len());
    let mut mismatches = Vec::new();
    for (def, (name, want)) in PROGRAMS.iter().zip(&CORPUS_DIGESTS) {
        assert_eq!(def.name, *name, "corpus order");
        let program = def.parse();
        for (bits, &want) in VERIFY_BITS.iter().zip(want) {
            let mut cfg = def.compiler_config();
            cfg.synth.verify_bits = *bits;
            let got = fnv1a(render(&compile(&program, &cfg)).as_bytes());
            if got != want {
                mismatches.push(format!("{name} @ {bits} bits: {got:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Candidate seeds `0..GEN_SEEDS`, compiled on their own grids.
const GEN_SEEDS: u64 = 150;
const GEN_DIGEST: u64 = 0x5f44_f1ef_cf4b_6e9b;

#[test]
fn generated_machine_code_is_pinned() {
    let mut all = String::new();
    for seed in 0..GEN_SEEDS {
        let cand = domino_candidate(seed);
        let program = parse_program(&cand.source).expect("candidates round-trip");
        let cfg = CompilerConfig::new(cand.grid.depth, cand.grid.width, cand.grid.atom);
        all.push_str(&format!("seed {seed}\n"));
        all.push_str(&render(&compile(&program, &cfg)));
    }
    assert_eq!(
        fnv1a(all.as_bytes()),
        GEN_DIGEST,
        "{:#018x}",
        fnv1a(all.as_bytes())
    );
}
