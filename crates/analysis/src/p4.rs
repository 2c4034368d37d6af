//! Abstract analysis of the P4 stack, read off its symbolic executors: the
//! source match-action semantics on one side, as the resolved tables of
//! the `OptLevel::Scc` pipeline, the lowered fused `MatInstr` program
//! built from those tables on the other, and translation validation
//! between them.
//!
//! [`analyze_p4`] runs both executors of [`crate::symbolic`] once, into
//! one [`TermStore`] and from one symbolic entry state, and merges each
//! side's paths into one term per layout container and register cell.
//! The symbolic verdict compares those terms through the same loop as the
//! Domino stack's.
//! Registers persist across packets, so each side's register terms go
//! through the join/widen fixpoint shared with the Domino stack
//! ([`crate::pipeline`]); the frame terms are then evaluated there with
//! [`TermStore::abs_eval`]. The entry lints come from the table-entry hits
//! the source executor records: an entry none of whose hits lies on an
//! abstractly possible path can never match.

use std::collections::{BTreeMap, BTreeSet};

use druzhba_core::Result;
use druzhba_dgen::mat::{MatInstr, MatPipeline};
use druzhba_dgen::OptLevel;
use druzhba_p4::ast::{ActionArg, FieldRef, MatchKind, Primitive};
use druzhba_p4::hlir::Hlir;
use druzhba_p4::lower::RmtLowering;
use druzhba_p4::tables::{bind, TableEntry};

use crate::domain::AbsVal;
use crate::pipeline::{fixpoint, read_sites, LintRecord};
use crate::symbolic::{
    compare_transfers, merge_paths, p4_entry_path, p4_site, sym_run_hlir, sym_run_mat, Site, Sites,
    SymbolicVerdict,
};
use crate::term::{Sym, TermId, TermStore};

/// The abstraction of one side of the P4 stack at its register fixpoint.
#[derive(Debug, Clone)]
pub struct P4Abs {
    /// One value per layout container, drop flag included.
    pub frame: Vec<AbsVal>,
    /// Output field values (the containers of `frame` by field).
    pub fields: BTreeMap<FieldRef, AbsVal>,
    /// The drop flag (`{0,1}`).
    pub dropped: AbsVal,
    /// Register cells by declaration name.
    pub registers: BTreeMap<String, Vec<AbsVal>>,
}

/// A disjoint pair of abstractions for the same P4 observable.
#[derive(Debug, Clone, PartialEq)]
pub struct P4TvMismatch {
    /// Human-readable site (`pkt.dst`, `drop`, `reg[3]`).
    pub site: String,
    pub hlir: AbsVal,
    pub lowered: AbsVal,
}

/// The static pass over one P4 workload.
#[derive(Debug, Clone)]
pub struct P4Analysis {
    /// The source semantics: the Scc level's resolved tables.
    pub hlir: P4Abs,
    /// The lowered fused `MatInstr` program.
    pub mat: P4Abs,
    /// Observables whose two abstractions are disjoint. An empty list does
    /// not prove equivalence; a non-empty one proves a miscompilation.
    pub mismatches: Vec<P4TvMismatch>,
    /// Lints: `stage` is the applied-table index.
    pub lints: Vec<LintRecord>,
    /// Symbolic validation of the lowered program against the HLIR over
    /// every field, the drop flag and every register cell.
    pub symbolic: SymbolicVerdict,
}

/// The abstract input the P4 passes share: parser-visible header fields
/// bounded by their declared width, metadata and the drop flag zero
/// (mirroring the traffic generator's initialization).
pub fn abstract_input(hlir: &Hlir, lowering: &RmtLowering) -> BTreeMap<FieldRef, AbsVal> {
    lowering
        .layout
        .fields()
        .iter()
        .map(|(f, width)| {
            let meta = hlir
                .program
                .header(&f.header)
                .map(|h| h.metadata)
                .unwrap_or(false);
            let abs = if meta {
                AbsVal::constant(0)
            } else {
                AbsVal::bits((*width).min(32))
            };
            (f.clone(), abs)
        })
        .collect()
}

/// Abstractly run the source semantics (the resolved tables of the
/// `OptLevel::Scc` pipeline) and the lowered fused program over `entries`
/// from [`abstract_input`], validate one against the other (abstractly
/// and symbolically), and lint the program. An executor that bails leaves
/// its side all top and the verdict `Unknown`, and a bail of the source
/// executor leaves only the structural lints.
pub fn analyze_p4(
    hlir: &Hlir,
    entries: &[TableEntry],
    lowering: &RmtLowering,
) -> Result<P4Analysis> {
    let scc = MatPipeline::generate(hlir, entries, lowering, OptLevel::Scc)?;
    let fused = MatPipeline::generate(hlir, entries, lowering, OptLevel::Fused)?;
    let prog = fused
        .fused_program()
        .expect("fused level exposes its program");
    analyze_lowered(hlir, entries, lowering, &scc, prog)
}

/// [`analyze_p4`] of the source semantics, the resolved tables of the
/// [`OptLevel::Scc`] pipeline `scc`, against the lowered program `prog`.
fn analyze_lowered(
    hlir: &Hlir,
    entries: &[TableEntry],
    lowering: &RmtLowering,
    scc: &MatPipeline,
    prog: &[MatInstr],
) -> Result<P4Analysis> {
    let tables = bind(hlir, entries)?;
    let layout = &lowering.layout;
    let reg_file = scc.register_layout();
    // Both transfer functions in one store, from one entry state whose
    // symbols carry the abstract input.
    let mut store = TermStore::new();
    let entry = p4_entry_path(&mut store, hlir, lowering, reg_file);
    let input: Vec<AbsVal> = entry.frame.iter().map(|&t| store.abs(t)).collect();
    let value = |s: Sym, regs: &[AbsVal]| match s {
        Sym::Phv(c) => input[c as usize],
        Sym::RegCell(i) => regs[i as usize],
        Sym::State { .. } => AbsVal::top(),
    };
    let mut sites = Sites::default();
    let source = sym_run_hlir(&mut store, scc, entry.clone(), &mut sites)
        .and_then(|paths| merge_paths(&mut store, &paths));
    let lowered =
        sym_run_mat(&mut store, prog, entry).and_then(|paths| merge_paths(&mut store, &paths));
    let run = |transfer: Option<&Vec<TermId>>| match transfer {
        Some(t) => {
            let (frame, regs) = t.split_at(layout.phv_length());
            fixpoint(&store, frame, regs, value)
        }
        None => (
            vec![AbsVal::top(); layout.phv_length()],
            vec![AbsVal::top(); reg_file.total()],
        ),
    };
    let (hframe, hregs) = run(source.as_ref());
    let (mframe, mregs) = run(lowered.as_ref());

    let mismatches = hframe
        .iter()
        .chain(&hregs)
        .zip(mframe.iter().chain(&mregs))
        .enumerate()
        .filter(|(_, (h, m))| h.is_disjoint(**m))
        .map(|(i, (&hlir_abs, &lowered_abs))| P4TvMismatch {
            site: p4_site(lowering, reg_file, i),
            hlir: hlir_abs,
            lowered: lowered_abs,
        })
        .collect();

    let mut lints = static_lints(hlir, entries);
    // A bail leaves the recorded hits partial: read none of them.
    if source.is_some() {
        let seen = read_sites(&store, &sites, &|s| value(s, &hregs));
        for (t, info) in hlir.tables.iter().enumerate() {
            if !hlir.table_applies(t) {
                continue;
            }
            for (ei, e) in tables.table(t).entries.iter().enumerate() {
                let hit = Site::Entry {
                    table: t as u32,
                    entry: ei as u32,
                };
                let (code, what) = if !seen.contains_key(&hit) {
                    ("unreachable-entry", "can never match any reachable packet")
                } else if e
                    .patterns
                    .iter()
                    .any(|p| matches!(p.kind, MatchKind::Lpm) && p.lpm_len() == 0)
                {
                    (
                        "lpm-always-match",
                        "uses a zero-length LPM prefix (matches every packet)",
                    )
                } else {
                    continue;
                };
                lints.push(LintRecord {
                    stage: t as u32,
                    pc: 1 + ei as u32,
                    code,
                    message: format!("entry {ei} of table `{}` {what}", info.name),
                });
            }
        }
    }

    let side = |frame: Vec<AbsVal>, regs: Vec<AbsVal>| P4Abs {
        fields: layout
            .fields()
            .iter()
            .filter_map(|(f, _)| Some((f.clone(), frame[layout.container(f)?])))
            .collect(),
        dropped: frame[layout.drop_flag()],
        registers: reg_file
            .objects()
            .map(|(name, base, len)| (name.to_string(), regs[base..base + len].to_vec()))
            .collect(),
        frame,
    };
    let symbolic = compare_transfers(
        &store,
        ("mat", source),
        [("mat", lowered)],
        |i| p4_site(lowering, reg_file, i),
        layout.phv_length(),
    );
    Ok(P4Analysis {
        hlir: side(hframe, hregs),
        mat: side(mframe, mregs),
        mismatches,
        lints,
        symbolic,
    })
}

/// Purely structural lints: tables behind a statically false validity
/// guard, unused table actions, and reads of never-extracted (invalid)
/// headers.
fn static_lints(hlir: &Hlir, entries: &[TableEntry]) -> Vec<LintRecord> {
    let mut out = Vec::new();
    for (t, info) in hlir.tables.iter().enumerate() {
        if !hlir.table_applies(t) {
            out.push(LintRecord {
                stage: t as u32,
                pc: 0,
                code: "unreachable-table",
                message: format!(
                    "table `{}` is guarded by a statically-false header-validity \
                     condition and can never apply",
                    info.name
                ),
            });
        }
        // Actions declared on a table but bound by no entry and not the
        // default: unreachable.
        let Some(decl) = hlir.program.table(&info.name) else {
            continue;
        };
        let used: BTreeSet<&str> = entries
            .iter()
            .filter(|e| e.table == info.name)
            .map(|e| e.action.as_str())
            .collect();
        for (ai, action) in decl.actions.iter().enumerate() {
            let is_default = decl.default_action.as_deref() == Some(action.as_str());
            if !used.contains(action.as_str()) && !is_default {
                out.push(LintRecord {
                    stage: t as u32,
                    pc: 0x100 + ai as u32,
                    code: "unreachable-action",
                    message: format!(
                        "action `{action}` of table `{}` is bound by no entry and is \
                         not the default",
                        info.name
                    ),
                });
            }
        }
    }
    // Reads of fields whose header is never extracted (and is not
    // metadata): the value is never parsed from the wire.
    let valid = |f: &FieldRef| -> bool { hlir.header_valid(&f.header) };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut note_read = |t: usize, f: &FieldRef, out: &mut Vec<LintRecord>| {
        if !valid(f) && seen.insert(f.to_string()) {
            out.push(LintRecord {
                stage: t as u32,
                pc: 0x200,
                code: "invalid-header-read",
                message: format!(
                    "field `{f}` is read, but its header is never extracted by the parser"
                ),
            });
        }
    };
    let read_args = |prim: &Primitive| -> Vec<FieldRef> {
        let arg_field = |a: &ActionArg| match a {
            ActionArg::Field(f) => Some(f.clone()),
            _ => None,
        };
        match prim {
            Primitive::ModifyField { src, .. }
            | Primitive::AddToField { src, .. }
            | Primitive::SubtractFromField { src, .. } => arg_field(src).into_iter().collect(),
            Primitive::RegisterRead { index, .. } => arg_field(index).into_iter().collect(),
            Primitive::RegisterWrite { index, src, .. } => {
                arg_field(index).into_iter().chain(arg_field(src)).collect()
            }
            Primitive::Count { index, .. } => arg_field(index).into_iter().collect(),
            Primitive::Drop | Primitive::NoOp => Vec::new(),
        }
    };
    for (t, info) in hlir.tables.iter().enumerate() {
        for (f, _) in &info.match_fields {
            note_read(t, f, &mut out);
        }
        let mut actions: BTreeSet<&str> = entries
            .iter()
            .filter(|e| e.table == info.name)
            .map(|e| e.action.as_str())
            .collect();
        if let Some(decl) = hlir.program.table(&info.name) {
            if let Some(d) = &decl.default_action {
                actions.insert(d.as_str());
            }
        }
        for name in actions {
            if let Some(action) = hlir.program.action(name) {
                for prim in &action.body {
                    for f in read_args(prim) {
                        note_read(t, &f, &mut out);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use druzhba_dgen::mat::Src;
    use druzhba_p4::{lower::lower, parse_entries, parse_p4, RmtConfig};

    /// One exact-match table keyed on a metadata field, which is 0 on
    /// every packet: its one entry always hits, so `h.x` is the constant
    /// the entry binds on every path.
    const ONE_ENTRY: &str = "
        header_type h_t { fields { x : 8; } }
        header_type m_t { fields { k : 8; } }
        header h_t h;
        metadata m_t m;
        parser start { extract(h); return ingress; }
        action set_x(v) { modify_field(h.x, v); }
        table t { reads { m.k : exact; } actions { set_x; } size : 4; }
        control ingress { apply(t); }
    ";

    #[test]
    fn translation_validation_flags_an_altered_lowered_constant() {
        let hlir = parse_p4(ONE_ENTRY).expect("parses");
        let entries = parse_entries("t : m.k=0 => set_x(5)\n").expect("entries parse");
        let lowering = lower(&hlir, &RmtConfig::default()).expect("lowers");
        let generate = |level| MatPipeline::generate(&hlir, &entries, &lowering, level);
        let scc = generate(OptLevel::Scc).expect("generates");
        let mat = generate(OptLevel::Fused).expect("generates");
        let mut prog = mat.fused_program().expect("fused program").to_vec();

        let clean = analyze_lowered(&hlir, &entries, &lowering, &scc, &prog).expect("analyzes");
        assert_eq!(clean.mismatches, [], "the faithful lowering validates");

        let set = prog
            .iter_mut()
            .find_map(|i| match i {
                MatInstr::Set {
                    src: Src::Const(v @ 5),
                    ..
                } => Some(v),
                _ => None,
            })
            .expect("the lowered program sets h.x to 5");
        *set = 6;
        let altered = analyze_lowered(&hlir, &entries, &lowering, &scc, &prog).expect("analyzes");
        assert_eq!(
            altered.mismatches,
            [P4TvMismatch {
                site: "h.x".to_string(),
                hlir: AbsVal::constant(5),
                lowered: AbsVal::constant(6),
            }]
        );
    }
}
