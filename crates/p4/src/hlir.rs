//! High-level IR: name resolution and per-table read/write analysis.
//!
//! Paper §4.1: *"Static analysis is performed … on the initial P4 file to
//! extract data about the program such as header-types, packet fields,
//! actions, matches"*. The [`Hlir`] packages that analysis: the flattened
//! field list, and — per applied table — its match fields, the fields its
//! actions read and write, and the stateful objects it touches. These sets
//! feed the dependency classification in [`crate::deps`].

use std::collections::BTreeSet;

use druzhba_core::{Error, Result};

use crate::ast::{ActionArg, ControlStmt, FieldRef, MatchKind, P4Program, Primitive};

/// Read/write analysis of one applied table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Fields matched on, with match kinds.
    pub match_fields: Vec<(FieldRef, MatchKind)>,
    /// Fields read by any of the table's actions.
    pub action_reads: BTreeSet<FieldRef>,
    /// Fields written by any of the table's actions.
    pub writes: BTreeSet<FieldRef>,
    /// Registers/counters touched by any action.
    pub stateful: BTreeSet<String>,
    /// Nesting depth in the control program (0 = top level); used for
    /// successor-dependency classification.
    pub control_depth: usize,
    /// Validity guards on the path to this table's `apply`: `(header,
    /// polarity)` — the table runs only if each listed header's validity
    /// matches the polarity.
    pub guards: Vec<(String, bool)>,
}

/// A resolved program.
#[derive(Debug, Clone)]
pub struct Hlir {
    /// The underlying AST.
    pub program: P4Program,
    /// Every field of every instance, with its width, in declaration
    /// order.
    pub fields: Vec<(FieldRef, u32)>,
    /// Applied tables in control-flow order, with analysis.
    pub tables: Vec<TableInfo>,
}

impl Hlir {
    /// Width of a field.
    pub fn field_width(&self, field: &FieldRef) -> Option<u32> {
        self.fields
            .iter()
            .find(|(f, _)| f == field)
            .map(|&(_, w)| w)
    }

    /// Index of an applied table by name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// Whether a header instance is valid at ingress. Metadata is always
    /// valid; a header is valid iff the (linear, unconditional) parser
    /// extracts it — so validity is a static property of the program, not
    /// of individual packets.
    pub fn header_valid(&self, name: &str) -> bool {
        match self.program.header(name) {
            Some(h) if h.metadata => true,
            Some(_) => self.program.parser_extracts.iter().any(|e| e == name),
            None => false,
        }
    }

    /// Whether applied table `t` can run: every validity guard on the path
    /// to its `apply` holds. Validity is static, so a table is either
    /// applied on every packet or on none.
    pub fn table_applies(&self, t: usize) -> bool {
        self.tables[t]
            .guards
            .iter()
            .all(|(h, pol)| self.header_valid(h) == *pol)
    }
}

/// Resolve and analyse a parsed program.
pub fn resolve(program: P4Program) -> Result<Hlir> {
    let err = |message: String| Error::P4Parse { line: 0, message };

    // Every name is declared once per kind: a lookup by name finds the
    // one declaration every layer resolves to.
    check_unique("header type", program.header_types.iter().map(|d| &d.name))?;
    check_unique("header instance", program.headers.iter().map(|d| &d.name))?;
    check_unique("register", program.registers.iter().map(|d| &d.name))?;
    check_unique("counter", program.counters.iter().map(|d| &d.name))?;
    check_unique("action", program.actions.iter().map(|d| &d.name))?;
    check_unique("table", program.tables.iter().map(|d| &d.name))?;

    // Flattened field list.
    let mut fields = Vec::new();
    for instance in &program.headers {
        let ty = program.header_type(&instance.type_name).ok_or_else(|| {
            err(format!(
                "instance `{}` references unknown header type `{}`",
                instance.name, instance.type_name
            ))
        })?;
        for (fname, width) in &ty.fields {
            fields.push((
                FieldRef {
                    header: instance.name.clone(),
                    field: fname.clone(),
                },
                *width,
            ));
        }
    }
    let known_field = |f: &FieldRef| fields.iter().any(|(g, _)| g == f);

    // Parser extracts resolve to non-metadata headers.
    for extract in &program.parser_extracts {
        match program.header(extract) {
            None => return Err(err(format!("parser extracts unknown header `{extract}`"))),
            Some(h) if h.metadata => {
                return Err(err(format!("parser cannot extract metadata `{extract}`")))
            }
            Some(_) => {}
        }
    }

    // Actions: every referenced field/register/counter/param resolves.
    let reg_names: BTreeSet<&str> = program.registers.iter().map(|r| r.name.as_str()).collect();
    let counter_names: BTreeSet<&str> = program.counters.iter().map(|c| c.name.as_str()).collect();
    for action in &program.actions {
        let check_arg = |arg: &ActionArg| -> Result<()> {
            match arg {
                ActionArg::Field(f) if !known_field(f) => Err(err(format!(
                    "action `{}`: unknown field `{f}`",
                    action.name
                ))),
                ActionArg::Param(p) if !action.params.contains(p) => Err(err(format!(
                    "action `{}`: unknown parameter `{p}`",
                    action.name
                ))),
                ActionArg::Stateful(s)
                    if !reg_names.contains(s.as_str()) && !counter_names.contains(s.as_str()) =>
                {
                    Err(err(format!(
                        "action `{}`: `{s}` is neither a parameter nor a register/counter",
                        action.name
                    )))
                }
                _ => Ok(()),
            }
        };
        for prim in &action.body {
            match prim {
                Primitive::ModifyField { dst, src }
                | Primitive::AddToField { dst, src }
                | Primitive::SubtractFromField { dst, src } => {
                    if !known_field(dst) {
                        return Err(err(format!(
                            "action `{}`: unknown field `{dst}`",
                            action.name
                        )));
                    }
                    check_arg(src)?;
                }
                Primitive::RegisterRead {
                    dst,
                    register,
                    index,
                } => {
                    if !known_field(dst) {
                        return Err(err(format!(
                            "action `{}`: unknown field `{dst}`",
                            action.name
                        )));
                    }
                    if !reg_names.contains(register.as_str()) {
                        return Err(err(format!(
                            "action `{}`: unknown register `{register}`",
                            action.name
                        )));
                    }
                    check_arg(index)?;
                }
                Primitive::RegisterWrite {
                    register,
                    index,
                    src,
                } => {
                    if !reg_names.contains(register.as_str()) {
                        return Err(err(format!(
                            "action `{}`: unknown register `{register}`",
                            action.name
                        )));
                    }
                    check_arg(index)?;
                    check_arg(src)?;
                }
                Primitive::Count { counter, index } => {
                    if !counter_names.contains(counter.as_str()) {
                        return Err(err(format!(
                            "action `{}`: unknown counter `{counter}`",
                            action.name
                        )));
                    }
                    check_arg(index)?;
                }
                Primitive::Drop | Primitive::NoOp => {}
            }
        }
    }

    // Tables: reads resolve, actions exist.
    for table in &program.tables {
        for (f, _) in &table.reads {
            if !known_field(f) {
                return Err(err(format!("table `{}`: unknown field `{f}`", table.name)));
            }
        }
        for a in &table.actions {
            if program.action(a).is_none() {
                return Err(err(format!("table `{}`: unknown action `{a}`", table.name)));
            }
        }
        if let Some(d) = &table.default_action {
            if !table.actions.contains(d) {
                return Err(err(format!(
                    "table `{}`: default action `{d}` is not in the actions list",
                    table.name
                )));
            }
        }
    }

    // Control: applied tables exist, valid() headers exist; collect order
    // with nesting depth and guard paths.
    let mut ordered: Vec<AppliedTable> = Vec::new();
    collect_control(&program, &program.control, 0, &mut Vec::new(), &mut ordered)?;

    // Per-table analysis.
    let mut tables = Vec::new();
    for (tname, control_depth, guards) in ordered {
        let decl = program.table(&tname).expect("validated");
        let mut action_reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        let mut stateful = BTreeSet::new();
        for aname in &decl.actions {
            let action = program.action(aname).expect("validated");
            for prim in &action.body {
                match prim {
                    Primitive::ModifyField { dst, src } => {
                        writes.insert(dst.clone());
                        if let ActionArg::Field(f) = src {
                            action_reads.insert(f.clone());
                        }
                    }
                    Primitive::AddToField { dst, src }
                    | Primitive::SubtractFromField { dst, src } => {
                        writes.insert(dst.clone());
                        action_reads.insert(dst.clone());
                        if let ActionArg::Field(f) = src {
                            action_reads.insert(f.clone());
                        }
                    }
                    Primitive::RegisterRead {
                        dst,
                        register,
                        index,
                    } => {
                        writes.insert(dst.clone());
                        stateful.insert(register.clone());
                        if let ActionArg::Field(f) = index {
                            action_reads.insert(f.clone());
                        }
                    }
                    Primitive::RegisterWrite {
                        register,
                        index,
                        src,
                    } => {
                        stateful.insert(register.clone());
                        for arg in [index, src] {
                            if let ActionArg::Field(f) = arg {
                                action_reads.insert(f.clone());
                            }
                        }
                    }
                    Primitive::Count { counter, index } => {
                        stateful.insert(counter.clone());
                        if let ActionArg::Field(f) = index {
                            action_reads.insert(f.clone());
                        }
                    }
                    Primitive::Drop | Primitive::NoOp => {}
                }
            }
        }
        tables.push(TableInfo {
            name: tname,
            match_fields: decl.reads.clone(),
            action_reads,
            writes,
            stateful,
            control_depth,
            guards,
        });
    }

    Ok(Hlir {
        program,
        fields,
        tables,
    })
}

/// Reject a name that two declarations of `kind` share.
fn check_unique<'a>(kind: &str, mut names: impl Iterator<Item = &'a String>) -> Result<()> {
    let mut seen = BTreeSet::new();
    match names.find(|n| !seen.insert(*n)) {
        Some(name) => Err(Error::P4Parse {
            line: 0,
            message: format!("{kind} `{name}` is declared more than once"),
        }),
        None => Ok(()),
    }
}

/// One `apply` site in control order: table name, control-nesting depth,
/// and the `(header, negated)` validity-guard path leading to it.
type AppliedTable = (String, usize, Vec<(String, bool)>);

fn collect_control(
    program: &P4Program,
    stmts: &[ControlStmt],
    depth: usize,
    guards: &mut Vec<(String, bool)>,
    out: &mut Vec<AppliedTable>,
) -> Result<()> {
    for s in stmts {
        match s {
            ControlStmt::Apply(t) => {
                if program.table(t).is_none() {
                    return Err(Error::P4Parse {
                        line: 0,
                        message: format!("control applies unknown table `{t}`"),
                    });
                }
                if out.iter().any(|(name, _, _)| name == t) {
                    return Err(Error::P4Parse {
                        line: 0,
                        message: format!("table `{t}` applied more than once"),
                    });
                }
                out.push((t.clone(), depth, guards.clone()));
            }
            ControlStmt::IfValid {
                header,
                then_body,
                else_body,
            } => {
                if program.header(header).is_none() {
                    return Err(Error::P4Parse {
                        line: 0,
                        message: format!("valid() references unknown header `{header}`"),
                    });
                }
                guards.push((header.clone(), true));
                collect_control(program, then_body, depth + 1, guards, out)?;
                guards.pop();
                guards.push((header.clone(), false));
                collect_control(program, else_body, depth + 1, guards, out)?;
                guards.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_p4;

    const SAMPLE: &str = r#"
        header_type h_t { fields { a : 32; b : 16; } }
        header h_t pkt;
        metadata h_t meta;
        parser start { extract(pkt); return ingress; }
        register r { width : 32; instance_count : 4; }
        action fwd(port) { modify_field(meta.a, port); }
        action stamp() {
            register_write(r, 0, pkt.a);
            add_to_field(pkt.b, 1);
        }
        table t1 { reads { pkt.a : exact; } actions { fwd; } }
        table t2 { reads { meta.a : ternary; } actions { stamp; } }
        control ingress { apply(t1); apply(t2); }
    "#;

    #[test]
    fn resolves_and_flattens_fields() {
        let hlir = parse_p4(SAMPLE).unwrap();
        assert_eq!(hlir.fields.len(), 4);
        assert_eq!(
            hlir.field_width(&FieldRef {
                header: "pkt".into(),
                field: "b".into()
            }),
            Some(16)
        );
    }

    #[test]
    fn computes_table_read_write_sets() {
        let hlir = parse_p4(SAMPLE).unwrap();
        let t1 = &hlir.tables[hlir.table_index("t1").unwrap()];
        assert!(t1.writes.contains(&FieldRef {
            header: "meta".into(),
            field: "a".into()
        }));
        let t2 = &hlir.tables[hlir.table_index("t2").unwrap()];
        assert!(t2.action_reads.contains(&FieldRef {
            header: "pkt".into(),
            field: "a".into()
        }));
        assert!(t2.stateful.contains("r"));
        // add_to_field reads and writes its destination.
        assert!(t2.writes.contains(&FieldRef {
            header: "pkt".into(),
            field: "b".into()
        }));
        assert!(t2.action_reads.contains(&FieldRef {
            header: "pkt".into(),
            field: "b".into()
        }));
    }

    #[test]
    fn unknown_field_rejected() {
        let src = "header_type h { fields { a : 8; } }\nheader h x;\n\
                   action bad() { modify_field(x.zzz, 1); }";
        assert!(parse_p4(src).is_err());
    }

    #[test]
    fn unknown_table_in_control_rejected() {
        let src = "control ingress { apply(ghost); }";
        assert!(parse_p4(src).is_err());
    }

    #[test]
    fn duplicate_apply_rejected() {
        let src = "header_type h { fields { a : 8; } }\nheader h x;\n\
                   action n() { no_op(); }\n\
                   table t { reads { x.a : exact; } actions { n; } }\n\
                   control ingress { apply(t); apply(t); }";
        assert!(parse_p4(src).is_err());
    }

    /// The error `resolve` gives `SAMPLE` with `extra` declared after it.
    fn duplicate_error(extra: &str) -> String {
        parse_p4(&format!("{SAMPLE}\n{extra}"))
            .expect_err("a duplicate declaration is rejected")
            .to_string()
    }

    #[test]
    fn duplicate_header_type_rejected() {
        assert!(duplicate_error("header_type h_t { fields { c : 8; } }")
            .contains("header type `h_t` is declared more than once"));
    }

    #[test]
    fn duplicate_header_instance_rejected() {
        assert!(duplicate_error("header h_t pkt;")
            .contains("header instance `pkt` is declared more than once"));
        assert!(duplicate_error("metadata h_t pkt;")
            .contains("header instance `pkt` is declared more than once"));
    }

    #[test]
    fn duplicate_register_rejected() {
        assert!(
            duplicate_error("register r { width : 32; instance_count : 2; }")
                .contains("register `r` is declared more than once")
        );
    }

    #[test]
    fn duplicate_counter_rejected() {
        let c = "counter c { instance_count : 1; }";
        assert!(duplicate_error(&format!("{c}\n{c}"))
            .contains("counter `c` is declared more than once"));
    }

    #[test]
    fn duplicate_action_rejected() {
        assert!(duplicate_error("action fwd(port) { no_op(); }")
            .contains("action `fwd` is declared more than once"));
    }

    #[test]
    fn duplicate_table_rejected() {
        assert!(
            duplicate_error("table t1 { reads { pkt.b : exact; } actions { fwd; } }")
                .contains("table `t1` is declared more than once")
        );
    }

    #[test]
    fn default_action_must_be_listed() {
        let src = "header_type h { fields { a : 8; } }\nheader h x;\n\
                   action n() { no_op(); }\naction m() { no_op(); }\n\
                   table t { reads { x.a : exact; } actions { n; } default_action : m; }\n\
                   control ingress { apply(t); }";
        assert!(parse_p4(src).is_err());
    }

    #[test]
    fn control_depth_recorded() {
        let src = "header_type h { fields { a : 8; } }\nheader h x;\n\
                   action n() { no_op(); }\n\
                   table t1 { reads { x.a : exact; } actions { n; } }\n\
                   table t2 { reads { x.a : exact; } actions { n; } }\n\
                   control ingress { apply(t1); if (valid(x)) { apply(t2); } }";
        let hlir = parse_p4(src).unwrap();
        assert_eq!(hlir.tables[0].control_depth, 0);
        assert_eq!(hlir.tables[1].control_depth, 1);
    }
}
