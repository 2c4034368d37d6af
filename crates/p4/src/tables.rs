//! The table-entry configuration format and the shared match engine
//! (paper §4.2).
//!
//! *"The configuration format for the table entries primarily consists of
//! (1) the table that the entry will be added to, (2) the packet field to
//! be matched on, (3) the type of match to perform (e.g. ternary, exact),
//! and (4) the corresponding action to be executed if there is a match."*
//!
//! One entry per line:
//!
//! ```text
//! # table        matches                                action
//! forward : ethernet.dst=42, ethernet.etype=0x800/0xff00 => set_nhop(7)
//! forward : ethernet.dst=99 => drop_it()
//! ```
//!
//! The match *kind* comes from the table's `reads` declaration: `exact`
//! entries give a value, `ternary` entries may add `/mask`, `lpm` entries
//! may add `/prefix_len`. Entries match in file order (first hit wins,
//! except `lpm` fields which prefer the longest prefix among hits).
//!
//! [`bind`] validates a parsed entry list against a resolved program and
//! compiles it into a [`ProgramTables`] runtime — per applied table, the
//! entry patterns bound to their declared match kinds and field widths.
//! Every Druzhba execution model matches packets through this one engine:
//! the sequential reference interpreter ([`crate::exec`]), the lowered
//! RMT match-action pipeline (dgen's `mat` module), and the scheduled
//! dRMT machine (`druzhba-drmt`), so a divergence between models is never
//! an artifact of two different matchers.
//!
//! # Example
//!
//! ```
//! use druzhba_p4::tables::parse_entries;
//!
//! let entries = parse_entries(
//!     "fwd : eth.dst=42, eth.etype=0x800/0xff00 => set_port(3)\n\
//!      fwd :  => drop_it()\n",
//! )
//! .unwrap();
//! assert_eq!(entries.len(), 2);
//! assert_eq!(entries[0].action, "set_port");
//! assert_eq!(entries[0].matches[1].qualifier, Some(0xff00));
//! assert!(entries[1].matches.is_empty(), "catch-all entry");
//! ```

use druzhba_core::{Error, Result, Value};

use crate::ast::{FieldRef, MatchKind};
use crate::hlir::Hlir;

/// A match pattern for one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchPattern {
    /// The matched field.
    pub field: FieldRef,
    /// The value to compare against.
    pub value: Value,
    /// Ternary mask or LPM prefix length (interpretation depends on the
    /// table's declared match kind).
    pub qualifier: Option<Value>,
}

/// One table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// Target table name.
    pub table: String,
    /// Match patterns (empty = catch-all).
    pub matches: Vec<MatchPattern>,
    /// Action fired on a hit.
    pub action: String,
    /// Values bound to the action's parameters.
    pub args: Vec<Value>,
    /// File order; lower wins on ties.
    pub priority: usize,
}

/// Parse a table-entries file (see the module docs for the format).
pub fn parse_entries(text: &str) -> Result<Vec<TableEntry>> {
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| Error::Other {
            message: format!("table entries line {}: {message}", lineno + 1),
        };
        let (head, action_part) = line
            .split_once("=>")
            .ok_or_else(|| err("missing `=>`".into()))?;
        let (table, match_part) = head
            .split_once(':')
            .ok_or_else(|| err("missing `:` after table name".into()))?;
        let table = table.trim().to_string();
        if table.is_empty() {
            return Err(err("empty table name".into()));
        }

        let mut matches = Vec::new();
        let match_part = match_part.trim();
        if !match_part.is_empty() {
            for clause in match_part.split(',') {
                let clause = clause.trim();
                let (field_txt, value_txt) = clause
                    .split_once('=')
                    .ok_or_else(|| err(format!("match clause `{clause}` missing `=`")))?;
                let (header, field) = field_txt
                    .trim()
                    .split_once('.')
                    .ok_or_else(|| err(format!("field `{field_txt}` must be header.field")))?;
                let (value_txt, qualifier) = match value_txt.split_once('/') {
                    Some((v, q)) => (v, Some(parse_value(q.trim()).map_err(&err)?)),
                    None => (value_txt, None),
                };
                let value = parse_value(value_txt.trim()).map_err(&err)?;
                matches.push(MatchPattern {
                    field: FieldRef {
                        header: header.trim().to_string(),
                        field: field.trim().to_string(),
                    },
                    value,
                    qualifier,
                });
            }
        }

        let action_part = action_part.trim();
        let (action, args) = match action_part.split_once('(') {
            Some((name, rest)) => {
                let rest = rest
                    .strip_suffix(')')
                    .ok_or_else(|| err("missing `)` after action arguments".into()))?;
                let args: Result<Vec<Value>> = rest
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_value(s).map_err(&err))
                    .collect();
                (name.trim().to_string(), args?)
            }
            None => (action_part.to_string(), Vec::new()),
        };
        if action.is_empty() {
            return Err(err("empty action name".into()));
        }
        entries.push(TableEntry {
            table,
            matches,
            action,
            args,
            priority: entries.len(),
        });
    }
    Ok(entries)
}

fn parse_value(s: &str) -> std::result::Result<Value, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        Value::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad value `{s}`"))
}

// ----------------------------------------------------------------------
// The bound runtime: entries validated against a program and compiled to
// their declared match kinds and widths.
// ----------------------------------------------------------------------

/// One match pattern bound to its declared kind and field width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundPattern {
    /// The matched field.
    pub field: FieldRef,
    /// The field's container: its position in [`Hlir::fields`], which is
    /// the [`crate::lower::FieldLayout`] order. A getter over a frame of
    /// containers indexes it directly.
    pub container: usize,
    /// Match kind from the table's `reads` declaration.
    pub kind: MatchKind,
    /// Declared bit width of the field.
    pub width: u32,
    /// The entry's match value.
    pub value: Value,
    /// Ternary mask or LPM prefix length (kind-dependent).
    pub qualifier: Option<Value>,
}

impl BoundPattern {
    /// True if a field value satisfies this pattern.
    pub fn matches(&self, got: Value) -> bool {
        match self.kind {
            MatchKind::Exact => got == self.value,
            MatchKind::Ternary => {
                let mask = self.qualifier.unwrap_or(Value::MAX);
                got & mask == self.value & mask
            }
            MatchKind::Lpm => {
                let len = self.lpm_len();
                let shift = self.width - len;
                len == 0 || (got >> shift) == (self.value >> shift)
            }
        }
    }

    /// Effective LPM prefix length (0 for non-LPM patterns).
    pub fn lpm_len(&self) -> u32 {
        match self.kind {
            MatchKind::Lpm => self.qualifier.unwrap_or(self.width).min(self.width),
            _ => 0,
        }
    }
}

/// One entry bound to a table: patterns compiled, LPM score precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundEntry {
    /// Compiled patterns (all must match for a hit).
    pub patterns: Vec<BoundPattern>,
    /// Action fired on a hit.
    pub action: String,
    /// Values bound to the action's parameters.
    pub args: Vec<Value>,
    /// File order; lower wins on ties.
    pub priority: usize,
    /// Total LPM prefix length — constant per entry (an entry hits only
    /// when *all* its patterns match), so longest-prefix selection can be
    /// decided without per-packet scoring.
    pub lpm_score: u64,
}

/// What a table lookup selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selected<'a> {
    /// Action to execute.
    pub action: &'a str,
    /// Bound action arguments (empty for default actions).
    pub args: &'a [Value],
    /// Index of the hit entry into [`TableRuntime::entries`]; `None` when
    /// the default action fired on a miss.
    pub entry: Option<usize>,
}

/// The populated runtime of one applied table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRuntime {
    /// Table name.
    pub name: String,
    /// Bound entries in priority (file) order.
    pub entries: Vec<BoundEntry>,
    /// Default action fired on a miss, if declared.
    pub default_action: Option<String>,
    /// True if any `reads` field is `lpm` (longest prefix wins over
    /// priority).
    pub has_lpm: bool,
}

impl TableRuntime {
    /// Match a packet (presented as a callback reading the field of a
    /// pattern) against the entries: the first hit in priority order
    /// wins, except that tables with LPM fields prefer the entry with the
    /// longest total prefix among all hits. On a miss the default action
    /// is selected, if any.
    pub fn lookup(&self, mut get: impl FnMut(&BoundPattern) -> Value) -> Option<Selected<'_>> {
        let mut best: Option<(usize, u64)> = None;
        'entry: for (i, entry) in self.entries.iter().enumerate() {
            for p in &entry.patterns {
                if !p.matches(get(p)) {
                    continue 'entry;
                }
            }
            match &best {
                Some((_, score)) if *score >= entry.lpm_score => {}
                _ => best = Some((i, entry.lpm_score)),
            }
            // Without LPM fields the first (highest-priority) hit wins.
            if !self.has_lpm {
                break;
            }
        }
        match best {
            Some((i, _)) => {
                let e = &self.entries[i];
                Some(Selected {
                    action: &e.action,
                    args: &e.args,
                    entry: Some(i),
                })
            }
            None => self.default_action.as_deref().map(|action| Selected {
                action,
                args: &[],
                entry: None,
            }),
        }
    }
}

/// The populated tables of a whole program, indexed like
/// [`Hlir::tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramTables {
    /// One runtime per applied table, in control order.
    pub tables: Vec<TableRuntime>,
}

impl ProgramTables {
    /// The runtime of the applied table at `index`.
    pub fn table(&self, index: usize) -> &TableRuntime {
        &self.tables[index]
    }
}

/// Validate a parsed entry list against a resolved program and bind it
/// into a [`ProgramTables`] runtime.
///
/// Rejected: entries naming unknown tables, actions not in the target
/// table's `actions` list, and match fields the table does not `reads`.
pub fn bind(hlir: &Hlir, entries: &[TableEntry]) -> Result<ProgramTables> {
    let mut tables: Vec<TableRuntime> = hlir
        .tables
        .iter()
        .map(|info| {
            let decl = hlir.program.table(&info.name).expect("resolved");
            TableRuntime {
                name: info.name.clone(),
                entries: Vec::new(),
                default_action: decl.default_action.clone(),
                has_lpm: decl.reads.iter().any(|(_, k)| *k == MatchKind::Lpm),
            }
        })
        .collect();

    for entry in entries {
        let Some(idx) = hlir.table_index(&entry.table) else {
            return Err(Error::Other {
                message: format!("entry references unknown table `{}`", entry.table),
            });
        };
        let decl = hlir.program.table(&entry.table).expect("resolved");
        if !decl.actions.contains(&entry.action) {
            return Err(Error::Other {
                message: format!(
                    "entry action `{}` is not an action of table `{}`",
                    entry.action, entry.table
                ),
            });
        }
        let mut patterns = Vec::with_capacity(entry.matches.len());
        for m in &entry.matches {
            let Some(&(_, kind)) = decl.reads.iter().find(|(f, _)| f == &m.field) else {
                return Err(Error::Other {
                    message: format!(
                        "entry matches field `{}` not read by table `{}`",
                        m.field, entry.table
                    ),
                });
            };
            let Some((container, &(_, width))) = hlir
                .fields
                .iter()
                .enumerate()
                .find(|(_, (f, _))| f == &m.field)
            else {
                return Err(Error::Other {
                    message: format!("entry matches undeclared field `{}`", m.field),
                });
            };
            patterns.push(BoundPattern {
                field: m.field.clone(),
                container,
                kind,
                width,
                value: m.value,
                qualifier: m.qualifier,
            });
        }
        let lpm_score = patterns.iter().map(|p| u64::from(p.lpm_len())).sum();
        tables[idx].entries.push(BoundEntry {
            patterns,
            action: entry.action.clone(),
            args: entry.args.clone(),
            priority: entry.priority,
            lpm_score,
        });
    }
    Ok(ProgramTables { tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_p4;

    #[test]
    fn parses_exact_entry() {
        let entries = parse_entries("fwd : eth.dst=42 => set_port(3)\n").unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.table, "fwd");
        assert_eq!(e.matches.len(), 1);
        assert_eq!(e.matches[0].value, 42);
        assert_eq!(e.matches[0].qualifier, None);
        assert_eq!(e.action, "set_port");
        assert_eq!(e.args, vec![3]);
    }

    #[test]
    fn parses_ternary_mask_and_hex() {
        let entries =
            parse_entries("acl : ip.proto=0x6/0xff, ip.dst=10/0xf0 => drop_it()\n").unwrap();
        let e = &entries[0];
        assert_eq!(e.matches[0].value, 6);
        assert_eq!(e.matches[0].qualifier, Some(255));
        assert_eq!(e.matches[1].qualifier, Some(240));
        assert!(e.args.is_empty());
    }

    #[test]
    fn parses_multiple_entries_with_priority() {
        let text = "t : f.a=1 => x()\n# comment\n\nt : f.a=2 => y(9, 10)\n";
        let entries = parse_entries(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].priority, 0);
        assert_eq!(entries[1].priority, 1);
        assert_eq!(entries[1].args, vec![9, 10]);
    }

    #[test]
    fn action_without_parens_allowed() {
        let entries = parse_entries("t : f.a=1 => just_do_it\n").unwrap();
        assert_eq!(entries[0].action, "just_do_it");
    }

    #[test]
    fn empty_match_list_allowed() {
        // A catch-all entry (matches everything).
        let entries = parse_entries("t :  => default_path(1)\n").unwrap();
        assert!(entries[0].matches.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_entries("t f.a=1 => x\n").is_err());
        assert!(parse_entries("t : f.a=1 x()\n").is_err());
        assert!(parse_entries("t : fa=1 => x\n").is_err());
        assert!(parse_entries("t : f.a=zz => x\n").is_err());
        assert!(parse_entries("t : f.a=1 => x(1\n").is_err());
    }

    const PROGRAM: &str = r#"
        header_type h_t { fields { a : 8; b : 32; } }
        header h_t pkt;
        parser start { extract(pkt); return ingress; }
        action set_a(v) { modify_field(pkt.a, v); }
        action nop() { no_op(); }
        table exact_t {
            reads { pkt.a : exact; }
            actions { set_a; nop; }
            default_action : nop;
        }
        table lpm_t { reads { pkt.b : lpm; } actions { set_a; } }
        control ingress { apply(exact_t); apply(lpm_t); }
    "#;

    fn bound(entries: &str) -> ProgramTables {
        let hlir = parse_p4(PROGRAM).unwrap();
        bind(&hlir, &parse_entries(entries).unwrap()).unwrap()
    }

    #[test]
    fn bind_validates_tables_actions_and_fields() {
        let hlir = parse_p4(PROGRAM).unwrap();
        let unknown_table = parse_entries("ghost : pkt.a=1 => set_a(1)\n").unwrap();
        assert!(bind(&hlir, &unknown_table).is_err());
        let wrong_action = parse_entries("lpm_t : pkt.b=1 => nop()\n").unwrap();
        assert!(bind(&hlir, &wrong_action).is_err());
        let wrong_field = parse_entries("exact_t : pkt.b=1 => nop()\n").unwrap();
        assert!(bind(&hlir, &wrong_field).is_err());
    }

    #[test]
    fn exact_lookup_first_hit_wins_and_default_fires() {
        let tables = bound("exact_t : pkt.a=1 => set_a(10)\nexact_t : pkt.a=1 => set_a(20)\n");
        let t = tables.table(0);
        let sel = t.lookup(|_| 1).unwrap();
        assert_eq!(sel.action, "set_a");
        assert_eq!(sel.args, &[10]);
        assert_eq!(sel.entry, Some(0), "priority order");
        // Miss -> default action, no entry.
        let sel = t.lookup(|_| 9).unwrap();
        assert_eq!(sel.action, "nop");
        assert_eq!(sel.entry, None);
    }

    #[test]
    fn lpm_longest_prefix_wins_regardless_of_order() {
        let tables = bound(
            "lpm_t : pkt.b=0x0A000000/8 => set_a(1)\n\
             lpm_t : pkt.b=0x0A010000/16 => set_a(2)\n",
        );
        let t = tables.table(1);
        let sel = t.lookup(|_| 0x0A01_0203).unwrap();
        assert_eq!(sel.args, &[2], "16-bit prefix beats 8-bit");
        let sel = t.lookup(|_| 0x0A99_0203).unwrap();
        assert_eq!(sel.args, &[1]);
        assert!(t.lookup(|_| 0x0B00_0000).is_none(), "miss, no default");
    }

    #[test]
    fn lpm_score_is_entry_constant() {
        let tables = bound("lpm_t : pkt.b=0x0A000000/8 => set_a(1)\n");
        assert_eq!(tables.table(1).entries[0].lpm_score, 8);
    }
}
