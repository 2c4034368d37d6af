//! Machine-code programs.
//!
//! Paper §3.1: *"Our machine code to run on the pipeline consists of a list
//! of string and integer pairs that specify ALUs' control flow and
//! computational behavior."* Each pair's name identifies a hardware
//! primitive (a mux or an ALU-internal hole) and its location in the
//! pipeline; the paired value programs that primitive's behaviour.
//!
//! The textual format accepted by [`MachineCode::parse`] is one pair per
//! line, `name = value`, with `#`-prefixed comments and blank lines ignored:
//!
//! ```text
//! # BLUE (increase), stage 0
//! stateful_alu_0_0_operand_mux_0 = 1
//! output_mux_phv_0_0 = 3
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// A machine-code program: a mapping from primitive names to the integer
/// values that program them.
///
/// Internally ordered (BTreeMap) so that serialization, diffing, and error
/// messages are deterministic. The map is shared copy-on-write: a clone is
/// a pointer copy, and `Arc`'s equality finds a clone equal to its
/// original by pointer, without walking the pairs, which keeps a checker's
/// per-check comparison against its cached machine code cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineCode {
    pairs: Arc<BTreeMap<String, Value>>,
}

impl MachineCode {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of pairs. Later duplicates overwrite earlier
    /// ones (use [`MachineCode::parse`] for duplicate detection).
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        MachineCode {
            pairs: Arc::new(
                pairs
                    .into_iter()
                    .map(|(name, v)| (name.into(), v))
                    .collect(),
            ),
        }
    }

    /// Parse the textual machine-code format (see module docs).
    ///
    /// Errors on malformed lines and on duplicate names: a duplicate pair is
    /// almost always an assembler bug, and silently keeping one of the two
    /// values would mask it.
    pub fn parse(text: &str) -> Result<Self> {
        let mut pairs = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once('=') else {
                return Err(Error::MachineCodeParse {
                    line: lineno + 1,
                    message: format!("expected `name = value`, got `{line}`"),
                });
            };
            let name = name.trim().to_string();
            let value: Value = value.trim().parse().map_err(|e| Error::MachineCodeParse {
                line: lineno + 1,
                message: format!("bad value for `{name}`: {e}"),
            })?;
            if pairs.insert(name.clone(), value).is_some() {
                return Err(Error::MachineCodeParse {
                    line: lineno + 1,
                    message: format!("duplicate machine code pair `{name}`"),
                });
            }
        }
        Ok(MachineCode {
            pairs: Arc::new(pairs),
        })
    }

    /// Insert (or overwrite) a pair.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        Arc::make_mut(&mut self.pairs).insert(name.into(), value);
    }

    /// Look up a pair, returning a [`Error::MissingMachineCode`] if absent.
    ///
    /// This is the lookup used by the unoptimized simulation backend; a
    /// missing pair is one of the two failure classes observed in the
    /// paper's case study (§5.2).
    pub fn get(&self, name: &str) -> Result<Value> {
        self.pairs
            .get(name)
            .copied()
            .ok_or_else(|| Error::MissingMachineCode {
                name: name.to_string(),
            })
    }

    /// Look up a pair without error conversion.
    pub fn try_get(&self, name: &str) -> Option<Value> {
        self.pairs.get(name).copied()
    }

    /// True if the program contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.pairs.contains_key(name)
    }

    /// Remove a pair, returning its value if present. Used by the fault
    /// injector to reproduce the "missing machine code pairs" failure class.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        Arc::make_mut(&mut self.pairs).remove(name)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the program has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate over pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        self.pairs.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.pairs.keys().map(String::as_str)
    }

    /// Merge `other` into `self`; pairs in `other` win on conflict.
    pub fn merge(&mut self, other: &MachineCode) {
        let pairs = Arc::make_mut(&mut self.pairs);
        for (name, v) in other.iter() {
            pairs.insert(name.to_string(), v);
        }
    }

    /// Names present in `expected` but missing here. The pipeline generator
    /// uses this for up-front validation so that an incompatible program is
    /// rejected before simulation starts.
    pub fn missing_from<'a, I>(&self, expected: I) -> Vec<String>
    where
        I: IntoIterator<Item = &'a str>,
    {
        expected
            .into_iter()
            .filter(|name| !self.contains(name))
            .map(str::to_string)
            .collect()
    }

    /// Serialize to the textual format parseable by [`MachineCode::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.iter() {
            out.push_str(name);
            out.push_str(" = ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for MachineCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl FromIterator<(String, Value)> for MachineCode {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        MachineCode::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_pairs() {
        let mc = MachineCode::parse("a = 1\nb = 2\n").unwrap();
        assert_eq!(mc.get("a").unwrap(), 1);
        assert_eq!(mc.get("b").unwrap(), 2);
        assert_eq!(mc.len(), 2);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let mc = MachineCode::parse("# header\n\na = 3 # trailing\n").unwrap();
        assert_eq!(mc.get("a").unwrap(), 3);
        assert_eq!(mc.len(), 1);
    }

    #[test]
    fn parse_rejects_duplicates() {
        let err = MachineCode::parse("a = 1\na = 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn parse_rejects_missing_equals() {
        let err = MachineCode::parse("a 1\n").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn parse_rejects_bad_value() {
        let err = MachineCode::parse("a = x\n").unwrap_err();
        assert!(err.to_string().contains("bad value"));
    }

    #[test]
    fn missing_lookup_is_typed_error() {
        let mc = MachineCode::new();
        match mc.get("nope") {
            Err(Error::MissingMachineCode { name }) => assert_eq!(name, "nope"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn round_trip_text() {
        let mc = MachineCode::from_pairs([("z", 9), ("a", 1)]);
        let text = mc.to_text();
        let back = MachineCode::parse(&text).unwrap();
        assert_eq!(mc, back);
        // BTreeMap ordering makes the output deterministic.
        assert_eq!(text, "a = 1\nz = 9\n");
    }

    #[test]
    fn missing_from_reports_absent_names() {
        let mc = MachineCode::from_pairs([("a", 1)]);
        let missing = mc.missing_from(["a", "b", "c"]);
        assert_eq!(missing, vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn merge_overwrites() {
        let mut a = MachineCode::from_pairs([("x", 1), ("y", 2)]);
        let b = MachineCode::from_pairs([("y", 7), ("z", 3)]);
        a.merge(&b);
        assert_eq!(a.get("x").unwrap(), 1);
        assert_eq!(a.get("y").unwrap(), 7);
        assert_eq!(a.get("z").unwrap(), 3);
    }

    #[test]
    fn remove_supports_fault_injection() {
        let mut a = MachineCode::from_pairs([("x", 1)]);
        assert_eq!(a.remove("x"), Some(1));
        assert_eq!(a.remove("x"), None);
        assert!(a.is_empty());
    }
}
