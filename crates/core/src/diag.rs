//! Diagnostic records emitted by static analyses.
//!
//! Every lint, hazard, and translation-validation finding across the
//! workspace is reported as a [`Diagnostic`] so that tooling has one
//! machine-readable shape to consume. Ordering is part of the contract:
//! [`sort_diagnostics`] yields a total, deterministic order keyed by
//! `(program, stage, pc, code, message)`, which makes `druzhba analyze`
//! output byte-stable across runs and shard counts.

use std::fmt;

use crate::json;

/// How bad a finding is. `Error` findings (translation-validation
/// mismatches) fail the analyzer's exit status; warnings and notes are
/// gated by the golden baseline in CI instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: known imprecision, screen verdicts.
    Note,
    /// A program smell worth surfacing (dead arm, hazard, uninitialized
    /// read). Does not affect exit status.
    Warning,
    /// A soundness-relevant finding: abstract results of two forms of the
    /// same program are disjoint.
    Error,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One static-analysis finding, locatable to a program, a pipeline stage,
/// and a pass-specific program counter (AST pre-order index, bytecode pc,
/// fused-instruction pc, or table ordinal — whatever the emitting pass
/// counts in).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Program (corpus name or file path) the finding belongs to.
    pub program: String,
    /// Pipeline stage, or 0 when the finding is not stage-local.
    pub stage: u32,
    /// Pass-specific program counter used only for stable ordering.
    pub pc: u32,
    /// Stable machine-readable code, e.g. `unreachable-arm`.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
    pub severity: Severity,
}

impl Diagnostic {
    /// Render one finding as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"program\":{},\"stage\":{},\"pc\":{},\"code\":{},\"severity\":{},\"message\":{}}}",
            json::string(&self.program),
            self.stage,
            self.pc,
            json::string(self.code),
            json::string(self.severity.label()),
            json::string(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] stage {} pc {}: {}",
            self.program, self.severity, self.code, self.stage, self.pc, self.message
        )
    }
}

/// Sort findings into the canonical deterministic order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.program, a.stage, a.pc, a.code, &a.message)
            .cmp(&(&b.program, b.stage, b.pc, b.code, &b.message))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_stable() {
        let mk = |program: &str, stage, pc, code: &'static str| Diagnostic {
            program: program.to_string(),
            stage,
            pc,
            code,
            message: String::new(),
            severity: Severity::Warning,
        };
        let mut diags = vec![
            mk("b", 0, 0, "x"),
            mk("a", 1, 5, "x"),
            mk("a", 1, 2, "y"),
            mk("a", 1, 2, "a"),
            mk("a", 0, 9, "x"),
        ];
        sort_diagnostics(&mut diags);
        let keys: Vec<_> = diags
            .iter()
            .map(|d| (d.program.clone(), d.stage, d.pc, d.code))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".to_string(), 0, 9, "x"),
                ("a".to_string(), 1, 2, "a"),
                ("a".to_string(), 1, 2, "y"),
                ("a".to_string(), 1, 5, "x"),
                ("b".to_string(), 0, 0, "x"),
            ]
        );
    }

    #[test]
    fn diagnostic_json_is_compact() {
        let d = Diagnostic {
            program: "p".into(),
            stage: 2,
            pc: 7,
            code: "dead-write",
            message: "state var overwritten".into(),
            severity: Severity::Note,
        };
        assert_eq!(
            d.to_json(),
            "{\"program\":\"p\",\"stage\":2,\"pc\":7,\"code\":\"dead-write\",\
             \"severity\":\"note\",\"message\":\"state var overwritten\"}"
        );
    }
}
