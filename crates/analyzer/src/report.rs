//! Findings and the report the gate prints: each finding as a
//! clickable `file:line: rule: message` line, followed by its entry
//! trace, entry first, like a backtrace.  The rules themselves are
//! documented in the README's "Static analysis" table.

use std::collections::BTreeMap;
use std::fmt;

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `lock-scope`, `lock-order` or `recurse-request`.
    pub rule: &'static str,
    /// What was found and what to do instead.
    pub message: String,
    /// Byte offsets `[start, end)` of the offending tokens in the file.
    pub span: (u32, u32),
    /// The justified call chain from a service entry point to the
    /// enclosing fn (`crate::module::fn` labels, entry first).  Empty
    /// when the finding is not on a must-reachable path.
    pub entry_trace: Vec<String>,
}

impl Finding {
    /// A finding with no span or entry trace.
    #[must_use]
    pub fn bare(file: &str, line: u32, rule: &'static str, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            span: (0, 0),
            entry_trace: Vec::new(),
        }
    }
}

/// `file:line: rule: message`, then one indented line per hop of the
/// entry trace, entry first:
///
/// ```text
/// crates/engine/src/service.rs:9: recurse-request: ...
///   entry trace:
///     0: engine::service::handle_request
///     1: engine::service::descend
/// ```
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )?;
        if !self.entry_trace.is_empty() {
            write!(f, "\n  entry trace:")?;
        }
        for (depth, hop) in self.entry_trace.iter().enumerate() {
            write!(f, "\n    {depth}: {hop}")?;
        }
        Ok(())
    }
}

/// Sorts findings for stable output: by file, then line, then rule.
pub fn sort(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Per-rule totals, sorted by rule id.
#[must_use]
pub fn totals(findings: &[Finding]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for finding in findings {
        *totals.entry(finding.rule).or_insert(0) += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_clickable() {
        let f = Finding::bare(
            "crates/engine/src/service.rs",
            42,
            "lock-scope",
            "guard `g` is still live".into(),
        );
        assert_eq!(
            f.to_string(),
            "crates/engine/src/service.rs:42: lock-scope: guard `g` is still live"
        );
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mk = |file: &str, line: u32, rule: &'static str| {
            Finding::bare(file, line, rule, String::new())
        };
        let mut findings = vec![
            mk("b.rs", 1, "lock-scope"),
            mk("a.rs", 9, "lock-scope"),
            mk("a.rs", 2, "lock-order"),
        ];
        sort(&mut findings);
        assert_eq!(
            findings
                .iter()
                .map(|f| (f.file.as_str(), f.line))
                .collect::<Vec<_>>(),
            vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]
        );
    }
}
