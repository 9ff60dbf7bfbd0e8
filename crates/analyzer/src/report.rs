//! Findings, their `file:line: rule: message` presentation, and the
//! machine-readable `--format json` document.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::escape;

/// The rule reference: `(id, what it catches, how to satisfy it)`.
///
/// Kept as data so `--rules` and the README table read from one place.
/// Every other check — the panic family, wall clocks, unordered maps,
/// float equality, narrowing casts, dropped `Result`s — is a clippy
/// lint in the workspace `[workspace.lints.clippy]` table.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "lock-scope",
        "a `.lock()` guard held across a call into `plan`/`refine`/`simulate`/`stitch`",
        "copy what you need out of the guard and `drop(guard)` before planning (the PlanCache pattern)",
    ),
    (
        "lock-order",
        "two locks acquired in conflicting orders on two call paths (held-lock sets propagated along the call graph) — a potential deadlock, anchored at both acquisition sites",
        "acquire locks in one global acquisition order, or drop the first guard before the second acquisition/call",
    ),
    (
        "recurse-request",
        "a call-graph cycle reachable from a service entry point with no explicit depth/budget guard — a stack-overflow DoS on a deep request",
        "bound the recursion with an explicit depth or budget parameter, or rewrite iteratively",
    ),
];

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// What was found and what to do instead.
    pub message: String,
    /// Byte offsets `[start, end)` of the offending tokens in the file.
    pub span: (u32, u32),
    /// The trimmed source line the finding sits on.
    pub snippet: String,
    /// The justified call chain from a service entry point to the
    /// enclosing fn (`crate::module::fn` labels, entry first).  Empty
    /// when the finding is not on a must-reachable path (or the
    /// workspace has no entry points).
    pub entry_trace: Vec<String>,
}

impl Finding {
    /// A finding with no span/snippet context.
    #[must_use]
    pub fn bare(file: &str, line: u32, rule: &'static str, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            span: (0, 0),
            snippet: String::new(),
            entry_trace: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
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

/// The `--rules` reference table.
#[must_use]
pub fn rules_table() -> String {
    let mut out = String::from("rules enforced by hypar-analyzer:\n");
    for (id, what, fix) in RULES {
        out.push_str(&format!(
            "\n  {id}\n    catches: {what}\n    fix:     {fix}\n"
        ));
    }
    out.push_str(
        "\nevery other check is a clippy lint: see [workspace.lints.clippy] in \
         Cargo.toml; waive a site with #[expect(clippy::<lint>, reason = \"...\")].\n",
    );
    out
}

/// Schema identifier stamped into every `--format json` document.
///
/// The schema is append-only: consumers must tolerate unknown keys, and
/// any breaking change bumps the version suffix.  v3 drops the `waived`
/// count and the per-finding `waived`/`justification` fields: there are
/// no analyzer waivers any more.
pub const FINDINGS_SCHEMA: &str = "hypar-analyzer-findings/v3";

/// Serializes findings as the stable machine-readable document:
///
/// ```json
/// {
///   "schema": "hypar-analyzer-findings/v3",
///   "total": 1,
///   "totals": {"lock-scope": 1},
///   "findings": [
///     {"rule": "...", "file": "...", "line": 7,
///      "span": {"start": 120, "end": 131},
///      "snippet": "let guard = cache.lock();", "message": "...",
///      "entry_trace": ["engine::service::handle_line", "engine::engine::plan"]}
///   ]
/// }
/// ```
///
/// Findings appear in [`sort`] order.
#[must_use]
pub fn findings_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", escape(FINDINGS_SCHEMA)));
    out.push_str(&format!("  \"total\": {},\n", findings.len()));
    out.push_str("  \"totals\": {");
    let totals = totals(findings);
    let mut first = true;
    for (rule, count) in &totals {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {count}", escape(rule)));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    out.push_str("  \"findings\": [");
    let mut first = true;
    for f in findings {
        if !first {
            out.push(',');
        }
        first = false;
        let trace = f
            .entry_trace
            .iter()
            .map(|hop| escape(hop))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \
             \"span\": {{\"start\": {}, \"end\": {}}}, \"snippet\": {}, \
             \"message\": {}, \"entry_trace\": [{trace}]}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            f.span.0,
            f.span.1,
            escape(&f.snippet),
            escape(&f.message),
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn parse(doc: &str) -> Value {
        serde_json::from_str(doc).expect("valid json")
    }

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

    #[test]
    fn findings_json_escapes_and_carries_spans() {
        let finding = Finding {
            file: "a.rs".into(),
            line: 3,
            rule: "lock-scope",
            message: "guard \"g\" is live".into(),
            span: (10, 25),
            snippet: "let g = c.lock();".into(),
            entry_trace: vec![
                "engine::service::handle_line".into(),
                "engine::engine::plan".into(),
            ],
        };
        let doc = parse(&findings_json(&[finding]));
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(FINDINGS_SCHEMA)
        );
        assert_eq!(doc.get("total").and_then(Value::as_u64), Some(1));
        let f = &doc.get("findings").and_then(Value::as_array).expect("arr")[0];
        assert_eq!(
            f.get("message").and_then(Value::as_str),
            Some("guard \"g\" is live")
        );
        let span = f.get("span").expect("span");
        assert_eq!(span.get("start").and_then(Value::as_u64), Some(10));
        assert_eq!(span.get("end").and_then(Value::as_u64), Some(25));
        let trace = f
            .get("entry_trace")
            .and_then(Value::as_array)
            .expect("entry_trace array");
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace[0].as_str(),
            Some("engine::service::handle_line"),
            "entry first"
        );
    }

    #[test]
    fn empty_findings_still_produce_a_valid_document() {
        let doc = parse(&findings_json(&[]));
        assert_eq!(doc.get("total").and_then(Value::as_u64), Some(0));
        assert_eq!(doc.get("findings").and_then(Value::as_array), Some(&[][..]));
    }
}
