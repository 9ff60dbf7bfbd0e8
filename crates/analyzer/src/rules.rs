//! Rule orchestration over a lexed + parsed file.
//!
//! Two passes share one masking layer:
//!
//! * [`structural`] — `lock-scope`, which needs statement and scope
//!   shape from [`crate::parse`];
//! * `interproc` — `lock-order` and `recurse-request`, which run over
//!   the workspace call graph.
//!
//! **Test code is exempt**: any item under a `#[cfg(test)]` / `#[test]`
//! attribute (the attribute, plus the following braced block or
//! `;`-terminated item) is masked out of both passes.  Integration
//! `tests/` directories never reach the scanner at all.

pub(crate) mod interproc;
pub mod structural;

use crate::lexer::{Token, TokenKind};
use crate::parse::Parsed;
use crate::report::Finding;

/// Shared per-file context for finding construction.
pub(crate) struct Ctx<'a> {
    pub path: &'a str,
    pub tokens: &'a [Token],
}

impl Ctx<'_> {
    /// Builds a finding whose line comes from the token at `line_at`
    /// and whose span covers tokens `first..=last`.
    pub(crate) fn finding(
        &self,
        line_at: usize,
        first: usize,
        last: usize,
        rule: &'static str,
        message: String,
    ) -> Finding {
        let Some(line_tok) = self.tokens.get(line_at) else {
            return Finding::bare(self.path, 0, rule, message);
        };
        let start = self.tokens.get(first).map_or(line_tok.start, |t| t.start);
        let end = self
            .tokens
            .get(last)
            .map_or(line_tok.end, |t| t.end)
            .max(start);
        Finding {
            file: self.path.to_string(),
            line: line_tok.line,
            rule,
            message,
            span: (start, end),
            entry_trace: Vec::new(),
        }
    }
}

/// Runs the per-file rule (`lock-scope`) over one file.
#[must_use]
pub fn check_file(path: &str, tokens: &[Token], parsed: &Parsed) -> Vec<Finding> {
    let masked = test_mask(tokens);
    let ctx = Ctx { path, tokens };
    let mut findings = Vec::new();
    structural::check(&ctx, &parsed.root, &masked, &mut findings);
    findings
}

/// Convenience for tests and the fuzzer: lexes, parses, and runs
/// [`check_file`].
#[must_use]
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let tokens = crate::lexer::lex(source);
    let parsed = crate::parse::parse(&tokens);
    check_file(path, &tokens, &parsed)
}

/// Ident or raw ident (`r#lock` behaves like `lock`).
pub(crate) fn is_word(tok: &Token) -> bool {
    matches!(tok.kind, TokenKind::Ident | TokenKind::RawIdent)
}

pub(crate) fn is_punct(tok: &Token, c: char) -> bool {
    tok.kind == TokenKind::Punct && tok.text.len() == 1 && tok.text.starts_with(c)
}

/// Marks every token belonging to a test-gated item: a `#[...]`
/// attribute whose tokens include the ident `test` (covers `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, ..))]`), plus any stacked
/// attributes after it, plus the following item through its balanced
/// `{...}` block or terminating `;`.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = attribute_at(tokens, i) else {
            i += 1;
            continue;
        };
        let is_test = tokens[i..=attr_end]
            .iter()
            .any(|t| is_word(t) && t.text == "test");
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Stacked attributes: `#[cfg(test)] #[derive(..)] mod t { .. }`.
        let mut j = attr_end + 1;
        while let Some(end) = attribute_at(tokens, j) {
            j = end + 1;
        }
        let item_end = item_end(tokens, j);
        for slot in masked.iter_mut().take(item_end + 1).skip(i) {
            *slot = true;
        }
        i = item_end + 1;
    }
    masked
}

/// If `#` `[` starts at `i`, the index of the matching `]`.
fn attribute_at(tokens: &[Token], i: usize) -> Option<usize> {
    if !(is_punct(tokens.get(i)?, '#') && is_punct(tokens.get(i + 1)?, '[')) {
        return None;
    }
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(i + 1) {
        if is_punct(tok, '[') {
            depth += 1;
        } else if is_punct(tok, ']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    Some(tokens.len().saturating_sub(1))
}

/// The index closing the item starting at `from`: the `}` matching its
/// first opening brace, or the first top-level `;` — whichever the item
/// ends with.  Falls back to the last token on malformed input.
fn item_end(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(from) {
        if is_punct(tok, '{') || is_punct(tok, '(') || is_punct(tok, '[') {
            depth += 1;
        } else if is_punct(tok, '}') || is_punct(tok, ')') || is_punct(tok, ']') {
            depth = depth.saturating_sub(1);
            if depth == 0 && is_punct(tok, '}') {
                return j;
            }
        } else if is_punct(tok, ';') && depth == 0 {
            return j;
        }
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A guard held across a planning call: one `lock-scope` finding.
    const HELD: &str = "let g = c.m.lock(); plan_many(&g.r);";

    fn lines_of(findings: &[Finding]) -> Vec<u32> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let findings = check_source(
            "test.rs",
            &format!(
                "fn live() {{ {HELD} }}\n\
                 #[cfg(test)]\nmod tests {{\n    fn t() {{ {HELD} }}\n}}\n\
                 #[test]\nfn one_test() {{ {HELD} }}\n\
                 fn live_too() {{ {HELD} }}\n"
            ),
        );
        assert_eq!(lines_of(&findings), vec![1, 8]);
    }

    #[test]
    fn stacked_attributes_stay_exempt() {
        let findings = check_source(
            "test.rs",
            &format!(
                "#[cfg(test)]\n#[expect(dead_code)]\nmod tests {{ fn t() {{ {HELD} }} }}\n\
                 fn live() {{ {HELD} }}\n"
            ),
        );
        assert_eq!(lines_of(&findings), vec![4]);
    }

    #[test]
    fn comments_strings_and_chars_never_trip_rules() {
        assert!(check_source(
            "test.rs",
            "fn f(c: &C) {\n\
             // let g = c.m.lock(); plan_many(&g.r);\n\
             /* let g = c.m.lock(); /* nested */ plan_many(&g.r); */\n\
             let s = \"let g = c.m.lock(); plan_many(&g.r);\";\n\
             let r = r#\"let g = c.m.lock(); \"plan_many(&g.r)\";\"#;\n\
             let q = '\"';\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn findings_carry_spans_and_snippets() {
        let src = "fn f(c: &C) {\n    let g = c.m.lock();\n    plan_many(&g.r);\n}\n";
        let findings = check_source("test.rs", src);
        assert_eq!(findings.len(), 1);
        let (start, end) = findings[0].span;
        let text = &src[start as usize..end as usize];
        assert!(text.starts_with("let g"), "span {start}..{end} -> {text:?}");
        assert!(
            text.ends_with("plan_many("),
            "span {start}..{end} -> {text:?}"
        );
        assert_eq!(findings[0].line, 2);
    }
}
