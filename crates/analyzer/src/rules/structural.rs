//! Structural rule: `lock-scope`.
//!
//! It needs the statement/scope shape recovered by [`crate::parse`] — a
//! token window cannot see that a guard binding is still live at a
//! later call.  The rule shares the analyzer's bias: **miss silently
//! rather than cry wolf**.  Ambiguous scopes produce no finding.

use crate::lexer::Token;
use crate::parse::{Block, Stmt};
use crate::report::Finding;

use super::{is_punct, is_word, Ctx};

/// Call-name prefixes that mean "planning work" for `lock-scope`.
const PLAN_PREFIXES: &[&str] = &["plan", "refine", "simulate", "stitch"];

/// Runs `lock-scope` over `block` and every block nested in it,
/// appending findings.
pub(crate) fn check(ctx: &Ctx<'_>, block: &Block, masked: &[bool], findings: &mut Vec<Finding>) {
    for stmt in &block.stmts {
        if let Some((guard, _)) = guard_binding(ctx.tokens, stmt, masked) {
            let guard = &ctx.tokens[guard].text;
            scan_guard_scope(ctx, stmt, block.close, masked, guard, findings);
        }
        for inner in &stmt.blocks {
            check(ctx, inner, masked, findings);
        }
    }
}

/// `let [mut] <guard> = … .lock() … ;` — the token indices of the
/// guard name and of the first `.lock()`'s dot.  `let _ = ….lock();`
/// drops the guard immediately and is exempt.
pub(crate) fn guard_binding(
    tokens: &[Token],
    stmt: &Stmt,
    masked: &[bool],
) -> Option<(usize, usize)> {
    if masked.get(stmt.start).copied().unwrap_or(true) {
        return None;
    }
    if !tokens.get(stmt.end).is_some_and(|t| is_punct(t, ';')) {
        return None;
    }
    let head = tokens.get(stmt.start)?;
    if !(is_word(head) && head.text == "let") {
        return None;
    }
    let mut k = stmt.start + 1;
    if tokens.get(k).is_some_and(|t| is_word(t) && t.text == "mut") {
        k += 1;
    }
    let name_tok = tokens.get(k)?;
    if !is_word(name_tok) || name_tok.text == "_" {
        return None;
    }
    if !tokens.get(k + 1).is_some_and(|t| is_punct(t, '=')) {
        return None;
    }
    // `.lock()` anywhere in the initializer.
    let mut j = k + 2;
    while j + 3 <= stmt.end {
        if is_punct(&tokens[j], '.')
            && tokens
                .get(j + 1)
                .is_some_and(|t| is_word(t) && t.text == "lock")
            && tokens.get(j + 2).is_some_and(|t| is_punct(t, '('))
            && tokens.get(j + 3).is_some_and(|t| is_punct(t, ')'))
        {
            return Some((k, j));
        }
        j += 1;
    }
    None
}

/// Scans the rest of the guard's enclosing block for a planning call,
/// stopping early at an explicit `drop(guard)`.
fn scan_guard_scope(
    ctx: &Ctx<'_>,
    stmt: &Stmt,
    block_close: usize,
    masked: &[bool],
    guard: &str,
    findings: &mut Vec<Finding>,
) {
    let tokens = ctx.tokens;
    let end = block_close.min(tokens.len());
    let mut j = stmt.end + 1;
    while j < end {
        if masked[j] {
            j += 1;
            continue;
        }
        if drops(tokens, j, guard) {
            return;
        }
        let tok = &tokens[j];
        if is_word(tok)
            && PLAN_PREFIXES.iter().any(|p| tok.text.starts_with(p))
            && tokens.get(j + 1).is_some_and(|t| is_punct(t, '('))
        {
            findings.push(ctx.finding(
                stmt.start,
                stmt.start,
                j + 1,
                "lock-scope",
                format!(
                    "guard `{guard}` from `.lock()` is still live when `{}` is \
                     called (line {}); copy what you need out of the guard and \
                     `drop({guard})` before planning",
                    tok.text, tok.line
                ),
            ));
            return;
        }
        j += 1;
    }
}

/// Whether the tokens at `j` read `drop(<guard>)`.
pub(crate) fn drops(tokens: &[Token], j: usize, guard: &str) -> bool {
    tokens
        .get(j)
        .is_some_and(|t| is_word(t) && t.text == "drop")
        && tokens.get(j + 1).is_some_and(|t| is_punct(t, '('))
        && tokens
            .get(j + 2)
            .is_some_and(|t| is_word(t) && t.text == guard)
        && tokens.get(j + 3).is_some_and(|t| is_punct(t, ')'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::check_source;

    fn run(source: &str) -> Vec<Finding> {
        check_source("test.rs", source)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // -- lock-scope ---------------------------------------------------

    #[test]
    fn guard_live_across_a_planning_call_is_flagged() {
        let findings = run("fn f(c: &Cache) {\n\
             let guard = c.inner.lock();\n\
             let p = plan_many(&guard.requests);\n\
             }\n");
        assert_eq!(rules_of(&findings), vec!["lock-scope"]);
        assert_eq!(findings[0].line, 2, "finding anchors at the binding");
    }

    #[test]
    fn dropping_the_guard_before_planning_passes() {
        assert!(run("fn f(c: &Cache) {\n\
             let guard = c.inner.lock();\n\
             let key = guard.key();\n\
             drop(guard);\n\
             let p = plan_many(key);\n\
             }\n")
        .is_empty());
    }

    #[test]
    fn scope_ends_at_the_enclosing_block() {
        assert!(run("fn f(c: &Cache) {\n\
             { let guard = c.inner.lock(); touch(&guard); }\n\
             let p = plan_many(1);\n\
             }\n")
        .is_empty());
    }

    #[test]
    fn prefixes_cover_refine_simulate_stitch() {
        for call in ["refine_plan(0)", "simulate_graph(0)", "stitch_segments(0)"] {
            let src = format!("fn f(c: &Cache) {{ let g = c.i.lock(); let p = {call}; }}");
            assert_eq!(rules_of(&run(&src)), vec!["lock-scope"], "{call}");
        }
        // Non-planning work under the guard is fine.
        assert!(run("fn f(c: &Cache) { let g = c.i.lock(); g.touch(); }").is_empty());
    }
}
