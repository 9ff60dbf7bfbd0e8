//! Fixture-driven checks: the lexer and rules run over the `.rs` files
//! in `tests/fixtures/`, asserting findings by marker comments so the
//! expectations survive fixture edits.

#![expect(
    clippy::panic,
    clippy::unwrap_used,
    reason = "helpers fail by panicking"
)]

use std::fs;
use std::path::PathBuf;

use hypar_analyzer::lexer::{self, TokenKind};
use hypar_analyzer::parse;
use hypar_analyzer::report::Finding;
use hypar_analyzer::rules;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// 1-based line of the first line containing `needle`.
fn line_of(source: &str, needle: &str) -> u32 {
    source
        .lines()
        .position(|l| l.contains(needle))
        .map(|i| u32::try_from(i).unwrap() + 1)
        .unwrap_or_else(|| panic!("marker `{needle}` not in fixture"))
}

fn check_all(source: &str) -> Vec<Finding> {
    rules::check_source("fixture.rs", source)
}

#[test]
fn lexer_edges_only_live_sites_are_found() {
    let source = fixture("lexer_edges.rs");
    let findings = check_all(&source);
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        vec![
            ("lock-scope", line_of(&source, "MARK:live-guard")),
            ("lock-scope", line_of(&source, "MARK:live-nested")),
        ],
        "all findings: {findings:?}"
    );
}

#[test]
fn lexer_edges_token_shapes() {
    let source = fixture("lexer_edges.rs");
    let tokens = lexer::lex(&source);

    // The nested block comment contributes no tokens at all: nothing on
    // its line.
    let comment_line = line_of(&source, "nested .unwrap()");
    assert!(
        tokens.iter().all(|t| t.line != comment_line),
        "nested block comment leaked tokens"
    );

    // Raw strings of every fence width are single opaque tokens.
    let raws: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::RawStr)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(raws.len(), 4, "{raws:?}");
    assert!(raws.iter().any(|t| t.contains("an inner raw")));
    assert!(raws.iter().any(|t| t.contains("unreachable")));

    // The `'"'` char literal is a Char token, not a string opener.
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Char && t.text == "'\"'"));
    // `'\''` and `'\n'` survive as chars too.
    assert_eq!(
        tokens.iter().filter(|t| t.kind == TokenKind::Char).count(),
        3
    );
    // `'a` ticks are lifetimes, never chars.
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"));
}

#[test]
fn structural_fixture_live_findings_match_markers() {
    let source = fixture("structural.rs");
    let findings = check_all(&source);
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        vec![("lock-scope", line_of(&source, "MARK:lock-held"))],
        "all findings: {findings:?}"
    );
}

#[test]
fn fixtures_survive_truncation_without_panicking() {
    // Truncating a fixture at every char boundary exercises the
    // unterminated-literal, half-token, and dangling-brace paths
    // deterministically — for the lexer AND the parser.
    for name in ["lexer_edges.rs", "structural.rs"] {
        let source = fixture(name);
        let chars: Vec<char> = source.chars().collect();
        for cut in 0..=chars.len() {
            let prefix: String = chars[..cut].iter().collect();
            let tokens = lexer::lex(&prefix);
            assert!(tokens.len() <= cut + 1, "{name} cut at {cut}");
            let parsed = parse::parse(&tokens);
            assert!(
                parsed.stmt_count() <= tokens.len() + 1,
                "{name} cut at {cut}: parser produced phantom statements"
            );
        }
    }
}
