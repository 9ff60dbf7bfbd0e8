//! A brace/paren-matched parse layer over the token stream.
//!
//! This is deliberately *not* a Rust grammar: the lock rules and the
//! call graph only need statements, scopes, and `fn` bodies, so the
//! parser recovers exactly that much shape and no more:
//!
//! * **Blocks** — every `{ .. }` group becomes a [`Block`], recursively.
//!   Struct literals and match bodies parse as blocks too; the junk
//!   "statements" that fall out of them match no rule pattern, so the
//!   over-approximation is harmless and keeps the parser trivial.
//! * **Statements** — block contents split on top-level `;`, and after a
//!   top-level `{ .. }` group unless the next token visibly continues
//!   the expression (`else`, `;`, `.`, `?`).  Closure bodies nested in
//!   call arguments still become blocks, so statements inside them are
//!   visited.
//! * **`fn` signatures** — name, line, and body span, enough to build
//!   the workspace call graph.
//!
//! Ambiguity is resolved conservatively: a generic parameter list that
//! does not close within a bounded window (the turbofish-vs-`<`
//! comparison ambiguity) makes the parser skip that `fn` rather than
//! guess, and malformed input degrades to fewer statements, never to a
//! panic.  The parser shares the lexer's contract: **it never panics and
//! always terminates**, whatever token stream it is fed (exercised by
//! the fuzz test, which runs every mutant through [`parse`]).

use crate::lexer::{Token, TokenKind};

/// One statement-ish span: a token-index range plus the brace blocks
/// nested inside it, in source order.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Index of the statement's first token.
    pub start: usize,
    /// Index of the statement's last token (the `;`, the closing `}`,
    /// or the last token of the enclosing block).
    pub end: usize,
    /// Every `{ .. }` group inside the statement, recursively parsed.
    pub blocks: Vec<Block>,
}

/// A `{ .. }` group (or the synthetic file-level scope) split into
/// statements.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Token index of the `{` (`None` for the file-level block).
    pub open: Option<usize>,
    /// Token index of the matching `}` (or one past the last token).
    pub close: usize,
    /// The statements between them.
    pub stmts: Vec<Stmt>,
}

/// A `fn` item's signature, as much as the call graph needs.
#[derive(Clone, Debug)]
pub struct FnSig {
    /// The function's bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body's `{` and `}`, when the fn has a body.
    pub body: Option<(usize, usize)>,
}

/// The parse of one file.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// The file-level scope; items are its statements.
    pub root: Block,
    /// Every `fn` signature found anywhere in the file (items, impl
    /// methods, nested fns), in source order.
    pub fns: Vec<FnSig>,
}

impl Parsed {
    /// Total statement count, recursively (a fuzz invariant: every
    /// statement consumes at least one token).
    #[must_use]
    pub fn stmt_count(&self) -> usize {
        fn count(block: &Block) -> usize {
            block
                .stmts
                .iter()
                .map(|s| 1 + s.blocks.iter().map(count).sum::<usize>())
                .sum()
        }
        count(&self.root)
    }

    /// The innermost `fn` whose body contains token index `i`.
    #[must_use]
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSig> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(open, close)| open < i && i < close))
            .min_by_key(|f| {
                let (open, close) = f.body.unwrap_or((0, usize::MAX));
                close - open
            })
    }
}

/// Parses a token stream into blocks, statements, and fn signatures.
/// Never panics; malformed input degrades to coarser statements.
#[must_use]
pub fn parse(tokens: &[Token]) -> Parsed {
    let root = parse_block(tokens, None, 0, tokens.len());
    let fns = collect_fns(tokens);
    Parsed { root, fns }
}

fn is_punct(tok: &Token, c: char) -> bool {
    tok.kind == TokenKind::Punct && tok.text.len() == 1 && tok.text.starts_with(c)
}

fn is_word(tok: &Token, text: &str) -> bool {
    matches!(tok.kind, TokenKind::Ident | TokenKind::RawIdent) && tok.text == text
}

/// Index of the `}` matching the `{` at `open`, bounded by `limit`.
/// Unterminated blocks run to `limit`.
fn matching_brace(tokens: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().take(limit).skip(open) {
        if is_punct(tok, '{') {
            depth += 1;
        } else if is_punct(tok, '}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    limit
}

/// Splits `tokens[start..end]` (the contents of a block) into
/// statements, recursing into nested `{ .. }` groups.
fn parse_block(tokens: &[Token], open: Option<usize>, start: usize, end: usize) -> Block {
    let end = end.min(tokens.len());
    let mut stmts = Vec::new();
    let mut i = start;
    while i < end {
        // Skip stray terminators so every statement is non-empty.
        if is_punct(&tokens[i], ';') {
            i += 1;
            continue;
        }
        let stmt_start = i;
        let mut blocks = Vec::new();
        let mut paren_depth = 0usize;
        let mut stmt_end = end - 1;
        let mut j = i;
        while j < end {
            let tok = &tokens[j];
            if is_punct(tok, '(') || is_punct(tok, '[') {
                paren_depth += 1;
            } else if is_punct(tok, ')') || is_punct(tok, ']') {
                paren_depth = paren_depth.saturating_sub(1);
            } else if is_punct(tok, '{') {
                let close = matching_brace(tokens, j, end);
                blocks.push(parse_block(tokens, Some(j), j + 1, close));
                let continues = tokens
                    .get(close + 1)
                    .filter(|_| close + 1 < end)
                    .is_some_and(|next| {
                        is_word(next, "else")
                            || is_punct(next, ';')
                            || is_punct(next, '.')
                            || is_punct(next, '?')
                    });
                if paren_depth == 0 && !continues {
                    stmt_end = close.min(end - 1);
                    j = close + 1;
                    break;
                }
                j = close + 1;
                continue;
            } else if is_punct(tok, '}') && paren_depth == 0 {
                // Unbalanced close inside our range: end the statement.
                stmt_end = j;
                j += 1;
                break;
            } else if is_punct(tok, ';') && paren_depth == 0 {
                stmt_end = j;
                j += 1;
                break;
            }
            j += 1;
        }
        if j >= end {
            stmt_end = end - 1;
            i = end;
        } else {
            i = j;
        }
        stmts.push(Stmt {
            start: stmt_start,
            end: stmt_end.max(stmt_start),
            blocks,
        });
    }
    Block {
        open,
        close: end,
        stmts,
    }
}

/// How many tokens a generic parameter list may span before the parser
/// gives up on the `fn` (the turbofish-vs-comparison ambiguity is
/// resolved by refusing to guess).
const GENERIC_WINDOW: usize = 256;

fn collect_fns(tokens: &[Token]) -> Vec<FnSig> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_word(&tokens[i], "fn") {
            if let Some((sig, next)) = parse_fn(tokens, i) {
                fns.push(sig);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Parses the `fn` starting at `at`; returns the signature and the
/// index to resume scanning from (the signature's end, so nested fns
/// inside the body are still found).
fn parse_fn(tokens: &[Token], at: usize) -> Option<(FnSig, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if !matches!(name_tok.kind, TokenKind::Ident | TokenKind::RawIdent) {
        // `fn(u8) -> u8` pointer types and malformed items.
        return None;
    }
    let mut j = at + 2;
    // Generic parameters: skip a balanced `< .. >`, treating `->` arrows
    // inside bounds as neutral.  Bail past the window.
    if tokens.get(j).is_some_and(|t| is_punct(t, '<')) {
        let mut depth = 0usize;
        let limit = (j + GENERIC_WINDOW).min(tokens.len());
        let mut k = j;
        loop {
            if k >= limit {
                return None;
            }
            let tok = &tokens[k];
            if is_punct(tok, '<') {
                depth += 1;
            } else if is_punct(tok, '-') && tokens.get(k + 1).is_some_and(|t| is_punct(t, '>')) {
                k += 2;
                continue;
            } else if is_punct(tok, '>') {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
        j = k;
    }
    if !tokens.get(j).is_some_and(|t| is_punct(t, '(')) {
        return None;
    }
    let params_close = matching_group(tokens, j)?;
    // Body: the next `{` after the parameters and before any `;` (a `;`
    // first means a trait method declaration or an extern fn — no body).
    let mut k = params_close + 1;
    let mut body = None;
    while let Some(tok) = tokens.get(k) {
        if is_punct(tok, ';') {
            break;
        }
        if is_punct(tok, '{') {
            body = Some((k, matching_brace(tokens, k, tokens.len())));
            break;
        }
        k += 1;
    }
    Some((
        FnSig {
            name: name_tok.text.clone(),
            line: tokens[at].line,
            body,
        },
        params_close + 1,
    ))
}

/// Index of the delimiter closing the `(`/`[` at `open` (balanced over
/// all three bracket kinds).
fn matching_group(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if is_punct(tok, '(') || is_punct(tok, '[') || is_punct(tok, '{') {
            depth += 1;
        } else if is_punct(tok, ')') || is_punct(tok, ']') || is_punct(tok, '}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Parsed {
        parse(&lex(src))
    }

    #[test]
    fn statements_split_on_semicolons_and_blocks() {
        let p = parsed("let a = 1; foo(); if x { b(); } let c = 2;");
        assert_eq!(p.root.stmts.len(), 4);
        assert_eq!(p.root.stmts[2].blocks.len(), 1);
        assert_eq!(p.root.stmts[2].blocks[0].stmts.len(), 1);
    }

    #[test]
    fn struct_literals_and_match_do_not_end_the_statement_early() {
        let p = parsed("let x = Foo { a: 1 };\nlet y = match z { A => 1, B => 2 };\nlast();");
        assert_eq!(p.root.stmts.len(), 3, "{:?}", p.root.stmts);
    }

    #[test]
    fn else_chains_stay_one_statement() {
        let p = parsed("if a { x(); } else if b { y(); } else { z(); }\nnext();");
        assert_eq!(p.root.stmts.len(), 2);
        assert_eq!(p.root.stmts[0].blocks.len(), 3);
    }

    #[test]
    fn closures_in_call_arguments_contribute_nested_blocks() {
        let p = parsed("items.iter().map(|i| { i.ok(); }).count();");
        assert_eq!(p.root.stmts.len(), 1);
        assert_eq!(p.root.stmts[0].blocks.len(), 1);
        assert_eq!(p.root.stmts[0].blocks[0].stmts.len(), 1);
    }

    #[test]
    fn fn_signatures_capture_name_line_and_body() {
        let p = parsed(
            "fn plain(n: usize, s: &str) -> u32 { 0 }\n\
             pub fn failing(x: u64) -> Result<(), String> { Ok(()) }\n\
             fn io_like() -> std::io::Result<()> { Ok(()) }\n\
             fn unit() {}\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["plain", "failing", "io_like", "unit"]);
        let lines: Vec<u32> = p.fns.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
        assert!(p.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn generic_fns_and_trait_decls_parse() {
        let p = parsed(
            "fn generic<T: Into<u64>>(v: T, n: u32) -> Result<T, ()> { Err(()) }\n\
             trait T { fn decl(&self) -> Result<(), ()>; }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "generic");
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[1].body.is_none());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parsed("let f: fn(u8) -> u8 = id;");
        assert!(p.fns.is_empty());
    }

    #[test]
    fn enclosing_fn_finds_the_innermost_body() {
        let src = "fn outer() { fn inner(k: u8) { mark(); } }";
        let tokens = lex(src);
        let p = parse(&tokens);
        let mark = tokens.iter().position(|t| t.text == "mark").expect("mark");
        assert_eq!(p.enclosing_fn(mark).map(|f| f.name.as_str()), Some("inner"));
    }

    #[test]
    fn where_clauses_do_not_hide_the_body() {
        let p = parsed("fn f<T>(x: T) -> Result<T, ()> where T: Clone { Err(()) }");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn comparison_chains_do_not_derail_statements() {
        // `a < b` is not a generic list; statement splitting ignores
        // angle brackets entirely.
        let p = parsed("let ok = a < b; let also = c > d; done();");
        assert_eq!(p.root.stmts.len(), 3);
    }

    #[test]
    fn never_panics_on_junk_and_counts_stay_bounded() {
        for src in [
            "}}}{{{",
            "fn",
            "fn (",
            "fn f(",
            "fn f<T(",
            "{;;}",
            "fn f<",
            "#[x] fn",
            "fn f() -> {",
            "match { =>",
            "|| {",
            "fn f<T>>>(x: T) {}",
        ] {
            let tokens = lex(src);
            let p = parse(&tokens);
            assert!(p.stmt_count() <= tokens.len() + 1, "{src:?}");
        }
    }
}
