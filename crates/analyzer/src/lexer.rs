//! A hand-rolled Rust lexer producing the token stream the rules run on.
//!
//! This is deliberately *not* a full Rust parser: the rules only need a
//! comment-and-literal-aware token stream, so the lexer's contract is
//!
//! 1. **Comments never produce tokens** — line comments (`//`, `///`,
//!    `//!`) and block comments (`/* .. */`, nested to any depth) are
//!    skipped, so `// calls unwrap()` can never trip a rule.
//! 2. **Literals are opaque** — string, raw-string (any `#` fence
//!    width), byte-string, C-string, and char literals each become a
//!    single token whose *contents* are never re-lexed, so
//!    `"panic!(..)"` or `'"'` can never trip a rule either.
//! 3. **It never panics and always terminates**, whatever bytes it is
//!    fed (exercised by the fuzz test and the fixture tests): malformed
//!    input degrades to junk punct tokens or an unterminated literal
//!    that runs to end of file.

/// What a [`Token`] is; rules match on kind plus text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `fn`, `HashMap`).
    Ident,
    /// A raw identifier (`r#type` — text carries the part after `r#`).
    RawIdent,
    /// A single punctuation character.
    Punct,
    /// A string, byte-string, or C-string literal (escape-aware).
    Str,
    /// A raw string literal with any number of `#` fences.
    RawStr,
    /// A char or byte-char literal (`'a'`, `'\''`, `'"'`, `b'x'`).
    Char,
    /// A lifetime tick (`'a`, `'static`).
    Lifetime,
    /// An integer literal (suffixes included: `42u64`, `0xff`).
    Int,
    /// A float literal (`1.0`, `1e-3`, `2f64`).
    Float,
}

/// One lexed token with its 1-based source line and byte span.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification the rules dispatch on.
    pub kind: TokenKind,
    /// Source text (raw identifiers are stripped to the bare name).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first byte in the source.
    pub start: u32,
    /// Byte offset one past the token's last byte.
    pub end: u32,
}

/// Lexes `source` into tokens, in source order.  Never panics;
/// malformed input degrades as described in the module docs.
#[must_use]
pub fn lex(source: &str) -> Vec<Token> {
    Cursor::new(source).run()
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Byte offset of `pos` in the original source.
    byte: u32,
    /// Byte offset where the token currently being lexed started.
    token_start: u32,
    out: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Cursor {
    fn new(source: &str) -> Self {
        Cursor {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            byte: 0,
            token_start: 0,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a char's UTF-8 encoding is at most 4 bytes"
    )]
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        self.byte += c.len_utf8() as u32;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token {
            kind,
            text,
            line,
            start: self.token_start,
            end: self.byte,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            self.token_start = self.byte;
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string(TokenKind::Str);
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c == 'r' && matches!(self.peek(1), Some('"' | '#')) {
                self.raw_prefixed(1);
            } else if matches!(c, 'b' | 'c') && self.peek(1) == Some('"') {
                self.bump();
                self.string(TokenKind::Str);
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                self.char_or_lifetime();
            } else if matches!(c, 'b' | 'c')
                && self.peek(1) == Some('r')
                && matches!(self.peek(2), Some('"' | '#'))
            {
                self.bump();
                self.raw_prefixed(1);
            } else if is_ident_start(c) {
                self.ident();
            } else if c.is_ascii_digit() {
                self.number();
            } else {
                let line = self.line;
                self.bump();
                self.push(TokenKind::Punct, c.to_string(), line);
            }
        }
        self.out
    }

    /// A `//` comment: consumed to end of line.
    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    /// A `/* .. */` comment, nested to arbitrary depth; unterminated
    /// comments run to end of file.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    /// A `"…"` literal with backslash escapes; `kind` lets the byte/C
    /// prefixes reuse this.  Unterminated strings run to end of file.
    fn string(&mut self, kind: TokenKind) {
        let line = self.line;
        let mut text = String::new();
        text.push('"');
        self.bump();
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push(kind, text, line);
    }

    /// `r"…"` / `r#…#` (after an optional `b`/`c` prefix already
    /// consumed): raw string, raw identifier, or a plain ident starting
    /// with `r`.  `skip` is the offset of the char after the `r`.
    fn raw_prefixed(&mut self, skip: usize) {
        let line = self.line;
        let mut fences = 0usize;
        while self.peek(skip + fences) == Some('#') {
            fences += 1;
        }
        match self.peek(skip + fences) {
            Some('"') => {
                // Raw string with `fences` hash fences: runs until a
                // closing quote followed by the same number of hashes.
                for _ in 0..=skip + fences {
                    self.bump();
                }
                let mut text = String::from("r\"");
                loop {
                    match self.bump() {
                        None => break,
                        Some('"') => {
                            let closed = (0..fences).all(|k| self.peek(k) == Some('#'));
                            if closed {
                                for _ in 0..fences {
                                    self.bump();
                                }
                                break;
                            }
                            text.push('"');
                        }
                        Some(c) => text.push(c),
                    }
                }
                self.push(TokenKind::RawStr, text, line);
            }
            Some(c) if fences == 1 && is_ident_start(c) => {
                // Raw identifier `r#name`: token text is the bare name
                // so rules treat `x.r#unwrap()` exactly like `x.unwrap()`.
                for _ in 0..=skip {
                    self.bump();
                }
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokenKind::RawIdent, text, line);
            }
            _ => self.ident(),
        }
    }

    /// Disambiguates `'a'` / `'\n'` / `'"'` (char literals) from `'a` /
    /// `'static` (lifetimes): a tick followed by an identifier that is
    /// *not* closed by another tick is a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump();
        match self.peek(0) {
            Some(c) if is_ident_continue(c) && self.peek(1) != Some('\'') => {
                let mut text = String::from("'");
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokenKind::Lifetime, text, line);
            }
            _ => {
                let mut text = String::from("'");
                while let Some(c) = self.bump() {
                    text.push(c);
                    if c == '\\' {
                        if let Some(escaped) = self.bump() {
                            text.push(escaped);
                        }
                    } else if c == '\'' {
                        break;
                    } else if c == '\n' {
                        // A stray tick never swallows the rest of the
                        // file: give up at end of line.
                        break;
                    }
                }
                self.push(TokenKind::Char, text, line);
            }
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        if text.is_empty() {
            // Defensive: only reachable if called off an edge; consume
            // one char so the loop always advances.
            if let Some(c) = self.bump() {
                self.push(TokenKind::Punct, c.to_string(), line);
            }
            return;
        }
        self.push(TokenKind::Ident, text, line);
    }

    /// Integer or float literal; `1.0`, `1e-3`, `1_000`, `0xff`, and
    /// suffixed forms (`2f64`, `42u32`).  A `.` is only consumed when a
    /// digit follows, so `0..10` and `1.max(2)` lex as int-punct-….
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut float = false;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                if matches!(c, 'e' | 'E')
                    && !text.starts_with("0x")
                    && !text.starts_with("0b")
                    && !text.starts_with("0o")
                    && matches!(self.peek(1), Some(d) if d.is_ascii_digit() || d == '+' || d == '-')
                {
                    float = true;
                    text.push(c);
                    self.bump();
                    if let Some(sign @ ('+' | '-')) = self.peek(0) {
                        text.push(sign);
                        self.bump();
                    }
                    continue;
                }
                text.push(c);
                self.bump();
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) && !float {
                float = true;
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Type-suffixed floats (`2f64`) carry no dot or exponent.
        if text.ends_with("f32") || text.ends_with("f64") {
            float = true;
        }
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<(TokenKind, String)> {
        lex(source).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        let src = "a // unwrap() panic!\nb /* .unwrap() /* nested */ still comment */ c";
        let toks = kinds(src);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::Ident, "b".into()),
                (TokenKind::Ident, "c".into()),
            ]
        );
    }

    #[test]
    fn strings_are_opaque() {
        let toks = kinds(r#"let s = "x.unwrap()";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "unwrap"));
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Str));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r####"let s = r#"quote " and panic!()"# ; done"####;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("quote")));
        assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some("done"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let q = '\"'; let t = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert_eq!(chars.len(), 2, "{toks:?}");
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = kinds("0..10 1.5 2f64 1e-3 0xff");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, vec!["1.5", "2f64", "1e-3"]);
        let ints: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ints, vec!["0", "10", "0xff"]);
    }

    #[test]
    fn raw_identifiers_are_stripped() {
        let toks = kinds("x.r#unwrap()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawIdent && t == "unwrap"));
    }

    #[test]
    fn line_numbers_track_every_literal_form() {
        let src = "a\n\"two\nlines\"\nb";
        let b = lex(src)
            .iter()
            .find(|t| t.text == "b")
            .map(|t| t.line)
            .unwrap_or(0);
        assert_eq!(b, 4);
    }

    #[test]
    fn byte_spans_slice_back_to_the_source() {
        let src = "let αβ = x.unwrap();";
        for t in lex(src) {
            let slice = &src[t.start as usize..t.end as usize];
            assert!(!slice.is_empty(), "empty span for {t:?}");
        }
        let toks = lex("ab cd");
        assert_eq!((toks[0].start, toks[0].end), (0, 2));
        assert_eq!((toks[1].start, toks[1].end), (3, 5));
        // Prefixed literals span from their prefix byte.
        let toks = lex("r#\"x\"#");
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[0].end, 6);
    }

    #[test]
    fn never_panics_on_junk() {
        for src in [
            "\"unterminated",
            "r#\"unterminated",
            "/* unterminated /* nested",
            "'",
            "'\\",
            "b'",
            "r#",
            "\u{FFFD}\u{0}\"'//*",
            "1.",
            "1e",
            "0x",
        ] {
            assert!(lex(src).len() <= src.chars().count(), "{src:?}");
        }
    }
}
