//! A small span-tracking Rust lexer.
//!
//! The linter's rules are lexical (identifier patterns, method chains,
//! attestation comments), so a full parse is unnecessary — but a naive
//! substring search would mis-fire inside strings, comments and char
//! literals. This lexer produces a token stream with byte-accurate
//! `line:col` spans, handling nested block comments, raw/byte strings,
//! char-vs-lifetime disambiguation and numeric literals, and collects
//! comments separately so attestation markers (`// lint: sorted`) can be
//! attached to the lines they annotate.

/// What a token is. Literal payloads are kept where a rule needs them
/// (identifier text, string/numeric literal source text — the lock
/// analysis reads `RankedMutex::new("name", ..)` registrations out of
/// the literal); punctuation records its span alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (the `ch` field).
    Punct,
    /// `(`, `[` or `{`.
    Open,
    /// `)`, `]` or `}`.
    Close,
    /// String, raw string, byte string or char literal.
    Lit,
    /// Numeric literal.
    Num,
    /// `'lifetime`.
    Lifetime,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: Kind,
    /// Identifier text, or the literal's source text (including quotes
    /// and any prefix) for [`Kind::Lit`] / [`Kind::Num`]. Empty for
    /// punctuation and lifetimes.
    pub text: String,
    /// Punctuation / delimiter character (`\0` for non-punctuation).
    pub ch: char,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in characters).
    pub col: usize,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Is this a punctuation/delimiter token for `c`?
    pub fn is_ch(&self, c: char) -> bool {
        matches!(self.kind, Kind::Punct | Kind::Open | Kind::Close) && self.ch == c
    }
}

/// A comment with the line it starts on and the line it ends on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// `//` body or `/* */` body, delimiters stripped, untrimmed.
    pub text: String,
    /// 1-based first line.
    pub line: usize,
    /// 1-based last line (differs for multi-line block comments).
    pub end_line: usize,
}

/// Lexer output: tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // Count characters, not UTF-8 continuation bytes.
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. Unterminated constructs are tolerated (the rest of the
/// file becomes the literal/comment); the linter never needs to reject a
/// file the compiler would.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                c.bump();
                c.bump();
                let start = c.pos;
                while let Some(nb) = c.peek() {
                    if nb == b'\n' {
                        break;
                    }
                    c.bump();
                }
                out.comments.push(Comment {
                    text: src[start..c.pos].to_string(),
                    line,
                    end_line: line,
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let start = c.pos;
                let mut depth = 1usize;
                let mut end = c.pos;
                while let Some(nb) = c.peek() {
                    if nb == b'/' && c.peek_at(1) == Some(b'*') {
                        depth += 1;
                        c.bump();
                        c.bump();
                    } else if nb == b'*' && c.peek_at(1) == Some(b'/') {
                        depth -= 1;
                        end = c.pos;
                        c.bump();
                        c.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        c.bump();
                    }
                    end = c.pos;
                }
                out.comments.push(Comment {
                    text: src[start..end].to_string(),
                    line,
                    end_line: c.line,
                });
            }
            b'"' => {
                let start = c.pos;
                lex_string(&mut c);
                out.tokens
                    .push(tok(Kind::Lit, &src[start..c.pos], line, col));
            }
            b'\'' => {
                lex_quote(&mut c, src, &mut out, line, col);
            }
            _ if b.is_ascii_digit() => {
                let start = c.pos;
                lex_number(&mut c);
                out.tokens
                    .push(tok(Kind::Num, &src[start..c.pos], line, col));
            }
            _ if is_ident_start(b) => {
                let start = c.pos;
                while c.peek().is_some_and(is_ident_continue) {
                    c.bump();
                }
                let text = &src[start..c.pos];
                // r"..." r#"..."# b"..." br#"..."# c"..." etc.
                let is_raw_prefix = matches!(text, "r" | "br" | "cr")
                    && (c.peek() == Some(b'"') || c.peek() == Some(b'#'));
                let is_str_prefix = matches!(text, "b" | "c") && c.peek() == Some(b'"');
                if is_raw_prefix && lex_raw_string(&mut c) {
                    out.tokens
                        .push(tok(Kind::Lit, &src[start..c.pos], line, col));
                } else if is_str_prefix {
                    lex_string(&mut c);
                    out.tokens
                        .push(tok(Kind::Lit, &src[start..c.pos], line, col));
                } else if text == "b" && c.peek() == Some(b'\'') {
                    // byte char b'x'
                    c.bump();
                    lex_char_body(&mut c);
                    out.tokens
                        .push(tok(Kind::Lit, &src[start..c.pos], line, col));
                } else {
                    out.tokens.push(Token {
                        kind: Kind::Ident,
                        text: text.to_string(),
                        ch: '\0',
                        line,
                        col,
                    });
                }
            }
            b'(' | b'[' | b'{' => {
                c.bump();
                out.tokens.push(Token {
                    kind: Kind::Open,
                    text: String::new(),
                    ch: b as char,
                    line,
                    col,
                });
            }
            b')' | b']' | b'}' => {
                c.bump();
                out.tokens.push(Token {
                    kind: Kind::Close,
                    text: String::new(),
                    ch: b as char,
                    line,
                    col,
                });
            }
            _ => {
                c.bump();
                out.tokens.push(Token {
                    kind: Kind::Punct,
                    text: String::new(),
                    ch: b as char,
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn tok(kind: Kind, text: &str, line: usize, col: usize) -> Token {
    Token {
        kind,
        text: text.to_string(),
        ch: '\0',
        line,
        col,
    }
}

/// Consume a `"..."` string starting at the opening quote.
fn lex_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    while let Some(b) = c.peek() {
        match b {
            b'\\' => {
                c.bump();
                c.bump();
            }
            b'"' => {
                c.bump();
                return;
            }
            _ => {
                c.bump();
            }
        }
    }
}

/// Consume `#*"..."#*` after an `r`/`br`/`cr` prefix has already been
/// consumed. Returns false (consuming nothing) if this is not actually a
/// raw string (e.g. the identifier `r` before `#[...]` — impossible in
/// practice, but stay safe).
fn lex_raw_string(c: &mut Cursor<'_>) -> bool {
    let mut hashes = 0usize;
    while c.peek_at(hashes) == Some(b'#') {
        hashes += 1;
    }
    if c.peek_at(hashes) != Some(b'"') {
        return false;
    }
    for _ in 0..=hashes {
        c.bump(); // the #s and the opening quote
    }
    while let Some(b) = c.peek() {
        if b == b'"' {
            let mut ok = true;
            for i in 0..hashes {
                if c.peek_at(1 + i) != Some(b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..=hashes {
                    c.bump();
                }
                return true;
            }
        }
        c.bump();
    }
    true
}

/// Consume the remainder of a char literal after the opening `'`.
fn lex_char_body(c: &mut Cursor<'_>) {
    match c.peek() {
        Some(b'\\') => {
            c.bump();
            c.bump(); // escape head: n, ', u, x, ...
                      // \u{...}
            if c.peek() == Some(b'{') {
                while let Some(b) = c.bump() {
                    if b == b'}' {
                        break;
                    }
                }
            }
        }
        Some(_) => {
            c.bump();
        }
        None => return,
    }
    if c.peek() == Some(b'\'') {
        c.bump();
    }
}

/// `'` starts either a char literal or a lifetime.
fn lex_quote(c: &mut Cursor<'_>, src: &str, out: &mut Lexed, line: usize, col: usize) {
    let start = c.pos;
    c.bump(); // the quote
              // Lifetime: 'ident not followed by a closing quote.
    if c.peek().is_some_and(is_ident_start) && c.peek() != Some(b'\'') {
        // Look ahead over the identifier for a closing quote ('a' is a char,
        // 'abc is a lifetime, 'a is a lifetime).
        let mut n = 0usize;
        while c.peek_at(n).is_some_and(is_ident_continue) {
            n += 1;
        }
        if c.peek_at(n) == Some(b'\'') && n == 1 {
            lex_char_body(c);
            out.tokens
                .push(tok(Kind::Lit, &src[start..c.pos], line, col));
        } else {
            for _ in 0..n {
                c.bump();
            }
            out.tokens.push(tok(Kind::Lifetime, "", line, col));
        }
    } else {
        lex_char_body(c);
        out.tokens
            .push(tok(Kind::Lit, &src[start..c.pos], line, col));
    }
}

/// Consume a numeric literal (integers, floats, hex/oct/bin, suffixes).
fn lex_number(c: &mut Cursor<'_>) {
    // Leading digits, underscores, radix prefixes and suffix letters.
    while c
        .peek()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
    {
        c.bump();
    }
    // A fractional part only if the dot is followed by a digit (so `0..n`
    // and `1.max(x)` stay three tokens).
    if c.peek() == Some(b'.') && c.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        c.bump();
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
        // Exponent sign: 1.5e-3.
        if c.src[c.pos.saturating_sub(1)] == b'e' && matches!(c.peek(), Some(b'+') | Some(b'-')) {
            c.bump();
            while c.peek().is_some_and(|b| b.is_ascii_digit()) {
                c.bump();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // HashMap in a comment
            let s = "HashMap::new()"; /* HashMap */
            let r = r#"HashMap"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "ids: {ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("let")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("inner")));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\''; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        // The char literals didn't swallow the closing brace.
        assert!(lexed.tokens.iter().any(|t| t.is_ch('}')));
    }

    #[test]
    fn spans_are_line_and_column_accurate() {
        let src = "let a = 1;\n  foo.iter();\n";
        let lexed = lex(src);
        let foo = lexed.tokens.iter().find(|t| t.is_ident("foo")).unwrap();
        assert_eq!((foo.line, foo.col), (2, 3));
        let iter = lexed.tokens.iter().find(|t| t.is_ident("iter")).unwrap();
        assert_eq!(iter.line, 2);
    }

    #[test]
    fn comment_lines_recorded() {
        let src = "let x = 1; // lint: sorted\n/* a\nb */\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("lint: sorted"));
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.comments[1].end_line, 3);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let y = 1.5e-3; let z = 2.max(i); }";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("max")));
        let nums = lexed.tokens.iter().filter(|t| t.kind == Kind::Num).count();
        assert_eq!(nums, 4, "0, 10, 1.5e-3, 2");
    }

    #[test]
    fn literal_tokens_keep_their_source_text() {
        let src = r##"let a = "conns"; let b = 42u32; let c = r#"raw"#;"##;
        let lits: Vec<String> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| matches!(t.kind, Kind::Lit | Kind::Num))
            .map(|t| t.text)
            .collect();
        assert_eq!(lits, ["\"conns\"", "42u32", "r#\"raw\"#"]);
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r##"let a = br#"unsafe "quoted" body"#; let b = b"bytes"; let c = b'x';"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"bytes".to_string()));
        assert_eq!(ids.iter().filter(|s| *s == "let").count(), 3);
    }
}
