//! A small Rust lexer, exact where it matters for linting.
//!
//! The passes in this crate reason about *token streams*, never raw text,
//! so the lexer must get the hard cases right: `//` inside a raw string is
//! not a comment, `'"'` is a char literal and not the start of a string,
//! `'a` is a lifetime while `'a'` is a char, and `/* /* */ */` only closes
//! at the second `*/`. Everything else — numbers, idents, punctuation —
//! only needs to be segmented consistently, not interpreted.

/// What a token is. Comments are kept in the stream (suppression comments
/// are data for the linter); whitespace is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#fn`).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// Integer or float literal, including suffixes (`1_000u64`, `1.5e-3`).
    Number,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` — any hash depth.
    RawStr,
    /// `'x'`, `'\''`, `'\u{1F600}'`, `b'x'`.
    CharLit,
    /// `'a`, `'static`, `'_`.
    Lifetime,
    /// `// ...` (also `///` and `//!`).
    LineComment,
    /// `/* ... */`, nesting-aware.
    BlockComment,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for tokens that are code rather than commentary.
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

struct Cursor<'a> {
    chars: std::str::Chars<'a>,
    peeked: Vec<char>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor { chars: text.chars(), peeked: Vec::new(), line: 1, col: 1 }
    }

    fn peek(&mut self, n: usize) -> Option<char> {
        while self.peeked.len() <= n {
            self.peeked.push(self.chars.next()?);
        }
        Some(self.peeked[n])
    }

    fn bump(&mut self) -> Option<char> {
        let c = if self.peeked.is_empty() { self.chars.next()? } else { self.peeked.remove(0) };
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `text`. The lexer is total: any input produces a token stream
/// (malformed trailing literals become best-effort tokens), because the
/// linter must keep going to report everything it can.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut cur = Cursor::new(text);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let tok = if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur)
        } else if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur)
        } else if (c == 'r' && is_raw_string_ahead(&mut cur, 1))
            || (c == 'b' && cur.peek(1) == Some('r') && is_raw_string_ahead(&mut cur, 2))
        {
            lex_raw_string(&mut cur)
        } else if c == '"' || (c == 'b' && cur.peek(1) == Some('"')) {
            lex_string(&mut cur)
        } else if c == 'b' && cur.peek(1) == Some('\'') {
            cur.bump();
            let mut t = lex_quote(&mut cur);
            t.text.insert(0, 'b');
            t
        } else if c == '\'' {
            lex_quote(&mut cur)
        } else if is_ident_start(c) {
            lex_ident(&mut cur)
        } else if c.is_ascii_digit() {
            lex_number(&mut cur)
        } else {
            let c = cur.bump().unwrap_or(' ');
            Token { kind: TokenKind::Punct(c), text: c.to_string(), line, col }
        };
        out.push(Token { line, col, ..tok });
    }
    out
}

/// At offset `start` past an `r` (or `br`), is `#*"` next — i.e. a raw
/// string rather than a raw identifier like `r#fn`?
fn is_raw_string_ahead(cur: &mut Cursor<'_>, start: usize) -> bool {
    let mut i = start;
    while cur.peek(i) == Some('#') {
        i += 1;
    }
    cur.peek(i) == Some('"')
}

fn lex_line_comment(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokenKind::LineComment, text, line: 0, col: 0 }
}

fn lex_block_comment(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    let mut depth = 0u32;
    while let Some(c) = cur.peek(0) {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    Token { kind: TokenKind::BlockComment, text, line: 0, col: 0 }
}

fn lex_raw_string(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    // `r` or `br` prefix.
    while matches!(cur.peek(0), Some('r') | Some('b')) {
        text.push(cur.bump().unwrap_or('r'));
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        cur.bump();
    }
    if cur.peek(0) == Some('"') {
        text.push('"');
        cur.bump();
    }
    // Scan for `"` followed by `hashes` hashes.
    'outer: while let Some(c) = cur.peek(0) {
        if c == '"' {
            for i in 0..hashes {
                if cur.peek(1 + i) != Some('#') {
                    text.push('"');
                    cur.bump();
                    continue 'outer;
                }
            }
            text.push('"');
            cur.bump();
            for _ in 0..hashes {
                text.push('#');
                cur.bump();
            }
            break;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokenKind::RawStr, text, line: 0, col: 0 }
}

fn lex_string(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    if cur.peek(0) == Some('b') {
        text.push('b');
        cur.bump();
    }
    text.push('"');
    cur.bump();
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '"' {
            break;
        }
    }
    Token { kind: TokenKind::Str, text, line: 0, col: 0 }
}

/// A leading `'`: either a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::from('\'');
    cur.bump();
    match cur.peek(0) {
        // `'\...'` is always a char literal.
        Some('\\') => {
            text.push('\\');
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            while let Some(c) = cur.bump() {
                text.push(c);
                if c == '\'' {
                    break;
                }
            }
            Token { kind: TokenKind::CharLit, text, line: 0, col: 0 }
        }
        // `'x'` (x immediately followed by a closing quote) is a char
        // literal; `'x` with anything else after is a lifetime.
        Some(c) if cur.peek(1) == Some('\'') => {
            text.push(c);
            cur.bump();
            text.push('\'');
            cur.bump();
            Token { kind: TokenKind::CharLit, text, line: 0, col: 0 }
        }
        Some(c) if is_ident_start(c) => {
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            Token { kind: TokenKind::Lifetime, text, line: 0, col: 0 }
        }
        // Bare `'` before something that is neither escape, char-close nor
        // ident: emit it as punctuation so the stream stays total.
        _ => Token { kind: TokenKind::Punct('\''), text, line: 0, col: 0 },
    }
}

fn lex_ident(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    // Raw identifier prefix `r#`.
    if cur.peek(0) == Some('r') && cur.peek(1) == Some('#') {
        text.push('r');
        text.push('#');
        cur.bump();
        cur.bump();
    }
    while let Some(c) = cur.peek(0) {
        if !is_ident_continue(c) {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokenKind::Ident, text, line: 0, col: 0 }
}

fn lex_number(cur: &mut Cursor<'_>) -> Token {
    let mut text = String::new();
    let mut prev = ' ';
    while let Some(c) = cur.peek(0) {
        let take = if c.is_ascii_alphanumeric() || c == '_' {
            true
        } else if c == '.' {
            // `1.0` continues the number; `1..n` and `1.max(2)` do not.
            matches!(cur.peek(1), Some(d) if d.is_ascii_digit())
        } else if c == '+' || c == '-' {
            // Only as an exponent sign: `1e-5`.
            prev == 'e' || prev == 'E'
        } else {
            false
        };
        if !take {
            break;
        }
        text.push(c);
        prev = c;
        cur.bump();
    }
    Token { kind: TokenKind::Number, text, line: 0, col: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_string_containing_comment_markers_and_quotes() {
        let src = "let s = r#\"// not a comment \" still \"#; x.unwrap()";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("// not a comment")));
        // The unwrap after the raw string is still seen as code.
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert_eq!(toks.iter().filter(|(k, _)| matches!(k, TokenKind::LineComment)).count(), 0);
    }

    #[test]
    fn nested_block_comments_close_at_the_outermost_level() {
        let src = "/* outer /* inner */ still comment */ code";
        let toks = kinds(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.contains("still comment"));
        assert_eq!(toks[1], (TokenKind::Ident, "code".to_string()));
    }

    #[test]
    fn char_literals_with_quotes_and_escapes() {
        for src in ["'\"'", "'\\''", "'\\\\'", "'\\u{1F600}'", "b'x'"] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src} should be one token, got {toks:?}");
            assert_eq!(toks[0].0, TokenKind::CharLit, "{src}");
        }
    }

    #[test]
    fn char_literal_quote_does_not_open_a_string() {
        // If `'"'` were mis-lexed, the following // comment would be
        // swallowed into a string and the suppression lost.
        let src = "let c = '\"'; // els-lint: allow(atomics-discipline, \"r\")";
        let toks = kinds(src);
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::CharLit));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::LineComment && t.contains("els-lint")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(toks.iter().all(|(k, _)| *k != TokenKind::CharLit));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_method_calls() {
        let toks = kinds("for i in 0..10 { 1.5e-3; 2.max(3); }");
        let nums: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Number).map(|(_, t)| t.as_str()).collect();
        assert_eq!(nums, ["0", "10", "1.5e-3", "2", "3"]);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "max"));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#fn = r#\"raw\"#;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r#fn"));
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::RawStr));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = tokenize("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
