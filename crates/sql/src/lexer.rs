//! Tokenizer for the SPJ subset.

use crate::error::{SqlError, SqlResult};

/// One lexical token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the input where the token starts.
    pub position: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (case preserved; keyword checks are
    /// case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl TokenKind {
    /// True when this is the (case-insensitive) keyword `kw`.
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize `input`.
///
/// Every delimiter is ASCII, and UTF-8 never puts an ASCII byte inside a
/// multibyte character, so string literals are sliced out of `input` whole:
/// `'café'` is `Str("café")`.
pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut rest = input;
    loop {
        let mut chars = rest.chars();
        let Some(c) = chars.next() else { break };
        let after = chars.as_str();
        let position = input.len() - rest.len();
        let lex_error = |message: String| SqlError::Lex { position, message };
        let single = |kind: TokenKind| (Some(kind), after);
        let (kind, tail) = match c {
            c if c.is_ascii_whitespace() => (None, after),
            ',' => single(TokenKind::Comma),
            '.' => single(TokenKind::Dot),
            '(' => single(TokenKind::LParen),
            ')' => single(TokenKind::RParen),
            '*' => single(TokenKind::Star),
            '=' => single(TokenKind::Eq),
            '!' => match after.strip_prefix('=') {
                Some(tail) => (Some(TokenKind::Ne), tail),
                None => return Err(lex_error("expected `=` after `!`".into())),
            },
            '<' => match (after.strip_prefix('='), after.strip_prefix('>')) {
                (Some(tail), _) => (Some(TokenKind::Le), tail),
                (_, Some(tail)) => (Some(TokenKind::Ne), tail),
                _ => single(TokenKind::Lt),
            },
            '>' => match after.strip_prefix('=') {
                Some(tail) => (Some(TokenKind::Ge), tail),
                None => single(TokenKind::Gt),
            },
            '\'' => {
                let mut s = String::new();
                let mut body = after;
                loop {
                    let Some((chunk, tail)) = body.split_once('\'') else {
                        return Err(lex_error("unterminated string literal".into()));
                    };
                    s.push_str(chunk);
                    // `''` escapes a quote.
                    match tail.strip_prefix('\'') {
                        Some(escaped) => {
                            s.push('\'');
                            body = escaped;
                        }
                        None => break (Some(TokenKind::Str(s)), tail),
                    }
                }
            }
            c if c.is_ascii_digit()
                || (c == '-' && after.starts_with(|d: char| d.is_ascii_digit())) =>
            {
                let is_digit = |d: char| d.is_ascii_digit();
                let int_tail = after.trim_start_matches(is_digit);
                // A `.` belongs to the literal only when a digit follows it.
                let frac_tail = int_tail
                    .strip_prefix('.')
                    .map(|t| t.trim_start_matches(is_digit))
                    .filter(|t| t.len() + 1 < int_tail.len());
                let (text, tail) = rest.split_at(rest.len() - frac_tail.unwrap_or(int_tail).len());
                let kind = if frac_tail.is_some() {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| lex_error(format!("bad float literal `{text}`")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| lex_error(format!("bad integer literal `{text}`")))?,
                    )
                };
                (Some(kind), tail)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let tail = rest.trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
                let (word, tail) = rest.split_at(rest.len() - tail.len());
                (Some(TokenKind::Ident(word.to_owned())), tail)
            }
            other => return Err(lex_error(format!("unexpected character `{other}`"))),
        };
        if let Some(kind) = kind {
            tokens.push(Token { kind, position });
        }
        rest = tail;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_the_section8_query() {
        let ks = kinds("SELECT COUNT(*) FROM S, M WHERE s = m AND s < 100");
        assert_eq!(ks.len(), 17);
        assert!(ks[0].is_keyword("select"));
        assert_eq!(ks[2], TokenKind::LParen);
        assert_eq!(ks[3], TokenKind::Star);
        assert_eq!(ks[15], TokenKind::Lt);
        assert_eq!(ks[16], TokenKind::Int(100));
    }

    #[test]
    fn string_literals_keep_non_ascii_text_whole() {
        let ks = kinds("SELECT COUNT(*) FROM t WHERE t.s = 'café' AND t.u = '日本''s 😀'");
        assert_eq!(ks[12], TokenKind::Str("café".into()));
        assert_eq!(ks[18], TokenKind::Str("日本's 😀".into()));
        // A non-ASCII character outside a literal is named in the error.
        let err = tokenize("SELECT é").unwrap_err();
        assert!(err.to_string().contains("`é`"), "{err}");
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= <> != < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            kinds("42 -7 3.25 'it''s'"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(-7),
                TokenKind::Float(3.25),
                TokenKind::Str("it's".into())
            ]
        );
    }

    #[test]
    fn qualified_names() {
        assert_eq!(
            kinds("R1.x"),
            vec![TokenKind::Ident("R1".into()), TokenKind::Dot, TokenKind::Ident("x".into())]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokenize("a ; b").unwrap_err();
        assert_eq!(err, SqlError::Lex { position: 2, message: "unexpected character `;`".into() });
        assert!(matches!(tokenize("'open"), Err(SqlError::Lex { .. })));
        assert!(matches!(tokenize("a ! b"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ks = kinds("select FROM WhErE");
        assert!(ks[0].is_keyword("SELECT"));
        assert!(ks[1].is_keyword("from"));
        assert!(ks[2].is_keyword("where"));
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(tokenize("   ").unwrap().is_empty());
    }
}
