//! Per-file model: token stream, the code tokens outside `#[cfg(test)]`
//! items, and parsed `// els-lint: allow(...)` suppressions.
//!
//! The passes only ever see *library code*: test modules inside library
//! files are located by walking the token stream (`#[cfg(test)]` attribute
//! followed by an item, brace-matched) and masked out. Brace matching on
//! tokens is exact because the lexer has already removed braces hidden in
//! strings, chars and comments.

use crate::lexer::{tokenize, Token, TokenKind};

/// A suppression comment: `// els-lint: allow(<lint>, "<reason>")`.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppression {
    /// The lint being allowed (validated against the registry by the
    /// driver).
    pub lint: String,
    /// The mandatory human justification. Never empty.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// The line of code this suppression covers: its own line when the
    /// comment trails code, otherwise the next line holding a code token.
    pub applies_to: u32,
}

/// A malformed suppression or test-exclusion problem. These are hard
/// errors: a suppression without a justification must fail the run, not
/// silently suppress nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceError {
    /// Line of the offending comment.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// One library source file, lexed and annotated.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/core/src/estimator.rs`).
    pub rel_path: String,
    /// Token stream, comments included.
    pub(crate) tokens: Vec<Token>,
    /// Indices of the tokens that are code *and* outside `#[cfg(test)]`
    /// items — the stream every pass walks. A code index `ci` names
    /// `tokens[code[ci]]`.
    pub(crate) code: Vec<usize>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppressions found while parsing.
    pub errors: Vec<SourceError>,
}

impl SourceFile {
    /// Lex and annotate one file.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = tokenize(text);
        let excluded = mark_cfg_test_items(&tokens);
        let code = (0..tokens.len()).filter(|&i| tokens[i].is_code() && !excluded[i]).collect();
        let (suppressions, errors) = parse_suppressions(&tokens);
        SourceFile { rel_path: rel_path.to_string(), tokens, code, suppressions, errors }
    }

    /// The code token at code-index `ci`, if any.
    pub(crate) fn tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).and_then(|&i| self.tokens.get(i))
    }

    /// Text of the code token at `ci` (empty when out of range).
    pub(crate) fn text(&self, ci: usize) -> &str {
        self.tok(ci).map_or("", |t| t.text.as_str())
    }

    /// True when the code token at `ci` is the punctuation `c`.
    pub(crate) fn is_punct(&self, ci: usize, c: char) -> bool {
        self.tok(ci).is_some_and(|t| t.kind == TokenKind::Punct(c))
    }
}

/// Mark every token belonging to a `#[cfg(test)]` item (attribute
/// included). Handles stacked attributes between the cfg and the item, and
/// items ending at either a top-level `;` or a brace-matched `}`.
fn mark_cfg_test_items(tokens: &[Token]) -> Vec<bool> {
    let mut excluded = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
    let is = |ci: usize, kind: TokenKind, text: &str| -> bool {
        code.get(ci)
            .is_some_and(|&i| tokens[i].kind == kind && (text.is_empty() || tokens[i].text == text))
    };
    let mut ci = 0usize;
    while ci < code.len() {
        let pat = is(ci, TokenKind::Punct('#'), "")
            && is(ci + 1, TokenKind::Punct('['), "")
            && is(ci + 2, TokenKind::Ident, "cfg")
            && is(ci + 3, TokenKind::Punct('('), "")
            && is(ci + 4, TokenKind::Ident, "test")
            && is(ci + 5, TokenKind::Punct(')'), "")
            && is(ci + 6, TokenKind::Punct(']'), "");
        if !pat {
            ci += 1;
            continue;
        }
        let start = ci;
        let mut j = ci + 7;
        // Skip any further attributes stacked on the same item.
        while is(j, TokenKind::Punct('#'), "") && is(j + 1, TokenKind::Punct('['), "") {
            let mut depth = 0i32;
            j += 1;
            while j < code.len() {
                match tokens[code[j]].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        // Consume one item: to a top-level `;`, or through matched braces.
        let mut depth = 0i32;
        while j < code.len() {
            match tokens[code[j]].kind {
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = j.min(code.len().saturating_sub(1));
        for &ti in &code[start..=end] {
            excluded[ti] = true;
        }
        ci = j + 1;
    }
    excluded
}

/// Parse every `// els-lint:` comment in the stream. Well-formed ones
/// become [`Suppression`]s; anything else starting with the marker is a
/// [`SourceError`] — a typo in a suppression must not silently lint.
fn parse_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<SourceError>) {
    let mut sups = Vec::new();
    let mut errs = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("els-lint:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((lint, reason)) => {
                let trails_code = tokens[..i]
                    .iter()
                    .rev()
                    .take_while(|t| t.line == tok.line)
                    .any(|t| t.is_code());
                let applies_to = if trails_code {
                    tok.line
                } else {
                    tokens[i + 1..].iter().find(|t| t.is_code()).map_or(tok.line, |t| t.line)
                };
                sups.push(Suppression { lint, reason, line: tok.line, applies_to });
            }
            Err(msg) => errs.push(SourceError { line: tok.line, message: msg }),
        }
    }
    (sups, errs)
}

/// Parse `allow(<lint>, "<reason>")`. The reason is mandatory and must be
/// a non-empty string literal.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let inner = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('('))
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| {
            format!("malformed els-lint comment: expected `allow(<lint>, \"<reason>\")`, got `{s}`")
        })?;
    let (lint, rest) = inner.split_once(',').ok_or_else(|| {
        format!(
            "suppression for `{}` is missing its justification: \
             write `allow({}, \"why this is safe\")`",
            inner.trim(),
            inner.trim()
        )
    })?;
    let lint = lint.trim().to_string();
    let rest = rest.trim();
    let reason = rest
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("suppression reason must be a quoted string, got `{rest}`"))?;
    if reason.trim().is_empty() {
        return Err(format!("suppression for `{lint}` has an empty justification"));
    }
    if lint.is_empty() {
        return Err("suppression names no lint".to_string());
    }
    Ok((lint, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_masked_out() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn lib2() { z.unwrap(); }";
        let f = SourceFile::parse("a.rs", src);
        let visible: Vec<&str> = (0..f.code.len())
            .map(|ci| f.text(ci))
            .filter(|t| *t == "x" || *t == "y" || *t == "z")
            .collect();
        assert_eq!(visible, ["x", "z"]);
    }

    #[test]
    fn cfg_test_on_a_use_statement_ends_at_the_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() { a.unwrap(); }";
        let f = SourceFile::parse("a.rs", src);
        assert!((0..f.code.len()).any(|ci| f.text(ci) == "unwrap"));
        assert!(!(0..f.code.len()).any(|ci| f.text(ci) == "HashMap"));
    }

    #[test]
    fn stacked_attributes_stay_attached_to_the_test_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { y.unwrap(); } }";
        let f = SourceFile::parse("a.rs", src);
        assert!(!(0..f.code.len()).any(|ci| f.text(ci) == "y"));
    }

    #[test]
    fn trailing_suppression_applies_to_its_own_line() {
        let src = "let a = x.unwrap(); // els-lint: allow(atomics-discipline, \"checked above\")";
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.errors, vec![]);
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].applies_to, 1);
        assert_eq!(f.suppressions[0].lint, "atomics-discipline");
        assert_eq!(f.suppressions[0].reason, "checked above");
    }

    #[test]
    fn standalone_suppression_applies_to_the_next_code_line() {
        let src = "// els-lint: allow(parallelism-seam, \"bench-only module\")\n\n// other\nlet t = Instant::now();";
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.errors, vec![]);
        assert_eq!(f.suppressions[0].applies_to, 4);
    }

    #[test]
    fn missing_or_empty_justification_is_a_hard_error() {
        for src in [
            "// els-lint: allow(atomics-discipline)",
            "// els-lint: allow(atomics-discipline, \"\")",
            "// els-lint: allow(atomics-discipline, \"   \")",
            "// els-lint: allow(atomics-discipline, unquoted)",
            "// els-lint: permit(atomics-discipline, \"x\")",
        ] {
            let f = SourceFile::parse("a.rs", src);
            assert_eq!(f.suppressions.len(), 0, "{src}");
            assert_eq!(f.errors.len(), 1, "{src}");
        }
    }

    #[test]
    fn suppression_marker_inside_a_raw_string_is_not_a_suppression() {
        let src = "let s = r#\"// els-lint: allow(atomics-discipline, \"fake\")\"#;";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.suppressions.is_empty());
        assert!(f.errors.is_empty());
    }
}
