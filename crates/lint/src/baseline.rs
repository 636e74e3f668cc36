//! The ratchet baseline.
//!
//! `lint-baseline.json` grandfathers pre-existing violations per file per
//! lint. The contract: a (lint, file) pair may never exceed its recorded
//! count — new violations fail the run — and updates that raise any count
//! (or add a pair) only happen through `--baseline-update`, which is
//! itself gated behind `ELS_LINT_BASELINE_UPDATE=1` so the ratchet can
//! only be loosened deliberately. Counts drifting *below* the baseline are
//! reported as slack so a later deliberate update can tighten the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-lint, per-file grandfathered counts. BTreeMaps keep the serialized
/// form deterministic so baseline diffs review cleanly.
pub type Baseline = BTreeMap<String, BTreeMap<String, u64>>;

/// Serialize a baseline to the committed JSON form.
pub fn to_json(b: &Baseline) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"baseline\": {\n");
    let lints: Vec<_> = b.iter().filter(|(_, files)| !files.is_empty()).collect();
    for (li, (lint, files)) in lints.iter().enumerate() {
        s.push_str(&format!("    {}: {{\n", quote(lint)));
        for (fi, (file, count)) in files.iter().enumerate() {
            let comma = if fi + 1 < files.len() { "," } else { "" };
            s.push_str(&format!("      {}: {}{}\n", quote(file), count, comma));
        }
        let comma = if li + 1 < lints.len() { "," } else { "" };
        s.push_str(&format!("    }}{}\n", comma));
    }
    s.push_str("  }\n}\n");
    s
}

/// A JSON string literal for `s`: the one quoter of the baseline and the
/// report. Every character below U+0020 is escaped, so any text a
/// suppression or a file name carries stays valid JSON.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse the committed baseline. Strict about shape (it is our own file)
/// but tolerant of whitespace and key order.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let mut p = Parser { chars: text.chars().collect(), pos: 0 };
    let top = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err("trailing data after baseline JSON".to_string());
    }
    let Json::Object(top) = top else {
        return Err("baseline must be a JSON object".to_string());
    };
    let Some(Json::Object(by_lint)) = top.iter().find(|(k, _)| k == "baseline").map(|(_, v)| v)
    else {
        return Err("baseline JSON is missing the \"baseline\" object".to_string());
    };
    let mut out = Baseline::new();
    for (lint, files) in by_lint {
        let Json::Object(files) = files else {
            return Err(format!("baseline entry for {lint} must be an object"));
        };
        let entry = out.entry(lint.clone()).or_default();
        for (file, count) in files {
            let Json::Number(n) = count else {
                return Err(format!("count for {file} must be a number"));
            };
            if n.fract() != 0.0 || *n < 0.0 {
                return Err(format!("count for {file} must be a non-negative integer"));
            }
            entry.insert(file.clone(), *n as u64);
        }
    }
    Ok(out)
}

enum Json {
    Object(Vec<(String, Json)>),
    Number(f64),
    String(#[allow(dead_code)] String),
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.chars.get(self.pos).is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some(&c) if c == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!("expected `{want}`, found {other:?}")),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some('{') => self.object(),
            Some('"') => Ok(Json::String(self.string()?)),
            Some(c) if c.is_ascii_digit() || *c == '-' => self.number(),
            other => Err(format!("unexpected character {other:?} in baseline JSON")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_char('{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect_char(':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.chars.get(self.pos) {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.chars.get(self.pos) {
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    match self.chars.get(self.pos) {
                        Some(&c @ ('"' | '\\' | '/')) => out.push(c),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let hex: String =
                                self.chars.iter().skip(self.pos + 1).take(4).collect();
                            let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                            out.push(c.ok_or_else(|| format!("bad escape `\\u{hex}`"))?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string in baseline JSON".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Json::Number).map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new();
        b.entry("panic-reachability".to_string())
            .or_default()
            .insert("crates/storage/src/column.rs".to_string(), 4);
        b.entry("panic-reachability".to_string())
            .or_default()
            .insert("crates/core/src/closure.rs".to_string(), 2);
        b
    }

    #[test]
    fn round_trips() {
        let b = sample();
        let parsed = from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn control_characters_round_trip() {
        let mut b = Baseline::new();
        let file = "crates/a\tb\rc\nd\u{1}e\\f\"g.rs".to_string();
        b.entry("layering".to_string()).or_default().insert(file, 3);
        let text = to_json(&b);
        assert!(text.contains(r#""crates/a\tb\rc\nd\u0001e\\f\"g.rs": 3"#), "{text}");
        assert_eq!(from_json(&text).unwrap(), b);
        assert!(from_json("{\"baseline\": {\"l\": {\"\\ud800\": 1}}}").is_err());
    }

    #[test]
    fn empty_baseline_round_trips() {
        let b = Baseline::new();
        assert_eq!(from_json(&to_json(&b)).unwrap(), b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"version\": 1}").is_err());
        assert!(from_json("{\"baseline\": {\"l\": {\"f\": -1}}}").is_err());
        assert!(from_json("{\"baseline\": {\"l\": {\"f\": 1.5}}}").is_err());
    }
}
