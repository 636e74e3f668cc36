//! Human and JSON reports.
//!
//! The human report leads with a per-lint table of current (unsuppressed)
//! and suppressed counts — the line `scripts/check.sh` surfaces — then
//! lists anything that fails the run. The JSON report carries the full
//! structured outcome for tooling.

use std::fmt::Write as _;

use crate::passes::Violation;
use crate::{per_lint_summary, Outcome};

/// Render the human report.
pub fn human(outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "els-lint: scanned {} library source files", outcome.files_scanned);
    let _ = writeln!(s, "  {:<20} {:>8} {:>11}", "lint", "current", "suppressed");
    for (lint, (current, suppressed)) in per_lint_summary(outcome) {
        let _ = writeln!(s, "  {lint:<20} {current:>8} {suppressed:>11}");
    }
    for e in &outcome.hard_errors {
        let _ = writeln!(s, "error: {}:{}: {}", e.file, e.line, e.message);
    }
    for v in outcome.unsuppressed() {
        let _ = writeln!(s, "violation: {}", format_violation(v));
    }
    if outcome.is_ok() {
        let _ = writeln!(s, "els-lint: OK (no violations)");
    } else {
        let _ = writeln!(
            s,
            "els-lint: FAILED ({} violation(s), {} error(s))",
            outcome.unsuppressed().count(),
            outcome.hard_errors.len()
        );
    }
    s
}

fn format_violation(v: &Violation) -> String {
    format!("{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.lint.name(), v.message)
}

/// Render the JSON report.
pub fn json(outcome: &Outcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", outcome.files_scanned);
    let _ = writeln!(s, "  \"ok\": {},", outcome.is_ok());
    s.push_str("  \"lints\": {\n");
    let summary = per_lint_summary(outcome);
    for (i, (lint, (current, suppressed))) in summary.iter().enumerate() {
        let comma = if i + 1 < summary.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {}: {{\"current\": {current}, \"suppressed\": {suppressed}}}{comma}",
            quote(lint)
        );
    }
    s.push_str("  },\n");
    s.push_str("  \"violations\": [\n");
    let violations: Vec<&Violation> = outcome.unsuppressed().collect();
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}{}",
            quote(v.lint.name()),
            quote(&v.file),
            v.line,
            v.col,
            quote(&v.message),
            comma
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"lock_order\": {\n    \"order\": [");
    for (i, class) in outcome.lock_order.iter().enumerate() {
        let comma = if i + 1 < outcome.lock_order.len() { ", " } else { "" };
        let _ = write!(s, "{}{}", quote(class), comma);
    }
    s.push_str("],\n    \"edges\": [\n");
    for (i, e) in outcome.lock_edges.iter().enumerate() {
        let comma = if i + 1 < outcome.lock_edges.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"via\": {}}}{}",
            quote(&e.from),
            quote(&e.to),
            quote(&e.file),
            e.line,
            quote(&e.via),
            comma
        );
    }
    s.push_str("    ]\n  },\n");
    s.push_str("  \"errors\": [\n");
    for (i, e) in outcome.hard_errors.iter().enumerate() {
        let comma = if i + 1 < outcome.hard_errors.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"file\": {}, \"line\": {}, \"message\": {}}}{}",
            quote(&e.file),
            e.line,
            quote(&e.message),
            comma
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// A JSON string literal for `s`. Every character below U+0020 is
/// escaped, so any text a message or a file name carries stays valid JSON.
fn quote(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::quote;

    #[test]
    fn quote_escapes_every_control_character() {
        let quoted = quote("crates/a\tb\rc\nd\u{1}e\\f\"g.rs");
        assert_eq!(quoted, r#""crates/a\tb\rc\nd\u0001e\\f\"g.rs""#);
    }
}
