//! Human and JSON reports.
//!
//! The human report leads with the per-lint delta against the baseline —
//! the line `scripts/check.sh` surfaces — then lists anything that fails
//! the run. The JSON report carries the full structured outcome for
//! tooling.

use std::fmt::Write as _;

use crate::baseline::quote;
use crate::passes::Violation;
use crate::{per_lint_summary, Outcome};

/// Render the human report.
pub fn human(outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "els-lint: scanned {} library source files", outcome.files_scanned);
    let _ = writeln!(
        s,
        "  {:<20} {:>8} {:>9} {:>11} {:>7}",
        "lint", "current", "baseline", "suppressed", "delta"
    );
    for (lint, (current, baselined, suppressed)) in per_lint_summary(outcome) {
        let delta = current as i64 - baselined as i64;
        let delta = match delta {
            0 => "0".to_string(),
            d if d > 0 => format!("+{d}"),
            d => d.to_string(),
        };
        let _ = writeln!(
            s,
            "  {:<20} {:>8} {:>9} {:>11} {:>7}",
            lint, current, baselined, suppressed, delta
        );
    }
    let slack: Vec<String> = slack_lines(outcome);
    if !slack.is_empty() {
        let _ = writeln!(
            s,
            "  ratchet slack (counts below baseline — tighten with --baseline-update):"
        );
        for line in slack {
            let _ = writeln!(s, "    {line}");
        }
    }
    for e in &outcome.hard_errors {
        let _ = writeln!(s, "error: {}:{}: {}", e.file, e.line, e.message);
    }
    for v in &outcome.new_violations {
        let _ = writeln!(s, "new violation: {}", format_violation(v));
    }
    if outcome.is_ok() {
        let _ = writeln!(s, "els-lint: OK (no new violations)");
    } else {
        let _ = writeln!(
            s,
            "els-lint: FAILED ({} new violation(s), {} error(s))",
            outcome.new_violations.len(),
            outcome.hard_errors.len()
        );
    }
    s
}

fn format_violation(v: &Violation) -> String {
    format!("{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.lint.name(), v.message)
}

/// Per-(lint, file) entries where the tree is now cleaner than the
/// baseline admits.
fn slack_lines(outcome: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    for (lint, files) in &outcome.baseline {
        for (file, &allowed) in files {
            let current = outcome.counts.get(lint).and_then(|f| f.get(file)).copied().unwrap_or(0);
            if current < allowed {
                out.push(format!("{lint}: {file}: {current} (baseline allows {allowed})"));
            }
        }
    }
    out
}

/// Render the JSON report.
pub fn json(outcome: &Outcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", outcome.files_scanned);
    let _ = writeln!(s, "  \"ok\": {},", outcome.is_ok());
    s.push_str("  \"lints\": {\n");
    let summary = per_lint_summary(outcome);
    for (i, (lint, (current, baselined, suppressed))) in summary.iter().enumerate() {
        let comma = if i + 1 < summary.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {}: {{\"current\": {}, \"baseline\": {}, \"suppressed\": {}}}{}",
            quote(lint),
            current,
            baselined,
            suppressed,
            comma
        );
    }
    s.push_str("  },\n");
    s.push_str("  \"new_violations\": [\n");
    for (i, v) in outcome.new_violations.iter().enumerate() {
        let comma = if i + 1 < outcome.new_violations.len() { "," } else { "" };
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
    s.push_str("  \"panic_paths\": [\n");
    for (i, p) in outcome.panic_paths.iter().enumerate() {
        let comma = if i + 1 < outcome.panic_paths.len() { "," } else { "" };
        let path: Vec<String> = p.path.iter().map(|f| quote(f)).collect();
        let _ = writeln!(
            s,
            "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"what\": {}, \"path\": [{}]}}{}",
            quote(&p.file),
            p.line,
            p.col,
            quote(&p.what),
            path.join(", "),
            comma
        );
    }
    s.push_str("  ],\n");
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
