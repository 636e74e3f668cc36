//! Property test: a well-formed `// els-lint: allow(<lint>, "<reason>")`
//! comment survives the lexer → suppression-parser round trip byte for
//! byte, no matter what code surrounds it — including the constructs the
//! lexer exists to get right (raw strings containing `//`, nested block
//! comments, char literals that look like string openers).

use proptest::collection;
use proptest::prelude::*;

use els_lint::source::SourceFile;

/// Characters that may appear in a justification: everything printable
/// except `"` and `\` (the suppression grammar takes the reason as a plain
/// quoted span, no escapes — by design, so reasons stay greppable).
const REASON_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.,:;!?()[]{}<>/'#@";

const LINTS: &[&str] = &[
    "atomics-discipline",
    "parallelism-seam",
    "layering",
    "lock-confinement",
    "numeric-discipline",
];

/// Surrounding lines chosen to confuse a text-level (non-lexing) scanner.
const DECOYS: &[&str] = &[
    "let url = r#\"https://example.com // not a comment\"#;",
    "/* outer /* nested \" */ still a comment */ let x = 1;",
    "let q = '\"'; let esc = '\\''; let lt: &'static str = \"//\";",
    "let s = \"string with // slashes and \\\" quote\";",
    "let b = b\"bytes // here\"; let r = r\"raw // there\";",
];

fn reason_from(indices: &[usize]) -> String {
    let mut s: String =
        indices.iter().map(|&i| REASON_CHARS[i % REASON_CHARS.len()] as char).collect();
    // The parser rejects blank reasons; trim-pad so every draw is valid.
    if s.trim().is_empty() {
        s = format!("x{s}");
    }
    s.trim().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn suppression_comment_round_trips(
        idx in collection::vec(0usize..1000, 1..60),
        lint_i in 0usize..5,
        decoy_i in 0usize..5,
        trailing in proptest::bool::ANY,
    ) {
        let reason = reason_from(&idx);
        let lint = LINTS[lint_i % LINTS.len()];
        let decoy = DECOYS[decoy_i % DECOYS.len()];
        let comment = format!("// els-lint: allow({lint}, \"{reason}\")");
        let text = if trailing {
            format!("{decoy}\nlet v = s.len(); {comment}\n{decoy}\n")
        } else {
            format!("{decoy}\n{comment}\nlet v = s.len();\n{decoy}\n")
        };

        let file = SourceFile::parse("crates/demo/src/lib.rs", &text);
        prop_assert_eq!(
            file.errors.len(), 0,
            "unexpected parse errors: {:?}", file.errors
        );
        prop_assert_eq!(file.suppressions.len(), 1);
        let s = &file.suppressions[0];
        prop_assert_eq!(s.lint.as_str(), lint);
        prop_assert_eq!(s.reason.as_str(), reason.as_str(), "reason mangled in transit");
        // Both forms target the `let v` statement: its own line when
        // trailing (line 2), the line after the comment when standalone.
        prop_assert_eq!(s.applies_to, if trailing { 2 } else { 3 });
    }
}

/// Deleting the justification (or the whole argument list) must turn the
/// comment into a hard error, not a silent no-op — the ratchet depends on
/// suppressions being accountable.
#[test]
fn justification_is_mandatory() {
    for bad in [
        "// els-lint: allow(atomics-discipline)",
        "// els-lint: allow(atomics-discipline, )",
        "// els-lint: allow(atomics-discipline, \"\")",
        "// els-lint: allow(atomics-discipline, \"   \")",
        "// els-lint: allow(atomics-discipline, reason without quotes)",
    ] {
        let text = format!("{bad}\nlet x = 1;\n");
        let file = SourceFile::parse("crates/demo/src/lib.rs", &text);
        assert!(!file.errors.is_empty(), "expected a hard error for {bad:?}");
        assert!(file.suppressions.is_empty(), "no suppression may arise from {bad:?}");
    }
}
