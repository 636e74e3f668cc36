//! The wire protocol: a minimal line-based SQL exchange.
//!
//! Everything is UTF-8 lines terminated by `\n`. One connection:
//!
//! ```text
//! C: HELLO <tenant>
//! S: READY
//! C: <sql>                         (one query per line)
//! S: OK rows=<n> count=<c> cached=<0|1>
//! S: R <v1>\t<v2>\t...             (n of these, tab-separated, escaped)
//! S: .                             (end of result)
//! C: QUIT
//! S: BYE
//! ```
//!
//! Any failure is a single line `ERR <kind> <escaped message>`; the kind
//! vocabulary is `crate::ServerError::wire_kind`. A query-level `ERR`
//! (bad SQL, shed) leaves the connection open; handshake and admission
//! `ERR`s are followed by a close.
//!
//! Values and error messages are escaped with a fixed backslash scheme
//! (`\\`, `\t`, `\n`, `\r`) so embedded tabs/newlines can never corrupt
//! framing. This module never touches a socket — the encoders append to a
//! caller-owned byte buffer and the line reader is generic over
//! [`BufRead`] — so every framing rule is unit-testable.
//!
//! There is one encoder per line kind, the `*_into` functions: the server
//! appends a whole reply to its per-connection buffer through them, and
//! the `String`-returning [`ok_header`]/[`row_line`] are the same
//! functions behind a fresh buffer, so both spell identical bytes.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::BufRead;

use els_storage::column::ValueRef;
use els_storage::Value;

use crate::error::{ServerError, ServerResult};

/// Hard cap on one protocol line. A line longer than this is a protocol
/// error, not a buffer: it bounds per-connection memory against hostile
/// or broken clients.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// True for the four bytes the escape scheme rewrites. All are ASCII, so
/// scanning bytes never splits a multi-byte character.
fn needs_escape(b: &u8) -> bool {
    matches!(b, b'\\' | b'\t' | b'\n' | b'\r')
}

/// Append `s` escaped for the wire: backslash, tab, newline, carriage
/// return. Runs of ordinary bytes are copied whole.
pub(crate) fn escape_into(out: &mut Vec<u8>, s: &str) {
    for run in s.as_bytes().split_inclusive(needs_escape) {
        match run.split_last() {
            Some((last, plain)) if needs_escape(last) => {
                out.extend_from_slice(plain);
                out.extend_from_slice(match last {
                    b'\t' => b"\\t",
                    b'\n' => b"\\n",
                    b'\r' => b"\\r",
                    _ => b"\\\\",
                });
            }
            _ => out.extend_from_slice(run),
        }
    }
}

/// [`escape_into`] behind `fmt::Write`, so numbers and error messages are
/// formatted straight into the buffer with no intermediate `String`.
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Append `value`'s `Display` text, escaped.
fn display_into(out: &mut Vec<u8>, value: impl fmt::Display) {
    // `Escaped::write_str` cannot fail, so neither can this.
    let _ = write!(Escaped(out), "{value}");
}

/// What `encode` appends to a fresh buffer, as text: how each `*_into`
/// encoder doubles as its `String`-returning form. The encoders only ever
/// append whole `str`s and ASCII, so the lossy branch is unreachable.
fn text_of(encode: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    encode(&mut out);
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Invert [`escape_into`]. A dangling or unknown escape is a protocol
/// error — silently guessing would mask framing corruption.
pub(crate) fn unescape_field(s: &str) -> ServerResult<String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                return Err(ServerError::Protocol(format!("unknown escape `\\{other}`")))
            }
            None => return Err(ServerError::Protocol("dangling backslash".to_string())),
        }
    }
    Ok(out)
}

/// The `HELLO <tenant>` opener; `None` when the line is not a handshake.
pub(crate) fn parse_hello(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("HELLO ")?;
    let tenant = rest.trim();
    (!tenant.is_empty()).then_some(tenant)
}

/// Append the success header for one query result (no terminator).
pub(crate) fn ok_header_into(out: &mut Vec<u8>, rows: u64, count: u64, cached: bool) {
    display_into(out, format_args!("OK rows={rows} count={count} cached={}", u8::from(cached)));
}

/// Append one result row (no terminator): `R` plus tab-separated escaped
/// cells. `NULL` spells SQL null; strings travel raw, without the SQL
/// quotes `Value`'s `Display` adds.
pub(crate) fn row_into<'a>(out: &mut Vec<u8>, cells: impl IntoIterator<Item = ValueRef<'a>>) {
    out.push(b'R');
    for cell in cells {
        out.push(b'\t');
        match cell {
            ValueRef::Null => out.extend_from_slice(b"NULL"),
            ValueRef::Int(i) => display_into(out, i),
            ValueRef::Float(f) => display_into(out, f),
            ValueRef::Str(s) => escape_into(out, s),
        }
    }
}

/// Append the one-line rendering of an error (no terminator).
pub(crate) fn err_line_into(out: &mut Vec<u8>, e: &ServerError) {
    out.extend_from_slice(b"ERR ");
    out.extend_from_slice(e.wire_kind().as_bytes());
    out.push(b' ');
    display_into(out, e);
}

/// The success header for one query result.
pub fn ok_header(rows: u64, count: u64, cached: bool) -> String {
    text_of(|out| ok_header_into(out, rows, count, cached))
}

/// One result row: `R` plus tab-separated escaped cells.
pub fn row_line(values: &[Value]) -> String {
    let cells = values.iter().map(|v| match v {
        Value::Null => ValueRef::Null,
        Value::Int(i) => ValueRef::Int(*i),
        Value::Float(f) => ValueRef::Float(*f),
        Value::Str(s) => ValueRef::Str(s),
    });
    text_of(|out| row_into(out, cells))
}

/// Parse a server response line the client received: `Ok` for `OK ...`
/// headers, `Err` for `ERR ...` lines, `Protocol` otherwise.
pub fn parse_header(line: &str) -> ServerResult<(u64, u64, bool)> {
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (kind, msg) = rest.split_once(' ').unwrap_or((rest, ""));
        let msg = unescape_field(msg)?;
        return Err(ServerError::from_wire(kind, &msg));
    }
    let rest = line
        .strip_prefix("OK ")
        .ok_or_else(|| ServerError::Protocol(format!("expected OK/ERR, got `{line}`")))?;
    let mut rows = None;
    let mut count = None;
    let mut cached = None;
    for field in rest.split(' ') {
        match field.split_once('=') {
            Some(("rows", v)) => rows = v.parse::<u64>().ok(),
            Some(("count", v)) => count = v.parse::<u64>().ok(),
            Some(("cached", v)) => cached = v.parse::<u8>().ok().map(|b| b != 0),
            _ => {}
        }
    }
    match (rows, count, cached) {
        (Some(r), Some(c), Some(h)) => Ok((r, c, h)),
        _ => Err(ServerError::Protocol(format!("malformed OK header `{line}`"))),
    }
}

/// Parse one `R ...` row line into unescaped cells.
pub fn parse_row(line: &str) -> ServerResult<Vec<String>> {
    let rest = line
        .strip_prefix('R')
        .ok_or_else(|| ServerError::Protocol(format!("expected row line, got `{line}`")))?;
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    let rest = rest
        .strip_prefix('\t')
        .ok_or_else(|| ServerError::Protocol("row line missing tab after R".to_string()))?;
    rest.split('\t').map(unescape_field).collect()
}

/// What one [`read_line_step`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineStep {
    /// The `\n` terminator was reached (and consumed); the line is whole.
    Complete,
    /// The reader's block ended first; call again for the rest.
    Partial,
    /// The peer closed; whatever was gathered is its final line.
    Eof,
    /// The line outgrew [`MAX_LINE_BYTES`]; the connection is beyond repair.
    TooLong,
}

/// Move bytes of the current line from `reader`'s buffered block onto
/// `line`, stopping at the `\n` terminator (consumed, not stored).
///
/// Both ends of the protocol read through this one step, which is what
/// makes [`MAX_LINE_BYTES`] a bound on memory and not just on accepted
/// lines: a step appends at most one block, and the cap is checked after
/// every step, so `line` never holds more than the cap plus one block no
/// matter how fast a peer streams newline-free bytes. An `Err` (a read
/// timeout, say) leaves `line` as it was, so the caller may retry and a
/// slow writer's line is reassembled, not corrupted.
pub(crate) fn read_line_step<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> std::io::Result<LineStep> {
    let block = reader.fill_buf()?;
    if block.is_empty() {
        return Ok(LineStep::Eof);
    }
    let head = block.split(|&b| b == b'\n').next().unwrap_or(block);
    let complete = head.len() < block.len();
    line.extend_from_slice(head);
    let taken = head.len() + usize::from(complete);
    reader.consume(taken);
    Ok(if line.len() > MAX_LINE_BYTES {
        LineStep::TooLong
    } else if complete {
        LineStep::Complete
    } else {
        LineStep::Partial
    })
}

/// The text of a gathered line. Only the terminator goes: the `\n`
/// [`read_line_step`] already dropped plus one optional `\r` before it.
/// Every other trailing byte is payload — a row's last cell may be empty
/// (the line then ends in its tab) or end in blanks. Borrowed unless the
/// bytes are not UTF-8, which decodes lossily.
pub(crate) fn line_text(line: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_line(e: &ServerError) -> String {
        text_of(|out| err_line_into(out, e))
    }

    #[test]
    fn escaping_round_trips_hostile_fields() {
        for s in ["plain", "tab\tnewline\nreturn\rback\\slash", "", "\\t is not a tab"] {
            let escaped = text_of(|out| escape_into(out, s));
            assert!(!escaped.contains('\n') && !escaped.contains('\t'), "{escaped}");
            assert_eq!(unescape_field(&escaped).as_deref(), Ok(s), "{s:?}");
        }
        assert!(unescape_field("dangling\\").is_err());
        assert!(unescape_field("bad\\q").is_err());
    }

    #[test]
    fn hello_parses_and_rejects() {
        assert_eq!(parse_hello("HELLO acme"), Some("acme"));
        assert_eq!(parse_hello("HELLO  spaced "), Some("spaced"));
        assert_eq!(parse_hello("HELLO "), None);
        assert_eq!(parse_hello("SELECT 1"), None);
    }

    #[test]
    fn headers_round_trip() {
        assert_eq!(parse_header(&ok_header(3, 3, true)), Ok((3, 3, true)));
        assert_eq!(parse_header(&ok_header(0, 42, false)), Ok((0, 42, false)));
        assert!(matches!(
            parse_header(&err_line(&ServerError::Overloaded)),
            Err(ServerError::Overloaded)
        ));
        assert!(matches!(parse_header("GARBAGE"), Err(ServerError::Protocol(_))));
    }

    #[test]
    fn rows_round_trip_including_tabs_in_values() {
        let vals =
            vec![Value::Int(7), Value::Null, Value::Str("a\tb\nc".into()), Value::Float(1.5)];
        let line = row_line(&vals);
        assert_eq!(line.matches('\t').count(), 4, "field tabs only: {line:?}");
        let cells = parse_row(&line).expect("row parses");
        assert_eq!(cells, vec!["7", "NULL", "a\tb\nc", "1.5"]);
        assert_eq!(parse_row("R").expect("empty row"), Vec::<String>::new());
    }

    #[test]
    fn the_string_forms_are_the_buffer_encoders() {
        let mut out = b"kept ".to_vec();
        ok_header_into(&mut out, 2, 9, true);
        out.push(b'|');
        row_into(&mut out, [ValueRef::Int(-3), ValueRef::Null, ValueRef::Str("a\\b\r")]);
        out.push(b'|');
        err_line_into(&mut out, &ServerError::UnknownTenant("x\ty".into()));
        let vals = [Value::Int(-3), Value::Null, Value::Str("a\\b\r".into())];
        let expected = format!(
            "kept {}|{}|{}",
            ok_header(2, 9, true),
            row_line(&vals),
            err_line(&ServerError::UnknownTenant("x\ty".into()))
        );
        assert_eq!(String::from_utf8(out).expect("utf-8"), expected);
        assert_eq!(row_line(&vals), "R\t-3\tNULL\ta\\\\b\\r");
        assert_eq!(
            err_line(&ServerError::UnknownTenant("x\ty".into())),
            "ERR unknown-tenant unknown tenant `x\\ty`"
        );
    }

    #[test]
    fn a_newline_free_flood_is_cut_off_one_block_past_the_cap() {
        let block = 8 * 1024;
        let mut reader = std::io::BufReader::with_capacity(block, std::io::repeat(b'x'));
        let mut line = Vec::new();
        let verdict = loop {
            match read_line_step(&mut reader, &mut line).expect("repeat never fails") {
                LineStep::Partial => assert!(line.len() <= MAX_LINE_BYTES),
                other => break other,
            }
        };
        assert_eq!(verdict, LineStep::TooLong);
        assert!(line.len() <= MAX_LINE_BYTES + block, "{}", line.len());
    }

    /// A reader that hands out scripted pieces, timeouts included.
    struct Pieces(std::collections::VecDeque<std::io::Result<&'static [u8]>>);

    impl std::io::Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Ok(piece)) => {
                    let n = piece.len().min(buf.len());
                    buf[..n].copy_from_slice(&piece[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn a_slow_writer_is_reassembled_across_timeouts_and_blocks() {
        let timeout = || Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
        let pieces = [Ok(&b"SEL"[..]), timeout(), Ok(b"ECT 1\nQU"), timeout(), Ok(b"IT")];
        let mut reader = std::io::BufReader::new(Pieces(pieces.into()));
        let mut line = Vec::new();
        let mut steps = Vec::new();
        loop {
            match read_line_step(&mut reader, &mut line) {
                Ok(LineStep::Complete) => {
                    steps.push(line_text(&line).into_owned());
                    line.clear();
                }
                Ok(LineStep::Eof) => break,
                Ok(_) => {}
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
        }
        assert_eq!(steps, ["SELECT 1"]);
        assert_eq!(line, b"QUIT", "an unterminated last line is still delivered at EOF");
    }
}
