//! A small blocking client for the line protocol.
//!
//! Exists so the integration tests and the benchmark's `wire_mixed` load
//! generator speak the protocol through one implementation instead of
//! three hand-rolled ones. Every response parses back into the typed
//! [`ServerError`] vocabulary, so a caller can distinguish a clean
//! `Overloaded` rejection from a hang (the read timeout) — the difference
//! the connection-storm test is built on.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::{ServerError, ServerResult};
use crate::protocol::{
    line_text, parse_header, parse_row, read_line_step, LineStep, MAX_LINE_BYTES,
};

/// One parsed query result.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `COUNT(*)` value (or result row count for projections).
    pub count: u64,
    /// Whether the server answered from its plan cache.
    pub cached: bool,
    /// Result rows as unescaped strings.
    pub rows: Vec<Vec<String>>,
}

/// Rows to reserve room for on the header's say-so. `rows=` is the
/// peer's claim, not a fact: reserving all of it would let one header
/// line demand any allocation (or overflow the capacity outright).
const ROWS_PREALLOC_MAX: u64 = 4096;

/// A connected, handshaken client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request line being sent; reused across queries.
    request: Vec<u8>,
    /// The response line being read; reused across lines.
    line: Vec<u8>,
}

/// Send `text` + `\n` in one write (and so, with `TCP_NODELAY`, one
/// packet), assembled in `request`.
fn send_line<W: Write>(writer: &mut W, request: &mut Vec<u8>, text: &str) -> std::io::Result<()> {
    request.clear();
    request.extend_from_slice(text.as_bytes());
    request.push(b'\n');
    writer.write_all(request)?;
    writer.flush()
}

/// Judge the server's answer to `HELLO`.
fn expect_ready(line: &str) -> ServerResult<()> {
    if line == "READY" {
        return Ok(());
    }
    match parse_header(line) {
        Err(refusal) if line.starts_with("ERR ") => Err(refusal),
        _ => Err(ServerError::Protocol(format!("expected READY, got `{line}`"))),
    }
}

/// Read one response line into `line` and hand back its text, borrowed
/// from there.
fn read_line<'a, R: BufRead>(reader: &mut R, line: &'a mut Vec<u8>) -> ServerResult<Cow<'a, str>> {
    line.clear();
    loop {
        match read_line_step(reader, line) {
            Ok(LineStep::Complete) => break,
            Ok(LineStep::Eof) if line.is_empty() => {
                return Err(ServerError::Io("connection closed".to_string()))
            }
            Ok(LineStep::Eof) => break,
            Ok(LineStep::Partial) => {}
            Ok(LineStep::TooLong) => {
                return Err(ServerError::Protocol(format!(
                    "response line exceeds {MAX_LINE_BYTES} bytes"
                )))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Unlike the server, a client read timeout is terminal:
            // the storm test counts it as a hang, the protocol's one
            // unacceptable outcome.
            Err(e) => return Err(ServerError::Io(e.to_string())),
        }
    }
    Ok(line_text(line))
}

/// Read one full query response: header, rows, `.`. Generic over the
/// reader so the decode path is testable against plain bytes.
pub(crate) fn read_reply<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> ServerResult<Reply> {
    let (rows, count, cached) = parse_header(&read_line(reader, line)?)?;
    let mut out = Vec::with_capacity(rows.min(ROWS_PREALLOC_MAX) as usize);
    loop {
        let text = read_line(reader, line)?;
        if text == "." {
            break;
        }
        out.push(parse_row(&text)?);
    }
    if out.len() as u64 != rows {
        return Err(ServerError::Protocol(format!(
            "header promised {rows} rows, got {}",
            out.len()
        )));
    }
    Ok(Reply { count, cached, rows: out })
}

impl Client {
    /// Connect, handshake as `tenant`, and wait for `READY`. A typed
    /// error here is the server refusing (overloaded, unknown tenant);
    /// an `Io` error wraps transport failures, including the read
    /// timeout that would otherwise be a silent hang.
    pub fn connect(
        addr: std::net::SocketAddr,
        tenant: &str,
        timeout: Duration,
    ) -> ServerResult<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client { reader, writer: stream, request: Vec::new(), line: Vec::new() };
        // An admission-rejected connection may close before our HELLO
        // lands (broken pipe); the rejection line is still in flight, so
        // read the response even when the write failed.
        let hello_failed = client.send(&format!("HELLO {tenant}")).is_err();
        match read_line(&mut client.reader, &mut client.line) {
            Ok(line) => expect_ready(&line)?,
            Err(_) if hello_failed => {
                return Err(ServerError::Io("connection refused during handshake".to_string()))
            }
            Err(e) => return Err(e),
        }
        Ok(client)
    }

    /// Run one query and read the full response.
    pub fn query(&mut self, sql: &str) -> ServerResult<Reply> {
        self.send(sql)?;
        read_reply(&mut self.reader, &mut self.line)
    }

    /// Send a query but never read the response — simulates a client that
    /// disconnects mid-result when the `Client` is dropped right after.
    pub fn fire_and_hang_up(mut self, sql: &str) -> ServerResult<()> {
        self.send(sql)?;
        Ok(())
    }

    /// Polite goodbye; errors are irrelevant because the socket closes
    /// either way.
    pub fn quit(mut self) {
        let _ = self.send("QUIT");
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        send_line(&mut self.writer, &mut self.request, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::CountingWriter;

    #[test]
    fn a_request_is_one_write() {
        let mut writer = CountingWriter::default();
        let mut request = Vec::new();
        send_line(&mut writer, &mut request, "SELECT COUNT(*) FROM t").expect("in-memory");
        send_line(&mut writer, &mut request, "QUIT").expect("in-memory");
        assert_eq!(writer.bytes, b"SELECT COUNT(*) FROM t\nQUIT\n");
        assert_eq!(writer.writes, [23, 5], "one write per line; was text and newline apart");
    }

    #[test]
    fn a_handshake_refusal_is_typed_and_unescaped() {
        assert_eq!(expect_ready("READY"), Ok(()));
        assert_eq!(
            expect_ready("ERR unknown-tenant unknown tenant `a\\tb`"),
            Err(ServerError::UnknownTenant("unknown tenant `a\tb`".to_string()))
        );
        assert_eq!(expect_ready("ERR overloaded busy"), Err(ServerError::Overloaded));
        for stray in ["OK rows=0 count=0 cached=0", "HELLO yourself", ""] {
            assert!(matches!(expect_ready(stray), Err(ServerError::Protocol(_))), "{stray:?}");
        }
    }

    #[test]
    fn only_the_terminator_is_stripped_from_a_line() {
        let wire = b"R\t1\t\nR\t \r\nR\t\xa0\xff\n";
        let mut reader = wire.as_slice();
        let mut line = Vec::new();
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), "R\t1\t");
        assert_eq!(
            read_line(&mut reader, &mut line).unwrap(),
            "R\t ",
            "one \\r goes, the blank stays"
        );
        assert_eq!(
            read_line(&mut reader, &mut line).unwrap(),
            "R\t\u{fffd}\u{fffd}",
            "lossy, not fatal"
        );
        assert!(matches!(read_line(&mut reader, &mut line), Err(ServerError::Io(_))));
    }
}
