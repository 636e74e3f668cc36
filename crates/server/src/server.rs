//! The front door proper: configuration, shared state, and the
//! per-connection protocol loop.
//!
//! Thread *creation* lives in [`crate::pool`] (the workspace's second
//! allowlisted parallelism seam); this module is the pure logic those
//! threads run, so every admission/shed/error path here is testable
//! without sockets or against a loopback listener.
//!
//! ## Load shedding
//!
//! Two pressure valves, engaged in order:
//!
//! 1. **Backpressure / rejection** — an accepted connection must win a
//!    slot in the bounded [`AdmissionQueue`] before any worker reads a
//!    byte from it. A full queue means the client gets one clean
//!    `ERR overloaded` line and a close: never an unbounded buffer,
//!    never a hang.
//! 2. **Degraded service** — while the queue depth is at or above the
//!    shed watermark, connection handlers serve **cached plans only**
//!    ([`els::engine::Engine::execute_if_cached`]): a hit costs no
//!    binding/estimation/enumeration work, a miss is refused with
//!    `ERR shed`. Optimizer CPU is the first thing sacrificed under
//!    load, matching the graceful-degradation shape the estimation
//!    literature argues for under drift.

use std::borrow::Cow;
use std::io::{BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use els::engine::{Engine, QueryResult};
use els_storage::column::ValueRef;
use els_storage::{ColumnVector, DataType};

use crate::admission::AdmissionQueue;
use crate::error::{ServerError, ServerResult};
use crate::protocol::{
    err_line_into, line_text, ok_header_into, parse_hello, read_line_step, row_into, LineStep,
    MAX_LINE_BYTES,
};
use crate::tenant::Tenants;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed worker-pool size; each worker owns one connection at a time.
    pub workers: usize,
    /// Capacity of the admission queue (waiting connections beyond the
    /// ones workers are serving). The hard backpressure bound.
    pub queue_depth: usize,
    /// Queue depth at which handlers flip to cached-plan-only mode.
    pub shed_watermark: usize,
    /// Poll cadence for blocking reads and queue pops; bounds how long a
    /// shutdown can take and how often idle workers re-check the flag.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            shed_watermark: 8,
            poll_interval: Duration::from_millis(25),
        }
    }
}

impl ServerConfig {
    /// Clamp degenerate settings instead of failing: at least one worker,
    /// one queue slot, and a watermark no higher than the queue depth
    /// (otherwise shed mode could never engage).
    pub(crate) fn normalized(mut self) -> ServerConfig {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.shed_watermark = self.shed_watermark.clamp(1, self.queue_depth);
        if self.poll_interval.is_zero() {
            self.poll_interval = Duration::from_millis(25);
        }
        self
    }
}

/// Connection and query traffic plus the two overload outcomes: hard
/// rejections at the admission queue and queries shed because only cached
/// plans are served under load. Atomics behind `&self`, one set per server.
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) queries_ok: AtomicU64,
    pub(crate) queries_err: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shed: AtomicU64,
}

/// Plain-value copy of a server's counters for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCountersSnapshot {
    /// Connections accepted and handed to a worker.
    pub connections: u64,
    /// Queries answered successfully.
    pub queries_ok: u64,
    /// Queries answered with a typed error (SQL/exec/protocol).
    pub queries_err: u64,
    /// Connections rejected at admission (queue full).
    pub rejected: u64,
    /// Queries refused in cached-plan-only mode.
    pub shed: u64,
}

/// State shared by the acceptor, the workers, and the handle.
pub(crate) struct Shared {
    pub(crate) tenants: Tenants,
    pub(crate) queue: AdmissionQueue<TcpStream>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: ServerCounters,
    pub(crate) config: ServerConfig,
}

impl Shared {
    pub(crate) fn new(tenants: Tenants, config: ServerConfig) -> Shared {
        let config = config.normalized();
        Shared {
            tenants,
            queue: AdmissionQueue::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::default(),
            config,
        }
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Bump one of this server's counters.
    pub(crate) fn bump(&self, which: impl Fn(&ServerCounters) -> &AtomicU64) {
        which(&self.counters).fetch_add(1, Ordering::SeqCst);
    }

    /// Point-in-time counters for this server instance (each counter is
    /// read atomically; the set is not one snapshot, which is fine for
    /// monitoring).
    pub(crate) fn snapshot(&self) -> ServerCountersSnapshot {
        let c = &self.counters;
        ServerCountersSnapshot {
            connections: c.connections.load(Ordering::SeqCst),
            queries_ok: c.queries_ok.load(Ordering::SeqCst),
            queries_err: c.queries_err.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
        }
    }
}

/// Reject an admission-refused connection with one typed line. Best
/// effort: the write gets a short timeout so a dead client cannot stall
/// the acceptor, and a failed write changes nothing — the connection was
/// being dropped anyway.
pub(crate) fn reject_overloaded(stream: TcpStream, shared: &Shared) {
    shared.bump(|c| &c.rejected);
    let _ = stream.set_write_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let mut stream = stream;
    let _ = write_error(&mut stream, &mut Vec::new(), &ServerError::Overloaded);
    // Drain whatever the client already sent (typically its HELLO) before
    // closing: dropping a socket with unread input turns the close into a
    // TCP reset, which can discard the rejection line before the client
    // reads it. One bounded read keeps the close graceful.
    let mut sink = [0u8; 512];
    let _ = std::io::Read::read(&mut stream, &mut sink);
}

/// Read one `\n`-terminated line into `line`, polling so shutdown is
/// honored, and hand back its text borrowed from that buffer.
///
/// `Ok(None)` is a clean EOF (client closed). A poll timeout leaves what
/// was gathered so far in `line`, so slow writers are reassembled, not
/// corrupted; [`read_line_step`] bounds what a newline-free flood can make
/// `line` hold.
fn read_line<'a>(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    line: &'a mut Vec<u8>,
) -> ServerResult<Option<Cow<'a, str>>> {
    line.clear();
    loop {
        if shared.shutting_down() {
            return Ok(None);
        }
        match read_line_step(reader, line) {
            Ok(LineStep::Complete) => break,
            Ok(LineStep::Eof) if line.is_empty() => return Ok(None),
            // EOF mid-line: treat the remainder as the final line.
            Ok(LineStep::Eof) => break,
            Ok(LineStep::Partial) => {}
            Ok(LineStep::TooLong) => {
                return Err(ServerError::Protocol(format!("line exceeds {MAX_LINE_BYTES} bytes")))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(ServerError::Io(e.to_string())),
        }
    }
    Ok(Some(line_text(line)))
}

/// A reply is encoded whole into the connection's buffer and sent with
/// one write; a result bigger than this goes out each time the buffer
/// reaches this size, so the buffer never holds more than a chunk plus
/// one row (and, under `Vec`'s doubling, never has room for more than
/// twice that) whatever the row count. 64 KiB is loopback's MTU and the
/// largest unit segment offload hands a NIC, and makes the syscall per
/// write — the whole cost of the old write per row — a thousandth of the
/// work of filling it.
const REPLY_CHUNK_BYTES: usize = 64 * 1024;

/// Cell `row` of `column`. Read through `get`, never an index: a column
/// shorter than its table (which the executor never builds) renders as
/// NULL instead of panicking a serving thread.
fn cell(column: &ColumnVector, row: usize) -> ValueRef<'_> {
    if column.validity().get(row) != Some(&true) {
        return ValueRef::Null;
    }
    let payload = match column.data_type() {
        DataType::Int => column.as_int_slice().and_then(|v| v.get(row)).map(|&i| ValueRef::Int(i)),
        DataType::Float => {
            column.as_float_slice().and_then(|v| v.get(row)).map(|&f| ValueRef::Float(f))
        }
        DataType::Str => column.as_str_slice().and_then(|v| v.get(row)).map(|s| ValueRef::Str(s)),
    };
    payload.unwrap_or(ValueRef::Null)
}

/// Encode a full query result into `buf` (the connection's, reused) and
/// send it: header, rows and the `.` terminator in one write, or one per
/// [`REPLY_CHUNK_BYTES`] for a larger result. Any error here means the
/// client went away mid-result, which the caller treats as a disconnect
/// (not a server failure).
fn write_result<W: Write>(
    writer: &mut W,
    buf: &mut Vec<u8>,
    result: &QueryResult,
) -> std::io::Result<()> {
    let rows = result.rows.num_rows();
    buf.clear();
    ok_header_into(buf, rows as u64, result.count, result.cache_hit);
    buf.push(b'\n');
    for row in 0..rows {
        row_into(buf, result.rows.columns().iter().map(|column| cell(column, row)));
        buf.push(b'\n');
        if buf.len() >= REPLY_CHUNK_BYTES {
            writer.write_all(buf)?;
            buf.clear();
        }
    }
    buf.extend_from_slice(b".\n");
    writer.write_all(buf)?;
    writer.flush()
}

/// Send `e` as its one typed line, in one write.
fn write_error<W: Write>(
    writer: &mut W,
    buf: &mut Vec<u8>,
    e: &ServerError,
) -> std::io::Result<()> {
    buf.clear();
    err_line_into(buf, e);
    buf.push(b'\n');
    writer.write_all(buf)?;
    writer.flush()
}

/// The handshake: the first line must be `HELLO <tenant>` for a hosted
/// tenant. `Ok(None)` is a client that left before saying anything.
fn handshake(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    line: &mut Vec<u8>,
) -> ServerResult<Option<Arc<Engine>>> {
    let Some(hello) = read_line(reader, shared, line)? else { return Ok(None) };
    let name = parse_hello(&hello).ok_or_else(|| {
        ServerError::Protocol(format!("expected HELLO <tenant>, got `{}`", hello.trim_end()))
    })?;
    let engine = shared.tenants.resolve(name);
    engine.map(Some).ok_or_else(|| ServerError::UnknownTenant(name.to_string()))
}

/// Serve one admitted connection to completion: handshake, then a
/// query-per-line loop until QUIT, EOF, shutdown, or a transport error.
///
/// The connection owns two buffers for its whole life, `line` for the
/// request being read and `reply` for the response being built; nothing
/// on the per-query path allocates for framing.
pub(crate) fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    let mut reply = Vec::new();

    let engine = match handshake(&mut reader, shared, &mut line) {
        Ok(Some(engine)) => engine,
        Ok(None) => return,
        Err(e) => {
            let _ = write_error(&mut writer, &mut reply, &e);
            return;
        }
    };
    shared.bump(|c| &c.connections);
    if writer.write_all(b"READY\n").is_err() {
        return;
    }

    // Query loop. Engine/shed errors answer on the open connection;
    // transport errors end it.
    loop {
        let text = match read_line(&mut reader, shared, &mut line) {
            Ok(Some(text)) => text,
            Ok(None) => return,
            Err(e) => {
                let _ = write_error(&mut writer, &mut reply, &e);
                return;
            }
        };
        // Framing keeps trailing blanks (they are payload in a row line);
        // in a request they mean nothing, to SQL or to `QUIT`.
        let sql = text.trim_end();
        if sql.is_empty() {
            continue;
        }
        if sql == "QUIT" {
            let _ = writer.write_all(b"BYE\n");
            return;
        }
        let shed_mode = shared.queue.depth() >= shared.config.shed_watermark;
        let outcome: ServerResult<QueryResult> = if shed_mode {
            match engine.execute_if_cached(sql) {
                Ok(Some(result)) => Ok(result),
                Ok(None) => Err(ServerError::Shed),
                Err(e) => Err(ServerError::Engine(e)),
            }
        } else {
            engine.execute(sql).map_err(ServerError::Engine)
        };
        match outcome {
            Ok(result) => {
                shared.bump(|c| &c.queries_ok);
                if write_result(&mut writer, &mut reply, &result).is_err() {
                    return; // client went away mid-result
                }
            }
            Err(e) => {
                match e {
                    ServerError::Shed => shared.bump(|c| &c.shed),
                    _ => shared.bump(|c| &c.queries_err),
                }
                if write_error(&mut writer, &mut reply, &e).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::read_reply;
    use crate::test_support::CountingWriter;
    use els_exec::ExecMetrics;
    use els_storage::{Table, Value};
    use proptest::prelude::*;

    fn result_of(columns: Vec<ColumnVector>, count: u64, cache_hit: bool) -> QueryResult {
        let columns = columns.into_iter().enumerate().map(|(i, c)| (format!("c{i}"), c)).collect();
        QueryResult {
            rows: Table::new("result", columns).expect("columns of one length"),
            count,
            metrics: ExecMetrics::default(),
            join_order: Vec::new(),
            estimated_sizes: Vec::new(),
            cache_hit,
        }
    }

    /// The rendering this crate shipped before the `*_into` encoders,
    /// kept here as the reference the wire bytes must keep matching: a
    /// `format!`ed header, every row through `Table::row`, every cell
    /// through an owned `String` and a per-character escape, then `.`.
    fn reference_cells(result: &QueryResult) -> Vec<Vec<String>> {
        (0..result.rows.num_rows())
            .map(|i| {
                let row = result.rows.row(i).expect("row in range");
                row.iter()
                    .map(|v| match v {
                        Value::Null => "NULL".to_string(),
                        Value::Int(i) => i.to_string(),
                        Value::Float(f) => f.to_string(),
                        Value::Str(s) => s.clone(),
                    })
                    .collect()
            })
            .collect()
    }

    fn reference_reply(result: &QueryResult) -> String {
        let mut out = format!(
            "OK rows={} count={} cached={}\n",
            result.rows.num_rows(),
            result.count,
            u8::from(result.cache_hit)
        );
        for cells in reference_cells(result) {
            out.push('R');
            for cell in cells {
                out.push('\t');
                for c in cell.chars() {
                    match c {
                        '\\' => out.push_str("\\\\"),
                        '\t' => out.push_str("\\t"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        c => out.push(c),
                    }
                }
            }
            out.push('\n');
        }
        out.push_str(".\n");
        out
    }

    fn sent(result: &QueryResult, buf: &mut Vec<u8>) -> CountingWriter {
        let mut writer = CountingWriter::default();
        write_result(&mut writer, buf, result).expect("an in-memory writer never fails");
        writer
    }

    #[test]
    fn a_count_reply_is_one_write() {
        let result = result_of(vec![ColumnVector::from_ints([42])], 42, true);
        let writer = sent(&result, &mut Vec::new());
        assert_eq!(writer.bytes, b"OK rows=1 count=42 cached=1\nR\t42\n.\n");
        assert_eq!(writer.writes.len(), 1, "was 5 with a write per `writeln!` piece");
    }

    #[test]
    fn a_thousand_row_reply_is_one_write() {
        let result = result_of(
            vec![
                ColumnVector::from_ints(0..1000),
                ColumnVector::from_ints((0..1000).map(|i| i * 997)),
            ],
            1000,
            false,
        );
        let writer = sent(&result, &mut Vec::new());
        assert_eq!(writer.bytes, reference_reply(&result).into_bytes());
        assert_eq!(writer.writes.len(), 1, "was 2003");
    }

    #[test]
    fn a_large_reply_goes_out_in_chunks_through_a_bounded_buffer() {
        let rows = 40_000;
        let result = result_of(
            vec![
                ColumnVector::from_ints(0..rows),
                ColumnVector::from_strs((0..rows).map(|i| format!("tab\tand\\slash {i:>12}"))),
            ],
            rows as u64,
            false,
        );
        let expected = reference_reply(&result);
        let widest_row = expected.lines().map(|l| l.len() + 1).max().expect("lines");
        let mut buf = Vec::new();
        let writer = sent(&result, &mut buf);
        assert_eq!(writer.bytes, expected.into_bytes(), "chunking must not change a byte");

        let full_chunks = writer.bytes.len() / REPLY_CHUNK_BYTES;
        assert!(full_chunks >= 10, "the result must span many chunks, got {full_chunks}");
        // Every write but the last fires on the first row to reach the
        // chunk size, so it carries at least a chunk and less than a
        // chunk plus one row: about bytes / chunk writes, never more
        // than that plus one.
        let (last, full) = writer.writes.split_last().expect("at least the terminator");
        assert!(full
            .iter()
            .all(|&n| (REPLY_CHUNK_BYTES..REPLY_CHUNK_BYTES + widest_row).contains(&n)));
        assert!(*last < REPLY_CHUNK_BYTES + widest_row);
        assert!(writer.writes.len() <= full_chunks + 1, "{} writes", writer.writes.len());
        // The buffer never held more than one such write; `Vec`'s
        // amortized doubling is the only slack on top of that.
        assert!(buf.capacity() <= 2 * (REPLY_CHUNK_BYTES + widest_row), "{}", buf.capacity());

        // The same buffer serves the connection's next reply.
        let small = result_of(vec![ColumnVector::from_ints([7])], 7, true);
        assert_eq!(sent(&small, &mut buf).bytes, b"OK rows=1 count=7 cached=1\nR\t7\n.\n");
    }

    #[test]
    fn an_error_is_one_write() {
        let mut writer = CountingWriter::default();
        let e = ServerError::Protocol("tab\there".to_string());
        write_error(&mut writer, &mut Vec::new(), &e).expect("in-memory");
        assert_eq!(writer.bytes, b"ERR protocol protocol error: tab\\there\n");
        assert_eq!(writer.writes.len(), 1, "was 2");
    }

    #[test]
    fn a_column_shorter_than_its_table_renders_null_not_a_panic() {
        let short = ColumnVector::from_ints([1]);
        assert_eq!(cell(&short, 0), ValueRef::Int(1));
        assert_eq!(cell(&short, 1), ValueRef::Null);
    }

    /// Every byte class the escape scheme and the framing care about, plus
    /// text that only looks like an escape or a NULL.
    const PIECES: [&str; 14] = [
        "", "a", " ", "\t", "\n", "\r", "\\", "\\t", "\r\n", "NULL", "é", "日本", "\u{a0}", "R\t.",
    ];

    fn column_of(data_type: DataType, cells: impl Iterator<Item = Value>) -> ColumnVector {
        let mut column = ColumnVector::new(data_type);
        for cell in cells {
            column.push(cell).expect("cell of the column's type");
        }
        column
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Wire bytes are what they were before the rewrite, and the
        /// client's decode returns the cells that went in.
        #[test]
        fn replies_match_the_reference_rendering_and_decode_to_their_cells(
            rows in proptest::collection::vec(
                (
                    proptest::option::of(i64::MIN..=i64::MAX),
                    proptest::option::of(-1.0e12f64..1.0e12),
                    proptest::option::of(proptest::collection::vec(0..PIECES.len(), 0..5)),
                ),
                0..40,
            ),
            shape in 1u8..8,
            count in 0u64..=u64::MAX,
            cached in proptest::bool::ANY,
        ) {
            let ints = rows.iter().map(|r| r.0.map_or(Value::Null, Value::Int));
            let floats = rows.iter().map(|r| r.1.map_or(Value::Null, Value::Float));
            let strs = rows.iter().map(|r| {
                r.2.as_ref().map_or(Value::Null, |pieces| {
                    Value::Str(pieces.iter().filter_map(|&i| PIECES.get(i).copied()).collect())
                })
            });
            // `shape` picks which of the three columns the result has,
            // so single-column rows (a lone empty cell) are covered too.
            let columns = [
                column_of(DataType::Int, ints),
                column_of(DataType::Float, floats),
                column_of(DataType::Str, strs),
            ];
            let columns = columns
                .into_iter()
                .enumerate()
                .filter_map(|(i, c)| (shape & (1 << i) != 0).then_some(c))
                .collect();
            let result = result_of(columns, count, cached);

            let writer = sent(&result, &mut Vec::new());
            prop_assert_eq!(&writer.bytes, &reference_reply(&result).into_bytes());

            let reply = read_reply(&mut writer.bytes.as_slice(), &mut Vec::new());
            let reply = reply.expect("the client decodes what the server encodes");
            prop_assert_eq!(reply.count, count);
            prop_assert_eq!(reply.cached, cached);
            prop_assert_eq!(reply.rows, reference_cells(&result));
        }
    }
}
