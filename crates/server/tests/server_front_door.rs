//! End-to-end failure-path coverage for the TCP front door: malformed
//! SQL, mid-result disconnects, tenant isolation, admission rejection,
//! cached-plan-only shedding, hostile bytes in either direction, and the
//! exact bytes of a reply — all over real loopback sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use els::engine::{Engine, EngineError};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els::storage::{ColumnVector, Table};
use els_exec::timing::Stopwatch;
use els_server::protocol::MAX_LINE_BYTES;
use els_server::{serve, Client, ServerConfig, ServerError, Tenants};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Two tenants, same table name, different contents: the sharpest probe
/// for catalog or plan-cache bleed-through.
fn two_tenants() -> Tenants {
    let tenants = Tenants::isolated(&["alpha", "beta"], 256).unwrap();
    for (name, rows, seed) in [("alpha", 1000usize, 1u64), ("beta", 500, 2)] {
        tenants
            .resolve(name)
            .unwrap()
            .generate(
                TableSpec::new("t", rows)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                seed,
            )
            .unwrap();
    }
    tenants
}

fn two_tenant_server(config: ServerConfig) -> els_server::ServerHandle {
    serve("127.0.0.1:0", two_tenants(), config).unwrap()
}

/// A raw connection that has said `HELLO` and been told `READY`.
fn raw_connection(addr: SocketAddr, tenant: &str) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(TIMEOUT)).unwrap();
    let mut raw = BufReader::new(stream);
    raw.get_mut().write_all(format!("HELLO {tenant}\n").as_bytes()).unwrap();
    let mut ready = String::new();
    raw.read_line(&mut ready).unwrap();
    assert_eq!(ready, "READY\n");
    raw
}

/// A one-connection stand-in for the server that answers each line it
/// reads with the next canned reply, whatever the line says.
fn scripted_server(replies: &'static [&'static str]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        for reply in replies {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            reader.get_mut().write_all(reply.as_bytes()).unwrap();
        }
    });
    (addr, thread)
}

/// Spin until `reached()`; a state the server never gets to within the
/// client timeout is a failure, not a wait.
fn wait_until(what: &str, reached: impl Fn() -> bool) {
    let waited = Stopwatch::start();
    while !reached() {
        assert!(waited.elapsed() < TIMEOUT, "{what} never happened");
        std::thread::yield_now();
    }
}

fn wait_for_depth(handle: &els_server::ServerHandle, depth: usize) {
    wait_until(&format!("queue depth {depth}"), || handle.queue_depth() >= depth);
}

#[test]
fn malformed_sql_answers_typed_error_and_keeps_the_connection() {
    let handle = two_tenant_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    let err = c.query("THIS IS NOT SQL").unwrap_err();
    assert!(matches!(err, ServerError::Engine(EngineError::Sql(_))), "{err:?}");
    // Same connection, next line: still served.
    let reply = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(reply.count, 1000);
    // A missing table is a typed error too, and still not fatal.
    let err = c.query("SELECT COUNT(*) FROM nope").unwrap_err();
    assert!(matches!(err, ServerError::Engine(EngineError::Sql(_))), "{err:?}");
    assert_eq!(c.query("SELECT COUNT(*) FROM t WHERE k < 10").unwrap().count, 10);
    c.quit();
    let counters = handle.counters();
    assert!(counters.queries_ok >= 2 && counters.queries_err >= 2, "{counters:?}");
    handle.shutdown();
}

#[test]
fn disconnect_mid_result_leaves_the_engine_serving_others() {
    let tenants = two_tenants();
    // 60 000 rows of `R\t<k>\n` is some 470 KB on the wire: the reply goes
    // out as several buffer-loads, so the server is mid-result, between
    // writes, when the socket dies.
    let wide = TableSpec::new("wide", 60_000)
        .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }));
    tenants.resolve("alpha").unwrap().generate(wide, 7).unwrap();
    let config = ServerConfig { workers: 3, ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", tenants, config).unwrap();
    let rude = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    rude.fire_and_hang_up("SELECT w.k FROM wide w").unwrap();
    // The polite client gets full service throughout.
    let mut polite = Client::connect(handle.addr(), "beta", TIMEOUT).unwrap();
    for _ in 0..5 {
        assert_eq!(polite.query("SELECT COUNT(*) FROM t").unwrap().count, 500);
    }
    let rows = polite.query("SELECT t.k FROM t WHERE k < 3").unwrap();
    assert_eq!(rows.rows.len(), 3);
    polite.quit();
    // And a client that stays gets the same many-chunk reply whole.
    let mut patient = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    let reply = patient.query("SELECT w.k FROM wide w").unwrap();
    assert_eq!(reply.rows.len(), 60_000);
    let keys: Vec<u64> = reply.rows.iter().map(|r| r[0].parse().unwrap()).collect();
    assert!(keys.iter().copied().eq(0..60_000), "rows lost or reordered between chunks");
    patient.quit();
    handle.shutdown();
}

#[test]
fn tenants_never_observe_each_others_tables_or_plans() {
    let handle = two_tenant_server(ServerConfig::default());
    let addr = handle.addr();
    // Concurrent interleaved load from both tenants on one engine box.
    let threads: Vec<_> = [("alpha", 1000u64), ("beta", 500u64)]
        .into_iter()
        .map(|(tenant, expected)| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, tenant, TIMEOUT).unwrap();
                let mut cached_seen = false;
                for _ in 0..20 {
                    let reply = c.query("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(reply.count, expected, "tenant {tenant} saw a foreign count");
                    cached_seen |= reply.cached;
                }
                c.quit();
                cached_seen
            })
        })
        .collect();
    for t in threads {
        assert!(t.join().unwrap(), "repeated identical SQL should hit the tenant's own lane");
    }
    // A tenant this server does not host is turned away at HELLO.
    let err = Client::connect(addr, "gamma", TIMEOUT).unwrap_err();
    assert!(matches!(err, ServerError::UnknownTenant(_)), "{err:?}");
    handle.shutdown();
}

#[test]
fn admission_full_rejects_with_typed_overloaded_and_never_hangs() {
    // One worker, one queue slot: the third concurrent connection must be
    // rejected at the door.
    let handle = two_tenant_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        shed_watermark: 1,
        ..ServerConfig::default()
    });
    // Occupy the single worker with a live connection...
    let mut held = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    assert_eq!(held.query("SELECT COUNT(*) FROM t").unwrap().count, 1000);
    // ...fill the queue with a raw connection that never speaks...
    let parked = TcpStream::connect(handle.addr()).unwrap();
    wait_for_depth(&handle, 1);
    // ...and watch the next client get a clean, typed rejection.
    let err = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap_err();
    assert!(matches!(err, ServerError::Overloaded), "{err:?}");
    assert!(handle.counters().rejected >= 1);
    drop(parked);
    held.quit();
    handle.shutdown();
}

/// How one storm client's attempt ended.
#[derive(Debug, PartialEq)]
enum StormEnd {
    /// Admitted, and both its queries answered.
    Served,
    /// Admitted, cached query answered, uncached one refused `ERR shed`.
    Shed,
    /// Turned away at the door with `ERR overloaded`.
    Rejected,
    /// Anything else: the outcome the front door promises never to produce.
    Untyped(String),
}

/// One storm client: connect, the query every holder has cached, one
/// query nobody has run, hang up.
fn storm_attempt(addr: SocketAddr, index: u64) -> StormEnd {
    let mut client = match Client::connect(addr, "alpha", TIMEOUT) {
        Ok(client) => client,
        Err(ServerError::Overloaded) => return StormEnd::Rejected,
        Err(e) => return StormEnd::Untyped(format!("connect: {e:?}")),
    };
    // Admitted: a cached plan serves even in shed mode.
    match client.query("SELECT COUNT(*) FROM t") {
        Ok(reply) if reply.count == 1000 => {}
        other => return StormEnd::Untyped(format!("cached query: {other:?}")),
    }
    let k = 100 + index;
    let end = match client.query(&format!("SELECT COUNT(*) FROM t WHERE k < {k}")) {
        Ok(reply) if reply.count == k => StormEnd::Served,
        Err(ServerError::Shed) => StormEnd::Shed,
        other => StormEnd::Untyped(format!("uncached query: {other:?}")),
    };
    client.quit();
    end
}

#[test]
fn connection_storm_ends_every_attempt_typed_and_promptly() {
    const WORKERS: usize = 2;
    const QUEUE: usize = 2;
    const STORM: usize = 12; // C >> workers + queue
    let handle = two_tenant_server(ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE,
        shed_watermark: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Hold every worker with a live, answered client before the storm, so
    // nothing the acceptor queues can be popped: the first QUEUE storm
    // clients fill the queue and every later one must be rejected, by
    // construction rather than by timing.
    let held: Vec<Client> = (0..WORKERS)
        .map(|_| {
            let mut c = Client::connect(addr, "alpha", TIMEOUT).unwrap();
            assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().count, 1000);
            c
        })
        .collect();
    let ends: Vec<(StormEnd, Duration)> = std::thread::scope(|scope| {
        let storm: Vec<_> = (0..STORM as u64)
            .map(|i| {
                scope.spawn(move || {
                    let watch = Stopwatch::start();
                    (storm_attempt(addr, i), watch.elapsed())
                })
            })
            .collect();
        // Saturated: the queue is full and the rest have been turned away.
        let turned_away = (STORM - QUEUE) as u64;
        wait_until("the storm's rejections", || handle.counters().rejected >= turned_away);
        assert_eq!(handle.queue_depth(), QUEUE);
        // Free the workers; the queued clients are served, or shed while
        // another still waits behind them.
        held.into_iter().for_each(Client::quit);
        storm.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let count = |end: &StormEnd| ends.iter().filter(|(e, _)| e == end).count();
    let (served, shed, rejected) =
        (count(&StormEnd::Served), count(&StormEnd::Shed), count(&StormEnd::Rejected));
    assert_eq!(served + shed + rejected, STORM, "an attempt ended untyped: {ends:?}");
    assert_eq!(rejected, STORM - QUEUE, "{ends:?}");
    assert_eq!(served + shed, QUEUE, "{ends:?}");
    for (end, elapsed) in &ends {
        assert!(*elapsed < TIMEOUT / 2, "{end:?} took {elapsed:?}: a hang in all but name");
    }
    let counters = handle.counters();
    assert_eq!(counters.rejected, (STORM - QUEUE) as u64, "{counters:?}");
    assert_eq!(counters.connections, (WORKERS + QUEUE) as u64, "{counters:?}");
    assert_eq!(counters.shed, shed as u64, "{counters:?}");
    handle.shutdown();
}

#[test]
fn overload_sheds_to_cached_plan_only_service() {
    let handle = two_tenant_server(ServerConfig {
        workers: 1,
        queue_depth: 4,
        shed_watermark: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    // Warm the cache while unloaded.
    assert!(!c.query("SELECT COUNT(*) FROM t").unwrap().cached);
    assert!(c.query("SELECT COUNT(*) FROM t").unwrap().cached);
    // Park a connection in the queue: depth >= watermark -> shed mode.
    let parked = TcpStream::connect(handle.addr()).unwrap();
    wait_for_depth(&handle, 1);
    // Cached plans still serve; uncached queries are refused, typed.
    let reply = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(reply.cached && reply.count == 1000, "{reply:?}");
    let err = c.query("SELECT COUNT(*) FROM t WHERE k < 123").unwrap_err();
    assert!(matches!(err, ServerError::Shed), "{err:?}");
    // Relieve the pressure. The single worker serves connections whole,
    // so the parked socket drains only once `c` hangs up; the next
    // connection then gets full (unshed) service again.
    drop(parked);
    c.quit();
    let mut c2 = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    assert_eq!(c2.query("SELECT COUNT(*) FROM t WHERE k < 123").unwrap().count, 123);
    let counters = handle.counters();
    assert!(counters.shed >= 1, "{counters:?}");
    c2.quit();
    handle.shutdown();
}

#[test]
fn garbage_handshake_is_refused_without_harming_the_server() {
    let handle = two_tenant_server(ServerConfig::default());
    // Speak garbage instead of HELLO.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        writeln!(raw, "GET / HTTP/1.1").unwrap();
        raw.flush().unwrap();
        let mut line = String::new();
        BufReader::new(raw).read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR protocol"), "{line:?}");
    }
    // The server is unaffected.
    let mut c = Client::connect(handle.addr(), "beta", TIMEOUT).unwrap();
    assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().count, 500);
    c.quit();
    handle.shutdown();
}

#[test]
fn shared_cache_pressure_stays_lane_correct() {
    // Tiny shared cache: tenants evict each other's entries, but a hit
    // must still always be a *lane-local* hit.
    let tenants = Tenants::isolated(&["alpha", "beta"], 2).unwrap();
    for (name, rows, seed) in [("alpha", 300usize, 3u64), ("beta", 700, 4)] {
        tenants
            .resolve(name)
            .unwrap()
            .generate(
                TableSpec::new("t", rows)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                seed,
            )
            .unwrap();
    }
    let handle = serve("127.0.0.1:0", tenants, ServerConfig::default()).unwrap();
    let mut a = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    let mut b = Client::connect(handle.addr(), "beta", TIMEOUT).unwrap();
    for i in 0..10 {
        let sql = format!("SELECT COUNT(*) FROM t WHERE k < {}", 50 + i);
        let ra = a.query(&sql).unwrap();
        let rb = b.query(&sql).unwrap();
        // Under eviction churn a reply may or may not be cached, but the
        // answers must stay tenant-correct throughout.
        assert_eq!(ra.count, 50 + i);
        assert_eq!(rb.count, 50 + i);
    }
    a.quit();
    b.quit();
    handle.shutdown();
}

/// A sanity check that `Engine`-level lane isolation holds under the
/// exact shared-cache shape `Tenants::isolated` builds (belt to the
/// engine unit test's braces).
#[test]
fn engine_lane_isolation_under_shared_cache() {
    let tenants = Tenants::isolated(&["alpha", "beta"], 64).unwrap();
    let alpha: Arc<Engine> = tenants.resolve("alpha").unwrap();
    let beta: Arc<Engine> = tenants.resolve("beta").unwrap();
    for (engine, rows, seed) in [(&alpha, 100usize, 5u64), (&beta, 200, 6)] {
        engine
            .generate(
                TableSpec::new("t", rows)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                seed,
            )
            .unwrap();
    }
    let sql = "SELECT COUNT(*) FROM t";
    assert!(!alpha.execute(sql).unwrap().cache_hit);
    assert!(!beta.execute(sql).unwrap().cache_hit, "beta must not hit alpha's entry");
    assert_eq!(alpha.execute(sql).unwrap().count, 100);
    assert_eq!(beta.execute(sql).unwrap().count, 200);
    assert!(alpha.execute_if_cached(sql).unwrap().unwrap().cache_hit);
}

#[test]
fn reply_bytes_are_exactly_the_documented_framing() {
    let handle = two_tenant_server(ServerConfig::default());
    let mut raw = raw_connection(handle.addr(), "alpha");
    // Four requests in one packet; the replies come back in order. The
    // LIMIT on an aggregate bounds its one-row output, not the aggregate.
    let requests = "SELECT t.k FROM t WHERE k < 3\nSELECT COUNT(*) FROM t\n\
                    SELECT COUNT(*) FROM t LIMIT 5\nQUIT\n";
    raw.get_mut().write_all(requests.as_bytes()).unwrap();
    let mut transcript = String::new();
    raw.read_to_string(&mut transcript).unwrap();
    assert_eq!(
        transcript,
        "OK rows=3 count=3 cached=0\nR\t0\nR\t1\nR\t2\n.\n\
         OK rows=1 count=1000 cached=0\nR\t1000\n.\n\
         OK rows=1 count=1000 cached=0\nR\t1000\n.\n\
         BYE\n"
    );
    handle.shutdown();
}

#[test]
fn trailing_empty_and_blank_cells_survive_the_wire() {
    let tenants = two_tenants();
    let notes = Table::new(
        "notes",
        vec![
            ("k".to_string(), ColumnVector::from_ints(0..4)),
            ("s".to_string(), ColumnVector::from_strs(["x", "", " ", "nbsp\u{a0}"])),
        ],
    )
    .unwrap();
    tenants.resolve("alpha").unwrap().register(notes).unwrap();
    let handle = serve("127.0.0.1:0", tenants, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr(), "alpha", TIMEOUT).unwrap();
    // The last cell of a row is the last thing on its line: an empty one
    // leaves the line ending in its tab, a blank one in a blank.
    let reply = c.query("SELECT n.k, n.s FROM notes n").unwrap();
    let expected = [["0", "x"], ["1", ""], ["2", " "], ["3", "nbsp\u{a0}"]];
    assert_eq!(reply.rows, expected);
    // Alone on its line, an empty string is one empty cell, not none.
    let reply = c.query("SELECT n.s FROM notes n").unwrap();
    assert_eq!(reply.rows, [["x"], [""], [" "], ["nbsp\u{a0}"]]);
    c.quit();
    handle.shutdown();
}

#[test]
fn a_newline_free_flood_is_cut_off_with_a_typed_error() {
    let handle = two_tenant_server(ServerConfig::default());
    let mut raw = raw_connection(handle.addr(), "alpha");
    // Stream far more than a line may hold and never end it, without a
    // pause the server's read poll could slip a length check into. A
    // reader thread waits for the verdict meanwhile.
    let mut flood = raw.get_ref().try_clone().unwrap();
    let answered = Arc::new(AtomicBool::new(false));
    let verdict = {
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            let mut line = String::new();
            let read = raw.read_line(&mut line);
            answered.store(true, Ordering::SeqCst);
            read.map(|_| line)
        })
    };
    let block = vec![b'x'; 64 * 1024];
    let budget = 16 * MAX_LINE_BYTES;
    let mut sent = 0;
    while sent < budget && !answered.load(Ordering::SeqCst) && flood.write_all(&block).is_ok() {
        sent += block.len();
    }
    let line = verdict.join().unwrap().unwrap();
    assert!(line.starts_with("ERR protocol"), "{line:?}");
    // The server stopped reading one block past the cap; only what the
    // socket buffers between the two ends absorbed got sent after that.
    assert!(sent < budget, "the server swallowed all {sent} bytes before objecting");

    // A line that does end, but past the cap, is the same protocol error
    // (not a query for the SQL parser to chew on).
    let mut raw = raw_connection(handle.addr(), "alpha");
    let mut long_line = vec![b'x'; MAX_LINE_BYTES + 1];
    long_line.push(b'\n');
    // The server may hang up before the last bytes are written.
    let _ = raw.get_mut().write_all(&long_line);
    let mut line = String::new();
    raw.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR protocol"), "{line:?}");

    // Neither episode cost the server anything.
    let mut c = Client::connect(handle.addr(), "beta", TIMEOUT).unwrap();
    assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().count, 500);
    c.quit();
    handle.shutdown();
}

#[test]
fn a_header_promising_the_moon_is_a_typed_error_not_a_panic() {
    let (addr, server) =
        scripted_server(&["READY\n", "OK rows=18446744073709551615 count=0 cached=0\nR\t1\n.\n"]);
    let mut c = Client::connect(addr, "anyone", TIMEOUT).unwrap();
    let err = c.query("SELECT 1").unwrap_err();
    assert!(matches!(&err, ServerError::Protocol(m) if m.contains("got 1")), "{err:?}");
    server.join().unwrap();
}

#[test]
fn a_handshake_refusal_arrives_typed_and_unescaped() {
    let (addr, server) = scripted_server(&["ERR unknown-tenant no tenant `a\\tb` here\n"]);
    let err = Client::connect(addr, "a\tb", TIMEOUT).unwrap_err();
    assert_eq!(err, ServerError::UnknownTenant("no tenant `a\tb` here".to_string()));
    server.join().unwrap();
}
