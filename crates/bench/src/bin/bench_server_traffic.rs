//! TCP front-door traffic bench: sustained closed-loop throughput plus an
//! overload storm, over real loopback sockets.
//!
//! Two measured phases against one two-tenant server:
//!
//! 1. **sustained** — closed-loop clients (one query in flight each)
//!    replaying a mixed cached/uncached `COUNT(*)` workload through the
//!    line protocol. Reports qps and p50/p95/p99 round-trip latency;
//!    every reply is count-verified, so tenant bleed-through under
//!    concurrency fails the bench rather than inflating throughput.
//! 2. **overload** — C ≫ workers + queue one-shot clients at once. The
//!    regression gate is behavioral, not a throughput threshold: zero
//!    hangs (no client reaches its read timeout), every attempt accounted
//!    as served/rejected (no untyped failures), and at least one typed
//!    `ERR overloaded` rejection — proof backpressure engaged instead of
//!    buffering without bound.
//!
//! Prints a summary; a full run also writes `BENCH_server_traffic.json`.
//! Run with `cargo run --release -p els-bench --bin bench_server_traffic`
//! (`--smoke` for the fast CI shape: same gates, no JSON, so the tier-1
//! gate leaves the tracked artifact alone). Exits non-zero and prints
//! `REGRESSION` lines on any gate failure.

// Tooling/timing layer: measuring wall clocks (and exiting non-zero) is
// this crate's job, so the workspace-wide `disallowed-methods` bans from
// clippy.toml do not apply here.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Duration;

use els_bench::server_load::{closed_loop, overload_storm, shed_probe, traffic_server, workload};
use els_server::ServerConfig;

/// Read-timeout budget: a storm client still waiting after this long is a
/// hang, the protocol's one unacceptable outcome.
const TIMEOUT: Duration = Duration::from_secs(20);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Sustained phase sizing: never oversubscribe (clients <= workers), so
    // the phase measures service latency, not queue wait.
    let (clients, rounds) = if smoke { (2, 5) } else { (4, 40) };
    // Overload sizing: attempts >> workers + queue_depth forces rejections.
    let (workers, queue_depth, watermark, attempts) =
        if smoke { (2, 2, 1, 12) } else { (4, 4, 2, 32) };
    let config = ServerConfig {
        workers: workers.max(clients),
        queue_depth,
        shed_watermark: watermark,
        ..ServerConfig::default()
    };
    println!(
        "server traffic: {clients} closed-loop clients x {rounds} rounds of {} queries, \
         then {attempts}-client storm vs {workers} workers + {queue_depth} queue, {cpus} cpu(s)",
        workload().len()
    );

    let handle = traffic_server(config.clone());
    let addr = handle.addr();

    // Phase 1: sustained closed-loop traffic (also warms both cache lanes).
    let sustained = closed_loop(addr, clients, rounds, TIMEOUT);
    let p50 = sustained.percentile(50.0);
    let p95 = sustained.percentile(95.0);
    let p99 = sustained.percentile(99.0);
    println!(
        "  sustained: {} ok ({} cached, {} errors) in {:.3}s -> {:.1} qps, \
         p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
        sustained.ok,
        sustained.cached,
        sustained.errors,
        sustained.elapsed.as_secs_f64(),
        sustained.qps(),
        p50.as_secs_f64() * 1e3,
        p95.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );

    // Phase 2: the storm. The warm probe is a workload query every client
    // just cached in alpha's lane.
    let (warm_sql, warm_expected) = workload().remove(0);
    let storm = overload_storm(addr, attempts, &warm_sql, warm_expected, TIMEOUT);
    let shed_rate = storm.degraded as f64 / storm.attempted.max(1) as f64;
    println!(
        "  overload: {} attempted -> {} served ({} degraded/shed), {} rejected, \
         {} failed, {} hung (shed rate {:.2})",
        storm.attempted,
        storm.served,
        storm.degraded,
        storm.rejected,
        storm.failed,
        storm.hung,
        shed_rate,
    );

    // Phase 3: pin the queue at the shed watermark and measure degraded
    // (cached-plan-only) service directly — the storm can drain too fast
    // on a small box to catch shed mode in the act.
    let probes = if smoke { 3 } else { 10 };
    let shed = shed_probe(&handle, &config, &warm_sql, warm_expected, probes, TIMEOUT);
    println!(
        "  shed probe: {} cached served, {} uncached refused typed, {} failed \
         (queue held at watermark {})",
        shed.cached_served, shed.shed_refusals, shed.failed, config.shed_watermark
    );

    let counters = handle.counters();
    handle.shutdown();
    println!(
        "  server counters: {} connections, {} ok, {} err, {} rejected, {} shed",
        counters.connections,
        counters.queries_ok,
        counters.queries_err,
        counters.rejected,
        counters.shed,
    );

    // ---- JSON report -------------------------------------------------
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"bench\": \"server_traffic\",\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n"
    );
    let _ = write!(
        out,
        "  \"config\": {{ \"workers\": {}, \"queue_depth\": {}, \"shed_watermark\": {} }},\n",
        config.workers, config.queue_depth, config.shed_watermark
    );
    let _ = write!(
        out,
        "  \"sustained\": {{ \"clients\": {}, \"queries_ok\": {}, \"errors\": {}, \
         \"cached\": {}, \"seconds\": {:.4}, \"qps\": {:.2}, \"latency_p50_ms\": {:.3}, \
         \"latency_p95_ms\": {:.3}, \"latency_p99_ms\": {:.3} }},\n",
        sustained.clients,
        sustained.ok,
        sustained.errors,
        sustained.cached,
        sustained.elapsed.as_secs_f64(),
        sustained.qps(),
        p50.as_secs_f64() * 1e3,
        p95.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );
    let _ = write!(
        out,
        "  \"overload\": {{ \"attempted\": {}, \"served\": {}, \"degraded\": {}, \
         \"rejected\": {}, \"failed\": {}, \"hung\": {}, \"shed_rate\": {:.4} }},\n",
        storm.attempted,
        storm.served,
        storm.degraded,
        storm.rejected,
        storm.failed,
        storm.hung,
        shed_rate,
    );
    let _ = write!(
        out,
        "  \"shed_probe\": {{ \"cached_served\": {}, \"shed_refusals\": {}, \"failed\": {} }},\n",
        shed.cached_served, shed.shed_refusals, shed.failed,
    );
    let _ = write!(
        out,
        "  \"server_counters\": {{ \"connections\": {}, \"queries_ok\": {}, \
         \"queries_err\": {}, \"rejected\": {}, \"shed\": {} }}\n}}\n",
        counters.connections,
        counters.queries_ok,
        counters.queries_err,
        counters.rejected,
        counters.shed,
    );
    if !smoke {
        if let Err(e) = std::fs::write("BENCH_server_traffic.json", &out) {
            eprintln!("warning: could not write BENCH_server_traffic.json: {e}");
        } else {
            println!("  wrote BENCH_server_traffic.json");
        }
    }

    // ---- Regression gates --------------------------------------------
    let mut failures = Vec::new();
    if sustained.errors > 0 {
        failures.push(format!("{} sustained-phase queries errored", sustained.errors));
    }
    for w in &sustained.wrong {
        failures.push(format!("wrong answer under load: {w}"));
    }
    if storm.hung > 0 {
        failures.push(format!("{} storm clients hung past the {TIMEOUT:?} budget", storm.hung));
    }
    if !storm.accounted() {
        failures.push(format!(
            "storm accounting leak: {} served + {} rejected + {} failed != {} attempted",
            storm.served, storm.rejected, storm.failed, storm.attempted
        ));
    }
    if storm.failed > 0 {
        failures.push(format!("{} storm clients saw untyped failures", storm.failed));
    }
    if storm.rejected == 0 {
        failures.push(
            "saturation produced zero typed Overloaded rejections (backpressure never engaged)"
                .to_string(),
        );
    }
    if shed.failed > 0 || shed.shed_refusals != probes || shed.cached_served != probes {
        failures.push(format!(
            "shed probe broke degraded-service contract: {} cached served, {} shed, {} failed \
             (want {probes}/{probes}/0)",
            shed.cached_served, shed.shed_refusals, shed.failed
        ));
    }
    if failures.is_empty() {
        println!("PASS: sustained traffic verified, overload fully typed, zero hangs");
    } else {
        for f in &failures {
            println!("OVERLOAD REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
