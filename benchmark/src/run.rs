//! The two kinds of run: the measured window (tracing off, end-to-end
//! metrics) and the traced replay (per-layer metrics).

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use els_exec::{execute_plan_with, ExecMetrics, ExecMode};
use els_server::protocol::{ok_header, parse_header, parse_row, row_line};

use crate::hist::{median, percentile_sorted, Histogram};
use crate::pipeline::Decomposed;
use crate::span::{aggregate, Span, Tracer};
use crate::sut::{expectations, Caller, Expect, Sut};
use crate::workloads::{churn_table, Spec, EXEC_JOIN_TEMPLATES, WRITE};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Measured {
    /// `(name, value)` of every end-to-end metric, in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Slices the timings were taken from, of how many; the operations in
    /// them, and how many of those lie above the p99 bucket.
    pub kept_slices: (usize, usize),
    pub kept_ops: u64,
    pub beyond_p99: u64,
    pub window_s: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// p95 of the per-operation q-error over one full cycle of every stream:
/// a property of the seed, not of how far the window got.
fn qerror_p95(spec: &Spec, expect: &[Expect]) -> f64 {
    let mut all: Vec<f64> = spec
        .streams
        .iter()
        .flatten()
        .filter(|&&op| op != WRITE)
        .map(|&op| expect[op as usize].qerror)
        .collect();
    all.sort_by(f64::total_cmp);
    percentile_sorted(&all, 0.95)
}

/// `qerror_p95` of a workload without running its window.
#[cfg(test)]
pub fn accuracy(spec: &Spec) -> Result<f64, String> {
    let sut = Sut::build(spec, None)?;
    let expect = expectations(spec, &sut)?;
    sut.shut_down();
    Ok(qerror_p95(spec, &expect))
}

/// The host this runs on slows the whole machine to two thirds or half
/// its speed for seconds at a time. The window is therefore cut into
/// slices of about a second, each with its own histogram and rate, and the
/// timings come from the slices whose rate is within [`KEEP`] of the best
/// one: the machine at its own speed.
const SLICE_SECONDS: f64 = 1.0;
const KEEP: f64 = 0.85;

fn slice_count(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE_SECONDS).round() as usize).max(1)
}

struct ThreadResult {
    slices: Vec<Histogram>,
    /// Seconds from the end of the previous slice's last operation to the
    /// end of this slice's last operation.
    spans: Vec<f64>,
    failed: u64,
    first_failure: Option<String>,
    end: Instant,
}

/// One client's closed loop: next operation only after the previous one
/// was answered and checked.
fn client_loop(
    spec: &Spec,
    expect: &[Expect],
    stream: &[u32],
    mut caller: Caller<'_>,
    barrier: &Barrier,
    window: Duration,
) -> ThreadResult {
    let slice_count = slice_count(window);
    let mut slices = vec![Histogram::new(); slice_count];
    let mut spans = vec![0.0; slice_count];
    let mut failed = 0;
    let mut first_failure = None;
    let mut writes = 0;
    let slice_len = window / slice_count as u32;
    barrier.wait();
    let start = Instant::now();
    let (mut end, mut slice_begin) = (start, start);
    let (mut slice, mut slice_end) = (0, start + slice_len);
    for &op in stream.iter().cycle() {
        let (t, outcome);
        if op == WRITE {
            // Generating the table is the client's work, not the engine's.
            let table = churn_table(spec.seed, writes);
            writes += 1;
            t = Instant::now();
            outcome = caller.write(table);
        } else {
            let (text, expected) = (&spec.texts[op as usize], &expect[op as usize]);
            t = Instant::now();
            outcome = caller.call(&text.sql).and_then(|answer| {
                if expected.matches(&answer) {
                    Ok(())
                } else {
                    Err(format!("{}: got {answer:?}, expected {expected:?}", text.sql))
                }
            });
        }
        let previous_end = end;
        end = Instant::now();
        // An operation belongs to the slice it ends in.
        if end >= slice_end && slice + 1 < slice_count {
            spans[slice] = (previous_end - slice_begin).as_secs_f64();
            slice_begin = previous_end;
            while end >= slice_end && slice + 1 < slice_count {
                slice += 1;
                slice_end += slice_len;
            }
        }
        slices[slice].record((end - t).as_nanos() as u64);
        if let Err(e) = outcome {
            failed += 1;
            first_failure.get_or_insert(e);
        }
        if end - start >= window {
            break;
        }
    }
    spans[slice] = (end - slice_begin).as_secs_f64();
    ThreadResult { slices, spans, failed, first_failure, end }
}

pub fn measure(spec: &Spec, seconds: f64, quick: bool) -> Result<Measured, String> {
    let setups = if quick { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut sut: Option<Sut> = None;
    for _ in 0..setups {
        if let Some(previous) = sut.take() {
            previous.shut_down();
        }
        let t = Instant::now();
        let mut built = Sut::build(spec, None)?;
        built.warm_up(spec)?;
        setup_s.push(t.elapsed().as_secs_f64());
        sut = Some(built);
    }
    let mut sut = sut.ok_or("no set-up ran")?;
    let t = Instant::now();
    let expect = expectations(spec, &sut)?;
    println!("reference answers took {:.3} s (outside setup_s)", t.elapsed().as_secs_f64());

    let window = Duration::from_secs_f64(seconds);
    let slice_count = slice_count(window);
    let barrier = Barrier::new(spec.threads + 1);
    let callers = sut.callers(spec.threads);
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .zip(&spec.streams)
            .map(|(caller, stream)| {
                let (expect, barrier) = (&expect, &barrier);
                scope.spawn(move || client_loop(spec, expect, stream, caller, barrier, window))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<ThreadResult> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (start, results)
    });
    sut.shut_down();

    // Per slice: every client's operations, and the clients' rates added up.
    let mut slices = vec![(0.0, Histogram::new()); slice_count];
    let (mut failed, mut first_failure, mut end) = (0, None, start);
    for r in results {
        for ((rate, all), (own, span)) in slices.iter_mut().zip(r.slices.iter().zip(&r.spans)) {
            all.merge(own);
            if own.count() > 0 {
                *rate += own.count() as f64 / span;
            }
        }
        failed += r.failed;
        first_failure = first_failure.or(r.first_failure);
        end = end.max(r.end);
    }
    let attempted: u64 = slices.iter().map(|(_, h)| h.count()).sum();
    // Printed so that a slowed host can be told from a slowed program.
    let in_order: Vec<String> = slices.iter().map(|(rate, _)| format!("{rate:.0}")).collect();
    println!("slice rates = {}", in_order.join(" "));
    let best = slices.iter().map(|(rate, _)| *rate).fold(0.0, f64::max);
    let mut rates = Vec::new();
    let mut hist = Histogram::new();
    for (rate, h) in slices.iter().filter(|(rate, _)| *rate >= KEEP * best) {
        rates.push(*rate);
        hist.merge(h);
    }
    let metrics = vec![
        ("setup_s", median(&mut setup_s)),
        ("throughput_qps", median(&mut rates)),
        ("latency_p50_ms", ms(hist.percentile(0.50))),
        ("latency_p99_ms", ms(hist.percentile(0.99))),
        ("qerror_p95", qerror_p95(spec, &expect)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Ok(Measured {
        metrics,
        attempted,
        failed,
        first_failure,
        kept_slices: (rates.len(), slice_count),
        kept_ops: hist.count(),
        beyond_p99: hist.samples_beyond(0.99),
        window_s: (end - start).as_secs_f64(),
    })
}

// ------------------------------------------------------------------ traced

/// Span names, in the order their metrics are printed. Each yields
/// `.calls`, `.busy_ms` and `.share`.
pub const SPANS: [&str; 19] = [
    "storage.generate",
    "sql.parse",
    "sql.fingerprint",
    "sql.bind",
    "catalog.snapshot",
    "catalog.statistics",
    "catalog.register",
    "plan_cache.get",
    "plan_cache.insert",
    "core.prepare",
    "core.estimate",
    "optimizer.enumerate",
    "exec.run",
    "engine.execute",
    "engine.self",
    "server.roundtrip",
    "server.encode",
    "server.decode",
    "server.wire",
];

/// Counters and ratios printed after the span metrics:
/// `(name, unit, better)`.
pub const COUNTS: [(&str, &str, &str); 24] = [
    ("plan_cache.hits", "count", "higher"),
    ("plan_cache.misses", "count", "lower"),
    ("plan_cache.evictions", "count", "lower"),
    ("plan_cache.invalidations", "count", "lower"),
    ("plan_cache.hit_rate", "ratio", "higher"),
    ("optimizer.enumerations", "count", "lower"),
    ("exec.tuples_scanned", "count", "lower"),
    ("exec.kernel_rows", "count", "lower"),
    ("exec.hash_probes", "count", "lower"),
    ("exec.morsels", "count", "lower"),
    ("exec.partitions", "count", "lower"),
    ("exec.steals", "count", "lower"),
    ("exec.rows_out", "count", "lower"),
    ("exec.serial_ms", "ms", "lower"),
    ("exec.parallel_ms", "ms", "lower"),
    ("exec.parallel_speedup", "ratio", "higher"),
    ("exec.parallel_speedup_min", "ratio", "higher"),
    ("server.connections", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.queries_err", "count", "lower"),
    ("server.queue_depth_max", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

pub struct Traced {
    /// Every per-layer metric by name; names not applicable to the
    /// workload are present with value 0.
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub spans: Vec<Span>,
}

#[derive(Default)]
struct Tally {
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(describe);
        }
    }
}

pub fn trace(spec: &Spec) -> Result<Traced, String> {
    // `traced` is driven stage by stage (or over the wire) inside spans; the
    // twin runs the same operations through plain `Engine::execute`.
    let mut tracer = Tracer::new(spec.trace_ops * 10 + 64);
    let setup_start = Instant::now();
    let mut traced = Sut::build(spec, Some(&mut tracer))?;
    let setup_wall_ns = setup_start.elapsed().as_nanos() as f64;
    traced.warm_up(spec)?;
    let mut twin = Sut::build(spec, None)?;
    twin.warm_up(spec)?;
    let expect = expectations(spec, &traced)?;

    let cache_before = traced.engines[0].cache_stats();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    let walls = if spec.tenants.is_some() {
        trace_wire(spec, &expect, &mut traced, &twin, &mut tracer, &mut metrics, &mut tally)?
    } else {
        trace_in_process(spec, &expect, &traced, &twin, &mut tracer, &mut metrics, &mut tally)?
    };

    // Tenants share one cache, so the first engine's counters cover all.
    let (before, after) = (cache_before, traced.engines[0].cache_stats());
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    for (name, value) in [
        ("plan_cache.hits", hits),
        ("plan_cache.misses", misses),
        ("plan_cache.evictions", after.evictions - before.evictions),
        ("plan_cache.invalidations", after.invalidations - before.invalidations),
    ] {
        metrics.insert(name.into(), value as f64);
    }
    metrics.insert("plan_cache.hit_rate".into(), hits as f64 / (hits + misses).max(1) as f64);
    if spec.name == "exec_join" {
        serial_vs_parallel(spec, &twin, &mut metrics)?;
    }
    traced.shut_down();
    twin.shut_down();

    metrics.insert("trace.ops".into(), spec.trace_ops as f64);
    metrics.insert(
        "trace.overhead_share".into(),
        (walls.traced_ns - walls.untraced_ns) / walls.untraced_ns.max(1.0),
    );
    let stats = aggregate(tracer.spans());
    for name in SPANS {
        let stat = stats.get(name).copied().unwrap_or_default();
        // A round trip's self time is reported as `server.wire`; the span
        // itself is reported whole.
        let busy_ns = if name == "server.roundtrip" { stat.total_ns } else { stat.busy_ns };
        // Set-up spans are shares of the set-up; the rest, of the traced wall.
        let share = if busy_ns > 0 && busy_ns == stat.setup_busy_ns {
            busy_ns as f64 / setup_wall_ns
        } else {
            (busy_ns - stat.setup_busy_ns) as f64 / walls.traced_ns.max(1.0)
        };
        metrics.entry(format!("{name}.calls")).or_insert(stat.calls as f64);
        metrics.entry(format!("{name}.busy_ms")).or_insert(ms(busy_ns as f64));
        metrics.entry(format!("{name}.share")).or_insert(share);
    }
    for (name, _, _) in COUNTS {
        metrics.entry(name.to_string()).or_insert(0.0);
    }
    Ok(Traced {
        metrics,
        attempted: spec.trace_ops as u64,
        failed: tally.failed,
        first_failure: tally.first_failure,
        spans: tracer.into_spans(),
    })
}

struct Walls {
    traced_ns: f64,
    untraced_ns: f64,
}

/// Insert a derived layer (`engine.self`, `server.wire`) that has no span
/// of its own.
fn insert_layer(
    metrics: &mut BTreeMap<String, f64>,
    name: &str,
    calls: usize,
    busy_ns: f64,
    wall_ns: f64,
) {
    metrics.insert(format!("{name}.calls"), calls as f64);
    metrics.insert(format!("{name}.busy_ms"), ms(busy_ns));
    metrics.insert(format!("{name}.share"), busy_ns / wall_ns.max(1.0));
}

fn trace_in_process(
    spec: &Spec,
    expect: &[Expect],
    traced: &Sut,
    twin: &Sut,
    tracer: &mut Tracer,
    metrics: &mut BTreeMap<String, f64>,
    tally: &mut Tally,
) -> Result<Walls, String> {
    // Both engines see every operation once, one stage by stage and the
    // other through `Engine::execute`. Which engine plays which part, and
    // which part goes first, alternate, so that neither the placement of
    // an engine's tables in memory nor a warmed cache favours one side.
    let engines = [&traced.engines[0], &twin.engines[0]];
    let staged = [Decomposed::new(engines[0], spec.mode)?, Decomposed::new(engines[1], spec.mode)?];
    let stream = &spec.streams[0];
    let mut walls = Walls { traced_ns: 0.0, untraced_ns: 0.0 };
    let mut exec = ExecMetrics::default();
    let (mut rows_out, mut enumerations, mut writes) = (0u64, 0u64, 0usize);
    // Per query: `Engine::execute` minus the stages' own time.
    let mut glue_ns: Vec<f64> = Vec::with_capacity(spec.trace_ops);
    for i in 0..spec.trace_ops {
        let (op, id) = (i as u32, stream[i % stream.len()]);
        let (staged_on, staged_first) = (i % 2, (i / 2) % 2 == 0);
        if id == WRITE {
            let table = churn_table(spec.seed, writes);
            writes += 1;
            let copy = table.clone();
            let span = tracer.begin("catalog.register", op, None);
            let result = engines[staged_on].register(table);
            tracer.end(span);
            let s = &tracer.spans()[span as usize];
            walls.traced_ns += (s.end_ns - s.start_ns) as f64;
            let t = Instant::now();
            let twin_result = engines[1 - staged_on].register(copy);
            walls.untraced_ns += t.elapsed().as_nanos() as f64;
            tally.check(result.is_ok() && twin_result.is_ok(), || format!("write {op} failed"));
            continue;
        }
        let sql = &spec.texts[id as usize].sql;
        let (mut outcome, mut real) = (None, None);
        let (mut stages_ns, mut real_ns) = (0, 0);
        for step in 0..2 {
            if (step == 0) == staged_first {
                let before = els_exec::metrics::enumerations();
                let root = tracer.begin("trace.op", op, None);
                outcome = Some(staged[staged_on].execute(tracer, op, root, sql));
                tracer.end(root);
                enumerations += els_exec::metrics::enumerations() - before;
                let spans = tracer.spans();
                walls.traced_ns +=
                    (spans[root as usize].end_ns - spans[root as usize].start_ns) as f64;
                stages_ns = spans[root as usize + 1..]
                    .iter()
                    .filter(|s| s.parent == Some(root))
                    .map(|s| s.end_ns - s.start_ns)
                    .sum();
            } else {
                let start_ns = tracer.now_ns();
                let t = Instant::now();
                real = Some(engines[1 - staged_on].execute(sql));
                real_ns = t.elapsed().as_nanos() as u64;
                tracer.add("engine.execute", op, None, start_ns, real_ns, 1);
                walls.untraced_ns += real_ns as f64;
            }
        }
        glue_ns.push(real_ns as f64 - stages_ns as f64);

        match (outcome, real) {
            (Some(Ok(o)), Some(Ok(r))) => {
                // Fidelity: the copy of the pipeline and the real one agree.
                tally.check(
                    o.count == r.count
                        && o.join_order == r.join_order
                        && o.estimated_sizes == r.estimated_sizes
                        && o.cache_hit == r.cache_hit,
                    || format!("decomposed pipeline diverged from Engine::execute on `{sql}`"),
                );
                tally.check(o.count == expect[id as usize].count, || {
                    format!("`{sql}`: got {}, expected {}", o.count, expect[id as usize].count)
                });
                exec.absorb(&o.metrics);
                rows_out += o.rows_out;
            }
            (o, r) => tally.check(false, || {
                let real = r.map(|r| r.map(|_| ()).map_err(|e| e.to_string()));
                format!("`{sql}` failed: staged {:?}, real {real:?}", o.map(|o| o.map(|_| ())))
            }),
        }
    }
    let queries = glue_ns.len();
    let glue = (median(&mut glue_ns) * queries as f64).max(0.0);
    insert_layer(metrics, "engine.self", queries, glue, walls.traced_ns);
    for (name, value) in [
        ("optimizer.enumerations", enumerations),
        ("exec.tuples_scanned", exec.tuples_scanned),
        ("exec.kernel_rows", exec.kernel_rows),
        ("exec.hash_probes", exec.hash_probes),
        ("exec.morsels", exec.morsels),
        ("exec.partitions", exec.partitions),
        ("exec.steals", exec.steals),
        ("exec.rows_out", rows_out),
    ] {
        metrics.insert(name.into(), value as f64);
    }
    Ok(walls)
}

fn trace_wire(
    spec: &Spec,
    expect: &[Expect],
    traced: &mut Sut,
    twin: &Sut,
    tracer: &mut Tracer,
    metrics: &mut BTreeMap<String, f64>,
    tally: &mut Tally,
) -> Result<Walls, String> {
    let mut walls = Walls { traced_ns: 0.0, untraced_ns: 0.0 };
    let mut queue_depth_max = 0;
    let mut wire_ns = 0.0;
    // Operation i is client (i mod threads)'s next operation.
    let op_at = |i: usize| {
        let thread = i % spec.threads;
        let stream = &spec.streams[thread];
        (thread, stream[(i / spec.threads) % stream.len()] as usize)
    };
    for i in 0..spec.trace_ops {
        let (op, (thread, id)) = (i as u32, op_at(i));
        let text = &spec.texts[id];
        // The round trip twice, once inside a span and once bare, in
        // alternating order: the difference is what tracing costs.
        let (mut answer, mut root) = (Err(String::new()), 0);
        for step in 0..2 {
            let client = &mut traced.clients[thread];
            if (step == 0) == (i % 2 == 0) {
                root = tracer.begin("server.roundtrip", op, None);
                answer = Caller::Wire(client).call(&text.sql);
                tracer.end(root);
            } else {
                let t = Instant::now();
                let bare = Caller::Wire(client).call(&text.sql);
                walls.untraced_ns += t.elapsed().as_nanos() as f64;
                tally.check(bare.is_ok(), || format!("bare replay of operation {i} failed"));
            }
            if let Some(server) = &traced.server {
                queue_depth_max = queue_depth_max.max(server.queue_depth());
            }
        }
        let s = &tracer.spans()[root as usize];
        let (root_start, roundtrip_ns) = (s.start_ns, s.end_ns - s.start_ns);
        walls.traced_ns += roundtrip_ns as f64;

        // What the server did inside that round trip, redone on a twin
        // engine where it can be timed: execute, encode, and the client's
        // decode. They are recorded as children, so the round trip's self
        // time is what is left: sockets, framing, hand-off.
        let t = Instant::now();
        let real = twin.engines[text.tenant].execute(&text.sql).map_err(|e| e.to_string())?;
        let execute_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let header = ok_header(real.rows.num_rows() as u64, real.count, real.cache_hit);
        let lines: Vec<String> = (0..real.rows.num_rows())
            .filter_map(|r| real.rows.row(r).ok())
            .map(|values| row_line(&values))
            .collect();
        let encode_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let decoded = parse_header(&header).is_ok()
            && lines.iter().all(|line| std::hint::black_box(parse_row(line)).is_ok());
        let decode_ns = t.elapsed().as_nanos() as u64;
        let mut at = root_start;
        for (name, ns) in [
            ("engine.execute", execute_ns),
            ("server.encode", encode_ns),
            ("server.decode", decode_ns),
        ] {
            tracer.add(name, op, Some(root), at, ns, 1);
            at += ns;
        }
        wire_ns += roundtrip_ns.saturating_sub(execute_ns + encode_ns + decode_ns) as f64;

        match answer {
            Ok(a) => {
                tally.check(expect[id].matches(&a), || {
                    format!("`{}`: got {a:?}, expected {:?}", text.sql, expect[id])
                });
                tally.check(decoded && a.count == real.count, || {
                    format!("wire reply and twin engine disagree on `{}`", text.sql)
                });
            }
            Err(e) => tally.check(false, || format!("`{}` failed: {e}", text.sql)),
        }
    }
    if let Some(server) = &traced.server {
        let c = server.counters();
        for (name, value) in [
            ("server.connections", c.connections),
            ("server.rejected", c.rejected),
            ("server.shed", c.shed),
            ("server.queries_err", c.queries_err),
            ("server.queue_depth_max", queue_depth_max as u64),
        ] {
            metrics.insert(name.into(), value as f64);
        }
    }
    insert_layer(metrics, "server.wire", spec.trace_ops, wire_ns, walls.traced_ns);
    Ok(walls)
}

/// Every `exec_join` text's cached plan under one worker and under two,
/// alternating, median of five: is the parallel path worth choosing?
fn serial_vs_parallel(
    spec: &Spec,
    twin: &Sut,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let engine = &twin.engines[0];
    let snapshot = engine.snapshot();
    let mut per_template = vec![(0.0f64, 0.0f64); EXEC_JOIN_TEMPLATES.len()];
    for text in &spec.texts {
        let plan = engine.prepare(&text.sql).map_err(|e| e.to_string())?;
        let tables = plan
            .table_names
            .iter()
            .map(|name| snapshot.table_data(name))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut samples = [Vec::new(), Vec::new()];
        for _ in 0..5 {
            for (workers, sample) in samples.iter_mut().enumerate() {
                let mode = ExecMode::Vectorized { workers: workers + 1 };
                let t = Instant::now();
                let out = execute_plan_with(&plan.optimized.plan, &tables, mode);
                sample.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(out.map_err(|e| e.to_string())?);
            }
        }
        per_template[text.template].0 += median(&mut samples[0]);
        per_template[text.template].1 += median(&mut samples[1]);
    }
    for (name, (serial, parallel)) in EXEC_JOIN_TEMPLATES.iter().zip(&per_template) {
        println!("template {name}: serial {:.3} ms, parallel {:.3} ms", ms(*serial), ms(*parallel));
    }
    let serial: f64 = per_template.iter().map(|t| t.0).sum();
    let parallel: f64 = per_template.iter().map(|t| t.1).sum();
    let worst = per_template.iter().map(|t| t.0 / t.1.max(1.0)).fold(f64::INFINITY, f64::min);
    metrics.insert("exec.serial_ms".into(), ms(serial));
    metrics.insert("exec.parallel_ms".into(), ms(parallel));
    metrics.insert("exec.parallel_speedup".into(), serial / parallel.max(1.0));
    metrics.insert("exec.parallel_speedup_min".into(), worst);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{sequence_hash, spec};

    /// One test, not one per workload: `optimizer.enumerations` is a
    /// process-wide counter, and tests of one binary run in parallel.
    #[test]
    fn the_same_seed_repeats_exactly_and_another_seed_differs() {
        for (name, trace_ops) in [("plan_cold", 16), ("cache_churn", 4_200)] {
            let build = |seed| {
                let mut s = spec(name, seed, true).expect("known workload");
                s.trace_ops = trace_ops;
                s
            };
            let (a, b, other) = (build(7), build(7), build(8));
            assert_eq!(sequence_hash(&a), sequence_hash(&b), "{name}");
            assert_ne!(sequence_hash(&a), sequence_hash(&other), "{name}");

            let (ta, tb) = (trace(&a).expect("traced run"), trace(&b).expect("traced run"));
            assert_eq!((ta.failed, tb.failed), (0, 0), "{name}: {:?}", ta.first_failure);
            for counter in [
                "plan_cache.hits",
                "plan_cache.misses",
                "plan_cache.evictions",
                "plan_cache.invalidations",
                "optimizer.enumerations",
                "core.estimate.calls",
                "exec.tuples_scanned",
            ] {
                assert_eq!(ta.metrics[counter], tb.metrics[counter], "{name} {counter}");
            }
            assert!(ta.metrics["optimizer.enumerations"] > 0.0, "{name}");
            if name == "cache_churn" {
                // The prefix holds one catalog write: the six tables of the
                // set-up plus one registration, and stale plans dropped.
                assert_eq!(ta.metrics["catalog.register.calls"], 7.0);
                assert!(ta.metrics["plan_cache.invalidations"] > 0.0);
                let rate = ta.metrics["plan_cache.hit_rate"];
                assert!(rate > 0.0 && rate < 1.0, "{rate}");
            }
            assert_eq!(accuracy(&a).expect("accuracy"), accuracy(&b).expect("accuracy"), "{name}");
        }
    }
}
