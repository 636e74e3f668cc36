//! One benchmark for the whole query path. See `README.md` beside this
//! package for the workloads, the metrics and how they interact.
//!
//! `els-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//! runs one workload in this process, verifies every answer, prints every
//! metric by name with its unit, and ends with one JSON line.

// This package is the timing harness: reading the clock is its job.
#![allow(clippy::disallowed_methods)]

mod hist;
mod pipeline;
mod run;
mod span;
mod sut;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{sequence_hash, Spec};

/// `(name, unit, better, regression bound)`.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("qerror_p95", "ratio", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

const RUN_SECONDS: u32 = 20;

const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The per-layer metrics, in print order: `(name, unit, better)`.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for span in run::SPANS {
        out.push((format!("{span}.calls"), "count", "lower"));
        out.push((format!("{span}.busy_ms"), "ms", "lower"));
        out.push((format!("{span}.share"), "ratio", "lower"));
    }
    for (name, unit, better) in run::COUNTS {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// `BENCHMARK.json`, generated so the names in it cannot drift from the
/// names printed.
fn manifest() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = workloads::NAMES
        .iter()
        .zip(workloads::WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let metrics: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    out.push_str(&metrics.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if args.quick {
        args.seconds /= 10.0;
    }
    Ok(args)
}

/// The checked-out commit, read from `.git` without starting a process
/// (the driver's checkout is not a repository: `unknown` there).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What every output is stamped with, as a JSON object.
fn stamp(spec: &Spec, args: &Args) -> String {
    let streams: Vec<String> = spec.streams.iter().map(|s| s.len().to_string()).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"mode\": \"{}\", \"trace\": {}, \"seconds\": {}, \
         \"commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"threads\": {}, \"texts\": {}, \
         \"stream_ops\": [{}], \"trace_ops\": {}, \"sequence_hash\": \"{:016x}\"}}",
        spec.name,
        args.seed,
        if args.quick { "quick" } else { "full" },
        u8::from(args.trace),
        args.seconds,
        commit(),
        nproc(),
        env!("BENCH_RUSTC_VERSION"),
        spec.threads,
        spec.texts.len(),
        streams.join(", "),
        spec.trace_ops,
        sequence_hash(spec),
    )
}

/// The contract's last line.
fn result_line(failed: u64, attempted: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = workloads::spec(&args.workload, args.seed, args.quick).ok_or_else(|| {
        format!("unknown workload `{}` (one of {})", args.workload, workloads::NAMES.join(", "))
    })?;
    if spec.threads > nproc() {
        return Err(format!(
            "{} needs {} client threads but this machine has {} processors",
            spec.name,
            spec.threads,
            nproc()
        ));
    }
    let stamp = stamp(&spec, args);
    println!("stamp = {stamp}");
    let (failed, attempted, first_failure, metrics) = if args.trace {
        let traced = run::trace(&spec)?;
        let path = format!("benchmark/out/trace-{}.json", spec.name);
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, span::to_json(&stamp, &traced.spans)))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace_file = {path} ({} spans)", traced.spans.len());
        let metrics: Vec<(String, f64, &str)> = per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = traced.metrics.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect();
        (traced.failed, traced.attempted, traced.first_failure, metrics)
    } else {
        let measured = run::measure(&spec, args.seconds, args.quick)?;
        println!(
            "ops = {} in {:.3} s; timings from {} of {} slices, {} ops ({} beyond p99); failed_share = {}",
            measured.attempted,
            measured.window_s,
            measured.kept_slices.0,
            measured.kept_slices.1,
            measured.kept_ops,
            measured.beyond_p99,
            measured.failed as f64 / measured.attempted.max(1) as f64
        );
        let metrics = measured
            .metrics
            .iter()
            .zip(END_TO_END)
            .map(|((name, value), (_, unit, _, _))| (name.to_string(), *value, unit))
            .collect();
        (measured.failed, measured.attempted, measured.first_failure, metrics)
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if let Some(failure) = first_failure {
        eprintln!("first failure: {failure}");
    }
    println!("{}", result_line(failed, attempted.max(1), &metrics));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("els-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        assert!(per_layer().len() <= 128);
        assert!(workloads::WHY.iter().all(|why| why.len() <= 200 && !why.contains('\n')));
        assert!(manifest().len() < 64 * 1024);
    }
}
