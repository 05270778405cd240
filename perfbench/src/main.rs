//! The repository benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and a separate traced run for the per-layer
//! breakdown.
//!
//! Usage:
//!
//! ```text
//! gpubox-perfbench --workload <covert|fingerprint|fleet> [--seed N]
//!                  [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload builds its inputs from `--seed`, runs a closed loop of
//! identical-size jobs for `--seconds` host seconds (at least a fixed
//! number of jobs, whose outputs form the run's digest), checks its own
//! outputs, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones (see `README.md` for every definition).
//!
//! Layers are measured from outside the program: the benchmark times
//! calls into each layer's public functions, diffs `SystemStats`, and
//! counts the records of the existing `TraceSink`.

mod covert;
mod fingerprint;
mod fleet;
mod probe;
mod reference;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2525;

/// End-to-end metrics, in output order: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("sim_accesses_per_s", "accesses/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in output order: `(name, unit)`. A workload that
/// bypasses a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("offline.prepare_s", "s"),
    ("offline.align_s", "s"),
    ("offline.sim_accesses", "count"),
    ("engine.run_s", "s"),
    ("engine.ops", "count"),
    ("engine.accesses_per_op", "ratio"),
    ("engine.host_us_per_op", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evicts", "count"),
    ("cache.miss_ratio", "fraction"),
    ("system.batch_ns_per_line", "ns"),
    ("fabric.hops", "count"),
    ("fabric.link_bytes", "bytes"),
    ("fabric.busy_cycles", "cycles"),
    ("fabric.queue_cycles", "cycles"),
    ("fabric.queue_cycles_per_request", "cycles"),
    ("fabric.remote_ns_per_line", "ns"),
    ("covert.decode_s", "s"),
    ("covert.warmup_s", "s"),
    ("covert.accesses_per_bit", "ratio"),
    ("covert.l2.bit_errors", "count"),
    ("covert.link.bit_errors", "count"),
    ("covert.l2.sim_kb_per_s", "KB/s"),
    ("covert.link.sim_kb_per_s", "KB/s"),
    ("covert.slot_latency_p99", "cycles"),
    ("side.record_s", "s"),
    ("side.accesses_per_memorygram", "count"),
    ("workloads.build_s", "s"),
    ("workloads.victim_agent_s", "s"),
    ("classify.train_s", "s"),
    ("classify.test_accuracy", "fraction"),
    ("fleet.epoch_ms_p50", "ms"),
    ("fleet.epoch_ms_p99", "ms"),
    ("fleet.node_epochs", "count"),
    ("fleet.accesses", "count"),
    ("fleet.batches", "count"),
    ("fleet.nodes_recycled", "count"),
    ("fleet.queue_wait_p99_cycles", "cycles"),
    ("fleet.coresidency", "fraction"),
    ("fleet.speedup_2v1", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.records", "count"),
    ("error_rate", "fraction"),
];

/// Command-line settings of one run.
#[derive(Debug)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds the measured phase lasts (at least).
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// What a workload hands back: its op accounting, its digest, its named
/// correctness checks, and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload ops completed in the run (payload bits decoded,
    /// memorygrams captured, node-epochs stepped). An op fails only by a
    /// panic or a `SimError`, which ends the run.
    pub ops_done: u64,
    /// The workload's output quality as `(wrong, total)`: bit errors over
    /// payload bits, misclassified over test samples, jobs still queued
    /// at the horizon over jobs arrived. Deterministic per seed.
    pub error_rate: (u64, u64),
    /// Fixed-work digest: identical across every run of a seed, traced
    /// or not.
    pub digest: String,
    /// Named output checks; the run is correct only if all hold.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((workload, run))
}

/// Goldens for the default and the held-out seed: `workload seed digest`
/// per line.
const DIGESTS: &str = include_str!("../digests.txt");

fn golden_digest(workload: &str, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed).then_some(())?;
        f.next()
    })
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gpubox-perfbench --workload <covert|fingerprint|fleet> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let body: fn(&RunArgs) -> Outcome = match workload.as_str() {
        "covert" => covert::run,
        "fingerprint" => fingerprint::run,
        "fleet" => fleet::run,
        other => {
            eprintln!("error: unknown workload {other} (covert, fingerprint, fleet)");
            return ExitCode::from(2);
        }
    };
    println!(
        "host nproc={} rustc=\"{}\" commit={} workload={workload} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        run.seed,
        run.seconds,
        u8::from(run.trace),
    );

    // A panic (the set-up helpers panic on `SimError`) fails the run's
    // every op; how many it would have run is unknown, so one is counted.
    let mut outcome = match catch_unwind(AssertUnwindSafe(|| body(&run))) {
        Ok(o) => o,
        Err(_) => {
            eprintln!("error: the {workload} workload panicked; every op counts as failed");
            print_result(false, 1, 1, &[]);
            return ExitCode::from(1);
        }
    };
    if let Some(golden) = golden_digest(&workload, run.seed) {
        outcome.check(
            "digest matches the committed golden",
            outcome.digest == golden,
        );
    }
    println!("digest {workload} {} {}", run.seed, outcome.digest);
    for (name, ok) in &outcome.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok);
    let (wrong, total) = outcome.error_rate;
    let error_rate = wrong as f64 / total.max(1) as f64;
    println!(
        "ops_done={} error_rate={error_rate} fraction ({wrong}/{total})",
        outcome.ops_done
    );

    outcome.set("error_rate", error_rate);
    let table = if run.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(n, u)| (n, outcome.metrics.get(n).copied().unwrap_or(0.0), u))
        .collect();
    for (n, v, u) in &metrics {
        println!("metric {n} = {v} {u}");
    }
    print_result(correct, outcome.ops_done.max(1), 0, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
