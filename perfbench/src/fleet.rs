//! `fleet`: shared-nothing parallel fleet simulation.
//!
//! `FleetConfig::new(64, seed)` with `Pack` placement at 0.75 target
//! utilisation, two worker threads, and a horizon long enough that the
//! fleet runs loaded for most of it. Inside the simulation, arrivals
//! are an open-loop Poisson stream; on the host, a job is one whole
//! fleet run from a freshly built runner, so every job is identical and
//! must decode to the same exposure table.

use gpubox_sim::{FleetConfig, FleetReport, FleetRunner, GpuId, MultiGpuSystem, Pack, VirtAddr};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::probe;
use crate::{Outcome, RunArgs};

/// Fleet nodes (the default config's size).
const NODES: u32 = 64;
/// Simulated cycles per fleet run.
const HORIZON: u64 = 12_000_000;
/// Worker threads of the measured runs.
const THREADS: usize = 2;
/// Runs whose exposure table makes up the digest (always run).
const MIN_JOBS: usize = 3;
/// Runner constructions timed for `setup_s` (the median is reported).
const SETUPS: usize = 501;

fn config(seed: u64, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(NODES, seed).with_target_utilization(0.75);
    cfg.horizon = HORIZON;
    cfg.threads = threads;
    cfg
}

fn build(seed: u64, threads: usize) -> FleetRunner {
    FleetRunner::new(config(seed, threads), Box::new(Pack))
}

/// How a job drives the runner.
#[derive(Clone, Copy, PartialEq)]
enum Drive {
    /// `run()` to the horizon with `THREADS` workers.
    Plain,
    /// One `run_until(now + epoch)` per epoch with `THREADS` workers,
    /// each timed (the untraced run).
    PerEpoch,
    /// `run()` with one worker.
    Serial,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (runner, s) = probe::timed(|| build(args.seed, THREADS));
        setup_s.push(s);
        drop(runner);
    }

    let epoch = config(args.seed, THREADS).epoch;
    let drives = if args.trace {
        vec![Drive::Plain, Drive::PerEpoch, Drive::Serial]
    } else {
        vec![Drive::PerEpoch]
    };
    let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); drives.len()];
    let mut rates = probe::JobRates::default();
    let mut epoch_ms = Vec::new();
    let mut first: Option<(String, FleetReport)> = None;
    let mut identical = true;
    let mut node_epochs_done = 0u64;
    let min_jobs = MIN_JOBS.max(drives.len());
    let end = probe::closed_loop(min_jobs, args.seconds, |j| {
        let d = j % drives.len();
        let drive = drives[d];
        let threads = if drive == Drive::Serial { 1 } else { THREADS };
        let mut runner = build(args.seed, threads);
        let mut segments = Vec::new();
        let (report, secs) = probe::timed(|| {
            if drive == Drive::PerEpoch {
                while runner.now() < HORIZON {
                    let target = runner.now() + epoch;
                    let ((), s) = probe::timed(|| runner.run_until(target));
                    segments.push(s);
                }
                let (report, s) = probe::timed(|| runner.finish());
                segments.push(s);
                report
            } else {
                runner.run()
            }
        });
        run_s[d].push(secs);
        let e = &report.exposure;
        if args.trace {
            // The last segment is `finish()`, not an epoch.
            let epochs = segments.len().saturating_sub(1);
            epoch_ms.extend(segments[..epochs].iter().map(|s| s * 1e3));
        } else {
            rates.push(&segments, e.node_epochs, e.accesses);
            rates.time_reference(4);
        }
        node_epochs_done += e.node_epochs;
        let line = report.exposure_line("fleet");
        match &first {
            Some((l, _)) => identical &= *l == line,
            None => first = Some((line, report)),
        }
    });
    let (line, report) = first.expect("at least one run");
    println!("fleet: {} runs; {line}", end.jobs);
    out.digest = format!(
        "exposure={:016x}",
        probe::fnv1a_words(probe::FNV_BASIS, line.bytes().map(u64::from))
    );
    out.check(
        if args.trace {
            "exposure table identical across runs, at 1 and 2 threads, plain and per-epoch"
        } else {
            "exposure table identical across runs"
        },
        identical,
    );
    let e = &report.exposure;
    out.check(
        "every arrived job was placed or is queued",
        e.placed + e.queued_end == e.arrived,
    );
    out.ops_done = node_epochs_done;
    out.error_rate = (e.queued_end, e.arrived);

    if !args.trace {
        out.set("peak_rss_mb", end.digest_peak_rss_mb);
        rates.report(&mut out, &setup_s);
        return out;
    }

    let t = report.stats.total();
    out.set("cache.hits", t.l2_hits as f64);
    out.set("cache.misses", t.l2_misses as f64);
    out.set(
        "cache.miss_ratio",
        probe::ratio(t.l2_misses as f64, (t.l2_hits + t.l2_misses) as f64),
    );
    let links = report.stats.link_total();
    out.set("fabric.hops", links.requests as f64);
    out.set("fabric.link_bytes", links.bytes as f64);
    out.set("fabric.busy_cycles", links.busy_cycles as f64);
    out.set("fabric.queue_cycles", links.queue_cycles as f64);
    out.set(
        "fabric.queue_cycles_per_request",
        probe::ratio(links.queue_cycles as f64, links.requests as f64),
    );
    out.set("fleet.epoch_ms_p50", probe::percentile(&epoch_ms, 0.50));
    out.set("fleet.epoch_ms_p99", probe::percentile(&epoch_ms, 0.99));
    out.set("fleet.node_epochs", e.node_epochs as f64);
    out.set("fleet.accesses", e.accesses as f64);
    out.set("fleet.batches", e.batches as f64);
    out.set("fleet.nodes_recycled", e.nodes_recycled as f64);
    out.set(
        "fleet.queue_wait_p99_cycles",
        e.queue_wait_hist.p99() as f64,
    );
    out.set("fleet.coresidency", e.coresidency());
    let plain = probe::median(&run_s[0]);
    out.set(
        "fleet.speedup_2v1",
        probe::ratio(probe::median(&run_s[2]), plain),
    );
    out.set(
        "trace.overhead_ratio",
        probe::ratio(probe::median(&run_s[1]), plain),
    );
    out.set(
        "system.batch_ns_per_line",
        node_batch_ns_per_line(args.seed),
    );
    out
}

/// Host ns per line of `access_batch_into` on one fleet node: batches of
/// `probe_lines` random lines over a 16-page local buffer, the shape of
/// a fleet job's probe batch.
fn node_batch_ns_per_line(seed: u64) -> f64 {
    let cfg = config(seed, 1);
    let mut sys = MultiGpuSystem::new(cfg.node.clone().with_seed(seed));
    let pid = sys.create_process(GpuId::new(0));
    let page = sys.config().page_size;
    let line = sys.config().cache.line_size;
    let buf = sys
        .malloc_on(pid, GpuId::new(0), 16 * page)
        .expect("node buffer");
    let lines_in_buf = 16 * page / line;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let batches: Vec<Vec<VirtAddr>> = (0..256)
        .map(|_| {
            (0..cfg.probe_lines)
                .map(|_| buf.offset((rng.gen::<u64>() % lines_in_buf) * line))
                .collect()
        })
        .collect();
    let refs: Vec<&[VirtAddr]> = batches.iter().map(Vec::as_slice).collect();
    probe::batch_ns_per_line(&mut sys, pid, &refs, 9, 16).expect("node batch timing")
}
