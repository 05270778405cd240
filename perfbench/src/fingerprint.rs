//! `fingerprint`: application fingerprinting from memorygrams.
//!
//! The spy on GPU1 primes and probes 256 sets of GPU0's L2 (fabric off)
//! while one of the six `standard_suite` victims runs on GPU0. A job is
//! one round: one memorygram per victim, in suite order, each on a new
//! victim process with the L2 flushed first, so every capture starts
//! from an empty cache. The first `MIN_ROUNDS` rounds form the labelled
//! dataset that `train_and_evaluate` classifies after the measured
//! phase.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use gpubox_attacks::side::{record_memorygram, FingerprintDataset, RecorderConfig};
use gpubox_attacks::Locality;
use gpubox_bench::setup::victim_with_duration;
use gpubox_bench::SideChannelSetup;
use gpubox_classify::Memorygram;
use gpubox_sim::{Agent, GpuId, SystemConfig, VirtAddr};

use crate::probe::{self, ClockedAgent, TimedAgent, TraceTally};
use crate::{Outcome, RunArgs};

/// L2 sets the spy monitors.
const SETS: usize = 256;
/// Rounds whose memorygrams form the dataset and the digest (always
/// run).
const MIN_ROUNDS: usize = 4;
/// Offline phases timed for `setup_s` (the median is reported). Each
/// boots its own derived seed, so none is served by the offline cache.
const SETUPS: usize = 401;
/// Segments of equal victim work each untraced capture is split into
/// (plus the remainder after the last one).
const CAPTURE_SEGMENTS: usize = 32;
/// Trace ring per traced capture: the longest victim (quasirandom)
/// leaves ~6.3M records.
const TRACE_CAPACITY: usize = 1 << 23;

/// Seed of the `i`-th set-up boot; boot 0 uses the workload seed.
fn setup_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one capture measured.
struct Capture {
    gram: Memorygram,
    build_s: f64,
    record_s: f64,
    victim_s: f64,
    /// Host times of the recording's segments (untraced captures).
    segments: Vec<f64>,
    lookups: u64,
    hits: u64,
    misses: u64,
    tally: TraceTally,
}

fn capture(
    setup: &mut SideChannelSetup,
    workload: &dyn gpubox_workloads::Workload,
    traced: bool,
) -> Capture {
    let sys = &mut setup.sys;
    let victim = sys.create_process(GpuId::new(0));
    let ((agent, duration), build_s) = probe::timed(|| victim_with_duration(sys, victim, workload));
    sys.flush_l2(GpuId::new(0));
    let before = sys.stats().total();
    let spent = Rc::new(Cell::new(0.0));
    let stamps = Rc::new(RefCell::new(Vec::with_capacity(CAPTURE_SEGMENTS + 1)));
    let victim_agent: Box<dyn Agent> = if traced {
        Box::new(TimedAgent::new(agent, Rc::clone(&spent)))
    } else {
        let every = agent.remaining_ops() / CAPTURE_SEGMENTS;
        Box::new(ClockedAgent::new(agent, every, Rc::clone(&stamps)))
    };
    let cfg = RecorderConfig {
        duration,
        sweep_gap: 0,
    };
    let start = Instant::now();
    let gram = record_memorygram(
        sys,
        setup.spy,
        &setup.monitored,
        setup.thresholds,
        &cfg,
        vec![victim_agent],
    );
    let end = Instant::now();
    let record_s = (end - start).as_secs_f64();
    let gram = gram.expect("memorygram capture");
    let mut bounds = vec![start];
    bounds.extend(stamps.borrow().iter().copied());
    bounds.push(end);
    let segments = if traced {
        Vec::new()
    } else {
        bounds
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    };
    let after = sys.stats().total();
    let hits = after.l2_hits - before.l2_hits;
    let misses = after.l2_misses - before.l2_misses;
    let tally = if traced {
        TraceTally::drain(sys)
    } else {
        TraceTally::default()
    };
    Capture {
        gram,
        build_s,
        record_s,
        victim_s: spent.get(),
        segments,
        lookups: hits + misses,
        hits,
        misses,
        tally,
    }
}

fn gram_words(g: &Memorygram) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(g.num_sweeps() as u64)
        .chain(g.sweeps().flat_map(|row| row.iter().map(|&m| u64::from(m))))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let (setup, s) = probe::timed(|| SideChannelSetup::prepare(setup_seed(args.seed, i), SETS));
        setup_s.push(s);
        kept.get_or_insert(setup);
    }
    let mut setup = kept.expect("at least one set-up");

    let suite = gpubox_workloads::standard_suite();
    let labels = gpubox_workloads::standard_labels();
    let mut dataset = FingerprintDataset::new(labels.clone());
    let mut gram_hash = probe::FNV_BASIS;
    let mut round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    let mut rates = probe::JobRates::default();
    let mut per_capture = PerCapture::default();
    let mut grams_done = 0u64;
    let mut visible = true;
    let end = probe::closed_loop(MIN_ROUNDS, args.seconds, |r| {
        // In the traced run, odd digest rounds are traced; the ring is
        // allocated once per traced round and emptied per capture.
        let traced = args.trace && r % 2 == 1 && r < MIN_ROUNDS;
        if traced {
            setup.sys.enable_tracing(TRACE_CAPACITY);
        }
        let mut secs = 0.0;
        let mut segments = Vec::new();
        let mut lookups = 0u64;
        for (label, w) in suite.iter().enumerate() {
            let c = capture(&mut setup, w.as_ref(), traced);
            secs += c.build_s + c.record_s;
            segments.push(c.build_s);
            segments.extend_from_slice(&c.segments);
            lookups += c.lookups;
            if !traced {
                rates.time_reference(4);
            }
            // The repository's visibility gate: past the spy's cold
            // first sweep, every victim still shows over 100 misses.
            visible &= c.gram.misses_per_sweep().iter().skip(1).sum::<u64>() > 100;
            if r < MIN_ROUNDS {
                gram_hash = probe::fnv1a_words(gram_hash, gram_words(&c.gram));
                per_capture.add(&c, traced);
                dataset.push(c.gram, label);
            }
            grams_done += 1;
        }
        if traced {
            setup.sys.trace_mut().disable();
            traced_round_s.push(secs);
        } else {
            round_s.push(secs);
            rates.push(&segments, suite.len() as u64, lookups);
        }
    });
    println!(
        "fingerprint: {} rounds of {} memorygrams",
        end.jobs,
        suite.len()
    );

    let (rep, train_s) = probe::timed(|| dataset.train_and_evaluate(0.5, 0.25, args.seed));
    let classes = labels.len();
    let mut test_total = 0u64;
    let mut test_right = 0u64;
    let mut confusion = Vec::with_capacity(classes * classes);
    for t in 0..classes {
        for p in 0..classes {
            let n = rep.confusion.get(t, p) as u64;
            test_total += n;
            if t == p {
                test_right += n;
            }
            confusion.push(n);
        }
    }
    let confusion_hash = probe::fnv1a_words(probe::FNV_BASIS, confusion);
    out.digest = format!("memorygrams={gram_hash:016x},confusion={confusion_hash:016x}");
    out.check(
        "the dataset holds every digest capture",
        dataset.len() == MIN_ROUNDS * suite.len(),
    );
    out.check("the test split is not empty", test_total > 0);
    if args.trace {
        out.check(
            "the traced sinks dropped no record",
            per_capture.tally.dropped == 0,
        );
    }
    out.check("every victim is visible in every memorygram", visible);
    out.ops_done = grams_done;
    out.error_rate = (test_total - test_right, test_total);

    if !args.trace {
        out.set("peak_rss_mb", end.digest_peak_rss_mb);
        rates.report(&mut out, &setup_s);
        return out;
    }

    let c = &per_capture;
    out.set("offline.prepare_s", probe::median(&setup_s));
    let offline = probe::discovery_accesses(
        SystemConfig::dgx1().with_seed(args.seed),
        (GpuId::new(1), GpuId::new(0)),
        GpuId::new(0),
        &[(GpuId::new(1), Locality::Remote)],
    )
    .expect("discovery access count");
    out.set("offline.sim_accesses", offline as f64);
    out.set("engine.run_s", probe::median(&c.engine_s));
    out.set("engine.ops", c.tally.engine_ops as f64);
    out.set(
        "engine.accesses_per_op",
        probe::ratio(c.traced_lookups as f64, c.tally.engine_ops as f64),
    );
    out.set(
        "engine.host_us_per_op",
        probe::ratio(
            c.engine_s.iter().sum::<f64>() * 1e6,
            c.tally.engine_ops as f64,
        ),
    );
    out.set("cache.hits", c.hits as f64);
    out.set("cache.misses", c.misses as f64);
    out.set("cache.evicts", c.tally.evicts as f64);
    out.set(
        "cache.miss_ratio",
        probe::ratio(c.misses as f64, (c.hits + c.misses) as f64),
    );
    out.set("side.record_s", probe::median(&c.record_s));
    out.set(
        "side.accesses_per_memorygram",
        probe::ratio((c.hits + c.misses) as f64, c.captures as f64),
    );
    out.set("workloads.build_s", probe::median(&c.build_s));
    out.set("workloads.victim_agent_s", probe::median(&c.victim_s));
    out.set("classify.train_s", train_s);
    out.set("classify.test_accuracy", rep.test_accuracy);
    out.set(
        "trace.overhead_ratio",
        probe::ratio(probe::median(&traced_round_s), probe::median(&round_s)),
    );
    out.set("trace.records", c.tally.records as f64);

    // Direct batch timing over the monitored eviction sets, one set per
    // batch as the recorder issues them; after the digest captures.
    setup.sys.flush_l2(GpuId::new(0));
    let sets: Vec<&[VirtAddr]> = setup.monitored.iter().map(|s| s.lines()).collect();
    let ns = probe::batch_ns_per_line(&mut setup.sys, setup.spy, &sets, 9, 4)
        .expect("eviction-set batch timing");
    out.set("system.batch_ns_per_line", ns);
    out
}

/// Counts over the digest captures and per-capture host times of the
/// traced ones among them.
#[derive(Default)]
struct PerCapture {
    captures: u64,
    hits: u64,
    misses: u64,
    tally: TraceTally,
    traced_lookups: u64,
    build_s: Vec<f64>,
    record_s: Vec<f64>,
    victim_s: Vec<f64>,
    engine_s: Vec<f64>,
}

impl PerCapture {
    fn add(&mut self, c: &Capture, traced: bool) {
        self.captures += 1;
        self.hits += c.hits;
        self.misses += c.misses;
        if traced {
            self.tally.add(c.tally);
            self.traced_lookups += c.lookups;
            self.build_s.push(c.build_s);
            self.record_s.push(c.record_s);
            self.victim_s.push(c.victim_s);
            self.engine_s.push(c.record_s - c.victim_s);
        }
    }
}
