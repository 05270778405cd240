//! `covert`: the paper's headline channel, both families on one
//! fabric-enabled DGX-1 each (the `ext_two_hop_channel` setup).
//!
//! - L2 Prime+Probe: trojan on GPU0, spy on GPU5 two hops away, four
//!   aligned set pairs from an uncached offline phase.
//! - Link congestion: trojan on GPU1, spy on GPU0, sharing link (1,5).
//!
//! One job sends the seeded payload through each family's vote
//! pipeline. Every job starts from the same canonical phase boundary
//! (`canonicalize_phase`: L2 flushed, stats and timing state reset,
//! RNG reseeded), so every job does identical simulated work and must
//! decode identically.

use gpubox_attacks::{
    redecode_traces, transmit_over, BoundaryPolicy, ChannelMedium, ChannelParams, ChannelReport,
    L2SetMedium, LinkChannel, LinkCongestionMedium, Locality, Pipeline, SetPair,
};
use gpubox_bench::report::fnv1a_bits;
use gpubox_bench::AttackSetup;
use gpubox_sim::{
    FabricConfig, GpuId, MultiGpuSystem, ProcessId, SchedulerKind, SystemConfig, VirtAddr,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::probe::{self, TimedMedium, TraceTally};
use crate::{Outcome, RunArgs};

/// Payload bits each family carries per job: short jobs, so that a run
/// times each family's transmission many times.
const BITS_PER_JOB: usize = 512;
/// Jobs whose outputs make up the digest (always run).
const MIN_JOBS: usize = 4;
/// Offline phases timed for `setup_s` (the median is reported).
const SETUPS: usize = 101;
/// Phase tag every job starts from.
const JOB_PHASE_TAG: u64 = 0xBE4C_0000_0000_0001;
/// Trace ring per traced job and family (a 512-bit job leaves fewer
/// than 0.5M records per family).
const TRACE_CAPACITY: usize = 1 << 21;

/// The shared configuration both families run on.
fn shared_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::dgx1()
        .with_seed(seed)
        .with_fabric(FabricConfig::nvlink_v1());
    cfg.allow_indirect_peer = true;
    cfg
}

fn seeded_payload(seed: u64, bits: usize) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..bits).map(|_| (rng.gen::<u32>() & 1) as u8).collect()
}

/// The link family's system: trojan on GPU1 and spy on GPU0, both
/// streaming from buffers homed on GPU5.
struct LinkSide {
    sys: MultiGpuSystem,
    trojan: ProcessId,
    spy: ProcessId,
    trojan_lines: Vec<VirtAddr>,
    spy_lines: Vec<VirtAddr>,
}

fn boot_link_side(seed: u64) -> LinkSide {
    let mut sys = MultiGpuSystem::new(shared_config(seed));
    let home = GpuId::new(5);
    let page = sys.config().page_size;
    let trojan = sys.create_process(GpuId::new(1));
    let spy = sys.create_process(GpuId::new(0));
    sys.enable_peer_access(trojan, home)
        .expect("trojan peer access");
    sys.enable_peer_access(spy, home).expect("spy peer access");
    let tb = sys
        .malloc_on(trojan, home, 32 * page)
        .expect("trojan buffer");
    let sb = sys.malloc_on(spy, home, 2 * page).expect("spy buffer");
    LinkSide {
        sys,
        trojan,
        spy,
        trojan_lines: (0..32).map(|i| tb.offset(i * page)).collect(),
        spy_lines: (0..2).map(|i| sb.offset(i * page)).collect(),
    }
}

/// What one family's transmission in one job measured.
struct Leg {
    report: ChannelReport,
    transmit_s: f64,
    warmup_s: f64,
    decode_s: f64,
    lookups: u64,
    hits: u64,
    misses: u64,
    link: gpubox_sim::LinkStats,
    tally: TraceTally,
}

/// Transmits `payload` over `medium` on `sys` from the job phase
/// boundary. With `traced`, the sink records the transmission and the
/// traces are re-decoded on their own clock.
fn leg(
    sys: &mut MultiGpuSystem,
    medium: &dyn ChannelMedium,
    payload: &[u8],
    params: &ChannelParams,
    pipeline: &Pipeline,
    traced: bool,
) -> Leg {
    sys.canonicalize_phase(JOB_PHASE_TAG);
    if traced {
        sys.enable_tracing(TRACE_CAPACITY);
    }
    let timed_medium = TimedMedium::new(medium);
    let (report, transmit_s) = probe::timed(|| {
        transmit_over(
            sys,
            &timed_medium,
            payload,
            params,
            pipeline,
            SchedulerKind::Heap,
        )
    });
    let report = report.expect("covert transmission");
    let l2 = sys.stats().total();
    let mut out = Leg {
        warmup_s: timed_medium.prepare_s.get(),
        decode_s: 0.0,
        transmit_s,
        lookups: l2.l2_hits + l2.l2_misses,
        hits: l2.l2_hits,
        misses: l2.l2_misses,
        link: sys.stats().link_total(),
        tally: TraceTally::default(),
        report,
    };
    if traced {
        let ((redecoded, _), decode_s) =
            probe::timed(|| redecode_traces(&out.report.traces, params, pipeline, payload.len()));
        assert_eq!(
            redecoded, out.report.received,
            "re-decoding the traces must reproduce the live decode"
        );
        out.decode_s = decode_s;
        out.tally = TraceTally::drain(sys);
        sys.trace_mut().disable();
    }
    out
}

/// Seed of the `i`-th set-up boot; boot 0 uses the workload seed.
fn setup_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (g0, g5) = (GpuId::new(0), GpuId::new(5));

    // Set-up: the uncached offline phase plus alignment, several times,
    // each on its own derived seed; the first boot is kept.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepare_s = Vec::with_capacity(SETUPS);
    let mut align_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<(AttackSetup, Vec<SetPair>, LinkSide)> = None;
    for i in 0..SETUPS {
        let seed = setup_seed(args.seed, i);
        let (mut setup, p) =
            probe::timed(|| AttackSetup::prepare_with_cache(shared_config(seed), g0, g5, None));
        let (pairs, a) = probe::timed(|| setup.aligned_pairs(4));
        let (link, l) = probe::timed(|| boot_link_side(seed));
        setup_s.push(p + a + l);
        prepare_s.push(p);
        align_s.push(a);
        kept.get_or_insert((setup, pairs, link));
    }
    let (mut setup, pairs, mut link) = kept.expect("at least one set-up");

    let payload = seeded_payload(args.seed, BITS_PER_JOB);
    let l2_params = ChannelParams::default();
    let link_params = ChannelParams {
        spy_gap: 300,
        ..Default::default()
    };
    let l2_pipeline = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let link_pipeline = Pipeline::vote(BoundaryPolicy::Quantile);
    let l2_medium = L2SetMedium {
        trojan: setup.trojan,
        spy: setup.spy,
        pairs: &pairs,
        thresholds: setup.thresholds,
    };
    let link_medium = LinkCongestionMedium {
        trojan: link.trojan,
        spy: link.spy,
        channel: LinkChannel {
            trojan_lines: &link.trojan_lines,
            spy_lines: &link.spy_lines,
            trojan_streams: 4,
        },
    };

    // Measured phase. In the traced run every other job is traced, so
    // the overhead ratio compares interleaved jobs.
    let mut job_s = Vec::new();
    let mut traced_job_s = Vec::new();
    let mut rates = probe::JobRates::default();
    let mut first: Option<(u64, u64, u64, u64, u64)> = None;
    let mut identical = true;
    let mut bit_errors = [0u64; 2];
    let mut bits_done = 0u64;
    let mut counted = Counted::default();
    let end = probe::closed_loop(MIN_JOBS, args.seconds, |j| {
        let traced = args.trace && j % 2 == 1;
        let l2 = leg(
            &mut setup.sys,
            &l2_medium,
            &payload,
            &l2_params,
            &l2_pipeline,
            traced,
        );
        let lk = leg(
            &mut link.sys,
            &link_medium,
            &payload,
            &link_params,
            &link_pipeline,
            traced,
        );
        let secs = l2.transmit_s + lk.transmit_s;
        let lookups = l2.lookups + lk.lookups;
        if traced {
            traced_job_s.push(secs);
        } else {
            job_s.push(secs);
            rates.push(
                &[l2.transmit_s, lk.transmit_s],
                2 * BITS_PER_JOB as u64,
                lookups,
            );
            rates.time_reference(2);
        }
        bits_done += 2 * BITS_PER_JOB as u64;
        bit_errors[0] += l2.report.bit_errors as u64;
        bit_errors[1] += lk.report.bit_errors as u64;
        let sig = (
            fnv1a_bits(&l2.report.received),
            fnv1a_bits(&lk.report.received),
            l2.report.duration_cycles,
            lk.report.duration_cycles,
            lookups,
        );
        identical &= *first.get_or_insert(sig) == sig;
        if j < MIN_JOBS {
            counted.add(&l2, &lk, traced);
        }
    });

    let (l2_fnv, link_fnv, l2_cycles, link_cycles, _) = first.expect("at least one job");
    out.digest = format!(
        "l2={l2_fnv:016x},link={link_fnv:016x},l2_cycles={l2_cycles},link_cycles={link_cycles}"
    );
    out.check(
        "every job decodes identically from the same phase boundary",
        identical,
    );
    if args.trace {
        out.check(
            "the traced sinks dropped no record",
            counted.tally.dropped == 0,
        );
    }
    // The repository's own channel gate (`ext_two_hop_channel`): each
    // family decodes within 5% bit errors on its vote decoder.
    for (name, errors) in ["L2", "link"].iter().zip(bit_errors) {
        out.check(
            format!("{name} family bit error rate within the 5% channel gate"),
            errors as f64 <= 0.05 * (bits_done / 2) as f64,
        );
    }
    out.ops_done = bits_done;
    out.error_rate = (bit_errors[0] + bit_errors[1], bits_done);
    println!(
        "covert: {} jobs of {BITS_PER_JOB} bits per family",
        end.jobs
    );

    if !args.trace {
        out.set("peak_rss_mb", end.digest_peak_rss_mb);
        rates.report(&mut out, &setup_s);
        return out;
    }

    // Per-layer breakdown.
    let c = &counted;
    out.set("offline.prepare_s", probe::median(&prepare_s));
    out.set("offline.align_s", probe::median(&align_s));
    let offline = probe::discovery_accesses(
        shared_config(args.seed),
        (g0, g5),
        g0,
        &[(g0, Locality::Local), (g5, Locality::Remote)],
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
    out.set("fabric.hops", c.link.requests as f64);
    out.set("fabric.link_bytes", c.link.bytes as f64);
    out.set("fabric.busy_cycles", c.link.busy_cycles as f64);
    out.set("fabric.queue_cycles", c.link.queue_cycles as f64);
    out.set(
        "fabric.queue_cycles_per_request",
        probe::ratio(c.link.queue_cycles as f64, c.link.requests as f64),
    );
    out.set("covert.decode_s", probe::median(&c.decode_s));
    out.set("covert.warmup_s", probe::median(&c.warmup_s));
    out.set(
        "covert.accesses_per_bit",
        probe::ratio(
            (c.hits + c.misses) as f64,
            (2 * BITS_PER_JOB * MIN_JOBS) as f64,
        ),
    );
    out.set("covert.l2.bit_errors", c.bit_errors[0] as f64);
    out.set("covert.link.bit_errors", c.bit_errors[1] as f64);
    out.set("covert.l2.sim_kb_per_s", c.l2_kb_per_s);
    out.set("covert.link.sim_kb_per_s", c.link_kb_per_s);
    out.set("covert.slot_latency_p99", c.l2_slot_p99 as f64);
    out.set(
        "trace.overhead_ratio",
        probe::ratio(probe::median(&traced_job_s), probe::median(&job_s)),
    );
    out.set("trace.records", c.tally.records as f64);

    // Direct batch timing, after the digest jobs so it cannot move them:
    // the trojan's set-pair lines (local to GPU0) and the spy's (two
    // NVLink hops from GPU5).
    setup.sys.canonicalize_phase(JOB_PHASE_TAG);
    let trojan_lines: Vec<VirtAddr> = pairs
        .iter()
        .flat_map(|p| p.trojan.lines().to_vec())
        .collect();
    let spy_lines: Vec<VirtAddr> = pairs.iter().flat_map(|p| p.spy.lines().to_vec()).collect();
    let local = probe::batch_ns_per_line(&mut setup.sys, setup.trojan, &[&trojan_lines], 9, 200)
        .expect("local batch timing");
    let remote = probe::batch_ns_per_line(&mut setup.sys, setup.spy, &[&spy_lines], 9, 200)
        .expect("remote batch timing");
    out.set("system.batch_ns_per_line", local);
    out.set("fabric.remote_ns_per_line", remote);
    out
}

/// Counts over the digest jobs (identical in every run of a seed) and
/// per-job host times of the traced jobs among them.
#[derive(Default)]
struct Counted {
    hits: u64,
    misses: u64,
    link: gpubox_sim::LinkStats,
    tally: TraceTally,
    traced_lookups: u64,
    engine_s: Vec<f64>,
    decode_s: Vec<f64>,
    warmup_s: Vec<f64>,
    bit_errors: [u64; 2],
    l2_kb_per_s: f64,
    link_kb_per_s: f64,
    l2_slot_p99: u64,
}

impl Counted {
    fn add(&mut self, l2: &Leg, lk: &Leg, traced: bool) {
        for leg in [l2, lk] {
            self.hits += leg.hits;
            self.misses += leg.misses;
            self.link.merge(&leg.link);
        }
        self.bit_errors[0] += l2.report.bit_errors as u64;
        self.bit_errors[1] += lk.report.bit_errors as u64;
        self.l2_kb_per_s = l2.report.bandwidth_bytes_per_sec / 1e3;
        self.link_kb_per_s = lk.report.bandwidth_bytes_per_sec / 1e3;
        self.l2_slot_p99 = l2.report.slot_latency_p99;
        if traced {
            self.traced_lookups += l2.lookups + lk.lookups;
            self.tally.add(l2.tally);
            self.tally.add(lk.tally);
            let decode = l2.decode_s + lk.decode_s;
            let warmup = l2.warmup_s + lk.warmup_s;
            self.engine_s
                .push(l2.transmit_s + lk.transmit_s - decode - warmup);
            self.decode_s.push(decode);
            self.warmup_s.push(warmup);
        }
    }
}
