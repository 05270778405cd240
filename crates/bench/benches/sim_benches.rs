//! Criterion microbenches for the simulator's hot paths.
//!
//! Coverage:
//! - the full system access path, local and remote (`local_l2_access`,
//!   `remote_nvlink_access`);
//! - the raw cache layer: flat structure-of-arrays [`L2Cache`] vs. the
//!   original per-set `Vec<Option<u64>>` + boxed `SetPolicy` layout
//!   (`l2_flat_probe_hits`/`l2_flat_chase_evicts` vs. the
//!   `l2_seed_layout_*` baselines, ~2x each);
//! - the full seed access path, scalar and 4-agent contended
//!   (`system_access_seed_path*` vs. `local_l2_access*`) — the
//!   contended pair is the tentpole ≥3x comparison (measured 4.1–4.7x);
//! - the contention-pressure trackers, which noiseless configs skip: the
//!   4-agent interleave on the jittered DGX-1, local and fabric-off
//!   remote (`local_l2_access_contended4_jittered`,
//!   `remote_access_contended4_jittered`);
//! - batched probes: the allocating wrapper, the caller-buffer batch path
//!   and an equivalent loop of scalar accesses (`warp_batch_probe_16`,
//!   `warp_batch_into_16`, `warp_loop_scalar_16`);
//! - trial fan-out: serial vs. parallel [`TrialRunner`] over identical
//!   per-trial simulations (`trial_fanout_serial/parallel_8`);
//! - the engine layer, PR 2's tentpole: engine-overhead microbench
//!   (256 engine-stepped loads vs. the same loads issued raw:
//!   `engine_steps_256_loads` / `pr1_engine_steps_256_loads` /
//!   `raw_access_256_loads`) and the end-to-end covert channel
//!   (`covert_transmit_e2e` vs. `covert_transmit_pr1_rung`), where the
//!   baseline rung is the PR 1 stack faithfully reconstructed in
//!   [`pr1`]: the allocating op protocol (cloned probe lists, owned
//!   latency `Vec`s), the O(n) min-scan scheduler, and the one-entry
//!   TLB (`set_tlb_entries(1)`). Both transmissions are asserted
//!   bit-identical before timing — the rungs differ in host cost only;
//! - the fabric layer, PR 3's tentpole: before timing, a fabric-off
//!   system must reproduce the golden pre-fabric access-path fingerprint
//!   bit-for-bit ([`PRE_FABRIC_FINGERPRINT`]); then the per-access cost
//!   of the timed link model on 1-hop and 2-hop remote routes
//!   (`remote_nvlink_access_fabric_on`, `remote_2hop_access_fabric_on` /
//!   `_off`);
//! - the telemetry layer: full tracing on the e2e covert channel must be
//!   bit-invisible and within its overhead budget before
//!   `covert_transmit_e2e_traced` is timed (`bench_trace_overhead`);
//! - the monitor layer, PR 10's tentpole: the streaming covert-channel
//!   detector fed per-window stats snapshots must be outcome-invisible
//!   and within its overhead budget on a busy windowed run before
//!   `monitor_windowed_300k` is timed (`bench_monitor_overhead`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gpubox_attacks::covert::{decode_trace, stripe_bits, unstripe_bits, ProbeSample};
use gpubox_attacks::{
    align_classes, classify_pages, classify_pages_fast, paired_sets, AlignmentConfig,
    ChannelParams, Locality, ScanConfig, SetPair, Thresholds, TrialRunner,
};
use gpubox_sim::{
    Agent, CacheConfig, Engine, FabricConfig, FleetConfig, FleetRunner, GpuId, L2Cache,
    MultiGpuSystem, Op, OpResult, Pack, PhysAddr, ProbeStage, ProcessCtx, ProcessId, SystemConfig,
    Topology, VirtAddr,
};
use gpubox_sim::cache_reference::ReferenceCache;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The attack's two hot access shapes over a handful of target sets:
///
/// - *probe*: sweep the `ways` resident lines of a set (all hits) — the
///   covert channel / memorygram inner loop;
/// - *chase*: walk `ways + 1` conflicting lines of a set (every access
///   past the warm-up evicts) — the Alg. 1 discovery inner loop.
fn trace(cfg: &CacheConfig, len: usize, chase: bool) -> Vec<PhysAddr> {
    let span = cfg.line_size * cfg.num_sets();
    let depth = u64::from(cfg.ways) + u64::from(chase);
    let sets = 8u64;
    (0..len as u64)
        .map(|i| {
            let set = (i / depth) % sets;
            let k = i % depth;
            PhysAddr(set * cfg.line_size + k * span)
        })
        .collect()
}

fn bench_cache_layer(c: &mut Criterion) {
    let cfg = CacheConfig::p100_l2();
    for (name_flat, name_seed, chase) in [
        ("l2_flat_probe_hits", "l2_seed_layout_probe_hits", false),
        ("l2_flat_chase_evicts", "l2_seed_layout_chase_evicts", true),
    ] {
        let addrs = trace(&cfg, 8192, chase);

        let mut flat = L2Cache::new(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        c.bench_function(name_flat, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let pa = addrs[i & 8191];
                i = i.wrapping_add(1);
                flat.access(pa, &mut rng)
            })
        });

        let mut seed_layout = ReferenceCache::new(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        c.bench_function(name_seed, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let pa = addrs[i & 8191];
                i = i.wrapping_add(1);
                seed_layout.access(pa, &mut rng).is_hit()
            })
        });
    }
}

/// The seed's full single-GPU access path, reconstructed end to end: a
/// `HashMap` page-table walk per access, the per-set `Vec`/`SetPolicy`
/// cache with div/mod set math, the oracle's *second* set computation,
/// and the original pressure tracker that builds a fresh `HashSet` per
/// access. Conservative baseline: HBM backing-store reads and statistics
/// are omitted (both would only slow it further).
struct SeedAccessPath {
    cache: ReferenceCache,
    table: std::collections::HashMap<u64, u64>,
    recent: std::collections::VecDeque<(u64, u32)>,
    latency: gpubox_sim::LatencyModel,
    rng: ChaCha8Rng,
    page_size: u64,
    window: u64,
}

impl SeedAccessPath {
    fn new(cfg: &SystemConfig, pages: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut table = std::collections::HashMap::new();
        // Random frame placement, as the driver model does.
        let mut frames: Vec<u64> = (0..pages * 4).collect();
        use rand::seq::SliceRandom;
        frames.shuffle(&mut rng);
        for vpn in 0..pages {
            table.insert(vpn, frames[vpn as usize] * cfg.page_size);
        }
        SeedAccessPath {
            cache: ReferenceCache::new(&cfg.cache),
            table,
            recent: std::collections::VecDeque::new(),
            latency: gpubox_sim::LatencyModel::new(cfg.timing.clone()),
            rng,
            page_size: cfg.page_size,
            window: cfg.timing.contention_window,
        }
    }

    fn access(&mut self, va: u64, now: u64, agent: u32) -> u32 {
        // Translate: HashMap lookup per access (the seed had no TLB).
        let vpn = va / self.page_size;
        let off = va % self.page_size;
        let pa = PhysAddr(self.table[&vpn] + off);
        // Cache lookup (first set computation inside).
        let hit = self.cache.access(pa, &mut self.rng).is_hit();
        // Pressure query: the seed built a HashSet every access.
        let cutoff = now.saturating_sub(self.window);
        let mut others: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &(t, a) in self.recent.iter().rev() {
            if t < cutoff {
                break;
            }
            if a != agent {
                others.insert(a);
            }
        }
        let pressure = others.len() as u32;
        self.recent.push_back((now, agent));
        while matches!(self.recent.front(), Some(&(t, _)) if t < cutoff) {
            self.recent.pop_front();
        }
        let latency =
            self.latency
                .access_latency(gpubox_sim::Route::local(), hit, pressure, &mut self.rng);
        // Oracle bookkeeping: the seed computed the set a second time.
        let line = pa.0 / self.cache.line_size();
        black_box(line % self.cache.num_sets());
        latency
    }
}

fn bench_access_path(c: &mut Criterion) {
    // Seed-path baseline over the same access pattern as local_l2_access.
    let cfg = SystemConfig::dgx1();
    let mut seed_path = SeedAccessPath::new(&cfg, (1 << 20) / cfg.page_size);
    let mut ts = 0u64;
    c.bench_function("system_access_seed_path", |b| {
        b.iter(|| {
            ts += 300;
            seed_path.access((ts % 8192) * 128 % (1 << 20), ts, 0)
        })
    });

    // The contended covert-channel regime: four agents interleave on one
    // GPU. The seed pays a HashSet build (alloc + hashing) per access;
    // the flat path scans a four-entry table. Noiseless config so the
    // comparison isolates data-structure cost, not Box–Muller jitter.
    let ncfg = SystemConfig::dgx1().noiseless();
    let mut seed_path_c = SeedAccessPath::new(&ncfg, (1 << 20) / ncfg.page_size);
    c.bench_function("system_access_seed_path_contended4", |b| {
        b.iter(|| {
            ts += 300;
            seed_path_c.access((ts % 8192) * 128 % (1 << 20), ts, (ts / 300 % 4) as u32)
        })
    });

    let mut nsys = MultiGpuSystem::new(SystemConfig::dgx1().noiseless());
    let npid = nsys.create_process(GpuId::new(0));
    let nagents = [
        nsys.default_agent(npid),
        nsys.new_agent(),
        nsys.new_agent(),
        nsys.new_agent(),
    ];
    let nbuf = nsys.malloc_on(npid, GpuId::new(0), 1 << 20).unwrap();
    c.bench_function("local_l2_access_contended4", |b| {
        b.iter(|| {
            ts += 300;
            nsys.access(
                npid,
                nagents[(ts / 300 % 4) as usize],
                nbuf.offset((ts % 8192) * 128 % (1 << 20)),
                ts,
                None,
            )
            .unwrap()
        })
    });

    // The same four-agent interleave on the jittered DGX-1 (fabric off),
    // where every access queries and records the home GPU's contention
    // window, and a remote one the NVLink queueing window too; the
    // noiseless rung above skips both. Accesses arrive at the 24-cycle
    // batch issue gap, so the 2000-cycle window holds ~80 entries.
    let contended_jittered = |issuer: u8| {
        let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
        let pid = sys.create_process(GpuId::new(issuer));
        if issuer != 0 {
            sys.enable_peer_access(pid, GpuId::new(0)).unwrap();
        }
        let agents = [
            sys.default_agent(pid),
            sys.new_agent(),
            sys.new_agent(),
            sys.new_agent(),
        ];
        let buf = sys.malloc_on(pid, GpuId::new(0), 1 << 20).unwrap();
        (sys, pid, agents, buf)
    };
    for (name, issuer) in [
        ("local_l2_access_contended4_jittered", 0),
        ("remote_access_contended4_jittered", 1),
    ] {
        let (mut jsys, jpid, jagents, jbuf) = contended_jittered(issuer);
        let mut jt = 0u64;
        c.bench_function(name, |b| {
            b.iter(|| {
                jt += 24;
                jsys.access(
                    jpid,
                    jagents[(jt / 24 % 4) as usize],
                    jbuf.offset((jt % 8192) * 128 % (1 << 20)),
                    jt,
                    None,
                )
                .unwrap()
            })
        });
    }

    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
    let pid = sys.create_process(GpuId::new(0));
    let agent = sys.default_agent(pid);
    let buf = sys.malloc_on(pid, GpuId::new(0), 1 << 20).unwrap();
    let mut t = 0u64;
    c.bench_function("local_l2_access", |b| {
        b.iter(|| {
            t += 300;
            sys.access(
                pid,
                agent,
                buf.offset((t % 8192) * 128 % (1 << 20)),
                t,
                None,
            )
            .unwrap()
        })
    });

    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let rbuf = sys.malloc_on(spy, GpuId::new(0), 1 << 20).unwrap();
    let sagent = sys.default_agent(spy);
    c.bench_function("remote_nvlink_access", |b| {
        b.iter(|| {
            t += 700;
            sys.access(
                spy,
                sagent,
                rbuf.offset((t % 8192) * 128 % (1 << 20)),
                t,
                None,
            )
            .unwrap()
        })
    });

    let vas: Vec<_> = (0..16u64).map(|i| rbuf.offset(i * 128)).collect();
    c.bench_function("warp_batch_probe_16", |b| {
        b.iter(|| {
            t += 1000;
            sys.access_batch(spy, sagent, &vas, t).unwrap()
        })
    });

    // The true batched path: caller-owned latency buffer, page translated
    // once, no per-access allocation.
    let mut lat_buf: Vec<u32> = Vec::with_capacity(16);
    c.bench_function("warp_batch_into_16", |b| {
        b.iter(|| {
            t += 1000;
            lat_buf.clear();
            sys.access_batch_into(spy, sagent, &vas, t, &mut lat_buf)
                .unwrap()
        })
    });

    // Baseline: the same 16 lines as scalar accesses (what the batch API
    // replaces).
    c.bench_function("warp_loop_scalar_16", |b| {
        b.iter(|| {
            t += 1000;
            let mut hits = 0u32;
            for (i, &va) in vas.iter().enumerate() {
                let acc = sys.access(spy, sagent, va, t + 24 * i as u64, None).unwrap();
                hits += u32::from(acc.oracle.hit);
            }
            hits
        })
    });
}

/// One bounded trial: boot a small machine, hammer a buffer, return a
/// fingerprint of the simulation state.
fn fanout_trial(seed: u64) -> u64 {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().with_seed(seed));
    let pid = sys.create_process(GpuId::new(0));
    let agent = sys.default_agent(pid);
    let buf = sys.malloc_on(pid, GpuId::new(0), 256 * 1024).unwrap();
    let mut acc = 0u64;
    for i in 0..4096u64 {
        let a = sys
            .access(pid, agent, buf.offset((i * 128) % (256 * 1024)), i * 300, None)
            .unwrap();
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(a.latency));
    }
    acc
}

fn bench_trial_fanout(c: &mut Criterion) {
    // Sanity: parallel and serial fan-out must agree bit-for-bit.
    let par = TrialRunner::new(7).run(8, |t| fanout_trial(t.seed));
    let ser = TrialRunner::serial(7).run(8, |t| fanout_trial(t.seed));
    assert_eq!(par, ser, "parallel fan-out must be bit-identical");

    c.bench_function("trial_fanout_serial_8", |b| {
        b.iter(|| TrialRunner::serial(7).run(8, |t| fanout_trial(t.seed)))
    });
    c.bench_function("trial_fanout_parallel_8", |b| {
        b.iter(|| TrialRunner::new(7).run(8, |t| fanout_trial(t.seed)))
    });
}

/// Faithful reconstruction of the **PR 1 engine layer** — the baseline
/// rung for the PR 2 engine benches, kept alive here the same way
/// [`SeedAccessPath`] preserves the seed's access path:
///
/// - `Op::LoadBatch` carries an owned `Vec<VirtAddr>` which agents build
///   by cloning their line list per probe;
/// - every `Load`/`Store` result allocates `vec![latency]`, every batch
///   goes through the allocating [`MultiGpuSystem::access_batch`] wrapper
///   and moves the latency `Vec` into an owned `OpResult`;
/// - the next agent is found with an O(n) filtered min-scan per step.
///
/// The e2e rung additionally configures the live system with
/// `set_tlb_entries(1)`, PR 1's one-entry per-process TLB (observable
/// results are TLB-size-invariant, so the reconstruction stays
/// bit-identical to the current engine — asserted before timing).
mod pr1 {
    use super::*;

    pub enum Pr1Op {
        Load(VirtAddr),
        LoadBatch(Vec<VirtAddr>),
        Compute(u64),
        Done,
    }

    pub struct Pr1OpResult {
        pub started_at: u64,
        pub duration: u64,
        pub latencies: Vec<u32>,
    }

    pub trait Pr1Agent {
        fn next_op(&mut self, now: u64) -> Pr1Op;
        fn on_result(&mut self, res: &Pr1OpResult);
        fn process(&self) -> ProcessId;
    }

    pub struct Pr1Engine<'a> {
        sys: &'a mut MultiGpuSystem,
        slots: Vec<(Box<dyn Pr1Agent>, gpubox_sim::AgentId, u64, bool)>,
    }

    impl<'a> Pr1Engine<'a> {
        pub fn new(sys: &'a mut MultiGpuSystem) -> Self {
            sys.reset_timing_state();
            Pr1Engine {
                sys,
                slots: Vec::new(),
            }
        }

        pub fn add_agent(&mut self, agent: Box<dyn Pr1Agent>, start: u64) {
            let id = self.sys.new_agent();
            self.slots.push((agent, id, start, false));
        }

        pub fn run(&mut self, deadline: u64) -> u64 {
            loop {
                // PR 1's scheduler: filtered O(n) min-scan every step.
                let next = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.3)
                    .min_by_key(|(_, s)| s.2)
                    .map(|(i, _)| i);
                let Some(i) = next else { break };
                if self.slots[i].2 >= deadline {
                    break;
                }
                let now = self.slots[i].2;
                let op = self.slots[i].0.next_op(now);
                match op {
                    Pr1Op::Done => self.slots[i].3 = true,
                    Pr1Op::Compute(c) => {
                        let res = Pr1OpResult {
                            started_at: now,
                            duration: c,
                            latencies: Vec::new(),
                        };
                        self.slots[i].2 += c;
                        self.slots[i].0.on_result(&res);
                    }
                    Pr1Op::Load(va) => {
                        let pid = self.slots[i].0.process();
                        let acc = self.sys.access(pid, self.slots[i].1, va, now, None).unwrap();
                        let res = Pr1OpResult {
                            started_at: now,
                            duration: u64::from(acc.latency),
                            latencies: vec![acc.latency],
                        };
                        self.slots[i].2 += u64::from(acc.latency);
                        self.slots[i].0.on_result(&res);
                    }
                    Pr1Op::LoadBatch(vas) => {
                        let pid = self.slots[i].0.process();
                        let b = self
                            .sys
                            .access_batch(pid, self.slots[i].1, &vas, now)
                            .unwrap();
                        let res = Pr1OpResult {
                            started_at: now,
                            duration: b.duration,
                            latencies: b.latencies,
                        };
                        self.slots[i].2 += b.duration;
                        self.slots[i].0.on_result(&res);
                    }
                }
            }
            self.slots.iter().map(|s| s.2).max().unwrap_or(0)
        }
    }

    /// PR 1 trojan: clones its eviction-set line list for every prime.
    pub struct Pr1Trojan {
        pub pid: ProcessId,
        pub lines: Vec<VirtAddr>,
        pub frame: Vec<u8>,
        pub slot_cycles: u64,
        pub start: Option<u64>,
        pub prime_estimate: u64,
        pub bit_idx: usize,
    }

    impl Pr1Agent for Pr1Trojan {
        fn next_op(&mut self, now: u64) -> Pr1Op {
            let start = *self.start.get_or_insert(now);
            if self.bit_idx >= self.frame.len() {
                return Pr1Op::Done;
            }
            let slot_end = start + (self.bit_idx as u64 + 1) * self.slot_cycles;
            if now >= slot_end {
                self.bit_idx += 1;
                return self.next_op(now);
            }
            let remaining = slot_end - now;
            if self.frame[self.bit_idx] == 1 {
                if remaining < self.prime_estimate {
                    Pr1Op::Compute(remaining)
                } else {
                    Pr1Op::LoadBatch(self.lines.clone())
                }
            } else {
                Pr1Op::Compute(remaining.min(self.prime_estimate))
            }
        }

        fn on_result(&mut self, res: &Pr1OpResult) {
            if !res.latencies.is_empty() {
                self.prime_estimate = (self.prime_estimate + res.duration) / 2;
            }
        }

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    /// PR 1 spy: clones its line list per probe, owned-latency results.
    pub struct Pr1Spy {
        pub pid: ProcessId,
        pub lines: Vec<VirtAddr>,
        pub thresholds: Thresholds,
        pub stop_after: u64,
        pub samples: std::rc::Rc<std::cell::RefCell<Vec<ProbeSample>>>,
    }

    impl Pr1Agent for Pr1Spy {
        fn next_op(&mut self, now: u64) -> Pr1Op {
            if now >= self.stop_after {
                return Pr1Op::Done;
            }
            Pr1Op::LoadBatch(self.lines.clone())
        }

        fn on_result(&mut self, res: &Pr1OpResult) {
            if res.latencies.is_empty() {
                return;
            }
            let misses = self.thresholds.count_remote_misses(&res.latencies) as u32;
            let mean = res.latencies.iter().map(|&l| u64::from(l)).sum::<u64>()
                / res.latencies.len() as u64;
            self.samples.borrow_mut().push(ProbeSample {
                at: res.started_at,
                misses,
                lines: res.latencies.len() as u32,
                mean_latency: mean as u32,
            });
        }

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    /// `covert::transmit` re-expressed over the PR 1 engine (same framing,
    /// agent logic, decode path and spy gap = 0 as the live
    /// `ChannelParams::default()`).
    pub fn transmit(
        sys: &mut MultiGpuSystem,
        trojan_pid: ProcessId,
        spy_pid: ProcessId,
        pairs: &[SetPair],
        payload: &[u8],
        params: &ChannelParams,
        thresholds: Thresholds,
    ) -> Vec<u8> {
        let k = pairs.len();
        let stripes = stripe_bits(payload, k);
        let max_frame = stripes.iter().map(Vec::len).max().unwrap_or(0) + params.preamble_bits;
        let listen = (max_frame as u64 + 4) * params.slot_cycles;
        let mut eng = Pr1Engine::new(sys);
        let mut traces = Vec::with_capacity(k);
        for (i, pair) in pairs.iter().enumerate() {
            let frame = params.frame(&stripes[i]);
            let trojan = Pr1Trojan {
                pid: trojan_pid,
                lines: pair.trojan.lines().to_vec(),
                frame,
                slot_cycles: params.slot_cycles,
                start: None,
                prime_estimate: 700,
                bit_idx: 0,
            };
            let samples = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let spy = Pr1Spy {
                pid: spy_pid,
                lines: pair.spy.lines().to_vec(),
                thresholds,
                stop_after: listen,
                samples: std::rc::Rc::clone(&samples),
            };
            traces.push(samples);
            eng.add_agent(Box::new(spy), 0);
            eng.add_agent(Box::new(trojan), params.slot_cycles / 2 + 37 * i as u64);
        }
        eng.run(listen + 16 * params.slot_cycles);
        let decoded: Vec<Vec<u8>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| decode_trace(&t.borrow(), params, stripes[i].len()).payload)
            .collect();
        unstripe_bits(&decoded, payload.len())
    }
}

/// Builds the covert-channel fixture (trojan GPU0, spy GPU1, aligned set
/// pairs) on a small noiseless box — the same preparation as the
/// `gpubox_attacks::covert` unit tests, reproducible per seed.
fn channel_fixture(seed: u64) -> (MultiGpuSystem, ProcessId, ProcessId, Vec<SetPair>) {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().with_seed(seed).noiseless());
    let thr = Thresholds::paper_defaults();
    let trojan = sys.create_process(GpuId::new(0));
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let bytes = 96 * 4096u64;
    let tclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, trojan, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Local, &ScanConfig::classify_default()).unwrap()
    };
    let sclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Remote, &ScanConfig::classify_default()).unwrap()
    };
    let matches = align_classes(
        &mut sys,
        trojan,
        &tclasses,
        spy,
        &sclasses,
        16,
        &AlignmentConfig::default(),
    )
    .unwrap();
    let pairs = paired_sets(&tclasses, &sclasses, &matches, 4, 16)
        .into_iter()
        .map(|(t, s)| SetPair { trojan: t, spy: s })
        .collect();
    (sys, trojan, spy, pairs)
}

/// End-to-end `covert::transmit` on the zero-alloc engine vs. the
/// reconstructed PR 1 rung (allocating engine + one-entry TLB).
fn bench_covert_e2e(c: &mut Criterion) {
    let payload = gpubox_attacks::covert::bits_from_bytes(b"PR2 rung");
    let params = ChannelParams::default();
    let thr = Thresholds::paper_defaults();

    // Sanity before timing: both rungs must decode identical bits from
    // identically seeded fixtures — the rungs differ in host cost only.
    {
        let (mut sys_new, t, s, pairs) = channel_fixture(1234);
        let new_rx =
            gpubox_attacks::transmit(&mut sys_new, t, s, &pairs, &payload, &params, thr)
                .unwrap()
                .received;
        let (mut sys_old, t, s, pairs) = channel_fixture(1234);
        sys_old.set_tlb_entries(1);
        let old_rx = pr1::transmit(&mut sys_old, t, s, &pairs, &payload, &params, thr);
        assert_eq!(
            new_rx, old_rx,
            "PR 1 reconstruction must be bit-identical to the live engine"
        );
    }

    let (mut sys, trojan, spy, pairs) = channel_fixture(77);
    c.bench_function("covert_transmit_e2e", |b| {
        b.iter(|| {
            gpubox_attacks::transmit(&mut sys, trojan, spy, &pairs, &payload, &params, thr)
                .unwrap()
                .bit_errors
        })
    });

    let (mut sys, trojan, spy, pairs) = channel_fixture(77);
    sys.set_tlb_entries(1);
    c.bench_function("covert_transmit_pr1_rung", |b| {
        b.iter(|| pr1::transmit(&mut sys, trojan, spy, &pairs, &payload, &params, thr).len())
    });
}

/// Telemetry rung: full tracing on the end-to-end covert channel.
///
/// Two gates run before timing (they hold in CI's `--test` smoke mode):
///
/// - **bit-invisibility** — the traced transmission decodes the exact
///   bit stream of the untraced one on an identically seeded fixture
///   (hooks consume no RNG and add no cycles);
/// - **overhead budget** — min-of-N wall clock of the traced run stays
///   within the overhead budget of the untraced run
///   (`covert_transmit_e2e`'s workload),
///   the telemetry module's stated budget.
///
/// The `covert_transmit_e2e_traced` criterion bench then tracks the
/// traced cost in the trend next to its untraced sibling above.
fn bench_trace_overhead(c: &mut Criterion) {
    let payload = gpubox_attacks::covert::bits_from_bytes(b"PR2 rung");
    let params = ChannelParams::default();
    let thr = Thresholds::paper_defaults();

    // Bit-invisibility gate.
    let run = |tracing: bool| {
        let (mut sys, t, s, pairs) = channel_fixture(1234);
        if tracing {
            sys.enable_tracing(1 << 16);
        }
        gpubox_attacks::transmit(&mut sys, t, s, &pairs, &payload, &params, thr)
            .unwrap()
            .received
    };
    assert_eq!(
        run(false),
        run(true),
        "tracing must be bit-invisible to the covert channel"
    );

    // Overhead gate: interleaved min-of-N so machine noise hits both
    // sides alike. The ring wraps (capacity 64Ki) — the record path
    // costs the same wrapped or not, which is what's being measured.
    let (mut sys_off, t_off, s_off, pairs_off) = channel_fixture(77);
    let (mut sys_on, t_on, s_on, pairs_on) = channel_fixture(77);
    sys_on.enable_tracing(1 << 16);
    let mut best_off = u128::MAX;
    let mut best_on = u128::MAX;
    for _ in 0..7 {
        let t0 = std::time::Instant::now();
        black_box(
            gpubox_attacks::transmit(&mut sys_off, t_off, s_off, &pairs_off, &payload, &params, thr)
                .unwrap()
                .bit_errors,
        );
        best_off = best_off.min(t0.elapsed().as_nanos());
        let t0 = std::time::Instant::now();
        black_box(
            gpubox_attacks::transmit(&mut sys_on, t_on, s_on, &pairs_on, &payload, &params, thr)
                .unwrap()
                .bit_errors,
        );
        best_on = best_on.min(t0.elapsed().as_nanos());
    }
    let ratio = best_on as f64 / best_off as f64;
    // Guardrail, not a precision measurement: the true overhead sits
    // around 1.10–1.15x, but on 1-CPU/shared runners the interleaved
    // min-of-7 still jitters by ~0.1x with binary layout and allocator
    // state (observed 0.98–1.23x across reruns of identical code), so
    // the assert budget leaves headroom and the criterion trend below
    // is the number to watch.
    println!("trace overhead on covert_transmit_e2e: {ratio:.3}x (budget 1.25x)");
    assert!(
        ratio <= 1.25,
        "full tracing costs {ratio:.3}x on covert_transmit_e2e — over budget"
    );

    c.bench_function("covert_transmit_e2e_traced", |b| {
        b.iter(|| {
            gpubox_attacks::transmit(&mut sys_on, t_on, s_on, &pairs_on, &payload, &params, thr)
                .unwrap()
                .bit_errors
        })
    });
}

/// Issues `n` dependent loads over a fixed intra-page line list, then
/// finishes — for measuring pure engine-step overhead.
struct FixedLoads {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    remaining: usize,
}

impl Agent for FixedLoads {
    fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
        if self.remaining == 0 {
            return Op::Done;
        }
        self.remaining -= 1;
        Op::Load(self.lines[self.remaining % self.lines.len()])
    }
    fn on_result(&mut self, _res: &OpResult<'_>) {}
    fn process(&self) -> ProcessId {
        self.pid
    }
}

struct Pr1FixedLoads {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    remaining: usize,
}

impl pr1::Pr1Agent for Pr1FixedLoads {
    fn next_op(&mut self, _now: u64) -> pr1::Pr1Op {
        if self.remaining == 0 {
            return pr1::Pr1Op::Done;
        }
        self.remaining -= 1;
        pr1::Pr1Op::Load(self.lines[self.remaining % self.lines.len()])
    }
    fn on_result(&mut self, _res: &pr1::Pr1OpResult) {}
    fn process(&self) -> ProcessId {
        self.pid
    }
}

/// Engine-overhead microbench: the same 256 scalar loads stepped through
/// the zero-alloc engine, the PR 1 engine and issued raw (the floor).
/// All three share one system/TLB, so the deltas are engine-layer only.
fn bench_engine_overhead(c: &mut Criterion) {
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().noiseless());
    let pid = sys.create_process(GpuId::new(0));
    let buf = sys.malloc_on(pid, GpuId::new(0), 64 * 1024).unwrap();
    let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 128)).collect();

    c.bench_function("engine_steps_256_loads", |b| {
        b.iter(|| {
            let mut eng = Engine::new(&mut sys);
            eng.add_agent(
                Box::new(FixedLoads {
                    pid,
                    lines: lines.clone(),
                    remaining: 256,
                }),
                0,
            );
            eng.run(u64::MAX).unwrap()
        })
    });

    c.bench_function("pr1_engine_steps_256_loads", |b| {
        b.iter(|| {
            let mut eng = pr1::Pr1Engine::new(&mut sys);
            eng.add_agent(
                Box::new(Pr1FixedLoads {
                    pid,
                    lines: lines.clone(),
                    remaining: 256,
                }),
                0,
            );
            eng.run(u64::MAX)
        })
    });

    let agent = sys.default_agent(pid);
    let mut t = 0u64;
    c.bench_function("raw_access_256_loads", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..256u64 {
                t += 300;
                let a = sys
                    .access(pid, agent, lines[(k % 16) as usize], t, None)
                    .unwrap();
                acc += u64::from(a.latency);
            }
            acc
        })
    });
}

/// Golden fingerprint of the fabric-off access path, captured at the
/// PR 2 HEAD immediately before the fabric subsystem landed (commit
/// 1fa39bd): an FNV-1a fold over every latency and batch duration of a
/// fixed jittered probe covering local, 1-hop remote (scalar + batched,
/// two contending agents), 2-hop remote and PCIe-fallback accesses,
/// plus the GPU-stats totals of the **1-hop system only**. A
/// fabric-**off** system must still produce this exact value — the
/// fabric may only change timing when explicitly enabled.
///
/// Scope note: the 2-hop/PCIe sections deliberately fold latencies but
/// not stats, because PR 3 *intentionally* changed one fabric-off
/// statistic — `nvlink_bytes` now counts one line per traversed hop
/// (256 B for a 2-hop access where PR 2 recorded 128 B). Timing is
/// gated bit-for-bit on every route; byte accounting is gated only
/// where it was unchanged (1-hop).
const PRE_FABRIC_FINGERPRINT: u64 = 0x81b7_358b_d9c3_fd1a;

/// Replays the pre-fabric probe on today's simulator (fabric off).
fn fabric_off_fingerprint() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    };

    // Jittered DGX-1: local + 1-hop remote, scalar + batch, two
    // contending agents (pressure, congestion draws, nvlink queueing).
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(99));
    let p0 = sys.create_process(GpuId::new(0));
    let p1 = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p1, GpuId::new(0)).unwrap();
    let b0 = sys.malloc_on(p0, GpuId::new(0), 1 << 20).unwrap();
    let b1 = sys.malloc_on(p1, GpuId::new(0), 1 << 20).unwrap();
    let a0 = sys.default_agent(p0);
    let a1 = sys.default_agent(p1);
    let mut lat = Vec::new();
    for i in 0..512u64 {
        let t = i * 120;
        let acc = sys
            .access(p0, a0, b0.offset((i * 128 * 7) % (1 << 20)), t, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
        let acc = sys
            .access(p1, a1, b1.offset((i * 128 * 13) % (1 << 20)), t + 60, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
        if i % 16 == 0 {
            let vas: Vec<VirtAddr> = (0..16)
                .map(|k| b1.offset(((i + k) * 128 * 5) % (1 << 20)))
                .collect();
            lat.clear();
            let s = sys.access_batch_into(p1, a1, &vas, t + 90, &mut lat).unwrap();
            mix(&mut h, s.duration);
            for &l in &lat {
                mix(&mut h, u64::from(l));
            }
        }
    }
    let tot = sys.stats().total();
    mix(&mut h, tot.l2_hits);
    mix(&mut h, tot.l2_misses);
    mix(&mut h, tot.nvlink_bytes);
    mix(&mut h, tot.congestion_episodes);

    // 2-hop NVLink route (GPU0 -> GPU5 on the DGX-1), jittered.
    let mut cfg = SystemConfig::dgx1().with_seed(7);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(0));
    sys.enable_peer_access(p, GpuId::new(5)).unwrap();
    let b = sys.malloc_on(p, GpuId::new(5), 1 << 18).unwrap();
    let a = sys.default_agent(p);
    for i in 0..256u64 {
        let acc = sys
            .access(p, a, b.offset((i * 128 * 3) % (1 << 18)), i * 400, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
    }

    // Disconnected pair: the PCIe fallback path, jittered.
    let mut cfg = SystemConfig::small_test().with_seed(3);
    cfg.topology = Topology::from_edges(2, &[]);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p, GpuId::new(0)).unwrap();
    let b = sys.malloc_on(p, GpuId::new(0), 1 << 16).unwrap();
    let a = sys.default_agent(p);
    for i in 0..256u64 {
        let acc = sys
            .access(p, a, b.offset((i * 128) % (1 << 16)), i * 500, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
    }
    h
}

/// Fabric benches: the bit-identity gate first, then the per-access cost
/// of enabling the timed link model on remote routes (vs. the PR 2
/// scalar path measured by `remote_nvlink_access` above).
fn bench_fabric(c: &mut Criterion) {
    assert_eq!(
        fabric_off_fingerprint(),
        PRE_FABRIC_FINGERPRINT,
        "fabric-off access path diverged from the pre-fabric simulator"
    );

    let mk = |fabric: FabricConfig, spy_gpu: u8, home: u8| {
        let mut cfg = SystemConfig::dgx1().noiseless().with_fabric(fabric);
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(spy_gpu));
        sys.enable_peer_access(p, GpuId::new(home)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(home), 1 << 20).unwrap();
        let a = sys.default_agent(p);
        (sys, p, a, buf)
    };

    let (mut sys, p, a, buf) = mk(FabricConfig::nvlink_v1(), 1, 0);
    let mut t = 0u64;
    c.bench_function("remote_nvlink_access_fabric_on", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });

    let (mut sys, p, a, buf) = mk(FabricConfig::nvlink_v1(), 0, 5);
    c.bench_function("remote_2hop_access_fabric_on", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });

    let (mut sys, p, a, buf) = mk(FabricConfig::disabled(), 0, 5);
    c.bench_function("remote_2hop_access_fabric_off", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });
}

fn bench_system_boot(c: &mut Criterion) {
    c.bench_function("boot_dgx1", |b| {
        b.iter_batched(
            SystemConfig::dgx1,
            MultiGpuSystem::new,
            BatchSize::SmallInput,
        )
    });
}

/// Eviction-set discovery rung: the faithful Algorithm-1 page classifier
/// vs the group-testing scan, on the small noiseless box (96 pages). The
/// `bench_discovery` binary gates the full DGX-scale numbers (simulated
/// accesses, >= 5x ratio); this rung tracks the host-side wall-clock of
/// both paths so classifier regressions show up in the criterion trend.
fn bench_discovery_scan(c: &mut Criterion) {
    let thr = Thresholds::paper_defaults();
    let scan = ScanConfig::classify_default();
    let run = |fast: bool| {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let buf = ctx.malloc_on(GpuId::new(0), 96 * 4096).unwrap();
        let f = if fast { classify_pages_fast } else { classify_pages };
        let classes = f(&mut ctx, buf, 96 * 4096, 4096, 128, 16, &thr, Locality::Local, &scan)
            .unwrap();
        (
            classes,
            ctx.system().stats().gpu(GpuId::new(0)).issued_accesses,
        )
    };

    // Sanity before timing: identical classes, strictly fewer accesses.
    let (classic, classic_accesses) = run(false);
    let (grouped, grouped_accesses) = run(true);
    assert_eq!(
        classic.classes, grouped.classes,
        "group-testing scan must classify identically to Algorithm 1"
    );
    assert!(
        grouped_accesses * 2 < classic_accesses,
        "group-testing scan lost its access advantage \
         (classic {classic_accesses}, grouped {grouped_accesses})"
    );

    c.bench_function("classify_pages_alg1_small", |b| {
        b.iter(|| black_box(run(false)).1)
    });
    c.bench_function("classify_pages_grouped_small", |b| {
        b.iter(|| black_box(run(true)).1)
    });
}

/// Fleet rung: a small fleet stepped to a short horizon, serial vs two
/// shared-nothing workers. The `bench_fleet` binary reports the
/// full-scale 1-vs-N wall-clock numbers; this rung keeps the per-node
/// stepping cost (mini-scheduler + batch issue + recycle) in the
/// criterion trend so fleet-path regressions surface like any other.
fn bench_fleet_step(c: &mut Criterion) {
    let build = |threads: usize| {
        let mut cfg = FleetConfig::new(8, 77).with_target_utilization(0.6);
        cfg.horizon = 200_000;
        cfg.epoch = 25_000;
        cfg.threads = threads;
        FleetRunner::new(cfg, Box::new(Pack))
    };
    // The two variants must decode identically before we time them.
    let serial = build(1).run();
    let parallel = build(2).run();
    assert_eq!(
        serial.exposure_line("row"),
        parallel.exposure_line("row"),
        "fleet rung: thread count changed the decoded exposure table"
    );
    c.bench_function("fleet_step_8n_serial", |b| {
        b.iter_batched(
            || build(1),
            |r| black_box(r.run().exposure.accesses),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("fleet_step_8n_2workers", |b| {
        b.iter_batched(
            || build(2),
            |r| black_box(r.run().exposure.accesses),
            BatchSize::LargeInput,
        )
    });
}

/// PR 10 rung: the streaming covert-channel monitor's overhead on a
/// windowed engine run. The monitor is pure stats-diffing outside the
/// hot path — per window it diffs ~21 channel counters and runs the
/// three detector laws — so on a busy fabric (the regime where anyone
/// would deploy it) the windowed loop with `Monitor::observe` at every
/// boundary must stay within the overhead budget of the identical
/// loop without it.
/// Asserted before either variant is timed, along with the monitor
/// being outcome-invisible (same issued-access totals).
fn bench_monitor_overhead(c: &mut Criterion) {
    use gpubox_sim::{run_windowed, Monitor, MonitorConfig, NoiseAgent, NoiseConfig};

    const HORIZON: u64 = 300_000;
    let build = || {
        let mut cfg = SystemConfig::dgx1()
            .with_seed(99)
            .with_fabric(FabricConfig::nvlink_v1());
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let mut agents: Vec<Box<dyn Agent>> = Vec::new();
        for t in 0..8usize {
            let pid = sys.create_process(GpuId::new((t % 4) as u8));
            let remote = GpuId::new((t % 4 + 4) as u8);
            sys.enable_peer_access(pid, remote).unwrap();
            let buf = sys.malloc_on(pid, remote, 64 * 1024).unwrap();
            agents.push(Box::new(NoiseAgent::new(
                pid,
                buf,
                512,
                128,
                NoiseConfig {
                    burst_len: 64,
                    idle_between_bursts: 400 + 61 * t as u64,
                    seed: 7 + t as u64,
                },
            )));
        }
        (sys, agents)
    };
    let run = |monitored: bool| {
        let (mut sys, agents) = build();
        let num_links = sys.config().topology.num_links();
        let num_gpus = sys.config().num_gpus as usize;
        let mut mon = Monitor::new(MonitorConfig::default(), num_links, num_gpus);
        let mut eng = Engine::new(&mut sys);
        for (i, a) in agents.into_iter().enumerate() {
            eng.add_agent(a, 53 * i as u64);
        }
        if monitored {
            mon.prime(eng.system().stats());
            run_windowed(&mut eng, &mut mon, HORIZON).unwrap();
        } else {
            let w = mon.config().window_cycles;
            let mut next = w;
            while next < HORIZON {
                eng.run(next).unwrap();
                next += w;
            }
            eng.run(HORIZON).unwrap();
        }
        drop(eng);
        (sys.stats().total().issued_accesses, mon.alarmed())
    };
    let (base_accesses, _) = run(false);
    let (mon_accesses, alarmed) = run(true);
    assert_eq!(
        base_accesses, mon_accesses,
        "monitor rung: observing the stats changed the simulation"
    );
    assert!(!alarmed, "monitor rung: benign fixture must not alarm");

    // Interleaved min-of-N so machine noise hits both variants alike.
    let mut best_off = u128::MAX;
    let mut best_on = u128::MAX;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        black_box(run(false));
        best_off = best_off.min(t0.elapsed().as_nanos());
        let t0 = std::time::Instant::now();
        black_box(run(true));
        best_on = best_on.min(t0.elapsed().as_nanos());
    }
    let ratio = best_on as f64 / best_off as f64;
    // Guardrail with the same headroom rationale as the trace gate
    // above: the true overhead measures ~1.05–1.10x, but the min-of-5
    // jitters ~0.1x on 1-CPU/shared runners.
    println!("monitor overhead on windowed engine run: {ratio:.3}x (budget 1.25x)");
    assert!(
        ratio <= 1.25,
        "streaming monitor costs {ratio:.3}x on the windowed run — over budget"
    );

    c.bench_function("monitor_windowed_300k", |b| b.iter(|| black_box(run(true))));
}

criterion_group!(
    benches,
    bench_cache_layer,
    bench_access_path,
    bench_trial_fanout,
    bench_engine_overhead,
    bench_covert_e2e,
    bench_trace_overhead,
    bench_discovery_scan,
    bench_fabric,
    bench_system_boot,
    bench_fleet_step,
    bench_monitor_overhead
);
criterion_main!(benches);
