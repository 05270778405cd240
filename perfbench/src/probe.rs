//! Instrumentation that sits outside the program: host timers, the
//! closed job loop, delegating shims around the medium and agent
//! traits, stats diffs, trace tallies and direct batch timing.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use crate::reference::{self, Reference};
use crate::Outcome;

use gpubox_attacks::covert::SpyTrace;
use gpubox_attacks::{ChannelMedium, ChannelParams, Decoder};
use gpubox_sim::{
    Agent, Engine, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessId, SimResult, TraceKind,
    VirtAddr,
};

/// Median of `xs` (the mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// How a closed loop ended.
#[derive(Debug, Clone, Copy)]
pub struct LoopEnd {
    /// Jobs run.
    pub jobs: usize,
    /// Peak resident set (MB) once the fixed digest jobs had finished:
    /// memory that grows per job would otherwise depend on host speed.
    pub digest_peak_rss_mb: f64,
}

/// Runs `job(j)` for `j = 0, 1, ...` until both `min_jobs` jobs ran and
/// `seconds` host seconds passed since the loop started.
pub fn closed_loop(min_jobs: usize, seconds: f64, mut job: impl FnMut(usize)) -> LoopEnd {
    let t0 = Instant::now();
    let mut end = LoopEnd {
        jobs: 0,
        digest_peak_rss_mb: 0.0,
    };
    while end.jobs < min_jobs || t0.elapsed().as_secs_f64() < seconds {
        job(end.jobs);
        end.jobs += 1;
        if end.jobs == min_jobs {
            end.digest_peak_rss_mb = peak_rss_mb();
        }
    }
    end
}

/// Host rates of the untraced jobs of a closed loop in which every job
/// repeats the same simulated work, split into the same segments.
///
/// On a shared host bursts of other tenants' load slow a job by up to
/// 1.8x, so a job's host time says as much about the neighbours as
/// about the program. Each segment's first-quartile time over the
/// run's jobs — the time a quarter of them beat — leaves most
/// bursts out; the job's time is their sum. The host's speed between
/// bursts drifts too, so the reference computation is timed between
/// jobs and taken the same way, and the rates are scaled to the speed
/// at which it takes `reference::NOMINAL_S`.
#[derive(Default)]
pub struct JobRates {
    /// Host times of each segment, one per job.
    segments: Vec<Vec<f64>>,
    /// Per-job host times, for the printed quartiles.
    job_s: Vec<f64>,
    ops: u64,
    accesses: u64,
    reference: Reference,
    /// Host times of each part of the reference, one per pass.
    reference_parts: Vec<Vec<f64>>,
}

/// Appends one sample to each column.
fn push_columns(columns: &mut Vec<Vec<f64>>, xs: &[f64]) {
    if columns.is_empty() {
        columns.resize(xs.len(), Vec::new());
    }
    assert_eq!(
        columns.len(),
        xs.len(),
        "every job must split into the same segments"
    );
    for (c, &x) in columns.iter_mut().zip(xs) {
        c.push(x);
    }
}

/// The sum of the columns' first quartiles.
fn quartile_sum(columns: &[Vec<f64>]) -> f64 {
    columns.iter().map(|c| percentile(c, 0.25)).sum()
}

impl JobRates {
    /// Records one job: its segments' host times in order, its workload
    /// ops and its simulated L2 lookups.
    ///
    /// # Panics
    ///
    /// Panics if the job has another number of segments than the first.
    pub fn push(&mut self, segments: &[f64], ops: u64, accesses: u64) {
        push_columns(&mut self.segments, segments);
        self.job_s.push(segments.iter().sum());
        self.ops += ops;
        self.accesses += accesses;
    }

    /// Times `passes` passes of the reference computation.
    pub fn time_reference(&mut self, passes: usize) {
        for _ in 0..passes {
            let parts = self.reference.pass();
            push_columns(&mut self.reference_parts, &parts);
        }
    }

    /// Sets `ops_per_s` and `sim_accesses_per_s`: a job's mean ops and
    /// lookups over its first-quartile time, scaled to the nominal host
    /// speed. Prints the unscaled rates and the per-job rates' median,
    /// as measured, beside them. Sets `setup_s` to the median of
    /// `setup_s`, scaled to the nominal host speed the same way.
    pub fn report(&self, out: &mut Outcome, setup_s: &[f64]) {
        let jobs = self.job_s.len().max(1) as f64;
        let job_q1_s = quartile_sum(&self.segments);
        let reference_s = quartile_sum(&self.reference_parts);
        let slowdown = ratio(reference_s, reference::NOMINAL_S);
        println!(
            "jobs: {}, {} segments each; job {job_q1_s} s from segment first quartiles; \
             measured job q1 {} median {} q3 {} s; reference pass {reference_s} s from \
             first quartiles ({} passes, host {slowdown}x slower than nominal)",
            self.job_s.len(),
            self.segments.len(),
            percentile(&self.job_s, 0.25),
            median(&self.job_s),
            percentile(&self.job_s, 0.75),
            self.reference_parts.first().map_or(0, Vec::len),
        );
        for (name, count) in [
            ("ops_per_s", self.ops),
            ("sim_accesses_per_s", self.accesses),
        ] {
            let per_job = count as f64 / jobs;
            let unscaled = ratio(per_job, job_q1_s);
            println!(
                "{name}: {} at nominal host speed; {unscaled} unscaled; per-job median {}",
                unscaled * slowdown,
                ratio(per_job, median(&self.job_s))
            );
            out.set(name, unscaled * slowdown);
        }
        println!(
            "setup_s: {} set-ups, median {} s as measured",
            setup_s.len(),
            median(setup_s)
        );
        out.set("setup_s", ratio(median(setup_s), slowdown));
    }
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words, the fold every digest here uses.
pub fn fnv1a_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = h;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Per-kind counts of the records a traced job left in the sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceTally {
    /// `EngineOp` records.
    pub engine_ops: u64,
    /// `L2Evict` records.
    pub evicts: u64,
    /// All records.
    pub records: u64,
    /// Records lost to ring wrap-around (must stay 0).
    pub dropped: u64,
}

impl TraceTally {
    /// Tallies the sink of `sys`, then empties it for the next job.
    pub fn drain(sys: &mut MultiGpuSystem) -> Self {
        let sink = sys.trace();
        let mut t = TraceTally {
            dropped: sink.dropped(),
            ..TraceTally::default()
        };
        for r in sink.records() {
            t.records += 1;
            match r.kind {
                TraceKind::EngineOp => t.engine_ops += 1,
                TraceKind::L2Evict => t.evicts += 1,
                _ => {}
            }
        }
        sys.trace_mut().clear();
        t
    }

    /// Adds another tally.
    pub fn add(&mut self, o: TraceTally) {
        self.engine_ops += o.engine_ops;
        self.evicts += o.evicts;
        self.records += o.records;
        self.dropped += o.dropped;
    }
}

/// A `ChannelMedium` that forwards every call to `inner` and times
/// `prepare` (the medium's warm-up).
pub struct TimedMedium<'m> {
    inner: &'m dyn ChannelMedium,
    /// Host seconds spent in `prepare`.
    pub prepare_s: Cell<f64>,
}

impl<'m> TimedMedium<'m> {
    /// Wraps `inner`.
    pub fn new(inner: &'m dyn ChannelMedium) -> Self {
        TimedMedium {
            inner,
            prepare_s: Cell::new(0.0),
        }
    }
}

impl ChannelMedium for TimedMedium<'_> {
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn prepare(&self, sys: &mut MultiGpuSystem) -> SimResult<()> {
        let (r, s) = timed(|| self.inner.prepare(sys));
        self.prepare_s.set(self.prepare_s.get() + s);
        r
    }

    fn install_lane(
        &self,
        eng: &mut Engine<'_>,
        lane: usize,
        frame: &[u8],
        params: &ChannelParams,
        listen: u64,
    ) -> SpyTrace {
        self.inner.install_lane(eng, lane, frame, params, listen)
    }

    fn install_lane_deferred(
        &self,
        eng: &mut Engine<'_>,
        lane: usize,
        frame: &[u8],
        params: &ChannelParams,
        listen: u64,
        defer: u64,
    ) -> SpyTrace {
        self.inner
            .install_lane_deferred(eng, lane, frame, params, listen, defer)
    }

    fn default_decoder(&self) -> Decoder {
        self.inner.default_decoder()
    }
}

/// An `Agent` that forwards every call to `inner` unchanged and adds the
/// host time spent inside it to a shared counter.
pub struct TimedAgent<A> {
    inner: A,
    spent_s: Rc<Cell<f64>>,
}

impl<A: Agent> TimedAgent<A> {
    /// Wraps `inner`; its host time accumulates into `spent_s`.
    pub fn new(inner: A, spent_s: Rc<Cell<f64>>) -> Self {
        TimedAgent { inner, spent_s }
    }
}

impl<A: Agent> Agent for TimedAgent<A> {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        let (op, s) = timed(|| self.inner.next_op(now, stage));
        self.spent_s.set(self.spent_s.get() + s);
        op
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        let ((), s) = timed(|| self.inner.on_result(res));
        self.spent_s.set(self.spent_s.get() + s);
    }

    fn process(&self) -> ProcessId {
        self.inner.process()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// An `Agent` that forwards every call to `inner` unchanged and reads
/// the host clock after every `every`-th op it hands out, so that a
/// call which runs the agent can be split into segments of equal agent
/// work.
pub struct ClockedAgent<A> {
    inner: A,
    every: usize,
    ops: usize,
    stamps: Rc<RefCell<Vec<Instant>>>,
}

impl<A: Agent> ClockedAgent<A> {
    /// Wraps `inner`; the clock readings are appended to `stamps`.
    pub fn new(inner: A, every: usize, stamps: Rc<RefCell<Vec<Instant>>>) -> Self {
        ClockedAgent {
            inner,
            every: every.max(1),
            ops: 0,
            stamps,
        }
    }
}

impl<A: Agent> Agent for ClockedAgent<A> {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        let op = self.inner.next_op(now, stage);
        self.ops += 1;
        if self.ops.is_multiple_of(self.every) {
            self.stamps.borrow_mut().push(Instant::now());
        }
        op
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        self.inner.on_result(res);
    }

    fn process(&self) -> ProcessId {
        self.inner.process()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// Host nanoseconds per line of `MultiGpuSystem::access_batch_into`,
/// issued as `pid`: the median over `blocks` blocks, each issuing every
/// batch of `batches` `reps` times. Each batch starts where the previous
/// one finished on the simulated clock, as an agent's batches do.
///
/// # Errors
///
/// Propagates the simulator's access errors.
pub fn batch_ns_per_line(
    sys: &mut MultiGpuSystem,
    pid: ProcessId,
    batches: &[&[VirtAddr]],
    blocks: usize,
    reps: usize,
) -> SimResult<f64> {
    let agent = sys.default_agent(pid);
    let lines_per_block: usize = reps * batches.iter().map(|b| b.len()).sum::<usize>();
    let mut lats = Vec::new();
    let mut now = 0u64;
    let mut per_block = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let t0 = Instant::now();
        for _ in 0..reps {
            for lines in batches {
                lats.clear();
                let s =
                    sys.access_batch_into(pid, agent, std::hint::black_box(lines), now, &mut lats)?;
                now += s.duration.max(1);
            }
        }
        per_block.push(t0.elapsed().as_secs_f64() * 1e9 / lines_per_block.max(1) as f64);
    }
    Ok(median(&per_block))
}

/// Simulated accesses the offline page classification issues on a
/// fresh system booted from `cfg`, counted the way `bench_discovery`
/// counts them: thresholds come from the timing reverse engineering
/// between `timing_gpus`, stats are reset, then each `(process GPU,
/// locality)` role classifies its own `ATTACK_BUFFER_BYTES` buffer on
/// `target`. The offline phase itself cannot be counted in place,
/// because it ends in `canonicalize_phase`, which resets the stats.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn discovery_accesses(
    cfg: gpubox_sim::SystemConfig,
    timing_gpus: (gpubox_sim::GpuId, gpubox_sim::GpuId),
    target: gpubox_sim::GpuId,
    roles: &[(gpubox_sim::GpuId, gpubox_attacks::Locality)],
) -> SimResult<u64> {
    use gpubox_attacks::{classify_pages_fast, measure_timing, ScanConfig};
    use gpubox_bench::ATTACK_BUFFER_BYTES;
    let mut sys = MultiGpuSystem::new(cfg);
    let thr = measure_timing(&mut sys, timing_gpus.0, timing_gpus.1, 48)?.thresholds;
    let page = sys.config().page_size;
    let line = sys.config().cache.line_size;
    let ways = sys.config().cache.ways as usize;
    let mut bufs = Vec::with_capacity(roles.len());
    for &(gpu, _) in roles {
        let pid = sys.create_process(gpu);
        if gpu != target {
            sys.enable_peer_access(pid, target)?;
        }
        bufs.push((pid, sys.malloc_on(pid, target, ATTACK_BUFFER_BYTES)?));
    }
    sys.reset_stats();
    for (&(pid, buf), &(_, loc)) in bufs.iter().zip(roles) {
        let mut ctx = gpubox_sim::ProcessCtx::new(&mut sys, pid, 0);
        classify_pages_fast(
            &mut ctx,
            buf,
            ATTACK_BUFFER_BYTES,
            page,
            line,
            ways,
            &thr,
            loc,
            &ScanConfig::classify_default(),
        )?;
    }
    Ok(sys.stats().total().issued_accesses)
}
