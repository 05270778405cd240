//! A fixed reference computation that measures the host's speed.
//!
//! The host the benchmark runs on is shared: its speed drifts by 20%
//! and more over minutes, and every computation follows the drift, the
//! simulator as much as a plain sort. The reference is timed between
//! the jobs of a run, taken the same way as the jobs, and the rates a
//! run reports are scaled to the speed at which it takes [`NOMINAL_S`].
//! It is not program code, so a change to the program cannot move it.
//! Its state is kept small (under 2 MB), so that it does not evict the
//! simulator's state from the host's caches between jobs.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// First-quartile time of one reference pass on the host the benchmark
/// was written on (2 vCPUs of an Intel Xeon, 4th generation, under KVM).
pub const NOMINAL_S: f64 = 0.0025;

/// Keys sorted and counted per pass.
const KEYS: usize = 25_000;
/// Hash-map draws and cache lookups per pass.
const DRAWS: u32 = 50_000;
/// Sets and ways of the cache model.
const SETS: usize = 4096;
const WAYS: usize = 16;

/// The reference: three parts in the simulator's style of work, each
/// timed on its own.
pub struct Reference {
    keys: Vec<u64>,
    sort_buf: Vec<u64>,
    counts: HashMap<u64, u64>,
    tags: Vec<u64>,
    ages: Vec<u32>,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Default for Reference {
    /// Allocates the reference's state once.
    fn default() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        Reference {
            keys: (0..KEYS).map(|_| xorshift(&mut s)).collect(),
            sort_buf: Vec::with_capacity(KEYS),
            counts: HashMap::with_capacity(2 * KEYS),
            tags: vec![u64::MAX; SETS * WAYS],
            ages: vec![0; SETS * WAYS],
        }
    }
}

impl Reference {
    /// Runs one pass and returns each part's host seconds: sorting
    /// `KEYS` keys, counting `DRAWS` draws from `KEYS` keys in a hash
    /// map, and `DRAWS` lookups in an empty 16-way LRU cache model over
    /// 2^17 lines.
    pub fn pass(&mut self) -> [f64; 3] {
        let t = Instant::now();
        self.sort_buf.clear();
        self.sort_buf.extend_from_slice(&self.keys);
        self.sort_buf.sort_unstable();
        black_box(&self.sort_buf);
        let sort_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.counts.clear();
        let mut s = 7;
        for _ in 0..DRAWS {
            *self
                .counts
                .entry(xorshift(&mut s) % KEYS as u64)
                .or_insert(0) += 1;
        }
        black_box(&self.counts);
        let map_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.tags.fill(u64::MAX);
        self.ages.fill(0);
        let mut s = 11;
        let mut hits = 0u64;
        for clock in 1..=DRAWS {
            let line = xorshift(&mut s) % (1 << 17);
            let base = (line as usize % SETS) * WAYS;
            let ways = base..base + WAYS;
            if let Some(w) = self.tags[ways.clone()].iter().position(|&t| t == line) {
                self.ages[base + w] = clock;
                hits += 1;
            } else {
                let (w, _) = self.ages[ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, a)| *a)
                    .expect("a set has ways");
                self.tags[base + w] = line;
                self.ages[base + w] = clock;
            }
        }
        black_box(hits);
        let cache_s = t.elapsed().as_secs_f64();
        [sort_s, map_s, cache_s]
    }
}
