//! A fixed host-speed probe.
//!
//! On a shared virtual machine the same compile can take 30% longer one
//! minute than the next, because neighbours contend for the host's cores
//! and caches. The probe is a fixed piece of work — allocation, ordered
//! and hashed maps, string formatting and sorting, the mix a compiler
//! spends its time on — that lives in the benchmark, so no change to the
//! compiler can speed it up. Runs interleave it with the requests (outside
//! their timing) and divide each request's time by the probe's time around
//! it: a drift in host speed moves both, a change to `specc` moves only the
//! request.

use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds between probes.
const EVERY_S: f64 = 0.3;

/// A request is divided by the median of the probes within this many
/// seconds of its start.
const WINDOW_S: f64 = 0.5;

/// The probe's time on the reference host (a 2-vCPU Xeon VM at 2.1 GHz
/// in a quiet phase). `setup_s` is scaled to a host this fast, so it reads
/// in seconds but drifts with the host no more than the relative timings.
pub const NOMINAL_PROBE_MS: f64 = 25.0;

/// Runs the probe once and returns its wall time in milliseconds.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ordered = BTreeMap::new();
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..40_000u64 {
        let k = next() % 1_000_000;
        ordered.insert(k, i);
        buckets.entry(k % 2000).or_default().push(i);
    }
    let mut sum = 0u64;
    for _ in 0..40_000 {
        let k = next() % 1_000_000;
        if let Some((_, v)) = ordered.range(k..).next() {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut lines: Vec<String> = (0..20_000)
        .map(|_| format!("t{} = add n, {}", next() % 97, next() % 1000))
        .collect();
    lines.sort();
    black_box((sum, lines, buckets));
    // many small vectors growing in a hash map, as the compiler's
    // per-function tables do; this part made the probe track mega-module
    // compiles more closely
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..60_000u64 {
        groups
            .entry(next() % 50_000)
            .or_default()
            .extend([i, i + 1, i + 2]);
    }
    let mut hit = 0u64;
    for _ in 0..60_000 {
        if let Some(v) = groups.get(&(next() % 50_000)) {
            hit = hit.wrapping_add(v[0]);
        }
    }
    black_box((hit, groups));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The probes of one run, with the time each was taken.
pub struct Prober {
    epoch: Instant,
    last: Option<Instant>,
    /// `(seconds since epoch, probe ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for Prober {
    fn default() -> Self {
        Prober {
            epoch: Instant::now(),
            last: None,
            samples: Vec::new(),
        }
    }
}

impl Prober {
    /// Seconds since the prober was created: the clock request start
    /// times are recorded on.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Probes if one is due: before the first request, then every
    /// [`EVERY_S`], which costs under a tenth of the run.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.probe();
        }
    }

    /// Probes now, records the sample and returns its time in ms.
    pub fn probe(&mut self) -> f64 {
        let at = self.now();
        let ms = probe_ms();
        self.samples.push((at, ms));
        self.last = Some(Instant::now());
        ms
    }

    /// Every probe as `(seconds since the prober was created, ms)`.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Median of all probes, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median of the probes within [`WINDOW_S`] of time `t`, or the
    /// nearest probe when none is that close.
    pub fn around(&self, t: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| (s.0 - t).abs() <= WINDOW_S)
            .map(|s| s.1)
            .collect();
        if !near.is_empty() {
            return median(&near);
        }
        self.samples
            .iter()
            .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
            .map_or(0.0, |s| s.1)
    }
}
