//! Small shared helpers: the benchmark's own seeded generator,
//! order statistics, the determinism digest, and process memory.

use std::time::Instant;

/// SplitMix64: the benchmark's workload generator. Kept separate from
/// the workspace's `rand` so the generated workloads do not move when
/// the program under test changes how it draws its own numbers.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// A generator for one named sub-stream of `seed`, so adding draws
    /// to one workload never shifts another's inputs.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = Fnv::new();
        h.bytes(name.as_bytes());
        SeedRng::new(seed ^ h.finish().rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `base` scaled by a uniform factor in `[1 - spread, 1 + spread]`,
/// rounded to a multiple of `step`.
pub fn jitter(rng: &mut SeedRng, base: u64, spread: f64, step: u64) -> u64 {
    let v = base as f64 * (1.0 + spread * rng.signed());
    ((v / step as f64).round() as u64).max(1) * step
}

/// Stratified size `k` of `n` in `[lo, hi]`: a draw near the middle of
/// the `k`-th of `n` equal strata (within a fifth of its width), rounded
/// to a multiple of `step`. A seed moves each size only inside its
/// stratum, so the spread of sizes in a run is the same on every seed.
pub fn stratified(rng: &mut SeedRng, k: usize, n: usize, lo: u64, hi: u64, step: u64) -> u64 {
    let t = (k as f64 + 0.5 + 0.2 * rng.signed()) / n as f64;
    let v = lo as f64 + t * (hi - lo) as f64;
    ((v / step as f64).round() as u64).clamp(lo / step, hi / step) * step
}

/// FNV-1a 64: the determinism digest over plan costs and sink bits.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A closed loop's requests split into slices: equal time slices of
/// the window, or natural groups such as plan-cold's rounds. Each
/// statistic is computed per slice, and the reported value is the
/// slice statistic at the quartile that favours the system: a shared
/// host that slows the program for up to three quarters of a run does
/// not move it, while a change to the program moves every slice alike.
pub struct Slices {
    /// Per slice, `(completion, latency)` of its requests in seconds,
    /// completions counted from the start of the loop.
    slices: Vec<Vec<(f64, f64)>>,
}

impl Slices {
    /// `parts` equal slices of `[0, window)` by completion time;
    /// requests completing after the window are dropped.
    pub fn by_time(done: &[f64], latency: &[f64], window: f64, parts: usize) -> Self {
        let width = window / parts as f64;
        let mut slices = vec![Vec::new(); parts];
        for (&t, &l) in done.iter().zip(latency) {
            let slot = (t / width) as usize;
            if slot < parts {
                slices[slot].push((t, l));
            }
        }
        Slices::from_groups(slices)
    }

    /// One slice per group of `(completion, latency)` pairs.
    pub fn from_groups(mut slices: Vec<Vec<(f64, f64)>>) -> Self {
        slices.retain(|s| !s.is_empty());
        for s in &mut slices {
            s.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Slices { slices }
    }

    /// Requests completed per second, from the first request's start
    /// to the last one's completion in each slice: upper quartile over
    /// slices.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| {
                let (first_done, first_latency) = s[0];
                s.len() as f64 / (s[s.len() - 1].0 - (first_done - first_latency))
            })
            .collect();
        quantile(&rates, 0.75)
    }

    /// Latency quantile `q` in milliseconds: lower quartile over slices
    /// of each slice's `q`-quantile.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .slices
            .iter()
            .map(|s| quantile(&s.iter().map(|p| p.1 * 1e3).collect::<Vec<_>>(), q))
            .collect();
        quantile(&per, 0.25)
    }
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; `None` when
/// `/proc` does not report it.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so a
/// later [`vm_hwm_mb`] reports the peak of what ran after the reset.
/// Best effort: without the reset the peak covers the whole process.
pub fn reset_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
