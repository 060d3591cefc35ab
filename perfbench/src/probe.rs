//! Host roofline probes: the floating-point and memory-bandwidth
//! ceilings that kernel throughput is reported against.

use std::hint::black_box;
use std::time::Instant;

/// Independent FMA chains per thread: enough to cover the FMA latency
/// on every port, so the loop runs at throughput, not latency.
const LANES: usize = 64;

fn fma_loop(iters: usize) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mul = black_box([0.999_999_9f64; LANES]);
    let add = black_box([1e-9f64; LANES]);
    for _ in 0..iters {
        for l in 0..LANES {
            acc[l] = acc[l].mul_add(mul[l], add[l]);
        }
    }
    acc.iter().sum()
}

/// Peak double-precision GFLOP/s over all `threads` (two flops per
/// FMA), best of three timed repetitions.
pub fn host_peak_gflops(threads: usize) -> f64 {
    let iters = 20_000_000;
    black_box(fma_loop(iters / 10)); // warm-up
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(fma_loop(iters)));
            }
        });
        let flops = 2.0 * (LANES * iters * threads) as f64;
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Streaming triad `a = b + s·c` bandwidth in GB/s over `threads`
/// threads, each on its own 3 × 8 MiB arrays (beyond the per-core
/// caches), best of three.
pub fn host_stream_gbs(threads: usize) -> f64 {
    const N: usize = 1 << 20;
    let mut bufs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..threads)
        .map(|t| (vec![0.0; N], vec![1.0 + t as f64; N], vec![2.0; N]))
        .collect();
    let mut best = 0.0f64;
    for rep in 0..4 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (a, b, c) in bufs.iter_mut() {
                s.spawn(move || {
                    let scale = black_box(0.5);
                    for ((x, y), z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *x = y + scale * z;
                    }
                    black_box(&a);
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        // The first pass faults the pages in; it is not a bandwidth.
        if rep > 0 {
            let bytes = (3 * N * 8 * threads) as f64;
            best = best.max(bytes / secs / 1e9);
        }
    }
    best
}
