//! Host description, calibration probes and `/proc` readers.
//!
//! Every result carries the host it ran on and three calibration numbers
//! measured in the same process: a multiply-add peak, a streaming copy
//! and the cost of an empty two-rank `all_reduce`. The CPU steal share
//! over the run marks results disturbed by other tenants of the machine.

use std::hint::black_box;
use std::time::Instant;

use neo_dlrm::prelude::ProcessGroup;

use crate::report::{median, JsonObject};

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Process user+system CPU time in milliseconds, all threads included
/// (also threads that have exited), from `/proc/self/stat`.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; the fields start after its `)`
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU counters of the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStat {
    total: u64,
    steal: u64,
}

impl CpuStat {
    /// Reads the machine-wide counters; zeros when `/proc/stat` is absent.
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().next() else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user)
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// CPU time stolen by the hypervisor between `self` and a later
    /// reading, summed over all CPUs, in ms.
    pub fn steal_ms_until(&self, later: &CpuStat) -> f64 {
        later.steal.saturating_sub(self.steal) as f64 * 1000.0 / USER_HZ
    }

    /// Share of CPU time stolen by the hypervisor between `self` and a
    /// later reading, in percent.
    pub fn steal_pct_until(&self, later: &CpuStat) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 * 100.0 / total as f64
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` block: logical cores, CPU model, compiler and profile.
pub fn host_block() -> JsonObject {
    let mut h = JsonObject::new();
    h.num(
        "logical_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    h.str("cpu_model", &cpu_model());
    h.str("rustc", env!("TRAINBENCH_RUSTC"));
    h.str("profile", env!("TRAINBENCH_PROFILE"));
    h
}

/// Lanes of one multiply-add accumulator, the lane width the tensor
/// crate's GEMM micro-kernels use.
const LANE: usize = 8;
/// Independent accumulators, enough to cover the multiply-add latency.
const ACCS: usize = 8;

/// Single-core multiply-add peak in GFLOP/s: independent `acc * m + a`
/// chains over fixed-width lane arrays, the shape the GEMM micro-kernels
/// are written in, so both compile to the same vector instructions.
/// Median of `passes` timed passes.
fn fma_gflops(passes: usize) -> f64 {
    const STEPS: usize = 200_000;
    let mut rates = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut acc = [[1.0f32; LANE]; ACCS];
        let m = black_box([0.999_9f32; LANE]);
        let a = black_box([1e-4f32; LANE]);
        let t = Instant::now();
        for _ in 0..STEPS {
            for row in acc.iter_mut() {
                for ((x, &mm), &aa) in row.iter_mut().zip(&m).zip(&a) {
                    *x = *x * mm + aa;
                }
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(&acc);
        rates.push((2 * STEPS * ACCS * LANE) as f64 / secs * 1e-9);
    }
    median(&mut rates)
}

/// Streaming copy bandwidth in GB/s (bytes copied per second) over a
/// 32 MiB buffer, larger than the last-level caches this runs on.
/// Median of `passes` passes.
fn copy_gbps(passes: usize) -> f64 {
    const LEN: usize = 8 << 20; // f32 elements, 32 MiB
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let mut rates = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        rates.push((LEN * 4) as f64 / t.elapsed().as_secs_f64() * 1e-9);
    }
    median(&mut rates)
}

/// Microseconds per 1-float `all_reduce` between two persistent rank
/// threads (the synchronization floor of every collective): median of
/// `batches` batches of `per_batch` calls, timed on rank 0.
fn empty_allreduce_us(batches: usize, per_batch: usize) -> f64 {
    let comms = ProcessGroup::new(2);
    let mut per_op = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                s.spawn(move || {
                    let mut buf = [1.0f32];
                    let mut times = Vec::with_capacity(batches);
                    for _ in 0..batches {
                        let t = Instant::now();
                        for _ in 0..per_batch {
                            comm.all_reduce(&mut buf).expect("empty all_reduce");
                        }
                        times.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
                    }
                    times
                })
            })
            .collect();
        let mut results: Vec<Vec<f64>> = handles
            .into_iter()
            .map(|h| h.join().expect("all_reduce probe thread panicked"))
            .collect();
        results.swap_remove(0)
    });
    median(&mut per_op)
}

/// Host calibration: the ceilings the per-layer numbers are read against.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Single-core multiply-add peak, GFLOP/s.
    pub fma_gflops: f64,
    /// Streaming copy, GB/s.
    pub copy_gbps: f64,
    /// Empty two-rank `all_reduce`, µs.
    pub empty_allreduce_us: f64,
}

impl Calibration {
    /// Measures all three (about half a second).
    pub fn measure() -> Self {
        Self {
            fma_gflops: fma_gflops(5),
            copy_gbps: copy_gbps(5),
            empty_allreduce_us: empty_allreduce_us(5, 200),
        }
    }

    /// The `calibration` block, with the run's CPU steal share.
    pub fn to_json(self, steal_pct: f64) -> JsonObject {
        let mut c = JsonObject::new();
        c.num("fma_gflops", self.fma_gflops);
        c.num("copy_gbps", self.copy_gbps);
        c.num("empty_allreduce_us_w2", self.empty_allreduce_us);
        c.num("steal_pct", steal_pct);
        c
    }
}
