//! Kernel-level micro-benchmarks behind `neo-xtask bench --micro`.
//!
//! Where [`crate::suite`] measures whole training iterations, this suite
//! pins the *kernels* the perf work of the raw-speed pass targets, so a
//! `bench --diff` between two `BENCH_micro.json` files attributes a
//! throughput change to the kernel that moved:
//!
//! * `micro_gemm_*` — the three GEMM entry points of `neo-tensor`
//!   (`matmul`, `matmul_at_b`, `matmul_a_bt`) at the MLP shapes the
//!   quickstart model actually runs: the bottom layer `64x8x16` and the
//!   top layer `64x52x16` (batch 64 is the w4 sub-batch of the pinned
//!   global batch 256; 52 is `top_input_dim` for 8 tables at dim 16),
//!   plus the backward weight-gradient (`AᵀB`) and input-gradient
//!   (`ABᵀ`) transposes of the top layer. The `micro_gemm_*_wide` cases
//!   run the same three products at the `dense_overlap` benchmark's top
//!   layer `256x256x128` (batch 256 per rank, 256 -> 128), where the
//!   kernels' register tiles fill completely. Throughput is A-rows/sec.
//! * `micro_pooled_{fwd,bwd}` — sum-pooled embedding lookup forward and
//!   backward over a 20k-row / dim-16 table at a Zipf-skewed batch shape
//!   (power-law row ids: a hot head and a long tail, the access pattern
//!   production embedding tables see). Throughput is bags/sec.
//! * `micro_merge_dup{0,50,90}` — the radix sort-and-accumulate sparse
//!   optimizer merge ([`neo_embeddings::optim::merge_grads`]) at
//!   duplicate rates 0%, 50% and 90% of 8192 occurrences. Throughput is
//!   occurrences/sec.
//!
//! All inputs are deterministic (an LCG, no external RNG), every case is
//! validated against nothing — these are pure speed probes; correctness
//! is pinned by the property tests in the owning crates.

use std::time::Instant;

use crate::benchfile::{BenchEntry, BenchReport};
use neo_embeddings::bag::{pooled_backward, pooled_forward};
use neo_embeddings::optim::merge_grads;
use neo_embeddings::store::DenseStore;
use neo_embeddings::SparseGrad;
use neo_tensor::{gemm, Tensor2};

/// Passes per case; the median is reported (same estimator as the
/// iteration suite).
const PASSES: usize = 5;

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Deterministic LCG over (0, 1); the same generator the tiered-cache
/// case uses, so the suite needs no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A `rows x cols` tensor of deterministic small values in roughly
/// `[-1, 1]`.
fn filled(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut lcg = Lcg(seed | 1);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| (lcg.next_f64() * 2.0 - 1.0) as f32)
        .collect();
    // lint: allow(panic) — rows * cols elements by construction
    Tensor2::from_vec(rows, cols, data).expect("micro tensor shape") // lint: allow(panic_path) — rows * cols elements are built by the iterator directly above
}

/// Times `reps` runs of `body` per pass and returns the median
/// units-per-second over [`PASSES`] passes, where one `body` call counts
/// as `units` units.
fn measure(reps: usize, units: u64, mut body: impl FnMut()) -> f64 {
    let mut rates: Vec<f64> = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for _ in 0..reps {
            body();
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        rates.push((units * reps as u64) as f64 / dt);
    }
    median(&mut rates)
}

fn entry(name: &str, global_batch: usize, reps: usize, throughput: f64) -> BenchEntry {
    BenchEntry {
        name: name.to_string(),
        world: 1,
        global_batch,
        iters: reps as u64,
        throughput_samples_per_sec: throughput,
        phase_ms: Vec::new(),
        exposed_comm_fraction: 0.0,
        cache_hit_rate: None,
    }
}

/// One GEMM case: `which` selects the kernel, shapes follow the
/// quickstart MLP layers. Throughput is A-rows/sec.
fn gemm_case(
    name: &str,
    which: fn(&Tensor2, &Tensor2) -> neo_tensor::Result<Tensor2>,
    a_shape: (usize, usize),
    b_shape: (usize, usize),
    reps: usize,
) -> Result<BenchEntry, String> {
    let a = filled(a_shape.0, a_shape.1, 0x5eed_0001);
    let b = filled(b_shape.0, b_shape.1, 0x5eed_0002);
    which(&a, &b).map_err(|e| format!("{name}: {e}"))?;
    let tput = measure(reps, a_shape.0 as u64, || {
        let _ = which(&a, &b);
    });
    Ok(entry(name, a_shape.0, reps, tput))
}

/// Zipf-skewed batch shape: `bags` bags of `pooling` ids each, row ids
/// drawn from a power law over `rows` (cubed uniform: ~87% of mass in
/// the first third of the table, with a long tail).
fn zipf_batch(rows: u64, bags: usize, pooling: usize, seed: u64) -> (Vec<u32>, Vec<u64>) {
    let mut lcg = Lcg(seed | 1);
    let lengths = vec![pooling as u32; bags];
    let indices: Vec<u64> = (0..bags * pooling)
        .map(|_| {
            let u = lcg.next_f64();
            ((rows as f64 - 1.0) * u * u * u) as u64
        })
        .collect();
    (lengths, indices)
}

/// Occurrence ids at a given duplicate rate: `dup_pct` percent of the
/// `n` occurrences re-hit an earlier row id (the hot case the merge's
/// single accumulation sweep collapses).
fn dup_indices(n: usize, dup_pct: usize, seed: u64) -> Vec<u64> {
    let unique = ((n * (100 - dup_pct)) / 100).max(1);
    let mut lcg = Lcg(seed | 1);
    (0..n)
        .map(|_| {
            let u = lcg.next_f64();
            // spread the unique ids over a sparse 24-bit space so the
            // radix passes see realistic key widths
            ((unique as f64 * u) as u64) * 1021 % (1 << 24)
        })
        .collect()
}

/// Runs the kernel micro-suite and returns the labelled report. `quick`
/// shrinks rep counts for tests.
pub fn run_micro_suite(label: &str, quick: bool) -> Result<BenchReport, String> {
    let scale = if quick { 1usize } else { 50 };
    let mut report = BenchReport::new(label);

    // GEMM at the quickstart MLP shapes (b_loc=64 at w4, dims 8/16/52)
    report.entries.push(gemm_case(
        "micro_gemm_fwd_bottom",
        gemm::matmul,
        (64, 8),
        (8, 16),
        40 * scale,
    )?);
    report.entries.push(gemm_case(
        "micro_gemm_fwd_top",
        gemm::matmul,
        (64, 52),
        (52, 16),
        40 * scale,
    )?);
    // weight grad of the top layer: Xᵀ(64x52) · G(64x16) -> 52x16
    report.entries.push(gemm_case(
        "micro_gemm_wgrad_top",
        gemm::matmul_at_b,
        (64, 52),
        (64, 16),
        40 * scale,
    )?);
    // input grad of the top layer: G(64x16) · W(52x16)ᵀ -> 64x52
    report.entries.push(gemm_case(
        "micro_gemm_dgrad_top",
        gemm::matmul_a_bt,
        (64, 16),
        (52, 16),
        40 * scale,
    )?);

    // the same three products at the dense_overlap top-MLP layer 256 -> 128
    // (batch 256 per rank), where a register tile fills completely
    report.entries.push(gemm_case(
        "micro_gemm_fwd_wide",
        gemm::matmul,
        (256, 256),
        (256, 128),
        2 * scale,
    )?);
    // weight grad: Xᵀ(256x256) · G(256x128) -> 256x128
    report.entries.push(gemm_case(
        "micro_gemm_wgrad_wide",
        gemm::matmul_at_b,
        (256, 256),
        (256, 128),
        2 * scale,
    )?);
    // input grad: G(256x128) · W(256x128)ᵀ -> 256x256
    report.entries.push(gemm_case(
        "micro_gemm_dgrad_wide",
        gemm::matmul_a_bt,
        (256, 128),
        (256, 128),
        2 * scale,
    )?);

    // pooled lookup at a Zipf batch shape (20k-row dim-16 table, the
    // quickstart table size; 256 bags of pooling 4)
    const ROWS: u64 = 20_000;
    const DIM: usize = 16;
    const BAGS: usize = 256;
    const POOLING: usize = 4;
    let mut store = DenseStore::zeros(ROWS, DIM);
    let (lengths, indices) = zipf_batch(ROWS, BAGS, POOLING, 0x5eed_0003);
    let fwd_reps = 8 * scale;
    let tput = measure(fwd_reps, BAGS as u64, || {
        let _ = pooled_forward(&mut store, &lengths, &indices);
    });
    report
        .entries
        .push(entry("micro_pooled_fwd", BAGS, fwd_reps, tput));
    let grad_out = filled(BAGS, DIM, 0x5eed_0004);
    let bwd_reps = 8 * scale;
    let tput = measure(bwd_reps, BAGS as u64, || {
        let _ = pooled_backward(&lengths, &indices, &grad_out);
    });
    report
        .entries
        .push(entry("micro_pooled_bwd", BAGS, bwd_reps, tput));

    // sparse-optimizer merge at duplicate rates 0 / 50 / 90 percent
    const OCCURRENCES: usize = 8_192;
    for dup_pct in [0usize, 50, 90] {
        let indices = dup_indices(OCCURRENCES, dup_pct, 0x5eed_0005 + dup_pct as u64);
        let grads = filled(OCCURRENCES, DIM, 0x5eed_0006);
        let sg = SparseGrad::dense(indices, grads);
        let reps = 2 * scale;
        let tput = measure(reps, OCCURRENCES as u64, || {
            let _ = merge_grads(&sg);
        });
        report.entries.push(entry(
            &format!("micro_merge_dup{dup_pct}"),
            OCCURRENCES,
            reps,
            tput,
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchfile::BENCH_SCHEMA_VERSION;

    #[test]
    fn quick_micro_suite_produces_a_schema_valid_report() {
        let report = run_micro_suite("test", true).expect("micro suite");
        assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(report.entries.len(), 12, "{report:?}");
        let round = BenchReport::parse(&report.to_json()).expect("round trip");
        assert_eq!(round, report);
        for e in &report.entries {
            assert!(
                e.throughput_samples_per_sec > 0.0,
                "{}: zero throughput",
                e.name
            );
        }
        // duplicate rates actually change the merge output size
        let merged_len = |dup: usize| {
            let sg = SparseGrad::dense(dup_indices(1000, dup, 7), filled(1000, 4, 9));
            merge_grads(&sg).indices.len()
        };
        assert!(merged_len(90) < merged_len(0), "dup90 must collapse rows");
    }

    #[test]
    fn zipf_batch_is_head_heavy() {
        let (lengths, indices) = zipf_batch(10_000, 64, 4, 42);
        assert_eq!(lengths.len(), 64);
        assert_eq!(indices.len(), 256);
        let head = indices.iter().filter(|&&i| i < 10_000 / 3).count();
        assert!(
            head * 2 > indices.len(),
            "power-law ids should concentrate in the head: {head}/256"
        );
        assert!(indices.iter().all(|&i| i < 10_000));
    }
}
