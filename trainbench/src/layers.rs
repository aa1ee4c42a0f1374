//! Per-layer measurements for the traced run.
//!
//! Two sources, both outside the crates: the span/counter snapshot the
//! trainer already returns when its `TelemetrySink` is armed, and replays
//! of each layer's public functions at the workload's own shapes, timed
//! by the benchmark's clock on persistent threads.

use std::hint::black_box;
use std::time::Instant;

use neo_dlrm::embeddings::bag::{pooled_backward, pooled_forward};
use neo_dlrm::embeddings::optim::merge_grads;
use neo_dlrm::prelude::*;
use neo_dlrm::telemetry::{Snapshot, SpanRecord};
use neo_dlrm::tensor::gemm::{gemm_flops, matmul};
use neo_dlrm::tensor::mlp::{Activation, Mlp, MlpConfig};
use neo_dlrm::trainer::sync::SparseOpt;
use rand::SeedableRng;

use crate::report::median;
use crate::workload::{Rep, Workload};

/// The trainer phases reported as `trainer.<phase>_ms`: `phase::ALL`
/// minus the aggregates (`iteration`, `backward`), minus `htod` (only
/// the perfmodel simulator records it) and `reduce_scatter`/`allgather`
/// (recorded only for row-wise shards, which no workload's plan has),
/// with the overlapped schedule's `allreduce_top`/`allreduce_bot` halves
/// folded into `allreduce`. Every reported phase runs on every workload;
/// unreported ones still count in the iteration sum.
pub const PHASES: &[&str] = &[
    phase::INPUT_A2A,
    phase::FWD_BOTTOM_MLP,
    phase::EMB_LOOKUP,
    phase::ALLTOALL_FWD,
    phase::INTERACTION,
    phase::TOP_MLP,
    phase::TOP_MLP_BWD,
    phase::INTERACTION_BWD,
    phase::ALLTOALL_BWD,
    phase::BWD_BOTTOM_MLP,
    phase::SPARSE_OPTIM,
    phase::DENSE_OPTIM,
    phase::ALLREDUCE,
];

/// Where a recorded phase name is reported.
fn reported_as(name: &'static str) -> &'static str {
    match name {
        phase::ALLREDUCE_TOP | phase::ALLREDUCE_BOT => phase::ALLREDUCE,
        other => other,
    }
}

/// The layer group a phase belongs to, for the dominant-layer check.
fn group_of(name: &str) -> &'static str {
    match name {
        n if phase::COMM.contains(&n) => "collectives",
        phase::EMB_LOOKUP | phase::SPARSE_OPTIM => "embeddings",
        phase::FWD_BOTTOM_MLP | phase::TOP_MLP | phase::TOP_MLP_BWD | phase::BWD_BOTTOM_MLP => {
            "mlp"
        }
        phase::INTERACTION | phase::INTERACTION_BWD => "interaction",
        _ => "other",
    }
}

/// Per-iteration, per-rank phase times of one traced repetition over
/// the iterations `[from, to)`.
#[derive(Debug)]
struct Breakdown {
    /// `(phase, ms)` for every entry of [`PHASES`]: the worker thread's
    /// exclusive time plus the comm lane's time for posted collectives.
    phase_ms: Vec<(&'static str, f64)>,
    /// Exclusive worker-thread (lane 0) time per phase, the part that
    /// adds up to the iteration.
    worker_ms: Vec<(&'static str, f64)>,
    /// Worker-thread time inside the window with no leaf span open:
    /// scheduling gaps, batch requests and waits on posted collectives.
    idle_ms: f64,
    /// Wall time per iteration from the span clock (window / iterations).
    iter_ms: f64,
}

impl Breakdown {
    /// Sum of the worker-thread exclusive times plus idle time.
    fn sum_ms(&self) -> f64 {
        self.worker_ms.iter().map(|(_, ms)| ms).sum::<f64>() + self.idle_ms
    }

    /// Share of the iteration spent in worker-thread phases of `group`.
    fn group_share(&self, group: &str) -> f64 {
        self.worker_ms
            .iter()
            .filter(|(n, _)| group_of(n) == group)
            .map(|(_, ms)| ms)
            .sum::<f64>()
            / self.iter_ms
    }
}

fn add(acc: &mut Vec<(&'static str, f64)>, name: &'static str, ms: f64) {
    match acc.iter_mut().find(|(n, _)| *n == name) {
        Some(e) => e.1 += ms,
        None => acc.push((name, ms)),
    }
}

fn clip(s: &SpanRecord, lo: u64, hi: u64) -> Option<(u64, u64)> {
    let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
    (a < b).then_some((a, b))
}

/// Splits the iterations `[from, to)` of a snapshot into exclusive phase
/// times. Per rank, the window runs from the start of iteration `from`'s
/// `iteration` span to the start of iteration `to`'s. Exclusive time of a
/// worker-thread span is its clipped duration minus the spans nested in
/// it; idle time is computed separately, as the window minus the union
/// of worker-thread leaf spans, so that exclusive + idle = window holds
/// only when the spans nest the way the trainer's guards promise.
fn breakdown(snap: &Snapshot, from: u64, to: u64) -> Option<Breakdown> {
    let world = snap.spans.iter().map(|s| s.rank + 1).max()?;
    let iters = to.checked_sub(from).filter(|&n| n > 0)? as f64;
    let mut worker: Vec<(&'static str, f64)> = Vec::new();
    let mut lane: Vec<(&'static str, f64)> = Vec::new();
    let (mut idle_ns, mut window_ns) = (0u64, 0u64);
    for rank in 0..world {
        let bracket = |it: u64| {
            snap.spans
                .iter()
                .find(|s| {
                    s.rank == rank && s.lane == 0 && s.iter == it && s.name == phase::ITERATION
                })
                .map(|s| s.start_ns)
        };
        let (lo, hi) = (bracket(from)?, bracket(to)?);
        window_ns += hi - lo;

        // worker thread: exclusive time via a nesting stack
        let mut spans: Vec<(u64, u64, &'static str)> = snap
            .spans
            .iter()
            .filter(|s| s.rank == rank && s.lane == 0)
            .filter_map(|s| clip(s, lo, hi).map(|(a, b)| (a, b, s.name)))
            .collect();
        spans.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        let mut excl: Vec<u64> = spans.iter().map(|&(a, b, _)| b - a).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, &(a, b, _)) in spans.iter().enumerate() {
            while stack.last().is_some_and(|&p| spans[p].1 <= a) {
                stack.pop();
            }
            if let Some(&p) = stack.last() {
                excl[p] = excl[p].saturating_sub(b - a);
            }
            stack.push(i);
        }
        for (&(_, _, name), &ns) in spans.iter().zip(&excl) {
            if !phase::AGGREGATE.contains(&name) {
                add(&mut worker, reported_as(name), ns as f64 * 1e-6);
            }
        }

        // idle: window minus the union of leaf spans
        let mut covered = 0u64;
        let mut reach = lo;
        for &(a, b, name) in &spans {
            if phase::AGGREGATE.contains(&name) || b <= reach {
                continue;
            }
            covered += b - a.max(reach);
            reach = b;
        }
        idle_ns += (hi - lo) - covered;

        // comm lane: posted collectives, overlapping the worker thread
        for s in snap.spans.iter().filter(|s| s.rank == rank && s.lane > 0) {
            if let Some((a, b)) = clip(s, lo, hi) {
                add(&mut lane, reported_as(s.name), (b - a) as f64 * 1e-6);
            }
        }
    }
    let per = iters * f64::from(world);
    for e in worker.iter_mut().chain(lane.iter_mut()) {
        e.1 /= per;
    }
    let phase_ms = PHASES
        .iter()
        .map(|&p| {
            let get = |v: &[(&str, f64)]| v.iter().find(|(n, _)| *n == p).map_or(0.0, |e| e.1);
            (p, get(&worker) + get(&lane))
        })
        .collect();
    Some(Breakdown {
        phase_ms,
        worker_ms: worker,
        idle_ms: idle_ns as f64 * 1e-6 / per,
        iter_ms: window_ns as f64 * 1e-6 / per,
    })
}

/// Time ranks spent blocked on collectives per iteration per rank, ms:
/// the `comm.*.wait_ns` histograms of posted collectives when the run
/// posted any, otherwise the `comm.*.ns` latency of the blocking ones
/// (which includes their rendezvous wait).
fn comm_wait_ms_per_iter(snap: &Snapshot, iters: u64, world: usize) -> f64 {
    let total = |suffix: &str| -> u128 {
        snap.histograms
            .iter()
            .filter(|(k, _)| k.starts_with("comm.") && k.ends_with(suffix))
            .map(|(_, h)| h.sum())
            .sum()
    };
    let ns = match total(".wait_ns") {
        0 => total(".ns"),
        wait => wait,
    };
    ns as f64 * 1e-6 / (iters * world as u64).max(1) as f64
}

/// Layer groups of the dominant-layer check.
pub const GROUPS: &[&str] = &["collectives", "embeddings", "mlp", "interaction", "other"];

/// Records the trace-derived numbers of a traced repetition: phase
/// times over the timed window, idle and span-clock iteration time, the
/// share of each layer group, the wait on collectives and the measured
/// exposed-communication fraction.
pub fn trace_nums(w: &Workload, world: usize, snap: &Snapshot, rep: &mut Rep) {
    if let Some(b) = breakdown(snap, w.warmup, w.iters() - 1) {
        for (p, ms) in &b.phase_ms {
            rep.put(&format!("trainer.{p}_ms"), *ms);
        }
        rep.put("trainer.iter_ms", b.iter_ms);
        rep.put("trainer.idle_ms", b.idle_ms);
        rep.put("span_sum_ms", b.sum_ms());
        for g in GROUPS {
            rep.put(&format!("share.{g}"), b.group_share(g));
        }
    }
    rep.put(
        "collectives.wait_ms_per_iter",
        comm_wait_ms_per_iter(snap, w.iters(), world),
    );
    let m = neo_dlrm::prof::MergedTimeline::from_snapshot(snap);
    rep.put(
        "trainer.exposed_comm_fraction",
        neo_dlrm::prof::exposed_comm(&m).map_or(f64::NAN, |e| e.measured_fraction),
    );
}

/// Runs `f` in passes of at least `pass_ms` each and returns the median
/// per-call time in seconds over `passes` passes. `f` returns the
/// seconds it wants counted (its own timing of the part that matters).
fn timed_passes(passes: usize, pass_ms: f64, mut f: impl FnMut() -> f64) -> f64 {
    f(); // warm caches and allocator
    let mut per_call = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        let (mut calls, mut secs) = (0u64, 0.0);
        while calls == 0 || t.elapsed().as_secs_f64() * 1e3 < pass_ms {
            secs += f();
            calls += 1;
        }
        per_call.push(secs / calls as f64);
    }
    median(&mut per_call)
}

/// [`timed_passes`] over the whole of `f`.
fn time_per_call(passes: usize, pass_ms: f64, mut f: impl FnMut()) -> f64 {
    timed_passes(passes, pass_ms, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Median per-call seconds of `calls` calls per pass: the call count is
/// fixed so that every rank of a collective replay issues the same
/// sequence of operations.
fn time_fixed(passes: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut per_call: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&mut per_call)
}

/// Calls per pass for a collective moving `bytes` per rank: about
/// 20 MB per pass, between 5 and 300 calls.
fn calls_for(bytes: usize) -> usize {
    (20_000_000 / bytes.max(1)).clamp(5, 300)
}

/// Replay timings at the workload's shapes.
#[derive(Debug, Default)]
pub struct Replay {
    /// Median forward pooled-embedding AlltoAll at the workload payload
    /// (FP16 wire), µs.
    pub a2a_us: f64,
    /// Median `all_reduce` of the dense gradients, µs.
    pub allreduce_us: f64,
    /// `QuantMode::Fp16.quantize` over the AlltoAll payload, GB/s of f32
    /// input.
    pub quant_fp16_gbps: f64,
    /// `QuantMode::Bf16.quantize` over the same payload, GB/s.
    pub quant_bf16_gbps: f64,
    /// `pooled_forward` rows pooled per second.
    pub lookup_rows_per_s: f64,
    /// `pooled_backward` occurrences per second.
    pub bwd_rows_per_s: f64,
    /// `merge_grads` occurrences per second.
    pub merge_rows_per_s: f64,
    /// Sparse optimizer `apply_merged`, unique rows per second.
    pub optim_rows_per_s: f64,
    /// Bottom + top MLP forward at the per-rank batch, GFLOP/s.
    pub mlp_fwd_gflops: f64,
    /// Bottom + top MLP backward (input and weight gradients), GFLOP/s.
    pub mlp_bwd_gflops: f64,
    /// `matmul` at the largest MLP layer shape, GFLOP/s.
    pub gemm_gflops: f64,
}

const PASSES: usize = 5;
const PASS_MS: f64 = 40.0;

/// Floats each rank sends in the forward pooled-embedding AlltoAll:
/// every rank pools its tables for the whole global batch and returns
/// each peer its local-batch slice.
fn a2a_floats(w: &Workload) -> usize {
    let dim = w.model.emb_dim();
    w.global_batch * w.model.tables.len() * dim / 2
}

fn dense_params(w: &Workload) -> usize {
    let (bot, top) = mlp_configs(w);
    (bot.num_params() + top.num_params()) as usize
}

fn mlp_configs(w: &Workload) -> (MlpConfig, MlpConfig) {
    let m = &w.model;
    (
        MlpConfig::new(m.dense_dim, &m.bottom_mlp, Activation::Relu),
        MlpConfig::new(m.top_input_dim(), &m.top_mlp, Activation::Relu)
            .with_final_activation(Activation::Identity),
    )
}

/// Collective replays on two persistent rank threads, timed on rank 0.
fn replay_collectives(w: &Workload, r: &mut Replay) {
    const WORLD: usize = 2;
    let per_peer = a2a_floats(w) / WORLD;
    let params = dense_params(w);
    let comms = ProcessGroup::new(WORLD);
    let mut timings = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                s.spawn(move || {
                    let payload: Vec<std::sync::Arc<Vec<f32>>> = (0..WORLD)
                        .map(|_| std::sync::Arc::new(vec![0.5f32; per_peer]))
                        .collect();
                    let a2a = time_fixed(PASSES, calls_for(per_peer * WORLD * 2), || {
                        let recv = c
                            .all_to_all_shared_quant(payload.clone(), QuantMode::Fp16)
                            .expect("pooled all_to_all");
                        black_box(recv);
                    });
                    let mut grads = vec![1e-3f32; params];
                    let allreduce = time_fixed(PASSES, calls_for(params * 4), || {
                        c.all_reduce(&mut grads).expect("dense all_reduce");
                    });
                    [a2a, allreduce]
                })
            })
            .collect();
        let mut all: Vec<[f64; 2]> = handles
            .into_iter()
            .map(|h| h.join().expect("collective replay thread panicked"))
            .collect();
        all.swap_remove(0)
    });
    for t in &mut timings {
        *t *= 1e6;
    }
    [r.a2a_us, r.allreduce_us] = timings;
}

fn replay_quant(w: &Workload, r: &mut Replay) {
    let src: Vec<f32> = (0..a2a_floats(w))
        .map(|i| (i % 977) as f32 * 1e-3)
        .collect();
    let bytes = (src.len() * 4) as f64 * 1e-9;
    for (mode, out) in [
        (QuantMode::Fp16, &mut r.quant_fp16_gbps),
        (QuantMode::Bf16, &mut r.quant_bf16_gbps),
    ] {
        let secs = time_per_call(PASSES, PASS_MS, || {
            black_box(mode.quantize(black_box(&src)).expect("16-bit mode"));
        });
        *out = bytes / secs;
    }
}

fn replay_embeddings(w: &Workload, seed: u64, r: &mut Replay) {
    let t = &w.model.tables[0];
    let dim = t.dim;
    let ds = SyntheticDataset::new(w.data_config(seed)).expect("workload data config is valid");
    let batch = ds.batch(w.global_batch, 0);
    let (lengths, indices) = batch.table_inputs(0);
    let rows = t.num_rows as usize;
    let mut store = DenseStore::from_tensor(Tensor2::from_fn(rows, dim, |i, j| {
        ((i * 31 + j * 7) % 101) as f32 * 1e-3
    }));
    let n = indices.len() as f64;
    let secs = time_per_call(PASSES, PASS_MS, || {
        black_box(pooled_forward(&mut store, lengths, indices).expect("valid batch"));
    });
    r.lookup_rows_per_s = n / secs;
    let grad_out = Tensor2::full(lengths.len(), dim, 1e-3);
    let secs = time_per_call(PASSES, PASS_MS, || {
        black_box(pooled_backward(lengths, indices, &grad_out).expect("valid batch"));
    });
    r.bwd_rows_per_s = n / secs;
    let grad = pooled_backward(lengths, indices, &grad_out).expect("valid batch");
    let secs = time_per_call(PASSES, PASS_MS, || {
        black_box(merge_grads(&grad));
    });
    r.merge_rows_per_s = n / secs;
    let merged = merge_grads(&grad);
    let mut opt: Box<dyn SparseOptimizer> = match w.sparse_opt {
        SparseOpt::Sgd => Box::new(SparseSgd::new(w.lr)),
        SparseOpt::Adagrad => Box::new(SparseAdagrad::new(w.lr, 1e-8, t.num_rows, dim)),
        SparseOpt::RowWiseAdagrad => Box::new(RowWiseAdagrad::new(w.lr, 1e-8, t.num_rows)),
    };
    let secs = time_per_call(PASSES, PASS_MS, || opt.apply_merged(&mut store, &merged));
    r.optim_rows_per_s = merged.len() as f64 / secs;
}

fn replay_tensor(w: &Workload, seed: u64, r: &mut Replay) {
    let b = w.global_batch / 2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (bot_cfg, top_cfg) = mlp_configs(w);
    let mut bot = Mlp::new(&bot_cfg, &mut rng);
    let mut top = Mlp::new(&top_cfg, &mut rng);
    let xb = Tensor2::from_fn(b, bot_cfg.input_dim, |i, j| {
        ((i + j) % 13) as f32 * 0.1 - 0.6
    });
    let xt = Tensor2::from_fn(b, top_cfg.input_dim, |i, j| {
        ((i * 3 + j) % 17) as f32 * 0.05 - 0.4
    });
    let dyb = Tensor2::full(b, bot_cfg.output_dim(), 1e-3);
    let dyt = Tensor2::full(b, top_cfg.output_dim(), 1e-3);
    let fwd_flops = ((bot_cfg.flops_per_sample() + top_cfg.flops_per_sample()) * b as u64) as f64;
    let secs = time_per_call(PASSES, PASS_MS, || {
        black_box(bot.forward(&xb));
        black_box(top.forward(&xt));
    });
    r.mlp_fwd_gflops = fwd_flops / secs * 1e-9;
    // backward needs the activations of a forward, which stays untimed
    let secs = timed_passes(PASSES, PASS_MS, || {
        black_box(bot.forward(&xb));
        black_box(top.forward(&xt));
        let t = Instant::now();
        black_box(bot.backward(&dyb).expect("shapes match"));
        black_box(top.backward(&dyt).expect("shapes match"));
        t.elapsed().as_secs_f64()
    });
    // weight and input gradients: twice the forward flops
    r.mlp_bwd_gflops = 2.0 * fwd_flops / secs * 1e-9;

    // largest layer of either MLP, by flops
    let mut layer = (0usize, 0usize);
    for cfg in [&bot_cfg, &top_cfg] {
        let mut k = cfg.input_dim;
        for &n in &cfg.layer_sizes {
            if k * n > layer.0 * layer.1 {
                layer = (k, n);
            }
            k = n;
        }
    }
    let (k, n) = layer;
    let a = Tensor2::from_fn(b, k, |i, j| ((i + 2 * j) % 11) as f32 * 0.1);
    let wt = Tensor2::from_fn(k, n, |i, j| ((3 * i + j) % 7) as f32 * 0.1);
    let secs = time_per_call(PASSES, PASS_MS, || {
        black_box(matmul(&a, &wt).expect("shapes match"));
    });
    r.gemm_gflops = gemm_flops(b, k, n) as f64 / secs * 1e-9;
}

/// Replays every layer at the workload's shapes.
pub fn replay(w: &Workload, seed: u64) -> Replay {
    let mut r = Replay::default();
    replay_collectives(w, &mut r);
    replay_quant(w, &mut r);
    replay_embeddings(w, seed, &mut r);
    replay_tensor(w, seed, &mut r);
    r
}
