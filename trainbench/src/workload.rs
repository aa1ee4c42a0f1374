//! The three benchmark workloads and one timed training repetition.
//!
//! A repetition is everything a user of the trainer pays for one run:
//! planning, dataset and prefetcher set-up, shard allocation and
//! initialization, `iters` training iterations through
//! `SyncTrainer::train_stream` fed by `PrefetchReader` + `SharedFeed` (as
//! in `examples/quickstart.rs`), and a final evaluation. The benchmark
//! times it from outside: its own clock around the public calls, and
//! marks taken inside the `make(k)` batch callback it hands the trainer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use neo_dlrm::dlrm::EmbTableCfg;
use neo_dlrm::prelude::*;
use neo_dlrm::telemetry::json::{self, Json};
use neo_dlrm::trainer::sync::{DenseOpt, SparseOpt};

use crate::host::{peak_rss_mb, process_cpu_ms, CpuStat};
use crate::layers;
use crate::report::JsonObject;

/// Batch-index offset of the held-out eval batches: far beyond any
/// training index, so eval and training samples never coincide.
pub const EVAL_BASE: u64 = 1 << 40;

/// One benchmark workload: model, data, optimizer and schedule.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Model architecture.
    pub model: DlrmConfig,
    /// Zipf exponent of the index stream.
    pub zipf: f64,
    /// Global batch (split over the ranks).
    pub global_batch: usize,
    /// Sparse (embedding) optimizer.
    pub sparse_opt: SparseOpt,
    /// Dense (MLP) optimizer.
    pub dense_opt: DenseOpt,
    /// Learning rate, chosen so eval NE ends below 1.0.
    pub lr: f32,
    /// Overlapped (Fig. 9) schedule instead of the serial one.
    pub overlap: bool,
    /// Injected wire cost per collective.
    pub comm_delay: Option<CommDelay>,
    /// Leading iterations left out of the timed window.
    pub warmup: u64,
    /// Iterations per chunk of the timed window (about 0.1-0.3 s each).
    pub chunk: u64,
    /// Chunks in the timed window.
    pub chunks: u64,
    /// Held-out eval batches.
    pub eval_batches: u64,
}

fn model(tables: usize, rows: u64, dim: usize, pooling: u32, dense_dim: usize) -> DlrmConfig {
    let mut m = DlrmConfig::tiny(tables, rows, dim);
    m.dense_dim = dense_dim;
    m.tables = vec![
        EmbTableCfg {
            num_rows: rows,
            dim,
            avg_pooling: pooling,
        };
        tables
    ];
    m
}

/// Every workload name, in the order the documentation lists them.
pub const NAMES: &[&str] = &["rendezvous_small", "sparse_heavy", "dense_overlap"];

impl Workload {
    /// The named workload; `tiny` shrinks tables, batches and run length
    /// for the smoke test while keeping its schedule and optimizers.
    pub fn by_name(name: &str, tiny: bool) -> Option<Self> {
        let mut w = match name {
            // quickstart model; the four collectives dominate the iteration
            "rendezvous_small" => Self {
                name: "rendezvous_small",
                model: model(8, 20_000, 16, 3, 4),
                zipf: 1.05,
                global_batch: 256,
                sparse_opt: SparseOpt::Sgd,
                dense_opt: DenseOpt::Sgd,
                lr: 0.4,
                overlap: false,
                comm_delay: None,
                warmup: 50,
                chunk: 50,
                chunks: 11,
                eval_batches: 8,
            },
            // large tables, long bags: lookup and sparse optimizer dominate
            "sparse_heavy" => Self {
                name: "sparse_heavy",
                model: model(16, 200_000, 32, 20, 4),
                zipf: 1.05,
                global_batch: 1024,
                sparse_opt: SparseOpt::RowWiseAdagrad,
                dense_opt: DenseOpt::Adam,
                lr: 0.005,
                overlap: false,
                comm_delay: None,
                warmup: 4,
                chunk: 2,
                chunks: 18,
                eval_batches: 8,
            },
            // wide MLPs on the overlapped schedule with a modeled wire
            "dense_overlap" => {
                let mut m = model(8, 20_000, 64, 4, 64);
                m.bottom_mlp = vec![256, 128, 64];
                m.top_mlp = vec![256, 128, 1];
                Self {
                    name: "dense_overlap",
                    model: m,
                    zipf: 1.05,
                    global_batch: 512,
                    sparse_opt: SparseOpt::Adagrad,
                    dense_opt: DenseOpt::Adam,
                    lr: 0.01,
                    overlap: true,
                    comm_delay: Some(CommDelay::new(16e9, 100e-6)),
                    warmup: 4,
                    chunk: 2,
                    chunks: 18,
                    eval_batches: 4,
                }
            }
            _ => return None,
        };
        if tiny {
            for t in &mut w.model.tables {
                t.num_rows = t.num_rows.min(2_000);
            }
            w.global_batch = w.global_batch.min(64);
            w.warmup = 2;
            w.chunk = 3;
            w.chunks = 3;
            w.eval_batches = 1;
        }
        Some(w)
    }

    /// Training iterations per repetition: warm-up, then the timed
    /// window of `chunks` chunks between the first and the last request.
    pub fn iters(&self) -> u64 {
        self.warmup + self.chunk * self.chunks + 1
    }

    /// Sharding-planner table specs.
    pub fn specs(&self) -> Vec<TableSpec> {
        self.model
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| TableSpec::new(i, t.num_rows, t.dim, t.avg_pooling as f64))
            .collect()
    }

    /// The planner every repetition uses.
    pub fn planner(&self) -> Planner {
        Planner::new(
            CostModel::v100_prototype(self.global_batch),
            PlannerConfig::default(),
        )
    }

    /// The synthetic data stream for `seed`.
    pub fn data_config(&self, seed: u64) -> SyntheticConfig {
        let t = &self.model.tables;
        SyntheticConfig {
            rows_per_table: t.iter().map(|t| t.num_rows).collect(),
            avg_pooling: t.iter().map(|t| t.avg_pooling).collect(),
            dense_dim: self.model.dense_dim,
            zipf_exponent: self.zipf,
            ..SyntheticConfig::uniform(1, 1, 1, 1)
        }
        .with_seed(seed)
    }

    /// The held-out eval set: batch indices from [`EVAL_BASE`] on.
    pub fn eval_set(&self, seed: u64) -> Result<Vec<CombinedBatch>, String> {
        let ds = SyntheticDataset::new(self.data_config(seed)).map_err(|e| e.to_string())?;
        Ok((0..self.eval_batches)
            .map(|j| ds.batch(self.global_batch, EVAL_BASE + j))
            .collect())
    }
}

/// How a repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    /// Ranks (2 for every workload; 1 for the single-worker baseline).
    pub world: usize,
    /// Arm the telemetry sink and the workload profiler.
    pub traced: bool,
}

/// What one repetition measured: named numbers (metric names where a
/// number is reported as it is), the batch-request intervals of the
/// timed window and the loss bits for the determinism check. A
/// repetition runs in a child process and hands this back as one JSON
/// line.
#[derive(Debug, Default)]
pub struct Rep {
    /// `(name, value)` pairs.
    pub nums: Vec<(String, f64)>,
    /// Intervals between successive batch requests in the window, ms.
    pub intervals_ms: Vec<f64>,
    /// Bit patterns of the per-iteration global mean losses.
    pub loss_bits: Vec<u32>,
    /// Timed-window chunks, in order.
    pub chunks: Vec<Chunk>,
}

/// One chunk of the timed window: `Workload::chunk` iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunk {
    /// Wall time, ms.
    pub ms: f64,
    /// Process CPU time, ms.
    pub cpu_ms: f64,
    /// Machine-wide CPU steal share over the chunk, percent.
    pub steal_pct: f64,
    /// CPU time stolen over the chunk, summed over all CPUs, ms.
    pub steal_ms: f64,
}

impl Rep {
    /// Records a named number.
    pub fn put(&mut self, name: &str, v: f64) {
        self.nums.push((name.into(), v));
    }

    /// A named number; NaN when the repetition did not record it.
    pub fn get(&self, name: &str) -> f64 {
        self.nums
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |e| e.1)
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        let mut nums = JsonObject::new();
        for (n, v) in &self.nums {
            nums.num(n, *v);
        }
        let mut o = JsonObject::new();
        o.obj("nums", &nums);
        o.arr("intervals_ms", self.intervals_ms.iter().copied());
        o.arr("loss_bits", self.loss_bits.iter().map(|&b| f64::from(b)));
        o.arr("chunk_ms", self.chunks.iter().map(|c| c.ms));
        o.arr("chunk_cpu_ms", self.chunks.iter().map(|c| c.cpu_ms));
        o.arr("chunk_steal_pct", self.chunks.iter().map(|c| c.steal_pct));
        o.arr("chunk_steal_ms", self.chunks.iter().map(|c| c.steal_ms));
        o.render()
    }

    /// Parses [`Rep::to_json`] output.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("repetition output: {e}"))?;
        let numbers = |key: &str| -> Result<Vec<f64>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("repetition output lacks `{key}`"))?
                .iter()
                .map(|v| v.as_f64().ok_or(format!("non-number in `{key}`")))
                .collect()
        };
        let nums = doc
            .get("nums")
            .and_then(Json::as_object)
            .ok_or("repetition output lacks `nums`")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let (ms, cpu, steal, stolen) = (
            numbers("chunk_ms")?,
            numbers("chunk_cpu_ms")?,
            numbers("chunk_steal_pct")?,
            numbers("chunk_steal_ms")?,
        );
        if [cpu.len(), steal.len(), stolen.len()]
            .iter()
            .any(|&n| n != ms.len())
        {
            return Err("chunk arrays differ in length".into());
        }
        let chunks = (0..ms.len())
            .map(|i| Chunk {
                ms: ms[i],
                cpu_ms: cpu[i],
                steal_pct: steal[i],
                steal_ms: stolen[i],
            })
            .collect();
        Ok(Self {
            nums,
            intervals_ms: numbers("intervals_ms")?,
            loss_bits: numbers("loss_bits")?
                .into_iter()
                .map(|b| b as u32)
                .collect(),
            chunks,
        })
    }
}

/// Sum and count of timed calls, shared between threads.
#[derive(Debug, Default)]
struct Tally {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl Tally {
    fn add(&self, t0: Instant, items: u64) {
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    fn mean_ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-6
            / self.calls.load(Ordering::Relaxed).max(1) as f64
    }

    fn mean_items(&self) -> f64 {
        self.items.load(Ordering::Relaxed) as f64 / self.calls.load(Ordering::Relaxed).max(1) as f64
    }
}

/// Runs one repetition of `w` with `seed`; set-up time counts from the
/// call.
///
/// # Errors
///
/// Returns the planner, dataset or trainer error as text.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    eval: &[CombinedBatch],
    opts: RepOpts,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let since_t0 = move || t0.elapsed().as_nanos() as u64;

    let specs = w.specs();
    let planner = w.planner();
    let tp = Instant::now();
    let plan = planner
        .plan(&specs, opts.world)
        .map_err(|e| e.to_string())?;
    let plan_ms = tp.elapsed().as_secs_f64() * 1e3;
    let predicted_imbalance = planner.predicted_lookup_imbalance(&plan, &specs);

    let mut cfg = SyncConfig::exact(opts.world, w.model.clone(), plan, w.global_batch);
    cfg.quant_fwd = QuantMode::Fp16;
    cfg.quant_bwd = QuantMode::Bf16;
    cfg.lr = w.lr;
    cfg.seed = seed;
    cfg.optimizer = w.sparse_opt;
    cfg.dense_optimizer = w.dense_opt;
    cfg.overlap = w.overlap;
    cfg.comm_delay = w.comm_delay;
    if opts.traced {
        cfg.telemetry = TelemetrySink::armed();
        cfg.workload = true;
    }
    let trainer = SyncTrainer::new(cfg);
    let sink = trainer.config().telemetry.clone();

    let ds = SyntheticDataset::new(w.data_config(seed)).map_err(|e| e.to_string())?;
    let build = Arc::new(Tally::default());
    let build_in = Arc::clone(&build);
    let gb = w.global_batch;
    let iters = w.iters();
    let reader = PrefetchReader::spawn_with_telemetry(iters, 2, sink, move |k| {
        let t = Instant::now();
        let b = ds.batch(gb, k);
        build_in.add(t, b.indices().len() as u64);
        b
    });
    let feed = SharedFeed::new(reader, opts.world);

    // first request of each batch, ns since t0 (0 = not yet requested)
    let first: Vec<AtomicU64> = (0..iters).map(|_| AtomicU64::new(0)).collect();
    // process CPU time and machine CPU counters at each chunk boundary
    let probes: Mutex<Vec<(f64, CpuStat)>> = Mutex::new(Vec::with_capacity(w.chunks as usize + 1));
    let wait = Tally::default();
    let (warm, last) = (w.warmup, iters - 1);
    let out = trainer
        .train_stream(
            iters,
            |k| {
                let now = since_t0().max(1);
                let won = first[k as usize]
                    .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
                if won && k >= warm && (k - warm) % w.chunk == 0 {
                    let probe = (process_cpu_ms().unwrap_or(f64::NAN), CpuStat::read());
                    probes.lock().expect("probe lock").push(probe);
                }
                let t = Instant::now();
                let b = feed.batch(k).expect("prefetch feed covers every iteration");
                wait.add(t, 0);
                b
            },
            eval,
            0,
            None,
        )
        .map_err(|e| e.to_string())?;

    let marks: Vec<u64> = first.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let window_ns = marks[last as usize].saturating_sub(marks[warm as usize]);
    let window_iters = last - warm;
    let samples = (window_iters * gb as u64) as f64;
    let probes = probes.into_inner().expect("probe lock");
    if probes.len() as u64 != w.chunks + 1 {
        return Err(format!(
            "{} chunk probes for {} chunks",
            probes.len(),
            w.chunks
        ));
    }
    let chunks: Vec<Chunk> = (0..w.chunks as usize)
        .map(|j| {
            let (a, b) = (warm + j as u64 * w.chunk, warm + (j as u64 + 1) * w.chunk);
            Chunk {
                ms: marks[b as usize].saturating_sub(marks[a as usize]) as f64 * 1e-6,
                cpu_ms: probes[j + 1].0 - probes[j].0,
                steal_pct: probes[j].1.steal_pct_until(&probes[j + 1].1),
                steal_ms: probes[j].1.steal_ms_until(&probes[j + 1].1),
            }
        })
        .collect();
    let cpu_ms: f64 = chunks.iter().map(|c| c.cpu_ms).sum();
    let comm_ops: u64 = out.comm.iter().map(|s| s.ops).sum();
    let comm_bytes: u64 = out.comm.iter().map(|s| s.bytes_sent).sum();

    let mut rep = Rep {
        intervals_ms: marks[warm as usize..]
            .windows(2)
            .map(|p| p[1].saturating_sub(p[0]) as f64 * 1e-6)
            .collect(),
        loss_bits: out.losses.iter().map(|l| l.to_bits()).collect(),
        chunks,
        ..Rep::default()
    };
    rep.put("setup_s", marks[0] as f64 * 1e-9);
    rep.put("samples_per_s", samples / (window_ns as f64 * 1e-9));
    rep.put("cpu_ms_per_ksample", cpu_ms * 1000.0 / samples);
    rep.put(
        "eval_ne",
        out.ne_curve.last().map_or(f64::NAN, |&(_, ne)| ne),
    );
    rep.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    rep.put("window_ms", window_ns as f64 * 1e-6);
    rep.put("window_iters", window_iters as f64);
    rep.put("comm_ops", comm_ops as f64);
    rep.put("comm_bytes", comm_bytes as f64);
    rep.put("collectives.ops_per_iter", comm_ops as f64 / iters as f64);
    rep.put(
        "collectives.bytes_per_iter",
        comm_bytes as f64 / iters as f64,
    );
    rep.put("dataio.batch_build_ms", build.mean_ms());
    rep.put("dataio.input_wait_ms_per_iter", wait.mean_ms());
    rep.put("dataio.indices_per_batch", build.mean_items());
    rep.put("sharding.plan_ms", plan_ms);
    rep.put("sharding.predicted_imbalance", predicted_imbalance);
    if let Some(snap) = &out.telemetry {
        layers::trace_nums(w, opts.world, snap, &mut rep);
    }
    if let Some(report) = &out.workload {
        let unique: u64 = report.tables.iter().map(|t| t.unique_rows).sum();
        let lookups: u64 = report.tables.iter().map(|t| t.lookups).sum();
        rep.put(
            "embeddings.unique_row_ratio",
            unique as f64 / lookups.max(1) as f64,
        );
        rep.put(
            "sharding.observed_lookup_imbalance",
            report.imbalance().lookup_max_over_mean,
        );
    }
    Ok(rep)
}
