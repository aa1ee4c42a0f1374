//! `trainbench`: the training benchmark of neo-dlrm.
//!
//! ```text
//! cargo run --release --manifest-path trainbench/Cargo.toml -- \
//!     --workload <rendezvous_small|sparse_heavy|dense_overlap> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` repeats untraced training runs for `--seconds` and prints
//! the end-to-end metrics; `--trace 1` runs the traced and replay
//! measurements and prints the per-layer metrics. The last line of
//! standard output is the result object; the line before it holds the
//! host, calibration and check details. See `README.md` in this
//! directory for the workloads and the metric definitions.

mod host;
mod layers;
mod report;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::host::{Calibration, CpuStat};
use crate::layers::{GROUPS, PHASES};
use crate::report::{median, quantile, result_line, JsonObject, Metrics};
use crate::workload::{run_rep, Chunk, Rep, RepOpts, Workload, NAMES};

/// Untraced repetitions every run makes at least, whatever `--seconds`.
const MIN_REPS: usize = 3;
/// Untraced/traced repetition pairs a traced run makes at least; it
/// makes more until half of `--seconds` is spent.
const MIN_TRACE_PAIRS: usize = 2;
/// Allowed gap between the span-derived iteration (exclusive phase
/// times plus idle) and the iteration the benchmark's own clock measures.
const TRACE_SUM_TOLERANCE_PCT: f64 = 5.0;
/// Ranks of every workload: one per core of the 2-vCPU hosts it was
/// designed on.
const WORLD: usize = 2;

const USAGE: &str = "usage: trainbench --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--tiny]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Child mode: run one repetition at this world size and print it.
    rep_world: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        rep_world: None,
    };
    let mut seen = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rep-world" => {
                args.rep_world = Some(match value.as_str() {
                    "1" => 1,
                    "2" => 2,
                    _ => return Err(bad("1 or 2")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        seen.push(flag);
    }
    let mut required = vec!["--workload", "--seed", "--trace"];
    if args.rep_world.is_none() {
        required.push("--seconds");
    }
    if let Some(missing) = required.iter().find(|f| !seen.iter().any(|s| s == *f)) {
        return Err(format!("{missing} is required"));
    }
    Ok(args)
}

/// Runs one repetition in a child process (a fresh process per
/// repetition, so set-up time and peak RSS are those of one training
/// run) and waits for it.
fn spawn_rep(args: &Args, world: usize, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--rep-world", &world.to_string()])
        .stderr(Stdio::inherit());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Rep::parse(text.lines().last().unwrap_or_default())
}

/// Child mode: one repetition, printed as one JSON line.
fn child(w: &Workload, args: &Args, world: usize) -> Result<(), String> {
    let eval = w.eval_set(args.seed)?;
    let opts = RepOpts {
        world,
        traced: args.trace,
    };
    println!("{}", run_rep(w, args.seed, &eval, opts)?.to_json());
    Ok(())
}

/// The output checks of every repetition, and the attempted/failed
/// iteration counts they feed.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(world, loss bits, collective ops, collective bytes)` of the first
    /// good repetition at each world size.
    reference: Vec<(usize, Vec<u32>, f64, f64)>,
}

impl Checks {
    /// Checks one repetition: the loss count equals the iteration count,
    /// every loss is finite, eval NE is finite and below 1.0, and losses
    /// and collective counts equal those of the first repetition of the
    /// same seed and world size. A repetition that errors or fails a
    /// check counts all its iterations as failed.
    fn check(&mut self, w: &Workload, world: usize, res: Result<Rep, String>) -> Option<Rep> {
        self.attempted += w.iters();
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                self.failed += w.iters();
                self.problems.push(format!("repetition failed: {e}"));
                return None;
            }
        };
        let mut bad = Vec::new();
        if rep.loss_bits.len() as u64 != w.iters() {
            bad.push(format!(
                "{} losses for {} iterations",
                rep.loss_bits.len(),
                w.iters()
            ));
        }
        if let Some(i) = rep
            .loss_bits
            .iter()
            .position(|&b| !f32::from_bits(b).is_finite())
        {
            bad.push(format!("loss {i} is not finite"));
        }
        let ne = rep.get("eval_ne");
        if !(ne.is_finite() && ne < 1.0) {
            bad.push(format!("eval NE {ne} is not finite and below 1.0"));
        }
        let (ops, bytes) = (rep.get("comm_ops"), rep.get("comm_bytes"));
        match self.reference.iter().find(|r| r.0 == world) {
            Some((_, ref_bits, ref_ops, ref_bytes)) => {
                if (*ref_ops, *ref_bytes) != (ops, bytes) {
                    bad.push(format!(
                        "collectives {ops} ops / {bytes} B differ from the first \
                         repetition's {ref_ops} / {ref_bytes}"
                    ));
                }
                if *ref_bits != rep.loss_bits {
                    bad.push("losses differ from the first repetition".into());
                }
            }
            None if bad.is_empty() => {
                self.reference
                    .push((world, rep.loss_bits.clone(), ops, bytes));
            }
            None => {}
        }
        if !bad.is_empty() {
            self.failed += w.iters();
            self.problems.extend(bad);
        }
        Some(rep)
    }

    fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Median of a named number over repetitions.
fn med(reps: &[Rep], name: &str) -> f64 {
    median(&mut reps.iter().map(|r| r.get(name)).collect::<Vec<_>>())
}

/// Global samples the timed chunks trained.
fn chunk_samples(w: &Workload, chunks: &[Chunk]) -> f64 {
    (chunks.len() as u64 * w.chunk * w.global_batch as u64) as f64
}

/// Global samples per un-stolen wall second over `chunks`.
fn unstolen_samples_per_s(w: &Workload, chunks: &[Chunk]) -> f64 {
    let ms: f64 = chunks.iter().map(|c| c.ms - c.steal_ms).sum();
    chunk_samples(w, chunks) / (ms * 1e-3)
}

/// End-to-end metrics from untraced repetitions for `--seconds`.
///
/// The wall-clock metrics count un-stolen wall time: each chunk's wall
/// time minus the CPU time the hypervisor stole from the machine's vCPUs
/// during it (summed over vCPUs, since the ranks run in lock-step and a
/// stolen vCPU stalls all of them). On a shared virtual machine the steal
/// sets most of the run-to-run spread; the raw figures are printed too.
fn end_to_end(w: &Workload, args: &Args, checks: &mut Checks, info: &mut JsonObject) -> Metrics {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut attempts = 0;
    while attempts < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        attempts += 1;
        if let Some(rep) = checks.check(w, WORLD, spawn_rep(args, WORLD, false)) {
            reps.push(rep);
        }
    }
    let chunks: Vec<Chunk> = reps.iter().flat_map(|r| r.chunks.iter().copied()).collect();
    let sum = |f: fn(&Chunk) -> f64| chunks.iter().map(f).sum::<f64>();
    let (wall_ms, steal_ms, cpu_ms) = (sum(|c| c.ms), sum(|c| c.steal_ms), sum(|c| c.cpu_ms));
    let samples = chunk_samples(w, &chunks);
    let mut iter_ms: Vec<f64> = chunks
        .iter()
        .map(|c| (c.ms - c.steal_ms).max(0.0) / w.chunk as f64)
        .collect();

    info.num("repetitions", reps.len() as f64);
    info.num("iter_samples", iter_ms.len() as f64);
    info.num("iterations_per_iter_sample", w.chunk as f64);
    info.num(
        "timed_steal_pct",
        steal_ms * 100.0 / (wall_ms * WORLD as f64),
    );
    info.num("raw_samples_per_s", samples / (wall_ms * 1e-3));
    let mut m = Metrics::default();
    m.put(
        "samples_per_s",
        unstolen_samples_per_s(w, &chunks),
        "samples/s",
    );
    m.put("iter_ms_p50", quantile(&mut iter_ms, 0.5), "ms");
    m.put("iter_ms_p90", quantile(&mut iter_ms, 0.9), "ms");
    m.put("cpu_ms_per_ksample", cpu_ms * 1000.0 / samples, "ms");
    for (name, unit) in [("eval_ne", "NE"), ("setup_s", "s"), ("peak_rss_mb", "MiB")] {
        m.put(name, med(&reps, name), unit);
    }
    m
}

/// Per-layer metrics: alternating untraced/traced repetitions, a
/// single-worker baseline and the layer replays.
fn per_layer(
    w: &Workload,
    args: &Args,
    calib: &Calibration,
    checks: &mut Checks,
    info: &mut JsonObject,
) -> Metrics {
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut pairs = 0;
    while pairs < MIN_TRACE_PAIRS || t0.elapsed().as_secs_f64() < args.seconds / 2.0 {
        pairs += 1;
        for (t, out) in [(false, &mut plain), (true, &mut traced)] {
            if let Some(rep) = checks.check(w, WORLD, spawn_rep(args, WORLD, t)) {
                out.push(rep);
            }
        }
    }
    info.num("trace_pairs", pairs as f64);
    let w1 = checks.check(w, 1, spawn_rep(args, 1, false));
    let replay = layers::replay(w, args.seed);

    // trace consistency: spans against the benchmark's own clock
    let span_sum = med(&traced, "span_sum_ms");
    let clock_iter = median(
        &mut traced
            .iter()
            .map(|r| r.get("window_ms") / r.get("window_iters"))
            .collect::<Vec<_>>(),
    );
    let sum_err_pct = (span_sum - clock_iter).abs() * 100.0 / clock_iter;
    let sum_ok = sum_err_pct <= TRACE_SUM_TOLERANCE_PCT;
    if !sum_ok {
        checks.problems.push(format!(
            "exclusive phases + idle = {span_sum:.4} ms, iteration = {clock_iter:.4} ms \
             ({sum_err_pct:.2}% > {TRACE_SUM_TOLERANCE_PCT}%)"
        ));
    }
    let sps = |reps: &[Rep]| {
        median(
            &mut reps
                .iter()
                .map(|r| unstolen_samples_per_s(w, &r.chunks))
                .collect::<Vec<_>>(),
        )
    };
    let (plain_sps, traced_sps) = (sps(&plain), sps(&traced));
    let overhead_pct = (plain_sps - traced_sps) * 100.0 / plain_sps;
    let mut trace_info = JsonObject::new();
    trace_info.num("trace_overhead_pct", overhead_pct);
    trace_info.num("span_sum_ms", span_sum);
    trace_info.num("clock_iter_ms", clock_iter);
    trace_info.num("tolerance_pct", TRACE_SUM_TOLERANCE_PCT);
    trace_info.bool("within_tolerance", sum_ok);
    info.obj("trace_consistency", &trace_info);
    info.obj("dominant_layer", &dominant_layer(w, &traced));

    let mut m = Metrics::default();
    let from_trace = |m: &mut Metrics, name: &str, unit: &'static str| {
        m.put(name, med(&traced, name), unit);
    };
    from_trace(&mut m, "collectives.ops_per_iter", "count");
    from_trace(&mut m, "collectives.bytes_per_iter", "B");
    from_trace(&mut m, "collectives.wait_ms_per_iter", "ms");
    m.put(
        "collectives.empty_allreduce_us",
        calib.empty_allreduce_us,
        "us",
    );
    m.put("collectives.a2a_us", replay.a2a_us, "us");
    m.put("collectives.allreduce_us", replay.allreduce_us, "us");
    m.put(
        "collectives.quant_fp16_gbps",
        replay.quant_fp16_gbps,
        "GB/s",
    );
    m.put(
        "collectives.quant_bf16_gbps",
        replay.quant_bf16_gbps,
        "GB/s",
    );

    m.put(
        "embeddings.lookup_rows_per_s",
        replay.lookup_rows_per_s,
        "rows/s",
    );
    m.put("embeddings.bwd_rows_per_s", replay.bwd_rows_per_s, "rows/s");
    m.put(
        "embeddings.merge_rows_per_s",
        replay.merge_rows_per_s,
        "rows/s",
    );
    m.put(
        "embeddings.optim_rows_per_s",
        replay.optim_rows_per_s,
        "rows/s",
    );
    from_trace(&mut m, "embeddings.unique_row_ratio", "ratio");

    m.put("tensor.mlp_fwd_gflops", replay.mlp_fwd_gflops, "GFLOP/s");
    m.put("tensor.mlp_bwd_gflops", replay.mlp_bwd_gflops, "GFLOP/s");
    m.put(
        "tensor.gemm_peak_frac",
        replay.gemm_gflops / calib.fma_gflops,
        "ratio",
    );

    for p in PHASES {
        from_trace(&mut m, &format!("trainer.{p}_ms"), "ms");
    }
    from_trace(&mut m, "trainer.iter_ms", "ms");
    from_trace(&mut m, "trainer.idle_ms", "ms");
    m.put("trainer.trace_sum_err_pct", sum_err_pct, "%");
    from_trace(&mut m, "trainer.exposed_comm_fraction", "ratio");
    m.put(
        "trainer.w1_samples_per_s",
        w1.as_ref()
            .map_or(f64::NAN, |r| unstolen_samples_per_s(w, &r.chunks)),
        "samples/s",
    );
    m.put("trainer.trace_overhead_pct", overhead_pct, "%");

    from_trace(&mut m, "dataio.batch_build_ms", "ms");
    from_trace(&mut m, "dataio.input_wait_ms_per_iter", "ms");
    from_trace(&mut m, "dataio.indices_per_batch", "count");

    from_trace(&mut m, "sharding.plan_ms", "ms");
    from_trace(&mut m, "sharding.predicted_imbalance", "ratio");
    from_trace(&mut m, "sharding.observed_lookup_imbalance", "ratio");
    m
}

/// Whether the layer the workload was chosen for dominates its traced
/// iteration: the collectives take more than half of it on
/// `rendezvous_small`, lookup + sparse optimizer are the largest group on
/// `sparse_heavy`, the MLP phases take more than half on `dense_overlap`.
fn dominant_layer(w: &Workload, traced: &[Rep]) -> JsonObject {
    let share = |g: &str| med(traced, &format!("share.{g}"));
    let (group, holds) = match w.name {
        "rendezvous_small" => ("collectives", share("collectives") > 0.5),
        "sparse_heavy" => (
            "embeddings",
            GROUPS
                .iter()
                .all(|g| *g == "embeddings" || share(g) < share("embeddings")),
        ),
        _ => ("mlp", share("mlp") > 0.5),
    };
    let mut o = JsonObject::new();
    o.str("group", group);
    for g in GROUPS {
        o.num(&format!("{g}_share"), share(g));
    }
    o.bool("holds", holds);
    o
}

fn run(w: &Workload, args: &Args) -> Result<(), String> {
    let stat0 = CpuStat::read();
    let mut checks = Checks::default();
    let mut info = JsonObject::new();
    info.str("workload", w.name);
    info.num("seed", args.seed as f64);
    info.bool("trace", args.trace);
    info.bool("tiny", args.tiny);
    info.num("world", WORLD as f64);

    // the untraced run calibrates after its repetitions, where the probe
    // buffers cannot disturb them
    let (metrics, calib) = if args.trace {
        let calib = Calibration::measure();
        (per_layer(w, args, &calib, &mut checks, &mut info), calib)
    } else {
        let m = end_to_end(w, args, &mut checks, &mut info);
        (m, Calibration::measure())
    };
    let steal = stat0.steal_pct_until(&CpuStat::read());
    info.obj("host", &host::host_block());
    info.obj("calibration", &calib.to_json(steal));
    if !metrics.all_finite() {
        checks
            .problems
            .push("a metric is not a finite number".into());
    }
    let mut problems = JsonObject::new();
    for (i, p) in checks.problems.iter().enumerate() {
        problems.str(&i.to_string(), p);
    }
    info.obj("problems", &problems);

    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!("{} seed {} ({mode}):", w.name, args.seed);
    eprint!("{}", metrics.table());
    for p in &checks.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    println!("{}", info.render());
    println!(
        "{}",
        result_line(checks.ok(), checks.attempted, checks.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.tiny) else {
        eprintln!(
            "trainbench: unknown workload `{}`; one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let res = match args.rep_world {
        Some(world) => child(&w, &args, world),
        None => run(&w, &args),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trainbench: {e}");
            ExitCode::FAILURE
        }
    }
}
