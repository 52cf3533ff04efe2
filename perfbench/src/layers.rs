//! The traced run: every per-layer metric, measured on the workload's own
//! inputs.
//!
//! Each layer on the two end-to-end paths is probed by timing calls into
//! its public functions from this file, under benchmark spans (`bench/*`)
//! recorded into one in-memory [`TraceRecorder`]. The same recorder is
//! attached to the kernels' and drivers' `ExecPolicy`, so the spans the
//! program already emits (`cpd/als/iter`, `mttkrp/*`) nest under the
//! benchmark's. Spans are written out when the run ends.
//!
//! Every workload reports every layer metric. A layer that is off a
//! workload's own path (the serve layer on `als-poisson2`, say) is
//! exercised on that workload's inputs with the workload's rank and
//! kernel configuration; the README says which workload each metric is
//! meant to be read on.

use crate::als::{
    check_model, in_memory_options, kernel_errors, random_factors, stream_grid, stream_options, TOL,
};
use crate::serve::{self, closed_loop, metrics_checked, tally, Until};
use crate::stats::{mean, median, timed};
use crate::workload::{Driver, Workload, ALS_ITERS};
use crate::{Report, Scale};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenblock_core::obs::{KernelCounters, Rec, SpanSnapshot, StreamStats, TraceRecorder};
use tenblock_core::{build_kernel, ExecPolicy, KernelKind, MttkrpKernel, StreamingMttkrp};
use tenblock_cpd::linalg::{gram, hadamard_assign, normalize_columns, solve_spd_rhs_rows};
use tenblock_cpd::{CpAls, CpAlsOptions, CpAlsStream, KruskalTensor};
use tenblock_serve::Json;
use tenblock_tensor::{io_bin, CooTensor, DenseMatrix, TensorSource, TileStore, NMODES};

/// Timed repetitions of each kernel call; the median is reported.
const CORE_REPS: usize = 3;

/// Alternations of untraced driver, mirror and traced driver.
const CPD_REPS: usize = 3;

/// Cache sizes of cpu0 from sysfs: `(L2 bytes, last-level bytes)`.
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = 0;
    let mut llc_level = 0;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        let level: u32 = level.parse().unwrap_or(0);
        let bytes = parse_size(&size);
        if level == 2 {
            l2 = bytes;
        }
        if level >= llc_level {
            llc_level = level;
            llc = bytes;
        }
    }
    (l2, llc)
}

/// Parses a sysfs cache size such as `2048K` or `300M`.
fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().unwrap_or(0) * mult
}

/// STREAM triad `a = b + s·c` on two threads with each array
/// `array_bytes` long; returns the best of three passes in GB/s, counting
/// 24 bytes per element as STREAM does.
pub fn triad_gbs(array_bytes: u64) -> f64 {
    let n = (array_bytes / 8) as usize;
    let threads = 2;
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for i in 0..a.len() {
                        a[i] = b[i] + 3.0 * c[i];
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    assert!(a.iter().all(|&v| v == 7.0), "triad result is wrong");
    24.0 * n as f64 / best / 1e9
}

/// Sums of the per-input probes; shares and rates are formed at the end.
#[derive(Default)]
struct Sums {
    load_s: f64,
    layout_s: f64,
    layout_bytes: f64,
    nnz: f64,
    store_s: f64,
    store_bytes: f64,
    tile_s: f64,
    tile_bytes: f64,
    mode_s: [f64; NMODES],
    serial_s: f64,
    splatt_s: f64,
    b_bytes: f64,
    pass_s: f64,
    stall_s: f64,
    tiles: f64,
    streamed: f64,
    retries: f64,
    mirror: Steps,
    driver_s: f64,
    traced_driver_s: f64,
}

/// Per-iteration times of one mirrored driver run, by step.
#[derive(Default, Clone, Copy)]
struct Steps {
    total: f64,
    gram: f64,
    solve: f64,
    normalize: f64,
    fit: f64,
    /// Time covered by any timed call, the steps above included.
    attributed: f64,
}

impl Steps {
    fn add(&mut self, o: &Steps) {
        self.total += o.total;
        self.gram += o.gram;
        self.solve += o.solve;
        self.normalize += o.normalize;
        self.fit += o.fit;
        self.attributed += o.attributed;
    }

    fn per_iter(mut self) -> Steps {
        let n = ALS_ITERS as f64;
        for v in [
            &mut self.total,
            &mut self.gram,
            &mut self.solve,
            &mut self.normalize,
            &mut self.fit,
            &mut self.attributed,
        ] {
            *v /= n;
        }
        self
    }
}

/// Adds the median of alternated driver, mirror and traced-driver runs
/// (per-iteration seconds) to `sums`. Alternating them keeps a slow phase
/// of the machine from landing on one side only.
fn add_cpd(sums: &mut Sums, driver: &[f64], mirrors: &mut [Steps], traced: &[f64]) {
    sums.driver_s += median(driver);
    sums.traced_driver_s += median(traced);
    mirrors.sort_by(|a, b| a.total.total_cmp(&b.total));
    sums.mirror.add(&mirrors[mirrors.len() / 2]);
}

fn time_calls(rec: &Rec, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let _s = rec.span(name);
            timed(&mut f).1
        })
        .collect();
    median(&times)
}

/// The traced run of `w`: fills `report` with every per-layer metric and
/// returns the recorded spans.
pub fn run_traced(
    w: &Workload,
    dir: &Path,
    bin: &Path,
    scale: Scale,
    report: &mut Report,
) -> Result<Vec<SpanSnapshot>, String> {
    let tracer = Arc::new(TraceRecorder::new());
    let rec = Rec::new(Arc::clone(&tracer) as _);
    let mut sums = Sums::default();
    {
        let _run = rec.span("bench/run");

        let (l2, llc) = cache_sizes();
        let array_bytes = match scale {
            Scale::Full => 4 * llc.max(1 << 20),
            Scale::Smoke => 1 << 23,
        };
        let gbs = {
            let _s = rec.span("bench/machine/triad");
            triad_gbs(array_bytes)
        };
        report.set("machine.l2_bytes", l2 as f64);
        report.set("machine.llc_bytes", llc as f64);
        report.set("machine.triad_gbs", gbs);
        report.set("machine.triad_array_bytes", array_bytes as f64);

        for spec in &w.inputs {
            let path = Workload::input_path(dir, spec);
            probe_in_memory(w, &path, &rec, &mut sums, report)?;
            probe_stream(w, &path, dir, &rec, &mut sums)?;
        }
        probe_serve(w, dir, bin, scale, &rec, report)?;

        let b_over = |cache: u64| sums.b_bytes / cache.max(1) as f64;
        report.set("core.factor_b_over_l2", b_over(l2));
        report.set("core.factor_b_over_llc", b_over(llc));
    }
    let spans = tracer.snapshot();
    record_sums(w, &sums, report);
    finish_from_spans(w, &spans, &sums, report);
    Ok(spans)
}

/// Per-layer metrics formed from the probes' sums.
fn record_sums(w: &Workload, s: &Sums, report: &mut Report) {
    report.set("tensor.load_s", s.load_s);
    report.set("tensor.layout_build_s", s.layout_s);
    report.set("tensor.layout_bytes_per_nnz", s.layout_bytes / s.nnz);
    report.set("tensor.store_build_s", s.store_s);
    report.set("tensor.store_bytes", s.store_bytes);
    report.set("tensor.tile_load_s", s.tile_s);
    report.set("tensor.tile_load_gbs", s.tile_bytes / s.tile_s / 1e9);
    report.set("core.mttkrp_m0_s", s.mode_s[0]);
    report.set("core.mttkrp_m1_s", s.mode_s[1]);
    report.set("core.mttkrp_m2_s", s.mode_s[2]);
    report.set("core.mttkrp_serial_s", s.serial_s);
    report.set("core.parallel_speedup", s.serial_s / s.mode_s[0]);
    report.set("core.splatt_s", s.splatt_s);
    report.set("core.speedup_vs_splatt", s.splatt_s / s.mode_s[0]);
    report.set("stream.pass_s", s.pass_s);
    report.set("stream.prefetch_stall_s", s.stall_s);
    report.set("stream.stall_share", s.stall_s / s.pass_s);
    report.set("stream.tiles_loaded", s.tiles);
    report.set("stream.bytes_streamed", s.streamed);
    report.set("stream.tile_retries", s.retries);
    let m = &s.mirror;
    report.set("cpd.gram_s", m.gram);
    report.set("cpd.solve_s", m.solve);
    report.set("cpd.normalize_s", m.normalize);
    report.set("cpd.fit_s", m.fit);
    report.set(
        "cpd.algebra_share",
        (m.gram + m.solve + m.normalize) / m.total,
    );
    report.set("cpd.unattributed_share", 1.0 - m.attributed / m.total);
    report.set("cpd.mirror_gap_frac", m.total / s.driver_s - 1.0);
    if w.driver != Driver::Serve {
        report.set(
            "bench.trace_overhead_frac",
            s.traced_driver_s / s.driver_s - 1.0,
        );
    }
}

/// Kernel counters of one pass over every mode, from the `mttkrp/*` spans
/// the kernels emitted under `bench/core/mttkrp`.
fn core_counters(spans: &[SpanSnapshot]) -> KernelCounters {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "bench/core/mttkrp")
        .map(|s| s.id)
        .collect();
    let mut sum = KernelCounters::default();
    for c in spans
        .iter()
        .filter(|s| s.name.starts_with("mttkrp/") && parents.contains(&s.parent))
        .filter_map(|s| s.counters)
    {
        sum.flops += c.flops;
        sum.tensor_bytes += c.tensor_bytes;
        sum.factor_bytes += c.factor_bytes;
    }
    sum.flops /= CORE_REPS as u64;
    sum.tensor_bytes /= CORE_REPS as u64;
    sum.factor_bytes /= CORE_REPS as u64;
    sum
}

/// Share of the traced driver's iterations spent in `mttkrp/*` spans.
fn driver_mttkrp_share(spans: &[SpanSnapshot]) -> f64 {
    let iters: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "cpd/als/iter")
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let in_kernels: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("mttkrp/") && iters.contains_key(&s.parent))
        .map(|s| s.dur_ns())
        .sum();
    in_kernels as f64 / iters.values().sum::<u64>().max(1) as f64
}

fn finish_from_spans(w: &Workload, spans: &[SpanSnapshot], sums: &Sums, report: &mut Report) {
    let c = core_counters(spans);
    let pass_s: f64 = sums.mode_s.iter().sum();
    let bytes = c.total_bytes() as f64;
    report.set("core.mttkrp_flops", c.flops as f64);
    report.set("core.mttkrp_bytes_computed", bytes);
    report.set("core.mttkrp_flop_per_byte", c.flops as f64 / bytes);
    report.set("core.mttkrp_gbs", bytes / pass_s / 1e9);
    let triad = report.get("machine.triad_gbs").unwrap_or(f64::NAN);
    report.set("core.mttkrp_peak_frac", bytes / pass_s / 1e9 / triad);
    if w.driver != Driver::Serve {
        report.set("core.mttkrp_share", driver_mttkrp_share(spans));
    }
}

/// `tensor`, `core` and `cpd` probes of one input.
fn probe_in_memory(
    w: &Workload,
    path: &Path,
    rec: &Rec,
    sums: &mut Sums,
    report: &mut Report,
) -> Result<(), String> {
    let (kind, cfg) = w.kernel_config();
    let traced = cfg
        .clone()
        .with_exec(cfg.exec.clone().with_recorder(rec.clone()));
    let (x, load_s) = {
        let _s = rec.span("bench/tensor/load");
        timed(|| io_bin::read_bin_file(path))
    };
    let x = x.map_err(|e| e.to_string())?;
    let (kernels, layout_s) = {
        let _s = rec.span("bench/tensor/layout");
        timed(|| {
            (0..NMODES)
                .map(|m| build_kernel(kind, &x, m, &traced))
                .collect::<Vec<_>>()
        })
    };
    sums.load_s += load_s;
    sums.layout_s += layout_s;
    sums.layout_bytes += kernels.iter().map(|k| k.tensor_bytes() as f64).sum::<f64>();
    sums.nnz += x.nnz() as f64;
    sums.b_bytes += (x.dims()[1] * w.rank * 8) as f64;

    for (m, e) in kernel_errors(&x, kind, &cfg, w.rank)
        .into_iter()
        .enumerate()
    {
        report.check(e <= TOL, || {
            format!("mode-{m} MTTKRP differs from COO by {e:e}")
        });
    }

    let dims = x.dims();
    let factors = random_factors(dims, w.rank, 11);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    for m in 0..NMODES {
        let mut out = DenseMatrix::zeros(dims[m], w.rank);
        time_calls(rec, "bench/core/warm", 1, || {
            kernels[m].mttkrp(&fs, &mut out)
        });
        let t = time_calls(rec, "bench/core/mttkrp", CORE_REPS, || {
            kernels[m].mttkrp(&fs, &mut out)
        });
        sums.mode_s[m] += t;
    }
    let mut out = DenseMatrix::zeros(dims[0], w.rank);
    let serial = build_kernel(kind, &x, 0, &cfg.clone().with_exec(ExecPolicy::serial()));
    sums.serial_s += time_calls(rec, "bench/core/serial", CORE_REPS, || {
        serial.mttkrp(&fs, &mut out)
    });
    drop(serial);
    let splatt = build_kernel(KernelKind::Splatt, &x, 0, &cfg);
    sums.splatt_s += time_calls(rec, "bench/core/splatt", CORE_REPS, || {
        splatt.mttkrp(&fs, &mut out)
    });
    drop(splatt);

    match w.driver {
        Driver::Stream => drop(kernels),
        Driver::InMemory | Driver::Serve => {
            let opts = in_memory_options(w, ALS_ITERS);
            let untraced = CpAls::new(&x, opts.clone());
            let traced_driver = CpAls::new(
                &x,
                CpAlsOptions {
                    kernel_cfg: traced,
                    ..opts
                },
            );
            // The first run in a process pays for fresh pages of its
            // buffers; compare warm runs only.
            let r = untraced.run(&x);
            let fit = r.fit_history.last().copied().unwrap_or(f64::NAN);
            let checked = check_model(&r.model, fit, &x);
            report.check(checked.is_ok(), || checked.unwrap_err());
            let (mut driver, mut mirrors, mut traced) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..CPD_REPS {
                driver.push(timed(|| untraced.run(&x)).1 / ALS_ITERS as f64);
                let (steps, mirrored) = mirror_in_memory(w, &x, &kernels, rec);
                mirrors.push(steps);
                // The mirror must walk the driver's path exactly.
                report.check((fit - mirrored).abs() <= TOL, || {
                    format!("mirrored fit {mirrored} != driver fit {fit}")
                });
                let _s = rec.span("bench/cpd/driver");
                traced.push(timed(|| traced_driver.run(&x)).1 / ALS_ITERS as f64);
            }
            add_cpd(sums, &driver, &mut mirrors, &traced);
        }
    }
    Ok(())
}

/// `CpAls::run`, step for step, with each step timed under its own span.
/// Returns the step times and the final fit.
fn mirror_in_memory(
    w: &Workload,
    x: &CooTensor,
    kernels: &[Box<dyn MttkrpKernel>],
    rec: &Rec,
) -> (Steps, f64) {
    let opts = in_memory_options(w, ALS_ITERS);
    let mut steps = Steps::default();
    let t0 = Instant::now();
    let _s = rec.span("bench/cpd/mirror");
    let rank = w.rank;
    let dims = x.dims();
    let mut factors = random_factors(dims, rank, opts.seed);
    let mut lambda = vec![1.0; rank];
    let mut grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();
    let mut out: Vec<DenseMatrix> = dims.iter().map(|&d| DenseMatrix::zeros(d, rank)).collect();
    let mut fit = f64::NAN;
    for _ in 0..ALS_ITERS {
        let _it = rec.span("bench/cpd/iter");
        for m in 0..NMODES {
            let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
            steps.attributed += time_calls(rec, "bench/cpd/mttkrp", 1, || {
                kernels[m].mttkrp(&fs, &mut out[m])
            });
            lambda = algebra_step(m, &mut factors, &mut grams, &out[m], rec, &mut steps);
        }
        let (f, dt) = {
            let _s = rec.span("bench/cpd/fit");
            timed(|| KruskalTensor::new(lambda.clone(), factors.clone()).fit(x))
        };
        fit = f;
        steps.fit += dt;
        steps.attributed += dt;
    }
    steps.total = t0.elapsed().as_secs_f64();
    (steps.per_iter(), fit)
}

/// One mode's dense algebra, as both ALS drivers do it: Hadamard of the
/// other grams and the SPD solve, column normalisation, the new gram.
fn algebra_step(
    m: usize,
    factors: &mut [DenseMatrix],
    grams: &mut [DenseMatrix],
    mttkrp: &DenseMatrix,
    rec: &Rec,
    steps: &mut Steps,
) -> Vec<f64> {
    let others: Vec<usize> = (0..NMODES).filter(|&o| o != m).collect();
    let (mut updated, solve) = {
        let _s = rec.span("bench/cpd/solve");
        timed(|| {
            let mut v = grams[others[0]].clone();
            hadamard_assign(&mut v, &grams[others[1]]);
            solve_spd_rhs_rows(&v, mttkrp)
        })
    };
    let (lambda, normalize) = {
        let _s = rec.span("bench/cpd/normalize");
        timed(|| normalize_columns(&mut updated))
    };
    factors[m] = updated;
    let (g, gram_s) = {
        let _s = rec.span("bench/cpd/gram");
        timed(|| gram(&factors[m]))
    };
    grams[m] = g;
    steps.solve += solve;
    steps.normalize += normalize;
    steps.gram += gram_s;
    steps.attributed += solve + normalize + gram_s;
    lambda
}

/// `tensor` store probes and `stream` probes of one input; on the
/// streamed workload, also its `cpd` mirror and driver comparison.
fn probe_stream(
    w: &Workload,
    path: &Path,
    dir: &Path,
    rec: &Rec,
    sums: &mut Sums,
) -> Result<(), String> {
    let hdr = io_bin::read_bin_header_file(path).map_err(|e| e.to_string())?;
    let dims = [hdr.dims[0], hdr.dims[1], hdr.dims[2]];
    let grid = stream_grid(dims, hdr.nnz as usize);
    let store_path = dir.join("probe.tiles.tnsb");
    let (store, dt) = {
        let _s = rec.span("bench/tensor/store_build");
        timed(|| TileStore::build_from_tnsb(path, grid, &store_path))
    };
    let store = store.map_err(|e| e.to_string())?;
    sums.store_s += dt;
    sums.store_bytes += std::fs::metadata(&store_path)
        .map_err(|e| e.to_string())?
        .len() as f64;

    let (loaded, dt) = {
        let _s = rec.span("bench/tensor/tile_load");
        timed(|| (0..store.n_tiles()).try_for_each(|i| store.load_tile(i).map(drop)))
    };
    loaded.map_err(|e| e.to_string())?;
    sums.tile_s += dt;
    sums.tile_bytes += (0..store.n_tiles())
        .map(|i| store.tile(i).len as f64)
        .sum::<f64>();

    let exec = ExecPolicy::serial().with_recorder(rec.clone());
    let stats = Arc::new(StreamStats::new());
    let factors = random_factors(dims, w.rank, 11);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    for m in 0..NMODES {
        let mut out = DenseMatrix::zeros(dims[m], w.rank);
        let driver = StreamingMttkrp::new(&store, m, 16)
            .with_exec(exec.clone())
            .with_stats(Arc::clone(&stats));
        let (r, dt) = {
            let _s = rec.span("bench/stream/pass");
            timed(|| driver.run(&fs, &mut out))
        };
        r.map_err(|e| e.to_string())?;
        sums.pass_s += dt;
    }
    let snap = stats.snapshot();
    sums.stall_s += snap.prefetch_stall_ns as f64 / 1e9;
    sums.tiles += snap.tiles_loaded as f64;
    sums.streamed += snap.bytes_streamed as f64;
    sums.retries += snap.tile_retries as f64;

    if w.driver == Driver::Stream {
        let opts = stream_options(w, ALS_ITERS);
        let mut traced_opts = opts.clone();
        traced_opts.kernel_cfg.exec = exec;
        let run = |o: &CpAlsOptions| -> Result<f64, String> {
            let (r, dt) = timed(|| CpAlsStream::new(&store, o.clone()).run());
            r.map_err(|e| e.to_string())?;
            Ok(dt / ALS_ITERS as f64)
        };
        run(&opts)?;
        let (mut driver, mut mirrors, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..CPD_REPS {
            driver.push(run(&opts)?);
            mirrors.push(mirror_stream(w, &store, rec)?);
            let _s = rec.span("bench/cpd/driver");
            traced.push(run(&traced_opts)?);
        }
        add_cpd(sums, &driver, &mut mirrors, &traced);
    }
    drop(store);
    std::fs::remove_file(&store_path).map_err(|e| e.to_string())?;
    Ok(())
}

/// `CpAlsStream::run`, step for step: the `‖X‖²` tile pass, streamed
/// MTTKRPs, the shared algebra, and the SPLATT-identity fit.
fn mirror_stream(w: &Workload, store: &TileStore, rec: &Rec) -> Result<Steps, String> {
    let opts = stream_options(w, ALS_ITERS);
    let mut steps = Steps::default();
    let exec = ExecPolicy::serial().with_recorder(rec.clone());
    let t0 = Instant::now();
    let _s = rec.span("bench/cpd/mirror");
    let rank = w.rank;
    let dims = store.dims();
    let mut factors = random_factors(dims, rank, opts.seed);
    let mut lambda = vec![1.0; rank];
    let mut grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();
    let mut out: Vec<DenseMatrix> = dims.iter().map(|&d| DenseMatrix::zeros(d, rank)).collect();
    let (x_sq, dt) = {
        let _s = rec.span("bench/cpd/sq_norm");
        timed(|| -> Result<f64, String> {
            let mut total = 0.0;
            for i in 0..store.n_tiles() {
                let tile = TensorSource::load_tile(store, i).map_err(|e| e.to_string())?;
                total += tile.vals.iter().map(|v| v * v).sum::<f64>();
            }
            Ok(total)
        })
    };
    let x_sq = x_sq?;
    steps.attributed += dt;
    for _ in 0..ALS_ITERS {
        let _it = rec.span("bench/cpd/iter");
        for m in 0..NMODES {
            let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
            let driver = StreamingMttkrp::new(store, m, 16).with_exec(exec.clone());
            let (r, dt) = {
                let _s = rec.span("bench/cpd/mttkrp");
                timed(|| driver.run(&fs, &mut out[m]))
            };
            r.map_err(|e| e.to_string())?;
            steps.attributed += dt;
            lambda = algebra_step(m, &mut factors, &mut grams, &out[m], rec, &mut steps);
        }
        let (_, dt) = {
            let _s = rec.span("bench/cpd/fit");
            timed(|| {
                let (m2, a2) = (&out[NMODES - 1], &factors[NMODES - 1]);
                let inner: f64 = lambda
                    .iter()
                    .enumerate()
                    .map(|(r, &l)| {
                        l * (0..dims[NMODES - 1])
                            .map(|k| m2.get(k, r) * a2.get(k, r))
                            .sum::<f64>()
                    })
                    .sum();
                let model_sq = KruskalTensor::new(lambda.clone(), factors.clone()).sq_norm();
                1.0 - ((x_sq - 2.0 * inner + model_sq).max(0.0).sqrt() / x_sq.sqrt())
            })
        };
        steps.fit += dt;
        steps.attributed += dt;
    }
    steps.total = t0.elapsed().as_secs_f64();
    Ok(steps.per_iter())
}

/// Mean of a `metrics` histogram, in milliseconds.
fn hist_ms(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|h| h.get_num("mean_secs"))
        .unwrap_or(f64::NAN)
        * 1e3
}

/// The serve layer on the workload's inputs: the real server, loaded
/// with them, answering waited `mttkrp` requests. On `serve-mttkrp` this
/// is the workload's own closed loop, first untraced and then with a
/// client span per request; elsewhere, one connection sends two requests
/// per tensor × mode.
fn probe_serve(
    w: &Workload,
    dir: &Path,
    bin: &Path,
    scale: Scale,
    rec: &Rec,
    report: &mut Report,
) -> Result<(), String> {
    let server = {
        let _s = rec.span("bench/serve/start");
        serve::start(bin, w, dir)?
    };
    let combos = 3 * w.inputs.len();
    let mut samples = closed_loop(&server.addr, w, 1, Until::Count(combos), &Rec::noop());
    if w.driver == Driver::Serve {
        let secs = match scale {
            Scale::Full => 3.0,
            Scale::Smoke => 0.3,
        };
        let window = |rec: &Rec| {
            closed_loop(
                &server.addr,
                w,
                serve::CONNECTIONS,
                Until::Deadline(Instant::now() + Duration::from_secs_f64(secs)),
                rec,
            )
        };
        let plain = window(&Rec::noop());
        let traced = window(rec);
        let avg = |s: &[serve::Sample]| mean(&s.iter().map(|s| s.rtt_s).collect::<Vec<_>>());
        report.set(
            "bench.trace_overhead_frac",
            avg(&traced) / avg(&plain) - 1.0,
        );
        samples.extend(plain);
        samples.extend(traced);
    } else {
        samples.extend(closed_loop(
            &server.addr,
            w,
            1,
            Until::Count(combos),
            &Rec::noop(),
        ));
    }
    let rtts = tally(&samples, report);
    let metrics = metrics_checked(&server.addr, samples.len() as u64, report)?;
    drop(server);

    let kernel = hist_ms(&metrics, "mttkrp_latency");
    let rtt_ms = mean(&rtts) * 1e3;
    report.set("serve.kernel_ms", kernel);
    report.set("serve.build_ms", hist_ms(&metrics, "job_run") - kernel);
    report.set("serve.wire_ms", rtt_ms - hist_ms(&metrics, "job_latency"));
    report.set("serve.queue_wait_ms", hist_ms(&metrics, "job_queue_wait"));
    report.set("serve.requests", samples.len() as f64);
    let rejected = metrics
        .get("metrics")
        .and_then(|m| m.get("jobs"))
        .and_then(|j| j.get_num("rejected"));
    report.set("serve.jobs_rejected", rejected.unwrap_or(f64::NAN));
    if w.driver == Driver::Serve {
        report.set("core.mttkrp_share", kernel / rtt_ms);
    }

    // The server's own JSON work on this workload's lines: parse every
    // request, encode every reply.
    let replies: Vec<Json> = samples
        .iter()
        .filter_map(|s| Json::parse(&s.reply).ok())
        .collect();
    let reps = 20;
    let (_, parse_s) = timed(|| {
        for _ in 0..reps {
            for s in &samples {
                std::hint::black_box(Json::parse(std::hint::black_box(&s.request)).ok());
            }
        }
    });
    let (_, encode_s) = timed(|| {
        for _ in 0..reps {
            for r in &replies {
                std::hint::black_box(std::hint::black_box(r).to_string_compact());
            }
        }
    });
    report.set(
        "serve.json_parse_us",
        parse_s / (reps * samples.len()) as f64 * 1e6,
    );
    report.set(
        "serve.json_encode_us",
        encode_s / (reps * replies.len().max(1)) as f64 * 1e6,
    );
    Ok(())
}
