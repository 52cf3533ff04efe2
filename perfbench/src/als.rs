//! The two CP-ALS paths, end to end: in-memory `CpAls` (file → factors, as
//! `tenblock decompose` runs it) and `CpAlsStream` over an on-disk
//! `TileStore` (as `tenblock decompose --stream` runs it), with the output
//! checks that feed `failed`.

use crate::stats::{median, peak_rss_bytes, repeat_setup, tail, timed};
use crate::workload::{Workload, ALS_ITERS, TILE_BUDGET};
use crate::{Report, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use tenblock_core::tune::grid_for_tile_budget;
use tenblock_core::{build_kernel, ExecPolicy, KernelConfig, KernelKind, StreamingMttkrp};
use tenblock_cpd::{CpAls, CpAlsOptions, CpAlsResult, CpAlsStream, KruskalTensor};
use tenblock_tensor::{io_bin, CooTensor, DenseMatrix, TileStore, NMODES};

/// Largest accepted relative difference between two computations that
/// must agree: a kernel against the COO reference, a reported fit against
/// an independent one.
pub const TOL: f64 = 1e-9;

/// Fewest driver runs a measurement takes, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// `CpAls` options of an in-memory workload: the CLI's `decompose`
/// defaults with `tol = 0` and `iters` iterations.
pub fn in_memory_options(w: &Workload, iters: usize) -> CpAlsOptions {
    let (kind, cfg) = w.kernel_config();
    let mut opts = CpAlsOptions::new(w.rank);
    opts.max_iters = iters;
    opts.tol = 0.0;
    opts.kernel = kind;
    opts.kernel_cfg = cfg;
    opts
}

/// `CpAlsStream` options: the CLI's `--stream` defaults (serial, strip 16)
/// with `tol = 0` and `iters` iterations.
pub fn stream_options(w: &Workload, iters: usize) -> CpAlsOptions {
    let mut opts = CpAlsOptions::new(w.rank);
    opts.max_iters = iters;
    opts.tol = 0.0;
    opts.kernel_cfg.strip_width = 16;
    opts.kernel_cfg.exec = ExecPolicy::serial();
    opts
}

/// The streamed workload's tile grid: what `decompose --stream` derives
/// from the tile budget.
pub fn stream_grid(dims: [usize; NMODES], nnz: usize) -> [usize; NMODES] {
    grid_for_tile_budget(dims, nnz, TILE_BUDGET)
}

/// Seeded random factors in `[0, 1)`, one per mode.
pub fn random_factors(dims: [usize; NMODES], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    dims.iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |_, _| rng.random::<f64>()))
        .collect()
}

/// `max |got - want| / max |want|`.
pub fn rel_err(got: &DenseMatrix, want: &DenseMatrix) -> f64 {
    let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    got.max_abs_diff(want) / scale.max(f64::MIN_POSITIVE)
}

/// One MTTKRP per mode from `kind`/`cfg` against the COO reference kernel;
/// returns each mode's relative error.
pub fn kernel_errors(x: &CooTensor, kind: KernelKind, cfg: &KernelConfig, rank: usize) -> Vec<f64> {
    let factors = random_factors(x.dims(), rank, 7);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    (0..NMODES)
        .map(|m| {
            let mut got = DenseMatrix::zeros(x.dims()[m], rank);
            build_kernel(kind, x, m, cfg).mttkrp(&fs, &mut got);
            let mut want = DenseMatrix::zeros(x.dims()[m], rank);
            build_kernel(KernelKind::Coo, x, m, &KernelConfig::default()).mttkrp(&fs, &mut want);
            rel_err(&got, &want)
        })
        .collect()
}

/// The streaming MTTKRP of every mode against the COO reference.
pub fn stream_kernel_errors(
    x: &CooTensor,
    store: &TileStore,
    rank: usize,
) -> Result<Vec<f64>, String> {
    let factors = random_factors(x.dims(), rank, 7);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    let mut errs = Vec::new();
    for m in 0..NMODES {
        let mut got = DenseMatrix::zeros(x.dims()[m], rank);
        StreamingMttkrp::new(store, m, 16)
            .run(&fs, &mut got)
            .map_err(|e| e.to_string())?;
        let mut want = DenseMatrix::zeros(x.dims()[m], rank);
        build_kernel(KernelKind::Coo, x, m, &KernelConfig::default()).mttkrp(&fs, &mut want);
        errs.push(rel_err(&got, &want));
    }
    Ok(errs)
}

/// True when every weight and factor entry is finite.
pub fn model_is_finite(model: &KruskalTensor) -> bool {
    model.lambda.iter().all(|v| v.is_finite())
        && model
            .factors
            .iter()
            .all(|f| f.as_slice().iter().all(|v| v.is_finite()))
}

/// The CP fit `1 - ‖X - M‖ / ‖X‖` of `model` to `x`, computed by another
/// route than `KruskalTensor::fit` (which evaluates the model at every
/// nonzero and takes `‖M‖²` from the library's grams): `⟨X, M⟩` comes from
/// the COO reference MTTKRP of the last mode, and `‖M‖²` from grams
/// accumulated here, in `‖X - M‖² = ‖X‖² - 2⟨X, M⟩ + ‖M‖²`.
pub fn reference_fit(model: &KruskalTensor, x: &CooTensor) -> f64 {
    let rank = model.rank();
    let last = NMODES - 1;
    let f = &model.factors;
    let mut m = DenseMatrix::zeros(x.dims()[last], rank);
    build_kernel(KernelKind::Coo, x, last, &KernelConfig::default())
        .mttkrp(&[&f[0], &f[1], &f[2]], &mut m);
    let inner: f64 = (0..m.rows())
        .map(|k| {
            let (mk, ck) = (m.row(k), f[last].row(k));
            (0..rank)
                .map(|r| model.lambda[r] * mk[r] * ck[r])
                .sum::<f64>()
        })
        .sum();
    // (AᵀA ∘ BᵀB ∘ CᵀC), row by row.
    let mut had = vec![1.0; rank * rank];
    for a in f {
        let mut g = vec![0.0; rank * rank];
        for i in 0..a.rows() {
            let row = a.row(i);
            for p in 0..rank {
                for q in 0..rank {
                    g[p * rank + q] += row[p] * row[q];
                }
            }
        }
        had.iter_mut().zip(&g).for_each(|(h, g)| *h *= g);
    }
    let model_sq: f64 = (0..rank * rank)
        .map(|pq| model.lambda[pq / rank] * model.lambda[pq % rank] * had[pq])
        .sum();
    let x_sq: f64 = x.entries().iter().map(|e| e.val * e.val).sum();
    1.0 - (x_sq - 2.0 * inner + model_sq).max(0.0).sqrt() / x_sq.sqrt()
}

/// Checks a decomposition: finite weights and factors, and a reported
/// final fit equal to [`reference_fit`] within [`TOL`].
pub fn check_model(model: &KruskalTensor, reported_fit: f64, x: &CooTensor) -> Result<(), String> {
    if !model_is_finite(model) {
        return Err("non-finite factor or weight".into());
    }
    let fit = reference_fit(model, x);
    // Written so that a NaN fit fails too.
    let agrees = (fit - reported_fit).abs() <= TOL;
    if !agrees {
        return Err(format!(
            "reported fit {reported_fit} but the model fits {fit}"
        ));
    }
    Ok(())
}

/// Final fit a driver reported.
fn final_fit(r: &CpAlsResult) -> f64 {
    r.fit_history.last().copied().unwrap_or(f64::NAN)
}

/// Writes a model as little-endian `rank, dims[3], λ, factors`.
pub fn write_model(model: &KruskalTensor, path: &Path) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend((model.rank() as u64).to_le_bytes());
    for d in model.dims() {
        bytes.extend((d as u64).to_le_bytes());
    }
    for v in model
        .lambda
        .iter()
        .chain(model.factors.iter().flat_map(|f| f.as_slice()))
    {
        bytes.extend(v.to_le_bytes());
    }
    std::fs::File::create(path)?.write_all(&bytes)
}

/// Reads a model written by [`write_model`].
pub fn read_model(path: &Path) -> std::io::Result<KruskalTensor> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let bad = || std::io::Error::other("truncated model file");
    let mut words = bytes
        .chunks_exact(8)
        .map(|c| c.try_into().expect("8-byte chunk"));
    let mut next_u = || words.next().map(u64::from_le_bytes).ok_or_else(bad);
    let rank = next_u()? as usize;
    let dims = [next_u()? as usize, next_u()? as usize, next_u()? as usize];
    let mut next_f = || next_u().map(f64::from_bits);
    let lambda = (0..rank).map(|_| next_f()).collect::<Result<Vec<_>, _>>()?;
    let mut factors = Vec::new();
    for d in dims {
        let data = (0..d * rank)
            .map(|_| next_f())
            .collect::<Result<Vec<_>, _>>()?;
        factors.push(DenseMatrix::from_vec(d, rank, data));
    }
    Ok(KruskalTensor::new(lambda, factors))
}

fn read_input(path: &Path) -> Result<CooTensor, String> {
    io_bin::read_bin_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Records the driver-run statistics shared by both ALS paths.
fn record_runs(report: &mut Report, per_iter_s: &[f64], iters: usize, total_s: f64) {
    eprintln!(
        "{} driver runs, seconds per iteration: {per_iter_s:?}",
        per_iter_s.len()
    );
    report.set("op_ms", median(per_iter_s) * 1e3);
    report.set("op_tail_ms", tail(per_iter_s) * 1e3);
    report.set("ops_per_s", iters as f64 / total_s);
    let rss = peak_rss_bytes(std::process::id()).unwrap_or(0);
    report.set("peak_rss_mb", rss as f64 / 1e6);
}

/// `als-poisson2` / `als-amazon`: set-up is `read_bin_file` plus
/// `CpAls::new` (three layouts), repeated before and after whole
/// `CpAls::run` calls of [`ALS_ITERS`] iterations, which run until
/// `seconds` of them are measured.
pub fn run_in_memory(
    w: &Workload,
    dir: &Path,
    seconds: f64,
    scale: Scale,
    report: &mut Report,
) -> Result<(), String> {
    let path = Workload::input_path(dir, &w.inputs[0]);
    let opts = in_memory_options(w, ALS_ITERS);

    // The kernel check runs on its own copy of the input before any
    // set-up, so its extra layout and the COO reference's copy of the
    // nonzeros are freed before the solver's layouts exist and never
    // set the peak memory of the run.
    let x = read_input(&path)?;
    for (m, e) in kernel_errors(&x, opts.kernel, &opts.kernel_cfg, w.rank)
        .into_iter()
        .enumerate()
    {
        report.check(e <= TOL, || {
            format!("mode-{m} MTTKRP differs from COO by {e:e}")
        });
    }
    drop(x);

    let setup = || -> Result<_, String> {
        let x = read_input(&path)?;
        let solver = CpAls::new(&x, opts.clone());
        Ok((x, solver))
    };
    let mut setups = Vec::new();
    let (x, solver) = repeat_setup(scale, &mut setups, setup)?;

    // A discarded first run: the first run in a process pays for fresh
    // pages of its buffers, which later runs reuse. Its fit becomes the
    // reference every timed run, starting from the same factors, must
    // reproduce; the last run's model is checked against an independent
    // fit once the timing is done.
    let warm = solver.run(&x);
    let reference = final_fit(&warm);
    let checked = iterations_ok(&warm).and_then(|_| {
        if model_is_finite(&warm.model) && reference.is_finite() {
            Ok(())
        } else {
            Err(format!("first run: fit {reference}, non-finite model"))
        }
    });
    report.check(checked.is_ok(), || checked.unwrap_err());

    let (mut per_iter, mut iters, mut total) = (Vec::new(), 0, 0.0);
    let mut last = warm;
    while total < seconds || per_iter.len() < MIN_RUNS {
        let (r, dt) = timed(|| solver.run(&x));
        per_iter.push(dt / r.iterations.max(1) as f64);
        iters += r.iterations;
        total += dt;
        let fit = final_fit(&r);
        let checked = iterations_ok(&r).and_then(|_| {
            if model_is_finite(&r.model) && (fit - reference).abs() <= TOL {
                Ok(())
            } else {
                Err(format!(
                    "run fit {fit} differs from the first run's {reference}"
                ))
            }
        });
        report.check(checked.is_ok(), || checked.unwrap_err());
        last = r;
    }
    record_runs(report, &per_iter, iters, total);
    // After the peak memory is read, and without the solver's layouts.
    drop(solver);
    let checked = check_model(&last.model, final_fit(&last), &x);
    report.check(checked.is_ok(), || checked.unwrap_err());
    drop((x, last));
    repeat_setup(scale, &mut setups, setup)?;
    report.set("setup_s", median(&setups));
    Ok(())
}

/// A driver run must do exactly [`ALS_ITERS`] iterations.
fn iterations_ok(r: &CpAlsResult) -> Result<(), String> {
    if r.iterations == ALS_ITERS {
        Ok(())
    } else {
        Err(format!(
            "ran {} iterations, expected {ALS_ITERS}",
            r.iterations
        ))
    }
}

/// Runs `perfbench check-stream`: the streamed workload's output checks,
/// which need the whole tensor in memory, run outside the measured
/// process so its peak memory stays the stream's.
fn check_stream_out_of_process(
    perfbench: &Path,
    input: &Path,
    store: &Path,
    rank: usize,
    model: Option<(&Path, f64)>,
) -> Result<(), String> {
    let mut cmd = Command::new(perfbench);
    cmd.arg("check-stream")
        .arg("--input")
        .arg(input)
        .arg("--store")
        .arg(store)
        .arg("--rank")
        .arg(rank.to_string());
    if let Some((path, fit)) = model {
        cmd.arg("--model")
            .arg(path)
            .arg("--fit")
            .arg(format!("{fit:?}"));
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning check-stream: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).trim().to_string())
    }
}

/// The `check-stream` subcommand body: streaming MTTKRP against the COO
/// reference per mode and, given a model, its fit against the reported
/// one.
pub fn check_stream(
    input: &Path,
    store: &Path,
    rank: usize,
    model: Option<(PathBuf, f64)>,
) -> Result<(), String> {
    let x = read_input(input)?;
    let store = TileStore::open(store).map_err(|e| e.to_string())?;
    for (m, e) in stream_kernel_errors(&x, &store, rank)?
        .into_iter()
        .enumerate()
    {
        let agrees = e <= TOL;
        if !agrees {
            return Err(format!(
                "streamed mode-{m} MTTKRP differs from COO by {e:e}"
            ));
        }
    }
    if let Some((path, fit)) = model {
        let model = read_model(&path).map_err(|e| e.to_string())?;
        check_model(&model, fit, &x)?;
    }
    Ok(())
}

/// `stream-nell2`: set-up is `TileStore::build_from_tnsb` (write, fsync,
/// rename), repeated before and after whole `CpAlsStream::run` calls.
/// `perfbench` is the executable whose `check-stream` subcommand checks
/// the outputs.
pub fn run_stream(
    w: &Workload,
    dir: &Path,
    perfbench: &Path,
    seconds: f64,
    scale: Scale,
    report: &mut Report,
) -> Result<(), String> {
    let input = Workload::input_path(dir, &w.inputs[0]);
    let hdr = io_bin::read_bin_header_file(&input).map_err(|e| e.to_string())?;
    let dims = [hdr.dims[0], hdr.dims[1], hdr.dims[2]];
    let grid = stream_grid(dims, hdr.nnz as usize);
    let store_path = dir.join("store.tiles.tnsb");
    let setup = || TileStore::build_from_tnsb(&input, grid, &store_path).map_err(|e| e.to_string());
    let mut setups = Vec::new();
    let store = repeat_setup(scale, &mut setups, setup)?;

    let pre = check_stream_out_of_process(perfbench, &input, &store_path, w.rank, None);
    report.check(pre.is_ok(), || pre.unwrap_err());

    let opts = stream_options(w, ALS_ITERS);
    let run = || {
        CpAlsStream::new(&store, opts.clone())
            .run()
            .map_err(|e| format!("streamed ALS failed: {e}"))
    };
    // A discarded first run, as on the in-memory path; serial streaming is
    // deterministic, so every timed run must reproduce its fits exactly.
    let warm = run()?;
    let (mut per_iter, mut iters, mut total) = (Vec::new(), 0, 0.0);
    let mut last = None;
    while total < seconds || per_iter.len() < MIN_RUNS {
        let (r, dt) = timed(run);
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || e);
                break;
            }
        };
        per_iter.push(dt / r.iterations.max(1) as f64);
        iters += r.iterations;
        total += dt;
        let ok = iterations_ok(&r).is_ok()
            && model_is_finite(&r.model)
            && r.fit_history == warm.fit_history;
        report.check(ok, || {
            format!(
                "streamed run: {} iterations, fits {:?}",
                r.iterations, r.fit_history
            )
        });
        last = Some(r);
    }
    record_runs(report, &per_iter, iters, total);

    let last = last.ok_or("no streamed run succeeded")?;
    let model_path = dir.join("stream-model.bin");
    write_model(&last.model, &model_path).map_err(|e| e.to_string())?;
    let post = check_stream_out_of_process(
        perfbench,
        &input,
        &store_path,
        w.rank,
        Some((&model_path, final_fit(&last))),
    );
    report.check(post.is_ok(), || post.unwrap_err());
    drop(store);
    repeat_setup(scale, &mut setups, setup)?;
    report.set("setup_s", median(&setups));
    Ok(())
}
