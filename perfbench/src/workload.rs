//! The four workloads and their seeded inputs.
//!
//! Inputs are generated into `.tnsb` files before any timing starts, in a
//! process of their own, so the measured program receives only files and
//! its peak memory excludes generation.

use crate::stats::file_fingerprint;
use crate::{Scale, ALS_AMAZON, ALS_POISSON2, SERVE_MTTKRP, STREAM_NELL2};
use std::path::{Path, PathBuf};
use tenblock_core::{ExecPolicy, KernelConfig, KernelKind};
use tenblock_tensor::gen::Dataset;
use tenblock_tensor::io_bin;

/// Which end-to-end path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// In-memory `CpAls` with the CLI's `decompose` defaults.
    InMemory,
    /// `CpAlsStream` over a `TileStore`, with the CLI's `--stream` defaults.
    Stream,
    /// The `tenblock serve` binary answering waited `mttkrp` requests.
    Serve,
}

/// One generated input tensor.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// File stem, also the tensor handle on the server.
    pub name: &'static str,
    pub dataset: Dataset,
    pub dims: [usize; 3],
    /// Generator nonzero target (duplicates merge, so the realized count
    /// is somewhat lower).
    pub nnz: usize,
}

/// A workload: its inputs, its path and the rank it decomposes at.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub rank: usize,
    pub inputs: Vec<InputSpec>,
}

/// ALS iterations per driver run. Every ALS workload runs with `tol = 0`
/// so each run does exactly this many iterations; a run's start-up
/// (factor initialisation, first grams, output buffers, and the `‖X‖²`
/// tile pass of the streamed driver) is spread over them.
pub const ALS_ITERS: usize = 3;

/// Tile budget of the streamed workload: 8 MiB, so the ~20 MB NELL2
/// analogue splits into 8 tiles.
pub const TILE_BUDGET: u64 = 8 << 20;

/// Rank of every serve `mttkrp` request.
pub const SERVE_RANK: usize = 16;

impl Workload {
    /// The workload called `name` at `scale`.
    pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
        let full = scale == Scale::Full;
        // Smoke inputs keep each shape's proportions at about 1/100 of
        // the nonzeros.
        let pick = |f: [usize; 3], s: [usize; 3]| if full { f } else { s };
        let nnz = |f: usize| if full { f } else { f / 100 };
        let w = match name {
            ALS_POISSON2 => Workload {
                name: ALS_POISSON2,
                driver: Driver::InMemory,
                rank: 64,
                inputs: vec![InputSpec {
                    name: "poisson2",
                    dataset: Dataset::Poisson2,
                    dims: pick([2_000, 16_000, 2_000], [200, 1_600, 200]),
                    nnz: nnz(4_100_000),
                }],
            },
            ALS_AMAZON => Workload {
                name: ALS_AMAZON,
                driver: Driver::InMemory,
                rank: 32,
                inputs: vec![InputSpec {
                    name: "amazon",
                    dataset: Dataset::Amazon,
                    dims: pick([240_000, 90_000, 90_000], [2_400, 900, 900]),
                    nnz: nnz(1_000_000),
                }],
            },
            STREAM_NELL2 => Workload {
                name: STREAM_NELL2,
                driver: Driver::Stream,
                rank: 64,
                inputs: vec![InputSpec {
                    name: "nell2",
                    dataset: Dataset::Nell2,
                    dims: pick([6_000, 4_500, 14_500], [600, 450, 1_450]),
                    nnz: nnz(1_000_000),
                }],
            },
            SERVE_MTTKRP => Workload {
                name: SERVE_MTTKRP,
                driver: Driver::Serve,
                rank: SERVE_RANK,
                inputs: vec![
                    InputSpec {
                        name: "nell2",
                        dataset: Dataset::Nell2,
                        dims: pick([6_000, 4_500, 14_500], [600, 450, 1_450]),
                        nnz: if full { 100_000 } else { 10_000 },
                    },
                    InputSpec {
                        name: "poisson2",
                        dataset: Dataset::Poisson2,
                        dims: pick([1_000, 8_000, 1_000], [100, 800, 100]),
                        nnz: if full { 100_000 } else { 10_000 },
                    },
                ],
            },
            _ => return None,
        };
        Some(w)
    }

    /// The kernel configuration the workload's in-memory kernels use: the
    /// CLI's `decompose` defaults (MB+RankB, grid 4×2×2, strip 16, all
    /// threads), or, on serve, what an `mttkrp` job builds without a
    /// cached plan (MB+RankB, no grid, default strip, serial).
    pub fn kernel_config(&self) -> (KernelKind, KernelConfig) {
        match self.driver {
            Driver::Serve => (
                KernelKind::MbRankB,
                KernelConfig {
                    exec: ExecPolicy::serial(),
                    ..Default::default()
                },
            ),
            Driver::InMemory | Driver::Stream => (
                KernelKind::MbRankB,
                KernelConfig {
                    grid: [4, 2, 2],
                    strip_width: 16,
                    exec: ExecPolicy::auto(),
                },
            ),
        }
    }

    /// Where input `spec` lives in `dir`.
    pub fn input_path(dir: &Path, spec: &InputSpec) -> PathBuf {
        dir.join(format!("{}.tnsb", spec.name))
    }

    /// Generator seed of input `i` under workload seed `seed`.
    pub fn input_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64)
    }

    /// Generates every input into `dir`; returns `(path, nnz)` per input.
    pub fn generate(&self, seed: u64, dir: &Path) -> std::io::Result<Vec<(PathBuf, usize)>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::new();
        for (i, spec) in self.inputs.iter().enumerate() {
            let t = spec
                .dataset
                .generate_with(spec.dims, spec.nnz, Self::input_seed(seed, i));
            let path = Self::input_path(dir, spec);
            io_bin::write_bin_file(&t, &path)?;
            out.push((path, t.nnz()));
        }
        Ok(out)
    }

    /// The input record printed with every result: seed, file names,
    /// nonzero counts and content fingerprints.
    pub fn describe_inputs(&self, seed: u64, dir: &Path) -> std::io::Result<String> {
        let mut items = Vec::new();
        for spec in &self.inputs {
            let path = Self::input_path(dir, spec);
            let hdr = io_bin::read_bin_header_file(&path)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            items.push(format!(
                "{{\"file\": \"{}.tnsb\", \"dims\": {:?}, \"nnz\": {}, \"fnv64\": \"{:016x}\"}}",
                spec.name,
                hdr.dims,
                hdr.nnz,
                file_fingerprint(&path)?
            ));
        }
        Ok(format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"inputs\": [{}]}}",
            self.name,
            items.join(", ")
        ))
    }
}
