//! Replays the exact memory-access sequence of each MTTKRP kernel through
//! the cache simulator, yielding measured per-structure hit rates — the `α`
//! of Equation (1), measured instead of assumed.
//!
//! Four access streams are distinguished, matching the structures of
//! Section IV-A: the tensor itself (`val`, `j_index`, fiber metadata), the
//! mode-2 factor `B`, the mode-3 factor `C`, and the destination factor
//! `A`. The per-fiber accumulator is excluded, as in the paper's Equation
//! (1) (it is register/L1-resident; its cost is load-unit pressure, not
//! memory traffic — that half of the story is [`crate::ppa`]).

use crate::cache::{CacheSim, LevelStats};
use tenblock_core::block::BlockGrid;
use tenblock_tensor::{CooTensor, SplattTensor, NMODES};

/// The access streams tracked by the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Tensor storage: values, `j_index`, fiber `k_index`/`k_pointer`.
    Tensor = 0,
    /// The within-fiber ("mode-2") factor matrix.
    B = 1,
    /// The fiber ("mode-3") factor matrix.
    C = 2,
    /// The destination factor matrix.
    A = 3,
}

const N_STREAMS: usize = 4;
const T: usize = Stream::Tensor as usize;
const SB: usize = Stream::B as usize;
const SC: usize = Stream::C as usize;
const SA: usize = Stream::A as usize;

/// Which kernel's access pattern to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKernel {
    /// Baseline Algorithm 1.
    Splatt,
    /// Multi-dimensional blocking with the given grid (kernel axes).
    Mb([usize; NMODES]),
    /// Rank blocking with the given strip width.
    RankB(usize),
    /// Combined MB + RankB.
    MbRankB([usize; NMODES], usize),
}

/// Measured locality of one kernel replay.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Kernel that was replayed.
    pub kernel: TraceKernel,
    /// L1 stats per stream.
    pub l1: [LevelStats; N_STREAMS],
    /// Whole-hierarchy hit rate per stream (fraction not going to memory).
    pub hierarchy: [f64; N_STREAMS],
    /// Bytes fetched from main memory across all streams.
    pub memory_bytes: u64,
    /// Measured `α` over the factor-matrix accesses (B and C combined) —
    /// the quantity Equation (1) parameterizes.
    pub alpha_factors: f64,
}

/// Virtual addresses of one (sub-)tensor's arrays.
#[derive(Clone, Copy)]
struct BlockAddrs {
    val: u64,
    jix: u64,
    kid: u64,
    ptr: u64,
}

/// Trivial bump allocator for laying structures out in the simulated
/// address space (page-aligned regions, never overlapping).
struct Alloc {
    next: u64,
}

impl Alloc {
    fn new() -> Self {
        Alloc { next: 0x10_000 }
    }

    fn region(&mut self, bytes: usize) -> u64 {
        let base = self.next;
        self.next += ((bytes as u64 + 4095) & !4095) + 4096;
        base
    }
}

fn alloc_block(a: &mut Alloc, t: &SplattTensor) -> BlockAddrs {
    BlockAddrs {
        val: a.region(t.nnz() * 8),
        jix: a.region(t.nnz() * 4),
        kid: a.region(t.n_fibers() * 4),
        ptr: a.region((t.n_fibers() + 1) * 8),
    }
}

/// Replays Algorithm 1 over one (sub-)tensor.
fn walk_plain(
    sim: &mut CacheSim,
    t: &SplattTensor,
    ad: &BlockAddrs,
    b_base: u64,
    c_base: u64,
    a_base: u64,
    rank: usize,
) {
    let (_, _, _, j_idx, _) = t.raw();
    let row_bytes = rank * 8;
    for s in 0..t.n_slices() {
        let g = t.slice_global(s);
        for f in t.slice_fibers(s) {
            sim.access(ad.kid + f as u64 * 4, T);
            sim.access(ad.ptr + f as u64 * 8, T);
            for n in t.fiber_nnz(f) {
                sim.access(ad.val + n as u64 * 8, T);
                sim.access(ad.jix + n as u64 * 4, T);
                sim.access_range(b_base + j_idx[n] as u64 * row_bytes as u64, row_bytes, SB);
            }
            let kid = t.fiber_kid(f) as u64;
            sim.access_range(c_base + kid * row_bytes as u64, row_bytes, SC);
            sim.access_range(a_base + g as u64 * row_bytes as u64, row_bytes, SA);
        }
    }
}

/// Replays the register-blocked pass of Algorithm 2 over one column window.
#[allow(clippy::too_many_arguments)]
fn walk_rankb(
    sim: &mut CacheSim,
    t: &SplattTensor,
    ad: &BlockAddrs,
    b_base: u64,
    c_base: u64,
    a_base: u64,
    rank: usize,
    col0: usize,
    width: usize,
) {
    let (_, _, _, j_idx, _) = t.raw();
    let row_bytes = rank as u64 * 8;
    for s in 0..t.n_slices() {
        let g = t.slice_global(s);
        for f in t.slice_fibers(s) {
            sim.access(ad.kid + f as u64 * 4, T);
            sim.access(ad.ptr + f as u64 * 8, T);
            let mut col = col0;
            while col < col0 + width {
                let w = (col0 + width - col).min(REG_BLOCK);
                // fiber nonzeros re-traversed per register chunk
                for n in t.fiber_nnz(f) {
                    sim.access(ad.val + n as u64 * 8, T);
                    sim.access(ad.jix + n as u64 * 4, T);
                    sim.access_range(
                        b_base + j_idx[n] as u64 * row_bytes + col as u64 * 8,
                        w * 8,
                        SB,
                    );
                }
                let kid = t.fiber_kid(f) as u64;
                sim.access_range(c_base + kid * row_bytes + col as u64 * 8, w * 8, SC);
                sim.access_range(a_base + g as u64 * row_bytes + col as u64 * 8, w * 8, SA);
                col += w;
            }
        }
    }
}

pub(crate) const REG_BLOCK: usize = tenblock_core::mttkrp::REG_BLOCK;

/// Replays the mode-`mode` MTTKRP of `coo` at rank `rank` with the given
/// kernel through a fresh simulator built by `sim` (e.g.
/// `CacheSim::power8`).
pub fn trace_kernel(
    coo: &CooTensor,
    mode: usize,
    rank: usize,
    kernel: TraceKernel,
    mut sim: CacheSim,
) -> TraceReport {
    let mut alloc = Alloc::new();
    let dims = coo.dims();
    let perm = tenblock_tensor::coo::perm_for_mode(mode);
    let b_base = alloc.region(dims[perm[1]] * rank * 8);
    let c_base = alloc.region(dims[perm[2]] * rank * 8);
    let a_base = alloc.region(dims[perm[0]] * rank * 8);

    // The kernels are presets of one blocked engine (SPLATT = MB at 1×1×1,
    // RankB = MB+RankB at 1×1×1), so one replay of its plan covers them.
    let (grid, strip) = match kernel {
        TraceKernel::Splatt => ([1, 1, 1], None),
        TraceKernel::Mb(grid) => (grid, None),
        TraceKernel::RankB(width) => ([1, 1, 1], Some(width)),
        TraceKernel::MbRankB(grid, width) => (grid, Some(width)),
    };
    let g = BlockGrid::new(coo, mode, grid);
    // blocks stored contiguously, in traversal order
    let blocks: Vec<(BlockAddrs, &SplattTensor)> = (0..grid[0])
        .flat_map(|a| g.row_blocks(a))
        .map(|t| (alloc_block(&mut alloc, t), t))
        .collect();
    match strip {
        None => {
            for (ad, t) in &blocks {
                walk_plain(&mut sim, t, ad, b_base, c_base, a_base, rank);
            }
        }
        Some(width) => {
            let mut col0 = 0;
            while col0 < rank {
                let w = width.min(rank - col0);
                for (ad, t) in &blocks {
                    walk_rankb(&mut sim, t, ad, b_base, c_base, a_base, rank, col0, w);
                }
                col0 += w;
            }
        }
    }

    let l1: [LevelStats; N_STREAMS] = std::array::from_fn(|s| sim.tag_stats(0, s));
    let hierarchy = std::array::from_fn(|s| sim.hierarchy_hit_rate(s));
    // α over factor accesses: combined B + C fraction served by any cache,
    // weighted by each stream's access count.
    let acc_b = (l1[SB].hits + l1[SB].misses) as f64;
    let acc_c = (l1[SC].hits + l1[SC].misses) as f64;
    let alpha_factors = if acc_b + acc_c == 0.0 {
        1.0
    } else {
        (acc_b * sim.hierarchy_hit_rate(SB) + acc_c * sim.hierarchy_hit_rate(SC)) / (acc_b + acc_c)
    };

    TraceReport {
        kernel,
        l1,
        hierarchy,
        memory_bytes: sim.memory_bytes(),
        alpha_factors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::{clustered_tensor, uniform_tensor, ClusteredConfig};

    fn sim() -> CacheSim {
        CacheSim::power8(N_STREAMS)
    }

    #[test]
    fn splatt_trace_counts_are_sane() {
        let x = uniform_tensor([100, 100, 100], 3_000, 1);
        let r = trace_kernel(&x, 0, 32, TraceKernel::Splatt, sim());
        // tensor stream: 2 accesses per nonzero + 2 per fiber
        let t_accesses = r.l1[T].hits + r.l1[T].misses;
        assert!(t_accesses >= 2 * 3_000);
        assert!(r.memory_bytes > 0);
        for s in 0..N_STREAMS {
            assert!((0.0..=1.0).contains(&r.hierarchy[s]));
        }
        assert!((0.0..=1.0).contains(&r.alpha_factors));
    }

    #[test]
    fn tiny_working_set_has_high_alpha() {
        // tensor + factors fit easily in L2 -> factor alpha near 1 after
        // compulsory misses
        let x = uniform_tensor([32, 32, 32], 2_000, 2);
        let r = trace_kernel(&x, 0, 16, TraceKernel::Splatt, sim());
        assert!(r.alpha_factors > 0.9, "alpha = {}", r.alpha_factors);
    }

    #[test]
    fn blocking_improves_alpha_on_clustered_data() {
        // factors far larger than L2: B is 4000 x 64 x 8B = 2 MiB
        let cfg = ClusteredConfig {
            dims: [4_000, 4_000, 4_000],
            nnz: 40_000,
            n_clusters: 32,
            cluster_frac: 0.9,
            box_frac: 0.05,
        };
        let x = clustered_tensor(&cfg, 7);
        let base = trace_kernel(&x, 0, 64, TraceKernel::Splatt, sim());
        let blocked = trace_kernel(&x, 0, 64, TraceKernel::MbRankB([4, 4, 2], 16), sim());
        assert!(
            blocked.alpha_factors > base.alpha_factors,
            "blocked {} <= baseline {}",
            blocked.alpha_factors,
            base.alpha_factors
        );
    }

    #[test]
    fn equation1_predicts_simulated_traffic() {
        // Equation (1) with the *measured* alpha should match the cache
        // simulator's memory-byte count closely for the baseline kernel —
        // the paper's model and our simulator describe the same traffic.
        use crate::roofline::RooflineInputs;
        use tenblock_tensor::coo::MODE1_PERM;
        let x = uniform_tensor([1_200, 1_200, 1_200], 50_000, 13);
        let rank = 64;
        let r = trace_kernel(&x, 0, rank, TraceKernel::Splatt, sim());
        let eq1 = RooflineInputs {
            nnz: x.nnz() as u64,
            fibers: x.count_fibers(MODE1_PERM) as u64,
            rank: rank as u64,
            alpha: r.alpha_factors,
        }
        .traffic_bytes();
        let measured = r.memory_bytes as f64;
        let ratio = eq1 / measured;
        assert!(
            (0.7..1.3).contains(&ratio),
            "Eq.(1) {eq1:.3e} vs simulated {measured:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn rankb_rereads_tensor_per_strip() {
        let x = uniform_tensor([50, 50, 50], 1_000, 3);
        let base = trace_kernel(&x, 0, 64, TraceKernel::Splatt, sim());
        let rb = trace_kernel(&x, 0, 64, TraceKernel::RankB(16), sim());
        let base_t = base.l1[T].hits + base.l1[T].misses;
        let rb_t = rb.l1[T].hits + rb.l1[T].misses;
        // 4 strips x 1 register chunk each -> ~4x the per-nonzero tensor
        // accesses (fiber metadata is also re-read per strip)
        assert!(rb_t > 3 * base_t, "rb {rb_t} vs base {base_t}");
        // ...but they come from cache: L1 rate of the tensor stream is high
        assert!(rb.l1[T].hit_rate() > 0.8);
    }
}
