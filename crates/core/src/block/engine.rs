//! The blocked MTTKRP engine: SPLATT (Algorithm 1), MB (Section V-A),
//! RankB (Section V-B, Algorithm 2), MB+RankB (Figure 3b) and BCOO are one
//! loop nest run under different plans.
//!
//! A plan has four parts:
//!
//! * **grid** — MB block counts per kernel axis; `1×1×1` is the unblocked
//!   tensor;
//! * **strip** — the RankB strip width; strips are the outermost loop;
//! * **inner loop** — Algorithm 1's heap accumulator across the whole rank
//!   (`process_block_plain`) or Algorithm 2's 16-wide register
//!   accumulators across one strip (`process_block_rankb`);
//! * **storage** — fiber-CSR blocks in a [`BlockGrid`], or the
//!   block-native [`BcooTensor`], whose block executor runs the strips
//!   inside each block.
//!
//! Each [`crate::KernelKind`] is a preset of the plan:
//!
//! | Preset | Grid | Inner loop | Storage |
//! |---|---|---|---|
//! | SPLATT | `1×1×1` | plain | fiber CSR |
//! | MB | `cfg.grid` | plain | fiber CSR |
//! | RankB | `1×1×1` | register | fiber CSR |
//! | MB+RankB | `cfg.grid` | register | fiber CSR |
//! | BCOO | `cfg.grid` | register | BCOO |
//!
//! **Only the grid decides the output bits.** Every output element sums
//! the same terms in the same order — blocks in traversal order, fibers in
//! `(slice, k)` order, nonzeros in `j` order — whatever the strip, inner
//! loop, storage, or thread count, so presets that share a grid are
//! bit-for-bit identical (`tests/kernels_equivalence.rs` pins this).
//!
//! **The parallel split follows from the grid.** Slice-axis block rows
//! write disjoint output rows, so each is one task. A grid with a single
//! slice-axis block is cut into `exec.chunk_size` row chunks instead, each
//! running the slices of every block that fall in its rows.

use super::{split_rows_by_bounds, BlockGrid};
use crate::checked::{effective_strip_plan, push_oracle, task_write_sets};
use crate::exec::ExecPolicy;
use crate::kernel::MttkrpKernel;
use crate::mttkrp::micro::{run_bcoo_block, GatherBuf};
use crate::mttkrp::{
    process_block_plain, process_block_rankb, DenseWindow, RowWindow, StripWindow, REG_BLOCK,
};
use rayon::prelude::*;
use std::ops::Range;
use tenblock_check::{check_strip_plan, write_set_violations, GridBlock, RaceReport};
use tenblock_obs::KernelCounters;
use tenblock_tensor::{BcooTensor, CooTensor, DenseMatrix, SplattTensor, StripMatrix, NMODES};

/// Block traversal order within a slice-axis row (fiber-CSR storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// `j` axis outermost (default): the mode-2 factor block — the most
    /// expensive structure per Section IV-B — is reused across the inner
    /// `k` sweep.
    #[default]
    BMajor,
    /// `k` axis outermost (ablation): reuses the mode-3 factor block
    /// instead.
    CMajor,
}

/// Factor-matrix layout the register loop reads strips from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankbLayout {
    /// Read strips directly out of the row-major factor matrices.
    #[default]
    Plain,
    /// Re-lay the factors out as stacked strips before the passes
    /// (Section V-B's "small rearrangement of the factor matrix").
    Strip,
}

/// The inner loop a fiber-CSR plan runs per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inner {
    /// Algorithm 1: a heap accumulator across the whole rank.
    Plain,
    /// Algorithm 2: 16-wide register accumulators across one strip.
    Register,
}

/// Where the blocks live, and so which block executor runs them.
enum Storage {
    /// Slice-compressed SPLATT blocks, run by the inner loop.
    Fibers(BlockGrid, Inner),
    /// Block-native storage, run by the BCOO block executor.
    Bcoo(BcooTensor),
}

/// One parallel task: slice-axis block row `a`, writing output `rows`.
/// A chunk of a single block row (`cut`) runs only the part of each block
/// inside `rows`; a whole block row runs its blocks entire.
struct Task {
    a: usize,
    rows: Range<usize>,
    cut: bool,
}

impl Task {
    /// The local slices of block `t` this task runs.
    fn slices(&self, t: &SplattTensor) -> Range<usize> {
        if !self.cut {
            return 0..t.n_slices();
        }
        // Slice ids ascend, so the slices inside `rows` are contiguous.
        let first_at = |row: usize| {
            let (mut lo, mut hi) = (0, t.n_slices());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if t.slice_global(mid) < row {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        first_at(self.rows.start)..first_at(self.rows.end)
    }

    /// The output rows this task restricts BCOO blocks to, if any.
    fn cut_rows(&self) -> Option<&Range<usize>> {
        self.cut.then_some(&self.rows)
    }
}

/// Section IV counters for one blocked pass: `fibers` summed over the
/// blocks the traversal runs, and `strips` rank strips of `strip` columns
/// (`usize::MAX` is one whole-rank strip).
pub(crate) fn blocked_counters(
    nnz: usize,
    fibers: usize,
    blocks: usize,
    rank: usize,
    strip: usize,
) -> KernelCounters {
    let strips = if rank == 0 {
        0
    } else {
        rank.div_ceil(strip.min(rank))
    };
    KernelCounters::fibered_model(nnz as u64, fibers as u64, rank as u64)
        .with_blocks(blocks as u64)
        .with_strips(strips as u64)
}

/// The blocked MTTKRP kernel for one mode; see the module docs for the
/// plan each preset runs.
pub struct BlockedKernel {
    /// `"mttkrp/<preset name>"`; [`MttkrpKernel::name`] is its suffix.
    span: &'static str,
    storage: Storage,
    /// Columns per rank strip; `usize::MAX` runs the whole rank at once.
    strip: usize,
    layout: RankbLayout,
    traversal: Traversal,
    exec: ExecPolicy,
}

impl BlockedKernel {
    fn new(span: &'static str, storage: Storage, strip_width: usize) -> Self {
        BlockedKernel {
            span,
            storage,
            strip: if strip_width == 0 {
                usize::MAX
            } else {
                strip_width
            },
            layout: RankbLayout::default(),
            traversal: Traversal::default(),
            exec: ExecPolicy::serial(),
        }
    }

    fn fibers(span: &'static str, grid: BlockGrid, inner: Inner, strip_width: usize) -> Self {
        Self::new(span, Storage::Fibers(grid, inner), strip_width)
    }

    /// SPLATT (Algorithm 1): the unblocked tensor, heap accumulator.
    pub(crate) fn splatt(coo: &CooTensor, mode: usize) -> Self {
        Self::fibers(
            "mttkrp/SPLATT",
            BlockGrid::new(coo, mode, [1, 1, 1]),
            Inner::Plain,
            0,
        )
    }

    /// MB (Section V-A): `grid` blocks per kernel axis, heap accumulator.
    pub fn mb(coo: &CooTensor, mode: usize, grid: [usize; NMODES]) -> Self {
        Self::from_grid(BlockGrid::new(coo, mode, grid))
    }

    /// MB over an already-built grid (checked-mode tests corrupt one).
    pub fn from_grid(grid: BlockGrid) -> Self {
        Self::fibers("mttkrp/MB", grid, Inner::Plain, 0)
    }

    /// RankB (Algorithm 2): the unblocked tensor, register loop over
    /// `strip_width`-column strips (0 means whole-rank).
    pub fn rankb(coo: &CooTensor, mode: usize, strip_width: usize) -> Self {
        Self::fibers(
            "mttkrp/RankB",
            BlockGrid::new(coo, mode, [1, 1, 1]),
            Inner::Register,
            strip_width,
        )
    }

    /// MB+RankB (Figure 3b): `grid` blocks, register loop over
    /// `strip_width`-column strips (0 means whole-rank).
    pub(crate) fn mb_rankb(
        coo: &CooTensor,
        mode: usize,
        grid: [usize; NMODES],
        strip_width: usize,
    ) -> Self {
        Self::fibers(
            "mttkrp/MB+RankB",
            BlockGrid::new(coo, mode, grid),
            Inner::Register,
            strip_width,
        )
    }

    /// BCOO: block-native storage of `grid` blocks, `strip_width`-column
    /// strips inside each block (0 means whole-rank).
    pub(crate) fn bcoo(
        coo: &CooTensor,
        mode: usize,
        grid: [usize; NMODES],
        strip_width: usize,
    ) -> Self {
        Self::from_tensor(BcooTensor::from_coo(coo, mode, grid), strip_width)
    }

    /// BCOO over an already-converted tensor.
    pub fn from_tensor(t: BcooTensor, strip_width: usize) -> Self {
        Self::new("mttkrp/BCOO", Storage::Bcoo(t), strip_width)
    }

    /// Sets the execution policy (threading + recorder).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the factor layout the register loop reads (ablation knob;
    /// the plain loop and BCOO ignore it).
    pub fn with_layout(mut self, layout: RankbLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Selects the block traversal order (ablation knob; fiber-CSR storage
    /// only). It changes the summation order, so it changes the bits.
    pub fn with_traversal(mut self, traversal: Traversal) -> Self {
        self.traversal = traversal;
        self
    }

    /// Tensor dims, kernel orientation, and slice-axis block bounds.
    fn geometry(&self) -> ([usize; NMODES], [usize; NMODES], &[usize]) {
        match &self.storage {
            Storage::Fibers(g, _) => (g.dims(), g.perm(), g.bounds(0)),
            Storage::Bcoo(t) => (t.dims(), t.perm(), t.bounds(0)),
        }
    }

    /// The parallel split: one task per slice-axis block row, or — for a
    /// single block row under a parallel policy — `exec.chunk_size` row
    /// chunks of it.
    fn tasks(&self, out_rows: usize) -> Vec<Task> {
        let (_, _, bounds) = self.geometry();
        if bounds.len() == 2 && self.exec.is_parallel() {
            let chunk = self.exec.chunk_size(out_rows);
            return (0..out_rows)
                .step_by(chunk)
                .map(|lo| Task {
                    a: 0,
                    rows: lo..(lo + chunk).min(out_rows),
                    cut: true,
                })
                .collect();
        }
        bounds
            .windows(2)
            .enumerate()
            .map(|(a, w)| Task {
                a,
                rows: w[0]..w[1],
                cut: false,
            })
            .collect()
    }

    /// Runs `work(task, rows)` for every task, `rows` holding exactly the
    /// task's output rows, in parallel when the policy says so.
    fn for_each_task(&self, out: &mut DenseMatrix, work: impl Fn(&Task, &mut [f64]) + Sync) {
        let tasks = self.tasks(out.rows());
        let mut bounds: Vec<usize> = tasks.iter().map(|t| t.rows.start).collect();
        bounds.push(tasks.last().map_or(0, |t| t.rows.end));
        let rank = out.cols();
        let chunks = split_rows_by_bounds(out.as_mut_slice(), &bounds, rank);
        let run = |(task, (_, rows)): (&Task, (usize, &mut [f64]))| work(task, rows);
        if self.exec.is_parallel() {
            tasks
                .iter()
                .zip(chunks)
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(run);
        } else {
            tasks.iter().zip(chunks).for_each(run);
        }
    }

    /// Calls `f` on the nonempty blocks of slice-axis row `a`, in the
    /// configured traversal order.
    fn for_each_block<'g>(&self, g: &'g BlockGrid, a: usize, f: impl FnMut(&'g SplattTensor)) {
        match self.traversal {
            Traversal::BMajor => g.row_blocks(a).for_each(f),
            Traversal::CMajor => g.row_blocks_c_major(a).for_each(f),
        }
    }

    /// One register-loop pass over strip `[col0, col0 + width)`.
    #[allow(clippy::too_many_arguments)]
    fn register_pass<B: RowWindow, C: RowWindow>(
        &self,
        g: &BlockGrid,
        b: &B,
        c: &C,
        out: &mut DenseMatrix,
        col0: usize,
        width: usize,
    ) {
        let rank = out.cols();
        self.for_each_task(out, |task, rows| {
            self.for_each_block(g, task.a, |t| {
                process_block_rankb(
                    t,
                    b,
                    c,
                    task.slices(t),
                    rows,
                    task.rows.start,
                    rank,
                    col0,
                    width,
                )
            })
        });
    }

    /// Output rows task `task` writes, read from the stored data (slice
    /// ids; decoded block origins + offsets) rather than from the bounds.
    fn touched_rows(&self, task: &Task) -> Vec<usize> {
        let mut rows = Vec::new();
        match &self.storage {
            Storage::Fibers(g, _) => self.for_each_block(g, task.a, |t| {
                rows.extend(task.slices(t).map(|s| t.slice_global(s)))
            }),
            Storage::Bcoo(t) => {
                for i in t.row_blocks(task.a) {
                    let decoded = t.block_slice_rows(i).into_iter();
                    match task.cut_rows() {
                        Some(cut) => rows.extend(decoded.filter(|r| cut.contains(r))),
                        None => rows.extend(decoded),
                    }
                }
            }
        }
        rows
    }

    /// Checks the layout oracle (grid or block table), the strip-plan
    /// oracle when the rank is strip-mined, and — when parallel — the
    /// tasks' write sets: each task's claimed rows against the rows its
    /// blocks actually hold.
    fn verify(&self, out_rows: usize, rank: usize) -> Result<(), RaceReport> {
        let mut violations = Vec::new();
        let layout = match &self.storage {
            Storage::Fibers(g, _) => g.validate(),
            Storage::Bcoo(t) => validate_bcoo_blocks(t),
        };
        push_oracle(&mut violations, layout);
        if self.strip != usize::MAX {
            let plan = effective_strip_plan(rank, self.strip);
            push_oracle(&mut violations, check_strip_plan(rank, &plan, REG_BLOCK));
        }
        if self.exec.is_parallel() {
            let tasks = self.tasks(out_rows);
            let sets =
                task_write_sets(tasks.iter().map(|t| (t.rows.clone(), self.touched_rows(t))));
            violations.extend(write_set_violations(out_rows, &sets));
        }
        RaceReport::check(self.name(), violations)
    }

    /// Section IV counters for this plan. BCOO reports the bytes its slab
    /// actually streams in place of the model's tensor bytes.
    fn counters(&self, rank: usize) -> KernelCounters {
        match &self.storage {
            Storage::Fibers(g, _) => {
                let mut fibers = 0;
                for a in 0..g.grid()[0] {
                    fibers += g.row_blocks(a).map(|t| t.n_fibers()).sum::<usize>();
                }
                blocked_counters(g.nnz(), fibers, g.n_nonempty(), rank, self.strip)
            }
            Storage::Bcoo(t) => {
                let mut c = blocked_counters(t.nnz(), t.n_fibers(), t.n_blocks(), rank, self.strip);
                c.tensor_bytes = t.actual_bytes() as u64;
                c
            }
        }
    }
}

/// The grid-blocks oracle over a BCOO block table: every decoded entry
/// inside its block's bounds box, blocks correctly placed, nonzeros
/// conserved.
fn validate_bcoo_blocks(t: &BcooTensor) -> Result<(), tenblock_check::OracleError> {
    let (dims, perm) = (t.dims(), t.perm());
    let blocks: Vec<GridBlock> = (0..t.n_blocks())
        .map(|i| GridBlock {
            coords: t.block(i).coords.map(|c| c as usize),
            entries: t.block_kernel_coords(i),
        })
        .collect();
    tenblock_check::check_grid_blocks(
        [dims[perm[0]], dims[perm[1]], dims[perm[2]]],
        [t.bounds(0), t.bounds(1), t.bounds(2)],
        t.nnz(),
        &blocks,
    )
}

impl MttkrpKernel for BlockedKernel {
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix) {
        let (dims, perm, _) = self.geometry();
        let b = factors[perm[1]];
        let c = factors[perm[2]];
        let rank = out.cols();
        assert_eq!(out.rows(), dims[perm[0]], "output rows != mode length");
        assert_eq!(b.cols(), rank, "factor rank mismatch");
        assert_eq!(c.cols(), rank, "factor rank mismatch");
        if self.exec.is_checked() {
            if let Err(report) = self.verify(out.rows(), rank) {
                panic!("checked execution refused launch: {report}"); // deliberate fail-stop on a racy plan — lint: allow(panic-reach)
            }
        }
        let span = self.exec.recorder.span(self.span);
        if span.active() {
            span.annotate_num("mode", perm[0] as f64);
            span.counters(&self.counters(rank));
        }
        out.fill_zero();

        match &self.storage {
            Storage::Fibers(g, Inner::Plain) => self.for_each_task(out, |task, rows| {
                let mut accum = vec![0.0; rank];
                self.for_each_block(g, task.a, |t| {
                    process_block_plain(t, b, c, task.slices(t), rows, task.rows.start, &mut accum)
                });
            }),
            Storage::Fibers(g, Inner::Register) => match self.layout {
                RankbLayout::Plain => {
                    for (col0, width) in effective_strip_plan(rank, self.strip) {
                        let bw = DenseWindow::new(b, col0, width);
                        let cw = DenseWindow::new(c, col0, width);
                        self.register_pass(g, &bw, &cw, out, col0, width);
                    }
                }
                RankbLayout::Strip => {
                    let bs = StripMatrix::from_dense(b, self.strip.min(rank.max(1)));
                    let cs = StripMatrix::from_dense(c, self.strip.min(rank.max(1)));
                    for s in 0..bs.n_strips() {
                        let bw = StripWindow::new(&bs, s);
                        let cw = StripWindow::new(&cs, s);
                        self.register_pass(g, &bw, &cw, out, bs.col_begin(s), bs.width_of(s));
                    }
                }
            },
            Storage::Bcoo(t) => self.for_each_task(out, |task, rows| {
                let mut scratch = GatherBuf::default();
                for i in t.row_blocks(task.a) {
                    run_bcoo_block(
                        t,
                        i,
                        task.cut_rows(),
                        b,
                        c,
                        rows,
                        task.rows.start,
                        rank,
                        self.strip,
                        &mut scratch,
                    );
                }
            }),
        }
    }

    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport> {
        self.verify(out.rows(), out.cols())?;
        self.mttkrp(factors, out);
        Ok(())
    }

    fn mode(&self) -> usize {
        self.geometry().1[0]
    }

    fn name(&self) -> &'static str {
        &self.span["mttkrp/".len()..]
    }

    fn tensor_bytes(&self) -> usize {
        match &self.storage {
            Storage::Fibers(g, _) => g.tensor_bytes(),
            Storage::Bcoo(t) => t.actual_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::{clustered_tensor, ClusteredConfig};

    fn run(k: &BlockedKernel, x: &CooTensor, rank: usize) -> Vec<u64> {
        let factors: Vec<DenseMatrix> = x
            .dims()
            .iter()
            .map(|&d| {
                DenseMatrix::from_fn(d, rank, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.3 - 1.4)
            })
            .collect();
        let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
        // Start from a stale output: the kernel must overwrite it.
        let mut out = DenseMatrix::from_fn(x.dims()[k.mode()], rank, |_, _| f64::NAN);
        k.mttkrp_checked(&fs, &mut out)
            .expect("healthy layout passes");
        assert!(out.as_slice().iter().all(|v| !v.is_nan()), "{}", k.name());
        out.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_chunks_of_a_single_block_row_keep_the_bits() {
        // One slice-axis block, several j/k blocks: parallel runs cut every
        // block into row chunks, which must not move a bit.
        let x = clustered_tensor(&ClusteredConfig::new([50, 40, 30], 2_000), 3);
        let rank = 21;
        for mode in 0..NMODES {
            let presets = |exec: ExecPolicy| {
                [
                    BlockedKernel::mb(&x, mode, [1, 2, 3]),
                    BlockedKernel::mb_rankb(&x, mode, [1, 2, 3], 16),
                    BlockedKernel::bcoo(&x, mode, [1, 2, 3], 8),
                ]
                .map(|k| k.with_exec(exec.clone()))
            };
            let serial = presets(ExecPolicy::serial());
            let expect = run(&serial[0], &x, rank);
            // `mttkrp_checked` also verifies the chunks' write sets.
            for k in serial.iter().chain(&presets(ExecPolicy::fixed(5))) {
                assert!(run(k, &x, rank) == expect, "{} mode {mode}", k.name());
            }
        }
    }

    #[test]
    fn bcoo_tensor_bytes_undercut_coo_on_clustered_data() {
        let x = clustered_tensor(&ClusteredConfig::new([200, 200, 200], 20_000), 3);
        let k = BlockedKernel::bcoo(&x, 0, [4, 4, 4], 16);
        assert!(
            k.tensor_bytes() < x.actual_bytes(),
            "BCOO {} bytes vs COO {} bytes",
            k.tensor_bytes(),
            x.actual_bytes()
        );
        // The recorded counters advertise the same reduced stream.
        let counters = k.counters(16);
        assert_eq!(counters.tensor_bytes as usize, k.tensor_bytes());
        let blocks = BcooTensor::from_coo(&x, 0, [4, 4, 4]).n_blocks();
        assert_eq!(counters.blocks as usize, blocks);
    }

    #[test]
    fn every_preset_takes_empty_tensors_and_rank_zero() {
        let x = clustered_tensor(&ClusteredConfig::new([12, 10, 9], 300), 9);
        let empty = CooTensor::empty([4, 5, 6]);
        for mode in 0..NMODES {
            for t in [&x, &empty] {
                for k in [
                    BlockedKernel::splatt(t, mode),
                    BlockedKernel::mb(t, mode, [2, 2, 2]),
                    BlockedKernel::rankb(t, mode, 4),
                    BlockedKernel::mb_rankb(t, mode, [2, 2, 2], 4),
                    BlockedKernel::bcoo(t, mode, [2, 2, 2], 4),
                ] {
                    assert!(run(&k, t, 0).is_empty());
                    let bits = run(&k, t, 6);
                    assert!(t.nnz() > 0 || bits.iter().all(|&b| b == 0), "{}", k.name());
                }
            }
        }
    }

    #[test]
    fn ablation_knobs_run_the_same_math() {
        let x = clustered_tensor(&ClusteredConfig::new([40, 30, 30], 1_500), 8);
        let rank = 40;
        // The strip layout only moves where strips are read from.
        for k in [
            BlockedKernel::rankb(&x, 0, 16),
            BlockedKernel::mb_rankb(&x, 0, [2, 3, 2], 16),
        ] {
            let plain = run(&k, &x, rank);
            assert!(run(&k.with_layout(RankbLayout::Strip), &x, rank) == plain);
        }
        // C-major traversal reorders block sums: same value, other bits.
        let b_major = run(&BlockedKernel::mb(&x, 0, [2, 3, 2]), &x, rank);
        let c_major = BlockedKernel::mb(&x, 0, [2, 3, 2]).with_traversal(Traversal::CMajor);
        for (a, b) in b_major.iter().zip(run(&c_major, &x, rank)) {
            let (a, b) = (f64::from_bits(*a), f64::from_bits(b));
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }
}
