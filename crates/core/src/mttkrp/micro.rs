//! The BCOO register-tiled dense micro-kernel.
//!
//! One block at a time: when the block is dense enough, the factor
//! sub-rows for its `j`/`k` spans are gathered once into contiguous
//! scratch (amortized over the block's nonzeros), then the inner loop
//! accumulates GEMM-style over the stored block-local offsets — no global
//! index decode — with the rank tiled in [`REG_BLOCK`]-wide register
//! strips exactly like the RankB pass. Sparse blocks skip the gather and
//! address the factors through the block origin instead (one add per
//! access, still decode-free).

use super::{reg_chunk, RowWindow, REG_BLOCK};
use std::ops::Range;
use tenblock_tensor::bcoo::BcooOffsets;
use tenblock_tensor::{BcooTensor, DenseMatrix, NMODES};

/// A block-local coordinate at one of the stored widths (u8/u16/u32).
pub(crate) trait LocalOff: Copy + Send + Sync {
    /// The offset as a row index.
    fn idx(self) -> usize;
}

impl LocalOff for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl LocalOff for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl LocalOff for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Reusable per-worker buffers holding one block's gathered factor
/// sub-rows (full rank width, rows contiguous).
#[derive(Default)]
pub(crate) struct GatherBuf {
    b: Vec<f64>,
    c: Vec<f64>,
}

/// Column window `[col0, col0 + width)` over a gathered sub-matrix; row
/// `r` is the `r`-th gathered row.
struct GatherWindow<'a> {
    data: &'a [f64],
    rank: usize,
    col0: usize,
    width: usize,
}

impl RowWindow for GatherWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        &self.data[r * self.rank + self.col0..][..self.width]
    }
}

/// Column window over the original factor with the block origin folded
/// in: row `r` is global row `base + r`. Used for blocks too sparse to
/// amortize a gather.
struct ShiftedWindow<'a> {
    m: &'a DenseMatrix,
    base: usize,
    col0: usize,
    width: usize,
}

impl RowWindow for ShiftedWindow<'_> {
    #[inline]
    fn window(&self, r: usize) -> &[f64] {
        &self.m.row(self.base + r)[self.col0..self.col0 + self.width]
    }
}

/// Copies rows `[base, base + len)` of `m` into `buf`, contiguously.
fn gather_rows(buf: &mut Vec<f64>, m: &DenseMatrix, base: usize, len: usize) {
    buf.clear();
    buf.reserve(len * m.cols());
    for r in 0..len {
        buf.extend_from_slice(m.row(base + r));
    }
}

/// Executes block `i` of `t` into the task's output rows `out_rows`
/// (starting at global row `row0`). With `cut`, only the block's entries
/// whose output row falls in `cut` run — the block's entries are sorted
/// by local slice, so they form one contiguous run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_bcoo_block(
    t: &BcooTensor,
    i: usize,
    cut: Option<&Range<usize>>,
    b: &DenseMatrix,
    c: &DenseMatrix,
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    strip_width: usize,
    scratch: &mut GatherBuf,
) {
    let range = t.block_range(i);
    let vals = &t.vals()[range.clone()];
    let origin = t.block(i).origin.map(|o| o as usize);
    let spans = [t.block_span(i, 0), t.block_span(i, 1), t.block_span(i, 2)];
    let block = (origin, spans, b, c);
    let out = (out_rows, row0, rank, strip_width);
    match t.offsets() {
        BcooOffsets::U8(o) => run_cut(&o[range], vals, cut, block, out, scratch),
        BcooOffsets::U16(o) => run_cut(&o[range], vals, cut, block, out, scratch),
        BcooOffsets::U32(o) => run_cut(&o[range], vals, cut, block, out, scratch),
    }
}

/// [`process_block_bcoo`] over the entries of one block inside `cut`.
fn run_cut<T: LocalOff>(
    offs: &[[T; NMODES]],
    vals: &[f64],
    cut: Option<&Range<usize>>,
    (origin, spans, b, c): ([usize; NMODES], [usize; NMODES], &DenseMatrix, &DenseMatrix),
    (out_rows, row0, rank, strip_width): (&mut [f64], usize, usize, usize),
    scratch: &mut GatherBuf,
) {
    let first_at = |row: usize| {
        let local = row.saturating_sub(origin[0]);
        offs.partition_point(|o| o[0].idx() < local)
    };
    let entries = match cut {
        Some(rows) => first_at(rows.start)..first_at(rows.end),
        None => 0..offs.len(),
    };
    process_block_bcoo(
        &offs[entries.clone()],
        &vals[entries],
        b,
        c,
        origin,
        spans,
        out_rows,
        row0,
        rank,
        strip_width,
        scratch,
    );
}

/// Executes one BCOO block: entries `offs`/`vals` (block-local, sorted by
/// `(a, k, j)`), factor matrices `b`/`c` (kernel modes 2 and 3), block
/// `origin` and bounds `spans` per kernel axis, and the owning task's
/// output rows starting at global row `row0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_block_bcoo<T: LocalOff>(
    offs: &[[T; NMODES]],
    vals: &[f64],
    b: &DenseMatrix,
    c: &DenseMatrix,
    origin: [usize; NMODES],
    spans: [usize; NMODES],
    out_rows: &mut [f64],
    row0: usize,
    rank: usize,
    strip_width: usize,
    scratch: &mut GatherBuf,
) {
    // A gather pays one row copy per sub-row and is repaid by every strip
    // re-reading the gathered rows; it wins once the block has at least as
    // many nonzeros as sub-rows.
    let gather = offs.len() >= spans[1] + spans[2];
    let rows_at = (origin[0], row0);
    if gather {
        gather_rows(&mut scratch.b, b, origin[1], spans[1]);
        gather_rows(&mut scratch.c, c, origin[2], spans[2]);
    }
    let mut col0 = 0;
    while col0 < rank {
        let width = strip_width.max(1).min(rank - col0);
        if gather {
            let bw = GatherWindow {
                data: &scratch.b,
                rank,
                col0,
                width,
            };
            let cw = GatherWindow {
                data: &scratch.c,
                rank,
                col0,
                width,
            };
            bcoo_strip(offs, vals, &bw, &cw, out_rows, rows_at, rank, col0, width);
        } else {
            let bw = ShiftedWindow {
                m: b,
                base: origin[1],
                col0,
                width,
            };
            let cw = ShiftedWindow {
                m: c,
                base: origin[2],
                col0,
                width,
            };
            bcoo_strip(offs, vals, &bw, &cw, out_rows, rows_at, rank, col0, width);
        }
        col0 += width;
    }
}

/// One `[col0, col0 + width)` strip over one block. Entries are scanned in
/// `(a, k, j)` order, so consecutive entries sharing `(a, k)` form a fiber
/// run that reuses a single register accumulator per [`REG_BLOCK`] chunk —
/// the same structure as [`super::process_block_rankb`], but driven by the
/// local-offset slab instead of a compressed fiber index.
#[allow(clippy::too_many_arguments)]
fn bcoo_strip<T: LocalOff, B: RowWindow, C: RowWindow>(
    offs: &[[T; NMODES]],
    vals: &[f64],
    bw: &B,
    cw: &C,
    out_rows: &mut [f64],
    (origin0, row0): (usize, usize),
    rank: usize,
    col0: usize,
    width: usize,
) {
    let mut n = 0;
    while n < offs.len() {
        let (la, lk) = (offs[n][0].idx(), offs[n][2].idx());
        let mut end = n + 1;
        while end < offs.len() && offs[end][0].idx() == la && offs[end][2].idx() == lk {
            end += 1;
        }
        let crow = cw.window(lk);
        // `origin0 + la` is a row this task owns, so it is `>= row0`.
        let obase = (origin0 + la - row0) * rank + col0;
        let mut col = 0;
        // full 16-wide register chunks
        while col + REG_BLOCK <= width {
            let mut reg = [0.0f64; REG_BLOCK];
            for m in n..end {
                let v = vals[m];
                let bchunk = reg_chunk(bw.window(offs[m][1].idx()), col);
                for l in 0..REG_BLOCK {
                    reg[l] += v * bchunk[l];
                }
            }
            let cchunk = reg_chunk(crow, col);
            let orow = &mut out_rows[obase + col..obase + col + REG_BLOCK];
            for l in 0..REG_BLOCK {
                orow[l] += reg[l] * cchunk[l];
            }
            col += REG_BLOCK;
        }
        // remainder chunk (< 16 columns)
        if col < width {
            let w = width - col;
            let mut reg = [0.0f64; REG_BLOCK];
            for m in n..end {
                let v = vals[m];
                let brow = &bw.window(offs[m][1].idx())[col..col + w];
                for (l, &bv) in brow.iter().enumerate() {
                    reg[l] += v * bv;
                }
            }
            let orow = &mut out_rows[obase + col..obase + col + w];
            for (l, o) in orow.iter_mut().enumerate() {
                *o += reg[l] * crow[col + l];
            }
        }
        n = end;
    }
}

#[cfg(test)]
mod tests {
    use crate::block::BlockedKernel;
    use crate::kernel::MttkrpKernel;
    use crate::mttkrp::dense_mttkrp;
    use tenblock_tensor::{CooTensor, DenseMatrix, Entry};

    #[test]
    fn bcoo_micro_kernel_gather_and_direct_paths_agree() {
        // Dense corner (gather path) + isolated far entries (direct path)
        // in the same tensor: both paths must produce the same totals as
        // the reference.
        let mut entries = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                for k in 0..6u32 {
                    entries.push(Entry::new(i, j, k, (i + 2 * j + k) as f64 * 0.1));
                }
            }
        }
        entries.push(Entry::new(30, 30, 30, 2.5));
        entries.push(Entry::new(31, 29, 28, -1.5));
        let x = CooTensor::from_entries([32, 32, 32], entries);
        let rank = 17;
        let factors: Vec<DenseMatrix> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(32, rank, |r, c| {
                    (((r * 31 + c * 7 + m * 3) % 23) as f64 - 11.0) * 0.09
                })
            })
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let mut out = DenseMatrix::zeros(32, rank);
        BlockedKernel::bcoo(&x, 0, [4, 4, 4], 16).mttkrp(&fs, &mut out);
        assert!(dense_mttkrp(&x, &fs, 0).approx_eq(&out, 1e-9));
    }
}
