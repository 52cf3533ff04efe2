//! Bridges from kernel internals to the `tenblock-check` vocabulary.
//!
//! Each kernel's checked path ([`crate::MttkrpKernel::mttkrp_checked`], or
//! `mttkrp` under [`crate::Threads::Checked`]) declares the output-row
//! footprint of every parallel task as a [`WriteSet`]: the contiguous range
//! it *owns* (from the partition arithmetic) and the rows it will actually
//! *touch* (from the tensor data — slice ids, block contents, root fids).
//! The write sets mirror each kernel's partitioning formula exactly, so a
//! drifted boundary in the real structures shows up as a write-set
//! violation before any task runs.

use std::ops::Range;
use tenblock_check::{Violation, WriteSet};
use tenblock_tensor::CsfTensor;

/// Write sets for tasks that split the output into row ranges: task `t`
/// owns the `t`-th range and touches the rows listed with it. Callers read
/// the touched rows from the stored data (slice ids, decoded block origins
/// and offsets), independent of the arithmetic that drew the ranges, so a
/// drifted boundary shows up as an overlap with the neighbouring claim.
pub(crate) fn task_write_sets(
    tasks: impl Iterator<Item = (Range<usize>, Vec<usize>)>,
) -> Vec<WriteSet> {
    tasks
        .enumerate()
        .map(|(t, (owned, touched))| WriteSet::new(t, owned).touch_all(touched))
        .collect()
}

/// Write sets for the CSF strip pass, which splits the output buffer at the
/// first root fid of each root chunk. The skip regions (rows with no root)
/// are never written; they are folded into the preceding task's claim so
/// the claims tile the output exactly as the buffer splits do.
pub(crate) fn csf_root_write_sets(t: &CsfTensor, out_rows: usize, chunk: usize) -> Vec<WriteSet> {
    let n_roots = t.n_nodes(0);
    if n_roots == 0 {
        return vec![WriteSet::new(0, 0..out_rows)];
    }
    let starts: Vec<usize> = (0..n_roots).step_by(chunk).collect();
    let mut sets = Vec::new();
    let mut prev_end = 0usize;
    for (ci, &lo) in starts.iter().enumerate() {
        let hi = (lo + chunk).min(n_roots);
        let row_end = if ci + 1 < starts.len() {
            t.fid(0, starts[ci + 1]) as usize
        } else {
            out_rows
        };
        sets.push(
            WriteSet::new(ci, prev_end..row_end).touch_all((lo..hi).map(|r| t.fid(0, r) as usize)),
        );
        prev_end = row_end;
    }
    sets
}

/// The effective `(col0, width)` strip plan a rank-blocked kernel executes
/// for `rank` columns at `strip_width` (a width of `usize::MAX` means a
/// single full-rank strip, as in the unblocked CSF path).
pub(crate) fn effective_strip_plan(rank: usize, strip_width: usize) -> Vec<(usize, usize)> {
    let mut plan = Vec::new();
    let mut col0 = 0usize;
    while col0 < rank {
        let width = strip_width.min(rank - col0);
        plan.push((col0, width));
        col0 += width;
    }
    plan
}

/// Folds an oracle failure into the violation list as an
/// [`Violation::Invariant`].
pub(crate) fn push_oracle(
    violations: &mut Vec<Violation>,
    result: Result<(), tenblock_check::OracleError>,
) {
    if let Err(e) = result {
        violations.push(Violation::Invariant {
            detail: e.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::NdCooTensor;

    #[test]
    fn csf_roots_fold_skip_regions_into_claims() {
        // Rows 0 and 7 only: the claims must still tile 0..10.
        let x = NdCooTensor::from_coo3(&tenblock_tensor::CooTensor::from_triples(
            [10, 3, 3],
            &[0, 7],
            &[1, 2],
            &[0, 1],
            &[1.0, 2.0],
        ));
        let t = CsfTensor::for_mode(&x, 0);
        let sets = csf_root_write_sets(&t, 10, 1);
        assert!(tenblock_check::check_write_sets("CSF", 10, &sets).is_ok());
    }

    #[test]
    fn strip_plans_pass_the_oracle() {
        for (rank, width) in [(37, 16), (8, 16), (32, 1), (24, usize::MAX), (0, 16)] {
            let plan = effective_strip_plan(rank, width);
            assert!(
                tenblock_check::check_strip_plan(rank, &plan, crate::mttkrp::REG_BLOCK).is_ok(),
                "rank {rank} width {width}"
            );
        }
    }
}
