//! Cross-crate property tests: every MTTKRP kernel agrees with the dense
//! reference on arbitrary tensors, for every mode, rank, grid, and strip
//! width; the blocked-engine presets that share a grid agree bit for bit;
//! and a golden table pins every preset's output bits.

use proptest::prelude::*;
use tenblock::core::mttkrp::dense_mttkrp;
use tenblock::core::{build_kernel, ExecPolicy, KernelConfig, KernelKind};
use tenblock::tensor::gen::{clustered_tensor, ClusteredConfig};
use tenblock::tensor::{CooTensor, DenseMatrix, Entry};

/// Strategy: a small random sparse tensor.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..12, 2usize..12, 2usize..12).prop_flat_map(|(i, j, k)| {
        let entry = (0..i as u32, 0..j as u32, 0..k as u32, -5.0f64..5.0)
            .prop_map(|(a, b, c, v)| Entry::new(a, b, c, v));
        proptest::collection::vec(entry, 0..60)
            .prop_map(move |es| CooTensor::from_entries([i, j, k], es))
    })
}

/// Strategy adapter: drives the structure-aware fuzz generator from the
/// proptest shim's RNG stream, so the adversarial tensor classes (empty,
/// single-slice, all-duplicates, hyper-sparse long-tail, reg-block-edge)
/// become property-test inputs alongside `arb_tensor`'s uniform ones.
struct ArbFuzzCase;

impl Strategy for ArbFuzzCase {
    type Value = tenblock::fuzz::FuzzCase;
    fn generate(&self, rng: &mut proptest::TestRng) -> Self::Value {
        tenblock::fuzz::arb_case(&mut tenblock::fuzz::FuzzRng::new(rng.next_u64()))
    }
}

/// Deterministic pseudo-random factors derived from a seed.
fn seeded_factors(dims: [usize; 3], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    (0..3)
        .map(|m| {
            DenseMatrix::from_fn(dims[m], rank, |r, c| {
                let mut h = seed ^ ((r as u64) << 17) ^ ((c as u64) << 5) ^ (m as u64);
                h ^= h >> 31;
                h = h.wrapping_mul(0x9e3779b97f4a7c15);
                h ^= h >> 27;
                (h % 4000) as f64 / 1000.0 - 2.0
            })
        })
        .collect()
}

/// `want` blocks per kernel axis, capped at each axis' length for `mode`.
fn fitted_grid(dims: [usize; 3], mode: usize, want: [usize; 3]) -> [usize; 3] {
    let perm = tenblock::tensor::coo::perm_for_mode(mode);
    std::array::from_fn(|ax| want[ax].min(dims[perm[ax]].max(1)))
}

/// The five kinds the blocked engine serves, in golden-table order, with
/// the `name()` (and `mttkrp/<name>` span) each must keep.
const PRESETS: [(KernelKind, &str); 5] = [
    (KernelKind::Splatt, "SPLATT"),
    (KernelKind::Mb, "MB"),
    (KernelKind::RankB, "RankB"),
    (KernelKind::MbRankB, "MB+RankB"),
    (KernelKind::Bcoo, "BCOO"),
];

/// Factors for the golden table (values in `[-2, 2)`, three decimals).
fn golden_factors(dims: [usize; 3], rank: usize) -> Vec<DenseMatrix> {
    (0..3)
        .map(|m| {
            DenseMatrix::from_fn(dims[m], rank, |r, c| {
                let mut h = 0x5eed ^ ((r as u64) << 17) ^ ((c as u64) << 5) ^ (m as u64);
                h ^= h >> 31;
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 29;
                (h % 4000) as f64 / 1000.0 - 2.0
            })
        })
        .collect()
}

/// FNV-1a over the output's `f64::to_bits`, one word at a time.
fn bits_hash(m: &DenseMatrix) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Output-bit hashes of every preset × mode × rank {7, 16, 40} ×
/// {serial, auto} × grid {1×1×1, 3×2×2} × strip {16, R}, in that nesting
/// order, on the clustered tensor of `golden_table_pins_every_preset_bits`.
/// Produced by the five per-kind kernel structs at commit 596e8d3, before
/// they were folded into `BlockedKernel`: only the grid decides the bits,
/// so the 360 entries hold 18 distinct values.
#[rustfmt::skip]
const GOLDEN: [u64; 360] = [
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae, 0xfb3567a566e616ae,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x8f583687d08e3bbb,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08, 0x0058a3190af95b08,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x3c442abe16cf5a4b, 0x3c442abe16cf5a4b, 0x576ab615df892928, 0x576ab615df892928,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x5bc5f5d41d06a323, 0x5bc5f5d41d06a323, 0xc21d24ebff82e0e9, 0xc21d24ebff82e0e9,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0x1ece276db9d2ec5d, 0x1ece276db9d2ec5d, 0x9fe598debf5245d1, 0x9fe598debf5245d1,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xaf068cee8ec8fc3b, 0xaf068cee8ec8fc3b, 0x20010e7db2046001, 0x20010e7db2046001,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0xfb3567a566e616ae, 0xfb3567a566e616ae, 0x94f0aa0a114f6c9b, 0x94f0aa0a114f6c9b,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x8f583687d08e3bbb, 0x8f583687d08e3bbb, 0x55b22c08618e3441, 0x55b22c08618e3441,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x9ebd73bd7cf5f218, 0x9ebd73bd7cf5f218, 0xcf6937d9ecef8e8e, 0xcf6937d9ecef8e8e,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0x0058a3190af95b08, 0x0058a3190af95b08, 0xf4fbe520d775482b, 0xf4fbe520d775482b,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
    0xd760ef4fd4d4c847, 0xd760ef4fd4d4c847, 0x93b32426935ed869, 0x93b32426935ed869,
];

#[test]
fn golden_table_pins_every_preset_bits() {
    let x = clustered_tensor(&ClusteredConfig::new([40, 36, 30], 3_000), 12);
    let mut expected = GOLDEN.iter();
    let mut mismatches = Vec::new();
    for (kind, name) in PRESETS {
        for mode in 0..3 {
            for rank in [7usize, 16, 40] {
                let factors = golden_factors(x.dims(), rank);
                let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
                for exec in [ExecPolicy::serial(), ExecPolicy::auto()] {
                    for grid in [[1, 1, 1], [3, 2, 2]] {
                        for strip_width in [16, rank] {
                            let cfg = KernelConfig {
                                grid,
                                strip_width,
                                exec: exec.clone(),
                            };
                            let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
                            let k = build_kernel(kind, &x, mode, &cfg);
                            assert_eq!((k.mode(), k.name()), (mode, name));
                            k.mttkrp(&fs, &mut out);
                            let want = *expected.next().expect("golden table too short");
                            if bits_hash(&out) != want {
                                mismatches.push(format!(
                                    "{kind:?} mode {mode} rank {rank} parallel {} \
                                     grid {grid:?} strip {strip_width}",
                                    exec.is_parallel()
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(expected.next().is_none(), "golden table too long");
    assert!(
        mismatches.is_empty(),
        "output bits changed: {mismatches:#?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_kernels_match_dense_reference(
        x in arb_tensor(),
        rank in 1usize..20,
        mode in 0usize..3,
        ga in 1usize..4,
        gb in 1usize..4,
        gc in 1usize..4,
        strip in 1usize..24,
        raw in proptest::num::u64::ANY,
    ) {
        let dims = x.dims();
        let factors = seeded_factors(dims, rank, raw);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&x, &fs, mode);

        let grid = fitted_grid(dims, mode, [ga, gb, gc]);
        let cfg = KernelConfig { grid, strip_width: strip, ..Default::default() };
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            k.mttkrp(&fs, &mut out);
            prop_assert!(
                expect.approx_eq(&out, 1e-9),
                "{kind:?} mode {mode} grid {grid:?} strip {strip}: max diff {}",
                expect.max_abs_diff(&out)
            );
        }
    }

    #[test]
    fn adversarial_cases_with_off_block_ranks_match_dense(
        case in ArbFuzzCase,
        rank_pick in 0usize..3,
        mode in 0usize..3,
        ga in 1usize..4,
        gb in 1usize..4,
        gc in 1usize..4,
        strip in 1usize..24,
        seed in proptest::num::u64::ANY,
    ) {
        // Ranks deliberately off the REG_BLOCK (16) multiple: the register
        // loop's remainder path runs on every strip.
        let rank = [15usize, 17, 37][rank_pick];
        let x = case.coo;
        let dims = x.dims();
        let factors = seeded_factors(dims, rank, seed);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&x, &fs, mode);

        let grid = fitted_grid(dims, mode, [ga, gb, gc]);
        let cfg = KernelConfig { grid, strip_width: strip, ..Default::default() };
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            k.mttkrp(&fs, &mut out);
            prop_assert!(
                expect.approx_eq(&out, 1e-9),
                "{kind:?} ({}) mode {mode} rank {rank} grid {grid:?} strip {strip}: max diff {}",
                case.label,
                expect.max_abs_diff(&out)
            );
        }
    }

    #[test]
    fn empty_output_slices_stay_zero_in_every_kernel(
        case in ArbFuzzCase,
        mode in 0usize..3,
        seed in proptest::num::u64::ANY,
    ) {
        // Hollow out the output mode: drop every entry whose output-mode
        // coordinate is even, so those rows have no contributing nonzeros.
        let dims = case.coo.dims();
        let entries: Vec<Entry> = case
            .coo
            .entries()
            .iter()
            .copied()
            .filter(|e| e.idx[mode] % 2 == 1)
            .collect();
        let x = CooTensor::from_entries(dims, entries);
        let rank = 17; // off the register-block multiple on purpose
        let factors = seeded_factors(dims, rank, seed);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&x, &fs, mode);

        let grid = fitted_grid(dims, mode, [2usize, 2usize, 2usize]);
        let cfg = KernelConfig { grid, strip_width: 8, ..Default::default() };
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            k.mttkrp(&fs, &mut out);
            prop_assert!(
                expect.approx_eq(&out, 1e-9),
                "{kind:?} ({}) mode {mode}: max diff {}",
                case.label,
                expect.max_abs_diff(&out)
            );
            for r in (0..dims[mode]).step_by(2) {
                prop_assert!(
                    out.row(r).iter().all(|&v| v == 0.0),
                    "{kind:?} ({}) mode {mode}: wrote into empty slice {r}",
                    case.label
                );
            }
        }
    }

    #[test]
    fn parallel_kernels_match_sequential(
        x in arb_tensor(),
        rank in 1usize..16,
        mode in 0usize..3,
    ) {
        let dims = x.dims();
        let factors: Vec<DenseMatrix> = (0..3)
            .map(|m| DenseMatrix::from_fn(dims[m], rank, |r, c| ((r * 7 + c * 3 + m) % 11) as f64 * 0.2 - 1.0))
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for (kind, _) in PRESETS {
            let grid = fitted_grid(dims, mode, [2, 2, 2]);
            let cfg_seq = KernelConfig { grid, strip_width: 8, exec: ExecPolicy::serial() };
            let cfg_par = KernelConfig { exec: ExecPolicy::auto(), ..cfg_seq.clone() };
            let k_seq = build_kernel(kind, &x, mode, &cfg_seq);
            let k_par = build_kernel(kind, &x, mode, &cfg_par);
            let mut a = DenseMatrix::zeros(dims[mode], rank);
            let mut b = DenseMatrix::zeros(dims[mode], rank);
            k_seq.mttkrp(&fs, &mut a);
            k_par.mttkrp(&fs, &mut b);
            prop_assert!(a.approx_eq(&b, 1e-12), "{kind:?} parallel mismatch");
        }
    }

    #[test]
    fn bcoo_matches_dense_across_modes_and_reg_block_edges(
        case in ArbFuzzCase,
        rank_pick in 0usize..3,
        ga in 1usize..5,
        gb in 1usize..5,
        gc in 1usize..5,
        strip in 1usize..24,
        seed in proptest::num::u64::ANY,
    ) {
        // BCOO gets its own sweep: ranks straddling REG_BLOCK (16) so the
        // micro-kernel's full-chunk and remainder column paths both run,
        // every mode, and grids coarse enough that the gather heuristic
        // takes both its branches across the fuzz case classes.
        let rank = [15usize, 16, 17][rank_pick];
        let x = case.coo;
        let dims = x.dims();
        let factors = seeded_factors(dims, rank, seed);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        for mode in 0..3 {
            let expect = dense_mttkrp(&x, &fs, mode);
            let grid = fitted_grid(dims, mode, [ga, gb, gc]);
            let cfg = KernelConfig { grid, strip_width: strip, ..Default::default() };
            let k = build_kernel(KernelKind::Bcoo, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            k.mttkrp(&fs, &mut out);
            prop_assert!(
                expect.approx_eq(&out, 1e-9),
                "BCOO ({}) mode {mode} rank {rank} grid {grid:?} strip {strip}: max diff {}",
                case.label,
                expect.max_abs_diff(&out)
            );
        }
    }

    #[test]
    fn all_kernels_pass_checked_execution(
        x in arb_tensor(),
        rank in 1usize..16,
        mode in 0usize..3,
    ) {
        let dims = x.dims();
        let factors = seeded_factors(dims, rank, 0xc0ffee);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let expect = dense_mttkrp(&x, &fs, mode);
        let cfg = KernelConfig {
            grid: fitted_grid(dims, mode, [2, 2, 2]),
            strip_width: 8,
            exec: ExecPolicy::checked(),
        };
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            let res = k.mttkrp_checked(&fs, &mut out);
            prop_assert!(res.is_ok(), "{kind:?} mode {mode} refused: {:?}", res.err());
            prop_assert!(
                expect.approx_eq(&out, 1e-9),
                "{kind:?} mode {mode}: checked run diverged from reference"
            );
        }
    }
    #[test]
    fn presets_sharing_a_grid_are_bit_identical(
        x in arb_tensor(),
        rank in 1usize..40,
        mode in 0usize..3,
        ga in 1usize..4,
        gb in 1usize..4,
        gc in 1usize..4,
        strip in 1usize..24,
        parallel in 0usize..2,
        raw in proptest::num::u64::ANY,
    ) {
        let dims = x.dims();
        let factors = seeded_factors(dims, rank, raw);
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let grid = fitted_grid(dims, mode, [ga, gb, gc]);
        let exec = if parallel == 1 { ExecPolicy::auto() } else { ExecPolicy::serial() };
        let bits = |kind: KernelKind, grid: [usize; 3], strip_width: usize| {
            let cfg = KernelConfig { grid, strip_width, exec: exec.clone() };
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            build_kernel(kind, &x, mode, &cfg).mttkrp(&fs, &mut out);
            out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        // SPLATT = MB@1x1x1 = RankB = MB+RankB@1x1x1.
        let flat = bits(KernelKind::MbRankB, [1, 1, 1], strip);
        for kind in [KernelKind::Splatt, KernelKind::Mb, KernelKind::RankB] {
            prop_assert!(bits(kind, [1, 1, 1], strip) == flat, "{kind:?} vs MB+RankB@1x1x1");
        }
        // MB = MB+RankB = BCOO at one grid, at strip `strip` and at strip R.
        let mb = bits(KernelKind::Mb, grid, strip);
        for (kind, width) in [
            (KernelKind::MbRankB, strip),
            (KernelKind::MbRankB, rank),
            (KernelKind::Bcoo, strip),
            (KernelKind::Bcoo, rank),
        ] {
            prop_assert!(
                bits(kind, grid, width) == mb,
                "{kind:?} strip {width} vs MB at grid {grid:?}"
            );
        }
    }
}
