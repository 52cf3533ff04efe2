//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Strip factor layout** (Section V-B's "small rearrangement of the
//!    factor matrix") vs reading strips out of the plain row-major layout.
//! 2. **Block traversal order**: `b`-major (reuse the expensive mode-2
//!    factor block, per Section IV-B) vs `c`-major.
//! 3. **Format**: the COO kernel vs the SPLATT kernel (the Section III-C
//!    motivation for the fiber format).
//! 4. **Parallelism**: rayon on/off for the baseline and blocked kernels.
//! 5. **All-mode fusion**: one memoized pass producing every mode's MTTKRP
//!    (ref. [17] style) vs three separate SPLATT kernels.
//!
//! Run: `cargo run -p tenblock-bench --release --bin ablations [--scale f] [--rank r] [--reps n]`

use tenblock_bench::{
    arg_reps, arg_scale, arg_seed, arg_value, bench_factors, mode0_kernel, scaled_dataset,
    time_kernel,
};
use tenblock_core::block::{BlockedKernel, RankbLayout, Traversal};
use tenblock_core::mttkrp::AllModeKernel;
use tenblock_core::timing::time_reps;
use tenblock_core::{build_kernel, ExecPolicy, KernelConfig, KernelKind, MttkrpKernel};
use tenblock_tensor::gen::{poisson_tensor, Dataset, PoissonConfig};
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

fn main() {
    let scale = arg_scale();
    let reps = arg_reps(3);
    let rank: usize = arg_value("--rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let seed = arg_seed();

    let x = scaled_dataset(Dataset::Nell2, scale, seed);
    println!(
        "ablations on NELL2 analogue: dims {:?}, nnz {}, rank {rank}",
        x.dims(),
        x.nnz()
    );
    let factors = bench_factors(x.dims(), rank, seed);
    let mut out = DenseMatrix::zeros(x.dims()[0], rank);
    let row = |name: &str, secs: f64, base: Option<f64>| {
        match base {
            Some(b) => println!("  {name:<34} {secs:>9.4} s   ({:>5.2}x)", b / secs),
            None => println!("  {name:<34} {secs:>9.4} s",),
        }
        secs
    };

    println!("\n[1] RankB factor layout (strip width 16):");
    let plain = BlockedKernel::rankb(&x, 0, 16);
    let strip = BlockedKernel::rankb(&x, 0, 16).with_layout(RankbLayout::Strip);
    let tp = time_kernel(&plain, &factors, &mut out, reps);
    row("plain row-major reads", tp, None);
    let ts = time_kernel(&strip, &factors, &mut out, reps);
    row("stacked strip layout", ts, Some(tp));

    println!("\n[2] MB block traversal order (grid 4x4x4):");
    let bmaj = BlockedKernel::mb(&x, 0, [4, 4, 4]);
    let cmaj = BlockedKernel::mb(&x, 0, [4, 4, 4]).with_traversal(Traversal::CMajor);
    let tb = time_kernel(&bmaj, &factors, &mut out, reps);
    row("b-major (mode-2 block reused)", tb, None);
    let tc = time_kernel(&cmaj, &factors, &mut out, reps);
    row("c-major (mode-3 block reused)", tc, Some(tb));

    println!("\n[3] Storage format (Section III-C):");
    let coo_vs_splatt = |x: &CooTensor| {
        let factors = bench_factors(x.dims(), rank, seed);
        let mut out = DenseMatrix::zeros(x.dims()[0], rank);
        let coo = mode0_kernel(KernelKind::Coo, x, [1, 1, 1], 0, ExecPolicy::serial());
        let splatt = mode0_kernel(KernelKind::Splatt, x, [1, 1, 1], 0, ExecPolicy::serial());
        let tcoo = time_kernel(&*coo, &factors, &mut out, reps);
        row("COO kernel", tcoo, None);
        let tsp = time_kernel(&*splatt, &factors, &mut out, reps);
        row("SPLATT kernel (Algorithm 1)", tsp, Some(tcoo));
    };
    println!("  -- thin fibers (this NELL2 analogue, nnz/F ~= 1):");
    coo_vs_splatt(&x);
    // Algorithm 1's per-fiber factoring only pays when fibers hold several
    // nonzeros ("more nonzeros there are in the fiber, more computation and
    // data movement that can be saved") — show the dense-fiber regime too.
    let dim = ((x.dims()[0] as f64) * 1.5) as usize;
    let mut pcfg = PoissonConfig::new([dim; 3], x.nnz());
    pcfg.gen_rank = 8;
    pcfg.support_frac_per_mode = Some([0.01, 0.08, 0.01]);
    let xf = poisson_tensor(&pcfg, seed);
    let f = xf.count_fibers(tenblock_tensor::coo::MODE1_PERM);
    println!(
        "  -- dense fibers (Poisson, nnz/F = {:.1}):",
        xf.nnz() as f64 / f as f64
    );
    coo_vs_splatt(&xf);

    println!(
        "\n[4] rayon parallelism ({} threads available):",
        rayon::current_num_threads()
    );
    for (name, kind, grid, strip) in [
        ("SPLATT", KernelKind::Splatt, [1, 1, 1], 0),
        ("MB+RankB", KernelKind::MbRankB, [4, 2, 2], 16),
    ] {
        let seq = mode0_kernel(kind, &x, grid, strip, ExecPolicy::serial());
        let par = mode0_kernel(kind, &x, grid, strip, ExecPolicy::auto());
        let ts = time_kernel(&*seq, &factors, &mut out, reps);
        row(&format!("{name} sequential"), ts, None);
        let tp = time_kernel(&*par, &factors, &mut out, reps);
        row(&format!("{name} parallel"), tp, Some(ts));
    }

    println!("\n[5] All-mode MTTKRP (every mode at one factor state):");
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    let mut outs: [DenseMatrix; NMODES] =
        std::array::from_fn(|m| DenseMatrix::zeros(x.dims()[m], rank));
    let separate: Vec<Box<dyn MttkrpKernel>> = (0..NMODES)
        .map(|m| build_kernel(KernelKind::Splatt, &x, m, &KernelConfig::default()))
        .collect();
    let t5 = time_reps(1, reps, || {
        for (k, o) in separate.iter().zip(outs.iter_mut()) {
            k.mttkrp(&fs, o);
        }
    })
    .min_secs;
    row("3x separate SPLATT kernels", t5, None);
    let fused = AllModeKernel::new(&x);
    let t6 = time_reps(1, reps, || fused.mttkrp_all(&fs, &mut outs)).min_secs;
    row("fused, memoized (ref. [17])", t6, Some(t5));
    std::hint::black_box(outs[0].as_slice());
}
