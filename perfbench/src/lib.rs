//! The repository benchmark: four seeded workloads driven through the
//! crates' public APIs exactly as the `tenblock` CLI and server use them,
//! end-to-end metrics measured with tracing off, and a separate traced run
//! that breaks the same paths down layer by layer.
//!
//! The metric names, units and directions here are the ones declared in
//! the repository's `BENCHMARK.json`; `tests/contract.rs` holds the two in
//! step, and [`Report::finish`] refuses to print a result whose metric set
//! differs from the declared one.

#![allow(clippy::needless_range_loop)]

pub mod als;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of `decompose` or `serve` sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric, with the end-to-end metric it should move and the
/// workloads on which it should move it.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

pub const ALS_POISSON2: &str = "als-poisson2";
pub const ALS_AMAZON: &str = "als-amazon";
pub const STREAM_NELL2: &str = "stream-nell2";
pub const SERVE_MTTKRP: &str = "serve-mttkrp";

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [ALS_POISSON2, ALS_AMAZON, STREAM_NELL2, SERVE_MTTKRP];

const ALS: &[&str] = &[ALS_POISSON2, ALS_AMAZON];
const ALL: &[&str] = &[ALS_POISSON2, ALS_AMAZON, STREAM_NELL2, SERVE_MTTKRP];

/// The end-to-end metrics. An "operation" is one ALS iteration on the
/// three ALS workloads and one `mttkrp` request on `serve-mttkrp`.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $moves:expr, $on:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            on: $on,
        }
    };
}

/// The per-layer metrics of the traced run. Layers are the workspace
/// crates on the two end-to-end paths (`tensor`, `core` kernels,
/// `core::stream`, `cpd`, `serve`) plus the machine probe and the
/// benchmark's own tracing cost.
pub const PER_LAYER: [LayerMetric; 48] = [
    layer!("machine.l2_bytes", "B", "higher", "op_ms", ALL),
    layer!("machine.llc_bytes", "B", "higher", "op_ms", ALL),
    layer!("machine.triad_gbs", "GB/s", "higher", "op_ms", ALL),
    layer!("machine.triad_array_bytes", "B", "higher", "op_ms", ALL),
    layer!("tensor.load_s", "s", "lower", "setup_s", ALS),
    layer!("tensor.layout_build_s", "s", "lower", "setup_s", ALS),
    layer!(
        "tensor.layout_bytes_per_nnz",
        "B",
        "lower",
        "peak_rss_mb",
        ALS
    ),
    layer!(
        "tensor.store_build_s",
        "s",
        "lower",
        "setup_s",
        &[STREAM_NELL2]
    ),
    layer!(
        "tensor.store_bytes",
        "B",
        "lower",
        "setup_s",
        &[STREAM_NELL2]
    ),
    layer!("tensor.tile_load_s", "s", "lower", "op_ms", &[STREAM_NELL2]),
    layer!(
        "tensor.tile_load_gbs",
        "GB/s",
        "higher",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!("core.mttkrp_m0_s", "s", "lower", "op_ms", &[ALS_POISSON2]),
    layer!("core.mttkrp_m1_s", "s", "lower", "op_ms", &[ALS_POISSON2]),
    layer!("core.mttkrp_m2_s", "s", "lower", "op_ms", &[ALS_POISSON2]),
    layer!(
        "core.mttkrp_share",
        "fraction",
        "lower",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!(
        "core.mttkrp_flops",
        "count",
        "lower",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!(
        "core.mttkrp_bytes_computed",
        "B",
        "lower",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!(
        "core.mttkrp_flop_per_byte",
        "flop/B",
        "higher",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!(
        "core.mttkrp_gbs",
        "GB/s",
        "higher",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!(
        "core.mttkrp_peak_frac",
        "fraction",
        "higher",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!("core.mttkrp_serial_s", "s", "lower", "op_ms", ALS),
    layer!("core.parallel_speedup", "x", "higher", "op_ms", ALS),
    layer!("core.splatt_s", "s", "lower", "op_ms", &[ALS_POISSON2]),
    layer!(
        "core.speedup_vs_splatt",
        "x",
        "higher",
        "op_ms",
        &[ALS_POISSON2]
    ),
    layer!("core.factor_b_over_l2", "x", "lower", "op_ms", ALS),
    layer!("core.factor_b_over_llc", "x", "lower", "op_ms", ALS),
    layer!("stream.pass_s", "s", "lower", "op_ms", &[STREAM_NELL2]),
    layer!(
        "stream.prefetch_stall_s",
        "s",
        "lower",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!(
        "stream.stall_share",
        "fraction",
        "lower",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!(
        "stream.tiles_loaded",
        "count",
        "lower",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!(
        "stream.bytes_streamed",
        "B",
        "lower",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!(
        "stream.tile_retries",
        "count",
        "lower",
        "op_ms",
        &[STREAM_NELL2]
    ),
    layer!("cpd.gram_s", "s", "lower", "op_ms", &[ALS_AMAZON]),
    layer!("cpd.solve_s", "s", "lower", "op_ms", &[ALS_AMAZON]),
    layer!("cpd.normalize_s", "s", "lower", "op_ms", &[ALS_AMAZON]),
    layer!(
        "cpd.algebra_share",
        "fraction",
        "lower",
        "op_ms",
        &[ALS_AMAZON]
    ),
    layer!("cpd.fit_s", "s", "lower", "op_ms", ALS),
    layer!("cpd.unattributed_share", "fraction", "lower", "op_ms", ALS),
    layer!("cpd.mirror_gap_frac", "fraction", "lower", "op_ms", ALS),
    layer!("serve.kernel_ms", "ms", "lower", "op_ms", &[SERVE_MTTKRP]),
    layer!("serve.build_ms", "ms", "lower", "op_ms", &[SERVE_MTTKRP]),
    layer!("serve.wire_ms", "ms", "lower", "op_ms", &[SERVE_MTTKRP]),
    layer!(
        "serve.json_parse_us",
        "us",
        "lower",
        "op_ms",
        &[SERVE_MTTKRP]
    ),
    layer!(
        "serve.json_encode_us",
        "us",
        "lower",
        "op_ms",
        &[SERVE_MTTKRP]
    ),
    layer!(
        "serve.queue_wait_ms",
        "ms",
        "lower",
        "op_tail_ms",
        &[SERVE_MTTKRP]
    ),
    layer!(
        "serve.requests",
        "count",
        "higher",
        "ops_per_s",
        &[SERVE_MTTKRP]
    ),
    layer!(
        "serve.jobs_rejected",
        "count",
        "lower",
        "ops_per_s",
        &[SERVE_MTTKRP]
    ),
    layer!(
        "bench.trace_overhead_frac",
        "fraction",
        "lower",
        "op_ms",
        ALL
    ),
];

/// Sizes the workloads run at. `Full` is the benchmark; `Smoke` shrinks
/// every input and probe so the test suite can run each path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Collects one run's metrics and output checks, and renders the
/// result line.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations (and output checks) attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Why each failure was counted, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The metric names this report holds.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.keys().copied().collect()
    }

    /// Renders the result line: `{"correct", "attempted", "failed",
    /// "metrics"}`. Errors when the recorded metric set is not exactly the
    /// declared set for this mode, or a value is not finite.
    pub fn finish(&self, traced: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut want: Vec<&str> = declared.iter().map(|d| d.0).collect();
        want.sort_unstable();
        if want != self.names() {
            return Err(format!(
                "metric set mismatch: declared {want:?}, measured {:?}",
                self.names()
            ));
        }
        let mut parts = Vec::new();
        for (name, unit) in declared {
            let v = self.metrics[name];
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}
