//! Small measurement helpers: order statistics, timers, process memory,
//! and the content fingerprint recorded for every generated input.

use crate::Scale;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of `xs` (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest percentile a sample supports with at least ten samples
/// beyond it: p99 from 1000 samples on, otherwise the slowest sample.
pub fn tail(xs: &[f64]) -> f64 {
    if xs.len() >= 1000 {
        quantile(xs, 0.99)
    } else {
        xs.iter().copied().fold(f64::NAN, f64::max)
    }
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Wall time one [`repeat_setup`] call spends, at full scale. A run
/// calls it twice, before and after its measured operations, so the
/// set-up samples span the run and not one phase of a noisy machine;
/// `setup_s` is the median of both groups.
pub const SETUP_SECONDS: f64 = 3.0;

/// Set-up repetitions per call at full scale: at least `MIN`, then more
/// until [`SETUP_SECONDS`] are spent, at most `MAX`.
const SETUP_REPS_MIN: usize = 2;
const SETUP_REPS_MAX: usize = 10;

/// Runs the set-up `f` repeatedly, appends each wall time to `times`, and
/// returns the last result. Each result is dropped before the next
/// set-up starts, so set-ups never overlap in memory. At smoke scale it
/// runs once.
pub fn repeat_setup<T, E>(
    scale: Scale,
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let (min, max) = match scale {
        Scale::Full => (SETUP_REPS_MIN, SETUP_REPS_MAX),
        Scale::Smoke => (1, 1),
    };
    let (mut reps, mut spent) = (0, 0.0);
    let mut ready = None;
    while reps < min || (reps < max && spent < SETUP_SECONDS) {
        drop(ready.take());
        let (r, dt) = timed(&mut f);
        ready = Some(r?);
        times.push(dt);
        reps += 1;
        spent += dt;
    }
    eprintln!("set-up seconds so far: {times:?}");
    Ok(ready.expect("at least one set-up"))
}

/// Peak resident set size (`VmHWM`) of process `pid` in bytes, from
/// `/proc/<pid>/status`.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// 64-bit FNV-1a hash of a file's bytes: the input fingerprint. Equal
/// seeds must give equal fingerprints, because the inputs are
/// byte-identical.
pub fn file_fingerprint(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&small), 49.0);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&big) - 989.01).abs() < 1e-9);
    }
}
