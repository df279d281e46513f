//! Host calibration, robust statistics and process-level readings.
//!
//! A shared 2-core sandbox drifts in two ways: the core clock steps between
//! levels every few hundred milliseconds (a pure-ALU chain reads 3.3 to
//! 4.3 ns per step), and for a minute or two at a time a neighbour evicts
//! this process's cache lines (an L2-resident pointer chase slows by 30%
//! while the ALU chain does not move). Every timed path follows both. Each
//! timed region is therefore bracketed by a fixed calibration kernel that
//! is sensitive to both, and reported in *normalised* nanoseconds — what
//! the region would have cost on a host where the kernel runs at
//! [`NOMINAL_NS_PER_ITER`].

use crate::gen::mix64;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Iterations of the calibration kernel per reading: eight bursts of 2¹⁷.
pub const CALIB_ITERS: u64 = 1 << 20;
const CALIB_BURSTS: u64 = 8;
/// Entries of the kernel's table: 2¹⁶ × 4 B = 256 KiB, L2-resident on a
/// quiet host.
const CALIB_TABLE: usize = 1 << 16;
/// The kernel speed normalised times are expressed at (what a quiet
/// period of the first host read: ≈4.3 ns of mixing + ≈5.7 ns of load).
pub const NOMINAL_NS_PER_ITER: f64 = 10.0;

fn calib_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| (0..CALIB_TABLE as u64).map(|i| mix64(i) as u32).collect())
}

/// One reading of the calibration kernel, in ns per iteration: a serial
/// dependency chain of `x = mix64(x ^ table[x mod 2¹⁶])`, one ALU mix and
/// one dependent L2 load per step. The mix follows the core clock; the
/// load follows the clock *and* cache contention — measured against the
/// switch paths and the bare engine over ten minutes of this host, that
/// blend halved the drift a pure-ALU chain left (see README). The reading
/// is the median of eight short bursts, so a millisecond of interference
/// lands in one or two bursts and is ignored.
pub fn calibrate() -> f64 {
    let table = calib_table();
    let per_burst = CALIB_ITERS / CALIB_BURSTS;
    let mut x = black_box(0x243f_6a88_85a3_08d3u64);
    let bursts: Vec<f64> = (0..CALIB_BURSTS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_burst {
                x = mix64(x ^ table[x as usize % CALIB_TABLE] as u64);
            }
            x = black_box(x);
            t.elapsed().as_nanos() as f64 / per_burst as f64
        })
        .collect();
    median(&bursts)
}

/// A duration on the nominal host, given the calibration reading that
/// bracketed it.
pub fn normalise(raw_ns: f64, calib: f64) -> f64 {
    raw_ns * NOMINAL_NS_PER_ITER / calib
}

/// One timed region with its calibration bracket.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall-clock nanoseconds of the region.
    pub raw_ns: f64,
    /// Mean of the calibration readings taken just before and just after.
    pub calib: f64,
}

impl Rep {
    /// The region's cost on the nominal host.
    pub fn norm_ns(&self) -> f64 {
        normalise(self.raw_ns, self.calib)
    }
}

/// Runs `region` between two calibration readings; returns their mean
/// with the region's result.
pub fn bracketed<T>(region: impl FnOnce() -> T) -> (f64, T) {
    let before = calibrate();
    let out = region();
    let after = calibrate();
    ((before + after) / 2.0, out)
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles by the rule Python's `statistics.quantiles(values, n=4)`
    /// uses (the "exclusive" method), so spreads computed here and by the
    /// driver agree. A single value is its own quartiles.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let ld = v.len();
        if ld == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n: 1,
            };
        }
        let cut = |i: usize| {
            let m = ld + 1;
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n: ld,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// First decile of a sample: the value a tenth of the way up the sorted
/// sample (the minimum below ten values).
pub fn first_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "decile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 10]
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn first_decile_is_a_tenth_of_the_way_up() {
        let v: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(first_decile(&v), 3.0);
        assert_eq!(first_decile(&[7.0, 5.0, 6.0]), 5.0);
    }

    #[test]
    fn normalisation_cancels_a_uniform_slowdown() {
        let fast = Rep {
            raw_ns: 1000.0,
            calib: 10.0,
        };
        let slow = Rep {
            raw_ns: 1300.0,
            calib: 13.0,
        };
        assert!((fast.norm_ns() - slow.norm_ns()).abs() < 1e-9);
    }
}
