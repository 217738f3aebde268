//! Measuring tools: latency histograms, batch timers, quantiles and the
//! process counters read from `/proc/self`.

use std::time::Instant;

/// Sub-buckets per power of two: 256 keeps every bucket narrower than
/// 0.4 % of its value, and a histogram at 56 octaves stays at ~110 KiB
/// whatever the run length, so memory never grows with throughput.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear latency histogram over nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; SUB * (64 - SUB_BITS as usize + 1)],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    ((shift as usize + 1) << SUB_BITS) + sub
}

/// Lower bound and width of a bucket.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    let sub = (idx & (SUB - 1)) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `pct`-th percentile in nanoseconds, interpolated linearly by
    /// rank inside its bucket (0 for an empty histogram).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, width) = bucket_range(idx);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + width as f64 * within / n as f64;
            }
            seen += n;
        }
        0.0
    }
}

/// Median and quartile spread of a sample, with Python's
/// `statistics.quantiles(n=4)` (exclusive) method.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    /// Interquartile range as a percentage of the median.
    pub iqr_pct: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Spread {
            median: 0.0,
            iqr_pct: 0.0,
        };
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return Spread {
            median,
            iqr_pct: 0.0,
        };
    }
    let q = |k: usize| {
        // Exclusive method: position k*(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac.clamp(0.0, 1.0)
    };
    let iqr = q(3) - q(1);
    Spread {
        median,
        iqr_pct: if median > 0.0 {
            100.0 * iqr / median
        } else {
            0.0
        },
    }
}

/// Throughput and CPU cost of a phase, kept per segment (a group round,
/// a second of pipelining). A phase reports whole-phase ratios: requests
/// over the summed segment time, and CPU over the requests. On a shared
/// virtual host the speed wanders between fast and slow stretches lasting
/// seconds to minutes; a ratio of sums weighs each stretch by its time,
/// while a median over segments jumps to whichever stretch held the
/// majority, so runs spread more with the median.
#[derive(Default)]
pub struct Segments {
    rates: Vec<f64>,
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Segments {
    pub fn push(&mut self, ops: u64, wall_s: f64, cpu_s: f64) {
        self.rates.push(ops as f64 / wall_s);
        self.ops += ops;
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
    }

    /// Operations per second of the timed segments.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Process CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        1e6 * self.cpu_s / self.ops.max(1) as f64
    }

    pub fn merge(&mut self, other: &Segments) {
        self.rates.extend_from_slice(&other.rates);
        self.ops += other.ops;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }

    /// Segment count and the range of their rates, for the health lines.
    pub fn summary(&self) -> String {
        let lo = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.rates.iter().copied().fold(0.0, f64::max);
        format!("{} segments, {lo:.0} to {hi:.0} ops/s", self.rates.len())
    }
}

/// Times `batches` batches of `ops` operations each and returns the
/// per-operation nanoseconds of every batch. Sub-microsecond operations
/// are only ever timed this way, never one call at a time.
pub fn time_batches(batches: usize, ops: usize, mut batch: impl FnMut(usize)) -> Vec<f64> {
    (0..batches)
        .map(|b| {
            let start = Instant::now();
            batch(b);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

fn proc_status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The process's resident-set high-water mark in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads the process has right now.
pub fn threads() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Linux reports `/proc/self/stat` CPU times in clock ticks of 1/100 s.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of the whole process, summed over every
/// thread it has had, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) as f64 / TICKS_PER_SEC,
        _ => 0.0,
    }
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Milliseconds a fixed single-threaded integer loop takes: a yardstick
/// for the host's speed at the time of a run, printed beside the metrics
/// and used by none of them.
pub fn host_ref_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0u64;
    for i in 0..1u64 << 24 {
        x = mix64(x ^ i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Tracks the highest thread count seen at the sampling points a
/// workload passes through (after each start-up, inside each phase).
#[derive(Default)]
pub struct ThreadPeak(u64);

impl ThreadPeak {
    pub fn sample(&mut self) {
        self.0 = self.0.max(threads());
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Splitmix64: derives independent, reproducible streams from one seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            123_456,
            987_654_321,
            u64::MAX / 3,
        ] {
            let (lo, width) = bucket_range(bucket_of(v));
            assert!(
                lo <= v && v < lo + width,
                "{v} not in [{lo}, {})",
                lo + width
            );
        }
    }

    #[test]
    fn percentile_of_uniform_data() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.percentile(50.0);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.005, "{p50}");
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.iqr_pct - 100.0 * 5.5 / 5.5).abs() < 1e-9);
    }
}
