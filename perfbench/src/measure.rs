//! Measurement helpers shared by the workloads: the seeded generator that
//! derives every input, the machine-speed calibration, latency percentiles,
//! the process's resident-set figures and the counters read from the
//! solver layers.

use crate::{ratio, Outcome};
use harvester_mna::transient::RunStatistics;
use std::time::Instant;

/// SplitMix64: a small, well-mixed generator. Every workload input is drawn
/// from one of these, seeded from `--seed`, so the same seed always gives
/// the same inputs whatever the library's own random-number crates do.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, salted so workloads sharing a seed draw
    /// unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = SplitMix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `values` (sorted in place).
/// Returns 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place), 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Order of the calibration kernel's matrix.
const KERNEL_ORDER: usize = 24;
/// Factorisations per kernel call: about half a millisecond.
const KERNEL_REPS: usize = 128;
/// Kernel calls per calibration; their median is its reading.
const KERNEL_CALLS: usize = 5;
/// Milliseconds of one kernel call on the reference machine, about the
/// median reading of the machine below. Timings are scaled to this speed.
pub const REFERENCE_KERNEL_MS: f64 = 0.5;
/// Readings around a unit whose median scales it: the machine's speed
/// changes within a second, and single readings jitter.
const KERNEL_WINDOW: usize = 9;

/// Milliseconds of one call of the calibration kernel: LU factorisation
/// with partial pivoting and a solve of a fixed, diagonally dominant
/// system, repeated. The kernel is the benchmark's own code, so a change to
/// the program under test never changes its speed; only the machine does.
pub fn kernel_ms() -> f64 {
    const N: usize = KERNEL_ORDER;
    let start = Instant::now();
    let mut checksum = 0.0;
    for rep in 0..KERNEL_REPS {
        let shift = std::hint::black_box(rep % 7) as f64;
        let mut a = [[0.0f64; N]; N];
        let mut b = [1.0f64; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, value) in row.iter_mut().enumerate() {
                *value = 1.0 / (1.0 + shift + (i + j) as f64);
            }
            row[i] += N as f64;
        }
        for k in 0..N {
            let pivot = (k..N)
                .max_by(|&x, &y| a[x][k].abs().total_cmp(&a[y][k].abs()))
                .expect("the pivot column is not empty");
            a.swap(k, pivot);
            b.swap(k, pivot);
            let (upper, lower) = a.split_at_mut(k + 1);
            let row_k = &upper[k];
            let b_k = b[k];
            for (row, rhs) in lower.iter_mut().zip(&mut b[k + 1..]) {
                let factor = row[k] / row_k[k];
                for (x, y) in row[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *x -= factor * y;
                }
                *rhs -= factor * b_k;
            }
        }
        for i in (0..N).rev() {
            let tail: f64 = (i + 1..N).map(|j| a[i][j] * b[j]).sum();
            b[i] = (b[i] - tail) / a[i][i];
        }
        checksum += b[0];
    }
    std::hint::black_box(checksum);
    1e3 * seconds_since(start)
}

/// The machine's speed now: the median time of [`KERNEL_CALLS`] kernel
/// calls, in milliseconds.
pub fn calibrate() -> f64 {
    let mut calls: Vec<f64> = (0..KERNEL_CALLS).map(|_| kernel_ms()).collect();
    median(&mut calls)
}

/// A `time` measured while the kernel read `kernel_ms`, scaled to the
/// reference machine's speed (in the unit of `time`).
pub fn at_reference(time: f64, kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        time * REFERENCE_KERNEL_MS / kernel_ms
    } else {
        time
    }
}

/// Clock ticks of the whole machine, summed over its CPUs, from the first
/// line of `/proc/stat`: those the host stole from the vCPUs while they
/// wanted to run, and those they ran. Zero where the file cannot be read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    /// Ticks the host stole.
    pub stolen: u64,
    /// Ticks spent running: user, nice, system, irq and softirq.
    pub running: u64,
}

impl Ticks {
    /// The machine's ticks since boot.
    pub fn now() -> Ticks {
        let read = || -> Option<Ticks> {
            let stat = std::fs::read_to_string("/proc/stat").ok()?;
            let fields: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .map(|field| field.parse().ok())
                .collect::<Option<_>>()?;
            let field = |i: usize| fields.get(i).copied();
            Some(Ticks {
                stolen: field(7)?,
                running: field(0)? + field(1)? + field(2)? + field(5)? + field(6)?,
            })
        };
        read().unwrap_or_default()
    }

    /// Adds the ticks from `start` to now.
    pub fn add_since(&mut self, start: Ticks) {
        let now = Ticks::now();
        self.stolen += now.stolen.saturating_sub(start.stolen);
        self.running += now.running.saturating_sub(start.running);
    }

    /// Share of the time the vCPUs wanted to run that the host stole.
    pub fn stolen_share(&self) -> f64 {
        ratio(self.stolen as f64, (self.stolen + self.running) as f64)
    }
}

/// A stretch of a run's timed wall time and the units completed in it.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Timed wall seconds of the block.
    pub wall_s: f64,
    /// Units of the block that completed.
    pub completed: u64,
    /// Latencies of every unit of the block, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Kernel readings taken between the block's units.
    pub kernel_ms: Vec<f64>,
    /// The machine's ticks while the block's units ran.
    pub ticks: Ticks,
}

/// The kernel reading that scales each unit of `block`. With one reading
/// per unit (taken after it), a unit gets the median of the
/// [`KERNEL_WINDOW`] readings around its own; otherwise every unit gets the
/// block's median reading.
fn unit_readings(block: &Block) -> Vec<f64> {
    let readings = &block.kernel_ms;
    if readings.len() != block.latencies_ms.len() {
        let block_median = median(&mut readings.clone());
        return vec![block_median; block.latencies_ms.len()];
    }
    let half = KERNEL_WINDOW / 2;
    (0..readings.len())
        .map(|i| {
            let window = &readings[i.saturating_sub(half)..(i + half + 1).min(readings.len())];
            median(&mut window.to_vec())
        })
        .collect()
}

/// Sets the outcome's throughput, p50 and p90, each the median over
/// `blocks` of the block's own figure. Every unit's latency is scaled to
/// the reference machine's speed by its kernel reading, and by the share of
/// CPU time the host left to the block. The host's speed swings by up to
/// 1.8× within seconds to minutes, and it steals up to a quarter of the
/// time when both vCPUs are busy: the scaling takes both out, and the
/// median over blocks a stretch the scaling misses. Also records the
/// median reading as `machine.kernel_ms` and the stolen share as
/// `machine.steal_share`.
pub fn record_timing(outcome: &mut Outcome, blocks: &[Block]) {
    let mut throughput = Vec::with_capacity(blocks.len());
    let mut p50 = Vec::with_capacity(blocks.len());
    let mut p90 = Vec::with_capacity(blocks.len());
    let mut readings = Vec::new();
    let mut ticks = Ticks::default();
    for block in blocks.iter() {
        readings.extend_from_slice(&block.kernel_ms);
        ticks.stolen += block.ticks.stolen;
        ticks.running += block.ticks.running;
        let left = 1.0 - block.ticks.stolen_share();
        let mut scaled: Vec<f64> = block
            .latencies_ms
            .iter()
            .zip(unit_readings(block))
            .map(|(&ms, kernel)| left * at_reference(ms, kernel))
            .collect();
        // The block's wall time scales by the latency-weighted factor.
        let raw: f64 = block.latencies_ms.iter().sum();
        let scale = ratio(scaled.iter().sum(), raw);
        throughput.push(ratio(block.completed as f64, block.wall_s * scale));
        p50.push(percentile(&mut scaled, 0.5));
        p90.push(percentile(&mut scaled, 0.9));
    }
    outcome.units_per_s = median(&mut throughput);
    outcome.unit_p50_ms = median(&mut p50);
    outcome.unit_p90_ms = median(&mut p90);
    outcome.layer("machine.kernel_ms", median(&mut readings));
    outcome.layer("machine.steal_share", ticks.stolen_share());
}

/// Seconds elapsed since `start`.
pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A field of `/proc/self/status` in kB (0 where the file is unavailable).
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`) in MB of 2^20 bytes.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`) in kB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

/// The exact work counters every run records per unit. A change that
/// alters them (new numerics flipping a GA tournament, a different
/// convergence path) makes the run a different workload rather than a
/// speed change, so they are compared against the committed references.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Newton iterations of every transient behind the unit.
    pub newton: u64,
    /// Shooting (periodic steady-state) Newton iterations.
    pub shooting: u64,
    /// Envelope grid points that fell back to brute-force settling.
    pub fallbacks: u64,
    /// Matrix-free shooting solves that fell back to a dense solve.
    pub gmres_fallbacks: u64,
}

impl Work {
    /// The counters of one solver run.
    pub fn of(stats: &RunStatistics) -> Self {
        Work {
            newton: stats.newton_iterations as u64,
            shooting: stats.shooting_iterations as u64,
            fallbacks: stats.brute_force_fallbacks as u64,
            gmres_fallbacks: stats.gmres_fallbacks as u64,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Work) {
        self.newton += other.newton;
        self.shooting += other.shooting;
        self.fallbacks += other.fallbacks;
        self.gmres_fallbacks += other.gmres_fallbacks;
    }
}

/// Solver counters summed over every unit of a run, for the per-layer
/// ratios of the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    /// Merged statistics of every solver run behind the timed units.
    pub stats: RunStatistics,
    /// Envelope grid points measured (storage voltages per design).
    pub grid_points: u64,
}

impl LayerCounters {
    /// Merges one solver run's statistics.
    pub fn merge(&mut self, stats: &RunStatistics) {
        self.stats.merge(stats);
    }

    /// Sets the shooting and transient per-layer metrics, per unit of
    /// `units` units whose latencies sum to `unit_seconds`.
    pub fn solver_layers(&self, outcome: &mut Outcome, units: f64, unit_seconds: f64) {
        let s = &self.stats;
        let newton = s.newton_iterations as f64;
        let factorizations = (s.full_factorizations + s.repivot_factorizations) as f64;
        let retried = (s.rejected_steps + s.lte_rejections) as f64;
        outcome.layer(
            "shooting.iterations_per_unit",
            ratio(s.shooting_iterations as f64, units),
        );
        outcome.layer("shooting.gmres_fallbacks", s.gmres_fallbacks as f64);
        outcome.layer("transient.newton_per_unit", ratio(newton, units));
        outcome.layer(
            "transient.factorizations_per_newton",
            ratio(factorizations, newton),
        );
        outcome.layer("transient.rejected_per_unit", ratio(retried, units));
        outcome.layer("transient.us_per_newton", ratio(1e6 * unit_seconds, newton));
        outcome.layer("transient.newton_iterations", newton);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed_and_salt() {
        let draw = |seed, salt| {
            let mut rng = SplitMix64::new(seed, salt);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut rng = SplitMix64::new(3, 0);
        assert!((0..1000).all(|_| rng.below(5) < 5));
    }

    #[test]
    fn timing_is_the_median_over_blocks() {
        let block = |wall_s, latency: f64| Block {
            wall_s,
            completed: 10,
            latencies_ms: vec![latency; 10],
            kernel_ms: vec![REFERENCE_KERNEL_MS],
            ticks: Ticks::default(),
        };
        let mut outcome = Outcome::default();
        record_timing(
            &mut outcome,
            &[block(1.0, 5.0), block(2.0, 9.0), block(0.5, 1.0)],
        );
        assert_eq!(outcome.units_per_s, 10.0);
        assert_eq!(outcome.unit_p50_ms, 5.0);
        assert_eq!(outcome.unit_p90_ms, 5.0);
    }

    #[test]
    fn timing_is_scaled_to_the_reference_speed() {
        // The kernel ran twice as fast as on the reference machine, apart
        // from one jittered reading that the window's median ignores.
        let mut readings = vec![REFERENCE_KERNEL_MS / 2.0; 10];
        readings[3] = 10.0 * REFERENCE_KERNEL_MS;
        let fast = Block {
            wall_s: 1.0,
            completed: 10,
            latencies_ms: vec![5.0; 10],
            kernel_ms: readings,
            ticks: Ticks::default(),
        };
        assert_eq!(unit_readings(&fast), vec![REFERENCE_KERNEL_MS / 2.0; 10]);
        let mut outcome = Outcome::default();
        record_timing(&mut outcome, std::slice::from_ref(&fast));
        assert_eq!(outcome.unit_p50_ms, 10.0);
        assert_eq!(outcome.unit_p90_ms, 10.0);
        assert_eq!(outcome.units_per_s, 5.0);
        // The host stole a fifth of the time the block wanted to run.
        let robbed = Block {
            ticks: Ticks {
                stolen: 20,
                running: 80,
            },
            ..fast
        };
        record_timing(&mut outcome, &[robbed]);
        assert_eq!(outcome.unit_p50_ms, 8.0);
        assert_eq!(outcome.units_per_s, 6.25);
        assert_eq!(outcome.layers["machine.steal_share"], 0.2);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut [3.0], 0.9), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
