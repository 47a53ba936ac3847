//! Reproduction of the paper's CPU-time breakdown (§5): simulating the 100
//! chromosomes of each GA generation dominates the run time, while the GA
//! bookkeeping itself accounts for less than 3 % of the CPU time.
//!
//! Both parts come from one GA run on one CPU, as in the paper: the
//! objective adds up the wall time spent inside it, and everything else the
//! run spends (selection, crossover, mutation, ranking) is the GA's own.
//! The absolute seconds are hardware-dependent (the paper quotes a Pentium 4
//! running a commercial VHDL-AMS simulator); the *ratio* between simulation
//! time and optimiser overhead is the reproducible quantity.

use crate::design_space::{paper_bounds, FitnessBudget, HarvesterObjective};
use crate::report::Table;
use harvester_core::system::HarvesterConfig;
use harvester_optim::{GaOptions, GeneticAlgorithm, Objective, Optimizer, ParallelEvaluator};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for the CPU-time split measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimeOptions {
    /// Number of chromosomes simulated per generation.
    pub population_size: usize,
    /// Number of GA generations measured.
    pub generations: usize,
    /// Simulation budget of each chromosome evaluation, including the
    /// solver backend ([`FitnessBudget::backend`]) every fitness transient
    /// runs on. Its parallelism is not used: the split is measured on one
    /// serial evaluator.
    pub fitness: FitnessBudget,
}

impl Default for CpuTimeOptions {
    fn default() -> Self {
        CpuTimeOptions {
            population_size: 100,
            generations: 2,
            fitness: FitnessBudget::coarse(),
        }
    }
}

impl CpuTimeOptions {
    /// A very small budget for unit tests.
    pub fn coarse() -> Self {
        CpuTimeOptions {
            population_size: 6,
            generations: 2,
            fitness: FitnessBudget::coarse(),
        }
    }
}

/// Measured CPU-time split of one GA run between harvester simulation and
/// GA bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimeBreakdown {
    /// Wall-clock seconds of the whole GA run (the paper's "10 GA
    /// generations = 181 s" measurement).
    pub total_seconds: f64,
    /// Seconds of that run spent inside the objective, simulating
    /// chromosomes (the paper's "simulating 100 chromosomes alone takes
    /// 177 s" measurement).
    pub evaluation_seconds: f64,
    /// Number of objective evaluations in the run.
    pub evaluations: usize,
}

impl CpuTimeBreakdown {
    /// Seconds of the run spent in the GA itself: selection, crossover,
    /// mutation and ranking.
    pub fn breeding_seconds(&self) -> f64 {
        self.total_seconds - self.evaluation_seconds
    }

    /// Fraction of the total optimisation time attributable to the GA
    /// machinery (the paper reports < 3 %).
    pub fn ga_fraction(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        self.breeding_seconds() / self.total_seconds
    }

    /// Formats the breakdown as a report table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec!["quantity".to_string(), "value".to_string()]);
        table.push_row(vec![
            "GA run [s]".to_string(),
            format!("{:.3}", self.total_seconds),
        ]);
        table.push_row(vec![
            "chromosome evaluations [s]".to_string(),
            format!("{:.3}", self.evaluation_seconds),
        ]);
        table.push_row(vec![
            "GA breeding [s]".to_string(),
            format!("{:.2e}", self.breeding_seconds()),
        ]);
        table.push_row(vec![
            "GA fraction of CPU time".to_string(),
            format!("{:.2e} %", 100.0 * self.ga_fraction()),
        ]);
        table.push_row(vec![
            "chromosome evaluations".to_string(),
            format!("{}", self.evaluations),
        ]);
        table
    }
}

/// An objective that adds up the wall time spent inside it.
struct Timed<O> {
    inner: O,
    elapsed: Mutex<Duration>,
}

impl<O: Objective> Objective for Timed<O> {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        let start = Instant::now();
        let fitness = self.inner.evaluate(genes);
        *self.elapsed.lock().expect("timer poisoned") += start.elapsed();
        fitness
    }
}

/// Measures the CPU-time split for the given base design: one GA run on a
/// serial evaluator (the paper's single-CPU measurement), with a reusable
/// simulation workspace, timing the objective from inside the run.
pub fn run_cpu_split(base: &HarvesterConfig, options: &CpuTimeOptions) -> CpuTimeBreakdown {
    let objective = HarvesterObjective::new(base.clone(), options.fitness);
    let timed = Timed {
        inner: objective.thread_local(),
        elapsed: Mutex::new(Duration::ZERO),
    };
    let ga = GeneticAlgorithm::new(GaOptions {
        population_size: options.population_size,
        ..GaOptions::paper()
    });
    let start = Instant::now();
    let result = ga.optimise_with(
        &ParallelEvaluator::serial(),
        &timed,
        &paper_bounds(),
        options.generations,
        7,
    );
    let total = start.elapsed();
    let evaluation = *timed.elapsed.lock().expect("timer poisoned");
    CpuTimeBreakdown {
        total_seconds: total.as_secs_f64(),
        evaluation_seconds: evaluation.as_secs_f64(),
        evaluations: result.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_overhead_is_a_small_fraction_of_the_optimisation_time() {
        let breakdown = run_cpu_split(&HarvesterConfig::unoptimised(), &CpuTimeOptions::coarse());
        assert!(breakdown.evaluation_seconds > 0.0);
        assert!(breakdown.evaluation_seconds <= breakdown.total_seconds);
        assert_eq!(breakdown.evaluations, 6 + 2 * 4);
        // At this smoke-test budget each fitness simulation is only a few
        // milliseconds, so the GA bookkeeping is not vanishingly small
        // relative to it. The paper-scale "< 3 %" ratio needs a realistic
        // budget; this unit test only guards against the bookkeeping
        // *dominating*.
        assert!(
            breakdown.ga_fraction() < 0.5,
            "GA bookkeeping must stay a minority share even at this tiny budget, got {}",
            breakdown.ga_fraction()
        );
        let table = breakdown.table().to_string();
        assert!(table.contains("GA fraction"));
    }

    #[test]
    fn zero_time_edge_case_reports_zero_fraction() {
        let b = CpuTimeBreakdown {
            total_seconds: 0.0,
            evaluation_seconds: 0.0,
            evaluations: 0,
        };
        assert_eq!(b.ga_fraction(), 0.0);
    }
}
