//! The integrated optimisation experiments: the GA loop of Fig. 8, the
//! parameter tables (Tables 1 and 2) and the optimised-vs-un-optimised
//! charging comparison of Fig. 10.

use crate::design_space::{decode, encode, paper_bounds, FitnessBudget, HarvesterObjective};
use crate::report::Table;
use harvester_core::booster::BoosterConfig;
use harvester_core::envelope::{ChargingCurve, EnvelopeOptions, EnvelopeSimulator};
use harvester_core::metrics::improvement_percent;
use harvester_core::system::HarvesterConfig;
use harvester_mna::transient::TransientOptions;
use harvester_mna::MnaError;
use harvester_optim::{
    GaOptions, GeneticAlgorithm, OptimisationResult, Optimizer, ParallelEvaluator, Parallelism,
};

/// Options for the integrated optimisation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimisationOptions {
    /// Genetic-algorithm settings (defaults to the paper's settings).
    pub ga: GaOptions,
    /// Number of GA generations to run.
    pub generations: usize,
    /// RNG seed (the experiment is deterministic per seed).
    pub seed: u64,
    /// Simulation budget of each fitness evaluation.
    pub fitness: FitnessBudget,
    /// How the GA's generations are sharded over worker threads (worker
    /// count never affects the result bits, only the wall-clock time).
    pub parallelism: Parallelism,
}

impl Default for OptimisationOptions {
    fn default() -> Self {
        OptimisationOptions {
            ga: GaOptions::paper(),
            generations: 40,
            seed: 2008,
            fitness: FitnessBudget::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

impl OptimisationOptions {
    /// A deliberately small budget for unit tests and smoke runs.
    pub fn coarse() -> Self {
        OptimisationOptions {
            ga: GaOptions {
                population_size: 10,
                ..GaOptions::paper()
            },
            generations: 4,
            seed: 2008,
            fitness: FitnessBudget::coarse(),
            parallelism: Parallelism::Auto,
        }
    }
}

/// Outcome of the integrated optimisation loop.
#[derive(Debug, Clone)]
pub struct OptimisationOutcome {
    /// The starting (Table 1) configuration.
    pub unoptimised: HarvesterConfig,
    /// The configuration found by the optimiser.
    pub optimised: HarvesterConfig,
    /// Fitness (average charging current in amperes at the reference storage
    /// voltage) of the starting design.
    pub unoptimised_fitness: f64,
    /// Fitness of the optimised design.
    pub optimised_fitness: f64,
    /// The raw optimiser trace.
    pub ga_result: OptimisationResult,
}

impl OptimisationOutcome {
    /// Relative improvement of the charging figure of merit, in percent.
    pub fn fitness_improvement_percent(&self) -> f64 {
        improvement_percent(self.unoptimised_fitness, self.optimised_fitness)
    }

    /// Formats the un-optimised and optimised designs side by side, mirroring
    /// the layout of the paper's Tables 1 and 2.
    pub fn parameter_table(&self) -> Table {
        let mut table = Table::new(vec![
            "parameter".to_string(),
            "un-optimised (Table 1)".to_string(),
            "optimised (this run)".to_string(),
            "optimised (paper Table 2)".to_string(),
        ]);
        let paper = HarvesterConfig::optimised_paper();
        type ColumnFormatter = Box<dyn Fn(&HarvesterConfig) -> String>;
        let rows: Vec<(&str, ColumnFormatter)> = vec![
            (
                "coil outer radius R [mm]",
                Box::new(|c: &HarvesterConfig| format!("{:.2}", c.generator.outer_radius * 1e3)),
            ),
            (
                "coil turns N",
                Box::new(|c: &HarvesterConfig| format!("{:.0}", c.generator.coil_turns)),
            ),
            (
                "coil resistance Rc [ohm]",
                Box::new(|c: &HarvesterConfig| format!("{:.0}", c.generator.coil_resistance)),
            ),
            (
                "primary winding resistance [ohm]",
                Box::new(|c: &HarvesterConfig| format!("{:.0}", transformer(c).primary_resistance)),
            ),
            (
                "primary turns",
                Box::new(|c: &HarvesterConfig| format!("{:.0}", transformer(c).primary_turns)),
            ),
            (
                "secondary winding resistance [ohm]",
                Box::new(|c: &HarvesterConfig| {
                    format!("{:.0}", transformer(c).secondary_resistance)
                }),
            ),
            (
                "secondary turns",
                Box::new(|c: &HarvesterConfig| format!("{:.0}", transformer(c).secondary_turns)),
            ),
        ];
        for (name, extract) in rows {
            table.push_row(vec![
                name.to_string(),
                extract(&self.unoptimised),
                extract(&self.optimised),
                extract(&paper),
            ]);
        }
        table
    }
}

fn transformer(config: &HarvesterConfig) -> harvester_core::params::TransformerBoosterParams {
    match &config.booster {
        BoosterConfig::Transformer(p) => *p,
        _ => harvester_core::params::TransformerBoosterParams::unoptimised(),
    }
}

/// Runs the integrated optimisation loop of Fig. 8: GA over the seven-gene
/// design space with the coupled-simulation objective.
///
/// Each generation's chromosomes are simulated in parallel according to
/// [`OptimisationOptions::parallelism`], every worker scoring through the
/// one shared [`HarvesterObjective`]; the outcome is bit-identical for any
/// worker count.
pub fn run_optimisation(
    base: &HarvesterConfig,
    options: &OptimisationOptions,
) -> OptimisationOutcome {
    let objective = HarvesterObjective::new(base.clone(), options.fitness);
    let bounds = paper_bounds();
    let ga = GeneticAlgorithm::new(options.ga);
    let evaluator = ParallelEvaluator::new(options.parallelism);
    let ga_result = ga.optimise_with(
        &evaluator,
        &objective,
        &bounds,
        options.generations,
        options.seed,
    );

    let unoptimised_fitness = objective.charging_current(base);
    let optimised = decode(base, &ga_result.best_genes);
    let optimised_fitness = ga_result.best_fitness;
    OptimisationOutcome {
        unoptimised: base.clone(),
        optimised,
        unoptimised_fitness,
        optimised_fitness,
        ga_result,
    }
}

/// The paper's Table 1 as a formatted table (starting design).
pub fn table1() -> Table {
    design_table("un-optimised (Table 1)", &HarvesterConfig::unoptimised())
}

/// The paper's Table 2 as a formatted table (the authors' optimised design).
pub fn table2_paper() -> Table {
    design_table(
        "optimised (paper Table 2)",
        &HarvesterConfig::optimised_paper(),
    )
}

fn design_table(label: &str, config: &HarvesterConfig) -> Table {
    let mut table = Table::new(vec!["parameter".to_string(), label.to_string()]);
    let genes = encode(config);
    let names = [
        "coil outer radius R [m]",
        "coil turns N",
        "coil resistance Rc [ohm]",
        "primary winding resistance [ohm]",
        "primary turns",
        "secondary winding resistance [ohm]",
        "secondary turns",
    ];
    for (name, value) in names.iter().zip(genes.iter()) {
        table.push_row(vec![name.to_string(), format!("{value:.4}")]);
    }
    table
}

/// Result of the Fig. 10 charging comparison.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Charging curve of the un-optimised (Table 1) design.
    pub unoptimised: ChargingCurve,
    /// Charging curve of the optimised design.
    pub optimised: ChargingCurve,
    /// Horizon in seconds.
    pub horizon: f64,
    /// Efficiency loss (Eq. 9) of the un-optimised design over a short
    /// detailed run.
    pub unoptimised_efficiency_loss: f64,
    /// Efficiency loss (Eq. 9) of the optimised design over a short detailed
    /// run.
    pub optimised_efficiency_loss: f64,
}

impl Fig10Result {
    /// Final storage voltage of the un-optimised design (the paper reports
    /// 1.5 V at 150 minutes).
    pub fn unoptimised_final_voltage(&self) -> f64 {
        self.unoptimised.final_voltage()
    }

    /// Final storage voltage of the optimised design (the paper reports
    /// 1.95 V at 150 minutes).
    pub fn optimised_final_voltage(&self) -> f64 {
        self.optimised.final_voltage()
    }

    /// Relative improvement of the final storage voltage in percent (the
    /// paper's 30 % headline).
    pub fn improvement_percent(&self) -> f64 {
        improvement_percent(
            self.unoptimised_final_voltage(),
            self.optimised_final_voltage(),
        )
    }

    /// Formats both charging curves as a table (one row per sample time).
    pub fn table(&self, rows: usize) -> Table {
        let mut table = Table::new(vec![
            "time_s".to_string(),
            "un-optimised_V".to_string(),
            "optimised_V".to_string(),
        ]);
        for k in 0..rows {
            let t = self.horizon * k as f64 / (rows - 1).max(1) as f64;
            table.push_row(vec![
                format!("{t:.1}"),
                format!("{:.4}", self.unoptimised.voltage_at(t)),
                format!("{:.4}", self.optimised.voltage_at(t)),
            ]);
        }
        table
    }
}

/// Runs the Fig. 10 comparison: long-horizon charging of the un-optimised and
/// optimised designs plus the Eq. (9) efficiency-loss numbers.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_fig10(
    unoptimised: &HarvesterConfig,
    optimised: &HarvesterConfig,
    envelope: EnvelopeOptions,
) -> Result<Fig10Result, MnaError> {
    let unopt_curve = EnvelopeSimulator::new(unoptimised.clone(), envelope).charge_curve()?;
    let opt_curve = EnvelopeSimulator::new(optimised.clone(), envelope).charge_curve()?;

    // Short detailed runs with a reduced storage capacitor give the Eq. (9)
    // energy bookkeeping without the 150-minute horizon.
    let loss = |config: &HarvesterConfig| -> Result<f64, MnaError> {
        let mut small = config.clone();
        small.storage.capacitance = 100e-6;
        let run = small.simulate(TransientOptions {
            t_stop: 1.0,
            dt: 1e-4,
            record_interval: Some(1e-3),
            backend: envelope.backend,
            ..TransientOptions::default()
        })?;
        Ok(run.efficiency_loss())
    };
    Ok(Fig10Result {
        unoptimised: unopt_curve,
        optimised: opt_curve,
        horizon: envelope.horizon,
        unoptimised_efficiency_loss: loss(unoptimised)?,
        optimised_efficiency_loss: loss(optimised)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_core::params::StorageParams;

    #[test]
    fn table_formatters_contain_the_paper_values() {
        let t1 = table1().to_string();
        assert!(t1.contains("2300"));
        assert!(t1.contains("1600"));
        let t2 = table2_paper().to_string();
        assert!(t2.contains("2100"));
        assert!(t2.contains("1400"));
        assert!(t2.contains("3800"));
    }

    #[test]
    fn coarse_optimisation_improves_the_charging_figure_of_merit() {
        let base = HarvesterConfig::unoptimised();
        let outcome = run_optimisation(&base, &OptimisationOptions::coarse());
        assert!(outcome.unoptimised_fitness > 0.0);
        assert!(
            outcome.optimised_fitness >= outcome.unoptimised_fitness,
            "GA must not make the design worse: {} vs {}",
            outcome.optimised_fitness,
            outcome.unoptimised_fitness
        );
        assert!(outcome.fitness_improvement_percent() >= 0.0);
        // The optimised design must remain physically valid and inside bounds.
        assert!(outcome.optimised.generator.is_valid());
        let table = outcome.parameter_table().to_string();
        assert!(table.contains("coil turns N"));
        assert!(table.contains("secondary turns"));
    }

    #[test]
    fn fig10_comparison_ranks_a_lower_loss_design_above_the_baseline() {
        // Use a design that is unambiguously better under any physics (same
        // transformer ratio, strictly lower winding losses) as the
        // "optimised" configuration so this unit test does not depend on a GA
        // run; the GA-found design is exercised by the examples and benches.
        let mut unopt = HarvesterConfig::unoptimised();
        let mut opt = HarvesterConfig::unoptimised();
        opt.booster =
            BoosterConfig::Transformer(harvester_core::params::TransformerBoosterParams {
                primary_resistance: 150.0,
                secondary_resistance: 400.0,
                ..harvester_core::params::TransformerBoosterParams::unoptimised()
            });
        opt.generator.coil_resistance = 1100.0;
        for cfg in [&mut unopt, &mut opt] {
            cfg.storage = StorageParams {
                capacitance: 0.02,
                ..StorageParams::paper_supercap()
            };
        }
        let envelope = EnvelopeOptions {
            voltage_points: 4,
            max_voltage: 3.5,
            settle_cycles: 15.0,
            measure_cycles: 5.0,
            detail_dt: 2e-4,
            horizon: 600.0,
            output_points: 50,
            backend: Default::default(),
            step_control: harvester_core::StepControl::adaptive_averaging(),
            steady_state: Default::default(),
            ..EnvelopeOptions::default()
        };
        let result = run_fig10(&unopt, &opt, envelope).unwrap();
        assert!(result.unoptimised_final_voltage() > 0.05);
        assert!(
            result.optimised_final_voltage() > result.unoptimised_final_voltage(),
            "the paper's optimised design must charge faster: {} vs {}",
            result.optimised_final_voltage(),
            result.unoptimised_final_voltage()
        );
        assert!(result.improvement_percent() > 0.0);
        assert!((0.0..=1.0).contains(&result.unoptimised_efficiency_loss));
        assert!((0.0..=1.0).contains(&result.optimised_efficiency_loss));
        let table = result.table(4).to_string();
        assert!(table.contains("un-optimised_V"));
    }
}
