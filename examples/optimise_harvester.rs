//! Reproduces the integrated optimisation experiments of the paper:
//!
//! * Fig. 8 / Table 2 — a genetic algorithm tunes the seven design parameters
//!   (coil outer radius, turns and resistance; transformer winding
//!   resistances and turns) against the coupled-system simulation.
//! * Fig. 10 — charging of the 0.22 F super-capacitor with the un-optimised
//!   (Table 1) and optimised designs, and the resulting improvement.
//! * §5 — the CPU-time breakdown showing the GA machinery is a small fraction
//!   of the optimisation cost.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example optimise_harvester            # small GA budget
//! cargo run --release --example optimise_harvester -- --full  # paper-sized GA (pop 100)
//! ```

use energy_harvester::experiments::{
    run_cpu_split, run_fig10, run_optimisation, table1, table2_paper, CpuTimeOptions,
    FitnessBudget, OptimisationOptions,
};
use energy_harvester::models::envelope::{EnvelopeOptions, EnvelopeSimulator, SteadyState};
use energy_harvester::models::HarvesterConfig;
use energy_harvester::models::StepControl;
use energy_harvester::optim::GaOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let base = HarvesterConfig::unoptimised();

    println!("=== Paper Table 1 (starting design) ===\n{}", table1());
    println!(
        "=== Paper Table 2 (authors' optimised design) ===\n{}",
        table2_paper()
    );

    let options = if full {
        OptimisationOptions {
            ga: GaOptions::paper(),
            generations: 30,
            seed: 2008,
            fitness: FitnessBudget::default(),
        }
    } else {
        OptimisationOptions {
            ga: GaOptions {
                population_size: 24,
                ..GaOptions::paper()
            },
            generations: 10,
            seed: 2008,
            fitness: FitnessBudget {
                settle_cycles: 30.0,
                measure_cycles: 6.0,
                detail_dt: 1e-4,
                reference_voltage: 1.0,
                ..FitnessBudget::default()
            },
        }
    };

    println!("=== Integrated GA optimisation (Fig. 8) ===");
    println!(
        "population {}, generations {}, crossover {}, mutation {}, {} evaluation workers",
        options.ga.population_size,
        options.generations,
        options.ga.crossover_rate,
        options.ga.mutation_rate,
        options
            .fitness
            .parallelism
            .worker_count(options.ga.population_size)
    );
    let outcome = run_optimisation(&base, &options);
    println!("{}", outcome.parameter_table());
    println!(
        "charging figure of merit: {:.2} uA -> {:.2} uA  (+{:.1} %)",
        1e6 * outcome.unoptimised_fitness,
        1e6 * outcome.optimised_fitness,
        outcome.fitness_improvement_percent()
    );

    let envelope = if full {
        EnvelopeOptions::default() // 150 minutes, 0.22 F
    } else {
        EnvelopeOptions {
            voltage_points: 6,
            max_voltage: 4.0,
            settle_cycles: 60.0,
            measure_cycles: 8.0,
            detail_dt: 1e-4,
            horizon: 9000.0,
            output_points: 120,
            backend: Default::default(),
            step_control: StepControl::adaptive_averaging(),
            steady_state: Default::default(),
            ..EnvelopeOptions::default()
        }
    };
    println!();
    println!("=== Fig. 10: un-optimised vs optimised charging ===");
    let fig10 = run_fig10(&outcome.unoptimised, &outcome.optimised, envelope)?;
    println!("{}", fig10.table(11));
    println!(
        "final voltage after {:.0} min: un-optimised {:.3} V, optimised {:.3} V  (+{:.1} %; paper: 1.5 V -> 1.95 V, +30 %)",
        fig10.horizon / 60.0,
        fig10.unoptimised_final_voltage(),
        fig10.optimised_final_voltage(),
        fig10.improvement_percent()
    );
    println!(
        "efficiency loss (Eq. 9): un-optimised {:.1} %, optimised {:.1} %",
        100.0 * fig10.unoptimised_efficiency_loss,
        100.0 * fig10.optimised_efficiency_loss
    );

    println!();
    println!("=== Periodic steady state: shooting vs brute-force settling ===");
    // One charging-characteristic measurement of the un-optimised design,
    // once with brute-force settling and once with the shooting-Newton
    // engine: same measured currents, a fraction of the integrated
    // excitation cycles. This is the speed-up every fitness evaluation in
    // the GA loop above inherits (it compounds with the parallel evaluator
    // and the adaptive time stepper).
    let pss_envelope = harvester_bench::pss_acceptance_envelope(SteadyState::BruteForce);
    let brute = EnvelopeSimulator::new(base.clone(), pss_envelope).measure_characteristic()?;
    let shooting = EnvelopeSimulator::new(
        base.clone(),
        EnvelopeOptions {
            steady_state: SteadyState::default(),
            ..pss_envelope
        },
    )
    .measure_characteristic()?;
    let (bs, ss) = (brute.statistics(), shooting.statistics());
    println!(
        "brute-force settling: {} integrated excitation cycles, {} Newton iterations",
        bs.integrated_cycles, bs.newton_iterations
    );
    println!(
        "shooting-Newton PSS:  {} integrated excitation cycles, {} Newton iterations \
         ({} closure updates)",
        ss.integrated_cycles, ss.newton_iterations, ss.shooting_iterations
    );
    println!(
        "shooting integrates {:.1}x fewer cycles per charging characteristic",
        bs.integrated_cycles as f64 / ss.integrated_cycles as f64
    );

    println!();
    println!("=== CPU-time breakdown (paper Section 5) ===");
    let breakdown = run_cpu_split(
        &base,
        &CpuTimeOptions {
            population_size: if full { 100 } else { 12 },
            generations: 2,
            fitness: FitnessBudget::coarse(),
        },
    );
    println!("{}", breakdown.table());
    println!(
        "GA breeding accounts for {:.2e} % of the optimisation CPU time (paper: < 3 %)",
        100.0 * breakdown.ga_fraction()
    );
    Ok(())
}
