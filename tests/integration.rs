//! Cross-crate integration tests: the full signal chain (generator → booster
//! → storage), the envelope acceleration against brute-force simulation, the
//! optimisation loop end-to-end, and property-based tests on the core
//! physical invariants.

use energy_harvester::experiments::{
    decode, encode, paper_bounds, run_optimisation, FitnessBudget, HarvesterObjective,
    OptimisationOptions, GENE_COUNT,
};
use energy_harvester::mna::transient::{IntegrationMethod, TransientAnalysis, TransientOptions};
use energy_harvester::models::envelope::{EnvelopeOptions, EnvelopeSimulator};
use energy_harvester::models::flux::CouplingFunction;
use energy_harvester::models::{
    BoosterConfig, GeneratorModel, HarvesterConfig, MicroGeneratorParams, StorageParams,
    VillardParams,
};
use energy_harvester::optim::{GaOptions, GeneticAlgorithm, Objective, Optimizer};
use proptest::prelude::*;

/// The complete chain charges the storage regardless of which booster is used.
#[test]
fn full_chain_charges_with_both_paper_boosters() {
    let options = TransientOptions {
        t_stop: 0.8,
        dt: 1e-4,
        record_interval: Some(2e-3),
        ..TransientOptions::default()
    };
    let mut villard = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    villard.storage.capacitance = 100e-6;
    let mut transformer = HarvesterConfig::unoptimised();
    transformer.storage.capacitance = 100e-6;
    let v_villard = villard.simulate(options).unwrap().final_storage_voltage();
    let v_transformer = transformer
        .simulate(options)
        .unwrap()
        .final_storage_voltage();
    assert!(
        v_villard > 0.02,
        "Villard chain must charge, got {v_villard}"
    );
    assert!(
        v_transformer > 0.02,
        "transformer chain must charge, got {v_transformer}"
    );
}

/// The envelope-following accelerator must agree with a brute-force detailed
/// simulation on a scenario short enough to run both.
#[test]
fn envelope_matches_detailed_simulation_on_a_short_scenario() {
    let mut config = HarvesterConfig::unoptimised();
    config.storage = StorageParams {
        capacitance: 2e-3,
        leakage_resistance: 1e9,
        series_resistance: 0.0,
        initial_voltage: 0.0,
    };
    let horizon = 6.0;

    // Brute force: simulate every vibration cycle.
    let detailed = config
        .simulate(TransientOptions {
            t_stop: horizon,
            dt: 1e-4,
            record_interval: Some(0.05),
            ..TransientOptions::default()
        })
        .unwrap();
    let v_detailed = detailed.final_storage_voltage();

    // Envelope: cycle-averaged charging characteristic + slow ODE.
    let envelope = EnvelopeSimulator::new(
        config,
        EnvelopeOptions {
            voltage_points: 6,
            max_voltage: 3.0,
            settle_cycles: 50.0,
            measure_cycles: 8.0,
            detail_dt: 1e-4,
            horizon,
            output_points: 60,
            backend: Default::default(),
            step_control: Default::default(),
            steady_state: Default::default(),
            ..EnvelopeOptions::default()
        },
    );
    let v_envelope = envelope.charge_curve().unwrap().final_voltage();

    assert!(
        v_detailed > 0.05,
        "detailed run must charge, got {v_detailed}"
    );
    let relative_error = (v_envelope - v_detailed).abs() / v_detailed;
    assert!(
        relative_error < 0.35,
        "envelope ({v_envelope} V) must track the detailed simulation ({v_detailed} V); the \
         start-up transient accounts for part of the difference on such a short horizon"
    );
}

/// Backward Euler and trapezoidal integration agree on the coupled system.
#[test]
fn integration_methods_agree_on_the_coupled_system() {
    let mut config = HarvesterConfig::unoptimised();
    config.storage.capacitance = 100e-6;
    let (circuit, nodes) = config.build();
    let run = |method| {
        TransientAnalysis::new(TransientOptions {
            t_stop: 0.5,
            dt: 5e-5,
            method,
            record_interval: Some(1e-3),
            ..TransientOptions::default()
        })
        .run(&circuit)
        .unwrap()
        .final_voltage(nodes.storage)
    };
    let be = run(IntegrationMethod::BackwardEuler);
    let tr = run(IntegrationMethod::Trapezoidal);
    assert!(be > 0.01 && tr > 0.01);
    assert!(
        (be - tr).abs() / tr < 0.25,
        "methods must agree within a quarter: BE {be}, TR {tr}"
    );
}

/// End-to-end integrated optimisation: the GA-found design must never be
/// worse than the Table 1 starting point, and its parameters must stay inside
/// the physical bounds.
#[test]
fn integrated_optimisation_does_not_regress_the_design() {
    let base = HarvesterConfig::unoptimised();
    let outcome = run_optimisation(&base, &OptimisationOptions::coarse());
    assert!(outcome.optimised_fitness >= outcome.unoptimised_fitness);
    let genes = encode(&outcome.optimised);
    let bounds = paper_bounds();
    for ((g, lo), hi) in genes.iter().zip(bounds.lower()).zip(bounds.upper()) {
        assert!(
            *g >= *lo - 1e-9 && *g <= *hi + 1e-9,
            "optimised gene {g} escaped its bounds [{lo}, {hi}]"
        );
    }
}

/// The objective seen by the optimiser is deterministic — a prerequisite for
/// reproducible optimisation runs.
#[test]
fn harvester_objective_is_deterministic() {
    let objective =
        HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
    let genes = encode(&HarvesterConfig::unoptimised());
    let a = objective.evaluate(&genes);
    let b = objective.evaluate(&genes);
    assert_eq!(a, b);
}

/// GA against uniform random sampling on the same cheap analytic surrogate:
/// with equal evaluation budgets the GA must not lose badly (sanity check
/// that the optimiser wiring is sound before spending simulation time on
/// it).
#[test]
fn ga_is_competitive_with_random_search_on_a_surrogate() {
    let surrogate = |genes: &[f64]| {
        // A smooth surrogate with an interior optimum in the harvester bounds.
        let r = genes[0] * 1e3;
        let n = genes[1] / 1000.0;
        let rc = genes[2] / 1000.0;
        -((r - 1.05).powi(2) + (n - 2.0).powi(2) + (rc - 1.2).powi(2))
    };
    let bounds = paper_bounds();
    let ga = GeneticAlgorithm::new(GaOptions {
        population_size: 30,
        ..GaOptions::paper()
    });
    let ga_result = ga.optimise(&surrogate, &bounds, 20, 3);
    // The uniform baseline: one start point plus 20 batches of 30 draws.
    let random_best = bounds
        .draws(1 + 20 * 30, 3)
        .iter()
        .map(|genes| surrogate(genes))
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(ga_result.best_fitness >= random_best - 0.05);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coupling function stays bounded by its rest value and is even in z
    /// for every valid geometry.
    #[test]
    fn coupling_function_is_even_and_bounded(
        outer_mm in 0.9f64..1.5,
        inner_frac in 0.2f64..0.7,
        height_factor in 2.1f64..4.0,
        flux in 0.1f64..0.8,
        z_frac in -1.5f64..1.5,
    ) {
        let mut params = MicroGeneratorParams::unoptimised();
        params.outer_radius = outer_mm * 1e-3;
        params.inner_radius = inner_frac * params.outer_radius;
        params.magnet_height = height_factor * params.outer_radius;
        params.flux_density = flux;
        prop_assume!(params.is_valid());
        let coupling = CouplingFunction::new(&params);
        let z = z_frac * params.magnet_height;
        let k = coupling.value(z);
        prop_assert!(k.abs() <= coupling.peak() * (1.0 + 1e-9));
        prop_assert!((coupling.value(-z) - k).abs() <= 1e-9 * coupling.peak().max(1.0));
        prop_assert!((coupling.peak() - params.coupling_at_rest()).abs() < 1e-9);
    }

    /// Chromosome decode always produces a physically valid generator whose
    /// coil resistance respects the manufacturability floor.
    #[test]
    fn decode_always_yields_valid_designs(
        genes in proptest::collection::vec(0.0f64..1.0, GENE_COUNT),
    ) {
        let bounds = paper_bounds();
        let concrete: Vec<f64> = genes
            .iter()
            .zip(bounds.lower().iter().zip(bounds.upper().iter()))
            .map(|(g, (lo, hi))| lo + g * (hi - lo))
            .collect();
        let config = decode(&HarvesterConfig::unoptimised(), &concrete);
        prop_assert!(config.generator.is_valid());
        prop_assert!(config.generator.coil_resistance + 1e-9 >= config.generator.minimum_coil_resistance());
        match config.booster {
            BoosterConfig::Transformer(p) => prop_assert!(p.is_valid()),
            _ => prop_assert!(false, "decode must keep the transformer booster"),
        }
    }

    /// Villard parameter combinations within reason always produce a
    /// simulatable multiplier netlist.
    #[test]
    fn villard_parameters_always_build(stages in 1usize..8, cap_uf in 1.0f64..100.0) {
        let params = VillardParams {
            stages,
            stage_capacitance: cap_uf * 1e-6,
            ..VillardParams::paper_six_stage()
        };
        prop_assert!(params.is_valid());
        let mut config = HarvesterConfig::model_comparison(GeneratorModel::IdealSource);
        config.booster = BoosterConfig::Villard(params);
        let (circuit, _) = config.build();
        prop_assert!(circuit.device_count() >= 3 * stages);
    }
}
