//! Benchmarks regenerating the paper's figures at bench scale.
//!
//! * `fig5_model_comparison/*` — the Fig. 5 model-comparison charging
//!   curves, one benchmark per generator model plus the experimental
//!   reference.
//! * `fig7_nonlinear_output/*` — the Fig. 7 generator-output waveform for
//!   the linear and analytical models.
//! * `fig10_charging/*` — the Fig. 10 un-optimised vs optimised charging
//!   curves.
//!
//! Each iteration produces the same series the paper plots (at a reduced
//! horizon/storage size so iterations stay around a second); the absolute
//! throughput numbers double as a regression guard on the simulation kernel.

use harvester_bench::{bench_envelope, bench_fig10_config, bench_fig5_config, report};
use harvester_core::envelope::EnvelopeSimulator;
use harvester_core::reference::ExperimentalReference;
use harvester_core::system::HarvesterConfig;
use harvester_core::{BoosterConfig, GeneratorModel, TransformerBoosterParams};
use harvester_experiments::{run_fig7, Fig7Options};

fn main() {
    let base = bench_fig5_config();
    let envelope = bench_envelope();
    let models = [
        GeneratorModel::IdealSource,
        GeneratorModel::EquivalentCircuit,
        GeneratorModel::Analytical,
    ];
    let configs = models.map(|model| base.clone().with_model(model));
    report::time(
        models.map(|model| format!("fig5_model_comparison/{model:?}")),
        |_| (),
        |k| {
            EnvelopeSimulator::new(configs[k].clone(), envelope)
                .charge_curve()
                .expect("bench configuration must simulate")
        },
    );
    report::time(
        ["fig5_model_comparison/experimental-reference"],
        |_| (),
        |_| {
            ExperimentalReference::new(base.clone())
                .charging_curve(envelope)
                .expect("reference must simulate")
        },
    );

    let fig7_base = HarvesterConfig::unoptimised();
    let fig7 = Fig7Options {
        analysis_periods: 8,
        settle_periods: 30,
        dt: 1e-4,
        backend: Default::default(),
    };
    report::time(
        ["fig7_nonlinear_output/waveform_and_thd"],
        |_| (),
        |_| run_fig7(&fig7_base, &fig7).expect("fig7 must simulate"),
    );

    let unoptimised = bench_fig10_config();
    // A lower-loss design standing in for the GA output (the GA itself is
    // benchmarked in `optimisation.rs`).
    let mut optimised = unoptimised.clone();
    optimised.booster = BoosterConfig::Transformer(TransformerBoosterParams {
        primary_resistance: 150.0,
        secondary_resistance: 400.0,
        ..TransformerBoosterParams::unoptimised()
    });
    optimised.generator.coil_resistance = 1100.0;
    let configs = [unoptimised, optimised];
    report::time(
        ["fig10_charging/unoptimised", "fig10_charging/optimised"],
        |_| (),
        |k| {
            EnvelopeSimulator::new(configs[k].clone(), envelope)
                .charge_curve()
                .expect("bench configuration must simulate")
        },
    );
}
