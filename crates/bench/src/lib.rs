//! Shared helpers for the benchmark harness.
//!
//! The benches regenerate the content of every table and figure of the
//! paper's evaluation at a reduced budget (so `cargo bench` completes in
//! minutes rather than the paper's 17 CPU-hours) and additionally report
//! ablation studies on the simulator's own design choices (integration
//! method, time step, Villard stage count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use harvester_core::envelope::EnvelopeOptions;
use harvester_core::envelope::SteadyState;
use harvester_core::params::StorageParams;
use harvester_core::system::HarvesterConfig;
use harvester_core::GeneratorModel;
use harvester_experiments::{encode, paper_bounds};
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
use harvester_mna::transient::{SolverBackend, StepControl};
use harvester_mna::waveform::Waveform;

/// A reduced-size storage element so bench iterations stay in the
/// sub-second range.
pub(crate) fn bench_storage() -> StorageParams {
    StorageParams {
        capacitance: 0.02,
        ..StorageParams::paper_supercap()
    }
}

/// The Fig. 5 base configuration at bench scale.
pub fn bench_fig5_config() -> HarvesterConfig {
    let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    config.storage = bench_storage();
    config
}

/// The Fig. 10 base configuration at bench scale.
pub fn bench_fig10_config() -> HarvesterConfig {
    let mut config = HarvesterConfig::unoptimised();
    config.storage = bench_storage();
    config
}

/// The 6-stage Villard harvester of Fig. 5 (analytical generator) with a
/// 100 µF store: the largest paper fixture of the transient benches.
pub fn villard_harvester() -> HarvesterConfig {
    let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    config.storage.capacitance = 100e-6;
    config
}

/// The un-optimised transformer-booster harvester with a 100 µF store.
pub fn transformer_harvester() -> HarvesterConfig {
    let mut config = HarvesterConfig::unoptimised();
    config.storage.capacitance = 100e-6;
    config
}

/// An RC ladder of `sections` 100 Ω / 100 nF sections driven by a 1 V,
/// 1 kHz sine; returns the circuit and its last node.
pub fn rc_ladder(sections: usize) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(1.0, 1000.0),
    ));
    let mut prev = vin;
    for k in 0..sections {
        let node = c.node(&format!("n{k}"));
        c.add(Resistor::new(&format!("R{k}"), prev, node, 100.0));
        c.add(Capacitor::new(
            &format!("C{k}"),
            node,
            Circuit::GROUND,
            1e-7,
        ));
        prev = node;
    }
    (c, prev)
}

/// Envelope options shared by the figure benches.
pub fn bench_envelope() -> EnvelopeOptions {
    EnvelopeOptions {
        voltage_points: 3,
        max_voltage: 3.0,
        settle_cycles: 25.0,
        measure_cycles: 5.0,
        detail_dt: 2e-4,
        horizon: 600.0,
        output_points: 40,
        backend: SolverBackend::Auto,
        step_control: StepControl::adaptive_averaging(),
        steady_state: SteadyState::default(),
        ..EnvelopeOptions::default()
    }
}

/// The shooting-PSS acceptance fixture: the envelope configuration shared —
/// as one definition, so they can never drift apart — by the `pss` bench
/// (whose output is snapshotted under `bench/baselines/`), the release-mode
/// golden suite in `tests/pss_golden.rs`, and the speed-up printout of
/// `examples/optimise_harvester.rs`.
pub fn pss_acceptance_envelope(steady_state: SteadyState) -> EnvelopeOptions {
    EnvelopeOptions {
        voltage_points: 5,
        max_voltage: 3.0,
        settle_cycles: 60.0,
        measure_cycles: 10.0,
        detail_dt: 1e-4,
        horizon: 600.0,
        output_points: 50,
        backend: SolverBackend::Auto,
        step_control: StepControl::adaptive_averaging(),
        steady_state,
        ..EnvelopeOptions::default()
    }
}

/// The chromosomes of the dense-vs-sparse fitness cross-check, as one
/// definition shared by `crates/experiments/tests/fitness_backends.rs` and
/// the `fitness_*` rows of the `pss` bench: the Table 1 design, 24 uniform
/// draws from [`paper_bounds`] (seed 7), and two blend-crossover
/// children of those draws whose fitness evaluations fall back to
/// settling under `FitnessBudget::default()` — the first at its 0 V seed
/// point only, the second at both grid points, so that its fitness itself
/// is a settled cycle average.
pub fn fitness_cross_check_designs() -> Vec<Vec<f64>> {
    let mut designs = vec![encode(&HarvesterConfig::unoptimised())];
    designs.extend(paper_bounds().draws(24, 7));
    designs.push(vec![
        0.001059009066180732,
        1959.731518716053,
        2600.0,
        327.9441223549877,
        1873.4482057536748,
        572.7805687530831,
        6119.877330229181,
    ]);
    designs.push(vec![
        0.000987188406365962,
        2867.8422856831794,
        1432.1790807346615,
        536.008565431436,
        1555.6872113056288,
        958.1218762593855,
        7000.0,
    ]);
    designs
}

pub mod report;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configurations_are_valid() {
        assert!(bench_storage().is_valid());
        assert!(bench_fig5_config().generator.is_valid());
        assert!(bench_fig10_config().generator.is_valid());
        assert!(bench_envelope().voltage_points >= 2);
    }
}
