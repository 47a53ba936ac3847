//! Synthetic "experimental measurement" reference.
//!
//! The paper validates its models against a physical cantilever
//! micro-generator on a shaker table (Fig. 6). That hardware is not available
//! to this reproduction, so the "measured" curves are substituted by a
//! **higher-fidelity variant of the analytical model** plus measurement
//! noise — a ground truth that differs from every model under test in the
//! physics those models leave out:
//!
//! * extra mechanical damping that grows with velocity (air drag / material
//!   losses the nominal model ignores),
//! * a slightly weaker electromagnetic coupling (flux-density tolerance),
//! * a leakier storage capacitor,
//! * zero-mean Gaussian measurement noise on every sample.
//!
//! What matters for the paper's claims is the *ranking* of the three model
//! families against this ground truth (analytical ≫ equivalent-circuit ≫
//! ideal-source), and that ranking is preserved because the perturbations are
//! small relative to the structural differences between the model families.

use crate::envelope::{ChargingCurve, EnvelopeOptions, EnvelopeSimulator};
use crate::params::StorageParams;
use crate::system::HarvesterConfig;
use harvester_mna::transient::TransientOptions;
use harvester_mna::MnaError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How far the "real device" deviates from the nominal design used by the
/// models, and how noisy the measurement chain is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePerturbation {
    /// Multiplier applied to the mechanical damping (> 1 = lossier device).
    pub damping_factor: f64,
    /// Multiplier applied to the magnet flux density (< 1 = weaker magnets).
    pub flux_density_factor: f64,
    /// Multiplier applied to the storage leakage resistance (< 1 = leakier).
    pub leakage_factor: f64,
    /// Standard deviation of the relative measurement noise.
    pub noise_relative: f64,
}

impl Default for ReferencePerturbation {
    fn default() -> Self {
        ReferencePerturbation {
            damping_factor: 1.15,
            flux_density_factor: 0.95,
            leakage_factor: 0.6,
            noise_relative: 0.01,
        }
    }
}

/// Generator of synthetic experimental reference data.
#[derive(Debug, Clone)]
pub struct ExperimentalReference {
    config: HarvesterConfig,
    perturbation: ReferencePerturbation,
    seed: u64,
}

impl ExperimentalReference {
    /// Creates a reference generator for the given nominal configuration,
    /// using the default perturbation and a fixed seed (reproducible runs).
    pub fn new(config: HarvesterConfig) -> Self {
        Self::with_perturbation(config, ReferencePerturbation::default(), 20080310)
    }

    /// Creates a reference generator with explicit perturbation and seed.
    pub fn with_perturbation(
        config: HarvesterConfig,
        perturbation: ReferencePerturbation,
        seed: u64,
    ) -> Self {
        ExperimentalReference {
            config,
            perturbation,
            seed,
        }
    }

    /// The perturbed ("as-built") configuration the reference is generated
    /// from. Always uses the analytical generator model — the point of the
    /// reference is to stand in for the real coupled device.
    pub fn perturbed_config(&self) -> HarvesterConfig {
        let mut cfg = self.config.clone();
        cfg.model = crate::generator::GeneratorModel::Analytical;
        cfg.generator.damping *= self.perturbation.damping_factor;
        cfg.generator.flux_density *= self.perturbation.flux_density_factor;
        cfg.storage = StorageParams {
            leakage_resistance: cfg.storage.leakage_resistance * self.perturbation.leakage_factor,
            ..cfg.storage
        };
        cfg
    }

    /// "Measured" long-horizon charging curve of the storage capacitor
    /// (the experimental trace of the paper's Figs. 5 and 10).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn charging_curve(&self, envelope: EnvelopeOptions) -> Result<ChargingCurve, MnaError> {
        let sim = EnvelopeSimulator::new(self.perturbed_config(), envelope);
        let mut curve = sim.charge_curve()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for v in &mut curve.voltages {
            let noise: f64 = rng.gen_range(-1.0..1.0) * self.perturbation.noise_relative;
            *v *= 1.0 + noise;
            *v = v.max(0.0);
        }
        Ok(curve)
    }

    /// "Measured" generator output-voltage waveform (the experimental trace
    /// of the paper's Fig. 7). Returns `(times, volts)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn generator_waveform(
        &self,
        options: TransientOptions,
    ) -> Result<(Vec<f64>, Vec<f64>), MnaError> {
        let run = self.perturbed_config().simulate(options)?;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
        let times = run.times().to_vec();
        let volts: Vec<f64> = run
            .generator_voltage()
            .into_iter()
            .map(|v| {
                let noise: f64 = rng.gen_range(-1.0..1.0) * self.perturbation.noise_relative;
                v + noise * v.abs().max(1e-3)
            })
            .collect();
        Ok((times, volts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvelopeOptions;

    fn quick_envelope() -> EnvelopeOptions {
        EnvelopeOptions {
            voltage_points: 4,
            max_voltage: 3.0,
            settle_cycles: 15.0,
            measure_cycles: 5.0,
            detail_dt: 1e-4,
            horizon: 300.0,
            output_points: 30,
            backend: Default::default(),
            step_control: Default::default(),
            steady_state: Default::default(),
            ..EnvelopeOptions::default()
        }
    }

    #[test]
    fn perturbed_config_is_lossier_than_nominal() {
        let nominal = HarvesterConfig::unoptimised();
        let reference = ExperimentalReference::new(nominal.clone());
        let perturbed = reference.perturbed_config();
        assert!(perturbed.generator.damping > nominal.generator.damping);
        assert!(perturbed.generator.flux_density < nominal.generator.flux_density);
        assert!(perturbed.storage.leakage_resistance < nominal.storage.leakage_resistance);
    }

    #[test]
    fn reference_is_deterministic_for_a_fixed_seed() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage.capacitance = 0.01;
        let a = ExperimentalReference::new(config.clone())
            .charging_curve(quick_envelope())
            .unwrap();
        let b = ExperimentalReference::new(config)
            .charging_curve(quick_envelope())
            .unwrap();
        assert_eq!(a.voltages, b.voltages);
        assert!(a.final_voltage() > 0.05);
    }

    #[test]
    fn different_seeds_give_different_noise_but_similar_trend() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage.capacitance = 0.01;
        let a = ExperimentalReference::with_perturbation(
            config.clone(),
            ReferencePerturbation::default(),
            1,
        )
        .charging_curve(quick_envelope())
        .unwrap();
        let b =
            ExperimentalReference::with_perturbation(config, ReferencePerturbation::default(), 2)
                .charging_curve(quick_envelope())
                .unwrap();
        assert_ne!(a.voltages, b.voltages);
        assert!((a.final_voltage() - b.final_voltage()).abs() < 0.1 * a.final_voltage());
    }

    #[test]
    fn generator_waveform_has_noise_but_preserves_scale() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage.capacitance = 47e-6;
        let reference = ExperimentalReference::new(config.clone());
        let (times, volts) = reference
            .generator_waveform(TransientOptions {
                t_stop: 0.2,
                dt: 5e-5,
                ..TransientOptions::default()
            })
            .unwrap();
        assert_eq!(times.len(), volts.len());
        let peak = volts.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak > 0.05 && peak < 5.0, "reference waveform peak {peak}");
    }
}
