//! Assembly and simulation of the complete energy harvester
//! (micro-generator + voltage booster + storage), the paper's Fig. 1 system.

use crate::booster::{add_booster, BoosterConfig};
use crate::flux::CouplingFunction;
use crate::generator::{ElectromechanicalGenerator, GeneratorModel, IdealSourceGenerator};
use crate::metrics;
use crate::params::{
    MicroGeneratorParams, StorageParams, TransformerBoosterParams, Vibration, VillardParams,
};
use crate::storage::Supercapacitor;
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::transient::{TransientAnalysis, TransientOptions, TransientResult};
use harvester_mna::MnaError;
use harvester_numerics::stats::trapezoid_integral;

/// Name of the generator device inside the harvester netlist.
pub const GENERATOR_NAME: &str = "generator";
/// Name of the storage device inside the harvester netlist.
pub const STORAGE_NAME: &str = "storage";

/// Complete description of an energy-harvester design plus its excitation.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvesterConfig {
    /// Micro-generator design parameters.
    pub generator: MicroGeneratorParams,
    /// Which generator abstraction to simulate.
    pub model: GeneratorModel,
    /// Voltage-booster topology and parameters.
    pub booster: BoosterConfig,
    /// Storage-element parameters.
    pub storage: StorageParams,
    /// Ambient vibration profile.
    pub vibration: Vibration,
}

impl HarvesterConfig {
    /// The paper's "un-optimised" design (Table 1) with the transformer
    /// booster of Fig. 9, analytical generator model.
    pub fn unoptimised() -> Self {
        HarvesterConfig {
            generator: MicroGeneratorParams::unoptimised(),
            model: GeneratorModel::Analytical,
            booster: BoosterConfig::Transformer(TransformerBoosterParams::unoptimised()),
            storage: StorageParams::paper_supercap(),
            vibration: Vibration::paper_benchtop(),
        }
    }

    /// The paper's Table 2 "optimised" design with the transformer booster.
    pub fn optimised_paper() -> Self {
        HarvesterConfig {
            generator: MicroGeneratorParams::optimised_paper(),
            booster: BoosterConfig::Transformer(TransformerBoosterParams::optimised_paper()),
            ..Self::unoptimised()
        }
    }

    /// The model-comparison configuration of Fig. 5: Table 1 generator with
    /// the 6-stage Villard multiplier, using the requested generator model.
    pub fn model_comparison(model: GeneratorModel) -> Self {
        HarvesterConfig {
            model,
            booster: BoosterConfig::Villard(VillardParams::paper_six_stage()),
            ..Self::unoptimised()
        }
    }

    /// Returns a copy with a different generator abstraction.
    pub fn with_model(mut self, model: GeneratorModel) -> Self {
        self.model = model;
        self
    }

    /// Builds the netlist for this configuration.
    ///
    /// Returns the circuit plus the two externally interesting nodes: the
    /// generator output (AC) node and the storage (DC) node.
    pub fn build(&self) -> (Circuit, HarvesterNodes) {
        let mut circuit = Circuit::new();
        let generator_output = circuit.node("gen_out");
        let storage_node = circuit.node("store");

        match self.model {
            GeneratorModel::Analytical => circuit.add(ElectromechanicalGenerator::analytical(
                GENERATOR_NAME,
                generator_output,
                Circuit::GROUND,
                self.generator,
                self.vibration,
            )),
            GeneratorModel::EquivalentCircuit => {
                circuit.add(ElectromechanicalGenerator::equivalent_circuit(
                    GENERATOR_NAME,
                    generator_output,
                    Circuit::GROUND,
                    self.generator,
                    self.vibration,
                ))
            }
            GeneratorModel::IdealSource => circuit.add(IdealSourceGenerator::new(
                GENERATOR_NAME,
                generator_output,
                Circuit::GROUND,
                self.generator,
                self.vibration,
            )),
        }

        add_booster(
            &mut circuit,
            "booster",
            generator_output,
            storage_node,
            &self.booster,
        );

        circuit.add(Supercapacitor::new(
            STORAGE_NAME,
            storage_node,
            Circuit::GROUND,
            self.storage,
        ));

        (
            circuit,
            HarvesterNodes {
                generator_output,
                storage: storage_node,
            },
        )
    }

    /// Builds and simulates the harvester with the given transient options.
    ///
    /// # Errors
    ///
    /// Propagates any [`MnaError`] from the transient engine.
    pub fn simulate(&self, options: TransientOptions) -> Result<HarvesterRun, MnaError> {
        let (circuit, nodes) = self.build();
        let result = TransientAnalysis::new(options).run(&circuit)?;
        Ok(HarvesterRun {
            config: self.clone(),
            nodes,
            result,
        })
    }
}

impl Default for HarvesterConfig {
    fn default() -> Self {
        Self::unoptimised()
    }
}

/// The externally interesting nodes of a harvester netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarvesterNodes {
    /// AC output node of the micro-generator.
    pub generator_output: NodeId,
    /// DC storage node (positive terminal of the super-capacitor).
    pub storage: NodeId,
}

/// The outcome of simulating a [`HarvesterConfig`].
#[derive(Debug, Clone)]
pub struct HarvesterRun {
    config: HarvesterConfig,
    nodes: HarvesterNodes,
    result: TransientResult,
}

impl HarvesterRun {
    /// The configuration that was simulated.
    pub fn config(&self) -> &HarvesterConfig {
        &self.config
    }

    /// The interesting netlist nodes.
    pub fn nodes(&self) -> HarvesterNodes {
        self.nodes
    }

    /// The raw transient result.
    pub fn result(&self) -> &TransientResult {
        &self.result
    }

    /// Recorded sample times in seconds.
    pub fn times(&self) -> &[f64] {
        self.result.times()
    }

    /// Storage (super-capacitor) terminal voltage waveform.
    pub(crate) fn storage_voltage(&self) -> Vec<f64> {
        self.result.voltage(self.nodes.storage)
    }

    /// Final storage voltage — the paper's figure of merit for Figs. 5/10.
    pub fn final_storage_voltage(&self) -> f64 {
        self.result.final_voltage(self.nodes.storage)
    }

    /// Generator output (AC) voltage waveform — the quantity plotted in
    /// Fig. 7.
    pub fn generator_voltage(&self) -> Vec<f64> {
        self.result.voltage(self.nodes.generator_output)
    }

    /// Proof-mass displacement waveform in metres, if the simulated model has
    /// mechanical state (the ideal-source model does not).
    pub fn displacement(&self) -> Option<Vec<f64>> {
        self.result.probe(GENERATOR_NAME, "z").ok()
    }

    /// Proof-mass velocity waveform in m/s, if available.
    pub fn velocity(&self) -> Option<Vec<f64>> {
        self.result.probe(GENERATOR_NAME, "u").ok()
    }

    /// Coil current waveform (positive when the generator delivers current to
    /// the booster).
    pub(crate) fn coil_current(&self) -> Vec<f64> {
        // The generator's internal branch current flows from + to −; the
        // delivered current is its negation.
        self.result
            .probe(GENERATOR_NAME, "i")
            .map(|i| i.iter().map(|x| -x).collect())
            .unwrap_or_default()
    }

    /// Electrical energy harvested from the mechanical domain in joules:
    /// `∫ vem·i_ext dt` with `vem = k(z)·ż` for the electromechanical models,
    /// or the energy delivered by the source for the ideal-source model.
    pub fn energy_harvested(&self) -> f64 {
        let times = self.times();
        match self.config.model {
            GeneratorModel::Analytical | GeneratorModel::EquivalentCircuit => {
                let z = match self.displacement() {
                    Some(z) => z,
                    None => return 0.0,
                };
                let u = match self.velocity() {
                    Some(u) => u,
                    None => return 0.0,
                };
                let i_ext = self.coil_current();
                let coupling = CouplingFunction::new(&self.config.generator);
                let k0 = self.config.generator.coupling_at_rest();
                let power: Vec<f64> = z
                    .iter()
                    .zip(u.iter())
                    .zip(i_ext.iter())
                    .map(|((zi, ui), ii)| {
                        let k = match self.config.model {
                            GeneratorModel::Analytical => coupling.value(*zi),
                            _ => k0,
                        };
                        k * ui * ii
                    })
                    .collect();
                trapezoid_integral(times, &power)
            }
            GeneratorModel::IdealSource => {
                let v = self.generator_voltage();
                let i_ext = self.coil_current();
                let power: Vec<f64> = v.iter().zip(i_ext.iter()).map(|(vi, ii)| vi * ii).collect();
                trapezoid_integral(times, &power)
            }
        }
    }

    /// Energy delivered into the storage element in joules
    /// (`½·C·(V_end² − V_start²)` of the internal capacitor voltage).
    pub fn energy_delivered(&self) -> f64 {
        let v_int = match self.result.probe(STORAGE_NAME, "v_internal") {
            Ok(v) => v,
            Err(_) => return 0.0,
        };
        let v_start = self.config.storage.initial_voltage;
        let v_end = *v_int.last().unwrap_or(&v_start);
        metrics::capacitor_energy(self.config.storage.capacitance, v_start, v_end)
    }

    /// The paper's Eq. (9) performance loss for this run.
    pub fn efficiency_loss(&self) -> f64 {
        metrics::efficiency_loss(self.energy_harvested(), self.energy_delivered())
    }

    /// Average storage charging rate in volts per second over the run.
    pub fn charging_rate(&self) -> f64 {
        metrics::charging_rate(self.times(), &self.storage_voltage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options(t_stop: f64) -> TransientOptions {
        TransientOptions {
            t_stop,
            dt: 5e-5,
            record_interval: Some(1e-3),
            ..TransientOptions::default()
        }
    }

    #[test]
    fn building_the_unoptimised_design_yields_a_simulatable_netlist() {
        let config = HarvesterConfig::unoptimised();
        let (circuit, nodes) = config.build();
        assert!(circuit.device_count() > 5);
        assert_ne!(nodes.generator_output, nodes.storage);
        assert!(circuit.find_node("gen_out").is_some());
        assert!(circuit.find_node("store").is_some());
    }

    #[test]
    fn harvester_charges_the_supercapacitor() {
        let mut config = HarvesterConfig::unoptimised();
        // A smaller storage capacitor keeps the test fast while exercising the
        // full signal chain.
        config.storage.capacitance = 100e-6;
        let run = config.simulate(quick_options(1.0)).unwrap();
        let v = run.storage_voltage();
        let v_end = run.final_storage_voltage();
        assert!(v_end > 0.05, "storage must charge, got {v_end} V");
        assert!(
            v_end < 5.0,
            "storage voltage must stay physical, got {v_end} V"
        );
        // Monotone non-decreasing apart from tiny numerical ripple.
        let v_mid = v[v.len() / 2];
        assert!(v_end >= v_mid - 1e-3);
        assert!(run.charging_rate() > 0.0);
    }

    #[test]
    fn energy_bookkeeping_is_consistent() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage.capacitance = 100e-6;
        let run = config.simulate(quick_options(1.0)).unwrap();
        let harvested = run.energy_harvested();
        let delivered = run.energy_delivered();
        assert!(harvested > 0.0, "harvested energy must be positive");
        assert!(delivered > 0.0, "delivered energy must be positive");
        assert!(
            delivered <= harvested * 1.05,
            "cannot deliver more than was harvested (delivered {delivered}, harvested {harvested})"
        );
        let loss = run.efficiency_loss();
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss must be a fraction, got {loss}"
        );
    }

    #[test]
    fn ideal_source_model_overestimates_charging() {
        let mut real = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
        real.storage.capacitance = 100e-6;
        let mut ideal = HarvesterConfig::model_comparison(GeneratorModel::IdealSource);
        ideal.storage.capacitance = 100e-6;
        let run_real = real.simulate(quick_options(0.6)).unwrap();
        let run_ideal = ideal.simulate(quick_options(0.6)).unwrap();
        assert!(
            run_ideal.final_storage_voltage() > 1.3 * run_real.final_storage_voltage(),
            "the ideal-source model must grossly over-predict charging: ideal {}, real {}",
            run_ideal.final_storage_voltage(),
            run_real.final_storage_voltage()
        );
    }

    #[test]
    fn accessors_expose_waveforms() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage.capacitance = 47e-6;
        let run = config.simulate(quick_options(0.2)).unwrap();
        assert_eq!(run.times().len(), run.storage_voltage().len());
        assert_eq!(run.times().len(), run.generator_voltage().len());
        assert!(run.displacement().is_some());
        assert!(run.velocity().is_some());
        assert!(!run.coil_current().is_empty());
        assert_eq!(run.config().storage.capacitance, 47e-6);
        assert_eq!(run.nodes().generator_output, run.nodes.generator_output);
        assert!(run.result().len() > 10);
        // The ideal-source model has no mechanical probes.
        let ideal = HarvesterConfig::model_comparison(GeneratorModel::IdealSource);
        let mut ideal = ideal;
        ideal.storage.capacitance = 47e-6;
        let run = ideal.simulate(quick_options(0.1)).unwrap();
        assert!(run.displacement().is_none());
        assert!(run.velocity().is_none());
    }
}
