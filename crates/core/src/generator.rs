//! The three micro-generator models compared in the paper (Fig. 2).
//!
//! * [`ElectromechanicalGenerator`] with a non-linear coupling — the paper's
//!   proposed analytical (HDL) model, Fig. 2(c), Eqs. (1)–(6).
//! * [`ElectromechanicalGenerator`] with a constant coupling — the linear
//!   equivalent-circuit model of Fig. 2(b) (mass/spring/damper mapped to an
//!   L/C/R resonator seen through a constant electromechanical coupling).
//! * [`IdealSourceGenerator`] — the ideal-voltage-source model of Fig. 2(a):
//!   a sine source at the open-circuit EMF amplitude, with no dependence on
//!   the electrical load at all.
//!
//! All three are [`Device`]s for the [`harvester_mna`] kernel, so they can be
//! dropped into the same booster/storage netlist interchangeably — which is
//! exactly the model-comparison experiment of the paper's Fig. 5.

use crate::flux::CouplingFunction;
use crate::params::{MicroGeneratorParams, Vibration};
use harvester_mna::circuit::NodeId;
use harvester_mna::device::{Device, StampContext, Unknown};
use harvester_mna::devices::VoltageSource;
use harvester_mna::waveform::Waveform;

/// Which micro-generator abstraction to place in the harvester netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeneratorModel {
    /// The paper's analytical mixed-domain model (non-linear coupling).
    #[default]
    Analytical,
    /// The linear equivalent-circuit model (constant coupling).
    EquivalentCircuit,
    /// The ideal-voltage-source model (no mechanical dynamics at all).
    IdealSource,
}

/// Electromechanical coupling law used by [`ElectromechanicalGenerator`].
#[derive(Debug, Clone)]
enum Coupling {
    /// Full piecewise non-linear coupling `k(z)`.
    Nonlinear(CouplingFunction),
    /// Constant coupling `k(z) ≡ k0` (the linear equivalent circuit).
    Linear(f64),
}

impl Coupling {
    fn value(&self, z: f64) -> f64 {
        match self {
            Coupling::Nonlinear(f) => f.value(z),
            Coupling::Linear(k0) => *k0,
        }
    }

    fn derivative(&self, z: f64) -> f64 {
        match self {
            Coupling::Nonlinear(f) => f.derivative(z),
            Coupling::Linear(_) => 0.0,
        }
    }
}

/// A two-terminal electromechanical micro-generator model solving the
/// paper's Eqs. (1)–(6) simultaneously with the attached circuit.
///
/// Extra unknowns (probe names): `"i"` — coil current flowing internally from
/// the positive terminal to the negative terminal; `"z"` — relative
/// displacement of the proof mass in metres; `"u"` — its velocity in m/s.
#[derive(Debug, Clone)]
pub struct ElectromechanicalGenerator {
    name: String,
    positive: NodeId,
    negative: NodeId,
    params: MicroGeneratorParams,
    coupling: Coupling,
    vibration: Vibration,
}

impl ElectromechanicalGenerator {
    /// Creates the paper's analytical (non-linear) generator model.
    ///
    /// # Panics
    ///
    /// Panics if the generator geometry is invalid
    /// (see [`MicroGeneratorParams::is_valid`]).
    pub fn analytical(
        name: &str,
        positive: NodeId,
        negative: NodeId,
        params: MicroGeneratorParams,
        vibration: Vibration,
    ) -> Self {
        let coupling = Coupling::Nonlinear(CouplingFunction::new(&params));
        ElectromechanicalGenerator {
            name: name.to_string(),
            positive,
            negative,
            params,
            coupling,
            vibration,
        }
    }

    /// Creates the linear equivalent-circuit generator model (Fig. 2(b)):
    /// identical dynamics but with the coupling frozen at its rest value, so
    /// a sine excitation always produces a sine output.
    pub fn equivalent_circuit(
        name: &str,
        positive: NodeId,
        negative: NodeId,
        params: MicroGeneratorParams,
        vibration: Vibration,
    ) -> Self {
        let coupling = Coupling::Linear(params.coupling_at_rest());
        ElectromechanicalGenerator {
            name: name.to_string(),
            positive,
            negative,
            params,
            coupling,
            vibration,
        }
    }

    /// The generator design parameters.
    pub fn params(&self) -> &MicroGeneratorParams {
        &self.params
    }

    /// The vibration profile driving the generator.
    pub fn vibration(&self) -> &Vibration {
        &self.vibration
    }
}

impl Device for ElectromechanicalGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn extra_unknowns(&self) -> usize {
        3
    }

    fn unknown_names(&self) -> Vec<String> {
        vec!["i".to_string(), "z".to_string(), "u".to_string()]
    }

    fn state_count(&self) -> usize {
        6
    }

    fn is_nonlinear(&self) -> bool {
        matches!(self.coupling, Coupling::Nonlinear(_))
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let p = &self.params;
        let i = ctx.value(Unknown::Extra(0));
        let z = ctx.value(Unknown::Extra(1));
        let u = ctx.value(Unknown::Extra(2));
        let di = ctx.ddt(0, i);
        let dz = ctx.ddt(2, z);
        let du = ctx.ddt(4, u);
        let k = self.coupling.value(z);
        let dk = self.coupling.derivative(z);
        let accel = self.vibration.acceleration(ctx.time());

        // KCL: the branch current i flows from the positive terminal through
        // the generator to the negative terminal.
        ctx.add_current(self.positive, i);
        ctx.add_current(self.negative, -i);
        ctx.add_current_derivative(self.positive, Unknown::Extra(0), 1.0);
        ctx.add_current_derivative(self.negative, Unknown::Extra(0), -1.0);

        // Eq. (5): v = vem − Rc·i_ext − Lc·di_ext/dt with vem = k(z)·ż and
        // i_ext = −i, i.e. v(+) − v(−) − k(z)·u − Rc·i − Lc·di/dt = 0.
        let v = ctx.voltage_between(self.positive, self.negative);
        ctx.add_equation(
            0,
            v - k * u - p.coil_resistance * i - p.coil_inductance * di.derivative,
        );
        ctx.add_equation_derivative(0, Unknown::Node(self.positive), 1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.negative), -1.0);
        ctx.add_equation_derivative(
            0,
            Unknown::Extra(0),
            -p.coil_resistance - p.coil_inductance * di.gain,
        );
        ctx.add_equation_derivative(0, Unknown::Extra(1), -dk * u);
        ctx.add_equation_derivative(0, Unknown::Extra(2), -k);

        // Eq. (1): m·z̈ + cp·ż + ks·z + Fem = −m·ÿ with Fem = k(z)·i_ext = −k·i.
        ctx.add_equation(
            1,
            p.mass * du.derivative + p.damping * u + p.stiffness * z - k * i + p.mass * accel,
        );
        ctx.add_equation_derivative(1, Unknown::Extra(0), -k);
        ctx.add_equation_derivative(1, Unknown::Extra(1), p.stiffness - dk * i);
        ctx.add_equation_derivative(1, Unknown::Extra(2), p.mass * du.gain + p.damping);

        // Kinematic closure: dz/dt − u = 0.
        ctx.add_equation(2, dz.derivative - u);
        ctx.add_equation_derivative(2, Unknown::Extra(1), dz.gain);
        ctx.add_equation_derivative(2, Unknown::Extra(2), -1.0);
    }

    fn excitation_period(&self) -> Option<f64> {
        // The only explicit time dependence is the sinusoidal base
        // acceleration — the shooting engine must refuse any steady-state
        // period not commensurate with the vibration.
        if self.vibration.acceleration_amplitude == 0.0 {
            Some(0.0)
        } else if self.vibration.frequency_hz > 0.0 {
            Some(1.0 / self.vibration.frequency_hz)
        } else {
            None
        }
    }
}

/// Steady-state velocity amplitude of the *unloaded* (open-circuit) linear
/// generator under the given vibration — the classic forced-oscillator
/// response `|U| = m·A·ω / √((ks − m·ω²)² + (cp·ω)²)`.
pub(crate) fn open_circuit_velocity_amplitude(
    params: &MicroGeneratorParams,
    vibration: &Vibration,
) -> f64 {
    let omega = vibration.angular_frequency();
    let forcing = params.mass * vibration.acceleration_amplitude;
    let stiffness_term = params.stiffness - params.mass * omega * omega;
    let damping_term = params.damping * omega;
    forcing * omega / (stiffness_term * stiffness_term + damping_term * damping_term).sqrt()
}

/// Peak open-circuit EMF of the linearised generator,
/// `k(0) · |U_open-circuit|` — the amplitude the ideal-source model of
/// Fig. 2(a) uses.
pub(crate) fn open_circuit_emf_amplitude(
    params: &MicroGeneratorParams,
    vibration: &Vibration,
) -> f64 {
    params.coupling_at_rest() * open_circuit_velocity_amplitude(params, vibration)
}

/// The ideal-voltage-source micro-generator model of the paper's Fig. 2(a):
/// a fixed sine source at the open-circuit EMF amplitude. Because it has no
/// mechanical state and no internal impedance, the booster cannot load it
/// down — which is exactly the failure mode the paper demonstrates.
#[derive(Debug, Clone)]
pub struct IdealSourceGenerator {
    inner: VoltageSource,
}

impl IdealSourceGenerator {
    /// Creates the ideal-source model for the given design and vibration.
    pub fn new(
        name: &str,
        positive: NodeId,
        negative: NodeId,
        params: MicroGeneratorParams,
        vibration: Vibration,
    ) -> Self {
        let amplitude = open_circuit_emf_amplitude(&params, &vibration);
        let waveform = Waveform::Sine {
            offset: 0.0,
            amplitude,
            frequency_hz: vibration.frequency_hz,
            phase_rad: 0.0,
            delay: 0.0,
        };
        IdealSourceGenerator {
            inner: VoltageSource::new(name, positive, negative, waveform),
        }
    }

    /// Peak amplitude of the source.
    pub fn amplitude(&self) -> f64 {
        self.inner.waveform().peak()
    }
}

impl Device for IdealSourceGenerator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn extra_unknowns(&self) -> usize {
        self.inner.extra_unknowns()
    }

    fn unknown_names(&self) -> Vec<String> {
        self.inner.unknown_names()
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        self.inner.stamp(ctx);
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        self.inner.breakpoints(t_stop, out);
    }

    fn excitation_period(&self) -> Option<f64> {
        self.inner.excitation_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_mna::circuit::Circuit;
    use harvester_mna::devices::Resistor;
    use harvester_mna::transient::{TransientAnalysis, TransientOptions};
    use harvester_numerics::stats::{peak, total_harmonic_distortion};

    fn options(t_stop: f64) -> TransientOptions {
        TransientOptions {
            t_stop,
            dt: 2e-5,
            ..TransientOptions::default()
        }
    }

    fn loaded_generator(model: GeneratorModel, load_ohms: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let out = c.node("out");
        let params = MicroGeneratorParams::unoptimised();
        let vib = Vibration::paper_benchtop();
        match model {
            GeneratorModel::Analytical => c.add(ElectromechanicalGenerator::analytical(
                "EH",
                out,
                Circuit::GROUND,
                params,
                vib,
            )),
            GeneratorModel::EquivalentCircuit => {
                c.add(ElectromechanicalGenerator::equivalent_circuit(
                    "EH",
                    out,
                    Circuit::GROUND,
                    params,
                    vib,
                ))
            }
            GeneratorModel::IdealSource => c.add(IdealSourceGenerator::new(
                "EH",
                out,
                Circuit::GROUND,
                params,
                vib,
            )),
        }
        c.add(Resistor::new("RL", out, Circuit::GROUND, load_ohms));
        (c, out)
    }

    #[test]
    fn open_circuit_velocity_peaks_at_resonance() {
        let p = MicroGeneratorParams::unoptimised();
        let f0 = p.resonant_frequency();
        let at_resonance = open_circuit_velocity_amplitude(&p, &Vibration::new(1.0, f0));
        let off_resonance = open_circuit_velocity_amplitude(&p, &Vibration::new(1.0, f0 * 1.5));
        assert!(at_resonance > 3.0 * off_resonance);
        // At resonance the closed form reduces to m·A/cp.
        assert!((at_resonance - p.mass * 1.0 / p.damping).abs() / at_resonance < 1e-6);
    }

    #[test]
    fn analytical_generator_produces_power_into_a_load() {
        let (c, out) = loaded_generator(GeneratorModel::Analytical, 2000.0);
        let result = TransientAnalysis::new(options(0.3)).run(&c).unwrap();
        let v = result.voltage(out);
        let v_peak = peak(&v[v.len() / 2..]);
        assert!(
            v_peak > 0.05,
            "loaded output should be tens of mV at least, got {v_peak}"
        );
        assert!(
            v_peak < 5.0,
            "loaded output should stay physical, got {v_peak}"
        );
        // Displacement stays inside the magnet structure.
        let z = result.probe("EH", "z").unwrap();
        let z_peak = peak(&z);
        assert!(z_peak < MicroGeneratorParams::unoptimised().magnet_height);
        assert!(z_peak > 1e-5);
    }

    #[test]
    fn electrical_loading_damps_the_mechanical_motion() {
        // A heavily loaded generator must show smaller displacement than a
        // lightly loaded one: this is the mechanical–electrical interaction
        // the ideal-source model cannot capture.
        let (light, _) = loaded_generator(GeneratorModel::Analytical, 1e6);
        let (heavy, _) = loaded_generator(GeneratorModel::Analytical, 500.0);
        let r_light = TransientAnalysis::new(options(0.3)).run(&light).unwrap();
        let r_heavy = TransientAnalysis::new(options(0.3)).run(&heavy).unwrap();
        let z_light = peak(&r_light.probe("EH", "z").unwrap()[5000..]);
        let z_heavy = peak(&r_heavy.probe("EH", "z").unwrap()[5000..]);
        assert!(
            z_heavy < 0.9 * z_light,
            "loading must reduce displacement: light {z_light}, heavy {z_heavy}"
        );
    }

    #[test]
    fn equivalent_circuit_output_is_sinusoidal_but_analytical_is_not() {
        let vib = Vibration::paper_benchtop();
        let dt = 2e-5;
        let (lin, out_lin) = loaded_generator(GeneratorModel::EquivalentCircuit, 10_000.0);
        let (nonlin, out_nonlin) = loaded_generator(GeneratorModel::Analytical, 10_000.0);
        let r_lin = TransientAnalysis::new(options(0.4)).run(&lin).unwrap();
        let r_nonlin = TransientAnalysis::new(options(0.4)).run(&nonlin).unwrap();
        // Keep an integer number of excitation periods from the steady-state
        // tail so the single-bin Fourier estimate does not suffer leakage.
        let window = (10.0 / vib.frequency_hz / dt).round() as usize;
        let tail = |v: Vec<f64>| v[v.len() - window..].to_vec();
        let thd_lin =
            total_harmonic_distortion(&tail(r_lin.voltage(out_lin)), dt, vib.frequency_hz, 7);
        let thd_nonlin =
            total_harmonic_distortion(&tail(r_nonlin.voltage(out_nonlin)), dt, vib.frequency_hz, 7);
        assert!(
            thd_lin < 0.1,
            "linear model must stay sinusoidal, THD={thd_lin}"
        );
        assert!(
            thd_nonlin > 2.0 * thd_lin,
            "non-linear model must distort more: {thd_nonlin} vs {thd_lin}"
        );
    }

    #[test]
    fn ideal_source_ignores_loading() {
        let (light, out_l) = loaded_generator(GeneratorModel::IdealSource, 1e6);
        let (heavy, out_h) = loaded_generator(GeneratorModel::IdealSource, 100.0);
        let r_light = TransientAnalysis::new(options(0.1)).run(&light).unwrap();
        let r_heavy = TransientAnalysis::new(options(0.1)).run(&heavy).unwrap();
        let p_light = peak(&r_light.voltage(out_l));
        let p_heavy = peak(&r_heavy.voltage(out_h));
        assert!((p_light - p_heavy).abs() < 1e-9 * p_light.max(1.0));
        let p = MicroGeneratorParams::unoptimised();
        let vib = Vibration::paper_benchtop();
        assert!((p_light - open_circuit_emf_amplitude(&p, &vib)).abs() < 0.02 * p_light);
    }

    #[test]
    fn analytical_generator_emf_sags_under_load_but_ideal_source_does_not() {
        let (real, out_r) = loaded_generator(GeneratorModel::Analytical, 200.0);
        let (ideal, out_i) = loaded_generator(GeneratorModel::IdealSource, 200.0);
        let r_real = TransientAnalysis::new(options(0.3)).run(&real).unwrap();
        let r_ideal = TransientAnalysis::new(options(0.3)).run(&ideal).unwrap();
        let v_real = peak(&r_real.voltage(out_r)[5000..]);
        let v_ideal = peak(&r_ideal.voltage(out_i)[5000..]);
        assert!(
            v_real < 0.6 * v_ideal,
            "under heavy load the real model must sag well below the ideal source: {v_real} vs {v_ideal}"
        );
    }

    #[test]
    fn accessors() {
        let mut c = Circuit::new();
        let out = c.node("out");
        let p = MicroGeneratorParams::unoptimised();
        let vib = Vibration::paper_benchtop();
        let g = ElectromechanicalGenerator::analytical("EH", out, Circuit::GROUND, p, vib);
        assert_eq!(g.name(), "EH");
        assert_eq!(g.extra_unknowns(), 3);
        assert_eq!(g.unknown_names(), vec!["i", "z", "u"]);
        assert_eq!(g.state_count(), 6);
        assert!(g.is_nonlinear());
        assert_eq!(g.params().coil_turns, 2300.0);
        assert_eq!(g.vibration().frequency_hz, vib.frequency_hz);
        let lin =
            ElectromechanicalGenerator::equivalent_circuit("EH2", out, Circuit::GROUND, p, vib);
        assert!(!lin.is_nonlinear());
        let ideal = IdealSourceGenerator::new("EH3", out, Circuit::GROUND, p, vib);
        assert_eq!(ideal.extra_unknowns(), 1);
        assert!(ideal.amplitude() > 0.0);
        assert_eq!(ideal.unknown_names(), vec!["i"]);
    }

    #[test]
    fn shooting_engine_refuses_incommensurate_periods() {
        use harvester_mna::shooting::{SteadyStateAnalysis, SteadyStateOptions};
        use harvester_mna::MnaError;
        // Every generator model carries the sinusoidal base excitation, so
        // the periodic steady-state engine must accept the vibration period
        // (and its multiples) and refuse anything incommensurate — the
        // contract `Device::excitation_period` exists to enforce.
        let period = 1.0 / Vibration::paper_benchtop().frequency_hz;
        for model in [
            GeneratorModel::Analytical,
            GeneratorModel::EquivalentCircuit,
            GeneratorModel::IdealSource,
        ] {
            let (circuit, _) = loaded_generator(model, 1e3);
            // A refusal comes before any integration; an accepted period
            // runs one coarse warm-up cycle and one shooting update.
            let refused = |multiple: f64| {
                let mut options = SteadyStateOptions::new(multiple * period);
                options.warmup_cycles = 1.0;
                options.max_iterations = 1;
                options.transient.dt = period / 16.0;
                matches!(
                    SteadyStateAnalysis::new(options).run(&circuit),
                    Err(MnaError::InvalidOptions(_))
                )
            };
            assert!(!refused(1.0), "{model:?} at 1x period");
            assert!(!refused(2.0), "{model:?} at 2x period");
            assert!(refused(0.7), "{model:?} must be refused at 0.7x period");
        }
    }
}
