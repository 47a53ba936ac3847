//! The super-capacitor storage element (the paper's Eq. 7).
//!
//! The paper models the storage as `C·d(V_C + V_LOST)/dt = −I_C`, i.e. an
//! ideal capacitance plus a leakage-loss term. Here the leakage is modelled
//! as a parallel resistance (a constant-voltage-dependent loss current) and
//! an optional equivalent series resistance, which reproduces the same slow
//! self-discharge behaviour while staying a well-posed circuit element.

use crate::params::StorageParams;
use harvester_mna::circuit::NodeId;
use harvester_mna::device::{Device, StampContext, Unknown};

/// Super-capacitor with leakage and equivalent series resistance.
///
/// Extra unknown (probe name): `"v_internal"` — the voltage across the ideal
/// capacitance behind the series resistance.
#[derive(Debug, Clone, PartialEq)]
pub struct Supercapacitor {
    name: String,
    positive: NodeId,
    negative: NodeId,
    params: StorageParams,
}

impl Supercapacitor {
    /// Creates a super-capacitor between `positive` and `negative`.
    ///
    /// # Panics
    ///
    /// Panics if the storage parameters are invalid
    /// (see [`StorageParams::is_valid`]).
    pub fn new(name: &str, positive: NodeId, negative: NodeId, params: StorageParams) -> Self {
        assert!(params.is_valid(), "invalid storage parameters");
        Supercapacitor {
            name: name.to_string(),
            positive,
            negative,
            params,
        }
    }

    /// The storage parameters.
    pub fn params(&self) -> &StorageParams {
        &self.params
    }
}

impl Device for Supercapacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn extra_unknowns(&self) -> usize {
        1
    }

    fn unknown_names(&self) -> Vec<String> {
        vec!["v_internal".to_string()]
    }

    fn state_count(&self) -> usize {
        2
    }

    fn initial_state(&self, states: &mut [f64]) {
        states[0] = self.params.initial_voltage;
        states[1] = 0.0;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let p = &self.params;
        // Internal capacitor voltage is an extra unknown so a non-zero series
        // resistance does not create an index-2 problem.
        let v_int = ctx.value(Unknown::Extra(0));
        let d = ctx.ddt(0, v_int);
        let v_port = ctx.voltage_between(self.positive, self.negative);

        // Current into the capacitor plate plus leakage.
        let i_cap = p.capacitance * d.derivative;
        let i_leak = v_int / p.leakage_resistance;
        let i_total = i_cap + i_leak;

        // KCL at the terminals: the port current equals the internal current.
        ctx.add_current(self.positive, i_total);
        ctx.add_current(self.negative, -i_total);
        let di_dvint = p.capacitance * d.gain + 1.0 / p.leakage_resistance;
        ctx.add_current_derivative(self.positive, Unknown::Extra(0), di_dvint);
        ctx.add_current_derivative(self.negative, Unknown::Extra(0), -di_dvint);

        // Port relation: v_port = v_internal + ESR · i_total.
        ctx.add_equation(0, v_port - v_int - p.series_resistance * i_total);
        ctx.add_equation_derivative(0, Unknown::Node(self.positive), 1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.negative), -1.0);
        ctx.add_equation_derivative(0, Unknown::Extra(0), -1.0 - p.series_resistance * di_dvint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_mna::circuit::Circuit;
    use harvester_mna::devices::{Resistor, VoltageSource};
    use harvester_mna::transient::{TransientAnalysis, TransientOptions};
    use harvester_mna::waveform::Waveform;

    #[test]
    #[should_panic(expected = "invalid storage parameters")]
    fn invalid_parameters_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mut p = StorageParams::paper_supercap();
        p.capacitance = 0.0;
        let _ = Supercapacitor::new("CS", a, Circuit::GROUND, p);
    }

    #[test]
    fn charges_like_an_rc_with_its_series_source() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let params = StorageParams {
            capacitance: 1e-3,
            leakage_resistance: 1e9,
            series_resistance: 0.0,
            initial_voltage: 0.0,
        };
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(2.0),
        ));
        c.add(Resistor::new("R", vin, out, 100.0));
        c.add(Supercapacitor::new("CS", out, Circuit::GROUND, params));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 0.3,
            dt: 1e-4,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let tau = 100.0 * 1e-3;
        let t_end = *result.times().last().unwrap();
        let expected = 2.0 * (1.0 - (-t_end / tau).exp());
        assert!((result.final_voltage(out) - expected).abs() < 0.02);
    }

    #[test]
    fn initial_voltage_is_respected_and_leakage_discharges_it() {
        let mut c = Circuit::new();
        let out = c.node("out");
        let params = StorageParams {
            capacitance: 1e-3,
            leakage_resistance: 100.0,
            series_resistance: 0.0,
            initial_voltage: 1.0,
        };
        c.add(Supercapacitor::new("CS", out, Circuit::GROUND, params));
        // A very large bleed resistor keeps the node well defined without
        // affecting the discharge dynamics.
        c.add(Resistor::new("Rbleed", out, Circuit::GROUND, 1e9));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 0.1,
            dt: 1e-4,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let v_int = result.probe("CS", "v_internal").unwrap();
        // Initial recorded point is the pre-step state (0 in the solution
        // vector), so check the first solved point instead.
        assert!((v_int[1] - 1.0).abs() < 0.05);
        let tau = 100.0 * 1e-3;
        let expected = (-result.times().last().unwrap() / tau).exp();
        assert!((v_int.last().unwrap() - expected).abs() < 0.05);
    }

    #[test]
    fn series_resistance_limits_inrush_current() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let params = StorageParams {
            capacitance: 0.22,
            leakage_resistance: 1e6,
            series_resistance: 10.0,
            initial_voltage: 0.0,
        };
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Supercapacitor::new("CS", vin, Circuit::GROUND, params));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-2,
            dt: 1e-5,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        // With 1 V across 10 Ω ESR the inrush is bounded by 100 mA.
        let i = result.probe("V", "i").unwrap();
        let peak = i.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak < 0.11, "ESR must bound the inrush current, got {peak}");
        assert!(peak > 0.08);
    }

    #[test]
    fn accessors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let sc = Supercapacitor::new("CS", a, Circuit::GROUND, StorageParams::paper_supercap());
        assert_eq!(sc.name(), "CS");
        assert_eq!(sc.params().capacitance, 0.22);
        assert_eq!(sc.extra_unknowns(), 1);
        assert_eq!(sc.state_count(), 2);
        assert_eq!(sc.unknown_names(), vec!["v_internal"]);
    }
}
