//! Standard library of electrical primitives.
//!
//! These are the building blocks the energy-harvester models are assembled
//! from: linear passives, independent sources, the exponential diode used by
//! the Villard voltage multiplier, the ideal transformer at the heart of the
//! Fig. 9 booster, and a timed switch for load-connection experiments.
//!
//! Sign convention: every device accounts for the current flowing **out of**
//! each of its terminals' nodes *into* the device. Branch currents introduced
//! as extra unknowns are defined as flowing from the device's first terminal
//! to its second terminal through the device.

use crate::circuit::NodeId;
use crate::device::{AcStampContext, Device, StampContext, Unknown};
use crate::waveform::Waveform;
use harvester_numerics::complex::Complex64;

/// Small-signal (AC) excitation of an independent source: a phasor given as
/// peak magnitude and phase.
///
/// Attached to a [`VoltageSource`] or [`CurrentSource`] with their
/// `with_ac` builders; sources without a spec contribute nothing to an AC
/// analysis (their small-signal drive is zero even though their transient
/// waveform still sets the operating point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcSpec {
    /// Phasor magnitude (peak, in the source's natural unit: volts or
    /// amperes).
    pub magnitude: f64,
    /// Phasor phase in radians.
    pub phase_rad: f64,
}

impl AcSpec {
    /// The excitation as a complex phasor.
    pub fn phasor(self) -> Complex64 {
        Complex64::from_polar(self.magnitude, self.phase_rad)
    }
}

/// Linear resistor.
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    resistance: f64,
}

impl Resistor {
    /// Creates a resistor of `resistance` ohms between nodes `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `resistance` is not strictly positive.
    pub fn new(name: &str, a: NodeId, b: NodeId, resistance: f64) -> Self {
        assert!(resistance > 0.0, "resistance must be positive");
        Resistor {
            name: name.to_string(),
            a,
            b,
            resistance,
        }
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        self.resistance
    }

    /// The `(a, b)` terminal nodes.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        ctx.stamp_conductance(self.a, self.b, 1.0 / self.resistance);
    }
}

/// Linear capacitor.
///
/// Uses two state slots for the integration history of its voltage
/// (managed by [`StampContext::ddt`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    capacitance: f64,
    initial_voltage: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` farads between `a` and `b`,
    /// initially discharged.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not strictly positive.
    pub fn new(name: &str, a: NodeId, b: NodeId, capacitance: f64) -> Self {
        Self::with_initial_voltage(name, a, b, capacitance, 0.0)
    }

    /// Creates a capacitor with an initial voltage `v(a) − v(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not strictly positive.
    pub fn with_initial_voltage(
        name: &str,
        a: NodeId,
        b: NodeId,
        capacitance: f64,
        initial_voltage: f64,
    ) -> Self {
        assert!(capacitance > 0.0, "capacitance must be positive");
        Capacitor {
            name: name.to_string(),
            a,
            b,
            capacitance,
            initial_voltage,
        }
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }

    /// Initial voltage `v(a) − v(b)` at `t = 0`.
    pub fn initial_voltage(&self) -> f64 {
        self.initial_voltage
    }

    /// The `(a, b)` terminal nodes.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn state_count(&self) -> usize {
        2
    }

    fn initial_state(&self, states: &mut [f64]) {
        states[0] = self.initial_voltage;
        states[1] = 0.0;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = ctx.voltage_between(self.a, self.b);
        let d = ctx.ddt(0, v);
        let i = self.capacitance * d.derivative;
        let g = self.capacitance * d.gain;
        ctx.add_current(self.a, i);
        ctx.add_current(self.b, -i);
        ctx.add_current_derivative(self.a, Unknown::Node(self.a), g);
        ctx.add_current_derivative(self.a, Unknown::Node(self.b), -g);
        ctx.add_current_derivative(self.b, Unknown::Node(self.a), -g);
        ctx.add_current_derivative(self.b, Unknown::Node(self.b), g);
    }
}

/// Linear inductor.
///
/// Adds its branch current as an extra unknown with the branch equation
/// `v(a) − v(b) − L·di/dt = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    inductance: f64,
    initial_current: f64,
}

impl Inductor {
    /// Creates an inductor of `inductance` henries between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is not strictly positive.
    pub fn new(name: &str, a: NodeId, b: NodeId, inductance: f64) -> Self {
        Self::with_initial_current(name, a, b, inductance, 0.0)
    }

    /// Creates an inductor with an initial current flowing from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is not strictly positive.
    pub fn with_initial_current(
        name: &str,
        a: NodeId,
        b: NodeId,
        inductance: f64,
        initial_current: f64,
    ) -> Self {
        assert!(inductance > 0.0, "inductance must be positive");
        Inductor {
            name: name.to_string(),
            a,
            b,
            inductance,
            initial_current,
        }
    }

    /// Inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.inductance
    }

    /// Initial current from `a` to `b` at `t = 0`.
    pub(crate) fn initial_current(&self) -> f64 {
        self.initial_current
    }

    /// The `(a, b)` terminal nodes.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn extra_unknowns(&self) -> usize {
        1
    }

    fn unknown_names(&self) -> Vec<String> {
        vec!["i".to_string()]
    }

    fn state_count(&self) -> usize {
        2
    }

    fn initial_state(&self, states: &mut [f64]) {
        states[0] = self.initial_current;
        states[1] = 0.0;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = ctx.value(Unknown::Extra(0));
        let d = ctx.ddt(0, i);
        // KCL: the branch current leaves node a and enters node b.
        ctx.add_current(self.a, i);
        ctx.add_current(self.b, -i);
        ctx.add_current_derivative(self.a, Unknown::Extra(0), 1.0);
        ctx.add_current_derivative(self.b, Unknown::Extra(0), -1.0);
        // Branch equation: v(a) - v(b) - L·di/dt = 0.
        let v = ctx.voltage_between(self.a, self.b);
        ctx.add_equation(0, v - self.inductance * d.derivative);
        ctx.add_equation_derivative(0, Unknown::Node(self.a), 1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.b), -1.0);
        ctx.add_equation_derivative(0, Unknown::Extra(0), -self.inductance * d.gain);
    }
}

/// Independent voltage source driven by a [`Waveform`].
///
/// The branch current (flowing from the positive terminal `a` through the
/// source to `b`) is an extra unknown named `"i"`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    name: String,
    a: NodeId,
    b: NodeId,
    waveform: Waveform,
    ac: Option<AcSpec>,
}

impl VoltageSource {
    /// Creates a voltage source imposing `v(a) − v(b) = waveform(t)`.
    pub fn new(name: &str, a: NodeId, b: NodeId, waveform: Waveform) -> Self {
        VoltageSource {
            name: name.to_string(),
            a,
            b,
            waveform,
            ac: None,
        }
    }

    /// Attaches a small-signal excitation of `magnitude` volts (peak) at
    /// `phase_rad` radians, making this source drive AC analyses.
    #[must_use]
    pub fn with_ac(mut self, magnitude: f64, phase_rad: f64) -> Self {
        self.ac = Some(AcSpec {
            magnitude,
            phase_rad,
        });
        self
    }

    /// The small-signal excitation, if any.
    pub fn ac(&self) -> Option<AcSpec> {
        self.ac
    }

    /// The waveform of the source.
    pub fn waveform(&self) -> &Waveform {
        &self.waveform
    }

    /// The `(a, b)` terminal nodes (positive terminal first).
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn extra_unknowns(&self) -> usize {
        1
    }

    fn unknown_names(&self) -> Vec<String> {
        vec!["i".to_string()]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = ctx.value(Unknown::Extra(0));
        ctx.add_current(self.a, i);
        ctx.add_current(self.b, -i);
        ctx.add_current_derivative(self.a, Unknown::Extra(0), 1.0);
        ctx.add_current_derivative(self.b, Unknown::Extra(0), -1.0);
        let target = self.waveform.value(ctx.time());
        let v = ctx.voltage_between(self.a, self.b);
        ctx.add_equation(0, v - target);
        ctx.add_equation_derivative(0, Unknown::Node(self.a), 1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.b), -1.0);
    }

    fn stamp_ac(&self, ctx: &mut AcStampContext<'_>) {
        if let Some(ac) = self.ac {
            // The transient equation carries `−V(t)`, so the small-signal
            // drive lands on its right-hand side as `+V̂`.
            ctx.drive_equation(0, ac.phasor());
        }
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        self.waveform.breakpoints(t_stop, out);
    }

    fn excitation_period(&self) -> Option<f64> {
        self.waveform.period()
    }
}

/// Independent current source driven by a [`Waveform`]; the current flows out
/// of node `a`, through the source, into node `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSource {
    name: String,
    a: NodeId,
    b: NodeId,
    waveform: Waveform,
    ac: Option<AcSpec>,
}

impl CurrentSource {
    /// Creates a current source pushing `waveform(t)` amperes from `a` to `b`.
    pub fn new(name: &str, a: NodeId, b: NodeId, waveform: Waveform) -> Self {
        CurrentSource {
            name: name.to_string(),
            a,
            b,
            waveform,
            ac: None,
        }
    }

    /// Attaches a small-signal excitation of `magnitude` amperes (peak) at
    /// `phase_rad` radians, making this source drive AC analyses.
    #[must_use]
    pub fn with_ac(mut self, magnitude: f64, phase_rad: f64) -> Self {
        self.ac = Some(AcSpec {
            magnitude,
            phase_rad,
        });
        self
    }

    /// The small-signal excitation, if any.
    pub fn ac(&self) -> Option<AcSpec> {
        self.ac
    }

    /// The waveform of the source.
    pub fn waveform(&self) -> &Waveform {
        &self.waveform
    }

    /// The `(a, b)` terminal nodes (current flows out of `a` into `b`).
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = self.waveform.value(ctx.time());
        ctx.add_current(self.a, i);
        ctx.add_current(self.b, -i);
    }

    fn stamp_ac(&self, ctx: &mut AcStampContext<'_>) {
        if let Some(ac) = self.ac {
            // The transient stamp adds `+i` at `a` (current leaving `a`), so
            // the small-signal drive is a current *extracted* from `a` and
            // injected into `b`.
            let i = ac.phasor();
            ctx.inject_current(self.a, -i);
            ctx.inject_current(self.b, i);
        }
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        self.waveform.breakpoints(t_stop, out);
    }

    fn excitation_period(&self) -> Option<f64> {
        self.waveform.period()
    }
}

/// Exponential junction diode (Shockley equation with overflow limiting and a
/// small parallel conductance for convergence robustness).
#[derive(Debug, Clone, PartialEq)]
pub struct Diode {
    name: String,
    anode: NodeId,
    cathode: NodeId,
    saturation_current: f64,
    emission_coefficient: f64,
    thermal_voltage: f64,
    gmin: f64,
    /// `n·Vt`, and the constants of the exponential's linearisation above
    /// the critical voltage: all fixed by `Is`, `n` and `Vt`, so they are
    /// computed once, at construction.
    nvt: f64,
    vcrit: f64,
    i_crit: f64,
    g_crit: f64,
}

impl Diode {
    /// Creates a diode with default small-signal silicon parameters
    /// (`Is = 1e-14 A`, `n = 1.0`, `Vt = 25.85 mV`).
    pub fn new(name: &str, anode: NodeId, cathode: NodeId) -> Self {
        Self::with_parameters(name, anode, cathode, 1e-14, 1.0)
    }

    /// Creates a diode with explicit saturation current and emission
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `saturation_current` or `emission_coefficient` is not
    /// strictly positive.
    pub fn with_parameters(
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        saturation_current: f64,
        emission_coefficient: f64,
    ) -> Self {
        assert!(saturation_current > 0.0, "Is must be positive");
        assert!(emission_coefficient > 0.0, "n must be positive");
        let thermal_voltage = 0.02585;
        let nvt = emission_coefficient * thermal_voltage;
        // Forward voltage above which the exponential is linearised to keep
        // the Newton iteration bounded, and the current and conductance there.
        let vcrit = nvt * (nvt / (saturation_current * std::f64::consts::SQRT_2)).ln();
        let e = (vcrit / nvt).exp();
        Diode {
            name: name.to_string(),
            anode,
            cathode,
            saturation_current,
            emission_coefficient,
            thermal_voltage,
            gmin: 1e-12,
            nvt,
            vcrit,
            i_crit: saturation_current * (e - 1.0),
            g_crit: saturation_current * e / nvt,
        }
    }

    /// Diode current and small-signal conductance at junction voltage `v`.
    pub(crate) fn current_and_conductance(&self, v: f64) -> (f64, f64) {
        let (i, g) = if v <= self.vcrit {
            // Clamp the reverse exponent as well to avoid underflow noise.
            let e = (v / self.nvt).max(-80.0).exp();
            (
                self.saturation_current * (e - 1.0),
                self.saturation_current * e / self.nvt,
            )
        } else {
            // Linear extrapolation of the exponential beyond vcrit.
            (self.i_crit + self.g_crit * (v - self.vcrit), self.g_crit)
        };
        (i + self.gmin * v, g + self.gmin)
    }

    /// As [`Diode::current_and_conductance`], with SPICE-style junction
    /// limiting: junction voltages beyond `±limit` are evaluated *at* the
    /// limit and extended linearly with the conductance there, which bounds
    /// the exponential currents during wild Newton excursions. Inside the
    /// limit the two models are identical, so a converged solution whose
    /// junction voltage sits within the limit is exact.
    pub(crate) fn limited_current_and_conductance(&self, v: f64, limit: f64) -> (f64, f64) {
        let clamped = v.clamp(-limit, limit);
        let (i0, g0) = self.current_and_conductance(clamped);
        (i0 + g0 * (v - clamped), g0)
    }

    /// Saturation current `Is` in amperes.
    pub fn saturation_current(&self) -> f64 {
        self.saturation_current
    }

    /// Emission coefficient `n` (ideality factor).
    pub fn emission_coefficient(&self) -> f64 {
        self.emission_coefficient
    }

    /// The `(anode, cathode)` terminal nodes.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.anode, self.cathode)
    }
}

impl Device for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = ctx.voltage_between(self.anode, self.cathode);
        let (i, g) = match ctx.junction_limit() {
            Some(limit) => self.limited_current_and_conductance(v, limit),
            None => self.current_and_conductance(v),
        };
        ctx.add_current(self.anode, i);
        ctx.add_current(self.cathode, -i);
        ctx.add_current_derivative(self.anode, Unknown::Node(self.anode), g);
        ctx.add_current_derivative(self.anode, Unknown::Node(self.cathode), -g);
        ctx.add_current_derivative(self.cathode, Unknown::Node(self.anode), -g);
        ctx.add_current_derivative(self.cathode, Unknown::Node(self.cathode), g);
    }
}

/// Ideal transformer with voltage ratio `n = v_secondary / v_primary`.
///
/// Winding resistances are *not* included — compose with [`Resistor`]s, as
/// the transformer-based booster model does, so that the optimiser can vary
/// them independently.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealTransformer {
    name: String,
    primary_pos: NodeId,
    primary_neg: NodeId,
    secondary_pos: NodeId,
    secondary_neg: NodeId,
    ratio: f64,
}

impl IdealTransformer {
    /// Creates an ideal transformer with secondary/primary voltage ratio
    /// `ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive.
    pub fn new(
        name: &str,
        primary_pos: NodeId,
        primary_neg: NodeId,
        secondary_pos: NodeId,
        secondary_neg: NodeId,
        ratio: f64,
    ) -> Self {
        assert!(ratio > 0.0, "transformer ratio must be positive");
        IdealTransformer {
            name: name.to_string(),
            primary_pos,
            primary_neg,
            secondary_pos,
            secondary_neg,
            ratio,
        }
    }

    /// Secondary-to-primary voltage ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The terminal nodes `(primary_pos, primary_neg, secondary_pos,
    /// secondary_neg)`.
    pub fn terminals(&self) -> (NodeId, NodeId, NodeId, NodeId) {
        (
            self.primary_pos,
            self.primary_neg,
            self.secondary_pos,
            self.secondary_neg,
        )
    }
}

impl Device for IdealTransformer {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn extra_unknowns(&self) -> usize {
        2
    }

    fn unknown_names(&self) -> Vec<String> {
        vec!["i_primary".to_string(), "i_secondary".to_string()]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let ip = ctx.value(Unknown::Extra(0));
        let is = ctx.value(Unknown::Extra(1));
        // Currents enter the dotted (positive) terminals.
        ctx.add_current(self.primary_pos, ip);
        ctx.add_current(self.primary_neg, -ip);
        ctx.add_current(self.secondary_pos, is);
        ctx.add_current(self.secondary_neg, -is);
        ctx.add_current_derivative(self.primary_pos, Unknown::Extra(0), 1.0);
        ctx.add_current_derivative(self.primary_neg, Unknown::Extra(0), -1.0);
        ctx.add_current_derivative(self.secondary_pos, Unknown::Extra(1), 1.0);
        ctx.add_current_derivative(self.secondary_neg, Unknown::Extra(1), -1.0);

        // Equation 0: v_s − n·v_p = 0.
        let vp = ctx.voltage_between(self.primary_pos, self.primary_neg);
        let vs = ctx.voltage_between(self.secondary_pos, self.secondary_neg);
        ctx.add_equation(0, vs - self.ratio * vp);
        ctx.add_equation_derivative(0, Unknown::Node(self.secondary_pos), 1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.secondary_neg), -1.0);
        ctx.add_equation_derivative(0, Unknown::Node(self.primary_pos), -self.ratio);
        ctx.add_equation_derivative(0, Unknown::Node(self.primary_neg), self.ratio);

        // Equation 1: i_p + n·i_s = 0 (power conservation).
        ctx.add_equation(1, ip + self.ratio * is);
        ctx.add_equation_derivative(1, Unknown::Extra(0), 1.0);
        ctx.add_equation_derivative(1, Unknown::Extra(1), self.ratio);
    }
}

/// A switch that is closed (low resistance) inside `[t_on, t_off)` and open
/// (high resistance) outside.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedSwitch {
    name: String,
    a: NodeId,
    b: NodeId,
    t_on: f64,
    t_off: f64,
    on_resistance: f64,
    off_resistance: f64,
}

impl TimedSwitch {
    /// Creates a switch closed between `t_on` and `t_off` seconds, with 1 mΩ
    /// on-resistance and 1 GΩ off-resistance.
    ///
    /// # Panics
    ///
    /// Panics if `t_off <= t_on`.
    pub fn new(name: &str, a: NodeId, b: NodeId, t_on: f64, t_off: f64) -> Self {
        assert!(t_off > t_on, "switch must close before it opens");
        TimedSwitch {
            name: name.to_string(),
            a,
            b,
            t_on,
            t_off,
            on_resistance: 1e-3,
            off_resistance: 1e9,
        }
    }

    /// The time (seconds) at which the switch closes.
    pub fn t_on(&self) -> f64 {
        self.t_on
    }

    /// The time (seconds) at which the switch opens again.
    pub fn t_off(&self) -> f64 {
        self.t_off
    }

    /// The `(a, b)` terminal nodes.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl Device for TimedSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let t = ctx.time();
        let r = if t >= self.t_on && t < self.t_off {
            self.on_resistance
        } else {
            self.off_resistance
        };
        ctx.stamp_conductance(self.a, self.b, 1.0 / r);
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        for t in [self.t_on, self.t_off] {
            if t > 0.0 && t < t_stop {
                out.push(t);
            }
        }
    }

    fn excitation_period(&self) -> Option<f64> {
        // One-shot switching events never repeat: no periodic steady state.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::transient::{IntegrationMethod, TransientAnalysis, TransientOptions};

    fn short_options(t_stop: f64, dt: f64) -> TransientOptions {
        TransientOptions {
            t_stop,
            dt,
            method: IntegrationMethod::Trapezoidal,
            ..TransientOptions::default()
        }
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn resistor_rejects_zero() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Resistor::new("R", a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn capacitor_rejects_negative() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Capacitor::new("C", a, Circuit::GROUND, -1.0);
    }

    #[test]
    #[should_panic(expected = "inductance must be positive")]
    fn inductor_rejects_zero() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Inductor::new("L", a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "ratio must be positive")]
    fn transformer_rejects_zero_ratio() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let _ = IdealTransformer::new("T", a, Circuit::GROUND, b, Circuit::GROUND, 0.0);
    }

    #[test]
    fn voltage_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(10.0),
        ));
        c.add(Resistor::new("R1", vin, mid, 1000.0));
        c.add(Resistor::new("R2", mid, Circuit::GROUND, 1000.0));
        let result = TransientAnalysis::new(short_options(1e-3, 1e-4))
            .run(&c)
            .unwrap();
        let v_mid = *result.voltage(mid).last().unwrap();
        assert!((v_mid - 5.0).abs() < 1e-9);
        // The source current should equal -10/2000 (flowing from + terminal
        // through the external resistors back to -).
        let i = *result.probe("V", "i").unwrap().last().unwrap();
        assert!((i + 0.005).abs() < 1e-9);
    }

    #[test]
    fn rc_charging_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let r = 1_000.0;
        let cap = 1e-6;
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R", vin, out, r));
        c.add(Capacitor::new("C", out, Circuit::GROUND, cap));
        let result = TransientAnalysis::new(short_options(3e-3, 1e-6))
            .run(&c)
            .unwrap();
        let tau = r * cap;
        for (t, v) in result.times().iter().zip(result.voltage(out)) {
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (v - expected).abs() < 5e-3,
                "t={t}: got {v}, expected {expected}"
            );
        }
    }

    #[test]
    fn rl_current_rise_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        let r = 10.0;
        let l = 1e-3;
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R", vin, mid, r));
        c.add(Inductor::new("L", mid, Circuit::GROUND, l));
        let result = TransientAnalysis::new(short_options(5e-4, 1e-6))
            .run(&c)
            .unwrap();
        let i = result.probe("L", "i").unwrap();
        let tau = l / r;
        let t_end = *result.times().last().unwrap();
        let expected = (1.0 / r) * (1.0 - (-t_end / tau).exp());
        assert!((i.last().unwrap() - expected).abs() < 1e-3);
    }

    #[test]
    fn diode_rectifies() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::sine(5.0, 50.0),
        ));
        c.add(Diode::new("D", vin, out));
        c.add(Resistor::new("R", out, Circuit::GROUND, 1000.0));
        let result = TransientAnalysis::new(short_options(0.04, 1e-5))
            .run(&c)
            .unwrap();
        let vout = result.voltage(out);
        let min = vout.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vout.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min > -0.1, "rectified output should never go far negative");
        assert!(
            max > 3.5,
            "positive half-cycles should pass (minus the diode drop)"
        );
    }

    #[test]
    fn diode_current_is_monotone_in_voltage() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = Diode::new("D", a, Circuit::GROUND);
        let mut prev = f64::NEG_INFINITY;
        let mut v = -1.0;
        while v <= 1.0 {
            let (i, g) = d.current_and_conductance(v);
            assert!(i >= prev, "diode I(V) must be monotone");
            assert!(g > 0.0, "conductance must stay positive");
            prev = i;
            v += 0.01;
        }
    }

    #[test]
    fn ideal_transformer_steps_up_voltage() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let sec = c.node("sec");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(2.0),
        ));
        c.add(IdealTransformer::new(
            "T",
            vin,
            Circuit::GROUND,
            sec,
            Circuit::GROUND,
            2.5,
        ));
        c.add(Resistor::new("RL", sec, Circuit::GROUND, 100.0));
        let result = TransientAnalysis::new(short_options(1e-3, 1e-4))
            .run(&c)
            .unwrap();
        let vs = *result.voltage(sec).last().unwrap();
        assert!((vs - 5.0).abs() < 1e-9);
        // Power conservation: primary current = -n * secondary current.
        let ip = *result.probe("T", "i_primary").unwrap().last().unwrap();
        let is = *result.probe("T", "i_secondary").unwrap().last().unwrap();
        assert!((ip + 2.5 * is).abs() < 1e-9);
    }

    #[test]
    fn timed_switch_connects_load() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(TimedSwitch::new("S", vin, out, 0.5e-3, 2e-3));
        c.add(Resistor::new("R", out, Circuit::GROUND, 1000.0));
        let result = TransientAnalysis::new(short_options(1e-3, 1e-5))
            .run(&c)
            .unwrap();
        let v_early = result.voltage(out)[10];
        let v_late = *result.voltage(out).last().unwrap();
        assert!(v_early < 0.01, "switch open early on");
        assert!((v_late - 1.0).abs() < 1e-3, "switch closed later");
    }

    #[test]
    fn current_source_drives_resistor() {
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add(CurrentSource::new(
            "I",
            Circuit::GROUND,
            out,
            Waveform::dc(1e-3),
        ));
        c.add(Resistor::new("R", out, Circuit::GROUND, 1000.0));
        let result = TransientAnalysis::new(short_options(1e-3, 1e-4))
            .run(&c)
            .unwrap();
        let v = *result.voltage(out).last().unwrap();
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accessors_expose_parameters() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(Resistor::new("R", a, b, 5.0).resistance(), 5.0);
        assert_eq!(Capacitor::new("C", a, b, 2e-6).capacitance(), 2e-6);
        assert_eq!(Inductor::new("L", a, b, 3e-3).inductance(), 3e-3);
        assert_eq!(
            IdealTransformer::new("T", a, Circuit::GROUND, b, Circuit::GROUND, 4.0).ratio(),
            4.0
        );
        let vs = VoltageSource::new("V", a, b, Waveform::dc(1.0));
        assert_eq!(vs.waveform(), &Waveform::dc(1.0));
    }
}
