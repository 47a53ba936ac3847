//! Design parameters of the energy-harvester components.
//!
//! The numeric defaults mirror the paper's Table 1 ("un-optimised") where the
//! paper gives values, and physically plausible values for the quantities the
//! paper does not print (proof mass, spring stiffness, magnet flux density,
//! …). The optimisation experiments treat the Table 1 values as the starting
//! design, exactly as the paper does.

/// Parameters of the vibration-driven electromagnetic micro-generator
/// (cantilever + four magnets + fixed coil of the paper's Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroGeneratorParams {
    /// Proof mass `m` in kilograms (the four magnets).
    pub mass: f64,
    /// Parasitic (mechanical) damping factor `cp` in N·s/m.
    pub damping: f64,
    /// Spring stiffness `ks` of the cantilever in N/m.
    pub stiffness: f64,
    /// Number of coil turns `N`.
    pub coil_turns: f64,
    /// Coil inner radius `r` in metres.
    pub inner_radius: f64,
    /// Coil outer radius `R` in metres (Table 1: 1.2 mm).
    pub outer_radius: f64,
    /// Coil internal resistance `Rc` in ohms (Table 1: 1600 Ω).
    pub coil_resistance: f64,
    /// Coil self-inductance `Lc` in henries.
    pub coil_inductance: f64,
    /// Magnet height `H` in metres (Fig. 3).
    pub magnet_height: f64,
    /// Effective flux density `B` of the magnet arrangement in teslas.
    pub flux_density: f64,
}

impl MicroGeneratorParams {
    /// The paper's Table 1 ("un-optimised") micro-generator.
    pub fn unoptimised() -> Self {
        MicroGeneratorParams {
            mass: 0.66e-3,
            damping: 4.4e-3,
            stiffness: 70.0,
            coil_turns: 2300.0,
            inner_radius: 0.4e-3,
            outer_radius: 1.2e-3,
            coil_resistance: 1600.0,
            coil_inductance: 50e-3,
            magnet_height: 3.0e-3,
            flux_density: 0.4,
        }
    }

    /// The paper's Table 2 ("optimised") micro-generator: smaller coil radius,
    /// fewer turns, lower winding resistance.
    pub fn optimised_paper() -> Self {
        MicroGeneratorParams {
            coil_turns: 2100.0,
            outer_radius: 1.1e-3,
            coil_resistance: 1400.0,
            coil_inductance: 50e-3 * (2100.0f64 / 2300.0).powi(2),
            ..Self::unoptimised()
        }
    }

    /// Mechanical resonant frequency in hertz.
    pub fn resonant_frequency(&self) -> f64 {
        (self.stiffness / self.mass).sqrt() / (2.0 * std::f64::consts::PI)
    }

    /// Electromagnetic coupling factor at rest, `k(0) = 2·B·N·(R + r)` in
    /// V·s/m — the peak of the piecewise coupling function of the paper's
    /// Eq. (3).
    pub fn coupling_at_rest(&self) -> f64 {
        2.0 * self.flux_density * self.coil_turns * (self.outer_radius + self.inner_radius)
    }

    /// The smallest coil resistance achievable for this turn count and
    /// geometry: copper resistivity × wire length ÷ the largest wire
    /// cross-section that still fits `N` turns in the winding window.
    ///
    /// The optimiser uses this as a physical-consistency floor so it cannot
    /// invent a coil with many turns *and* negligible resistance.
    pub fn minimum_coil_resistance(&self) -> f64 {
        const COPPER_RESISTIVITY: f64 = 1.68e-8; // Ω·m
        const WINDING_THICKNESS: f64 = 1.0e-3; // axial length of the coil, m
        const FILL_FACTOR: f64 = 0.5;
        let mean_radius = 0.5 * (self.outer_radius + self.inner_radius);
        let window_area = (self.outer_radius - self.inner_radius).max(1e-6) * WINDING_THICKNESS;
        let wire_area = FILL_FACTOR * window_area / self.coil_turns;
        let wire_length = self.coil_turns * 2.0 * std::f64::consts::PI * mean_radius;
        COPPER_RESISTIVITY * wire_length / wire_area
    }

    /// Returns `true` if the geometry is self-consistent (positive quantities,
    /// `r < R`, and a magnet tall enough for the seven-section coupling
    /// function: `H > 2·R`).
    pub fn is_valid(&self) -> bool {
        self.mass > 0.0
            && self.damping > 0.0
            && self.stiffness > 0.0
            && self.coil_turns > 0.0
            && self.inner_radius > 0.0
            && self.outer_radius > self.inner_radius
            && self.coil_resistance > 0.0
            && self.coil_inductance > 0.0
            && self.magnet_height > 2.0 * self.outer_radius
            && self.flux_density > 0.0
    }
}

impl Default for MicroGeneratorParams {
    fn default() -> Self {
        Self::unoptimised()
    }
}

/// Parameters of the transformer-based voltage booster (the paper's Fig. 9 /
/// Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerBoosterParams {
    /// Primary winding resistance in ohms (Table 1: 400 Ω).
    pub primary_resistance: f64,
    /// Primary winding turns (Table 1: 2000).
    pub primary_turns: f64,
    /// Secondary winding resistance in ohms (Table 1: 1000 Ω).
    pub secondary_resistance: f64,
    /// Secondary winding turns (Table 1: 5000).
    pub secondary_turns: f64,
    /// Smoothing capacitance at the rectifier output in farads.
    pub smoothing_capacitance: f64,
    /// Rectifier diode saturation current in amperes.
    pub diode_saturation_current: f64,
}

impl TransformerBoosterParams {
    /// The paper's Table 1 ("un-optimised") voltage transformer.
    pub fn unoptimised() -> Self {
        TransformerBoosterParams {
            primary_resistance: 400.0,
            primary_turns: 2000.0,
            secondary_resistance: 1000.0,
            secondary_turns: 5000.0,
            smoothing_capacitance: 10e-6,
            diode_saturation_current: 1e-8,
        }
    }

    /// The paper's Table 2 ("optimised") voltage transformer.
    pub fn optimised_paper() -> Self {
        TransformerBoosterParams {
            primary_resistance: 340.0,
            primary_turns: 1900.0,
            secondary_resistance: 690.0,
            secondary_turns: 3800.0,
            ..Self::unoptimised()
        }
    }

    /// Secondary-to-primary turns (and voltage) ratio.
    pub fn ratio(&self) -> f64 {
        self.secondary_turns / self.primary_turns
    }

    /// Returns `true` if all parameters are physically meaningful.
    pub fn is_valid(&self) -> bool {
        self.primary_resistance > 0.0
            && self.primary_turns > 0.0
            && self.secondary_resistance > 0.0
            && self.secondary_turns > 0.0
            && self.smoothing_capacitance > 0.0
            && self.diode_saturation_current > 0.0
    }
}

impl Default for TransformerBoosterParams {
    fn default() -> Self {
        Self::unoptimised()
    }
}

/// Parameters of the N-stage Villard voltage multiplier (the paper's Fig. 4
/// uses 6 stages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VillardParams {
    /// Number of multiplier stages (each stage = one pump capacitor + two
    /// diodes).
    pub stages: usize,
    /// Pump/stage capacitance in farads.
    pub stage_capacitance: f64,
    /// Diode saturation current in amperes (Schottky-like default).
    pub diode_saturation_current: f64,
    /// Diode emission coefficient.
    pub diode_emission_coefficient: f64,
}

impl VillardParams {
    /// The 6-stage multiplier used in the paper's model-comparison experiment.
    pub fn paper_six_stage() -> Self {
        VillardParams {
            stages: 6,
            stage_capacitance: 47e-6,
            diode_saturation_current: 1e-8,
            diode_emission_coefficient: 1.05,
        }
    }

    /// Returns `true` if all parameters are physically meaningful.
    pub fn is_valid(&self) -> bool {
        self.stages > 0
            && self.stage_capacitance > 0.0
            && self.diode_saturation_current > 0.0
            && self.diode_emission_coefficient > 0.0
    }
}

impl Default for VillardParams {
    fn default() -> Self {
        Self::paper_six_stage()
    }
}

/// Parameters of the super-capacitor storage element (the paper's Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageParams {
    /// Capacitance in farads (the paper uses 0.22 F).
    pub capacitance: f64,
    /// Leakage resistance in ohms modelling the `V_LOST` term of Eq. 7.
    pub leakage_resistance: f64,
    /// Equivalent series resistance in ohms.
    pub series_resistance: f64,
    /// Initial voltage in volts.
    pub initial_voltage: f64,
}

impl StorageParams {
    /// The 0.22 F super-capacitor used throughout the paper's evaluation.
    pub fn paper_supercap() -> Self {
        StorageParams {
            capacitance: 0.22,
            leakage_resistance: 100e3,
            series_resistance: 5.0,
            initial_voltage: 0.0,
        }
    }

    /// Returns `true` if all parameters are physically meaningful.
    pub fn is_valid(&self) -> bool {
        self.capacitance > 0.0
            && self.leakage_resistance > 0.0
            && self.series_resistance >= 0.0
            && self.initial_voltage >= 0.0
    }
}

impl Default for StorageParams {
    fn default() -> Self {
        Self::paper_supercap()
    }
}

/// The ambient vibration driving the harvester: a sinusoidal base
/// acceleration `ÿ(t) = A·sin(2π·f·t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vibration {
    /// Acceleration amplitude `A` in m/s².
    pub acceleration_amplitude: f64,
    /// Vibration frequency in hertz.
    pub frequency_hz: f64,
}

impl Vibration {
    /// Creates a vibration profile.
    pub fn new(acceleration_amplitude: f64, frequency_hz: f64) -> Self {
        Vibration {
            acceleration_amplitude,
            frequency_hz,
        }
    }

    /// The shaker-table profile used by the reproduction's experiments:
    /// excitation at the un-optimised generator's mechanical resonance.
    pub fn paper_benchtop() -> Self {
        Vibration {
            acceleration_amplitude: 6.0,
            frequency_hz: MicroGeneratorParams::unoptimised().resonant_frequency(),
        }
    }

    /// Angular frequency in rad/s.
    pub(crate) fn angular_frequency(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.frequency_hz
    }

    /// Base acceleration at time `t`.
    pub fn acceleration(&self, t: f64) -> f64 {
        self.acceleration_amplitude * (self.angular_frequency() * t).sin()
    }

    /// Returns `true` if the profile is physically meaningful.
    pub fn is_valid(&self) -> bool {
        self.acceleration_amplitude > 0.0 && self.frequency_hz > 0.0
    }
}

impl Default for Vibration {
    fn default() -> Self {
        Self::paper_benchtop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let g = MicroGeneratorParams::unoptimised();
        assert_eq!(g.coil_turns, 2300.0);
        assert_eq!(g.outer_radius, 1.2e-3);
        assert_eq!(g.coil_resistance, 1600.0);
        let t = TransformerBoosterParams::unoptimised();
        assert_eq!(t.primary_resistance, 400.0);
        assert_eq!(t.primary_turns, 2000.0);
        assert_eq!(t.secondary_resistance, 1000.0);
        assert_eq!(t.secondary_turns, 5000.0);
    }

    #[test]
    fn table2_values_match_paper() {
        let g = MicroGeneratorParams::optimised_paper();
        assert_eq!(g.coil_turns, 2100.0);
        assert_eq!(g.outer_radius, 1.1e-3);
        assert_eq!(g.coil_resistance, 1400.0);
        let t = TransformerBoosterParams::optimised_paper();
        assert_eq!(t.primary_resistance, 340.0);
        assert_eq!(t.primary_turns, 1900.0);
        assert_eq!(t.secondary_resistance, 690.0);
        assert_eq!(t.secondary_turns, 3800.0);
    }

    #[test]
    fn derived_quantities_are_sensible() {
        let g = MicroGeneratorParams::unoptimised();
        let f = g.resonant_frequency();
        assert!(
            f > 40.0 && f < 70.0,
            "resonance should be tens of Hz, got {f}"
        );
        assert!(g.coupling_at_rest() > 1.0 && g.coupling_at_rest() < 10.0);
        assert!(g.is_valid());
        assert!(g.minimum_coil_resistance() > 100.0);
        assert!(g.minimum_coil_resistance() < g.coil_resistance * 2.0);
    }

    #[test]
    fn invalid_geometry_is_detected() {
        let mut g = MicroGeneratorParams::unoptimised();
        g.inner_radius = 2.0e-3; // larger than the outer radius
        assert!(!g.is_valid());
        let mut g = MicroGeneratorParams::unoptimised();
        g.magnet_height = 1.0e-3; // too short for the coil
        assert!(!g.is_valid());
    }

    #[test]
    fn transformer_ratio_matches_turns() {
        assert!((TransformerBoosterParams::unoptimised().ratio() - 2.5).abs() < 1e-12);
        assert!((TransformerBoosterParams::optimised_paper().ratio() - 2.0).abs() < 1e-12);
        assert!(TransformerBoosterParams::unoptimised().is_valid());
    }

    #[test]
    fn storage_and_villard_defaults() {
        let s = StorageParams::paper_supercap();
        assert_eq!(s.capacitance, 0.22);
        assert!(s.is_valid());
        let v = VillardParams::paper_six_stage();
        assert_eq!(v.stages, 6);
        assert!(v.is_valid());
    }

    #[test]
    fn vibration_profile() {
        let v = Vibration::paper_benchtop();
        assert!(v.is_valid());
        assert!(v.acceleration(0.0).abs() < 1e-12);
        let quarter = 0.25 / v.frequency_hz;
        assert!((v.acceleration(quarter) - v.acceleration_amplitude).abs() < 1e-9);
        assert!(!Vibration::new(0.0, 50.0).is_valid());
    }

    #[test]
    fn minimum_resistance_grows_with_turns() {
        let g = MicroGeneratorParams::unoptimised();
        let mut denser = g;
        denser.coil_turns = 2.0 * g.coil_turns;
        assert!(denser.minimum_coil_resistance() > 3.0 * g.minimum_coil_resistance());
    }
}
