//! The seven-gene design space of the paper's integrated optimisation and the
//! simulation-backed objective function.
//!
//! The paper optimises three micro-generator coil parameters (outer radius
//! `R`, turns `N`, resistance `Rc`) and four voltage-transformer parameters
//! (primary resistance and turns, secondary resistance and turns); the
//! chromosome therefore has seven genes. The objective is the super-capacitor
//! charging rate, evaluated by simulating the complete coupled system.

use harvester_core::booster::BoosterConfig;
use harvester_core::params::TransformerBoosterParams;
use harvester_core::system::HarvesterConfig;
use harvester_core::{EnvelopeOptions, EnvelopeSimulator, SteadyState};
use harvester_mna::transient::{SolverBackend, StepControl};
use harvester_optim::{Bounds, Objective};

/// Index of each gene in the chromosome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gene {
    /// Coil outer radius in metres.
    CoilOuterRadius = 0,
    /// Number of coil turns.
    CoilTurns = 1,
    /// Coil internal resistance in ohms.
    CoilResistance = 2,
    /// Transformer primary winding resistance in ohms.
    PrimaryResistance = 3,
    /// Transformer primary turns.
    PrimaryTurns = 4,
    /// Transformer secondary winding resistance in ohms.
    SecondaryResistance = 5,
    /// Transformer secondary turns.
    SecondaryTurns = 6,
}

/// Number of genes in the paper's chromosome.
pub const GENE_COUNT: usize = 7;

/// The gene bounds used by the optimisation experiments (a generous box
/// around the paper's Table 1 values).
pub fn paper_bounds() -> Bounds {
    Bounds::new(&[
        (0.8e-3, 1.6e-3), // coil outer radius R
        (1200.0, 3200.0), // coil turns N
        (600.0, 2600.0),  // coil resistance Rc
        (50.0, 900.0),    // primary winding resistance
        (800.0, 3200.0),  // primary turns
        (200.0, 1600.0),  // secondary winding resistance
        (2000.0, 7000.0), // secondary turns
    ])
}

/// Encodes a harvester configuration into the seven-gene chromosome.
pub fn encode(config: &HarvesterConfig) -> Vec<f64> {
    let booster = match &config.booster {
        BoosterConfig::Transformer(p) => *p,
        _ => TransformerBoosterParams::unoptimised(),
    };
    vec![
        config.generator.outer_radius,
        config.generator.coil_turns,
        config.generator.coil_resistance,
        booster.primary_resistance,
        booster.primary_turns,
        booster.secondary_resistance,
        booster.secondary_turns,
    ]
}

/// Decodes a chromosome into a full harvester configuration, starting from
/// `base` (which supplies everything the genes do not cover: mass, spring,
/// magnets, storage, vibration, generator model).
///
/// Physical consistency is enforced: the coil resistance is floored at the
/// minimum achievable for the requested turns and radius, and the coil
/// inductance scales with the square of the turn count.
///
/// # Panics
///
/// Panics if `genes` does not have [`GENE_COUNT`] entries.
pub fn decode(base: &HarvesterConfig, genes: &[f64]) -> HarvesterConfig {
    assert_eq!(
        genes.len(),
        GENE_COUNT,
        "chromosome must have {GENE_COUNT} genes"
    );
    let mut config = base.clone();
    // The coil must stay inside the magnet structure (the seven-section
    // coupling function requires H > 2·R), so the radius gene is clamped to
    // the geometry of the base design.
    config.generator.outer_radius = genes[Gene::CoilOuterRadius as usize]
        .min(0.49 * base.generator.magnet_height)
        .max(1.01 * base.generator.inner_radius);
    config.generator.coil_turns = genes[Gene::CoilTurns as usize];
    config.generator.coil_resistance = genes[Gene::CoilResistance as usize];
    // Physical-consistency floor: a coil with more turns in a smaller window
    // cannot have an arbitrarily small resistance.
    let floor = config.generator.minimum_coil_resistance();
    if config.generator.coil_resistance < floor {
        config.generator.coil_resistance = floor;
    }
    // Inductance scales with N².
    let base_turns = base.generator.coil_turns;
    config.generator.coil_inductance =
        base.generator.coil_inductance * (config.generator.coil_turns / base_turns).powi(2);

    let mut booster = match &base.booster {
        BoosterConfig::Transformer(p) => *p,
        _ => TransformerBoosterParams::unoptimised(),
    };
    booster.primary_resistance = genes[Gene::PrimaryResistance as usize];
    booster.primary_turns = genes[Gene::PrimaryTurns as usize];
    booster.secondary_resistance = genes[Gene::SecondaryResistance as usize];
    booster.secondary_turns = genes[Gene::SecondaryTurns as usize];
    config.booster = BoosterConfig::Transformer(booster);
    config
}

/// How thoroughly each fitness evaluation simulates the harvester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessBudget {
    /// Vibration cycles simulated before the measurement window.
    pub settle_cycles: f64,
    /// Vibration cycles averaged for the charging-current measurement.
    pub measure_cycles: f64,
    /// Detailed time step in seconds.
    pub detail_dt: f64,
    /// Storage voltage at which the charging current is evaluated (the
    /// fitness is the cycle-averaged current delivered into the storage held
    /// at this voltage — proportional to the charging rate of the paper's
    /// large super-capacitor around that operating point).
    pub reference_voltage: f64,
    /// Linear-solver backend used by every fitness simulation. Both presets
    /// pick [`SolverBackend::Sparse`], although [`SolverBackend::Auto`]
    /// would resolve the fitness's 14-unknown clamped harvester to dense:
    /// the shooting periods replay one banked factorisation per step for
    /// every GMRES matvec, and on that workload the sparse refactorisation
    /// and solve are the faster pair (the `fitness_ratio` row of
    /// `bench/baselines/BENCH_pss.json`).
    pub backend: SolverBackend,
    /// Time-step control of every fitness simulation. Defaults to
    /// [`StepControl::adaptive_averaging`]: the optimisation loop's dominant cost is
    /// exactly the smooth-between-corners transient workload LTE control
    /// accelerates, and the cycle-averaged fitness is insensitive to the
    /// sub-tolerance trace differences. [`StepControl::Fixed`] steps on the
    /// uniform `detail_dt` grid instead (the shooting periods always do).
    pub step_control: StepControl,
    /// How each fitness measurement reaches its periodic steady state:
    /// shooting-Newton closure by default (with automatic brute-force
    /// fallback per grid point), or plain settling via
    /// [`SteadyState::BruteForce`] to reproduce pre-shooting optimisation
    /// runs. Shooting compounds with the parallel evaluator: every worker's
    /// fitness transients shrink from `settle + measure` cycles to a
    /// handful of shooting cycles.
    pub steady_state: SteadyState,
}

impl Default for FitnessBudget {
    fn default() -> Self {
        FitnessBudget {
            settle_cycles: 40.0,
            measure_cycles: 8.0,
            detail_dt: 1e-4,
            reference_voltage: 1.0,
            backend: SolverBackend::Sparse,
            step_control: StepControl::adaptive_averaging(),
            steady_state: SteadyState::default(),
        }
    }
}

impl FitnessBudget {
    /// A deliberately coarse budget for unit tests and smoke runs: fewer
    /// settling cycles and a low reference voltage so that even a design that
    /// has not fully reached mechanical steady state delivers measurable
    /// charge.
    pub fn coarse() -> Self {
        FitnessBudget {
            settle_cycles: 15.0,
            measure_cycles: 4.0,
            detail_dt: 2e-4,
            reference_voltage: 0.25,
            backend: SolverBackend::Sparse,
            step_control: StepControl::adaptive_averaging(),
            steady_state: SteadyState::default(),
        }
    }

    /// The envelope measurement every fitness evaluation under this budget
    /// runs: the charging characteristic at 0 V and at the reference
    /// voltage, whose second point is the fitness.
    pub fn envelope(&self) -> EnvelopeOptions {
        EnvelopeOptions {
            voltage_points: 2,
            max_voltage: self.reference_voltage.max(1e-3),
            settle_cycles: self.settle_cycles,
            measure_cycles: self.measure_cycles,
            detail_dt: self.detail_dt,
            horizon: 1.0,
            output_points: 2,
            backend: self.backend,
            step_control: self.step_control,
            steady_state: self.steady_state,
            ..EnvelopeOptions::default()
        }
    }
}

/// The simulation-backed objective of the integrated optimisation loop
/// (Fig. 8): decode the chromosome, simulate the complete coupled harvester,
/// and return the charging figure of merit.
///
/// This is the one way a design is scored. Every evaluation measures through
/// [`EnvelopeSimulator::measure_characteristic`] on fresh simulation
/// buffers, so the fitness is a pure function of the chromosome and the
/// evaluator's workers share one objective by reference.
#[derive(Debug, Clone)]
pub struct HarvesterObjective {
    base: HarvesterConfig,
    budget: FitnessBudget,
}

impl HarvesterObjective {
    /// Creates the objective around a base configuration.
    pub fn new(base: HarvesterConfig, budget: FitnessBudget) -> Self {
        HarvesterObjective { base, budget }
    }

    /// Evaluates the charging figure of merit (average charging current in
    /// amperes into the reference-voltage storage) for a full configuration.
    pub fn charging_current(&self, config: &HarvesterConfig) -> f64 {
        match EnvelopeSimulator::new(config.clone(), self.budget.envelope())
            .measure_characteristic()
        {
            Ok(characteristic) => characteristic.current_at(self.budget.reference_voltage),
            // A design whose simulation fails (e.g. a pathological corner of
            // the design space) is simply a very bad design.
            Err(_) => f64::NEG_INFINITY,
        }
    }
}

impl Objective for HarvesterObjective {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        if genes.len() != GENE_COUNT {
            return f64::NEG_INFINITY;
        }
        let config = decode(&self.base, genes);
        if !config.generator.is_valid() {
            return f64::NEG_INFINITY;
        }
        self.charging_current(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_core::params::MicroGeneratorParams;

    #[test]
    fn encode_decode_roundtrip_preserves_the_paper_design() {
        let base = HarvesterConfig::unoptimised();
        let genes = encode(&base);
        assert_eq!(genes.len(), GENE_COUNT);
        assert_eq!(genes[Gene::CoilTurns as usize], 2300.0);
        assert_eq!(genes[Gene::SecondaryTurns as usize], 5000.0);
        let decoded = decode(&base, &genes);
        assert_eq!(decoded.generator.coil_turns, base.generator.coil_turns);
        assert_eq!(decoded.generator.outer_radius, base.generator.outer_radius);
        match decoded.booster {
            BoosterConfig::Transformer(p) => {
                assert_eq!(p.primary_turns, 2000.0);
                assert_eq!(p.secondary_resistance, 1000.0);
            }
            _ => panic!("decode must produce a transformer booster"),
        }
    }

    #[test]
    fn paper_designs_lie_inside_the_bounds() {
        let bounds = paper_bounds();
        for config in [
            HarvesterConfig::unoptimised(),
            HarvesterConfig::optimised_paper(),
        ] {
            let mut genes = encode(&config);
            let before = genes.clone();
            bounds.clamp(&mut genes);
            assert_eq!(genes, before, "paper design must not be clamped");
        }
    }

    #[test]
    fn decode_enforces_the_coil_resistance_floor() {
        let base = HarvesterConfig::unoptimised();
        let mut genes = encode(&base);
        genes[Gene::CoilResistance as usize] = 1.0; // absurdly low
        let decoded = decode(&base, &genes);
        assert!(
            decoded.generator.coil_resistance
                >= MicroGeneratorParams {
                    coil_resistance: 1.0,
                    ..decoded.generator
                }
                .minimum_coil_resistance()
        );
        assert!(decoded.generator.coil_resistance > 100.0);
    }

    #[test]
    fn decode_scales_inductance_with_turns() {
        let base = HarvesterConfig::unoptimised();
        let mut genes = encode(&base);
        genes[Gene::CoilTurns as usize] = 4600.0; // double the turns
        let decoded = decode(&base, &genes);
        assert!(
            (decoded.generator.coil_inductance - 4.0 * base.generator.coil_inductance).abs() < 1e-9
        );
    }

    #[test]
    fn objective_rejects_malformed_chromosomes() {
        let objective =
            HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
        assert_eq!(objective.evaluate(&[1.0, 2.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn objective_scores_the_paper_design_positively() {
        let objective =
            HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
        let genes = encode(&HarvesterConfig::unoptimised());
        let fitness = objective.evaluate(&genes);
        assert!(
            fitness > 0.0,
            "the Table 1 design must deliver positive charging current, got {fitness}"
        );
        assert!(fitness < 1.0, "charging current should be well below 1 A");
    }

    #[test]
    #[should_panic(expected = "genes")]
    fn decode_panics_on_wrong_length() {
        let _ = decode(&HarvesterConfig::unoptimised(), &[0.0; 3]);
    }
}
