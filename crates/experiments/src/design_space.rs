//! The seven-gene design space of the paper's integrated optimisation and the
//! simulation-backed objective function.
//!
//! The paper optimises three micro-generator coil parameters (outer radius
//! `R`, turns `N`, resistance `Rc`) and four voltage-transformer parameters
//! (primary resistance and turns, secondary resistance and turns); the
//! chromosome therefore has seven genes. The objective is the super-capacitor
//! charging rate, evaluated by simulating the complete coupled system.

use crate::report::Table;
use harvester_core::booster::BoosterConfig;
use harvester_core::params::TransformerBoosterParams;
use harvester_core::system::HarvesterConfig;
use harvester_core::{EnvelopeOptions, EnvelopeSimulator, EnvelopeWorkspace, SteadyState};
use harvester_mna::transient::{SolverBackend, StepControl};
use harvester_optim::{
    Bounds, Objective, ObjectiveMut, ParallelEvaluator, Parallelism, ThreadLocalObjective,
};

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

impl Gene {
    /// Short parameter name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Gene::CoilOuterRadius => "coil_outer_radius",
            Gene::CoilTurns => "coil_turns",
            Gene::CoilResistance => "coil_resistance",
            Gene::PrimaryResistance => "primary_resistance",
            Gene::PrimaryTurns => "primary_turns",
            Gene::SecondaryResistance => "secondary_resistance",
            Gene::SecondaryTurns => "secondary_turns",
        }
    }
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
    /// Linear-solver backend used by every fitness simulation.
    pub backend: SolverBackend,
    /// Time-step control of every fitness simulation. Defaults to
    /// [`StepControl::adaptive_averaging`]: the optimisation loop's dominant cost is
    /// exactly the smooth-between-corners transient workload LTE control
    /// accelerates, and the cycle-averaged fitness is insensitive to the
    /// sub-tolerance trace differences. [`StepControl::Fixed`] steps on the
    /// uniform `detail_dt` grid instead (the shooting periods always do).
    pub step_control: StepControl,
    /// How the population-level loops (GA generations, the design-space
    /// sweep) shard their candidate evaluations over worker threads.
    /// Results are bit-identical for every choice; this knob moves
    /// wall-clock time only.
    pub parallelism: Parallelism,
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
            backend: SolverBackend::Auto,
            step_control: StepControl::adaptive_averaging(),
            parallelism: Parallelism::Auto,
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
            backend: SolverBackend::Auto,
            step_control: StepControl::adaptive_averaging(),
            parallelism: Parallelism::Auto,
            steady_state: SteadyState::default(),
        }
    }

    /// The same budget with a different parallelism policy.
    pub fn with_parallelism(self, parallelism: Parallelism) -> Self {
        FitnessBudget {
            parallelism,
            ..self
        }
    }
}

/// The simulation-backed objective of the integrated optimisation loop
/// (Fig. 8): decode the chromosome, simulate the complete coupled harvester,
/// and return the charging figure of merit.
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

    /// The base configuration the chromosome perturbs.
    pub fn base(&self) -> &HarvesterConfig {
        &self.base
    }

    /// The per-evaluation simulation budget.
    pub fn budget(&self) -> &FitnessBudget {
        &self.budget
    }

    /// Evaluates the charging figure of merit (average charging current in
    /// amperes into the reference-voltage storage) for a full configuration.
    pub fn charging_current(&self, config: &HarvesterConfig) -> f64 {
        self.charging_current_with(config, &mut EnvelopeWorkspace::default())
    }

    /// As [`HarvesterObjective::charging_current`], but reusing an external
    /// simulation workspace — bit-identical results, no per-solve matrix and
    /// buffer allocation. This is the hot path of the optimisation loop; the
    /// workspace normally belongs to one evaluator worker (see
    /// [`HarvesterObjective::thread_local`]).
    pub fn charging_current_with(
        &self,
        config: &HarvesterConfig,
        workspace: &mut EnvelopeWorkspace,
    ) -> f64 {
        let envelope = EnvelopeOptions {
            voltage_points: 2,
            max_voltage: self.budget.reference_voltage.max(1e-3),
            settle_cycles: self.budget.settle_cycles,
            measure_cycles: self.budget.measure_cycles,
            detail_dt: self.budget.detail_dt,
            horizon: 1.0,
            output_points: 2,
            backend: self.budget.backend,
            step_control: self.budget.step_control,
            steady_state: self.budget.steady_state,
            ..EnvelopeOptions::default()
        };
        let sim = EnvelopeSimulator::new(config.clone(), envelope);
        match sim.measure_characteristic_with(workspace) {
            Ok(characteristic) => characteristic.current_at(self.budget.reference_voltage),
            // A design whose simulation fails (e.g. a pathological corner of
            // the design space) is simply a very bad design.
            Err(_) => f64::NEG_INFINITY,
        }
    }

    /// Chromosome-level evaluation against an external workspace (the
    /// mutable twin of the [`Objective`] implementation).
    pub fn evaluate_with(&self, genes: &[f64], workspace: &mut EnvelopeWorkspace) -> f64 {
        if genes.len() != GENE_COUNT {
            return f64::NEG_INFINITY;
        }
        let config = decode(&self.base, genes);
        if !config.generator.is_valid() {
            return f64::NEG_INFINITY;
        }
        self.charging_current_with(&config, workspace)
    }

    /// Wraps this objective in a [`ThreadLocalObjective`] pool: each
    /// evaluator worker gets its own [`HarvesterWorker`] — a clone of the
    /// objective plus one owned [`EnvelopeWorkspace`] — reused across every
    /// candidate and generation that worker simulates. Pass the result to
    /// any [`harvester_optim::Optimizer`] or [`ParallelEvaluator`].
    pub fn thread_local(
        &self,
    ) -> ThreadLocalObjective<HarvesterWorker, impl Fn() -> HarvesterWorker + '_> {
        ThreadLocalObjective::new(move || HarvesterWorker {
            objective: self.clone(),
            workspace: EnvelopeWorkspace::new(),
        })
    }
}

impl Objective for HarvesterObjective {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        self.evaluate_with(genes, &mut EnvelopeWorkspace::default())
    }
}

/// One evaluator worker's view of the harvester objective: a clone of the
/// [`HarvesterObjective`] plus an owned simulation workspace whose
/// allocations are reused across every candidate the worker evaluates.
/// Built by [`HarvesterObjective::thread_local`].
#[derive(Debug)]
pub struct HarvesterWorker {
    objective: HarvesterObjective,
    workspace: EnvelopeWorkspace,
}

impl ObjectiveMut for HarvesterWorker {
    fn evaluate_mut(&mut self, genes: &[f64]) -> f64 {
        self.objective.evaluate_with(genes, &mut self.workspace)
    }
}

/// Options for the design-space sweep: a grid over two genes of the paper's
/// chromosome, every grid point scored by the full coupled simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOptions {
    /// Gene varied along the rows of the grid.
    pub gene_a: Gene,
    /// Gene varied along the columns of the grid.
    pub gene_b: Gene,
    /// Number of grid points along `gene_a` (≥ 1).
    pub steps_a: usize,
    /// Number of grid points along `gene_b` (≥ 1).
    pub steps_b: usize,
    /// Simulation budget of each grid-point evaluation, including the
    /// [`FitnessBudget::parallelism`] the sweep shards its grid with.
    pub fitness: FitnessBudget,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            gene_a: Gene::CoilTurns,
            gene_b: Gene::SecondaryTurns,
            steps_a: 5,
            steps_b: 5,
            fitness: FitnessBudget::default(),
        }
    }
}

impl SweepOptions {
    /// A tiny grid with a coarse budget for unit tests and smoke runs.
    pub fn coarse() -> Self {
        SweepOptions {
            steps_a: 2,
            steps_b: 2,
            fitness: FitnessBudget::coarse(),
            ..SweepOptions::default()
        }
    }
}

/// The fitness landscape measured by [`sweep_design_space`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Gene varied along the rows.
    pub gene_a: Gene,
    /// Gene varied along the columns.
    pub gene_b: Gene,
    /// Grid values of `gene_a`.
    pub values_a: Vec<f64>,
    /// Grid values of `gene_b`.
    pub values_b: Vec<f64>,
    /// Fitness at each grid point, row-major (`values_a.len() *
    /// values_b.len()` entries; failed simulations are `-inf`).
    pub fitness: Vec<f64>,
}

impl SweepResult {
    /// Fitness at grid point `(ia, ib)`.
    pub fn fitness_at(&self, ia: usize, ib: usize) -> f64 {
        self.fitness[ia * self.values_b.len() + ib]
    }

    /// The best grid point as `(value_a, value_b, fitness)` under the
    /// NaN-last ordering.
    pub fn best_point(&self) -> (f64, f64, f64) {
        let k = harvester_optim::best_index(&self.fitness);
        let (ia, ib) = (k / self.values_b.len(), k % self.values_b.len());
        (self.values_a[ia], self.values_b[ib], self.fitness[k])
    }

    /// Formats the landscape as a report table (one row per grid point).
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec![
            self.gene_a.name().to_string(),
            self.gene_b.name().to_string(),
            "fitness_A".to_string(),
        ]);
        for (ia, va) in self.values_a.iter().enumerate() {
            for (ib, vb) in self.values_b.iter().enumerate() {
                table.push_row(vec![
                    format!("{va:.4}"),
                    format!("{vb:.4}"),
                    format!("{:.6e}", self.fitness_at(ia, ib)),
                ]);
            }
        }
        table
    }
}

/// Maps the fitness landscape the Fig. 8 optimiser searches: holds every
/// gene of `base` fixed except two, sweeps those over a grid inside the
/// paper bounds, and scores each grid point with the coupled simulation.
///
/// Every grid point is independent, so the sweep is sharded through the same
/// [`ParallelEvaluator`] / per-worker-workspace machinery as the GA's
/// generations ([`FitnessBudget::parallelism`]); the resulting landscape is
/// bit-identical for any worker count.
pub fn sweep_design_space(base: &HarvesterConfig, options: &SweepOptions) -> SweepResult {
    assert!(
        options.steps_a >= 1 && options.steps_b >= 1,
        "sweep needs at least one grid point per axis"
    );
    let bounds = paper_bounds();
    let grid = |gene: Gene, steps: usize| -> Vec<f64> {
        let (lo, hi) = (bounds.lower()[gene as usize], bounds.upper()[gene as usize]);
        (0..steps)
            .map(|k| lo + (hi - lo) * k as f64 / (steps - 1).max(1) as f64)
            .collect()
    };
    let values_a = grid(options.gene_a, options.steps_a);
    let values_b = grid(options.gene_b, options.steps_b);

    let template = encode(base);
    let mut candidates = Vec::with_capacity(values_a.len() * values_b.len());
    for va in &values_a {
        for vb in &values_b {
            let mut genes = template.clone();
            genes[options.gene_a as usize] = *va;
            genes[options.gene_b as usize] = *vb;
            candidates.push(genes);
        }
    }

    let objective = HarvesterObjective::new(base.clone(), options.fitness);
    let pooled = objective.thread_local();
    let evaluator = ParallelEvaluator::new(options.fitness.parallelism);
    let fitness = evaluator.evaluate(&pooled, &candidates);
    SweepResult {
        gene_a: options.gene_a,
        gene_b: options.gene_b,
        values_a,
        values_b,
        fitness,
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
        assert_eq!(objective.base().generator.coil_turns, 2300.0);
        assert_eq!(objective.budget().reference_voltage, 0.25);
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

    #[test]
    fn worker_pool_evaluation_matches_the_plain_objective_bitwise() {
        let objective =
            HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
        let genes = encode(&HarvesterConfig::unoptimised());
        let plain = objective.evaluate(&genes);

        let pooled = objective.thread_local();
        // Two passes through the pool: the second reuses the worker's
        // workspace and must not drift.
        let first = pooled.evaluate(&genes);
        let second = pooled.evaluate(&genes);
        assert_eq!(plain.to_bits(), first.to_bits());
        assert_eq!(plain.to_bits(), second.to_bits());
        assert_eq!(pooled.pooled_instances(), 1);
    }

    #[test]
    fn sweep_covers_the_grid_and_finds_an_interior_best() {
        let base = HarvesterConfig::unoptimised();
        let options = SweepOptions::coarse();
        let result = sweep_design_space(&base, &options);
        assert_eq!(result.values_a.len(), 2);
        assert_eq!(result.values_b.len(), 2);
        assert_eq!(result.fitness.len(), 4);
        let bounds = paper_bounds();
        assert_eq!(result.values_a[0], bounds.lower()[Gene::CoilTurns as usize]);
        assert_eq!(
            *result.values_a.last().unwrap(),
            bounds.upper()[Gene::CoilTurns as usize]
        );
        let (va, vb, best) = result.best_point();
        assert!(result.values_a.contains(&va));
        assert!(result.values_b.contains(&vb));
        assert!(
            best > 0.0,
            "at least one corner of the grid must charge, got {best}"
        );
        let text = result.table().to_string();
        assert!(text.contains("coil_turns") && text.contains("secondary_turns"));
    }

    #[test]
    fn fitness_budget_parallelism_builder() {
        let budget = FitnessBudget::coarse().with_parallelism(Parallelism::Threads(3));
        assert_eq!(budget.parallelism, Parallelism::Threads(3));
        assert_eq!(
            budget.reference_voltage,
            FitnessBudget::coarse().reference_voltage
        );
    }
}
