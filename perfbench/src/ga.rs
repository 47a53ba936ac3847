//! `ga_campaign`: the paper's Fig. 8 optimisation loop. A unit is one
//! fitness evaluation: decode a chromosome and measure the clamped-envelope
//! charging characteristic of the Table 1 harvester it describes.
//!
//! A run executes whole GA campaigns (`GaOptions::paper()` at a population
//! of [`POPULATION`], [`GENERATIONS`] generations, serial evaluator,
//! `FitnessBudget::default()`) drawn in a seed-shuffled order from a
//! committed pool of campaign seeds. Campaign cost varies about two-fold
//! with the GA's trajectory, so the pool keeps only the [`POOL`] candidates
//! closest to the typical campaign in fallback-heavy evaluations and Newton
//! iterations: whatever campaigns a seed picks, a run's mix of cheap and
//! fallback-heavy designs stays the same.

use crate::measure::Work;
use crate::measure::{at_reference, calibrate, kernel_ms, median, record_timing, seconds_since};
use crate::measure::{Block, LayerCounters, SplitMix64, Ticks};
use crate::references::GaReference;
use crate::trace::{SpanId, Tracer};
use crate::{ratio, Config, Outcome};
use harvester_core::system::HarvesterConfig;
use harvester_core::{EnvelopeOptions, EnvelopeSimulator, EnvelopeWorkspace};
use harvester_experiments::{decode, encode, paper_bounds, FitnessBudget, HarvesterObjective};
use harvester_optim::{GaOptions, GeneticAlgorithm, Objective, Optimizer, ParallelEvaluator};
use std::sync::Mutex;
use std::time::Instant;

/// Chromosomes per population.
pub const POPULATION: usize = 10;
/// Generations bred after the initial population.
pub const GENERATIONS: usize = 3;
/// Campaigns in the committed pool.
pub const POOL: usize = 16;
/// Candidate campaign seeds (1, 2, …) the pool is chosen from.
pub const CANDIDATES: u64 = 96;
/// Campaigns per timing block: 3 × 34 = 102 evaluations, so a block's p90
/// has ten evaluations beyond it.
pub const BLOCK_CAMPAIGNS: usize = 3;
/// Nominal seconds of one block on the reference machine: a run of
/// `--seconds` runs `seconds / BLOCK_SECONDS` blocks (at least one), so
/// both sides of a comparison evaluate the same number of campaigns.
pub const BLOCK_SECONDS: f64 = 7.5;
/// Relative tolerance of a campaign's best fitness against its reference.
pub const BEST_FITNESS_TOLERANCE: f64 = 0.02;

fn ga_options() -> GaOptions {
    GaOptions {
        population_size: POPULATION,
        ..GaOptions::paper()
    }
}

/// Objective evaluations of one campaign: the initial population plus
/// every generation's non-elite offspring.
pub fn expected_evaluations() -> u64 {
    let ga = ga_options();
    (POPULATION + GENERATIONS * (POPULATION - ga.elite_count)) as u64
}

/// The envelope measurement `HarvesterObjective` runs for a fitness
/// evaluation under `budget`.
fn fitness_envelope(budget: &FitnessBudget) -> EnvelopeOptions {
    EnvelopeOptions {
        voltage_points: 2,
        max_voltage: budget.reference_voltage.max(1e-3),
        settle_cycles: budget.settle_cycles,
        measure_cycles: budget.measure_cycles,
        detail_dt: budget.detail_dt,
        horizon: 1.0,
        output_points: 2,
        backend: budget.backend,
        step_control: budget.step_control,
        steady_state: budget.steady_state,
        ..EnvelopeOptions::default()
    }
}

/// Mutable state of the objective: the reused simulation workspace, the
/// tracer and what every evaluation recorded.
struct State {
    workspace: EnvelopeWorkspace,
    tracer: Tracer,
    campaign_span: Option<SpanId>,
    latencies_ms: Vec<f64>,
    /// A kernel reading after every evaluation.
    kernel_ms: Vec<f64>,
    failed: u64,
    campaign_work: Work,
    campaign_slow: u64,
    counters: LayerCounters,
}

/// The fitness objective, with the layer calls of one evaluation — decode,
/// then the envelope measurement — made by the benchmark so they can be
/// spanned and their counters read.
struct FitnessObjective {
    base: HarvesterConfig,
    reference_voltage: f64,
    envelope: EnvelopeOptions,
    state: Mutex<State>,
}

impl FitnessObjective {
    fn new(budget: &FitnessBudget, trace: bool) -> Self {
        FitnessObjective {
            base: HarvesterConfig::unoptimised(),
            reference_voltage: budget.reference_voltage,
            envelope: fitness_envelope(budget),
            state: Mutex::new(State {
                workspace: EnvelopeWorkspace::new(),
                tracer: Tracer::new(trace),
                campaign_span: None,
                latencies_ms: Vec::with_capacity(4096),
                kernel_ms: Vec::with_capacity(4096),
                failed: 0,
                campaign_work: Work::default(),
                campaign_slow: 0,
                counters: LayerCounters::default(),
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the objective is evaluated on one thread and never panics")
    }
}

impl Objective for FitnessObjective {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        let mut guard = self.state();
        let state = &mut *guard;
        let start = Instant::now();
        let unit = state.tracer.open("optim.objective", state.campaign_span);
        let span = state.tracer.open("design_space.decode", unit);
        let config = decode(&self.base, genes);
        state.tracer.close(span);
        let fitness = if config.generator.is_valid() {
            let span = state
                .tracer
                .open("envelope.measure_characteristic_with", unit);
            let measured = EnvelopeSimulator::new(config, self.envelope)
                .measure_characteristic_with(&mut state.workspace);
            state.tracer.close(span);
            match measured {
                Ok(characteristic) => {
                    let stats = characteristic.statistics();
                    state.campaign_work.add(Work::of(&stats));
                    if stats.brute_force_fallbacks > 0 {
                        state.campaign_slow += 1;
                    }
                    state.counters.merge(&stats);
                    state.counters.grid_points += self.envelope.voltage_points as u64;
                    characteristic.current_at(self.reference_voltage)
                }
                Err(_) => f64::NEG_INFINITY,
            }
        } else {
            f64::NEG_INFINITY
        };
        state.tracer.close(unit);
        if !fitness.is_finite() {
            state.failed += 1;
        }
        state.latencies_ms.push(1e3 * seconds_since(start));
        let span = state.tracer.open("machine.kernel", state.campaign_span);
        let reading = kernel_ms();
        state.tracer.close(span);
        state.kernel_ms.push(reading);
        fitness
    }
}

/// One campaign's result and exact counters.
struct Campaign {
    evaluations: u64,
    best_genes: Vec<f64>,
    best_fitness: f64,
    work: Work,
    /// Evaluations with at least one brute-force fallback: the slow tail.
    slow: u64,
    failed: u64,
}

fn run_campaign(objective: &FitnessObjective, seed: u64) -> Campaign {
    let failed_before = {
        let mut state = objective.state();
        state.campaign_work = Work::default();
        state.campaign_slow = 0;
        state.campaign_span = state.tracer.open("optim.optimise_with", None);
        state.failed
    };
    let result = GeneticAlgorithm::new(ga_options()).optimise_with(
        &ParallelEvaluator::serial(),
        objective,
        &paper_bounds(),
        GENERATIONS,
        seed,
    );
    let mut state = objective.state();
    let span = state.campaign_span.take();
    state.tracer.close(span);
    Campaign {
        evaluations: result.evaluations as u64,
        best_genes: result.best_genes,
        best_fitness: result.best_fitness,
        work: state.campaign_work,
        slow: state.campaign_slow,
        failed: state.failed - failed_before,
    }
}

/// Set-up: build the objective and its workspace, and evaluate the Table 1
/// design as the warm-up unit (its fitness is the bar every campaign must
/// beat). Returns the objective, the Table 1 fitness and the seconds taken.
fn set_up(trace: bool) -> (FitnessObjective, f64, f64) {
    let start = Instant::now();
    let objective = FitnessObjective::new(&FitnessBudget::default(), trace);
    let table1 = objective.evaluate(&encode(&HarvesterConfig::unoptimised()));
    {
        let mut state = objective.state();
        state.latencies_ms.clear();
        state.kernel_ms.clear();
        state.counters = LayerCounters::default();
        state.failed = 0;
        state.tracer = Tracer::new(trace);
    }
    (objective, table1, seconds_since(start))
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let pool = &config.references.ga;
    if pool.len() != POOL {
        outcome.problem(format!(
            "the campaign pool has {} entries, expected {POOL}",
            pool.len()
        ));
        return outcome;
    }
    let kernel = calibrate();
    let (objective, table1, seconds) = set_up(config.trace);
    let mut setups = vec![at_reference(seconds, kernel)];
    let mut order: Vec<usize> = (0..POOL).collect();
    SplitMix64::new(config.seed, 0x6A).shuffle(&mut order);
    let mut schedule = order.into_iter().cycle();

    let library = HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::default());
    let expected = expected_evaluations();
    let mut windows = Vec::new();
    let mut campaigns = 0u64;
    let mut changed = 0u64;
    let mut total_work = Work::default();
    let mut blocks = Vec::new();
    let block_count = ((config.seconds / BLOCK_SECONDS).round() as usize).max(1);
    for _ in 0..block_count {
        let mut block = Block::default();
        let first_unit = objective.state().latencies_ms.len();
        for _ in 0..BLOCK_CAMPAIGNS {
            if campaigns > 0 {
                // Set up again (and drop what it built) between campaigns,
                // so the set-up median samples the same stretches of the
                // run as the units do.
                let kernel = calibrate();
                setups.push(at_reference(set_up(false).2, kernel));
            }
            let reference = &pool[schedule.next().expect("the schedule cycles")];
            let readings_before = objective.state().kernel_ms.iter().sum::<f64>();
            let ticks = Ticks::now();
            let began = Instant::now();
            let campaign = run_campaign(&objective, reference.seed);
            windows.push((began, Instant::now()));
            block.ticks.add_since(ticks);
            let readings = objective.state().kernel_ms.iter().sum::<f64>() - readings_before;
            block.wall_s += seconds_since(began) - readings / 1e3;
            block.completed += campaign.evaluations - campaign.failed;
            campaigns += 1;
            outcome.attempted += campaign.evaluations;
            outcome.failed += campaign.failed;
            total_work.add(campaign.work);
            if campaign.work != reference.work
                || campaign.slow != reference.slow
                || campaign.evaluations != reference.evaluations
            {
                changed += campaign.evaluations;
            }
            check_campaign(
                &mut outcome,
                &library,
                reference,
                &campaign,
                expected,
                table1,
            );
        }
        let state = objective.state();
        block.latencies_ms = state.latencies_ms[first_unit..].to_vec();
        block.kernel_ms = state.kernel_ms[first_unit..].to_vec();
        drop(state);
        blocks.push(block);
    }
    outcome.setup_s = median(&mut setups);

    record_timing(&mut outcome, &blocks);
    let mut state = objective.state();
    let latencies = &state.latencies_ms;
    if latencies.len() as u64 != outcome.attempted {
        outcome.problem(format!(
            "{} latencies recorded for {} evaluations",
            latencies.len(),
            outcome.attempted
        ));
    }
    let unit_seconds: f64 = latencies.iter().sum::<f64>() / 1e3;
    outcome.work = format!(
        "{campaigns} campaigns, {} evaluations, newton {}, shooting {}, fallbacks {}, \
         gmres fallbacks {}; {changed} evaluations in campaigns whose counters differ \
         from the references",
        outcome.attempted,
        total_work.newton,
        total_work.shooting,
        total_work.fallbacks,
        total_work.gmres_fallbacks
    );

    if config.trace {
        let counters = state.counters;
        let tracer = std::mem::replace(&mut state.tracer, Tracer::new(false));
        let ga = tracer.total("optim.optimise_with");
        let measure = tracer.total("envelope.measure_characteristic_with");
        let units = outcome.attempted as f64;
        outcome.layer("trace.units", units);
        outcome.layer("trace.units_per_s", outcome.units_per_s);
        outcome.layer("trace.span_coverage", tracer.coverage(&windows));
        outcome.layer("optim.breed_share", ratio(ga.self_s, ga.total_s));
        outcome.layer("optim.campaigns", campaigns as f64);
        outcome.layer(
            "envelope.fallback_ratio",
            ratio(
                counters.stats.brute_force_fallbacks as f64,
                counters.grid_points as f64,
            ),
        );
        outcome.layer("envelope.grid_points", counters.grid_points as f64);
        let cycles = counters.stats.integrated_cycles as f64;
        outcome.layer("envelope.cycles_per_unit", ratio(cycles, units));
        outcome.layer(
            "envelope.us_per_cycle",
            ratio(1e6 * measure.total_s, cycles),
        );
        outcome.layer("envelope.cycles", cycles);
        counters.solver_layers(&mut outcome, units, unit_seconds);
        outcome.layer("work.changed_units", changed as f64);
        outcome.tracer = Some(tracer);
    }
    drop(state);
    outcome
}

/// The output checks of one campaign.
fn check_campaign(
    outcome: &mut Outcome,
    library: &HarvesterObjective,
    reference: &GaReference,
    campaign: &Campaign,
    expected: u64,
    table1: f64,
) {
    let seed = reference.seed;
    if campaign.evaluations != expected {
        outcome.problem(format!(
            "campaign {seed}: {} evaluations, expected P + G·(P − elite) = {expected}",
            campaign.evaluations
        ));
    }
    let beats_table1 = campaign.best_fitness > table1;
    if !beats_table1 {
        outcome.problem(format!(
            "campaign {seed}: best fitness {:e} does not beat the Table 1 design's {table1:e}",
            campaign.best_fitness
        ));
    }
    let deviation = (campaign.best_fitness - reference.best_fitness).abs();
    let agrees = deviation <= BEST_FITNESS_TOLERANCE * reference.best_fitness.abs();
    if !agrees {
        outcome.problem(format!(
            "campaign {seed}: best fitness {:e} is not within {BEST_FITNESS_TOLERANCE} of \
             the reference {:e}",
            campaign.best_fitness, reference.best_fitness
        ));
    }
    // The library's own objective must score the best design identically:
    // guards the benchmark's decode-and-measure path against drifting from
    // `HarvesterObjective`.
    let rescored = library.evaluate(&campaign.best_genes);
    if rescored.to_bits() != campaign.best_fitness.to_bits() {
        outcome.problem(format!(
            "campaign {seed}: HarvesterObjective scores the best design {rescored:e}, \
             the campaign reported {:e}",
            campaign.best_fitness
        ));
    }
}

/// Runs candidate campaign seeds 1 to [`CANDIDATES`] and keeps, of those
/// whose evaluations all succeed and whose best design beats Table 1, the
/// [`POOL`] chosen by [`select_pool`].
pub fn reference_pool() -> Vec<GaReference> {
    let (objective, table1, _) = set_up(false);
    let candidates = (1..=CANDIDATES)
        .filter_map(|seed| {
            let campaign = run_campaign(&objective, seed);
            eprintln!(
                "ga campaign {seed}: {:?}, {} slow evaluations",
                campaign.work, campaign.slow
            );
            (campaign.failed == 0 && campaign.best_fitness > table1).then_some(GaReference {
                seed,
                evaluations: campaign.evaluations,
                work: campaign.work,
                slow: campaign.slow,
                best_fitness: campaign.best_fitness,
            })
        })
        .collect();
    select_pool(candidates)
}

/// The [`POOL`] candidates closest to the typical (median) campaign: first
/// in slow evaluations, which set where a block's p90 falls, then in Newton
/// iterations, which set its cost. Returned in seed order.
fn select_pool(mut candidates: Vec<GaReference>) -> Vec<GaReference> {
    let middle = |mut values: Vec<u64>| {
        values.sort_unstable();
        values.get(values.len() / 2).copied().unwrap_or(0)
    };
    let slow = middle(candidates.iter().map(|c| c.slow).collect());
    let newton = middle(candidates.iter().map(|c| c.work.newton).collect());
    candidates.sort_by_key(|c| {
        (
            c.slow.abs_diff(slow),
            c.work.newton.abs_diff(newton),
            c.seed,
        )
    });
    candidates.truncate(POOL);
    candidates.sort_by_key(|c| c.seed);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_keeps_the_typical_campaigns() {
        let candidates: Vec<GaReference> = (0..3 * POOL as u64)
            .map(|seed| GaReference {
                seed,
                evaluations: expected_evaluations(),
                work: Work {
                    newton: 1000 + 10 * seed,
                    ..Work::default()
                },
                // Slow counts 0, 1, 2, 0, 1, 2, …: the median is 1.
                slow: seed % 3,
                best_fitness: 1.0,
            })
            .collect();
        let pool = select_pool(candidates);
        assert_eq!(pool.len(), POOL);
        assert!(pool.iter().all(|c| c.slow == 1));
        assert!(pool.windows(2).all(|w| w[0].seed < w[1].seed));
    }

    #[test]
    fn a_perturbed_reference_fails_the_campaign_check() {
        let references = crate::references::References::committed();
        let reference = &references.ga[0];
        let (objective, table1, _) = set_up(false);
        let campaign = run_campaign(&objective, reference.seed);
        let library =
            HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::default());
        let check = |reference: &GaReference| {
            let mut outcome = Outcome::default();
            check_campaign(
                &mut outcome,
                &library,
                reference,
                &campaign,
                expected_evaluations(),
                table1,
            );
            outcome.problems
        };
        assert_eq!(check(reference), Vec::<String>::new());
        let perturbed = GaReference {
            best_fitness: reference.best_fitness * (1.0 + 2.0 * BEST_FITNESS_TOLERANCE),
            ..reference.clone()
        };
        assert_eq!(check(&perturbed).len(), 1);
    }

    #[test]
    fn a_short_traced_run_passes_its_checks() {
        let outcome = run(&Config {
            seed: crate::DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            references: crate::references::References::committed(),
        });
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert_eq!(
            outcome.attempted,
            BLOCK_CAMPAIGNS as u64 * expected_evaluations()
        );
        assert_eq!(outcome.layers["work.changed_units"], 0.0);
        assert!(outcome.layers["trace.span_coverage"] > 0.95);
        // The paper's §5 figure: GA bookkeeping is under 3 % of its time.
        assert!(outcome.layers["optim.breed_share"] < 0.03);
    }

    #[test]
    fn the_committed_pool_is_full() {
        let refs = crate::references::References::committed();
        assert_eq!(refs.ga.len(), POOL);
        assert!(refs
            .ga
            .iter()
            .all(|r| r.evaluations == expected_evaluations()));
    }
}
