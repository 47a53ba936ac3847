//! `netlist_cards`: card-driven netlist runs. A unit is what
//! `examples/run_netlist.rs` does for one file: `netlist::build_with_plan`,
//! a fresh `AnalysisEngine`, and `run` over every analysis card.
//!
//! The netlists are the five [`card_fixtures`], each at one of [`LEVELS`]
//! perturbation levels (level 0 as shipped, the others with every
//! resistor and capacitor moved by up to ±[`SPREAD`]). Every round runs
//! each fixture once, in a seed-chosen order and at seed-chosen levels, so
//! the five fixtures keep equal weights: the median and p90 each land
//! inside one fixture's latency cluster.

use crate::measure::Work;
use crate::measure::{at_reference, calibrate, kernel_ms, median, record_timing, seconds_since};
use crate::measure::{Block, LayerCounters, SplitMix64, Ticks};
use crate::netlists::{card_fixtures, perturb, run_span, within, Fixture, Signature};
use crate::references::{CardReference, References};
use crate::trace::{Tracer, UNIT};
use crate::{Config, Outcome};
use harvester_mna::analysis::{AnalysisEngine, AnalysisPlan};
use harvester_mna::netlist::build_with_plan;
use harvester_mna::transient::RunStatistics;
use std::time::Instant;

/// Perturbation levels per fixture.
pub const LEVELS: usize = 8;
/// Largest relative perturbation of a component value.
pub const SPREAD: f64 = 0.02;
/// Relative tolerance of an output against its reference.
pub const REL_TOLERANCE: f64 = 1e-4;
/// Absolute tolerance of an output against its reference, in volts.
pub const ABS_TOLERANCE: f64 = 1e-7;
/// Nominal rounds per second on the reference machine: a run of
/// `--seconds` runs about `seconds · ROUNDS_PER_SECOND` rounds, in whole
/// blocks, so both sides of a comparison run the same netlists.
pub const ROUNDS_PER_SECOND: f64 = 3.0;
/// Rounds per timing block: 100 units, so a block's p90 has ten units
/// beyond it.
const BLOCK_ROUNDS: usize = 20;
/// Rounds between two set-ups.
const SETUP_ROUNDS: usize = 10;

/// Every fixture at every perturbation level.
struct Inputs {
    fixtures: Vec<Fixture>,
    texts: Vec<Vec<String>>,
}

fn inputs() -> Inputs {
    let fixtures = card_fixtures();
    let texts = fixtures
        .iter()
        .enumerate()
        .map(|(index, fixture)| {
            (0..LEVELS)
                .map(|level| {
                    if level == 0 {
                        return fixture.text.clone();
                    }
                    let mut rng = SplitMix64::new(level as u64, 1 + index as u64);
                    perturb(&fixture.text, || 1.0 + SPREAD * (2.0 * rng.unit() - 1.0))
                })
                .collect()
        })
        .collect();
    Inputs { fixtures, texts }
}

/// What one unit produced.
struct UnitResult {
    signature: Signature,
    stats: RunStatistics,
}

/// One unit. Traced, every card runs as a one-card plan in its own span so
/// run time splits by card kind; no fixture carries an `.op` card, so no
/// card's result depends on an earlier one and the split changes nothing
/// (`per_card_runs_match_whole_plan_runs` checks this).
fn run_unit(text: &str, tracer: &mut Tracer) -> Result<UnitResult, String> {
    let unit = tracer.open(UNIT, None);
    let span = tracer.open("netlist.build_with_plan", unit);
    let built = build_with_plan(text);
    tracer.close(span);
    let (circuit, plan) = built.map_err(|e| format!("netlist rejected: {e}"))?;
    let mut engine = AnalysisEngine::new();
    let result = if tracer.enabled() {
        let mut result = UnitResult {
            signature: Signature::of(&circuit, []),
            stats: RunStatistics::default(),
        };
        for card in plan.cards() {
            let single = AnalysisPlan::from_cards(vec![*card]).map_err(|e| e.to_string())?;
            let span = tracer.open(run_span(card), unit);
            let ran = engine.run(&circuit, &single);
            tracer.close(span);
            let ran = ran.map_err(|e| format!("run failed: {e}"))?;
            result.stats.merge(&ran.statistics());
            result
                .signature
                .extend(Signature::of(&circuit, ran.results()));
        }
        result
    } else {
        let ran = engine
            .run(&circuit, &plan)
            .map_err(|e| format!("run failed: {e}"))?;
        UnitResult {
            signature: Signature::of(&circuit, ran.results()),
            stats: ran.statistics(),
        }
    };
    tracer.close(unit);
    Ok(result)
}

/// The output checks of one unit. Returns whether its work counters differ
/// from the reference (a different workload, not a failure).
fn check_unit(
    outcome: &mut Outcome,
    references: &References,
    fixture: &str,
    level: usize,
    unit: &UnitResult,
) -> bool {
    let Some(reference) = references.card(fixture, level) else {
        outcome.problem(format!("no reference for {fixture} at level {level}"));
        return true;
    };
    if !unit.signature.pss_converged {
        outcome.problem(format!(
            "{fixture} level {level}: a .pss card did not converge"
        ));
    }
    let values = &unit.signature.values;
    let agrees = values.len() == reference.values.len()
        && values
            .iter()
            .zip(&reference.values)
            .all(|(&v, &r)| within(v, r, REL_TOLERANCE, ABS_TOLERANCE));
    if !agrees {
        outcome.problem(format!(
            "{fixture} level {level}: outputs {values:?} differ from the reference {:?}",
            reference.values
        ));
    }
    Work::of(&unit.stats) != reference.work
}

/// Set-up: generate every input and run the warm-up unit.
fn set_up() -> (Inputs, f64) {
    let start = Instant::now();
    let inputs = inputs();
    // The warm-up unit's result is discarded: every round runs (and
    // checks) the same fixture again.
    let _ = run_unit(&inputs.texts[0][0], &mut Tracer::new(false));
    (inputs, seconds_since(start))
}

/// Blocks of a run of `seconds` and rounds per block. A run shorter than
/// one block is one block of as many rounds (at least one).
fn schedule(seconds: f64) -> (usize, usize) {
    let rounds = (seconds * ROUNDS_PER_SECOND).round() as usize;
    if rounds < BLOCK_ROUNDS {
        (1, rounds.max(1))
    } else {
        let blocks = (rounds as f64 / BLOCK_ROUNDS as f64).round() as usize;
        (blocks, BLOCK_ROUNDS)
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let kernel = calibrate();
    let (inputs, seconds) = set_up();
    let mut setups = vec![at_reference(seconds, kernel)];
    let mut tracer = Tracer::new(config.trace);
    let mut rng = SplitMix64::new(config.seed, 0xCA);
    let mut counters = LayerCounters::default();
    let mut total = Work::default();
    let mut changed = 0u64;
    let mut unit_seconds = 0.0;
    let (block_count, block_rounds) = schedule(config.seconds);
    let mut blocks: Vec<Block> = Vec::with_capacity(block_count);
    let mut windows = Vec::new();
    for round in 0..block_count * block_rounds {
        if round % block_rounds == 0 {
            blocks.push(Block::default());
        }
        if round > 0 && round % SETUP_ROUNDS == 0 {
            // Set up again (and drop what it built) between rounds, so the
            // set-up median samples the same stretches of the run as the
            // units do.
            let kernel = calibrate();
            setups.push(at_reference(set_up().1, kernel));
        }
        let block = blocks.last_mut().expect("a block is open");
        let mut order: Vec<usize> = (0..inputs.fixtures.len()).collect();
        rng.shuffle(&mut order);
        for index in order {
            let level = rng.below(LEVELS);
            let name = inputs.fixtures[index].name;
            let ticks = Ticks::now();
            let began = Instant::now();
            let unit = run_unit(&inputs.texts[index][level], &mut tracer);
            let seconds = seconds_since(began);
            unit_seconds += seconds;
            block.latencies_ms.push(1e3 * seconds);
            outcome.attempted += 1;
            match unit {
                Ok(unit) => {
                    block.completed += 1;
                    counters.merge(&unit.stats);
                    total.add(Work::of(&unit.stats));
                    if check_unit(&mut outcome, &config.references, name, level, &unit) {
                        changed += 1;
                    }
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.problem(format!("{name} level {level}: {e}"));
                }
            }
            windows.push((began, Instant::now()));
            block.wall_s += seconds_since(began);
            block.ticks.add_since(ticks);
            block.kernel_ms.push(kernel_ms());
        }
    }
    outcome.setup_s = median(&mut setups);
    let units = outcome.attempted as f64;
    record_timing(&mut outcome, &blocks);
    outcome.work = format!(
        "{} netlist runs, newton {}, shooting {}, gmres fallbacks {}; {changed} runs whose \
         counters differ from the references",
        outcome.attempted, total.newton, total.shooting, total.gmres_fallbacks
    );

    if config.trace {
        outcome.layer("trace.units", units);
        outcome.layer("trace.units_per_s", outcome.units_per_s);
        outcome.layer("trace.span_coverage", tracer.coverage(&windows));
        let build = tracer.total("netlist.build_with_plan");
        outcome.layer("netlist.build_ms", build.mean_ms());
        outcome.layer("netlist.builds", build.count as f64);
        for (kind, ms, count) in [
            ("tran", "analysis.tran_ms", "analysis.tran_cards"),
            ("pss", "analysis.pss_ms", "analysis.pss_cards"),
            ("ac", "analysis.ac_ms", "analysis.ac_cards"),
        ] {
            let runs = tracer.total(&format!("analysis.run.{kind}"));
            outcome.layer(ms, runs.mean_ms());
            outcome.layer(count, runs.count as f64);
        }
        counters.solver_layers(&mut outcome, units, unit_seconds);
        outcome.layer("work.changed_units", changed as f64);
        outcome.tracer = Some(tracer);
    }
    outcome
}

/// Runs every fixture at every level once and records its outputs and
/// work counters.
pub fn reference_table() -> Vec<CardReference> {
    let inputs = inputs();
    let mut tracer = Tracer::new(false);
    let mut table = Vec::new();
    for (fixture, texts) in inputs.fixtures.iter().zip(&inputs.texts) {
        for (level, text) in texts.iter().enumerate() {
            let unit = run_unit(text, &mut tracer)
                .unwrap_or_else(|e| panic!("{} level {level}: {e}", fixture.name));
            assert!(
                unit.signature.pss_converged,
                "{} level {level}",
                fixture.name
            );
            table.push(CardReference {
                fixture: fixture.name.to_string(),
                level,
                work: Work::of(&unit.stats),
                values: unit.signature.values,
            });
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(references: References, trace: bool) -> Outcome {
        run(&Config {
            seed: crate::DEFAULT_SEED,
            seconds: 0.0,
            trace,
            references,
        })
    }

    #[test]
    fn per_card_runs_match_whole_plan_runs() {
        let inputs = inputs();
        for texts in &inputs.texts {
            let whole = run_unit(&texts[1], &mut Tracer::new(false)).expect("runs");
            let split = run_unit(&texts[1], &mut Tracer::new(true)).expect("runs");
            assert_eq!(whole.signature, split.signature);
            assert_eq!(Work::of(&whole.stats), Work::of(&split.stats));
        }
    }

    #[test]
    fn a_round_passes_its_checks_against_the_committed_references() {
        let outcome = quick(References::committed(), false);
        assert_eq!(outcome.attempted, 5);
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        let traced = quick(References::committed(), true);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert!(traced.layers["trace.span_coverage"] > 0.95);
    }

    #[test]
    fn a_perturbed_reference_fails_the_run() {
        let mut references = References::committed();
        for reference in &mut references.cards {
            reference.values[0] *= 1.0 + 10.0 * REL_TOLERANCE;
        }
        let outcome = quick(references, false);
        assert_eq!(outcome.problems.len(), 5, "{:?}", outcome.problems);
    }
}
