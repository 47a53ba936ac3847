//! `service_jobs`: a closed-loop client of the simulation job service. A
//! unit is one job, from `submit` to the return of `wait`.
//!
//! One client thread keeps [`OUTSTANDING`] jobs in flight against a
//! service of [`WORKERS`] workers: it submits the next job as soon as the
//! oldest one's `wait` returns. Every job is one of the three shipped
//! fixtures with perturbed values and a short periodic-steady-state card
//! (one warm-up period on a coarse step); about [`RESUBMIT_SHARE`] of them
//! resubmit an earlier design, half of those re-formatted so only the
//! canonical-print cache key matches.
//!
//! The service keeps every terminal job record, so its memory grows with
//! the jobs it has served. A run therefore serves a fixed number of jobs,
//! about `--seconds` times [`JOBS_PER_SECOND`] (the nominal rate on the
//! reference machine), from one service: its peak resident set depends on
//! the job count, not on how fast the run went. The jobs run in blocks of
//! [`BLOCK_JOBS`]; the client lets the in-flight jobs finish at the end of
//! a block.

use crate::measure::{at_reference, calibrate, median, peak_rss_mb, record_timing, rss_kb};
use crate::measure::{seconds_since, Block, Ticks};
use crate::measure::{LayerCounters, SplitMix64, Work};
use crate::netlists::{card_fixtures, perturb, reformat, run_span, with_cards};
use crate::trace::{SpanId, Tracer, UNIT};
use crate::{ratio, Config, Outcome};
use harvester_mna::analysis::{AnalysisEngine, AnalysisResult, AnalysisResults};
use harvester_mna::circuit::Circuit;
use harvester_mna::netlist::{build_with_plan, print_with_plan};
use harvester_mna::transient::SimulationBudget;
use harvester_service::{JobId, JobReport, JobSpec, JobState, ServiceConfig, SimulationService};
use std::collections::VecDeque;
use std::time::Instant;

/// Service worker threads.
pub const WORKERS: usize = 2;
/// Jobs the client keeps in flight.
pub const OUTSTANDING: usize = 2;
/// Nominal jobs per second on the reference machine: a run of `--seconds`
/// serves `seconds · JOBS_PER_SECOND` jobs (at least [`MIN_JOBS`]).
pub const JOBS_PER_SECOND: f64 = 200.0;
/// Jobs of the shortest run.
pub const MIN_JOBS: usize = 60;
/// Jobs per timing block: a block's p90 has twelve jobs beyond it.
pub const BLOCK_JOBS: usize = 120;
/// Blocks between two set-ups.
const SETUP_BLOCKS: usize = 6;
/// Share of jobs that resubmit an earlier design.
pub const RESUBMIT_SHARE: f64 = 0.3;
/// Share of resubmissions that are re-formatted.
pub const REFORMAT_SHARE: f64 = 0.5;
/// Largest relative perturbation of a component value.
pub const SPREAD: f64 = 0.05;
/// Cache hits per run whose outcome is compared with a direct run.
const VERIFIED_HITS: usize = 32;
/// Evaluated jobs re-run directly in the traced run, for the netlist costs
/// and the service's overhead over a direct engine run. They are spread
/// evenly over the run, so a slow stretch moves few of them.
const OVERHEAD_SAMPLES: usize = 64;
/// The study every job runs, per shipped fixture (villard, transformer
/// booster, coupled array): one period of steady state after one warm-up
/// period, on a step coarse enough to keep jobs at a few milliseconds.
const JOB_CARDS: [&str; 3] = [
    ".pss 0.02 dt=4e-4 warmup=1.0\n",
    ".pss 0.02 dt=4e-4 warmup=1.0\n",
    ".pss 0.001 dt=2e-5 warmup=1.0 tol=1e-9\n",
];

/// One job of a run.
struct Job {
    text: String,
    /// Index of the job that first submitted this design.
    design: usize,
}

/// Number of jobs a run of `seconds` serves: whole blocks, or one short
/// block of at least [`MIN_JOBS`].
pub fn job_count(seconds: f64) -> usize {
    let jobs = (seconds * JOBS_PER_SECOND).round() as usize;
    if jobs < BLOCK_JOBS {
        jobs.max(MIN_JOBS)
    } else {
        BLOCK_JOBS * (jobs as f64 / BLOCK_JOBS as f64).round() as usize
    }
}

/// The run's jobs and its number of distinct designs.
fn run_jobs(seed: u64, count: usize) -> (Vec<Job>, usize) {
    let fixtures = card_fixtures();
    let mut rng = SplitMix64::new(seed, 0x5E55);
    let mut jobs: Vec<Job> = Vec::with_capacity(count);
    let mut distinct = 0;
    for index in 0..count {
        if index > 0 && rng.unit() < RESUBMIT_SHARE {
            let design = jobs[rng.below(index)].design;
            let original = &jobs[design].text;
            let text = if rng.unit() < REFORMAT_SHARE {
                reformat(original)
            } else {
                original.clone()
            };
            jobs.push(Job { text, design });
        } else {
            let f = rng.below(JOB_CARDS.len());
            let text = perturb(&fixtures[f].text, || {
                1.0 + SPREAD * (2.0 * rng.unit() - 1.0)
            });
            jobs.push(Job {
                text: with_cards(&text, JOB_CARDS[f]),
                design: index,
            });
            distinct += 1;
        }
    }
    (jobs, distinct)
}

/// Every node's final voltage (as bits), the trace length and, for a
/// `.pss` card, its iteration count: equal for equal runs.
fn final_state(circuit: &Circuit, results: &AnalysisResults) -> Vec<u64> {
    let mut state = Vec::new();
    for result in results.results() {
        let trace = match result {
            AnalysisResult::Tran(tran) => tran,
            AnalysisResult::Pss(pss) => {
                state.push(pss.iterations as u64);
                &pss.result
            }
            _ => continue,
        };
        state.push(trace.times().len() as u64);
        for name in circuit.node_names().iter().skip(1) {
            let node = circuit.find_node(name).expect("listed nodes exist");
            state.push(trace.final_voltage(node).to_bits());
        }
    }
    state
}

/// A direct run of a job's text on the benchmark's own warm engine, as a
/// service worker runs it, with spans around each layer call.
struct Direct {
    circuit: Circuit,
    results: AnalysisResults,
    run_s: f64,
}

fn direct_run(engine: &mut AnalysisEngine, text: &str, tracer: &mut Tracer) -> Direct {
    let span = tracer.open("netlist.build_with_plan", None);
    let (circuit, plan) = build_with_plan(text).expect("job netlists are valid");
    tracer.close(span);
    let span = tracer.open("netlist.print_with_plan", None);
    let printed = print_with_plan(&circuit, &plan);
    tracer.close(span);
    printed.expect("job netlists print");
    let span = tracer.open(run_span(&plan.cards()[0]), None);
    let began = Instant::now();
    let outcome = engine
        .run_budgeted(&circuit, &plan, SimulationBudget::UNLIMITED)
        .expect("job netlists run");
    let run_s = seconds_since(began);
    tracer.close(span);
    Direct {
        circuit,
        results: outcome.results().clone(),
        run_s,
    }
}

/// The inputs and the warmed-up service of one set-up.
struct Prepared {
    jobs: Vec<Job>,
    distinct: usize,
    specs: VecDeque<JobSpec>,
    service: SimulationService,
}

/// Set-up: generate the run's jobs from the seed, start the service and
/// run one warm-up job per worker (designs no run job shares).
fn set_up(config: &Config, outcome: &mut Outcome) -> (Prepared, f64) {
    let start = Instant::now();
    let (jobs, distinct) = run_jobs(config.seed, job_count(config.seconds));
    let specs = jobs.iter().map(|j| JobSpec::new(j.text.clone())).collect();
    let service = SimulationService::new(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    });
    let fixtures = card_fixtures();
    let mut rng = SplitMix64::new(config.seed, 0x3A2);
    let warm_ups: Vec<JobId> = (0..WORKERS)
        .map(|k| {
            let f = k % JOB_CARDS.len();
            let text = perturb(&fixtures[f].text, || {
                1.0 + SPREAD * (2.0 * rng.unit() - 1.0)
            });
            service.submit(JobSpec::new(with_cards(&text, JOB_CARDS[f])))
        })
        .collect();
    for id in warm_ups {
        let state = service.wait(id).map(|r| r.state);
        if state != Some(JobState::Done) {
            outcome.problem(format!("a warm-up job ended {state:?}"));
        }
    }
    let prepared = Prepared {
        jobs,
        distinct,
        specs,
        service,
    };
    (prepared, seconds_since(start))
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let kernel = calibrate();
    let (prepared, seconds) = set_up(config, &mut outcome);
    let mut setups = vec![at_reference(seconds, kernel)];
    let Prepared {
        jobs,
        distinct,
        specs,
        service,
    } = prepared;
    let count = jobs.len();
    let rss_before_kb = rss_kb();

    // The closed loop, block by block.
    let mut tracer = Tracer::new(config.trace);
    let mut specs = specs.into_iter();
    let mut reports: Vec<Option<JobReport>> = vec![None; count];
    let mut latency_of = vec![0.0; count];
    let mut blocks = Vec::new();
    let mut windows = Vec::new();
    for (b, first) in (0..count).step_by(BLOCK_JOBS).enumerate() {
        let mut block = Block::default();
        let kernel = calibrate();
        block.kernel_ms.push(kernel);
        if b > 0 && b % SETUP_BLOCKS == 0 {
            // Set up again (and drop what it built) between blocks, so the
            // set-up median samples the same stretches of the run as the
            // jobs do.
            setups.push(at_reference(set_up(config, &mut outcome).1, kernel));
        }
        let end = (first + BLOCK_JOBS).min(count);
        let ticks = Ticks::now();
        let began = Instant::now();
        let mut in_flight: VecDeque<(usize, JobId, Instant, Option<SpanId>)> = VecDeque::new();
        let mut next = first;
        loop {
            while next < end && in_flight.len() < OUTSTANDING {
                let spec = specs.next().expect("one spec per job");
                let unit = tracer.open(UNIT, None);
                let span = tracer.open("service.submit", unit);
                let submitted = Instant::now();
                let id = service.submit(spec);
                tracer.close(span);
                in_flight.push_back((next, id, submitted, unit));
                next += 1;
            }
            let Some((k, id, submitted, unit)) = in_flight.pop_front() else {
                break;
            };
            let span = tracer.open("service.wait", unit);
            reports[k] = service.wait(id);
            tracer.close(span);
            latency_of[k] = 1e3 * seconds_since(submitted);
            tracer.close(unit);
        }
        windows.push((began, Instant::now()));
        block.wall_s = seconds_since(began);
        block.ticks.add_since(ticks);
        block.latencies_ms = latency_of[first..end].to_vec();
        block.kernel_ms.push(calibrate());
        blocks.push(block);
    }
    outcome.setup_s = median(&mut setups);
    let stats = service.stats();
    let peak_rss_kb = 1024.0 * peak_rss_mb();

    // Checks, outside the timed window.
    outcome.attempted = count as u64;
    let mut done = vec![false; count];
    let mut engine = AnalysisEngine::new();
    let mut counters = LayerCounters::default();
    let mut work = Work::default();
    let mut overheads_ms = Vec::new();
    let mut verified = 0;
    let mut evaluated = 0;
    let stride = (distinct / OVERHEAD_SAMPLES).max(1);
    for (k, (job, report)) in jobs.iter().zip(&reports).enumerate() {
        let Some(report) = report.as_ref().filter(|r| r.state == JobState::Done) else {
            outcome.failed += 1;
            outcome.problem(format!(
                "job {k} ended {:?}",
                report.as_ref().map(|r| r.state)
            ));
            continue;
        };
        let Some(result) = report.outcome.as_ref() else {
            outcome.problem(format!("job {k} is Done without an outcome"));
            continue;
        };
        done[k] = true;
        let cached = report.from_cache;
        let check = cached && verified < VERIFIED_HITS;
        let sample = !cached
            && tracer.enabled()
            && evaluated % stride == 0
            && overheads_ms.len() < OVERHEAD_SAMPLES;
        if !cached {
            evaluated += 1;
            let stats = result.results().statistics();
            work.add(Work::of(&stats));
            counters.merge(&stats);
        }
        if check || sample {
            let direct = direct_run(&mut engine, &job.text, &mut tracer);
            if final_state(&direct.circuit, &direct.results)
                != final_state(&direct.circuit, result.results())
            {
                outcome.problem(format!(
                    "job {k}: the service's outcome differs from a direct engine run"
                ));
            }
            if check {
                verified += 1;
            } else {
                overheads_ms.push(latency_of[k] - 1e3 * direct.run_s);
            }
        }
    }
    let evaluations = stats.evaluations.saturating_sub(WORKERS as u64);
    if evaluations != distinct as u64 {
        outcome.problem(format!(
            "{evaluations} evaluations for {distinct} distinct designs"
        ));
    }
    if stats.cache_hits != (count - distinct) as u64 {
        outcome.problem(format!(
            "{} cache hits for {} resubmissions",
            stats.cache_hits,
            count - distinct
        ));
    }
    if stats.worker_deaths != 0 {
        outcome.problem(format!("{} worker deaths", stats.worker_deaths));
    }
    drop(service);

    for (block, first) in blocks.iter_mut().zip((0..count).step_by(BLOCK_JOBS)) {
        let end = (first + BLOCK_JOBS).min(count);
        block.completed = done[first..end].iter().filter(|&&d| d).count() as u64;
    }
    let unit_seconds = latency_of.iter().sum::<f64>() / 1e3;
    record_timing(&mut outcome, &blocks);
    outcome.work = format!(
        "{count} jobs, {evaluations} evaluations, {} cache hits, newton {}, shooting {}",
        stats.cache_hits, work.newton, work.shooting
    );

    if config.trace {
        let units = count as f64;
        outcome.layer("trace.units", units);
        outcome.layer("trace.units_per_s", outcome.units_per_s);
        outcome.layer("trace.span_coverage", tracer.coverage(&windows));
        let build = tracer.total("netlist.build_with_plan");
        outcome.layer("netlist.build_ms", build.mean_ms());
        outcome.layer("netlist.builds", build.count as f64);
        let print = tracer.total("netlist.print_with_plan");
        outcome.layer("netlist.print_ms", print.mean_ms());
        outcome.layer("netlist.prints", print.count as f64);
        let pss = tracer.total("analysis.run.pss");
        outcome.layer("analysis.pss_ms", pss.mean_ms());
        outcome.layer("analysis.pss_cards", pss.count as f64);
        let submit = tracer.total("service.submit");
        outcome.layer("service.submit_ms", submit.mean_ms());
        outcome.layer("service.submits", submit.count as f64);
        outcome.layer("service.overhead_samples", overheads_ms.len() as f64);
        outcome.layer("service.overhead_ms", median(&mut overheads_ms));
        outcome.layer(
            "service.cache_hit_rate",
            ratio(stats.cache_hits as f64, units),
        );
        outcome.layer("service.evaluations", evaluations as f64);
        outcome.layer(
            "service.rss_per_job_kb",
            (peak_rss_kb - rss_before_kb) / units,
        );
        outcome.layer("service.jobs", units);
        counters.solver_layers(&mut outcome, units, unit_seconds);
        outcome.tracer = Some(tracer);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::references::References;

    #[test]
    fn runs_mix_new_designs_with_resubmissions() {
        let count = 2000;
        let (jobs, distinct) = run_jobs(crate::DEFAULT_SEED, count);
        assert_eq!(jobs.len(), count);
        let resubmitted = count - distinct;
        assert!((540..=660).contains(&resubmitted), "{resubmitted}");
        let reformatted = jobs
            .iter()
            .enumerate()
            .filter(|(k, j)| j.design != *k && j.text != jobs[j.design].text)
            .count();
        assert!(reformatted > resubmitted / 3, "{reformatted}");
        assert_eq!(run_jobs(crate::DEFAULT_SEED, count).1, distinct);
    }

    #[test]
    fn a_different_outcome_fails_the_direct_run_comparison() {
        let (jobs, _) = run_jobs(crate::DEFAULT_SEED, 8);
        let mut engine = AnalysisEngine::new();
        let mut tracer = Tracer::new(false);
        let first = direct_run(&mut engine, &jobs[0].text, &mut tracer);
        let again = direct_run(&mut engine, &jobs[0].text, &mut tracer);
        let other = jobs
            .iter()
            .find(|j| j.design != 0 && j.text.len() == jobs[0].text.len());
        let state = |d: &Direct| final_state(&first.circuit, &d.results);
        assert_eq!(state(&first), state(&again));
        if let Some(other) = other {
            let other = direct_run(&mut engine, &other.text, &mut tracer);
            assert_ne!(state(&first), state(&other));
        }
    }

    #[test]
    fn a_short_run_passes_its_checks() {
        let config = Config {
            seed: crate::DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            references: References::default(),
        };
        let outcome = run(&config);
        assert_eq!(outcome.attempted, MIN_JOBS as u64);
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert!(outcome.layers["trace.span_coverage"] > 0.95);
    }
}
