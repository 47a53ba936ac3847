//! Job-service replay of a GA-shaped evaluation campaign.
//!
//! The optimiser's evaluation pattern — a small population of design
//! points revisited generation after generation, with the occasional
//! non-convergent corner — is exactly what the job service's design-point
//! cache and retry ladder exist for. Emitted as `BENCH_service.json`:
//!
//! * `ga_replay` — `GENERATIONS` generations of the same `DESIGNS`-point
//!   population. Single-flight plus the content-addressed cache make the
//!   evaluation count exactly `DESIGNS` whatever the worker count, so
//!   `cache_hit_rate` is deterministic and sits in the blocking baseline
//!   gate (a drop means cache identity or poison-proofing broke).
//! * `fault_storm` — a population where a quarter of the submissions carry
//!   an injected first-attempt solver fault; they must all recover through
//!   one escalated retry (`retries`, `evaluations` deterministic) with no
//!   worker deaths.
//!
//! Wall clock — the fastest replay, the service's start-up included — is
//! recorded as `replay_seconds`, which is deliberately *not* a gated metric
//! name — scheduling noise is not a regression.

use harvester_bench::report::{self, BenchRecord};
use harvester_numerics::fault::{Fault, FaultInjector};
use harvester_service::{JobSpec, JobState, ServiceConfig, SimulationService};

const DESIGNS: usize = 6;
const GENERATIONS: usize = 8;
const STORM_JOBS: usize = 20;

/// Design point `d`: the harvester load varies, everything else is the
/// shared rectifier test bench.
fn design(d: usize) -> String {
    format!(
        "Vin in 0 SIN(0 3 1000)\n\
         D1 in out\n\
         C1 out 0 4.7e-7\n\
         Rload out 0 {}k\n\
         .tran 1e-5 1e-4\n",
        2 + 3 * d
    )
}

fn service() -> SimulationService {
    SimulationService::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })
}

/// The full population, `GENERATIONS` times over, on a fresh service: every
/// generation after the first is answered entirely from the cache. Returns
/// the service with every job finished.
fn ga_replay() -> SimulationService {
    let service = service();
    for _generation in 0..GENERATIONS {
        let ids: Vec<_> = (0..DESIGNS)
            .map(|d| service.submit(JobSpec::new(design(d))))
            .collect();
        for id in ids {
            let report = service.wait(id).expect("submitted job is known");
            assert_eq!(report.state, JobState::Done, "healthy population");
        }
    }
    service
}

/// One generation on a fresh service where every fourth design point hits
/// an injected first-attempt fault and must come back through the escalated
/// retry. Returns the service with every job finished.
fn fault_storm() -> SimulationService {
    let service = service();
    let ids: Vec<_> = (0..STORM_JOBS)
        .map(|i| {
            let mut spec = JobSpec::new(design(i % 5));
            if i % 4 == 0 {
                let mut inj = FaultInjector::new();
                inj.arm_window(Fault::SingularFactorization, 1, 60);
                spec.fault = Some(inj);
            }
            service.submit(spec)
        })
        .collect();
    for id in ids {
        let report = service.wait(id).expect("submitted job is known");
        assert_eq!(report.state, JobState::Done, "every job recovers");
    }
    service
}

/// Deterministic service replay, emitted as `BENCH_service.json`.
fn main() {
    println!("service (machine readable -> BENCH_service.json)");
    let [(replay, replay_wall), (storm, storm_wall)] = report::time(
        ["ga_replay", "fault_storm"],
        SimulationService::stats,
        |k| if k == 0 { ga_replay() } else { fault_storm() },
    );

    let stats = replay.stats();
    assert_eq!(
        stats.evaluations, DESIGNS as u64,
        "one run per design point"
    );
    let submissions = (DESIGNS * GENERATIONS) as f64;
    let hit_rate = stats.cache_hits as f64 / submissions;
    println!(
        "  ga_replay: {submissions} submissions, {} evaluations, hit rate {hit_rate:.3}",
        stats.evaluations
    );
    let ga_replay = BenchRecord::new("ga_replay")
        .metric("replay_seconds", replay_wall)
        .metric("submissions", submissions)
        .metric("evaluations", stats.evaluations as f64)
        .metric("cache_hit_rate", hit_rate)
        .metric("worker_deaths", stats.worker_deaths as f64);

    let stats = storm.stats();
    // 5 injected jobs (cache-bypassed, 2 attempts each) + 5 distinct
    // healthy designs evaluated once: 15 evaluations, 5 retries.
    assert_eq!(stats.retries, 5);
    assert_eq!(stats.evaluations, 15);
    assert_eq!(stats.worker_deaths, 0);
    println!(
        "  fault_storm: {STORM_JOBS} jobs, {} evaluations, {} retries",
        stats.evaluations, stats.retries
    );
    let fault_storm = BenchRecord::new("fault_storm")
        .metric("replay_seconds", storm_wall)
        .metric("evaluations", stats.evaluations as f64)
        .metric("retries", stats.retries as f64)
        .metric("worker_deaths", stats.worker_deaths as f64);

    report::emit("service", &[ga_replay, fault_storm]);
}
