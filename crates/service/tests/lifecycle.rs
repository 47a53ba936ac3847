//! Direct tests of every terminal job state, the retry/escalation path,
//! attempt histories, deadline handling and panic isolation.

use std::time::Duration;

use harvester_mna::transient::SimulationBudget;
use harvester_mna::ErrorKind;
use harvester_numerics::fault::{Fault, FaultInjector};
use harvester_service::{
    silence_injected_panics, AttemptFailure, JobSpec, JobState, PanicInjector, ServiceConfig,
    SimulationService, PANIC_MARKER,
};

/// Half-wave rectifier with a short transient study: the standard healthy
/// fixture — any failure in these tests is an injected or provoked one.
const RECTIFIER: &str = "\
Vin in 0 SIN(0 3 1000)
D1 in out
C1 out 0 4.7e-7
Rload out 0 10k
.tran 1e-5 1e-4
";

/// The same circuit marching for a simulated second (~100k steps): several
/// wall-clock seconds of work, so a tens-of-milliseconds deadline reliably
/// fires mid-run.
const MARATHON_RECTIFIER: &str = "\
Vin in 0 SIN(0 3 1000)
D1 in out
C1 out 0 4.7e-7
Rload out 0 10k
.tran 1e-5 1
";

fn single_worker() -> SimulationService {
    SimulationService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

#[test]
fn healthy_job_finishes_done_with_a_complete_outcome() {
    let service = single_worker();
    let id = service.submit(JobSpec::new(RECTIFIER));
    let report = service.wait(id).expect("submitted job is known");
    assert_eq!(report.state, JobState::Done);
    assert!(report.attempts.is_empty(), "no failed attempts");
    assert!(!report.from_cache);
    let outcome = report.outcome.expect("done jobs carry their outcome");
    assert!(outcome.is_complete());
    assert_eq!(outcome.results().len(), 1);
    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.evaluations, 1);
}

#[test]
fn budget_truncated_job_finishes_partial() {
    let service = single_worker();
    let mut spec = JobSpec::new(RECTIFIER);
    spec.budget = SimulationBudget {
        max_accepted_steps: Some(2),
        ..SimulationBudget::UNLIMITED
    };
    let report = service.wait(service.submit(spec)).unwrap();
    assert_eq!(report.state, JobState::Partial);
    let outcome = report.outcome.expect("partial jobs keep the prefix");
    assert!(!outcome.is_complete());
    assert!(!outcome.cancelled());
    assert_eq!(service.stats().partial, 1);
}

#[test]
fn malformed_netlist_fails_permanently_without_a_worker() {
    let service = single_worker();
    let report = service
        .wait(service.submit(JobSpec::new("Vin in\n.tran 1u 1m\n")))
        .unwrap();
    assert_eq!(report.state, JobState::Failed);
    assert!(report.error.is_some());
    assert_eq!(report.attempts.len(), 1);
    match &report.attempts[0].failure {
        AttemptFailure::Error { kind, .. } => {
            assert_eq!(*kind, ErrorKind::Netlist);
            assert!(!kind.is_retryable(), "parse errors are permanent");
        }
        other => panic!("expected a netlist error, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.evaluations, 0, "rejected at submission");
}

#[test]
fn cancelled_running_job_keeps_its_trace_so_far() {
    // The marathon fixture keeps the worker busy long enough (even in
    // release mode) for the cancel to land mid-run.
    let service = single_worker();
    let id = service.submit(JobSpec::new(MARATHON_RECTIFIER));
    // Let the worker pick it up, then cancel mid-march.
    loop {
        let report = service.status(id).unwrap();
        if report.state != JobState::Queued {
            break;
        }
        std::thread::yield_now();
    }
    assert!(service.cancel(id));
    let report = service.wait(id).unwrap();
    assert_eq!(report.state, JobState::Cancelled);
    if let Some(outcome) = &report.outcome {
        assert!(outcome.cancelled(), "a mid-run cancel keeps the prefix");
    }
    assert_eq!(service.stats().cancelled, 1);
}

#[test]
fn cancelled_queued_job_never_runs() {
    // One worker pinned on a long job; the second submission is cancelled
    // while still queued.
    let service = single_worker();
    let blocker = service.submit(JobSpec::new(MARATHON_RECTIFIER));
    let queued = service.submit(JobSpec::new(RECTIFIER));
    assert!(service.cancel(queued));
    let report = service.wait(queued).unwrap();
    assert_eq!(report.state, JobState::Cancelled);
    assert!(report.outcome.is_none(), "never ran");
    service.cancel(blocker);
    service.wait(blocker);
    assert!(
        service.stats().evaluations <= 1,
        "the cancelled job never ran"
    );
}

#[test]
fn deadline_fires_mid_run_and_reports_timed_out() {
    let service = single_worker();
    let mut spec = JobSpec::new(MARATHON_RECTIFIER);
    spec.deadline = Some(Duration::from_millis(20));
    let report = service.wait(service.submit(spec)).unwrap();
    assert_eq!(report.state, JobState::TimedOut);
    // The cooperative cancel keeps the trace marched so far.
    let outcome = report.outcome.expect("a mid-run timeout keeps the prefix");
    assert!(outcome.cancelled());
    assert_eq!(service.stats().timed_out, 1);
}

#[test]
fn deadline_expired_while_queued_reports_timed_out_without_running() {
    let service = single_worker();
    let blocker = service.submit(JobSpec::new(MARATHON_RECTIFIER));
    let mut spec = JobSpec::new(RECTIFIER);
    spec.deadline = Some(Duration::from_millis(5));
    let id = service.submit(spec);
    let report = service.wait(id).unwrap();
    assert_eq!(report.state, JobState::TimedOut);
    assert!(report.outcome.is_none());
    service.cancel(blocker);
    service.wait(blocker);
}

#[test]
fn retryable_failure_is_escalated_and_recovers() {
    // Singular factorisations for a 60-occurrence window — one occurrence
    // per step-halving attempt. Attempt 1 exhausts the halving cascade
    // (~34 occurrences, dt 1e-5 down to the 1e-15 floor) and fails with
    // StepFailed (retryable). The injector's counters persist across
    // attempts, so the escalated retry *continues* the schedule: the
    // window runs out mid-cascade and the retry converges. One injector,
    // two attempts, deterministic outcome.
    let service = single_worker();
    let mut inj = FaultInjector::new();
    inj.arm_window(Fault::SingularFactorization, 1, 60);
    let mut spec = JobSpec::new(RECTIFIER);
    spec.fault = Some(inj);
    let report = service.wait(service.submit(spec)).unwrap();
    assert_eq!(report.state, JobState::Done);
    assert_eq!(report.attempts.len(), 1, "exactly one failed attempt");
    let first = &report.attempts[0];
    assert_eq!(first.attempt, 1);
    assert!(!first.escalated, "attempt 1 runs the spec as submitted");
    assert!(first.backoff.is_some(), "a retry was scheduled");
    match &first.failure {
        AttemptFailure::Error { kind, .. } => assert!(kind.is_retryable()),
        other => panic!("expected an engine error, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.evaluations, 2);
    assert_eq!(stats.completed, 1);
}

#[test]
fn exhausted_retries_fail_with_the_full_attempt_history() {
    // Poisoning the recovery cascade's factorisations too makes the
    // escalated attempt fail as well; after its two attempts the job is
    // permanently Failed and the report shows both.
    let service = single_worker();
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    inj.arm_always(Fault::SingularFactorization);
    let mut spec = JobSpec::new(RECTIFIER);
    spec.fault = Some(inj);
    let report = service.wait(service.submit(spec)).unwrap();
    assert_eq!(report.state, JobState::Failed);
    assert!(report.error.is_some());
    assert_eq!(report.attempts.len(), 2);
    assert!(!report.attempts[0].escalated);
    assert!(report.attempts[1].escalated, "attempt 2 runs escalated");
    assert!(report.attempts[1].backoff.is_none(), "no further retry");
    assert_eq!(service.stats().failed, 1);
}

#[test]
fn panicking_job_fails_but_the_worker_survives() {
    silence_injected_panics();
    let service = single_worker();
    let mut spec = JobSpec::new(RECTIFIER);
    spec.panic = Some(PanicInjector::armed(1));
    let report = service.wait(service.submit(spec)).unwrap();
    assert_eq!(report.state, JobState::Failed);
    assert_eq!(report.attempts.len(), 1);
    match &report.attempts[0].failure {
        AttemptFailure::Panic { payload } => assert!(payload.contains(PANIC_MARKER)),
        other => panic!("expected a panic record, got {other:?}"),
    }
    assert!(report.error.as_deref().unwrap().contains(PANIC_MARKER));

    // The same worker (there is only one) still serves jobs afterwards.
    let after = service
        .wait(service.submit(JobSpec::new(RECTIFIER)))
        .unwrap();
    assert_eq!(after.state, JobState::Done);
    let stats = service.stats();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.worker_deaths, 0);
}

#[test]
fn shutdown_cancels_pending_work_and_unblocks_waiters() {
    let service = single_worker();
    let running = service.submit(JobSpec::new(MARATHON_RECTIFIER));
    let queued = service.submit(JobSpec::new(RECTIFIER));
    service.shutdown();
    let queued_report = service.wait(queued).unwrap();
    assert_eq!(queued_report.state, JobState::Cancelled);
    let running_report = service.wait(running).unwrap();
    assert!(running_report.state.is_terminal());
    // Submissions after shutdown are rejected as cancelled.
    let late = service
        .wait(service.submit(JobSpec::new(RECTIFIER)))
        .unwrap();
    assert_eq!(late.state, JobState::Cancelled);
}

#[test]
fn status_reports_unknown_jobs_as_none() {
    let service = single_worker();
    let id = service.submit(JobSpec::new(RECTIFIER));
    service.wait(id);
    // An id this service never issued: another service's second one.
    let other = single_worker();
    other.submit(JobSpec::new(RECTIFIER));
    let foreign = other.submit(JobSpec::new(RECTIFIER));
    assert!(service.status(foreign).is_none());
    assert!(service.wait(foreign).is_none());
}
