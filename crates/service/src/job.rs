//! Job specifications, lifecycle states, attempt histories and reports.
//!
//! A [`JobSpec`] carries the netlist *text* (circuit plus analysis cards)
//! rather than a built [`Circuit`](harvester_mna::circuit::Circuit): text is
//! trivially `Send`, every worker parses it into a private circuit, and the
//! canonical re-print of the parsed form doubles as the content-addressed
//! cache identity (see [`crate::cache`]).

use std::sync::Arc;
use std::time::Duration;

use harvester_mna::analysis::AnalysisOutcome;
use harvester_mna::transient::SimulationBudget;
use harvester_mna::ErrorKind;
use harvester_numerics::fault::FaultInjector;

use crate::panic_inject::PanicInjector;

/// Opaque identifier of a submitted job, unique within one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A simulation job: netlist text plus its execution envelope (budget,
/// wall-clock deadline and the test-only fault hooks).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Netlist source, including `.op`/`.tran`/`.pss`/`.ac` analysis cards.
    /// Parsed by [`harvester_mna::netlist::build_with_plan`] at submission
    /// (for validation and cache identity) and again by the worker that
    /// runs each attempt.
    pub netlist: String,
    /// Work budget for the whole plan.
    pub budget: SimulationBudget,
    /// Wall-clock deadline measured from submission, or `None` for no
    /// deadline. A job past its deadline finishes
    /// [`JobState::TimedOut`] — immediately when still queued, at the next
    /// cancellation point when running.
    pub deadline: Option<Duration>,
    /// Solver-layer fault injector threaded into the worker's engine for
    /// this job (testing). Occurrence counters persist across retry
    /// attempts, so a fault armed for its first occurrence fires once and
    /// the retry runs clean. A job with an injector is never cached or
    /// deduplicated.
    pub fault: Option<FaultInjector>,
    /// Panic injector consulted once at the start of every attempt
    /// (testing). A job with an injector is never cached or deduplicated.
    pub panic: Option<PanicInjector>,
}

impl JobSpec {
    /// A job for `netlist` with an unlimited budget and no deadline.
    pub fn new(netlist: impl Into<String>) -> Self {
        JobSpec {
            netlist: netlist.into(),
            budget: SimulationBudget::UNLIMITED,
            deadline: None,
            fault: None,
            panic: None,
        }
    }

    /// `true` when the job carries a test-only injector and must bypass
    /// the design-point cache (its result is not a pure function of the
    /// netlist and budget).
    pub(crate) fn is_injected(&self) -> bool {
        self.fault.is_some() || self.panic.is_some()
    }
}

/// Lifecycle state of a job.
///
/// ```text
/// Queued ──► Running ──► Done        (complete outcome; cacheable)
///    │          ├──────► Partial     (budget-truncated outcome)
///    │          ├──────► Failed      (permanent error, retries exhausted, or panic)
///    │          ├──────► Cancelled   (caller fired the cancel token)
///    │          ├──────► TimedOut    (deadline fired the cancel token)
///    │          └──────► Queued      (retryable error, attempts left: backoff + escalate)
///    ├─────────────────► Cancelled   (cancelled while queued)
///    └─────────────────► TimedOut    (deadline passed while queued)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Waiting for a worker (first run, a backoff retry, or parked behind
    /// an identical in-flight job).
    Queued,
    /// A worker is evaluating an attempt.
    Running,
    /// The plan ran to completion.
    Done,
    /// The plan was budget-truncated; the report holds the partial
    /// outcome. Never cached.
    Partial,
    /// A permanent error, exhausted retries, or a panic. Never cached.
    Failed,
    /// Cancelled by the caller. Never cached.
    Cancelled,
    /// The wall-clock deadline expired. Never cached.
    TimedOut,
}

impl JobState {
    /// `true` for the five states a job can never leave.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Partial => "partial",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
        };
        f.write_str(name)
    }
}

/// What ended a failed attempt.
#[derive(Debug, Clone)]
pub enum AttemptFailure {
    /// The engine returned an error; `kind` drives the retry decision.
    Error {
        /// Stable classification of the root cause.
        kind: ErrorKind,
        /// Rendered error message (the full context chain).
        message: String,
    },
    /// The evaluation panicked; always permanent.
    Panic {
        /// The panic payload, if it was a string (the usual case).
        payload: String,
    },
}

/// One failed attempt in a job's history. Attempts that succeed (any
/// outcome, even truncated) do not append a record — the outcome itself is
/// the evidence.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// `true` when this attempt already ran with the escalated recovery
    /// policy and tightened budget (attempt 2 onwards).
    pub escalated: bool,
    /// What ended the attempt.
    pub failure: AttemptFailure,
    /// Backoff applied before the *next* attempt, or `None` when this
    /// failure was final.
    pub backoff: Option<Duration>,
}

/// Snapshot report of a job: state, full attempt history, and — for jobs
/// that produced one — the analysis outcome.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's identifier.
    pub id: JobId,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Every failed attempt, in order. Empty for first-try successes.
    pub attempts: Vec<AttemptRecord>,
    /// The analysis outcome: complete for [`JobState::Done`], partial for
    /// [`JobState::Partial`], the trace-so-far for cancelled/timed-out
    /// transient runs, `None` otherwise. Shared (`Arc`) so cache hits are
    /// bit-identical to the run that populated them.
    pub outcome: Option<Arc<AnalysisOutcome>>,
    /// Rendered final error for [`JobState::Failed`].
    pub error: Option<String>,
    /// `true` when the outcome came from the design-point cache (including
    /// single-flight deduplication) instead of a dedicated run.
    pub from_cache: bool,
}
