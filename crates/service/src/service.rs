//! The in-process simulation job service: queue, worker pool, deadline
//! monitor, retry/escalation, panic isolation and the poison-proof
//! single-flight design-point cache.
//!
//! # Architecture
//!
//! One [`SimulationService`] owns a `Mutex`-guarded state machine (queue,
//! job table, cache) and three kinds of threads:
//!
//! * **workers** — each owns a long-lived, warm [`AnalysisEngine`] (its
//!   internal [`TransientWorkspace`](harvester_mna::transient::TransientWorkspace)
//!   is reused across jobs of the same shape). A worker claims the oldest
//!   ready queue entry, evaluates one attempt under
//!   [`std::panic::catch_unwind`], and feeds the result back into the
//!   state machine. A panicking evaluation discards only the engine — the
//!   worker thread survives and rebuilds a fresh one for the next job.
//! * **monitor** — wakes at the next pending wall-clock deadline, fires
//!   the running job's [`CancelToken`] (the engine notices at its next
//!   step/card boundary and returns the trace-so-far) or expires
//!   still-queued jobs directly.
//! * **callers** — submit, status, cancel and wait on the service's own
//!   methods.
//!
//! All mutex acquisitions recover from poisoning (`PoisonError::into_inner`):
//! the whole point of panic isolation is that one bad job must not wedge
//! the queue.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvester_mna::analysis::{Analysis, AnalysisEngine, AnalysisOutcome, AnalysisPlan};
use harvester_mna::cancel::CancelToken;
use harvester_mna::netlist;
use harvester_mna::transient::{RecoveryPolicy, SimulationBudget};
use harvester_mna::{ErrorKind, MnaError};
use harvester_numerics::fault::FaultInjector;

use crate::cache::CacheKey;
use crate::job::{AttemptFailure, AttemptRecord, JobId, JobReport, JobSpec, JobState};
use crate::panic_inject::PanicInjector;

/// Attempts a job gets: the first run plus one escalated retry. Only
/// retryable failures ([`ErrorKind::is_retryable`]) lead to the retry.
const MAX_ATTEMPTS: u32 = 2;

/// Tuning knobs of a [`SimulationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Wait before a job's retry, its second and last attempt.
    pub base_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            base_backoff: Duration::from_millis(10),
        }
    }
}

/// Monotonic counters describing everything the service has done.
/// Snapshot via [`SimulationService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs submitted (including cache hits and rejected netlists).
    pub submitted: u64,
    /// Attempts actually evaluated by a worker engine.
    pub evaluations: u64,
    /// Jobs finished [`JobState::Done`] (cache hits included).
    pub completed: u64,
    /// Jobs finished [`JobState::Partial`].
    pub partial: u64,
    /// Jobs finished [`JobState::Failed`].
    pub failed: u64,
    /// Jobs finished [`JobState::Cancelled`].
    pub cancelled: u64,
    /// Jobs finished [`JobState::TimedOut`].
    pub timed_out: u64,
    /// Retryable failures that were re-enqueued.
    pub retries: u64,
    /// Cacheable submissions answered from the cache or deduplicated onto
    /// an in-flight identical run.
    pub cache_hits: u64,
    /// Cacheable submissions that had to run.
    pub cache_misses: u64,
    /// Evaluation panics caught and converted into job failures.
    pub panics_caught: u64,
    /// Worker threads that died. The panic-isolation contract keeps this
    /// at zero; it is counted so tests and the soak can prove it.
    pub worker_deaths: u64,
}

/// One entry the cache holds per design point.
enum CacheEntry {
    /// A job is computing this point; identical submissions park behind it.
    InFlight {
        /// The job whose run will populate (or abandon) the entry.
        leader: JobId,
        /// Parked identical submissions, resolved when the leader finishes.
        followers: Vec<JobId>,
    },
    /// A complete outcome, shared bit-identically with every later hit.
    Ready(Arc<AnalysisOutcome>),
}

struct JobRecord {
    spec: JobSpec,
    key: Option<CacheKey>,
    state: JobState,
    attempts: Vec<AttemptRecord>,
    attempt: u32,
    outcome: Option<Arc<AnalysisOutcome>>,
    error: Option<String>,
    from_cache: bool,
    deadline_at: Option<Instant>,
    cancel: Option<CancelToken>,
    cancel_requested: bool,
    deadline_fired: bool,
}

struct QueueEntry {
    id: JobId,
    ready_at: Instant,
}

#[derive(Default)]
struct ServiceState {
    queue: Vec<QueueEntry>,
    jobs: HashMap<JobId, JobRecord>,
    cache: HashMap<CacheKey, CacheEntry>,
    stats: ServiceStats,
    shutdown: bool,
}

struct Shared {
    state: Mutex<ServiceState>,
    /// Workers wait here for ready queue entries.
    work: Condvar,
    /// The monitor waits here for the next deadline (or forever).
    tick: Condvar,
    /// Callers wait here for terminal states.
    done: Condvar,
    config: ServiceConfig,
    next_id: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Increments [`ServiceStats::worker_deaths`] if its worker thread unwinds
/// past the isolation boundary — the counter the soak test asserts is zero.
struct DeathWatch {
    shared: Arc<Shared>,
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.lock().stats.worker_deaths += 1;
        }
    }
}

/// The fault-tolerant simulation job service. See the
/// [module docs](self) for the architecture and `docs/service.md` for the
/// lifecycle and retry matrices.
pub struct SimulationService {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl SimulationService {
    /// Starts a service with the given configuration (workers and monitor
    /// spawn immediately).
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(ServiceState::default()),
            work: Condvar::new(),
            tick: Condvar::new(),
            done: Condvar::new(),
            config: config.clone(),
            next_id: AtomicU64::new(1),
        });
        let mut handles = Vec::new();
        for index in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sim-worker-{index}"))
                    .spawn(move || worker_loop(worker_shared))
                    .expect("spawning a worker thread"),
            );
        }
        let monitor_shared = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name("sim-monitor".into())
                .spawn(move || monitor_loop(monitor_shared))
                .expect("spawning the monitor thread"),
        );
        SimulationService {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Starts a service with the default configuration.
    pub fn start() -> Self {
        SimulationService::new(ServiceConfig::default())
    }

    /// Submits a job. The netlist is parsed immediately: a malformed
    /// netlist finishes [`JobState::Failed`] without consuming a worker,
    /// and the canonical re-print of a valid one becomes the job's cache
    /// identity (unless the spec carries injectors).
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let now = Instant::now();
        let parsed = netlist::build_with_plan(&spec.netlist);
        let canonical = match &parsed {
            Ok((circuit, plan)) if !spec.is_injected() => {
                netlist::print_with_plan(circuit, plan).ok()
            }
            _ => None,
        };
        let key = canonical
            .as_deref()
            .map(|text| CacheKey::of(text, &spec.budget));

        let mut st = self.shared.lock();
        st.stats.submitted += 1;
        let deadline_at = spec.deadline.map(|d| now + d);
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                key,
                state: JobState::Queued,
                attempts: Vec::new(),
                attempt: 0,
                outcome: None,
                error: None,
                from_cache: false,
                deadline_at,
                cancel: None,
                cancel_requested: false,
                deadline_fired: false,
            },
        );

        if st.shutdown {
            finish_job(&self.shared, &mut st, id, JobState::Cancelled, None, None);
            return id;
        }
        if let Err(e) = parsed {
            let error = MnaError::from(e);
            let record = st.jobs.get_mut(&id).expect("job just inserted");
            record.attempts.push(AttemptRecord {
                attempt: 1,
                escalated: false,
                failure: AttemptFailure::Error {
                    kind: error.kind(),
                    message: error.to_string(),
                },
                backoff: None,
            });
            let message = error.to_string();
            finish_job(
                &self.shared,
                &mut st,
                id,
                JobState::Failed,
                None,
                Some(message),
            );
            return id;
        }

        if let Some(key) = key {
            match st.cache.get_mut(&key) {
                Some(CacheEntry::Ready(outcome)) => {
                    let outcome = Arc::clone(outcome);
                    st.stats.cache_hits += 1;
                    let record = st.jobs.get_mut(&id).expect("job just inserted");
                    record.from_cache = true;
                    finish_job(
                        &self.shared,
                        &mut st,
                        id,
                        JobState::Done,
                        Some(outcome),
                        None,
                    );
                    return id;
                }
                Some(CacheEntry::InFlight { followers, .. }) => {
                    followers.push(id);
                    // Parked: resolved (or promoted to leader) when the
                    // in-flight run finishes — hit/miss is counted *then*,
                    // since a promoted follower ends up running for
                    // itself. Not in the worker queue.
                    return id;
                }
                None => {
                    st.cache.insert(
                        key,
                        CacheEntry::InFlight {
                            leader: id,
                            followers: Vec::new(),
                        },
                    );
                    st.stats.cache_misses += 1;
                }
            }
        }

        st.queue.push(QueueEntry { id, ready_at: now });
        self.shared.work.notify_one();
        if deadline_at.is_some() {
            self.shared.tick.notify_all();
        }
        id
    }

    /// Snapshot report for a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobReport> {
        let st = self.shared.lock();
        st.jobs.get(&id).map(|record| report_of(id, record))
    }

    /// Requests cancellation. A queued job finishes
    /// [`JobState::Cancelled`] immediately; a running job's
    /// [`CancelToken`] is fired and the job finishes at the engine's next
    /// cancellation point. Returns `false` for unknown or already-terminal
    /// jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.shared.lock();
        let Some(record) = st.jobs.get_mut(&id) else {
            return false;
        };
        match record.state {
            JobState::Queued => {
                record.cancel_requested = true;
                dequeue(&mut st, id);
                finish_job(&self.shared, &mut st, id, JobState::Cancelled, None, None);
                true
            }
            JobState::Running => {
                record.cancel_requested = true;
                if let Some(token) = &record.cancel {
                    token.cancel();
                }
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// report, or `None` for an unknown id.
    pub fn wait(&self, id: JobId) -> Option<JobReport> {
        let mut st = self.shared.lock();
        loop {
            let record = st.jobs.get(&id)?;
            if record.state.is_terminal() {
                return Some(report_of(id, record));
            }
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats
    }

    /// Stops accepting work, cancels every non-terminal job and wakes all
    /// threads and waiters. Idempotent; also called by `Drop`, which then
    /// joins the threads.
    pub fn shutdown(&self) {
        let mut st = self.shared.lock();
        if st.shutdown {
            return;
        }
        st.shutdown = true;
        let pending: Vec<JobId> = st
            .jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal())
            .map(|(&id, _)| id)
            .collect();
        for id in pending {
            let record = st.jobs.get_mut(&id).expect("id from the jobs map");
            match record.state {
                JobState::Queued => {
                    dequeue(&mut st, id);
                    finish_job(&self.shared, &mut st, id, JobState::Cancelled, None, None);
                }
                JobState::Running => {
                    if let Some(token) = &record.cancel {
                        token.cancel();
                    }
                }
                _ => {}
            }
        }
        drop(st);
        self.shared.work.notify_all();
        self.shared.tick.notify_all();
        self.shared.done.notify_all();
    }
}

impl Drop for SimulationService {
    fn drop(&mut self) {
        self.shutdown();
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for SimulationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SimulationService")
            .field("stats", &stats)
            .finish()
    }
}

/// Builds the caller-facing snapshot of a record.
fn report_of(id: JobId, record: &JobRecord) -> JobReport {
    JobReport {
        id,
        state: record.state,
        attempts: record.attempts.clone(),
        outcome: record.outcome.clone(),
        error: record.error.clone(),
        from_cache: record.from_cache,
    }
}

/// Removes a job's queue entry and any follower registration it holds.
fn dequeue(st: &mut ServiceState, id: JobId) {
    st.queue.retain(|entry| entry.id != id);
    let key = st.jobs.get(&id).and_then(|r| r.key);
    if let Some(key) = key {
        if let Some(CacheEntry::InFlight { leader, followers }) = st.cache.get_mut(&key) {
            if *leader != id {
                followers.retain(|&f| f != id);
            }
        }
    }
}

/// Moves a job into a terminal state: sets the report fields, bumps the
/// stats, resolves the job's cache entry (publish on `Done`, abandon and
/// promote a follower otherwise) and wakes the waiters.
fn finish_job(
    shared: &Shared,
    st: &mut ServiceState,
    id: JobId,
    state: JobState,
    outcome: Option<Arc<AnalysisOutcome>>,
    error: Option<String>,
) {
    debug_assert!(state.is_terminal());
    {
        let record = st.jobs.get_mut(&id).expect("finishing a known job");
        record.state = state;
        record.outcome = outcome.clone();
        record.error = error;
        record.cancel = None;
    }
    match state {
        JobState::Done => st.stats.completed += 1,
        JobState::Partial => st.stats.partial += 1,
        JobState::Failed => st.stats.failed += 1,
        JobState::Cancelled => st.stats.cancelled += 1,
        JobState::TimedOut => st.stats.timed_out += 1,
        JobState::Queued | JobState::Running => unreachable!("terminal states only"),
    }

    let key = st.jobs.get(&id).and_then(|r| r.key);
    if let Some(key) = key {
        let is_leader = matches!(st.cache.get(&key), Some(CacheEntry::InFlight { leader, .. }) if *leader == id);
        if is_leader {
            let Some(CacheEntry::InFlight { followers, .. }) = st.cache.remove(&key) else {
                unreachable!("checked to be an in-flight entry");
            };
            if state == JobState::Done {
                let outcome = outcome.expect("a Done job carries its outcome");
                st.cache
                    .insert(key, CacheEntry::Ready(Arc::clone(&outcome)));
                for follower in followers {
                    let record = st.jobs.get_mut(&follower).expect("registered follower");
                    record.from_cache = true;
                    st.stats.cache_hits += 1;
                    finish_job(
                        shared,
                        st,
                        follower,
                        JobState::Done,
                        Some(Arc::clone(&outcome)),
                        None,
                    );
                }
            } else if let Some((&new_leader, rest)) = followers.split_first() {
                st.stats.cache_misses += 1;
                // The design point stays uncached (poison-proofing): the
                // first parked duplicate re-runs it under its own spec.
                st.cache.insert(
                    key,
                    CacheEntry::InFlight {
                        leader: new_leader,
                        followers: rest.to_vec(),
                    },
                );
                st.queue.push(QueueEntry {
                    id: new_leader,
                    ready_at: Instant::now(),
                });
                shared.work.notify_one();
            }
        }
    }
    shared.done.notify_all();
}

/// The escalated retry plan: every `.tran` card gets the aggressive
/// recovery cascade; other cards are unchanged.
fn escalate_plan(plan: &AnalysisPlan) -> AnalysisPlan {
    let cards = plan
        .cards()
        .iter()
        .map(|card| match *card {
            Analysis::Tran(mut options) => {
                options.recovery = RecoveryPolicy::aggressive();
                Analysis::Tran(options)
            }
            other => other,
        })
        .collect();
    AnalysisPlan::from_cards(cards).expect("escalating a valid plan keeps it valid")
}

/// The tightened retry budget: every finite axis is halved (a retry that
/// needs *more* work than the first attempt is diverging, not recovering).
fn tightened(budget: SimulationBudget) -> SimulationBudget {
    let halve = |axis: Option<usize>| axis.map(|limit| (limit / 2).max(1));
    SimulationBudget {
        max_newton_iterations: halve(budget.max_newton_iterations),
        max_factorizations: halve(budget.max_factorizations),
        max_accepted_steps: halve(budget.max_accepted_steps),
    }
}

/// One attempt, run on the worker's warm engine. Returns the engine's
/// verdict together with the reclaimed fault injector (its counters have
/// advanced, so the next attempt continues — not replays — the schedule).
fn evaluate(
    engine: &mut AnalysisEngine,
    netlist_text: &str,
    escalated: bool,
    budget: SimulationBudget,
    cancel: CancelToken,
    fault: Option<FaultInjector>,
    panic_probe: Option<&PanicInjector>,
) -> (Result<AnalysisOutcome, MnaError>, Option<FaultInjector>) {
    if let Some(probe) = panic_probe {
        probe.consult();
    }
    let (circuit, plan) = match netlist::build_with_plan(netlist_text) {
        Ok(parsed) => parsed,
        Err(e) => return (Err(MnaError::from(e)), fault),
    };
    let plan = if escalated {
        escalate_plan(&plan)
    } else {
        plan
    };
    engine.install_cancel_token(cancel);
    if let Some(injector) = fault {
        engine.install_fault_injector(injector);
    }
    let result = engine.run_budgeted(&circuit, &plan, budget);
    let fault = engine.take_fault_injector();
    engine.take_cancel_token();
    (result, fault)
}

fn worker_loop(shared: Arc<Shared>) {
    let _death_watch = DeathWatch {
        shared: Arc::clone(&shared),
    };
    // The warm engine, reused across jobs; dropped (and rebuilt) after a
    // panic because the interrupted evaluation may have left it
    // inconsistent.
    let mut engine: Option<AnalysisEngine> = None;

    let mut st = shared.lock();
    loop {
        // Claim the oldest ready entry, or sleep until one ripens.
        let id = loop {
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            if let Some(pos) = st.queue.iter().position(|e| e.ready_at <= now) {
                break st.queue.remove(pos).id;
            }
            let next_ready = st.queue.iter().map(|e| e.ready_at).min();
            st = match next_ready {
                Some(at) => {
                    shared
                        .work
                        .wait_timeout(st, at.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared.work.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        };

        let now = Instant::now();
        let record = st.jobs.get_mut(&id).expect("queued jobs stay in the table");
        if record.deadline_at.is_some_and(|deadline| deadline <= now) {
            finish_job(&shared, &mut st, id, JobState::TimedOut, None, None);
            continue;
        }
        record.state = JobState::Running;
        record.attempt += 1;
        let attempt = record.attempt;
        let escalated = attempt >= 2;
        let cancel = CancelToken::new();
        record.cancel = Some(cancel.clone());
        let netlist_text = record.spec.netlist.clone();
        let mut budget = record.spec.budget;
        if escalated {
            budget = tightened(budget);
        }
        let fault = record.spec.fault.take();
        let panic_probe = record.spec.panic.clone();
        st.stats.evaluations += 1;
        drop(st);

        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let warm = engine.get_or_insert_with(AnalysisEngine::new);
            evaluate(
                warm,
                &netlist_text,
                escalated,
                budget,
                cancel,
                fault,
                panic_probe.as_ref(),
            )
        }));

        st = shared.lock();
        match verdict {
            Err(payload) => {
                engine = None;
                st.stats.panics_caught += 1;
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let record = st
                    .jobs
                    .get_mut(&id)
                    .expect("running jobs stay in the table");
                record.attempts.push(AttemptRecord {
                    attempt,
                    escalated,
                    failure: AttemptFailure::Panic {
                        payload: message.clone(),
                    },
                    backoff: None,
                });
                finish_job(
                    &shared,
                    &mut st,
                    id,
                    JobState::Failed,
                    None,
                    Some(format!("attempt {attempt} panicked: {message}")),
                );
            }
            Ok((Ok(outcome), fault)) => {
                let outcome = Arc::new(outcome);
                let record = st
                    .jobs
                    .get_mut(&id)
                    .expect("running jobs stay in the table");
                record.spec.fault = fault;
                let state = if outcome.cancelled() {
                    if record.cancel_requested {
                        JobState::Cancelled
                    } else if record.deadline_fired {
                        JobState::TimedOut
                    } else {
                        JobState::Cancelled
                    }
                } else if outcome.is_complete() {
                    JobState::Done
                } else {
                    JobState::Partial
                };
                finish_job(&shared, &mut st, id, state, Some(outcome), None);
            }
            Ok((Err(error), fault)) => {
                let kind = error.kind();
                let record = st
                    .jobs
                    .get_mut(&id)
                    .expect("running jobs stay in the table");
                record.spec.fault = fault;
                let retry = kind.is_retryable()
                    && attempt < MAX_ATTEMPTS
                    && !record.cancel_requested
                    && !record.deadline_fired;
                let backoff = retry.then_some(shared.config.base_backoff);
                record.attempts.push(AttemptRecord {
                    attempt,
                    escalated,
                    failure: AttemptFailure::Error {
                        kind,
                        message: error.to_string(),
                    },
                    backoff,
                });
                if let Some(backoff) = backoff {
                    record.state = JobState::Queued;
                    record.cancel = None;
                    st.stats.retries += 1;
                    st.queue.push(QueueEntry {
                        id,
                        ready_at: Instant::now() + backoff,
                    });
                    shared.work.notify_one();
                } else if kind == ErrorKind::Cancelled {
                    let state = if record.deadline_fired && !record.cancel_requested {
                        JobState::TimedOut
                    } else {
                        JobState::Cancelled
                    };
                    finish_job(&shared, &mut st, id, state, None, None);
                } else {
                    let message = error.to_string();
                    finish_job(&shared, &mut st, id, JobState::Failed, None, Some(message));
                }
            }
        }
    }
}

fn monitor_loop(shared: Arc<Shared>) {
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let mut expired: Vec<JobId> = Vec::new();
        for (&id, record) in &st.jobs {
            if record.state.is_terminal() {
                continue;
            }
            match record.deadline_at {
                Some(at) if at <= now => expired.push(id),
                Some(at) => {
                    next_deadline = Some(next_deadline.map_or(at, |n| n.min(at)));
                }
                None => {}
            }
        }
        for id in expired {
            let record = st.jobs.get_mut(&id).expect("id from the jobs map");
            match record.state {
                // Cooperative: the engine notices at its next step/card
                // boundary; the worker maps the cancelled outcome to
                // TimedOut via this flag.
                JobState::Running if !record.deadline_fired => {
                    record.deadline_fired = true;
                    if let Some(token) = &record.cancel {
                        token.cancel();
                    }
                }
                JobState::Queued => {
                    dequeue(&mut st, id);
                    finish_job(&shared, &mut st, id, JobState::TimedOut, None, None);
                }
                _ => {}
            }
        }
        st = match next_deadline {
            Some(at) => {
                shared
                    .tick
                    .wait_timeout(st, at.saturating_duration_since(Instant::now()))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared.tick.wait(st).unwrap_or_else(PoisonError::into_inner),
        };
    }
}
