//! Fault-tolerant simulation job service.
//!
//! The GA optimisation loop of the paper evaluates thousands of design
//! points, and a long optimisation run is only as robust as its weakest
//! evaluation: one non-convergent corner, one runaway transient or one
//! panicking model must not take the whole campaign down. This crate wraps
//! the [`harvester_mna`] analysis engine in a job service that makes those
//! failure modes boring:
//!
//! * **queue + worker pool** ([`service::SimulationService`]) — jobs are
//!   netlist text plus an execution envelope ([`job::JobSpec`]); workers
//!   own warm engines and evaluate attempts under panic isolation.
//! * **deadlines** — wall-clock deadlines fire the engine's cooperative
//!   [`CancelToken`](harvester_mna::cancel::CancelToken), finishing the job
//!   [`job::JobState::TimedOut`] with its trace-so-far.
//! * **retry with escalation** — failures classified retryable by the
//!   stable [`ErrorKind`](harvester_mna::ErrorKind) taxonomy are re-queued
//!   once, after a backoff; the retry runs with the aggressive
//!   [`RecoveryPolicy`](harvester_mna::transient::RecoveryPolicy) and a
//!   tightened budget. The full attempt history lands on the
//!   [`job::JobReport`].
//! * **panic isolation** — a panicking evaluation fails its job (payload
//!   captured) and costs one warm engine, never a worker thread;
//!   [`panic_inject::PanicInjector`] exists to prove it.
//! * **poison-proof design-point cache** ([`cache::CacheKey`]) — complete
//!   outcomes are cached content-addressed and identical concurrent
//!   submissions are single-flighted; failed, partial, cancelled and
//!   timed-out results are never cached.
//!
//! Callers submit, poll, cancel and wait on jobs through
//! [`service::SimulationService`] itself. See `docs/service.md` for the
//! lifecycle diagram, the retry/escalation matrix and the cache-key
//! derivation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod panic_inject;
pub mod service;

pub use cache::CacheKey;
pub use job::{AttemptFailure, AttemptRecord, JobId, JobReport, JobSpec, JobState};
pub use panic_inject::{silence_injected_panics, PanicInjector, PANIC_MARKER};
pub use service::{ServiceConfig, ServiceStats, SimulationService};
