//! The transient (time-domain) analysis engine.
//!
//! One global nonlinear system is assembled per time step from the device
//! stamps and solved with damped Newton iteration; dynamic elements are
//! discretised with backward-Euler or trapezoidal companion models through
//! [`StampContext::ddt`](crate::device::StampContext::ddt). On Newton
//! failure the step is halved and retried, then grown back towards the
//! nominal step after successful steps — the same recovery strategy analogue
//! HDL simulators use.
//!
//! # Solver backends
//!
//! The linear solves inside the Newton loop run on one of two backends
//! (selected by [`TransientOptions::backend`]):
//!
//! * [`SolverBackend::Dense`] — dense LU with partial pivoting. Fastest for
//!   the small systems (tens of unknowns) a single harvester produces.
//! * [`SolverBackend::Sparse`] — CSR assembly into the fixed MNA sparsity
//!   pattern declared by [`Device::stamp_pattern`](crate::device::Device::stamp_pattern), factored with a sparse LU
//!   whose symbolic analysis (pivot order, fill pattern, scatter map) is
//!   computed **once per circuit** and reused across every Newton iteration
//!   and time step.
//! * [`SolverBackend::Auto`] (the default) picks dense below
//!   [`SolverBackend::AUTO_SPARSE_THRESHOLD`] unknowns and sparse above it.
//!
//! All per-run buffers — the system matrix, RHS, Newton update, candidate
//! solution, history — live in a [`TransientWorkspace`] that is allocated
//! once per run (or once per *sweep*, via
//! [`TransientAnalysis::run_with`]) and reused across all steps.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, NodeId};
use crate::device::{JacobianView, PatternContext, StampContext};
use crate::error::{ConvergenceReport, RecoveryStrategy};
use crate::MnaError;
use harvester_numerics::extrap::{divided_differences, extrapolate_rows, newton_eval};
use harvester_numerics::fault::{Fault, FaultInjector};
use harvester_numerics::linalg::{norm_inf, LuFactors, Matrix};
use harvester_numerics::sparse::{SparseLu, SparseMatrix, TripletMatrix};
use std::collections::HashMap;

/// Numerical integration method used for time discretisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable backward Euler. Very robust, slightly lossy.
    BackwardEuler,
    /// Second-order, A-stable trapezoidal rule. More accurate for the lightly
    /// damped mechanical resonance of the micro-generator.
    #[default]
    Trapezoidal,
}

/// Which linear-algebra engine solves the Newton systems of a transient
/// analysis.
///
/// The MNA Jacobian of a circuit has a **fixed sparsity pattern**: every
/// Newton iteration stamps the same positions, only the values change. The
/// sparse backend exploits this by computing the symbolic factorisation
/// (pivot order + fill pattern) once per circuit and then refactoring
/// numerically in `O(nnz)` per iteration, while the dense backend redoes an
/// `O(n³)` factorisation each time — unbeatable for small `n`, hopeless for
/// large `n`.
///
/// # Example
///
/// ```
/// use harvester_mna::transient::SolverBackend;
///
/// // Auto resolves by system size; explicit choices resolve to themselves.
/// assert_eq!(SolverBackend::Auto.resolve(8), SolverBackend::Dense);
/// assert_eq!(SolverBackend::Auto.resolve(100), SolverBackend::Sparse);
/// assert_eq!(SolverBackend::Sparse.resolve(2), SolverBackend::Sparse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Choose by system size: dense up to
    /// [`SolverBackend::AUTO_SPARSE_THRESHOLD`] unknowns, sparse above.
    #[default]
    Auto,
    /// Always use the dense LU solver.
    Dense,
    /// Always use the pattern-reusing sparse LU solver.
    Sparse,
}

impl SolverBackend {
    /// Largest system the [`SolverBackend::Auto`] policy still solves
    /// densely. At and below this size the dense factorisation's perfect
    /// cache behaviour beats the sparse bookkeeping; above it the `O(n³)`
    /// dense cost takes over.
    pub const AUTO_SPARSE_THRESHOLD: usize = 24;

    /// Resolves the backend for a system of `unknowns` unknowns, mapping
    /// [`SolverBackend::Auto`] to a concrete choice.
    pub fn resolve(self, unknowns: usize) -> SolverBackend {
        match self {
            SolverBackend::Auto => {
                if unknowns > Self::AUTO_SPARSE_THRESHOLD {
                    SolverBackend::Sparse
                } else {
                    SolverBackend::Dense
                }
            }
            other => other,
        }
    }
}

/// Time-step control policy of a transient analysis.
///
/// # Fixed stepping
///
/// [`StepControl::Fixed`] (the default) marches at the nominal
/// [`TransientOptions::dt`], halving only when Newton fails to converge and
/// growing back towards — never past — the nominal step. This is the
/// pre-adaptive behaviour, kept bit-identical for reproducibility — with
/// one deliberate repair: the final accepted state is now always recorded,
/// where an accumulated-rounding corner case could previously omit the last
/// sample under `record_interval` (every recorded sample is unchanged; a
/// trace may gain that one trailing sample). Workloads that require a
/// uniform sample grid by construction (e.g. THD analysis over an FFT-style
/// window) should stay on fixed stepping.
///
/// # Adaptive stepping
///
/// [`StepControl::Adaptive`] turns on SPICE-style local-truncation-error
/// (LTE) control:
///
/// * a divided-difference polynomial predictor over the last two or three
///   accepted states warm-starts each Newton solve (fewer iterations per
///   step) and yields a per-unknown predictor–corrector LTE estimate;
/// * the weighted LTE norm
///   `max_i |x_i − pred_i|·c / (reltol·|x_i| + abstol)` steers acceptance
///   with a deadband: up to ~1 the step is on target, a marginal overshoot
///   (up to ~3×) is still accepted and only shrinks the *next* step, and a
///   clear miss is rejected and retried smaller
///   ([`RunStatistics::lte_rejections`]) — though at most once per step and
///   never below a floor of `dt/10`, because across state-event corners
///   (diode commutation) the estimate does not improve with h and the small
///   step is accepted as the best available resolution of the corner;
/// * the step size then grows or shrinks with the classic
///   `err^(−1/(order+1))` controller between [`TransientOptions::min_dt`]
///   and `max_dt` — in particular it grows **past** the nominal `dt` on
///   smooth stretches, which is where the speed-up comes from;
/// * accepted steps land exactly on every source breakpoint
///   ([`crate::waveform::Waveform::breakpoints`]) so discontinuities are
///   resolved by construction instead of by rejection cascades.
///
/// Output semantics are preserved: with
/// [`TransientOptions::record_interval`] set, samples are produced on the
/// exact uniform grid `k·interval` by dense interpolation between accepted
/// steps (plus the final point), so downstream averaging over the recorded
/// samples keeps its meaning even though the internal steps are non-uniform.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// March at the nominal `dt`; halve only on Newton failure (the
    /// pre-adaptive engine, bit-compatible with earlier releases).
    #[default]
    Fixed,
    /// Predictor–corrector LTE-controlled stepping between
    /// [`TransientOptions::min_dt`] and `max_dt`.
    Adaptive {
        /// Relative LTE tolerance per unknown (dimensionless, > 0). The
        /// engine-recommended default is [`StepControl::DEFAULT_RELTOL`].
        reltol: f64,
        /// Absolute LTE floor per unknown (> 0), in the unknown's own unit
        /// (volts, amperes, metres, …). Protects unknowns sitting near zero
        /// from an impossible pure-relative criterion.
        abstol: f64,
        /// Largest step the controller may grow to (≥ `dt`;
        /// `f64::INFINITY` leaves growth bounded only by the LTE controller
        /// and the breakpoint/stop-time geometry).
        max_dt: f64,
    },
}

impl StepControl {
    /// Default relative LTE tolerance of [`StepControl::adaptive`].
    pub const DEFAULT_RELTOL: f64 = 1e-3;
    /// Default absolute LTE floor of [`StepControl::adaptive`].
    pub const DEFAULT_ABSTOL: f64 = 1e-6;
    /// Relative LTE tolerance of [`StepControl::adaptive_averaging`].
    pub const AVERAGING_RELTOL: f64 = 3e-2;
    /// Absolute LTE floor of [`StepControl::adaptive_averaging`].
    pub const AVERAGING_ABSTOL: f64 = 1e-5;

    /// Adaptive control at the engine-recommended tolerances with no
    /// explicit step cap (the LTE controller and circuit breakpoints bound
    /// the step instead).
    pub fn adaptive() -> Self {
        StepControl::Adaptive {
            reltol: Self::DEFAULT_RELTOL,
            abstol: Self::DEFAULT_ABSTOL,
            max_dt: f64::INFINITY,
        }
    }

    /// Adaptive control at the engine-recommended tolerances with an
    /// explicit largest step.
    pub fn adaptive_capped(max_dt: f64) -> Self {
        StepControl::Adaptive {
            reltol: Self::DEFAULT_RELTOL,
            abstol: Self::DEFAULT_ABSTOL,
            max_dt,
        }
    }

    /// Adaptive control tuned for **cycle-averaged measurements** (the
    /// envelope simulator's charging-current characteristic, fitness
    /// evaluations): `reltol` [`StepControl::AVERAGING_RELTOL`], `abstol`
    /// [`StepControl::AVERAGING_ABSTOL`], no step cap.
    ///
    /// A cycle average integrates over many steps, so phase-type pointwise
    /// trace errors largely cancel; tolerances 30× looser than
    /// [`StepControl::adaptive`] still reproduce the measured average
    /// currents of the paper fixtures to well under a microampere while
    /// roughly tripling the step sizes on smooth stretches. Do **not** use
    /// this preset when the pointwise waveform itself is the deliverable.
    pub fn adaptive_averaging() -> Self {
        StepControl::Adaptive {
            reltol: Self::AVERAGING_RELTOL,
            abstol: Self::AVERAGING_ABSTOL,
            max_dt: f64::INFINITY,
        }
    }

    /// `true` for any [`StepControl::Adaptive`] policy.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StepControl::Adaptive { .. })
    }
}

/// Convergence-recovery escalation policy of a transient analysis.
///
/// When Newton fails at the minimum step the engine normally gives up with
/// [`MnaError::StepFailed`]. A recovery policy escalates instead, through a
/// cascade borrowed from the operating-point homotopy machinery:
///
/// 1. **gmin ramp** ([`RecoveryPolicy::gmin_ramp`]) — re-solve the failing
///    step with a shunt conductance `gmin` on every node diagonal, ramping
///    it from [`RecoveryPolicy::gmin_start`] down to zero over
///    [`RecoveryPolicy::gmin_stages`] stages; each stage's solution seeds
///    the next, and only the final `gmin = 0` solution (an exact solution
///    of the unmodified system) is ever committed.
/// 2. **junction limiting** ([`RecoveryPolicy::junction_limit`]) — re-solve
///    the failing step with SPICE-style junction-voltage limiting in the
///    junction-device stamps (see
///    [`StampContext::junction_limit`](crate::device::StampContext::junction_limit)):
///    junction voltages beyond the limit are evaluated at the limit and
///    linearised, which bounds the exponential currents during wild Newton
///    excursions. A converged solution is accepted only if the *unlimited*
///    residual balances, so the committed trace is never an artifact of the
///    limiting.
/// 3. **structured reporting** ([`RecoveryPolicy::detailed_report`]) — if
///    nothing recovers the step, fail with
///    [`MnaError::Convergence`] carrying a [`ConvergenceReport`] (failing
///    time, attempted `dt` trajectory, worst-residual unknowns mapped back
///    to netlist node/device names, strategies attempted) instead of the
///    bare [`MnaError::StepFailed`].
///
/// The default policy is **fully disabled**: default-policy runs take
/// exactly the code path (and produce bit-identical traces to) earlier
/// releases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Enable the transient gmin-ramp recovery leg.
    pub gmin_ramp: bool,
    /// Initial shunt conductance (siemens) of the gmin ramp.
    pub gmin_start: f64,
    /// Number of shrinking gmin stages (each divides `gmin` by 10) before
    /// the final exact `gmin = 0` solve.
    pub gmin_stages: usize,
    /// Junction-voltage limit in volts for the junction-limiting leg, or
    /// `None` to disable it. Any limit at or above the usual forward drop
    /// (≈ 0.8 V covers every silicon junction in the fixture set) is
    /// solution-exact: the converged junction voltages sit inside the limit,
    /// where the limited and unlimited models are identical.
    pub junction_limit: Option<f64>,
    /// Fail with a structured [`ConvergenceReport`] instead of the bare
    /// [`MnaError::StepFailed`] when the whole cascade is exhausted.
    pub detailed_report: bool,
}

impl RecoveryPolicy {
    /// Default starting shunt conductance of the gmin ramp (matches the
    /// operating-point homotopy's [`crate::analysis::GMIN_START`]).
    pub const DEFAULT_GMIN_START: f64 = 1e-2;
    /// Default number of gmin ramp stages.
    pub const DEFAULT_GMIN_STAGES: usize = 10;
    /// Default junction-voltage limit of [`RecoveryPolicy::aggressive`].
    pub const DEFAULT_JUNCTION_LIMIT: f64 = 0.8;

    /// The fully disabled policy (the default): bare `StepFailed` on
    /// exhausted step halving, bit-identical to earlier releases.
    pub fn none() -> Self {
        RecoveryPolicy {
            gmin_ramp: false,
            gmin_start: Self::DEFAULT_GMIN_START,
            gmin_stages: Self::DEFAULT_GMIN_STAGES,
            junction_limit: None,
            detailed_report: false,
        }
    }

    /// Every recovery leg enabled at the engine-recommended settings, with
    /// structured failure reports.
    pub fn aggressive() -> Self {
        RecoveryPolicy {
            gmin_ramp: true,
            gmin_start: Self::DEFAULT_GMIN_START,
            gmin_stages: Self::DEFAULT_GMIN_STAGES,
            junction_limit: Some(Self::DEFAULT_JUNCTION_LIMIT),
            detailed_report: true,
        }
    }

    /// `true` when any part of the policy changes the failure path (a
    /// recovery leg or the structured report).
    pub fn is_enabled(&self) -> bool {
        self.gmin_ramp || self.junction_limit.is_some() || self.detailed_report
    }

    fn validate(&self) -> Result<(), MnaError> {
        if self.gmin_ramp {
            crate::options::positive_finite("recovery gmin_start", self.gmin_start)?;
            crate::options::at_least("recovery gmin_stages", self.gmin_stages, 1)?;
        }
        if let Some(limit) = self.junction_limit {
            crate::options::positive_finite("recovery junction_limit", limit)?;
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A hard ceiling on the work one analysis run (one analysis-plan card) may
/// perform. The default is [`SimulationBudget::UNLIMITED`].
///
/// The marching loops check the budget between steps: a run that reaches a
/// limit stops marching, keeps everything recorded so far and returns a
/// result flagged [`TransientResult::truncated`] instead of running
/// unbounded (a limit can be overshot by at most the work of the step in
/// flight). [`AnalysisEngine::run_budgeted`](crate::analysis::AnalysisEngine::run_budgeted)
/// additionally enforces a budget across a whole plan at card boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimulationBudget {
    /// Largest total Newton iteration count, or `None` for no limit.
    pub max_newton_iterations: Option<usize>,
    /// Largest total factorisation count (full + repivot), or `None`.
    pub max_factorizations: Option<usize>,
    /// Largest accepted-step count, or `None`.
    pub max_accepted_steps: Option<usize>,
}

impl SimulationBudget {
    /// No limits at all — the default, and the behaviour of earlier
    /// releases.
    pub const UNLIMITED: SimulationBudget = SimulationBudget {
        max_newton_iterations: None,
        max_factorizations: None,
        max_accepted_steps: None,
    };

    /// `true` when no limit is set (budget checks short-circuit away).
    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }

    /// The first limit `stats` has reached, as a human-readable label, or
    /// `None` while the run is still within budget.
    pub fn exhausted_by(&self, stats: &RunStatistics) -> Option<&'static str> {
        if self
            .max_newton_iterations
            .is_some_and(|m| stats.newton_iterations >= m)
        {
            return Some("newton iterations");
        }
        if self
            .max_factorizations
            .is_some_and(|m| stats.full_factorizations + stats.repivot_factorizations >= m)
        {
            return Some("factorizations");
        }
        if self
            .max_accepted_steps
            .is_some_and(|m| stats.accepted_steps >= m)
        {
            return Some("accepted steps");
        }
        None
    }

    /// The budget left over once the work in `stats` has been spent
    /// (saturating at zero per axis): the card-boundary arithmetic of
    /// [`AnalysisEngine::run_budgeted`](crate::analysis::AnalysisEngine::run_budgeted).
    pub fn remaining_after(&self, stats: &RunStatistics) -> SimulationBudget {
        SimulationBudget {
            max_newton_iterations: self
                .max_newton_iterations
                .map(|m| m.saturating_sub(stats.newton_iterations)),
            max_factorizations: self.max_factorizations.map(|m| {
                m.saturating_sub(stats.full_factorizations + stats.repivot_factorizations)
            }),
            max_accepted_steps: self
                .max_accepted_steps
                .map(|m| m.saturating_sub(stats.accepted_steps)),
        }
    }

    /// Elementwise minimum of two budgets (a plan-level budget combined with
    /// a card's own).
    pub fn min(&self, other: &SimulationBudget) -> SimulationBudget {
        fn tighter(a: Option<usize>, b: Option<usize>) -> Option<usize> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            }
        }
        SimulationBudget {
            max_newton_iterations: tighter(self.max_newton_iterations, other.max_newton_iterations),
            max_factorizations: tighter(self.max_factorizations, other.max_factorizations),
            max_accepted_steps: tighter(self.max_accepted_steps, other.max_accepted_steps),
        }
    }
}

/// Options controlling a transient analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Stop time in seconds.
    pub t_stop: f64,
    /// Nominal time step in seconds.
    pub dt: f64,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Maximum Newton iterations per step.
    pub max_newton_iterations: usize,
    /// Convergence tolerance on the Newton update (infinity norm).
    pub delta_tolerance: f64,
    /// Convergence tolerance on the residual (infinity norm); used as a
    /// secondary acceptance criterion.
    pub residual_tolerance: f64,
    /// Smallest step the automatic step-halving recovery may use; the
    /// analysis fails with [`MnaError::StepFailed`] below this.
    pub min_dt: f64,
    /// Optional minimum spacing between recorded samples. `None` records
    /// every accepted step; for long runs a coarser recording interval keeps
    /// the result memory bounded.
    pub record_interval: Option<f64>,
    /// Linear-solver backend for the Newton systems.
    pub backend: SolverBackend,
    /// Time-step control policy: fixed nominal-`dt` marching (the default,
    /// bit-compatible with earlier releases) or LTE-controlled adaptive
    /// stepping ([`StepControl::Adaptive`]).
    pub step_control: StepControl,
    /// Modified-Newton Jacobian bypass (the default): reuse the factored
    /// Jacobian across Newton iterations — and across nearby accepted steps
    /// taken at (nearly) the same step size — refactoring only when the
    /// observed Newton contraction turns slow (a convergence-rate test) or
    /// the companion-model gains change. The Newton *fixed point* is
    /// unchanged (the residual is
    /// always exact), only the iteration path, so converged results agree to
    /// the Newton tolerances while
    /// [`RunStatistics::full_factorizations`] decouples from
    /// [`RunStatistics::newton_iterations`]. Set to `false` to refactor on
    /// every iteration (the classical full-Newton behaviour of earlier
    /// releases, bit-compatible with them).
    pub reuse_jacobian: bool,
    /// Convergence-recovery escalation once step halving is exhausted.
    /// Disabled by default ([`RecoveryPolicy::none`]), which keeps the
    /// failure path — and every successful trace — bit-identical to earlier
    /// releases.
    pub recovery: RecoveryPolicy,
    /// Hard work ceiling of this run. Unlimited by default
    /// ([`SimulationBudget::UNLIMITED`]); with limits set, the run stops at
    /// the boundary and returns a [`TransientResult::truncated`] partial
    /// trace instead of an error.
    pub budget: SimulationBudget,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            t_stop: 1e-3,
            dt: 1e-6,
            method: IntegrationMethod::Trapezoidal,
            max_newton_iterations: 60,
            delta_tolerance: 1e-9,
            residual_tolerance: 1e-6,
            min_dt: 1e-15,
            record_interval: None,
            backend: SolverBackend::Auto,
            step_control: StepControl::Fixed,
            reuse_jacobian: true,
            recovery: RecoveryPolicy::none(),
            budget: SimulationBudget::UNLIMITED,
        }
    }
}

impl TransientOptions {
    /// Checks the options for consistency — the shared checker (see
    /// [`crate::options`]) behind [`TransientAnalysis::run`], the analysis
    /// plan's `.tran` cards and every caller that embeds transient options
    /// (shooting, the envelope simulator).
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidOptions`] naming the offending option.
    pub fn validate(&self) -> Result<(), MnaError> {
        if self.dt <= 0.0 || self.t_stop <= 0.0 {
            return Err(crate::options::invalid(format!(
                "dt ({}) and t_stop ({}) must be positive",
                self.dt, self.t_stop
            )));
        }
        crate::options::finite("dt", self.dt)?;
        crate::options::finite("t_stop", self.t_stop)?;
        if self.min_dt <= 0.0 || self.min_dt > self.dt {
            return Err(crate::options::invalid(
                "min_dt must be positive and no larger than dt",
            ));
        }
        if let StepControl::Adaptive {
            reltol,
            abstol,
            max_dt,
        } = self.step_control
        {
            if reltol <= 0.0 || !reltol.is_finite() {
                return Err(crate::options::invalid(format!(
                    "adaptive reltol must be positive and finite, got {reltol}; typical values \
                     are 1e-2 (loose) to 1e-4 (tight), default {}",
                    StepControl::DEFAULT_RELTOL
                )));
            }
            if abstol <= 0.0 || !abstol.is_finite() {
                return Err(crate::options::invalid(format!(
                    "adaptive abstol must be positive and finite, got {abstol}; set it to the \
                     smallest signal level you care about (default {})",
                    StepControl::DEFAULT_ABSTOL
                )));
            }
            if max_dt < self.dt || max_dt.is_nan() {
                return Err(crate::options::invalid(format!(
                    "adaptive max_dt ({max_dt}) must be at least the nominal dt ({}); use \
                     f64::INFINITY to leave growth bounded by the error controller alone",
                    self.dt
                )));
            }
        }
        self.recovery.validate()?;
        Ok(())
    }
}

/// Counters describing the work a transient run performed; used by the
/// CPU-time experiments that reproduce the paper's "GA accounts for < 3 % of
/// the CPU time" breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStatistics {
    /// Accepted time steps.
    pub accepted_steps: usize,
    /// Steps rejected because **Newton failed to converge** (halved and
    /// retried). Steps that Newton solved but the LTE controller refused are
    /// counted separately in [`RunStatistics::lte_rejections`]; the two
    /// counters never overlap, so their sum is the total number of retried
    /// steps.
    pub rejected_steps: usize,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Total linear solves (back-substitutions against a factorisation):
    /// one per Newton iteration, plus the per-unknown (dense) or per-matvec
    /// (matrix-free) sensitivity solves of the shooting engine.
    pub linear_solves: usize,
    /// Numeric factorisations that rebuilt the factors wholesale: every
    /// dense LU (dense factors have no symbolic reuse) and, on the sparse
    /// backend, the first factorisation of a workspace (later ones reuse its
    /// pivot order and fill pattern via the O(nnz) refactorisation, which is
    /// counted nowhere — it is bookkeeping-free by design). Stale-pivot
    /// *recoveries* are counted separately in
    /// [`RunStatistics::repivot_factorizations`].
    ///
    /// # Counter contract
    ///
    /// With the modified-Newton Jacobian bypass
    /// ([`TransientOptions::reuse_jacobian`], the default) a factorisation
    /// happens only on the first iteration of an incompatible step or after
    /// a convergence-rate refactor, never once per iteration, so for a plain
    /// transient run
    ///
    /// ```text
    /// full_factorizations + repivot_factorizations ≤ newton_iterations
    /// ```
    ///
    /// holds on every backend (each factorisation is provoked by exactly one
    /// Newton iteration). Periodic-steady-state runs add **one factorisation
    /// per accepted in-period step** on top (the sensitivity chain factors
    /// the converged step Jacobian outside any Newton iteration), so the
    /// bound there is `newton_iterations + accepted_steps`.
    pub full_factorizations: usize,
    /// Sparse factorisations that had usable factors but whose stored pivot
    /// order went numerically stale, forcing a re-pivoting factorisation
    /// (the [`SparseLu::update`](harvester_numerics::sparse::SparseLu::update)
    /// recovery path). Split from
    /// [`RunStatistics::full_factorizations`] because the two mean different
    /// things in perf triage: a climbing cold-start count points at workspace
    /// reuse being defeated, a climbing re-pivot count at numerically
    /// volatile matrices. Always zero on the dense backend.
    pub repivot_factorizations: usize,
    /// Steps that converged in Newton but were rejected (and retried
    /// smaller) because the estimated local truncation error exceeded the
    /// [`StepControl::Adaptive`] tolerances. Always zero under
    /// [`StepControl::Fixed`]. See [`RunStatistics::rejected_steps`] for the
    /// Newton-failure counter this is split from.
    pub lte_rejections: usize,
    /// Accepted steps whose Newton iteration was warm-started from a
    /// polynomial predictor of order ≥ 1 (i.e. at least two accepted states
    /// of history were available). Always zero under [`StepControl::Fixed`].
    pub predicted_steps: usize,
    /// Shooting-Newton closure updates applied by the periodic steady-state
    /// engine ([`crate::shooting::SteadyStateAnalysis`]). Zero for plain
    /// transients.
    pub shooting_iterations: usize,
    /// Full excitation periods integrated in pursuit of a periodic steady
    /// state: warm-up plus one per shooting iteration for the PSS engine,
    /// and `settle + measure` cycles per measurement for brute-force
    /// envelope settling (accounted by the envelope simulator). This is the
    /// headline work metric of the shooting engine — the same cycle-averaged
    /// measurement at a fraction of the integrated cycles.
    pub integrated_cycles: usize,
    /// Shooting closure solves whose GMRES iteration stagnated or exhausted
    /// its matvec budget and fell back to forming the monodromy matrix (`n`
    /// banked-chain propagations) and solving by LU. A healthy damped
    /// circuit keeps this low; a climbing count says the closure spectrum
    /// is not clustering and the Krylov budget is mis-sized for the
    /// workload.
    pub gmres_fallbacks: usize,
    /// Envelope measurements that fell back from the shooting engine to
    /// brute-force settling because the orbit would not close (accounted by
    /// the envelope simulator). Each one trades a handful of integrated
    /// cycles for dozens.
    pub brute_force_fallbacks: usize,
    /// Operating-point homotopy escalations: +1 each time the Direct solve
    /// hands over to gmin stepping, and +1 again when gmin stepping hands
    /// over to source stepping. Zero for an operating point that converges
    /// directly.
    pub homotopy_escalations: usize,
    /// Failing transient steps rescued by the [`RecoveryPolicy`] cascade
    /// (gmin ramp or junction limiting) after step halving was exhausted.
    /// Always zero under the default (disabled) policy.
    pub recovery_retries: usize,
}

impl RunStatistics {
    /// Accumulates another run's counters into this one — used to aggregate
    /// the work of a multi-transient experiment (e.g. the envelope
    /// simulator's per-grid-voltage runs) into a single budget line.
    pub fn merge(&mut self, other: &RunStatistics) {
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.newton_iterations += other.newton_iterations;
        self.linear_solves += other.linear_solves;
        self.full_factorizations += other.full_factorizations;
        self.repivot_factorizations += other.repivot_factorizations;
        self.lte_rejections += other.lte_rejections;
        self.predicted_steps += other.predicted_steps;
        self.shooting_iterations += other.shooting_iterations;
        self.integrated_cycles += other.integrated_cycles;
        self.gmres_fallbacks += other.gmres_fallbacks;
        self.brute_force_fallbacks += other.brute_force_fallbacks;
        self.homotopy_escalations += other.homotopy_escalations;
        self.recovery_retries += other.recovery_retries;
    }
}

/// Static layout of a circuit's global system: which global index each
/// device's extra unknowns and state slots start at.
#[derive(Debug, Clone)]
pub(crate) struct SystemLayout {
    node_unknowns: usize,
    pub(crate) n: usize,
    pub(crate) total_states: usize,
    extra_bases: Vec<usize>,
    state_bases: Vec<usize>,
    pub(crate) probes: HashMap<String, (usize, Vec<String>)>,
}

impl SystemLayout {
    fn for_circuit(circuit: &Circuit) -> Result<Self, MnaError> {
        if circuit.device_count() == 0 {
            return Err(MnaError::InvalidNetlist(
                "circuit contains no devices".to_string(),
            ));
        }
        let node_unknowns = circuit.unknown_node_count();
        let mut extra_bases = Vec::with_capacity(circuit.device_count());
        let mut state_bases = Vec::with_capacity(circuit.device_count());
        let mut total_extras = 0usize;
        let mut total_states = 0usize;
        let mut probes: HashMap<String, (usize, Vec<String>)> = HashMap::new();
        for device in circuit.devices() {
            let extras = device.extra_unknowns();
            let states = device.state_count();
            extra_bases.push(node_unknowns + total_extras);
            state_bases.push(total_states);
            if extras > 0 {
                let names = device.unknown_names();
                if names.len() != extras {
                    return Err(MnaError::InvalidNetlist(format!(
                        "device '{}' declares {} extra unknowns but {} names",
                        device.name(),
                        extras,
                        names.len()
                    )));
                }
                probes.insert(
                    device.name().to_string(),
                    (node_unknowns + total_extras, names),
                );
            }
            total_extras += extras;
            total_states += states;
        }
        let n = node_unknowns + total_extras;
        if n == 0 {
            return Err(MnaError::InvalidNetlist(
                "circuit has no unknowns (only ground nodes?)".to_string(),
            ));
        }
        Ok(SystemLayout {
            node_unknowns,
            n,
            total_states,
            extra_bases,
            state_bases,
            probes,
        })
    }

    /// Human-readable name of global unknown `i`, for diagnostics: the
    /// netlist node name for the node-voltage block, `device.unknown` for a
    /// device's extra unknowns. `node_names` is
    /// [`Circuit::node_names`](crate::circuit::Circuit::node_names) (index 0
    /// being ground).
    pub(crate) fn unknown_name(&self, node_names: &[String], i: usize) -> String {
        if i < self.node_unknowns {
            return node_names
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| format!("node{}", i + 1));
        }
        for (device, (base, names)) in &self.probes {
            if i >= *base && i < base + names.len() {
                return format!("{device}.{}", names[i - base]);
            }
        }
        format!("x{i}")
    }
}

/// Backend-specific Jacobian storage plus its (lazily created, then reused)
/// factorisation.
#[derive(Debug)]
pub(crate) enum JacobianStorage {
    Dense {
        matrix: Matrix,
        factors: Option<LuFactors>,
    },
    Sparse {
        matrix: SparseMatrix,
        factors: Option<SparseLu>,
    },
}

impl JacobianStorage {
    pub(crate) fn fill_zero(&mut self) {
        match self {
            JacobianStorage::Dense { matrix, .. } => matrix.fill_zero(),
            JacobianStorage::Sparse { matrix, .. } => matrix.fill_zero(),
        }
    }

    /// Factors the currently assembled Jacobian into the cached factors,
    /// updating the factorisation counters. Returns `false` on a singular
    /// system.
    ///
    /// `fault` is the solver-layer injection hook: an armed
    /// [`Fault::SingularFactorization`] makes this call report failure
    /// without touching the factors, and on the sparse backend an armed
    /// [`Fault::StalePivot`] rejects the cheap pattern-reusing
    /// refactorisation as if the stored pivot order had gone numerically
    /// stale, forcing the re-pivoting recovery path.
    pub(crate) fn factor(
        &mut self,
        stats: &mut RunStatistics,
        mut fault: Option<&mut FaultInjector>,
    ) -> bool {
        if fault
            .as_deref_mut()
            .is_some_and(|f| f.should_fire(Fault::SingularFactorization))
        {
            return false;
        }
        match self {
            JacobianStorage::Dense { matrix, factors } => {
                let factored = match factors {
                    Some(f) => matrix.lu_into(f).is_ok(),
                    None => match matrix.lu() {
                        Ok(f) => {
                            *factors = Some(f);
                            true
                        }
                        Err(_) => false,
                    },
                };
                if factored {
                    stats.full_factorizations += 1;
                }
                factored
            }
            JacobianStorage::Sparse { matrix, factors } => match factors {
                Some(f) => {
                    // Cheap pattern-reusing refactorisation first; recover
                    // with a re-pivoting factorisation (what
                    // `SparseLu::update` performs after a failed refactor)
                    // if the stored pivot order went numerically stale.
                    let stale = fault.is_some_and(|inj| inj.should_fire(Fault::StalePivot));
                    (!stale && f.refactor(matrix).is_ok())
                        || match SparseLu::new(matrix) {
                            Ok(fresh) => {
                                stats.repivot_factorizations += 1;
                                *f = fresh;
                                true
                            }
                            Err(_) => false,
                        }
                }
                None => match SparseLu::new(matrix) {
                    Ok(f) => {
                        stats.full_factorizations += 1;
                        *factors = Some(f);
                        true
                    }
                    Err(_) => false,
                },
            },
        }
    }

    /// Adds `value` to the diagonal entry `(i, i)` of the assembled matrix —
    /// the gmin-homotopy hook (every unknown's diagonal is in the sparsity
    /// pattern: MNA node equations always carry a self-conductance slot, and
    /// extra-unknown rows stamp their own diagonal).
    pub(crate) fn add_diagonal(&mut self, i: usize, value: f64) {
        match self {
            JacobianStorage::Dense { matrix, .. } => matrix.add_at(i, i, value),
            JacobianStorage::Sparse { matrix, .. } => matrix.add_at(i, i, value),
        }
    }

    /// Solves against the already-computed factors (no refactorisation).
    /// Returns `false` if no factors are cached or the solve fails — the
    /// sensitivity-propagation hook of the shooting engine, which performs
    /// `n` back-substitutions per accepted step against one factorisation.
    pub(crate) fn solve_factored(&self, rhs: &[f64], delta: &mut Vec<f64>) -> bool {
        match self {
            JacobianStorage::Dense {
                factors: Some(f), ..
            } => f.solve_into(rhs, delta).is_ok(),
            JacobianStorage::Sparse {
                factors: Some(f), ..
            } => f.solve_into(rhs, delta).is_ok(),
            _ => false,
        }
    }

    /// Copies the cached factorisation into a caller-owned slot, reusing the
    /// slot's allocations when it already holds factors of the same shape —
    /// the capture primitive behind the matrix-free shooting engine, which
    /// banks one factorisation per accepted in-period step and replays them
    /// during the Krylov matvecs. Returns `false` when no factors are
    /// cached (i.e. [`JacobianStorage::factor`] has not succeeded yet).
    pub(crate) fn export_factors(&self, slot: &mut Option<CachedFactors>) -> bool {
        match self {
            JacobianStorage::Dense {
                factors: Some(f), ..
            } => {
                match slot {
                    Some(CachedFactors::Dense(cached)) => cached.clone_from(f),
                    _ => *slot = Some(CachedFactors::Dense(f.clone())),
                }
                true
            }
            JacobianStorage::Sparse {
                factors: Some(f), ..
            } => {
                match slot {
                    Some(CachedFactors::Sparse(cached)) => cached.clone_from(f),
                    _ => *slot = Some(CachedFactors::Sparse(f.clone())),
                }
                true
            }
            _ => false,
        }
    }

    /// Accumulates `alpha ×` the currently assembled Jacobian into a dense
    /// matrix — the extraction primitive behind the shooting engine's
    /// dynamic-stamp matrices (`W = 2h·J(h) − 2h·J(2h)`).
    pub(crate) fn accumulate_scaled(&self, alpha: f64, out: &mut Matrix) {
        match self {
            JacobianStorage::Dense { matrix, .. } => {
                for r in 0..matrix.rows() {
                    for c in 0..matrix.cols() {
                        let v = matrix[(r, c)];
                        if v != 0.0 {
                            out[(r, c)] += alpha * v;
                        }
                    }
                }
            }
            JacobianStorage::Sparse { matrix, .. } => {
                for (r, c, v) in matrix.entries() {
                    if v != 0.0 {
                        out[(r, c)] += alpha * v;
                    }
                }
            }
        }
    }
}

/// A factorisation detached from its [`JacobianStorage`]: the shooting
/// engine's per-step bank, solved against long after the workspace's live
/// matrix moved on to other assemblies.
#[derive(Debug, Clone)]
pub(crate) enum CachedFactors {
    Dense(LuFactors),
    Sparse(SparseLu),
}

impl CachedFactors {
    /// Back-substitutes `rhs` against the banked factorisation.
    pub(crate) fn solve_into(&self, rhs: &[f64], out: &mut Vec<f64>) -> bool {
        match self {
            CachedFactors::Dense(f) => f.solve_into(rhs, out).is_ok(),
            CachedFactors::Sparse(f) => f.solve_into(rhs, out).is_ok(),
        }
    }
}

/// All per-run buffers of a transient analysis: the system matrix (dense or
/// sparse, with its reusable factorisation), RHS, Newton update, candidate
/// solution, device states and the recorded history.
///
/// Allocated once per run by [`TransientAnalysis::run`]; for repeated
/// analyses of the same circuit (parameter sweeps, optimisation loops) build
/// it once and pass it to [`TransientAnalysis::run_with`] so the matrices —
/// and, on the sparse backend, the symbolic factorisation — are reused
/// across runs too.
///
/// # Example
///
/// ```
/// use harvester_mna::circuit::Circuit;
/// use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
/// use harvester_mna::transient::{TransientAnalysis, TransientOptions, TransientWorkspace};
/// use harvester_mna::waveform::Waveform;
///
/// # fn main() -> Result<(), harvester_mna::MnaError> {
/// let mut circuit = Circuit::new();
/// let vin = circuit.node("in");
/// let out = circuit.node("out");
/// circuit.add(VoltageSource::new("V", vin, Circuit::GROUND, Waveform::dc(1.0)));
/// circuit.add(Resistor::new("R", vin, out, 1e3));
/// circuit.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
///
/// let analysis = TransientAnalysis::new(TransientOptions {
///     t_stop: 1e-4,
///     ..TransientOptions::default()
/// });
/// let mut workspace = TransientWorkspace::for_circuit(&circuit, analysis.options())?;
/// let first = analysis.run_with(&circuit, &mut workspace)?;
/// let second = analysis.run_with(&circuit, &mut workspace)?; // no reallocation
/// assert_eq!(first.len(), second.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TransientWorkspace {
    pub(crate) layout: SystemLayout,
    backend: SolverBackend,
    pub(crate) jacobian: JacobianStorage,
    /// Step size the cached Jacobian factors were computed at — the
    /// modified-Newton bypass reuses them while the step size and companion
    /// gains stay compatible. `NaN` marks the factors bypass-ineligible
    /// (none computed yet, or deliberately invalidated).
    pub(crate) factored_h: f64,
    /// Whether the cached factors carry the start-up-step companion gains.
    pub(crate) factored_first: bool,
    pub(crate) residual: Vec<f64>,
    rhs: Vec<f64>,
    delta: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) candidate: Vec<f64>,
    pub(crate) states: Vec<f64>,
    pub(crate) new_states: Vec<f64>,
    pub(crate) times: Vec<f64>,
    pub(crate) history: Vec<f64>,
    /// Times of the predictor ring entries (oldest first, adaptive mode
    /// only; at most [`PREDICTOR_HISTORY`] entries).
    hist_times: Vec<f64>,
    /// Accepted solution snapshots matching `hist_times`, flat row-major.
    hist_states: Vec<f64>,
    /// Predictor output / dense-output interpolation scratch (one solution
    /// vector).
    predicted: Vec<f64>,
    /// Merged, sorted source breakpoints of the current run.
    breakpoints: Vec<f64>,
    /// Optional fault injector consulted by the solver layer (factor calls,
    /// residual assemblies, Krylov closure solves). `None` — the production
    /// state — costs one branch per consultation site.
    pub(crate) fault: Option<FaultInjector>,
    /// Optional cooperative cancellation token polled at the same
    /// step-boundary sites as the budget checks. `None` — the production
    /// state for uncancellable runs — costs one branch per boundary.
    pub(crate) cancel: Option<CancelToken>,
}

/// Number of accepted states the adaptive predictor ring retains: three
/// support points give the quadratic predictor that matches the order of the
/// trapezoidal corrector.
const PREDICTOR_HISTORY: usize = 3;

impl TransientWorkspace {
    /// Builds the workspace for `circuit`: computes the system layout,
    /// resolves the solver backend and, on the sparse backend, collects the
    /// circuit's Jacobian sparsity pattern from the devices'
    /// [`Device::stamp_pattern`](crate::device::Device::stamp_pattern) declarations.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidNetlist`] for an empty circuit, a circuit
    /// without unknowns, or a device with inconsistent unknown names.
    pub fn for_circuit(circuit: &Circuit, options: &TransientOptions) -> Result<Self, MnaError> {
        let layout = SystemLayout::for_circuit(circuit)?;
        let n = layout.n;
        let backend = options.backend.resolve(n);
        let jacobian = if backend == SolverBackend::Sparse {
            let mut entries: Vec<(usize, usize)> = Vec::new();
            let mut dense_fallback = false;
            for (device, &extra_base) in circuit.devices().iter().zip(layout.extra_bases.iter()) {
                let mut ctx = PatternContext::new(
                    layout.node_unknowns,
                    extra_base,
                    &mut entries,
                    &mut dense_fallback,
                );
                device.stamp_pattern(&mut ctx);
            }
            let mut triplets = TripletMatrix::new(n, n);
            if dense_fallback {
                for r in 0..n {
                    for c in 0..n {
                        triplets.push(r, c, 0.0);
                    }
                }
            } else {
                for &(r, c) in &entries {
                    triplets.push(r, c, 0.0);
                }
                // The diagonal is always part of the pattern: it keeps the
                // factorisation's pivot structure stable even where no device
                // stamps the diagonal directly.
                for i in 0..n {
                    triplets.push(i, i, 0.0);
                }
            }
            JacobianStorage::Sparse {
                matrix: triplets.to_csr(),
                factors: None,
            }
        } else {
            JacobianStorage::Dense {
                matrix: Matrix::zeros(n, n),
                factors: None,
            }
        };
        Ok(TransientWorkspace {
            backend,
            jacobian,
            factored_h: f64::NAN,
            factored_first: false,
            residual: vec![0.0; n],
            rhs: vec![0.0; n],
            delta: vec![0.0; n],
            x: vec![0.0; n],
            candidate: vec![0.0; n],
            states: vec![0.0; layout.total_states],
            new_states: vec![0.0; layout.total_states],
            times: Vec::new(),
            history: Vec::new(),
            hist_times: Vec::with_capacity(PREDICTOR_HISTORY),
            hist_states: Vec::with_capacity(PREDICTOR_HISTORY * n),
            predicted: vec![0.0; n],
            breakpoints: Vec::new(),
            fault: None,
            cancel: None,
            layout,
        })
    }

    /// Installs a deterministic [`FaultInjector`] the solver layer consults
    /// at its factorisation, residual-assembly and Krylov sites — the test
    /// harness hook that makes every recovery/fallback path directly
    /// reachable. Counts and the firing log accumulate across runs on this
    /// workspace; retrieve them with
    /// [`TransientWorkspace::take_fault_injector`].
    pub fn install_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// Removes and returns the installed fault injector (with its
    /// consultation counts and firing log), restoring the production
    /// no-injection state.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.fault.take()
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Installs a [`CancelToken`] the marching loops poll between steps
    /// (and the shooting sweep between sub-intervals). Keep a clone of the
    /// token to fire it; remove it with
    /// [`TransientWorkspace::take_cancel_token`] — it stays installed
    /// across runs on this workspace otherwise.
    pub fn install_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Removes and returns the installed cancellation token, restoring the
    /// uncancellable production state.
    pub fn take_cancel_token(&mut self) -> Option<CancelToken> {
        self.cancel.take()
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The concrete backend this workspace solves with ([`SolverBackend::Auto`]
    /// already resolved to dense or sparse).
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Size of the global system (node voltages + extra unknowns).
    pub fn unknown_count(&self) -> usize {
        self.layout.n
    }

    /// Returns `true` if `circuit` produces exactly the layout this
    /// workspace was built for (same node count and the same per-device
    /// extra-unknown and state-slot bases).
    fn matches(&self, circuit: &Circuit) -> bool {
        let layout = &self.layout;
        if layout.node_unknowns != circuit.unknown_node_count()
            || layout.extra_bases.len() != circuit.device_count()
        {
            return false;
        }
        let mut extras = 0usize;
        let mut states = 0usize;
        for (device, (&extra_base, &state_base)) in circuit
            .devices()
            .iter()
            .zip(layout.extra_bases.iter().zip(layout.state_bases.iter()))
        {
            if extra_base != layout.node_unknowns + extras || state_base != states {
                return false;
            }
            extras += device.extra_unknowns();
            states += device.state_count();
        }
        layout.n == layout.node_unknowns + extras && layout.total_states == states
    }

    /// Returns `true` if the workspace's Jacobian storage can absorb every
    /// stamp `circuit` declares. Always true on the dense backend; on the
    /// sparse backend this catches a rewired circuit that kept the same
    /// layout but changed topology (its stamps would otherwise panic against
    /// the stale pattern).
    fn pattern_covers(&self, circuit: &Circuit) -> bool {
        let JacobianStorage::Sparse { matrix, .. } = &self.jacobian else {
            return true;
        };
        let n = self.layout.n;
        let mut entries: Vec<(usize, usize)> = Vec::new();
        let mut dense_fallback = false;
        for (device, &extra_base) in circuit.devices().iter().zip(self.layout.extra_bases.iter()) {
            let mut ctx = PatternContext::new(
                self.layout.node_unknowns,
                extra_base,
                &mut entries,
                &mut dense_fallback,
            );
            device.stamp_pattern(&mut ctx);
        }
        if dense_fallback {
            return matrix.nnz() == n * n;
        }
        entries.iter().all(|&(r, c)| matrix.contains(r, c))
    }

    /// Returns `true` when this workspace can be reused for `circuit` under
    /// `options` without rebuilding: the layout matches, the resolved solver
    /// backend is the same and (on the sparse backend) the stored sparsity
    /// pattern covers every stamp the circuit declares. This is exactly the
    /// precondition [`TransientAnalysis::run_with`] enforces, exposed so
    /// sweep/optimisation loops can decide between reuse and rebuild without
    /// provoking an error.
    pub fn fits(&self, circuit: &Circuit, options: &TransientOptions) -> bool {
        self.matches(circuit)
            && self.backend == options.backend.resolve(self.layout.n)
            && self.pattern_covers(circuit)
    }

    /// Drops the cached numeric factorisation (and, on the sparse backend,
    /// the stored pivot order), keeping the matrices and buffers allocated.
    ///
    /// The sparse LU reuses the pivot order of the *first* matrix it
    /// factored, falling back to a fresh pivot search only when that order
    /// goes numerically stale — so the bit-exact result of a run can depend
    /// on which matrices the workspace factored before it. Loops that
    /// require each run to be a pure function of its own inputs (e.g. the
    /// parallel optimisation engine, which shards candidates over workers
    /// with per-worker workspaces in nondeterministic order) call this at
    /// every logical boundary; the first solve after the call performs one
    /// full pivoted factorisation, exactly as a fresh workspace would.
    pub fn invalidate_factors(&mut self) {
        match &mut self.jacobian {
            JacobianStorage::Dense { factors, .. } => *factors = None,
            JacobianStorage::Sparse { factors, .. } => *factors = None,
        }
        self.factored_h = f64::NAN;
    }

    /// Resets the solution, device states and history for a fresh run. The
    /// numeric factors stay allocated (the sparse backend refactors into
    /// them), but they are marked bypass-ineligible: a fresh run's first
    /// Newton iteration always factors its own Jacobian, so results do not
    /// depend on which matrices the workspace happened to solve before.
    pub(crate) fn reset(&mut self, circuit: &Circuit) {
        self.factored_h = f64::NAN;
        self.factored_first = false;
        self.x.iter_mut().for_each(|v| *v = 0.0);
        self.candidate.iter_mut().for_each(|v| *v = 0.0);
        self.states.iter_mut().for_each(|v| *v = 0.0);
        for (device, &base) in circuit.devices().iter().zip(self.layout.state_bases.iter()) {
            let count = device.state_count();
            if count > 0 {
                device.initial_state(&mut self.states[base..base + count]);
            }
        }
        self.new_states.copy_from_slice(&self.states);
        self.times.clear();
        self.history.clear();
        self.hist_times.clear();
        self.hist_states.clear();
        self.breakpoints.clear();
    }

    /// Pushes the current solution `x` into the predictor ring as the
    /// accepted state at time `t`, evicting the oldest entry once the ring
    /// holds [`PREDICTOR_HISTORY`] snapshots.
    fn hist_push(&mut self, t: f64) {
        let n = self.layout.n;
        if self.hist_times.len() == PREDICTOR_HISTORY {
            self.hist_times.remove(0);
            self.hist_states.copy_within(n.., 0);
            self.hist_states.truncate((PREDICTOR_HISTORY - 1) * n);
        }
        self.hist_times.push(t);
        self.hist_states.extend_from_slice(&self.x);
    }
}

/// Assembles the residual and Jacobian for one Newton iterate by stamping
/// every device.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_system(
    circuit: &Circuit,
    layout: &SystemLayout,
    method: IntegrationMethod,
    time: f64,
    dt: f64,
    first: bool,
    x: &[f64],
    states: &[f64],
    new_states: &mut [f64],
    residual: &mut [f64],
    jacobian: &mut JacobianStorage,
) {
    assemble_system_masked(
        circuit, layout, method, time, dt, first, x, states, new_states, residual, jacobian, None,
    );
}

/// As [`assemble_system`], optionally recording which state slots each
/// device's `ddt` calls manage into `ddt_mask` (length
/// `layout.total_states`) — the layout probe behind the shooting engine's
/// period restarts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_system_masked(
    circuit: &Circuit,
    layout: &SystemLayout,
    method: IntegrationMethod,
    time: f64,
    dt: f64,
    first: bool,
    x: &[f64],
    states: &[f64],
    new_states: &mut [f64],
    residual: &mut [f64],
    jacobian: &mut JacobianStorage,
    ddt_mask: Option<&mut [u8]>,
) {
    assemble_system_full(
        circuit, layout, method, time, dt, first, x, states, new_states, residual, jacobian,
        ddt_mask, None,
    );
}

/// As [`assemble_system`], with SPICE-style junction-voltage limiting
/// active in the junction-device stamps (the [`RecoveryPolicy`] cascade's
/// second leg). Never used on the default path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_system_limited(
    circuit: &Circuit,
    layout: &SystemLayout,
    method: IntegrationMethod,
    time: f64,
    dt: f64,
    first: bool,
    x: &[f64],
    states: &[f64],
    new_states: &mut [f64],
    residual: &mut [f64],
    jacobian: &mut JacobianStorage,
    junction_limit: Option<f64>,
) {
    assemble_system_full(
        circuit,
        layout,
        method,
        time,
        dt,
        first,
        x,
        states,
        new_states,
        residual,
        jacobian,
        None,
        junction_limit,
    );
}

/// The one stamping loop every assembly variant funnels through.
#[allow(clippy::too_many_arguments)]
fn assemble_system_full(
    circuit: &Circuit,
    layout: &SystemLayout,
    method: IntegrationMethod,
    time: f64,
    dt: f64,
    first: bool,
    x: &[f64],
    states: &[f64],
    new_states: &mut [f64],
    residual: &mut [f64],
    jacobian: &mut JacobianStorage,
    mut ddt_mask: Option<&mut [u8]>,
    junction_limit: Option<f64>,
) {
    for r in residual.iter_mut() {
        *r = 0.0;
    }
    jacobian.fill_zero();
    for ((device, &extra_base), &state_base) in circuit
        .devices()
        .iter()
        .zip(layout.extra_bases.iter())
        .zip(layout.state_bases.iter())
    {
        let count = device.state_count();
        let (dev_states, dev_new_states) = if count > 0 {
            (
                &states[state_base..state_base + count],
                &mut new_states[state_base..state_base + count],
            )
        } else {
            (&states[0..0], &mut new_states[0..0])
        };
        let view = match jacobian {
            JacobianStorage::Dense { matrix, .. } => JacobianView::Dense(matrix),
            JacobianStorage::Sparse { matrix, .. } => JacobianView::Sparse(matrix),
        };
        let mut ctx = StampContext::new(
            time,
            dt,
            method,
            x,
            dev_states,
            dev_new_states,
            residual,
            view,
            layout.node_unknowns,
            extra_base,
            first,
        )
        .with_junction_limit(junction_limit);
        if count > 0 {
            if let Some(mask) = ddt_mask.as_deref_mut() {
                ctx = ctx.with_ddt_mask(&mut mask[state_base..state_base + count]);
            }
        }
        device.stamp(&mut ctx);
    }
}

/// Largest relative step-size mismatch at which the modified-Newton bypass
/// still reuses factors across steps: the companion conductances scale as
/// `1/h`, so a 25 % drift leaves the stale Jacobian a usable preconditioner
/// (contraction ~0.25, still well under [`SLOW_CONVERGENCE_RATIO`]) while
/// the convergence-rate test and the stale-iteration budget guard the tail.
/// The adaptive controller routinely nudges `h` by 10–20 % between accepted
/// steps, so a tighter gate would force a fresh factorisation on almost
/// every adaptive step and defeat the bypass exactly where it matters.
const JACOBIAN_REUSE_H_RTOL: f64 = 0.25;

/// Modified-Newton contraction threshold: an iteration whose update norm
/// exceeds this fraction of its predecessor's is converging too slowly for
/// the stale factors, and the next iteration refactors.
const SLOW_CONVERGENCE_RATIO: f64 = 0.5;

/// Budget of Newton iterations a single step may spend on stale factors.
/// The convergence-rate test alone admits steady linear contraction (a rate
/// just under [`SLOW_CONVERGENCE_RATIO`] passes every check), which on a
/// tight tolerance means many cheap-but-slow iterations; the budget caps
/// that at a few iterations before forcing an exact Jacobian, keeping
/// the iteration count within a small constant of full Newton.
const MAX_STALE_ITERATIONS: usize = 4;

/// The transient analysis driver.
#[derive(Debug, Clone, Default)]
pub struct TransientAnalysis {
    options: TransientOptions,
}

impl TransientAnalysis {
    /// Creates an analysis with the given options.
    pub fn new(options: TransientOptions) -> Self {
        TransientAnalysis { options }
    }

    /// The analysis options.
    pub fn options(&self) -> &TransientOptions {
        &self.options
    }

    fn validate_options(&self) -> Result<(), MnaError> {
        self.options.validate()
    }

    /// Runs the transient analysis on `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidOptions`] for nonsensical options,
    /// [`MnaError::InvalidNetlist`] for an empty circuit, and
    /// [`MnaError::StepFailed`] if Newton fails to converge even at the
    /// minimum step size.
    pub fn run(&self, circuit: &Circuit) -> Result<TransientResult, MnaError> {
        self.validate_options()?;
        let mut workspace = TransientWorkspace::for_circuit(circuit, &self.options)?;
        self.run_with(circuit, &mut workspace)
    }

    /// Runs the transient analysis reusing an existing workspace — the entry
    /// point for sweeps and optimisation loops that simulate the same
    /// circuit (topology) many times. The workspace must have been built
    /// with [`TransientWorkspace::for_circuit`] for a circuit with the same
    /// layout.
    ///
    /// # Errors
    ///
    /// As [`TransientAnalysis::run`], plus [`MnaError::InvalidOptions`] if
    /// the workspace does not match the circuit.
    pub fn run_with(
        &self,
        circuit: &Circuit,
        workspace: &mut TransientWorkspace,
    ) -> Result<TransientResult, MnaError> {
        self.run_from(circuit, workspace, false)
    }

    /// As [`TransientAnalysis::run_with`], but with `warm == true` the
    /// workspace's solution vector and device states are kept as the
    /// starting point instead of being reset — the op → transient chaining
    /// primitive of the [`analysis`](crate::analysis) engine. The caller
    /// guarantees the workspace holds a consistent `(x, states)` pair (e.g.
    /// a converged operating point with its ddt value slots seeded); only
    /// the recording buffers and the factor-bypass eligibility are cleared,
    /// so a warm run is still a pure function of its starting state.
    pub(crate) fn run_from(
        &self,
        circuit: &Circuit,
        workspace: &mut TransientWorkspace,
        warm: bool,
    ) -> Result<TransientResult, MnaError> {
        self.validate_options()?;
        let opts = &self.options;
        let ws = workspace;
        if !ws.matches(circuit) {
            return Err(MnaError::InvalidOptions(
                "workspace was built for a different circuit".to_string(),
            ));
        }
        if ws.backend != opts.backend.resolve(ws.layout.n) {
            return Err(MnaError::InvalidOptions(format!(
                "workspace was built for the {:?} backend but the analysis requests {:?}",
                ws.backend, opts.backend
            )));
        }
        if !ws.pattern_covers(circuit) {
            return Err(MnaError::InvalidOptions(
                "workspace sparsity pattern does not cover this circuit's stamps \
                 (same layout, different topology?)"
                    .to_string(),
            ));
        }
        if warm {
            ws.factored_h = f64::NAN;
            ws.factored_first = false;
            ws.candidate.copy_from_slice(&ws.x);
            ws.new_states.copy_from_slice(&ws.states);
            ws.times.clear();
            ws.history.clear();
            ws.hist_times.clear();
            ws.hist_states.clear();
            ws.breakpoints.clear();
        } else {
            ws.reset(circuit);
        }
        let mut stats = RunStatistics::default();

        ws.times.push(0.0);
        ws.history.extend_from_slice(&ws.x);

        let stop = match opts.step_control {
            StepControl::Fixed => self.march_fixed(circuit, ws, &mut stats)?,
            StepControl::Adaptive {
                reltol,
                abstol,
                max_dt,
            } => self.march_adaptive(circuit, ws, &mut stats, reltol, abstol, max_dt)?,
        };

        Ok(TransientResult::from_recorded(ws, circuit, stats, stop))
    }

    /// Damped Newton solve of one candidate step ending at `t_next`.
    ///
    /// `ws.candidate` must hold the initial iterate (the previous solution
    /// under fixed stepping, the polynomial prediction under adaptive
    /// stepping) and on success holds the converged solution, with
    /// `ws.new_states` refreshed at it; the caller decides whether to commit.
    ///
    /// With [`TransientOptions::reuse_jacobian`] the Newton iteration runs in
    /// modified-Newton mode: the factored Jacobian is carried across
    /// iterations — and across steps whose size and companion gains match the
    /// factors' — and refactored only when the update norms stop contracting
    /// (the residual is always assembled exactly, so stale factors change the
    /// iteration path but never the fixed point it converges to).
    pub(crate) fn attempt_step(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        t_next: f64,
        h: f64,
        first_step: bool,
        stats: &mut RunStatistics,
    ) -> StepAttempt {
        let opts = &self.options;
        let mut converged = false;
        let mut last_residual_norm = f64::INFINITY;
        let mut iterations = 0usize;
        let mut have_factors = opts.reuse_jacobian
            && ws.factored_h.is_finite()
            && ws.factored_first == first_step
            && (h - ws.factored_h).abs() <= JACOBIAN_REUSE_H_RTOL * h;
        let mut prev_delta_norm = f64::INFINITY;
        let mut stale_iterations = 0usize;

        for _ in 0..opts.max_newton_iterations {
            assemble_system(
                circuit,
                &ws.layout,
                opts.method,
                t_next,
                h,
                first_step,
                &ws.candidate,
                &ws.states,
                &mut ws.new_states,
                &mut ws.residual,
                &mut ws.jacobian,
            );
            if ws
                .fault
                .as_mut()
                .is_some_and(|f| f.should_fire(Fault::NanResidual))
            {
                ws.residual[0] = f64::NAN;
            }
            last_residual_norm = norm_inf(&ws.residual);
            stats.newton_iterations += 1;
            iterations += 1;
            ws.rhs.clear();
            ws.rhs.extend(ws.residual.iter().map(|r| -r));
            if !opts.reuse_jacobian || stale_iterations >= MAX_STALE_ITERATIONS {
                // Classical full Newton (or a step whose stale-iteration
                // budget ran out, permanently for this step): factor the
                // just-assembled Jacobian on every iteration.
                have_factors = false;
            }
            let mut fresh = !have_factors;
            if !fresh {
                stale_iterations += 1;
            }
            if !have_factors {
                if !ws.jacobian.factor(stats, ws.fault.as_mut()) {
                    break;
                }
                ws.factored_h = h;
                ws.factored_first = first_step;
                have_factors = true;
                fresh = true;
            }
            if !ws.jacobian.solve_factored(&ws.rhs, &mut ws.delta) {
                // A stale-factor back-substitution cannot fail numerically;
                // reaching here means the factors were missing or unusable.
                // Retry once against a fresh factorisation before rejecting.
                if fresh || !ws.jacobian.factor(stats, ws.fault.as_mut()) {
                    break;
                }
                ws.factored_h = h;
                ws.factored_first = first_step;
                fresh = true;
                if !ws.jacobian.solve_factored(&ws.rhs, &mut ws.delta) {
                    break;
                }
            }
            stats.linear_solves += 1;
            if ws.delta.iter().any(|d| !d.is_finite()) {
                break;
            }
            // Limit the Newton step: exponential diode models can throw
            // the iteration into wild oscillation if full steps are taken
            // far from the solution. One-volt-scale steps per iteration
            // keep it contained without slowing converged steps down.
            let delta_norm = norm_inf(&ws.delta);
            let limiter = if delta_norm > 1.0 {
                1.0 / delta_norm
            } else {
                1.0
            };
            for (xi, di) in ws.candidate.iter_mut().zip(ws.delta.iter()) {
                *xi += limiter * di;
            }
            let scale = 1.0 + norm_inf(&ws.candidate);
            if delta_norm * limiter <= opts.delta_tolerance * scale {
                converged = true;
                break;
            }
            // Convergence-rate test of the modified-Newton bypass: stale
            // factors are tolerated while the update norms keep contracting
            // briskly; once an iteration shrinks its predecessor by less
            // than 1/SLOW_CONVERGENCE_RATIO, the next iteration refactors
            // the freshly assembled Jacobian. Never triggered by factors
            // computed this very iteration — slow contraction under an exact
            // Jacobian is the nonlinearity's fault, not the factors'.
            if opts.reuse_jacobian
                && !fresh
                && delta_norm > SLOW_CONVERGENCE_RATIO * prev_delta_norm
            {
                have_factors = false;
            }
            prev_delta_norm = delta_norm;
        }

        // Secondary acceptance criterion: a step whose Newton update
        // stalled (or whose Jacobian went singular) is still accepted if
        // its equations are balanced to the residual tolerance — halving
        // the step cannot improve on a solved system. The residual is
        // re-measured at the final candidate (the iterate that would be
        // committed), not at the stale pre-update iterate.
        if !converged {
            assemble_system(
                circuit,
                &ws.layout,
                opts.method,
                t_next,
                h,
                first_step,
                &ws.candidate,
                &ws.states,
                &mut ws.new_states,
                &mut ws.residual,
                &mut ws.jacobian,
            );
            last_residual_norm = norm_inf(&ws.residual);
            if last_residual_norm <= opts.residual_tolerance {
                converged = true;
            }
        }

        if converged {
            // Refresh the residual, Jacobian and candidate states at the
            // accepted solution so the committed history is consistent.
            assemble_system(
                circuit,
                &ws.layout,
                opts.method,
                t_next,
                h,
                first_step,
                &ws.candidate,
                &ws.states,
                &mut ws.new_states,
                &mut ws.residual,
                &mut ws.jacobian,
            );
        }

        StepAttempt {
            converged,
            iterations,
            residual: last_residual_norm,
        }
    }

    /// The pre-adaptive marching loop: nominal `dt`, halving only on Newton
    /// failure — structurally identical to earlier releases. With
    /// [`TransientOptions::reuse_jacobian`] disabled the produced trace is
    /// bit-identical to them too; the default modified-Newton bypass keeps
    /// the same marching decisions but walks a different (cheaper) iteration
    /// path to each step's solution, so traces agree to the Newton
    /// tolerances rather than bit-for-bit.
    fn march_fixed(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        stats: &mut RunStatistics,
    ) -> Result<MarchStop, MnaError> {
        let opts = &self.options;
        let mut last_recorded = 0.0f64;
        let mut t = 0.0f64;
        let mut current_dt = opts.dt;
        let mut first_step = true;
        let mut stop = MarchStop::default();
        // The dt trajectory at the current time point, tracked only for the
        // recovery layer's failure report (never allocated under the default
        // disabled policy).
        let mut attempted_dts: Vec<f64> = Vec::new();

        while t < opts.t_stop - 1e-9 * opts.dt {
            if ws.cancel.as_ref().is_some_and(|c| c.poll()) {
                stop.truncated = true;
                stop.cancelled = true;
                break;
            }
            if !opts.budget.is_unlimited() && opts.budget.exhausted_by(stats).is_some() {
                stop.truncated = true;
                break;
            }
            // Absorb the final fractional step into the previous one instead
            // of taking a femtosecond "sliver" step created by accumulated
            // floating-point error: companion conductances scale as 1/dt, so
            // a sliver step is numerically hopeless for large capacitances.
            let remaining = opts.t_stop - t;
            let h = if remaining < 1.5 * current_dt {
                remaining
            } else {
                current_dt
            };
            let t_next = t + h;
            ws.candidate.copy_from_slice(&ws.x);
            let attempt = self.attempt_step(circuit, ws, t_next, h, first_step, stats);

            let mut accepted = attempt.converged;
            if !accepted {
                stats.rejected_steps += 1;
                if opts.recovery.is_enabled() {
                    attempted_dts.push(h);
                }
                current_dt *= 0.5;
                if current_dt < opts.min_dt {
                    self.recover_failed_step(
                        circuit,
                        ws,
                        t_next,
                        h,
                        current_dt,
                        first_step,
                        stats,
                        &attempted_dts,
                        attempt.residual,
                    )?;
                    accepted = true;
                }
            }

            if accepted {
                ws.states.copy_from_slice(&ws.new_states);
                ws.x.copy_from_slice(&ws.candidate);
                t = t_next;
                first_step = false;
                stats.accepted_steps += 1;
                attempted_dts.clear();
                let should_record = match opts.record_interval {
                    None => true,
                    Some(interval) => {
                        t - last_recorded >= interval - 1e-15 || t >= opts.t_stop - 1e-15
                    }
                };
                if should_record {
                    ws.times.push(t);
                    ws.history.extend_from_slice(&ws.x);
                    last_recorded = t;
                }
                if current_dt < opts.dt {
                    current_dt = (current_dt * 2.0).min(opts.dt);
                }
            }
        }

        // The absolute-epsilon check above can miss t_stop by accumulated
        // rounding once steps are non-uniform (halving recovery, absorbed
        // final step): the last accepted state is always part of the result.
        if *ws.times.last().expect("initial sample always present") != t {
            ws.times.push(t);
            ws.history.extend_from_slice(&ws.x);
        }
        Ok(stop)
    }

    /// The LTE-controlled marching loop of [`StepControl::Adaptive`]: a
    /// divided-difference predictor warm-starts Newton and supplies the
    /// per-unknown truncation-error estimate; the step grows and shrinks
    /// between `min_dt` and `max_dt`, landing exactly on every source
    /// breakpoint; output is densely interpolated onto the
    /// `record_interval` grid.
    fn march_adaptive(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        stats: &mut RunStatistics,
        reltol: f64,
        abstol: f64,
        max_dt: f64,
    ) -> Result<MarchStop, MnaError> {
        let opts = &self.options;
        let n = ws.layout.n;
        let mut stop = MarchStop::default();
        let mut attempted_dts: Vec<f64> = Vec::new();

        // Merge, sort and deduplicate the circuit's source breakpoints once
        // per run.
        let mut raw = Vec::new();
        for device in circuit.devices() {
            device.breakpoints(opts.t_stop, &mut raw);
        }
        raw.retain(|b| b.is_finite() && *b > 0.0 && *b < opts.t_stop);
        raw.sort_by(f64::total_cmp);
        let merge_eps = 1e-12 * opts.t_stop;
        ws.breakpoints.clear();
        for b in raw {
            if ws
                .breakpoints
                .last()
                .map_or(true, |&last| b - last > merge_eps)
            {
                ws.breakpoints.push(b);
            }
        }

        // The predictor order is capped at the corrector's order so the
        // predictor–corrector gap is a genuine estimate of the corrector's
        // truncation error.
        let method_order = match opts.method {
            IntegrationMethod::BackwardEuler => 1,
            IntegrationMethod::Trapezoidal => 2,
        };

        ws.hist_push(0.0);
        let record_interval = opts.record_interval;
        // Next uniform-grid sample as a multiple of the interval (indexed,
        // not accumulated, so the grid does not drift over long runs).
        let mut record_index = 1u64;
        let mut t = 0.0f64;
        let mut h = opts.dt.clamp(opts.min_dt, max_dt);
        let mut bp_idx = 0usize;
        let mut first_step = true;
        let mut successive_lte_rejections = 0usize;
        let stop_eps = 1e-9 * opts.dt;
        // The accuracy controller may not shrink the step far below the
        // nominal dt: the fixed-step engine resolves every corner at dt, so
        // dt/100 buys two orders of magnitude of extra corner resolution
        // while keeping the companion conductances (∝ 1/dt) in the scaling
        // regime the linear solvers are healthy in. Newton-failure recovery
        // (a convergence emergency, not an accuracy preference) may still
        // halve all the way down to min_dt.
        let lte_floor = (opts.dt * MIN_ADAPTIVE_STEP_FRACTION).max(opts.min_dt);
        let dip_floor = (opts.dt * DIP_FLOOR_FRACTION).max(opts.min_dt);

        while t < opts.t_stop - stop_eps {
            if ws.cancel.as_ref().is_some_and(|c| c.poll()) {
                stop.truncated = true;
                stop.cancelled = true;
                break;
            }
            if !opts.budget.is_unlimited() && opts.budget.exhausted_by(stats).is_some() {
                stop.truncated = true;
                break;
            }
            // Advance past breakpoints already landed on.
            while ws
                .breakpoints
                .get(bp_idx)
                .is_some_and(|&b| b <= t + stop_eps)
            {
                bp_idx += 1;
            }
            let next_bp = ws.breakpoints.get(bp_idx).copied();
            let boundary = next_bp.unwrap_or(opts.t_stop);
            let remaining = boundary - t;

            let mut h_step = h.clamp(opts.min_dt, max_dt);
            let t_next = if remaining <= h_step {
                // Land exactly on the boundary (breakpoint or stop time).
                h_step = remaining;
                boundary
            } else if remaining < 1.5 * h_step {
                // Split the remaining distance instead of leaving a
                // numerically hopeless sliver for the next step.
                h_step = 0.5 * remaining;
                t + h_step
            } else {
                t + h_step
            };
            let landed_on_breakpoint = next_bp.is_some() && t_next == boundary;
            if t_next <= t {
                // h rounded to a zero time advance (possible once Newton
                // recovery has halved towards min_dt at large t, where
                // min_dt is below one ulp of t): the march cannot make
                // progress at this floating-point resolution, and accepting
                // the step would both loop forever and corrupt the
                // predictor ring with a duplicate abscissa.
                return Err(MnaError::StepFailed {
                    time: t,
                    dt: h_step,
                    residual: f64::INFINITY,
                });
            }

            // Warm-start Newton from the divided-difference predictor over
            // the most recent accepted states.
            let points = ws.hist_times.len().min(method_order + 1);
            let order = points - 1;
            if order >= 1 {
                let start = ws.hist_times.len() - points;
                extrapolate_rows(
                    &ws.hist_times[start..],
                    &ws.hist_states[start * n..],
                    n,
                    t_next,
                    &mut ws.predicted,
                );
                ws.candidate.copy_from_slice(&ws.predicted);
            } else {
                ws.candidate.copy_from_slice(&ws.x);
            }

            let attempt = self.attempt_step(circuit, ws, t_next, h_step, first_step, stats);
            let mut recovered = false;
            if !attempt.converged {
                stats.rejected_steps += 1;
                successive_lte_rejections = 0;
                if opts.recovery.is_enabled() {
                    attempted_dts.push(h_step);
                }
                h = h_step * 0.5;
                if h < opts.min_dt {
                    self.recover_failed_step(
                        circuit,
                        ws,
                        t_next,
                        h_step,
                        h,
                        first_step,
                        stats,
                        &attempted_dts,
                        attempt.residual,
                    )?;
                    recovered = true;
                } else {
                    continue;
                }
            }
            attempted_dts.clear();

            // Predictor–corrector LTE estimate (Milne's device): the
            // corrector's truncation error is a known fraction of the gap
            // between the explicit prediction and the implicit solution.
            //
            // The estimate is only meaningful once the predictor has reached
            // the corrector's own order: an under-order (linear) predictor
            // against the trapezoidal corrector measures the O(h²·x″)
            // prediction error, not the corrector's O(h³·x‴) truncation
            // error, and acting on that over-read locks the controller into
            // a restart→reject→restart limit cycle. Under-order start-up
            // steps (at most two per smooth segment) simply hold the step.
            let mut err_ratio = 0.0f64;
            if order == method_order {
                let lte_fraction = match opts.method {
                    IntegrationMethod::BackwardEuler => 1.0 / 3.0,
                    IntegrationMethod::Trapezoidal => 1.0 / 12.0,
                };
                for i in 0..n {
                    let sol = ws.candidate[i];
                    let weight = reltol * sol.abs().max(ws.x[i].abs()) + abstol;
                    let err = (sol - ws.predicted[i]).abs() * lte_fraction;
                    err_ratio = err_ratio.max(err / weight);
                }
                if err_ratio.is_nan() {
                    err_ratio = f64::INFINITY;
                }
            }

            // Rejection policy. A step is re-done only on a *clear* miss
            // (err beyond the [`LTE_REJECT_THRESHOLD`] deadband): a marginal
            // overshoot is accepted — the tolerances carry that much safety
            // margin — and merely shrinks the *next* step, which costs
            // nothing, while re-solving would waste a full Newton solve to
            // chase a fraction of a tolerance and invites accept/reject
            // limit cycling. Rejections are also bounded per step
            // ([`MAX_LTE_REJECTIONS`]) and floored in size ([`lte_floor`]):
            // across a state-event corner the sources know nothing about (a
            // diode commutating) the predictor–corrector gap does not
            // shrink as h³, so unbounded rejection would spiral towards
            // min_dt without ever improving the estimate; the small step is
            // accepted as the best resolution of the corner the controller
            // can buy and the next-step shrink carries the caution forward.
            let at_floor = h_step <= lte_floor * (1.0 + 1e-9);
            if err_ratio > LTE_REJECT_THRESHOLD
                && !at_floor
                && !recovered
                && successive_lte_rejections < MAX_LTE_REJECTIONS
            {
                stats.lte_rejections += 1;
                successive_lte_rejections += 1;
                let shrink = (LTE_SAFETY * err_ratio.powf(-1.0 / (order as f64 + 1.0)))
                    .clamp(MAX_SHRINK, 0.9);
                h = (h_step * shrink).max(lte_floor);
                continue;
            }
            successive_lte_rejections = 0;

            // Accept. Dense output first: it interpolates between the
            // previous state (still in ws.x) and the new one (ws.candidate).
            match record_interval {
                Some(interval) => {
                    // Interpolate at the integrator's own order — a quadratic
                    // through the previous ring entry and the step's two
                    // endpoints — so recording stays second-order accurate
                    // even when accepted steps grow far beyond the grid. The
                    // ring never spans a breakpoint (it is cleared there), so
                    // the three support points are always smooth neighbours.
                    let grid_eps = 1e-9 * interval;
                    let first_sample = ws.times.len();
                    loop {
                        let g = record_index as f64 * interval;
                        if g > t_next + grid_eps || g > opts.t_stop {
                            break;
                        }
                        ws.times.push(g.min(t_next));
                        record_index += 1;
                    }
                    let samples = ws.times.len() - first_sample;
                    if samples > 0 {
                        let row_base = ws.history.len();
                        ws.history.resize(row_base + samples * n, 0.0);
                        let ring_len = ws.hist_times.len();
                        if ring_len >= 2 {
                            // The Newton coefficients depend only on the
                            // step's three support points, so they are
                            // computed once per unknown and merely
                            // re-evaluated (one Horner pass) per grid point.
                            let ts = [ws.hist_times[ring_len - 2], t, t_next];
                            let base = (ring_len - 2) * n;
                            let mut coeffs = [0.0f64; 3];
                            for i in 0..n {
                                let ys = [ws.hist_states[base + i], ws.x[i], ws.candidate[i]];
                                divided_differences(&ts, &ys, &mut coeffs);
                                for k in 0..samples {
                                    let g = ws.times[first_sample + k];
                                    ws.history[row_base + k * n + i] = newton_eval(&ts, &coeffs, g);
                                }
                            }
                        } else {
                            let span = t_next - t;
                            for k in 0..samples {
                                let g = ws.times[first_sample + k];
                                let theta = ((g - t) / span).clamp(0.0, 1.0);
                                for i in 0..n {
                                    ws.history[row_base + k * n + i] =
                                        ws.x[i] + theta * (ws.candidate[i] - ws.x[i]);
                                }
                            }
                        }
                    }
                }
                None => {
                    ws.times.push(t_next);
                    ws.history.extend_from_slice(&ws.candidate);
                }
            }

            ws.states.copy_from_slice(&ws.new_states);
            ws.x.copy_from_slice(&ws.candidate);
            t = t_next;
            first_step = false;
            stats.accepted_steps += 1;
            if order >= 1 {
                stats.predicted_steps += 1;
            }
            if landed_on_breakpoint {
                // The source forced a derivative discontinuity here: states
                // on the far side are not polynomial continuations of states
                // on the near side, so the predictor restarts from scratch
                // and the step restarts at the nominal dt, exactly as at
                // t = 0.
                ws.hist_times.clear();
                ws.hist_states.clear();
                ws.hist_push(t);
                h = opts.dt.clamp(opts.min_dt, max_dt);
                continue;
            }
            if recovered {
                // A homotopy-recovered solution is no polynomial continuation
                // of the failed Newton attempts either: restart the predictor
                // like at a breakpoint, but stay at the (small) step size the
                // emergency was crossed at rather than jumping back to the
                // nominal dt.
                ws.hist_times.clear();
                ws.hist_states.clear();
                ws.hist_push(t);
                h = h_step.clamp(opts.min_dt, max_dt);
                continue;
            }
            ws.hist_push(t);

            // Step-size controller: grow on accuracy headroom (bounded per
            // step), throttled when Newton is struggling.
            let mut factor = if order == method_order {
                (LTE_SAFETY * err_ratio.max(1e-10).powf(-1.0 / (order as f64 + 1.0)))
                    .clamp(MAX_SHRINK, MAX_GROWTH)
            } else {
                // No full-order error estimate yet (start-up steps of a
                // smooth segment): hold.
                1.0
            };
            if attempt.iterations > SLOW_NEWTON_ITERATIONS {
                factor = factor.min(0.5);
            }
            // The accuracy controller may dip below the rejection floor to
            // cross a state-event corner (brief, self-recovering: once the
            // corner is behind, the h³-scaled estimate collapses and the
            // factor climbs straight back) — but never below `dip_floor`:
            // at extreme ratios of h to the nominal dt the
            // predictor–corrector gap is floating-point noise that reads as
            // "still inaccurate" forever, and acting on it would walk h
            // into the 1/dt-overflow regime one accepted step at a time.
            h = (h_step * factor).clamp(dip_floor, max_dt);
        }

        // The final accepted state is always part of the result (the uniform
        // recording grid generally ends short of t_stop).
        if *ws.times.last().expect("initial sample always present") != t {
            ws.times.push(t);
            ws.history.extend_from_slice(&ws.x);
        }
        Ok(stop)
    }

    /// The escalation ladder behind a step that exhausted halving: gmin
    /// ramp, then junction limiting, then a structured failure — see
    /// [`RecoveryPolicy`]. On `Ok(())` the workspace holds a committed-ready
    /// `(candidate, new_states)` pair at `t_next`, exactly like a converged
    /// [`TransientAnalysis::attempt_step`]; the caller commits it. With the
    /// policy disabled this returns the exact bare [`MnaError::StepFailed`]
    /// earlier releases raised.
    #[allow(clippy::too_many_arguments)]
    fn recover_failed_step(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        t_next: f64,
        h: f64,
        dt_floor: f64,
        first_step: bool,
        stats: &mut RunStatistics,
        attempted_dts: &[f64],
        last_residual: f64,
    ) -> Result<(), MnaError> {
        let opts = &self.options;
        let policy = opts.recovery;
        let bare = MnaError::StepFailed {
            time: t_next,
            dt: dt_floor,
            residual: last_residual,
        };
        if !policy.is_enabled() {
            return Err(bare);
        }

        let mut strategies = vec![RecoveryStrategy::StepHalving];
        if policy.gmin_ramp {
            strategies.push(RecoveryStrategy::GminRamp);
            if self.recovery_gmin_ramp(circuit, ws, t_next, h, first_step, stats) {
                stats.recovery_retries += 1;
                ws.factored_h = f64::NAN;
                return Ok(());
            }
        }
        if let Some(limit) = policy.junction_limit {
            strategies.push(RecoveryStrategy::JunctionLimiting);
            ws.candidate.copy_from_slice(&ws.x);
            // The limited solve tames the exponential excursions enough to
            // land near the solution; a clean polish from there guarantees
            // the committed point solves the *unlimited* system.
            if self.recovery_newton(circuit, ws, t_next, h, first_step, stats, 0.0, Some(limit))
                && self.recovery_newton(circuit, ws, t_next, h, first_step, stats, 0.0, None)
            {
                stats.recovery_retries += 1;
                ws.factored_h = f64::NAN;
                return Ok(());
            }
        }

        if !policy.detailed_report {
            return Err(bare);
        }
        // Post-mortem: re-measure the residual at the last iterate and map
        // the worst-balanced equations back to netlist names.
        assemble_system(
            circuit,
            &ws.layout,
            opts.method,
            t_next,
            h,
            first_step,
            &ws.candidate,
            &ws.states,
            &mut ws.new_states,
            &mut ws.residual,
            &mut ws.jacobian,
        );
        let residual = norm_inf(&ws.residual);
        let mut ranked: Vec<(usize, f64)> =
            ws.residual.iter().map(|r| r.abs()).enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let worst_unknowns = ranked
            .iter()
            .take(3)
            .map(|&(i, r)| (ws.layout.unknown_name(circuit.node_names(), i), r))
            .collect();
        Err(MnaError::Convergence(Box::new(ConvergenceReport {
            time: t_next,
            dt_trajectory: attempted_dts.to_vec(),
            residual: if residual.is_finite() {
                residual
            } else {
                last_residual
            },
            worst_unknowns,
            strategies,
        })))
    }

    /// The gmin-ramp recovery leg: re-solves the failing step under a
    /// node-diagonal shunt conductance ramped from
    /// [`RecoveryPolicy::gmin_start`] down to zero, each stage seeding the
    /// next. Only the final `gmin = 0` stage — an exact solution of the
    /// unmodified system — counts as success.
    fn recovery_gmin_ramp(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        t_next: f64,
        h: f64,
        first_step: bool,
        stats: &mut RunStatistics,
    ) -> bool {
        let policy = self.options.recovery;
        // Seed from the last *committed* solution, not the diverged iterate.
        ws.candidate.copy_from_slice(&ws.x);
        let mut gmin = policy.gmin_start;
        for _ in 0..policy.gmin_stages {
            if !self.recovery_newton(circuit, ws, t_next, h, first_step, stats, gmin, None) {
                return false;
            }
            gmin /= 10.0;
        }
        self.recovery_newton(circuit, ws, t_next, h, first_step, stats, 0.0, None)
    }

    /// One plain Newton solve of the (possibly gmin- or limiting-modified)
    /// step system, operating on `ws.candidate` in place — the transient
    /// sibling of the static `newton_static` in
    /// [`analysis`](crate::analysis). Always factors fresh (no
    /// modified-Newton bypass: a recovery is a convergence emergency) and
    /// leaves `(candidate, new_states, residual, jacobian)` assembled at the
    /// final iterate.
    #[allow(clippy::too_many_arguments)]
    fn recovery_newton(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        t_next: f64,
        h: f64,
        first_step: bool,
        stats: &mut RunStatistics,
        gmin: f64,
        junction_limit: Option<f64>,
    ) -> bool {
        let opts = &self.options;
        let mut converged = false;
        for _ in 0..opts.max_newton_iterations {
            assemble_system_limited(
                circuit,
                &ws.layout,
                opts.method,
                t_next,
                h,
                first_step,
                &ws.candidate,
                &ws.states,
                &mut ws.new_states,
                &mut ws.residual,
                &mut ws.jacobian,
                junction_limit,
            );
            if gmin > 0.0 {
                for i in 0..ws.layout.node_unknowns {
                    ws.residual[i] += gmin * ws.candidate[i];
                    ws.jacobian.add_diagonal(i, gmin);
                }
            }
            // Element-wise, not `!norm_inf(..).is_finite()`: the max-fold
            // norm *ignores* NaN entries (`f64::max` semantics), so a
            // poisoned residual would otherwise read as balanced.
            if ws.residual.iter().any(|r| !r.is_finite()) {
                return false;
            }
            stats.newton_iterations += 1;
            ws.rhs.clear();
            ws.rhs.extend(ws.residual.iter().map(|r| -r));
            if !ws.jacobian.factor(stats, ws.fault.as_mut()) {
                return false;
            }
            if !ws.jacobian.solve_factored(&ws.rhs, &mut ws.delta) {
                return false;
            }
            stats.linear_solves += 1;
            if ws.delta.iter().any(|d| !d.is_finite()) {
                return false;
            }
            let delta_norm = norm_inf(&ws.delta);
            let limiter = if delta_norm > 1.0 {
                1.0 / delta_norm
            } else {
                1.0
            };
            for (xi, di) in ws.candidate.iter_mut().zip(ws.delta.iter()) {
                *xi += limiter * di;
            }
            let scale = 1.0 + norm_inf(&ws.candidate);
            if delta_norm * limiter <= opts.delta_tolerance * scale {
                converged = true;
                break;
            }
        }
        if converged {
            // Refresh `(new_states, residual, jacobian)` at the accepted
            // iterate, against the *unmodified* system, so a successful
            // final stage leaves the workspace in exactly the state a
            // converged `attempt_step` would (the commit contract).
            assemble_system(
                circuit,
                &ws.layout,
                opts.method,
                t_next,
                h,
                first_step,
                &ws.candidate,
                &ws.states,
                &mut ws.new_states,
                &mut ws.residual,
                &mut ws.jacobian,
            );
        }
        converged
    }
}

/// Outcome of one Newton attempt at a candidate step.
pub(crate) struct StepAttempt {
    pub(crate) converged: bool,
    pub(crate) iterations: usize,
    pub(crate) residual: f64,
}

/// Safety factor of the LTE step-size controller (the classic 0.9: aim
/// slightly below the tolerance so borderline steps are not re-rejected).
const LTE_SAFETY: f64 = 0.9;
/// Error ratio above which a Newton-converged step is actually re-done.
/// Between 1 and this threshold the step is accepted and only the *next*
/// step shrinks — re-solving to recover a fraction of a tolerance costs a
/// full Newton solve and invites accept/reject limit cycling around the
/// error-limited step size.
const LTE_REJECT_THRESHOLD: f64 = 3.0;
/// Largest single-step shrink the LTE controller applies.
const MAX_SHRINK: f64 = 0.2;
/// Largest single-step growth the LTE controller applies.
const MAX_GROWTH: f64 = 2.0;
/// Newton iteration count above which the controller refuses to grow the
/// step even when the LTE has headroom (convergence, not accuracy, is the
/// binding constraint there).
const SLOW_NEWTON_ITERATIONS: usize = 12;
/// Consecutive LTE rejections after which a step is accepted regardless:
/// across a state-event corner (diode switching) the predictor–corrector gap
/// does not shrink with h, so unbounded rejection would spiral to `min_dt`
/// without ever improving the estimate.
const MAX_LTE_REJECTIONS: usize = 1;
/// Smallest step the *accuracy* controller may request, as a fraction of the
/// nominal `dt` (the convergence recovery still goes down to `min_dt`). The
/// fixed-step engine resolves every corner at `dt` itself, so two orders of
/// magnitude of headroom never costs accuracy relative to it, while keeping
/// the 1/dt-scaled companion conductances inside the linear solvers' healthy
/// scaling regime.
const MIN_ADAPTIVE_STEP_FRACTION: f64 = 1e-1;
/// Absolute lower bound of the accuracy controller's step, as a fraction of
/// the nominal `dt` ([`MIN_ADAPTIVE_STEP_FRACTION`] bounds where *rejection*
/// may push; accepted-step backoff may dip this much further while crossing
/// a corner). Newton-failure recovery alone may halve below this, down to
/// `min_dt`.
const DIP_FLOOR_FRACTION: f64 = 1e-3;

/// How a marching loop ended early, if it did — plumbing between the march
/// loops and [`TransientResult::from_recorded`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MarchStop {
    /// The march stopped before `t_stop` (budget exhausted or cancelled).
    pub(crate) truncated: bool,
    /// The early stop came from a fired [`CancelToken`] (implies
    /// `truncated`).
    pub(crate) cancelled: bool,
}

/// The recorded outcome of a transient analysis.
///
/// Samples are stored in one flat row-major buffer (`unknowns` values per
/// recorded time point) instead of a `Vec` of `Vec`s, so recording a sample
/// is a single `extend_from_slice` into pre-grown storage rather than a
/// fresh allocation per step.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    samples: Vec<f64>,
    unknowns: usize,
    node_names: Vec<String>,
    probes: HashMap<String, (usize, Vec<String>)>,
    statistics: RunStatistics,
    truncated: bool,
    cancelled: bool,
}

impl TransientResult {
    /// Packages the samples recorded in `ws` (consumed by `mem::take`) into
    /// a result — shared by the transient driver and the shooting engine.
    pub(crate) fn from_recorded(
        ws: &mut TransientWorkspace,
        circuit: &Circuit,
        statistics: RunStatistics,
        stop: MarchStop,
    ) -> Self {
        TransientResult {
            times: std::mem::take(&mut ws.times),
            samples: std::mem::take(&mut ws.history),
            unknowns: ws.layout.n,
            node_names: circuit.node_names().to_vec(),
            probes: ws.layout.probes.clone(),
            statistics,
            truncated: stop.truncated,
            cancelled: stop.cancelled,
        }
    }

    /// `true` when the march stopped early — because a
    /// [`SimulationBudget`] limit was reached or a
    /// [`CancelToken`] fired: the recorded trace is valid
    /// but ends before `t_stop`.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `true` when the early stop came from a fired
    /// [`CancelToken`] (in which case
    /// [`TransientResult::truncated`] is also `true`): the trace recorded
    /// up to the cancellation boundary is valid.
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// Recorded sample times (the first sample is the all-zero initial state
    /// at `t = 0`).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if nothing was recorded (never the case for a
    /// successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Final simulation time.
    pub fn final_time(&self) -> f64 {
        *self.times.last().unwrap_or(&0.0)
    }

    /// Work counters for this run.
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }

    /// The recorded solution vector at sample `k`.
    fn sample(&self, k: usize) -> &[f64] {
        &self.samples[k * self.unknowns..(k + 1) * self.unknowns]
    }

    /// The time series of global unknown `idx` across all samples.
    fn series(&self, idx: usize) -> Vec<f64> {
        (0..self.times.len()).map(|k| self.sample(k)[idx]).collect()
    }

    /// Voltage waveform of a node (all samples).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        if node.is_ground() {
            return vec![0.0; self.times.len()];
        }
        let idx = node.index() - 1;
        assert!(
            idx < self.node_names.len() - 1,
            "node {node} is not part of the simulated circuit"
        );
        self.series(idx)
    }

    /// Voltage waveform of a node looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if no node has this name.
    pub fn voltage_by_name(&self, name: &str) -> Result<Vec<f64>, MnaError> {
        let idx = self
            .node_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| MnaError::UnknownProbe(name.to_string()))?;
        if idx == 0 {
            return Ok(vec![0.0; self.times.len()]);
        }
        Ok(self.series(idx - 1))
    }

    /// Waveform of a device's extra unknown (e.g. the coil current `"i"` or
    /// the mechanical displacement `"z"` of a generator model).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if the device or the unknown name
    /// does not exist.
    pub fn probe(&self, device: &str, unknown: &str) -> Result<Vec<f64>, MnaError> {
        let (base, names) = self
            .probes
            .get(device)
            .ok_or_else(|| MnaError::UnknownProbe(format!("{device}.{unknown}")))?;
        let offset = names
            .iter()
            .position(|n| n == unknown)
            .ok_or_else(|| MnaError::UnknownProbe(format!("{device}.{unknown}")))?;
        Ok(self.series(base + offset))
    }

    /// Final value of a node voltage.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        *self.voltage(node).last().unwrap_or(&0.0)
    }

    /// Linearly interpolates a node voltage at an arbitrary time inside the
    /// recorded range (clamped outside it).
    pub fn voltage_at(&self, node: NodeId, t: f64) -> f64 {
        let v = self.voltage(node);
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return v[0];
        }
        if t >= *self.times.last().unwrap() {
            return *v.last().unwrap();
        }
        let hi = self.times.partition_point(|&ti| ti <= t);
        let (t0, t1) = (self.times[hi - 1], self.times[hi]);
        let (v0, v1) = (v[hi - 1], v[hi]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R", vin, out, 1000.0));
        c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
        (c, out)
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (c, _) = rc_circuit();
        let bad_dt = TransientAnalysis::new(TransientOptions {
            dt: 0.0,
            ..TransientOptions::default()
        });
        assert!(matches!(bad_dt.run(&c), Err(MnaError::InvalidOptions(_))));
        let bad_min = TransientAnalysis::new(TransientOptions {
            min_dt: 1.0,
            ..TransientOptions::default()
        });
        assert!(matches!(bad_min.run(&c), Err(MnaError::InvalidOptions(_))));
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        let analysis = TransientAnalysis::new(TransientOptions::default());
        assert!(matches!(analysis.run(&c), Err(MnaError::InvalidNetlist(_))));
    }

    #[test]
    fn backward_euler_and_trapezoidal_agree_on_rc() {
        let (c, out) = rc_circuit();
        let be = TransientAnalysis::new(TransientOptions {
            t_stop: 2e-3,
            dt: 1e-6,
            method: IntegrationMethod::BackwardEuler,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let tr = TransientAnalysis::new(TransientOptions {
            t_stop: 2e-3,
            dt: 1e-6,
            method: IntegrationMethod::Trapezoidal,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        assert!((be.final_voltage(out) - tr.final_voltage(out)).abs() < 1e-3);
    }

    #[test]
    fn record_interval_decimates_output() {
        let (c, _) = rc_circuit();
        let full = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-3,
            dt: 1e-6,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let decimated = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-3,
            dt: 1e-6,
            record_interval: Some(1e-4),
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        assert!(decimated.len() < full.len() / 10);
        assert!((decimated.final_time() - full.final_time()).abs() < 1e-9);
        assert!(!decimated.is_empty());
    }

    #[test]
    fn statistics_are_populated() {
        let (c, _) = rc_circuit();
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-4,
            dt: 1e-6,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let stats = result.statistics();
        assert_eq!(stats.accepted_steps, 100);
        assert!(stats.newton_iterations >= stats.accepted_steps);
        assert!(stats.linear_solves > 0);
        // The modified-Newton bypass decouples factorisations from linear
        // solves: an RC circuit has a constant Jacobian per (h, gains)
        // combination, so only the start-up step and the first regular step
        // need their own factorisation.
        assert!(stats.full_factorizations >= 1);
        assert!(
            stats.full_factorizations < stats.linear_solves / 10,
            "jacobian bypass must reuse factors on a linear circuit: \
             {} factorizations for {} solves",
            stats.full_factorizations,
            stats.linear_solves
        );
        assert!(
            stats.full_factorizations + stats.repivot_factorizations <= stats.newton_iterations
        );
    }

    #[test]
    fn probes_and_names_are_accessible() {
        let (c, out) = rc_circuit();
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-4,
            dt: 1e-6,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        assert!(result.probe("V", "i").is_ok());
        assert!(result.probe("V", "missing").is_err());
        assert!(result.probe("missing", "i").is_err());
        assert!(result.voltage_by_name("out").is_ok());
        assert!(result.voltage_by_name("nope").is_err());
        let gnd = result.voltage_by_name("gnd").unwrap();
        assert!(gnd.iter().all(|&v| v == 0.0));
        // voltage_at clamps and interpolates.
        let t_end = result.final_time();
        assert!((result.voltage_at(out, t_end * 2.0) - result.final_voltage(out)).abs() < 1e-12);
        assert_eq!(result.voltage_at(out, -1.0), 0.0);
        let mid = result.voltage_at(out, t_end / 2.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (c, _) = rc_circuit();
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-4,
            dt: 1e-4,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        assert!(result.voltage(Circuit::GROUND).iter().all(|&v| v == 0.0));
        assert_eq!(result.final_voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn auto_backend_resolves_by_system_size() {
        let (c, _) = rc_circuit();
        // The RC fixture has 3 unknowns: dense under Auto.
        let ws = TransientWorkspace::for_circuit(&c, &TransientOptions::default()).unwrap();
        assert_eq!(ws.backend(), SolverBackend::Dense);
        assert_eq!(ws.unknown_count(), 3);
        // Forcing sparse works at any size.
        let sparse_opts = TransientOptions {
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        };
        let ws = TransientWorkspace::for_circuit(&c, &sparse_opts).unwrap();
        assert_eq!(ws.backend(), SolverBackend::Sparse);
        assert_eq!(
            SolverBackend::Auto.resolve(SolverBackend::AUTO_SPARSE_THRESHOLD + 1),
            SolverBackend::Sparse
        );
        assert_eq!(SolverBackend::Dense.resolve(10_000), SolverBackend::Dense);
    }

    #[test]
    fn sparse_backend_reuses_the_symbolic_factorisation() {
        let (c, out) = rc_circuit();
        let options = TransientOptions {
            t_stop: 1e-4,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        };
        let result = TransientAnalysis::new(options).run(&c).unwrap();
        let stats = result.statistics();
        assert!(stats.linear_solves > 50);
        assert_eq!(
            stats.full_factorizations, 1,
            "only the first factorisation may do symbolic work, got {}",
            stats.full_factorizations
        );
        assert!(result.final_voltage(out) > 0.05);
    }

    #[test]
    fn workspace_reuse_across_runs_preserves_results_and_step_counts() {
        let (c, out) = rc_circuit();
        let analysis = TransientAnalysis::new(TransientOptions {
            t_stop: 2e-4,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        });
        let mut ws = TransientWorkspace::for_circuit(&c, analysis.options()).unwrap();
        let first = analysis.run_with(&c, &mut ws).unwrap();
        let second = analysis.run_with(&c, &mut ws).unwrap();
        assert_eq!(first.len(), second.len());
        assert_eq!(
            first.statistics().accepted_steps,
            second.statistics().accepted_steps
        );
        assert_eq!(
            first.statistics().rejected_steps,
            second.statistics().rejected_steps
        );
        for (a, b) in first.voltage(out).iter().zip(second.voltage(out)) {
            assert_eq!(*a, b, "workspace reuse must be bit-identical");
        }
        // The second run needs no fresh symbolic factorisation at all.
        assert_eq!(second.statistics().full_factorizations, 0);
    }

    #[test]
    fn fits_reports_reusability_and_invalidate_factors_restores_purity() {
        let (c, out) = rc_circuit();
        let sparse_opts = TransientOptions {
            t_stop: 2e-4,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        };
        let analysis = TransientAnalysis::new(sparse_opts);
        let mut ws = TransientWorkspace::for_circuit(&c, analysis.options()).unwrap();
        assert!(ws.fits(&c, analysis.options()));
        let dense_opts = TransientOptions {
            backend: SolverBackend::Dense,
            ..sparse_opts
        };
        assert!(
            !ws.fits(&c, &dense_opts),
            "a sparse workspace must not claim to fit a dense request"
        );
        let mut other = Circuit::new();
        let a = other.node("a");
        other.add(Resistor::new("R", a, Circuit::GROUND, 1.0));
        assert!(!ws.fits(&other, analysis.options()));

        // After invalidation the next run redoes the full factorisation and
        // reproduces a fresh workspace's result bit for bit.
        let fresh = analysis.run(&c).unwrap();
        let _ = analysis.run_with(&c, &mut ws).unwrap();
        ws.invalidate_factors();
        let rerun = analysis.run_with(&c, &mut ws).unwrap();
        assert_eq!(
            rerun.statistics().full_factorizations,
            fresh.statistics().full_factorizations
        );
        for (a, b) in fresh.voltage(out).iter().zip(rerun.voltage(out)) {
            assert_eq!(*a, b, "invalidated workspace must behave like a fresh one");
        }
    }

    #[test]
    fn mismatched_workspace_is_rejected() {
        let (c, _) = rc_circuit();
        let mut other = Circuit::new();
        let a = other.node("a");
        other.add(Resistor::new("R", a, Circuit::GROUND, 1.0));
        let analysis = TransientAnalysis::new(TransientOptions::default());
        let mut ws = TransientWorkspace::for_circuit(&other, analysis.options()).unwrap();
        assert!(matches!(
            analysis.run_with(&c, &mut ws),
            Err(MnaError::InvalidOptions(_))
        ));
        // Same node and device counts but a different per-device layout
        // (the voltage source adds an extra unknown the resistor does not).
        let mut with_source = Circuit::new();
        let b = with_source.node("a");
        with_source.add(VoltageSource::new(
            "V",
            b,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        assert!(matches!(
            analysis.run_with(&with_source, &mut ws),
            Err(MnaError::InvalidOptions(_))
        ));
    }

    #[test]
    fn workspace_backend_must_match_the_requested_backend() {
        let (c, _) = rc_circuit();
        let dense_ws_opts = TransientOptions::default(); // Auto → Dense at n = 3
        let mut ws = TransientWorkspace::for_circuit(&c, &dense_ws_opts).unwrap();
        let sparse_analysis = TransientAnalysis::new(TransientOptions {
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        });
        assert!(matches!(
            sparse_analysis.run_with(&c, &mut ws),
            Err(MnaError::InvalidOptions(_))
        ));
    }

    #[test]
    fn rewired_circuit_with_identical_layout_is_rejected_not_panicked() {
        fn chain(bridge: bool) -> Circuit {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let mid = c.node("mid");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "V",
                vin,
                Circuit::GROUND,
                Waveform::dc(1.0),
            ));
            c.add(Resistor::new("R1", vin, mid, 100.0));
            // Same devices and layout, but R2 couples a different node pair.
            if bridge {
                c.add(Resistor::new("R2", vin, out, 100.0));
            } else {
                c.add(Resistor::new("R2", mid, out, 100.0));
            }
            c.add(Resistor::new("R3", out, Circuit::GROUND, 100.0));
            c
        }
        let analysis = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-5,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        });
        let original = chain(false);
        let mut ws = TransientWorkspace::for_circuit(&original, analysis.options()).unwrap();
        assert!(analysis.run_with(&original, &mut ws).is_ok());
        let rewired = chain(true);
        assert!(matches!(
            analysis.run_with(&rewired, &mut ws),
            Err(MnaError::InvalidOptions(_))
        ));
    }

    #[test]
    fn residual_tolerance_accepts_stalled_but_balanced_steps() {
        let (c, out) = rc_circuit();
        // One Newton iteration is enough to *solve* this linear circuit but
        // not enough to satisfy the delta criterion, so acceptance must come
        // from the residual criterion.
        let accepted = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-5,
            dt: 1e-6,
            max_newton_iterations: 1,
            residual_tolerance: f64::INFINITY,
            min_dt: 1e-9,
            ..TransientOptions::default()
        })
        .run(&c);
        assert!(accepted.is_ok());
        assert!(accepted.unwrap().final_voltage(out).is_finite());
        // With a tiny residual tolerance the same budget fails the step.
        let rejected = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-5,
            dt: 1e-6,
            max_newton_iterations: 1,
            residual_tolerance: 1e-30,
            min_dt: 1e-9,
            ..TransientOptions::default()
        })
        .run(&c);
        assert!(matches!(rejected, Err(MnaError::StepFailed { .. })));
    }

    #[test]
    fn result_layout_is_unchanged_by_flat_history_storage() {
        let (c, out) = rc_circuit();
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-4,
            dt: 1e-6,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        // One sample per accepted step plus the initial state.
        assert_eq!(result.len(), result.statistics().accepted_steps + 1);
        assert_eq!(result.times()[0], 0.0);
        // Every per-unknown series has exactly one value per sample.
        assert_eq!(result.voltage(out).len(), result.len());
        assert_eq!(result.probe("V", "i").unwrap().len(), result.len());
        assert_eq!(result.voltage_by_name("out").unwrap().len(), result.len());
        // The initial sample is the all-zero operating point.
        assert_eq!(result.voltage(out)[0], 0.0);
        assert_eq!(result.probe("V", "i").unwrap()[0], 0.0);
        // Interior samples are genuine per-step values, not aliases.
        let v = result.voltage(out);
        assert!(v[1] < v[result.len() - 1]);
    }

    #[test]
    fn adaptive_options_are_validated_with_actionable_messages() {
        let (c, _) = rc_circuit();
        for (control, needle) in [
            (
                StepControl::Adaptive {
                    reltol: 0.0,
                    abstol: 1e-6,
                    max_dt: 1e-3,
                },
                "reltol",
            ),
            (
                StepControl::Adaptive {
                    reltol: 1e-3,
                    abstol: -1.0,
                    max_dt: 1e-3,
                },
                "abstol",
            ),
            (
                StepControl::Adaptive {
                    reltol: 1e-3,
                    abstol: 1e-6,
                    max_dt: 1e-9,
                },
                "max_dt",
            ),
            (
                StepControl::Adaptive {
                    reltol: f64::NAN,
                    abstol: 1e-6,
                    max_dt: 1e-3,
                },
                "reltol",
            ),
        ] {
            let analysis = TransientAnalysis::new(TransientOptions {
                step_control: control,
                ..TransientOptions::default()
            });
            match analysis.run(&c) {
                Err(MnaError::InvalidOptions(msg)) => {
                    assert!(msg.contains(needle), "message {msg:?} must name {needle}")
                }
                other => panic!("expected InvalidOptions naming {needle}, got {other:?}"),
            }
        }
        // Infinite max_dt is explicitly legal.
        let ok = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-4,
            step_control: StepControl::adaptive(),
            ..TransientOptions::default()
        })
        .run(&c);
        assert!(ok.is_ok());
    }

    #[test]
    fn adaptive_rc_takes_far_fewer_steps_at_matching_accuracy() {
        let (c, out) = rc_circuit();
        let base = TransientOptions {
            t_stop: 2e-3,
            dt: 1e-6,
            ..TransientOptions::default()
        };
        let fixed = TransientAnalysis::new(base).run(&c).unwrap();
        let adaptive = TransientAnalysis::new(TransientOptions {
            step_control: StepControl::adaptive(),
            ..base
        })
        .run(&c)
        .unwrap();
        let fs = fixed.statistics();
        let us = adaptive.statistics();
        assert!(
            us.accepted_steps * 4 < fs.accepted_steps,
            "adaptive must grow past the nominal dt on this smooth circuit: {} vs {}",
            us.accepted_steps,
            fs.accepted_steps
        );
        assert!(
            us.newton_iterations * 3 < fs.newton_iterations,
            "adaptive must spend far fewer Newton iterations: {} vs {}",
            us.newton_iterations,
            fs.newton_iterations
        );
        assert!(us.predicted_steps > 0, "predictor must engage");
        // v(t) = 1 − e^(−t/RC): compare both against the analytic solution.
        let rc = 1e3 * 1e-6;
        for (&t, v) in adaptive.times().iter().zip(adaptive.voltage(out)) {
            let exact = 1.0 - (-t / rc).exp();
            assert!(
                (v - exact).abs() < 2e-3,
                "adaptive trace must stay accurate at t={t}: {v} vs {exact}"
            );
        }
        assert_eq!(fixed.statistics().lte_rejections, 0);
        assert_eq!(fixed.statistics().predicted_steps, 0);
    }

    #[test]
    fn adaptive_dense_output_lands_on_the_uniform_grid() {
        let (c, out) = rc_circuit();
        let interval = 1e-4;
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-3,
            dt: 1e-6,
            record_interval: Some(interval),
            step_control: StepControl::adaptive(),
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let times = result.times();
        assert_eq!(times[0], 0.0);
        // Every interior sample sits exactly on a grid multiple.
        for &t in &times[1..times.len() - 1] {
            let k = (t / interval).round();
            assert!(
                (t - k * interval).abs() < 1e-18,
                "sample {t} must lie on the {interval}-grid"
            );
        }
        // The final accepted point is always recorded, exactly at t_stop.
        assert_eq!(result.final_time(), 1e-3);
        // The interpolated values track the analytic solution.
        let rc = 1e3 * 1e-6;
        for (&t, v) in times.iter().zip(result.voltage(out)) {
            let exact = 1.0 - (-t / rc).exp();
            assert!((v - exact).abs() < 2e-3, "at t={t}: {v} vs {exact}");
        }
    }

    #[test]
    fn adaptive_steps_land_exactly_on_pulse_edges() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let pulse = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 3e-4,
            rise: 1e-5,
            fall: 1e-5,
            width: 2e-4,
            period: 0.0,
        };
        let mut edges = Vec::new();
        pulse.breakpoints(1e-3, &mut edges);
        assert_eq!(edges.len(), 4);
        c.add(VoltageSource::new("V", vin, Circuit::GROUND, pulse));
        c.add(Resistor::new("R", vin, out, 1e3));
        c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-7));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-3,
            dt: 1e-6,
            step_control: StepControl::adaptive(),
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let times = result.times();
        for &edge in &edges {
            assert!(
                times.contains(&edge),
                "an accepted step must land exactly on the pulse edge at {edge}"
            );
            assert!(
                !times
                    .iter()
                    .any(|&t| t > edge - 1e-12 && t < edge + 1e-12 && t != edge),
                "no step may straddle the edge at {edge}"
            );
        }
    }

    #[test]
    fn fixed_final_sample_is_always_recorded() {
        let (c, out) = rc_circuit();
        // Awkward t_stop / dt / record_interval combinations where the
        // uniform march lands off-grid near the end.
        for (t_stop, dt, interval) in [
            (7.3e-4, 1e-6, Some(1e-4)),
            (1e-3 * (1.0 + 1e-13), 1e-6, Some(1e-4)),
            (9.99999e-4, 3e-6, Some(2.5e-4)),
        ] {
            let result = TransientAnalysis::new(TransientOptions {
                t_stop,
                dt,
                record_interval: interval,
                ..TransientOptions::default()
            })
            .run(&c)
            .unwrap();
            let expected_end = *result.times().last().unwrap();
            assert!(
                (expected_end - t_stop).abs() <= 1e-9 * t_stop,
                "final sample {expected_end} must sit at t_stop {t_stop}"
            );
            assert!(result.final_voltage(out).is_finite());
        }
    }

    #[test]
    fn run_statistics_merge_accumulates_every_counter() {
        let a = RunStatistics {
            accepted_steps: 1,
            rejected_steps: 2,
            newton_iterations: 3,
            linear_solves: 4,
            full_factorizations: 5,
            repivot_factorizations: 8,
            lte_rejections: 6,
            predicted_steps: 7,
            shooting_iterations: 9,
            integrated_cycles: 10,
            gmres_fallbacks: 11,
            brute_force_fallbacks: 12,
            homotopy_escalations: 13,
            recovery_retries: 14,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.accepted_steps, 2);
        assert_eq!(b.rejected_steps, 4);
        assert_eq!(b.newton_iterations, 6);
        assert_eq!(b.linear_solves, 8);
        assert_eq!(b.full_factorizations, 10);
        assert_eq!(b.repivot_factorizations, 16);
        assert_eq!(b.lte_rejections, 12);
        assert_eq!(b.predicted_steps, 14);
        assert_eq!(b.shooting_iterations, 18);
        assert_eq!(b.integrated_cycles, 20);
        assert_eq!(b.gmres_fallbacks, 22);
        assert_eq!(b.brute_force_fallbacks, 24);
        assert_eq!(b.homotopy_escalations, 26);
        assert_eq!(b.recovery_retries, 28);
    }

    #[test]
    fn default_stamp_pattern_falls_back_to_a_dense_pattern() {
        /// A device that does not override `stamp_pattern`.
        struct OpaqueConductor {
            a: NodeId,
            b: NodeId,
        }
        impl crate::device::Device for OpaqueConductor {
            fn name(&self) -> &str {
                "opaque"
            }
            fn stamp(&self, ctx: &mut StampContext<'_>) {
                ctx.stamp_conductance(self.a, self.b, 1e-2);
            }
        }
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(OpaqueConductor { a: vin, b: out });
        c.add(Resistor::new("R", out, Circuit::GROUND, 100.0));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 1e-5,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        // Voltage divider: 100 Ω over (100 Ω + 100 Ω).
        assert!((result.final_voltage(out) - 0.5).abs() < 1e-9);
    }
}
