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
//! # The Newton solve
//!
//! One damped-Newton loop solves every nonlinear system of the engine: each
//! time step, each leg of the [`RecoveryPolicy`] cascade, and each stage of
//! the DC operating point ([`crate::analysis`]), whose gmin stepping and the
//! recovery's gmin leg are one ramp. The rules are the same for all of them:
//!
//! * a solve stamps the circuit unmodified, with a shunt conductance `gmin`
//!   from every node to ground, or with the source-stepping offset `−w·f₀`
//!   on the residual; junction limiting is part of the stamp point;
//! * each update is capped at `max(1, 0.1·‖x‖∞)` in the infinity norm, which
//!   tames exponential junction overshoot while a high-voltage rail still
//!   converges in `O(log)` iterations from a cold start;
//! * a solve converges once its capped update is at most
//!   `delta_tolerance·(1 + ‖x‖∞)`; one whose updates stall is still accepted
//!   if the residual at its last iterate is within `residual_tolerance`;
//! * a non-finite residual ends the solve unaccepted before anything is
//!   factored;
//! * only time steps reuse a factored Jacobian across iterations (the
//!   modified-Newton bypass of [`TransientOptions::reuse_jacobian`]);
//!   recovery legs and operating-point stages factor on every iteration;
//! * under the bypass every step solve, on either grid, follows one
//!   iteration policy (classical full Newton, `reuse_jacobian = false`,
//!   starts a fixed-grid step from the previous solution instead, and stops
//!   on the update alone):
//!   - it starts from the divided-difference extrapolation of the last
//!     accepted states, of order at most the method's (the ring restarts at
//!     each march start and after a recovered step);
//!   - it reuses the previous step's factors until one step of the march
//!     has refactored after an iteration on stale factors; from then on
//!     every predicted step stamps and factors its Jacobian at the
//!     prediction on its first iteration (on a linear circuit reuse never
//!     fails, so its steps keep back-substituting through the same
//!     factors);
//!   - with θ = ‖δₖ‖/‖δₖ₋₁‖ the observed contraction between undamped
//!     updates, it refactors when θ of a stale iteration exceeds ½ or
//!     predicts more than two further iterations to the tolerance
//!     (`θ²·‖δₖ‖` above it), after four stale iterations, and when a stale
//!     back-substitution fails;
//!   - it also converges once `θ < ½` and the estimated error left,
//!     `θ/(1 − θ)·‖δₖ‖`, is within `delta_tolerance·(1 + ‖x‖∞)`. The
//!     accepted point then meets `delta_tolerance` by estimate, where a
//!     last full-Newton update usually leaves the error far below it (see
//!     [`TransientOptions::delta_tolerance`]);
//! * an iteration decides before it assembles whether it will factor, and
//!   only one that does stamps the Jacobian: an iteration on stale factors
//!   assembles the residual alone (counted in
//!   [`RunStatistics::jacobian_assemblies`]);
//! * the final assembly at the accepted iterate stamps the Jacobian only
//!   for a march that hands its accepted steps to a hook (the shooting
//!   engine's sensitivity bank factors it); everywhere else it computes
//!   just the residual and the device states to commit.
//!
//! # Time stepping
//!
//! One marching loop serves every time integration: `.tran` runs under
//! either [`StepControl`], and the shooting engine's warm-up and periods
//! ([`crate::shooting`]). [`StepControl`] pins or frees its step
//! controller:
//!
//! * **Fixed stepping** lands on the uniform grid `t_k = k·dt`, computed by
//!   index rather than accumulated, for `k < K = max(1, round(t_stop/dt))`,
//!   and on `t_stop` itself at `k = K` (the last step absorbs a remainder
//!   under 1.5·`dt`). A Newton failure halves the step *inside* the current
//!   grid interval, and accepted sub-steps regrow it ×2 up to that
//!   interval's end, so the grid never shifts. Only grid landings are
//!   recorded: a trace is uniformly sampled by construction, whatever
//!   Newton went through.
//! * **Adaptive stepping** sizes steps by local-truncation-error control and
//!   lands exactly on every source breakpoint.
//!
//! With [`TransientOptions::record_interval`] set, samples follow the
//! indexed grid `j·interval` under both: a fixed run records the grid
//! landing at which each sample falls due, an adaptive run interpolates it.
//!
//! # Solver backends
//!
//! The Newton Jacobian is one [`LinearSystem`]: the type that owns its dense
//! or sparse storage, its cached factors and the one factor policy, and
//! reports every factorisation as full, refactorisation or re-pivot
//! ([`RunStatistics::full_factorizations`],
//! [`RunStatistics::refactorizations`],
//! [`RunStatistics::repivot_factorizations`]). [`TransientOptions::backend`]
//! picks the storage:
//!
//! * [`SolverBackend::Dense`] — dense LU with partial pivoting, factored
//!   afresh every time. A little slower than sparse even on a small `.tran`
//!   run (`bench/baselines/BENCH_solver.json` times the 6-stage Villard
//!   harvester), and not the faster backend of the GA fitness, although
//!   that circuit has only 14 unknowns: its shooting periods back-substitute
//!   through every banked factorisation once per GMRES matvec, and there
//!   the sparse refactorisation and solve win (`fitness_ratio` in
//!   `bench/baselines/BENCH_pss.json`).
//! * [`SolverBackend::Sparse`] — CSR storage over the fixed MNA sparsity
//!   pattern. The first factorisation computes the symbolic analysis (pivot
//!   order, fill pattern, scatter map, elimination program) **once per
//!   circuit**; every later Newton iteration and time step refactors on it,
//!   re-pivoting only where a stored pivot goes numerically stale. The
//!   pattern is derived from the devices' own stamps: one assembly at the
//!   zero iterate records every position written (see
//!   [`Device::stamp`](crate::device::Device::stamp) for the contract that
//!   makes this sound). Each stamp lands on a CSR slot bound to its position
//!   in the stamp sequence once per workspace, so assembly does no
//!   searching.
//! * [`SolverBackend::Auto`] (the default) picks dense below
//!   [`SolverBackend::AUTO_SPARSE_THRESHOLD`] unknowns and sparse above it.
//!
//! All per-run buffers — the system matrix, RHS, Newton update, candidate
//! solution, history — live in a [`TransientWorkspace`] that is allocated
//! once per run (or once per *sweep*, via
//! [`TransientAnalysis::run_with`]) and reused across all steps.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, NodeId};
use crate::device::{assemble, JacobianView, StampPoint, StampSlots};
use crate::error::{ConvergenceReport, RecoveryStrategy};
use crate::MnaError;
use harvester_numerics::extrap::{divided_differences, extrapolate_rows, newton_eval};
use harvester_numerics::fault::{Fault, FaultInjector};
use harvester_numerics::linalg::{norm_inf, Matrix};
use harvester_numerics::system::{Factorisation, LinearSystem, Storage};
use std::collections::HashMap;
use std::ops::Range;

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
/// (pivot order + fill pattern + elimination program) once per circuit and
/// then refactoring numerically in `O(nnz)` per iteration, while the dense
/// backend redoes an `O(n³)` factorisation each time — hopeless for large
/// `n`, and faster only for small transient runs: shooting, which replays
/// every banked factorisation once per GMRES matvec, already favours sparse
/// on the 14-unknown GA fitness (see the [module docs](self)).
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
    /// densely; above it the `O(n³)` dense cost takes over. The crossover
    /// is a measurement: `cargo bench -p harvester-bench --bench solver`
    /// records the sparse backend's speed relative to dense
    /// (`sparse_speedup`) on either side of it, and
    /// `bench/baselines/BENCH_solver.json` holds the reviewed figures.
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
/// [`StepControl::Fixed`] (the default) is the marching loop's pinned
/// controller (see the [module docs](self#time-stepping)): it lands on the
/// indexed grid `t_k = k·dt` of the nominal [`TransientOptions::dt`] and
/// finally on `t_stop`, halving the step only when Newton fails and only
/// inside the current grid interval, so a failure never shifts a later
/// sample off the grid. The predictor only warm-starts Newton (no LTE
/// control; classical full Newton pins it at order 0), source breakpoints
/// are not stepped onto, and only grid landings are recorded: the trace is
/// uniformly sampled by construction, as THD analysis over an FFT-style
/// window (Fig. 7) needs.
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
///   `err^(−1/(order+1))` controller, never below
///   [`TransientOptions::min_dt`] and with no upper cap — in particular it
///   grows **past** the nominal `dt` on smooth stretches, which is where the
///   speed-up comes from;
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
    /// Land on every point of the uniform `k·dt` grid; halve only on Newton
    /// failure, inside the current grid interval, and record grid landings
    /// only.
    #[default]
    Fixed,
    /// Predictor–corrector LTE-controlled stepping down to
    /// [`TransientOptions::min_dt`]; growth is bounded by the LTE controller
    /// and the breakpoint/stop-time geometry alone.
    Adaptive {
        /// Relative LTE tolerance per unknown (dimensionless, > 0). The
        /// engine-recommended default is [`StepControl::DEFAULT_RELTOL`].
        reltol: f64,
        /// Absolute LTE floor per unknown (> 0), in the unknown's own unit
        /// (volts, amperes, metres, …). Protects unknowns sitting near zero
        /// from an impossible pure-relative criterion.
        abstol: f64,
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
///    it from [`GMIN_START`](crate::analysis::GMIN_START) down by a decade
///    per stage over ten stages (the operating point's gmin stepping, run
///    on the step); each stage's solution seeds the next, and only the
///    final `gmin = 0` solution (an exact solution of the unmodified
///    system) is ever committed.
/// 2. **junction limiting** ([`RecoveryPolicy::junction_limiting`]) —
///    re-solve the failing step with SPICE-style junction-voltage limiting
///    at 0.8 V in the junction-device stamps (see
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
/// The default policy is **fully disabled**: a failed step that exhausts
/// halving fails with the bare [`MnaError::StepFailed`], and no recovery
/// leg ever touches a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Enable the transient gmin-ramp recovery leg.
    pub gmin_ramp: bool,
    /// Enable the junction-limiting recovery leg.
    pub junction_limiting: bool,
    /// Fail with a structured [`ConvergenceReport`] instead of the bare
    /// [`MnaError::StepFailed`] when the whole cascade is exhausted.
    pub detailed_report: bool,
}

/// Number of shrinking gmin stages of the recovery ramp (each divides
/// `gmin` by 10) before the final exact `gmin = 0` solve.
const RECOVERY_GMIN_STAGES: usize = 10;

/// Junction-voltage limit (volts) of the junction-limiting leg. Any limit
/// at or above the usual forward drop (0.8 V covers every silicon junction
/// in the fixture set) is solution-exact: the converged junction voltages
/// sit inside the limit, where the limited and unlimited models are
/// identical.
const RECOVERY_JUNCTION_LIMIT: f64 = 0.8;

impl RecoveryPolicy {
    /// The fully disabled policy (the default): bare `StepFailed` on
    /// exhausted step halving.
    pub fn none() -> Self {
        RecoveryPolicy {
            gmin_ramp: false,
            junction_limiting: false,
            detailed_report: false,
        }
    }

    /// Every recovery leg enabled, with structured failure reports.
    pub fn aggressive() -> Self {
        RecoveryPolicy {
            gmin_ramp: true,
            junction_limiting: true,
            detailed_report: true,
        }
    }

    /// `true` when any part of the policy changes the failure path (a
    /// recovery leg or the structured report).
    pub(crate) fn is_enabled(&self) -> bool {
        self.gmin_ramp || self.junction_limiting || self.detailed_report
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
/// The marching loop checks the budget between steps: a run that reaches a
/// limit stops marching, keeps everything recorded so far and returns a
/// result flagged [`TransientResult::truncated`] instead of running
/// unbounded (a limit can be overshot by at most the work of the step in
/// flight). [`AnalysisEngine::run_budgeted`](crate::analysis::AnalysisEngine::run_budgeted)
/// additionally enforces a budget across a whole plan at card boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimulationBudget {
    /// Largest total Newton iteration count, or `None` for no limit.
    pub max_newton_iterations: Option<usize>,
    /// Largest total numeric factorisation count
    /// ([`RunStatistics::factorizations`]: full, re-pivoting and sparse
    /// refactorisations alike, so it bounds the same work on either
    /// backend), or `None`.
    pub max_factorizations: Option<usize>,
    /// Largest accepted-step count, or `None`.
    pub max_accepted_steps: Option<usize>,
}

impl SimulationBudget {
    /// No limits at all — the default.
    pub const UNLIMITED: SimulationBudget = SimulationBudget {
        max_newton_iterations: None,
        max_factorizations: None,
        max_accepted_steps: None,
    };

    /// `true` when no limit is set (budget checks short-circuit away).
    pub(crate) fn is_unlimited(&self) -> bool {
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
            .is_some_and(|m| stats.factorizations() >= m)
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
    pub(crate) fn remaining_after(&self, stats: &RunStatistics) -> SimulationBudget {
        SimulationBudget {
            max_newton_iterations: self
                .max_newton_iterations
                .map(|m| m.saturating_sub(stats.newton_iterations)),
            max_factorizations: self
                .max_factorizations
                .map(|m| m.saturating_sub(stats.factorizations())),
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
    /// Relative convergence tolerance on the Newton update: a step converges
    /// once its capped update is at most `delta_tolerance·(1 + ‖x‖∞)`.
    ///
    /// With [`TransientOptions::reuse_jacobian`] a step also converges once
    /// the observed contraction puts the error left after its last update
    /// within that bound (see the [module docs](self#the-newton-solve)), so
    /// a step is accurate to about `delta_tolerance` relative, where the
    /// last, quadratically shrunk update of classical full Newton usually
    /// leaves it far below. Against classical full Newton at `1e-12`, the
    /// worst relative sample deviation of the shipped Villard and
    /// transformer `.tran` cards reads 2.2e-9 and 2.8e-8 at the default
    /// `1e-9` (2.5e-10 and 1.6e-10 under classical full Newton): no longer
    /// far below this tolerance.
    pub delta_tolerance: f64,
    /// Convergence tolerance on the residual (infinity norm); used as a
    /// secondary acceptance criterion.
    pub residual_tolerance: f64,
    /// Smallest step the automatic step-halving recovery may use; the
    /// analysis fails with [`MnaError::StepFailed`] below this.
    pub min_dt: f64,
    /// Optional sample spacing (positive and finite) of the recorded trace:
    /// samples fall due on the indexed grid `j·interval`. `None` records
    /// every grid landing under [`StepControl::Fixed`] and every accepted
    /// step under [`StepControl::Adaptive`]. With an interval set, a fixed
    /// run records the grid landing at which each sample falls due (an
    /// interval that is a multiple of `dt` keeps every sample on both
    /// grids) and an adaptive run interpolates each sample densely. For
    /// long runs a coarser interval keeps the result memory bounded.
    pub record_interval: Option<f64>,
    /// Linear-solver backend for the Newton systems.
    pub backend: SolverBackend,
    /// Time-step control policy: fixed stepping on the uniform `k·dt` grid
    /// (the default; a Newton failure never moves a sample off it) or
    /// LTE-controlled adaptive stepping ([`StepControl::Adaptive`]).
    pub step_control: StepControl,
    /// Modified-Newton Jacobian bypass (the default): reuse the factored
    /// Jacobian across Newton iterations — and across nearby accepted steps
    /// taken at (nearly) the same step size — refactoring only when the
    /// observed Newton contraction turns slow (a convergence-rate test) or
    /// the companion-model gains change. Every step then starts from the
    /// polynomial predictor, on the fixed grid too, and stops on the
    /// contraction estimate as well as on the update (the policy in the
    /// [module docs](self#the-newton-solve)). The Newton *fixed point* is
    /// unchanged (the residual is always exact), only the iteration path,
    /// so converged results agree to the Newton tolerances while
    /// [`RunStatistics::full_factorizations`] decouples from
    /// [`RunStatistics::newton_iterations`]. Set to `false` to refactor on
    /// every iteration and, on the fixed grid, to start every step from the
    /// previous solution (classical full Newton).
    pub reuse_jacobian: bool,
    /// Convergence-recovery escalation once step halving is exhausted.
    /// Disabled by default ([`RecoveryPolicy::none`]): a step that exhausts
    /// halving fails with the bare [`MnaError::StepFailed`].
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
        if let Some(interval) = self.record_interval {
            crate::options::positive_finite("record_interval", interval)?;
        }
        if self.min_dt <= 0.0 || self.min_dt > self.dt {
            return Err(crate::options::invalid(
                "min_dt must be positive and no larger than dt",
            ));
        }
        if let StepControl::Adaptive { reltol, abstol } = self.step_control {
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
        }
        Ok(())
    }

    /// The settings of this run's step solves.
    fn step_newton(&self) -> NewtonSettings {
        NewtonSettings {
            max_iterations: self.max_newton_iterations,
            delta_tolerance: self.delta_tolerance,
            residual_tolerance: self.residual_tolerance,
            reuse_jacobian: self.reuse_jacobian,
            fault: Some(Fault::NanResidual),
            commit_jacobian: false,
        }
    }
}

/// What a Newton solve adds to the assembled system (see the
/// [module docs](self#the-newton-solve)).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Homotopy<'a> {
    /// The circuit as stamped.
    None,
    /// A shunt conductance (siemens) from every node to ground.
    Gmin(f64),
    /// The source-stepping residual `f(x) − w·f₀`.
    Source { f0: &'a [f64], w: f64 },
}

/// How one Newton solve iterates and when it stops (see
/// [`TransientWorkspace::newton`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonSettings {
    /// Iteration budget of the solve.
    pub(crate) max_iterations: usize,
    /// Converged once the capped update is at most
    /// `delta_tolerance·(1 + ‖x‖∞)`.
    pub(crate) delta_tolerance: f64,
    /// A stalled solve is still accepted at this residual norm.
    pub(crate) residual_tolerance: f64,
    /// The modified-Newton bypass ([`TransientOptions::reuse_jacobian`]):
    /// step solves only.
    pub(crate) reuse_jacobian: bool,
    /// The fault consulted on every unmodified assembly, if any.
    pub(crate) fault: Option<Fault>,
    /// Whether the assembly at the accepted iterate stamps the Jacobian
    /// too, for a caller that reads it (the shooting engine's step hook).
    pub(crate) commit_jacobian: bool,
}

/// Declares [`RunStatistics`] from one list of documented `usize`
/// counters: the struct, [`RunStatistics::merge`] and the name/value
/// accessors [`RunStatistics::counters`] and [`RunStatistics::counters_mut`]
/// all expand from it, so a new counter is one entry.
macro_rules! run_statistics {
    (
        $(#[$meta:meta])*
        pub struct RunStatistics {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        pub struct RunStatistics {
            $($(#[$doc])* pub $field: usize,)*
        }

        impl RunStatistics {
            /// Number of counters.
            pub const COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Accumulates another run's counters into this one — used to
            /// aggregate the work of a multi-transient experiment (e.g. the
            /// envelope simulator's per-grid-voltage runs) into a single
            /// budget line.
            pub fn merge(&mut self, other: &RunStatistics) {
                $(self.$field += other.$field;)*
            }

            /// Every counter as a `(field name, value)` pair, in declaration
            /// order — the counter columns of the `BENCH_*.json` artefacts.
            pub fn counters(&self) -> [(&'static str, usize); Self::COUNTERS] {
                [$((stringify!($field), self.$field)),*]
            }

            /// As [`RunStatistics::counters`], with every value writable.
            pub fn counters_mut(&mut self) -> [(&'static str, &mut usize); Self::COUNTERS] {
                [$((stringify!($field), &mut self.$field)),*]
            }
        }
    };
}

run_statistics! {
    /// Counters describing the work a transient run performed; used by the
    /// CPU-time experiments that reproduce the paper's "GA accounts for < 3 % of
    /// the CPU time" breakdown.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RunStatistics {
        /// Accepted time steps.
        accepted_steps,
        /// Steps rejected because **Newton failed to converge** (halved and
        /// retried). Steps that Newton solved but the LTE controller refused are
        /// counted separately in [`RunStatistics::lte_rejections`]; the two
        /// counters never overlap, so their sum is the total number of retried
        /// steps.
        rejected_steps,
        /// Total Newton iterations across all steps.
        newton_iterations,
        /// Total linear solves (back-substitutions against a factorisation):
        /// one per Newton iteration, plus the shooting engine's replays of its
        /// banked period chain (one back-substitution per in-period step): one
        /// replay per GMRES matvec, and `n` replays per LU fallback of the
        /// closure update.
        linear_solves,
        /// Numeric factorisations that rebuilt the factors wholesale: every
        /// dense LU (dense factors have no symbolic reuse) and, on the sparse
        /// backend, the first factorisation of a workspace or after a failed one
        /// dropped the factors. Later sparse factorisations reuse its pivot
        /// order and fill pattern and are counted in
        /// [`RunStatistics::refactorizations`]; stale-pivot *recoveries* are
        /// counted in [`RunStatistics::repivot_factorizations`]. The three
        /// together ([`RunStatistics::factorizations`]) count every numeric
        /// factorisation on either backend.
        ///
        /// # Counter contract
        ///
        /// With the modified-Newton Jacobian bypass
        /// ([`TransientOptions::reuse_jacobian`], the default) a factorisation
        /// happens only on the first iteration of an incompatible step or of a
        /// step factored at its prediction, or after a convergence-rate
        /// refactor, never once per iteration, so for a plain transient run
        ///
        /// ```text
        /// full_factorizations + repivot_factorizations + refactorizations
        ///     ≤ newton_iterations
        /// ```
        ///
        /// holds on every backend (each factorisation is provoked by exactly one
        /// Newton iteration), and the total is the same on both backends when
        /// their Newton iterations are. Periodic-steady-state runs add **one
        /// factorisation per accepted in-period step** on top (the sensitivity
        /// chain factors the converged step Jacobian outside any Newton
        /// iteration), so the bound there is `newton_iterations +
        /// accepted_steps`.
        full_factorizations,
        /// Sparse factorisations that had usable factors but whose stored pivot
        /// order went numerically stale, forcing a re-pivoting factorisation
        /// (a [`Factorisation::Repivot`] of the [`LinearSystem`] factor
        /// policy). Split from
        /// [`RunStatistics::full_factorizations`] because the two mean different
        /// things in perf triage: a climbing cold-start count points at workspace
        /// reuse being defeated, a climbing re-pivot count at numerically
        /// volatile matrices. Always zero on the dense backend.
        repivot_factorizations,
        /// Sparse numeric refactorisations: factorisations that reused the
        /// stored symbolic analysis (pivot order, fill pattern and elimination
        /// program) of an earlier one and only recomputed the values
        /// ([`SparseLu::refactor`](harvester_numerics::sparse::SparseLu::refactor)).
        /// Always zero on the dense backend, whose every factorisation counts
        /// in [`RunStatistics::full_factorizations`].
        refactorizations,
        /// Assemblies that stamped a Jacobian, counted where they happen: a
        /// Newton iteration about to factor (or its stale-solve retry), a
        /// Newton solve's final assembly when a step hook reads it, the
        /// shooting engine's `W` extractions, and the AC analysis's two
        /// small-signal linearisations. Every other assembly computes only
        /// the residual and the device states.
        ///
        /// Each Newton assembly that stamps is followed by one factorisation,
        /// so a `.tran` run whose factorisations all succeed reads
        /// `jacobian_assemblies == factorizations()` on either backend, with
        /// or without [`TransientOptions::reuse_jacobian`]; with it, the
        /// count sits below [`RunStatistics::newton_iterations`] by the
        /// iterations that back-substituted through stale factors.
        jacobian_assemblies,
        /// Steps that converged in Newton but were rejected (and retried
        /// smaller) because the estimated local truncation error exceeded the
        /// [`StepControl::Adaptive`] tolerances. Always zero under
        /// [`StepControl::Fixed`]. See [`RunStatistics::rejected_steps`] for the
        /// Newton-failure counter this is split from.
        lte_rejections,
        /// Accepted steps whose Newton iteration was warm-started from a
        /// polynomial predictor of order ≥ 1 (i.e. at least two accepted states
        /// of history were available), on either grid. Always zero under
        /// [`StepControl::Fixed`] with [`TransientOptions::reuse_jacobian`]
        /// off: classical full Newton starts each fixed-grid step from the
        /// previous solution.
        predicted_steps,
        /// Shooting-Newton closure updates applied by the periodic steady-state
        /// engine ([`crate::shooting::SteadyStateAnalysis`]). Zero for plain
        /// transients.
        shooting_iterations,
        /// Full excitation periods integrated in pursuit of a periodic steady
        /// state: warm-up plus one per shooting iteration for the PSS engine,
        /// and `settle + measure` cycles per measurement for brute-force
        /// envelope settling (accounted by the envelope simulator). This is the
        /// headline work metric of the shooting engine — the same cycle-averaged
        /// measurement at a fraction of the integrated cycles.
        integrated_cycles,
        /// Shooting closure solves whose GMRES iteration stagnated or exhausted
        /// its matvec budget and fell back to forming the monodromy matrix (`n`
        /// banked-chain propagations) and solving by LU. A healthy damped
        /// circuit keeps this low; a climbing count says the closure spectrum
        /// is not clustering and the Krylov budget is mis-sized for the
        /// workload.
        gmres_fallbacks,
        /// Envelope measurements that fell back from the shooting engine to
        /// brute-force settling because the orbit would not close (accounted by
        /// the envelope simulator). Each one trades a handful of integrated
        /// cycles for dozens.
        brute_force_fallbacks,
        /// Operating-point homotopy escalations: +1 each time the Direct solve
        /// hands over to gmin stepping, and +1 again when gmin stepping hands
        /// over to source stepping. Zero for an operating point that converges
        /// directly.
        homotopy_escalations,
        /// Failing transient steps rescued by the [`RecoveryPolicy`] cascade
        /// (gmin ramp or junction limiting) after step halving was exhausted.
        /// Always zero under the default (disabled) policy.
        recovery_retries,
    }
}

impl RunStatistics {
    /// Every numeric factorisation, on either backend: full, re-pivoting and
    /// pattern-reusing ones together — what
    /// [`SimulationBudget::max_factorizations`] limits.
    pub fn factorizations(&self) -> usize {
        self.full_factorizations + self.repivot_factorizations + self.refactorizations
    }
}

/// Static layout of a circuit's global system: which global index each
/// device's extra unknowns and state slots start at, and how many state
/// slots each device owns.
#[derive(Debug, Clone)]
pub(crate) struct SystemLayout {
    pub(crate) node_unknowns: usize,
    pub(crate) n: usize,
    pub(crate) total_states: usize,
    pub(crate) extra_bases: Vec<usize>,
    pub(crate) state_bases: Vec<usize>,
    pub(crate) state_counts: Vec<usize>,
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
        let mut state_counts = Vec::with_capacity(circuit.device_count());
        let mut total_extras = 0usize;
        let mut total_states = 0usize;
        let mut probes: HashMap<String, (usize, Vec<String>)> = HashMap::new();
        for device in circuit.devices() {
            let extras = device.extra_unknowns();
            let states = device.state_count();
            extra_bases.push(node_unknowns + total_extras);
            state_bases.push(total_states);
            state_counts.push(states);
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
            state_counts,
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

/// The names a result resolves its lookups by: the circuit's node names
/// (index 0 being ground) and each device's extra unknowns. Shared by
/// [`TransientResult`] and the operating-point and AC results.
#[derive(Debug, Clone)]
pub(crate) struct UnknownNames {
    nodes: Vec<String>,
    probes: HashMap<String, (usize, Vec<String>)>,
}

impl UnknownNames {
    pub(crate) fn new(circuit: &Circuit, layout: &SystemLayout) -> Self {
        UnknownNames {
            nodes: circuit.node_names().to_vec(),
            probes: layout.probes.clone(),
        }
    }

    /// The global unknown of `node`'s voltage; `None` for ground.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub(crate) fn node(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            return None;
        }
        let idx = node.index() - 1;
        assert!(
            idx < self.nodes.len() - 1,
            "node {node} is not part of the simulated circuit"
        );
        Some(idx)
    }

    /// The global unknown of the node named `name`; `None` for ground.
    pub(crate) fn node_named(&self, name: &str) -> Result<Option<usize>, MnaError> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| MnaError::UnknownProbe(name.to_string()))?;
        Ok(idx.checked_sub(1))
    }

    /// The global unknown of `device`'s extra unknown `unknown`.
    pub(crate) fn probe(&self, device: &str, unknown: &str) -> Result<usize, MnaError> {
        self.probes
            .get(device)
            .and_then(|(base, names)| names.iter().position(|n| n == unknown).map(|k| base + k))
            .ok_or_else(|| MnaError::UnknownProbe(format!("{device}.{unknown}")))
    }
}

/// The Newton Jacobian: one [`LinearSystem`], which owns the dense or sparse
/// storage, the cached factors and the factor policy, plus the stamp-slot
/// cache its sparse assemblies stamp through.
#[derive(Debug)]
pub(crate) struct JacobianStorage {
    pub(crate) system: LinearSystem,
    slots: StampSlots,
}

impl JacobianStorage {
    /// The view an assembly stamps through: this storage, or with `stamp`
    /// unset a view that drops every write (a residual-only assembly).
    pub(crate) fn view(&mut self, stamp: bool) -> JacobianView<'_> {
        if !stamp {
            return JacobianView::Discard;
        }
        match self.system.storage_mut() {
            Storage::Dense(matrix) => JacobianView::Dense(matrix),
            Storage::Sparse(matrix) => JacobianView::Sparse {
                matrix,
                slots: &mut self.slots,
            },
        }
    }

    /// Factors the currently assembled Jacobian under the
    /// [`LinearSystem`] policy, counting the factorisation it performed in
    /// `stats`. Returns `false` on a singular system, whose factors the
    /// system drops, so [`JacobianStorage::solve_factored`] reports `false`
    /// until a later call succeeds.
    ///
    /// `fault` is the solver-layer injection hook: an armed
    /// [`Fault::SingularFactorization`] makes this call report failure
    /// without touching the factors, and an armed [`Fault::StalePivot`],
    /// consulted only where a sparse refactorisation is about to run,
    /// forces the re-pivot as if the stored pivot order had gone
    /// numerically stale.
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
        let stale = || fault.is_some_and(|f| f.should_fire(Fault::StalePivot));
        let counter = match self.system.factor(stale) {
            Ok(Factorisation::Full) => &mut stats.full_factorizations,
            Ok(Factorisation::Refactor) => &mut stats.refactorizations,
            Ok(Factorisation::Repivot) => &mut stats.repivot_factorizations,
            Err(_) => return false,
        };
        *counter += 1;
        true
    }

    /// Adds `value` to the diagonal entry `(i, i)` of the assembled matrix —
    /// the gmin-homotopy hook (a sparse [`LinearSystem`] stores every
    /// diagonal entry, whatever the devices stamp).
    pub(crate) fn add_diagonal(&mut self, i: usize, value: f64) {
        let slot = self.system.slot(i, i);
        self.system.values_mut()[slot.expect("every diagonal entry is stored")] += value;
    }

    /// Solves against the already-computed factors (no refactorisation) —
    /// the back-substitution of a Newton or operating-point iteration.
    /// Returns `false` if no factors are cached (none yet, invalidated, or
    /// dropped by a failed [`JacobianStorage::factor`]) or the solve fails.
    pub(crate) fn solve_factored(&self, rhs: &[f64], delta: &mut Vec<f64>) -> bool {
        self.system.solve_into(rhs, delta).is_ok()
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
    /// Whether a Newton solve has refactored after an iteration on stale
    /// factors since the current march began: from then on the march
    /// factors every predicted step at its prediction.
    reuse_failed: bool,
    pub(crate) residual: Vec<f64>,
    rhs: Vec<f64>,
    delta: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) candidate: Vec<f64>,
    pub(crate) states: Vec<f64>,
    pub(crate) new_states: Vec<f64>,
    pub(crate) times: Vec<f64>,
    pub(crate) history: Vec<f64>,
    /// Times of the predictor ring entries (oldest first; at most
    /// [`PREDICTOR_HISTORY`] entries).
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

/// Number of accepted states the predictor ring retains: three support
/// points give the quadratic predictor that matches the order of the
/// trapezoidal corrector.
const PREDICTOR_HISTORY: usize = 3;

impl TransientWorkspace {
    /// Builds the workspace for `circuit`: computes the system layout,
    /// resolves the solver backend and, on the sparse backend, derives the
    /// circuit's Jacobian sparsity pattern from one recording assembly at
    /// the zero iterate (see [`Device::stamp`](crate::device::Device::stamp)).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidNetlist`] for an empty circuit, a circuit
    /// without unknowns, or a device with inconsistent unknown names.
    pub fn for_circuit(circuit: &Circuit, options: &TransientOptions) -> Result<Self, MnaError> {
        let layout = SystemLayout::for_circuit(circuit)?;
        let n = layout.n;
        let backend = options.backend.resolve(n);
        let system = if backend == SolverBackend::Sparse {
            LinearSystem::sparse(n, recorded_stamps(circuit, &layout))
        } else {
            LinearSystem::dense(n)
        };
        Ok(TransientWorkspace {
            backend,
            jacobian: JacobianStorage {
                system,
                slots: StampSlots::default(),
            },
            factored_h: f64::NAN,
            factored_first: false,
            reuse_failed: false,
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

    /// Installs a [`CancelToken`] the marching loop polls between steps
    /// (transient runs and shooting sweeps alike). Keep a clone of the
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

    /// The concrete backend this workspace solves with ([`SolverBackend::Auto`]
    /// already resolved to dense or sparse).
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Size of the global system (node voltages + extra unknowns).
    pub(crate) fn unknown_count(&self) -> usize {
        self.layout.n
    }

    /// The committed solution — after a run, its final accepted point: node
    /// voltages, then the devices' extra unknowns (the `x` of
    /// [`Linearisation::at`]).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// The committed device states that go with
    /// [`TransientWorkspace::solution`] (the `states` of
    /// [`Linearisation::at`]).
    pub fn states(&self) -> &[f64] {
        &self.states
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
    /// stamp `circuit` writes. Always true on the dense backend; on the
    /// sparse backend this catches a rewired circuit that kept the same
    /// layout but changed topology (its stamps would otherwise panic against
    /// the stale pattern).
    fn pattern_covers(&self, circuit: &Circuit) -> bool {
        self.backend != SolverBackend::Sparse
            || recorded_stamps(circuit, &self.layout)
                .iter()
                .all(|&(r, c)| self.jacobian.system.slot(r, c).is_some())
    }

    /// Returns `true` when this workspace can be reused for `circuit` under
    /// `options` without rebuilding: the layout matches, the resolved solver
    /// backend is the same and (on the sparse backend) the stored sparsity
    /// pattern covers every stamp the circuit writes. This is exactly the
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
    /// envelope measurements, whose reused workspace may have measured any
    /// other design before) call this at every logical boundary; the first
    /// solve after the call performs one full pivoted factorisation,
    /// exactly as a fresh workspace would.
    pub fn invalidate_factors(&mut self) {
        self.jacobian.system.drop_factors();
        self.factored_h = f64::NAN;
    }

    /// Resets the solution and device states for a fresh run. The
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
        for ((device, &base), &count) in circuit
            .devices()
            .iter()
            .zip(self.layout.state_bases.iter())
            .zip(self.layout.state_counts.iter())
        {
            if count > 0 {
                device.initial_state(&mut self.states[base..base + count]);
            }
        }
        self.new_states.copy_from_slice(&self.states);
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

    /// Empties the predictor ring and seeds it with the current solution at
    /// `t`: the start of a run, and the restart after a breakpoint or a
    /// recovered step.
    fn restart_predictor(&mut self, t: f64) {
        self.hist_times.clear();
        self.hist_states.clear();
        self.hist_push(t);
    }

    /// Merges, sorts and deduplicates the source breakpoints of `circuit`
    /// inside `(0, t_stop)` into `self.breakpoints`.
    fn collect_breakpoints(&mut self, circuit: &Circuit, t_stop: f64) {
        let mut raw = Vec::new();
        for device in circuit.devices() {
            device.breakpoints(t_stop, &mut raw);
        }
        raw.retain(|b| b.is_finite() && *b > 0.0 && *b < t_stop);
        raw.sort_by(f64::total_cmp);
        let merge_eps = 1e-12 * t_stop;
        self.breakpoints.clear();
        for b in raw {
            if self
                .breakpoints
                .last()
                .map_or(true, |&last| b - last > merge_eps)
            {
                self.breakpoints.push(b);
            }
        }
    }

    /// The weighted predictor–corrector error of the step just solved,
    /// `max_i |candidate_i − predicted_i|·c / (reltol·max(|candidate_i|, |x_i|) + abstol)`
    /// with `c` the corrector's error constant: ~1 is on target. A NaN reads
    /// as infinite.
    fn lte_ratio(&self, method: IntegrationMethod, reltol: f64, abstol: f64) -> f64 {
        let lte_fraction = match method {
            IntegrationMethod::BackwardEuler => 1.0 / 3.0,
            IntegrationMethod::Trapezoidal => 1.0 / 12.0,
        };
        let mut err_ratio = 0.0f64;
        for i in 0..self.layout.n {
            let sol = self.candidate[i];
            let weight = reltol * sol.abs().max(self.x[i].abs()) + abstol;
            let err = (sol - self.predicted[i]).abs() * lte_fraction;
            err_ratio = err_ratio.max(err / weight);
        }
        if err_ratio.is_nan() {
            f64::INFINITY
        } else {
            err_ratio
        }
    }

    /// Records the samples `due` of the `j·interval` grid, which fall inside
    /// the accepted step from `t` (state in `x`) to `t_next` (state in
    /// `candidate`), by dense interpolation.
    ///
    /// The interpolant has the integrator's own order — a quadratic through
    /// the previous ring entry and the step's two endpoints — so recording
    /// stays second-order accurate even when accepted steps grow far beyond
    /// the grid. The ring never spans a breakpoint (it is restarted there),
    /// so the three support points are always smooth neighbours.
    fn record_dense(&mut self, t: f64, t_next: f64, interval: f64, due: Range<u64>) {
        let n = self.layout.n;
        let first_sample = self.times.len();
        self.times
            .extend(due.map(|j| (j as f64 * interval).min(t_next)));
        let samples = self.times.len() - first_sample;
        if samples == 0 {
            return;
        }
        let row_base = self.history.len();
        self.history.resize(row_base + samples * n, 0.0);
        let ring_len = self.hist_times.len();
        if ring_len >= 2 {
            // The Newton coefficients depend only on the step's three
            // support points, so they are computed once per unknown and
            // merely re-evaluated (one Horner pass) per grid point.
            let ts = [self.hist_times[ring_len - 2], t, t_next];
            let base = (ring_len - 2) * n;
            let mut coeffs = [0.0f64; 3];
            for i in 0..n {
                let ys = [self.hist_states[base + i], self.x[i], self.candidate[i]];
                divided_differences(&ts, &ys, &mut coeffs);
                for k in 0..samples {
                    let g = self.times[first_sample + k];
                    self.history[row_base + k * n + i] = newton_eval(&ts, &coeffs, g);
                }
            }
        } else {
            let span = t_next - t;
            for k in 0..samples {
                let g = self.times[first_sample + k];
                let theta = ((g - t) / span).clamp(0.0, 1.0);
                for i in 0..n {
                    self.history[row_base + k * n + i] =
                        self.x[i] + theta * (self.candidate[i] - self.x[i]);
                }
            }
        }
    }

    /// Assembles the residual and `new_states` at `point` for the Newton
    /// candidate `candidate`, on this workspace's buffers, and with
    /// `jacobian` the Jacobian too.
    pub(crate) fn assemble_candidate(
        &mut self,
        circuit: &Circuit,
        point: StampPoint,
        jacobian: bool,
    ) {
        assemble(
            circuit,
            &self.layout,
            point,
            &self.candidate,
            &self.states,
            &mut self.new_states,
            &mut self.residual,
            self.jacobian.view(jacobian),
            None,
        );
    }

    /// As [`TransientWorkspace::assemble_candidate`], for the solution `x`.
    pub(crate) fn assemble_solution(
        &mut self,
        circuit: &Circuit,
        point: StampPoint,
        jacobian: bool,
    ) {
        assemble(
            circuit,
            &self.layout,
            point,
            &self.x,
            &self.states,
            &mut self.new_states,
            &mut self.residual,
            self.jacobian.view(jacobian),
            None,
        );
    }

    /// As [`TransientWorkspace::assemble_candidate`], with `homotopy` added
    /// to the assembled system.
    fn assemble_homotopy(
        &mut self,
        circuit: &Circuit,
        point: StampPoint,
        homotopy: Homotopy<'_>,
        jacobian: bool,
    ) {
        self.assemble_candidate(circuit, point, jacobian);
        match homotopy {
            Homotopy::None => {}
            Homotopy::Gmin(gmin) => {
                for i in 0..self.layout.node_unknowns {
                    self.residual[i] += gmin * self.candidate[i];
                    if jacobian {
                        self.jacobian.add_diagonal(i, gmin);
                    }
                }
            }
            Homotopy::Source { f0, w } => {
                for (r, f) in self.residual.iter_mut().zip(f0) {
                    *r -= w * f;
                }
            }
        }
    }

    /// `‖residual‖∞`, or NaN if any entry is NaN: `norm_inf`'s max-fold
    /// skips NaN entries, so a poisoned residual would read as balanced.
    /// Two passes without an early exit, since both vectorise.
    fn residual_norm(&self) -> f64 {
        if self.residual.iter().fold(false, |nan, r| nan | r.is_nan()) {
            f64::NAN
        } else {
            norm_inf(&self.residual)
        }
    }

    /// Factors the assembled Jacobian, marking the factors reusable by the
    /// modified-Newton bypass at `point` when `reuse` and ineligible
    /// otherwise.
    fn factor_at(&mut self, point: StampPoint, reuse: bool, stats: &mut RunStatistics) -> bool {
        if !self.jacobian.factor(stats, self.fault.as_mut()) {
            return false;
        }
        self.factored_h = if reuse { point.dt } else { f64::NAN };
        self.factored_first = point.first_step;
        true
    }

    /// The engine's one damped-Newton solve (rules in the
    /// [module docs](self#the-newton-solve)): solves the system stamped at
    /// `point` and modified by `homotopy`, in place on `candidate`, which
    /// holds the initial iterate. Returns the iterations spent, or the
    /// residual norm at the last iterate (NaN if poisoned) if the solve
    /// failed.
    ///
    /// On success the workspace is assembled at the accepted iterate against
    /// the unmodified, unlimited system: `residual` and `new_states` (and
    /// with [`NewtonSettings::commit_jacobian`] the Jacobian) are consistent
    /// with `candidate`, ready to commit.
    ///
    /// With [`NewtonSettings::reuse_jacobian`] the iteration runs in
    /// modified-Newton mode: the factored Jacobian is carried across
    /// iterations — and across steps whose size and companion gains match the
    /// factors' — and refactored only when the update norms stop contracting
    /// briskly (the residual is always assembled exactly, so stale factors
    /// change the iteration path but never the fixed point it converges to),
    /// and the solve also stops on the contraction's error estimate. An
    /// iteration on stale factors stamps no Jacobian.
    pub(crate) fn newton(
        &mut self,
        circuit: &Circuit,
        point: StampPoint,
        homotopy: Homotopy<'_>,
        settings: &NewtonSettings,
        stats: &mut RunStatistics,
    ) -> Result<usize, f64> {
        let reuse = settings.reuse_jacobian;
        let fault = match homotopy {
            Homotopy::None => settings.fault,
            _ => None,
        };
        let mut have_factors = reuse
            && self.factored_h.is_finite()
            && self.factored_first == point.first_step
            && (point.dt - self.factored_h).abs() <= JACOBIAN_REUSE_H_RTOL * point.dt;
        let mut prev_delta_norm = f64::INFINITY;
        // The previous update's norm if it was undamped, NaN otherwise: the
        // contraction θ = ‖δₖ‖/‖δₖ₋₁‖ is taken between undamped updates.
        let mut prev_undamped_norm = f64::NAN;
        let mut stale_iterations = 0usize;
        // ‖candidate‖∞ as of the last convergence test; before the first
        // one it is measured only if an update needs capping.
        let mut x_norm = f64::NAN;
        let mut iterations = 0usize;
        let mut converged = false;

        while iterations < settings.max_iterations {
            if !reuse || stale_iterations >= MAX_STALE_ITERATIONS {
                // Classical full Newton (or a step whose stale-iteration
                // budget ran out, permanently for this step): factor a
                // fresh Jacobian on every iteration.
                have_factors = false;
            }
            // Only an iteration that factors reads the Jacobian it stamps.
            self.assemble_homotopy(circuit, point, homotopy, !have_factors);
            stats.jacobian_assemblies += usize::from(!have_factors);
            if let Some(fault) = fault {
                if self.fault.as_mut().is_some_and(|f| f.should_fire(fault)) {
                    self.residual[0] = f64::NAN;
                }
            }
            stats.newton_iterations += 1;
            iterations += 1;
            let residual = self.residual_norm();
            if !residual.is_finite() {
                return Err(residual);
            }
            self.rhs.clear();
            self.rhs.extend(self.residual.iter().map(|r| -r));
            let mut fresh = !have_factors;
            if fresh {
                if !self.factor_at(point, reuse, stats) {
                    break;
                }
                have_factors = true;
                self.reuse_failed |= stale_iterations > 0;
            } else {
                stale_iterations += 1;
            }
            if !self.jacobian.solve_factored(&self.rhs, &mut self.delta) {
                // A stale-factor back-substitution cannot fail numerically;
                // reaching here means the factors were missing or unusable.
                // Retry once against a fresh factorisation of the Jacobian,
                // stamped at this iterate, before failing.
                if fresh {
                    break;
                }
                self.assemble_homotopy(circuit, point, homotopy, true);
                stats.jacobian_assemblies += 1;
                if !self.factor_at(point, reuse, stats) {
                    break;
                }
                self.reuse_failed = true;
                fresh = true;
                if !self.jacobian.solve_factored(&self.rhs, &mut self.delta) {
                    break;
                }
            }
            stats.linear_solves += 1;
            if self.delta.iter().any(|d| !d.is_finite()) {
                break;
            }
            let delta_norm = norm_inf(&self.delta);
            let mut step = 1.0;
            if delta_norm > 1.0 {
                if x_norm.is_nan() {
                    x_norm = norm_inf(&self.candidate);
                }
                let cap = f64::max(1.0, 0.1 * x_norm);
                if delta_norm > cap {
                    step = cap / delta_norm;
                }
            }
            for (xi, di) in self.candidate.iter_mut().zip(&self.delta) {
                *xi += step * di;
            }
            x_norm = norm_inf(&self.candidate);
            let tolerance = settings.delta_tolerance * (1.0 + x_norm);
            if delta_norm * step <= tolerance {
                converged = true;
                break;
            }
            if reuse {
                // The observed contraction θ (NaN unless this update and the
                // last were undamped) puts the error left after this update
                // at θ/(1 − θ)·‖δₖ‖: a brisk contraction stops on that
                // estimate.
                let undamped_norm = if step == 1.0 { delta_norm } else { f64::NAN };
                let theta = undamped_norm / prev_undamped_norm;
                if theta < SLOW_CONVERGENCE_RATIO && theta / (1.0 - theta) * delta_norm <= tolerance
                {
                    converged = true;
                    break;
                }
                // Convergence-rate test of the bypass: stale factors are
                // tolerated while the updates contract briskly enough to
                // reach the tolerance within two more iterations. Once an
                // iteration shrinks its predecessor by less than
                // 1/SLOW_CONVERGENCE_RATIO, or θ²·‖δₖ‖ still exceeds the
                // tolerance, the next iteration refactors the freshly
                // assembled Jacobian. Never triggered by factors computed
                // this very iteration — slow contraction under an exact
                // Jacobian is the nonlinearity's fault, not the factors'.
                if !fresh
                    && (delta_norm > SLOW_CONVERGENCE_RATIO * prev_delta_norm
                        || theta * theta * delta_norm > tolerance)
                {
                    have_factors = false;
                }
                prev_undamped_norm = undamped_norm;
            }
            prev_delta_norm = delta_norm;
        }

        if !converged {
            // A solve whose updates stalled (or whose Jacobian went
            // singular) is still accepted if its equations balance at the
            // last iterate: a smaller step or another stage cannot improve
            // on a solved system.
            self.assemble_homotopy(circuit, point, homotopy, false);
            let residual = self.residual_norm();
            if residual.is_nan() || residual > settings.residual_tolerance {
                return Err(residual);
            }
        }
        let unlimited = StampPoint {
            junction_limit: None,
            ..point
        };
        self.assemble_candidate(circuit, unlimited, settings.commit_jacobian);
        stats.jacobian_assemblies += usize::from(settings.commit_jacobian);
        Ok(iterations)
    }

    /// Gmin stepping on `candidate`: `stages` solves under a shunt `gmin`
    /// from `gmin_start` down by a decade per stage, each seeding the next,
    /// then the exact `gmin = 0` solve, which alone decides success — the
    /// operating point's homotopy and the recovery cascade's gmin leg.
    pub(crate) fn gmin_ramp(
        &mut self,
        circuit: &Circuit,
        point: StampPoint,
        gmin_start: f64,
        stages: usize,
        settings: &NewtonSettings,
        stats: &mut RunStatistics,
    ) -> bool {
        let mut gmin = gmin_start;
        for _ in 0..stages {
            if self
                .newton(circuit, point, Homotopy::Gmin(gmin), settings, stats)
                .is_err()
            {
                return false;
            }
            gmin /= 10.0;
        }
        self.newton(circuit, point, Homotopy::None, settings, stats)
            .is_ok()
    }

    /// The Jacobian positions the sparse backend stores, in row-major
    /// order: every position one assembly at the zero iterate writes, plus
    /// the diagonal. `None` on the dense backend.
    pub fn sparsity_pattern(&self) -> Option<Vec<(usize, usize)>> {
        if self.backend != SolverBackend::Sparse {
            return None;
        }
        let system = &self.jacobian.system;
        let mut pattern = Vec::new();
        system.for_each_slot(system.values(), |r, c, _| pattern.push((r, c)));
        Some(pattern)
    }
}

/// The positions one assembly of `circuit` writes at the zero iterate, in
/// write order: the sparse backend's pattern (apart from the diagonal it
/// always adds). The stamp contract of
/// [`Device::stamp`](crate::device::Device::stamp) makes them every position
/// any later assembly writes, so the time point and step it records at are
/// arbitrary.
fn recorded_stamps(circuit: &Circuit, layout: &SystemLayout) -> Vec<(usize, usize)> {
    let x = vec![0.0; layout.n];
    let states = vec![0.0; layout.total_states];
    let mut new_states = states.clone();
    let mut residual = x.clone();
    let mut stamps = Vec::new();
    assemble(
        circuit,
        layout,
        StampPoint::new(0.0, 1.0, IntegrationMethod::BackwardEuler, true),
        &x,
        &states,
        &mut new_states,
        &mut residual,
        JacobianView::Record(&mut stamps),
        None,
    );
    stamps
}

/// A circuit's residual and Jacobian assembled once at a chosen point,
/// outside any analysis: what a Newton iteration there works with. It is
/// the primitive for checking a [`Device`](crate::device::Device)'s
/// analytic Jacobian: compare [`Linearisation::jacobian`] with finite
/// differences of [`Linearisation::residual`], and
/// [`Linearisation::stamps`] with the sparse backend's
/// [`TransientWorkspace::sparsity_pattern`].
///
/// # Example
///
/// ```
/// use harvester_mna::circuit::Circuit;
/// use harvester_mna::device::StampPoint;
/// use harvester_mna::devices::Resistor;
/// use harvester_mna::transient::{IntegrationMethod, Linearisation};
///
/// # fn main() -> Result<(), harvester_mna::MnaError> {
/// let mut circuit = Circuit::new();
/// let a = circuit.node("a");
/// circuit.add(Resistor::new("R", a, Circuit::GROUND, 100.0));
/// let point = StampPoint::new(0.0, 1e-6, IntegrationMethod::BackwardEuler, false);
/// let lin = Linearisation::at(&circuit, point, &[2.0], &[])?;
/// assert_eq!(lin.residual, [0.02]);
/// assert_eq!(lin.jacobian[(0, 0)], 0.01);
/// assert_eq!(lin.stamps, [(0, 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linearisation {
    /// The residual `f(x)`: one KCL row per non-ground node, then the
    /// devices' equations, in circuit order.
    pub residual: Vec<f64>,
    /// The stamped Jacobian `∂f/∂x`.
    pub jacobian: Matrix,
    /// Every Jacobian position the devices wrote, in write order.
    pub stamps: Vec<(usize, usize)>,
}

impl Linearisation {
    /// Assembles `circuit` at `point` for the iterate `x` (node voltages,
    /// then the devices' extra unknowns) with the previous converged device
    /// states `states` (each device's slots in circuit order).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidNetlist`] for a circuit no analysis could
    /// run, and [`MnaError::InvalidOptions`] if `x` or `states` does not
    /// match the circuit's layout.
    pub fn at(
        circuit: &Circuit,
        point: StampPoint,
        x: &[f64],
        states: &[f64],
    ) -> Result<Self, MnaError> {
        let layout = SystemLayout::for_circuit(circuit)?;
        if x.len() != layout.n || states.len() != layout.total_states {
            return Err(MnaError::InvalidOptions(format!(
                "the circuit has {} unknowns and {} state slots, not {} and {}",
                layout.n,
                layout.total_states,
                x.len(),
                states.len()
            )));
        }
        let mut new_states = states.to_vec();
        let mut residual = vec![0.0; layout.n];
        let mut jacobian = Matrix::zeros(layout.n, layout.n);
        let mut stamps = Vec::new();
        for view in [
            JacobianView::Dense(&mut jacobian),
            JacobianView::Record(&mut stamps),
        ] {
            assemble(
                circuit,
                &layout,
                point,
                x,
                states,
                &mut new_states,
                &mut residual,
                view,
                None,
            );
        }
        Ok(Linearisation {
            residual,
            jacobian,
            stamps,
        })
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
/// the stale factors, and the next iteration refactors. Only a contraction
/// below it is trusted to stop a solve on its error estimate.
const SLOW_CONVERGENCE_RATIO: f64 = 0.5;

/// Budget of Newton iterations a single step may spend on stale factors.
/// The contraction test refactors once the observed rate predicts more than
/// two further iterations to the tolerance, but it needs two undamped
/// updates to measure a rate, and damped updates never measure one; the
/// budget caps the stale iterations a step spends that way at a few before
/// forcing an exact Jacobian, keeping the iteration count within a small
/// constant of full Newton.
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

    /// Runs the transient analysis on `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidOptions`] for nonsensical options,
    /// [`MnaError::InvalidNetlist`] for an empty circuit, and
    /// [`MnaError::StepFailed`] if Newton fails to converge even at the
    /// minimum step size.
    pub fn run(&self, circuit: &Circuit) -> Result<TransientResult, MnaError> {
        self.options.validate()?;
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
        self.options.validate()?;
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
        } else {
            ws.reset(circuit);
        }
        let mut stats = RunStatistics::default();
        ws.times.clear();
        ws.history.clear();
        ws.times.push(0.0);
        ws.history.extend_from_slice(&ws.x);
        let stop = self.march(circuit, ws, 0.0..opts.t_stop, true, &mut stats, None)?;

        Ok(TransientResult::from_recorded(ws, circuit, stats, stop))
    }

    /// The one marching loop behind every time integration (see the
    /// [module docs](self#time-stepping)): it marches the committed solution
    /// across `span` under the options' [`StepControl`] and hands every
    /// accepted step to `on_step`, if given. With `record`, it appends the
    /// trace to `ws.times`/`ws.history` (the caller records the start
    /// sample), always ending with the final accepted state; the shooting
    /// warm-up records nothing.
    pub(crate) fn march(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        span: Range<f64>,
        record: bool,
        stats: &mut RunStatistics,
        mut on_step: Option<&mut StepHook<'_>>,
    ) -> Result<MarchStop, MnaError> {
        let opts = &self.options;
        let (t0, t_stop) = (span.start, span.end);
        let mut stop = MarchStop::default();
        // The dt trajectory at the current time point, tracked only for the
        // recovery layer's failure report (never allocated under the default
        // disabled policy).
        let mut attempted_dts: Vec<f64> = Vec::new();
        let lte = match opts.step_control {
            StepControl::Fixed => None,
            StepControl::Adaptive { reltol, abstol } => Some((reltol, abstol)),
        };
        // The predictor order is capped at the corrector's order so the
        // predictor–corrector gap is a genuine estimate of the corrector's
        // truncation error. Classical full Newton on the fixed grid pins it
        // at 0, starting each step from the previous solution.
        let method_order = match opts.method {
            IntegrationMethod::BackwardEuler => 1,
            IntegrationMethod::Trapezoidal => 2,
        };
        let max_order = if lte.is_some() || opts.reuse_jacobian {
            method_order
        } else {
            0
        };
        ws.restart_predictor(t0);
        ws.reuse_failed = false;
        // Fixed stepping lands on `t₀ + k·dt` for `k < steps`, then on t_stop.
        let steps = ((t_stop - t0) / opts.dt).round().max(1.0) as usize;
        let mut landings = 0usize;
        // The next step to try; an infinite one takes the next grid interval
        // whole.
        let mut h = match lte {
            Some(_) => {
                ws.collect_breakpoints(circuit, t_stop);
                opts.dt.max(opts.min_dt)
            }
            None => f64::INFINITY,
        };
        let mut t = t0;
        let mut record_index = 1u64;
        let mut first_step = true;
        let stop_eps = 1e-9 * opts.dt;
        // The hook is the one reader of an accepted step's Jacobian.
        let newton = NewtonSettings {
            commit_jacobian: on_step.is_some(),
            ..opts.step_newton()
        };
        let mut bp_idx = 0usize;
        let mut successive_lte_rejections = 0usize;
        // The accuracy controller may not shrink the step far below the
        // nominal dt: the fixed-step engine resolves every corner at dt, so
        // dt/100 buys two orders of magnitude of extra corner resolution
        // while keeping the companion conductances (∝ 1/dt) in the scaling
        // regime the linear solvers are healthy in. Newton-failure recovery
        // (a convergence emergency, not an accuracy preference) may still
        // halve all the way down to min_dt.
        let lte_floor = (opts.dt * MIN_ADAPTIVE_STEP_FRACTION).max(opts.min_dt);
        let dip_floor = (opts.dt * DIP_FLOOR_FRACTION).max(opts.min_dt);

        while t < t_stop - stop_eps {
            if ws.cancel.as_ref().is_some_and(|c| c.poll()) {
                stop.truncated = true;
                stop.cancelled = true;
                break;
            }
            if !opts.budget.is_unlimited() && opts.budget.exhausted_by(stats).is_some() {
                stop.truncated = true;
                break;
            }
            // The next point a step must land on exactly: the next grid point
            // under fixed stepping, the next source breakpoint under adaptive.
            let boundary = if lte.is_none() {
                if landings + 1 < steps {
                    t0 + (landings + 1) as f64 * opts.dt
                } else {
                    t_stop
                }
            } else {
                // Advance past breakpoints already landed on.
                while ws
                    .breakpoints
                    .get(bp_idx)
                    .is_some_and(|&b| b <= t + stop_eps)
                {
                    bp_idx += 1;
                }
                ws.breakpoints.get(bp_idx).copied().unwrap_or(t_stop)
            };
            let remaining = boundary - t;
            let (h_step, t_next) = match lte {
                // Absorb a remainder under 1.5·h into this step instead of
                // leaving a sliver: companion conductances scale as 1/h, so a
                // sliver step is numerically hopeless for large capacitances.
                None if remaining < 1.5 * h => (remaining, boundary),
                None => (h, t + h),
                Some(_) => {
                    let h_step = h.max(opts.min_dt);
                    if remaining <= h_step {
                        (remaining, boundary)
                    } else if remaining < 1.5 * h_step {
                        // Split the remaining distance instead of leaving a
                        // numerically hopeless sliver for the next step.
                        (0.5 * remaining, t + 0.5 * remaining)
                    } else {
                        (h_step, t + h_step)
                    }
                }
            };
            let landing = t_next == boundary;
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
            // the most recent accepted states (order 0: the previous
            // solution). Once reusing factors has failed in this march, a
            // predicted step factors its Jacobian at the prediction.
            let order = ws.hist_times.len().saturating_sub(1).min(max_order);
            if order >= 1 {
                let n = ws.layout.n;
                let start = ws.hist_times.len() - order - 1;
                extrapolate_rows(
                    &ws.hist_times[start..],
                    &ws.hist_states[start * n..],
                    n,
                    t_next,
                    &mut ws.predicted,
                );
                ws.candidate.copy_from_slice(&ws.predicted);
                if ws.reuse_failed {
                    ws.factored_h = f64::NAN;
                }
            } else {
                ws.candidate.copy_from_slice(&ws.x);
            }

            let point = StampPoint::new(t_next, h_step, opts.method, first_step);
            let solved = ws.newton(circuit, point, Homotopy::None, &newton, stats);
            let recovered = solved.is_err();
            if recovered {
                stats.rejected_steps += 1;
                successive_lte_rejections = 0;
                if opts.recovery.is_enabled() {
                    attempted_dts.push(h_step);
                }
                h = h_step * 0.5;
                if h >= opts.min_dt {
                    continue;
                }
                self.recover_failed_step(circuit, ws, point, &newton, stats, &attempted_dts)?;
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
            let err_ratio = match lte {
                Some((reltol, abstol)) if order == method_order => {
                    ws.lte_ratio(opts.method, reltol, abstol)
                }
                _ => 0.0,
            };

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

            // Accept. Record first: dense output interpolates between the
            // previous state (still in ws.x) and the new one (ws.candidate).
            // Fixed stepping records grid landings only.
            if record && (lte.is_some() || landing) {
                let record_landing = match opts.record_interval {
                    None => true,
                    Some(interval) => {
                        let due = due_samples(&mut record_index, interval, t_next, t_stop);
                        if lte.is_some() {
                            ws.record_dense(t, t_next, interval, due);
                            false
                        } else {
                            !due.is_empty()
                        }
                    }
                };
                if record_landing {
                    ws.times.push(t_next);
                    ws.history.extend_from_slice(&ws.candidate);
                }
            }

            ws.states.copy_from_slice(&ws.new_states);
            ws.x.copy_from_slice(&ws.candidate);
            if let Some(hook) = on_step.as_deref_mut() {
                hook(ws, point, stats)?;
            }
            t = t_next;
            first_step = false;
            stats.accepted_steps += 1;
            if order >= 1 {
                stats.predicted_steps += 1;
            }

            // An adaptive landing is a source breakpoint, where the source
            // forced a derivative discontinuity, and a homotopy-recovered
            // solution is no polynomial continuation of the failed Newton
            // attempts: the predictor restarts from scratch after either.
            let restart = recovered || (landing && lte.is_some());
            if restart {
                ws.restart_predictor(t);
            } else {
                ws.hist_push(t);
            }
            if lte.is_none() {
                // A landing opens the next grid interval, taken whole; inside
                // a halved interval the step regrows ×2 (once it reaches the
                // remainder it lands on the interval's end).
                if landing {
                    landings += 1;
                    h = f64::INFINITY;
                } else {
                    h *= 2.0;
                }
                continue;
            }
            if restart {
                // After a breakpoint the step restarts at the nominal dt,
                // exactly as at t = 0; after a recovery it stays at the
                // (small) step size the emergency was crossed at.
                h = if landing { opts.dt } else { h_step }.max(opts.min_dt);
                continue;
            }

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
            if solved.is_ok_and(|iterations| iterations > SLOW_NEWTON_ITERATIONS) {
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
            h = (h_step * factor).max(dip_floor);
        }

        // The final accepted state is always part of the result (the
        // recording grid generally ends short of t_stop).
        if record && ws.times.last() != Some(&t) {
            ws.times.push(t);
            ws.history.extend_from_slice(&ws.x);
        }
        Ok(stop)
    }

    /// The escalation ladder behind a step that exhausted halving: gmin
    /// ramp, then junction limiting, then a structured failure — see
    /// [`RecoveryPolicy`]. On `Ok(())` the workspace holds a committed-ready
    /// `(candidate, new_states)` pair at the failing `point`, exactly like a
    /// converged solve under the step settings `step_newton`; the caller
    /// commits it. With the policy disabled this returns the bare
    /// [`MnaError::StepFailed`], at the residual the failed step solve left
    /// in the workspace.
    fn recover_failed_step(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        point: StampPoint,
        step_newton: &NewtonSettings,
        stats: &mut RunStatistics,
        attempted_dts: &[f64],
    ) -> Result<(), MnaError> {
        let policy = self.options.recovery;
        let last_residual = ws.residual_norm();
        let bare = MnaError::StepFailed {
            time: point.time,
            dt: 0.5 * point.dt,
            residual: last_residual,
        };
        if !policy.is_enabled() {
            return Err(bare);
        }

        // A recovery is a convergence emergency: every leg factors fresh.
        let newton = NewtonSettings {
            reuse_jacobian: false,
            fault: None,
            ..*step_newton
        };
        let mut strategies = vec![RecoveryStrategy::StepHalving];
        if policy.gmin_ramp {
            strategies.push(RecoveryStrategy::GminRamp);
            // Seed from the last *committed* solution, not the diverged iterate.
            ws.candidate.copy_from_slice(&ws.x);
            if ws.gmin_ramp(
                circuit,
                point,
                crate::analysis::GMIN_START,
                RECOVERY_GMIN_STAGES,
                &newton,
                stats,
            ) {
                stats.recovery_retries += 1;
                return Ok(());
            }
        }
        if policy.junction_limiting {
            strategies.push(RecoveryStrategy::JunctionLimiting);
            ws.candidate.copy_from_slice(&ws.x);
            // The limited solve tames the exponential excursions enough to
            // land near the solution; a clean polish from there guarantees
            // the committed point solves the *unlimited* system.
            let limited = StampPoint {
                junction_limit: Some(RECOVERY_JUNCTION_LIMIT),
                ..point
            };
            if ws
                .newton(circuit, limited, Homotopy::None, &newton, stats)
                .is_ok()
                && ws
                    .newton(circuit, point, Homotopy::None, &newton, stats)
                    .is_ok()
            {
                stats.recovery_retries += 1;
                return Ok(());
            }
        }

        if !policy.detailed_report {
            return Err(bare);
        }
        // Post-mortem: re-measure the residual at the last iterate and map
        // the worst-balanced equations back to netlist names.
        ws.assemble_candidate(circuit, point, false);
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
            time: point.time,
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

/// Advances `next` past every sample `j·interval` of the recording grid
/// that falls due once a march reaches `t` (within `1e-9·interval`, but none
/// past `t_stop`) and returns their indices. Indexed rather than
/// accumulated, the grid does not drift over long runs.
fn due_samples(next: &mut u64, interval: f64, t: f64, t_stop: f64) -> Range<u64> {
    let first = *next;
    loop {
        let g = *next as f64 * interval;
        if g > t + 1e-9 * interval || g > t_stop {
            return first..*next;
        }
        *next += 1;
    }
}

/// Per-accepted-step hook of [`TransientAnalysis::march`]. It is called
/// once the step is committed (`x` and `states` hold the accepted solution,
/// the Jacobian is as [`TransientWorkspace::newton`] left it) with the
/// point the step was solved at; an error aborts the march.
type StepHook<'a> =
    dyn FnMut(&mut TransientWorkspace, StampPoint, &mut RunStatistics) -> Result<(), MnaError> + 'a;

/// How the marching loop ended early, if it did — plumbing between
/// [`TransientAnalysis::march`] and its callers.
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
    names: UnknownNames,
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
            names: UnknownNames::new(circuit, &ws.layout),
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

    /// Work counters for this run.
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }

    /// The recorded solution vector at sample `k`.
    fn sample(&self, k: usize) -> &[f64] {
        &self.samples[k * self.unknowns..(k + 1) * self.unknowns]
    }

    /// The time series of global unknown `idx` across all samples (all
    /// zeros for `None`, the ground node).
    fn series(&self, idx: Option<usize>) -> Vec<f64> {
        match idx {
            Some(i) => (0..self.times.len()).map(|k| self.sample(k)[i]).collect(),
            None => vec![0.0; self.times.len()],
        }
    }

    /// Voltage waveform of a node (all samples).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        self.series(self.names.node(node))
    }

    /// Voltage waveform of a node looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if no node has this name.
    pub fn voltage_by_name(&self, name: &str) -> Result<Vec<f64>, MnaError> {
        Ok(self.series(self.names.node_named(name)?))
    }

    /// Waveform of a device's extra unknown (e.g. the coil current `"i"` or
    /// the mechanical displacement `"z"` of a generator model).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if the device or the unknown name
    /// does not exist.
    pub fn probe(&self, device: &str, unknown: &str) -> Result<Vec<f64>, MnaError> {
        Ok(self.series(Some(self.names.probe(device, unknown)?)))
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
    use crate::device::StampContext;
    use crate::devices::{Capacitor, Diode, Resistor, VoltageSource};
    use crate::waveform::Waveform;
    use harvester_numerics::sparse::SparseMatrix;

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
        let final_time = |r: &TransientResult| *r.times().last().unwrap();
        assert!((final_time(&decimated) - final_time(&full)).abs() < 1e-9);
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
        assert!(stats.factorizations() <= stats.newton_iterations);
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
        let t_end = *result.times().last().unwrap();
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
    fn a_failed_factorisation_cannot_be_solved_against() {
        let (c, _) = rc_circuit();
        let rhs = [1.0, 2.0, 3.0];
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let analysis = TransientAnalysis::new(TransientOptions {
                t_stop: 2e-5,
                dt: 1e-6,
                backend,
                ..TransientOptions::default()
            });
            let mut ws = TransientWorkspace::for_circuit(&c, analysis.options()).unwrap();
            analysis.run_with(&c, &mut ws).unwrap();
            let mut stats = RunStatistics::default();
            let mut delta = Vec::new();
            assert!(ws.jacobian.solve_factored(&rhs, &mut delta));

            // An injected failure reports `false` but keeps the good factors.
            let mut inj = FaultInjector::new();
            inj.arm(Fault::SingularFactorization, 1);
            assert!(!ws.jacobian.factor(&mut stats, Some(&mut inj)));
            assert!(ws.jacobian.solve_factored(&rhs, &mut delta), "{backend:?}");

            // A genuinely singular matrix (columns 1 and 2 empty) fails part
            // way through the elimination; its factors must not be usable.
            ws.jacobian.view(true).clear();
            ws.jacobian.add_diagonal(0, 1.0);
            assert!(!ws.jacobian.factor(&mut stats, None), "{backend:?}");
            assert!(
                !ws.jacobian.solve_factored(&rhs, &mut delta),
                "{backend:?}: solved against failed factors, got {delta:?}"
            );

            // The next good matrix factors afresh.
            for i in 0..rhs.len() {
                ws.jacobian.add_diagonal(i, 1.0);
            }
            assert!(ws.jacobian.factor(&mut stats, None), "{backend:?}");
            assert!(ws.jacobian.solve_factored(&rhs, &mut delta));
            assert_eq!(delta, [0.5, 2.0, 3.0], "{backend:?}");
        }
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
    fn a_nan_residual_is_never_accepted_as_balanced() {
        /// Draws no current until 5 µs, then a NaN one.
        struct TurnsNan {
            node: NodeId,
        }
        impl crate::device::Device for TurnsNan {
            fn name(&self) -> &str {
                "nan"
            }
            fn stamp(&self, ctx: &mut StampContext<'_>) {
                let current = if ctx.time() > 5e-6 { f64::NAN } else { 0.0 };
                ctx.add_current(self.node, current);
            }
        }
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", vin, mid, 1e3));
        c.add(Resistor::new("R2", mid, Circuit::GROUND, 1e3));
        c.add(TurnsNan { node: mid });
        for (backend, step_control) in [
            (SolverBackend::Dense, StepControl::Fixed),
            (SolverBackend::Sparse, StepControl::Fixed),
            (SolverBackend::Dense, StepControl::adaptive()),
        ] {
            let outcome = TransientAnalysis::new(TransientOptions {
                t_stop: 2e-5,
                dt: 1e-6,
                backend,
                step_control,
                ..TransientOptions::default()
            })
            .run(&c);
            match outcome {
                Err(MnaError::StepFailed { time, residual, .. }) => {
                    assert!(
                        time > 5e-6,
                        "{backend:?}/{step_control:?}: failed at {time}"
                    );
                    assert!(
                        !residual.is_finite(),
                        "{backend:?}/{step_control:?}: reported residual {residual}"
                    );
                }
                other => panic!("{backend:?}/{step_control:?}: expected StepFailed, got {other:?}"),
            }
        }
    }

    /// `rail` across a 1 kΩ/1 kΩ divider whose lower leg carries 1 µF
    /// (τ = 0.5 ms), and the divider's output node.
    fn divider(rail: Waveform) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new("V", vin, Circuit::GROUND, rail));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::GROUND, 1e3));
        c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
        (c, out)
    }

    /// `source` through a diode into 1 µF ∥ 10 kΩ, and the output node.
    fn half_wave_rectifier(source: Waveform) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new("V", vin, Circuit::GROUND, source));
        c.add(Diode::new("D", vin, out));
        c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
        c.add(Resistor::new("R", out, Circuit::GROUND, 10e3));
        (c, out)
    }

    #[test]
    fn cold_starts_on_high_voltage_rails_follow_the_charging_curve() {
        // The first step moves the rail node from 0 to the full rail in one
        // Newton solve: past 10 V the update cap grows with ‖x‖∞, so
        // rails beyond `max_newton_iterations` volts still converge. The
        // backward-Euler start-up step leaves the first sample h/2τ = 1e-3
        // short of the curve; the trapezoidal steps after it close the gap.
        let tau = 500.0 * 1e-6;
        for volts in [5.0, 61.0, 100.0, 1000.0] {
            let (c, out) = divider(Waveform::dc(volts));
            let result = TransientAnalysis::new(TransientOptions {
                t_stop: 1e-5,
                dt: 1e-6,
                ..TransientOptions::default()
            })
            .run(&c)
            .unwrap_or_else(|e| panic!("{volts} V rail: {e}"));
            assert_eq!(result.len(), 11);
            for (t, v) in result.times().iter().zip(result.voltage(out)) {
                let exact = volts / 2.0 * (1.0 - (-t / tau).exp());
                assert!(
                    (v - exact).abs() <= 1e-3 * exact,
                    "{volts} V rail at {t}: {v} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn a_cold_started_high_voltage_rectifier_settles_on_its_operating_point() {
        use crate::analysis::{Analysis, AnalysisEngine, AnalysisPlan, OpOptions};
        let (c, out) = half_wave_rectifier(Waveform::dc(100.0));
        let plan = AnalysisPlan::from_cards(vec![Analysis::Op(OpOptions::default())]).unwrap();
        let results = AnalysisEngine::new().run(&c, &plan).unwrap();
        let op = results.op().unwrap();
        let settled = TransientAnalysis::new(TransientOptions {
            t_stop: 0.2,
            dt: 1e-4,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap()
        .final_voltage(out);
        assert!(
            (settled - op.voltage(out)).abs() <= 1e-9,
            "settled at {settled}, operating point {}",
            op.voltage(out)
        );
    }

    #[test]
    fn a_high_voltage_pulse_edge_costs_few_more_newton_iterations() {
        // Fixed 10 µs steps stride the 1 µs edge: the step across it must
        // climb the whole edge in one Newton solve.
        let newton = |volts: f64| {
            let edge = Waveform::pulse(0.0, volts, 0.0, 1e-6, 1e-6, 1.0, 0.0).unwrap();
            let (c, _) = half_wave_rectifier(edge);
            TransientAnalysis::new(TransientOptions {
                t_stop: 1e-4,
                dt: 1e-5,
                ..TransientOptions::default()
            })
            .run(&c)
            .unwrap()
            .statistics()
            .newton_iterations
        };
        let (low, high) = (newton(10.0), newton(100.0));
        assert!(high <= 2 * low, "100 V edge: {high}, 10 V edge: {low}");
    }

    #[test]
    fn a_stale_solve_without_factors_retries_on_the_jacobian_at_its_iterate() {
        // Factors the bypass counts as reusable but that are gone: the first
        // iteration's back-substitution fails, and its retry must factor the
        // Jacobian stamped at that iterate, not what the matrix held after
        // its residual-only assembly (garbage here). One such iteration then
        // moves the iterate exactly as one full-Newton iteration does.
        let (c, _) = half_wave_rectifier(Waveform::sine(3.0, 1000.0));
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let options = TransientOptions {
                t_stop: 2e-4,
                dt: 1e-5,
                backend,
                ..TransientOptions::default()
            };
            let one_iteration = |reuse_jacobian: bool| {
                let mut ws = TransientWorkspace::for_circuit(&c, &options).unwrap();
                TransientAnalysis::new(options)
                    .run_with(&c, &mut ws)
                    .unwrap();
                ws.jacobian.system.drop_factors();
                (ws.factored_h, ws.factored_first) = (options.dt, false);
                ws.jacobian.view(true).clear();
                for i in 0..ws.unknown_count() {
                    ws.jacobian.add_diagonal(i, 1.0);
                }
                ws.candidate.copy_from_slice(&ws.x);
                let settings = NewtonSettings {
                    max_iterations: 1,
                    reuse_jacobian,
                    ..options.step_newton()
                };
                let t = options.t_stop + options.dt;
                let point = StampPoint::new(t, options.dt, options.method, false);
                let mut stats = RunStatistics::default();
                let _ = ws.newton(&c, point, Homotopy::None, &settings, &mut stats);
                let work = (
                    stats.newton_iterations,
                    stats.jacobian_assemblies,
                    stats.factorizations(),
                );
                (ws.candidate.clone(), work)
            };
            let (retried, work) = one_iteration(true);
            assert_eq!(work, (1, 1, 1), "{backend:?}: one iteration, one stamp");
            assert_eq!(retried, one_iteration(false).0, "{backend:?}");
        }
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
                },
                "reltol",
            ),
            (
                StepControl::Adaptive {
                    reltol: 1e-3,
                    abstol: -1.0,
                },
                "abstol",
            ),
            (
                StepControl::Adaptive {
                    reltol: f64::NAN,
                    abstol: 1e-6,
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
        assert_eq!(fs.lte_rejections, 0);
        // Fixed stepping predicts every step after the first, except under
        // classical full Newton, which starts each from the previous solution.
        assert_eq!(fs.predicted_steps, fs.accepted_steps - 1);
        let classical = TransientAnalysis::new(TransientOptions {
            reuse_jacobian: false,
            ..base
        })
        .run(&c)
        .unwrap();
        assert_eq!(classical.statistics().predicted_steps, 0);
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
        assert_eq!(result.times().last(), Some(&1e-3));
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
    fn a_newton_failure_keeps_fixed_samples_on_the_dt_grid() {
        // A 2 V / 1 kHz half-wave rectifier. One injected singular
        // factorisation fails a step's Newton solve; the retry halves inside
        // that step's grid interval, so the run keeps the clean run's grid.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::sine(2.0, 1000.0),
        ));
        c.add(Diode::new("D", vin, out));
        c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
        c.add(Resistor::new("R", out, Circuit::GROUND, 10e3));
        let dt = 1e-5;
        for record_interval in [None, Some(5.0 * dt)] {
            let options = TransientOptions {
                t_stop: 2e-3,
                dt,
                record_interval,
                ..TransientOptions::default()
            };
            let analysis = TransientAnalysis::new(options);
            let clean = analysis.run(&c).unwrap();
            let mut ws = TransientWorkspace::for_circuit(&c, &options).unwrap();
            let mut injector = FaultInjector::new();
            injector.arm(Fault::SingularFactorization, 5);
            ws.install_fault_injector(injector);
            let faulted = analysis.run_with(&c, &mut ws).unwrap();
            let injector = ws.take_fault_injector().unwrap();
            assert_eq!(injector.fired(Fault::SingularFactorization), 1);
            assert_eq!(clean.statistics().rejected_steps, 0);
            assert!(
                faulted.statistics().rejected_steps > 0,
                "{record_interval:?}"
            );
            assert_eq!(faulted.len(), clean.len(), "{record_interval:?}");
            assert_eq!(faulted.times().last(), clean.times().last());
            for &t in faulted.times() {
                assert_eq!(t, (t / dt).round() * dt, "sample {t} is off the {dt} grid");
                if let Some(interval) = record_interval {
                    let j = (t / interval).round();
                    assert!(
                        (t - j * interval).abs() <= 1e-9 * interval,
                        "sample {t} is off the {interval} recording grid"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_record_intervals_are_rejected() {
        let (c, _) = rc_circuit();
        for step_control in [StepControl::Fixed, StepControl::adaptive()] {
            for interval in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
                let options = TransientOptions {
                    t_stop: 1e-4,
                    record_interval: Some(interval),
                    step_control,
                    ..TransientOptions::default()
                };
                match options.validate() {
                    Err(MnaError::InvalidOptions(msg)) => {
                        assert!(msg.contains("record_interval"), "{msg}")
                    }
                    other => panic!("{interval}: validate() returned {other:?}"),
                }
                assert!(
                    matches!(
                        TransientAnalysis::new(options).run(&c),
                        Err(MnaError::InvalidOptions(_))
                    ),
                    "{step_control:?}/{interval}: run() must refuse the interval"
                );
            }
        }
    }

    #[test]
    fn run_statistics_merge_accumulates_every_counter() {
        let mut a = RunStatistics::default();
        for (k, (_, value)) in a.counters_mut().into_iter().enumerate() {
            *value = k + 1;
        }
        let mut b = a;
        b.merge(&a);
        for ((name, merged), (_, single)) in b.counters().into_iter().zip(a.counters()) {
            assert_eq!(merged, 2 * single, "{name}");
        }
        let names = a.counters().map(|(name, _)| name);
        assert_eq!(names.len(), RunStatistics::COUNTERS);
        assert_eq!(names[0], "accepted_steps");
        assert_eq!(names[RunStatistics::COUNTERS - 1], "recovery_retries");
        assert_eq!(a.accepted_steps, 1);
        assert_eq!(a.recovery_retries, RunStatistics::COUNTERS);
    }

    #[test]
    fn the_sparse_pattern_is_derived_from_the_stamps() {
        /// A device known only by its stamps.
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
        let options = TransientOptions {
            t_stop: 1e-5,
            dt: 1e-6,
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        };
        // Unknowns: v(in), v(out), V.i. Only the source's branch current
        // and v(out) never meet in one stamp.
        let ws = TransientWorkspace::for_circuit(&c, &options).unwrap();
        let pattern = sparse_jacobian(&ws);
        assert_eq!(pattern.nnz(), 7);
        assert!(pattern.position(1, 2).is_none() && pattern.position(2, 1).is_none());
        let result = TransientAnalysis::new(options).run(&c).unwrap();
        // Voltage divider: 100 Ω over (100 Ω + 100 Ω).
        assert!((result.final_voltage(out) - 0.5).abs() < 1e-9);
    }

    /// Assembles `circuit` at the iterate `x` into `ws`'s Jacobian.
    fn assemble_at(circuit: &Circuit, ws: &mut TransientWorkspace, x: &[f64]) {
        assemble(
            circuit,
            &ws.layout,
            StampPoint::new(0.0, 1e-3, IntegrationMethod::BackwardEuler, false),
            x,
            &ws.states,
            &mut ws.new_states,
            &mut ws.residual,
            ws.jacobian.view(true),
            None,
        );
    }

    /// The sparse Jacobian's pattern and values as a CSR matrix.
    fn sparse_jacobian(ws: &TransientWorkspace) -> SparseMatrix {
        assert_eq!(ws.backend(), SolverBackend::Sparse);
        let system = &ws.jacobian.system;
        let mut entries = Vec::new();
        system.for_each_slot(system.values(), |r, c, v| entries.push((r, c, v)));
        let n = ws.unknown_count();
        SparseMatrix::from_triplets(n, n, &entries)
    }

    fn sparse_options() -> TransientOptions {
        TransientOptions {
            backend: SolverBackend::Sparse,
            ..TransientOptions::default()
        }
    }

    /// A two-terminal device whose stamp sequence depends on the iterate: it
    /// skips its `(a, b)` derivative while `v(a) − v(b)` is negative and
    /// writes `(b, b)` twice.
    #[derive(Clone, Copy)]
    struct IterateDependent {
        a: NodeId,
        b: NodeId,
    }

    impl IterateDependent {
        /// The Jacobian stamps at branch voltage `v`, in write order.
        fn stamps(&self, v: f64) -> Vec<(NodeId, NodeId, f64)> {
            let g = 1e-3 * (1.0 + v * v);
            let mut stamps = vec![(self.a, self.a, g)];
            if v >= 0.0 {
                stamps.push((self.a, self.b, -g));
            }
            stamps.extend([
                (self.b, self.a, -g),
                (self.b, self.b, 0.5 * g),
                (self.b, self.b, 0.5 * g + v),
            ]);
            stamps
        }
    }

    impl crate::device::Device for IterateDependent {
        fn name(&self) -> &str {
            "flip"
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            let v = ctx.voltage_between(self.a, self.b);
            for (row, col, value) in self.stamps(v) {
                ctx.add_current_derivative(row, crate::device::Unknown::Node(col), value);
            }
        }
    }

    #[test]
    fn slot_cache_assembles_what_lookups_assemble_when_the_stamp_sequence_changes() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let m = c.node("m");
        let devices = [IterateDependent { a, b }, IterateDependent { a: b, b: m }];
        for device in devices {
            c.add(device);
        }
        let mut ws = TransientWorkspace::for_circuit(&c, &sparse_options()).unwrap();
        // Iterates that flip each device's branch-voltage sign in turn.
        let iterates = [
            [1.0, 0.0, 0.5],
            [-1.0, 0.0, 0.5],
            [-1.0, 0.0, -0.5],
            [1.0, 0.0, -0.5],
            [1.0, 0.0, 0.5],
            [-2.0, 1.0, 0.25],
        ];
        for x in iterates {
            assemble_at(&c, &mut ws, &x);
            let mut reference = sparse_jacobian(&ws);
            reference.fill_zero();
            for device in devices {
                let v = x[device.a.index() - 1] - x[device.b.index() - 1];
                for (row, col, value) in device.stamps(v) {
                    reference.add_at(row.index() - 1, col.index() - 1, value);
                }
            }
            let bits =
                |m: &SparseMatrix| -> Vec<u64> { m.values().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&sparse_jacobian(&ws)), bits(&reference), "at {x:?}");
        }
    }

    #[test]
    fn slot_cache_follows_a_reordered_circuit_on_a_reused_workspace() {
        // Same layout and pattern, R1 and R2 stamped in the opposite order.
        fn ladder(swapped: bool) -> Circuit {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let mid = c.node("mid");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "V",
                vin,
                Circuit::GROUND,
                Waveform::sine(1.0, 1e3),
            ));
            let r1 = Resistor::new("R1", vin, mid, 1e3);
            let r2 = Resistor::new("R2", mid, out, 2.2e3);
            if swapped {
                c.add(r2);
                c.add(r1);
            } else {
                c.add(r1);
                c.add(r2);
            }
            c.add(Capacitor::new("C1", mid, Circuit::GROUND, 1e-7));
            c.add(Capacitor::new("C2", out, Circuit::GROUND, 4.7e-8));
            c
        }
        let analysis = TransientAnalysis::new(TransientOptions {
            t_stop: 2e-3,
            dt: 1e-5,
            ..sparse_options()
        });
        let (first, second) = (ladder(false), ladder(true));
        let mut ws = TransientWorkspace::for_circuit(&first, analysis.options()).unwrap();
        assert!(ws.fits(&second, analysis.options()));
        for circuit in [&first, &second] {
            let fresh = analysis.run(circuit).unwrap();
            ws.invalidate_factors();
            let reused = analysis.run_with(circuit, &mut ws).unwrap();
            assert_eq!(
                fresh.statistics().newton_iterations,
                reused.statistics().newton_iterations
            );
            assert_eq!(fresh.len(), reused.len());
            for k in 0..fresh.len() {
                let (f, r) = (fresh.sample(k), reused.sample(k));
                assert!(
                    f.iter().zip(r).all(|(f, r)| f.to_bits() == r.to_bits()),
                    "sample {k}: fresh {f:?} vs reused {r:?}"
                );
            }
        }
    }

    #[test]
    fn a_stamp_outside_the_pattern_panics_on_any_assembly() {
        /// Stamps only its diagonal at the zero iterate, where the pattern
        /// is recorded, but stamps `(a, b)` between two diagonal writes once
        /// `v(a)` exceeds 0.5 V: a breach of the stamp contract.
        struct Stray {
            a: NodeId,
            b: NodeId,
        }
        impl crate::device::Device for Stray {
            fn name(&self) -> &str {
                "stray"
            }
            fn stamp(&self, ctx: &mut StampContext<'_>) {
                use crate::device::Unknown::Node;
                ctx.add_current_derivative(self.a, Node(self.a), 1.0);
                if ctx.voltage(self.a) > 0.5 {
                    ctx.add_current_derivative(self.a, Node(self.b), -1.0);
                }
                ctx.add_current_derivative(self.a, Node(self.a), 1.0);
            }
        }
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Stray { a, b });
        c.add(Resistor::new("R", b, Circuit::GROUND, 1.0));
        let quiet = [0.0, 0.0];
        let stray = [1.0, 0.0];
        let panic_message = |history: &[[f64; 2]]| -> String {
            let mut ws = TransientWorkspace::for_circuit(&c, &sparse_options()).unwrap();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for x in history {
                    assemble_at(&c, &mut ws, x);
                }
            }))
            .expect_err("the stray stamp must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        let message = "entry (0, 1) is not in the sparsity pattern";
        assert_eq!(panic_message(&[stray]), message, "first assembly");
        assert_eq!(
            panic_message(&[quiet, quiet, stray]),
            message,
            "after the cache has bound every stamp"
        );
    }
}
