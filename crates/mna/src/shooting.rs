//! Shooting-Newton periodic steady-state (PSS) analysis.
//!
//! Every point on the paper's charging characteristic clamps the storage
//! voltage and asks for the **periodic steady state** of the clamped circuit
//! under its sinusoidal vibration — brute force reaches it by integrating
//! dozens of settle cycles until the start-up transient has died out. This
//! module solves for the steady state directly, SPICE-PSS style:
//!
//! 1. integrate a short warm-up (a few excitation periods) to land inside the
//!    Newton basin;
//! 2. integrate **one** period `T`, banking every accepted step's factored
//!    Newton Jacobian and its dynamic stamp matrix `W` (extracted from two
//!    Jacobian assemblies at `h` and `2h`) — the chain that applies the
//!    monodromy matrix `M = ∂x(T)/∂x(0)` to a vector with one
//!    back-substitution per step (see [`harvester_numerics::monodromy`] for
//!    the recursion);
//! 3. Newton-update the period-start state: solve
//!    `(I − M)·Δx₀ = x(T) − x(0)` by restarted GMRES over the banked chain,
//!    never forming `M`, and repeat from 2 until the orbit closes to
//!    tolerance. Should GMRES stagnate or exhaust its matvec budget, `M` is
//!    formed from `n` replays of the same chain and the update is solved by
//!    LU instead (counted in [`RunStatistics::gmres_fallbacks`]).
//!
//! A damped physical circuit typically closes in a handful of iterations —
//! each costing one period — where settling costs tens of periods, and the
//! converged period *is* the measurement window: cycle averages taken over
//! it need no settling margin at all.
//!
//! # Scope and fallback
//!
//! The engine requires a `T`-periodic excitation: every device must report a
//! commensurate [`Device::excitation_period`](crate::device::Device::excitation_period)
//! (sources delegate to [`Waveform::period`](crate::waveform::Waveform::period)).
//! Aperiodic circuits are refused with [`MnaError::InvalidOptions`]. The
//! sensitivity recursion further assumes that devices interact with their
//! integration history only through
//! [`StampContext::ddt`](crate::device::StampContext::ddt) and use the
//! resulting derivatives linearly — true for every physical device in this
//! workspace. Shooting can also stall (`converged == false` in the
//! [`SteadyStateResult`]) near non-smooth operating regions, e.g. the
//! peak-detection knee of a multiplier where the orbit's dependence on its
//! start state is nearly neutral; callers such as the envelope simulator
//! then **fall back to brute-force settling**. That fallback is not free of
//! bias: it measures a fixed settle, not the orbit. On the GA's design
//! pool one envelope grid point in ten falls back (perfbench's
//! `envelope.fallback_ratio` reads 0.0997 on a seed-1 `ga_campaign` run).
//!
//! # Example
//!
//! ```
//! use harvester_mna::circuit::Circuit;
//! use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
//! use harvester_mna::shooting::{SteadyStateAnalysis, SteadyStateOptions};
//! use harvester_mna::waveform::Waveform;
//!
//! # fn main() -> Result<(), harvester_mna::MnaError> {
//! let mut circuit = Circuit::new();
//! let vin = circuit.node("in");
//! let out = circuit.node("out");
//! circuit.add(VoltageSource::new("V", vin, Circuit::GROUND, Waveform::sine(1.0, 1000.0)));
//! circuit.add(Resistor::new("R", vin, out, 1e3));
//! circuit.add(Capacitor::new("C", out, Circuit::GROUND, 1e-7));
//!
//! let mut options = SteadyStateOptions::new(1e-3); // one 1 kHz period
//! options.transient.dt = 1e-5;
//! let pss = SteadyStateAnalysis::new(options).run(&circuit)?;
//! assert!(pss.converged);
//! // The recorded trace is exactly one periodic excitation cycle.
//! assert!(pss.result.statistics().integrated_cycles < 10);
//! # Ok(())
//! # }
//! ```

use crate::circuit::Circuit;
use crate::device::{assemble, StampPoint, DDT_VALUE_SLOT};
use crate::transient::{
    IntegrationMethod, RecoveryPolicy, RunStatistics, SimulationBudget, StepControl,
    TransientAnalysis, TransientOptions, TransientResult, TransientWorkspace,
};
use crate::MnaError;
use harvester_numerics::fault::FaultInjector;
use harvester_numerics::gmres::{GmresOptions, GmresWorkspace};
use harvester_numerics::linalg::{norm_inf, Matrix};
use harvester_numerics::monodromy::{shooting_update, VectorSensitivity};
use harvester_numerics::system::{Factors, LinearSystem};
use harvester_numerics::NumericsError;

/// Options of a [`SteadyStateAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateOptions {
    /// The excitation period `T` in seconds: the analysis solves
    /// `x(t + T) = x(t)`. Every device must be `T`-periodic (or
    /// time-invariant); sub-harmonics `T/k` are fine.
    pub period: f64,
    /// Excitation periods integrated before the first closure iterate, so
    /// Newton starts inside its basin. At least
    /// one (enforced by validation): the very first transient step uses the
    /// backward-Euler start-up companion model, which the sensitivity
    /// recursion must never see mid-period.
    pub warmup_cycles: f64,
    /// Largest number of shooting-Newton updates before the analysis gives
    /// up and reports `converged == false`.
    pub max_iterations: usize,
    /// Weighted closure tolerance: the orbit is converged when
    /// `max_i |x_i(T) − x_i(0)| / (1 + max(|x_i(T)|, |x_i(0)|))` drops below
    /// this.
    pub tolerance: f64,
    /// Transient settings of the in-period integration: `dt` is the nominal
    /// step (rounded so an integer number of steps spans the period
    /// exactly), and `method`, `backend` and the Newton tolerances apply as
    /// usual. `t_stop`, `record_interval`, `step_control`, `recovery` and
    /// `budget` are managed by the shooting engine: warm-up and periods
    /// march through the transient engine's loop under fixed stepping, on
    /// the grid `t_k = t₀ + k·dt` computed by index, so every period lands
    /// exactly on its end and a Newton failure halves only inside its grid
    /// interval (the sensitivity chain and the exact period landing both
    /// want the uniform grid). The engine consults neither the recovery
    /// policy nor the budget.
    pub transient: TransientOptions,
    /// Continuation: start from the workspace's current solution and device
    /// states instead of resetting to the circuit's initial conditions. The
    /// workspace must hold the *end state of a previous run on the same
    /// layout* whose period-boundary phase matches this run's (any state
    /// saved at an integer number of excitation periods qualifies). This is
    /// how the envelope simulator chains its storage-voltage grid: the
    /// converged orbit of one clamp voltage is an excellent Newton start for
    /// the next, which tames operating points whose cold-started closure
    /// Newton would stall in the strongly nonlinear pump-charging regime.
    /// Only honoured by [`SteadyStateAnalysis::run_with`]; a fresh
    /// [`SteadyStateAnalysis::run`] always cold-starts.
    pub warm_start: bool,
}

impl SteadyStateOptions {
    /// Default number of warm-up periods.
    pub const DEFAULT_WARMUP_CYCLES: f64 = 4.0;
    /// Default shooting-Newton iteration budget.
    pub const DEFAULT_MAX_ITERATIONS: usize = 12;
    /// Default weighted closure tolerance.
    pub const DEFAULT_TOLERANCE: f64 = 1e-6;

    /// Engine-recommended options for an excitation period of `period`
    /// seconds (customise the public fields afterwards).
    pub fn new(period: f64) -> Self {
        SteadyStateOptions {
            period,
            warmup_cycles: Self::DEFAULT_WARMUP_CYCLES,
            max_iterations: Self::DEFAULT_MAX_ITERATIONS,
            tolerance: Self::DEFAULT_TOLERANCE,
            transient: TransientOptions::default(),
            warm_start: false,
        }
    }

    /// Checks the options for consistency — the shared checker (see
    /// [`crate::options`]) behind [`SteadyStateAnalysis::run`] and the
    /// analysis plan's `.pss` cards.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidOptions`] naming the offending option.
    pub fn validate(&self) -> Result<(), MnaError> {
        crate::options::positive_finite("shooting period", self.period)?;
        if self.warmup_cycles < 1.0 || !self.warmup_cycles.is_finite() {
            return Err(crate::options::invalid(format!(
                "shooting warmup_cycles must be at least 1 (the start-up step's \
                 backward-Euler companion model must stay out of the sensitivity \
                 chain), got {}",
                self.warmup_cycles
            )));
        }
        crate::options::at_least("shooting max_iterations", self.max_iterations, 1)?;
        crate::options::positive_finite("shooting tolerance", self.tolerance)?;
        crate::options::positive_finite("shooting transient dt", self.transient.dt)
    }
}

/// Fewest fixed steps the engine places across one period, whatever the
/// requested `dt`: below this the trapezoidal orbit is too coarse for the
/// closure tolerance to mean anything.
const MIN_STEPS_PER_PERIOD: usize = 16;

/// Shooting updates larger than this multiple of `1 + ‖x₀‖∞` are scaled
/// down: a near-neutral monodromy direction can request an absurd jump, and
/// a damped step keeps Newton inside the basin it warmed up into.
const UPDATE_DAMPING: f64 = 4.0;

/// Smallest back-tracking fraction of a Newton step before the line search
/// concedes that the closure cannot be improved along this direction and the
/// analysis reports non-convergence (→ brute-force fallback at the caller).
const MIN_STEP_SCALE: f64 = 1.0 / 64.0;

/// Relative GMRES residual of the closure solve under the closure tolerance
/// `tol`: `tol / 100`, nested two decades under the orbit's own tolerance so
/// the Krylov update is a full-quality Newton direction (the closure Newton
/// converges as it would on the exactly solved update), floored at `1e-10`.
/// A fixed `1e-10` asked for more than the replayed chain delivers in
/// floating point on an ill-conditioned `I − M`: GMRES stagnated and paid
/// `n` more replays for the LU fallback on 8 closure solves of the `pss`
/// bench's Villard envelope (2 under this rule) and on 384 of a seed-1
/// `ga_campaign` run (74).
fn closure_gmres_tolerance(tol: f64) -> f64 {
    (tol / 100.0).max(1e-10)
}

/// Krylov subspace dimension per GMRES restart cycle of the closure solve.
const SHOOTING_GMRES_RESTART: usize = 24;

/// Matvec budget of one closure solve (each matvec replays one linearised
/// period); exhausting it triggers the LU fallback. A damped circuit's
/// `I − M` spectrum clusters around 1, so GMRES usually needs a handful.
const SHOOTING_GMRES_MAX_MATVECS: usize = 96;

/// One banked step of a shooting period: the converged Newton
/// Jacobian's factorisation and the step's effective size and memory rule.
/// A sparse factorisation is banked as a handle on the symbolic analysis it
/// was factored under plus its numeric values, refilled in place (see
/// [`LinearSystem::export`]). The point's `W` stamps live in
/// [`PeriodCache::w`] (indexed one past the step, slot 0 being the
/// period-start seed).
#[derive(Debug)]
struct CachedPeriodStep {
    factors: Option<Factors>,
    h_eff: f64,
    trapezoidal_memory: bool,
}

/// The shooting engine's bank of one nonlinear period sweep: per-step
/// factored Jacobians and sparse `W` stamps, replayed by
/// [`PeriodCache::apply_monodromy`] to compute `M·v` with one
/// back-substitution per step. All slots are reused across periods and
/// shooting iterations; steady state allocates nothing after the first
/// period.
///
/// Each point's `W` is extracted into a values vector laid out like the
/// Jacobian's own storage (slot by slot, see [`LinearSystem::values`]) and
/// swept from there into row-major triplets, so banking a step costs
/// `O(nnz)` on the sparse backend (`O(n²)` on the dense one, whose storage
/// is the full matrix).
#[derive(Debug)]
struct PeriodCache {
    n: usize,
    /// The `W` being extracted, one value per Jacobian storage slot.
    w_values: Vec<f64>,
    /// `W` stamps as `(row, col, value)` triplets: slot 0 the period-start
    /// point, slot `k ≥ 1` the `k`-th accepted point.
    w: Vec<Vec<(usize, usize, f64)>>,
    steps: Vec<CachedPeriodStep>,
    /// Accepted steps banked this period (`w` slots in use: this + 1).
    used_steps: usize,
    prop: VectorSensitivity,
    /// The n×n dense extraction that `w_values` replaced, run beside it
    /// when set (see `tests::DenseExtraction`).
    #[cfg(test)]
    reference: Option<tests::DenseExtraction>,
}

impl PeriodCache {
    fn new(n: usize) -> Self {
        PeriodCache {
            n,
            w_values: Vec::new(),
            w: Vec::new(),
            steps: Vec::new(),
            used_steps: 0,
            prop: VectorSensitivity::new(n),
            #[cfg(test)]
            reference: None,
        }
    }

    /// Starts extracting a fresh `W` from `jacobian`'s assemblies.
    fn clear_w(&mut self, jacobian: &LinearSystem) {
        self.w_values.clear();
        self.w_values.resize(jacobian.values().len(), 0.0);
        #[cfg(test)]
        if let Some(reference) = self.reference.as_mut() {
            reference.clear();
        }
    }

    /// Adds `alpha ×` the Jacobian currently assembled in `jacobian` to the
    /// `W` being extracted. Zero entries are skipped.
    fn accumulate_w(&mut self, jacobian: &LinearSystem, alpha: f64) {
        for (w, &v) in self.w_values.iter_mut().zip(jacobian.values()) {
            if v != 0.0 {
                *w += alpha * v;
            }
        }
        #[cfg(test)]
        if let Some(reference) = self.reference.as_mut() {
            reference.accumulate(jacobian, alpha);
        }
    }

    /// Sweeps the non-zero entries of the extracted `W` into the triplet
    /// slot `idx` in row-major order, reusing its allocation.
    fn sweep_w_into(&mut self, jacobian: &LinearSystem, idx: usize) {
        if self.w.len() <= idx {
            self.w.push(Vec::new());
        }
        let out = &mut self.w[idx];
        out.clear();
        jacobian.for_each_slot(&self.w_values, |r, c, v| {
            if v != 0.0 {
                out.push((r, c, v));
            }
        });
        #[cfg(test)]
        if let Some(reference) = self.reference.as_mut() {
            reference.sweep_into(idx);
        }
    }

    /// Starts a fresh period at the point whose `W` was just extracted.
    fn seed(&mut self, jacobian: &LinearSystem) {
        self.sweep_w_into(jacobian, 0);
        self.used_steps = 0;
    }

    /// Banks one accepted step: its extracted `W` and the factored Jacobian
    /// currently cached in `jacobian`. Returns `false` when no factors are
    /// available.
    fn push_step(&mut self, jacobian: &LinearSystem, h_eff: f64, trapezoidal_memory: bool) -> bool {
        let idx = self.used_steps;
        self.sweep_w_into(jacobian, idx + 1);
        if self.steps.len() <= idx {
            self.steps.push(CachedPeriodStep {
                factors: None,
                h_eff,
                trapezoidal_memory,
            });
        } else {
            self.steps[idx].h_eff = h_eff;
            self.steps[idx].trapezoidal_memory = trapezoidal_memory;
        }
        if !jacobian.export(&mut self.steps[idx].factors) {
            return false;
        }
        self.used_steps = idx + 1;
        true
    }

    /// Banks one step of the period march: the hook it hands every accepted
    /// step, once committed. The Jacobian is the one the step's Newton solve
    /// stamped in its final assembly, at the accepted iterate and `point`
    /// (a march with a hook asks for it); it is factored once for the
    /// sensitivity solves, then the dynamic stamp matrix `W` is extracted
    /// from assemblies at `h` and `2h`. No solves happen here: the chain is
    /// replayed lazily, one back-substitution per step per Krylov matvec.
    fn bank_step(
        &mut self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        point: StampPoint,
        stats: &mut RunStatistics,
    ) -> Result<(), MnaError> {
        let singular = || {
            MnaError::Numerics(NumericsError::SingularMatrix {
                column: 0,
                pivot: 0.0,
            })
        };
        if !ws.jacobian.factor(stats, ws.fault.as_mut()) {
            return Err(singular());
        }
        // These factors are fresh at the step's (h, first) pair: bank the
        // bypass metadata so the next step's modified Newton reuses them
        // instead of factoring its own.
        ws.factored_h = point.dt;
        ws.factored_first = point.first_step;
        // The W matrices are always extracted at trapezoidal gains
        // (`W = 2·B·E`, from assemblies at `h` and `2h` whose static parts
        // cancel). A backward-Euler start-up step consumes
        // `(1/h)·B·E = W/(2h)` and commits a memory-free derivative
        // `q = (v − p)/h`, which is exactly the trapezoidal-memory-free
        // recursion at an effective step of `2h`. Its in-place Jacobian
        // carries *BE* gains, so both extraction assemblies must be redone
        // at trapezoidal gains (`first = false`) instead of reusing it. The
        // assemblies scribble over `new_states`, which the march has
        // already committed.
        let h = point.dt;
        let trapezoidal = point.method == IntegrationMethod::Trapezoidal;
        let be_startup = point.first_step && trapezoidal;
        self.clear_w(&ws.jacobian.system);
        if be_startup {
            ws.assemble_solution(
                circuit,
                StampPoint::new(point.time, h, point.method, false),
                true,
            );
        }
        self.accumulate_w(&ws.jacobian.system, 2.0 * h);
        ws.assemble_solution(
            circuit,
            StampPoint::new(point.time, 2.0 * h, point.method, false),
            true,
        );
        stats.jacobian_assemblies += 1 + usize::from(be_startup);
        self.accumulate_w(&ws.jacobian.system, -2.0 * h);
        let h_eff = if be_startup { 2.0 * h } else { h };
        if !self.push_step(&ws.jacobian.system, h_eff, trapezoidal && !point.first_step) {
            return Err(singular());
        }
        Ok(())
    }

    /// Computes `out = M·v` by propagating `v` through the banked period —
    /// one back-substitution per step. Returns the number of linear solves
    /// performed, or `None` when a banked factorisation failed to
    /// back-substitute.
    fn apply_monodromy(&mut self, v: &[f64], out: &mut [f64]) -> Option<usize> {
        self.prop.seed(v);
        for k in 0..self.used_steps {
            let step = &self.steps[k];
            let factors = step.factors.as_ref()?;
            self.prop
                .advance_step(
                    step.h_eff,
                    step.trapezoidal_memory,
                    &self.w[k],
                    &self.w[k + 1],
                    |rhs, sol| factors.solve_into(rhs, sol).is_ok(),
                )
                .ok()?;
        }
        out.copy_from_slice(self.prop.state());
        Some(self.used_steps)
    }
}

/// The closure solver: the period bank plus the reusable GMRES workspace
/// that solves `(I − M)·Δx₀ = x(T) − x(0)` against it.
#[derive(Debug)]
struct ClosureSolver {
    cache: PeriodCache,
    gmres: GmresWorkspace,
    update: Vec<f64>,
    /// Relative GMRES residual, derived from the closure tolerance by
    /// [`closure_gmres_tolerance`].
    rtol: f64,
}

impl ClosureSolver {
    fn new(n: usize, tolerance: f64) -> Self {
        ClosureSolver {
            cache: PeriodCache::new(n),
            gmres: GmresWorkspace::new(n, SHOOTING_GMRES_RESTART),
            update: vec![0.0; n],
            rtol: closure_gmres_tolerance(tolerance),
        }
    }

    /// Solves the closure system by GMRES over the banked chain; on Krylov
    /// stagnation or an exhausted matvec budget, falls back to forming `M`
    /// from `n` replays of the same chain and solving by LU, so a hard
    /// period still gets an exact Newton direction.
    /// `fault` reaches the GMRES stagnation check, so an armed
    /// [`Fault::KrylovStagnation`](harvester_numerics::fault::Fault::KrylovStagnation)
    /// drives this exact fallback on demand.
    fn solve_update(
        &mut self,
        closure: &[f64],
        stats: &mut RunStatistics,
        fault: Option<&mut FaultInjector>,
    ) -> Result<Vec<f64>, NumericsError> {
        let n = self.cache.n;
        self.update.iter_mut().for_each(|u| *u = 0.0);
        let mut solves = 0usize;
        let mut broke = false;
        let cache = &mut self.cache;
        let result = self.gmres.solve_with_injector(
            |v, out| match cache.apply_monodromy(v, out) {
                Some(count) => {
                    solves += count;
                    for (o, &vi) in out.iter_mut().zip(v.iter()) {
                        *o = vi - *o;
                    }
                }
                None => {
                    broke = true;
                    out.fill(f64::NAN);
                }
            },
            closure,
            &mut self.update,
            &GmresOptions {
                restart: SHOOTING_GMRES_RESTART,
                max_matvecs: SHOOTING_GMRES_MAX_MATVECS,
                tolerance: self.rtol,
            },
            fault,
        );
        stats.linear_solves += solves;
        if broke {
            // A banked factorisation failed to back-substitute: the LU
            // fallback would replay the same chain, so report instead.
            return Err(NumericsError::SingularMatrix {
                column: 0,
                pivot: 0.0,
            });
        }
        match result {
            Ok(_) => Ok(self.update.clone()),
            Err(_) => {
                stats.gmres_fallbacks += 1;
                let mut monodromy = Matrix::zeros(n, n);
                let mut basis = vec![0.0; n];
                let mut column = vec![0.0; n];
                let mut solves = 0usize;
                for j in 0..n {
                    basis.iter_mut().for_each(|b| *b = 0.0);
                    basis[j] = 1.0;
                    match self.cache.apply_monodromy(&basis, &mut column) {
                        Some(count) => solves += count,
                        None => {
                            return Err(NumericsError::SingularMatrix {
                                column: j,
                                pivot: 0.0,
                            })
                        }
                    }
                    for i in 0..n {
                        monodromy[(i, j)] = column[i];
                    }
                }
                stats.linear_solves += solves;
                shooting_update(&monodromy, closure)
            }
        }
    }
}

/// Outcome of a periodic steady-state analysis.
#[derive(Debug, Clone)]
pub struct SteadyStateResult {
    /// The last **fully integrated** excitation period, recorded at every
    /// fixed step (absolute simulation times; the first sample is the
    /// period-start state). When `converged`, this *is* the periodic steady
    /// state — cycle averages over it need no settling margin; when the
    /// final iteration broke down mid-period, only the period-start sample
    /// remains (never a misleading fraction of a period). Its
    /// [`TransientResult::statistics`] carry the work counters of the whole
    /// analysis, including
    /// [`RunStatistics::integrated_cycles`] and
    /// [`RunStatistics::shooting_iterations`].
    pub result: TransientResult,
    /// Whether the orbit closed to tolerance within the iteration budget.
    /// When `false`, `result` still holds the best available period, but
    /// callers should fall back to brute-force settling.
    pub converged: bool,
    /// Shooting-Newton updates applied.
    pub iterations: usize,
    /// Weighted closure error of the returned period.
    pub closure_error: f64,
}

impl SteadyStateResult {
    /// Work counters of the whole analysis (warm-up plus every shooting
    /// iteration).
    pub fn statistics(&self) -> RunStatistics {
        self.result.statistics()
    }
}

/// The shooting-Newton periodic steady-state driver. See the
/// [module docs](self) for the method.
#[derive(Debug, Clone)]
pub struct SteadyStateAnalysis {
    options: SteadyStateOptions,
}

impl SteadyStateAnalysis {
    /// Creates an analysis with the given options.
    pub fn new(options: SteadyStateOptions) -> Self {
        SteadyStateAnalysis { options }
    }

    /// The analysis options.
    pub fn options(&self) -> &SteadyStateOptions {
        &self.options
    }

    /// Runs the analysis with a freshly built workspace.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidOptions`] for nonsensical options or an aperiodic
    /// circuit, [`MnaError::InvalidNetlist`] for an empty circuit, and
    /// [`MnaError::StepFailed`] / [`MnaError::Numerics`] when the *warm-up*
    /// integration breaks down (the circuit cannot simulate at all). A
    /// breakdown during a shooting iteration — usually the closure Newton's
    /// own over-reached start state — is treated like any other stall: the
    /// result comes back with `converged == false` and its work counters
    /// intact, so callers account the attempt before falling back.
    pub fn run(&self, circuit: &Circuit) -> Result<SteadyStateResult, MnaError> {
        self.options.validate()?;
        let transient = self.effective_transient();
        let mut workspace = TransientWorkspace::for_circuit(circuit, &transient)?;
        let mut cold = self.clone();
        cold.options.warm_start = false;
        cold.run_with(circuit, &mut workspace)
    }

    /// Runs the analysis reusing an existing workspace (the envelope
    /// simulator's reusable buffers). The workspace must
    /// [`fit`](TransientWorkspace::fits) the circuit under the effective
    /// transient options (same layout and resolved backend).
    ///
    /// # Errors
    ///
    /// As [`SteadyStateAnalysis::run`], plus [`MnaError::InvalidOptions`]
    /// for a mismatched workspace.
    pub fn run_with(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
    ) -> Result<SteadyStateResult, MnaError> {
        self.options.validate()?;
        let opts = &self.options;
        if let Some(conflict) = incompatible_device(circuit, opts.period) {
            return Err(MnaError::InvalidOptions(conflict));
        }
        let (steps, dt) = self.period_grid();
        let transient = self.effective_transient();
        let analysis = TransientAnalysis::new(transient);
        if !ws.fits(circuit, analysis.options()) {
            return Err(MnaError::InvalidOptions(
                "workspace does not fit this circuit under the shooting engine's \
                 transient options (layout, backend or sparsity pattern mismatch)"
                    .to_string(),
            ));
        }
        // Continuation keeps the caller's solution and device states: the
        // committed `ddt` histories are phase-consistent by the option's
        // contract.
        if !self.options.warm_start {
            ws.reset(circuit);
        }
        let mut stats = RunStatistics::default();
        let n = ws.unknown_count();
        let warmup = opts.warmup_cycles.ceil() as usize;

        // Warm-up: plain fixed-step marching into the Newton basin. Nothing
        // is recorded and no sensitivity is propagated. A shooting sweep's
        // partially converged orbit is not a useful artefact, so — unlike a
        // `.tran` run, which returns its trace-so-far — a cancelled march is
        // an error here.
        let t_anchor = (warmup * steps) as f64 * dt;
        if analysis
            .march(circuit, ws, 0.0..t_anchor, false, &mut stats, None)?
            .cancelled
        {
            return Err(MnaError::Cancelled);
        }
        stats.integrated_cycles += warmup;

        // Every shooting iteration re-integrates the same absolute window
        // [t_a, t_a + T] (the sources are T-periodic, so the map is the same
        // each time and the uniform grid never drifts).
        let mut solver = ClosureSolver::new(n, opts.tolerance);
        let ddt_mask = self.ddt_value_mask(circuit, ws, t_anchor, dt);

        let mut x0 = vec![0.0; n];
        let mut closure = vec![0.0; n];
        // Damped-Newton line-search state (Deuflhard's natural monotonicity):
        // the accepted period-start iterate, the damped Newton step computed
        // there and that step's length. A trial iterate is accepted when its
        // own Newton step is no longer than the base's — the affine-invariant
        // "estimated distance to the solution", which stays meaningful even
        // when `(I − M)` is ill-conditioned and the raw closure norm is not a
        // faithful merit function. Thanks to the backward-Euler period
        // restart the one-period map is a pure function of the start vector,
        // so backtracking simply re-launches from `base_x0 + scale·delta`.
        let mut base_x0 = vec![0.0; n];
        let mut delta = vec![0.0; n];
        let mut base_step_norm = f64::INFINITY;
        let mut have_base = false;
        let mut step_scale = 1.0f64;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut closure_error = f64::INFINITY;

        for attempt in 0..=opts.max_iterations {
            x0.copy_from_slice(&ws.x);
            if let Err(error) = self.integrate_period(
                circuit,
                &analysis,
                ws,
                t_anchor,
                &mut stats,
                &mut solver.cache,
            ) {
                match error {
                    // A breakdown mid-iteration is usually the closure
                    // Newton's own doing (an over-reached start state
                    // driving the diodes somewhere hopeless), and the
                    // warm-up already proved the circuit integrates: report
                    // a stall — with the work counters intact — so the
                    // caller falls back to settling instead of losing the
                    // attempt's accounting to an error path.
                    MnaError::StepFailed { .. } | MnaError::Numerics(_) => {
                        // Discard the partial-period fragment so the
                        // returned trace is never mistaken for a full period
                        // (only the period-start sample remains).
                        ws.times.truncate(1);
                        ws.history.truncate(n);
                        break;
                    }
                    other => return Err(other),
                }
            }
            stats.integrated_cycles += 1;

            closure_error = weighted_closure_error(&x0, &ws.x);
            if closure_error <= opts.tolerance {
                converged = true;
                break;
            }
            if attempt == opts.max_iterations {
                break;
            }

            for (c, (after, before)) in closure.iter_mut().zip(ws.x.iter().zip(x0.iter())) {
                *c = after - before;
            }
            let accepted = match solver.solve_update(&closure, &mut stats, ws.fault.as_mut()) {
                Ok(update) => {
                    let limit = UPDATE_DAMPING * (1.0 + norm_inf(&x0));
                    let magnitude = norm_inf(&update);
                    let clamp = if magnitude > limit {
                        limit / magnitude
                    } else {
                        1.0
                    };
                    let step_norm = magnitude.min(limit);
                    if magnitude.is_finite() && (!have_base || step_norm <= base_step_norm) {
                        for (d, u) in delta.iter_mut().zip(update.iter()) {
                            *d = clamp * u;
                        }
                        base_x0.copy_from_slice(&x0);
                        base_step_norm = step_norm;
                        have_base = true;
                        step_scale = 1.0;
                        true
                    } else {
                        false
                    }
                }
                // A (numerically) singular `I − M` at a trial point is a
                // rejection, not a verdict: the search backtracks towards
                // the base, where the update was solvable.
                Err(_) => false,
            };
            if !accepted {
                if !have_base {
                    // Not even the first iterate yields a Newton direction:
                    // the orbit is neutrally stable at this discretisation
                    // and shooting cannot improve on settling. Report
                    // non-convergence so the caller falls back.
                    break;
                }
                step_scale *= 0.5;
                if step_scale < MIN_STEP_SCALE {
                    break;
                }
            }
            for (x, (start, d)) in ws.x.iter_mut().zip(base_x0.iter().zip(delta.iter())) {
                *x = start + step_scale * d;
            }
            self.refresh_value_states(circuit, ws, &ddt_mask, t_anchor, dt);
            iterations += 1;
            stats.shooting_iterations += 1;
        }

        let result = TransientResult::from_recorded(ws, circuit, stats, Default::default());
        Ok(SteadyStateResult {
            result,
            converged,
            iterations,
            closure_error,
        })
    }

    /// Which state slots are ddt-managed previous *values*: those are
    /// re-derived from the solution vector whenever a shooting update
    /// restarts the period from a new x0 (the integration history lives in
    /// the device states, not in x — overwriting x alone would leave the
    /// dynamics anchored to the old trajectory). Derivative slots and any
    /// other device state are carried unchanged.
    fn ddt_value_mask(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        t: f64,
        dt: f64,
    ) -> Vec<u8> {
        let mut mask = vec![0u8; ws.layout.total_states];
        assemble(
            circuit,
            &ws.layout,
            StampPoint::new(t, dt, self.options.transient.method, false),
            &ws.x,
            &ws.states,
            &mut ws.new_states,
            &mut ws.residual,
            ws.jacobian.view(false),
            Some(&mut mask),
        );
        mask
    }

    /// Integrates one period `[t_anchor, t_anchor + T]` from the committed
    /// state — the one-period map of a shooting iteration — recording every
    /// grid point and banking the sensitivity chain into `cache`.
    ///
    /// Every period opens with the engine's backward-Euler start-up
    /// companion step: it ignores the derivative history, so a restart —
    /// which can only re-derive the *value* states for its new x₀ — never
    /// injects a derivative-inconsistency transient into the orbit it is
    /// trying to close, and the one-period map becomes a function of x₀
    /// alone. The sensitivity chain accounts for the BE step exactly (see
    /// [`PeriodCache::bank_step`]); the O(h²) local error of one BE step per
    /// period is far below the closure tolerance.
    fn integrate_period(
        &self,
        circuit: &Circuit,
        analysis: &TransientAnalysis,
        ws: &mut TransientWorkspace,
        t_anchor: f64,
        stats: &mut RunStatistics,
        cache: &mut PeriodCache,
    ) -> Result<(), MnaError> {
        let (steps, dt) = self.period_grid();
        ws.times.clear();
        ws.history.clear();
        ws.times.push(t_anchor);
        ws.history.extend_from_slice(&ws.x);
        self.seed_sensitivity(circuit, ws, cache, t_anchor, dt, stats);
        let mut bank = |ws: &mut TransientWorkspace, point, stats: &mut RunStatistics| {
            cache.bank_step(circuit, ws, point, stats)
        };
        let span = t_anchor..t_anchor + steps as f64 * dt;
        if analysis
            .march(circuit, ws, span, true, stats, Some(&mut bank))?
            .cancelled
        {
            return Err(MnaError::Cancelled);
        }
        Ok(())
    }

    /// The fixed period grid: `steps` uniform steps of size `dt` spanning
    /// the period exactly.
    pub(crate) fn period_grid(&self) -> (usize, f64) {
        let period = self.options.period;
        let steps =
            ((period / self.options.transient.dt).round() as usize).max(MIN_STEPS_PER_PERIOD);
        (steps, period / steps as f64)
    }

    /// The transient options the in-period integrations actually run under:
    /// fixed stepping on the period grid (`steps` intervals of `dt` per
    /// period, `t_k = t_a + k·dt` by index, so every period lands exactly
    /// on its end), every grid point recorded.
    ///
    /// The recovery policy and the budget are pinned off
    /// ([`RecoveryPolicy::none`], [`SimulationBudget::UNLIMITED`]): the
    /// shooting engine consults neither. Its work is already bounded by
    /// `max_iterations` periods on a fixed grid, and a failed in-period step
    /// degrades to a reported stall (`converged == false`) that callers
    /// answer with brute-force settling — a coarser but strictly stronger
    /// recovery than any per-step cascade.
    pub(crate) fn effective_transient(&self) -> TransientOptions {
        let (steps, dt) = self.period_grid();
        let cycles = self.options.warmup_cycles.ceil() + self.options.max_iterations as f64 + 2.0;
        TransientOptions {
            t_stop: cycles * steps as f64 * dt,
            dt,
            record_interval: None,
            step_control: StepControl::Fixed,
            min_dt: self.options.transient.min_dt.min(dt),
            recovery: RecoveryPolicy::none(),
            budget: SimulationBudget::UNLIMITED,
            ..self.options.transient
        }
    }

    /// Extracts the dynamic stamp matrix at the current committed state and
    /// seeds the sensitivity chain for a fresh period.
    fn seed_sensitivity(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        cache: &mut PeriodCache,
        t: f64,
        dt: f64,
        stats: &mut RunStatistics,
    ) {
        let method = self.options.transient.method;
        for (scale, h) in [(2.0 * dt, dt), (-2.0 * dt, 2.0 * dt)] {
            ws.assemble_solution(circuit, StampPoint::new(t, h, method, false), true);
            stats.jacobian_assemblies += 1;
            if scale > 0.0 {
                cache.clear_w(&ws.jacobian.system);
            }
            cache.accumulate_w(&ws.jacobian.system, scale);
        }
        cache.seed(&ws.jacobian.system);
    }
}

impl SteadyStateAnalysis {
    /// Re-derives the ddt-managed previous-*value* state slots from the
    /// current solution vector `ws.x` — the state-consistency half of a
    /// shooting restart. A plain assembly writes every differentiated
    /// quantity's value at `ws.x` into `new_states`; the slots flagged in
    /// `ddt_mask` are committed, while derivative slots (and any other
    /// device state) keep their period-end values: they are slaved to the
    /// near-periodic trajectory, converge along with it, and enter the
    /// Newton model as frozen parameters.
    fn refresh_value_states(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        ddt_mask: &[u8],
        t: f64,
        dt: f64,
    ) {
        ws.assemble_solution(
            circuit,
            StampPoint::new(t, dt, self.options.transient.method, false),
            false,
        );
        for (slot, &kind) in ddt_mask.iter().enumerate() {
            if kind == DDT_VALUE_SLOT {
                ws.states[slot] = ws.new_states[slot];
            }
        }
    }
}

/// Weighted infinity-norm closure error between the period-start and
/// period-end states.
fn weighted_closure_error(x0: &[f64], xt: &[f64]) -> f64 {
    x0.iter()
        .zip(xt.iter())
        .map(|(a, b)| (b - a).abs() / (1.0 + a.abs().max(b.abs())))
        .fold(0.0f64, f64::max)
}

/// Returns a human-readable conflict if any device of `circuit` cannot be
/// periodic with `period` (aperiodic, or an incommensurate own period).
fn incompatible_device(circuit: &Circuit, period: f64) -> Option<String> {
    for device in circuit.devices() {
        match device.excitation_period() {
            None => {
                return Some(format!(
                    "device '{}' has aperiodic time dependence: the circuit has no \
                     periodic steady state",
                    device.name()
                ));
            }
            Some(p) if p <= 0.0 => {}
            Some(p) => {
                let ratio = period / p;
                let commensurate =
                    ratio >= 0.5 && (ratio - ratio.round()).abs() <= 1e-6 * ratio.max(1.0);
                if !commensurate {
                    return Some(format!(
                        "device '{}' repeats every {p:.6e} s, which does not divide the \
                         requested steady-state period {period:.6e} s",
                        device.name()
                    ));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::{Capacitor, Diode, Resistor, TimedSwitch, VoltageSource};
    use crate::transient::SolverBackend;
    use crate::waveform::Waveform;
    use harvester_numerics::fault::Fault;
    use harvester_numerics::stats::mean;

    /// The n×n dense `W` extraction the storage-order sweep replaced, kept
    /// as its reference: accumulate every non-zero Jacobian entry, looked up
    /// position by position through its slot, into a dense scratch, then
    /// scan the scratch row by row into triplets. A
    /// [`PeriodCache`] with `reference` set runs it beside its own
    /// extraction and keeps the swept triplets of every `w` slot.
    #[derive(Debug)]
    pub(super) struct DenseExtraction {
        scratch: Matrix,
        w: Vec<Vec<(usize, usize, f64)>>,
    }

    impl DenseExtraction {
        fn new(n: usize) -> Self {
            DenseExtraction {
                scratch: Matrix::zeros(n, n),
                w: Vec::new(),
            }
        }

        pub(super) fn clear(&mut self) {
            self.scratch.fill_zero();
        }

        pub(super) fn accumulate(&mut self, jacobian: &LinearSystem, alpha: f64) {
            let n = self.scratch.rows();
            for r in 0..n {
                for c in 0..n {
                    let v = jacobian.slot(r, c).map_or(0.0, |s| jacobian.values()[s]);
                    if v != 0.0 {
                        self.scratch[(r, c)] += alpha * v;
                    }
                }
            }
        }

        pub(super) fn sweep_into(&mut self, idx: usize) {
            if self.w.len() <= idx {
                self.w.push(Vec::new());
            }
            let out = &mut self.w[idx];
            out.clear();
            let n = self.scratch.rows();
            for r in 0..n {
                for c in 0..n {
                    let v = self.scratch[(r, c)];
                    if v != 0.0 {
                        out.push((r, c, v));
                    }
                }
            }
        }
    }

    fn rc_sine(
        r: f64,
        c: f64,
        amplitude: f64,
        frequency: f64,
    ) -> (Circuit, crate::circuit::NodeId) {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::sine(amplitude, frequency),
        ));
        circuit.add(Resistor::new("R", vin, out, r));
        circuit.add(Capacitor::new("C", out, Circuit::GROUND, c));
        (circuit, out)
    }

    fn rectifier() -> (Circuit, crate::circuit::NodeId) {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::sine(3.0, 1000.0),
        ));
        circuit.add(Diode::new("D", vin, out));
        circuit.add(Capacitor::new("C", out, Circuit::GROUND, 4.7e-7));
        circuit.add(Resistor::new("Rload", out, Circuit::GROUND, 10e3));
        (circuit, out)
    }

    /// Two-stage Villard voltage multiplier: the canonical nonlinear
    /// harvester interface circuit of the paper.
    fn villard() -> (Circuit, crate::circuit::NodeId) {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let pump = circuit.node("pump");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V",
            vin,
            Circuit::GROUND,
            Waveform::sine(2.5, 1000.0),
        ));
        circuit.add(Capacitor::new("Cp", vin, pump, 1e-7));
        circuit.add(Diode::new("Dclamp", Circuit::GROUND, pump));
        circuit.add(Diode::new("Dout", pump, out));
        circuit.add(Capacitor::new("Cout", out, Circuit::GROUND, 4.7e-7));
        circuit.add(Resistor::new("Rload", out, Circuit::GROUND, 47e3));
        (circuit, out)
    }

    fn options(period: f64, dt: f64) -> SteadyStateOptions {
        let mut options = SteadyStateOptions::new(period);
        options.transient.dt = dt;
        options
    }

    #[test]
    fn linear_rc_closes_in_one_newton_update() {
        // The discrete one-period map of a linear circuit is affine, so a
        // single monodromy-based update must land on the fixed point (up to
        // solver roundoff) — the sharpest end-to-end check of the
        // sensitivity chain.
        let (circuit, out) = rc_sine(1e3, 1e-6, 1.0, 1000.0);
        let pss = SteadyStateAnalysis::new(options(1e-3, 5e-6))
            .run(&circuit)
            .unwrap();
        assert!(pss.converged, "closure error {}", pss.closure_error);
        assert!(
            pss.iterations <= 2,
            "a linear circuit must close in one (plus at most one cleanup) \
             Newton update, took {}",
            pss.iterations
        );
        assert!(pss.closure_error <= SteadyStateOptions::DEFAULT_TOLERANCE);
        assert!(pss.statistics().shooting_iterations == pss.iterations);

        // The converged period must match the analytic sinusoidal steady
        // state v(t) = A·sin(ωt − φ)/√(1 + (ωRC)²) to discretisation error.
        let omega = 2.0 * std::f64::consts::PI * 1000.0;
        let tau = 1e3 * 1e-6;
        let gain = 1.0 / (1.0 + (omega * tau).powi(2)).sqrt();
        let phase = (omega * tau).atan();
        let voltages = pss.result.voltage(out);
        for (&t, v) in pss.result.times().iter().zip(voltages) {
            let exact = gain * (omega * t - phase).sin();
            assert!(
                (v - exact).abs() < 6e-3,
                "periodic trace must track the analytic steady state at t={t}: {v} vs {exact}"
            );
        }
    }

    #[test]
    fn rectifier_steady_state_matches_brute_force_settling() {
        // Brute force integrates each fixture for at least ten output time
        // constants (rectifier: 10 kΩ·470 nF = 4.7 ms; Villard: 47 kΩ·470 nF
        // = 22 ms), leaving a start-up residue below e⁻¹⁰ ≈ 5e-5 of the
        // settled value, and averages the last five periods.
        for (label, (circuit, out), settle) in [
            ("rectifier", rectifier(), 50e-3),
            ("villard", villard(), 250e-3),
        ] {
            let pss = SteadyStateAnalysis::new(options(1e-3, 1e-5))
                .run(&circuit)
                .unwrap();
            assert!(
                pss.converged,
                "{label}: closure error {}",
                pss.closure_error
            );

            let brute = TransientAnalysis::new(TransientOptions {
                t_stop: settle,
                dt: 1e-5,
                ..TransientOptions::default()
            })
            .run(&circuit)
            .unwrap();
            let window = |result: &TransientResult, from: f64| -> f64 {
                let samples: Vec<f64> = result
                    .times()
                    .iter()
                    .zip(result.voltage(out))
                    .filter(|(t, _)| **t > from)
                    .map(|(_, v)| v)
                    .collect();
                mean(&samples)
            };
            let shooting_avg = window(&pss.result, pss.result.times()[0]);
            let brute_avg = window(&brute, settle - 5e-3);
            assert!(
                (shooting_avg - brute_avg).abs() < 2e-3 * brute_avg.abs().max(1.0),
                "{label}: shooting steady state must reproduce the settled average: \
                 {shooting_avg} vs {brute_avg}"
            );

            // The whole point: far fewer integrated cycles than settling.
            let cycles = pss.statistics().integrated_cycles;
            assert!(
                cycles < 12,
                "{label}: shooting must need few excitation cycles, took {cycles}"
            );
        }
    }

    /// Checks `PeriodCache::apply_monodromy(e_j)`, column by column, against
    /// central finite differences of the one-period map `x₀ ↦ x(T)` that a
    /// shooting iteration evaluates (value states re-derived from `x₀`,
    /// then one period from the backward-Euler restart). The start point is
    /// the converged orbit with `offset` volts added on `out`.
    ///
    /// The map runs full Newton (`reuse_jacobian = false`) at the default
    /// `delta_tolerance = 1e-9`. Quadratic convergence leaves each accepted
    /// step at roundoff level once the last update passes that tolerance,
    /// so the map itself carries noise `ε ≈ 1e-15 V`. The banked chain
    /// linearises each step at its accepted point, which the convergence
    /// test bounds only to within one update (≤ 1e-9·(1 + |x|) ≈ 4e-9 V)
    /// of the exact step solution — through the diode's `1/V_T ≈ 40 V⁻¹`
    /// curvature a lag of up to ~1e-7 relative in the conducting steps. The
    /// step `δ = 1e-6 V` keeps the difference quotient's noise `ε/δ ≈ 1e-9`
    /// and its truncation `δ²/(6·V_T²) ≈ 2.5e-10` (per unit of `M`) below
    /// that lag. The
    /// tolerance, 100 Newton tolerances (1e-7) on entries of order one,
    /// admits the lag, while an error in the recursion itself (step sizes,
    /// memory terms, `W` extraction) shows up at 1e-2 or more.
    fn assert_chain_matches_finite_differences(
        circuit: &Circuit,
        out: crate::circuit::NodeId,
        offset: f64,
        backend: SolverBackend,
    ) {
        let mut opts = options(1e-3, 1e-5);
        opts.transient.reuse_jacobian = false;
        opts.transient.backend = backend;
        let analysis = SteadyStateAnalysis::new(opts);
        let transient = TransientAnalysis::new(analysis.effective_transient());
        let mut ws = TransientWorkspace::for_circuit(circuit, transient.options()).unwrap();
        assert_eq!(ws.backend(), backend);
        let pss = analysis.run_with(circuit, &mut ws).unwrap();
        assert!(pss.converged);

        // Continue from where the converged run ended, a period boundary.
        let (steps, dt) = analysis.period_grid();
        let t_anchor = *pss.result.times().last().unwrap();
        let mask = analysis.ddt_value_mask(circuit, &mut ws, t_anchor, dt);
        let states0 = ws.states.clone();
        let mut x0 = ws.x.clone();
        x0[out.index() - 1] += offset;
        let n = x0.len();
        let mut period_map = |x: &[f64], cache: &mut PeriodCache| -> Vec<f64> {
            ws.states.copy_from_slice(&states0);
            ws.x.copy_from_slice(x);
            analysis.refresh_value_states(circuit, &mut ws, &mask, t_anchor, dt);
            let mut stats = RunStatistics::default();
            analysis
                .integrate_period(circuit, &transient, &mut ws, t_anchor, &mut stats, cache)
                .unwrap();
            ws.x.clone()
        };

        let mut chain = PeriodCache::new(n);
        period_map(&x0, &mut chain);
        let mut scratch = PeriodCache::new(n);
        let delta = 1e-6;
        for j in 0..n {
            let mut basis = vec![0.0; n];
            basis[j] = 1.0;
            let mut column = vec![0.0; n];
            assert_eq!(chain.apply_monodromy(&basis, &mut column), Some(steps));
            let mut plus = x0.clone();
            plus[j] += delta;
            let mut minus = x0.clone();
            minus[j] -= delta;
            let xp = period_map(&plus, &mut scratch);
            let xm = period_map(&minus, &mut scratch);
            for i in 0..n {
                let fd = (xp[i] - xm[i]) / (2.0 * delta);
                assert!(
                    (column[i] - fd).abs() < 1e-7,
                    "{backend:?} M[{i}][{j}]: banked chain {} vs finite difference {fd}",
                    column[i]
                );
            }
        }
    }

    #[test]
    fn banked_chain_matches_finite_differences_of_the_period_map() {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            // 0.45 V above its orbit the rectifier's diode conducts for only
            // part of the peak: M[out][out] ≈ 0.2 sits between the
            // conducting (≈ 0) and blocking (≈ 0.81, the RC decay) limits,
            // so the check covers the diode's nonlinearity rather than
            // either linear regime.
            let (circuit, out) = rectifier();
            assert_chain_matches_finite_differences(&circuit, out, 0.45, backend);
            // The Villard orbit couples two capacitors, one of them
            // floating: a 2×2 block of O(0.1–1) entries with off-diagonal
            // terms.
            let (circuit, out) = villard();
            assert_chain_matches_finite_differences(&circuit, out, 0.0, backend);
        }
    }

    /// Banks one period from the converged orbit with [`DenseExtraction`]
    /// running beside the storage-order extraction, and compares every
    /// banked `W` (period start plus each step) triplet by triplet: same
    /// rows, columns and order, and bit-identical values.
    fn assert_banked_w_matches_the_dense_extraction(circuit: &Circuit, backend: SolverBackend) {
        let mut opts = options(1e-3, 1e-5);
        opts.transient.backend = backend;
        let analysis = SteadyStateAnalysis::new(opts);
        let transient = TransientAnalysis::new(analysis.effective_transient());
        let mut ws = TransientWorkspace::for_circuit(circuit, transient.options()).unwrap();
        assert_eq!(ws.backend(), backend);
        let pss = analysis.run_with(circuit, &mut ws).unwrap();
        let t_anchor = *pss.result.times().last().unwrap();

        let n = ws.unknown_count();
        let mut cache = PeriodCache::new(n);
        cache.reference = Some(DenseExtraction::new(n));
        let mut stats = RunStatistics::default();
        analysis
            .integrate_period(
                circuit, &transient, &mut ws, t_anchor, &mut stats, &mut cache,
            )
            .unwrap();
        let (steps, _) = analysis.period_grid();
        assert_eq!(cache.used_steps, steps);
        let reference = cache.reference.take().unwrap();
        let bits = |w: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
            w.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect()
        };
        for idx in 0..=steps {
            assert!(!cache.w[idx].is_empty(), "{backend:?}: empty W at {idx}");
            assert_eq!(
                bits(&cache.w[idx]),
                bits(&reference.w[idx]),
                "{backend:?}: W of point {idx}"
            );
        }
    }

    #[test]
    fn banked_w_triplets_match_the_dense_extraction_bit_for_bit() {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            assert_banked_w_matches_the_dense_extraction(&rectifier().0, backend);
            assert_banked_w_matches_the_dense_extraction(&villard().0, backend);
        }
    }

    /// Runs `analysis` on `circuit` in a fresh sparse workspace with
    /// `injector` installed; returns the result, the workspace (holding the
    /// orbit's end state) and the injector.
    fn run_sparse_injected(
        circuit: &Circuit,
        analysis: &SteadyStateAnalysis,
        injector: FaultInjector,
    ) -> (SteadyStateResult, TransientWorkspace, FaultInjector) {
        let mut ws =
            TransientWorkspace::for_circuit(circuit, &analysis.effective_transient()).unwrap();
        assert_eq!(ws.backend(), SolverBackend::Sparse);
        ws.install_fault_injector(injector);
        let pss = analysis.run_with(circuit, &mut ws).unwrap();
        let injector = ws.take_fault_injector().unwrap();
        (pss, ws, injector)
    }

    /// A stale pivot mid-period re-pivots the workspace's factorisation
    /// under a new symbolic analysis while the period is being banked. The
    /// steps banked before it keep the analysis they were factored under and
    /// the later ones take the new one, so the banked chain still applies
    /// the period's monodromy and the closure Newton is not disturbed.
    #[test]
    fn a_repivot_inside_a_banked_period_keeps_every_step_on_its_own_analysis() {
        // After one warm-up cycle the Villard orbit is still open, so its
        // closure Newton replays banked chains. The rectifier's closes with
        // its first period (the diode resets the output at every peak); its
        // chain is replayed by the direct check below only.
        for (label, (circuit, out), min_iterations) in
            [("rectifier", rectifier(), 0), ("villard", villard(), 1)]
        {
            let mut opts = options(1e-3, 1e-5);
            opts.warmup_cycles = 1.0;
            opts.transient.backend = SolverBackend::Sparse;
            let analysis = SteadyStateAnalysis::new(opts);
            let (steps, dt) = analysis.period_grid();
            let (clean, mut ws, _) = run_sparse_injected(&circuit, &analysis, FaultInjector::new());
            assert!(clean.converged, "{label}: {}", clean.closure_error);
            assert!(clean.iterations >= min_iterations, "{label}");

            // The same run stopped once its first period is integrated
            // (every closure meets an `f64::MAX` tolerance) counts the
            // stale-pivot consultations up to the end of that period. Firing
            // half a period's steps earlier lands inside the first banked
            // period, whose chain the first closure solve replays.
            let mut first_period = opts;
            first_period.tolerance = f64::MAX;
            let (_, _, probe) = run_sparse_injected(
                &circuit,
                &SteadyStateAnalysis::new(first_period),
                FaultInjector::new(),
            );
            let mut injector = FaultInjector::new();
            injector.arm(
                Fault::StalePivot,
                probe.consultations(Fault::StalePivot) - steps / 2,
            );
            let (faulted, faulted_ws, injector) =
                run_sparse_injected(&circuit, &analysis, injector);
            assert_eq!(injector.fired(Fault::StalePivot), 1, "{label}");
            assert_eq!(faulted.statistics().repivot_factorizations, 1, "{label}");
            assert!(faulted.converged, "{label}: {}", faulted.closure_error);
            assert_eq!(faulted.iterations, clean.iterations, "{label}");
            let tolerance = opts.tolerance;
            assert!(
                weighted_closure_error(&ws.x, &faulted_ws.x) <= tolerance,
                "{label}: the orbits' end states differ"
            );
            for (a, b) in clean
                .result
                .voltage(out)
                .iter()
                .zip(faulted.result.voltage(out))
            {
                assert!(
                    (a - b).abs() <= tolerance * (1.0 + a.abs().max(b.abs())),
                    "{label}: orbit {a} vs {b}"
                );
            }

            // Bank one period from the converged orbit twice, once cleanly
            // and once with the re-pivot half-way through: both chains must
            // apply the same monodromy matrix.
            let t_anchor = *clean.result.times().last().unwrap();
            let transient = TransientAnalysis::new(analysis.effective_transient());
            let mask = analysis.ddt_value_mask(&circuit, &mut ws, t_anchor, dt);
            let (x0, states0) = (ws.x.clone(), ws.states.clone());
            let n = x0.len();
            let bank_period = |ws: &mut TransientWorkspace| -> PeriodCache {
                ws.x.copy_from_slice(&x0);
                ws.states.copy_from_slice(&states0);
                analysis.refresh_value_states(&circuit, ws, &mask, t_anchor, dt);
                let mut cache = PeriodCache::new(n);
                let mut stats = RunStatistics::default();
                analysis
                    .integrate_period(&circuit, &transient, ws, t_anchor, &mut stats, &mut cache)
                    .unwrap();
                assert_eq!(cache.used_steps, steps);
                cache
            };
            let mut clean_chain = bank_period(&mut ws);
            let mut injector = FaultInjector::new();
            injector.arm(Fault::StalePivot, steps / 2);
            ws.install_fault_injector(injector);
            let mut faulted_chain = bank_period(&mut ws);
            assert_eq!(
                ws.take_fault_injector().unwrap().fired(Fault::StalePivot),
                1
            );
            for j in 0..n {
                let mut basis = vec![0.0; n];
                basis[j] = 1.0;
                let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
                assert_eq!(clean_chain.apply_monodromy(&basis, &mut a), Some(steps));
                assert_eq!(faulted_chain.apply_monodromy(&basis, &mut b), Some(steps));
                for i in 0..n {
                    assert!(
                        (a[i] - b[i]).abs() < 1e-9,
                        "{label} M[{i}][{j}]: clean chain {} vs re-pivoted chain {}",
                        a[i],
                        b[i]
                    );
                }
            }
        }
    }

    #[test]
    fn aperiodic_devices_are_refused() {
        let (mut circuit, _) = rc_sine(1e3, 1e-6, 1.0, 1000.0);
        let a = circuit.node("in");
        let b = circuit.node("out");
        circuit.add(TimedSwitch::new("S", a, b, 0.5e-3, 2e-3));
        let err = SteadyStateAnalysis::new(options(1e-3, 1e-5))
            .run(&circuit)
            .unwrap_err();
        match err {
            MnaError::InvalidOptions(msg) => assert!(msg.contains("aperiodic"), "{msg}"),
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    #[test]
    fn incommensurate_periods_are_refused_and_subharmonics_accepted() {
        let (mut circuit, _) = rc_sine(1e3, 1e-6, 1.0, 1000.0);
        let vin = circuit.node("in");
        let mid = circuit.node("mid");
        // A 2 kHz second source is a sub-harmonic of the 1 ms period: fine.
        circuit.add(VoltageSource::new(
            "V2",
            mid,
            Circuit::GROUND,
            Waveform::sine(0.5, 2000.0),
        ));
        circuit.add(Resistor::new("R2", vin, mid, 1e3));
        let analysis = SteadyStateAnalysis::new(options(1e-3, 1e-5));
        assert!(analysis.run(&circuit).unwrap().converged);
        // A 333 Hz source is not commensurate with 1 ms.
        let other = circuit.node("other");
        circuit.add(VoltageSource::new(
            "V3",
            other,
            Circuit::GROUND,
            Waveform::sine(0.5, 333.0),
        ));
        assert!(matches!(
            analysis.run(&circuit),
            Err(MnaError::InvalidOptions(_))
        ));
    }

    #[test]
    fn invalid_options_are_rejected_with_actionable_messages() {
        let (circuit, _) = rc_sine(1e3, 1e-6, 1.0, 1000.0);
        for (mutate, needle) in [
            (
                Box::new(|o: &mut SteadyStateOptions| o.period = 0.0)
                    as Box<dyn Fn(&mut SteadyStateOptions)>,
                "period",
            ),
            (
                Box::new(|o: &mut SteadyStateOptions| o.warmup_cycles = 0.0),
                "warmup",
            ),
            (
                Box::new(|o: &mut SteadyStateOptions| o.max_iterations = 0),
                "max_iterations",
            ),
            (
                Box::new(|o: &mut SteadyStateOptions| o.tolerance = -1.0),
                "tolerance",
            ),
            (
                Box::new(|o: &mut SteadyStateOptions| o.transient.dt = 0.0),
                "dt",
            ),
        ] {
            let mut o = options(1e-3, 1e-5);
            mutate(&mut o);
            match SteadyStateAnalysis::new(o).run(&circuit) {
                Err(MnaError::InvalidOptions(msg)) => {
                    assert!(msg.contains(needle), "message {msg:?} must name {needle}")
                }
                other => panic!("expected InvalidOptions naming {needle}, got {other:?}"),
            }
        }
    }

    #[test]
    fn workspace_reuse_reproduces_the_fresh_run_bit_for_bit() {
        let (circuit, out) = rectifier();
        let analysis = SteadyStateAnalysis::new(options(1e-3, 1e-5));
        let fresh = analysis.run(&circuit).unwrap();
        let mut ws =
            TransientWorkspace::for_circuit(&circuit, &analysis.effective_transient()).unwrap();
        let first = analysis.run_with(&circuit, &mut ws).unwrap();
        let second = analysis.run_with(&circuit, &mut ws).unwrap();
        assert_eq!(fresh.iterations, first.iterations);
        assert_eq!(first.closure_error, second.closure_error);
        for ((a, b), c) in fresh
            .result
            .voltage(out)
            .iter()
            .zip(first.result.voltage(out))
            .zip(second.result.voltage(out))
        {
            assert_eq!(*a, b, "fresh vs reused workspace must agree bit-for-bit");
            assert_eq!(b, c, "workspace reuse must be deterministic");
        }
    }

    #[test]
    fn closure_gmres_tolerance_nests_under_the_closure_tolerance_down_to_a_floor() {
        assert_eq!(
            closure_gmres_tolerance(SteadyStateOptions::DEFAULT_TOLERANCE),
            1e-8
        );
        assert_eq!(closure_gmres_tolerance(1e-9), 1e-10);
        assert_eq!(closure_gmres_tolerance(1e-3), 1e-5);
    }

    #[test]
    fn tighter_tolerance_closes_the_orbit_tighter() {
        let (circuit, _) = rectifier();
        let mut loose = options(1e-3, 1e-5);
        loose.tolerance = 1e-3;
        let mut tight = options(1e-3, 1e-5);
        tight.tolerance = 1e-9;
        let loose = SteadyStateAnalysis::new(loose).run(&circuit).unwrap();
        let tight = SteadyStateAnalysis::new(tight).run(&circuit).unwrap();
        assert!(loose.converged && tight.converged);
        assert!(
            tight.closure_error <= loose.closure_error,
            "tighter tolerance must not close the orbit worse: {} vs {}",
            tight.closure_error,
            loose.closure_error
        );
        assert!(tight.iterations >= loose.iterations);
    }
}
