//! Plan-driven analysis engine: `.op` / `.tran` / `.pss` / `.ac` cards
//! executed in order against one circuit.
//!
//! # The plan model
//!
//! A simulation is described as an [`AnalysisPlan`] — an ordered list of
//! [`Analysis`] cards, each carrying its typed options — and executed by an
//! [`AnalysisEngine`], which owns one reusable
//! [`TransientWorkspace`] across all
//! cards of the plan (and across plans, for sweep loops). The engine
//! produces an [`AnalysisResults`] set: one tagged result per card plus the
//! merged [`RunStatistics`] of the whole plan.
//!
//! Three properties define the engine's contract:
//!
//! * **Bit-identity with the standalone drivers.** Before every card the
//!   engine calls
//!   [`TransientWorkspace::invalidate_factors`](crate::transient::TransientWorkspace::invalidate_factors),
//!   so each card is a pure function of its own inputs — a `.tran` card
//!   produces the exact bits of [`TransientAnalysis::run`] and a `.pss` card
//!   the exact bits of [`SteadyStateAnalysis::run`] on every backend, no
//!   matter what ran before it in the plan.
//! * **Workspace reuse.** The workspace (matrices, sparse symbolic
//!   factorisation, history buffers) is rebuilt only when a card's resolved
//!   backend or the circuit's layout changes, never per card.
//! * **Operating-point chaining.** An `.op` card stores its converged
//!   solution and device states; the *next* `.tran` or `.pss` card
//!   warm-starts from them instead of from the all-zero state, and an `.ac`
//!   card linearises around them instead of solving its own operating point.
//!
//! # DC operating point
//!
//! An [`Analysis::Op`] card solves the static system `f(x) = 0` — the
//! transient residual assembled with an infinite step, which zeroes every
//! companion-model conductance exactly — with three strategies in order:
//! plain Newton, **gmin stepping** (a shunt conductance on every node
//! diagonal, ramped from [`GMIN_START`] down to zero) and **source
//! stepping** (the residual homotopy `g(x; λ) = f(x) − (1 − λ)·f(x₀)`,
//! ramping λ from 0 to 1). Sources are evaluated at `t = 0`. Every stage is
//! one solve of the transient engine's Newton loop, under the same update
//! cap and convergence test as a time step (see
//! [`transient`](crate::transient#the-newton-solve)), and the gmin ramp is
//! the one the transient recovery cascade runs.
//!
//! # AC small-signal analysis
//!
//! An [`Analysis::Ac`] card linearises the circuit at the operating point
//! (a preceding `.op` card's, or one it solves itself) and solves
//! the complex phasor system `(G + jωC)·x̂ = b̂` per sweep frequency with
//! [`HarmonicSolver`]. `G` and
//! `C` are extracted from two static Jacobian assemblies at unit and half
//! step (`J(h) = G + C/h`, so `C = J(½) − J(1)` and `G = 2·J(1) − J(½)`),
//! which reuses the devices' transient stamps verbatim — no device needs an
//! AC-specific Jacobian. The excitation vector `b̂` is collected from each
//! source's [`AcSpec`](crate::devices::AcSpec) through
//! [`Device::stamp_ac`](crate::device::Device::stamp_ac).
//!
//! # Example: op-chained transient
//!
//! ```
//! use harvester_mna::analysis::{Analysis, AnalysisEngine, AnalysisPlan, OpOptions};
//! use harvester_mna::circuit::Circuit;
//! use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
//! use harvester_mna::transient::TransientOptions;
//! use harvester_mna::waveform::Waveform;
//!
//! # fn main() -> Result<(), harvester_mna::MnaError> {
//! let mut circuit = Circuit::new();
//! let vin = circuit.node("in");
//! let out = circuit.node("out");
//! circuit.add(VoltageSource::new("V1", vin, Circuit::GROUND, Waveform::dc(5.0)));
//! circuit.add(Resistor::new("R1", vin, out, 1_000.0));
//! circuit.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-6));
//!
//! let mut plan = AnalysisPlan::new();
//! plan.push(Analysis::Op(OpOptions::default()))?;
//! plan.push(Analysis::Tran(TransientOptions {
//!     t_stop: 1e-4,
//!     ..TransientOptions::default()
//! }))?;
//!
//! let results = AnalysisEngine::new().run(&circuit, &plan)?;
//! let op = results.op().unwrap();
//! assert!((op.voltage(out) - 5.0).abs() < 1e-9);
//! // The transient warm-started at the operating point: already settled.
//! let tran = results.transient().unwrap();
//! assert!((tran.final_voltage(out) - 5.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

use harvester_numerics::complex::{Complex64, HarmonicSolver};
use harvester_numerics::fault::{Fault, FaultInjector};
use harvester_numerics::linalg::{norm_inf, Matrix};

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, NodeId};
use crate::device::{assemble, AcStampContext, JacobianView, StampPoint};
use crate::options;
use crate::shooting::{SteadyStateAnalysis, SteadyStateOptions, SteadyStateResult};
use crate::transient::{
    Homotopy, IntegrationMethod, NewtonSettings, RunStatistics, SimulationBudget, SolverBackend,
    TransientAnalysis, TransientOptions, TransientResult, TransientWorkspace, UnknownNames,
};
use crate::MnaError;

/// Starting shunt conductance of the gmin-stepping homotopy (siemens).
pub const GMIN_START: f64 = 1e-2;

/// Options of the DC operating-point analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOptions {
    /// Newton iteration budget **per homotopy stage**.
    pub max_newton_iterations: usize,
    /// Relative convergence threshold on the Newton update: a stage
    /// converges once its capped update is at most
    /// `delta_tolerance·(1 + ‖x‖∞)`.
    pub delta_tolerance: f64,
    /// Residual infinity norm at which a stage whose updates stall is still
    /// accepted.
    pub residual_tolerance: f64,
    /// Number of gmin-stepping stages (the ramp [`GMIN_START`],
    /// [`GMIN_START`]/10, … followed by one gmin = 0 solve). `0` disables
    /// the gmin fallback.
    pub gmin_steps: usize,
    /// Number of source-stepping stages (λ = 1/n, 2/n, …, 1 of the residual
    /// homotopy). `0` disables the source-stepping fallback.
    pub source_steps: usize,
    /// Linear-solver backend (resolved against the system size).
    pub backend: SolverBackend,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            max_newton_iterations: 100,
            delta_tolerance: 1e-9,
            residual_tolerance: 1e-6,
            gmin_steps: 10,
            source_steps: 10,
            backend: SolverBackend::Auto,
        }
    }
}

impl OpOptions {
    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), MnaError> {
        options::at_least("op max_newton_iterations", self.max_newton_iterations, 1)?;
        options::positive_finite("op delta_tolerance", self.delta_tolerance)?;
        options::positive_finite("op residual_tolerance", self.residual_tolerance)?;
        Ok(())
    }
}

/// Which homotopy strategy converged the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStrategy {
    /// Plain Newton from the all-zero initial guess.
    Direct,
    /// The gmin-stepping ramp (shunt conductances to ground, taken to zero).
    GminStepping,
    /// The source-stepping residual homotopy (excitations ramped from zero).
    SourceStepping,
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct OpResult {
    solution: Vec<f64>,
    names: UnknownNames,
    statistics: RunStatistics,
    strategy: OpStrategy,
}

impl OpResult {
    /// The full solution vector (node voltages followed by the devices'
    /// extra unknowns, in layout order).
    pub fn solution(&self) -> &[f64] {
        &self.solution
    }

    /// The homotopy strategy that converged this point.
    pub fn strategy(&self) -> OpStrategy {
        self.strategy
    }

    /// Work counters of the operating-point solve.
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }

    /// DC voltage of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.names.node(node).map_or(0.0, |i| self.solution[i])
    }

    /// DC voltage of a node looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if no node has this name.
    pub fn voltage_by_name(&self, name: &str) -> Result<f64, MnaError> {
        Ok(self
            .names
            .node_named(name)?
            .map_or(0.0, |i| self.solution[i]))
    }

    /// DC value of a device's extra unknown (e.g. a source's branch
    /// current `"i"`).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if the device or the unknown name
    /// does not exist.
    pub fn probe(&self, device: &str, unknown: &str) -> Result<f64, MnaError> {
        Ok(self.solution[self.names.probe(device, unknown)?])
    }
}

/// Frequency-sweep point placement of an AC analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrequencySweep {
    /// Logarithmic, [`AcOptions::points`] per decade.
    #[default]
    Dec,
    /// Logarithmic, [`AcOptions::points`] per octave.
    Oct,
    /// Linear, [`AcOptions::points`] total.
    Lin,
}

/// Options of the AC small-signal analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcOptions {
    /// Sweep point placement.
    pub sweep: FrequencySweep,
    /// Points per decade/octave (logarithmic sweeps) or in total (linear).
    pub points: usize,
    /// First sweep frequency (hertz, > 0).
    pub f_start: f64,
    /// Last sweep frequency (hertz, ≥ `f_start`). Both endpoints are always
    /// included exactly.
    pub f_stop: f64,
    /// Linear-solver backend for the phasor systems, resolved against the
    /// doubled (real-equivalent) system size.
    pub backend: SolverBackend,
    /// Options of the operating-point solve the circuit is linearised at
    /// (unused when a plan chains a preceding `.op` card's point instead).
    pub op: OpOptions,
}

impl Default for AcOptions {
    fn default() -> Self {
        AcOptions {
            sweep: FrequencySweep::Dec,
            points: 10,
            f_start: 1.0,
            f_stop: 1e6,
            backend: SolverBackend::Auto,
            op: OpOptions::default(),
        }
    }
}

impl AcOptions {
    /// Creates options for a sweep from `f_start` to `f_stop` with the given
    /// point placement, leaving everything else at its default.
    pub fn new(sweep: FrequencySweep, points: usize, f_start: f64, f_stop: f64) -> Self {
        AcOptions {
            sweep,
            points,
            f_start,
            f_stop,
            ..AcOptions::default()
        }
    }

    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), MnaError> {
        options::at_least("ac points", self.points, 1)?;
        options::positive_finite("ac f_start", self.f_start)?;
        options::positive_finite("ac f_stop", self.f_stop)?;
        if self.f_stop < self.f_start {
            return Err(options::invalid(format!(
                "ac f_stop ({}) must be at least f_start ({})",
                self.f_stop, self.f_start
            )));
        }
        self.op.validate()
    }

    /// The deterministic sweep grid: endpoint-inclusive, `f_start` and
    /// `f_stop` exactly representable in the output. Logarithmic sweeps
    /// place `ceil(points · log_b(f_stop/f_start)) + 1` evenly log-spaced
    /// points; a degenerate sweep (`f_start == f_stop`) is a single point.
    pub fn frequencies(&self) -> Vec<f64> {
        let (f0, f1) = (self.f_start, self.f_stop);
        if f1 <= f0 {
            return vec![f0];
        }
        match self.sweep {
            FrequencySweep::Lin => {
                let total = self.points.max(1);
                if total == 1 {
                    return vec![f0];
                }
                let mut out: Vec<f64> = (0..total)
                    .map(|k| f0 + (f1 - f0) * (k as f64 / (total - 1) as f64))
                    .collect();
                out[0] = f0;
                *out.last_mut().unwrap() = f1;
                out
            }
            FrequencySweep::Dec => log_spaced(f0, f1, self.points, 10.0),
            FrequencySweep::Oct => log_spaced(f0, f1, self.points, 2.0),
        }
    }
}

/// Evenly log-spaced grid with `per` points per factor of `base`, both
/// endpoints included exactly.
fn log_spaced(f0: f64, f1: f64, per: usize, base: f64) -> Vec<f64> {
    let spans = (f1 / f0).log(base);
    let total = ((per.max(1) as f64 * spans).ceil() as usize + 1).max(2);
    let mut out = Vec::with_capacity(total);
    for k in 0..total {
        let t = k as f64 / (total - 1) as f64;
        out.push(f0 * base.powf(t * spans));
    }
    out[0] = f0;
    *out.last_mut().unwrap() = f1;
    out
}

/// The recorded outcome of an AC small-signal analysis: one complex
/// solution vector per sweep frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    frequencies: Vec<f64>,
    solutions: Vec<Complex64>,
    unknowns: usize,
    names: UnknownNames,
    statistics: RunStatistics,
}

impl AcResult {
    /// The sweep frequencies (hertz, ascending).
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// `true` if the sweep is empty (never the case for a successful run).
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// Work counters of the analysis (including the operating-point solve
    /// when this analysis performed its own).
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }

    /// The complex solution vector at sweep point `k`.
    fn sample(&self, k: usize) -> &[Complex64] {
        &self.solutions[k * self.unknowns..(k + 1) * self.unknowns]
    }

    /// The phasor series of global unknown `idx` across the sweep (all
    /// zeros for `None`, the ground node).
    fn series(&self, idx: Option<usize>) -> Vec<Complex64> {
        match idx {
            Some(i) => (0..self.frequencies.len())
                .map(|k| self.sample(k)[i])
                .collect(),
            None => vec![Complex64::ZERO; self.frequencies.len()],
        }
    }

    /// Voltage phasor of a node across the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> Vec<Complex64> {
        self.series(self.names.node(node))
    }

    /// Voltage phasor of a node looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if no node has this name.
    pub fn voltage_by_name(&self, name: &str) -> Result<Vec<Complex64>, MnaError> {
        Ok(self.series(self.names.node_named(name)?))
    }

    /// Magnitude response `|V(node)|` across the sweep.
    ///
    /// # Panics
    ///
    /// As [`AcResult::voltage`].
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.voltage(node).iter().map(|v| v.abs()).collect()
    }

    /// Phase response `arg V(node)` across the sweep, in radians.
    ///
    /// # Panics
    ///
    /// As [`AcResult::voltage`].
    pub fn phase(&self, node: NodeId) -> Vec<f64> {
        self.voltage(node).iter().map(|v| v.arg()).collect()
    }

    /// Phasor series of a device's extra unknown (e.g. a source's branch
    /// current `"i"`).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownProbe`] if the device or the unknown name
    /// does not exist.
    pub fn probe(&self, device: &str, unknown: &str) -> Result<Vec<Complex64>, MnaError> {
        Ok(self.series(Some(self.names.probe(device, unknown)?)))
    }
}

/// One analysis card of a plan, with its typed options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Analysis {
    /// DC operating point (`.op`).
    Op(OpOptions),
    /// Transient analysis (`.tran`).
    Tran(TransientOptions),
    /// Shooting-Newton periodic steady state (`.pss`).
    Pss(SteadyStateOptions),
    /// AC small-signal frequency sweep (`.ac`).
    Ac(AcOptions),
}

impl Analysis {
    /// Validates the card's options through their shared checkers.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), MnaError> {
        match self {
            Analysis::Op(o) => o.validate(),
            Analysis::Tran(t) => t.validate(),
            Analysis::Pss(s) => s.validate(),
            Analysis::Ac(a) => a.validate(),
        }
    }

    /// The card's directive keyword (`"op"`, `"tran"`, `"pss"`, `"ac"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Analysis::Op(_) => "op",
            Analysis::Tran(_) => "tran",
            Analysis::Pss(_) => "pss",
            Analysis::Ac(_) => "ac",
        }
    }
}

/// An ordered, construction-validated list of [`Analysis`] cards.
///
/// Every card is validated as it enters the plan, so a plan that exists is
/// a plan that runs past option checking — the netlist elaborator relies on
/// this to reject bad `.tran`/`.ac` card text with a positioned error
/// instead of a late panic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisPlan {
    cards: Vec<Analysis>,
}

impl AnalysisPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        AnalysisPlan::default()
    }

    /// Builds a plan from cards, validating each.
    ///
    /// # Errors
    ///
    /// Returns the first card's [`MnaError::InvalidOptions`].
    pub fn from_cards(cards: Vec<Analysis>) -> Result<Self, MnaError> {
        let mut plan = AnalysisPlan::new();
        for card in cards {
            plan.push(card)?;
        }
        Ok(plan)
    }

    /// Appends a card after validating it.
    ///
    /// # Errors
    ///
    /// Returns the card's [`MnaError::InvalidOptions`] without modifying
    /// the plan.
    pub fn push(&mut self, card: Analysis) -> Result<(), MnaError> {
        card.validate()?;
        self.cards.push(card);
        Ok(())
    }

    /// The cards in execution order.
    pub fn cards(&self) -> &[Analysis] {
        &self.cards
    }

    /// Number of cards.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// `true` for a plan with no cards.
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }
}

/// The tagged result of one executed [`Analysis`] card.
#[derive(Debug, Clone)]
pub enum AnalysisResult {
    /// Result of an [`Analysis::Op`] card.
    Op(OpResult),
    /// Result of an [`Analysis::Tran`] card.
    Tran(TransientResult),
    /// Result of an [`Analysis::Pss`] card.
    Pss(SteadyStateResult),
    /// Result of an [`Analysis::Ac`] card.
    Ac(AcResult),
}

impl AnalysisResult {
    /// Work counters of this card's run.
    pub fn statistics(&self) -> RunStatistics {
        match self {
            AnalysisResult::Op(r) => r.statistics(),
            AnalysisResult::Tran(r) => r.statistics(),
            AnalysisResult::Pss(r) => r.statistics(),
            AnalysisResult::Ac(r) => r.statistics(),
        }
    }
}

/// The results of an executed [`AnalysisPlan`]: one tagged result per card,
/// in plan order, plus the merged work counters of the whole plan.
#[derive(Debug, Clone)]
pub struct AnalysisResults {
    results: Vec<AnalysisResult>,
    statistics: RunStatistics,
}

impl AnalysisResults {
    /// All per-card results in plan order.
    pub fn results(&self) -> &[AnalysisResult] {
        &self.results
    }

    /// Number of executed cards.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` for an empty plan's results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The result of card `index` (plan order).
    pub fn get(&self, index: usize) -> Option<&AnalysisResult> {
        self.results.get(index)
    }

    /// Work counters merged across every card of the plan.
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }

    /// The last operating-point result, if any card was an `.op`.
    pub fn op(&self) -> Option<&OpResult> {
        self.results.iter().rev().find_map(|r| match r {
            AnalysisResult::Op(op) => Some(op),
            _ => None,
        })
    }

    /// The last transient result, if any card was a `.tran`.
    pub fn transient(&self) -> Option<&TransientResult> {
        self.results.iter().rev().find_map(|r| match r {
            AnalysisResult::Tran(t) => Some(t),
            _ => None,
        })
    }

    /// The last periodic-steady-state result, if any card was a `.pss`.
    pub fn steady_state(&self) -> Option<&SteadyStateResult> {
        self.results.iter().rev().find_map(|r| match r {
            AnalysisResult::Pss(s) => Some(s),
            _ => None,
        })
    }

    /// The last AC result, if any card was an `.ac`.
    pub fn ac(&self) -> Option<&AcResult> {
        self.results.iter().rev().find_map(|r| match r {
            AnalysisResult::Ac(a) => Some(a),
            _ => None,
        })
    }
}

/// A stored operating point awaiting consumption by a later card: the
/// converged solution plus the matching device states with the `ddt` value
/// slots seeded and the derivative slots zeroed.
#[derive(Debug)]
struct OpSeed {
    solution: Vec<f64>,
    states: Vec<f64>,
}

impl OpSeed {
    /// `true` when the stored point matches the layout of `ws`.
    fn fits(&self, ws: &TransientWorkspace) -> bool {
        self.solution.len() == ws.x.len() && self.states.len() == ws.states.len()
    }

    /// Loads the stored point into `ws` as its starting state if it fits,
    /// and says whether it did.
    fn seed(&self, ws: &mut TransientWorkspace) -> bool {
        let fits = self.fits(ws);
        if fits {
            ws.x.copy_from_slice(&self.solution);
            ws.states.copy_from_slice(&self.states);
        }
        fits
    }
}

/// The [`BudgetTruncation::reason`] recorded when a plan was stopped by a
/// fired [`CancelToken`] rather than an exhausted budget axis.
pub const CANCELLED_REASON: &str = "cancelled";

/// Why (and where) [`AnalysisEngine::run_budgeted`] stopped a plan early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTruncation {
    /// Plan-order index of the first card that was **not** run to
    /// completion. Equal to the plan length when every card ran but the
    /// final card's own trace was budget-truncated (or cancelled) mid-run.
    pub card: usize,
    /// The budget axis that was exhausted (as reported by
    /// [`SimulationBudget::exhausted_by`]), or [`CANCELLED_REASON`] for a
    /// fired [`CancelToken`].
    pub reason: &'static str,
}

/// Outcome of a budgeted plan run: every card completed before the budget
/// ran out, plus where (if anywhere) the plan was cut off.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    results: AnalysisResults,
    truncation: Option<BudgetTruncation>,
}

impl AnalysisOutcome {
    /// The completed cards' results (a plan prefix when truncated).
    pub fn results(&self) -> &AnalysisResults {
        &self.results
    }

    /// Where the plan was cut off, or `None` if every card ran to
    /// completion. A budget that ran dry *inside* a transient card (rather
    /// than at a card boundary) is reported here too: the truncation's
    /// `card` then points one past the partially run card, and the partial
    /// card's [`TransientResult::truncated`] flag is set.
    pub fn truncation(&self) -> Option<&BudgetTruncation> {
        self.truncation.as_ref()
    }

    /// `true` when every card of the plan ran to completion (no card
    /// skipped, no trace truncated by the plan budget, no cancellation).
    pub fn is_complete(&self) -> bool {
        self.truncation.is_none()
    }

    /// `true` when the plan was stopped by a fired [`CancelToken`] (at a
    /// card boundary or inside a transient march).
    pub fn cancelled(&self) -> bool {
        self.truncation
            .as_ref()
            .is_some_and(|t| t.reason == CANCELLED_REASON)
    }
}

/// Executes [`AnalysisPlan`]s against circuits, owning one reusable
/// [`TransientWorkspace`] and the operating-point chaining state. See the
/// [module docs](self) for the engine's contract.
#[derive(Debug, Default)]
pub struct AnalysisEngine {
    workspace: Option<TransientWorkspace>,
    op_seed: Option<OpSeed>,
    fault: Option<FaultInjector>,
    cancel: Option<CancelToken>,
}

impl AnalysisEngine {
    /// Creates an engine with no workspace yet (allocated lazily on the
    /// first card).
    pub fn new() -> Self {
        AnalysisEngine::default()
    }

    /// Installs a [`FaultInjector`] consulted by every subsequent card's
    /// solver-layer sites (factorisations, Newton residuals, Krylov
    /// solves). The injector's occurrence counters accumulate across cards;
    /// reclaim it with [`AnalysisEngine::take_fault_injector`].
    pub fn install_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// Removes and returns the installed injector (with its accumulated
    /// counters and event log), if any.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        if let Some(ws) = self.workspace.as_mut() {
            if let Some(f) = ws.take_fault_injector() {
                return Some(f);
            }
        }
        self.fault.take()
    }

    /// Installs a [`CancelToken`] checked at every card boundary and polled
    /// by the marching loop between steps. Keep a clone to fire it;
    /// [`AnalysisEngine::run_budgeted`] answers a fired token with a
    /// truncation of reason [`CANCELLED_REASON`], and a cancelled transient
    /// card returns its trace-so-far with
    /// [`TransientResult::cancelled`] set. The token stays installed for
    /// subsequent plans until removed.
    pub fn install_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Removes and returns the installed cancellation token, restoring the
    /// uncancellable production state.
    pub fn take_cancel_token(&mut self) -> Option<CancelToken> {
        if let Some(ws) = self.workspace.as_mut() {
            ws.take_cancel_token();
        }
        self.cancel.take()
    }

    /// Runs every card of `plan` against `circuit`, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing card's error; earlier cards' results
    /// are discarded.
    pub fn run(
        &mut self,
        circuit: &Circuit,
        plan: &AnalysisPlan,
    ) -> Result<AnalysisResults, MnaError> {
        self.op_seed = None;
        let mut results = Vec::with_capacity(plan.len());
        let mut statistics = RunStatistics::default();
        for card in plan.cards() {
            let result = self.run_card(circuit, card)?;
            statistics.merge(&result.statistics());
            results.push(result);
        }
        Ok(AnalysisResults {
            results,
            statistics,
        })
    }

    /// As [`AnalysisEngine::run`], under a plan-wide [`SimulationBudget`]:
    /// the budget is checked against the cumulative work counters at every
    /// card boundary, and its remainder is threaded into each `.tran` card
    /// (tightening the card's own budget) so a single unbounded card cannot
    /// blow through the plan's ceiling. When the budget runs out the
    /// completed prefix is returned as a partial [`AnalysisOutcome`] instead
    /// of an error.
    ///
    /// # Errors
    ///
    /// As [`AnalysisEngine::run`] — budget exhaustion itself is *not* an
    /// error.
    pub fn run_budgeted(
        &mut self,
        circuit: &Circuit,
        plan: &AnalysisPlan,
        budget: SimulationBudget,
    ) -> Result<AnalysisOutcome, MnaError> {
        self.op_seed = None;
        let mut results = Vec::with_capacity(plan.len());
        let mut statistics = RunStatistics::default();
        let mut truncation = None;
        for (index, card) in plan.cards().iter().enumerate() {
            if self.cancel.as_ref().is_some_and(|c| c.poll()) {
                truncation = Some(BudgetTruncation {
                    card: index,
                    reason: CANCELLED_REASON,
                });
                break;
            }
            if let Some(reason) = budget.exhausted_by(&statistics) {
                truncation = Some(BudgetTruncation {
                    card: index,
                    reason,
                });
                break;
            }
            let mut card = *card;
            if let Analysis::Tran(opts) = &mut card {
                opts.budget = opts.budget.min(&budget.remaining_after(&statistics));
            }
            let result = match self.run_card(circuit, &card) {
                Ok(result) => result,
                // A cancelled shooting sweep surfaces as an error (its
                // partial orbit is useless); at the plan level cancellation
                // is an outcome, keeping the completed-prefix results.
                Err(e) if matches!(e.root_cause(), MnaError::Cancelled) => {
                    truncation = Some(BudgetTruncation {
                        card: index,
                        reason: CANCELLED_REASON,
                    });
                    break;
                }
                Err(e) => return Err(e),
            };
            statistics.merge(&result.statistics());
            let cancelled_mid_card = matches!(&result, AnalysisResult::Tran(t) if t.cancelled());
            results.push(result);
            if cancelled_mid_card {
                // The march already stopped at the token boundary; running
                // the remaining cards would ignore the cancellation.
                truncation = Some(BudgetTruncation {
                    card: index + 1,
                    reason: CANCELLED_REASON,
                });
                break;
            }
        }
        // A plan budget that ran dry *inside* the final card used to be
        // reported as a complete outcome (the boundary check only ran
        // before a next card): close that gap so the outcome's truncation
        // state and its merged statistics agree — budget accounting stays
        // exact for every truncated run.
        if truncation.is_none() {
            if let Some(reason) = budget.exhausted_by(&statistics) {
                if matches!(results.last(), Some(AnalysisResult::Tran(t)) if t.truncated()) {
                    truncation = Some(BudgetTruncation {
                        card: plan.len(),
                        reason,
                    });
                }
            }
        }
        Ok(AnalysisOutcome {
            results: AnalysisResults {
                results,
                statistics,
            },
            truncation,
        })
    }

    /// Executes one card, maintaining the engine's workspace-reuse and
    /// op-chaining state.
    fn run_card(&mut self, circuit: &Circuit, card: &Analysis) -> Result<AnalysisResult, MnaError> {
        let result = match card {
            Analysis::Op(opts) => {
                let ws = self.workspace_for(circuit, &workspace_options(opts.backend))?;
                let op = run_op(circuit, ws, opts)?;
                self.op_seed = Some(OpSeed {
                    solution: op.solution().to_vec(),
                    states: ws.states.clone(),
                });
                AnalysisResult::Op(op)
            }
            Analysis::Tran(opts) => {
                let seed = self.op_seed.take();
                let ws = self.workspace_for(circuit, opts)?;
                let warm = seed.is_some_and(|s| s.seed(ws));
                let tran = TransientAnalysis::new(*opts).run_from(circuit, ws, warm)?;
                AnalysisResult::Tran(tran)
            }
            Analysis::Pss(opts) => {
                let effective = SteadyStateAnalysis::new(*opts).effective_transient();
                let seed = self.op_seed.take();
                let ws = self.workspace_for(circuit, &effective)?;
                let mut opts = *opts;
                if seed.is_some_and(|s| s.seed(ws)) {
                    opts.warm_start = true;
                }
                let pss = SteadyStateAnalysis::new(opts).run_with(circuit, ws)?;
                AnalysisResult::Pss(pss)
            }
            Analysis::Ac(opts) => {
                // The seed stays for later cards: it is only lent out here,
                // while the workspace borrows the engine.
                let seed = self.op_seed.take();
                let ws = self.workspace_for(circuit, &workspace_options(opts.op.backend))?;
                let ac = match &seed {
                    Some(s) if s.fits(ws) => run_ac(
                        circuit,
                        ws,
                        opts,
                        &s.solution,
                        &s.states,
                        RunStatistics::default(),
                    ),
                    _ => {
                        let op = run_op(circuit, ws, &opts.op)?;
                        run_ac(
                            circuit,
                            ws,
                            opts,
                            op.solution(),
                            &ws.states,
                            op.statistics(),
                        )
                    }
                };
                self.op_seed = seed;
                AnalysisResult::Ac(ac?)
            }
        };
        Ok(result)
    }

    /// Hands the engine's workspace to the next card: rebuilt when it does
    /// not fit `circuit` under `options` (first card, layout change, backend
    /// change), its factors invalidated so the card is a pure function of
    /// its own inputs, with the pending fault injector and the cancellation
    /// token installed.
    fn workspace_for(
        &mut self,
        circuit: &Circuit,
        options: &TransientOptions,
    ) -> Result<&mut TransientWorkspace, MnaError> {
        if !self
            .workspace
            .as_ref()
            .is_some_and(|ws| ws.fits(circuit, options))
        {
            // A rebuild must not drop an installed fault injector (or its
            // accumulated counters) with the old workspace.
            if let Some(f) = self
                .workspace
                .as_mut()
                .and_then(TransientWorkspace::take_fault_injector)
            {
                self.fault = Some(f);
            }
            self.workspace = Some(TransientWorkspace::for_circuit(circuit, options)?);
        }
        let ws = self.workspace.as_mut().expect("workspace just ensured");
        ws.invalidate_factors();
        if let Some(f) = self.fault.take() {
            ws.install_fault_injector(f);
        }
        ws.cancel = self.cancel.clone();
        Ok(ws)
    }
}

/// Transient options whose only purpose is shaping a workspace for the
/// static analyses (the backend is all that matters for layout).
fn workspace_options(backend: SolverBackend) -> TransientOptions {
    TransientOptions {
        backend,
        ..TransientOptions::default()
    }
}

/// The static system `f(x) = 0` at `t = 0`: backward Euler with an infinite
/// step zeroes every companion-model conductance (`gain = 1/h`) and
/// derivative (`(value − prev)/h`) exactly, so the transient stamps reduce to
/// the DC equations with no device-side special case.
const STATIC_POINT: StampPoint = StampPoint {
    time: 0.0,
    dt: f64::INFINITY,
    method: IntegrationMethod::BackwardEuler,
    first_step: false,
    junction_limit: None,
};

/// Solves the DC operating point into `ws`: on success `ws.x` holds the
/// converged solution and `ws.states` the matching device states (`ddt`
/// value slots at their operating-point values, derivative slots zero) —
/// exactly the pair a warm-started transient or shooting run consumes.
fn run_op(
    circuit: &Circuit,
    ws: &mut TransientWorkspace,
    opts: &OpOptions,
) -> Result<OpResult, MnaError> {
    opts.validate()?;
    if !ws.fits(circuit, &workspace_options(ws.backend())) {
        return Err(MnaError::InvalidOptions(
            "workspace was built for a different circuit".to_string(),
        ));
    }
    // Only the unmodified static system consults `NanStaticResidual`, so
    // an armed fault fails the direct solve and gmin stepping's final
    // gmin = 0 stage while every homotopy stage stays clean — which drives
    // the cascade deterministically to source stepping.
    let newton = NewtonSettings {
        max_iterations: opts.max_newton_iterations,
        delta_tolerance: opts.delta_tolerance,
        residual_tolerance: opts.residual_tolerance,
        reuse_jacobian: false,
        fault: Some(Fault::NanStaticResidual),
        commit_jacobian: false,
    };
    let mut stats = RunStatistics::default();
    ws.invalidate_factors();
    ws.reset(circuit);

    let strategy = 'found: {
        if ws
            .newton(circuit, STATIC_POINT, Homotopy::None, &newton, &mut stats)
            .is_ok()
        {
            break 'found OpStrategy::Direct;
        }
        if opts.gmin_steps > 0 {
            stats.homotopy_escalations += 1;
            ws.reset(circuit);
            if ws.gmin_ramp(
                circuit,
                STATIC_POINT,
                GMIN_START,
                opts.gmin_steps,
                &newton,
                &mut stats,
            ) {
                break 'found OpStrategy::GminStepping;
            }
        }
        if opts.source_steps > 0 {
            stats.homotopy_escalations += 1;
            ws.reset(circuit);
            ws.assemble_candidate(circuit, STATIC_POINT, false);
            let f0 = ws.residual.clone();
            let converged = (1..=opts.source_steps).all(|s| {
                let w = 1.0 - s as f64 / opts.source_steps as f64;
                let homotopy = Homotopy::Source { f0: &f0, w };
                ws.newton(circuit, STATIC_POINT, homotopy, &newton, &mut stats)
                    .is_ok()
            });
            if converged {
                break 'found OpStrategy::SourceStepping;
            }
        }
        return Err(MnaError::StepFailed {
            time: 0.0,
            dt: f64::INFINITY,
            residual: norm_inf(&ws.residual),
        });
    };

    // Commit the converged point with its self-consistent device states:
    // the solve's final assembly wrote every `ddt` value slot at the
    // solution with a zero derivative (infinite step), which is the seeding
    // contract of the op → transient/shooting warm start.
    ws.x.copy_from_slice(&ws.candidate);
    ws.states.copy_from_slice(&ws.new_states);
    ws.invalidate_factors();

    Ok(OpResult {
        solution: ws.x.clone(),
        names: UnknownNames::new(circuit, &ws.layout),
        statistics: stats,
        strategy,
    })
}

/// Extracts the small-signal conductance and capacitance matrices at the
/// operating point `(x, states)` from two dense static assemblies: with
/// backward Euler (`first = false`) the step-`h` Jacobian is `G + C/h`, so
/// `J(1) = G + C` and `J(½) = G + 2C` give `C = J(½) − J(1)` and
/// `G = 2·J(1) − J(½)` exactly (the companion gains are value-independent,
/// and the nonlinear part of `J` depends only on `x`).
fn small_signal_matrices(
    circuit: &Circuit,
    ws: &TransientWorkspace,
    x: &[f64],
    states: &[f64],
) -> (Matrix, Matrix) {
    let n = ws.unknown_count();
    let mut residual = vec![0.0; n];
    let mut scratch_states = states.to_vec();
    let mut assemble_at = |dt: f64| -> Matrix {
        let mut jacobian = Matrix::zeros(n, n);
        assemble(
            circuit,
            &ws.layout,
            StampPoint::new(0.0, dt, IntegrationMethod::BackwardEuler, false),
            x,
            states,
            &mut scratch_states,
            &mut residual,
            JacobianView::Dense(&mut jacobian),
            None,
        );
        jacobian
    };
    let j1 = assemble_at(1.0);
    let jh = assemble_at(0.5);
    let mut g = Matrix::zeros(n, n);
    let mut c = Matrix::zeros(n, n);
    for r in 0..n {
        for col in 0..n {
            let a = j1[(r, col)];
            let b = jh[(r, col)];
            c.add_at(r, col, b - a);
            g.add_at(r, col, 2.0 * a - b);
        }
    }
    (g, c)
}

/// Runs the frequency sweep at the given operating point. `stats` arrives
/// pre-seeded with whatever operating-point work this analysis should
/// account for (empty when a plan's `.op` card already counted it).
fn run_ac(
    circuit: &Circuit,
    ws: &TransientWorkspace,
    opts: &AcOptions,
    op: &[f64],
    states: &[f64],
    mut stats: RunStatistics,
) -> Result<AcResult, MnaError> {
    opts.validate()?;
    let n = ws.unknown_count();

    // Small-signal excitation vector from the sources' AC specifications.
    let node_unknowns = circuit.unknown_node_count();
    let mut rhs = vec![Complex64::ZERO; n];
    let mut extra_base = node_unknowns;
    for device in circuit.devices() {
        let mut ctx = AcStampContext::new(extra_base, &mut rhs);
        device.stamp_ac(&mut ctx);
        extra_base += device.extra_unknowns();
    }
    if rhs.iter().all(|v| *v == Complex64::ZERO) {
        return Err(options::invalid(
            "AC analysis requires at least one source with an AC specification \
             (e.g. `V1 in 0 0 AC 1`)",
        ));
    }

    let (g, c) = small_signal_matrices(circuit, ws, op, states);
    stats.jacobian_assemblies += 2;
    // The real-equivalent system is 2n×2n; resolve the backend against that.
    let sparse = opts.backend.resolve(2 * n) == SolverBackend::Sparse;
    let mut solver = HarmonicSolver::new(&g, &c, sparse)?;

    let frequencies = opts.frequencies();
    let mut solutions = Vec::with_capacity(frequencies.len() * n);
    for &f in &frequencies {
        let omega = 2.0 * std::f64::consts::PI * f;
        let x = solver.solve(omega, &rhs)?;
        solutions.extend_from_slice(&x);
        stats.linear_solves += 1;
    }
    let (full, refactorizations, repivots) = solver.factorizations();
    stats.full_factorizations += full;
    stats.refactorizations += refactorizations;
    stats.repivot_factorizations += repivots;

    Ok(AcResult {
        frequencies,
        solutions,
        unknowns: n,
        names: UnknownNames::new(circuit, &ws.layout),
        statistics: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, CurrentSource, Diode, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn rc_divider() -> (Circuit, NodeId, NodeId) {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let mid = circuit.node("mid");
        circuit.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(5.0),
        ));
        circuit.add(Resistor::new("R1", vin, mid, 1_000.0));
        circuit.add(Resistor::new("R2", mid, Circuit::GROUND, 1_000.0));
        (circuit, vin, mid)
    }

    /// The operating point of a one-`.op`-card plan on a fresh engine.
    fn op(circuit: &Circuit, options: OpOptions) -> Result<OpResult, MnaError> {
        let plan = AnalysisPlan::from_cards(vec![Analysis::Op(options)])?;
        let results = AnalysisEngine::new().run(circuit, &plan)?;
        Ok(results
            .op()
            .expect("an .op card yields an op result")
            .clone())
    }

    /// The sweep of a one-`.ac`-card plan on a fresh engine (the card
    /// solves its own operating point).
    fn ac(circuit: &Circuit, options: AcOptions) -> Result<AcResult, MnaError> {
        let plan = AnalysisPlan::from_cards(vec![Analysis::Ac(options)])?;
        let results = AnalysisEngine::new().run(circuit, &plan)?;
        Ok(results
            .ac()
            .expect("an .ac card yields an AC result")
            .clone())
    }

    #[test]
    fn op_solves_a_resistive_divider_directly() {
        let (circuit, vin, mid) = rc_divider();
        let op = op(&circuit, OpOptions::default()).unwrap();
        assert_eq!(op.strategy(), OpStrategy::Direct);
        assert!((op.voltage(vin) - 5.0).abs() < 1e-12);
        assert!((op.voltage(mid) - 2.5).abs() < 1e-12);
        assert!((op.voltage_by_name("mid").unwrap() - 2.5).abs() < 1e-12);
        // Branch current: 5 V across 2 kΩ.
        assert!((op.probe("V1", "i").unwrap().abs() - 2.5e-3).abs() < 1e-12);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn op_matches_a_long_settling_transient_on_a_rectifier() {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        circuit.add(Resistor::new("R1", vin, out, 100.0));
        circuit.add(Diode::new("D1", out, Circuit::GROUND));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-6));

        let op = op(&circuit, OpOptions::default()).unwrap();
        let tran = TransientAnalysis::new(TransientOptions {
            t_stop: 5e-3,
            dt: 1e-6,
            ..TransientOptions::default()
        })
        .run(&circuit)
        .unwrap();
        let settled = tran.final_voltage(out);
        assert!(
            (op.voltage(out) - settled).abs() < 1e-6,
            "op {} vs settled {}",
            op.voltage(out),
            settled
        );
    }

    #[test]
    fn op_reports_failure_when_every_strategy_is_exhausted() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        circuit.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(5.0),
        ));
        circuit.add(Diode::new("D1", a, Circuit::GROUND));
        // One Newton iteration per stage cannot converge an exponential.
        let err = op(
            &circuit,
            OpOptions {
                max_newton_iterations: 1,
                ..OpOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MnaError::StepFailed { time, .. } if time == 0.0));
    }

    #[test]
    fn op_options_validate_through_the_shared_checker() {
        let bad = OpOptions {
            delta_tolerance: f64::NAN,
            ..OpOptions::default()
        };
        let msg = match bad.validate() {
            Err(MnaError::InvalidOptions(m)) => m,
            other => panic!("expected InvalidOptions, got {other:?}"),
        };
        assert!(msg.contains("op delta_tolerance"), "{msg}");
        assert!(OpOptions::default().validate().is_ok());
    }

    #[test]
    fn frequency_grids_are_deterministic_and_endpoint_inclusive() {
        let dec = AcOptions::new(FrequencySweep::Dec, 10, 1.0, 1e3);
        let f = dec.frequencies();
        assert_eq!(f.len(), 31); // ceil(10·3) + 1
        assert_eq!(f[0], 1.0);
        assert_eq!(*f.last().unwrap(), 1e3);
        assert!(f.windows(2).all(|w| w[0] < w[1]));

        let lin = AcOptions::new(FrequencySweep::Lin, 5, 10.0, 50.0);
        assert_eq!(lin.frequencies(), vec![10.0, 20.0, 30.0, 40.0, 50.0]);

        let oct = AcOptions::new(FrequencySweep::Oct, 1, 1.0, 8.0);
        let f = oct.frequencies();
        assert_eq!(f.len(), 4); // ceil(1·3) + 1
        assert_eq!(*f.last().unwrap(), 8.0);

        let point = AcOptions::new(FrequencySweep::Dec, 10, 42.0, 42.0);
        assert_eq!(point.frequencies(), vec![42.0]);
    }

    #[test]
    fn ac_rc_lowpass_matches_the_analytic_transfer_function() {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        let r = 1_000.0;
        let c = 1e-6;
        circuit.add(
            VoltageSource::new("V1", vin, Circuit::GROUND, Waveform::dc(0.0)).with_ac(1.0, 0.0),
        );
        circuit.add(Resistor::new("R1", vin, out, r));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, c));

        let ac = ac(&circuit, AcOptions::new(FrequencySweep::Dec, 5, 1.0, 1e5)).unwrap();
        let v = ac.voltage(out);
        for (k, &f) in ac.frequencies().iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            let denom = Complex64::new(1.0, omega * r * c);
            let expected = Complex64::ONE / denom;
            assert!(
                (v[k] - expected).abs() < 1e-12,
                "f = {f}: got {:?}, expected {:?}",
                v[k],
                expected
            );
        }
        // Source magnitude is flat at 1 V.
        let vin_resp = ac.voltage(vin);
        assert!(vin_resp.iter().all(|p| (p.abs() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn ac_current_source_drives_the_expected_impedance() {
        // 1 A AC into R ∥ C: V = Z = R / (1 + jωRC).
        let mut circuit = Circuit::new();
        let out = circuit.node("out");
        let r = 50.0;
        let c = 1e-7;
        circuit.add(
            CurrentSource::new("I1", Circuit::GROUND, out, Waveform::dc(0.0)).with_ac(1.0, 0.0),
        );
        circuit.add(Resistor::new("R1", out, Circuit::GROUND, r));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, c));

        let ac = ac(&circuit, AcOptions::new(FrequencySweep::Dec, 3, 1e3, 1e6)).unwrap();
        let v = ac.voltage(out);
        for (k, &f) in ac.frequencies().iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            let expected = Complex64::new(r, 0.0) / Complex64::new(1.0, omega * r * c);
            assert!(
                (v[k] - expected).abs() < 1e-9,
                "f = {f}: got {:?}, expected {:?}",
                v[k],
                expected
            );
        }
    }

    #[test]
    fn ac_without_an_ac_source_is_rejected() {
        let (circuit, _, _) = rc_divider();
        let err = ac(&circuit, AcOptions::new(FrequencySweep::Dec, 5, 1.0, 1e3)).unwrap_err();
        assert!(matches!(err, MnaError::InvalidOptions(msg) if msg.contains("AC specification")));
    }

    #[test]
    fn plan_construction_rejects_invalid_cards() {
        let mut plan = AnalysisPlan::new();
        let err = plan
            .push(Analysis::Tran(TransientOptions {
                dt: -1.0,
                ..TransientOptions::default()
            }))
            .unwrap_err();
        assert!(matches!(err, MnaError::InvalidOptions(_)));
        assert!(plan.is_empty());

        let err = plan
            .push(Analysis::Ac(AcOptions {
                f_start: 10.0,
                f_stop: 1.0,
                ..AcOptions::default()
            }))
            .unwrap_err();
        assert!(matches!(err, MnaError::InvalidOptions(msg) if msg.contains("f_stop")));
        assert!(plan.is_empty());

        plan.push(Analysis::Op(OpOptions::default())).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.cards()[0].kind(), "op");
    }

    #[test]
    fn engine_tran_card_is_bit_identical_to_the_standalone_driver() {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::sine(1.0, 50.0),
        ));
        circuit.add(Resistor::new("R1", vin, out, 1_000.0));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-6));
        let opts = TransientOptions {
            t_stop: 2e-3,
            dt: 1e-5,
            ..TransientOptions::default()
        };

        let direct = TransientAnalysis::new(opts).run(&circuit).unwrap();
        let plan = AnalysisPlan::from_cards(vec![Analysis::Tran(opts)]).unwrap();
        let results = AnalysisEngine::new().run(&circuit, &plan).unwrap();
        let card = results.transient().unwrap();

        assert_eq!(direct.times(), card.times());
        let a = direct.voltage(out);
        let b = card.voltage(out);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn op_card_warm_starts_the_following_transient() {
        let (circuit, _, mid) = rc_divider();
        let mut circuit = circuit;
        circuit.add(Capacitor::new("C1", mid, Circuit::GROUND, 1e-6));

        let plan = AnalysisPlan::from_cards(vec![
            Analysis::Op(OpOptions::default()),
            Analysis::Tran(TransientOptions {
                t_stop: 1e-4,
                dt: 1e-6,
                ..TransientOptions::default()
            }),
        ])
        .unwrap();
        let results = AnalysisEngine::new().run(&circuit, &plan).unwrap();
        let op = results.op().unwrap();
        let tran = results.transient().unwrap();

        // The transient's first recorded sample IS the operating point, and
        // the trace stays settled from the very start.
        let trace = tran.voltage(mid);
        assert_eq!(trace[0].to_bits(), op.voltage(mid).to_bits());
        for v in &trace {
            assert!((v - 2.5).abs() < 1e-6, "not settled: {v}");
        }
        // Statistics from both cards are merged.
        assert!(results.statistics().newton_iterations >= op.statistics().newton_iterations);
    }

    #[test]
    fn engine_pss_card_is_bit_identical_to_the_standalone_driver() {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::sine(1.0, 1_000.0),
        ));
        circuit.add(Resistor::new("R1", vin, out, 1_000.0));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-7));
        let mut opts = SteadyStateOptions::new(1e-3);
        opts.transient.dt = 1e-5;

        let direct = SteadyStateAnalysis::new(opts).run(&circuit).unwrap();
        let plan = AnalysisPlan::from_cards(vec![Analysis::Pss(opts)]).unwrap();
        let results = AnalysisEngine::new().run(&circuit, &plan).unwrap();
        let card = results.steady_state().unwrap();

        assert_eq!(direct.converged, card.converged);
        assert_eq!(direct.result.times(), card.result.times());
        let a = direct.result.voltage(out);
        let b = card.result.voltage(out);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn op_card_point_is_reused_by_a_following_ac_card() {
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(
            VoltageSource::new("V1", vin, Circuit::GROUND, Waveform::dc(0.0)).with_ac(1.0, 0.0),
        );
        circuit.add(Resistor::new("R1", vin, out, 1_000.0));
        circuit.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-6));

        let unchained = ac(&circuit, AcOptions::new(FrequencySweep::Dec, 5, 1.0, 1e4)).unwrap();
        let plan = AnalysisPlan::from_cards(vec![
            Analysis::Op(OpOptions::default()),
            Analysis::Ac(AcOptions::new(FrequencySweep::Dec, 5, 1.0, 1e4)),
        ])
        .unwrap();
        let results = AnalysisEngine::new().run(&circuit, &plan).unwrap();
        let chained = results.ac().unwrap();

        assert_eq!(unchained.frequencies(), chained.frequencies());
        let a = unchained.voltage(out);
        let b = chained.voltage(out);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        // The chained AC card did not redo the op's Newton work.
        let ac_card_stats = results.results()[1].statistics();
        assert_eq!(ac_card_stats.newton_iterations, 0);
    }
}
