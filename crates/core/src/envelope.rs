//! Envelope-following acceleration for long charging simulations.
//!
//! The paper's headline experiments charge a 0.22 F super-capacitor for
//! **150 minutes** while the micro-generator oscillates at ~50 Hz; simulating
//! every vibration cycle of that horizon would take hundreds of millions of
//! time steps (the paper itself notes 17 CPU-hours on the original platform).
//! The storage voltage, however, changes on a timescale of minutes, so the
//! classic multi-rate "envelope following" technique applies:
//!
//! 1. For a grid of storage voltages `V`, clamp the storage node to `V`
//!    (a DC source in place of the super-capacitor), simulate a handful of
//!    vibration cycles in full detail, and record the **average charging
//!    current** `I(V)` delivered into the clamp.
//! 2. Integrate the slow envelope ODE
//!    `C·dV/dt = I(V) − V/R_leak` over the full horizon.
//!
//! The detailed transient engine is still the only model of the fast
//! dynamics — the envelope step merely re-uses its cycle-averaged output — so
//! the mechanical–electrical interaction the paper is about is fully
//! retained. A cross-check test in `tests/` verifies the envelope result
//! against a brute-force detailed simulation on a shortened scenario.

use crate::system::{HarvesterConfig, HarvesterNodes};
use harvester_mna::circuit::Circuit;
use harvester_mna::devices::{Resistor, VoltageSource};
use harvester_mna::shooting::{SteadyStateAnalysis, SteadyStateOptions};
use harvester_mna::transient::{
    RunStatistics, SolverBackend, StepControl, TransientAnalysis, TransientOptions,
    TransientResult, TransientWorkspace,
};
use harvester_mna::waveform::Waveform;
use harvester_mna::{options, MnaError};
use harvester_numerics::fault::FaultInjector;
use harvester_numerics::interp::LinearInterpolator;
use harvester_numerics::stats::mean;

/// How each storage-voltage grid point reaches the periodic steady state it
/// measures.
///
/// The charging characteristic averages the rectifier current over a
/// *periodic* regime of the clamped circuit. [`SteadyState::BruteForce`]
/// gets there by marching [`EnvelopeOptions::settle_cycles`] excitation
/// cycles until the start-up transient has died out (the pre-shooting
/// behaviour);
/// [`SteadyState::Shooting`] solves the two-point boundary-value problem
/// `x(T) = x(0)` directly with the shooting-Newton engine
/// ([`harvester_mna::shooting::SteadyStateAnalysis`]) and measures the
/// converged period — typically 4–8× fewer integrated cycles for the same
/// measured current.
///
/// Shooting **falls back to brute-force settling automatically** whenever it
/// cannot serve a grid point: an aperiodic excitation, a knee of the
/// operating region where the closure Newton stalls, or any simulation
/// error inside the shooting attempt. The fallback costs the settling run it
/// would have cost anyway (plus the aborted shooting cycles, visible in
/// [`RunStatistics::integrated_cycles`]), and it measures what settling
/// measures: a fixed settle, which on the GA's designs can read several
/// times below the converged orbit. One grid point in ten falls back on the
/// GA's design pool (perfbench's `envelope.fallback_ratio` reads 0.0997 on
/// a seed-1 `ga_campaign` run), counted in
/// [`RunStatistics::brute_force_fallbacks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteadyState {
    /// March `settle_cycles` excitation cycles, then average over
    /// `measure_cycles` — the pre-shooting path, kept bit-identical.
    BruteForce,
    /// Shooting-Newton periodic steady state with brute-force fallback.
    Shooting {
        /// Shooting-Newton iteration budget per grid point (each iteration
        /// integrates one excitation period) before falling back.
        max_iters: usize,
        /// Weighted closure tolerance on `x(T) − x(0)` (see
        /// [`SteadyStateOptions::tolerance`]).
        tol: f64,
    },
}

impl SteadyState {
    /// Shooting with the engine-recommended budget and tolerance.
    pub fn shooting() -> Self {
        SteadyState::Shooting {
            max_iters: SteadyStateOptions::DEFAULT_MAX_ITERATIONS,
            tol: SteadyStateOptions::DEFAULT_TOLERANCE,
        }
    }
}

impl Default for SteadyState {
    /// Shooting is the production default: the envelope measurements are
    /// exactly the per-operating-point periodic steady states the method is
    /// built for, and the automatic fallback keeps the brute-force safety
    /// net underneath.
    fn default() -> Self {
        SteadyState::shooting()
    }
}

/// Options controlling the envelope-following simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeOptions {
    /// Number of storage-voltage grid points at which the average charging
    /// current is measured.
    pub voltage_points: usize,
    /// Highest storage voltage in the measurement grid (volts).
    pub max_voltage: f64,
    /// Vibration cycles simulated before measurement starts under
    /// [`SteadyState::BruteForce`] (start-up transient settling); the
    /// shooting path replaces them with its short warm-up and only falls
    /// back to them when the closure Newton stalls.
    pub settle_cycles: f64,
    /// Vibration cycles over which the charging current is averaged.
    pub measure_cycles: f64,
    /// Detailed-simulation time step in seconds.
    pub detail_dt: f64,
    /// Total charging horizon in seconds (the paper uses 150 minutes).
    pub horizon: f64,
    /// Number of points reported on the output charging curve.
    pub output_points: usize,
    /// Linear-solver backend used by the detailed transients.
    pub backend: SolverBackend,
    /// Time-step control of the detailed transients. The default is
    /// [`StepControl::adaptive_averaging`]: the measurement transients are
    /// exactly the smooth-oscillation-with-occasional-diode-corner workload
    /// LTE control is built for, and the cycle-averaged current they produce
    /// is insensitive to pointwise trace differences far below the averaging
    /// window. Under adaptive stepping the engine records on the uniform
    /// `detail_dt` grid (dense interpolation), so the averaging semantics
    /// match fixed stepping sample-for-sample; [`StepControl::Fixed`] lands
    /// on and records exactly the `k·detail_dt` grid, halving inside a grid
    /// interval only when Newton fails. The shooting path
    /// integrates its periods on a fixed `detail_dt` grid (the sensitivity
    /// chain and the exact period landing both require it) and therefore
    /// ignores this knob except through the brute-force fallback.
    pub step_control: StepControl,
    /// How each grid point reaches periodic steady state: direct
    /// shooting-Newton closure (the default) or brute-force settling. See
    /// [`SteadyState`].
    pub steady_state: SteadyState,
    /// Whether the detailed transients may reuse factored Newton Jacobians
    /// across iterations and nearby steps (the modified-Newton bypass,
    /// [`TransientOptions::reuse_jacobian`]). On by default; switch off to
    /// pin classical full-Newton iteration economics, e.g. when comparing
    /// raw Newton-iteration counts across step-control policies.
    pub reuse_jacobian: bool,
}

impl Default for EnvelopeOptions {
    fn default() -> Self {
        EnvelopeOptions {
            voltage_points: 9,
            max_voltage: 4.0,
            settle_cycles: 60.0,
            measure_cycles: 10.0,
            detail_dt: 4e-5,
            horizon: 150.0 * 60.0,
            output_points: 200,
            backend: SolverBackend::Auto,
            step_control: StepControl::adaptive_averaging(),
            steady_state: SteadyState::default(),
            reuse_jacobian: true,
        }
    }
}

impl EnvelopeOptions {
    /// Checks every numeric field through the workspace-wide shared checker
    /// ([`harvester_mna::options`]) — the same primitives (and therefore the
    /// same message formats) behind
    /// [`TransientOptions::validate`](harvester_mna::transient::TransientOptions::validate)
    /// and the analysis-plan cards. Called at the top of every measurement,
    /// so a malformed sweep configuration fails fast with a named option
    /// instead of a solver error deep inside a transient.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), MnaError> {
        options::at_least("envelope voltage_points", self.voltage_points, 2)?;
        options::positive_finite("envelope max_voltage", self.max_voltage)?;
        options::positive_finite("envelope settle_cycles", self.settle_cycles)?;
        options::positive_finite("envelope measure_cycles", self.measure_cycles)?;
        options::positive_finite("envelope detail_dt", self.detail_dt)?;
        options::positive_finite("envelope horizon", self.horizon)?;
        options::at_least("envelope output_points", self.output_points, 2)?;
        if let SteadyState::Shooting { max_iters, tol } = self.steady_state {
            options::at_least("envelope shooting max_iters", max_iters, 1)?;
            options::positive_finite("envelope shooting tol", tol)?;
        }
        Ok(())
    }
}

/// A charging curve produced by the envelope simulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChargingCurve {
    /// Sample times in seconds.
    pub times: Vec<f64>,
    /// Storage voltage at each sample time.
    pub voltages: Vec<f64>,
}

impl ChargingCurve {
    /// Final (end-of-horizon) storage voltage.
    pub fn final_voltage(&self) -> f64 {
        *self.voltages.last().unwrap_or(&0.0)
    }

    /// Linearly interpolated voltage at an arbitrary time (clamped to the
    /// simulated range).
    pub fn voltage_at(&self, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return self.voltages[0];
        }
        if t >= *self.times.last().unwrap() {
            return *self.voltages.last().unwrap();
        }
        let hi = self.times.partition_point(|&ti| ti <= t);
        let (t0, t1) = (self.times[hi - 1], self.times[hi]);
        let (v0, v1) = (self.voltages[hi - 1], self.voltages[hi]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }
}

/// The measured cycle-averaged charging characteristic `I(V)` of a harvester
/// design.
#[derive(Debug, Clone)]
pub struct ChargingCharacteristic {
    interpolator: LinearInterpolator,
    statistics: RunStatistics,
}

impl ChargingCharacteristic {
    /// Average charging current (amperes) delivered into the storage when it
    /// sits at `voltage`.
    pub fn current_at(&self, voltage: f64) -> f64 {
        self.interpolator.value(voltage)
    }

    /// The measured grid points `(voltage, current)`.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.interpolator
            .xs()
            .iter()
            .copied()
            .zip(self.interpolator.ys().iter().copied())
    }

    /// Aggregate work counters of every detailed transient behind this
    /// measurement (one per storage-voltage grid point) — the simulation
    /// budget the benchmark and CPU-split experiments track per design
    /// evaluation.
    pub fn statistics(&self) -> RunStatistics {
        self.statistics
    }
}

/// Reusable scratch for repeated envelope measurements.
///
/// A charging-characteristic measurement runs several detailed transients
/// (one per storage-voltage grid point), each of which needs a
/// [`TransientWorkspace`] — matrices, factorisation, history buffers. This
/// wrapper keeps that workspace alive across measurements, for a caller
/// that measures many designs in a row; the workspace is rebuilt
/// automatically whenever the circuit layout changes.
///
/// Determinism: at the start of every measurement the cached numeric
/// factorisation is dropped
/// ([`TransientWorkspace::invalidate_factors`]), so each measurement is a
/// pure function of the design being measured — bit-identical to a fresh
/// workspace, whatever the workspace measured before.
#[derive(Debug, Default)]
pub struct EnvelopeWorkspace {
    transient: Option<TransientWorkspace>,
    /// Injector waiting to be handed to the transient workspace the next
    /// time a measurement materialises (or reuses) it.
    fault: Option<FaultInjector>,
}

impl EnvelopeWorkspace {
    /// Creates an empty workspace (buffers are built on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a deterministic [`FaultInjector`] that every measurement
    /// through this workspace threads into its solver layer — the test hook
    /// that drives the shooting→brute-force fallback (and any deeper
    /// recovery path) on demand. Counters accumulate across measurements;
    /// reclaim them with [`EnvelopeWorkspace::take_fault_injector`].
    pub fn install_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// Removes and returns the installed injector (with its accumulated
    /// consultation counts and firing log), if any.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.transient
            .as_mut()
            .and_then(TransientWorkspace::take_fault_injector)
            .or_else(|| self.fault.take())
    }

    /// The transient workspace for `circuit` under `options`, with the
    /// pending injector installed. A workspace that does not fit is rebuilt,
    /// keeping its installed injector (and counters); the flag says whether
    /// it was.
    fn transient_for(
        &mut self,
        circuit: &Circuit,
        options: &TransientOptions,
    ) -> Result<(&mut TransientWorkspace, bool), MnaError> {
        let rebuild = !self
            .transient
            .as_ref()
            .is_some_and(|ws| ws.fits(circuit, options));
        if rebuild {
            if let Some(f) = self
                .transient
                .as_mut()
                .and_then(TransientWorkspace::take_fault_injector)
            {
                self.fault = Some(f);
            }
            self.transient = Some(TransientWorkspace::for_circuit(circuit, options)?);
        }
        let ws = self.transient.as_mut().expect("workspace was just built");
        if let Some(f) = self.fault.take() {
            ws.install_fault_injector(f);
        }
        Ok((ws, rebuild))
    }
}

/// Envelope-following simulator for a harvester configuration.
#[derive(Debug, Clone)]
pub struct EnvelopeSimulator {
    config: HarvesterConfig,
    options: EnvelopeOptions,
}

impl EnvelopeSimulator {
    /// Creates an envelope simulator for `config` with the given options.
    pub fn new(config: HarvesterConfig, options: EnvelopeOptions) -> Self {
        EnvelopeSimulator { config, options }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &HarvesterConfig {
        &self.config
    }

    /// Measures the cycle-averaged charging characteristic `I(V)` by running
    /// one detailed transient per grid voltage with the storage clamped.
    ///
    /// # Errors
    ///
    /// Propagates transient-engine failures.
    pub fn measure_characteristic(&self) -> Result<ChargingCharacteristic, MnaError> {
        self.measure_characteristic_with(&mut EnvelopeWorkspace::default())
    }

    /// As [`EnvelopeSimulator::measure_characteristic`], but reusing an
    /// externally owned [`EnvelopeWorkspace`] — the entry point for a caller
    /// that measures many designs in a row and wants the
    /// transient-simulation buffers allocated once, not once per design.
    /// The result is bit-identical to the workspace-free path.
    ///
    /// # Errors
    ///
    /// Propagates transient-engine failures.
    pub fn measure_characteristic_with(
        &self,
        workspace: &mut EnvelopeWorkspace,
    ) -> Result<ChargingCharacteristic, MnaError> {
        let opts = &self.options;
        opts.validate()?;
        let period = 1.0 / self.config.vibration.frequency_hz;
        let t_settle = opts.settle_cycles * period;
        let t_stop = t_settle + opts.measure_cycles * period;

        // A measurement must be a pure function of the design: drop any
        // pivot order inherited from previously measured designs (buffers
        // and the symbolic pattern stay allocated).
        if let Some(ws) = workspace.transient.as_mut() {
            ws.invalidate_factors();
        }

        let mut voltages = Vec::with_capacity(opts.voltage_points);
        let mut currents = Vec::with_capacity(opts.voltage_points);
        let mut statistics = RunStatistics::default();
        // Continuation along the grid: once one clamp voltage has a
        // converged orbit, the next starts shooting from it (adjacent
        // operating points have nearby orbits, and the closure Newton jumps
        // the clamp-level shift in one step) instead of warming up cold.
        let mut warm = false;
        for k in 0..opts.voltage_points {
            let v = opts.max_voltage * k as f64 / (opts.voltage_points - 1).max(1) as f64;
            // A failure deep in the transient engine names a time and a
            // residual but not *which* sweep point was being measured — wrap
            // it with the operating point so optimiser logs are actionable.
            let context = |e: MnaError| {
                e.with_context(format!(
                    "charging-characteristic grid point {k} (clamp {v:.3} V)"
                ))
            };
            let i = match opts.steady_state {
                SteadyState::BruteForce => self
                    .measure_settled(v, t_settle, t_stop, period, workspace, &mut statistics)
                    .map_err(context)?,
                SteadyState::Shooting { max_iters, tol } => {
                    match self.measure_shooting(
                        v,
                        period,
                        max_iters,
                        tol,
                        warm,
                        workspace,
                        &mut statistics,
                    ) {
                        Some(i) => {
                            warm = true;
                            i
                        }
                        // Shooting stalled or refused this operating point
                        // (non-periodic excitation, closure Newton stuck at
                        // a knee): settle the honest way. The aborted
                        // shooting cycles stay on the work counters.
                        None => {
                            warm = false;
                            statistics.brute_force_fallbacks += 1;
                            self.measure_settled(
                                v,
                                t_settle,
                                t_stop,
                                period,
                                workspace,
                                &mut statistics,
                            )
                            .map_err(context)?
                        }
                    }
                }
            };
            voltages.push(v);
            currents.push(i);
        }
        let interpolator =
            LinearInterpolator::new(voltages, currents).map_err(MnaError::Numerics)?;
        Ok(ChargingCharacteristic {
            interpolator,
            statistics,
        })
    }

    /// Runs the full envelope simulation and returns the long-horizon
    /// charging curve.
    ///
    /// # Errors
    ///
    /// Propagates transient-engine failures from the characteristic
    /// measurement.
    pub fn charge_curve(&self) -> Result<ChargingCurve, MnaError> {
        let characteristic = self.measure_characteristic()?;
        Ok(self.integrate_envelope(&characteristic))
    }

    /// Integrates the slow envelope ODE `C·dV/dt = I(V) − V/R_leak` over the
    /// horizon with the classic fourth-order Runge–Kutta method at a fixed
    /// step of `horizon / output_points` (at least 1 ms).
    fn integrate_envelope(&self, characteristic: &ChargingCharacteristic) -> ChargingCurve {
        let storage = self.config.storage;
        let dvdt = |v: f64| {
            let v = v.max(0.0);
            let charging = characteristic.current_at(v);
            let leakage = v / storage.leakage_resistance;
            (charging - leakage) / storage.capacitance
        };
        let horizon = self.options.horizon;
        let dt = (horizon / self.options.output_points as f64).max(1e-3);
        let (mut t, mut v) = (0.0, storage.initial_voltage);
        let mut curve = ChargingCurve {
            times: vec![t],
            voltages: vec![v],
        };
        while t < horizon - 1e-15 {
            let h = dt.min(horizon - t);
            let k1 = dvdt(v);
            let k2 = dvdt(v + 0.5 * h * k1);
            let k3 = dvdt(v + 0.5 * h * k2);
            let k4 = dvdt(v + h * k3);
            v += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            t += h;
            curve.times.push(t);
            curve.voltages.push(v);
        }
        curve
    }

    /// The measurement netlist: the harvester with a DC source clamping the
    /// storage node. The super-capacitor the builder adds is made inert
    /// (pre-charged to the clamp voltage, no leakage, no series resistance)
    /// so the clamp current measures exactly the current the booster
    /// delivers; leakage is re-introduced analytically by the envelope ODE.
    fn clamped_circuit(&self, clamp_voltage: f64) -> (Circuit, HarvesterNodes) {
        let (mut circuit, nodes) = {
            let mut cfg = self.config.clone();
            cfg.storage.initial_voltage = clamp_voltage;
            cfg.storage.leakage_resistance = 1e12;
            cfg.storage.series_resistance = 0.0;
            cfg.build()
        };
        // The clamp connects through a small series resistance (cabling /
        // contact resistance of a source-measure unit). Besides being
        // physical, this keeps the trapezoidal integrator well behaved: an
        // ideal source directly across the booster's smoothing capacitor
        // would make that capacitor's voltage jump at t = 0 and the
        // trapezoidal rule would ring on the inconsistent initial condition
        // for ever; the series resistance damps the ringing within a few
        // steps while leaving the cycle-averaged current unchanged.
        let clamp_internal = circuit.node("clamp_internal");
        circuit.add(Resistor::new(
            "clamp_series",
            nodes.storage,
            clamp_internal,
            10.0,
        ));
        circuit.add(VoltageSource::new(
            "clamp",
            clamp_internal,
            Circuit::GROUND,
            Waveform::dc(clamp_voltage),
        ));
        (circuit, nodes)
    }

    /// Brute-force grid-point measurement: settle, then average — the
    /// pre-shooting path.
    fn measure_settled(
        &self,
        clamp_voltage: f64,
        t_settle: f64,
        t_stop: f64,
        period: f64,
        workspace: &mut EnvelopeWorkspace,
        statistics: &mut RunStatistics,
    ) -> Result<f64, MnaError> {
        let result = self.run_clamped(clamp_voltage, t_stop, workspace)?;
        statistics.merge(&result.statistics());
        statistics.integrated_cycles += (t_stop / period).ceil() as usize;
        Ok(clamp_charging_current(&result, t_settle))
    }

    /// Shooting grid-point measurement: solve `x(T) = x(0)` directly and
    /// average the clamp current over the converged period. Returns `None`
    /// (after accounting the attempted cycles) whenever the engine refuses
    /// the circuit or the closure Newton fails to converge — the caller then
    /// falls back to [`EnvelopeSimulator::measure_settled`].
    #[allow(clippy::too_many_arguments)]
    fn measure_shooting(
        &self,
        clamp_voltage: f64,
        period: f64,
        max_iters: usize,
        tol: f64,
        warm: bool,
        workspace: &mut EnvelopeWorkspace,
        statistics: &mut RunStatistics,
    ) -> Option<f64> {
        let (circuit, _nodes) = self.clamped_circuit(clamp_voltage);
        let mut options = SteadyStateOptions::new(period);
        // A grid point warm-started from its neighbour's converged orbit
        // needs only a token warm-up; a cold start needs to escape the
        // all-zero initial state first.
        options.warm_start = warm;
        options.warmup_cycles = if warm {
            1.0
        } else {
            SteadyStateOptions::DEFAULT_WARMUP_CYCLES
        };
        options.max_iterations = max_iters;
        options.tolerance = tol;
        options.transient = TransientOptions {
            dt: self.options.detail_dt,
            backend: self.options.backend,
            reuse_jacobian: self.options.reuse_jacobian,
            ..TransientOptions::default()
        };
        let (ws, rebuilt) = workspace.transient_for(&circuit, &options.transient).ok()?;
        if rebuilt {
            // A fresh workspace holds no previous orbit to continue from.
            options.warm_start = false;
            options.warmup_cycles = SteadyStateOptions::DEFAULT_WARMUP_CYCLES;
        }
        let pss = SteadyStateAnalysis::new(options)
            .run_with(&circuit, ws)
            .ok()?;
        statistics.merge(&pss.statistics());
        if !pss.converged {
            return None;
        }
        Some(shooting_average_current(&pss.result))
    }

    fn run_clamped(
        &self,
        clamp_voltage: f64,
        t_stop: f64,
        workspace: &mut EnvelopeWorkspace,
    ) -> Result<TransientResult, MnaError> {
        let (circuit, _nodes) = self.clamped_circuit(clamp_voltage);
        // Under adaptive stepping the accepted steps are non-uniform, so the
        // engine is asked to record on the uniform `detail_dt` grid (dense
        // interpolation): the cycle average over the recorded samples then
        // has exactly the same meaning as under fixed stepping, where every
        // accepted step *is* a grid point and nothing is recorded twice.
        let record_interval = self
            .options
            .step_control
            .is_adaptive()
            .then_some(self.options.detail_dt);
        let options = TransientOptions {
            t_stop,
            dt: self.options.detail_dt,
            backend: self.options.backend,
            record_interval,
            step_control: self.options.step_control,
            reuse_jacobian: self.options.reuse_jacobian,
            ..TransientOptions::default()
        };
        let (ws, _) = workspace.transient_for(&circuit, &options)?;
        TransientAnalysis::new(options).run_with(&circuit, ws)
    }
}

/// Average clamp current over one converged shooting period.
///
/// The period is recorded on a uniform step grid whose first and last
/// samples coincide (periodic closure), so dropping the first sample makes
/// the plain mean the exact uniform-grid period average (the trapezoid rule
/// for a periodic integrand).
fn shooting_average_current(result: &TransientResult) -> f64 {
    let clamp_current = result
        .probe("clamp", "i")
        .expect("clamp source is always present");
    mean(&clamp_current[1..])
}

/// Average current absorbed by the clamp source after `t_settle`.
///
/// The clamp's branch current is positive when external circuitry pushes
/// current *into* its positive terminal, i.e. when the booster charges the
/// storage node.
fn clamp_charging_current(result: &TransientResult, t_settle: f64) -> f64 {
    let times = result.times();
    let clamp_current = result
        .probe("clamp", "i")
        .expect("clamp source is always present");
    let samples: Vec<f64> = times
        .iter()
        .zip(clamp_current.iter())
        .filter(|(t, _)| **t >= t_settle)
        .map(|(_, i)| *i)
        .collect();
    mean(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StorageParams;

    fn quick_envelope_options() -> EnvelopeOptions {
        EnvelopeOptions {
            voltage_points: 4,
            max_voltage: 3.0,
            settle_cycles: 18.0,
            measure_cycles: 6.0,
            detail_dt: 1e-4,
            horizon: 600.0,
            output_points: 50,
            backend: SolverBackend::Auto,
            step_control: StepControl::adaptive_averaging(),
            steady_state: SteadyState::BruteForce,
            ..EnvelopeOptions::default()
        }
    }

    fn quick_shooting_options() -> EnvelopeOptions {
        EnvelopeOptions {
            steady_state: SteadyState::default(),
            ..quick_envelope_options()
        }
    }

    #[test]
    fn envelope_options_validate_through_the_shared_checker() {
        assert!(EnvelopeOptions::default().validate().is_ok());
        let reject = |options: EnvelopeOptions, needle: &str| {
            let config = HarvesterConfig::unoptimised();
            match EnvelopeSimulator::new(config, options).measure_characteristic() {
                Err(MnaError::InvalidOptions(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                }
                other => panic!("expected InvalidOptions({needle}), got {other:?}"),
            }
        };
        reject(
            EnvelopeOptions {
                voltage_points: 1,
                ..quick_envelope_options()
            },
            "voltage_points must be at least 2",
        );
        reject(
            EnvelopeOptions {
                detail_dt: 0.0,
                ..quick_envelope_options()
            },
            "detail_dt must be positive and finite",
        );
        reject(
            EnvelopeOptions {
                horizon: 0.0,
                ..quick_envelope_options()
            },
            "horizon must be positive and finite",
        );
        reject(
            EnvelopeOptions {
                steady_state: SteadyState::Shooting {
                    max_iters: 12,
                    tol: f64::NAN,
                },
                ..quick_envelope_options()
            },
            "shooting tol must be positive and finite",
        );
    }

    #[test]
    fn characteristic_current_decreases_with_storage_voltage() {
        // Extra mechanical damping makes the resonator settle within the short
        // measurement window used by this unit test; the physical mechanism
        // under test (less charging current into a fuller storage) is
        // unaffected.
        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        let sim = EnvelopeSimulator::new(config, quick_envelope_options());
        let characteristic = sim.measure_characteristic().unwrap();
        let points: Vec<(f64, f64)> = characteristic.points().collect();
        assert_eq!(points.len(), 4);
        let i_low = characteristic.current_at(0.0);
        let i_high = characteristic.current_at(3.0);
        assert!(
            i_low > 0.0,
            "empty storage must draw positive charge current"
        );
        assert!(
            i_high < i_low,
            "charging current must fall as the storage fills: {i_high} vs {i_low}"
        );
    }

    #[test]
    fn envelope_charging_curve_is_monotone_until_saturation() {
        let mut config = HarvesterConfig::unoptimised();
        config.storage = StorageParams {
            capacitance: 0.01,
            ..StorageParams::paper_supercap()
        };
        let sim = EnvelopeSimulator::new(config, quick_envelope_options());
        let curve = sim.charge_curve().unwrap();
        assert_eq!(curve.times.len(), curve.voltages.len());
        assert!(
            curve.final_voltage() > 0.1,
            "storage should charge appreciably"
        );
        for w in curve.voltages.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "charging curve must be non-decreasing");
        }
        // Interpolation accessor behaves.
        let mid = curve.voltage_at(curve.times[curve.times.len() / 2]);
        assert!(mid > 0.0 && mid <= curve.final_voltage() + 1e-9);
        assert_eq!(curve.voltage_at(-1.0), curve.voltages[0]);
        assert_eq!(curve.voltage_at(1e9), curve.final_voltage());
    }

    #[test]
    fn envelope_integrator_is_fourth_order_against_the_closed_form() {
        // A constant characteristic I₀ makes the envelope ODE linear, with
        // the exact solution V(t) = I₀R + (V₀ − I₀R)·e^{−t/RC}. The step is
        // RC/10: at the paper's storage and horizon it is ~0.002·RC, where
        // the RK4 error would sit at roundoff.
        let (i0, r, c, v0) = (10e-3, 100.0, 1.0, 0.5);
        let characteristic = ChargingCharacteristic {
            interpolator: LinearInterpolator::new(vec![0.0, 5.0], vec![i0, i0]).unwrap(),
            statistics: RunStatistics::default(),
        };
        let mut config = HarvesterConfig::unoptimised();
        config.storage = StorageParams {
            capacitance: c,
            leakage_resistance: r,
            initial_voltage: v0,
            ..config.storage
        };
        let max_error = |output_points: usize| {
            let options = EnvelopeOptions {
                horizon: 2.0 * r * c,
                output_points,
                ..EnvelopeOptions::default()
            };
            let curve =
                EnvelopeSimulator::new(config.clone(), options).integrate_envelope(&characteristic);
            assert_eq!(curve.times.len(), output_points + 1);
            curve
                .times
                .iter()
                .zip(&curve.voltages)
                .map(|(t, v)| (v - (i0 * r + (v0 - i0 * r) * (-t / (r * c)).exp())).abs())
                .fold(0.0, f64::max)
        };
        // Per step RK4 misses e^{−0.1} by ~8e-8; over the first time
        // constant that builds to ~1.7e-7 V on the 0.5 V transient.
        let coarse = max_error(20);
        assert!(coarse < 5e-7, "error {coarse} V at h = RC/10");
        // Halving the step must cut the global error by about 2⁴ = 16.
        let ratio = coarse / max_error(40);
        assert!((12.0..20.0).contains(&ratio), "error ratio {ratio}");
    }

    #[test]
    fn reused_workspace_measurements_are_bit_identical() {
        // Runs on the shooting default so the purity guarantee covers the
        // production path (the brute-force path is covered by the identical
        // pre-shooting behaviour it kept).
        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        let sim = EnvelopeSimulator::new(config.clone(), quick_shooting_options());
        let fresh = sim.measure_characteristic().unwrap();

        let mut workspace = EnvelopeWorkspace::new();
        let first = sim.measure_characteristic_with(&mut workspace).unwrap();

        // Pollute the workspace with a *different* design, then re-measure
        // the original: the result must not depend on workspace history.
        let mut other = config.clone();
        other.generator.coil_resistance *= 2.0;
        other.generator.coil_turns *= 1.3;
        let other_sim = EnvelopeSimulator::new(other, quick_shooting_options());
        let _ = other_sim
            .measure_characteristic_with(&mut workspace)
            .unwrap();
        let second = sim.measure_characteristic_with(&mut workspace).unwrap();

        for ((va, ia), ((vb, ib), (vc, ic))) in
            fresh.points().zip(first.points().zip(second.points()))
        {
            assert_eq!(va, vb);
            assert_eq!(va, vc);
            assert_eq!(ia, ib, "fresh vs reused workspace must agree bit-for-bit");
            assert_eq!(ia, ic, "workspace history must not leak into results");
        }
    }

    #[test]
    fn envelope_options_default_matches_paper_horizon() {
        let opts = EnvelopeOptions::default();
        assert_eq!(opts.horizon, 9000.0);
        assert!(opts.voltage_points >= 5);
        // The envelope path runs on adaptive stepping by default.
        assert!(opts.step_control.is_adaptive());
        // Periodic steady states come from the shooting engine by default,
        // with brute-force settling as the selectable/fallback path.
        assert!(matches!(opts.steady_state, SteadyState::Shooting { .. }));
    }

    #[test]
    fn shooting_measures_a_physical_characteristic_with_far_fewer_cycles() {
        // The quick fixture's 18-cycle settling reference is itself far from
        // the periodic steady state (this harvester settles over hundreds of
        // cycles), so point-by-point agreement against it would compare two
        // different things; the accuracy contract against a *converged*
        // settling reference is asserted at release scale by
        // `tests/pss_golden.rs`. Here: the shooting path engages, produces a
        // physically sensible characteristic, and does it in a fraction of
        // even this deliberately short settling budget.
        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        let brute = EnvelopeSimulator::new(config.clone(), quick_envelope_options())
            .measure_characteristic()
            .unwrap();
        let shooting = EnvelopeSimulator::new(config, quick_shooting_options())
            .measure_characteristic()
            .unwrap();
        let points: Vec<(f64, f64)> = shooting.points().collect();
        assert!(points.iter().all(|(_, i)| i.is_finite()));
        assert!(
            points[0].1 > 0.0,
            "empty storage must draw positive charge current, got {}",
            points[0].1
        );
        for w in points.windows(2) {
            assert!(
                w[1].1 < w[0].1,
                "charging current must fall as the storage fills: {points:?}"
            );
        }
        // The under-settled brute measurement reads *low*: the true periodic
        // orbit delivers at least as much charge at every grid voltage.
        for ((_, ib), (_, is_)) in brute.points().zip(shooting.points()) {
            assert!(is_ >= ib - 1e-9, "settling creeps up towards the orbit");
        }
        let bs = brute.statistics();
        let ss = shooting.statistics();
        assert!(ss.shooting_iterations > 0, "shooting must engage");
        assert_eq!(bs.shooting_iterations, 0);
        assert!(
            ss.integrated_cycles * 2 < bs.integrated_cycles,
            "shooting must integrate far fewer excitation cycles even against this \
             deliberately short settling budget: {} vs {}",
            ss.integrated_cycles,
            bs.integrated_cycles
        );
    }

    #[test]
    fn table1_clamped_pss_closes_without_the_gmres_fallback_on_both_backends() {
        // The GA fitness point: the Table 1 harvester clamped at 1.0 V,
        // shot cold at the production step and closure tolerance. Its closure
        // GMRES must converge at the tolerance nested under the closure
        // tolerance on either backend, never paying the LU fallback.
        let config = HarvesterConfig::unoptimised();
        let period = 1.0 / config.vibration.frequency_hz;
        let (circuit, _) =
            EnvelopeSimulator::new(config, EnvelopeOptions::default()).clamped_circuit(1.0);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut options = SteadyStateOptions::new(period);
            options.transient = TransientOptions {
                dt: 1e-4,
                backend,
                ..TransientOptions::default()
            };
            let pss = SteadyStateAnalysis::new(options).run(&circuit).unwrap();
            assert!(pss.converged, "{backend:?}: the orbit must close");
            assert!(pss.iterations > 0, "{backend:?}: shooting must engage");
            assert_eq!(pss.statistics().gmres_fallbacks, 0, "{backend:?}");
        }
    }

    #[test]
    fn shooting_falls_back_to_settling_when_it_cannot_converge() {
        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        // A tolerance no floating-point orbit can meet forces the fallback
        // on every grid point.
        let impossible = EnvelopeOptions {
            steady_state: SteadyState::Shooting {
                max_iters: 1,
                tol: 1e-300,
            },
            ..quick_envelope_options()
        };
        let fallback = EnvelopeSimulator::new(config.clone(), impossible)
            .measure_characteristic()
            .unwrap();
        let brute = EnvelopeSimulator::new(config, quick_envelope_options())
            .measure_characteristic()
            .unwrap();
        let scale = brute.points().map(|(_, i)| i.abs()).fold(0.0f64, f64::max);
        for ((vb, ib), (vf, i_f)) in brute.points().zip(fallback.points()) {
            assert_eq!(vb, vf);
            assert!(
                (ib - i_f).abs() <= 0.05 * scale + 1e-9,
                "fallback must deliver the settled measurement: {i_f} vs {ib}"
            );
        }
        // The failed shooting attempts stay on the books: strictly more
        // integrated cycles than plain settling.
        assert!(
            fallback.statistics().integrated_cycles > brute.statistics().integrated_cycles,
            "{} vs {}",
            fallback.statistics().integrated_cycles,
            brute.statistics().integrated_cycles
        );
        // Every grid point abandoned shooting, and each retreat is counted;
        // the brute-force mode never even consults the fallback path.
        assert!(
            fallback.statistics().brute_force_fallbacks > 0,
            "abandoned shooting solves must be counted as fallbacks"
        );
        assert_eq!(brute.statistics().brute_force_fallbacks, 0);
    }

    #[test]
    fn injected_faults_drive_shooting_to_the_brute_force_fallback() {
        use harvester_numerics::fault::Fault;

        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        let clean = EnvelopeSimulator::new(config.clone(), quick_shooting_options())
            .measure_characteristic()
            .unwrap();
        assert_eq!(clean.statistics().brute_force_fallbacks, 0);

        // Poison a window of transient Newton residuals starting mid-way
        // through the first grid point's shooting warm-up: the in-period
        // halving cascade exhausts (the fixed period grid carries no
        // recovery policy), the shooting engine reports the failure, and
        // the envelope must retreat to brute-force settling for that grid
        // point. The window deliberately outlasts the cascade so the first
        // settling steps are poisoned too: a non-finite residual ends each
        // such step's solve before anything is factored, the step is
        // halved, and the fallback must still deliver the measurement.
        let mut inj = FaultInjector::new();
        inj.arm_window(Fault::NanResidual, 100, 45);
        let mut workspace = EnvelopeWorkspace::new();
        workspace.install_fault_injector(inj);
        let injected = EnvelopeSimulator::new(config, quick_shooting_options())
            .measure_characteristic_with(&mut workspace)
            .unwrap();
        let inj = workspace
            .take_fault_injector()
            .expect("injector must be reclaimable after the measurement");
        assert!(inj.fired(Fault::NanResidual) > 0, "the window must fire");
        assert!(
            injected.statistics().brute_force_fallbacks >= 1,
            "the poisoned shooting attempt must be counted as a fallback"
        );
        // Each grid point delivers a legitimate measurement: the shooting
        // value where shooting survived, the (deliberately short-settled,
        // hence biased-low) brute-force value where the injection forced the
        // retreat. Compare against both references.
        let brute = EnvelopeSimulator::new(
            {
                let mut c = HarvesterConfig::unoptimised();
                c.generator.damping *= 3.0;
                c
            },
            quick_envelope_options(),
        )
        .measure_characteristic()
        .unwrap();
        let scale = clean.points().map(|(_, i)| i.abs()).fold(0.0f64, f64::max);
        for (((vc, ic), (vi, ii)), (_, ib)) in
            clean.points().zip(injected.points()).zip(brute.points())
        {
            assert_eq!(vc, vi);
            let dev = (ic - ii).abs().min((ib - ii).abs());
            assert!(
                dev <= 0.05 * scale + 1e-9,
                "measurement must match the shooting or settled reference: \
                 {ii} vs shooting {ic} / settled {ib}"
            );
        }
    }

    #[test]
    fn adaptive_measurement_matches_fixed_with_less_newton_work() {
        let mut config = HarvesterConfig::unoptimised();
        config.generator.damping *= 3.0;
        let fixed_opts = EnvelopeOptions {
            step_control: StepControl::Fixed,
            ..quick_envelope_options()
        };
        let fixed = EnvelopeSimulator::new(config.clone(), fixed_opts)
            .measure_characteristic()
            .unwrap();
        let adaptive = EnvelopeSimulator::new(config, quick_envelope_options())
            .measure_characteristic()
            .unwrap();
        let scale = fixed.points().map(|(_, i)| i.abs()).fold(0.0f64, f64::max);
        for ((vf, cf), (va, ca)) in fixed.points().zip(adaptive.points()) {
            assert_eq!(vf, va);
            assert!(
                (cf - ca).abs() <= 0.1 * scale + 1e-9,
                "adaptive current at {va} V must track the fixed reference: {ca} vs {cf}"
            );
        }
        let fs = fixed.statistics();
        let as_ = adaptive.statistics();
        assert!(
            as_.newton_iterations < fs.newton_iterations,
            "adaptive must beat fixed Newton work on this fixture: {} vs {}",
            as_.newton_iterations,
            fs.newton_iterations
        );
        assert!(as_.predicted_steps > 0);
        assert_eq!(fs.lte_rejections, 0);
    }
}
