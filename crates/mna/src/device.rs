//! The behavioural-device trait and the stamping context through which
//! devices contribute their equations to the global system.
//!
//! A device sees the world through [`StampContext`]:
//!
//! * it reads the candidate values of its node voltages and extra unknowns,
//! * it accumulates **KCL currents** (current leaving each node) and their
//!   partial derivatives,
//! * it writes its own **branch/behavioural equations** (one per extra
//!   unknown) and their partial derivatives,
//! * it differentiates quantities with [`StampContext::ddt`], which applies
//!   the active integration method (backward Euler or trapezoidal) and
//!   manages the per-device history state automatically — the moral
//!   equivalent of VHDL-AMS `'dot`.
//!
//! One crate-internal loop, `assemble`, stamps a whole circuit through one
//! of four Jacobian views: the dense or the sparse backend's matrix, a
//! recording view that runs once at the zero iterate to derive the sparse
//! backend's pattern from the stamps themselves, and a discarding view for
//! the assemblies whose Jacobian nothing reads (a modified-Newton iteration
//! on stale factors, the residual and state probes), which compute the
//! residual, `new_states` and `ddt` bookkeeping exactly as the others do.

use crate::circuit::{Circuit, NodeId};
use crate::transient::{IntegrationMethod, SystemLayout};
use harvester_numerics::complex::Complex64;
use harvester_numerics::linalg::Matrix;
use harvester_numerics::sparse::SparseMatrix;

/// Reference to an unknown of the global system from a device's point of
/// view: either a circuit node voltage or one of the device's own extra
/// unknowns (branch current, mechanical displacement, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unknown {
    /// A node voltage.
    Node(NodeId),
    /// The device's `k`-th extra unknown (local index).
    Extra(usize),
}

/// Result of differentiating a quantity with [`StampContext::ddt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Differential {
    /// The discrete-time approximation of the derivative at the new time point.
    pub derivative: f64,
    /// Partial derivative of [`Differential::derivative`] with respect to the
    /// differentiated quantity (e.g. `1/dt` for backward Euler) — the factor
    /// to use when stamping the Jacobian.
    pub gain: f64,
}

/// A behavioural device model.
///
/// Implementations must be deterministic functions of the stamping context:
/// all persistent state is owned by the engine and accessed through the
/// context's state slots, which makes devices trivially reusable across
/// repeated analyses (the optimisation loop re-simulates thousands of
/// circuit variants).
pub trait Device {
    /// Unique device name (used for probing results).
    fn name(&self) -> &str;

    /// Number of extra unknowns this device adds to the system (branch
    /// currents, internal nodes, mechanical quantities, …). The engine adds
    /// one equation row per extra unknown.
    fn extra_unknowns(&self) -> usize {
        0
    }

    /// Human-readable names of the extra unknowns, used for probing
    /// (`result.probe("device", "unknown")`). Must have length
    /// [`Device::extra_unknowns`]; the default is `x0`, `x1`, ….
    fn unknown_names(&self) -> Vec<String> {
        (0..self.extra_unknowns())
            .map(|i| format!("x{i}"))
            .collect()
    }

    /// Number of persistent state slots (integration history, accumulated
    /// energies, …) the engine must allocate for this device.
    fn state_count(&self) -> usize {
        0
    }

    /// Fills the initial values of the state slots (default: zeros).
    fn initial_state(&self, _states: &mut [f64]) {}

    /// Contributes residual and Jacobian entries for the current Newton
    /// iterate.
    ///
    /// Must write the same Jacobian positions on every call, writing `0.0`
    /// where a derivative vanishes: the sparse backend records the positions
    /// of one call at the zero iterate as the circuit's sparsity pattern, and
    /// a later write outside it panics.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// Contributes the device's small-signal (AC) excitation phasor to the
    /// complex right-hand side of an AC analysis
    /// ([`Analysis::Ac`](crate::analysis::Analysis)).
    ///
    /// Most devices have no independent excitation and keep the default
    /// no-op: their small-signal behaviour is captured entirely by the
    /// linearised Jacobian at the operating point. Independent sources with
    /// an AC specification ([`VoltageSource::with_ac`](crate::devices::VoltageSource::with_ac),
    /// [`CurrentSource::with_ac`](crate::devices::CurrentSource::with_ac))
    /// drive the system here.
    fn stamp_ac(&self, ctx: &mut AcStampContext<'_>) {
        let _ = ctx;
    }

    /// Whether the device equations are nonlinear (informational; used by
    /// diagnostics and benchmarks).
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Appends every time in `(0, t_stop)` at which the device forces a
    /// discontinuity into the system (source waveform edges, switching
    /// instants, …).
    ///
    /// The adaptive time stepper
    /// ([`StepControl::Adaptive`](crate::transient::StepControl)) lands an
    /// accepted step exactly on each reported breakpoint instead of
    /// discovering the discontinuity through rejected steps. Devices with
    /// time-continuous equations (the default) report nothing. Sources
    /// delegate to [`Waveform::breakpoints`](crate::waveform::Waveform::breakpoints).
    fn breakpoints(&self, _t_stop: f64, _out: &mut Vec<f64>) {}

    /// The period of the device's explicit time dependence, as seen by the
    /// periodic steady-state engine
    /// ([`SteadyStateAnalysis`](crate::shooting::SteadyStateAnalysis)):
    ///
    /// * `Some(0.0)` — time-invariant (the default): compatible with any
    ///   excitation period.
    /// * `Some(T)` — the device's stamps are periodic in `ctx.time()` with
    ///   period `T` seconds.
    /// * `None` — aperiodic time dependence: a circuit containing this
    ///   device has no periodic steady state and shooting refuses it.
    ///
    /// **Every device whose [`Device::stamp`] reads
    /// [`StampContext::time`] must override this** — the time-invariant
    /// default would otherwise let the shooting engine silently treat an
    /// aperiodic circuit as periodic. Sources delegate to
    /// [`Waveform::period`](crate::waveform::Waveform::period).
    fn excitation_period(&self) -> Option<f64> {
        Some(0.0)
    }

    /// Runtime-type access for serialisers — in particular the netlist
    /// printer ([`netlist::print`](crate::netlist::print)), which downcasts
    /// to the standard [`devices`](crate::devices) to emit their text form.
    ///
    /// A device that wants to be expressible as netlist text returns
    /// `Some(self)`; the default `None` keeps behavioural/experimental
    /// devices (which have no card syntax) explicitly unprintable instead of
    /// silently misprinted.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Mutable view of the Jacobian being assembled, abstracting over the dense
/// and sparse solver backends so device models stamp identically into both.
/// Only the engine builds one (a device reaches it through
/// [`StampContext`]).
#[derive(Debug)]
pub(crate) enum JacobianView<'a> {
    /// Dense backend: stamps accumulate into a dense [`Matrix`].
    Dense(&'a mut Matrix),
    /// Sparse backend: stamps accumulate into a fixed-pattern CSR matrix,
    /// each into the storage slot the cache `slots` bound to its place in
    /// the stamp sequence (see [`StampSlots`]). Stamping a position outside
    /// the pattern recorded for the circuit panics.
    Sparse {
        matrix: &'a mut SparseMatrix,
        slots: &'a mut StampSlots,
    },
    /// Pattern recording: each stamp appends its `(row, col)`, and the value
    /// is dropped. The sparse backend derives its pattern from one assembly
    /// through this view.
    Record(&'a mut Vec<(usize, usize)>),
    /// Residual-only assembly: every write and the clear are dropped, so
    /// the matrix behind the other views keeps whatever it held.
    Discard,
}

impl JacobianView<'_> {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        match self {
            JacobianView::Dense(m) => m[(row, col)] += value,
            JacobianView::Sparse { matrix, slots } => slots.add(matrix, row, col, value),
            JacobianView::Record(entries) => record(entries, row, col),
            JacobianView::Discard => {}
        }
    }

    /// Clears the view for a fresh assembly: zeroes the matrix and, on the
    /// sparse backend, rewinds the stamp-slot cache to the first stamp.
    pub(crate) fn clear(&mut self) {
        match self {
            JacobianView::Dense(m) => m.fill_zero(),
            JacobianView::Sparse { matrix, slots } => {
                matrix.fill_zero();
                slots.rewind();
            }
            JacobianView::Record(entries) => entries.clear(),
            JacobianView::Discard => {}
        }
    }

    /// A shorter-lived view of the same storage, for one device's context.
    fn reborrow(&mut self) -> JacobianView<'_> {
        match self {
            JacobianView::Dense(m) => JacobianView::Dense(m),
            JacobianView::Sparse { matrix, slots } => JacobianView::Sparse { matrix, slots },
            JacobianView::Record(entries) => JacobianView::Record(entries),
            JacobianView::Discard => JacobianView::Discard,
        }
    }
}

/// The recording arm of [`JacobianView::add`]: cold and out of line, like
/// the sparse arm's [`StampSlots::add`].
#[cold]
#[inline(never)]
fn record(entries: &mut Vec<(usize, usize)>, row: usize, col: usize) {
    entries.push((row, col));
}

/// The sparse Jacobian's write-order slot cache: the CSR storage slot of
/// every stamp of the previous assemblies, by position in the stamp
/// sequence.
///
/// Devices stamp the same positions in the same order on almost every
/// assembly, so the `k`-th stamp of an assembly finds its slot in
/// `entries[k]` in O(1) instead of searching its CSR row. The cached
/// `(row, col)` is compared on every stamp; a stamp sequence that changes
/// (an iterate-dependent device, a reordered circuit on a reused workspace)
/// falls back to the row search and records the new slot from that write
/// on, so the assembled values are exactly those of
/// [`SparseMatrix::add_at`].
#[derive(Debug, Clone, Default)]
pub(crate) struct StampSlots {
    /// `(row, col, slot)` of each stamp, in write order.
    entries: Vec<(usize, usize, usize)>,
    /// Position of the next stamp of the running assembly.
    cursor: usize,
}

impl StampSlots {
    /// Rewinds to the first stamp: the start of every assembly.
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Adds `value` at `(row, col)` of `matrix` through the slot cached for
    /// the current stamp, looking the slot up (and caching it) when the
    /// cache holds another position.
    ///
    /// Out of line, so the dense arm of [`JacobianView::add`] compiles to
    /// the same inlined code as it would without a sparse backend.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not in `matrix`'s sparsity pattern.
    #[inline(never)]
    fn add(&mut self, matrix: &mut SparseMatrix, row: usize, col: usize, value: f64) {
        let k = self.cursor;
        let slot = match self.entries.get(k) {
            Some(&(r, c, slot)) if r == row && c == col => slot,
            _ => self.bind(matrix, row, col),
        };
        self.cursor = k + 1;
        matrix.add_at_slot(slot, value);
    }

    /// Looks up the slot of `(row, col)` and binds it to the current stamp.
    /// Cold, so the cache hit in [`StampSlots::add`] stays a short leaf.
    #[cold]
    fn bind(&mut self, matrix: &SparseMatrix, row: usize, col: usize) -> usize {
        let slot = matrix.slot(row, col);
        let k = self.cursor;
        if k < self.entries.len() {
            self.entries[k] = (row, col, slot);
        } else {
            self.entries.push((row, col, slot));
        }
        slot
    }
}

/// The view through which a device contributes its small-signal excitation
/// to the complex right-hand side of an AC analysis (see
/// [`Device::stamp_ac`]).
///
/// The sign conventions mirror [`StampContext`]'s residual conventions so a
/// source's AC drive reads like its transient stamp: the solved system is
/// `(G + jωC)·x̂ = b̂` where `G`/`C` are the Jacobian blocks of the residual
/// `f(x) = 0` at the operating point, and `b̂` collects `−∂f/∂u · û` for
/// each excitation phasor `û`.
pub struct AcStampContext<'a> {
    extra_base: usize,
    rhs: &'a mut [Complex64],
}

impl<'a> AcStampContext<'a> {
    pub(crate) fn new(extra_base: usize, rhs: &'a mut [Complex64]) -> Self {
        AcStampContext { extra_base, rhs }
    }

    fn global_index(&self, unknown: Unknown) -> Option<usize> {
        match unknown {
            Unknown::Node(node) => {
                if node.is_ground() {
                    None
                } else {
                    Some(node.index() - 1)
                }
            }
            Unknown::Extra(k) => Some(self.extra_base + k),
        }
    }

    /// Injects `phasor` amperes of small-signal current **into** `node`
    /// (contributions to ground are discarded, as during stamping).
    pub(crate) fn inject_current(&mut self, node: NodeId, phasor: Complex64) {
        if let Some(row) = self.global_index(Unknown::Node(node)) {
            self.rhs[row] += phasor;
        }
    }

    /// Drives the right-hand side of the device's `equation`-th behavioural
    /// equation with `phasor` — for a voltage source whose transient
    /// equation is `v(a) − v(b) − V(t) = 0`, the AC drive is `+V̂` here.
    pub(crate) fn drive_equation(&mut self, equation: usize, phasor: Complex64) {
        self.rhs[self.extra_base + equation] += phasor;
    }
}

/// Where an assembly stamps the devices: the time point and step being
/// solved, how `ddt` discretises, and whether junction limiting is on. With
/// the iterate and the device states it fixes everything a device's
/// [`Device::stamp`] sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampPoint {
    /// Simulation time of the step being solved (t_{n+1}).
    pub time: f64,
    /// Step size.
    pub dt: f64,
    /// Integration method [`StampContext::ddt`] applies.
    pub method: IntegrationMethod,
    /// Whether this is the very first step of the transient (lets devices
    /// initialise their history consistently).
    pub first_step: bool,
    /// SPICE-style junction-voltage limit (volts) requested by the
    /// convergence-recovery cascade, or `None` on the normal path.
    pub junction_limit: Option<f64>,
}

impl StampPoint {
    /// The step of size `dt` to `time` under `method`, without junction
    /// limiting.
    pub fn new(time: f64, dt: f64, method: IntegrationMethod, first_step: bool) -> Self {
        StampPoint {
            time,
            dt,
            method,
            first_step,
            junction_limit: None,
        }
    }
}

/// Stamps every device of `circuit` at `point` for the iterate `x` and the
/// previous converged device states `states`: clears `residual` and
/// `jacobian`, then accumulates each device's contributions in circuit
/// order and writes its candidate new states into `new_states`.
///
/// This is the one assembly loop of the engine: every analysis runs it on
/// its workspace buffers, and the sparse backend runs it through a recording
/// [`JacobianView`] to derive its pattern. A discarding view makes it a
/// residual-only assembly with the same residual and states. `ddt_mask` (length
/// `layout.total_states`), when given, records which state slots each
/// device's [`StampContext::ddt`] calls manage, the layout probe behind the
/// shooting engine's period restarts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    circuit: &Circuit,
    layout: &SystemLayout,
    point: StampPoint,
    x: &[f64],
    states: &[f64],
    new_states: &mut [f64],
    residual: &mut [f64],
    mut jacobian: JacobianView<'_>,
    mut ddt_mask: Option<&mut [u8]>,
) {
    residual.fill(0.0);
    jacobian.clear();
    for (((device, &extra_base), &state_base), &count) in circuit
        .devices()
        .iter()
        .zip(layout.extra_bases.iter())
        .zip(layout.state_bases.iter())
        .zip(layout.state_counts.iter())
    {
        let slots = state_base..state_base + count;
        let mut ctx = StampContext {
            point,
            x,
            states: &states[slots.clone()],
            new_states: &mut new_states[slots.clone()],
            residual,
            jacobian: jacobian.reborrow(),
            extra_base,
            ddt_mask: ddt_mask.as_deref_mut().map(|mask| &mut mask[slots]),
        };
        device.stamp(&mut ctx);
    }
}

/// Mutable view through which a device stamps its equations.
///
/// Created by the engine's assembly loop for each device on every Newton
/// iteration.
pub struct StampContext<'a> {
    /// Time point, step, integration method and junction limit.
    point: StampPoint,
    /// Global candidate solution: `[node voltages (id 1..), extra unknowns…]`.
    x: &'a [f64],
    /// Previous converged states for *this* device.
    states: &'a [f64],
    /// Candidate new states for *this* device (committed if the step
    /// converges).
    new_states: &'a mut [f64],
    /// Global residual vector.
    residual: &'a mut [f64],
    /// Global Jacobian (dense or sparse, depending on the solver backend).
    jacobian: JacobianView<'a>,
    /// Global index of this device's first extra unknown, which is also the
    /// global row of its first equation.
    extra_base: usize,
    /// Optional per-device record of which state slots [`StampContext::ddt`]
    /// manages (the shooting engine's state-refresh probe):
    /// [`DDT_VALUE_SLOT`] for the previous-value slot, [`DDT_DERIVATIVE_SLOT`]
    /// for the previous-derivative slot.
    ddt_mask: Option<&'a mut [u8]>,
}

/// Marker written into a ddt-slot mask for the slot holding a differentiated
/// quantity's previous *value* (refreshed from the solution vector when the
/// shooting engine restarts a period from an updated state).
pub(crate) const DDT_VALUE_SLOT: u8 = 1;
/// Marker for the slot holding a differentiated quantity's previous
/// *derivative* (carried across shooting restarts, never re-derived).
pub(crate) const DDT_DERIVATIVE_SLOT: u8 = 2;

impl<'a> StampContext<'a> {
    /// The junction-voltage limit (volts) the current assembly runs under,
    /// or `None` on the normal unlimited path. Exponential-junction devices
    /// (the [`Diode`](crate::devices::Diode)) honour it by evaluating
    /// voltages beyond the limit at the limit and extending linearly;
    /// devices that are linear in their branch voltage ignore it.
    pub fn junction_limit(&self) -> Option<f64> {
        self.point.junction_limit
    }

    /// Simulation time of the step being solved.
    pub fn time(&self) -> f64 {
        self.point.time
    }

    /// Current step size.
    pub fn dt(&self) -> f64 {
        self.point.dt
    }

    /// Active integration method.
    pub fn method(&self) -> IntegrationMethod {
        self.point.method
    }

    fn global_index(&self, unknown: Unknown) -> Option<usize> {
        match unknown {
            Unknown::Node(node) => {
                if node.is_ground() {
                    None
                } else {
                    Some(node.index() - 1)
                }
            }
            Unknown::Extra(k) => Some(self.extra_base + k),
        }
    }

    /// Candidate value of an unknown (ground reads as 0 V).
    pub fn value(&self, unknown: Unknown) -> f64 {
        match self.global_index(unknown) {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Candidate voltage of a node (0 V for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.value(Unknown::Node(node))
    }

    /// Candidate voltage difference `v(a) − v(b)`.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> f64 {
        self.voltage(a) - self.voltage(b)
    }

    /// Previous converged value of the device's `slot`-th state.
    pub fn state(&self, slot: usize) -> f64 {
        self.states[slot]
    }

    /// Differentiates `value` with respect to time using the active
    /// integration method.
    ///
    /// Two consecutive state slots starting at `slot` are used to hold the
    /// previous value and previous derivative; they are managed entirely by
    /// this method — the device only has to reserve them in
    /// [`Device::state_count`] and (optionally) seed the previous value in
    /// [`Device::initial_state`].
    pub fn ddt(&mut self, slot: usize, value: f64) -> Differential {
        let prev_value = self.states[slot];
        let prev_derivative = self.states[slot + 1];
        let StampPoint {
            dt,
            method,
            first_step,
            ..
        } = self.point;
        let (derivative, gain) = match method {
            IntegrationMethod::BackwardEuler => ((value - prev_value) / dt, 1.0 / dt),
            IntegrationMethod::Trapezoidal => {
                if first_step {
                    // No previous derivative available yet: fall back to
                    // backward Euler for the very first step.
                    ((value - prev_value) / dt, 1.0 / dt)
                } else {
                    (2.0 * (value - prev_value) / dt - prev_derivative, 2.0 / dt)
                }
            }
        };
        self.new_states[slot] = value;
        self.new_states[slot + 1] = derivative;
        if let Some(mask) = self.ddt_mask.as_deref_mut() {
            mask[slot] = DDT_VALUE_SLOT;
            mask[slot + 1] = DDT_DERIVATIVE_SLOT;
        }
        Differential { derivative, gain }
    }

    /// Adds `current` (in amperes, flowing **out of** `node` into the device)
    /// to the node's KCL residual. Contributions to ground are discarded.
    pub fn add_current(&mut self, node: NodeId, current: f64) {
        if let Some(row) = self.global_index(Unknown::Node(node)) {
            self.residual[row] += current;
        }
    }

    /// Adds the partial derivative of a previously added KCL current with
    /// respect to `unknown`.
    pub fn add_current_derivative(&mut self, node: NodeId, unknown: Unknown, value: f64) {
        if let (Some(row), Some(col)) = (
            self.global_index(Unknown::Node(node)),
            self.global_index(unknown),
        ) {
            self.jacobian.add(row, col, value);
        }
    }

    /// Adds `value` to the residual of the device's `equation`-th behavioural
    /// equation (one equation per extra unknown).
    pub fn add_equation(&mut self, equation: usize, value: f64) {
        let row = self.extra_base + equation;
        self.residual[row] += value;
    }

    /// Adds the partial derivative of the device's `equation`-th behavioural
    /// equation with respect to `unknown`.
    pub fn add_equation_derivative(&mut self, equation: usize, unknown: Unknown, value: f64) {
        if let Some(col) = self.global_index(unknown) {
            let row = self.extra_base + equation;
            self.jacobian.add(row, col, value);
        }
    }

    /// Convenience: stamps a conductance `g` between nodes `a` and `b`
    /// carrying current `g·(v(a) − v(b))`, including all four Jacobian
    /// entries. Returns the branch current.
    pub(crate) fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) -> f64 {
        let v = self.voltage_between(a, b);
        let i = g * v;
        self.add_current(a, i);
        self.add_current(b, -i);
        self.add_current_derivative(a, Unknown::Node(a), g);
        self.add_current_derivative(a, Unknown::Node(b), -g);
        self.add_current_derivative(b, Unknown::Node(a), -g);
        self.add_current_derivative(b, Unknown::Node(b), g);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn make_buffers(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Matrix) {
        (
            vec![0.0; n],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![0.0; n],
            Matrix::zeros(n, n),
        )
    }

    /// A dense-backend context over a system of node voltages only, for a
    /// device without extra unknowns.
    fn context<'a>(
        point: StampPoint,
        x: &'a [f64],
        states: &'a [f64],
        new_states: &'a mut [f64],
        residual: &'a mut [f64],
        jacobian: &'a mut Matrix,
    ) -> StampContext<'a> {
        StampContext {
            point,
            x,
            states,
            new_states,
            residual,
            jacobian: JacobianView::Dense(jacobian),
            extra_base: x.len(),
            ddt_mask: None,
        }
    }

    #[test]
    fn ground_contributions_are_discarded() {
        let (x, states, mut new_states, mut residual, mut jacobian) = make_buffers(2);
        let mut ctx = context(
            StampPoint::new(0.0, 1e-3, IntegrationMethod::BackwardEuler, true),
            &x,
            &states,
            &mut new_states,
            &mut residual,
            &mut jacobian,
        );
        ctx.add_current(Circuit::GROUND, 1.0);
        ctx.add_current_derivative(Circuit::GROUND, Unknown::Node(Circuit::GROUND), 1.0);
        assert_eq!(ctx.voltage(Circuit::GROUND), 0.0);
        assert!(residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn ddt_backward_euler() {
        let (x, mut states, mut new_states, mut residual, mut jacobian) = make_buffers(1);
        states[0] = 2.0; // previous value
        let mut ctx = context(
            StampPoint::new(1e-3, 1e-3, IntegrationMethod::BackwardEuler, false),
            &x,
            &states,
            &mut new_states,
            &mut residual,
            &mut jacobian,
        );
        let d = ctx.ddt(0, 3.0);
        assert!((d.derivative - 1000.0).abs() < 1e-9);
        assert!((d.gain - 1000.0).abs() < 1e-9);
        assert_eq!(new_states[0], 3.0);
        assert!((new_states[1] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ddt_trapezoidal_uses_previous_derivative() {
        let (x, mut states, mut new_states, mut residual, mut jacobian) = make_buffers(1);
        states[0] = 1.0; // previous value
        states[1] = 10.0; // previous derivative
        let mut ctx = context(
            StampPoint::new(2e-3, 1e-3, IntegrationMethod::Trapezoidal, false),
            &x,
            &states,
            &mut new_states,
            &mut residual,
            &mut jacobian,
        );
        let d = ctx.ddt(0, 1.0 + 10.0 * 1e-3);
        // If the value followed the previous slope exactly the trapezoidal
        // derivative stays at the previous derivative.
        assert!((d.derivative - 10.0).abs() < 1e-9);
        assert!((d.gain - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn conductance_stamp_is_symmetric() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let b = circuit.node("b");
        let x = vec![2.0, 1.0];
        let states = vec![0.0; 4];
        let mut new_states = vec![0.0; 4];
        let mut residual = vec![0.0; 2];
        let mut jacobian = Matrix::zeros(2, 2);
        let mut ctx = context(
            StampPoint::new(0.0, 1e-3, IntegrationMethod::BackwardEuler, true),
            &x,
            &states,
            &mut new_states,
            &mut residual,
            &mut jacobian,
        );
        let i = ctx.stamp_conductance(a, b, 0.5);
        assert!((i - 0.5).abs() < 1e-12);
        assert!((residual[0] - 0.5).abs() < 1e-12);
        assert!((residual[1] + 0.5).abs() < 1e-12);
        assert_eq!(jacobian[(0, 0)], 0.5);
        assert_eq!(jacobian[(0, 1)], -0.5);
        assert_eq!(jacobian[(1, 0)], -0.5);
        assert_eq!(jacobian[(1, 1)], 0.5);
    }
}
