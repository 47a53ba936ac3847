//! Deterministic fault injection for exercising solver fallback paths.
//!
//! The simulation stack is full of recovery code that healthy fixtures never
//! reach: the sparse LU's stale-pivot repivot, the matrix-free shooting
//! engine's GMRES→dense fallback, the operating-point homotopy cascade, the
//! transient engine's step-halving and gmin-ramp recovery. A
//! [`FaultInjector`] makes those paths *directly* testable: the solver layer
//! consults it at well-defined sites (factorisations, residual assemblies,
//! Krylov solves) and the injector decides — deterministically — whether the
//! `k`-th consultation of a given [`Fault`] kind should fail.
//!
//! The injector is **inert by default**: a `FaultInjector` with no armed
//! plans (and, in production, the absence of an injector altogether) never
//! fires and costs one branch per consultation site. Occurrence counting is
//! per fault kind and 1-based, so `arm(Fault::SingularFactorization, 3)`
//! fails exactly the third factorisation the run attempts.
//!
//! ```
//! use harvester_numerics::fault::{Fault, FaultInjector};
//!
//! let mut inj = FaultInjector::new();
//! inj.arm(Fault::SingularFactorization, 2);
//! assert!(!inj.should_fire(Fault::SingularFactorization)); // occurrence 1
//! assert!(inj.should_fire(Fault::SingularFactorization)); // occurrence 2
//! assert!(!inj.should_fire(Fault::SingularFactorization)); // occurrence 3
//! assert_eq!(inj.fired(Fault::SingularFactorization), 1);
//! ```

/// A fault kind the solver layer knows how to inject.
///
/// Each variant names one consultation site class; the consuming layer
/// documents exactly where it consults the injector (see
/// `docs/robustness.md` in the workspace root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Fault {
    /// A matrix factorisation reports itself singular even though the matrix
    /// is fine — exercises Newton-level retry/halving and repivot paths.
    SingularFactorization,
    /// A cached sparse factorisation's numeric refresh is rejected as if a
    /// pivot had gone stale — forces the full symbolic repivot path.
    StalePivot,
    /// A freshly assembled *transient* Newton residual is poisoned to NaN —
    /// the step cannot converge and the engine must halve or recover.
    NanResidual,
    /// A freshly assembled *static* (operating-point) Newton residual is
    /// poisoned to NaN — drives the gmin/source-stepping homotopy cascade.
    NanStaticResidual,
    /// A Krylov solve stagnates immediately — exercises the shooting
    /// engine's fallback from GMRES to an LU solve of the formed monodromy.
    KrylovStagnation,
}

/// Number of distinct [`Fault`] kinds (the injector keys its per-kind
/// occurrence counters by [`Fault::index`]).
const FAULT_KINDS: usize = 5;

impl Fault {
    fn index(self) -> usize {
        match self {
            Fault::SingularFactorization => 0,
            Fault::StalePivot => 1,
            Fault::NanResidual => 2,
            Fault::NanStaticResidual => 3,
            Fault::KrylovStagnation => 4,
        }
    }
}

/// One armed injection plan: fire `fault` on every occurrence in
/// `[first, first + count)` (1-based; `count == None` means open-ended).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultPlan {
    fault: Fault,
    first: usize,
    count: Option<usize>,
}

impl FaultPlan {
    fn covers(&self, fault: Fault, occurrence: usize) -> bool {
        if self.fault != fault || occurrence < self.first {
            return false;
        }
        match self.count {
            Some(count) => occurrence < self.first + count,
            None => true,
        }
    }
}

/// A fault that actually fired: which kind, at which 1-based occurrence of
/// that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The fault kind that fired.
    pub fault: Fault,
    /// The 1-based consultation index (per kind) at which it fired.
    pub occurrence: usize,
}

/// Deterministic, seedable fault injector (see the [module docs](self)).
///
/// Cloning an injector clones its plans *and* its counters, so a clone
/// replays identically from its current position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultInjector {
    plans: Vec<FaultPlan>,
    consultations: [usize; FAULT_KINDS],
    log: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An inert injector: nothing is armed, nothing ever fires.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Arms `fault` to fire exactly once, at its `occurrence`-th
    /// consultation (1-based).
    pub fn arm(&mut self, fault: Fault, occurrence: usize) -> &mut Self {
        self.arm_window(fault, occurrence.max(1), 1)
    }

    /// Arms `fault` to fire on every consultation in
    /// `[first, first + count)` (1-based).
    pub fn arm_window(&mut self, fault: Fault, first: usize, count: usize) -> &mut Self {
        self.plans.push(FaultPlan {
            fault,
            first: first.max(1),
            count: Some(count),
        });
        self
    }

    /// Arms `fault` to fire on **every** consultation from the first on.
    pub fn arm_always(&mut self, fault: Fault) -> &mut Self {
        self.plans.push(FaultPlan {
            fault,
            first: 1,
            count: None,
        });
        self
    }

    /// Arms `fault` at a pseudo-random occurrence in `[1, window]` derived
    /// deterministically from `seed` (SplitMix64) — the same seed always
    /// picks the same occurrence, so a failing fuzz case is replayable from
    /// its seed alone.
    pub fn arm_seeded(&mut self, fault: Fault, seed: u64, window: usize) -> &mut Self {
        let occurrence = 1 + (splitmix64(seed) % window.max(1) as u64) as usize;
        self.arm(fault, occurrence)
    }

    /// Whether any plan is armed for `fault` (fired or not).
    pub fn is_armed(&self, fault: Fault) -> bool {
        self.plans.iter().any(|p| p.fault == fault)
    }

    /// Consults the injector: counts one occurrence of `fault` and returns
    /// `true` when an armed plan covers it. Firing occurrences are recorded
    /// in [`FaultInjector::events`].
    pub fn should_fire(&mut self, fault: Fault) -> bool {
        self.consultations[fault.index()] += 1;
        let occurrence = self.consultations[fault.index()];
        if self.plans.iter().any(|p| p.covers(fault, occurrence)) {
            self.log.push(FaultEvent { fault, occurrence });
            true
        } else {
            false
        }
    }

    /// How many times `fault` has been consulted so far.
    pub fn consultations(&self, fault: Fault) -> usize {
        self.consultations[fault.index()]
    }

    /// How many times `fault` has actually fired.
    pub fn fired(&self, fault: Fault) -> usize {
        self.log.iter().filter(|e| e.fault == fault).count()
    }

    /// Every fault that fired, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.log
    }
}

/// SplitMix64 — the same tiny deterministic generator the workspace's fuzz
/// harnesses use to expand a case seed.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fires() {
        let mut inj = FaultInjector::new();
        for _ in 0..100 {
            assert!(!inj.should_fire(Fault::NanResidual));
        }
        assert_eq!(inj.consultations(Fault::NanResidual), 100);
        assert_eq!(inj.fired(Fault::NanResidual), 0);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn single_occurrence_fires_exactly_once() {
        let mut inj = FaultInjector::new();
        inj.arm(Fault::StalePivot, 3);
        let fired: Vec<bool> = (0..5).map(|_| inj.should_fire(Fault::StalePivot)).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(
            inj.events(),
            &[FaultEvent {
                fault: Fault::StalePivot,
                occurrence: 3
            }]
        );
    }

    #[test]
    fn kinds_are_counted_independently() {
        let mut inj = FaultInjector::new();
        inj.arm(Fault::SingularFactorization, 1);
        assert!(!inj.should_fire(Fault::KrylovStagnation));
        assert!(inj.should_fire(Fault::SingularFactorization));
        assert_eq!(inj.consultations(Fault::KrylovStagnation), 1);
        assert_eq!(inj.consultations(Fault::SingularFactorization), 1);
    }

    #[test]
    fn windows_and_always_cover_ranges() {
        let mut inj = FaultInjector::new();
        inj.arm_window(Fault::NanResidual, 2, 2);
        let fired: Vec<bool> = (0..4)
            .map(|_| inj.should_fire(Fault::NanResidual))
            .collect();
        assert_eq!(fired, vec![false, true, true, false]);

        let mut always = FaultInjector::new();
        always.arm_always(Fault::KrylovStagnation);
        assert!((0..10).all(|_| always.should_fire(Fault::KrylovStagnation)));
    }

    #[test]
    fn seeded_arming_is_deterministic_and_in_window() {
        let a = {
            let mut inj = FaultInjector::new();
            inj.arm_seeded(Fault::NanResidual, 42, 8);
            inj
        };
        let b = {
            let mut inj = FaultInjector::new();
            inj.arm_seeded(Fault::NanResidual, 42, 8);
            inj
        };
        assert_eq!(a, b);
        let mut inj = a;
        let fired = (0..8)
            .filter(|_| inj.should_fire(Fault::NanResidual))
            .count();
        assert_eq!(fired, 1, "seeded plan must land inside the window");
    }

    #[test]
    fn clone_replays_from_current_position() {
        let mut inj = FaultInjector::new();
        inj.arm(Fault::StalePivot, 2);
        assert!(!inj.should_fire(Fault::StalePivot));
        let mut clone = inj.clone();
        assert!(inj.should_fire(Fault::StalePivot));
        assert!(clone.should_fire(Fault::StalePivot));
    }
}
