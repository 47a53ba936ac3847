//! Deterministic panic injection, in the style of
//! [`FaultInjector`](harvester_numerics::fault::FaultInjector).
//!
//! The service promises that a panicking evaluation never kills a worker.
//! Testing that promise needs a way to *make* an evaluation panic on
//! demand: a [`PanicInjector`] is consulted exactly once at the start of
//! every attempt and panics on the armed consultation. Its payload carries
//! [`PANIC_MARKER`] so [`silence_injected_panics`] can keep deliberate
//! test panics out of the captured test output while every real panic
//! still reaches the default hook.

use std::panic;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Substring present in every injected panic payload. The service records
/// the payload on the failed job's report, so tests can assert the panic
/// they observed is the one they injected.
pub const PANIC_MARKER: &str = "[panic-injector]";

#[derive(Debug)]
struct Inner {
    consultations: AtomicU64,
    fire_at: AtomicU64,
}

/// An armable panic source consulted once per job attempt.
///
/// Clones share state (like
/// [`CancelToken`](harvester_mna::cancel::CancelToken), unlike
/// [`FaultInjector`](harvester_numerics::fault::FaultInjector)'s replaying
/// clones): the copy embedded in a [`JobSpec`](crate::job::JobSpec) and the
/// copy a test keeps observe the same consultation counter.
#[derive(Debug, Clone)]
pub struct PanicInjector {
    inner: Arc<Inner>,
}

impl PanicInjector {
    /// An injector that never fires (consultations are still counted).
    pub fn new() -> Self {
        PanicInjector {
            inner: Arc::new(Inner {
                consultations: AtomicU64::new(0),
                fire_at: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// An injector that panics on its `n`-th consultation (1-based;
    /// clamped to at least 1). With one consultation per attempt,
    /// `armed(1)` panics the first attempt.
    pub fn armed(n: u64) -> Self {
        let injector = PanicInjector::new();
        injector.inner.fire_at.store(n.max(1), Ordering::Release);
        injector
    }

    /// Counts the consultation and panics if it is the armed one.
    ///
    /// # Panics
    ///
    /// On the armed consultation, with a payload containing
    /// [`PANIC_MARKER`].
    pub(crate) fn consult(&self) {
        let n = self.inner.consultations.fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.inner.fire_at.load(Ordering::Acquire) {
            panic!("{PANIC_MARKER} injected panic on consultation {n}");
        }
    }

    /// Number of consultations so far.
    pub fn consultations(&self) -> u64 {
        self.inner.consultations.load(Ordering::Acquire)
    }
}

impl Default for PanicInjector {
    fn default() -> Self {
        PanicInjector::new()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for payloads carrying [`PANIC_MARKER`] and
/// forwards everything else to the previously installed hook.
///
/// Call at the top of tests that inject panics; without it the captured
/// panic still behaves correctly (the service catches it) but litters the
/// test output with scary backtraces.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains(PANIC_MARKER))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains(PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_only_counts() {
        let inj = PanicInjector::new();
        for _ in 0..5 {
            inj.consult();
        }
        assert_eq!(inj.consultations(), 5);
    }

    #[test]
    fn armed_injector_fires_on_the_exact_consultation() {
        silence_injected_panics();
        let inj = PanicInjector::armed(2);
        inj.consult();
        let clone = inj.clone();
        let caught = std::panic::catch_unwind(move || clone.consult())
            .expect_err("the second consultation must panic");
        let payload = caught
            .downcast_ref::<String>()
            .expect("injected payload is a String");
        assert!(payload.contains(PANIC_MARKER));
        // Clones share the counter: the original saw both consultations.
        assert_eq!(inj.consultations(), 2);
        // The armed occurrence is spent; later consultations are clean.
        inj.consult();
        assert_eq!(inj.consultations(), 3);
    }

    #[test]
    fn armed_zero_clamps_to_the_first_consultation() {
        silence_injected_panics();
        let inj = PanicInjector::armed(0);
        assert!(std::panic::catch_unwind(move || inj.consult()).is_err());
    }
}
