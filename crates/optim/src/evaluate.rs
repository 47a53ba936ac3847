//! The batch-evaluation engine behind the genetic algorithm.
//!
//! The paper's integrated optimisation loop (Fig. 8) simulates **every
//! chromosome of every generation independently** — population 100 times
//! tens of generations of coupled transient simulations, the textbook
//! embarrassingly parallel workload. This module turns that observation into
//! infrastructure:
//!
//! * `nan_last_desc`, `is_better` and `best_index` — NaN-last ranking
//!   of raw objective values, so one failed simulation (a non-converged
//!   transient, an out-of-domain design) ranks as the worst possible design
//!   instead of panicking a sort or poisoning an argmax.
//! * [`ParallelEvaluator`] — shards one generation's candidates across a
//!   configurable number of [`std::thread::scope`] workers
//!   ([`Parallelism`]) that all call the one shared [`Objective`], with
//!   deterministic, candidate-order results:
//!   `Threads(n)` returns bit-identical fitness vectors to `Serial` for any
//!   deterministic objective.

use crate::Objective;
use std::cmp::Ordering;
use std::thread;

/// Total ordering over fitness values that sorts **higher (better) fitness
/// first and NaN last**, i.e. a NaN fitness is worse than any real value,
/// including `-inf`. The GA ranks, selects and keeps its best by it.
pub(crate) fn nan_last_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // a sorts after b
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Returns `true` when `candidate` is a strictly better (NaN-last) fitness
/// than `incumbent`. Any real value beats NaN; NaN never beats anything.
pub(crate) fn is_better(candidate: f64, incumbent: f64) -> bool {
    nan_last_desc(candidate, incumbent) == Ordering::Less
}

/// Index of the best fitness under the NaN-last ordering (first index wins
/// ties). Returns 0 for an empty slice.
pub(crate) fn best_index(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if is_better(v, values[best]) {
            best = i;
        }
    }
    best
}

/// How a population-based optimiser spreads one generation's objective
/// evaluations over worker threads.
///
/// Whatever the choice, results are returned in candidate order and are
/// bit-identical across variants for a deterministic objective — the knob
/// trades wall-clock time only, never reproducibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Evaluate on the calling thread, one candidate at a time.
    Serial,
    /// Shard each generation across exactly this many workers (the calling
    /// thread counts as one of them). `Threads(0)` and `Threads(1)` behave
    /// like [`Parallelism::Serial`].
    Threads(usize),
    /// Use [`std::thread::available_parallelism`] workers (falling back to
    /// serial when it cannot be determined).
    #[default]
    Auto,
}

impl Parallelism {
    /// Number of workers that will evaluate a batch of `batch_size`
    /// candidates (never more workers than candidates, never fewer than 1).
    pub fn worker_count(self, batch_size: usize) -> usize {
        let cap = match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => thread::available_parallelism().map_or(1, |n| n.get()),
        };
        cap.min(batch_size.max(1))
    }
}

/// Shards one generation's candidates across scoped worker threads.
///
/// Candidates are split into contiguous chunks, one per worker; the calling
/// thread processes the first chunk while spawned workers process the rest,
/// and results are concatenated back in candidate order. Because chunk
/// boundaries depend only on the batch size and worker count — never on
/// timing — the result vector is deterministic, and for a deterministic
/// objective it is bit-identical to a serial evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParallelEvaluator {
    parallelism: Parallelism,
}

impl ParallelEvaluator {
    /// Creates an evaluator with the given parallelism policy.
    pub fn new(parallelism: Parallelism) -> Self {
        ParallelEvaluator { parallelism }
    }

    /// A strictly serial evaluator (no worker threads ever spawned).
    pub fn serial() -> Self {
        Self::new(Parallelism::Serial)
    }

    /// Evaluates `candidates`, returning one fitness per candidate in
    /// candidate order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the objective (after all workers have been
    /// joined by the thread scope).
    pub fn evaluate(
        &self,
        objective: &(dyn Objective + Sync),
        candidates: &[Vec<f64>],
    ) -> Vec<f64> {
        let batch = move |chunk: &[Vec<f64>]| -> Vec<f64> {
            chunk.iter().map(|c| objective.evaluate(c)).collect()
        };
        let workers = self.parallelism.worker_count(candidates.len());
        if workers <= 1 {
            return batch(candidates);
        }
        let chunk_size = candidates.len().div_ceil(workers);
        let mut chunks = candidates.chunks(chunk_size);
        let first = chunks.next().expect("batch is non-empty");
        thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || batch(chunk)))
                .collect();
            // The calling thread is worker 0 while the others run.
            let mut results = batch(first);
            for handle in handles {
                results.extend(handle.join().expect("evaluation worker panicked"));
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn sphere(genes: &[f64]) -> f64 {
        -genes.iter().map(|g| g * g).sum::<f64>()
    }

    fn batch(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|k| vec![k as f64, -(k as f64) / 2.0]).collect()
    }

    #[test]
    fn nan_last_ordering_treats_nan_as_worst() {
        assert_eq!(nan_last_desc(1.0, 2.0), Ordering::Greater);
        assert_eq!(nan_last_desc(2.0, 1.0), Ordering::Less);
        assert_eq!(nan_last_desc(1.0, 1.0), Ordering::Equal);
        assert_eq!(
            nan_last_desc(f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(nan_last_desc(f64::NEG_INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(nan_last_desc(f64::NAN, f64::NAN), Ordering::Equal);
        assert!(is_better(f64::NEG_INFINITY, f64::NAN));
        assert!(!is_better(f64::NAN, f64::NEG_INFINITY));
        assert!(!is_better(f64::NAN, f64::NAN));
        assert!(!is_better(1.0, 1.0));
    }

    #[test]
    fn sorting_with_the_helper_puts_nan_last() {
        let mut values = [0.5, f64::NAN, -1.0, 2.0, f64::NAN, f64::NEG_INFINITY];
        values.sort_by(|a, b| nan_last_desc(*a, *b));
        assert_eq!(values[0], 2.0);
        assert_eq!(values[1], 0.5);
        assert_eq!(values[2], -1.0);
        assert_eq!(values[3], f64::NEG_INFINITY);
        assert!(values[4].is_nan() && values[5].is_nan());
    }

    #[test]
    fn best_index_skips_nan_and_prefers_first_tie() {
        assert_eq!(best_index(&[f64::NAN, 1.0, 2.0, 2.0]), 2);
        assert_eq!(best_index(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(best_index(&[]), 0);
        assert_eq!(best_index(&[-1.0, f64::NEG_INFINITY]), 0);
    }

    #[test]
    fn worker_count_respects_policy_and_batch() {
        assert_eq!(Parallelism::Serial.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(4).worker_count(3), 3);
        assert_eq!(Parallelism::Threads(0).worker_count(10), 1);
        assert!(Parallelism::Auto.worker_count(64) >= 1);
        assert_eq!(Parallelism::Auto.worker_count(1), 1);
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let candidates = batch(23);
        let serial = ParallelEvaluator::serial().evaluate(&sphere, &candidates);
        for workers in [2, 3, 5, 8, 23, 40] {
            let parallel = ParallelEvaluator::new(Parallelism::Threads(workers))
                .evaluate(&sphere, &candidates);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        let auto = ParallelEvaluator::default().evaluate(&sphere, &candidates);
        assert_eq!(serial, auto);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let evaluator = ParallelEvaluator::new(Parallelism::Threads(4));
        assert!(evaluator.evaluate(&sphere, &[]).is_empty());
    }

    #[test]
    fn every_candidate_is_evaluated_exactly_once() {
        struct Counting(AtomicUsize);
        impl Objective for Counting {
            fn evaluate(&self, genes: &[f64]) -> f64 {
                self.0.fetch_add(1, AtomicOrdering::Relaxed);
                sphere(genes)
            }
        }
        let objective = Counting(AtomicUsize::new(0));
        let candidates = batch(17);
        let evaluator = ParallelEvaluator::new(Parallelism::Threads(4));
        let results = evaluator.evaluate(&objective, &candidates);
        assert_eq!(results.len(), 17);
        assert_eq!(objective.0.load(AtomicOrdering::Relaxed), 17);
    }

    #[test]
    fn nan_objectives_flow_through_the_evaluator() {
        let spiky = |genes: &[f64]| {
            if genes[0] as usize % 3 == 0 {
                f64::NAN
            } else {
                sphere(genes)
            }
        };
        let candidates = batch(9);
        let results = ParallelEvaluator::new(Parallelism::Threads(2)).evaluate(&spiky, &candidates);
        assert!(results[0].is_nan());
        assert!(!results[1].is_nan());
        assert!(results[3].is_nan());
    }
}
