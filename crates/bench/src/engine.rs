//! The parallel single-flight execution engine.
//!
//! The engine owns the memo table of the harness: a map from [`RunKey`] to
//! either a finished result or an in-flight marker. Any number of threads
//! may request the same key concurrently; exactly one computes it while the
//! rest block on the flight's condvar and share the finished `Arc`
//! (*single-flight* semantics). [`Engine::prefetch`] executes a batch of
//! keys across a scoped worker pool and reports structured
//! `completed/total` progress on stderr.
//!
//! The engine is policy-agnostic: callers pass the compute closure (the
//! [`crate::Runner`] supplies one that builds the config and calls
//! `gpu_sim::gpu::run_kernel`). Because simulations are pure functions of
//! the key, results are bit-identical regardless of worker count or
//! completion order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use gpu_sim::stats::SimStats;

use crate::runkey::RunKey;

/// State of one memo slot.
enum Slot {
    /// A thread is computing this key; waiters block on the flight.
    InFlight(Arc<Flight>),
    /// Finished result.
    Done(Arc<SimStats>),
}

/// Rendezvous for threads waiting on an in-flight simulation.
struct Flight {
    /// `None` while running; `Some(Ok)` on completion, `Some(Err)` if the
    /// computing thread panicked (so waiters fail loudly instead of
    /// blocking forever).
    result: Mutex<Option<Result<Arc<SimStats>, ()>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { result: Mutex::new(None), done: Condvar::new() }
    }

    fn complete(&self, value: Result<Arc<SimStats>, ()>) {
        let mut slot = self.result.lock().unwrap();
        *slot = Some(value);
        self.done.notify_all();
    }

    fn wait(&self, key: &RunKey) -> Arc<SimStats> {
        let mut slot = self.result.lock().unwrap();
        loop {
            match &*slot {
                Some(Ok(stats)) => return Arc::clone(stats),
                Some(Err(())) => panic!("simulation {key} failed in another thread"),
                None => slot = self.done.wait(slot).unwrap(),
            }
        }
    }
}

/// Marks the owning flight failed unless defused; keeps a panicking compute
/// from stranding its waiters.
struct FlightGuard<'a> {
    engine: &'a Engine,
    key: RunKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.engine.slots.lock().unwrap().remove(&self.key);
            self.flight.complete(Err(()));
        }
    }
}

/// Memoizing, parallel, single-flight executor for [`RunKey`]s.
pub struct Engine {
    slots: Mutex<HashMap<RunKey, Slot>>,
    /// Simulations actually executed (monotonic; memo/flight hits excluded).
    sims_run: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Engine { slots: Mutex::new(HashMap::new()), sims_run: AtomicU64::new(0) }
    }

    /// Number of simulations actually executed so far. Memoized and
    /// shared-flight requests do not count: each distinct key contributes
    /// at most one.
    pub fn sims_run(&self) -> u64 {
        self.sims_run.load(Ordering::SeqCst)
    }

    /// Returns the stats for `key`, computing them with `compute` if no
    /// other request has. Concurrent calls for the same key share a single
    /// execution.
    pub fn run<F>(&self, key: RunKey, compute: F) -> Arc<SimStats>
    where
        F: FnOnce(&RunKey) -> SimStats,
    {
        let flight = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(&key) {
                Some(Slot::Done(stats)) => return Arc::clone(stats),
                Some(Slot::InFlight(flight)) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::new());
                    slots.insert(key, Slot::InFlight(Arc::clone(&flight)));
                    drop(slots);

                    let mut guard = FlightGuard { engine: self, key, flight: &flight, armed: true };
                    let stats = Arc::new(compute(&key));
                    guard.armed = false;

                    self.sims_run.fetch_add(1, Ordering::SeqCst);
                    self.slots.lock().unwrap().insert(key, Slot::Done(Arc::clone(&stats)));
                    flight.complete(Ok(Arc::clone(&stats)));
                    return stats;
                }
            }
        };
        flight.wait(&key)
    }

    /// Executes a batch of keys across `jobs` worker threads, deduplicating
    /// first. Already-memoized keys cost nothing; the rest run exactly
    /// once each. When `progress` is true a `[completed/total]` line per
    /// finished run goes to stderr (a structured replacement for the old
    /// racy per-simulation logging).
    pub fn prefetch<F>(&self, keys: &[RunKey], jobs: usize, progress: bool, compute: F)
    where
        F: Fn(&RunKey) -> SimStats + Sync,
    {
        let mut todo: Vec<RunKey> = Vec::with_capacity(keys.len());
        {
            let mut seen = std::collections::HashSet::with_capacity(keys.len());
            let slots = self.slots.lock().unwrap();
            for &key in keys {
                let warm = matches!(slots.get(&key), Some(Slot::Done(_)));
                if !warm && seen.insert(key) {
                    todo.push(key);
                }
            }
        }
        if todo.is_empty() {
            return;
        }

        let total = todo.len();
        let workers = jobs.clamp(1, total);
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let key = todo[i];
                    self.run(key, &compute);
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress {
                        eprintln!("  [{done}/{total}] {key}");
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Arch;

    fn fake_stats(cycles: u64) -> SimStats {
        SimStats { cycles, ..SimStats::default() }
    }

    #[test]
    fn memoizes_and_counts_once() {
        let e = Engine::new();
        let key = RunKey::new("GA", Arch::Baseline);
        let a = e.run(key, |_| fake_stats(7));
        let b = e.run(key, |_| panic!("must not recompute"));
        assert_eq!(a.cycles, 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(e.sims_run(), 1);
    }

    #[test]
    fn concurrent_requests_share_one_flight() {
        let e = Engine::new();
        let key = RunKey::new("GE", Arch::Linebacker);
        let computes = AtomicU64::new(0);
        let results: Vec<Arc<SimStats>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        e.run(key, |_| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so late arrivals hit the
                            // in-flight path, not the memo.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            fake_stats(42)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight violated");
        assert_eq!(e.sims_run(), 1);
        for r in &results {
            assert!(Arc::ptr_eq(r, &results[0]));
        }
    }

    #[test]
    fn prefetch_runs_each_distinct_key_exactly_once() {
        let e = Engine::new();
        let keys = [
            RunKey::new("GA", Arch::Baseline),
            RunKey::new("GA", Arch::Linebacker),
            RunKey::new("GA", Arch::Baseline), // duplicate
            RunKey::new("GE", Arch::Baseline),
            RunKey::new("GA", Arch::Linebacker), // duplicate
        ];
        let computes = AtomicU64::new(0);
        e.prefetch(&keys, 4, false, |_| {
            computes.fetch_add(1, Ordering::SeqCst);
            fake_stats(1)
        });
        assert_eq!(computes.load(Ordering::SeqCst), 3);
        assert_eq!(e.sims_run(), 3);

        // A second prefetch over the same keys is a no-op.
        e.prefetch(&keys, 4, false, |_| panic!("must not recompute"));
        assert_eq!(e.sims_run(), 3);
    }

    #[test]
    fn panicking_compute_fails_waiters_not_deadlocks() {
        let e = Engine::new();
        let key = RunKey::new("S2", Arch::Cerf);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(key, |_| -> SimStats { panic!("boom") })
        }));
        assert!(first.is_err());
        assert_eq!(e.sims_run(), 0);
        // The failed flight is cleared: a retry can compute fresh.
        let retried = e.run(key, |_| fake_stats(3));
        assert_eq!(retried.cycles, 3);
        assert_eq!(e.sims_run(), 1);
    }
}
