//! Deterministic work-stealing thread pool for the Tero pipeline.
//!
//! The paper's pipeline stages (§3 thumbnail extraction, §3.3 per-stream
//! cleaning, §5/§6 per-group analysis) are embarrassingly parallel: every
//! task reads shared immutable state and produces one independent result.
//! [`Pool::par_map`] exploits that shape while keeping the output
//! *byte-identical* to the sequential loop it replaces:
//!
//! * every task is stamped with its input index when it is enqueued;
//! * workers pull from their own deque first, then refill from a global
//!   injector of contiguous chunks, then steal from the back of a victim's
//!   deque — so the *execution* order is scheduling-dependent;
//! * results are merged by input index after the scope joins — so the
//!   *observed* order never is.
//!
//! Determinism contract: for a pure `f`, `pool.par_map(items, f)` returns
//! exactly `items.iter().map(f).collect()` for every worker count,
//! including the degenerate `workers == 1` configuration, which runs the
//! loop inline on the caller's thread without spawning anything (the exact
//! legacy path).
//!
//! The pool is built entirely on the workspace's vendored
//! `parking_lot`/`crossbeam` shims and `std::thread::scope` — no external
//! dependencies, no unsafe code.
//!
//! ```
//! use tero_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use tero_obs::{CounterHandle, GaugeHandle, Registry};

/// The number of workers a freshly built machine should use: one per
/// available hardware thread, falling back to 1 when the capacity cannot
/// be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Metric handles, resolved once when the pool is instrumented.
#[derive(Clone)]
struct PoolObs {
    /// `pool.tasks`: tasks executed (across all `par_map` calls).
    tasks: CounterHandle,
    /// `pool.steals`: successful steals of work from another worker's deque.
    steals: CounterHandle,
    /// `pool.queue_depth`: chunks waiting in the global injector (the
    /// high-watermark records the largest backlog ever enqueued).
    queue_depth: GaugeHandle,
}

/// A work-stealing thread pool with deterministic, index-ordered results.
///
/// The pool itself is a lightweight description (worker count + metric
/// handles); OS threads only exist inside a [`Pool::par_map`] call, via a
/// scoped spawn, so borrowing closures need no `'static` bounds and a
/// dropped pool leaks nothing. A clone is the same description reporting
/// into the same metrics.
#[derive(Clone)]
pub struct Pool {
    workers: usize,
    obs: Option<PoolObs>,
}

impl Pool {
    /// A pool running `workers` worker threads per `par_map` call.
    /// `workers == 0` is treated as 1. `workers == 1` never spawns: it is
    /// the exact sequential path.
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            obs: None,
        }
    }

    /// A pool reporting `pool.*` metrics into `registry`.
    pub fn with_metrics(workers: usize, registry: &Registry) -> Self {
        let mut pool = Pool::new(workers);
        pool.obs = Some(PoolObs {
            tasks: registry.counter("pool.tasks"),
            steals: registry.counter("pool.steals"),
            queue_depth: registry.gauge("pool.queue_depth"),
        });
        pool
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items` on the pool, returning results in input order.
    ///
    /// `f` must be pure with respect to ordering (it may bump atomics or
    /// write to thread-safe stores, but must not depend on *when* other
    /// items run). Panics in `f` propagate to the caller after the scope
    /// unwinds.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// Like [`Pool::par_map`], but `f` also receives each item's input
    /// index — the hook tracing contexts use to stamp fan-out tasks with a
    /// schedule-independent identity (`tero-trace` derives span ids from
    /// the index, never from the worker that ran the task).
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if let Some(obs) = &self.obs {
            obs.tasks.add(n as u64);
        }
        let workers = self.workers.min(n);
        if workers <= 1 {
            // Exact legacy path: same thread, same order, no machinery.
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Carve the index space into contiguous chunks. Small chunks give
        // the injector and the stealers something to balance with; one
        // chunk per worker would devolve into static partitioning.
        let chunk = (n / (workers * 8)).clamp(1, 64);
        let mut injector: VecDeque<Range<usize>> = VecDeque::new();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            injector.push_back(start..end);
            start = end;
        }
        if let Some(obs) = &self.obs {
            obs.queue_depth.set(injector.len() as i64);
        }
        let injector = Mutex::new(injector);
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();

        let mut merged: Vec<(usize, R)> = Vec::with_capacity(n);
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let injector = &injector;
                    let deques = &deques;
                    let f = &f;
                    let obs = self.obs.as_ref();
                    s.spawn(move || worker_loop(me, items, injector, deques, f, obs))
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(part) => merged.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        debug_assert_eq!(merged.len(), n, "every task produced one result");
        // The ordered merge: index stamps restore the input order exactly,
        // however the chunks were scheduled or stolen.
        merged.sort_unstable_by_key(|(i, _)| *i);
        merged.into_iter().map(|(_, r)| r).collect()
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("instrumented", &self.obs.is_some())
            .finish()
    }
}

/// One worker: drain own deque → refill from the injector → steal.
fn worker_loop<T, R, F>(
    me: usize,
    items: &[T],
    injector: &Mutex<VecDeque<Range<usize>>>,
    deques: &[Mutex<VecDeque<usize>>],
    f: &F,
    obs: Option<&PoolObs>,
) -> Vec<(usize, R)>
where
    F: Fn(usize, &T) -> R,
{
    let mut out = Vec::new();
    loop {
        // Own deque first (front: the oldest locally queued index).
        let next = deques[me].lock().pop_front();
        if let Some(i) = next {
            out.push((i, f(i, &items[i])));
            continue;
        }
        // Refill from the global injector.
        let range = {
            let mut inj = injector.lock();
            let range = inj.pop_front();
            if range.is_some() {
                if let Some(obs) = obs {
                    obs.queue_depth.set(inj.len() as i64);
                }
            }
            range
        };
        if let Some(range) = range {
            deques[me].lock().extend(range);
            continue;
        }
        // Steal the back half of the fullest victim's deque.
        let mut stolen: VecDeque<usize> = VecDeque::new();
        for offset in 1..deques.len() {
            let victim = (me + offset) % deques.len();
            let mut v = deques[victim].lock();
            let take = v.len().div_ceil(2);
            if take > 0 {
                let keep = v.len() - take;
                stolen = v.split_off(keep);
                break;
            }
        }
        if stolen.is_empty() {
            // Injector drained and every visible deque empty: whatever
            // remains is held by workers that will finish it themselves.
            break;
        }
        if let Some(obs) = obs {
            obs.steals.inc();
        }
        let mut own = deques[me].lock();
        *own = stolen;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_for_every_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 16] {
            let pool = Pool::new(workers);
            assert_eq!(
                pool.par_map(&items, |&x| x * 3 + 1),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn indexed_map_sees_input_indices() {
        let items: Vec<u64> = (0..500).map(|x| x * 10).collect();
        for workers in [1, 4, 8] {
            let pool = Pool::new(workers);
            let out = pool.par_map_indexed(&items, |i, &x| (i, x));
            let expected: Vec<(usize, u64)> =
                items.iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let pool = Pool::new(1);
        let ids = pool.par_map(&[0u8; 4], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "no threads spawned");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn skewed_work_triggers_steals() {
        // The first chunk's tasks are ~1000x heavier: without stealing
        // the other workers would idle while worker 0 grinds.
        let registry = Registry::new();
        let pool = Pool::with_metrics(4, &registry);
        let items: Vec<u64> = (0..256).collect();
        let heavy = AtomicUsize::new(0);
        let out = pool.par_map(&items, |&x| {
            if x < 8 {
                // A deterministic spin standing in for a slow OCR frame.
                let mut acc = 0u64;
                for i in 0..2_000_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(i ^ x);
                }
                heavy.fetch_add(1, Ordering::Relaxed);
                acc | 1
            } else {
                x
            }
        });
        assert_eq!(out.len(), 256);
        assert_eq!(heavy.load(Ordering::Relaxed), 8);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.tasks"), Some(256));
        assert!(
            snap.counter("pool.steals").unwrap() > 0,
            "imbalanced load must be rebalanced by stealing"
        );
    }

    #[test]
    fn queue_depth_watermark_reflects_backlog() {
        let registry = Registry::new();
        let pool = Pool::with_metrics(2, &registry);
        let items: Vec<u32> = (0..640).collect();
        let _ = pool.par_map(&items, |&x| x);
        let snap = registry.snapshot();
        let depth = snap.gauges.iter().find(|g| g.name == "pool.queue_depth");
        let depth = depth.expect("gauge registered");
        assert_eq!(depth.value, 0, "injector fully drained");
        assert!(depth.high_watermark > 0, "backlog was observed");
    }

    #[test]
    fn panics_propagate() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        }));
        assert!(result.is_err(), "worker panic reaches the caller");
    }

    #[test]
    fn results_identical_under_repeated_runs() {
        // Stealing makes the schedule nondeterministic; the merge must
        // hide that completely.
        let pool = Pool::new(8);
        let items: Vec<u64> = (0..2048).collect();
        let reference = pool.par_map(&items, |&x| x.wrapping_mul(0x9e3779b9));
        for _ in 0..5 {
            assert_eq!(
                pool.par_map(&items, |&x| x.wrapping_mul(0x9e3779b9)),
                reference
            );
        }
    }
}
