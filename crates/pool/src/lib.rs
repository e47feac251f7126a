//! Deterministic thread pool for the Tero pipeline.
//!
//! The paper's pipeline stages (§3 thumbnail extraction, §3.3 per-stream
//! cleaning, §5/§6 per-group analysis) are embarrassingly parallel: every
//! task reads shared immutable state and produces one independent result.
//! [`Pool::par_map`] exploits that shape while keeping the output
//! *byte-identical* to the sequential loop it replaces:
//!
//! * workers claim input indices one at a time from a shared atomic
//!   cursor — so the *execution* order is scheduling-dependent, and a
//!   slow task never holds back the indices behind it;
//! * every result is placed at its input index after the scope joins —
//!   so the *observed* order never is.
//!
//! The calling thread is worker 0: a fan-out over `W` workers spawns
//! `W − 1` scoped threads and the caller runs the same claim loop beside
//! them instead of sleeping in `join`.
//!
//! Determinism contract: for a pure `f`, `pool.par_map(items, f)` returns
//! exactly `items.iter().map(f).collect()` for every worker count,
//! including the degenerate `workers == 1` configuration, which runs the
//! loop inline on the caller's thread without spawning anything (the exact
//! legacy path). Nothing the pool reports depends on thread timing.
//!
//! The pool is built on `std::thread::scope` and one `AtomicUsize` — no
//! external dependencies, no unsafe code.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use tero_obs::{CounterHandle, Registry};

/// The number of workers a freshly built machine should use: one per
/// available hardware thread, falling back to 1 when the capacity cannot
/// be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A thread pool with deterministic, index-ordered results.
///
/// The pool itself is a lightweight description (worker count + metric
/// handle); OS threads only exist inside a [`Pool::par_map`] call, via a
/// scoped spawn, so borrowing closures need no `'static` bounds and a
/// dropped pool leaks nothing. (That is also why no worker is parked
/// between calls: a thread that outlives the call cannot be handed a
/// closure that borrows the caller's stack without `unsafe`.) A clone is
/// the same description reporting into the same metrics.
#[derive(Clone)]
pub struct Pool {
    workers: usize,
    /// `pool.tasks`: tasks executed (across all `par_map` calls).
    tasks: Option<CounterHandle>,
}

impl Pool {
    /// A pool running each `par_map` call on `workers` threads, the
    /// caller's among them. `workers == 0` is treated as 1. `workers == 1`
    /// never spawns: it is the exact sequential path.
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            tasks: None,
        }
    }

    /// A pool reporting `pool.*` metrics into `registry`.
    pub fn with_metrics(workers: usize, registry: &Registry) -> Self {
        let mut pool = Pool::new(workers);
        pool.tasks = Some(registry.counter("pool.tasks"));
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
    /// items run). A panic in `f` — on a spawned worker or in the
    /// caller's own share — propagates to the caller once every spawned
    /// worker has been joined.
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
        if let Some(tasks) = &self.tasks {
            tasks.add(n as u64);
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

        // The whole schedule: each worker claims the next unclaimed index
        // until the index space runs out. `Relaxed` is enough — the cursor
        // publishes no data (the items are shared before the scope opens
        // and every result travels back through its thread's join, or is
        // the caller's own).
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut part = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return part;
                }
                part.push((i, f(i, &items[i])));
            }
        };
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut place = |part: Vec<(usize, R)>| {
                for (i, r) in part {
                    slots[i] = Some(r);
                }
            };
            // The caller is worker 0. If its share panics, the scope joins
            // the helpers before the panic leaves it.
            place(work());
            for helper in helpers {
                match helper.join() {
                    Ok(part) => place(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index was claimed exactly once"))
            .collect()
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("instrumented", &self.tasks.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_slow_head_does_not_idle_the_other_workers() {
        // The first eight tasks are the slow ones (a slow OCR frame at the
        // head of a batch). Each waits at a two-party barrier, so the map
        // only returns if two workers are inside the head at once — a
        // schedule that hands the whole head to one worker never does.
        let registry = Registry::new();
        let pool = Pool::with_metrics(4, &registry);
        let items: Vec<u64> = (0..256).collect();
        let pair = std::sync::Barrier::new(2);
        let out = pool.par_map(&items, |&x| {
            if x < 8 {
                pair.wait();
            }
            (x, std::thread::current().id())
        });
        let head_threads: std::collections::HashSet<_> =
            out[..8].iter().map(|(_, id)| *id).collect();
        assert!(head_threads.len() > 1, "the head ran on one thread");
        let order: Vec<u64> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(order, items, "results come back in input order");
        assert_eq!(registry.snapshot().counter("pool.tasks"), Some(256));
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
    fn the_caller_takes_part_in_a_fan_out() {
        // Each of the first four tasks waits for three others, so the map
        // only returns if four threads are inside it at once — and only
        // three are spawned.
        let caller = std::thread::current().id();
        let pool = Pool::new(4);
        let all = std::sync::Barrier::new(4);
        let ids = pool.par_map(&(0..64).collect::<Vec<u32>>(), |&x| {
            if x < 4 {
                all.wait();
            }
            std::thread::current().id()
        });
        assert!(ids.contains(&caller), "the caller ran none of the tasks");
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 4, "one thread per worker, caller included");
    }

    #[test]
    fn a_panic_in_the_callers_share_propagates_after_the_helpers_finish() {
        // Same barrier: every thread holds exactly one of the four tasks
        // when the caller's panics, and the helpers' results are counted
        // only once they return.
        let caller = std::thread::current().id();
        let pool = Pool::new(4);
        let all = std::sync::Barrier::new(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(&[0u8; 4], |_| {
                all.wait();
                assert!(std::thread::current().id() != caller, "boom");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(result.is_err(), "the caller's own panic reaches the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 3, "helpers were joined");
    }

    #[test]
    fn results_identical_under_repeated_runs() {
        // The claim order is nondeterministic; the merge must hide that
        // completely.
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
