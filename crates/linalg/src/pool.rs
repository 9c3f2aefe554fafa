//! Deterministic fork/join over scoped std threads — the thread half of
//! the compute plane (the kernel half is [`crate::kernel`]).
//!
//! Training code never spawns threads directly; it asks
//! [`ComputePool::current`] for a pool and hands it an **indexed task
//! set**: `pool.map(n, f)` evaluates `f(0), f(1), …, f(n-1)` and
//! returns the results **in index order**, regardless of how many
//! worker threads ran them or how they interleaved. Tasks must be pure
//! functions of their index (plus shared `&` state); under that
//! contract the output of `map` is *identical for every thread count*,
//! which is what lets N-thread training produce bit-identical models
//! to 1-thread training — callers do any floating-point reduction
//! themselves, folding the returned `Vec` left-to-right (a fixed-order
//! tree), never in completion order.
//!
//! Thread-count resolution mirrors the kernel dispatcher: a
//! programmatic [`set_training_threads`] (the only thread-count knob;
//! no serving config sets it) wins over the
//! `QUERC_THREADS` environment variable, which wins over
//! `std::thread::available_parallelism`. Workers are **scoped**
//! (`std::thread::scope`) and live only for one `map` call: no global
//! executor, no channels, nothing outlives the borrow of the caller's
//! data. For the corpus sizes the learners see, spawn cost (~10 µs per
//! worker) is noise next to a fit; a persistent pool would buy nothing
//! but shutdown hazards.
//!
//! Sizing guidance: training threads default to every available core,
//! which is right for offline fits. A serving process that refits in
//! the background while answering queries should cap the pool at one
//! or two threads (`set_training_threads(Some(2))`) so the fit cannot
//! starve the shard workers; the result is bit-identical either way,
//! only slower.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// 0 = unset (fall through to `QUERC_THREADS` / detected cores).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("QUERC_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
        Err(_) => None,
    })
}

fn detected_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Force (or clear, with `None`) the process-wide training thread
/// count, overriding both `QUERC_THREADS` and core detection. Returns
/// the now-effective count. Safe to call at any time: pools are sized
/// when created, and results never depend on the count.
pub fn set_training_threads(threads: Option<usize>) -> usize {
    OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
    training_threads()
}

/// The effective training thread count: programmatic override >
/// `QUERC_THREADS` > `available_parallelism` (≥ 1 always).
pub fn training_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads().unwrap_or_else(detected_threads).max(1),
        n => n,
    }
}

/// A fork/join scope over `threads` workers executing indexed task
/// sets deterministically. Cheap to construct (two words); holds no
/// threads between calls.
#[derive(Debug, Clone, Copy)]
pub struct ComputePool {
    threads: usize,
}

impl ComputePool {
    /// Pool sized by [`training_threads`] — the one training code uses.
    pub fn current() -> ComputePool {
        ComputePool::with_threads(training_threads())
    }

    /// Pool with an explicit worker count (≥ 1 enforced); for tests
    /// and benchmarks that pin the count regardless of globals.
    pub fn with_threads(threads: usize) -> ComputePool {
        ComputePool {
            threads: threads.max(1),
        }
    }

    /// Worker-thread count this pool runs `map` with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `f(0) … f(n_tasks - 1)` and return the results in
    /// index order.
    ///
    /// Tasks are claimed from a shared atomic counter, so an expensive
    /// task does not straggle behind a static partition; each worker
    /// buffers `(index, result)` pairs locally and the buffers are
    /// merged by index after the scope joins. Because placement is by
    /// task index, the returned `Vec` is identical no matter which
    /// worker ran what — determinism needs only that `f` itself is a
    /// pure function of its index. Runs inline (no threads spawned)
    /// when the pool has one worker or there is at most one task. A
    /// panic in any task propagates to the caller after the scope
    /// joins.
    pub fn map<R, F>(&self, n_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n_tasks <= 1 {
            return (0..n_tasks).map(f).collect();
        }
        let workers = self.threads.min(n_tasks);
        let next = AtomicUsize::new(0);
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // Re-raise task panics on the caller's thread.
                parts.push(h.join().unwrap());
            }
        });
        let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order_for_every_thread_count() {
        for threads in [1, 2, 4, 7] {
            let pool = ComputePool::with_threads(threads);
            let got = pool.map(23, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_task_sets() {
        let pool = ComputePool::with_threads(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn float_fold_is_thread_count_invariant() {
        // The contract the learners rely on: map + fixed-order fold is
        // bit-identical across thread counts.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sin() / 7.0).collect();
        let chunk = 64;
        let n_chunks = data.len().div_ceil(chunk);
        let sum_with = |threads: usize| -> f32 {
            let parts = ComputePool::with_threads(threads).map(n_chunks, |c| {
                let lo = c * chunk;
                let hi = (lo + chunk).min(data.len());
                data[lo..hi].iter().fold(0.0f32, |a, &x| a + x)
            });
            parts.into_iter().fold(0.0f32, |a, x| a + x)
        };
        let want = sum_with(1).to_bits();
        for threads in [2, 3, 4, 8] {
            assert_eq!(sum_with(threads).to_bits(), want, "threads={threads}");
        }
    }

    #[test]
    fn with_threads_clamps_to_one_and_reports() {
        assert_eq!(ComputePool::with_threads(0).threads(), 1);
        assert_eq!(ComputePool::with_threads(3).threads(), 3);
        assert!(training_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn task_panics_propagate() {
        ComputePool::with_threads(2).map(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
