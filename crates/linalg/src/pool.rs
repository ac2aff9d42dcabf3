//! A real, hermetic worker pool for the compute kernels.
//!
//! Every "parallel" kernel in this crate used to route through the vendored
//! `rayon` stand-in, which executes sequentially — parallel numbers were a
//! fiction. This module replaces it with an actual pool of OS threads built
//! on `std` alone: workers are spawned **once** and reused across solves
//! (a PageRank solve calls the SpMV kernel thousands of times; per-call
//! thread spawning would dominate), and work is handed to them as borrowed
//! closures with a completion latch, so no per-call allocation of the
//! user's data is needed.
//!
//! # Determinism contract
//!
//! Every kernel built on this pool partitions its work into **fixed-size
//! chunks whose boundaries do not depend on the worker count**, and
//! combines per-chunk results in chunk order on the calling thread.
//! Floating-point addition is not associative, so this is what makes the
//! results *bit-identical* across `Pool::sequential()`,
//! `Pool::with_workers(2)`, `Pool::with_workers(8)`, … — only the chunk
//! schedule varies, never the arithmetic. The whole repository's
//! reproducibility story (the simulator's replay guarantee, the
//! `threaded` module's bit-deterministic runs) extends through these
//! kernels unchanged.
//!
//! # Safety model
//!
//! [`WorkerPool::broadcast`] sends a type-erased pointer to a caller-owned
//! `Fn(usize) + Sync` closure to every worker and then blocks on a latch
//! until all workers have finished running it. The borrow therefore
//! strictly outlives every use, which is the same argument that makes
//! `std::thread::scope` sound — the scope here is the `broadcast` call
//! itself. Worker panics are caught, recorded on the latch, and re-raised
//! on the calling thread so a poisoned computation cannot be mistaken for
//! a finished one.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Countdown latch: `broadcast` waits until every worker checked in. The
/// first worker panic's payload is kept and re-raised on the calling
/// thread, so a caller sees the *original* panic message (an engine
/// running heterogeneous per-node tasks surfaces "node 7's solve failed",
/// not a generic pool assertion).
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self { remaining: Mutex::new(n), all_done: Condvar::new(), panic_payload: Mutex::new(None) }
    }

    fn count_down(&self, panicked: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panicked {
            let mut slot = self.panic_payload.lock().unwrap();
            // Keep the first payload; later panics of the same broadcast
            // are duplicates of the same failed fan-out.
            slot.get_or_insert(payload);
        }
        let mut rem = self.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            self.all_done.notify_all();
        }
    }

    /// Blocks until all workers counted down; returns the first panic
    /// payload, if any worker panicked.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut rem = self.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.all_done.wait(rem).unwrap();
        }
        drop(rem);
        self.panic_payload.lock().unwrap().take()
    }
}

/// One broadcast unit: a type-erased `&F where F: Fn(usize) + Sync`.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    latch: Arc<Latch>,
}

// SAFETY: `data` points at a closure that `broadcast` proved `Sync`, and
// `broadcast` blocks on the latch until every worker is done with it, so
// the pointee outlives all uses on the worker threads.
unsafe impl Send for Job {}

enum Msg {
    Run(Job),
    Exit,
}

/// A fixed set of long-lived worker threads. Create once, reuse across
/// solves; dropped pools shut their workers down cleanly.
pub struct WorkerPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes broadcasts: one fan-out owns the workers at a time.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least 1).
    fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("dpr-pool-{idx}"))
                .spawn(move || {
                    while let Ok(Msg::Run(job)) = rx.recv() {
                        // SAFETY: upheld by the `Job` contract above.
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, idx) }));
                        job.latch.count_down(outcome.err());
                    }
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Self { senders, handles, submit: Mutex::new(()) }
    }

    /// Number of worker threads.
    fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Runs `f(worker_index)` on every worker concurrently and blocks until
    /// all invocations return.
    ///
    /// # Panics
    /// Re-raises the first worker panic with its **original payload**, so a
    /// heterogeneous batch (different task per worker) reports which task
    /// actually failed rather than a generic pool assertion.
    fn broadcast<F: Fn(usize) + Sync>(&self, f: &F) {
        unsafe fn call_erased<F: Fn(usize)>(data: *const (), idx: usize) {
            // SAFETY: `data` was produced from `&F` below and is still live
            // (broadcast blocks on the latch before returning).
            unsafe { (*data.cast::<F>())(idx) }
        }
        // Tolerate poison: a previous broadcast that propagated a worker
        // panic poisons this mutex while the pool itself is still healthy.
        let _serial = self.submit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let latch = Arc::new(Latch::new(self.senders.len()));
        for tx in &self.senders {
            let job = Job {
                data: std::ptr::from_ref(f).cast(),
                call: call_erased::<F>,
                latch: Arc::clone(&latch),
            };
            tx.send(Msg::Run(job)).expect("pool worker alive");
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cheap, cloneable handle to a worker pool — or to no pool at all.
///
/// `Pool::sequential()` is the zero-cost degenerate case: every kernel runs
/// inline on the calling thread (but still over the same fixed chunk
/// boundaries, so results match the pooled path bit for bit). Solvers store
/// a `Pool` where they used to carry a dead `parallel: bool`.
#[derive(Clone, Default)]
pub struct Pool {
    inner: Option<Arc<WorkerPool>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers()).finish()
    }
}

impl Pool {
    /// No worker threads; kernels run inline.
    #[must_use]
    pub fn sequential() -> Self {
        Self { inner: None }
    }

    /// A pool with `workers` threads; `workers <= 1` degenerates to
    /// [`Pool::sequential`] (a one-worker pool would only add handoff
    /// latency over inline execution).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        if workers <= 1 {
            Self::sequential()
        } else {
            Self { inner: Some(Arc::new(WorkerPool::new(workers))) }
        }
    }

    /// The machine's usable hardware parallelism: `available_parallelism()`
    /// with a fallback of 1 when the host cannot report it. Benchmarks
    /// record this next to their timings: on a `host_threads() == 1`
    /// machine speedup is ≈ 1× *by construction* (every pool degenerates
    /// to sequential), so numbers taken there certify determinism, not
    /// scaling.
    #[must_use]
    pub fn host_threads() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The process-wide shared pool, clamped to [`Pool::host_threads`] and
    /// spawned lazily on first use. On a single-core host this is
    /// [`Pool::sequential`] — claiming parallelism there would be the very
    /// lie this module exists to remove.
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_workers(Pool::host_threads()))
    }

    /// Number of concurrent workers this handle provides (1 when
    /// sequential).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.as_ref().map_or(1, |p| p.workers())
    }

    /// Whether kernels handed this pool actually run on multiple threads.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f(worker_index)` once per worker (once, inline, when
    /// sequential), returning after all invocations complete.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        match &self.inner {
            Some(p) => p.broadcast(&f),
            None => f(0),
        }
    }

    /// Executes `work(chunk_index)` for every `chunk_index in 0..n_chunks`,
    /// distributing chunks over the workers through a shared atomic queue.
    /// Chunks are claimed dynamically (load balancing), which is safe for
    /// determinism precisely because chunk *boundaries* are fixed by the
    /// caller — only the assignment of chunks to threads varies.
    pub fn for_each_chunk<F: Fn(usize) + Sync>(&self, n_chunks: usize, work: F) {
        match &self.inner {
            None => {
                for c in 0..n_chunks {
                    work(c);
                }
            }
            Some(p) => {
                let next = AtomicUsize::new(0);
                p.broadcast(&|_worker| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    work(c);
                });
            }
        }
    }
}

/// A `&mut [T]` that can be carved into disjoint sub-slices from multiple
/// worker threads. The caller promises disjointness; the type only carries
/// the pointer across the `Sync` boundary.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is only possible through `slice_mut`, whose contract
// requires callers to hand out disjoint ranges; `T: Send` makes moving the
// elements' ownership across threads sound.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for disjoint multi-threaded writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: std::marker::PhantomData }
    }

    /// Total length of the underlying slice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrows `[start, start + len)` mutably.
    ///
    /// # Safety
    /// Concurrent calls must cover pairwise-disjoint ranges, and
    /// `start + len <= self.len()` must hold.
    #[must_use]
    // The `&self -> &mut` shape is this type's whole purpose: each worker
    // derives its own disjoint `&mut` view through a shared reference. The
    // safety contract above is what makes that sound.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        // SAFETY: in-bounds per the caller contract; disjointness makes the
        // aliasing sound.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::sequential();
        assert_eq!(pool.workers(), 1);
        assert!(!pool.is_parallel());
        let hits = AtomicUsize::new(0);
        pool.broadcast(|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn with_one_worker_is_sequential() {
        assert!(!Pool::with_workers(0).is_parallel());
        assert!(!Pool::with_workers(1).is_parallel());
        assert!(Pool::with_workers(2).is_parallel());
    }

    #[test]
    fn broadcast_reaches_every_worker() {
        let pool = Pool::with_workers(4);
        let seen = Mutex::new(vec![false; 4]);
        pool.broadcast(|i| {
            seen.lock().unwrap()[i] = true;
        });
        assert!(seen.into_inner().unwrap().iter().all(|&s| s));
    }

    #[test]
    fn for_each_chunk_covers_all_chunks_exactly_once() {
        let pool = Pool::with_workers(3);
        let n = 1000;
        let mut out = vec![0u8; n];
        let shared = SharedSlice::new(&mut out);
        pool.for_each_chunk(n, |c| {
            // SAFETY: chunk c touches only index c.
            unsafe { shared.slice_mut(c, 1)[0] += 1 };
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = Pool::with_workers(2);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|i| assert!(i != 0, "injected failure"));
        }));
        assert!(result.is_err());
        // The pool survives a panicked broadcast and keeps working.
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn worker_panic_keeps_its_original_payload() {
        let pool = Pool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|i| {
                if i == 1 {
                    panic!("solve failed on node 7");
                }
            });
        }));
        let payload = result.expect_err("broadcast must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload should be a string");
        assert_eq!(msg, "solve failed on node 7");
    }

    #[test]
    fn heterogeneous_chunk_panic_propagates_once_and_pool_survives() {
        // One chunk out of many panics mid-batch: the panic must surface
        // exactly once on the caller, the latch must not deadlock, and the
        // remaining chunks must still all have run (other workers drain the
        // queue) so the pool is reusable with no poisoned state.
        let pool = Pool::with_workers(3);
        let n = 64;
        let done = (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(n, |c| {
                if c == 17 {
                    panic!("chunk 17 is poisoned");
                }
                done[c].fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("chunk panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("chunk 17 is poisoned"));
        for (c, d) in done.iter().enumerate() {
            let hits = d.load(Ordering::Relaxed);
            if c == 17 {
                assert_eq!(hits, 0);
            } else {
                assert_eq!(hits, 1, "chunk {c} ran {hits} times");
            }
        }
        // No poisoned reuse: the same pool keeps serving fresh batches.
        let ok = AtomicUsize::new(0);
        pool.for_each_chunk(10, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global();
        let b = Pool::global();
        assert_eq!(a.workers(), b.workers());
    }
}
