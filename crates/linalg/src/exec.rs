//! Execution context: thread budget, pool handle, kernel mode, and
//! pruning policy.
//!
//! [`ExecCtx`] is the one knob object that flows builder-style through
//! every hot path in the workspace (`KMeans`, `KrKMeans`, the deep
//! trainer, the federated protocols, and the bench harnesses). It
//! replaces the ad-hoc `threads: usize` fields the crates grew
//! independently: a context names *how many* threads to use, *which*
//! pool supplies them (the lazily-initialized process-global pool by
//! default, or an explicit [`ThreadPool`] shared across fits), which
//! [`KernelMode`] the blocked kernels in [`crate::Matrix`] run, and the
//! assignment [`PruneMode`]. It also carries the [`Scratch`] arena its
//! clones share.
//!
//! The default context is **serial** (`threads == 1`), so every API that
//! takes or embeds an `ExecCtx` behaves exactly like the single-threaded
//! seed code unless a caller opts in to parallelism.
//!
//! ```
//! use kr_linalg::{ExecCtx, Matrix};
//!
//! let a = Matrix::from_fn(64, 32, |i, j| (i + j) as f64);
//! let b = Matrix::from_fn(32, 48, |i, j| (i * j % 7) as f64);
//! let serial = a.matmul_with(&b, &ExecCtx::serial()).unwrap();
//! let parallel = a.matmul_with(&b, &ExecCtx::threaded(4)).unwrap();
//! assert_eq!(serial, parallel); // results are thread-invariant
//! ```

use crate::pool::{self, ThreadPool};
use std::sync::{Arc, Mutex, OnceLock};

/// Which kernel implementation the blocked matrix kernels run.
///
/// `Scalar` (the default) is the reference path: plain multiplies and
/// adds, bitwise identical to the seed implementation at any thread
/// count. `Simd` opts in to the runtime-dispatched lane
/// kernels in [`crate::simd`] — roughly one fused multiply-add per
/// element per cycle on AVX2/FMA hardware — which carry their *own*
/// determinism contract (bitwise across thread counts, runs, and
/// backends at the fixed 4-wide logical lane width) but are **not**
/// bitwise equal to `Scalar` results, because lane-parallel
/// accumulation reassociates floating-point sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Scalar reference kernels (the seed-compatible oracle).
    #[default]
    Scalar,
    /// Runtime-feature-detected lane kernels ([`crate::simd`]).
    Simd,
}

impl KernelMode {
    /// The process-default mode: `Simd` when the `KR_KERNEL` environment
    /// variable is set to `simd` (any case), `Scalar` otherwise. Read
    /// once and cached, so a context created early and one created late
    /// always agree. CI uses `KR_KERNEL=simd` to re-run the whole
    /// `exec_determinism` suite in `Simd` mode.
    pub fn from_env() -> Self {
        static MODE: OnceLock<KernelMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("KR_KERNEL") {
            Ok(v) if v.eq_ignore_ascii_case("simd") => KernelMode::Simd,
            _ => KernelMode::Scalar,
        })
    }
}

/// Assignment-pruning policy for the bounds-gated engine in `kr-core`.
///
/// Triangle-inequality pruning (one Hamerly-style lower bound per
/// point, adapted to a bitwise-equality contract) is a *performance*
/// knob: `On` produces labels, distances, centroids, and inertia
/// bitwise identical to `Off`, the exhaustive scan. `Off` stays as the
/// reference the equality contract is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Bounds-gated assignment.
    #[default]
    On,
    /// Exhaustive scans only — the reference path.
    Off,
}

impl PruneMode {
    /// The process-default mode, read once from the `KR_PRUNE`
    /// environment variable (`off` means `Off`; anything else —
    /// including unset — means `On`) and cached, mirroring
    /// [`KernelMode::from_env`]. CI uses `KR_PRUNE=off` to re-run the
    /// determinism suites on the exhaustive path.
    pub fn from_env() -> Self {
        static MODE: OnceLock<PruneMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("KR_PRUNE") {
            Ok(v) if v.eq_ignore_ascii_case("off") => PruneMode::Off,
            _ => PruneMode::On,
        })
    }
}

/// A pool of reusable scratch buffers shared by everything holding a
/// clone of one [`ExecCtx`].
///
/// Lloyd-style fits allocate the same per-iteration temporaries
/// (assignment buffers, centroid partials, panel packs) hundreds of
/// times per fit; the arena recycles them so steady-state iterations
/// perform O(1) allocator calls (the fig8 harness measures this with
/// the counting allocator). Buffers are keyed only by element type —
/// callers `take` one sized to their need and `put` it back when done.
/// Forgetting to `put` is never unsound; it just forfeits reuse.
///
/// The pool is behind an `Arc<Mutex<..>>`: clones of a context share
/// one arena, and concurrent worker chunks each pop distinct buffers.
/// Lock traffic is one uncontended lock per take/put, far off the hot
/// inner loops.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    inner: Arc<Mutex<ScratchPools>>,
}

#[derive(Debug, Default)]
struct ScratchPools {
    f64s: Vec<Vec<f64>>,
    usizes: Vec<Vec<usize>>,
}

impl Scratch {
    /// A zeroed `f64` buffer of exactly `len` elements, reusing a pooled
    /// allocation when one exists.
    pub fn take_f64(&self, len: usize) -> Vec<f64> {
        let mut buf = self.pop_f64();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// A `f64` buffer of exactly `len` elements whose contents are
    /// **unspecified** (whatever a previous user left, zero-extended).
    /// Only for callers that provably write every element before reading
    /// it — skipping the zeroing memset is the point.
    pub fn take_f64_uninit(&self, len: usize) -> Vec<f64> {
        let mut buf = self.pop_f64();
        buf.resize(len, 0.0);
        buf.truncate(len);
        buf
    }

    /// Returns a buffer taken with [`Scratch::take_f64`] or
    /// [`Scratch::take_f64_uninit`] to the pool.
    pub fn put_f64(&self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.inner
                .lock()
                .expect("scratch pool poisoned")
                .f64s
                .push(buf);
        }
    }

    /// A zeroed `usize` buffer of exactly `len` elements.
    pub fn take_usize(&self, len: usize) -> Vec<usize> {
        let mut buf = {
            let mut pools = self.inner.lock().expect("scratch pool poisoned");
            pools.usizes.pop().unwrap_or_default()
        };
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer taken with [`Scratch::take_usize`] to the pool.
    pub fn put_usize(&self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.inner
                .lock()
                .expect("scratch pool poisoned")
                .usizes
                .push(buf);
        }
    }

    fn pop_f64(&self) -> Vec<f64> {
        let mut pools = self.inner.lock().expect("scratch pool poisoned");
        pools.f64s.pop().unwrap_or_default()
    }
}

/// Which pool a context schedules on.
#[derive(Debug, Clone, Default)]
enum PoolHandle {
    /// The lazily-initialized process-global pool ([`pool::global`]).
    #[default]
    Global,
    /// An explicit pool, shared and reused across fits by the caller.
    Explicit(Arc<ThreadPool>),
}

/// Thread budget, pool handle, kernel mode, and pruning policy for the
/// parallel and blocked kernels. Cheap to clone; see the module docs.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    threads: usize,
    pool: PoolHandle,
    kernel: KernelMode,
    prune: PruneMode,
    scratch: Scratch,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecCtx {
    /// A serial context: every kernel runs on the calling thread.
    pub fn serial() -> Self {
        ExecCtx {
            threads: 1,
            pool: PoolHandle::Global,
            kernel: KernelMode::from_env(),
            prune: PruneMode::from_env(),
            scratch: Scratch::default(),
        }
    }

    /// A context targeting `threads`-way parallelism on the global pool.
    pub fn threaded(threads: usize) -> Self {
        Self::serial().with_threads(threads)
    }

    /// Sets the thread budget (clamped to at least 1; the submitting
    /// thread always participates, so `threads` counts it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Schedules on an explicit pool instead of the global one. The pool
    /// is reference-counted, so one pool can back any number of
    /// concurrent fits.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = PoolHandle::Explicit(pool);
        self
    }

    /// Selects the kernel implementation ([`KernelMode`]); the default
    /// comes from [`KernelMode::from_env`].
    pub fn with_kernel_mode(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selects the assignment-pruning policy ([`PruneMode`]); the
    /// default comes from [`PruneMode::from_env`]. Performance-only:
    /// every mode is bitwise identical to `Off`.
    pub fn with_prune_mode(mut self, prune: PruneMode) -> Self {
        self.prune = prune;
        self
    }

    /// The configured kernel mode.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// The configured assignment-pruning policy.
    pub fn prune_mode(&self) -> PruneMode {
        self.prune
    }

    /// The scratch-buffer arena shared by all clones of this context.
    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// The pool this context schedules on (resolving `Global` lazily).
    pub fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolHandle::Global => pool::global(),
            PoolHandle::Explicit(pool) => pool,
        }
    }

    /// Runs `f` over `[0, n)` in contiguous `[start, end)` chunks sized
    /// for the thread budget, but never smaller than `min_chunk` items
    /// (so tiny inputs stay serial). Serial contexts call `f(0, n)`
    /// directly.
    ///
    /// Per-index work must not depend on the chunk split; use
    /// [`crate::parallel::reduce_chunks`] when accumulation order
    /// matters.
    pub fn run_chunks(&self, n: usize, min_chunk: usize, f: impl Fn(usize, usize) + Sync) {
        if n == 0 {
            return;
        }
        let jobs = self.threads.min(n.div_ceil(min_chunk.max(1))).max(1);
        if jobs == 1 {
            f(0, n);
            return;
        }
        let chunk = n.div_ceil(jobs);
        self.pool().scope_chunks(n, chunk, &f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_context_runs_once() {
        let counter = AtomicUsize::new(0);
        ExecCtx::serial().run_chunks(100, 1, |s, e| {
            assert_eq!((s, e), (0, 100));
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn threaded_context_covers_range() {
        for threads in [1, 2, 3, 4, 7, 100] {
            let exec = ExecCtx::threaded(threads);
            for n in [0usize, 1, 5, 17, 64, 1000] {
                let counter = AtomicUsize::new(0);
                exec.run_chunks(n, 1, |s, e| {
                    counter.fetch_add(e - s, Ordering::SeqCst);
                });
                assert_eq!(counter.load(Ordering::SeqCst), n, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn min_chunk_keeps_small_inputs_serial() {
        let calls = AtomicUsize::new(0);
        ExecCtx::threaded(8).run_chunks(10, 64, |s, e| {
            assert_eq!((s, e), (0, 10));
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn explicit_pool_is_used_and_reused() {
        let pool = Arc::new(ThreadPool::new(2));
        let ctx = ExecCtx::threaded(3).with_pool(Arc::clone(&pool));
        for _ in 0..50 {
            let counter = AtomicUsize::new(0);
            ctx.run_chunks(128, 1, |s, e| {
                counter.fetch_add(e - s, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 128);
        }
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ExecCtx::threaded(0).threads(), 1);
    }

    #[test]
    fn kernel_mode_builder_overrides_default() {
        // Can't assert the *absolute* default here — it reads KR_KERNEL
        // once per process — but the builder override must always win,
        // and `threaded` must agree with `serial` (it delegates).
        assert_eq!(
            ExecCtx::serial().kernel_mode(),
            ExecCtx::threaded(4).kernel_mode()
        );
        let ctx = ExecCtx::serial().with_kernel_mode(KernelMode::Simd);
        assert_eq!(ctx.kernel_mode(), KernelMode::Simd);
        assert_eq!(
            ctx.clone()
                .with_kernel_mode(KernelMode::Scalar)
                .kernel_mode(),
            KernelMode::Scalar
        );
    }

    #[test]
    fn scratch_recycles_capacity_and_zeroes_takes() {
        let scratch = Scratch::default();
        let mut buf = scratch.take_f64(8);
        assert_eq!(buf, vec![0.0; 8]);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        scratch.put_f64(buf);
        // Same allocation comes back (recycled, not reallocated), and
        // `take_f64` re-zeroes it even though it was dirtied.
        let back = scratch.take_f64(8);
        assert_eq!(back.as_ptr(), ptr);
        assert!(back.capacity() >= cap);
        assert_eq!(back, vec![0.0; 8]);
        scratch.put_f64(back);

        let idx = scratch.take_usize(5);
        assert_eq!(idx, vec![0usize; 5]);
        scratch.put_usize(idx);
    }

    #[test]
    fn scratch_is_shared_across_ctx_clones() {
        let ctx = ExecCtx::serial();
        let clone = ctx.clone();
        let mut buf = clone.scratch().take_f64(16);
        buf[0] = 1.0;
        let ptr = buf.as_ptr();
        clone.scratch().put_f64(buf);
        // The original ctx sees the buffer the clone returned: one
        // arena per ctx family, which is what lets Lloyd iterations
        // recycle buffers through cloned contexts.
        let back = ctx.scratch().take_f64_uninit(16);
        assert_eq!(back.as_ptr(), ptr);
        ctx.scratch().put_f64(back);
    }

    #[test]
    fn scratch_put_skips_capacityless_buffers() {
        let scratch = Scratch::default();
        scratch.put_f64(Vec::new());
        scratch.put_usize(Vec::new());
        // Nothing useful was pooled; takes still work from empty pools.
        assert_eq!(scratch.take_f64(3), vec![0.0; 3]);
        assert_eq!(scratch.take_usize(3), vec![0usize; 3]);
    }
}
