//! Chunk-parallel helpers over the persistent [`crate::pool`].
//!
//! Rewritten from the original `std::thread::scope` fork-join helpers,
//! these cover the two access patterns [`ExecCtx::run_chunks`] alone
//! does not: disjoint output chunks ([`map_rows_into`], which holds the
//! `unsafe` slicing) and ordered partial reductions ([`reduce_chunks`]).
//! Both schedule on the work-stealing pool named by an [`ExecCtx`]
//! instead of spawning OS threads per call.
//!
//! Determinism contract (relied on by the `threads_do_not_change_result`
//! tests): [`map_rows_into`] requires per-row work that is independent
//! of the chunk split, and [`reduce_chunks`] fixes its chunk geometry
//! from the *item count alone* — never the thread budget — and returns
//! partials in ascending chunk order, so merged results are bitwise
//! identical for any `ExecCtx` thread count, including 1.

use crate::exec::ExecCtx;

/// Wraps a raw pointer so chunk closures can reconstruct disjoint
/// subslices of one output buffer from worker threads.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field reads) so closures capture the
    /// whole `Send + Sync` wrapper, not the bare `*mut T` field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced for disjoint `[start, end)`
// ranges handed out by the chunk scheduler, and the buffer outlives the
// region (the scheduler blocks until every chunk completes).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper only hand out the raw pointer;
// dereferences stay confined to the disjoint ranges described for `Send`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps the rows of a row-major buffer in parallel chunks: chunks are
/// aligned to multiples of `row_len`, and at least `min_rows` rows wide,
/// so `f` always sees whole rows. `f(first_row, rows)` fills the rows
/// starting at index `first_row`; each chunk owns a disjoint slice of
/// `out`. A serial context calls `f(0, out)` on the caller's thread.
///
/// Used by the blocked matrix kernels to parallelize over row panels,
/// and with `row_len = 1` wherever each element is its own row.
pub fn map_rows_into<T, F>(exec: &ExecCtx, out: &mut [T], row_len: usize, min_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert_eq!(out.len() % row_len.max(1), 0, "buffer not row-aligned");
    let rows = out.len() / row_len.max(1);
    if exec.threads() == 1 {
        f(0, out);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    exec.run_chunks(rows, min_rows.max(1), move |start, end| {
        // SAFETY: row ranges are disjoint and within `out`, and
        // `run_chunks` returns only after every chunk completed, so the
        // borrow of `out` is still live for the whole region.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(start * row_len), (end - start) * row_len)
        };
        f(start, chunk);
    });
}

/// Folds `0..n` into per-chunk partial accumulators and returns them in
/// ascending chunk order.
///
/// The chunk geometry is `ceil(n / chunk)` fixed-size chunks — a pure
/// function of `n` and `chunk`, independent of `exec`'s thread budget —
/// so merging the returned partials in order yields bitwise-identical
/// results for any thread count. This is the building block for the
/// parallel centroid-update steps: each chunk accumulates into its own
/// `init()` state, and the caller merges serially.
pub fn reduce_chunks<T, I, F>(exec: &ExecCtx, n: usize, chunk: usize, init: I, fold: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, usize, usize) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let mut partials: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    map_rows_into(exec, &mut partials, 1, 1, |first, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            let ci = first + off;
            let start = ci * chunk;
            let end = (start + chunk).min(n);
            let mut acc = init();
            fold(&mut acc, start, end);
            *slot = Some(acc);
        }
    });
    partials
        .into_iter()
        .map(|slot| slot.expect("every chunk filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rows_chunks_are_row_aligned() {
        for (row_len, len) in [(1usize, 23usize), (5, 30)] {
            for threads in [1, 2, 4, 9] {
                let exec = ExecCtx::threaded(threads);
                let mut out = vec![0usize; len];
                map_rows_into(&exec, &mut out, row_len, 1, |first_row, rows| {
                    assert_eq!(rows.len() % row_len, 0, "chunk not row-aligned");
                    for (i, v) in rows.iter_mut().enumerate() {
                        *v = first_row * row_len + i;
                    }
                });
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(out, expect, "row_len={row_len} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_buffer_is_noop() {
        let exec = ExecCtx::threaded(4);
        let mut out: Vec<usize> = vec![];
        map_rows_into(&exec, &mut out, 4, 1, |_, _| panic!("should not be called"));
    }

    #[test]
    fn reduce_chunks_partials_are_thread_invariant() {
        // Same fixed chunk geometry at every thread budget → identical
        // partials, hence identical merged sums.
        let n = 1003;
        let reference: Vec<u64> = reduce_chunks(
            &ExecCtx::serial(),
            n,
            64,
            || 0u64,
            |acc, s, e| {
                for i in s..e {
                    *acc += (i * i) as u64;
                }
            },
        );
        for threads in [2, 4, 8] {
            let partials: Vec<u64> = reduce_chunks(
                &ExecCtx::threaded(threads),
                n,
                64,
                || 0u64,
                |acc, s, e| {
                    for i in s..e {
                        *acc += (i * i) as u64;
                    }
                },
            );
            assert_eq!(partials, reference, "threads={threads}");
        }
        assert_eq!(reference.len(), n.div_ceil(64));
    }

    #[test]
    fn reduce_chunks_empty_input() {
        let partials: Vec<u64> =
            reduce_chunks(&ExecCtx::threaded(4), 0, 16, || 0u64, |_, _, _| panic!());
        assert!(partials.is_empty());
    }
}
