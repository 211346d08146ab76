//! Size-keyed kernel dispatch thresholds (DESIGN.md §8).
//!
//! Every kernel decides **inline vs. worker pool** by comparing its problem
//! size against one of the thresholds below. Two properties matter:
//!
//! * the comparison keys on the problem size *only* — never on the thread
//!   count, queue depth, or any other runtime state — so the decision is
//!   reproducible from the op's shape alone;
//! * the threshold picks *where* the chunks run, never how the buffer is
//!   cut: chunk boundaries come from the fixed block constants in
//!   `kernels.rs`, and the inline path executes the identical chunked
//!   computation. Results are therefore bit-identical whichever side of the
//!   threshold an op lands on — which is also why the test-only overrides
//!   below cannot break determinism.
//!
//! The defaults are deliberately high. The pool's parallel path must
//! snapshot its input into an `Arc` and move boxed closures through a
//! channel; measured on the CI host, that tax exceeds the entire inline
//! cost of a 1M-element elementwise op. Sub-threshold work therefore runs
//! inline even when `GTV_THREADS > 1` — this is what fixed the two-thread
//! slowdowns of a 1M-element tanh and sum (DESIGN.md §8). `gtvbench`'s
//! `tensor.matmul_2t_speedup` is where a threshold change shows today.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default minimum element count before an elementwise map is dispatched to
/// the worker pool (4 Mi elements).
pub const ELEM_PAR_MIN: usize = 1 << 22;
/// Default minimum element count before a reduction (sum, row/col sums,
/// row norms) is dispatched to the worker pool (4 Mi elements).
pub const REDUCE_PAR_MIN: usize = 1 << 22;
/// Default minimum multiply-accumulate count (`n·k·m`) before a matmul is
/// dispatched to the worker pool.
pub const MATMUL_PAR_MIN: usize = 1 << 18;

static ELEM: AtomicUsize = AtomicUsize::new(ELEM_PAR_MIN);
static REDUCE: AtomicUsize = AtomicUsize::new(REDUCE_PAR_MIN);
static MATMUL: AtomicUsize = AtomicUsize::new(MATMUL_PAR_MIN);

/// Elementwise maps with fewer elements than this run inline.
#[inline]
pub fn elem_par_min() -> usize {
    ELEM.load(Ordering::Relaxed)
}

/// Reductions over fewer elements than this run inline.
#[inline]
pub fn reduce_par_min() -> usize {
    REDUCE.load(Ordering::Relaxed)
}

/// Matmuls with fewer multiply-accumulates than this run inline.
#[inline]
pub fn matmul_par_min() -> usize {
    MATMUL.load(Ordering::Relaxed)
}

/// Test-only override of the dispatch thresholds, so determinism suites can
/// force small tensors across the worker pool. Safe with respect to the
/// §8 contract: thresholds select inline-vs-pool, never chunk boundaries.
#[doc(hidden)]
pub fn set_par_mins(elem: usize, reduce: usize, matmul: usize) {
    ELEM.store(elem, Ordering::Relaxed);
    REDUCE.store(reduce, Ordering::Relaxed);
    MATMUL.store(matmul, Ordering::Relaxed);
}

/// Restores the default thresholds after a [`set_par_mins`] override.
#[doc(hidden)]
pub fn reset_par_mins() {
    set_par_mins(ELEM_PAR_MIN, REDUCE_PAR_MIN, MATMUL_PAR_MIN);
}
