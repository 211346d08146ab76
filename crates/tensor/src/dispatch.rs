//! Size-keyed kernel dispatch thresholds (DESIGN.md §8).
//!
//! The two kernels that fan out to the worker pool — the matmul's row
//! blocks and the reductions' chunks — decide **inline vs. worker pool**
//! by comparing their problem size against one of the thresholds below.
//! Every other kernel runs inline. Two properties matter:
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
//! The defaults are deliberately high. The parallel path spawns and joins a
//! scoped thread per extra worker and stitches the chunk outputs; measured
//! on a two-vCPU host, a matmul has to reach about 4 Mi multiply-adds before
//! two workers beat one. Sub-threshold work therefore runs inline even when
//! `GTV_THREADS > 1` — this is what fixed the two-thread slowdown of a
//! 1M-element sum (DESIGN.md §8). `gtvbench`'s `tensor.matmul_2t_speedup`
//! is where a threshold change shows today.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default minimum element count before a reduction (sum, sum of squares,
/// column sums) is dispatched to the worker pool (4 Mi elements).
pub const REDUCE_PAR_MIN: usize = 1 << 22;
/// Default minimum multiply-accumulate count (`n·k·m`) before a matmul is
/// dispatched to the worker pool (4 Mi multiply-adds, near the break-even
/// measured at two workers on two vCPUs; unmeasured at more workers).
pub const MATMUL_PAR_MIN: usize = 1 << 22;

static REDUCE: AtomicUsize = AtomicUsize::new(REDUCE_PAR_MIN);
static MATMUL: AtomicUsize = AtomicUsize::new(MATMUL_PAR_MIN);

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
pub fn set_par_mins(reduce: usize, matmul: usize) {
    REDUCE.store(reduce, Ordering::Relaxed);
    MATMUL.store(matmul, Ordering::Relaxed);
}

/// Restores the default thresholds after a [`set_par_mins`] override.
#[doc(hidden)]
pub fn reset_par_mins() {
    set_par_mins(REDUCE_PAR_MIN, MATMUL_PAR_MIN);
}
