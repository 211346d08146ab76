//! Satellite regression for the size-keyed dispatch layer (DESIGN.md §8):
//! with many workers configured, work below the parallel thresholds must
//! run inline on the calling thread — the worker pool is never touched.
//! This pins the fix for the negative thread-scaling a since-deleted sweep
//! binary measured (a 1M-element sum at 0.56× with 2 threads; DESIGN.md
//! §8): fan-out cost on sub-threshold shapes used to *lose* time to the
//! dispatch itself.
//!
//! The observable is [`pool::dispatch_count`], which counts only real
//! multi-chunk worker fan-outs. One test function, deliberately: the
//! counter and the thresholds are process-global, and this file being its
//! own test binary guarantees the production thresholds are in force for
//! the first phase.

use gtv_tensor::{dispatch, pool, Tensor, UnaryOp};

#[test]
fn sub_threshold_work_never_reaches_the_worker_pool() {
    pool::set_threads(8);

    // Phase 1 — production thresholds. Typical training-step shapes for
    // this codebase (hundreds-of-rows minibatches) sit far below the
    // elementwise/reduction minimums (4Mi elements) and the matmul minimum
    // (256Ki MACs): all of it must stay inline even with 8 workers.
    let a = Tensor::from_fn(96, 96, |r, c| (r as f32) * 0.25 - (c as f32) * 0.5);
    let b = Tensor::from_fn(96, 96, |r, c| (c as f32) * 0.125 - (r as f32) * 0.75);
    let x = Tensor::from_fn(48, 40, |r, c| (r as f32) * 0.1 + (c as f32) * 0.01);
    let w = Tensor::from_fn(40, 36, |r, c| (r as f32) * 0.02 - (c as f32) * 0.05);
    let before = pool::dispatch_count();
    let _ = a.apply(UnaryOp::Tanh);
    let _ = a.apply(UnaryOp::Sigmoid);
    let _ = a.sum_all();
    let _ = a.sum_rows();
    let _ = a.sum_cols();
    let _ = x.matmul(&w); // 48·40·36 = 69_120 MACs < 256Ki.
    assert_eq!(
        pool::dispatch_count(),
        before,
        "sub-threshold elementwise/reduction work must run inline"
    );

    // Phase 2 — lowered thresholds: the very same shapes must now fan out,
    // proving the counter actually observes pool crossings (the phase-1
    // assertion is meaningless if dispatches are invisible).
    dispatch::set_par_mins(1_024, 1_024, 8_192);
    let before = pool::dispatch_count();
    let _ = a.apply(UnaryOp::Tanh);
    assert!(pool::dispatch_count() > before, "supra-threshold unary must cross the pool");
    let before = pool::dispatch_count();
    let _ = a.sum_all();
    assert!(pool::dispatch_count() > before, "supra-threshold reduction must cross the pool");
    let before = pool::dispatch_count();
    let _ = a.matmul(&b);
    assert!(pool::dispatch_count() > before, "supra-threshold matmul must cross the pool");

    dispatch::reset_par_mins();
    pool::set_threads(1);
}
