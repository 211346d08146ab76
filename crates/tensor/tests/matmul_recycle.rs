//! A matmul that fans out recycles like one that runs inline: its packed
//! RHS panels, its chunk buffers and the stitched output all come back to
//! the calling thread's pool (DESIGN.md §9). Its own test binary, because
//! the thresholds and the worker count it sets are process-global.

use gtv_tensor::{dispatch, pool, pool_mem, Tensor};

#[test]
fn a_repeated_parallel_matmul_takes_every_buffer_from_the_pool() {
    dispatch::set_par_mins(1_024, 1_024, 8_192);
    pool::set_threads(2);
    // Three row blocks of dense rows, more than one panel wide: the RHS is
    // packed, and the blocks are split between two workers.
    let a = Tensor::from_fn(96, 64, |r, c| ((r * 64 + c) % 17) as f32 * 0.25 + 0.5);
    let b = Tensor::from_fn(64, 48, |r, c| ((r * 48 + c) % 13) as f32 * 0.125 - 0.75);

    let before = pool::dispatch_count();
    a.matmul(&b).recycle();
    assert!(pool::dispatch_count() > before, "the product must fan out");
    let misses = pool_mem::stats().misses;
    for _ in 0..3 {
        a.matmul(&b).recycle();
    }
    assert_eq!(
        pool_mem::stats().misses,
        misses,
        "after a warm-up call every buffer the calling thread takes must be a parked one"
    );

    dispatch::reset_par_mins();
    pool::set_threads(1);
}
