//! The recycling pool's correctness contract: tensors built from recycled
//! storage are bit-identical to tensors built from fresh allocations, for
//! every tested `GTV_THREADS` value, even when the pool is pre-seeded with
//! NaN-filled garbage. Plus the step-scope mechanics of `Graph::reset`:
//! every node's storage is parked, leaves included, and repeated identical
//! steps stop allocating after the first.

use gtv_tensor::{pool, pool_mem, Graph, Tensor};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Parks NaN-filled buffers of assorted capacities so any kernel that read
/// stale recycled bytes would poison its output and fail the comparison.
fn dirty_pool() {
    for len in [7usize, 64, 576, 1296, 1440, 1600, 1728, 1920, 2048] {
        Tensor::full(1, len, f32::NAN).recycle();
    }
}

/// A mixed workload covering matmul (dense path), elementwise, reductions,
/// layout ops and a gradient, plus a second identical graph step after a
/// `Graph::reset` so the second step genuinely runs on recycled storage.
fn workload(a: &Tensor, b: &Tensor) -> Vec<u32> {
    let mut out = bits(&a.matmul(b));
    out.extend(bits(&a.apply(gtv_tensor::UnaryOp::Tanh)));
    out.extend(bits(&a.matmul_layout(a, gtv_tensor::Layout::TransB)));
    out.extend(bits(&a.matmul_layout(a, gtv_tensor::Layout::TransA)));
    out.extend(bits(&a.sum_rows()));
    out.extend(bits(&a.sum_cols()));
    out.extend(bits(&Tensor::concat_cols(&[a, a]).slice_cols(3, 7)));

    let step = || {
        let g = Graph::new();
        let x = g.leaf(a.clone());
        let w = g.leaf(b.clone());
        let h = g.tanh(g.matmul(x, w));
        let y = g.mean_all(g.mul(h, h));
        let grads = g.grad(y, &[x, w]);
        let mut step_bits = bits(&g.value(grads[0]));
        step_bits.extend(bits(&g.value(grads[1])));
        g.reset();
        step_bits
    };
    let first = step();
    let second = step();
    assert_eq!(first, second, "a reset graph must reproduce the step bit for bit");
    out.extend(first);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn recycled_storage_is_bit_identical_to_fresh(
        a in tensor_strategy(48, 40),
        b in tensor_strategy(40, 36)
    ) {
        // Reference: recycling off, single thread — every buffer is fresh.
        pool::set_threads(1);
        pool_mem::set_enabled(false);
        let reference = workload(&a, &b);

        pool_mem::set_enabled(true);
        for &threads in &THREAD_COUNTS {
            pool::set_threads(threads);
            dirty_pool();
            let got = workload(&a, &b);
            assert_eq!(reference, got, "recycled result diverged from fresh at {threads} threads");
        }
        pool::set_threads(1);
        pool_mem::clear();
    }
}

/// Shapes below every parallel-dispatch threshold run inline on the calling
/// thread no matter what another test sets the worker count to, which makes
/// the thread-local counters exact.
#[test]
fn graph_reset_parks_every_node_and_a_bound_clone_balances() {
    pool_mem::set_enabled(true);
    pool_mem::clear();
    pool_mem::reset_stats();

    let g = Graph::new();
    let a = g.leaf(Tensor::full(64, 1, 2.0));
    let c = g.add(a, a);
    let d = g.mul(c, a);
    assert_eq!(g.len(), 3);
    let released = g.reset();
    assert_eq!(released, 3, "reset reports every node it released");
    assert_eq!(g.len(), 0, "the arena must be empty after reset");

    // Three nodes of 64 f32s each, the leaf among them, were parked:
    // 3 × 64 × 4 bytes = 768. (64 elements is exactly the recycling floor —
    // anything smaller would bypass the pool.)
    assert_eq!(pool_mem::stats().bytes_held, 768, "every node is recycled");
    let _ = (c, d);

    // A caller's tensor bound by clone, as a parameter is: the clone takes
    // pooled storage and the reset gives it back, so the pool holds what it
    // held before the step.
    let param = Tensor::full(128, 1, 0.5);
    let held = pool_mem::stats().bytes_held;
    for _ in 0..3 {
        let g = Graph::new();
        let p = g.leaf(param.clone());
        let _ = g.mul_scalar(p, 2.0);
        g.reset();
    }
    let s = pool_mem::stats();
    assert_eq!(s.bytes_held, held + 2 * 128 * 4, "clone and product of the first step park");
    let misses = s.misses;
    let g = Graph::new();
    let _ = g.mul_scalar(g.leaf(param.clone()), 2.0);
    g.reset();
    assert_eq!(pool_mem::stats().misses, misses, "a warm step takes its clone from the pool");
    assert_eq!(pool_mem::stats().bytes_held, held + 2 * 128 * 4);
    pool_mem::clear();
}

#[test]
fn identical_steps_stop_allocating_after_the_first() {
    pool_mem::set_enabled(true);
    pool_mem::clear();
    pool_mem::reset_stats();

    // Shapes chosen so the hot intermediates (17×13 activations, 5×13
    // gradient) sit above the recycling floor; sub-floor scalars are
    // counted as `small`, not misses, and don't disturb the plateau.
    let x0 = Tensor::from_fn(17, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 2.0);
    let w0 = Tensor::from_fn(5, 13, |r, c| (r * 13 + c) as f32 * 0.05);
    let step = || {
        let g = Graph::new();
        let x = g.leaf(x0.clone());
        let w = g.leaf(w0.clone());
        let h = g.leaky_relu(g.matmul(x, w), 0.2);
        let y = g.mean_all(g.mul(h, h));
        let dw = g.grad(y, &[w])[0];
        let out = g.with_value(dw, |t| t.as_slice().to_vec());
        g.reset();
        out
    };

    let first = step();
    let after_first = pool_mem::stats();
    assert!(after_first.misses > 0, "a cold pool must allocate");

    let mut last_misses = after_first.misses;
    for round in 0..5 {
        let again = step();
        assert_eq!(first, again, "step must be reproducible (round {round})");
        let now = pool_mem::stats().misses;
        assert_eq!(
            now, last_misses,
            "a warm pool must serve every request from recycled storage (round {round})"
        );
        last_misses = now;
    }
    pool_mem::clear();
}

#[test]
fn disabled_recycling_counts_every_allocation() {
    pool_mem::set_enabled(false);
    pool_mem::reset_stats();
    let t = Tensor::zeros(9, 9);
    let u = t.add(&t);
    let s = pool_mem::stats();
    assert_eq!(s.hits, 0, "a disabled pool can never hit");
    assert!(s.misses >= 2, "both allocations must be counted: {s:?}");
    assert!(s.bytes_requested >= 2 * 81 * 4, "{s:?}");
    drop(u);
    pool_mem::set_enabled(true);
    pool_mem::clear();
}
