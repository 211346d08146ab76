//! The worker pool's determinism contract, checked bit-for-bit: matmul,
//! elementwise kernels, reductions and gradients (including the WGAN-GP
//! double-backward shape) must produce identical bits for `GTV_THREADS`
//! ∈ {1, 2, 8}. The production dispatch thresholds would keep these small
//! proptest shapes inline, so every run lowers them (same values in every
//! test — the override is process-global) to force the multi-threaded runs
//! across the pool for real.

use gtv_tensor::{dispatch, pool, BinaryOp, Graph, Layout, Tensor, UnaryOp};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// Like [`tensor_strategy`] but ~70% exact zeros, steering matmul onto the
/// zero-skipping sparse kernel.
fn sparse_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec((-10.0f32..10.0, 0u8..10), rows * cols).prop_map(move |v| {
        let data = v.into_iter().map(|(x, keep)| if keep < 3 { x } else { 0.0 }).collect();
        Tensor::from_vec(rows, cols, data)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `compute` once per thread count and asserts every run returns the
/// same bits as the single-threaded reference. Dispatch thresholds are
/// lowered (never restored — this binary's tests all want the same values,
/// and they run concurrently) so these shapes reach the worker pool.
fn assert_bit_identical(compute: impl Fn() -> Vec<u32>) {
    dispatch::set_par_mins(1_024, 1_024, 8_192);
    let mut reference: Option<Vec<u32>> = None;
    for &threads in &THREAD_COUNTS {
        pool::set_threads(threads);
        let got = compute();
        match &reference {
            None => reference = Some(got),
            Some(expected) => {
                assert_eq!(expected, &got, "results diverged at {threads} threads");
            }
        }
    }
    pool::set_threads(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dense_matmul_is_bit_identical_across_thread_counts(
        a in tensor_strategy(48, 40),
        b in tensor_strategy(40, 36)
    ) {
        assert_bit_identical(|| bits(&a.matmul(&b)));
    }

    #[test]
    fn sparse_matmul_is_bit_identical_across_thread_counts(
        a in sparse_strategy(48, 40),
        b in tensor_strategy(40, 36)
    ) {
        assert_bit_identical(|| bits(&a.matmul(&b)));
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_across_thread_counts(
        a in tensor_strategy(96, 96),
        b in tensor_strategy(96, 96)
    ) {
        assert_bit_identical(|| {
            let mut out = bits(&a.apply(UnaryOp::Tanh));
            out.extend(bits(&a.apply(UnaryOp::LeakyRelu(0.2))));
            out.extend(bits(&a.zip_op(&b, BinaryOp::Mul)));
            out.extend(bits(&a.zip_op(&b, BinaryOp::Add)));
            out
        });
    }

    #[test]
    fn reductions_are_bit_identical_across_thread_counts(a in tensor_strategy(132, 130)) {
        assert_bit_identical(|| {
            let mut out = vec![a.sum_all().item().to_bits(), a.frob_norm().to_bits()];
            out.extend(bits(&a.sum_rows()));
            out.extend(bits(&a.sum_cols()));
            out
        });
    }

    #[test]
    fn gradients_are_bit_identical_across_thread_counts(
        x0 in tensor_strategy(64, 32),
        w0 in tensor_strategy(32, 16)
    ) {
        assert_bit_identical(|| {
            let g = Graph::new();
            let x = g.leaf(x0.clone());
            let w = g.leaf(w0.clone());
            let h = g.tanh(g.matmul(x, w));
            let y = g.mean_all(g.mul(h, h));
            let grads = g.grad(y, &[x, w]);
            let mut out = bits(&g.value(grads[0]));
            out.extend(bits(&g.value(grads[1])));
            out
        });
    }

    #[test]
    fn double_backward_is_bit_identical_across_thread_counts(
        x0 in tensor_strategy(64, 32),
        w0 in tensor_strategy(32, 16)
    ) {
        // The WGAN-GP shape: a norm of a first-order gradient,
        // differentiated again with respect to the weights — with the
        // forward product in each layout, so every layout's backward
        // products (and theirs) run.
        let transposed = |t: &Tensor| Tensor::from_fn(t.cols(), t.rows(), |r, c| t.at(c, r));
        for (layout, xs, ws) in [
            (Layout::Plain, x0.clone(), w0.clone()),
            (Layout::TransB, x0.clone(), transposed(&w0)),
            (Layout::TransA, transposed(&x0), w0.clone()),
        ] {
            assert_bit_identical(|| {
                let g = Graph::new();
                let x = g.leaf(xs.clone());
                let w = g.leaf(ws.clone());
                let act = g.tanh(g.matmul_layout(x, w, layout));
                let s = g.sum_all(act);
                let gx = g.grad(s, &[x])[0];
                let norm = g.l2_norm_rows(gx, 1e-12);
                let shifted = g.add_scalar(norm, -1.0);
                let pen = g.mean_all(g.mul(shifted, shifted));
                let dw = g.grad(pen, &[w])[0];
                bits(&g.value(dw))
            });
        }
    }
}
