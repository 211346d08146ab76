//! Once warm, the tensor kernels — and the noise a generator step draws —
//! take every buffer the recycling pool would recycle from the pool
//! (DESIGN.md §9).
//!
//! A counting global allocator wraps the system one and records, on the
//! calling thread only, every allocation (or growing reallocation) of at
//! least [`FLOOR`] bytes: `pool_mem`'s recycling floor, below which the pool
//! itself allocates fresh. Each case drives one kernel through the public
//! `Tensor`/`Graph` API at the shapes of a paper-scale training step (batch
//! 500, width 256), with one worker so every chunk runs on this thread: a
//! warm-up call whose output goes back to the pool, then a counted call that
//! must make no such allocation.
#![cfg(test)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use gtv_nn::{head_activations, Ctx, Dropout};
use gtv_tensor::{
    pool, BnStats, BnTail, FusedAct, Graph, HeadSpan, Layout, SpanAct, Tensor, UnaryOp, Var,
};
use rand::SeedableRng;

/// `pool_mem`'s recycling floor, in bytes.
const FLOOR: usize = 256;
/// Rows of a training batch.
const BATCH: usize = 500;
/// Width of a hidden block.
const WIDTH: usize = 256;
/// Width of a generator residual block's batch-norm tail.
const TAIL_WIDTH: usize = 128;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Counted allocations so far: how many, and the largest.
    static SEEN: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    if size >= FLOOR && COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = SEEN.try_with(|s| {
            let (count, largest) = s.get();
            s.set((count + 1, largest.max(size)));
        });
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with its arguments unchanged;
// counting only touches const-initialised thread-locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its value with the number and the largest size of
/// the allocations of at least [`FLOOR`] bytes it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    SEEN.with(|s| s.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let (count, largest) = SEEN.with(Cell::get);
    (out, count, largest)
}

/// Collects the cases that allocated, so one run names all of them.
#[derive(Default)]
struct Report(Vec<String>);

impl Report {
    /// `case` once to warm the pool, its output given back, then counted.
    fn check(&mut self, name: &str, case: impl Fn() -> Tensor) {
        pool::set_threads(1);
        case().recycle();
        let (out, count, largest) = counted(&case);
        out.recycle();
        self.record(name, count, largest);
    }

    /// `op` on a graph holding `inputs` as leaves: a warm-up pass,
    /// `Graph::reset` (which parks every node's storage), then a counted
    /// call of `op` alone on freshly bound leaves.
    fn check_graph(&mut self, name: &str, inputs: &[&Tensor], op: impl Fn(&Graph, &[Var]) -> Var) {
        pool::set_threads(1);
        let g = Graph::new();
        let bind = |g: &Graph| inputs.iter().map(|t| g.leaf((*t).clone())).collect::<Vec<_>>();
        let vars = bind(&g);
        op(&g, &vars);
        g.reset();
        let vars = bind(&g);
        let (_, count, largest) = counted(|| op(&g, &vars));
        g.reset();
        self.record(name, count, largest);
    }

    /// `op` with a step context over one graph that holds `input` as a
    /// leaf: the context is built before counting (its row seeds are a
    /// request's, not a kernel's), then a warm-up pass, `Graph::reset`, and
    /// a counted pass on a freshly bound leaf.
    fn check_ctx(
        &mut self,
        name: &str,
        input: &Tensor,
        ctx: impl for<'g> Fn(&'g Graph) -> Ctx<'g>,
        op: impl Fn(&Ctx<'_>, Var) -> Var,
    ) {
        pool::set_threads(1);
        let g = Graph::new();
        let ctx = ctx(&g);
        op(&ctx, g.leaf(input.clone()));
        g.reset();
        let x = g.leaf(input.clone());
        let (_, count, largest) = counted(|| op(&ctx, x));
        g.reset();
        self.record(name, count, largest);
    }

    fn record(&mut self, name: &str, count: usize, largest: usize) {
        if count > 0 {
            self.0.push(format!(
                "{name}: {count} allocation(s) of at least {FLOOR} B, the largest {largest} B"
            ));
        }
    }

    fn assert_clean(self) {
        assert!(
            self.0.is_empty(),
            "warm kernels allocated outside the pool:\n{}",
            self.0.join("\n")
        );
    }
}

/// A batch of activations: no zeros to skip.
fn dense(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| ((r * 131 + c * 37) % 199) as f32 / 99.0 - 1.004)
}

/// One-hot-heavy rows, seven in eight entries zero, as an encoded table's
/// discrete blocks are.
fn one_hot(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| if (r + c) % 8 == 0 { 1.0 } else { 0.0 })
}

#[test]
fn matmul_in_every_layout_takes_its_buffers_from_the_pool() {
    let mut report = Report::default();
    let w = dense(WIDTH, WIDTH);
    let head = dense(WIDTH, 1);
    let dy = dense(BATCH, WIDTH);
    for (kind, x) in [("dense", dense(BATCH, WIDTH)), ("one-hot", one_hot(BATCH, WIDTH))] {
        report.check(&format!("plain, {kind} LHS"), || x.matmul(&w));
        report.check(&format!("plain into one column, {kind} LHS"), || x.matmul(&head));
        report
            .check(&format!("transposed RHS, {kind} LHS"), || x.matmul_layout(&w, Layout::TransB));
        // A weight gradient `xᵀ·dy`: one LHS row per input column.
        report.check(&format!("transposed LHS, {kind}"), || x.matmul_layout(&dy, Layout::TransA));
    }
    // A transposed LHS with one row per batch row.
    for (kind, a) in [("dense", dense(WIDTH, BATCH)), ("one-hot", one_hot(WIDTH, BATCH))] {
        report.check(&format!("transposed {kind} LHS, {BATCH} rows"), || {
            a.matmul_layout(&w, Layout::TransA)
        });
    }
    report.assert_clean();
}

#[test]
fn elementwise_ops_take_their_buffers_from_the_pool() {
    let mut report = Report::default();
    let x = dense(BATCH, WIDTH);
    let y = one_hot(BATCH, WIDTH).add_scalar(0.5);
    let row = dense(1, WIDTH);
    let col = dense(BATCH, 1);
    let one = Tensor::scalar(0.25);
    report.check("add", || x.add(&y));
    report.check("sub", || x.sub(&y));
    report.check("mul", || x.mul(&y));
    report.check("div", || x.div(&y));
    report.check("add a bias row", || x.add(&row));
    report.check("row minus a matrix", || row.sub(&x));
    report.check("divide by a column", || x.div(&col));
    report.check("column times a matrix", || col.mul(&x));
    report.check("times a 1x1", || x.mul(&one));
    let positive = y.clone();
    for op in [
        UnaryOp::Neg,
        UnaryOp::Exp,
        UnaryOp::Tanh,
        UnaryOp::Sigmoid,
        UnaryOp::Relu,
        UnaryOp::LeakyRelu(0.2),
        UnaryOp::MulScalar(1.5),
        UnaryOp::AddScalar(-0.5),
        UnaryOp::ReluMask,
        UnaryOp::LeakyReluMask(0.2),
        UnaryOp::TanhGrad,
        UnaryOp::SigmoidGrad,
    ] {
        report.check(&format!("{op:?}"), || x.apply(op));
    }
    for op in [UnaryOp::Ln, UnaryOp::Sqrt, UnaryOp::PowScalar(1.5)] {
        report.check(&format!("{op:?}"), || positive.apply(op));
    }
    report.assert_clean();
}

#[test]
fn reductions_and_copies_take_their_buffers_from_the_pool() {
    let mut report = Report::default();
    let x = dense(BATCH, WIDTH);
    let narrow = dense(BATCH, 8);
    let idx: Vec<usize> = (0..BATCH).map(|i| (i * 7) % BATCH).collect();
    report.check("sum", || x.sum_all());
    report.check("mean", || Tensor::scalar(x.mean_all()));
    report.check("Frobenius norm", || Tensor::scalar(x.frob_norm()));
    report.check("column sums", || x.sum_rows());
    report.check("column sums, 8 wide", || narrow.sum_rows());
    report.check("row sums", || x.sum_cols());
    let (row, col) = (dense(1, WIDTH), dense(BATCH, 1));
    report.check("broadcast a row", || row.broadcast_to(BATCH, WIDTH));
    report.check("broadcast a column", || col.broadcast_to(BATCH, WIDTH));
    report.check("concatenate columns", || Tensor::concat_cols(&[&x, &narrow]));
    report.check("concatenate rows", || Tensor::concat_rows(&[&x, &x]));
    report.check("slice columns", || x.slice_cols(8, 128));
    report.check("pad columns", || narrow.pad_cols(8, WIDTH));
    report.check("select rows", || x.select_rows(&idx));
    report.assert_clean();
}

#[test]
fn graph_kernels_take_their_buffers_from_the_pool() {
    let mut report = Report::default();
    let x = dense(BATCH, WIDTH);
    let w = dense(WIDTH, WIDTH);
    let b = dense(1, WIDTH);
    let idx: Vec<usize> = (0..BATCH).map(|i| (i * 7) % BATCH).collect();
    for act in [FusedAct::Relu, FusedAct::Tanh, FusedAct::Sigmoid, FusedAct::LeakyRelu(0.2)] {
        report.check_graph(&format!("affine {act:?}"), &[&x, &w, &b], |g, v| {
            g.affine_act(v[0], v[1], v[2], act)
        });
    }
    report.check_graph("row norms", &[&x], |g, v| g.row_norm_eps(v[0], 1e-12));
    // A generator residual block's tail at its paper-scale width: the
    // product, bias, γ, β and the block input it concatenates.
    let (product, row) = (dense(BATCH, TAIL_WIDTH), dense(1, TAIL_WIDTH));
    let tail_inputs = [&product, &row, &row, &row, &x];
    let tail = |v: &[Var]| BnTail {
        bias: Some(v[1]),
        gamma: v[2],
        beta: v[3],
        eps: 1e-5,
        relu: true,
        skip: Some(v[4]),
    };
    report.check_graph("batch-norm tail, training, forward and backward", &tail_inputs, |g, v| {
        let (out, _) = g.bn_tail(v[0], tail(v), BnStats::Batch);
        let loss = g.sum_all(out);
        g.grad(loss, &v[..4])[0]
    });
    let running = (dense(1, TAIL_WIDTH), dense(1, TAIL_WIDTH).add_scalar(2.0));
    report.check_graph("batch-norm tail, inference", &tail_inputs, |g, v| {
        g.bn_tail(v[0], tail(v), BnStats::Running(&running.0, &running.1)).0
    });
    report.check_graph("select rows", &[&x], |g, v| g.select_rows(v[0], &idx));
    report.check_graph("scatter rows", &[&x], |g, v| g.scatter_rows(v[0], &idx, 2 * BATCH));
    report.assert_clean();
}

#[test]
fn a_graph_rebuilt_after_a_reset_reuses_its_arena() {
    pool::set_threads(1);
    // Values of one element stay below the floor, so only the graph's own
    // storage can reach it: the node arena holds 200 nodes.
    let g = Graph::new();
    let x = Tensor::scalar(0.5);
    let build = || {
        let mut v = g.leaf(x.clone());
        for _ in 1..200 {
            v = g.add_scalar(v, 0.25);
        }
        v
    };
    build();
    g.reset();
    let (_, count, largest) = counted(build);
    assert_eq!(g.reset(), 200);
    let mut report = Report::default();
    report.record("200 nodes rebuilt after a reset", count, largest);
    report.assert_clean();
}

/// A paper-scale generator head, `WIDTH` columns: the `α` of eight
/// mixed columns and their ten-mode indicators, then categories of 3 to 17
/// levels, tiling the width in order.
fn head_spans() -> Vec<HeadSpan> {
    let mut parts: Vec<(usize, SpanAct)> =
        (0..8).flat_map(|_| [(1, SpanAct::Tanh), (10, SpanAct::GumbelSoftmax)]).collect();
    let mut used = 88;
    for level in (3..=17).cycle() {
        let width = level.min(WIDTH - used);
        parts.push((width, SpanAct::GumbelSoftmax));
        used += width;
        if used == WIDTH {
            break;
        }
    }
    let mut start = 0;
    parts
        .into_iter()
        .map(|(width, act)| {
            start += width;
            HeadSpan { start: start - width, width, act }
        })
        .collect()
}

#[test]
fn the_stochastic_layer_takes_its_buffers_from_the_pool() {
    let mut report = Report::default();
    let logits = dense(BATCH, WIDTH);
    let spans = head_spans();
    report.check_ctx(
        "output head, training, forward and backward",
        &logits,
        |g| Ctx::train(g, 7),
        |ctx, x| {
            let g = ctx.graph();
            let y = head_activations(ctx, x, &spans, 0.2);
            g.grad(g.sum_all(g.mul(y, y)), &[x])[0]
        },
    );
    let row_seeds: Vec<u64> = (0..BATCH as u64).map(|r| r * 0x9e37_79b9).collect();
    report.check_ctx(
        "output head, per-row substreams, forward",
        &logits,
        |g| Ctx::eval_rows(g, row_seeds.clone()),
        |ctx, x| head_activations(ctx, x, &spans, 0.2),
    );
    for p in [0.5, 0.3] {
        report.check_ctx(
            &format!("dropout mask, p = {p}"),
            &logits,
            |g| Ctx::train(g, 11),
            |ctx, x| Dropout::new(p).forward(ctx, x),
        );
    }
    #[expect(clippy::disallowed_methods, reason = "a literal test seed")]
    let rng = std::cell::RefCell::new(rand::rngs::StdRng::seed_from_u64(5));
    report.check("normal draws", || Tensor::randn(BATCH, WIDTH, &mut *rng.borrow_mut()));
    report.assert_clean();
}
