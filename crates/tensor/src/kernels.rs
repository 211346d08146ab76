//! Blocked compute kernels behind [`crate::Tensor`]'s hot loops.
//!
//! Every kernel follows the determinism contract from DESIGN.md §8:
//!
//! * chunk boundaries are derived from the problem size only — never from
//!   the worker count — and the single-threaded path executes the *same*
//!   chunked computation inline;
//! * reductions combine chunk partials in a fixed pairwise tree, so the
//!   rounding of a sum depends on the data's length, not on scheduling;
//! * matmul accumulates every output element as one chain of fused
//!   multiply-adds in ascending contraction index — the naive triple loop's
//!   bits — so its tiling, blocking and data-dependent kernel selection
//!   (register-tiled vs. zero-skipping rows) are all unobservable;
//! * inline-vs-pool dispatch keys on the problem size alone, against the
//!   thresholds in [`crate::dispatch`], and both sides run the *same*
//!   chunked computation.
//!
//! Together these make results bit-identical for any `GTV_THREADS` value.
//!
//! The inner loops live in [`crate::simd`]: f32x8 lane kernels for the
//! transcendentals, activations and masks, fixed-shape reductions and the
//! matmul register tile. This module owns chunking, dispatch, and buffer
//! plumbing, and the elementwise ops of one IEEE operation per element,
//! which are plain loops the compiler vectorises on its own.

use crate::dispatch;
use crate::pool;
use crate::pool_mem;
use crate::simd;

/// Output rows per matmul block, a multiple of [`simd::MR`] and of
/// [`simd::COL_ROWS`], so neither kernel gets a short group inside a
/// block: the unit of pool dispatch, and small enough that a block of LHS
/// rows stays cache-resident while the packed RHS panels stream past it.
const ROW_BLOCK: usize = 48;
/// Share of a LHS row, as `(numerator, denominator)`, that has to be zero
/// before the zero-skipping axpy beats the register tile. The crossover
/// measured at the x86-64-v3 build level runs from 72% zeros (256 output
/// columns) through 79% (130) to 90% (64), and the rows training produces
/// sit either side of it — 37.5–62.5% zero behind a dropout mask or ReLU,
/// at least 87.5% zero when one-hot — so for the wide outputs that carry
/// the FLOPs the cut lies in the gap between the two clusters and no such
/// product is split between the kernels row by row (DESIGN.md §8 has the
/// table, and what the cut costs narrow outputs).
const AXPY_MIN_ZEROS: (usize, usize) = (3, 4);
/// Rows of a transposed LHS whose zeros [`matmul`] counts in one pass over
/// `a`, so the counters fit on the stack.
const ZERO_COUNT_STRIP: usize = 256;
/// Elements per elementwise chunk (a multiple of [`simd::LANES`], so chunk
/// cuts land on lane-group boundaries).
const ELEM_BLOCK: usize = 8_192;
/// Elements per reduction leaf; also the row-block budget for row/column
/// sums (`rows_per_chunk = REDUCE_BLOCK / cols`). A multiple of
/// [`simd::LANES`].
const REDUCE_BLOCK: usize = 4_096;

/// Elementwise unary kernels. An enum (rather than a closure) so the op is
/// `Copy` and can be matched to its lane kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `e^x`
    Exp,
    /// `ln x`
    Ln,
    /// `√x`
    Sqrt,
    /// `tanh x`
    Tanh,
    /// `1 / (1 + e^-x)`
    Sigmoid,
    /// `max(x, 0)`
    Relu,
    /// `x` for `x ≥ 0`, else `αx`
    LeakyRelu(f32),
    /// `cx`
    MulScalar(f32),
    /// `x + c`
    AddScalar(f32),
    /// `x^p`
    PowScalar(f32),
    /// Subgradient mask of [`UnaryOp::Relu`]: `1` for `x > 0`, else `0`.
    ReluMask,
    /// Subgradient mask of [`UnaryOp::LeakyRelu`]: `1` for `x ≥ 0`, else `α`.
    LeakyReluMask(f32),
    /// Derivative of tanh from its *output*: `1 - y²`.
    TanhGrad,
    /// Derivative of sigmoid from its *output*: `y·(1 - y)`.
    SigmoidGrad,
}

impl UnaryOp {
    /// Applies the op to one element. The transcendentals route through the
    /// [`crate::simd`] scalar forms (lane 0 of the eight-lane kernel on a
    /// splat), so scalar and vector evaluation agree bit for bit.
    #[inline]
    pub fn eval(self, v: f32) -> f32 {
        match self {
            UnaryOp::Neg => -v,
            UnaryOp::Exp => simd::exp(v),
            UnaryOp::Ln => v.ln(),
            UnaryOp::Sqrt => v.sqrt(),
            UnaryOp::Tanh => simd::tanh(v),
            UnaryOp::Sigmoid => simd::sigmoid(v),
            UnaryOp::Relu => v.max(0.0),
            UnaryOp::LeakyRelu(alpha) => {
                if v >= 0.0 {
                    v
                } else {
                    alpha * v
                }
            }
            UnaryOp::MulScalar(c) => v * c,
            UnaryOp::AddScalar(c) => v + c,
            UnaryOp::PowScalar(p) => v.powf(p),
            UnaryOp::ReluMask => simd::relu_mask8(simd::F32x8::splat(v)).0[0],
            UnaryOp::LeakyReluMask(alpha) => {
                simd::leaky_relu_mask8(simd::F32x8::splat(v), alpha).0[0]
            }
            UnaryOp::TanhGrad => 1.0 - v * v,
            UnaryOp::SigmoidGrad => v * (1.0 - v),
        }
    }

    /// Applies the op across a slice, appending to `out`. Ops with real
    /// lane math (and the masks) run eight-wide through
    /// [`simd::map_slice`]; the rest are one IEEE operation per element, a
    /// plain loop over the slice that the compiler vectorises, with the op
    /// matched once outside it. Either way element `i` of the result is
    /// [`UnaryOp::eval`] of `src[i]` alone, so the caller may cut `src` into
    /// chunks at any boundary without changing a single output bit.
    #[inline]
    pub(crate) fn apply_slice(self, src: &[f32], out: &mut Vec<f32>) {
        match self {
            UnaryOp::Tanh => simd::map_slice(src, out, simd::tanh8),
            UnaryOp::Sigmoid => simd::map_slice(src, out, simd::sigmoid8),
            UnaryOp::Exp => simd::map_slice(src, out, simd::exp8),
            UnaryOp::Relu => simd::map_slice(src, out, simd::relu8),
            UnaryOp::LeakyRelu(alpha) => simd::map_slice(src, out, |x| simd::leaky_relu8(x, alpha)),
            UnaryOp::ReluMask => simd::map_slice(src, out, simd::relu_mask8),
            UnaryOp::LeakyReluMask(alpha) => {
                simd::map_slice(src, out, |x| simd::leaky_relu_mask8(x, alpha))
            }
            UnaryOp::TanhGrad => simd::map_slice(src, out, simd::tanh_grad8),
            UnaryOp::SigmoidGrad => simd::map_slice(src, out, simd::sigmoid_grad8),
            UnaryOp::Neg => out.extend(src.iter().map(|&v| -v)),
            UnaryOp::Ln => out.extend(src.iter().map(|&v| v.ln())),
            UnaryOp::Sqrt => out.extend(src.iter().map(|&v| v.sqrt())),
            UnaryOp::MulScalar(c) => out.extend(src.iter().map(|&v| v * c)),
            UnaryOp::AddScalar(c) => out.extend(src.iter().map(|&v| v + c)),
            UnaryOp::PowScalar(p) => out.extend(src.iter().map(|&v| v.powf(p))),
        }
    }
}

/// Activation applied by the fused affine kernel (`affine_act`).
///
/// A separate enum (rather than reusing [`UnaryOp`]) so only activations —
/// not masks or scalar ops — can be fused behind a `matmul + bias`, and so
/// the backward pass can match on exactly these four cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedAct {
    /// `max(x, 0)`
    Relu,
    /// `tanh x`
    Tanh,
    /// `1 / (1 + e^-x)`
    Sigmoid,
    /// `x` for `x ≥ 0`, else `αx`. The graph layer requires `α > 0` so the
    /// backward mask can be recovered from the fused *output* sign.
    LeakyRelu(f32),
}

/// Elementwise binary kernels (same-shape fast path of `zip`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

impl BinaryOp {
    /// Applies the op to one element pair.
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
        }
    }
}

/// An elementwise map over `len` elements, where `fill(lo, hi, out)`
/// appends outputs `lo..hi`. Sub-threshold maps run inline in one pass (the
/// parallel path's thread spawn and stitch cost more than small ops
/// themselves); larger ones are cut into `ELEM_BLOCK`-element chunks over
/// the pool. Each element's value never depends on its chunk, so any
/// execution order is bitwise identical.
fn map_elems(len: usize, fill: impl Fn(usize, usize, &mut Vec<f32>) + Sync) -> Vec<f32> {
    if pool::threads() == 1 || len < dispatch::elem_par_min() {
        let mut out = pool_mem::take(len);
        fill(0, len, &mut out);
        return out;
    }
    let chunks = pool::run_ordered(len.div_ceil(ELEM_BLOCK), |i| {
        let lo = i * ELEM_BLOCK;
        let hi = (lo + ELEM_BLOCK).min(len);
        let mut out = pool_mem::take(hi - lo);
        fill(lo, hi, &mut out);
        out
    });
    stitch(chunks, len)
}

/// Elementwise unary map ([`map_elems`]).
pub(crate) fn unary(data: &[f32], op: UnaryOp) -> Vec<f32> {
    map_elems(data.len(), |lo, hi, out| op.apply_slice(&data[lo..hi], out))
}

/// Appends `f(a[i], b[i])` for equal-length slices: one IEEE operation per
/// element in a loop the compiler vectorises, so chunk cuts are
/// unobservable — the same argument as [`UnaryOp::apply_slice`].
#[inline]
fn zip_into(a: &[f32], b: &[f32], out: &mut Vec<f32>, f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
}

/// [`zip_into`] with the op matched once, outside the loop.
#[inline]
fn zip_op(a: &[f32], b: &[f32], out: &mut Vec<f32>, op: BinaryOp) {
    match op {
        BinaryOp::Add => zip_into(a, b, out, |x, y| x + y),
        BinaryOp::Sub => zip_into(a, b, out, |x, y| x - y),
        BinaryOp::Mul => zip_into(a, b, out, |x, y| x * y),
        BinaryOp::Div => zip_into(a, b, out, |x, y| x / y),
    }
}

/// Elementwise binary map over equal-length buffers ([`map_elems`]).
pub(crate) fn binary(a: &[f32], b: &[f32], op: BinaryOp) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    map_elems(a.len(), |lo, hi, out| zip_op(&a[lo..hi], &b[lo..hi], out, op))
}

/// How the narrower operand of a broadcasting binary op lines up against
/// the `rows×cols` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Broadcast {
    /// A `1×cols` row vector, repeated down the rows.
    Row,
    /// A `rows×1` column vector, repeated across the columns.
    Col,
}

/// One monomorphic row loop per op for [`binary_broadcast`]: a row vector
/// zips against every row of `full`, a column vector contributes one value
/// per row. `f` always sees the operands in the caller's order.
#[inline]
fn broadcast_rows(
    full: &[f32],
    vec: &[f32],
    cols: usize,
    along: Broadcast,
    vec_first: bool,
    out: &mut Vec<f32>,
    f: impl Fn(f32, f32) -> f32 + Copy,
) {
    for (r, row) in full.chunks_exact(cols).enumerate() {
        match (along, vec_first) {
            (Broadcast::Row, false) => zip_into(row, vec, out, f),
            (Broadcast::Row, true) => zip_into(vec, row, out, f),
            (Broadcast::Col, false) => {
                let s = vec[r];
                out.extend(row.iter().map(|&x| f(x, s)));
            }
            (Broadcast::Col, true) => {
                let s = vec[r];
                out.extend(row.iter().map(|&x| f(s, x)));
            }
        }
    }
}

/// Broadcasting binary map of a row-major `rows×cols` buffer `full` with a
/// row or column vector `vec` (`vec ⊕ full` when `vec_first`, else
/// `full ⊕ vec`), row by row. Each element is the same single `op` on the
/// same two values the generic broadcasting loop pairs up, so the results
/// are bit-identical to it.
pub(crate) fn binary_broadcast(
    full: &[f32],
    vec: &[f32],
    cols: usize,
    along: Broadcast,
    vec_first: bool,
    op: BinaryOp,
) -> Vec<f32> {
    let mut out = pool_mem::take(full.len());
    if !full.is_empty() {
        match op {
            BinaryOp::Add => {
                broadcast_rows(full, vec, cols, along, vec_first, &mut out, |x, y| x + y)
            }
            BinaryOp::Sub => {
                broadcast_rows(full, vec, cols, along, vec_first, &mut out, |x, y| x - y)
            }
            BinaryOp::Mul => {
                broadcast_rows(full, vec, cols, along, vec_first, &mut out, |x, y| x * y)
            }
            BinaryOp::Div => {
                broadcast_rows(full, vec, cols, along, vec_first, &mut out, |x, y| x / y)
            }
        }
    }
    out
}

/// Concatenates chunk outputs in index order; each drained chunk buffer is
/// parked back in the recycling pool.
fn stitch(chunks: Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let mut out = pool_mem::take(len);
    for chunk in chunks {
        out.extend_from_slice(&chunk);
        pool_mem::give(chunk);
    }
    out
}

/// Folds `partials`, a run of `width`-value slots, pairwise into its first
/// slot in a fixed-shape tree: `((p0+p1)+(p2+p3))+…`, elementwise, with an
/// odd slot carried up a level as it is. The shape depends only on the
/// number of slots, which depends only on the input length — never on
/// scheduling — and the fold reuses the slots, so it allocates nothing.
fn tree_fold(partials: &mut [f32], width: usize) {
    let n = partials.len() / width;
    let mut stride = 1;
    while stride < n {
        for i in (0..n - stride).step_by(2 * stride) {
            let (head, tail) = partials.split_at_mut((i + stride) * width);
            for (a, b) in head[i * width..].iter_mut().zip(&tail[..width]) {
                *a += *b;
            }
        }
        stride *= 2;
    }
}

/// Runs a reduction's `task(i, slot)` over its chunks `0..n`, each writing
/// `width` values into its own slot of one pooled buffer, which it returns.
/// Chunks run on the pool when the input holds at least
/// [`dispatch::reduce_par_min`] elements and inline in index order
/// otherwise: the same closure either way, so the threshold picks where the
/// chunks run and nothing else.
fn reduce_chunks(
    n: usize,
    width: usize,
    len: usize,
    task: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let mut slots = pool_mem::take_zeroed(n * width);
    if pool::threads() == 1 || len < dispatch::reduce_par_min() {
        for (i, slot) in slots.chunks_exact_mut(width).enumerate() {
            task(i, slot);
        }
    } else {
        let parts = pool::run_ordered(n, |i| {
            let mut part = pool_mem::take_zeroed(width);
            task(i, &mut part);
            part
        });
        for (slot, part) in slots.chunks_exact_mut(width).zip(parts) {
            slot.copy_from_slice(&part);
            pool_mem::give(part);
        }
    }
    slots
}

/// Chunked deterministic reduction: sequential leaf sums over
/// `REDUCE_BLOCK`-element chunks, combined by [`tree_fold`]. `leaf` must be
/// a pure function of its slice.
fn reduce(data: &[f32], leaf: fn(&[f32]) -> f32) -> f32 {
    let len = data.len();
    let mut partials = reduce_chunks(len.div_ceil(REDUCE_BLOCK), 1, len, |i, slot| {
        slot[0] = leaf(&data[i * REDUCE_BLOCK..((i + 1) * REDUCE_BLOCK).min(len)]);
    });
    tree_fold(&mut partials, 1);
    let total = partials.first().copied().unwrap_or(0.0);
    pool_mem::give(partials);
    total
}

fn leaf_sum(chunk: &[f32]) -> f32 {
    simd::sum(chunk)
}

fn leaf_sum_squares(chunk: &[f32]) -> f32 {
    simd::sum_squares(chunk)
}

/// Deterministic sum of all elements.
pub(crate) fn sum(data: &[f32]) -> f32 {
    reduce(data, leaf_sum)
}

/// Deterministic sum of squares (Frobenius norm before the square root).
pub(crate) fn sum_squares(data: &[f32]) -> f32 {
    reduce(data, leaf_sum_squares)
}

/// Row blocks used by the row/column-sum reductions: enough rows per chunk
/// to cover roughly `REDUCE_BLOCK` elements.
fn rows_per_chunk(cols: usize) -> usize {
    (REDUCE_BLOCK / cols.max(1)).max(1)
}

/// Column sums of a row-major `rows×cols` buffer → `cols` values
/// ([`col_sums_by`] of the stored rows).
pub(crate) fn col_sums(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    col_sums_by(rows, cols, 1, |r, acc| add_row(acc, data, r))
}

/// Adds row `r` of the row-major `data` (rows as wide as `acc`) into `acc`.
#[inline]
fn add_row(acc: &mut [f32], data: &[f32], r: usize) {
    let cols = acc.len();
    acc.iter_mut().zip(&data[r * cols..][..cols]).for_each(|(a, v)| *a += v);
}

/// `sums` column sums at once over `rows` rows of `cols` values that
/// `add_row(r, acc)` adds into `acc` (`sums·cols` slots, one `cols`-wide run
/// per sum) → `sums·cols` values. Rows are accumulated sequentially from
/// `+0.0` inside fixed row blocks of [`rows_per_chunk`]`(cols)`, each block
/// into its own slot of one pooled buffer; the slots combine in the pairwise
/// tree of [`tree_fold`]. So each sum has the bits [`col_sums`] gives the
/// stored values, whichever other sums share the pass: a fused kernel sums
/// values it never stores.
fn col_sums_by(
    rows: usize,
    cols: usize,
    sums: usize,
    add_row: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let width = sums * cols;
    if rows == 0 || cols == 0 {
        return pool_mem::take_zeroed(width);
    }
    let block = rows_per_chunk(cols);
    let mut partials = reduce_chunks(rows.div_ceil(block), width, rows * cols, |i, acc| {
        for r in i * block..((i + 1) * block).min(rows) {
            add_row(r, acc);
        }
    });
    tree_fold(&mut partials, width);
    let mut out = pool_mem::take(width);
    out.extend_from_slice(&partials[..width]);
    pool_mem::give(partials);
    out
}

/// The sums `Graph::reduce_to` takes of an adjoint broadcast down the rows:
/// [`col_sums_by`], except that a single row passes through as it is, as
/// `reduce_to` sums nothing then. (Summing from `−0.0` is the identity, so
/// a `−0.0` stays one, where a sum from `+0.0` would make it `+0.0`.)
fn adjoint_col_sums(
    rows: usize,
    cols: usize,
    sums: usize,
    add_row: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    if rows != 1 {
        return col_sums_by(rows, cols, sums, add_row);
    }
    let mut acc = pool_mem::take_filled(sums * cols, -0.0);
    add_row(0, &mut acc);
    acc
}

/// Rows `0..rows` of a row-major `rows×cols` output, each appended by
/// `fill_row(r, out)`. A row's values never depend on which rows share its
/// chunk, so below [`dispatch::elem_par_min`] one pass fills the output,
/// and above it blocks of about `ELEM_BLOCK` elements run on the pool.
fn map_row_blocks(
    rows: usize,
    cols: usize,
    fill_row: impl Fn(usize, &mut Vec<f32>) + Sync,
) -> Vec<f32> {
    let len = rows * cols;
    if pool::threads() == 1 || len < dispatch::elem_par_min() {
        let mut out = pool_mem::take(len);
        (0..rows).for_each(|r| fill_row(r, &mut out));
        return out;
    }
    let block = (ELEM_BLOCK / cols.max(1)).max(1);
    let chunks = pool::run_ordered(rows.div_ceil(block), |i| {
        let (lo, hi) = (i * block, ((i + 1) * block).min(rows));
        let mut out = pool_mem::take((hi - lo) * cols);
        (lo..hi).for_each(|r| fill_row(r, &mut out));
        out
    });
    stitch(chunks, len)
}

/// `per_row(row)` for every row of a row-major `rows×cols` buffer
/// (`cols > 0`). A row's value never depends on which rows share its
/// chunk, so below [`dispatch::reduce_par_min`] one pass fills the output,
/// and above it the row blocks of [`rows_per_chunk`] run on the pool.
fn map_rows(
    data: &[f32],
    rows: usize,
    cols: usize,
    per_row: impl Fn(&[f32]) -> f32 + Sync,
) -> Vec<f32> {
    if pool::threads() == 1 || data.len() < dispatch::reduce_par_min() {
        let mut out = pool_mem::take(rows);
        out.extend(data.chunks_exact(cols).map(&per_row));
        return out;
    }
    let block = rows_per_chunk(cols);
    let chunks = pool::run_ordered(rows.div_ceil(block), |i| {
        let lo = i * block;
        let hi = ((i + 1) * block).min(rows);
        let mut out = pool_mem::take(hi - lo);
        out.extend(data[lo * cols..hi * cols].chunks_exact(cols).map(&per_row));
        out
    });
    stitch(chunks, rows)
}

/// Row sums of a row-major `rows×cols` buffer → `rows` values. Each row is
/// summed sequentially (rows are short on the training path); row blocks
/// run on the pool when the buffer is large.
pub(crate) fn row_sums(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    if rows == 0 || cols == 0 {
        return pool_mem::take_zeroed(rows);
    }
    map_rows(data, rows, cols, leaf_sum)
}

/// Calls `f(i, r)` for every maximal run of dense rows in `r0..r1`, cut
/// into pieces of at most `max` rows starting at row `i`.
fn dense_runs(sparse: &[u8], r0: usize, r1: usize, max: usize, mut f: impl FnMut(usize, usize)) {
    let mut i = r0;
    while i < r1 {
        if sparse[i] != 0 {
            i += 1;
            continue;
        }
        let r = sparse[i..r1.min(i + max)].iter().take_while(|&&s| s == 0).count();
        f(i, r);
        i += r;
    }
}

/// Which operand of a product is read transposed — in place, never copied.
/// The product is `n×m` with contraction length `k` in every layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `a·b` for a row-major `n×k` `a` and `k×m` `b`.
    Plain,
    /// `a·bᵀ` for a row-major `n×k` `a` and `m×k` `b`.
    TransB,
    /// `aᵀ·b` for a row-major `k×n` `a` and `k×m` `b`.
    TransA,
}

/// One product's operands as [`matmul_rows`] reads them.
struct Product<'a> {
    lhs: simd::Lhs<'a>,
    /// The RHS as stored: read by the zero-skipping rows (`k×m`, only in the
    /// layouts whose RHS is not transposed) and by [`simd::col_chains`]
    /// (the `k` values of the single column, contiguous in every layout).
    b: &'a [f32],
    /// The RHS packed by [`simd::pack_panels`].
    panels: &'a [f32],
    /// Per output row: nonzero where the row skips its zero terms.
    sparse: &'a [u8],
    k: usize,
    m: usize,
}

/// Output rows `r0..r1` of the product into the zeroed `out`
/// (`(r1 - r0)·m` elements). Rows flagged `sparse` take the zero-skipping
/// axpy over the unpacked `b`; runs of dense rows take the register-tiled
/// micro-kernel over the packed panels, panel by panel so one `k×NR`
/// panel stays cache-resident across the block (a single output column
/// takes [`simd::col_chains`] on `b` itself). Either way every output
/// element is one ascending-`p` chain of fused multiply-adds — see
/// [`matmul`].
fn matmul_rows(op: &Product, r0: usize, r1: usize, out: &mut [f32]) {
    let (k, m) = (op.k, op.m);
    for i in (r0..r1).filter(|&i| op.sparse[i] != 0) {
        let out_row = &mut out[(i - r0) * m..(i - r0 + 1) * m];
        let lhs = op.lhs.strided_row(i, k);
        for (p, &av) in lhs.iter().step_by(op.lhs.step).enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(&op.b[p * m..(p + 1) * m]) {
                *o = av.mul_add(bv, *o);
            }
        }
        // A skipped term with a +0.0 product would have turned a −0.0
        // accumulator into +0.0 (see `matmul`), so an element that ends at
        // −0.0 is walked again as the whole chain. Rare: only a product
        // that underflows with a negative sign leaves −0.0 behind.
        let neg_zero = (-0.0f32).to_bits();
        if out_row.iter().fold(false, |seen, v| seen | (v.to_bits() == neg_zero)) {
            for (j, o) in out_row.iter_mut().enumerate() {
                if o.to_bits() == neg_zero {
                    *o = lhs
                        .iter()
                        .step_by(op.lhs.step)
                        .zip(op.b[j..].iter().step_by(m))
                        .fold(0.0, |acc, (&av, &bv)| av.mul_add(bv, acc));
                }
            }
        }
    }
    if m == 1 {
        dense_runs(op.sparse, r0, r1, simd::COL_ROWS, |i, r| {
            simd::col_chains(r, op.lhs.skip_rows(i), k, op.b, &mut out[i - r0..]);
        });
        return;
    }
    for (q, panel) in op.panels.chunks_exact(k * simd::NR).enumerate() {
        let j0 = q * simd::NR;
        let w = simd::NR.min(m - j0);
        dense_runs(op.sparse, r0, r1, simd::MR, |i, r| {
            simd::tile(r, op.lhs.skip_rows(i), k, panel, &mut out[(i - r0) * m + j0..], m, w);
        });
    }
}

/// Matrix product in one of the three [`Layout`]s, **bit-identical to the
/// naive triple loop** over the operands as the layout reads them: every
/// `c[i][j]` is the single chain `s = a(i,p).mul_add(b(p,j), s)` in
/// ascending `p` from `s = +0.0`, each term one fused multiply-add rounded
/// once — the same bits at every build level, since `mul_add` is correctly
/// rounded whether an instruction or libm computes it. Tile shape,
/// ragged edges, row blocks, the thread count and the rows sharing a batch
/// (which is what lets the serving engine coalesce and split request
/// batches, DESIGN.md §14) are therefore all unobservable in the output
/// bits — and so is the layout itself: `a·bᵀ` equals the product with a
/// transposed copy of `b` bit for bit, because a fused multiply-add
/// commutes in its two factors and the chain order is the same.
///
/// The layout decides how the tile reads LHS rows (a stride pair, see
/// [`simd::Lhs`]: a transposed LHS is read as contiguous values of one row
/// of `a`) and where the RHS panels are packed from (`b` or `bᵀ`).
///
/// Kernel choice is made **per output row** from the measured crossover
/// (DESIGN.md §8): a row at least [`AXPY_MIN_ZEROS`] zero against a finite
/// RHS more than one panel wide — one-hot and condition-vector rows on the
/// encode path — skips its zero terms. Each adds an exact `±0.0`, which
/// changes nothing unless the accumulator is `−0.0`: a fused step whose
/// product underflows with a negative sign can leave one, and a `+0.0`
/// product then turns it into `+0.0`. So an axpy element that ends at
/// `−0.0` is walked again as the whole chain, and skipping changes no bit.
/// The axpy walks rows of the RHS, so only the layouts that do not
/// transpose it offer it. Every other row takes the register-tiled kernel
/// over the RHS packed once per call ([`simd::col_chains`] for a single
/// column): rows behind a dropout mask or a ReLU, half zero give or take,
/// where a
/// mispredicted branch per element costs the axpy more than the skipped
/// terms save; every row of an output at most [`simd::NR`] columns wide,
/// where the axpy never catches up; and every row of a product with a
/// non-finite RHS, so `0·NaN`/`0·∞` still poison the output as IEEE
/// demands. Work runs in `ROW_BLOCK`-row blocks, on the pool above
/// [`dispatch::matmul_par_min`].
pub(crate) fn matmul(
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    layout: Layout,
) -> Vec<f32> {
    if n == 0 || k == 0 || m == 0 {
        return pool_mem::take_zeroed(n * m);
    }
    let lhs = match layout {
        Layout::TransA => simd::Lhs { data: a, row: 1, step: n },
        Layout::Plain | Layout::TransB => simd::Lhs { data: a, row: k, step: 1 },
    };
    let axpy_allowed = layout != Layout::TransB && m > simd::NR && b.iter().all(|v| v.is_finite());
    let (num, den) = AXPY_MIN_ZEROS;
    let sparse_at = |zeros: usize| den * zeros >= num * k;
    // One flag per output row, from the byte pool.
    let mut row_sparse = pool_mem::take_bytes(n);
    match layout {
        _ if !axpy_allowed => row_sparse.resize(n, 0),
        Layout::TransA => {
            // An LHS row is a column of `a`: its zeros are counted a strip
            // of rows at a time, with the counters on the stack.
            for i0 in (0..n).step_by(ZERO_COUNT_STRIP) {
                let strip = ZERO_COUNT_STRIP.min(n - i0);
                let mut zeros = [0usize; ZERO_COUNT_STRIP];
                for row in a.chunks_exact(n) {
                    for (z, &v) in zeros.iter_mut().zip(&row[i0..i0 + strip]) {
                        *z += usize::from(v == 0.0);
                    }
                }
                row_sparse.extend(zeros[..strip].iter().map(|&z| u8::from(sparse_at(z))));
            }
        }
        Layout::Plain | Layout::TransB => row_sparse.extend(
            a.chunks_exact(k)
                .map(|row| u8::from(sparse_at(row.iter().filter(|&&v| v == 0.0).count()))),
        ),
    }
    let mut panels = Vec::new();
    if m > 1 && row_sparse.contains(&0) {
        panels = pool_mem::take(k * m.next_multiple_of(simd::NR));
        simd::pack_panels(b, k, m, layout == Layout::TransB, &mut panels);
    }
    let op = Product { lhs, b, panels: &panels, sparse: &row_sparse, k, m };

    let n_blocks = n.div_ceil(ROW_BLOCK);
    let bounds = |i: usize| (i * ROW_BLOCK, ((i + 1) * ROW_BLOCK).min(n));
    let out = if pool::threads() == 1 || n_blocks == 1 || n * k * m < dispatch::matmul_par_min() {
        let mut out = pool_mem::take_zeroed(n * m);
        for (r0, r1) in (0..n_blocks).map(bounds) {
            matmul_rows(&op, r0, r1, &mut out[r0 * m..r1 * m]);
        }
        out
    } else {
        let chunks = pool::run_ordered(n_blocks, |i| {
            let (r0, r1) = bounds(i);
            let mut out = pool_mem::take_zeroed((r1 - r0) * m);
            matmul_rows(&op, r0, r1, &mut out);
            out
        });
        stitch(chunks, n * m)
    };
    pool_mem::give(panels);
    pool_mem::give_bytes(row_sparse);
    out
}

/// Fused affine + activation: `act(x @ w + bias)` for a row-major `n×k`
/// LHS, `k×m` weights and a length-`m` bias row, in one pass over the
/// matmul output block.
///
/// Bit-identity with the unfused composition is by construction: the
/// matmul is the *same* kernel, and the per-row [`simd::bias_act_row`] pass
/// evaluates exactly the arithmetic the broadcasting `add` and elementwise
/// [`UnaryOp::apply_slice`] would — `act(xw[r·m + c] + bias[c])` per
/// element through the same lanewise-pure kernel, so neither the row-major
/// lane grouping nor the thread count is observable in the output bits.
pub(crate) fn affine_act(
    n: usize,
    k: usize,
    m: usize,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    act: FusedAct,
) -> Vec<f32> {
    debug_assert_eq!(bias.len(), m);
    let mut out = matmul(n, k, m, x, w, Layout::Plain);
    if m > 0 {
        match act {
            FusedAct::Relu => bias_act_rows(&mut out, m, bias, simd::relu8),
            FusedAct::Tanh => bias_act_rows(&mut out, m, bias, simd::tanh8),
            FusedAct::Sigmoid => bias_act_rows(&mut out, m, bias, simd::sigmoid8),
            FusedAct::LeakyRelu(alpha) => {
                bias_act_rows(&mut out, m, bias, move |v| simd::leaky_relu8(v, alpha))
            }
        }
    }
    out
}

/// Runs the fused bias + activation lane kernel over every `m`-column row
/// of the matmul output (`m > 0`, checked by the caller).
#[inline]
fn bias_act_rows(
    out: &mut [f32],
    m: usize,
    bias: &[f32],
    f8: impl Fn(simd::F32x8) -> simd::F32x8 + Copy,
) {
    for row in out.chunks_exact_mut(m) {
        simd::bias_act_row(row, bias, f8);
    }
}

/// Fused row norm with floor: `sqrt(Σ_cols x² + eps)` per row of a
/// row-major `rows×cols` buffer, in one pass per row.
///
/// Matches the unfused `square → row sums → + eps → sqrt` chain bit for
/// bit: the unfused row sum runs [`leaf_sum`] sequentially over a whole
/// row of stored `v·v` products (rows are never split across chunks), and
/// [`leaf_sum_squares`] performs that identical left-to-right fold on the
/// fly. Row blocks run on the worker pool for large buffers with the same
/// chunking as [`row_sums`].
pub(crate) fn row_norm_eps(data: &[f32], rows: usize, cols: usize, eps: f32) -> Vec<f32> {
    if rows == 0 || cols == 0 {
        // Empty rows sum to 0, so every norm is √eps — same as unfused.
        return pool_mem::take_filled(rows, eps.sqrt());
    }
    map_rows(data, rows, cols, |row| (leaf_sum_squares(row) + eps).sqrt())
}

/// Mean and variance (`2·cols` values: the means, then the variances) over
/// the rows of `x + bias` (of `x` with no bias), a row-major `rows×cols`
/// buffer: the batch statistics of a batch-norm tail in training.
///
/// Bit for bit the unfused chain `h = x + b`, `mean = Σ_rows h · (1/n)`,
/// `var = Σ_rows (h − mean)² · (1/n)`: each sum is [`col_sums_by`] over
/// the very values the chain stores, `c·c` one rounded product as `Mul(c,
/// c)` is, and `1/n` the `f32` quotient `Graph::mean_rows` multiplies by.
pub(crate) fn bn_batch_stats(
    x: &[f32],
    rows: usize,
    cols: usize,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let inv_n = 1.0 / rows as f32;
    let row = |r: usize| &x[r * cols..][..cols];
    let sums = col_sums_by(rows, cols, 1, |r, acc| match bias {
        Some(b) => acc.iter_mut().zip(row(r)).zip(b).for_each(|((a, &x), &b)| *a += x + b),
        None => acc.iter_mut().zip(row(r)).for_each(|(a, &x)| *a += x),
    });
    let mut stats = pool_mem::take(2 * cols);
    stats.extend(sums.iter().map(|&s| s * inv_n));
    pool_mem::give(sums);
    let mean = &stats[..cols];
    let sums = col_sums_by(rows, cols, 1, |r, acc| {
        let square = |c: f32| c * c;
        match bias {
            Some(b) => acc
                .iter_mut()
                .zip(row(r))
                .zip(b)
                .zip(mean)
                .for_each(|(((a, &x), &b), &m)| *a += square((x + b) - m)),
            None => {
                acc.iter_mut().zip(row(r)).zip(mean).for_each(|((a, &x), &m)| *a += square(x - m))
            }
        }
    });
    stats.extend(sums.iter().map(|&s| s * inv_n));
    pool_mem::give(sums);
    stats
}

/// A batch-norm tail's operands: a row-major `rows×cols` input `x`, an
/// optional bias row, `γ`, `β`, the statistics it normalises with (`2·cols`
/// values, the means then the variances), `ε` and whether a ReLU follows.
/// Every element goes through the unfused chain's float operations in its
/// order, each rounded once: `h = x + b`, `c = h − mean`, `n = c / d` with
/// `d = √(var + ε)` per column, `o = n·γ + β` (a product and a sum, never
/// one fused step), `max(o, 0)`.
pub(crate) struct BnTailIn<'a> {
    pub(crate) x: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) gamma: &'a [f32],
    pub(crate) beta: &'a [f32],
    pub(crate) stats: &'a [f32],
    pub(crate) eps: f32,
    pub(crate) relu: bool,
}

/// The gradients a batch-norm tail's backward returns, each as the unfused
/// chain's adjoint of that input: `∂β`, `∂γ` (`cols` values each), `∂x`
/// (`rows·cols`, when asked for) and `∂bias` (`cols`, when asked for).
pub(crate) struct BnTailGrads {
    pub(crate) beta: Vec<f32>,
    pub(crate) gamma: Vec<f32>,
    pub(crate) input: Option<Vec<f32>>,
    pub(crate) bias: Option<Vec<f32>>,
}

impl BnTailIn<'_> {
    /// `d = √(var + ε)` per column, a pooled buffer.
    fn denominators(&self) -> Vec<f32> {
        let mut d = pool_mem::take(self.cols);
        d.extend(self.stats[self.cols..].iter().map(|&v| (v + self.eps).sqrt()));
        d
    }

    /// Appends row `r`'s centred values `c = (x + bias) − mean`.
    #[inline(always)]
    fn extend_centred(&self, r: usize, out: &mut Vec<f32>) {
        let x = &self.x[r * self.cols..][..self.cols];
        let mean = &self.stats[..self.cols];
        match self.bias {
            Some(b) => out.extend(x.iter().zip(b).zip(mean).map(|((&x, &b), &m)| (x + b) - m)),
            None => out.extend(x.iter().zip(mean).map(|(&x, &m)| x - m)),
        }
    }
}

/// The batch-norm tail's forward: `[act(BN(x + bias)), skip]` per row, with
/// `skip` an optional row-major buffer of `skip_cols` columns concatenated
/// to the right (→ `rows×(cols + skip_cols)`). One pass; each element is
/// the unfused chain's operations in its order ([`BnTailIn`]), and the ReLU
/// is `max(o, 0)` as [`UnaryOp::Relu`] evaluates it.
pub(crate) fn bn_tail(t: &BnTailIn, skip: Option<(&[f32], usize)>) -> Vec<f32> {
    if t.relu {
        bn_tail_with(t, skip, |o| o.max(0.0))
    } else {
        bn_tail_with(t, skip, |o| o)
    }
}

/// [`bn_tail`] with the activation `act` (monomorphised, so the row loop
/// has no branch).
fn bn_tail_with(
    t: &BnTailIn,
    skip: Option<(&[f32], usize)>,
    act: impl Fn(f32) -> f32 + Sync,
) -> Vec<f32> {
    let cols = t.cols;
    let d = t.denominators();
    let (gamma, beta) = (&t.gamma[..cols], &t.beta[..cols]);
    let skip_cols = skip.map_or(0, |(_, w)| w);
    let out = map_row_blocks(t.rows, cols + skip_cols, |r, out| {
        let start = out.len();
        t.extend_centred(r, out);
        let row = &mut out[start..];
        for (((v, &d), &g), &b) in row.iter_mut().zip(&d).zip(gamma).zip(beta) {
            *v = act((*v / d) * g + b);
        }
        if let Some((s, w)) = skip {
            out.extend_from_slice(&s[r * w..][..w]);
        }
    });
    pool_mem::give(d);
    out
}

/// The batch-norm tail's backward from the upstream gradient `g` (row
/// stride `g_cols`; its first `cols` columns are the normalised part's).
///
/// Mirrors the adjoints the unfused chain's backward arms build, term by
/// term and in their accumulation order. With `ĝ` the adjoint at `o` (the
/// upstream times the ReLU's mask leaf, `1` for `o > 0` else `0` with NaN
/// included, as a product; the upstream itself without a ReLU) and `g_n =
/// ĝ·γ`:
///
/// * `∂β = Σ_rows ĝ`, `∂γ = Σ_rows ĝ·n`;
/// * with running statistics (constants), `∂x = g_n / d`;
/// * with batch statistics, the `Div` arm's path to the denominator,
///   `g_d = Σ_rows −(g_n · (c / (d·d)))`, back through `Sqrt`, `AddScalar`
///   and `MulScalar` to `q = ((g_d·0.5) / d)·(1/n)`; the centred values'
///   adjoint `g_c = ((g_n / d) + q·c) + q·c` (the `Div` arm, then the
///   `Mul(c, c)` arm's two identical contributions); `Sub`'s contribution
///   to the mean, `g_m = Σ_rows −g_c`, and `∂x = g_c + g_m·(1/n)`;
/// * `∂bias = Σ_rows ∂x`.
///
/// Every sum is an [`adjoint_col_sums`] sum, so it has the bits the
/// unfused chain's `reduce_to` gives the stored values.
pub(crate) fn bn_tail_backward(
    t: &BnTailIn,
    batch: bool,
    g: &[f32],
    g_cols: usize,
    want_input: bool,
    want_bias: bool,
) -> BnTailGrads {
    let wants = (batch, want_input, want_bias);
    if t.relu {
        bn_tail_backward_with(t, g, g_cols, wants, |g, o| g * if o > 0.0 { 1.0 } else { 0.0 })
    } else {
        bn_tail_backward_with(t, g, g_cols, wants, |g, _| g)
    }
}

/// One column of a row in [`bn_tail_backward_with`]: the centred value
/// `c`, the normalised `n`, the upstream gradient `g`, and the column's
/// `d`, `γ` and `β`.
#[derive(Clone, Copy)]
struct Column {
    c: f32,
    n: f32,
    g: f32,
    d: f32,
    gamma: f32,
    beta: f32,
}

/// [`bn_tail_backward`] with `adjoint(g, o)` the adjoint at the affine
/// output `o` from the upstream `g` (monomorphised, so the row loops have
/// no branch).
fn bn_tail_backward_with(
    t: &BnTailIn,
    g: &[f32],
    g_cols: usize,
    (batch, want_input, want_bias): (bool, bool, bool),
    adjoint: impl Fn(f32, f32) -> f32 + Sync,
) -> BnTailGrads {
    let (rows, cols) = (t.rows, t.cols);
    let inv_n = 1.0 / rows as f32;
    let dens = t.denominators();
    let (d, gamma, beta) = (&dens[..cols], &t.gamma[..cols], &t.beta[..cols]);
    // The centred and the normalised values, stored once: every pass below
    // reads them, and a division costs more than a load.
    let centred = map_row_blocks(rows, cols, |r, out| t.extend_centred(r, out));
    let normalised = map_row_blocks(rows, cols, |r, out| {
        out.extend(centred[r * cols..][..cols].iter().zip(d).map(|(&c, &d)| c / d));
    });
    // Row `r`'s columns.
    let columns = |r: usize| {
        centred[r * cols..][..cols]
            .iter()
            .zip(&normalised[r * cols..][..cols])
            .zip(&g[r * g_cols..][..cols])
            .zip(d)
            .zip(gamma)
            .zip(beta)
            .map(|(((((&c, &n), &g), &d), &gamma), &beta)| Column { c, n, g, d, gamma, beta })
    };
    // `ĝ` and `g_n` of one column.
    let at = |col: Column| {
        let g_o = adjoint(col.g, col.n * col.gamma + col.beta);
        (g_o, g_o * col.gamma)
    };
    // ∂β, ∂γ and g_d in one pass (g_d unused with running statistics).
    let sums = adjoint_col_sums(rows, cols, 3, |r, acc| {
        let (acc_beta, rest) = acc.split_at_mut(cols);
        let (acc_gamma, acc_d) = rest.split_at_mut(cols);
        let accs = acc_beta.iter_mut().zip(acc_gamma).zip(acc_d);
        for (((a_beta, a_gamma), a_d), col) in accs.zip(columns(r)) {
            let (g_o, g_n) = at(col);
            *a_beta += g_o;
            *a_gamma += g_o * col.n;
            *a_d += -(g_n * (col.c / (col.d * col.d)));
        }
    });
    let mut beta_grad = pool_mem::take(cols);
    beta_grad.extend_from_slice(&sums[..cols]);
    let mut gamma_grad = pool_mem::take(cols);
    gamma_grad.extend_from_slice(&sums[cols..2 * cols]);
    let input = (want_input || want_bias).then(|| {
        if !batch {
            return map_row_blocks(rows, cols, |r, out| {
                out.extend(columns(r).map(|col| at(col).1 / col.d));
            });
        }
        let mut q = pool_mem::take(cols);
        q.extend(sums[2 * cols..].iter().zip(d).map(|(&g_d, &d)| ((g_d * 0.5) / d) * inv_n));
        let mut dx = map_row_blocks(rows, cols, |r, out| {
            out.extend(
                columns(r).zip(&q).map(|(col, &q)| ((at(col).1 / col.d) + q * col.c) + q * col.c),
            );
        });
        let mut g_s1 = adjoint_col_sums(rows, cols, 1, |r, acc| {
            acc.iter_mut().zip(&dx[r * cols..][..cols]).for_each(|(a, &g_c)| *a += -g_c);
        });
        g_s1.iter_mut().for_each(|v| *v *= inv_n);
        for row in dx.chunks_exact_mut(cols.max(1)) {
            row.iter_mut().zip(&g_s1).for_each(|(g_c, &s1)| *g_c += s1);
        }
        pool_mem::give(q);
        pool_mem::give(g_s1);
        dx
    });
    pool_mem::give(sums);
    pool_mem::give(centred);
    pool_mem::give(normalised);
    pool_mem::give(dens);
    let bias = input
        .as_ref()
        .filter(|_| want_bias)
        .map(|dx| adjoint_col_sums(rows, cols, 1, |r, acc| add_row(acc, dx, r)));
    let input = match input {
        Some(dx) if !want_input => {
            pool_mem::give(dx);
            None
        }
        dx => dx,
    };
    BnTailGrads { beta: beta_grad, gamma: gamma_grad, input, bias }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_fold_is_exact_on_integers() {
        let data: Vec<f32> = (0..10_000).map(|v| (v % 7) as f32).collect();
        let expected: f32 = data.iter().sum();
        assert_eq!(sum(&data), expected);
    }

    #[test]
    fn sparse_and_dense_kernels_agree_on_exact_inputs() {
        // Arbitrary finite inputs, row `i` of the LHS about `10·(i % 10)`%
        // zeros — dense, the dropout band, either side of the selection
        // threshold, one-hot: both kernels walk the same ascending-p chain,
        // so they agree bit for bit whichever one a row is handed to.
        // Ragged tiles (7 % MR, 21 % NR), the single column and the widths
        // either side of one panel included.
        for (n, k, m) in [(7, 33, 21), (9, 40, 1), (13, 64, 16), (13, 64, 17)] {
            let a: Vec<f32> = (0..n * k)
                .map(|i| {
                    let zero = (i * 7 + i / k) % 10 < (i / k) % 10;
                    if zero {
                        0.0
                    } else {
                        ((i * 29 % 83) as f32) * 0.173 - 7.1
                    }
                })
                .collect();
            let b: Vec<f32> = (0..k * m).map(|i| ((i * 37 % 101) as f32) * 0.137 - 6.9).collect();
            let mut panels = Vec::new();
            simd::pack_panels(&b, k, m, false, &mut panels);
            // The LHS read in place (`a`) and through its stored transpose.
            let at: Vec<f32> = (0..k * n).map(|i| a[(i % n) * k + i / n]).collect();
            let views = [
                (Layout::Plain, simd::Lhs { data: &a[..], row: k, step: 1 }),
                (Layout::TransA, simd::Lhs { data: &at[..], row: 1, step: n }),
            ];
            for (layout, lhs) in views {
                let rows = |flags: &[u8]| {
                    let mut out = vec![0.0; n * m];
                    let op = Product { lhs, b: &b, panels: &panels, sparse: flags, k, m };
                    matmul_rows(&op, 0, n, &mut out);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let mixed: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 1)).collect();
                let dense = rows(&vec![0; n]);
                assert_eq!(rows(&vec![1; n]), dense, "{n}x{k}x{m} {layout:?}");
                assert_eq!(rows(&mixed), dense, "{n}x{k}x{m} {layout:?} mixed");
                // And the selection `matmul` itself makes lands on those bits.
                let picked: Vec<u32> =
                    matmul(n, k, m, lhs.data, &b, layout).iter().map(|v| v.to_bits()).collect();
                assert_eq!(picked, dense, "{n}x{k}x{m} {layout:?} as selected");
            }
        }
    }

    #[test]
    fn a_skipped_zero_term_still_clears_a_negative_zero() {
        // `-1e-30·1e-30` underflows: the first fused step leaves −0.0, and
        // the chain's next term, `+0·1`, turns it into +0.0. The axpy skips
        // that term, so its row has to arrive at +0.0 some other way.
        let (n, k, m) = (2, 4, 20);
        let a = [-1e-30, 0.0, 0.0, 0.0, -1e-30, -0.0, -0.0, -0.0];
        let b: Vec<f32> = (0..k * m).map(|i| if i < m { 1e-30 } else { 1.0 }).collect();
        let mut panels = Vec::new();
        simd::pack_panels(&b, k, m, false, &mut panels);
        let lhs = simd::Lhs { data: &a, row: k, step: 1 };
        let rows = |flag: u8| {
            let mut out = vec![0.0; n * m];
            let op = Product { lhs, b: &b, panels: &panels, sparse: &[flag; 2], k, m };
            matmul_rows(&op, 0, n, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let (tile, axpy) = (rows(0), rows(1));
        assert_eq!(tile[..m], [0.0f32.to_bits(); 20], "+0·1 clears the −0.0");
        assert_eq!(tile[m..], [(-0.0f32).to_bits(); 20], "−0·1 keeps it");
        assert_eq!(axpy, tile);
    }

    #[test]
    fn row_selection_follows_the_measured_crossover() {
        // Which kernel ran is unobservable in the bits; it is observable in
        // whether the RHS got packed. A product whose rows all sit in the
        // dropout band packs (register tile); one-hot rows against a wide
        // RHS do not (axpy); one-hot rows against a single panel do (the
        // tile wins at every density there).
        let (n, k) = (4, 64);
        let lhs = |zeros: usize| -> Vec<f32> {
            (0..n * k).map(|i| if i % k < zeros { 0.0 } else { 1.0 + i as f32 }).collect()
        };
        let packs = |zeros: usize, m: usize| {
            let b = vec![0.5; k * m];
            let before = pool_mem::stats().bytes_requested;
            let _ = matmul(n, k, m, &lhs(zeros), &b, Layout::Plain);
            let asked = (pool_mem::stats().bytes_requested - before) as usize;
            asked > n * m * 4
        };
        assert!(packs(32, 48), "half-zero rows take the tile");
        assert!(packs(40, 48), "62.5% zeros is still the dropout band");
        assert!(!packs(48, 48), "75% zeros and up skip their zeros");
        assert!(!packs(63, 48), "one-hot rows skip their zeros");
        assert!(packs(63, 16), "one panel wide: always the tile");
    }

    #[test]
    fn matmul_rows_are_batch_invariant() {
        // Any row of a product must be bit-identical to the same row
        // computed solo, whatever mix of dense and sparse rows shares the
        // batch — the serving engine's coalescing contract.
        let k = 33;
        let m = 9;
        let b: Vec<f32> = (0..k * m).map(|i| ((i * 37 % 101) as f32) * 0.137 - 6.0).collect();
        // Row 0: dense-ish; row 1: mostly zero; row 2: exactly half zero.
        let rows: Vec<Vec<f32>> = vec![
            (0..k).map(|i| ((i * 13 % 17) as f32) * 0.31 - 2.0).collect(),
            (0..k).map(|i| if i == 4 { 1.5 } else { 0.0 }).collect(),
            (0..k).map(|i| if i % 2 == 0 { 0.0 } else { 0.7 }).collect(),
        ];
        let batched: Vec<f32> = matmul(3, k, m, &rows.concat(), &b, Layout::Plain);
        for (r, row) in rows.iter().enumerate() {
            let solo = matmul(1, k, m, row, &b, Layout::Plain);
            assert_eq!(&batched[r * m..(r + 1) * m], &solo[..], "row {r} depends on batch-mates");
        }
    }
}
