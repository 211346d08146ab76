//! Eager, define-by-run autograd graph.
//!
//! A [`Graph`] is an arena of nodes. Every operation evaluates immediately
//! (the value is available as soon as the node is created) *and* records how
//! it was produced, so [`Graph::grad`] can later build the backward pass.
//! Crucially, the backward pass is itself expressed as new graph nodes, which
//! makes **higher-order differentiation** work: differentiating a gradient
//! (needed for the WGAN-GP gradient penalty) is just another `grad` call.
//!
//! # Examples
//!
//! ```
//! use gtv_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::scalar(3.0));
//! let y = g.mul(x, x); // y = x²
//! let dy = g.grad(y, &[x])[0]; // dy/dx = 2x
//! assert_eq!(g.value(dy).item(), 6.0);
//! let d2y = g.grad(dy, &[x])[0]; // d²y/dx² = 2
//! assert_eq!(g.value(d2y).item(), 2.0);
//! ```

use crate::kernels::{self, FusedAct, Layout, UnaryOp};
use crate::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Handle to a node in a [`Graph`].
///
/// `Var` is a plain index; it is only meaningful together with the graph that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node. Used to build backward passes.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input or gradient-cut node: parameter binding, data, detached value,
    /// backward mask, gradient seed or zero-gradient placeholder. The graph
    /// owns its value ([`Graph::leaf`] takes it by value), so
    /// [`Graph::reset`] parks it like every other node.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    /// Product in the given layout (either operand read transposed).
    MatMul(Var, Var, Layout),
    SumAll(Var),
    SumRows(Var),
    SumCols(Var),
    /// Broadcast input up to this node's shape.
    Broadcast(Var),
    MulScalar(Var, f32),
    AddScalar(Var),
    PowScalar(Var, f32),
    Exp(Var),
    Ln(Var),
    Sqrt(Var),
    Tanh(Var),
    Sigmoid(Var),
    /// `1 - y²` — tanh's derivative as a function of tanh's *output*; a
    /// first-class op so the backward pass is one fused kernel instead of a
    /// `mul → neg → add_scalar` chain.
    TanhGrad(Var),
    /// `y·(1 - y)` — sigmoid's derivative from its output.
    SigmoidGrad(Var),
    /// `max(x, 0)`; gradient mask is treated as a constant (correct a.e.).
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    ConcatCols(Vec<Var>),
    /// Columns `start .. start+width` of the input (width = this node's cols).
    SliceCols(Var, usize),
    /// Input embedded at column `start` of a zero tensor with `total` cols.
    PadCols(Var, usize),
    /// Gather of the input rows listed at this range of
    /// [`Graph::indices`] (rows may repeat).
    SelectRows(Var, Range<usize>),
    /// Scatter-add of the input's rows into a zero tensor with `total_rows`
    /// rows at the positions listed at this range of [`Graph::indices`]
    /// (adjoint of `SelectRows`).
    ScatterRows(Var, Range<usize>),
    /// Fused `act(x @ w + b)` with `b` a `1×m` bias row.
    AffineAct(Var, Var, Var, FusedAct),
    /// Fused row-wise `sqrt(Σ_cols x² + eps)` (`n×m → n×1`).
    RowNormEps(Var),
    /// Fused batch-norm tail ([`Graph::bn_tail`]).
    BnTail(Box<BnTailOp>),
    /// A gradient [`Graph::bn_tail`]'s backward built, from the tail node
    /// and the upstream adjoint: first order only, so its own backward arm
    /// refuses to differentiate it again.
    BnTailGrad(Var, Var),
}

/// A [`Graph::bn_tail`] node's operands and settings.
#[derive(Debug, Clone)]
pub(crate) struct BnTailOp {
    pub(crate) x: Var,
    pub(crate) tail: BnTail,
    /// The `2×m` leaf of the statistics it normalised with.
    pub(crate) stats: Var,
    /// Batch statistics (a function of `x`) rather than running ones.
    pub(crate) batch: bool,
}

impl Op {
    /// True if `pred` holds for at least one input of the op.
    pub(crate) fn any_input(&self, mut pred: impl FnMut(Var) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::MatMul(a, b, _) => {
                pred(*a) || pred(*b)
            }
            Op::Neg(x)
            | Op::SumAll(x)
            | Op::SumRows(x)
            | Op::SumCols(x)
            | Op::Broadcast(x)
            | Op::MulScalar(x, _)
            | Op::AddScalar(x)
            | Op::PowScalar(x, _)
            | Op::Exp(x)
            | Op::Ln(x)
            | Op::Sqrt(x)
            | Op::Tanh(x)
            | Op::Sigmoid(x)
            | Op::TanhGrad(x)
            | Op::SigmoidGrad(x)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::SliceCols(x, _)
            | Op::PadCols(x, _)
            | Op::SelectRows(x, _)
            | Op::ScatterRows(x, _)
            | Op::RowNormEps(x) => pred(*x),
            Op::ConcatCols(parts) => parts.iter().any(|p| pred(*p)),
            Op::AffineAct(x, w, b, _) => pred(*x) || pred(*w) || pred(*b),
            Op::BnTail(op) => {
                let t = &op.tail;
                pred(op.x)
                    || t.bias.is_some_and(&mut pred)
                    || pred(t.gamma)
                    || pred(t.beta)
                    || t.skip.is_some_and(pred)
            }
            Op::BnTailGrad(tail, g) => pred(*tail) || pred(*g),
        }
    }
}

/// What a [`Graph::bn_tail`] computes around the batch normalisation of its
/// `n×m` input: an optional bias row added first, the affine `γ`, `β`
/// (`1×m` rows), `ε`, an optional ReLU, and an optional skip input
/// concatenated to the right of the result.
#[derive(Debug, Clone, Copy)]
pub struct BnTail {
    /// `1×m` row added to the input before the statistics (a linear
    /// layer's bias), or none.
    pub bias: Option<Var>,
    /// `1×m` scale.
    pub gamma: Var,
    /// `1×m` shift.
    pub beta: Var,
    /// Added to the variance under the square root.
    pub eps: f32,
    /// Whether a ReLU follows the affine.
    pub relu: bool,
    /// `n×k` input concatenated to the right of the result (a residual
    /// block's input), or none.
    pub skip: Option<Var>,
}

/// The statistics a [`Graph::bn_tail`] normalises with.
#[derive(Debug, Clone, Copy)]
pub enum BnStats<'a> {
    /// The batch's own mean and (biased) variance per column, computed by
    /// the node; gradients flow through them (training).
    Batch,
    /// Running `(mean, variance)`, `1×m` each: constants (inference).
    Running(&'a Tensor, &'a Tensor),
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// Arena holding an eager computation graph.
///
/// Create one `Graph` per training step, bind parameters as leaves, build the
/// loss, call [`Graph::grad`], read gradients, drop the graph.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// The row indices of every gather and scatter node, end to end; a node
    /// holds its range, and a backward node shares its forward node's.
    pub(crate) indices: RefCell<Vec<usize>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.len())
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently in the graph.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no node has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&self, value: Tensor, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Creates an input node holding `value`. Gradients can flow *to* leaves
    /// but not through them.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Ends a training step: drains the arena, parking every node's storage
    /// in the thread-local recycling pool ([`crate::pool_mem`]) so the next
    /// step's allocations are pool hits. Leaves are parked too: the graph
    /// owns every value it holds, and a leaf bound from a caller's tensor
    /// (a parameter, a data batch) is a pooled clone of it, so what a step
    /// takes from the pool it gives back. Optimizer state lives outside the
    /// graph and is untouched. Returns the number of nodes released. All
    /// `Var` handles into this graph are invalidated.
    pub fn reset(&self) -> usize {
        // Drained, not taken: the next step's nodes reuse the arena.
        let mut nodes = self.nodes.borrow_mut();
        let count = nodes.len();
        for node in nodes.drain(..) {
            node.value.recycle();
        }
        // Cleared, not dropped: the next step's indices reuse the storage.
        self.indices.borrow_mut().clear();
        count
    }

    /// Creates a leaf holding a copy of `v`'s current value — the value flows
    /// forward but gradients are cut (PyTorch `detach`).
    pub fn detach(&self, v: Var) -> Var {
        let value = self.value(v);
        self.leaf(value)
    }

    /// Clones the value of a node.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Runs `f` with a borrow of the node's value (avoids a clone).
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.0].value)
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    fn unary(&self, x: Var, f: impl FnOnce(&Tensor) -> Tensor, op: Op) -> Var {
        let value = f(&self.nodes.borrow()[x.0].value);
        self.push(value, op)
    }

    fn binary(&self, a: Var, b: Var, f: impl FnOnce(&Tensor, &Tensor) -> Tensor, op: Op) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            f(&nodes[a.0].value, &nodes[b.0].value)
        };
        self.push(value, op)
    }

    /// Broadcasting addition.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x.add(y), Op::Add(a, b))
    }

    /// Broadcasting subtraction.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x.sub(y), Op::Sub(a, b))
    }

    /// Broadcasting elementwise product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x.mul(y), Op::Mul(a, b))
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x.div(y), Op::Div(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Neg), Op::Neg(x))
    }

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        self.matmul_layout(a, b, Layout::Plain)
    }

    /// Matrix product with either operand read transposed, in place
    /// ([`Tensor::matmul_layout`]). The backward pass builds its products
    /// over transposes this way, so it builds no transpose node.
    pub fn matmul_layout(&self, a: Var, b: Var, layout: Layout) -> Var {
        self.binary(a, b, |x, y| x.matmul_layout(y, layout), Op::MatMul(a, b, layout))
    }

    /// Sum of all elements (`1×1`).
    pub fn sum_all(&self, x: Var) -> Var {
        self.unary(x, |t| t.sum_all(), Op::SumAll(x))
    }

    /// Column sums (`n×m → 1×m`).
    pub fn sum_rows(&self, x: Var) -> Var {
        self.unary(x, |t| t.sum_rows(), Op::SumRows(x))
    }

    /// Row sums (`n×m → n×1`).
    pub fn sum_cols(&self, x: Var) -> Var {
        self.unary(x, |t| t.sum_cols(), Op::SumCols(x))
    }

    /// Mean of all elements (`1×1`).
    pub fn mean_all(&self, x: Var) -> Var {
        let n = {
            let nodes = self.nodes.borrow();
            nodes[x.0].value.len() as f32
        };
        let s = self.sum_all(x);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Per-column means (`n×m → 1×m`).
    pub fn mean_rows(&self, x: Var) -> Var {
        let n = self.shape(x).0 as f32;
        let s = self.sum_rows(x);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Broadcasts `x` up to `rows×cols`.
    ///
    /// # Panics
    ///
    /// Panics if the shape cannot be broadcast.
    pub fn broadcast_to(&self, x: Var, rows: usize, cols: usize) -> Var {
        if self.shape(x) == (rows, cols) {
            return x;
        }
        self.unary(x, |t| t.broadcast_to(rows, cols), Op::Broadcast(x))
    }

    /// Multiplies by a compile-time scalar constant.
    pub fn mul_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(x, |t| t.mul_scalar(c), Op::MulScalar(x, c))
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, x: Var, c: f32) -> Var {
        self.unary(x, |t| t.add_scalar(c), Op::AddScalar(x))
    }

    /// Elementwise power with constant exponent.
    pub fn pow_scalar(&self, x: Var, p: f32) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::PowScalar(p)), Op::PowScalar(x, p))
    }

    /// Elementwise square (`pow_scalar(x, 2)` specialisation).
    pub fn square(&self, x: Var) -> Var {
        self.mul(x, x)
    }

    /// Elementwise exponential.
    pub fn exp(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Exp), Op::Exp(x))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Ln), Op::Ln(x))
    }

    /// Elementwise square root.
    pub fn sqrt(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Sqrt), Op::Sqrt(x))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Tanh), Op::Tanh(x))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Sigmoid), Op::Sigmoid(x))
    }

    /// Elementwise `1 - y²`: the derivative of tanh expressed in tanh's
    /// *output* `y`. Bit-identical to the `neg(mul(y, y))` →
    /// `add_scalar(·, 1)` chain it replaces in the backward pass (IEEE
    /// `1 − v·v` and `(−v·v) + 1` round identically), but a single node
    /// over one fused lane kernel.
    pub fn tanh_grad(&self, y: Var) -> Var {
        self.unary(y, |t| t.apply(UnaryOp::TanhGrad), Op::TanhGrad(y))
    }

    /// Elementwise `y·(1 - y)`: the derivative of sigmoid expressed in its
    /// output `y`; bit-identical to the unfused
    /// `mul(y, add_scalar(neg(y), 1))` chain.
    pub fn sigmoid_grad(&self, y: Var) -> Var {
        self.unary(y, |t| t.apply(UnaryOp::SigmoidGrad), Op::SigmoidGrad(y))
    }

    /// Elementwise ReLU.
    pub fn relu(&self, x: Var) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::Relu), Op::Relu(x))
    }

    /// Elementwise leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, x: Var, alpha: f32) -> Var {
        self.unary(x, |t| t.apply(UnaryOp::LeakyRelu(alpha)), Op::LeakyRelu(x, alpha))
    }

    /// Horizontal concatenation.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let value = {
            let nodes = self.nodes.borrow();
            let tensors: Vec<&Tensor> = parts.iter().map(|v| &nodes[v.0].value).collect();
            Tensor::concat_cols(&tensors)
        };
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Columns `start .. start+width`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the input's columns.
    pub fn slice_cols(&self, x: Var, start: usize, width: usize) -> Var {
        self.unary(x, |t| t.slice_cols(start, width), Op::SliceCols(x, start))
    }

    /// Embeds `x` at column `start` of an otherwise-zero tensor with
    /// `total_cols` columns.
    pub fn pad_cols(&self, x: Var, start: usize, total_cols: usize) -> Var {
        self.unary(x, |t| t.pad_cols(start, total_cols), Op::PadCols(x, start))
    }

    /// Gathers the given rows of `x` (indices may repeat). Gradients
    /// scatter-add back to the source rows.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select_rows(&self, x: Var, indices: &[usize]) -> Var {
        let at = self.push_indices(indices);
        self.select_rows_at(x, at)
    }

    /// Appends `indices` to [`Graph::indices`], returning where they lie.
    fn push_indices(&self, indices: &[usize]) -> Range<usize> {
        let mut all = self.indices.borrow_mut();
        let start = all.len();
        all.extend_from_slice(indices);
        start..all.len()
    }

    /// [`Graph::select_rows`] of the indices at `at` in [`Graph::indices`].
    pub(crate) fn select_rows_at(&self, x: Var, at: Range<usize>) -> Var {
        let all = self.indices.borrow();
        let indices = &all[at.clone()];
        self.unary(x, |t| t.select_rows(indices), Op::SelectRows(x, at))
    }

    /// Scatter-adds the rows of `x` into a `total_rows`-row zero tensor at
    /// the given positions (duplicate positions accumulate). Adjoint of
    /// [`Graph::select_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `indices.len()` differs from `x`'s row count or a position
    /// is out of bounds.
    pub fn scatter_rows(&self, x: Var, indices: &[usize], total_rows: usize) -> Var {
        let at = self.push_indices(indices);
        self.scatter_rows_at(x, at, total_rows)
    }

    /// [`Graph::scatter_rows`] to the positions at `at` in
    /// [`Graph::indices`].
    pub(crate) fn scatter_rows_at(&self, x: Var, at: Range<usize>, total_rows: usize) -> Var {
        let all = self.indices.borrow();
        let indices = &all[at.clone()];
        self.unary(
            x,
            |t| {
                assert_eq!(t.rows(), indices.len(), "scatter_rows index count mismatch");
                let cols = t.cols();
                let mut out = Tensor::zeros(total_rows, cols);
                // Row slices added in place, in index order: duplicate
                // positions accumulate in that order.
                for (r, &dst) in indices.iter().enumerate() {
                    assert!(dst < total_rows, "scatter position {dst} out of bounds");
                    let row = &mut out.as_mut_slice()[dst * cols..(dst + 1) * cols];
                    for (o, &v) in row.iter_mut().zip(t.row_slice(r)) {
                        *o += v;
                    }
                }
                out
            },
            Op::ScatterRows(x, at),
        )
    }

    /// Row-wise softmax, computed stably by subtracting the (detached) row
    /// maximum. Differentiable (including twice) through its primitive
    /// decomposition.
    pub fn softmax_rows(&self, x: Var) -> Var {
        let (rows, _cols) = self.shape(x);
        let rowmax = self.with_value(x, |t| {
            let mut m = Tensor::zeros(rows, 1);
            for r in 0..rows {
                let mx = t.row_slice(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                m.set(r, 0, mx);
            }
            m
        });
        let mx = self.leaf(rowmax);
        let shifted = self.sub(x, mx);
        let e = self.exp(shifted);
        let denom = self.sum_cols(e);
        self.div(e, denom)
    }

    /// Row-wise L2 norm with numerical floor `eps`: `sqrt(Σ_cols x² + eps)`.
    /// Runs on the fused [`Graph::row_norm_eps`] kernel; bit-identical to
    /// the primitive `square → sum_cols → add_scalar → sqrt` chain.
    pub fn l2_norm_rows(&self, x: Var, eps: f32) -> Var {
        self.row_norm_eps(x, eps)
    }

    /// Fused affine + activation: `act(x @ w + b)` in one pass over the
    /// matmul output. Backward differentiates it exactly like the unfused
    /// `matmul → add → activation` chain (including twice, for WGAN-GP).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != w.rows()`, if `b` is not a `1×m` row, or if a
    /// leaky slope is not strictly positive (the backward pass recovers the
    /// mask from the fused output's sign, which needs `α > 0` — `α = 0` is
    /// plain [`FusedAct::Relu`]).
    pub fn affine_act(&self, x: Var, w: Var, b: Var, act: FusedAct) -> Var {
        if let FusedAct::LeakyRelu(alpha) = act {
            assert!(
                alpha > 0.0,
                "affine_act requires a strictly positive leaky slope, got {alpha}"
            );
        }
        let value = {
            let nodes = self.nodes.borrow();
            let (xv, wv, bv) = (&nodes[x.0].value, &nodes[w.0].value, &nodes[b.0].value);
            assert_eq!(
                xv.cols(),
                wv.rows(),
                "affine_act shape mismatch: {}x{} @ {}x{}",
                xv.rows(),
                xv.cols(),
                wv.rows(),
                wv.cols()
            );
            let (n, k, m) = (xv.rows(), xv.cols(), wv.cols());
            assert_eq!(bv.shape(), (1, m), "affine_act bias must be 1x{m}, got {:?}", bv.shape());
            let data =
                kernels::affine_act(n, k, m, xv.as_slice(), wv.as_slice(), bv.as_slice(), act);
            Tensor::from_vec(n, m, data)
        };
        self.push(value, Op::AffineAct(x, w, b, act))
    }

    /// Fused batch-norm tail: `[act(BN(x + bias)), skip]` with `BN(h) =
    /// (h − mean) / √(var + ε) · γ + β` per column, `act` a ReLU or the
    /// identity, and the optional bias and skip of `tail` — a generator
    /// residual block's `bias → BatchNorm → ReLU → concat` after its
    /// product `x`, or with neither and no ReLU a plain batch norm.
    ///
    /// Returns the output node and a `2×m` leaf holding the mean and the
    /// variance it normalised with, row by row: the batch's with
    /// [`BnStats::Batch`] (the caller's running-statistics update reads
    /// them), the running ones otherwise. The leaf is a value, not a path
    /// for gradients.
    ///
    /// Bit-identical to the composed chain `add → mean_rows → sub → square
    /// → mean_rows → add_scalar → sqrt → div → mul → add → relu →
    /// concat_cols` (running statistics enter it as leaves): the same float
    /// operations in the same order, the column sums in `sum_rows`' chunk
    /// and tree order (a NaN is a NaN in both, its sign and payload aside,
    /// which Rust leaves unspecified). Its backward mirrors that chain's
    /// adjoints term by term and returns the same bits for `x`, the bias,
    /// `γ`, `β` and the skip — when the node is `x`'s only consumer, as a
    /// residual block's product is, since the chain adds its two
    /// contributions to `x`'s adjoint one at a time. It builds a handful of
    /// nodes instead of about twenty, and they are first order only:
    /// differentiating them again panics (a generator's output is never
    /// differentiated twice; the gradient penalty's double backward runs
    /// through the critic).
    ///
    /// # Panics
    ///
    /// Panics if the bias, `γ`, `β` or a running statistic is not a `1×m`
    /// row, or the skip's row count differs from `x`'s.
    pub fn bn_tail(&self, x: Var, tail: BnTail, stats: BnStats<'_>) -> (Var, Var) {
        let (out, stats_value) = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.0].value;
            let (rows, cols) = xv.shape();
            let row = |v: Var, what: &str| {
                let t = &nodes[v.0].value;
                assert_eq!(
                    t.shape(),
                    (1, cols),
                    "bn_tail {what} must be 1x{cols}, got {:?}",
                    t.shape()
                );
                t.as_slice()
            };
            let bias = tail.bias.map(|b| row(b, "bias"));
            let (gamma, beta) = (row(tail.gamma, "gamma"), row(tail.beta, "beta"));
            let skip = tail.skip.map(|s| {
                let t = &nodes[s.0].value;
                assert_eq!(t.rows(), rows, "bn_tail skip has {} rows, the input {rows}", t.rows());
                (t.as_slice(), t.cols())
            });
            let stats = match stats {
                BnStats::Batch => kernels::bn_batch_stats(xv.as_slice(), rows, cols, bias),
                BnStats::Running(mean, var) => {
                    for (t, what) in [(mean, "running mean"), (var, "running variance")] {
                        assert_eq!(t.shape(), (1, cols), "bn_tail {what} must be 1x{cols}");
                    }
                    let mut s = crate::pool_mem::take(2 * cols);
                    s.extend_from_slice(mean.as_slice());
                    s.extend_from_slice(var.as_slice());
                    s
                }
            };
            let input = kernels::BnTailIn {
                x: xv.as_slice(),
                rows,
                cols,
                bias,
                gamma,
                beta,
                stats: &stats,
                eps: tail.eps,
                relu: tail.relu,
            };
            let out = kernels::bn_tail(&input, skip);
            let out_cols = cols + skip.map_or(0, |(_, w)| w);
            (Tensor::from_vec(rows, out_cols, out), Tensor::from_vec(2, cols, stats))
        };
        let batch = matches!(stats, BnStats::Batch);
        let stats = self.leaf(stats_value);
        let out = self.push(out, Op::BnTail(Box::new(BnTailOp { x, tail, stats, batch })));
        (out, stats)
    }

    /// Fused row-wise norm with floor: `sqrt(Σ_cols x² + eps)` (`n×m → n×1`)
    /// in one pass per row, used by the WGAN-GP gradient penalty.
    pub fn row_norm_eps(&self, x: Var, eps: f32) -> Var {
        self.unary(
            x,
            |t| {
                let data = kernels::row_norm_eps(t.as_slice(), t.rows(), t.cols(), eps);
                Tensor::from_vec(t.rows(), 1, data)
            },
            Op::RowNormEps(x),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_values_available_immediately() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.leaf(Tensor::from_rows(&[&[3.0, 4.0]]));
        let c = g.add(a, b);
        assert_eq!(g.value(c), Tensor::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let s = g.softmax_rows(x);
        let sums = g.value(g.sum_cols(s));
        assert!((sums.at(0, 0) - 1.0).abs() < 1e-6);
        assert!((sums.at(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detach_cuts_gradients() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let d = g.detach(x);
        let y = g.mul(x, d); // dy/dx should be d = 2, not 2x = 4
        let dx = g.grad(y, &[x])[0];
        assert_eq!(g.value(dx).item(), 2.0);
    }
}
