//! Reverse-mode differentiation.
//!
//! [`Graph::grad`] walks the graph in reverse creation order (creation order
//! is a topological order because the graph is eager) and *constructs new
//! nodes* for every vector–Jacobian product that leads to a var it was
//! asked for — a forward sweep marks those first (DESIGN.md §4). Because
//! the backward pass is ordinary graph construction, its outputs can be
//! differentiated again — this is what powers the WGAN-GP gradient penalty.

use crate::graph::{BnTailOp, Graph, Op, Var};
use crate::kernels::{self, FusedAct, Layout, UnaryOp};
use crate::{pool_mem, Tensor};

impl Graph {
    /// Reduces `v` down to `(rows, cols)` by summing over broadcast axes —
    /// the adjoint of broadcasting.
    fn reduce_to(&self, v: Var, rows: usize, cols: usize) -> Var {
        let (vr, vc) = self.shape(v);
        let mut out = v;
        if rows == 1 && vr > 1 {
            out = self.sum_rows(out);
        }
        if cols == 1 && vc > 1 {
            out = self.sum_cols(out);
        }
        debug_assert_eq!(self.shape(out), (rows, cols), "reduce_to produced wrong shape");
        out
    }

    /// Accumulates `contrib` into `adj[i]`.
    fn accumulate(&self, adj: &mut [Option<Var>], i: usize, contrib: Var) {
        adj[i] = Some(match adj[i] {
            Some(existing) => self.add(existing, contrib),
            None => contrib,
        });
    }

    /// The backward arm of a [`Graph::bn_tail`] node `out` with upstream
    /// adjoint `g_out`: the skip's columns of `g_out` as the unfused
    /// `concat_cols` arm slices them, then one kernel call for the rest,
    /// its results accumulated in the unfused chain's order (`β` at the
    /// shift's `Add`, `γ` at the scale's `Mul`, then the input and the bias
    /// at the bias `Add`).
    fn bn_tail_backward(
        &self,
        op: &BnTailOp,
        out: Var,
        g_out: Var,
        adj: &mut [Option<Var>],
        live: impl Fn(Var) -> bool,
    ) {
        let t = &op.tail;
        let (rows, cols) = self.shape(op.x);
        if let Some(skip) = t.skip.filter(|&s| live(s)) {
            let gs = self.slice_cols(g_out, cols, self.shape(skip).1);
            self.accumulate(adj, skip.0, gs);
        }
        let want_bias = t.bias.is_some_and(&live);
        let grads = {
            let nodes = self.nodes.borrow();
            let value = |v: Var| nodes[v.0].value.as_slice();
            let input = kernels::BnTailIn {
                x: value(op.x),
                rows,
                cols,
                bias: t.bias.map(value),
                gamma: value(t.gamma),
                beta: value(t.beta),
                stats: value(op.stats),
                eps: t.eps,
                relu: t.relu,
            };
            let g = &nodes[g_out.0].value;
            kernels::bn_tail_backward(
                &input,
                op.batch,
                g.as_slice(),
                g.cols(),
                live(op.x),
                want_bias,
            )
        };
        let node = |data: Vec<f32>, r: usize| {
            self.push(Tensor::from_vec(r, cols, data), Op::BnTailGrad(out, g_out))
        };
        for (v, data) in [(t.beta, grads.beta), (t.gamma, grads.gamma)] {
            if live(v) {
                let gv = node(data, 1);
                self.accumulate(adj, v.0, gv);
            } else {
                pool_mem::give(data);
            }
        }
        if let Some(dx) = grads.input {
            let gx = node(dx, rows);
            self.accumulate(adj, op.x.0, gx);
        }
        if let (Some(b), Some(db)) = (t.bias, grads.bias) {
            let gb = node(db, 1);
            self.accumulate(adj, b.0, gb);
        }
    }

    /// Marks the nodes below `limit` that a gradient towards `wrt` has to
    /// pass through: the `wrt` vars themselves and every node computed from
    /// one. One forward sweep, because creation order is topological.
    fn reaches(&self, wrt: &[Var], limit: usize) -> Vec<bool> {
        let mut live = vec![false; limit];
        for v in wrt.iter().filter(|v| v.0 < limit) {
            live[v.0] = true;
        }
        let nodes = self.nodes.borrow();
        for i in 0..limit {
            live[i] = live[i] || nodes[i].op.any_input(|v| live[v.0]);
        }
        live
    }

    /// Builds the gradients of `sum(y)` with respect to each var in `wrt`,
    /// as **new graph nodes** (so they can be differentiated again).
    ///
    /// If `y` is not a scalar the result is the gradient of the sum of its
    /// elements, which for row-independent networks yields per-row gradients.
    /// Vars unreachable from `y` get zero gradients of their own shape.
    ///
    /// The pass is **demand-driven**: a vector–Jacobian product is built
    /// only towards an input from which some `wrt` var is reachable, so
    /// `grad(y, &[x])` on `y = x·w` builds no `xᵀ·g`,
    /// and nothing upstream of an interior `wrt` var is visited unless
    /// another `wrt` var lies there. Asking for fewer vars never changes a
    /// returned gradient: the surviving contributions to every adjoint are
    /// built from the same values and summed in the same order as when all
    /// leaves are asked for, so each result is bit-identical to the matching
    /// entry of the all-leaves gradient — first and second order.
    ///
    /// # Examples
    ///
    /// ```
    /// use gtv_tensor::{Graph, Tensor};
    /// let g = Graph::new();
    /// let x = g.leaf(Tensor::row(&[1.0, 2.0]));
    /// let y = g.sum_all(g.square(x));
    /// let dx = g.grad(y, &[x])[0];
    /// assert_eq!(g.value(dx), Tensor::row(&[2.0, 4.0]));
    /// ```
    pub fn grad(&self, y: Var, wrt: &[Var]) -> Vec<Var> {
        let y_shape = self.shape(y);
        let limit = y.0 + 1;
        let live = self.reaches(wrt, limit);
        let live = |v: Var| live[v.0];
        let mut adj: Vec<Option<Var>> = vec![None; limit];
        let seed = self.leaf(Tensor::ones(y_shape.0, y_shape.1));
        adj[y.0] = Some(seed);

        for i in (0..limit).rev() {
            let Some(g_out) = adj[i] else { continue };
            let op = self.nodes.borrow()[i].op.clone();
            // Only live nodes ever receive an adjoint (bar the seed on a `y`
            // that reaches no `wrt` var), and a live node without a live
            // input is a `wrt` var the pass ends at. Past this check a
            // single-input arm knows its input is live.
            if !op.any_input(live) {
                continue;
            }
            let out_var = Var(i);
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    if live(a) {
                        let (ar, ac) = self.shape(a);
                        let ga = self.reduce_to(g_out, ar, ac);
                        self.accumulate(&mut adj, a.0, ga);
                    }
                    if live(b) {
                        let (br, bc) = self.shape(b);
                        let gb = self.reduce_to(g_out, br, bc);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                }
                Op::Sub(a, b) => {
                    if live(a) {
                        let (ar, ac) = self.shape(a);
                        let ga = self.reduce_to(g_out, ar, ac);
                        self.accumulate(&mut adj, a.0, ga);
                    }
                    if live(b) {
                        let (br, bc) = self.shape(b);
                        let neg = self.neg(g_out);
                        let gb = self.reduce_to(neg, br, bc);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                }
                Op::Mul(a, b) => {
                    if live(a) {
                        let (ar, ac) = self.shape(a);
                        let ga_full = self.mul(g_out, b);
                        let ga = self.reduce_to(ga_full, ar, ac);
                        self.accumulate(&mut adj, a.0, ga);
                    }
                    if live(b) {
                        let (br, bc) = self.shape(b);
                        let gb_full = self.mul(g_out, a);
                        let gb = self.reduce_to(gb_full, br, bc);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                }
                Op::Div(a, b) => {
                    // d/da (a/b) = 1/b ; d/db (a/b) = -a/b²
                    if live(a) {
                        let (ar, ac) = self.shape(a);
                        let ga_full = self.div(g_out, b);
                        let ga = self.reduce_to(ga_full, ar, ac);
                        self.accumulate(&mut adj, a.0, ga);
                    }
                    if live(b) {
                        let (br, bc) = self.shape(b);
                        let b2 = self.mul(b, b);
                        let t = self.div(a, b2);
                        let t = self.mul(g_out, t);
                        let t = self.neg(t);
                        let gb = self.reduce_to(t, br, bc);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                }
                Op::Neg(x) => {
                    let gx = self.neg(g_out);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::MatMul(a, b, layout) => {
                    // Every adjoint product reads its transposed operand in
                    // place, so no transpose node is built. Each element is
                    // the chain transpose + matmul would walk, its products
                    // commuted (exact in IEEE), so first and second order
                    // keep their bits.
                    let (ga, gb) = match layout {
                        // c = a·b: (g·bᵀ, aᵀ·g)
                        Layout::Plain => ((g_out, b, Layout::TransB), (a, g_out, Layout::TransA)),
                        // c = a·bᵀ: (g·b, gᵀ·a)
                        Layout::TransB => ((g_out, b, Layout::Plain), (g_out, a, Layout::TransA)),
                        // c = aᵀ·b: (b·gᵀ, a·g)
                        Layout::TransA => ((b, g_out, Layout::TransB), (a, g_out, Layout::Plain)),
                    };
                    if live(a) {
                        let ga = self.matmul_layout(ga.0, ga.1, ga.2);
                        self.accumulate(&mut adj, a.0, ga);
                    }
                    if live(b) {
                        let gb = self.matmul_layout(gb.0, gb.1, gb.2);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                }
                Op::SumAll(x) => {
                    let (r, c) = self.shape(x);
                    let gx = self.broadcast_to(g_out, r, c);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::SumRows(x) | Op::SumCols(x) => {
                    let (r, c) = self.shape(x);
                    let gx = self.broadcast_to(g_out, r, c);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Broadcast(x) => {
                    let (r, c) = self.shape(x);
                    let gx = self.reduce_to(g_out, r, c);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::MulScalar(x, cst) => {
                    let gx = self.mul_scalar(g_out, cst);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::AddScalar(x) => {
                    self.accumulate(&mut adj, x.0, g_out);
                }
                Op::PowScalar(x, p) => {
                    // d/dx x^p = p·x^(p-1)
                    let xp = self.pow_scalar(x, p - 1.0);
                    let xp = self.mul_scalar(xp, p);
                    let gx = self.mul(g_out, xp);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Exp(x) => {
                    let gx = self.mul(g_out, out_var);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Ln(x) => {
                    let gx = self.div(g_out, x);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Sqrt(x) => {
                    // d/dx √x = 1/(2√x) = 1/(2·out)
                    let half = self.mul_scalar(g_out, 0.5);
                    let gx = self.div(half, out_var);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Tanh(x) => {
                    let one_minus = self.tanh_grad(out_var);
                    let gx = self.mul(g_out, one_minus);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::Sigmoid(x) => {
                    let t = self.sigmoid_grad(out_var);
                    let gx = self.mul(g_out, t);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::TanhGrad(y) => {
                    // u = 1 − y² ⇒ du/dy = −2y.
                    let t = self.mul_scalar(y, -2.0);
                    let gy = self.mul(g_out, t);
                    self.accumulate(&mut adj, y.0, gy);
                }
                Op::SigmoidGrad(y) => {
                    // u = y − y² ⇒ du/dy = 1 − 2y.
                    let t = self.mul_scalar(y, -2.0);
                    let t = self.add_scalar(t, 1.0);
                    let gy = self.mul(g_out, t);
                    self.accumulate(&mut adj, y.0, gy);
                }
                Op::Relu(x) => {
                    // Mask is a constant w.r.t. further differentiation
                    // (d²/dx² relu = 0 almost everywhere).
                    let mask = self.with_value(x, |t| t.apply(UnaryOp::ReluMask));
                    let mask = self.leaf(mask);
                    let gx = self.mul(g_out, mask);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::LeakyRelu(x, alpha) => {
                    let mask = self.with_value(x, |t| t.apply(UnaryOp::LeakyReluMask(alpha)));
                    let mask = self.leaf(mask);
                    let gx = self.mul(g_out, mask);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let (_, w) = self.shape(p);
                        if live(p) {
                            let gp = self.slice_cols(g_out, offset, w);
                            self.accumulate(&mut adj, p.0, gp);
                        }
                        offset += w;
                    }
                }
                Op::SliceCols(x, start) => {
                    let (_, total) = self.shape(x);
                    let gx = self.pad_cols(g_out, start, total);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::PadCols(x, start) => {
                    let (_, w) = self.shape(x);
                    let gx = self.slice_cols(g_out, start, w);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::SelectRows(x, at) => {
                    let (rows, _) = self.shape(x);
                    let gx = self.scatter_rows_at(g_out, at, rows);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::ScatterRows(x, at) => {
                    let gx = self.select_rows_at(g_out, at);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::AffineAct(x, w, b, act) => {
                    // Adjoint at the pre-activation `s = x@w + b`, recovered
                    // from the fused *output* alone: tanh/sigmoid gradients
                    // are functions of the output, and the relu/leaky masks
                    // share the output's sign (leaky needs α > 0, asserted
                    // at construction; −0.0 ≥ 0 keeps the edge case exact).
                    // These are the very formulas the unfused activation
                    // arms above emit, so fused and unfused backward — and
                    // double backward — are bit-identical.
                    let g_s = match act {
                        FusedAct::Tanh => {
                            let one_minus = self.tanh_grad(out_var);
                            self.mul(g_out, one_minus)
                        }
                        FusedAct::Sigmoid => {
                            let t = self.sigmoid_grad(out_var);
                            self.mul(g_out, t)
                        }
                        FusedAct::Relu => {
                            let mask = self.with_value(out_var, |t| t.apply(UnaryOp::ReluMask));
                            let mask = self.leaf(mask);
                            self.mul(g_out, mask)
                        }
                        FusedAct::LeakyRelu(alpha) => {
                            let mask = self
                                .with_value(out_var, |t| t.apply(UnaryOp::LeakyReluMask(alpha)));
                            let mask = self.leaf(mask);
                            self.mul(g_out, mask)
                        }
                    };
                    // Bias add, then matmul — exactly the unfused adjoints.
                    if live(b) {
                        let (br, bc) = self.shape(b);
                        let gb = self.reduce_to(g_s, br, bc);
                        self.accumulate(&mut adj, b.0, gb);
                    }
                    if live(x) {
                        let gx = self.matmul_layout(g_s, w, Layout::TransB);
                        self.accumulate(&mut adj, x.0, gx);
                    }
                    if live(w) {
                        let gw = self.matmul_layout(x, g_s, Layout::TransA);
                        self.accumulate(&mut adj, w.0, gw);
                    }
                }
                Op::RowNormEps(x) => {
                    // Unfused chain: sq = x·x, s = Σ_cols sq, out = √(s+eps).
                    // Sqrt adjoint (g/2·out) passes through add_scalar
                    // unchanged, broadcasts back over the row, then the
                    // x·x product contributes twice — mirrored literally so
                    // node values match the unfused backward bit for bit.
                    let (r, c) = self.shape(x);
                    let half = self.mul_scalar(g_out, 0.5);
                    let g_norm = self.div(half, out_var);
                    let g_sq = self.broadcast_to(g_norm, r, c);
                    let p = self.mul(g_sq, x);
                    let q = self.mul(g_sq, x);
                    let gx = self.add(q, p);
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::BnTail(op) => self.bn_tail_backward(&op, out_var, g_out, &mut adj, live),
                Op::BnTailGrad(..) => panic!(
                    "a bn_tail gradient is first order only: differentiating it again is refused"
                ),
                Op::SpanAct(x, at, inv_tau) => {
                    let gx = {
                        let nodes = self.nodes.borrow();
                        let y = &nodes[i].value;
                        let spans = &self.spans.borrow()[at];
                        let g = nodes[g_out.0].value.as_slice();
                        let data =
                            kernels::span_act_backward(y.as_slice(), g, y.cols(), spans, inv_tau);
                        Tensor::from_vec(y.rows(), y.cols(), data)
                    };
                    let gx = self.push(gx, Op::SpanActGrad(out_var, g_out));
                    self.accumulate(&mut adj, x.0, gx);
                }
                Op::SpanActGrad(..) => panic!(
                    "a span_act gradient is first order only: differentiating it again is refused"
                ),
            }
        }

        wrt.iter()
            .map(|v| match adj.get(v.0).copied().flatten() {
                Some(g) => g,
                None => {
                    let (r, c) = self.shape(*v);
                    self.leaf(Tensor::zeros(r, c))
                }
            })
            .collect()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `grad` for a scalar-valued builder.
    fn check_grad(build: impl Fn(&Graph, Var) -> Var, x0: Tensor, tol: f32) {
        let g = Graph::new();
        let x = g.leaf(x0.clone());
        let y = build(&g, x);
        assert_eq!(g.shape(y), (1, 1), "builder must produce a scalar");
        let dx = g.grad(y, &[x])[0];
        let analytic = g.value(dx);

        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let gp = Graph::new();
            let vp = gp.leaf(plus);
            let yp = build(&gp, vp).0;
            let fp = gp.nodes.borrow()[yp].value.item();
            let gm = Graph::new();
            let vm = gm.leaf(minus);
            let ym = build(&gm, vm).0;
            let fm = gm.nodes.borrow()[ym].value.item();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(rows, cols, 0.2, 1.5, &mut rng)
    }

    #[test]
    fn grad_add_mul() {
        check_grad(
            |g, x| {
                let y = g.mul(x, x);
                let z = g.add(y, x);
                g.sum_all(z)
            },
            random_tensor(2, 3, 1),
            1e-2,
        );
    }

    #[test]
    fn grad_div() {
        check_grad(
            |g, x| {
                let c = g.leaf(Tensor::full(2, 3, 2.0));
                let y = g.div(c, x);
                g.sum_all(y)
            },
            random_tensor(2, 3, 2),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        check_grad(
            |g, x| {
                let w = g.leaf(Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.3], &[1.0, 1.0]]));
                let y = g.matmul(x, w);
                let y = g.mul(y, y);
                g.sum_all(y)
            },
            random_tensor(2, 3, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_broadcast_bias() {
        check_grad(
            |g, x| {
                let b = g.leaf(Tensor::row(&[1.0, -2.0, 0.5]));
                let y = g.add(x, b);
                let y = g.mul(y, y);
                g.sum_all(y)
            },
            random_tensor(4, 3, 4),
            1e-2,
        );
    }

    #[test]
    fn grad_through_bias_itself() {
        // Gradient w.r.t. a broadcast row vector must sum over the batch.
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(4, 3));
        let b = g.leaf(Tensor::row(&[0.0, 0.0, 0.0]));
        let y = g.add(x, b);
        let s = g.sum_all(y);
        let db = g.grad(s, &[b])[0];
        assert_eq!(g.value(db), Tensor::row(&[4.0, 4.0, 4.0]));
    }

    #[test]
    fn grad_activations() {
        for act in ["tanh", "sigmoid", "exp", "ln", "sqrt", "leaky"] {
            check_grad(
                move |g, x| {
                    let y = match act {
                        "tanh" => g.tanh(x),
                        "sigmoid" => g.sigmoid(x),
                        "exp" => g.exp(x),
                        "ln" => g.ln(x),
                        "sqrt" => g.sqrt(x),
                        _ => g.leaky_relu(x, 0.2),
                    };
                    g.sum_all(y)
                },
                random_tensor(3, 2, 5),
                2e-2,
            );
        }
    }

    #[test]
    fn grad_softmax() {
        check_grad(
            |g, x| {
                let s = g.softmax_rows(x);
                let w = g.leaf(Tensor::from_rows(&[&[1.0, -1.0, 2.0], &[0.5, 0.5, -0.5]]));
                let y = g.mul(s, w);
                g.sum_all(y)
            },
            random_tensor(2, 3, 6),
            2e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        check_grad(
            |g, x| {
                let a = g.slice_cols(x, 0, 2);
                let b = g.slice_cols(x, 2, 1);
                let b3 = g.concat_cols(&[b, b, b]);
                let sum = g.add(a, g.slice_cols(b3, 0, 2));
                let y = g.mul(sum, sum);
                g.sum_all(y)
            },
            random_tensor(3, 3, 7),
            1e-2,
        );
    }

    #[test]
    fn grad_accumulates_over_multiple_uses() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let y = g.add(x, x); // y = 2x
        let z = g.mul(y, x); // z = 2x²; dz/dx = 4x = 12
        let dx = g.grad(z, &[x])[0];
        assert_eq!(g.value(dx).item(), 12.0);
    }

    #[test]
    fn second_order_polynomial() {
        // y = x⁴ ; y' = 4x³ ; y'' = 12x²
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let x2 = g.mul(x, x);
        let y = g.mul(x2, x2);
        let dy = g.grad(y, &[x])[0];
        assert_eq!(g.value(dy).item(), 32.0);
        let d2y = g.grad(dy, &[x])[0];
        assert_eq!(g.value(d2y).item(), 48.0);
    }

    #[test]
    fn second_order_through_matmul_chain() {
        // Gradient-penalty shape: f(w) = (‖∇_x (x W)·v‖ - 1)², check df/dW
        // numerically via a double-backward construction.
        let mut rng = StdRng::seed_from_u64(11);
        let w0 = Tensor::randn(3, 2, &mut rng);
        let x0 = Tensor::randn(4, 3, &mut rng);

        let f = |w_t: &Tensor| -> f32 {
            let g = Graph::new();
            let w = g.leaf(w_t.clone());
            let x = g.leaf(x0.clone());
            let out = g.matmul(x, w); // (4,2)
            let act = g.tanh(out);
            let s = g.sum_all(act);
            let gx = g.grad(s, &[x])[0]; // (4,3) — depends on w
            let norm = g.l2_norm_rows(gx, 1e-12); // (4,1)
            let shifted = g.add_scalar(norm, -1.0);
            let pen = g.mul(shifted, shifted);
            let y = g.mean_all(pen);
            g.value(y).item()
        };

        // Analytic dGP/dW via double backward.
        let g = Graph::new();
        let w = g.leaf(w0.clone());
        let x = g.leaf(x0.clone());
        let out = g.matmul(x, w);
        let act = g.tanh(out);
        let s = g.sum_all(act);
        let gx = g.grad(s, &[x])[0];
        let norm = g.l2_norm_rows(gx, 1e-12);
        let shifted = g.add_scalar(norm, -1.0);
        let pen = g.mul(shifted, shifted);
        let y = g.mean_all(pen);
        let dw = g.grad(y, &[w])[0];
        let analytic = g.value(dw);

        let eps = 1e-2f32;
        for i in 0..w0.len() {
            let mut plus = w0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = w0.clone();
            minus.as_mut_slice()[i] -= eps;
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= 2e-2 * (1.0 + numeric.abs()),
                "double-backward mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_select_rows_scatter_adds() {
        // y = sum(select_rows(x, [0, 0, 2])) ⇒ dx row 0 gets 2, row 2 gets 1.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]));
        let s = g.select_rows(x, &[0, 0, 2]);
        let y = g.sum_all(s);
        let dx = g.grad(y, &[x])[0];
        assert_eq!(g.value(dx), Tensor::from_rows(&[&[2.0, 2.0], &[0.0, 0.0], &[1.0, 1.0]]));
    }

    #[test]
    fn grad_scatter_rows_selects() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let s = g.scatter_rows(x, &[2, 0], 4);
        assert_eq!(g.value(s), Tensor::from_rows(&[&[2.0], &[0.0], &[1.0], &[0.0]]));
        let w = g.leaf(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
        let y = g.sum_all(g.mul(s, w));
        let dx = g.grad(y, &[x])[0];
        assert_eq!(g.value(dx), Tensor::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn unreachable_var_gets_zero_grad() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(1.0));
        let z = g.leaf(Tensor::row(&[1.0, 2.0]));
        let y = g.mul(x, x);
        let gz = g.grad(y, &[z])[0];
        assert_eq!(g.value(gz), Tensor::zeros(1, 2));
    }

    /// Nodes of each kind (`Debug` name of the op) from index `from` on.
    fn count(g: &Graph, from: usize, kind: &str) -> usize {
        g.nodes.borrow()[from..].iter().filter(|n| format!("{:?}", n.op).starts_with(kind)).count()
    }

    #[test]
    fn grad_builds_no_product_for_an_input_nobody_asked_for() {
        let g = Graph::new();
        let x = g.leaf(random_tensor(4, 3, 1));
        let w = g.leaf(random_tensor(3, 2, 2));
        let y = g.sum_all(g.matmul(x, w));
        let forward = g.len();
        let dx = g.grad(y, &[x])[0];
        // seed, its broadcast, g·wᵀ read in place — and nothing towards `w`.
        assert_eq!(g.len() - forward, 3);
        assert_eq!(count(&g, forward, "MatMul"), 1);
        let both = g.len();
        let grads = g.grad(y, &[x, w]);
        assert_eq!(g.len() - both, 4);
        assert_eq!(g.value(grads[0]), g.value(dx));
    }

    #[test]
    fn grad_wrt_an_interior_var_stops_there() {
        let g = Graph::new();
        let x = g.leaf(random_tensor(4, 3, 3));
        let w = g.leaf(random_tensor(3, 3, 4));
        let b = g.leaf(random_tensor(1, 3, 5));
        let h = g.affine_act(x, w, b, FusedAct::Tanh);
        let y = g.sum_all(g.tanh(h));
        let forward = g.len();
        let dh = g.grad(y, &[h])[0];
        // seed, its broadcast, 1 − tanh², their product: nothing of the
        // affine layer upstream of `h` is differentiated.
        assert_eq!(g.len() - forward, 4);
        assert_eq!(count(&g, forward, "MatMul"), 0);
        assert_eq!(g.shape(dh), (4, 3));
    }

    #[test]
    fn gathered_table_outside_wrt_gets_no_scatter() {
        // The faithful real path: the server gathers `idx` rows of a whole
        // uploaded table. Differentiating the weights behind the gather
        // must not scatter a gradient back into a table-sized zero tensor.
        let g = Graph::new();
        let table = g.leaf(random_tensor(50, 3, 6));
        let w = g.leaf(random_tensor(3, 2, 7));
        let rows = g.select_rows(table, &[7, 7, 31]);
        let y = g.sum_all(g.matmul(rows, w));
        let forward = g.len();
        let _ = g.grad(y, &[w, rows]);
        assert_eq!(count(&g, forward, "ScatterRows"), 0);
        let wide = g.len();
        let _ = g.grad(y, &[w, table]);
        assert_eq!(count(&g, wide, "ScatterRows"), 1);
    }
}
