//! Dense, row-major, two-dimensional `f32` tensor.
//!
//! Everything in the GTV stack is batched 2-D data (`rows` = batch,
//! `cols` = features), so the tensor type is deliberately specialized to two
//! dimensions: scalars are `1×1`, row vectors `1×n`, column vectors `n×1`.
//! Broadcasting follows NumPy semantics restricted to those shapes.

use crate::kernels::{self, BinaryOp, Broadcast, Layout, UnaryOp};
use crate::{pool_mem, simd};
use rand::Rng;
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use gtv_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A clone is a copy into pooled storage ([`crate::pool_mem`]), so a clone
/// bound into a graph — a parameter, a data batch — is parked at
/// `Graph::reset` where its storage came from.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool_mem::take(self.data.len());
        data.extend_from_slice(&self.data);
        Self { rows: self.rows, cols: self.cols, data }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
        let n = self.data.len().min(8);
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Tensor {
    /// Creates a tensor from a raw row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = pool_mem::take(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// A `1×1` tensor holding `v`.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// A `1×n` row vector.
    pub fn row(v: &[f32]) -> Self {
        Self::from_vec(1, v.len(), v.to_vec())
    }

    /// An `n×1` column vector.
    pub fn col(v: &[f32]) -> Self {
        Self::from_vec(v.len(), 1, v.to_vec())
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, pool_mem::take_zeroed(rows * cols))
    }

    /// All-ones tensor of the given shape.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self::from_vec(rows, cols, pool_mem::take_filled(rows * cols, v))
    }

    /// Identity matrix of size `n×n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor by evaluating `f(row, col)` at every position, in
    /// row-major order (a random draw in `f` fills the rows in turn).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = pool_mem::take(rows * cols);
        for r in 0..rows {
            data.extend((0..cols).map(|c| f(r, c)));
        }
        Self::from_vec(rows, cols, data)
    }

    /// Standard-normal samples in the given shape (Box–Muller): uniform
    /// pairs `u₁ ∈ [ε, 1)`, `u₂ ∈ [0, 1)` drawn in turn, each pair giving
    /// `ρ·cos θ` then `ρ·sin θ` with `ρ = √(−2·ln u₁)`, `θ = 2π·u₂` (an odd
    /// count drops the last sine). The draws come first, into the output
    /// buffer; the transform then runs in lanes ([`simd::ln`] and
    /// [`simd::sin_cos`]), with no libm call.
    pub fn randn(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let n = rows * cols;
        let pairs = n.div_ceil(2);
        let mut data = pool_mem::take(2 * pairs);
        for _ in 0..pairs {
            data.push(rng.gen_range(f32::EPSILON..1.0));
            data.push(rng.gen_range(0.0..1.0));
        }
        simd::box_muller_pairs(&mut data);
        data.truncate(n);
        Self::from_vec(rows, cols, data)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let mut data = pool_mem::take(rows * cols);
        data.extend((0..rows * cols).map(|_| rng.gen_range(lo..hi)));
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Consumes the tensor and parks its storage in the thread-local
    /// recycling pool ([`crate::pool_mem`]) for the next same-shaped
    /// allocation. Dropping a tensor normally is always correct; recycling
    /// is the fast path the training loop uses via `Graph::reset`.
    pub fn recycle(self) {
        pool_mem::give(self.data);
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1×1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.shape(),
            (1, 1),
            "item() requires a 1x1 tensor, got {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Applies `f` elementwise, returning a new tensor. Always runs on the
    /// calling thread; hot paths use [`Tensor::apply`] with a named kernel
    /// instead.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = pool_mem::take(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Self::from_vec(self.rows, self.cols, data)
    }

    /// Applies a named unary kernel elementwise, chunked over the worker
    /// pool for large tensors (bit-identical at any thread count).
    pub fn apply(&self, op: UnaryOp) -> Self {
        Self::from_vec(self.rows, self.cols, kernels::unary(&self.data, op))
    }

    /// Broadcasting combine with a named binary kernel. The same-shape fast
    /// path is chunked over the worker pool for large tensors; a matrix
    /// against a row or column vector (a bias add, a batch-norm `x − mean`)
    /// runs row by row through the same lane kernels. Every path yields the
    /// bits of the generic [`Tensor::zip`] loop.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_op(&self, other: &Self, op: BinaryOp) -> Self {
        let (rows, cols) = self.broadcast_shape(other);
        if self.shape() == other.shape() {
            return Self::from_vec(rows, cols, kernels::binary(&self.data, &other.data, op));
        }
        // Fast path: one operand has the output's shape and the other is a
        // row or a column vector. Anything else (a `1×1` against a matrix,
        // a row against a column) takes the generic loop.
        let vec_first = other.shape() == (rows, cols);
        let (full, vec) = if vec_first { (other, self) } else { (self, other) };
        let along = match (full.shape() == (rows, cols), vec.shape()) {
            (true, (1, c)) if c == cols => Broadcast::Row,
            (true, (r, 1)) if r == rows => Broadcast::Col,
            _ => return self.zip(other, |a, b| op.eval(a, b)),
        };
        let data = kernels::binary_broadcast(&full.data, &vec.data, cols, along, vec_first, op);
        Self::from_vec(rows, cols, data)
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn broadcast_index(&self, r: usize, c: usize) -> f32 {
        let rr = if self.rows == 1 { 0 } else { r };
        let cc = if self.cols == 1 { 0 } else { c };
        self.data[rr * self.cols + cc]
    }

    /// Output shape of broadcasting `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible (each dimension must
    /// be equal or one of them `1`).
    pub fn broadcast_shape(&self, other: &Self) -> (usize, usize) {
        let rows = match (self.rows, other.rows) {
            (a, b) if a == b => a,
            (1, b) => b,
            (a, 1) => a,
            (a, b) => panic!("cannot broadcast rows {a} with {b}"),
        };
        let cols = match (self.cols, other.cols) {
            (a, b) if a == b => a,
            (1, b) => b,
            (a, 1) => a,
            (a, b) => panic!("cannot broadcast cols {a} with {b}"),
        };
        (rows, cols)
    }

    /// Broadcasting elementwise combine.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let (rows, cols) = self.broadcast_shape(other);
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            let mut data = pool_mem::take(rows * cols);
            data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
            return Self::from_vec(rows, cols, data);
        }
        let mut data = pool_mem::take(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(self.broadcast_index(r, c), other.broadcast_index(r, c)));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Broadcasting addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_op(other, BinaryOp::Add)
    }

    /// Broadcasting subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_op(other, BinaryOp::Sub)
    }

    /// Broadcasting elementwise multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_op(other, BinaryOp::Mul)
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, other: &Self) -> Self {
        self.zip_op(other, BinaryOp::Div)
    }

    /// Adds `v` to every element.
    pub fn add_scalar(&self, v: f32) -> Self {
        self.apply(UnaryOp::AddScalar(v))
    }

    /// Multiplies every element by `v`.
    pub fn mul_scalar(&self, v: f32) -> Self {
        self.apply(UnaryOp::MulScalar(v))
    }

    /// Matrix product `self @ other`, **bit-identical to the naive triple
    /// loop** of fused multiply-adds: each output element is one chain
    /// `s = a_p.mul_add(b_p, s)` in ascending contraction index `p` from
    /// `s = 0`, each term rounded once (one FMA instruction at the
    /// repository's x86-64-v3 build level, libm's correctly rounded `fmaf`
    /// in a baseline build — the same bits). The register-tiled, panel-packed
    /// kernel behind it (DESIGN.md §8) only changes how fast that chain is
    /// walked, so results do not depend on the `GTV_THREADS` setting, on
    /// tile or block remainders, or on which other rows share the batch.
    /// Mostly-zero rows skip their zero terms only when the RHS is entirely
    /// finite, so IEEE non-finite propagation (`0·NaN = NaN`, `0·∞ = NaN`)
    /// is preserved and a diverged training run surfaces as NaNs instead of
    /// being masked as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        self.matmul_layout(other, Layout::Plain)
    }

    /// The product of `self` and `other` with either operand read
    /// transposed, in place: `self·other` ([`Layout::Plain`]),
    /// `self·otherᵀ` ([`Layout::TransB`]) or `selfᵀ·other`
    /// ([`Layout::TransA`]). The same kernel and the same contract as
    /// [`Tensor::matmul`]: each output element is the naive loop's
    /// ascending chain over the operands as the layout reads them, so the
    /// result equals the plain product with a transposed copy bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the contraction lengths the layout pairs up differ.
    pub fn matmul_layout(&self, other: &Self, layout: Layout) -> Self {
        let (n, k) = match layout {
            Layout::TransA => (self.cols, self.rows),
            Layout::Plain | Layout::TransB => (self.rows, self.cols),
        };
        let (k2, m) = match layout {
            Layout::TransB => (other.cols, other.rows),
            Layout::Plain | Layout::TransA => (other.rows, other.cols),
        };
        assert_eq!(
            k, k2,
            "matmul shape mismatch: {}x{} @ {}x{} ({layout:?})",
            self.rows, self.cols, other.rows, other.cols
        );
        Self::from_vec(n, m, kernels::matmul(n, k, m, &self.data, &other.data, layout))
    }

    /// Sum of all elements as a `1×1` tensor (fixed-shape tree reduction,
    /// bit-identical at any thread count).
    pub fn sum_all(&self) -> Self {
        Self::scalar(kernels::sum(&self.data))
    }

    /// Column sums: `(n×m) → (1×m)`.
    pub fn sum_rows(&self) -> Self {
        Self::from_vec(1, self.cols, kernels::col_sums(&self.data, self.rows, self.cols))
    }

    /// Row sums: `(n×m) → (n×1)`.
    pub fn sum_cols(&self) -> Self {
        Self::from_vec(self.rows, 1, kernels::row_sums(&self.data, self.rows, self.cols))
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            kernels::sum(&self.data) / self.data.len() as f32
        }
    }

    /// Broadcasts to the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the current shape cannot be expanded (each dimension must
    /// already match or be `1`).
    pub fn broadcast_to(&self, rows: usize, cols: usize) -> Self {
        assert!(
            (self.rows == rows || self.rows == 1) && (self.cols == cols || self.cols == 1),
            "cannot broadcast {}x{} to {rows}x{cols}",
            self.rows,
            self.cols
        );
        if self.shape() == (rows, cols) {
            return self.clone();
        }
        let mut data = pool_mem::take(rows * cols);
        for r in 0..rows {
            let src = if self.rows == 1 { 0 } else { r };
            if self.cols == cols {
                data.extend_from_slice(self.row_slice(src));
            } else {
                data.resize(data.len() + cols, self.data[src]);
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Horizontal concatenation of tensors with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = pool_mem::take(rows * cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
                data.extend_from_slice(p.row_slice(r));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Vertical concatenation of tensors with equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = pool_mem::take(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        Self::from_vec(rows, cols, data)
    }

    /// Copies columns `start..start + width` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&self, start: usize, width: usize) -> Self {
        assert!(
            start + width <= self.cols,
            "slice_cols {start}..{} out of {} cols",
            start + width,
            self.cols
        );
        let mut data = pool_mem::take(self.rows * width);
        for r in 0..self.rows {
            let base = r * self.cols + start;
            data.extend_from_slice(&self.data[base..base + width]);
        }
        Self::from_vec(self.rows, width, data)
    }

    /// Embeds `self` into an all-zeros `rows×total_cols` tensor starting at
    /// column `start` (adjoint of [`Tensor::slice_cols`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn pad_cols(&self, start: usize, total_cols: usize) -> Self {
        assert!(start + self.cols <= total_cols, "pad_cols: slice does not fit");
        let mut out = Self::zeros(self.rows, total_cols);
        for r in 0..self.rows {
            let dst = r * total_cols + start;
            out.data[dst..dst + self.cols].copy_from_slice(self.row_slice(r));
        }
        out
    }

    /// Gathers the given rows into a new tensor (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = pool_mem::take(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
            data.extend_from_slice(self.row_slice(i));
        }
        Self::from_vec(indices.len(), self.cols, data)
    }

    /// Index of the maximum entry in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row_slice(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Frobenius norm (fixed-shape tree reduction of the squares).
    pub fn frob_norm(&self) -> f32 {
        kernels::sum_squares(&self.data).sqrt()
    }

    /// Maximum absolute element difference between two equal-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row_slice(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(4, 4, &mut rng);
        assert!(a.matmul(&Tensor::eye(4)).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_past_zero_entries() {
        // Regression: the old `a == 0.0` skip dropped 0·NaN and 0·∞ terms,
        // masking a diverged run as zeros. IEEE says both are NaN.
        let a = Tensor::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let b = Tensor::from_rows(&[&[f32::NAN, f32::INFINITY], &[2.0, 3.0]]);
        let c = a.matmul(&b);
        assert!(c.at(0, 0).is_nan(), "0·NaN + 1·2 must be NaN: {c:?}");
        assert!(c.at(0, 1).is_nan(), "0·∞ + 1·3 must be NaN: {c:?}");
        assert!(c.at(1, 0).is_nan(), "0·NaN + 0·2 must be NaN: {c:?}");
        assert!(c.at(1, 1).is_nan(), "0·∞ + 0·3 must be NaN: {c:?}");
    }

    #[test]
    fn matmul_propagates_nan_from_a_sparse_lhs() {
        // A mostly-zero LHS takes the zero-skipping kernel — a NaN in the
        // LHS itself must still poison its row (NaN == 0.0 is false).
        let a = Tensor::from_rows(&[&[0.0, f32::NAN, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let c = a.matmul(&b);
        assert!(c.at(0, 0).is_nan(), "NaN row must stay NaN: {c:?}");
        assert_eq!(c.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_layouts_read_either_operand_transposed() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let at_b = Tensor::from_rows(&[&[26.0, 30.0], &[38.0, 44.0]]);
        let a_bt = Tensor::from_rows(&[&[17.0, 23.0], &[39.0, 53.0]]);
        assert_eq!(a.matmul_layout(&b, Layout::TransA), at_b);
        assert_eq!(a.matmul_layout(&b, Layout::TransB), a_bt);
        // A 1×3 row against a 2×3 matrix read as its 3×2 transpose.
        let r = Tensor::row(&[1.0, 0.0, -1.0]);
        let m = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(r.matmul_layout(&m, Layout::TransB), Tensor::row(&[-2.0, -2.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_layout_rejects_mismatch() {
        let _ = Tensor::zeros(2, 3).matmul_layout(&Tensor::zeros(3, 2), Layout::TransA);
    }

    #[test]
    fn broadcasting_row_and_col() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = Tensor::row(&[10.0, 20.0]);
        let c = Tensor::col(&[100.0, 200.0]);
        assert_eq!(a.add(&r), Tensor::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(a.add(&c), Tensor::from_rows(&[&[101.0, 102.0], &[203.0, 204.0]]));
        let s = Tensor::scalar(1.0);
        assert_eq!(a.add(&s), a.add_scalar(1.0));
    }

    #[test]
    #[should_panic(expected = "cannot broadcast rows")]
    fn broadcasting_rejects_incompatible() {
        let a = Tensor::zeros(2, 2);
        let b = Tensor::zeros(3, 2);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_all().item(), 10.0);
        assert_eq!(a.sum_rows(), Tensor::row(&[4.0, 6.0]));
        assert_eq!(a.sum_cols(), Tensor::col(&[3.0, 7.0]));
        assert_eq!(a.mean_all(), 2.5);
    }

    #[test]
    fn concat_slice_pad_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0], &[6.0]]);
        let cat = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 1), b);
        let padded = b.pad_cols(2, 3);
        assert_eq!(padded.at(0, 2), 5.0);
        assert_eq!(padded.at(0, 0), 0.0);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let cat = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.row_slice(2), &[5.0, 6.0]);
    }

    #[test]
    fn select_rows_gathers_and_repeats() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s, Tensor::from_rows(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::from_rows(&[&[0.1, 0.9, 0.5], &[2.0, 1.0, 2.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(200, 50, &mut rng);
        let mean = t.mean_all();
        let var = t.map(|v| (v - mean) * (v - mean)).mean_all();
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn broadcast_to_expands() {
        let r = Tensor::row(&[1.0, 2.0]);
        let e = r.broadcast_to(3, 2);
        assert_eq!(e.shape(), (3, 2));
        assert_eq!(e.row_slice(2), &[1.0, 2.0]);
    }
}
