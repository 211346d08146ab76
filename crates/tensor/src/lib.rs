//! # gtv-tensor
//!
//! Dense 2-D `f32` tensor and an eager define-by-run autograd engine with
//! **higher-order gradients**, built for the GTV (tabular GAN via vertical
//! federated learning) reproduction.
//!
//! Two layers:
//!
//! * [`Tensor`] — plain numeric matrix with broadcasting, matmul, reductions
//!   and the slicing/concatenation primitives vertical federated learning
//!   needs.
//! * [`Graph`] / [`Var`] — an arena-based computation graph. Every op
//!   evaluates eagerly; [`Graph::grad`] *constructs the backward pass as new
//!   graph nodes*, so gradients are themselves differentiable. That property
//!   is what makes the WGAN-GP gradient penalty (a second-order construct)
//!   expressible without any special casing.
//!
//! Hot loops (matmul, elementwise kernels, reductions) fan out over scoped
//! threads that borrow their inputs ([`pool`]): chunk boundaries depend only
//! on problem size, so results are **bit-identical** for any `GTV_THREADS`
//! setting — see DESIGN.md §8 for the full contract. The inner loops are
//! portable 8-lane SIMD micro-kernels ([`simd`] — vectorized tanh /
//! sigmoid / exp with documented ULP bounds and bit-identical scalar
//! tails), and whether an op fans out to the pool at all is a pure
//! function of problem size ([`dispatch`]), so small ops stay inline on
//! the calling thread.
//!
//! Tensor storage comes from a shape-keyed recycling pool ([`pool_mem`]):
//! [`Graph::reset`] returns a finished step's node storage for reuse by the
//! next step, which removes almost all allocation from the training hot
//! loop — see DESIGN.md §9 for the memory model.
//!
//! # Examples
//!
//! ```
//! use gtv_tensor::{Graph, Tensor};
//!
//! // d²/dx² of x³ at x = 2 is 6x = 12.
//! let g = Graph::new();
//! let x = g.leaf(Tensor::scalar(2.0));
//! let x2 = g.mul(x, x);
//! let y = g.mul(x2, x);
//! let dy = g.grad(y, &[x])[0];
//! let d2y = g.grad(dy, &[x])[0];
//! assert_eq!(g.value(d2y).item(), 12.0);
//! ```

mod backward;
pub mod dispatch;
mod graph;
mod kernels;
pub mod pool;
pub mod pool_mem;
pub mod simd;
mod tensor;

pub use graph::{BnStats, BnTail, Graph, Var};
pub use kernels::{BinaryOp, FusedAct, HeadSpan, Layout, SpanAct, UnaryOp};
pub use tensor::Tensor;
