//! # gtv-nn
//!
//! Neural-network layers, blocks and optimizers on top of
//! [`gtv_tensor`], shaped for the CTGAN-style networks the GTV paper uses:
//!
//! * [`Linear`], [`BatchNorm1d`], [`Dropout`] layers;
//! * the generator's [`ResidualBlock`] (FC → BN → ReLU, concat skip) and the
//!   discriminator's [`FnBlock`] (FC → LeakyReLU → Dropout);
//! * [`head_activations`], a tabular generator's output head (tanh and
//!   Gumbel-softmax spans) as one graph node;
//! * [`Adam`] (CTGAN defaults) and [`Sgd`] optimizers;
//! * the [`Param`] / [`ParamBinder`] machinery that binds persistent
//!   parameters into per-step autograd graphs.
//!
//! # Examples
//!
//! ```
//! use gtv_nn::{Ctx, Init, Linear};
//! use gtv_tensor::{Graph, Tensor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new("demo", 4, 2, Init::KaimingUniform, &mut rng);
//! let g = Graph::new();
//! let ctx = Ctx::eval(&g, 0);
//! let x = g.leaf(Tensor::ones(3, 4));
//! let y = layer.forward(&ctx, x);
//! assert_eq!(g.shape(y), (3, 2));
//! ```

mod activations;
mod blocks;
mod ctx;
mod init;
mod layers;
mod optim;
mod param;
mod state;

pub use activations::{head_activations, softmax_tempered};
pub use blocks::{FnBlock, ResidualBlock};
pub use ctx::{row_seed, Ctx};
pub use init::Init;
pub use layers::{BatchNorm1d, Dropout, Linear};
pub use optim::{Adam, AdamConfig, Sgd};
pub use param::{Module, Param, ParamBinder};
pub use state::{LoadStateError, StateDict, Stateful};
