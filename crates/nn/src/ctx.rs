//! Per-step forward context.

use crate::param::ParamBinder;
use gtv_tensor::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Per-row noise substreams: noise drawn through [`Ctx::gumbel_noise`] depends
/// only on `(seeds[row], node_index, col)`, never on the batch composition, so
/// a forward over rows `[a, b]` produces bit-identical slices to two forwards
/// over `[a]` and `[b]`. The node index counts stochastic activation sites in
/// traversal order, which is fixed for a given network structure.
struct RowNoise {
    seeds: Vec<u64>,
    node: Cell<u64>,
}

/// Everything a layer needs during one forward/backward step: the graph to
/// build into, the parameter binder, the train/eval mode and a seeded RNG
/// (dropout masks, Gumbel noise).
pub struct Ctx<'g> {
    g: &'g Graph,
    binder: ParamBinder,
    rng: RefCell<StdRng>,
    train: bool,
    row_noise: Option<RowNoise>,
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ctx(train={}, {} params bound)", self.train, self.binder.len())
    }
}

impl<'g> Ctx<'g> {
    /// Creates a training-mode context.
    #[expect(clippy::disallowed_methods, reason = "the caller's `seed`")]
    pub fn train(g: &'g Graph, seed: u64) -> Self {
        Self {
            g,
            binder: ParamBinder::new(),
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            train: true,
            row_noise: None,
        }
    }

    /// Creates an inference-mode context (dropout off, batch-norm uses
    /// running statistics).
    #[expect(clippy::disallowed_methods, reason = "the caller's `seed`")]
    pub fn eval(g: &'g Graph, seed: u64) -> Self {
        Self {
            g,
            binder: ParamBinder::new(),
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            train: false,
            row_noise: None,
        }
    }

    /// Creates an inference-mode context whose stochastic activations draw
    /// noise from per-row substreams instead of the single sequential step
    /// RNG. `row_seeds[r]` fully determines the noise row `r` will see at
    /// every stochastic site, so batches can be coalesced or split without
    /// changing any row's output (the serving engine relies on this for
    /// bit-reproducible request coalescing).
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller's first row seed; an empty batch seeds it with the literal 0, and a draw whose row count misses the substreams then reads a stream no request seed chose"
    )]
    pub fn eval_rows(g: &'g Graph, row_seeds: Vec<u64>) -> Self {
        Self {
            g,
            binder: ParamBinder::new(),
            // The sequential RNG stays available as a fallback for callers
            // that draw noise with a row count that does not match the
            // registered substreams; seed it from the first row seed so the
            // fallback is still deterministic.
            rng: RefCell::new(StdRng::seed_from_u64(row_seeds.first().copied().unwrap_or(0))),
            train: false,
            row_noise: Some(RowNoise { seeds: row_seeds, node: Cell::new(0) }),
        }
    }

    /// The graph being built.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The parameter binder for this step.
    pub fn binder(&self) -> &ParamBinder {
        &self.binder
    }

    /// True in training mode.
    pub fn is_train(&self) -> bool {
        self.train
    }

    /// Runs `f` with the step RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut self.rng.borrow_mut())
    }

    /// True when this context was built with [`Ctx::eval_rows`].
    pub fn has_row_noise(&self) -> bool {
        self.row_noise.is_some()
    }

    /// Standard-uniform draw in `[EPSILON, 1)` for stochastic activations.
    ///
    /// With per-row substreams registered (and a matching row count) the
    /// value at `(r, c)` is a pure function of `(seeds[r], node, c)` where
    /// `node` is the index of this call site in traversal order — batch
    /// composition cannot influence it. Otherwise the draw comes from the
    /// sequential step RNG, preserving the historical behaviour.
    pub fn uniform_noise(&self, rows: usize, cols: usize) -> gtv_tensor::Tensor {
        use rand::Rng;
        if let Some(rn) = &self.row_noise {
            if rn.seeds.len() == rows {
                let node = rn.node.get();
                rn.node.set(node.wrapping_add(1));
                return gtv_tensor::Tensor::from_fn(rows, cols, |r, c| {
                    let word = mix64(
                        rn.seeds[r]
                            .wrapping_add(mix64(node.wrapping_add(0x9e37_79b9_7f4a_7c15)))
                            .wrapping_add(mix64(c as u64 ^ 0xd1b5_4a32_d192_ed03)),
                    );
                    // Top 24 bits -> f32 in [0, 1); clamp away exact zero.
                    let u = ((word >> 40) as f32) * (1.0 / 16_777_216.0);
                    u.max(f32::EPSILON)
                });
            }
        }
        self.with_rng(|rng| {
            gtv_tensor::Tensor::from_fn(rows, cols, |_, _| rng.gen_range(f32::EPSILON..1.0))
        })
    }
}

/// Derives the noise-substream seed for row `row` of a request seeded with
/// `request_seed`. Serving code uses this so that a request split across
/// forward chunks (or coalesced with neighbours) still hands every row the
/// same substream.
pub fn row_seed(request_seed: u64, row: u64) -> u64 {
    mix64(request_seed ^ mix64(row.wrapping_add(0x2545_f491_4f6c_dd1d)))
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
