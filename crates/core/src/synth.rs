//! Standalone synthesis engine extracted from the trainer.
//!
//! A [`Synthesizer`] owns everything generation needs — a rebuilt
//! [`SplitGenerator`], each client's fitted [`TableTransformer`], the
//! conditional-vector samplers and layout — and nothing it doesn't: no
//! transport, no discriminator, no shuffler. It is the unit the serving
//! registry caches per model (DESIGN.md §14).
//!
//! # Batching invariance
//!
//! [`Synthesizer::synth_batch`] guarantees that every request's rows are a
//! pure function of the request `(n, seed, cond)` and the model weights —
//! never of the other requests sharing the forward pass or of the internal
//! chunk size. Three mechanisms compose to give that:
//!
//! * request inputs (`z`, conditional vectors) come from a per-request
//!   `StdRng` stream, materialized up front and row-sliced into chunks;
//! * stochastic activations draw noise through [`Ctx::eval_rows`] substreams
//!   keyed by `row_seed(request_seed, row)` — see `gtv_nn::row_seed`;
//! * every eval-mode graph op is row-local (batch-norm uses running
//!   statistics, the matmul kernel choice is per row).
//!
//! The serving engine exploits this to coalesce concurrent requests into
//! one forward pass while answering each byte-identically to a solo run.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::config::GtvConfig;
use crate::generator::SplitGenerator;
use gtv_cond::{ClientCondSampler, CondChoice, CondLayout};
use gtv_data::Table;
use gtv_encoders::TableTransformer;
use gtv_nn::{row_seed, Ctx, LoadStateError, StateDict, Stateful};
use gtv_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Hard ceiling on rows per request, protecting the server from a single
/// request monopolizing memory. Requests above it are rejected up front.
pub const MAX_ROWS_PER_REQUEST: usize = 1 << 20;

/// A fixed conditional constraint: every generated row is conditioned on
/// `column` (client-local index) taking `category`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondSpec {
    /// Which client's table holds the conditioned column.
    pub client: usize,
    /// Client-local column index (must be categorical).
    pub column: usize,
    /// Category index within that column.
    pub category: usize,
}

/// One sampling request: `n` rows from the model seeded with `seed`,
/// optionally pinned to a conditional-vector choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSpec {
    /// Number of rows to generate.
    pub n: usize,
    /// Request seed: fully determines the output together with the weights.
    pub seed: u64,
    /// Optional fixed condition; `None` samples conditions per request from
    /// the original-frequency distribution (the CTGAN generation default).
    pub cond: Option<CondSpec>,
}

/// Typed rejection for an invalid or oversized request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// `n == 0` rows were requested.
    EmptyRequest,
    /// The request exceeds [`MAX_ROWS_PER_REQUEST`].
    TooManyRows {
        /// Rows asked for.
        requested: usize,
        /// The enforced ceiling.
        cap: usize,
    },
    /// `cond.client` does not name a client of this model.
    UnknownClient {
        /// The out-of-range client index.
        client: usize,
        /// How many clients the model has.
        n_clients: usize,
    },
    /// `cond.column` is not a categorical column of that client (or the
    /// client has no categorical columns at all).
    NotCategorical {
        /// The conditioned client.
        client: usize,
        /// The rejected column index.
        column: usize,
    },
    /// `cond.category` is out of range for the conditioned column.
    UnknownCategory {
        /// The conditioned client.
        client: usize,
        /// The conditioned column.
        column: usize,
        /// The rejected category index.
        category: usize,
        /// Exclusive upper bound on valid categories.
        n_categories: usize,
    },
    /// The weight dictionary did not match the model architecture.
    Weights(LoadStateError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EmptyRequest => write!(f, "request asks for zero rows"),
            SynthError::TooManyRows { requested, cap } => {
                write!(f, "request asks for {requested} rows, cap is {cap}")
            }
            SynthError::UnknownClient { client, n_clients } => {
                write!(f, "conditioned client {client} out of range (model has {n_clients})")
            }
            SynthError::NotCategorical { client, column } => {
                write!(f, "column {column} of client {client} is not categorical")
            }
            SynthError::UnknownCategory { client, column, category, n_categories } => {
                write!(
                    f,
                    "category {category} out of range for client {client} column {column} ({n_categories} categories)"
                )
            }
            SynthError::Weights(e) => write!(f, "weight restore failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}

impl From<LoadStateError> for SynthError {
    fn from(e: LoadStateError) -> Self {
        SynthError::Weights(e)
    }
}

/// Per-request inputs materialized up front so chunking cannot change them.
struct Plan {
    g_in: Tensor,
    row_seeds: Vec<u64>,
}

/// A cached, transport-free generation engine for one trained model.
#[derive(Debug)]
pub struct Synthesizer {
    generator: SplitGenerator,
    transformers: Vec<TableTransformer>,
    samplers: Vec<Option<ClientCondSampler>>,
    layout: CondLayout,
    ratios: Vec<f64>,
    embedding_dim: usize,
    chunk_rows: usize,
}

impl Synthesizer {
    /// Rebuilds a generator from its architecture inputs plus a weight
    /// dictionary (generator entries of a [`crate::GtvTrainer::save_weights`]
    /// export) and wraps it with the decode-side state.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Weights`] when the dictionary is missing
    /// entries or shapes them differently — typically a partition, width or
    /// client-count mismatch with the saving run.
    pub fn from_parts(
        config: &GtvConfig,
        transformers: Vec<TableTransformer>,
        samplers: Vec<Option<ClientCondSampler>>,
        ratios: Vec<f64>,
        dict: &StateDict,
    ) -> Result<Self, SynthError> {
        let layout = CondLayout::new(
            samplers.iter().map(|s| s.as_ref().map_or(0, ClientCondSampler::width)).collect(),
        );
        let client_widths: Vec<usize> = transformers.iter().map(TableTransformer::width).collect();
        let client_spans = transformers.iter().map(TableTransformer::spans).collect();
        let g_input = config.embedding_dim + layout.total_width();
        // The init RNG only seeds parameters that load_state overwrites.
        #[expect(
            clippy::disallowed_methods,
            reason = "`config.seed`; load_state overwrites every parameter it initialises"
        )]
        let mut rng = StdRng::seed_from_u64(config.seed);
        let generator =
            SplitGenerator::new(config, g_input, &ratios, &client_widths, client_spans, &mut rng);
        generator.load_state(dict)?;
        Ok(Self {
            generator,
            transformers,
            samplers,
            layout,
            ratios,
            embedding_dim: config.embedding_dim,
            chunk_rows: config.batch.max(1),
        })
    }

    /// Number of clients (vertical shards) behind this model.
    pub fn n_clients(&self) -> usize {
        self.transformers.len()
    }

    /// The internal forward-pass chunk size in rows.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Sets the forward-pass chunk size (the serving engine aligns it with
    /// its coalescing cap so a whole request group runs as one pass).
    /// Chunking never changes output bits — only memory/latency shape.
    pub fn set_chunk_rows(&mut self, rows: usize) {
        self.chunk_rows = rows.max(1);
    }

    /// Width of the generator input (`embedding_dim + CV width`) — the shape
    /// serving warmup pins in the buffer pool.
    pub fn input_width(&self) -> usize {
        self.embedding_dim + self.layout.total_width()
    }

    /// The first conditionable column as `(client, client-local column)`,
    /// if any client holds a categorical column — a convenient default for
    /// smoke requests and serving demos.
    pub fn first_categorical(&self) -> Option<(usize, usize)> {
        self.samplers
            .iter()
            .enumerate()
            .find_map(|(client, s)| s.as_ref().map(|s| (client, s.column_of_slot(0))))
    }

    /// Validates a request without running it.
    ///
    /// # Errors
    ///
    /// Returns the same typed [`SynthError`] `synth_batch` would.
    pub fn validate(&self, spec: &SynthSpec) -> Result<(), SynthError> {
        if spec.n == 0 {
            return Err(SynthError::EmptyRequest);
        }
        if spec.n > MAX_ROWS_PER_REQUEST {
            return Err(SynthError::TooManyRows { requested: spec.n, cap: MAX_ROWS_PER_REQUEST });
        }
        let Some(cond) = &spec.cond else { return Ok(()) };
        let n_clients = self.n_clients();
        if cond.client >= n_clients {
            return Err(SynthError::UnknownClient { client: cond.client, n_clients });
        }
        let Some(sampler) = &self.samplers[cond.client] else {
            return Err(SynthError::NotCategorical { client: cond.client, column: cond.column });
        };
        let Some(slot) = sampler.slot_of_column(cond.column) else {
            return Err(SynthError::NotCategorical { client: cond.client, column: cond.column });
        };
        let n_categories = sampler.categories_of_slot(slot);
        if cond.category >= n_categories {
            return Err(SynthError::UnknownCategory {
                client: cond.client,
                column: cond.column,
                category: cond.category,
                n_categories,
            });
        }
        Ok(())
    }

    /// Generates one request's rows. Equivalent to a singleton
    /// [`Synthesizer::synth_batch`].
    ///
    /// # Errors
    ///
    /// See [`Synthesizer::validate`].
    pub fn synth_one(&self, spec: &SynthSpec) -> Result<Table, SynthError> {
        let mut tables = self.synth_batch(std::slice::from_ref(spec))?;
        match tables.pop() {
            Some(t) => Ok(t),
            // Unreachable: synth_batch returns one table per spec.
            None => Err(SynthError::EmptyRequest),
        }
    }

    /// Generates every request in `specs`, coalescing them into shared
    /// forward passes of at most [`Synthesizer::chunk_rows`] rows. Each
    /// returned table is byte-identical to what the same spec yields solo,
    /// in any grouping, at any `GTV_THREADS` (see the module docs).
    ///
    /// # Errors
    ///
    /// Validation failures reject the *whole* group — the serving engine
    /// validates per request before coalescing, so a bad request never
    /// poisons its batch-mates there.
    pub fn synth_batch(&self, specs: &[SynthSpec]) -> Result<Vec<Table>, SynthError> {
        for spec in specs {
            self.validate(spec)?;
        }
        let plans: Vec<Plan> = specs.iter().map(|s| self.plan(s)).collect();
        let total: usize = specs.iter().map(|s| s.n).sum();
        if total == 0 {
            return Ok(Vec::new());
        }

        // Global row-major stack of all request inputs, then fixed-size
        // forward chunks over it. Chunk boundaries may split a request;
        // row independence makes that unobservable.
        let g_in_refs: Vec<&Tensor> = plans.iter().map(|p| &p.g_in).collect();
        let g_in_all = Tensor::concat_rows(&g_in_refs);
        drop(g_in_refs);
        let seeds_all: Vec<u64> = plans.iter().flat_map(|p| p.row_seeds.iter().copied()).collect();
        for plan in plans {
            plan.g_in.recycle();
        }

        let n_clients = self.n_clients();
        let mut per_client: Vec<Vec<Tensor>> = vec![Vec::new(); n_clients];
        let mut done = 0;
        while done < total {
            let take = self.chunk_rows.min(total - done);
            let rows: Vec<usize> = (done..done + take).collect();
            let chunk = g_in_all.select_rows(&rows);
            let g = Graph::new();
            let ctx = Ctx::eval_rows(&g, seeds_all[done..done + take].to_vec());
            let chunk = g.leaf(chunk);
            let slices = self.generator.top_forward(&ctx, chunk);
            for (c, out) in per_client.iter_mut().enumerate() {
                let (_, act) = self.generator.client_forward(&ctx, c, slices[c]);
                out.push(g.value(act));
            }
            // Each chunk is its own step scope: park its graph storage for
            // the next chunk (and the next request) to recycle.
            g.reset();
            done += take;
        }
        g_in_all.recycle();

        let stacked: Vec<Tensor> = per_client
            .into_iter()
            .map(|chunks| {
                let refs: Vec<&Tensor> = chunks.iter().collect();
                let joined = Tensor::concat_rows(&refs);
                drop(refs);
                for chunk in chunks {
                    chunk.recycle();
                }
                joined
            })
            .collect();

        // Slice each request's row range back out and decode per client.
        let mut out = Vec::with_capacity(specs.len());
        let mut offset = 0;
        for spec in specs {
            let rows: Vec<usize> = (offset..offset + spec.n).collect();
            let shares: Vec<Table> = stacked
                .iter()
                .zip(&self.transformers)
                .map(|(m, t)| {
                    let slice = m.select_rows(&rows);
                    let share = t.decode(&slice);
                    slice.recycle();
                    share
                })
                .collect();
            let refs: Vec<&Table> = shares.iter().collect();
            out.push(Table::hconcat(&refs));
            offset += spec.n;
        }
        for m in stacked {
            m.recycle();
        }
        Ok(out)
    }

    /// Materializes a validated request's inputs from its own seed streams.
    fn plan(&self, spec: &SynthSpec) -> Plan {
        #[expect(clippy::disallowed_methods, reason = "the request's `spec.seed`")]
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let cv = if self.layout.total_width() == 0 {
            None
        } else {
            match &spec.cond {
                Some(cond) => self.fixed_cv(cond, spec.n),
                None => self.sampled_cv(spec.n, &mut rng),
            }
        };
        let z = Tensor::randn(spec.n, self.embedding_dim, &mut rng);
        let g_in = match cv {
            Some(cv) => {
                let joined = Tensor::concat_cols(&[&z, &cv]);
                z.recycle();
                cv.recycle();
                joined
            }
            None => z,
        };
        let row_seeds = (0..spec.n as u64).map(|r| row_seed(spec.seed, r)).collect();
        Plan { g_in, row_seeds }
    }

    /// Every row pinned to the request's fixed condition. `None` only when
    /// validation was skipped and the cond is invalid — callers validate.
    fn fixed_cv(&self, cond: &CondSpec, n: usize) -> Option<Tensor> {
        let sampler = self.samplers.get(cond.client)?.as_ref()?;
        let slot = sampler.slot_of_column(cond.column)?;
        if cond.category >= sampler.categories_of_slot(slot) {
            return None;
        }
        let choice = CondChoice { slot, column: cond.column, category: cond.category };
        let choices = vec![choice; n];
        Some(sampler.materialize(
            &choices,
            self.layout.offset(cond.client),
            self.layout.total_width(),
        ))
    }

    /// Generation-time conditional vectors, mirroring the trainer: one
    /// constructing client drawn ∝ `P_r` per request, then original-frequency
    /// category sampling — all from the request's RNG stream.
    fn sampled_cv(&self, n: usize, rng: &mut StdRng) -> Option<Tensor> {
        let eligible: Vec<usize> =
            (0..self.samplers.len()).filter(|&i| self.samplers[i].is_some()).collect();
        let (&first, rest) = eligible.split_first()?;
        let total: f64 = eligible.iter().map(|&i| self.ratios[i]).sum();
        let mut u = rng.gen::<f64>() * total;
        let mut p = first;
        for &i in std::iter::once(&first).chain(rest) {
            u -= self.ratios[i];
            p = i;
            if u <= 0.0 {
                break;
            }
        }
        let sampler = self.samplers[p].as_ref()?;
        let choices = sampler.sample_batch_original(n, rng);
        Some(sampler.materialize(&choices, self.layout.offset(p), self.layout.total_width()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GtvConfig, GtvTrainer};
    use gtv_data::to_csv_string;
    use gtv_data::Dataset;

    fn smoke_synthesizer() -> Synthesizer {
        let t = Dataset::Loan.generate(96, 3);
        let n = t.n_cols();
        let shards = t.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().expect("smoke round");
        trainer.synthesizer().expect("synthesizer")
    }

    #[test]
    fn solo_and_coalesced_requests_are_byte_identical() {
        let synth = smoke_synthesizer();
        // Condition on the first categorical column of the first client
        // that has one (tests share the module, so fields are visible).
        let (client, sampler) = synth
            .samplers
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .expect("loan data has categorical columns");
        let cond = CondSpec { client, column: sampler.column_of_slot(0), category: 0 };
        let a = SynthSpec { n: 7, seed: 11, cond: None };
        let b = SynthSpec { n: 5, seed: 99, cond: Some(cond) };
        let solo_a = synth.synth_one(&a).expect("solo a");
        let solo_b = synth.synth_one(&b).expect("solo b");
        let coalesced = synth.synth_batch(&[a, b]).expect("coalesced");
        assert_eq!(to_csv_string(&coalesced[0]), to_csv_string(&solo_a));
        assert_eq!(to_csv_string(&coalesced[1]), to_csv_string(&solo_b));
    }

    #[test]
    fn chunk_size_is_unobservable() {
        let mut synth = smoke_synthesizer();
        let spec = SynthSpec { n: 23, seed: 5, cond: None };
        let whole = synth.synth_one(&spec).expect("whole");
        synth.set_chunk_rows(4);
        let chunked = synth.synth_one(&spec).expect("chunked");
        assert_eq!(to_csv_string(&whole), to_csv_string(&chunked));
    }

    #[test]
    fn rebuilt_from_saved_weights_matches_source_trainer() {
        let t = Dataset::Loan.generate(96, 3);
        let n = t.n_cols();
        let shards = t.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().expect("round");
        let dict = trainer.save_weights();

        let direct = trainer.synthesizer().expect("synthesizer");
        let shards2 = t.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
        let mut fresh = GtvTrainer::new(shards2, GtvConfig::smoke());
        fresh.load_weights(&dict).expect("load");
        let rebuilt = fresh.synthesizer().expect("synthesizer");

        let spec = SynthSpec { n: 9, seed: 1234, cond: None };
        assert_eq!(
            to_csv_string(&direct.synth_one(&spec).expect("direct")),
            to_csv_string(&rebuilt.synth_one(&spec).expect("rebuilt")),
        );
    }

    #[test]
    fn invalid_requests_get_typed_errors() {
        let synth = smoke_synthesizer();
        assert_eq!(
            synth.validate(&SynthSpec { n: 0, seed: 0, cond: None }),
            Err(SynthError::EmptyRequest)
        );
        let huge = SynthSpec { n: MAX_ROWS_PER_REQUEST + 1, seed: 0, cond: None };
        assert!(matches!(synth.validate(&huge), Err(SynthError::TooManyRows { .. })));
        let bad_client =
            SynthSpec { n: 1, seed: 0, cond: Some(CondSpec { client: 9, column: 0, category: 0 }) };
        assert!(matches!(synth.validate(&bad_client), Err(SynthError::UnknownClient { .. })));
        let bad_cat = SynthSpec {
            n: 1,
            seed: 0,
            cond: Some(CondSpec { client: 0, column: 1, category: 10_000 }),
        };
        assert!(matches!(
            synth.validate(&bad_cat),
            Err(SynthError::UnknownCategory { .. }) | Err(SynthError::NotCategorical { .. })
        ));
    }
}
