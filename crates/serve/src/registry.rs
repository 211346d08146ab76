//! The model registry: named, cached, pool-warmed generator instances.
//!
//! A [`ModelRegistry`] maps registry names to ready-to-sample
//! [`gtv::Synthesizer`]s — generators rebuilt once from a trained
//! `StateDict` (the `save_weights`/`load_weights` path) and then reused
//! for every request, so serving never pays weight-loading or graph
//! construction per call.
//!
//! Registration can *warm* the step-scoped buffer pool for a model:
//! [`insert_warm`](ModelRegistry::insert_warm) pins staging buffers sized
//! for a full coalesced chunk via `pool_mem::reserve` and then runs one
//! throwaway forward pass so every layer-intermediate buffer the model
//! will ever need is parked in the pool. Steady-state requests after a
//! warm insert allocate nothing fresh (asserted by the zero-allocation
//! serve test). The pool is thread-local, so warming must happen on the
//! thread that will lead batches — with leader-combining that is any
//! caller thread, each of which warms itself after its first batch.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use gtv::{SynthError, SynthSpec, Synthesizer};
use gtv_tensor::pool_mem;
use std::collections::BTreeMap;

/// Named collection of cached, sample-ready synthesizers.
///
/// Iteration order (and thus `names()`) is the lexicographic order of the
/// registry names: deterministic, independent of insertion history.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Synthesizer>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `synth` under `name`, replacing any previous holder.
    pub fn insert(&mut self, name: impl Into<String>, synth: Synthesizer) {
        self.models.insert(name.into(), synth);
    }

    /// Registers `synth` under `name` and warms the current thread's
    /// buffer pool for it: pins a staging buffer sized for one full
    /// coalesced chunk, then runs a small throwaway forward so the
    /// layer-intermediate buffers are parked too. Returns the number of
    /// buffers pinned by the reservation.
    pub fn insert_warm(
        &mut self,
        name: impl Into<String>,
        synth: Synthesizer,
    ) -> Result<usize, SynthError> {
        let chunk = synth.chunk_rows();
        let parked = pool_mem::reserve(chunk * synth.input_width(), 2);
        let spec = SynthSpec { n: chunk.clamp(1, 64), seed: 0, cond: None };
        synth.synth_one(&spec)?;
        self.models.insert(name.into(), synth);
        Ok(parked)
    }

    /// The synthesizer registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Synthesizer> {
        self.models.get(name)
    }

    /// Mutable access (e.g. to retune a model's chunk size).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Synthesizer> {
        self.models.get_mut(name)
    }

    /// Registered names, lexicographically sorted.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}
