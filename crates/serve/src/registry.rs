//! The model registry: named, cached generator instances.
//!
//! A [`ModelRegistry`] maps registry names to ready-to-sample
//! [`gtv::Synthesizer`]s — generators rebuilt once from a trained
//! `StateDict` (the `save_weights`/`load_weights` path) and then reused
//! for every request, so serving never pays weight-loading or graph
//! construction per call.
//!
//! Registration parks nothing: the buffer pool is thread-local, and every
//! request is computed on the thread that leads its batch (a connection
//! thread under `SynthServer`), whose pool warms itself on its first
//! requests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use gtv::Synthesizer;
use std::collections::BTreeMap;
use std::convert::Infallible;

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

    /// [`ModelRegistry::insert`] under the name and `Result` that callers
    /// such as gtvbench use; it parks nothing and cannot fail (see the
    /// module docs).
    pub fn insert_warm(
        &mut self,
        name: impl Into<String>,
        synth: Synthesizer,
    ) -> Result<(), Infallible> {
        self.insert(name, synth);
        Ok(())
    }

    /// The synthesizer registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Synthesizer> {
        self.models.get(name)
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
