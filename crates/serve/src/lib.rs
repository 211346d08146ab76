//! # gtv-serve
//!
//! Synthesis-as-a-service on top of the trained GTV generator: a model
//! registry of cached, pool-warmed [`gtv::Synthesizer`]s, a batching
//! request engine with bounded admission and tick-denominated deadlines,
//! and a length-delimited wire surface (`gtv-cli serve-synth`).
//!
//! The load-bearing property is **batching invariance**: a request's rows
//! are a bit-exact function of `(model, cond, n, seed)` no matter how the
//! engine groups requests into forward passes, how the batch is chunked,
//! or how many worker threads run the kernels (DESIGN.md §14). That is
//! what lets the engine coalesce aggressively — throughput decisions can
//! never change an answer.
//!
//! * [`ModelRegistry`] — named generator instances rebuilt once from
//!   trained weights, with buffer-pool warming;
//! * [`SynthService`] — leader-combining coalescer: bounded queue,
//!   same-model batching, per-request results; [`SynthService::request`]
//!   is the blocking in-process client handle;
//! * [`SynthServer`] / [`ServeConn`] — the socket server and client
//!   speaking [`ServeFrame`]s. `ServeFrame` is a codec on
//!   `gtv_vfl::socket`, the one socket layer the party transport also
//!   runs on; this crate adds no socket code of its own.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

mod engine;
mod registry;
mod server;
mod wire;

pub use engine::{RowsRequest, ServeConfig, ServeError, ServeStats, SynthService, HIST_BUCKETS};
pub use registry::ModelRegistry;
pub use server::{ServeConn, SynthServer};
pub use wire::{
    decode_serve_body, encode_serve_frame, serve_reject_reason, ServeFrame, WireCond,
    MAX_MODEL_NAME, SERVE_PROTOCOL,
};
