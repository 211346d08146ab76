//! The request engine: bounded admission, coalescing, leader-combining.
//!
//! [`SynthService`] is the in-process heart of synthesis serving. Callers
//! submit [`RowsRequest`]s into a bounded queue; whichever caller thread
//! arrives while no batch is in flight becomes the *leader*, pops a
//! coalescible prefix of the queue (same model, up to
//! [`ServeConfig::max_batch_rows`] rows), runs it as ONE batched forward
//! pass through [`gtv::Synthesizer::synth_batch`], publishes every
//! result, and wakes the waiters. There is no dedicated worker thread:
//! concurrency comes from the callers themselves, parallelism inside a
//! batch from the deterministic worker pool.
//!
//! Grouping decisions are **unobservable in the output**: every request's
//! rows are a pure function of `(model, cond, n, seed)` thanks to the
//! per-row noise substreams and per-row kernel dispatch (DESIGN.md §14),
//! so the engine can coalesce aggressively without a bit of drift.
//!
//! Time never enters policy. The engine's clock is its *tick* — the batch
//! sequence number — so scheduling reads no wall clock: deadlines are
//! "expire unless picked up within `deadline_ticks` batches", and
//! `retry_after` hints are denominated in ticks too.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::registry::ModelRegistry;
use gtv::{SynthError, SynthSpec};
use gtv_data::Table;
use gtv_tensor::pool_mem;
use gtv_vfl::{PartyId, TransportError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Number of log2 buckets in the batch-size histogram: bucket `i` counts
/// groups of `2^i ..= 2^(i+1)-1` coalesced requests (last bucket open).
pub const HIST_BUCKETS: usize = 12;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: requests beyond this queue depth are rejected
    /// with [`ServeError::Busy`] instead of waiting.
    pub queue_cap: usize,
    /// Coalescing bound: a batch stops growing once it holds this many
    /// rows (a single larger request still runs alone).
    pub max_batch_rows: usize,
    /// Deadline, in ticks, applied when a request does not carry one.
    pub default_deadline_ticks: u64,
    /// Retry hint attached to [`ServeError::Busy`] rejections.
    pub retry_after_ticks: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 256,
            max_batch_rows: 4096,
            default_deadline_ticks: 1 << 20,
            retry_after_ticks: 1,
        }
    }
}

/// One sampling request as submitted to the engine.
#[derive(Debug, Clone)]
pub struct RowsRequest {
    /// Registry name of the model to sample.
    pub model: String,
    /// What to sample: row count, seed, optional condition.
    pub spec: SynthSpec,
    /// Deadline in ticks; `None` uses
    /// [`ServeConfig::default_deadline_ticks`]. A request expires when
    /// more than this many batches form before it is picked up.
    pub deadline_ticks: Option<u64>,
}

/// Typed serving failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full; retry after the hinted tick count.
    Busy {
        /// Queue depth observed at rejection.
        depth: usize,
        /// How many ticks to wait before retrying.
        retry_after_ticks: u64,
    },
    /// The request's deadline passed before a batch picked it up. Carries
    /// the transport's timeout shape: `waited` holds the tick count (one
    /// millisecond stands for one tick), `round` the expiring batch
    /// sequence number, `expecting` the response frame that will never
    /// come.
    Expired(TransportError),
    /// The request named a model the registry does not hold.
    UnknownModel {
        /// The unmatched registry name.
        model: String,
    },
    /// The request failed the model's validation or its forward pass.
    Invalid(SynthError),
    /// A transport-layer failure (socket clients only).
    Transport(TransportError),
    /// A remote server answered with an error frame (socket clients only).
    Remote {
        /// The server's reason string.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { depth, retry_after_ticks } => {
                write!(f, "queue full at depth {depth}; retry after {retry_after_ticks} tick(s)")
            }
            ServeError::Expired(e) => write!(f, "request deadline expired: {e}"),
            ServeError::UnknownModel { model } => write!(f, "unknown model {model:?}"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::Transport(e) => write!(f, "transport failure: {e}"),
            ServeError::Remote { reason } => write!(f, "server error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SynthError> for ServeError {
    fn from(e: SynthError) -> Self {
        ServeError::Invalid(e)
    }
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}

/// Serving counters, all monotone within one stats window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with rows.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_busy: u64,
    /// Requests rejected at validation (bad model/spec).
    pub rejected_invalid: u64,
    /// Requests dropped because their deadline passed in the queue.
    pub expired: u64,
    /// Coalesced batches run.
    pub groups: u64,
    /// Requests served across all batches.
    pub coalesced_requests: u64,
    /// Rows synthesized across all batches.
    pub coalesced_rows: u64,
    /// Batch-size histogram: bucket `i` counts groups of about `2^i`
    /// requests (see [`HIST_BUCKETS`]).
    pub batch_hist: [u64; HIST_BUCKETS],
    /// Buffer-pool hits observed inside batched forwards.
    pub pool_hits: u64,
    /// Buffer-pool misses observed inside batched forwards.
    pub pool_misses: u64,
}

impl ServeStats {
    /// Pool hit fraction over the window, 1.0 when no requests were seen.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 1.0;
        }
        self.pool_hits as f64 / total as f64
    }

    /// Mean coalesced requests per batch, 0.0 before the first batch.
    pub fn mean_batch(&self) -> f64 {
        if self.groups == 0 {
            return 0.0;
        }
        self.coalesced_requests as f64 / self.groups as f64
    }
}

/// A queued request awaiting a batch.
#[derive(Debug)]
struct Pending {
    ticket: u64,
    model: String,
    spec: SynthSpec,
    admit_tick: u64,
    deadline_ticks: u64,
}

#[derive(Debug, Default)]
struct EngineState {
    queue: VecDeque<Pending>,
    results: BTreeMap<u64, Result<Table, ServeError>>,
    next_ticket: u64,
    tick: u64,
    leading: bool,
    stats: ServeStats,
}

/// The batching synthesis engine; see the module docs for the protocol.
///
/// Shared across threads behind an `Arc`; [`request`](Self::request) is
/// the blocking in-process client handle used by tests, benches and the
/// socket server alike.
#[derive(Debug)]
pub struct SynthService {
    registry: ModelRegistry,
    config: ServeConfig,
    state: Mutex<EngineState>,
    done: Condvar,
}

impl SynthService {
    /// Wraps a loaded registry with the given tuning.
    pub fn new(registry: ModelRegistry, config: ServeConfig) -> Self {
        Self { registry, config, state: Mutex::new(EngineState::default()), done: Condvar::new() }
    }

    /// The model registry this service answers from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The engine tuning in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A poisoned lock is recovered, matching parking_lot semantics: the
    /// engine state is counters and queues, valid at every step.
    fn locked(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Validates and admits one request, returning its ticket.
    ///
    /// Rejection is immediate and typed: [`ServeError::UnknownModel`] /
    /// [`ServeError::Invalid`] for bad requests, [`ServeError::Busy`]
    /// once the queue holds [`ServeConfig::queue_cap`] entries.
    pub fn submit(&self, req: &RowsRequest) -> Result<u64, ServeError> {
        let synth = self
            .registry
            .get(&req.model)
            .ok_or_else(|| ServeError::UnknownModel { model: req.model.clone() })?;
        if let Err(e) = synth.validate(&req.spec) {
            let mut st = self.locked();
            st.stats.rejected_invalid += 1;
            return Err(ServeError::Invalid(e));
        }
        let mut st = self.locked();
        if st.queue.len() >= self.config.queue_cap {
            st.stats.rejected_busy += 1;
            return Err(ServeError::Busy {
                depth: st.queue.len(),
                retry_after_ticks: self.config.retry_after_ticks,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.stats.submitted += 1;
        let deadline_ticks = req.deadline_ticks.unwrap_or(self.config.default_deadline_ticks);
        let admit_tick = st.tick;
        st.queue.push_back(Pending {
            ticket,
            model: req.model.clone(),
            spec: req.spec,
            admit_tick,
            deadline_ticks,
        });
        Ok(ticket)
    }

    /// Removes and returns the result for `ticket`, if resolved.
    pub fn try_take(&self, ticket: u64) -> Option<Result<Table, ServeError>> {
        self.locked().results.remove(&ticket)
    }

    /// Requests currently queued (admitted, not yet batched).
    pub fn queue_depth(&self) -> usize {
        self.locked().queue.len()
    }

    /// The current tick (count of batches formed so far).
    pub fn tick(&self) -> u64 {
        self.locked().tick
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.locked().stats.clone()
    }

    /// Zeroes the serving counters (steady-state measurement windows).
    pub fn reset_stats(&self) {
        self.locked().stats = ServeStats::default();
    }

    /// Runs at most one coalesced batch as leader; returns how many
    /// requests it resolved (including expiries). Returns 0 when another
    /// thread is already leading or the queue is empty.
    pub fn pump(&self) -> usize {
        let mut st = self.locked();
        if st.leading || st.queue.is_empty() {
            return 0;
        }
        st.leading = true;
        st.tick += 1;
        let tick = st.tick;
        let mut group: Vec<Pending> = Vec::new();
        let mut group_rows = 0usize;
        let mut resolved = 0usize;
        while let Some(front) = st.queue.front() {
            if tick > front.admit_tick.saturating_add(front.deadline_ticks) {
                let waited = tick - front.admit_tick;
                if let Some(p) = st.queue.pop_front() {
                    st.results.insert(p.ticket, Err(expired(waited, tick)));
                    st.stats.expired += 1;
                    resolved += 1;
                }
                continue;
            }
            if let Some(first) = group.first() {
                let same_model = front.model == first.model;
                if !same_model || group_rows + front.spec.n > self.config.max_batch_rows {
                    break;
                }
            }
            group_rows += front.spec.n;
            if let Some(p) = st.queue.pop_front() {
                group.push(p);
            }
        }
        drop(st);

        let mut outcomes: Vec<(u64, Result<Table, ServeError>)> = Vec::new();
        let mut pool_delta = (0u64, 0u64);
        if let Some(first) = group.first() {
            let before = pool_mem::stats();
            match self.registry.get(&first.model) {
                Some(synth) => {
                    let specs: Vec<SynthSpec> = group.iter().map(|p| p.spec).collect();
                    match synth.synth_batch(&specs) {
                        Ok(tables) => {
                            for (p, t) in group.iter().zip(tables) {
                                outcomes.push((p.ticket, Ok(t)));
                            }
                        }
                        Err(e) => {
                            for p in &group {
                                outcomes.push((p.ticket, Err(ServeError::Invalid(e.clone()))));
                            }
                        }
                    }
                }
                None => {
                    for p in &group {
                        let model = p.model.clone();
                        outcomes.push((p.ticket, Err(ServeError::UnknownModel { model })));
                    }
                }
            }
            let after = pool_mem::stats();
            pool_delta = (
                after.hits.saturating_sub(before.hits),
                after.misses.saturating_sub(before.misses),
            );
        }

        let mut st = self.locked();
        let completed = outcomes.iter().filter(|(_, r)| r.is_ok()).count();
        resolved += outcomes.len();
        for (ticket, outcome) in outcomes {
            st.results.insert(ticket, outcome);
        }
        if !group.is_empty() {
            st.stats.groups += 1;
            st.stats.coalesced_requests += as_u64(group.len());
            st.stats.coalesced_rows += as_u64(group_rows);
            st.stats.completed += as_u64(completed);
            st.stats.batch_hist[hist_bucket(group.len())] += 1;
            st.stats.pool_hits += pool_delta.0;
            st.stats.pool_misses += pool_delta.1;
        }
        st.leading = false;
        drop(st);
        self.done.notify_all();
        resolved
    }

    /// Submits one request and blocks until its result is available —
    /// the in-process client handle. The calling thread cooperates in
    /// leader-combining: it runs batches itself whenever no other thread
    /// is leading, and otherwise parks on the engine's condvar.
    pub fn request(&self, req: &RowsRequest) -> Result<Table, ServeError> {
        let ticket = self.submit(req)?;
        loop {
            if let Some(result) = self.try_take(ticket) {
                return result;
            }
            if self.pump() > 0 {
                continue;
            }
            let st = self.locked();
            if st.results.contains_key(&ticket) {
                continue;
            }
            if !st.leading && !st.queue.is_empty() {
                // Lost a race: leadership freed between pump() and here.
                continue;
            }
            // Bounded park: wakes on batch completion (notify_all) and at
            // worst re-polls at the poll period, so a missed notification
            // can never hang the caller.
            let _ = self.done.wait_timeout(st, PARK_POLL).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Re-poll period for parked request() callers; wake-ups are normally
/// driven by the leader's notify_all, this only bounds the worst case.
const PARK_POLL: Duration = Duration::from_millis(20);

/// Deadline expiry in the transport's timeout shape: one millisecond of
/// `waited` stands for one engine tick.
fn expired(waited_ticks: u64, tick: u64) -> ServeError {
    let timeout = TransportError::Timeout {
        party: PartyId::Server,
        waited: Duration::from_millis(waited_ticks),
        round: Some(tick),
        expecting: None,
    };
    ServeError::Expired(timeout.with_expecting("SynthRows"))
}

/// Saturating usize→u64 for counters (lossless on every supported target).
fn as_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// log2 bucket index for a group of `n` requests, clamped to the table.
fn hist_bucket(n: usize) -> usize {
    let mut bucket = 0usize;
    let mut v = n.max(1);
    while v > 1 && bucket + 1 < HIST_BUCKETS {
        v >>= 1;
        bucket += 1;
    }
    bucket
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(usize::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn unknown_model_is_rejected_at_submit() {
        let service = SynthService::new(ModelRegistry::new(), ServeConfig::default());
        let req = RowsRequest {
            model: "nope".to_string(),
            spec: SynthSpec { n: 1, seed: 0, cond: None },
            deadline_ticks: None,
        };
        assert!(matches!(service.submit(&req), Err(ServeError::UnknownModel { .. })));
        assert_eq!(service.queue_depth(), 0);
    }
}
