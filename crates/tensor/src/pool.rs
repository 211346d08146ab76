//! Deterministic worker pool for the tensor hot loops.
//!
//! The pool is the **only** sanctioned source of data parallelism on the
//! training path: the root `clippy.toml` disallows `std::thread::spawn` and
//! `std::thread::Builder::spawn`, and `spawn_worker` is the one library
//! site that carries an `#[expect]` for it. Its contract, documented in
//! DESIGN.md §8:
//!
//! * **Fixed partitioning** — chunk boundaries are a function of problem
//!   size only, never of the worker count. `set_threads` changes how many
//!   chunks run concurrently, not what any chunk computes.
//! * **Deterministic stitching** — chunk results are placed by chunk index,
//!   so the assembled output is independent of completion order.
//! * **Inline fallback** — with one thread (or a tiny problem) the very same
//!   chunked computation runs on the calling thread, which is what makes
//!   `GTV_THREADS=1` bit-identical to `GTV_THREADS=N`.
//!
//! Jobs must be leaf computations: a job must never submit further work to
//! the pool, otherwise it could wait on a slot occupied by itself.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on configurable workers; keeps a typo'd `GTV_THREADS` from
/// spawning thousands of threads.
const MAX_THREADS: usize = 256;

struct PoolState {
    threads: usize,
    job_tx: Option<Sender<Job>>,
}

struct Pool {
    state: Mutex<PoolState>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Number of multi-chunk fan-outs actually handed to worker threads.
/// Incremented only when jobs cross the pool boundary — inline fallbacks
/// and single-chunk dispatches never touch it — so tests can assert that
/// sub-threshold work stayed on the calling thread.
static DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Total worker fan-outs since process start (monotonic). The determinism
/// contract makes this observable only as scheduling telemetry: *where*
/// chunks ran, never what they computed.
pub fn dispatch_count() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { threads: default_threads(), job_tx: None }),
    })
}

/// Worker count used when `set_threads` has not been called: `GTV_THREADS`
/// if set and parseable, otherwise the machine's available parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "the worker count is the one ambient input: chunking depends on problem size only"
)]
fn default_threads() -> usize {
    let configured = std::env::var("GTV_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    let fallback =
        || std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    configured.unwrap_or_else(fallback).clamp(1, MAX_THREADS)
}

/// Sets the worker count. `1` disables the pool (all work runs inline on
/// the calling thread); results are bit-identical either way. Existing
/// workers wind down once their queue drains; new workers are spawned
/// lazily on the next parallel dispatch.
pub fn set_threads(n: usize) {
    let n = n.clamp(1, MAX_THREADS);
    let mut state = pool().state.lock();
    if state.threads != n {
        state.threads = n;
        // Dropping the sender disconnects the queue; idle workers observe
        // it and exit. In-flight jobs still complete (dispatchers hold a
        // sender clone for the duration of a dispatch).
        state.job_tx = None;
    }
}

/// Current worker count (the determinism contract makes this value
/// unobservable in computed results).
pub fn threads() -> usize {
    pool().state.lock().threads
}

/// Resolves a configuration-level thread request: `0` means "auto" — the
/// `GTV_THREADS` environment variable if set, otherwise the host's
/// available parallelism. Non-zero requests are clamped to the pool's
/// supported range.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested.clamp(1, MAX_THREADS)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the pool is the sanctioned source of threads: chunking depends on problem size only"
)]
fn spawn_worker(index: usize, rx: Receiver<Job>) {
    let spawned = std::thread::Builder::new().name(format!("gtv-pool-{index}")).spawn(move || {
        while let Ok(job) = rx.recv() {
            job();
        }
    });
    // Thread exhaustion is not a correctness problem: dispatch falls back
    // to inline execution when sends fail, so a failed spawn only costs
    // parallelism.
    drop(spawned);
}

/// Returns a live job sender, spawning workers on first use. `None` means
/// single-threaded mode: the caller should run inline.
fn job_sender() -> Option<Sender<Job>> {
    let mut state = pool().state.lock();
    if state.threads <= 1 {
        return None;
    }
    if state.job_tx.is_none() {
        let (tx, rx) = unbounded::<Job>();
        for i in 0..state.threads {
            spawn_worker(i, rx.clone());
        }
        drop(rx);
        state.job_tx = Some(tx);
    }
    state.job_tx.clone()
}

/// Runs `task(chunk_index)` for every chunk in `0..n_chunks` and returns
/// the results ordered by chunk index.
///
/// The caller decides the chunking; this function only decides *where*
/// each chunk runs. With one worker (or one chunk) everything runs inline
/// on the calling thread in index order — same arithmetic, same results.
/// Panics inside a chunk propagate to the caller.
pub(crate) fn run_chunks<R, F>(n_chunks: usize, task: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if n_chunks == 0 {
        return Vec::new();
    }
    let Some(job_tx) = job_sender() else {
        return (0..n_chunks).map(task).collect();
    };
    if n_chunks == 1 {
        return vec![task(0)];
    }
    DISPATCHES.fetch_add(1, Ordering::Relaxed);

    type ChunkResult<R> = (usize, std::thread::Result<R>);
    let task = Arc::new(task);
    let (res_tx, res_rx) = unbounded::<ChunkResult<R>>();
    for i in 0..n_chunks {
        let task = Arc::clone(&task);
        let res_tx = res_tx.clone();
        let job: Job = Box::new(move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| task(i)));
            // A send can only fail after the dispatcher has given up on
            // the dispatch, which it never does before collecting.
            drop(res_tx.send((i, out)));
        });
        if let Err(returned) = job_tx.send(job) {
            // The pool was resized mid-dispatch and every worker exited;
            // run the returned job inline so no chunk is lost.
            (returned.0)();
        }
    }
    drop(res_tx);

    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for _ in 0..n_chunks {
        match res_rx.recv() {
            Ok((i, Ok(value))) => slots[i] = Some(value),
            Ok((_, Err(panic))) => std::panic::resume_unwind(panic),
            // All result senders gone with chunks missing (a worker died
            // outside the catch): finish the stragglers inline below.
            Err(_) => break,
        }
    }
    slots.into_iter().enumerate().map(|(i, slot)| slot.unwrap_or_else(|| task(i))).collect()
}

/// Public ordered fan-out: runs `task(i)` for every `i in 0..n` on the
/// pool and returns the results **in index order**, independent of worker
/// count and completion order (the same contract the tensor kernels rely
/// on). This is the sanctioned entry point for non-kernel subsystems —
/// e.g. the VFL transport's parallel message encoding — whose work items
/// are already independent. With one worker everything runs inline on the
/// calling thread; panics inside a task propagate to the caller.
pub fn run_ordered<R, F>(n: usize, task: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    run_chunks(n, task)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `set_threads` mutates process-global state; serialize the tests
    // that exercise it so they cannot interleave resizes.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn chunk_results_arrive_in_index_order() {
        let _guard = serial();
        set_threads(4);
        let out = run_chunks(16, |i| i * 10);
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        set_threads(1);
        let inline = run_chunks(16, |i| i * 10);
        assert_eq!(out, inline);
    }

    #[test]
    fn resize_is_idempotent_and_clamped() {
        let _guard = serial();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(1);
    }

    #[test]
    fn worker_panic_propagates_to_the_dispatcher() {
        let _guard = serial();
        set_threads(2);
        let caught = std::panic::catch_unwind(|| {
            run_chunks(4, |i| {
                assert!(i != 2, "chunk 2 exploded");
                i
            })
        });
        assert!(caught.is_err(), "a panicking chunk must fail the dispatch");
        set_threads(1);
    }
}
