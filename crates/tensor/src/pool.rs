//! Deterministic fan-out for the tensor hot loops.
//!
//! [`run_ordered`] is the **only** sanctioned source of data parallelism on
//! the training path: the root `clippy.toml` disallows `std::thread::spawn`,
//! `std::thread::Builder::spawn` and `std::thread::Scope::spawn`, and the
//! scoped spawn below is the one library site that carries an `#[expect]`
//! for it. A parallel call runs its chunks on scoped threads that borrow the
//! caller's data and are joined before it returns; no thread outlives a
//! call. Its contract, documented in DESIGN.md §8:
//!
//! * **Fixed partitioning** — chunk boundaries are a function of problem
//!   size only, never of the worker count. `set_threads` changes how many
//!   chunks run concurrently, not what any chunk computes.
//! * **Deterministic stitching** — chunk results are placed by chunk index,
//!   so the assembled output is independent of completion order.
//! * **Inline fallback** — with one thread (or a tiny problem) the very same
//!   chunked computation runs on the calling thread, which is what makes
//!   `GTV_THREADS=1` bit-identical to `GTV_THREADS=N`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Upper bound on configurable workers; keeps a typo'd `GTV_THREADS` from
/// spawning thousands of threads.
const MAX_THREADS: usize = 256;

/// The worker count; `0` until the first `threads` or `set_threads` call.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of multi-chunk fan-outs actually handed to worker threads.
/// Incremented only when chunks leave the calling thread — inline fallbacks
/// and single-chunk dispatches never touch it — so tests can assert that
/// sub-threshold work stayed on the calling thread.
static DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Total worker fan-outs since process start (monotonic). The determinism
/// contract makes this observable only as scheduling telemetry: *where*
/// chunks ran, never what they computed.
pub fn dispatch_count() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
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

/// Sets the worker count. `1` disables fan-out (all work runs inline on
/// the calling thread); results are bit-identical either way. Takes effect
/// from the next parallel call.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Current worker count (the determinism contract makes this value
/// unobservable in computed results).
pub fn threads() -> usize {
    if THREADS.load(Ordering::Relaxed) == 0 {
        // A concurrent first `set_threads` wins over the default.
        let _ =
            THREADS.compare_exchange(0, default_threads(), Ordering::Relaxed, Ordering::Relaxed);
    }
    THREADS.load(Ordering::Relaxed)
}

/// Resolves a configuration-level thread request: `0` means "auto" — the
/// `GTV_THREADS` environment variable if set, otherwise the host's
/// available parallelism. Non-zero requests are clamped to the supported
/// range.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested.clamp(1, MAX_THREADS)
    }
}

/// Runs `task(i)` for every `i in 0..n` and returns the results **in index
/// order**, independent of worker count and completion order. The caller
/// decides the chunking; this function only decides *where* each chunk
/// runs. The tensor kernels and the VFL transport's parallel message
/// encoding both go through it.
///
/// The chunks are split into [`threads`] contiguous runs; the calling
/// thread computes the first and scoped threads the rest, borrowing
/// whatever `task` borrows. With one worker (or one chunk) everything runs
/// inline in index order — same arithmetic, same results. A panic inside a
/// chunk reaches the caller with its own payload.
pub fn run_ordered<R, F>(n: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fan_out(threads().min(n), n, &task)
}

fn fan_out<R: Send>(workers: usize, n: usize, task: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let run = move |w: usize| (w * n / workers..(w + 1) * n / workers).map(task).collect();
    std::thread::scope(|s| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool is the sanctioned source of threads: chunking depends on problem size only"
        )]
        let helpers: Vec<_> = (1..workers).map(|w| s.spawn(move || run(w))).collect();
        let mut out: Vec<R> = run(0);
        for helper in helpers {
            match helper.join() {
                Ok(part) => out.extend(part),
                // Joined by hand, so the scope does not swap the payload
                // for its own "a scoped thread panicked".
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_arrive_in_index_order() {
        for workers in [1, 2, 4, 16, 32] {
            let out = fan_out(workers, 16, &|i| i * 10);
            assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>(), "{workers} workers");
        }
        // Every chunk reads a local the caller still owns: the workers
        // borrow it rather than a copy.
        let local: Vec<u64> = (0..1000).map(|v| v * v).collect();
        let sums = fan_out(3, 10, &|i| local[i * 100..(i + 1) * 100].iter().sum::<u64>());
        let inline: Vec<u64> = local.chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, inline);
    }

    #[test]
    fn resize_is_idempotent_and_clamped() {
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(1);
    }

    /// `expected` matches the payload that reaches the caller: the scope's
    /// own "a scoped thread panicked" would fail it.
    #[test]
    #[should_panic(expected = "chunk 2 exploded")]
    fn worker_panic_propagates_to_the_dispatcher() {
        fan_out(2, 4, &|i| {
            assert!(i != 2, "chunk 2 exploded");
            i
        });
    }
}
