//! Deterministic fan-out for the tensor hot loops and for the parties.
//!
//! [`run_ordered`] and [`run_per_party`] are the only sanctioned sources of
//! parallelism on the training path: the root `clippy.toml` disallows
//! `std::thread::spawn`, `std::thread::Builder::spawn` and
//! `std::thread::Scope::spawn`, and the scoped spawn below, which both
//! share, is the one library site on the training path that carries an
//! `#[expect]` for it (the other, the socket layer's accept-and-serve loop,
//! only moves frames). A parallel call runs its work on scoped threads that
//! borrow the caller's data and are joined before it returns; no thread
//! outlives a call. The contract, documented in DESIGN.md §8:
//!
//! * **Fixed partitioning** — [`run_ordered`]'s chunk boundaries are a
//!   function of problem size only, never of the worker count.
//!   `set_threads` changes how many chunks run concurrently, not what any
//!   chunk computes. [`run_per_party`]'s unit is a party, which owns its
//!   input: one thread per party, whatever `set_threads` says.
//! * **Deterministic stitching** — results are placed by chunk or party
//!   index, so the assembled output is independent of completion order.
//! * **Inline fallback** — with one thread (or a tiny problem) the very same
//!   chunked computation runs on the calling thread, which is what makes
//!   `GTV_THREADS=1` bit-identical to `GTV_THREADS=N`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Upper bound on configurable workers; keeps a typo'd `GTV_THREADS` from
/// spawning thousands of threads.
const MAX_THREADS: usize = 256;

/// The worker count; `0` until the first `threads` or `set_threads` call.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of multi-chunk (or multi-party) fan-outs actually handed to
/// worker threads. Incremented only when work leaves the calling thread —
/// inline fallbacks and single-chunk dispatches never touch it — so tests
/// can assert that sub-threshold work stayed on the calling thread.
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
    // A `Vec` of `()` allocates nothing, whatever its length.
    fan_out(threads().min(n), vec![(); n], &|i, ()| task(i))
}

/// Runs `work(i, party)` for every party, one thread per party, and returns
/// the results **in party order**. The trainer does each client's
/// table-sized work through it: the rows of a whole-table upload, and the
/// encoder fit at construction — work that belongs to the party, as it
/// would run on the party's own machine.
///
/// The calling thread runs the first party and a scoped thread each of the
/// others, whatever [`threads`] says: that sizes the kernel pool, not the
/// number of parties. Only `MAX_THREADS` caps it; past the cap, parties
/// share threads in contiguous runs. Each party owns what it is handed and
/// borrows what `work` borrows, so no result can depend on where a party
/// ran. A buffer a party takes from [`crate::pool_mem`] comes from its
/// thread's pool, which is empty and dies with the thread: take pooled
/// storage on the caller and hand it in. A party's panic reaches the
/// caller with its own payload.
pub fn run_per_party<P, R, F>(parties: Vec<P>, work: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    fan_out(party_threads(parties.len()), parties, &work)
}

/// Threads for `parties` parties: one each, up to `MAX_THREADS`.
fn party_threads(parties: usize) -> usize {
    parties.min(MAX_THREADS)
}

/// Runs `task(i, item)` for every item, split into `workers` contiguous
/// runs: the caller computes the first, a scoped thread each of the rest.
fn fan_out<P: Send, R: Send>(
    workers: usize,
    mut items: Vec<P>,
    task: &(impl Fn(usize, P) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| task(i, item)).collect();
    }
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let start = move |w: usize| w * n / workers;
    let run = move |w: usize, part: Vec<P>| -> Vec<R> {
        part.into_iter().enumerate().map(|(k, item)| task(start(w) + k, item)).collect()
    };
    std::thread::scope(|s| {
        // Runs are cut off the back, so each `split_off` leaves the caller
        // exactly the runs before it.
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool is the sanctioned source of threads: what a chunk or a party computes does not depend on where it runs"
        )]
        let helpers: Vec<_> = (1..workers)
            .rev()
            .map(|w| {
                let part = items.split_off(start(w));
                s.spawn(move || run(w, part))
            })
            .collect();
        let mut out: Vec<R> = run(0, items);
        for helper in helpers.into_iter().rev() {
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
            let out = fan_out(workers, vec![(); 16], &|i, ()| i * 10);
            assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>(), "{workers} workers");
        }
        // Every chunk reads a local the caller still owns: the workers
        // borrow it rather than a copy.
        let local: Vec<u64> = (0..1000).map(|v| v * v).collect();
        let sums =
            fan_out(3, vec![(); 10], &|i, ()| local[i * 100..(i + 1) * 100].iter().sum::<u64>());
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
        fan_out(2, vec![(); 4], &|i, ()| {
            assert!(i != 2, "chunk 2 exploded");
            i
        });
    }

    #[test]
    fn party_results_arrive_in_party_order() {
        let parties: Vec<String> = (0..5).map(|p| format!("party {p}")).collect();
        let out = run_per_party(parties, |i, name| format!("{name} ran as {i}"));
        assert_eq!(out, (0..5).map(|p| format!("party {p} ran as {p}")).collect::<Vec<_>>());
    }

    thread_local! {
        static ON_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// The kernel pool's size does not bound the parties: with one kernel
    /// thread every party but the first still runs on a thread of its own.
    #[test]
    fn every_party_but_the_first_runs_off_the_callers_thread() {
        set_threads(1);
        ON_CALLER.with(|c| c.set(true));
        let on_caller = run_per_party(vec![(); 4], |_, ()| ON_CALLER.with(std::cell::Cell::get));
        assert_eq!(on_caller, [true, false, false, false]);
    }

    #[test]
    #[should_panic(expected = "party 2 exploded")]
    fn party_panic_propagates_to_the_caller() {
        run_per_party(vec![(); 4], |i, ()| {
            assert!(i != 2, "party 2 exploded");
            i
        });
    }

    /// Arithmetic only: a test that asks for more than `MAX_THREADS`
    /// parties would start hundreds of threads.
    #[test]
    fn parties_past_the_cap_share_threads() {
        assert_eq!(party_threads(0), 0);
        assert_eq!(party_threads(5), 5);
        assert_eq!(party_threads(MAX_THREADS), MAX_THREADS);
        assert_eq!(party_threads(MAX_THREADS + 1), MAX_THREADS);
        assert_eq!(party_threads(10_000), MAX_THREADS);
    }
}
