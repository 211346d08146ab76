//! Shape-keyed recycling pool for tensor storage.
//!
//! WGAN-GP training rebuilds the whole autograd graph every minibatch with
//! the *same* tensor shapes, step after step. This module turns that
//! repetition into reuse: instead of dropping a `Vec<f32>` when a tensor
//! dies, [`give`] parks the storage in a capacity-keyed free list, and the
//! next [`take`] of a compatible size pops it back out — no malloc, no page
//! faults, warm cache lines.
//!
//! Design points (DESIGN.md §9 has the full memory model):
//!
//! * **Thread-local.** Each thread owns its own free lists and counters, so
//!   the pool needs no locks and worker threads recycle their own chunk
//!   buffers. Buffers may migrate between threads (a worker-allocated chunk
//!   is stitched — and later [`give`]n back — on the dispatching thread);
//!   migration only moves capacity around, never correctness.
//! * **Capacity-keyed with bounded slack.** A request for `len` elements is
//!   served by the smallest parked buffer whose capacity lies in
//!   `len ..= 4·len`; anything larger would waste too much memory on a
//!   small tensor and is left for a bigger request.
//! * **Determinism is structural.** A recycled buffer is handed out *empty*
//!   (length zero) or fully overwritten ([`take_zeroed`] / [`take_filled`]),
//!   so no stale element can ever be observed: results are bit-identical to
//!   fresh allocation by construction, at any `GTV_THREADS` setting.
//! * **Always instrumented.** Bytes requested and hit/miss counts are
//!   tracked even when recycling is disabled via [`set_enabled`] — that is
//!   what lets the regression tests compare allocation traffic with the
//!   pool against fresh allocation using the same counters.
//! * **Always on.** Recycling is on for every thread unless a test turns it
//!   off with [`set_enabled`]; no configuration does.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Free buffers parked per capacity bucket before further [`give`]s to that
/// bucket are dropped. Generous on purpose: `Graph::reset` returns an entire
/// step's worth of same-shaped node storage at once.
const MAX_BUFS_PER_BUCKET: usize = 4096;

/// Upper bound on bytes parked in one thread's pool; beyond it, [`give`]
/// drops buffers instead of parking them.
const MAX_POOLED_BYTES: usize = 256 << 20;

/// A parked buffer may serve a request up to this factor smaller than its
/// capacity.
const MAX_SLACK_FACTOR: usize = 4;

/// Requests below this many elements bypass recycling entirely: [`take`]
/// allocates fresh and [`give`] drops the buffer. A 256-byte allocation is
/// cheaper than the free-list lookup it would replace — a step benchmark
/// showed recycling *losing* steps/s to fresh allocation through tiny-shape
/// lookup overhead (scalars, bias rows, per-row norms) before this floor
/// existed (DESIGN.md §9). Counted
/// separately in [`PoolStats::small`], not as misses, so hit-rate numbers
/// describe only the traffic the pool actually manages.
const MIN_RECYCLE_LEN: usize = 64;

thread_local! {
    /// Capacity → stack of parked buffers. Buckets are removed when they
    /// empty, so every key in the map has at least one buffer.
    static POOL: RefCell<BTreeMap<usize, Vec<Vec<f32>>>> = const { RefCell::new(BTreeMap::new()) };
    static ENABLED: Cell<bool> = const { Cell::new(true) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
    static BYTES_REQUESTED: Cell<u64> = const { Cell::new(0) };
    static BYTES_HELD: Cell<usize> = const { Cell::new(0) };
    static SMALL: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of this thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Requests served from a parked buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh allocation (every request
    /// counts as a miss while recycling is disabled).
    pub misses: u64,
    /// Total bytes asked for across all requests (hit, miss, or small).
    pub bytes_requested: u64,
    /// Bytes currently parked in this thread's free lists.
    pub bytes_held: usize,
    /// Requests below the recycling floor, served by fresh allocation
    /// regardless of pool state (neither hits nor misses).
    pub small: u64,
}

/// Turns recycling on or off for the calling thread. Counters keep running
/// either way; disabling only forces every [`take`] to allocate fresh.
///
/// Only tests call this: off is the fresh-allocation reference that the
/// recycling tests compare allocation traffic and bits against.
pub fn set_enabled(enabled: bool) {
    ENABLED.with(|e| e.set(enabled));
    if !enabled {
        clear();
    }
}

/// Whether recycling is enabled on the calling thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Reads this thread's counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.with(Cell::get),
        misses: MISSES.with(Cell::get),
        bytes_requested: BYTES_REQUESTED.with(Cell::get),
        bytes_held: BYTES_HELD.with(Cell::get),
        small: SMALL.with(Cell::get),
    }
}

/// Zeroes this thread's hit/miss/small/bytes-requested counters (parked
/// buffers and `bytes_held` are untouched).
pub fn reset_stats() {
    HITS.with(|c| c.set(0));
    MISSES.with(|c| c.set(0));
    BYTES_REQUESTED.with(|c| c.set(0));
    SMALL.with(|c| c.set(0));
}

/// Drops every parked buffer on the calling thread.
pub fn clear() {
    POOL.with(|p| p.borrow_mut().clear());
    BYTES_HELD.with(|b| b.set(0));
}

/// Pre-parks `count` buffers of capacity `len` so a serving hot loop's first
/// pass through a model already hits the pool instead of paying cold
/// allocations. Respects the same budgets as [`give`]: sub-floor lengths,
/// full buckets and the byte cap all turn pinning into a no-op for the
/// remaining buffers. Returns how many buffers were actually parked.
///
/// This is the registry-warmup half of the serving allocation story: load a
/// model, `reserve` its step shapes, and steady-state requests run at ~zero
/// fresh allocations (asserted by the `crates/serve` zero-alloc test).
pub fn reserve(len: usize, count: usize) -> usize {
    if len < MIN_RECYCLE_LEN || !enabled() {
        return 0;
    }
    let mut parked = 0;
    for _ in 0..count {
        let held = BYTES_HELD.with(Cell::get);
        if held + len * 4 > MAX_POOLED_BYTES {
            break;
        }
        let full = POOL.with(|p| {
            let mut pool = p.borrow_mut();
            let bucket = pool.entry(len).or_default();
            if bucket.len() >= MAX_BUFS_PER_BUCKET {
                return true;
            }
            bucket.push(Vec::with_capacity(len));
            false
        });
        if full {
            break;
        }
        BYTES_HELD.with(|b| b.set(b.get() + len * 4));
        parked += 1;
    }
    parked
}

fn try_take(len: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let cap = pool.range(len..=len.saturating_mul(MAX_SLACK_FACTOR)).next().map(|(&c, _)| c)?;
        let bucket = pool.get_mut(&cap)?;
        let buf = bucket.pop()?;
        if bucket.is_empty() {
            pool.remove(&cap);
        }
        BYTES_HELD.with(|b| b.set(b.get().saturating_sub(cap * 4)));
        Some(buf)
    })
}

/// Hands out an *empty* buffer with capacity ≥ `len`: a parked one when
/// available and recycling is enabled, a fresh allocation otherwise.
/// Requests below [`MIN_RECYCLE_LEN`] always allocate fresh (see the
/// constant's docs) and count as `small` rather than misses.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    BYTES_REQUESTED.with(|b| b.set(b.get() + (len as u64) * 4));
    if len < MIN_RECYCLE_LEN {
        SMALL.with(|c| c.set(c.get() + 1));
        return Vec::with_capacity(len);
    }
    if enabled() {
        if let Some(buf) = try_take(len) {
            HITS.with(|c| c.set(c.get() + 1));
            return buf;
        }
    }
    MISSES.with(|c| c.set(c.get() + 1));
    Vec::with_capacity(len)
}

/// [`take`] followed by a zero fill to length `len`.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    take_filled(len, 0.0)
}

/// [`take`] followed by a fill of `v` to length `len`.
pub(crate) fn take_filled(len: usize, v: f32) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, v);
    buf
}

/// Parks `buf`'s storage for reuse. No-op when recycling is disabled, the
/// buffer is below the [`MIN_RECYCLE_LEN`] floor, or the per-thread budgets
/// are exhausted (the buffer is then simply dropped).
pub(crate) fn give(mut buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap < MIN_RECYCLE_LEN || !enabled() {
        return;
    }
    if BYTES_HELD.with(Cell::get) + cap * 4 > MAX_POOLED_BYTES {
        return;
    }
    buf.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let bucket = pool.entry(cap).or_default();
        if bucket.len() < MAX_BUFS_PER_BUCKET {
            bucket.push(buf);
            BYTES_HELD.with(|b| b.set(b.get() + cap * 4));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool and its counters are thread-local, so each test runs in its
    /// own sandbox only if tests on the same thread reset state first.
    fn fresh() {
        set_enabled(true);
        clear();
        reset_stats();
    }

    #[test]
    fn recycles_exact_capacity() {
        fresh();
        let buf = take(100);
        assert_eq!(buf.capacity(), 100);
        let ptr = buf.as_ptr();
        give(buf);
        assert_eq!(stats().bytes_held, 400);
        let again = take(100);
        assert_eq!(again.as_ptr(), ptr, "same storage must come back");
        assert!(again.is_empty(), "recycled buffers are handed out empty");
        assert_eq!(stats().hits, 1);
        assert_eq!(stats().misses, 1);
        fresh();
    }

    #[test]
    fn slack_is_bounded() {
        fresh();
        give({
            let mut v = take(400);
            v.resize(400, 1.0);
            v
        });
        // 400 ≤ 4·100 is within slack; 400 > 4·64 is not.
        assert!(take(64).capacity() < 400, "an oversized buffer must not serve a small request");
        let hit = take(100);
        assert!(hit.capacity() >= 400, "within-slack request should reuse the parked buffer");
        fresh();
    }

    #[test]
    fn disabled_pool_still_counts_misses() {
        fresh();
        set_enabled(false);
        give(vec![0.0f32; 64]);
        assert_eq!(stats().bytes_held, 0, "give is a no-op while disabled");
        let _ = take(64);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(s.bytes_requested, 256);
        fresh();
    }

    #[test]
    fn small_requests_bypass_the_pool() {
        fresh();
        give(vec![0.0f32; MIN_RECYCLE_LEN - 1]);
        assert_eq!(stats().bytes_held, 0, "sub-floor buffers are dropped, not parked");
        give(vec![0.0f32; MIN_RECYCLE_LEN]);
        assert_eq!(stats().bytes_held, MIN_RECYCLE_LEN * 4, "at-floor buffers are parked");
        let tiny = take(MIN_RECYCLE_LEN - 1);
        assert!(tiny.capacity() < MIN_RECYCLE_LEN, "sub-floor requests allocate fresh");
        let s = stats();
        assert_eq!((s.hits, s.misses, s.small), (0, 0, 1), "{s:?}");
        assert_eq!(
            s.bytes_requested,
            (MIN_RECYCLE_LEN as u64 - 1) * 4,
            "bytes_requested still covers sub-floor traffic"
        );
        fresh();
    }

    #[test]
    fn reserve_pins_capacity_that_later_takes_hit() {
        fresh();
        assert_eq!(reserve(128, 3), 3);
        assert_eq!(stats().bytes_held, 3 * 128 * 4);
        for _ in 0..3 {
            let buf = take(128);
            assert!(buf.capacity() >= 128);
        }
        let s = stats();
        assert_eq!((s.hits, s.misses), (3, 0), "reserved buffers must serve as hits: {s:?}");
        fresh();
    }

    #[test]
    fn reserve_respects_floor_and_disabled_pool() {
        fresh();
        assert_eq!(reserve(MIN_RECYCLE_LEN - 1, 4), 0, "sub-floor reserve is a no-op");
        set_enabled(false);
        assert_eq!(reserve(256, 4), 0, "reserve is a no-op while recycling is off");
        fresh();
    }

    #[test]
    fn zeroed_and_filled_overwrite_recycled_contents() {
        fresh();
        let mut dirty = take(64);
        dirty.resize(64, f32::NAN);
        give(dirty);
        assert!(take_zeroed(64).iter().all(|&v| v == 0.0));
        fresh();
        let mut dirty = take(64);
        dirty.resize(64, f32::NAN);
        give(dirty);
        assert!(take_filled(64, 2.5).iter().all(|&v| v == 2.5));
        fresh();
    }
}
