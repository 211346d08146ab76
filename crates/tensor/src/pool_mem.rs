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
//!   the pool needs no locks. Buffers may migrate between threads (a chunk
//!   a scoped worker allocated is stitched — and [`give`]n back — on the
//!   dispatching thread, whose pool outlives the worker); migration only
//!   moves capacity around, never correctness.
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
//! * **Not only tensors.** [`take`], [`take_zeroed`] and [`give`] are public
//!   so the wire layer (`gtv_vfl`) can read matrix bodies into pooled
//!   storage and park a payload once it is encoded, and a second, byte-typed
//!   pool ([`take_bytes`], [`give_bytes`]) with the same rules and budgets
//!   holds the wire frames: encode targets and received messages go back to
//!   it once they are read (DESIGN.md §9–10). Matmul takes its per-row
//!   kernel flags from it too.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Free buffers parked per capacity bucket before further [`give`]s to that
/// bucket are dropped. Generous on purpose: `Graph::reset` returns an entire
/// step's worth of same-shaped node storage at once.
const MAX_BUFS_PER_BUCKET: usize = 4096;

/// Upper bound on bytes parked in one thread's pool — each of the two, the
/// `f32` one and the byte one; beyond it, a give drops the buffer instead of
/// parking it.
const MAX_POOLED_BYTES: usize = 256 << 20;

/// A parked buffer may serve a request up to this factor smaller than its
/// capacity.
const MAX_SLACK_FACTOR: usize = 4;

/// Requests below this many bytes bypass recycling entirely: a take
/// allocates fresh and a give drops the buffer. A 256-byte allocation is
/// cheaper than the free-list lookup it would replace — a step benchmark
/// showed recycling *losing* steps/s to fresh allocation through tiny-shape
/// lookup overhead (scalars, bias rows, per-row norms) before this floor
/// existed (DESIGN.md §9). Counted separately in [`PoolStats::small`], not
/// as misses, so hit-rate numbers describe only the traffic the pool
/// actually manages.
const MIN_RECYCLE_BYTES: usize = 256;

/// One thread's free lists for buffers of `T`, with their counters.
struct FreeLists<T> {
    /// Capacity → stack of parked buffers. Buckets are removed when they
    /// empty, so every key in the map has at least one buffer.
    buckets: BTreeMap<usize, Vec<Vec<T>>>,
    hits: u64,
    misses: u64,
    bytes_requested: u64,
    bytes_held: usize,
    small: u64,
}

impl<T> FreeLists<T> {
    const fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            hits: 0,
            misses: 0,
            bytes_requested: 0,
            bytes_held: 0,
            small: 0,
        }
    }

    fn bytes(len: usize) -> usize {
        len * std::mem::size_of::<T>()
    }

    /// A buffer with capacity ≥ `len` (see [`take`]); a parked one still
    /// holds what it held — callers clear it or overwrite it.
    fn take(&mut self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        self.bytes_requested += Self::bytes(len) as u64;
        if Self::bytes(len) < MIN_RECYCLE_BYTES {
            self.small += 1;
            return Vec::with_capacity(len);
        }
        if enabled() {
            let slack = len.saturating_mul(MAX_SLACK_FACTOR);
            if let Some(cap) = self.buckets.range(len..=slack).next().map(|(&c, _)| c) {
                if let Some(bucket) = self.buckets.get_mut(&cap) {
                    if let Some(buf) = bucket.pop() {
                        if bucket.is_empty() {
                            self.buckets.remove(&cap);
                        }
                        self.bytes_held = self.bytes_held.saturating_sub(Self::bytes(cap));
                        self.hits += 1;
                        return buf;
                    }
                }
            }
        }
        self.misses += 1;
        Vec::with_capacity(len)
    }

    /// Parks `buf`'s storage, or drops it (see [`give`]). Returns whether
    /// it was parked.
    fn give(&mut self, buf: Vec<T>) -> bool {
        let cap = buf.capacity();
        if Self::bytes(cap) < MIN_RECYCLE_BYTES
            || !enabled()
            || self.bytes_held + Self::bytes(cap) > MAX_POOLED_BYTES
        {
            return false;
        }
        let bucket = self.buckets.entry(cap).or_default();
        if bucket.len() >= MAX_BUFS_PER_BUCKET {
            return false;
        }
        bucket.push(buf);
        self.bytes_held += Self::bytes(cap);
        true
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.bytes_held = 0;
    }

    fn reset_stats(&mut self) {
        (self.hits, self.misses, self.bytes_requested, self.small) = (0, 0, 0, 0);
    }
}

thread_local! {
    static POOL: RefCell<FreeLists<f32>> = const { RefCell::new(FreeLists::new()) };
    static BYTE_POOL: RefCell<FreeLists<u8>> = const { RefCell::new(FreeLists::new()) };
    static ENABLED: Cell<bool> = const { Cell::new(true) };
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
    /// Byte-pool ([`take_bytes`]) requests served from a parked buffer.
    pub byte_hits: u64,
    /// Byte-pool requests that fell through to a fresh allocation.
    pub byte_misses: u64,
    /// Bytes currently parked in this thread's byte pool.
    pub byte_bytes_held: usize,
}

/// Turns recycling on or off for the calling thread, for both pools.
/// Counters keep running either way; disabling only forces every take to
/// allocate fresh.
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
    let (byte_hits, byte_misses, byte_bytes_held) = BYTE_POOL.with(|p| {
        let p = p.borrow();
        (p.hits, p.misses, p.bytes_held)
    });
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            bytes_requested: p.bytes_requested,
            bytes_held: p.bytes_held,
            small: p.small,
            byte_hits,
            byte_misses,
            byte_bytes_held,
        }
    })
}

/// Zeroes this thread's request counters, for both pools (parked buffers
/// and the bytes they hold are untouched).
pub fn reset_stats() {
    POOL.with(|p| p.borrow_mut().reset_stats());
    BYTE_POOL.with(|p| p.borrow_mut().reset_stats());
}

/// Drops every parked buffer of both pools on the calling thread.
pub fn clear() {
    POOL.with(|p| p.borrow_mut().clear());
    BYTE_POOL.with(|p| p.borrow_mut().clear());
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
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        (0..count).take_while(|_| pool.give(Vec::with_capacity(len))).count()
    })
}

/// Hands out an *empty* buffer with capacity ≥ `len`: the smallest parked
/// one with capacity in `len ..= 4·len` when recycling is enabled, a fresh
/// allocation otherwise. Requests below the 64-element floor always
/// allocate fresh (see [`MIN_RECYCLE_BYTES`]) and count as `small` rather
/// than misses.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = POOL.with(|p| p.borrow_mut().take(len));
    buf.clear();
    buf
}

/// [`take`] followed by a zero fill to length `len`.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    take_filled(len, 0.0)
}

/// [`take`] followed by a fill of `v` to length `len`.
pub(crate) fn take_filled(len: usize, v: f32) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, v);
    buf
}

/// Parks `buf`'s storage for reuse. No-op when recycling is disabled, the
/// buffer is below the recycling floor, or the per-thread budgets are
/// exhausted (the buffer is then simply dropped).
pub fn give(buf: Vec<f32>) {
    POOL.with(|p| p.borrow_mut().give(buf));
}

/// [`take`] for the byte pool: an empty byte buffer with capacity ≥ `len`,
/// under the same floor (256 bytes), slack and budgets.
pub fn take_bytes(len: usize) -> Vec<u8> {
    let mut buf = BYTE_POOL.with(|p| p.borrow_mut().take(len));
    buf.clear();
    buf
}

/// A byte buffer of length `len` for a caller that overwrites every byte
/// before any is read (a `DenseFrame` in the wire layer): a parked buffer
/// keeps the bytes of its last life, and only bytes past its old length are
/// zeroed, so no pass is spent clearing what is about to be written.
/// Counted like [`take_bytes`].
pub fn take_bytes_to_overwrite(len: usize) -> Vec<u8> {
    let mut buf = BYTE_POOL.with(|p| p.borrow_mut().take(len));
    buf.resize(len, 0);
    buf
}

/// [`give`] for the byte pool. The buffer keeps its bytes while parked
/// (see [`take_bytes_to_overwrite`]).
pub fn give_bytes(buf: Vec<u8>) {
    BYTE_POOL.with(|p| p.borrow_mut().give(buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recycling floor in `f32` elements.
    const MIN_RECYCLE_LEN: usize = MIN_RECYCLE_BYTES / 4;

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
    fn the_byte_pool_hands_out_empty_or_full_length_buffers() {
        fresh();
        give_bytes(vec![7u8; 300]);
        let ptr = {
            let buf = take_bytes(300);
            assert!(buf.is_empty() && buf.capacity() >= 300, "take_bytes hands out empty");
            let ptr = buf.as_ptr();
            give_bytes(buf);
            ptr
        };
        let buf = take_bytes_to_overwrite(280);
        assert_eq!((buf.as_ptr(), buf.len()), (ptr, 280), "the parked buffer, at full length");
        let s = stats();
        assert_eq!((s.byte_hits, s.byte_misses, s.hits, s.misses), (2, 0, 0, 0), "{s:?}");
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
