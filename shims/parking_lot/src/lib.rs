//! Offline stand-in for `parking_lot`: a [`Mutex`] with the no-poisoning
//! `lock()` signature, backed by `std::sync::Mutex` (a poisoned std lock is
//! recovered transparently, matching parking_lot's semantics of never
//! propagating panics through the lock API).
//!
//! When the `crossbeam::sched` schedule explorer is enabled, every acquire
//! and release is reported to its registry so lock-order inversions across
//! the pool and transport show up in the happens-before trace. The lock id
//! is assigned lazily on the first *instrumented* acquire, so untraced runs
//! never touch the registry.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mutual exclusion backed by `std::sync::Mutex`, `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    /// Trace identity; 0 until the first instrumented acquire. Must stay
    /// ahead of `inner`: the unsized payload has to be the last field.
    id: AtomicU64,
    inner: std::sync::Mutex<T>,
}

/// RAII guard; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    /// 0 when the acquire was not traced (nothing to report on drop).
    lock_id: u64,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Re-check `enabled`: a guard acquired inside a tracing window but
        // dropped after `disable()` must not leak events into (or corrupt
        // the held-stacks of) a later window — `enable()` resets state, so
        // the skipped release is never missed.
        if self.lock_id != 0 && crossbeam::sched::enabled() {
            crossbeam::sched::on_release(self.lock_id);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self { id: AtomicU64::new(0), inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let mut lock_id = 0;
        if crossbeam::sched::enabled() {
            lock_id = self.id.load(Ordering::Relaxed);
            if lock_id == 0 {
                let fresh = crossbeam::sched::next_lock_id();
                lock_id = match self.id.compare_exchange(
                    0,
                    fresh,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => fresh,
                    Err(raced) => raced,
                };
            }
        }
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if lock_id != 0 {
            // Report after the lock is actually held, so nesting edges
            // reflect real acquisition order.
            crossbeam::sched::on_acquire(lock_id);
        }
        MutexGuard { lock_id, inner }
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisoning needs a thread that panics")]
    fn survives_poisoning() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
