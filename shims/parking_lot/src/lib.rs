//! Offline stand-in for `parking_lot`: a [`Mutex`] with the no-poisoning
//! `lock()` signature, backed by `std::sync::Mutex` (a poisoned std lock is
//! recovered transparently, matching parking_lot's semantics of never
//! propagating panics through the lock API).

/// Mutual exclusion backed by `std::sync::Mutex`, `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard; the lock is released on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self { inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
