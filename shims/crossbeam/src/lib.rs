//! Offline stand-in for `crossbeam::channel`: an unbounded MPMC channel
//! (cloneable [`channel::Sender`] *and* [`channel::Receiver`]) over a
//! mutex-guarded queue with condvar wakeups — the semantics the GTV
//! network's local inboxes rely on, without the lock-free machinery.

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; cloneable.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error: all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is queued right now.
        Empty,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the allotted time.
        Timeout,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    fn lock<T>(chan: &Chan<T>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        chan.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails only if every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            lock(&self.chan).push_back(value);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::AcqRel);
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe the
                // disconnect.
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Pops the next message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match lock(&self.chan).pop_front() {
                Some(v) => Ok(v),
                None if self.chan.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives, every sender is dropped, or
        /// `timeout` elapses — whichever happens first.
        #[expect(
            clippy::disallowed_methods,
            reason = "a receive timeout is wall time by definition; crossbeam's reads the same clock"
        )]
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = lock(&self.chan);
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, wait) = self
                    .chan
                    .ready
                    .wait_timeout(q, remaining)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
                if wait.timed_out() && q.front().is_none() {
                    if self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.receivers.fetch_add(1, Ordering::AcqRel);
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observable() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx2, rx2) = unbounded();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use super::channel::RecvTimeoutError;
        use std::time::Duration;
        let (tx, rx) = unbounded();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a second thread is what the test exercises")]
    fn recv_timeout_waits_for_another_thread() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(99u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(99));
        handle.join().unwrap();
    }
}
