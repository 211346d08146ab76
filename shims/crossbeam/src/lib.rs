//! Offline stand-in for `crossbeam::channel`: an unbounded MPMC channel
//! (cloneable [`channel::Sender`] *and* [`channel::Receiver`]) over a
//! mutex-guarded queue with condvar wakeups — the semantics GTV's in-process
//! transport relies on, without the lock-free machinery.
//!
//! The [`sched`] module adds an opt-in loom-lite schedule explorer: when
//! tracing is enabled (programmatically or via `GTV_SCHED_TRACE=1`), every
//! channel send/recv — and, through the `parking_lot` shim, every lock
//! acquire/release — is recorded into a happens-before graph, with online
//! detection of channel deadlock (all registered parties blocked in `recv`
//! with no in-flight message) and lock-order inversion cycles.

/// Loom-lite schedule instrumentation: happens-before recording, deadlock
/// and lock-order-inversion detection over the shims' channels and locks.
///
/// Disabled by default; a single relaxed atomic load gates every hook, so
/// production paths pay one branch. Enable with [`enable`] (tests) or the
/// `GTV_SCHED_TRACE=1` environment variable (whole-process runs), register
/// the party threads whose blocking matters with [`register_party`], and
/// collect the trace with [`take_report`].
///
/// The happens-before model (DESIGN.md §11): program order within a
/// thread, send→recv per message (exact, because the shim channel is
/// strictly FIFO per queue), and release→acquire per lock. Event ids are
/// assigned monotonically under one registry mutex, so every recorded
/// edge points forward in id order — acyclicity of the graph is a checked
/// invariant, not an assumption. Lock releases are recorded in the guard's
/// `Drop`, momentarily *before* the underlying mutex unlocks: conservative
/// for inversion detection, which only consumes nesting (acquire-while-
/// holding) edges.
#[expect(
    clippy::disallowed_methods,
    reason = "a test-only tracer: the opt-in reads the environment, events are keyed by thread id, \
              and every map iteration is sorted before it reaches a report"
)]
pub mod sched {
    use std::collections::{HashMap, HashSet, VecDeque};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::thread::ThreadId;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static NEXT_CHAN: AtomicU64 = AtomicU64::new(1);
    static NEXT_LOCK: AtomicU64 = AtomicU64::new(1);

    /// Everything recorded during one tracing window.
    #[derive(Default)]
    struct State {
        /// Registered party threads (name per thread).
        parties: HashMap<ThreadId, String>,
        /// Party threads currently blocked in `recv`, with the channel id.
        blocked: HashMap<ThreadId, u64>,
        /// Instrumented sends not yet received.
        in_flight: u64,
        /// Per-channel queue of send event ids awaiting their recv.
        pending: HashMap<u64, VecDeque<u64>>,
        /// Monotonic event counter (next id).
        next_event: u64,
        /// Last event id per thread (program-order edges).
        last_of_thread: HashMap<ThreadId, u64>,
        /// Last release event id per lock (release→acquire edges).
        last_release: HashMap<u64, u64>,
        /// Happens-before edges (event id pairs, earlier → later).
        hb: Vec<(u64, u64)>,
        /// Locks currently held per thread, in acquisition order.
        held: HashMap<ThreadId, Vec<u64>>,
        /// Nesting edges: lock A held while lock B is acquired.
        lock_edges: HashSet<(u64, u64)>,
        /// Deadlock descriptions, recorded online as parties block.
        deadlocks: Vec<String>,
    }

    fn state() -> MutexGuard<'static, State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What one tracing window observed.
    #[derive(Debug, Default, Clone)]
    pub struct Report {
        /// Number of recorded events.
        pub events: u64,
        /// Happens-before edges; every pair is (earlier id, later id).
        pub hb_edges: Vec<(u64, u64)>,
        /// Deadlocks observed (all parties blocked, nothing in flight).
        pub deadlocks: Vec<String>,
        /// Lock-order inversion cycles over lock ids.
        pub lock_cycles: Vec<Vec<u64>>,
    }

    fn env_opt_in() -> bool {
        static ENV: OnceLock<bool> = OnceLock::new();
        *ENV.get_or_init(|| std::env::var("GTV_SCHED_TRACE").map(|v| v == "1").unwrap_or(false))
    }

    /// Whether instrumentation hooks record anything right now.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed) || env_opt_in()
    }

    /// Starts a fresh tracing window (clearing any previous state).
    pub fn enable() {
        *state() = State::default();
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Stops recording; the window's trace stays available to
    /// [`take_report`].
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Declares the current thread a protocol party: deadlock detection
    /// fires only when *every* registered party is blocked at once.
    pub fn register_party(name: &str) {
        let mut s = state();
        s.parties.insert(std::thread::current().id(), name.to_string());
    }

    /// Drains the recorded trace, computing lock cycles from the nesting
    /// edges, and resets the registry.
    pub fn take_report() -> Report {
        let mut s = state();
        let taken = std::mem::take(&mut *s);
        Report {
            events: taken.next_event,
            lock_cycles: cycles(&taken.lock_edges),
            hb_edges: taken.hb,
            deadlocks: taken.deadlocks,
        }
    }

    /// Allocates a channel id (cheap; assigned even when disabled so a
    /// channel created before `enable()` still traces afterwards).
    pub(crate) fn next_chan_id() -> u64 {
        NEXT_CHAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a lock id for the `parking_lot` shim.
    pub fn next_lock_id() -> u64 {
        NEXT_LOCK.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one event: assigns the id and the program-order edge.
    fn record(s: &mut State) -> u64 {
        s.next_event += 1;
        let id = s.next_event;
        let tid = std::thread::current().id();
        if let Some(&prev) = s.last_of_thread.get(&tid) {
            s.hb.push((prev, id));
        }
        s.last_of_thread.insert(tid, id);
        id
    }

    /// A message entered channel `chan`.
    pub fn on_send(chan: u64) {
        let mut s = state();
        let id = record(&mut s);
        s.in_flight += 1;
        s.pending.entry(chan).or_default().push_back(id);
    }

    /// A message left channel `chan`; pairs with the oldest pending send
    /// (exact: the shim queue is strictly FIFO).
    pub fn on_recv(chan: u64) {
        let mut s = state();
        let id = record(&mut s);
        s.in_flight = s.in_flight.saturating_sub(1);
        if let Some(send_id) = s.pending.entry(chan).or_default().pop_front() {
            s.hb.push((send_id, id));
        }
        s.blocked.remove(&std::thread::current().id());
    }

    /// The current thread is about to block in `recv` on `chan`. If it is
    /// a registered party and this leaves every party blocked with nothing
    /// in flight, that is a protocol deadlock — record it.
    pub fn on_block(chan: u64) {
        let mut s = state();
        let tid = std::thread::current().id();
        if !s.parties.contains_key(&tid) {
            return;
        }
        s.blocked.insert(tid, chan);
        let all_blocked = s.parties.keys().all(|t| s.blocked.contains_key(t));
        if all_blocked && s.in_flight == 0 && !s.parties.is_empty() {
            let mut who: Vec<String> = s
                .parties
                .iter()
                .map(|(t, name)| format!("{name}@chan{}", s.blocked.get(t).copied().unwrap_or(0)))
                .collect();
            who.sort();
            let msg = format!(
                "deadlock: all {} parties blocked in recv with no in-flight message ({})",
                s.parties.len(),
                who.join(", ")
            );
            if s.deadlocks.last() != Some(&msg) {
                s.deadlocks.push(msg);
            }
        }
    }

    /// The current thread stopped waiting without receiving (timeout or
    /// disconnect).
    pub fn on_unblock() {
        let mut s = state();
        s.blocked.remove(&std::thread::current().id());
    }

    /// The current thread acquired `lock`: release→acquire edge plus a
    /// nesting edge from every lock already held.
    pub fn on_acquire(lock: u64) {
        let mut s = state();
        let id = record(&mut s);
        if let Some(&rel) = s.last_release.get(&lock) {
            s.hb.push((rel, id));
        }
        let tid = std::thread::current().id();
        let held: Vec<u64> = s.held.get(&tid).cloned().unwrap_or_default();
        for h in held {
            if h != lock {
                s.lock_edges.insert((h, lock));
            }
        }
        s.held.entry(tid).or_default().push(lock);
    }

    /// The current thread released `lock`.
    pub fn on_release(lock: u64) {
        let mut s = state();
        let id = record(&mut s);
        s.last_release.insert(lock, id);
        let tid = std::thread::current().id();
        if let Some(stack) = s.held.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&l| l == lock) {
                stack.remove(pos);
            }
        }
    }

    /// Cycles in the lock-nesting graph (each reported once, as the sorted
    /// node set of the cycle).
    fn cycles(edges: &HashSet<(u64, u64)>) -> Vec<Vec<u64>> {
        let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        for targets in adj.values_mut() {
            targets.sort_unstable();
        }
        let mut found: HashSet<Vec<u64>> = HashSet::new();
        let mut nodes: Vec<u64> = adj.keys().copied().collect();
        nodes.sort_unstable();
        for &start in &nodes {
            // DFS from `start`, collecting any path that returns to it.
            let mut stack = vec![(start, vec![start])];
            let mut visited: HashSet<u64> = HashSet::new();
            while let Some((node, path)) = stack.pop() {
                for &next in adj.get(&node).into_iter().flatten() {
                    if next == start {
                        let mut cycle = path.clone();
                        cycle.sort_unstable();
                        found.insert(cycle);
                    } else if visited.insert(next) {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((next, p));
                    }
                }
            }
        }
        let mut out: Vec<Vec<u64>> = found.into_iter().collect();
        out.sort();
        out
    }
}

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        /// Stable identity for [`crate::sched`] traces.
        id: u64,
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

    /// Error from [`Receiver::recv`]: every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

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
            id: crate::sched::next_chan_id(),
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
            {
                // Record the send while still holding the queue lock so the
                // trace's send order matches the queue's FIFO order exactly.
                let mut q = lock(&self.chan);
                q.push_back(value);
                if crate::sched::enabled() {
                    crate::sched::on_send(self.chan.id);
                }
            }
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
            let mut q = lock(&self.chan);
            match q.pop_front() {
                Some(v) => {
                    if crate::sched::enabled() {
                        crate::sched::on_recv(self.chan.id);
                    }
                    Ok(v)
                }
                None if self.chan.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = lock(&self.chan);
            loop {
                if let Some(v) = q.pop_front() {
                    if crate::sched::enabled() {
                        crate::sched::on_recv(self.chan.id);
                    }
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    if crate::sched::enabled() {
                        crate::sched::on_unblock();
                    }
                    return Err(RecvError);
                }
                if crate::sched::enabled() {
                    crate::sched::on_block(self.chan.id);
                }
                q = self.chan.ready.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
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
                    if crate::sched::enabled() {
                        crate::sched::on_recv(self.chan.id);
                    }
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    if crate::sched::enabled() {
                        crate::sched::on_unblock();
                    }
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    if crate::sched::enabled() {
                        crate::sched::on_unblock();
                    }
                    return Err(RecvTimeoutError::Timeout);
                };
                if crate::sched::enabled() {
                    crate::sched::on_block(self.chan.id);
                }
                let (guard, wait) = self
                    .chan
                    .ready
                    .wait_timeout(q, remaining)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
                if wait.timed_out() && q.front().is_none() {
                    if crate::sched::enabled() {
                        crate::sched::on_unblock();
                    }
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
    fn blocking_recv_across_threads() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(99u32).unwrap();
        });
        assert_eq!(rx.recv(), Ok(99));
        handle.join().unwrap();
    }
}
