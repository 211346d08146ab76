//! Loom-lite schedule explorer over the GTV round choreography
//! (DESIGN.md §11): the round machine fixes the order messages are sent
//! in; this checks what delivery order and blocking do to a round.
//!
//! Three properties are checked against the *real* trainer and transport,
//! not models of them:
//!
//! 1. **Delivery-order insensitivity**: replaying the round schedule
//!    with every `send_all` fan-out delivered in a seeded pseudo-random
//!    order produces bit-identical weights and synthetic output at 2 and 3
//!    parties — `gather` re-sorting replies into fixed sender order is the
//!    whole reason this holds.
//! 2. **Trace hygiene**: the happens-before graph recorded by
//!    `crossbeam::sched` over full trainer rounds is acyclic (every edge
//!    points forward in event-id order), with no deadlock and no
//!    lock-order inversion among the transport locks.
//! 3. **Detector sensitivity**: the same instrumentation *does* flag an
//!    intentionally-deadlocking fixture (all parties blocked in `recv`
//!    with nothing in flight) and an intentional lock-order inversion —
//!    the clean traces above are evidence, not vacuity.
//!
//! The `sched` registry is process-global, so every test serializes on one
//! gate mutex; the trainer sweep additionally pins the worker pool.

use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{Dataset, Table};
use gtv_tensor::pool;
use gtv_vfl::{Network, PartyId, Transport};

/// Serializes tests that touch the global `sched` registry.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shards(parties: usize, rows: usize) -> Vec<Table> {
    let t = Dataset::Loan.generate(rows, 0);
    let n = t.n_cols();
    let per = n / parties;
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(parties);
    for p in 0..parties {
        let end = if p + 1 == parties { n } else { (p + 1) * per };
        groups.push((p * per..end).collect());
    }
    t.vertical_split(&groups)
}

fn config() -> GtvConfig {
    GtvConfig {
        rounds: 2,
        d_steps: 1,
        batch: 16,
        block_width: 32,
        embedding_dim: 8,
        threads: 0,
        ..GtvConfig::default()
    }
}

/// Trains 2 rounds and synthesizes, optionally permuting every
/// fan-out's delivery order; returns (weight bytes, synthetic table).
fn run(parties: usize, permute_seed: Option<u64>) -> (Vec<u8>, Table) {
    let mut trainer = GtvTrainer::new(shards(parties, 48), config());
    pool::set_threads(2);
    if let Some(seed) = permute_seed {
        trainer.network().permute_deliveries(seed);
    }
    trainer.train().expect("transport is healthy");
    let synth = trainer.synthesize(20, 7).expect("transport is healthy");
    (trainer.save_weights().to_bytes(), synth)
}

#[test]
fn pipelined_rounds_are_insensitive_to_delivery_order() {
    let _gate = serial();
    for &parties in &[2usize, 3] {
        let (ref_weights, ref_synth) = run(parties, None);
        for &seed in &[1u64, 7, 42] {
            // Trace the permuted replay too: the run must be clean under
            // the explorer, not just produce the right bytes.
            crossbeam::sched::enable();
            let (weights, synth) = run(parties, Some(seed));
            crossbeam::sched::disable();
            let report = crossbeam::sched::take_report();
            assert_eq!(
                weights, ref_weights,
                "permuted delivery changed weights (parties={parties}, seed={seed})"
            );
            assert_eq!(
                synth, ref_synth,
                "permuted delivery changed synthesis (parties={parties}, seed={seed})"
            );
            assert!(report.events > 0, "trainer rounds must leave a trace");
            assert!(
                report.hb_edges.iter().all(|&(a, b)| a < b),
                "happens-before must be acyclic: every edge forward in event order"
            );
            assert!(
                report.deadlocks.is_empty(),
                "no deadlock in a completing run: {:?}",
                report.deadlocks
            );
            assert!(
                report.lock_cycles.is_empty(),
                "transport locks must nest consistently: {:?}",
                report.lock_cycles
            );
        }
    }
    pool::set_threads(1);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the deadlocked parties run on scoped threads")]
fn all_parties_blocked_in_recv_is_reported_as_deadlock() {
    let _gate = serial();
    // Intentionally-deadlocking fixture: server and client each wait for a
    // message the other never sends. Bounded recv keeps the test finite;
    // the explorer must still call the window deadlocked.
    let net = Arc::new(Network::new(1));
    net.set_recv_timeout(Duration::from_millis(200));
    crossbeam::sched::enable();
    let ready = Arc::new(Barrier::new(2));
    std::thread::scope(|s| {
        for party in [PartyId::Server, PartyId::Client(0)] {
            let net = Arc::clone(&net);
            let ready = Arc::clone(&ready);
            s.spawn(move || {
                crossbeam::sched::register_party(&format!("{party:?}"));
                // Both parties must be registered before either blocks, or
                // a lone early blocker is trivially "all parties".
                ready.wait();
                let got = net.recv(party);
                assert!(got.is_err(), "nothing was ever sent to {party:?}");
            });
        }
    });
    crossbeam::sched::disable();
    let report = crossbeam::sched::take_report();
    assert!(
        report.deadlocks.iter().any(|d| d.contains("all 2 parties")),
        "both parties blocked with nothing in flight must be reported: {:?}",
        report.deadlocks
    );
}

#[test]
fn lock_order_inversion_is_reported_as_a_cycle() {
    let _gate = serial();
    crossbeam::sched::enable();
    let a = parking_lot::Mutex::new(0u32);
    let b = parking_lot::Mutex::new(0u32);
    {
        let _a = a.lock();
        *b.lock() += 1;
    }
    {
        let _b = b.lock();
        *a.lock() += 1;
    }
    crossbeam::sched::disable();
    let report = crossbeam::sched::take_report();
    assert_eq!(
        report.lock_cycles.len(),
        1,
        "a↷b then b↷a is one inversion cycle: {:?}",
        report.lock_cycles
    );
    assert_eq!(report.lock_cycles[0].len(), 2, "the cycle spans exactly the two locks");
    assert!(report.deadlocks.is_empty(), "no recv ever blocked here");
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the traced edge crosses threads")]
fn channel_trace_records_the_send_to_recv_edge() {
    let _gate = serial();
    crossbeam::sched::enable();
    let (tx, rx) = crossbeam::channel::unbounded();
    std::thread::spawn(move || tx.send(7u32))
        .join()
        .expect("sender thread runs to completion")
        .expect("receiver is alive");
    assert_eq!(rx.recv(), Ok(7));
    crossbeam::sched::disable();
    let report = crossbeam::sched::take_report();
    // Exactly two events — the send and the recv — on different threads,
    // so the only possible edge is the cross-thread message edge.
    assert_eq!(report.events, 2, "one send, one recv");
    assert_eq!(report.hb_edges, vec![(1, 2)], "send happens-before its recv");
    // The report is a take: a second read must see a fresh window.
    assert_eq!(crossbeam::sched::take_report().events, 0);
}
