//! Failure injection: the orchestrated protocol must *notice* transport
//! faults rather than silently mis-train — and must report them as
//! [`TransportError`] values, never by panicking.

use gtv::{GtvConfig, GtvTrainer, TransportError};
use gtv_data::Dataset;
use gtv_vfl::{Fault, PartyId, Transport};

fn trainer() -> GtvTrainer {
    let table = Dataset::Loan.generate(60, 0);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    let t = GtvTrainer::new(shards, GtvConfig::smoke());
    // `recv` is a bounded wait; dropped-message tests should fail fast
    // instead of sitting out the 1 s default.
    t.network().set_recv_timeout(std::time::Duration::from_millis(10));
    t
}

#[test]
fn dropped_upload_aborts_the_round() {
    let mut t = trainer();
    t.network().inject_fault(PartyId::Client(0), PartyId::Server, Fault::Drop);
    let err = t.train_round().expect_err("a lost client upload must not go unnoticed");
    assert!(
        matches!(err, TransportError::Timeout { party: PartyId::Server, .. }),
        "the server should observe the missing upload: {err:?}"
    );
}

#[test]
fn dropped_server_message_aborts_the_round() {
    let mut t = trainer();
    t.network().inject_fault(PartyId::Server, PartyId::Client(1), Fault::Drop);
    let err = t.train_round().expect_err("a lost server message must not go unnoticed");
    assert!(
        matches!(err, TransportError::Timeout { party: PartyId::Client(1), .. }),
        "the client should observe the missing message: {err:?}"
    );
}

#[test]
fn duplicate_message_is_detected_by_the_next_exchange() {
    let mut t = trainer();
    t.network().inject_fault(PartyId::Client(0), PartyId::Server, Fault::Duplicate);
    // The duplicate desynchronizes the lockstep protocol; some later
    // exchange observes the stale message and the round aborts.
    let outcome = t.train_round().and_then(|()| t.train_round());
    assert!(outcome.is_err(), "a replayed message must not go unnoticed");
}

#[test]
fn faulted_trainer_does_not_panic() {
    // The protocol surface is panic-free: even under injected faults every
    // failure comes back as an Err, so orchestrators can decide policy.
    for fault in [Fault::Drop, Fault::Duplicate] {
        let mut t = trainer();
        t.network().inject_fault(PartyId::Client(0), PartyId::Server, fault);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = t.train_round().and_then(|()| t.train_round());
        }));
        assert!(result.is_ok(), "transport faults must never panic ({fault:?})");
    }
}

#[test]
fn mid_round_disconnect_surfaces_as_peer_disconnected() {
    // A peer crashing mid-round must surface as `PeerDisconnected` from
    // `train_round` — not a panic, not an indefinite block. (The copy of
    // this regression with remote parties lives in tests/socket_loopback.rs.)
    let mut t = trainer();
    t.train_round().expect("healthy round first");
    t.network().inject_fault(PartyId::Server, PartyId::Client(1), Fault::Disconnect);
    let err = t.train_round().expect_err("a dead link must not go unnoticed");
    assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(1) });
    // The severed link is permanent: later rounds fail the same way.
    let err = t.train_round().expect_err("the link stays dead");
    assert!(
        matches!(err, TransportError::PeerDisconnected { .. }),
        "severed links must not heal: {err:?}"
    );
}

#[test]
fn timeout_errors_name_the_stalled_round_and_message() {
    // A hung party must be diagnosable from the error alone: the timeout
    // carries the protocol round (from `begin_round`) and what the receiver
    // was waiting for.
    let mut t = trainer();
    t.train_round().expect("round 0 is healthy");
    t.network().inject_fault(PartyId::Client(0), PartyId::Server, Fault::Drop);
    let err = t.train_round().expect_err("the dropped upload must time out");
    match &err {
        TransportError::Timeout { party: PartyId::Server, round, expecting, .. } => {
            assert_eq!(*round, Some(1), "the error must name the in-flight round");
            assert!(expecting.is_some(), "the error must name the awaited message");
        }
        other => panic!("expected a contextful Timeout, got {other:?}"),
    }
    let shown = err.to_string();
    assert!(shown.contains("round 1"), "{shown}");
}

#[test]
fn clean_network_trains_fine_after_fault_free_setup() {
    let mut t = trainer();
    t.train_round().unwrap();
    assert_eq!(t.history().g_loss.len(), 1);
}
