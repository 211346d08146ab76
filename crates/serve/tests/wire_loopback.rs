//! Socket loopback: the wire surface returns byte-identical rows to the
//! in-process handle, over both TCP and Unix-domain endpoints and on
//! connections served at once, remote failures arrive as typed error
//! frames, the server's reply count survives a client that turns bad and
//! stops at its bound, and a session out of order is dropped without
//! stopping the server.

#![expect(clippy::disallowed_methods, reason = "each test serves its socket from a thread")]

mod common;

use gtv::SynthSpec;
use gtv_serve::{
    ModelRegistry, RowsRequest, ServeConfig, ServeConn, ServeError, ServeFrame, SynthServer,
    SynthService, SERVE_PROTOCOL,
};
use gtv_vfl::socket::framing::FrameBuf;
use gtv_vfl::socket::{dial, read_frame, write_frame, Stream};
use gtv_vfl::{Endpoint, PartyId, TransportError};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn service_with_loan() -> Arc<SynthService> {
    let mut registry = ModelRegistry::new();
    registry.insert("loan", common::trained_synth());
    Arc::new(SynthService::new(registry, ServeConfig::default()))
}

#[test]
fn tcp_round_trip_matches_in_process_bytes() {
    let service = service_with_loan();
    let want = gtv_data::to_csv_string(
        &service
            .request(&RowsRequest {
                model: "loan".to_string(),
                spec: SynthSpec { n: 9, seed: 77, cond: None },
                deadline_ticks: None,
            })
            .expect("in-process request"),
    );

    let server =
        SynthServer::bind(Arc::clone(&service), &Endpoint::parse("127.0.0.1:0")).expect("bind tcp");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(2)));

    let mut conn = ServeConn::connect(&endpoint).expect("connect");
    let got = conn.synth("loan", 9, 77, None, None).expect("rows over tcp");
    assert_eq!(String::from_utf8(got).expect("utf8 csv"), want);

    // A remote failure is a typed error frame, not a dropped connection.
    match conn.synth("no-such-model", 1, 0, None, None) {
        Err(ServeError::Remote { reason }) => {
            assert!(reason.contains("unknown model"), "reason: {reason}")
        }
        other => panic!("expected a Remote error, got {other:?}"),
    }

    drop(conn);
    let served = handle.join().expect("server thread").expect("serve loop");
    assert_eq!(served, 2, "one rows frame and one error frame were written");
}

#[test]
fn unix_socket_round_trip_serves_rows() {
    let service = service_with_loan();
    let path = std::env::temp_dir().join(format!("gtv-serve-loopback-{}.sock", std::process::id()));
    let server =
        SynthServer::bind(Arc::clone(&service), &Endpoint::Unix(path.clone())).expect("bind unix");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(1)));

    let mut conn = ServeConn::connect(&endpoint).expect("connect");
    let got = conn.synth("loan", 5, 5, None, None).expect("rows over unix socket");
    assert!(!got.is_empty());

    drop(conn);
    let served = handle.join().expect("server thread").expect("serve loop");
    assert_eq!(served, 1);
    assert!(!path.exists(), "the listener removes its socket path on drop");
}

fn rows_in_process(service: &SynthService, n: usize, seed: u64) -> String {
    let request = RowsRequest {
        model: "loan".to_string(),
        spec: SynthSpec { n, seed, cond: None },
        deadline_ticks: None,
    };
    gtv_data::to_csv_string(&service.request(&request).expect("in-process request"))
}

#[test]
fn two_connections_at_once_get_the_in_process_bytes() {
    let service = service_with_loan();
    let want = [rows_in_process(&service, 9, 77), rows_in_process(&service, 33, 78)];
    let server =
        SynthServer::bind(Arc::clone(&service), &Endpoint::parse("127.0.0.1:0")).expect("bind tcp");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(2)));
    let mut a = ServeConn::connect(&endpoint).expect("connect a");
    let mut b = ServeConn::connect(&endpoint).expect("connect b while a is open");
    let got = std::thread::scope(|s| {
        let a = s.spawn(|| a.synth("loan", 9, 77, None, None));
        let b = s.spawn(|| b.synth("loan", 33, 78, None, None));
        [a.join().expect("a's thread"), b.join().expect("b's thread")]
    });
    for (got, want) in got.into_iter().zip(want) {
        assert_eq!(String::from_utf8(got.expect("rows")).expect("utf8 csv"), want);
    }
    assert_eq!(handle.join().expect("server thread").expect("serve loop"), 2);
}

#[test]
fn serve_writes_exactly_max_replies_and_winds_down_the_other_connection() {
    let server =
        SynthServer::bind(service_with_loan(), &Endpoint::parse("127.0.0.1:0")).expect("bind tcp");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(1)));
    let mut a = ServeConn::connect(&endpoint).expect("connect a");
    let mut b = ServeConn::connect(&endpoint).expect("connect b while a is open");
    let outcomes = std::thread::scope(|s| {
        let a = s.spawn(|| a.synth("loan", 3, 1, None, None));
        let b = s.spawn(|| b.synth("loan", 3, 2, None, None));
        [a.join().expect("a's thread"), b.join().expect("b's thread")]
    });
    assert_eq!(handle.join().expect("server thread").expect("serve loop"), 1);
    let answered = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(answered, 1, "{outcomes:?}");
    for outcome in outcomes {
        if let Err(e) = outcome {
            assert!(matches!(e, ServeError::Transport(_)), "the other connection is closed: {e:?}");
        }
    }
}

/// One frame from the server, on a raw client stream.
fn reply(stream: &mut Stream, fb: &mut FrameBuf<ServeFrame>) -> ServeFrame {
    read_frame(stream, fb, 500, PartyId::Server, || TransportError::HandshakeFailed {
        reason: "the server went quiet".to_string(),
    })
    .expect("a reply frame")
}

#[test]
fn serve_counts_the_replies_of_a_connection_that_later_fails() {
    let server =
        SynthServer::bind(service_with_loan(), &Endpoint::parse("127.0.0.1:0")).expect("bind tcp");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(2)));

    // Client A: one good request, then garbage that loses the stream.
    let mut a = dial(&endpoint, Duration::from_millis(20)).expect("dial");
    let mut fb = FrameBuf::new();
    let hello = ServeFrame::SynthHello { protocol: SERVE_PROTOCOL };
    write_frame(&mut a, &hello, PartyId::Server).expect("hello");
    assert!(matches!(reply(&mut a, &mut fb), ServeFrame::SynthHelloAck { .. }));
    let request = ServeFrame::SynthRequest {
        id: 1,
        model: "loan".to_string(),
        n: 3,
        seed: 1,
        cond: None,
        deadline_ticks: u64::MAX,
    };
    write_frame(&mut a, &request, PartyId::Server).expect("request");
    assert!(matches!(reply(&mut a, &mut fb), ServeFrame::SynthRows { id: 1, .. }));
    a.write_all(&[0xff; 8]).expect("garbage");

    // Client B: one reply, which must be the second one counted.
    let mut b = ServeConn::connect(&endpoint).expect("connect");
    b.synth("loan", 3, 2, None, None).expect("rows for B");
    let served = handle.join().expect("server thread").expect("serve loop");
    assert_eq!(served, 2, "A's reply counts although A's connection failed");
}

/// Asserts the server closed `stream`: the next read meets end of stream.
fn assert_closed(stream: &mut Stream, fb: &mut FrameBuf<ServeFrame>) {
    let err = read_frame(stream, fb, 500, PartyId::Server, || TransportError::HandshakeFailed {
        reason: "the server kept the connection open".to_string(),
    })
    .expect_err("the server closes the connection");
    assert!(matches!(err, TransportError::PeerDisconnected { .. }), "{err:?}");
}

#[test]
fn out_of_order_sessions_are_refused_and_the_server_serves_on() {
    let server =
        SynthServer::bind(service_with_loan(), &Endpoint::parse("127.0.0.1:0")).expect("bind tcp");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.serve(Some(1)));
    let tick = Duration::from_millis(20);
    let request = ServeFrame::SynthRequest {
        id: 1,
        model: "loan".to_string(),
        n: 3,
        seed: 1,
        cond: None,
        deadline_ticks: u64::MAX,
    };

    // A request before any hello: a `SynthErr`, then the server hangs up.
    let mut a = dial(&endpoint, tick).expect("dial");
    let mut fb = FrameBuf::new();
    write_frame(&mut a, &request, PartyId::Server).expect("request first");
    match reply(&mut a, &mut fb) {
        ServeFrame::SynthErr { id: 0, reason } => {
            assert!(reason.contains("expected SynthHello"), "{reason}")
        }
        other => panic!("expected SynthErr, got {other:?}"),
    }
    assert_closed(&mut a, &mut fb);

    // After the hello exchange only a request is admitted: a client-sent
    // `SynthRows` drops the connection unanswered.
    let mut b = dial(&endpoint, tick).expect("dial");
    let mut fb = FrameBuf::new();
    let hello = ServeFrame::SynthHello { protocol: SERVE_PROTOCOL };
    write_frame(&mut b, &hello, PartyId::Server).expect("hello");
    assert!(matches!(reply(&mut b, &mut fb), ServeFrame::SynthHelloAck { .. }));
    let rows = ServeFrame::SynthRows { id: 1, csv: b"a\n1\n".to_vec() };
    write_frame(&mut b, &rows, PartyId::Server).expect("rows from the client");
    assert_closed(&mut b, &mut fb);

    // The same server still serves an honest session.
    let mut c = ServeConn::connect(&endpoint).expect("connect");
    c.synth("loan", 3, 2, None, None).expect("rows for the honest client");
    let served = handle.join().expect("server thread").expect("serve loop");
    assert_eq!(served, 1, "only the honest request was answered");
}
