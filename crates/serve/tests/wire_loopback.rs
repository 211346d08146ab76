//! Socket loopback: the wire surface returns byte-identical rows to the
//! in-process handle, over both TCP and Unix-domain endpoints, remote
//! failures arrive as typed error frames, and the server's reply count
//! survives a client that turns bad.

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
