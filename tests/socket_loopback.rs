//! Loopback integration: training over a [`Network`] whose every client
//! party is hosted by a [`PartyNode`] behind a real TCP or Unix-domain
//! socket is *observationally identical* to training with every party
//! local. Same seed, same config ⇒ byte-identical trained weights and
//! identical per-round byte accounting, in any delivery order; and the
//! failure modes the sockets add (version mismatch, peer crash mid-round, a
//! reply that comes too late, a dialer over the connection cap) surface as
//! typed [`TransportError`]s, never panics or hangs.

#![expect(clippy::disallowed_methods, reason = "the tests host their peers on threads")]

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{Dataset, Table};
use gtv_serve::{ModelRegistry, ServeConfig, ServeConn, SynthServer, SynthService};
use gtv_vfl::socket::framing::{Frame, FrameBuf, PROTOCOL_VERSION, WIRE_VERSION};
use gtv_vfl::socket::{
    read_frame, serve_connections, write_frame, Listener, Stream, MAX_CONNECTIONS,
};
use gtv_vfl::{
    Endpoint, Fault, Message, Network, PartitionPlan, PartyId, PartyNode, Transport, TransportError,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Fleet {
    nodes: Vec<Arc<PartyNode>>,
    handles: Vec<JoinHandle<()>>,
    endpoints: HashMap<PartyId, Endpoint>,
}

impl Fleet {
    /// Binds and serves one [`PartyNode`] per client; the server and public
    /// board stay local to the orchestrating (test) process, mirroring the
    /// `serve-server` deployment.
    fn spawn(n_clients: usize, unix: bool, tag: &str) -> Self {
        let mut nodes = Vec::new();
        let mut handles = Vec::new();
        let mut endpoints = HashMap::new();
        for i in 0..n_clients {
            let ep = if unix {
                Endpoint::Unix(
                    std::env::temp_dir()
                        .join(format!("gtv-loopback-{}-{tag}-{i}.sock", std::process::id())),
                )
            } else {
                Endpoint::parse("127.0.0.1:0")
            };
            let node = Arc::new(PartyNode::bind(PartyId::Client(i), &ep).expect("bind loopback"));
            endpoints.insert(PartyId::Client(i), node.endpoint());
            let serving = Arc::clone(&node);
            handles.push(std::thread::spawn(move || serving.serve().expect("serve loopback")));
            nodes.push(node);
        }
        Self { nodes, handles, endpoints }
    }

    fn shutdown(self) {
        for node in &self.nodes {
            node.request_stop();
        }
        for handle in self.handles {
            handle.join().expect("node thread exits cleanly");
        }
    }
}

fn shards(n_clients: usize) -> Vec<Table> {
    let table = Dataset::Loan.generate(60, 0);
    let groups = PartitionPlan::Even { n_clients }
        .column_groups(table.n_cols(), None, None)
        .expect("valid partition");
    table.vertical_split(&groups)
}

/// Train the same data/config/seed with every party local and with every
/// client remote, and demand bit-identical weights and identical byte
/// accounting.
fn assert_backends_equivalent(n_clients: usize, unix: bool, tag: &str) {
    assert_equivalent_under(GtvConfig::smoke(), n_clients, unix, tag, None);
}

/// [`assert_backends_equivalent`] under `config`, the remote run's fan-outs
/// delivered in the order `permute` seeds, if any.
fn assert_equivalent_under(
    config: GtvConfig,
    n_clients: usize,
    unix: bool,
    tag: &str,
    permute: Option<u64>,
) {
    let rounds = 2;
    let mut inproc = GtvTrainer::new(shards(n_clients), config.clone());
    for _ in 0..rounds {
        inproc.train_round().expect("in-process round");
    }

    let fleet = Fleet::spawn(n_clients, unix, tag);
    let transport =
        Network::connect(n_clients, fleet.endpoints.clone()).expect("connect to loopback fleet");
    if let Some(seed) = permute {
        transport.permute_deliveries(seed);
    }
    let mut socketed = GtvTrainer::with_transport(shards(n_clients), config, transport)
        .expect("seed negotiation over sockets");
    for _ in 0..rounds {
        socketed.train_round().expect("socket round");
    }

    // Bit-identical training: every weight, every loss, byte for byte.
    assert_eq!(inproc.save_weights(), socketed.save_weights(), "trained weights must match");
    assert_eq!(inproc.history().d_loss, socketed.history().d_loss);
    assert_eq!(inproc.history().g_loss, socketed.history().g_loss);
    // Identical byte accounting, including the per-round windows: the
    // network meters the encoded message bodies, not the medium.
    assert_eq!(inproc.network_stats(), socketed.network_stats(), "byte accounting must match");

    fleet.shutdown();
}

#[test]
fn two_party_tcp_matches_in_process() {
    assert_backends_equivalent(2, false, "tcp2");
}

#[test]
fn two_party_unix_matches_in_process() {
    assert_backends_equivalent(2, true, "uds2");
}

#[test]
fn three_party_tcp_matches_in_process() {
    assert_backends_equivalent(3, false, "tcp3");
}

#[test]
fn three_party_unix_matches_in_process() {
    assert_backends_equivalent(3, true, "uds3");
}

#[test]
fn faithful_three_party_unix_matches_in_process() {
    // The privacy-preserving real path: every non-selected client uploads
    // its whole table, written straight into the frame the server reads its
    // idx_p rows out of — with and without DP noise on the upload.
    for (dp_noise_sigma, tag) in [(0.0, "faithful"), (0.5, "faithful-dp")] {
        let config = GtvConfig { faithful_real_path: true, dp_noise_sigma, ..GtvConfig::smoke() };
        assert_equivalent_under(config, 3, true, tag, None);
    }
}

#[test]
fn three_party_unix_in_permuted_delivery_order_matches_in_process() {
    // Every fan-out — to the nodes and into the server's local inbox —
    // delivered in a seeded shuffled order still trains the unpermuted
    // in-process run's weights and meters its traffic.
    assert_equivalent_under(GtvConfig::smoke(), 3, true, "uds3-permuted", Some(7));
}

#[test]
fn version_mismatch_is_a_typed_handshake_failure() {
    let fleet = Fleet::spawn(1, false, "ver");
    // Wire v2 could carry sparse matrix bodies this decoder refuses.
    for (protocol, wire) in
        [(PROTOCOL_VERSION + 1, WIRE_VERSION), (PROTOCOL_VERSION, 2), (PROTOCOL_VERSION, 99)]
    {
        let err = Network::connect_with_versions(1, fleet.endpoints.clone(), protocol, wire)
            .expect_err("a version mismatch must be rejected");
        assert!(
            matches!(err, TransportError::HandshakeFailed { .. }),
            "({protocol},{wire}): {err:?}"
        );
    }
    // The node survives rejected handshakes and still serves honest peers.
    let transport =
        Network::connect(1, fleet.endpoints.clone()).expect("honest handshake after rejected ones");
    transport
        .send(PartyId::Server, PartyId::Client(0), Message::RoundStart { round: 3, selected: 0 })
        .expect("the link works");
    fleet.shutdown();
}

#[test]
fn mid_round_peer_crash_is_peer_disconnected_not_a_hang() {
    let mut fleet = Fleet::spawn(2, false, "crash");
    let transport =
        Network::connect(2, fleet.endpoints.clone()).expect("connect to loopback fleet");
    let mut trainer = GtvTrainer::with_transport(shards(2), GtvConfig::smoke(), transport)
        .expect("seed negotiation over sockets");
    trainer.train_round().expect("round 0 is healthy");

    // Kill client 1's process stand-in: stop its node and close its
    // listener, exactly what a crashed party looks like from outside.
    let dead = fleet.nodes.pop().expect("fleet has two nodes");
    let handle = fleet.handles.pop().expect("fleet has two threads");
    dead.request_stop();
    handle.join().expect("node thread exits");
    drop(dead);

    let err = trainer.train_round().expect_err("a dead party must abort the round");
    assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(1) });
    fleet.shutdown();
}

#[test]
fn injected_disconnect_mid_round_surfaces_on_the_socket_backend() {
    // The `Fault::Disconnect` regression with remote parties (the local
    // copy lives in tests/failures.rs): the very next exchange with the
    // severed party reports `PeerDisconnected` from `train_round`.
    let fleet = Fleet::spawn(2, false, "fault");
    let transport =
        Network::connect(2, fleet.endpoints.clone()).expect("connect to loopback fleet");
    let mut trainer = GtvTrainer::with_transport(shards(2), GtvConfig::smoke(), transport)
        .expect("seed negotiation over sockets");
    trainer.train_round().expect("round 0 is healthy");
    trainer.network().inject_fault(PartyId::Server, PartyId::Client(0), Fault::Disconnect);
    let err = trainer.train_round().expect_err("the severed link must abort the round");
    assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
    fleet.shutdown();
}

#[test]
fn binding_onto_a_regular_file_fails_and_leaves_it_intact() {
    let path = std::env::temp_dir().join(format!("gtv-loopback-{}-data.csv", std::process::id()));
    std::fs::write(&path, "a,b\n1,2\n").expect("write the data file");
    let endpoint = Endpoint::Unix(path.clone());
    let service = Arc::new(SynthService::new(ModelRegistry::new(), ServeConfig::default()));
    for err in [
        PartyNode::bind(PartyId::Client(0), &endpoint).expect_err("a CSV is not a stale socket"),
        SynthServer::bind(service, &endpoint).expect_err("a CSV is not a stale socket"),
    ] {
        assert!(
            matches!(&err, TransportError::HandshakeFailed { reason }
                if reason.contains(&path.display().to_string())),
            "{err:?}"
        );
    }
    assert_eq!(std::fs::read_to_string(&path).expect("the file survives"), "a,b\n1,2\n");
    std::fs::remove_file(&path).expect("clean up");

    // A socket file left behind by a crashed listener is replaced.
    drop(std::os::unix::net::UnixListener::bind(&path).expect("leave a stale socket"));
    let node = PartyNode::bind(PartyId::Client(0), &endpoint).expect("a stale socket is replaced");
    drop(node);
    assert!(!path.exists(), "the node unlinks its socket on drop");
}

/// Answers a dialer's hello on a scripted node.
fn greet(stream: &mut Stream, fb: &mut FrameBuf<Frame>) {
    let hello = next_frame(stream, fb);
    assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
    let ack = Frame::HelloAck { protocol: PROTOCOL_VERSION, wire: WIRE_VERSION };
    write_frame(stream, &ack, PartyId::Server).expect("ack the hello");
}

fn next_frame(stream: &mut Stream, fb: &mut FrameBuf<Frame>) -> Frame {
    read_frame(stream, fb, 500, PartyId::Server, || TransportError::HandshakeFailed {
        reason: "the dialer went quiet".to_string(),
    })
    .expect("a frame from the dialer")
}

#[test]
fn a_late_reply_drops_the_link_instead_of_answering_the_next_request() {
    // A scripted node answers the first link's `RecvReq` only after the
    // dialer's own deadline (a 0 ms node-side wait plus the 2 s margin),
    // and serves the redialed link honestly.
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0")).expect("bind");
    let endpoints = HashMap::from([(PartyId::Client(0), listener.endpoint())]);
    let stop = AtomicBool::new(false);
    let links = AtomicUsize::new(0);
    let script = |mut stream: Stream, _: &dyn Fn() -> bool| {
        let mut fb = FrameBuf::new();
        greet(&mut stream, &mut fb);
        if links.fetch_add(1, Ordering::SeqCst) == 0 {
            let request = next_frame(&mut stream, &mut fb);
            assert!(matches!(request, Frame::RecvReq { .. }), "{request:?}");
            std::thread::sleep(Duration::from_millis(2500));
            let late = Frame::Msg {
                from: PartyId::Server,
                payload: Message::RoundStart { round: 9, selected: 0 }.encode(),
            };
            // The dialer has hung up by now, so this write may fail; either
            // way the reply must never reach the next exchange.
            let _ = write_frame(&mut stream, &late, PartyId::Server);
        } else {
            let deliver = next_frame(&mut stream, &mut fb);
            assert!(matches!(deliver, Frame::Deliver { .. }), "{deliver:?}");
            write_frame(&mut stream, &Frame::DeliverAck, PartyId::Server)
                .expect("ack the delivery");
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let node = s.spawn(|| {
            let stopped = || stop.load(Ordering::SeqCst);
            serve_connections(&listener, &stopped, |reason| Frame::HelloReject { reason }, script)
        });
        let transport = Network::connect(1, endpoints).expect("connect to the scripted node");
        let err = transport
            .recv_timeout(PartyId::Client(0), Duration::ZERO)
            .expect_err("the reply comes after the deadline");
        assert!(matches!(err, TransportError::Timeout { .. }), "{err:?}");
        transport
            .send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 1, selected: 0 },
            )
            .expect("the next exchange redials instead of reading the late reply");
        stop.store(true, Ordering::SeqCst);
        let served = node.join().expect("the scripted node saw the exchanges it expected");
        served.expect("the listener stays healthy");
    });
    assert_eq!(links.into_inner(), 2, "the dialer redialed once");
}

/// A refusal over the connection cap: typed, at once, and naming the cap.
fn assert_refused_at_the_cap(err: TransportError, began: Instant) {
    assert!(began.elapsed() < Duration::from_secs(1), "took {:?}", began.elapsed());
    match err {
        TransportError::HandshakeFailed { reason } => {
            assert!(reason.contains(&MAX_CONNECTIONS.to_string()), "{reason}")
        }
        other => panic!("expected HandshakeFailed, got {other:?}"),
    }
}

#[test]
fn a_dialer_over_the_connection_cap_is_refused_at_once() {
    let node = Arc::new(
        PartyNode::bind(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0")).expect("bind node"),
    );
    let serving = Arc::clone(&node);
    let node_thread = std::thread::spawn(move || serving.serve());
    let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
    let held: Vec<Network> = (0..MAX_CONNECTIONS)
        .map(|_| Network::connect(1, endpoints.clone()).expect("a link under the cap"))
        .collect();
    let began = Instant::now();
    let err = Network::connect(1, endpoints).expect_err("a link over the cap");
    assert_refused_at_the_cap(err, began);
    drop(held);
    node.request_stop();
    node_thread.join().expect("node thread").expect("node serve loop");

    let service = Arc::new(SynthService::new(ModelRegistry::new(), ServeConfig::default()));
    let server = SynthServer::bind(service, &Endpoint::parse("127.0.0.1:0")).expect("bind");
    let endpoint = server.endpoint();
    let stop = server.stop_flag();
    let server_thread = std::thread::spawn(move || server.serve(None));
    let held: Vec<ServeConn> = (0..MAX_CONNECTIONS)
        .map(|_| ServeConn::connect(&endpoint).expect("a session under the cap"))
        .collect();
    let began = Instant::now();
    let err = ServeConn::connect(&endpoint).expect_err("a session over the cap");
    assert_refused_at_the_cap(err, began);
    drop(held);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(server_thread.join().expect("server thread").expect("serve loop"), 0);
}
