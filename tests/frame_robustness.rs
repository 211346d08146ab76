//! The one socket framing layer, for both codecs that ride it: the party
//! transport's [`Frame`] and the synthesis session's [`ServeFrame`].
//!
//! A remote peer controls every byte that reaches [`FrameBuf`], so split or
//! partial reads, truncated frames, corrupt bodies, oversized length
//! prefixes and nonsense handshake versions must all decode to typed
//! [`TransportError`]s — never a panic, a hang, or an allocation driven by
//! an attacker-chosen length. Every property is one generic helper run for
//! both codecs. Also pinned here: the exact bytes of every variant of both
//! codecs, the UTF-8 clip of long reasons, and that each session's dialer
//! fails its handshake, typed, against the other session's server.

use bytes::Bytes;
use gtv_serve::{
    serve_reject_reason, ModelRegistry, ServeConfig, ServeConn, ServeFrame, SynthServer,
    SynthService, WireCond, SERVE_PROTOCOL,
};
use gtv_vfl::socket::framing::{
    encode_frame, handshake_reject_reason, Frame, FrameBuf, FrameCodec, MAX_FRAME_BODY, MAX_REASON,
    PROTOCOL_VERSION, WIRE_VERSION,
};
use gtv_vfl::{Endpoint, Network, PartyId, PartyNode, TransportError};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn party_of(sel: usize) -> PartyId {
    match sel % 3 {
        0 => PartyId::Server,
        1 => PartyId::Public,
        _ => PartyId::Client(sel / 3),
    }
}

/// Printable ASCII from arbitrary bytes.
fn text(bytes: &[u8]) -> String {
    bytes.iter().map(|&c| char::from(b' ' + c % 95)).collect()
}

/// One arbitrary party frame, driven by a variant selector plus a shared
/// pool of generated field values (the shim has no `prop_oneof!`).
fn frame() -> impl Strategy<Value = Frame> {
    (0u8..10, any::<u32>(), any::<u32>(), 0usize..48, vec(any::<u8>(), 0..256), any::<u64>())
        .prop_map(|(variant, a, b, psel, payload, timeout_ms)| match variant {
            0 => Frame::Hello { protocol: a, wire: b, party: party_of(psel) },
            1 => Frame::HelloAck { protocol: a, wire: b },
            2 => Frame::HelloReject { reason: text(&payload) },
            3 => Frame::Deliver { from: party_of(psel), payload: payload.into() },
            4 => Frame::DeliverAck,
            5 => Frame::RecvReq { timeout_ms },
            6 => Frame::TryRecvReq,
            7 => Frame::Msg { from: party_of(psel), payload: payload.into() },
            8 => Frame::Empty,
            _ => Frame::TimedOut,
        })
}

/// One arbitrary serve frame, in the same style.
fn serve_frame() -> impl Strategy<Value = ServeFrame> {
    (0u8..6, any::<u32>(), any::<u64>(), any::<u64>(), vec(any::<u8>(), 0..256), any::<bool>())
        .prop_map(|(variant, protocol, a, b, bytes, cond)| match variant {
            0 => ServeFrame::SynthHello { protocol },
            1 => ServeFrame::SynthHelloAck { protocol },
            2 => ServeFrame::SynthRequest {
                id: a,
                model: text(&bytes),
                n: b,
                seed: a ^ b,
                cond: cond.then_some(WireCond { client: a, column: b, category: a ^ b }),
                deadline_ticks: b,
            },
            3 => ServeFrame::SynthRows { id: a, csv: bytes },
            4 => ServeFrame::SynthBusy { id: a, depth: b, retry_after_ticks: a ^ b },
            _ => ServeFrame::SynthErr { id: a, reason: text(&bytes) },
        })
}

fn encoded<F: FrameCodec>(frame: &F) -> Vec<u8> {
    encode_frame(frame).expect("exemplar frames stay within their bounds")
}

/// Feed a byte stream into a fresh decoder, draining frames until the
/// buffer runs dry or sync is lost. Total by construction: every outcome
/// is `Ok(frames)` or a typed error.
fn drain<F: FrameCodec>(stream: &[u8], chunk: usize) -> Result<Vec<F>, TransportError> {
    let mut fb = FrameBuf::new();
    let mut out = Vec::new();
    for piece in stream.chunks(chunk.max(1)) {
        fb.extend(piece);
        while let Some(f) = fb.next_frame()? {
            out.push(f);
        }
    }
    Ok(out)
}

fn oversized_prefix_is_rejected<F: FrameCodec + Debug>(extra: u32) {
    let len = (MAX_FRAME_BODY as u64 + 1 + u64::from(extra)).min(u64::from(u32::MAX)) as u32;
    let mut fb = FrameBuf::<F>::new();
    fb.extend(&len.to_le_bytes());
    let err = fb.next_frame().expect_err("oversized prefix must be rejected");
    assert!(matches!(err, TransportError::Frame { .. }), "{err:?}");
    assert!(fb.buffered() <= 4, "nothing may be buffered toward the bogus body");
}

fn roundtrips_under_split<F: FrameCodec + Debug + PartialEq + Clone>(f: &F, chunk: usize) {
    let frames: Vec<F> = drain(&encoded(f), chunk).expect("valid encoding must decode");
    assert_eq!(frames, vec![f.clone()]);
}

fn split_and_whole_agree<F: FrameCodec + Debug + PartialEq>(frames: &[F]) {
    let stream: Vec<u8> = frames.iter().flat_map(encoded).collect();
    let whole: Vec<F> = drain(&stream, stream.len().max(1)).expect("valid");
    let split: Vec<F> = drain(&stream, 1).expect("valid");
    assert_eq!(whole.as_slice(), frames);
    assert_eq!(whole, split);
}

fn truncation_waits_for_more<F: FrameCodec + Debug + PartialEq>(f: &F, cut: usize) {
    let bytes = encoded(f);
    let mut fb = FrameBuf::<F>::new();
    fb.extend(&bytes[..bytes.len() - cut.min(bytes.len())]);
    assert_eq!(fb.next_frame().expect("prefix of a valid frame cannot error"), None);
}

fn corruption_never_panics<F: FrameCodec>(f: &F, pos: usize, flip: u8) {
    let mut bytes = encoded(f);
    let i = 4 + pos % (bytes.len() - 4).max(1);
    if i < bytes.len() {
        bytes[i] ^= flip.max(1);
    }
    let _ = F::decode_body(&bytes[4..]);
    let _ = drain::<F>(&bytes, 7);
}

/// A hello rule accepts exactly the versions the session speaks, and a
/// rejection names the first version that differs.
fn hello_rule_is_strict(reason: Option<String>, offered: &[u32], spoken: &[u32]) {
    let mismatch = offered.iter().zip(spoken).find(|(o, s)| o != s).map(|(o, _)| *o);
    match (reason, mismatch) {
        (None, None) => {}
        (Some(reason), Some(bad)) => assert!(reason.contains(&bad.to_string()), "{reason}"),
        (reason, mismatch) => {
            panic!("offered {offered:?}, speaks {spoken:?}: {reason:?}, {mismatch:?}")
        }
    }
}

proptest! {
    /// Arbitrary bytes never panic the incremental decoder.
    #[test]
    fn arbitrary_streams_never_panic(bytes in vec(any::<u8>(), 0..512), chunk in 1usize..64) {
        let _ = drain::<Frame>(&bytes, chunk);
        let _ = drain::<ServeFrame>(&bytes, chunk);
    }

    /// An oversized length prefix errors immediately — the decoder must not
    /// wait for (or try to allocate) the advertised body.
    #[test]
    fn oversized_length_prefix_is_typed_error(extra in any::<u32>()) {
        oversized_prefix_is_rejected::<Frame>(extra);
        oversized_prefix_is_rejected::<ServeFrame>(extra);
    }

    /// encode→decode round-trips every frame, regardless of how the bytes
    /// are split across reads.
    #[test]
    fn frames_roundtrip_under_any_split(f in frame(), s in serve_frame(), chunk in 1usize..16) {
        roundtrips_under_split(&f, chunk);
        roundtrips_under_split(&s, chunk);
    }

    /// Byte-by-byte feeding and one-shot feeding agree on every stream —
    /// the decoder's state machine cannot depend on read boundaries.
    #[test]
    fn split_and_whole_feeds_agree(frames in vec(frame(), 0..6), serve in vec(serve_frame(), 0..6)) {
        split_and_whole_agree(&frames);
        split_and_whole_agree(&serve);
    }

    /// A truncated frame is "need more bytes" (`Ok(None)`), never an error
    /// or a phantom frame.
    #[test]
    fn truncated_frames_wait_for_more(f in frame(), s in serve_frame(), cut in 1usize..32) {
        truncation_waits_for_more(&f, cut);
        truncation_waits_for_more(&s, cut);
    }

    /// Corrupting a frame body decodes to a typed error or some other valid
    /// frame — never a panic.
    #[test]
    fn corrupted_bodies_never_panic(
        f in frame(), s in serve_frame(), pos in 0usize..4096, flip in 1u8..255
    ) {
        corruption_never_panics(&f, pos, flip);
        corruption_never_panics(&s, pos, flip);
    }

    /// Each session's hello rule: exactly the advertised versions pass,
    /// everything else is rejected with a reason naming the bad version.
    #[test]
    fn handshake_versions_are_strict(protocol in any::<u32>(), wire in any::<u32>(), pick in 0u8..4) {
        // Half the cases offer the spoken version, so acceptance is exercised.
        let protocol = if pick & 1 == 0 { PROTOCOL_VERSION } else { protocol };
        let wire = if pick & 2 == 0 { WIRE_VERSION } else { wire };
        hello_rule_is_strict(
            handshake_reject_reason(protocol, wire),
            &[protocol, wire],
            &[PROTOCOL_VERSION, WIRE_VERSION],
        );
        let serve = if pick & 1 == 0 { SERVE_PROTOCOL } else { protocol };
        hello_rule_is_strict(serve_reject_reason(serve), &[serve], &[SERVE_PROTOCOL]);
    }
}

/// `exemplars`, checked to exemplify every variant in declaration order:
/// `variant` is a match with no wildcard giving each frame's place, so a new
/// variant does not compile until it has an arm, an exemplar and a golden
/// hex pin.
fn every_variant<F: Debug>(exemplars: Vec<F>, variant: fn(&F) -> usize) -> Vec<F> {
    let mut seen: Vec<usize> = exemplars.iter().map(variant).collect();
    seen.dedup();
    assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>(), "{exemplars:?}");
    exemplars
}

fn party_variant(f: &Frame) -> usize {
    match f {
        Frame::Hello { .. } => 0,
        Frame::HelloAck { .. } => 1,
        Frame::HelloReject { .. } => 2,
        Frame::Deliver { .. } => 3,
        Frame::DeliverAck => 4,
        Frame::RecvReq { .. } => 5,
        Frame::TryRecvReq => 6,
        Frame::Msg { .. } => 7,
        Frame::Empty => 8,
        Frame::TimedOut => 9,
    }
}

fn serve_variant(f: &ServeFrame) -> usize {
    match f {
        ServeFrame::SynthHello { .. } => 0,
        ServeFrame::SynthHelloAck { .. } => 1,
        ServeFrame::SynthRequest { .. } => 2,
        ServeFrame::SynthRows { .. } => 3,
        ServeFrame::SynthBusy { .. } => 4,
        ServeFrame::SynthErr { .. } => 5,
    }
}

fn party_exemplars() -> Vec<Frame> {
    every_variant(
        vec![
            Frame::Hello { protocol: 1, wire: 2, party: PartyId::Client(3) },
            Frame::HelloAck { protocol: 1, wire: 2 },
            Frame::HelloReject { reason: "nope".to_string() },
            Frame::Deliver { from: PartyId::Server, payload: Bytes::from(vec![1, 2, 3]) },
            Frame::DeliverAck,
            Frame::RecvReq { timeout_ms: 1500 },
            Frame::TryRecvReq,
            Frame::Msg { from: PartyId::Public, payload: Bytes::from(vec![9]) },
            Frame::Empty,
            Frame::TimedOut,
        ],
        party_variant,
    )
}

fn serve_exemplars() -> Vec<ServeFrame> {
    every_variant(
        vec![
            ServeFrame::SynthHello { protocol: SERVE_PROTOCOL },
            ServeFrame::SynthHelloAck { protocol: SERVE_PROTOCOL },
            ServeFrame::SynthRequest {
                id: 7,
                model: "loan".to_string(),
                n: 128,
                seed: 42,
                cond: Some(WireCond { client: 1, column: 3, category: 2 }),
                deadline_ticks: 16,
            },
            ServeFrame::SynthRequest {
                id: 8,
                model: "adult".to_string(),
                n: 1,
                seed: 0,
                cond: None,
                deadline_ticks: u64::MAX,
            },
            ServeFrame::SynthRows { id: 7, csv: b"a,b\n1,2\n".to_vec() },
            ServeFrame::SynthBusy { id: 9, depth: 256, retry_after_ticks: 2 },
            ServeFrame::SynthErr { id: 9, reason: "unknown model \"x\"".to_string() },
        ],
        serve_variant,
    )
}

/// Wire bytes (length prefix included) of [`party_exemplars`], taken from
/// the two separate socket stacks before they became one layer.
const PARTY_GOLDEN_HEX: [&str; 10] = [
    "0e0000000001000000020000000103000000",
    "09000000010100000002000000",
    "070000000204006e6f7065",
    "09000000030000000000010203",
    "0100000004",
    "0900000005dc05000000000000",
    "0100000006",
    "0700000007020000000009",
    "0100000008",
    "0100000009",
];

/// Wire bytes of [`serve_exemplars`], taken the same way.
const SERVE_GOLDEN_HEX: [&str; 7] = [
    "050000005101000000",
    "050000005201000000",
    "4000000053070000000000000080000000000000002a00000000000000100000000000000001010000000000\
     00000300000000000000020000000000000004006c6f616e",
    "2900000053080000000000000001000000000000000000000000000000ffffffffffffffff0005006164756c74",
    "1500000054070000000000000008000000612c620a312c320a",
    "1900000055090000000000000000010000000000000200000000000000",
    "1c0000005609000000000000001100756e6b6e6f776e206d6f64656c20227822",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn pins_bytes<F: FrameCodec + Debug + PartialEq>(exemplars: &[F], golden: &[&str]) {
    assert_eq!(exemplars.len(), golden.len());
    for (frame, want) in exemplars.iter().zip(golden) {
        let bytes = encoded(frame);
        assert_eq!(hex(&bytes), *want, "{frame:?}");
        let back: Vec<F> = drain(&bytes, bytes.len()).expect("decode");
        assert!(back.len() == 1 && back[0] == *frame, "{back:?}");
    }
}

#[test]
fn every_variant_of_both_codecs_keeps_its_bytes() {
    pins_bytes(&party_exemplars(), &PARTY_GOLDEN_HEX);
    pins_bytes(&serve_exemplars(), &SERVE_GOLDEN_HEX);
}

/// Sends `frame` through the codec and returns the reason that
/// decodes back.
fn reason_through_the_wire<F: FrameCodec + Debug>(
    frame: F,
    reason_of: impl Fn(F) -> Option<String>,
) -> String {
    let mut frames = drain::<F>(&encoded(&frame), 64).expect("a clipped reason decodes");
    let back = frames.pop().expect("one frame");
    reason_of(back).expect("the same variant")
}

#[test]
fn long_multibyte_reasons_clip_to_a_valid_prefix() {
    // 600 bytes of 3-byte characters: byte 512 falls inside a character.
    let full = "€".repeat(200);
    let reasons = [
        reason_through_the_wire(Frame::HelloReject { reason: full.clone() }, |f| match f {
            Frame::HelloReject { reason } => Some(reason),
            _ => None,
        }),
        reason_through_the_wire(
            ServeFrame::SynthErr { id: 1, reason: full.clone() },
            |f| match f {
                ServeFrame::SynthErr { reason, .. } => Some(reason),
                _ => None,
            },
        ),
    ];
    for reason in reasons {
        assert!(reason.len() <= MAX_REASON && reason.len() > MAX_REASON - 3, "{}", reason.len());
        assert!(full.starts_with(&reason));
    }
}

/// The handshake bound both sessions use (5 s), plus slack for a loaded host.
const HANDSHAKE_BOUND: Duration = Duration::from_secs(7);

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "each server runs on a thread; the handshake bound is wall time"
)]
fn each_dialer_fails_typed_against_the_other_sessions_server() {
    let node = Arc::new(
        PartyNode::bind(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0")).expect("bind node"),
    );
    let serving = Arc::clone(&node);
    let node_thread = std::thread::spawn(move || serving.serve());
    let began = Instant::now();
    let err = ServeConn::connect(&node.endpoint()).expect_err("a party node speaks no serve");
    assert!(matches!(err, TransportError::HandshakeFailed { .. }), "{err:?}");
    assert!(began.elapsed() < HANDSHAKE_BOUND);
    node.request_stop();
    node_thread.join().expect("node thread").expect("node serve loop");

    let service = Arc::new(SynthService::new(ModelRegistry::new(), ServeConfig::default()));
    let server =
        SynthServer::bind(service, &Endpoint::parse("127.0.0.1:0")).expect("bind synth server");
    let endpoints = HashMap::from([(PartyId::Client(0), server.endpoint())]);
    let stop = server.stop_flag();
    let server_thread = std::thread::spawn(move || server.serve(None));
    let began = Instant::now();
    let err = Network::connect(1, endpoints).expect_err("a synth server hosts no party");
    assert!(matches!(err, TransportError::HandshakeFailed { .. }), "{err:?}");
    assert!(began.elapsed() < HANDSHAKE_BOUND);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(server_thread.join().expect("server thread").expect("serve loop"), 0);
}
