//! Property tests: every `Message` variant survives an encode→decode
//! round-trip bit-exactly — also when the values read out of it land in
//! recycled storage — a decoded message re-encodes to the same bytes, rows
//! read out of a dense body are the source's rows bit for bit, and the
//! encoded length matches the meter.

use gtv_tensor::pool_mem;
use gtv_vfl::{MatrixPayload, Message, SeedShare};
use proptest::collection::vec;
use proptest::prelude::*;

fn matrix() -> impl Strategy<Value = MatrixPayload> {
    (vec(-100.0f32..100.0f32, 0..48usize), 1usize..5).prop_map(|(data, cols)| {
        let rows = data.len() / cols;
        MatrixPayload::new(rows as u32, cols as u32, data[..rows * cols].to_vec())
    })
}

/// One entry drawn from the full f32 bit space plus the values a codec can
/// get wrong: both zeros, NaN payloads, infinities and subnormals.
fn tricky_f32() -> impl Strategy<Value = f32> {
    (0u32..8, any::<u32>()).prop_map(|(pick, bits)| match pick {
        0 => 0.0f32,
        1 => -0.0f32,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::MIN_POSITIVE / 2.0, // subnormal
        6 => f32::from_bits(bits),    // anything, incl. signalling NaNs
        _ => (bits as f32 / u32::MAX as f32) * 200.0 - 100.0,
    })
}

/// A matrix of [`tricky_f32`] entries drawn from `entries` values (the
/// last row's remainder is cut).
fn tricky_matrix_of(entries: std::ops::Range<usize>) -> impl Strategy<Value = MatrixPayload> {
    (vec(tricky_f32(), entries), 1usize..5).prop_map(|(data, cols)| {
        let rows = data.len() / cols;
        MatrixPayload::new(rows as u32, cols as u32, data[..rows * cols].to_vec())
    })
}

/// Bit-level equality: `==` on f32 would pass `0.0 == -0.0` and fail
/// `NaN == NaN`, hiding exactly the cases a codec must preserve.
fn assert_bits_equal(a: &MatrixPayload, b: &MatrixPayload) {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    let ab: Vec<u32> = a.values().iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = b.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "decoded entries must be bit-identical");
}

fn payload_of(msg: &Message) -> &MatrixPayload {
    match msg {
        Message::GenSlice(m) => m,
        other => panic!("expected GenSlice, got {other:?}"),
    }
}

fn roundtrip(msg: &Message) {
    let encoded = msg.encode();
    let decoded = Message::decode(encoded).expect("self-encoded message must decode");
    assert_eq!(&decoded, msg);
}

proptest! {
    #[test]
    fn round_start_roundtrips(round in any::<u64>(), selected in any::<u32>()) {
        roundtrip(&Message::RoundStart { round, selected });
    }

    #[test]
    fn cond_upload_roundtrips(cv in matrix(), indices in vec(0u32..10_000, 0..40usize)) {
        roundtrip(&Message::CondUpload { cv, indices });
    }

    #[test]
    fn gen_slice_roundtrips(m in matrix()) {
        roundtrip(&Message::GenSlice(m));
    }

    #[test]
    fn synth_logits_roundtrips(m in matrix()) {
        roundtrip(&Message::SynthLogits(m));
    }

    #[test]
    fn real_logits_roundtrips(m in matrix()) {
        roundtrip(&Message::RealLogits(m));
    }

    #[test]
    fn grad_logits_roundtrips(m in matrix()) {
        roundtrip(&Message::GradLogits(m));
    }

    #[test]
    fn grad_gen_slice_roundtrips(m in matrix()) {
        roundtrip(&Message::GradGenSlice(m));
    }

    #[test]
    fn synthetic_share_roundtrips(m in matrix()) {
        roundtrip(&Message::SyntheticShare(m));
    }

    #[test]
    fn shuffle_seed_share_roundtrips(share in any::<u64>()) {
        roundtrip(&Message::ShuffleSeedShare { share: SeedShare::from(share) });
    }

    #[test]
    fn index_share_roundtrips(indices in vec(0u32..100_000, 0..64usize)) {
        roundtrip(&Message::IndexShare { indices });
    }

    #[test]
    fn encoded_len_matches_wire_bytes(m in matrix()) {
        let msg = Message::GenSlice(m.clone());
        // 1 tag byte + the matrix's self-reported size: the traffic meter
        // and the wire bytes must agree.
        prop_assert_eq!(msg.encode().len(), 1 + m.encoded_len());
    }

    #[test]
    fn reads_into_dirty_pooled_buffers_stay_bit_exact(m in tricky_matrix_of(67..160)) {
        // At least 64 entries after the cut: the tensor pool recycles no
        // smaller buffer. Storage a read may reuse holds NaNs from its last
        // life: a dense body read must overwrite every entry, or a stale NaN
        // shows.
        let n = m.len();
        pool_mem::clear();
        pool_mem::give(vec![f32::NAN; n]);
        let hits = pool_mem::stats().hits;
        let decoded = Message::decode(Message::GenSlice(m.clone()).encode())
            .expect("self-encoded message must decode");
        let values = payload_of(&decoded).clone().into_values();
        prop_assert_eq!(pool_mem::stats().hits, hits + 1, "the read reused the buffer");
        assert_bits_equal(&MatrixPayload::new(m.rows, m.cols, values), &m);
        pool_mem::clear();
    }

    #[test]
    fn a_decoded_message_re_encodes_to_the_same_bytes(m in tricky_matrix_of(0..48), indices in vec(any::<u32>(), 0..8usize)) {
        for msg in [Message::RealLogits(m.clone()), Message::CondUpload { cv: m.clone(), indices: indices.clone() }] {
            let bytes = msg.encode();
            let decoded = Message::decode(bytes.clone()).expect("self-encoded message must decode");
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    #[test]
    fn rows_read_out_of_a_dense_body_are_the_source_rows(
        m in tricky_matrix_of(1..160),
        picks in vec(any::<usize>(), 0..24usize),
    ) {
        // Tricky values (±0, NaN payloads, subnormals, ±∞) and repeated rows.
        let Message::RealLogits(wire) = Message::decode(Message::RealLogits(m.clone()).encode())
            .expect("self-encoded message must decode") else { panic!("variant must survive") };
        let rows = m.rows as usize;
        let width = m.cols as usize;
        let picks: Vec<usize> = picks.iter().map(|&p| p % rows.max(1)).collect();
        if rows > 0 {
            let got = wire.gather_rows(&picks).expect("in-range rows");
            let source = m.values();
            let want: Vec<u32> = picks
                .iter()
                .flat_map(|&r| source[r * width..(r + 1) * width].iter().map(|v| v.to_bits()))
                .collect();
            prop_assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        }
        // A row past the end is a typed error, on either storage.
        let mut out_of_range = picks.clone();
        out_of_range.push(rows);
        prop_assert!(wire.gather_rows(&out_of_range).is_err());
        prop_assert!(m.gather_rows(&out_of_range).is_err());
    }
}
