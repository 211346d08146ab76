//! Property tests: `Message::decode` is *total* on arbitrary input. Any
//! byte buffer — random garbage, a truncated prefix of a valid encoding, or
//! a valid encoding with one byte flipped — must return `Err` or a valid
//! message, never panic; and since a dense body is only parsed where it is
//! read, a body of the wrong length must fail in `decode` itself, never at a
//! later read. Complements the round-trip suite in `wire_roundtrip.rs`,
//! which only exercises the happy path.

use bytes::Bytes;
use gtv_vfl::{MatrixPayload, Message, SeedShare, WireCodec};
use proptest::collection::vec;
use proptest::prelude::*;

/// Decode must be total: never panic, and anything it accepts must survive
/// an encode→decode round-trip back to the same message, with every value
/// readable.
fn assert_decode_total(bytes: &[u8]) {
    if let Ok(msg) = Message::decode(Bytes::from(bytes.to_vec())) {
        let re = msg.encode();
        let again = Message::decode(re).expect("re-encoded message must decode");
        assert_eq!(again, msg, "accepted input must round-trip stably");
        if let Message::GenSlice(m) | Message::GradLogits(m) | Message::CondUpload { cv: m, .. } =
            again
        {
            let all: Vec<usize> = (0..m.rows as usize).collect();
            assert_eq!(
                m.gather_rows(&all).expect("every row of a decoded body reads").len(),
                m.len()
            );
        }
    }
}

fn matrix() -> impl Strategy<Value = MatrixPayload> {
    (vec(-100.0f32..100.0f32, 0..48usize), 1usize..5).prop_map(|(data, cols)| {
        let rows = data.len() / cols;
        MatrixPayload::new(rows as u32, cols as u32, data[..rows * cols].to_vec())
    })
}

/// Mostly-zero matrices — under the adaptive codec these encode to the
/// sparse body, so truncating/mutating their encodings drives the sparse
/// decoder arm through its validation paths.
fn sparse_matrix() -> impl Strategy<Value = MatrixPayload> {
    (vec((-100.0f32..100.0f32, 0u32..100), 0..48usize), 1usize..5).prop_map(|(entries, cols)| {
        // ~15% of entries survive; the rest collapse to +0.0.
        let data: Vec<f32> =
            entries.iter().map(|&(v, keep)| if keep < 15 { v } else { 0.0 }).collect();
        let rows = data.len() / cols;
        MatrixPayload::new(rows as u32, cols as u32, data[..rows * cols].to_vec())
    })
}

/// A mix of structured messages whose encodings exercise every decoder arm.
fn message() -> impl Strategy<Value = Message> {
    (matrix(), vec(0u32..100_000, 0..32usize), any::<u64>(), 0u8..6).prop_map(
        |(m, indices, word, pick)| match pick {
            0 => Message::RoundStart { round: word, selected: word as u32 },
            1 => Message::CondUpload { cv: m, indices },
            2 => Message::GenSlice(m),
            3 => Message::ShuffleSeedShare { share: SeedShare::from(word) },
            4 => Message::IndexShare { indices },
            _ => Message::GradLogits(m),
        },
    )
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(buf in vec(any::<u8>(), 0..256usize)) {
        assert_decode_total(&buf);
    }

    #[test]
    fn truncations_of_valid_encodings_never_panic(msg in message(), cut in any::<usize>()) {
        let encoded = msg.encode().to_vec();
        let len = cut % (encoded.len() + 1);
        assert_decode_total(&encoded[..len]);
    }

    #[test]
    fn single_byte_mutations_never_panic(msg in message(), pos in any::<usize>(), flip in 1u8..255u8) {
        let mut bytes = msg.encode().to_vec();
        if !bytes.is_empty() {
            let at = pos % bytes.len();
            bytes[at] ^= flip;
        }
        assert_decode_total(&bytes);
    }

    #[test]
    fn a_dense_body_of_the_wrong_length_fails_in_decode(
        m in matrix(),
        pick in 0u8..6,
        cut in any::<usize>(),
        extra in vec(any::<u8>(), 1..9usize),
    ) {
        // The matrix variants: nothing follows the body, so every byte short
        // of it or past it is a length error the decoder must report.
        let msg = match pick {
            0 => Message::GenSlice(m),
            1 => Message::SynthLogits(m),
            2 => Message::RealLogits(m),
            3 => Message::GradLogits(m),
            4 => Message::GradGenSlice(m),
            _ => Message::SyntheticShare(m),
        };
        let encoded = msg.encode().to_vec();
        let short = &encoded[..cut % encoded.len()];
        prop_assert!(Message::decode(Bytes::from(short.to_vec())).is_err(), "{} of {} bytes", short.len(), encoded.len());
        let mut long = encoded.clone();
        long.extend_from_slice(&extra);
        prop_assert!(Message::decode(Bytes::from(long)).is_err(), "{} extra bytes", extra.len());
    }

    #[test]
    fn truncated_sparse_bodies_never_panic(m in sparse_matrix(), cut in any::<usize>()) {
        let encoded = Message::GenSlice(m).encode_with(WireCodec::Adaptive).to_vec();
        let len = cut % (encoded.len() + 1);
        assert_decode_total(&encoded[..len]);
    }

    #[test]
    fn mutated_sparse_bodies_never_panic(m in sparse_matrix(), pos in any::<usize>(), flip in 1u8..255u8) {
        // Flipped bytes can produce out-of-range indices, non-increasing
        // index runs, stored zeros, absurd nnz counts or an unknown format
        // tag — all must surface as Err, never as a panic or a bad alloc.
        let mut bytes = Message::GenSlice(m).encode_with(WireCodec::Adaptive).to_vec();
        if !bytes.is_empty() {
            let at = pos % bytes.len();
            bytes[at] ^= flip;
        }
        assert_decode_total(&bytes);
    }
}
