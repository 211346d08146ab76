//! Clean fixture: exhaustive wire handling, no denied tokens. Mirrors the
//! wire-format-v2 shape: `encode` is a thin wrapper and the variant match
//! lives in the codec-parameterized `encode_with`. The enum carries the
//! full protocol vocabulary so the L10 drift check (machine ↔ wire
//! bijection) stays quiet.

pub enum Codec {
    Dense,
    Adaptive,
}

pub enum Message {
    RoundStart { round: u64 },
    CondUpload { cv: Vec<f32> },
    GenSlice(Vec<f32>),
    SynthLogits(Vec<f32>),
    RealLogits(Vec<f32>),
    GradLogits(Vec<f32>),
    GradGenSlice(Vec<f32>),
    SyntheticShare(Vec<f32>),
    ShuffleSeedShare { share: u64 },
    IndexShare { indices: Vec<u64> },
}

fn put_floats(out: &mut Vec<u8>, values: &[f32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl Message {
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&Codec::Dense)
    }

    pub fn encode_with(&self, codec: &Codec) -> Vec<u8> {
        let marker = match codec {
            Codec::Dense => 0u8,
            Codec::Adaptive => 1u8,
        };
        let mut out = vec![marker];
        match self {
            Message::RoundStart { round } => {
                out.push(0);
                out.extend_from_slice(&round.to_le_bytes());
            }
            Message::CondUpload { cv } => {
                out.push(1);
                put_floats(&mut out, cv);
            }
            Message::GenSlice(m) => {
                out.push(2);
                put_floats(&mut out, m);
            }
            Message::SynthLogits(m) => {
                out.push(3);
                put_floats(&mut out, m);
            }
            Message::RealLogits(m) => {
                out.push(4);
                put_floats(&mut out, m);
            }
            Message::GradLogits(m) => {
                out.push(5);
                put_floats(&mut out, m);
            }
            Message::GradGenSlice(m) => {
                out.push(6);
                put_floats(&mut out, m);
            }
            Message::SyntheticShare(m) => {
                out.push(7);
                put_floats(&mut out, m);
            }
            Message::ShuffleSeedShare { share } => {
                out.push(8);
                out.extend_from_slice(&share.to_le_bytes());
            }
            Message::IndexShare { indices } => {
                out.push(9);
                for idx in indices {
                    out.extend_from_slice(&idx.to_le_bytes());
                }
            }
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let tag = bytes.get(1)?;
        match tag {
            0 => {
                let round = u64::from_le_bytes(bytes.get(2..10)?.try_into().ok()?);
                Some(Message::RoundStart { round })
            }
            1 => Some(Message::CondUpload { cv: Vec::new() }),
            2 => Some(Message::GenSlice(Vec::new())),
            3 => Some(Message::SynthLogits(Vec::new())),
            4 => Some(Message::RealLogits(Vec::new())),
            5 => Some(Message::GradLogits(Vec::new())),
            6 => Some(Message::GradGenSlice(Vec::new())),
            7 => Some(Message::SyntheticShare(Vec::new())),
            8 => {
                let share = u64::from_le_bytes(bytes.get(2..10)?.try_into().ok()?);
                Some(Message::ShuffleSeedShare { share })
            }
            9 => Some(Message::IndexShare { indices: Vec::new() }),
            _ => None,
        }
    }
}
