//! Known-bad fixture for the L10 drift check: `MaskedUpload` (the Sun et
//! al. masked-payload extension) has encode/decode arms but no edge in the
//! declared protocol machine.

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
    MaskedUpload(Vec<u8>),
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::RoundStart { .. } => 0,
            Message::CondUpload { .. } => 1,
            Message::GenSlice(_) => 2,
            Message::SynthLogits(_) => 3,
            Message::RealLogits(_) => 4,
            Message::GradLogits(_) => 5,
            Message::GradGenSlice(_) => 6,
            Message::SyntheticShare(_) => 7,
            Message::ShuffleSeedShare { .. } => 8,
            Message::IndexShare { .. } => 9,
            Message::MaskedUpload(_) => 10,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let out = vec![self.tag()];
        match self {
            Message::RoundStart { .. }
            | Message::CondUpload { .. }
            | Message::GenSlice(_)
            | Message::SynthLogits(_)
            | Message::RealLogits(_)
            | Message::GradLogits(_)
            | Message::GradGenSlice(_)
            | Message::SyntheticShare(_)
            | Message::ShuffleSeedShare { .. }
            | Message::IndexShare { .. }
            | Message::MaskedUpload(_) => out,
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes.first()? {
            0 => Some(Message::RoundStart { round: 0 }),
            1 => Some(Message::CondUpload { cv: Vec::new() }),
            2 => Some(Message::GenSlice(Vec::new())),
            3 => Some(Message::SynthLogits(Vec::new())),
            4 => Some(Message::RealLogits(Vec::new())),
            5 => Some(Message::GradLogits(Vec::new())),
            6 => Some(Message::GradGenSlice(Vec::new())),
            7 => Some(Message::SyntheticShare(Vec::new())),
            8 => Some(Message::ShuffleSeedShare { share: 0 }),
            9 => Some(Message::IndexShare { indices: Vec::new() }),
            10 => Some(Message::MaskedUpload(Vec::new())),
            _ => None,
        }
    }
}
