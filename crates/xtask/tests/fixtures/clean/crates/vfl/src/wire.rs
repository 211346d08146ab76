//! Clean fixture: wire encoding of payloads that are not raw columns. The
//! enum keeps `ShuffleSeedShare.share`, so L6's registry-drift guard stays
//! quiet.

pub enum Message {
    RoundStart { round: u64 },
    GenSlice(Vec<f32>),
    SynthLogits(Vec<f32>),
    ShuffleSeedShare { share: u64 },
}

fn put_floats(out: &mut Vec<u8>, values: &[f32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl Message {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8];
        match self {
            Message::RoundStart { round } => {
                out.push(0);
                out.extend_from_slice(&round.to_le_bytes());
            }
            Message::GenSlice(m) => {
                out.push(2);
                put_floats(&mut out, m);
            }
            Message::SynthLogits(m) => {
                out.push(3);
                put_floats(&mut out, m);
            }
            Message::ShuffleSeedShare { share } => {
                out.push(8);
                out.extend_from_slice(&share.to_le_bytes());
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
            2 => Some(Message::GenSlice(Vec::new())),
            3 => Some(Message::SynthLogits(Vec::new())),
            8 => {
                let share = u64::from_le_bytes(bytes.get(2..10)?.try_into().ok()?);
                Some(Message::ShuffleSeedShare { share })
            }
            _ => None,
        }
    }
}
