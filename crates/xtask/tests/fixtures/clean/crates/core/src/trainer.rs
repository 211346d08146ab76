//! Clean fixture: a protocol step that uploads encoded activations — the
//! wire sends L11 polices, with no raw column in them.

use gtv_vfl::{Message, Network, PartyId, TransportError};

pub struct Round {
    net: Network,
    clients: usize,
}

impl Round {
    pub fn upload(&self, activations: Vec<f32>) -> Result<(), TransportError> {
        for i in 0..self.clients {
            let msg = Message::SynthLogits(activations.clone());
            self.net.send(PartyId::Client(i), PartyId::Server, msg)?;
        }
        Ok(())
    }
}
