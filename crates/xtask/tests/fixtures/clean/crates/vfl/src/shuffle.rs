//! Clean fixture: the client↔client shuffle path. Secret roots may live
//! here freely — L6 polices only server-side code.

pub struct SharedShuffler {
    seed: u64,
}

impl SharedShuffler {
    pub fn negotiate_seed(shares: &[u64]) -> u64 {
        shares.iter().fold(0, |acc, s| acc ^ s)
    }

    pub fn round_seed(&self, round: u64) -> u64 {
        self.seed ^ round
    }

    pub fn shuffle_rng(&self, round: u64) -> StdRng {
        StdRng::seed_from_u64(self.round_seed(round))
    }
}
