//! Negative fixture for the rules that moved from `gtv-xtask` into clippy:
//! one violation of each, plus two forms the old line rules could not see
//! (a UFCS unwrap and a float `==` with no literal on either side).
//! `tools/ci.sh` requires `cargo clippy` on this crate to fail and to name
//! every expected lint.

/// L1, declared the way each protocol file declares it.
pub mod protocol_path {
    #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

    pub fn unwrap(x: Option<u32>) -> u32 {
        x.unwrap()
    }

    pub fn expect(x: Option<u32>) -> u32 {
        x.expect("present")
    }

    pub fn mid_round() {
        panic!("mid-round");
    }

    pub fn exhausted(x: u32) -> u32 {
        if x > 0 {
            x
        } else {
            unreachable!()
        }
    }

    /// No `.unwrap(` on the line for a token scan to find.
    pub fn unwrap_ufcs(x: Option<u32>) -> u32 {
        Option::unwrap(x)
    }
}

/// L2's clock and thread half: `disallowed-methods` in the root `clippy.toml`.
pub fn clocks_and_threads() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _ = std::thread::spawn(|| {});
    let _ = std::thread::Builder::new().spawn(|| {});
}

/// L3, declared the way the metric crates declare it.
pub mod metrics {
    #![deny(clippy::float_cmp)]

    pub fn is_one_and_a_half(v: f64) -> bool {
        v == 1.5
    }

    /// Neither side is a literal.
    pub fn tied(a: f64, b: f64) -> bool {
        a == b
    }
}

/// L5: an `allow` without a `reason`.
#[allow(clippy::needless_range_loop)]
pub fn total(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for i in 0..xs.len() {
        sum += xs[i];
    }
    sum
}
