//! Negative fixture for the rules that moved from `gtv-xtask` into clippy:
//! one violation of each, plus two forms the old line rules could not see
//! (a UFCS unwrap and a float `==` with no literal on either side), and the
//! three flows the old L12 taint rule was written against.
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

/// L12: an environment-derived seed.
pub fn env_seed() -> u64 {
    let knob = std::env::var("GTV_EXPERIMENT").unwrap_or_default();
    knob.len() as u64
}

/// L12: a thread id passed into a kernel call.
pub fn thread_scaled(m: &mut [f32]) {
    let id = std::thread::current().id();
    scale_rows(m, format!("{id:?}").len());
}

fn scale_rows(m: &mut [f32], factor: usize) {
    for v in m {
        *v *= factor as f32;
    }
}

/// L12: a `for` over a `HashMap` feeding a payload — both the loop
/// (`iter_over_hash_type`) and the `iter` call (`disallowed-methods`) fire.
pub fn unordered_payload(counts: &std::collections::HashMap<String, u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, n) in counts.iter() {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    out
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

/// L8, declared the way the wire files and `gtv-serve` declare it.
pub mod wire_path {
    #![cfg_attr(
        not(test),
        deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
    )]

    pub fn length_prefix(body: &[u8]) -> u32 {
        body.len() as u32
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
