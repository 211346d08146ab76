//! Fixture: hand-rolled f64 lane code outside the sanctioned SIMD module.

pub fn hand_exp(xs: [f64; 4]) -> [f64; 4] {
    std::array::from_fn(|i| xs[i] * xs[i] + 1.0)
}

pub fn hand_moments(rs: &[f64]) -> f64 {
    let mut acc: [f64; 8] = [0.0; 8];
    for (i, r) in rs.iter().enumerate() {
        acc[i % 8] += r;
    }
    acc.iter().sum()
}

pub fn stack_scratch(k: usize) -> f64 {
    // A buffer that is not a lane array: another width, no finding.
    let buf = [0.0f64; 16];
    buf[..k.min(16)].iter().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn lanes_in_tests_are_fine() {
        let acc: [f64; 4] = [1.0; 4];
        assert_eq!(acc.len(), 4);
    }
}
