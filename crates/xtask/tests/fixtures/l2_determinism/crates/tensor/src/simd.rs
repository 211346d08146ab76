//! Fixture: the sanctioned SIMD module uses lane types freely and must
//! stay quiet under the lane-token rule.

pub struct F32x8(pub [f32; 8]);

pub fn sum(xs: &[f32]) -> f32 {
    let mut acc = F32x8([0.0; 8]);
    let mut groups = xs.chunks_exact(8);
    for g in &mut groups {
        for i in 0..8 {
            acc.0[i] += g[i];
        }
    }
    acc.0.iter().sum::<f32>() + groups.remainder().iter().sum::<f32>()
}

pub fn exp4(x: [f64; 4]) -> [f64; 4] {
    std::array::from_fn(|i| x[i] + 1.0)
}

pub struct Moments(pub [[f64; 8]; 3]);
