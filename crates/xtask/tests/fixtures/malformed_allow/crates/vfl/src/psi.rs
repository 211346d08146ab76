//! Known-bad fixture: an escape hatch without a justification does not
//! suppress, and is itself reported.

pub fn unjustified(xs: &[f32]) -> f32 {
    // gtv-lint: allow(determinism)
    let lanes: [f32; 8] = [0.0; 8];
    lanes.iter().sum::<f32>() + xs.len() as f32
}
