//! Weight initialization schemes.

use gtv_tensor::Tensor;
use rand::Rng;

/// Initialization scheme for linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Init {
    /// PyTorch `nn.Linear` default: `U(-1/√fan_in, 1/√fan_in)`.
    #[default]
    KaimingUniform,
    /// Xavier/Glorot uniform: `U(±√(6/(fan_in+fan_out)))`.
    XavierUniform,
    /// Gaussian with the given standard deviation.
    Normal,
    /// All zeros (biases, batch-norm shift).
    Zeros,
    /// All ones (batch-norm scale).
    Ones,
}

impl Init {
    /// Samples a `fan_in × fan_out` weight matrix.
    pub fn sample(self, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
        match self {
            Init::KaimingUniform => {
                let bound = 1.0 / (fan_in.max(1) as f32).sqrt();
                Tensor::rand_uniform(fan_in, fan_out, -bound, bound, rng)
            }
            Init::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                Tensor::rand_uniform(fan_in, fan_out, -bound, bound, rng)
            }
            Init::Normal => Tensor::randn(fan_in, fan_out, rng).mul_scalar(0.02),
            Init::Zeros => Tensor::zeros(fan_in, fan_out),
            Init::Ones => Tensor::ones(fan_in, fan_out),
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Init::KaimingUniform.sample(16, 8, &mut rng);
        let bound = 1.0 / 4.0;
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zeros_and_ones() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(Init::Zeros.sample(2, 3, &mut rng), Tensor::zeros(2, 3));
        assert_eq!(Init::Ones.sample(2, 3, &mut rng), Tensor::ones(2, 3));
    }
}
