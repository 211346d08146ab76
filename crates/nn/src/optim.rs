//! Optimizers: Adam (CTGAN defaults) and plain SGD.

use crate::param::Param;
use gtv_tensor::Tensor;

/// Adam hyper-parameters. Defaults match CTGAN's GAN training setup
/// (`lr = 2e-4`, `β = (0.5, 0.9)`, weight decay `1e-6`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 2e-4, beta1: 0.5, beta2: 0.9, eps: 1e-8, weight_decay: 1e-6 }
    }
}

struct Slot {
    param: Param,
    m: Tensor,
    v: Tensor,
}

/// Adam optimizer over a fixed set of parameters.
///
/// # Examples
///
/// ```
/// use gtv_nn::{Adam, AdamConfig, Param};
/// use gtv_tensor::Tensor;
///
/// let p = Param::new("w", Tensor::scalar(1.0));
/// let mut opt = Adam::new(vec![p.clone()], AdamConfig::default());
/// p.accumulate_grad(&Tensor::scalar(0.5));
/// opt.step();
/// assert!(p.value().item() < 1.0);
/// ```
pub struct Adam {
    slots: Vec<Slot>,
    cfg: AdamConfig,
    t: u64,
}

impl std::fmt::Debug for Adam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Adam({} params, t={}, lr={})", self.slots.len(), self.t, self.cfg.lr)
    }
}

impl Adam {
    /// Creates an optimizer for the given parameters.
    pub fn new(params: Vec<Param>, cfg: AdamConfig) -> Self {
        let slots = params
            .into_iter()
            .map(|param| {
                let (r, c) = param.shape();
                Slot { param, m: Tensor::zeros(r, c), v: Tensor::zeros(r, c) }
            })
            .collect();
        Self { slots, cfg, t: 0 }
    }

    /// Number of managed parameters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no parameters are managed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Handles to the managed parameters, in construction order — the set a
    /// training step has to differentiate before [`Adam::step`].
    pub fn params(&self) -> Vec<Param> {
        self.slots.iter().map(|slot| slot.param.clone()).collect()
    }

    /// Applies one Adam update using each parameter's accumulated gradient.
    ///
    /// The moments and the parameter are updated in place, the parameter
    /// under one write guard ([`Param::update`]) — the optimizer allocates
    /// and copies nothing in the training hot loop. The per-element
    /// arithmetic (operand order included) matches the tensor-expression
    /// formulation it replaced, so trajectories are bit-identical.
    pub fn step(&mut self) {
        self.t += 1;
        let c = self.cfg;
        let rb1 = 1.0 / (1.0 - c.beta1.powi(self.t as i32));
        let rb2 = 1.0 / (1.0 - c.beta2.powi(self.t as i32));
        for slot in &mut self.slots {
            let moments = slot.m.as_mut_slice().iter_mut().zip(slot.v.as_mut_slice());
            slot.param.update(|values, grads| {
                // Zipped, not indexed: without a bounds check per element the
                // loop vectorizes (sqrt and division included).
                for ((value, &grad), (m, v)) in values.iter_mut().zip(grads).zip(moments) {
                    let mut g = grad;
                    if c.weight_decay != 0.0 {
                        g += *value * c.weight_decay;
                    }
                    *m = *m * c.beta1 + g * (1.0 - c.beta1);
                    *v = *v * c.beta2 + (g * g) * (1.0 - c.beta2);
                    let m_hat = *m * rb1;
                    let v_hat = *v * rb2;
                    *value -= (m_hat / (v_hat.sqrt() + c.eps)) * c.lr;
                }
            });
        }
    }

    /// Zeroes the gradient buffers of every managed parameter.
    pub fn zero_grad(&self) {
        for slot in &self.slots {
            slot.param.zero_grad();
        }
    }
}

/// Plain stochastic gradient descent (used by the evaluation classifiers).
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Param>,
    lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Self { params, lr }
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for simple schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies `p ← p − lr·∇p` for every parameter.
    pub fn step(&mut self) {
        for p in &self.params {
            p.set_value(p.value().sub(&p.grad().mul_scalar(self.lr)));
        }
    }

    /// Zeroes all gradient buffers.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_tensor::Graph;

    /// Minimize (w-3)² with Adam; should converge near 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(vec![p.clone()], AdamConfig { lr: 0.1, ..Default::default() });
        for _ in 0..300 {
            opt.zero_grad();
            let g = Graph::new();
            let binder = crate::param::ParamBinder::new();
            let w = binder.bind(&g, &p);
            let t = g.add_scalar(w, -3.0);
            let loss = g.mul(t, t);
            binder.backprop(&g, loss);
            opt.step();
        }
        assert!((p.value().item() - 3.0).abs() < 0.05, "got {}", p.value().item());
    }

    #[test]
    fn sgd_descends() {
        let p = Param::new("w", Tensor::scalar(10.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.1);
        for _ in 0..100 {
            opt.zero_grad();
            p.accumulate_grad(&Tensor::scalar(2.0 * p.value().item())); // d/dw w²
            opt.step();
        }
        assert!(p.value().item().abs() < 1e-3);
    }

    /// `Adam::step` as it was before it updated under one write guard:
    /// copies of value and gradient out, the stepped value moved back in.
    fn step_through_copies(params: &[Param], m: &mut [Tensor], v: &mut [Tensor], t: i32) {
        let c = AdamConfig::default();
        let rb1 = 1.0 / (1.0 - c.beta1.powi(t));
        let rb2 = 1.0 / (1.0 - c.beta2.powi(t));
        for (p, (m, v)) in params.iter().zip(m.iter_mut().zip(v.iter_mut())) {
            let grad = p.grad();
            let mut value = p.value();
            let (ms, vs) = (m.as_mut_slice(), v.as_mut_slice());
            for (i, x) in value.as_mut_slice().iter_mut().enumerate() {
                let g = grad.as_slice()[i] + *x * c.weight_decay;
                ms[i] = ms[i] * c.beta1 + g * (1.0 - c.beta1);
                vs[i] = vs[i] * c.beta2 + (g * g) * (1.0 - c.beta2);
                *x -= ((ms[i] * rb1) / ((vs[i] * rb2).sqrt() + c.eps)) * c.lr;
            }
            p.set_value(value);
        }
    }

    #[test]
    fn in_place_step_walks_the_trajectory_of_the_copying_one() {
        let toy = || {
            vec![
                Param::new("w", Tensor::from_fn(3, 4, |r, c| 0.3 * r as f32 - 0.2 * c as f32)),
                Param::new("b", Tensor::row(&[0.5, -1.5, 0.0, 2.0])),
                Param::new("s", Tensor::scalar(-0.7)),
            ]
        };
        let (stepped, reference) = (toy(), toy());
        let mut opt = Adam::new(stepped.clone(), AdamConfig::default());
        let mut m: Vec<Tensor> =
            reference.iter().map(|p| Tensor::zeros(p.shape().0, p.shape().1)).collect();
        let mut v = m.clone();
        for t in 1..=6 {
            for params in [&stepped, &reference] {
                for (k, p) in params.iter().enumerate() {
                    p.zero_grad();
                    // A gradient that depends on where the trajectory has got to.
                    p.accumulate_grad(&p.value().map(|x| (x + k as f32) * 0.37 - t as f32 * 0.11));
                    if t % 2 == 0 {
                        p.accumulate_grad(&Tensor::full(p.shape().0, p.shape().1, 0.25));
                    }
                }
            }
            opt.step();
            step_through_copies(&reference, &mut m, &mut v, t);
            for (a, b) in stepped.iter().zip(&reference) {
                let bits = |p: &Param| {
                    p.value().as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(a), bits(b), "{} diverged at step {t}", a.name());
                assert_eq!(a.grad(), b.grad(), "step must leave the gradient alone");
            }
        }
    }

    #[test]
    fn adam_step_direction_matches_gradient_sign() {
        let p = Param::new("w", Tensor::row(&[1.0, -1.0]));
        let mut opt = Adam::new(vec![p.clone()], AdamConfig::default());
        p.accumulate_grad(&Tensor::row(&[1.0, -1.0]));
        opt.step();
        let v = p.value();
        assert!(v.at(0, 0) < 1.0);
        assert!(v.at(0, 1) > -1.0);
    }
}
