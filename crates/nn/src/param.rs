//! Trainable parameters and their binding into per-step graphs.
//!
//! Parameters live *outside* the autograd graph: a [`Param`] owns persistent
//! value and gradient tensors, and every training step binds it into a fresh
//! [`Graph`] as a leaf via [`ParamBinder::bind`]. After building the loss,
//! [`ParamBinder::backprop`] computes gradients and writes them back;
//! [`ParamBinder::backprop_params`] does so for a chosen subset, which is
//! how a GAN step differentiates only the network its optimizer steps.

use gtv_tensor::{Graph, Tensor, Var};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A shared handle to a trainable tensor.
///
/// Cloning a `Param` clones the *handle*: all clones refer to the same
/// underlying value and gradient. Handles are `Send + Sync` so a trained
/// model can be served from any thread; access is guarded by an RwLock
/// (uncontended outside training, where steps are single-writer anyway).
#[derive(Clone)]
pub struct Param {
    inner: Arc<RwLock<ParamInner>>,
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.read();
        write!(f, "Param({} {}x{})", inner.name, inner.value.rows(), inner.value.cols())
    }
}

impl Param {
    /// Creates a parameter with the given debug name and initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self { inner: Arc::new(RwLock::new(ParamInner { name: name.into(), value, grad })) }
    }

    /// A poisoned lock is recovered: parameter state is a pair of tensors,
    /// valid after any interrupted writer.
    fn read(&self) -> RwLockReadGuard<'_, ParamInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, ParamInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Debug name.
    pub fn name(&self) -> String {
        self.read().name.clone()
    }

    /// Copy of the current value.
    pub fn value(&self) -> Tensor {
        self.read().value.clone()
    }

    /// Copy of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.read().grad.clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.read().value.shape()
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        let (r, c) = self.shape();
        r * c
    }

    /// True if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the value (used by optimizers).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.write();
        assert_eq!(inner.value.shape(), value.shape(), "set_value shape mismatch");
        std::mem::replace(&mut inner.value, value).recycle();
    }

    /// Runs `f` on the value and the accumulated gradient, as flat row-major
    /// slices, under one write guard: how an optimizer steps in place,
    /// without the copies [`Param::value`] and [`Param::grad`] make.
    pub fn update(&self, f: impl FnOnce(&mut [f32], &[f32])) {
        let inner = &mut *self.write();
        f(inner.value.as_mut_slice(), inner.grad.as_slice());
    }

    /// Adds `delta` to the stored gradient, in the gradient's own buffer
    /// (the same IEEE sums `Tensor::add` makes), so a backward pass takes
    /// nothing from the pool for it.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not shaped like the parameter.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        let mut inner = self.write();
        assert_eq!(inner.grad.shape(), delta.shape(), "gradient shape mismatch");
        for (g, d) in inner.grad.as_mut_slice().iter_mut().zip(delta.as_slice()) {
            *g += d;
        }
    }

    /// Resets the stored gradient to zero, in its own buffer.
    pub fn zero_grad(&self) {
        self.write().grad.as_mut_slice().fill(0.0);
    }

    /// True when two handles refer to the same underlying parameter.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Anything that owns trainable parameters.
pub trait Module {
    /// Handles to every trainable parameter, in a stable order.
    fn params(&self) -> Vec<Param>;

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(Param::len).sum()
    }
}

/// Records which graph leaf corresponds to which parameter during one step.
#[derive(Default)]
pub struct ParamBinder {
    entries: RefCell<Vec<(Param, Var)>>,
}

impl fmt::Debug for ParamBinder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ParamBinder({} bound)", self.entries.borrow().len())
    }
}

impl ParamBinder {
    /// Creates an empty binder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `p` into `g` as a leaf holding its current value. Binding the
    /// same parameter twice returns the same leaf.
    pub fn bind(&self, g: &Graph, p: &Param) -> Var {
        if let Some((_, v)) = self.entries.borrow().iter().find(|(q, _)| q.ptr_eq(p)) {
            return *v;
        }
        let var = g.leaf(p.value());
        self.entries.borrow_mut().push((p.clone(), var));
        var
    }

    /// Number of distinct parameters bound so far.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// True if nothing has been bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the `(parameter, leaf var)` bindings, in bind order.
    pub fn bindings(&self) -> Vec<(Param, Var)> {
        self.entries.borrow().clone()
    }

    /// The one backward pass: computes gradients of `loss` w.r.t. the bound
    /// parameters among `params` *and* the given extra vars, accumulates the
    /// parameter gradients into those parameters and returns the extras'
    /// gradient vars (in order).
    ///
    /// Bound parameters outside `params` are not differentiated — their
    /// gradient buffers are left untouched and [`Graph::grad`] builds no
    /// node on their behalf (the backward pass is demand-driven). A step
    /// that trains one network through another passes its own optimizer's
    /// parameters here; a parameter of `params` that was never bound is
    /// ignored. The gradients that are computed do not depend on which
    /// other parameters were asked for.
    pub fn backprop_params(
        &self,
        g: &Graph,
        loss: Var,
        params: &[Param],
        extras: &[Var],
    ) -> Vec<Var> {
        let entries = self.entries.borrow();
        let wanted: Vec<&(Param, Var)> =
            entries.iter().filter(|(p, _)| params.iter().any(|q| q.ptr_eq(p))).collect();
        let mut wrt: Vec<Var> = wanted.iter().map(|(_, v)| *v).collect();
        wrt.extend_from_slice(extras);
        let grads = g.grad(loss, &wrt);
        for ((p, _), gv) in wanted.iter().zip(&grads) {
            g.with_value(*gv, |t| p.accumulate_grad(t));
        }
        grads[wanted.len()..].to_vec()
    }

    /// [`ParamBinder::backprop_params`] over every bound parameter: parameter
    /// gradients are accumulated into the parameters; the extras' gradient
    /// vars are returned (in order). Useful when a trainer also needs the
    /// gradients that cross a protocol boundary.
    pub fn backprop_with_extras(&self, g: &Graph, loss: Var, extras: &[Var]) -> Vec<Var> {
        let bound: Vec<Param> = self.entries.borrow().iter().map(|(p, _)| p.clone()).collect();
        self.backprop_params(g, loss, &bound, extras)
    }

    /// Computes `d loss / d p` for every bound parameter and accumulates the
    /// results into the parameters' gradient buffers.
    pub fn backprop(&self, g: &Graph, loss: Var) {
        self.backprop_with_extras(g, loss, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_idempotent_per_param() {
        let g = Graph::new();
        let binder = ParamBinder::new();
        let p = Param::new("w", Tensor::scalar(1.5));
        let v1 = binder.bind(&g, &p);
        let v2 = binder.bind(&g, &p);
        assert_eq!(v1, v2);
        assert_eq!(binder.len(), 1);
    }

    #[test]
    fn backprop_writes_param_grads() {
        let g = Graph::new();
        let binder = ParamBinder::new();
        let p = Param::new("w", Tensor::row(&[2.0, 3.0]));
        let w = binder.bind(&g, &p);
        let loss = g.sum_all(g.mul(w, w)); // d/dw = 2w
        binder.backprop(&g, loss);
        assert_eq!(p.grad(), Tensor::row(&[4.0, 6.0]));
        // Accumulates on a second backward.
        binder.backprop(&g, loss);
        assert_eq!(p.grad(), Tensor::row(&[8.0, 12.0]));
        p.zero_grad();
        assert_eq!(p.grad(), Tensor::zeros(1, 2));
    }

    #[test]
    fn backprop_params_differentiates_only_the_chosen_set() {
        let g = Graph::new();
        let binder = ParamBinder::new();
        let own = Param::new("own", Tensor::row(&[2.0, 3.0]));
        let other = Param::new("other", Tensor::row(&[5.0, 7.0]));
        let unbound = Param::new("unbound", Tensor::scalar(1.0));
        let (a, b) = (binder.bind(&g, &own), binder.bind(&g, &other));
        let x = g.leaf(Tensor::row(&[1.0, 1.0]));
        let loss = g.sum_all(g.mul(g.mul(a, b), x));
        let extras = binder.backprop_params(&g, loss, &[own.clone(), unbound.clone()], &[x]);
        assert_eq!(own.grad(), Tensor::row(&[5.0, 7.0]));
        assert_eq!(other.grad(), Tensor::zeros(1, 2), "not asked for, not touched");
        assert_eq!(unbound.grad(), Tensor::scalar(0.0), "asked for, never bound");
        assert_eq!(g.value(extras[0]), Tensor::row(&[10.0, 21.0]));
        // The all-bound form is the same pass over a wider set.
        binder.backprop(&g, loss);
        assert_eq!(own.grad(), Tensor::row(&[10.0, 14.0]), "accumulated");
        assert_eq!(other.grad(), Tensor::row(&[2.0, 3.0]));
    }

    #[test]
    fn param_handles_share_state() {
        let p = Param::new("w", Tensor::scalar(1.0));
        let q = p.clone();
        q.set_value(Tensor::scalar(9.0));
        assert_eq!(p.value().item(), 9.0);
        assert!(p.ptr_eq(&q));
    }
}
