//! Fully-connected (MLP) layers with explicit forward/backward passes.
//!
//! DLRMs contain a *bottom* MLP that embeds dense features and a *top* MLP
//! that scores the feature interactions (§2 of the paper). Both are plain
//! stacks of `Linear -> activation` layers; in the data-parallel dimension
//! their gradients are synchronized with AllReduce, which is why this module
//! exposes flat parameter/gradient views ([`Mlp::grads_flat`],
//! [`Mlp::set_grads_flat`]).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{gemm, init, ShapeError, Tensor2};

/// Element-wise nonlinearity applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — used by every hidden layer in the paper's MLP bench.
    Relu,
    /// Logistic sigmoid — used on the final CTR output.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer: `y = act(x W + b)`, with weights stored `in_dim x out_dim`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor2,
    b: Tensor2,
    act: Activation,
    dw: Tensor2,
    db: Tensor2,
    #[serde(skip)]
    cached_input: Option<Tensor2>,
    #[serde(skip)]
    cached_output: Option<Tensor2>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut impl Rng) -> Self {
        Self {
            w: init::xavier_uniform(in_dim, out_dim, rng),
            b: Tensor2::zeros(1, out_dim),
            act,
            dw: Tensor2::zeros(in_dim, out_dim),
            db: Tensor2::zeros(1, out_dim),
            cached_input: None,
            cached_output: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass, caching activations for the subsequent backward call.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let y = self.forward_inference(x);
        self.cached_input = Some(x.clone()); // lint: allow(hot_path_alloc) — activation cache: backward consumes the saved input, so forward must own a copy
        self.cached_output = Some(y.clone()); // lint: allow(hot_path_alloc) — activation cache: backward consumes the saved output, so forward must own a copy
        y
    }

    /// Forward pass without caching (no backward possible afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        crate::sanitize::check_shape("linear forward input", x.shape(), (x.rows(), self.in_dim()));
        crate::sanitize::check_finite("linear forward input", x.as_slice());
        // lint: allow(panic) — shape contract documented under # Panics
        let mut y = gemm::matmul(x, &self.w).expect("linear forward shape"); // lint: allow(panic_path) — shape contract documented under # Panics; Result callers fix dims at build time
        for i in 0..y.rows() {
            let row = y.row_mut(i);
            for (v, &bias) in row.iter_mut().zip(self.b.row(0)) {
                *v = self.act.apply(*v + bias);
            }
        }
        crate::sanitize::check_finite("mlp activation output", y.as_slice());
        y
    }

    /// Backward pass: consumes the cached activations, accumulates `dw`/`db`
    /// and returns the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first or `dy` has
    /// the wrong shape.
    pub fn backward(&mut self, dy: &Tensor2) -> crate::Result<Tensor2> {
        let dz = self.backward_params(dy)?;
        gemm::matmul_a_bt(&dz, &self.w)
    }

    /// The parameter half of [`Linear::backward`]: consumes the cached
    /// activations, accumulates `dw`/`db` and returns the pre-activation
    /// gradient `dz`, without forming the input gradient `dz * W^T`.
    fn backward_params(&mut self, dy: &Tensor2) -> crate::Result<Tensor2> {
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| ShapeError::new("backward without forward"))?;
        let y = self
            .cached_output
            .take()
            .ok_or_else(|| ShapeError::new("backward without forward output"))?;
        if dy.shape() != y.shape() {
            return Err(ShapeError::new("dy shape mismatch in linear backward"));
        }
        // dz = dy * act'(y)
        let mut dz = dy.clone(); // lint: allow(hot_path_alloc) — dz is backward's owned working copy of dy, scaled in place by the activation gradient
        for (d, &out) in dz.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *d *= self.act.grad_from_output(out);
        }
        crate::sanitize::check_finite("mlp pre-activation gradient", dz.as_slice());
        // dW += X^T dz ; db += column sums of dz
        let dw = gemm::matmul_at_b(&x, &dz)?;
        self.dw += &dw;
        for i in 0..dz.rows() {
            for (acc, &g) in self.db.row_mut(0).iter_mut().zip(dz.row(i)) {
                *acc += g;
            }
        }
        Ok(dz)
    }

    /// Applies an SGD step `w -= lr * dw` and clears the gradients.
    pub fn sgd_step(&mut self, lr: f32) {
        // lint: allow(panic_path) — dw is allocated with w's shape at construction
        self.w.axpy(-lr, &self.dw).expect("dw shape"); // lint: allow(panic) — dw is allocated with w's shape
                                                       // lint: allow(panic_path) — db is allocated with b's shape at construction
        self.b.axpy(-lr, &self.db).expect("db shape"); // lint: allow(panic) — db is allocated with b's shape
        crate::sanitize::check_finite("sgd-updated weights", self.w.as_slice());
        crate::sanitize::check_finite("sgd-updated bias", self.b.as_slice());
        self.zero_grads();
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.dw.map_inplace(|_| 0.0);
        self.db.map_inplace(|_| 0.0);
    }

    /// Number of trainable parameters (weights + bias).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Configuration of an MLP stack.
///
/// # Example
///
/// ```
/// use neo_tensor::mlp::{MlpConfig, Activation};
/// let cfg = MlpConfig::new(13, &[512, 256, 64], Activation::Relu);
/// assert_eq!(cfg.output_dim(), 64);
/// assert!(cfg.flops_per_sample() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Output width of each successive layer.
    pub layer_sizes: Vec<usize>,
    /// Activation for the hidden layers.
    pub hidden_activation: Activation,
    /// Activation for the final layer (defaults to the hidden activation).
    pub final_activation: Activation,
}

impl MlpConfig {
    /// Creates a config where every layer, including the last, uses `act`.
    pub fn new(input_dim: usize, layer_sizes: &[usize], act: Activation) -> Self {
        Self {
            input_dim,
            layer_sizes: layer_sizes.to_vec(), // lint: allow(hot_path_alloc) — config constructor; runs once at model build (reached only via the same-name merge with ShapeError::new)
            hidden_activation: act,
            final_activation: act,
        }
    }

    /// Sets a distinct final-layer activation (builder style).
    #[must_use]
    pub fn with_final_activation(mut self, act: Activation) -> Self {
        self.final_activation = act;
        self
    }

    /// Width of the final layer (or the input if there are no layers).
    pub fn output_dim(&self) -> usize {
        self.layer_sizes.last().copied().unwrap_or(self.input_dim)
    }

    /// Forward flops per sample (2·in·out per layer, matching
    /// [`gemm::gemm_flops`] with batch 1).
    pub fn flops_per_sample(&self) -> u64 {
        let mut flops = 0u64;
        let mut prev = self.input_dim as u64;
        for &w in &self.layer_sizes {
            flops += 2 * prev * w as u64;
            prev = w as u64;
        }
        flops
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> u64 {
        let mut n = 0u64;
        let mut prev = self.input_dim as u64;
        for &w in &self.layer_sizes {
            n += prev * w as u64 + w as u64;
            prev = w as u64;
        }
        n
    }
}

/// A stack of [`Linear`] layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds the MLP described by `cfg` with weights drawn from `rng`.
    pub fn new(cfg: &MlpConfig, rng: &mut impl Rng) -> Self {
        let mut layers = Vec::with_capacity(cfg.layer_sizes.len()); // lint: allow(hot_path_alloc) — model constructor; runs once at model build (reached only via the same-name merge with ShapeError::new)
        let mut prev = cfg.input_dim;
        for (idx, &w) in cfg.layer_sizes.iter().enumerate() {
            let act = if idx + 1 == cfg.layer_sizes.len() {
                cfg.final_activation
            } else {
                cfg.hidden_activation
            };
            layers.push(Linear::new(prev, w, act, rng));
            prev = w;
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass with caching for backward.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let mut h = x.clone(); // lint: allow(hot_path_alloc) — forward threads an owned activation through the layer chain
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Forward pass without caching.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut h = x.clone(); // lint: allow(hot_path_alloc) — forward threads an owned activation through the layer chain
        for layer in &self.layers {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Backward pass; returns the gradient w.r.t. the original input.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first.
    pub fn backward(&mut self, dy: &Tensor2) -> crate::Result<Tensor2> {
        let mut g = dy.clone(); // lint: allow(hot_path_alloc) — backward seeds the gradient chain with an owned copy of dy
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Backward pass that accumulates every layer's `dW`/`db` exactly as
    /// [`Mlp::backward`] does but stops there: the gradient with respect to
    /// the MLP's input (the first layer's `dz * W^T`) is never formed. For
    /// an MLP fed by data rather than by another layer, such as the DLRM
    /// bottom MLP, that gradient has no consumer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first.
    pub fn backward_params(&mut self, dy: &Tensor2) -> crate::Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(dy))?);
        }
        first.backward_params(g.as_ref().unwrap_or(dy))?;
        Ok(())
    }

    /// SGD step on every layer; clears gradients.
    pub fn sgd_step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Appends all gradients (layer order, weights then bias) to `out`.
    ///
    /// Together with [`Mlp::set_grads_flat`] this is the hook the
    /// data-parallel trainer uses to AllReduce MLP gradients.
    pub fn grads_flat(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            out.extend_from_slice(layer.dw.as_slice());
            out.extend_from_slice(layer.db.as_slice());
        }
    }

    /// Overwrites all gradients from a flat buffer produced by
    /// [`Mlp::grads_flat`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `src` has the wrong length.
    pub fn set_grads_flat(&mut self, src: &[f32]) -> crate::Result<()> {
        if src.len() != self.num_params() {
            return Err(ShapeError::new(format!(
                "flat grads of len {} for mlp with {} params",
                src.len(),
                self.num_params()
            )));
        }
        let mut off = 0;
        for layer in &mut self.layers {
            let wlen = layer.dw.len();
            layer
                .dw
                .as_mut_slice()
                .copy_from_slice(&src[off..off + wlen]);
            off += wlen;
            let blen = layer.db.len();
            layer
                .db
                .as_mut_slice()
                .copy_from_slice(&src[off..off + blen]);
            off += blen;
        }
        Ok(())
    }

    /// Exclusive end offsets of each weight/bias slice within the flat
    /// parameter buffer — the segment boundaries layer-wise optimizers
    /// (LAMB) normalize over.
    pub fn param_segments(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        let mut off = 0;
        for layer in &self.layers {
            off += layer.w.len();
            out.push(off);
            off += layer.b.len();
            out.push(off);
        }
        out
    }

    /// Applies one step of any [`crate::optim::DenseOptimizer`] to the
    /// MLP's parameters using its accumulated gradients, then clears the
    /// gradients.
    pub fn apply_optimizer(&mut self, opt: &mut dyn crate::optim::DenseOptimizer) {
        let mut params = Vec::with_capacity(self.num_params());
        let mut grads = Vec::with_capacity(self.num_params());
        self.params_flat(&mut params);
        self.grads_flat(&mut grads);
        let segments = self.param_segments();
        opt.step(&mut params, &grads, &segments);
        crate::sanitize::check_finite("optimizer-updated parameters", &params);
        // lint: allow(panic) — params was built from this MLP's own layout
        self.set_params_flat(&params).expect("own parameter count"); // lint: allow(panic_path) — params was built from this MLP's own layout two lines above
        self.zero_grads();
    }

    /// Appends all parameters (layer order, weights then bias) to `out`.
    pub fn params_flat(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(layer.b.as_slice());
        }
    }

    /// Overwrites all parameters from a flat buffer produced by
    /// [`Mlp::params_flat`]. Used to broadcast initial replicas and by the
    /// parameter-server baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `src` has the wrong length.
    pub fn set_params_flat(&mut self, src: &[f32]) -> crate::Result<()> {
        if src.len() != self.num_params() {
            return Err(ShapeError::new(format!(
                "flat params of len {} for mlp with {} params",
                src.len(),
                self.num_params()
            )));
        }
        let mut off = 0;
        for layer in &mut self.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&src[off..off + wlen]);
            off += wlen;
            let blen = layer.b.len();
            layer
                .b
                .as_mut_slice()
                .copy_from_slice(&src[off..off + blen]);
            off += blen;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn forward_shapes() {
        let cfg = MlpConfig::new(6, &[10, 3], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(5, 6, |i, j| (i + j) as f32 * 0.1);
        assert_eq!(mlp.forward(&x).shape(), (5, 3));
        assert_eq!(mlp.num_layers(), 2);
    }

    #[test]
    fn relu_clamps_negative() {
        let mut l = Linear::new(1, 1, Activation::Relu, &mut rng());
        // force negative output
        l.w.as_mut_slice()[0] = -10.0;
        let y = l.forward_inference(&Tensor2::full(1, 1, 1.0));
        assert_eq!(y[(0, 0)], 0.0);
    }

    #[test]
    fn sigmoid_in_unit_interval() {
        let cfg =
            MlpConfig::new(4, &[8, 1], Activation::Relu).with_final_activation(Activation::Sigmoid);
        let mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(16, 4, |i, j| (i as f32 - 8.0) * (j as f32 + 1.0) * 0.05);
        let y = mlp.forward_inference(&x);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn backward_requires_forward() {
        let cfg = MlpConfig::new(2, &[2], Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        assert!(mlp.backward(&Tensor2::zeros(1, 2)).is_err());
    }

    /// Finite-difference check of the full MLP gradient.
    #[test]
    fn gradients_match_finite_differences() {
        let cfg = MlpConfig::new(3, &[4, 2], Activation::Sigmoid);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(2, 3, |i, j| 0.3 * (i as f32) - 0.2 * (j as f32) + 0.1);

        // loss = sum(y); dL/dy = ones
        let y = mlp.forward(&x);
        let dy = Tensor2::full(y.rows(), y.cols(), 1.0);
        let dx = mlp.backward(&dy).unwrap();

        let eps = 1e-3;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let fp = mlp.forward_inference(&xp).sum();
                let fm = mlp.forward_inference(&xm).sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (fd - dx[(i, j)]).abs() < 1e-2,
                    "dx[{i},{j}]: fd {fd} vs analytic {}",
                    dx[(i, j)]
                );
            }
        }
    }

    /// Finite-difference check of a weight gradient via an SGD probe.
    #[test]
    fn weight_gradient_descends_loss() {
        let cfg = MlpConfig::new(4, &[6, 1], Activation::Relu)
            .with_final_activation(Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::from_fn(8, 4, |i, j| ((i * 4 + j) % 5) as f32 * 0.2 - 0.4);
        let target = Tensor2::full(8, 1, 0.7);

        let loss = |m: &Mlp| {
            let y = m.forward_inference(&x);
            (&y - &target).norm_sq()
        };
        let before = loss(&mlp);
        for _ in 0..50 {
            let y = mlp.forward(&x);
            let dy = (&y - &target) * 2.0;
            mlp.backward(&dy).unwrap();
            mlp.sgd_step(0.01);
        }
        let after = loss(&mlp);
        assert!(after < before * 0.2, "loss {before} -> {after}");
    }

    #[test]
    fn backward_params_accumulates_the_same_gradients_as_backward() {
        let cfg = MlpConfig::new(5, &[7, 6, 3], Activation::Relu);
        let mut full = Mlp::new(&cfg, &mut rng());
        let mut params_only = full.clone();
        let x = Tensor2::from_fn(9, 5, |i, j| ((i * 5 + j) % 7) as f32 * 0.3 - 0.9);
        for step in 0..2 {
            let dy = Tensor2::from_fn(9, 3, |i, j| (i as f32 - j as f32) * 0.1 + step as f32);
            full.forward(&x);
            full.backward(&dy).unwrap();
            params_only.forward(&x);
            params_only.backward_params(&dy).unwrap();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        full.grads_flat(&mut a);
        params_only.grads_flat(&mut b);
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(params_only.backward_params(&Tensor2::zeros(9, 3)).is_err());
    }

    #[test]
    fn flat_grads_roundtrip() {
        let cfg = MlpConfig::new(3, &[5, 2], Activation::Relu);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let x = Tensor2::full(4, 3, 0.5);
        let y = mlp.forward(&x);
        mlp.backward(&Tensor2::full(y.rows(), y.cols(), 1.0))
            .unwrap();

        let mut g = Vec::new();
        mlp.grads_flat(&mut g);
        assert_eq!(g.len(), mlp.num_params());
        let scaled: Vec<f32> = g.iter().map(|v| v * 0.5).collect();
        mlp.set_grads_flat(&scaled).unwrap();
        let mut g2 = Vec::new();
        mlp.grads_flat(&mut g2);
        assert_eq!(g2, scaled);
        assert!(mlp.set_grads_flat(&[0.0]).is_err());
    }

    #[test]
    fn flat_params_roundtrip() {
        let cfg = MlpConfig::new(2, &[3], Activation::Identity);
        let mut a = Mlp::new(&cfg, &mut rng());
        let mut b = Mlp::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(99));
        let mut p = Vec::new();
        a.params_flat(&mut p);
        b.set_params_flat(&p).unwrap();
        let x = Tensor2::full(2, 2, 0.3);
        assert_eq!(a.forward_inference(&x), b.forward_inference(&x));
        // also confirm a roundtrip through itself is identity
        let mut p2 = Vec::new();
        a.params_flat(&mut p2);
        a.set_params_flat(&p2).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn param_segments_partition_the_buffer() {
        let cfg = MlpConfig::new(3, &[5, 2], Activation::Relu);
        let mlp = Mlp::new(&cfg, &mut rng());
        let segs = mlp.param_segments();
        assert_eq!(segs, vec![15, 20, 30, 32]);
        assert_eq!(*segs.last().unwrap(), mlp.num_params());
    }

    #[test]
    fn apply_optimizer_matches_sgd_step() {
        let cfg = MlpConfig::new(4, &[6, 2], Activation::Relu);
        let mut a = Mlp::new(&cfg, &mut rng());
        let mut b = a.clone();
        let x = Tensor2::from_fn(8, 4, |i, j| (i + j) as f32 * 0.1 - 0.3);
        for m in [&mut a, &mut b] {
            let y = m.forward(&x);
            let dy = Tensor2::full(y.rows(), y.cols(), 0.5);
            m.backward(&dy).unwrap();
        }
        a.sgd_step(0.01);
        b.apply_optimizer(&mut crate::optim::DenseSgd::new(0.01));
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        a.params_flat(&mut pa);
        b.params_flat(&mut pb);
        assert_eq!(pa, pb);
    }

    #[test]
    fn adam_on_mlp_descends() {
        let cfg = MlpConfig::new(4, &[8, 1], Activation::Relu)
            .with_final_activation(Activation::Identity);
        let mut mlp = Mlp::new(&cfg, &mut rng());
        let mut opt = crate::optim::DenseAdam::new(0.01, 1e-8, mlp.num_params());
        let x = Tensor2::from_fn(16, 4, |i, j| ((i * 4 + j) % 7) as f32 * 0.2 - 0.6);
        let target = Tensor2::full(16, 1, 0.3);
        let loss = |m: &Mlp| (&m.forward_inference(&x) - &target).norm_sq();
        let before = loss(&mlp);
        for _ in 0..100 {
            let y = mlp.forward(&x);
            let dy = (&y - &target) * 2.0;
            mlp.backward(&dy).unwrap();
            mlp.apply_optimizer(&mut opt);
        }
        assert!(loss(&mlp) < before * 0.1);
    }

    #[test]
    fn config_accounting() {
        let cfg = MlpConfig::new(10, &[20, 5], Activation::Relu);
        assert_eq!(cfg.output_dim(), 5);
        assert_eq!(cfg.flops_per_sample(), 2 * (10 * 20 + 20 * 5) as u64);
        assert_eq!(
            cfg.num_params(),
            (10 * 20 + 20) as u64 + (20 * 5 + 5) as u64
        );
        let mlp = Mlp::new(&cfg, &mut rng());
        assert_eq!(mlp.num_params() as u64, cfg.num_params());
    }
}
