//! Neural-network layers with manual backpropagation.
//!
//! Each layer caches whatever it needs during [`Layer::forward`] and
//! consumes it in [`Layer::backward`]. Gradients accumulate into
//! [`Param::grad`] until the optimizer applies and clears them, so
//! mini-batch accumulation is simply several forward/backward passes before
//! one optimizer step.

use crate::counters::OpCount;
use crate::gemm::{self, ConvShape};
use crate::init::he_normal;
use crate::scratch::Scratch;
use crate::tensor::Tensor;
use evlab_util::Rng64;

/// Copies `input` into a cached slot, reusing the previous cache tensor's
/// allocation when present, so steady-state forwards do not allocate.
fn cache_input(slot: &mut Option<Tensor>, input: &Tensor) {
    match slot {
        Some(t) => t.copy_from(input),
        None => *slot = Some(input.clone()),
    }
}

/// Stores a shape into a cached slot, reusing the previous allocation.
fn cache_shape(slot: &mut Option<Vec<usize>>, shape: &[usize]) {
    let s = slot.get_or_insert_with(Vec::new);
    s.clear();
    s.extend_from_slice(shape);
}

/// The forward-pass cache of `layer`, or a panic naming the layer:
/// calling backward before forward is a caller bug, and the failure
/// should identify the offending layer rather than an anonymous unwrap.
fn cached<'a, T>(slot: &'a Option<T>, layer: &str) -> &'a T {
    match slot {
        Some(v) => v,
        None => panic!("{layer}: backward without forward"),
    }
}

/// Unwraps a shape-checked tensor operation whose shapes agree by
/// construction (e.g. a reshape to the recorded input length).
fn shaped(result: Result<Tensor, crate::tensor::ShapeError>, what: &str) -> Tensor {
    match result {
        Ok(t) => t,
        Err(e) => panic!("{what}: {e:?}"),
    }
}

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Object-safe clone support for boxed layers, so a trained
/// [`crate::Sequential`] can be replicated per serving session. Every
/// `Layer + Clone` type gets this for free from the blanket impl.
pub trait LayerClone {
    /// Clones the layer behind a fresh box.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + Send + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A differentiable layer operating on single samples. `Send` so that a
/// [`crate::Sequential`] can move onto a serving worker thread.
pub trait Layer: LayerClone + Send {
    /// Computes the output for `input`, caching state for the backward pass
    /// and recording work in `ops`.
    fn forward(&mut self, input: &Tensor, ops: &mut OpCount) -> Tensor;

    /// Propagates `grad_output` back to the input, accumulating parameter
    /// gradients. Must be called after a matching [`Layer::forward`].
    fn backward(&mut self, grad_output: &Tensor, ops: &mut OpCount) -> Tensor;

    /// [`Layer::forward`] with the output tensor (and any internal
    /// intermediates) drawn from `arena`, so steady-state inference
    /// performs no heap allocation. The caller owns the returned tensor
    /// and is expected to recycle it. Numerically identical to `forward`.
    ///
    /// The default delegates to `forward`; layers with per-step buffers
    /// override it.
    fn forward_arena(
        &mut self,
        input: &Tensor,
        _arena: &mut Scratch,
        ops: &mut OpCount,
    ) -> Tensor {
        self.forward(input, ops)
    }

    /// [`Layer::backward`] with the gradient tensor drawn from `arena`.
    /// Numerically identical to `backward`.
    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        _arena: &mut Scratch,
        ops: &mut OpCount,
    ) -> Tensor {
        self.backward(grad_output, ops)
    }

    /// Mutable access to the layer's parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Visits each parameter in the same order as [`Layer::params_mut`]
    /// without allocating the intermediate `Vec` (the per-step variant the
    /// zero-allocation training path uses).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        0
    }

    /// Short layer name for reports.
    fn name(&self) -> &'static str;

    /// Output shape for a given input shape, without running the layer.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;
}

/// Fully-connected layer: `y = W x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        assert!(in_features > 0 && out_features > 0, "zero-sized linear");
        Linear {
            weight: Param::new(he_normal(&[out_features, in_features], in_features, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weights and biases.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be rank 2");
        let out_features = weight.shape()[0];
        let in_features = weight.shape()[1];
        assert_eq!(bias.shape(), &[out_features], "bias shape mismatch");
        Linear {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// The weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Mutable weight matrix (e.g. for pruning or quantization passes).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight.value
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Shared forward body: `out` must already have shape `[out]`; it is
    /// overwritten with `W x + b` via the blocked matvec kernel (per-row
    /// accumulation order identical to the scalar dot product).
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, ops: &mut OpCount) {
        assert_eq!(input.len(), self.in_features, "linear input size mismatch");
        let nnz = input.nonzero_count() as u64;
        out.as_mut_slice().copy_from_slice(self.bias.value.as_slice());
        gemm::matvec_into(
            self.out_features,
            self.in_features,
            self.weight.value.as_slice(),
            input.as_slice(),
            out.as_mut_slice(),
        );
        ops.record_mac(
            (self.in_features * self.out_features) as u64,
            nnz * self.out_features as u64,
        );
        ops.record_write(self.out_features as u64);
        cache_input(&mut self.cached_input, input);
    }

    /// Shared backward body accumulating into `grad_input` (pre-zeroed).
    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ops: &mut OpCount) {
        let input = cached(&self.cached_input, "linear");
        assert_eq!(grad_output.len(), self.out_features);
        let g = grad_output.as_slice();
        let x = input.as_slice();
        let w = self.weight.value.as_slice();
        {
            let gi = grad_input.as_mut_slice();
            let gw = self.weight.grad.as_mut_slice();
            let gb = self.bias.grad.as_mut_slice();
            for j in 0..self.out_features {
                let gj = g[j];
                gb[j] += gj;
                let row = &w[j * self.in_features..(j + 1) * self.in_features];
                let grow = &mut gw[j * self.in_features..(j + 1) * self.in_features];
                for i in 0..self.in_features {
                    gi[i] += gj * row[i];
                    grow[i] += gj * x[i];
                }
            }
        }
        let n = (self.in_features * self.out_features) as u64;
        ops.record_mac(2 * n, 2 * n);
        ops.record_write((self.in_features + self.out_features) as u64);
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, ops: &mut OpCount) -> Tensor {
        let mut out = Tensor::zeros(&[self.out_features]);
        self.forward_into(input, &mut out, ops);
        out
    }

    fn forward_arena(&mut self, input: &Tensor, arena: &mut Scratch, ops: &mut OpCount) -> Tensor {
        let mut out = arena.take(&[self.out_features]);
        self.forward_into(input, &mut out, ops);
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ops: &mut OpCount) -> Tensor {
        let mut grad_input = Tensor::zeros(&[self.in_features]);
        self.backward_into(grad_output, &mut grad_input, ops);
        grad_input
    }

    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        arena: &mut Scratch,
        ops: &mut OpCount,
    ) -> Tensor {
        let mut grad_input = arena.take(&[self.in_features]);
        self.backward_into(grad_output, &mut grad_input, ops);
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_features]
    }
}

/// 2-D convolution over `[C, H, W]` inputs with stride 1 and symmetric zero
/// padding. The forward runs the direct register-tiled kernel
/// [`crate::gemm::conv2d_forward`]; the backward lowers onto im2col + the
/// cache-blocked GEMM ([`crate::gemm::conv2d_backward`]). Both keep the
/// naive nest's per-output ascending `(ic, ky, kx)` accumulation order, so
/// outputs match it bit for bit (finite weights, no `-0.0` bias: the
/// [`crate::gemm`] module docs give the two edge cases).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    /// Per-layer pool for the conv kernels' padded-input, packed-weight,
    /// im2col and GEMM packing buffers, so the non-arena forward/backward
    /// path is also allocation-free once warm.
    scratch: Scratch,
}

impl Conv2d {
    /// Creates a `kernel × kernel` convolution with He initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0,
            "zero-sized conv"
        );
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(he_normal(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            padding,
            cached_input: None,
            scratch: Scratch::new(),
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Mutable weight tensor `[O, C, K, K]` (for pruning/quantization).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight.value
    }

    /// Weight tensor `[O, C, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.padding + 1 - self.kernel,
            w + 2 * self.padding + 1 - self.kernel,
        )
    }

    fn conv_shape(&self, h: usize, w: usize) -> ConvShape {
        ConvShape {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: 1,
            padding: self.padding,
            in_h: h,
            in_w: w,
        }
    }

    /// Shared forward body: `out` must have shape `[O, oh, ow]`; it is
    /// fully overwritten. `scratch` serves the kernel's working buffers.
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut Scratch,
        ops: &mut OpCount,
    ) {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "conv input must be [C, H, W]");
        assert_eq!(shape[0], self.in_channels, "conv channel mismatch");
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        assert!(oh > 0 && ow > 0, "kernel larger than padded input");
        let s = self.conv_shape(h, w);
        let effective = gemm::conv2d_forward(
            &s,
            input.as_slice(),
            self.weight.value.as_slice(),
            self.bias.value.as_slice(),
            out.as_mut_slice(),
            scratch,
        );
        let nominal =
            (self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel) as u64;
        ops.record_mac(nominal, effective.min(nominal));
        ops.record_write((self.out_channels * oh * ow) as u64);
        cache_input(&mut self.cached_input, input);
    }

    /// Shared backward body accumulating into `grad_input` (pre-zeroed).
    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
        scratch: &mut Scratch,
        ops: &mut OpCount,
    ) {
        let input = cached(&self.cached_input, "conv2d");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let s = self.conv_shape(h, w);
        gemm::conv2d_backward(
            &s,
            input.as_slice(),
            self.weight.value.as_slice(),
            grad_output.as_slice(),
            grad_input.as_mut_slice(),
            self.weight.grad.as_mut_slice(),
            self.bias.grad.as_mut_slice(),
            scratch,
        );
        let nominal =
            2 * (self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel) as u64;
        ops.record_mac(nominal, nominal);
        ops.record_write((input.len() + self.weight.len()) as u64);
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, ops: &mut OpCount) -> Tensor {
        assert_eq!(input.shape().len(), 3, "conv input must be [C, H, W]");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[self.out_channels, oh, ow]);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.forward_into(input, &mut out, &mut scratch, ops);
        self.scratch = scratch;
        out
    }

    fn forward_arena(&mut self, input: &Tensor, arena: &mut Scratch, ops: &mut OpCount) -> Tensor {
        assert_eq!(input.shape().len(), 3, "conv input must be [C, H, W]");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = arena.take(&[self.out_channels, oh, ow]);
        self.forward_into(input, &mut out, arena, ops);
        out
    }

    fn backward(&mut self, grad_output: &Tensor, ops: &mut OpCount) -> Tensor {
        let input_shape = cached(&self.cached_input, "conv2d").shape().to_vec();
        let mut grad_input = Tensor::zeros(&input_shape);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.backward_into(grad_output, &mut grad_input, &mut scratch, ops);
        self.scratch = scratch;
        grad_input
    }

    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        arena: &mut Scratch,
        ops: &mut OpCount,
    ) -> Tensor {
        let mut grad_input = {
            let input = cached(&self.cached_input, "conv2d");
            let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            arena.take(&[c, h, w])
        };
        self.backward_into(grad_output, &mut grad_input, arena, ops);
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        vec![self.out_channels, oh, ow]
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Relu {
    /// Records the positivity mask for the backward pass, reusing the
    /// previous mask allocation.
    fn record_mask(&mut self, input: &Tensor) {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(input.as_slice().iter().map(|&v| v > 0.0));
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, ops: &mut OpCount) -> Tensor {
        ops.record_compare(input.len() as u64);
        self.record_mask(input);
        input.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    fn forward_arena(&mut self, input: &Tensor, arena: &mut Scratch, ops: &mut OpCount) -> Tensor {
        ops.record_compare(input.len() as u64);
        self.record_mask(input);
        let mut out = arena.take(input.shape());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, _ops: &mut OpCount) -> Tensor {
        let mask = cached(&self.mask, "relu");
        assert_eq!(grad_output.len(), mask.len());
        let data = grad_output
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        shaped(Tensor::from_vec(grad_output.shape(), data), "relu grad")
    }

    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        arena: &mut Scratch,
        _ops: &mut OpCount,
    ) -> Tensor {
        let mask = cached(&self.mask, "relu");
        assert_eq!(grad_output.len(), mask.len());
        let mut grad_input = arena.take(grad_output.shape());
        for ((o, &g), &m) in grad_input
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(mask)
        {
            *o = if m { g } else { 0.0 };
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }
}

/// Max pooling over `[C, H, W]` with square window and equal stride.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPool2d {
    window: usize,
    argmax: Option<Vec<usize>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a pooling layer with `window × window` regions.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MaxPool2d {
            window,
            argmax: None,
            input_shape: None,
        }
    }
}

impl MaxPool2d {
    /// Shared forward body: `out` must have shape `[C, oh, ow]`; it is
    /// fully overwritten and the argmax/input-shape caches are refreshed
    /// in place (no allocation once warm).
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, ops: &mut OpCount) {
        let shape = input.shape();
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (h / self.window, w / self.window);
        let x = input.as_slice();
        let argmax = self.argmax.get_or_insert_with(Vec::new);
        argmax.clear();
        argmax.resize(c * oh * ow, 0);
        {
            let o = out.as_mut_slice();
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..self.window {
                            for dx in 0..self.window {
                                let iy = oy * self.window + dy;
                                let ix = ox * self.window + dx;
                                let idx = (ci * h + iy) * w + ix;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = (ci * oh + oy) * ow + ox;
                        o[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        ops.record_compare((c * oh * ow * self.window * self.window) as u64);
        cache_shape(&mut self.input_shape, shape);
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, ops: &mut OpCount) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "pool input must be [C, H, W]");
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (h / self.window, w / self.window);
        assert!(oh > 0 && ow > 0, "pool window larger than input");
        let mut out = Tensor::zeros(&[c, oh, ow]);
        self.forward_into(input, &mut out, ops);
        out
    }

    fn forward_arena(&mut self, input: &Tensor, arena: &mut Scratch, ops: &mut OpCount) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "pool input must be [C, H, W]");
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (h / self.window, w / self.window);
        assert!(oh > 0 && ow > 0, "pool window larger than input");
        let mut out = arena.take(&[c, oh, ow]);
        self.forward_into(input, &mut out, ops);
        out
    }

    fn backward(&mut self, grad_output: &Tensor, _ops: &mut OpCount) -> Tensor {
        let argmax = cached(&self.argmax, "maxpool2d");
        let input_shape = cached(&self.input_shape, "maxpool2d");
        let mut grad_input = Tensor::zeros(input_shape);
        let gi = grad_input.as_mut_slice();
        for (o, &src) in grad_output.as_slice().iter().zip(argmax) {
            gi[src] += o;
        }
        grad_input
    }

    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        arena: &mut Scratch,
        _ops: &mut OpCount,
    ) -> Tensor {
        let argmax = cached(&self.argmax, "maxpool2d");
        let input_shape = cached(&self.input_shape, "maxpool2d");
        let mut grad_input = arena.take(input_shape);
        let gi = grad_input.as_mut_slice();
        for (o, &src) in grad_output.as_slice().iter().zip(argmax) {
            gi[src] += o;
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            input_shape[0],
            input_shape[1] / self.window,
            input_shape[2] / self.window,
        ]
    }
}

/// Flattens any input to rank 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _ops: &mut OpCount) -> Tensor {
        cache_shape(&mut self.input_shape, input.shape());
        shaped(input.reshaped(&[input.len()]), "flatten")
    }

    fn forward_arena(&mut self, input: &Tensor, arena: &mut Scratch, _ops: &mut OpCount) -> Tensor {
        cache_shape(&mut self.input_shape, input.shape());
        let mut out = arena.take(&[input.len()]);
        out.as_mut_slice().copy_from_slice(input.as_slice());
        out
    }

    fn backward(&mut self, grad_output: &Tensor, _ops: &mut OpCount) -> Tensor {
        let shape = cached(&self.input_shape, "flatten");
        shaped(grad_output.reshaped(shape), "flatten grad")
    }

    fn backward_arena(
        &mut self,
        grad_output: &Tensor,
        arena: &mut Scratch,
        _ops: &mut OpCount,
    ) -> Tensor {
        let shape = cached(&self.input_shape, "flatten");
        let mut grad_input = arena.take(shape);
        grad_input
            .as_mut_slice()
            .copy_from_slice(grad_output.as_slice());
        grad_input
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(
        layer: &mut dyn Layer,
        input: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        // Scalar objective: sum of outputs. d(sum)/d(input_i) via backward
        // must match finite differences.
        let mut ops = OpCount::new();
        let out = layer.forward(input, &mut ops);
        let ones = Tensor::filled(out.shape(), 1.0);
        let grad = layer.backward(&ones, &mut ops);
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = layer.forward(&plus, &mut ops).sum();
            let f_minus = layer.forward(&minus, &mut ops).sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < tol,
                "input grad {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn linear_forward_known_values() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]).expect("ok");
        let b = Tensor::from_vec(&[2], vec![0.1, -0.1]).expect("ok");
        let mut layer = Linear::from_weights(w, b);
        let mut ops = OpCount::new();
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).expect("ok");
        let y = layer.forward(&x, &mut ops);
        assert!((y.as_slice()[0] - (1.0 - 3.0 + 0.1)).abs() < 1e-6);
        assert!((y.as_slice()[1] - (2.0 + 2.0 + 1.5 - 0.1)).abs() < 1e-6);
        assert_eq!(ops.macs, 6);
        assert_eq!(ops.effective_macs, 6);
    }

    #[test]
    fn linear_counts_sparse_inputs() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut layer = Linear::new(4, 3, &mut rng);
        let mut ops = OpCount::new();
        let x = Tensor::from_vec(&[4], vec![1.0, 0.0, 0.0, 2.0]).expect("ok");
        layer.forward(&x, &mut ops);
        assert_eq!(ops.macs, 12);
        assert_eq!(ops.effective_macs, 6, "2 of 4 inputs nonzero");
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut layer = Linear::new(5, 4, &mut rng);
        let x = he_normal(&[5], 5, &mut rng);
        finite_diff_check(&mut layer, &x, 1e-3, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(&[3], vec![0.5, -1.0, 2.0]).expect("ok");
        let mut ops = OpCount::new();
        let out = layer.forward(&x, &mut ops);
        let ones = Tensor::filled(out.shape(), 1.0);
        layer.backward(&ones, &mut ops);
        let grad = layer.weight.grad.clone();
        let eps = 1e-3;
        for i in 0..layer.weight.len() {
            let orig = layer.weight.value.as_slice()[i];
            layer.weight.value.as_mut_slice()[i] = orig + eps;
            let f_plus = layer.forward(&x, &mut ops).sum();
            layer.weight.value.as_mut_slice()[i] = orig - eps;
            let f_minus = layer.forward(&x, &mut ops).sum();
            layer.weight.value.as_mut_slice()[i] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[i]).abs() < 1e-2,
                "weight grad {i}"
            );
        }
    }

    #[test]
    fn conv_shapes_and_padding() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
        let x = Tensor::zeros(&[2, 8, 8]);
        let mut ops = OpCount::new();
        let y = conv.forward(&x, &mut ops);
        assert_eq!(y.shape(), &[4, 8, 8], "same padding preserves HxW");
        assert_eq!(conv.output_shape(&[2, 8, 8]), vec![4, 8, 8]);
        // All-zero input: zero effective MACs.
        assert_eq!(ops.effective_macs, 0);
        assert!(ops.macs > 0);
    }

    #[test]
    fn conv_identity_kernel() {
        let mut rng = Rng64::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 1, 1, 0, &mut rng);
        conv.weight.value.as_mut_slice()[0] = 2.0;
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).expect("ok");
        let mut ops = OpCount::new();
        let y = conv.forward(&x, &mut ops);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 2, 3, 1, &mut rng);
        let x = he_normal(&[1, 4, 4], 16, &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 3e-2);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let mut ops = OpCount::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, 0.0, 3.0]).expect("ok");
        let y = relu.forward(&x, &mut ops);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = relu.backward(&Tensor::filled(&[4], 1.0), &mut ops);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(ops.comparisons, 4);
    }

    #[test]
    fn maxpool_selects_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2);
        let mut ops = OpCount::new();
        let x = Tensor::from_vec(
            &[1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0],
        )
        .expect("ok");
        let y = pool.forward(&x, &mut ops);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.as_slice(), &[5.0, 9.0]);
        let g = pool.backward(
            &Tensor::from_vec(&[1, 1, 2], vec![1.0, 2.0]).expect("ok"),
            &mut ops,
        );
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut flat = Flatten::new();
        let mut ops = OpCount::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = flat.forward(&x, &mut ops);
        assert_eq!(y.shape(), &[24]);
        let g = flat.backward(&Tensor::zeros(&[24]), &mut ops);
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn param_counts() {
        let mut rng = Rng64::seed_from_u64(8);
        let linear = Linear::new(10, 5, &mut rng);
        assert_eq!(linear.param_count(), 55);
        let conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        assert_eq!(conv.param_count(), 2 * 3 * 9 + 3);
        assert_eq!(Relu::new().param_count(), 0);
    }
}
