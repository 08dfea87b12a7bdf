//! Minimal dense/sparse tensor and neural-network substrate.
//!
//! Rust has no mature deep-learning stack (the reason the paper's ecosystem
//! is "thin"), so `evlab` ships its own small substrate. It is deliberately
//! simple — `f32` dense tensors, manual layer-wise backpropagation, SGD and
//! Adam — but it is *instrumented*: every arithmetic operation and memory
//! access flows through an [`OpCount`], which is what lets the workspace
//! measure the "# Operations", "Memory bandwidth" and "Computation sparsity"
//! rows of the paper's Table I instead of asserting them.
//!
//! Modules:
//!
//! * [`tensor`] — the [`Tensor`] type and its shape-checked operations.
//! * [`gemm`] — cache-blocked GEMM/matvec microkernels, the direct
//!   register-tiled conv2d forward and the im2col conv2d backward
//!   (bit-identical to the naive loop nests by the summation-order
//!   contract documented there).
//! * [`scratch`] — the [`Scratch`] arena that makes steady-state training
//!   and inference allocation-free.
//! * [`counters`] — [`OpCount`], the arithmetic/memory instrumentation.
//! * [`guard`] — NaN/Inf repair for fault-degraded pipelines
//!   (`tensor.guard.nonfinite`).
//! * [`layer`] — the [`Layer`] trait and the dense layers (linear, conv2d,
//!   ReLU, pooling, flatten).
//! * [`network`] — [`Sequential`] container and the training step.
//! * [`loss`] — softmax cross-entropy and mean-squared-error losses.
//! * [`optim`] — SGD (with momentum) and Adam optimizers.
//! * [`init`] — He/Xavier initializers over the workspace PRNG.
//! * [`sparse`] — CSR matrices and the compressed feature-map formats of the
//!   paper's Fig. 2 (zero run-length encoding).
//!
//! # Examples
//!
//! ```
//! use evlab_tensor::counters::OpCount;
//! use evlab_tensor::layer::{Layer, Linear};
//! use evlab_tensor::tensor::Tensor;
//! use evlab_util::Rng64;
//!
//! let mut rng = Rng64::seed_from_u64(0);
//! let mut layer = Linear::new(4, 2, &mut rng);
//! let mut ops = OpCount::new();
//! let x = Tensor::from_vec(&[4], vec![1.0, 0.0, -1.0, 0.5])?;
//! let y = layer.forward(&x, &mut ops);
//! assert_eq!(y.shape(), &[2]);
//! assert_eq!(ops.macs, 8);
//! # Ok::<(), evlab_tensor::tensor::ShapeError>(())
//! ```

pub mod counters;
pub mod gemm;
pub mod guard;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optim;
pub mod scratch;
pub mod sparse;
pub mod tensor;

pub use counters::OpCount;
pub use layer::Layer;
pub use network::Sequential;
pub use scratch::Scratch;
pub use tensor::Tensor;
