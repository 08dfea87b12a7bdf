//! Graph classifier: stacked graph convolutions, global mean pooling,
//! linear head.

use crate::conv::{GraphConv, NodeFeatures, RelationalLanes};
use crate::graph::{EventGraph, GraphView};
use crate::spline::{SplineConv, SplineLanes};
use evlab_tensor::init::xavier_uniform;
use evlab_tensor::layer::Param;
use evlab_tensor::loss::cross_entropy;
use evlab_tensor::optim::Optimizer;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::Rng64;

/// Which edge-kernel family the convolutions use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// Linear relational kernel over (Δx, Δy, βΔt) — cheap, antisymmetric.
    Relational,
    /// Degree-1 B-spline kernel (SplineCNN [68]) with the given control
    /// points per dimension — heavier, offset-shape-aware.
    Spline {
        /// Control points per offset dimension.
        kernel_size: usize,
    },
}

/// Network hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnConfig {
    /// Hidden feature dimensions, one per graph-conv layer.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// Edge kernel family.
    pub kernel: KernelKind,
    /// Offset normalization for the spline kernel: expected maximum
    /// (|Δx|, |Δy|, |βΔt|).
    pub offset_scale: [f32; 3],
}

impl GnnConfig {
    /// A small default: two relational conv layers of 16 features.
    pub fn new(classes: usize) -> Self {
        GnnConfig {
            hidden: vec![16, 16],
            classes,
            kernel: KernelKind::Relational,
            offset_scale: [5.0, 5.0, 5.0],
        }
    }

    /// Returns a copy with different hidden sizes.
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }

    /// Returns a copy using the B-spline kernel.
    pub fn with_spline_kernel(mut self, kernel_size: usize) -> Self {
        self.kernel = KernelKind::Spline { kernel_size };
        self
    }
}

/// A graph-convolution layer of either kernel family.
#[derive(Debug, Clone)]
pub enum AnyConv {
    /// Linear relational kernel.
    Relational(GraphConv),
    /// B-spline kernel.
    Spline(SplineConv),
}

impl AnyConv {
    /// Output feature dimensionality.
    pub fn out_dim(&self) -> usize {
        match self {
            AnyConv::Relational(c) => c.out_dim(),
            AnyConv::Spline(c) => c.out_dim(),
        }
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        match self {
            AnyConv::Relational(c) => c.param_count(),
            AnyConv::Spline(c) => c.param_count(),
        }
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            AnyConv::Relational(c) => c.params_mut(),
            AnyConv::Spline(c) => c.params_mut(),
        }
    }

    /// Pre-activation message for a single node (streaming path), over any
    /// [`GraphView`] node store.
    pub fn node_forward<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        input: &NodeFeatures,
        i: usize,
        ops: &mut OpCount,
    ) -> Vec<f32> {
        match self {
            AnyConv::Relational(c) => c.node_forward(graph, input, i, ops),
            AnyConv::Spline(c) => c.node_forward(graph, input, i, ops),
        }
    }

    /// A frozen copy of the layer in the streaming engine's form.
    pub(crate) fn lanes(&self) -> LaneKernel {
        match self {
            AnyConv::Relational(c) => LaneKernel::Relational(c.lanes()),
            AnyConv::Spline(c) => LaneKernel::Spline(c.lanes()),
        }
    }

    /// Batch forward with ReLU (caches for backward).
    pub fn forward(
        &mut self,
        graph: &EventGraph,
        input: &NodeFeatures,
        ops: &mut OpCount,
    ) -> NodeFeatures {
        match self {
            AnyConv::Relational(c) => c.forward(graph, input, ops),
            AnyConv::Spline(c) => c.forward(graph, input, ops),
        }
    }

    /// Backward pass.
    pub fn backward(
        &mut self,
        graph: &EventGraph,
        grad: &NodeFeatures,
        ops: &mut OpCount,
    ) -> NodeFeatures {
        match self {
            AnyConv::Relational(c) => c.backward(graph, grad, ops),
            AnyConv::Spline(c) => c.backward(graph, grad, ops),
        }
    }
}

/// A frozen graph-convolution layer of either kernel family, in the form
/// the streaming engine ([`crate::window::WindowedGnn`]) runs: weights
/// transposed to `[in][out]`, a per-row neighbour projection the engine
/// caches, and a lane-parallel node kernel that reads it. Matches
/// [`AnyConv::node_forward`] bit for bit.
#[derive(Debug, Clone)]
pub(crate) enum LaneKernel {
    /// Linear relational kernel.
    Relational(RelationalLanes),
    /// B-spline kernel.
    Spline(SplineLanes),
}

impl LaneKernel {
    /// Output feature dimensionality.
    pub(crate) fn out_dim(&self) -> usize {
        match self {
            LaneKernel::Relational(k) => k.out_dim(),
            LaneKernel::Spline(k) => k.out_dim(),
        }
    }

    /// Width of one cached projection row.
    pub(crate) fn proj_dim(&self) -> usize {
        match self {
            LaneKernel::Relational(k) => k.proj_dim(),
            LaneKernel::Spline(k) => k.proj_dim(),
        }
    }

    /// Writes the neighbour projection of input row `h` into `q`
    /// (`proj_dim` long).
    pub(crate) fn project(&self, h: &[f32], q: &mut [f32], ops: &mut OpCount) {
        match self {
            LaneKernel::Relational(k) => k.project(h, q, ops),
            LaneKernel::Spline(k) => k.project(h, q, ops),
        }
    }

    /// Pre-activation message of node `i` from its input row `h_i` and the
    /// cached projections `proj` (rows keyed like `graph`'s node handles);
    /// writes `m[..out_dim]`, with `agg` as scratch (both at least
    /// `out_dim` long).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn node_forward<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        h_i: &[f32],
        proj: &NodeFeatures,
        i: usize,
        m: &mut [f32],
        agg: &mut [f32],
        ops: &mut OpCount,
    ) {
        match self {
            LaneKernel::Relational(k) => k.node_forward(graph, h_i, proj, i, m, agg, ops),
            LaneKernel::Spline(k) => k.node_forward(graph, h_i, proj, i, m, agg, ops),
        }
    }
}

/// An event-graph classifier.
#[derive(Clone)]
pub struct GnnNetwork {
    convs: Vec<AnyConv>,
    head_w: Param, // [classes, last_hidden]
    head_b: Param, // [classes]
    classes: usize,
    cached_pool_input: Option<NodeFeatures>,
}

impl GnnNetwork {
    /// Creates a network; input features are the 2-dim polarity one-hot.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty.
    pub fn new(config: &GnnConfig, rng: &mut Rng64) -> Self {
        assert!(!config.hidden.is_empty(), "need at least one conv layer");
        let mut convs = Vec::new();
        let mut in_dim = 2;
        for &h in &config.hidden {
            convs.push(match config.kernel {
                KernelKind::Relational => AnyConv::Relational(GraphConv::new(in_dim, h, rng)),
                KernelKind::Spline { kernel_size } => AnyConv::Spline(SplineConv::new(
                    in_dim,
                    h,
                    kernel_size,
                    config.offset_scale,
                    rng,
                )),
            });
            in_dim = h;
        }
        GnnNetwork {
            convs,
            head_w: Param::new(xavier_uniform(
                &[config.classes, in_dim],
                in_dim,
                config.classes,
                rng,
            )),
            head_b: Param::new(Tensor::zeros(&[config.classes])),
            classes: config.classes,
            cached_pool_input: None,
        }
    }

    /// The convolution layers.
    pub fn convs(&self) -> &[AnyConv] {
        &self.convs
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.convs.iter().map(|c| c.param_count()).sum::<usize>()
            + self.head_w.len()
            + self.head_b.len()
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = self
            .convs
            .iter_mut()
            .flat_map(|c| c.params_mut())
            .collect();
        out.push(&mut self.head_w);
        out.push(&mut self.head_b);
        out
    }

    /// Runs all conv layers, returning the final per-node features.
    pub fn node_features(
        &mut self,
        graph: &EventGraph,
        ops: &mut OpCount,
    ) -> NodeFeatures {
        let mut features = NodeFeatures::from_graph(graph);
        for conv in &mut self.convs {
            features = conv.forward(graph, &features, ops);
        }
        features
    }

    /// Applies the linear head to a pooled feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `pooled` has the wrong dimensionality.
    pub fn head_logits(&self, pooled: &[f32], ops: &mut OpCount) -> Vec<f32> {
        let dim = self.head_w.value.shape()[1];
        assert_eq!(pooled.len(), dim, "pooled feature dim mismatch");
        let w = self.head_w.value.as_slice();
        let b = self.head_b.value.as_slice();
        let logits: Vec<f32> = (0..self.classes)
            .map(|c| {
                b[c] + w[c * dim..(c + 1) * dim]
                    .iter()
                    .zip(pooled)
                    .map(|(wv, x)| wv * x)
                    .sum::<f32>()
            })
            .collect();
        ops.record_mac((self.classes * dim) as u64, (self.classes * dim) as u64);
        logits
    }

    /// Class logits for a graph (caches for backward).
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn forward(&mut self, graph: &EventGraph, ops: &mut OpCount) -> Tensor {
        assert!(graph.node_count() > 0, "empty graph");
        let features = self.node_features(graph, ops);
        let pooled = features.mean_pool();
        let logits = self.head_logits(&pooled, ops);
        self.cached_pool_input = Some(features);
        Tensor::from_vec(&[self.classes], logits)
            .unwrap_or_else(|e| panic!("logit shape: {e}"))
    }

    /// Backward pass from a logit gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GnnNetwork::forward`].
    pub fn backward(&mut self, graph: &EventGraph, grad_logits: &Tensor, ops: &mut OpCount) {
        let features = self
            .cached_pool_input
            .take()
            .unwrap_or_else(|| panic!("backward without forward"));
        let dim = features.dim();
        let n = features.nodes();
        let pooled = features.mean_pool();
        let g = grad_logits.as_slice();
        {
            let gw = self.head_w.grad.as_mut_slice();
            let gb = self.head_b.grad.as_mut_slice();
            for c in 0..self.classes {
                gb[c] += g[c];
                for (d, &p) in pooled.iter().enumerate() {
                    gw[c * dim + d] += g[c] * p;
                }
            }
        }
        // d pooled = W^T g; d h_i = (1/N) d pooled.
        let w = self.head_w.value.as_slice();
        let mut dpool = vec![0.0f32; dim];
        for c in 0..self.classes {
            for (d, slot) in dpool.iter_mut().enumerate() {
                *slot += g[c] * w[c * dim + d];
            }
        }
        let inv = 1.0 / n as f32;
        let mut grad = NodeFeatures::zeros(n, dim);
        for i in 0..n {
            for (d, slot) in grad.row_mut(i).iter_mut().enumerate() {
                *slot = dpool[d] * inv;
            }
        }
        ops.record_mac((self.classes * dim * 2) as u64, (self.classes * dim * 2) as u64);
        for conv in self.convs.iter_mut().rev() {
            grad = conv.backward(graph, &grad, ops);
        }
    }

    /// Predicted class.
    pub fn predict(&mut self, graph: &EventGraph, ops: &mut OpCount) -> usize {
        self.forward(graph, ops).argmax()
    }
}

impl std::fmt::Debug for GnnNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnnNetwork")
            .field("layers", &self.convs.len())
            .field("classes", &self.classes)
            .field("params", &self.param_count())
            .finish()
    }
}

/// Trains on a batch of `(graph, label)` pairs with one optimizer step;
/// returns `(mean_loss, accuracy)`.
pub fn train_batch(
    net: &mut GnnNetwork,
    batch: &[(EventGraph, usize)],
    optimizer: &mut dyn Optimizer,
    ops: &mut OpCount,
) -> (f32, f32) {
    assert!(!batch.is_empty(), "empty batch");
    let mut loss_sum = 0.0;
    let mut correct = 0usize;
    for (graph, label) in batch {
        let logits = net.forward(graph, ops);
        if logits.argmax() == *label {
            correct += 1;
        }
        let (loss, grad) = cross_entropy(&logits, *label);
        loss_sum += loss;
        net.backward(graph, &grad, ops);
    }
    let scale = 1.0 / batch.len() as f32;
    let mut params = net.params_mut();
    for p in params.iter_mut() {
        p.grad.scale_assign(scale);
    }
    optimizer.step(&mut params);
    (loss_sum * scale, correct as f32 * scale)
}

/// Classification accuracy over a set of graphs.
pub fn evaluate(
    net: &mut GnnNetwork,
    samples: &[(EventGraph, usize)],
    ops: &mut OpCount,
) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|(g, label)| net.predict(g, ops) == *label)
        .count();
    correct as f32 / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_events::{Event, Polarity};

    /// Synthetic task: class 0 graphs run left-to-right, class 1
    /// right-to-left — distinguishable only through the signed Δx of the
    /// edges.
    fn direction_graph(class: usize, seed: u64) -> EventGraph {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut g = EventGraph::new(0.001);
        let n = 12;
        for i in 0..n {
            let x = if class == 0 { 2 + i } else { 2 + n - 1 - i };
            let jitter = rng.next_below(2) as u16;
            let nbrs = if i == 0 { vec![] } else { vec![(i - 1) as u32] };
            g.push_node(
                Event::new(i as u64 * 100, x as u16, 5 + jitter, Polarity::On),
                nbrs,
            );
        }
        g
    }

    /// A random causal graph with isolated nodes, coincident events (zero
    /// offsets) and offsets beyond the spline's clamp range.
    fn random_graph(rng: &mut Rng64, n: usize) -> EventGraph {
        let mut g = EventGraph::new(0.001);
        let mut t = 0;
        for i in 0..n {
            t += rng.next_below(3_000);
            let nbrs: Vec<u32> = if rng.bernoulli(0.3) {
                Vec::new()
            } else {
                let mut v: Vec<u32> = (0..i as u32).filter(|_| rng.bernoulli(0.4)).collect();
                v.truncate(6);
                v
            };
            let pol = if rng.bernoulli(0.5) {
                Polarity::On
            } else {
                Polarity::Off
            };
            let (x, y) = (rng.next_below(12) as u16, rng.next_below(12) as u16);
            g.push_node(Event::new(t, x, y, pol), nbrs);
        }
        g
    }

    /// Features drawn from ±0.0 and random signed values.
    fn random_features(rng: &mut Rng64, n: usize, dim: usize) -> NodeFeatures {
        let mut f = NodeFeatures::zeros(n, dim);
        for i in 0..n {
            for v in f.row_mut(i) {
                *v = match rng.next_index(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.next_f32() * 2.0 - 1.0,
                };
            }
        }
        f
    }

    #[test]
    fn lane_kernel_matches_node_forward_bit_for_bit() {
        let mut rng = Rng64::seed_from_u64(9);
        for spline in [false, true] {
            for in_dim in [1usize, 2, 16] {
                for out_dim in [1usize, 5, 16] {
                    let conv = if spline {
                        AnyConv::Spline(SplineConv::new(
                            in_dim,
                            out_dim,
                            3,
                            [5.0, 5.0, 2.0],
                            &mut rng,
                        ))
                    } else {
                        AnyConv::Relational(GraphConv::new(in_dim, out_dim, &mut rng))
                    };
                    let lanes = conv.lanes();
                    let n = 24;
                    let g = random_graph(&mut rng, n);
                    let input = random_features(&mut rng, n, in_dim);
                    let mut ops = OpCount::new();
                    let mut proj = NodeFeatures::zeros(n, lanes.proj_dim());
                    for j in 0..n {
                        lanes.project(input.row(j), proj.row_mut(j), &mut ops);
                    }
                    for i in 0..n {
                        let want = match &conv {
                            AnyConv::Relational(c) => {
                                let (mut m, mut agg) = (vec![0.0; out_dim], vec![0.0; out_dim]);
                                c.node_forward_into(&g, &input, i, &mut m, &mut agg, &mut ops);
                                m
                            }
                            AnyConv::Spline(c) => c.node_forward(&g, &input, i, &mut ops),
                        };
                        // Oversized buffers full of garbage: the kernel
                        // must overwrite exactly the first `out_dim`.
                        let (mut m, mut agg) =
                            (vec![f32::NAN; out_dim + 3], vec![f32::NAN; out_dim + 3]);
                        lanes.node_forward(&g, input.row(i), &proj, i, &mut m, &mut agg, &mut ops);
                        for (o, (got, want)) in m.iter().zip(&want).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "spline={spline} {in_dim}->{out_dim} node {i} lane {o}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gnn_learns_motion_direction_from_edges() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut net = GnnNetwork::new(&GnnConfig::new(2).with_hidden(vec![8, 8]), &mut rng);
        let mut opt = evlab_tensor::optim::Adam::new(0.02);
        let mut ops = OpCount::new();
        let train: Vec<(EventGraph, usize)> = (0..40)
            .map(|i| (direction_graph(i % 2, i as u64), i % 2))
            .collect();
        let test: Vec<(EventGraph, usize)> = (100..120)
            .map(|i| (direction_graph(i % 2, i as u64), i % 2))
            .collect();
        for _ in 0..30 {
            for chunk in train.chunks(8) {
                train_batch(&mut net, chunk, &mut opt, &mut ops);
            }
        }
        let acc = evaluate(&mut net, &test, &mut ops);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn forward_requires_nonempty_graph() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut net = GnnNetwork::new(&GnnConfig::new(3), &mut rng);
        let g = EventGraph::new(0.001);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.forward(&g, &mut OpCount::new())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn param_count_is_consistent() {
        let mut rng = Rng64::seed_from_u64(3);
        let net = GnnNetwork::new(&GnnConfig::new(4).with_hidden(vec![8]), &mut rng);
        // conv: w_self 8*2 + w_nbr 8*2 + w_rel 8*3 + b 8 = 64; head: 4*8+4.
        assert_eq!(net.param_count(), 64 + 36);
    }

    #[test]
    fn spline_kernel_network_trains_too() {
        let mut rng = Rng64::seed_from_u64(7);
        let config = GnnConfig::new(2)
            .with_hidden(vec![8])
            .with_spline_kernel(3);
        let mut net = GnnNetwork::new(&config, &mut rng);
        assert!(net.param_count() > 8 * 2 + 27, "spline kernels carry K^3 blocks");
        let mut opt = evlab_tensor::optim::Adam::new(0.02);
        let mut ops = OpCount::new();
        let train: Vec<(EventGraph, usize)> = (0..20)
            .map(|i| (direction_graph(i % 2, i as u64), i % 2))
            .collect();
        for _ in 0..25 {
            for chunk in train.chunks(5) {
                train_batch(&mut net, chunk, &mut opt, &mut ops);
            }
        }
        let acc = evaluate(&mut net, &train, &mut ops);
        assert!(acc > 0.9, "spline network accuracy {acc}");
    }

    #[test]
    fn ops_scale_linearly_with_nodes() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut net = GnnNetwork::new(&GnnConfig::new(2), &mut rng);
        let small = direction_graph(0, 1);
        let mut big = EventGraph::new(0.001);
        for i in 0..120u64 {
            let nbrs = if i == 0 { vec![] } else { vec![(i - 1) as u32] };
            big.push_node(Event::new(i * 100, (i % 30) as u16, 0, Polarity::On), nbrs);
        }
        let mut ops_small = OpCount::new();
        net.forward(&small, &mut ops_small);
        let mut ops_big = OpCount::new();
        net.forward(&big, &mut ops_big);
        let ratio = ops_big.macs as f64 / ops_small.macs as f64;
        assert!(
            ratio > 8.0 && ratio < 12.0,
            "10x nodes -> ~10x ops, got {ratio}"
        );
    }
}
