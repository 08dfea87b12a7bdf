//! B-spline graph convolution (paper §IV, [Fey et al. SplineCNN]).
//!
//! Where [`crate::conv::GraphConv`] maps edge offsets linearly, SplineCNN
//! learns a *continuous kernel* over the offset space: the 3-D offset
//! `(Δx, Δy, βΔt)` is normalized into `[0, 1]³`, and degree-1 B-spline
//! bases interpolate between `K³` learned weight matrices. The kernel can
//! therefore represent non-monotone functions of the offset (e.g. oriented
//! edge detectors in space-time), which a single linear map cannot.

use crate::conv::{lane_affine, lane_matvec, transpose};
use crate::graph::{EventGraph, GraphView};
use evlab_tensor::init::he_normal;
use evlab_tensor::layer::Param;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::Rng64;

pub use crate::conv::NodeFeatures;

/// A degree-1 (linear) B-spline graph convolution layer.
#[derive(Debug, Clone)]
pub struct SplineConv {
    w_self: Param,   // [out, in]
    w_kernel: Param, // [K*K*K, out, in]
    bias: Param,     // [out]
    kernel_size: usize,
    /// Normalization of (Δx, Δy, βΔt) into [-1, 1] before binning.
    offset_scale: [f32; 3],
    in_dim: usize,
    out_dim: usize,
    cached_input: Option<NodeFeatures>,
    cached_mask: Option<Vec<bool>>,
}

/// One corner of the interpolation support: flat kernel index and basis
/// coefficient.
type BasisEntry = (usize, f32);

/// The nonzero interpolation corners of an edge offset, in corner order,
/// without allocating: `(corners, count)`, valid in `corners[..count]`.
fn corners(
    kernel_size: usize,
    offset_scale: [f32; 3],
    offset: [f32; 3],
) -> ([BasisEntry; 8], usize) {
    let k = kernel_size;
    let mut idx = [0usize; 3];
    let mut frac = [0.0f32; 3];
    for d in 0..3 {
        // Normalize to [0, 1] then to the control-point grid.
        let u = ((offset[d] / offset_scale[d]).clamp(-1.0, 1.0) + 1.0) / 2.0;
        let pos = u * (k - 1) as f32;
        let lo = (pos.floor() as usize).min(k - 2);
        idx[d] = lo;
        frac[d] = pos - lo as f32;
    }
    let mut out = [(0usize, 0.0f32); 8];
    let mut n = 0;
    for corner in 0..8usize {
        let mut flat = 0usize;
        let mut coeff = 1.0f32;
        for d in 0..3 {
            let hi = corner >> d & 1;
            let i = idx[d] + hi;
            coeff *= if hi == 1 { frac[d] } else { 1.0 - frac[d] };
            flat = flat * k + i;
        }
        if coeff != 0.0 {
            out[n] = (flat, coeff);
            n += 1;
        }
    }
    (out, n)
}

/// A frozen [`SplineConv`] in the streaming engine's form, with the self
/// matrix and every control-point block transposed to `[in][out]`.
///
/// The cached projection of a row is all `K³` control-point blocks
/// `W_k·h_j` ([`SplineLanes::project`]); the node kernel
/// ([`SplineLanes::node_forward`]) then adds `(inv·coeff)·(W_k·h_j)` per
/// interpolation corner, which is exactly what [`SplineConv::node_forward`]
/// adds, in the same order — so the two agree bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct SplineLanes {
    in_dim: usize,
    out_dim: usize,
    kernel_size: usize,
    offset_scale: [f32; 3],
    w_self_t: Vec<f32>,   // [in, out]
    w_kernel_t: Vec<f32>, // [K*K*K, in, out]
    bias: Vec<f32>,       // [out]
}

impl SplineLanes {
    /// Output feature dimensionality.
    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Width of one cached projection row: `K³` blocks of `out_dim`.
    pub(crate) fn proj_dim(&self) -> usize {
        self.kernel_size.pow(3) * self.out_dim
    }

    /// Writes every control-point block `W_k·h` into `q`, block `k` at
    /// `q[k·out..(k+1)·out]`.
    pub(crate) fn project(&self, h: &[f32], q: &mut [f32], ops: &mut OpCount) {
        let stride = self.in_dim * self.out_dim;
        for (w_t, qk) in self
            .w_kernel_t
            .chunks_exact(stride)
            .zip(q.chunks_exact_mut(self.out_dim))
        {
            lane_matvec(w_t, h, qk);
        }
        let macs = (self.kernel_size.pow(3) * stride) as u64;
        ops.record_mac(macs, macs);
    }

    /// The pre-activation message of node `i` from its input row `h_i` and
    /// the cached projections of its in-neighbours; writes `m` (at least
    /// `out_dim` long). `_agg` is unused: the spline kernel accumulates in
    /// place, as [`SplineConv::node_forward`] does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn node_forward<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        h_i: &[f32],
        proj: &NodeFeatures,
        i: usize,
        m: &mut [f32],
        _agg: &mut [f32],
        ops: &mut OpCount,
    ) {
        let out = self.out_dim;
        let m = &mut m[..out];
        lane_affine(&self.w_self_t, &self.bias, h_i, m);
        let macs = (out * self.in_dim) as u64;
        ops.record_mac(macs, macs);
        let nbrs = graph.in_neighbors(i);
        if nbrs.is_empty() {
            return;
        }
        let inv = 1.0 / nbrs.len() as f32;
        let mut terms = 0u64;
        for &j in nbrs {
            let r = graph.relative_offset(i, j as usize);
            let q = proj.row(j as usize);
            let (corners, n) = corners(self.kernel_size, self.offset_scale, r);
            for &(flat, coeff) in &corners[..n] {
                let scale = inv * coeff;
                for (mo, &p) in m.iter_mut().zip(&q[flat * out..(flat + 1) * out]) {
                    *mo += scale * p;
                }
            }
            terms += n as u64;
        }
        ops.record_mac(terms * out as u64, terms * out as u64);
    }
}

impl SplineConv {
    /// Creates a layer with `kernel_size` control points per offset
    /// dimension; `offset_scale` should be the expected maximum magnitude
    /// of each offset component (e.g. the graph radius).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `kernel_size < 2`, or a scale is
    /// non-positive.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        kernel_size: usize,
        offset_scale: [f32; 3],
        rng: &mut Rng64,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "zero-sized layer");
        assert!(kernel_size >= 2, "need at least two control points");
        assert!(
            offset_scale.iter().all(|&s| s > 0.0),
            "scales must be positive"
        );
        let k3 = kernel_size * kernel_size * kernel_size;
        SplineConv {
            w_self: Param::new(he_normal(&[out_dim, in_dim], in_dim, rng)),
            w_kernel: Param::new(he_normal(&[k3, out_dim, in_dim], in_dim * 4, rng)),
            bias: Param::new(Tensor::zeros(&[out_dim])),
            kernel_size,
            offset_scale,
            in_dim,
            out_dim,
            cached_input: None,
            cached_mask: None,
        }
    }

    /// Output feature dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.w_self.len() + self.w_kernel.len() + self.bias.len()
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_kernel, &mut self.bias]
    }

    /// The eight interpolation corners and their coefficients for an edge
    /// offset. Coefficients form a partition of unity.
    pub fn basis(&self, offset: [f32; 3]) -> Vec<BasisEntry> {
        let (corners, n) = corners(self.kernel_size, self.offset_scale, offset);
        corners[..n].to_vec()
    }

    /// A frozen copy of the current weights in the streaming engine's
    /// transposed form.
    pub(crate) fn lanes(&self) -> SplineLanes {
        let (i, o) = (self.in_dim, self.out_dim);
        SplineLanes {
            in_dim: i,
            out_dim: o,
            kernel_size: self.kernel_size,
            offset_scale: self.offset_scale,
            w_self_t: transpose(self.w_self.value.as_slice(), o, i),
            w_kernel_t: self
                .w_kernel
                .value
                .as_slice()
                .chunks_exact(o * i)
                .flat_map(|block| transpose(block, o, i))
                .collect(),
            bias: self.bias.value.as_slice().to_vec(),
        }
    }

    /// Pre-activation message for one node (shared by batch and streaming
    /// paths), over any [`GraphView`] node store.
    pub fn node_forward<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        input: &NodeFeatures,
        i: usize,
        ops: &mut OpCount,
    ) -> Vec<f32> {
        let ws = self.w_self.value.as_slice();
        let wk = self.w_kernel.value.as_slice();
        let b = self.bias.value.as_slice();
        let h_i = input.row(i);
        let mut m: Vec<f32> = (0..self.out_dim)
            .map(|o| {
                b[o]
                    + ws[o * self.in_dim..(o + 1) * self.in_dim]
                        .iter()
                        .zip(h_i)
                        .map(|(w, x)| w * x)
                        .sum::<f32>()
            })
            .collect();
        ops.record_mac(
            (self.out_dim * self.in_dim) as u64,
            (self.out_dim * self.in_dim) as u64,
        );
        let nbrs = graph.in_neighbors(i);
        if nbrs.is_empty() {
            return m;
        }
        let inv = 1.0 / nbrs.len() as f32;
        let stride = self.out_dim * self.in_dim;
        let mut mac_count = 0u64;
        for &j in nbrs {
            let h_j = input.row(j as usize);
            let r = graph.relative_offset(i, j as usize);
            for (flat, coeff) in self.basis(r) {
                let block = &wk[flat * stride..(flat + 1) * stride];
                for (o, slot) in m.iter_mut().enumerate() {
                    let msg: f32 = block[o * self.in_dim..(o + 1) * self.in_dim]
                        .iter()
                        .zip(h_j)
                        .map(|(w, x)| w * x)
                        .sum();
                    *slot += inv * coeff * msg;
                }
                mac_count += stride as u64;
            }
        }
        ops.record_mac(mac_count, mac_count);
        m
    }

    /// Batch forward with ReLU; caches for backward.
    pub fn forward(
        &mut self,
        graph: &EventGraph,
        input: &NodeFeatures,
        ops: &mut OpCount,
    ) -> NodeFeatures {
        let n = graph.node_count();
        assert_eq!(input.nodes(), n, "feature/node count mismatch");
        assert_eq!(input.dim(), self.in_dim, "feature dim mismatch");
        let mut out = NodeFeatures::zeros(n, self.out_dim);
        let mut mask = vec![false; n * self.out_dim];
        for i in 0..n {
            let m = self.node_forward(graph, input, i, ops);
            let row = out.row_mut(i);
            for (o, &v) in m.iter().enumerate() {
                if v > 0.0 {
                    row[o] = v;
                    mask[i * self.out_dim + o] = true;
                }
            }
        }
        ops.record_compare((n * self.out_dim) as u64);
        self.cached_input = Some(input.clone());
        self.cached_mask = Some(mask);
        out
    }

    /// Backward pass: accumulates parameter gradients, returns the input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics without a preceding [`SplineConv::forward`].
    pub fn backward(
        &mut self,
        graph: &EventGraph,
        grad_output: &NodeFeatures,
        ops: &mut OpCount,
    ) -> NodeFeatures {
        let input = self
            .cached_input
            .take()
            .unwrap_or_else(|| panic!("backward without forward"));
        let mask = self
            .cached_mask
            .take()
            .unwrap_or_else(|| panic!("forward caches mask"));
        let n = graph.node_count();
        let mut grad_input = NodeFeatures::zeros(n, self.in_dim);
        let ws = self.w_self.value.as_slice().to_vec();
        let wk = self.w_kernel.value.as_slice().to_vec();
        let stride = self.out_dim * self.in_dim;
        let mut mac_count = 0u64;
        for i in 0..n {
            let nbrs = graph.in_neighbors(i).to_vec();
            let inv = if nbrs.is_empty() {
                0.0
            } else {
                1.0 / nbrs.len() as f32
            };
            let h_i = input.row(i).to_vec();
            let dm: Vec<f32> = grad_output
                .row(i)
                .iter()
                .enumerate()
                .map(|(o, &g)| if mask[i * self.out_dim + o] { g } else { 0.0 })
                .collect();
            if dm.iter().all(|&d| d == 0.0) {
                continue;
            }
            {
                let gb = self.bias.grad.as_mut_slice();
                let gs = self.w_self.grad.as_mut_slice();
                for (o, &d) in dm.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    gb[o] += d;
                    for (c, &x) in h_i.iter().enumerate() {
                        gs[o * self.in_dim + c] += d * x;
                    }
                }
            }
            {
                let gi = grad_input.row_mut(i);
                for (o, &d) in dm.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    for (c, slot) in gi.iter_mut().enumerate() {
                        *slot += d * ws[o * self.in_dim + c];
                    }
                }
            }
            for &j in &nbrs {
                let h_j = input.row(j as usize).to_vec();
                let r = graph.relative_offset(i, j as usize);
                for (flat, coeff) in self.basis(r) {
                    let gk = self.w_kernel.grad.as_mut_slice();
                    let block_grad = &mut gk[flat * stride..(flat + 1) * stride];
                    for (o, &d) in dm.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        let scaled = d * inv * coeff;
                        for (c, &x) in h_j.iter().enumerate() {
                            block_grad[o * self.in_dim + c] += scaled * x;
                        }
                    }
                    let block = &wk[flat * stride..(flat + 1) * stride];
                    let gj = grad_input.row_mut(j as usize);
                    for (o, &d) in dm.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        let scaled = d * inv * coeff;
                        for (c, slot) in gj.iter_mut().enumerate() {
                            *slot += scaled * block[o * self.in_dim + c];
                        }
                    }
                    mac_count += 2 * stride as u64;
                }
            }
        }
        ops.record_mac(mac_count, mac_count);
        grad_input
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_events::{Event, Polarity};

    fn small_graph() -> EventGraph {
        let mut g = EventGraph::new(0.001);
        g.push_node(Event::new(0, 2, 2, Polarity::On), vec![]);
        g.push_node(Event::new(100, 4, 2, Polarity::Off), vec![0]);
        g.push_node(Event::new(200, 4, 4, Polarity::On), vec![0, 1]);
        g
    }

    #[test]
    fn basis_is_a_partition_of_unity() {
        let mut rng = Rng64::seed_from_u64(1);
        let conv = SplineConv::new(2, 4, 3, [5.0, 5.0, 1.0], &mut rng);
        for offset in [
            [0.0f32, 0.0, 0.0],
            [2.5, -1.0, 0.4],
            [5.0, 5.0, 1.0],
            [-5.0, 3.3, -0.9],
            [100.0, -100.0, 7.0], // clamped
        ] {
            let total: f32 = conv.basis(offset).iter().map(|&(_, c)| c).sum();
            assert!((total - 1.0).abs() < 1e-5, "offset {offset:?}: {total}");
        }
    }

    #[test]
    fn basis_is_local() {
        let mut rng = Rng64::seed_from_u64(2);
        let conv = SplineConv::new(2, 4, 5, [1.0, 1.0, 1.0], &mut rng);
        // An offset at a grid corner activates exactly one control point.
        let entries = conv.basis([-1.0, -1.0, -1.0]);
        let nonzero: Vec<_> = entries.iter().filter(|&&(_, c)| c > 1e-6).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0].0, 0, "lowest corner maps to kernel index 0");
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::seed_from_u64(3);
        let g = small_graph();
        let mut conv = SplineConv::new(2, 3, 2, [5.0, 5.0, 1.0], &mut rng);
        let input = NodeFeatures::from_graph(&g);
        let mut ops = OpCount::new();
        let out = conv.forward(&g, &input, &mut ops);
        let dout = grad_ones(out.nodes(), 3);
        let din = conv.backward(&g, &dout, &mut ops);
        let objective = |conv: &mut SplineConv, input: &NodeFeatures, ops: &mut OpCount| {
            let out = conv.forward(&g, input, ops);
            (0..out.nodes()).map(|i| out.row(i).iter().sum::<f32>()).sum::<f32>()
        };
        let eps = 1e-3f32;
        // Input gradients.
        for node in 0..3 {
            for c in 0..2 {
                let mut plus = input.clone();
                plus.row_mut(node)[c] += eps;
                let mut minus = input.clone();
                minus.row_mut(node)[c] -= eps;
                let numeric = (objective(&mut conv, &plus, &mut ops)
                    - objective(&mut conv, &minus, &mut ops))
                    / (2.0 * eps);
                let a = din.row(node)[c];
                assert!(
                    (numeric - a).abs() < 2e-2,
                    "node {node} chan {c}: {numeric} vs {a}"
                );
            }
        }
        // Kernel weight gradients (sampled).
        let mut conv2 = SplineConv::new(2, 3, 2, [5.0, 5.0, 1.0], &mut Rng64::seed_from_u64(3));
        let out2 = conv2.forward(&g, &input, &mut ops);
        conv2.backward(&g, &grad_ones(out2.nodes(), 3), &mut ops);
        let analytic = conv2.params_mut()[1].grad.clone();
        for wi in [0usize, 7, analytic.len() - 1] {
            let orig = conv2.params_mut()[1].value.as_slice()[wi];
            conv2.params_mut()[1].value.as_mut_slice()[wi] = orig + eps;
            let f_plus = objective(&mut conv2, &input, &mut ops);
            conv2.params_mut()[1].value.as_mut_slice()[wi] = orig - eps;
            let f_minus = objective(&mut conv2, &input, &mut ops);
            conv2.params_mut()[1].value.as_mut_slice()[wi] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.as_slice()[wi];
            assert!((numeric - a).abs() < 2e-2, "kernel weight {wi}: {numeric} vs {a}");
        }
    }

    fn grad_ones(nodes: usize, dim: usize) -> NodeFeatures {
        let mut g = NodeFeatures::zeros(nodes, dim);
        for i in 0..nodes {
            g.row_mut(i).iter_mut().for_each(|v| *v = 1.0);
        }
        g
    }

    #[test]
    fn spline_kernel_is_offset_sensitive_beyond_linear() {
        // A linear offset map W_rel r assigns antisymmetric weights to
        // opposite offsets; the spline kernel can treat +d and -d
        // independently. Verify the *message difference* between +d and -d
        // is not forced to be proportional to the offset difference.
        let mut rng = Rng64::seed_from_u64(4);
        let conv = SplineConv::new(1, 1, 3, [5.0, 5.0, 1.0], &mut rng);
        let message = |dx: f32| -> f32 {
            // Message for unit input feature along one edge at offset dx.
            let mut acc = 0.0;
            for (flat, coeff) in conv.basis([dx, 0.0, 0.0]) {
                acc += coeff * conv.w_kernel.value.as_slice()[flat];
            }
            acc
        };
        let plus = message(2.5);
        let minus = message(-2.5);
        let zero = message(0.0);
        // For a linear kernel, m(+d) + m(-d) == 2 m(0). The spline is free
        // of that constraint with overwhelming probability.
        assert!(
            (plus + minus - 2.0 * zero).abs() > 1e-4,
            "spline kernel degenerated to linear"
        );
    }

    #[test]
    fn param_count_formula() {
        let mut rng = Rng64::seed_from_u64(5);
        let conv = SplineConv::new(2, 4, 3, [1.0, 1.0, 1.0], &mut rng);
        assert_eq!(conv.param_count(), 4 * 2 + 27 * 4 * 2 + 4);
    }
}
