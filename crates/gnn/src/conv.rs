//! Relational graph convolution over spatiotemporal offsets.
//!
//! The layer implements
//!
//! ```text
//! h'_i = ReLU( W_self·h_i + (1/|N(i)|) Σ_{j∈N(i)} (W_nbr·h_j + W_rel·r_ij) + b )
//! ```
//!
//! where `r_ij = (Δx, Δy, βΔt)` is the spatiotemporal edge offset — this is
//! how "graph convolutions can exploit the precise timing information
//! captured by an event-camera deep into a neural network" (§IV). Backward
//! passes are exact.

use crate::graph::{EventGraph, GraphView};
use evlab_tensor::init::he_normal;
use evlab_tensor::layer::Param;
use evlab_tensor::scratch::with_worker_scratch;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::{par, Rng64};

/// Minimum nodes per chunk before the batch forward fans out over the
/// kernel pool; tiny graphs stay serial.
const GNN_NODES_PER_CHUNK: usize = 64;
/// Upper bound on forward chunk count. Together with
/// [`GNN_NODES_PER_CHUNK`] the chunk count depends only on the node count
/// (never the thread count), keeping the output and op accounting bitwise
/// invariant under `EVLAB_THREADS`.
const GNN_MAX_CHUNKS: usize = 64;

/// Per-node feature matrix: `node_count × dim`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    dim: usize,
    data: Vec<f32>,
}

impl NodeFeatures {
    /// Creates a zeroed feature matrix.
    pub fn zeros(nodes: usize, dim: usize) -> Self {
        NodeFeatures {
            dim,
            data: vec![0.0; nodes * dim],
        }
    }

    /// Builds the initial polarity features from a graph.
    pub fn from_graph(graph: &EventGraph) -> Self {
        let mut f = NodeFeatures::zeros(graph.node_count(), 2);
        for i in 0..graph.node_count() {
            let feat = graph.node_features(i);
            f.row_mut(i).copy_from_slice(&feat);
        }
        f
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length mismatches.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row length mismatch");
        self.data.extend_from_slice(row);
    }

    /// Grows or shrinks the matrix to exactly `nodes` rows, zero-filling
    /// any new rows and keeping existing rows in place. Used by the
    /// sliding-window engine, whose rows are keyed by stable slot ids.
    pub fn resize_nodes(&mut self, nodes: usize) {
        self.data.resize(nodes * self.dim, 0.0);
    }

    /// Makes this matrix an exact copy of `src`, reusing the existing
    /// allocation whenever capacity suffices.
    pub fn copy_from(&mut self, src: &NodeFeatures) {
        self.dim = src.dim;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Column-wise mean over all nodes (global mean pooling).
    pub fn mean_pool(&self) -> Vec<f32> {
        let n = self.nodes();
        let mut out = vec![0.0f32; self.dim];
        if n == 0 {
            return out;
        }
        for i in 0..n {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        for o in &mut out {
            *o /= n as f32;
        }
        out
    }
}

/// The value [`Iterator::sum`] over `f32` starts from (−0.0 on current
/// toolchains). Lane accumulators start here, so each per-output sum
/// reproduces the iterator's bits, signed zeros included.
fn sum_identity() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// `out[o] = Σ_k w_t[k·n + o] · x[k]` over the `[in][out]`-transposed
/// matrix `w_t` (`n = out.len()`). Each output lane keeps its own
/// accumulator, starts from [`sum_identity`] and adds the same products in
/// ascending `k`, so lane `o` equals
/// `w[o].iter().zip(x).map(|(w, x)| w * x).sum::<f32>()` over the
/// untransposed row bit for bit — while the inner loop runs across
/// outputs and vectorizes.
pub(crate) fn lane_matvec(w_t: &[f32], x: &[f32], out: &mut [f32]) {
    out.fill(sum_identity());
    for (&xk, w_row) in x.iter().zip(w_t.chunks_exact(out.len())) {
        for (o, &w) in out.iter_mut().zip(w_row) {
            *o += w * xk;
        }
    }
}

/// `out = b + W·x` per lane: [`lane_matvec`], then the bias added as the
/// row-wise kernels add it (`b + Σ`; f32 addition commutes bit for bit).
pub(crate) fn lane_affine(w_t: &[f32], b: &[f32], x: &[f32], out: &mut [f32]) {
    lane_matvec(w_t, x, out);
    for (o, &bo) in out.iter_mut().zip(b) {
        *o += bo;
    }
}

/// Transposes a row-major `[rows][cols]` matrix into `[cols][rows]`.
pub(crate) fn transpose(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; rows * cols];
    for (r, row) in w.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

/// A frozen [`GraphConv`] in the streaming engine's form, with every
/// weight matrix transposed to `[in][out]` so the node kernel runs across
/// output lanes.
///
/// The layer splits into a per-row neighbour projection `q_j = W_nbr·h_j`
/// ([`RelationalLanes::project`]), which the caller caches and refreshes
/// only when `h_j` changes, and a per-node kernel
/// ([`RelationalLanes::node_forward`]) that reads `q_j` and adds the
/// offset term per edge. Together they reproduce
/// [`GraphConv::node_forward_into`] bit for bit: each `q_j` element is the
/// same `f32` sum the untransposed row forms, and every message is still
/// `((q + w_r0·r0) + w_r1·r1) + w_r2·r2`, added in in-neighbour order.
#[derive(Debug, Clone)]
pub(crate) struct RelationalLanes {
    in_dim: usize,
    out_dim: usize,
    w_self_t: Vec<f32>, // [in, out]
    w_nbr_t: Vec<f32>,  // [in, out]
    w_rel_t: Vec<f32>,  // [3, out]
    bias: Vec<f32>,     // [out]
}

impl RelationalLanes {
    /// Output feature dimensionality.
    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Width of one cached projection row.
    pub(crate) fn proj_dim(&self) -> usize {
        self.out_dim
    }

    /// Writes `q = W_nbr·h` into `q` (`out_dim` long).
    pub(crate) fn project(&self, h: &[f32], q: &mut [f32], ops: &mut OpCount) {
        lane_matvec(&self.w_nbr_t, h, q);
        let macs = (self.out_dim * self.in_dim) as u64;
        ops.record_mac(macs, macs);
    }

    /// The pre-activation message of node `i` from its input row `h_i` and
    /// the cached projections of its in-neighbours. Writes `m`, uses `agg`
    /// as the aggregation buffer (both at least `out_dim` long). Per edge
    /// this costs `out × 3` MACs and `out` adds instead of
    /// `out × (in + 3)` MACs.
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
        let out = self.out_dim;
        let (m, agg) = (&mut m[..out], &mut agg[..out]);
        lane_affine(&self.w_self_t, &self.bias, h_i, m);
        let macs = (out * self.in_dim) as u64;
        ops.record_mac(macs, macs);
        let nbrs = graph.in_neighbors(i);
        if nbrs.is_empty() {
            return;
        }
        let inv = 1.0 / nbrs.len() as f32;
        let (wr0, rest) = self.w_rel_t.split_at(out);
        let (wr1, wr2) = rest.split_at(out);
        agg.fill(0.0);
        for &j in nbrs {
            let r = graph.relative_offset(i, j as usize);
            let q = proj.row(j as usize);
            for ((((a, &qo), &w0), &w1), &w2) in agg.iter_mut().zip(q).zip(wr0).zip(wr1).zip(wr2) {
                *a += qo + w0 * r[0] + w1 * r[1] + w2 * r[2];
            }
        }
        let edge_work = (nbrs.len() * out) as u64;
        ops.record_mac(3 * edge_work, 3 * edge_work);
        ops.record_add(edge_work);
        for (mo, &a) in m.iter_mut().zip(agg.iter()) {
            *mo += inv * a;
        }
        ops.record_mult(out as u64);
    }
}

/// One relational graph-convolution layer.
#[derive(Debug, Clone)]
pub struct GraphConv {
    w_self: Param, // [out, in]
    w_nbr: Param,  // [out, in]
    w_rel: Param,  // [out, 3]
    bias: Param,   // [out]
    in_dim: usize,
    out_dim: usize,
    cached_input: Option<NodeFeatures>,
    cached_mask: Option<Vec<bool>>,
    /// Recycled forward caches: backward consumes `cached_input`/
    /// `cached_mask` (preserving the backward-without-forward panic) but
    /// parks their allocations here so the next forward reuses them.
    input_pool: Option<NodeFeatures>,
    mask_pool: Option<Vec<bool>>,
    /// Reused per-node message/aggregation buffers (`out_dim` each), so
    /// message passing allocates nothing per node.
    msg_buf: Vec<f32>,
    agg_buf: Vec<f32>,
    /// Reused per-chunk op-count partials for the parallel batch forward.
    ops_buf: Vec<OpCount>,
}

impl GraphConv {
    /// Creates a layer with He initialization.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "zero-sized layer");
        GraphConv {
            w_self: Param::new(he_normal(&[out_dim, in_dim], in_dim, rng)),
            w_nbr: Param::new(he_normal(&[out_dim, in_dim], in_dim, rng)),
            w_rel: Param::new(he_normal(&[out_dim, 3], 3, rng)),
            bias: Param::new(Tensor::zeros(&[out_dim])),
            in_dim,
            out_dim,
            cached_input: None,
            cached_mask: None,
            input_pool: None,
            mask_pool: None,
            msg_buf: Vec::new(),
            agg_buf: Vec::new(),
            ops_buf: Vec::new(),
        }
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.w_self,
            &mut self.w_nbr,
            &mut self.w_rel,
            &mut self.bias,
        ]
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.w_self.len() + self.w_nbr.len() + self.w_rel.len() + self.bias.len()
    }

    /// A frozen copy of the current weights in the streaming engine's
    /// transposed form.
    pub(crate) fn lanes(&self) -> RelationalLanes {
        let (i, o) = (self.in_dim, self.out_dim);
        RelationalLanes {
            in_dim: i,
            out_dim: o,
            w_self_t: transpose(self.w_self.value.as_slice(), o, i),
            w_nbr_t: transpose(self.w_nbr.value.as_slice(), o, i),
            w_rel_t: transpose(self.w_rel.value.as_slice(), o, 3),
            bias: self.bias.value.as_slice().to_vec(),
        }
    }

    /// Computes the pre-activation message for a single node given the
    /// *input* features — shared by the batch forward and the asynchronous
    /// single-node update, over any [`GraphView`] node store. Convenience
    /// wrapper over [`GraphConv::node_forward_into`] that allocates the
    /// result.
    pub fn node_forward<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        input: &NodeFeatures,
        i: usize,
        ops: &mut OpCount,
    ) -> Vec<f32> {
        let mut m = vec![0.0f32; self.out_dim];
        let mut agg = vec![0.0f32; self.out_dim];
        self.node_forward_into(graph, input, i, &mut m, &mut agg, ops);
        m
    }

    /// Allocation-free [`GraphConv::node_forward`]: writes the
    /// pre-activation message into `m` and uses `agg` as the neighbor
    /// aggregation buffer (both of length `out_dim`, fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if either buffer is shorter than `out_dim`.
    pub fn node_forward_into<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        input: &NodeFeatures,
        i: usize,
        m: &mut [f32],
        agg: &mut [f32],
        ops: &mut OpCount,
    ) {
        assert!(m.len() >= self.out_dim && agg.len() >= self.out_dim);
        let ws = self.w_self.value.as_slice();
        let wn = self.w_nbr.value.as_slice();
        let wr = self.w_rel.value.as_slice();
        let b = self.bias.value.as_slice();
        let h_i = input.row(i);
        for (o, slot) in m.iter_mut().enumerate().take(self.out_dim) {
            *slot = b[o]
                + ws[o * self.in_dim..(o + 1) * self.in_dim]
                    .iter()
                    .zip(h_i)
                    .map(|(w, x)| w * x)
                    .sum::<f32>();
        }
        ops.record_mac(
            (self.out_dim * self.in_dim) as u64,
            (self.out_dim * self.in_dim) as u64,
        );
        let nbrs = graph.in_neighbors(i);
        if !nbrs.is_empty() {
            let inv = 1.0 / nbrs.len() as f32;
            agg[..self.out_dim].fill(0.0);
            for &j in nbrs {
                let h_j = input.row(j as usize);
                let r = graph.relative_offset(i, j as usize);
                for (o, slot) in agg.iter_mut().enumerate().take(self.out_dim) {
                    let msg: f32 = wn[o * self.in_dim..(o + 1) * self.in_dim]
                        .iter()
                        .zip(h_j)
                        .map(|(w, x)| w * x)
                        .sum::<f32>()
                        + wr[o * 3] * r[0]
                        + wr[o * 3 + 1] * r[1]
                        + wr[o * 3 + 2] * r[2];
                    *slot += msg;
                }
            }
            ops.record_mac(
                (nbrs.len() * self.out_dim * (self.in_dim + 3)) as u64,
                (nbrs.len() * self.out_dim * (self.in_dim + 3)) as u64,
            );
            for (mo, a) in m.iter_mut().zip(agg.iter()).take(self.out_dim) {
                *mo += inv * a;
            }
            ops.record_mult(self.out_dim as u64);
        }
    }

    /// Batch forward over all nodes, with ReLU. Caches for backward. The
    /// per-node message/aggregation buffers and the forward caches are
    /// reused across calls, so repeated forwards only allocate for the
    /// output features.
    ///
    /// Graphs with at least `2 ·` [`GNN_NODES_PER_CHUNK`] nodes fan node
    /// bands out over the `evlab_util::par` kernel pool. Each node's
    /// message is a self-contained computation writing a disjoint output
    /// row, and the per-chunk op-count partials are merged in ascending
    /// chunk order, so results are bitwise identical at every thread
    /// count (and to the serial loop).
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
        let mut mask = self.mask_pool.take().unwrap_or_default();
        mask.clear();
        mask.resize(n * self.out_dim, false);
        let n_chunks = par::chunk_count(n, GNN_NODES_PER_CHUNK, GNN_MAX_CHUNKS);
        if n_chunks > 1 {
            let mut ops_parts = std::mem::take(&mut self.ops_buf);
            ops_parts.clear();
            ops_parts.resize(n_chunks, OpCount::new());
            let out_dim = self.out_dim;
            let out_addr = out.data.as_mut_ptr() as usize;
            let mask_addr = mask.as_mut_ptr() as usize;
            let parts_addr = ops_parts.as_mut_ptr() as usize;
            let this = &*self;
            par::for_each_chunk(n_chunks, |c| {
                // SAFETY: chunk ranges partition `0..n` into disjoint
                // intervals, so each chunk exclusively owns its node rows
                // of `out`/`mask` and its own `ops_parts[c]`; all three
                // locals outlive the region, and `this` is a shared borrow
                // (weights are only read).
                let part = unsafe { &mut *(parts_addr as *mut OpCount).add(c) };
                with_worker_scratch(|ws| {
                    let mut m = ws.take_buf(out_dim);
                    let mut agg = ws.take_buf(out_dim);
                    for i in par::chunk_range_at(n, n_chunks, c) {
                        this.node_forward_into(graph, input, i, &mut m, &mut agg, part);
                        let (row, mrow) = unsafe {
                            (
                                std::slice::from_raw_parts_mut(
                                    (out_addr as *mut f32).add(i * out_dim),
                                    out_dim,
                                ),
                                std::slice::from_raw_parts_mut(
                                    (mask_addr as *mut bool).add(i * out_dim),
                                    out_dim,
                                ),
                            )
                        };
                        for (o, &v) in m.iter().enumerate() {
                            if v > 0.0 {
                                row[o] = v;
                                mrow[o] = true;
                            }
                        }
                    }
                    ws.put_buf(agg);
                    ws.put_buf(m);
                });
            });
            for part in &ops_parts {
                *ops += *part;
            }
            self.ops_buf = ops_parts;
        } else {
            let mut m = std::mem::take(&mut self.msg_buf);
            let mut agg = std::mem::take(&mut self.agg_buf);
            m.resize(self.out_dim, 0.0);
            agg.resize(self.out_dim, 0.0);
            for i in 0..n {
                self.node_forward_into(graph, input, i, &mut m, &mut agg, ops);
                let row = out.row_mut(i);
                for (o, &v) in m.iter().enumerate() {
                    if v > 0.0 {
                        row[o] = v;
                        mask[i * self.out_dim + o] = true;
                    }
                }
            }
            self.msg_buf = m;
            self.agg_buf = agg;
        }
        ops.record_compare((n * self.out_dim) as u64);
        ops.record_write((n * self.out_dim) as u64);
        match self.input_pool.take() {
            Some(mut pooled) => {
                pooled.copy_from(input);
                self.cached_input = Some(pooled);
            }
            None => self.cached_input = Some(input.clone()),
        }
        self.cached_mask = Some(mask);
        out
    }

    /// Backward pass: given `d h'`, accumulates parameter gradients and
    /// returns `d h` (gradient at the input features).
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`GraphConv::forward`].
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
        // `dm` (masked gradient of one node) reuses the message buffer; all
        // weight reads borrow `Param::value` while writes go to the
        // disjoint `Param::grad`, so no per-node copies are needed.
        let mut dm = std::mem::take(&mut self.msg_buf);
        dm.resize(self.out_dim, 0.0);
        let ws = self.w_self.value.as_slice();
        let wn = self.w_nbr.value.as_slice();
        for i in 0..n {
            let nbrs = graph.in_neighbors(i);
            let inv = if nbrs.is_empty() {
                0.0
            } else {
                1.0 / nbrs.len() as f32
            };
            let h_i = input.row(i);
            // dm = relu mask applied.
            for (o, (slot, &g)) in dm.iter_mut().zip(grad_output.row(i)).enumerate() {
                *slot = if mask[i * self.out_dim + o] { g } else { 0.0 };
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
            for &j in nbrs {
                let h_j = input.row(j as usize);
                let r = graph.relative_offset(i, j as usize);
                let gn = self.w_nbr.grad.as_mut_slice();
                let gr = self.w_rel.grad.as_mut_slice();
                for (o, &d) in dm.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let dscaled = d * inv;
                    for (c, &x) in h_j.iter().enumerate() {
                        gn[o * self.in_dim + c] += dscaled * x;
                    }
                    gr[o * 3] += dscaled * r[0];
                    gr[o * 3 + 1] += dscaled * r[1];
                    gr[o * 3 + 2] += dscaled * r[2];
                }
                let gj = grad_input.row_mut(j as usize);
                for (o, &d) in dm.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let dscaled = d * inv;
                    for (c, slot) in gj.iter_mut().enumerate() {
                        *slot += dscaled * wn[o * self.in_dim + c];
                    }
                }
            }
        }
        self.msg_buf = dm;
        self.input_pool = Some(input);
        self.mask_pool = Some(mask);
        let edges = graph.edge_count() as u64;
        ops.record_mac(
            2 * (n as u64 * (self.out_dim * self.in_dim) as u64
                + edges * (self.out_dim * (self.in_dim + 3)) as u64),
            2 * (n as u64 * (self.out_dim * self.in_dim) as u64
                + edges * (self.out_dim * (self.in_dim + 3)) as u64),
        );
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
        g.push_node(Event::new(100, 3, 2, Polarity::Off), vec![0]);
        g.push_node(Event::new(200, 3, 3, Polarity::On), vec![0, 1]);
        g
    }

    #[test]
    fn forward_shapes_and_isolated_nodes() {
        let mut rng = Rng64::seed_from_u64(1);
        let g = small_graph();
        let mut conv = GraphConv::new(2, 8, &mut rng);
        let input = NodeFeatures::from_graph(&g);
        let mut ops = OpCount::new();
        let out = conv.forward(&g, &input, &mut ops);
        assert_eq!(out.nodes(), 3);
        assert_eq!(out.dim(), 8);
        assert!(ops.macs > 0);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::seed_from_u64(2);
        let g = small_graph();
        let mut conv = GraphConv::new(2, 4, &mut rng);
        let input = NodeFeatures::from_graph(&g);
        let mut ops = OpCount::new();
        let out = conv.forward(&g, &input, &mut ops);
        let dout = NodeFeatures {
            dim: 4,
            data: vec![1.0; out.nodes() * 4],
        };
        let din = conv.backward(&g, &dout, &mut ops);
        let objective = |conv: &mut GraphConv, input: &NodeFeatures, ops: &mut OpCount| {
            let out = conv.forward(&g, input, ops);
            out.data.iter().sum::<f32>()
        };
        let eps = 1e-3f32;
        // Input gradient check.
        for idx in 0..input.data.len() {
            let mut plus = input.clone();
            plus.data[idx] += eps;
            let mut minus = input.clone();
            minus.data[idx] -= eps;
            let numeric =
                (objective(&mut conv, &plus, &mut ops) - objective(&mut conv, &minus, &mut ops))
                    / (2.0 * eps);
            assert!(
                (numeric - din.data[idx]).abs() < 2e-2,
                "input grad {idx}: {numeric} vs {}",
                din.data[idx]
            );
        }
        // Parameter gradient check (fresh gradients).
        let mut conv2 = GraphConv::new(2, 4, &mut Rng64::seed_from_u64(2));
        let out2 = conv2.forward(&g, &input, &mut ops);
        let dout2 = NodeFeatures {
            dim: 4,
            data: vec![1.0; out2.nodes() * 4],
        };
        conv2.backward(&g, &dout2, &mut ops);
        for pi in 0..4 {
            let analytic = conv2.params_mut()[pi].grad.clone();
            for wi in [0usize, analytic.len() - 1] {
                let orig = conv2.params_mut()[pi].value.as_slice()[wi];
                conv2.params_mut()[pi].value.as_mut_slice()[wi] = orig + eps;
                let f_plus = objective(&mut conv2, &input, &mut ops);
                conv2.params_mut()[pi].value.as_mut_slice()[wi] = orig - eps;
                let f_minus = objective(&mut conv2, &input, &mut ops);
                conv2.params_mut()[pi].value.as_mut_slice()[wi] = orig;
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                let a = analytic.as_slice()[wi];
                assert!(
                    (numeric - a).abs() < 2e-2,
                    "param {pi} weight {wi}: {numeric} vs {a}"
                );
            }
        }
    }

    #[test]
    fn timing_information_reaches_the_output() {
        // Two graphs identical except for edge Δt: outputs must differ,
        // demonstrating that timing is usable by the model.
        let mut rng = Rng64::seed_from_u64(3);
        let mut conv = GraphConv::new(2, 4, &mut rng);
        let mut ops = OpCount::new();
        let make = |dt: u64| {
            let mut g = EventGraph::new(0.01);
            g.push_node(Event::new(0, 2, 2, Polarity::On), vec![]);
            g.push_node(Event::new(dt, 3, 2, Polarity::On), vec![0]);
            g
        };
        let g_fast = make(10);
        let g_slow = make(1_000);
        let input = NodeFeatures::from_graph(&g_fast);
        let out_fast = conv.forward(&g_fast, &input, &mut ops);
        let out_slow = conv.forward(&g_slow, &input, &mut ops);
        assert_ne!(
            out_fast.row(1),
            out_slow.row(1),
            "Δt must influence features"
        );
    }

    #[test]
    fn batch_forward_is_bitwise_invariant_across_thread_counts() {
        // Enough nodes to clear GNN_NODES_PER_CHUNK and fan out.
        let mut g = EventGraph::new(0.001);
        for i in 0..(3 * GNN_NODES_PER_CHUNK as u64 + 7) {
            let nbrs: Vec<u32> = (i.saturating_sub(3)..i).map(|j| j as u32).collect();
            let pol = if i % 2 == 0 { Polarity::On } else { Polarity::Off };
            g.push_node(Event::new(i * 50, (i % 64) as u16, (i % 48) as u16, pol), nbrs);
        }
        let input = NodeFeatures::from_graph(&g);
        let mut rng = Rng64::seed_from_u64(7);
        let mut conv = GraphConv::new(2, 8, &mut rng);

        // Reference: the per-node serial formula (node_forward + ReLU).
        let mut ops_ref = OpCount::new();
        let mut expected = NodeFeatures::zeros(g.node_count(), 8);
        for i in 0..g.node_count() {
            let m = conv.node_forward(&g, &input, i, &mut ops_ref);
            for (o, &v) in m.iter().enumerate() {
                if v > 0.0 {
                    expected.row_mut(i)[o] = v;
                }
            }
        }

        let mut baseline: Option<(Vec<u32>, OpCount)> = None;
        for threads in [1, 2, 4, 8] {
            evlab_util::par::with_threads(threads, || {
                let mut ops = OpCount::new();
                let out = conv.forward(&g, &input, &mut ops);
                for i in 0..g.node_count() {
                    for (a, b) in out.row(i).iter().zip(expected.row(i)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "node {i} at {threads} threads");
                    }
                }
                let bits: Vec<u32> = out.data.iter().map(|v| v.to_bits()).collect();
                match &baseline {
                    None => baseline = Some((bits, ops)),
                    Some((b_bits, b_ops)) => {
                        assert_eq!(&bits, b_bits, "{threads} threads diverged");
                        assert_eq!(&ops, b_ops, "op accounting diverged at {threads} threads");
                    }
                }
            });
        }
    }

    #[test]
    fn lane_matvec_reproduces_iterator_sums_with_signed_zeros() {
        let mut rng = Rng64::seed_from_u64(8);
        let value = |rng: &mut Rng64| match rng.next_index(4) {
            0 => 0.0f32,
            1 => -0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        };
        for (in_dim, out_dim) in [(1, 1), (2, 5), (16, 16), (3, 7)] {
            for _ in 0..50 {
                let w: Vec<f32> = (0..out_dim * in_dim).map(|_| value(&mut rng)).collect();
                let x: Vec<f32> = (0..in_dim).map(|_| value(&mut rng)).collect();
                let mut lanes = vec![f32::NAN; out_dim];
                lane_matvec(&transpose(&w, out_dim, in_dim), &x, &mut lanes);
                for (o, got) in lanes.iter().enumerate() {
                    let want: f32 = w[o * in_dim..(o + 1) * in_dim]
                        .iter()
                        .zip(&x)
                        .map(|(w, x)| w * x)
                        .sum();
                    assert_eq!(got.to_bits(), want.to_bits(), "{in_dim}x{out_dim} lane {o}");
                }
            }
        }
        // An all-(-0.0) product sum stays -0.0, as the iterator's does.
        let mut out = [f32::NAN];
        lane_matvec(&[1.0, 1.0], &[-0.0, -0.0], &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn mean_pool_averages() {
        let mut f = NodeFeatures::zeros(2, 2);
        f.row_mut(0).copy_from_slice(&[1.0, 3.0]);
        f.row_mut(1).copy_from_slice(&[3.0, 5.0]);
        assert_eq!(f.mean_pool(), vec![2.0, 4.0]);
        assert_eq!(NodeFeatures::zeros(0, 2).mean_pool(), vec![0.0, 0.0]);
    }

    #[test]
    fn ops_scale_with_edges() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut conv = GraphConv::new(2, 4, &mut rng);
        let sparse = small_graph(); // 3 edges
        let mut dense = EventGraph::new(0.001);
        for i in 0..10u64 {
            let nbrs: Vec<u32> = (0..i.min(8) as u32).collect();
            dense.push_node(Event::new(i * 10, i as u16, 0, Polarity::On), nbrs);
        }
        let mut ops_sparse = OpCount::new();
        conv.forward(&sparse, &NodeFeatures::from_graph(&sparse), &mut ops_sparse);
        let mut ops_dense = OpCount::new();
        conv.forward(&dense, &NodeFeatures::from_graph(&dense), &mut ops_dense);
        assert!(ops_dense.macs > ops_sparse.macs);
    }
}
