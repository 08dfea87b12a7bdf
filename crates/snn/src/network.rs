//! Multi-layer spiking network with surrogate-gradient BPTT.
//!
//! The architecture is the standard §III-A stack: hidden LIF layers
//! followed by a non-spiking leaky-integrator readout whose final membrane
//! potentials are the class logits (a "loss based on the membrane
//! potential", [Neftci et al. 2019]). Training backpropagates through time
//! with the spiking derivative replaced by a [`Surrogate`], and the reset
//! path detached (the usual approximation).

use crate::encode::SpikeTrain;
use crate::layer::LifLayer;
use crate::neuron::LifConfig;
use crate::surrogate::Surrogate;
use evlab_tensor::init::he_normal;
use evlab_tensor::layer::Param;
use evlab_tensor::loss::cross_entropy;
use evlab_tensor::optim::Optimizer;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::Rng64;

/// Network hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnConfig {
    /// Input dimensionality (2 × pixels for polarity-channel spike input).
    pub input: usize,
    /// Hidden layer sizes.
    pub hidden: Vec<usize>,
    /// Output classes.
    pub classes: usize,
    /// LIF parameters shared by the hidden layers.
    pub lif: LifConfig,
    /// Leak of the non-spiking readout integrator.
    pub readout_leak: f32,
    /// Surrogate gradient used during training.
    pub surrogate: Surrogate,
}

impl SnnConfig {
    /// A small default: one hidden layer of 64 neurons.
    pub fn new(input: usize, classes: usize) -> Self {
        SnnConfig {
            input,
            hidden: vec![64],
            classes,
            lif: LifConfig::new(),
            readout_leak: 0.95,
            surrogate: Surrogate::new(),
        }
    }

    /// Returns a copy with different hidden sizes.
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }
}

#[derive(Debug, Clone, Default)]
struct ForwardCache {
    /// Per layer, per step: pre-reset membranes.
    membranes: Vec<Vec<Vec<f32>>>,
    /// Per layer, per step: emitted spikes.
    spikes: Vec<Vec<Vec<f32>>>,
    /// Per step: dense input vector.
    inputs: Vec<Vec<f32>>,
}

/// A spiking classifier network.
pub struct SnnNetwork {
    config: SnnConfig,
    layers: Vec<LifLayer>,
    readout: Param, // [classes, last_hidden]
    cache: ForwardCache,
    last_spike_counts: Vec<usize>,
}

impl SnnNetwork {
    /// Creates a network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty.
    pub fn new(config: SnnConfig, rng: &mut Rng64) -> Self {
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let mut layers = Vec::new();
        let mut in_size = config.input;
        for &h in &config.hidden {
            layers.push(LifLayer::new(in_size, h, config.lif, rng));
            in_size = h;
        }
        let readout = Param::new(he_normal(&[config.classes, in_size], in_size, rng));
        SnnNetwork {
            config,
            layers,
            readout,
            cache: ForwardCache::default(),
            last_spike_counts: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SnnConfig {
        &self.config
    }

    /// The hidden layers, in order.
    pub fn layers(&self) -> &[LifLayer] {
        &self.layers
    }

    /// The readout weight matrix `[classes, last_hidden]`.
    pub fn readout_weight(&self) -> &Tensor {
        &self.readout.value
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight().len())
            .sum::<usize>()
            + self.readout.len()
    }

    /// Neuron state words (one membrane per neuron) — the state memory a
    /// neuromorphic core must hold.
    pub fn state_count(&self) -> usize {
        self.layers.iter().map(|l| l.out_size()).sum::<usize>() + self.config.classes
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = self
            .layers
            .iter_mut()
            .map(|l| l.weight_mut())
            .collect();
        out.push(&mut self.readout);
        out
    }

    /// Per-hidden-layer spike totals of the most recent forward pass — the
    /// activity measure behind the "Computation sparsity" row.
    pub fn last_spike_counts(&self) -> &[usize] {
        &self.last_spike_counts
    }

    /// Runs the clocked simulation over a spike train, returning the class
    /// logits (readout membranes at the final step). Caches everything
    /// needed for [`SnnNetwork::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the train size mismatches the configured input.
    pub fn forward(&mut self, train: &SpikeTrain, ops: &mut OpCount) -> Tensor {
        assert_eq!(train.size(), self.config.input, "input size mismatch");
        let steps = train.num_steps();
        for l in &mut self.layers {
            l.reset();
        }
        self.cache = ForwardCache {
            membranes: vec![Vec::with_capacity(steps); self.layers.len()],
            spikes: vec![Vec::with_capacity(steps); self.layers.len()],
            inputs: Vec::with_capacity(steps),
        };
        self.last_spike_counts = vec![0; self.layers.len()];
        let mut readout_v = vec![0.0f32; self.config.classes];
        let rw = self.readout.value.as_slice();
        let last_hidden = self.layers.last().expect("nonempty").out_size();
        for t in 0..steps {
            let mut current = train.dense_step(t);
            self.cache.inputs.push(current.clone());
            for (li, layer) in self.layers.iter_mut().enumerate() {
                let step = layer.step(&current, ops);
                self.last_spike_counts[li] +=
                    step.spikes.iter().filter(|&&s| s > 0.0).count();
                self.cache.membranes[li].push(step.membrane);
                current = step.spikes.clone();
                self.cache.spikes[li].push(step.spikes);
            }
            // Non-spiking readout integrator (clocked decay + event-driven
            // accumulation of last hidden spikes).
            for v in &mut readout_v {
                *v *= self.config.readout_leak;
            }
            ops.record_mult(self.config.classes as u64);
            let mut active = 0u64;
            for (i, &s) in current.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                active += 1;
                for (c, v) in readout_v.iter_mut().enumerate() {
                    *v += s * rw[c * last_hidden + i];
                }
            }
            ops.record_add(active * self.config.classes as u64);
        }
        Tensor::from_vec(&[self.config.classes], readout_v).expect("logit shape")
    }

    /// Backpropagates through time from a logit gradient, accumulating
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SnnNetwork::forward`].
    pub fn backward(&mut self, grad_logits: &Tensor, ops: &mut OpCount) {
        let steps = self.cache.inputs.len();
        assert!(steps > 0, "backward without forward");
        let g = grad_logits.as_slice();
        let classes = self.config.classes;
        let last_hidden = self.layers.last().expect("nonempty").out_size();
        let theta = self.config.lif.threshold;
        let surrogate = self.config.surrogate;

        // Readout: r_T = sum_t leak^(T-1-t) V s_t  =>
        //   dV = sum_t leak^(T-1-t) g s_t^T,  ds_t = leak^(T-1-t) V^T g.
        let mut ds_last: Vec<Vec<f32>> = vec![vec![0.0; last_hidden]; steps];
        {
            let (rw, rg) = (
                self.readout.value.as_slice(),
                self.readout.grad.as_mut_slice(),
            );
            let mut scale = 1.0f32;
            let mut macs = 0u64;
            for t in (0..steps).rev() {
                let s_t = &self.cache.spikes[self.layers.len() - 1][t];
                for c in 0..classes {
                    let gc = g[c] * scale;
                    if gc == 0.0 {
                        continue;
                    }
                    for i in 0..last_hidden {
                        rg[c * last_hidden + i] += gc * s_t[i];
                        ds_last[t][i] += gc * rw[c * last_hidden + i];
                    }
                    macs += 2 * last_hidden as u64;
                }
                scale *= self.config.readout_leak;
            }
            ops.record_mac(macs, macs);
        }

        // Hidden layers, top to bottom. The input gradient is formed only
        // where a layer below reads it (li > 0), and the weight gradient
        // only over each step's nonzero inputs: every `wg` element still
        // receives the same products in the same order (t descending).
        let mut ds_out = ds_last;
        let mut active: Vec<(usize, f32)> = Vec::new();
        for li in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[li];
            let in_size = layer.in_size();
            let out_size = layer.out_size();
            let leak = layer.config().leak;
            let weight = layer.weight_mut();
            let (w, wg) = (weight.value.as_slice(), weight.grad.as_mut_slice());
            let mut ds_in: Vec<Vec<f32>> = if li > 0 {
                vec![vec![0.0; in_size]; steps]
            } else {
                Vec::new()
            };
            let mut macs = 0u64;
            let mut delta = vec![0.0f32; out_size];
            let mut delta_next = vec![0.0f32; out_size];
            for t in (0..steps).rev() {
                let membrane = &self.cache.membranes[li][t];
                let input: &[f32] = if li == 0 {
                    &self.cache.inputs[t]
                } else {
                    &self.cache.spikes[li - 1][t]
                };
                active.clear();
                active.extend(
                    input
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, xi)| xi != 0.0),
                );
                for j in 0..out_size {
                    let sg = surrogate.grad(membrane[j] - theta);
                    delta[j] = sg * ds_out[t][j] + leak * delta_next[j];
                }
                for (j, &dj) in delta.iter().enumerate() {
                    if dj == 0.0 {
                        continue;
                    }
                    let wg_row = &mut wg[j * in_size..(j + 1) * in_size];
                    for &(i, xi) in &active {
                        wg_row[i] += dj * xi;
                    }
                    macs += active.len() as u64;
                    if li > 0 {
                        let w_row = &w[j * in_size..(j + 1) * in_size];
                        for (d, &wi) in ds_in[t].iter_mut().zip(w_row) {
                            *d += dj * wi;
                        }
                        macs += in_size as u64;
                    }
                }
                std::mem::swap(&mut delta, &mut delta_next);
            }
            ops.record_mac(macs, macs);
            ds_out = ds_in;
        }
    }

    /// Predicted class for a spike train.
    pub fn predict(&mut self, train: &SpikeTrain, ops: &mut OpCount) -> usize {
        self.forward(train, ops).argmax()
    }
}

impl std::fmt::Debug for SnnNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnnNetwork")
            .field("input", &self.config.input)
            .field("hidden", &self.config.hidden)
            .field("classes", &self.config.classes)
            .field("params", &self.param_count())
            .finish()
    }
}

/// Trains on a batch of `(spike_train, label)` pairs with one optimizer
/// step; returns `(mean_loss, accuracy)`.
pub fn train_batch(
    net: &mut SnnNetwork,
    batch: &[(SpikeTrain, usize)],
    optimizer: &mut dyn Optimizer,
    ops: &mut OpCount,
) -> (f32, f32) {
    assert!(!batch.is_empty(), "empty batch");
    let mut loss_sum = 0.0;
    let mut correct = 0usize;
    for (train, label) in batch {
        let logits = net.forward(train, ops);
        if logits.argmax() == *label {
            correct += 1;
        }
        let (loss, grad) = cross_entropy(&logits, *label);
        loss_sum += loss;
        net.backward(&grad, ops);
    }
    let scale = 1.0 / batch.len() as f32;
    let mut params = net.params_mut();
    for p in params.iter_mut() {
        p.grad.scale_assign(scale);
    }
    optimizer.step(&mut params);
    (loss_sum * scale, correct as f32 * scale)
}

/// Classification accuracy over a set of spike trains.
pub fn evaluate(
    net: &mut SnnNetwork,
    samples: &[(SpikeTrain, usize)],
    ops: &mut OpCount,
) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|(train, label)| net.predict(train, ops) == *label)
        .count();
    correct as f32 / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_tensor::optim::Adam;

    /// Toy task: class = which half of the inputs carries the spikes.
    fn toy_sample(class: usize, rng: &mut Rng64, input: usize, steps: usize) -> SpikeTrain {
        let mut train = SpikeTrain::new(input, steps);
        let half = input / 2;
        for t in 0..steps {
            for _ in 0..2 {
                let i = if class == 0 {
                    rng.next_index(half)
                } else {
                    half + rng.next_index(half)
                };
                train.push(t, i as u32);
            }
        }
        train
    }

    #[test]
    fn snn_learns_spatial_toy_task() {
        let mut rng = Rng64::seed_from_u64(1);
        let config = SnnConfig::new(16, 2).with_hidden(vec![24]);
        let mut net = SnnNetwork::new(config, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut ops = OpCount::new();
        let train_set: Vec<(SpikeTrain, usize)> = (0..60)
            .map(|i| {
                let class = i % 2;
                (toy_sample(class, &mut rng, 16, 10), class)
            })
            .collect();
        let test_set: Vec<(SpikeTrain, usize)> = (0..20)
            .map(|i| {
                let class = i % 2;
                (toy_sample(class, &mut rng, 16, 10), class)
            })
            .collect();
        for _ in 0..15 {
            for chunk in train_set.chunks(10) {
                train_batch(&mut net, chunk, &mut opt, &mut ops);
            }
        }
        let acc = evaluate(&mut net, &test_set, &mut ops);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn temporal_order_task_is_learnable() {
        // Two classes with identical total spike counts per input; only the
        // order differs: class 0 fires input 0 early then input 1; class 1
        // the reverse. A leaky readout sees different final membranes.
        let make = |class: usize| {
            let mut t = SpikeTrain::new(2, 8);
            let (early, late) = if class == 0 { (0u32, 1u32) } else { (1, 0) };
            for step in 0..4 {
                t.push(step, early);
            }
            for step in 4..8 {
                t.push(step, late);
            }
            t
        };
        let mut rng = Rng64::seed_from_u64(2);
        let config = SnnConfig::new(2, 2).with_hidden(vec![12]);
        let mut net = SnnNetwork::new(config, &mut rng);
        let mut opt = Adam::new(0.02);
        let mut ops = OpCount::new();
        let batch = vec![(make(0), 0), (make(1), 1)];
        for _ in 0..150 {
            train_batch(&mut net, &batch, &mut opt, &mut ops);
        }
        assert_eq!(net.predict(&make(0), &mut ops), 0);
        assert_eq!(net.predict(&make(1), &mut ops), 1);
    }

    #[test]
    fn op_profile_is_add_dominated() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut net = SnnNetwork::new(SnnConfig::new(32, 4), &mut rng);
        let mut train = SpikeTrain::new(32, 20);
        for t in 0..20 {
            train.push(t, (t % 32) as u32);
        }
        let mut ops = OpCount::new();
        net.forward(&train, &mut ops);
        assert_eq!(ops.macs, 0, "inference uses no MACs");
        assert!(ops.adds > ops.mults, "adds {} vs mults {}", ops.adds, ops.mults);
    }

    #[test]
    fn spike_counts_are_tracked() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut net = SnnNetwork::new(SnnConfig::new(8, 2), &mut rng);
        let mut busy = SpikeTrain::new(8, 10);
        for t in 0..10 {
            for i in 0..8 {
                busy.push(t, i);
            }
        }
        let mut ops = OpCount::new();
        net.forward(&busy, &mut ops);
        let busy_count = net.last_spike_counts()[0];
        let quiet = SpikeTrain::new(8, 10);
        net.forward(&quiet, &mut ops);
        assert_eq!(net.last_spike_counts()[0], 0);
        assert!(busy_count > 0);
    }

    /// `backward` as one dense loop nest: every input of every layer at
    /// every step, the input gradient formed for every layer.
    fn dense_backward(net: &SnnNetwork, g: &[f32]) -> Vec<Vec<f32>> {
        let cache = &net.cache;
        let steps = cache.inputs.len();
        let classes = net.config.classes;
        let n_layers = net.layers.len();
        let last_hidden = net.layers[n_layers - 1].out_size();
        let rw = net.readout.value.as_slice();
        let mut rg = net.readout.grad.as_slice().to_vec();
        let mut ds_out = vec![vec![0.0f32; last_hidden]; steps];
        let mut scale = 1.0f32;
        for t in (0..steps).rev() {
            for c in 0..classes {
                let gc = g[c] * scale;
                if gc == 0.0 {
                    continue;
                }
                for i in 0..last_hidden {
                    rg[c * last_hidden + i] += gc * cache.spikes[n_layers - 1][t][i];
                    ds_out[t][i] += gc * rw[c * last_hidden + i];
                }
            }
            scale *= net.config.readout_leak;
        }
        let mut grads = vec![Vec::new(); n_layers];
        for li in (0..n_layers).rev() {
            let layer = &net.layers[li];
            let (in_size, out_size) = (layer.in_size(), layer.out_size());
            let w = layer.weight().value.as_slice();
            let mut wg = layer.weight().grad.as_slice().to_vec();
            let mut ds_in = vec![vec![0.0f32; in_size]; steps];
            let mut delta_next = vec![0.0f32; out_size];
            for t in (0..steps).rev() {
                let input = if li == 0 {
                    &cache.inputs[t]
                } else {
                    &cache.spikes[li - 1][t]
                };
                let mut delta = vec![0.0f32; out_size];
                for j in 0..out_size {
                    let sg = net
                        .config
                        .surrogate
                        .grad(cache.membranes[li][t][j] - net.config.lif.threshold);
                    delta[j] = sg * ds_out[t][j] + layer.config().leak * delta_next[j];
                }
                for (j, &dj) in delta.iter().enumerate() {
                    if dj == 0.0 {
                        continue;
                    }
                    for (i, &xi) in input.iter().enumerate() {
                        if xi != 0.0 {
                            wg[j * in_size + i] += dj * xi;
                        }
                        ds_in[t][i] += dj * w[j * in_size + i];
                    }
                }
                delta_next = delta;
            }
            grads[li] = wg;
            ds_out = ds_in;
        }
        grads.push(rg);
        grads
    }

    #[test]
    fn backward_matches_a_dense_reference_bit_for_bit() {
        let mut rng = Rng64::seed_from_u64(6);
        let mut config = SnnConfig::new(40, 3).with_hidden(vec![12, 7]);
        config.lif.threshold = 0.3;
        let mut net = SnnNetwork::new(config, &mut rng);
        // Nonzero starting gradients: accumulation order shows in the bits.
        for p in net.params_mut() {
            for v in p.grad.as_mut_slice() {
                *v = rng.next_f32() - 0.5;
            }
        }
        let mut ops = OpCount::new();
        for sample in 0..4 {
            let mut train = SpikeTrain::new(40, 15);
            for t in 0..15 {
                for _ in 0..rng.next_index(5) {
                    train.push(t, rng.next_index(40) as u32);
                }
            }
            let logits = net.forward(&train, &mut ops);
            let (_, grad) = cross_entropy(&logits, sample % 3);
            let want = dense_backward(&net, grad.as_slice());
            net.backward(&grad, &mut ops);
            let got: Vec<Vec<f32>> = net
                .params_mut()
                .iter()
                .map(|p| p.grad.as_slice().to_vec())
                .collect();
            assert_eq!(got.len(), want.len());
            for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(a), bits(b), "param {k} gradient, sample {sample}");
            }
        }
        assert!(
            net.last_spike_counts()[1] > 0,
            "the second layer must spike"
        );
    }

    #[test]
    fn param_and_state_counts() {
        let mut rng = Rng64::seed_from_u64(5);
        let net = SnnNetwork::new(
            SnnConfig::new(10, 3).with_hidden(vec![7, 5]),
            &mut rng,
        );
        assert_eq!(net.param_count(), 10 * 7 + 7 * 5 + 5 * 3);
        assert_eq!(net.state_count(), 7 + 5 + 3);
    }
}
