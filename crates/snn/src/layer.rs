//! A fully-connected layer of LIF neurons, simulated with a clocked
//! timestep.
//!
//! The weighted-sum update is *event-driven*: only the synapses of input
//! neurons that spiked this step are accessed, and each such access is an
//! addition, not a multiplication — the cost structure §III-A attributes to
//! SNN hardware. The membrane decay, by contrast, is a clocked per-neuron
//! multiply every timestep, which is exactly why clocked neuromorphic cores
//! do not fully exploit sparsity (§III-A, [42]).

use crate::neuron::LifConfig;
use evlab_tensor::init::he_normal;
use evlab_tensor::layer::Param;
use evlab_tensor::OpCount;
use evlab_util::{obs, par, Rng64};

/// Minimum `out_size x (active inputs + 1)` work before [`LifLayer::step`]
/// fans out across threads; below this the dispatch overhead dominates.
const PAR_WORK_THRESHOLD: usize = 50_000;

/// State and cache of one clocked step of a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStep {
    /// Membrane potentials after integration, before reset (the surrogate's
    /// argument is `membrane − θ`).
    pub membrane: Vec<f32>,
    /// Binary spikes emitted this step.
    pub spikes: Vec<f32>,
}

/// A fully-connected LIF layer.
#[derive(Debug, Clone)]
pub struct LifLayer {
    weight: Param, // [out, in]
    config: LifConfig,
    in_size: usize,
    out_size: usize,
    v: Vec<f32>,
    refractory_left: Vec<u32>,
    /// Reused gather buffer of `(index, value)` spiking inputs, so the
    /// steady-state [`LifLayer::step_into`] path allocates nothing.
    active_buf: Vec<(usize, f32)>,
}

impl LifLayer {
    /// Creates a layer with He-initialized weights scaled for spiking
    /// activity.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(in_size: usize, out_size: usize, config: LifConfig, rng: &mut Rng64) -> Self {
        assert!(in_size > 0 && out_size > 0, "zero-sized layer");
        let mut weight = he_normal(&[out_size, in_size], in_size, rng);
        // Gain so that a handful of coincident spikes can reach threshold.
        weight.scale_assign(2.0);
        LifLayer {
            weight: Param::new(weight),
            config,
            in_size,
            out_size,
            v: vec![0.0; out_size],
            refractory_left: vec![0; out_size],
            active_buf: Vec::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_size(&self) -> usize {
        self.in_size
    }

    /// Output dimensionality.
    pub fn out_size(&self) -> usize {
        self.out_size
    }

    /// The LIF configuration.
    pub fn config(&self) -> &LifConfig {
        &self.config
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Resets all membranes to rest.
    pub fn reset(&mut self) {
        self.v.iter_mut().for_each(|v| *v = 0.0);
        self.refractory_left.iter_mut().for_each(|r| *r = 0);
    }

    /// Advances one clocked timestep given the dense input spike vector.
    ///
    /// Cost model: one decay multiply + one threshold compare per neuron per
    /// step (clocked), plus one add per synapse of each *spiking* input
    /// (event-driven).
    ///
    /// Refractory semantics: a refractory neuron keeps integrating (its
    /// membrane evolves) but cannot fire — the usual discrete-simulator
    /// convention; the analog [`crate::neuron::LifNeuron`] instead clamps
    /// its input during the dead time.
    ///
    /// # Panics
    ///
    /// Panics if `input_spikes.len() != in_size`.
    pub fn step(&mut self, input_spikes: &[f32], ops: &mut OpCount) -> LayerStep {
        let mut step = LayerStep {
            membrane: Vec::new(),
            spikes: Vec::new(),
        };
        self.step_into(input_spikes, &mut step, ops);
        step
    }

    /// Allocation-free variant of [`LifLayer::step`]: writes the result
    /// into a caller-owned `step`, resizing its vectors to `out_size`.
    /// Reusing the same `LayerStep` across timesteps makes the steady
    /// state allocation-free; the arithmetic is identical to `step`.
    ///
    /// # Panics
    ///
    /// Panics if `input_spikes.len() != in_size`.
    pub fn step_into(&mut self, input_spikes: &[f32], step: &mut LayerStep, ops: &mut OpCount) {
        assert_eq!(input_spikes.len(), self.in_size, "input size mismatch");
        let w = self.weight.value.as_slice();
        let leak = self.config.leak;
        let threshold = self.config.threshold;
        let refractory_steps = self.config.refractory_steps;
        let in_size = self.in_size;
        // Event-driven: gather the spiking inputs once (into the reused
        // buffer); every output neuron then integrates them in the same
        // ascending-index order, so the per-neuron arithmetic is
        // identical under any chunking.
        let mut active = std::mem::take(&mut self.active_buf);
        active.clear();
        active.extend(
            input_spikes
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s != 0.0)
                .map(|(i, &s)| (i, s)),
        );
        // Membrane is written for every neuron; spikes only where a neuron
        // fires, so the reused buffer must start zeroed.
        step.membrane.clear();
        step.membrane.resize(self.out_size, 0.0);
        step.spikes.clear();
        step.spikes.resize(self.out_size, 0.0);
        let membrane = &mut step.membrane;
        let spikes = &mut step.spikes;

        // Full clocked update of one output neuron: decay, integrate,
        // record membrane, threshold with subtraction reset + refractory.
        let neuron = |j: usize, v: &mut f32, refr: &mut u32, memb: &mut f32, spk: &mut f32| {
            *v *= leak;
            for &(i, s) in &active {
                *v += s * w[j * in_size + i];
            }
            *memb = *v;
            if *refr > 0 {
                *refr -= 1;
            } else if *v >= threshold {
                *spk = 1.0;
                *v -= threshold;
                *refr = refractory_steps;
            }
        };

        // Output neurons are independent; fan out over the neuron
        // dimension only when the synaptic work amortizes the dispatch.
        let work = self.out_size * (active.len() + 1);
        let threads = par::threads();
        if threads <= 1 || work < PAR_WORK_THRESHOLD {
            for (j, v) in self.v.iter_mut().enumerate() {
                neuron(
                    j,
                    v,
                    &mut self.refractory_left[j],
                    &mut membrane[j],
                    &mut spikes[j],
                );
            }
        } else {
            let ranges =
                par::chunk_ranges(self.out_size, par::chunk_count(self.out_size, 1, threads));
            let v_chunks = par::split_slices(&mut self.v, &ranges);
            let r_chunks = par::split_slices(&mut self.refractory_left, &ranges);
            let m_chunks = par::split_slices(membrane, &ranges);
            let s_chunks = par::split_slices(spikes, &ranges);
            let mut tasks: Vec<_> = ranges
                .iter()
                .zip(v_chunks)
                .zip(r_chunks)
                .zip(m_chunks)
                .zip(s_chunks)
                .map(|((((r, v), rf), m), s)| (r.start, v, rf, m, s))
                .collect();
            par::for_each_task(&mut tasks, |_, (start, v, rf, m, s)| {
                for k in 0..v.len() {
                    neuron(*start + k, &mut v[k], &mut rf[k], &mut m[k], &mut s[k]);
                }
            });
        }

        ops.record_mult(self.out_size as u64);
        ops.record_write(self.out_size as u64);
        ops.record_add(active.len() as u64 * self.out_size as u64);
        ops.record_compare(self.out_size as u64);
        if obs::enabled() {
            let fired = spikes.iter().filter(|&&s| s != 0.0).count() as u64;
            obs::counter_add("snn.layer.steps", 1);
            obs::counter_add("snn.layer.spikes", fired);
            obs::counter_add("snn.layer.membrane_updates", self.out_size as u64);
            obs::counter_add(
                "snn.layer.synaptic_adds",
                active.len() as u64 * self.out_size as u64,
            );
        }
        self.active_buf = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_with_identity(n: usize, gain: f32) -> LifLayer {
        let mut rng = Rng64::seed_from_u64(0);
        let mut layer = LifLayer::new(n, n, LifConfig::new(), &mut rng);
        let w = layer.weight_mut().value.as_mut_slice();
        w.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            w[i * n + i] = gain;
        }
        layer
    }

    #[test]
    fn strong_input_spikes_immediately() {
        let mut layer = layer_with_identity(3, 2.0);
        let mut ops = OpCount::new();
        let out = layer.step(&[1.0, 0.0, 0.0], &mut ops);
        assert_eq!(out.spikes, vec![1.0, 0.0, 0.0]);
        assert!((out.membrane[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn weak_input_accumulates_over_steps() {
        let mut layer = layer_with_identity(1, 0.4);
        let mut ops = OpCount::new();
        let mut fired_at = None;
        for t in 0..20 {
            if layer.step(&[1.0], &mut ops).spikes[0] > 0.0 {
                fired_at = Some(t);
                break;
            }
        }
        let t = fired_at.expect("integrates to threshold");
        assert!(t >= 2, "fired at {t}");
    }

    #[test]
    fn op_counts_reflect_input_sparsity() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut layer = LifLayer::new(100, 50, LifConfig::new(), &mut rng);
        let mut ops_quiet = OpCount::new();
        layer.step(&vec![0.0; 100], &mut ops_quiet);
        assert_eq!(ops_quiet.adds, 0, "no spikes, no synaptic work");
        assert_eq!(ops_quiet.mults, 50, "decay is clocked regardless");
        let mut input = vec![0.0; 100];
        input[3] = 1.0;
        input[40] = 1.0;
        let mut ops_active = OpCount::new();
        layer.step(&input, &mut ops_active);
        assert_eq!(ops_active.adds, 2 * 50);
    }

    #[test]
    fn subtraction_reset_in_layer() {
        let mut layer = layer_with_identity(1, 1.7);
        let mut ops = OpCount::new();
        let out = layer.step(&[1.0], &mut ops);
        assert_eq!(out.spikes[0], 1.0);
        // Internal state after reset is 0.7; next quiet step decays it.
        let next = layer.step(&[0.0], &mut ops);
        assert!((next.membrane[0] - 0.63).abs() < 1e-5);
    }

    #[test]
    fn refractory_suppresses_repeated_layer_firing() {
        let mut rng = Rng64::seed_from_u64(9);
        let mut layer = LifLayer::new(
            1,
            1,
            LifConfig::new().with_refractory(2),
            &mut rng,
        );
        layer.weight_mut().value.as_mut_slice()[0] = 2.0;
        let mut ops = OpCount::new();
        assert_eq!(layer.step(&[1.0], &mut ops).spikes[0], 1.0);
        // The next two steps are refractory even under strong drive.
        assert_eq!(layer.step(&[1.0], &mut ops).spikes[0], 0.0);
        assert_eq!(layer.step(&[1.0], &mut ops).spikes[0], 0.0);
        assert_eq!(layer.step(&[1.0], &mut ops).spikes[0], 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut layer = layer_with_identity(2, 0.5);
        let mut ops = OpCount::new();
        layer.step(&[1.0, 1.0], &mut ops);
        layer.reset();
        let out = layer.step(&[0.0, 0.0], &mut ops);
        assert_eq!(out.membrane, vec![0.0, 0.0]);
    }
}
