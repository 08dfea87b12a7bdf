//! Fully event-driven SNN simulation (paper §III-A, [Stuijt et al. µBrain]).
//!
//! Digital neuromorphic processors usually update neuron state with a
//! clocked process; fully event-based state updates avoid the clock but
//! "generally require more memory accesses [and] higher complexity
//! calculations" ([42], [44]). This module implements the event-driven
//! policy — decay-on-demand with per-neuron last-update timestamps — over
//! the *same weights* as a clocked [`SnnNetwork`], so both the functional
//! agreement and the memory-traffic crossover can be measured.
//!
//! # Layout
//!
//! Every layer here is dense: an input spike reaches every neuron of the
//! layer it enters, and each of them decays to the spike's step, adds its
//! weight and is thresholded. So all last-update steps within a layer are
//! always equal (and so are the readout's), and the engine keeps one step
//! per layer and one for the readout instead of one per neuron. A spike
//! then costs one pass over the layer's membranes with a single
//! `leak.powi(elapsed)`: each neuron does `v *= d`, `v += w_spike · w`
//! and the threshold test, exactly the arithmetic of a per-neuron
//! timestamp, so every membrane keeps its bits. Weights are stored
//! `[in][out]`, so input `i`'s fan-out is one contiguous slice. Each
//! layer's fired-neuron list and the spike-count buffer are reused, so an
//! injection allocates nothing, and it runs on the caller's thread.
//!
//! The shared step is a shortcut that dense layers allow; it does not
//! change the policy being modelled. [`OpCount`] still charges what a
//! decay-on-demand core with per-neuron timestamps ([44]) pays: per neuron
//! a decay multiply with its membrane and timestamp reads and writes
//! (when time has passed), a weight fetch, an add and a compare. Those
//! counts are what `claims` CL-B and `evlab-hw` price. Snapshots keep the
//! per-neuron layout too: [`EventDrivenSnn::save_state`] writes each
//! layer's step once per neuron, and [`EventDrivenSnn::load_state`]
//! rejects a layer whose steps differ, a state the engine cannot produce.

use crate::encode::SpikeTrain;
use crate::network::SnnNetwork;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::frame::{Decoder, Encoder, FrameError};
use evlab_util::obs;

#[derive(Debug, Clone)]
struct EdLayer {
    /// `[in, out]` row-major: input `i`'s fan-out is
    /// `weight[i * out_size..(i + 1) * out_size]`.
    weight: Vec<f32>,
    in_size: usize,
    out_size: usize,
    leak: f32,
    threshold: f32,
    v: Vec<f32>,
    /// Last-update step of every neuron of the layer (they are all equal).
    step: u64,
    /// Neurons fired by the injection in progress; reused across spikes.
    fired: Vec<usize>,
}

impl EdLayer {
    /// Decays every membrane to step `t`, adds input `input_idx`'s weights
    /// scaled by `weight_of_spike`, and thresholds in ascending neuron
    /// order, leaving the neurons that fired in `self.fired`. Returns
    /// whether the membranes were decayed (time had passed since the last
    /// update).
    fn integrate(&mut self, input_idx: usize, weight_of_spike: f32, t: u64) -> bool {
        let elapsed = t.saturating_sub(self.step);
        self.step = t;
        self.fired.clear();
        let column = &self.weight[input_idx * self.out_size..(input_idx + 1) * self.out_size];
        let threshold = self.threshold;
        let decay = (elapsed > 0).then(|| self.leak.powi(elapsed as i32));
        for (j, (v, &w)) in self.v.iter_mut().zip(column).enumerate() {
            if let Some(d) = decay {
                *v *= d;
            }
            *v += weight_of_spike * w;
            if *v >= threshold {
                *v -= threshold;
                self.fired.push(j);
            }
        }
        decay.is_some()
    }
}

/// Writes `n` copies of `step` in the layout of [`Encoder::put_u64_slice`].
fn put_steps(enc: &mut Encoder, step: u64, n: usize) {
    enc.put_u64(n as u64);
    for _ in 0..n {
        enc.put_u64(step);
    }
}

/// Reads a per-neuron step slice of width `n` and returns its common value
/// (0 for an empty slice).
fn take_steps(dec: &mut Decoder, n: usize, what: &str) -> Result<u64, FrameError> {
    let steps = dec.take_u64_vec()?;
    if steps.len() != n {
        return Err(dec.corrupt(format!(
            "{what} has {} step entries for {n} neurons",
            steps.len()
        )));
    }
    let step = steps.first().copied().unwrap_or(0);
    if steps.iter().any(|&s| s != step) {
        return Err(dec.corrupt(format!(
            "{what} steps differ between neurons, which a dense layer cannot reach"
        )));
    }
    Ok(step)
}

/// Result of an event-driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDrivenResult {
    /// Readout membrane potentials at the final step (class logits).
    pub logits: Tensor,
    /// Total spikes emitted per hidden layer.
    pub spike_counts: Vec<usize>,
}

/// Event-driven execution engine sharing weights with a clocked network.
#[derive(Debug, Clone)]
pub struct EventDrivenSnn {
    layers: Vec<EdLayer>,
    /// `[last_hidden, classes]` row-major: hidden neuron `i`'s fan-out is
    /// one contiguous slice of `classes` weights.
    readout_w: Vec<f32>,
    readout_leak: f32,
    classes: usize,
    readout_v: Vec<f32>,
    /// Last-update step of every readout class (they are all equal).
    readout_step: u64,
    /// Per-hidden-layer spike counts of the injection in progress; reused.
    spike_counts: Vec<usize>,
}

impl EventDrivenSnn {
    /// Builds the engine from a clocked network's weights and neuron
    /// parameters.
    pub fn from_network(net: &SnnNetwork) -> Self {
        let layers: Vec<EdLayer> = net
            .layers()
            .iter()
            .map(|l| EdLayer {
                weight: l.weight().value.transposed().into_vec(),
                in_size: l.in_size(),
                out_size: l.out_size(),
                leak: l.config().leak,
                threshold: l.config().threshold,
                v: vec![0.0; l.out_size()],
                step: 0,
                fired: Vec::with_capacity(l.out_size()),
            })
            .collect();
        let classes = net.config().classes;
        EventDrivenSnn {
            readout_w: net.readout_weight().transposed().into_vec(),
            readout_leak: net.config().readout_leak,
            classes,
            readout_v: vec![0.0; classes],
            readout_step: 0,
            spike_counts: vec![0; layers.len()],
            layers,
        }
    }

    /// Resets all membranes and timestamps.
    pub fn reset(&mut self) {
        for l in &mut self.layers {
            l.v.iter_mut().for_each(|v| *v = 0.0);
            l.step = 0;
        }
        self.readout_v.iter_mut().for_each(|v| *v = 0.0);
        self.readout_step = 0;
    }

    /// Injects one spike from input (or hidden neuron) `input_idx` into
    /// layer `layer_idx` at step `t`, recursing into the next layer for
    /// every neuron it fires, and adds the spikes to `self.spike_counts`.
    fn inject(
        &mut self,
        layer_idx: usize,
        input_idx: usize,
        weight_of_spike: f32,
        t: u64,
        ops: &mut OpCount,
    ) {
        if layer_idx == self.layers.len() {
            self.integrate_readout(input_idx, weight_of_spike, t, ops);
            return;
        }
        let layer = &mut self.layers[layer_idx];
        let out_size = layer.out_size as u64;
        let decays = if layer.integrate(input_idx, weight_of_spike, t) {
            out_size
        } else {
            0
        };
        // Taken out (and put back below) so the recursion into the next
        // layer can borrow the engine.
        let fired = std::mem::take(&mut layer.fired);
        // Decay-on-demand with per-neuron timestamps: each decay is one LUT
        // multiply plus state+timestamp read/rewrite; each neuron pays one
        // weight fetch, one add and one compare.
        ops.record_mult(decays);
        ops.record_read(2 * decays + out_size);
        ops.record_write(2 * decays);
        ops.record_add(out_size);
        ops.record_compare(out_size);
        if obs::enabled() {
            obs::counter_add("snn.event_driven.injections", 1);
            obs::counter_add("snn.event_driven.membrane_updates", out_size);
            obs::counter_add("snn.event_driven.decays", decays);
            obs::counter_add("snn.event_driven.spikes", fired.len() as u64);
        }
        self.spike_counts[layer_idx] += fired.len();
        for &j in &fired {
            self.inject(layer_idx + 1, j, 1.0, t, ops);
        }
        self.layers[layer_idx].fired = fired;
    }

    /// The non-spiking readout integrator: decay every class to step `t`,
    /// then add hidden neuron `input_idx`'s readout weights.
    fn integrate_readout(
        &mut self,
        input_idx: usize,
        weight_of_spike: f32,
        t: u64,
        ops: &mut OpCount,
    ) {
        let classes = self.classes as u64;
        let elapsed = t.saturating_sub(self.readout_step);
        self.readout_step = t;
        if elapsed > 0 {
            let d = self.readout_leak.powi(elapsed as i32);
            self.readout_v.iter_mut().for_each(|v| *v *= d);
            ops.record_mult(classes);
            ops.record_read(2 * classes);
            ops.record_write(2 * classes);
        }
        let row = &self.readout_w[input_idx * self.classes..(input_idx + 1) * self.classes];
        for (v, &w) in self.readout_v.iter_mut().zip(row) {
            *v += weight_of_spike * w;
        }
        ops.record_add(classes);
        ops.record_read(classes); // weight fetch
    }

    /// Serializes the session-mutable state — membrane potentials and
    /// last-update steps, hidden layers and readout — as exact IEEE bit
    /// patterns, one step per neuron (the decay-on-demand layout; all of a
    /// layer's entries are equal). Weights and neuron parameters are
    /// construction inputs ([`EventDrivenSnn::from_network`]) and are not
    /// recorded; the recovery path rebuilds the engine from the same
    /// trained network before calling [`EventDrivenSnn::load_state`].
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.layers.len() as u64);
        for l in &self.layers {
            enc.put_f32_slice(&l.v);
            put_steps(enc, l.step, l.out_size);
        }
        enc.put_f32_slice(&self.readout_v);
        put_steps(enc, self.readout_step, self.classes);
    }

    /// Restores state written by [`EventDrivenSnn::save_state`] into an
    /// identically-constructed engine, bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] if the payload is truncated, its shapes
    /// (layer count, per-layer width, class count) do not match this
    /// engine, or a layer's (or the readout's) per-neuron steps are not
    /// all equal; the engine is left untouched then.
    pub fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        let n = dec.take_u64()? as usize;
        if n != self.layers.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {n} layers, engine has {}",
                self.layers.len()
            )));
        }
        let mut layer_state = Vec::with_capacity(n);
        for l in &self.layers {
            let v = dec.take_f32_vec()?;
            if v.len() != l.out_size {
                return Err(dec.corrupt(format!(
                    "layer state width {} != {} neurons",
                    v.len(),
                    l.out_size
                )));
            }
            let step = take_steps(dec, l.out_size, "layer")?;
            layer_state.push((v, step));
        }
        let readout_v = dec.take_f32_vec()?;
        if readout_v.len() != self.classes {
            return Err(dec.corrupt(format!(
                "readout state width {} != {} classes",
                readout_v.len(),
                self.classes
            )));
        }
        let readout_step = take_steps(dec, self.classes, "readout")?;
        for (l, (v, step)) in self.layers.iter_mut().zip(layer_state) {
            l.v = v;
            l.step = step;
        }
        self.readout_v = readout_v;
        self.readout_step = readout_step;
        Ok(())
    }

    /// Input dimensionality expected by [`EventDrivenSnn::inject_input`].
    pub fn input_size(&self) -> usize {
        self.layers.first().map(|l| l.in_size).unwrap_or(0)
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Injects a single input spike at `input_idx` at (1-based) step `step`,
    /// propagating any resulting hidden spikes through the network, and
    /// returns the number of hidden spikes emitted. This is the streaming
    /// entry point: a serving session maps each arriving event to an input
    /// index and step and calls this without materialising a
    /// [`SpikeTrain`]. Steps must be non-decreasing between calls; call
    /// [`EventDrivenSnn::reset`] to start a new decision window. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `input_idx` is out of range for the input layer.
    pub fn inject_input(&mut self, input_idx: usize, step: u64, ops: &mut OpCount) -> usize {
        assert!(
            input_idx < self.input_size(),
            "input index {input_idx} out of range for {} inputs",
            self.input_size()
        );
        self.spike_counts.fill(0);
        self.inject(0, input_idx, 1.0, step, ops);
        self.spike_counts.iter().sum()
    }

    /// Readout membrane potentials decayed to (1-based) step `step`,
    /// without mutating state — the streaming analogue of the final decay
    /// in [`EventDrivenSnn::process`], usable mid-window.
    pub fn logits_at(&self, step: u64) -> Vec<f32> {
        let elapsed = step.saturating_sub(self.readout_step);
        if elapsed > 0 {
            let d = self.readout_leak.powi(elapsed as i32);
            self.readout_v.iter().map(|&v| v * d).collect()
        } else {
            self.readout_v.clone()
        }
    }

    /// Processes a spike train event by event and returns the final logits.
    ///
    /// Events inside one timestep are injected sequentially without decay
    /// between them, matching the clocked semantics of [`SnnNetwork`].
    pub fn process(&mut self, train: &SpikeTrain, ops: &mut OpCount) -> EventDrivenResult {
        self.reset();
        self.spike_counts.fill(0);
        let steps = train.num_steps() as u64;
        for t in 0..train.num_steps() {
            // Decay semantics: the clocked network decays at the *start* of
            // each step, so events at step t see state decayed to t + 1
            // conceptually; we decay to t + 1 before injecting.
            for &i in train.at(t) {
                self.inject(0, i as usize, 1.0, t as u64 + 1, ops);
            }
        }
        // Final decay of the readout to the end of the window.
        let elapsed = steps.saturating_sub(self.readout_step);
        if elapsed > 0 {
            let d = self.readout_leak.powi(elapsed as i32);
            self.readout_v.iter_mut().for_each(|v| *v *= d);
            ops.record_mult(self.classes as u64);
        }
        EventDrivenResult {
            logits: Tensor::from_vec(&[self.classes], self.readout_v.clone()).expect("logit shape"),
            spike_counts: self.spike_counts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SnnConfig;
    use evlab_util::Rng64;

    /// A random-init net whose low threshold makes spikes cascade.
    fn cascading_net(
        input: usize,
        hidden: Vec<usize>,
        classes: usize,
        rng: &mut Rng64,
    ) -> SnnNetwork {
        let mut config = SnnConfig::new(input, classes).with_hidden(hidden);
        config.lif.threshold = 0.15;
        SnnNetwork::new(config, rng)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn state_bytes(ed: &EventDrivenSnn) -> Vec<u8> {
        let mut enc = Encoder::new();
        ed.save_state(&mut enc);
        enc.into_bytes()
    }

    /// Decay-on-demand as the policy states it: one last-update step and
    /// one `powi` per neuron, weights read `[out][in]` from the clocked
    /// network, and the op counts charged neuron by neuron.
    struct PerNeuron {
        weights: Vec<Vec<f32>>,
        config: Vec<(usize, f32, f32)>,
        v: Vec<Vec<f32>>,
        last: Vec<Vec<u64>>,
        readout_w: Vec<f32>,
        readout_leak: f32,
        rv: Vec<f32>,
        rlast: Vec<u64>,
    }

    impl PerNeuron {
        fn new(net: &SnnNetwork) -> Self {
            let layers = net.layers();
            let classes = net.config().classes;
            PerNeuron {
                weights: layers
                    .iter()
                    .map(|l| l.weight().value.as_slice().to_vec())
                    .collect(),
                config: layers
                    .iter()
                    .map(|l| (l.in_size(), l.config().leak, l.config().threshold))
                    .collect(),
                v: layers.iter().map(|l| vec![0.0; l.out_size()]).collect(),
                last: layers.iter().map(|l| vec![0; l.out_size()]).collect(),
                readout_w: net.readout_weight().as_slice().to_vec(),
                readout_leak: net.config().readout_leak,
                rv: vec![0.0; classes],
                rlast: vec![0; classes],
            }
        }

        fn reset(&mut self) {
            self.v.iter_mut().flatten().for_each(|v| *v = 0.0);
            self.last.iter_mut().flatten().for_each(|t| *t = 0);
            self.rv.iter_mut().for_each(|v| *v = 0.0);
            self.rlast.iter_mut().for_each(|t| *t = 0);
        }

        fn inject(&mut self, l: usize, i: usize, t: u64, ops: &mut OpCount) -> usize {
            if l == self.v.len() {
                let hidden = self.v[l - 1].len();
                for c in 0..self.rv.len() {
                    let elapsed = t.saturating_sub(self.rlast[c]);
                    if elapsed > 0 {
                        self.rv[c] *= self.readout_leak.powi(elapsed as i32);
                        ops.record_mult(1);
                        ops.record_read(2);
                        ops.record_write(2);
                    }
                    self.rlast[c] = t;
                    self.rv[c] += 1.0 * self.readout_w[c * hidden + i];
                    ops.record_add(1);
                    ops.record_read(1);
                }
                return 0;
            }
            let (in_size, leak, threshold) = self.config[l];
            let mut fired = Vec::new();
            for j in 0..self.v[l].len() {
                let elapsed = t.saturating_sub(self.last[l][j]);
                if elapsed > 0 {
                    self.v[l][j] *= leak.powi(elapsed as i32);
                    ops.record_mult(1);
                    ops.record_read(2);
                    ops.record_write(2);
                }
                self.last[l][j] = t;
                self.v[l][j] += 1.0 * self.weights[l][j * in_size + i];
                ops.record_add(1);
                ops.record_read(1);
                ops.record_compare(1);
                if self.v[l][j] >= threshold {
                    self.v[l][j] -= threshold;
                    fired.push(j);
                }
            }
            let mut spikes = fired.len();
            for j in fired {
                spikes += self.inject(l + 1, j, t, ops);
            }
            spikes
        }

        fn logits_at(&self, t: u64) -> Vec<f32> {
            self.rv
                .iter()
                .zip(&self.rlast)
                .map(|(&v, &last)| match t.saturating_sub(last) {
                    0 => v,
                    elapsed => v * self.readout_leak.powi(elapsed as i32),
                })
                .collect()
        }
    }

    fn dense_train(input: usize, steps: usize, per_step: usize, rng: &mut Rng64) -> SpikeTrain {
        let mut t = SpikeTrain::new(input, steps);
        for s in 0..steps {
            for _ in 0..per_step {
                t.push(s, rng.next_index(input) as u32);
            }
        }
        t
    }

    #[test]
    fn agrees_with_clocked_network() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut net = SnnNetwork::new(SnnConfig::new(12, 3).with_hidden(vec![10]), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut ops = OpCount::new();
        // The two schedulers differ in one documented way: the clocked
        // network thresholds once per step (at most one spike per neuron
        // per step), while the event-driven engine thresholds after every
        // injection and may fire several times inside a step. Counts must
        // therefore agree within a factor, with event-driven >= clocked,
        // and the class predictions should normally agree.
        let mut agree = 0usize;
        for seed in 0..5u64 {
            let mut trng = Rng64::seed_from_u64(seed);
            let train = dense_train(12, 15, 3, &mut trng);
            let clocked = net.forward(&train, &mut ops);
            let event = ed.process(&train, &mut ops);
            let clocked_spikes: usize = net.last_spike_counts().iter().sum();
            let event_spikes: usize = event.spike_counts.iter().sum();
            assert!(
                event_spikes + 2 >= clocked_spikes,
                "event-driven cannot fire fewer: clocked {clocked_spikes}, event {event_spikes}"
            );
            assert!(
                event_spikes <= 3 * clocked_spikes + 5,
                "spike counts diverge: clocked {clocked_spikes}, event {event_spikes}"
            );
            if clocked.argmax() == event.logits.argmax() {
                agree += 1;
            }
        }
        assert!(agree >= 3, "predictions agree on {agree}/5 runs");
    }

    #[test]
    fn quiet_input_costs_nothing_event_driven() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut net = SnnNetwork::new(SnnConfig::new(16, 2), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let quiet = SpikeTrain::new(16, 50);
        let mut ops_ed = OpCount::new();
        ed.process(&quiet, &mut ops_ed);
        let mut ops_clocked = OpCount::new();
        net.forward(&quiet, &mut ops_clocked);
        // Event-driven: zero synaptic work on silence. Clocked: decay
        // multiplies every neuron every step regardless.
        assert_eq!(ops_ed.adds, 0);
        assert!(ops_clocked.mults >= 50 * 64, "clocked pays the clock");
    }

    #[test]
    fn busy_input_costs_more_memory_traffic_event_driven() {
        // The [42]/[44] claim: at high activity, per-event decay-on-demand
        // touches timestamps and state repeatedly and loses to the clocked
        // scan.
        let mut rng = Rng64::seed_from_u64(3);
        let mut net = SnnNetwork::new(SnnConfig::new(16, 2).with_hidden(vec![16]), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut trng = Rng64::seed_from_u64(4);
        let busy = dense_train(16, 20, 12, &mut trng);
        let mut ops_ed = OpCount::new();
        ed.process(&busy, &mut ops_ed);
        let mut ops_clocked = OpCount::new();
        net.forward(&busy, &mut ops_clocked);
        assert!(
            ops_ed.mem_accesses() > ops_clocked.mem_accesses(),
            "event-driven {} vs clocked {}",
            ops_ed.mem_accesses(),
            ops_clocked.mem_accesses()
        );
    }

    #[test]
    fn streaming_injection_matches_process() {
        let mut rng = Rng64::seed_from_u64(6);
        let net = SnnNetwork::new(SnnConfig::new(12, 3).with_hidden(vec![10]), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut trng = Rng64::seed_from_u64(7);
        let train = dense_train(12, 15, 3, &mut trng);
        let mut ops = OpCount::new();
        let batch = ed.process(&train, &mut ops);
        // Streaming replay: same injections, one at a time.
        ed.reset();
        let mut spikes = 0usize;
        for t in 0..train.num_steps() {
            for &i in train.at(t) {
                spikes += ed.inject_input(i as usize, t as u64 + 1, &mut ops);
            }
        }
        let logits = ed.logits_at(train.num_steps() as u64);
        assert_eq!(spikes, batch.spike_counts.iter().sum::<usize>());
        for (a, b) in batch.logits.as_slice().iter().zip(&logits) {
            assert!((a - b).abs() < 1e-6, "batch {a} vs streaming {b}");
        }
    }

    #[test]
    fn inject_input_rejects_out_of_range_index() {
        let mut rng = Rng64::seed_from_u64(8);
        let net = SnnNetwork::new(SnnConfig::new(4, 2), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        assert_eq!(ed.input_size(), 4);
        assert_eq!(ed.classes(), 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ed.inject_input(4, 1, &mut OpCount::new())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn state_round_trip_resumes_bit_identically() {
        let mut rng = Rng64::seed_from_u64(9);
        let net = cascading_net(12, vec![10, 6], 3, &mut rng);
        let mut oracle = EventDrivenSnn::from_network(&net);
        let mut trng = Rng64::seed_from_u64(10);
        let train = dense_train(12, 20, 3, &mut trng);
        let (mut ops_oracle, mut ops_restored) = (OpCount::new(), OpCount::new());
        // Run the oracle halfway, snapshot, restore into a fresh engine
        // built from the same network, then continue both in lockstep
        // (through a window reset) and compare everything they report.
        for t in 0..10 {
            for &i in train.at(t) {
                oracle.inject_input(i as usize, t as u64 + 1, &mut ops_oracle);
            }
        }
        let mut enc = Encoder::new();
        oracle.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = EventDrivenSnn::from_network(&net);
        restored
            .load_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        for t in 10..20 {
            if t == 15 {
                oracle.reset();
                restored.reset();
            }
            for &i in train.at(t) {
                let step = t as u64 + 1;
                let a = oracle.inject_input(i as usize, step, &mut ops_oracle);
                let b = restored.inject_input(i as usize, step, &mut ops_restored);
                assert_eq!(a, b, "spike counts diverge at step {step}");
                assert_eq!(
                    bits(&oracle.logits_at(step + 2)),
                    bits(&restored.logits_at(step + 2)),
                    "logits must be bit-identical"
                );
            }
        }
        assert_eq!(state_bytes(&oracle), state_bytes(&restored));
        let mut ops_tail = OpCount::new();
        let mut rerun = EventDrivenSnn::from_network(&net);
        rerun
            .load_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        for t in 10..20 {
            if t == 15 {
                rerun.reset();
            }
            for &i in train.at(t) {
                rerun.inject_input(i as usize, t as u64 + 1, &mut ops_tail);
            }
        }
        assert_eq!(
            ops_tail, ops_restored,
            "op counts of the resumed half differ"
        );
    }

    #[test]
    fn load_state_rejects_a_layer_whose_neuron_steps_differ() {
        let mut rng = Rng64::seed_from_u64(12);
        let net = cascading_net(12, vec![10, 6], 3, &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut ops = OpCount::new();
        for (k, i) in [3usize, 7, 1, 9, 4].into_iter().enumerate() {
            ed.inject_input(i, 2 + k as u64, &mut ops);
        }
        let snapshot = state_bytes(&ed);
        let mut target = EventDrivenSnn::from_network(&net);
        target.inject_input(5, 4, &mut ops);
        let before = state_bytes(&target);
        // Every layer's (and the readout's) step slice, as `save_state`
        // lays it out: layer count, then per layer membranes and steps.
        let mut offsets = Vec::new();
        let mut at = 8;
        for width in [10usize, 6, 3] {
            at += 8 + 4 * width; // membranes
            offsets.push((at + 8, width)); // first step entry
            at += 8 + 8 * width;
        }
        assert_eq!(at, snapshot.len());
        for (first, width) in offsets {
            for neuron in [0, width - 1] {
                let mut damaged = snapshot.clone();
                let entry = first + 8 * neuron;
                damaged[entry] ^= 1;
                let err = target
                    .load_state(&mut Decoder::new(&damaged))
                    .expect_err("a layer whose steps differ cannot be restored");
                assert!(matches!(err, FrameError::Corrupt { .. }), "{err:?}");
                assert_eq!(
                    state_bytes(&target),
                    before,
                    "failed load left the engine changed"
                );
            }
        }
        target
            .load_state(&mut Decoder::new(&snapshot))
            .expect("the undamaged snapshot loads");
        assert_eq!(state_bytes(&target), snapshot);
    }

    #[test]
    fn same_step_and_long_gap_spikes_match_per_neuron_arithmetic() {
        let mut rng = Rng64::seed_from_u64(13);
        let net = cascading_net(16, vec![9, 5], 3, &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut reference = PerNeuron::new(&net);
        let (mut ops, mut ref_ops) = (OpCount::new(), OpCount::new());
        let mut total_spikes = 0;
        // Elapsed 0 (same step), 1, a gap of 20 and one of 37 steps, then
        // a reset and a spike at step 1 again.
        let schedule = [
            (2usize, 3u64),
            (11, 3),
            (5, 3),
            (2, 4),
            (7, 24),
            (7, 24),
            (0, 61),
        ];
        for (round, &(i, t)) in schedule.iter().chain(&[(4, 1), (4, 1)]).enumerate() {
            if round == schedule.len() {
                ed.reset();
                reference.reset();
            }
            let spikes = ed.inject_input(i, t, &mut ops);
            assert_eq!(
                spikes,
                reference.inject(0, i, t, &mut ref_ops),
                "round {round}"
            );
            total_spikes += spikes;
            for (l, layer) in ed.layers.iter().enumerate() {
                assert_eq!(
                    bits(&layer.v),
                    bits(&reference.v[l]),
                    "layer {l}, round {round}"
                );
                assert!(reference.last[l].iter().all(|&s| s == layer.step));
            }
            assert_eq!(
                bits(&ed.readout_v),
                bits(&reference.rv),
                "readout, round {round}"
            );
            for k in [0, 1, 17] {
                assert_eq!(
                    bits(&ed.logits_at(t + k)),
                    bits(&reference.logits_at(t + k))
                );
            }
        }
        assert_eq!(ops, ref_ops);
        assert!(total_spikes > 0, "the net must cascade");
    }

    #[test]
    fn load_state_rejects_shape_mismatch() {
        let mut rng = Rng64::seed_from_u64(11);
        let net = SnnNetwork::new(SnnConfig::new(12, 3).with_hidden(vec![10]), &mut rng);
        let ed = EventDrivenSnn::from_network(&net);
        let mut enc = Encoder::new();
        ed.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let other_net = SnnNetwork::new(SnnConfig::new(12, 3).with_hidden(vec![8]), &mut rng);
        let mut other = EventDrivenSnn::from_network(&other_net);
        assert!(other.load_state(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let mut rng = Rng64::seed_from_u64(5);
        let net = SnnNetwork::new(SnnConfig::new(4, 2), &mut rng);
        let mut ed = EventDrivenSnn::from_network(&net);
        let mut train = SpikeTrain::new(4, 3);
        train.push(0, 0);
        let mut ops = OpCount::new();
        let a = ed.process(&train, &mut ops);
        let b = ed.process(&train, &mut ops);
        assert_eq!(a, b, "process resets internally");
    }
}
