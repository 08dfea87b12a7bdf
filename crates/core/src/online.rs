//! Session-facing online classification: the streaming counterpart of
//! [`crate::pipeline::EventClassifier`].
//!
//! A batch classifier sees a whole recording at once; a *served* classifier
//! sees one event at a time and must decide as it goes. This module defines
//! the [`OnlineClassifier`] trait (begin a session, push events, poll for
//! decisions, flush) plus one native session per paradigm, each owning its
//! state so a serving runtime can move it onto a worker thread:
//!
//! * [`SnnOnline`] — per-event stepping through an
//!   [`evlab_snn::event_driven::EventDrivenSnn`]; a decision after every
//!   injected spike, windows rolling every `steps × dt_us`.
//! * [`CnnOnline`] — windowed micro-batching: events accumulate into a
//!   frame buffer and the CNN runs once per flush window (the per-frame
//!   cadence of §III-B).
//! * [`GnnOnline`] — per-event asynchronous graph updates via
//!   [`evlab_gnn::window::WindowedGnn`]: a true sliding window whose
//!   eviction policy bounds memory without ever rebuilding the graph, so
//!   the logit trajectory has no reset cliffs.
//!
//! Sessions are built uniformly through [`SessionBuilder`]: pick a
//! paradigm, share one [`OnlineConfig`], get a boxed
//! [`OnlineClassifier`]; the per-paradigm constructors underneath it are
//! `with_config`.
//!
//! Any existing batch [`EventClassifier`] is servable through the
//! [`Batched`] adapter, which buffers the session's events and classifies
//! on flush.

use crate::cnn_pipeline::{make_encoder, CnnPipeline, CnnPipelineConfig};
use crate::gnn_pipeline::GnnPipeline;
use crate::pipeline::EventClassifier;
use crate::snn_pipeline::SnnPipeline;
use evlab_cnn::encode::normalize;
use evlab_events::{Event, EventStream, Polarity};
use evlab_gnn::window::{WindowPolicy, WindowedGnn};
use evlab_snn::event_driven::EventDrivenSnn;
use evlab_tensor::{OpCount, Sequential};
use evlab_util::frame::{Decoder, Encoder, FrameError, StateSnapshot};
use evlab_util::EvlabError;

/// One classification emitted by an online session.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Predicted class index.
    pub class: usize,
    /// Class logits backing the prediction (empty when the underlying
    /// classifier only exposes the argmax, as with [`Batched`]).
    pub logits: Vec<f32>,
    /// Events consumed since the previous decision (including any the
    /// session's own preprocessing discarded).
    pub events: usize,
    /// Timestamp (µs) of the last event that contributed.
    pub t_us: u64,
}

impl Decision {
    /// Repairs a fault-poisoned decision in place: non-finite logits
    /// (NaN/±Inf) are replaced with `f32::MIN` and the class is recomputed
    /// from the repaired logits; a class index outside the logit vector is
    /// likewise recomputed. Returns the number of repairs performed — `0`
    /// means the decision was already valid.
    ///
    /// Corrupted ingress can drive a network's activations non-finite;
    /// serving must degrade to a valid (if low-confidence) decision rather
    /// than propagate poison into histories and benchmarks.
    pub fn sanitize(&mut self) -> usize {
        let mut repaired = 0usize;
        for v in &mut self.logits {
            if !v.is_finite() {
                *v = f32::MIN;
                repaired += 1;
            }
        }
        if !self.logits.is_empty() && (repaired > 0 || self.class >= self.logits.len()) {
            let fixed = argmax(&self.logits);
            if repaired == 0 && fixed != self.class {
                repaired = 1;
            }
            self.class = fixed;
        }
        repaired
    }
}

fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

/// A classifier driven one event at a time.
///
/// Lifecycle: [`OnlineClassifier::begin_session`] resets all session state;
/// [`OnlineClassifier::push_event`] feeds events in timestamp order;
/// [`OnlineClassifier::poll_decision`] takes the newest decision if one was
/// produced since the last poll; [`OnlineClassifier::flush`] forces a
/// decision from whatever has accumulated (e.g. a partial CNN window).
pub trait OnlineClassifier {
    /// Paradigm name ("snn", "cnn", "gnn", or the wrapped batch name).
    fn name(&self) -> &'static str;

    /// Starts a fresh session, dropping all accumulated state.
    fn begin_session(&mut self);

    /// Feeds one event, recording any work into `ops`.
    ///
    /// # Errors
    ///
    /// Returns an error if the event is older than a previously pushed one
    /// — sessions require per-session timestamp order.
    fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError>;

    /// Takes the newest decision produced since the last poll, if any.
    fn poll_decision(&mut self) -> Option<Decision>;

    /// Forces a decision from the accumulated state (if any events arrived
    /// since the last decision), recording the work into `ops`.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying classifier cannot process the
    /// accumulated window.
    fn flush(&mut self, ops: &mut OpCount) -> Result<Option<Decision>, EvlabError>;

    /// The session's durable state, when the paradigm supports
    /// crash-consistent checkpointing. The native sessions ([`SnnOnline`],
    /// [`CnnOnline`], [`GnnOnline`]) all do; adapters without a
    /// serializable core (e.g. [`Batched`]) return `None` and are served
    /// without durability.
    fn as_snapshot(&self) -> Option<&dyn StateSnapshot> {
        None
    }

    /// Mutable access to the durable state, for restore.
    fn as_snapshot_mut(&mut self) -> Option<&mut dyn StateSnapshot> {
        None
    }
}

// ---------------------------------------------------------------------------
// Snapshot plumbing shared by the native sessions.
// ---------------------------------------------------------------------------

/// Serializes a [`Decision`] for snapshot payloads (logit bit patterns
/// preserved exactly).
pub fn save_decision(d: &Decision, enc: &mut Encoder) {
    enc.put_u64(d.class as u64);
    enc.put_f32_slice(&d.logits);
    enc.put_u64(d.events as u64);
    enc.put_u64(d.t_us);
}

/// Decodes a [`Decision`] written by [`save_decision`].
///
/// # Errors
///
/// Returns [`FrameError`] on a truncated or corrupt payload.
pub fn load_decision(dec: &mut Decoder) -> Result<Decision, FrameError> {
    Ok(Decision {
        class: dec.take_u64()? as usize,
        logits: dec.take_f32_vec()?,
        events: dec.take_u64()? as usize,
        t_us: dec.take_u64()?,
    })
}

/// Serializes an optional [`Decision`] (presence byte + payload).
pub fn save_opt_decision(d: &Option<Decision>, enc: &mut Encoder) {
    match d {
        Some(d) => {
            enc.put_bool(true);
            save_decision(d, enc);
        }
        None => enc.put_bool(false),
    }
}

/// Decodes an optional [`Decision`] written by [`save_opt_decision`].
///
/// # Errors
///
/// Returns [`FrameError`] on a truncated or corrupt payload.
pub fn load_opt_decision(dec: &mut Decoder) -> Result<Option<Decision>, FrameError> {
    if dec.take_bool()? {
        Ok(Some(load_decision(dec)?))
    } else {
        Ok(None)
    }
}

fn save_event(e: &Event, enc: &mut Encoder) {
    enc.put_u64(e.t.as_micros());
    enc.put_u16(e.x);
    enc.put_u16(e.y);
    enc.put_bool(e.polarity == Polarity::On);
}

fn load_event(dec: &mut Decoder) -> Result<Event, FrameError> {
    let t = dec.take_u64()?;
    let x = dec.take_u16()?;
    let y = dec.take_u16()?;
    let p = if dec.take_bool()? { Polarity::On } else { Polarity::Off };
    Ok(Event::new(t, x, y, p))
}

/// Tracks the per-session ordering requirement shared by all sessions.
#[derive(Debug, Clone, Default)]
struct OrderGuard {
    last_t: Option<u64>,
}

impl OrderGuard {
    fn check(&mut self, t: u64) -> Result<(), EvlabError> {
        if let Some(last) = self.last_t {
            if t < last {
                return Err(EvlabError::serve(format!(
                    "out-of-order event: t={t}µs after t={last}µs"
                )));
            }
        }
        self.last_t = Some(t);
        Ok(())
    }

    fn reset(&mut self) {
        self.last_t = None;
    }
}

// ---------------------------------------------------------------------------
// Unified session construction.
// ---------------------------------------------------------------------------

/// Default CNN micro-batch flush window (µs) when [`OnlineConfig`] leaves
/// the window unset.
pub const DEFAULT_CNN_WINDOW_US: u64 = 2_000;

/// Paradigm-independent session parameters, interpreted by each paradigm
/// for its own notion of "window" and "batch":
///
/// | field        | SNN      | CNN                         | GNN                              |
/// |--------------|----------|-----------------------------|----------------------------------|
/// | `resolution` | required | required                    | ignored (graphs are coordinate-free) |
/// | `window_us`  | ignored  | flush interval (default [`DEFAULT_CNN_WINDOW_US`]) | max node age (adds an age bound) |
/// | `batch`      | ignored  | ignored                     | max live nodes (default: the pipeline's `max_nodes`) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineConfig {
    /// Sensor resolution of the incoming streams.
    pub resolution: (u16, u16),
    /// Temporal window in µs, where the paradigm has one.
    pub window_us: Option<u64>,
    /// Spatial/batch capacity, where the paradigm has one.
    pub batch: Option<usize>,
}

impl OnlineConfig {
    /// Config for the given sensor resolution with paradigm defaults for
    /// everything else.
    pub fn new(resolution: (u16, u16)) -> Self {
        OnlineConfig {
            resolution,
            window_us: None,
            batch: None,
        }
    }

    /// Sets the temporal window (CNN flush interval / GNN max node age).
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        self.window_us = Some(window_us);
        self
    }

    /// Sets the capacity bound (GNN max live nodes).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }
}

enum Paradigm<'a> {
    Snn(&'a SnnPipeline),
    Cnn(&'a CnnPipeline),
    Gnn(&'a GnnPipeline),
}

/// Uniform entry point for opening online sessions: one config, one
/// paradigm choice, one boxed [`OnlineClassifier`] ready for
/// `evlab_serve`'s runtime.
///
/// # Examples
///
/// ```no_run
/// use evlab_core::online::{OnlineConfig, SessionBuilder};
/// use evlab_core::gnn_pipeline::{GnnPipeline, GnnPipelineConfig};
///
/// let pipe = GnnPipeline::new(GnnPipelineConfig::new());
/// // (fit the pipeline first in real code)
/// let session = SessionBuilder::new(
///     OnlineConfig::new((32, 32)).with_window_us(50_000).with_batch(512),
/// )
/// .gnn(&pipe)
/// .build()?;
/// # Ok::<(), evlab_util::EvlabError>(())
/// ```
pub struct SessionBuilder<'a> {
    config: OnlineConfig,
    paradigm: Option<Paradigm<'a>>,
}

impl<'a> SessionBuilder<'a> {
    /// Starts a builder from shared session parameters.
    pub fn new(config: OnlineConfig) -> Self {
        SessionBuilder {
            config,
            paradigm: None,
        }
    }

    /// Serves the spiking paradigm from a trained [`SnnPipeline`].
    pub fn snn(mut self, pipeline: &'a SnnPipeline) -> Self {
        self.paradigm = Some(Paradigm::Snn(pipeline));
        self
    }

    /// Serves the frame paradigm from a trained [`CnnPipeline`].
    pub fn cnn(mut self, pipeline: &'a CnnPipeline) -> Self {
        self.paradigm = Some(Paradigm::Cnn(pipeline));
        self
    }

    /// Serves the event-graph paradigm from a trained [`GnnPipeline`].
    pub fn gnn(mut self, pipeline: &'a GnnPipeline) -> Self {
        self.paradigm = Some(Paradigm::Gnn(pipeline));
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns an error if no paradigm was selected, the chosen pipeline
    /// is untrained, or the config is invalid for the paradigm.
    pub fn build(self) -> Result<Box<dyn OnlineClassifier + Send>, EvlabError> {
        match self.paradigm {
            None => Err(EvlabError::serve(
                "SessionBuilder: no paradigm selected — call .snn(), .cnn() or .gnn()",
            )),
            Some(Paradigm::Snn(p)) => Ok(Box::new(SnnOnline::with_config(p, &self.config)?)),
            Some(Paradigm::Cnn(p)) => Ok(Box::new(CnnOnline::with_config(p, &self.config)?)),
            Some(Paradigm::Gnn(p)) => Ok(Box::new(GnnOnline::with_config(p, &self.config)?)),
        }
    }
}

// ---------------------------------------------------------------------------
// SNN: per-event stepping.
// ---------------------------------------------------------------------------

/// Streaming SNN session: spatial downsampling and spike binning applied
/// per event, injections through the event-driven engine, decisions read
/// from the decayed readout membranes after every injection.
#[derive(Debug, Clone)]
pub struct SnnOnline {
    ed: EventDrivenSnn,
    downsample: u16,
    dt_us: u64,
    steps: usize,
    out_res: (u16, u16),
    /// Per-block last-forwarded timestamp (dead time = one dt, matching
    /// [`SnnPipeline::encode`]).
    block_last: Vec<Option<u64>>,
    t0: Option<u64>,
    order: OrderGuard,
    pending: Option<Decision>,
    events_since: usize,
    current_step: u64,
}

impl SnnOnline {
    /// Builds a session over a trained pipeline. Only
    /// [`OnlineConfig::resolution`] is used: the SNN's temporal windowing
    /// comes from the pipeline's own `dt_us × steps`.
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is untrained or was trained for a
    /// different resolution.
    pub fn with_config(pipeline: &SnnPipeline, config: &OnlineConfig) -> Result<Self, EvlabError> {
        let resolution = config.resolution;
        let net = pipeline
            .network()
            .ok_or_else(|| EvlabError::serve("SNN pipeline is untrained"))?;
        let config = pipeline.config();
        let dw = resolution.0.div_ceil(config.downsample);
        let dh = resolution.1.div_ceil(config.downsample);
        let expected = 2 * dw as usize * dh as usize;
        let ed = EventDrivenSnn::from_network(net);
        if ed.input_size() != expected {
            return Err(EvlabError::serve(format!(
                "SNN trained for {} inputs but {}x{} at {}x downsample needs {}",
                ed.input_size(),
                resolution.0,
                resolution.1,
                config.downsample,
                expected
            )));
        }
        Ok(SnnOnline {
            ed,
            downsample: config.downsample,
            dt_us: config.dt_us,
            steps: config.steps,
            out_res: (dw, dh),
            block_last: vec![None; dw as usize * dh as usize],
            t0: None,
            order: OrderGuard::default(),
            pending: None,
            events_since: 0,
            current_step: 0,
        })
    }

}

impl OnlineClassifier for SnnOnline {
    fn name(&self) -> &'static str {
        "snn"
    }

    fn begin_session(&mut self) {
        self.ed.reset();
        self.block_last.iter_mut().for_each(|b| *b = None);
        self.t0 = None;
        self.order.reset();
        self.pending = None;
        self.events_since = 0;
        self.current_step = 0;
    }

    fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
        let t = event.t.as_micros();
        self.order.check(t)?;
        self.events_since += 1;
        let t0 = *self.t0.get_or_insert(t);
        let mut step = (t - t0) / self.dt_us;
        if step >= self.steps as u64 {
            // Window rolled over: a fresh decision window starts here.
            self.ed.reset();
            self.block_last.iter_mut().for_each(|b| *b = None);
            self.t0 = Some(t);
            step = 0;
        }
        self.current_step = step;
        // Block-wise dead time, as in the batch encoder.
        let bx = event.x / self.downsample;
        let by = event.y / self.downsample;
        let block = by as usize * self.out_res.0 as usize + bx as usize;
        let keep = match self.block_last[block] {
            Some(prev) => t.saturating_sub(prev) >= self.dt_us,
            None => true,
        };
        if !keep {
            ops.record_compare(1);
            return Ok(());
        }
        self.block_last[block] = Some(t);
        let pixels = self.out_res.0 as usize * self.out_res.1 as usize;
        let index = event.polarity.channel() * pixels
            + by as usize * self.out_res.0 as usize
            + bx as usize;
        self.ed.inject_input(index, step + 1, ops);
        let mut logits = self.ed.logits_at(step + 1);
        // Faulted ingress must degrade decisions, never poison membranes.
        evlab_tensor::guard::sanitize_finite(&mut logits);
        self.pending = Some(Decision {
            class: argmax(&logits),
            logits,
            events: std::mem::take(&mut self.events_since),
            t_us: t,
        });
        Ok(())
    }

    fn poll_decision(&mut self) -> Option<Decision> {
        self.pending.take()
    }

    fn flush(&mut self, _ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
        if self.t0.is_none() {
            return Ok(None);
        }
        // Decay the readout to the end of the current window.
        let mut logits = self.ed.logits_at(self.steps as u64);
        evlab_tensor::guard::sanitize_finite(&mut logits);
        Ok(Some(Decision {
            class: argmax(&logits),
            logits,
            events: std::mem::take(&mut self.events_since),
            t_us: self.order.last_t.unwrap_or(0),
        }))
    }

    fn as_snapshot(&self) -> Option<&dyn StateSnapshot> {
        Some(self)
    }

    fn as_snapshot_mut(&mut self) -> Option<&mut dyn StateSnapshot> {
        Some(self)
    }
}

impl StateSnapshot for SnnOnline {
    fn state_kind(&self) -> &'static str {
        "snn-online"
    }

    fn save_state(&self, enc: &mut Encoder) {
        // Construction parameters, recorded for shape validation only.
        enc.put_u16(self.downsample);
        enc.put_u64(self.dt_us);
        enc.put_u64(self.steps as u64);
        enc.put_u16(self.out_res.0);
        enc.put_u16(self.out_res.1);
        // Session-mutable state.
        enc.put_u64(self.block_last.len() as u64);
        for b in &self.block_last {
            enc.put_opt_u64(*b);
        }
        enc.put_opt_u64(self.t0);
        enc.put_opt_u64(self.order.last_t);
        save_opt_decision(&self.pending, enc);
        enc.put_u64(self.events_since as u64);
        enc.put_u64(self.current_step);
        self.ed.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        if dec.take_u16()? != self.downsample
            || dec.take_u64()? != self.dt_us
            || dec.take_u64()? != self.steps as u64
            || dec.take_u16()? != self.out_res.0
            || dec.take_u16()? != self.out_res.1
        {
            return Err(dec.corrupt("SNN session built with different parameters"));
        }
        let n = dec.take_u64()? as usize;
        if n != self.block_last.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {n} blocks, session has {}",
                self.block_last.len()
            )));
        }
        let mut block_last = Vec::with_capacity(n);
        for _ in 0..n {
            block_last.push(dec.take_opt_u64()?);
        }
        let t0 = dec.take_opt_u64()?;
        let last_t = dec.take_opt_u64()?;
        let pending = load_opt_decision(dec)?;
        let events_since = dec.take_u64()? as usize;
        let current_step = dec.take_u64()?;
        // The engine commits atomically; only then commit the scalars so a
        // failed load leaves this session untouched.
        self.ed.load_state(dec)?;
        self.block_last = block_last;
        self.t0 = t0;
        self.order.last_t = last_t;
        self.pending = pending;
        self.events_since = events_since;
        self.current_step = current_step;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// CNN: windowed micro-batch flushes.
// ---------------------------------------------------------------------------

/// Streaming CNN session: events accumulate into a window buffer; the
/// frame encoder and network run once per `window_us` micro-batch (and on
/// [`OnlineClassifier::flush`]).
#[derive(Clone)]
pub struct CnnOnline {
    net: Sequential,
    config: CnnPipelineConfig,
    resolution: (u16, u16),
    window_us: u64,
    buffer: Vec<Event>,
    window_start: Option<u64>,
    order: OrderGuard,
    pending: Option<Decision>,
    events_since: usize,
}

impl CnnOnline {
    /// Builds a session over a trained pipeline; the network weights are
    /// cloned so the session is independent of the pipeline.
    /// [`OnlineConfig::window_us`] is the micro-batch flush interval
    /// (default [`DEFAULT_CNN_WINDOW_US`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is untrained or the window is 0.
    pub fn with_config(pipeline: &CnnPipeline, config: &OnlineConfig) -> Result<Self, EvlabError> {
        let window_us = config.window_us.unwrap_or(DEFAULT_CNN_WINDOW_US);
        let net = pipeline
            .network()
            .ok_or_else(|| EvlabError::serve("CNN pipeline is untrained"))?
            .clone();
        if window_us == 0 {
            return Err(EvlabError::serve("CNN flush window must be positive"));
        }
        Ok(CnnOnline {
            net,
            config: *pipeline.config(),
            resolution: config.resolution,
            window_us,
            buffer: Vec::new(),
            window_start: None,
            order: OrderGuard::default(),
            pending: None,
            events_since: 0,
        })
    }


    /// Encodes the buffered window and runs the network.
    fn flush_window(&mut self, ops: &mut OpCount) -> Decision {
        let encoder = make_encoder(self.config.frame);
        let frame = encoder.encode(&self.buffer, self.resolution, ops);
        let n = frame.len() as u64;
        ops.record_add(n);
        ops.record_mult(2 * n);
        let input = normalize(&frame);
        let mut logits = self.net.forward(&input, ops);
        // Faulted ingress must degrade decisions, never poison the frame
        // path.
        evlab_tensor::guard::sanitize_tensor(&mut logits);
        let t_us = self.buffer.last().map(|e| e.t.as_micros()).unwrap_or(0);
        self.buffer.clear();
        self.window_start = None;
        Decision {
            class: logits.argmax(),
            logits: logits.as_slice().to_vec(),
            events: std::mem::take(&mut self.events_since),
            t_us,
        }
    }
}

impl OnlineClassifier for CnnOnline {
    fn name(&self) -> &'static str {
        "cnn"
    }

    fn begin_session(&mut self) {
        self.buffer.clear();
        self.window_start = None;
        self.order.reset();
        self.pending = None;
        self.events_since = 0;
    }

    fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
        let t = event.t.as_micros();
        self.order.check(t)?;
        self.events_since += 1;
        let start = *self.window_start.get_or_insert(t);
        if t.saturating_sub(start) >= self.window_us && !self.buffer.is_empty() {
            let decision = self.flush_window(ops);
            self.pending = Some(decision);
            self.window_start = Some(t);
        }
        self.buffer.push(event);
        Ok(())
    }

    fn poll_decision(&mut self) -> Option<Decision> {
        self.pending.take()
    }

    fn flush(&mut self, ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
        if self.buffer.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.flush_window(ops)))
    }

    fn as_snapshot(&self) -> Option<&dyn StateSnapshot> {
        Some(self)
    }

    fn as_snapshot_mut(&mut self) -> Option<&mut dyn StateSnapshot> {
        Some(self)
    }
}

impl StateSnapshot for CnnOnline {
    fn state_kind(&self) -> &'static str {
        "cnn-online"
    }

    fn save_state(&self, enc: &mut Encoder) {
        // Construction parameters, recorded for shape validation only.
        enc.put_u16(self.resolution.0);
        enc.put_u16(self.resolution.1);
        enc.put_u64(self.window_us);
        // Session-mutable state: the whole undecided micro-batch.
        enc.put_u64(self.buffer.len() as u64);
        for e in &self.buffer {
            save_event(e, enc);
        }
        enc.put_opt_u64(self.window_start);
        enc.put_opt_u64(self.order.last_t);
        save_opt_decision(&self.pending, enc);
        enc.put_u64(self.events_since as u64);
    }

    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        if dec.take_u16()? != self.resolution.0
            || dec.take_u16()? != self.resolution.1
            || dec.take_u64()? != self.window_us
        {
            return Err(dec.corrupt("CNN session built with different parameters"));
        }
        let n = dec.take_u64()? as usize;
        // 13 bytes per serialized event: a corrupt count cannot over-allocate.
        if n > dec.remaining() / 13 {
            return Err(dec.corrupt(format!("{n} buffered events exceed the payload")));
        }
        let mut buffer = Vec::with_capacity(n);
        for _ in 0..n {
            buffer.push(load_event(dec)?);
        }
        let window_start = dec.take_opt_u64()?;
        let last_t = dec.take_opt_u64()?;
        let pending = load_opt_decision(dec)?;
        let events_since = dec.take_u64()? as usize;
        self.buffer = buffer;
        self.window_start = window_start;
        self.order.last_t = last_t;
        self.pending = pending;
        self.events_since = events_since;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// GNN: per-event asynchronous updates.
// ---------------------------------------------------------------------------

/// Streaming GNN session: each event updates a *true sliding window*
/// ([`WindowedGnn`]) in graph-size-independent work. The eviction policy
/// bounds memory continuously — the engine never rebuilds the graph, so
/// there is no periodic logit cliff at a node-count boundary.
#[derive(Clone)]
pub struct GnnOnline {
    engine: WindowedGnn,
    order: OrderGuard,
    pending: Option<Decision>,
    events_since: usize,
    last_decision: Option<Decision>,
}

impl GnnOnline {
    /// Builds a session over a trained pipeline; the network weights are
    /// cloned so the session is independent of the pipeline.
    ///
    /// [`OnlineConfig::batch`] caps the live node count (default: the
    /// pipeline's `max_nodes`); [`OnlineConfig::window_us`], when set,
    /// additionally evicts nodes older than that age.
    /// [`OnlineConfig::resolution`] is ignored — event graphs carry their
    /// own coordinates.
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is untrained.
    pub fn with_config(pipeline: &GnnPipeline, config: &OnlineConfig) -> Result<Self, EvlabError> {
        let net = pipeline
            .network()
            .ok_or_else(|| EvlabError::serve("GNN pipeline is untrained"))?
            .clone();
        let classes = net.classes();
        let max_nodes = config.batch.unwrap_or(pipeline.config().max_nodes).max(1);
        let policy = match config.window_us {
            Some(max_age_us) => WindowPolicy::Both {
                max_nodes,
                max_age_us,
            },
            None => WindowPolicy::MaxNodes(max_nodes),
        };
        let engine = WindowedGnn::new(net, *pipeline.graph_config(), policy, classes);
        Ok(GnnOnline {
            engine,
            order: OrderGuard::default(),
            pending: None,
            events_since: 0,
            last_decision: None,
        })
    }


    /// Number of live nodes currently in the sliding window.
    pub fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    /// The window's eviction policy.
    pub fn policy(&self) -> WindowPolicy {
        self.engine.graph().policy()
    }
}

impl OnlineClassifier for GnnOnline {
    fn name(&self) -> &'static str {
        "gnn"
    }

    fn begin_session(&mut self) {
        self.engine.reset();
        self.order.reset();
        self.pending = None;
        self.events_since = 0;
        self.last_decision = None;
    }

    fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
        let t = event.t.as_micros();
        self.order.check(t)?;
        self.events_since += 1;
        // The window slides by itself: eviction happens inside the engine,
        // one node at a time, with no full-graph reset.
        let mut logits = self.engine.update(event, ops);
        // Faulted ingress must degrade decisions, never poison the graph.
        evlab_tensor::guard::sanitize_tensor(&mut logits);
        let decision = Decision {
            class: logits.argmax(),
            logits: logits.as_slice().to_vec(),
            events: std::mem::take(&mut self.events_since),
            t_us: t,
        };
        self.last_decision = Some(decision.clone());
        self.pending = Some(decision);
        Ok(())
    }

    fn poll_decision(&mut self) -> Option<Decision> {
        self.pending.take()
    }

    fn flush(&mut self, _ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
        Ok(self.last_decision.take())
    }

    fn as_snapshot(&self) -> Option<&dyn StateSnapshot> {
        Some(self)
    }

    fn as_snapshot_mut(&mut self) -> Option<&mut dyn StateSnapshot> {
        Some(self)
    }
}

impl StateSnapshot for GnnOnline {
    fn state_kind(&self) -> &'static str {
        "gnn-online"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.engine.save_state(enc);
        enc.put_opt_u64(self.order.last_t);
        save_opt_decision(&self.pending, enc);
        enc.put_u64(self.events_since as u64);
        save_opt_decision(&self.last_decision, enc);
    }

    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        // Load into a clone so a failure further down the payload leaves
        // the live engine untouched.
        let mut engine = self.engine.clone();
        engine.load_state(dec)?;
        let last_t = dec.take_opt_u64()?;
        let pending = load_opt_decision(dec)?;
        let events_since = dec.take_u64()? as usize;
        let last_decision = load_opt_decision(dec)?;
        self.engine = engine;
        self.order.last_t = last_t;
        self.pending = pending;
        self.events_since = events_since;
        self.last_decision = last_decision;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Batch adapter.
// ---------------------------------------------------------------------------

/// Adapts any batch [`EventClassifier`] to the online interface by
/// buffering the session's events and classifying on flush — the
/// "store-then-process" fallback every paradigm supports, at the cost of
/// decision latency equal to the session length.
pub struct Batched<C: EventClassifier> {
    clf: C,
    resolution: (u16, u16),
    buffer: Vec<Event>,
    order: OrderGuard,
    events_since: usize,
}

impl<C: EventClassifier> Batched<C> {
    /// Wraps a (typically trained) batch classifier for streams of the
    /// given sensor resolution.
    pub fn new(clf: C, resolution: (u16, u16)) -> Self {
        Batched {
            clf,
            resolution,
            buffer: Vec::new(),
            order: OrderGuard::default(),
            events_since: 0,
        }
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.clf
    }

    /// Mutable access to the wrapped classifier (e.g. to fit it).
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.clf
    }
}

impl<C: EventClassifier> OnlineClassifier for Batched<C> {
    fn name(&self) -> &'static str {
        self.clf.name()
    }

    fn begin_session(&mut self) {
        self.buffer.clear();
        self.order.reset();
        self.events_since = 0;
    }

    fn push_event(&mut self, event: Event, _ops: &mut OpCount) -> Result<(), EvlabError> {
        self.order.check(event.t.as_micros())?;
        self.events_since += 1;
        self.buffer.push(event);
        Ok(())
    }

    fn poll_decision(&mut self) -> Option<Decision> {
        None
    }

    fn flush(&mut self, ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
        if self.buffer.is_empty() {
            return Ok(None);
        }
        let events = std::mem::take(&mut self.buffer);
        let t_us = events.last().map(|e| e.t.as_micros()).unwrap_or(0);
        let stream = EventStream::from_events(self.resolution, events)
            .map_err(EvlabError::event_order)?;
        let class = self.clf.predict(&stream, ops);
        Ok(Some(Decision {
            class,
            logits: Vec::new(),
            events: std::mem::take(&mut self.events_since),
            t_us,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn_pipeline::CnnPipelineConfig;
    use crate::gnn_pipeline::GnnPipelineConfig;
    use crate::snn_pipeline::SnnPipelineConfig;
    use evlab_datasets::shapes::shape_silhouettes;
    use evlab_datasets::{Dataset, DatasetConfig};
    use evlab_events::Polarity;

    fn tiny_data() -> Dataset {
        shape_silhouettes(&DatasetConfig::tiny((16, 16)).with_split(6, 2))
    }

    #[test]
    fn snn_online_replays_batch_prediction() {
        let data = tiny_data();
        let mut pipe = SnnPipeline::new(
            SnnPipelineConfig::new().with_epochs(10).with_seed(1),
        );
        pipe.fit(&data);
        let stream = &data.test[0].stream;
        let mut batch_ops = OpCount::new();
        let batch_class = pipe.predict(stream, &mut batch_ops);
        let mut session =
            SnnOnline::with_config(&pipe, &OnlineConfig::new(data.resolution)).expect("trained");
        session.begin_session();
        let mut ops = OpCount::new();
        for e in stream.iter() {
            session.push_event(*e, &mut ops).expect("ordered");
        }
        let decision = session.flush(&mut ops).expect("flush").expect("decision");
        assert_eq!(decision.class, batch_class, "streaming replay agrees");
        assert!(decision.events > 0);
    }

    #[test]
    fn cnn_online_flushes_micro_batches() {
        let data = tiny_data();
        let mut pipe = CnnPipeline::new(
            CnnPipelineConfig::new().with_epochs(10).with_seed(1),
        );
        pipe.fit(&data);
        let stream = &data.test[0].stream;
        // Window much shorter than the sample: several mid-stream flushes.
        let mut session = CnnOnline::with_config(
            &pipe,
            &OnlineConfig::new(data.resolution).with_window_us(5_000),
        )
        .expect("trained");
        session.begin_session();
        let mut ops = OpCount::new();
        let mut decisions = 0usize;
        for e in stream.iter() {
            session.push_event(*e, &mut ops).expect("ordered");
            if session.poll_decision().is_some() {
                decisions += 1;
            }
        }
        if session.flush(&mut ops).expect("flush").is_some() {
            decisions += 1;
        }
        assert!(decisions >= 2, "micro-batching produced {decisions} decisions");
        // Whole-sample window + flush reproduces the batch prediction.
        let mut whole = CnnOnline::with_config(
            &pipe,
            &OnlineConfig::new(data.resolution).with_window_us(u64::MAX),
        )
        .expect("trained");
        whole.begin_session();
        for e in stream.iter() {
            whole.push_event(*e, &mut ops).expect("ordered");
        }
        let decision = whole.flush(&mut ops).expect("flush").expect("decision");
        let mut batch_ops = OpCount::new();
        assert_eq!(decision.class, pipe.predict(stream, &mut batch_ops));
    }

    #[test]
    fn gnn_online_bounds_graph_state() {
        let data = tiny_data();
        let mut pipe = GnnPipeline::new(
            GnnPipelineConfig::new()
                .with_epochs(10)
                .with_max_nodes(40)
                .with_seed(1),
        );
        pipe.fit(&data);
        let mut session =
            GnnOnline::with_config(&pipe, &OnlineConfig::new(data.resolution)).expect("trained");
        session.begin_session();
        let mut ops = OpCount::new();
        let mut decisions = 0usize;
        let mut saturated_at = None;
        for (i, e) in data.test[0].stream.iter().enumerate() {
            session.push_event(*e, &mut ops).expect("ordered");
            if let Some(d) = session.poll_decision() {
                assert!(d.class < data.num_classes);
                decisions += 1;
            }
            assert!(session.node_count() <= 40, "graph state stays bounded");
            if session.node_count() == 40 && saturated_at.is_none() {
                saturated_at = Some(i);
            }
            if saturated_at.is_some() {
                // The window slides instead of resetting: once full it
                // stays full — the old engine dropped back to 1 node here.
                assert_eq!(session.node_count(), 40, "no reset cliff at event {i}");
            }
        }
        assert_eq!(decisions, data.test[0].stream.len(), "one decision per event");
        assert!(saturated_at.is_some(), "stream long enough to fill the window");
    }

    #[test]
    fn gnn_online_age_window_evicts_stale_nodes() {
        let data = tiny_data();
        let mut pipe = GnnPipeline::new(
            GnnPipelineConfig::new().with_epochs(2).with_seed(1),
        );
        pipe.fit(&data);
        let config = OnlineConfig::new(data.resolution)
            .with_batch(64)
            .with_window_us(2_000);
        let mut session = GnnOnline::with_config(&pipe, &config).expect("trained");
        assert_eq!(
            session.policy(),
            WindowPolicy::Both { max_nodes: 64, max_age_us: 2_000 }
        );
        session.begin_session();
        let mut ops = OpCount::new();
        for i in 0..10u64 {
            session
                .push_event(Event::new(i * 100, 1, 1, Polarity::On), &mut ops)
                .expect("ordered");
        }
        assert_eq!(session.node_count(), 10);
        // A long silence ages everything out except the newcomer.
        session
            .push_event(Event::new(1_000_000, 2, 2, Polarity::On), &mut ops)
            .expect("ordered");
        assert_eq!(session.node_count(), 1, "age bound slid the window");
    }

    #[test]
    fn batched_adapter_serves_any_classifier() {
        let data = tiny_data();
        let mut pipe = CnnPipeline::new(
            CnnPipelineConfig::new().with_epochs(10).with_seed(1),
        );
        pipe.fit(&data);
        let stream = data.test[0].stream.clone();
        let mut batch_ops = OpCount::new();
        let expected = pipe.predict(&stream, &mut batch_ops);
        let mut session = Batched::new(pipe, data.resolution);
        session.begin_session();
        let mut ops = OpCount::new();
        for e in stream.iter() {
            session.push_event(*e, &mut ops).expect("ordered");
        }
        assert!(session.poll_decision().is_none(), "batch adapter decides on flush");
        let decision = session.flush(&mut ops).expect("flush").expect("decision");
        assert_eq!(decision.class, expected);
        assert_eq!(decision.events, stream.len());
    }

    #[test]
    fn sessions_reject_out_of_order_events() {
        let data = tiny_data();
        let mut pipe = GnnPipeline::new(GnnPipelineConfig::new().with_epochs(2).with_seed(1));
        pipe.fit(&data);
        let mut session = SessionBuilder::new(OnlineConfig::new(data.resolution))
            .gnn(&pipe)
            .build()
            .expect("trained");
        session.begin_session();
        let mut ops = OpCount::new();
        session
            .push_event(Event::new(1_000, 1, 1, Polarity::On), &mut ops)
            .expect("ordered");
        let err = session
            .push_event(Event::new(500, 1, 1, Polarity::On), &mut ops)
            .unwrap_err();
        assert!(err.to_string().contains("out-of-order"));
    }

    /// Pushes half the stream, snapshots, restores into `fresh`, then runs
    /// both to the end asserting bit-identical decision trajectories.
    fn assert_snapshot_resumes(
        mut live: Box<dyn OnlineClassifier + Send>,
        mut fresh: Box<dyn OnlineClassifier + Send>,
        stream: &EventStream,
    ) {
        live.begin_session();
        fresh.begin_session();
        let mut ops = OpCount::new();
        let half = stream.len() / 2;
        for e in stream.iter().take(half) {
            live.push_event(*e, &mut ops).expect("ordered");
        }
        let bytes =
            evlab_util::frame::snapshot_to_bytes(live.as_snapshot().expect("native session"));
        evlab_util::frame::restore_from_bytes(
            fresh.as_snapshot_mut().expect("native session"),
            &bytes,
        )
        .expect("valid snapshot");
        for e in stream.iter().skip(half) {
            live.push_event(*e, &mut ops).expect("ordered");
            fresh.push_event(*e, &mut ops).expect("ordered");
            let a = live.poll_decision();
            let b = fresh.poll_decision();
            match (&a, &b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.class, b.class);
                    assert_eq!(a.events, b.events);
                    assert_eq!(a.t_us, b.t_us);
                    for (x, y) in a.logits.iter().zip(&b.logits) {
                        assert_eq!(x.to_bits(), y.to_bits(), "bit-exact logits");
                    }
                }
                (None, None) => {}
                _ => panic!("decision cadence diverged after restore"),
            }
        }
        let fa = live.flush(&mut ops).expect("flush");
        let fb = fresh.flush(&mut ops).expect("flush");
        assert_eq!(fa.is_some(), fb.is_some());
        if let (Some(a), Some(b)) = (fa, fb) {
            assert_eq!(a.class, b.class);
            for (x, y) in a.logits.iter().zip(&b.logits) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn snn_session_snapshot_resumes_bit_identically() {
        let data = tiny_data();
        let mut pipe = SnnPipeline::new(SnnPipelineConfig::new().with_epochs(2).with_seed(1));
        pipe.fit(&data);
        let config = OnlineConfig::new(data.resolution);
        let make = || SessionBuilder::new(config).snn(&pipe).build().expect("trained");
        assert_snapshot_resumes(make(), make(), &data.test[0].stream);
    }

    #[test]
    fn cnn_session_snapshot_resumes_bit_identically() {
        let data = tiny_data();
        let mut pipe = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(2).with_seed(1));
        pipe.fit(&data);
        let config = OnlineConfig::new(data.resolution).with_window_us(5_000);
        let make = || SessionBuilder::new(config).cnn(&pipe).build().expect("trained");
        assert_snapshot_resumes(make(), make(), &data.test[0].stream);
    }

    #[test]
    fn gnn_session_snapshot_resumes_bit_identically() {
        let data = tiny_data();
        let mut pipe = GnnPipeline::new(
            GnnPipelineConfig::new().with_epochs(2).with_max_nodes(30).with_seed(1),
        );
        pipe.fit(&data);
        let config = OnlineConfig::new(data.resolution);
        let make = || SessionBuilder::new(config).gnn(&pipe).build().expect("trained");
        assert_snapshot_resumes(make(), make(), &data.test[0].stream);
    }

    #[test]
    fn snapshot_rejects_cross_paradigm_and_mismatched_sessions() {
        let data = tiny_data();
        let mut gnn = GnnPipeline::new(GnnPipelineConfig::new().with_epochs(2).with_seed(1));
        gnn.fit(&data);
        let mut cnn = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(2).with_seed(1));
        cnn.fit(&data);
        let config = OnlineConfig::new(data.resolution);
        let g = SessionBuilder::new(config).gnn(&gnn).build().expect("trained");
        let bytes = evlab_util::frame::snapshot_to_bytes(g.as_snapshot().expect("native"));
        let mut c = SessionBuilder::new(config).cnn(&cnn).build().expect("trained");
        assert!(matches!(
            evlab_util::frame::restore_from_bytes(c.as_snapshot_mut().expect("native"), &bytes),
            Err(FrameError::KindMismatch { .. })
        ));
        // Same paradigm, different construction parameters.
        let mut narrow = CnnOnline::with_config(
            &cnn,
            &OnlineConfig::new(data.resolution).with_window_us(1_234),
        )
        .expect("trained");
        let wide = CnnOnline::with_config(&cnn, &config).expect("trained");
        let bytes = evlab_util::frame::snapshot_to_bytes(&wide);
        assert!(narrow.load_state(&mut Decoder::new(&[])).is_err());
        assert!(matches!(
            evlab_util::frame::restore_from_bytes(&mut narrow, &bytes),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn batched_adapter_has_no_snapshot() {
        let data = tiny_data();
        let pipe = CnnPipeline::new(CnnPipelineConfig::new());
        let session = Batched::new(pipe, data.resolution);
        assert!(session.as_snapshot().is_none());
    }

    #[test]
    fn sanitize_repairs_nonfinite_decisions() {
        let mut d = Decision {
            class: 0,
            logits: vec![f32::NAN, 1.0, f32::INFINITY],
            events: 1,
            t_us: 0,
        };
        assert_eq!(d.sanitize(), 2);
        assert_eq!(d.class, 1, "argmax over repaired logits");
        assert!(d.logits.iter().all(|v| v.is_finite()));
        assert_eq!(d.sanitize(), 0, "already valid");
        let mut oob = Decision {
            class: 9,
            logits: vec![0.5, 2.0],
            events: 1,
            t_us: 0,
        };
        assert_eq!(oob.sanitize(), 1);
        assert_eq!(oob.class, 1, "out-of-range class recomputed");
    }

    #[test]
    fn untrained_pipelines_yield_typed_errors() {
        let config = OnlineConfig::new((16, 16));
        let snn = SnnPipeline::new(SnnPipelineConfig::new());
        assert!(SessionBuilder::new(config).snn(&snn).build().is_err());
        let cnn = CnnPipeline::new(CnnPipelineConfig::new());
        assert!(SessionBuilder::new(config).cnn(&cnn).build().is_err());
        let gnn = GnnPipeline::new(GnnPipelineConfig::new());
        assert!(SessionBuilder::new(config).gnn(&gnn).build().is_err());
        let err = SessionBuilder::new(config).build().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("no paradigm"), "{err}");
    }
}
