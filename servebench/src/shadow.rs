//! The reference drive: the same admitted words, decoded and pushed
//! straight into fresh `OnlineClassifier`s, outside the serving runtime.
//!
//! Untraced runs drive a prefix of the run after timing ends, for the
//! correctness gate. Traced runs drive every slice right after the served
//! slice (so both see the same host speed) and also time each layer
//! through a replica of the session logic that calls the layer functions
//! directly: `EventDrivenSnn::{inject_input, logits_at}`, the CNN frame
//! encoder and `Sequential::forward`, `SlidingWindowGraph::push` and
//! `WindowedGnn::update`. When the replica's decisions differ from the
//! classifier's, the run warns and reports the replica's metrics as 0:
//! the replica copies session logic, so a deliberate change to that logic
//! must not fail the run.

use std::time::Instant;

use evlab_cnn::encode::{normalize, FrameEncoder, Hats, TwoChannel, VoxelGrid};
use evlab_core::online::{Decision, OnlineClassifier};
use evlab_core::prelude::FrameKind;
use evlab_events::aer::AerCodec;
use evlab_events::reorder::ReorderBuffer;
use evlab_events::Event;
use evlab_gnn::window::{SlidingWindowGraph, WindowPolicy, WindowedGnn};
use evlab_snn::event_driven::EventDrivenSnn;
use evlab_tensor::guard::{sanitize_finite, sanitize_tensor};
use evlab_tensor::{OpCount, Sequential};
use evlab_util::frame::Encoder;
use evlab_util::EvlabError;

use crate::feed::{Feed, RES};
use crate::gate::{decision_fp, Fnv, Side};
use crate::lane::{Libraries, Models, Paradigm, Workload, DURABLE_GROUP};

/// Per-layer time and counts accumulated over timed slices.
#[derive(Default, Clone)]
pub struct LayerTimes {
    pub decode_ns: u64,
    pub decode_words: u64,
    pub reorder_ns: u64,
    pub reorder_events: u64,
    pub held_max: usize,
    /// `OnlineClassifier::push_event` + `poll_decision`.
    pub direct_ns: u64,
    pub direct_events: u64,
    pub inject_ns: u64,
    pub readout_ns: u64,
    pub injects: u64,
    pub encode_ns: u64,
    pub forward_ns: u64,
    pub windows: u64,
    pub window_events: u64,
    pub forward_macs: u64,
    pub push_ns: u64,
    pub update_ns: u64,
    pub gnn_events: u64,
    pub reselected: u64,
}

/// Cost of one `Instant::now()`, subtracted from per-call timings.
pub fn clock_cost_ns() -> u64 {
    let mut d: Vec<u64> = (0..2_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

struct Clock {
    cost: u64,
}

impl Clock {
    #[inline]
    fn since(&self, a: Instant) -> u64 {
        (a.elapsed().as_nanos() as u64).saturating_sub(self.cost)
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Session logic of `SnnOnline`, with the engine calls timed.
struct SnnReplica {
    ed: EventDrivenSnn,
    downsample: u16,
    dt_us: u64,
    steps: u64,
    out_res: (u16, u16),
    block_last: Vec<Option<u64>>,
    t0: Option<u64>,
}

/// Frame logic of `CnnOnline`, with encoding and the forward pass timed.
struct CnnReplica {
    net: Sequential,
    frame: FrameKind,
    window_us: u64,
    buffer: Vec<Event>,
    window_start: Option<u64>,
}

/// `GnnOnline`'s engine plus a stand-alone window store, so the store's
/// push can be timed on its own.
struct GnnReplica {
    engine: WindowedGnn,
    store: SlidingWindowGraph,
}

enum Replica {
    Snn(SnnReplica),
    Cnn(CnnReplica),
    Gnn(Box<GnnReplica>),
}

fn make_encoder(frame: FrameKind) -> Box<dyn FrameEncoder> {
    match frame {
        FrameKind::TwoChannel => Box::new(TwoChannel::new()),
        FrameKind::VoxelGrid(bins) => Box::new(VoxelGrid::new(bins)),
        FrameKind::Hats { cell } => Box::new(Hats::new(cell, 1, 10_000.0)),
    }
}

impl Replica {
    fn new(p: Paradigm, models: &Models) -> Self {
        match p {
            Paradigm::Snn => {
                let c = models.snn.config();
                let (dw, dh) = (RES.0.div_ceil(c.downsample), RES.1.div_ceil(c.downsample));
                Replica::Snn(SnnReplica {
                    ed: EventDrivenSnn::from_network(models.snn.network().expect("fitted")),
                    downsample: c.downsample,
                    dt_us: c.dt_us,
                    steps: c.steps as u64,
                    out_res: (dw, dh),
                    block_last: vec![None; dw as usize * dh as usize],
                    t0: None,
                })
            }
            Paradigm::Cnn => Replica::Cnn(CnnReplica {
                net: models.cnn.network().expect("fitted").clone(),
                frame: models.cnn.config().frame,
                window_us: evlab_core::online::DEFAULT_CNN_WINDOW_US,
                buffer: Vec::new(),
                window_start: None,
            }),
            Paradigm::Gnn => {
                let net = models.gnn.network().expect("fitted").clone();
                let classes = net.classes();
                let policy = WindowPolicy::MaxNodes(models.gnn.config().max_nodes.max(1));
                let graph = *models.gnn.graph_config();
                Replica::Gnn(Box::new(GnnReplica {
                    engine: WindowedGnn::new(net, graph, policy, classes),
                    store: SlidingWindowGraph::new(graph, policy),
                }))
            }
        }
    }

    /// Pushes one event; returns the fingerprint of the decision it made.
    fn push(
        &mut self,
        e: Event,
        ops: &mut OpCount,
        lt: &mut LayerTimes,
        clk: &Clock,
    ) -> Option<u64> {
        let t = e.t.as_micros();
        match self {
            Replica::Snn(r) => {
                let t0 = *r.t0.get_or_insert(t);
                let mut step = (t - t0) / r.dt_us;
                if step >= r.steps {
                    r.ed.reset();
                    r.block_last.iter_mut().for_each(|b| *b = None);
                    r.t0 = Some(t);
                    step = 0;
                }
                let (bx, by) = (e.x / r.downsample, e.y / r.downsample);
                let block = by as usize * r.out_res.0 as usize + bx as usize;
                if let Some(prev) = r.block_last[block] {
                    if t.saturating_sub(prev) < r.dt_us {
                        ops.record_compare(1);
                        return None;
                    }
                }
                r.block_last[block] = Some(t);
                let pixels = r.out_res.0 as usize * r.out_res.1 as usize;
                let index = e.polarity.channel() * pixels + block;
                let a = Instant::now();
                r.ed.inject_input(index, step + 1, ops);
                lt.inject_ns += clk.since(a);
                let a = Instant::now();
                let mut logits = r.ed.logits_at(step + 1);
                lt.readout_ns += clk.since(a);
                lt.injects += 1;
                sanitize_finite(&mut logits);
                Some(fp(t, argmax(&logits), &logits))
            }
            Replica::Cnn(r) => {
                let start = *r.window_start.get_or_insert(t);
                let mut out = None;
                if t.saturating_sub(start) >= r.window_us && !r.buffer.is_empty() {
                    let a = Instant::now();
                    let frame = make_encoder(r.frame).encode(&r.buffer, RES, ops);
                    let n = frame.len() as u64;
                    ops.record_add(n);
                    ops.record_mult(2 * n);
                    let input = normalize(&frame);
                    lt.encode_ns += clk.since(a);
                    let macs = ops.macs;
                    let a = Instant::now();
                    let mut logits = r.net.forward(&input, ops);
                    lt.forward_ns += clk.since(a);
                    lt.forward_macs += ops.macs - macs;
                    lt.windows += 1;
                    lt.window_events += r.buffer.len() as u64;
                    sanitize_tensor(&mut logits);
                    let last_t = r.buffer.last().map_or(0, |e| e.t.as_micros());
                    r.buffer.clear();
                    r.window_start = Some(t);
                    out = Some(fp(last_t, logits.argmax(), logits.as_slice()));
                }
                r.buffer.push(e);
                out
            }
            Replica::Gnn(r) => {
                let mut scratch = OpCount::new();
                let a = Instant::now();
                let outcome = r.store.push(e, &mut scratch);
                lt.push_ns += clk.since(a);
                let a = Instant::now();
                let mut logits = r.engine.update(e, ops);
                lt.update_ns += clk.since(a);
                lt.gnn_events += 1;
                lt.reselected += outcome.reselected.len() as u64;
                sanitize_tensor(&mut logits);
                Some(fp(t, logits.argmax(), logits.as_slice()))
            }
        }
    }
}

fn fp(t: u64, class: usize, logits: &[f32]) -> u64 {
    decision_fp(&Decision {
        class,
        logits: logits.to_vec(),
        events: 0,
        t_us: t,
    })
}

struct ShadowSession {
    clf: Box<dyn OnlineClassifier + Send>,
    reorder: Option<ReorderBuffer>,
    ops: OpCount,
    history: Vec<(u64, usize)>,
    marks: Vec<(usize, u64)>,
    last_fp: u64,
    replica: Option<Replica>,
    /// Fingerprints of every polled (non-flush) decision: classifier and
    /// replica.
    polled: Fnv,
    replicated: Fnv,
}

/// Drives one paradigm's sessions directly.
pub struct Shadow {
    pub paradigm: Paradigm,
    feeds: Vec<Feed>,
    codec: AerCodec,
    sessions: Vec<ShadowSession>,
    pub times: LayerTimes,
    clk: Clock,
    buf: Vec<u64>,
    events: Vec<Event>,
    released: Vec<Event>,
}

impl Shadow {
    /// `layers` adds the timed replica (traced runs).
    pub fn new(
        p: Paradigm,
        w: &Workload,
        models: &Models,
        feeds: Vec<Feed>,
        layers: bool,
    ) -> Result<Self, EvlabError> {
        let mut sessions = Vec::with_capacity(feeds.len());
        for _ in 0..feeds.len() {
            let mut clf = models.classifier(p)?;
            clf.begin_session();
            sessions.push(ShadowSession {
                clf,
                reorder: w.reorder_skew_us.map(ReorderBuffer::new),
                ops: OpCount::new(),
                history: Vec::new(),
                marks: Vec::new(),
                last_fp: 0,
                replica: layers.then(|| Replica::new(p, models)),
                polled: Fnv::default(),
                replicated: Fnv::default(),
            });
        }
        Ok(Shadow {
            paradigm: p,
            feeds,
            codec: AerCodec::new(RES),
            sessions,
            times: LayerTimes::default(),
            clk: Clock {
                cost: clock_cost_ns(),
            },
            buf: Vec::new(),
            events: Vec::new(),
            released: Vec::new(),
        })
    }

    /// Drives the words of one served slice; `timed` accumulates layer
    /// times. `last` flushes as the served path does at end of stream.
    pub fn replay_slice(
        &mut self,
        w: &Workload,
        libs: &Libraries,
        n: usize,
        last: bool,
        timed: bool,
    ) -> Result<(), EvlabError> {
        let mut scratch = LayerTimes::default();
        for _ in 0..n {
            for k in 0..self.sessions.len() {
                self.buf.clear();
                let feed = &mut self.feeds[k];
                if w.durable {
                    feed.next_words(&libs.0[feed.library], DURABLE_GROUP, &mut self.buf);
                } else {
                    feed.next_tick(&libs.0[feed.library], &mut self.buf);
                }
                self.drive_words(k, if timed { None } else { Some(&mut scratch) })?;
            }
        }
        if last && !w.durable {
            for k in 0..self.sessions.len() {
                self.flush(k)?;
            }
        }
        for s in &mut self.sessions {
            s.marks.push((s.history.len(), s.last_fp));
        }
        Ok(())
    }

    fn drive_words(
        &mut self,
        k: usize,
        scratch: Option<&mut LayerTimes>,
    ) -> Result<(), EvlabError> {
        let lt = match scratch {
            Some(s) => s,
            None => &mut self.times,
        };
        let clk = &self.clk;
        let s = &mut self.sessions[k];
        let a = Instant::now();
        self.events.clear();
        for &word in &self.buf {
            // The served path quarantines undecodable words; none occur.
            if let Ok(e) = self.codec.decode(word) {
                self.events.push(e);
            }
        }
        lt.decode_ns += clk.since(a);
        lt.decode_words += self.buf.len() as u64;
        self.released.clear();
        match &mut s.reorder {
            Some(rb) => {
                let a = Instant::now();
                for &e in &self.events {
                    rb.push(e, &mut self.released);
                    lt.held_max = lt.held_max.max(rb.len());
                }
                lt.reorder_ns += clk.since(a);
                lt.reorder_events += self.events.len() as u64;
            }
            None => std::mem::swap(&mut self.events, &mut self.released),
        }
        let a = Instant::now();
        for &e in &self.released {
            s.clf.push_event(e, &mut s.ops)?;
            if let Some(mut d) = s.clf.poll_decision() {
                d.sanitize();
                let f = decision_fp(&d);
                s.history.push((d.t_us, d.class));
                s.last_fp = f;
                s.polled.add(f);
            }
        }
        lt.direct_ns += clk.since(a);
        lt.direct_events += self.released.len() as u64;
        if let Some(r) = &mut s.replica {
            let mut ops = OpCount::new();
            for &e in &self.released {
                if let Some(f) = r.push(e, &mut ops, lt, clk) {
                    s.replicated.add(f);
                }
            }
        }
        Ok(())
    }

    fn flush(&mut self, k: usize) -> Result<(), EvlabError> {
        let s = &mut self.sessions[k];
        self.released.clear();
        if let Some(rb) = &mut s.reorder {
            rb.flush(&mut self.released);
        }
        let record = |s: &mut ShadowSession, mut d: Decision| {
            d.sanitize();
            s.last_fp = decision_fp(&d);
            s.history.push((d.t_us, d.class));
        };
        for &e in &self.released {
            s.clf.push_event(e, &mut s.ops)?;
            if let Some(d) = s.clf.poll_decision() {
                s.polled.add(decision_fp(&d));
                record(s, d);
            }
            if let Some(r) = &mut s.replica {
                let mut ops = OpCount::new();
                if let Some(f) = r.push(e, &mut ops, &mut LayerTimes::default(), &self.clk) {
                    s.replicated.add(f);
                }
            }
        }
        if let Some(d) = s.clf.flush(&mut s.ops)? {
            record(s, d);
        }
        Ok(())
    }

    /// Session `k`'s decision log and slice marks, for the gate.
    pub fn side(&self, k: usize) -> Side<'_> {
        Side {
            history: &self.sessions[k].history,
            marks: &self.sessions[k].marks,
        }
    }

    /// Whether every replica made exactly the classifier's decisions.
    pub fn replica_matches(&self) -> Result<(), String> {
        for (k, s) in self.sessions.iter().enumerate() {
            if s.replica.is_some() && s.polled.0 != s.replicated.0 {
                return Err(format!(
                    "session {k}: layer replay {:016x} vs OnlineClassifier {:016x}",
                    s.replicated.0, s.polled.0
                ));
            }
        }
        Ok(())
    }

    /// Bytes of the GNN engine's state per live node (first session).
    pub fn gnn_state_bytes_per_node(&self) -> Option<f64> {
        match self.sessions.first()?.replica.as_ref()? {
            Replica::Gnn(r) => {
                let mut enc = Encoder::new();
                r.engine.save_state(&mut enc);
                Some(enc.as_bytes().len() as f64 / r.engine.node_count().max(1) as f64)
            }
            _ => None,
        }
    }
}
