//! One paradigm's served path: its runtime, sessions, feeds and the
//! busy-time clock its time-to-decision is measured on.

use std::path::Path;
use std::time::Instant;

use evlab_core::online::{OnlineClassifier, OnlineConfig, SessionBuilder};
use evlab_core::prelude::{CnnPipeline, GnnPipeline, SnnPipeline};
use evlab_serve::{
    Admission, CheckpointManager, DurableConfig, ServeConfig, ServeRuntime, SessionId,
};
use evlab_util::{EvlabError, Rng64};

use crate::feed::{pan_recordings, shape_recordings, word_t, Feed, Recording, RES, SHAPE_CLASSES};
use crate::gate::Side;
use crate::hist::LogHist;
use crate::trace::{SpanKind, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Paradigm {
    Snn,
    Cnn,
    Gnn,
}

pub const PARADIGMS: [Paradigm; 3] = [Paradigm::Snn, Paradigm::Cnn, Paradigm::Gnn];

impl Paradigm {
    pub fn name(self) -> &'static str {
        match self {
            Paradigm::Snn => "snn",
            Paradigm::Cnn => "cnn",
            Paradigm::Gnn => "gnn",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The three fitted pipelines every session clones its weights from.
pub struct Models {
    pub snn: SnnPipeline,
    pub cnn: CnnPipeline,
    pub gnn: GnnPipeline,
}

impl Models {
    /// A fresh session classifier with the serving defaults (2 ms CNN
    /// window, the GNN pipeline's node bound).
    pub fn classifier(&self, p: Paradigm) -> Result<Box<dyn OnlineClassifier + Send>, EvlabError> {
        let b = SessionBuilder::new(OnlineConfig::new(RES));
        match p {
            Paradigm::Snn => b.snn(&self.snn),
            Paradigm::Cnn => b.cnn(&self.cnn),
            Paradigm::Gnn => b.gnn(&self.gnn),
        }
        .build()
    }
}

/// Words per `CheckpointManager::ingest` group in `durable`: the
/// `DurableConfig::new` drain cadence, so every group ends in a tick.
pub const DURABLE_GROUP: usize = 8;
/// `DurableConfig::new`'s snapshot cadence, taken by explicit calls.
pub const DURABLE_SNAPSHOT_WORDS: u64 = 64;

/// Static description of a workload.
pub struct Workload {
    pub name: &'static str,
    /// Sessions per paradigm.
    pub sessions: usize,
    /// How many of them watch the egomotion pan instead of shapes.
    pub pans: usize,
    /// Sensor time handed in per tick (replay, fanin).
    pub tick_us: u64,
    /// Upper bound of the per-word timestamp delay.
    pub jitter_us: u64,
    pub reorder_skew_us: Option<u64>,
    pub durable: bool,
    /// Ticks (durable: ingest groups) per slice, per paradigm: sized so a
    /// round of three slices lasts 100–150 ms on the reference host.
    pub slice_ticks: [usize; 3],
}

/// Serve queue depth and quantum for replay and fanin: far above the
/// words one session receives in a tick, so nothing is shed and every
/// tick empties every queue.
const QUEUE: usize = 4_096;

impl Workload {
    pub fn serve_config(&self) -> ServeConfig {
        let c = if self.durable {
            ServeConfig::new()
        } else {
            ServeConfig::new()
                .with_queue_depth(QUEUE)
                .with_quantum(QUEUE)
        };
        match self.reorder_skew_us {
            Some(s) => c.with_reorder_skew(s),
            None => c,
        }
    }
}

/// Recordings of one workload: `[shapes, pans]`.
pub struct Libraries(pub [Vec<Recording>; 2]);

impl Libraries {
    pub fn render(w: &Workload, seed: u64, shapes_per_class: usize, pans: usize) -> Self {
        // durable groups words, not sensor time; any tick span works.
        let tick_us = w.tick_us;
        let shapes = shape_recordings(seed, shapes_per_class, tick_us, w.jitter_us);
        let pans = if w.pans > 0 {
            pan_recordings(seed, pans, tick_us, w.jitter_us)
        } else {
            Vec::new()
        };
        Libraries([shapes, pans])
    }

    /// One feed per session. Pan sessions are drawn from the seed; shape
    /// sessions start their class rotation at staggered phases.
    pub fn feeds(&self, w: &Workload, seed: u64) -> Vec<Feed> {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xFEED_5E55);
        let mut ids: Vec<usize> = (0..w.sessions).collect();
        rng.shuffle(&mut ids);
        let pan_ids = &ids[..w.pans];
        (0..w.sessions)
            .map(|s| {
                if pan_ids.contains(&s) {
                    Feed::new(1, 1, self.0[1].len(), 0, &mut rng)
                } else {
                    Feed::new(
                        0,
                        SHAPE_CLASSES,
                        self.0[0].len() / SHAPE_CLASSES,
                        s,
                        &mut rng,
                    )
                }
            })
            .collect()
    }
}

/// A block of rounds closes once it spans at least this many rounds, holds
/// at least `BLOCK_DECISIONS` decisions, so its p99 has ten samples beyond
/// it, and spans at least `BLOCK_TICKS` of the paradigm's ticks, so its
/// percentiles do not rest on a few tick-long windows (the `fanin` GNN
/// serves one tick a round, and its decisions wait three ticks). The
/// time-to-decision figures are medians over a run's blocks of each
/// block's percentile.
const BLOCK_ROUNDS: usize = 5;
const BLOCK_DECISIONS: u64 = 1_000;
const BLOCK_TICKS: u64 = 10;

const TS_RING: usize = 1 << 13;
const HANDIN_RING: usize = 1 << 14;

/// Maps a word timestamp (µs) to the tick that handed the word in, for
/// the last `TS_RING` µs of a session's sensor time. A later word with
/// the same timestamp overwrites an earlier one.
struct TsRing(Vec<(u32, u32)>);

impl TsRing {
    fn new() -> Self {
        TsRing(vec![(u32::MAX, 0); TS_RING])
    }

    #[inline]
    fn put(&mut self, t: u64, tick: u32) {
        self.0[t as usize & (TS_RING - 1)] = (t as u32, tick);
    }

    #[inline]
    fn get(&self, t: u64) -> Option<u32> {
        let (tl, tick) = self.0[t as usize & (TS_RING - 1)];
        (tl == t as u32).then_some(tick)
    }
}

/// One paradigm's served path.
pub struct Lane {
    pub paradigm: Paradigm,
    pub rt: ServeRuntime,
    pub ids: Vec<SessionId>,
    pub feeds: Vec<Feed>,
    pub cm: Option<CheckpointManager>,
    /// Words handed in, per session.
    pub words: Vec<u64>,
    /// `Admission::RejectedFull` answers, per session.
    pub rejected_full: Vec<u64>,
    /// Busy time in reference ns: wall time inside this paradigm's
    /// slices only, each slice's times its `host::Reference` scale.
    pub busy_ns: u64,
    /// The same busy time in wall ns.
    pub wall_ns: u64,
    pub ticks: u64,
    handin_ns: Vec<u64>,
    rings: Vec<TsRing>,
    seen: Vec<usize>,
    /// Time to decision over the whole run (closed blocks only), in
    /// reference ns.
    pub ttd: LogHist,
    pub unresolved: u64,
    block_ttd: LogHist,
    block_rounds: usize,
    block_start_tick: u64,
    /// `(p50, p99)` of each closed block, in reference ns.
    pub blocks: Vec<(f64, f64)>,
    last_block: LogHist,
    pub checkpoint_ns: LogHist,
    /// Per session, per slice: history length and the fingerprint of the
    /// newest decision at the slice end (for the correctness gate).
    pub marks: Vec<Vec<(usize, u64)>>,
    buf: Vec<u64>,
}

impl Lane {
    pub fn open(
        p: Paradigm,
        w: &Workload,
        models: &Models,
        feeds: Vec<Feed>,
        dir: &Path,
    ) -> Result<Self, EvlabError> {
        let mut rt = ServeRuntime::new(w.serve_config());
        let mut ids = Vec::with_capacity(w.sessions);
        for _ in 0..w.sessions {
            ids.push(rt.open_session(models.classifier(p)?, RES)?);
        }
        let cm = if w.durable {
            let mut cm = CheckpointManager::new(
                DurableConfig::new(dir.join(p.name())).with_cadence_words(0),
            )?;
            for &id in &ids {
                cm.attach(&rt, id)?;
            }
            Some(cm)
        } else {
            None
        };
        let n = ids.len();
        Ok(Lane {
            paradigm: p,
            rt,
            ids,
            feeds,
            cm,
            words: vec![0; n],
            rejected_full: vec![0; n],
            busy_ns: 0,
            wall_ns: 0,
            ticks: 0,
            handin_ns: vec![0; HANDIN_RING],
            rings: (0..n).map(|_| TsRing::new()).collect(),
            seen: vec![0; n],
            ttd: LogHist::new(),
            unresolved: 0,
            block_ttd: LogHist::new(),
            block_rounds: 0,
            block_start_tick: 0,
            blocks: Vec::new(),
            last_block: LogHist::new(),
            checkpoint_ns: LogHist::new(),
            marks: vec![Vec::new(); n],
            buf: Vec::with_capacity(1_024),
        })
    }

    /// Serves one slice: `n` ticks (durable: `n` ingest groups), then, when
    /// `last`, the end-of-stream drain and flush. The busy clock advances
    /// by wall time times `scale`.
    pub fn run_slice(
        &mut self,
        w: &Workload,
        libs: &Libraries,
        n: usize,
        last: bool,
        mut tr: Option<&mut Tracer>,
        scale: f64,
    ) -> Result<(), EvlabError> {
        let t0 = Instant::now();
        let busy0 = self.busy_ns;
        let now = |t0: &Instant| busy0 + (t0.elapsed().as_nanos() as f64 * scale) as u64;
        let p = self.paradigm.index() as u8;
        if let Some(tr) = tr.as_deref_mut() {
            tr.begin_slice(p);
        }
        for _ in 0..n {
            let tick = self.ticks as u32;
            self.handin_ns[self.ticks as usize % HANDIN_RING] = now(&t0);
            if w.durable {
                self.durable_group(libs, tick, tr.as_deref_mut())?;
                self.collect(now(&t0));
                // Snapshots run after the group's decisions became visible;
                // only decisions still pending absorb them.
                self.durable_snapshots(tick, tr.as_deref_mut())?;
            } else {
                for k in 0..self.ids.len() {
                    self.buf.clear();
                    let feed = &mut self.feeds[k];
                    feed.next_tick(&libs.0[feed.library], &mut self.buf);
                    let g0 = tr.as_ref().map(|tr| tr.now());
                    let (id, ring) = (self.ids[k], &mut self.rings[k]);
                    let mut rejected = 0;
                    for &word in &self.buf {
                        ring.put(word_t(word), tick);
                        if self.rt.ingest_aer(id, word) == Admission::RejectedFull {
                            rejected += 1;
                        }
                    }
                    self.rejected_full[k] += rejected;
                    self.words[k] += self.buf.len() as u64;
                    if let (Some(tr), Some(g0)) = (tr.as_deref_mut(), g0) {
                        tr.span(SpanKind::Ingest, k, tick, g0, self.buf.len());
                    }
                }
                let g0 = tr.as_ref().map(|tr| tr.now());
                self.rt.tick();
                if let (Some(tr), Some(g0)) = (tr.as_deref_mut(), g0) {
                    tr.span(SpanKind::Tick, usize::MAX, tick, g0, 0);
                }
            }
            self.collect(now(&t0));
            self.ticks += 1;
        }
        if last && !w.durable {
            // End of stream: flush what reorder buffers and CNN windows
            // still hold. Durable sessions are left mid-stream, as a crash
            // would leave them, so recovery can be compared.
            let g0 = tr.as_ref().map(|tr| tr.now());
            self.rt.drain_all();
            self.rt.flush_all()?;
            if let (Some(tr), Some(g0)) = (tr.as_deref_mut(), g0) {
                tr.span(SpanKind::Flush, usize::MAX, self.ticks as u32, g0, 0);
            }
            self.collect(now(&t0));
        }
        self.busy_ns = now(&t0);
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        if let Some(tr) = tr {
            tr.end_slice();
        }
        for (k, &id) in self.ids.iter().enumerate() {
            let s = self.rt.session(id).expect("lane session");
            let fp = s.last_decision().map_or(0, crate::gate::decision_fp);
            self.marks[k].push((s.history().len(), fp));
        }
        Ok(())
    }

    /// One durable ingest group: `DURABLE_GROUP` words through the
    /// checkpoint manager; the last one ticks.
    fn durable_group(
        &mut self,
        libs: &Libraries,
        tick: u32,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), EvlabError> {
        let cm = self
            .cm
            .as_mut()
            .expect("durable lane has a checkpoint manager");
        for k in 0..self.ids.len() {
            self.buf.clear();
            let feed = &mut self.feeds[k];
            feed.next_words(&libs.0[feed.library], DURABLE_GROUP, &mut self.buf);
            let g0 = tr.as_ref().map(|tr| tr.now());
            let id = self.ids[k];
            for &word in &self.buf {
                self.rings[k].put(word_t(word), tick);
                if cm.ingest(&mut self.rt, id, word)? == Admission::RejectedFull {
                    self.rejected_full[k] += 1;
                }
            }
            self.words[k] += self.buf.len() as u64;
            if let (Some(tr), Some(g0)) = (tr.as_deref_mut(), g0) {
                tr.span(SpanKind::DurableIngest, k, tick, g0, self.buf.len());
            }
        }
        Ok(())
    }

    /// Explicit snapshots on the `DurableConfig::new` cadence, each timed.
    fn durable_snapshots(
        &mut self,
        tick: u32,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), EvlabError> {
        let cm = self
            .cm
            .as_mut()
            .expect("durable lane has a checkpoint manager");
        for (k, &id) in self.ids.iter().enumerate() {
            if self.words[k].is_multiple_of(DURABLE_SNAPSHOT_WORDS) {
                let c0 = Instant::now();
                let g0 = tr.as_ref().map(|tr| tr.now());
                cm.checkpoint(&mut self.rt, id)?;
                self.checkpoint_ns.record(c0.elapsed().as_nanos() as u64);
                if let (Some(tr), Some(g0)) = (tr.as_deref_mut(), g0) {
                    tr.span(SpanKind::Checkpoint, k, tick, g0, 0);
                }
            }
        }
        Ok(())
    }

    /// Times every decision that became visible since the last call: from
    /// the hand-in of its last contributing word (found by timestamp) to
    /// `done`, both on this paradigm's busy clock.
    fn collect(&mut self, done: u64) {
        let current = self.ticks as u32;
        for (k, &id) in self.ids.iter().enumerate() {
            let history = self.rt.session(id).expect("lane session").history();
            for &(t, _) in &history[self.seen[k]..] {
                match self.rings[k].get(t) {
                    Some(tick) if (current.wrapping_sub(tick) as usize) < HANDIN_RING => {
                        let hand = self.handin_ns[tick as usize % HANDIN_RING];
                        self.block_ttd.record(done - hand);
                    }
                    _ => self.unresolved += 1,
                }
            }
            self.seen[k] = history.len();
        }
    }

    /// Ends one round of timed slices, closing the current block when it is
    /// big enough. At the end of the run a remainder too small to stand
    /// alone is merged into the last block.
    pub fn end_round(&mut self, last: bool) {
        self.block_rounds += 1;
        let full = self.block_rounds >= BLOCK_ROUNDS
            && self.block_ttd.count() >= BLOCK_DECISIONS
            && self.ticks - self.block_start_tick >= BLOCK_TICKS;
        if !full && !last {
            return;
        }
        let mut hist = std::mem::take(&mut self.block_ttd);
        self.ttd.merge(&hist);
        if !full && self.blocks.pop().is_some() {
            hist.merge(&self.last_block);
        }
        self.blocks.push((
            hist.quantile(0.5).unwrap_or(0.0),
            hist.quantile(0.99).unwrap_or(0.0),
        ));
        self.last_block = hist;
        self.block_rounds = 0;
        self.block_start_tick = self.ticks;
    }

    /// Session `k`'s decision log and slice marks over its first `slices`
    /// slices, for the correctness gate.
    pub fn side(&self, k: usize, slices: usize) -> Side<'_> {
        let marks = &self.marks[k][..slices];
        let n = marks.last().map_or(0, |x| x.0);
        let session = self.rt.session(self.ids[k]).expect("lane session");
        Side {
            history: &session.history()[..n],
            marks,
        }
    }

    /// Events the paradigm's classifiers consumed.
    pub fn processed(&self) -> u64 {
        self.ids
            .iter()
            .map(|&id| self.rt.session(id).expect("lane session").stats().processed)
            .sum()
    }

    pub fn decisions(&self) -> u64 {
        self.ids
            .iter()
            .map(|&id| self.rt.session(id).expect("lane session").history().len() as u64)
            .sum()
    }
}
