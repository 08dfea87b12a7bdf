//! One client session: an ingress queue feeding an online classifier.
//!
//! A session owns everything it touches — its [`BoundedQueue`], its
//! [`OnlineClassifier`] (network weights cloned from the trained
//! pipeline), its op counter, and its statistics — so the runtime can hand
//! whole sessions to worker threads with no shared mutable state and no
//! locks on the hot path.

use std::time::Instant;

use evlab_core::online::{
    load_opt_decision, save_opt_decision, Decision, OnlineClassifier,
};
use evlab_events::aer::AerCodec;
use evlab_events::reorder::ReorderBuffer;
use evlab_events::Event;
use evlab_tensor::OpCount;
use evlab_util::check::{self, Invariant, Report};
use evlab_util::frame::{Decoder, Encoder, FrameError, StateSnapshot};
use evlab_util::{obs, EvlabError};

use crate::queue::{Admission, BoundedQueue, DropPolicy};
use crate::runtime::SupervisorPolicy;

/// Identifies a session within one [`crate::runtime::ServeRuntime`].
pub type SessionId = usize;

/// Per-session ingress / processing / shedding counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Events offered at ingress (accepted + shed).
    pub offered: u64,
    /// Events admitted to the queue.
    pub accepted: u64,
    /// Queued events evicted by drop-oldest.
    pub shed_oldest: u64,
    /// Incoming events rejected by a full queue (drop-newest).
    pub shed_newest: u64,
    /// Incoming events shed by the rate controller.
    pub shed_rate: u64,
    /// Events pushed into the classifier.
    pub processed: u64,
    /// Decisions produced (per-event polls plus flushes).
    pub decisions: u64,
    /// Malformed AER words quarantined at decode (never became events).
    pub quarantined: u64,
    /// Events quarantined by the reorder buffer for arriving later than
    /// the configured skew tolerance.
    pub late_dropped: u64,
    /// Supervisor restarts after classifier failures.
    pub restarts: u64,
    /// Decisions whose logits contained NaN/Inf and were repaired.
    pub nonfinite_decisions: u64,
}

impl SessionStats {
    /// Total events shed by any mechanism.
    pub fn shed(&self) -> u64 {
        self.shed_oldest + self.shed_newest + self.shed_rate
    }
}

/// A single client's streaming classification session.
pub struct Session {
    id: SessionId,
    queue: BoundedQueue,
    classifier: Box<dyn OnlineClassifier + Send>,
    codec: AerCodec,
    ops: OpCount,
    stats: SessionStats,
    /// Compact decision log `(t_us, class)` — enough to compare runs for
    /// determinism without retaining every logit vector.
    history: Vec<(u64, usize)>,
    /// Event-to-decision latencies (µs), queueing delay included.
    latencies_us: Vec<f64>,
    last_decision: Option<Decision>,
    /// Enqueue instant of the oldest event not yet covered by a decision.
    oldest_pending: Option<Instant>,
    /// Bounded-skew timestamp repair between the queue and the classifier
    /// (`ServeConfig::reorder_skew_us`); `None` keeps strict-order ingress.
    reorder: Option<ReorderBuffer>,
    /// Supervisor restarts performed so far.
    restarts: u32,
    /// Ticks left before the supervisor retries a failed session.
    cooldown: Option<u32>,
    error: Option<EvlabError>,
    open: bool,
}

impl Session {
    /// Opens a session: the classifier's state is reset and ingress
    /// expects AER words (or decoded events) for `resolution`.
    ///
    /// # Errors
    ///
    /// Returns an error if `resolution` cannot be AER-encoded.
    pub fn open(
        id: SessionId,
        mut classifier: Box<dyn OnlineClassifier + Send>,
        resolution: (u16, u16),
        queue_depth: usize,
        policy: DropPolicy,
    ) -> Result<Self, EvlabError> {
        let codec = AerCodec::try_new(resolution).map_err(EvlabError::decode_aer)?;
        classifier.begin_session();
        obs::counter_add("serve.session.opened", 1);
        Ok(Session {
            id,
            queue: BoundedQueue::new(queue_depth, policy),
            classifier,
            codec,
            ops: OpCount::new(),
            stats: SessionStats::default(),
            history: Vec::new(),
            latencies_us: Vec::new(),
            last_decision: None,
            oldest_pending: None,
            reorder: None,
            restarts: 0,
            cooldown: None,
            error: None,
            open: true,
        })
    }

    /// Enables bounded-skew timestamp repair: events popped from the queue
    /// pass through an `evlab_events::reorder::ReorderBuffer` before
    /// reaching the classifier, so ingress disorder up to `skew_us` no
    /// longer fails the session. Hopelessly late events are quarantined
    /// (`SessionStats::late_dropped`).
    pub fn with_reorder_skew(mut self, skew_us: u64) -> Self {
        self.reorder = Some(ReorderBuffer::new(skew_us));
        self
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The paradigm name of the classifier being served.
    pub fn paradigm(&self) -> &'static str {
        self.classifier.name()
    }

    /// Ingress/processing counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Operations performed by this session's classifier so far.
    pub fn ops(&self) -> &OpCount {
        &self.ops
    }

    /// Events currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The AER codec for this session's resolution.
    pub fn codec(&self) -> &AerCodec {
        &self.codec
    }

    /// The newest decision, if any.
    pub fn last_decision(&self) -> Option<&Decision> {
        self.last_decision.as_ref()
    }

    /// The full `(t_us, class)` decision log.
    pub fn history(&self) -> &[(u64, usize)] {
        &self.history
    }

    /// Recorded event-to-decision latencies in microseconds.
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }

    /// The error that failed this session, if any. A failed session stops
    /// processing but keeps its statistics and history readable.
    pub fn error(&self) -> Option<&EvlabError> {
        self.error.as_ref()
    }

    /// Whether the session still accepts and processes events.
    pub fn is_active(&self) -> bool {
        self.open && self.error.is_none()
    }

    /// Offers one decoded event at ingress.
    pub fn offer(&mut self, event: Event) -> Admission {
        self.offer_at(event, Instant::now())
    }

    /// Offers one AER-encoded word at ingress, decoding it first.
    ///
    /// # Errors
    ///
    /// Returns an error if the word does not decode for this session's
    /// resolution; malformed ingress does not fail the session.
    pub fn offer_aer(&mut self, word: u64) -> Result<Admission, EvlabError> {
        let event = self.codec.decode(word).map_err(EvlabError::decode_aer)?;
        Ok(self.offer(event))
    }

    /// Offers one AER word, quarantining malformed words instead of
    /// erroring: the degraded-ingress entry point for faulted transports.
    /// An undecodable word is counted (`SessionStats::quarantined`,
    /// `ingest.quarantined`) and reported as [`Admission::Quarantined`];
    /// the session keeps serving.
    pub fn ingest_aer(&mut self, word: u64) -> Admission {
        match self.codec.decode(word) {
            Ok(event) => self.offer(event),
            Err(_) => {
                self.stats.quarantined += 1;
                obs::counter_add("ingest.quarantined", 1);
                Admission::Quarantined
            }
        }
    }

    fn offer_at(&mut self, event: Event, now: Instant) -> Admission {
        if !self.is_active() {
            return Admission::RejectedFull;
        }
        self.stats.offered += 1;
        obs::counter_add("serve.queue.offered", 1);
        let admission = self.queue.offer(event, now);
        match admission {
            Admission::Accepted => {
                self.stats.accepted += 1;
                obs::counter_add("serve.queue.accepted", 1);
            }
            Admission::Evicted => {
                // The incoming event was admitted; the *oldest* was shed.
                self.stats.accepted += 1;
                self.stats.shed_oldest += 1;
                obs::counter_add("serve.queue.accepted", 1);
                obs::counter_add("serve.shed.oldest", 1);
            }
            Admission::RejectedFull => {
                self.stats.shed_newest += 1;
                obs::counter_add("serve.shed.newest", 1);
            }
            Admission::RejectedRate => {
                self.stats.shed_rate += 1;
                obs::counter_add("serve.shed.rate", 1);
            }
            // Quarantine happens at decode, before the queue; a decoded
            // event can never surface it here.
            Admission::Quarantined => {}
        }
        check::run(self);
        admission
    }

    /// Processes up to `quantum` queued events through the classifier,
    /// returning how many were consumed. Called by the runtime's
    /// round-robin scheduler; bounding the quantum is what gives
    /// co-scheduled sessions fairness.
    pub fn drain(&mut self, quantum: usize) -> usize {
        if !self.is_active() {
            return 0;
        }
        let mut consumed = 0usize;
        let mut released: Vec<Event> = Vec::new();
        while consumed < quantum {
            let Some((event, enqueued)) = self.queue.pop() else {
                break;
            };
            if self.oldest_pending.is_none() {
                self.oldest_pending = Some(enqueued);
            }
            released.clear();
            match &mut self.reorder {
                Some(buf) => {
                    let late_before = buf.late_dropped();
                    buf.push(event, &mut released);
                    self.stats.late_dropped += buf.late_dropped() - late_before;
                }
                None => released.push(event),
            }
            if !self.push_released(&released) {
                break;
            }
            consumed += 1;
        }
        self.stats.processed += consumed as u64;
        check::run(self);
        consumed
    }

    /// Pushes reorder-released events into the classifier, recording any
    /// decisions. Returns `false` when the classifier failed (the session
    /// is marked failed).
    fn push_released(&mut self, released: &[Event]) -> bool {
        for e in released {
            if let Err(err) = self.classifier.push_event(*e, &mut self.ops) {
                self.error = Some(err);
                obs::counter_add("serve.session.errors", 1);
                return false;
            }
            if let Some(decision) = self.classifier.poll_decision() {
                self.record_decision(decision);
            }
        }
        true
    }

    /// Forces a decision from the classifier's accumulated state (e.g. a
    /// partial CNN window). Queued events are not consumed.
    ///
    /// # Errors
    ///
    /// Returns the classifier's error; the session is marked failed.
    pub fn flush(&mut self) -> Result<Option<Decision>, EvlabError> {
        if !self.is_active() {
            return Ok(None);
        }
        // Drain the reorder buffer first: the skew window it was holding
        // back belongs to this session's accumulated state.
        if let Some(buf) = &mut self.reorder {
            let mut released = Vec::new();
            buf.flush(&mut released);
            if !self.push_released(&released) {
                return Err(EvlabError::serve("flush failed: classifier error on reordered tail"));
            }
        }
        let result = match self.classifier.flush(&mut self.ops) {
            Ok(Some(decision)) => {
                self.record_decision(decision.clone());
                Ok(Some(decision))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.error = Some(EvlabError::serve(format!("flush failed: {e}")));
                obs::counter_add("serve.session.errors", 1);
                Err(e)
            }
        };
        check::run(self);
        result
    }

    /// Closes the session; further offers are rejected.
    pub fn close(&mut self) {
        if self.open {
            self.open = false;
            obs::counter_add("serve.session.closed", 1);
        }
    }

    /// The supervisor restarts performed on this session so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// One supervision step, called by the runtime once per tick when a
    /// [`SupervisorPolicy`] is configured. A failed session waits out its
    /// backoff (doubling with each restart), then restarts: the error is
    /// cleared and the classifier begins a fresh session, while history,
    /// statistics and the last decision survive as the last-good
    /// checkpoint. Returns whether a restart happened this step.
    pub(crate) fn supervise(&mut self, policy: SupervisorPolicy) -> bool {
        if !self.open || self.error.is_none() || self.restarts >= policy.max_restarts {
            return false;
        }
        let backoff = policy
            .backoff_ticks
            .saturating_mul(1u32 << self.restarts.min(16));
        let cooldown = self.cooldown.get_or_insert(backoff);
        if *cooldown > 0 {
            *cooldown -= 1;
            return false;
        }
        self.cooldown = None;
        self.error = None;
        self.restarts += 1;
        self.stats.restarts += 1;
        self.classifier.begin_session();
        if let Some(buf) = &mut self.reorder {
            buf.reset();
        }
        obs::counter_add("serve.supervisor.restarts", 1);
        check::run(self);
        true
    }

    /// Whether a supervisor restart is scheduled (failed, with backoff
    /// still counting down).
    pub(crate) fn restart_pending(&self) -> bool {
        self.open && self.error.is_some() && self.cooldown.is_some()
    }

    /// Whether this session can be checkpointed: its classifier exposes
    /// durable state through
    /// [`evlab_util::frame::StateSnapshot`]. Adapter-served classifiers
    /// (e.g. `Batched`) are not durable.
    pub fn supports_snapshot(&self) -> bool {
        self.classifier.as_snapshot().is_some()
    }

    fn record_decision(&mut self, mut decision: Decision) {
        // NaN/Inf guard: corrupted ingress can poison activations; repair
        // to a valid (if low-confidence) decision and count the incident.
        if decision.sanitize() > 0 {
            self.stats.nonfinite_decisions += 1;
            obs::counter_add("serve.decision.nonfinite", 1);
        }
        if let Some(start) = self.oldest_pending.take() {
            self.latencies_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        self.stats.decisions += 1;
        obs::counter_add("serve.session.decisions", 1);
        self.history.push((decision.t_us, decision.class));
        self.last_decision = Some(decision);
    }
}

/// Machine-checked queue/state-machine legality ([`evlab_util::check`]):
/// run after every offer, drain, flush and supervisor restart, and
/// against every restored snapshot. All conservation laws hold across
/// restore too — the queue is not durable, which only slackens the
/// admission inequality, never inverts it.
impl Invariant for Session {
    fn invariant_name(&self) -> &'static str {
        "serve-session"
    }

    fn check_invariants(&self, r: &mut Report) {
        check_counters(
            r,
            &self.stats,
            self.history.len(),
            self.restarts,
            self.reorder.as_ref(),
            self.queue.len(),
        );
        r.require(self.queue.len() <= self.queue.capacity(), || {
            format!(
                "queue holds {} events, capacity {}",
                self.queue.len(),
                self.queue.capacity()
            )
        });
        r.require(
            self.latencies_us.len() as u64 <= self.stats.decisions,
            || {
                format!(
                    "{} latency samples exceed {} decisions",
                    self.latencies_us.len(),
                    self.stats.decisions
                )
            },
        );
        r.require(self.cooldown.is_none() || self.error.is_some(), || {
            "cooldown counting down without a live error".to_string()
        });
    }
}

/// The invariants over the state a snapshot restores, shared by a live
/// session and a decoded [`Restored`] candidate. `queued` counts the
/// events in the live queue, which a snapshot does not hold.
fn check_counters(
    r: &mut Report,
    s: &SessionStats,
    history_len: usize,
    restarts: u32,
    reorder: Option<&ReorderBuffer>,
    queued: usize,
) {
    // Every offered event is accounted for exactly once at ingress.
    r.require(
        s.offered == s.accepted + s.shed_newest + s.shed_rate,
        || {
            format!(
                "{} offered != {} accepted + {} shed_newest + {} shed_rate",
                s.offered, s.accepted, s.shed_newest, s.shed_rate
            )
        },
    );
    // Accepted events are still queued, processed, or shed-oldest; the
    // remainder is bounded by classifier failures (an event can be lost
    // mid-push when the classifier errors).
    r.require(
        s.accepted >= s.shed_oldest + s.processed + queued as u64,
        || {
            format!(
                "{} accepted < {} shed_oldest + {} processed + {queued} queued",
                s.accepted, s.shed_oldest, s.processed
            )
        },
    );
    r.require(s.decisions == history_len as u64, || {
        format!(
            "{} decisions but {history_len} history entries",
            s.decisions
        )
    });
    r.require(u64::from(restarts) == s.restarts, || {
        format!(
            "session counted {restarts} restarts, stats say {}",
            s.restarts
        )
    });
    if let Some(buf) = reorder {
        r.require(s.late_dropped >= buf.late_dropped(), || {
            format!(
                "stats late_dropped {} behind the buffer's {}",
                s.late_dropped,
                buf.late_dropped()
            )
        });
    }
}

/// Everything a session snapshot restores besides the classifier state,
/// decoded and checked in full before any of it replaces the live
/// session's.
struct Restored {
    reorder: Option<ReorderBuffer>,
    stats: SessionStats,
    history: Vec<(u64, usize)>,
    last_decision: Option<Decision>,
    ops: OpCount,
    restarts: u32,
    open: bool,
    /// Events in the live queue, which the restore keeps.
    queued: usize,
}

impl Invariant for Restored {
    fn invariant_name(&self) -> &'static str {
        "serve-session"
    }

    fn check_invariants(&self, r: &mut Report) {
        check_counters(
            r,
            &self.stats,
            self.history.len(),
            self.restarts,
            self.reorder.as_ref(),
            self.queued,
        );
    }
}

fn save_stats(s: &SessionStats, enc: &mut Encoder) {
    enc.put_u64(s.offered);
    enc.put_u64(s.accepted);
    enc.put_u64(s.shed_oldest);
    enc.put_u64(s.shed_newest);
    enc.put_u64(s.shed_rate);
    enc.put_u64(s.processed);
    enc.put_u64(s.decisions);
    enc.put_u64(s.quarantined);
    enc.put_u64(s.late_dropped);
    enc.put_u64(s.restarts);
    enc.put_u64(s.nonfinite_decisions);
}

fn load_stats(dec: &mut Decoder) -> Result<SessionStats, FrameError> {
    Ok(SessionStats {
        offered: dec.take_u64()?,
        accepted: dec.take_u64()?,
        shed_oldest: dec.take_u64()?,
        shed_newest: dec.take_u64()?,
        shed_rate: dec.take_u64()?,
        processed: dec.take_u64()?,
        decisions: dec.take_u64()?,
        quarantined: dec.take_u64()?,
        late_dropped: dec.take_u64()?,
        restarts: dec.take_u64()?,
        nonfinite_decisions: dec.take_u64()?,
    })
}

fn save_ops(o: &OpCount, enc: &mut Encoder) {
    enc.put_u64(o.macs);
    enc.put_u64(o.effective_macs);
    enc.put_u64(o.mults);
    enc.put_u64(o.adds);
    enc.put_u64(o.comparisons);
    enc.put_u64(o.mem_reads);
    enc.put_u64(o.mem_writes);
}

fn load_ops(dec: &mut Decoder) -> Result<OpCount, FrameError> {
    let mut o = OpCount::new();
    o.macs = dec.take_u64()?;
    o.effective_macs = dec.take_u64()?;
    o.mults = dec.take_u64()?;
    o.adds = dec.take_u64()?;
    o.comparisons = dec.take_u64()?;
    o.mem_reads = dec.take_u64()?;
    o.mem_writes = dec.take_u64()?;
    Ok(o)
}

/// Durable session state: the classifier's
/// [`StateSnapshot`] payload plus everything the session itself
/// accumulated (reorder buffer, statistics, decision history, supervisor
/// counters, op counts).
///
/// **Quiescence contract.** A snapshot captures the session *between*
/// events: the ingress queue is not serialized, so the caller must drain
/// it (e.g. `ServeRuntime::drain_all`) before saving — the checkpoint
/// manager enforces this. Events still queued at save time are not lost
/// by the format; they remain in the write-ahead log and are re-ingested
/// on replay. Wall-clock state ([`Session::latencies_us`], the pending
/// latency anchor) is measurement, not state, and resets on restore.
///
/// This snapshot carries the decision history inline, 16 bytes per
/// decision; a durable checkpoint keeps it in the decision journal
/// instead (see `crate::durable`). A failed restore leaves the session
/// untouched (see `Session::load_with`).
impl StateSnapshot for Session {
    fn state_kind(&self) -> &'static str {
        "serve-session"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.save_with(enc, |history, enc| {
            enc.put_u64(history.len() as u64);
            for &entry in history {
                put_history_entry(enc, entry);
            }
        });
    }

    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        self.load_with(dec, |dec| {
            let n = dec.take_u64()? as usize;
            if n > dec.remaining() / HISTORY_ENTRY_BYTES {
                return Err(dec.corrupt(format!("{n} history entries exceed the payload")));
            }
            (0..n).map(|_| take_history_entry(dec)).collect()
        })
    }
}

/// Bytes of one encoded `(t_us, class)` history entry.
pub(crate) const HISTORY_ENTRY_BYTES: usize = 16;

/// Encodes one `(t_us, class)` history entry: the inline snapshot block
/// and the decision journal share this encoding.
pub(crate) fn put_history_entry(enc: &mut Encoder, (t, class): (u64, usize)) {
    enc.put_u64(t);
    enc.put_u64(class as u64);
}

/// Decodes one entry written by [`put_history_entry`].
pub(crate) fn take_history_entry(dec: &mut Decoder) -> Result<(u64, usize), FrameError> {
    let t = dec.take_u64()?;
    let class = dec.take_u64()?;
    let class = usize::try_from(class)
        .map_err(|_| dec.corrupt(format!("decision class {class} overflows usize")))?;
    Ok((t, class))
}

impl Session {
    /// Writes the durable state: the one field list behind both the
    /// standalone [`StateSnapshot`] and the checkpoint payload. The two
    /// differ only in the decision-history block, which `history` writes
    /// given the whole history: inline entries here, the length and the
    /// journal CRC in a checkpoint (`crate::durable`).
    pub(crate) fn save_with(
        &self,
        enc: &mut Encoder,
        history: impl FnOnce(&[(u64, usize)], &mut Encoder),
    ) {
        // Classifier state, tagged with its own kind/version so a restore
        // into a session serving a different paradigm fails loudly.
        match self.classifier.as_snapshot() {
            Some(snap) => {
                enc.put_bool(true);
                enc.put_str(snap.state_kind());
                enc.put_u16(snap.state_version());
                snap.save_state(enc);
            }
            None => enc.put_bool(false),
        }
        match &self.reorder {
            Some(buf) => {
                enc.put_bool(true);
                buf.save_state(enc);
            }
            None => enc.put_bool(false),
        }
        save_stats(&self.stats, enc);
        history(&self.history, enc);
        save_opt_decision(&self.last_decision, enc);
        save_ops(&self.ops, enc);
        enc.put_u64(self.restarts as u64);
        enc.put_opt_u64(self.cooldown.map(u64::from));
        enc.put_bool(self.open);
    }

    /// Restores what [`Session::save_with`] wrote, with `history` decoding
    /// the history block its writer chose.
    ///
    /// A failed restore leaves the session untouched: everything after
    /// the classifier state is decoded and checked before any of it is
    /// committed, and the classifier state is put back if that fails.
    pub(crate) fn load_with(
        &mut self,
        dec: &mut Decoder,
        history: impl FnOnce(&mut Decoder) -> Result<Vec<(u64, usize)>, FrameError>,
    ) -> Result<(), FrameError> {
        let replaced = self.load_classifier(dec)?;
        let restored = match self.decode_restored(dec, history) {
            Ok(restored) => restored,
            Err(e) => {
                if let (Some(bytes), Some(snap)) = (replaced, self.classifier.as_snapshot_mut()) {
                    // A classifier always loads back state it saved itself.
                    let _ = snap.load_state(&mut Decoder::new(&bytes));
                }
                return Err(e);
            }
        };
        self.reorder = restored.reorder;
        self.stats = restored.stats;
        self.history = restored.history;
        self.last_decision = restored.last_decision;
        self.ops = restored.ops;
        self.restarts = restored.restarts;
        self.open = restored.open;
        // The cooldown counts down a live error's backoff, and the error
        // is not durable, so neither is restored: a kept cooldown would
        // leave a stale backoff that a future failure silently inherits.
        self.cooldown = None;
        self.error = None;
        // Wall-clock measurement state restarts with the process.
        self.latencies_us.clear();
        self.oldest_pending = None;
        Ok(())
    }

    /// Loads the classifier part of a session snapshot. The classifier's
    /// own load is atomic; its payload comes first and carries no length,
    /// so it is the only way past it. Returns the state it replaced, in
    /// the classifier's own format, for `load_state` to put back if the
    /// rest of the snapshot fails.
    fn load_classifier(&mut self, dec: &mut Decoder) -> Result<Option<Vec<u8>>, FrameError> {
        if !dec.take_bool()? {
            if self.classifier.as_snapshot().is_some() {
                return Err(dec.corrupt("snapshot has no classifier state, session expects it"));
            }
            return Ok(None);
        }
        let Some(snap) = self.classifier.as_snapshot_mut() else {
            return Err(dec.corrupt("snapshot has classifier state, session has none"));
        };
        let kind = dec.take_str()?.to_string();
        if kind != snap.state_kind() {
            return Err(FrameError::KindMismatch {
                expected: snap.state_kind().to_string(),
                found: kind,
            });
        }
        let version = dec.take_u16()?;
        if version != snap.state_version() {
            return Err(FrameError::StateVersionMismatch {
                expected: snap.state_version(),
                found: version,
            });
        }
        let mut replaced = Encoder::new();
        snap.save_state(&mut replaced);
        snap.load_state(dec)?;
        Ok(Some(replaced.into_bytes()))
    }

    /// Decodes everything after the classifier state and holds it to the
    /// session invariants, without touching the live session.
    fn decode_restored(
        &self,
        dec: &mut Decoder,
        history: impl FnOnce(&mut Decoder) -> Result<Vec<(u64, usize)>, FrameError>,
    ) -> Result<Restored, FrameError> {
        let mut reorder = self.reorder.clone();
        match (dec.take_bool()?, &mut reorder) {
            (true, Some(buf)) => buf.load_state(dec)?,
            (true, None) => {
                return Err(dec.corrupt("snapshot has a reorder buffer, session has none"))
            }
            (false, Some(_)) => {
                return Err(dec.corrupt("snapshot has no reorder buffer, session expects one"))
            }
            (false, None) => {}
        }
        let stats = load_stats(dec)?;
        let history = history(dec)?;
        let last_decision = load_opt_decision(dec)?;
        let ops = load_ops(dec)?;
        let restarts = dec.take_u64()?;
        let restarts = u32::try_from(restarts)
            .map_err(|_| dec.corrupt(format!("restart count {restarts} overflows u32")))?;
        // The recorded cooldown is consumed for format compatibility but
        // not restored (see `load_with`).
        if let Some(c) = dec.take_opt_u64()? {
            u32::try_from(c).map_err(|_| dec.corrupt(format!("cooldown {c} overflows u32")))?;
        }
        let restored = Restored {
            reorder,
            stats,
            history,
            last_decision,
            ops,
            restarts,
            open: dec.take_bool()?,
            queued: self.queue.len(),
        };
        if let Some(violation) = check::verify(&restored).into_iter().next() {
            return Err(dec.corrupt(format!("snapshot violates invariant: {violation}")));
        }
        Ok(restored)
    }
}
