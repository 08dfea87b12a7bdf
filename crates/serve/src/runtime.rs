//! The serving runtime: many sessions, one fair scheduler.
//!
//! [`ServeRuntime`] multiplexes concurrent [`Session`]s over the worker
//! threads of `evlab_util::par`. Scheduling is quantum-bounded round
//! robin: every [`ServeRuntime::tick`] lets each active session consume at
//! most [`ServeConfig::quantum`] queued events, so a flooding client can
//! never starve a trickling one — its excess waits in its own bounded
//! queue (and is shed there under overload, never in a shared buffer).
//!
//! Determinism: sessions own their classifiers and queues outright, each
//! is drained by exactly one worker per tick, and the quantum is fixed —
//! so the decision sequence of every session is a pure function of its
//! ingress, independent of `EVLAB_THREADS` (pinned by
//! `tests/par_equivalence.rs`).

use evlab_core::online::{Decision, OnlineClassifier};
use evlab_events::Event;
use evlab_util::{par, EvlabError};

use crate::queue::{Admission, DropPolicy};
use crate::session::{Session, SessionId};

/// Restart policy for failed sessions (retry with doubling backoff).
///
/// When configured on a [`ServeConfig`], the runtime supervises failed
/// sessions each [`ServeRuntime::tick`]: after `backoff_ticks` ticks
/// (doubling with every restart), the session's classifier begins a fresh
/// session while history, statistics and the last decision survive as the
/// last-good checkpoint, and queued events resume draining. After
/// `max_restarts` failures the session stays failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per session before it stays failed.
    pub max_restarts: u32,
    /// Ticks to wait before the first restart; doubles with each restart.
    pub backoff_ticks: u32,
}

impl SupervisorPolicy {
    /// Default: up to 3 restarts, first after 1 tick.
    pub fn new() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            backoff_ticks: 1,
        }
    }

    /// Returns a copy with a different restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Returns a copy with a different initial backoff.
    pub fn with_backoff_ticks(mut self, backoff_ticks: u32) -> Self {
        self.backoff_ticks = backoff_ticks;
        self
    }
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy::new()
    }
}

/// Runtime-wide serving parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Per-session ingress queue capacity in events.
    pub queue_depth: usize,
    /// Overload policy applied by every session's queue.
    pub policy: DropPolicy,
    /// Maximum events one session may consume per [`ServeRuntime::tick`].
    pub quantum: usize,
    /// Bounded-skew ingress repair: `Some(skew_us)` inserts a reorder
    /// buffer between each session's queue and classifier, so timestamp
    /// disorder up to `skew_us` degrades (late events quarantined) instead
    /// of failing the session. `None` (default) keeps strict-order
    /// ingress: an out-of-order event fails the session.
    pub reorder_skew_us: Option<u64>,
    /// Failed-session restart policy; `None` (default) leaves failed
    /// sessions failed.
    pub supervisor: Option<SupervisorPolicy>,
}

impl ServeConfig {
    /// Default: 256-event queues, drop-oldest, 64-event quantum, strict
    /// ingress order, no supervisor.
    pub fn new() -> Self {
        ServeConfig {
            queue_depth: 256,
            policy: DropPolicy::DropOldest,
            quantum: 64,
            reorder_skew_us: None,
            supervisor: None,
        }
    }

    /// Returns a copy with a different queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Returns a copy with a different drop policy.
    pub fn with_policy(mut self, policy: DropPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different scheduling quantum.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        self.quantum = quantum;
        self
    }

    /// Returns a copy with bounded-skew ingress reordering enabled.
    pub fn with_reorder_skew(mut self, skew_us: u64) -> Self {
        self.reorder_skew_us = Some(skew_us);
        self
    }

    /// Returns a copy with failed-session supervision enabled.
    pub fn with_supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = Some(policy);
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// Multiplexes concurrent streaming-classification sessions.
pub struct ServeRuntime {
    config: ServeConfig,
    sessions: Vec<Session>,
}

impl ServeRuntime {
    /// Creates an empty runtime.
    pub fn new(config: ServeConfig) -> Self {
        ServeRuntime {
            config,
            sessions: Vec::new(),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Opens a session serving `classifier` for streams of `resolution`,
    /// returning its id.
    ///
    /// # Errors
    ///
    /// Returns an error if the resolution cannot be AER-encoded.
    pub fn open_session(
        &mut self,
        classifier: Box<dyn OnlineClassifier + Send>,
        resolution: (u16, u16),
    ) -> Result<SessionId, EvlabError> {
        let id = self.sessions.len();
        let mut session = Session::open(
            id,
            classifier,
            resolution,
            self.config.queue_depth,
            self.config.policy,
        )?;
        if let Some(skew_us) = self.config.reorder_skew_us {
            session = session.with_reorder_skew(skew_us);
        }
        self.sessions.push(session);
        Ok(id)
    }

    /// All sessions, active and closed.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Looks up a session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(id)
    }

    /// Mutable session lookup for the durability layer.
    pub(crate) fn session_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.sessions.get_mut(id)
    }

    /// Offers one decoded event to a session's ingress queue.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn offer(&mut self, id: SessionId, event: Event) -> Admission {
        self.sessions[id].offer(event)
    }

    /// Offers one AER word to a session's ingress queue.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown session or an undecodable word.
    pub fn offer_aer(&mut self, id: SessionId, word: u64) -> Result<Admission, EvlabError> {
        self.sessions
            .get_mut(id)
            .ok_or_else(|| EvlabError::serve(format!("unknown session {id}")))?
            .offer_aer(word)
    }

    /// Offers one AER word to a session, quarantining malformed words
    /// instead of erroring (see [`Session::ingest_aer`]). Unknown sessions
    /// report [`Admission::RejectedFull`].
    pub fn ingest_aer(&mut self, id: SessionId, word: u64) -> Admission {
        self.sessions
            .get_mut(id)
            .map_or(Admission::RejectedFull, |s| s.ingest_aer(word))
    }

    /// Total events queued across all sessions.
    pub fn pending(&self) -> usize {
        self.sessions.iter().map(Session::queue_len).sum()
    }

    /// Runs one scheduling round: every active session consumes up to
    /// `quantum` queued events, sessions distributed across the worker
    /// threads of `evlab_util::par`. Returns total events processed.
    pub fn tick(&mut self) -> usize {
        let quantum = self.config.quantum;
        let before: u64 = self.sessions.iter().map(|s| s.stats().processed).sum();
        par::for_each_task(&mut self.sessions, |_, session| {
            session.drain(quantum);
        });
        // Supervision is sequential and after the drain: restart decisions
        // depend only on per-session state and the tick count, never on
        // worker scheduling, so recovery is deterministic.
        if let Some(policy) = self.config.supervisor {
            for session in &mut self.sessions {
                session.supervise(policy);
            }
        }
        let after: u64 = self.sessions.iter().map(|s| s.stats().processed).sum();
        (after - before) as usize
    }

    /// Ticks until all queues are empty (or nothing makes progress —
    /// failed sessions retain their queued events). Returns total events
    /// processed. With a supervisor configured, idle ticks while a restart
    /// backoff counts down do not end the drain.
    pub fn drain_all(&mut self) -> usize {
        let mut total = 0;
        while self.pending() > 0 {
            let done = self.tick();
            total += done;
            if done == 0 {
                // A tick can make progress without processing events: a
                // restart backoff counted down, or a session restarted
                // after this tick's drain and will consume its queue next
                // tick. Both are bounded, so this cannot spin forever.
                let recovering = self.sessions.iter().any(Session::restart_pending);
                let restarted = self.config.quantum > 0
                    && self
                        .sessions
                        .iter()
                        .any(|s| s.is_active() && s.queue_len() > 0);
                if !recovering && !restarted {
                    break;
                }
            }
        }
        total
    }

    /// Flushes every active session, forcing decisions from accumulated
    /// state. Returns `(id, decision)` for each session that produced one.
    ///
    /// # Errors
    ///
    /// Returns the first flush error; remaining sessions are not flushed.
    pub fn flush_all(&mut self) -> Result<Vec<(SessionId, Decision)>, EvlabError> {
        let mut decisions = Vec::new();
        for session in &mut self.sessions {
            if let Some(d) = session.flush()? {
                decisions.push((session.id(), d));
            }
        }
        Ok(decisions)
    }

    /// Flushes one session, forcing a decision from its accumulated
    /// state. Unlike [`ServeRuntime::flush_all`], a failure here affects
    /// only this session — chaos sweeps flush per session so one poisoned
    /// classifier cannot abort the cell (the session keeps its last-good
    /// decision as the reported outcome).
    ///
    /// # Errors
    ///
    /// Returns the classifier's flush error; the session is marked failed.
    pub fn flush_session(&mut self, id: SessionId) -> Result<Option<Decision>, EvlabError> {
        match self.sessions.get_mut(id) {
            Some(session) => session.flush(),
            None => Ok(None),
        }
    }

    /// Closes a session; its statistics and history stay readable.
    pub fn close_session(&mut self, id: SessionId) {
        if let Some(s) = self.sessions.get_mut(id) {
            s.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_events::{Event, Polarity};
    use evlab_tensor::OpCount;
    use evlab_util::obs;

    /// A deterministic stand-in classifier: one decision every `every`
    /// events, class = events seen so far modulo `classes`.
    struct Modulo {
        classes: usize,
        every: usize,
        seen: usize,
        pending: Option<Decision>,
        last_t: u64,
    }

    impl Modulo {
        fn boxed(classes: usize, every: usize) -> Box<dyn OnlineClassifier + Send> {
            Box::new(Modulo {
                classes,
                every,
                seen: 0,
                pending: None,
                last_t: 0,
            })
        }
    }

    impl OnlineClassifier for Modulo {
        fn name(&self) -> &'static str {
            "modulo"
        }

        fn begin_session(&mut self) {
            self.seen = 0;
            self.pending = None;
            self.last_t = 0;
        }

        fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
            let t = event.t.as_micros();
            if t < self.last_t {
                return Err(EvlabError::serve("out-of-order"));
            }
            self.last_t = t;
            self.seen += 1;
            ops.record_add(1);
            if self.seen.is_multiple_of(self.every) {
                self.pending = Some(Decision {
                    class: self.seen % self.classes,
                    logits: Vec::new(),
                    events: self.every,
                    t_us: t,
                });
            }
            Ok(())
        }

        fn poll_decision(&mut self) -> Option<Decision> {
            self.pending.take()
        }

        fn flush(&mut self, _ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
            Ok(Some(Decision {
                class: self.seen % self.classes,
                logits: Vec::new(),
                events: self.seen % self.every,
                t_us: self.last_t,
            }))
        }
    }

    fn events(n: usize, dt_us: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(i as u64 * dt_us, (i % 16) as u16, (i % 16) as u16, Polarity::On))
            .collect()
    }

    #[test]
    fn quantum_round_robin_is_fair() {
        let config = ServeConfig::new().with_queue_depth(4096).with_quantum(16);
        let mut rt = ServeRuntime::new(config);
        let flood = rt.open_session(Modulo::boxed(4, 8), (16, 16)).unwrap();
        let trickle = rt.open_session(Modulo::boxed(4, 8), (16, 16)).unwrap();
        for e in events(1000, 10) {
            rt.offer(flood, e);
        }
        for e in events(10, 10) {
            rt.offer(trickle, e);
        }
        let done = rt.tick();
        // The flood session is capped at one quantum; the trickle session
        // clears entirely in the same round despite the flood.
        assert_eq!(rt.session(flood).unwrap().stats().processed, 16);
        assert_eq!(rt.session(trickle).unwrap().stats().processed, 10);
        assert_eq!(done, 26);
    }

    #[test]
    fn overload_sheds_without_losing_order() {
        obs::set_enabled(true);
        let shed_before = obs::counter_value("serve.shed.oldest");
        let config = ServeConfig::new().with_queue_depth(32).with_quantum(8);
        let mut rt = ServeRuntime::new(config);
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        // 4x queue depth with no intervening ticks: forced overload.
        for e in events(128, 10) {
            rt.offer(id, e);
        }
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert_eq!(s.stats().shed_oldest, 96);
        assert_eq!(s.stats().processed, 32);
        // Decision timestamps stay monotonic: surviving events in order.
        for w in s.history().windows(2) {
            assert!(w[0].0 <= w[1].0, "decisions out of order");
        }
        assert!(obs::counter_value("serve.shed.oldest") >= shed_before + 96);
    }

    #[test]
    fn aer_ingress_feeds_sessions() {
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = rt.open_session(Modulo::boxed(4, 1), (32, 24)).unwrap();
        let event = Event::new(1_234, 17, 9, Polarity::Off);
        let word = rt.session(id).unwrap().codec().encode(&event);
        assert!(rt.offer_aer(id, word).unwrap().accepted());
        rt.tick();
        let s = rt.session(id).unwrap();
        assert_eq!(s.stats().processed, 1);
        assert_eq!(s.last_decision().unwrap().t_us, 1_234);
    }

    #[test]
    fn undersized_classifier_fails_its_session_typed() {
        use evlab_core::cnn_pipeline::{CnnPipeline, CnnPipelineConfig};
        use evlab_core::online::{OnlineConfig, SessionBuilder};
        use evlab_core::EventClassifier;
        use evlab_datasets::{shapes::shape_silhouettes, DatasetConfig};
        obs::set_enabled(true);
        let errors_before = obs::counter_value("serve.session.errors");
        let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)));
        let mut pipe = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(1).with_seed(1));
        pipe.fit(&data);
        let cnn_16 = || {
            SessionBuilder::new(OnlineConfig::new((16, 16)))
                .cnn(&pipe)
                .build()
                .expect("trained")
        };
        let mut rt = ServeRuntime::new(ServeConfig::new().with_quantum(8));
        // The first session decodes words against 32×32 but its classifier
        // indexes a 16×16 frame; the second is configured consistently.
        let wide = rt.open_session(cnn_16(), (32, 32)).unwrap();
        let fit = rt.open_session(cnn_16(), (16, 16)).unwrap();
        // At t = 5 ms the 2 ms CNN window flushes: a frame holding the
        // (31, 31) event would be indexed out of bounds there.
        for (t, x, y) in [(10, 3, 3), (20, 31, 31), (5_000, 4, 4)] {
            let event = Event::new(t, x, y, Polarity::On);
            let word = rt.session(wide).unwrap().codec().encode(&event);
            assert!(rt.offer_aer(wide, word).unwrap().accepted());
        }
        for e in events(16, 10) {
            rt.offer(fit, e);
        }
        // Two pool threads: a classifier panic here would be re-raised.
        par::with_threads(2, || rt.tick());
        let s = rt.session(wide).unwrap();
        let err = s
            .error()
            .expect("the out-of-range event failed the session");
        assert!(err.to_string().contains("outside the 16x16"), "{err}");
        assert!(!s.is_active());
        assert_eq!(s.stats().processed, 1);
        assert!(obs::counter_value("serve.session.errors") > errors_before);
        let ok = rt.session(fit).unwrap();
        assert!(ok.error().is_none() && ok.is_active());
        assert_eq!(ok.stats().processed, 8);
    }

    #[test]
    fn failed_sessions_stop_but_keep_stats() {
        let mut rt = ServeRuntime::new(ServeConfig::new().with_quantum(4));
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        // Two ingress bursts with a timestamp regression between them: the
        // session must fail cleanly partway, not panic.
        rt.offer(id, Event::new(1_000, 0, 0, Polarity::On));
        rt.offer(id, Event::new(500, 0, 0, Polarity::On));
        rt.tick();
        let s = rt.session(id).unwrap();
        assert!(s.error().is_some());
        assert!(!s.is_active());
        assert_eq!(s.stats().processed, 1);
        // A failed session rejects further ingress and processes nothing.
        assert_eq!(rt.offer(id, Event::new(2_000, 0, 0, Polarity::On)), Admission::RejectedFull);
        assert_eq!(rt.tick(), 0);
    }

    #[test]
    fn reorder_skew_salvages_disordered_ingress() {
        // The same regression that fails a strict session (see
        // `failed_sessions_stop_but_keep_stats`) is repaired when the
        // config tolerates the skew.
        let mut rt = ServeRuntime::new(ServeConfig::new().with_reorder_skew(1_000));
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        rt.offer(id, Event::new(1_000, 0, 0, Polarity::On));
        rt.offer(id, Event::new(500, 0, 0, Polarity::On));
        rt.offer(id, Event::new(1_500, 0, 0, Polarity::On));
        rt.drain_all();
        rt.flush_all().unwrap();
        let s = rt.session(id).unwrap();
        assert!(s.error().is_none(), "skew-bounded disorder must not fail the session");
        assert!(s.is_active());
        assert_eq!(s.stats().late_dropped, 0);
        for w in s.history().windows(2) {
            assert!(w[0].0 <= w[1].0, "decisions out of order");
        }
        assert!(s.history().iter().any(|&(t, _)| t == 500), "repaired event was served");
    }

    #[test]
    fn reorder_quarantines_hopelessly_late_events() {
        let mut rt = ServeRuntime::new(ServeConfig::new().with_reorder_skew(10));
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        rt.offer(id, Event::new(1_000, 0, 0, Polarity::On));
        rt.offer(id, Event::new(5_000, 0, 0, Polarity::On)); // releases 1_000
        rt.drain_all();
        rt.offer(id, Event::new(100, 0, 0, Polarity::On)); // beyond repair
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert!(s.is_active());
        assert_eq!(s.stats().late_dropped, 1);
    }

    #[test]
    fn supervisor_restarts_failed_sessions_from_checkpoint() {
        let policy = SupervisorPolicy::new().with_max_restarts(2).with_backoff_ticks(1);
        let mut rt = ServeRuntime::new(
            ServeConfig::new().with_quantum(4).with_supervisor(policy),
        );
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        rt.offer(id, Event::new(1_000, 0, 0, Polarity::On));
        rt.offer(id, Event::new(500, 0, 0, Polarity::On)); // fails the session
        rt.offer(id, Event::new(2_000, 0, 0, Polarity::On));
        // drain_all keeps ticking through the backoff and the restarted
        // session serves the queued tail.
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert!(s.error().is_none(), "supervisor cleared the failure");
        assert_eq!(s.restarts(), 1);
        assert_eq!(s.stats().restarts, 1);
        // The pre-failure decision survives as the checkpoint and the
        // post-restart decision extends the same history.
        let ts: Vec<u64> = s.history().iter().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![1_000, 2_000]);
    }

    #[test]
    fn supervisor_restart_budget_is_finite() {
        let policy = SupervisorPolicy::new().with_max_restarts(1).with_backoff_ticks(0);
        let mut rt = ServeRuntime::new(
            ServeConfig::new().with_quantum(4).with_supervisor(policy),
        );
        let id = rt.open_session(Modulo::boxed(4, 1), (16, 16)).unwrap();
        // Two regressions: the first failure is restarted, the second
        // exhausts the budget and the session stays failed.
        for t in [1_000u64, 500, 2_000, 1_500] {
            rt.offer(id, Event::new(t, 0, 0, Polarity::On));
        }
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert_eq!(s.restarts(), 1);
        assert!(s.error().is_some(), "budget exhausted: session stays failed");
        assert!(!s.is_active());
    }

    #[test]
    fn ingest_aer_quarantines_malformed_words() {
        obs::set_enabled(true);
        let before = obs::counter_value("ingest.quarantined");
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = rt.open_session(Modulo::boxed(4, 1), (32, 24)).unwrap();
        let good = rt
            .session(id)
            .unwrap()
            .codec()
            .encode(&Event::new(10, 1, 1, Polarity::On));
        assert!(rt.ingest_aer(id, good).accepted());
        // An x address far outside 32x24 cannot decode.
        let bad = rt
            .session(id)
            .unwrap()
            .codec()
            .encode(&Event::new(20, 1, 1, Polarity::On))
            | 0xFFFF << 1;
        assert_eq!(rt.ingest_aer(id, bad), Admission::Quarantined);
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert!(s.is_active(), "quarantine must not fail the session");
        assert_eq!(s.stats().quarantined, 1);
        assert_eq!(s.stats().processed, 1);
        assert_eq!(obs::counter_value("ingest.quarantined"), before + 1);
    }

    #[test]
    fn nonfinite_decisions_are_repaired_and_counted() {
        /// Emits NaN-poisoned logits on every decision.
        struct Poisoned;
        impl OnlineClassifier for Poisoned {
            fn name(&self) -> &'static str {
                "poisoned"
            }
            fn begin_session(&mut self) {}
            fn push_event(&mut self, _: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
                ops.record_add(1);
                Ok(())
            }
            fn poll_decision(&mut self) -> Option<Decision> {
                Some(Decision {
                    class: 0,
                    logits: vec![f32::NAN, 1.0],
                    events: 1,
                    t_us: 0,
                })
            }
            fn flush(&mut self, _: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
                Ok(None)
            }
        }
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = rt.open_session(Box::new(Poisoned), (16, 16)).unwrap();
        rt.offer(id, Event::new(10, 0, 0, Polarity::On));
        rt.drain_all();
        let s = rt.session(id).unwrap();
        assert_eq!(s.stats().nonfinite_decisions, 1);
        let d = s.last_decision().unwrap();
        assert_eq!(d.class, 1, "class recomputed from repaired logits");
        assert!(d.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn flush_forces_partial_decisions() {
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = rt.open_session(Modulo::boxed(4, 100), (16, 16)).unwrap();
        for e in events(5, 10) {
            rt.offer(id, e);
        }
        rt.drain_all();
        assert!(rt.session(id).unwrap().last_decision().is_none());
        let flushed = rt.flush_all().unwrap();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].1.events, 5);
    }
}
