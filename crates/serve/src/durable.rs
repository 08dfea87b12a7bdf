//! Crash-consistent checkpointing: durable snapshots, a decision
//! journal and an event WAL.
//!
//! A served session is long-lived state built from a stream that cannot
//! be replayed from the sensor — once the process dies, everything since
//! the last decision is gone unless serving made it durable. This module
//! gives [`crate::ServeRuntime`] the classic database recipe, adapted to
//! event streams. Each attached session keeps these artifacts in its
//! directory `root/s{id:03}/`:
//!
//! * **`ckpt.{epoch}.bin`, snapshots** — the whole [`Session`] (classifier
//!   state, reorder buffer, statistics) serializes through
//!   [`evlab_util::frame::StateSnapshot`] into a CRC-framed container,
//!   written atomically (temp + rename). A torn snapshot is detected and
//!   skipped as a unit, never half-loaded. The decision history is not in
//!   it: the snapshot records only the history's length and the CRC-32 of
//!   its journal encoding, so a snapshot's size does not grow with the
//!   session's age.
//! * **`history.log`, the decision journal** — append-only. Each
//!   checkpoint first appends the decisions made since the previous one
//!   as one [`evlab_util::frame::write_record`] record (the start index,
//!   then 16-byte `(t_us, class)` entries), so a checkpoint costs
//!   O(decisions since the previous checkpoint). The CRC recorded in the
//!   snapshot is a running state the manager holds; no checkpoint reads
//!   an old entry back. A failed append is cut back to the last record
//!   boundary.
//! * **`wal.{epoch}.log`, the write-ahead log** — every ingested AER word
//!   is appended to a per-session log of checksummed, length-prefixed
//!   records *before* it reaches the runtime. A crash mid-append leaves a
//!   torn tail that [`evlab_util::frame::RecordCursor`] detects; the
//!   clean prefix replays exactly.
//! * **Epoch rotation** — a checkpoint writes the journal record, then
//!   the snapshot, then rotates the WAL: each snapshot starts a new WAL
//!   epoch. The two newest epochs are retained, so recovery can fall
//!   back one full epoch when the newest snapshot is unusable; older
//!   snapshots and WALs are deleted at rotation.
//!
//! **Recovery** ([`CheckpointManager::recover`]) reads the journal once,
//! up to its first torn or damaged record. It loads the newest snapshot
//! that validates *and* whose history length ends a record of that
//! intact journal prefix with a matching CRC; any other snapshot counts
//! as corrupt and recovery falls back one epoch. It then cuts the journal
//! back to the loaded snapshot's boundary and replays the WAL tail in
//! order through the same ingress path live traffic used. Because
//! session decisions are a pure function of the admitted event sequence
//! (see `crate::runtime` on determinism), the recovered session is
//! **bit-identical** to the pre-crash session — same logits, same
//! history, same op counts — pinned by `tests/recovery.rs` at every
//! possible crash offset of the WAL and of the journal's newest record.
//! Damage to an *older* journal record invalidates every retained
//! snapshot: it is detected and counted, not absorbed, and recovery
//! starts fresh.
//!
//! **Shedding caveat.** The WAL records *offered* words; queue admission
//! is re-decided during replay. That reproduces the original outcome
//! exactly when draining is deterministic, which the manager guarantees
//! by ticking the runtime on the fixed cadence
//! [`DurableConfig::drain_every`] (counted in ingested words, a cadence
//! that replay reproduces from the durable word count). Keep
//! `drain_every × sessions ≤ queue_depth` and no event is ever shed.
//!
//! Observability (enable with `EVLAB_OBS=1`): `ckpt.snapshots`,
//! `ckpt.bytes` (snapshot bytes written), `ckpt.journal_bytes` (journal
//! bytes appended), `ckpt.journal_torn` (journals that ended in a torn or
//! damaged record at recovery), `ckpt.load_ok`, `ckpt.load_corrupt`,
//! `wal.appends`, `wal.bytes`, `wal.rotations`, `wal.replayed`,
//! `wal.torn_tails` counters plus `ckpt.write` / `wal.replay` spans.
//!
//! # Examples
//!
//! ```no_run
//! use evlab_core::prelude::*;
//! use evlab_datasets::{shapes::shape_silhouettes, DatasetConfig};
//! use evlab_serve::{CheckpointManager, DurableConfig, ServeConfig, ServeRuntime};
//!
//! let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)));
//! let mut pipe = GnnPipeline::new(GnnPipelineConfig::new());
//! pipe.fit(&data);
//! let open = |rt: &mut ServeRuntime| {
//!     let clf = SessionBuilder::new(OnlineConfig::new(data.resolution))
//!         .gnn(&pipe).build().unwrap();
//!     rt.open_session(clf, data.resolution).unwrap()
//! };
//!
//! let mut rt = ServeRuntime::new(ServeConfig::new());
//! let id = open(&mut rt);
//! let mut cm = CheckpointManager::new(DurableConfig::new("ckpt-root")).unwrap();
//! cm.attach(&rt, id).unwrap();
//! let codec = *rt.session(id).unwrap().codec();
//! for e in data.test[0].stream.iter() {
//!     cm.ingest(&mut rt, id, codec.encode(e)).unwrap();
//! }
//! // ... the process crashes here; on restart, rebuild and recover:
//! let mut rt2 = ServeRuntime::new(ServeConfig::new());
//! let id2 = open(&mut rt2);
//! let mut cm2 = CheckpointManager::new(DurableConfig::new("ckpt-root")).unwrap();
//! let report = cm2.recover(&mut rt2, id2).unwrap();
//! println!("replayed {} words", report.words_replayed);
//! ```

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use evlab_util::frame::{
    self, snapshot_to_bytes, write_atomic_bytes, Decoder, Encoder, FrameError, RecordCursor,
    RecordError,
};
use evlab_util::{obs, EvlabError};

use crate::runtime::ServeRuntime;
use crate::session::{self, Session, SessionId, HISTORY_ENTRY_BYTES};

/// Durability parameters for a [`CheckpointManager`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// Directory holding all per-session checkpoint state.
    pub root: PathBuf,
    /// Take a durable snapshot every this many ingested words per session
    /// (`0` disables automatic cadence; call
    /// [`CheckpointManager::checkpoint`] manually).
    pub cadence_words: u64,
    /// Tick the runtime every this many ingested words per session. The
    /// fixed cadence is what makes queue admission — and therefore
    /// recovery — deterministic; it must not exceed the queue depth or
    /// overload sheds differently across replays.
    pub drain_every: u64,
}

impl DurableConfig {
    /// Durability rooted at `root` with a 64-word snapshot cadence and an
    /// 8-word drain cadence.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DurableConfig {
            root: root.into(),
            cadence_words: 64,
            drain_every: 8,
        }
    }

    /// Returns a copy with a different snapshot cadence.
    pub fn with_cadence_words(mut self, cadence_words: u64) -> Self {
        self.cadence_words = cadence_words;
        self
    }

    /// Returns a copy with a different drain cadence.
    pub fn with_drain_every(mut self, drain_every: u64) -> Self {
        self.drain_every = drain_every.max(1);
        self
    }
}

/// What [`CheckpointManager::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot that loaded, `None` when recovery started
    /// from a fresh session (no usable snapshot on disk).
    pub epoch_loaded: Option<u64>,
    /// Snapshots tried and rejected (torn, corrupt, mismatched, or
    /// referring past the intact journal) before one loaded.
    pub snapshots_rejected: u32,
    /// Ingested words covered by the loaded snapshot — the session had
    /// durably processed exactly this prefix of the stream.
    pub words_durable: u64,
    /// Words replayed from the WAL tail.
    pub words_replayed: u64,
    /// Whether a torn record ended the WAL tail (the signature of a crash
    /// mid-append; everything before it replayed).
    pub torn_tail: bool,
    /// Whether the decision journal ended in a torn or damaged record.
    /// Recovery cut the journal back to the loaded snapshot's boundary.
    pub journal_torn: bool,
}

impl RecoveryReport {
    /// Total words the recovered session has seen (durable + replayed).
    pub fn words_recovered(&self) -> u64 {
        self.words_durable + self.words_replayed
    }
}

/// Per-session durability state.
struct SessionDurability {
    id: SessionId,
    dir: PathBuf,
    /// Current WAL epoch; `ckpt.{epoch}.bin` is the snapshot that opened
    /// it (absent for epoch 0 of a fresh session).
    epoch: u64,
    wal: File,
    /// The decision journal `history.log`, open for appends.
    journal: File,
    /// Where the journal's last record ends: a failed append is cut back
    /// to here.
    journal_bytes: u64,
    /// Decisions the journal holds: the durable prefix of the session's
    /// history.
    journaled: u64,
    /// CRC-32 of the journal encoding of those decisions, extended at
    /// every append so no checkpoint reads an old entry.
    journal_crc: u32,
    /// Words ingested since the last snapshot.
    words_since: u64,
    /// Words ingested over the session's whole life; serialized into each
    /// snapshot so recovery knows where the WAL tail begins.
    total_words: u64,
}

impl SessionDurability {
    /// Appends the decisions made since the previous append to the
    /// journal as one record: the start index, then the entries. Nothing
    /// is written when there are none.
    fn append_journal(&mut self, history: &[(u64, usize)]) -> Result<(), EvlabError> {
        let Some(new) = usize::try_from(self.journaled)
            .ok()
            .and_then(|done| history.get(done..))
        else {
            return Err(EvlabError::serve(format!(
                "session {} holds {} decisions, fewer than the {} journaled",
                self.id,
                history.len(),
                self.journaled
            )));
        };
        if new.is_empty() {
            return Ok(());
        }
        let mut payload = Encoder::new();
        payload.put_u64(self.journaled);
        for &entry in new {
            session::put_history_entry(&mut payload, entry);
        }
        let payload = payload.into_bytes();
        let mut record = Vec::with_capacity(payload.len() + frame::RECORD_OVERHEAD);
        frame::write_record(&mut record, &payload);
        if let Err(e) = self.journal.write_all(&record).and_then(|()| self.journal.flush()) {
            // Keep the journal on a record boundary for the next append.
            let _ = self.journal.set_len(self.journal_bytes);
            return Err(EvlabError::Io(e));
        }
        self.journal_crc = extend_crc(self.journal_crc, &payload[8..]);
        self.journaled = history.len() as u64;
        self.journal_bytes += record.len() as u64;
        obs::counter_add("ckpt.journal_bytes", record.len() as u64);
        Ok(())
    }
}

/// Extends a finished CRC-32 over `bytes`.
fn extend_crc(crc: u32, bytes: &[u8]) -> u32 {
    frame::crc32_update(crc ^ 0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Wires durable snapshots, the decision journal and the event WAL into
/// a [`ServeRuntime`].
///
/// One manager serves many sessions; each attached session gets its own
/// directory `root/s{id:03}/`. See the [module docs](self) for the
/// artifacts and the recovery contract.
pub struct CheckpointManager {
    config: DurableConfig,
    sessions: Vec<SessionDurability>,
}

fn ckpt_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt.{epoch}.bin"))
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.{epoch}.log"))
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("history.log")
}

/// The intact prefix of a decision journal, as recovery reads it once.
/// The default is the empty journal.
#[derive(Debug, Default)]
struct Journal {
    /// Every entry of the intact records, in order.
    entries: Vec<(u64, usize)>,
    /// The end of every intact record, in order.
    ends: Vec<RecordEnd>,
    /// Whether a torn or damaged record cut the read short.
    torn: bool,
}

/// Where a journal prefix ends; the default is the empty prefix.
#[derive(Debug, Clone, Copy, Default)]
struct RecordEnd {
    /// Entries before this point.
    len: u64,
    /// Byte offset of this point in the file.
    bytes: u64,
    /// CRC-32 of the journal encoding of those entries.
    crc: u32,
}

impl Journal {
    /// Reads `path` up to its first torn or damaged record. A missing
    /// journal reads as empty.
    fn read(path: &Path) -> Result<Self, EvlabError> {
        let mut journal = Journal::default();
        let log = match fs::read(path) {
            Ok(log) => log,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(journal),
            Err(e) => return Err(EvlabError::Io(e)),
        };
        let mut cursor = RecordCursor::new(&log);
        loop {
            match cursor.next_record() {
                Ok(Some(payload)) => {
                    let Some(crc) = journal.push_record(payload) else {
                        journal.torn = true;
                        break;
                    };
                    journal.ends.push(RecordEnd {
                        len: journal.entries.len() as u64,
                        bytes: cursor.position() as u64,
                        crc,
                    });
                }
                Ok(None) => break,
                Err(RecordError::TornTail { .. }) => {
                    journal.torn = true;
                    break;
                }
            }
        }
        Ok(journal)
    }

    /// Appends one record's entries and returns the CRC at its end, or
    /// `None` (appending nothing) when the record does not continue the
    /// prefix: a bad shape or a start index other than the entry count.
    fn push_record(&mut self, payload: &[u8]) -> Option<u32> {
        let entries = payload.get(8..)?;
        if entries.len() % HISTORY_ENTRY_BYTES != 0 {
            return None;
        }
        let mut dec = Decoder::new(payload);
        if dec.take_u64().ok()? != self.entries.len() as u64 {
            return None;
        }
        let decoded: Result<Vec<_>, FrameError> = (0..entries.len() / HISTORY_ENTRY_BYTES)
            .map(|_| session::take_history_entry(&mut dec))
            .collect();
        self.entries.extend(decoded.ok()?);
        let crc = self.ends.last().map_or(0, |end| end.crc);
        Some(extend_crc(crc, entries))
    }

    /// Where the prefix of `len` entries ends, if it is empty or a record
    /// of the intact prefix ends there.
    fn end_at(&self, len: u64) -> Option<RecordEnd> {
        if len == 0 {
            return Some(RecordEnd::default());
        }
        self.ends
            .binary_search_by_key(&len, |end| end.len)
            .ok()
            .map(|i| self.ends[i])
    }

    /// The history a snapshot refers to by length and CRC: the first
    /// `len` entries, if they end a record of the intact prefix and their
    /// CRC matches.
    fn history(&self, len: u64, crc: u32) -> Option<&[(u64, usize)]> {
        let end = self.end_at(len)?;
        (end.crc == crc).then(|| &self.entries[..end.len as usize])
    }
}

/// The snapshot container payload: the durable word count, then the
/// session state with its decision history kept as `(len, crc)` of the
/// journal. Splitting the wrapper from [`Session`] keeps the word count
/// and the journal out of the session (they belong to the durability
/// layer, not the serving path).
struct CheckpointPayload<'a> {
    total_words: u64,
    /// CRC-32 of the journal encoding of the session's whole history.
    history_crc: u32,
    /// The journal a loaded history must be an intact prefix of.
    journal: &'a Journal,
    session: &'a mut Session,
}

impl frame::StateSnapshot for CheckpointPayload<'_> {
    fn state_kind(&self) -> &'static str {
        "serve-session-ckpt"
    }

    /// Version 2 moved the decision history to the journal.
    fn state_version(&self) -> u16 {
        2
    }

    fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.total_words);
        self.session.save_with(enc, |history, enc| {
            enc.put_u64(history.len() as u64);
            enc.put_u32(self.history_crc);
        });
    }

    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        let total_words = dec.take_u64()?;
        let journal = self.journal;
        self.session.load_with(dec, |dec| {
            let len = dec.take_u64()?;
            let crc = dec.take_u32()?;
            journal.history(len, crc).map(<[_]>::to_vec).ok_or_else(|| {
                dec.corrupt(format!(
                    "{len} decisions with CRC {crc:#010x} do not end an intact journal record"
                ))
            })
        })?;
        self.total_words = total_words;
        Ok(())
    }
}

impl CheckpointManager {
    /// Creates a manager, creating `config.root` if needed.
    ///
    /// # Errors
    ///
    /// Returns an error if the root directory cannot be created.
    pub fn new(config: DurableConfig) -> Result<Self, EvlabError> {
        fs::create_dir_all(&config.root).map_err(EvlabError::Io)?;
        Ok(CheckpointManager {
            config,
            sessions: Vec::new(),
        })
    }

    /// The durability configuration.
    pub fn config(&self) -> &DurableConfig {
        &self.config
    }

    /// The directory holding a session's checkpoint artifacts.
    pub fn session_dir(&self, id: SessionId) -> PathBuf {
        self.config.root.join(format!("s{id:03}"))
    }

    fn tracked(&mut self, id: SessionId) -> Result<&mut SessionDurability, EvlabError> {
        self.sessions
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or_else(|| EvlabError::serve(format!("session {id} is not attached")))
    }

    /// Attaches a session: creates its directory and opens its epoch-0
    /// WAL and its decision journal. The session must support snapshots
    /// ([`crate::Session::supports_snapshot`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown or non-durable session, a session
    /// already attached, or a filesystem failure.
    pub fn attach(&mut self, rt: &ServeRuntime, id: SessionId) -> Result<(), EvlabError> {
        let session = rt
            .session(id)
            .ok_or_else(|| EvlabError::serve(format!("unknown session {id}")))?;
        if !session.supports_snapshot() {
            return Err(EvlabError::serve(format!(
                "session {id} ({}) has no durable state to checkpoint",
                session.paradigm()
            )));
        }
        if self.sessions.iter().any(|s| s.id == id) {
            return Err(EvlabError::serve(format!("session {id} is already attached")));
        }
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir).map_err(EvlabError::Io)?;
        let wal = open_append(&wal_path(&dir, 0))?;
        let journal = open_append(&journal_path(&dir))?;
        let journal_bytes = journal.metadata().map_err(EvlabError::Io)?.len();
        self.sessions.push(SessionDurability {
            id,
            dir,
            epoch: 0,
            wal,
            journal,
            journal_bytes,
            journaled: 0,
            journal_crc: 0,
            words_since: 0,
            total_words: 0,
        });
        Ok(())
    }

    /// Ingests one AER word durably: the word is appended to the WAL
    /// *before* it reaches the runtime, then the runtime is ticked and
    /// checkpointed on the configured cadences. This is the only ingress
    /// path whose effects recovery can reproduce — words offered straight
    /// to the runtime are invisible to the log.
    ///
    /// # Errors
    ///
    /// Returns an error if the WAL append fails (the word was *not*
    /// ingested — durability is write-ahead or not at all) or if a
    /// cadence-triggered checkpoint fails.
    pub fn ingest(
        &mut self,
        rt: &mut ServeRuntime,
        id: SessionId,
        word: u64,
    ) -> Result<crate::queue::Admission, EvlabError> {
        let cadence = self.config.cadence_words;
        let drain_every = self.config.drain_every.max(1);
        let s = self.tracked(id)?;
        let mut record = Vec::with_capacity(8 + frame::RECORD_OVERHEAD);
        frame::write_record(&mut record, &word.to_le_bytes());
        s.wal.write_all(&record).map_err(EvlabError::Io)?;
        s.wal.flush().map_err(EvlabError::Io)?;
        obs::counter_add("wal.appends", 1);
        obs::counter_add("wal.bytes", record.len() as u64);
        s.words_since += 1;
        s.total_words += 1;
        let (since, total) = (s.words_since, s.total_words);
        let admission = rt.ingest_aer(id, word);
        if total.is_multiple_of(drain_every) {
            rt.tick();
        }
        if cadence > 0 && since >= cadence {
            self.checkpoint(rt, id)?;
        }
        Ok(admission)
    }

    /// Takes a durable snapshot of one session: appends the decisions
    /// made since the previous checkpoint to the journal, writes the
    /// snapshot, then rotates the WAL to a new epoch, pruning artifacts
    /// older than the previous epoch. The runtime is drained first (the
    /// snapshot's quiescence contract).
    ///
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns an error for an unattached session or a filesystem
    /// failure; the previous epoch's artifacts survive any failure.
    pub fn checkpoint(&mut self, rt: &mut ServeRuntime, id: SessionId) -> Result<u64, EvlabError> {
        let span = obs::span("ckpt.write");
        rt.drain_all();
        let s = self
            .sessions
            .iter_mut()
            .find(|x| x.id == id)
            .ok_or_else(|| EvlabError::serve(format!("session {id} is not attached")))?;
        let session = rt
            .session_mut(id)
            .ok_or_else(|| EvlabError::serve(format!("unknown session {id}")))?;
        // Journal first: the snapshot below refers to these decisions.
        s.append_journal(session.history())?;
        let next = s.epoch + 1;
        let payload = CheckpointPayload {
            total_words: s.total_words,
            history_crc: s.journal_crc,
            journal: &Journal::default(),
            session,
        };
        let bytes = snapshot_to_bytes(&payload);
        write_atomic_bytes(ckpt_path(&s.dir, next), &bytes)?;
        obs::counter_add("ckpt.snapshots", 1);
        obs::counter_add("ckpt.bytes", bytes.len() as u64);
        // The snapshot is durable: open the next epoch's WAL and only then
        // retire the one before the previous (keep two for fallback).
        s.wal = open_append(&wal_path(&s.dir, next))?;
        s.epoch = next;
        s.words_since = 0;
        obs::counter_add("wal.rotations", 1);
        if next >= 2 {
            let _ = fs::remove_file(ckpt_path(&s.dir, next - 2));
            let _ = fs::remove_file(wal_path(&s.dir, next - 2));
        }
        span.finish();
        Ok(next)
    }

    /// Recovers one session after a crash: loads the newest snapshot that
    /// validates against the decision journal (falling back one epoch on
    /// corruption), cuts the journal back to that snapshot, replays the
    /// WAL tail through the live ingress path, stops cleanly at a torn
    /// tail, and seals the recovered state with a fresh checkpoint.
    ///
    /// Call on a freshly opened session (same classifier construction and
    /// serve config as the crashed process); the session must already be
    /// [attached](CheckpointManager::attach) — attach opens epoch-0
    /// artifacts, recover then supersedes them with what is on disk. A
    /// rejected snapshot leaves the session as it was, so every fallback
    /// starts from the fresh session.
    ///
    /// When no snapshot is usable, recovery starts fresh and replays only
    /// a WAL chain that begins at epoch 0; once that epoch has been pruned,
    /// nothing is replayed and [`RecoveryReport::words_recovered`] is 0,
    /// so the sensor re-sends the whole stream.
    ///
    /// Recovery never calls [`ServeRuntime::flush_session`]: a flush
    /// emits a terminal decision and would fork the recovered session's
    /// history from a run that never crashed. The recovered session is
    /// mid-stream — events held by its reorder buffer stay held, exactly
    /// as they were at the durable boundary. Flush only when the stream
    /// is truly over, crash or no crash.
    ///
    /// # Errors
    ///
    /// Returns an error for an unattached session or a filesystem
    /// failure. Corrupt snapshots, torn or damaged journals and torn WAL
    /// tails are *not* errors — they are what recovery exists to absorb
    /// (counted in `ckpt.load_corrupt`, `ckpt.journal_torn` and
    /// `wal.torn_tails`).
    pub fn recover(
        &mut self,
        rt: &mut ServeRuntime,
        id: SessionId,
    ) -> Result<RecoveryReport, EvlabError> {
        let span = obs::span("wal.replay");
        let drain_every = self.config.drain_every.max(1);
        let dir = self.session_dir(id);
        let epochs = on_disk_epochs(&dir)?;
        let journal = Journal::read(&journal_path(&dir))?;
        if journal.torn {
            obs::counter_add("ckpt.journal_torn", 1);
        }
        // Newest snapshot that validates wins; each rejected candidate
        // falls back one epoch (rotation retains two).
        let mut epoch_loaded = None;
        let mut snapshots_rejected = 0u32;
        let mut words_durable = 0u64;
        for &epoch in epochs.iter().rev() {
            let path = ckpt_path(&dir, epoch);
            if !path.exists() {
                continue;
            }
            let bytes = fs::read(&path).map_err(EvlabError::Io)?;
            let session = rt
                .session_mut(id)
                .ok_or_else(|| EvlabError::serve(format!("unknown session {id}")))?;
            // The target is freshly opened: its empty history, whose CRC
            // is 0, is what a rejected candidate's restore puts back.
            let mut payload = CheckpointPayload {
                total_words: 0,
                history_crc: 0,
                journal: &journal,
                session,
            };
            match frame::restore_from_bytes(&mut payload, &bytes) {
                Ok(()) => {
                    obs::counter_add("ckpt.load_ok", 1);
                    words_durable = payload.total_words;
                    epoch_loaded = Some(epoch);
                    break;
                }
                Err(_) => {
                    obs::counter_add("ckpt.load_corrupt", 1);
                    snapshots_rejected += 1;
                }
            }
        }
        let session = rt
            .session(id)
            .ok_or_else(|| EvlabError::serve(format!("unknown session {id}")))?;
        let kept = journal.end_at(session.history().len() as u64).ok_or_else(|| {
            EvlabError::serve(format!("session {id}: history is not a journal prefix"))
        })?;
        // Replay the WAL tail: a snapshot closes its predecessor's log at
        // exactly the snapshot point, so `wal.{E}.log` holds only words
        // *after* snapshot E — replaying the unbroken chain of epochs from
        // the loaded one onward, oldest first, covers the tail with no
        // overlap.
        let mut words_replayed = 0u64;
        let mut torn_tail = false;
        let mut epoch = epoch_loaded.unwrap_or(0);
        while !torn_tail {
            let path = wal_path(&dir, epoch);
            if !path.exists() {
                break;
            }
            let log = fs::read(&path).map_err(EvlabError::Io)?;
            let mut cursor = RecordCursor::new(&log);
            loop {
                match cursor.next_record() {
                    Ok(Some(payload)) => {
                        if payload.len() != 8 {
                            // Structurally valid but not an AER record:
                            // treat like a torn tail and stop replaying.
                            obs::counter_add("wal.torn_tails", 1);
                            torn_tail = true;
                            break;
                        }
                        let mut w = [0u8; 8];
                        w.copy_from_slice(payload);
                        let word = u64::from_le_bytes(w);
                        rt.ingest_aer(id, word);
                        words_replayed += 1;
                        obs::counter_add("wal.replayed", 1);
                        if (words_durable + words_replayed).is_multiple_of(drain_every) {
                            rt.tick();
                        }
                    }
                    Ok(None) => break,
                    Err(RecordError::TornTail { .. }) => {
                        obs::counter_add("wal.torn_tails", 1);
                        torn_tail = true;
                        break;
                    }
                }
            }
            epoch += 1;
        }
        rt.drain_all();
        // Seal: cut the journal back to the loaded snapshot, so the seal's
        // record continues it; the recovered state becomes the newest
        // durable epoch, and the manager's counters resume from it.
        let s = self.tracked(id)?;
        s.journal.set_len(kept.bytes).map_err(EvlabError::Io)?;
        s.journal_bytes = kept.bytes;
        s.journaled = kept.len;
        s.journal_crc = kept.crc;
        s.epoch = epochs.last().copied().unwrap_or(0);
        s.total_words = words_durable + words_replayed;
        s.words_since = 0;
        self.checkpoint(rt, id)?;
        span.finish();
        Ok(RecoveryReport {
            epoch_loaded,
            snapshots_rejected,
            words_durable,
            words_replayed,
            torn_tail,
            journal_torn: journal.torn,
        })
    }
}

fn open_append(path: &Path) -> Result<File, EvlabError> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(EvlabError::Io)
}

/// Epochs present in a session directory (from either artifact), sorted
/// ascending.
fn on_disk_epochs(dir: &Path) -> Result<Vec<u64>, EvlabError> {
    let mut epochs = Vec::new();
    if !dir.exists() {
        return Ok(epochs);
    }
    for entry in fs::read_dir(dir).map_err(EvlabError::Io)? {
        let entry = entry.map_err(EvlabError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let epoch = name
            .strip_prefix("ckpt.")
            .and_then(|s| s.strip_suffix(".bin"))
            .or_else(|| name.strip_prefix("wal.").and_then(|s| s.strip_suffix(".log")));
        if let Some(e) = epoch.and_then(|s| s.parse::<u64>().ok()) {
            if !epochs.contains(&e) {
                epochs.push(e);
            }
        }
    }
    epochs.sort_unstable();
    Ok(epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Admission;
    use crate::runtime::ServeConfig;
    use evlab_core::online::{
        load_opt_decision, save_opt_decision, Decision, OnlineClassifier,
    };
    use evlab_events::{Event, Polarity};
    use evlab_tensor::OpCount;
    use evlab_util::frame::{Decoder, Encoder, FrameError, StateSnapshot};

    /// A deterministic snapshot-capable classifier: decision per event,
    /// logits carrying the running count and timestamp so any divergence
    /// between a recovered session and its oracle shows up bit-for-bit.
    struct Stub {
        seen: u64,
        last_t: u64,
        pending: Option<Decision>,
    }

    impl Stub {
        fn boxed() -> Box<dyn OnlineClassifier + Send> {
            Box::new(Stub { seen: 0, last_t: 0, pending: None })
        }
    }

    impl OnlineClassifier for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn begin_session(&mut self) {
            self.seen = 0;
            self.last_t = 0;
            self.pending = None;
        }
        fn push_event(&mut self, event: Event, ops: &mut OpCount) -> Result<(), EvlabError> {
            let t = event.t.as_micros();
            if t < self.last_t {
                return Err(EvlabError::serve("out-of-order"));
            }
            self.last_t = t;
            self.seen += 1;
            ops.record_add(1);
            self.pending = Some(Decision {
                class: (self.seen % 3) as usize,
                logits: vec![self.seen as f32, t as f32],
                events: 1,
                t_us: t,
            });
            Ok(())
        }
        fn poll_decision(&mut self) -> Option<Decision> {
            self.pending.take()
        }
        fn flush(&mut self, _ops: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
            Ok(None)
        }
        fn as_snapshot(&self) -> Option<&dyn StateSnapshot> {
            Some(self)
        }
        fn as_snapshot_mut(&mut self) -> Option<&mut dyn StateSnapshot> {
            Some(self)
        }
    }

    impl StateSnapshot for Stub {
        fn state_kind(&self) -> &'static str {
            "stub-online"
        }
        fn save_state(&self, enc: &mut Encoder) {
            enc.put_u64(self.seen);
            enc.put_u64(self.last_t);
            save_opt_decision(&self.pending, enc);
        }
        fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
            self.seen = dec.take_u64()?;
            self.last_t = dec.take_u64()?;
            self.pending = load_opt_decision(dec)?;
            Ok(())
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("evlab_durable_{tag}_{}", std::process::id()))
    }

    fn words(n: usize) -> Vec<u64> {
        let codec = evlab_events::aer::AerCodec::new((16, 16));
        (0..n)
            .map(|i| {
                codec.encode(&Event::new(
                    i as u64 * 100,
                    (i % 16) as u16,
                    (i % 16) as u16,
                    Polarity::On,
                ))
            })
            .collect()
    }

    fn open_stub(rt: &mut ServeRuntime) -> SessionId {
        rt.open_session(Stub::boxed(), (16, 16)).expect("open")
    }

    /// Ingests `words` into a fresh runtime + manager rooted at `dir`.
    fn run(dir: &Path, config: &DurableConfig, words: &[u64]) -> (ServeRuntime, CheckpointManager, SessionId) {
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config.clone()).expect("manager");
        cm.attach(&rt, id).expect("attach");
        for &w in words {
            assert_eq!(cm.ingest(&mut rt, id, w).expect("ingest"), Admission::Accepted);
        }
        let _ = dir; // root lives inside config
        (rt, cm, id)
    }

    /// Bit-exact session equality: counters, history, last decision, ops.
    fn assert_sessions_match(a: &crate::session::Session, b: &crate::session::Session, what: &str) {
        assert_eq!(a.stats(), b.stats(), "{what}: stats");
        assert_eq!(a.history(), b.history(), "{what}: history");
        assert_eq!(a.ops(), b.ops(), "{what}: op counts");
        match (a.last_decision(), b.last_decision()) {
            (Some(x), Some(y)) => {
                assert_eq!(x.class, y.class, "{what}: class");
                assert_eq!(x.t_us, y.t_us, "{what}: t_us");
                let xb: Vec<u32> = x.logits.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u32> = y.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "{what}: logit bits");
            }
            (None, None) => {}
            _ => panic!("{what}: decision presence diverged"),
        }
    }

    #[test]
    fn cadence_checkpoints_rotate_and_prune() {
        let root = tmp("cadence");
        let _ = fs::remove_dir_all(&root);
        let config = DurableConfig::new(&root).with_cadence_words(4).with_drain_every(2);
        let (rt, cm, id) = run(&root, &config, &words(10));
        assert_eq!(rt.session(id).unwrap().stats().processed, 10);
        let dir = cm.session_dir(id);
        // Checkpoints fired at words 4 and 8 -> epochs 1 and 2; epoch 0's
        // WAL was pruned when epoch 2 opened (retain two).
        assert!(ckpt_path(&dir, 1).exists());
        assert!(ckpt_path(&dir, 2).exists());
        assert!(wal_path(&dir, 1).exists());
        assert!(wal_path(&dir, 2).exists());
        assert!(!wal_path(&dir, 0).exists(), "epoch 0 pruned");
        // The live WAL holds exactly the two post-snapshot words.
        let log = fs::read(wal_path(&dir, 2)).expect("wal");
        assert_eq!(log.len(), 2 * (8 + frame::RECORD_OVERHEAD));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_size_does_not_grow_with_the_decision_history() {
        let root = tmp("age");
        let _ = fs::remove_dir_all(&root);
        let all = words(1_000);
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(DurableConfig::new(&root).with_cadence_words(0))
            .expect("manager");
        cm.attach(&rt, id).expect("attach");
        let mut snapshot_after = |rt: &mut ServeRuntime, words: &[u64]| {
            for &w in words {
                cm.ingest(rt, id, w).expect("ingest");
            }
            let epoch = cm.checkpoint(rt, id).expect("checkpoint");
            fs::metadata(ckpt_path(&cm.session_dir(id), epoch)).expect("snapshot").len()
        };
        let young = snapshot_after(&mut rt, &all[..10]);
        let old = snapshot_after(&mut rt, &all[10..]);
        assert_eq!(rt.session(id).unwrap().history().len(), 1_000, "a decision per word");
        assert_eq!(old, young, "the snapshot grew with the session's age");
        // The journal holds the history instead: one record per checkpoint.
        let journal = fs::read(journal_path(&cm.session_dir(id))).expect("journal");
        let records = 2 * (frame::RECORD_OVERHEAD + 8);
        assert_eq!(journal.len(), records + 1_000 * HISTORY_ENTRY_BYTES);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_is_bit_identical_to_the_uncrashed_run() {
        let all = words(23);
        let crash_root = tmp("crash");
        let oracle_root = tmp("crash_oracle");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
        // The crashed process: ingests everything, then dies (drop).
        let config = DurableConfig::new(&crash_root).with_cadence_words(8).with_drain_every(4);
        drop(run(&crash_root, &config, &all));
        // The oracle: same stream, no crash, drained.
        let (mut rt_o, _cm_o, id_o) =
            run(&oracle_root, &DurableConfig::new(&oracle_root).with_cadence_words(8).with_drain_every(4), &all);
        rt_o.drain_all();
        // Recovery in a fresh process.
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert_eq!(report.epoch_loaded, Some(2), "snapshot at word 16 loaded");
        assert_eq!(report.words_durable, 16);
        assert_eq!(report.words_replayed, 7);
        assert!(!report.torn_tail);
        assert_eq!(report.words_recovered(), 23);
        assert_sessions_match(rt.session(id).unwrap(), rt_o.session(id_o).unwrap(), "recovered");
        // The recovered manager keeps serving durably from where it left.
        let more = words(30);
        cm.ingest(&mut rt, id, more[23]).expect("post-recovery ingest");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
    }

    #[test]
    fn torn_wal_tail_recovers_the_clean_prefix() {
        evlab_util::obs::set_enabled(true);
        let torn_before = evlab_util::obs::counter_value("wal.torn_tails");
        let all = words(23);
        let crash_root = tmp("torn");
        let oracle_root = tmp("torn_oracle");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
        let config = DurableConfig::new(&crash_root).with_cadence_words(8).with_drain_every(4);
        let (_, cm0, id0) = run(&crash_root, &config, &all);
        // Tear the last WAL record: crash mid-append.
        let live_wal = wal_path(&cm0.session_dir(id0), 2);
        drop(cm0);
        let log = fs::read(&live_wal).expect("wal");
        fs::write(&live_wal, &log[..log.len() - 3]).expect("tear");
        // Oracle saw everything except the torn word.
        let (mut rt_o, _cm_o, id_o) =
            run(&oracle_root, &DurableConfig::new(&oracle_root).with_cadence_words(8).with_drain_every(4), &all[..22]);
        rt_o.drain_all();
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert!(report.torn_tail, "the torn record must be detected");
        assert_eq!(report.words_recovered(), 22, "clean prefix only");
        assert_sessions_match(rt.session(id).unwrap(), rt_o.session(id_o).unwrap(), "torn-tail");
        assert!(evlab_util::obs::counter_value("wal.torn_tails") > torn_before);
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
    }

    #[test]
    fn corrupt_snapshot_falls_back_one_epoch() {
        evlab_util::obs::set_enabled(true);
        let corrupt_before = evlab_util::obs::counter_value("ckpt.load_corrupt");
        let all = words(23);
        let crash_root = tmp("fallback");
        let oracle_root = tmp("fallback_oracle");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
        let config = DurableConfig::new(&crash_root).with_cadence_words(8).with_drain_every(4);
        let (_, cm0, id0) = run(&crash_root, &config, &all);
        // Flip one byte in the newest snapshot: its CRC must reject it.
        let newest = ckpt_path(&cm0.session_dir(id0), 2);
        drop(cm0);
        let mut bytes = fs::read(&newest).expect("snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&newest, &bytes).expect("corrupt");
        let (mut rt_o, _cm_o, id_o) =
            run(&oracle_root, &DurableConfig::new(&oracle_root).with_cadence_words(8).with_drain_every(4), &all);
        rt_o.drain_all();
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert_eq!(report.epoch_loaded, Some(1), "fell back to the older epoch");
        assert_eq!(report.snapshots_rejected, 1);
        assert_eq!(report.words_durable, 8);
        assert_eq!(report.words_replayed, 15, "both retained WAL epochs replayed");
        assert_sessions_match(rt.session(id).unwrap(), rt_o.session(id_o).unwrap(), "fallback");
        assert!(evlab_util::obs::counter_value("ckpt.load_corrupt") > corrupt_before);
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
    }

    #[test]
    fn a_torn_journal_is_cut_back_before_the_seal() {
        let all = words(40);
        let crash_root = tmp("journal");
        let oracle_root = tmp("journal_oracle");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
        let config = DurableConfig::new(&crash_root).with_cadence_words(8).with_drain_every(4);
        let (_, cm0, id0) = run(&crash_root, &config, &all[..23]);
        // Tear the record the checkpoint at word 16 appended.
        let journal = journal_path(&cm0.session_dir(id0));
        drop(cm0);
        let log = fs::read(&journal).expect("journal");
        fs::write(&journal, &log[..log.len() - 3]).expect("tear");
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config.clone()).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert!(report.journal_torn);
        assert_eq!(report.epoch_loaded, Some(1), "the snapshot at word 16 refers to the tear");
        assert_eq!(report.words_recovered(), 23);
        for &w in &all[23..] {
            cm.ingest(&mut rt, id, w).expect("ingest");
        }
        drop((rt, cm));
        // A second crash: the seal cut the torn bytes away, so the newest
        // snapshot's history ends an intact record and loads.
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(config).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert!(!report.journal_torn);
        assert_eq!(report.snapshots_rejected, 0);
        assert_eq!(report.words_durable, 39);
        let oracle = DurableConfig::new(&oracle_root).with_cadence_words(8).with_drain_every(4);
        let (mut rt_o, _cm_o, id_o) = run(&oracle_root, &oracle, &all);
        rt_o.drain_all();
        let (recovered, straight) = (rt.session(id).unwrap(), rt_o.session(id_o).unwrap());
        assert_sessions_match(recovered, straight, "second recovery");
        let _ = fs::remove_dir_all(&crash_root);
        let _ = fs::remove_dir_all(&oracle_root);
    }

    #[test]
    fn recovery_of_a_fresh_directory_is_a_clean_start() {
        let root = tmp("fresh");
        let _ = fs::remove_dir_all(&root);
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = open_stub(&mut rt);
        let mut cm = CheckpointManager::new(DurableConfig::new(&root)).expect("manager");
        cm.attach(&rt, id).expect("attach");
        let report = cm.recover(&mut rt, id).expect("recover");
        assert_eq!(report.epoch_loaded, None);
        assert_eq!(report.words_recovered(), 0);
        assert!(!report.torn_tail);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn attach_rejects_sessions_without_durable_state() {
        /// No `as_snapshot` override: not durable.
        struct Opaque;
        impl OnlineClassifier for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn begin_session(&mut self) {}
            fn push_event(&mut self, _: Event, _: &mut OpCount) -> Result<(), EvlabError> {
                Ok(())
            }
            fn poll_decision(&mut self) -> Option<Decision> {
                None
            }
            fn flush(&mut self, _: &mut OpCount) -> Result<Option<Decision>, EvlabError> {
                Ok(None)
            }
        }
        let root = tmp("opaque");
        let _ = fs::remove_dir_all(&root);
        let mut rt = ServeRuntime::new(ServeConfig::new());
        let id = rt.open_session(Box::new(Opaque), (16, 16)).expect("open");
        let mut cm = CheckpointManager::new(DurableConfig::new(&root)).expect("manager");
        let err = cm.attach(&rt, id).unwrap_err();
        assert!(err.to_string().contains("no durable state"), "{err}");
        // Ingest through an unattached session is a typed error too.
        let err = cm.ingest(&mut rt, id, 0).unwrap_err();
        assert!(err.to_string().contains("not attached"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }
}
