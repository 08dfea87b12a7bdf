//! Crash-recovery contract of the durable serving layer
//! (`evlab::serve::durable`): a session recovered from a snapshot plus
//! write-ahead-log replay must be **bit-identical** to one that never
//! crashed — same decision history, same statistics, same op accounting,
//! same final logits — regardless of where the crash landed and of
//! `EVLAB_THREADS`.
//!
//! The suite kills the process state at *every byte offset* of the live
//! WAL tail and of the decision journal's newest record, corrupts
//! snapshots and journal records outright, and snapshots mid-flight with
//! events still held in the reorder buffer. In every case recovery must
//! come back clean: the durable prefix is restored exactly, the lost
//! suffix is re-ingested by the "sensor", and the result matches the
//! uncrashed oracle.

use evlab::core::online::{Decision, OnlineClassifier, OnlineConfig, SessionBuilder};
use evlab::core::prelude::*;
use evlab::datasets::shapes::shape_silhouettes;
use evlab::datasets::DatasetConfig;
use evlab::events::aer::AerCodec;
use evlab::events::{Event, Polarity};
use evlab::serve::{
    CheckpointManager, DropPolicy, DurableConfig, RecoveryReport, ServeConfig, ServeRuntime,
    Session, SessionStats,
};
use evlab::tensor::OpCount;
use evlab::util::frame::{restore_from_bytes, snapshot_to_bytes, RecordCursor};
use evlab::util::{par, Rng64};
use std::path::{Path, PathBuf};

const RECORD_BYTES: u64 = 16; // 4 (len) + 8 (AER word) + 4 (crc)

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

struct Trained {
    snn: SnnPipeline,
    cnn: CnnPipeline,
    gnn: GnnPipeline,
    resolution: (u16, u16),
}

fn train() -> Trained {
    let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)).with_split(4, 1));
    let mut snn = SnnPipeline::new(SnnPipelineConfig::new().with_epochs(2).with_seed(5));
    let mut cnn = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(2).with_seed(5));
    let mut gnn = GnnPipeline::new(
        GnnPipelineConfig::new()
            .with_epochs(2)
            .with_max_nodes(48)
            .with_seed(5),
    );
    snn.fit(&data);
    cnn.fit(&data);
    gnn.fit(&data);
    Trained {
        snn,
        cnn,
        gnn,
        resolution: data.resolution,
    }
}

fn train_cnn_only() -> Trained {
    let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)).with_split(4, 1));
    let mut cnn = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(2).with_seed(5));
    cnn.fit(&data);
    Trained {
        snn: SnnPipeline::new(SnnPipelineConfig::new()),
        cnn,
        gnn: GnnPipeline::new(GnnPipelineConfig::new()),
        resolution: data.resolution,
    }
}

fn classifier(tr: &Trained, which: &str) -> Box<dyn OnlineClassifier + Send> {
    let windowed = OnlineConfig::new(tr.resolution).with_window_us(2_000);
    match which {
        "snn" => SessionBuilder::new(OnlineConfig::new(tr.resolution))
            .snn(&tr.snn)
            .build()
            .unwrap(),
        "cnn" => SessionBuilder::new(windowed).cnn(&tr.cnn).build().unwrap(),
        "gnn" => SessionBuilder::new(OnlineConfig::new(tr.resolution))
            .gnn(&tr.gnn)
            .build()
            .unwrap(),
        other => panic!("unknown paradigm {other}"),
    }
}

/// A sorted random AER word stream over the trained resolution.
fn words(tr: &Trained, n: usize, span_us: u64, seed: u64) -> Vec<u64> {
    let codec = AerCodec::new(tr.resolution);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut ts: Vec<u64> = (0..n).map(|_| rng.next_below(span_us)).collect();
    ts.sort_unstable();
    ts.into_iter()
        .map(|t| {
            codec.encode(&Event::new(
                t,
                rng.next_below(tr.resolution.0 as u64) as u16,
                rng.next_below(tr.resolution.1 as u64) as u16,
                if rng.bernoulli(0.5) {
                    Polarity::On
                } else {
                    Polarity::Off
                },
            ))
        })
        .collect()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("evlab_recovery_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn open_durable(
    tr: &Trained,
    which: &str,
    root: &Path,
    cadence: u64,
    serve: ServeConfig,
) -> (ServeRuntime, CheckpointManager, usize) {
    let mut rt = ServeRuntime::new(serve);
    let id = rt
        .open_session(classifier(tr, which), tr.resolution)
        .unwrap();
    let mut cm = CheckpointManager::new(
        DurableConfig::new(root)
            .with_cadence_words(cadence)
            .with_drain_every(4),
    )
    .unwrap();
    cm.attach(&rt, id).unwrap();
    (rt, cm, id)
}

/// Everything observable about a session, with logits as exact bit
/// patterns.
type Fingerprint = (
    Vec<(u64, usize)>,
    SessionStats,
    OpCount,
    Option<(usize, Vec<u32>, usize, u64)>,
);

fn fingerprint(s: &Session) -> Fingerprint {
    let decision = s.last_decision().map(|d: &Decision| {
        (
            d.class,
            d.logits.iter().map(|l| l.to_bits()).collect(),
            d.events,
            d.t_us,
        )
    });
    (s.history().to_vec(), s.stats(), *s.ops(), decision)
}

/// Serves `stream` end to end with no crash and returns the final state.
fn oracle(
    tr: &Trained,
    which: &str,
    stream: &[u64],
    cadence: u64,
    serve: ServeConfig,
    tag: &str,
) -> Fingerprint {
    let root = temp_root(tag);
    let (mut rt, mut cm, id) = open_durable(tr, which, &root, cadence, serve);
    for &w in stream {
        cm.ingest(&mut rt, id, w).unwrap();
    }
    rt.drain_all();
    let fp = fingerprint(rt.session(id).unwrap());
    let _ = std::fs::remove_dir_all(&root);
    fp
}

fn newest_wal(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(e) = name
            .strip_prefix("wal.")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| e > *b) {
                best = Some((e, entry.path()));
            }
        }
    }
    best.expect("a live WAL must exist").1
}

fn newest_ckpt(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(e) = name
            .strip_prefix("ckpt.")
            .and_then(|s| s.strip_suffix(".bin"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| e > *b) {
                best = Some((e, entry.path()));
            }
        }
    }
    best.expect("a checkpoint must exist").1
}

/// The decision journal of a session directory.
fn journal(dir: &Path) -> PathBuf {
    dir.join("history.log")
}

/// Byte offsets at which the journal's records start, plus its length.
fn journal_record_starts(dir: &Path) -> (Vec<usize>, usize) {
    let log = std::fs::read(journal(dir)).unwrap();
    let mut cursor = RecordCursor::new(&log);
    let mut starts = Vec::new();
    loop {
        let at = cursor.position();
        match cursor.next_record() {
            Ok(Some(_)) => starts.push(at),
            Ok(None) => break,
            Err(e) => panic!("an uncrashed journal is intact: {e}"),
        }
    }
    (starts, log.len())
}

/// Copies the flat session directory (ckpt.*.bin / wal.*.log /
/// history.log files).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Serves `stream` through a durable CNN session with no crash and
/// leaves its on-disk state behind as a crash image to damage. Returns
/// the image root and the session directory inside it.
fn crash_image(tr: &Trained, stream: &[u64], cadence: u64, tag: &str) -> (PathBuf, PathBuf) {
    let image = temp_root(tag);
    let (mut rt, mut cm, id) = open_durable(tr, "cnn", &image, cadence, ServeConfig::new());
    for &w in stream {
        cm.ingest(&mut rt, id, w).unwrap();
    }
    let dir = cm.session_dir(id);
    (image, dir)
}

/// Copies the crash image into a fresh root named by `tag`, lets
/// `damage` rewrite one of its files, and recovers.
fn recover_damaged(
    tr: &Trained,
    tag: &str,
    image_dir: &Path,
    cadence: u64,
    damage: impl FnOnce(&Path),
) -> (PathBuf, ServeRuntime, CheckpointManager, usize, RecoveryReport) {
    let root = temp_root(tag);
    let dir = root.join(image_dir.file_name().unwrap());
    copy_dir(image_dir, &dir);
    damage(&dir);
    let (mut rt, mut cm, id) = open_durable(tr, "cnn", &root, cadence, ServeConfig::new());
    let report = cm.recover(&mut rt, id).unwrap();
    (root, rt, cm, id, report)
}

/// Rewrites `path` with `edit` applied to its bytes.
fn rewrite(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    std::fs::write(path, &bytes).unwrap();
}

// ---------------------------------------------------------------------------
// Thread-invariant crash-recovery equivalence, all three paradigms
// ---------------------------------------------------------------------------

#[test]
fn recovery_is_bit_identical_for_every_paradigm_and_thread_count() {
    let tr = train();
    let stream = words(&tr, 48, 12_000, 17);
    let cadence = 8;
    let crash_at = 29; // between checkpoints: the live WAL holds records

    for which in ["snn", "cnn", "gnn"] {
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let root = temp_root(&format!("equiv_{which}_{threads}"));
                // The process that dies mid-stream, tearing its last append.
                let (mut rt, mut cm, id) =
                    open_durable(&tr, which, &root, cadence, ServeConfig::new());
                for &w in &stream[..crash_at] {
                    cm.ingest(&mut rt, id, w).unwrap();
                }
                let dir = cm.session_dir(id);
                drop((rt, cm));
                let wal = newest_wal(&dir);
                let log = std::fs::read(&wal).unwrap();
                std::fs::write(&wal, &log[..log.len() - 3]).unwrap();

                // The process that takes over.
                let (mut rt, mut cm, id) =
                    open_durable(&tr, which, &root, cadence, ServeConfig::new());
                let report = cm.recover(&mut rt, id).unwrap();
                assert!(report.torn_tail, "{which}: the torn append must be detected");
                assert!(
                    report.words_recovered() < crash_at as u64,
                    "{which}: the torn word can never count as recovered"
                );
                for &w in &stream[report.words_recovered() as usize..] {
                    cm.ingest(&mut rt, id, w).unwrap();
                }
                rt.drain_all();
                let fp = fingerprint(rt.session(id).unwrap());
                let _ = std::fs::remove_dir_all(&root);
                fp
            })
        };
        let serial = run(1);
        let threaded = run(4);
        let straight = par::with_threads(1, || {
            oracle(
                &tr,
                which,
                &stream,
                cadence,
                ServeConfig::new(),
                &format!("equiv_oracle_{which}"),
            )
        });
        assert!(
            !straight.0.is_empty(),
            "{which}: the oracle run must produce decisions"
        );
        assert_eq!(
            serial, straight,
            "{which}: recovered session diverged from the uncrashed oracle"
        );
        assert_eq!(
            serial, threaded,
            "{which}: recovery differs across thread counts"
        );
    }
}

// ---------------------------------------------------------------------------
// Kill at every byte offset of the live WAL and of the newest journal record
// ---------------------------------------------------------------------------

#[test]
fn kill_at_every_wal_byte_offset_recovers_the_exact_record_prefix() {
    let tr = train_cnn_only();
    let stream = words(&tr, 43, 10_000, 23);
    let cadence = 8;
    let straight = oracle(
        &tr,
        "cnn",
        &stream,
        cadence,
        ServeConfig::new(),
        "offsets_oracle",
    );

    // One full ingest; its on-disk state is the crash image we truncate.
    let (image, image_dir) = crash_image(&tr, &stream, cadence, "offsets_image");
    // 43 words at cadence 8: snapshots at 8..=40, so the live WAL holds
    // words 41–43 as three 16-byte records.
    let durable_at_snapshot = 40u64;
    let wal_len = std::fs::read(newest_wal(&image_dir)).unwrap().len() as u64;
    assert_eq!(wal_len, 3 * RECORD_BYTES);

    for offset in 0..=wal_len {
        let (root, mut rt, mut cm, id, report) =
            recover_damaged(&tr, "offsets_case", &image_dir, cadence, |dir| {
                rewrite(&newest_wal(dir), |log| log.truncate(offset as usize));
            });
        assert_eq!(
            report.words_recovered(),
            durable_at_snapshot + offset / RECORD_BYTES,
            "offset {offset}: recovery must restore exactly the clean record prefix"
        );
        assert_eq!(
            report.torn_tail,
            !offset.is_multiple_of(RECORD_BYTES),
            "offset {offset}: a partial record is a torn tail, a record boundary is not"
        );
        for &w in &stream[report.words_recovered() as usize..] {
            cm.ingest(&mut rt, id, w).unwrap();
        }
        rt.drain_all();
        assert_eq!(
            fingerprint(rt.session(id).unwrap()),
            straight,
            "offset {offset}: resumed session diverged from the uncrashed oracle"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&image);

    // The same crash inside the decision journal, on a stream whose last
    // two checkpoints are separated by decisions (the byte-flip test's):
    // only the newest snapshot refers to the journal's newest record, so
    // cutting that record anywhere short of its end rejects it, and
    // recovery falls back one epoch to the snapshot at word 32 and
    // replays both retained WALs.
    let stream = words(&tr, 43, 10_000, 29);
    let straight = oracle(
        &tr,
        "cnn",
        &stream,
        cadence,
        ServeConfig::new(),
        "offsets_journal_oracle",
    );
    let (image, image_dir) = crash_image(&tr, &stream, cadence, "offsets_journal_image");
    let (starts, journal_len) = journal_record_starts(&image_dir);
    let newest = *starts.last().expect("the journal holds records");
    for offset in newest..=journal_len {
        let (root, mut rt, _cm, id, report) =
            recover_damaged(&tr, "offsets_journal_case", &image_dir, cadence, |dir| {
                rewrite(&journal(dir), |log| log.truncate(offset));
            });
        let intact = offset == journal_len;
        assert_eq!(
            report.snapshots_rejected,
            u32::from(!intact),
            "journal cut at {offset}: only the newest snapshot refers to the newest record"
        );
        assert_eq!(
            report.words_durable,
            if intact { durable_at_snapshot } else { durable_at_snapshot - cadence },
            "journal cut at {offset}: the last two checkpoints must be separated by decisions"
        );
        assert_eq!(
            report.journal_torn,
            offset != newest && !intact,
            "journal cut at {offset}: only a partial record is torn"
        );
        assert_eq!(report.words_recovered(), stream.len() as u64);
        rt.drain_all();
        assert_eq!(
            fingerprint(rt.session(id).unwrap()),
            straight,
            "journal cut at {offset}: recovered session diverged from the uncrashed oracle"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&image);
}

// ---------------------------------------------------------------------------
// Snapshot and journal corruption: fall back one epoch, never panic
// ---------------------------------------------------------------------------

#[test]
fn corrupt_snapshot_byte_flips_fall_back_and_still_converge() {
    let tr = train_cnn_only();
    let stream = words(&tr, 43, 10_000, 29);
    let cadence = 8;
    let straight = oracle(
        &tr,
        "cnn",
        &stream,
        cadence,
        ServeConfig::new(),
        "flips_oracle",
    );

    let (image, image_dir) = crash_image(&tr, &stream, cadence, "flips_image");
    let ckpt_len = std::fs::read(newest_ckpt(&image_dir)).unwrap().len();

    // CRC32 detects any single-byte flip, so every flip must reject the
    // newest snapshot and fall back one epoch. Sample offsets across the
    // whole frame, including both framing edges.
    let mut offsets: Vec<usize> = (0..ckpt_len).step_by(13).collect();
    offsets.push(ckpt_len - 1);
    for flip_at in offsets {
        let (root, mut rt, _cm, id, report) =
            recover_damaged(&tr, "flips_case", &image_dir, cadence, |dir| {
                rewrite(&newest_ckpt(dir), |bytes| bytes[flip_at] ^= 0x5A);
            });
        assert_eq!(
            report.snapshots_rejected, 1,
            "flip at {flip_at}: the damaged snapshot must be rejected"
        );
        assert_eq!(
            report.words_recovered(),
            stream.len() as u64,
            "flip at {flip_at}: the previous epoch plus both WALs cover the full stream"
        );
        rt.drain_all();
        assert_eq!(
            fingerprint(rt.session(id).unwrap()),
            straight,
            "flip at {flip_at}: fallback recovery diverged from the uncrashed oracle"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    // A flip anywhere in the journal's newest record rejects exactly the
    // newest snapshot, which refers to it; the older one still loads.
    let (starts, journal_len) = journal_record_starts(&image_dir);
    assert!(starts.len() >= 3, "the journal must hold older records too");
    let newest = starts[starts.len() - 1];
    for flip_at in newest..journal_len {
        let (root, mut rt, _cm, id, report) =
            recover_damaged(&tr, "flips_journal_case", &image_dir, cadence, |dir| {
                rewrite(&journal(dir), |bytes| bytes[flip_at] ^= 0x5A);
            });
        assert_eq!(
            report.snapshots_rejected, 1,
            "journal flip at {flip_at}: only the newest snapshot refers to the newest record"
        );
        assert!(report.journal_torn, "journal flip at {flip_at}: the damage must be detected");
        assert_eq!(report.words_recovered(), stream.len() as u64);
        rt.drain_all();
        assert_eq!(
            fingerprint(rt.session(id).unwrap()),
            straight,
            "journal flip at {flip_at}: fallback recovery diverged from the uncrashed oracle"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    // Damage to an older record invalidates every retained snapshot:
    // recovery detects it, says so, and starts fresh. Epoch 0's WAL is
    // long pruned, so nothing is replayed and the sensor re-sends the
    // whole stream.
    let flip_at = (starts[0] + starts[1]) / 2;
    let (root, mut rt, mut cm, id, report) =
        recover_damaged(&tr, "flips_older_case", &image_dir, cadence, |dir| {
            rewrite(&journal(dir), |bytes| bytes[flip_at] ^= 0x5A);
        });
    assert_eq!(report.epoch_loaded, None, "no snapshot may load past the damage");
    assert_eq!(report.snapshots_rejected, 2);
    assert!(report.journal_torn);
    assert_eq!(report.words_recovered(), 0);
    for &w in &stream {
        cm.ingest(&mut rt, id, w).unwrap();
    }
    rt.drain_all();
    assert_eq!(
        fingerprint(rt.session(id).unwrap()),
        straight,
        "a fresh start fed the whole stream diverged from the uncrashed oracle"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&image);
}

// ---------------------------------------------------------------------------
// Recovery across the reorder boundary (serve-level contract)
// ---------------------------------------------------------------------------

#[test]
fn recovery_preserves_reorder_holds_and_quarantines() {
    let tr = train_cnn_only();
    let codec = AerCodec::new(tr.resolution);
    // Locally shuffled timestamps within the skew tolerance, plus one
    // hopeless straggler that must be quarantined, not reordered.
    let mut rng = Rng64::seed_from_u64(31);
    let mut ts: Vec<u64> = (0..48).map(|i| 200 * i as u64).collect();
    for i in (1..ts.len() - 1).step_by(3) {
        ts.swap(i, i + 1); // 200 µs swaps, inside the 1 ms skew window
    }
    ts.insert(40, 2_000); // ~6 ms late by then: beyond any tolerance
    let stream: Vec<u64> = ts
        .into_iter()
        .map(|t| {
            codec.encode(&Event::new(
                t,
                rng.next_below(tr.resolution.0 as u64) as u16,
                rng.next_below(tr.resolution.1 as u64) as u16,
                Polarity::On,
            ))
        })
        .collect();
    let serve = || ServeConfig::new().with_reorder_skew(1_000);
    let cadence = 8;
    let straight = oracle(&tr, "cnn", &stream, cadence, serve(), "reorder_oracle");
    assert!(
        straight.1.late_dropped > 0,
        "the straggler must be quarantined even without a crash"
    );

    // Crash at a point where the reorder buffer is guaranteed to hold
    // events (it always holds the most recent skew window), then recover.
    let root = temp_root("reorder_crash");
    let crash_at = 27;
    let (mut rt, mut cm, id) = open_durable(&tr, "cnn", &root, cadence, serve());
    for &w in &stream[..crash_at] {
        cm.ingest(&mut rt, id, w).unwrap();
    }
    let dir = cm.session_dir(id);
    drop((rt, cm));
    let wal = newest_wal(&dir);
    let log = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &log[..log.len() - 3]).unwrap();

    let (mut rt, mut cm, id) = open_durable(&tr, "cnn", &root, cadence, serve());
    let report = cm.recover(&mut rt, id).unwrap();
    assert!(report.torn_tail);
    for &w in &stream[report.words_recovered() as usize..] {
        cm.ingest(&mut rt, id, w).unwrap();
    }
    rt.drain_all();
    let recovered = fingerprint(rt.session(id).unwrap());
    assert_eq!(
        recovered, straight,
        "reorder holds/quarantines diverged across the crash"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// A failed restore is atomic
// ---------------------------------------------------------------------------

#[test]
fn failed_restore_leaves_the_session_untouched() {
    // The snapshot's classifier state is valid for the target, but its
    // reorder buffer is not: the restore must fail without committing the
    // classifier state that precedes the buffer in the payload.
    let tr = train_cnn_only();
    let served = |stream: &[u64], skew_us: Option<u64>| {
        let mut s = Session::open(
            0,
            classifier(&tr, "cnn"),
            tr.resolution,
            1024,
            DropPolicy::DropOldest,
        )
        .unwrap();
        if let Some(skew_us) = skew_us {
            s = s.with_reorder_skew(skew_us);
        }
        for &w in stream {
            s.ingest_aer(w);
            s.drain(usize::MAX);
        }
        s
    };
    let source = served(&words(&tr, 64, 20_000, 41), Some(500));
    let mut target = served(&words(&tr, 96, 30_000, 42), None);
    assert!(
        !target.latencies_us().is_empty(),
        "the target must have measurements to keep"
    );
    let snapshot = snapshot_to_bytes(&source);
    let before = snapshot_to_bytes(&target);
    let latencies = target.latencies_us().to_vec();
    let error = target.error().map(|e| e.to_string());

    let err = restore_from_bytes(&mut target, &snapshot).expect_err("reorder buffer mismatch");
    assert!(err.to_string().contains("reorder buffer"), "{err}");
    assert!(
        snapshot_to_bytes(&target) == before,
        "the failed restore changed the session state"
    );
    assert_eq!(target.latencies_us(), latencies.as_slice());
    assert_eq!(target.error().map(|e| e.to_string()), error);
}
