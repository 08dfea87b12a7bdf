//! Crash-recovery benchmark: snapshot cadence × crash point × paradigm.
//!
//! For every configuration the harness serves a clustered event stream
//! through a durable session ([`evlab_serve::CheckpointManager`]), kills
//! the process state at the crash point (dropping the runtime and tearing
//! the live WAL tail mid-record, the signature of a real crash
//! mid-append), recovers into a fresh runtime, and finishes the stream.
//! In the `gnn` legs the crash also tears the decision journal's newest
//! record: GNN decides on every event, so every checkpoint appended a
//! record of its own, and the tear makes recovery fall back one epoch.
//! The recovered run is compared decision-for-decision against an oracle
//! that served the same stream without a crash — the report records
//! whether they were identical, alongside recovery latency, replay
//! length, and on-disk footprint (snapshots, WALs and the journal), per
//! paradigm, in `BENCH_recovery.json`.
//!
//! Usage: `recovery_bench [--smoke] [--out PATH] [--metrics PATH]`
//!
//! `--smoke` runs one cadence × crash point over all three paradigms.
//! Every run asserts the recovery contract: every recovered history
//! identical to its oracle, at least one torn WAL tail absorbed, and at
//! least one torn journal record absorbed with an identical recovery.
//! `--metrics PATH` additionally writes the `ckpt.*` / `wal.*`
//! observability counters for `obs_check --require` validation.

use evlab_bench::{finish_metrics, metrics_arg, moving_cluster_stream};
use evlab_core::online::OnlineClassifier;
use evlab_core::prelude::*;
use evlab_datasets::shapes::shape_silhouettes;
use evlab_datasets::DatasetConfig;
use evlab_events::aer::AerCodec;
use evlab_serve::{CheckpointManager, DurableConfig, ServeConfig, ServeRuntime};
use evlab_util::json::Json;
use evlab_util::EvlabError;
use std::path::PathBuf;
use std::time::Instant;

/// Sweep axes, reduced by `--smoke`.
struct Scale {
    cadences: Vec<u64>,
    crash_fractions: Vec<f64>,
    events: usize,
    event_dt_us: u64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            cadences: vec![8, 32, 128],
            crash_fractions: vec![0.25, 0.6, 0.95],
            events: 1_500,
            event_dt_us: 40,
        }
    }

    fn smoke() -> Self {
        Scale {
            cadences: vec![8],
            crash_fractions: vec![0.6],
            events: 300,
            event_dt_us: 40,
        }
    }
}

struct Paradigms {
    snn: SnnPipeline,
    cnn: CnnPipeline,
    gnn: GnnPipeline,
    resolution: (u16, u16),
}

fn train_paradigms() -> Paradigms {
    let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)).with_split(6, 2));
    let mut snn = SnnPipeline::new(SnnPipelineConfig::new().with_epochs(6).with_seed(11));
    let mut cnn = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(6).with_seed(11));
    let mut gnn = GnnPipeline::new(
        GnnPipelineConfig::new()
            .with_epochs(6)
            .with_max_nodes(96)
            .with_seed(11),
    );
    eprintln!("[recovery_bench] training snn/cnn/gnn on tiny shapes ...");
    snn.fit(&data);
    cnn.fit(&data);
    gnn.fit(&data);
    Paradigms {
        snn,
        cnn,
        gnn,
        resolution: data.resolution,
    }
}

fn make_session(
    paradigms: &Paradigms,
    paradigm: &str,
) -> Result<Box<dyn OnlineClassifier + Send>, EvlabError> {
    let config = OnlineConfig::new(paradigms.resolution).with_window_us(2_000);
    match paradigm {
        "snn" => SessionBuilder::new(OnlineConfig::new(paradigms.resolution))
            .snn(&paradigms.snn)
            .build(),
        "cnn" => SessionBuilder::new(config).cnn(&paradigms.cnn).build(),
        "gnn" => SessionBuilder::new(OnlineConfig::new(paradigms.resolution))
            .gnn(&paradigms.gnn)
            .build(),
        other => Err(EvlabError::serve(format!("unknown paradigm {other}"))),
    }
}

fn open_durable(
    paradigms: &Paradigms,
    paradigm: &str,
    root: &PathBuf,
    cadence: u64,
) -> Result<(ServeRuntime, CheckpointManager, usize), EvlabError> {
    let mut rt = ServeRuntime::new(ServeConfig::new());
    let id = rt.open_session(make_session(paradigms, paradigm)?, paradigms.resolution)?;
    let mut cm = CheckpointManager::new(
        DurableConfig::new(root)
            .with_cadence_words(cadence)
            .with_drain_every(8),
    )?;
    cm.attach(&rt, id)?;
    Ok((rt, cm, id))
}

struct RunResult {
    crash_at: usize,
    words_durable: u64,
    words_replayed: u64,
    torn_tail: bool,
    journal_torn: bool,
    recovery_secs: f64,
    decisions: u64,
    wal_disk_bytes: u64,
    identical: bool,
}

/// Serves `words` with a crash at index `crash_at`, recovers, finishes the
/// stream, and compares against an uncrashed oracle.
fn run_one(
    paradigms: &Paradigms,
    paradigm: &str,
    cadence: u64,
    crash_at: usize,
    words: &[u64],
    tag: &str,
) -> Result<RunResult, EvlabError> {
    let base = std::env::temp_dir().join(format!(
        "evlab_recovery_{}_{tag}",
        std::process::id()
    ));
    let crash_root = base.join("crash");
    let oracle_root = base.join("oracle");
    let _ = std::fs::remove_dir_all(&base);

    // Phase 1: the process that dies. Ingest the prefix, then drop the
    // runtime and manager cold and tear the live WAL mid-record.
    let (mut rt, mut cm, id) = open_durable(paradigms, paradigm, &crash_root, cadence)?;
    for &w in &words[..crash_at] {
        cm.ingest(&mut rt, id, w)?;
    }
    let session_dir = cm.session_dir(id);
    drop((rt, cm));
    // A crash mid-append: the tail record loses its checksum.
    let torn_word = newest_wal(&session_dir).map_or(Ok(false), |wal| tear(&wal))?;
    let torn_journal = paradigm == "gnn" && tear(&session_dir.join("history.log"))?;

    // Phase 2: recovery in a "new process".
    let started = Instant::now();
    let (mut rt, mut cm, id) = open_durable(paradigms, paradigm, &crash_root, cadence)?;
    let report = cm.recover(&mut rt, id)?;
    let recovery_secs = started.elapsed().as_secs_f64();
    // The torn word never became durable; the sensor re-sends from the
    // recovered offset.
    for &w in &words[report.words_recovered() as usize..] {
        cm.ingest(&mut rt, id, w)?;
    }
    rt.drain_all();

    // Phase 3: the oracle that never crashed.
    let (mut rt_o, mut cm_o, id_o) = open_durable(paradigms, paradigm, &oracle_root, cadence)?;
    for &w in words {
        cm_o.ingest(&mut rt_o, id_o, w)?;
    }
    rt_o.drain_all();

    let recovered = rt.session(id).ok_or_else(|| EvlabError::serve("lost session"))?;
    let oracle = rt_o
        .session(id_o)
        .ok_or_else(|| EvlabError::serve("lost oracle session"))?;
    let identical = recovered.history() == oracle.history()
        && recovered.stats().decisions == oracle.stats().decisions
        && recovered.ops() == oracle.ops()
        && match (recovered.last_decision(), oracle.last_decision()) {
            (Some(a), Some(b)) => {
                a.class == b.class
                    && a.logits.len() == b.logits.len()
                    && a.logits
                        .iter()
                        .zip(&b.logits)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (None, None) => true,
            _ => false,
        };
    let wal_disk_bytes = dir_size(&session_dir);
    let decisions = recovered.stats().decisions;
    let _ = std::fs::remove_dir_all(&base);
    Ok(RunResult {
        crash_at,
        words_durable: report.words_durable,
        words_replayed: report.words_replayed,
        torn_tail: report.torn_tail && torn_word,
        journal_torn: report.journal_torn && torn_journal,
        recovery_secs,
        decisions,
        wal_disk_bytes,
        identical,
    })
}

/// Cuts the last 3 bytes off `path`, tearing its final record; returns
/// whether there was a record to tear.
fn tear(path: &std::path::Path) -> Result<bool, EvlabError> {
    let log = std::fs::read(path).map_err(EvlabError::Io)?;
    if log.len() <= 3 {
        return Ok(false);
    }
    std::fs::write(path, &log[..log.len() - 3]).map_err(EvlabError::Io)?;
    Ok(true)
}

fn newest_wal(dir: &std::path::Path) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name();
        let name = name.to_str()?;
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
    best.map(|(_, p)| p)
}

fn dir_size(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn main() -> Result<(), EvlabError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let metrics_path = metrics_arg(&args);
    let scale = if smoke { Scale::smoke() } else { Scale::full() };

    let paradigms = train_paradigms();
    let span_us = scale.events as u64 * scale.event_dt_us;
    let stream = moving_cluster_stream(scale.events, paradigms.resolution.0, span_us, 77);
    let codec = AerCodec::try_new(paradigms.resolution).map_err(EvlabError::decode_aer)?;
    let words: Vec<u64> = stream.iter().map(|e| codec.encode(e)).collect();

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut torn_tails = 0usize;
    let mut journal_tears = 0usize;
    for paradigm in ["snn", "cnn", "gnn"] {
        for &cadence in &scale.cadences {
            for &frac in &scale.crash_fractions {
                let mut crash_at =
                    ((words.len() as f64 * frac) as usize).clamp(1, words.len() - 1);
                if (crash_at as u64).is_multiple_of(cadence) {
                    // Land between checkpoints so the live WAL is non-empty
                    // and the tear has a record to damage.
                    crash_at += 1;
                }
                let tag = format!("{paradigm}_{cadence}_{}", (frac * 100.0) as u32);
                let r = run_one(&paradigms, paradigm, cadence, crash_at, &words, &tag)?;
                eprintln!(
                    "[recovery_bench] {paradigm} cadence={cadence} crash_at={}: durable={} \
                     replayed={} torn={} journal_torn={} recovery={:.1}ms identical={}",
                    r.crash_at,
                    r.words_durable,
                    r.words_replayed,
                    r.torn_tail,
                    r.journal_torn,
                    r.recovery_secs * 1e3,
                    r.identical,
                );
                all_identical &= r.identical;
                torn_tails += r.torn_tail as usize;
                journal_tears += (r.journal_torn && r.identical) as usize;
                rows.push(Json::obj([
                    ("paradigm", Json::str(paradigm)),
                    ("cadence_words", Json::from(cadence)),
                    ("crash_fraction", Json::from(frac)),
                    ("crash_at_word", Json::from(r.crash_at)),
                    ("words_durable", Json::from(r.words_durable)),
                    ("words_replayed", Json::from(r.words_replayed)),
                    ("torn_tail", Json::from(r.torn_tail)),
                    ("journal_torn", Json::from(r.journal_torn)),
                    ("recovery_secs", Json::from(r.recovery_secs)),
                    ("decisions", Json::from(r.decisions)),
                    ("disk_bytes", Json::from(r.wal_disk_bytes)),
                    ("identical_to_oracle", Json::from(r.identical)),
                ]));
            }
        }
    }

    // The recovery contract, asserted on every run (smoke included): a
    // recovered session must be indistinguishable from one that never
    // crashed, and the sweep must have absorbed at least one torn WAL
    // tail and one torn journal record, or the crash simulation went soft.
    if !all_identical {
        return Err(EvlabError::serve(
            "a recovered session diverged from its uncrashed oracle",
        ));
    }
    if torn_tails == 0 {
        return Err(EvlabError::serve("no torn WAL tail was exercised"));
    }
    if journal_tears == 0 {
        return Err(EvlabError::serve(
            "no torn journal record was absorbed with an identical recovery",
        ));
    }

    let report = Json::obj([
        ("smoke", Json::from(smoke)),
        ("events", Json::from(scale.events)),
        ("event_dt_us", Json::from(scale.event_dt_us)),
        ("drain_every", Json::from(8usize)),
        ("torn_tails", Json::from(torn_tails)),
        ("journal_tears", Json::from(journal_tears)),
        ("configs", Json::arr(rows)),
    ]);
    evlab_util::json::write_atomic(&out_path, &(report.to_string_pretty() + "\n"))?;
    eprintln!("[recovery_bench] wrote {out_path}");
    finish_metrics(&metrics_path)
}
