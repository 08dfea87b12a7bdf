//! Drift-robust serving benchmark for the three evlab paradigms.
//!
//! ```text
//! servebench --workload replay|fanin|durable --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Serves SNN, CNN and GNN sessions through the public `evlab-serve` API
//! on one closed-loop workload, interleaving the paradigms in short
//! slices so host drift hits all three alike, checks the served decisions
//! against an independent drive, and prints one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). Timed end-to-end figures are in reference time: wall
//! time scaled by a fixed compute kernel timed right before each slice
//! (`host::Reference`). See README.md for the workloads and the metrics.

mod feed;
mod gate;
mod hist;
mod host;
mod lane;
mod shadow;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use evlab_core::dichotomy::ComparisonConfig;
use evlab_core::prelude::{CnnPipeline, EventClassifier, GnnPipeline, SnnPipeline};
use evlab_datasets::shapes::shape_silhouettes;
use evlab_datasets::DatasetConfig;
use evlab_serve::{CheckpointManager, DurableConfig, ServeRuntime};
use evlab_util::{obs, par, EvlabError};

use feed::{Feed, RES};
use gate::{compare, decision_fp, Gate};
use hist::LogHist;
use lane::{Lane, Libraries, Models, Paradigm, Workload, PARADIGMS};
use shadow::{LayerTimes, Shadow};
use trace::{SpanKind, Tracer};

/// Paradigm slices per second of `--seconds`: a run serves a fixed amount
/// of sensor time derived from `--seconds`, so session age, history size
/// and peak memory depend on the seed and the size only, never on how
/// fast the host happened to be.
const ROUNDS_PER_SECOND: f64 = 10.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// No extra set-up starts after this much process time.
const SETUP_DEADLINE_S: f64 = 130.0;
/// Rounds whose words the untraced gate drives directly.
const GATE_ROUNDS: usize = 4;
/// No new round starts after this much process time, so that a run on a
/// badly contended host still ends well within three minutes.
const DEADLINE_S: f64 = 100.0;
/// Durable ingest groups served after timing ends, so recovery replays a
/// WAL tail (fewer words than one snapshot).
const DURABLE_TAIL_GROUPS: usize = 5;
/// Worker threads at which the gate serves a multi-session workload's
/// prefix again, and at which traced runs time an empty parallel region:
/// the core count of the reference host.
const GATE_THREADS: usize = 2;
/// `trace.accounted_pct` tolerance.
const ACCOUNTED_TOL_PCT: f64 = 15.0;

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "replay" => Workload {
            name: "replay",
            sessions: 1,
            pans: 0,
            tick_us: 1_000,
            jitter_us: 0,
            reorder_skew_us: None,
            durable: false,
            slice_ticks: [1000, 150, 6],
        },
        "fanin" => Workload {
            name: "fanin",
            sessions: 16,
            pans: 4,
            tick_us: 250,
            jitter_us: 200,
            reorder_skew_us: Some(500),
            durable: false,
            slice_ticks: [120, 45, 1],
        },
        "durable" => Workload {
            name: "durable",
            sessions: 1,
            pans: 0,
            tick_us: 1_000,
            jitter_us: 0,
            reorder_skew_us: None,
            durable: true,
            slice_ticks: [288, 1536, 16],
        },
        _ => return None,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut w, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, false, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                w = Some(workload(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = val()? == "1",
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: w.ok_or("--workload replay|fanin|durable is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
        smoke,
    })
}

/// Everything one set-up builds.
struct Setup {
    models: Models,
    libs: Libraries,
    feeds: Vec<Feed>,
    lanes: Vec<Lane>,
    render_s: f64,
    fit_s: [f64; 3],
    /// Wall time of the whole set-up.
    total_s: f64,
    /// The same in reference time: each step's wall time times the mean
    /// of the scales measured right before and right after it.
    ref_s: f64,
}

/// Renders the Table I training split and the workload recordings, fits
/// the three pipelines at `ComparisonConfig::new()` strength (as
/// `table1` does) and opens the sessions.
fn set_up(a: &Args, dir: &Path, reference: &mut host::Reference) -> Result<Setup, EvlabError> {
    let w = &a.workload;
    let t0 = Instant::now();
    let mut steps = StepClock::new(reference);
    let (split, config) = if a.smoke {
        ((3, 1), ComparisonConfig::fast())
    } else {
        ((10, 5), ComparisonConfig::new())
    };
    let train = shape_silhouettes(&DatasetConfig::new(RES).with_split(split.0, split.1));
    let (shapes, pans) = if a.smoke { (1, 2) } else { (16, 8) };
    let libs = Libraries::render(w, a.seed, shapes, pans);
    let feeds = libs.feeds(w, a.seed);
    for (name, lib) in ["shapes", "pans"].iter().zip(&libs.0) {
        if !lib.is_empty() {
            let words: usize = lib.iter().map(|r| r.words.len()).sum();
            let rate = words as f64 / (lib.len() as f64 * feed::REC_US as f64 / 1e6);
            eprintln!(
                "[servebench] {name}: {} recordings, {rate:.0} events per sensor second",
                lib.len()
            );
        }
    }
    let render_s = steps.step(reference);
    let seed = 17;
    let mut snn = SnnPipeline::new(config.snn.clone().with_seed(seed));
    snn.fit(&train);
    let t_snn = steps.step(reference);
    let mut cnn = CnnPipeline::new(config.cnn.with_seed(seed));
    cnn.fit(&train);
    let t_cnn = steps.step(reference);
    let mut gnn = GnnPipeline::new(config.gnn.clone().with_seed(seed));
    gnn.fit(&train);
    let t_gnn = steps.step(reference);
    let models = Models { snn, cnn, gnn };
    std::fs::create_dir_all(dir).map_err(EvlabError::Io)?;
    let lanes = PARADIGMS
        .iter()
        .map(|&p| Lane::open(p, w, &models, feeds.clone(), dir))
        .collect::<Result<Vec<_>, _>>()?;
    steps.step(reference);
    Ok(Setup {
        models,
        libs,
        feeds,
        lanes,
        render_s,
        fit_s: [t_snn, t_cnn, t_gnn],
        total_s: t0.elapsed().as_secs_f64(),
        ref_s: steps.ref_s,
    })
}

/// Times consecutive set-up steps in wall and in reference time. The
/// reference samples between steps are part of the set-up.
struct StepClock {
    at: Instant,
    scale: f64,
    ref_s: f64,
}

impl StepClock {
    fn new(reference: &mut host::Reference) -> Self {
        StepClock {
            scale: reference.scale(),
            at: Instant::now(),
            ref_s: 0.0,
        }
    }

    /// Ends the current step; returns its wall time in seconds.
    fn step(&mut self, reference: &mut host::Reference) -> f64 {
        let wall = self.at.elapsed().as_secs_f64();
        let scale = reference.scale();
        self.ref_s += wall * (self.scale + scale) / 2.0;
        self.scale = scale;
        self.at = Instant::now();
        wall
    }
}

/// Removes the run's temporary directory on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Events consumed and busy time per paradigm, over untraced (`[0]`) and
/// traced (`[1]`) rounds.
struct Served {
    events: [[u64; 2]; 3],
    busy: [[u64; 2]; 3],
}

fn run(a: &Args) -> Result<bool, EvlabError> {
    let process_start = Instant::now();
    let w = &a.workload;
    let tmp = TempDir(PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id())));
    obs::set_enabled(false);

    // The first set-up runs from process start to the first timed slice,
    // and its sessions are served. Untraced runs set up twice more after
    // peak memory is read; `setup_s` is the median of the three.
    let mut reference = host::Reference::default();
    let dir = tmp.0.join("served");
    let mut s = par::with_threads(1, || set_up(a, &dir, &mut reference))?;
    let mut setup_times = vec![s.ref_s];
    let mut setup_wall = vec![s.total_s];
    eprintln!(
        "[servebench] {} seed {}: set-up {:.3} s, {:.3} s in reference time (render {:.3} s, fit {:.3}/{:.3}/{:.3} s)",
        w.name, a.seed, s.total_s, s.ref_s, s.render_s, s.fit_s[0], s.fit_s[1], s.fit_s[2]
    );

    let rounds = if a.smoke {
        3
    } else {
        ((a.seconds * ROUNDS_PER_SECOND).round() as usize).max(2)
    };
    let mut tracer = a.trace.then(Tracer::new);
    let mut shadows = if a.trace {
        PARADIGMS
            .iter()
            .map(|&p| Shadow::new(p, w, &s.models, s.feeds.clone(), true))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let mut served = Served {
        events: [[0; 2]; 3],
        busy: [[0; 2]; 3],
    };
    let mut probe = host::Probe::new(a.seed);
    let mut probes = Vec::new();
    let mut scales = Vec::with_capacity(3 * rounds);
    let mut region = LogHist::new();
    let steal0 = host::cpu_steal();
    let timed_start = Instant::now();
    let mut done_rounds = 0;
    // Every workload is served on one thread (see README, "Dropped").
    par::with_threads(1, || -> Result<(), EvlabError> {
        for r in 0..rounds {
            let last = r + 1 == rounds || process_start.elapsed().as_secs_f64() > DEADLINE_S;
            // Traced runs alternate: odd rounds traced (obs on, spans), even
            // rounds untraced, for `trace.overhead_pct` under equal drift.
            let traced = a.trace && r % 2 == 1;
            for (p, lane) in s.lanes.iter_mut().enumerate() {
                let n = w.slice_ticks[p];
                let (e0, b0) = (lane.processed(), lane.busy_ns);
                let scale = reference.scale();
                scales.push(scale);
                obs::set_enabled(traced);
                let tr = if traced { tracer.as_mut() } else { None };
                lane.run_slice(w, &s.libs, n, last, tr, scale)?;
                let (e, b) = (lane.processed() - e0, lane.busy_ns - b0);
                served.events[p][usize::from(traced)] += e;
                served.busy[p][usize::from(traced)] += b;
                lane.end_round(last);
                if let Some(sh) = shadows.get_mut(p) {
                    sh.replay_slice(w, &s.libs, n, last, traced)?;
                }
                obs::set_enabled(false);
            }
            if r % 8 == 0 {
                probes.push(probe.run());
            }
            if a.trace {
                let mut tasks = vec![0u8; w.sessions];
                par::with_threads(GATE_THREADS, || {
                    for _ in 0..20 {
                        let t = Instant::now();
                        par::for_each_task(&mut tasks, |_, x| {
                            std::hint::black_box(x);
                        });
                        region.record(t.elapsed().as_nanos() as u64);
                    }
                });
            }
            done_rounds = r + 1;
            if last {
                break;
            }
        }
        Ok(())
    })?;
    let timed_s = timed_start.elapsed().as_secs_f64();
    let steal_pct = host::steal_pct(steal0, host::cpu_steal());
    let peak_rss_mb = host::peak_rss_mib();
    let extra_setups = if a.trace || a.smoke { 0 } else { SETUPS - 1 };
    for i in 0..extra_setups {
        if process_start.elapsed().as_secs_f64() > SETUP_DEADLINE_S {
            break;
        }
        let extra = tmp.0.join(format!("setup{i}"));
        let again = par::with_threads(1, || set_up(a, &extra, &mut reference))?;
        setup_times.push(again.ref_s);
        setup_wall.push(again.total_s);
        drop(again);
        let _ = std::fs::remove_dir_all(&extra);
    }
    let setup_s = median(setup_times.clone());
    eprintln!(
        "[servebench] set-ups {setup_times:.3?} s in reference time ({setup_wall:.3?} s wall), median {setup_s:.3} s"
    );
    if done_rounds < rounds {
        eprintln!("[servebench] deadline: served {done_rounds} of {rounds} rounds");
    }
    let ref_scale = median(scales.clone());
    eprintln!(
        "[servebench] host: steal {steal_pct:.2}%, memory probe {:.1} ns (median of {}), reference scale {ref_scale:.3} (median of {}, {:.3}..{:.3})",
        median(probes.clone()),
        probes.len(),
        scales.len(),
        scales.iter().copied().fold(f64::INFINITY, f64::min),
        scales.iter().copied().fold(0.0, f64::max),
    );

    // ---- end-to-end figures, in reference time: rates over the whole
    // run, time to decision as medians over blocks ----
    let mut e2e = vec![
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    for (p, lane) in s.lanes.iter().enumerate() {
        e2e.push(m(
            format!("{}_eps", lane.paradigm.name()),
            served.events[p][0] as f64 / (served.busy[p][0] as f64 / 1e9),
            "1/s",
        ));
    }
    let over_blocks = |lane: &Lane, f: fn(&(f64, f64)) -> f64| {
        median(lane.blocks.iter().map(f).collect()) / 1e3
    };
    for lane in &s.lanes {
        let v = over_blocks(lane, |b| b.0);
        e2e.push(m(format!("{}_ttd_p50_us", lane.paradigm.name()), v, "us"));
    }
    for lane in &s.lanes {
        let v = over_blocks(lane, |b| b.1);
        e2e.push(m(format!("{}_ttd_p99_us", lane.paradigm.name()), v, "us"));
    }
    for lane in &s.lanes {
        eprintln!(
            "[servebench] {}: {} events in {:.3} s busy ({:.3} s wall), {} decisions (ttd samples {}), {} ticks, {} blocks",
            lane.paradigm.name(),
            lane.processed(),
            lane.busy_ns as f64 / 1e9,
            lane.wall_ns as f64 / 1e9,
            lane.decisions(),
            lane.ttd.count(),
            lane.ticks,
            lane.blocks.len(),
        );
    }

    // ---- correctness gate ----
    let mut g = Gate::default();
    let gate_rounds = GATE_ROUNDS.min(done_rounds);
    let last_gate = gate_rounds == done_rounds;
    // Whether each paradigm's timed replica made the classifier's
    // decisions; its layer metrics read 0 when not.
    let mut replica_ok = [true; 3];
    if a.trace {
        for (p, sh) in shadows.iter().enumerate() {
            let lane = &s.lanes[p];
            let name = lane.paradigm.name();
            for k in 0..lane.ids.len() {
                let served_side = lane.side(k, lane.marks[k].len());
                g.check(
                    &format!("{name} session {k} vs direct drive"),
                    compare(&served_side, &sh.side(k)).map(|_| ()),
                );
            }
            if let Err(e) = sh.replica_matches() {
                eprintln!(
                    "[servebench] warning: the {name} layer replay no longer matches the classifier ({e}); its layer metrics read 0"
                );
                replica_ok[p] = false;
            }
        }
    } else {
        par::with_threads(1, || -> Result<(), EvlabError> {
            for lane in &s.lanes {
                let p = lane.paradigm;
                let mut sh = Shadow::new(p, w, &s.models, s.feeds.clone(), false)?;
                for r in 0..gate_rounds {
                    let last = last_gate && r + 1 == gate_rounds;
                    sh.replay_slice(w, &s.libs, w.slice_ticks[p.index()], last, false)?;
                }
                for k in 0..lane.ids.len() {
                    g.check(
                        &format!(
                            "{} session {k} vs direct drive (first {gate_rounds} slices)",
                            p.name()
                        ),
                        compare(&lane.side(k, gate_rounds), &sh.side(k)).map(|_| ()),
                    );
                }
            }
            Ok(())
        })?;
    }
    if w.sessions > 1 {
        // The same prefix served again with worker threads.
        par::with_threads(GATE_THREADS, || -> Result<(), EvlabError> {
            for lane in &s.lanes {
                let p = lane.paradigm;
                let mut one = Lane::open(p, w, &s.models, s.feeds.clone(), &dir.join("t1"))?;
                for r in 0..gate_rounds {
                    let last = last_gate && r + 1 == gate_rounds;
                    one.run_slice(w, &s.libs, w.slice_ticks[p.index()], last, None, 1.0)?;
                }
                for k in 0..lane.ids.len() {
                    g.check(
                        &format!("{} session {k}: threads 1 vs {GATE_THREADS}", p.name()),
                        compare(&lane.side(k, gate_rounds), &one.side(k, gate_rounds)).map(|_| ()),
                    );
                }
            }
            Ok(())
        })?;
    }
    let mut recover_ms = Vec::new();
    let mut snapshot_bytes = [0u64; 3];
    if w.durable {
        par::with_threads(1, || -> Result<(), EvlabError> {
            for lane in &mut s.lanes {
                let p = lane.paradigm;
                let id = lane.ids[0];
                if let Some(cm) = &lane.cm {
                    snapshot_bytes[p.index()] = newest_snapshot_bytes(&cm.session_dir(id));
                }
                lane.run_slice(w, &s.libs, DURABLE_TAIL_GROUPS, false, None, 1.0)?;
                let mut rt = ServeRuntime::new(w.serve_config());
                let id2 = rt.open_session(s.models.classifier(p)?, RES)?;
                let mut cm = CheckpointManager::new(
                    DurableConfig::new(dir.join(p.name())).with_cadence_words(0),
                )?;
                cm.attach(&rt, id2)?;
                let t = Instant::now();
                let g0 = tracer.as_ref().map(|t| t.now());
                let report = cm.recover(&mut rt, id2)?;
                recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let (Some(tr), Some(g0)) = (tracer.as_mut(), g0) {
                    tr.begin_slice(p.index() as u8);
                    tr.span(SpanKind::Recover, 0, 0, g0, report.words_replayed as usize);
                }
                let live = lane.rt.session(id).expect("session");
                let back = rt.session(id2).expect("session");
                let same = live.history() == back.history()
                    && live.last_decision().map(decision_fp)
                        == back.last_decision().map(decision_fp)
                    && live.stats() == back.stats()
                    && report.words_recovered() == lane.words[0]
                    && report.words_replayed > 0;
                g.check(
                    &format!("{} recovery", p.name()),
                    if same {
                        Ok(())
                    } else {
                        Err(format!(
                            "recovered {} decisions from {} words ({} replayed), live {} from {}",
                            back.history().len(),
                            report.words_recovered(),
                            report.words_replayed,
                            live.history().len(),
                            lane.words[0]
                        ))
                    },
                );
            }
            Ok(())
        })?;
    }
    // Conservation: every word handed in is processed or lost.
    let (mut attempted, mut lost) = (0u64, 0u64);
    for lane in &mut s.lanes {
        let p = lane.paradigm;
        if !w.durable {
            lane.rt.drain_all();
        }
        for (k, &id) in lane.ids.iter().enumerate() {
            let sess = lane.rt.session(id).expect("session");
            let st = sess.stats();
            let refused_inactive = lane.rejected_full[k] - st.shed_newest;
            let queued = sess.queue_len() as u64;
            let failed = sess.error().is_some();
            let session_lost = st.shed()
                + st.quarantined
                + st.late_dropped
                + refused_inactive
                + if failed { queued } else { 0 };
            let consumed = st.processed - st.late_dropped;
            let words = lane.words[k];
            attempted += words;
            lost += session_lost;
            let balanced = words == consumed + session_lost + if failed { 0 } else { queued }
                && (failed || queued == 0);
            g.check(
                &format!("{} session {k} conservation", p.name()),
                if balanced {
                    Ok(())
                } else {
                    Err(format!(
                        "{words} offered != {consumed} processed + {session_lost} lost + {queued} queued"
                    ))
                },
            );
        }
        g.check(
            &format!("{} time to decision", p.name()),
            if lane.unresolved == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} decisions not matched to a hand-in",
                    lane.unresolved
                ))
            },
        );
    }
    for f in &g.failures {
        eprintln!("[servebench] GATE FAILED: {f}");
    }
    eprintln!(
        "[servebench] gate: {} checks passed, {} failed; {attempted} words offered, {lost} lost; timed {timed_s:.2} s, {done_rounds} rounds",
        g.passed,
        g.failures.len()
    );

    let metrics = if a.trace {
        let layer = per_layer(
            a,
            &s,
            &shadows,
            replica_ok,
            tracer.as_ref().expect("traced"),
            &served,
            &region,
            steal_pct,
            median(probes.clone()),
            ref_scale,
            &recover_ms,
            &snapshot_bytes,
        );
        let out = Path::new(".bench_out");
        std::fs::create_dir_all(out).map_err(EvlabError::Io)?;
        let stem = format!("{}-s{}", w.name, a.seed);
        let tr = tracer.as_ref().expect("traced");
        tr.write(&out.join(format!("{stem}.spans.tsv")))
            .map_err(EvlabError::Io)?;
        obs::set_enabled(true);
        let mut doc = String::from("{\n\"metrics\": {");
        doc.push_str(
            &layer
                .iter()
                .map(|x| format!("\"{}\": {}", x.name, x.value))
                .collect::<Vec<_>>()
                .join(", "),
        );
        doc.push_str(&format!(
            "}},\n\"spans\": {}, \"spans_dropped\": {},\n\"obs\": {}\n}}\n",
            tr.spans.len(),
            tr.dropped,
            obs::snapshot_json().to_string_pretty()
        ));
        evlab_util::json::write_atomic(out.join(format!("{stem}.trace.json")), &doc)?;
        layer
    } else {
        e2e
    };
    for x in &metrics {
        eprintln!("[servebench]   {:<32} {:>16.4} {}", x.name, x.value, x.unit);
    }
    for lane in &s.lanes {
        let q = |x: f64| lane.ttd.quantile(x).unwrap_or(0.0) / 1e3;
        eprintln!(
            "[servebench]   {} ttd over {} decisions: p50 {:.1} us, p90 {:.1}, p99 {:.1}, p99.9 {:.1}, max {:.1}",
            lane.paradigm.name(),
            lane.ttd.count(),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            q(1.0)
        );
    }
    println!("{}", result_line(g.ok(), attempted.max(1), lost, &metrics));
    Ok(g.ok())
}

fn newest_snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix("ckpt.")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((epoch, e.metadata().ok()?.len()))
        })
        .max()
        .map_or(0, |(_, len)| len)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    a: &Args,
    s: &Setup,
    shadows: &[Shadow],
    replica_ok: [bool; 3],
    tr: &Tracer,
    served: &Served,
    region: &LogHist,
    steal_pct: f64,
    probe_ns: f64,
    ref_scale: f64,
    recover_ms: &[f64],
    snapshot_bytes: &[u64; 3],
) -> Vec<Metric> {
    let w = &a.workload;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = vec![m("datasets.render_s", s.render_s, "s")];
    for p in PARADIGMS {
        out.push(m(
            format!("core.fit_s.{}", p.name()),
            s.fit_s[p.index()],
            "s",
        ));
    }
    let mut pooled = LayerTimes::default();
    for sh in shadows {
        let t = &sh.times;
        pooled.decode_ns += t.decode_ns;
        pooled.decode_words += t.decode_words;
        pooled.reorder_ns += t.reorder_ns;
        pooled.reorder_events += t.reorder_events;
        pooled.held_max = pooled.held_max.max(t.held_max);
        pooled.direct_ns += t.direct_ns;
    }
    for sh in shadows {
        let t = &sh.times;
        out.push(m(
            format!("core.push_ns.{}", sh.paradigm.name()),
            per(t.direct_ns as f64, t.direct_events as f64),
            "ns",
        ));
    }
    for lane in &s.lanes {
        let (mut ops, mut mem, mut dec) = (0u64, 0u64, 0u64);
        for &id in &lane.ids {
            let sess = lane.rt.session(id).expect("session");
            ops += sess.ops().effective_arithmetic();
            mem += sess.ops().mem_accesses();
            dec += sess.history().len() as u64;
        }
        let ev = lane.processed() as f64;
        let name = lane.paradigm.name();
        out.push(m(
            format!("core.ops_per_event.{name}"),
            per(ops as f64, ev),
            "op",
        ));
        out.push(m(
            format!("core.words_per_event.{name}"),
            per(mem as f64, ev),
            "word",
        ));
        out.push(m(
            format!("core.decisions_per_event.{name}"),
            per(dec as f64, ev),
            "ratio",
        ));
    }
    out.push(m(
        "events.aer.decode_ns",
        per(pooled.decode_ns as f64, pooled.decode_words as f64),
        "ns",
    ));
    out.push(m(
        "events.reorder.push_ns",
        per(pooled.reorder_ns as f64, pooled.reorder_events as f64),
        "ns",
    ));
    out.push(m(
        "events.reorder.held_max",
        pooled.held_max as f64,
        "count",
    ));

    // Span totals per paradigm; the slice entry is its self time.
    let st = tr.self_times();
    let busy = tr.busy();
    let (mut ingest_ns, mut ingest_words) = (0u64, 0u64);
    let (mut durable_ns, mut durable_words) = (0u64, 0u64);
    let mut ticks = LogHist::new();
    let mut tick_count = 0u64;
    for sp in &tr.spans {
        match sp.kind {
            SpanKind::Ingest => {
                ingest_ns += sp.dur_ns();
                ingest_words += u64::from(sp.items);
            }
            SpanKind::DurableIngest => {
                durable_ns += sp.dur_ns();
                durable_words += u64::from(sp.items);
            }
            SpanKind::Tick => {
                ticks.record(sp.dur_ns());
                tick_count += 1;
            }
            _ => {}
        }
    }
    let k = |kind: SpanKind| kind as usize;
    let mut sched_ns = 0i64;
    for sh in shadows {
        let p = sh.paradigm.index();
        sched_ns +=
            st[p][k(SpanKind::Tick)] as i64 - (sh.times.direct_ns + sh.times.reorder_ns) as i64;
    }
    out.push(m(
        "serve.ingest_ns",
        per(ingest_ns as f64, ingest_words as f64),
        "ns",
    ));
    out.push(m(
        "serve.tick_us.p50",
        ticks.quantile(0.5).unwrap_or(0.0) / 1e3,
        "us",
    ));
    out.push(m(
        "serve.tick_us.p99",
        ticks.quantile(0.99).unwrap_or(0.0) / 1e3,
        "us",
    ));
    out.push(m(
        "serve.sched_us",
        if tick_count > 0 {
            sched_ns as f64 / tick_count as f64 / 1e3
        } else {
            0.0
        },
        "us",
    ));
    let lane0 = &s.lanes[0];
    let words: u64 = lane0.words.iter().sum();
    out.push(m(
        "serve.events_per_tick",
        per(words as f64, lane0.ticks as f64),
        "count",
    ));
    let history_bytes: usize = s
        .lanes
        .iter()
        .flat_map(|l| {
            l.ids
                .iter()
                .map(move |&id| l.rt.session(id).expect("session"))
        })
        .map(|sess| sess.history().len() * 16 + sess.latencies_us().len() * 8)
        .sum();
    out.push(m("serve.history_bytes", history_bytes as f64, "B"));
    out.push(m(
        "util.par.region_us.p50",
        region.quantile(0.5).unwrap_or(0.0) / 1e3,
        "us",
    ));
    out.push(m(
        "util.par.region_us.p99",
        region.quantile(0.99).unwrap_or(0.0) / 1e3,
        "us",
    ));
    out.push(m("util.obs.counter_add_ns", counter_add_ns(), "ns"));
    let mut overhead = Vec::new();
    for p in 0..3 {
        let per_event = |i: usize| per(served.busy[p][i] as f64, served.events[p][i] as f64);
        if per_event(0) > 0.0 && per_event(1) > 0.0 {
            overhead.push(100.0 * (per_event(1) / per_event(0) - 1.0));
        }
    }
    out.push(m(
        "trace.overhead_pct",
        overhead.iter().sum::<f64>() / overhead.len().max(1) as f64,
        "%",
    ));
    for sh in shadows {
        let p = sh.paradigm.index();
        let t = &sh.times;
        // A tick is counted through its measured content from the layer
        // replay: the direct classifier and reorder time for the same
        // words. What is left out is the serving runtime's own time
        // (queues, scheduling, statistics). A durable ingest counts whole:
        // its WAL share is derived as the remainder, so in `durable` the
        // figure is 100 % by construction.
        let layers = st[p][k(SpanKind::Slice)]
            + st[p][k(SpanKind::Flush)]
            + st[p][k(SpanKind::Checkpoint)]
            + st[p][k(SpanKind::DurableIngest)]
            + st[p][k(SpanKind::Ingest)]
            + if w.durable {
                0
            } else {
                t.direct_ns + t.reorder_ns
            };
        let pct = 100.0 * per(layers as f64, busy[p] as f64);
        if (pct - 100.0).abs() > ACCOUNTED_TOL_PCT {
            eprintln!(
                "[servebench] accounting: {} layer self times cover {pct:.1}% of busy time (tolerance ±{ACCOUNTED_TOL_PCT}%)",
                sh.paradigm.name()
            );
        }
        out.push(m(
            format!("trace.accounted_pct.{}", sh.paradigm.name()),
            pct,
            "%",
        ));
    }
    // The replica's timings, or zeros when it no longer matches.
    let t = |p: Paradigm| {
        if replica_ok[p.index()] {
            shadows[p.index()].times.clone()
        } else {
            LayerTimes::default()
        }
    };
    let snn = t(Paradigm::Snn);
    out.push(m(
        "snn.inject_ns",
        per(snn.inject_ns as f64, snn.injects as f64),
        "ns",
    ));
    out.push(m(
        "snn.readout_ns",
        per(snn.readout_ns as f64, snn.injects as f64),
        "ns",
    ));
    let cnn = t(Paradigm::Cnn);
    out.push(m(
        "cnn.encode_us",
        per(cnn.encode_ns as f64, cnn.windows as f64) / 1e3,
        "us",
    ));
    out.push(m(
        "cnn.events_per_window",
        per(cnn.window_events as f64, cnn.windows as f64),
        "count",
    ));
    out.push(m(
        "tensor.forward_us",
        per(cnn.forward_ns as f64, cnn.windows as f64) / 1e3,
        "us",
    ));
    out.push(m(
        "tensor.macs_per_window",
        per(cnn.forward_macs as f64, cnn.windows as f64),
        "count",
    ));
    let gnn = t(Paradigm::Gnn);
    out.push(m(
        "gnn.window.push_us",
        per(gnn.push_ns as f64, gnn.gnn_events as f64) / 1e3,
        "us",
    ));
    out.push(m(
        "gnn.conv_us",
        per(
            gnn.update_ns.saturating_sub(gnn.push_ns) as f64,
            gnn.gnn_events as f64,
        ) / 1e3,
        "us",
    ));
    out.push(m(
        "gnn.reselected_per_event",
        per(gnn.reselected as f64, gnn.gnn_events as f64),
        "count",
    ));
    out.push(m(
        "gnn.state_bytes_per_node",
        if replica_ok[Paradigm::Gnn.index()] {
            shadows[Paradigm::Gnn.index()]
                .gnn_state_bytes_per_node()
                .unwrap_or(0.0)
        } else {
            0.0
        },
        "B",
    ));
    // `CheckpointManager::ingest` spans minus the direct decode and
    // classifier time for the same words: the WAL append plus the serving
    // runtime's own ingest and tick work.
    let wal_ns = durable_ns.saturating_sub(pooled.decode_ns + pooled.direct_ns);
    out.push(m(
        "durable.wal_append_us",
        per(wal_ns as f64, durable_words as f64) / 1e3,
        "us",
    ));
    let mut ckpt = LogHist::new();
    for lane in &s.lanes {
        ckpt.merge(&lane.checkpoint_ns);
    }
    out.push(m(
        "durable.checkpoint_us.p50",
        ckpt.quantile(0.5).unwrap_or(0.0) / 1e3,
        "us",
    ));
    out.push(m(
        "durable.checkpoint_us.p99",
        ckpt.quantile(0.99).unwrap_or(0.0) / 1e3,
        "us",
    ));
    for p in PARADIGMS {
        out.push(m(
            format!("durable.snapshot_bytes.{}", p.name()),
            snapshot_bytes[p.index()] as f64,
            "B",
        ));
    }
    out.push(m(
        "durable.recover_ms",
        recover_ms.iter().sum::<f64>() / recover_ms.len().max(1) as f64,
        "ms",
    ));
    out.push(m("host.steal_pct", steal_pct, "%"));
    out.push(m("host.probe_ns", probe_ns, "ns"));
    out.push(m("host.ref_scale", ref_scale, "ratio"));
    out
}

/// Cost of one `obs::counter_add` with observability on.
fn counter_add_ns() -> f64 {
    let was = obs::enabled();
    obs::set_enabled(true);
    const N: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..N {
        obs::counter_add("servebench.probe", 1);
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    obs::set_enabled(was);
    ns
}
