//! Deterministic differential fuzz lab.
//!
//! Drives seeded random operation sequences through the workspace's core
//! data paths and cross-checks every naive implementation against its
//! optimized counterpart, with `evlab_util::check` invariants forced on
//! so contract drift panics at the corrupting operation. Eight targets:
//!
//! * `graph_builders` — naive vs kd-tree vs incremental vs sliding-window
//!   graph construction over random event streams and configs.
//! * `gemm` — blocked/packed GEMM vs the naive triple nest, bit-exact,
//!   serial and threaded.
//! * `threads` — striped incremental graph build and panel-parallel GEMM
//!   at `EVLAB_THREADS` 1 vs 4, bit-exact.
//! * `checkpoint` — reorder-buffer and sliding-window sessions snapshotted
//!   and restored mid-stream vs an uninterrupted oracle, plus corrupted
//!   (bit-flipped / truncated) snapshots that must fail typed.
//! * `reorder_model` — `ReorderBuffer` vs an executable model of its
//!   documented release/quarantine contract, per-push release sequences
//!   compared exactly (this is the target that caught the near-zero-time
//!   warm-up bug).
//! * `json_roundtrip` — random documents (astral-plane strings included)
//!   through the writer and parser, plus crafted `\uXXXX` escape forms
//!   with known expected values.
//! * `gnn_stream` — the streaming GNN engine (`WindowedGnn`, with its
//!   cached neighbour projections and lane kernels) vs a reference that
//!   recomputes every frontier node from its raw input rows through the
//!   public per-node kernels, over random streams, graph configs, window
//!   policies, widths and both edge kernels: logits bit-identical at
//!   every event, and the final logits within 1e-3 of a batch forward
//!   over the compacted window.
//! * `conv` — the direct conv2d forward and the im2col + GEMM backward vs
//!   their naive nests at `EVLAB_THREADS` 1 and 4, over random shapes
//!   (1–12 in and 1–20 out channels, kernels 1–5, strides 1–3, padding
//!   below the kernel) and inputs with exact `+0.0`/`-0.0` entries and
//!   all-zero channels: forward bits, effective-MAC counts and the three
//!   accumulated gradients bit-identical. Weights are finite and no bias
//!   is `-0.0`: the kernels include zero products that the naive forward
//!   skips, which differs in exactly those two cases (`gemm` module docs).
//!
//! Every case is a pure function of `(target, seed, size)`: a mismatch
//! report names all three, and the lab shrinks the failing size by
//! bisection before reporting. Setting `EVLAB_FAULTS` additionally runs
//! the generated event streams of the `checkpoint` and `reorder_model`
//! targets through the fault injector. Exit code is non-zero on any
//! mismatch, panic, or invariant violation.
//!
//! Usage: `fuzz_lab [--smoke] [--seeds N] [--target NAME]
//! [--corpus PATH] [--metrics PATH]`. The committed corpus pins the
//! original failing seed of every bug the lab has caught; those cases run
//! in every mode, smoke included.

use evlab_events::reorder::ReorderBuffer;
use evlab_events::{Event, Polarity};
use evlab_gnn::build::{incremental_build, kdtree_build, naive_build, GraphConfig};
use evlab_gnn::conv::NodeFeatures;
use evlab_gnn::graph::{EventGraph, GraphView};
use evlab_gnn::network::{GnnConfig, GnnNetwork};
use evlab_gnn::window::{SlidingWindowGraph, WindowPolicy, WindowedGnn};
use evlab_tensor::gemm::{
    conv2d_backward, conv2d_backward_naive, conv2d_forward, conv2d_forward_naive, gemm_into,
    gemm_naive_into, ConvShape,
};
use evlab_tensor::scratch::Scratch;
use evlab_tensor::OpCount;
use evlab_util::fault::{FaultInjector, FaultSpec, RawEvent};
use evlab_util::frame::{restore_from_bytes, snapshot_to_bytes, Decoder, Encoder};
use evlab_util::json::Json;
use evlab_util::{check, obs, par, EvlabError, Rng64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One differential target: a pure function of `(seed, size)` returning
/// `Err(description)` on mismatch.
struct Target {
    name: &'static str,
    /// Case size in full mode; shrinking bisects below this.
    full_size: usize,
    /// Case size in `--smoke` mode.
    smoke_size: usize,
    run: fn(u64, usize) -> Result<(), String>,
}

const TARGETS: &[Target] = &[
    Target { name: "graph_builders", full_size: 300, smoke_size: 60, run: graph_builders },
    Target { name: "gemm", full_size: 28, smoke_size: 10, run: gemm },
    Target { name: "threads", full_size: 5_000, smoke_size: 4_200, run: threads },
    Target { name: "checkpoint", full_size: 400, smoke_size: 60, run: checkpoint },
    Target { name: "reorder_model", full_size: 500, smoke_size: 80, run: reorder_model },
    Target { name: "json_roundtrip", full_size: 48, smoke_size: 16, run: json_roundtrip },
    Target { name: "gnn_stream", full_size: 300, smoke_size: 80, run: gnn_stream },
    Target { name: "conv", full_size: 64, smoke_size: 24, run: conv },
];

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A time-sorted random event stream on a 64×64 sensor. Timestamps start
/// near zero and advance by 0–400 µs steps.
fn sorted_events(rng: &mut Rng64, n: usize) -> Vec<Event> {
    let mut t = rng.next_below(300);
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(Event::new(
            t,
            rng.next_below(64) as u16,
            rng.next_below(64) as u16,
            if rng.bernoulli(0.5) { Polarity::On } else { Polarity::Off },
        ));
        t += rng.next_below(400);
    }
    events
}

/// A random-but-legal graph config: exact cells (the documented precondition
/// for builder equivalence and threaded striping).
fn random_config(rng: &mut Rng64) -> GraphConfig {
    let radii = [1.5, 3.0, 5.0, 8.0];
    let degrees = [1usize, 2, 4, 8, 16];
    let horizons = [800u64, 5_000, 50_000];
    let mut config = GraphConfig::new()
        .with_radius(radii[rng.next_index(radii.len())])
        .with_max_degree(degrees[rng.next_index(degrees.len())]);
    config.horizon_us = horizons[rng.next_index(horizons.len())];
    config
}

/// When `EVLAB_FAULTS` is set, runs `events` through the fault injector
/// (re-seeded per case so runs stay reproducible) and returns the damaged
/// stream re-sorted — the ingestion targets require sorted input; the
/// fault layer's *content* damage (drops, duplicates, hot pixels, bursts)
/// still exercises them with realistic streams.
fn apply_env_faults(events: Vec<Event>, seed: u64) -> Vec<Event> {
    let Ok(spec) = std::env::var("EVLAB_FAULTS") else {
        return events;
    };
    let Ok(spec) = FaultSpec::parse(&spec) else {
        return events;
    };
    let raw: Vec<RawEvent> = events
        .iter()
        .map(|e| RawEvent {
            t_us: e.t.as_micros(),
            x: e.x,
            y: e.y,
            on: e.polarity == Polarity::On,
        })
        .collect();
    let mut inj = FaultInjector::new(&spec.with_seed(seed));
    let mut out: Vec<Event> = inj
        .apply_events(&raw, (64, 64))
        .into_iter()
        .map(|r| {
            Event::new(r.t_us, r.x, r.y, if r.on { Polarity::On } else { Polarity::Off })
        })
        .collect();
    out.sort_by_key(|e| e.t);
    out
}

/// A random window policy: count-, age- or doubly bounded.
fn random_policy(rng: &mut Rng64) -> WindowPolicy {
    match rng.next_index(3) {
        0 => WindowPolicy::MaxNodes(1 + rng.next_below(40) as usize),
        1 => WindowPolicy::MaxAgeUs(1 + rng.next_below(20_000)),
        _ => WindowPolicy::Both {
            max_nodes: 1 + rng.next_below(40) as usize,
            max_age_us: 1 + rng.next_below(20_000),
        },
    }
}

/// Flattened adjacency signature for exact graph comparison.
fn graph_sig(g: &EventGraph) -> Vec<(Event, Vec<u32>)> {
    (0..g.node_count())
        .map(|i| (*g.event(i), g.in_neighbors(i).to_vec()))
        .collect()
}

fn first_diff(a: &[(Event, Vec<u32>)], b: &[(Event, Vec<u32>)]) -> String {
    if a.len() != b.len() {
        return format!("{} vs {} nodes", a.len(), b.len());
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return format!("node {i}: {x:?} vs {y:?}");
        }
    }
    "(identical?)".to_string()
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

/// Naive vs kd-tree vs incremental vs sliding-window builders.
fn graph_builders(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6772_6170);
    let events = sorted_events(&mut rng, size);
    let config = random_config(&mut rng);
    let mut ops = OpCount::new();
    let reference = graph_sig(&naive_build(&events, &config, &mut ops));
    let kdtree = graph_sig(&kdtree_build(&events, &config, &mut ops));
    if reference != kdtree {
        return Err(format!("naive vs kdtree: {}", first_diff(&reference, &kdtree)));
    }
    let incremental = graph_sig(&incremental_build(&events, &config, &mut ops));
    if reference != incremental {
        return Err(format!(
            "naive vs incremental: {}",
            first_diff(&reference, &incremental)
        ));
    }
    let mut window = SlidingWindowGraph::new(config, WindowPolicy::MaxNodes(usize::MAX));
    for e in &events {
        window.push(*e, &mut ops);
    }
    let windowed = graph_sig(&window.to_event_graph());
    if reference != windowed {
        return Err(format!("naive vs windowed: {}", first_diff(&reference, &windowed)));
    }
    Ok(())
}

/// Blocked GEMM vs the naive triple nest, serial and threaded, bit-exact.
fn gemm(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6765_6D6D);
    let bound = size.max(1) as u64 + 1;
    let (m, n, k) = (
        rng.next_below(bound) as usize,
        rng.next_below(bound) as usize,
        rng.next_below(bound) as usize,
    );
    let fill = |rng: &mut Rng64, len: usize| -> Vec<f32> {
        (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
    };
    let a = fill(&mut rng, m * k);
    let b = fill(&mut rng, k * n);
    let c0 = fill(&mut rng, m * n);
    let mut want = c0.clone();
    gemm_naive_into(m, n, k, &a, k, 1, &b, n, 1, &mut want);
    for nthreads in [1usize, 4] {
        let mut got = c0.clone();
        par::with_threads(nthreads, || {
            let mut scratch = Scratch::new();
            gemm_into(m, n, k, &a, &b, &mut got, &mut scratch);
        });
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            if w.to_bits() != g.to_bits() {
                return Err(format!(
                    "{m}x{n}x{k} threads={nthreads}: c[{i}] {w:?} vs {g:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Serial vs threaded execution of the striped incremental build and a
/// pool-sized GEMM: bit-identical across `EVLAB_THREADS` 1 vs 4.
fn threads(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7468_7264);
    // Past the striping threshold so the parallel path actually runs.
    let events = sorted_events(&mut rng, size);
    let config = random_config(&mut rng);
    let serial = par::with_threads(1, || {
        let mut ops = OpCount::new();
        graph_sig(&incremental_build(&events, &config, &mut ops))
    });
    let threaded = par::with_threads(4, || {
        let mut ops = OpCount::new();
        graph_sig(&incremental_build(&events, &config, &mut ops))
    });
    if serial != threaded {
        return Err(format!(
            "incremental 1 vs 4 threads: {}",
            first_diff(&serial, &threaded)
        ));
    }
    // 64·64·33 MACs clears the GEMM pool threshold.
    let (m, n, k) = (64, 64, 33);
    let a: Vec<f32> = (0..m * k).map(|_| rng.next_f32() - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
    let run = |nthreads: usize| {
        par::with_threads(nthreads, || {
            let mut c = vec![0.0f32; m * n];
            let mut scratch = Scratch::new();
            gemm_into(m, n, k, &a, &b, &mut c, &mut scratch);
            c
        })
    };
    let (c1, c4) = (run(1), run(4));
    for (i, (x, y)) in c1.iter().zip(&c4).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("gemm 1 vs 4 threads: c[{i}] {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// Snapshot/restore mid-stream vs an uninterrupted oracle, plus corrupted
/// snapshots that must fail typed, for the reorder buffer and the sliding
/// window.
fn checkpoint(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x636B_7074);
    let skew = [0u64, 50, 300][rng.next_index(3)];
    let mut events = sorted_events(&mut rng, size);
    // Bounded disorder for the reorder leg.
    if skew > 0 {
        for e in &mut events {
            let t = e.t.as_micros();
            let jitter = rng.next_below(skew) as i64 - (skew / 2) as i64;
            *e = Event::new(t.saturating_add_signed(jitter), e.x, e.y, e.polarity);
        }
    }
    let events = apply_env_faults(events, seed);
    let cut = if events.is_empty() { 0 } else { rng.next_index(events.len()) };

    // Reorder buffer: oracle runs uninterrupted; the subject is
    // snapshotted at `cut` and restored into a fresh buffer.
    let mut oracle = ReorderBuffer::new(skew);
    let mut subject = ReorderBuffer::new(skew);
    let mut oracle_out = Vec::new();
    let mut subject_out = Vec::new();
    for e in &events[..cut] {
        oracle.push(*e, &mut oracle_out);
        subject.push(*e, &mut subject_out);
    }
    let bytes = snapshot_to_bytes(&subject);
    let mut restored = ReorderBuffer::new(skew);
    restore_from_bytes(&mut restored, &bytes)
        .map_err(|e| format!("valid reorder snapshot rejected: {e:?}"))?;
    for e in &events[cut..] {
        oracle.push(*e, &mut oracle_out);
        restored.push(*e, &mut subject_out);
    }
    oracle.flush(&mut oracle_out);
    restored.flush(&mut subject_out);
    if oracle_out != subject_out || oracle.late_dropped() != restored.late_dropped() {
        return Err(format!(
            "reorder restore diverged: {} vs {} released, {} vs {} late",
            oracle_out.len(),
            subject_out.len(),
            oracle.late_dropped(),
            restored.late_dropped()
        ));
    }
    // Corruption: a bit flip or truncation anywhere in the frame must
    // surface as a typed error, never load.
    if !bytes.is_empty() {
        let mut damaged = bytes.clone();
        if rng.bernoulli(0.5) {
            let i = rng.next_index(damaged.len());
            damaged[i] ^= 1 << rng.next_below(8);
        } else {
            damaged.truncate(rng.next_index(damaged.len()));
        }
        if damaged != bytes {
            let mut victim = ReorderBuffer::new(skew);
            if restore_from_bytes(&mut victim, &damaged).is_ok() {
                return Err("corrupted reorder snapshot restored silently".to_string());
            }
        }
    }

    // Sliding window: same shape — snapshot at the cut, compare compacted
    // graphs at the end. The window requires sorted input.
    let mut sorted = events;
    sorted.sort_by_key(|e| e.t);
    let policy = random_policy(&mut rng);
    let config = random_config(&mut rng);
    let mut ops = OpCount::new();
    let mut w_oracle = SlidingWindowGraph::new(config, policy);
    let mut w_subject = SlidingWindowGraph::new(config, policy);
    for e in &sorted[..cut] {
        w_oracle.push(*e, &mut ops);
        w_subject.push(*e, &mut ops);
    }
    let mut enc = Encoder::new();
    w_subject.save_state(&mut enc);
    let bytes = enc.into_bytes();
    let mut w_restored = SlidingWindowGraph::new(config, policy);
    w_restored
        .load_state(&mut Decoder::new(&bytes))
        .map_err(|e| format!("valid window snapshot rejected: {e:?}"))?;
    for e in &sorted[cut..] {
        w_oracle.push(*e, &mut ops);
        w_restored.push(*e, &mut ops);
    }
    let (a, b) = (
        graph_sig(&w_oracle.to_event_graph()),
        graph_sig(&w_restored.to_event_graph()),
    );
    if a != b {
        return Err(format!("window restore diverged: {}", first_diff(&a, &b)));
    }
    Ok(())
}

/// Executable model of the reorder buffer's documented contract.
struct ReorderModel {
    skew: u64,
    held: Vec<(u64, u64, Event)>,
    next_seq: u64,
    max_seen: u64,
    last_released: Option<u64>,
    late: u64,
}

impl ReorderModel {
    fn new(skew: u64) -> Self {
        ReorderModel {
            skew,
            held: Vec::new(),
            next_seq: 0,
            max_seen: 0,
            last_released: None,
            late: 0,
        }
    }

    /// The contract, verbatim: quarantine below the released floor, hold
    /// everything inside the skew horizon (`max_seen - t < skew`), release
    /// the rest in `(t, arrival)` order. A stream starting at `t < skew`
    /// therefore releases nothing during warm-up — not even `t == 0`.
    fn push(&mut self, e: Event) -> Vec<Event> {
        let t = e.t.as_micros();
        if self.last_released.is_some_and(|l| t < l) {
            self.late += 1;
            return Vec::new();
        }
        self.held.push((t, self.next_seq, e));
        self.next_seq += 1;
        self.max_seen = self.max_seen.max(t);
        self.held.sort_by_key(|&(t, s, _)| (t, s));
        let releasable = self
            .held
            .iter()
            .take_while(|&&(t, _, _)| self.max_seen - t >= self.skew)
            .count();
        let released: Vec<Event> =
            self.held.drain(..releasable).map(|(_, _, e)| e).collect();
        if let Some(last) = released.last() {
            self.last_released = Some(last.t.as_micros());
        }
        released
    }

    fn flush(&mut self) -> Vec<Event> {
        self.held.sort_by_key(|&(t, s, _)| (t, s));
        self.held.drain(..).map(|(_, _, e)| e).collect()
    }
}

/// `ReorderBuffer` vs the model, per-push release sequences compared
/// exactly. Streams deliberately start near zero so the warm-up phase is
/// exercised on almost every seed.
fn reorder_model(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7265_6F72);
    let skew = [0u64, 20, 100, 750][rng.next_index(4)];
    let mut events = Vec::with_capacity(size);
    let mut base = rng.next_below(40);
    for _ in 0..size {
        // Displacement up to ±skew (hopeless stragglers included).
        let spread = 2 * skew + 10;
        let t = (base + rng.next_below(spread)).saturating_sub(spread / 2);
        events.push(Event::new(
            t,
            rng.next_below(64) as u16,
            rng.next_below(64) as u16,
            Polarity::On,
        ));
        base += rng.next_below(60);
    }
    let events = apply_env_faults(events, seed);
    let mut model = ReorderModel::new(skew);
    let mut buf = ReorderBuffer::new(skew);
    for (i, e) in events.iter().enumerate() {
        let want = model.push(*e);
        let mut got = Vec::new();
        buf.push(*e, &mut got);
        if want != got {
            return Err(format!(
                "push {i} (t={}): model released {:?}, buffer {:?}",
                e.t.as_micros(),
                want.iter().map(|e| e.t.as_micros()).collect::<Vec<_>>(),
                got.iter().map(|e| e.t.as_micros()).collect::<Vec<_>>()
            ));
        }
        if model.late != buf.late_dropped() {
            return Err(format!(
                "push {i}: model quarantined {}, buffer {}",
                model.late,
                buf.late_dropped()
            ));
        }
    }
    let want = model.flush();
    let mut got = Vec::new();
    buf.flush(&mut got);
    if want != got {
        return Err(format!(
            "flush: model {:?}, buffer {:?}",
            want.iter().map(|e| e.t.as_micros()).collect::<Vec<_>>(),
            got.iter().map(|e| e.t.as_micros()).collect::<Vec<_>>()
        ));
    }
    Ok(())
}

/// The streaming GNN as a plain frontier recompute, written against the
/// public API only: each push recomputes the frontier nodes layer by layer
/// with `AnyConv::node_forward` over their raw input rows (no cached
/// projections, no lane kernels), propagates along `out_edges`, and pools
/// in f64 — the engine's documented algorithm, at its full per-edge cost.
struct ReferenceGnn {
    net: GnnNetwork,
    window: SlidingWindowGraph,
    input: NodeFeatures,
    layers: Vec<NodeFeatures>,
    pool: Vec<f64>,
}

impl ReferenceGnn {
    fn new(net: GnnNetwork, config: GraphConfig, policy: WindowPolicy) -> Self {
        let layers: Vec<NodeFeatures> = net
            .convs()
            .iter()
            .map(|c| NodeFeatures::zeros(0, c.out_dim()))
            .collect();
        let width = layers.last().map_or(0, NodeFeatures::dim);
        ReferenceGnn {
            window: SlidingWindowGraph::new(config, policy),
            input: NodeFeatures::zeros(0, 2),
            layers,
            pool: vec![0.0; width],
            net,
        }
    }

    fn update(&mut self, event: Event, ops: &mut OpCount) -> Vec<f32> {
        let outcome = self.window.push(event, ops);
        let last = self.layers.len() - 1;
        for &e in &outcome.evicted {
            if (e as usize) < self.layers[last].nodes() {
                for (p, &v) in self.pool.iter_mut().zip(self.layers[last].row(e as usize)) {
                    *p -= v as f64;
                }
            }
        }
        let slots = self.window.slot_count();
        self.input.resize_nodes(slots);
        for f in &mut self.layers {
            f.resize_nodes(slots);
        }
        let ins = outcome.inserted as usize;
        let feat = self.window.node_features(ins);
        self.input.row_mut(ins).copy_from_slice(&feat);
        let mut frontier: Vec<(u64, u32)> = outcome
            .reselected
            .iter()
            .map(|&s| (self.window.seq(s as usize), s))
            .collect();
        frontier.push((self.window.seq(ins), outcome.inserted));
        for l in 0..=last {
            for &(_, fi) in &frontier {
                let i = fi as usize;
                let prev = if l == 0 {
                    &self.input
                } else {
                    &self.layers[l - 1]
                };
                let mut row = self.net.convs()[l].node_forward(&self.window, prev, i, ops);
                for v in &mut row {
                    *v = v.max(0.0);
                }
                if l == last {
                    if i != ins {
                        for (p, &v) in self.pool.iter_mut().zip(self.layers[last].row(i)) {
                            *p -= v as f64;
                        }
                    }
                    for (p, &v) in self.pool.iter_mut().zip(&row) {
                        *p += v as f64;
                    }
                }
                self.layers[l].row_mut(i).copy_from_slice(&row);
            }
            if l < last {
                let mut next = frontier.clone();
                for &(_, fi) in &frontier {
                    next.extend(self.window.out_edges(fi as usize));
                }
                next.sort_by_key(|&(sq, _)| sq);
                next.dedup();
                frontier = next;
            }
        }
        let n = self.window.node_count() as f64;
        let pooled: Vec<f32> = self.pool.iter().map(|&p| (p / n) as f32).collect();
        self.net.head_logits(&pooled, ops)
    }
}

/// `WindowedGnn` vs [`ReferenceGnn`], logit bits compared at every event;
/// then the final logits vs a batch forward over the compacted window
/// (within 1e-3: the engine pools in f64, the batch path in f32). Output
/// widths include ones that are not a multiple of 4 or 8, so the lane
/// kernels' remainder lanes are exercised.
fn gnn_stream(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x676E_6E73);
    let events = sorted_events(&mut rng, size);
    let config = random_config(&mut rng);
    let policy = random_policy(&mut rng);
    let widths = [1usize, 3, 5, 7, 8, 13, 16];
    let hidden: Vec<usize> = (0..1 + rng.next_index(3))
        .map(|_| widths[rng.next_index(widths.len())])
        .collect();
    let classes = 2 + rng.next_index(4);
    let mut net_config = GnnConfig::new(classes).with_hidden(hidden.clone());
    if rng.bernoulli(0.5) {
        net_config = net_config.with_spline_kernel(2 + rng.next_index(3));
    }
    let net = GnnNetwork::new(&net_config, &mut rng);
    let case = format!("{:?} {policy:?} hidden {hidden:?}", net_config.kernel);
    let mut engine = WindowedGnn::new(net.clone(), config, policy, classes);
    let mut reference = ReferenceGnn::new(net.clone(), config, policy);
    let mut ops = OpCount::new();
    let mut last = None;
    for (i, e) in events.iter().enumerate() {
        let got = engine.update(*e, &mut ops);
        let want = reference.update(*e, &mut ops);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        if bits(got.as_slice()) != bits(&want) {
            return Err(format!(
                "{case}: event {i}: engine {:?} vs reference {want:?}",
                got.as_slice()
            ));
        }
        last = Some(want);
    }
    let Some(last) = last else {
        return Ok(());
    };
    let mut batch = net;
    let batch_logits = batch.forward(&engine.graph().to_event_graph(), &mut ops);
    for (b, s) in batch_logits.as_slice().iter().zip(&last) {
        if (b - s).abs() >= 1e-3 {
            return Err(format!(
                "{case}: batch {b} vs streaming {s} after {} events",
                events.len()
            ));
        }
    }
    Ok(())
}

/// A random character drawn from the interesting corners of Unicode:
/// ASCII, controls, BMP text, and astral planes.
fn random_char(rng: &mut Rng64) -> char {
    loop {
        let code = match rng.next_index(4) {
            0 => rng.next_below(0x80) as u32,
            1 => rng.next_below(0x20) as u32,
            2 => rng.next_below(0x1_0000) as u32,
            _ => 0x1_0000 + rng.next_below(0x10_0000) as u32,
        };
        if let Some(c) = char::from_u32(code) {
            return c;
        }
    }
}

fn random_json(rng: &mut Rng64, depth: usize, size: usize) -> Json {
    match if depth == 0 { rng.next_index(6) } else { rng.next_index(8) } {
        0 => Json::Null,
        1 => Json::Bool(rng.bernoulli(0.5)),
        // The parser normalizes non-negative integers to `UInt`, so a
        // variant-stable generator keeps `Int` strictly negative.
        2 => Json::Int(-1 - rng.next_below(i64::MAX as u64) as i64),
        3 => Json::UInt(rng.next_u64()),
        4 => Json::Num(f64::from(rng.next_f32()) * 1e6 - 5e5),
        5 => {
            let n = rng.next_index(size.max(1));
            Json::str((0..n).map(|_| random_char(rng)).collect::<String>())
        }
        6 => Json::arr((0..rng.next_index(4)).map(|_| random_json(rng, depth - 1, size))),
        _ => Json::obj(
            (0..rng.next_index(4)).map(|i| {
                (format!("k{i}"), random_json(rng, depth - 1, size))
            }),
        ),
    }
}

/// Writer→parser round trips over random documents, plus crafted escape
/// forms: every scalar value must survive `\uXXXX` encoding (surrogate
/// pairs outside the BMP), and lone surrogate halves must fail typed.
fn json_roundtrip(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6A73_6F6E);
    let doc = random_json(&mut rng, 2, size);
    let text = doc.to_string_pretty();
    match Json::parse(&text) {
        Ok(back) if back == doc => {}
        Ok(_) => return Err(format!("round trip changed the document: {text}")),
        Err(e) => return Err(format!("writer output failed to parse: {e} in {text}")),
    }
    // Escape forms with a known expected value.
    for _ in 0..size {
        let c = random_char(&mut rng);
        let escaped = if (c as u32) < 0x1_0000 {
            format!("\"\\u{:04x}\"", c as u32)
        } else {
            let v = c as u32 - 0x1_0000;
            format!("\"\\u{:04x}\\u{:04x}\"", 0xD800 + (v >> 10), 0xDC00 + (v & 0x3FF))
        };
        match Json::parse(&escaped) {
            Ok(Json::Str(s)) if s == c.to_string() => {}
            other => {
                return Err(format!("escape {escaped} parsed to {other:?}, wanted {c:?}"))
            }
        }
    }
    // A lone surrogate half must be a typed error.
    let lone = 0xD800 + rng.next_below(0x800);
    let text = format!("\"\\u{lone:04x}\"");
    if let Ok(v) = Json::parse(&text) {
        return Err(format!("lone surrogate {text} parsed to {v:?}"));
    }
    Ok(())
}

/// The first element where two float slices differ in bits.
fn first_bit_diff(what: &str, want: &[f32], got: &[f32]) -> Result<(), String> {
    match want
        .iter()
        .zip(got)
        .position(|(w, g)| w.to_bits() != g.to_bits())
    {
        Some(i) => Err(format!(
            "{what}[{i}]: naive {:?} vs kernel {:?}",
            want[i], got[i]
        )),
        None => Ok(()),
    }
}

/// The conv2d kernels vs their naive nests: a random shape with input
/// sides up to `size`, inputs holding exact `±0.0` entries and all-zero
/// channels, finite weights and no `-0.0` bias (the domain where the
/// kernels' included zero products equal the naive forward's skip).
/// Forward bits and effective counts, then the three gradients
/// accumulated onto random initial values, at 1 and 4 threads.
fn conv(seed: u64, size: usize) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x636F_6E76);
    let kernel = 1 + rng.next_index(5);
    let padding = rng.next_index(kernel);
    let min_side = kernel.saturating_sub(2 * padding).max(1);
    let side = |rng: &mut Rng64| min_side + rng.next_index(size.max(min_side) - min_side + 1);
    let s = ConvShape {
        in_channels: 1 + rng.next_index(12),
        out_channels: 1 + rng.next_index(20),
        kernel,
        stride: 1 + rng.next_index(3),
        padding,
        in_h: side(&mut rng),
        in_w: side(&mut rng),
    };
    let (oh, ow) = s.out_hw();
    let plane = s.in_h * s.in_w;
    let mut x = Vec::with_capacity(s.in_channels * plane);
    for _ in 0..s.in_channels {
        let dead = rng.bernoulli(0.2);
        for _ in 0..plane {
            let u = rng.next_f64();
            x.push(if dead || u < 0.3 {
                if rng.bernoulli(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.next_f32() * 2.0 - 1.0
            });
        }
    }
    let fill = |rng: &mut Rng64, len: usize, zero: f64| -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.bernoulli(zero) {
                    0.0
                } else {
                    rng.next_f32() * 2.0 - 1.0
                }
            })
            .collect()
    };
    let w = fill(&mut rng, s.out_channels * s.col_rows(), 0.1);
    let bias = fill(&mut rng, s.out_channels, 0.2);
    let g = fill(&mut rng, s.out_channels * oh * ow, 0.2);
    let gi0 = fill(&mut rng, x.len(), 0.0);
    let gw0 = fill(&mut rng, w.len(), 0.0);
    let gb0 = fill(&mut rng, bias.len(), 0.0);
    let mut out_want = vec![0.0f32; g.len()];
    let eff_want = conv2d_forward_naive(&s, &x, &w, &bias, &mut out_want);
    let (mut gi_want, mut gw_want, mut gb_want) = (gi0.clone(), gw0.clone(), gb0.clone());
    conv2d_backward_naive(&s, &x, &w, &g, &mut gi_want, &mut gw_want, &mut gb_want);
    for nthreads in [1usize, 4] {
        let what = |part: &str| format!("{s:?} threads={nthreads} {part}");
        par::with_threads(nthreads, || {
            let mut scratch = Scratch::new();
            let mut out = vec![f32::NAN; g.len()];
            let eff = conv2d_forward(&s, &x, &w, &bias, &mut out, &mut scratch);
            first_bit_diff(&what("out"), &out_want, &out)?;
            if eff != eff_want {
                return Err(format!(
                    "{}: naive {eff_want} vs kernel {eff}",
                    what("effective MACs")
                ));
            }
            let (mut gi, mut gw, mut gb) = (gi0.clone(), gw0.clone(), gb0.clone());
            conv2d_backward(&s, &x, &w, &g, &mut gi, &mut gw, &mut gb, &mut scratch);
            first_bit_diff(&what("gi"), &gi_want, &gi)?;
            first_bit_diff(&what("gw"), &gw_want, &gw)?;
            first_bit_diff(&what("gb"), &gb_want, &gb)
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Runs one case, converting panics (invariant violations included) into
/// failures.
fn run_case(target: &Target, seed: u64, size: usize) -> Option<String> {
    obs::counter_add("fuzz.cases", 1);
    obs::counter_add(&format!("fuzz.{}.cases", target.name), 1);
    match catch_unwind(AssertUnwindSafe(|| (target.run)(seed, size))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Some(format!("panicked: {msg}"))
        }
    }
}

/// Bisects the failing case size down to the smallest that still fails
/// (assuming monotonicity — good enough to shrink a report, and the full
/// size is always available as the fallback repro).
fn shrink(target: &Target, seed: u64, size: usize) -> (usize, String) {
    let mut failing = size;
    let mut msg = run_case(target, seed, size).unwrap_or_default();
    let (mut lo, mut hi) = (1usize, size);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match run_case(target, seed, mid) {
            Some(m) => {
                failing = mid;
                msg = m;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    obs::counter_add("fuzz.shrinks", 1);
    (failing, msg)
}

struct Corpus {
    regressions: Vec<(String, u64, usize, String)>,
}

/// Loads the committed corpus: `regressions` is a list of
/// `{target, seed, size, note}` objects pinning the original failing case
/// of every bug the lab has caught.
fn load_corpus(path: &str) -> Result<Corpus, EvlabError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| EvlabError::serve(format!("read corpus {path}: {e}")))?;
    let doc = Json::parse(&text)
        .map_err(|e| EvlabError::serve(format!("parse corpus {path}: {e}")))?;
    let mut regressions = Vec::new();
    for entry in doc
        .get("regressions")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let target = entry
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| EvlabError::serve("corpus entry without target"))?;
        let seed = entry
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| EvlabError::serve("corpus entry without seed"))?;
        let size = entry
            .get("size")
            .and_then(Json::as_u64)
            .ok_or_else(|| EvlabError::serve("corpus entry without size"))?;
        let note = entry.get("note").and_then(Json::as_str).unwrap_or("");
        regressions.push((target.to_string(), seed, size as usize, note.to_string()));
    }
    Ok(Corpus { regressions })
}

fn main() -> Result<(), EvlabError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seeds: u64 = 64;
    let mut only: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut corpus_path = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus.json").to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| EvlabError::serve(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => {
                seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| EvlabError::serve(format!("--seeds: {e}")))?;
            }
            "--target" => only = Some(value("--target")?),
            "--metrics" => metrics = Some(value("--metrics")?),
            "--corpus" => corpus_path = value("--corpus")?,
            other => {
                return Err(EvlabError::serve(format!("unknown argument {other}")));
            }
        }
    }
    if smoke {
        seeds = seeds.min(8);
    }
    // Invariants are the harness here: force them on regardless of the
    // build profile or EVLAB_CHECK.
    check::set_enabled(true);
    if metrics.is_some() {
        obs::set_enabled(true);
    }
    let corpus = load_corpus(&corpus_path)?;

    let mut failures: Vec<String> = Vec::new();
    let mut cases = 0u64;
    for target in TARGETS {
        if only.as_deref().is_some_and(|t| t != target.name) {
            continue;
        }
        obs::counter_add("fuzz.targets", 1);
        let size = if smoke { target.smoke_size } else { target.full_size };
        for seed in 0..seeds {
            cases += 1;
            if let Some(msg) = run_case(target, seed, size) {
                obs::counter_add("fuzz.mismatches", 1);
                let (small, small_msg) = shrink(target, seed, size);
                failures.push(format!(
                    "{} seed={seed} size={small} (full {size}): {small_msg}",
                    target.name
                ));
                eprintln!("[fuzz_lab] FAIL {}", failures.last().unwrap_or(&msg));
            }
        }
        // The pinned regressions for this target run in every mode.
        for (t, seed, size, note) in &corpus.regressions {
            if t != target.name {
                continue;
            }
            cases += 1;
            obs::counter_add("fuzz.regressions", 1);
            if let Some(msg) = run_case(target, *seed, *size) {
                obs::counter_add("fuzz.mismatches", 1);
                failures.push(format!(
                    "{} regression seed={seed} size={size} ({note}): {msg}",
                    target.name
                ));
            }
        }
        eprintln!(
            "[fuzz_lab] {:<16} {} seeds + {} pinned: {}",
            target.name,
            seeds,
            corpus.regressions.iter().filter(|(t, ..)| t == target.name).count(),
            if failures.is_empty() { "ok" } else { "FAILURES" }
        );
    }

    let violations = check::total_violations();
    eprintln!(
        "[fuzz_lab] {cases} cases, {} failures, {} invariant runs, {violations} violations",
        failures.len(),
        check::total_runs()
    );
    if let Some(path) = metrics {
        obs::write_metrics(&path)?;
        eprintln!("[fuzz_lab] metrics -> {path}");
    }
    if !failures.is_empty() || violations > 0 {
        for f in &failures {
            eprintln!("[fuzz_lab] FAIL {f}");
        }
        return Err(EvlabError::serve(format!(
            "{} differential failures, {violations} invariant violations",
            failures.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Original failing case of the reorder-buffer near-zero-time warm-up
    /// bug: with the clamped watermark (`max_seen.saturating_sub(skew)`),
    /// a stream starting at `t < skew` released its first events before
    /// the skew horizon had elapsed — the very first push of seed 0
    /// (a single `t = 0` event under nonzero skew) released `[0]` where
    /// the contract releases nothing. Shrunk by `fuzz_lab` from size 500.
    #[test]
    fn regression_reorder_warm_up_seed0() {
        check::set_enabled(true);
        reorder_model(0, 1).expect("reorder warm-up regression (seed 0)");
        reorder_model(1, 1).expect("reorder warm-up regression (seed 1)");
        check::clear_override();
    }

    /// Original failing case of the json `\uXXXX` surrogate bug: the
    /// parser rejected pairs encoding astral-plane characters (e.g. the
    /// escape text `\\udbfd\\udf31` for U+10F731) with "surrogate \u escape
    /// unsupported" instead of assembling them. Shrunk by `fuzz_lab`
    /// from size 48.
    #[test]
    fn regression_json_surrogate_pair_seed0() {
        json_roundtrip(0, 2).expect("json surrogate regression (seed 0)");
        json_roundtrip(1, 1).expect("json surrogate regression (seed 1)");
    }

    /// The streaming GNN engine agrees with its frontier-recompute
    /// reference bit for bit, for both kernels and every policy family.
    #[test]
    fn gnn_stream_matches_the_reference_on_a_few_seeds() {
        check::set_enabled(true);
        for seed in 0..12 {
            gnn_stream(seed, 120).expect("gnn_stream case");
        }
        check::clear_override();
    }

    /// The conv kernels agree with their naive nests on a few seeds.
    #[test]
    fn conv_matches_the_naive_nests_on_a_few_seeds() {
        for seed in 0..16 {
            conv(seed, 16).expect("conv case");
        }
    }

    /// The committed corpus must parse and reference only known targets.
    #[test]
    fn corpus_entries_reference_known_targets() {
        let corpus = load_corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus.json"))
            .expect("committed corpus parses");
        assert!(!corpus.regressions.is_empty(), "corpus pins regressions");
        for (target, seed, size, _) in &corpus.regressions {
            assert!(
                TARGETS.iter().any(|t| t.name == target),
                "unknown target {target}"
            );
            let t = TARGETS
                .iter()
                .find(|t| t.name == target)
                .expect("target exists");
            assert!(
                run_case(t, *seed, *size).is_none(),
                "pinned case {target} seed={seed} size={size} fails"
            );
        }
    }
}
