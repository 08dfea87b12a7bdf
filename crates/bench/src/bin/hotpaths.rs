//! Std-only throughput benchmark for the parallelized hot paths (camera
//! simulation, frame encoding, LIF stepping, graph construction), the
//! streaming GNN engine (`gnn_stream`: sliding window plus incremental
//! message passing, one event at a time) and the dense kernels (blocked GEMM, direct conv2d, the arena-backed CNN
//! training step) — the kernels are themselves panel/batch-parallel now,
//! so they sweep thread counts like every other workload.
//!
//! Swept workloads run at `EVLAB_THREADS` ∈ {1, 2, 4, 8} (both full and
//! `--smoke` scale — the kernel determinism gate in `scripts/verify.sh`
//! relies on the smoke sweep) via [`par::with_threads`]; only the naive
//! kernel baselines stay single-threaded by design. Every (workload,
//! threads) cell runs one untimed warmup followed by `reps` timed
//! repetitions; min/median/max seconds are recorded and all derived
//! numbers (`speedup_vs_serial`, `kernel_speedups`) use the median.
//! Every output is fingerprinted with FNV-1a and the binary exits
//! non-zero if
//!
//! * any thread count produces a different checksum than the serial run
//!   (the ordered-reduction / fixed-panel-partition determinism
//!   contract), or
//! * `gemm` vs `gemm_naive` or `conv_fwd` vs `conv_fwd_naive` disagree
//!   (the blocked kernels' summation-order contract), or
//! * the `count-alloc` feature is compiled in and any workload's
//!   steady-state allocation count exceeds `BENCH_alloc_budget.json` —
//!   the per-worker scratch arenas must keep the threaded steady state
//!   allocation-free, not just the serial one, and so must a `gemm` pass
//!   at the default thread count, outside any override
//!   (`gemm_default_threads`).
//!
//! Usage: `hotpaths [--smoke] [--out PATH] [--metrics PATH]
//! [--alloc-budget PATH]`
//!
//! `--metrics PATH` switches the [`evlab_util::obs`] layer on and writes
//! its counter/span snapshot (including `alloc.count.*` / `alloc.bytes.*`
//! when counting) to `PATH` after the sweep; all JSON artifacts are
//! written atomically (temp file + rename).

use evlab_bench::{
    alloc, checksum_events, checksum_f32s, checksum_graph, finish_metrics, metrics_arg,
    moving_cluster_stream, sparse_map, uniform_stream, Fnv1a,
};
use evlab_cnn::encode::{FrameEncoder, SignedCount, TimeSurface, VoxelGrid};
use evlab_cnn::model::{build_cnn, CnnConfig};
use evlab_gnn::build::{incremental_build, kdtree_build, GraphConfig};
use evlab_gnn::network::{GnnConfig, GnnNetwork};
use evlab_gnn::window::{SlidingWindowGraph, WindowPolicy, WindowedGnn};
use evlab_sensor::scene::MovingBar;
use evlab_sensor::{CameraConfig, EventCamera};
use evlab_snn::encode::SpikeTrain;
use evlab_snn::event_driven::EventDrivenSnn;
use evlab_snn::layer::LifLayer;
use evlab_snn::network::{SnnConfig, SnnNetwork};
use evlab_snn::neuron::LifConfig;
use evlab_tensor::gemm::{conv2d_forward, conv2d_forward_naive, gemm_into, gemm_naive_into, ConvShape};
use evlab_tensor::network::BatchTrainer;
use evlab_tensor::optim::Sgd;
use evlab_tensor::{OpCount, Scratch, Tensor};
use evlab_util::frame::Encoder;
use evlab_util::json::Json;
use evlab_util::{obs, par, Rng64};
use std::collections::BTreeMap;
use std::time::Instant;

#[cfg(feature = "count-alloc")]
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Workload scale knobs, reduced by `--smoke`.
struct Scale {
    camera_res: u16,
    camera_span_us: u64,
    encode_events: usize,
    snn_out: usize,
    snn_steps: usize,
    ed_hidden: usize,
    ed_steps: usize,
    graph_events: usize,
    kdtree_events: usize,
    window_events: usize,
    gnn_events: usize,
    gemm_dim: usize,
    gemm_iters: usize,
    conv_iters: usize,
    cnn_batch: usize,
    cnn_steps: usize,
    threads: Vec<usize>,
    reps: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            camera_res: 96,
            camera_span_us: 100_000,
            encode_events: 400_000,
            snn_out: 4096,
            snn_steps: 30,
            ed_hidden: 2048,
            ed_steps: 40,
            graph_events: 60_000,
            kdtree_events: 20_000,
            window_events: 40_000,
            gnn_events: 20_000,
            gemm_dim: 256,
            gemm_iters: 8,
            conv_iters: 300,
            cnn_batch: 8,
            cnn_steps: 20,
            threads: vec![1, 2, 4, 8],
            reps: 3,
        }
    }

    fn smoke() -> Self {
        Scale {
            camera_res: 32,
            camera_span_us: 30_000,
            encode_events: 60_000,
            snn_out: 1024,
            snn_steps: 6,
            ed_hidden: 512,
            ed_steps: 10,
            graph_events: 10_000,
            kdtree_events: 4_000,
            window_events: 8_000,
            gnn_events: 4_000,
            gemm_dim: 96,
            gemm_iters: 3,
            conv_iters: 30,
            cnn_batch: 4,
            cnn_steps: 5,
            // The verify.sh smoke gate checks kernel determinism across
            // the full thread sweep, so --smoke shrinks workload sizes
            // but not the swept thread counts.
            threads: vec![1, 2, 4, 8],
            reps: 2,
        }
    }
}

/// One timed configuration of a workload.
struct Sample {
    threads: usize,
    secs_min: f64,
    secs_median: f64,
    secs_max: f64,
    checksum: u64,
    /// Work items processed per run (events, MACs, samples, ...).
    items: u64,
}

/// Runs `work` once untimed (warmup), then `reps` timed repetitions under
/// a forced thread count. The checksum must not vary between runs.
fn time_workload(threads: usize, reps: usize, work: &dyn Fn() -> (u64, u64)) -> Sample {
    let (checksum, items) = par::with_threads(threads, work);
    let reps = reps.max(1);
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let (sum, n) = par::with_threads(threads, work);
        secs.push(start.elapsed().as_secs_f64());
        assert_eq!(sum, checksum, "checksum varies between repetitions");
        assert_eq!(n, items, "item count varies between repetitions");
    }
    secs.sort_by(f64::total_cmp);
    let secs_median = if secs.len() % 2 == 1 {
        secs[secs.len() / 2]
    } else {
        0.5 * (secs[secs.len() / 2 - 1] + secs[secs.len() / 2])
    };
    Sample {
        threads,
        secs_min: secs[0],
        secs_median,
        secs_max: secs[secs.len() - 1],
        checksum,
        items,
    }
}

fn camera_workload(scale: &Scale) -> (u64, u64) {
    let cfg = CameraConfig::new((scale.camera_res, scale.camera_res));
    let camera = EventCamera::new(cfg);
    let scene = MovingBar::horizontal(0.002, 4.0);
    let stream = camera.record(&scene, 0, scale.camera_span_us, 11);
    let n = stream.len() as u64;
    (checksum_events(&stream), n)
}

fn encode_workload(scale: &Scale) -> (u64, u64) {
    let stream = uniform_stream(scale.encode_events, 128, 100_000, 22);
    let events = stream.as_slice();
    let mut ops = OpCount::new();
    let mut h = Fnv1a::new();
    let encoders: Vec<Box<dyn FrameEncoder>> = vec![
        Box::new(SignedCount::new()),
        Box::new(VoxelGrid::new(8)),
        Box::new(TimeSurface::new(10_000.0)),
    ];
    let n = encoders.len() as u64 * events.len() as u64;
    for enc in encoders {
        let frame = enc.encode(events, stream.resolution(), &mut ops);
        h.write_u64(checksum_f32s(frame.as_slice()));
    }
    (h.finish(), n)
}

fn snn_workload(scale: &Scale) -> (u64, u64) {
    let mut h = Fnv1a::new();
    let mut items = 0u64;
    // Clocked dense LIF stepping: a wide layer under ~5 % input activity.
    let in_size = 1024;
    let mut rng = Rng64::seed_from_u64(5);
    let mut layer = LifLayer::new(in_size, scale.snn_out, LifConfig::new(), &mut rng);
    let mut ops = OpCount::new();
    for _ in 0..scale.snn_steps {
        let input: Vec<f32> = (0..in_size)
            .map(|_| if rng.bernoulli(0.05) { 1.0 } else { 0.0 })
            .collect();
        let active = input.iter().filter(|&&s| s != 0.0).count() as u64;
        let out = layer.step(&input, &mut ops);
        h.write_u64(checksum_f32s(&out.spikes));
        items += (active + 1) * scale.snn_out as u64;
        if let Some(&last) = out.membrane.last() {
            h.write_f32(last);
        }
    }
    // Event-driven injections through a hidden layer wide enough to chunk.
    let mut net = SnnNetwork::new(
        SnnConfig::new(64, 10).with_hidden(vec![scale.ed_hidden]),
        &mut rng,
    );
    let mut train = SpikeTrain::new(64, scale.ed_steps);
    for t in 0..scale.ed_steps {
        for _ in 0..8 {
            train.push(t, rng.next_index(64) as u32);
        }
        items += 8 * scale.ed_hidden as u64;
    }
    let mut ed = EventDrivenSnn::from_network(&net);
    let mut ed_ops = OpCount::new();
    let result = ed.process(&train, &mut ed_ops);
    h.write_u64(checksum_f32s(result.logits.as_slice()));
    // Keep the clocked reference in the fingerprint too.
    let logits = net.forward(&train, &mut ed_ops);
    h.write_u64(checksum_f32s(logits.as_slice()));
    (h.finish(), items)
}

fn graph_workload(scale: &Scale) -> (u64, u64) {
    let mut h = Fnv1a::new();
    let config = GraphConfig::new();
    let clustered = moving_cluster_stream(scale.graph_events, 128, 500_000, 33);
    let mut ops = OpCount::new();
    let incr = incremental_build(clustered.as_slice(), &config, &mut ops);
    h.write_u64(checksum_graph(&incr));
    // Capped cells force the serial stream (and, under --metrics, the
    // `gnn.serial_fallback` counter) at every swept thread count > 1; the
    // checksum still has to match the serial run bit for bit.
    let capped = config.with_cell_capacity(64);
    let capped_graph = incremental_build(clustered.as_slice(), &capped, &mut ops);
    h.write_u64(checksum_graph(&capped_graph));
    let uniform = uniform_stream(scale.kdtree_events, 128, 200_000, 34);
    let tree = kdtree_build(uniform.as_slice(), &config, &mut ops);
    h.write_u64(checksum_graph(&tree));
    (
        h.finish(),
        (2 * scale.graph_events + scale.kdtree_events) as u64,
    )
}

/// Streams a clustered event flow through the sliding-window store under
/// the combined eviction policy. The fingerprint covers the final live
/// graph *and* the per-phase multiply counts, so both the window contents
/// and its cost model must be bit-stable across the thread sweep. The
/// workload also enforces the flat-cost contract at steady state: once
/// the window has filled, per-event work must not grow as the stream
/// slides past (each phase's cost stays within 4x of the cheapest steady
/// phase — slack for local density variation in the clustered stream,
/// fatal for any O(stream length) regression).
fn window_workload(scale: &Scale) -> (u64, u64) {
    let stream = moving_cluster_stream(scale.window_events, 128, 500_000, 77);
    let events = stream.as_slice();
    let policy = WindowPolicy::Both {
        max_nodes: 1_024,
        max_age_us: 50_000,
    };
    let mut window = SlidingWindowGraph::new(GraphConfig::new(), policy);
    let mut ops = OpCount::new();
    let phases = 16usize;
    let phase_len = (events.len() / phases).max(1);
    let mut phase_mults: Vec<u64> = Vec::new();
    let mut last_mults = 0u64;
    for (i, e) in events.iter().enumerate() {
        window.push(*e, &mut ops);
        if (i + 1) % phase_len == 0 {
            phase_mults.push(ops.mults - last_mults);
            last_mults = ops.mults;
        }
    }
    // Skip the fill phases; the window saturates well within a quarter of
    // the stream.
    let steady = &phase_mults[phases / 4..];
    let cheapest = steady.iter().copied().min().unwrap_or(1).max(1);
    let dearest = steady.iter().copied().max().unwrap_or(0);
    assert!(
        dearest <= 4 * cheapest,
        "sliding-window per-event cost is not flat: steady phases range \
         {cheapest}..{dearest} mults"
    );
    let mut h = Fnv1a::new();
    h.write_u64(checksum_graph(&window.to_event_graph()));
    for &m in &phase_mults {
        h.write_u64(m);
    }
    (h.finish(), events.len() as u64)
}

/// Updates at the end of the `gnn_stream` workload whose allocations are
/// gated (the same count at both scales, so one budget serves both).
const GNN_ALLOC_UPDATES: usize = 1_000;

/// Streams the moving-cluster flow through the sliding-window GNN engine
/// (`WindowedGnn::update`, hidden `[16, 16]`, `MaxNodes(256)`), one event
/// at a time as a streaming session does. The fingerprint covers every
/// event's logit bits and the final `save_state` bytes, so both the
/// served decisions and the restorable session state must stay
/// bit-stable. The last [`GNN_ALLOC_UPDATES`] updates form the
/// steady-state allocation window: the engine's buffers have long reached
/// their sizes there, so the budget is the returned logits tensor alone.
fn gnn_stream_workload(scale: &Scale) -> (u64, u64) {
    let stream = moving_cluster_stream(scale.gnn_events, 128, 500_000, 88);
    let events = stream.as_slice();
    let classes = 4;
    let net = GnnNetwork::new(
        &GnnConfig::new(classes).with_hidden(vec![16, 16]),
        &mut Rng64::seed_from_u64(88),
    );
    let mut engine = WindowedGnn::new(
        net,
        GraphConfig::new(),
        WindowPolicy::MaxNodes(256),
        classes,
    );
    let mut ops = OpCount::new();
    let mut h = Fnv1a::new();
    let steady_from = events.len().saturating_sub(GNN_ALLOC_UPDATES);
    let mut snap = alloc::snapshot();
    for (i, e) in events.iter().enumerate() {
        if i == steady_from {
            snap = alloc::snapshot();
        }
        let logits = engine.update(*e, &mut ops);
        for &v in logits.as_slice() {
            h.write_f32(v);
        }
    }
    alloc::record_steady("gnn_stream", alloc::delta_since(snap));
    let mut enc = Encoder::new();
    engine.save_state(&mut enc);
    h.write(enc.as_bytes());
    (h.finish(), events.len() as u64)
}

/// Square `C = A·B` via either the blocked kernel or the naive triple
/// loop. Identical inputs, identical summation order — the checksums of
/// the two variants must agree bit for bit.
fn gemm_workload(scale: &Scale, blocked: bool) -> (u64, u64) {
    let d = scale.gemm_dim;
    let (a, b) = gemm_operands(d);
    let mut c = vec![0.0f32; d * d];
    let mut scratch = Scratch::new();
    let run = |c: &mut [f32], scratch: &mut Scratch| {
        if blocked {
            gemm_into(d, d, d, &a, &b, c, scratch);
        } else {
            gemm_naive_into(d, d, d, &a, d, 1, &b, d, 1, c);
        }
    };
    // Warm iteration: lets the scratch arena allocate its pack buffers.
    run(&mut c, &mut scratch);
    let snap = alloc::snapshot();
    for _ in 0..scale.gemm_iters {
        run(&mut c, &mut scratch);
    }
    alloc::record_steady(
        if blocked { "gemm" } else { "gemm_naive" },
        alloc::delta_since(snap),
    );
    let items = (scale.gemm_iters + 1) as u64 * (d * d * d) as u64;
    (checksum_f32s(&c), items)
}

/// The `gemm` workload's seeded `d×d` operands.
fn gemm_operands(d: usize) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng64::seed_from_u64(44);
    let a: Vec<f32> = (0..d * d).map(|_| rng.next_f32() - 0.5).collect();
    let b: Vec<f32> = (0..d * d).map(|_| rng.next_f32() - 0.5).collect();
    (a, b)
}

/// One steady-state blocked GEMM pass outside any [`par::with_threads`]
/// override, recorded as `gemm_default_threads`: every dispatch then
/// resolves the default thread count (`EVLAB_THREADS`, else the
/// hardware's), and the kernels' zero-allocation contract must hold there
/// too, not only under an override.
fn gemm_default_threads_pass(scale: &Scale) {
    let d = scale.gemm_dim;
    let (a, b) = gemm_operands(d);
    let mut c = vec![0.0f32; d * d];
    let mut scratch = Scratch::new();
    // Warm pass: sizes the arenas and spawns any pool workers needed.
    gemm_into(d, d, d, &a, &b, &mut c, &mut scratch);
    let snap = alloc::snapshot();
    gemm_into(d, d, d, &a, &b, &mut c, &mut scratch);
    alloc::record_steady("gemm_default_threads", alloc::delta_since(snap));
}

/// The table1 dense-CNN conv layers: conv1 (2→8 over 32×32, sparse event
/// frame) and conv2 (8→16 over 16×16, dense mid-network activations),
/// both 3×3 stride-1 pad-1. `blocked` picks the direct tile kernel vs
/// the naive zero-skipping nest; the checksums must agree bit for bit.
fn conv_workload(scale: &Scale, blocked: bool) -> (u64, u64) {
    let s1 = ConvShape {
        in_channels: 2,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
        in_h: 32,
        in_w: 32,
    };
    let s2 = ConvShape {
        in_channels: 8,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
        in_h: 16,
        in_w: 16,
    };
    let mut rng = Rng64::seed_from_u64(55);
    let x1 = sparse_map(2 * 32 * 32, 0.9, 551);
    let x2: Vec<f32> = (0..8 * 16 * 16).map(|_| rng.next_f32() - 0.5).collect();
    let w1: Vec<f32> = (0..8 * 2 * 9).map(|_| rng.next_f32() - 0.5).collect();
    let w2: Vec<f32> = (0..16 * 8 * 9).map(|_| rng.next_f32() - 0.5).collect();
    let b1: Vec<f32> = (0..8).map(|_| rng.next_f32() - 0.5).collect();
    let b2: Vec<f32> = (0..16).map(|_| rng.next_f32() - 0.5).collect();
    let mut o1 = vec![0.0f32; 8 * 32 * 32];
    let mut o2 = vec![0.0f32; 16 * 16 * 16];
    let mut scratch = Scratch::new();
    let run = |o1: &mut [f32], o2: &mut [f32], scratch: &mut Scratch| {
        if blocked {
            conv2d_forward(&s1, &x1, &w1, &b1, o1, scratch);
            conv2d_forward(&s2, &x2, &w2, &b2, o2, scratch);
        } else {
            conv2d_forward_naive(&s1, &x1, &w1, &b1, o1);
            conv2d_forward_naive(&s2, &x2, &w2, &b2, o2);
        }
    };
    run(&mut o1, &mut o2, &mut scratch);
    let snap = alloc::snapshot();
    for _ in 0..scale.conv_iters {
        run(&mut o1, &mut o2, &mut scratch);
    }
    alloc::record_steady(
        if blocked { "conv_fwd" } else { "conv_fwd_naive" },
        alloc::delta_since(snap),
    );
    let mut h = Fnv1a::new();
    h.write_u64(checksum_f32s(&o1));
    h.write_u64(checksum_f32s(&o2));
    let macs = (s1.out_channels * 32 * 32 * s1.in_channels * 9
        + s2.out_channels * 16 * 16 * s2.in_channels * 9) as u64;
    (h.finish(), (scale.conv_iters + 1) as u64 * macs)
}

/// Steady-state training of the table1 dense CNN through the
/// data-parallel [`BatchTrainer`]: after two warmup batches (replicas,
/// per-replica arenas, optimizer state and staging all sized), the inner
/// loop must not touch the heap at all — at any thread count. The
/// trainer's fixed batch partition and ascending-chunk reductions make
/// the checksum bit-identical across the thread sweep.
fn cnn_step_workload(scale: &Scale) -> (u64, u64) {
    let mut rng = Rng64::seed_from_u64(66);
    let mut net = build_cnn(&CnnConfig::small(2, 32, 10), &mut rng);
    let mut trainer = BatchTrainer::new();
    let mut optimizer = Sgd::new(0.01, 0.9);
    let mut arena = Scratch::new();
    let mut ops = OpCount::new();
    let batch: Vec<(Tensor, usize)> = (0..scale.cnn_batch)
        .map(|i| {
            let data = sparse_map(2 * 32 * 32, 0.9, 660 + i as u64);
            (
                Tensor::from_vec(&[2, 32, 32], data).expect("event frame shape"),
                i % 10,
            )
        })
        .collect();
    for _ in 0..2 {
        trainer.train_batch(&mut net, &batch, &mut optimizer, &mut arena, &mut ops);
    }
    let snap = alloc::snapshot();
    let mut h = Fnv1a::new();
    for _ in 0..scale.cnn_steps {
        let (loss, acc) =
            trainer.train_batch(&mut net, &batch, &mut optimizer, &mut arena, &mut ops);
        h.write_f32(loss);
        h.write_f32(acc);
    }
    alloc::record_steady("cnn_step", alloc::delta_since(snap));
    net.visit_params(&mut |p| {
        for &v in p.value.as_slice() {
            h.write_f32(v);
        }
    });
    (
        h.finish(),
        (scale.cnn_steps + 2) as u64 * scale.cnn_batch as u64,
    )
}

/// Checks the published steady-state allocation deltas against the
/// committed budget file. Returns the number of violations; skipped (0)
/// when the counting allocator is not compiled in.
fn check_alloc_budget(budget_path: &str) -> usize {
    if !alloc::counting_enabled() {
        eprintln!("[hotpaths] alloc budget: skipped (build without `count-alloc`)");
        return 0;
    }
    let text = match std::fs::read_to_string(budget_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[hotpaths] alloc budget: cannot read {budget_path}: {e}");
            return 1;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("[hotpaths] alloc budget: cannot parse {budget_path}: {e}");
            return 1;
        }
    };
    let records: BTreeMap<&str, alloc::AllocSnapshot> =
        alloc::steady_records().into_iter().collect();
    let Some(budgets) = json
        .get("steady_state_alloc_count")
        .and_then(|b| b.entries())
    else {
        eprintln!("[hotpaths] alloc budget: missing `steady_state_alloc_count` object");
        return 1;
    };
    let mut violations = 0usize;
    for (name, limit) in budgets {
        let limit = limit.as_u64().unwrap_or(0);
        match records.get(name.as_str()) {
            None => {
                eprintln!("[hotpaths] alloc budget: workload `{name}` recorded nothing");
                violations += 1;
            }
            Some(d) => {
                let ok = d.count <= limit;
                eprintln!(
                    "[hotpaths] alloc budget: {name:<16} count={} bytes={} (limit {limit}) {}",
                    d.count,
                    d.bytes,
                    if ok { "ok" } else { "EXCEEDED" }
                );
                if !ok {
                    violations += 1;
                }
            }
        }
    }
    violations
}

fn main() -> Result<(), evlab_util::EvlabError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    let budget_path =
        flag("--alloc-budget").unwrap_or_else(|| "BENCH_alloc_budget.json".to_string());
    let metrics_path = metrics_arg(&args);
    let scale = if smoke { Scale::smoke() } else { Scale::full() };

    type Workload = Box<dyn Fn() -> (u64, u64)>;
    let make_scale = || if smoke { Scale::smoke() } else { Scale::full() };
    // (name, unit, sweeps-threads?, work). Only the naive kernel
    // baselines are serial by design; the blocked/batched kernels sweep
    // thread counts under the bit-identity contract.
    let workloads: Vec<(&str, &str, bool, Workload)> = vec![
        (
            "camera",
            "events/s",
            true,
            Box::new({
                let s = make_scale();
                move || camera_workload(&s)
            }),
        ),
        (
            "encode",
            "events/s",
            true,
            Box::new({
                let s = make_scale();
                move || encode_workload(&s)
            }),
        ),
        (
            "snn",
            "synaptic-updates/s",
            true,
            Box::new({
                let s = make_scale();
                move || snn_workload(&s)
            }),
        ),
        (
            "graph",
            "events/s",
            true,
            Box::new({
                let s = make_scale();
                move || graph_workload(&s)
            }),
        ),
        (
            "window",
            "events/s",
            true,
            Box::new({
                let s = make_scale();
                move || window_workload(&s)
            }),
        ),
        (
            "gnn_stream",
            "events/s",
            true,
            Box::new({
                let s = make_scale();
                move || gnn_stream_workload(&s)
            }),
        ),
        (
            "gemm",
            "macs/s",
            true,
            Box::new({
                let s = make_scale();
                move || gemm_workload(&s, true)
            }),
        ),
        (
            "gemm_naive",
            "macs/s",
            false,
            Box::new({
                let s = make_scale();
                move || gemm_workload(&s, false)
            }),
        ),
        (
            "conv_fwd",
            "macs/s",
            true,
            Box::new({
                let s = make_scale();
                move || conv_workload(&s, true)
            }),
        ),
        (
            "conv_fwd_naive",
            "macs/s",
            false,
            Box::new({
                let s = make_scale();
                move || conv_workload(&s, false)
            }),
        ),
        (
            "cnn_step",
            "samples/s",
            true,
            Box::new({
                let s = make_scale();
                move || cnn_step_workload(&s)
            }),
        ),
    ];

    let mut mismatches = 0usize;
    let mut workload_json = Vec::new();
    let mut serial_checksums: BTreeMap<&str, u64> = BTreeMap::new();
    let mut serial_medians: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit, sweep, work) in &workloads {
        eprintln!("[hotpaths] {name} ...");
        let threads: &[usize] = if *sweep { &scale.threads } else { &[1] };
        let samples: Vec<Sample> = threads
            .iter()
            .map(|&t| time_workload(t, scale.reps, work.as_ref()))
            .collect();
        let serial = &samples[0];
        serial_checksums.insert(name, serial.checksum);
        serial_medians.insert(name, serial.secs_median);
        for s in &samples[1..] {
            if s.checksum != serial.checksum {
                eprintln!(
                    "[hotpaths] CHECKSUM MISMATCH in `{name}`: threads={} gives \
                     {:#018x}, serial gives {:#018x}",
                    s.threads, s.checksum, serial.checksum
                );
                mismatches += 1;
            }
        }
        let results = samples.iter().map(|s| {
            Json::obj([
                ("threads", Json::from(s.threads)),
                ("secs", Json::from(s.secs_median)),
                ("secs_min", Json::from(s.secs_min)),
                ("secs_max", Json::from(s.secs_max)),
                (
                    "throughput",
                    Json::from(s.items as f64 / s.secs_median.max(1e-12)),
                ),
                (
                    "speedup_vs_serial",
                    Json::from(serial.secs_median / s.secs_median.max(1e-12)),
                ),
            ])
        });
        workload_json.push(Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("reps", Json::from(scale.reps)),
            ("items_per_run", Json::from(serial.items)),
            ("checksum", Json::str(format!("{:#018x}", serial.checksum))),
            (
                "checksums_match_serial",
                Json::from(samples[1..].iter().all(|s| s.checksum == serial.checksum)),
            ),
            ("results", Json::arr(results)),
        ]));
        for s in &samples {
            eprintln!(
                "[hotpaths]   threads={} {:.3}s median (min {:.3}s, max {:.3}s) ({:.2}x)",
                s.threads,
                s.secs_median,
                s.secs_min,
                s.secs_max,
                serial.secs_median / s.secs_median.max(1e-12)
            );
        }
    }

    // The blocked kernels must reproduce the naive nests bit for bit —
    // this is the runtime half of the summation-order contract (the
    // compile-time half lives in tests/kernel_equivalence.rs).
    for (blocked, naive) in [("gemm", "gemm_naive"), ("conv_fwd", "conv_fwd_naive")] {
        if serial_checksums[blocked] != serial_checksums[naive] {
            eprintln!(
                "[hotpaths] CHECKSUM MISMATCH: `{blocked}` {:#018x} != `{naive}` {:#018x}",
                serial_checksums[blocked], serial_checksums[naive]
            );
            mismatches += 1;
        }
    }
    let kernel_speedup = |blocked: &str, naive: &str| {
        serial_medians[naive] / serial_medians[blocked].max(1e-12)
    };
    let gemm_speedup = kernel_speedup("gemm", "gemm_naive");
    let conv_speedup = kernel_speedup("conv_fwd", "conv_fwd_naive");
    eprintln!(
        "[hotpaths] kernel speedups (single thread, median): gemm {gemm_speedup:.2}x, \
         conv2d forward {conv_speedup:.2}x"
    );

    gemm_default_threads_pass(&scale);
    let alloc_records = alloc::steady_records();
    if obs::enabled() && alloc::counting_enabled() {
        for (name, d) in &alloc_records {
            obs::counter_add(&format!("alloc.count.{name}"), d.count);
            obs::counter_add(&format!("alloc.bytes.{name}"), d.bytes);
        }
    }

    let report = Json::obj([
        (
            "available_parallelism",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
        ("smoke", Json::from(smoke)),
        ("reps", Json::from(scale.reps)),
        (
            "threads_swept",
            Json::arr(scale.threads.iter().map(|&t| Json::from(t))),
        ),
        (
            "kernel_speedups",
            Json::obj([
                ("gemm_vs_naive", Json::from(gemm_speedup)),
                ("conv_fwd_vs_naive", Json::from(conv_speedup)),
            ]),
        ),
        ("alloc_counting", Json::from(alloc::counting_enabled())),
        (
            "alloc_steady",
            Json::obj(alloc_records.iter().map(|(name, d)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::from(d.count)),
                        ("bytes", Json::from(d.bytes)),
                    ]),
                )
            })),
        ),
        ("workloads", Json::arr(workload_json)),
    ]);
    evlab_util::json::write_atomic(&out_path, &(report.to_string_pretty() + "\n"))?;
    eprintln!("[hotpaths] wrote {out_path}");
    finish_metrics(&metrics_path)?;
    let budget_violations = check_alloc_budget(&budget_path);
    if mismatches > 0 || budget_violations > 0 {
        eprintln!(
            "[hotpaths] FAILED: {mismatches} checksum mismatch(es), \
             {budget_violations} alloc budget violation(s)"
        );
        std::process::exit(1);
    }
    Ok(())
}
