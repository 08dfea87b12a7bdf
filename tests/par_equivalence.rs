//! Determinism contract of the parallel execution layer: every
//! parallelized hot path must produce bit-identical output under
//! `EVLAB_THREADS=4` and under exact serial execution (`threads = 1`).
//!
//! Each test runs the same workload twice inside
//! [`evlab::util::par::with_threads`] and compares the results with
//! structural equality — for floats that means exact bit patterns via
//! `to_bits`, not approximate closeness. The workloads are sized past the
//! internal parallelism thresholds so the threaded runs genuinely take
//! the chunked/striped code paths.

use evlab::cnn::encode::{
    CountAndSurface, FrameEncoder, LinearTimeSurface, SignedCount, TimeSurface, TwoChannel,
    VoxelGrid,
};
use evlab::events::{Event, EventStream, Polarity};
use evlab::gnn::build::{incremental_build, kdtree_build, GraphConfig};
use evlab::sensor::scene::MovingBar;
use evlab::sensor::{CameraConfig, EventCamera};
use evlab::snn::encode::SpikeTrain;
use evlab::snn::event_driven::EventDrivenSnn;
use evlab::snn::layer::LifLayer;
use evlab::snn::network::{SnnConfig, SnnNetwork};
use evlab::snn::neuron::LifConfig;
use evlab::tensor::OpCount;
use evlab::util::{par, Rng64};

/// Exact float-slice equality: same length, same bit pattern everywhere.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn random_stream(n: usize, res: u16, span_us: u64, seed: u64) -> EventStream {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut ts: Vec<u64> = (0..n).map(|_| rng.next_below(span_us)).collect();
    ts.sort_unstable();
    let events: Vec<Event> = ts
        .into_iter()
        .map(|t| {
            Event::new(
                t,
                rng.next_below(res as u64) as u16,
                rng.next_below(res as u64) as u16,
                if rng.bernoulli(0.5) {
                    Polarity::On
                } else {
                    Polarity::Off
                },
            )
        })
        .collect();
    EventStream::from_events((res, res), events).expect("sorted and in bounds")
}

#[test]
fn camera_recording_is_thread_invariant() {
    let camera = EventCamera::new(CameraConfig::new((48, 48)));
    let scene = MovingBar::horizontal(0.002, 4.0);
    let serial = par::with_threads(1, || camera.record(&scene, 0, 40_000, 7));
    let threaded = par::with_threads(4, || camera.record(&scene, 0, 40_000, 7));
    assert!(serial.len() > 100, "bar must generate events");
    assert_eq!(serial, threaded, "camera events differ across thread counts");
}

#[test]
fn frame_encoders_are_thread_invariant() {
    // Past MIN_EVENTS_PER_CHUNK (8192) so the threaded run actually chunks.
    let stream = random_stream(40_000, 64, 80_000, 13);
    let events = stream.as_slice();
    let encoders: Vec<Box<dyn FrameEncoder>> = vec![
        Box::new(SignedCount::new()),
        Box::new(TwoChannel::new()),
        Box::new(TimeSurface::new(5_000.0)),
        Box::new(LinearTimeSurface::new(20_000)),
        Box::new(VoxelGrid::new(6)),
        Box::new(CountAndSurface::new()),
    ];
    for enc in &encoders {
        let mut ops_a = OpCount::new();
        let mut ops_b = OpCount::new();
        let serial = par::with_threads(1, || enc.encode(events, stream.resolution(), &mut ops_a));
        let threaded =
            par::with_threads(4, || enc.encode(events, stream.resolution(), &mut ops_b));
        assert_eq!(serial.shape(), threaded.shape());
        assert!(
            bits_equal(serial.as_slice(), threaded.as_slice()),
            "encoder output differs across thread counts"
        );
        assert_eq!(ops_a, ops_b, "op accounting differs across thread counts");
    }
}

#[test]
fn lif_layer_stepping_is_thread_invariant() {
    // 40 active inputs × 2048 outputs ≈ 84k synaptic updates per step,
    // past the layer's parallel-dispatch threshold.
    let run = |threads: usize| {
        par::with_threads(threads, || {
            let mut rng = Rng64::seed_from_u64(21);
            let mut layer = LifLayer::new(256, 2048, LifConfig::new(), &mut rng);
            let mut ops = OpCount::new();
            let mut spikes = Vec::new();
            let mut membranes = Vec::new();
            for _ in 0..4 {
                let input: Vec<f32> = (0..256)
                    .map(|_| if rng.bernoulli(0.15) { 1.0 } else { 0.0 })
                    .collect();
                let out = layer.step(&input, &mut ops);
                spikes.extend(out.spikes.iter().copied());
                membranes.extend(out.membrane.iter().copied());
            }
            (spikes, membranes, ops)
        })
    };
    let (s1, m1, o1) = run(1);
    let (s4, m4, o4) = run(4);
    assert!(bits_equal(&s1, &s4), "spikes differ across thread counts");
    assert!(bits_equal(&m1, &m4), "membranes differ across thread counts");
    assert_eq!(o1, o4, "op accounting differs across thread counts");
}

#[test]
fn event_driven_snn_is_thread_invariant() {
    // A wide hidden layer (2,048 neurons). The event-driven injection runs
    // on the caller's thread at every width, so nothing in its result may
    // depend on the thread count.
    let run = |threads: usize| {
        par::with_threads(threads, || {
            let mut rng = Rng64::seed_from_u64(31);
            let net = SnnNetwork::new(SnnConfig::new(32, 5).with_hidden(vec![2048]), &mut rng);
            let mut train = SpikeTrain::new(32, 25);
            for t in 0..25 {
                for _ in 0..4 {
                    train.push(t, rng.next_index(32) as u32);
                }
            }
            let mut ed = EventDrivenSnn::from_network(&net);
            let mut ops = OpCount::new();
            let result = ed.process(&train, &mut ops);
            (result, ops)
        })
    };
    let (r1, o1) = run(1);
    let (r4, o4) = run(4);
    assert_eq!(r1.spike_counts, r4.spike_counts);
    assert!(
        bits_equal(r1.logits.as_slice(), r4.logits.as_slice()),
        "logits differ across thread counts"
    );
    assert_eq!(o1, o4, "op accounting differs across thread counts");
}

#[test]
fn with_threads_override_reaches_worker_threads() {
    // Regression: the thread-count override is a thread-local, and worker
    // threads start with fresh thread-locals — the par layer must copy the
    // override into every worker so that nested regions see it.
    let seen = par::with_threads(3, || par::map_chunks(4, |_| par::threads()));
    assert_eq!(seen, vec![3; 4], "override lost inside worker threads");
    // An inner region opened *on a worker* still wins over the propagated
    // outer override, exactly as it does on the coordinator thread.
    let inner = par::with_threads(4, || {
        par::map_chunks(2, |_| par::with_threads(2, par::threads))
    });
    assert_eq!(inner, vec![2; 2], "inner override must shadow the outer one");
}

#[test]
fn nested_with_threads_regions_stay_bit_identical() {
    // A pipeline stage that itself fans out, launched from inside a worker
    // of an outer region: with the override propagated, the inner encode
    // chunks under threads = 4 and must still match the flat serial run
    // bit for bit.
    let stream = random_stream(40_000, 64, 80_000, 13);
    let events = stream.as_slice();
    let enc = SignedCount::new();
    let mut ops = OpCount::new();
    let flat = par::with_threads(1, || enc.encode(events, stream.resolution(), &mut ops));
    let nested = par::with_threads(4, || {
        par::map_chunks(2, |_| {
            let mut ops = OpCount::new();
            enc.encode(events, stream.resolution(), &mut ops)
        })
    });
    for frame in &nested {
        assert!(
            bits_equal(flat.as_slice(), frame.as_slice()),
            "nested encode differs from the flat serial run"
        );
    }
}

#[test]
fn serve_decisions_are_thread_invariant() {
    // The serving runtime schedules sessions across worker threads, but a
    // session's decisions must be a pure function of its ingress: same
    // streams + same config => identical decision logs, latest decisions
    // (logits bit-for-bit, via Decision's PartialEq) and shed statistics
    // under EVLAB_THREADS=1 and 4 — even with shedding forced by a queue
    // much smaller than the ingest bursts.
    use evlab::core::prelude::*;
    use evlab::datasets::shapes::shape_silhouettes;
    use evlab::datasets::DatasetConfig;
    use evlab::serve::{DropPolicy, ServeConfig, ServeRuntime};

    let data = shape_silhouettes(&DatasetConfig::tiny((16, 16)).with_split(6, 2));
    let mut snn = SnnPipeline::new(SnnPipelineConfig::new().with_epochs(3).with_seed(3));
    let mut cnn = CnnPipeline::new(CnnPipelineConfig::new().with_epochs(3).with_seed(3));
    let mut gnn = GnnPipeline::new(
        GnnPipelineConfig::new().with_epochs(3).with_max_nodes(64).with_seed(3),
    );
    snn.fit(&data);
    cnn.fit(&data);
    gnn.fit(&data);

    let run = |threads: usize| {
        par::with_threads(threads, || {
            let config = ServeConfig::new()
                .with_queue_depth(8)
                .with_policy(DropPolicy::DropOldest)
                .with_quantum(4);
            let mut rt = ServeRuntime::new(config);
            let online = OnlineConfig::new(data.resolution).with_window_us(2_000);
            for _ in 0..2 {
                rt.open_session(
                    SessionBuilder::new(online).snn(&snn).build().unwrap(),
                    data.resolution,
                )
                .unwrap();
                rt.open_session(
                    SessionBuilder::new(online).cnn(&cnn).build().unwrap(),
                    data.resolution,
                )
                .unwrap();
                rt.open_session(
                    SessionBuilder::new(OnlineConfig::new(data.resolution))
                        .gnn(&gnn)
                        .build()
                        .unwrap(),
                    data.resolution,
                )
                .unwrap();
            }
            // Bursts of 32 into depth-8 queues: most events are shed, and
            // which ones survive must still be deterministic.
            let stream = &data.test[0].stream;
            let events = stream.as_slice();
            for chunk in events.chunks(32) {
                for sid in 0..6 {
                    for e in chunk {
                        rt.offer(sid, *e);
                    }
                }
                rt.tick();
            }
            rt.drain_all();
            rt.flush_all().unwrap();
            rt.sessions()
                .iter()
                .map(|s| {
                    (
                        s.history().to_vec(),
                        s.last_decision().cloned(),
                        s.stats(),
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    let serial = run(1);
    let threaded = run(4);
    assert!(
        serial.iter().any(|(h, _, _)| !h.is_empty()),
        "serving produced no decisions"
    );
    assert!(
        serial.iter().any(|(_, _, st)| st.shed() > 0),
        "overload was not forced"
    );
    assert_eq!(serial, threaded, "serve decisions differ across thread counts");
}

#[test]
fn graph_builders_are_thread_invariant() {
    // Past MIN_STRIPED_EVENTS (4096) with exact (uncapped) cells, so the
    // threaded incremental build takes the striped path.
    let stream = random_stream(8_000, 96, 300_000, 41);
    let config = GraphConfig::new();
    let mut ops_a = OpCount::new();
    let mut ops_b = OpCount::new();
    let serial = par::with_threads(1, || incremental_build(stream.as_slice(), &config, &mut ops_a));
    let threaded =
        par::with_threads(4, || incremental_build(stream.as_slice(), &config, &mut ops_b));
    assert_eq!(serial, threaded, "incremental graphs differ across thread counts");
    assert_eq!(ops_a, ops_b, "op accounting differs across thread counts");

    let mut ops_c = OpCount::new();
    let mut ops_d = OpCount::new();
    let kd_serial = par::with_threads(1, || kdtree_build(stream.as_slice(), &config, &mut ops_c));
    let kd_threaded = par::with_threads(4, || kdtree_build(stream.as_slice(), &config, &mut ops_d));
    assert_eq!(kd_serial, kd_threaded, "kd-tree graphs differ across thread counts");
    assert_eq!(ops_c, ops_d, "op accounting differs across thread counts");
}
