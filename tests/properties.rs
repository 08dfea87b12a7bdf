//! Property-based tests over the core data structures and invariants.
//!
//! These are hand-rolled randomized property checks driven by the
//! workspace's own [`Rng64`] generator (64 seeded cases per property), so
//! the suite needs no external property-testing crates and stays
//! bit-reproducible across runs.

use evlab::events::aer::AerCodec;
use evlab::events::filters::{BackgroundActivityFilter, RefractoryFilter};
use evlab::events::{Event, EventStream, Polarity};
use evlab::gnn::build::{incremental_build, naive_build, GraphConfig};
use evlab::tensor::sparse::{CsrMatrix, SparsityMapEncoding, ZeroRunLength};
use evlab::tensor::{OpCount, Tensor};
use evlab::util::Rng64;

const CASES: u64 = 64;

fn rand_event(rng: &mut Rng64, res: u16) -> Event {
    let t = rng.next_u64() % 1_000_000;
    let x = (rng.next_u64() % res as u64) as u16;
    let y = (rng.next_u64() % res as u64) as u16;
    let p = if rng.bernoulli(0.5) {
        Polarity::On
    } else {
        Polarity::Off
    };
    Event::new(t, x, y, p)
}

fn rand_stream(rng: &mut Rng64, res: u16, max_events: usize) -> EventStream {
    let n = (rng.next_u64() % (max_events as u64 + 1)) as usize;
    let events: Vec<Event> = (0..n).map(|_| rand_event(rng, res)).collect();
    EventStream::from_unsorted((res, res), events).expect("in bounds")
}

#[test]
fn aer_codec_round_trips_any_event() {
    let codec = AerCodec::new((720, 720));
    let mut rng = Rng64::seed_from_u64(0xAE2);
    for _ in 0..CASES {
        let e = rand_event(&mut rng, 720);
        let decoded = codec.decode(codec.encode(&e)).expect("round trip");
        assert_eq!(decoded, e);
    }
}

#[test]
fn filters_return_sorted_subsets() {
    let mut rng = Rng64::seed_from_u64(0xF117);
    for _ in 0..CASES {
        let stream = rand_stream(&mut rng, 16, 200);
        for filtered in [
            RefractoryFilter::new(100).apply(&stream),
            BackgroundActivityFilter::new(1_000).apply(&stream),
        ] {
            assert!(filtered.len() <= stream.len());
            for pair in filtered.as_slice().windows(2) {
                assert!(pair[0].t <= pair[1].t);
            }
            // Every surviving event exists in the original.
            for e in filtered.iter() {
                assert!(stream.as_slice().contains(e));
            }
        }
    }
}

#[test]
fn windows_partition_the_stream() {
    let mut rng = Rng64::seed_from_u64(0x317D0);
    for _ in 0..CASES {
        let stream = rand_stream(&mut rng, 16, 200);
        let w = 1 + rng.next_u64() % 99_999;
        let total: usize = stream.windows(w).iter().map(|win| win.len()).sum();
        assert_eq!(total, stream.len());
    }
}

#[test]
fn graph_builders_agree_on_random_streams() {
    let mut rng = Rng64::seed_from_u64(0x62A9);
    for _ in 0..CASES {
        let stream = rand_stream(&mut rng, 32, 120);
        let config = GraphConfig::new();
        let mut ops = OpCount::new();
        let a = naive_build(stream.as_slice(), &config, &mut ops);
        let b = incremental_build(stream.as_slice(), &config, &mut ops);
        for i in 0..stream.len() {
            assert_eq!(a.in_neighbors(i), b.in_neighbors(i));
        }
        a.assert_causal();
        // Degree bound.
        for i in 0..stream.len() {
            assert!(a.in_neighbors(i).len() <= config.max_degree);
        }
    }
}

#[test]
fn sparse_encodings_round_trip() {
    let mut rng = Rng64::seed_from_u64(0x59A25E);
    for _ in 0..CASES {
        let n = (rng.next_u64() % 500) as usize;
        // ~3:1 zeros to random values, matching real activation sparsity.
        let values: Vec<f32> = (0..n)
            .map(|_| {
                if rng.bernoulli(0.75) {
                    0.0
                } else {
                    (rng.next_f32() - 0.5) * 200.0
                }
            })
            .collect();
        let zrle = ZeroRunLength::encode(&values);
        assert_eq!(zrle.decode(), values.clone());
        let map = SparsityMapEncoding::encode(&values);
        assert_eq!(map.decode(), values);
    }
}

#[test]
fn csr_spmv_matches_dense() {
    let mut rng = Rng64::seed_from_u64(0xC52);
    for _ in 0..CASES {
        let rows = 1 + (rng.next_u64() % 7) as usize;
        let cols = 1 + (rng.next_u64() % 7) as usize;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if rng.bernoulli(0.6) {
                    0.0
                } else {
                    rng.next_f32() - 0.5
                }
            })
            .collect();
        let dense = Tensor::from_vec(&[rows, cols], data).expect("shape");
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense.clone());
        let x: Vec<f32> = (0..cols).map(|_| rng.next_f32()).collect();
        let y = csr.spmv(&x);
        for (r, &yr) in y.iter().enumerate() {
            let expected: f32 = (0..cols).map(|c| dense.at(&[r, c]) * x[c]).sum();
            assert!((yr - expected).abs() < 1e-4);
        }
        // The buffer-reusing variant must overwrite stale contents and
        // produce the exact same bits as the allocating wrapper.
        let mut y_into = vec![f32::NAN; rows];
        csr.spmv_into(&x, &mut y_into);
        for (a, b) in y.iter().zip(&y_into) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn tensor_matmul_is_distributive() {
    let mut rng = Rng64::seed_from_u64(0x7E9502);
    let rand_t = |rng: &mut Rng64, shape: &[usize]| {
        let mut t = Tensor::zeros(shape);
        for v in t.as_mut_slice() {
            *v = (rng.next_f32() - 0.5) * 2.0;
        }
        t
    };
    for _ in 0..CASES {
        let a = rand_t(&mut rng, &[3, 4]);
        let b = rand_t(&mut rng, &[4, 2]);
        let c = rand_t(&mut rng, &[4, 2]);
        // a (b + c) == a b + a c
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-4);
        }
    }
}

#[test]
fn spike_encoding_conserves_events_within_horizon() {
    use evlab::snn::encode::events_to_spikes;
    let mut rng = Rng64::seed_from_u64(0x59135);
    for _ in 0..CASES {
        let stream = rand_stream(&mut rng, 8, 100);
        let steps = 50usize;
        let dt = 20_000u64;
        let train = events_to_spikes(&stream, dt, steps);
        let t0 = stream.start().map(|t| t.as_micros()).unwrap_or(0);
        let within: usize = stream
            .iter()
            .filter(|e| (e.t.as_micros() - t0) / dt < steps as u64)
            .count();
        assert_eq!(train.total_spikes(), within);
    }
}

#[test]
fn rollover_wrap_then_unwrap_round_trips() {
    use evlab::events::reorder::TimeUnwrapper;
    use evlab::util::fault::{FaultInjector, FaultSpec, RawEvent, ROLLOVER_PERIOD_US};
    let mut rng = Rng64::seed_from_u64(0xF0_110);
    for case in 0..CASES {
        // A sorted stream whose timestamps straddle the 32-bit boundary
        // once the offset is added; gaps stay far below half a period, so
        // the unwrapper's epoch heuristic must recover the exact times.
        let offset = ROLLOVER_PERIOD_US - 1 - rng.next_below(500_000);
        let n = 50 + rng.next_below(200);
        let mut t = 0u64;
        let raw: Vec<RawEvent> = (0..n)
            .map(|i| {
                t += rng.next_below(10_000);
                RawEvent {
                    t_us: t,
                    x: (i % 16) as u16,
                    y: (i % 16) as u16,
                    on: rng.bernoulli(0.5),
                }
            })
            .collect();
        let spec = FaultSpec {
            rollover_offset_us: Some(offset),
            seed: case,
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(&spec);
        let wrapped = inj.apply_events(&raw, (16, 16));
        assert_eq!(wrapped.len(), raw.len());
        let mut unwrapper = TimeUnwrapper::new();
        for (orig, w) in raw.iter().zip(&wrapped) {
            assert_eq!(
                unwrapper.unwrap_us(w.t_us),
                orig.t_us + offset,
                "case {case}: unwrap lost the original timeline"
            );
        }
        if wrapped.iter().any(|e| e.t_us < offset) {
            assert!(unwrapper.rollovers() > 0, "case {case}: wrap went unnoticed");
        }
    }
}

/// Watermark boundary property (inclusive release): a monotone stream
/// whose inter-event gap equals the skew tolerance *exactly* places every
/// prior event exactly on the watermark — each push must release its
/// predecessor immediately (never hold it), nothing is late-dropped, and
/// a full round trip preserves the stream.
#[test]
fn reorder_buffer_releases_exactly_at_the_watermark() {
    use evlab::events::reorder::ReorderBuffer;
    let mut rng = Rng64::seed_from_u64(0xB0DA);
    for case in 0..CASES {
        let skew = 1 + rng.next_below(1_000);
        let n = 3 + rng.next_below(60) as usize;
        let t0 = rng.next_below(10_000);
        let events: Vec<Event> = (0..n as u64).map(|i| {
            Event::new(
                t0 + i * skew,
                (i % 9) as u16,
                (i % 11) as u16,
                if i % 2 == 0 { Polarity::On } else { Polarity::Off },
            )
        }).collect();
        let mut buf = ReorderBuffer::new(skew);
        let mut out = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let released = buf.push(*e, &mut out);
            if i == 0 {
                assert_eq!(released, 0, "case {case}: first event has no watermark yet");
            } else {
                assert_eq!(
                    released, 1,
                    "case {case}: predecessor sits exactly on the watermark and must release"
                );
            }
        }
        buf.flush(&mut out);
        assert_eq!(buf.late_dropped(), 0, "case {case}");
        assert_eq!(out, events, "case {case}: boundary round trip must be lossless");
    }
}

#[test]
fn reorder_buffer_round_trips_bounded_jitter() {
    use evlab::events::reorder::ReorderBuffer;
    use evlab::util::fault::{FaultInjector, FaultSpec, RawEvent};
    let mut rng = Rng64::seed_from_u64(0x2E02DE2);
    for case in 0..CASES {
        let skew = 50 + rng.next_below(400);
        let stream = rand_stream(&mut rng, 16, 300);
        let raw: Vec<RawEvent> = stream
            .as_slice()
            .iter()
            .map(|e| RawEvent {
                t_us: e.t.as_micros(),
                x: e.x,
                y: e.y,
                on: e.polarity == Polarity::On,
            })
            .collect();
        let spec = FaultSpec::parse(&format!("seed={case},reorder=1.0:{skew}"))
            .expect("valid spec");
        let jittered = FaultInjector::new(&spec).apply_events(&raw, (16, 16));
        assert_eq!(jittered.len(), raw.len());
        // Jitter displaces each event by at most `skew`, so a buffer
        // tolerating twice that must salvage every event: the released
        // output is the jittered multiset, restored to sorted order.
        let mut buf = ReorderBuffer::new(2 * skew);
        let mut released: Vec<Event> = Vec::new();
        for r in &jittered {
            let p = if r.on { Polarity::On } else { Polarity::Off };
            buf.push(Event::new(r.t_us, r.x, r.y, p), &mut released);
        }
        buf.flush(&mut released);
        assert_eq!(buf.late_dropped(), 0, "case {case}: salvageable event lost");
        assert_eq!(released.len(), jittered.len());
        for pair in released.windows(2) {
            assert!(pair[0].t <= pair[1].t, "case {case}: output not sorted");
        }
        let mut want: Vec<(u64, u16, u16, bool)> = jittered
            .iter()
            .map(|r| (r.t_us, r.x, r.y, r.on))
            .collect();
        want.sort_unstable();
        let mut got: Vec<(u64, u16, u16, bool)> = released
            .iter()
            .map(|e| (e.t.as_micros(), e.x, e.y, e.polarity == Polarity::On))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "case {case}: multiset changed in transit");
    }
}

#[test]
fn truncated_aer_files_salvage_the_exact_prefix_and_never_panic() {
    use evlab::events::io::{read_stream, read_stream_prefix, ReadStreamError};

    // The on-disk format: 18-byte header (magic, version, resolution,
    // count) followed by 8-byte AER words.
    const HEADER: usize = 18;
    let mut rng = Rng64::seed_from_u64(0x7AE5);
    for case in 0..CASES {
        let stream = rand_stream(&mut rng, 32, 48);
        let mut bytes = Vec::new();
        evlab::events::io::write_stream(&stream, &mut bytes).expect("write");
        assert_eq!(bytes.len(), HEADER + 8 * stream.len());

        // Cut the file at EVERY byte offset: the strict reader must fail
        // with the typed `Truncated` error (never a panic, never a bare
        // EOF), and the salvage reader must return exactly the events
        // whose records survived intact — no phantom tail event.
        for off in 0..bytes.len() {
            let cut = &bytes[..off];
            match read_stream(cut) {
                Err(ReadStreamError::Truncated { expected, got }) => {
                    if off >= HEADER {
                        assert_eq!(expected, stream.len() as u64, "case {case} offset {off}");
                        assert_eq!(got as usize, (off - HEADER) / 8, "case {case} offset {off}");
                    } else {
                        assert_eq!((expected, got), (0, 0), "case {case} offset {off}");
                    }
                }
                Ok(_) => panic!("case {case} offset {off}: truncated file read as complete"),
                Err(e) => panic!("case {case} offset {off}: wrong error kind {e:?}"),
            }
            match read_stream_prefix(cut) {
                Ok((prefix, Some(ReadStreamError::Truncated { .. }))) => {
                    assert!(off >= HEADER, "case {case} offset {off}: salvaged a cut header");
                    let intact = (off - HEADER) / 8;
                    assert_eq!(
                        prefix.as_slice(),
                        &stream.as_slice()[..intact],
                        "case {case} offset {off}: salvage prefix mismatch"
                    );
                }
                Err(ReadStreamError::Truncated { .. }) => {
                    assert!(off < HEADER, "case {case} offset {off}: lost a salvageable prefix")
                }
                Ok((_, tail)) => {
                    panic!("case {case} offset {off}: unexpected salvage tail {tail:?}")
                }
                Err(e) => panic!("case {case} offset {off}: wrong salvage error {e:?}"),
            }
        }

        // The untruncated file still round-trips through both readers.
        let full = read_stream(&bytes[..]).expect("full read");
        assert_eq!(full.as_slice(), stream.as_slice());
        let (salvaged, tail) = read_stream_prefix(&bytes[..]).expect("full salvage");
        assert!(tail.is_none(), "clean file reported a tail error");
        assert_eq!(salvaged.as_slice(), stream.as_slice());
    }
}
