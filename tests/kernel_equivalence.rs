//! Bit-identity tests for the cache-blocked kernels (DESIGN.md §10).
//!
//! The blocked GEMM, the direct conv2d forward and the im2col conv2d
//! backward promise the *exact* bits of their naive loop-nest oracles —
//! per output element, products accumulate in ascending reduction order
//! into a single f32 chain. These tests sweep that contract across awkward
//! geometry (odd sizes, stride > 1, fat padding, 1×1 kernels, partly
//! filled register tiles) and seeded sparsity, and check that the
//! [`Scratch`] arena's buffer reuse never leaks state between calls.

use evlab::cnn::model::{build_cnn, CnnConfig};
use evlab::tensor::gemm::{
    conv2d_backward, conv2d_backward_naive, conv2d_forward, conv2d_forward_naive, gemm_into,
    gemm_naive_into, ConvShape,
};
use evlab::tensor::{OpCount, Scratch, Tensor};
use evlab::util::{par, Rng64};

fn rand_vec(rng: &mut Rng64, n: usize, zero_frac: f64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.next_f64() < zero_frac {
                0.0
            } else {
                rng.next_f32() - 0.5
            }
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: blocked {x} vs naive {y}"
        );
    }
}

/// Geometry sweep: the two table1 conv layers plus stride-2, pad-2,
/// 1×1-kernel and odd-sized shapes that hit every im2col edge case, out
/// channel counts that fill the last 8-lane block partly, output widths
/// that fill the last 4-pixel block partly, and a 4×-width table1 conv2.
fn shapes() -> Vec<ConvShape> {
    let s = |ic, oc, k, st, p, h, w| ConvShape {
        in_channels: ic,
        out_channels: oc,
        kernel: k,
        stride: st,
        padding: p,
        in_h: h,
        in_w: w,
    };
    vec![
        s(2, 8, 3, 1, 1, 32, 32),  // table1 conv1
        s(8, 16, 3, 1, 1, 16, 16), // table1 conv2
        s(3, 5, 3, 2, 1, 11, 13),  // stride 2, odd dims
        s(1, 4, 1, 1, 0, 7, 9),    // 1×1 kernel
        s(2, 3, 5, 1, 2, 9, 9),    // 5×5 kernel, padding 2
        s(4, 2, 3, 2, 2, 10, 7),   // stride 2 AND padding 2
        s(1, 1, 3, 3, 1, 8, 8),    // stride 3, single channel
        s(3, 1, 3, 1, 1, 6, 6),    // 1 out channel, output width 6
        s(2, 7, 3, 1, 0, 5, 7),    // 7 out channels, output width 5
        s(4, 9, 3, 2, 1, 6, 5),    // 9 out channels, output width 3
        s(2, 17, 1, 1, 0, 4, 1),   // 17 out channels, output width 1
        s(32, 64, 3, 1, 1, 16, 16), // table1 conv2 at 4× width
    ]
}

/// The forward sweep runs on one thread and once more with four pool
/// threads available: the result must not depend on the thread count.
#[test]
fn conv2d_forward_blocked_matches_naive_bits() {
    for threads in [1, 4] {
        let mut rng = Rng64::seed_from_u64(0xC04F);
        let mut scratch = Scratch::new();
        for shape in shapes() {
            for &zero_frac in &[0.0, 0.6, 0.95, 1.0] {
                let (oh, ow) = shape.out_hw();
                let x = rand_vec(
                    &mut rng,
                    shape.in_channels * shape.in_h * shape.in_w,
                    zero_frac,
                );
                let w = rand_vec(&mut rng, shape.out_channels * shape.col_rows(), 0.0);
                let bias = rand_vec(&mut rng, shape.out_channels, 0.0);
                let mut out_blocked = vec![f32::NAN; shape.out_channels * oh * ow];
                let mut out_naive = vec![0.0f32; shape.out_channels * oh * ow];
                let eff_b = par::with_threads(threads, || {
                    conv2d_forward(&shape, &x, &w, &bias, &mut out_blocked, &mut scratch)
                });
                let eff_n = conv2d_forward_naive(&shape, &x, &w, &bias, &mut out_naive);
                let what = format!("conv forward {shape:?} @{threads}t");
                assert_bits_eq(&out_blocked, &out_naive, &what);
                assert_eq!(eff_b, eff_n, "effective MAC counts diverge: {what}");
            }
        }
    }
}

#[test]
fn conv2d_backward_blocked_matches_naive_bits() {
    let mut rng = Rng64::seed_from_u64(0xBAC4);
    let mut scratch = Scratch::new();
    for shape in shapes() {
        let (oh, ow) = shape.out_hw();
        let x = rand_vec(&mut rng, shape.in_channels * shape.in_h * shape.in_w, 0.5);
        let w = rand_vec(&mut rng, shape.out_channels * shape.col_rows(), 0.0);
        let g = rand_vec(&mut rng, shape.out_channels * oh * ow, 0.3);
        // Gradients accumulate (`+=`), so seed both sides with identical
        // nonzero contents to exercise that contract too.
        let gi0 = rand_vec(&mut rng, shape.in_channels * shape.in_h * shape.in_w, 0.0);
        let gw0 = rand_vec(&mut rng, shape.out_channels * shape.col_rows(), 0.0);
        let gb0 = rand_vec(&mut rng, shape.out_channels, 0.0);
        let (mut gi_b, mut gw_b, mut gb_b) = (gi0.clone(), gw0.clone(), gb0.clone());
        let (mut gi_n, mut gw_n, mut gb_n) = (gi0, gw0, gb0);
        conv2d_backward(&shape, &x, &w, &g, &mut gi_b, &mut gw_b, &mut gb_b, &mut scratch);
        conv2d_backward_naive(&shape, &x, &w, &g, &mut gi_n, &mut gw_n, &mut gb_n);
        assert_bits_eq(&gi_b, &gi_n, "grad input");
        assert_bits_eq(&gw_b, &gw_n, "grad weight");
        assert_bits_eq(&gb_b, &gb_n, "grad bias");
    }
}

#[test]
fn gemm_blocked_matches_naive_bits() {
    let mut rng = Rng64::seed_from_u64(0x6E44);
    let mut scratch = Scratch::new();
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (4, 8, 16),
        (5, 9, 17),   // one past the 4×8 microkernel tile
        (13, 21, 37), // ragged everywhere
        (70, 33, 40), // crosses the row-panel (MC = 64) boundary
    ] {
        let a = rand_vec(&mut rng, m * k, 0.2);
        let b = rand_vec(&mut rng, k * n, 0.2);
        let mut c_blocked = rand_vec(&mut rng, m * n, 0.0);
        let mut c_naive = c_blocked.clone(); // both accumulate (`+=`)
        gemm_into(m, n, k, &a, &b, &mut c_blocked, &mut scratch);
        gemm_naive_into(m, n, k, &a, k, 1, &b, n, 1, &mut c_naive);
        assert_bits_eq(&c_blocked, &c_naive, "gemm");
    }
}

/// Degenerate GEMM geometry — any of `m`, `n`, `k` equal to 0 or 1 —
/// must match the naive oracle bit-for-bit at every thread count. A zero
/// `k` in particular means "accumulate an empty sum": `C` is left
/// untouched on both paths.
#[test]
fn gemm_degenerate_shapes_match_naive_at_every_thread_count() {
    let mut rng = Rng64::seed_from_u64(0xDE6E);
    let cases: &[(usize, usize, usize)] = &[
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 7, 1),
        (7, 1, 5),
        (1, 1, 64),
        (128, 130, 9), // crosses MC and NBAND: exercises the panel grid
    ];
    for &(m, n, k) in cases {
        let a = rand_vec(&mut rng, m * k, 0.2);
        let b = rand_vec(&mut rng, k * n, 0.2);
        let c0 = rand_vec(&mut rng, m * n, 0.0); // both sides accumulate
        let mut c_naive = c0.clone();
        gemm_naive_into(m, n, k, &a, k, 1, &b, n, 1, &mut c_naive);
        for threads in [1, 2, 4, 8] {
            par::with_threads(threads, || {
                let mut scratch = Scratch::new();
                let mut c = c0.clone();
                gemm_into(m, n, k, &a, &b, &mut c, &mut scratch);
                assert_bits_eq(&c, &c_naive, &format!("gemm {m}x{n}x{k} @{threads}t"));
            });
        }
    }
}

/// Single-pixel conv geometry (1×1 input and/or 1×1 output) round-trips
/// through im2col without touching any padding branch incorrectly, at
/// every thread count.
#[test]
fn conv2d_single_pixel_shapes_match_naive_at_every_thread_count() {
    let s = |ic, oc, k, st, p, h, w| ConvShape {
        in_channels: ic,
        out_channels: oc,
        kernel: k,
        stride: st,
        padding: p,
        in_h: h,
        in_w: w,
    };
    let cases = [
        s(3, 4, 1, 1, 0, 1, 1), // 1×1 input, 1×1 kernel
        s(2, 3, 3, 1, 0, 3, 3), // kernel covers the whole input: 1×1 output
        s(1, 1, 1, 1, 0, 1, 1), // every dimension 1
        s(1, 2, 3, 1, 1, 1, 1), // 1×1 input with padding
    ];
    let mut rng = Rng64::seed_from_u64(0x1A1);
    for shape in cases {
        let (oh, ow) = shape.out_hw();
        let x = rand_vec(&mut rng, shape.in_channels * shape.in_h * shape.in_w, 0.3);
        let w = rand_vec(&mut rng, shape.out_channels * shape.col_rows(), 0.0);
        let bias = rand_vec(&mut rng, shape.out_channels, 0.0);
        let g = rand_vec(&mut rng, shape.out_channels * oh * ow, 0.0);
        let mut out_naive = vec![0.0f32; shape.out_channels * oh * ow];
        let eff_n = conv2d_forward_naive(&shape, &x, &w, &bias, &mut out_naive);
        let zeros_i = vec![0.0f32; shape.in_channels * shape.in_h * shape.in_w];
        let zeros_w = vec![0.0f32; shape.out_channels * shape.col_rows()];
        let zeros_b = vec![0.0f32; shape.out_channels];
        let (mut gi_n, mut gw_n, mut gb_n) = (zeros_i.clone(), zeros_w.clone(), zeros_b.clone());
        conv2d_backward_naive(&shape, &x, &w, &g, &mut gi_n, &mut gw_n, &mut gb_n);
        for threads in [1, 2, 4, 8] {
            par::with_threads(threads, || {
                let mut scratch = Scratch::new();
                let mut out = vec![0.0f32; shape.out_channels * oh * ow];
                let eff = conv2d_forward(&shape, &x, &w, &bias, &mut out, &mut scratch);
                assert_bits_eq(&out, &out_naive, &format!("1px conv fwd @{threads}t"));
                assert_eq!(eff, eff_n, "effective MACs @{threads} threads");
                let (mut gi, mut gw, mut gb) =
                    (zeros_i.clone(), zeros_w.clone(), zeros_b.clone());
                conv2d_backward(&shape, &x, &w, &g, &mut gi, &mut gw, &mut gb, &mut scratch);
                assert_bits_eq(&gi, &gi_n, &format!("1px conv gi @{threads}t"));
                assert_bits_eq(&gw, &gw_n, &format!("1px conv gw @{threads}t"));
                assert_bits_eq(&gb, &gb_n, &format!("1px conv gb @{threads}t"));
            });
        }
    }
}

/// The full geometry sweep again, but with kernels fanned out across the
/// pool: results must equal the serial naive oracle bit-for-bit at every
/// thread count (the GEMM shape crosses `PAR_MIN_MACS` and actually runs
/// threaded; the direct conv forward runs serially at every count).
#[test]
fn threaded_kernels_match_naive_bits_across_thread_counts() {
    let mut rng = Rng64::seed_from_u64(0x7EAD);
    let big = ConvShape {
        in_channels: 8,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
        in_h: 32,
        in_w: 32,
    };
    let (oh, ow) = big.out_hw();
    let x = rand_vec(&mut rng, big.in_channels * big.in_h * big.in_w, 0.6);
    let w = rand_vec(&mut rng, big.out_channels * big.col_rows(), 0.0);
    let bias = rand_vec(&mut rng, big.out_channels, 0.0);
    let mut out_naive = vec![0.0f32; big.out_channels * oh * ow];
    conv2d_forward_naive(&big, &x, &w, &bias, &mut out_naive);
    let (m, n, k) = (128, 96, 64);
    let ga = rand_vec(&mut rng, m * k, 0.2);
    let gb = rand_vec(&mut rng, k * n, 0.2);
    let mut c_naive = vec![0.0f32; m * n];
    gemm_naive_into(m, n, k, &ga, k, 1, &gb, n, 1, &mut c_naive);
    for threads in [1, 2, 4, 8] {
        par::with_threads(threads, || {
            let mut scratch = Scratch::new();
            let mut out = vec![0.0f32; big.out_channels * oh * ow];
            conv2d_forward(&big, &x, &w, &bias, &mut out, &mut scratch);
            assert_bits_eq(&out, &out_naive, &format!("threaded conv @{threads}t"));
            let mut c = vec![0.0f32; m * n];
            gemm_into(m, n, k, &ga, &gb, &mut c, &mut scratch);
            assert_bits_eq(&c, &c_naive, &format!("threaded gemm @{threads}t"));
        });
    }
}

/// Arena reuse must be invisible: repeated `forward_arena` calls through
/// a recycled [`Scratch`] give bit-identical outputs, and those outputs
/// equal the allocating `forward` path.
#[test]
fn scratch_arena_reuse_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(0xA4E);
    let mut net = build_cnn(&CnnConfig::small(2, 32, 10), &mut rng);
    let x = Tensor::from_vec(&[2, 32, 32], rand_vec(&mut rng, 2 * 32 * 32, 0.8)).expect("shape");
    let mut ops = OpCount::new();
    let plain = net.forward(&x, &mut ops);
    let mut arena = Scratch::new();
    let first = net.forward_arena(&x, &mut arena, &mut ops);
    let second = net.forward_arena(&x, &mut arena, &mut ops);
    assert_bits_eq(plain.as_slice(), first.as_slice(), "arena vs plain forward");
    assert_bits_eq(first.as_slice(), second.as_slice(), "arena reuse");
    assert_eq!(first.shape(), plain.shape());
}
