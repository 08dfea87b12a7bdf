//! Cache-blocked GEMM and the conv2d kernels.
//!
//! This is the dense compute core of the workspace: a std-only, BLIS-style
//! tiled matrix multiply, a direct register-tiled convolution for the
//! [`crate::layer::Conv2d`] forward, and the im2col/col2im lowering that
//! turns the conv backward into GEMM calls. Throughput comes from two
//! independent levers: memory-access structure (packed panels, register
//! tiles) and, for large enough problems, shape-only parallel grids over
//! the `evlab_util::par` kernel pool.
//!
//! # Panel partitioning
//!
//! The parallel path partitions the *output* C into a fixed 2-D grid of
//! `MC`-row × [`NBAND`]-column rectangles. The grid depends only on
//! `(m, n)` — never on the thread count — and each rectangle runs the
//! complete serial blocked nest (full ascending-k panel loop) on one pool
//! worker, packing into that worker's thread-local arena
//! ([`crate::scratch::with_worker_scratch`]). Because a rectangle owns
//! every k-update of its output elements, spatial partitioning cannot
//! perturb any per-element accumulation chain: results are bitwise
//! identical at every `EVLAB_THREADS` value, and identical to the serial
//! path. Problems below [`PAR_MIN_MACS`] (or with a single-rectangle
//! grid) skip dispatch entirely and use the caller's scratch.
//!
//! # Direct conv forward
//!
//! [`conv2d_forward`] never builds the im2col matrix. It copies the input
//! once into a zero-padded buffer, packs the weights into `[lane
//! block][tap][lane]` order, and forms the output in register tiles of
//! `CONV_LANES = 8` output channels × `CONV_PIXELS = 4` consecutive
//! output pixels of one output row. A tile is seeded with the bias; for
//! every tap `t = (ic·K + ky)·K + kx` in ascending order it adds `w · x`
//! to each lane. Padding taps read the buffer's `+0.0` and zero inputs
//! are multiplied like any other, so each output element is exactly the
//! chain the im2col + GEMM lowering formed (column `p` of `W · Col`).
//! Lanes past `out_channels` and pixels past the output width are
//! computed into the tile and never stored. The buffer is wide enough for
//! whole pixel blocks, so the tap loop has no padding branches; stride 1
//! (every `Conv2d`) runs a copy of it with the stride folded in as a
//! constant.
//!
//! The forward runs its tiles serially on the caller's thread for every
//! shape, so it is thread-count invariant by construction. Its callers
//! already run it inside pool regions (serve ticks, `BatchTrainer`
//! chunks), and no benchmarked shape showed a fan-out paying
//! (DESIGN.md §10).
//!
//! The effective-MAC count (nonzero im2col entries × out channels) is
//! computed without the col matrix: a nonzero input appears in it once
//! per output row its row reaches times output column its column reaches.
//!
//! # Summation-order contract
//!
//! Every kernel in this module obeys one rule: **for each output element,
//! the k-dimension products are accumulated in ascending `k` order into a
//! single `f32` accumulator**, exactly as the textbook triple loop would.
//! Blocking is only allowed to reorder *which output element is visited
//! when*, never the per-element reduction sequence. Concretely:
//!
//! - the k-loop is panelled (`KC` at a time) but panels are visited in
//!   ascending order and each accumulates into the same output location,
//!   so the per-element chain `((init + a·b)₀ + a·b)₁ …` is the sequential
//!   ascending-k chain regardless of panel size;
//! - the microkernel keeps one scalar accumulator per output element of
//!   its `MR × NR` tile — there is no split/recombine of partial sums;
//! - the direct conv tile keeps one scalar accumulator per (lane, pixel)
//!   and visits the taps in ascending `(ic, ky, kx)` order, the im2col row
//!   order. No `mul_add`, no reassociation.
//!
//! Floating-point addition is not associative, so this contract is what
//! makes the blocked kernels **bit-identical** to the naive loop nests
//! (and therefore to the pre-blocking checksums pinned in
//! `BENCH_hotpaths.json`, and to the 1-vs-4-thread bit-identity contract
//! in `tests/par_equivalence.rs`). Two edge cases remain, shared by the
//! direct kernel and the im2col lowering before it. First, the naive conv
//! nest skips products whose input value is exactly `0.0`, while the
//! conv kernels include them (padding taps too). `acc + (±0.0 · w)` is
//! bitwise `acc` in all cases except `acc == -0.0` with addend `+0.0`;
//! since accumulators start from bias values and `x + y == -0.0` in
//! round-to-nearest requires both operands to be `-0.0`, a `-0.0`
//! accumulator cannot arise from the ascending-k chain unless the bias
//! itself is `-0.0` *and* all products so far were `-0.0`. Second, a
//! non-finite weight times an included zero is NaN where the naive nest
//! adds nothing. So the kernels match the oracle bit for bit whenever the
//! weights are finite and no bias is `-0.0`. The property tests in
//! `tests/kernel_equivalence.rs` and the `conv` target of `fuzz_lab`
//! check exactly that domain.

use crate::scratch::{with_worker_scratch, Scratch};
use evlab_util::{obs, par};

/// Microkernel tile rows (output rows per register tile).
pub const MR: usize = 4;
/// Microkernel tile columns (output columns per register tile).
pub const NR: usize = 8;
/// Rows of A packed per L2-resident block.
const MC: usize = 64;
/// k-depth packed per panel (L1-resident strips of A and B).
const KC: usize = 256;
/// Columns of B per outer block.
const NC: usize = 512;
/// Column width of one parallel macro-panel of C (an `NR` multiple). The
/// parallel grid is `ceil(m / MC) × ceil(n / NBAND)` rectangles — a
/// function of the problem shape only, never of the thread count.
pub const NBAND: usize = 64;
/// Minimum `m·n·k` before a GEMM fans out to the kernel pool; below this
/// the dispatch wakeup costs more than the multiply.
const PAR_MIN_MACS: usize = 1 << 17;
/// Minimum `col_rows · pixels` before the im2col lowering fans out.
const IM2COL_PAR_MIN: usize = 1 << 14;
/// Output-channel lanes per register tile of the direct conv forward.
const CONV_LANES: usize = 8;
/// Consecutive output pixels (along one output row) per direct-conv
/// register tile.
const CONV_PIXELS: usize = 4;

/// `c[m × n] += a[m × k] · b[k × n]` for row-major contiguous operands.
///
/// Accumulates into `c` (callers pre-initialize `c`, e.g. with bias values
/// or zeros). Scratch is used for the packed panels; in steady state the
/// call performs no heap allocation.
///
/// # Panics
///
/// Panics if a slice is shorter than its logical extent.
pub fn gemm_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    gemm_strided_into(m, n, k, a, k, 1, b, n, 1, c, scratch);
}

/// `c[m × n] += A · B` where A and B are read through explicit row/column
/// strides, so transposed operands need no materialization: `A[i, p] =
/// a[i * a_rs + p * a_cs]`, `B[p, j] = b[p * b_rs + j * b_cs]`. `c` is
/// row-major contiguous.
///
/// Obeys the module-level summation-order contract.
///
/// # Panics
///
/// Panics if a slice is shorter than its logical extent.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(c.len() >= m * n, "c too short for {m}x{n}");
    obs::counter_add("tensor.gemm.calls", 1);
    let col_bands = n.div_ceil(NBAND);
    let n_chunks = m.div_ceil(MC) * col_bands;
    if n_chunks > 1 && (m * n).saturating_mul(k) >= PAR_MIN_MACS {
        obs::counter_add("tensor.gemm.par_chunks", n_chunks as u64);
        let c_addr = c.as_mut_ptr() as usize;
        par::for_each_chunk(n_chunks, |chunk| {
            let ic0 = (chunk / col_bands) * MC;
            let jc0 = (chunk % col_bands) * NBAND;
            let mcw = MC.min(m - ic0);
            let ncw = NBAND.min(n - jc0);
            with_worker_scratch(|ws| {
                // SAFETY: the chunk rectangles `[ic0, ic0+mcw) ×
                // [jc0, jc0+ncw)` tile C disjointly (one rectangle per
                // chunk index) and `gemm_panel` writes only inside its
                // rectangle, so concurrent chunks never alias; the base
                // pointer stays valid because `c` is mutably borrowed for
                // the whole region.
                unsafe {
                    gemm_panel(
                        mcw,
                        ncw,
                        k,
                        a,
                        a_rs,
                        a_cs,
                        b,
                        b_rs,
                        b_cs,
                        c_addr as *mut f32,
                        n,
                        ic0,
                        jc0,
                        ws,
                    );
                }
            });
        });
        return;
    }
    obs::counter_add("tensor.gemm.serial_calls", 1);
    // SAFETY: the `&mut c` borrow gives exclusive access to the whole
    // `m × n` rectangle.
    unsafe {
        gemm_panel(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c.as_mut_ptr(), n, 0, 0, scratch);
    }
}

/// Runs the full blocked nest over the C rectangle
/// `[ic0, ic0 + mcw) × [jc0, jc0 + ncw)` of an `ldc`-strided row-major
/// output. The k loop always covers `0..k` in ascending `KC` panels, so
/// each output element's accumulation chain is the sequential ascending-k
/// chain regardless of how C was partitioned into rectangles — this is
/// what makes the parallel grid bit-identical to the serial nest.
///
/// # Safety
///
/// `c` must be valid for exclusive reads and writes at every offset
/// `(ic0 + i) * ldc + jc0 + j` with `i < mcw`, `j < ncw`, and `a`/`b`
/// must cover the strided extents implied by `(mcw + ic0, ncw + jc0, k)`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_panel(
    mcw: usize,
    ncw: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: *mut f32,
    ldc: usize,
    ic0: usize,
    jc0: usize,
    scratch: &mut Scratch,
) {
    // bp is taken first and put back last (LIFO against the arena), so the
    // capacity-fit pool re-pairs each request with the same buffer every
    // call — zero allocations once warm.
    let mut bp = scratch.take_buf(NC.min(ncw).div_ceil(NR) * NR * KC.min(k));
    let mut ap = scratch.take_buf(MC.min(mcw).div_ceil(MR) * MR * KC.min(k));
    for jc in (0..ncw).step_by(NC) {
        let nc = NC.min(ncw - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(kc, nc, b, b_rs, b_cs, pc, jc0 + jc, &mut bp);
            for ic in (0..mcw).step_by(MC) {
                let mc = MC.min(mcw - ic);
                pack_a(mc, kc, a, a_rs, a_cs, ic0 + ic, pc, &mut ap);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let b_strip = &bp[(jr / NR) * NR * kc..][..NR * kc];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let a_strip = &ap[(ir / MR) * MR * kc..][..MR * kc];
                        // SAFETY: the tile origin and its `mr × nr` extent
                        // stay inside this panel's rectangle, which the
                        // caller owns exclusively.
                        unsafe {
                            microkernel(
                                kc,
                                a_strip,
                                b_strip,
                                c.add((ic0 + ic + ir) * ldc + jc0 + jc + jr),
                                ldc,
                                mr,
                                nr,
                            );
                        }
                    }
                }
            }
        }
    }
    scratch.put_buf(ap);
    scratch.put_buf(bp);
}

/// Packs an `mc × kc` block of A into MR-wide column-major strips, zero
/// padding the tail strip so the microkernel always sees full MR rows.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    mc: usize,
    kc: usize,
    a: &[f32],
    rs: usize,
    cs: usize,
    row0: usize,
    col0: usize,
    ap: &mut [f32],
) {
    let mut w = 0;
    for ir in (0..mc).step_by(MR) {
        for p in 0..kc {
            for i in 0..MR {
                ap[w] = if ir + i < mc {
                    a[(row0 + ir + i) * rs + (col0 + p) * cs]
                } else {
                    0.0
                };
                w += 1;
            }
        }
    }
}

/// Packs a `kc × nc` block of B into NR-wide row-major strips, zero padding
/// the tail strip.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    kc: usize,
    nc: usize,
    b: &[f32],
    rs: usize,
    cs: usize,
    row0: usize,
    col0: usize,
    bp: &mut [f32],
) {
    let mut w = 0;
    for jr in (0..nc).step_by(NR) {
        for p in 0..kc {
            for j in 0..NR {
                bp[w] = if jr + j < nc {
                    b[(row0 + p) * rs + (col0 + jr + j) * cs]
                } else {
                    0.0
                };
                w += 1;
            }
        }
    }
}

/// The `MR × NR` register-tile microkernel: loads the live `mr × nr`
/// sub-tile of C, accumulates `kc` rank-1 updates in ascending k into the
/// per-element accumulators, and stores the live sub-tile back. Padded
/// lanes compute garbage that is never stored. C is addressed through a
/// raw tile-origin pointer so that concurrent macro-panels of one output
/// never materialize overlapping `&mut` slices.
///
/// # Safety
///
/// `c` must be valid for exclusive reads and writes at every offset
/// `i * ldc + j` with `i < mr`, `j < nr`.
unsafe fn microkernel(
    kc: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        for (j, v) in row.iter_mut().enumerate().take(nr) {
            // SAFETY: i < mr and j < nr, in the caller's guaranteed range.
            *v = unsafe { *c.add(i * ldc + j) };
        }
    }
    for (av, bv) in a_strip
        .chunks_exact(MR)
        .zip(b_strip.chunks_exact(NR))
        .take(kc)
    {
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        for (j, v) in row.iter().enumerate().take(nr) {
            // SAFETY: i < mr and j < nr, in the caller's guaranteed range.
            unsafe { *c.add(i * ldc + j) = *v };
        }
    }
}

/// Reference triple loop with the same summation-order contract: one
/// accumulator per output element, k ascending. Used by the equivalence
/// tests and the `gemm_naive` hotpaths workload; any bitwise divergence
/// from [`gemm_strided_into`] is a kernel bug.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc += a[i * a_rs + p * a_cs] * b[p * b_rs + j * b_cs];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `c[m] += a[m × k] · x[k]` (row-major A), with `c` pre-initialized by
/// the caller (e.g. to the bias). Per-row accumulation is the ascending-k
/// chain, bit-identical to the naive dot product; four rows are processed
/// together purely for instruction-level parallelism.
///
/// # Panics
///
/// Panics if a slice is shorter than its logical extent.
pub fn matvec_into(m: usize, k: usize, a: &[f32], x: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && x.len() >= k && c.len() >= m);
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &a[i * k..(i + 1) * k];
        let r1 = &a[(i + 1) * k..(i + 2) * k];
        let r2 = &a[(i + 2) * k..(i + 3) * k];
        let r3 = &a[(i + 3) * k..(i + 4) * k];
        let (mut a0, mut a1, mut a2, mut a3) = (c[i], c[i + 1], c[i + 2], c[i + 3]);
        for p in 0..k {
            let xv = x[p];
            a0 += r0[p] * xv;
            a1 += r1[p] * xv;
            a2 += r2[p] * xv;
            a3 += r3[p] * xv;
        }
        c[i] = a0;
        c[i + 1] = a1;
        c[i + 2] = a2;
        c[i + 3] = a3;
        i += 4;
    }
    while i < m {
        let row = &a[i * k..(i + 1) * k];
        let mut acc = c[i];
        for p in 0..k {
            acc += row[p] * x[p];
        }
        c[i] = acc;
        i += 1;
    }
}

/// Geometry of a 2-D convolution over a `[C, H, W]` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
}

impl ConvShape {
    /// Output `(height, width)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input or stride is 0.
    pub fn out_hw(&self) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.in_h + 2 * self.padding >= self.kernel
                && self.in_w + 2 * self.padding >= self.kernel,
            "kernel larger than padded input"
        );
        (
            (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1,
            (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }

    /// Rows of the im2col matrix: `C · K · K`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Output pixels per channel: `oh · ow`.
    pub fn out_pixels(&self) -> usize {
        let (oh, ow) = self.out_hw();
        oh * ow
    }
}

/// Fills one im2col row `t = (ic·K + ky)·K + kx` (all `pixels` output
/// positions for one kernel tap). Each row is an independent, disjoint
/// slice of the col matrix — the unit of parallelism in [`im2col`].
fn im2col_row(s: &ConvShape, x: &[f32], t: usize, row: &mut [f32]) {
    let (oh, ow) = s.out_hw();
    let (h, w, k, st) = (s.in_h, s.in_w, s.kernel, s.stride);
    let p_off = s.padding as isize;
    let (ic, rem) = (t / (k * k), t % (k * k));
    let (ky, kx) = (rem / k, rem % k);
    for oy in 0..oh {
        let iy = (oy * st) as isize + ky as isize - p_off;
        let out_row = &mut row[oy * ow..(oy + 1) * ow];
        if iy < 0 || iy >= h as isize {
            out_row.fill(0.0);
            continue;
        }
        let in_row = &x[(ic * h + iy as usize) * w..(ic * h + iy as usize + 1) * w];
        if st == 1 {
            // ix = ox + ix0 is contiguous: left pad, copy, right pad.
            let ix0 = kx as isize - p_off;
            let lo = (-ix0).clamp(0, ow as isize) as usize;
            let hi = (w as isize - ix0).clamp(0, ow as isize) as usize;
            out_row[..lo].fill(0.0);
            out_row[hi..].fill(0.0);
            if lo < hi {
                let src0 = (lo as isize + ix0) as usize;
                out_row[lo..hi].copy_from_slice(&in_row[src0..src0 + (hi - lo)]);
            }
        } else {
            for (ox, slot) in out_row.iter_mut().enumerate() {
                let ix = (ox * st) as isize + kx as isize - p_off;
                *slot = if ix < 0 || ix >= w as isize {
                    0.0
                } else {
                    in_row[ix as usize]
                };
            }
        }
    }
}

/// Expands `x` (`[C, H, W]`) into the im2col matrix `col[t, p]` with
/// `t = (ic·K + ky)·K + kx` and `p = oy·ow + ox`, zero-filling padded
/// taps — the operand of the backward's weight-gradient GEMM.
///
/// Large lowerings fan the `t` rows out over the kernel pool: each row is
/// a disjoint contiguous slice, invariant under the thread count.
fn im2col(s: &ConvShape, x: &[f32], col: &mut [f32]) {
    let pixels = s.out_pixels();
    let t_rows = s.col_rows();
    if t_rows * pixels < IM2COL_PAR_MIN {
        for (t, row) in col.chunks_exact_mut(pixels).enumerate().take(t_rows) {
            im2col_row(s, x, t, row);
        }
        return;
    }
    obs::counter_add("tensor.conv.im2col_chunks", t_rows as u64);
    let col_addr = col.as_mut_ptr() as usize;
    par::for_each_chunk(t_rows, |t| {
        // SAFETY: row `t` is the disjoint slice `col[t*pixels..(t+1)*pixels]`
        // (the caller sized `col` to `t_rows * pixels`), so concurrent
        // chunks never alias; the base pointer stays valid because `col` is
        // mutably borrowed for the whole region.
        let row = unsafe {
            std::slice::from_raw_parts_mut((col_addr as *mut f32).add(t * pixels), pixels)
        };
        im2col_row(s, x, t, row);
    });
}

/// Scatters `dcol[t, p]` back into the input gradient `gi` (`+=`), in
/// ascending `(t, p)` order.
fn col2im_accumulate(s: &ConvShape, dcol: &[f32], gi: &mut [f32]) {
    let (oh, ow) = s.out_hw();
    let (h, w, k, st) = (s.in_h, s.in_w, s.kernel, s.stride);
    let p_off = s.padding as isize;
    let mut t = 0;
    for ic in 0..s.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = &dcol[t * oh * ow..(t + 1) * oh * ow];
                for oy in 0..oh {
                    let iy = (oy * st) as isize + ky as isize - p_off;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * st) as isize + kx as isize - p_off;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        gi[(ic * h + iy as usize) * w + ix as usize] += row[oy * ow + ox];
                    }
                }
                t += 1;
            }
        }
    }
}

/// Output positions along one axis whose kernel window covers input index
/// `i`: the `o < n_out` with `o·stride ≤ i + pad < o·stride + k`. Needs
/// `n_out ≥ 1` and `stride ≥ 1`, which [`ConvShape::out_hw`] guarantees.
fn reach(i: usize, pad: usize, k: usize, stride: usize, n_out: usize) -> usize {
    let q = i + pad;
    let hi = (q / stride).min(n_out - 1);
    let lo = (q + 1).saturating_sub(k).div_ceil(stride);
    (hi + 1).saturating_sub(lo)
}

/// Geometry of one direct conv forward: the output extent and the
/// zero-padded input copy that the tile loop reads.
#[derive(Clone, Copy)]
struct DirectConv {
    s: ConvShape,
    oh: usize,
    ow: usize,
    /// Rows of one padded channel plane: `in_h + 2·padding`.
    xp_rows: usize,
    /// Columns of one padded row: the padded input width, widened so that
    /// the dead pixels of a partly live last pixel block read zeros.
    xp_cols: usize,
}

impl DirectConv {
    fn new(s: &ConvShape) -> Self {
        let (oh, ow) = s.out_hw();
        let block_cols = ow.div_ceil(CONV_PIXELS) * CONV_PIXELS;
        DirectConv {
            s: *s,
            oh,
            ow,
            xp_rows: s.in_h + 2 * s.padding,
            xp_cols: (s.in_w + 2 * s.padding).max((block_cols - 1) * s.stride + s.kernel),
        }
    }

    /// Copies `x` into `xp` (`[C, xp_rows, xp_cols]`, zero-filled by the
    /// arena) at offset `(padding, padding)` and returns `nnz` of the
    /// im2col matrix the GEMM lowering builds. That matrix holds input
    /// `(ic, iy, ix)` once per output row its row reaches times output
    /// column its column reaches, so the count is `Σ reach(iy)·reach(ix)`
    /// over the nonzero inputs. `reach_x` (`in_w` long) holds the column
    /// reaches, small integers that `f32` represents exactly.
    fn pad_input(&self, x: &[f32], xp: &mut [f32], reach_x: &mut [f32]) -> u64 {
        let s = &self.s;
        let (h, w, p) = (s.in_h, s.in_w, s.padding);
        for (ix, r) in reach_x.iter_mut().enumerate() {
            *r = reach(ix, p, s.kernel, s.stride, self.ow) as f32;
        }
        let mut nnz = 0u64;
        for ic in 0..s.in_channels {
            for iy in 0..h {
                let src = &x[(ic * h + iy) * w..][..w];
                let at = (ic * self.xp_rows + iy + p) * self.xp_cols + p;
                xp[at..at + w].copy_from_slice(src);
                let rows = reach(iy, p, s.kernel, s.stride, self.oh) as u64;
                if rows > 0 {
                    let cols: u64 = src
                        .iter()
                        .zip(reach_x.iter())
                        .filter(|(v, _)| **v != 0.0)
                        .map(|(_, &r)| r as u64)
                        .sum();
                    nnz += rows * cols;
                }
            }
        }
        nnz
    }

    /// Forms every output of lane block `lb` (channels `lb·CONV_LANES ..`)
    /// into `out` (`[O, oh, ow]`), one `CONV_LANES × CONV_PIXELS` register
    /// tile at a time. Each tile is seeded with the bias and takes
    /// `acc += w · x` for every tap `(ic, ky, kx)` in ascending order; only
    /// live lanes and pixels are stored.
    fn run_block(&self, xp: &[f32], wp: &[f32], bias: &[f32], lb: usize, out: &mut [f32]) {
        let s = &self.s;
        let st = s.stride;
        let t_rows = s.col_rows();
        let (taps, _) =
            wp[lb * t_rows * CONV_LANES..][..t_rows * CONV_LANES].as_chunks::<CONV_LANES>();
        let o0 = lb * CONV_LANES;
        let live = CONV_LANES.min(s.out_channels - o0);
        let mut seed = [0.0f32; CONV_LANES];
        seed[..live].copy_from_slice(&bias[o0..o0 + live]);
        let plane = self.xp_rows * self.xp_cols;
        for oy in 0..self.oh {
            for ox0 in (0..self.ow).step_by(CONV_PIXELS) {
                let mut acc = [seed; CONV_PIXELS];
                let origin = oy * st * self.xp_cols + ox0 * st;
                // Stride 1 (every `Conv2d`) gets its own copy of the tap
                // loop with the stride folded in as a constant.
                if st == 1 {
                    self.tile(&mut acc, xp, taps, origin, plane, 1);
                } else {
                    self.tile(&mut acc, xp, taps, origin, plane, st);
                }
                let px = CONV_PIXELS.min(self.ow - ox0);
                for (l, o) in (o0..o0 + live).enumerate() {
                    let row = &mut out[(o * self.oh + oy) * self.ow + ox0..][..px];
                    for (dst, lanes) in row.iter_mut().zip(&acc) {
                        *dst = lanes[l];
                    }
                }
            }
        }
    }

    /// Accumulates every tap `(ic, ky, kx)`, in ascending order, into one
    /// register tile whose top-left input is `xp[origin]`: pixel `j` of
    /// the tile reads `x = xp[origin + ic·plane + ky·xp_cols + kx +
    /// j·stride]` and each lane `l` takes `acc[j][l] += w[t][l] · x`.
    #[inline(always)]
    fn tile(
        &self,
        acc: &mut [[f32; CONV_LANES]; CONV_PIXELS],
        xp: &[f32],
        taps: &[[f32; CONV_LANES]],
        origin: usize,
        plane: usize,
        stride: usize,
    ) {
        let k = self.s.kernel;
        let span = (CONV_PIXELS - 1) * stride + k;
        for ic in 0..self.s.in_channels {
            for ky in 0..k {
                let wrow = &taps[(ic * k + ky) * k..][..k];
                let at = origin + ic * plane + ky * self.xp_cols;
                let xrow = &xp[at..at + span];
                // Window `kx` holds the inputs of tap `kx` for every pixel.
                for (win, wv) in xrow.windows((CONV_PIXELS - 1) * stride + 1).zip(wrow) {
                    let xs: [f32; CONV_PIXELS] = std::array::from_fn(|j| win[j * stride]);
                    for j in 0..CONV_PIXELS {
                        for l in 0..CONV_LANES {
                            acc[j][l] += wv[l] * xs[j];
                        }
                    }
                }
            }
        }
    }
}

/// Packs `w` (`[O, T]` row-major) into `[lane block][tap][lane]`; the
/// lanes past `O` of the last block keep the arena's zeros.
fn pack_conv_weights(s: &ConvShape, w: &[f32], wp: &mut [f32]) {
    let t_rows = s.col_rows();
    for o in 0..s.out_channels {
        let block = &mut wp[(o / CONV_LANES) * t_rows * CONV_LANES..][..t_rows * CONV_LANES];
        let lane = o % CONV_LANES;
        for (t, &v) in w[o * t_rows..(o + 1) * t_rows].iter().enumerate() {
            block[t * CONV_LANES + lane] = v;
        }
    }
}

/// Direct conv2d forward: `out[o, oy, ox] = bias[o] + Σ_(ic, ky, kx)
/// w[o, ic, ky, kx] · x_pad[ic, oy·s + ky, ox·s + kx]`, formed by
/// register tiles of 8 output channels × 4 output pixels, serially on the
/// caller's thread (module docs: chain order). Writes
/// the full `[O, oh, ow]` output into `out` (overwritten, not
/// accumulated) and returns the effective MAC count: the nonzero entries
/// of the im2col matrix times `out_channels`, the same zero-skipping
/// count the naive nest reports. The zero-padded input copy, the column
/// reaches and the packed weights come from `scratch`.
///
/// # Panics
///
/// Panics if any slice is shorter than its logical extent.
pub fn conv2d_forward(
    s: &ConvShape,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
    scratch: &mut Scratch,
) -> u64 {
    let t_rows = s.col_rows();
    let g = DirectConv::new(s);
    assert!(x.len() >= s.in_channels * s.in_h * s.in_w);
    assert!(w.len() >= s.out_channels * t_rows && bias.len() >= s.out_channels);
    assert!(out.len() >= s.out_channels * g.oh * g.ow);
    obs::counter_add("tensor.conv.forward", 1);
    let mut xp = scratch.take_buf(s.in_channels * g.xp_rows * g.xp_cols);
    let mut reach_x = scratch.take_buf(s.in_w);
    let nnz = g.pad_input(x, &mut xp, &mut reach_x);
    scratch.put_buf(reach_x);
    let lane_blocks = s.out_channels.div_ceil(CONV_LANES);
    let mut wp = scratch.take_buf(lane_blocks * t_rows * CONV_LANES);
    pack_conv_weights(s, w, &mut wp);
    for lb in 0..lane_blocks {
        g.run_block(&xp, &wp, bias, lb, out);
    }
    scratch.put_buf(wp);
    scratch.put_buf(xp);
    nnz * s.out_channels as u64
}

/// Reference conv2d forward: the pre-blocking naive loop nest
/// (`oc → oy → ox`, inner `ic → ky → kx`, zero-input taps skipped). Must
/// be bit-identical to [`conv2d_forward`]; kept as the equivalence-test
/// oracle and the `conv_fwd_naive` hotpaths baseline.
pub fn conv2d_forward_naive(
    s: &ConvShape,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) -> u64 {
    let (oh, ow) = s.out_hw();
    let (h, wid, k, st) = (s.in_h, s.in_w, s.kernel, s.stride);
    let p = s.padding as isize;
    let mut effective = 0u64;
    for oc in 0..s.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[oc];
                for ic in 0..s.in_channels {
                    for ky in 0..k {
                        let iy = (oy * st) as isize + ky as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * st) as isize + kx as isize - p;
                            if ix < 0 || ix >= wid as isize {
                                continue;
                            }
                            let xv = x[(ic * h + iy as usize) * wid + ix as usize];
                            if xv != 0.0 {
                                effective += 1;
                                let wv = w[((oc * s.in_channels + ic) * k + ky) * k + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    effective
}

/// Blocked conv2d backward. Accumulates (all `+=`):
///
/// - `gb[o] += Σ_p g[o, p]` — p ascending per output channel;
/// - `gw[o, t] += Σ_p g[o, p] · col[t, p]` — p ascending per element
///   (`G · Colᵀ` through [`gemm_strided_into`]);
/// - `gi += col2im(Wᵀ · G)` — each `dcol[t, p]` is the ascending-o chain
///   `Σ_o w[o, t] · g[o, p]`, scattered in ascending `(t, p)` order.
///
/// The grad-input order differs from the historical interleaved nest
/// (which looped `oc` outermost, interleaving `gi`/`gw` updates); the
/// spec above is the contract, and [`conv2d_backward_naive`] is its loop
/// oracle.
///
/// # Panics
///
/// Panics if any slice is shorter than its logical extent.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    s: &ConvShape,
    x: &[f32],
    w: &[f32],
    g: &[f32],
    gi: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
    scratch: &mut Scratch,
) {
    let t_rows = s.col_rows();
    let pixels = s.out_pixels();
    assert!(g.len() >= s.out_channels * pixels);
    assert!(gi.len() >= s.in_channels * s.in_h * s.in_w);
    assert!(gw.len() >= s.out_channels * t_rows && gb.len() >= s.out_channels);
    obs::counter_add("tensor.conv.backward", 1);
    let mut col = scratch.take_buf(t_rows * pixels);
    im2col(s, x, &mut col);
    for (o, grow) in g.chunks_exact(pixels).enumerate().take(s.out_channels) {
        let mut acc = gb[o];
        for &gv in grow {
            acc += gv;
        }
        gb[o] = acc;
    }
    // gw[O × T] += G[O × P] · Col[T × P]ᵀ: B element (p, t) = col[t·P + p].
    gemm_strided_into(
        s.out_channels,
        t_rows,
        pixels,
        g,
        pixels,
        1,
        &col,
        1,
        pixels,
        gw,
        scratch,
    );
    // dcol[T × P] = Wᵀ[T × O] · G[O × P]: A element (t, o) = w[o·T + t].
    let mut dcol = scratch.take_buf(t_rows * pixels);
    gemm_strided_into(
        t_rows,
        pixels,
        s.out_channels,
        w,
        1,
        t_rows,
        g,
        pixels,
        1,
        &mut dcol,
        scratch,
    );
    col2im_accumulate(s, &dcol, gi);
    scratch.put_buf(dcol);
    scratch.put_buf(col);
}

/// Loop oracle for [`conv2d_backward`]: implements the same gradient spec
/// (and summation orders) with plain nests and no scratch. Any bitwise
/// divergence from the blocked version is a kernel bug.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_naive(
    s: &ConvShape,
    x: &[f32],
    w: &[f32],
    g: &[f32],
    gi: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (oh, ow) = s.out_hw();
    let (h, wid, k, st) = (s.in_h, s.in_w, s.kernel, s.stride);
    let p_off = s.padding as isize;
    let pixels = oh * ow;
    let t_rows = s.col_rows();
    let col_at = |t: usize, p: usize| -> f32 {
        let (ic, rem) = (t / (k * k), t % (k * k));
        let (ky, kx) = (rem / k, rem % k);
        let (oy, ox) = (p / ow, p % ow);
        let iy = (oy * st) as isize + ky as isize - p_off;
        let ix = (ox * st) as isize + kx as isize - p_off;
        if iy < 0 || iy >= h as isize || ix < 0 || ix >= wid as isize {
            0.0
        } else {
            x[(ic * h + iy as usize) * wid + ix as usize]
        }
    };
    for o in 0..s.out_channels {
        let mut acc = gb[o];
        for p in 0..pixels {
            acc += g[o * pixels + p];
        }
        gb[o] = acc;
    }
    for o in 0..s.out_channels {
        for t in 0..t_rows {
            let mut acc = gw[o * t_rows + t];
            for p in 0..pixels {
                acc += g[o * pixels + p] * col_at(t, p);
            }
            gw[o * t_rows + t] = acc;
        }
    }
    for t in 0..t_rows {
        let (ic, rem) = (t / (k * k), t % (k * k));
        let (ky, kx) = (rem / k, rem % k);
        for p in 0..pixels {
            let (oy, ox) = (p / ow, p % ow);
            let iy = (oy * st) as isize + ky as isize - p_off;
            let ix = (ox * st) as isize + kx as isize - p_off;
            if iy < 0 || iy >= h as isize || ix < 0 || ix >= wid as isize {
                continue;
            }
            let mut d = 0.0f32;
            for o in 0..s.out_channels {
                d += w[o * t_rows + t] * g[o * pixels + p];
            }
            gi[(ic * h + iy as usize) * wid + ix as usize] += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_util::Rng64;

    fn rand_vec(rng: &mut Rng64, n: usize, zero_frac: f64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if rng.next_f64() < zero_frac {
                    0.0
                } else {
                    (rng.next_f64() * 2.0 - 1.0) as f32
                }
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive_bits_across_blocking_edges() {
        let mut rng = Rng64::seed_from_u64(11);
        let mut scratch = Scratch::new();
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 7, 5),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 3),
            (MC + 2, 2 * NR + 3, 17),
            (16, 300, 72),
        ] {
            let a = rand_vec(&mut rng, m * k, 0.2);
            let b = rand_vec(&mut rng, k * n, 0.2);
            let init = rand_vec(&mut rng, m * n, 0.0);
            let mut c_blocked = init.clone();
            let mut c_naive = init;
            gemm_into(m, n, k, &a, &b, &mut c_blocked, &mut scratch);
            gemm_naive_into(m, n, k, &a, k, 1, &b, n, 1, &mut c_naive);
            for (i, (x, y)) in c_blocked.iter().zip(&c_naive).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m},{n},{k}) element {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn strided_gemm_reads_transposed_operands() {
        let mut rng = Rng64::seed_from_u64(12);
        let mut scratch = Scratch::new();
        let (m, n, k) = (5, 9, 6);
        // A stored transposed (k × m), B stored transposed (n × k).
        let at = rand_vec(&mut rng, k * m, 0.0);
        let bt = rand_vec(&mut rng, n * k, 0.0);
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        gemm_strided_into(m, n, k, &at, 1, m, &bt, 1, k, &mut c, &mut scratch);
        gemm_naive_into(m, n, k, &at, 1, m, &bt, 1, k, &mut c_ref);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn matvec_matches_scalar_loop_bits() {
        let mut rng = Rng64::seed_from_u64(13);
        for &(m, k) in &[(1, 1), (4, 8), (7, 13), (64, 1024)] {
            let a = rand_vec(&mut rng, m * k, 0.1);
            let x = rand_vec(&mut rng, k, 0.3);
            let bias = rand_vec(&mut rng, m, 0.0);
            let mut c = bias.clone();
            matvec_into(m, k, &a, &x, &mut c);
            for i in 0..m {
                let mut acc = bias[i];
                for p in 0..k {
                    acc += a[i * k + p] * x[p];
                }
                assert_eq!(c[i].to_bits(), acc.to_bits(), "row {i} of ({m},{k})");
            }
        }
    }

    #[test]
    fn conv_shape_geometry() {
        let s = ConvShape {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 9,
            in_w: 11,
        };
        assert_eq!(s.out_hw(), (5, 6));
        assert_eq!(s.col_rows(), 27);
        assert_eq!(s.out_pixels(), 30);
    }

    #[test]
    fn forward_effective_macs_match_naive_zero_skip_count() {
        let mut rng = Rng64::seed_from_u64(14);
        let s = ConvShape {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 6,
            in_w: 5,
        };
        let x = rand_vec(&mut rng, s.in_channels * s.in_h * s.in_w, 0.5);
        let w = rand_vec(&mut rng, s.out_channels * s.col_rows(), 0.0);
        let b = rand_vec(&mut rng, s.out_channels, 0.0);
        let mut scratch = Scratch::new();
        let mut out = vec![0.0; s.out_channels * s.out_pixels()];
        let mut out_ref = vec![0.0; s.out_channels * s.out_pixels()];
        let eff = conv2d_forward(&s, &x, &w, &b, &mut out, &mut scratch);
        let eff_ref = conv2d_forward_naive(&s, &x, &w, &b, &mut out_ref);
        assert_eq!(eff, eff_ref);
    }
}
