//! Host diagnostics and the host-speed reference.
//!
//! Steal share and the memory-latency probe are diagnostics: reported
//! beside the metrics, never scaling one. The compute [`Reference`] is
//! what the timed end-to-end metrics are normalised by.

use std::time::Instant;

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total: u64 = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Share of CPU time stolen by the hypervisor between two samples, in %.
pub fn steal_pct(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed memory-latency probe: a dependent pointer chase through a
/// random cyclic permutation of cache lines, twice the per-core L2 of the
/// reference host. Kept small because it counts in `peak_rss_mb`.
pub struct Probe {
    next: Vec<u64>,
    at: usize,
}

const LINE_WORDS: usize = 8;
const PROBE_BYTES: usize = 4 << 20;
const PROBE_LOADS: usize = 20_000;

impl Probe {
    pub fn new(seed: u64) -> Self {
        let lines = PROBE_BYTES / (LINE_WORDS * 8);
        let mut order: Vec<usize> = (0..lines).collect();
        let mut rng = evlab_util::Rng64::seed_from_u64(seed);
        // Sattolo's shuffle: one cycle through every line.
        for i in (1..lines).rev() {
            let j = rng.next_below(i as u64) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u64; lines * LINE_WORDS];
        for i in 0..lines {
            next[order[i] * LINE_WORDS] = (order[(i + 1) % lines] * LINE_WORDS) as u64;
        }
        Probe { next, at: 0 }
    }

    /// Mean latency of one dependent load, in ns.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..PROBE_LOADS {
            at = self.next[at] as usize;
        }
        self.at = std::hint::black_box(at);
        start.elapsed().as_nanos() as f64 / PROBE_LOADS as f64
    }
}

/// Side of the reference matrices.
const REF_N: usize = 48;
/// Matrix products per timed sample.
const REF_REPS: usize = 8;
/// Median time of one [`Reference::sample`] on the reference host at its
/// common (slower) speed. It only sets the scale of reference time: at a
/// scale of 1 the host ran at that speed.
pub const REF_NOMINAL_NS: f64 = 150_000.0;

/// Fixed compute kernel that tracks host speed: a 48×48×48 `f32` matrix
/// product, repeated, written in the benchmark so that no change to the
/// program can move it.
///
/// On the reference host, per-run speed moves by up to 1.5× while the
/// classifiers' CPU time stays equal to their wall time (no preemption):
/// the CPU itself runs slower. Over one-second windows the time of this
/// kernel correlated with SNN, CNN and GNN time per event at r ≈ 0.87,
/// 0.84 and 0.74, against r ≈ 0.3 for the memory probe. Each paradigm's
/// busy clock runs in reference time: wall time times the scale measured
/// right before the slice.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        let fill = |k: usize| -> Vec<f32> {
            (0..REF_N * REF_N)
                .map(|i| ((i * k) % 17) as f32 / 16.0 - 0.5)
                .collect()
        };
        Reference {
            a: fill(5),
            b: fill(11),
            c: vec![0.0; REF_N * REF_N],
        }
    }
}

impl Reference {
    fn product(&mut self) {
        let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
        for (row, arow) in self.c.chunks_exact_mut(REF_N).zip(a.chunks_exact(REF_N)) {
            row.fill(0.0);
            for (&x, brow) in arow.iter().zip(b.chunks_exact(REF_N)) {
                for (c, &y) in row.iter_mut().zip(brow) {
                    *c += x * y;
                }
            }
        }
        std::hint::black_box(&mut self.c);
    }

    /// Time of `REF_REPS` products, in ns.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REF_REPS {
            self.product();
        }
        t.elapsed().as_nanos() as f64
    }

    /// Reference ns per wall ns right now: the median of three samples
    /// against [`REF_NOMINAL_NS`].
    pub fn scale(&mut self) -> f64 {
        let mut s = [self.sample(), self.sample(), self.sample()];
        s.sort_by(f64::total_cmp);
        REF_NOMINAL_NS / s[1]
    }
}

