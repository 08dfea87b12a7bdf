//! Fixed log-bucket latency histogram.
//!
//! Values are non-negative integers (nanoseconds here). Each power of two
//! is split into [`SUB`] linear sub-buckets, so a bucket is at most
//! `1/SUB` of its lower bound wide; reporting the bucket midpoint bounds
//! the relative error of any percentile by `1 / (2 * SUB)` (0.78 %).
//! Memory is fixed (a few KiB) however many samples are recorded, so the
//! benchmark's own state does not grow with run length.

const SUB_BITS: u32 = 6;
/// Linear sub-buckets per power of two.
pub const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB; // in [0, SUB)
    ((shift as u64 + 1) * SUB + mantissa) as usize
}

/// `[lo, hi)` of a bucket.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, b + 1);
    }
    let shift = b / SUB - 1;
    let mantissa = b % SUB;
    let lo = (SUB + mantissa) << shift;
    (lo, lo + (1 << shift))
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (`0 <= q <= 1`) under the nearest-rank definition:
    /// the value of rank `ceil(q * n)`, reported as its bucket's midpoint.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(b);
                return Some(if hi - lo == 1 {
                    lo as f64
                } else {
                    (lo + hi) as f64 / 2.0
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest relative error of a reported percentile.
    const MAX_REL_ERR: f64 = 1.0 / (2 * SUB) as f64;

    /// Nearest-rank quantile of a sorted sample: the reference the
    /// histogram approximates.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_integers() {
        let mut prev_hi = 0;
        for b in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_range(b);
            assert_eq!(lo, prev_hi, "bucket {b} leaves a gap");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            prev_hi = hi;
        }
    }

    #[test]
    fn percentiles_match_exact_quantiles_within_one_percent() {
        // Log-uniform samples over 50 ns .. 50 ms, the span TTDs cover.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 7, 100, 10_000, 200_000] {
            let mut h = LogHist::new();
            let mut xs: Vec<u64> = (0..n)
                .map(|_| {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    (50.0 * (1e6f64).powf(u)) as u64
                })
                .collect();
            for &x in &xs {
                h.record(x);
            }
            xs.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let want = exact(&xs, q) as f64;
                let got = h.quantile(q).expect("non-empty");
                let rel = (got - want).abs() / want.max(1.0);
                assert!(
                    rel <= MAX_REL_ERR + 1e-12,
                    "n={n} q={q}: hist {got} vs exact {want} ({rel:.4})"
                );
            }
        }
    }

    #[test]
    fn empty_and_merged() {
        let mut a = LogHist::new();
        assert!(a.quantile(0.5).is_none());
        let mut b = LogHist::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(0.5), Some(10.0));
    }
}
