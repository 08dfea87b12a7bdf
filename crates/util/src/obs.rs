//! Zero-dependency pipeline observability: named counters, wall-clock
//! span timers and fixed-bucket histograms behind one global, thread-safe
//! registry.
//!
//! The paper's Table I compares *measured* quantities — event rates,
//! sparsity, operation counts, latency — but without instrumentation those
//! numbers are only visible at the very end of a run. This module lets
//! every pipeline stage record what it actually did (events emitted,
//! frames encoded, spikes fired, graph nodes built, serial fallbacks
//! taken) so a run can be audited stage by stage.
//!
//! # Cost model
//!
//! Observability is off by default. It turns on when the `EVLAB_OBS`
//! environment variable is set to anything but `0`/empty, or when a
//! harness calls [`set_enabled`]`(true)` (the `--metrics` flag does this).
//! While off, every recording call is a single relaxed atomic load and a
//! branch — hot paths pay essentially nothing. While on, counter updates
//! take a registry mutex, so instrumented code batches its increments
//! (one `counter_add` per stage invocation, never per event).
//!
//! # Naming scheme
//!
//! Counter and span names follow `crate.stage.metric`, e.g.
//! `sensor.camera.events`, `cnn.encode.voxel-grid.nonzero_cells`,
//! `gnn.serial_fallback`. Names are plain strings: stages that exist in
//! several flavours (the frame encoders) interpolate their flavour into
//! the name.
//!
//! # Testing
//!
//! The enabled flag and the registry are process-global, and the tests
//! of one binary run concurrently. A test that counts therefore turns obs
//! on, asserts deltas of its counters rather than absolute values, and
//! never turns obs off: that would silence another test's counting
//! midway. The toggle test in this module is the one exception: it holds
//! a lock that every test here relying on the flag also takes.
//!
//! # Examples
//!
//! ```
//! use evlab_util::obs;
//!
//! obs::set_enabled(true);
//! obs::counter_add("doc.example.events", 128);
//! {
//!     let _span = obs::span("doc.example.work");
//!     // ... timed region ...
//! }
//! assert!(obs::counter_value("doc.example.events") >= 128);
//! let json = obs::snapshot_json();
//! assert!(json.get("counters").is_some());
//! ```

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Instant;

/// Locks a registry mutex, tolerating poisoning: the registries hold
/// plain data that stays structurally valid if a recording thread
/// panicked, and losing metrics to a poisoned lock would hide exactly
/// the failure observability exists to surface.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Environment variable that switches observability on (`EVLAB_OBS=1`).
pub const ENV_TOGGLE: &str = "EVLAB_OBS";

/// Number of fixed histogram buckets; see [`bucket_index`] for the
/// boundaries.
pub const HIST_BUCKETS: usize = 32;

static INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently on. The first call reads
/// [`ENV_TOGGLE`]; afterwards this is one relaxed atomic load — the only
/// cost instrumented hot paths pay while the layer is off.
#[inline]
pub fn enabled() -> bool {
    INIT.call_once(|| {
        let on = std::env::var(ENV_TOGGLE)
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false);
        ENABLED.store(on, Ordering::Relaxed);
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically switches observability on or off, overriding the
/// environment toggle. Used by `--metrics` flags and tests.
pub fn set_enabled(on: bool) {
    enabled(); // settle the env-derived initial state first
    ENABLED.store(on, Ordering::Relaxed);
}

/// One span-duration histogram: fixed power-of-two buckets over
/// microseconds plus running count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all durations in microseconds.
    pub total_us: f64,
    /// Shortest recorded duration in microseconds.
    pub min_us: f64,
    /// Longest recorded duration in microseconds.
    pub max_us: f64,
    /// `buckets[0]` counts durations under 1 µs; `buckets[i]` counts
    /// durations in `[2^(i-1), 2^i)` µs; the last bucket absorbs the tail.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    fn new() -> Self {
        HistSnapshot {
            count: 0,
            total_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn record(&mut self, us: f64) {
        let us = us.max(0.0);
        self.count += 1;
        self.total_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.buckets[bucket_index(us)] += 1;
    }

    /// Mean duration in microseconds (0 for an empty histogram).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// Bucket index for a duration: 0 for under 1 µs, otherwise
/// `floor(log2(us)) + 1`, clamped to the last bucket. The boundaries are
/// exact powers of two: bucket `i ≥ 1` covers `[2^(i-1), 2^i)` µs, so the
/// last in-range bucket starts at `2^(HIST_BUCKETS-2)` µs (≈ 18 min).
/// Durations past that are clamped into the last bucket; the clamp is
/// **not silent** — [`record_duration_us`] counts every clamped duration
/// in the `obs.span_overflow` counter, since a histogram whose top bucket
/// quietly absorbs hour-long stalls would hide exactly the tail latencies
/// worth alarming on.
pub fn bucket_index(us: f64) -> usize {
    let whole = us as u64;
    match whole.checked_ilog2() {
        None => 0,
        Some(l) => ((l + 1) as usize).min(HIST_BUCKETS - 1),
    }
}

/// Whether [`bucket_index`] had to clamp: true for durations at or past
/// `2^(HIST_BUCKETS-1)` µs, whose natural index would fall outside the
/// fixed bucket array.
fn bucket_overflows(us: f64) -> bool {
    (us as u64)
        .checked_ilog2()
        .is_some_and(|l| (l + 1) as usize > HIST_BUCKETS - 1)
}

struct Registry {
    counters: Mutex<Vec<(String, AtomicU64)>>,
    hists: Mutex<Vec<(String, HistSnapshot)>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        hists: Mutex::new(Vec::new()),
    })
}

/// Adds `delta` to the named counter, creating it at zero first if it does
/// not exist yet. No-op while observability is off.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut counters = lock_unpoisoned(&registry().counters);
    match counters.iter().find(|(n, _)| n == name) {
        Some((_, c)) => {
            c.fetch_add(delta, Ordering::Relaxed);
        }
        None => counters.push((name.to_string(), AtomicU64::new(delta))),
    }
}

/// Current value of a counter (0 if it was never touched).
pub fn counter_value(name: &str) -> u64 {
    let counters = lock_unpoisoned(&registry().counters);
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// All counters, sorted by name.
pub fn counters() -> Vec<(String, u64)> {
    let counters = lock_unpoisoned(&registry().counters);
    let mut out: Vec<(String, u64)> = counters
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

/// Records one duration (in microseconds) into the named histogram.
/// A duration too long for the fixed bucket range lands in the top
/// bucket *and* increments `obs.span_overflow`, so clamping is always
/// visible. No-op while observability is off.
pub fn record_duration_us(name: &str, us: f64) {
    if !enabled() {
        return;
    }
    {
        let mut hists = lock_unpoisoned(&registry().hists);
        match hists.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.record(us),
            None => {
                let mut h = HistSnapshot::new();
                h.record(us);
                hists.push((name.to_string(), h));
            }
        }
    }
    // Outside the hists lock: counter_add takes the counter lock and the
    // two registries must never nest.
    if bucket_overflows(us) {
        counter_add("obs.span_overflow", 1);
    }
}

/// All span histograms, sorted by name.
pub fn spans() -> Vec<(String, HistSnapshot)> {
    let hists = lock_unpoisoned(&registry().hists);
    let mut out: Vec<(String, HistSnapshot)> = hists.to_vec();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A wall-clock span: started by [`span`], it records its elapsed time
/// into the named histogram when dropped. While observability is off the
/// guard holds nothing and drop is free.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    armed: Option<(String, Instant)>,
}

impl Span {
    /// Ends the span now instead of at scope exit.
    pub fn finish(mut self) {
        self.record_now();
    }

    fn record_now(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            record_duration_us(&name, start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_now();
    }
}

/// Starts a wall-clock span over the named histogram.
pub fn span(name: &str) -> Span {
    Span {
        armed: enabled().then(|| (name.to_string(), Instant::now())),
    }
}

/// Clears every counter and histogram. Intended for tests and
/// long-running harnesses that emit periodic deltas.
pub fn reset() {
    lock_unpoisoned(&registry().counters).clear();
    lock_unpoisoned(&registry().hists).clear();
}

/// Serializes the registry as a JSON document:
///
/// ```json
/// {
///   "enabled": true,
///   "counters": { "sensor.camera.events": 12345, ... },
///   "spans": {
///     "gnn.build.kdtree": {
///       "count": 4, "total_us": 1234.5, "min_us": 200.1, "max_us": 400.9,
///       "buckets": [0, 0, 1, 3, ...]
///     }
///   }
/// }
/// ```
///
/// Keys in both maps are sorted, and `buckets[i]` counts durations in
/// `[2^(i-1), 2^i)` microseconds (`buckets[0]`: under 1 µs).
pub fn snapshot_json() -> Json {
    let counter_pairs: Vec<(String, Json)> = counters()
        .into_iter()
        .map(|(n, v)| (n, Json::from(v)))
        .collect();
    let span_pairs: Vec<(String, Json)> = spans()
        .into_iter()
        .map(|(n, h)| {
            let min = if h.count == 0 { 0.0 } else { h.min_us };
            (
                n,
                Json::obj([
                    ("count", Json::from(h.count)),
                    ("total_us", Json::from(h.total_us)),
                    ("min_us", Json::from(min)),
                    ("max_us", Json::from(h.max_us)),
                    (
                        "buckets",
                        Json::arr(h.buckets.iter().map(|&b| Json::from(b))),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("enabled", Json::from(enabled())),
        ("counters", Json::Obj(counter_pairs)),
        ("spans", Json::Obj(span_pairs)),
    ])
}

/// Writes [`snapshot_json`] to `path` atomically (temp file + rename), so
/// a crash mid-write can never leave a truncated artifact behind.
///
/// # Errors
///
/// Returns [`crate::EvlabError::Io`] if the write or rename fails; the
/// temp file does not survive the failure.
pub fn write_metrics(path: impl AsRef<std::path::Path>) -> Result<(), crate::EvlabError> {
    crate::json::write_atomic(path, &(snapshot_json().to_string_pretty() + "\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so every
    // test uses its own counter names and asserts deltas, never absolutes.
    // Tests that depend on the enabled flag staying put additionally hold
    // TOGGLE_LOCK, because `disabled_counter_add_is_a_no_op` flips the
    // global toggle off for a moment.
    static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_accumulate_when_enabled() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        let before = counter_value("obs.test.accumulate");
        counter_add("obs.test.accumulate", 3);
        counter_add("obs.test.accumulate", 4);
        assert_eq!(counter_value("obs.test.accumulate") - before, 7);
    }

    #[test]
    fn disabled_counter_add_is_a_no_op() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        counter_add("obs.test.gated", 1); // ensure the counter exists
        let before = counter_value("obs.test.gated");
        set_enabled(false);
        counter_add("obs.test.gated", 100);
        set_enabled(true);
        assert_eq!(counter_value("obs.test.gated"), before);
    }

    #[test]
    fn unknown_counter_reads_zero() {
        assert_eq!(counter_value("obs.test.never_touched"), 0);
    }

    #[test]
    fn spans_record_into_histograms() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        {
            let _s = span("obs.test.span");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        let hist = spans()
            .into_iter()
            .find(|(n, _)| n == "obs.test.span")
            .map(|(_, h)| h)
            .expect("span recorded");
        assert!(hist.count >= 1);
        assert!(hist.total_us > 0.0);
        assert!(hist.max_us >= hist.min_us);
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn span_finish_records_early() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        let s = span("obs.test.finish");
        s.finish();
        let count = spans()
            .into_iter()
            .find(|(n, _)| n == "obs.test.finish")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        assert!(count >= 1);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.9), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.9), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(3.9), 2);
        assert_eq!(bucket_index(4.0), 3);
        assert_eq!(bucket_index(1e30), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_is_exact_at_every_power_of_two_boundary() {
        // Bucket i ≥ 1 covers [2^(i-1), 2^i): at each boundary the index
        // must step up exactly, and one ulp below it must not.
        for i in 1..HIST_BUCKETS - 1 {
            let lo = (1u64 << (i - 1)) as f64;
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(2.0 * lo - 1.0), i, "upper interior of bucket {i}");
            assert_eq!(bucket_index(2.0 * lo), i + 1, "next boundary leaves bucket {i}");
        }
        // The last bucket's lower edge is in range without clamping...
        let top = (1u64 << (HIST_BUCKETS - 2)) as f64;
        assert_eq!(bucket_index(top), HIST_BUCKETS - 1);
        assert!(!bucket_overflows(top));
        assert!(!bucket_overflows(2.0 * top - 1.0));
        // ...and exactly one past its span, the clamp (= overflow) begins.
        assert!(bucket_overflows(2.0 * top));
        assert_eq!(bucket_index(2.0 * top), HIST_BUCKETS - 1);
        assert!(bucket_overflows(1e30));
    }

    #[test]
    fn span_overflow_counter_tracks_clamped_durations() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        let before = counter_value("obs.span_overflow");
        // In range: the longest duration the histogram can place exactly.
        record_duration_us("obs.test.overflow", ((1u64 << 31) - 1) as f64);
        assert_eq!(counter_value("obs.span_overflow"), before, "in-range clamped");
        // Past the top bucket: clamped AND counted.
        record_duration_us("obs.test.overflow", (1u64 << 31) as f64);
        record_duration_us("obs.test.overflow", 1e30);
        assert_eq!(counter_value("obs.span_overflow"), before + 2);
        let hist = spans()
            .into_iter()
            .find(|(n, _)| n == "obs.test.overflow")
            .map(|(_, h)| h)
            .expect("histogram recorded");
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count, "no duration lost");
    }

    #[test]
    fn snapshot_round_trips_through_the_json_parser() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        counter_add("obs.test.snapshot", 42);
        record_duration_us("obs.test.snapshot_span", 12.5);
        let doc = snapshot_json();
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).expect("snapshot parses");
        assert!(
            back.get("counters")
                .and_then(|c| c.get("obs.test.snapshot"))
                .and_then(Json::as_u64)
                .expect("counter present")
                >= 42
        );
        let span = back
            .get("spans")
            .and_then(|s| s.get("obs.test.snapshot_span"))
            .expect("span present");
        assert!(span.get("count").and_then(Json::as_u64).expect("count") >= 1);
        assert_eq!(
            span.get("buckets").and_then(Json::as_array).map(|b| b.len()),
            Some(HIST_BUCKETS)
        );
    }

    #[test]
    fn write_metrics_emits_parseable_file() {
        let _guard = TOGGLE_LOCK.lock().expect("toggle lock");
        set_enabled(true);
        counter_add("obs.test.file", 1);
        let path = std::env::temp_dir().join(format!(
            "evlab_obs_test_{}.json",
            std::process::id()
        ));
        write_metrics(&path).expect("write metrics");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let doc = Json::parse(&text).expect("file parses");
        assert!(doc.get("counters").is_some());
    }
}
