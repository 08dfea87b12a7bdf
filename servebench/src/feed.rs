//! Seeded workload input: rendered recordings, pre-encoded AER words and
//! the per-session feeds that cycle through them.
//!
//! A run never materialises its whole input. Each session plays a
//! playlist of short recordings back to back; cycle `c` of a session
//! replays a recording with every timestamp shifted by `c * REC_US`. The
//! words are AER-encoded once, with timestamps relative to the recording
//! start, and the shift is one add on the word's timestamp field.

use evlab_datasets::shapes::shape_silhouettes;
use evlab_datasets::DatasetConfig;
use evlab_events::aer::AerCodec;
use evlab_events::Event;
use evlab_sensor::scene::EgomotionPan;
use evlab_sensor::{CameraConfig, EventCamera, PixelConfig};
use evlab_util::Rng64;

/// Sensor resolution of every recording (the Table I resolution).
pub const RES: (u16, u16) = (32, 32);
/// Length of one recording in sensor time: `DatasetConfig::new`'s
/// sample duration, so shape recordings come from the Table I generator
/// unchanged (sensor jitter puts a few events just past it).
pub const REC_US: u64 = 30_000;
/// Sensor time between the starts of consecutive recordings of a feed: a
/// recording plus a 1 ms quiet gap. A multiple of every tick span.
pub const PERIOD_US: u64 = 31_000;
/// Classes of the shape-silhouette dataset; its test split is stored
/// class-major.
pub const SHAPE_CLASSES: usize = 4;
/// Bit offset of the timestamp field in an AER word.
const TS_SHIFT: u32 = 32;
/// Pan speed (px/µs) and texture feature size (px) of the `EgomotionPan`
/// recordings: about four times the event rate of a shape recording.
const PAN_VELOCITY: f64 = 0.00054;
const PAN_FEATURE_PX: f64 = 3.0;

/// Timestamp (µs) carried by an AER word.
#[inline]
pub fn word_t(word: u64) -> u64 {
    word >> TS_SHIFT
}

/// One pre-encoded recording.
pub struct Recording {
    /// AER words in arrival order; timestamps relative to the recording
    /// start (jittered when the workload asks for it).
    pub words: Vec<u64>,
    /// Word index at which each tick starts; `ticks + 1` entries. Ticks
    /// split the recording by *nominal* (pre-jitter) sensor time.
    pub tick_starts: Vec<u32>,
}

impl Recording {
    fn encode(events: &[Event], tick_us: u64, jitter_us: u64, rng: &mut Rng64) -> Self {
        let codec = AerCodec::new(RES);
        let ticks = PERIOD_US.div_ceil(tick_us) as usize;
        let mut tick_starts = Vec::with_capacity(ticks + 1);
        let mut words = Vec::with_capacity(events.len());
        for e in events {
            let t = e.t.as_micros();
            assert!(t < PERIOD_US, "recording longer than {PERIOD_US} µs: {t}");
            while tick_starts.len() <= (t / tick_us) as usize {
                tick_starts.push(words.len() as u32);
            }
            let jitter = if jitter_us > 0 {
                rng.next_below(jitter_us + 1)
            } else {
                0
            };
            words.push(codec.encode(&Event::new(t + jitter, e.x, e.y, e.polarity)));
        }
        tick_starts.resize(ticks + 1, words.len() as u32);
        Recording { words, tick_starts }
    }

    pub fn ticks(&self) -> usize {
        self.tick_starts.len() - 1
    }
}

/// Held-out shape-silhouette recordings rendered from `seed` through the
/// simulated camera by the Table I generator (`per_class` per class).
pub fn shape_recordings(
    seed: u64,
    per_class: usize,
    tick_us: u64,
    jitter_us: u64,
) -> Vec<Recording> {
    let data = shape_silhouettes(
        &DatasetConfig::new(RES)
            .with_split(0, per_class)
            .with_seed(seed ^ 0x5EB0_0C4E),
    );
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0011_77E5);
    data.test
        .iter()
        .map(|s| Recording::encode(s.stream.as_slice(), tick_us, jitter_us, &mut rng))
        .collect()
}

/// Camera egomotion over random texture, rendered from `seed`.
pub fn pan_recordings(seed: u64, n: usize, tick_us: u64, jitter_us: u64) -> Vec<Recording> {
    let camera = EventCamera::new(
        CameraConfig::new(RES)
            .with_pixel(PixelConfig::new())
            .with_sample_period_us(250),
    );
    let mut rng = Rng64::seed_from_u64(seed ^ 0x9A4_7E11);
    (0..n)
        .map(|_| {
            let scene = EgomotionPan::new(PAN_VELOCITY, PAN_FEATURE_PX, rng.next_u64());
            let stream = camera.record(&scene, 0, REC_US, rng.next_u64());
            Recording::encode(stream.as_slice(), tick_us, jitter_us, &mut rng)
        })
        .collect()
}

/// Cycles one session through its playlist of recordings.
#[derive(Clone)]
pub struct Feed {
    /// Which library the playlist indexes (see `Workload`).
    pub library: usize,
    playlist: Vec<u32>,
    cycle: u64,
    tick: usize,
    pos: usize,
}

impl Feed {
    /// A feed over `classes * per_class` recordings stored class-major.
    /// The playlist visits the classes in a fixed rotation starting at
    /// `phase`, and the seed picks the order of instances within each
    /// class: every seed sees the same class mix at every point of the
    /// run, so a run's figures do not hinge on which classes it drew.
    pub fn new(
        library: usize,
        classes: usize,
        per_class: usize,
        phase: usize,
        rng: &mut Rng64,
    ) -> Self {
        let orders: Vec<Vec<u32>> = (0..classes)
            .map(|c| {
                let mut o: Vec<u32> = (0..per_class).map(|i| (c * per_class + i) as u32).collect();
                rng.shuffle(&mut o);
                o
            })
            .collect();
        let playlist = (0..classes * per_class)
            .map(|j| orders[(phase + j) % classes][j / classes])
            .collect();
        Feed {
            library,
            playlist,
            cycle: 0,
            tick: 0,
            pos: 0,
        }
    }

    fn current<'a>(&self, lib: &'a [Recording]) -> &'a Recording {
        &lib[self.playlist[(self.cycle % self.playlist.len() as u64) as usize] as usize]
    }

    fn shift(&self) -> u64 {
        let offset = self.cycle * PERIOD_US;
        // The AER timestamp field is 32 bits wide (about 71 minutes); a run
        // serves minutes of sensor time at most.
        assert!(
            offset + 2 * PERIOD_US < 1 << 32,
            "sensor time exceeds the AER timestamp field"
        );
        offset << TS_SHIFT
    }

    /// Appends the next tick's words, timestamps shifted into this cycle.
    pub fn next_tick(&mut self, lib: &[Recording], out: &mut Vec<u64>) {
        let rec = self.current(lib);
        let shift = self.shift();
        let (a, b) = (
            rec.tick_starts[self.tick] as usize,
            rec.tick_starts[self.tick + 1] as usize,
        );
        out.extend(rec.words[a..b].iter().map(|w| w + shift));
        self.tick += 1;
        if self.tick == rec.ticks() {
            self.tick = 0;
            self.cycle += 1;
        }
    }

    /// Appends the next `n` words regardless of tick boundaries.
    pub fn next_words(&mut self, lib: &[Recording], mut n: usize, out: &mut Vec<u64>) {
        while n > 0 {
            let rec = self.current(lib);
            let shift = self.shift();
            let take = n.min(rec.words.len() - self.pos);
            out.extend(
                rec.words[self.pos..self.pos + take]
                    .iter()
                    .map(|w| w + shift),
            );
            self.pos += take;
            n -= take;
            if self.pos == rec.words.len() {
                self.pos = 0;
                self.cycle += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64) -> Vec<u64> {
        let shapes = shape_recordings(seed, 1, 250, 200);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut feed = Feed::new(0, 4, shapes.len() / 4, 0, &mut rng);
        let mut out = Vec::new();
        for _ in 0..3 * shapes[0].ticks() {
            feed.next_tick(&shapes, &mut out);
        }
        feed.next_words(&shapes, 1_000, &mut out);
        out
    }

    #[test]
    fn one_seed_always_generates_the_same_words() {
        let a = words(3);
        assert!(a.len() > 1_000);
        assert_eq!(a, words(3));
        assert_ne!(a, words(4));
    }

    #[test]
    fn cycles_shift_timestamps_forward() {
        let shapes = shape_recordings(5, 1, 1_000, 0);
        let mut rng = Rng64::seed_from_u64(5);
        let mut feed = Feed::new(0, 4, shapes.len() / 4, 0, &mut rng);
        let mut out = Vec::new();
        for _ in 0..2 * shapes[0].ticks() {
            feed.next_tick(&shapes, &mut out);
        }
        assert!(
            out.windows(2).all(|w| word_t(w[0]) <= word_t(w[1])),
            "ordered without jitter"
        );
        assert!(
            word_t(*out.last().unwrap()) >= PERIOD_US,
            "second cycle shifted"
        );
    }
}
