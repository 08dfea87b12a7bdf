//! In-memory spans around the benchmark's calls into the served path.
//!
//! Only traced runs record spans. A span holds its kind, start and end
//! (ns since the tracer started), the slice that is its parent, and the
//! paradigm, session and tick ids. Spans stay in memory and are written
//! once at exit. A slice's self time is its duration minus the time its
//! child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One paradigm's slice: the parent of every other span.
    Slice,
    /// `ServeRuntime::ingest_aer` over one session's words of one tick.
    Ingest,
    /// `ServeRuntime::tick`.
    Tick,
    /// `ServeRuntime::drain_all` + `flush_all` at the end of the stream.
    Flush,
    /// `CheckpointManager::ingest` over one session's ingest group.
    DurableIngest,
    /// `CheckpointManager::checkpoint`.
    Checkpoint,
    /// `CheckpointManager::recover`.
    Recover,
}

const KINDS: usize = SpanKind::Recover as usize + 1;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Slice => "slice",
            SpanKind::Ingest => "serve.ingest_aer",
            SpanKind::Tick => "serve.tick",
            SpanKind::Flush => "serve.flush_all",
            SpanKind::DurableIngest => "durable.ingest",
            SpanKind::Checkpoint => "durable.checkpoint",
            SpanKind::Recover => "durable.recover",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub paradigm: u8,
    pub session: u16,
    pub tick: u32,
    pub slice: u32,
    /// Words the call handled (ingest spans), else 0.
    pub items: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans beyond this many are counted, not kept (32 B each).
const MAX_SPANS: usize = 4 << 20;

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
    slice: u32,
    slice_start: u64,
    paradigm: u8,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            slice: 0,
            slice_start: 0,
            paradigm: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    pub fn begin_slice(&mut self, paradigm: u8) {
        self.slice += 1;
        self.paradigm = paradigm;
        self.slice_start = self.now();
    }

    pub fn end_slice(&mut self) {
        let end = self.now();
        self.push(Span {
            kind: SpanKind::Slice,
            paradigm: self.paradigm,
            session: u16::MAX,
            tick: 0,
            slice: self.slice,
            items: 0,
            start_ns: self.slice_start,
            end_ns: end,
        });
    }

    /// Records a child of the current slice that started at `start`.
    /// `session == usize::MAX` marks a call that spans all sessions.
    pub fn span(&mut self, kind: SpanKind, session: usize, tick: u32, start: u64, items: usize) {
        let end = self.now();
        self.push(Span {
            kind,
            paradigm: self.paradigm,
            session: session.min(u16::MAX as usize) as u16,
            tick,
            slice: self.slice,
            items: items as u32,
            start_ns: start,
            end_ns: end,
        });
    }

    /// Total duration per `(paradigm, kind)`; for slices, the self time.
    pub fn self_times(&self) -> [[u64; KINDS]; 3] {
        let mut t = [[0u64; KINDS]; 3];
        for s in &self.spans {
            let p = s.paradigm as usize;
            t[p][s.kind as usize] += s.dur_ns();
            if s.kind != SpanKind::Slice && s.kind != SpanKind::Recover {
                t[p][SpanKind::Slice as usize] =
                    t[p][SpanKind::Slice as usize].wrapping_sub(s.dur_ns());
            }
        }
        t
    }

    /// Slice durations per paradigm (traced busy time).
    pub fn busy(&self) -> [u64; 3] {
        let mut b = [0u64; 3];
        for s in self.spans.iter().filter(|s| s.kind == SpanKind::Slice) {
            b[s.paradigm as usize] += s.dur_ns();
        }
        b
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "kind\tparadigm\tsession\ttick\tslice\titems\tstart_ns\tend_ns"
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                crate::lane::PARADIGMS[s.paradigm as usize].name(),
                s.session,
                s.tick,
                s.slice,
                s.items,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
