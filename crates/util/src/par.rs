//! Zero-dependency parallel execution on one persistent fork-join pool.
//!
//! Every hot path in the workspace (pixel-array simulation, frame
//! encoding, LIF stepping, graph construction, the serving runtime's
//! ticks, the blocked GEMM/conv kernels) funnels through the primitives in
//! this module. The design rule is **ordered reduction**: work is split
//! into *statically chunked* units whose boundaries depend only on the
//! input size (never on the thread count), each unit produces an
//! independent partial result, and partial results are combined on the
//! coordinating thread in chunk-index order. Because floating-point
//! reduction order is fixed by the chunk structure, the output of every
//! parallel path is bit-identical for any thread count —
//! `EVLAB_THREADS=1` is the exact serial fallback, not an approximation
//! of it.
//!
//! Thread-count control, in priority order:
//!
//! 1. [`with_threads`] — a thread-local override for the current scope,
//!    used by tests and the `hotpaths` benchmark sweep. A region carries
//!    the override into the pool workers that run its chunks, so code in
//!    a chunk sees the same [`threads`] as the thread that started the
//!    region.
//! 2. The `EVLAB_THREADS` environment variable.
//! 3. [`std::thread::available_parallelism`].
//!
//! Sources 2 and 3 are read once per process, so [`threads`] never
//! allocates. All three are clamped to `[1, MAX_THREADS]`: an absurd
//! `EVLAB_THREADS=100000` asks for [`MAX_THREADS`] workers, it does not
//! exhaust the process's threads.
//!
//! # Dispatch
//!
//! [`for_each_chunk`] is the only dispatcher; [`for_each_task`] (one
//! chunk per task) and [`map_chunks`] (one task per result slot) are
//! adapters over it. It runs on detached workers that live for the
//! process and are spawned lazily, once each — the only allocation, which
//! lands in warmup. With `T` participants, participant `p` (the calling
//! thread is 0) runs chunks `p, p + T, p + 2T, …`; posting, running and
//! draining a region touch no heap.
//!
//! * One region runs at a time; callers on other threads queue.
//! * A region started on a thread that is already running chunks runs
//!   inline there, in ascending chunk order: nested parallelism (batch
//!   training over samples whose convs fan out over GEMM panels, serve
//!   ticks whose sessions call the kernels) neither deadlocks nor starts
//!   threads.
//! * A panic in a chunk is re-raised on the caller with its original
//!   payload (the caller's own first, else the first worker's) once every
//!   participant has finished; the pool stays usable.
//! * If the OS refuses a worker while the pool grows, the region runs
//!   with fewer (inline if none), counted in `par.spawn_fallback`. Chunk
//!   structure never depends on the participant count, so results do not
//!   change.
//!
//! # Degenerate-input contract
//!
//! [`chunk_count`], [`chunk_ranges`] and [`chunk_range_at`] share one
//! contract: the chunk count is always at least 1, `chunks` is clamped to
//! `len` so **empty ranges never occur for `len > 0`**, and `len == 0`
//! yields exactly one empty range `0..0` (so callers may index chunk 0
//! unconditionally). [`split_slices`] accepts that shape verbatim,
//! including the single empty range.
//!
//! # Examples
//!
//! ```
//! use evlab_util::par;
//!
//! let partials = par::map_chunks(4, |chunk| chunk * 10);
//! assert_eq!(partials, vec![0, 10, 20, 30]);
//!
//! // The same call under a forced serial override is bit-identical.
//! let serial = par::with_threads(1, || par::map_chunks(4, |chunk| chunk * 10));
//! assert_eq!(partials, serial);
//! ```

use crate::obs;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Ceiling on the worker count from any source. Workers are real OS
/// threads; far past the core count they only add scheduling overhead,
/// and unbounded requests (`EVLAB_THREADS=100000`) could exhaust process
/// limits.
pub const MAX_THREADS: usize = 256;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True on pool workers, and on a coordinator while it runs its own
    /// chunks. Regions started there run inline instead of waiting on the
    /// (already held) region lock.
    static IN_POOL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Locks a mutex, tolerating poisoning: every mutex in this module guards
/// plain bookkeeping that stays structurally valid across a panic, and
/// chunk panics are propagated separately (through the pool's panic
/// slot), never swallowed by the lock.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker count used by parallel regions started from this thread:
/// the [`with_threads`] override if active, else `EVLAB_THREADS`, else
/// [`std::thread::available_parallelism`]. Clamped to `[1, MAX_THREADS]`.
/// The environment and hardware default is resolved once per process, so
/// this never allocates.
pub fn threads() -> usize {
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.clamp(1, MAX_THREADS);
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("EVLAB_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
            .clamp(1, MAX_THREADS)
    })
}

/// Runs `f` with the thread count forced to `n` (clamped to
/// `[1, MAX_THREADS]` on read) for parallel regions started from the
/// current thread — and, because a region carries the override into the
/// workers that run its chunks, for code running in those chunks too.
/// Restores the previous setting afterwards, panic or not.
///
/// This is how the equivalence tests compare `threads = 1` against
/// `threads = 4` within one process without racing on the environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Number of chunks for an ordered reduction over `len` items: one chunk
/// per `min_per_chunk` items, clamped to `[1, max_chunks]`.
///
/// The result depends only on the input length — never on the thread
/// count — so the reduction tree (and therefore every floating-point
/// rounding) is invariant under `EVLAB_THREADS`. `len == 0` yields 1
/// (one empty chunk), matching [`chunk_ranges`].
///
/// Degenerate tuning values are clamped rather than rejected:
/// `min_per_chunk == 0` behaves as 1 (no division by zero) and
/// `max_chunks == 0` behaves as 1, so the result is always in
/// `[1, max(max_chunks, 1)]` and feeding it to [`chunk_ranges`] always
/// produces a valid exact partition.
pub fn chunk_count(len: usize, min_per_chunk: usize, max_chunks: usize) -> usize {
    (len / min_per_chunk.max(1)).clamp(1, max_chunks.max(1))
}

/// The `c`-th range of the [`chunk_ranges`] partition of `0..len`,
/// computed without allocating — the accessor form for steady-state hot
/// paths that must not touch the heap. `chunks` is clamped exactly as in
/// [`chunk_ranges`] (to `[1, max(len, 1)]`), so the two functions always
/// agree: `chunk_ranges(len, chunks)[c] == chunk_range_at(len, chunks, c)`.
///
/// # Panics
///
/// Panics if `c` is not below the clamped chunk count.
pub fn chunk_range_at(len: usize, chunks: usize, c: usize) -> Range<usize> {
    let chunks = chunks.max(1).min(len.max(1));
    assert!(c < chunks, "chunk {c} out of range for {chunks} chunks");
    let base = len / chunks;
    let extra = len % chunks;
    let start = c * base + c.min(extra);
    start..start + base + usize::from(c < extra)
}

/// Splits `0..len` into `chunks` contiguous, near-equal ranges (the first
/// `len % chunks` ranges are one longer). `chunks` is clamped to
/// `[1, max(len, 1)]`: empty ranges never occur when `len > 0`, and
/// `len == 0` returns a single empty range — the vector is never empty,
/// so callers may index `[0]` unconditionally.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(len.max(1));
    (0..chunks).map(|c| chunk_range_at(len, chunks, c)).collect()
}

/// A unit of pool work: a lifetime-erased chunk closure plus its static
/// chunk assignment. The job lives behind the pool mutex only while the
/// posting coordinator is inside [`for_each_chunk`], which drains every
/// participating worker before returning — the pointer never outlives the
/// closure it points to.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Participants (live workers + the coordinator): worker `w` runs
    /// chunks `w, w + stride, w + 2·stride, …`, the coordinator runs the
    /// `0 mod stride` residue. Assignment never affects results — chunk
    /// boundaries and per-chunk work are fixed before dispatch.
    stride: usize,
    /// The coordinator's [`with_threads`] override, replayed on workers.
    ovr: Option<usize>,
}

// SAFETY: the closure pointer crosses threads only while the posting
// coordinator blocks inside `for_each_chunk`, which keeps the referent
// alive; the referent is `Sync`, so concurrent calls from several
// workers are sound.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per posted job; workers detect new work by comparing
    /// against the last epoch they observed.
    epoch: u64,
    job: Option<Job>,
    /// Participating workers that have not yet finished the current job.
    remaining: usize,
    /// The first panic payload caught on a worker during the current job;
    /// the coordinator re-raises it after the drain, so no chunk is ever
    /// silently lost and the caller sees the chunk's own message.
    panic: Option<Box<dyn Any + Send>>,
    /// Detached workers spawned so far (their indices are `1..=workers`).
    workers: usize,
}

/// The process-wide pool: the job bookkeeping its detached workers share,
/// plus a region lock that serializes coordinators (one fork-join region
/// at a time; concurrent callers queue rather than oversubscribe).
struct Pool {
    state: Mutex<PoolState>,
    /// Signals workers that `epoch` moved.
    work: Condvar,
    /// Signals the coordinator that `remaining` reached zero.
    done: Condvar,
    region: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            remaining: 0,
            panic: None,
            workers: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        region: Mutex::new(()),
    })
}

fn worker_loop(p: &'static Pool, widx: usize) {
    IN_POOL_REGION.with(|g| g.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_unpoisoned(&p.state);
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job;
                }
                st = p.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { continue };
        if widx >= job.stride {
            continue;
        }
        // SAFETY: the coordinator that posted `job` blocks until this
        // worker decrements `remaining` below, so the closure behind
        // `job.f` outlives the entire execution here.
        let f = unsafe { &*job.f };
        // A worker runs nothing but jobs, so it simply takes each job's
        // override as its own.
        OVERRIDE.with(|o| o.set(job.ovr));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut c = widx;
            while c < job.n_chunks {
                f(c);
                c += job.stride;
            }
        }));
        let mut st = lock_unpoisoned(&p.state);
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            p.done.notify_all();
        }
    }
}

/// Grows the pool to `needed` workers (spawning is the only allocating
/// step in pool dispatch and happens once per worker for the process
/// lifetime). Returns how many live workers are available; a refused
/// spawn degrades the region to fewer participants — never to an error —
/// and is recorded in `par.spawn_fallback`.
fn ensure_workers(p: &'static Pool, needed: usize) -> usize {
    let mut st = lock_unpoisoned(&p.state);
    while st.workers < needed {
        let widx = st.workers + 1;
        match thread::Builder::new()
            .name(format!("evlab-par-{widx}"))
            .spawn(move || worker_loop(p, widx))
        {
            Ok(_) => st.workers += 1,
            Err(_) => {
                obs::counter_add("par.spawn_fallback", 1);
                break;
            }
        }
    }
    st.workers.min(needed)
}

/// Waits (on drop) until every participating worker has finished the
/// posted job, then clears the job slot. Running this during unwinding is
/// what makes the lifetime erasure in [`Job`] sound: the coordinator
/// cannot leave [`for_each_chunk`] — not even by panic — while a worker
/// might still call the chunk closure.
struct DrainGuard<'a> {
    pool: &'a Pool,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.pool.state);
        while st.remaining != 0 {
            st = self
                .pool
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }
}

/// Evaluates `f(c)` for every chunk index `c in 0..n_chunks` on the
/// persistent worker pool, returning when all chunks are done. This is
/// the module's one dispatcher: posting a job, executing it and draining
/// the pool touch no heap (workers are spawned lazily, once per process).
///
/// Chunks must be independent — `f` typically writes a disjoint region of
/// the output per chunk index. As everywhere in this module, callers
/// derive `n_chunks` and chunk boundaries from input sizes only, so
/// results are bit-identical at every thread count; with one thread, one
/// chunk, or from inside another pool region the chunks run inline in
/// ascending order (the exact serial fallback — nested parallelism
/// degrades to the serial path rather than deadlocking on the region
/// lock).
///
/// # Panics
///
/// Re-raises the original panic of a chunk, after every other
/// participant has finished.
pub fn for_each_chunk(n_chunks: usize, f: impl Fn(usize) + Sync) {
    let t = threads().min(n_chunks);
    if t <= 1 || IN_POOL_REGION.with(Cell::get) {
        for c in 0..n_chunks {
            f(c);
        }
        return;
    }
    let p = pool();
    let _region = lock_unpoisoned(&p.region);
    let live = ensure_workers(p, t - 1);
    if live == 0 {
        for c in 0..n_chunks {
            f(c);
        }
        return;
    }
    let stride = live + 1;
    // SAFETY: erase the closure's lifetime so it fits the process-global
    // job slot. The `DrainGuard` below guarantees no worker can still be
    // calling the closure when this function returns (even by unwinding),
    // so the erased reference never dangles.
    let erased: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(&f) };
    {
        let mut st = lock_unpoisoned(&p.state);
        st.epoch += 1;
        st.remaining = live;
        st.job = Some(Job {
            f: erased,
            n_chunks,
            stride,
            ovr: OVERRIDE.with(Cell::get),
        });
        p.work.notify_all();
    }
    let drain = DrainGuard { pool: p };
    IN_POOL_REGION.with(|g| g.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut c = 0;
        while c < n_chunks {
            f(c);
            c += stride;
        }
    }));
    IN_POOL_REGION.with(|g| g.set(false));
    drop(drain);
    let worker_panic = lock_unpoisoned(&p.state).panic.take();
    if let Some(payload) = outcome.err().or(worker_panic) {
        resume_unwind(payload);
    }
}

/// Runs `f(index, &mut task)` over a set of independent mutable work
/// units (typically disjoint slice chunks zipped into tuples): one
/// [`for_each_chunk`] chunk per task, so with `T` participants task `i`
/// runs on participant `i mod T`. With one thread the tasks run inline in
/// order. Dispatch allocates nothing.
///
/// Use this for elementwise updates where each task owns a disjoint
/// region of the output — such updates are bit-identical under any
/// chunking, so the task count may follow the thread count.
///
/// # Panics
///
/// Re-raises the original panic of a task.
pub fn for_each_task<T: Send>(tasks: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let n = tasks.len();
    let base = tasks.as_mut_ptr() as usize;
    for_each_chunk(n, |i| {
        // SAFETY: `i < n`, `for_each_chunk` runs every index exactly
        // once, and it returns only after every chunk finished — so this
        // is the only reference to task `i`, and it does not outlive the
        // borrow of `tasks`. `T: Send` lets the task be used on whichever
        // participant runs chunk `i`.
        f(i, unsafe { &mut *(base as *mut T).add(i) });
    });
}

/// Evaluates `worker(c)` for every chunk index `c in 0..n_chunks` and
/// returns the results in chunk order: [`for_each_task`] over one result
/// slot per chunk. With one thread (or one chunk) the workers run inline
/// in index order — the exact serial fallback.
///
/// # Panics
///
/// Re-raises the original panic of a worker.
pub fn map_chunks<R: Send>(n_chunks: usize, worker: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for_each_task(&mut slots, |c, slot| *slot = Some(worker(c)));
    // Every slot is filled: `for_each_task` either ran each task or
    // re-raised the panic that stopped one.
    slots.into_iter().flatten().collect()
}

/// Splits one mutable slice into disjoint chunks following `ranges`,
/// which must be contiguous, ascending and start at 0 (the shape
/// [`chunk_ranges`] produces, including its degenerate `len == 0` form —
/// a single empty range yields a single empty chunk). The chunks can then
/// be zipped into task tuples for [`for_each_task`].
///
/// # Panics
///
/// Panics if the ranges are not a contiguous partition of a prefix of
/// the slice.
pub fn split_slices<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut covered = 0;
    for r in ranges {
        assert_eq!(r.start, covered, "ranges must be contiguous from 0");
        let (head, tail) = slice.split_at_mut(r.len());
        out.push(head);
        slice = tail;
        covered = r.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_chunks_preserves_order() {
        for t in [1, 2, 4, 7] {
            let got = with_threads(t, || map_chunks(13, |c| c * c));
            let want: Vec<usize> = (0..13).map(|c| c * c).collect();
            assert_eq!(got, want, "threads = {t}");
        }
    }

    #[test]
    fn for_each_task_touches_every_task_once() {
        for t in [1, 3, 8] {
            let mut v = vec![0u32; 17];
            let mut tasks: Vec<&mut u32> = v.iter_mut().collect();
            with_threads(t, || for_each_task(&mut tasks, |i, x| **x += i as u32 + 1));
            let want: Vec<u32> = (0..17).map(|i| i + 1).collect();
            assert_eq!(v, want, "threads = {t}");
        }
    }

    #[test]
    fn chunk_count_ignores_thread_count() {
        let a = with_threads(1, || chunk_count(100_000, 8_192, 16));
        let b = with_threads(8, || chunk_count(100_000, 8_192, 16));
        assert_eq!(a, b);
        assert_eq!(chunk_count(0, 8_192, 16), 1);
        assert_eq!(chunk_count(1 << 30, 8_192, 16), 16);
    }

    #[test]
    fn chunk_count_degenerate_tuning_property() {
        // Seeded sweep over the full degenerate cross-product:
        // min_per_chunk == 0 acts as 1, max_chunks == 0 acts as 1, and
        // the result always drives chunk_ranges to an exact partition.
        let mut rng = crate::rng::Rng64::seed_from_u64(0x9aa7);
        for case in 0..2_000u32 {
            let len = match case % 4 {
                0 => 0,
                1 => rng.next_below(4) as usize,
                _ => rng.next_below(1 << 20) as usize,
            };
            let min_per_chunk = match case % 3 {
                0 => 0,
                _ => rng.next_below(10_000) as usize,
            };
            let max_chunks = match case % 5 {
                0 => 0,
                _ => rng.next_below(64) as usize,
            };
            let n = chunk_count(len, min_per_chunk, max_chunks);
            assert!(n >= 1, "len {len} mpc {min_per_chunk} mc {max_chunks}");
            assert!(n <= max_chunks.max(1), "count exceeds requested cap");
            assert_eq!(
                n,
                chunk_count(len, min_per_chunk.max(1), max_chunks.max(1)),
                "0 must behave exactly as 1"
            );
            let ranges = chunk_ranges(len, n);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous, non-overlapping");
                assert!(r.end >= r.start);
                covered = r.end;
            }
            assert_eq!(covered, len, "exact partition of 0..{len}");
            if len > 0 {
                assert!(ranges.iter().all(|r| !r.is_empty()), "no empty chunk");
            } else {
                assert_eq!(ranges, vec![0..0], "len 0: single empty range");
            }
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (len, chunks) in [(10, 3), (3, 10), (0, 4), (16, 16), (100, 7)] {
            let ranges = chunk_ranges(len, chunks);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn chunk_ranges_degenerate_inputs_obey_the_contract() {
        // len == 0: exactly one empty range, never an empty vector.
        assert_eq!(chunk_ranges(0, 0), vec![0..0]);
        assert_eq!(chunk_ranges(0, 1), vec![0..0]);
        assert_eq!(chunk_ranges(0, 17), vec![0..0]);
        // chunks == 0 is clamped up to 1.
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
        // chunks > len is clamped down: no empty trailing ranges.
        for (len, chunks) in [(1usize, 2usize), (3, 10), (7, 8), (1, usize::MAX)] {
            let ranges = chunk_ranges(len, chunks);
            assert_eq!(ranges.len(), len, "clamped to len");
            assert!(ranges.iter().all(|r| !r.is_empty()), "{len}/{chunks}");
        }
    }

    #[test]
    fn chunk_range_at_agrees_with_chunk_ranges() {
        for (len, chunks) in [
            (0usize, 0usize),
            (0, 4),
            (1, 1),
            (1, 9),
            (10, 3),
            (3, 10),
            (16, 16),
            (100, 7),
            (12_345, 8),
        ] {
            let ranges = chunk_ranges(len, chunks);
            for (c, r) in ranges.iter().enumerate() {
                assert_eq!(
                    chunk_range_at(len, chunks, c),
                    *r,
                    "len {len} chunks {chunks} c {c}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_range_at_rejects_out_of_range_index() {
        // chunks clamps to len = 3, so index 3 is past the partition.
        chunk_range_at(3, 10, 3);
    }

    #[test]
    fn split_slices_accepts_degenerate_range_shapes() {
        // The len == 0 shape from chunk_ranges: one empty range.
        let mut empty: [u8; 0] = [];
        let chunks = split_slices(&mut empty, &chunk_ranges(0, 4));
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
        // chunks > len: clamped ranges still partition the slice.
        let mut v = [1u8, 2, 3];
        let chunks = split_slices(&mut v, &chunk_ranges(3, 10));
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 3);
    }

    #[test]
    fn threads_clamps_absurd_overrides() {
        assert_eq!(with_threads(100_000, threads), MAX_THREADS);
        assert_eq!(with_threads(0, threads), 1);
    }

    #[test]
    fn override_propagates_into_map_chunks_workers() {
        // Workers are fresh threads with empty thread-locals; the spawn
        // must carry the override so nested regions see it.
        let seen = with_threads(3, || map_chunks(4, |_| threads()));
        assert_eq!(seen, vec![3; 4]);
    }

    #[test]
    fn override_propagates_into_for_each_task_workers() {
        let mut v = vec![0usize; 6];
        let mut tasks: Vec<&mut usize> = v.iter_mut().collect();
        with_threads(5, || for_each_task(&mut tasks, |_, t| **t = threads()));
        assert_eq!(v, vec![5; 6]);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let outer = with_threads(3, || {
            let inner = with_threads(5, threads);
            assert_eq!(inner, 5);
            threads()
        });
        assert_eq!(outer, 3);
    }

    #[test]
    fn for_each_chunk_visits_every_chunk_exactly_once() {
        for t in [1, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            with_threads(t, || {
                for_each_chunk(hits.len(), |c| {
                    hits[c].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (c, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {c}, threads {t}");
            }
        }
        // n_chunks == 0 is a no-op, not a panic.
        for_each_chunk(0, |_| unreachable!("no chunks"));
    }

    #[test]
    fn for_each_chunk_override_reaches_pool_workers() {
        let seen: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        with_threads(3, || {
            for_each_chunk(seen.len(), |c| {
                seen[c].store(threads(), Ordering::Relaxed);
            });
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 3, "override lost in pool worker");
        }
    }

    #[test]
    fn nested_for_each_chunk_runs_inline_without_deadlock() {
        let total = AtomicUsize::new(0);
        with_threads(4, || {
            for_each_chunk(6, |_| {
                // The nested region must degrade to inline execution on
                // whichever thread runs this chunk.
                for_each_chunk(5, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 5);
    }

    #[test]
    fn for_each_task_assigns_task_i_to_participant_i_mod_t() {
        // Task i runs on the thread that ran task i mod t, the coordinator
        // takes the residue 0, and tasks of a nested region run on the
        // thread that started it.
        let coordinator = thread::current().id();
        let mut tasks: Vec<(Option<thread::ThreadId>, bool)> = vec![(None, false); 10];
        with_threads(2, || {
            for_each_task(&mut tasks, |_, (id, nested_inline)| {
                let me = thread::current().id();
                *id = Some(me);
                let mut inner = [None; 3];
                for_each_task(&mut inner, |_, x| *x = Some(thread::current().id()));
                *nested_inline = inner.iter().all(|x| *x == Some(me));
            });
        });
        assert_eq!(tasks[0].0, Some(coordinator));
        for (i, (id, nested_inline)) in tasks.iter().enumerate() {
            assert_eq!(*id, tasks[i % 2].0, "task {i}");
            assert!(nested_inline, "nested region of task {i} left its thread");
        }
    }

    #[test]
    fn for_each_chunk_ordered_reduction_is_thread_invariant() {
        // Per-chunk partials written to disjoint slots, reduced in chunk
        // order afterwards: the pool analogue of the map_chunks contract.
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        let reduce = || {
            let chunks = chunk_count(data.len(), 4_096, 16);
            let mut partials = vec![0.0f32; chunks];
            let cells: Vec<Mutex<&mut f32>> = partials.iter_mut().map(Mutex::new).collect();
            for_each_chunk(chunks, |c| {
                let r = chunk_range_at(data.len(), chunks, c);
                **lock_unpoisoned(&cells[c]) = data[r].iter().sum::<f32>();
            });
            drop(cells);
            partials.iter().fold(0.0f32, |acc, &p| acc + p).to_bits()
        };
        let serial = with_threads(1, reduce);
        for t in [2, 4, 8] {
            assert_eq!(with_threads(t, reduce), serial, "threads = {t}");
        }
    }

    #[test]
    fn for_each_chunk_propagates_chunk_panics() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                for_each_chunk(8, |c| {
                    if c == 5 {
                        panic!("chunk 5 exploded");
                    }
                });
            });
        }));
        // Chunk 5 runs on a worker: the caller must see its own payload.
        let payload = caught.expect_err("worker panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 5 exploded"));
        // The pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        with_threads(4, || {
            for_each_chunk(8, |_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn ordered_float_reduction_is_thread_invariant() {
        // The canonical use: per-chunk partial sums reduced in chunk order
        // must produce the same bits for any thread count.
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        let reduce = || {
            let ranges = chunk_ranges(data.len(), chunk_count(data.len(), 4_096, 16));
            let partials = map_chunks(ranges.len(), |c| {
                data[ranges[c].clone()].iter().sum::<f32>()
            });
            partials.iter().fold(0.0f32, |acc, &p| acc + p).to_bits()
        };
        let serial = with_threads(1, reduce);
        for t in [2, 4, 8] {
            assert_eq!(with_threads(t, reduce), serial, "threads = {t}");
        }
    }
}
