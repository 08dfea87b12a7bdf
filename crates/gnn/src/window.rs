//! True sliding-window event-graph engine.
//!
//! The streaming GNN path used to bound memory by discarding the whole
//! graph once it reached `max_nodes` — a periodic accuracy/latency cliff
//! that neither the CNN nor the SNN streaming paths suffer. This module
//! replaces that reset with a window that actually *slides* (after
//! Jeziorek et al., arXiv:2307.14124 / 2401.04988):
//!
//! * [`SlidingWindowGraph`] — a ring-buffer node store with **stable slot
//!   handles**: evicted nodes are tombstoned and their slots reused, so
//!   cached per-node features (keyed by slot id) survive every eviction.
//!   A dense uniform grid answers candidate scans in O(1) expected work per
//!   event; no kd-tree is ever rebuilt. Each bucket is a seq-ordered FIFO
//!   threaded through a per-slot entry table that holds what a scan reads
//!   (seq, event, cell) inline; out-edge lists are threaded through the
//!   in-edge records the same way. With its scan buffers reused, a push
//!   allocates nothing once the slot table has stopped growing.
//! * [`WindowPolicy`] — age-based, count-based, or combined eviction.
//! * [`WindowedGnn`] — incremental message passing on top of the store:
//!   each push recomputes only the layer-by-layer frontier of nodes whose
//!   neighbourhoods were touched by the insert and the evictions. Per
//!   layer it also caches every slot's neighbour projection (`W_nbr·h_j`,
//!   or the spline kernel's `K³` blocks `W_k·h_j`), refreshed only when
//!   that slot's input row changes, so an edge costs `out × 3` MACs
//!   rather than `out × (in + 3)`. The projections are derived state —
//!   never serialized, rebuilt on load, cleared on reset — and the
//!   lane-parallel kernels that read them add the same `f32` terms in the
//!   same order as [`crate::network::AnyConv::node_forward`], so the
//!   logits are bit-identical to a plain frontier recompute.
//!
//! # The oracle contract
//!
//! The windowed graph is **bit-identical** to a from-scratch
//! [`crate::build::kdtree_build`] over the same trailing events. Dropping
//! an evicted node's edges is *not* enough for that: with a degree cap, a
//! survivor that had the evicted node among its `max_degree` nearest
//! neighbours now has a free slot that some previously displaced candidate
//! must fill. So eviction *re-selects* the neighbourhood of every
//! out-neighbour of the evicted node from the still-live earlier nodes.
//! Since all policies evict oldest-first, the live set is always a
//! contiguous suffix of the insertion order, and by induction every live
//! node's list equals the oracle selection over the live earlier nodes —
//! which is exactly what a fresh build over the trailing window computes.
//!
//! Non-selected candidates never influence a neighbour list, so removing
//! one cannot change it; that is why only the out-neighbours of evicted
//! nodes need repair.
//!
//! Everything here is strictly serial per session — results are trivially
//! bit-identical across `EVLAB_THREADS`.

use crate::build::{GraphBuilder, GraphConfig};
use crate::conv::NodeFeatures;
use crate::graph::{EventGraph, GraphView};
use crate::network::{GnnNetwork, LaneKernel};
use evlab_events::Event;
use evlab_tensor::{OpCount, Tensor};
use evlab_util::check::{self, Invariant, Report};
use evlab_util::frame::{Decoder, Encoder, FrameError};
use evlab_util::obs;
use std::collections::VecDeque;

/// Eviction policy bounding the live window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Keep at most this many live nodes; the oldest is evicted to make
    /// room for an insert.
    MaxNodes(usize),
    /// Keep only nodes within this age (µs) of the incoming event.
    MaxAgeUs(u64),
    /// Both bounds at once — the live set is the intersection.
    Both {
        /// Count bound.
        max_nodes: usize,
        /// Age bound in µs.
        max_age_us: u64,
    },
}

impl WindowPolicy {
    /// The count bound (`usize::MAX` when only age-bounded).
    pub fn max_nodes(&self) -> usize {
        match self {
            WindowPolicy::MaxNodes(n) => *n,
            WindowPolicy::MaxAgeUs(_) => usize::MAX,
            WindowPolicy::Both { max_nodes, .. } => *max_nodes,
        }
    }

    /// The age bound in µs, if any.
    pub fn max_age_us(&self) -> Option<u64> {
        match self {
            WindowPolicy::MaxNodes(_) => None,
            WindowPolicy::MaxAgeUs(age) => Some(*age),
            WindowPolicy::Both { max_age_us, .. } => Some(*max_age_us),
        }
    }
}

/// One node slot. Tombstoned (not deallocated) on eviction; the slot id
/// stays valid for feature caches until the slot is reused.
#[derive(Debug, Clone)]
struct Slot {
    event: Event,
    /// Monotone insertion number — the window's notion of recency. Seq
    /// order equals time order (pushes are time-ordered).
    seq: u64,
    /// In-neighbours as slot ids, ascending by seq (oldest first) —
    /// matching the ascending-index lists of the batch builders.
    nbrs: Vec<u32>,
    /// `links[k]`: the slot after this one in `nbrs[k]`'s out-list
    /// ([`NIL`] at its end). Out-lists are threaded through the in-edge
    /// records, so they need no storage — and no allocation — of their
    /// own: the store's size is fixed by the slot count and the degree
    /// cap.
    links: Vec<u32>,
    /// First and last live out-neighbour ([`NIL`] when none) and their
    /// count; the list between them ascends by seq.
    out_head: u32,
    out_tail: u32,
    out_len: u32,
    live: bool,
}

impl Slot {
    fn new(event: Event, seq: u64) -> Self {
        Slot {
            event,
            seq,
            nbrs: Vec::new(),
            links: Vec::new(),
            out_head: NIL,
            out_tail: NIL,
            out_len: 0,
            live: false,
        }
    }

    /// The slot after this one in in-neighbour `j`'s out-list.
    fn link(&self, j: u32) -> u32 {
        self.nbrs
            .iter()
            .position(|&n| n == j)
            .map_or(NIL, |k| self.links[k])
    }

    fn set_link(&mut self, j: u32, next: u32) {
        if let Some(k) = self.nbrs.iter().position(|&n| n == j) {
            self.links[k] = next;
        }
    }
}

/// Out-edges of one slot as `(seq, slot)` pairs, ascending by seq: a walk
/// along the out-list threaded through the out-neighbours' in-edge
/// records.
#[derive(Debug, Clone)]
pub struct OutEdges<'a> {
    slots: &'a [Slot],
    of: u32,
    at: u32,
    left: u32,
}

impl Iterator for OutEdges<'_> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        // `left` bounds the walk, so even a corrupt link cannot loop.
        if self.at == NIL || self.left == 0 {
            return None;
        }
        let o = self.slots.get(self.at as usize)?;
        let item = (o.seq, self.at);
        self.at = o.link(self.of);
        self.left -= 1;
        Some(item)
    }
}

/// What one [`SlidingWindowGraph::push`] did, for incremental feature
/// maintenance.
#[derive(Debug, Clone, Default)]
pub struct PushOutcome {
    /// Slot id of the inserted node.
    pub inserted: u32,
    /// Slots evicted by this push (tombstoned; ids reusable — possibly
    /// already reused by `inserted`).
    pub evicted: Vec<u32>,
    /// Live slots whose neighbour lists were re-selected after the
    /// evictions, ascending by seq. Disjoint from `inserted`.
    pub reselected: Vec<u32>,
}

/// A connection candidate: `(slot, seq, dist²)`.
type Candidate = (u32, u64, f64);

/// Keeps the `k` nearest candidates and orders them by seq — the
/// selection of `build::select_neighbors` over (distance, seq): nearest
/// first, ties broken toward the more recent event. `(distance, seq)` is
/// a total order (distances are finite, seqs unique), so the partial
/// `select_nth_unstable_by` picks exactly the set a full sort would keep;
/// only those few are then sorted. Seq order here corresponds one-to-one
/// to index order in a batch build of the trailing window, so the two
/// selections agree.
fn select_nearest(candidates: &mut Vec<Candidate>, k: usize) {
    if candidates.len() > k {
        candidates.select_nth_unstable_by(k, |a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal) // distances are finite
                .then(b.1.cmp(&a.1)) // tie: prefer the more recent event
        });
        candidates.truncate(k);
    }
    candidates.sort_unstable_by_key(|c| c.1);
}

/// "No slot": the end of a bucket list, or an empty bucket.
const NIL: u32 = u32::MAX;
/// Smallest grid side, in cells. At least 3, so the three columns (rows)
/// of a 3×3 scan never fold onto one bucket.
const GRID_MIN: usize = 4;
/// Largest grid side, in cells. Sensors wider than this many cells fold
/// onto the grid: buckets then mix cells, and scans skip the entries of
/// foreign cells by their stored coordinates.
const GRID_CAP: usize = 256;

/// A node's entry in the spatial index: everything a candidate scan
/// reads, stored inline so scans never touch the slot table, plus the
/// link to the next-newer entry of the same bucket.
#[derive(Debug, Clone, Copy)]
struct CellEntry {
    seq: u64,
    event: Event,
    /// The entry's own cell; filters foreign cells out of folded buckets.
    cell: (u16, u16),
    next: u32,
}

/// Uniform grid over `(x, y)` (cell side = the connection radius, at
/// least 1 px). Each bucket is a FIFO of slot ids threaded through a
/// per-slot entry table, oldest first: appends, evictions and scans move
/// no memory and allocate nothing once the slot table has stopped
/// growing. The grid grows in powers of two to cover the cells seen, up to
/// [`GRID_CAP`] per side, relinking the live entries when it does.
#[derive(Debug, Clone, Default)]
struct CellGrid {
    cols: usize,
    rows: usize,
    /// `(head, tail)` slot ids per bucket, [`NIL`] when empty.
    buckets: Vec<(u32, u32)>,
    /// Entry per slot id (stale for tombstoned slots).
    entries: Vec<CellEntry>,
}

impl CellGrid {
    /// The bucket holding `cell` (the grid must not be empty).
    fn bucket_of(&self, cell: (u16, u16)) -> usize {
        (cell.1 as usize & (self.rows - 1)) * self.cols + (cell.0 as usize & (self.cols - 1))
    }

    /// Grows the grid (up to the cap) so that `cell` has a bucket of its
    /// own, relinking the `live` slots (seq-ascending) when it does.
    fn cover(&mut self, cell: (u16, u16), live: impl Iterator<Item = u32>) {
        let side = |have: usize, need: u16| {
            if have >= GRID_CAP || (need as usize) < have {
                have
            } else {
                (need as usize + 1)
                    .next_power_of_two()
                    .clamp(GRID_MIN, GRID_CAP)
                    .max(have)
            }
        };
        let (cols, rows) = (side(self.cols, cell.0), side(self.rows, cell.1));
        if (cols, rows) == (self.cols, self.rows) {
            return;
        }
        self.cols = cols;
        self.rows = rows;
        self.buckets.clear();
        self.buckets.resize(cols * rows, (NIL, NIL));
        for s in live {
            self.link(s);
        }
    }

    /// Records slot `s`'s entry and appends it as the newest of its bucket
    /// (the grid must already cover its cell).
    fn append(&mut self, s: u32, seq: u64, event: Event, cell: (u16, u16)) {
        let entry = CellEntry {
            seq,
            event,
            cell,
            next: NIL,
        };
        match self.entries.get_mut(s as usize) {
            Some(e) => *e = entry,
            // Slots are appended in id order, except when a snapshot load
            // indexes its live slots: pad with copies, overwritten later.
            None => self.entries.resize(s as usize + 1, entry),
        }
        self.link(s);
    }

    fn link(&mut self, s: u32) {
        self.entries[s as usize].next = NIL;
        let b = self.bucket_of(self.entries[s as usize].cell);
        let (head, tail) = self.buckets[b];
        if head == NIL {
            self.buckets[b] = (s, s);
        } else {
            self.entries[tail as usize].next = s;
            self.buckets[b].1 = s;
        }
    }

    /// Unlinks slot `s`, which must head its bucket — true of the globally
    /// oldest live node, since every bucket is seq-ordered.
    fn pop_front(&mut self, s: u32) {
        let b = self.bucket_of(self.entries[s as usize].cell);
        debug_assert_eq!(self.buckets[b].0, s, "oldest node must head its bucket");
        let next = self.entries[s as usize].next;
        self.buckets[b] = if next == NIL {
            (NIL, NIL)
        } else {
            (next, self.buckets[b].1)
        };
    }

    /// Empties every bucket, keeping the grid's size and allocations.
    fn clear(&mut self) {
        self.buckets.fill((NIL, NIL));
        self.entries.clear();
    }
}

/// Ring-buffer node store with a uniform-grid spatial index and
/// oracle-exact sliding-window eviction.
///
/// # Examples
///
/// ```
/// use evlab_events::{Event, Polarity};
/// use evlab_gnn::build::GraphConfig;
/// use evlab_gnn::window::{SlidingWindowGraph, WindowPolicy};
/// use evlab_tensor::OpCount;
///
/// let mut w = SlidingWindowGraph::new(GraphConfig::new(), WindowPolicy::MaxNodes(2));
/// let mut ops = OpCount::new();
/// w.push(Event::new(0, 1, 1, Polarity::On), &mut ops);
/// w.push(Event::new(50, 2, 1, Polarity::On), &mut ops);
/// let out = w.push(Event::new(100, 2, 2, Polarity::On), &mut ops);
/// assert_eq!(w.node_count(), 2, "count bound holds");
/// assert_eq!(out.evicted.len(), 1, "oldest evicted");
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowGraph {
    config: GraphConfig,
    policy: WindowPolicy,
    slots: Vec<Slot>,
    /// Live slot ids, oldest (lowest seq) at the front.
    order: VecDeque<u32>,
    /// Tombstoned slots awaiting reuse, FIFO for deterministic reuse.
    free: VecDeque<u32>,
    /// Spatial index: per-bucket FIFOs of the live slots, oldest first.
    grid: CellGrid,
    cell_size: f64,
    next_seq: u64,
    last_t: Option<u64>,
    /// Reused scan output and previous neighbour list (re-selection).
    candidates: Vec<Candidate>,
    old_nbrs: Vec<(u32, u32)>,
}

impl SlidingWindowGraph {
    /// Creates an empty window.
    ///
    /// # Panics
    ///
    /// Panics if the policy's count bound is zero.
    pub fn new(config: GraphConfig, policy: WindowPolicy) -> Self {
        assert!(policy.max_nodes() >= 1, "window must hold at least one node");
        SlidingWindowGraph {
            cell_size: config.radius.max(1.0),
            config,
            policy,
            slots: Vec::new(),
            order: VecDeque::new(),
            free: VecDeque::new(),
            grid: CellGrid::default(),
            next_seq: 0,
            last_t: None,
            candidates: Vec::new(),
            old_nbrs: Vec::new(),
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// The eviction policy.
    pub fn policy(&self) -> WindowPolicy {
        self.policy
    }

    /// Number of *live* nodes.
    pub fn node_count(&self) -> usize {
        self.order.len()
    }

    /// Total number of slots ever allocated (live + tombstoned). Feature
    /// caches keyed by slot id must cover this many rows.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether slot `i` currently holds a live node.
    pub fn is_live(&self, i: usize) -> bool {
        self.slots.get(i).map(|s| s.live).unwrap_or(false)
    }

    /// Insertion number of slot `i` (the window's recency key).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn seq(&self, i: usize) -> u64 {
        self.slots[i].seq
    }

    /// The event held in slot `i` (stale if the slot is tombstoned).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn event(&self, i: usize) -> &Event {
        &self.slots[i].event
    }

    /// Out-edges of slot `i` as `(seq, slot)` pairs, ascending by seq —
    /// the live newer nodes that selected `i` as a neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn out_edges(&self, i: usize) -> OutEdges<'_> {
        let sl = &self.slots[i];
        OutEdges {
            slots: &self.slots,
            of: i as u32,
            at: sl.out_head,
            left: sl.out_len.min(self.slots.len() as u32),
        }
    }

    /// Threads `i` into in-neighbour `j`'s out-list at its seq position
    /// (`i` must already list `j`). New nodes are the newest, so the
    /// insert path appends at the tail; re-selection may land mid-list.
    fn out_insert(&mut self, j: u32, i: u32) {
        let seq_i = self.slots[i as usize].seq;
        let tail = self.slots[j as usize].out_tail;
        let (mut prev, mut at) = if tail != NIL && self.slots[tail as usize].seq < seq_i {
            (tail, NIL)
        } else {
            (NIL, self.slots[j as usize].out_head)
        };
        while at != NIL && self.slots[at as usize].seq < seq_i {
            prev = at;
            at = self.slots[at as usize].link(j);
        }
        self.slots[i as usize].set_link(j, at);
        if prev == NIL {
            self.slots[j as usize].out_head = i;
        } else {
            self.slots[prev as usize].set_link(j, i);
        }
        let sj = &mut self.slots[j as usize];
        if at == NIL {
            sj.out_tail = i;
        }
        sj.out_len += 1;
    }

    /// Unthreads `i` from in-neighbour `j`'s out-list (`i` must still
    /// list `j`).
    fn out_remove(&mut self, j: u32, i: u32) {
        let next = self.slots[i as usize].link(j);
        let mut prev = NIL;
        let mut at = self.slots[j as usize].out_head;
        while at != i && at != NIL {
            prev = at;
            at = self.slots[at as usize].link(j);
        }
        debug_assert_eq!(at, i, "slot {i} missing from {j}'s out-list");
        if prev == NIL {
            self.slots[j as usize].out_head = next;
        } else {
            self.slots[prev as usize].set_link(j, next);
        }
        let sj = &mut self.slots[j as usize];
        if sj.out_tail == i {
            sj.out_tail = prev;
        }
        sj.out_len -= 1;
    }

    /// Live slot ids in insertion (time) order, oldest first.
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }

    /// Total number of directed edges among live nodes.
    pub fn edge_count(&self) -> usize {
        self.order
            .iter()
            .map(|&s| self.slots[s as usize].nbrs.len())
            .sum()
    }

    /// Drops all nodes and index state, keeping allocations.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.order.clear();
        self.free.clear();
        self.grid.clear();
        self.next_seq = 0;
        self.last_t = None;
    }

    /// The grid cell of an event. Coordinates are `u16` and the cell side
    /// is at least 1 px, so both indices fit a `u16`.
    fn cell_of(&self, e: &Event) -> (u16, u16) {
        (
            (e.x as f64 / self.cell_size).floor() as u16,
            (e.y as f64 / self.cell_size).floor() as u16,
        )
    }

    /// Scans the 3×3 cell neighbourhood of `event` for connection
    /// candidates strictly older than `seq_limit`, applying the horizon
    /// and radius filters, into `self.candidates` as `(slot, seq, dist²)`
    /// triples in deterministic bucket-then-FIFO order.
    fn scan_candidates(&mut self, event: &Event, seq_limit: u64, ops: &mut OpCount) {
        let p = self.config.point_of(event);
        let r_sq = self.config.radius * self.config.radius;
        let (cx, cy) = self.cell_of(event);
        self.candidates.clear();
        if self.grid.buckets.is_empty() {
            return; // nothing indexed yet
        }
        for dy in -1..=1 {
            for dx in -1..=1 {
                // Cells outside the u16 range hold no event.
                let (Ok(nx), Ok(ny)) =
                    (u16::try_from(cx as i32 + dx), u16::try_from(cy as i32 + dy))
                else {
                    continue;
                };
                let cell = (nx, ny);
                let mut s = self.grid.buckets[self.grid.bucket_of(cell)].0;
                while s != NIL {
                    let e = &self.grid.entries[s as usize];
                    if e.seq >= seq_limit {
                        // Buckets are seq-ordered: everything after this
                        // entry is newer still.
                        break;
                    }
                    let slot = s;
                    s = e.next;
                    if e.cell != cell {
                        continue; // another cell folded onto this bucket
                    }
                    ops.record_mult(4);
                    ops.record_compare(2);
                    if event.t.saturating_since(e.event.t) > self.config.horizon_us {
                        continue;
                    }
                    let d = crate::build::dist_sq(&self.config.point_of(&e.event), &p);
                    if d <= r_sq {
                        self.candidates.push((slot, e.seq, d));
                    }
                }
            }
        }
    }

    /// Evicts the globally oldest live node: removes it from the order
    /// ring and its bucket FIFO, scrubs it from every out-neighbour's list
    /// (collecting those into `touched` for re-selection), tombstones the
    /// slot, and recycles it.
    fn evict_front(&mut self, evicted: &mut Vec<u32>, touched: &mut Vec<u32>) {
        let Some(s) = self.order.pop_front() else {
            return;
        };
        let slot = s as usize;
        self.grid.pop_front(s);
        // All of this node's in-neighbours are older, hence already
        // evicted and already scrubbed from this list.
        debug_assert!(self.slots[slot].nbrs.is_empty(), "stale in-edges at eviction");
        let mut o = self.slots[slot].out_head;
        while o != NIL {
            let nb = &mut self.slots[o as usize];
            let k = nb.nbrs.iter().position(|&x| x == s);
            let next = k.map_or(NIL, |k| nb.links[k]);
            if let Some(k) = k {
                nb.nbrs.remove(k);
                nb.links.remove(k);
            }
            touched.push(o);
            o = next;
        }
        let sl = &mut self.slots[slot];
        sl.out_head = NIL;
        sl.out_tail = NIL;
        sl.out_len = 0;
        sl.nbrs.clear();
        sl.links.clear();
        sl.live = false;
        self.free.push_back(s);
        evicted.push(s);
    }

    /// Re-selects the neighbourhood of live slot `i` from the currently
    /// live earlier nodes, updating the out-edge lists of removed/added
    /// neighbours.
    fn reselect(&mut self, i: u32, ops: &mut OpCount) {
        let slot = i as usize;
        let event = self.slots[slot].event;
        let seq_i = self.slots[slot].seq;
        self.scan_candidates(&event, seq_i, ops);
        select_nearest(&mut self.candidates, self.config.max_degree);
        // Diff the (tiny, ≤ max_degree) lists to keep out-edges exact:
        // unthread `i` from the neighbours it drops (while it still lists
        // them), rewrite its list keeping the links of the neighbours it
        // keeps, then thread it into the neighbours it gains.
        let sl = &self.slots[slot];
        self.old_nbrs.clear();
        self.old_nbrs
            .extend(sl.nbrs.iter().copied().zip(sl.links.iter().copied()));
        for k in 0..self.old_nbrs.len() {
            let j = self.old_nbrs[k].0;
            if !self.candidates.iter().any(|c| c.0 == j) {
                self.out_remove(j, i);
            }
        }
        let sl = &mut self.slots[slot];
        sl.nbrs.clear();
        sl.links.clear();
        for &(j, _, _) in &self.candidates {
            let kept = self.old_nbrs.iter().find(|&&(n, _)| n == j);
            sl.nbrs.push(j);
            sl.links.push(kept.map_or(NIL, |&(_, link)| link));
        }
        for k in 0..self.candidates.len() {
            let j = self.candidates[k].0;
            if !self.old_nbrs.iter().any(|&(n, _)| n == j) {
                self.out_insert(j, i);
            }
        }
        obs::counter_add("gnn.window.reselects", 1);
    }

    /// Inserts one event: applies the eviction policy, repairs the touched
    /// neighbourhoods, then connects the new node — all in the order a
    /// from-scratch build over the resulting trailing window would see.
    ///
    /// # Panics
    ///
    /// Panics if the event is older than the previous push.
    pub fn push(&mut self, event: Event, ops: &mut OpCount) -> PushOutcome {
        let mut outcome = PushOutcome::default();
        self.push_into(event, ops, &mut outcome);
        outcome
    }

    /// [`SlidingWindowGraph::push`] into a caller-owned outcome, whose
    /// lists are cleared and refilled: with the window's own reused scan
    /// buffers, a push allocates nothing once the slot table, the grid
    /// and the per-slot lists have reached their steady sizes.
    pub(crate) fn push_into(&mut self, event: Event, ops: &mut OpCount, out: &mut PushOutcome) {
        let t = event.t.as_micros();
        if let Some(last) = self.last_t {
            assert!(t >= last, "events must arrive in time order");
        }
        self.last_t = Some(t);

        out.evicted.clear();
        out.reselected.clear();
        // 1. Age bound relative to the incoming event.
        if let Some(age) = self.policy.max_age_us() {
            while let Some(&oldest) = self.order.front() {
                if event.t.saturating_since(self.slots[oldest as usize].event.t) > age {
                    self.evict_front(&mut out.evicted, &mut out.reselected);
                } else {
                    break;
                }
            }
        }
        // 2. Count bound: make room for the insert.
        let cap = self.policy.max_nodes();
        while self.order.len() >= cap {
            self.evict_front(&mut out.evicted, &mut out.reselected);
        }
        // 3. Repair the survivors whose lists lost an evicted neighbour —
        //    after *all* evictions, so re-selection never sees a node that
        //    this same push is about to remove.
        let slots = &self.slots;
        out.reselected.retain(|&i| slots[i as usize].live);
        out.reselected
            .sort_unstable_by_key(|&i| slots[i as usize].seq);
        out.reselected.dedup();
        for &i in &out.reselected {
            self.reselect(i, ops);
        }
        // 4. Insert and connect the new node.
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scan_candidates(&event, seq, ops);
        select_nearest(&mut self.candidates, self.config.max_degree);
        let s = match self.free.pop_front() {
            Some(s) => s,
            None => {
                self.slots.push(Slot::new(event, seq));
                (self.slots.len() - 1) as u32
            }
        };
        {
            let sl = &mut self.slots[s as usize];
            sl.event = event;
            sl.seq = seq;
            sl.nbrs.clear();
            sl.nbrs.extend(self.candidates.iter().map(|c| c.0));
            sl.links.clear();
            sl.links.resize(sl.nbrs.len(), NIL);
            sl.live = true;
        }
        for k in 0..self.candidates.len() {
            // The new node has the maximum seq: it joins each out-list at
            // the tail.
            self.out_insert(self.candidates[k].0, s);
        }
        let cell = self.cell_of(&event);
        self.grid.cover(cell, self.order.iter().copied());
        self.grid.append(s, seq, event, cell);
        self.order.push_back(s);
        ops.record_write(1);
        obs::counter_add("gnn.window.inserts", 1);
        obs::counter_add("gnn.window.evictions", out.evicted.len() as u64);
        check::run(self);
        out.inserted = s;
    }

    /// Serializes the full window state — slot table (events, seqs,
    /// neighbour and out-edge lists, tombstones), live order, free list
    /// and time cursor. The spatial cell index is *not* recorded: it is
    /// rebuilt on load by replaying the live order, which reproduces the
    /// per-cell seq-ordered FIFOs exactly. Construction parameters
    /// (config, policy) are not recorded either; the recovery path
    /// rebuilds the window with the same parameters before
    /// [`SlidingWindowGraph::load_state`].
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.slots.len() as u64);
        for (i, s) in self.slots.iter().enumerate() {
            enc.put_u64(s.event.t.as_micros());
            enc.put_u16(s.event.x);
            enc.put_u16(s.event.y);
            enc.put_bool(s.event.polarity == evlab_events::Polarity::On);
            enc.put_u64(s.seq);
            enc.put_u32_slice(&s.nbrs);
            enc.put_u64(s.out_len as u64);
            for (sq, o) in self.out_edges(i) {
                enc.put_u64(sq);
                enc.put_u32(o);
            }
            enc.put_bool(s.live);
        }
        enc.put_u32_slice(&self.order.iter().copied().collect::<Vec<u32>>());
        enc.put_u32_slice(&self.free.iter().copied().collect::<Vec<u32>>());
        enc.put_u64(self.next_seq);
        enc.put_opt_u64(self.last_t);
    }

    /// Restores state written by [`SlidingWindowGraph::save_state`] into
    /// an identically-configured window, bit-exactly (the compacted graph,
    /// every future push outcome and the spatial index all match the
    /// uninterrupted original).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on truncation or on slot references outside
    /// the serialized table; the window is left untouched then.
    pub fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        let n = dec.take_u64()? as usize;
        // Each slot is at least 38 bytes: a corrupt count cannot
        // over-allocate.
        if n as u64 > dec.remaining() as u64 / 38 {
            return Err(dec.corrupt(format!("{n} slots exceed the payload")));
        }
        let mut slots = Vec::with_capacity(n);
        // The recorded out-lists: the store threads its own from the
        // in-lists, and the two must agree.
        let mut recorded_outs = Vec::with_capacity(n);
        for _ in 0..n {
            let t = dec.take_u64()?;
            let x = dec.take_u16()?;
            let y = dec.take_u16()?;
            let on = dec.take_bool()?;
            let seq = dec.take_u64()?;
            let nbrs = dec.take_u32_vec()?;
            let m = dec.take_u64()? as usize;
            if m as u64 > dec.remaining() as u64 / 12 {
                return Err(dec.corrupt(format!("{m} out-edges exceed the payload")));
            }
            let mut outs = Vec::with_capacity(m);
            for _ in 0..m {
                let sq = dec.take_u64()?;
                let o = dec.take_u32()?;
                outs.push((sq, o));
            }
            let live = dec.take_bool()?;
            let polarity = if on {
                evlab_events::Polarity::On
            } else {
                evlab_events::Polarity::Off
            };
            let mut slot = Slot::new(Event::new(t, x, y, polarity), seq);
            slot.links = vec![NIL; nbrs.len()];
            slot.nbrs = nbrs;
            slot.live = live;
            slots.push(slot);
            recorded_outs.push(outs);
        }
        let order = dec.take_u32_vec()?;
        let free = dec.take_u32_vec()?;
        let next_seq = dec.take_u64()?;
        let last_t = dec.take_opt_u64()?;
        let in_range = |i: u32| (i as usize) < slots.len();
        for (s, outs) in slots.iter().zip(&recorded_outs) {
            if !s.nbrs.iter().copied().all(in_range) || !outs.iter().all(|&(_, o)| in_range(o)) {
                return Err(dec.corrupt("edge references a slot outside the table"));
            }
        }
        if !order.iter().copied().all(in_range) || !free.iter().copied().all(in_range) {
            return Err(dec.corrupt("order/free list references a slot outside the table"));
        }
        // Threading repeats no (node, neighbour) pair only if the live
        // order and every in-list strictly ascend by seq.
        let ascending = |ids: &[u32]| {
            ids.windows(2)
                .all(|w| slots[w[0] as usize].seq < slots[w[1] as usize].seq)
        };
        if !ascending(&order) || !slots.iter().all(|s| ascending(&s.nbrs)) {
            return Err(dec.corrupt("live order or an in-edge list is not strictly seq-ascending"));
        }
        // Assemble a candidate, rebuilding the spatial index from the
        // live order (`order` ascends by seq, so appending reproduces the
        // seq-sorted bucket FIFOs the live push path maintains), then hold
        // it to the full window invariants before committing: a
        // checksum-passing but semantically corrupt snapshot must surface
        // as a typed error with the window left untouched.
        let mut candidate = SlidingWindowGraph {
            config: self.config,
            policy: self.policy,
            slots,
            order: order.into_iter().collect(),
            free: free.into_iter().collect(),
            grid: CellGrid::default(),
            cell_size: self.cell_size,
            next_seq,
            last_t,
            candidates: Vec::new(),
            old_nbrs: Vec::new(),
        };
        for idx in 0..candidate.order.len() {
            let i = candidate.order[idx];
            let (seq, event) = (
                candidate.slots[i as usize].seq,
                candidate.slots[i as usize].event,
            );
            let cell = candidate.cell_of(&event);
            candidate
                .grid
                .cover(cell, candidate.order.range(..idx).copied());
            candidate.grid.append(i, seq, event, cell);
            for k in 0..candidate.slots[i as usize].nbrs.len() {
                let j = candidate.slots[i as usize].nbrs[k];
                candidate.out_insert(j, i);
            }
        }
        for (i, outs) in recorded_outs.iter().enumerate() {
            if !candidate.out_edges(i).eq(outs.iter().copied()) {
                return Err(dec.corrupt(format!(
                    "slot {i} out-edges disagree with the in-edge lists"
                )));
            }
        }
        if let Some(violation) = check::verify(&candidate).into_iter().next() {
            return Err(dec.corrupt(format!("snapshot violates invariant: {violation}")));
        }
        *self = candidate;
        Ok(())
    }

    /// Compacts the live window into a dense [`EventGraph`]: nodes in seq
    /// (time) order, neighbour slot ids remapped to dense indices. This is
    /// the bridge to every batch consumer — and the object the oracle
    /// property test compares against a from-scratch build.
    pub fn to_event_graph(&self) -> EventGraph {
        let mut map = vec![u32::MAX; self.slots.len()];
        for (dense, &s) in self.order.iter().enumerate() {
            map[s as usize] = dense as u32;
        }
        let mut g = EventGraph::new(self.config.beta);
        for &s in &self.order {
            let sl = &self.slots[s as usize];
            let nbrs: Vec<u32> = sl.nbrs.iter().map(|&j| map[j as usize]).collect();
            g.push_node(sl.event, nbrs);
        }
        g
    }
}

/// Machine-checked form of the slot-stability contract
/// ([`evlab_util::check`]): run after every `push` and against every
/// restored snapshot.
impl Invariant for SlidingWindowGraph {
    fn invariant_name(&self) -> &'static str {
        "sliding-window"
    }

    fn check_invariants(&self, r: &mut Report) {
        // Every slot is either live (on the order ring) or tombstoned
        // (on the free list) — slots are never leaked or double-booked.
        r.require(self.order.len() + self.free.len() == self.slots.len(), || {
            format!(
                "{} live + {} free != {} slots",
                self.order.len(),
                self.free.len(),
                self.slots.len()
            )
        });
        r.require(self.order.len() <= self.policy.max_nodes(), || {
            format!(
                "{} live nodes exceed the count bound {}",
                self.order.len(),
                self.policy.max_nodes()
            )
        });
        if !self.order.is_empty() {
            r.require(self.last_t.is_some(), || {
                "live nodes but no time cursor".to_string()
            });
        }
        let in_range = |i: u32| (i as usize) < self.slots.len();
        let mut prev_seq: Option<u64> = None;
        let (mut in_edges, mut out_edges) = (0usize, 0usize);
        for &s in &self.order {
            if !in_range(s) {
                r.require(false, || format!("order entry {s} out of range"));
                continue;
            }
            let sl = &self.slots[s as usize];
            r.require(sl.live, || format!("order entry {s} is tombstoned"));
            r.require(sl.seq < self.next_seq, || {
                format!("slot {s} seq {} not below next_seq {}", sl.seq, self.next_seq)
            });
            r.require(prev_seq.is_none_or(|p| p < sl.seq), || {
                format!("order ring not strictly seq-ascending at slot {s}")
            });
            prev_seq = Some(sl.seq);
            let t = sl.event.t.as_micros();
            r.require(self.last_t.is_some_and(|last| t <= last), || {
                format!("live slot {s} at t {t} is newer than the cursor {:?}", self.last_t)
            });
            if let (Some(age), Some(last)) = (self.policy.max_age_us(), self.last_t) {
                r.require(last.saturating_sub(t) <= age, || {
                    format!("live slot {s} is {}us old, bound {age}us", last - t)
                });
            }
            r.require(sl.nbrs.len() <= self.config.max_degree, || {
                format!("slot {s} holds {} in-edges, cap {}", sl.nbrs.len(), self.config.max_degree)
            });
            // In-neighbours: live, strictly older, seq-ascending (so
            // duplicate-free).
            in_edges += sl.nbrs.len();
            let mut prev_nbr: Option<u64> = None;
            for &j in &sl.nbrs {
                if !in_range(j) {
                    r.require(false, || format!("slot {s} in-edge {j} out of range"));
                    continue;
                }
                let nb = &self.slots[j as usize];
                r.require(nb.live, || format!("slot {s} in-edge to tombstoned {j}"));
                r.require(nb.seq < sl.seq, || {
                    format!("slot {s} in-edge to non-older {j}")
                });
                r.require(prev_nbr.is_none_or(|p| p < nb.seq), || {
                    format!("slot {s} in-edges not strictly seq-ascending")
                });
                prev_nbr = Some(nb.seq);
            }
            r.require(sl.links.len() == sl.nbrs.len(), || {
                format!(
                    "slot {s} has {} links for {} in-edges",
                    sl.links.len(),
                    sl.nbrs.len()
                )
            });
            // Out-edges: live newer nodes, seq-ascending (so duplicate-free),
            // each mirrored by an in-edge, with a consistent tail and count.
            let mut prev_out: Option<u64> = None;
            let (mut walked, mut last) = (0u32, NIL);
            for (sq, o) in self.out_edges(s as usize) {
                walked += 1;
                out_edges += 1;
                last = o;
                let ob = &self.slots[o as usize];
                r.require(ob.live && sq > sl.seq, || {
                    format!("slot {s} out-edge ({sq}, {o}) is stale")
                });
                r.require(prev_out.is_none_or(|p| p < sq), || {
                    format!("slot {s} out-edges not strictly seq-ascending")
                });
                prev_out = Some(sq);
                r.require(ob.nbrs.contains(&s), || {
                    format!("slot {s} out-edge to {o} lacks the mirror in-edge")
                });
            }
            r.require(walked == sl.out_len && last == sl.out_tail, || {
                format!(
                    "slot {s} out-list walks {walked} entries to {last}, records {} to {}",
                    sl.out_len, sl.out_tail
                )
            });
        }
        // Every out-edge mirrors a distinct in-edge; equal totals then
        // mean every in-edge is mirrored by an out-edge too.
        r.require(in_edges == out_edges, || {
            format!("{in_edges} in-edges but {out_edges} out-edges among live nodes")
        });
        for &s in &self.free {
            if !in_range(s) {
                r.require(false, || format!("free entry {s} out of range"));
                continue;
            }
            let sl = &self.slots[s as usize];
            r.require(!sl.live, || format!("free entry {s} is still live"));
            r.require(sl.nbrs.is_empty() && sl.out_len == 0 && sl.out_head == NIL, || {
                format!("tombstoned slot {s} kept stale edges")
            });
        }
        // Spatial index: the bucket FIFOs hold exactly the live set, each
        // entry a faithful copy of its slot, filed under its own cell's
        // bucket, oldest first.
        let g = &self.grid;
        r.require(g.buckets.len() == g.cols * g.rows, || {
            format!(
                "{} buckets for a {}x{} grid",
                g.buckets.len(),
                g.cols,
                g.rows
            )
        });
        let mut indexed = 0usize;
        for (b, &(head, tail)) in g.buckets.iter().enumerate() {
            let mut prev: Option<u64> = None;
            let mut last = NIL;
            let mut s = head;
            // Bounded walk: a corrupt link cannot loop forever.
            while s != NIL && indexed <= self.slots.len() {
                indexed += 1;
                if !in_range(s) || s as usize >= g.entries.len() {
                    r.require(false, || format!("bucket {b} entry {s} out of range"));
                    break;
                }
                let (e, sl) = (&g.entries[s as usize], &self.slots[s as usize]);
                r.require(sl.live, || format!("bucket {b} indexes tombstoned {s}"));
                r.require(e.seq == sl.seq && e.event == sl.event, || {
                    format!("bucket {b} entry {s} disagrees with its slot")
                });
                r.require(e.cell == self.cell_of(&sl.event) && g.bucket_of(e.cell) == b, || {
                    format!("slot {s} filed under the wrong bucket {b}")
                });
                r.require(prev.is_none_or(|p| p < e.seq), || {
                    format!("bucket {b} FIFO not seq-ascending")
                });
                prev = Some(e.seq);
                last = s;
                s = e.next;
            }
            r.require(tail == last, || {
                format!("bucket {b} tail {tail} is not its last entry {last}")
            });
        }
        r.require(indexed == self.order.len(), || {
            format!("{indexed} indexed ids != {} live nodes", self.order.len())
        });
    }
}

impl GraphView for SlidingWindowGraph {
    fn in_neighbors(&self, i: usize) -> &[u32] {
        &self.slots[i].nbrs
    }

    fn relative_offset(&self, i: usize, j: usize) -> [f32; 3] {
        let a = &self.slots[i].event;
        let b = &self.slots[j].event;
        [
            a.x as f32 - b.x as f32,
            a.y as f32 - b.y as f32,
            ((a.t.as_micros() as f64 - b.t.as_micros() as f64) * self.config.beta) as f32,
        ]
    }

    fn node_features(&self, i: usize) -> [f32; 2] {
        match self.slots[i].event.polarity {
            evlab_events::Polarity::On => [1.0, 0.0],
            evlab_events::Polarity::Off => [0.0, 1.0],
        }
    }
}

/// [`GraphBuilder`] adapter over the windowed store: streams events
/// through the window and snapshots the live graph on `finish`. With an
/// unbounded policy this is a fourth full-graph construction strategy,
/// equivalent to the other three.
#[derive(Debug, Clone)]
pub struct WindowedGraphBuilder {
    window: SlidingWindowGraph,
    snapshot: EventGraph,
    built: bool,
}

impl WindowedGraphBuilder {
    /// Creates a builder over a window with the given policy.
    pub fn new(config: GraphConfig, policy: WindowPolicy) -> Self {
        WindowedGraphBuilder {
            snapshot: EventGraph::new(config.beta),
            window: SlidingWindowGraph::new(config, policy),
            built: false,
        }
    }

    /// The live window behind the builder.
    pub fn window(&self) -> &SlidingWindowGraph {
        &self.window
    }

    /// Consumes the builder, returning the snapshot graph (callers should
    /// `finish` first).
    pub fn into_graph(self) -> EventGraph {
        self.snapshot
    }
}

impl GraphBuilder for WindowedGraphBuilder {
    fn name(&self) -> &'static str {
        "windowed"
    }

    fn insert(&mut self, event: Event, ops: &mut OpCount) {
        self.window.push(event, ops);
        self.built = false;
    }

    fn finish(&mut self, _ops: &mut OpCount) {
        if self.built {
            return;
        }
        self.snapshot = self.window.to_event_graph();
        self.built = true;
        crate::build::record_build_obs(&self.snapshot);
    }

    fn graph(&self) -> &EventGraph {
        &self.snapshot
    }
}

/// Streaming inference engine over a [`SlidingWindowGraph`]: per-event
/// logits with bounded memory and **no full-graph rebuilds**.
///
/// Per-slot feature rows are cached for every layer; a push recomputes
/// only the frontier of nodes whose inputs changed:
///
/// * frontier₀ = the re-selected survivors ∪ the inserted node (input
///   polarity features never change, so nothing else can change at the
///   first layer);
/// * frontierₗ₊₁ = frontierₗ ∪ out-neighbours(frontierₗ) (a layer-`l`
///   change propagates exactly one hop along out-edges per layer).
///
/// Each layer also caches, per slot, the neighbour projection of the
/// slot's input row (`W_nbr·h_j`, or the `K³` control-point blocks
/// `W_k·h_j` of the spline kernel). A projection is refreshed only when
/// its input row changes — the inserted node at layer 0, the nodes of
/// frontierₗ₋₁ at layer `l` — so an edge costs `out × 3` MACs instead of
/// `out × (in + 3)`. The projections are derived state: they are rebuilt
/// from the restored rows on [`WindowedGnn::load_state`] and never
/// serialized. The frozen layers run a lane-parallel kernel over
/// transposed weights that reproduces [`crate::network::AnyConv::node_forward`]
/// bit for bit, so the logits equal those of a plain frontier recompute.
///
/// The running mean-pool is kept as an f64 sum: evicted rows are
/// subtracted, recomputed rows swapped, so pooling stays O(classes) per
/// event regardless of window size.
#[derive(Clone)]
pub struct WindowedGnn {
    net: GnnNetwork,
    /// The network's conv layers in streaming form (transposed weights).
    kernels: Vec<LaneKernel>,
    graph: SlidingWindowGraph,
    /// Polarity input features, row per slot.
    input_features: NodeFeatures,
    /// Cached per-layer node features, rows per slot.
    layer_features: Vec<NodeFeatures>,
    /// Cached per-layer neighbour projections of each slot's input row,
    /// rows per slot (derived from the feature rows; not serialized).
    projections: Vec<NodeFeatures>,
    /// Running sum of live final-layer rows (f64 so long streams of
    /// add/subtract pairs cannot drift the pool).
    pool_sum: Vec<f64>,
    classes: usize,
    scratch: UpdateScratch,
}

/// Buffers [`WindowedGnn::update`] reuses across events, so that once
/// they have grown to their steady sizes the only allocation per event is
/// the returned logits tensor.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    outcome: PushOutcome,
    /// Frontiers as `(seq, slot)`, ascending by seq: the previous layer's
    /// (whose rows feed this layer's projections), the current one, and
    /// the next one under construction.
    prev: Vec<(u64, u32)>,
    cur: Vec<(u64, u32)>,
    next: Vec<(u64, u32)>,
    row: Vec<f32>,
    agg: Vec<f32>,
    pooled: Vec<f32>,
}

impl WindowedGnn {
    /// Creates an engine over a trained network, graph configuration and
    /// window policy.
    pub fn new(
        net: GnnNetwork,
        config: GraphConfig,
        policy: WindowPolicy,
        classes: usize,
    ) -> Self {
        let kernels: Vec<LaneKernel> = net.convs().iter().map(|c| c.lanes()).collect();
        let last = kernels
            .last()
            .unwrap_or_else(|| panic!("at least one conv layer"))
            .out_dim();
        let widest = kernels.iter().map(LaneKernel::out_dim).max().unwrap_or(0);
        WindowedGnn {
            graph: SlidingWindowGraph::new(config, policy),
            input_features: NodeFeatures::zeros(0, 2),
            layer_features: kernels
                .iter()
                .map(|k| NodeFeatures::zeros(0, k.out_dim()))
                .collect(),
            projections: kernels
                .iter()
                .map(|k| NodeFeatures::zeros(0, k.proj_dim()))
                .collect(),
            kernels,
            pool_sum: vec![0.0; last],
            net,
            classes,
            scratch: UpdateScratch {
                row: vec![0.0; widest],
                agg: vec![0.0; widest],
                ..UpdateScratch::default()
            },
        }
    }

    /// Number of live nodes in the window.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The window store.
    pub fn graph(&self) -> &SlidingWindowGraph {
        &self.graph
    }

    /// Shared access to the wrapped network.
    pub fn network(&self) -> &GnnNetwork {
        &self.net
    }

    /// Drops all window state (nodes, cached features and projections,
    /// pooled sum) while keeping the trained weights and the allocations
    /// — session start, not memory bounding: steady-state memory is
    /// bounded by the eviction policy alone.
    pub fn reset(&mut self) {
        self.graph.clear();
        self.input_features.resize_nodes(0);
        for f in self.layer_features.iter_mut().chain(&mut self.projections) {
            f.resize_nodes(0);
        }
        for s in &mut self.pool_sum {
            *s = 0.0;
        }
    }

    /// Serializes the session-mutable state: the window store, the
    /// per-slot feature caches for every layer, and the running f64 pool
    /// accumulator (exact bit pattern — the pool is history-dependent, so
    /// recomputing it from the restored rows would *not* reproduce the
    /// pre-crash bits). The trained network is a construction input and
    /// is not recorded, and neither are the neighbour projections: they
    /// are a pure function of the feature rows.
    pub fn save_state(&self, enc: &mut Encoder) {
        self.graph.save_state(enc);
        save_features(&self.input_features, enc);
        enc.put_u64(self.layer_features.len() as u64);
        for f in &self.layer_features {
            save_features(f, enc);
        }
        enc.put_f64_slice(&self.pool_sum);
    }

    /// Restores state written by [`WindowedGnn::save_state`] into an
    /// identically-constructed engine, bit-exactly, and rebuilds the
    /// neighbour projections from the restored rows.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on truncation, corruption, shapes that do
    /// not match this engine's layer dimensions, or feature caches whose
    /// row count differs from the restored window's slot count; the
    /// engine is left untouched then.
    pub fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
        let mut graph = self.graph.clone();
        graph.load_state(dec)?;
        let slots = graph.slot_count();
        let rows_match = |f: &NodeFeatures, what: &str, dec: &Decoder| {
            if f.nodes() == slots {
                Ok(())
            } else {
                Err(dec.corrupt(format!(
                    "{what} holds {} rows for {slots} window slots",
                    f.nodes()
                )))
            }
        };
        let input_features = load_features(2, dec)?;
        rows_match(&input_features, "input feature cache", dec)?;
        let layers = dec.take_u64()? as usize;
        if layers != self.layer_features.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {layers} feature layers, engine has {}",
                self.layer_features.len()
            )));
        }
        let mut layer_features = Vec::with_capacity(layers);
        for (l, f) in self.layer_features.iter().enumerate() {
            let loaded = load_features(f.dim(), dec)?;
            rows_match(&loaded, &format!("layer {l} feature cache"), dec)?;
            layer_features.push(loaded);
        }
        let pool_sum = dec.take_f64_vec()?;
        if pool_sum.len() != self.pool_sum.len() {
            return Err(dec.corrupt(format!(
                "pool width {} != engine width {}",
                pool_sum.len(),
                self.pool_sum.len()
            )));
        }
        let mut ops = OpCount::new();
        let projections = self
            .kernels
            .iter()
            .enumerate()
            .map(|(l, k)| {
                let input = if l == 0 {
                    &input_features
                } else {
                    &layer_features[l - 1]
                };
                let mut proj = NodeFeatures::zeros(slots, k.proj_dim());
                for j in 0..slots {
                    k.project(input.row(j), proj.row_mut(j), &mut ops);
                }
                proj
            })
            .collect();
        self.graph = graph;
        self.input_features = input_features;
        self.layer_features = layer_features;
        self.projections = projections;
        self.pool_sum = pool_sum;
        Ok(())
    }

    /// Processes one event and returns the updated class logits.
    pub fn update(&mut self, event: Event, ops: &mut OpCount) -> Tensor {
        let s = &mut self.scratch;
        self.graph.push_into(event, ops, &mut s.outcome);
        let last = self.layer_features.len() - 1;
        // Evicted rows leave the pool before anything is recomputed.
        for &e in &s.outcome.evicted {
            if (e as usize) < self.layer_features[last].nodes() {
                let row = self.layer_features[last].row(e as usize);
                for (p, &v) in self.pool_sum.iter_mut().zip(row) {
                    *p -= v as f64;
                }
            }
        }
        ops.record_add((s.outcome.evicted.len() * self.pool_sum.len()) as u64);
        // Feature and projection caches are slot-indexed; grow them with
        // the slot table.
        let slots = self.graph.slot_count();
        self.input_features.resize_nodes(slots);
        for f in self.layer_features.iter_mut().chain(&mut self.projections) {
            f.resize_nodes(slots);
        }
        let inserted = s.outcome.inserted;
        let feat = self.graph.node_features(inserted as usize);
        self.input_features
            .row_mut(inserted as usize)
            .copy_from_slice(&feat);

        // Frontier as (seq, slot), ascending by seq; the inserted node has
        // the maximum seq, so appending keeps the order. At layer 0 only
        // the inserted node's input row changed.
        let ins = (self.graph.seq(inserted as usize), inserted);
        s.cur.clear();
        s.cur.extend(
            s.outcome
                .reselected
                .iter()
                .map(|&r| (self.graph.seq(r as usize), r)),
        );
        s.cur.push(ins);
        s.prev.clear();
        s.prev.push(ins);
        let mut recomputed = 0u64;
        for l in 0..=last {
            let (done, rest) = self.layer_features.split_at_mut(l);
            let input = if l == 0 {
                &self.input_features
            } else {
                &done[l - 1]
            };
            let output = &mut rest[0];
            let kernel = &self.kernels[l];
            let proj = &mut self.projections[l];
            // Refresh the projections of the rows this layer's input
            // changed in, before any frontier node reads them.
            for &(_, j) in &s.prev {
                kernel.project(input.row(j as usize), proj.row_mut(j as usize), ops);
            }
            recomputed += s.cur.len() as u64;
            let width = kernel.out_dim();
            for &(_, fi) in &s.cur {
                let idx = fi as usize;
                kernel.node_forward(
                    &self.graph,
                    input.row(idx),
                    proj,
                    idx,
                    &mut s.row,
                    &mut s.agg,
                    ops,
                );
                let row = &mut s.row[..width];
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
                if l == last {
                    // Swap this node's contribution in the running pool.
                    if fi != inserted {
                        for (p, &v) in self.pool_sum.iter_mut().zip(output.row(idx)) {
                            *p -= v as f64;
                        }
                    }
                    for (p, &v) in self.pool_sum.iter_mut().zip(row.iter()) {
                        *p += v as f64;
                    }
                    ops.record_add(2 * self.pool_sum.len() as u64);
                }
                output.row_mut(idx).copy_from_slice(row);
            }
            if l < last {
                // One-hop propagation: out-neighbours inherit the change.
                s.next.clear();
                s.next.extend_from_slice(&s.cur);
                for &(_, fi) in &s.cur {
                    s.next.extend(self.graph.out_edges(fi as usize));
                }
                s.next.sort_unstable_by_key(|&(sq, _)| sq);
                s.next.dedup();
                std::mem::swap(&mut s.prev, &mut s.cur);
                std::mem::swap(&mut s.cur, &mut s.next);
            }
        }
        obs::counter_add("gnn.window.updates", 1);
        obs::counter_add("gnn.window.recomputed_rows", recomputed);

        let n = self.graph.node_count() as f64;
        s.pooled.clear();
        s.pooled
            .extend(self.pool_sum.iter().map(|&p| (p / n) as f32));
        ops.record_mult(s.pooled.len() as u64);
        let logits = self.net.head_logits(&s.pooled, ops);
        Tensor::from_vec(&[self.classes], logits)
            .unwrap_or_else(|e| panic!("logit shape: {e}"))
    }
}

/// Serializes a slot-indexed feature cache: row count, then every row's
/// f32 bit patterns (the dimension is a construction input).
fn save_features(f: &NodeFeatures, enc: &mut Encoder) {
    enc.put_u64(f.nodes() as u64);
    for i in 0..f.nodes() {
        for &v in f.row(i) {
            enc.put_f32(v);
        }
    }
}

/// Restores a feature cache written by [`save_features`] at a known
/// dimension.
fn load_features(dim: usize, dec: &mut Decoder) -> Result<NodeFeatures, FrameError> {
    let n = dec.take_u64()?;
    if n.saturating_mul(dim.max(1) as u64).saturating_mul(4) > dec.remaining() as u64 {
        return Err(dec.corrupt(format!("{n} feature rows exceed the payload")));
    }
    let mut f = NodeFeatures::zeros(n as usize, dim);
    for i in 0..n as usize {
        for v in f.row_mut(i) {
            *v = dec.take_f32()?;
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::kdtree_build;
    use crate::network::GnnConfig;
    use evlab_events::Polarity;
    use evlab_util::Rng64;

    fn random_events(n: usize, res: u16, span_us: u64, seed: u64) -> Vec<Event> {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut ts: Vec<u64> = (0..n).map(|_| rng.next_below(span_us)).collect();
        ts.sort_unstable();
        ts.iter()
            .map(|&t| {
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
            .collect()
    }

    /// The trailing slice a policy should retain after all events pushed.
    fn trailing(events: &[Event], policy: WindowPolicy) -> Vec<Event> {
        let Some(last) = events.last() else {
            return Vec::new();
        };
        let aged: Vec<Event> = match policy.max_age_us() {
            Some(age) => events
                .iter()
                .filter(|e| last.t.saturating_since(e.t) <= age)
                .copied()
                .collect(),
            None => events.to_vec(),
        };
        let cap = policy.max_nodes();
        let skip = aged.len().saturating_sub(cap);
        aged[skip..].to_vec()
    }

    fn assert_graphs_identical(a: &EventGraph, b: &EventGraph, tag: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{tag}: node count");
        for i in 0..a.node_count() {
            assert_eq!(a.event(i), b.event(i), "{tag}: event {i}");
            assert_eq!(a.in_neighbors(i), b.in_neighbors(i), "{tag}: nbrs {i}");
        }
    }

    #[test]
    fn window_matches_fresh_rebuild_for_every_policy() {
        let events = random_events(600, 48, 120_000, 11);
        let config = GraphConfig::new();
        for policy in [
            WindowPolicy::MaxNodes(64),
            WindowPolicy::MaxAgeUs(20_000),
            WindowPolicy::Both {
                max_nodes: 100,
                max_age_us: 30_000,
            },
        ] {
            let mut w = SlidingWindowGraph::new(config, policy);
            let mut ops = OpCount::new();
            for e in &events {
                w.push(*e, &mut ops);
            }
            let live = trailing(&events, policy);
            assert_eq!(w.node_count(), live.len(), "{policy:?}: live count");
            let mut oracle_ops = OpCount::new();
            let oracle = kdtree_build(&live, &config, &mut oracle_ops);
            assert_graphs_identical(
                &w.to_event_graph(),
                &oracle,
                &format!("{policy:?}"),
            );
        }
    }

    #[test]
    fn eviction_reselects_displaced_candidates() {
        // Node capacity forces the degree cap to matter: coincident
        // events make everyone a candidate of everyone, so evictions must
        // promote previously displaced candidates into the freed slots.
        let events: Vec<Event> = (0..120)
            .map(|i| Event::new(i, 10, 10, Polarity::On))
            .collect();
        let config = GraphConfig::new().with_max_degree(4);
        let policy = WindowPolicy::MaxNodes(16);
        let mut w = SlidingWindowGraph::new(config, policy);
        let mut ops = OpCount::new();
        let mut any_reselect = false;
        for e in &events {
            let out = w.push(*e, &mut ops);
            any_reselect |= !out.reselected.is_empty();
        }
        assert!(any_reselect, "degree-capped evictions must trigger repairs");
        let live = trailing(&events, policy);
        let oracle = kdtree_build(&live, &config, &mut OpCount::new());
        assert_graphs_identical(&w.to_event_graph(), &oracle, "coincident");
    }

    #[test]
    fn folded_grid_matches_fresh_rebuild() {
        // 1 px cells over a 1200 px sensor: the grid stops growing at
        // GRID_CAP cells a side and folds, so buckets mix cells.
        let events = random_events(900, 1_200, 90_000, 13);
        let mut config = GraphConfig::new().with_radius(1.0).with_max_degree(3);
        config.horizon_us = 1_000_000;
        let policy = WindowPolicy::MaxNodes(400);
        let mut w = SlidingWindowGraph::new(config, policy);
        let mut ops = OpCount::new();
        for e in &events {
            w.push(*e, &mut ops);
        }
        assert_eq!(
            (w.grid.cols, w.grid.rows),
            (GRID_CAP, GRID_CAP),
            "grid folded"
        );
        assert!(check::verify(&w).is_empty(), "folded grid invariants");
        let oracle = kdtree_build(&trailing(&events, policy), &config, &mut OpCount::new());
        assert_graphs_identical(&w.to_event_graph(), &oracle, "folded grid");
    }

    #[test]
    fn slot_handles_are_stable_and_reused() {
        let mut w = SlidingWindowGraph::new(GraphConfig::new(), WindowPolicy::MaxNodes(3));
        let mut ops = OpCount::new();
        for i in 0..3u64 {
            w.push(Event::new(i * 10, i as u16, 0, Polarity::On), &mut ops);
        }
        assert_eq!(w.slot_count(), 3);
        let out = w.push(Event::new(40, 3, 0, Polarity::On), &mut ops);
        // The evicted slot is recycled for the insert: no new allocation.
        assert_eq!(w.slot_count(), 3, "ring reuses tombstoned slots");
        assert_eq!(out.evicted, vec![out.inserted], "FIFO slot reuse");
        assert!(w.is_live(out.inserted as usize));
        assert_eq!(w.node_count(), 3);
    }

    #[test]
    fn windowed_builder_agrees_with_batch_builders() {
        let events = random_events(400, 32, 80_000, 3);
        let config = GraphConfig::new();
        let mut ops = OpCount::new();
        let mut b = WindowedGraphBuilder::new(config, WindowPolicy::MaxNodes(usize::MAX));
        for e in &events {
            GraphBuilder::insert(&mut b, *e, &mut ops);
        }
        GraphBuilder::finish(&mut b, &mut ops);
        let oracle = kdtree_build(&events, &config, &mut OpCount::new());
        assert_graphs_identical(b.graph(), &oracle, "unbounded window");
    }

    #[test]
    fn windowed_logits_match_full_recompute_over_trailing_window() {
        // The engine's incremental frontier updates must agree with a full
        // forward pass over the compacted trailing graph (approximately:
        // the engine pools in f64, the batch path in f32).
        let events = random_events(300, 24, 60_000, 7);
        let config = GraphConfig::new();
        let policy = WindowPolicy::MaxNodes(48);
        let net = GnnNetwork::new(
            &GnnConfig::new(3).with_hidden(vec![6, 6]),
            &mut Rng64::seed_from_u64(1),
        );
        let mut engine = WindowedGnn::new(net, config, policy, 3);
        let mut ops = OpCount::new();
        let mut last = Tensor::zeros(&[3]);
        for e in &events {
            last = engine.update(*e, &mut ops);
        }
        let mut batch_net = GnnNetwork::new(
            &GnnConfig::new(3).with_hidden(vec![6, 6]),
            &mut Rng64::seed_from_u64(1),
        );
        let compact = engine.graph().to_event_graph();
        let batch_logits = batch_net.forward(&compact, &mut ops);
        for (a, b) in batch_logits.as_slice().iter().zip(last.as_slice()) {
            assert!((a - b).abs() < 1e-3, "batch {a} vs windowed {b}");
        }
    }

    #[test]
    fn per_event_cost_stays_flat_as_the_window_slides() {
        let events = random_events(2_000, 48, 400_000, 9);
        let net = GnnNetwork::new(&GnnConfig::new(2), &mut Rng64::seed_from_u64(2));
        let mut engine = WindowedGnn::new(
            net,
            GraphConfig::new(),
            WindowPolicy::MaxNodes(256),
            2,
        );
        let mut early = 0u64;
        let mut late = 0u64;
        for (i, e) in events.iter().enumerate() {
            let mut ops = OpCount::new();
            engine.update(*e, &mut ops);
            // Compare saturated steady state (window already full) early
            // vs late: sliding must not introduce growth or spikes.
            if (400..600).contains(&i) {
                early += ops.macs;
            }
            if (1_800..2_000).contains(&i) {
                late += ops.macs;
            }
        }
        assert!(
            late < 3 * early,
            "per-event cost grew as the window slid: early {early} vs late {late}"
        );
    }

    #[test]
    fn window_state_round_trip_resumes_bit_identically() {
        let events = random_events(400, 32, 80_000, 21);
        let config = GraphConfig::new();
        let policy = WindowPolicy::MaxNodes(48);
        let mut oracle = SlidingWindowGraph::new(config, policy);
        let mut ops = OpCount::new();
        for e in &events[..200] {
            oracle.push(*e, &mut ops);
        }
        let mut enc = Encoder::new();
        oracle.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = SlidingWindowGraph::new(config, policy);
        restored
            .load_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        // The restored window must behave identically from here on —
        // same push outcomes, same compacted graph.
        for e in &events[200..] {
            let a = oracle.push(*e, &mut ops);
            let b = restored.push(*e, &mut ops);
            assert_eq!(a.inserted, b.inserted);
            assert_eq!(a.evicted, b.evicted);
            assert_eq!(a.reselected, b.reselected);
        }
        assert_graphs_identical(
            &oracle.to_event_graph(),
            &restored.to_event_graph(),
            "restored window",
        );
    }

    #[test]
    fn engine_state_round_trip_resumes_bit_identically() {
        let events = random_events(300, 24, 60_000, 23);
        let config = GraphConfig::new();
        let policy = WindowPolicy::MaxNodes(48);
        let make_net = || {
            GnnNetwork::new(
                &GnnConfig::new(3).with_hidden(vec![6, 6]),
                &mut Rng64::seed_from_u64(1),
            )
        };
        let mut oracle = WindowedGnn::new(make_net(), config, policy, 3);
        let mut ops = OpCount::new();
        for e in &events[..150] {
            oracle.update(*e, &mut ops);
        }
        let mut enc = Encoder::new();
        oracle.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = WindowedGnn::new(make_net(), config, policy, 3);
        restored
            .load_state(&mut Decoder::new(&bytes))
            .expect("valid state");
        for e in &events[150..] {
            let a = oracle.update(*e, &mut ops);
            let b = restored.update(*e, &mut ops);
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "logits must be bit-identical");
            }
        }
    }

    #[test]
    fn engine_load_rejects_mismatched_shapes() {
        let config = GraphConfig::new();
        let policy = WindowPolicy::MaxNodes(16);
        let net = GnnNetwork::new(
            &GnnConfig::new(3).with_hidden(vec![6, 6]),
            &mut Rng64::seed_from_u64(1),
        );
        let engine = WindowedGnn::new(net, config, policy, 3);
        let mut enc = Encoder::new();
        engine.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let other_net = GnnNetwork::new(
            &GnnConfig::new(3).with_hidden(vec![6]),
            &mut Rng64::seed_from_u64(1),
        );
        let mut other = WindowedGnn::new(other_net, config, policy, 3);
        assert!(other.load_state(&mut Decoder::new(&bytes)).is_err());
    }

    /// The selection `select_nearest` replaces: full sort by (distance,
    /// seq desc), truncate, sort by seq.
    fn select_by_full_sort(mut c: Vec<Candidate>, k: usize) -> Vec<Candidate> {
        c.sort_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });
        c.truncate(k);
        c.sort_by_key(|c| c.1);
        c
    }

    #[test]
    fn partial_top_k_matches_full_sort_on_tied_distances() {
        let mut rng = Rng64::seed_from_u64(31);
        for case in 0..500 {
            let n = rng.next_index(40);
            // Few distinct distances: most candidates tie with others.
            let dists = [0.0, 1.0, 2.0, 2.0, 4.0, 25.0];
            let mut seqs: Vec<u64> = (0..n as u64 * 3).collect();
            rng.shuffle(&mut seqs);
            let cands: Vec<Candidate> = (0..n)
                .map(|i| (i as u32, seqs[i], dists[rng.next_index(dists.len())]))
                .collect();
            for k in [0, 1, 2, 4, 8, 16, 64] {
                let mut got = cands.clone();
                select_nearest(&mut got, k);
                assert_eq!(
                    got,
                    select_by_full_sort(cands.clone(), k),
                    "case {case} k={k}"
                );
            }
        }
    }

    fn make_engine(spline: bool, policy: WindowPolicy) -> WindowedGnn {
        let mut config = GnnConfig::new(3).with_hidden(vec![5, 7]);
        if spline {
            config = config.with_spline_kernel(3);
        }
        let net = GnnNetwork::new(&config, &mut Rng64::seed_from_u64(1));
        WindowedGnn::new(net, GraphConfig::new(), policy, 3)
    }

    fn logit_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn state_bytes(engine: &WindowedGnn) -> Vec<u8> {
        let mut enc = Encoder::new();
        engine.save_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn restored_engine_with_a_served_past_continues_bit_identically() {
        // The subject has served a different stream, so every cached
        // projection it holds is stale for the restored window: unless
        // load rebuilds them, its logits diverge from the oracle's.
        let events = random_events(300, 24, 60_000, 41);
        let other = random_events(200, 24, 40_000, 42);
        for spline in [false, true] {
            for policy in [WindowPolicy::MaxNodes(40), WindowPolicy::MaxAgeUs(9_000)] {
                let mut oracle = make_engine(spline, policy);
                let mut subject = make_engine(spline, policy);
                let mut ops = OpCount::new();
                for e in &events[..150] {
                    oracle.update(*e, &mut ops);
                }
                for e in &other {
                    subject.update(*e, &mut ops);
                }
                let bytes = state_bytes(&oracle);
                subject
                    .load_state(&mut Decoder::new(&bytes))
                    .expect("valid state");
                for (i, e) in events[150..].iter().enumerate() {
                    let (a, b) = (oracle.update(*e, &mut ops), subject.update(*e, &mut ops));
                    assert_eq!(
                        logit_bits(&a),
                        logit_bits(&b),
                        "spline={spline} {policy:?} event {i}"
                    );
                }
                assert_eq!(state_bytes(&oracle), state_bytes(&subject));
            }
        }
    }

    #[test]
    fn reset_engine_replays_like_a_fresh_one() {
        let first = random_events(250, 24, 50_000, 43);
        let second = random_events(250, 24, 50_000, 44);
        for spline in [false, true] {
            let policy = WindowPolicy::Both {
                max_nodes: 48,
                max_age_us: 12_000,
            };
            let mut reused = make_engine(spline, policy);
            let mut fresh = make_engine(spline, policy);
            let mut ops = OpCount::new();
            for e in &first {
                reused.update(*e, &mut ops);
            }
            reused.reset();
            assert_eq!(
                state_bytes(&reused),
                state_bytes(&fresh),
                "spline={spline}: reset state"
            );
            for (i, e) in second.iter().enumerate() {
                let (a, b) = (reused.update(*e, &mut ops), fresh.update(*e, &mut ops));
                assert_eq!(logit_bits(&a), logit_bits(&b), "spline={spline} event {i}");
            }
            assert_eq!(state_bytes(&reused), state_bytes(&fresh));
        }
    }

    #[test]
    fn engine_load_rejects_feature_caches_that_miss_window_slots() {
        // A valid 16-slot window whose feature caches hold the wrong row
        // count is impossible; it must fail typed and leave the engine
        // untouched, not read zero rows (too few) or panic later.
        let policy = WindowPolicy::MaxNodes(16);
        let mut source = make_engine(false, policy);
        let mut ops = OpCount::new();
        for e in &random_events(40, 24, 8_000, 45) {
            source.update(*e, &mut ops);
        }
        assert_eq!(source.graph().slot_count(), 16);
        for rows in [0usize, 15, 17] {
            let put_cache = |enc: &mut Encoder, dim: usize| {
                enc.put_u64(rows as u64);
                for _ in 0..rows * dim {
                    enc.put_f32(0.5);
                }
            };
            let mut enc = Encoder::new();
            source.graph().save_state(&mut enc);
            put_cache(&mut enc, 2);
            enc.put_u64(source.layer_features.len() as u64);
            for f in &source.layer_features {
                put_cache(&mut enc, f.dim());
            }
            enc.put_f64_slice(&source.pool_sum);
            let bytes = enc.into_bytes();
            let mut victim = make_engine(false, policy);
            for e in &random_events(30, 24, 6_000, 46) {
                victim.update(*e, &mut ops);
            }
            let before = state_bytes(&victim);
            assert!(
                victim.load_state(&mut Decoder::new(&bytes)).is_err(),
                "{rows} feature rows for 16 slots loaded"
            );
            assert_eq!(
                state_bytes(&victim),
                before,
                "failed load touched the engine"
            );
        }
    }

    #[test]
    fn age_policy_empties_after_a_long_gap() {
        let mut w = SlidingWindowGraph::new(
            GraphConfig::new(),
            WindowPolicy::MaxAgeUs(1_000),
        );
        let mut ops = OpCount::new();
        for i in 0..5u64 {
            w.push(Event::new(i * 100, 1, 1, Polarity::On), &mut ops);
        }
        assert_eq!(w.node_count(), 5);
        let out = w.push(Event::new(1_000_000, 2, 2, Polarity::On), &mut ops);
        assert_eq!(out.evicted.len(), 5, "everything aged out");
        assert_eq!(w.node_count(), 1);
        assert_eq!(w.to_event_graph().in_neighbors(0), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_rejected() {
        let mut w = SlidingWindowGraph::new(GraphConfig::new(), WindowPolicy::MaxNodes(8));
        let mut ops = OpCount::new();
        w.push(Event::new(100, 1, 1, Polarity::On), &mut ops);
        w.push(Event::new(50, 1, 1, Polarity::On), &mut ops);
    }
}
