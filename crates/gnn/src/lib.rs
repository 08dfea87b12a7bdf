//! The event-graph neural network paradigm (paper §IV).
//!
//! "Considering a generated stream of events as a point-cloud in two spatial
//! and one temporal dimensions, a graph can be constructed by connecting
//! events through directed edges based on their euclidean distance." This
//! crate implements that third option end to end:
//!
//! * [`graph`] — the spatiotemporal [`EventGraph`] with strictly causal
//!   (past → future) directed edges.
//! * [`kdtree`] — a 3-D kd-tree for batch neighbour search (the tree-search
//!   baseline of [Zhou et al. 2008] the paper's §IV cites as the latency
//!   bottleneck).
//! * [`build`] — three construction strategies over identical semantics:
//!   naive O(N²) scan, kd-tree batch, and *incremental* insertion with a
//!   spatial hash + sliding time horizon (the "hemispherical update" of
//!   [72] that yields the four-orders-of-magnitude speed-up).
//! * [`conv`] — relational graph convolutions over (Δx, Δy, Δt) edge
//!   offsets with full manual backprop, so the precise event timing is
//!   exploited deep in the network.
//! * [`network`] — graph classifier with global mean pooling.
//! * [`async_update`] — AEGNN-style per-event asynchronous inference: with
//!   causal edges, a new event only adds computation for its own node,
//!   never invalidating cached features.
//! * [`window`] — the true sliding-window engine: a slot-stable ring-buffer
//!   node store with a dense grid index, age/count eviction policies, and
//!   incremental message passing that recomputes only the neighbourhoods
//!   touched by an insert or an evict, over cached per-layer neighbour
//!   projections. Streaming sessions stay within a bounded memory
//!   envelope with **no** full-graph rebuilds.
//! * [`pool`] — voxel-grid graph coarsening.
//!
//! # Examples
//!
//! ```
//! use evlab_events::{Event, EventStream, Polarity};
//! use evlab_gnn::build::{incremental_build, GraphConfig};
//! use evlab_tensor::OpCount;
//!
//! let stream = EventStream::from_events(
//!     (16, 16),
//!     vec![
//!         Event::new(0, 4, 4, Polarity::On),
//!         Event::new(100, 5, 4, Polarity::On),
//!     ],
//! )?;
//! let mut ops = OpCount::new();
//! let graph = incremental_build(stream.as_slice(), &GraphConfig::new(), &mut ops);
//! assert_eq!(graph.node_count(), 2);
//! assert_eq!(graph.edge_count(), 1, "second event links to the first");
//! # Ok::<(), evlab_events::EventOrderError>(())
//! ```

pub mod async_update;
pub mod build;
pub mod conv;
pub mod graph;
pub mod kdtree;
pub mod network;
pub mod pool;
pub mod spline;
pub mod window;

pub use build::{GraphBuilder, GraphConfig};
pub use graph::{EventGraph, GraphView};
pub use network::GnnNetwork;
pub use window::{SlidingWindowGraph, WindowPolicy, WindowedGnn};
