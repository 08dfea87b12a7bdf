//! Shared utilities for the `evlab` workspace.
//!
//! This crate is dependency-free and provides the deterministic building
//! blocks every other `evlab` crate relies on:
//!
//! * [`rng::Rng64`] — a seedable xoshiro256++ pseudo-random number generator.
//!   All stochastic components of the workspace (sensor noise, weight
//!   initialization, dataset generation) draw from this generator so that
//!   every experiment is bit-reproducible across platforms.
//! * [`stats`] — running statistics, percentiles and histogram helpers used
//!   by the event-rate analyses and the benchmark reports.
//! * [`lut::ExpDecayLut`] — a lookup table for `exp(-dt/tau)` used by the
//!   event-driven spiking-neuron simulation, mirroring how digital
//!   neuromorphic hardware approximates exponential leak.
//! * [`par`] — the std-only parallel execution layer (one persistent
//!   worker pool, static chunking, ordered reduction) behind every hot
//!   path, controlled by `EVLAB_THREADS`.
//! * [`obs`] — the pipeline observability layer (named counters, span
//!   timers, fixed-bucket histograms) behind the `EVLAB_OBS` toggle, a
//!   no-op single branch on hot paths while off.
//! * [`json::Json`] — a minimal JSON writer/parser so reports and
//!   benchmark artifacts need no external serialization crates.
//! * [`error::EvlabError`] — the workspace-wide umbrella error that the
//!   serve runtime and the bench binaries return instead of `expect`-ing;
//!   the per-crate error types convert into it via `From`.
//! * [`fault`] — the seeded, deterministic fault-injection layer (AER word
//!   corruption, drop/duplication, timestamp disorder, hot pixels, burst
//!   noise, file truncation/torn writes) behind the `EVLAB_FAULTS` spec
//!   string, applied at sensor output, serve ingress and durable files
//!   for chaos runs.
//! * [`frame`] — versioned, CRC-framed binary serialization
//!   ([`frame::StateSnapshot`], checksummed record streams) under the
//!   crash-consistent checkpoint/WAL recovery layer in `evlab-serve`.
//! * [`check`] — the zero-cost-when-off runtime invariant layer behind
//!   `EVLAB_CHECK` (default on in debug builds): core data structures
//!   implement [`check::Invariant`] and their mutating entry points call
//!   [`check::run`], so contract drift panics at the corrupting operation
//!   instead of surfacing many operations later.
//!
//! # Examples
//!
//! ```
//! use evlab_util::rng::Rng64;
//!
//! let mut rng = Rng64::seed_from_u64(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

pub mod check;
pub mod error;
pub mod fault;
pub mod frame;
pub mod json;
pub mod lut;
pub mod obs;
pub mod par;
pub mod rng;
pub mod stats;

pub use error::EvlabError;
pub use lut::ExpDecayLut;
pub use rng::Rng64;
