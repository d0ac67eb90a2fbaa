//! # funnelpq-util
//!
//! Dependency-free primitives shared by every `funnelpq` crate:
//!
//! * [`XorShift64Star`] / [`AtomicRng`] — tiny deterministic PRNGs for hot
//!   paths (funnel slot selection, simulated coin flips) where pulling in a
//!   full RNG crate would cost a TLS access per call and an external
//!   dependency the offline build cannot fetch;
//! * [`CachePadded`] — pad-and-align wrapper keeping hot atomics on their
//!   own cache line;
//! * [`Backoff`] — bounded exponential spin/yield backoff for retry loops;
//! * [`Acc`] — running latency accumulator with a 32-bucket log₂ histogram
//!   (p50/p99/p999), shared by the simulator's stats layer and the
//!   `funnelpq-server` end-to-end latency accounting;
//! * [`json`] — the one hand-rolled JSON writer behind every metrics /
//!   bench / telemetry artifact (plus the shared [`json::SCHEMA_VERSION`]
//!   stamp CI validates);
//! * [`chrome`] — Chrome Trace Format document builder shared by the
//!   simulator exporter and `pqbench`'s span timelines;
//! * [`mono_ns`] — process-wide monotonic nanosecond clock for
//!   cross-thread timestamps;
//! * [`audit`] — the operation-history audit (conservation, ordering, rank
//!   error, Appendix-B windows) for simulated and native runs alike.
//!
//! Everything here is `std`-only and deliberately small; these types exist
//! so the workspace builds with no external crates at all.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod acc;
pub mod audit;
mod backoff;
pub mod chrome;
mod clock;
pub mod json;
mod pad;
mod rng;

pub use acc::{Acc, ACC_BUCKETS};
pub use backoff::Backoff;
pub use clock::mono_ns;
pub use pad::CachePadded;
pub use rng::{splitmix64, AtomicRng, XorShift64Star};
