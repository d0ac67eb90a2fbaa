//! # funnelpq
//!
//! Scalable bounded-range concurrent priority queues, reproducing
//! Shavit & Zemach, *Scalable Concurrent Priority Queue Algorithms*
//! (PODC 1999).
//!
//! A *bounded-range* priority queue supports a fixed set of priorities
//! `0..N` (smaller = more urgent), like an OS scheduler's run queues. This
//! crate provides the paper's two new algorithms and all five baselines it
//! was evaluated against, behind one trait ([`BoundedPq`]) and one
//! construction front door ([`PqBuilder`]):
//!
//! | Type | Paper name | Structure | Consistency |
//! |------|-----------|-----------|-------------|
//! | [`SingleLockPq`] | SingleLock | heap + one lock | linearizable |
//! | [`HuntPq`] | HuntEtAl | heap, per-node locks, bit-reversal | quiescent |
//! | [`SkipListPq`] | SkipList | skip list of bins + delete bin | quiescent |
//! | [`SimpleLinearPq`] | SimpleLinear | array of locked bins | linearizable |
//! | [`SimpleTreePq`] | SimpleTree | tree of locked counters | quiescent |
//! | [`LinearFunnelsPq`] | LinearFunnels | array of funnel stacks | quiescent |
//! | [`FunnelTreePq`] | FunnelTree | tree of funnel counters + funnel stacks | quiescent |
//!
//! The last four are two layouts (an array of bins, a tree of counters)
//! over two bins (`LockBin`, `FunnelStack`), so their names are type
//! aliases of one generic queue, [`BinPq`]: one front end, four
//! monomorphised instantiations.
//!
//! Each queue has exactly one public constructor, the one [`PqBuilder`]
//! calls (`with_recorder`; `with_config` for [`MultiQueuePq`] and
//! [`NumaPq`]). It takes the queue's every parameter and a recorder
//! (`Arc::new(NoopRecorder)` for none); FIFO bins and other funnel
//! cutoffs are built there.
//!
//! Beyond the paper, [`MultiQueuePq`] implements the modern *relaxed*
//! answer to the same contention problem — `c·T` heaps behind try-locks
//! with two-choice delete-min — trading strict ordering
//! ([`Consistency::Relaxed`]) for near-linear scalability, and [`NumaPq`]
//! makes that structure NUMA-adaptive: heap partitions homed per node, a
//! delegation layer serving remote delete-mins from co-located threads,
//! and a live controller ([`AdaptiveStats`]) flipping between the
//! oblivious and delegated disciplines from contention signals.
//!
//! Every queue is also generic over a metrics [`obs::Recorder`]: attach an
//! [`obs::AtomicRecorder`] to count contention events (CAS retries,
//! eliminations, funnel collisions, lock acquisitions, …) and per-operation
//! latency histograms, or keep the default [`obs::NoopRecorder`], which
//! monomorphizes away to zero cost.
//!
//! ## Which one should I use?
//!
//! The paper's (and this reproduction's) answer: under low contention use
//! [`SimpleLinearPq`] (few priorities) or [`SimpleTreePq`] (many); under
//! high contention use [`LinearFunnelsPq`] (≤ ~4 priorities) or
//! [`FunnelTreePq`] (everything else).
//!
//! ## Example
//!
//! ```
//! use funnelpq::{Algorithm, PqBuilder};
//! use std::sync::Arc;
//!
//! let q = Arc::new(PqBuilder::new(Algorithm::FunnelTree, 32, 4).build::<usize>());
//! let handles: Vec<_> = (0..4).map(|tid| {
//!     let q = Arc::clone(&q);
//!     std::thread::spawn(move || {
//!         q.insert(tid, tid * 7 % 32, tid);
//!         q.delete_min(tid)
//!     })
//! }).collect();
//! let got = handles.into_iter().filter_map(|h| h.join().unwrap()).count();
//! assert_eq!(got, 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adaptive;
mod algorithm;
mod bin_pq;
mod builder;
mod config;
mod counter_tree;
mod funnel_tree;
pub mod heap;
mod heap_array;
mod hunt;
mod linear_funnels;
mod multiqueue;
mod numa;
pub mod obs;
mod simple_linear;
mod simple_tree;
mod single_lock;
mod skiplist;
mod topology;
mod traits;

pub use adaptive::{AdaptiveStats, NumaMode, NumaPolicy};
pub use algorithm::Algorithm;
pub use bin_pq::BinPq;
pub use builder::{BuildError, PqBuilder};
pub use config::{HuntConfig, MultiQueueConfig, NumaConfig, PqConfig, SkipListConfig};
pub use funnel_tree::{FunnelTreePq, DEFAULT_FUNNEL_LEVELS};
pub use hunt::HuntPq;
pub use linear_funnels::LinearFunnelsPq;
pub use multiqueue::{MultiQueuePq, DEFAULT_MQ_FACTOR, DEFAULT_MQ_SEED};
pub use numa::NumaPq;
pub use simple_linear::SimpleLinearPq;
pub use simple_tree::SimpleTreePq;
pub use single_lock::SingleLockPq;
pub use skiplist::SkipListPq;
pub use topology::Topology;
pub use traits::{BoundedPq, Consistency, PqBatchError, PqError};

// Re-export the substrate types a queue constructor may need.
pub use funnelpq_sync::{BinOrder, Bounds, FunnelConfig};
