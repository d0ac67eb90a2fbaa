//! # funnelpq-sync
//!
//! Native (real-thread) concurrency substrate for the `funnelpq` priority
//! queues, reproducing the building blocks of Shavit & Zemach, *Scalable
//! Concurrent Priority Queue Algorithms* (PODC 1999):
//!
//! * [`McsLock`] — the Mellor-Crummey & Scott queue lock the paper uses
//!   for bins and low-traffic counters. Natively no queue sits on it any
//!   more (the simulated twins keep it); it stays for the ledger's
//!   `sync.mcs.*` rows;
//! * [`TtasMutex`] — a centralized test-and-test-and-set lock, the native
//!   lock of every queue: SingleLock's heap, the heap-array slots, bins,
//!   locked counters, the funnel stack's central lock, HuntEtAl and
//!   SkipList. On a host with a handful of cores it hands a short section
//!   over faster than a FIFO queue, and it does not collapse when threads
//!   outnumber cores. [`TtasMutex::lock_noting`] counts acquisitions into
//!   a sink;
//! * [`LockBin`] — the paper's Figure-1 bin (lock + pool + one-read
//!   emptiness test);
//! * [`LockedCounter`] — the non-combining shared counter;
//! * [`FunnelCounter`] — the combining-funnel counter with *bounded*
//!   fetch-and-decrement and elimination (paper §3.3, Figure 10);
//! * [`FunnelStack`] — the combining-funnel stack used as a scalable bin,
//!   with push/pop elimination.
//!
//! A caller that holds `k` same-kind operations at once — a batch — is the
//! root of a combining tree that needs no combining, and each structure
//! has the operation that root performs: [`SharedCounter::fetch_add`],
//! [`LockBin::insert_many`] / [`LockBin::delete_many`],
//! [`FunnelStack::push_many`] / [`FunnelStack::pop_many`] — one central
//! episode for all `k`.
//!
//! All funnel structures are quiescently consistent; the locks and
//! lock-based structures are linearizable.
//!
//! ## Thread ids
//!
//! Funnel structures identify participants by dense thread ids
//! (`0..max_threads`). Using one id from two threads simultaneously is a
//! logic error (operations may return wrong values) but never memory-unsafe.
//!
//! ## Example
//!
//! ```
//! use funnelpq_sync::{Bounds, FunnelConfig, FunnelCounter, SharedCounter};
//! use std::sync::Arc;
//!
//! let c = Arc::new(FunnelCounter::new(0, Bounds::non_negative(),
//!                                     FunnelConfig::for_threads(8)));
//! let handles: Vec<_> = (0..8).map(|tid| {
//!     let c = Arc::clone(&c);
//!     std::thread::spawn(move || { c.fetch_inc(tid); })
//! }).collect();
//! for h in handles { h.join().unwrap(); }
//! assert_eq!(c.value(), 8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adaption;
mod bin;
mod counter;
mod funnel;
mod funnel_stack;
mod mcs;
pub mod probe;
mod slots;
mod ttas;
mod walk;

pub use bin::{BinOrder, LockBin};
pub use counter::{Bounds, LockedCounter, SharedCounter};
pub use funnel::FunnelCounter;
pub use funnel_stack::FunnelStack;
pub use mcs::{McsGuard, McsLock};
pub use probe::{CounterEvent, EventSink, SinkRef};
pub use ttas::{TtasGuard, TtasMutex};
pub use walk::FunnelConfig;
