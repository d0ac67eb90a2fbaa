//! # funnelpq-simqueues
//!
//! The priority-queue algorithms and substrates of Shavit & Zemach,
//! *Scalable Concurrent Priority Queue Algorithms* (PODC 1999), expressed
//! against the simulated ccNUMA machine of [`funnelpq_sim`], plus the
//! benchmark workload driver that regenerates the paper's figures.
//!
//! Substrates: [`SimMcsLock`], [`SimBin`], [`SimLockedCounter`],
//! [`SimFunnelCounter`] (Figure 10, with bounded operations and
//! elimination) and [`SimFunnelStack`].
//!
//! Queues: [`queues::SimPq`] dispatches over the seven algorithms of the
//! paper; [`workload::run_queue_workload`] runs the §4 benchmark.
//!
//! ## Example: measure FunnelTree at 64 simulated processors
//!
//! ```
//! use funnelpq_simqueues::queues::Algorithm;
//! use funnelpq_simqueues::workload::{run_queue_workload, Workload};
//!
//! let mut wl = Workload::standard(64, 16);
//! wl.ops_per_proc = 8; // keep the doctest fast
//! let r = run_queue_workload(Algorithm::FunnelTree, &wl);
//! assert_eq!(r.all.count(), 64 * 8);
//! println!("mean latency: {:.0} cycles", r.all.mean());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bin;
pub mod chaos;
pub mod costs;
pub mod counter;
pub mod error;
pub mod funnel;
pub mod funnel_stack;
mod heap;
pub mod mcs;
pub mod queues;
mod walk;
pub mod workload;

pub use bin::SimBin;
pub use chaos::{run_chaos_workload, ChaosError, ChaosRun};
pub use counter::{SimCounter, SimHwCounter, SimLockedCounter};
pub use error::SimPqError;
pub use funnel::{CounterMode, SimFunnelConfig, SimFunnelCounter};
pub use funnel_stack::SimFunnelStack;
pub use mcs::SimMcsLock;
