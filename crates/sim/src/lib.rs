//! # funnelpq-sim
//!
//! A deterministic discrete-event simulator of a ccNUMA shared-memory
//! multiprocessor, standing in for the Proteus-simulated MIT-Alewife machine
//! used in Shavit & Zemach, *Scalable Concurrent Priority Queue Algorithms*
//! (PODC 1999).
//!
//! Each simulated processor is an `async` task; every shared-memory access
//! (`read`, `write`, `swap`, `cas`) is a simulated transaction that pays a
//! network round trip plus FIFO queueing at the target cache line. Hot-spot
//! contention — the effect the paper's entire evaluation hinges on — falls
//! out of the queueing model.
//!
//! ## Example: four processors hammering one counter
//!
//! ```
//! use funnelpq_sim::{Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::alewife_like(), 7);
//! let ctr = m.alloc(1);
//! for _ in 0..4 {
//!     let ctx = m.ctx();
//!     m.spawn(async move {
//!         // A software fetch-and-increment built from compare-and-swap.
//!         loop {
//!             let old = ctx.read(ctr).await;
//!             if ctx.cas(ctr, old, old + 1).await == old {
//!                 break;
//!             }
//!         }
//!     });
//! }
//! assert!(m.run().is_quiescent());
//! assert_eq!(m.peek(ctr), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
mod config;
mod ctx;
pub mod fault;
mod machine;
mod paged;
mod stats;
pub mod trace;
mod wheel;

pub use config::MachineConfig;
pub use ctx::{MemOp, ProcCtx, Span, WaitChange, WorkFuture};
pub use fault::{FaultPlan, FaultPlanError, SpanPoint};
pub use machine::{Addr, LivelockDiag, Machine, ProcDiag, ProcId, ProcState, RunOutcome, Word};
pub use stats::{Acc, HotSpot, Stats, ACC_BUCKETS};
