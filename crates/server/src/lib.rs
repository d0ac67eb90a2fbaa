//! # funnelpq-server
//!
//! A sharded job-scheduler/timer service over the `funnelpq` priority
//! queues — the serving layer the paper's algorithms exist to power: an OS
//! scheduler's run queues, a timer wheel, an event-driven job dispatcher.
//!
//! The shape: tenants submit [`JobSpec`]s (one-shot or periodic) with
//! absolute deadlines; a [`Router`] hashes (or pins) each tenant onto one
//! of N shards; admission control enforces per-tenant quotas and a global
//! in-flight capacity, refusing with typed [`ServerError`]s that carry the
//! job back; each shard runs one event-driven dispatcher thread (it polls
//! a lock-free depth gauge for a self-tuned window, coalesces small
//! backlogs only while the arrival gap it learns from drained jobs says
//! another job is due, and parks when idle, woken by the submit that
//! needs it)
//! draining its queue with `delete_min_batch` and re-arming periodic jobs
//! through the fused `replace_min` — every shard can be backed by any
//! [`funnelpq::PqConfig`] backend, strict (`SingleLock`, `FunnelTree`, …)
//! or relaxed (`MultiQueue`).
//!
//! Deadline misses are evaluated on a per-shard *virtual service clock*
//! (dispatch counts, paced at [`ServerConfig::service_ns`] per job) so the
//! miss rate measures queueing and ordering error — the thing the backend
//! controls — rather than host scheduling noise. Wall-clock
//! enqueue→dispatch latency is accounted separately into log₂ histograms
//! ([`funnelpq_util::Acc`]: p50/p99/p999). See `docs/SERVER.md`.
//!
//! The running server is observable live: [`Scheduler::telemetry`] takes
//! a [`TelemetrySnapshot`] — per-tenant and per-shard latency/slack
//! histograms, a windowed throughput/depth time-series, and a sampled
//! rank-error estimate for relaxed backends — serializable as versioned
//! JSON (see `docs/OBSERVABILITY.md` and the `pqstat` example).
//!
//! The serving layer is resilient by construction: every dispatcher runs
//! under a supervisor that catches panics, requeues the jobs the dead
//! incarnation had in hand, and restarts with bounded exponential backoff
//! — a shard that exhausts its budget fails its queue over to healthy
//! peers, and [`Scheduler::stop`] reports a typed [`StopOutcome`] per
//! shard instead of re-raising. Overload control ([`OverloadConfig`])
//! sheds jobs whose deadlines are unmeetable given backlog × measured
//! dispatch rate, handing back [`AdmitError::Retry`] with a drain-time
//! hint that [`RetryPolicy`] turns into jittered client backoff. Three named
//! [`Seam`]s — a submit between routing and enqueue, a dispatcher about to
//! dispatch, a give-up after its last drain — call one [`SeamHandler`], so
//! a test can panic, stall or hold a thread at a protocol step (see
//! `docs/FAULTS.md`).
//!
//! ## Example
//!
//! ```
//! use funnelpq_server::{Deadline, JobSpec, Scheduler, ServerConfig, TenantId};
//!
//! let cfg = ServerConfig { service_ns: 1, ..ServerConfig::default() };
//! let s = Scheduler::new(cfg).unwrap();
//! for t in 0..4 {
//!     let spec = JobSpec::once(TenantId(t), Deadline::In(1_000_000), u64::from(t));
//!     s.submit(0, spec).unwrap();
//! }
//! s.start();
//! while s.in_flight() > 0 {
//!     std::thread::yield_now();
//! }
//! let report = s.stop();
//! assert_eq!(report.completed, 4);
//! assert_eq!(report.miss_rate(), 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod error;
mod job;
mod retry;
mod router;
mod scheduler;
mod seam;
mod shard;
mod supervise;
pub mod telemetry;

pub use error::{AdmitError, ServerError};
pub use job::{Deadline, Job, JobId, JobSpec, TenantId};
pub use retry::RetryPolicy;
pub use router::Router;
pub use scheduler::{OverloadConfig, Scheduler, ServerConfig, ServerReport};
pub use seam::{Seam, SeamHandler};
pub use shard::{DispatchRecord, ShardReport};
pub use supervise::{StopOutcome, StopReport, SuperviseConfig};
pub use telemetry::{ShardStats, TelemetrySnapshot, TenantStats, WaitStats, WindowStats};
