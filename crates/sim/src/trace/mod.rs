//! Simulator tracing: typed events, a pluggable [`Tracer`] hook, and the
//! in-memory [`TraceLog`] the exporters consume.
//!
//! The machine's end-of-run [`crate::Stats`] say *where* contention went;
//! this module says *when*. Every shared-memory transaction, scheduler
//! action and user span can be emitted as a [`TraceEvent`] to a tracer
//! attached with [`crate::Machine::attach_tracer`], then rendered as a
//! windowed time-series ([`TimeSeries`]) or a Chrome-trace timeline
//! ([`chrome_trace_json`]) that loads in `chrome://tracing` / Perfetto.
//!
//! # Cost model
//!
//! Tracing mirrors the cold-split pattern of `funnelpq::obs`'s `Recorder`:
//! with no tracer attached (the default) the transaction fast path pays a
//! single pointer-presence test — the event construction and the virtual
//! call live in `#[cold]`, never-inlined functions. Tracing is purely
//! observational either way: attaching a tracer changes no simulated
//! schedule, so traced and untraced runs produce bit-identical [`crate::Stats`]
//! (enforced by differential tests).
//!
//! # Example
//!
//! ```
//! use funnelpq_sim::trace::{TimeSeries, TraceLog};
//! use funnelpq_sim::{Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::test_tiny(), 1);
//! let word = m.alloc(1);
//! m.label(word, 1, "shared word");
//! let log = TraceLog::new();
//! m.attach_tracer(log.handle());
//! for _ in 0..2 {
//!     let ctx = m.ctx();
//!     m.spawn(async move {
//!         let _span = ctx.span("increment");
//!         let v = ctx.read(word).await;
//!         ctx.write(word, v + 1).await;
//!     });
//! }
//! assert!(m.run().is_quiescent());
//! let regions = m.region_map();
//! let ts = TimeSeries::build(&log.events(), &regions, 8);
//! assert!(ts.windows().iter().map(|w| w.txns).sum::<u64>() > 0);
//! ```

mod chrome;
mod timeseries;

pub use chrome::chrome_trace_json;
pub use timeseries::{TimeSeries, Window};

use std::cell::RefCell;
use std::rc::Rc;

use crate::machine::{Addr, ProcId};

/// The kind of one shared-memory transaction, as seen by tracers (the
/// public mirror of the machine's internal operation enum; payload values
/// are not part of the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// A read.
    Read,
    /// A write.
    Write,
    /// A register-to-memory swap.
    Swap,
    /// A compare-and-swap.
    Cas,
    /// A fetch-and-add.
    Faa,
}

impl TxnKind {
    /// Lower-case display name (`"read"`, `"cas"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            TxnKind::Read => "read",
            TxnKind::Write => "write",
            TxnKind::Swap => "swap",
            TxnKind::Cas => "cas",
            TxnKind::Faa => "faa",
        }
    }
}

/// One traced simulator event. Times are simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One shared-memory transaction, with its full latency decomposition:
    /// issued at `issue`, it reaches the memory module at `arrival`
    /// (`issue + net_latency`), waits behind earlier transactions until
    /// `start` (`start - arrival` is its queueing delay — zero when the
    /// line was free), occupies the line until `release`
    /// (`start + service`), and the reply lands at `complete`
    /// (`release + net_latency`).
    Txn {
        /// Issuing processor.
        proc: ProcId,
        /// Target word address.
        addr: Addr,
        /// Target cache line (`addr >> line_shift`).
        line: usize,
        /// Operation kind.
        kind: TxnKind,
        /// Cycle the processor issued the transaction.
        issue: u64,
        /// Cycle the transaction reached the memory module.
        arrival: u64,
        /// Cycle the line started serving it (queueing ends).
        start: u64,
        /// Cycle the line became free again.
        release: u64,
        /// Cycle the reply reached the processor.
        complete: u64,
        /// Whether the operation changed the word (wakes spinners).
        mutated: bool,
    },
    /// A task was spawned for processor `proc`.
    TaskSpawn {
        /// The new processor/task id.
        proc: ProcId,
        /// Spawn time (0 for tasks spawned before the run).
        time: u64,
    },
    /// Processor `proc` suspended, spinning on a cached copy of `addr`.
    TaskBlock {
        /// The blocking processor.
        proc: ProcId,
        /// The word it is waiting to see change.
        addr: Addr,
        /// Cycle it registered as a waiter.
        time: u64,
    },
    /// Processor `proc` was woken by an invalidation of `addr`.
    TaskResume {
        /// The woken processor.
        proc: ProcId,
        /// The word whose mutation woke it.
        addr: Addr,
        /// Cycle the wake-up lands (the resumed task's next event time).
        time: u64,
    },
    /// Processor `proc`'s task ran to completion.
    TaskComplete {
        /// The finished processor.
        proc: ProcId,
        /// Completion time.
        time: u64,
    },
    /// A user span (see [`crate::ProcCtx::span`]) opened.
    SpanBegin {
        /// The processor the span belongs to.
        proc: ProcId,
        /// Static span label, e.g. `"lock-hold"`.
        name: &'static str,
        /// Cycle the span opened.
        time: u64,
    },
    /// A user span closed.
    SpanEnd {
        /// The processor the span belongs to.
        proc: ProcId,
        /// Static span label, matching the corresponding begin.
        name: &'static str,
        /// Cycle the span closed.
        time: u64,
    },
}

impl TraceEvent {
    /// A representative timestamp for ordering: the issue time for
    /// transactions, the event time otherwise.
    pub fn time(&self) -> u64 {
        match *self {
            TraceEvent::Txn { issue, .. } => issue,
            TraceEvent::TaskSpawn { time, .. }
            | TraceEvent::TaskBlock { time, .. }
            | TraceEvent::TaskResume { time, .. }
            | TraceEvent::TaskComplete { time, .. }
            | TraceEvent::SpanBegin { time, .. }
            | TraceEvent::SpanEnd { time, .. } => time,
        }
    }

    /// The processor the event belongs to.
    pub fn proc(&self) -> ProcId {
        match *self {
            TraceEvent::Txn { proc, .. }
            | TraceEvent::TaskSpawn { proc, .. }
            | TraceEvent::TaskBlock { proc, .. }
            | TraceEvent::TaskResume { proc, .. }
            | TraceEvent::TaskComplete { proc, .. }
            | TraceEvent::SpanBegin { proc, .. }
            | TraceEvent::SpanEnd { proc, .. } => proc,
        }
    }
}

/// Receiver for simulator events, attached with
/// [`crate::Machine::attach_tracer`].
///
/// The machine is single-threaded, so tracers need not be `Send`; they are
/// called synchronously from the transaction path and scheduler. With no
/// tracer attached the hot path pays only a pointer-presence test (the
/// trait-object analogue of `funnelpq::obs::Recorder::ENABLED`).
pub trait Tracer: 'static {
    /// Receives one event. Only called while the tracer is attached.
    fn event(&mut self, ev: &TraceEvent);
}

/// The standard tracer: an in-memory, shareable event log.
///
/// `TraceLog` is a cheap handle over a shared buffer: clone it, attach one
/// clone to the machine with [`TraceLog::handle`], and read the events from
/// the clone you kept after the run.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// A boxed clone of this log, ready for
    /// [`crate::Machine::attach_tracer`]. Events recorded through the
    /// machine are visible from this handle.
    pub fn handle(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Takes the recorded events out of the log, leaving it empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

impl Tracer for TraceLog {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.borrow_mut().push(*ev);
    }
}

/// A resolved mapping from cache lines to labelled memory regions, built by
/// [`crate::Machine::region_map`] after the structures under test are
/// allocated and labelled.
///
/// Distinct labelled ranges sharing a display name (one label per bin, per
/// lock, per tree level) merge into one region, exactly as in
/// [`crate::Machine::hotspots`] reports. Lines outside any labelled range
/// map to the final `"<unlabelled>"` region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// Region display names; the last entry is always `"<unlabelled>"`.
    names: Vec<String>,
    /// Runs of cache lines as `(end line, region)`, in line order: a run
    /// covers the lines from the previous run's end up to its own.
    runs: Vec<(usize, u32)>,
    /// NUMA home node per cache line (empty on a 1-node machine).
    line_home: Vec<u32>,
    /// `addr >> line_shift` is the cache line of a word address.
    line_shift: u32,
}

impl RegionMap {
    pub(crate) fn new(
        names: Vec<String>,
        runs: Vec<(usize, u32)>,
        line_home: Vec<u32>,
        line_shift: u32,
    ) -> Self {
        debug_assert_eq!(names.last().map(String::as_str), Some("<unlabelled>"));
        debug_assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
        RegionMap {
            names,
            runs,
            line_home,
            line_shift,
        }
    }

    /// Region display names, `"<unlabelled>"` last.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of regions (including `"<unlabelled>"`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never true: the `"<unlabelled>"` region always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the `"<unlabelled>"` region.
    pub fn unlabelled(&self) -> usize {
        self.names.len() - 1
    }

    /// Region index of a cache line (unlabelled for lines past the mapped
    /// range, e.g. memory allocated after the map was built).
    pub fn region_of_line(&self, line: usize) -> usize {
        let i = self.runs.partition_point(|&(end, _)| end <= line);
        self.runs
            .get(i)
            .map(|&(_, r)| r as usize)
            .unwrap_or_else(|| self.unlabelled())
    }

    /// Display name of a cache line's region.
    pub fn name_of_line(&self, line: usize) -> &str {
        &self.names[self.region_of_line(line)]
    }

    /// Region index of a word address (e.g. the `addr` of a
    /// [`TraceEvent::TaskBlock`]).
    pub fn region_of_addr(&self, addr: Addr) -> usize {
        self.region_of_line(addr >> self.line_shift)
    }

    /// NUMA home node of a cache line (0 for lines past the mapped range
    /// and on 1-node machines).
    pub fn node_of_line(&self, line: usize) -> usize {
        self.line_home.get(line).map(|&n| n as usize).unwrap_or(0)
    }

    /// NUMA home node of a word address.
    pub fn node_of_addr(&self, addr: Addr) -> usize {
        self.node_of_line(addr >> self.line_shift)
    }

    /// First region whose name contains `pat` (for tests and reports).
    pub fn find(&self, pat: &str) -> Option<usize> {
        self.names.iter().position(|n| n.contains(pat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_log_records_and_takes() {
        let log = TraceLog::new();
        let mut h = log.clone();
        assert!(log.is_empty());
        h.event(&TraceEvent::TaskSpawn { proc: 3, time: 0 });
        assert_eq!(log.len(), 1);
        let evs = log.take();
        assert_eq!(evs, vec![TraceEvent::TaskSpawn { proc: 3, time: 0 }]);
        assert!(log.is_empty());
    }

    #[test]
    fn event_accessors() {
        let ev = TraceEvent::Txn {
            proc: 7,
            addr: 42,
            line: 21,
            kind: TxnKind::Cas,
            issue: 100,
            arrival: 110,
            start: 130,
            release: 134,
            complete: 144,
            mutated: true,
        };
        assert_eq!(ev.time(), 100);
        assert_eq!(ev.proc(), 7);
        assert_eq!(TxnKind::Faa.name(), "faa");
    }
}
