//! Low-level event probes for the concurrency substrate.
//!
//! The paper's argument is about *where contention goes* — root counters vs.
//! funnel layers vs. elimination — so the substrate types can report the
//! micro-events that reveal it: CAS retries, collisions won, eliminations,
//! adaption steps, lock acquisitions. Each instrumented structure holds an
//! `Option<SinkRef>`; with `None` (the default) the only cost is one
//! predictable branch per already-expensive operation, and the funnel
//! structures batch their counts so a live sink costs one call per
//! *operation*, not per event.
//!
//! The higher-level `funnelpq` crate layers its `Recorder` API on top of
//! this trait; this module stays dependency-free so the substrate crate
//! does not need to know about queues.

use std::sync::Arc;

/// A countable micro-event observed inside a queue or its substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterEvent {
    /// A central compare-and-swap failed and was retried
    /// ([`crate::FunnelCounter`] central CAS), or a relaxed queue's
    /// try-lock on a heap slot failed and it drew another.
    CasRetry,
    /// An operation completed by eliminating against a reversing operation
    /// without touching the central structure (counted once per eliminated
    /// operation, by the colliding tree root).
    ElimHit,
    /// An operation that engaged in combining collisions but still had to be
    /// applied at the central structure (counted once per such operation, by
    /// its tree root).
    ElimMiss,
    /// A combining-funnel collision was won: two operation trees merged or
    /// eliminated (counted by the capturing thread).
    FunnelCollision,
    /// Funnel adaption widened its layer slice, deepened its traversal
    /// preference or lengthened its collision wait (one count per quantity
    /// that moved, per operation).
    AdaptGrow,
    /// Funnel adaption narrowed its layer slice, shallowed its traversal
    /// preference or shortened its collision wait.
    AdaptShrink,
    /// A lock was acquired (the TTAS locks of SingleLock's heap, bins,
    /// locked counters and HuntEtAl's size, and the funnel stack's central
    /// lock) — one per critical section.
    LockAcquire,
    /// A queue-level `delete_min` found nothing to return.
    EmptyDeleteMin,
    /// A batched queue operation (`insert_batch`, `delete_min_batch`, or
    /// fused `replace_min`) ran — counted once per batch, not per item.
    BatchOp,
    /// The NUMA-adaptive controller flipped a queue between its oblivious
    /// and delegation serving modes (`funnelpq` `NumaPq`; counted once per
    /// switch-over, by the thread that closed the deciding epoch).
    ModeSwitch,
}

impl CounterEvent {
    /// Number of distinct event kinds.
    pub const COUNT: usize = 10;

    /// Every event kind, in a fixed order matching [`CounterEvent::index`].
    pub const ALL: [CounterEvent; CounterEvent::COUNT] = [
        CounterEvent::CasRetry,
        CounterEvent::ElimHit,
        CounterEvent::ElimMiss,
        CounterEvent::FunnelCollision,
        CounterEvent::AdaptGrow,
        CounterEvent::AdaptShrink,
        CounterEvent::LockAcquire,
        CounterEvent::EmptyDeleteMin,
        CounterEvent::BatchOp,
        CounterEvent::ModeSwitch,
    ];

    /// Dense index of this event in `0..COUNT` (array-keyed aggregation).
    pub fn index(self) -> usize {
        match self {
            CounterEvent::CasRetry => 0,
            CounterEvent::ElimHit => 1,
            CounterEvent::ElimMiss => 2,
            CounterEvent::FunnelCollision => 3,
            CounterEvent::AdaptGrow => 4,
            CounterEvent::AdaptShrink => 5,
            CounterEvent::LockAcquire => 6,
            CounterEvent::EmptyDeleteMin => 7,
            CounterEvent::BatchOp => 8,
            CounterEvent::ModeSwitch => 9,
        }
    }

    /// Stable snake_case name, used as the JSON key in metrics snapshots.
    pub fn name(self) -> &'static str {
        match self {
            CounterEvent::CasRetry => "cas_retry",
            CounterEvent::ElimHit => "elim_hit",
            CounterEvent::ElimMiss => "elim_miss",
            CounterEvent::FunnelCollision => "funnel_collision",
            CounterEvent::AdaptGrow => "adapt_grow",
            CounterEvent::AdaptShrink => "adapt_shrink",
            CounterEvent::LockAcquire => "lock_acquire",
            CounterEvent::EmptyDeleteMin => "empty_delete_min",
            CounterEvent::BatchOp => "batch_op",
            CounterEvent::ModeSwitch => "mode_switch",
        }
    }
}

impl std::fmt::Display for CounterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Receiver for substrate events. Sinks are called from inside hot paths,
/// so implementations must be cheap and must not block.
///
/// Methods take no thread id — locks do not know their caller's dense id —
/// so implementations that shard must derive a shard key themselves (the
/// `funnelpq` `AtomicRecorder` keeps each thread's shard in a thread-local).
pub trait EventSink: Send + Sync {
    /// Record `n` occurrences of `event`.
    fn event_n(&self, event: CounterEvent, n: u64);

    /// Record one occurrence of `event`.
    fn event(&self, event: CounterEvent) {
        self.event_n(event, 1);
    }
}

/// Shared handle to an event sink, as stored by instrumented structures.
pub type SinkRef = Arc<dyn EventSink>;

impl std::fmt::Debug for dyn EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts every event; shared with the funnel tests.
    #[derive(Default)]
    pub(crate) struct TestSink {
        counts: [AtomicU64; CounterEvent::COUNT],
    }

    impl TestSink {
        pub(crate) fn get(&self, event: CounterEvent) -> u64 {
            self.counts[event.index()].load(Ordering::Relaxed)
        }
    }

    impl EventSink for TestSink {
        fn event_n(&self, event: CounterEvent, n: u64) {
            self.counts[event.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, e) in CounterEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CounterEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterEvent::COUNT);
    }

    #[test]
    fn default_event_is_event_n_of_one() {
        let s = TestSink::default();
        s.event(CounterEvent::LockAcquire);
        s.event_n(CounterEvent::LockAcquire, 4);
        assert_eq!(s.get(CounterEvent::LockAcquire), 5);
    }
}
