//! Native runtime tracing: a per-thread lock-free flight recorder for
//! queue operations, lock intervals and CAS-retry bursts, rendered
//! through the same Chrome-trace exporter as the simulator.
//!
//! The counter layer ([`crate::obs`]) answers *how much* contention a run
//! saw; this module answers *when and where*: each instrumented thread
//! appends fixed-width records to its own [`SeqRing`] (a seqlock ring —
//! writers never block, the newest records win), and
//! [`TracingRecorder::chrome_trace`] drains every ring into one Chrome
//! Trace Format document that loads in `chrome://tracing` or
//! <https://ui.perfetto.dev> next to the simulator's traces.
//!
//! [`TracingRecorder`] wraps an [`AtomicRecorder`], so attaching it buys
//! spans *and* the usual [`MetricsSnapshot`] counters with one recorder.
//! Unlike the bare `AtomicRecorder`, which times a sample of the
//! operations, it keeps [`Recorder::begin_op`]'s default and times every
//! one: a span per operation is what a trace is for.
//! Like every recorder, it is opt-in per queue: the default
//! [`crate::obs::NoopRecorder`] still monomorphizes all instrumentation
//! (including the clock reads) to nothing: every hook branches on the
//! constant [`Recorder::ENABLED`].
//!
//! Record encoding (`[u64; 4]`): `w0` is a tag — `0..=4` are
//! [`OpKind::index`] op spans, `TAG_LOCK` a lock interval, `TAG_CAS`
//! a CAS-retry burst — and `w1..w3` are tag-specific timestamps/counts on
//! the [`mono_ns`] timeline. Lock intervals arrive via the substrate
//! [`EventSink::lock_span`] hook (the TTAS locks time
//! wait→hold→release for a sink that
//! [wants spans](EventSink::wants_lock_spans)); CAS bursts
//! arrive via `event_n(CasRetry, n)`, which the substrate already batches
//! per operation episode, so one record is one burst.

use std::sync::Arc;

use funnelpq_util::chrome::{Arg, ChromeTrace};
use funnelpq_util::{mono_ns, SeqRing};

use crate::obs::{
    thread_token, AtomicRecorder, CounterEvent, EventSink, MetricsSnapshot, OpKind, Recorder,
    SinkRef,
};

/// Tag word for a lock wait→hold→release interval record.
const TAG_LOCK: u64 = 16;
/// Tag word for a CAS-retry burst record.
const TAG_CAS: u64 = 17;

/// Default records per ring (a power of two; ~128 KiB per ring).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A decoded trace record, as returned by [`TracingRecorder::drain`].
/// `ring` is the per-thread ring the record came from (threads map onto
/// rings by the same token that picks their recorder shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// One queue operation span.
    Op {
        /// Source ring index.
        ring: usize,
        /// Which operation.
        kind: OpKind,
        /// Span start, [`mono_ns`] timeline.
        start_ns: u64,
        /// Span end.
        end_ns: u64,
    },
    /// One lock acquire→hold→release interval.
    Lock {
        /// Source ring index.
        ring: usize,
        /// When the acquirer started waiting.
        wait_start_ns: u64,
        /// When it got the lock.
        acquired_ns: u64,
        /// When it released.
        released_ns: u64,
    },
    /// One CAS-retry burst (the substrate batches retries per episode).
    CasBurst {
        /// Source ring index.
        ring: usize,
        /// When the burst was reported (end of the episode).
        at_ns: u64,
        /// Retries in the burst.
        count: u64,
    },
}

/// A [`Recorder`] + [`EventSink`] that keeps everything an
/// [`AtomicRecorder`] keeps *and* appends span/interval/burst records to
/// per-thread lock-free rings. Attach it through
/// [`crate::PqBuilder::recorder`] like any recorder.
///
/// # Examples
///
/// ```
/// use funnelpq::trace::TracingRecorder;
/// use funnelpq::{Algorithm, PqBuilder};
/// use std::sync::Arc;
///
/// let rec = Arc::new(TracingRecorder::new());
/// let q = PqBuilder::new(Algorithm::SingleLock, 16, 2)
///     .recorder(Arc::clone(&rec))
///     .build::<u64>();
/// q.insert(0, 3, 30);
/// q.delete_min(0);
/// assert!(rec.drain().iter().any(|r| matches!(
///     r,
///     funnelpq::trace::TraceRecord::Op { .. }
/// )));
/// let json = rec.chrome_trace();
/// assert!(json.contains("\"traceEvents\""));
/// ```
pub struct TracingRecorder {
    inner: AtomicRecorder,
    rings: Box<[SeqRing<4>]>,
}

impl std::fmt::Debug for TracingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracingRecorder")
            .field("rings", &self.rings.len())
            .field("records_pushed", &self.records_pushed())
            .finish_non_exhaustive()
    }
}

impl Default for TracingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TracingRecorder {
    /// One ring per hardware thread (rounded up to a power of two),
    /// [`DEFAULT_RING_CAPACITY`] records each.
    pub fn new() -> Self {
        let rings = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(8);
        Self::with_config(rings, DEFAULT_RING_CAPACITY)
    }

    /// Explicit ring count and per-ring record capacity (both rounded up
    /// to powers of two internally).
    pub fn with_config(rings: usize, capacity: usize) -> Self {
        let rings = rings.max(1).next_power_of_two();
        TracingRecorder {
            inner: AtomicRecorder::new(),
            rings: (0..rings).map(|_| SeqRing::new(capacity)).collect(),
        }
    }

    fn ring(&self) -> &SeqRing<4> {
        &self.rings[thread_token() & (self.rings.len() - 1)]
    }

    /// Number of per-thread rings.
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Total records ever claimed across all rings (including ones later
    /// overwritten by the flight-recorder window).
    pub fn records_pushed(&self) -> u64 {
        self.rings.iter().map(|r| r.pushed()).sum()
    }

    /// Counter/histogram snapshot, exactly as [`AtomicRecorder::snapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// Decodes the current contents of every ring, per-ring in append
    /// order. A consistent sample with flight-recorder semantics: records
    /// mid-write or overwritten during the scan are skipped.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for (ring, r) in self.rings.iter().enumerate() {
            for rec in r.drain() {
                let decoded = match rec[0] {
                    TAG_LOCK => TraceRecord::Lock {
                        ring,
                        wait_start_ns: rec[1],
                        acquired_ns: rec[2],
                        released_ns: rec[3],
                    },
                    TAG_CAS => TraceRecord::CasBurst {
                        ring,
                        at_ns: rec[1],
                        count: rec[2],
                    },
                    tag => match OpKind::ALL.get(tag as usize) {
                        Some(&kind) => TraceRecord::Op {
                            ring,
                            kind,
                            start_ns: rec[1],
                            end_ns: rec[2],
                        },
                        None => continue,
                    },
                };
                out.push(decoded);
            }
        }
        out
    }

    /// Drains every ring and renders one Chrome Trace Format document:
    ///
    /// * **process 0 "native ops"** — one thread row per ring; op spans as
    ///   `X` slices, CAS bursts as instants carrying their retry count;
    /// * **process 1 "locks"** — per-ring rows of back-to-back `X` slices,
    ///   `lock_wait` (acquire latency) then `lock_hold`.
    ///
    /// Timestamps are nanoseconds written into the microsecond field —
    /// like the simulator's cycles, the unit label is cosmetic (read
    /// "1 µs" as "1 ns"); what matters is that native and sim traces load
    /// in the same UI.
    pub fn chrome_trace(&self) -> String {
        const PID_OPS: u32 = 0;
        const PID_LOCKS: u32 = 1;
        let records = self.drain();
        let mut t = ChromeTrace::new();
        t.process_name(PID_OPS, "native ops");
        let mut ring_seen = vec![false; self.rings.len()];
        let mut lock_seen = vec![false; self.rings.len()];
        for r in &records {
            match *r {
                TraceRecord::Lock { ring, .. } => lock_seen[ring] = true,
                TraceRecord::Op { ring, .. } | TraceRecord::CasBurst { ring, .. } => {
                    ring_seen[ring] = true
                }
            }
        }
        for (i, seen) in ring_seen.iter().enumerate() {
            if *seen {
                t.thread_name(PID_OPS, i as u64, &format!("ring {i}"));
            }
        }
        if lock_seen.iter().any(|&s| s) {
            t.process_name(PID_LOCKS, "locks");
            for (i, seen) in lock_seen.iter().enumerate() {
                if *seen {
                    t.thread_name(PID_LOCKS, i as u64, &format!("ring {i}"));
                }
            }
        }
        for r in &records {
            match *r {
                TraceRecord::Op {
                    ring,
                    kind,
                    start_ns,
                    end_ns,
                } => t.complete(
                    kind.name(),
                    "op",
                    PID_OPS,
                    ring as u64,
                    start_ns,
                    end_ns.saturating_sub(start_ns),
                    &[],
                ),
                TraceRecord::Lock {
                    ring,
                    wait_start_ns,
                    acquired_ns,
                    released_ns,
                } => {
                    t.complete(
                        "lock_wait",
                        "lock",
                        PID_LOCKS,
                        ring as u64,
                        wait_start_ns,
                        acquired_ns.saturating_sub(wait_start_ns),
                        &[],
                    );
                    t.complete(
                        "lock_hold",
                        "lock",
                        PID_LOCKS,
                        ring as u64,
                        acquired_ns,
                        released_ns.saturating_sub(acquired_ns),
                        &[],
                    );
                }
                TraceRecord::CasBurst { ring, at_ns, count } => t.instant(
                    "cas_burst",
                    "cas",
                    PID_OPS,
                    ring as u64,
                    at_ns,
                    &[("retries", Arg::U64(count))],
                ),
            }
        }
        t.finish()
    }
}

impl Recorder for TracingRecorder {
    const ENABLED: bool = true;

    fn record_event_n(&self, event: CounterEvent, n: u64) {
        self.inner.record_event_n(event, n);
        if event == CounterEvent::CasRetry {
            self.ring().push([TAG_CAS, mono_ns(), n, 0]);
        }
    }

    fn record_op(&self, kind: OpKind, nanos: u64) {
        // Duration-only report (no span endpoints): histogram only.
        self.inner.record_op(kind, nanos);
    }

    fn record_op_span(&self, kind: OpKind, start_ns: u64, end_ns: u64) {
        self.inner.record_op(kind, end_ns.saturating_sub(start_ns));
        self.ring().push([kind.index() as u64, start_ns, end_ns, 0]);
    }

    fn record_batch(&self, size: u64) {
        self.inner.record_batch(size);
    }

    fn sink(self: &Arc<Self>) -> Option<SinkRef> {
        Some(Arc::clone(self) as SinkRef)
    }
}

impl EventSink for TracingRecorder {
    fn event_n(&self, event: CounterEvent, n: u64) {
        self.record_event_n(event, n);
    }

    fn wants_lock_spans(&self) -> bool {
        true
    }

    fn lock_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
        self.ring()
            .push([TAG_LOCK, wait_start_ns, acquired_ns, released_ns]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, PqBuilder};

    #[test]
    fn records_op_spans_and_counters_together() {
        let rec = Arc::new(TracingRecorder::with_config(2, 64));
        let q = PqBuilder::new(Algorithm::SingleLock, 32, 2)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        for i in 0..10u64 {
            q.insert(0, (i as usize * 3) % 32, i);
        }
        while q.delete_min(0).is_some() {}
        let snap = rec.snapshot();
        assert_eq!(snap.insert.count, 10);
        let recs = rec.drain();
        let inserts = recs
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    TraceRecord::Op {
                        kind: OpKind::Insert,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(inserts, 10);
        for r in &recs {
            if let TraceRecord::Op {
                start_ns, end_ns, ..
            } = r
            {
                assert!(start_ns <= end_ns);
            }
        }
    }

    #[test]
    fn lock_spans_flow_from_the_substrate() {
        let rec = Arc::new(TracingRecorder::with_config(1, 256));
        let q = PqBuilder::new(Algorithm::SingleLock, 8, 1)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        q.insert(0, 1, 1);
        q.delete_min(0);
        let locks: Vec<_> = rec
            .drain()
            .into_iter()
            .filter(|r| matches!(r, TraceRecord::Lock { .. }))
            .collect();
        assert!(!locks.is_empty(), "lock spans missing");
        for l in locks {
            if let TraceRecord::Lock {
                wait_start_ns,
                acquired_ns,
                released_ns,
                ..
            } = l
            {
                assert!(wait_start_ns <= acquired_ns && acquired_ns <= released_ns);
            }
        }
    }

    #[test]
    fn bins_and_locked_counters_report_spans_too() {
        // The bins and the locked counters sit on the TTAS lock, not on
        // MCS: its noted path must hand the recorder the same spans, one
        // per counted acquisition.
        for algo in [Algorithm::SimpleLinear, Algorithm::SimpleTree] {
            let rec = Arc::new(TracingRecorder::with_config(1, 1024));
            let q = PqBuilder::new(algo, 8, 1)
                .recorder(Arc::clone(&rec))
                .build::<u64>();
            q.insert(0, 5, 5);
            q.insert(0, 1, 1);
            assert_eq!(q.delete_min(0), Some((1, 1)));
            let acquires = rec.snapshot().event(CounterEvent::LockAcquire);
            let spans: Vec<_> = rec
                .drain()
                .into_iter()
                .filter_map(|r| match r {
                    TraceRecord::Lock {
                        wait_start_ns,
                        acquired_ns,
                        released_ns,
                        ..
                    } => Some((wait_start_ns, acquired_ns, released_ns)),
                    _ => None,
                })
                .collect();
            assert!(!spans.is_empty(), "{algo:?}: lock spans missing");
            assert_eq!(
                spans.len() as u64,
                acquires,
                "{algo:?}: a span per acquisition"
            );
            for (wait, acq, rel) in spans {
                assert!(wait <= acq && acq <= rel, "{algo:?}: span out of order");
            }
        }
    }

    #[test]
    fn counting_recorder_sees_every_acquisition() {
        // The `AtomicRecorder` twin of the test above: it asks for no
        // spans, so the substrate never reads the clock for it, and the
        // acquisition count must still be exact — one per operation.
        const THREADS: usize = 2;
        const PAIRS: u64 = 5_000;
        let rec = Arc::new(AtomicRecorder::new());
        let q = PqBuilder::new(Algorithm::SingleLock, 8, THREADS)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PAIRS {
                        q.insert(tid, (i % 8) as usize, i);
                        q.delete_min(tid);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        let ops = snap.insert.count + snap.delete_min.count;
        assert_eq!(ops, 2 * PAIRS * THREADS as u64);
        assert_eq!(snap.event(CounterEvent::LockAcquire), ops);
    }

    #[test]
    fn cas_bursts_carry_their_count() {
        let rec = Arc::new(TracingRecorder::with_config(1, 64));
        rec.record_event_n(CounterEvent::CasRetry, 5);
        rec.record_event(CounterEvent::LockAcquire); // no trace record
        let recs = rec.drain();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs[0], TraceRecord::CasBurst { count: 5, .. }));
        assert_eq!(rec.snapshot().event(CounterEvent::CasRetry), 5);
        assert_eq!(rec.snapshot().event(CounterEvent::LockAcquire), 1);
    }

    #[test]
    fn chrome_export_has_both_processes() {
        let rec = Arc::new(TracingRecorder::with_config(1, 256));
        let q = PqBuilder::new(Algorithm::SingleLock, 8, 1)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        q.insert(0, 1, 1);
        q.delete_min(0);
        let j = rec.chrome_trace();
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert!(j.contains("\"name\":\"native ops\""));
        assert!(j.contains("\"name\":\"locks\""));
        for row in ["insert", "delete_min", "lock_wait", "lock_hold"] {
            assert!(j.contains(&format!("\"name\":\"{row}\"")), "no {row} row");
        }
        assert!(!j.contains(",\n]"));
    }

    #[test]
    fn flight_recorder_keeps_newest() {
        let rec = TracingRecorder::with_config(1, 8);
        for i in 0..100u64 {
            rec.record_op_span(OpKind::Insert, i, i + 1);
        }
        let recs = rec.drain();
        assert_eq!(recs.len(), 8);
        assert!(matches!(
            recs.last(),
            Some(TraceRecord::Op { start_ns: 99, .. })
        ));
    }
}
