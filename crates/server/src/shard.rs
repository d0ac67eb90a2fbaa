//! One shard: a priority queue of jobs plus its dispatch accounting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;

use funnelpq::{BoundedPq, PqError};
use funnelpq_util::CachePadded;

use crate::job::{Job, JobId, TenantId};
use crate::telemetry::ShardTelemetry;

/// A shard's queue plus the shared state its dispatcher and submitters
/// both touch.
pub(crate) struct Shard {
    /// The backing priority queue; priorities are deadline bands.
    pub(crate) queue: Arc<dyn BoundedPq<Job>>,
    /// Count of dispatches this shard has performed — the shard's *virtual
    /// service clock*. Submitters stamp its current value into
    /// [`Job::enqueued_slot`]; the dispatcher evaluates deadline misses
    /// against it (see `docs/SERVER.md`).
    pub(crate) dispatched: CachePadded<AtomicU64>,
    /// Live queue depth: incremented *before* every insert (and rolled
    /// back if it fails), decremented by the dispatcher after it drains, so
    /// it never reads below the true population — `0` proves the queue
    /// empty, which is what lets an idle dispatcher wait on this gauge
    /// instead of on the queue's lock. Lock-free so submit never touches
    /// the telemetry mutex.
    pub(crate) enqueued: CachePadded<AtomicU64>,
    /// The shard's telemetry cell. Written only by the shard's dispatcher
    /// (so the lock is uncontended on the hot path); read by
    /// [`Scheduler::telemetry`](crate::Scheduler::telemetry). Padded so the
    /// unpadded fields, read on every submit, stay off the lines it dirties
    /// whatever order the compiler lays the struct out in.
    pub(crate) telemetry: CachePadded<Mutex<ShardTelemetry>>,
    /// Cleared when the shard's dispatcher exhausts its restart budget and
    /// gives up. Submitters route around dark shards, and [`Shard::enqueue`]
    /// refuses into one; the give-up path drains the queue into healthy
    /// ones.
    pub(crate) healthy: AtomicBool,
    /// Jobs shed at admission for this shard (deadline unmeetable given
    /// backlog × dispatch rate). Written by submitters, so it lives here
    /// as a lock-free counter rather than in the telemetry cell.
    pub(crate) shed: CachePadded<AtomicU64>,
    /// The dispatcher's windowed estimate of nanoseconds per dispatch,
    /// published for the submit-side shed check. `0` means "no estimate
    /// yet" (callers fall back to the configured `service_ns`).
    pub(crate) rate_ns: CachePadded<AtomicU64>,
    /// Raised by the dispatcher around `thread::park`; whoever makes the
    /// queue non-empty and sees it raised owes the dispatcher an unpark.
    /// All accesses are `SeqCst`, pairing with the `SeqCst` depth bump in
    /// [`Shard::enqueue`] and depth re-check in [`Shard::park_while_empty`]
    /// (store-then-load on both sides: at least one side sees the other).
    parked: AtomicBool,
    /// The dispatcher thread, registered by itself before it can park.
    dispatcher: Mutex<Option<Thread>>,
}

impl Shard {
    pub(crate) fn new(queue: Arc<dyn BoundedPq<Job>>, telemetry: ShardTelemetry) -> Self {
        Shard {
            queue,
            dispatched: CachePadded::new(AtomicU64::new(0)),
            enqueued: CachePadded::new(AtomicU64::new(0)),
            telemetry: CachePadded::new(Mutex::new(telemetry)),
            healthy: AtomicBool::new(true),
            shed: CachePadded::new(AtomicU64::new(0)),
            rate_ns: CachePadded::new(AtomicU64::new(0)),
            parked: AtomicBool::new(false),
            dispatcher: Mutex::new(None),
        }
    }

    /// Jobs queued (or one step from it) right now.
    pub(crate) fn depth(&self) -> u64 {
        // ORDERING: Relaxed, a gauge guarding no data; the one read that
        // decides a park is the SeqCst re-check in `park_while_empty`.
        self.enqueued.load(Ordering::Relaxed)
    }

    /// The one way a job enters this shard's queue from outside its own
    /// dispatch loop — client submits, supervisor requeues, a dying peer's
    /// failover. Depth goes up *before* the insert (and back down on
    /// failure) so the dispatcher's decrement for this job can never
    /// observe the gauge below the true population; once the job has
    /// landed, a parked dispatcher is woken. A shard that has gone dark
    /// hands the job back as [`Refused::Dark`] instead of inserting it.
    pub(crate) fn enqueue(&self, tid: usize, band: usize, job: Job) -> Result<(), Refused> {
        // ORDERING: SeqCst, the submitter's Dekker store for two handshakes.
        // Partners: the gauge load in `park_while_empty` (docs/SERVER.md,
        // "The dispatcher": Park), and the gauge load in `give_up`, which
        // waits out every bump it sees before its last drain ends.
        self.enqueued.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst, the submitter's Dekker load; partner is the
        // `healthy.store(false)` in `give_up`. Either this load sees the
        // shard dark, or the give-up's gauge load sees the bump above and
        // drains this insert (docs/SERVER.md, "Supervision": give-up).
        if !self.healthy.load(Ordering::SeqCst) {
            // ORDERING: Relaxed, the rollback of a bump that landed nothing.
            self.enqueued.fetch_sub(1, Ordering::Relaxed);
            return Err(Refused::Dark(job));
        }
        if let Err(e) = self.queue.try_insert(tid, band, job) {
            // ORDERING: Relaxed, the rollback of a bump that landed nothing.
            self.enqueued.fetch_sub(1, Ordering::Relaxed);
            return Err(Refused::Queue(e));
        }
        // The swap elects one waker among racing submitters.
        // ORDERING: SeqCst load, the submitter's Dekker load; partner is
        // `parked.store(true)` in `park_while_empty`. SeqCst swap: same total
        // order, against racing submitters and the dispatcher's own stores.
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.unpark();
        }
        Ok(())
    }

    /// Called by the dispatcher thread each time it (re-)enters its loop:
    /// makes it reachable by [`Shard::unpark`] and drops a parked flag a
    /// previous incarnation may have left up.
    pub(crate) fn attach_dispatcher(&self) {
        *self.dispatcher_cell() = Some(std::thread::current());
        // ORDERING: SeqCst, same total order as the load/swap of `parked` in
        // `enqueue` (docs/SERVER.md: cleared "before it can park").
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Dispatcher only: blocks until unparked, unless the queue turned
    /// non-empty after the flag went up. Returns whether it blocked. A
    /// wake-up it did not need (a submitter that saw the flag just before
    /// the re-check pulled it down) leaves a token behind that ends the
    /// next park at once — the caller loops, so that costs one re-check.
    pub(crate) fn park_while_empty(&self) -> bool {
        // ORDERING: SeqCst, the dispatcher's Dekker store; partner is the
        // `parked` load in `enqueue` (docs/SERVER.md, "The dispatcher": Park).
        self.parked.store(true, Ordering::SeqCst);
        // ORDERING: SeqCst, the dispatcher's Dekker load; partner is the gauge
        // `fetch_add` in `enqueue`. One side always sees the other's store.
        let empty = self.enqueued.load(Ordering::SeqCst) == 0;
        if empty {
            std::thread::park();
        }
        // ORDERING: SeqCst, same total order as the load/swap in `enqueue`
        // that decide whether this dispatcher is owed an unpark.
        self.parked.store(false, Ordering::SeqCst);
        empty
    }

    /// Ends the dispatcher's current park, or its next one.
    pub(crate) fn unpark(&self) {
        if let Some(t) = self.dispatcher_cell().as_ref() {
            t.unpark();
        }
    }

    fn dispatcher_cell(&self) -> MutexGuard<'_, Option<Thread>> {
        // Only ever assigned whole, so a poisoned cell is still valid.
        self.dispatcher.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The telemetry cell, recovering from poisoning: a dispatcher that
    /// panicked while holding the lock leaves behind nothing worse than a
    /// half-filed dispatch (all fields are plain counters/histograms), and
    /// the supervisor must still be able to file restarts afterwards.
    pub(crate) fn telemetry_cell(&self) -> MutexGuard<'_, ShardTelemetry> {
        match self.telemetry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Why [`Shard::enqueue`] handed a job back.
#[derive(Debug)]
pub(crate) enum Refused {
    /// The shard has gone dark: place the job on a healthy peer.
    Dark(Job),
    /// The backend refused the insert.
    Queue(PqError<Job>),
}

/// One dispatched job, as remembered by a shard running with
/// `record_dispatches` on (integration tests reconstruct conservation and
/// ordering from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The dispatched job's id.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// The deadline band (queue priority) it was dequeued under.
    pub band: usize,
    /// Its absolute deadline.
    pub deadline_ns: u64,
    /// Whether it missed its deadline on the virtual service clock.
    pub missed: bool,
}

/// What one shard's dispatcher thread hands back when it exits: what its
/// telemetry cell does not file. Its dispatches, misses, latencies,
/// restarts and requeues are in the cell, and reach
/// [`ServerReport`](crate::ServerReport) from there.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Which shard this is.
    pub shard: usize,
    /// Jobs fully finished (a periodic job completes only on its last
    /// firing, releasing its admission slot).
    pub completed: u64,
    /// Per-dispatch log, populated only when the server runs with
    /// `record_dispatches` (conservation/ordering tests).
    pub dispatch_log: Vec<DispatchRecord>,
    /// Times the dispatcher panicked (injected or genuine).
    pub panics: u64,
    /// Jobs that could not be placed anywhere after a give-up (no healthy
    /// shard left); their admission slots were released.
    pub lost: u64,
    /// Whether the dispatcher exhausted its restart budget and went dark.
    pub gave_up: bool,
    /// The most recent panic's message, if any panic occurred.
    pub last_panic: Option<String>,
}

impl ShardReport {
    pub(crate) fn new(shard: usize) -> Self {
        ShardReport {
            shard,
            ..ShardReport::default()
        }
    }
}

/// `(name, offset, size)` of field `$f` of `$v: $T`, for layout tests.
#[cfg(test)]
macro_rules! span {
    ($v:expr, $T:ty, $f:ident) => {
        (
            stringify!($f),
            std::mem::offset_of!($T, $f),
            std::mem::size_of_val(&$v.$f),
        )
    };
}
#[cfg(test)]
pub(crate) use span;

/// Layout tests: every field named in `written` (hot, and written by one
/// side of the submit/dispatch pair) must share none of its 128-byte lines
/// with any other field of the (128-aligned) struct.
#[cfg(test)]
pub(crate) fn assert_owns_its_lines(fields: &[(&str, usize, usize)], written: &[&str]) {
    let lines = |&(_, at, size): &(&str, usize, usize)| at / 128..=(at + size.max(1) - 1) / 128;
    for w in written {
        let own = fields.iter().find(|f| f.0 == *w).expect("a listed field");
        for other in fields.iter().filter(|f| f.0 != *w) {
            let (a, b) = (lines(own), lines(other));
            assert!(
                a.end() < b.start() || b.end() < a.start(),
                "`{w}` (bytes {}..{}) shares a 128-byte line with `{}` (bytes {}..{})",
                own.1,
                own.1 + own.2,
                other.0,
                other.1,
                other.1 + other.2
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq::{PqBuilder, PqConfig};

    fn shard() -> Arc<Shard> {
        let queue = PqBuilder::from_config(PqConfig::SingleLock, 8, 2)
            .try_build::<Job>()
            .unwrap();
        Arc::new(Shard::new(Arc::from(queue), ShardTelemetry::new(1, 1_000)))
    }

    fn job(id: JobId) -> Job {
        Job {
            id,
            tenant: TenantId(0),
            deadline_ns: 0,
            payload: 0,
            period_ns: 0,
            repeats_left: 0,
            enqueued_ns: 0,
            enqueued_slot: 0,
        }
    }

    #[test]
    fn enqueue_tracks_depth_and_rolls_back_a_refused_insert() {
        let s = shard();
        s.enqueue(0, 3, job(1)).unwrap();
        assert_eq!(s.depth(), 1);
        // Band 8 is out of range: the job comes back, the gauge with it.
        match s.enqueue(0, 8, job(2)) {
            Err(Refused::Queue(e)) => assert_eq!(e.into_item().id, 2),
            _ => panic!("band 8 must be refused"),
        }
        assert_eq!(s.depth(), 1);
        // A dark shard hands the job back uninserted, gauge unmoved.
        s.healthy.store(false, Ordering::SeqCst);
        match s.enqueue(0, 3, job(3)) {
            Err(Refused::Dark(j)) => assert_eq!(j.id, 3),
            _ => panic!("a dark shard must refuse"),
        }
        assert_eq!(s.depth(), 1);
        assert_eq!(s.queue.delete_min(0).map(|(_, j)| j.id), Some(1));
        assert!(s.queue.is_empty());
    }

    #[test]
    fn a_non_empty_queue_refuses_the_park() {
        let s = shard();
        s.attach_dispatcher();
        s.enqueue(0, 0, job(1)).unwrap();
        assert!(!s.park_while_empty());
    }

    #[test]
    fn enqueue_unparks_the_dispatcher() {
        let s = shard();
        let (parking, parked) = std::sync::mpsc::channel();
        let dispatcher = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.attach_dispatcher();
                parking.send(()).unwrap();
                // Whether the enqueue lands before the flag goes up (park
                // refused), between flag and park (token kept) or after
                // (unparked), this returns — and only once depth is 1.
                while s.depth() == 0 {
                    s.park_while_empty();
                }
            })
        };
        parked.recv().unwrap();
        s.enqueue(0, 0, job(1)).unwrap();
        dispatcher.join().unwrap();
    }

    /// What the dispatcher writes per job or per batch (`dispatched`, the
    /// telemetry cell, `rate_ns`), what submitters write (`shed`) and what
    /// both do (`enqueued`) each own their lines; what is left — `queue`,
    /// `healthy`, `parked`, `dispatcher` — is read on every submit and
    /// written only around a park, a give-up or a restart.
    #[test]
    fn submitter_and_dispatcher_written_fields_own_their_lines() {
        let s = shard();
        assert_eq!(std::mem::align_of::<Shard>(), 128);
        let fields = [
            span!(s, Shard, queue),
            span!(s, Shard, dispatched),
            span!(s, Shard, enqueued),
            span!(s, Shard, telemetry),
            span!(s, Shard, healthy),
            span!(s, Shard, shed),
            span!(s, Shard, rate_ns),
            span!(s, Shard, parked),
            span!(s, Shard, dispatcher),
        ];
        let written = ["dispatched", "enqueued", "telemetry", "shed", "rate_ns"];
        assert_owns_its_lines(&fields, &written);
    }
}
