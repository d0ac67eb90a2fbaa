//! First-class observability for every queue: recorders, counters, and
//! latency histograms.
//!
//! The paper's argument is about *where contention goes* — root counters vs.
//! funnel layers vs. elimination — and Calciu et al.'s adaptive queues show
//! that elimination hit rates, CAS-retry counts and per-op latency are
//! exactly the signals an adaptive queue switches on. This module makes them
//! observable on the native implementations:
//!
//! * [`Recorder`] — the queue-facing trait: counter events
//!   ([`CounterEvent`]) plus log-bucketed latency histograms for `insert` /
//!   `delete_min` ([`OpKind`]).
//! * [`NoopRecorder`] — the default; compiles to nothing. Queues are generic
//!   over their recorder with `NoopRecorder` as the default parameter, so
//!   the unobserved path is monomorphized without a single branch or timer
//!   read.
//! * [`AtomicRecorder`] — thread-sharded atomic aggregation, drained into a
//!   [`MetricsSnapshot`] that serializes to JSON with no external
//!   dependencies. It counts every operation and times about one in 64,
//!   so it is cheap enough to leave attached.
//!
//! The substrate events come from `funnelpq-sync`'s probe layer
//! ([`EventSink`]); a queue wires its recorder's sink into its locks,
//! counters and funnels at construction time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use funnelpq_util::json::{JsonWriter, SCHEMA_VERSION};
use funnelpq_util::{mono_ns, AtomicRng, CachePadded};

pub use funnelpq_sync::probe::{CounterEvent, EventSink, SinkRef};

/// Which queue operation a latency sample belongs to.
///
/// The batched/fused kinds keep their identity for span tracing
/// ([`crate::trace`]) while aggregating into the base `insert` /
/// `delete_min` histograms of a [`MetricsSnapshot`]: a batch insert is
/// still time spent inserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A successful `insert` / `try_insert`.
    Insert,
    /// A `delete_min` call (counted whether or not it returned an item;
    /// empty returns additionally fire [`CounterEvent::EmptyDeleteMin`]).
    DeleteMin,
    /// An `insert_batch` call (one sample for the whole batch).
    InsertBatch,
    /// A `delete_min_batch` call (one sample for the whole drain).
    DeleteMinBatch,
    /// A fused `replace_min` (delete_min + insert in one episode).
    ReplaceMin,
}

impl OpKind {
    /// Every kind, in a fixed order matching [`OpKind::index`].
    pub const ALL: [OpKind; 5] = [
        OpKind::Insert,
        OpKind::DeleteMin,
        OpKind::InsertBatch,
        OpKind::DeleteMinBatch,
        OpKind::ReplaceMin,
    ];

    /// Dense index in `0..ALL.len()` (trace-record encoding).
    pub fn index(self) -> usize {
        match self {
            OpKind::Insert => 0,
            OpKind::DeleteMin => 1,
            OpKind::InsertBatch => 2,
            OpKind::DeleteMinBatch => 3,
            OpKind::ReplaceMin => 4,
        }
    }

    /// Stable snake_case name (trace row labels).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::DeleteMin => "delete_min",
            OpKind::InsertBatch => "insert_batch",
            OpKind::DeleteMinBatch => "delete_min_batch",
            OpKind::ReplaceMin => "replace_min",
        }
    }

    /// Which base histogram this kind aggregates into.
    fn base(self) -> OpKind {
        match self {
            OpKind::Insert | OpKind::InsertBatch => OpKind::Insert,
            OpKind::DeleteMin | OpKind::DeleteMinBatch | OpKind::ReplaceMin => OpKind::DeleteMin,
        }
    }
}

/// Number of log₂ latency buckets ([`OpStats::buckets`]); bucket `i` counts
/// samples with `floor(log2(nanos)) + 1 == i` (bucket 0 holds 0 ns), so the
/// top bucket starts at 2³⁰ ns ≈ 1 s.
pub const LATENCY_BUCKETS: usize = 32;

/// Number of log₂ batch-size buckets ([`BatchStats::size_buckets`]); bucket
/// `i` counts batches of `floor(log2(size)) + 1 == i` items (bucket 0 holds
/// empty batches), so the top bucket starts at 2¹⁴ = 16384 items.
pub const BATCH_BUCKETS: usize = 16;

/// Receiver for queue-level metrics. Implementations must be `Send + Sync`;
/// queues hold them in an `Arc` and call them from every operating thread.
///
/// The `ENABLED` constant lets the compiler erase the instrumented paths —
/// including the clock reads bracketing a timed operation — when the
/// recorder is a no-op: queues guard their instrumentation with
/// `if R::ENABLED { ... }`, which monomorphizes to nothing for
/// [`NoopRecorder`].
pub trait Recorder: Send + Sync + 'static {
    /// Whether this recorder wants data at all. `false` compiles the
    /// instrumentation out of the queue's hot paths.
    const ENABLED: bool;

    /// Record `n` occurrences of a counter event.
    fn record_event_n(&self, event: CounterEvent, n: u64);

    /// Record one occurrence of a counter event.
    fn record_event(&self, event: CounterEvent) {
        self.record_event_n(event, 1);
    }

    /// Asked by [`timed`] before each operation of `kind`: `true` means
    /// "time it and report it through [`Recorder::record_op_span`]";
    /// `false` means the recorder has counted the operation itself and
    /// wants no clock read for it. The default times every operation.
    fn begin_op(&self, kind: OpKind) -> bool {
        let _ = kind;
        true
    }

    /// Record one operation of `kind` that took `nanos` nanoseconds.
    fn record_op(&self, kind: OpKind, nanos: u64);

    /// Record one operation of `kind` spanning
    /// `[start_ns, end_ns)` on the [`funnelpq_util::mono_ns`] timeline.
    /// The default forwards the duration to [`Recorder::record_op`];
    /// tracing recorders override it to keep the endpoints.
    fn record_op_span(&self, kind: OpKind, start_ns: u64, end_ns: u64) {
        self.record_op(kind, end_ns.saturating_sub(start_ns));
    }

    /// Record one batched operation ([`crate::BoundedPq::insert_batch`],
    /// [`crate::BoundedPq::delete_min_batch`] or the fused
    /// [`crate::BoundedPq::replace_min`]) that moved `size` items. The
    /// paired [`CounterEvent::BatchOp`] count is reported separately, via
    /// [`record_batch_op`]. The default discards the sample.
    fn record_batch(&self, size: u64) {
        let _ = size;
    }

    /// The substrate-facing sink to wire into locks, counters and funnels at
    /// queue construction, or `None` to leave the substrate uninstrumented.
    fn sink(self: &Arc<Self>) -> Option<SinkRef>;
}

/// The do-nothing recorder every queue defaults to. All methods are empty
/// and [`Recorder::ENABLED`] is `false`, so an un-observed queue carries no
/// instrumentation cost (`pqbench`'s `native_mixed` runs on it, and the
/// ledger's `core.obs.overhead_ratio.*` rows price attaching a recorder).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_event_n(&self, _event: CounterEvent, _n: u64) {}

    #[inline(always)]
    fn record_op(&self, _kind: OpKind, _nanos: u64) {}

    fn sink(self: &Arc<Self>) -> Option<SinkRef> {
        None
    }
}

/// Reports one batched operation that moved `size` items to `rec`: a
/// [`CounterEvent::BatchOp`] plus a batch-size sample — free when
/// `R::ENABLED` is false (the branch is on a constant and monomorphizes to
/// nothing).
#[inline]
pub fn record_batch_op<R: Recorder>(rec: &R, size: u64) {
    if R::ENABLED {
        rec.record_event(CounterEvent::BatchOp);
        rec.record_batch(size);
    }
}

/// Runs `f` as one `kind` operation on `rec`: every operation is counted,
/// and the ones the recorder asks for ([`Recorder::begin_op`]) are timed
/// and reported as a span — free when `R::ENABLED` is false (no timer
/// read, no call, no branch). Timestamps come from the process-wide
/// [`funnelpq_util::mono_ns`] clock so recorders that keep span endpoints
/// (the tracer) see one cross-thread timeline.
#[inline]
pub fn timed<R: Recorder, O>(rec: &R, kind: OpKind, f: impl FnOnce() -> O) -> O {
    if R::ENABLED && rec.begin_op(kind) {
        let start = mono_ns();
        let out = f();
        rec.record_op_span(kind, start, mono_ns());
        out
    } else {
        f()
    }
}

/// Mean number of operations [`AtomicRecorder`] counts without timing
/// between two timed ones, per thread and base kind: each gap is drawn
/// uniformly from `[MEAN_GAP / 2, 3 * MEAN_GAP / 2)`, so a periodic caller
/// cannot stay in phase with the samples. At 64 the two ≈ 33 ns clock
/// reads of a timed op come to ≈ 1 ns per op, and one second of a
/// 250 k ops/s caller still yields ≈ 3 800 samples, enough for a p99; 16
/// costs a MultiQueue ≈ 3 % more and 256 is no cheaper within noise
/// (sweep in `EXPERIMENTS.md`, "Ledger rows: sampled op timing").
const MEAN_GAP: u64 = 64;

/// One operation kind's count and latency aggregate within a shard.
#[derive(Debug, Default)]
struct OpShard {
    count: AtomicU64,
    timed: AtomicU64,
    total_nanos: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
    /// Operations left to count untimed before the next sample; 0 in a
    /// fresh shard, so its first operation is timed. Plain load/store:
    /// threads sharing a shard may lose a decrement, which shifts a
    /// sample by an op and never touches `count`.
    skip: AtomicU64,
}

impl OpShard {
    /// One operation, timed.
    fn record(&self, nanos: u64) {
        // ORDERING: Relaxed ×4 — statistics that publish no other memory;
        // each add is atomic, so no count is lost, and a snapshot taken
        // mid-record may see some of the four and not the others.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.timed.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Log₂ bucket index of a nanosecond sample.
fn bucket_of(nanos: u64) -> usize {
    ((64 - nanos.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// Log₂ bucket index of a batch-size sample.
fn batch_bucket_of(size: u64) -> usize {
    ((64 - size.leading_zeros()) as usize).min(BATCH_BUCKETS - 1)
}

/// Batch-size aggregate within a shard.
#[derive(Debug, Default)]
struct BatchShard {
    count: AtomicU64,
    total_items: AtomicU64,
    size_buckets: [AtomicU64; BATCH_BUCKETS],
}

impl BatchShard {
    fn record(&self, size: u64) {
        // ORDERING: Relaxed ×3 — as in `OpShard::record`.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_items.fetch_add(size, Ordering::Relaxed);
        self.size_buckets[batch_bucket_of(size)].fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct Shard {
    events: [AtomicU64; CounterEvent::COUNT],
    insert: OpShard,
    delete_min: OpShard,
    batch: BatchShard,
    /// Draws the sampling gaps of both op kinds.
    rng: AtomicRng,
}

impl Shard {
    fn new(seed: u64) -> Self {
        Shard {
            events: Default::default(),
            insert: OpShard::default(),
            delete_min: OpShard::default(),
            batch: BatchShard::default(),
            rng: AtomicRng::new(seed),
        }
    }

    /// The aggregate `kind` lands in.
    fn op(&self, kind: OpKind) -> &OpShard {
        match kind.base() {
            OpKind::Insert => &self.insert,
            _ => &self.delete_min,
        }
    }
}

/// Dense per-thread shard index: assigned once per OS thread, round-robin.
/// Locks inside the substrate do not know dense queue thread ids, so the
/// recorder derives its own shard key; counts stay exact because shards are
/// atomic and threads merely *prefer* distinct shards.
pub(crate) fn shard_index(n_shards: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            // ORDERING: Relaxed — the add only hands out indices round-
            // robin and publishes nothing.
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v % n_shards
    })
}

/// A [`Recorder`] (and substrate [`EventSink`]) that aggregates counts and
/// latency histograms in per-thread-sharded atomics, drained on demand into
/// a [`MetricsSnapshot`].
///
/// Counts are exact: every event and every operation lands in exactly one
/// shard's atomic, and [`AtomicRecorder::snapshot`] sums over all shards.
/// Operation *timing* is sampled: of the operations a queue runs through
/// [`timed`], each thread times the first of each base kind and then about
/// one in 64 (gaps redrawn at random, `insert` and `delete_min` counted
/// down separately) and only counts the rest, so the clock is read twice
/// per sample instead of twice per operation. [`OpStats::timed`] says how
/// many samples stand behind the latency figures. A direct
/// [`Recorder::record_op`] call is always one operation, timed.
///
/// # Examples
///
/// ```
/// use funnelpq::obs::{AtomicRecorder, OpKind, Recorder};
/// use std::sync::Arc;
///
/// let rec = Arc::new(AtomicRecorder::new());
/// rec.record_op(OpKind::Insert, 150);
/// let snap = rec.snapshot();
/// assert_eq!(snap.insert.count, 1);
/// assert_eq!(snap.insert.total_nanos, 150);
/// ```
#[derive(Debug)]
pub struct AtomicRecorder {
    shards: Box<[CachePadded<Shard>]>,
}

impl Default for AtomicRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicRecorder {
    /// Creates a recorder with a default shard count sized to the machine.
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(|p| p.get() * 2)
            .unwrap_or(16)
            .clamp(8, 128);
        Self::with_shards(n)
    }

    /// Creates a recorder with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn with_shards(n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        AtomicRecorder {
            shards: (0..n_shards)
                .map(|i| CachePadded::new(Shard::new(i as u64)))
                .collect(),
        }
    }

    fn shard(&self) -> &Shard {
        &self.shards[shard_index(self.shards.len())]
    }

    /// Sums every shard into an owned, plain-data snapshot.
    // ORDERING: every load here is Relaxed. The counters publish no other
    // memory, and a snapshot is a statistic, not a consistent cut: an
    // operation in flight may show in one counter and not yet in another.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in self.shards.iter() {
            for (i, c) in shard.events.iter().enumerate() {
                snap.events[i] += c.load(Ordering::Relaxed);
            }
            for (agg, src) in [
                (&mut snap.insert, &shard.insert),
                (&mut snap.delete_min, &shard.delete_min),
            ] {
                agg.count += src.count.load(Ordering::Relaxed);
                agg.timed += src.timed.load(Ordering::Relaxed);
                agg.total_nanos += src.total_nanos.load(Ordering::Relaxed);
                for (b, s) in agg.buckets.iter_mut().zip(src.buckets.iter()) {
                    *b += s.load(Ordering::Relaxed);
                }
            }
            snap.batch.count += shard.batch.count.load(Ordering::Relaxed);
            snap.batch.total_items += shard.batch.total_items.load(Ordering::Relaxed);
            for (b, s) in snap
                .batch
                .size_buckets
                .iter_mut()
                .zip(shard.batch.size_buckets.iter())
            {
                *b += s.load(Ordering::Relaxed);
            }
        }
        snap
    }
}

impl Recorder for AtomicRecorder {
    const ENABLED: bool = true;

    fn record_event_n(&self, event: CounterEvent, n: u64) {
        // ORDERING: Relaxed — a statistic; see `snapshot`.
        self.shard().events[event.index()].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn begin_op(&self, kind: OpKind) -> bool {
        let shard = self.shard();
        let op = shard.op(kind);
        // ORDERING: Relaxed load and stores on `skip`, a sampling hint:
        // threads sharing a shard may lose a decrement (see `OpShard`),
        // which moves a sample and never a count; the `count` add is a
        // statistic like the rest.
        match op.skip.load(Ordering::Relaxed) {
            0 => {
                let gap = MEAN_GAP / 2 + shard.rng.below(MEAN_GAP);
                op.skip.store(gap, Ordering::Relaxed);
                true
            }
            left => {
                op.skip.store(left - 1, Ordering::Relaxed);
                op.count.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn record_op(&self, kind: OpKind, nanos: u64) {
        self.shard().op(kind).record(nanos);
    }

    fn record_batch(&self, size: u64) {
        self.shard().batch.record(size);
    }

    fn sink(self: &Arc<Self>) -> Option<SinkRef> {
        Some(Arc::clone(self) as SinkRef)
    }
}

impl EventSink for AtomicRecorder {
    fn event_n(&self, event: CounterEvent, n: u64) {
        self.record_event_n(event, n);
    }
}

/// Count and latency aggregate for one operation kind (plain data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Number of operations, exact.
    pub count: u64,
    /// How many of them were timed: the sample behind `total_nanos` and
    /// `buckets` (`timed <= count`).
    pub timed: u64,
    /// Sum of the timed durations, in nanoseconds.
    pub total_nanos: u64,
    /// Log₂ histogram of the timed durations: `buckets[i]` counts samples
    /// whose duration `d` satisfies `floor(log2(d)) + 1 == i`
    /// (`buckets[0]` holds `d == 0`).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            count: 0,
            timed: 0,
            total_nanos: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl OpStats {
    /// Mean duration of the timed operations in nanoseconds (0.0 when
    /// none were timed).
    pub fn mean_nanos(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.timed as f64
        }
    }

    /// Upper edge (in nanoseconds) of the bucket containing quantile `q`
    /// (`0.0..=1.0`) of the timed operations, or 0 when none were timed.
    /// Bucket-resolution only — good for "p99 is under 4 µs" statements,
    /// not exact ranks.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.timed as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

/// Batch-size aggregate across all batched operations (plain data).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of recorded batched operations.
    pub count: u64,
    /// Total items moved by all recorded batches.
    pub total_items: u64,
    /// Log₂ histogram: `size_buckets[i]` counts batches whose size `s`
    /// satisfies `floor(log2(s)) + 1 == i` (`size_buckets[0]` holds
    /// `s == 0`, i.e. batches that drained nothing).
    pub size_buckets: [u64; BATCH_BUCKETS],
}

impl BatchStats {
    /// Mean items per batch (0.0 when no batches were recorded).
    pub fn mean_items(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_items as f64 / self.count as f64
        }
    }
}

/// Plain-data result of draining an [`AtomicRecorder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Event totals, indexed by [`CounterEvent::index`].
    pub events: [u64; CounterEvent::COUNT],
    /// Latency aggregate for inserts.
    pub insert: OpStats,
    /// Latency aggregate for delete-mins.
    pub delete_min: OpStats,
    /// Batch-size aggregate for batched/fused operations.
    pub batch: BatchStats,
}

impl MetricsSnapshot {
    /// Total for one event kind.
    pub fn event(&self, event: CounterEvent) -> u64 {
        self.events[event.index()]
    }

    /// Total recorded operations (inserts + delete-mins).
    pub fn total_ops(&self) -> u64 {
        self.insert.count + self.delete_min.count
    }

    /// Serializes to a self-contained JSON object via the workspace's
    /// shared [`JsonWriter`] (no serde: the container builds fully
    /// offline). Layout:
    ///
    /// ```json
    /// {"schema_version": 3,
    ///  "algorithm": "...",
    ///  "events": {"cas_retry": 0, ...},
    ///  "insert": {"count": 0, "timed": 0, "total_nanos": 0, "mean_nanos": 0,
    ///             "p50_nanos_le": 0, "p99_nanos_le": 0, "buckets": [...]},
    ///  "delete_min": {...},
    ///  "batch": {"count": 0, "total_items": 0, "mean_items": 0,
    ///            "size_buckets": [...]}}
    /// ```
    ///
    /// `schema_version` is [`funnelpq_util::json::SCHEMA_VERSION`]; bucket
    /// arrays are truncated after their last nonzero entry.
    pub fn to_json(&self, algorithm: &str) -> String {
        fn buckets(w: &mut JsonWriter, k: &str, all: &[u64]) {
            let last_nonzero = all.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            w.key(k);
            w.begin_arr(false);
            for &b in &all[..last_nonzero] {
                w.u64(b);
            }
            w.end();
        }
        fn op_json(w: &mut JsonWriter, key: &str, s: &OpStats) {
            w.key(key);
            w.begin_obj(false);
            w.field_u64("count", s.count);
            w.field_u64("timed", s.timed);
            w.field_u64("total_nanos", s.total_nanos);
            w.field_f64_fixed("mean_nanos", s.mean_nanos(), 1);
            w.field_u64("p50_nanos_le", s.quantile_upper_bound(0.5));
            w.field_u64("p99_nanos_le", s.quantile_upper_bound(0.99));
            buckets(w, "buckets", &s.buckets);
            w.end();
        }

        let mut w = JsonWriter::spaced();
        w.begin_obj(true);
        w.field_u64("schema_version", u64::from(SCHEMA_VERSION));
        w.field_str("algorithm", algorithm);
        w.key("events");
        w.begin_obj(false);
        for e in CounterEvent::ALL.iter() {
            w.field_u64(e.name(), self.event(*e));
        }
        w.end();
        op_json(&mut w, "insert", &self.insert);
        op_json(&mut w, "delete_min", &self.delete_min);
        w.key("batch");
        w.begin_obj(false);
        w.field_u64("count", self.batch.count);
        w.field_u64("total_items", self.batch.total_items);
        w.field_f64_fixed("mean_items", self.batch.mean_items(), 1);
        buckets(&mut w, "size_buckets", &self.batch.size_buckets);
        w.end();
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn recorder_aggregates_across_threads() {
        let rec = Arc::new(AtomicRecorder::with_shards(4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        rec.record_event(CounterEvent::CasRetry);
                        rec.record_op(OpKind::Insert, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.event(CounterEvent::CasRetry), 800);
        assert_eq!(snap.insert.count, 800);
        assert_eq!(snap.insert.total_nanos, 8 * (0..100).sum::<u64>());
        assert_eq!(snap.insert.buckets.iter().sum::<u64>(), 800);
    }

    #[test]
    fn quantile_upper_bounds_are_monotone() {
        let rec = Arc::new(AtomicRecorder::with_shards(1));
        for n in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            rec.record_op(OpKind::DeleteMin, n);
        }
        let s = rec.snapshot().delete_min;
        let p50 = s.quantile_upper_bound(0.5);
        let p99 = s.quantile_upper_bound(0.99);
        assert!(p50 <= p99);
        assert!(p99 >= 100_000);
    }

    #[test]
    fn sampled_ops_count_exactly_and_rank_within_the_sample() {
        let rec = AtomicRecorder::with_shards(1);
        for _ in 0..10_000 {
            timed(&rec, OpKind::Insert, || std::hint::black_box(0));
        }
        let s = rec.snapshot().insert;
        assert_eq!(s.count, 10_000);
        // The first op, then one per gap of MEAN_GAP/2 .. 3*MEAN_GAP/2.
        let per_sample = |gap: u64| 1 + 10_000 / (gap + 1);
        assert!((per_sample(3 * MEAN_GAP / 2)..=per_sample(MEAN_GAP / 2)).contains(&s.timed));
        assert_eq!(s.buckets.iter().sum::<u64>(), s.timed);
        // Ranked against `count`, p100 would walk off the histogram and
        // report the top bucket's edge.
        let top = s.buckets.iter().rposition(|&b| b != 0).unwrap();
        assert_eq!(
            s.quantile_upper_bound(1.0),
            if top == 0 { 0 } else { 1 << top }
        );
        // A kind that never ran has no sample to rank.
        assert_eq!(rec.snapshot().delete_min.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn json_is_balanced_and_names_every_event() {
        let rec = Arc::new(AtomicRecorder::new());
        rec.record_event_n(CounterEvent::ElimHit, 7);
        rec.record_op(OpKind::Insert, 42);
        let json = rec.snapshot().to_json("FunnelTree");
        assert!(json.starts_with("{\n  \"schema_version\": 3,"));
        assert!(json.contains("\"algorithm\": \"FunnelTree\""));
        assert!(json.contains("\"elim_hit\": 7"));
        for e in CounterEvent::ALL {
            assert!(json.contains(&format!("\"{}\"", e.name())), "{e} missing");
        }
        let bal = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(bal('{', '}') && bal('[', ']'));
    }

    #[test]
    fn batch_histogram_counts_and_serializes() {
        let rec = Arc::new(AtomicRecorder::with_shards(2));
        record_batch_op(&*rec, 0); // a drain that found nothing
        record_batch_op(&*rec, 1);
        record_batch_op(&*rec, 8);
        record_batch_op(&*rec, 64);
        record_batch_op(&*rec, u64::MAX); // clamps to the top bucket
        let snap = rec.snapshot();
        assert_eq!(snap.event(CounterEvent::BatchOp), 5);
        assert_eq!(snap.batch.count, 5);
        // Shard totals use wrapping atomic adds; mirror that here.
        assert_eq!(
            snap.batch.total_items,
            (1u64 + 8 + 64).wrapping_add(u64::MAX)
        );
        assert_eq!(snap.batch.size_buckets[0], 1);
        assert_eq!(snap.batch.size_buckets[batch_bucket_of(8)], 1);
        assert_eq!(snap.batch.size_buckets[BATCH_BUCKETS - 1], 1);
        assert_eq!(snap.batch.size_buckets.iter().sum::<u64>(), 5);
        let json = snap.to_json("SingleLock");
        assert!(json.contains("\"batch\": {\"count\": 5"));
        assert!(json.contains("\"batch_op\": 5"));
    }

    #[test]
    fn batch_bucket_edges() {
        assert_eq!(batch_bucket_of(0), 0);
        assert_eq!(batch_bucket_of(1), 1);
        assert_eq!(batch_bucket_of(64), 7);
        assert_eq!(batch_bucket_of(u64::MAX), BATCH_BUCKETS - 1);
    }

    #[test]
    fn noop_recorder_reports_no_sink() {
        let rec = Arc::new(NoopRecorder);
        assert!(rec.sink().is_none());
        const { assert!(!NoopRecorder::ENABLED) }
    }
}
