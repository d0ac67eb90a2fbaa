//! First-class observability for every queue: recorders, counters, and
//! latency histograms.
//!
//! The paper's argument is about *where contention goes* — root counters vs.
//! funnel layers vs. elimination — and Calciu et al.'s adaptive queues show
//! that elimination hit rates, CAS-retry counts and per-op latency are
//! exactly the signals an adaptive queue switches on. This module makes them
//! observable on the native implementations:
//!
//! * [`Recorder`] — the queue-facing trait: an [`EventSink`] for counter
//!   events ([`CounterEvent`]) plus log-bucketed latency histograms for
//!   `insert` / `delete_min` ([`OpKind`]).
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
//! ([`EventSink`]); a queue counts its own events on its recorder with the
//! same `event` / `event_n` calls, and wires the recorder in as the sink of
//! its locks, counters and funnels at construction time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use funnelpq_util::json::{JsonWriter, SCHEMA_VERSION};
use funnelpq_util::{mono_ns, AtomicRng, CachePadded};

pub use funnelpq_sync::probe::{CounterEvent, EventSink, SinkRef};

/// Which queue operation a latency sample belongs to; its discriminant is
/// its histogram slot in a [`MetricsSnapshot`].
///
/// A batched or fused operation is reported under its base kind: an
/// `insert_batch` is one `Insert` sample (time spent inserting), a
/// `delete_min_batch` or `replace_min` one `DeleteMin` sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An `insert` / `try_insert` / `insert_batch` call.
    Insert,
    /// A `delete_min` / `delete_min_batch` / `replace_min` call (counted
    /// whether or not it returned an item; empty returns additionally fire
    /// [`CounterEvent::EmptyDeleteMin`]).
    DeleteMin,
}

/// Number of log₂ latency buckets ([`OpStats::buckets`]); bucket `i` counts
/// samples with `floor(log2(nanos)) + 1 == i` (bucket 0 holds 0 ns), so the
/// top bucket starts at 2³⁰ ns ≈ 1 s.
pub const LATENCY_BUCKETS: usize = 32;

/// Number of log₂ batch-size buckets ([`BatchStats::size_buckets`]); bucket
/// `i` counts batches of `floor(log2(size)) + 1 == i` items (bucket 0 holds
/// empty batches), so the top bucket starts at 2¹⁴ = 16384 items.
pub const BATCH_BUCKETS: usize = 16;

/// Receiver for queue-level metrics: counter events through its
/// [`EventSink`] half, operation latencies and batch sizes through the
/// methods below. Queues hold it in an `Arc` and call it from every
/// operating thread.
///
/// The `ENABLED` constant lets the compiler erase the instrumented paths —
/// including the clock reads bracketing a timed operation — when the
/// recorder is a no-op: queues guard their instrumentation with
/// `if R::ENABLED { ... }`, which monomorphizes to nothing for
/// [`NoopRecorder`].
pub trait Recorder: EventSink + 'static {
    /// Whether this recorder wants data at all. `false` compiles the
    /// instrumentation out of the queue's hot paths.
    const ENABLED: bool;

    /// Asked by [`timed`] before each operation of `kind`: `true` means
    /// "time it and report it through [`Recorder::record_op`]";
    /// `false` means the recorder has counted the operation itself and
    /// wants no clock read for it. The default times every operation.
    fn begin_op(&self, kind: OpKind) -> bool {
        let _ = kind;
        true
    }

    /// Record one operation of `kind` that took `nanos` nanoseconds.
    fn record_op(&self, kind: OpKind, nanos: u64);

    /// Record one batched operation ([`crate::BoundedPq::insert_batch`],
    /// [`crate::BoundedPq::delete_min_batch`] or the fused
    /// [`crate::BoundedPq::replace_min`]) that moved `size` items. The
    /// paired [`CounterEvent::BatchOp`] count is reported separately, via
    /// [`record_batch_op`]. The default discards the sample.
    fn record_batch(&self, size: u64) {
        let _ = size;
    }

    /// The substrate-facing sink to wire into locks, counters and funnels at
    /// queue construction: the recorder itself, or `None` when it is
    /// disabled, which leaves the substrate uninstrumented.
    fn sink(self: &Arc<Self>) -> Option<SinkRef>
    where
        Self: Sized,
    {
        if Self::ENABLED {
            Some(Arc::clone(self) as SinkRef)
        } else {
            None
        }
    }
}

/// The do-nothing recorder every queue defaults to. All methods are empty
/// and [`Recorder::ENABLED`] is `false`, so an un-observed queue carries no
/// instrumentation cost (`pqbench`'s `native_mixed` runs on it, and the
/// ledger's `core.obs.overhead_ratio.*` rows price attaching a recorder).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl EventSink for NoopRecorder {
    #[inline(always)]
    fn event_n(&self, _event: CounterEvent, _n: u64) {}
}

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_op(&self, _kind: OpKind, _nanos: u64) {}
}

/// Reports one batched operation that moved `size` items to `rec`: a
/// [`CounterEvent::BatchOp`] plus a batch-size sample — free when
/// `R::ENABLED` is false (the branch is on a constant and monomorphizes to
/// nothing).
#[inline]
pub fn record_batch_op<R: Recorder>(rec: &R, size: u64) {
    if R::ENABLED {
        rec.event(CounterEvent::BatchOp);
        rec.record_batch(size);
    }
}

/// Runs `f` as one `kind` operation on `rec`: every operation is counted,
/// and the ones the recorder asks for ([`Recorder::begin_op`]) are timed
/// and reported through [`Recorder::record_op`] — free when `R::ENABLED`
/// is false (no timer read, no call, no branch).
#[inline]
pub fn timed<R: Recorder, O>(rec: &R, kind: OpKind, f: impl FnOnce() -> O) -> O {
    if R::ENABLED && rec.begin_op(kind) {
        let start = mono_ns();
        let out = f();
        rec.record_op(kind, mono_ns().saturating_sub(start));
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
/// (sweep in `EXPERIMENTS.md`, "Ledger rows: sampled op timing"). What the
/// recorder costs beyond that is exact counting into owned shards: ≈ 1.2×
/// a bare two-thread SingleLock and 1.1× a MultiQueue on the ledger
/// (`core.obs.overhead_ratio.*`; "Ledger rows: owner-written recorder shards").
const MEAN_GAP: u64 = 64;

/// Log₂ bucket index of a nanosecond sample.
fn bucket_of(nanos: u64) -> usize {
    ((64 - nanos.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// Log₂ bucket index of a batch-size sample.
fn batch_bucket_of(size: u64) -> usize {
    ((64 - size.leading_zeros()) as usize).min(BATCH_BUCKETS - 1)
}

/// Adds `n` to `c`, a word of a shard this thread owns (`owned`) or of
/// the shared shard.
#[inline(always)]
fn add(c: &AtomicU64, n: u64, owned: bool) {
    if owned {
        // ORDERING: Relaxed load and store — the owner is the word's only
        // writer, so no write lands between them; see `snapshot`.
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    } else {
        // ORDERING: Relaxed — sharers race, so the add is atomic; see `snapshot`.
        c.fetch_add(n, Ordering::Relaxed);
    }
}

/// One writer's counters; a pair holds `insert`'s word, then
/// `delete_min`'s. `repr(C)` keeps the words every counted operation writes
/// (up to the event `EmptyDeleteMin`) in the first 128-byte line.
#[derive(Debug)]
#[repr(C)]
struct Shard {
    /// The [`thread_token`] of the thread that writes this shard, or 0
    /// while unclaimed; set once, by the claiming CAS, and never cleared.
    owner: AtomicUsize,
    count: [AtomicU64; 2],
    /// Operations left to count untimed before the next sample (0 at first,
    /// so the first is timed). Exact in an owned shard, its owner its only
    /// writer; sharers may lose a decrement, shifting a sample, not a count.
    skip: [AtomicU64; 2],
    events: [AtomicU64; CounterEvent::COUNT],
    timed: [AtomicU64; 2],
    total_nanos: [AtomicU64; 2],
    buckets: [[AtomicU64; LATENCY_BUCKETS]; 2],
    batches: AtomicU64,
    batch_items: AtomicU64,
    batch_buckets: [AtomicU64; BATCH_BUCKETS],
    /// Draws the sampling gaps of both op kinds.
    rng: AtomicRng,
}

impl Shard {
    fn new(seed: u64) -> Self {
        Shard {
            owner: AtomicUsize::new(0),
            count: Default::default(),
            skip: Default::default(),
            events: Default::default(),
            timed: Default::default(),
            total_nanos: Default::default(),
            buckets: Default::default(),
            batches: Default::default(),
            batch_items: Default::default(),
            batch_buckets: Default::default(),
            rng: AtomicRng::new(seed),
        }
    }
}

/// A thread's token (0 until assigned), and the recorder it used last
/// with its shard there.
struct Slot {
    token: Cell<usize>,
    last: Cell<(u64, usize)>,
}

thread_local! {
    static SLOT: Slot = const { Slot { token: Cell::new(0), last: Cell::new((0, 0)) } };
}

/// This thread's token: nonzero, never given to another thread. It marks
/// the shards the thread owns and picks its home shard.
pub(crate) fn thread_token() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    SLOT.with(|s| {
        if s.token.get() == 0 {
            // ORDERING: Relaxed — hands out distinct tokens, publishes nothing.
            s.token.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        s.token.get()
    })
}

/// A [`Recorder`] (and substrate [`EventSink`]) that aggregates counts and
/// latency histograms in per-thread shards, drained on demand into a
/// [`MetricsSnapshot`].
///
/// Counts are exact because each shard word has one writer or takes
/// atomic adds. A thread's first count claims it a shard, the first free
/// one from its home (token modulo shard count) on, by a CAS on the owner
/// word; the owner is then its only writer and bumps it with a plain load
/// and store, which loses nothing. A thread that finds every shard claimed
/// counts through the shared shard with atomic adds, and
/// [`AtomicRecorder::snapshot`] sums them all. So until more threads than
/// shards have touched a recorder, each owns a shard. A shard stays with
/// its first owner for the recorder's life, even after that thread exits:
/// churn costs speed, never counts, as every thread after the first
/// `n_shards` pays a `lock`-prefixed add per word on the shared shard.
///
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
    /// The owned shards, then the shared one.
    shards: Box<[CachePadded<Shard>]>,
    /// Tells a thread's [`Slot`] for this recorder from one for another.
    id: u64,
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

    /// Creates a recorder with `n_shards` shards for threads to own, plus
    /// the shared one.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn with_shards(n_shards: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        assert!(n_shards > 0, "need at least one shard");
        AtomicRecorder {
            shards: (0..=n_shards)
                .map(|i| CachePadded::new(Shard::new(i as u64)))
                .collect(),
            // ORDERING: Relaxed — hands out distinct ids, publishes nothing.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// This thread's shard, and whether the thread owns it.
    #[inline]
    fn shard(&self) -> (&Shard, bool) {
        let (recorder, i) = SLOT.with(|s| s.last.get());
        let i = if recorder == self.id { i } else { self.claim() };
        (&self.shards[i], i + 1 < self.shards.len())
    }

    /// This thread's shard when its [`Slot`] is another recorder's: the
    /// first from its home on that it owns or can claim, else the shared one.
    #[cold]
    #[inline(never)]
    fn claim(&self) -> usize {
        use Ordering::Relaxed;
        let (token, owned) = (thread_token(), self.shards.len() - 1);
        // ORDERING: Relaxed — the CAS only picks one owner and publishes no
        // memory; the load first keeps failing CASes off owned lines.
        let shard = (0..owned)
            .map(|k| (token + k) % owned)
            .find(|&i| match self.shards[i].owner.load(Relaxed) {
                0 => (self.shards[i].owner)
                    .compare_exchange(0, token, Relaxed, Relaxed)
                    .is_ok(),
                owner => owner == token,
            })
            .unwrap_or(owned);
        SLOT.with(|s| s.last.set((self.id, shard)));
        shard
    }

    /// Sums every shard into an owned, plain-data snapshot.
    // ORDERING: every load here is Relaxed. The counters publish no other
    // memory, and a snapshot is a statistic, not a consistent cut: an
    // operation in flight may show in one counter and not yet in another.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        for shard in self.shards.iter() {
            for (i, c) in shard.events.iter().enumerate() {
                snap.events[i] += load(c);
            }
            let aggs = [&mut snap.insert, &mut snap.delete_min];
            for (k, agg) in aggs.into_iter().enumerate() {
                agg.count += load(&shard.count[k]);
                agg.timed += load(&shard.timed[k]);
                agg.total_nanos += load(&shard.total_nanos[k]);
                for (b, s) in agg.buckets.iter_mut().zip(&shard.buckets[k]) {
                    *b += load(s);
                }
            }
            snap.batch.count += load(&shard.batches);
            snap.batch.total_items += load(&shard.batch_items);
            for (b, s) in snap.batch.size_buckets.iter_mut().zip(&shard.batch_buckets) {
                *b += load(s);
            }
        }
        snap
    }
}

impl EventSink for AtomicRecorder {
    fn event_n(&self, event: CounterEvent, n: u64) {
        let (shard, owned) = self.shard();
        add(&shard.events[event.index()], n, owned);
    }
}

impl Recorder for AtomicRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn begin_op(&self, kind: OpKind) -> bool {
        let (shard, owned) = self.shard();
        let k = kind as usize;
        // ORDERING: Relaxed load and store on `skip`: the owner's own word
        // (see `add`), or in the shared shard a sampling hint that may
        // lose a decrement (see `Shard::skip`).
        match shard.skip[k].load(Ordering::Relaxed) {
            0 => {
                let gap = MEAN_GAP / 2 + shard.rng.below(MEAN_GAP);
                shard.skip[k].store(gap, Ordering::Relaxed);
                true
            }
            left => {
                shard.skip[k].store(left - 1, Ordering::Relaxed);
                add(&shard.count[k], 1, owned);
                false
            }
        }
    }

    fn record_op(&self, kind: OpKind, nanos: u64) {
        let (shard, owned) = self.shard();
        let k = kind as usize;
        add(&shard.count[k], 1, owned);
        add(&shard.timed[k], 1, owned);
        add(&shard.total_nanos[k], nanos, owned);
        add(&shard.buckets[k][bucket_of(nanos)], 1, owned);
    }

    fn record_batch(&self, size: u64) {
        let (shard, owned) = self.shard();
        add(&shard.batches, 1, owned);
        add(&shard.batch_items, size, owned);
        add(&shard.batch_buckets[batch_bucket_of(size)], 1, owned);
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
    /// {"schema_version": 4,
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

    impl AtomicRecorder {
        /// Writes that went through the shared shard: its op and batch
        /// counts plus its events.
        fn shared_writes(&self) -> u64 {
            let s = self.shards.last().unwrap();
            let words = s.count.iter().chain(&s.events).chain([&s.batches]);
            words.map(|c| c.load(Ordering::Relaxed)).sum()
        }
    }

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
                        rec.event(CounterEvent::CasRetry);
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
        rec.event_n(CounterEvent::ElimHit, 7);
        rec.record_op(OpKind::Insert, 42);
        let json = rec.snapshot().to_json("FunnelTree");
        assert!(json.starts_with("{\n  \"schema_version\": 4,"));
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

    #[test]
    fn the_words_every_op_writes_share_the_first_line() {
        use std::mem::offset_of;
        assert_eq!(offset_of!(Shard, owner), 0);
        let hot_end = offset_of!(Shard, events) + 8 * (CounterEvent::EmptyDeleteMin.index() + 1);
        assert!(offset_of!(Shard, skip) < hot_end && hot_end <= 128);
    }

    /// One pqbench-shaped slice per round: the main thread prefills a
    /// SingleLock queue through a fresh recorder, then two workers run
    /// mixed operations on it.
    #[test]
    fn threads_up_to_the_shard_count_each_own_a_shard() {
        use crate::{Algorithm, PqBuilder};
        for round in 0..12u64 {
            let rec = Arc::new(AtomicRecorder::with_shards(3));
            let q = PqBuilder::new(Algorithm::SingleLock, 8, 3)
                .recorder(Arc::clone(&rec))
                .build::<u64>();
            for i in 0..100 {
                q.insert(0, (i % 8) as usize, i);
            }
            std::thread::scope(|s| {
                for tid in 1..3 {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..1_000 {
                            q.insert(tid, (i % 8) as usize, i);
                            q.delete_min(tid);
                        }
                    });
                }
            });
            let snap = rec.snapshot();
            assert_eq!(snap.total_ops(), 100 + 2 * 2_000, "round {round}");
            assert_eq!(snap.event(CounterEvent::LockAcquire), snap.total_ops());
            assert_eq!(rec.shared_writes(), 0, "round {round}: a thread shared");
        }
        // As many threads as shards, all at once.
        let rec = AtomicRecorder::with_shards(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        timed(&rec, OpKind::Insert, || ());
                        rec.event(CounterEvent::LockAcquire);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().insert.count, 4_000);
        assert_eq!(rec.shared_writes(), 0);
    }

    #[test]
    fn threads_sharing_the_shared_shard_lose_no_count() {
        const THREADS: u64 = 4;
        const N: u64 = 1_000_000;
        let rec = AtomicRecorder::with_shards(1);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..N {
                        rec.event(CounterEvent::LockAcquire);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().event(CounterEvent::LockAcquire), THREADS * N);
        assert_eq!(rec.shared_writes(), (THREADS - 1) * N);
    }

    #[test]
    fn a_thread_whose_home_owner_exited_still_counts_exactly() {
        let count = |rec: &AtomicRecorder| {
            for _ in 0..1_000 {
                timed(rec, OpKind::DeleteMin, || ());
                rec.event(CounterEvent::CasRetry);
                record_batch_op(rec, 3);
            }
        };
        // One shard: every thread's home is the first owner's.
        let rec = AtomicRecorder::with_shards(1);
        std::thread::scope(|s| s.spawn(|| count(&rec)).join().unwrap());
        assert_eq!(rec.shared_writes(), 0);
        std::thread::scope(|s| s.spawn(|| count(&rec)).join().unwrap());
        let snap = rec.snapshot();
        assert_eq!(snap.delete_min.count, 2_000);
        assert_eq!(snap.event(CounterEvent::CasRetry), 2_000);
        assert_eq!(snap.batch.total_items, 6_000);
        // The latecomer counted through the shared shard: its ops, its two
        // events per iteration and its batches.
        assert_eq!(rec.shared_writes(), 4 * 1_000);
        // Two shards: of two latecomers, one claims the free shard.
        let rec = AtomicRecorder::with_shards(2);
        for _ in 0..3 {
            std::thread::scope(|s| s.spawn(|| count(&rec)).join().unwrap());
        }
        assert_eq!(rec.snapshot().delete_min.count, 3_000);
        assert_eq!(rec.shared_writes(), 4 * 1_000);
    }
}
