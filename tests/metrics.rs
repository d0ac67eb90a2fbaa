//! Observability conformance: an `AtomicRecorder` attached through
//! `PqBuilder` must count operations *exactly* — every insert and every
//! delete-min call, across threads and algorithms — while timing only a
//! sample of them, and its JSON snapshot must carry both numbers.

use std::sync::{Arc, Barrier};
use std::thread;

use funnelpq::obs::{
    record_batch_op, AtomicRecorder, CounterEvent, EventSink, OpKind, OpStats, Recorder,
};
use funnelpq::{Algorithm, BoundedPq, NumaConfig, PqBuilder, PqConfig};

const THREADS: usize = 4;
const INSERTS_PER_THREAD: usize = 250;
const DELETES_PER_THREAD: usize = 200;

/// What every snapshot owes its reader about the timed sample: it is
/// non-empty once anything ran, never larger than the exact count, and it
/// is precisely what the histogram and the nanosecond total describe.
fn assert_timed_sample(s: &OpStats, what: &str) {
    assert!(
        (1..=s.count).contains(&s.timed),
        "{what}: timed {} outside 1..={}",
        s.timed,
        s.count
    );
    assert_eq!(
        s.buckets.iter().sum::<u64>(),
        s.timed,
        "{what}: histogram mass must equal the timed sample"
    );
    assert!(s.total_nanos > 0, "{what}: latency recorded");
}

/// Seeded multi-threaded stress: every thread performs a fixed, known
/// number of operations; the recorder must report exactly those totals for
/// every natively buildable algorithm — all nine — (op counts are exact
/// even though which items the delete-mins return is racy).
#[test]
fn atomic_recorder_counts_exact_op_totals() {
    for cfg in Algorithm::EVERY
        .into_iter()
        .filter_map(PqConfig::for_algorithm)
    {
        let a = cfg.algorithm();
        let rec = Arc::new(AtomicRecorder::new());
        let q: Arc<dyn BoundedPq<u64>> = Arc::from(
            PqBuilder::from_config(cfg, 16, THREADS)
                .recorder(Arc::clone(&rec))
                .build::<u64>(),
        );
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    // Deterministic per-thread op sequence (seeded by tid).
                    for i in 0..INSERTS_PER_THREAD {
                        q.insert(tid, (tid * 7 + i * 3) % 16, (tid * 1000 + i) as u64);
                        if i < DELETES_PER_THREAD {
                            q.delete_min(tid);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = rec.snapshot();
        assert_eq!(
            snap.insert.count,
            (THREADS * INSERTS_PER_THREAD) as u64,
            "{a}: insert count must be exact"
        );
        assert_eq!(
            snap.delete_min.count,
            (THREADS * DELETES_PER_THREAD) as u64,
            "{a}: delete_min count must be exact"
        );
        assert_eq!(
            snap.total_ops(),
            (THREADS * (INSERTS_PER_THREAD + DELETES_PER_THREAD)) as u64,
            "{a}: total op count must be exact"
        );
        assert_timed_sample(&snap.insert, &format!("{a} insert"));
        assert_timed_sample(&snap.delete_min, &format!("{a} delete_min"));

        // The snapshot serializes with the exact count and the sample size.
        let json = snap.to_json(a.name());
        assert!(json.contains(&format!("\"algorithm\": \"{}\"", a.name())));
        assert!(json.contains(&format!(
            "\"count\": {}, \"timed\": {}",
            snap.insert.count, snap.insert.timed
        )));
    }
}

/// A caller whose op kinds are perfectly periodic must not alias one kind
/// out of the histogram: one thread strictly alternating `insert` and
/// `delete_min` leaves *both* kinds sampled at about one op in 64.
#[test]
fn alternating_caller_cannot_alias_a_kind_out_of_the_sample() {
    const PAIRS: u64 = 10_000;
    for a in [Algorithm::SingleLock, Algorithm::MultiQueue] {
        let rec = Arc::new(AtomicRecorder::new());
        let q = PqBuilder::new(a, 16, 1)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        for i in 0..PAIRS {
            q.insert(0, (i % 16) as usize, i);
            q.delete_min(0);
        }
        let snap = rec.snapshot();
        for (s, kind) in [(&snap.insert, "insert"), (&snap.delete_min, "delete_min")] {
            assert_eq!(s.count, PAIRS, "{a} {kind}: count stays exact");
            assert_timed_sample(s, &format!("{a} {kind}"));
            let expected = PAIRS / 64;
            assert!(
                (expected / 2..=expected * 2).contains(&s.timed),
                "{a} {kind}: timed {} not within [1/2, 2] x {expected}",
                s.timed
            );
        }
    }
}

/// An `AtomicRecorder` behind a recorder that keeps `Recorder::begin_op`'s
/// default, so `timed` asks it to time every operation.
#[derive(Default)]
struct TimesEveryOp(AtomicRecorder);

impl EventSink for TimesEveryOp {
    fn event_n(&self, event: CounterEvent, n: u64) {
        self.0.event_n(event, n);
    }
}

impl Recorder for TimesEveryOp {
    const ENABLED: bool = true;

    fn record_op(&self, kind: OpKind, nanos: u64) {
        self.0.record_op(kind, nanos);
    }
}

/// A recorder that keeps the trait's default "time everything" gets every
/// operation timed: its sample is the whole count.
#[test]
fn the_default_begin_op_times_every_op() {
    const PAIRS: u64 = 1_000;
    let rec = Arc::new(TimesEveryOp::default());
    let q = PqBuilder::new(Algorithm::SingleLock, 16, 1)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    for i in 0..PAIRS {
        q.insert(0, (i % 16) as usize, i);
        q.delete_min(0);
    }
    let snap = rec.0.snapshot();
    assert_eq!(snap.total_ops(), 2 * PAIRS);
    assert_eq!(snap.insert.timed, snap.insert.count);
    assert_eq!(snap.delete_min.timed, snap.delete_min.count);
}

/// Op counts stay exact when more OS threads than shards share a recorder:
/// threads on one shard race on its sampling countdown (plain load/store),
/// which may move a sample but must never lose or invent an operation.
#[test]
fn op_counts_are_exact_when_threads_share_shards() {
    const WRITERS: usize = 8;
    const PAIRS: u64 = 5_000;
    let rec = Arc::new(AtomicRecorder::with_shards(2));
    let q: Arc<dyn BoundedPq<u64>> = Arc::from(
        PqBuilder::new(Algorithm::MultiQueue, 16, WRITERS)
            .recorder(Arc::clone(&rec))
            .build::<u64>(),
    );
    let barrier = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let q = Arc::clone(&q);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..PAIRS {
                    q.insert(tid, (i % 16) as usize, i);
                    q.delete_min(tid);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rec.snapshot();
    assert_eq!(snap.insert.count, WRITERS as u64 * PAIRS);
    assert_eq!(snap.delete_min.count, WRITERS as u64 * PAIRS);
    assert_timed_sample(&snap.insert, "shared-shard insert");
    assert_timed_sample(&snap.delete_min, "shared-shard delete_min");
    // Sampled, not timed throughout: the skipping path really ran.
    assert!(snap.insert.timed < snap.insert.count / 8);
}

/// Lock-based algorithms must report substrate traffic (lock acquisitions);
/// an insert/delete pair on `SingleLock` takes the one heap lock exactly
/// once per operation.
#[test]
fn single_lock_lock_acquisitions_are_exact() {
    let rec = Arc::new(AtomicRecorder::with_shards(2));
    let q = PqBuilder::new(Algorithm::SingleLock, 8, 1)
        .recorder(Arc::clone(&rec))
        .build::<u8>();
    for i in 0..10 {
        q.insert(0, i % 8, i as u8);
    }
    for _ in 0..10 {
        q.delete_min(0);
    }
    // 10 inserts + 10 delete_mins, one lock() each; is_empty not called.
    let snap = rec.snapshot();
    assert_eq!(snap.event(CounterEvent::LockAcquire), 20);
    assert_eq!(snap.event(CounterEvent::EmptyDeleteMin), 0);
    // One more delete on the now-empty queue: counted as an op, flagged
    // empty, and still takes the lock once.
    q.delete_min(0);
    let snap = rec.snapshot();
    assert_eq!(snap.event(CounterEvent::LockAcquire), 21);
    assert_eq!(snap.event(CounterEvent::EmptyDeleteMin), 1);
    assert_eq!(snap.delete_min.count, 11);
    // The rest of the API takes the lock once per call as well: both
    // batches (with items and without), the fused replace, the probe.
    let drain = |k| q.delete_min_batch(0, k, &mut Vec::new());
    let calls: [(&str, &dyn Fn()); 5] = [
        ("insert_batch", &|| {
            q.insert_batch(0, vec![(5, 2), (1, 3), (4, 4)]).unwrap()
        }),
        ("replace_min", &|| {
            assert_eq!(q.replace_min(0, 6, 5), Some((1, 3)))
        }),
        ("is_empty", &|| assert!(!q.is_empty())),
        ("delete_min_batch", &|| assert_eq!(drain(8), 3)),
        ("empty delete_min_batch", &|| assert_eq!(drain(8), 0)),
    ];
    for (name, call) in calls {
        let before = rec.snapshot().event(CounterEvent::LockAcquire);
        call();
        let taken = rec.snapshot().event(CounterEvent::LockAcquire) - before;
        assert_eq!(taken, 1, "{name} took the lock {taken} times");
    }
}

/// The two-thread twin of the test above: on an `AtomicRecorder` the
/// acquisition count stays exact under contention — one per operation.
#[test]
fn counting_recorder_sees_every_acquisition() {
    const THREADS: usize = 2;
    const PAIRS: u64 = 5_000;
    let rec = Arc::new(AtomicRecorder::new());
    let q = PqBuilder::new(Algorithm::SingleLock, 8, THREADS)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    thread::scope(|s| {
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

/// Funnel algorithms under contention surface funnel-specific events; at
/// the very least the event channel is wired (counts are workload-dependent
/// so only structural properties are asserted).
#[test]
fn funnel_events_flow_into_the_recorder() {
    let rec = Arc::new(AtomicRecorder::new());
    let q: Arc<dyn BoundedPq<u64>> = Arc::from(
        PqBuilder::new(Algorithm::FunnelTree, 8, THREADS)
            .recorder(Arc::clone(&rec))
            .build::<u64>(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..400 {
                    q.insert(tid, (tid + i) % 8, i as u64);
                    q.delete_min(tid);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rec.snapshot();
    assert_eq!(snap.insert.count, (THREADS * 400) as u64);
    assert_eq!(snap.delete_min.count, (THREADS * 400) as u64);
    // FunnelTree's deeper counters are MCS-locked: lock traffic must show.
    assert!(snap.event(CounterEvent::LockAcquire) > 0);
    // Every event named in the JSON output round-trips.
    let json = snap.to_json("FunnelTree");
    for ev in CounterEvent::ALL {
        assert!(json.contains(ev.name()), "{} missing from JSON", ev.name());
    }
}

/// Sharded aggregation is exact under concurrent writers: eight threads
/// hammer one recorder (more threads than shards, so shards are shared)
/// with a fixed per-thread schedule of events and batch samples; the
/// merged snapshot must report precisely the schedule times eight —
/// counts, item totals, and every size bucket.
#[test]
fn concurrent_writers_aggregate_exactly_across_shards() {
    const WRITERS: usize = 8;
    // Per-thread schedule: (batch size, how many batches). Log₂ buckets:
    // size 0 → bucket 0, 1 → 1, 6 → 3, 1000 → 10.
    const BATCHES: [(u64, u64); 4] = [(0, 3), (1, 5), (6, 4), (1000, 2)];
    for shards in [1, 4] {
        let rec = Arc::new(AtomicRecorder::with_shards(shards));
        let barrier = Arc::new(Barrier::new(WRITERS));
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                let rec = Arc::clone(&rec);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..300 {
                        rec.event(CounterEvent::CasRetry);
                    }
                    rec.event_n(CounterEvent::ElimHit, 7);
                    for _ in 0..17 {
                        rec.event(CounterEvent::ModeSwitch);
                    }
                    for (size, n) in BATCHES {
                        for _ in 0..n {
                            record_batch_op(&*rec, size);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = rec.snapshot();
        let w = WRITERS as u64;
        assert_eq!(snap.event(CounterEvent::CasRetry), 300 * w);
        assert_eq!(snap.event(CounterEvent::ElimHit), 7 * w);
        assert_eq!(snap.event(CounterEvent::ModeSwitch), 17 * w);
        // Events the schedule never fired stay zero.
        assert_eq!(snap.event(CounterEvent::FunnelCollision), 0);
        assert_eq!(snap.event(CounterEvent::LockAcquire), 0);

        let batches_per_thread: u64 = BATCHES.iter().map(|&(_, n)| n).sum();
        let items_per_thread: u64 = BATCHES.iter().map(|&(s, n)| s * n).sum();
        assert_eq!(snap.event(CounterEvent::BatchOp), batches_per_thread * w);
        assert_eq!(snap.batch.count, batches_per_thread * w);
        assert_eq!(snap.batch.total_items, items_per_thread * w);
        assert_eq!(snap.batch.size_buckets[0], 3 * w, "empty batches");
        assert_eq!(snap.batch.size_buckets[1], 5 * w, "size-1 batches");
        assert_eq!(snap.batch.size_buckets[3], 4 * w, "size-6 batches");
        assert_eq!(snap.batch.size_buckets[10], 2 * w, "size-1000 batches");
        assert_eq!(
            snap.batch.size_buckets.iter().sum::<u64>(),
            snap.batch.count,
            "size-histogram mass ({shards} shards)"
        );
    }
}

/// Queue-level batch APIs report exactly one [`CounterEvent::BatchOp`] per
/// call (never per item) even when batch calls from several threads race:
/// the counts are per-call deterministic although which items each drain
/// returns is not. All nine queues override both batch entry points; the
/// four heap-backed ones also fuse `replace_min`, which then counts as a
/// batched call of one item (elsewhere it is a delete-min and an insert).
#[test]
fn batch_ops_through_queues_count_once_per_call_under_contention() {
    const CALLS: usize = 40;
    const K: usize = 8;
    for a in Algorithm::EVERY {
        if a == Algorithm::HardwareTree {
            continue;
        }
        let fused = usize::from(matches!(
            a,
            Algorithm::SingleLock | Algorithm::HuntEtAl | Algorithm::MultiQueue | Algorithm::NumaPq
        ));
        let rec = Arc::new(AtomicRecorder::new());
        let q: Arc<dyn BoundedPq<u64>> = Arc::from(
            PqBuilder::new(a, 64, THREADS)
                .recorder(Arc::clone(&rec))
                .build::<u64>(),
        );
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for i in 0..CALLS {
                        let batch: Vec<_> =
                            (0..K).map(|j| ((tid + i + j) % 64, j as u64)).collect();
                        q.insert_batch(tid, batch).expect("unbounded backend");
                        q.delete_min_batch(tid, K, &mut out);
                        q.replace_min(tid, (tid + i) % 64, i as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Every batched call of an iteration counted once.
        let calls = (THREADS * CALLS * (2 + fused)) as u64;
        let snap = rec.snapshot();
        assert_eq!(snap.event(CounterEvent::BatchOp), calls, "{a}");
        assert_eq!(snap.batch.count, calls, "{a}");
        assert_eq!(
            snap.batch.size_buckets.iter().sum::<u64>(),
            calls,
            "{a}: size-histogram mass"
        );
        // Item totals: every insert_batch files exactly K, every fused
        // replace_min exactly 1; each drain takes 0..=K (racy), so the
        // aggregate is exactly bracketed.
        let floor = (THREADS * CALLS * (K + fused)) as u64;
        let ceil = (THREADS * CALLS * (2 * K + fused)) as u64;
        assert!(
            (floor..=ceil).contains(&snap.batch.total_items),
            "{a}: total_items {} outside [{floor}, {ceil}]",
            snap.batch.total_items
        );
    }
}

/// A batched delete that finds everything it wants in one bin is one bin
/// episode: one lock acquisition for eight items, and one `BatchOp`.
#[test]
fn a_batched_delete_from_one_bin_is_one_lock_acquisition() {
    let rec = Arc::new(AtomicRecorder::new());
    let q = PqBuilder::new(Algorithm::SimpleLinear, 8, 1)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    for i in 0..8 {
        q.insert(0, 3, i);
    }
    q.insert(0, 5, 8);
    let before = rec.snapshot();
    let mut out = Vec::new();
    assert_eq!(q.delete_min_batch(0, 8, &mut out), 8);
    assert!(out.iter().all(|&(pri, _)| pri == 3));
    let after = rec.snapshot();
    let delta = |e| after.event(e) - before.event(e);
    assert_eq!(delta(CounterEvent::LockAcquire), 1);
    assert_eq!(delta(CounterEvent::BatchOp), 1);
    assert_eq!(after.batch.total_items - before.batch.total_items, 8);
}

/// The NUMA-adaptive queue reports every controller switch-over both as a
/// [`CounterEvent::ModeSwitch`] on the attached recorder and in its
/// [`funnelpq::AdaptiveStats`] — and the two counts agree exactly.
#[test]
fn numa_mode_switches_are_counted_once_per_switch() {
    let rec = Arc::new(AtomicRecorder::new());
    let cfg = PqConfig::NumaPq(NumaConfig {
        nodes: 2,
        epoch_ops: 16,
        // Expensive emulated remote transfers: the controller must leave
        // oblivious mode within a few epochs.
        remote_ns: 2_000,
        ..NumaConfig::default()
    });
    // Two declared threads so the two-node topology survives clamping;
    // all operations still come from thread 0.
    let q = PqBuilder::from_config(cfg, 64, 2)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    for i in 0..400u64 {
        q.insert(0, (i % 64) as usize, i);
        q.delete_min(0);
    }
    let stats = q.adaptive_stats().expect("NumaPq exposes adaptive stats");
    let snap = rec.snapshot();
    assert!(
        stats.switches >= 1,
        "remote pressure must force at least one switch-over, got {stats:?}"
    );
    assert_eq!(
        snap.event(CounterEvent::ModeSwitch),
        stats.switches,
        "recorder and controller must agree on switch count"
    );
}
