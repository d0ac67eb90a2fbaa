//! Quickstart: build a FunnelTree bounded-range priority queue through
//! `PqBuilder`, share it across threads, drain it in priority order, and
//! print the metrics the attached recorder gathered.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use funnelpq::obs::AtomicRecorder;
use funnelpq::{Algorithm, PqBuilder};

fn main() {
    const THREADS: usize = 4;
    const PRIORITIES: usize = 32;

    // A queue supports a fixed priority range 0..N (smaller = more urgent)
    // and a fixed maximum number of registered threads. The builder fronts
    // all seven algorithms; the recorder is optional (omit it for zero
    // overhead).
    let rec = Arc::new(AtomicRecorder::new());
    let q = Arc::new(
        PqBuilder::new(Algorithm::FunnelTree, PRIORITIES, THREADS)
            .recorder(Arc::clone(&rec))
            .build::<String>(),
    );
    println!(
        "created {} ({}), {} priorities",
        q.algorithm().name(),
        q.consistency(),
        q.num_priorities()
    );

    // Each thread uses its own dense thread id (0..THREADS) for the
    // funnels' collision records.
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..8 {
                    let pri = (tid * 7 + i * 3) % PRIORITIES;
                    q.insert(tid, pri, format!("job-{tid}-{i}"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Drain at quiescence: items come out in priority order.
    let mut last = 0;
    let mut count = 0;
    while let Some((pri, item)) = q.delete_min(0) {
        assert!(pri >= last, "priority order violated");
        last = pri;
        count += 1;
        println!("  pri {pri:2}  {item}");
    }
    assert_eq!(count, THREADS * 8);
    println!("drained {count} items in priority order ✓");

    // What did the queue's internals get up to?
    let snap = rec.snapshot();
    println!(
        "metrics: {} inserts (mean of {} timed: {:.0} ns), \
         {} delete-mins (mean of {} timed: {:.0} ns), \
         {} lock acquisitions, {} empty delete-mins",
        snap.insert.count,
        snap.insert.timed,
        snap.insert.mean_nanos(),
        snap.delete_min.count,
        snap.delete_min.timed,
        snap.delete_min.mean_nanos(),
        snap.event(funnelpq::obs::CounterEvent::LockAcquire),
        snap.event(funnelpq::obs::CounterEvent::EmptyDeleteMin),
    );
}
